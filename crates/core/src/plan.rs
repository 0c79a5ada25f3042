//! Query planning for progressive retrieval.
//!
//! §3.1 notes the connection to "query planning issues in query
//! optimization for object-relational databases", with the twist that
//! progressive execution selects "those operations that are most relevant
//! to the final results to be executed first". The planner below makes the
//! framework self-tuning: it inspects cheap statistics — pyramid-level
//! value spreads (spatial coherence) and model contribution skew — and
//! picks the engine whose bet those statistics support. All engines are
//! exact, so planning only moves work, never answers.

use crate::engine::{combined_top_k, naive_grid_top_k, pyramid_top_k, GridTopK};
use crate::error::CoreError;
use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
use mbir_progressive::pyramid::AggregatePyramid;
use std::fmt;

/// The engine a plan selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Plain scan: tiny archives where bound bookkeeping cannot pay off.
    Naive,
    /// Pyramid quad-descent with full-model bounds.
    Pyramid,
    /// Pyramid descent with truncated-model bounds at coarse levels.
    Combined,
}

impl fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EngineChoice::Naive => "naive scan",
            EngineChoice::Pyramid => "pyramid descent",
            EngineChoice::Combined => "combined progressive",
        };
        f.write_str(name)
    }
}

/// A plan: the chosen engine plus the statistics that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Selected engine.
    pub choice: EngineChoice,
    /// Estimated spatial coherence in `[0, 1]`: 1 − (mean level-2 cell
    /// spread / root spread). Smooth data ≈ 1, white noise ≈ 0.
    pub coherence: f64,
    /// Model contribution skew in `[0, 1]`: 1 − (terms needed for 90% of
    /// total contribution / arity). Uniform models ≈ 0.
    pub skew: f64,
    /// Human-readable rationale.
    pub rationale: String,
}

/// Thresholds steering the planner (defaults are conservative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Below this many cells a scan always wins.
    pub min_cells_for_index: usize,
    /// Minimum coherence for pyramid descent to pay.
    pub min_coherence: f64,
    /// Minimum skew for truncated-model bounds to pay.
    pub min_skew: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            min_cells_for_index: 1024,
            min_coherence: 0.35,
            min_skew: 0.3,
        }
    }
}

/// Builds a plan for a linear-model grid query.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for empty/misaligned inputs (same
/// validation as the engines).
pub fn plan_grid_query(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    config: &PlannerConfig,
) -> Result<QueryPlan, CoreError> {
    if pyramids.is_empty() {
        return Err(CoreError::Query("no attribute pyramids supplied".into()));
    }
    if pyramids.len() != model.arity() {
        return Err(CoreError::Query(format!(
            "model arity {} but {} pyramids",
            model.arity(),
            pyramids.len()
        )));
    }
    let (rows, cols) = pyramids[0].base_shape();
    let cells = rows * cols;

    // Coherence: how much narrower level-2 cells are than the root.
    let coherence = {
        let mut total = 0.0;
        let mut count = 0.0;
        for p in pyramids {
            let root_spread = p.root().spread().max(1e-12);
            let level = 2.min(p.levels() - 1);
            let (lr, lc) = p.level_shape(level);
            let mut acc = 0.0;
            for r in 0..lr {
                for c in 0..lc {
                    acc += p.cell(level, r, c)?.spread();
                }
            }
            total += 1.0 - (acc / (lr * lc) as f64) / root_spread;
            count += 1.0;
        }
        (total / count).clamp(0.0, 1.0)
    };

    // Skew: fraction of terms needed to cover 90% of total |a_i|*range_i.
    let skew = {
        let mut contributions: Vec<f64> = pyramids
            .iter()
            .zip(model.coefficients())
            .map(|(p, a)| a.abs() * p.root().spread())
            .collect();
        contributions.sort_by(|x, y| y.total_cmp(x));
        let total: f64 = contributions.iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            let mut acc = 0.0;
            let mut needed = 0usize;
            for c in &contributions {
                acc += c;
                needed += 1;
                if acc >= 0.9 * total {
                    break;
                }
            }
            1.0 - needed as f64 / contributions.len() as f64
        }
    };

    let (choice, rationale) = if cells < config.min_cells_for_index {
        (
            EngineChoice::Naive,
            format!(
                "{cells} cells is below the {}-cell indexing floor",
                config.min_cells_for_index
            ),
        )
    } else if coherence < config.min_coherence {
        (
            EngineChoice::Naive,
            format!(
                "coherence {coherence:.2} below {:.2}: region bounds would not prune",
                config.min_coherence
            ),
        )
    } else if skew >= config.min_skew && model.arity() >= 4 {
        (
            EngineChoice::Combined,
            format!("coherence {coherence:.2} and contribution skew {skew:.2}: truncate the model at coarse levels"),
        )
    } else {
        (
            EngineChoice::Pyramid,
            format!("coherence {coherence:.2} but low skew {skew:.2}: full-model bounds"),
        )
    };
    Ok(QueryPlan {
        choice,
        coherence,
        skew,
        rationale,
    })
}

/// Plans and executes in one call, returning the plan alongside the result.
///
/// # Errors
///
/// Propagates planning and engine errors.
pub fn execute_planned(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    config: &PlannerConfig,
) -> Result<(QueryPlan, GridTopK), CoreError> {
    let plan = plan_grid_query(model, pyramids, config)?;
    let result = match plan.choice {
        EngineChoice::Naive => naive_grid_top_k(model, pyramids, k)?,
        EngineChoice::Pyramid => pyramid_top_k(model, pyramids, k)?,
        EngineChoice::Combined => {
            let ranges: Vec<(f64, f64)> = pyramids
                .iter()
                .map(|p| {
                    let root = p.root();
                    (root.min, root.max)
                })
                .collect();
            let progressive =
                ProgressiveLinearModel::new(model.clone(), &ranges).map_err(CoreError::Model)?;
            combined_top_k(&progressive, pyramids, k)?
        }
    };
    Ok((plan, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::grid::Grid2;

    fn smooth_pyramids(arity: usize, side: usize) -> Vec<AggregatePyramid> {
        (0..arity)
            .map(|i| {
                AggregatePyramid::build(&Grid2::from_fn(side, side, |r, c| {
                    ((r as f64 / 11.0 + i as f64).sin() + (c as f64 / 7.0).cos()) * 40.0
                }))
            })
            .collect()
    }

    fn noise_pyramids(arity: usize, side: usize) -> Vec<AggregatePyramid> {
        (0..arity)
            .map(|i| {
                AggregatePyramid::build(&Grid2::from_fn(side, side, |r, c| {
                    let h = (i as u64 + 1)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add((r * 9176 + c * 31) as u64)
                        .wrapping_mul(0x9e3779b97f4a7c15);
                    (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0
                }))
            })
            .collect()
    }

    #[test]
    fn tiny_grids_scan() {
        let pyramids = smooth_pyramids(2, 8);
        let model = LinearModel::new(vec![1.0, 1.0], 0.0).unwrap();
        let plan = plan_grid_query(&model, &pyramids, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.choice, EngineChoice::Naive);
        assert!(plan.rationale.contains("floor"));
    }

    #[test]
    fn noise_scans_smooth_descends() {
        let model = LinearModel::new(vec![1.0, 1.0], 0.0).unwrap();
        let noisy =
            plan_grid_query(&model, &noise_pyramids(2, 64), &PlannerConfig::default()).unwrap();
        assert_eq!(noisy.choice, EngineChoice::Naive);
        assert!(noisy.coherence < 0.35, "coherence {}", noisy.coherence);
        let smooth =
            plan_grid_query(&model, &smooth_pyramids(2, 64), &PlannerConfig::default()).unwrap();
        assert_eq!(smooth.choice, EngineChoice::Pyramid);
        assert!(smooth.coherence > 0.35, "coherence {}", smooth.coherence);
    }

    #[test]
    fn skewed_wide_models_go_combined() {
        let pyramids = smooth_pyramids(8, 64);
        let coeffs: Vec<f64> = (0..8).map(|i| 4.0 * 0.3f64.powi(i)).collect();
        let model = LinearModel::new(coeffs, 0.0).unwrap();
        let plan = plan_grid_query(&model, &pyramids, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.choice, EngineChoice::Combined);
        assert!(plan.skew >= 0.3, "skew {}", plan.skew);
    }

    #[test]
    fn execute_planned_is_exact_for_every_choice() {
        let k = 5;
        for (pyramids, coeffs) in [
            (smooth_pyramids(2, 8), vec![1.0, 1.0]),  // naive
            (noise_pyramids(2, 64), vec![1.0, 1.0]),  // naive (noise)
            (smooth_pyramids(2, 64), vec![1.0, 1.0]), // pyramid
            (
                smooth_pyramids(8, 64),
                (0..8).map(|i| 4.0 * 0.3f64.powi(i)).collect(),
            ), // combined
        ] {
            let model = LinearModel::new(coeffs, 0.0).unwrap();
            let (plan, result) =
                execute_planned(&model, &pyramids, k, &PlannerConfig::default()).unwrap();
            let reference = naive_grid_top_k(&model, &pyramids, k).unwrap();
            for (a, b) in result.results.iter().zip(&reference.results) {
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "{} must be exact",
                    plan.choice
                );
            }
        }
    }

    #[test]
    fn planner_validates() {
        let model = LinearModel::new(vec![1.0, 1.0], 0.0).unwrap();
        assert!(plan_grid_query(&model, &[], &PlannerConfig::default()).is_err());
        let one = smooth_pyramids(1, 16);
        assert!(plan_grid_query(&model, &one, &PlannerConfig::default()).is_err());
    }
}
