//! The model-based retrieval workflow of paper Fig. 5:
//!
//! 1. develop a hypothetical decision model,
//! 2. fit the model on available multi-modal data (calibration),
//! 3. retrieve the data subset that satisfies the model,
//! 4. revise the model with the retrieved data (relevance feedback),
//! 5. apply the revised model to a much bigger data set,
//! 6. repeat 3–4 as needed.
//!
//! The driver below runs that loop against a *planted* linear ground truth:
//! the archive's risk surface is generated by known coefficients, incident
//! reports are Poisson observations of it, and the loop starts from a
//! perturbed hypothesis. Each iteration retrieves the current top-K cells,
//! "inspects" them (reads their true occurrence counts — the relevance
//! feedback), refits on everything inspected so far, and measures retrieval
//! precision. The run record shows whether the revision loop converges
//! toward the planted model — the property the workflow exists to deliver.

use crate::engine::EffortReport;
use crate::error::CoreError;
use crate::metrics::precision_recall_at_k;
use crate::resilient::{resilient_top_k, ExecutionBudget};
use crate::source::{CellSource, PyramidSource};
use mbir_archive::extent::CellCoord;
use mbir_archive::grid::Grid2;
use mbir_models::linear::{fit_ols, fit_ridge, LinearModel};
use mbir_progressive::pyramid::AggregatePyramid;
use std::collections::HashSet;

/// Configuration of the Fig. 5 loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowConfig {
    /// Cells retrieved (and inspected) per iteration.
    pub k: usize,
    /// Revision iterations to run.
    pub iterations: usize,
    /// Random seed salt for the exploration probes.
    pub seed: u64,
    /// Exploration probes per iteration: cells sampled uniformly (not by
    /// the model) so calibration sees the full attribute range, the
    /// "improve the observability of the model" edge of Fig. 5.
    pub exploration: usize,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            k: 25,
            iterations: 6,
            seed: 17,
            exploration: 25,
        }
    }
}

/// One iteration's record.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0 = the initial hypothesis before feedback).
    pub iteration: usize,
    /// Model coefficients at the *start* of the iteration.
    pub coefficients: Vec<f64>,
    /// Precision of this iteration's top-K retrieval.
    pub precision: f64,
    /// Recall of this iteration's top-K retrieval.
    pub recall: f64,
    /// Labelled cells accumulated so far.
    pub labelled: usize,
    /// Retrieval work this iteration spent.
    pub effort: EffortReport,
}

/// The full run record.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowRun {
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// The final revised model.
    pub final_model: LinearModel,
}

impl WorkflowRun {
    /// Precision trajectory across iterations.
    #[cfg(test)]
    fn precision_trajectory(&self) -> Vec<f64> {
        self.iterations.iter().map(|i| i.precision).collect()
    }
}

/// Runs the Fig. 5 workflow.
///
/// * `attributes` — one pyramid per model attribute over the archive grid.
/// * `occurrences` — the incident reports `O(x,y)` (the inspection oracle).
/// * `hypothesis` — the starting model (step 1 of Fig. 5).
///
/// Each iteration retrieves with [`resilient_top_k`] over the resident
/// pyramids' base level with an unlimited budget — nothing can fail a
/// read, so the retrieval is bit-identical to
/// [`pyramid_top_k`](crate::engine::pyramid_top_k) — inspects the hits and
/// the exploration probes, refits, and repeats.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for misaligned inputs or a degenerate
/// configuration, and propagates engine/calibration errors. A singular
/// refit (all feedback identical) keeps the previous model rather than
/// failing the run.
pub fn run_workflow(
    attributes: &[AggregatePyramid],
    occurrences: &Grid2<u32>,
    hypothesis: LinearModel,
    config: WorkflowConfig,
) -> Result<WorkflowRun, CoreError> {
    if config.k == 0 || config.iterations == 0 {
        return Err(CoreError::Query(
            "workflow needs k >= 1 and iterations >= 1".into(),
        ));
    }
    if attributes.is_empty() {
        return Err(CoreError::Query("no attribute pyramids".into()));
    }
    let (rows, cols) = attributes[0].base_shape();
    if occurrences.rows() != rows || occurrences.cols() != cols {
        return Err(CoreError::Query("occurrence grid misaligned".into()));
    }
    if hypothesis.arity() != attributes.len() {
        return Err(CoreError::Query(format!(
            "hypothesis arity {} but {} attribute pyramids",
            hypothesis.arity(),
            attributes.len()
        )));
    }

    // Inspection reads the same base cells the retrieval scores.
    let source = PyramidSource::new(attributes);
    let budget = ExecutionBudget::unlimited();
    let attribute_vector = |cell: CellCoord| -> Option<Vec<f64>> {
        (0..attributes.len())
            .map(|attr| source.base_cell(attr, cell.row, cell.col).ok())
            .collect()
    };

    let mut model = hypothesis;
    let mut labelled: HashSet<CellCoord> = HashSet::new();
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut records = Vec::with_capacity(config.iterations);
    // Deterministic exploration sequence: a 64-bit LCG's top bits. Its
    // low bits have short periods (bit `b` repeats every 2^(b+1) draws),
    // so `% rows` on the whole state revisits a few cells.
    let mut probe_state = config.seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next_probe = move || {
        probe_state = probe_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        probe_state >> 33
    };

    for iteration in 0..config.iterations {
        // Step 3: retrieve top-K under the current model.
        let retrieved = resilient_top_k(&model, attributes, config.k, &source, &budget)?;
        // Accuracy of this retrieval against the oracle (the risk grid is
        // recomputed per iteration — the "apply to more data" edge).
        let risk = risk_grid(&model, attributes, rows, cols);
        let pr = precision_recall_at_k(&risk, occurrences, config.k)?;
        records.push(IterationRecord {
            iteration,
            coefficients: model.coefficients().to_vec(),
            precision: pr.precision,
            recall: pr.recall,
            labelled: labelled.len(),
            effort: retrieved.effort,
        });

        // Step 4: inspect the retrieved hits plus exploration probes, then
        // refit.
        let probes = (0..config.exploration).map(|_| {
            CellCoord::new(
                (next_probe() as usize) % rows,
                (next_probe() as usize) % cols,
            )
        });
        let inspected = retrieved.exact_cells().into_iter().map(|sc| sc.cell);
        for cell in inspected.chain(probes) {
            if labelled.contains(&cell) {
                continue;
            }
            if let Some(x) = attribute_vector(cell) {
                labelled.insert(cell);
                xs.push(x);
                ys.push(f64::from(*occurrences.at(cell.row, cell.col)));
            }
        }
        if xs.len() > model.arity() + 1 {
            match fit_ols(&xs, &ys) {
                Ok(fit) => model = fit.model,
                // Collinear feedback (correlated bands, clustered cells):
                // fall back to a lightly regularized ridge refit; if even
                // that degenerates, keep the current model and keep
                // collecting.
                Err(mbir_models::error::ModelError::Singular) => {
                    if let Ok(fit) = fit_ridge(&xs, &ys, 1e-6) {
                        model = fit.model;
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(WorkflowRun {
        iterations: records,
        final_model: model,
    })
}

/// Materializes the model's risk surface at base resolution.
fn risk_grid(
    model: &LinearModel,
    attributes: &[AggregatePyramid],
    rows: usize,
    cols: usize,
) -> Grid2<f64> {
    Grid2::from_fn(rows, cols, |r, c| {
        let x: Vec<f64> = attributes
            .iter()
            .map(|p| p.cell(0, r, c).map(|s| s.mean).expect("in-bounds"))
            .collect();
        model.evaluate(&x)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::synth::{GaussianField, OccurrenceSampler};

    /// A planted world: truth = 3-attribute linear model over smooth
    /// fields; occurrences Poisson-sampled from the normalized truth risk.
    fn planted_world(
        seed: u64,
        rows: usize,
        cols: usize,
    ) -> (Vec<AggregatePyramid>, Grid2<u32>, LinearModel) {
        let bands: Vec<Grid2<f64>> = (0..3)
            .map(|i| {
                GaussianField::new(seed + i as u64)
                    .with_roughness(0.4)
                    .generate(rows, cols)
                    .normalized(0.0, 100.0)
            })
            .collect();
        let truth = LinearModel::new(vec![0.5, 0.35, 0.15], 0.0).unwrap();
        let risk = Grid2::from_fn(rows, cols, |r, c| {
            truth.evaluate(&[*bands[0].at(r, c), *bands[1].at(r, c), *bands[2].at(r, c)])
        })
        .normalized(0.0, 1.0);
        let occurrences = OccurrenceSampler::new(seed ^ 0xabc)
            .with_base_rate(2.0)
            .sample(&risk.map(|&v| if v > 0.75 { v } else { 0.0 }));
        let pyramids = bands.iter().map(AggregatePyramid::build).collect();
        (pyramids, occurrences, truth)
    }

    #[test]
    fn workflow_validates_inputs() {
        let (pyramids, occ, truth) = planted_world(1, 16, 16);
        assert!(run_workflow(
            &pyramids,
            &occ,
            truth.clone(),
            WorkflowConfig {
                k: 0,
                ..WorkflowConfig::default()
            }
        )
        .is_err());
        assert!(run_workflow(
            &pyramids[..1],
            &occ,
            truth.clone(),
            WorkflowConfig::default()
        )
        .is_err());
        let small_occ = Grid2::filled(4, 4, 0u32);
        assert!(run_workflow(&pyramids, &small_occ, truth, WorkflowConfig::default()).is_err());
    }

    #[test]
    fn feedback_improves_a_bad_hypothesis() {
        let (pyramids, occ, truth) = planted_world(5, 48, 48);
        // A hypothesis that weights exactly the wrong attribute.
        let bad = LinearModel::new(vec![-0.2, 0.05, 0.9], 0.0).unwrap();
        let run = run_workflow(
            &pyramids,
            &occ,
            bad,
            WorkflowConfig {
                k: 40,
                iterations: 8,
                seed: 3,
                exploration: 60,
            },
        )
        .unwrap();
        let first = run.iterations.first().unwrap().precision;
        let last = run.iterations.last().unwrap().precision;
        assert!(
            last >= first,
            "precision should not degrade: {first} -> {last} ({:?})",
            run.precision_trajectory()
        );
        // The revised model should rank attributes like the truth: the
        // dominant coefficient index must match.
        let argmax = |m: &LinearModel| {
            m.coefficients()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_eq!(argmax(&run.final_model), argmax(&truth));
    }

    #[test]
    fn perfect_hypothesis_stays_good() {
        let (pyramids, occ, truth) = planted_world(9, 32, 32);
        let run = run_workflow(&pyramids, &occ, truth, WorkflowConfig::default()).unwrap();
        let trajectory = run.precision_trajectory();
        let first = trajectory[0];
        let last = *trajectory.last().unwrap();
        assert!(
            last >= first * 0.7,
            "a correct model must not be destroyed by feedback: {trajectory:?}"
        );
    }

    #[test]
    fn records_accumulate_labels() {
        let (pyramids, occ, truth) = planted_world(11, 24, 24);
        let run = run_workflow(
            &pyramids,
            &occ,
            truth,
            WorkflowConfig {
                k: 10,
                iterations: 4,
                seed: 1,
                exploration: 5,
            },
        )
        .unwrap();
        assert_eq!(run.iterations.len(), 4);
        for pair in run.iterations.windows(2) {
            assert!(pair[1].labelled >= pair[0].labelled);
        }
        assert_eq!(run.iterations[0].labelled, 0);
        assert!(run.iterations[3].labelled > 0);
    }
}
