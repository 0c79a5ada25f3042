//! Progressive decomposition of a linear model (paper §3.1).
//!
//! "If |a1, a2| >> |a3, a4| then a coarser representation of the model ...
//! will be R*(x,y,t) ~ a1 X1 + a2 X2. Consequently R and R* represent two
//! levels of progressive models. In general, the generation of progressively
//! coarser representation of a model can be accomplished by analyzing the
//! relative contribution of each parameter to the overall model."
//!
//! Terms are ranked by contribution `|a_i| * range(X_i)` — the coefficient
//! alone is meaningless without the attribute's dynamic range. Every stage
//! carries a *residual bound*: the largest amount the unevaluated suffix can
//! move the score, so stage evaluations return sound intervals and pruning
//! on them never changes the exact top-K (verified by property tests and by
//! the engine's equivalence tests).

use crate::error::ModelError;
use crate::linear::LinearModel;

/// The interval produced by evaluating a prefix of the model's terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBound {
    /// Score lower bound.
    pub lo: f64,
    /// Score upper bound.
    pub hi: f64,
    /// Multiply-adds spent so far on this tuple.
    pub cost: usize,
}

impl StageBound {}

/// A linear model decomposed into contribution-ranked progressive stages.
///
/// # Examples
///
/// ```
/// use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
///
/// let model = LinearModel::new(vec![0.01, 5.0, 0.2], 0.0).unwrap();
/// let ranges = vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)];
/// let prog = ProgressiveLinearModel::new(model, &ranges).unwrap();
/// // The dominant term (a2 = 5.0) is evaluated first.
/// assert_eq!(prog.term_order()[0], 1);
/// let b = prog.evaluate_stage(&[0.5, 0.5, 0.5], 1);
/// assert!(b.lo <= 2.6 && 2.6 <= b.hi);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveLinearModel {
    model: LinearModel,
    ranges: Vec<(f64, f64)>,
    /// Attribute indexes in descending contribution order.
    order: Vec<usize>,
    /// `residual[j]` = max possible |suffix contribution| after evaluating
    /// the first `j` ordered terms, relative to the suffix midpoint.
    residual: Vec<f64>,
    /// Midpoint contribution of the suffix after `j` terms (center of the
    /// unevaluated mass, so intervals are tight).
    suffix_mid: Vec<f64>,
}

impl ProgressiveLinearModel {
    /// Decomposes `model` given per-attribute value ranges observed on (a
    /// sample of) the archive.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when `ranges` disagrees with
    /// the model arity and [`ModelError::InvalidValue`] for inverted or
    /// non-finite ranges.
    pub fn new(model: LinearModel, ranges: &[(f64, f64)]) -> Result<Self, ModelError> {
        if ranges.len() != model.arity() {
            return Err(ModelError::ArityMismatch {
                expected: model.arity(),
                actual: ranges.len(),
            });
        }
        for (lo, hi) in ranges {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(ModelError::InvalidValue(format!(
                    "invalid attribute range [{lo}, {hi}]"
                )));
            }
        }
        let n = model.arity();
        let mut order: Vec<usize> = (0..n).collect();
        let contribution = |i: usize| {
            let (lo, hi) = ranges[i];
            model.coefficients()[i].abs() * (hi - lo)
        };
        order.sort_by(|&i, &j| contribution(j).total_cmp(&contribution(i)));

        // Suffix interval of term i over its range: a_i * [lo, hi] (sign
        // handled); accumulate suffix midpoints and half-widths back-to-front.
        let mut residual = vec![0.0; n + 1];
        let mut suffix_mid = vec![0.0; n + 1];
        for j in (0..n).rev() {
            let i = order[j];
            let a = model.coefficients()[i];
            let (lo, hi) = ranges[i];
            let (t_lo, t_hi) = if a >= 0.0 {
                (a * lo, a * hi)
            } else {
                (a * hi, a * lo)
            };
            suffix_mid[j] = suffix_mid[j + 1] + (t_lo + t_hi) / 2.0;
            residual[j] = residual[j + 1] + (t_hi - t_lo) / 2.0;
        }
        Ok(ProgressiveLinearModel {
            model,
            ranges: ranges.to_vec(),
            order,
            residual,
            suffix_mid,
        })
    }

    /// The underlying exact model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// Attribute ranges the decomposition assumed.
    pub fn ranges(&self) -> &[(f64, f64)] {
        &self.ranges
    }

    /// Attribute indexes in evaluation (descending contribution) order.
    pub fn term_order(&self) -> &[usize] {
        &self.order
    }

    /// Number of stages (= model arity; stage `j` evaluates `j` terms;
    /// stage `arity()` is exact).
    pub fn stages(&self) -> usize {
        self.model.arity()
    }

    /// Evaluates the first `terms` ordered terms of the model on `x`,
    /// returning a sound score interval.
    ///
    /// Soundness requires each `x[i]` to lie inside the range supplied at
    /// construction; out-of-range values are clamped into it (keeping the
    /// interval sound for the clamped value, and pragmatic for stragglers
    /// beyond the calibration sample).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != arity` or `terms > stages()`.
    pub fn evaluate_stage(&self, x: &[f64], terms: usize) -> StageBound {
        assert_eq!(x.len(), self.model.arity(), "attribute count mismatch");
        assert!(terms <= self.stages(), "stage out of range");
        let mut partial = self.model.intercept();
        for &i in &self.order[..terms] {
            let (lo, hi) = self.ranges[i];
            partial += self.model.coefficients()[i] * x[i].clamp(lo, hi);
        }
        let center = partial + self.suffix_mid[terms];
        let half = self.residual[terms];
        StageBound {
            lo: center - half,
            hi: center + half,
            cost: terms,
        }
    }

    /// Exact evaluation (all terms).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != arity`.
    #[cfg(test)]
    fn evaluate_exact(&self, x: &[f64]) -> f64 {
        self.model.evaluate(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hps_like() -> ProgressiveLinearModel {
        let model = LinearModel::new(vec![0.443, 0.222, 0.153, 0.183], 0.0).unwrap();
        // Bands 0..255, elevation 0..3000 — elevation dominates by range.
        let ranges = vec![(0.0, 255.0), (0.0, 255.0), (0.0, 255.0), (0.0, 3000.0)];
        ProgressiveLinearModel::new(model, &ranges).unwrap()
    }

    #[test]
    fn ordering_uses_coefficient_times_range() {
        let p = hps_like();
        // 0.183 * 3000 = 549 dominates 0.443 * 255 = 113.
        assert_eq!(p.term_order()[0], 3);
        assert_eq!(p.term_order()[1], 0);
    }

    #[test]
    fn stage_zero_bounds_whole_model_range() {
        let p = hps_like();
        let x = [100.0, 50.0, 200.0, 1500.0];
        let b = p.evaluate_stage(&x, 0);
        let exact = p.evaluate_exact(&x);
        assert!(b.lo <= exact && exact <= b.hi);
        assert_eq!(b.cost, 0);
        let (lo, hi) = p
            .model()
            .bound_over_box(p.ranges())
            .expect("ranges match arity");
        assert!((b.lo - lo).abs() < 1e-9);
        assert!((b.hi - hi).abs() < 1e-9);
    }

    #[test]
    fn intervals_nest_and_converge() {
        let p = hps_like();
        let x = [100.0, 50.0, 200.0, 1500.0];
        let exact = p.evaluate_exact(&x);
        let mut prev_width = f64::INFINITY;
        for stage in 0..=p.stages() {
            let b = p.evaluate_stage(&x, stage);
            assert!(
                b.lo <= exact + 1e-9 && exact <= b.hi + 1e-9,
                "stage {stage}"
            );
            assert!((b.hi - b.lo) <= prev_width + 1e-9, "widths must shrink");
            prev_width = b.hi - b.lo;
        }
        let last = p.evaluate_stage(&x, p.stages());
        assert!((last.hi - last.lo) < 1e-9, "final stage is exact");
        assert!(((last.lo + last.hi) / 2.0 - exact).abs() < 1e-9);
    }

    #[test]
    fn constructor_validates() {
        let m = LinearModel::new(vec![1.0, 2.0], 0.0).unwrap();
        assert!(ProgressiveLinearModel::new(m.clone(), &[(0.0, 1.0)]).is_err());
        assert!(matches!(
            ProgressiveLinearModel::new(m, &[(1.0, 0.0), (0.0, 1.0)]),
            Err(ModelError::InvalidValue(_))
        ));
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        let p = hps_like();
        let b = p.evaluate_stage(&[500.0, 0.0, 0.0, 0.0], p.stages());
        // 500 clamps to 255.
        assert!(((b.lo + b.hi) / 2.0 - 0.443 * 255.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_every_stage_brackets_exact(
            coeffs in proptest::collection::vec(-5.0f64..5.0, 1..8),
            seed in 0u64..500,
        ) {
            let n = coeffs.len();
            let model = LinearModel::new(coeffs, 0.3).unwrap();
            let ranges: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let w = ((seed + i as u64) % 7 + 1) as f64;
                    (-w, w * 2.0)
                })
                .collect();
            let p = ProgressiveLinearModel::new(model, &ranges).unwrap();
            // A point inside the box.
            let x: Vec<f64> = ranges
                .iter()
                .enumerate()
                .map(|(i, (lo, hi))| lo + (hi - lo) * (((seed as usize + i * 13) % 10) as f64 / 9.0))
                .collect();
            let exact = p.evaluate_exact(&x);
            for stage in 0..=p.stages() {
                let b = p.evaluate_stage(&x, stage);
                prop_assert!(b.lo <= exact + 1e-9 && exact <= b.hi + 1e-9);
            }
        }
    }
}
