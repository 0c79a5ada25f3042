//! Linear time-invariant models (paper §2.1) and their progressive
//! decomposition (§3.1).

mod fico;
mod hps;
mod progressive;
mod regression;

pub use fico::{Applicant, ApplicantGenerator, FicoModel};
pub use hps::{hps_risk_grid, HpsRiskModel, TemporalHpsModel, HPS_COEFFICIENTS};
pub use progressive::{ProgressiveLinearModel, StageBound};
pub use regression::{fit_ols, fit_ridge, OlsFit};

use crate::error::ModelError;
use std::fmt;

/// A linear model `Y = a_1 X_1 + a_2 X_2 + ... + a_n X_n + b`.
///
/// This is the paper's linear time-invariant form; the intercept `b` is 0
/// for the HPS risk model and 900 for the FICO score.
///
/// # Examples
///
/// ```
/// use mbir_models::linear::LinearModel;
///
/// let m = LinearModel::new(vec![2.0, -1.0], 1.0).unwrap();
/// assert_eq!(m.evaluate(&[3.0, 4.0]), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    coefficients: Vec<f64>,
    intercept: f64,
}

impl LinearModel {
    /// Creates a model from coefficients and intercept.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for zero terms and
    /// [`ModelError::InvalidValue`] for non-finite values.
    pub fn new(coefficients: Vec<f64>, intercept: f64) -> Result<Self, ModelError> {
        if coefficients.is_empty() {
            return Err(ModelError::Empty);
        }
        if !intercept.is_finite() || coefficients.iter().any(|c| !c.is_finite()) {
            return Err(ModelError::InvalidValue(
                "coefficients and intercept must be finite".to_owned(),
            ));
        }
        Ok(LinearModel {
            coefficients,
            intercept,
        })
    }

    /// Number of attributes (model arity).
    pub fn arity(&self) -> usize {
        self.coefficients.len()
    }

    /// The coefficients `a_1..a_n`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The intercept `b`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Evaluates the model on an attribute vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != arity()`.
    pub fn evaluate(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.arity(), "attribute count mismatch");
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(a, v)| a * v)
                .sum::<f64>()
    }

    /// Interval image of the model over an attribute box: given per-attribute
    /// `[lo, hi]` ranges, returns the exact `[min, max]` of the model over
    /// the box (coefficient sign picks the extremal corner). This is the
    /// bound used to prune pyramid regions soundly.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a wrong-length input.
    pub fn bound_over_box(&self, ranges: &[(f64, f64)]) -> Result<(f64, f64), ModelError> {
        if ranges.len() != self.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.arity(),
                actual: ranges.len(),
            });
        }
        let mut lo = self.intercept;
        let mut hi = self.intercept;
        for (a, (rlo, rhi)) in self.coefficients.iter().zip(ranges) {
            if *a >= 0.0 {
                lo += a * rlo;
                hi += a * rhi;
            } else {
                lo += a * rhi;
                hi += a * rlo;
            }
        }
        Ok((lo, hi))
    }
}

impl fmt::Display for LinearModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Y = ")?;
        for (i, a) in self.coefficients.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{a:.4}*X{}", i + 1)?;
        }
        if self.intercept != 0.0 {
            write!(f, " + {:.4}", self.intercept)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(matches!(
            LinearModel::new(vec![], 0.0),
            Err(ModelError::Empty)
        ));
        assert!(matches!(
            LinearModel::new(vec![f64::NAN], 0.0),
            Err(ModelError::InvalidValue(_))
        ));
        assert!(matches!(
            LinearModel::new(vec![1.0], f64::INFINITY),
            Err(ModelError::InvalidValue(_))
        ));
    }

    #[test]
    fn evaluate_matches_formula() {
        let m = LinearModel::new(vec![0.443, 0.222, 0.153, 0.183], 0.0).unwrap();
        let x = [100.0, 50.0, 30.0, 1200.0];
        let expected = 0.443 * 100.0 + 0.222 * 50.0 + 0.153 * 30.0 + 0.183 * 1200.0;
        assert!((m.evaluate(&x) - expected).abs() < 1e-12);
    }

    #[test]
    fn box_bound_is_exact_on_corners() {
        let m = LinearModel::new(vec![2.0, -3.0], 1.0).unwrap();
        let (lo, hi) = m.bound_over_box(&[(0.0, 1.0), (0.0, 1.0)]).unwrap();
        // Corners: 1, 3, -2, 0 -> min -2, max 3.
        assert_eq!(lo, -2.0);
        assert_eq!(hi, 3.0);
        assert!(m.bound_over_box(&[(0.0, 1.0)]).is_err());
    }

    #[test]
    fn display_renders_equation() {
        let m = LinearModel::new(vec![1.0, -2.0], 0.5).unwrap();
        let s = m.to_string();
        assert!(s.contains("X1"));
        assert!(s.contains("X2"));
        assert!(s.contains("0.5"));
    }
}
