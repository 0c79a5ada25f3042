//! The FICO-style credit-scoring model (paper §2.1):
//!
//! > `FICO = 900 - a1 X1 - ... - aN XN` where the attributes include late
//! > payments, the amount of time credit has been established, utilization,
//! > length of time at present residence, employment history, and negative
//! > credit information; scores range 300–900, with P(foreclosure) < 2% above
//! > 680 and 8% below 620.

use crate::linear::LinearModel;
use mbir_archive::randx;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A credit applicant record over the six attribute families the paper
/// lists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Applicant {
    /// Number of late payments on record.
    pub late_payments: f64,
    /// Years since the first credit line.
    pub credit_age_years: f64,
    /// Credit used / credit available, in `[0, 1]`.
    pub utilization: f64,
    /// Years at present residence.
    pub residence_years: f64,
    /// Gaps / instability in employment history (0 = stable).
    pub employment_gaps: f64,
    /// Count of bankruptcies, charge-offs, collections.
    pub derogatories: f64,
}

impl Applicant {
    /// The attribute vector in model order.
    pub fn to_vector(self) -> [f64; 6] {
        [
            self.late_payments,
            self.credit_age_years,
            self.utilization,
            self.residence_years,
            self.employment_gaps,
            self.derogatories,
        ]
    }
}

/// The scoring model `score = 900 - Σ a_i X_i`, clamped to `[300, 900]`.
///
/// Note the sign convention: *protective* attributes (credit age, residence
/// stability) carry negative `a_i` so they add to the score.
///
/// # Examples
///
/// ```
/// use mbir_models::linear::{Applicant, FicoModel};
///
/// let model = FicoModel::standard();
/// let clean = Applicant {
///     late_payments: 0.0, credit_age_years: 20.0, utilization: 0.1,
///     residence_years: 10.0, employment_gaps: 0.0, derogatories: 0.0,
/// };
/// assert!(model.score(&clean) > 750.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FicoModel {
    penalties: LinearModel,
}

impl FicoModel {
    /// A standard penalty weighting over the six attributes.
    pub fn standard() -> Self {
        // (late, credit_age, utilization, residence, employment, derogs).
        FicoModel {
            penalties: LinearModel::new(vec![22.0, -4.0, 120.0, -2.5, 15.0, 70.0], 0.0)
                .expect("standard weights are valid"),
        }
    }

    /// The penalty sub-model (the `Σ a_i X_i` part).
    pub fn penalties(&self) -> &LinearModel {
        &self.penalties
    }

    /// The applicant's score, clamped to the 300–900 published range.
    pub fn score(&self, applicant: &Applicant) -> f64 {
        (900.0 - self.penalties.evaluate(&applicant.to_vector())).clamp(300.0, 900.0)
    }

    /// P(foreclosure | score), a logistic curve anchored to the paper's
    /// figures: <2% above 680 and 8% below 620.
    pub fn foreclosure_probability(&self, score: f64) -> f64 {
        // p(s) = 1 / (1 + exp(k (s - s0))); solving p(680) = 0.02 and
        // p(620) = 0.08 gives k ≈ 0.0451, s0 ≈ 593.6.
        let k = 0.045_1;
        let s0 = 593.6;
        1.0 / (1.0 + (k * (score - s0)).exp())
    }
}

/// Seeded generator of synthetic applicant populations with realistic
/// attribute couplings (risky applicants tend to be risky on several axes).
#[derive(Debug, Clone)]
pub struct ApplicantGenerator {
    seed: u64,
}

impl ApplicantGenerator {
    /// Creates a generator.
    pub fn new(seed: u64) -> Self {
        ApplicantGenerator { seed }
    }

    /// Generates `n` applicants.
    pub fn generate(&self, n: usize) -> Vec<Applicant> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..n)
            .map(|_| {
                // Latent riskiness couples the attributes.
                let risk: f64 = rng.random();
                let late = randx::poisson(&mut rng, 4.0 * risk) as f64;
                Applicant {
                    late_payments: late,
                    credit_age_years: (randx::normal(&mut rng, 18.0 * (1.0 - risk) + 2.0, 4.0))
                        .max(0.0),
                    utilization: (risk * 0.8 + 0.2 * rng.random::<f64>()).clamp(0.0, 1.0),
                    residence_years: (randx::exponential(&mut rng, 0.2) * (1.2 - risk)).max(0.0),
                    employment_gaps: randx::poisson(&mut rng, 2.0 * risk) as f64,
                    derogatories: randx::poisson(&mut rng, 1.2 * risk * risk) as f64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Applicant {
        Applicant {
            late_payments: 0.0,
            credit_age_years: 25.0,
            utilization: 0.05,
            residence_years: 12.0,
            employment_gaps: 0.0,
            derogatories: 0.0,
        }
    }

    fn risky() -> Applicant {
        Applicant {
            late_payments: 8.0,
            credit_age_years: 1.0,
            utilization: 0.95,
            residence_years: 0.5,
            employment_gaps: 4.0,
            derogatories: 2.0,
        }
    }

    #[test]
    fn scores_order_applicants_sensibly() {
        let m = FicoModel::standard();
        let good = m.score(&clean());
        let bad = m.score(&risky());
        assert!(good > 750.0, "clean applicant scored {good}");
        assert!(bad < 620.0, "risky applicant scored {bad}");
        assert!(good > bad);
    }

    #[test]
    fn scores_are_clamped_to_published_range() {
        let m = FicoModel::standard();
        let catastrophic = Applicant {
            late_payments: 100.0,
            credit_age_years: 0.0,
            utilization: 1.0,
            residence_years: 0.0,
            employment_gaps: 50.0,
            derogatories: 20.0,
        };
        assert_eq!(m.score(&catastrophic), 300.0);
        let saintly = Applicant {
            credit_age_years: 80.0,
            residence_years: 60.0,
            ..clean()
        };
        assert_eq!(m.score(&saintly), 900.0);
    }

    #[test]
    fn foreclosure_anchors_match_paper() {
        let m = FicoModel::standard();
        assert!(
            m.foreclosure_probability(680.0) < 0.021,
            "paper: <2% above 680"
        );
        assert!(
            m.foreclosure_probability(620.0) >= 0.075,
            "paper: 8% below 620"
        );
        // Monotone decreasing in score.
        assert!(m.foreclosure_probability(500.0) > m.foreclosure_probability(700.0));
    }

    #[test]
    fn generator_is_deterministic_and_spread() {
        let g = ApplicantGenerator::new(5);
        let a = g.generate(500);
        assert_eq!(a, ApplicantGenerator::new(5).generate(500));
        let m = FicoModel::standard();
        let scores: Vec<f64> = a.iter().map(|x| m.score(x)).collect();
        let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo < 620.0, "population should include subprime, min {lo}");
        assert!(hi > 800.0, "population should include prime, max {hi}");
    }

    #[test]
    fn generated_attributes_are_physical() {
        for a in ApplicantGenerator::new(9).generate(300) {
            assert!(a.late_payments >= 0.0);
            assert!((0.0..=1.0).contains(&a.utilization));
            assert!(a.credit_age_years >= 0.0);
            assert!(a.residence_years >= 0.0);
        }
    }
}
