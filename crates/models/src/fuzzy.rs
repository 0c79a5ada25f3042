//! Fuzzy memberships — the "fuzzy and/or probabilistic rules specified
//! within the model" (paper §3) that knowledge models compile to.

use std::fmt;

/// A fuzzy membership function mapping a raw value to a degree in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Membership {
    /// 1 inside `[lo, hi]`, falling linearly to 0 over `ramp` outside.
    Trapezoid {
        /// Lower edge of the plateau.
        lo: f64,
        /// Upper edge of the plateau.
        hi: f64,
        /// Width of the linear ramps on each side.
        ramp: f64,
    },
    /// Smooth step rising through `center` with steepness `slope` (positive
    /// slope: larger values → higher degree).
    Sigmoid {
        /// Midpoint (degree 0.5).
        center: f64,
        /// Steepness; sign sets direction.
        slope: f64,
    },
    /// 1 iff the value is at or above the threshold (crisp).
    AtLeast(f64),
    /// 1 iff the value is at or below the threshold (crisp).
    AtMost(f64),
}

impl Membership {
    /// The membership degree of `value`.
    pub fn degree(&self, value: f64) -> f64 {
        match self {
            Membership::Trapezoid { lo, hi, ramp } => {
                if value >= *lo && value <= *hi {
                    1.0
                } else if *ramp <= 0.0 {
                    0.0
                } else if value < *lo {
                    (1.0 - (lo - value) / ramp).max(0.0)
                } else {
                    (1.0 - (value - hi) / ramp).max(0.0)
                }
            }
            Membership::Sigmoid { center, slope } => {
                1.0 / (1.0 + (-(value - center) * slope).exp())
            }
            Membership::AtLeast(t) => {
                if value >= *t {
                    1.0
                } else {
                    0.0
                }
            }
            Membership::AtMost(t) => {
                if value <= *t {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Membership::Trapezoid { lo, hi, ramp } => {
                write!(f, "trapezoid[{lo}, {hi}] ±{ramp}")
            }
            Membership::Sigmoid { center, slope } => write!(f, "sigmoid({center}, {slope})"),
            Membership::AtLeast(t) => write!(f, ">= {t}"),
            Membership::AtMost(t) => write!(f, "<= {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trapezoid_shape() {
        let m = Membership::Trapezoid {
            lo: 10.0,
            hi: 20.0,
            ramp: 5.0,
        };
        assert_eq!(m.degree(15.0), 1.0);
        assert_eq!(m.degree(10.0), 1.0);
        assert_eq!(m.degree(20.0), 1.0);
        assert!((m.degree(7.5) - 0.5).abs() < 1e-12);
        assert!((m.degree(22.5) - 0.5).abs() < 1e-12);
        assert_eq!(m.degree(4.9), 0.0);
        assert_eq!(m.degree(25.1), 0.0);
    }

    #[test]
    fn zero_ramp_trapezoid_is_crisp() {
        let m = Membership::Trapezoid {
            lo: 0.0,
            hi: 1.0,
            ramp: 0.0,
        };
        assert_eq!(m.degree(0.5), 1.0);
        assert_eq!(m.degree(1.0001), 0.0);
    }

    #[test]
    fn sigmoid_direction_and_midpoint() {
        let rising = Membership::Sigmoid {
            center: 45.0,
            slope: 0.5,
        };
        assert!((rising.degree(45.0) - 0.5).abs() < 1e-12);
        assert!(rising.degree(60.0) > 0.99);
        assert!(rising.degree(30.0) < 0.01);
        let falling = Membership::Sigmoid {
            center: 45.0,
            slope: -0.5,
        };
        assert!(falling.degree(60.0) < 0.01);
    }

    #[test]
    fn crisp_thresholds() {
        assert_eq!(Membership::AtLeast(45.0).degree(45.0), 1.0);
        assert_eq!(Membership::AtLeast(45.0).degree(44.9), 0.0);
        assert_eq!(Membership::AtMost(10.0).degree(10.0), 1.0);
        assert_eq!(Membership::AtMost(10.0).degree(10.1), 0.0);
    }

    proptest! {
        #[test]
        fn prop_degrees_in_unit_interval(v in -1e6f64..1e6) {
            let memberships = [
                Membership::Trapezoid { lo: -5.0, hi: 5.0, ramp: 2.0 },
                Membership::Sigmoid { center: 0.0, slope: 0.1 },
                Membership::AtLeast(3.0),
                Membership::AtMost(-3.0),
            ];
            for m in &memberships {
                let d = m.degree(v);
                prop_assert!((0.0..=1.0).contains(&d), "{m} gave {d}");
            }
        }
    }
}
