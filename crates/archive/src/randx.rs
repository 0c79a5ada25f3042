//! Distribution helpers on top of `rand`.
//!
//! The offline dependency set excludes `rand_distr`, so the handful of
//! distributions the generators need (Gaussian, Poisson, exponential) are
//! implemented here directly.

use rand::{Rng, RngExt};

/// Draws a standard normal `N(0, 1)` sample using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u == 0 so ln(u) is finite.
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let v: f64 = rng.random();
    (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
}

/// Draws a normal `N(mean, std_dev^2)` sample.
///
/// # Panics
///
/// Panics if `std_dev` is negative or not finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev >= 0.0 && std_dev.is_finite(),
        "std_dev must be finite and non-negative, got {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// Draws a Poisson(λ) sample.
///
/// Uses Knuth's product method for small λ and a normal approximation with
/// continuity correction for λ > 30 (the crossover keeps both branches fast
/// and accurate for the rates used by the occurrence generators).
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "lambda must be finite and non-negative, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let s = normal(rng, lambda, lambda.sqrt());
        return s.round().max(0.0) as u64;
    }
    let limit = (-lambda).exp();
    let mut product: f64 = rng.random();
    let mut count = 0u64;
    while product > limit {
        product *= rng.random::<f64>();
        count += 1;
    }
    count
}

/// Draws an exponential sample with the given rate (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "rate must be finite and positive, got {rate}"
    );
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_converge() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_mean_matches_lambda_small() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 30_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.08, "mean {mean}");
    }

    #[test]
    fn poisson_mean_matches_lambda_large() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 100.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100.0).abs() < 0.6, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 30_000;
        let total: f64 = (0..n).map(|_| exponential(&mut rng, 0.5)).sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "std_dev")]
    fn normal_rejects_negative_std() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = normal(&mut rng, 0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn poisson_rejects_negative_lambda() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = poisson(&mut rng, -2.0);
    }
}
