//! Haar wavelet transforms — the multi-resolution representation the paper
//! cites (\[1\]–\[3\]) for "rough approximations of information at low
//! resolutions, with more detailed views at higher resolutions".
//!
//! The unnormalized Haar pair `(average, half-difference)` is used so that
//! approximation coefficients stay in the data's units (an approximation at
//! level L is simply the mean of each 2^L block), which is what progressive
//! model evaluation needs.

/// One level of a 1-D Haar analysis: `(approximations, details)`.
///
/// For an odd-length input the trailing sample is carried into the
/// approximation band unchanged and the detail band is one shorter.
///
/// # Examples
///
/// ```
/// use mbir_progressive::wavelet::haar_decompose_1d;
///
/// let (approx, detail) = haar_decompose_1d(&[1.0, 3.0, 2.0, 8.0]);
/// assert_eq!(approx, vec![2.0, 5.0]);
/// assert_eq!(detail, vec![-1.0, -3.0]);
/// ```
pub fn haar_decompose_1d(input: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let pairs = input.len() / 2;
    let mut approx = Vec::with_capacity(pairs + input.len() % 2);
    let mut detail = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let a = input[2 * i];
        let b = input[2 * i + 1];
        approx.push((a + b) / 2.0);
        detail.push((a - b) / 2.0);
    }
    if input.len() % 2 == 1 {
        approx.push(input[input.len() - 1]);
    }
    (approx, detail)
}

/// Inverse of [`haar_decompose_1d`].
///
/// # Panics
///
/// Panics when the band lengths are inconsistent (valid pairs satisfy
/// `approx.len() == detail.len()` or `approx.len() == detail.len() + 1`).
pub fn haar_reconstruct_1d(approx: &[f64], detail: &[f64]) -> Vec<f64> {
    assert!(
        approx.len() == detail.len() || approx.len() == detail.len() + 1,
        "inconsistent band lengths: approx {} detail {}",
        approx.len(),
        detail.len()
    );
    let mut out = Vec::with_capacity(approx.len() + detail.len());
    for i in 0..detail.len() {
        out.push(approx[i] + detail[i]);
        out.push(approx[i] - detail[i]);
    }
    if approx.len() > detail.len() {
        out.push(approx[approx.len() - 1]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `levels` analysis steps, as the compressor chains them: the deepest
    /// approximation and the detail bands, deepest first.
    fn analyse(input: &[f64], levels: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let mut approx = input.to_vec();
        let mut details = Vec::new();
        for _ in 0..levels {
            if approx.len() < 2 {
                break;
            }
            let (a, d) = haar_decompose_1d(&approx);
            details.push(d);
            approx = a;
        }
        details.reverse();
        (approx, details)
    }

    /// Inverse of [`analyse`].
    fn synthesise(approx: &[f64], details: &[Vec<f64>]) -> Vec<f64> {
        details.iter().fold(approx.to_vec(), |current, d| {
            haar_reconstruct_1d(&current, d)
        })
    }

    #[test]
    fn single_level_roundtrip_even() {
        let x = vec![4.0, 2.0, -1.0, 7.0, 0.0, 0.5];
        let (a, d) = haar_decompose_1d(&x);
        assert_eq!(a.len(), 3);
        assert_eq!(d.len(), 3);
        let y = haar_reconstruct_1d(&a, &d);
        assert_eq!(x, y);
    }

    #[test]
    fn single_level_roundtrip_odd() {
        let x = vec![1.0, 2.0, 3.0];
        let (a, d) = haar_decompose_1d(&x);
        assert_eq!(a, vec![1.5, 3.0]);
        assert_eq!(d, vec![-0.5]);
        assert_eq!(haar_reconstruct_1d(&a, &d), x);
    }

    #[test]
    fn multi_level_roundtrip() {
        let x: Vec<f64> = (0..13).map(|i| (i as f64).sin() * 5.0).collect();
        let (a, ds) = analyse(&x, 3);
        let y = synthesise(&a, &ds);
        for (xi, yi) in x.iter().zip(&y) {
            assert!((xi - yi).abs() < 1e-12);
        }
    }

    #[test]
    fn deepest_approx_is_block_mean() {
        let x = vec![1.0, 3.0, 5.0, 7.0];
        let (a, _) = analyse(&x, 2);
        assert_eq!(a, vec![4.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent band lengths")]
    fn reconstruct_rejects_bad_bands() {
        let _ = haar_reconstruct_1d(&[1.0], &[0.5, 0.5]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_signal(x in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
            let (a, ds) = analyse(&x, 6);
            let y = synthesise(&a, &ds);
            prop_assert_eq!(x.len(), y.len());
            for (xi, yi) in x.iter().zip(&y) {
                prop_assert!((xi - yi).abs() <= 1e-6 * (1.0 + xi.abs()));
            }
        }

        #[test]
        fn prop_approx_within_min_max(x in proptest::collection::vec(-1e3f64..1e3, 2..64)) {
            let (a, _) = analyse(&x, 6);
            let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for v in &a {
                prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
            }
        }
    }
}
