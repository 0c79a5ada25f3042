//! Synthetic dataset generators.
//!
//! All generators are deterministic given their seed, so every experiment in
//! the repository regenerates bit-identical inputs.

use crate::grid::Grid2;
use crate::randx;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator of spatially-correlated Gaussian random fields.
///
/// Uses the diamond–square (midpoint displacement) construction, which
/// produces fractal fields with a tunable roughness: `roughness` near 0
/// yields very smooth, large-structure fields; near 1 yields noisy fields.
/// This is the stand-in for remotely-sensed imagery: satellite radiance,
/// vegetation indexes and soil moisture are all spatially-correlated surfaces
/// and the retrieval algorithms only depend on that correlation structure.
///
/// # Examples
///
/// ```
/// use mbir_archive::synth::GaussianField;
///
/// let g = GaussianField::new(42).with_roughness(0.5).generate(33, 65);
/// assert_eq!((g.rows(), g.cols()), (33, 65));
/// // Deterministic: same seed, same field.
/// let h = GaussianField::new(42).with_roughness(0.5).generate(33, 65);
/// assert_eq!(g, h);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianField {
    seed: u64,
    roughness: f64,
    amplitude: f64,
}

impl GaussianField {
    /// Creates a generator with the given seed, roughness 0.5, amplitude 1.
    pub fn new(seed: u64) -> Self {
        GaussianField {
            seed,
            roughness: 0.5,
            amplitude: 1.0,
        }
    }

    /// Sets the roughness in `[0, 1]`; values are clamped.
    pub fn with_roughness(mut self, roughness: f64) -> Self {
        self.roughness = roughness.clamp(0.0, 1.0);
        self
    }

    /// Generates a `rows x cols` field (any sizes >= 1; internally computed
    /// on the smallest enclosing `2^k + 1` square then cropped).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn generate(&self, rows: usize, cols: usize) -> Grid2<f64> {
        assert!(rows > 0 && cols > 0, "field dimensions must be non-zero");
        let need = rows.max(cols).max(2);
        // Smallest 2^k with 2^k + 1 >= need.
        let mut size = 1usize;
        while size + 1 < need {
            size *= 2;
        }
        let n = size + 1;
        let mut field = vec![0.0f64; n * n];
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Seed the four corners.
        for &(r, c) in &[(0, 0), (0, size), (size, 0), (size, size)] {
            field[r * n + c] = randx::normal(&mut rng, 0.0, self.amplitude);
        }

        let mut step = size;
        let mut scale = self.amplitude;
        while step > 1 {
            let half = step / 2;
            // Diamond step: centers of squares.
            for r in (half..n).step_by(step) {
                for c in (half..n).step_by(step) {
                    let avg = (field[(r - half) * n + (c - half)]
                        + field[(r - half) * n + (c + half)]
                        + field[(r + half) * n + (c - half)]
                        + field[(r + half) * n + (c + half)])
                        / 4.0;
                    field[r * n + c] = avg + randx::normal(&mut rng, 0.0, scale);
                }
            }
            // Square step: edge midpoints.
            for r in (0..n).step_by(half) {
                let c_start = if (r / half).is_multiple_of(2) {
                    half
                } else {
                    0
                };
                for c in (c_start..n).step_by(step) {
                    let mut sum = 0.0;
                    let mut count = 0.0;
                    if r >= half {
                        sum += field[(r - half) * n + c];
                        count += 1.0;
                    }
                    if r + half < n {
                        sum += field[(r + half) * n + c];
                        count += 1.0;
                    }
                    if c >= half {
                        sum += field[r * n + (c - half)];
                        count += 1.0;
                    }
                    if c + half < n {
                        sum += field[r * n + (c + half)];
                        count += 1.0;
                    }
                    field[r * n + c] = sum / count + randx::normal(&mut rng, 0.0, scale);
                }
            }
            step = half;
            scale *= self.roughness.max(1e-3);
        }

        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                out.push(field[r * n + c]);
            }
        }
        Grid2::from_vec(rows, cols, out).expect("sizes validated above")
    }
}

/// Mixes independent fields into correlated ones.
///
/// Given `k` independent source fields `Z_i` and a lower-triangular mixing
/// matrix `L` (e.g. the Cholesky factor of a desired band covariance), the
/// output band `j` is `sum_i L[j][i] * Z_i`. This reproduces the strong
/// inter-band correlation of real multi-spectral imagery.
///
/// # Panics
///
/// Panics if `sources` is empty, the grids disagree in shape, or a weight row
/// is longer than `sources`.
pub fn mix_fields(sources: &[Grid2<f64>], weights: &[Vec<f64>]) -> Vec<Grid2<f64>> {
    assert!(!sources.is_empty(), "need at least one source field");
    let rows = sources[0].rows();
    let cols = sources[0].cols();
    for s in sources {
        assert!(
            s.rows() == rows && s.cols() == cols,
            "all source fields must share a shape"
        );
    }
    weights
        .iter()
        .map(|w| {
            assert!(
                w.len() <= sources.len(),
                "weight row longer than source count"
            );
            Grid2::from_fn(rows, cols, |r, c| {
                w.iter()
                    .zip(sources.iter())
                    .map(|(wi, s)| wi * s.at(r, c))
                    .sum()
            })
        })
        .collect()
}

/// Samples event occurrences `O(x, y)` from a risk surface.
///
/// The paper's accuracy metrics (§4.1) compare model-predicted risk against
/// observed occurrences. Real incident reports are proprietary, so
/// occurrences are *planted*: each cell draws `Poisson(base_rate * risk)`
/// events where `risk` is the (normalized) surface value.
#[derive(Debug, Clone)]
pub struct OccurrenceSampler {
    seed: u64,
    base_rate: f64,
}

impl OccurrenceSampler {
    /// Creates a sampler with the given seed and base rate 1.0.
    pub fn new(seed: u64) -> Self {
        OccurrenceSampler {
            seed,
            base_rate: 1.0,
        }
    }

    /// Sets the expected event count for a risk-1.0 cell.
    pub fn with_base_rate(mut self, base_rate: f64) -> Self {
        self.base_rate = base_rate.max(0.0);
        self
    }

    /// Draws an occurrence-count grid aligned with `risk` (values assumed in
    /// `[0, 1]`; out-of-range values are clamped).
    pub fn sample(&self, risk: &Grid2<f64>) -> Grid2<u32> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        risk.map(|&r| {
            let rate = self.base_rate * r.clamp(0.0, 1.0);
            randx::poisson(&mut rng, rate) as u32
        })
    }
}

/// Draws `n` independent tuples from a d-dimensional standard Gaussian —
/// the exact dataset family used by the Onion evaluation ("three-parameter
/// Gaussian distributed data sets").
pub fn gaussian_tuples(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| randx::standard_normal(&mut rng)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_is_deterministic_and_correct_shape() {
        let g1 = GaussianField::new(9).generate(17, 40);
        let g2 = GaussianField::new(9).generate(17, 40);
        assert_eq!(g1, g2);
        assert_eq!(g1.rows(), 17);
        assert_eq!(g1.cols(), 40);
        let g3 = GaussianField::new(10).generate(17, 40);
        assert_ne!(g1, g3, "different seeds should differ");
    }

    #[test]
    fn smooth_fields_have_higher_neighbor_correlation() {
        let smooth = GaussianField::new(3).with_roughness(0.3).generate(65, 65);
        let rough = GaussianField::new(3).with_roughness(1.0).generate(65, 65);
        let lag1 = |g: &Grid2<f64>| {
            let m = g.mean();
            let mut num = 0.0;
            let mut den = 0.0;
            for r in 0..g.rows() {
                for c in 0..g.cols() - 1 {
                    num += (g.at(r, c) - m) * (g.at(r, c + 1) - m);
                }
            }
            for (_, &v) in g.iter() {
                den += (v - m) * (v - m);
            }
            num / den
        };
        assert!(
            lag1(&smooth) > lag1(&rough),
            "smooth {} vs rough {}",
            lag1(&smooth),
            lag1(&rough)
        );
        assert!(lag1(&smooth) > 0.8);
    }

    #[test]
    fn mix_fields_produces_correlated_bands() {
        let a = GaussianField::new(1).generate(33, 33);
        let b = GaussianField::new(2).generate(33, 33);
        // band0 = a, band1 = 0.9 a + 0.1 b -> strongly correlated with band0.
        let bands = mix_fields(&[a, b], &[vec![1.0], vec![0.9, 0.1]]);
        assert_eq!(bands.len(), 2);
        let (x, y) = (&bands[0], &bands[1]);
        let mx = x.mean();
        let my = y.mean();
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let dx = x.at(r, c) - mx;
                let dy = y.at(r, c) - my;
                sxy += dx * dy;
                sxx += dx * dx;
                syy += dy * dy;
            }
        }
        let corr = sxy / (sxx * syy).sqrt();
        assert!(corr > 0.9, "corr {corr}");
    }

    #[test]
    fn occurrences_track_risk() {
        let mut risk = Grid2::filled(20, 20, 0.0f64);
        for r in 0..20 {
            for c in 10..20 {
                risk.set(r, c, 1.0).unwrap();
            }
        }
        let occ = OccurrenceSampler::new(5).with_base_rate(3.0).sample(&risk);
        let left: u32 = (0..20)
            .map(|r| (0..10).map(|c| occ.at(r, c)).sum::<u32>())
            .sum();
        let right: u32 = (0..20)
            .map(|r| (10..20).map(|c| occ.at(r, c)).sum::<u32>())
            .sum();
        assert_eq!(left, 0, "zero-risk half must have zero occurrences");
        assert!(
            right > 400,
            "high-risk half should average ~3/cell, got {right}"
        );
    }

    #[test]
    fn gaussian_tuples_shape_and_determinism() {
        let t = gaussian_tuples(11, 100, 3);
        assert_eq!(t.len(), 100);
        assert!(t.iter().all(|x| x.len() == 3));
        assert_eq!(t, gaussian_tuples(11, 100, 3));
    }
}
