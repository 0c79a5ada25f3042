//! Semantic abstraction level: classified land cover.
//!
//! Classification of satellite images "can be viewed as a special case of
//! applying Bayesian network" (paper §3.1), and running it progressively on
//! progressively-represented data produced the 30x speedup the paper quotes
//! from \[13\]. This module provides the classifier, its progressive
//! (coarse-to-fine, confidence-gated) execution.

use crate::pyramid::AggregatePyramid;
use mbir_archive::grid::Grid2;
use std::fmt;

/// Land-cover classes assigned by the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum LandCover {
    /// Open water.
    Water,
    /// Closed-canopy forest.
    Forest,
    /// Grass / shrub land.
    Grass,
    /// Built-up areas.
    Urban,
    /// Bare soil / rock.
    BareSoil,
}

impl LandCover {
    /// All classes in declaration order.
    pub const ALL: [LandCover; 5] = [
        LandCover::Water,
        LandCover::Forest,
        LandCover::Grass,
        LandCover::Urban,
        LandCover::BareSoil,
    ];
}

impl fmt::Display for LandCover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LandCover::Water => "water",
            LandCover::Forest => "forest",
            LandCover::Grass => "grass",
            LandCover::Urban => "urban",
            LandCover::BareSoil => "bare-soil",
        };
        f.write_str(name)
    }
}

/// A maximum-likelihood Gaussian classifier with diagonal covariance —
/// the standard workhorse for multi-spectral pixel labelling.
///
/// # Examples
///
/// ```
/// use mbir_progressive::semantics::{GaussianClassifier, LandCover};
///
/// let mut clf = GaussianClassifier::new(1);
/// clf.fit_class(LandCover::Water, &[vec![10.0], vec![12.0], vec![11.0]]);
/// clf.fit_class(LandCover::Urban, &[vec![200.0], vec![210.0], vec![190.0]]);
/// let (label, margin) = clf.classify(&[11.0]).unwrap();
/// assert_eq!(label, LandCover::Water);
/// assert!(margin > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianClassifier {
    dims: usize,
    classes: Vec<(LandCover, Vec<f64>, Vec<f64>)>, // (label, means, variances)
}

impl GaussianClassifier {
    /// Creates an empty classifier over `dims`-dimensional pixels.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "classifier needs at least one dimension");
        GaussianClassifier {
            dims,
            classes: Vec::new(),
        }
    }

    /// Number of fitted classes.
    #[cfg(test)]
    fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Fits (or refits) one class from labelled sample vectors.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample has the wrong dimension.
    pub fn fit_class(&mut self, label: LandCover, samples: &[Vec<f64>]) {
        assert!(!samples.is_empty(), "need samples to fit {label}");
        assert!(
            samples.iter().all(|s| s.len() == self.dims),
            "sample dimension mismatch"
        );
        let n = samples.len() as f64;
        let mut means = vec![0.0; self.dims];
        for s in samples {
            for (m, v) in means.iter_mut().zip(s) {
                *m += v / n;
            }
        }
        let mut vars = vec![0.0; self.dims];
        for s in samples {
            for ((var, m), v) in vars.iter_mut().zip(&means).zip(s) {
                *var += (v - m) * (v - m) / n;
            }
        }
        // Variance floor keeps degenerate (e.g. single-sample) training sets
        // usable; pixel units here are 8-bit-ish radiances, so 1e-3 is far
        // below any physical variance.
        for var in &mut vars {
            *var = var.max(1e-3);
        }
        self.classes.retain(|(l, _, _)| *l != label);
        self.classes.push((label, means, vars));
    }

    /// Log-likelihood of `pixel` under one class (diagonal Gaussian).
    fn log_likelihood(&self, means: &[f64], vars: &[f64], pixel: &[f64]) -> f64 {
        means
            .iter()
            .zip(vars)
            .zip(pixel)
            .map(|((m, var), x)| {
                let d = x - m;
                -0.5 * (d * d / var + var.ln())
            })
            .sum()
    }

    /// Classifies a pixel, returning `(label, margin)` where `margin` is the
    /// log-likelihood gap to the runner-up class (a confidence measure; with
    /// a single class the margin is infinite).
    ///
    /// Returns `None` when no class has been fitted or the pixel dimension
    /// is wrong.
    pub fn classify(&self, pixel: &[f64]) -> Option<(LandCover, f64)> {
        if self.classes.is_empty() || pixel.len() != self.dims {
            return None;
        }
        let mut best: Option<(LandCover, f64)> = None;
        let mut second = f64::NEG_INFINITY;
        for (label, means, vars) in &self.classes {
            let ll = self.log_likelihood(means, vars, pixel);
            match best {
                Some((_, b)) if ll <= b => {
                    if ll > second {
                        second = ll;
                    }
                }
                Some((_, b)) => {
                    second = b;
                    best = Some((*label, ll));
                }
                None => best = Some((*label, ll)),
            }
        }
        best.map(|(l, b)| (l, b - second))
    }

    /// Classifies every pixel of a multi-band stack (bands in one `Vec` of
    /// equally-shaped grids), counting evaluations into `work`.
    ///
    /// # Panics
    ///
    /// Panics if `bands` is empty or disagrees with the classifier
    /// dimension.
    pub fn classify_grid(&self, bands: &[Grid2<f64>], work: &mut u64) -> Grid2<LandCover> {
        assert_eq!(bands.len(), self.dims, "band count mismatch");
        let rows = bands[0].rows();
        let cols = bands[0].cols();
        Grid2::from_fn(rows, cols, |r, c| {
            *work += 1;
            let pixel: Vec<f64> = bands.iter().map(|b| *b.at(r, c)).collect();
            self.classify(&pixel)
                .expect("classifier fitted and dims checked")
                .0
        })
    }

    /// Progressive classification over per-band pyramids (paper §3.1 / \[13\]):
    /// descend from the coarsest level; if one class provably wins over the
    /// *entire* block's value box (see `GaussianClassifier::block_label`),
    /// label the whole block; otherwise recurse into its children. Returns
    /// the label grid and the number of classifier/block evaluations
    /// performed. The result is **identical** to full-resolution
    /// classification (the block test is exact, not a heuristic), while the
    /// work shrinks with the scene's spatial coherence.
    ///
    /// # Panics
    ///
    /// Panics if `pyramids` is empty, disagrees with the classifier
    /// dimension, or the pyramids have different shapes.
    pub fn classify_progressive(&self, pyramids: &[AggregatePyramid]) -> (Grid2<LandCover>, u64) {
        assert_eq!(pyramids.len(), self.dims, "pyramid count mismatch");
        let (rows, cols) = pyramids[0].base_shape();
        for p in pyramids {
            assert_eq!(p.base_shape(), (rows, cols), "pyramid shape mismatch");
        }
        let mut out = Grid2::filled(rows, cols, LandCover::Water);
        let mut work = 0u64;
        let top = pyramids[0].levels() - 1;
        let mut stack = vec![(top, 0usize, 0usize)];
        while let Some((level, r, c)) = stack.pop() {
            work += 1;
            if level == 0 {
                let pixel: Vec<f64> = pyramids
                    .iter()
                    .map(|p| p.cell(0, r, c).expect("in-bounds").mean)
                    .collect();
                let (label, _) = self
                    .classify(&pixel)
                    .expect("classifier fitted and dims checked");
                out.set(r, c, label).expect("in-bounds");
                continue;
            }
            let ranges: Vec<(f64, f64)> = pyramids
                .iter()
                .map(|p| {
                    let s = p.cell(level, r, c).expect("coords tracked in-bounds");
                    (s.min, s.max)
                })
                .collect();
            if let Some(label) = self.block_label(&ranges) {
                for cell in pyramids[0].base_cells(level, r, c) {
                    out.set(cell.row, cell.col, label)
                        .expect("base cells are in-bounds");
                }
            } else {
                for child in pyramids[0].children(level, r, c) {
                    stack.push((level - 1, child.row, child.col));
                }
            }
        }
        (out, work)
    }

    /// The class that wins over an *entire* attribute box, or `None` when
    /// no class dominates everywhere.
    ///
    /// Sound and exact for diagonal Gaussians: the pairwise log-likelihood
    /// difference is separable per dimension, so its exact minimum over a
    /// box is the sum of per-dimension quadratic minima. Class `L` labels
    /// the block iff `min over box (ll_L - ll_M) > 0` for every rival `M`.
    fn block_label(&self, ranges: &[(f64, f64)]) -> Option<LandCover> {
        if self.classes.is_empty() || ranges.len() != self.dims {
            return None;
        }
        'candidates: for (li, (label, means, vars)) in self.classes.iter().enumerate() {
            for (mi, (_, m2, v2)) in self.classes.iter().enumerate() {
                if li == mi {
                    continue;
                }
                let min_diff: f64 = ranges
                    .iter()
                    .enumerate()
                    .map(|(j, &(lo, hi))| quad_diff_min(means[j], vars[j], m2[j], v2[j], lo, hi))
                    .sum();
                if min_diff <= 0.0 {
                    continue 'candidates;
                }
            }
            return Some(*label);
        }
        None
    }
}

/// Exact minimum over `[lo, hi]` of the 1-D log-likelihood difference
/// `g(x) = [-(x-mA)^2/(2 vA) - ln(vA)/2] - [-(x-mB)^2/(2 vB) - ln(vB)/2]`.
fn quad_diff_min(m_a: f64, v_a: f64, m_b: f64, v_b: f64, lo: f64, hi: f64) -> f64 {
    let g = |x: f64| {
        let da = x - m_a;
        let db = x - m_b;
        (-da * da / (2.0 * v_a) - v_a.ln() / 2.0) - (-db * db / (2.0 * v_b) - v_b.ln() / 2.0)
    };
    let mut min = g(lo).min(g(hi));
    // Interior critical point of the quadratic (when curvature differs).
    let denom = 1.0 / v_b - 1.0 / v_a;
    if denom.abs() > 1e-300 {
        let x_star = (m_b / v_b - m_a / v_a) / denom;
        if x_star > lo && x_star < hi {
            min = min.min(g(x_star));
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_clf() -> GaussianClassifier {
        let mut clf = GaussianClassifier::new(2);
        clf.fit_class(
            LandCover::Water,
            &[vec![10.0, 20.0], vec![12.0, 22.0], vec![8.0, 18.0]],
        );
        // Same spread as the water samples so the decision boundary midpoint
        // is a genuine low-margin point.
        clf.fit_class(
            LandCover::Urban,
            &[vec![200.0, 210.0], vec![202.0, 212.0], vec![198.0, 208.0]],
        );
        clf
    }

    #[test]
    fn classify_picks_nearest_class() {
        let clf = two_class_clf();
        assert_eq!(clf.classify(&[11.0, 21.0]).unwrap().0, LandCover::Water);
        assert_eq!(clf.classify(&[205.0, 175.0]).unwrap().0, LandCover::Urban);
        assert!(clf.classify(&[1.0]).is_none(), "wrong dimension");
        assert!(GaussianClassifier::new(2).classify(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn margin_reflects_confidence() {
        let clf = two_class_clf();
        let (_, confident) = clf.classify(&[10.0, 20.0]).unwrap();
        // Midpoint between the two (equal-variance) class means.
        let (_, borderline) = clf.classify(&[105.0, 115.0]).unwrap();
        assert!(confident > borderline);
    }

    #[test]
    fn refit_replaces_class() {
        let mut clf = two_class_clf();
        clf.fit_class(LandCover::Water, &[vec![300.0, 300.0]]);
        assert_eq!(clf.class_count(), 2);
        assert_eq!(clf.classify(&[299.0, 299.0]).unwrap().0, LandCover::Water);
    }

    #[test]
    fn progressive_matches_full_on_blocky_scene() {
        let clf = two_class_clf();
        // Left half water-like, right half urban-like.
        let band0 = Grid2::from_fn(32, 32, |_, c| if c < 16 { 10.0 } else { 200.0 });
        let band1 = Grid2::from_fn(32, 32, |_, c| if c < 16 { 20.0 } else { 180.0 });
        let mut full_work = 0u64;
        let full = clf.classify_grid(&[band0.clone(), band1.clone()], &mut full_work);
        let pyramids = [
            AggregatePyramid::build(&band0),
            AggregatePyramid::build(&band1),
        ];
        let (prog, prog_work) = clf.classify_progressive(&pyramids);
        assert_eq!(
            full, prog,
            "progressive must agree with full classification"
        );
        assert_eq!(full_work, 1024);
        assert!(
            prog_work * 10 < full_work,
            "expected >10x fewer evals, got {prog_work} vs {full_work}"
        );
    }

    #[test]
    fn progressive_always_terminates_on_noise() {
        let clf = two_class_clf();
        let band0 = Grid2::from_fn(17, 23, |r, c| ((r * 31 + c * 17) % 220) as f64);
        let band1 = Grid2::from_fn(17, 23, |r, c| ((r * 13 + c * 7) % 220) as f64);
        let pyramids = [
            AggregatePyramid::build(&band0),
            AggregatePyramid::build(&band1),
        ];
        let (labels, work) = clf.classify_progressive(&pyramids);
        assert_eq!((labels.rows(), labels.cols()), (17, 23));
        assert!(work > 0);
        // Noise offers no coherent blocks: progressive must still be exact.
        let mut full_work = 0u64;
        let full = clf.classify_grid(&[band0, band1], &mut full_work);
        assert_eq!(full, labels);
    }

    #[test]
    fn block_label_requires_unanimity() {
        let clf = two_class_clf();
        // A box firmly inside water territory.
        assert_eq!(
            clf.block_label(&[(5.0, 15.0), (15.0, 25.0)]),
            Some(LandCover::Water)
        );
        // A box spanning the decision boundary dominates for nobody.
        assert_eq!(clf.block_label(&[(5.0, 205.0), (15.0, 215.0)]), None);
        // Wrong arity.
        assert_eq!(clf.block_label(&[(0.0, 1.0)]), None);
    }

    #[test]
    fn progressive_is_exact_on_smooth_gradients() {
        let clf = two_class_clf();
        // Smooth gradient crossing the boundary diagonally.
        let band0 = Grid2::from_fn(40, 40, |r, c| 5.0 + (r + c) as f64 * 2.6);
        let band1 = Grid2::from_fn(40, 40, |r, c| 15.0 + (r + c) as f64 * 2.6);
        let mut full_work = 0u64;
        let full = clf.classify_grid(&[band0.clone(), band1.clone()], &mut full_work);
        let pyramids = [
            AggregatePyramid::build(&band0),
            AggregatePyramid::build(&band1),
        ];
        let (prog, prog_work) = clf.classify_progressive(&pyramids);
        assert_eq!(full, prog);
        assert!(
            prog_work < full_work,
            "coherent gradient should still save work: {prog_work} vs {full_work}"
        );
    }
}
