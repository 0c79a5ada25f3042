//! Wavelet-domain compression: the storage side of multi-resolution
//! representation (paper refs \[1\]–\[3\], "adaptive storage and retrieval of
//! large compressed images").
//!
//! A k-level Haar analysis concentrates a smooth image's energy in few
//! coefficients; keeping the largest fraction gives the archive a
//! rate/fidelity dial. Compression here is an archive-storage concern —
//! model retrieval consumes the pyramid approximations, which are exact
//! block means regardless of what fraction of detail is stored.

use crate::wavelet::{haar_decompose_1d, haar_reconstruct_1d};
use mbir_archive::grid::Grid2;

/// A compressed 2-D signal: separable Haar transform with small detail
/// coefficients zeroed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedGrid {
    rows: usize,
    cols: usize,
    levels: usize,
    /// The transform plane (approximation in the top-left corner, detail
    /// bands around it), with dropped coefficients stored as exact zeros.
    plane: Vec<f64>,
    kept: usize,
}

impl CompressedGrid {
    /// Compresses `grid` with `levels` of separable Haar analysis, keeping
    /// the `keep_fraction` largest-magnitude detail coefficients
    /// (approximation coefficients are always kept).
    ///
    /// # Panics
    ///
    /// Panics if `keep_fraction` is outside `[0, 1]`.
    pub fn compress(grid: &Grid2<f64>, levels: usize, keep_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&keep_fraction),
            "keep_fraction must be in [0,1], got {keep_fraction}"
        );
        let rows = grid.rows();
        let cols = grid.cols();
        let mut plane: Vec<f64> = grid.as_slice().to_vec();
        let mut r_extent = rows;
        let mut c_extent = cols;
        let mut applied = 0usize;
        for _ in 0..levels {
            if r_extent < 2 && c_extent < 2 {
                break;
            }
            // Transform rows of the active corner.
            if c_extent >= 2 {
                for r in 0..r_extent {
                    let row: Vec<f64> = (0..c_extent).map(|c| plane[r * cols + c]).collect();
                    let (a, d) = haar_decompose_1d(&row);
                    for (c, v) in a.iter().chain(d.iter()).enumerate() {
                        plane[r * cols + c] = *v;
                    }
                }
            }
            // Transform columns of the active corner.
            if r_extent >= 2 {
                for c in 0..c_extent {
                    let col: Vec<f64> = (0..r_extent).map(|r| plane[r * cols + c]).collect();
                    let (a, d) = haar_decompose_1d(&col);
                    for (r, v) in a.iter().chain(d.iter()).enumerate() {
                        plane[r * cols + c] = *v;
                    }
                }
            }
            r_extent = r_extent.div_ceil(2);
            c_extent = c_extent.div_ceil(2);
            applied += 1;
        }

        // Threshold detail coefficients (everything outside the final
        // approximation corner).
        let is_detail = |idx: usize| -> bool {
            let (r, c) = (idx / cols, idx % cols);
            r >= r_extent || c >= c_extent
        };
        let mut detail_mags: Vec<f64> = plane
            .iter()
            .enumerate()
            .filter(|(i, _)| is_detail(*i))
            .map(|(_, v)| v.abs())
            .collect();
        let total_detail = detail_mags.len();
        let keep = ((total_detail as f64) * keep_fraction).round() as usize;
        let mut kept = total_detail.min(keep);
        if kept < total_detail {
            detail_mags.sort_by(|a, b| b.total_cmp(a));
            let threshold = if kept == 0 {
                f64::INFINITY
            } else {
                detail_mags[kept - 1]
            };
            // Zero everything strictly below the threshold; count what
            // actually survived (ties can keep a few more).
            kept = 0;
            for (i, v) in plane.iter_mut().enumerate() {
                if is_detail(i) {
                    if v.abs() < threshold {
                        *v = 0.0;
                    } else {
                        kept += 1;
                    }
                }
            }
        }
        CompressedGrid {
            rows,
            cols,
            levels: applied,
            plane,
            kept,
        }
    }

    /// Number of detail coefficients retained.
    #[cfg(test)]
    fn kept_coefficients(&self) -> usize {
        self.kept
    }

    /// Nonzero coefficients (approximation + kept details) as a fraction of
    /// the original cell count — the storage ratio.
    pub fn storage_fraction(&self) -> f64 {
        let nonzero = self.plane.iter().filter(|v| **v != 0.0).count();
        nonzero as f64 / (self.rows * self.cols) as f64
    }

    /// Reconstructs the (lossy) grid.
    pub fn reconstruct(&self) -> Grid2<f64> {
        let rows = self.rows;
        let cols = self.cols;
        let mut plane = self.plane.clone();
        // Recompute the extent ladder to invert in reverse order.
        let mut extents = Vec::with_capacity(self.levels);
        let mut r_extent = rows;
        let mut c_extent = cols;
        for _ in 0..self.levels {
            extents.push((r_extent, c_extent));
            r_extent = r_extent.div_ceil(2);
            c_extent = c_extent.div_ceil(2);
        }
        for &(re, ce) in extents.iter().rev() {
            // Inverse columns first (reverse of forward order).
            if re >= 2 {
                let half = re.div_ceil(2);
                for c in 0..ce {
                    let a: Vec<f64> = (0..half).map(|r| plane[r * cols + c]).collect();
                    let d: Vec<f64> = (half..re).map(|r| plane[r * cols + c]).collect();
                    let col = haar_reconstruct_1d(&a, &d);
                    for (r, v) in col.iter().enumerate() {
                        plane[r * cols + c] = *v;
                    }
                }
            }
            if ce >= 2 {
                let half = ce.div_ceil(2);
                for r in 0..re {
                    let a: Vec<f64> = (0..half).map(|c| plane[r * cols + c]).collect();
                    let d: Vec<f64> = (half..ce).map(|c| plane[r * cols + c]).collect();
                    let row = haar_reconstruct_1d(&a, &d);
                    for (c, v) in row.iter().enumerate() {
                        plane[r * cols + c] = *v;
                    }
                }
            }
        }
        Grid2::from_vec(rows, cols, plane).expect("dimensions preserved")
    }

    /// Root-mean-square reconstruction error against the original.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn rmse(&self, original: &Grid2<f64>) -> f64 {
        assert!(
            original.rows() == self.rows && original.cols() == self.cols,
            "shape mismatch"
        );
        let recon = self.reconstruct();
        let sum: f64 = recon
            .as_slice()
            .iter()
            .zip(original.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        (sum / (self.rows * self.cols) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::synth::GaussianField;
    use proptest::prelude::*;

    #[test]
    fn full_retention_is_lossless() {
        let g = GaussianField::new(1).generate(32, 32);
        let c = CompressedGrid::compress(&g, 4, 1.0);
        let r = c.reconstruct();
        for (a, b) in r.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!((c.storage_fraction() - 1.0).abs() < 0.2, "mostly nonzero");
    }

    #[test]
    fn rmse_decreases_with_retention() {
        let g = GaussianField::new(2)
            .with_roughness(0.4)
            .generate(64, 64)
            .normalized(0.0, 255.0);
        let rmse_05 = CompressedGrid::compress(&g, 4, 0.05).rmse(&g);
        let rmse_20 = CompressedGrid::compress(&g, 4, 0.20).rmse(&g);
        let rmse_80 = CompressedGrid::compress(&g, 4, 0.80).rmse(&g);
        assert!(rmse_05 > rmse_20, "{rmse_05} vs {rmse_20}");
        assert!(rmse_20 > rmse_80, "{rmse_20} vs {rmse_80}");
    }

    #[test]
    fn energy_compaction_on_smooth_images() {
        // A smooth image at 5% retention should reconstruct within a few
        // percent of its dynamic range.
        let g = GaussianField::new(3)
            .with_roughness(0.3)
            .generate(64, 64)
            .normalized(0.0, 255.0);
        let c = CompressedGrid::compress(&g, 5, 0.05);
        assert!(c.storage_fraction() < 0.12, "{}", c.storage_fraction());
        let rmse = c.rmse(&g);
        assert!(rmse < 12.0, "rmse {rmse} over a 0..255 range");
    }

    #[test]
    fn zero_retention_keeps_approximation_only() {
        let g = Grid2::from_fn(16, 16, |r, c| (r + c) as f64);
        let c = CompressedGrid::compress(&g, 4, 0.0);
        assert_eq!(c.kept_coefficients(), 0);
        // Reconstruction is block means — still close for a linear ramp.
        let rmse = c.rmse(&g);
        assert!(rmse < 16.0);
    }

    #[test]
    fn ragged_sizes_roundtrip() {
        let g = GaussianField::new(4).generate(19, 27);
        let c = CompressedGrid::compress(&g, 3, 1.0);
        let r = c.reconstruct();
        for (a, b) in r.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn prop_lossless_at_full_retention(
            rows in 1usize..24,
            cols in 1usize..24,
            levels in 0usize..5,
            seed in 0u64..100,
        ) {
            let g = Grid2::from_fn(rows, cols, |r, c| {
                let h = seed.wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add((r * 97 + c) as u64);
                (h % 1000) as f64 / 10.0
            });
            let c = CompressedGrid::compress(&g, levels, 1.0);
            let r = c.reconstruct();
            for (a, b) in r.as_slice().iter().zip(g.as_slice()) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }
    }
}
