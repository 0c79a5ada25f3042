//! Feature-level abstraction: texture statistics per tile (paper §3.1,
//! "raw information can be processed into alternate formulations such as
//! features (texture, color, shape, etc.)").
//!
//! Feature vectors are far smaller than the raw pixels they summarize, so a
//! texture query can screen whole tiles at feature level and only fetch raw
//! pixels for the survivors — the mechanism behind the 4–8x progressive
//! texture-matching speedup the paper quotes from \[12\].

use mbir_archive::grid::Grid2;

/// Texture feature vector for one tile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TileFeatures {
    /// Mean intensity.
    pub mean: f64,
    /// Intensity variance.
    pub variance: f64,
    /// Mean absolute gradient (edge energy).
    pub edge_energy: f64,
    /// Shannon entropy of a 16-bin histogram (bits).
    pub entropy: f64,
    /// Michelson-style contrast `(max - min) / (max + min + eps)`.
    pub contrast: f64,
}

impl TileFeatures {
    /// Computes the feature vector of a tile.
    pub fn of(tile: &Grid2<f64>) -> Self {
        let mean = tile.mean();
        let variance = tile.variance();
        let (min, max) = tile.min_max().unwrap_or((0.0, 0.0));

        // Mean absolute forward-difference gradient.
        let mut grad = 0.0;
        let mut grad_n = 0u64;
        for r in 0..tile.rows() {
            for c in 0..tile.cols() {
                if c + 1 < tile.cols() {
                    grad += (tile.at(r, c + 1) - tile.at(r, c)).abs();
                    grad_n += 1;
                }
                if r + 1 < tile.rows() {
                    grad += (tile.at(r + 1, c) - tile.at(r, c)).abs();
                    grad_n += 1;
                }
            }
        }
        let edge_energy = if grad_n > 0 {
            grad / grad_n as f64
        } else {
            0.0
        };

        // Histogram entropy over the tile's own range.
        let bins = 16usize;
        let mut hist = vec![0u64; bins];
        let range = (max - min).max(f64::MIN_POSITIVE);
        for (_, &v) in tile.iter() {
            let b = (((v - min) / range) * bins as f64) as usize;
            hist[b.min(bins - 1)] += 1;
        }
        let n = tile.len() as f64;
        let entropy = hist
            .iter()
            .filter(|&&h| h > 0)
            .map(|&h| {
                let p = h as f64 / n;
                -p * p.log2()
            })
            .sum();

        let contrast = (max - min) / (max.abs() + min.abs() + 1e-12);

        TileFeatures {
            mean,
            variance,
            edge_energy,
            entropy,
            contrast,
        }
    }

    /// The feature vector as a fixed-order array.
    fn to_array(self) -> [f64; 5] {
        [
            self.mean,
            self.variance,
            self.edge_energy,
            self.entropy,
            self.contrast,
        ]
    }

    /// Euclidean distance between feature vectors (optionally scaled).
    pub fn distance(&self, other: &TileFeatures) -> f64 {
        self.to_array()
            .iter()
            .zip(other.to_array().iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Partitions a grid into `tile x tile` tiles and computes per-tile
/// features, returning `(tile_row, tile_col, features)` in row-major order.
///
/// # Panics
///
/// Panics if `tile == 0`.
pub fn tile_features(grid: &Grid2<f64>, tile: usize) -> Vec<(usize, usize, TileFeatures)> {
    assert!(tile > 0, "tile size must be non-zero");
    let t_rows = grid.rows().div_ceil(tile);
    let t_cols = grid.cols().div_ceil(tile);
    let mut out = Vec::with_capacity(t_rows * t_cols);
    for tr in 0..t_rows {
        for tc in 0..t_cols {
            let window = grid
                .window(
                    mbir_archive::extent::CellCoord::new(tr * tile, tc * tile),
                    tile,
                    tile,
                )
                .expect("tile origin is inside the grid");
            out.push((tr, tc, TileFeatures::of(&window)));
        }
    }
    out
}

/// Progressive texture match: screen tiles with features of the *coarse*
/// representation (against `query_coarse`, the query's own coarse-level
/// features), then extract full-resolution features only for tiles whose
/// coarse distance is within `screen_factor` of the best coarse distance.
/// Returns the indexes of the `k` best tiles (by fine distance against
/// `query_fine`) plus the number of fine extractions — the work measure for
/// the E3 experiment.
///
/// Screening compares coarse features with coarse features because texture
/// statistics are not scale-invariant; comparing a fine query vector against
/// coarse tile vectors would make the screen meaningless.
///
/// # Panics
///
/// Panics if `tile == 0` or `k == 0`.
pub fn progressive_texture_match(
    grid: &Grid2<f64>,
    coarse: &Grid2<f64>,
    query_coarse: &TileFeatures,
    query_fine: &TileFeatures,
    tile: usize,
    k: usize,
    screen_factor: f64,
) -> (Vec<(usize, usize)>, usize) {
    assert!(tile > 0 && k > 0, "tile and k must be non-zero");
    // Coarse grid is assumed to be a 2^s reduction of `grid`.
    let scale = (grid.rows() as f64 / coarse.rows() as f64).round().max(1.0) as usize;
    let coarse_tile = (tile / scale).max(1);
    let coarse_feats = tile_features(coarse, coarse_tile);
    let mut scored: Vec<(f64, usize, usize)> = coarse_feats
        .iter()
        .map(|(tr, tc, f)| (f.distance(query_coarse), *tr, *tc))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    let best = scored.first().map(|s| s.0).unwrap_or(0.0);
    let cutoff = best * screen_factor + 1e-12;

    let mut fine: Vec<(f64, (usize, usize))> = Vec::new();
    let mut fine_extractions = 0usize;
    for &(d, tr, tc) in &scored {
        if d > cutoff && fine.len() >= k {
            break;
        }
        let window = grid
            .window(
                mbir_archive::extent::CellCoord::new(tr * tile, tc * tile),
                tile,
                tile,
            )
            .expect("coarse tile maps inside the fine grid");
        fine_extractions += 1;
        fine.push((TileFeatures::of(&window).distance(query_fine), (tr, tc)));
    }
    fine.sort_by(|a, b| a.0.total_cmp(&b.0));
    fine.truncate(k);
    (fine.into_iter().map(|(_, t)| t).collect(), fine_extractions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_tile_has_zero_texture() {
        let f = TileFeatures::of(&Grid2::filled(8, 8, 3.0));
        assert_eq!(f.mean, 3.0);
        assert_eq!(f.variance, 0.0);
        assert_eq!(f.edge_energy, 0.0);
        assert_eq!(f.entropy, 0.0);
        assert!(f.contrast < 1e-9);
    }

    #[test]
    fn checkerboard_is_high_texture() {
        let check = Grid2::from_fn(8, 8, |r, c| ((r + c) % 2) as f64);
        let flat = Grid2::filled(8, 8, 0.5);
        let fc = TileFeatures::of(&check);
        let ff = TileFeatures::of(&flat);
        assert!(fc.edge_energy > 0.9);
        assert!(fc.variance > ff.variance);
        assert!(
            fc.entropy > 0.9,
            "two-value histogram ~1 bit, got {}",
            fc.entropy
        );
    }

    #[test]
    fn distance_is_metric_like() {
        let a = TileFeatures::of(&Grid2::from_fn(8, 8, |r, c| (r * c) as f64));
        let b = TileFeatures::of(&Grid2::from_fn(8, 8, |r, c| ((r + c) % 3) as f64));
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) > 0.0);
    }

    #[test]
    fn tile_features_cover_grid() {
        let g = Grid2::from_fn(10, 12, |r, c| (r + c) as f64);
        let feats = tile_features(&g, 4);
        assert_eq!(feats.len(), 3 * 3);
        assert_eq!(feats[0].0, 0);
        assert_eq!(feats.last().unwrap().1, 2);
    }

    #[test]
    fn progressive_match_finds_planted_tile() {
        // Plant a distinctive texture in tile (2, 3) of a 4x4 tiling.
        let tile = 16usize;
        let g = Grid2::from_fn(64, 64, |r, c| {
            if r / tile == 2 && c / tile == 3 {
                ((r + c) % 2) as f64 * 100.0
            } else {
                (r as f64 * 0.1).sin()
            }
        });
        let query_window = g
            .window(
                mbir_archive::extent::CellCoord::new(2 * tile, 3 * tile),
                tile,
                tile,
            )
            .unwrap();
        let query_fine = TileFeatures::of(&query_window);
        // Coarse = 2x reduction.
        let coarse = Grid2::from_fn(32, 32, |r, c| {
            (g.at(2 * r, 2 * c)
                + g.at(2 * r + 1, 2 * c)
                + g.at(2 * r, 2 * c + 1)
                + g.at(2 * r + 1, 2 * c + 1))
                / 4.0
        });
        let query_coarse_window = coarse
            .window(
                mbir_archive::extent::CellCoord::new(2 * tile / 2, 3 * tile / 2),
                tile / 2,
                tile / 2,
            )
            .unwrap();
        let query_coarse = TileFeatures::of(&query_coarse_window);
        let (hits, fine_work) =
            progressive_texture_match(&g, &coarse, &query_coarse, &query_fine, tile, 1, 2.0);
        assert_eq!(hits[0], (2, 3));
        assert!(
            fine_work < 16,
            "screening should avoid extracting all 16 tiles, did {fine_work}"
        );
    }
}
