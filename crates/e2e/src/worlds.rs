//! Benchmark inputs: the fixed archives, the seeded query families, and
//! the naive oracle every answer is checked against.
//!
//! The archives are fixed datasets ([`ARCHIVE_SEED`]); `--seed` draws the
//! queries (coefficient jitter around a fixed family, op order). A
//! diamond-square world's few top-level random draws decide how hard
//! top-K is on it (multiply-adds per query moved 13 113 – 15 934 over
//! four world seeds, 14 024 – 14 143 over eight query seeds on one
//! world), so a world drawn from `--seed` would measure the draw, not
//! the program.

use crate::harness::{Entry, Rng};
use mbir_archive::grid::Grid2;
use mbir_archive::scene::{BandId, SyntheticScene};
use mbir_archive::synth::GaussianField;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::LinearModel;

/// Seed of every archive the grid workloads query.
pub const ARCHIVE_SEED: u64 = 13;
/// Seed of the fixed query families `--seed` jitters.
const FAMILY_SEED: u64 = 0x6d62_6972;
/// How far `--seed` moves each coefficient of a family member: enough
/// that every seed asks different questions, little enough that they cost
/// alike (multiply-adds per query within about 1 % between seeds).
pub const JITTER: f64 = 0.02;
/// Smallest magnitude of a batch centre's weights.
const MIN_WEIGHT: f64 = 0.3;
/// Page edge of every tile store, in cells.
pub const TILE: usize = 32;

/// The rough (low-coherence) multi-band world of `grid_hot` and
/// `append_mix`: level bounds stay loose, so the descent is busy.
pub fn rough_world(rows: usize, cols: usize, attrs: usize) -> Vec<Grid2<f64>> {
    (0..attrs as u64)
        .map(|i| {
            GaussianField::new(ARCHIVE_SEED * 1000 + i)
                .with_roughness(0.85)
                .generate(rows, cols)
                .normalized(0.0, 100.0)
        })
        .collect()
}

/// Rows `[from, from + rows)` of every grid of `world`.
pub fn rows_of(world: &[Grid2<f64>], from: usize, rows: usize) -> Vec<Grid2<f64>> {
    world
        .iter()
        .map(|g| {
            let cols = g.cols();
            let cells = g.as_slice()[from * cols..(from + rows) * cols].to_vec();
            Grid2::from_vec(rows, cols, cells).expect("whole rows")
        })
        .collect()
}

/// The HPS-style world of `shard_batch`: three correlated reflectance
/// bands plus elevation, rougher than the repo's HPS scenes so that a
/// query's winners scatter over many pages instead of sharing one.
pub fn hps_world(rows: usize, cols: usize) -> Vec<Grid2<f64>> {
    const ROUGHNESS: f64 = 0.9;
    let scene = SyntheticScene::new(ARCHIVE_SEED, rows, cols)
        .with_roughness(ROUGHNESS)
        .generate();
    let mut bands: Vec<Grid2<f64>> = [BandId::TM4, BandId::TM5, BandId::TM7]
        .iter()
        .map(|&id| scene.band(id).expect("band present").clone())
        .collect();
    bands.push(
        GaussianField::new(ARCHIVE_SEED + 1)
            .with_roughness(ROUGHNESS)
            .generate(rows, cols)
            .normalized(0.0, 2500.0),
    );
    bands
}

/// `count` mixed-sign linear models: directions from the fixed family,
/// every coefficient then moved by up to ±`jitter` from `seed`.
pub fn model_family(seed: u64, count: usize, arity: usize, jitter: f64) -> Vec<LinearModel> {
    let mut family = Rng::new(FAMILY_SEED);
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let coeffs = (0..arity)
                .map(|_| family.signed() + jitter * rng.signed())
                .collect();
            LinearModel::new(coeffs, 0.0).expect("finite coefficients")
        })
        .collect()
}

/// `batches` batches of `q` gently perturbed models (the r8 family): each
/// batch has its own centre, jittered by `seed`, and its members step away
/// from it in small equal strides. A centre weights the reflectance bands
/// with either sign and the last attribute, elevation, negatively, every
/// weight at least [`MIN_WEIGHT`] in magnitude. What a batch costs on the
/// HPS world on one thread follows the elevation weight: 3 – 7 ms when it is
/// positive, 9 – 15 ms when negative, and 50 – 200 ms within ±0.1 of zero,
/// where 1 % of jitter doubles it. Drawn over `[-1, 1)` the costs had two
/// modes with the median in the gap and a tail of a few batches that
/// carried half of a round; held to one sign and away from zero they
/// have one mode (p95 about 1.6 × p50) and move little with the jitter.
pub fn perturbed_batches(
    seed: u64,
    batches: usize,
    q: usize,
    arity: usize,
) -> Vec<Vec<LinearModel>> {
    let mut family = Rng::new(FAMILY_SEED);
    let mut rng = Rng::new(seed);
    (0..batches)
        .map(|_| {
            let centre: Vec<f64> = (0..arity)
                .map(|a| {
                    let c = family.signed();
                    let sign = if a + 1 == arity { -1.0 } else { c.signum() };
                    sign * (MIN_WEIGHT + (1.0 - MIN_WEIGHT) * c.abs()) + 0.01 * rng.signed()
                })
                .collect();
            let stride: Vec<f64> = (0..arity).map(|_| 0.004 * family.signed()).collect();
            (0..q)
                .map(|m| {
                    let t = m as f64;
                    let coeffs = centre.iter().zip(&stride).map(|(c, s)| c + s * t).collect();
                    LinearModel::new(coeffs, 0.05 * t).expect("finite coefficients")
                })
                .collect()
        })
        .collect()
}

/// `count` unit-scale query directions for the tuple workload, jittered
/// like [`model_family`].
pub fn direction_family(seed: u64, count: usize, d: usize, jitter: f64) -> Vec<Vec<f64>> {
    model_family(seed, count, d, jitter)
        .iter()
        .map(|m| m.coefficients().to_vec())
        .collect()
}

/// The naive oracle for grid answers: a full scan of the raw grids per
/// model, scoring through `LinearModel::evaluate` and ranking through the
/// repo's canonical total order (descending score, ascending cell).
/// Rows only ever append, so the top-K of a grown archive is the top-K
/// of the previous top-K and the new band — [`extend`](Self::extend)
/// keeps the oracle exact across `append_mix` epochs without rescanning.
#[derive(Clone)]
pub struct GridOracle {
    models: Vec<LinearModel>,
    k: usize,
    cols: usize,
    tops: Vec<Vec<ScoredItem>>,
}

impl GridOracle {
    pub fn new(models: &[LinearModel], k: usize, cols: usize) -> Self {
        GridOracle {
            models: models.to_vec(),
            k,
            cols,
            tops: vec![Vec::new(); models.len()],
        }
    }

    /// Folds in one band per attribute whose first row is global row
    /// `row_offset`.
    pub fn extend(&mut self, bands: &[Grid2<f64>], row_offset: usize) {
        let mut heaps: Vec<TopKHeap> = self
            .tops
            .iter()
            .map(|top| {
                let mut heap = TopKHeap::new(self.k);
                for &item in top {
                    heap.offer(item);
                }
                heap
            })
            .collect();
        let mut floors: Vec<Option<f64>> = heaps.iter().map(TopKHeap::floor).collect();
        // Cell by cell, every model on it: the cell's attributes are
        // gathered once, not once per model.
        let mut x = vec![0.0; bands.len()];
        for r in 0..bands[0].rows() {
            let rows: Vec<&[f64]> = bands.iter().map(|b| b.row(r)).collect();
            for c in 0..self.cols {
                for (slot, row) in x.iter_mut().zip(&rows) {
                    *slot = row[c];
                }
                let index = (row_offset + r) * self.cols + c;
                for ((model, heap), floor) in self.models.iter().zip(&mut heaps).zip(&mut floors) {
                    let score = model.evaluate(&x);
                    // A score strictly below the floor can never be kept;
                    // ties go to `offer`, the one place that decides them.
                    if floor.is_some_and(|f| score < f) {
                        continue;
                    }
                    if heap.offer(ScoredItem { index, score }) {
                        *floor = heap.floor();
                    }
                }
            }
        }
        self.tops = heaps.into_iter().map(TopKHeap::into_sorted).collect();
    }

    /// The best `k` (at most the oracle's own K) entries for `model`.
    pub fn entries(&self, model: usize, k: usize) -> Vec<Entry> {
        self.tops[model]
            .iter()
            .take(k)
            .map(|item| (item.index as u64, item.score.to_bits()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_core::engine::naive_grid_top_k;
    use mbir_progressive::pyramid::AggregatePyramid;

    #[test]
    fn oracle_agrees_with_the_repos_naive_scan_and_extends_exactly() {
        let bands = rough_world(64, 32, 3);
        let models = model_family(5, 4, 3, 0.05);
        let head: Vec<Grid2<f64>> = bands
            .iter()
            .map(|b| Grid2::from_vec(32, 32, b.as_slice()[..32 * 32].to_vec()).unwrap())
            .collect();
        let tail: Vec<Grid2<f64>> = bands
            .iter()
            .map(|b| Grid2::from_vec(32, 32, b.as_slice()[32 * 32..].to_vec()).unwrap())
            .collect();
        let mut grown = GridOracle::new(&models, 20, 32);
        grown.extend(&head, 0);
        grown.extend(&tail, 32);
        let pyramids: Vec<AggregatePyramid> = bands.iter().map(AggregatePyramid::build).collect();
        for (m, model) in models.iter().enumerate() {
            let naive = naive_grid_top_k(model, &pyramids, 20).unwrap();
            let expect: Vec<Entry> = naive
                .results
                .iter()
                .map(|s| ((s.cell.row * 32 + s.cell.col) as u64, s.score.to_bits()))
                .collect();
            assert_eq!(grown.entries(m, 20), expect);
            assert_eq!(grown.entries(m, 5), expect[..5]);
        }
    }

    #[test]
    fn families_depend_on_the_seed_and_only_on_it() {
        let a = model_family(13, 8, 4, 0.05);
        assert_eq!(a, model_family(13, 8, 4, 0.05));
        assert_ne!(a, model_family(14, 8, 4, 0.05));
        assert_eq!(
            perturbed_batches(13, 3, 16, 4),
            perturbed_batches(13, 3, 16, 4)
        );
        assert_ne!(
            perturbed_batches(13, 3, 16, 4),
            perturbed_batches(14, 3, 16, 4)
        );
        assert_eq!(perturbed_batches(13, 3, 16, 4)[0].len(), 16);
    }
}
