//! The progressive execution engine (paper §3.1 / §4.2).
//!
//! Three exact engines, each reporting its work in model multiply-adds so
//! the §4.2 ratios are measurable:
//!
//! * [`staged_top_k`] — **progressive model** over flat tuples: evaluate
//!   contribution-ranked terms one stage at a time, pruning candidates
//!   whose sound upper bound falls under the current K-th lower bound.
//!   Its reduction ratio is the paper's `p_m`.
//! * [`pyramid_top_k`] — **progressive data**: best-first quad-descent over
//!   aggregate pyramids, bounding the full model over each region box.
//!   Its reduction ratio is `p_d`.
//! * [`combined_top_k`] — both at once: coarse regions are bounded with
//!   *truncated* models (fewer terms ⇒ cheaper bound), refining both the
//!   region and the model together; the paper's `O(nN/(p_m p_d))`.
//!
//! Every engine returns exactly the scores a naive full scan returns
//! (property-tested); only the work differs.

use crate::batched::{batched_top_k_inner, with_pooled_scratch};
use crate::descent::{children_upper, region_upper, ChildRows, Scorer};
use crate::error::CoreError;
use crate::parallel::{par_staged_top_k, WorkerPool};
use crate::resilient::{resilient_top_k, ExecutionBudget};
use crate::source::{CellSource, PyramidSource};
use mbir_archive::extent::CellCoord;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
use mbir_progressive::pyramid::AggregatePyramid;
use std::fmt;

/// Work accounting in model multiply-adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffortReport {
    /// Multiply-adds actually spent.
    pub multiply_adds: u64,
    /// Multiply-adds a naive full-model full-data scan would spend
    /// (`n * N` in §4.2).
    pub naive_multiply_adds: u64,
}

impl EffortReport {
    /// The §4.2 speedup `naive / actual` (∞-safe: 0 work reports 1.0).
    ///
    /// The 1.0 is a neutral placeholder, not a measurement — use
    /// [`speedup_checked`](Self::speedup_checked) to tell "no work was
    /// performed" apart from "exactly break-even".
    pub fn speedup(&self) -> f64 {
        self.speedup_checked().unwrap_or(1.0)
    }

    /// The §4.2 speedup, or `None` when no work was performed (e.g. a run
    /// stopped by a budget before its first multiply-add).
    pub fn speedup_checked(&self) -> Option<f64> {
        if self.multiply_adds == 0 {
            return None;
        }
        Some(self.naive_multiply_adds as f64 / self.multiply_adds as f64)
    }
}

impl std::ops::Add for EffortReport {
    type Output = EffortReport;

    fn add(self, rhs: EffortReport) -> EffortReport {
        EffortReport {
            multiply_adds: self.multiply_adds + rhs.multiply_adds,
            naive_multiply_adds: self.naive_multiply_adds + rhs.naive_multiply_adds,
        }
    }
}

impl std::ops::AddAssign for EffortReport {
    fn add_assign(&mut self, rhs: EffortReport) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for EffortReport {
    fn sum<I: Iterator<Item = EffortReport>>(iter: I) -> EffortReport {
        iter.fold(EffortReport::default(), |acc, e| acc + e)
    }
}

impl fmt::Display for EffortReport {
    /// Distinguishes zero work from break-even: a run that never evaluated
    /// anything prints "no work performed" rather than a fictitious 1.0x.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.speedup_checked() {
            Some(speedup) => write!(
                f,
                "{} of {} multiply-adds ({speedup:.2}x speedup)",
                self.multiply_adds, self.naive_multiply_adds
            ),
            None => write!(
                f,
                "0 of {} multiply-adds (no work performed; speedup undefined)",
                self.naive_multiply_adds
            ),
        }
    }
}

/// A scored grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCell {
    /// Base-resolution cell.
    pub cell: CellCoord,
    /// Exact model value at the cell.
    pub score: f64,
}

/// Result of a grid engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTopK {
    /// Top-K cells, descending score.
    pub results: Vec<ScoredCell>,
    /// Work accounting.
    pub effort: EffortReport,
}

/// Result of a tuple engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleTopK {
    /// Top-K tuples, descending score.
    pub results: Vec<ScoredItem>,
    /// Work accounting.
    pub effort: EffortReport,
}

/// Progressive-model scan over flat tuples (the `p_m` engine).
///
/// Terms are added one stage at a time in contribution order; after each
/// stage, candidates whose upper bound is below the K-th best lower bound
/// are dropped. Each stage costs one multiply-add per surviving candidate,
/// so the total is `Σ_s alive(s)` against the naive `n·N`. This is
/// [`par_staged_top_k`] over a pool of one: one chunk, every tuple.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for `k == 0`, an empty tuple list or a NaN
/// value, and [`CoreError::Model`] for arity mismatches.
pub fn staged_top_k(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
) -> Result<TupleTopK, CoreError> {
    par_staged_top_k(model, tuples, k, &WorkerPool::new(1))
}

/// The tuple engines' shared input check: `k >= 1`, at least one tuple,
/// every tuple of the model's arity, and no NaN value. A NaN would sort
/// first in the exact ranking, but the staged bound cannot see it in a
/// term it has not read yet, so the input is rejected rather than
/// answered wrong.
pub(crate) fn validate_tuples(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::Query("k must be >= 1".into()));
    }
    if tuples.is_empty() {
        return Err(CoreError::Query("no tuples to search".into()));
    }
    let n_terms = model.stages();
    for (i, t) in tuples.iter().enumerate() {
        if t.len() != n_terms {
            return Err(CoreError::Model(
                mbir_models::error::ModelError::ArityMismatch {
                    expected: n_terms,
                    actual: t.len(),
                },
            ));
        }
        if t.iter().any(|v| v.is_nan()) {
            return Err(CoreError::Query(format!("tuple {i} holds a NaN value")));
        }
    }
    Ok(())
}

/// Bits of a frontier coordinate word given to the column, to the row,
/// and (the rest of the 64) to the level: the one `(level, row, col)`
/// packing, shared by [`Region`] and the batched engine's bound memo.
const COORD_BITS: u32 = 28;
const LEVEL_BITS: u32 = 64 - 2 * COORD_BITS;

/// `(level, row, col)` in one word, level-major. Injective for the grids
/// [`check_grid_fits_key`] admits.
#[inline]
pub(crate) fn pack_coords((level, row, col): (usize, usize, usize)) -> u64 {
    debug_assert!(check_grid_fits_key(row + 1, col + 1, level + 1).is_ok());
    ((level as u64) << (2 * COORD_BITS)) | ((row as u64) << COORD_BITS) | col as u64
}

/// Rejects a grid whose coordinates [`pack_coords`] cannot hold: a base
/// side beyond 2^28 cells or more than 2^8 levels (a grid that wide is
/// 2 GB a row of one attribute: a guard, not a working limit).
///
/// Reached through [`validate_grid_inputs`] by every grid entry point
/// before its first region exists: `batched_top_k` (and through it
/// `resilient_top_k`, `pyramid_top_k` and `combined_top_k`),
/// `naive_grid_top_k`, the two `par_*` grid engines, and the
/// `scatter_gather_*` engines once per shard.
fn check_grid_fits_key(rows: usize, cols: usize, levels: usize) -> Result<(), CoreError> {
    if rows.max(cols) > 1 << COORD_BITS || levels > 1 << LEVEL_BITS {
        return Err(CoreError::Query(format!(
            "a {rows}x{cols} grid of {levels} levels exceeds the frontier key \
             (base side <= 2^{COORD_BITS}, levels <= 2^{LEVEL_BITS})"
        )));
    }
    Ok(())
}

/// The IEEE-754 total-order bijection `f64` → `u64`: `ub_key(a) >
/// ub_key(b)` ⇔ `a.total_cmp(&b).is_gt()`, for every bit pattern.
#[inline]
fn ub_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// One frontier entry: a pyramid region and the upper bound of the model
/// over it, as one 16-byte ordered key (DESIGN.md §18).
///
/// The high half is the total-order image of the bound ([`ub_key`]), the
/// low half the bitwise complement of [`pack_coords`], so the derived
/// integer order *is* "upper bound by `total_cmp`, then the smaller level,
/// row, col first" — a *total* order. With ub-only ordering, equal-bound
/// regions would pop in insertion-history order; the deterministic
/// tie-break makes the pop sequence depend on which regions were pushed,
/// not on the order they were pushed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Region(u128);

impl Region {
    #[inline]
    pub(crate) fn new(ub: f64, at: (usize, usize, usize)) -> Self {
        Region((u128::from(ub_key(ub)) << 64) | u128::from(!pack_coords(at)))
    }

    /// The upper bound, bit for bit as given (NaNs included).
    #[inline]
    pub(crate) fn ub(&self) -> f64 {
        let key = self.ub_key();
        let m = (((!key as i64) >> 63) as u64) | 0x8000_0000_0000_0000;
        f64::from_bits(key ^ m)
    }

    /// [`ub_key`] of the bound: orders as `ub().total_cmp(..)` does.
    #[inline]
    pub(crate) fn ub_key(&self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// `(level, row, col)`.
    #[inline]
    pub(crate) fn at(&self) -> (usize, usize, usize) {
        let coords = !self.0 as u64;
        let side = (1 << COORD_BITS) - 1;
        let (row, col) = ((coords >> COORD_BITS) & side, coords & side);
        (self.level(), row as usize, col as usize)
    }

    #[inline]
    pub(crate) fn level(&self) -> usize {
        (!self.0 as u64 >> (2 * COORD_BITS)) as usize
    }
}

/// Progressive-data engine (the `p_d` engine): best-first quad-descent over
/// per-attribute aggregate pyramids with full-model box bounds.
///
/// This is [`resilient_top_k`] over the pyramids' own level 0
/// ([`PyramidSource`]) with an unlimited budget, so every cell is
/// certified exact.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for `k == 0`, empty/misaligned pyramids, a
/// pyramid/model arity mismatch, or a NaN base cell.
pub fn pyramid_top_k(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<GridTopK, CoreError> {
    let source = PyramidSource::new(pyramids);
    let r = resilient_top_k(model, pyramids, k, &source, &ExecutionBudget::unlimited())?;
    Ok(GridTopK {
        results: r.exact_cells(),
        effort: r.effort,
    })
}

/// Reads the full attribute vector of one base cell through a source,
/// into a reused buffer (cleared first).
pub(crate) fn read_base_vector_into<S: CellSource>(
    source: &S,
    arity: usize,
    row: usize,
    col: usize,
    out: &mut Vec<f64>,
) -> Result<(), CoreError> {
    out.clear();
    for attr in 0..arity {
        out.push(
            source
                .base_cell(attr, row, col)
                .map_err(CoreError::Archive)?,
        );
    }
    Ok(())
}

/// Combined engine (`p_m · p_d`): quad-descent where coarse levels are
/// bounded with *truncated* models. Level `l` of `L` uses the first
/// `ceil(arity · (L - l) / L)` contribution-ranked terms, so the root is
/// bounded almost for free and bounds sharpen as regions shrink.
///
/// # Errors
///
/// Same as [`pyramid_top_k`].
pub fn combined_top_k(
    model: &ProgressiveLinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<GridTopK, CoreError> {
    // Validation checks that every pyramid has the first one's levels.
    let levels = pyramids.first().map_or(0, AggregatePyramid::levels);
    let scorers = [Truncated { model, levels }];
    let source = PyramidSource::new(pyramids);
    let budget = ExecutionBudget::unlimited();
    let mut batch = with_pooled_scratch(|scratch| {
        batched_top_k_inner(&scorers, pyramids, k, &source, (&budget).into(), scratch)
    })?;
    let r = batch.queries.pop().expect("one answer per model");
    Ok(GridTopK {
        results: r.exact_cells(),
        effort: r.effort,
    })
}

/// The combined engine's [`Scorer`]: regions are bounded with the model
/// truncated to the level's stage (one multiply-add per evaluated term),
/// cells are scored with the full model.
pub(crate) struct Truncated<'a> {
    pub(crate) model: &'a ProgressiveLinearModel,
    pub(crate) levels: usize,
}

impl Truncated<'_> {
    /// Terms used at `level`: coarser level -> fewer terms, never below 1.
    fn stage_for_level(&self, level: usize) -> usize {
        let n_terms = self.model.stages();
        if level == 0 {
            return n_terms;
        }
        let frac = (self.levels - level) as f64 / self.levels as f64;
        ((n_terms as f64 * frac).ceil() as usize).clamp(1, n_terms)
    }

    fn intercept(&self) -> f64 {
        self.model.model().intercept()
    }

    /// The first `stage` contribution-ranked `(attribute, coefficient)`
    /// terms.
    fn terms(&self, stage: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let coeffs = self.model.model().coefficients();
        let order = &self.model.term_order()[..stage];
        order.iter().map(move |&term| (term, coeffs[term]))
    }
}

impl Scorer for Truncated<'_> {
    #[inline]
    fn model(&self) -> &LinearModel {
        self.model.model()
    }

    /// Truncated-model interval upper bound: the first `stage` ranked
    /// terms use the region box; the rest contribute their *global*
    /// residual envelope, a stage constant baked into the progressive
    /// model (suffix_mid + residual == max suffix).
    #[inline]
    fn bound(
        &self,
        pyramids: &[AggregatePyramid],
        at: (usize, usize, usize),
    ) -> Result<(f64, u64), CoreError> {
        let stage = self.stage_for_level(at.0);
        let hi = region_upper(pyramids, at, self.intercept(), self.terms(stage))?;
        Ok((hi + suffix_upper(self.model, stage), stage as u64))
    }

    /// The four children share a level, hence a stage: its terms per
    /// child, then the one stage constant.
    #[inline]
    fn bound_children(
        &self,
        level: usize,
        rows: impl ChildRows,
        ub: &mut [f64; 4],
    ) -> (usize, u64) {
        let stage = self.stage_for_level(level - 1);
        let n = children_upper(rows, self.intercept(), self.terms(stage), ub);
        let suffix = suffix_upper(self.model, stage);
        for u in &mut ub[..n] {
            *u += suffix;
        }
        (n, stage as u64)
    }
}

/// Naive full scan over the pyramids' base level — the §4.2 `O(nN)`
/// baseline, exposed so experiments can measure against it directly.
///
/// # Errors
///
/// Same validation as [`pyramid_top_k`].
pub fn naive_grid_top_k(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<GridTopK, CoreError> {
    let ((rows, cols), _) = validate_grid_inputs(model, pyramids, k)?;
    let n = model.arity() as u64;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * (rows * cols) as u64,
    };
    let mut heap = TopKHeap::new(k);
    for r in 0..rows {
        for c in 0..cols {
            let x: Vec<f64> = pyramids
                .iter()
                .map(|p| p.cell(0, r, c).map(|s| s.mean).expect("in-bounds"))
                .collect();
            effort.multiply_adds += n;
            heap.offer(ScoredItem {
                index: r * cols + c,
                score: model.evaluate(&x),
            });
        }
    }
    let results = heap
        .into_sorted()
        .into_iter()
        .map(|item| ScoredCell {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            score: item.score,
        })
        .collect();
    Ok(GridTopK { results, effort })
}

/// The grid engines' shared input check: `k >= 1`, one pyramid per model
/// term, one shape and level count across them, a grid the frontier key
/// holds, and no NaN base cell. A NaN cell would rank first in the exact
/// answer, but the pyramid's `min` / `max` skip it, so the descent would
/// miss it or not depending on where it sits: the input is rejected, as
/// [`validate_tuples`] rejects a NaN tuple. The check reads each
/// pyramid's root mean, which any NaN below makes NaN — and so does a
/// grid holding both infinities (or finite values so large that the
/// mean's sums overflow both ways), which is rejected too.
pub(crate) fn validate_grid_inputs(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<((usize, usize), usize), CoreError> {
    if k == 0 {
        return Err(CoreError::Query("k must be >= 1".into()));
    }
    if pyramids.is_empty() {
        return Err(CoreError::Query("no attribute pyramids supplied".into()));
    }
    if pyramids.len() != model.arity() {
        return Err(CoreError::Query(format!(
            "model arity {} but {} pyramids",
            model.arity(),
            pyramids.len()
        )));
    }
    let shape = pyramids[0].base_shape();
    let levels = pyramids[0].levels();
    for p in pyramids {
        if p.base_shape() != shape || p.levels() != levels {
            return Err(CoreError::Query("pyramids must share a shape".into()));
        }
    }
    check_grid_fits_key(shape.0, shape.1, levels)?;
    if let Some(attr) = pyramids.iter().position(|p| p.root().mean.is_nan()) {
        return Err(CoreError::Query(format!(
            "attribute {attr} holds a NaN base cell (or both infinities)"
        )));
    }
    Ok((shape, levels))
}

/// Max possible contribution of the terms after `stage` (over the global
/// attribute ranges the progressive model was built with).
fn suffix_upper(model: &ProgressiveLinearModel, stage: usize) -> f64 {
    let coeffs = model.model().coefficients();
    let ranges = model.ranges();
    model.term_order()[stage..]
        .iter()
        .map(|&term| {
            let a = coeffs[term];
            let (lo, hi) = ranges[term];
            if a >= 0.0 {
                a * hi
            } else {
                a * lo
            }
        })
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::batched::batched_top_k;
    use crate::descent::fresh;
    use crate::shard::{
        scatter_gather_top_k, ArchiveShard, ScatterPolicy, ShardError, ShardedArchive,
    };
    use mbir_archive::grid::Grid2;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    type Entry = (f64, (usize, usize, usize));

    /// The frontier order as it was written by hand before the packed key:
    /// the reference the derived order must equal.
    fn reference_cmp(a: &Entry, b: &Entry) -> Ordering {
        (a.0.total_cmp(&b.0))
            .then_with(|| b.1 .0.cmp(&a.1 .0))
            .then_with(|| b.1 .1.cmp(&a.1 .1))
            .then_with(|| b.1 .2.cmp(&a.1 .2))
    }

    /// An upper bound of `class`: any bit pattern, the signed zeros and
    /// infinities, NaNs of both signs with payloads, subnormals, or one of
    /// a few finite values (so that bounds tie and the coordinates decide).
    fn ub_of(class: usize, bits: u64) -> f64 {
        const MANTISSA: u64 = (1 << 52) - 1;
        const SIGN: u64 = 1 << 63;
        match class {
            0 => f64::from_bits(bits),
            1 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][(bits % 4) as usize],
            2 => f64::from_bits((bits & SIGN) | (0x7ff << 52) | (bits & MANTISSA).max(1)),
            3 => f64::from_bits(bits & (SIGN | MANTISSA)),
            _ => (bits % 5) as f64 - 2.0,
        }
    }

    const SIDE: usize = 1 << COORD_BITS;
    const LEVELS: usize = 1 << LEVEL_BITS;

    fn coords() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(
            proptest::sample::select(vec![0, 1, 2, 1000, SIDE / 2, SIDE - 2, SIDE - 1]),
            4,
        )
    }

    proptest! {
        #[test]
        fn prop_packed_order_is_the_handwritten_order(
            classes in proptest::collection::vec(0usize..5, 2),
            bits in proptest::collection::vec(0u64..u64::MAX, 2),
            levels in proptest::collection::vec(
                proptest::sample::select(vec![0, 1, 2, LEVELS - 1]), 2),
            cells in coords(),
        ) {
            let a = (ub_of(classes[0], bits[0]), (levels[0], cells[0], cells[1]));
            let b = (ub_of(classes[1], bits[1]), (levels[1], cells[2], cells[3]));
            // Also against `a` with `b`'s bound, so coordinate ties are hit.
            let c = (a.0, b.1);
            for (x, y) in [(a, b), (a, c), (c, b), (a, a)] {
                let packed = Region::new(x.0, x.1).cmp(&Region::new(y.0, y.1));
                prop_assert_eq!(packed, reference_cmp(&x, &y), "{:?} vs {:?}", x, y);
            }
            let r = Region::new(a.0, a.1);
            prop_assert_eq!(r.ub().to_bits(), a.0.to_bits());
            prop_assert_eq!(r.at(), a.1);
            prop_assert_eq!(r.level(), a.1.0);
            // The scan selector's integer key orders as the bound does.
            let rb = Region::new(b.0, b.1);
            prop_assert_eq!(r.ub_key().cmp(&rb.ub_key()), a.0.total_cmp(&b.0));
        }
    }

    #[test]
    fn region_is_sixteen_bytes_and_keeps_every_bound_bit() {
        assert_eq!(std::mem::size_of::<Region>(), 16);
        // The bottommost patterns of the total order, which a key clamped
        // away from 0 would merge, and the NaN root a sharded merge plants.
        for bits in [u64::MAX, u64::MAX - 1, f64::NAN.to_bits(), 0, 1 << 63] {
            let r = Region::new(f64::from_bits(bits), (LEVELS - 1, SIDE - 1, SIDE - 1));
            assert_eq!(r.ub().to_bits(), bits);
            assert_eq!(r.at(), (LEVELS - 1, SIDE - 1, SIDE - 1));
        }
    }

    #[test]
    fn grids_beyond_the_key_are_a_typed_error() {
        assert!(check_grid_fits_key(SIDE, SIDE, LEVELS).is_ok());
        for (rows, cols, levels) in [
            (SIDE + 1, 1, 1),
            (1, SIDE + 1, 1),
            (1, 1, LEVELS + 1),
            (usize::MAX, usize::MAX, usize::MAX),
        ] {
            let err = check_grid_fits_key(rows, cols, levels).unwrap_err();
            assert!(matches!(err, CoreError::Query(_)), "{rows}x{cols}x{levels}");
        }
    }

    #[test]
    fn effort_report_distinguishes_zero_work_from_break_even() {
        let idle = EffortReport {
            multiply_adds: 0,
            naive_multiply_adds: 1000,
        };
        assert_eq!(idle.speedup_checked(), None);
        assert_eq!(idle.speedup(), 1.0); // neutral placeholder
        assert_eq!(
            idle.to_string(),
            "0 of 1000 multiply-adds (no work performed; speedup undefined)"
        );
        let break_even = EffortReport {
            multiply_adds: 1000,
            naive_multiply_adds: 1000,
        };
        assert_eq!(break_even.speedup_checked(), Some(1.0));
        assert_eq!(
            break_even.to_string(),
            "1000 of 1000 multiply-adds (1.00x speedup)"
        );
    }

    #[test]
    fn effort_report_sums_field_by_field() {
        let a = EffortReport {
            multiply_adds: 3,
            naive_multiply_adds: 10,
        };
        let b = EffortReport {
            multiply_adds: 7,
            naive_multiply_adds: 90,
        };
        assert_eq!(
            a + b,
            EffortReport {
                multiply_adds: 10,
                naive_multiply_adds: 100,
            }
        );
        let mut acc = EffortReport::default();
        acc += a;
        acc += b;
        assert_eq!(acc, a + b);
        let summed: EffortReport = [a, b].into_iter().sum();
        assert_eq!(summed, a + b);
    }

    fn pseudo_grid(seed: u64, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((r * 8191 + c * 127) as u64)
                .wrapping_mul(2862933555777941757);
            (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        })
    }

    fn build_inputs(
        seed: u64,
        rows: usize,
        cols: usize,
        arity: usize,
    ) -> (LinearModel, Vec<AggregatePyramid>) {
        let coeffs: Vec<f64> = (0..arity)
            .map(|i| match i % 4 {
                0 => 2.0,
                1 => -1.0,
                2 => 0.25,
                _ => 0.05,
            })
            .collect();
        let model = LinearModel::new(coeffs, 0.5).unwrap();
        let pyramids: Vec<AggregatePyramid> = (0..arity)
            .map(|i| AggregatePyramid::build(&pseudo_grid(seed + i as u64, rows, cols)))
            .collect();
        (model, pyramids)
    }

    pub(crate) fn progressive_of(
        model: &LinearModel,
        pyramids: &[AggregatePyramid],
    ) -> ProgressiveLinearModel {
        let ranges: Vec<(f64, f64)> = pyramids
            .iter()
            .map(|p| {
                let root = p.root();
                (root.min, root.max)
            })
            .collect();
        ProgressiveLinearModel::new(model.clone(), &ranges).unwrap()
    }

    #[test]
    fn pyramid_engine_matches_naive() {
        let (model, pyramids) = build_inputs(1, 40, 56, 3);
        for k in [1usize, 5, 17] {
            let fast = pyramid_top_k(&model, &pyramids, k).unwrap();
            let slow = naive_grid_top_k(&model, &pyramids, k).unwrap();
            let fs: Vec<f64> = fast.results.iter().map(|r| r.score).collect();
            let ss: Vec<f64> = slow.results.iter().map(|r| r.score).collect();
            for (a, b) in fs.iter().zip(&ss) {
                assert!((a - b).abs() < 1e-9, "k={k}: {fs:?} vs {ss:?}");
            }
            // No speedup assertion here: these grids are spatially
            // uncorrelated noise, the worst case for region bounds (the
            // smooth-data case below demonstrates the speedup).
        }
    }

    #[test]
    fn pyramid_engine_speeds_up_on_smooth_data() {
        let rows = 64;
        let cols = 64;
        let pyramids: Vec<AggregatePyramid> = (0..3)
            .map(|i| {
                AggregatePyramid::build(&Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 7.0 + i as f64).sin() + (c as f64 / 13.0).cos()) * 40.0
                }))
            })
            .collect();
        let model = LinearModel::new(vec![1.0, 0.5, -0.75], 0.0).unwrap();
        let fast = pyramid_top_k(&model, &pyramids, 3).unwrap();
        let slow = naive_grid_top_k(&model, &pyramids, 3).unwrap();
        for (a, b) in fast.results.iter().zip(&slow.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        assert!(
            fast.effort.speedup() > 2.0,
            "smooth data should prune well, got {}",
            fast.effort.speedup()
        );
    }

    #[test]
    fn staged_engine_matches_scan() {
        let (model, pyramids) = build_inputs(3, 24, 24, 4);
        let prog = progressive_of(&model, &pyramids);
        let tuples: Vec<Vec<f64>> = (0..24 * 24)
            .map(|i| {
                (0..4)
                    .map(|a| pyramids[a].cell(0, i / 24, i % 24).unwrap().mean)
                    .collect()
            })
            .collect();
        for k in [1usize, 10] {
            let fast = staged_top_k(&prog, &tuples, k).unwrap();
            let slow = mbir_index::scan::scan_top_k(&tuples, k, |t| model.evaluate(t));
            for (a, b) in fast.results.iter().zip(&slow.results) {
                assert!((a.score - b.score).abs() < 1e-9, "k={k}");
            }
            assert!(
                fast.effort.multiply_adds < fast.effort.naive_multiply_adds,
                "pruning must save work"
            );
        }
    }

    #[test]
    fn combined_engine_matches_naive_and_beats_singletons() {
        // Smooth data (spatial structure) + skewed coefficients: the regime
        // where both progressive axes pay off.
        let rows = 64;
        let cols = 64;
        let smooth: Vec<AggregatePyramid> = (0..4)
            .map(|i| {
                AggregatePyramid::build(&Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
                }))
            })
            .collect();
        let model = LinearModel::new(vec![5.0, 0.8, 0.1, 0.02], 0.0).unwrap();
        let prog = progressive_of(&model, &smooth);
        let k = 5;
        let naive = naive_grid_top_k(&model, &smooth, k).unwrap();
        let data_only = pyramid_top_k(&model, &smooth, k).unwrap();
        let both = combined_top_k(&prog, &smooth, k).unwrap();
        for (a, b) in both.results.iter().zip(&naive.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        for (a, b) in data_only.results.iter().zip(&naive.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        assert!(data_only.effort.speedup() > 1.0);
        assert!(
            both.effort.multiply_adds <= data_only.effort.multiply_adds,
            "truncated bounds must not cost more: {} vs {}",
            both.effort.multiply_adds,
            data_only.effort.multiply_adds
        );
    }

    #[test]
    fn engines_validate_inputs() {
        let (model, pyramids) = build_inputs(5, 8, 8, 2);
        assert!(pyramid_top_k(&model, &pyramids, 0).is_err());
        assert!(pyramid_top_k(&model, &pyramids[..1], 1).is_err());
        let prog = progressive_of(&model, &pyramids);
        assert!(staged_top_k(&prog, &[], 1).is_err());
        assert!(staged_top_k(&prog, &[vec![1.0]], 1).is_err());
        let other = AggregatePyramid::build(&pseudo_grid(9, 4, 4));
        assert!(pyramid_top_k(&model, &[pyramids[0].clone(), other], 1).is_err());
        let (prog, tuples) = nan_tuple_input();
        let got = staged_top_k(&prog, &tuples, 1);
        assert!(matches!(got, Err(CoreError::Query(_))), "{got:?}");

        // A NaN base cell, wherever it sits, fails every grid engine and
        // the oracle alike.
        for at in [(5, 7), (31, 30)] {
            let mut ramp = Grid2::from_fn(32, 32, |r, c| (r * 32 + c) as f64);
            ramp.set(at.0, at.1, f64::NAN).unwrap();
            let pyramids = [AggregatePyramid::build(&ramp)];
            let model = LinearModel::new(vec![1.0], 0.0).unwrap();
            let (src, budget) = (PyramidSource::new(&pyramids), ExecutionBudget::unlimited());
            let shard = ArchiveShard::new(&pyramids, &src, 0);
            let archive = ShardedArchive::new(vec![shard]).unwrap();
            let policy = ScatterPolicy::require_all();
            let pool = WorkerPool::new(1);
            let errs = [
                pyramid_top_k(&model, &pyramids, 3).map(drop),
                combined_top_k(&progressive_of(&model, &pyramids), &pyramids, 3).map(drop),
                naive_grid_top_k(&model, &pyramids, 3).map(drop),
                resilient_top_k(&model, &pyramids, 3, &src, &budget).map(drop),
                batched_top_k(std::slice::from_ref(&model), &pyramids, 3, &src, &budget).map(drop),
                scatter_gather_top_k(&model, &archive, 3, &budget, &policy, &pool)
                    .map(drop)
                    .map_err(|e| match e {
                        ShardError::Core(e) => e,
                        other => panic!("{other:?}"),
                    }),
            ];
            for (i, err) in errs.into_iter().enumerate() {
                assert!(
                    matches!(err, Err(CoreError::Query(_))),
                    "engine {i} at {at:?}: {err:?}"
                );
            }
        }
    }

    /// Twenty 3-d tuples, the fourth holding a NaN in its most
    /// contributing term: a staged K-th floor selected by `total_cmp`
    /// would be that NaN and prune every candidate.
    pub(crate) fn nan_tuple_input() -> (ProgressiveLinearModel, Vec<Vec<f64>>) {
        let model = LinearModel::new(vec![1.0, 0.5, 0.25], 0.0).unwrap();
        let prog = ProgressiveLinearModel::new(model, &[(0.0, 10.0); 3]).unwrap();
        let mut tuples: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 10) as f64, 1.0, 2.0]).collect();
        tuples[3][0] = f64::NAN;
        (prog, tuples)
    }

    #[test]
    fn k_larger_than_grid_returns_all_cells() {
        let (model, pyramids) = build_inputs(7, 3, 3, 2);
        let r = pyramid_top_k(&model, &pyramids, 100).unwrap();
        assert_eq!(r.results.len(), 9);
    }

    /// The descent's one premise, for any [`Scorer`]: over every region of
    /// level >= 1, the block bound of its children is the per-region bound
    /// of each child, bit for bit and at the same multiply-adds, and no
    /// base cell under a child scores above that child's bound.
    fn check_bound_law<M: Scorer>(scorer: &M, pyramids: &[AggregatePyramid]) {
        let mut kids = Vec::new();
        let mut ub = [f64::NAN; 4];
        let mut x = Vec::new();
        for level in 1..pyramids[0].levels() {
            let (rows, cols) = pyramids[0].level_shape(level);
            for (row, col) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                pyramids[0].children_into(level, row, col, &mut kids);
                let parent = (level, row, col);
                let (n, madds) = scorer.bound_children(level, fresh(pyramids, parent), &mut ub);
                assert_eq!(n, kids.len(), "children of ({level}, {row}, {col})");
                for (kid, &got) in kids.iter().zip(&ub) {
                    let at = (level - 1, kid.row, kid.col);
                    let (want, want_madds) = scorer.bound(pyramids, at).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{at:?}: {got} vs {want}");
                    assert_eq!(madds, want_madds, "{at:?}");
                    for cell in pyramids[0].base_cells(at.0, at.1, at.2) {
                        x.clear();
                        let base = pyramids.iter().map(|p| p.cell(0, cell.row, cell.col));
                        x.extend(base.map(|s| s.unwrap().mean));
                        let score = scorer.model().evaluate(&x);
                        assert!(got >= score, "{at:?} bounds {got} < {score} at {cell:?}");
                    }
                }
            }
        }
    }

    /// A grid of multiples of 1/8 in [-64, 64], with some `-0.0`: every
    /// product with the drawn coefficients and every sum of them is exact,
    /// so the law is checked on the bound's logic, not on rounding.
    pub(crate) fn dyadic_grid(seed: u64, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((r * 8191 + c * 127) as u64)
                .wrapping_mul(2862933555777941757)
                >> 33;
            if h.is_multiple_of(13) {
                -0.0
            } else {
                (h % 1025) as f64 / 8.0 - 64.0
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_block_bound_is_the_per_region_bound_and_sound(
            seed in 0u64..10_000,
            shape in 0usize..4,
            rows in 1usize..41,
            cols in 1usize..41,
            coeffs in proptest::collection::vec(
                proptest::sample::select(vec![0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0, -0.125]),
                1..5,
            ),
            intercept in proptest::sample::select(vec![0.0, -0.0, 4.5, -7.25]),
        ) {
            // One row, one column, or any shape: ragged edges give a parent
            // 1, 2 or 4 children.
            let (rows, cols) = match shape {
                0 => (1, cols),
                1 => (rows, 1),
                _ => (rows, cols),
            };
            let pyramids: Vec<AggregatePyramid> = (0..coeffs.len())
                .map(|i| AggregatePyramid::build(&dyadic_grid(seed + i as u64, rows, cols)))
                .collect();
            let model = LinearModel::new(coeffs, intercept).unwrap();
            check_bound_law(&model, &pyramids);
            // The full-model bound is `bound_over_box`'s `hi`, bit for bit.
            for level in 0..pyramids[0].levels() {
                let (lr, lc) = pyramids[0].level_shape(level);
                for (r, c) in (0..lr).flat_map(|r| (0..lc).map(move |c| (r, c))) {
                    let cells = pyramids.iter().map(|p| p.cell(level, r, c).unwrap());
                    let ranges: Vec<(f64, f64)> = cells.map(|s| (s.min, s.max)).collect();
                    let (_, want) = model.bound_over_box(&ranges).unwrap();
                    let (got, _) = model.bound(&pyramids, (level, r, c)).unwrap();
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "({}, {}, {})", level, r, c);
                }
            }
            let prog = progressive_of(&model, &pyramids);
            let levels = pyramids[0].levels();
            check_bound_law(&Truncated { model: &prog, levels }, &pyramids);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(25))]
        #[test]
        fn prop_all_engines_agree(
            seed in 0u64..300,
            rows in 2usize..20,
            cols in 2usize..20,
            arity in 1usize..5,
            k in 1usize..8,
        ) {
            let (model, pyramids) = build_inputs(seed, rows, cols, arity);
            let prog = progressive_of(&model, &pyramids);
            let naive = naive_grid_top_k(&model, &pyramids, k).unwrap();
            let fast = pyramid_top_k(&model, &pyramids, k).unwrap();
            let both = combined_top_k(&prog, &pyramids, k).unwrap();
            for (a, b) in fast.results.iter().zip(&naive.results) {
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
            for (a, b) in both.results.iter().zip(&naive.results) {
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }
}
