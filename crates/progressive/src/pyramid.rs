//! Aggregate resolution pyramids with sound interval bounds.
//!
//! Progressive model execution needs more than block means: to *prune* a
//! region soundly, the engine must know an interval guaranteed to contain
//! every base-resolution value under a pyramid cell. `AggregatePyramid`
//! answers `(min, max, mean, count)` for every cell, so any model monotone
//! in its attributes gets sound per-region bounds. It stores only what is
//! information: level 0 keeps the 8-byte value (`min = max = mean = v`,
//! `count = 1`), levels >= 1 keep 24-byte `(min, max, mean)`, and `count`
//! — the number of base cells under the cell — is read off the level
//! geometry clipped to the base shape. That is 16 bytes a base cell for
//! the whole pyramid (8 at level 0, 24/3 above).

use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_archive::grid::Grid2;
use std::ops::Range;
use std::sync::Arc;

/// Aggregates of the base-resolution values covered by one pyramid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Minimum covered value.
    pub min: f64,
    /// Maximum covered value.
    pub max: f64,
    /// Mean of covered values.
    pub mean: f64,
    /// Number of base cells covered.
    pub count: u64,
}

impl CellStats {
    /// Aggregates a single value.
    fn of_value(v: f64) -> Self {
        CellStats {
            min: v,
            max: v,
            mean: v,
            count: 1,
        }
    }

    /// Merges two aggregates.
    pub fn merge(&self, other: &CellStats) -> CellStats {
        let count = self.count + other.count;
        CellStats {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            mean: (self.mean * self.count as f64 + other.mean * other.count as f64) / count as f64,
            count,
        }
    }

    /// Width of the value interval.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

/// Level rows per storage chunk (a power of two, so a row resolves to its
/// chunk by shift and mask). A chunk is the unit shared between a pyramid
/// and the pyramids extended from it.
const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;
const CHUNK_SHIFT: u32 = 5;

/// Aggregates stored for a cell of a level >= 1. The count is not stored:
/// it is [`covered`] rows times [`covered`] columns.
#[derive(Debug, Clone, Copy)]
struct Agg {
    min: f64,
    max: f64,
    mean: f64,
}

/// What a level stores per cell, widened to the public [`CellStats`] given
/// the number of base cells the cell covers.
trait Stored: Copy {
    fn stats(self, count: u64) -> CellStats;

    /// `(min, max)` of the covered values.
    fn range(self) -> (f64, f64);
}

impl Stored for f64 {
    /// A base cell: `count` is 1 by geometry.
    #[inline]
    fn stats(self, _count: u64) -> CellStats {
        CellStats::of_value(self)
    }

    #[inline]
    fn range(self) -> (f64, f64) {
        (self, self)
    }
}

impl Stored for Agg {
    #[inline]
    fn stats(self, count: u64) -> CellStats {
        CellStats {
            min: self.min,
            max: self.max,
            mean: self.mean,
            count,
        }
    }

    #[inline]
    fn range(self) -> (f64, f64) {
        (self.min, self.max)
    }
}

/// Base cells along one axis under index `i` of `level`, the last index
/// clipped to the base `extent` (`i` must lie inside the level).
#[inline]
fn covered(level: usize, i: usize, extent: usize) -> u64 {
    (((i + 1) << level).min(extent) - (i << level)) as u64
}

/// One pyramid level: row-major cells in `Arc`-shared chunks of
/// [`CHUNK_ROWS`] rows (the last chunk holds what remains). `T` is `f64`
/// at level 0 and [`Agg`] above.
#[derive(Debug, Clone)]
struct Level<T> {
    rows: usize,
    cols: usize,
    chunks: Vec<Arc<[T]>>,
}

impl<T: Stored> Level<T> {
    fn empty(cols: usize) -> Self {
        Level {
            rows: 0,
            cols,
            chunks: Vec::new(),
        }
    }

    /// The cell at `(row, col)`, `None` outside the level. A row past the
    /// last falls outside the chunk table or past the end of the last
    /// chunk, so only the column needs a check of its own.
    #[inline]
    fn get(&self, row: usize, col: usize) -> Option<T> {
        if col >= self.cols {
            return None;
        }
        self.chunks
            .get(row >> CHUNK_SHIFT)?
            .get((row & (CHUNK_ROWS - 1)) * self.cols + col)
            .copied()
    }

    fn row(&self, row: usize) -> &[T] {
        let start = (row & (CHUNK_ROWS - 1)) * self.cols;
        &self.chunks[row >> CHUNK_SHIFT][start..start + self.cols]
    }

    /// The `(min, max)` of the up-to-2x2 block whose top-left cell is
    /// `(row, col)`, in `(rr, cc)` order, as two row slices; 0 when that
    /// cell lies outside the level.
    #[inline]
    fn block_ranges(&self, row: usize, col: usize, out: &mut [(f64, f64); 4]) -> usize {
        if row >= self.rows || col >= self.cols {
            return 0;
        }
        let wide = col + 1 < self.cols;
        let mut n = 1 + usize::from(wide);
        let top = self.row(row);
        out[0] = top[col].range();
        if wide {
            out[1] = top[col + 1].range();
        }
        if row + 1 < self.rows {
            let below = self.row(row + 1);
            out[n] = below[col].range();
            if wide {
                out[3] = below[col + 1].range();
            }
            n *= 2;
        }
        n
    }

    /// Grows the level to `rows` rows, of which those from `dirty` on come
    /// from `cells(range)` (the cells of a row range, row-major). Chunks
    /// wholly before `dirty` stay as they are — shared with every clone —
    /// and the chunk `dirty` falls in is written anew: its clean rows
    /// copied, the rest generated. Chunks are collected from iterators of
    /// known length, so each is allocated once and written in place.
    fn regrow<I: Iterator<Item = T>>(
        &mut self,
        dirty: usize,
        rows: usize,
        cells: impl Fn(Range<usize>) -> I,
    ) {
        let keep = dirty >> CHUNK_SHIFT;
        let clean = (dirty - keep * CHUNK_ROWS) * self.cols;
        let boundary = (clean > 0).then(|| Arc::clone(&self.chunks[keep]));
        self.chunks.truncate(keep);
        if let Some(old) = boundary {
            let end = rows.min((keep + 1) * CHUNK_ROWS);
            let kept = old[..clean].iter().copied();
            self.chunks.push(kept.chain(cells(dirty..end)).collect());
        }
        for start in (self.chunks.len() * CHUNK_ROWS..rows).step_by(CHUNK_ROWS) {
            let end = rows.min(start + CHUNK_ROWS);
            self.chunks.push(cells(start..end).collect());
        }
        self.rows = rows;
    }

    /// The cells of `rows` of the level above this one (this one being
    /// `level` of a pyramid over a `base`-shaped grid), row-major: each
    /// merges its (up to) 2x2 children in the fixed `(rr, cc)` order every
    /// pyramid is built in, every child weighted by the base cells it
    /// covers.
    fn parents(
        &self,
        level: usize,
        base: (usize, usize),
        rows: Range<usize>,
    ) -> impl Iterator<Item = Agg> + '_ {
        let cols = self.cols.div_ceil(2);
        // The one or two child rows under parent row `r`, each with the
        // base rows it covers.
        let children = move |r: usize| {
            let below = if r * 2 + 1 < self.rows {
                (self.row(r * 2 + 1), covered(level, r * 2 + 1, base.0))
            } else {
                (&[][..], 0)
            };
            ((self.row(r * 2), covered(level, r * 2, base.0)), below)
        };
        let (mut r, mut c) = (rows.start, 0);
        let (mut top, mut below) = children(r);
        (0..rows.len() * cols).map(move |_| {
            if c == cols {
                (r, c) = (r + 1, 0);
                (top, below) = children(r);
            }
            let left = c * 2;
            let wide = left + 1 < self.cols;
            c += 1;
            let child = |(cells, height): (&[T], u64), cc: usize| {
                cells[cc].stats(height * covered(level, cc, base.1))
            };
            // Written out, not folded over a chain of the two rows: the
            // fold builds a 1024x1024 pyramid 1.4 - 1.8x slower.
            let mut merged = child(top, left);
            if wide {
                merged = merged.merge(&child(top, left + 1));
            }
            if !below.0.is_empty() {
                merged = merged.merge(&child(below, left));
                if wide {
                    merged = merged.merge(&child(below, left + 1));
                }
            }
            Agg {
                min: merged.min,
                max: merged.max,
                mean: merged.mean,
            }
        })
    }
}

/// A min/max/mean pyramid over a [`Grid2<f64>`].
///
/// Level 0 is base resolution (stats of single cells); each higher level
/// aggregates 2x2 children (ragged edges aggregate what exists). The
/// top level is always a single cell.
///
/// [`cell`](Self::cell) answers `(min, max, mean, count)` at every level,
/// but level 0 stores only the value and the levels above only `(min,
/// max, mean)`: `count` is the number of base cells under the cell, which
/// the level geometry and the base shape determine — 16 bytes a base cell
/// in all.
///
/// Levels are stored as `Arc`-shared row chunks, so `clone()` copies
/// pointers, not cells, and a clone [extended](Self::extend_rows) by a
/// band shares every chunk the band did not reach with its original.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_progressive::pyramid::AggregatePyramid;
///
/// let pyr = AggregatePyramid::build(&Grid2::from_fn(32, 32, |r, _| r as f64));
/// let root = pyr.root();
/// assert_eq!(root.min, 0.0);
/// assert_eq!(root.max, 31.0);
/// assert_eq!(root.count, 32 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct AggregatePyramid {
    base: Level<f64>,
    /// Levels 1 and up: `upper[l - 1]` is level `l`.
    upper: Vec<Level<Agg>>,
}

impl AggregatePyramid {
    /// Builds the full pyramid (down to 1x1) over `base`.
    pub fn build(base: &Grid2<f64>) -> Self {
        let mut pyramid = AggregatePyramid {
            base: Level::empty(base.cols()),
            upper: Vec::new(),
        };
        pyramid.grow(base);
        pyramid
    }

    /// Extends the pyramid for rows appended at the bottom of the base
    /// grid, recomputing only the dirtied suffix of each level.
    ///
    /// Appending `band` below an `R`-row base dirties base rows
    /// `R..R+band.rows()`; at level `l` the first dirty row follows the
    /// recurrence `dirty_l = dirty_{l-1} / 2` (a parent is dirty exactly
    /// when its child block `2r..2r+2` reaches a dirty row, including the
    /// previously clamped last parent that now covers a second child).
    /// Storage chunks wholly before the dirty frontier are **kept, not
    /// copied** — a pyramid cloned before the call goes on sharing them —
    /// so the call costs what the band costs, not what the archive does.
    /// Only the one chunk per level that the frontier falls in is written
    /// anew, its clean rows copied from the old chunk; rows at or past the
    /// frontier are recomputed with [`build`](Self::build)'s exact fixed
    /// `(rr, cc)` merge order, so the result is bit-identical to a full
    /// rebuild over the extended grid (property-tested). New levels appear
    /// as the pyramid grows taller.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Misaligned`] when the band's width differs from
    /// the base's; [`ArchiveError::EmptyDimension`] for an empty band.
    pub fn extend_rows(&mut self, band: &Grid2<f64>) -> Result<(), ArchiveError> {
        let (_, base_cols) = self.base_shape();
        if band.cols() != base_cols {
            return Err(ArchiveError::Misaligned(format!(
                "band width {} != pyramid width {}",
                band.cols(),
                base_cols
            )));
        }
        if band.rows() == 0 {
            return Err(ArchiveError::EmptyDimension);
        }
        self.grow(band);
        Ok(())
    }

    /// Appends `band` (of the base's width) below the base rows and
    /// re-aggregates every level from its dirty frontier up — the whole of
    /// [`build`](Self::build) when the pyramid is empty.
    fn grow(&mut self, band: &Grid2<f64>) {
        let AggregatePyramid { base, upper } = self;
        let cols = band.cols();
        let mut dirty = base.rows;
        let values = band.as_slice();
        base.regrow(dirty, dirty + band.rows(), |rows| {
            values[(rows.start - dirty) * cols..(rows.end - dirty) * cols]
                .iter()
                .copied()
        });
        let shape = (base.rows, base.cols);
        let mut prev = shape;
        for level in 1.. {
            if prev == (1, 1) {
                break;
            }
            if level > upper.len() {
                upper.push(Level::empty(prev.1.div_ceil(2)));
            }
            dirty /= 2;
            let rows = prev.0.div_ceil(2);
            let (below, above) = upper.split_at_mut(level - 1);
            match below.last() {
                None => above[0].regrow(dirty, rows, |r| base.parents(0, shape, r)),
                Some(under) => above[0].regrow(dirty, rows, |r| under.parents(level - 1, shape, r)),
            }
            prev = (above[0].rows, above[0].cols);
        }
    }

    /// Number of levels; level 0 is base resolution.
    pub fn levels(&self) -> usize {
        1 + self.upper.len()
    }

    /// Base grid shape `(rows, cols)`.
    pub fn base_shape(&self) -> (usize, usize) {
        (self.base.rows, self.base.cols)
    }

    /// Shape of a level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn level_shape(&self, level: usize) -> (usize, usize) {
        match level.checked_sub(1) {
            None => self.base_shape(),
            Some(up) => (self.upper[up].rows, self.upper[up].cols),
        }
    }

    /// Stats of the cell at `(level, row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] outside the level's shape (a
    /// `level` beyond the top is reported against the top level's bounds).
    #[inline]
    pub fn cell(&self, level: usize, row: usize, col: usize) -> Result<CellStats, ArchiveError> {
        let found = match level.checked_sub(1) {
            None => self.base.get(row, col).map(CellStats::of_value),
            Some(up) => {
                let g = self.upper.get(up).ok_or(ArchiveError::OutOfBounds {
                    row: level,
                    col: 0,
                    rows: self.levels(),
                    cols: 1,
                })?;
                let (rows, cols) = self.base_shape();
                g.get(row, col)
                    .map(|s| s.stats(covered(level, row, rows) * covered(level, col, cols)))
            }
        };
        found.ok_or_else(|| {
            let (rows, cols) = self.level_shape(level);
            ArchiveError::OutOfBounds {
                row,
                col,
                rows,
                cols,
            }
        })
    }

    /// Stats of the single top cell.
    pub fn root(&self) -> CellStats {
        self.cell(self.levels() - 1, 0, 0)
            .expect("the top level is one cell")
    }

    /// The children coordinates of `(level, row, col)` at `level - 1`.
    ///
    /// Returns an empty vector at level 0. Descent loops that run once per
    /// popped frontier region should prefer
    /// [`AggregatePyramid::children_into`] with a reused buffer.
    pub fn children(&self, level: usize, row: usize, col: usize) -> Vec<CellCoord> {
        let mut out = Vec::with_capacity(4);
        self.children_into(level, row, col, &mut out);
        out
    }

    /// Writes the children of `(level, row, col)` into `out` (cleared
    /// first) — the allocation-free form of [`AggregatePyramid::children`]
    /// for hot descent loops. `out` is left empty at level 0.
    pub fn children_into(&self, level: usize, row: usize, col: usize, out: &mut Vec<CellCoord>) {
        out.clear();
        if level == 0 || level >= self.levels() {
            return;
        }
        let (rows, cols) = self.level_shape(level - 1);
        for rr in row * 2..(row * 2 + 2).min(rows) {
            for cc in col * 2..(col * 2 + 2).min(cols) {
                out.push(CellCoord::new(rr, cc));
            }
        }
    }

    /// Writes the `(min, max)` of the children of `(level, row, col)` into
    /// `out`, in the `(rr, cc)` order of
    /// [`children_into`](Self::children_into), and returns how many there
    /// are (1, 2 or 4; 0 at level 0 and outside the pyramid). The read
    /// form of a descent that bounds a region's children in one call: one
    /// row slice per child row, no [`CellStats`].
    ///
    /// ```
    /// use mbir_archive::grid::Grid2;
    /// use mbir_progressive::pyramid::AggregatePyramid;
    ///
    /// let pyr = AggregatePyramid::build(&Grid2::from_fn(3, 3, |r, c| (r * 3 + c) as f64));
    /// let mut out = [(0.0, 0.0); 4];
    /// assert_eq!(pyr.child_ranges(1, 1, 0, &mut out), 2);
    /// assert_eq!(out[..2], [(6.0, 6.0), (7.0, 7.0)]);
    /// assert_eq!(pyr.child_ranges(0, 0, 0, &mut out), 0);
    /// ```
    #[inline]
    pub fn child_ranges(
        &self,
        level: usize,
        row: usize,
        col: usize,
        out: &mut [(f64, f64); 4],
    ) -> usize {
        if level == 0 || level >= self.levels() {
            return 0;
        }
        let (row, col) = (row.saturating_mul(2), col.saturating_mul(2));
        match level - 1 {
            0 => self.base.block_ranges(row, col, out),
            up => self.upper[up - 1].block_ranges(row, col, out),
        }
    }

    /// The base-resolution cells covered by `(level, row, col)`.
    pub fn base_cells(&self, level: usize, row: usize, col: usize) -> Vec<CellCoord> {
        let mut out = Vec::new();
        self.base_cells_into(level, row, col, &mut out);
        out
    }

    /// Writes the base cells covered by `(level, row, col)` into `out`
    /// (cleared first) — the allocation-free form of
    /// [`AggregatePyramid::base_cells`]. `out` is left empty for a level the
    /// pyramid does not have.
    fn base_cells_into(&self, level: usize, row: usize, col: usize, out: &mut Vec<CellCoord>) {
        out.clear();
        if level >= self.levels() {
            return;
        }
        let scale = 1usize << level;
        let (rows, cols) = self.base_shape();
        for rr in row * scale..((row + 1) * scale).min(rows) {
            for cc in col * scale..((col + 1) * scale).min(cols) {
                out.push(CellCoord::new(rr, cc));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn root_covers_everything() {
        let g = Grid2::from_fn(10, 14, |r, c| (r * 14 + c) as f64);
        let pyr = AggregatePyramid::build(&g);
        let root = pyr.root();
        assert_eq!(root.min, 0.0);
        assert_eq!(root.max, 139.0);
        assert_eq!(root.count, 140);
        assert!((root.mean - g.mean()).abs() < 1e-9);
    }

    #[test]
    fn level0_is_base() {
        let g = Grid2::from_fn(3, 3, |r, c| (r + c) as f64);
        let pyr = AggregatePyramid::build(&g);
        let s = pyr.cell(0, 2, 1).unwrap();
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn level0_answers_the_stored_value_bit_for_bit() {
        let nan = f64::from_bits(0xfff8_0000_dead_beef);
        let values = [-0.0, 0.0, nan, f64::MIN_POSITIVE / 4.0, f64::NEG_INFINITY];
        let pyr = AggregatePyramid::build(&Grid2::from_fn(1, values.len(), |_, c| values[c]));
        for (c, v) in values.iter().enumerate() {
            let s = pyr.cell(0, 0, c).unwrap();
            for answered in [s.min, s.max, s.mean] {
                assert_eq!(answered.to_bits(), v.to_bits(), "column {c}");
            }
            assert_eq!(s.count, 1);
        }
    }

    #[test]
    fn counts_follow_the_base_shape_through_ragged_extensions() {
        let mut rows = 5;
        let mut pyr = AggregatePyramid::build(&Grid2::filled(rows, 11, 1.0));
        for band_rows in [1, CHUNK_ROWS + 3, 2, 7] {
            pyr.extend_rows(&Grid2::filled(band_rows, 11, 1.0)).unwrap();
            rows += band_rows;
            for level in 0..pyr.levels() {
                let (lr, lc) = pyr.level_shape(level);
                for r in 0..lr {
                    for c in 0..lc {
                        let count = pyr.cell(level, r, c).unwrap().count as usize;
                        let covered = pyr.base_cells(level, r, c).len();
                        assert_eq!(count, covered, "{rows} rows, level {level} ({r},{c})");
                    }
                }
            }
            assert_eq!(pyr.root().count as usize, rows * 11);
        }
    }

    #[test]
    fn children_partition_parent() {
        let g = Grid2::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let pyr = AggregatePyramid::build(&g);
        for level in 1..pyr.levels() {
            let (rows, cols) = pyr.level_shape(level);
            for r in 0..rows {
                for c in 0..cols {
                    let parent = pyr.cell(level, r, c).unwrap();
                    let kids = pyr.children(level, r, c);
                    assert!(!kids.is_empty());
                    let merged = kids
                        .iter()
                        .map(|k| pyr.cell(level - 1, k.row, k.col).unwrap())
                        .reduce(|a, b| a.merge(&b))
                        .unwrap();
                    assert_eq!(parent.count, merged.count);
                    assert_eq!(parent.min, merged.min);
                    assert_eq!(parent.max, merged.max);
                    assert!((parent.mean - merged.mean).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn base_cells_match_count() {
        let g = Grid2::from_fn(7, 9, |r, c| (r * c) as f64);
        let pyr = AggregatePyramid::build(&g);
        for level in 0..pyr.levels() {
            let (rows, cols) = pyr.level_shape(level);
            for r in 0..rows {
                for c in 0..cols {
                    let s = pyr.cell(level, r, c).unwrap();
                    let cells = pyr.base_cells(level, r, c);
                    assert_eq!(s.count as usize, cells.len(), "level {level} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_errors() {
        let pyr = AggregatePyramid::build(&Grid2::filled(4, 4, 1.0));
        assert!(pyr.cell(0, 4, 0).is_err());
        assert!(pyr.cell(99, 0, 0).is_err());
    }

    #[test]
    fn into_variants_agree_with_allocating_forms() {
        // Odd shape exercises clamped 2x2 blocks and ragged base coverage;
        // the reused buffer must also be fully cleared between calls.
        let pyr = AggregatePyramid::build(&Grid2::from_fn(7, 5, |r, c| (r * 5 + c) as f64));
        let mut buf = vec![CellCoord::new(999, 999); 3];
        for level in 0..pyr.levels() {
            let (lr, lc) = pyr.level_shape(level);
            for r in 0..lr {
                for c in 0..lc {
                    pyr.children_into(level, r, c, &mut buf);
                    assert_eq!(buf, pyr.children(level, r, c), "children {level} ({r},{c})");
                    pyr.base_cells_into(level, r, c, &mut buf);
                    assert_eq!(buf, pyr.base_cells(level, r, c), "base {level} ({r},{c})");
                }
            }
        }
        // Beyond-top levels yield no children in either form.
        pyr.children_into(99, 0, 0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(pyr.children(99, 0, 0), Vec::<CellCoord>::new());
    }

    #[test]
    fn child_ranges_are_the_children_cells_in_order() {
        let pyr = AggregatePyramid::build(&Grid2::from_fn(5, 7, |r, c| {
            ((r * 7 + c) * 37 % 23) as f64 - 9.5
        }));
        let mut kids = Vec::new();
        let mut out = [(f64::NAN, f64::NAN); 4];
        for level in 0..pyr.levels() {
            let (lr, lc) = pyr.level_shape(level);
            // One row and one column past the level: no children there.
            for r in 0..=lr {
                for c in 0..=lc {
                    pyr.children_into(level, r, c, &mut kids);
                    let n = pyr.child_ranges(level, r, c, &mut out);
                    assert_eq!(n, kids.len(), "level {level} ({r},{c})");
                    for (got, kid) in out.iter().zip(&kids) {
                        let s = pyr.cell(level - 1, kid.row, kid.col).unwrap();
                        let want = (s.min.to_bits(), s.max.to_bits());
                        assert_eq!((got.0.to_bits(), got.1.to_bits()), want, "{level} {kid:?}");
                    }
                }
            }
        }
        assert_eq!(pyr.child_ranges(1, usize::MAX, 0, &mut out), 0);
    }

    #[test]
    fn levels_the_pyramid_does_not_have_cover_nothing() {
        let pyr = AggregatePyramid::build(&Grid2::filled(6, 9, 1.0));
        let mut buf = vec![CellCoord::new(7, 7)];
        let mut out = [(0.0, 0.0); 4];
        for level in [pyr.levels(), pyr.levels() + 3, 99] {
            pyr.base_cells_into(level, 0, 0, &mut buf);
            assert!(buf.is_empty(), "base cells at level {level}");
            assert!(pyr.base_cells(level, 0, 0).is_empty());
            assert!(pyr.children(level, 0, 0).is_empty());
            assert_eq!(pyr.child_ranges(level, 0, 0, &mut out), 0);
            assert!(pyr.cell(level, 0, 0).is_err());
        }
        // The top level is the last one that covers anything.
        let top = pyr.levels() - 1;
        assert_eq!(pyr.base_cells(top, 0, 0).len(), 6 * 9);
    }

    fn stats_eq(a: &AggregatePyramid, b: &AggregatePyramid) -> bool {
        if a.levels() != b.levels() {
            return false;
        }
        for l in 0..a.levels() {
            let (r, c) = a.level_shape(l);
            if b.level_shape(l) != (r, c) {
                return false;
            }
            for rr in 0..r {
                for cc in 0..c {
                    let x = a.cell(l, rr, cc).unwrap();
                    let y = b.cell(l, rr, cc).unwrap();
                    // Bit-identity, not approximate equality.
                    if x.min.to_bits() != y.min.to_bits()
                        || x.max.to_bits() != y.max.to_bits()
                        || x.mean.to_bits() != y.mean.to_bits()
                        || x.count != y.count
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[test]
    fn extend_rows_matches_full_rebuild_bit_for_bit() {
        let cell = |r: usize, c: usize| ((r * 131 + c * 17) % 97) as f64 * 0.375 - 11.0;
        for (base_rows, band_rows, cols) in [(4, 2, 6), (5, 3, 7), (1, 1, 1), (8, 8, 3), (2, 6, 16)]
        {
            let base = Grid2::from_fn(base_rows, cols, cell);
            let band = Grid2::from_fn(band_rows, cols, |r, c| cell(base_rows + r, c));
            let full = AggregatePyramid::build(&Grid2::from_fn(base_rows + band_rows, cols, cell));
            let mut incr = AggregatePyramid::build(&base);
            incr.extend_rows(&band).unwrap();
            assert!(
                stats_eq(&incr, &full),
                "({base_rows}+{band_rows})x{cols} diverged from rebuild"
            );
        }
    }

    #[test]
    fn extend_rows_validates_band() {
        let mut pyr = AggregatePyramid::build(&Grid2::filled(4, 4, 1.0));
        assert!(pyr.extend_rows(&Grid2::filled(2, 3, 1.0)).is_err());
        assert_eq!(pyr.base_shape(), (4, 4), "failed extend left it intact");
    }

    #[test]
    fn extended_clone_shares_every_chunk_before_the_frontier() {
        let cell = |r: usize, c: usize| (r * 7 + c) as f64;
        // A frontier inside a chunk, then one on a chunk boundary (where
        // the extension shares *all* of the original's level-0 chunks).
        for rows in [3 * CHUNK_ROWS + 5, 4 * CHUNK_ROWS] {
            let old = AggregatePyramid::build(&Grid2::from_fn(rows, 9, cell));
            let mut new = old.clone();
            new.extend_rows(&Grid2::from_fn(CHUNK_ROWS, 9, |r, c| cell(rows + r, c)))
                .unwrap();
            // Per level, which of the original's chunks the extension shares.
            fn shared<T>(a: &Level<T>, b: &Level<T>) -> Vec<bool> {
                let pairs = a.chunks.iter().zip(&b.chunks);
                pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect()
            }
            let uppers = old.upper.iter().zip(&new.upper);
            let levels = std::iter::once(shared(&old.base, &new.base))
                .chain(uppers.map(|(a, b)| shared(a, b)));
            for (level, shared) in levels.enumerate() {
                let clean = (rows >> level) >> CHUNK_SHIFT;
                for (k, same) in shared.into_iter().enumerate() {
                    assert_eq!(same, k < clean, "{rows} rows, level {level}, chunk {k}");
                }
            }
            assert_eq!(Arc::strong_count(&old.base.chunks[0]), 2);
            let shared_level0 = if rows % CHUNK_ROWS == 0 { 4 } else { 3 };
            let level0 = old.base.chunks.iter().zip(&new.base.chunks);
            assert_eq!(
                level0.filter(|(a, b)| Arc::ptr_eq(a, b)).count(),
                shared_level0
            );
        }
    }

    proptest! {
        #[test]
        fn prop_extend_rows_is_rebuild(
            base_rows in 1usize..24,
            bands in proptest::collection::vec(1usize..(CHUNK_ROWS + 12), 3..6),
            cols in 1usize..24,
            seed in 0u64..500,
        ) {
            let cell = |r: usize, c: usize| {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * 53 + c) as u64);
                (h % 1000) as f64 - 500.0
            };
            // A chain of extensions, a clone held across each: every step
            // equals a rebuild of its prefix, and extending never changes
            // the clone it started from.
            let mut rows = base_rows;
            let mut incr = AggregatePyramid::build(&Grid2::from_fn(rows, cols, cell));
            let mut held = Vec::new();
            for band_rows in bands {
                held.push((rows, incr.clone()));
                incr.extend_rows(&Grid2::from_fn(band_rows, cols, |r, c| cell(rows + r, c)))
                    .unwrap();
                rows += band_rows;
                let full = AggregatePyramid::build(&Grid2::from_fn(rows, cols, cell));
                prop_assert!(stats_eq(&incr, &full));
            }
            for (rows, clone) in held {
                let full = AggregatePyramid::build(&Grid2::from_fn(rows, cols, cell));
                prop_assert!(stats_eq(&clone, &full), "clone of {} rows changed", rows);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bounds_are_sound(
            rows in 1usize..20,
            cols in 1usize..20,
            seed in 0u64..1000,
        ) {
            // Pseudo-random but deterministic grid from the seed.
            let g = Grid2::from_fn(rows, cols, |r, c| {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((r * 31 + c) as u64);
                (h % 1000) as f64 - 500.0
            });
            let pyr = AggregatePyramid::build(&g);
            for level in 0..pyr.levels() {
                let (lr, lc) = pyr.level_shape(level);
                for r in 0..lr {
                    for c in 0..lc {
                        let s = pyr.cell(level, r, c).unwrap();
                        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
                        for cell in pyr.base_cells(level, r, c) {
                            let v = *g.at(cell.row, cell.col);
                            prop_assert!(v >= s.min && v <= s.max);
                        }
                    }
                }
            }
        }
    }
}
