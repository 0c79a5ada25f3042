//! Row-band shard planning: deterministic, tile-aligned partitioning of a
//! grid archive into contiguous row bands, one per shard.
//!
//! The plan is pure geometry — it owns no data. The retrieval layer builds
//! per-band pyramids and stores from it (one independent failure domain
//! per band), and [`ShardPlan::shard_of_row`] routes any global row back
//! to its shard. Bands are aligned to whole tile rows so that a page of
//! the original tiling never straddles two shards: a lost page stays a
//! single-shard fault.

use crate::error::ArchiveError;
use crate::extent::CellCoord;
use crate::grid::Grid2;
use std::fmt;

/// Monotonic version stamp for a shard topology.
///
/// Every [`ShardPlan`] that can serve live traffic is wrapped in an
/// [`EpochedShardPlan`] carrying one of these; queries pin the epoch they
/// were planned against and the routing layer rejects a mismatch with a
/// typed error instead of silently answering from a different topology.
/// Epochs only ever move forward — a rolled-back migration keeps the
/// source epoch rather than reusing the aborted destination stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TopologyEpoch(u64);

impl TopologyEpoch {
    /// The first epoch of a freshly planned archive.
    pub const ZERO: TopologyEpoch = TopologyEpoch(0);

    /// An epoch with an explicit counter value.
    pub fn new(value: u64) -> Self {
        TopologyEpoch(value)
    }

    /// The raw counter value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The next epoch in sequence.
    pub fn next(self) -> Self {
        TopologyEpoch(self.0 + 1)
    }
}

impl fmt::Display for TopologyEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One contiguous row band of a [`ShardPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBand {
    /// Shard index, in band order from row 0.
    pub shard: usize,
    /// First global row of the band.
    pub row_offset: usize,
    /// Band height in rows.
    pub rows: usize,
}

impl ShardBand {
    /// One past the band's last global row.
    pub fn row_end(&self) -> usize {
        self.row_offset + self.rows
    }
}

/// A deterministic partition of `rows × cols` cells into contiguous,
/// tile-aligned row bands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bands: Vec<ShardBand>,
    rows: usize,
    cols: usize,
    tile: usize,
}

impl ShardPlan {
    /// Plans `shards` contiguous row bands over a `rows × cols` grid
    /// tiled with `tile × tile` pages. Whole tile rows are distributed as
    /// evenly as possible (earlier shards get the remainder), so every
    /// band is page-aligned and the same inputs always produce the same
    /// plan.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::EmptyDimension`] when `rows`, `cols`, `tile`, or
    /// `shards` is zero; [`ArchiveError::Misaligned`] when the grid has
    /// fewer tile rows than shards (some shard would own no rows).
    pub fn row_bands(
        rows: usize,
        cols: usize,
        shards: usize,
        tile: usize,
    ) -> Result<Self, ArchiveError> {
        if rows == 0 || cols == 0 || tile == 0 || shards == 0 {
            return Err(ArchiveError::EmptyDimension);
        }
        let tile_rows = rows.div_ceil(tile);
        if shards > tile_rows {
            return Err(ArchiveError::Misaligned(format!(
                "cannot split {tile_rows} tile rows ({rows} rows at tile {tile}) into {shards} shards"
            )));
        }
        let per = tile_rows / shards;
        let extra = tile_rows % shards;
        let mut bands = Vec::with_capacity(shards);
        let mut row = 0usize;
        for shard in 0..shards {
            let band_tile_rows = per + usize::from(shard < extra);
            let band_rows = (band_tile_rows * tile).min(rows - row);
            bands.push(ShardBand {
                shard,
                row_offset: row,
                rows: band_rows,
            });
            row += band_rows;
        }
        debug_assert_eq!(row, rows);
        Ok(ShardPlan {
            bands,
            rows,
            cols,
            tile,
        })
    }

    /// The planned bands, in order from row 0.
    pub fn bands(&self) -> &[ShardBand] {
        &self.bands
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.bands.len()
    }

    /// The planned global shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Tile size the bands are aligned to.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// The shard owning a global row, or `None` outside the grid.
    pub fn shard_of_row(&self, row: usize) -> Option<usize> {
        if row >= self.rows {
            return None;
        }
        // Bands are contiguous and sorted; binary search on the offset.
        let i = self
            .bands
            .partition_point(|b| b.row_offset <= row)
            .saturating_sub(1);
        Some(self.bands[i].shard)
    }

    /// Copies one shard's row band out of a full grid. Returns `None`
    /// when the grid's shape differs from the planned shape or the shard
    /// index is out of range.
    pub fn extract_band<T: Clone>(&self, grid: &Grid2<T>, shard: usize) -> Option<Grid2<T>> {
        if grid.rows() != self.rows || grid.cols() != self.cols {
            return None;
        }
        let band = self.bands.get(shard)?;
        grid.window(CellCoord::new(band.row_offset, 0), band.rows, self.cols)
    }

    /// Builds a plan from explicit per-band heights, in rows. Bands are
    /// laid out contiguously from row 0 in the given order; `rows` is the
    /// sum of the heights. This is the constructor behind the topology
    /// transforms ([`split_band`](Self::split_band),
    /// [`merge_bands`](Self::merge_bands),
    /// [`move_tile_rows`](Self::move_tile_rows)).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::EmptyDimension`] when `cols`, `tile`, the band
    /// list, or any band height is zero; [`ArchiveError::Misaligned`]
    /// when an interior band break does not land on a tile boundary.
    pub fn from_band_rows(
        heights: &[usize],
        cols: usize,
        tile: usize,
    ) -> Result<Self, ArchiveError> {
        if cols == 0 || tile == 0 || heights.is_empty() || heights.contains(&0) {
            return Err(ArchiveError::EmptyDimension);
        }
        let mut bands = Vec::with_capacity(heights.len());
        let mut row = 0usize;
        for (shard, &h) in heights.iter().enumerate() {
            if shard + 1 < heights.len() && h % tile != 0 {
                return Err(ArchiveError::Misaligned(format!(
                    "band {shard} height {h} is not a multiple of tile {tile}"
                )));
            }
            bands.push(ShardBand {
                shard,
                row_offset: row,
                rows: h,
            });
            row += h;
        }
        Ok(ShardPlan {
            bands,
            rows: row,
            cols,
            tile,
        })
    }

    /// Per-band heights in rows, in band order.
    pub fn band_rows(&self) -> Vec<usize> {
        self.bands.iter().map(|b| b.rows).collect()
    }

    /// Splits band `shard` into two bands at the midpoint of its tile
    /// rows (the first half gets the remainder). Later bands shift up by
    /// one shard index; no data moves outside the split band's rows.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Misaligned`] when `shard` is out of range or the
    /// band spans fewer than two tile rows (nothing to split).
    pub fn split_band(&self, shard: usize) -> Result<Self, ArchiveError> {
        let band = self.bands.get(shard).ok_or_else(|| {
            ArchiveError::Misaligned(format!(
                "split: shard {shard} out of range ({} bands)",
                self.bands.len()
            ))
        })?;
        let tile_rows = band.rows.div_ceil(self.tile);
        if tile_rows < 2 {
            return Err(ArchiveError::Misaligned(format!(
                "split: band {shard} spans a single tile row"
            )));
        }
        let first = tile_rows.div_ceil(2) * self.tile;
        let mut heights = self.band_rows();
        heights[shard] = first;
        heights.insert(shard + 1, band.rows - first);
        ShardPlan::from_band_rows(&heights, self.cols, self.tile)
    }

    /// Merges band `shard` with band `shard + 1` into one band. Later
    /// bands shift down by one shard index.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Misaligned`] when `shard + 1` is out of range.
    pub fn merge_bands(&self, shard: usize) -> Result<Self, ArchiveError> {
        if shard + 1 >= self.bands.len() {
            return Err(ArchiveError::Misaligned(format!(
                "merge: shards {shard}+{} out of range ({} bands)",
                shard + 1,
                self.bands.len()
            )));
        }
        let mut heights = self.band_rows();
        let absorbed = heights.remove(shard + 1);
        heights[shard] += absorbed;
        ShardPlan::from_band_rows(&heights, self.cols, self.tile)
    }

    /// Moves `tile_rows` whole tile rows from the end of band `shard` to
    /// the start of band `shard + 1` (a boundary rebalance). Both bands
    /// must keep at least one tile row.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Misaligned`] when `shard + 1` is out of range,
    /// `tile_rows` is zero, or the donor band would be left empty.
    pub fn move_tile_rows(&self, shard: usize, tile_rows: usize) -> Result<Self, ArchiveError> {
        if shard + 1 >= self.bands.len() {
            return Err(ArchiveError::Misaligned(format!(
                "move: shards {shard}+{} out of range ({} bands)",
                shard + 1,
                self.bands.len()
            )));
        }
        let donor_tile_rows = self.bands[shard].rows.div_ceil(self.tile);
        if tile_rows == 0 || tile_rows >= donor_tile_rows {
            return Err(ArchiveError::Misaligned(format!(
                "move: cannot take {tile_rows} of {donor_tile_rows} tile rows from shard {shard}"
            )));
        }
        let moved = tile_rows * self.tile;
        let mut heights = self.band_rows();
        heights[shard] -= moved;
        heights[shard + 1] += moved;
        ShardPlan::from_band_rows(&heights, self.cols, self.tile)
    }

    /// Maps the global row range `[row_offset, row_offset + rows)` onto
    /// the plan's bands: one [`BandSlice`] per overlapped band, in row
    /// order. This is how a migration copy engine locates a destination
    /// band's rows inside the source topology.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::OutOfBounds`] when the range is empty or extends
    /// past the planned rows.
    pub fn band_slices(
        &self,
        row_offset: usize,
        rows: usize,
    ) -> Result<Vec<BandSlice>, ArchiveError> {
        let end = row_offset + rows;
        if rows == 0 || end > self.rows {
            return Err(ArchiveError::OutOfBounds {
                row: end.saturating_sub(1),
                col: 0,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut slices = Vec::new();
        for band in &self.bands {
            let lo = band.row_offset.max(row_offset);
            let hi = band.row_end().min(end);
            if lo < hi {
                slices.push(BandSlice {
                    shard: band.shard,
                    local_row: lo - band.row_offset,
                    rows: hi - lo,
                    global_row: lo,
                });
            }
        }
        Ok(slices)
    }
}

/// The intersection of a global row range with one band of a
/// [`ShardPlan`], produced by [`ShardPlan::band_slices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandSlice {
    /// Band (shard index) owning the slice.
    pub shard: usize,
    /// First row of the slice, relative to the band's own row 0.
    pub local_row: usize,
    /// Slice height in rows.
    pub rows: usize,
    /// First row of the slice in global coordinates.
    pub global_row: usize,
}

/// A [`ShardPlan`] stamped with the [`TopologyEpoch`] it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochedShardPlan {
    plan: ShardPlan,
    epoch: TopologyEpoch,
}

impl EpochedShardPlan {
    /// Wraps the first plan of an archive at [`TopologyEpoch::ZERO`].
    pub fn initial(plan: ShardPlan) -> Self {
        EpochedShardPlan {
            plan,
            epoch: TopologyEpoch::ZERO,
        }
    }

    /// Stamps `plan` as this plan's successor topology (epoch + 1).
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Misaligned`] when the successor disagrees on grid
    /// shape or tile size — a topology change never reshapes the data.
    pub fn successor(&self, plan: ShardPlan) -> Result<Self, ArchiveError> {
        if plan.shape() != self.plan.shape() || plan.tile_size() != self.plan.tile_size() {
            return Err(ArchiveError::Misaligned(format!(
                "successor plan shape {:?}/tile {} differs from {:?}/tile {}",
                plan.shape(),
                plan.tile_size(),
                self.plan.shape(),
                self.plan.tile_size(),
            )));
        }
        Ok(EpochedShardPlan {
            plan,
            epoch: self.epoch.next(),
        })
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The epoch this plan serves.
    pub fn epoch(&self) -> TopologyEpoch {
        self.epoch
    }
}

/// One connected component of a topology change: the set of source bands
/// and destination bands covering the same contiguous row range, where
/// the two plans disagree. Produced by [`plan_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandGroup {
    /// Source-plan band indices in the group, in row order.
    pub source_bands: Vec<usize>,
    /// Destination-plan band indices in the group, in row order.
    pub dest_bands: Vec<usize>,
    /// First global row of the group's range.
    pub row_offset: usize,
    /// Height of the group's range in rows.
    pub rows: usize,
}

impl BandGroup {
    /// One past the group's last global row.
    pub fn row_end(&self) -> usize {
        self.row_offset + self.rows
    }
}

/// The difference between two shard plans over the same grid: which
/// destination bands carry over unchanged from a source band, and which
/// row ranges must migrate. Produced by [`plan_diff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDiff {
    /// `(dest_band, source_band)` pairs with identical row geometry — the
    /// destination band reuses the source band's data verbatim.
    pub carried_over: Vec<(usize, usize)>,
    /// Migration groups, in row order. Within each group the union of
    /// source band rows equals the union of destination band rows.
    pub groups: Vec<BandGroup>,
}

impl PlanDiff {
    /// Destination band indices that need their data migrated.
    pub fn migrating_dest_bands(&self) -> Vec<usize> {
        self.groups
            .iter()
            .flat_map(|g| g.dest_bands.iter().copied())
            .collect()
    }

    /// Source band indices whose rows are being migrated (their data is
    /// retired from the source owner once the change completes).
    pub fn migrating_source_bands(&self) -> Vec<usize> {
        self.groups
            .iter()
            .flat_map(|g| g.source_bands.iter().copied())
            .collect()
    }
}

/// Computes the [`PlanDiff`] between two plans over the same grid.
///
/// Destination bands whose `(row_offset, rows)` geometry also exists in
/// the source plan are carried over; the remaining bands are grouped into
/// connected components of row overlap between migrating source and
/// destination bands. Because both plans tile the same rows and carried
/// bands match exactly, each group's source rows and destination rows
/// cover the same range — the invariant the dual-read merge relies on.
///
/// # Errors
///
/// [`ArchiveError::Misaligned`] when the plans disagree on grid shape or
/// tile size.
pub fn plan_diff(from: &ShardPlan, to: &ShardPlan) -> Result<PlanDiff, ArchiveError> {
    if from.shape() != to.shape() || from.tile_size() != to.tile_size() {
        return Err(ArchiveError::Misaligned(format!(
            "plan_diff: shape {:?}/tile {} vs {:?}/tile {}",
            from.shape(),
            from.tile_size(),
            to.shape(),
            to.tile_size(),
        )));
    }
    let mut carried_over = Vec::new();
    let mut dest_stable = vec![false; to.shard_count()];
    let mut source_stable = vec![false; from.shard_count()];
    for (d, dband) in to.bands().iter().enumerate() {
        for (s, sband) in from.bands().iter().enumerate() {
            if dband.row_offset == sband.row_offset && dband.rows == sband.rows {
                carried_over.push((d, s));
                dest_stable[d] = true;
                source_stable[s] = true;
                break;
            }
        }
    }
    // Connected components of row overlap between the migrating bands of
    // both plans. Bands are in row order on each side, so a sweep with a
    // running range end is enough: a new band joins the open group when
    // it starts before the group's current end.
    #[derive(Clone, Copy)]
    struct Mig {
        band: usize,
        start: usize,
        end: usize,
        dest: bool,
    }
    let mut migs: Vec<Mig> = Vec::new();
    for (s, band) in from.bands().iter().enumerate() {
        if !source_stable[s] {
            migs.push(Mig {
                band: s,
                start: band.row_offset,
                end: band.row_end(),
                dest: false,
            });
        }
    }
    for (d, band) in to.bands().iter().enumerate() {
        if !dest_stable[d] {
            migs.push(Mig {
                band: d,
                start: band.row_offset,
                end: band.row_end(),
                dest: true,
            });
        }
    }
    migs.sort_by_key(|m| (m.start, m.end, m.dest));
    let mut groups: Vec<BandGroup> = Vec::new();
    let mut open: Option<(BandGroup, usize)> = None;
    for m in migs {
        match open.as_mut() {
            Some((group, end)) if m.start < *end => {
                *end = (*end).max(m.end);
                group.rows = *end - group.row_offset;
                if m.dest {
                    group.dest_bands.push(m.band);
                } else {
                    group.source_bands.push(m.band);
                }
            }
            _ => {
                if let Some((group, _)) = open.take() {
                    groups.push(group);
                }
                let mut group = BandGroup {
                    source_bands: Vec::new(),
                    dest_bands: Vec::new(),
                    row_offset: m.start,
                    rows: m.end - m.start,
                };
                if m.dest {
                    group.dest_bands.push(m.band);
                } else {
                    group.source_bands.push(m.band);
                }
                open = Some((group, m.end));
            }
        }
    }
    if let Some((group, _)) = open.take() {
        groups.push(group);
    }
    debug_assert!(groups
        .iter()
        .all(|g| !g.source_bands.is_empty() && !g.dest_bands.is_empty()));
    Ok(PlanDiff {
        carried_over,
        groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_tile_the_grid_contiguously() {
        for (rows, shards, tile) in [(64, 4, 4), (64, 16, 4), (48, 3, 8), (100, 7, 4), (8, 1, 8)] {
            let plan = ShardPlan::row_bands(rows, 32, shards, tile).unwrap();
            assert_eq!(plan.shard_count(), shards);
            let mut next = 0usize;
            for (i, band) in plan.bands().iter().enumerate() {
                assert_eq!(band.shard, i);
                assert_eq!(band.row_offset, next, "rows={rows} shards={shards}");
                assert!(band.rows > 0, "every shard owns rows");
                // All but the last band end on a tile boundary.
                if i + 1 < shards {
                    assert_eq!(band.row_end() % tile, 0, "page-aligned band break");
                }
                next = band.row_end();
            }
            assert_eq!(next, rows, "bands cover every row");
        }
    }

    #[test]
    fn row_routing_matches_the_bands() {
        let plan = ShardPlan::row_bands(100, 16, 7, 4).unwrap();
        for band in plan.bands() {
            for row in band.row_offset..band.row_end() {
                assert_eq!(plan.shard_of_row(row), Some(band.shard), "row {row}");
            }
        }
        assert_eq!(plan.shard_of_row(100), None);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        assert!(matches!(
            ShardPlan::row_bands(0, 8, 2, 4),
            Err(ArchiveError::EmptyDimension)
        ));
        assert!(matches!(
            ShardPlan::row_bands(8, 0, 2, 4),
            Err(ArchiveError::EmptyDimension)
        ));
        assert!(matches!(
            ShardPlan::row_bands(8, 8, 0, 4),
            Err(ArchiveError::EmptyDimension)
        ));
        assert!(matches!(
            ShardPlan::row_bands(8, 8, 2, 0),
            Err(ArchiveError::EmptyDimension)
        ));
        // 8 rows at tile 4 = 2 tile rows; 3 shards cannot all own rows.
        assert!(matches!(
            ShardPlan::row_bands(8, 8, 3, 4),
            Err(ArchiveError::Misaligned(_))
        ));
    }

    #[test]
    fn extract_band_windows_the_grid() {
        let grid = Grid2::from_fn(12, 5, |r, c| (r * 5 + c) as f64);
        let plan = ShardPlan::row_bands(12, 5, 3, 2).unwrap();
        let mut reassembled = Vec::new();
        for shard in 0..3 {
            let band = plan.extract_band(&grid, shard).unwrap();
            assert_eq!(band.rows(), plan.bands()[shard].rows);
            assert_eq!(band.cols(), 5);
            for r in 0..band.rows() {
                for c in 0..5 {
                    reassembled.push(*band.at(r, c));
                }
            }
        }
        let flat: Vec<f64> = (0..60).map(|i| i as f64).collect();
        assert_eq!(reassembled, flat, "bands reassemble the original grid");
        assert!(plan.extract_band(&grid, 3).is_none());
        let wrong_shape = Grid2::filled(4, 4, 0.0f64);
        assert!(plan.extract_band(&wrong_shape, 0).is_none());
    }

    #[test]
    fn ragged_last_tile_row_stays_in_bounds() {
        // 10 rows, tile 4 → tile rows of 4, 4, 2; 3 shards get 4/4/2.
        let plan = ShardPlan::row_bands(10, 6, 3, 4).unwrap();
        let rows: Vec<usize> = plan.bands().iter().map(|b| b.rows).collect();
        assert_eq!(rows, vec![4, 4, 2]);
        assert_eq!(plan.bands()[2].row_end(), 10);
    }

    fn assert_tiles_grid(plan: &ShardPlan, rows: usize) {
        let mut next = 0usize;
        for (i, band) in plan.bands().iter().enumerate() {
            assert_eq!(band.shard, i);
            assert_eq!(band.row_offset, next);
            assert!(band.rows > 0);
            if i + 1 < plan.shard_count() {
                assert_eq!(band.row_end() % plan.tile_size(), 0);
            }
            next = band.row_end();
        }
        assert_eq!(next, rows);
    }

    #[test]
    fn split_merge_move_keep_plans_valid() {
        let plan = ShardPlan::row_bands(64, 16, 4, 4).unwrap();
        let split = plan.split_band(1).unwrap();
        assert_eq!(split.shard_count(), 5);
        assert_eq!(split.band_rows(), vec![16, 8, 8, 16, 16]);
        assert_tiles_grid(&split, 64);

        let merged = plan.merge_bands(2).unwrap();
        assert_eq!(merged.shard_count(), 3);
        assert_eq!(merged.band_rows(), vec![16, 16, 32]);
        assert_tiles_grid(&merged, 64);

        let moved = plan.move_tile_rows(0, 2).unwrap();
        assert_eq!(moved.band_rows(), vec![8, 24, 16, 16]);
        assert_tiles_grid(&moved, 64);

        // Ragged last band splits on tile boundaries only.
        let ragged = ShardPlan::row_bands(10, 6, 1, 4).unwrap();
        let halves = ragged.split_band(0).unwrap();
        assert_eq!(halves.band_rows(), vec![8, 2]);
        assert_tiles_grid(&halves, 10);

        assert!(matches!(
            plan.split_band(9),
            Err(ArchiveError::Misaligned(_))
        ));
        assert!(matches!(
            plan.merge_bands(3),
            Err(ArchiveError::Misaligned(_))
        ));
        assert!(matches!(
            plan.move_tile_rows(0, 4),
            Err(ArchiveError::Misaligned(_))
        ));
        let single = ShardPlan::row_bands(4, 4, 1, 4).unwrap();
        assert!(matches!(
            single.split_band(0),
            Err(ArchiveError::Misaligned(_))
        ));
    }

    #[test]
    fn from_band_rows_validates_alignment() {
        assert!(ShardPlan::from_band_rows(&[8, 8], 4, 4).is_ok());
        assert!(matches!(
            ShardPlan::from_band_rows(&[6, 10], 4, 4),
            Err(ArchiveError::Misaligned(_))
        ));
        // Ragged height is fine on the last band only.
        assert!(ShardPlan::from_band_rows(&[8, 6], 4, 4).is_ok());
        assert!(matches!(
            ShardPlan::from_band_rows(&[], 4, 4),
            Err(ArchiveError::EmptyDimension)
        ));
        assert!(matches!(
            ShardPlan::from_band_rows(&[8, 0], 4, 4),
            Err(ArchiveError::EmptyDimension)
        ));
    }

    #[test]
    fn band_slices_cover_requested_range() {
        let plan = ShardPlan::row_bands(64, 8, 4, 4).unwrap();
        let slices = plan.band_slices(12, 24).unwrap();
        // Bands are 16 rows each: [12,16) in band 0, [16,32) in band 1,
        // [32,36) in band 2.
        assert_eq!(slices.len(), 3);
        assert_eq!(
            (slices[0].shard, slices[0].local_row, slices[0].rows),
            (0, 12, 4)
        );
        assert_eq!(
            (slices[1].shard, slices[1].local_row, slices[1].rows),
            (1, 0, 16)
        );
        assert_eq!(
            (slices[2].shard, slices[2].local_row, slices[2].rows),
            (2, 0, 4)
        );
        let mut row = 12;
        for s in &slices {
            assert_eq!(s.global_row, row);
            row += s.rows;
        }
        assert_eq!(row, 36);
        assert!(plan.band_slices(60, 8).is_err());
        assert!(plan.band_slices(0, 0).is_err());
    }

    #[test]
    fn epochs_advance_and_fence_shape_changes() {
        assert_eq!(TopologyEpoch::ZERO.to_string(), "e0");
        assert!(TopologyEpoch::ZERO < TopologyEpoch::ZERO.next());
        assert_eq!(TopologyEpoch::new(6).next().get(), 7);

        let plan = ShardPlan::row_bands(64, 8, 4, 4).unwrap();
        let source = EpochedShardPlan::initial(plan.clone());
        assert_eq!(source.epoch(), TopologyEpoch::ZERO);
        let dest = source.successor(plan.split_band(0).unwrap()).unwrap();
        assert_eq!(dest.epoch(), TopologyEpoch::new(1));
        assert_eq!(dest.plan().shard_count(), 5);

        let reshaped = ShardPlan::row_bands(32, 8, 2, 4).unwrap();
        assert!(source.successor(reshaped).is_err());
        let retiled = ShardPlan::row_bands(64, 8, 4, 8).unwrap();
        assert!(source.successor(retiled).is_err());
    }

    #[test]
    fn plan_diff_groups_split_merge_and_move() {
        let plan = ShardPlan::row_bands(64, 8, 4, 4).unwrap();

        let split = plan.split_band(1).unwrap();
        let diff = plan_diff(&plan, &split).unwrap();
        let mut carried = diff.carried_over.clone();
        carried.sort_unstable();
        assert_eq!(carried, vec![(0, 0), (3, 2), (4, 3)]);
        assert_eq!(diff.groups.len(), 1);
        let g = &diff.groups[0];
        assert_eq!(g.source_bands, vec![1]);
        assert_eq!(g.dest_bands, vec![1, 2]);
        assert_eq!((g.row_offset, g.rows), (16, 16));

        let merged = plan.merge_bands(2).unwrap();
        let diff = plan_diff(&plan, &merged).unwrap();
        assert_eq!(diff.groups.len(), 1);
        let g = &diff.groups[0];
        assert_eq!(g.source_bands, vec![2, 3]);
        assert_eq!(g.dest_bands, vec![2]);
        assert_eq!((g.row_offset, g.row_end()), (32, 64));

        let moved = plan.move_tile_rows(1, 1).unwrap();
        let diff = plan_diff(&plan, &moved).unwrap();
        assert_eq!(diff.groups.len(), 1);
        let g = &diff.groups[0];
        assert_eq!(g.source_bands, vec![1, 2]);
        assert_eq!(g.dest_bands, vec![1, 2]);
        assert_eq!((g.row_offset, g.row_end()), (16, 48));
        assert_eq!(diff.migrating_dest_bands(), vec![1, 2]);
        assert_eq!(diff.migrating_source_bands(), vec![1, 2]);

        // Two independent splits stay two groups.
        let twice = plan.split_band(0).unwrap().split_band(3).unwrap();
        let diff = plan_diff(&plan, &twice).unwrap();
        assert_eq!(diff.groups.len(), 2);
        assert_eq!(diff.groups[0].source_bands, vec![0]);
        assert_eq!(diff.groups[0].dest_bands, vec![0, 1]);
        assert_eq!(diff.groups[1].source_bands, vec![2]);
        assert_eq!(diff.groups[1].dest_bands, vec![3, 4]);

        // No change → no groups, everything carried over.
        let diff = plan_diff(&plan, &plan).unwrap();
        assert!(diff.groups.is_empty());
        assert_eq!(diff.carried_over.len(), 4);

        let other = ShardPlan::row_bands(32, 8, 2, 4).unwrap();
        assert!(plan_diff(&plan, &other).is_err());
    }
}
