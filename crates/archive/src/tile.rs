//! Paged tile store over a raster, with access accounting and configurable
//! fault injection.
//!
//! Large archives are read in pages; the paper's speedups hinge on touching
//! fewer of them. `TileStore` partitions a [`Grid2`] into square tiles,
//! counts every tile materialization through a shared [`AccessStats`], and
//! can be configured with a [`FaultProfile`] (permanent, transient or
//! corrupt pages plus injected latency) and a
//! [`ResilienceConfig`] (tick-based retry with exponential backoff, and a
//! per-page circuit breaker) to exercise degraded-archive behavior.
//!
//! With the default (empty) profile and the default resilience config the
//! store behaves exactly like a fault-free paged reader.

use crate::error::ArchiveError;
use crate::extent::CellCoord;
use crate::fault::{AttemptOutcome, FaultProfile, FaultRuntime, ResilienceConfig};
use crate::grid::Grid2;
use crate::integrity::{corrupt_value, PageEnvelope};
use crate::stats::AccessStats;
use std::sync::{Arc, Mutex};

/// A paged, counted view over a grid.
///
/// The cells live in `Arc`-shared row segments, each a whole number of
/// tile rows (only the last may end ragged): [`new`](Self::new) wraps its
/// grid as one segment, [`extended`](Self::extended) adds a band as
/// another, and `clone()` copies pointers, never cells. A page never
/// spans two segments, so a segment is immutable once any store holds it.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::tile::TileStore;
///
/// let grid = Grid2::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
/// let store = TileStore::new(grid, 4).unwrap();
/// let v = store.read(1, 5).unwrap();
/// assert_eq!(v, 13.0);
/// assert_eq!(store.stats().pages_read(), 1);
/// assert_eq!(store.stats().tuples_touched(), 1);
/// ```
///
/// Reads under a fault profile retry per the [`ResilienceConfig`]:
///
/// ```
/// use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::tile::TileStore;
///
/// let grid = Grid2::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
/// let store = TileStore::new(grid, 2)
///     .unwrap()
///     .with_faults(FaultProfile::new().transient(0, 2))
///     .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None));
/// // Two failing attempts, then the page heals within the retry budget.
/// assert_eq!(store.read(0, 0).unwrap(), 0.0);
/// assert_eq!(store.stats().retries(), 2);
/// assert_eq!(store.stats().failures(), 2);
/// ```
#[derive(Debug)]
pub struct TileStore {
    /// Per tile row, the segment holding it and that segment's first row.
    tile_rows: Vec<(Arc<Grid2<f64>>, usize)>,
    rows: usize,
    cols: usize,
    tile: usize,
    tiles_per_row: usize,
    stats: AccessStats,
    fault: Mutex<FaultRuntime>,
}

impl Clone for TileStore {
    /// Clones the store, snapshotting the current fault state (transient
    /// counters, breaker state). The stats
    /// handle is shared, as for any [`AccessStats`] clone.
    fn clone(&self) -> Self {
        let runtime = self.fault.lock().expect("fault state lock").clone();
        TileStore {
            tile_rows: self.tile_rows.clone(),
            rows: self.rows,
            cols: self.cols,
            tile: self.tile,
            tiles_per_row: self.tiles_per_row,
            stats: self.stats.clone(),
            fault: Mutex::new(runtime),
        }
    }
}

impl TileStore {
    /// Wraps a grid in a store with `tile x tile` pages.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::EmptyDimension`] if `tile == 0`.
    pub fn new(grid: Grid2<f64>, tile: usize) -> Result<Self, ArchiveError> {
        if tile == 0 {
            return Err(ArchiveError::EmptyDimension);
        }
        let (rows, cols) = (grid.rows(), grid.cols());
        let tiles_per_row = cols.div_ceil(tile);
        let segment = Arc::new(grid);
        Ok(TileStore {
            tile_rows: vec![(segment, 0); rows.div_ceil(tile)],
            rows,
            cols,
            tile,
            tiles_per_row,
            stats: AccessStats::new(),
            fault: Mutex::new(FaultRuntime::new(
                FaultProfile::new(),
                ResilienceConfig::none(),
            )),
        })
    }

    /// This store grown by `band` below its last row: every existing
    /// segment is shared with `self` (no cell is copied but the band's),
    /// the stats handle is shared and the fault state snapshotted, as for
    /// `clone()`.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::AppendMisaligned`] when the band's width differs
    /// from the store's, or when the store's or the band's row count is
    /// not a whole number of tile rows (the band would rewrite a page).
    pub fn extended(&self, band: &Grid2<f64>) -> Result<Self, ArchiveError> {
        if band.cols() != self.cols {
            return Err(ArchiveError::AppendMisaligned(format!(
                "band width {} != store width {}",
                band.cols(),
                self.cols
            )));
        }
        if !self.rows.is_multiple_of(self.tile) || !band.rows().is_multiple_of(self.tile) {
            return Err(ArchiveError::AppendMisaligned(format!(
                "store rows {} and band rows {} must be multiples of tile {}",
                self.rows,
                band.rows(),
                self.tile
            )));
        }
        let mut next = self.clone();
        let segment = (Arc::new(band.clone()), self.rows);
        next.tile_rows
            .extend(std::iter::repeat_n(segment, band.rows() / self.tile));
        next.rows += band.rows();
        Ok(next)
    }

    /// The cells of `row`, which the caller has checked is in bounds.
    fn row(&self, row: usize) -> &[f64] {
        let (segment, first) = &self.tile_rows[row / self.tile];
        segment.row(row - first)
    }

    /// Shares an existing stats handle (builder style) so multiple stores
    /// aggregate into one counter set.
    pub fn with_stats(mut self, stats: AccessStats) -> Self {
        self.stats = stats;
        self
    }

    /// Installs a fault profile (builder style), resetting any accumulated
    /// fault state. The resilience config is preserved.
    pub fn with_faults(self, profile: FaultProfile) -> Self {
        {
            let mut rt = self.fault.lock().expect("fault state lock");
            let config = rt.config();
            *rt = FaultRuntime::new(profile, config);
        }
        self
    }

    /// Sets the retry/quarantine behavior (builder style). Accumulated
    /// fault state (transient counters, quarantines) is preserved.
    pub fn with_resilience(self, config: ResilienceConfig) -> Self {
        self.fault
            .lock()
            .expect("fault state lock")
            .set_config(config);
        self
    }

    /// Marks a page index as permanently failing: reads touching it return
    /// [`ArchiveError::PageIo`]. Shorthand for a permanent entry in the
    /// fault profile; used by failure-injection tests.
    pub fn fail_page(&mut self, page: usize) {
        self.fault
            .lock()
            .expect("fault state lock")
            .add_permanent(page);
    }

    /// The active retry/quarantine configuration.
    pub fn resilience(&self) -> ResilienceConfig {
        self.fault.lock().expect("fault state lock").config()
    }

    /// Whether `page` is currently quarantined by the circuit breaker.
    pub fn is_quarantined(&self, page: usize) -> bool {
        self.fault
            .lock()
            .expect("fault state lock")
            .is_quarantined(page)
    }

    /// Pages currently under quarantine, sorted ascending.
    pub fn quarantined_pages(&self) -> impl Iterator<Item = usize> {
        self.fault
            .lock()
            .expect("fault state lock")
            .quarantined_pages()
            .into_iter()
    }

    /// Lifts every quarantine, so the next access re-attempts (and, through
    /// [`read_page_verified`](Self::read_page_verified), re-verifies) the
    /// page. An operator hook: after replacing a bad device, quarantines
    /// from the old hardware should not outlive it.
    pub fn clear_quarantine(&self) {
        self.fault
            .lock()
            .expect("fault state lock")
            .clear_quarantine();
    }

    /// The shared stats handle.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Number of rows in the underlying grid.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the underlying grid.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile edge length in cells.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Total number of pages.
    pub fn page_count(&self) -> usize {
        self.tile_rows.len() * self.tiles_per_row
    }

    /// Page index containing cell `(row, col)`.
    pub fn page_of(&self, row: usize, col: usize) -> usize {
        (row / self.tile) * self.tiles_per_row + col / self.tile
    }

    /// Half-open cell extent `(r0, c0, r1, c1)` covered by `page`
    /// (clipped at ragged grid edges).
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] for an invalid page index.
    pub fn page_extent(&self, page: usize) -> Result<(usize, usize, usize, usize), ArchiveError> {
        if page >= self.page_count() {
            return Err(ArchiveError::OutOfBounds {
                row: page,
                col: 0,
                rows: self.page_count(),
                cols: 1,
            });
        }
        let r0 = (page / self.tiles_per_row) * self.tile;
        let c0 = (page % self.tiles_per_row) * self.tile;
        let r1 = (r0 + self.tile).min(self.rows);
        let c1 = (c0 + self.tile).min(self.cols);
        Ok((r0, c0, r1, c1))
    }

    /// Runs the fault machinery for one logical page access: attempts the
    /// read, retries failed attempts per the policy (accruing backoff
    /// ticks), and trips the circuit breaker on repeated failure. Every
    /// attempt costs one base tick plus any injected latency.
    ///
    /// `Ok(true)` means the access "succeeded" but delivered a silently
    /// corrupted payload — the caller decides whether it verifies
    /// checksums ([`read_page_verified`](Self::read_page_verified)) or
    /// trusts the bytes like a legacy reader ([`read`](Self::read)).
    fn access_page(&self, page: usize) -> Result<bool, ArchiveError> {
        let mut rt = self.fault.lock().expect("fault state lock");
        let policy = rt.config().retry;
        let mut retry = 0u32;
        loop {
            match rt.attempt(page) {
                AttemptOutcome::Quarantined => {
                    return Err(ArchiveError::PageQuarantined { page });
                }
                AttemptOutcome::Ok { latency_ticks } => {
                    self.stats.record_ticks(1 + latency_ticks);
                    return Ok(false);
                }
                AttemptOutcome::Corrupted { latency_ticks } => {
                    // Indistinguishable from success at the I/O level:
                    // same accounting, no failure recorded here.
                    self.stats.record_ticks(1 + latency_ticks);
                    return Ok(true);
                }
                AttemptOutcome::Failed { latency_ticks } => {
                    self.stats.record_ticks(1 + latency_ticks);
                    self.stats.record_failures(1);
                    if rt.is_quarantined(page) {
                        // This attempt tripped the breaker: report the
                        // I/O failure itself; later reads fail fast with
                        // `PageQuarantined`.
                        self.stats.record_quarantines(1);
                        return Err(ArchiveError::PageIo { page });
                    }
                    if retry < policy.max_retries {
                        retry += 1;
                        self.stats.record_retries(1);
                        self.stats.record_ticks(policy.backoff_ticks(retry));
                        continue;
                    }
                    return Err(ArchiveError::PageIo { page });
                }
            }
        }
    }

    /// Reports a checksum failure on `page` to the circuit breaker.
    /// Returns the error verified readers surface: `PageCorrupt`, after
    /// recording the detection (and, if the breaker tripped, the new
    /// quarantine).
    fn note_corruption(&self, page: usize) -> ArchiveError {
        self.stats.record_corruptions(1);
        self.stats.record_failures(1);
        let newly_quarantined = self
            .fault
            .lock()
            .expect("fault state lock")
            .note_checksum_failure(page);
        if newly_quarantined {
            self.stats.record_quarantines(1);
        }
        ArchiveError::PageCorrupt { page }
    }

    /// Reads one cell, accounting one tuple and one page access.
    ///
    /// This is the *trusting* read path: a silently corrupted page
    /// delivers its flipped bits without complaint, exactly like a legacy
    /// reader with no checksums. Use
    /// [`read_page_verified`](Self::read_page_verified) for detection.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] outside the grid,
    /// [`ArchiveError::PageIo`] when the page's fault outlasts the retry
    /// budget, and [`ArchiveError::PageQuarantined`] once the page's
    /// circuit breaker has tripped.
    pub fn read(&self, row: usize, col: usize) -> Result<f64, ArchiveError> {
        if row >= self.rows || col >= self.cols {
            return Err(ArchiveError::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let v = self.row(row)[col];
        let page = self.page_of(row, col);
        let corrupted = self.access_page(page)?;
        self.stats.record_tuples(1);
        self.stats.record_pages(1);
        Ok(if corrupted { corrupt_value(v) } else { v })
    }

    /// Reads an entire page as `(coord, value)` tuples, accounting one page
    /// and `len` tuples. Trusting, like [`read`](Self::read): corrupted
    /// payloads are delivered as-is.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] for an invalid page index,
    /// [`ArchiveError::PageIo`] when the page's fault outlasts the retry
    /// budget, and [`ArchiveError::PageQuarantined`] for quarantined pages.
    pub fn read_page(&self, page: usize) -> Result<Vec<(CellCoord, f64)>, ArchiveError> {
        Ok(self.read_page_envelope(page)?.into_payload())
    }

    /// Reads a page as a checksummed [`PageEnvelope`].
    ///
    /// The checksum models a write-time seal: it is computed over the
    /// payload as stored, so a corrupted access yields an envelope whose
    /// payload no longer matches its checksum —
    /// [`verify`](PageEnvelope::verify) returns `false`. Callers that
    /// want automatic retry-on-mismatch should use
    /// [`read_page_verified`](Self::read_page_verified) instead; this
    /// method exposes the raw envelope for layers (e.g. a replicated
    /// source) that handle verification failure themselves.
    ///
    /// # Errors
    ///
    /// Same as [`read_page`](Self::read_page).
    pub fn read_page_envelope(&self, page: usize) -> Result<PageEnvelope, ArchiveError> {
        let (r0, c0, r1, c1) = self.page_extent(page)?;
        let corrupted = self.access_page(page)?;
        let mut out = Vec::with_capacity((r1 - r0) * (c1 - c0));
        for r in r0..r1 {
            let cells = &self.row(r)[c0..c1];
            out.extend((c0..c1).zip(cells).map(|(c, &v)| (CellCoord::new(r, c), v)));
        }
        self.stats.record_pages(1);
        self.stats.record_tuples(out.len() as u64);
        let mut env = PageEnvelope::seal(out);
        if corrupted {
            env.corrupt_payload();
        }
        Ok(env)
    }

    /// Reads a page and verifies its checksum, retrying mismatches per the
    /// store's [`RetryPolicy`](crate::fault::RetryPolicy) and feeding
    /// detected corruption into the circuit breaker.
    ///
    /// Each mismatch records one corruption and one failure in
    /// [`AccessStats`]; retries accrue backoff ticks exactly like I/O
    /// retries. Consecutive checksum failures count toward quarantine the
    /// same way I/O failures do.
    ///
    /// # Errors
    ///
    /// Everything [`read_page`](Self::read_page) returns, plus
    /// [`ArchiveError::PageCorrupt`] when every attempt (initial plus
    /// retries) failed verification or the breaker tripped mid-loop.
    pub fn read_page_verified(&self, page: usize) -> Result<Vec<(CellCoord, f64)>, ArchiveError> {
        let policy = self.resilience().retry;
        let mut retry = 0u32;
        loop {
            let env = self.read_page_envelope(page)?;
            if env.verify() {
                return Ok(env.into_payload());
            }
            let err = self.note_corruption(page);
            if self.is_quarantined(page) {
                return Err(err);
            }
            if retry < policy.max_retries {
                retry += 1;
                self.stats.record_retries(1);
                self.stats.record_ticks(policy.backoff_ticks(retry));
                continue;
            }
            return Err(err);
        }
    }

    /// Scans every page in order, calling `f` per tuple. This is the
    /// sequential-scan baseline cost model: every page, every tuple.
    ///
    /// # Errors
    ///
    /// Propagates page failures that outlast the retry budget; tuples
    /// before the failure have already been delivered to `f`.
    pub fn scan<F: FnMut(CellCoord, f64)>(&self, mut f: F) -> Result<(), ArchiveError> {
        for page in 0..self.page_count() {
            for (coord, v) in self.read_page(page)? {
                f(coord, v);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;

    fn store_4x4() -> TileStore {
        TileStore::new(Grid2::from_fn(4, 4, |r, c| (r * 4 + c) as f64), 2).unwrap()
    }

    #[test]
    fn page_layout() {
        let s = store_4x4();
        assert_eq!(s.page_count(), 4);
        assert_eq!(s.page_of(0, 0), 0);
        assert_eq!(s.page_of(0, 3), 1);
        assert_eq!(s.page_of(3, 0), 2);
        assert_eq!(s.page_of(3, 3), 3);
    }

    #[test]
    fn page_extent_matches_layout() {
        let s = store_4x4();
        assert_eq!(s.page_extent(0).unwrap(), (0, 0, 2, 2));
        assert_eq!(s.page_extent(3).unwrap(), (2, 2, 4, 4));
        assert!(s.page_extent(4).is_err());
        let ragged = TileStore::new(Grid2::from_fn(5, 3, |r, c| (r * 3 + c) as f64), 2).unwrap();
        assert_eq!(ragged.page_extent(5).unwrap(), (4, 2, 5, 3));
    }

    #[test]
    fn read_page_contents() {
        let s = store_4x4();
        let page = s.read_page(3).unwrap();
        let values: Vec<f64> = page.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![10.0, 11.0, 14.0, 15.0]);
        assert_eq!(s.stats().pages_read(), 1);
        assert_eq!(s.stats().tuples_touched(), 4);
        assert!(s.read_page(4).is_err());
    }

    #[test]
    fn ragged_edges_are_partial_pages() {
        let s = TileStore::new(Grid2::from_fn(5, 3, |r, c| (r * 3 + c) as f64), 2).unwrap();
        assert_eq!(s.page_count(), 6);
        // Bottom-right page covers only cell (4, 2).
        let page = s.read_page(5).unwrap();
        assert_eq!(page.len(), 1);
        assert_eq!(page[0].0, CellCoord::new(4, 2));
        assert_eq!(page[0].1, 14.0);
    }

    #[test]
    fn extended_store_shares_segments_and_reads_like_a_rebuild() {
        let cell = |r: usize, c: usize| (r * 5 + c) as f64;
        let base = TileStore::new(Grid2::from_fn(4, 5, cell), 2).unwrap();
        let mid = base
            .extended(&Grid2::from_fn(2, 5, |r, c| cell(4 + r, c)))
            .unwrap();
        let grown = mid
            .extended(&Grid2::from_fn(6, 5, |r, c| cell(6 + r, c)))
            .unwrap();
        let rebuilt = TileStore::new(Grid2::from_fn(12, 5, cell), 2).unwrap();
        assert_eq!((grown.rows(), grown.page_count()), (12, 18));
        for page in 0..rebuilt.page_count() {
            assert_eq!(grown.page_extent(page), rebuilt.page_extent(page));
            assert_eq!(grown.read_page(page), rebuilt.read_page(page));
        }
        assert_eq!(grown.read(11, 4).unwrap(), cell(11, 4));
        assert!(grown.read(12, 0).is_err());
        // Older stores still end where they ended, on the same cells.
        assert_eq!((base.rows(), mid.rows()), (4, 6));
        assert!(mid.read(6, 0).is_err());
        for (tile_row, (segment, first)) in mid.tile_rows.iter().enumerate() {
            assert!(Arc::ptr_eq(segment, &grown.tile_rows[tile_row].0));
            assert_eq!(*first, grown.tile_rows[tile_row].1);
        }
        // One counter set across the chain.
        assert_eq!(base.stats().pages_read(), grown.stats().pages_read());
    }

    #[test]
    fn extended_rejects_bands_that_would_rewrite_a_page() {
        let ragged = TileStore::new(Grid2::filled(5, 4, 0.0), 2).unwrap();
        assert!(matches!(
            ragged.extended(&Grid2::filled(2, 4, 0.0)),
            Err(ArchiveError::AppendMisaligned(_))
        ));
        let s = store_4x4();
        for band in [Grid2::filled(3, 4, 0.0), Grid2::filled(2, 5, 0.0)] {
            assert!(matches!(
                s.extended(&band),
                Err(ArchiveError::AppendMisaligned(_))
            ));
        }
    }

    #[test]
    fn scan_visits_every_tuple_once() {
        let s = store_4x4();
        let mut seen = Vec::new();
        s.scan(|coord, v| seen.push((coord, v))).unwrap();
        assert_eq!(seen.len(), 16);
        let mut coords: Vec<CellCoord> = seen.iter().map(|(c, _)| *c).collect();
        coords.sort();
        coords.dedup();
        assert_eq!(coords.len(), 16);
        assert_eq!(s.stats().pages_read(), 4);
        assert_eq!(s.stats().tuples_touched(), 16);
    }

    #[test]
    fn fault_injection_surfaces_page_io() {
        let mut s = store_4x4();
        s.fail_page(2);
        assert!(matches!(
            s.read(3, 0),
            Err(ArchiveError::PageIo { page: 2 })
        ));
        let mut count = 0;
        let err = s.scan(|_, _| count += 1).unwrap_err();
        assert_eq!(err, ArchiveError::PageIo { page: 2 });
        assert_eq!(count, 8, "pages 0 and 1 delivered before the failure");
    }

    #[test]
    fn zero_tile_rejected() {
        assert!(TileStore::new(Grid2::filled(2, 2, 0.0), 0).is_err());
    }

    #[test]
    fn transient_fault_heals_within_retry_budget() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().transient(1, 2))
            .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), None));
        assert_eq!(s.read(0, 2).unwrap(), 2.0);
        assert_eq!(s.stats().failures(), 2);
        assert_eq!(s.stats().retries(), 2);
        assert_eq!(s.stats().pages_read(), 1, "only the success is a page read");
        // Backoff 1 + 2 ticks plus three 1-tick attempts.
        assert_eq!(s.stats().ticks_elapsed(), 3 + 3);
        // The page stays healed: no further retries needed.
        assert_eq!(s.read(0, 3).unwrap(), 3.0);
        assert_eq!(s.stats().retries(), 2);
    }

    #[test]
    fn transient_fault_outlasting_retries_is_an_error() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().transient(1, 5))
            .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), None));
        assert_eq!(s.read(0, 2), Err(ArchiveError::PageIo { page: 1 }));
        assert_eq!(s.stats().failures(), 3, "initial attempt plus 2 retries");
        // The next read consumes the remaining two faulty accesses and
        // succeeds on its third attempt.
        assert_eq!(s.read(0, 2).unwrap(), 2.0);
    }

    #[test]
    fn quarantine_kicks_in_and_fails_fast() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().permanent(0))
            .with_resilience(ResilienceConfig::new(RetryPolicy::none(), Some(3)));
        assert_eq!(s.read(0, 0), Err(ArchiveError::PageIo { page: 0 }));
        assert_eq!(s.read(0, 0), Err(ArchiveError::PageIo { page: 0 }));
        assert!(!s.is_quarantined(0));
        // Third consecutive failure trips the breaker.
        assert_eq!(s.read(0, 0), Err(ArchiveError::PageIo { page: 0 }));
        assert!(s.is_quarantined(0));
        assert_eq!(s.quarantined_pages().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.stats().quarantines(), 1);
        let ticks_before = s.stats().ticks_elapsed();
        let failures_before = s.stats().failures();
        // Fail fast: no attempt, no ticks, no new failures.
        assert_eq!(s.read(0, 0), Err(ArchiveError::PageQuarantined { page: 0 }));
        assert_eq!(s.stats().ticks_elapsed(), ticks_before);
        assert_eq!(s.stats().failures(), failures_before);
        // Other pages are unaffected.
        assert_eq!(s.read(0, 2).unwrap(), 2.0);
    }

    #[test]
    fn retries_count_toward_quarantine() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().permanent(3))
            .with_resilience(ResilienceConfig::new(RetryPolicy::retries(5), Some(4)));
        // One read's retries alone trip the breaker (4 consecutive failed
        // attempts < 1 + 5 allowed attempts).
        assert_eq!(s.read(2, 2), Err(ArchiveError::PageIo { page: 3 }));
        assert!(s.is_quarantined(3));
        assert_eq!(s.stats().failures(), 4);
        assert_eq!(s.stats().retries(), 3, "no retry after the breaker trips");
    }

    #[test]
    fn injected_latency_accrues_ticks_on_success() {
        let s = store_4x4().with_faults(FaultProfile::new().latency(0, 9));
        assert_eq!(s.read(0, 0).unwrap(), 0.0);
        assert_eq!(s.stats().ticks_elapsed(), 10, "1 base + 9 injected");
        assert_eq!(s.read(2, 2).unwrap(), 10.0);
        assert_eq!(s.stats().ticks_elapsed(), 11, "healthy page costs 1 tick");
    }

    #[test]
    fn clone_snapshots_fault_state() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().transient(1, 2))
            .with_resilience(ResilienceConfig::new(RetryPolicy::none(), None));
        assert!(s.read(0, 2).is_err());
        let t = s.clone();
        // Both observe the second (final) transient failure independently.
        assert!(s.read(0, 2).is_err());
        assert!(t.read(0, 2).is_err());
        assert!(s.read(0, 2).is_ok());
        assert!(t.read(0, 2).is_ok());
    }

    #[test]
    fn trusting_reads_deliver_corrupted_bits_silently() {
        use crate::integrity::corrupt_value;
        let s = store_4x4().with_faults(FaultProfile::new().corrupt(0));
        // Both cell and page reads succeed with flipped values, no errors,
        // no failure accounting — the legacy reader cannot tell.
        assert_eq!(s.read(0, 0).unwrap(), corrupt_value(0.0));
        let page = s.read_page(0).unwrap();
        assert_eq!(page[1].1, corrupt_value(1.0));
        assert_eq!(s.stats().failures(), 0);
        assert_eq!(s.stats().corruptions(), 0);
        // Healthy pages are untouched.
        assert_eq!(s.read(0, 2).unwrap(), 2.0);
    }

    #[test]
    fn envelope_seal_matches_payload_health() {
        let s = store_4x4().with_faults(FaultProfile::new().corrupt(3));
        assert!(s.read_page_envelope(0).unwrap().verify());
        let env = s.read_page_envelope(3).unwrap();
        assert!(!env.verify(), "corrupted page must fail verification");
    }

    #[test]
    fn verified_read_detects_corruption_and_feeds_breaker() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().corrupt(3))
            .with_resilience(ResilienceConfig::new(RetryPolicy::retries(1), Some(3)));
        // Attempt + 1 retry both corrupt: detected, not yet quarantined.
        assert_eq!(
            s.read_page_verified(3),
            Err(ArchiveError::PageCorrupt { page: 3 })
        );
        assert_eq!(s.stats().corruptions(), 2);
        assert_eq!(s.stats().failures(), 2);
        assert!(!s.is_quarantined(3));
        // The third consecutive checksum failure trips the breaker.
        assert_eq!(
            s.read_page_verified(3),
            Err(ArchiveError::PageCorrupt { page: 3 })
        );
        assert!(s.is_quarantined(3));
        assert_eq!(s.stats().quarantines(), 1);
        assert_eq!(
            s.read_page_verified(3),
            Err(ArchiveError::PageQuarantined { page: 3 })
        );
        // Healthy pages verify cleanly through the same path.
        let page = s.read_page_verified(0).unwrap();
        assert_eq!(page[0].1, 0.0);
    }

    #[test]
    fn clear_quarantine_refetches_and_reverifies() {
        let s = store_4x4()
            .with_faults(FaultProfile::new().permanent(0))
            .with_resilience(ResilienceConfig::new(RetryPolicy::none(), Some(1)));
        assert!(s.read_page_verified(0).is_err());
        assert_eq!(s.quarantined_pages().collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            s.read_page_verified(0),
            Err(ArchiveError::PageQuarantined { page: 0 })
        );
        let pages_before = s.stats().pages_read();
        s.clear_quarantine();
        assert_eq!(s.quarantined_pages().count(), 0);
        // The cleared page is genuinely re-fetched (and fails again for
        // real — the fault is permanent), not served from breaker state.
        assert_eq!(
            s.read_page_verified(0),
            Err(ArchiveError::PageIo { page: 0 })
        );
        assert_eq!(s.stats().pages_read(), pages_before);
        assert!(s.is_quarantined(0), "breaker re-trips on the fresh failure");
    }

    #[test]
    fn default_config_reads_cost_one_tick_per_page_access() {
        let s = store_4x4();
        s.read_page(0).unwrap();
        s.read(3, 3).unwrap();
        assert_eq!(s.stats().ticks_elapsed(), 2);
        assert_eq!(s.stats().failures(), 0);
        assert_eq!(s.stats().retries(), 0);
        assert_eq!(s.stats().quarantines(), 0);
    }
}
