//! Fallible base-level cell access for the progressive engines.
//!
//! The aggregate pyramids are a *resident index*: small, precomputed,
//! always available. The base-resolution data they summarize lives in the
//! paged archive, and reading it can fail — a page may be faulty or
//! quarantined (see [`mbir_archive::fault`]). [`CellSource`] is the seam
//! between the two: engines descend the index freely but pull exact
//! base-level values through a source, so archive failures surface as
//! `Result`s the engine can either propagate (strict execution) or absorb
//! (resilient execution, [`crate::resilient`]).
//!
//! Three implementations cover the repository's regimes:
//!
//! * [`PyramidSource`] — reads level 0 of the pyramids themselves. It is
//!   infallible in practice and makes the source-parameterized engines
//!   behave bit-for-bit like the original in-memory ones.
//! * [`TileSource`] — reads through per-attribute [`TileStore`]s, with
//!   page accounting, fault injection, retries, and quarantine.
//! * [`CachedTileSource`] — a [`TileSource`] behind a small shared LRU
//!   page cache, safe for concurrent readers: the batched and parallel
//!   engines ([`crate::batched`], [`crate::parallel`]) and the sharded
//!   scatter-gather dedup their page reads through it.

use crate::error::CoreError;
use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_archive::stats::AccessStats;
use mbir_archive::tile::TileStore;
use mbir_progressive::pyramid::AggregatePyramid;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Fallible access to base-resolution attribute values.
///
/// `attr` indexes the model attribute (one pyramid / store per attribute);
/// `(row, col)` is a base-level cell. The accounting methods let execution
/// budgets observe I/O without threading a stats handle separately; sources
/// without paged backing return zeros.
pub trait CellSource {
    /// Base-level value of attribute `attr` at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns the archive error for out-of-bounds coordinates, failed
    /// page reads ([`ArchiveError::PageIo`]), or quarantined pages
    /// ([`ArchiveError::PageQuarantined`]).
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError>;

    /// Page index backing `(row, col)`, when the source is paged.
    fn page_of(&self, _row: usize, _col: usize) -> Option<usize> {
        None
    }

    /// Pages read so far through this source (budget accounting).
    fn pages_read(&self) -> u64 {
        0
    }

    /// Virtual I/O ticks elapsed so far (budget deadline clock).
    fn ticks_elapsed(&self) -> u64 {
        0
    }
}

/// In-memory source reading level 0 of the attribute pyramids.
///
/// This is the fault-free fast path: the source-parameterized engines run
/// bit-for-bit identically to the original in-memory implementations.
#[derive(Debug, Clone, Copy)]
pub struct PyramidSource<'a> {
    pyramids: &'a [AggregatePyramid],
}

impl<'a> PyramidSource<'a> {
    /// Wraps the attribute pyramids.
    pub fn new(pyramids: &'a [AggregatePyramid]) -> Self {
        PyramidSource { pyramids }
    }
}

impl CellSource for PyramidSource<'_> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        self.pyramids[attr].cell(0, row, col).map(|s| s.mean)
    }
}

/// Paged source reading through one [`TileStore`] per attribute.
///
/// All stores must share the base shape and tile size, so a page index
/// means the same region in every attribute. Budget accounting
/// (`pages_read`, `ticks_elapsed`) is taken from the **first** store's
/// stats handle; share one [`AccessStats`]
/// across the stores (via [`TileStore::with_stats`]) when aggregate
/// accounting across attributes is wanted.
#[derive(Debug)]
pub struct TileSource<'a> {
    stores: &'a [TileStore],
}

impl<'a> TileSource<'a> {
    /// Wraps per-attribute stores.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when no stores are supplied or their
    /// shapes / tile sizes disagree.
    pub fn new(stores: &'a [TileStore]) -> Result<Self, CoreError> {
        let first = stores
            .first()
            .ok_or_else(|| CoreError::Query("no tile stores supplied".into()))?;
        if !same_layout(first, stores) {
            return Err(CoreError::Query(
                "tile stores must share shape and tile size".into(),
            ));
        }
        Ok(TileSource { stores })
    }
}

/// Sources whose per-page quarantine ledger can be scrubbed.
///
/// Quarantine is keyed by *page id within the owning store*, so it is
/// only meaningful for the band layout the store was built for. After a
/// topology change hands a row band to a new owner, the retired side's
/// quarantine entries describe pages nobody routes to anymore — and if
/// the stores are later re-banded or reused, a stale entry would
/// suppress reads of perfectly healthy data. The reshard coordinator
/// scrubs retired sources through this trait at the `Retired`
/// transition (see [`crate::reshard`]).
pub trait QuarantineScrub {
    /// Clears every quarantined page so future reads attempt the page
    /// again (healing transient faults, re-verifying checksums).
    fn clear_quarantine(&self);

    /// Pages currently quarantined, summed over the source's stores.
    fn quarantined_pages(&self) -> u64;
}

/// Whether every store has `reference`'s shape and tile size, so a page
/// index means the same region in each of them.
pub(crate) fn same_layout(reference: &TileStore, stores: &[TileStore]) -> bool {
    stores.iter().all(|s| {
        s.rows() == reference.rows()
            && s.cols() == reference.cols()
            && s.tile_size() == reference.tile_size()
    })
}

/// [`QuarantineScrub::clear_quarantine`] over a source's stores.
pub(crate) fn clear_quarantine_of<'s>(stores: impl IntoIterator<Item = &'s TileStore>) {
    for store in stores {
        store.clear_quarantine();
    }
}

/// [`QuarantineScrub::quarantined_pages`] over a source's stores.
pub(crate) fn quarantined_pages_of<'s>(stores: impl IntoIterator<Item = &'s TileStore>) -> u64 {
    stores
        .into_iter()
        .map(|s| s.quarantined_pages().count() as u64)
        .sum()
}

impl QuarantineScrub for TileSource<'_> {
    fn clear_quarantine(&self) {
        clear_quarantine_of(self.stores);
    }

    fn quarantined_pages(&self) -> u64 {
        quarantined_pages_of(self.stores)
    }
}

impl QuarantineScrub for CachedTileSource<'_> {
    fn clear_quarantine(&self) {
        clear_quarantine_of(self.stores);
    }

    fn quarantined_pages(&self) -> u64 {
        quarantined_pages_of(self.stores)
    }
}

impl CellSource for TileSource<'_> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        self.stores[attr].read(row, col)
    }

    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        Some(self.stores[0].page_of(row, col))
    }

    fn pages_read(&self) -> u64 {
        self.stores[0].stats().pages_read()
    }

    fn ticks_elapsed(&self) -> u64 {
        self.stores[0].stats().ticks_elapsed()
    }
}

/// One cached page: every attribute's values over the page's cell extent.
#[derive(Debug)]
pub(crate) struct PageBlock {
    r0: usize,
    c0: usize,
    width: usize,
    /// `values[attr][(row - r0) * width + (col - c0)]`.
    values: Vec<Vec<f64>>,
}

impl PageBlock {
    /// Materializes `page` of every attribute store, `read` fetching one
    /// store's payload (and deciding what a bad one costs).
    pub(crate) fn assemble(
        stores: &[TileStore],
        page: usize,
        read: impl Fn(&TileStore) -> Result<Vec<(CellCoord, f64)>, ArchiveError>,
    ) -> Result<Self, ArchiveError> {
        let (r0, c0, _r1, c1) = stores[0].page_extent(page)?;
        let mut values = Vec::with_capacity(stores.len());
        for store in stores {
            values.push(read(store)?.into_iter().map(|(_, v)| v).collect());
        }
        Ok(PageBlock {
            r0,
            c0,
            width: c1 - c0,
            values,
        })
    }

    fn cell(&self, attr: usize, row: usize, col: usize) -> f64 {
        self.values[attr][(row - self.r0) * self.width + (col - self.c0)]
    }
}

#[derive(Debug)]
enum Slot {
    /// Some reader is materializing this page; wait instead of re-reading.
    Loading,
    /// Materialized page with its LRU recency stamp.
    Ready { block: Arc<PageBlock>, recency: u64 },
}

#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<usize, Slot>,
    clock: u64,
    /// Bumped by [`PageCache::advance_epoch`]. Loads that straddle an
    /// advance are served to their caller but never inserted, so a block
    /// materialized against a pre-advance view cannot shadow the
    /// post-advance contents of a dirtied page.
    epoch: u64,
    /// Smallest `first_dirty_page` across all epoch advances — the
    /// original high-water mark. Materializations at or past it are
    /// append-side reads and counted as `appended_pages_seen`.
    appended_from: Option<usize>,
}

/// The shared LRU page cache behind [`CachedTileSource`] and
/// [`ReplicatedSource`](crate::replica::ReplicatedSource): safe for
/// concurrent readers, in-flight loads dedup'd through a condvar, epoch
/// advances dropping the dirtied tail. What a miss *does* is the caller's
/// loader — retry in place for one store set, fail over and hedge across
/// replicas — and the counters land on the caller's
/// [`AccessStats`].
#[derive(Debug)]
pub(crate) struct PageCache {
    capacity: usize,
    state: Mutex<CacheState>,
    loaded: Condvar,
}

impl PageCache {
    /// An empty cache of `capacity` pages (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        PageCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState::default()),
            loaded: Condvar::new(),
        }
    }

    /// Drops every resident page at or past `first_dirty_page` and demotes
    /// any load currently in flight to serve-without-caching (its block is
    /// being materialized against the pre-advance view). Returns the
    /// number of resident pages dropped, also recorded on `stats` as
    /// `cache_invalidations`.
    pub(crate) fn advance_epoch(&self, first_dirty_page: usize, stats: &AccessStats) -> usize {
        let mut state = self.state.lock().expect("cache lock");
        state.epoch += 1;
        state.appended_from = Some(match state.appended_from {
            Some(prev) => prev.min(first_dirty_page),
            None => first_dirty_page,
        });
        let before = state.slots.len();
        // Loading markers stay: their readers hold no block yet.
        state
            .slots
            .retain(|&page, slot| page < first_dirty_page || matches!(slot, Slot::Loading));
        let dropped = before - state.slots.len();
        if dropped > 0 {
            stats.record_cache_invalidations(dropped as u64);
        }
        dropped
    }

    /// Returns the cached page, materializing it through `load` on a miss.
    /// Blocks while another thread is materializing the same page. `load`
    /// runs *without* the cache lock — page reads may retry, back off, or
    /// fail over, and other pages' readers must not wait on that — and a
    /// failed load is never cached, so a later read attempts the page
    /// again (transient faults heal, breakers cool down).
    fn fetch(
        &self,
        page: usize,
        stats: &AccessStats,
        load: impl FnOnce() -> Result<PageBlock, ArchiveError>,
    ) -> Result<Arc<PageBlock>, ArchiveError> {
        let mut guard = self.state.lock().expect("cache lock");
        // Whether this lookup observed another reader materializing the
        // page and parked on the condvar — counted once per lookup, not
        // once per spurious wakeup.
        let mut deduped = false;
        loop {
            let state = &mut *guard;
            match state.slots.get_mut(&page) {
                Some(Slot::Ready { block, recency }) => {
                    state.clock += 1;
                    *recency = state.clock;
                    stats.record_cache_hits(1);
                    if deduped {
                        stats.record_cache_dedup_waits(1);
                    }
                    return Ok(Arc::clone(block));
                }
                Some(Slot::Loading) => {
                    deduped = true;
                    guard = self.loaded.wait(guard).expect("cache lock");
                }
                None => {
                    state.slots.insert(page, Slot::Loading);
                    stats.record_cache_misses(1);
                    if state.appended_from.is_some_and(|from| page >= from) {
                        stats.record_appended_pages_seen(1);
                    }
                    break;
                }
            }
        }
        let epoch_at_load = guard.epoch;
        drop(guard);
        let loaded = load().map(Arc::new);
        let mut state = self.state.lock().expect("cache lock");
        match &loaded {
            Ok(block) if state.epoch == epoch_at_load => {
                state.clock += 1;
                let recency = state.clock;
                let block = Arc::clone(block);
                state.slots.insert(page, Slot::Ready { block, recency });
                self.evict_excess(&mut state);
            }
            // A failure, or an epoch advance landed while this page was in
            // flight (the block reflects the pre-advance view: serve it to
            // the caller that started the read but do not cache it). Clear
            // the Loading marker so later readers re-materialize.
            _ => {
                state.slots.remove(&page);
            }
        }
        self.loaded.notify_all();
        loaded
    }

    /// Drops least-recently-used ready pages until at most `capacity`
    /// remain. Loading slots are never evicted (their readers hold no
    /// block yet).
    fn evict_excess(&self, state: &mut CacheState) {
        loop {
            let mut ready = 0usize;
            let mut victim: Option<(u64, usize)> = None;
            for (&page, slot) in &state.slots {
                if let Slot::Ready { recency, .. } = slot {
                    ready += 1;
                    if victim.is_none_or(|(r, _)| *recency < r) {
                        victim = Some((*recency, page));
                    }
                }
            }
            if ready <= self.capacity {
                return;
            }
            let Some((_, page)) = victim else { return };
            state.slots.remove(&page);
        }
    }

    /// Base cell `(row, col)` of attribute `attr` through the cache, with
    /// the bounds and page geometry of `reference` (any one store).
    pub(crate) fn cell(
        &self,
        reference: &TileStore,
        attr: usize,
        row: usize,
        col: usize,
        load: impl FnOnce(usize) -> Result<PageBlock, ArchiveError>,
    ) -> Result<f64, ArchiveError> {
        if row >= reference.rows() || col >= reference.cols() {
            return Err(ArchiveError::OutOfBounds {
                row,
                col,
                rows: reference.rows(),
                cols: reference.cols(),
            });
        }
        let page = reference.page_of(row, col);
        let block = self.fetch(page, reference.stats(), || load(page))?;
        Ok(block.cell(attr, row, col))
    }
}

/// A [`TileSource`] behind a small shared LRU page cache.
///
/// Cell reads materialize the whole page (every attribute) once and serve
/// subsequent reads from memory. The cache is safe for concurrent readers
/// and *dedups in-flight reads*: while one thread materializes a page,
/// others asking for it block on a condvar instead of re-reading it from
/// the stores. Hits and misses are counted on the first store's
/// [`AccessStats`] (`cache_hits`, `cache_misses`);
/// budget accounting (`pages_read`, `ticks_elapsed`) keeps reflecting the
/// backing stores, so cache hits are free I/O — exactly the effect the
/// cache exists to buy.
///
/// Failed page reads are **not** cached: a later read attempts the page
/// again, preserving the stores' transient-fault-healing and quarantine
/// semantics. The same invariant covers checksum failures — pages are
/// materialized through
/// [`read_page_verified`](TileStore::read_page_verified), so a payload
/// that fails verification surfaces as
/// [`ArchiveError::PageCorrupt`] and is never inserted into the LRU.
/// (The plain [`TileSource`] stays a trusting legacy reader.)
#[derive(Debug)]
pub struct CachedTileSource<'a> {
    stores: &'a [TileStore],
    cache: PageCache,
}

impl<'a> CachedTileSource<'a> {
    /// Wraps per-attribute stores with an LRU cache of `capacity` pages
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when no stores are supplied or their
    /// shapes / tile sizes disagree (the same validation as
    /// [`TileSource::new`]).
    pub fn new(stores: &'a [TileStore], capacity: usize) -> Result<Self, CoreError> {
        TileSource::new(stores)?;
        Ok(CachedTileSource {
            stores,
            cache: PageCache::new(capacity),
        })
    }

    /// Publishes a snapshot-epoch advance to the cache: every cached page
    /// at or past `first_dirty_page` is dropped, and any load currently in
    /// flight is demoted to serve-without-caching (its block was
    /// materialized against the pre-advance view). Returns the number of
    /// resident pages dropped; the count is also recorded on the first
    /// store's stats as
    /// [`cache_invalidations`](mbir_archive::stats::AccessStats::cache_invalidations).
    ///
    /// Appends are tile-row aligned, so committed pages below the dirty
    /// boundary are immutable and stay cached; only the append frontier
    /// (and, after crash recovery, any truncated tail) is invalidated.
    pub fn advance_epoch(&self, first_dirty_page: usize) -> usize {
        self.cache
            .advance_epoch(first_dirty_page, self.stores[0].stats())
    }
}

impl CellSource for CachedTileSource<'_> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        // Verified reads: a corrupt payload errors out (and is therefore
        // never cached) instead of poisoning the LRU.
        self.cache.cell(&self.stores[0], attr, row, col, |page| {
            PageBlock::assemble(self.stores, page, |store| store.read_page_verified(page))
        })
    }

    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        Some(self.stores[0].page_of(row, col))
    }

    fn pages_read(&self) -> u64 {
        self.stores[0].stats().pages_read()
    }

    fn ticks_elapsed(&self) -> u64 {
        self.stores[0].stats().ticks_elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::grid::Grid2;

    fn grid(seed: u64) -> Grid2<f64> {
        Grid2::from_fn(8, 8, |r, c| (seed as f64) + (r * 8 + c) as f64)
    }

    #[test]
    fn pyramid_source_reads_base_means() {
        let pyr = AggregatePyramid::build(&grid(0));
        let pyrs = vec![pyr];
        let src = PyramidSource::new(&pyrs);
        assert_eq!(src.base_cell(0, 1, 5).unwrap(), 13.0);
        assert_eq!(src.page_of(1, 5), None);
        assert_eq!(src.pages_read(), 0);
        assert!(src.base_cell(0, 9, 0).is_err());
    }

    #[test]
    fn tile_source_validates_and_accounts() {
        let stats = AccessStats::new();
        let stores: Vec<TileStore> = (0..2)
            .map(|i| {
                TileStore::new(grid(i), 4)
                    .unwrap()
                    .with_stats(stats.clone())
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        assert_eq!(src.base_cell(1, 0, 0).unwrap(), 1.0);
        assert_eq!(src.page_of(5, 5), Some(3));
        assert_eq!(src.pages_read(), 1);
        assert!(src.ticks_elapsed() >= 1);

        assert!(TileSource::new(&[]).is_err());
        let odd = vec![
            TileStore::new(grid(0), 4).unwrap(),
            TileStore::new(grid(0), 2).unwrap(),
        ];
        assert!(TileSource::new(&odd).is_err());
    }

    fn cached_world() -> (Vec<TileStore>, AccessStats) {
        let stats = AccessStats::new();
        let stores: Vec<TileStore> = (0..2)
            .map(|i| {
                TileStore::new(grid(i), 4)
                    .unwrap()
                    .with_stats(stats.clone())
            })
            .collect();
        (stores, stats)
    }

    #[test]
    fn cached_source_serves_repeat_reads_from_memory() {
        let (stores, stats) = cached_world();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        assert_eq!(src.base_cell(0, 1, 1).unwrap(), 9.0);
        // Same page, both attributes: served from the cached block.
        assert_eq!(src.base_cell(1, 0, 2).unwrap(), 3.0);
        assert_eq!(stats.cache_misses(), 1);
        assert_eq!(stats.cache_hits(), 1);
        // One materialization = one page read per attribute store.
        assert_eq!(stats.pages_read(), 2);
        assert_eq!(src.pages_read(), 2);
        assert!(src.base_cell(0, 8, 0).is_err(), "out of bounds");
        assert_eq!(src.page_of(5, 5), Some(3));
    }

    #[test]
    fn cached_source_matches_uncached_values() {
        let (stores, _) = cached_world();
        let cached = CachedTileSource::new(&stores, 2).unwrap();
        let plain = TileSource::new(&stores).unwrap();
        for attr in 0..2 {
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(
                        cached.base_cell(attr, r, c).unwrap(),
                        plain.base_cell(attr, r, c).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn lru_eviction_keeps_capacity_and_recency() {
        let (stores, stats) = cached_world();
        let src = CachedTileSource::new(&stores, 1).unwrap();
        assert_eq!(src.cache.capacity, 1);
        src.base_cell(0, 0, 0).unwrap(); // page 0: miss
        src.base_cell(0, 0, 0).unwrap(); // hit
        src.base_cell(0, 4, 4).unwrap(); // page 3: miss, evicts page 0
        src.base_cell(0, 0, 0).unwrap(); // page 0 again: miss
        assert_eq!(stats.cache_misses(), 3);
        assert_eq!(stats.cache_hits(), 1);
        // Capacity 0 clamps to 1.
        assert_eq!(CachedTileSource::new(&stores, 0).unwrap().cache.capacity, 1);
    }

    #[test]
    fn failed_pages_are_not_cached_so_transients_heal() {
        use mbir_archive::fault::FaultProfile;
        let (stores, stats) = cached_world();
        // Fault only the first store: a page load reads every store, and
        // each store advances its own transient counter.
        let stores: Vec<TileStore> = stores
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    s.with_faults(FaultProfile::new().transient(0, 1))
                } else {
                    s
                }
            })
            .collect();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        // First touch fails (no retries configured)...
        assert!(src.base_cell(0, 0, 0).is_err());
        // ...but the failure was not cached, so the healed page reads fine.
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        assert_eq!(src.base_cell(1, 0, 0).unwrap(), 1.0);
        assert_eq!(stats.cache_misses(), 2, "both attempts were misses");
    }

    #[test]
    fn corrupted_pages_are_never_cached() {
        use mbir_archive::fault::FaultProfile;
        let (stores, stats) = cached_world();
        // Persistently corrupt page 0 of the first store.
        let stores: Vec<TileStore> = stores
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    s.with_faults(FaultProfile::new().corrupt(0))
                } else {
                    s
                }
            })
            .collect();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        // Every touch of page 0 detects the corruption and errors; nothing
        // is inserted, so every attempt is a fresh miss.
        for _ in 0..3 {
            assert_eq!(
                src.base_cell(0, 0, 0),
                Err(ArchiveError::PageCorrupt { page: 0 })
            );
        }
        assert_eq!(stats.cache_misses(), 3);
        assert_eq!(stats.cache_hits(), 0);
        assert_eq!(stats.corruptions(), 3);
        // Healthy pages still verify and cache normally.
        assert_eq!(src.base_cell(0, 4, 4).unwrap(), 36.0);
        assert_eq!(src.base_cell(1, 4, 4).unwrap(), 37.0);
        assert_eq!(stats.cache_hits(), 1);
    }

    #[test]
    fn cache_hits_do_not_touch_store_fault_state() {
        use mbir_archive::fault::FaultProfile;
        let (stores, stats) = cached_world();
        // Page 0 of the first store heals after one failure; with the page
        // cached, the store must never see the extra accesses that would
        // advance its transient counter or reset breaker runs.
        let stores: Vec<TileStore> = stores
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    s.with_faults(FaultProfile::new().transient(0, 1))
                } else {
                    s
                }
            })
            .collect();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        assert!(src.base_cell(0, 0, 0).is_err());
        assert_eq!(src.base_cell(0, 0, 0).unwrap(), 0.0);
        let pages_after_fill = stats.pages_read();
        let ticks_after_fill = stats.ticks_elapsed();
        // A burst of cache hits: values flow, but the stores observe
        // nothing — no page reads, no ticks, no fault-state movement.
        for _ in 0..16 {
            assert_eq!(src.base_cell(1, 1, 1).unwrap(), 10.0);
        }
        assert_eq!(stats.pages_read(), pages_after_fill);
        assert_eq!(stats.ticks_elapsed(), ticks_after_fill);
        assert_eq!(stats.failures(), 1, "only the original transient failure");
        assert_eq!(stats.cache_hits(), 16);
    }

    #[test]
    fn epoch_advance_drops_only_pages_past_the_dirty_boundary() {
        let (stores, stats) = cached_world();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        src.base_cell(0, 0, 0).unwrap(); // page 0
        src.base_cell(0, 4, 4).unwrap(); // page 3
        assert_eq!(src.cache.state.lock().unwrap().epoch, 0);
        // Pages >= 2 dirtied: page 3 drops, page 0 stays resident.
        assert_eq!(src.advance_epoch(2), 1);
        assert_eq!(src.cache.state.lock().unwrap().epoch, 1);
        assert_eq!(stats.cache_invalidations(), 1);
        let hits_before = stats.cache_hits();
        src.base_cell(1, 0, 0).unwrap();
        assert_eq!(stats.cache_hits(), hits_before + 1, "page 0 still cached");
        let misses_before = stats.cache_misses();
        src.base_cell(1, 4, 4).unwrap();
        assert_eq!(stats.cache_misses(), misses_before + 1, "page 3 re-read");
        // The re-materialization was past the original high-water mark.
        assert_eq!(stats.appended_pages_seen(), 1);
        // Nothing resident past page 4: a further advance drops nothing.
        assert_eq!(src.advance_epoch(4), 0);
        assert_eq!(stats.cache_invalidations(), 1);
    }

    #[test]
    fn epoch_advance_leaves_in_flight_loads_to_their_readers() {
        let (stores, stats) = cached_world();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        // Mark page 0 as in flight, exactly as fetch_page does before it
        // releases the lock to read the stores.
        let cache = &src.cache.state;
        cache.lock().unwrap().slots.insert(0, Slot::Loading);
        // The advance must not drop the Loading marker (its readers hold
        // no block yet) and must not count it as an invalidation...
        assert_eq!(src.advance_epoch(0), 0);
        assert_eq!(stats.cache_invalidations(), 0);
        let st = cache.lock().unwrap();
        assert!(matches!(st.slots.get(&0), Some(Slot::Loading)));
        // ...but the epoch bump demotes the straddling load: fetch_page
        // compares its pre-load epoch on completion and skips the insert.
        assert_eq!(st.epoch, 1);
    }

    #[test]
    fn concurrent_readers_dedup_in_flight_page_reads() {
        let (stores, stats) = cached_world();
        let src = CachedTileSource::new(&stores, 4).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let src = &src;
                scope.spawn(move || {
                    // All threads hammer page 0 cells.
                    let v = src.base_cell(t % 2, t / 4, t % 4).unwrap();
                    assert!(v.is_finite());
                });
            }
        });
        assert_eq!(stats.cache_misses(), 1, "one materialization total");
        assert_eq!(stats.cache_hits(), 7);
        assert_eq!(stats.pages_read(), 2, "one read per attribute store");
        // Threads that arrived while the page was in flight are counted
        // as dedup waits; the rest hit the already-ready slot. Either way
        // every wait resolved into a hit, never a duplicate store read.
        assert!(
            stats.cache_dedup_waits() <= stats.cache_hits(),
            "dedup waits {} exceed hits {}",
            stats.cache_dedup_waits(),
            stats.cache_hits()
        );
    }
}
