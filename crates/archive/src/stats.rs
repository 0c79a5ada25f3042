//! Access accounting: the paper's speedups are "data touched" ratios.
//!
//! Every retrieval path in the repository reports how many tuples (or
//! pixels) it evaluated and how many pages it pulled from the store. The
//! speedup of method A over baseline B is then
//! `B.tuples_touched / A.tuples_touched` (and likewise for pages), exactly
//! the metric the Onion evaluation quotes (13,000x for top-1 etc.).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe access counters.
///
/// Cloning an `AccessStats` yields a handle to the *same* counters, so one
/// instance can be threaded through a store and its readers.
///
/// # Examples
///
/// ```
/// use mbir_archive::stats::AccessStats;
///
/// let stats = AccessStats::new();
/// stats.record_tuples(10);
/// stats.record_pages(2);
/// assert_eq!(stats.tuples_touched(), 10);
/// assert_eq!(stats.pages_read(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccessStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    tuples: AtomicU64,
    pages: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
    quarantines: AtomicU64,
    corruptions: AtomicU64,
    ticks: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_dedup_waits: AtomicU64,
    hedges: AtomicU64,
    cache_invalidations: AtomicU64,
    appended_pages_seen: AtomicU64,
}

impl AccessStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Records `n` tuples (pixels, rows, samples) touched.
    pub fn record_tuples(&self, n: u64) {
        self.inner.tuples.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` pages read from backing storage.
    pub fn record_pages(&self, n: u64) {
        self.inner.pages.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` retried page accesses.
    pub fn record_retries(&self, n: u64) {
        self.inner.retries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` failed page-access attempts.
    pub fn record_failures(&self, n: u64) {
        self.inner.failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` pages newly quarantined by the circuit breaker.
    pub fn record_quarantines(&self, n: u64) {
        self.inner.quarantines.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page payloads that failed checksum verification
    /// (detected silent corruption).
    pub fn record_corruptions(&self, n: u64) {
        self.inner.corruptions.fetch_add(n, Ordering::Relaxed);
    }

    /// Advances the virtual I/O clock by `n` ticks (page access costs,
    /// injected latency, retry backoff).
    pub fn record_ticks(&self, n: u64) {
        self.inner.ticks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page reads served from a cache without touching the
    /// backing store.
    pub fn record_cache_hits(&self, n: u64) {
        self.inner.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page reads that missed a cache and went to the backing
    /// store.
    pub fn record_cache_misses(&self, n: u64) {
        self.inner.cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` in-flight dedup waits: cache lookups that found the
    /// page already being materialized by another reader and blocked for
    /// the shared result instead of issuing a duplicate store read. (The
    /// lookup is still counted as a hit once the page arrives — dedup
    /// waits are an overlay, not a third outcome.)
    pub fn record_cache_dedup_waits(&self, n: u64) {
        self.inner.cache_dedup_waits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` hedged page reads: duplicate requests issued to a
    /// backup replica because the primary exceeded its hedge delay.
    pub fn record_hedges(&self, n: u64) {
        self.inner.hedges.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cached pages dropped because a snapshot-epoch advance
    /// made them stale (append-side cache invalidation).
    pub fn record_cache_invalidations(&self, n: u64) {
        self.inner
            .cache_invalidations
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` page reads that touched pages committed by an append
    /// (pages past the reader's original high-water mark).
    pub fn record_appended_pages_seen(&self, n: u64) {
        self.inner
            .appended_pages_seen
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Tuples touched so far.
    pub fn tuples_touched(&self) -> u64 {
        self.inner.tuples.load(Ordering::Relaxed)
    }

    /// Pages read so far.
    pub fn pages_read(&self) -> u64 {
        self.inner.pages.load(Ordering::Relaxed)
    }

    /// Page-access retries so far.
    pub fn retries(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// Failed page-access attempts so far.
    pub fn failures(&self) -> u64 {
        self.inner.failures.load(Ordering::Relaxed)
    }

    /// Pages quarantined so far.
    pub fn quarantines(&self) -> u64 {
        self.inner.quarantines.load(Ordering::Relaxed)
    }

    /// Checksum verification failures so far.
    pub fn corruptions(&self) -> u64 {
        self.inner.corruptions.load(Ordering::Relaxed)
    }

    /// Virtual I/O clock: total ticks accrued by page accesses, injected
    /// latency, and retry backoff. Execution budgets use this as their
    /// deadline clock.
    pub fn ticks_elapsed(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.inner.cache_misses.load(Ordering::Relaxed)
    }

    /// In-flight dedup waits so far (see
    /// [`record_cache_dedup_waits`](Self::record_cache_dedup_waits)).
    pub fn cache_dedup_waits(&self) -> u64 {
        self.inner.cache_dedup_waits.load(Ordering::Relaxed)
    }

    /// Hedged page reads so far.
    pub fn hedges(&self) -> u64 {
        self.inner.hedges.load(Ordering::Relaxed)
    }

    /// Cached pages invalidated by snapshot-epoch advances so far.
    pub fn cache_invalidations(&self) -> u64 {
        self.inner.cache_invalidations.load(Ordering::Relaxed)
    }

    /// Appended (post-high-water-mark) pages seen by readers so far.
    pub fn appended_pages_seen(&self) -> u64 {
        self.inner.appended_pages_seen.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.inner.tuples.store(0, Ordering::Relaxed);
        self.inner.pages.store(0, Ordering::Relaxed);
        self.inner.retries.store(0, Ordering::Relaxed);
        self.inner.failures.store(0, Ordering::Relaxed);
        self.inner.quarantines.store(0, Ordering::Relaxed);
        self.inner.corruptions.store(0, Ordering::Relaxed);
        self.inner.ticks.store(0, Ordering::Relaxed);
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.cache_misses.store(0, Ordering::Relaxed);
        self.inner.cache_dedup_waits.store(0, Ordering::Relaxed);
        self.inner.hedges.store(0, Ordering::Relaxed);
        self.inner.cache_invalidations.store(0, Ordering::Relaxed);
        self.inner.appended_pages_seen.store(0, Ordering::Relaxed);
    }

    /// Simulated wall time under an I/O cost model — the page-access-based
    /// accounting the paper's era reported (disk seeks dominate, per-tuple
    /// CPU is cheap).
    pub fn simulated_ms(&self, model: &IoModel) -> f64 {
        self.pages_read() as f64 * model.page_ms + self.tuples_touched() as f64 * model.tuple_ms
    }
}

/// A simple I/O cost model: milliseconds per page read and per tuple
/// processed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoModel {
    /// Cost of fetching one page (seek + transfer).
    pub page_ms: f64,
    /// CPU cost of processing one tuple.
    pub tuple_ms: f64,
}

impl IoModel {
    /// A late-1990s disk profile (≈10 ms seek+read per page, 1 µs/tuple) —
    /// the regime in which the paper's page-count speedups were measured.
    pub fn disk_1999() -> Self {
        IoModel {
            page_ms: 10.0,
            tuple_ms: 0.001,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = AccessStats::new();
        s.record_tuples(5);
        s.record_tuples(7);
        s.record_pages(1);
        assert_eq!(s.tuples_touched(), 12);
        assert_eq!(s.pages_read(), 1);
        s.reset();
        assert_eq!(s.tuples_touched(), 0);
        assert_eq!(s.pages_read(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let a = AccessStats::new();
        let b = a.clone();
        b.record_tuples(4);
        assert_eq!(a.tuples_touched(), 4);
    }

    #[test]
    fn simulated_time_is_page_dominated_on_disk() {
        let s = AccessStats::new();
        s.record_pages(100);
        s.record_tuples(100 * 256);
        let disk = s.simulated_ms(&IoModel::disk_1999());
        // 100 pages x 10ms = 1000ms; tuples contribute ~26ms.
        assert!((disk - 1025.6).abs() < 1.0, "disk {disk}");
    }

    #[test]
    fn corruption_counter_accumulates_and_resets() {
        let s = AccessStats::new();
        s.record_corruptions(2);
        s.record_corruptions(1);
        assert_eq!(s.corruptions(), 3);
        s.reset();
        assert_eq!(s.corruptions(), 0);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let s = AccessStats::new();
        s.record_cache_misses(1);
        s.record_cache_hits(3);
        s.record_cache_dedup_waits(2);
        assert_eq!(s.cache_hits(), 3);
        assert_eq!(s.cache_misses(), 1);
        assert_eq!(s.cache_dedup_waits(), 2);
        s.reset();
        assert_eq!(s.cache_hits(), 0);
        assert_eq!(s.cache_misses(), 0);
        assert_eq!(s.cache_dedup_waits(), 0);
    }

    #[test]
    fn append_counters_accumulate_and_reset() {
        let s = AccessStats::new();
        s.record_cache_invalidations(3);
        s.record_appended_pages_seen(2);
        s.record_appended_pages_seen(5);
        assert_eq!(s.cache_invalidations(), 3);
        assert_eq!(s.appended_pages_seen(), 7);
        s.reset();
        assert_eq!(s.cache_invalidations(), 0);
        assert_eq!(s.appended_pages_seen(), 0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let s = AccessStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        h.record_tuples(1);
                    }
                });
            }
        });
        assert_eq!(s.tuples_touched(), 4000);
    }
}
