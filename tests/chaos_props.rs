//! Chaos property tests: random fault cocktails — silent corruption,
//! healing transients, dead pages, latency — against the integrity and
//! replication layer.
//!
//! The invariants under chaos:
//!
//! * Sequential and parallel resilient engines agree exactly (results,
//!   completeness, skipped pages, stop reason) at every thread count,
//!   because degradation is decided by deterministic bounds, not by
//!   which worker hit the fault first — and the sequential engine is
//!   bit-reproducible run to run, effort included.
//! * Every reported score sits inside its own sound bounds, and the true
//!   winner's score is never silently dropped.
//! * A single clean replica is enough: the replicated source masks any
//!   chaos confined to the other replica, bit-for-bit.

use mbir::core::engine::pyramid_top_k;
use mbir::core::lifecycle::CancelToken;
use mbir::core::parallel::{par_resilient_top_k, WorkerPool};
use mbir::core::replica::{ReplicaConfig, ReplicatedSource};
use mbir::core::resilient::{resilient_top_k, BudgetStop, ExecOptions, ExecutionBudget};
use mbir::core::source::{CachedTileSource, CellSource};
use mbir::models::linear::LinearModel;
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::error::ArchiveError;
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::grid::Grid2;
use mbir_archive::tile::TileStore;
use proptest::prelude::*;

/// Delegating source that cancels `token` once the inner source has read
/// `after` pages — deterministic page-granular mid-flight cancellation.
struct CancelAfterPages<'a, S: CellSource> {
    inner: &'a S,
    token: CancelToken,
    after: u64,
}

impl<S: CellSource> CellSource for CancelAfterPages<'_, S> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        let v = self.inner.base_cell(attr, row, col);
        if self.inner.pages_read() >= self.after {
            self.token.cancel();
        }
        v
    }
    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        self.inner.page_of(row, col)
    }
    fn pages_read(&self) -> u64 {
        self.inner.pages_read()
    }
    fn ticks_elapsed(&self) -> u64 {
        self.inner.ticks_elapsed()
    }
}

fn world(seed: u64, side: usize) -> (LinearModel, Vec<AggregatePyramid>, Vec<Grid2<f64>>) {
    let grids: Vec<Grid2<f64>> = (0..2)
        .map(|i| {
            Grid2::from_fn(side, side, |r, c| {
                let phase = (seed % 13) as f64 * 0.37 + i as f64;
                ((r as f64 / 6.0 + phase).sin() + (c as f64 / 8.0 - phase).cos()) * 30.0
                    + (seed % 7) as f64
            })
        })
        .collect();
    let pyramids = grids.iter().map(AggregatePyramid::build).collect();
    let w = 0.4 + (seed % 5) as f64 * 0.2;
    (
        LinearModel::new(vec![1.0, w], 0.1).unwrap(),
        pyramids,
        grids,
    )
}

fn page_hash(seed: u64, page: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(page as u64)
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        >> 32
}

/// A deterministic chaos cocktail: per page, roughly 1/8 silently
/// corrupted, 1/8 dead, 1/4 flaky-but-healing (within a 3-retry budget),
/// some with extra latency; the rest healthy. Returns the profile plus
/// the pages that can actually cost the engine data (corrupt ∪ dead).
fn chaos_profile(seed: u64, page_count: usize) -> (FaultProfile, Vec<usize>) {
    let mut profile = FaultProfile::new();
    let mut lossy = Vec::new();
    for page in 0..page_count {
        match page_hash(seed, page) % 16 {
            0 | 1 => {
                profile = profile.corrupt(page);
                lossy.push(page);
            }
            2 | 3 => {
                profile = profile.permanent(page);
                lossy.push(page);
            }
            4..=7 => {
                let fails = 1 + (page_hash(seed, page) % 3) as u32;
                profile = profile.transient(page, fails);
            }
            8 | 9 => {
                profile = profile.latency(page, 3);
            }
            _ => {}
        }
    }
    (profile, lossy)
}

/// Chaos-faulted stores with verification-capable retries.
fn chaos_stores(grids: &[Grid2<f64>], tile: usize, profile: &FaultProfile) -> Vec<TileStore> {
    grids
        .iter()
        .map(|g| {
            TileStore::new(g.clone(), tile)
                .unwrap()
                .with_faults(profile.clone())
                .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under a random chaos cocktail the sequential and parallel engines
    /// return the *same* (possibly degraded) answer at 1/2/4/8 threads —
    /// identical hits, effort, completeness, skipped pages, and stop.
    #[test]
    fn prop_chaos_answers_are_thread_count_invariant(
        seed in 0u64..150,
        side_pow in 3u32..6,   // 8..32
        tile in 2usize..9,
        k in 1usize..7,
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, grids) = world(seed, side);
        let page_count = TileStore::new(grids[0].clone(), tile).unwrap().page_count();
        let (profile, lossy) = chaos_profile(seed, page_count);
        let budget = ExecutionBudget::unlimited();

        // Fault state is consumed by each run: every engine run gets a
        // fresh world so all runs see the same fault schedule.
        let run_seq = || {
            let stores = chaos_stores(&grids, tile, &profile);
            let src = CachedTileSource::new(&stores, 8).unwrap();
            resilient_top_k(&model, &pyramids, k, &src, &budget).unwrap()
        };
        let run_par = |threads: usize| {
            let stores = chaos_stores(&grids, tile, &profile);
            let src = CachedTileSource::new(&stores, 8).unwrap();
            let pool = WorkerPool::new(threads);
            par_resilient_top_k(&model, &pyramids, k, &src, &budget, &pool).unwrap()
        };

        let seq = run_seq();
        prop_assert!((0.0..=1.0).contains(&seq.completeness));
        for hit in &seq.results {
            prop_assert!(hit.score.is_finite());
            prop_assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
        // Only corrupt or dead pages may be lost; healing transients and
        // latency must be invisible in the data.
        for page in &seq.skipped_pages {
            prop_assert!(lossy.contains(page), "page {} was not lossy", page);
        }
        if lossy.is_empty() {
            prop_assert!(!seq.is_degraded());
            let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
            for (a, b) in seq.results.iter().zip(&strict.results) {
                prop_assert_eq!(a.cell, b.cell);
                prop_assert_eq!(a.score, b.score);
            }
        }

        // Repeated sequential runs are bit-identical, effort included.
        prop_assert_eq!(&run_seq(), &seq);

        for threads in [1usize, 2, 4, 8] {
            let par = run_par(threads);
            // The answer is thread-count invariant...
            prop_assert_eq!(&par.results, &seq.results, "threads={}", threads);
            prop_assert_eq!(par.completeness, seq.completeness, "threads={}", threads);
            prop_assert_eq!(&par.skipped_pages, &seq.skipped_pages, "threads={}", threads);
            prop_assert_eq!(par.budget_stop, seq.budget_stop, "threads={}", threads);
            // ...while effort is only answer-independent bookkeeping:
            // per-worker warm-up adds a few scheduling-dependent bound
            // probes, so only the naive baseline is pinned.
            prop_assert_eq!(
                par.effort.naive_multiply_adds,
                seq.effort.naive_multiply_adds
            );
        }
    }

    /// One clean replica masks any chaos on the other: the replicated
    /// source returns the exact fault-free answer with no degradation.
    #[test]
    fn prop_one_clean_replica_masks_chaos(
        seed in 0u64..150,
        side_pow in 3u32..5,   // 8..16
        tile in 2usize..9,
        k in 1usize..5,
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, grids) = world(seed, side);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let page_count = TileStore::new(grids[0].clone(), tile).unwrap().page_count();
        let (profile, _) = chaos_profile(seed, page_count);

        let chaotic = chaos_stores(&grids, tile, &profile);
        let clean: Vec<TileStore> = grids
            .iter()
            .map(|g| TileStore::new(g.clone(), tile).unwrap())
            .collect();
        let src = ReplicatedSource::new(vec![&chaotic, &clean], ReplicaConfig::default()).unwrap();
        let r = resilient_top_k(&model, &pyramids, k, &src, &ExecutionBudget::unlimited()).unwrap();

        prop_assert!(!r.is_degraded());
        prop_assert_eq!(r.completeness, 1.0);
        prop_assert!(r.skipped_pages.is_empty());
        prop_assert_eq!(r.results.len(), strict.results.len());
        for (a, b) in r.results.iter().zip(&strict.results) {
            prop_assert_eq!(a.cell, b.cell);
            prop_assert_eq!(a.score, b.score);
            prop_assert!(a.exact);
        }
    }

    /// The degraded answer never silently drops the true winner: some
    /// reported bound always covers its exact score.
    #[test]
    fn prop_true_winner_stays_within_reported_bounds(
        seed in 0u64..150,
        side_pow in 3u32..6,
        tile in 2usize..9,
        k in 1usize..7,
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, grids) = world(seed, side);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let truth = strict.results[0].score;
        let page_count = TileStore::new(grids[0].clone(), tile).unwrap().page_count();
        let (profile, _) = chaos_profile(seed, page_count);

        let stores = chaos_stores(&grids, tile, &profile);
        let src = CachedTileSource::new(&stores, 8).unwrap();
        let r = resilient_top_k(&model, &pyramids, k, &src, &ExecutionBudget::unlimited()).unwrap();

        prop_assert!(
            r.results
                .iter()
                .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
            "winner score {} escaped all bounds", truth
        );
    }

    /// Cancelling at a random page index *on top of* a random chaos
    /// cocktail still yields sound bounds that cover the true winner —
    /// cancellation degrades, it never corrupts.
    #[test]
    fn prop_cancellation_under_chaos_keeps_winner_in_bounds(
        seed in 0u64..150,
        side_pow in 3u32..6,
        tile in 2usize..9,
        k in 1usize..7,
        cancel_after in 0u64..24,
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, grids) = world(seed, side);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let truth = strict.results[0].score;
        let page_count = TileStore::new(grids[0].clone(), tile).unwrap().page_count();
        let (profile, _) = chaos_profile(seed, page_count);

        let stores = chaos_stores(&grids, tile, &profile);
        let inner = CachedTileSource::new(&stores, 8).unwrap();
        let token = CancelToken::new();
        let src = CancelAfterPages { inner: &inner, token: token.clone(), after: cancel_after };
        let budget = ExecutionBudget::unlimited();
        let r = resilient_top_k(
            &model, &pyramids, k, &src, ExecOptions::new(&budget).cancel(&token),
        )
        .unwrap();

        // With an unlimited budget the only possible early stop is the
        // cancellation itself.
        prop_assert!(matches!(r.budget_stop, None | Some(BudgetStop::Cancelled)));
        prop_assert!((0.0..=1.0).contains(&r.completeness));
        for hit in &r.results {
            prop_assert!(hit.score.is_finite());
            prop_assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
        prop_assert!(
            r.results
                .iter()
                .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
            "winner score {} escaped all bounds", truth
        );
    }
}
