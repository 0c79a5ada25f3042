//! Property tests for the resilience contract.
//!
//! The central property: fault profiles whose every fault heals within
//! the retry budget are *invisible* — the resilient engine returns exactly
//! the fault-free `pyramid_top_k` answer (cells, scores, completeness).
//! And under arbitrary permanent faults the engine never panics and never
//! reports unsound bounds.

use mbir::core::engine::pyramid_top_k;
use mbir::core::lifecycle::CancelToken;
use mbir::core::resilient::{resilient_top_k, BudgetStop, ExecOptions, ExecutionBudget};
use mbir::core::source::{CellSource, TileSource};
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

fn world(
    seed: u64,
    side: usize,
    tile: usize,
) -> (LinearModel, Vec<AggregatePyramid>, Vec<TileStore>) {
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
    let stores = grids
        .iter()
        .map(|g| TileStore::new(g.clone(), tile).unwrap())
        .collect();
    let w = 0.4 + (seed % 5) as f64 * 0.2;
    (
        LinearModel::new(vec![1.0, w], 0.1).unwrap(),
        pyramids,
        stores,
    )
}

/// A deterministic pseudo-random subset of pages derived from `seed`.
fn fault_pages(seed: u64, page_count: usize) -> Vec<usize> {
    (0..page_count)
        .filter(|p| {
            seed.wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(*p as u64)
                .wrapping_mul(6364136223846793005)
                >> 61
                == 0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Transient faults that heal within the retry budget leave the
    /// answer bit-identical to the fault-free engine.
    #[test]
    fn prop_healing_faults_are_invisible(
        seed in 0u64..200,
        side_pow in 3u32..6,   // 8..32
        tile in 2usize..9,
        k in 1usize..7,
        fails in 1u32..4,      // heals after 1..3 failures
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, stores) = world(seed, side, tile);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();

        // Every selected page flakes `fails` times; the retry budget is
        // always one larger, so every fault heals within it.
        let profile = fault_pages(seed, stores[0].page_count())
            .into_iter()
            .fold(FaultProfile::new(), |p, page| p.transient(page, fails));
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| {
                s.with_faults(profile.clone())
                    .with_resilience(ResilienceConfig::new(RetryPolicy::retries(fails), None))
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, k, &src, &ExecutionBudget::unlimited())
            .unwrap();

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

    /// Under arbitrary permanent faults the engine never panics, reports
    /// completeness in [0, 1], and every hit's bounds contain its score.
    #[test]
    fn prop_permanent_faults_degrade_soundly(
        seed in 0u64..200,
        side_pow in 3u32..6,
        tile in 2usize..9,
        k in 1usize..7,
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, stores) = world(seed, side, tile);
        let faulty = fault_pages(seed, stores[0].page_count());
        let profile = faulty
            .iter()
            .fold(FaultProfile::new(), |p, page| p.permanent(*page));
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(profile.clone()))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, k, &src, &ExecutionBudget::unlimited())
            .unwrap();

        prop_assert!((0.0..=1.0).contains(&r.completeness));
        prop_assert!(!r.results.is_empty());
        for hit in &r.results {
            prop_assert!(hit.score.is_finite());
            prop_assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
        // Skipped pages can only be pages that actually carry faults.
        for page in &r.skipped_pages {
            prop_assert!(faulty.contains(page), "page {} was not faulty", page);
        }
        // No faults selected -> no degradation at all.
        if faulty.is_empty() {
            prop_assert!(!r.is_degraded());
        }
    }

    /// Cancelling at a random page index under random permanent faults
    /// still yields sound bounds, and some reported bound always covers
    /// the true winner's exact score.
    #[test]
    fn prop_cancellation_under_faults_keeps_winner_in_bounds(
        seed in 0u64..200,
        side_pow in 3u32..6,
        tile in 2usize..9,
        k in 1usize..7,
        cancel_after in 0u64..24,
    ) {
        let side = 1usize << side_pow;
        let (model, pyramids, stores) = world(seed, side, tile);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let truth = strict.results[0].score;
        let profile = fault_pages(seed, stores[0].page_count())
            .into_iter()
            .fold(FaultProfile::new(), |p, page| p.permanent(page));
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(profile.clone()))
            .collect();
        let inner = TileSource::new(&stores).unwrap();
        let token = CancelToken::new();
        let src = CancelAfterPages { inner: &inner, token: token.clone(), after: cancel_after };
        let budget = ExecutionBudget::unlimited();
        let r = resilient_top_k(
            &model, &pyramids, k, &src, ExecOptions::new(&budget).cancel(&token),
        )
        .unwrap();

        // Under an unlimited budget the only possible early stop is the
        // cancellation itself (a run that finishes before the token trips
        // reports no stop at all).
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
