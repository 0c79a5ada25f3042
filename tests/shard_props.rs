//! Scatter-gather property tests: random shard-fault cocktails against
//! the fault-domain sharded engine.
//!
//! The invariants:
//!
//! * Healthy sharded runs are bit-identical to the unsharded resilient
//!   engine for any shard count × thread count — partitioning is a pure
//!   execution detail, invisible in the answer.
//! * Under arbitrary per-shard chaos (dead domains, corrupt pages,
//!   healing transients, latency) every hit's score stays inside its own
//!   bounds, exact hits match the base data, and the true winner is never
//!   silently dropped from the reported bounds.
//! * Killing the winner's fault domain always surfaces through quorum:
//!   `require_all` fails with a fully-populated typed
//!   [`InsufficientShards`] error — never a silently truncated answer —
//!   while `best_effort` degrades and classifies the domain as failed.
//! * Merging per-shard degradation summaries conserves every count:
//!   pages read + skipped + quarantined is invariant under the merge,
//!   and completeness is the cell-weighted mean.
//!
//! [`InsufficientShards`]: mbir::core::shard::InsufficientShards

use mbir::core::engine::pyramid_top_k;
use mbir::core::metrics::{merge_shard_summaries, DegradationSummary};
use mbir::core::parallel::WorkerPool;
use mbir::core::resilient::{resilient_top_k, ExecutionBudget};
use mbir::core::shard::{
    scatter_gather_top_k, ArchiveShard, ScatterPolicy, ShardError, ShardOutcome, ShardedArchive,
    ShardedTopK,
};
use mbir::core::source::{CachedTileSource, TileSource};
use mbir::models::linear::LinearModel;
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::grid::Grid2;
use mbir_archive::shard::ShardPlan;
use mbir_archive::tile::TileStore;
use proptest::prelude::*;

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

/// What a shard's fault domain is subjected to in a cocktail.
#[derive(Clone, Copy, PartialEq)]
enum ShardFate {
    Healthy,
    /// Every page permanently dead — the whole domain is lost.
    Dead,
    /// Random per-page chaos: corrupt, dead, healing-transient, latency.
    Chaos,
}

/// Per-shard band pyramids + faulted stores + row offsets, built from
/// the same global grids the unsharded reference uses.
struct ShardFixture {
    pyramids: Vec<Vec<AggregatePyramid>>,
    stores: Vec<Vec<TileStore>>,
    offsets: Vec<usize>,
    /// True when some shard can actually lose data (dead or corrupt).
    lossy: bool,
}

fn build_shards(
    grids: &[Grid2<f64>],
    tile: usize,
    shards: usize,
    seed: u64,
    fates: &[ShardFate],
) -> ShardFixture {
    let plan = ShardPlan::row_bands(grids[0].rows(), grids[0].cols(), shards, tile).unwrap();
    let mut fixture = ShardFixture {
        pyramids: Vec::new(),
        stores: Vec::new(),
        offsets: Vec::new(),
        lossy: false,
    };
    for band in plan.bands() {
        let band_grids: Vec<Grid2<f64>> = grids
            .iter()
            .map(|g| plan.extract_band(g, band.shard).unwrap())
            .collect();
        let page_count = TileStore::new(band_grids[0].clone(), tile)
            .unwrap()
            .page_count();
        let shard_seed = seed.wrapping_add(band.shard as u64 * 977);
        let profile = match fates[band.shard] {
            ShardFate::Healthy => None,
            ShardFate::Dead => {
                fixture.lossy = true;
                Some((0..page_count).fold(FaultProfile::new(), |p, pg| p.permanent(pg)))
            }
            ShardFate::Chaos => {
                let mut profile = FaultProfile::new();
                for page in 0..page_count {
                    match page_hash(shard_seed, page) % 16 {
                        0 | 1 => {
                            profile = profile.corrupt(page);
                            fixture.lossy = true;
                        }
                        2 | 3 => {
                            profile = profile.permanent(page);
                            fixture.lossy = true;
                        }
                        4..=7 => {
                            let fails = 1 + (page_hash(shard_seed, page) % 3) as u32;
                            profile = profile.transient(page, fails);
                        }
                        8 | 9 => profile = profile.latency(page, 3),
                        _ => {}
                    }
                }
                Some(profile)
            }
        };
        fixture.pyramids.push(
            band_grids
                .iter()
                .map(AggregatePyramid::build)
                .collect::<Vec<_>>(),
        );
        fixture.stores.push(
            band_grids
                .iter()
                .map(|g| {
                    let store = TileStore::new(g.clone(), tile).unwrap();
                    match &profile {
                        Some(p) => store
                            .with_faults(p.clone())
                            .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None)),
                        None => store,
                    }
                })
                .collect::<Vec<_>>(),
        );
        fixture.offsets.push(band.row_offset);
    }
    fixture
}

fn run_scatter(
    fixture: &ShardFixture,
    model: &LinearModel,
    k: usize,
    policy: &ScatterPolicy,
    threads: usize,
) -> Result<ShardedTopK, ShardError> {
    // Verified reads: silent page corruption must surface as a typed
    // error (and thus a lost page), never as wrong data in a hit.
    let sources: Vec<CachedTileSource<'_>> = fixture
        .stores
        .iter()
        .map(|s| CachedTileSource::new(s, 8).unwrap())
        .collect();
    let handles: Vec<ArchiveShard<'_, CachedTileSource<'_>>> = fixture
        .pyramids
        .iter()
        .zip(&sources)
        .zip(&fixture.offsets)
        .map(|((pyramids, source), &offset)| ArchiveShard::new(pyramids, source, offset))
        .collect();
    let archive = ShardedArchive::new(handles)?;
    let pool = WorkerPool::new(threads);
    scatter_gather_top_k(
        model,
        &archive,
        k,
        &ExecutionBudget::unlimited(),
        policy,
        &pool,
    )
}

/// Caps the shard count at the number of whole tile rows so every shard
/// owns at least one page row.
fn shard_count_for(side: usize, tile: usize, raw: usize) -> usize {
    1 + raw % side.div_ceil(tile).min(5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A healthy sharded run is bit-identical to the unsharded resilient
    /// engine at any shard count and thread count.
    #[test]
    fn prop_healthy_sharded_runs_match_the_unsharded_engine(
        seed in 0u64..120,
        side_pow in 4u32..6,   // 16..32
        tile in 2usize..6,
        shards_raw in 0usize..16,
        k in 1usize..7,
        threads_idx in 0usize..4,
    ) {
        let side = 1usize << side_pow;
        let shards = shard_count_for(side, tile, shards_raw);
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (model, pyramids, grids) = world(seed, side);
        let stores: Vec<TileStore> = grids
            .iter()
            .map(|g| TileStore::new(g.clone(), tile).unwrap())
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let reference =
            resilient_top_k(&model, &pyramids, k, &src, &ExecutionBudget::unlimited()).unwrap();

        let fates = vec![ShardFate::Healthy; shards];
        let fixture = build_shards(&grids, tile, shards, seed, &fates);
        let r = run_scatter(&fixture, &model, k, &ScatterPolicy::require_all(), threads).unwrap();

        prop_assert_eq!(&r.results, &reference.results, "shards={} threads={}", shards, threads);
        prop_assert_eq!(r.completeness, 1.0);
        prop_assert!(r.shards.iter().all(|s| s.outcome == ShardOutcome::Complete));
        prop_assert!(!r.is_degraded());
    }

    /// Any random shard-fault cocktail yields a sound best-effort answer:
    /// scores inside their own bounds, exact hits verifiable against the
    /// base grids, and the true winner covered by some reported bound.
    #[test]
    fn prop_shard_fault_cocktails_never_produce_wrong_answers(
        seed in 0u64..120,
        side_pow in 4u32..6,
        tile in 2usize..6,
        shards_raw in 0usize..16,
        k in 1usize..7,
        threads_idx in 0usize..4,
        fate_seed in 0u64..1024,
    ) {
        let side = 1usize << side_pow;
        let shards = shard_count_for(side, tile, shards_raw);
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (model, pyramids, grids) = world(seed, side);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let truth = strict.results[0].score;

        let fates: Vec<ShardFate> = (0..shards)
            .map(|s| match page_hash(fate_seed, s) % 4 {
                0 => ShardFate::Dead,
                1 | 2 => ShardFate::Chaos,
                _ => ShardFate::Healthy,
            })
            .collect();
        let fixture = build_shards(&grids, tile, shards, seed, &fates);
        let r = run_scatter(&fixture, &model, k, &ScatterPolicy::best_effort(), threads).unwrap();

        prop_assert!((0.0..=1.0).contains(&r.completeness));
        for hit in &r.results {
            prop_assert!(hit.score.is_finite());
            prop_assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
            if hit.exact {
                let x: Vec<f64> = grids.iter().map(|g| *g.at(hit.cell.row, hit.cell.col)).collect();
                prop_assert_eq!(hit.score, model.evaluate(&x), "exact hit at {:?}", hit.cell);
            }
        }
        prop_assert!(
            r.results
                .iter()
                .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
            "winner score {} escaped all bounds", truth
        );
        // The shard scoreboard stays consistent with the fates dealt.
        for report in &r.shards {
            if fates[report.shard] == ShardFate::Healthy {
                prop_assert!(report.outcome != ShardOutcome::Failed, "healthy shard failed");
            }
        }
        // A fault-free cocktail must collapse to the exact strict answer.
        if !fixture.lossy {
            prop_assert!(!r.is_degraded());
            prop_assert_eq!(r.completeness, 1.0);
            for (a, b) in r.results.iter().zip(&strict.results) {
                prop_assert_eq!(a.cell, b.cell);
                prop_assert_eq!(a.score, b.score);
                prop_assert!(a.exact);
            }
        }
    }

    /// Killing the winner's fault domain can never be masked by pruning,
    /// so `require_all` must surface it as a fully-populated typed
    /// `InsufficientShards` error — while `best_effort` still answers,
    /// classifying the domain as failed.
    #[test]
    fn prop_dead_winner_domain_is_typed_never_truncated(
        seed in 0u64..120,
        side_pow in 4u32..6,
        tile in 2usize..6,
        shards_raw in 1usize..16,
        k in 1usize..7,
        threads_idx in 0usize..4,
    ) {
        let side = 1usize << side_pow;
        let shards = shard_count_for(side, tile, shards_raw);
        if shards < 2 {
            // A single shard cannot lose its winner and still respond.
            return;
        }
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (model, pyramids, grids) = world(seed, side);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let plan = ShardPlan::row_bands(side, side, shards, tile).unwrap();
        let winner_shard = plan.shard_of_row(strict.results[0].cell.row).unwrap();

        let fates: Vec<ShardFate> = (0..shards)
            .map(|s| if s == winner_shard { ShardFate::Dead } else { ShardFate::Healthy })
            .collect();
        let fixture = build_shards(&grids, tile, shards, seed, &fates);

        match run_scatter(&fixture, &model, k, &ScatterPolicy::require_all(), threads) {
            Err(ShardError::Insufficient(e)) => {
                prop_assert_eq!(e.total, shards);
                prop_assert_eq!(e.required, shards);
                prop_assert!(e.responded < shards);
                prop_assert_eq!(e.responded + e.failed.len(), shards);
                prop_assert!(e.failed.contains(&winner_shard));
            }
            other => panic!(
                "require-all over a dead winner domain must fail typed, got {:?}",
                other.map(|r| r.results.len())
            ),
        }

        let fixture = build_shards(&grids, tile, shards, seed, &fates);
        let r = run_scatter(&fixture, &model, k, &ScatterPolicy::best_effort(), threads).unwrap();
        prop_assert_eq!(r.shards[winner_shard].outcome, ShardOutcome::Failed);
        prop_assert!(r.completeness < 1.0);
        let truth = strict.results[0].score;
        prop_assert!(
            r.results
                .iter()
                .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
            "winner score {} escaped all bounds", truth
        );
    }

    /// Merging per-shard degradation summaries conserves every count:
    /// pages read + skipped is invariant under the merge,
    /// lifecycle tallies sum, and completeness is the cell-weighted mean.
    #[test]
    fn prop_merged_shard_summaries_conserve_counts(
        part_seed in 0u64..100_000,
        part_count in 0usize..8,
    ) {
        // The vendored proptest shim has no tuple strategies, so the
        // per-shard summaries are derived deterministically from a drawn
        // seed instead of sampled field by field.
        let draw = |salt: u64, modulus: u64| page_hash(part_seed.wrapping_add(salt * 7919), 0) % modulus;
        let parts: Vec<(DegradationSummary, u64)> = (0..part_count)
            .map(|i| {
                let s = i as u64;
                (
                    DegradationSummary {
                        completeness: draw(s * 13 + 1, 1001) as f64 / 1000.0,
                        skipped_pages: draw(s * 13 + 2, 50) as usize,
                        inexact_hits: draw(s * 13 + 3, 10) as usize,
                        widest_bound: draw(s * 13 + 4, 800) as f64 / 100.0,
                        budget_stopped: draw(s * 13 + 5, 2) == 1,
                        shed_queries: draw(s * 13 + 6, 20),
                        cancelled_queries: draw(s * 13 + 7, 20),
                        hedged_reads: draw(s * 13 + 8, 20),
                        pages_read: draw(s * 13 + 9, 200),
                    },
                    1 + draw(s * 13 + 11, 499),
                )
            })
            .collect();
        let merged = merge_shard_summaries(&parts);

        // The page ledger is conserved exactly — in total and per column.
        let ledger = |s: &DegradationSummary| s.pages_read + s.skipped_pages as u64;
        prop_assert_eq!(
            ledger(&merged),
            parts.iter().map(|(s, _)| ledger(s)).sum::<u64>()
        );
        prop_assert_eq!(merged.pages_read, parts.iter().map(|(s, _)| s.pages_read).sum::<u64>());
        prop_assert_eq!(
            merged.skipped_pages,
            parts.iter().map(|(s, _)| s.skipped_pages).sum::<usize>()
        );
        prop_assert_eq!(merged.inexact_hits, parts.iter().map(|(s, _)| s.inexact_hits).sum::<usize>());
        prop_assert_eq!(merged.shed_queries, parts.iter().map(|(s, _)| s.shed_queries).sum::<u64>());
        prop_assert_eq!(
            merged.cancelled_queries,
            parts.iter().map(|(s, _)| s.cancelled_queries).sum::<u64>()
        );
        prop_assert_eq!(merged.hedged_reads, parts.iter().map(|(s, _)| s.hedged_reads).sum::<u64>());
        prop_assert_eq!(merged.budget_stopped, parts.iter().any(|(s, _)| s.budget_stopped));
        let widest = parts.iter().map(|(s, _)| s.widest_bound).fold(0.0f64, f64::max);
        prop_assert_eq!(merged.widest_bound, widest);

        let total: u64 = parts.iter().map(|(_, c)| c).sum();
        if total == 0 {
            prop_assert_eq!(merged.completeness, 1.0);
        } else {
            let weighted: f64 = parts
                .iter()
                .map(|(s, c)| s.completeness * *c as f64)
                .sum::<f64>()
                / total as f64;
            prop_assert!((merged.completeness - weighted).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&merged.completeness));
        }
    }

    /// Degenerate summary merges: the empty shard list is vacuously
    /// complete, a single part merges to itself, and an all-failed fleet
    /// (zero completeness, zero pages read, everything skipped) merges to
    /// zero completeness with the skip ledger conserved.
    #[test]
    fn prop_degenerate_summary_merges(
        part_seed in 0u64..100_000,
        part_count in 1usize..8,
    ) {
        let empty = merge_shard_summaries(&[]);
        prop_assert_eq!(empty.completeness, 1.0);
        prop_assert_eq!(empty.pages_read, 0);
        prop_assert_eq!(empty.skipped_pages, 0);
        prop_assert!(!empty.budget_stopped);

        let draw = |salt: u64, modulus: u64| page_hash(part_seed.wrapping_add(salt * 6151), 1) % modulus;
        let single = (
            DegradationSummary {
                completeness: draw(1, 1001) as f64 / 1000.0,
                skipped_pages: draw(2, 50) as usize,
                inexact_hits: draw(3, 10) as usize,
                widest_bound: draw(4, 800) as f64 / 100.0,
                budget_stopped: draw(5, 2) == 1,
                shed_queries: draw(6, 20),
                cancelled_queries: draw(7, 20),
                hedged_reads: draw(8, 20),
                pages_read: draw(9, 200),
            },
            1 + draw(11, 499),
        );
        let merged_single = merge_shard_summaries(std::slice::from_ref(&single));
        prop_assert!((merged_single.completeness - single.0.completeness).abs() < 1e-12);
        prop_assert_eq!(merged_single.pages_read, single.0.pages_read);
        prop_assert_eq!(merged_single.skipped_pages, single.0.skipped_pages);
        prop_assert_eq!(merged_single.widest_bound, single.0.widest_bound);
        prop_assert_eq!(merged_single.budget_stopped, single.0.budget_stopped);

        let all_failed: Vec<(DegradationSummary, u64)> = (0..part_count)
            .map(|i| {
                (
                    DegradationSummary {
                        completeness: 0.0,
                        skipped_pages: 1 + draw(i as u64 * 17 + 15, 40) as usize,
                        inexact_hits: 0,
                        widest_bound: 0.0,
                        budget_stopped: false,
                        shed_queries: 0,
                        cancelled_queries: 0,
                        hedged_reads: 0,
                        pages_read: 0,
                    },
                    1 + draw(i as u64 * 17 + 18, 499),
                )
            })
            .collect();
        let merged = merge_shard_summaries(&all_failed);
        prop_assert_eq!(merged.completeness, 0.0, "all-failed fleet merges to zero completeness");
        prop_assert_eq!(merged.pages_read, 0);
        prop_assert_eq!(
            merged.skipped_pages,
            all_failed.iter().map(|(s, _)| s.skipped_pages).sum::<usize>()
        );
    }

    /// Every fault domain dead at once: the best-effort scatter still
    /// answers, `sharded_degradation_summary` reports zero completeness
    /// with a zero page ledger, and the true winner stays covered by the
    /// widened root-level bounds — degraded, never wrong.
    #[test]
    fn prop_all_dead_shards_summarize_soundly(
        seed in 0u64..120,
        side_pow in 4u32..6,
        tile in 2usize..6,
        shards_raw in 0usize..16,
        k in 1usize..7,
        threads_idx in 0usize..4,
    ) {
        let side = 1usize << side_pow;
        let shards = shard_count_for(side, tile, shards_raw);
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (model, pyramids, grids) = world(seed, side);
        let strict = pyramid_top_k(&model, &pyramids, k).unwrap();
        let truth = strict.results[0].score;

        let fates = vec![ShardFate::Dead; shards];
        let fixture = build_shards(&grids, tile, shards, seed, &fates);
        let r = run_scatter(&fixture, &model, k, &ScatterPolicy::best_effort(), threads).unwrap();

        prop_assert!(r.shards.iter().all(|s| s.outcome == ShardOutcome::Failed));
        prop_assert!(r.is_degraded());
        let summary = mbir::core::metrics::sharded_degradation_summary(&r);
        prop_assert_eq!(summary.completeness, 0.0, "nothing resolved anywhere");
        prop_assert_eq!(summary.completeness, r.completeness);
        prop_assert_eq!(summary.pages_read, 0);
        prop_assert!(
            r.results.iter().any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
            "winner score {} escaped all bounds with every domain dead", truth
        );
        for hit in &r.results {
            prop_assert!(!hit.exact, "no exact hit can exist without base reads");
            prop_assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
    }

    /// Degenerate plan geometry: single-row bands under `tile = 1`.
    /// `from_band_rows` accepts them, `extract_band` returns each row
    /// byte-for-byte, and `band_slices` routes any row range through the
    /// right owners.
    #[test]
    fn prop_single_row_bands_extract_and_slice(
        seed in 0u64..120,
        rows in 2usize..10,
        cols in 1usize..12,
        lo_raw in 0usize..10,
        len_raw in 0usize..10,
    ) {
        let heights = vec![1usize; rows];
        let plan = mbir_archive::shard::ShardPlan::from_band_rows(&heights, cols, 1).unwrap();
        prop_assert_eq!(plan.shard_count(), rows);
        let grid = Grid2::from_fn(rows, cols, |r, c| (seed as f64) + (r * cols + c) as f64);
        for s in 0..rows {
            let band = plan.extract_band(&grid, s).unwrap();
            prop_assert_eq!(band.rows(), 1);
            for c in 0..cols {
                prop_assert_eq!(band.at(0, c).to_bits(), grid.at(s, c).to_bits());
            }
        }
        let lo = lo_raw % rows;
        let len = 1 + len_raw % (rows - lo);
        let slices = plan.band_slices(lo, len).unwrap();
        prop_assert_eq!(slices.len(), len, "one slice per single-row band");
        for (i, slice) in slices.iter().enumerate() {
            prop_assert_eq!(slice.shard, lo + i);
            prop_assert_eq!(slice.global_row, lo + i);
            prop_assert_eq!(slice.local_row, 0);
            prop_assert_eq!(slice.rows, 1);
        }
    }
}
