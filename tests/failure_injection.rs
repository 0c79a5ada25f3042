//! Failure injection: simulated page faults and degenerate inputs must
//! surface as typed errors without corrupting results.

use mbir::core::engine::pyramid_top_k;
use mbir::core::parallel::{par_resilient_top_k, WorkerPool};
use mbir::core::replica::{BreakerState, ReplicaConfig, ReplicatedSource};
use mbir::core::resilient::{resilient_top_k, BudgetStop, ExecutionBudget};
use mbir::core::source::TileSource;
use mbir::core::workflow::{run_workflow, WorkflowConfig};
use mbir::models::linear::LinearModel;
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::error::ArchiveError;
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::grid::Grid2;
use mbir_archive::stats::AccessStats;
use mbir_archive::tile::TileStore;

/// A smooth two-attribute world: grids, pyramids, and tile stores sharing
/// one stats handle.
fn paged_world(
    rows: usize,
    cols: usize,
    tile: usize,
) -> (
    LinearModel,
    Vec<AggregatePyramid>,
    Vec<TileStore>,
    AccessStats,
) {
    let grids: Vec<Grid2<f64>> = (0..2)
        .map(|i| {
            Grid2::from_fn(rows, cols, |r, c| {
                ((r as f64 / 7.0 + i as f64).sin() + (c as f64 / 9.0).cos()) * 40.0 + 90.0
            })
        })
        .collect();
    let pyramids = grids.iter().map(AggregatePyramid::build).collect();
    let stats = AccessStats::new();
    let stores = grids
        .iter()
        .map(|g| {
            TileStore::new(g.clone(), tile)
                .unwrap()
                .with_stats(stats.clone())
        })
        .collect();
    let model = LinearModel::new(vec![1.0, 0.6], 0.2).unwrap();
    (model, pyramids, stores, stats)
}

#[test]
fn page_faults_propagate_from_scans() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let mut store = TileStore::new(grid, 4).unwrap();
    store.fail_page(5);
    let mut delivered = 0usize;
    let err = store.scan(|_, _| delivered += 1).unwrap_err();
    assert_eq!(err, ArchiveError::PageIo { page: 5 });
    // Pages before the failure were fully delivered, nothing after.
    assert_eq!(delivered, 5 * 16);
    // Stats reflect only successful reads.
    assert_eq!(store.stats().pages_read(), 5);
}

#[test]
fn partial_reads_can_route_around_bad_pages() {
    let grid = Grid2::from_fn(8, 8, |r, c| (r + c) as f64);
    let mut store = TileStore::new(grid, 4).unwrap();
    store.fail_page(0);
    let mut good_pages = 0;
    let mut failures = 0;
    for page in 0..store.page_count() {
        match store.read_page(page) {
            Ok(_) => good_pages += 1,
            Err(ArchiveError::PageIo { page }) => {
                assert_eq!(page, 0);
                failures += 1;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert_eq!(good_pages, 3);
    assert_eq!(failures, 1);
}

#[test]
fn engine_rejects_degenerate_worlds_without_panicking() {
    let tiny = AggregatePyramid::build(&Grid2::filled(1, 1, 1.0));
    let model = LinearModel::new(vec![1.0], 0.0).unwrap();
    // 1x1 world: valid, returns the single cell.
    let r = pyramid_top_k(&model, std::slice::from_ref(&tiny), 5).unwrap();
    assert_eq!(r.results.len(), 1);
    // Arity mismatch: error, not panic.
    assert!(pyramid_top_k(&model, &[tiny.clone(), tiny], 1).is_err());
    // Constant world: all scores identical, still well-formed.
    let flat = AggregatePyramid::build(&Grid2::filled(8, 8, 3.0));
    let r = pyramid_top_k(&model, &[flat], 3).unwrap();
    assert_eq!(r.results.len(), 3);
    assert!(r.results.iter().all(|s| (s.score - 3.0).abs() < 1e-12));
}

#[test]
fn workflow_survives_degenerate_feedback() {
    // A world where every cell is identical: OLS refits are singular. The
    // workflow falls back to a ridge refit (which on constant, all-zero
    // feedback converges to ~zero coefficients) and must complete without
    // error or non-finite values.
    let flat = AggregatePyramid::build(&Grid2::filled(16, 16, 5.0));
    let occurrences = Grid2::filled(16, 16, 0u32);
    let hypothesis = LinearModel::new(vec![0.3], 0.0).unwrap();
    let run = run_workflow(
        &[flat],
        &occurrences,
        hypothesis,
        WorkflowConfig {
            k: 5,
            iterations: 3,
            seed: 1,
            exploration: 4,
        },
    )
    .unwrap();
    assert_eq!(run.iterations.len(), 3);
    assert!(run.final_model.coefficients().iter().all(|c| c.is_finite()));
    // Zero occurrences everywhere: the ridge refit learns "no risk".
    assert!(run.final_model.coefficients()[0].abs() < 0.3);
}

#[test]
fn nan_free_outputs_under_extreme_inputs() {
    // Extreme but finite values must not produce NaN scores.
    let spike = Grid2::from_fn(8, 8, |r, c| if r == 3 && c == 3 { 1e12 } else { -1e12 });
    let pyramid = AggregatePyramid::build(&spike);
    let model = LinearModel::new(vec![1e-6], 1e6).unwrap();
    let r = pyramid_top_k(&model, &[pyramid], 2).unwrap();
    assert!(r.results.iter().all(|s| s.score.is_finite()));
    assert_eq!(
        r.results[0].cell,
        mbir_archive::extent::CellCoord::new(3, 3)
    );
}

#[test]
fn transient_faults_healing_within_retry_budget_are_invisible() {
    let (model, pyramids, stores, stats) = paged_world(32, 32, 8);
    let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();
    // Every page flakes twice before healing; three retries cover that.
    let profile =
        (0..stores[0].page_count()).fold(FaultProfile::new(), |p, page| p.transient(page, 2));
    let stores: Vec<TileStore> = stores
        .into_iter()
        .map(|s| {
            s.with_faults(profile.clone())
                .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None))
        })
        .collect();
    let src = TileSource::new(&stores).unwrap();
    let resilient =
        resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
    // The answer is exactly the fault-free one — retries absorbed the
    // faults without degrading the result.
    assert!(!resilient.is_degraded());
    assert_eq!(resilient.completeness, 1.0);
    assert!(resilient.skipped_pages.is_empty());
    for (a, b) in resilient.results.iter().zip(&strict.results) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.score, b.score);
    }
    // But the effort was visible: retries and failures were recorded.
    assert!(stats.retries() > 0, "retries {}", stats.retries());
    assert!(stats.failures() >= stats.retries());
}

#[test]
fn quarantine_trips_after_threshold_and_fails_fast() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let store = TileStore::new(grid, 4)
        .unwrap()
        .with_faults(FaultProfile::new().permanent(5))
        .with_resilience(ResilienceConfig::new(RetryPolicy::retries(1), Some(2)));
    // First read: initial attempt + 1 retry both fail -> breaker at 2.
    assert_eq!(
        store.read(row_of(5), col_of(5)).unwrap_err(),
        ArchiveError::PageIo { page: 5 }
    );
    assert!(store.is_quarantined(5));
    // Subsequent reads fail fast with the quarantine error and burn no
    // further retries or ticks.
    let retries_before = store.stats().retries();
    let ticks_before = store.stats().ticks_elapsed();
    for _ in 0..3 {
        assert_eq!(
            store.read(row_of(5), col_of(5)).unwrap_err(),
            ArchiveError::PageQuarantined { page: 5 }
        );
    }
    assert_eq!(store.stats().retries(), retries_before);
    assert_eq!(store.stats().ticks_elapsed(), ticks_before);
    assert_eq!(store.quarantined_pages().collect::<Vec<_>>(), vec![5]);
    // Healthy pages are unaffected.
    assert!(store.read(0, 0).is_ok());
}

/// Row/col of the first cell of a page in a 16-wide, tile-4 store.
fn row_of(page: usize) -> usize {
    (page / 4) * 4
}
fn col_of(page: usize) -> usize {
    (page % 4) * 4
}

#[test]
fn corruption_with_latency_charges_every_detected_reread() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let store = TileStore::new(grid, 4)
        .unwrap()
        .with_faults(FaultProfile::new().corrupt(5).latency(5, 9));
    // No retries, breaker disabled: every verified read detects the rot
    // afresh and pays the injected latency again — nothing heals.
    for round in 1..=3u64 {
        assert_eq!(
            store.read_page_verified(5).unwrap_err(),
            ArchiveError::PageCorrupt { page: 5 }
        );
        assert_eq!(store.stats().corruptions(), round);
        // One base tick plus nine injected, per attempt.
        assert_eq!(store.stats().ticks_elapsed(), round * 10);
    }
    // A trusting reader swallows the same page without an error — the
    // corruption is silent at the I/O level — but pays the same latency.
    assert!(store.read_page(5).is_ok());
    assert_eq!(store.stats().ticks_elapsed(), 40);
    assert_eq!(store.stats().corruptions(), 3);
}

#[test]
fn transient_with_latency_pays_on_failing_and_healed_reads_alike() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let store = TileStore::new(grid, 4)
        .unwrap()
        .with_faults(FaultProfile::new().transient(5, 2).latency(5, 9))
        .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), None));
    // One read: two failing attempts plus the healed third, every one of
    // them paying the injected latency; backoff ticks ride on top.
    let cells = store.read_page_verified(5).unwrap();
    assert_eq!(cells.len(), 16);
    assert_eq!(store.stats().failures(), 2);
    assert_eq!(store.stats().retries(), 2);
    let after_heal = store.stats().ticks_elapsed();
    assert!(after_heal >= 30, "ticks {after_heal}");
    // The healed page keeps its latency: exactly one more base tick plus
    // the injected nine, no retries.
    store.read_page_verified(5).unwrap();
    assert_eq!(store.stats().ticks_elapsed(), after_heal + 10);
    assert_eq!(store.stats().retries(), 2);
}

#[test]
fn quarantine_outranks_corruption_and_latency() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let store = TileStore::new(grid, 4)
        .unwrap()
        .with_faults(FaultProfile::new().corrupt(5).latency(5, 9))
        .with_resilience(ResilienceConfig::new(RetryPolicy::none(), Some(2)));
    // Checksum detections feed the breaker like I/O failures: two verified
    // reads trip the quarantine.
    assert_eq!(
        store.read_page_verified(5).unwrap_err(),
        ArchiveError::PageCorrupt { page: 5 }
    );
    assert_eq!(
        store.read_page_verified(5).unwrap_err(),
        ArchiveError::PageCorrupt { page: 5 }
    );
    assert!(store.is_quarantined(5));
    let ticks = store.stats().ticks_elapsed();
    let corruptions = store.stats().corruptions();
    // Quarantine wins over the corruption *and* its latency: later reads
    // fail fast with no attempt, no ticks, no new detections.
    for _ in 0..3 {
        assert_eq!(
            store.read_page_verified(5).unwrap_err(),
            ArchiveError::PageQuarantined { page: 5 }
        );
    }
    assert_eq!(store.stats().ticks_elapsed(), ticks);
    assert_eq!(store.stats().corruptions(), corruptions);
}

#[test]
fn last_wins_fault_kind_governs_the_store_while_latency_survives() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let store = TileStore::new(grid, 4)
        .unwrap()
        .with_faults(FaultProfile::new().corrupt(5).transient(5, 1).latency(5, 9));
    // The transient kind replaced the corruption entirely: the first read
    // is an I/O failure, not a checksum mismatch…
    assert_eq!(
        store.read_page_verified(5).unwrap_err(),
        ArchiveError::PageIo { page: 5 }
    );
    assert_eq!(store.stats().corruptions(), 0);
    // …and the healed page verifies clean, with the latency — orthogonal
    // to the kind — still charged on both attempts.
    let cells = store.read_page_verified(5).unwrap();
    assert!(cells
        .iter()
        .all(|(cell, v)| *v == (cell.row * 16 + cell.col) as f64));
    assert_eq!(store.stats().ticks_elapsed(), 20);
}

#[test]
fn lost_pages_yield_honest_partial_results() {
    let (model, pyramids, stores, _) = paged_world(32, 32, 8);
    // Kill the page under the true winner so degradation is forced.
    let strict = pyramid_top_k(&model, &pyramids, 4).unwrap();
    let winner = strict.results[0].cell;
    let page = stores[0].page_of(winner.row, winner.col);
    let stores: Vec<TileStore> = stores
        .into_iter()
        .map(|s| s.with_faults(FaultProfile::new().permanent(page)))
        .collect();
    let src = TileSource::new(&stores).unwrap();
    let r = resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
    // Honest accounting: not complete, the lost page is named, and the
    // result still carries k entries with sound bounds.
    assert!(r.is_degraded());
    assert!(r.completeness < 1.0, "completeness {}", r.completeness);
    assert!(r.completeness > 0.0);
    assert_eq!(r.skipped_pages, vec![page]);
    assert_eq!(r.results.len(), 4);
    for hit in &r.results {
        assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        assert!(hit.score.is_finite());
    }
    // The lost winner's true score is still covered by some reported
    // bound — nothing was silently dropped.
    assert!(r
        .results
        .iter()
        .any(|h| h.bounds.lo <= strict.results[0].score && strict.results[0].score <= h.bounds.hi));
}

#[test]
fn clearing_quarantine_restores_access_once_the_fault_heals() {
    let grid = Grid2::from_fn(16, 16, |r, c| (r * 16 + c) as f64);
    let store = TileStore::new(grid, 4)
        .unwrap()
        .with_faults(FaultProfile::new().transient(5, 2))
        .with_resilience(ResilienceConfig::new(RetryPolicy::none(), Some(2)));
    // Two failing accesses quarantine the page.
    assert!(store.read_page_verified(5).is_err());
    assert!(store.read_page_verified(5).is_err());
    assert!(store.is_quarantined(5));
    assert_eq!(store.quarantined_pages().collect::<Vec<_>>(), vec![5]);
    assert_eq!(
        store.read_page_verified(5).unwrap_err(),
        ArchiveError::PageQuarantined { page: 5 }
    );
    // Lifting the quarantine re-fetches and re-verifies: the transient
    // fault has healed, so the page comes back intact.
    store.clear_quarantine();
    assert!(store.quarantined_pages().next().is_none());
    let cells = store.read_page_verified(5).unwrap();
    assert_eq!(cells.len(), 16);
    assert!(cells
        .iter()
        .all(|(cell, v)| *v == (cell.row * 16 + cell.col) as f64));
}

/// Two independent replicas of the `paged_world` stores, each group with
/// its own stats handle.
fn replica_stores(rows: usize, cols: usize, tile: usize) -> (Vec<TileStore>, AccessStats) {
    let stats = AccessStats::new();
    let stores = (0..2)
        .map(|i| {
            let g = Grid2::from_fn(rows, cols, |r, c| {
                ((r as f64 / 7.0 + i as f64).sin() + (c as f64 / 9.0).cos()) * 40.0 + 90.0
            });
            TileStore::new(g, tile).unwrap().with_stats(stats.clone())
        })
        .collect();
    (stores, stats)
}

#[test]
fn healthy_replicated_source_matches_the_direct_path_exactly() {
    let (model, pyramids, stores, _) = paged_world(32, 32, 8);
    let direct = TileSource::new(&stores).unwrap();
    let budget = ExecutionBudget::unlimited();
    let reference = resilient_top_k(&model, &pyramids, 5, &direct, &budget).unwrap();

    let (a, _) = replica_stores(32, 32, 8);
    let (b, _) = replica_stores(32, 32, 8);
    let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
    let replicated = resilient_top_k(&model, &pyramids, 5, &src, &budget).unwrap();

    // Bit-identical: same hits, same bounds, same accounting.
    assert_eq!(replicated, reference);
    assert!(!replicated.is_degraded());
    assert_eq!(src.replica_health()[1].pages_served, 0);
}

#[test]
fn replication_masks_single_replica_corruption_and_loss() {
    let (model, pyramids, stores, _) = paged_world(32, 32, 8);
    let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();
    let winner = strict.results[0].cell;
    let bad_page = stores[0].page_of(winner.row, winner.col);
    let dead_page = (bad_page + 1) % stores[0].page_count();

    // Replica 0 serves the winner's page corrupted and has lost another
    // page outright; replica 1 is clean.
    let (a, a_stats) = replica_stores(32, 32, 8);
    let a: Vec<TileStore> = a
        .into_iter()
        .map(|s| s.with_faults(FaultProfile::new().corrupt(bad_page).permanent(dead_page)))
        .collect();
    let (b, _) = replica_stores(32, 32, 8);
    let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();

    let r = resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
    // Failover absorbed both faults: the answer is the exact one.
    assert!(!r.is_degraded());
    assert_eq!(r.completeness, 1.0);
    assert!(r.skipped_pages.is_empty());
    for (hit, want) in r.results.iter().zip(&strict.results) {
        assert_eq!(hit.cell, want.cell);
        assert_eq!(hit.score, want.score);
    }
    // The corruption was detected (not silently served) and charged to
    // the bad replica.
    assert!(a_stats.corruptions() >= 1);
    let health = src.replica_health();
    assert!(health[0].failures >= 1);
    assert!(health[1].pages_served >= 1);
}

#[test]
fn all_replicas_losing_a_page_degrades_with_sound_bounds() {
    let (model, pyramids, stores, _) = paged_world(32, 32, 8);
    let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();
    let winner = strict.results[0].cell;
    let page = stores[0].page_of(winner.row, winner.col);

    let kill = |stores: Vec<TileStore>| -> Vec<TileStore> {
        stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().permanent(page)))
            .collect()
    };
    let (a, _) = replica_stores(32, 32, 8);
    let (b, _) = replica_stores(32, 32, 8);
    let (a, b) = (kill(a), kill(b));
    let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();

    let r = resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
    // No replica can serve the winner's page: honest degradation.
    assert!(r.is_degraded());
    assert!(r.completeness < 1.0);
    assert_eq!(r.skipped_pages, vec![page]);
    assert!(r
        .results
        .iter()
        .any(|h| h.bounds.lo <= strict.results[0].score && strict.results[0].score <= h.bounds.hi));
    for hit in &r.results {
        assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
    }
}

#[test]
fn breaker_states_report_and_reset_restores_a_tripped_replica() {
    let (model, pyramids, _, _) = paged_world(32, 32, 8);
    let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();

    // Replica 0 is dead on every page; one failure opens its breaker and
    // the cooldown is effectively infinite, so it stays open.
    let (a, _) = replica_stores(32, 32, 8);
    let a: Vec<TileStore> = a
        .into_iter()
        .map(|s| {
            let dead = (0..s.page_count()).fold(FaultProfile::new(), |p, page| p.permanent(page));
            s.with_faults(dead)
        })
        .collect();
    let (b, _) = replica_stores(32, 32, 8);
    // A one-page cache keeps later runs from being absorbed by the LRU,
    // so the post-reset run genuinely re-probes the dead replica.
    let config = ReplicaConfig::default()
        .with_open_after(1)
        .with_cooldown_ticks(u64::MAX)
        .with_cache_pages(1);
    let src = ReplicatedSource::new(vec![&a, &b], config).unwrap();

    assert_eq!(
        src.breaker_states(),
        vec![BreakerState::Closed, BreakerState::Closed]
    );
    let r = resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
    // The clean replica masked the outage, and the dead replica's breaker
    // is now open.
    assert!(!r.is_degraded());
    assert_eq!(
        src.breaker_states(),
        vec![BreakerState::Open, BreakerState::Closed]
    );
    assert!(src.replica_health()[0].failures >= 1);

    // Operator reset: both breakers close and the accounting restarts.
    src.reset_breakers();
    assert_eq!(
        src.breaker_states(),
        vec![BreakerState::Closed, BreakerState::Closed]
    );
    let health = src.replica_health();
    assert_eq!((health[0].failures, health[0].pages_served), (0, 0));
    assert_eq!((health[1].failures, health[1].pages_served), (0, 0));

    // The source remains fully usable after the reset — and since the
    // fault is permanent, the very next run re-opens the breaker.
    let r = resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
    assert!(!r.is_degraded());
    for (hit, want) in r.results.iter().zip(&strict.results) {
        assert_eq!(hit.cell, want.cell);
        assert_eq!(hit.score, want.score);
    }
    assert_eq!(
        src.breaker_states(),
        vec![BreakerState::Open, BreakerState::Closed]
    );
}

#[test]
fn wall_deadline_over_replicated_source_is_thread_count_invariant() {
    let (model, pyramids, _, _) = paged_world(32, 32, 8);
    let (a, _) = replica_stores(32, 32, 8);
    let (b, _) = replica_stores(32, 32, 8);
    let src = ReplicatedSource::new(vec![&a, &b], ReplicaConfig::default()).unwrap();
    let budget = ExecutionBudget::unlimited().with_wall_deadline(std::time::Duration::ZERO);

    // An already-expired deadline stops every engine at its first
    // checkpoint — the degraded answer must not depend on parallelism.
    let seq = resilient_top_k(&model, &pyramids, 5, &src, &budget).unwrap();
    assert_eq!(seq.budget_stop, Some(BudgetStop::WallClock));
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        let par = par_resilient_top_k(&model, &pyramids, 5, &src, &budget, &pool).unwrap();
        assert_eq!(par.budget_stop, Some(BudgetStop::WallClock));
        assert_eq!(par.results, seq.results, "threads {threads}");
        assert_eq!(par.completeness, seq.completeness, "threads {threads}");
    }
}
