//! The parallel grid engine, [`par_resilient_top_k`], and the partitioned
//! staged-model scan, [`par_staged_top_k`].
//!
//! The grid engine is a batch of one through
//! [`par_batched_top_k`](super::par_batched_top_k), which the pool's one
//! dealer spreads over the workers (DESIGN.md §9, *The dealer*); the
//! staged engine splits the tuple range into one contiguous chunk per
//! worker. Either way each worker prunes against `max(its own K-th floor,
//! shared bound)`, the floors it finds published through a
//! [`SharedBound`], and the per-worker top-K lists are merged in the
//! global `(score desc, index asc)` order. Because every published floor
//! is the K-th best of a *subset* of the evaluated items, it can never
//! exceed the true K-th best score — so no true top-K item is ever
//! pruned, and (absent exact score ties at the K-th boundary) the merged
//! result is bit-identical to the sequential engines at every thread
//! count. DESIGN.md §9 spells the argument out.

use crate::engine::{validate_tuples, EffortReport, TupleTopK};
use crate::error::CoreError;
use crate::parallel::batched::par_batched_top_k_inner;
use crate::parallel::pool::{SharedBound, WorkerPool};
use crate::resilient::{ExecOptions, ResilientTopK};
use crate::source::CellSource;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::{sort_desc, ScoredItem};
use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
use mbir_progressive::pyramid::AggregatePyramid;

/// One worker's staged-model scan over a contiguous tuple range: the one
/// `p_m` loop (`staged_top_k` is one worker over every tuple, against a
/// fresh bound).
fn staged_worker(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
    start: usize,
    end: usize,
    shared: &SharedBound,
) -> (Vec<ScoredItem>, EffortReport) {
    let mut effort = EffortReport::default();
    if start >= end {
        return (Vec::new(), effort);
    }
    let n_terms = model.stages();
    let order = model.term_order();
    let coeffs = model.model().coefficients();
    let ranges = model.ranges();
    let mut alive: Vec<usize> = (start..end).collect();
    let mut partial: Vec<f64> = vec![model.model().intercept(); end - start];
    // Reused across stages so each pruning pass allocates nothing.
    let mut lows: Vec<f64> = Vec::new();
    for stage in 1..=n_terms {
        let term = order[stage - 1];
        let (rlo, rhi) = ranges[term];
        for &idx in &alive {
            partial[idx - start] += coeffs[term] * tuples[idx][term].clamp(rlo, rhi);
            effort.multiply_adds += 1;
        }
        if stage == n_terms || alive.is_empty() {
            break;
        }
        // Stage constants recovered through one representative evaluation
        // (they are tuple-independent).
        let probe = model.evaluate_stage(&tuples[alive[0]], stage);
        let suffix_mid = (probe.lo + probe.hi) / 2.0 - partial[alive[0] - start];
        let half_width = (probe.hi - probe.lo) / 2.0;
        let mut floor = shared.get();
        if alive.len() > k {
            lows.clear();
            lows.extend(
                alive
                    .iter()
                    .map(|&idx| partial[idx - start] + suffix_mid - half_width),
            );
            lows.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
            let local = lows[k - 1];
            shared.offer(local);
            floor = floor.max(local);
        }
        if floor > f64::NEG_INFINITY {
            alive.retain(|&idx| partial[idx - start] + suffix_mid + half_width >= floor);
        }
    }
    let mut heap = TopKHeap::new(k);
    for &idx in &alive {
        heap.offer(ScoredItem {
            index: idx,
            score: partial[idx - start],
        });
    }
    (heap.into_sorted(), effort)
}

/// Parallel [`staged_top_k`](crate::engine::staged_top_k): the tuple range
/// is split into contiguous chunks, one per worker; each worker runs the
/// staged pruning loop over its chunk, sharing K-th lower bounds through a
/// [`SharedBound`] so one worker's pruning floor drops candidates in every
/// other chunk. Results are bit-identical to the sequential engine at
/// every thread count.
///
/// # Errors
///
/// Same as [`staged_top_k`](crate::engine::staged_top_k).
pub fn par_staged_top_k(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
    pool: &WorkerPool,
) -> Result<TupleTopK, CoreError> {
    validate_tuples(model, tuples, k)?;
    let n_terms = model.stages();
    let workers = pool.threads().min(tuples.len());
    let chunk = tuples.len().div_ceil(workers);
    let shared = SharedBound::new();
    let shared_ref = &shared;
    let outs = pool.run(
        (0..workers)
            .map(|wi| {
                move |_i: usize| {
                    let start = (wi * chunk).min(tuples.len());
                    let end = ((wi + 1) * chunk).min(tuples.len());
                    staged_worker(model, tuples, k, start, end, shared_ref)
                }
            })
            .collect(),
    );
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: (n_terms * tuples.len()) as u64,
    };
    let mut items = Vec::new();
    for (worker_items, worker_effort) in outs {
        effort += worker_effort;
        items.extend(worker_items);
    }
    sort_desc(&mut items);
    items.truncate(k);
    Ok(TupleTopK {
        results: items,
        effort,
    })
}

/// Parallel [`resilient_top_k`](crate::resilient::resilient_top_k):
/// partitioned descent with per-worker lost/leftover tracking merged into
/// one honest degradation report, under a *shared* [`ExecOptions`] — the
/// budget through atomic counters checked at the same cooperative
/// checkpoints (once per pop), the token through a shared stop latch.
/// Solo is a batch of one: this is
/// [`par_batched_top_k`](super::par_batched_top_k) over `[model]`.
///
/// With a healthy source or deterministic page faults and an unlimited
/// budget the output is bit-identical to the sequential resilient engine
/// at every thread count: lost cells are excluded by their deterministic
/// frontier bound, not by which worker reached them first. A mid-run
/// budget stop is inherently schedule-dependent — the results are still
/// sound and honestly accounted, but not reproducible across thread
/// counts (DESIGN.md §9).
///
/// # Errors
///
/// Same as [`resilient_top_k`](crate::resilient::resilient_top_k).
pub fn par_resilient_top_k<'a, S: CellSource + Sync>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    opts: impl Into<ExecOptions<'a>>,
    pool: &WorkerPool,
) -> Result<ResilientTopK, CoreError> {
    let models = std::slice::from_ref(model);
    let mut batch = par_batched_top_k_inner(models, pyramids, k, source, opts.into(), pool)?;
    Ok(batch.queries.pop().expect("one answer per model"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{naive_grid_top_k, pyramid_top_k, staged_top_k};
    use crate::resilient::{resilient_top_k, BudgetStop, ExecutionBudget};
    use crate::source::{PyramidSource, TileSource};
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

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

    fn progressive_of(
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

    /// [`par_resilient_top_k`] over the pyramids' own level 0 with an
    /// unlimited budget: the parallel `pyramid_top_k`.
    fn par_pyramid(
        model: &LinearModel,
        pyramids: &[AggregatePyramid],
        k: usize,
        pool: &WorkerPool,
    ) -> Result<ResilientTopK, CoreError> {
        let source = PyramidSource::new(pyramids);
        par_resilient_top_k(
            model,
            pyramids,
            k,
            &source,
            &ExecutionBudget::unlimited(),
            pool,
        )
    }

    #[test]
    fn par_pyramid_is_bit_identical_at_every_thread_count() {
        let (model, pyramids) = build_inputs(11, 48, 40, 3);
        for k in [1usize, 5, 17] {
            let sequential = pyramid_top_k(&model, &pyramids, k).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let parallel = par_pyramid(&model, &pyramids, k, &pool).unwrap();
                assert!(!parallel.is_degraded(), "k={k} threads={threads}");
                assert_eq!(
                    parallel.exact_cells(),
                    sequential.results,
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_pyramid_matches_naive_scores() {
        let (model, pyramids) = build_inputs(2, 32, 32, 4);
        let naive = naive_grid_top_k(&model, &pyramids, 9).unwrap();
        let pool = WorkerPool::new(4);
        let parallel = par_pyramid(&model, &pyramids, 9, &pool).unwrap();
        assert_eq!(parallel.exact_cells(), naive.results);
        assert!(parallel.effort.naive_multiply_adds == naive.effort.naive_multiply_adds);
    }

    #[test]
    fn par_pyramid_validates_like_sequential() {
        let (model, pyramids) = build_inputs(5, 8, 8, 2);
        let pool = WorkerPool::new(2);
        assert!(par_pyramid(&model, &pyramids, 0, &pool).is_err());
        assert!(par_pyramid(&model, &pyramids[..1], 1, &pool).is_err());
    }

    #[test]
    fn par_staged_is_bit_identical_at_every_thread_count() {
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
            let sequential = staged_top_k(&prog, &tuples, k).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let parallel = par_staged_top_k(&prog, &tuples, k, &pool).unwrap();
                assert_eq!(
                    parallel.results, sequential.results,
                    "k={k} threads={threads}"
                );
                if threads == 1 {
                    assert_eq!(parallel.effort, sequential.effort, "1 thread = same work");
                }
            }
        }
    }

    #[test]
    fn par_staged_handles_more_workers_than_tuples() {
        let (model, pyramids) = build_inputs(9, 2, 2, 2);
        let prog = progressive_of(&model, &pyramids);
        let tuples: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..2)
                    .map(|a| pyramids[a].cell(0, i / 2, i % 2).unwrap().mean)
                    .collect()
            })
            .collect();
        let pool = WorkerPool::new(16);
        let parallel = par_staged_top_k(&prog, &tuples, 2, &pool).unwrap();
        let sequential = staged_top_k(&prog, &tuples, 2).unwrap();
        assert_eq!(parallel.results, sequential.results);
    }

    #[test]
    fn par_staged_validates_like_sequential() {
        let (model, pyramids) = build_inputs(5, 8, 8, 2);
        let prog = progressive_of(&model, &pyramids);
        let pool = WorkerPool::new(2);
        assert!(par_staged_top_k(&prog, &[], 1, &pool).is_err());
        assert!(par_staged_top_k(&prog, &[vec![1.0]], 1, &pool).is_err());
        assert!(par_staged_top_k(&prog, &[vec![1.0, 2.0]], 0, &pool).is_err());
        let (prog, tuples) = crate::engine::tests::nan_tuple_input();
        let got = par_staged_top_k(&prog, &tuples, 1, &pool);
        assert!(matches!(got, Err(CoreError::Query(_))), "{got:?}");
    }

    fn smooth_world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (LinearModel, Vec<AggregatePyramid>, Vec<TileStore>) {
        let grids: Vec<Grid2<f64>> = (0..arity)
            .map(|i| {
                Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
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
        let coeffs: Vec<f64> = (0..arity).map(|i| 1.0 - 0.3 * i as f64).collect();
        (LinearModel::new(coeffs, 0.25).unwrap(), pyramids, stores)
    }

    #[test]
    fn par_resilient_healthy_matches_sequential_resilient() {
        // The second world asks for more cells than it has: every cell
        // comes back.
        for (rows, cols, k) in [(48, 48, 7), (3, 3, 100)] {
            let (model, pyramids, stores) = smooth_world(3, rows, cols, 8);
            let src = TileSource::new(&stores).unwrap();
            let unlimited = ExecutionBudget::unlimited();
            let sequential = resilient_top_k(&model, &pyramids, k, &src, &unlimited).unwrap();
            assert_eq!(sequential.results.len(), k.min(rows * cols));
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let parallel =
                    par_resilient_top_k(&model, &pyramids, k, &src, &unlimited, &pool).unwrap();
                let at = format!("{rows}x{cols} k={k} threads={threads}");
                assert_eq!(parallel.results, sequential.results, "{at}");
                assert_eq!(parallel.completeness, 1.0);
                assert_eq!(parallel.budget_stop, None);
                assert!(parallel.skipped_pages.is_empty());
            }
        }
    }

    #[test]
    fn par_resilient_lost_pages_match_sequential_report() {
        let (model, pyramids, stores) = smooth_world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().permanent(page)))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let sequential =
            resilient_top_k(&model, &pyramids, 3, &src, &ExecutionBudget::unlimited()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let parallel = par_resilient_top_k(
                &model,
                &pyramids,
                3,
                &src,
                &ExecutionBudget::unlimited(),
                &pool,
            )
            .unwrap();
            assert_eq!(parallel.results, sequential.results, "threads={threads}");
            assert_eq!(parallel.completeness, sequential.completeness);
            assert_eq!(parallel.skipped_pages, sequential.skipped_pages);
            assert!(parallel.skipped_pages.contains(&page));
        }
    }

    #[test]
    fn par_resilient_budget_stop_is_sound() {
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let unlimited = par_resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited(),
            &WorkerPool::new(4),
        )
        .unwrap();
        let best = unlimited.results[0].score;
        // Half of the measured full-run effort: enough to get past warm-up,
        // far too little to finish.
        let budget =
            ExecutionBudget::unlimited().with_max_multiply_adds(unlimited.effort.multiply_adds / 2);
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(&model, &pyramids, 5, &src, &budget, &pool).unwrap();
            assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
            assert!(r.completeness >= 0.0 && r.completeness <= 1.0);
            assert!(r.results.len() <= 5);
            // The true winner is either confirmed exactly, covered by some
            // degraded candidate's upper bound, or pushed out of a *full*
            // report by k candidates with higher estimates.
            assert!(
                r.results.len() == 5
                    || r.results
                        .iter()
                        .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
                "threads={threads}: winner neither confirmed nor covered"
            );
            for hit in r.results.iter().filter(|h| !h.exact) {
                assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
            }
        }
    }

    #[test]
    fn par_resilient_zero_wall_deadline_is_consistent_across_threads() {
        use std::time::Duration;
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO);
        let reference = resilient_top_k(&model, &pyramids, 5, &src, &budget).unwrap();
        assert_eq!(reference.budget_stop, Some(BudgetStop::WallClock));
        assert_eq!(reference.completeness, 0.0);
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(&model, &pyramids, 5, &src, &budget, &pool).unwrap();
            assert_eq!(
                r.budget_stop,
                Some(BudgetStop::WallClock),
                "threads={threads}"
            );
            // An already-expired deadline stops every schedule at its first
            // checkpoint: completeness and bounds match at every width.
            assert_eq!(r.completeness, reference.completeness, "threads={threads}");
            assert_eq!(r.results, reference.results, "threads={threads}");
            assert!(r.results.iter().all(|h| !h.exact));
            for h in &r.results {
                assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
            }
        }
    }

    #[test]
    fn cancelled_stop_beats_deadline_and_budget_at_every_thread_count() {
        use crate::lifecycle::CancelToken;
        use std::time::Duration;
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        // All three stop families trip at the first checkpoint: a
        // pre-cancelled token, an expired wall deadline, and an exhausted
        // multiply-add cap. The fixed precedence Cancelled > WallClock >
        // Budget must hold on every schedule.
        let budget = ExecutionBudget::unlimited()
            .with_max_multiply_adds(1)
            .with_wall_deadline(Duration::ZERO);
        let token = CancelToken::new();
        token.cancel();
        let reference = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            ExecOptions::new(&budget).cancel(&token),
        )
        .unwrap();
        assert_eq!(reference.budget_stop, Some(BudgetStop::Cancelled));
        assert_eq!(reference.completeness, 0.0);
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(
                &model,
                &pyramids,
                5,
                &src,
                ExecOptions::new(&budget).cancel(&token),
                &pool,
            )
            .unwrap();
            assert_eq!(
                r.budget_stop,
                Some(BudgetStop::Cancelled),
                "threads={threads}"
            );
            // A pre-cancelled token stops every schedule at the warm-up
            // checkpoint: the degraded answer matches at every width.
            assert_eq!(r.completeness, reference.completeness, "threads={threads}");
            assert_eq!(r.results, reference.results, "threads={threads}");
            for h in &r.results {
                assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
            }
        }
    }

    #[test]
    fn par_resilient_uncancelled_token_changes_nothing() {
        use crate::lifecycle::CancelToken;
        let (model, pyramids, stores) = smooth_world(2, 48, 48, 8);
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let token = CancelToken::new();
        let plain = resilient_top_k(&model, &pyramids, 6, &src, &budget).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(
                &model,
                &pyramids,
                6,
                &src,
                ExecOptions::new(&budget).cancel(&token),
                &pool,
            )
            .unwrap();
            assert_eq!(r.results, plain.results, "threads={threads}");
            assert_eq!(r.budget_stop, None);
            assert_eq!(r.completeness, 1.0);
        }
    }

    #[test]
    fn par_resilient_generous_wall_deadline_changes_nothing() {
        use std::time::Duration;
        let (model, pyramids, stores) = smooth_world(2, 48, 48, 8);
        let src = TileSource::new(&stores).unwrap();
        let plain = par_resilient_top_k(
            &model,
            &pyramids,
            6,
            &src,
            &ExecutionBudget::unlimited(),
            &WorkerPool::new(4),
        )
        .unwrap();
        let timed = par_resilient_top_k(
            &model,
            &pyramids,
            6,
            &src,
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::from_secs(3600)),
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!(timed.budget_stop, None);
        assert_eq!(timed.results, plain.results);
    }

    #[test]
    fn par_resilient_detected_corruption_matches_sequential() {
        use crate::source::CachedTileSource;
        let (model, pyramids, stores) = smooth_world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().corrupt(page)))
            .collect();
        let src = CachedTileSource::new(&stores, 16).unwrap();
        let sequential =
            resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(sequential.skipped_pages.contains(&page));
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let parallel = par_resilient_top_k(
                &model,
                &pyramids,
                4,
                &src,
                &ExecutionBudget::unlimited(),
                &pool,
            )
            .unwrap();
            assert_eq!(parallel.results, sequential.results, "threads={threads}");
            assert_eq!(parallel.skipped_pages, sequential.skipped_pages);
            assert_eq!(parallel.completeness, sequential.completeness);
        }
    }

    #[test]
    fn par_resilient_immediate_budget_exhaustion_reports_frontier() {
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let r = par_resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_max_multiply_adds(1),
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
        assert_eq!(r.completeness, 0.0, "nothing was resolved");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        assert!(r.results.iter().all(|h| !h.exact));
    }
}
