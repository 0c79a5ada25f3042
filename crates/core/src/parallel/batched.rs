//! Parallel batched multi-query execution: the shared-frontier descent of
//! [`crate::batched`] spread over the worker pool.
//!
//! This *is* the parallel resilient engine — `par_resilient_top_k` is the
//! batch of one — and it is the pool's one dealer over one band, the
//! whole grid (DESIGN.md §9, *The dealer*):
//!
//! 1. **Shared warm-up.** On a pool of two or more threads, one
//!    sequential expansion of the batch's frontiers in the global bound
//!    order, children blocks fetched once and folded per requesting
//!    query, until they hold enough regions to deal every worker several
//!    per query. A pool of one descends from the root.
//! 2. **Descend.** Each worker runs the batched best-first loop over its
//!    dealt regions with one [`SharedBound`] per query: a K-th floor
//!    discovered for query `q` by one worker prunes `q`'s regions in
//!    every other worker, while leaving the other queries' descents
//!    untouched. Cell reads and children blocks are
//!    memoized per worker; cross-worker page reuse comes from routing
//!    every worker through one shared (optionally caching)
//!    [`CellSource`].
//! 3. **Merge.** Per query: global score order, sound floor only from a
//!    full heap, leftover and lost regions resolved by that query's own
//!    floor.
//!
//! With a healthy source (or deterministic page faults) and a non-binding
//! budget, every query's merged results are bit-identical to its solo
//! sequential run at every thread count — the same argument as DESIGN.md
//! §9, applied per query. Mid-run budget stops are schedule-dependent,
//! exactly as they are for [`par_resilient_top_k`](super::engines).

use crate::batched::{gather, validate_batch, BatchedTopK, Job, Tally};
use crate::error::CoreError;
use crate::parallel::deal::deal;
use crate::parallel::pool::{SharedBound, WorkerPool};
use crate::resilient::{ExecOptions, WallDeadline};
use crate::source::CellSource;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;

/// Parallel [`batched_top_k`](crate::batched::batched_top_k): the shared
/// multi-query descent partitioned over the pool's workers, with one
/// [`SharedBound`] per query so each query's pruning floor propagates
/// across workers independently, under one batch-wide
/// [`ExecOptions`] — budget and token are shared by every worker.
///
/// With a healthy source (or deterministic page faults) and a non-binding
/// budget, each query's results are bit-identical to its solo sequential
/// [`resilient_top_k`](crate::resilient::resilient_top_k) run at every
/// thread count. Mid-run budget stops are sound but schedule-dependent.
///
/// # Errors
///
/// Same as [`batched_top_k`](crate::batched::batched_top_k).
pub fn par_batched_top_k<'a, S: CellSource + Sync>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    opts: impl Into<ExecOptions<'a>>,
    pool: &WorkerPool,
) -> Result<BatchedTopK, CoreError> {
    par_batched_top_k_inner(models, pyramids, k, source, opts.into(), pool)
}

/// The resilient parallel run of a batch of Q ≥ 1 queries: one budget
/// meter carries the batch-wide multiply-adds and the first stop any
/// worker latches; each query's outcome is gathered against its own
/// floor. A query that drained its frontier everywhere finished normally
/// even when some *other* query tripped the stop.
pub(crate) fn par_batched_top_k_inner<S: CellSource + Sync>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    opts: ExecOptions<'_>,
    pool: &WorkerPool,
) -> Result<BatchedTopK, CoreError> {
    if models.is_empty() {
        return Ok(BatchedTopK::gathered(Vec::new(), Tally::default(), 0));
    }
    validate_batch(models, pyramids, k)?;
    let deadline = WallDeadline::starting_now(opts.budget);
    let job = Job::whole(models, pyramids, source, k);
    let bounds: Vec<SharedBound> = models.iter().map(|_| SharedBound::new()).collect();
    let whole = deal(&job, opts, &deadline, &bounds, pool)
        .pop()
        .expect("one band");
    let (outs, tally) = whole.out?;
    gather(&job, outs, tally, whole.pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::batched_top_k;
    use crate::lifecycle::CancelToken;
    use crate::resilient::{resilient_top_k, BudgetStop, ExecutionBudget, ResilientTopK};
    use crate::source::{CachedTileSource, TileSource};
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn batch_world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (Vec<LinearModel>, Vec<AggregatePyramid>, Vec<TileStore>) {
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
        let models = (0..5)
            .map(|qi| {
                let coeffs: Vec<f64> = (0..arity)
                    .map(|a| 1.0 - 0.3 * a as f64 + 0.21 * qi as f64 - 0.07 * (a * qi) as f64)
                    .collect();
                LinearModel::new(coeffs, 0.25 * qi as f64).unwrap()
            })
            .collect();
        (models, pyramids, stores)
    }

    #[test]
    fn par_batched_healthy_matches_solo_at_every_thread_count() {
        let (models, pyramids, stores) = batch_world(3, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        let solos: Vec<ResilientTopK> = models
            .iter()
            .map(|model| {
                let src = TileSource::new(&stores).unwrap();
                resilient_top_k(model, &pyramids, 7, &src, &budget).unwrap()
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let src = TileSource::new(&stores).unwrap();
            let batch = par_batched_top_k(&models, &pyramids, 7, &src, &budget, &pool).unwrap();
            for (q, solo) in solos.iter().enumerate() {
                assert_eq!(
                    batch.queries[q].results, solo.results,
                    "threads={threads} q={q}"
                );
                assert_eq!(batch.queries[q].completeness, 1.0);
                assert_eq!(batch.queries[q].budget_stop, None);
                assert!(batch.queries[q].skipped_pages.is_empty());
            }
        }
    }

    #[test]
    fn par_batched_matches_sequential_batched_under_faults() {
        let (models, pyramids, stores) = batch_world(2, 32, 32, 8);
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let winner = batched_top_k(&models, &pyramids, 1, &src, &budget)
            .unwrap()
            .queries[0]
            .results[0]
            .cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().permanent(page)))
            .collect();
        let seq_src = TileSource::new(&stores).unwrap();
        let sequential = batched_top_k(&models, &pyramids, 4, &seq_src, &budget).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let src = TileSource::new(&stores).unwrap();
            let parallel = par_batched_top_k(&models, &pyramids, 4, &src, &budget, &pool).unwrap();
            for q in 0..models.len() {
                assert_eq!(
                    parallel.queries[q].results, sequential.queries[q].results,
                    "threads={threads} q={q}"
                );
                assert_eq!(
                    parallel.queries[q].completeness, sequential.queries[q].completeness,
                    "threads={threads} q={q}"
                );
                assert_eq!(
                    parallel.queries[q].skipped_pages, sequential.queries[q].skipped_pages,
                    "threads={threads} q={q}"
                );
            }
        }
    }

    #[test]
    fn par_batched_pre_cancelled_token_degrades_every_query() {
        let (models, pyramids, stores) = batch_world(2, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        let token = CancelToken::new();
        token.cancel();
        let pool = WorkerPool::new(4);
        let src = TileSource::new(&stores).unwrap();
        let batch = par_batched_top_k(
            &models,
            &pyramids,
            5,
            &src,
            ExecOptions::new(&budget).cancel(&token),
            &pool,
        )
        .unwrap();
        for r in &batch.queries {
            assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
            assert!(r.completeness < 1.0);
            for hit in r.results.iter().filter(|h| !h.exact) {
                assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
            }
        }
    }

    #[test]
    fn par_batched_mid_run_budget_stop_is_sound() {
        let (models, pyramids, stores) = batch_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let unlimited =
            batched_top_k(&models, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let total: u64 = unlimited
            .queries
            .iter()
            .map(|r| r.effort.multiply_adds)
            .sum();
        let budget = ExecutionBudget::unlimited().with_max_multiply_adds(total / 3);
        let pool = WorkerPool::new(4);
        let src = TileSource::new(&stores).unwrap();
        let stopped = par_batched_top_k(&models, &pyramids, 5, &src, &budget, &pool).unwrap();
        for (q, r) in stopped.queries.iter().enumerate() {
            assert!(r.completeness >= 0.0 && r.completeness <= 1.0);
            let best = unlimited.queries[q].results[0].score;
            assert!(
                r.results.len() == 5
                    || r.results
                        .iter()
                        .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
                "q={q}: winner neither confirmed nor covered"
            );
        }
    }

    #[test]
    fn par_batched_amortizes_pages_with_shared_cache() {
        let (models, pyramids, stores) = batch_world(3, 64, 64, 8);
        let budget = ExecutionBudget::unlimited();
        let pool = WorkerPool::new(4);
        let mut solo_pages = 0u64;
        for model in &models {
            let src = CachedTileSource::new(&stores, 64).unwrap();
            let before = src.pages_read();
            resilient_top_k(model, &pyramids, 7, &src, &budget).unwrap();
            solo_pages += src.pages_read() - before;
        }
        let src = CachedTileSource::new(&stores, 64).unwrap();
        let batch = par_batched_top_k(&models, &pyramids, 7, &src, &budget, &pool).unwrap();
        assert!(
            batch.pages_read <= solo_pages,
            "batched {} pages vs solo sum {}",
            batch.pages_read,
            solo_pages
        );
    }

    #[test]
    fn par_batched_empty_and_mismatched_batches() {
        let (models, pyramids, stores) = batch_world(2, 16, 16, 8);
        let pool = WorkerPool::new(2);
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let empty = par_batched_top_k(&[], &pyramids, 3, &src, &budget, &pool).unwrap();
        assert!(empty.queries.is_empty());
        let odd = LinearModel::new(vec![1.0, 2.0, 3.0], 0.0).unwrap();
        let mixed = vec![models[0].clone(), odd];
        assert!(par_batched_top_k(&mixed, &pyramids, 3, &src, &budget, &pool).is_err());
    }
}
