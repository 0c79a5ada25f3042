//! Batched multi-query execution over one shared archive.
//!
//! An archive serving interactive exploration sees bursts of independent
//! top-K queries against the *same* pyramids and tile stores. Running them
//! one after another wastes the workers; running each one on the full pool
//! thrashes it. [`QueryBatch`] admits N queries and schedules them over
//! the pool, each query running the ordinary sequential engine against the
//! shared read-only index — so per-query results are exactly what
//! [`grid_query`](crate::engine::grid_query) would return, in admission
//! order, regardless of thread count or schedule.
//!
//! Two session-level resources make the batch cheap to repeat:
//!
//! * **Cache-aware scheduling.** Before dispatch, every query is tagged
//!   with the page its descent is predicted to land on (one allocation-free
//!   greedy walk down the pyramids), and queries are dealt to workers in
//!   *contiguous page order* instead of round-robin: queries pulling the
//!   same tiles run back to back on one worker, so a shared
//!   [`CachedTileSource`](crate::source::CachedTileSource) sees compounding
//!   hits instead of cross-worker thrash. Scheduling only permutes
//!   execution order — results stay in admission order.
//! * **A per-worker scratch pool.** Each worker reuses *one*
//!   [`QueryScratch`] across all queries it runs (instead of growing a
//!   fresh one per query), and [`ScratchPool`] carries those warmed
//!   scratches across batches in a session, so the steady state allocates
//!   nothing — [`ScratchPool::regrowths`] is the proof hook.

use crate::engine::{pyramid_top_k_with_scratch, GridTopK, QueryScratch};
use crate::error::CoreError;
use crate::parallel::pool::WorkerPool;
use crate::query::{Objective, TopKQuery};
use crate::source::CellSource;
use mbir_archive::extent::CellCoord;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;

/// Per-worker query results tagged with their original batch index.
type IndexedResults = Vec<(usize, Result<GridTopK, CoreError>)>;

/// Warmed per-worker [`QueryScratch`]es carried across the batches of a
/// session. The pool grows to the widest batch it has served and then
/// stops allocating; [`regrowths`](ScratchPool::regrowths) sums the
/// growth events of every scratch, so a steady-state session shows a
/// stable count.
#[derive(Debug, Default)]
pub struct ScratchPool {
    scratches: Vec<QueryScratch>,
}

impl ScratchPool {
    /// An empty pool; scratches are created on first use.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Number of warmed scratches currently pooled.
    pub fn len(&self) -> usize {
        self.scratches.len()
    }

    /// Whether the pool holds no warmed scratch yet.
    pub fn is_empty(&self) -> bool {
        self.scratches.is_empty()
    }

    /// Total internal-buffer growth events across every pooled scratch.
    /// Stable across two identical consecutive batches ⇔ the second batch
    /// allocated nothing.
    pub fn regrowths(&self) -> u64 {
        self.scratches.iter().map(QueryScratch::regrowths).sum()
    }

    /// Takes `n` scratches out of the pool in stable order (warmed ones
    /// first, fresh ones to make up the difference), so a repeated batch
    /// pairs each worker slot with the scratch it warmed last time.
    fn take(&mut self, n: usize) -> Vec<QueryScratch> {
        let mut out: Vec<QueryScratch> = self
            .scratches
            .drain(..n.min(self.scratches.len()))
            .collect();
        out.resize_with(n, Default::default);
        out
    }
}

/// A set of concurrent top-K queries against one model + pyramid index.
#[derive(Debug, Clone)]
pub struct QueryBatch<'a> {
    model: &'a LinearModel,
    pyramids: &'a [AggregatePyramid],
    queries: Vec<TopKQuery>,
}

impl<'a> QueryBatch<'a> {
    /// An empty batch against `model` and `pyramids`.
    pub fn new(model: &'a LinearModel, pyramids: &'a [AggregatePyramid]) -> Self {
        QueryBatch {
            model,
            pyramids,
            queries: Vec::new(),
        }
    }

    /// Admits a query, returning its slot in the result vector.
    pub fn admit(&mut self, query: TopKQuery) -> usize {
        self.queries.push(query);
        self.queries.len() - 1
    }

    /// The admitted queries, in admission order.
    pub fn queries(&self) -> &[TopKQuery] {
        &self.queries
    }

    /// Number of admitted queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no query has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Runs every admitted query against the shared `source` with a batch-
    /// local scratch pool. Results come back in admission order, each
    /// exactly what the sequential engine returns for that query —
    /// per-query failures stay in their own slot and never poison the
    /// rest of the batch.
    pub fn run<S: CellSource + Sync>(
        &self,
        source: &S,
        pool: &WorkerPool,
    ) -> Vec<Result<GridTopK, CoreError>> {
        self.run_with_pool(source, pool, &mut ScratchPool::new())
    }

    /// [`run`](QueryBatch::run) with per-worker scratches reused from (and
    /// returned to) a session-level [`ScratchPool`], so consecutive
    /// batches over the same index allocate nothing once warm. Results
    /// are bit-identical to [`run`](QueryBatch::run).
    pub fn run_with_pool<S: CellSource + Sync>(
        &self,
        source: &S,
        pool: &WorkerPool,
        scratch_pool: &mut ScratchPool,
    ) -> Vec<Result<GridTopK, CoreError>> {
        let n = self.queries.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = pool.threads().min(n);
        // Cache-aware schedule: queries predicted to land on the same page
        // are adjacent, so each worker's contiguous slice re-reads the
        // tiles its predecessor query just warmed.
        let mut schedule: Vec<usize> = (0..n).collect();
        let keys: Vec<usize> = self
            .queries
            .iter()
            .map(|q| predicted_page(self.model, self.pyramids, *q, source).unwrap_or(usize::MAX))
            .collect();
        schedule.sort_by_key(|&qi| (keys[qi], qi));
        let chunk = n.div_ceil(workers);
        let parts: Vec<Vec<usize>> = schedule.chunks(chunk).map(<[usize]>::to_vec).collect();
        let scratches = scratch_pool.take(parts.len());
        let tasks: Vec<_> = parts
            .into_iter()
            .zip(scratches)
            .map(|(part, mut scratch)| {
                move |_i: usize| -> (IndexedResults, QueryScratch) {
                    let results = part
                        .into_iter()
                        .map(|qi| {
                            (
                                qi,
                                grid_query_with_scratch(
                                    self.model,
                                    self.pyramids,
                                    self.queries[qi],
                                    source,
                                    &mut scratch,
                                ),
                            )
                        })
                        .collect();
                    (results, scratch)
                }
            })
            .collect();
        let mut out: Vec<Option<Result<GridTopK, CoreError>>> = (0..n).map(|_| None).collect();
        for (results, scratch) in pool.run(tasks) {
            scratch_pool.scratches.push(scratch);
            for (qi, result) in results {
                out[qi] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every admitted query executes"))
            .collect()
    }
}

/// Predicts the page a query's descent lands on: one greedy walk from the
/// pyramid root always taking the child whose box bound is most promising
/// for the query's objective (ties to the first child, matching the
/// frontier's coordinate tiebreak), mapped to its page. Best-effort — any
/// error yields `None` and the query schedules last.
fn predicted_page<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    query: TopKQuery,
    source: &S,
) -> Option<usize> {
    let mut level = pyramids.first()?.levels().checked_sub(1)?;
    let mut cell = CellCoord::new(0, 0);
    let mut children: Vec<CellCoord> = Vec::with_capacity(4);
    let mut ranges: Vec<(f64, f64)> = Vec::with_capacity(pyramids.len());
    while level > 0 {
        pyramids[0].children_into(level, cell.row, cell.col, &mut children);
        let mut best: Option<(f64, CellCoord)> = None;
        for &child in children.iter() {
            ranges.clear();
            for p in pyramids {
                let s = p.cell(level - 1, child.row, child.col).ok()?;
                ranges.push((s.min, s.max));
            }
            let (lo, hi) = model.bound_over_box(&ranges).ok()?;
            // For minimization the promising child is the one whose box
            // can reach lowest — the negated-model maximum.
            let key = match query.objective() {
                Objective::Maximize => hi,
                Objective::Minimize => -lo,
            };
            if best.is_none_or(|(b, _)| key > b) {
                best = Some((key, child));
            }
        }
        let (_, next) = best?;
        cell = next;
        level -= 1;
    }
    source.page_of(cell.row, cell.col)
}

/// One query against a [`CellSource`] — the per-query unit the batch
/// schedules. Dispatches on the objective by negating the model for
/// minimization, mirroring [`grid_query`](crate::engine::grid_query).
///
/// # Errors
///
/// Same as [`pyramid_top_k_with_scratch`].
pub fn grid_query_with_source<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    query: TopKQuery,
    source: &S,
) -> Result<GridTopK, CoreError> {
    grid_query_with_scratch(model, pyramids, query, source, &mut QueryScratch::new())
}

/// [`grid_query_with_source`] with descent buffers reused from `scratch`,
/// so a worker running many queries in sequence allocates nothing once
/// warm. Results are bit-identical to [`grid_query_with_source`].
///
/// # Errors
///
/// Same as [`pyramid_top_k_with_scratch`].
pub fn grid_query_with_scratch<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    query: TopKQuery,
    source: &S,
    scratch: &mut QueryScratch,
) -> Result<GridTopK, CoreError> {
    match query.objective() {
        Objective::Maximize => {
            pyramid_top_k_with_scratch(model, pyramids, query.k(), source, scratch)
        }
        Objective::Minimize => {
            let negated = LinearModel::new(
                model.coefficients().iter().map(|a| -a).collect(),
                -model.intercept(),
            )
            .map_err(CoreError::Model)?;
            let mut result =
                pyramid_top_k_with_scratch(&negated, pyramids, query.k(), source, scratch)?;
            for sc in &mut result.results {
                sc.score = -sc.score;
            }
            Ok(result)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::grid_query;
    use crate::source::{CachedTileSource, TileSource};
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn batch_world(
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
                    ((r as f64 / 7.0 + i as f64).sin() + (c as f64 / 13.0).cos()) * 40.0 + 90.0
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
        let model = LinearModel::new(vec![1.0, -0.5], 0.25).unwrap();
        (model, pyramids, stores, stats)
    }

    fn mixed_batch<'a>(model: &'a LinearModel, pyramids: &'a [AggregatePyramid]) -> QueryBatch<'a> {
        let mut batch = QueryBatch::new(model, pyramids);
        for i in 0..9 {
            let q = if i % 3 == 0 {
                TopKQuery::new(1 + i % 4, Objective::Minimize).unwrap()
            } else {
                TopKQuery::max(1 + i % 5).unwrap()
            };
            batch.admit(q);
        }
        batch
    }

    #[test]
    fn scheduled_batch_results_stay_in_admission_order() {
        let (model, pyramids, stores, _) = batch_world(48, 48, 8);
        let batch = mixed_batch(&model, &pyramids);
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let src = TileSource::new(&stores).unwrap();
            let outs = batch.run(&src, &pool);
            assert_eq!(outs.len(), batch.len());
            for (qi, out) in outs.iter().enumerate() {
                let solo = grid_query(&model, &pyramids, batch.queries()[qi]).unwrap();
                assert_eq!(
                    out.as_ref().unwrap().results,
                    solo.results,
                    "threads={threads} q={qi}"
                );
            }
        }
    }

    #[test]
    fn session_scratch_pool_stops_regrowing() {
        let (model, pyramids, stores, _) = batch_world(48, 48, 8);
        let batch = mixed_batch(&model, &pyramids);
        let pool = WorkerPool::new(4);
        let mut scratches = ScratchPool::new();
        let src = TileSource::new(&stores).unwrap();
        let first = batch.run_with_pool(&src, &pool, &mut scratches);
        let warm = scratches.regrowths();
        assert!(!scratches.is_empty());
        for _ in 0..3 {
            let src = TileSource::new(&stores).unwrap();
            let again = batch.run_with_pool(&src, &pool, &mut scratches);
            for (a, b) in again.iter().zip(first.iter()) {
                assert_eq!(a.as_ref().unwrap().results, b.as_ref().unwrap().results);
            }
            assert_eq!(
                scratches.regrowths(),
                warm,
                "a warmed session scratch pool must not regrow"
            );
        }
    }

    #[test]
    fn cache_aware_schedule_compounds_hits() {
        let (model, pyramids, stores, stats) = batch_world(64, 64, 8);
        // Many identical queries: they predict the same page, schedule
        // adjacently, and after the first query warms the cache the rest
        // hit it.
        let mut batch = QueryBatch::new(&model, &pyramids);
        for _ in 0..8 {
            batch.admit(TopKQuery::max(5).unwrap());
        }
        let pool = WorkerPool::new(1);
        let src = CachedTileSource::new(&stores, 256).unwrap();
        let outs = batch.run(&src, &pool);
        assert!(outs.iter().all(Result::is_ok));
        assert!(
            stats.cache_hits() > stats.cache_misses(),
            "hits {} should dominate misses {}",
            stats.cache_hits(),
            stats.cache_misses()
        );
    }

    #[test]
    fn predicted_page_is_in_range_for_both_objectives() {
        let (model, pyramids, stores, _) = batch_world(32, 32, 8);
        let src = TileSource::new(&stores).unwrap();
        let pages = stores[0].page_count();
        for q in [
            TopKQuery::max(3).unwrap(),
            TopKQuery::new(3, Objective::Minimize).unwrap(),
        ] {
            let page = predicted_page(&model, &pyramids, q, &src).unwrap();
            assert!(page < pages, "page {page} out of {pages}");
        }
    }

    #[test]
    fn empty_batch_runs_to_nothing() {
        let (model, pyramids, stores, _) = batch_world(16, 16, 8);
        let batch = QueryBatch::new(&model, &pyramids);
        let pool = WorkerPool::new(2);
        let src = TileSource::new(&stores).unwrap();
        assert!(batch.run(&src, &pool).is_empty());
        assert!(batch.is_empty());
    }
}
