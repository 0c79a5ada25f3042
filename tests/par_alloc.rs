//! The pool's workers persist, and with them each worker's thread-local
//! batch scratch, so a warm parallel query grows no frontier or memo
//! afresh: measured in bytes so it holds on any host, a warm two-thread
//! `par_resilient_top_k` and a warm two-shard, two-thread
//! `batched_scatter_gather_top_k` allocate what their answers cost plus
//! a stated per-call constant.
//!
//! Same counting allocator as `solo_alloc.rs`, and for the same reason a
//! file of its own holding one test: nothing else allocates meanwhile.
//! The counter is process-wide, so the pool workers' bytes count too.

use mbir_archive::grid::Grid2;
use mbir_core::parallel::{par_resilient_top_k, WorkerPool};
use mbir_core::resilient::{ExecutionBudget, ResilientHit};
use mbir_core::shard::{batched_scatter_gather_top_k, ArchiveShard, ScatterPolicy, ShardedArchive};
use mbir_core::source::PyramidSource;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::mem::size_of;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocated;

const K: usize = 100;
const SIDE: usize = 256;
const THREADS: usize = 2;
/// Calls before measuring: the first spawns the worker, and the caller
/// and the worker may each need a few calls before both have run the
/// larger task (either thread can claim either task).
const WARM_CALLS: usize = 8;
/// Measured calls; the bound is on their mean.
const CALLS: u64 = 32;
/// Per-call bytes beyond the answer that a warm `par_resilient_top_k`
/// may allocate.
const PAR_CONSTANT: usize = 16 << 10;
/// Per-call bytes beyond the answers that a warm
/// `batched_scatter_gather_top_k` may allocate.
const SCATTER_CONSTANT: usize = 48 << 10;

fn band(i: usize, rows: std::ops::Range<usize>) -> Grid2<f64> {
    let offset = rows.start;
    Grid2::from_fn(rows.len(), SIDE, |r, c| {
        let r = r + offset;
        ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
    })
}

fn pyramids(rows: std::ops::Range<usize>) -> Vec<AggregatePyramid> {
    (0..3)
        .map(|i| AggregatePyramid::build(&band(i, rows.clone())))
        .collect()
}

/// Mean bytes allocated by one warm call of `query`, whose answers must
/// not change from the first call (the work counters may: the workers'
/// shared floors race).
fn warm_bytes<T: PartialEq + std::fmt::Debug>(query: impl Fn() -> T) -> u64 {
    let first = query();
    for _ in 1..WARM_CALLS {
        assert_eq!(query(), first);
    }
    let before = allocated();
    for _ in 0..CALLS {
        assert_eq!(query(), first);
    }
    (allocated() - before) / CALLS
}

#[test]
fn warm_parallel_queries_allocate_their_answers_not_their_frontiers() {
    let pool = WorkerPool::new(THREADS);
    let budget = ExecutionBudget::unlimited();
    let hit = size_of::<ResilientHit>() + size_of::<ScoredItem>();

    let whole = pyramids(0..SIDE);
    let model = LinearModel::new(vec![1.0, 0.7, -0.4], 0.25).unwrap();
    let source = PyramidSource::new(&whole);
    let par = warm_bytes(|| {
        let got = par_resilient_top_k(&model, &whole, K, &source, &budget, &pool).unwrap();
        assert_eq!(got.results.len(), K);
        got.results
    });
    // The answer and the heap behind it, each with room to double, as in
    // `solo_alloc.rs`, plus a per-call constant set from what is measured
    // (25.7 – 26.8 KB over six runs): the lanes, envs and answer buffers every
    // call still allocates, and the call's task slots. With a fresh
    // thread per task, a warm call allocated 93.8 KB.
    let answer = 2 * K * hit;
    let limit = (answer + PAR_CONSTANT) as u64;
    assert!(
        par <= limit,
        "a warm two-thread K = {K} query allocated {par} B, over {limit} B"
    );

    let halves = [pyramids(0..SIDE / 2), pyramids(SIDE / 2..SIDE)];
    let sources = [
        PyramidSource::new(&halves[0]),
        PyramidSource::new(&halves[1]),
    ];
    let archive = ShardedArchive::new(vec![
        ArchiveShard::new(&halves[0], &sources[0], 0),
        ArchiveShard::new(&halves[1], &sources[1], SIDE / 2),
    ])
    .unwrap();
    let models: Vec<LinearModel> = [0.7, -0.3, 1.5, 0.2]
        .iter()
        .map(|&w| LinearModel::new(vec![1.0, w, -0.4], 0.25).unwrap())
        .collect();
    let policy = ScatterPolicy::require_all();
    let scatter = warm_bytes(|| {
        let got =
            batched_scatter_gather_top_k(&models, &archive, K, &budget, &policy, &pool).unwrap();
        assert!(got.queries.iter().all(|q| q.results.len() == K));
        got.queries
            .into_iter()
            .map(|q| q.results)
            .collect::<Vec<_>>()
    });
    // One answer per query, plus a constant set from what is measured
    // (93.8 – 95.8 KB over nine runs): per-shard lanes, envs, reports and the
    // per-shard hit lists the gather merges. With a fresh thread per
    // shard worker, a warm call allocated 513 KB.
    let limit = (models.len() * answer + SCATTER_CONSTANT) as u64;
    assert!(
        scatter <= limit,
        "a warm two-shard, two-thread batch of {} allocated {scatter} B, over {limit} B",
        models.len()
    );
}
