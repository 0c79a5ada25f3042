//! A solo query is a batch of one, so a warm `resilient_top_k` takes its
//! frontier from its thread's batch scratch instead of growing a fresh
//! one: measured in bytes so it holds on any host, the second of two
//! identical queries allocates what its answer costs, not what its
//! frontier costs.
//!
//! Same counting allocator as `pyramid_alloc.rs`, and for the same reason
//! a file of its own holding one test: nothing else allocates meanwhile.

use mbir_archive::grid::Grid2;
use mbir_core::resilient::{resilient_top_k, ExecutionBudget, ResilientHit};
use mbir_core::source::PyramidSource;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::mem::size_of;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocated;

const K: usize = 100;

#[test]
fn warm_solo_query_allocates_its_answer_not_its_frontier() {
    let (rows, cols) = (256, 256);
    let pyramids: Vec<AggregatePyramid> = (0..3)
        .map(|i| {
            AggregatePyramid::build(&Grid2::from_fn(rows, cols, |r, c| {
                ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
            }))
        })
        .collect();
    let model = LinearModel::new(vec![1.0, 0.7, -0.4], 0.25).unwrap();
    let source = PyramidSource::new(&pyramids);
    let budget = ExecutionBudget::unlimited();
    let query = || resilient_top_k(&model, &pyramids, K, &source, &budget).unwrap();

    let first = query();
    let before = allocated();
    let second = query();
    let spent = allocated() - before;
    assert_eq!(second, first);
    assert_eq!(second.results.len(), K);

    // The answer and the top-K heap behind it, each with room to double
    // (the hits are sorted with a scratch buffer), plus a few hundred
    // bytes of per-query set-up. A frontier grown afresh for this query
    // would add some 65 KB.
    let answer = 2 * K * (size_of::<ResilientHit>() + size_of::<ScoredItem>());
    let budget = answer + 1024;
    assert!(
        spent as usize <= budget,
        "a warm K = {K} query allocated {spent} B, over {budget} B"
    );
}
