//! Criterion benches for the parallel execution layer: the partitioned
//! pyramid descent (`par_resilient_top_k` over the pyramids' own level 0
//! with an unlimited budget) and the partitioned staged scan, each against
//! its sequential engine across thread counts (the batched engine has its
//! own `batch` bench). EXPERIMENTS.md R2 quotes these groups; every
//! parallel answer is asserted bit-identical to the sequential one in
//! `tests/parallel_props.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbir_bench::parallel_world;
use mbir_core::engine::{pyramid_top_k, staged_top_k};
use mbir_core::parallel::{par_resilient_top_k, par_staged_top_k, WorkerPool};
use mbir_core::resilient::ExecutionBudget;
use mbir_core::source::PyramidSource;
use mbir_models::linear::ProgressiveLinearModel;

/// The group keeps its `par_pyramid_top_k` id, so R2 stays comparable.
fn bench_par_pyramid(c: &mut Criterion) {
    let (pyramids, model, _, _) = parallel_world(29, 128, 4, 16);
    let k = 10;
    let source = PyramidSource::new(&pyramids);
    let unlimited = ExecutionBudget::unlimited();
    let mut group = c.benchmark_group("par_pyramid_top_k");
    group.bench_function("sequential", |b| {
        b.iter(|| pyramid_top_k(&model, &pyramids, k).expect("valid inputs"))
    });
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| {
                par_resilient_top_k(&model, &pyramids, k, &source, &unlimited, pool).expect("valid")
            })
        });
    }
    group.finish();
}

/// The staged scan over the flattened base level of a 512x512, 4-attribute
/// world: one tuple a base cell, the progressive model's stage ranges
/// taken from each pyramid's root.
fn bench_par_staged(c: &mut Criterion) {
    let side = 512usize;
    let (pyramids, model, _, _) = parallel_world(29, side, 4, 16);
    let k = 10;
    let ranges: Vec<(f64, f64)> = pyramids
        .iter()
        .map(|p| (p.root().min, p.root().max))
        .collect();
    let progressive = ProgressiveLinearModel::new(model, &ranges).expect("ranges match arity");
    let tuples: Vec<Vec<f64>> = (0..side * side)
        .map(|i| {
            pyramids
                .iter()
                .map(|p| p.cell(0, i / side, i % side).expect("in-bounds").mean)
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("par_staged_top_k");
    group.bench_function("sequential", |b| {
        b.iter(|| staged_top_k(&progressive, &tuples, k).expect("valid inputs"))
    });
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| par_staged_top_k(&progressive, &tuples, k, pool).expect("valid"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_pyramid, bench_par_staged);
criterion_main!(benches);
