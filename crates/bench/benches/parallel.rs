//! Criterion benches for the parallel execution layer: the partitioned
//! pyramid engine's wall time across thread counts (the batched engine
//! has its own `batch` bench). The repro binary
//! (`repro r2`) produces the EXPERIMENTS.md / BENCH_parallel.json numbers;
//! these benches exist for statistically careful local comparisons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbir_bench::parallel_world;
use mbir_core::engine::pyramid_top_k;
use mbir_core::parallel::{par_pyramid_top_k, WorkerPool};

fn bench_par_pyramid(c: &mut Criterion) {
    let (pyramids, model, _, _) = parallel_world(29, 128, 4, 16);
    let k = 10;
    let mut group = c.benchmark_group("par_pyramid_top_k");
    group.bench_function("sequential", |b| {
        b.iter(|| pyramid_top_k(&model, &pyramids, k).expect("valid inputs"))
    });
    for threads in [1usize, 2, 4] {
        let pool = WorkerPool::new(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| par_pyramid_top_k(&model, &pyramids, k, pool).expect("valid"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_pyramid);
criterion_main!(benches);
