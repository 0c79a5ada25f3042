//! R1 bench: overhead of the resilient engine.
//!
//! The contract is that resilience is (nearly) free when nothing goes
//! wrong. Over the pyramids' own level 0 with an unlimited budget,
//! `resilient_top_k` *is* the strict `pyramid_top_k`, so that arm is the
//! baseline; the paged arm adds the tile-store read path. The faulty
//! variant is informational — it measures the degraded path (retries,
//! quarantine bookkeeping, frontier salvage), not a regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::tile::TileStore;
use mbir_bench::hps_paged_world;
use mbir_core::resilient::{resilient_top_k, ExecutionBudget};
use mbir_core::source::{PyramidSource, TileSource};
use std::hint::black_box;

fn bench_resilient(c: &mut Criterion) {
    let mut group = c.benchmark_group("r1_resilient");
    group.sample_size(20);
    let side = 256usize;
    let tile = 32usize;
    let k = 10;
    let budget = ExecutionBudget::unlimited();

    let (pyramids, stores, model, _) = hps_paged_world(5, side, side, tile);

    // Baseline: in-memory source, the code `pyramid_top_k` runs.
    let pyr_src = PyramidSource::new(&pyramids);
    group.bench_with_input(
        BenchmarkId::new("resilient_pyramid_source", side),
        &side,
        |b, _| {
            b.iter(|| {
                resilient_top_k(model.model(), black_box(&pyramids), k, &pyr_src, &budget)
                    .expect("valid")
            })
        },
    );

    // Fault-free overhead, paged source: adds the tile-store read path
    // (page accounting + fault-state lock) for base-level cells.
    let tile_src = TileSource::new(&stores).expect("aligned stores");
    group.bench_with_input(
        BenchmarkId::new("resilient_tile_source", side),
        &side,
        |b, _| {
            b.iter(|| {
                resilient_top_k(model.model(), black_box(&pyramids), k, &tile_src, &budget)
                    .expect("valid")
            })
        },
    );

    // Degraded path: a spread of permanently lost pages plus retries.
    let page_count = stores[0].page_count();
    let profile = (0..page_count)
        .step_by(7)
        .fold(FaultProfile::new(), |p, page| p.permanent(page));
    let faulty: Vec<TileStore> = stores
        .iter()
        .map(|s| {
            s.clone()
                .with_faults(profile.clone())
                .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), Some(3)))
        })
        .collect();
    let faulty_src = TileSource::new(&faulty).expect("aligned stores");
    group.bench_with_input(
        BenchmarkId::new("resilient_lossy_archive", side),
        &side,
        |b, _| {
            b.iter(|| {
                resilient_top_k(model.model(), black_box(&pyramids), k, &faulty_src, &budget)
                    .expect("valid")
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_resilient);
criterion_main!(benches);
