//! R7 bench: the i8 quantized coarse pass vs the exact flat kernels, on
//! both friendly and adversarial inputs. Two groups (the Onion query no
//! longer has a quantized walk to measure; its one walk is in the
//! `kernels` bench):
//!
//! * `r7_scan` — pruned scan vs exact flat scan across d x n variants.
//! * `r7_adversarial` — the pruned scan on a worst-case direction
//!   chosen so quantized upper bounds clear the floor almost everywhere
//!   and nothing prunes: the honest ceiling on the coarse pass's
//!   overhead, not a victory lap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbir_bench::quant_workload;
use mbir_index::quant::QuantizedStore;
use mbir_index::scan::{scan_top_k_flat, scan_top_k_quant};
use mbir_index::store::PointStore;
use std::hint::black_box;

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("r7_scan");
    for &d in &[2usize, 3, 8] {
        for &n in &[10_000usize, 100_000] {
            let (points, dir) = quant_workload(7, n, d);
            let store = PointStore::from_rows(&points).expect("well-formed");
            let quant = QuantizedStore::build(&store);
            group.bench_with_input(BenchmarkId::new(format!("exact_d{d}"), n), &n, |b, _| {
                b.iter(|| scan_top_k_flat(black_box(&store), black_box(&dir), 10))
            });
            group.bench_with_input(BenchmarkId::new(format!("quant_d{d}"), n), &n, |b, _| {
                b.iter(|| {
                    scan_top_k_quant(black_box(&store), black_box(&quant), black_box(&dir), 10)
                })
            });
        }
    }
    group.finish();
}

/// The adversarial direction: all mass on one axis. Every block's spread
/// along that axis straddles the top scores, the quantized bounds stay
/// above the floor, and the coarse pass degenerates to pure overhead —
/// the number to watch is how little slower `quant_*` is than `exact_*`.
fn bench_adversarial(c: &mut Criterion) {
    let mut group = c.benchmark_group("r7_adversarial");
    group.sample_size(20);
    let n = 100_000usize;
    let d = 3usize;
    let (points, _) = quant_workload(7, n, d);
    // Sort-free worst case: a direction orthogonal-ish to the layout so
    // per-block [lo, hi] score intervals all overlap the global top.
    let mut dir = vec![0.0f64; d];
    dir[d - 1] = 1.0;
    let store = PointStore::from_rows(&points).expect("well-formed");
    let quant = QuantizedStore::build(&store);
    group.bench_function("scan_exact_100k", |b| {
        b.iter(|| scan_top_k_flat(black_box(&store), black_box(&dir), 10))
    });
    group.bench_function("scan_quant_100k", |b| {
        b.iter(|| scan_top_k_quant(black_box(&store), black_box(&quant), black_box(&dir), 10))
    });
    group.finish();
}

criterion_group!(benches, bench_scan, bench_adversarial);
criterion_main!(benches);
