//! R3 bench: flat columnar scoring kernels vs the legacy nested-Vec
//! paths, across the dimensionalities and scales the paper's workloads
//! use. Three hot paths are measured: the sequential scan, the Onion
//! build sweep, and the Onion query walk — the last also on the input
//! its radial core order cannot help.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mbir_archive::synth::gaussian_tuples;
use mbir_index::onion::OnionIndex;
use mbir_index::scan::{scan_top_k, scan_top_k_flat};
use mbir_index::store::PointStore;
use std::hint::black_box;

/// A unit-ish direction deterministic in the dimension.
fn direction(d: usize) -> Vec<f64> {
    (0..d).map(|j| 0.443 - 0.061 * j as f64).collect()
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("r3_scan");
    for &d in &[2usize, 3, 8, 16] {
        for &n in &[10_000usize, 100_000] {
            let points = gaussian_tuples(7, n, d);
            let store = PointStore::from_rows(&points).expect("well-formed");
            let dir = direction(d);
            group.bench_with_input(BenchmarkId::new(format!("flat_d{d}"), n), &n, |b, _| {
                b.iter(|| scan_top_k_flat(black_box(&store), black_box(&dir), 10))
            });
            group.bench_with_input(BenchmarkId::new(format!("legacy_d{d}"), n), &n, |b, _| {
                b.iter(|| {
                    scan_top_k(black_box(&points), 10, |p| {
                        dir.iter().zip(p).map(|(a, v)| a * v).sum()
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_onion(c: &mut Criterion) {
    let mut group = c.benchmark_group("r3_onion");
    group.sample_size(10);
    let d = 3usize;
    let n = 100_000usize;
    let points = gaussian_tuples(7, n, d);
    let dir = direction(d);
    group.bench_function("build_kernel_100k", |b| {
        b.iter(|| OnionIndex::build_with(black_box(points.clone()), 24, 16, 7).expect("valid"))
    });
    group.bench_function("build_legacy_100k", |b| {
        b.iter(|| {
            OnionIndex::build_legacy_with(black_box(points.clone()), 24, 16, 7).expect("valid")
        })
    });
    let onion = OnionIndex::build_with(points, 24, 16, 7).expect("valid");
    group.bench_function("query_kernel_100k", |b| {
        b.iter(|| onion.top_k_max(black_box(&dir), 10).expect("valid"))
    });
    group.bench_function("query_legacy_100k", |b| {
        b.iter(|| onion.top_k_max_legacy(black_box(&dir), 10).expect("valid"))
    });
    // The adversarial input for the radial core: every tuple on one
    // box-normalised shell (an axis-stretched sphere), so no run radius is
    // below the first, the stop never fires and the whole core is walked
    // in permuted order. The flat scan of the same tuples is the cost to
    // hold it against.
    let shell: Vec<Vec<f64>> = gaussian_tuples(7, n, d)
        .into_iter()
        .map(|p| {
            let r = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            vec![5.0 * p[0] / r, p[1] / r, 0.2 * p[2] / r]
        })
        .collect();
    let shell_store = PointStore::from_rows(&shell).expect("well-formed");
    let shell_onion = OnionIndex::build_with(shell, 24, 16, 7).expect("valid");
    let walked = shell_onion.top_k_max(&dir, 10).expect("valid");
    assert!(
        walked.stats.tuples_examined as usize > n / 2,
        "the shell input is meant to defeat the radial stop"
    );
    group.bench_function("query_shell_100k", |b| {
        b.iter(|| shell_onion.top_k_max(black_box(&dir), 10).expect("valid"))
    });
    group.bench_function("scan_flat_shell_100k", |b| {
        b.iter(|| scan_top_k_flat(black_box(&shell_store), black_box(&dir), 10))
    });
    group.finish();
}

criterion_group!(benches, bench_scan, bench_onion);
criterion_main!(benches);
