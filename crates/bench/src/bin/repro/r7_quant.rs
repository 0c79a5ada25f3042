//! R7 — the i8 quantized coarse pass, end to end. Sweeps the pruned scan
//! over d x n variants (bit-identity asserted per variant), measures the
//! unhinted Onion query under its three names against the flat scan at
//! the E1 scale (gating on <= 3 % of the tuples examined and >= 5x over
//! `scan_top_k_flat`), and writes `BENCH_kernels.json`: the Onion query's
//! hot path plus a `configs` array with per-variant throughput and prune
//! rates.

use crate::harness::{write_artifact, Args};
use mbir_bench::{onion_workload, quant_workload};
use mbir_index::onion::OnionIndex;
use mbir_index::quant::QuantizedStore;
use mbir_index::scan::{scan_top_k_flat, scan_top_k_quant};
use mbir_index::store::PointStore;
use std::time::Instant;

pub fn run(args: &Args) {
    let seed = args.seed;
    println!("\n## R7 — Quantized coarse-pass pruning sweep\n");
    let k = 10usize;
    const REPS: u32 = 3;
    let time_ns = |f: &mut dyn FnMut()| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };

    // Scan sweep: the pruned scan against the exact flat kernel, one
    // variant per (d, n). Everything is asserted bit-identical before any
    // timing is believed.
    struct ScanRow {
        d: usize,
        n: usize,
        exact_ns: u64,
        quant_ns: u64,
        prune_rate: f64,
    }
    let mut rows: Vec<ScanRow> = Vec::new();
    println!("| d | n | exact ms | quant ms | exact Melem/s | quant Melem/s | speedup | prune |");
    println!("|---|---|---|---|---|---|---|---|");
    for d in [2usize, 3, 8] {
        for n in [10_000usize, 100_000, 1_000_000] {
            let (points, dir) = quant_workload(seed, n, d);
            let store = PointStore::from_rows(&points).expect("well-formed workload");
            let quant = QuantizedStore::build(&store);
            let exact = scan_top_k_flat(&store, &dir, k);
            let (pruned, report) = scan_top_k_quant(&store, &quant, &dir, k);
            assert_eq!(
                pruned.results, exact.results,
                "quant scan must be bit-identical (d={d}, n={n})"
            );
            let exact_ns = time_ns(&mut || {
                let _ = scan_top_k_flat(&store, &dir, k);
            });
            let quant_ns = time_ns(&mut || {
                let _ = scan_top_k_quant(&store, &quant, &dir, k);
            });
            let melem = |ns: u64| n as f64 / (ns as f64 / 1e9) / 1e6;
            println!(
                "| {d} | {n} | {:.3} | {:.3} | {:.1} | {:.1} | {:.2}x | {:.3} |",
                exact_ns as f64 / 1e6,
                quant_ns as f64 / 1e6,
                melem(exact_ns),
                melem(quant_ns),
                exact_ns as f64 / quant_ns as f64,
                report.prune_rate()
            );
            rows.push(ScanRow {
                d,
                n,
                exact_ns,
                quant_ns,
                prune_rate: report.prune_rate(),
            });
        }
    }

    // Onion query at the E1 scale, no hint: the legacy score closure, the
    // flat kernel and the entry point the quantized walk used to have are
    // one walk now and must answer (and count) identically; what is gated
    // is that the walk stops — against the flat scan of the same tuples.
    let onion_n = 100_000usize;
    let onion_d = 3usize;
    let (points, dir) = onion_workload(seed, onion_n);
    let onion_store = PointStore::from_rows(&points).expect("well-formed workload");
    let legacy_index =
        OnionIndex::build_legacy_with(points.clone(), 24, 16, 7).expect("valid workload");
    let kernel_index = OnionIndex::build_with(points, 24, 16, 7).expect("valid workload");
    let flat_scan = scan_top_k_flat(&onion_store, &dir, k);
    let legacy_query = legacy_index.top_k_max_legacy(&dir, k).expect("valid query");
    let kernel_query = kernel_index.top_k_max(&dir, k).expect("valid query");
    let (quant_query, onion_report) = kernel_index
        .top_k_max_quant_report(&dir, k)
        .expect("valid query");
    assert_eq!(
        kernel_query.results, flat_scan.results,
        "onion query must be index- and bit-identical to the flat scan"
    );
    assert_eq!(kernel_query, legacy_query, "exact == legacy");
    assert_eq!(quant_query, kernel_query, "quant == exact");
    assert_eq!(onion_report.rows_exact, kernel_query.stats.tuples_examined);
    let onion_tuples = kernel_query.stats.tuples_examined;
    let examined_share = onion_tuples as f64 / onion_n as f64;
    let scan_flat_ns = time_ns(&mut || {
        let _ = scan_top_k_flat(&onion_store, &dir, k);
    });
    let onion_legacy_ns = time_ns(&mut || {
        let _ = legacy_index.top_k_max_legacy(&dir, k).expect("valid query");
    });
    let onion_kernel_ns = time_ns(&mut || {
        let _ = kernel_index.top_k_max(&dir, k).expect("valid query");
    });
    let onion_quant_ns = time_ns(&mut || {
        let _ = kernel_index.top_k_max_quant(&dir, k).expect("valid query");
    });
    let onion_speedup = scan_flat_ns as f64 / onion_kernel_ns as f64;
    println!(
        "\nOnion query (d={onion_d}, n={onion_n}, no hint): {onion_tuples} tuples examined \
         ({:.2} %); flat scan {:.1} us, legacy {:.1} us, kernel {:.1} us, quant {:.1} us — \
         {:.1}x over the flat scan",
        examined_share * 100.0,
        scan_flat_ns as f64 / 1e3,
        onion_legacy_ns as f64 / 1e3,
        onion_kernel_ns as f64 / 1e3,
        onion_quant_ns as f64 / 1e3,
        onion_speedup,
    );
    assert!(
        examined_share <= 0.03,
        "unhinted onion query must examine <= 3 % of the tuples, got {onion_tuples}"
    );
    assert!(
        onion_speedup >= 5.0,
        "unhinted onion query must be >= 5x over scan_top_k_flat, got {onion_speedup:.2}x"
    );

    let melem = |n: usize, ns: u64| n as f64 / (ns as f64 / 1e9) / 1e6;
    let configs: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"d\":{},\"n\":{},\"scan\":{{\"exact_ns\":{},\"quant_ns\":{},\
                 \"exact_melem_per_s\":{:.3},\"quant_melem_per_s\":{:.3},\"speedup\":{:.4}}},\
                 \"prune_rate\":{:.6}}}",
                r.d,
                r.n,
                r.exact_ns,
                r.quant_ns,
                melem(r.n, r.exact_ns),
                melem(r.n, r.quant_ns),
                r.exact_ns as f64 / r.quant_ns as f64,
                r.prune_rate
            )
        })
        .collect();
    write_artifact(
        "BENCH_kernels.json",
        "r7_quant",
        args,
        &format!(
            "\"world\": {{\"onion_n\": {onion_n}, \"onion_d\": {onion_d}, \"k\": {k}, \
             \"seed\": {seed}}},\n  \"bit_identical\": true,\n  \"hot_paths\": {{\n    \
             \"onion_query\": {{\"scan_flat_ns\":{scan_flat_ns},\"legacy_ns\":{onion_legacy_ns},\
             \"kernel_ns\":{onion_kernel_ns},\"quant_ns\":{onion_quant_ns},\
             \"tuples_examined\":{onion_tuples},\"examined_share\":{:.6},\
             \"speedup_vs_flat_scan\":{:.4}}}\n  }},\n  \"configs\": [\n    {}\n  ]",
            examined_share,
            onion_speedup,
            configs.join(",\n    "),
        ),
    );
}
