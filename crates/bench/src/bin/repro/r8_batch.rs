//! R8 — batched multi-query scatter-gather at archive scale: a Q=32 batch
//! of perturbed query directions over a 10.5M-cell grid in 16 row-band
//! shards, answered by *one* shared per-shard descent
//! ([`batched_scatter_gather_top_k`]) and compared against 32 independent
//! [`scatter_gather_top_k`] runs. Gates: every query's batched answer is
//! bit-identical to its solo run (always); at full scale the batch reads at
//! least 3x fewer pages and delivers at least 2x aggregate throughput.
//! Prints the solo-vs-batched table with the page-cache hit/miss/dedup
//! counters and writes `BENCH_batch.json`, whose batched counters —
//! `madds_per_query` among them — `scripts/check_counters.sh` pins at
//! `--threads 1`. With `--small` the world shrinks
//! for CI and the perf gates turn informational.

use crate::harness::{archive, write_artifact, Args};
use mbir_archive::grid::Grid2;
use mbir_archive::tile::TileStore;
use mbir_core::metrics::sharded_degradation_summary;
use mbir_core::parallel::WorkerPool;
use mbir_core::resilient::ExecutionBudget;
use mbir_core::shard::{
    batched_scatter_gather_top_k, scatter_gather_top_k, ScatterPolicy, ShardOutcome, ShardedArchive,
};
use mbir_core::source::{CachedTileSource, CellSource};
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::time::Instant;

pub fn run(args: &Args) {
    let (seed, small) = (args.seed, args.small);
    let threads = args
        .threads
        .unwrap_or_else(|| WorkerPool::with_default_parallelism().threads());
    let (rows, cols, tile, shards) = if small {
        (256usize, 256usize, 16usize, 16usize)
    } else {
        (4096usize, 2560usize, 32usize, 16usize)
    };
    let (k, q_count) = (10usize, 32usize);
    let cells = (rows * cols) as u64;
    println!(
        "\n## R8 — Batched multi-query scatter-gather: shared descent over \
         {cells} cells x {shards} shards, Q={q_count} (seed {seed}, threads {threads}{})\n",
        if small { ", small" } else { "" }
    );
    println!("emulated remote storage: 1000 us per base-page fetch (cache misses only)\n");

    // A smooth scene with a deterministic ripple: upper-level bounds stay
    // slightly loose near the optimum, so every query reads a handful of
    // pages instead of resolving from the pyramid alone.
    let field = |attr: usize, r: usize, c: usize| -> f64 {
        let phase = (seed % 17) as f64 * 0.29 + attr as f64 * 1.7;
        let base = ((r as f64 / 37.0 + phase).sin() + (c as f64 / 53.0 - phase).cos()) * 40.0;
        let ripple = (((r * 31 + c * 17 + attr * 7) % 97) as f64 / 97.0 - 0.5) * 6.0;
        base + ripple + 100.0
    };

    struct BatchShardWorld {
        pyramids: Vec<AggregatePyramid>,
        stores: Vec<TileStore>,
        stats: mbir_archive::stats::AccessStats,
        row_offset: usize,
    }
    let band_rows = rows / shards;
    let worlds: Vec<BatchShardWorld> = (0..shards)
        .map(|s| {
            let offset = s * band_rows;
            let stats = mbir_archive::stats::AccessStats::new();
            let mut pyramids = Vec::with_capacity(2);
            let mut stores = Vec::with_capacity(2);
            for attr in 0..2 {
                let band = Grid2::from_fn(band_rows, cols, |r, c| field(attr, offset + r, c));
                pyramids.push(AggregatePyramid::build(&band));
                stores.push(
                    TileStore::new(band, tile)
                        .expect("valid tile size")
                        .with_stats(stats.clone()),
                );
            }
            BatchShardWorld {
                pyramids,
                stores,
                stats,
                row_offset: offset,
            }
        })
        .collect();

    // Q=32 gently perturbed query directions — the cache-aware batching
    // regime: distinct answers, heavily overlapping descents.
    let models: Vec<LinearModel> = (0..q_count)
        .map(|qi| {
            let t = qi as f64;
            LinearModel::new(vec![1.0 + 0.004 * t, -0.62 + 0.003 * t], 0.05 * t)
                .expect("valid coefficients")
        })
        .collect();
    let budget = ExecutionBudget::unlimited();
    let policy = ScatterPolicy::require_all();
    let pool = WorkerPool::new(threads);

    // At archive scale base pages live on remote storage; in-memory tile
    // stores would make page fetches free and hide exactly the cost the
    // batch amortizes. Charge every cache miss a fixed wall-clock fetch
    // latency (the order of a fast object-store round trip) so MCell/s
    // reflects the storage cost model the rest of the repo expresses in
    // virtual ticks.
    let page_delay = std::time::Duration::from_micros(1000);
    struct EmulatedRemoteSource<'a> {
        inner: CachedTileSource<'a>,
        page_delay: std::time::Duration,
    }
    impl CellSource for EmulatedRemoteSource<'_> {
        fn base_cell(
            &self,
            attr: usize,
            row: usize,
            col: usize,
        ) -> Result<f64, mbir_archive::error::ArchiveError> {
            let before = self.inner.pages_read();
            let out = self.inner.base_cell(attr, row, col);
            let fetched = self.inner.pages_read().saturating_sub(before);
            if fetched > 0 {
                std::thread::sleep(self.page_delay * fetched as u32);
            }
            out
        }
        fn page_of(&self, row: usize, col: usize) -> Option<usize> {
            self.inner.page_of(row, col)
        }
        fn pages_read(&self) -> u64 {
            self.inner.pages_read()
        }
        fn ticks_elapsed(&self) -> u64 {
            self.inner.ticks_elapsed()
        }
    }

    // Fresh page caches per run (cold for every solo query and cold once
    // for the batch) keep the comparison honest.
    let with_batch_archive =
        |body: &mut dyn FnMut(&ShardedArchive<'_, EmulatedRemoteSource<'_>>)| {
            let sources: Vec<EmulatedRemoteSource<'_>> = worlds
                .iter()
                .map(|w| EmulatedRemoteSource {
                    inner: CachedTileSource::new(&w.stores, 1024).expect("aligned stores"),
                    page_delay,
                })
                .collect();
            let layout = worlds.iter().map(|w| (w.pyramids.as_slice(), w.row_offset));
            body(&archive(layout, &sources));
        };
    let cache_totals = || -> (u64, u64, u64) {
        worlds.iter().fold((0, 0, 0), |(h, m, d), w| {
            (
                h + w.stats.cache_hits(),
                m + w.stats.cache_misses(),
                d + w.stats.cache_dedup_waits(),
            )
        })
    };

    // Solo baseline: Q independent scatter-gather runs.
    let mut solo_results = Vec::with_capacity(q_count);
    let mut solo_pages = 0u64;
    let mut solo_ms: Vec<f64> = Vec::with_capacity(q_count);
    let cache_before = cache_totals();
    for model in &models {
        with_batch_archive(&mut |archive| {
            let t0 = Instant::now();
            let r = scatter_gather_top_k(model, archive, k, &budget, &policy, &pool)
                .expect("healthy solo scatter");
            solo_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            solo_pages += r.shards.iter().map(|s| s.pages_read).sum::<u64>();
            assert_eq!(r.completeness, 1.0, "solo scatter must resolve fully");
            solo_results.push(r.results);
        });
    }
    let cache_after = cache_totals();
    let solo_cache = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
        cache_after.2 - cache_before.2,
    );
    let solo_total_ms: f64 = solo_ms.iter().sum();
    let mut solo_sorted = solo_ms;
    solo_sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| solo_sorted[((solo_sorted.len() - 1) as f64 * p).round() as usize];
    let (solo_p50, solo_p99) = (pct(0.5), pct(0.99));

    // Batched run: one shared descent per shard serves all Q queries.
    let mut batch_pages = 0u64;
    let mut batch_ms = 0.0f64;
    let mut batch_counters = (0u64, 0u64, 0u64, 0u64); // fetched, requests, evals, breqs
    let mut batch_madds = 0u64;
    let cache_before = cache_totals();
    with_batch_archive(&mut |archive| {
        let t0 = Instant::now();
        let batch = batched_scatter_gather_top_k(&models, archive, k, &budget, &policy, &pool)
            .expect("healthy batched scatter");
        batch_ms = t0.elapsed().as_secs_f64() * 1e3;
        batch_pages = batch.pages_read;
        batch_counters = (
            batch.cells_fetched,
            batch.cell_requests,
            batch.bound_evals,
            batch.bound_requests,
        );
        batch_madds = batch.queries.iter().map(|r| r.effort.multiply_adds).sum();
        for (q, solo) in solo_results.iter().enumerate() {
            assert_eq!(
                &batch.queries[q].results, solo,
                "batched answer must be bit-identical to the solo run (q={q})"
            );
            assert_eq!(batch.queries[q].completeness, 1.0);
            assert!(batch.queries[q]
                .shards
                .iter()
                .all(|s| s.outcome == ShardOutcome::Complete));
        }
        // Satellite view: the merged degradation summary (the page-cache
        // counters are the batch-phase `AccessStats` deltas below).
        let summary = sharded_degradation_summary(&batch.queries[0]);
        println!(
            "merged summary (q0): completeness {:.3}, pages read {}, skipped {}",
            summary.completeness, summary.pages_read, summary.skipped_pages
        );
    });
    let cache_after = cache_totals();
    let batch_cache = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
        cache_after.2 - cache_before.2,
    );

    let agg = |ms: f64| (q_count as u64 * cells) as f64 / 1e6 / (ms / 1e3);
    println!(
        "\n| mode | pages read | cache hit/miss/dedup | wall ms | agg Mcell/s | p50 ms/query | p99 ms/query |"
    );
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| solo x{q_count} | {solo_pages} | {}/{}/{} | {solo_total_ms:.1} | {:.1} | {solo_p50:.2} | {solo_p99:.2} |",
        solo_cache.0,
        solo_cache.1,
        solo_cache.2,
        agg(solo_total_ms),
    );
    println!(
        "| batched Q={q_count} | {batch_pages} | {}/{}/{} | {batch_ms:.1} | {:.1} | {:.2} | {:.2} |",
        batch_cache.0,
        batch_cache.1,
        batch_cache.2,
        agg(batch_ms),
        batch_ms / q_count as f64,
        batch_ms / q_count as f64,
    );
    let madds_per_query = batch_madds as f64 / q_count as f64;
    println!("\nbatched scatter work: {madds_per_query:.4} multiply-adds per query");
    println!(
        "batched sharing: {} cell requests over {} fetches ({:.1}x), {} bound requests over {} evals ({:.1}x)",
        batch_counters.1,
        batch_counters.0,
        batch_counters.1 as f64 / batch_counters.0.max(1) as f64,
        batch_counters.3,
        batch_counters.2,
        batch_counters.3 as f64 / batch_counters.2.max(1) as f64,
    );

    let page_ratio = solo_pages as f64 / batch_pages.max(1) as f64;
    let throughput_ratio = solo_total_ms / batch_ms.max(1e-9);
    let enforce = !small && cells >= 10_000_000;
    if enforce {
        assert!(
            page_ratio >= 3.0,
            "page amortization gate: batch must read >= 3x fewer pages, got {page_ratio:.2}x"
        );
        assert!(
            throughput_ratio >= 2.0,
            "throughput gate: batch must be >= 2x faster in aggregate, got {throughput_ratio:.2}x"
        );
    }
    println!(
        "per-query bit-identity: yes; page amortization {page_ratio:.1}x (gate >= 3x: {}); \
         aggregate throughput {throughput_ratio:.1}x (gate >= 2x: {})",
        if !enforce { "informational" } else { "pass" },
        if !enforce { "informational" } else { "pass" },
    );

    write_artifact(
        "BENCH_batch.json",
        "r8_batch",
        args,
        &format!(
            "\"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"cells\": {cells}, \"tile\": {tile}, \
             \"shards\": {shards}, \"q\": {q_count}, \"k\": {k}, \"threads\": {threads}, \
             \"page_fetch_us\": 1000, \"small\": {small}}},\n  \"solo\": {{\"pages_read\": \
             {solo_pages}, \"wall_ms\": {solo_total_ms:.3}, \"mcells_per_s\": {:.3}, \"p50_ms\": \
             {solo_p50:.3}, \"p99_ms\": {solo_p99:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_dedup_waits\": {}}},\n  \"batched\": {{\"pages_read\": {batch_pages}, \
             \"cells_fetched\": {}, \"cell_requests\": {}, \"bound_evals\": {}, \
             \"bound_requests\": {}, \"madds_per_query\": {madds_per_query}, \"wall_ms\": {batch_ms:.3}, \"mcells_per_s\": {:.3}, \
             \"per_query_ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_dedup_waits\": {}}},\n  \"gates\": {{\"bit_identical\": true, \
             \"page_ratio\": {page_ratio:.3}, \"throughput_ratio\": {throughput_ratio:.3}, \
             \"enforced\": {enforce}}}",
            agg(solo_total_ms),
            solo_cache.0,
            solo_cache.1,
            solo_cache.2,
            batch_counters.0,
            batch_counters.1,
            batch_counters.2,
            batch_counters.3,
            agg(batch_ms),
            batch_ms / q_count as f64,
            batch_cache.0,
            batch_cache.1,
            batch_cache.2,
        ),
    );
}
