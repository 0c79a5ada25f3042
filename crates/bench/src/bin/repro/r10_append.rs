//! R10 — crash-consistent appends: the journal writer is killed at every
//! byte offset (plus torn-write and partial-record cuts inside every
//! frame) and each recovery must be bit-identical to a freshly built
//! archive of the committed prefix; live appends then run under
//! concurrent queries with snapshot answers gated bit-identical at
//! threads ∈ {1, 2, 4, 8} and shards ∈ {1, 4}; epoch-keyed cache
//! invalidation must touch only the append frontier, and a standing query
//! must replay identically across a crash. Writes `BENCH_append.json`.
//! (That an append costs the band, not the archive, is gated in bytes by
//! `tests/append_alloc.rs`.)

use crate::harness::{archive, tile_sources, write_artifact, Args};
use mbir_archive::fault::WriteFault;
use mbir_archive::grid::Grid2;
use mbir_archive::journal::FRAME_HEADER_LEN;
use mbir_archive::shard::ShardPlan;
use mbir_archive::tile::TileStore;
use mbir_archive::weather::WeatherGenerator;
use mbir_core::continuous::ContinuousQueryDriver;
use mbir_core::parallel::{par_resilient_top_k, WorkerPool};
use mbir_core::resilient::{resilient_top_k, ExecutionBudget};
use mbir_core::shard::{scatter_gather_top_k, ScatterPolicy};
use mbir_core::snapshot::{EpochSnapshot, LiveArchive};
use mbir_core::source::{CachedTileSource, CellSource, TileSource};
use mbir_models::fsm::fire_ants::{fire_ants_fsm, DayClass};
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;

pub fn run(args: &Args) {
    let (seed, small) = (args.seed, args.small);
    println!(
        "\n## R10 — Crash-consistent appends: chaos recovery and snapshot isolation (seed {seed})\n"
    );

    // Content keyed by absolute coordinates so the archive after any number
    // of commits equals one `from_fn` build over the full height.
    let cell = move |attr: usize, row: usize, col: usize| -> f64 {
        let h = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((attr as u64) << 40)
            .wrapping_add((row as u64) << 20)
            .wrapping_add(col as u64)
            .wrapping_mul(0x5851_f42d_4c95_7f2d);
        ((h >> 16) % 10_000) as f64 / 50.0 - 100.0
    };
    let grids_to = move |attrs: usize, rows: usize, cols: usize| -> Vec<Grid2<f64>> {
        (0..attrs)
            .map(|a| Grid2::from_fn(rows, cols, |r, c| cell(a, r, c)))
            .collect()
    };
    let band_at = move |attrs: usize, offset: usize, h: usize, cols: usize| -> Vec<Grid2<f64>> {
        (0..attrs)
            .map(|a| Grid2::from_fn(h, cols, |r, c| cell(a, offset + r, c)))
            .collect()
    };
    let clean_archive =
        move |attrs: usize, base: usize, heights: &[usize], cols: usize, tile: usize| {
            let mut live = LiveArchive::new(grids_to(attrs, base, cols), tile).expect("valid base");
            let mut offset = base;
            for &h in heights {
                live.append(&band_at(attrs, offset, h, cols))
                    .expect("clean append");
                offset += h;
            }
            live
        };

    fn snapshots_bit_eq(a: &EpochSnapshot, b: &EpochSnapshot) -> bool {
        a.epoch() == b.epoch()
            && a.stores().iter().zip(b.stores()).all(|(x, y)| {
                x.rows() == y.rows()
                    && (0..x.rows()).all(|r| {
                        (0..x.cols()).all(|c| {
                            x.read(r, c).unwrap().to_bits() == y.read(r, c).unwrap().to_bits()
                        })
                    })
            })
    }

    // --- Phase 1: the crash sweep, over a compact journal so "every byte
    // offset" stays tractable.
    let (attrs, cols, tile, base_rows) = (2usize, 6usize, 2usize, 4usize);
    let commits = if small { 3usize } else { 6 };
    let heights: Vec<usize> = (0..commits).map(|i| tile * (1 + i % 2)).collect();
    let clean = clean_archive(attrs, base_rows, &heights, cols, tile);
    let total = clean.journal_bytes().len();
    let clean_prefixes: Vec<LiveArchive> = (0..=commits)
        .map(|n| clean_archive(attrs, base_rows, &heights[..n], cols, tile))
        .collect();

    let mut recoveries = 0usize;
    let mut dropped_partial_total = 0usize;
    let mut run_to_crash = |fault: WriteFault, label: &str| {
        let mut live = LiveArchive::new(grids_to(attrs, base_rows, cols), tile)
            .expect("valid base")
            .with_write_fault(fault);
        let mut offset = base_rows;
        let mut committed = 0usize;
        for &h in &heights {
            match live.append(&band_at(attrs, offset, h, cols)) {
                Ok(_) => {
                    offset += h;
                    committed += 1;
                }
                Err(_) => break,
            }
        }
        let (rec, report) =
            LiveArchive::recover(grids_to(attrs, base_rows, cols), tile, live.journal_bytes())
                .expect("recovery never fails on a valid base");
        assert_eq!(
            report.applied as usize, committed,
            "{label}: recovery must restore exactly the committed epochs"
        );
        assert_eq!(
            report.committed_bytes + report.dropped_bytes,
            live.journal_bytes().len(),
            "{label}: byte ledger must balance"
        );
        let reference = &clean_prefixes[committed];
        assert_eq!(
            rec.journal_bytes(),
            reference.journal_bytes(),
            "{label}: recovered journal must be bit-identical to a clean archive"
        );
        assert!(
            snapshots_bit_eq(&rec.snapshot(), &reference.snapshot()),
            "{label}: recovered snapshot must be bit-identical to a clean archive"
        );
        recoveries += 1;
        dropped_partial_total += report.dropped_partial_records;
    };
    for cut in 0..=total {
        run_to_crash(WriteFault::CrashAtOffset { offset: cut }, "crash-at-offset");
    }
    let crash_offsets = total + 1;

    // Torn writes and partial records inside every frame of the journal.
    let mut frame_geom: Vec<(u64, usize)> = Vec::new(); // (frame index, band tuples)
    {
        let mut frame = 0u64;
        for &h in &heights {
            for _ in 0..attrs {
                frame_geom.push((frame, h * cols));
                frame += 1;
            }
        }
    }
    let mut torn_cuts = 0usize;
    let mut partial_cuts = 0usize;
    for &(frame, tuples) in &frame_geom {
        let frame_len = FRAME_HEADER_LEN + tuples * 8 + 8;
        for persisted in [
            0,
            1,
            FRAME_HEADER_LEN - 1,
            FRAME_HEADER_LEN,
            frame_len / 2,
            frame_len - 1,
        ] {
            run_to_crash(
                WriteFault::TornWrite {
                    frame,
                    persisted_bytes: persisted,
                },
                "torn-write",
            );
            torn_cuts += 1;
        }
        for kept in [0, 1, tuples / 2, tuples.saturating_sub(1)] {
            run_to_crash(
                WriteFault::PartialRecord {
                    frame,
                    tuples: kept,
                },
                "partial-record",
            );
            partial_cuts += 1;
        }
    }
    println!("| crash kind | injections | recoveries bit-identical |");
    println!("|---|---|---|");
    println!("| crash-at-offset (every journal byte) | {crash_offsets} | yes |");
    println!("| torn write (per frame x 6 cuts) | {torn_cuts} | yes |");
    println!("| partial record (per frame x 4 cuts) | {partial_cuts} | yes |");
    println!(
        "\n{recoveries} recoveries verified ({dropped_partial_total} torn commit groups dropped \
         whole).\n"
    );

    // --- Phase 2: live appends under snapshot-isolated queries.
    let (q_cols, q_tile, q_base) = if small {
        (16usize, 4usize, 16usize)
    } else {
        (64, 8, 64)
    };
    let q_commits = if small { 3usize } else { 6 };
    let band_h = q_tile * 2;
    let model = LinearModel::new(vec![1.0, 0.7], 0.1).expect("valid model");
    let budget = ExecutionBudget::unlimited();
    let k = 10usize;
    let thread_counts = [1usize, 2, 4, 8];
    let shard_counts = [1usize, 4];

    let mut live = LiveArchive::new(grids_to(attrs, q_base, q_cols), q_tile).expect("valid base");
    let frozen = live.snapshot(); // epoch 0, held across every append
    let frozen_answer = frozen
        .query_top_k(&model, k, &budget)
        .expect("epoch-0 query");
    let mut queries = 0usize;
    println!("| epoch | rows | threads 1/2/4/8 | shards 1/4 | wrong answers |");
    println!("|---|---|---|---|---|");
    for commit in 0..q_commits {
        let offset = q_base + commit * band_h;
        live.append(&band_at(attrs, offset, band_h, q_cols))
            .expect("live append");
        let snap = live.snapshot();
        let rows = snap.rows();

        // The clean reference for this epoch, built in one shot.
        let grids = grids_to(attrs, rows, q_cols);
        let pyramids: Vec<AggregatePyramid> = grids.iter().map(AggregatePyramid::build).collect();
        let stores: Vec<TileStore> = grids
            .iter()
            .map(|g| TileStore::new(g.clone(), q_tile).expect("valid store"))
            .collect();
        let src = TileSource::new(&stores).expect("aligned stores");
        let reference = resilient_top_k(&model, &pyramids, k, &src, &budget).expect("reference");

        let seq = snap
            .query_top_k(&model, k, &budget)
            .expect("snapshot query");
        assert_eq!(
            seq.results, reference.results,
            "sequential snapshot identity"
        );
        queries += 1;

        let snap_src = TileSource::new(snap.stores()).expect("snapshot stores");
        for threads in thread_counts {
            let pool = WorkerPool::new(threads);
            let par = par_resilient_top_k(&model, snap.pyramids(), k, &snap_src, &budget, &pool)
                .expect("parallel snapshot query");
            assert_eq!(
                par.results, reference.results,
                "threads {threads}: snapshot answer must be bit-identical"
            );
            queries += 1;
        }
        for shards in shard_counts {
            let plan = ShardPlan::row_bands(rows, q_cols, shards, q_tile).expect("plan");
            let band_grids: Vec<Vec<Grid2<f64>>> = plan
                .bands()
                .iter()
                .map(|b| {
                    grids
                        .iter()
                        .map(|g| plan.extract_band(g, b.shard).unwrap())
                        .collect()
                })
                .collect();
            let band_pyramids: Vec<Vec<AggregatePyramid>> = band_grids
                .iter()
                .map(|gs| gs.iter().map(AggregatePyramid::build).collect())
                .collect();
            let band_stores: Vec<Vec<TileStore>> = band_grids
                .iter()
                .map(|gs| {
                    gs.iter()
                        .map(|g| TileStore::new(g.clone(), q_tile).unwrap())
                        .collect()
                })
                .collect();
            let band_sources = tile_sources(band_stores.iter().map(Vec::as_slice));
            let band_layout = band_pyramids
                .iter()
                .map(Vec::as_slice)
                .zip(plan.bands().iter().map(|b| b.row_offset));
            let archive = archive(band_layout, &band_sources);
            let pool = WorkerPool::new(4);
            let r = scatter_gather_top_k(
                &model,
                &archive,
                k,
                &budget,
                &ScatterPolicy::require_all(),
                &pool,
            )
            .expect("sharded snapshot query");
            assert_eq!(
                r.results, reference.results,
                "shards {shards}: snapshot answer must be bit-identical"
            );
            queries += 1;
        }
        println!(
            "| {} | {rows} | bit-identical | bit-identical | 0 |",
            snap.epoch().epoch
        );
    }
    // The epoch-0 snapshot never moved while the archive grew under it.
    assert_eq!(frozen.rows(), q_base);
    let frozen_again = frozen
        .query_top_k(&model, k, &budget)
        .expect("stale re-query");
    assert_eq!(
        frozen_again.results, frozen_answer.results,
        "a held snapshot must keep answering for its own epoch"
    );
    println!(
        "\n{queries} snapshot queries, zero wrong answers; epoch-0 snapshot still answers \
         for its own {q_base} rows after {q_commits} commits.\n"
    );

    // --- Phase 3: epoch-keyed cache invalidation touches only the frontier.
    let snap = live.snapshot();
    let cache = CachedTileSource::new(snap.stores(), 1024).expect("cache");
    let stats = live.stats();
    stats.reset();
    for row in (0..snap.rows()).step_by(q_tile) {
        for colt in (0..q_cols).step_by(q_tile) {
            cache.base_cell(0, row, colt).expect("warm read");
        }
    }
    let warmed = stats.cache_misses();
    let frontier = live.first_page_of_row(snap.rows() - band_h);
    let invalidated = cache.advance_epoch(frontier);
    cache.base_cell(0, 0, 0).expect("prefix read");
    let prefix_hit = stats.cache_hits() >= 1;
    cache
        .base_cell(0, snap.rows() - band_h, 0)
        .expect("frontier read");
    assert!(
        prefix_hit,
        "committed-prefix pages must stay cached across the epoch advance"
    );
    assert_eq!(
        invalidated as u64,
        stats.cache_invalidations(),
        "invalidation accounting must match the advance"
    );
    assert_eq!(
        stats.appended_pages_seen(),
        1,
        "exactly the re-read frontier page counts as an append-side read"
    );
    println!(
        "cache: {warmed} pages warmed, {invalidated} dropped at the frontier (pages >= {frontier}), \
         prefix pages still hot, {} append-side re-read.\n",
        stats.appended_pages_seen()
    );

    // --- Phase 4: a standing continuous query across a mid-stream crash.
    let (w_cols, w_tile, w_base, w_band) = (3usize, 4usize, 8usize, 8usize);
    let w_commits = if small { 3usize } else { 8 };
    let total_days = w_base + w_commits * w_band;
    // A summer window, so rain → dry → dry → warm spells (and thus fly
    // alerts) actually occur at every seed.
    let series = WeatherGenerator::new(seed)
        .with_temperature(24.0, 8.0, 2.0)
        .generate(150, total_days);
    let days = series.values();
    let weather_bands = |range: std::ops::Range<usize>| -> Vec<Grid2<f64>> {
        vec![
            Grid2::from_fn(range.len(), w_cols, |r, _| days[range.start + r].rain_mm),
            Grid2::from_fn(range.len(), w_cols, |r, _| days[range.start + r].temp_c),
        ]
    };
    let mut w_clean = LiveArchive::new(weather_bands(0..w_base), w_tile).expect("weather base");
    for i in 0..w_commits {
        let start = w_base + i * w_band;
        w_clean
            .append(&weather_bands(start..start + w_band))
            .expect("weather append");
    }
    // Kill the writer two thirds of the way through the journal.
    let cut = w_clean.journal_bytes().len() * 2 / 3;
    let mut w_live = LiveArchive::new(weather_bands(0..w_base), w_tile)
        .expect("weather base")
        .with_write_fault(WriteFault::CrashAtOffset { offset: cut });
    let mut driver = ContinuousQueryDriver::new(0, 1, 1);
    let mut alerts = driver.poll(&w_live.snapshot()).expect("base poll");
    for i in 0..w_commits {
        let start = w_base + i * w_band;
        if w_live
            .append(&weather_bands(start..start + w_band))
            .is_err()
        {
            break;
        }
        alerts.extend(driver.poll(&w_live.snapshot()).expect("live poll"));
    }
    let (w_rec, w_report) =
        LiveArchive::recover(weather_bands(0..w_base), w_tile, w_live.journal_bytes())
            .expect("weather recovery");
    alerts.extend(driver.poll(&w_rec.snapshot()).expect("post-recovery poll"));
    let committed_days = w_base + w_report.applied as usize * w_band;
    let (fsm, _) = fire_ants_fsm();
    let symbols: Vec<DayClass> = days[..committed_days].iter().map(DayClass::of).collect();
    let batch = fsm.acceptance_events(&symbols).expect("batch detection");
    assert_eq!(
        alerts, batch,
        "standing-query alerts across crash + recovery must equal batch detection"
    );
    println!(
        "standing query: {} alerts across {} committed days (crash at journal byte {cut}, \
         {} epochs recovered) — identical to batch detection.",
        alerts.len(),
        committed_days,
        w_report.applied
    );

    write_artifact(
        "BENCH_append.json",
        "r10_append",
        args,
        &format!(
            "\"crash_sweep\": {{\"journal_bytes\": {total}, \"commits\": {commits}, \
             \"crash_offsets\": {crash_offsets}, \"torn_writes\": {torn_cuts}, \
             \"partial_records\": {partial_cuts}, \"recoveries\": {recoveries}, \
             \"dropped_partial_records\": {dropped_partial_total}, \"bit_identical\": true}},\n  \
             \"snapshot_identity\": {{\"epochs\": {q_commits}, \"rows_final\": {}, \
             \"threads\": [1, 2, 4, 8], \"shards\": [1, 4], \"queries\": {queries}, \
             \"wrong_answers\": 0, \"stale_snapshot_frozen\": true}},\n  \
             \"cache\": {{\"pages_warmed\": {warmed}, \"frontier_page\": {frontier}, \
             \"invalidated\": {invalidated}, \"appended_pages_seen\": {}, \
             \"prefix_stays_cached\": true}},\n  \
             \"continuous\": {{\"committed_days\": {committed_days}, \"alerts\": {}, \
             \"recovered_epochs\": {}, \"schedule_independent\": true}}",
            live.rows(),
            stats.appended_pages_seen(),
            alerts.len(),
            w_report.applied,
        ),
    );
}
