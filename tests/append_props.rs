//! Crash-consistent append property tests: random commit sequences,
//! arbitrary crash offsets, and snapshot-isolated queries.
//!
//! The invariants:
//!
//! * Crashing the journal writer at *any* byte offset loses at most the
//!   uncommitted suffix: recovery restores an archive bit-identical —
//!   journal bytes, grids, pyramids, published snapshot — to one that
//!   committed exactly the surviving prefix and never crashed.
//! * Every query family over a snapshot is bit-identical to the same
//!   query over a freshly built archive of the snapshot's committed rows:
//!   sequential, parallel at 1/2/4/8 threads, and scatter-gather at 1 and
//!   4 shards. Appends are invisible to a running query.
//! * A standing continuous query polled on any schedule across live
//!   commits — including a crash and recovery mid-stream — raises exactly
//!   the batch alerts over the final committed prefix.
//! * Epochs share storage but never alias a write: after any run of
//!   appends, every snapshot still held equals a fresh build of its own
//!   prefix, bit for bit, at every pyramid level and every store cell.
//! * Epoch-keyed cache invalidation drops only the append frontier:
//!   committed-prefix pages keep serving hits across commits, and
//!   re-materialized frontier pages are counted as append-side reads.

use mbir::core::continuous::ContinuousQueryDriver;
use mbir::core::parallel::{par_resilient_top_k, WorkerPool};
use mbir::core::resilient::{resilient_top_k, ExecutionBudget};
use mbir::core::shard::{scatter_gather_top_k, ArchiveShard, ScatterPolicy, ShardedArchive};
use mbir::core::snapshot::{EpochSnapshot, LiveArchive};
use mbir::core::source::{CachedTileSource, CellSource, TileSource};
use mbir::models::fsm::fire_ants::{fire_ants_fsm, DayClass};
use mbir::models::linear::LinearModel;
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::fault::WriteFault;
use mbir_archive::grid::Grid2;
use mbir_archive::shard::ShardPlan;
use mbir_archive::tile::TileStore;
use mbir_archive::weather::WeatherGenerator;
use proptest::prelude::*;

/// Deterministic cell content keyed by absolute coordinates, so the
/// archive after any number of commits equals one `from_fn` build over
/// the full height — the bit-identity reference is trivial to construct.
fn cell_value(seed: u64, attr: usize, row: usize, col: usize) -> f64 {
    let h = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((attr as u64) << 40)
        .wrapping_add((row as u64) << 20)
        .wrapping_add(col as u64)
        .wrapping_mul(0x5851_f42d_4c95_7f2d);
    ((h >> 16) % 10_000) as f64 / 50.0 - 100.0
}

fn full_grids(seed: u64, attrs: usize, rows: usize, cols: usize) -> Vec<Grid2<f64>> {
    (0..attrs)
        .map(|a| Grid2::from_fn(rows, cols, |r, c| cell_value(seed, a, r, c)))
        .collect()
}

/// The bands of one commit: rows `[offset, offset + height)` of the full
/// archive, one grid per attribute.
fn band_at(seed: u64, attrs: usize, offset: usize, height: usize, cols: usize) -> Vec<Grid2<f64>> {
    (0..attrs)
        .map(|a| Grid2::from_fn(height, cols, |r, c| cell_value(seed, a, offset + r, c)))
        .collect()
}

/// An archive that committed `heights` appends over the base and never
/// crashed — the reference every recovery is compared against.
fn clean_archive(
    seed: u64,
    attrs: usize,
    base_rows: usize,
    heights: &[usize],
    cols: usize,
    tile: usize,
) -> LiveArchive {
    let mut live = LiveArchive::new(full_grids(seed, attrs, base_rows, cols), tile).unwrap();
    let mut offset = base_rows;
    for &h in heights {
        live.append(&band_at(seed, attrs, offset, h, cols)).unwrap();
        offset += h;
    }
    live
}

fn snapshots_bit_eq(a: &EpochSnapshot, b: &EpochSnapshot) -> bool {
    a.epoch() == b.epoch()
        && a.pyramids().len() == b.pyramids().len()
        && a.pyramids()
            .iter()
            .zip(b.pyramids())
            .all(|(x, y)| pyramids_bit_eq(x, y))
        && a.stores().iter().zip(b.stores()).all(|(x, y)| {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && (0..x.rows()).all(|r| {
                    (0..x.cols())
                        .all(|c| x.read(r, c).unwrap().to_bits() == y.read(r, c).unwrap().to_bits())
                })
        })
}

/// Bit-identity at every level — what consecutive epochs sharing pyramid
/// chunks must not disturb.
fn pyramids_bit_eq(a: &AggregatePyramid, b: &AggregatePyramid) -> bool {
    a.levels() == b.levels()
        && (0..a.levels()).all(|l| {
            let (rows, cols) = a.level_shape(l);
            b.level_shape(l) == (rows, cols)
                && (0..rows).all(|r| {
                    (0..cols).all(|c| {
                        let (x, y) = (a.cell(l, r, c).unwrap(), b.cell(l, r, c).unwrap());
                        x.count == y.count
                            && [(x.min, y.min), (x.max, y.max), (x.mean, y.mean)]
                                .iter()
                                .all(|(p, q)| p.to_bits() == q.to_bits())
                    })
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Frozen epochs: hold the snapshot of *every* epoch across a run of
    /// appends whose widths are not powers of two and whose band heights
    /// land the dirty frontier anywhere inside a pyramid chunk. After the
    /// last append each held snapshot must still equal a fresh build of
    /// its own prefix — pyramids at every level, stores cell for cell —
    /// and the last one a full rebuild.
    #[test]
    fn prop_held_epochs_stay_frozen_while_later_epochs_share_their_storage(
        seed in 0u64..1_000_000,
        cols in 1usize..71,
        tile in 1usize..9,
        base_tiles in 1usize..7,
        band_tiles in proptest::collection::vec(1usize..13, 6..9),
    ) {
        let attrs = 2usize;
        let base_rows = tile * base_tiles;
        let mut live =
            LiveArchive::new(full_grids(seed, attrs, base_rows, cols), tile).unwrap();
        let mut held = vec![live.snapshot()];
        for tiles in band_tiles {
            let offset = live.rows();
            live.append(&band_at(seed, attrs, offset, tile * tiles, cols)).unwrap();
            held.push(live.snapshot());
        }
        prop_assert_eq!(held.last().unwrap().rows(), live.rows());
        for (epoch, snap) in held.iter().enumerate() {
            prop_assert_eq!(snap.epoch().epoch, epoch as u64);
            let prefix = full_grids(seed, attrs, snap.rows(), cols);
            for (a, grid) in prefix.iter().enumerate() {
                prop_assert!(
                    pyramids_bit_eq(&snap.pyramids()[a], &AggregatePyramid::build(grid)),
                    "epoch {} attr {}: pyramid differs from a build of its prefix", epoch, a
                );
                let store = &snap.stores()[a];
                prop_assert_eq!((store.rows(), store.cols()), (grid.rows(), cols));
                for page in 0..store.page_count() {
                    for (cell, v) in store.read_page(page).unwrap() {
                        prop_assert_eq!(
                            v.to_bits(),
                            grid.at(cell.row, cell.col).to_bits(),
                            "epoch {} attr {} cell {:?}", epoch, a, cell
                        );
                    }
                }
            }
        }
    }

    /// Crash the journal writer at an arbitrary byte offset of a random
    /// commit sequence (varying attribute counts, band heights, widths):
    /// recovery restores exactly the committed prefix, bit-identical to a
    /// clean archive, and the byte ledger balances.
    #[test]
    fn prop_recovery_is_bit_identical_to_a_clean_prefix(
        seed in 0u64..1_000_000,
        attrs in 1usize..4,
        commits in 1usize..4,
        tile in 1usize..4,
        cols in 1usize..7,
        cut_sel in 0usize..4096,
    ) {
        let base_rows = tile * 2;
        let heights: Vec<usize> = (0..commits)
            .map(|i| tile * (1 + (seed as usize + i) % 2))
            .collect();
        let clean = clean_archive(seed, attrs, base_rows, &heights, cols, tile);
        let cut = cut_sel % (clean.journal_bytes().len() + 1);

        let bases = full_grids(seed, attrs, base_rows, cols);
        let mut live = LiveArchive::new(bases.clone(), tile)
            .unwrap()
            .with_write_fault(WriteFault::CrashAtOffset { offset: cut });
        let mut offset = base_rows;
        let mut committed = 0usize;
        for &h in &heights {
            match live.append(&band_at(seed, attrs, offset, h, cols)) {
                Ok(_) => {
                    offset += h;
                    committed += 1;
                }
                Err(_) => break,
            }
        }

        let (rec, report) = LiveArchive::recover(bases, tile, live.journal_bytes()).unwrap();
        // The writer's committed groups all survive; nothing extra appears.
        prop_assert_eq!(report.applied as usize, committed, "cut {}", cut);
        prop_assert_eq!(
            report.committed_bytes + report.dropped_bytes,
            live.journal_bytes().len(),
            "byte ledger must balance at cut {}", cut
        );
        let reference = clean_archive(seed, attrs, base_rows, &heights[..committed], cols, tile);
        prop_assert_eq!(
            rec.journal_bytes(),
            reference.journal_bytes(),
            "journal bytes must match a clean archive at cut {}", cut
        );
        prop_assert!(
            snapshots_bit_eq(&rec.snapshot(), &reference.snapshot()),
            "snapshot must match a clean archive at cut {}", cut
        );
        // The recovered archive is live again: a fresh append commits.
        let mut rec = rec;
        let resumed_offset = rec.rows();
        rec.append(&band_at(seed, attrs, resumed_offset, tile, cols)).unwrap();
        prop_assert_eq!(rec.rows(), resumed_offset + tile);
    }

    /// Every engine family over a snapshot answers bit-identically to the
    /// same engine over a freshly built archive of the snapshot's rows:
    /// sequential, 1/2/4/8 threads, and 1/4 shards.
    #[test]
    fn prop_snapshot_queries_are_bit_identical_across_threads_and_shards(
        seed in 0u64..1_000_000,
        commits in 1usize..4,
        k in 1usize..6,
    ) {
        let (attrs, cols, tile, base_rows) = (2usize, 16usize, 4usize, 16usize);
        let heights = vec![4usize; commits];
        let live = clean_archive(seed, attrs, base_rows, &heights, cols, tile);
        let snap = live.snapshot();
        let rows = snap.rows();

        // Reference: an archive built in one shot over the committed rows.
        let grids = full_grids(seed, attrs, rows, cols);
        let pyramids: Vec<AggregatePyramid> =
            grids.iter().map(AggregatePyramid::build).collect();
        let stores: Vec<TileStore> = grids
            .iter()
            .map(|g| TileStore::new(g.clone(), tile).unwrap())
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let model = LinearModel::new(vec![1.0, 0.7], 0.1).unwrap();
        let budget = ExecutionBudget::unlimited();
        let reference = resilient_top_k(&model, &pyramids, k, &src, &budget).unwrap();

        let seq = snap.query_top_k(&model, k, &budget).unwrap();
        prop_assert_eq!(&seq.results, &reference.results);
        prop_assert_eq!(seq.completeness, 1.0);

        let snap_src = TileSource::new(snap.stores()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let par =
                par_resilient_top_k(&model, snap.pyramids(), k, &snap_src, &budget, &pool)
                    .unwrap();
            prop_assert_eq!(&par.results, &reference.results, "threads {}", threads);
            prop_assert!(!par.is_degraded());
        }

        for shards in [1usize, 4] {
            let plan = ShardPlan::row_bands(rows, cols, shards, tile).unwrap();
            let band_grids: Vec<Vec<Grid2<f64>>> = plan
                .bands()
                .iter()
                .map(|band| {
                    grids
                        .iter()
                        .map(|g| plan.extract_band(g, band.shard).unwrap())
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
                        .map(|g| TileStore::new(g.clone(), tile).unwrap())
                        .collect()
                })
                .collect();
            let band_sources: Vec<TileSource<'_>> = band_stores
                .iter()
                .map(|s| TileSource::new(s).unwrap())
                .collect();
            let handles: Vec<ArchiveShard<'_, TileSource<'_>>> = band_pyramids
                .iter()
                .zip(&band_sources)
                .zip(plan.bands())
                .map(|((p, s), band)| ArchiveShard::new(p, s, band.row_offset))
                .collect();
            let archive = ShardedArchive::new(handles).unwrap();
            let pool = WorkerPool::new(4);
            let r = scatter_gather_top_k(
                &model,
                &archive,
                k,
                &budget,
                &ScatterPolicy::require_all(),
                &pool,
            )
            .unwrap();
            prop_assert_eq!(&r.results, &reference.results, "shards {}", shards);
            prop_assert_eq!(r.completeness, 1.0);
        }
    }

    /// A standing fire-ants query polled on an arbitrary schedule across
    /// live commits — with the writer crashing at a random journal offset
    /// and the archive recovered — raises exactly the batch alerts over
    /// the final committed prefix of days.
    #[test]
    fn prop_recovered_standing_query_alerts_match_batch(
        seed in 0u64..100_000,
        commits in 1usize..6,
        cut_sel in 0usize..4096,
        poll_mask in 0u32..64,
    ) {
        let (cols, tile, band_rows, base_days) = (3usize, 4usize, 8usize, 8usize);
        let total_days = base_days + commits * band_rows;
        let series = WeatherGenerator::new(seed)
            .with_temperature(22.0, 8.0, 2.0)
            .generate(0, total_days);
        let days = series.values();
        let weather_bands = |range: std::ops::Range<usize>| -> Vec<Grid2<f64>> {
            vec![
                Grid2::from_fn(range.len(), cols, |r, _| days[range.start + r].rain_mm),
                Grid2::from_fn(range.len(), cols, |r, _| days[range.start + r].temp_c),
            ]
        };

        // Size the cut against the never-crashing journal.
        let mut clean = LiveArchive::new(weather_bands(0..base_days), tile).unwrap();
        for i in 0..commits {
            let start = base_days + i * band_rows;
            clean.append(&weather_bands(start..start + band_rows)).unwrap();
        }
        let cut = cut_sel % (clean.journal_bytes().len() + 1);

        let mut live = LiveArchive::new(weather_bands(0..base_days), tile)
            .unwrap()
            .with_write_fault(WriteFault::CrashAtOffset { offset: cut });
        let mut driver = ContinuousQueryDriver::new(0, 1, 1);
        let mut alerts = driver.poll(&live.snapshot()).unwrap();
        for i in 0..commits {
            let start = base_days + i * band_rows;
            if live.append(&weather_bands(start..start + band_rows)).is_err() {
                break;
            }
            if poll_mask & (1 << i) != 0 {
                alerts.extend(driver.poll(&live.snapshot()).unwrap());
            }
        }
        // The process dies; the journal is all that survives. The standing
        // query itself resumes on the recovered archive's snapshot.
        let (rec, report) =
            LiveArchive::recover(weather_bands(0..base_days), tile, live.journal_bytes())
                .unwrap();
        alerts.extend(driver.poll(&rec.snapshot()).unwrap());

        let committed_days = base_days + report.applied as usize * band_rows;
        prop_assert_eq!(driver.cursor(), committed_days);
        let (fsm, _) = fire_ants_fsm();
        let symbols: Vec<DayClass> =
            days[..committed_days].iter().map(DayClass::of).collect();
        let batch = fsm.acceptance_events(&symbols).unwrap();
        prop_assert_eq!(alerts, batch, "cut {} mask {:b}", cut, poll_mask);
    }
}

#[test]
fn epoch_cache_invalidation_tracks_the_append_frontier() {
    let (seed, attrs, cols, tile, base_rows) = (7u64, 2usize, 16usize, 4usize, 8usize);
    let mut live = LiveArchive::new(full_grids(seed, attrs, base_rows, cols), tile).unwrap();
    live.append(&band_at(seed, attrs, base_rows, 4, cols))
        .unwrap();
    let snap = live.snapshot();
    assert_eq!(snap.rows(), 12);

    // A reader warms every page of the epoch-1 view through a cache that
    // shares the archive's stats ledger.
    let cache = CachedTileSource::new(snap.stores(), 64).unwrap();
    let stats = live.stats();
    for row in (0..12).step_by(tile) {
        for col in (0..cols).step_by(tile) {
            cache.base_cell(0, row, col).unwrap();
        }
    }
    let pages = 12 / tile * (cols / tile);
    assert_eq!(stats.cache_misses(), pages as u64);

    // The archive's reported frontier for a commit at the current high
    // water mark lies past every cached page: advancing the epoch there
    // drops nothing and the whole committed prefix keeps serving hits.
    assert_eq!(
        live.first_page_of_row(12),
        snap.stores()[0].page_of(8, 0) + 4
    );
    assert_eq!(cache.advance_epoch(live.first_page_of_row(12)), 0);
    assert_eq!(stats.cache_invalidations(), 0);
    let hits_before = stats.cache_hits();
    for col in (0..cols).step_by(tile) {
        cache.base_cell(1, 0, col).unwrap();
    }
    assert_eq!(
        stats.cache_hits(),
        hits_before + 4,
        "prefix pages stayed warm"
    );

    // Treating the last committed band as the frontier invalidates exactly
    // its pages; their re-materialization is counted as append-side reads.
    let frontier = live.first_page_of_row(base_rows);
    assert_eq!(frontier, 8);
    assert_eq!(cache.advance_epoch(frontier), cols / tile);
    assert_eq!(stats.cache_invalidations(), (cols / tile) as u64);
    let misses_before = stats.cache_misses();
    cache.base_cell(0, base_rows, 0).unwrap();
    assert_eq!(stats.cache_misses(), misses_before + 1);
    assert_eq!(stats.appended_pages_seen(), 1);
    // Pages below the frontier still never left the cache.
    let hits_before = stats.cache_hits();
    cache.base_cell(0, 0, 0).unwrap();
    assert_eq!(stats.cache_hits(), hits_before + 1);
}

/// Epoch-publish interleaving smoke test: concurrent readers querying
/// through the parallel engine while a writer commits must only ever see
/// complete epochs — right rows, right pyramids, complete answers.
#[test]
fn interleaved_readers_only_see_complete_epochs() {
    let (seed, attrs, cols, tile, base_rows) = (3u64, 2usize, 16usize, 4usize, 8usize);
    let live = std::sync::Mutex::new(
        LiveArchive::new(full_grids(seed, attrs, base_rows, cols), tile).unwrap(),
    );
    let reader = live.lock().unwrap().handle();
    let model = LinearModel::new(vec![1.0, 0.7], 0.1).unwrap();
    let budget = ExecutionBudget::unlimited();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let reader = reader.clone();
            let model = &model;
            let budget = &budget;
            scope.spawn(move || {
                let pool = WorkerPool::new(1 + t % 3);
                for _ in 0..25 {
                    let snap = reader.current();
                    let epoch = snap.epoch();
                    assert_eq!(epoch.rows, base_rows + epoch.epoch as usize * tile);
                    let src = TileSource::new(snap.stores()).unwrap();
                    let r = par_resilient_top_k(model, snap.pyramids(), 3, &src, budget, &pool)
                        .unwrap();
                    assert_eq!(r.completeness, 1.0, "epoch {}", epoch.epoch);
                    assert!(!r.is_degraded());
                }
            });
        }
        scope.spawn(|| {
            for commit in 0..8 {
                let offset = base_rows + commit * tile;
                live.lock()
                    .unwrap()
                    .append(&band_at(seed, attrs, offset, tile, cols))
                    .unwrap();
            }
        });
    });
    assert_eq!(reader.current().epoch().epoch, 8);
}
