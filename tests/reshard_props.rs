//! Live-resharding property tests: random topology changes driven through
//! the epoch-fenced migration coordinator.
//!
//! The invariants:
//!
//! * Any split / merge / boundary-move of a random tile-aligned plan
//!   produces a valid successor plan, and `plan_diff` partitions the
//!   destination bands exactly: every band is carried over or belongs to
//!   exactly one migration group whose source and destination sides span
//!   the same global rows.
//! * A healthy copy phase is bit-exact: every migrated band's stores hold
//!   byte-for-byte the rows `extract_band` produces from the raw grids
//!   under the destination plan.
//! * During dual-read, a healthy query is bit-identical to the plain
//!   (pre-migration) scatter — and to the unsharded resilient engine —
//!   at every thread count: migration is invisible until something fails.
//! * Killing the migrating source band mid-dual-read is covered wholesale
//!   by its destination copies (still bit-identical); killing *both*
//!   sides degrades soundly — the true winner's score never escapes every
//!   reported bound.
//! * An aborted migration rolls back completely: partial copies dropped,
//!   the source epoch still active, and source-plan answers bit-identical
//!   to never having started.

use mbir::core::parallel::WorkerPool;
use mbir::core::reshard::{
    AbortReason, CopyOutcome, MigrationState, ReshardCoordinator, ReshardPolicy,
};
use mbir::core::resilient::{resilient_top_k, ExecutionBudget};
use mbir::core::shard::{
    scatter_gather_top_k, scatter_gather_top_k_dual, ArchiveShard, ScatterPolicy, ShardedArchive,
};
use mbir::core::source::TileSource;
use mbir::models::linear::LinearModel;
use mbir::progressive::pyramid::AggregatePyramid;
use mbir_archive::fault::FaultProfile;
use mbir_archive::grid::Grid2;
use mbir_archive::shard::{plan_diff, EpochedShardPlan, ShardPlan};
use mbir_archive::tile::TileStore;
use proptest::prelude::*;

fn world(seed: u64, side: usize) -> (LinearModel, Vec<AggregatePyramid>, Vec<Grid2<f64>>) {
    let grids: Vec<Grid2<f64>> = (0..2)
        .map(|i| {
            Grid2::from_fn(side, side, |r, c| {
                let phase = (seed % 11) as f64 * 0.43 + i as f64;
                ((r as f64 / 5.0 + phase).sin() + (c as f64 / 7.0 - phase).cos()) * 25.0
                    + (seed % 5) as f64
            })
        })
        .collect();
    let pyramids = grids.iter().map(AggregatePyramid::build).collect();
    let w = 0.5 + (seed % 4) as f64 * 0.25;
    (
        LinearModel::new(vec![1.0, w], 0.2).unwrap(),
        pyramids,
        grids,
    )
}

/// Derives a valid destination plan from `plan` by trying a
/// `sel`-selected split, merge, or boundary move (rotating through the
/// kinds until one applies). `None` when no transform is possible.
fn derive_dest(plan: &ShardPlan, sel: u64) -> Option<ShardPlan> {
    let n = plan.shard_count();
    for t in 0..3u64 {
        match (sel + t) % 3 {
            0 => {
                for i in 0..n {
                    let b = (i + sel as usize) % n;
                    if let Ok(p) = plan.split_band(b) {
                        return Some(p);
                    }
                }
            }
            1 => {
                if n >= 2 {
                    if let Ok(p) = plan.merge_bands(sel as usize % (n - 1)) {
                        return Some(p);
                    }
                }
            }
            _ => {
                for i in 0..n.saturating_sub(1) {
                    let b = (i + sel as usize) % (n - 1);
                    if let Ok(p) = plan.move_tile_rows(b, 1) {
                        return Some(p);
                    }
                }
            }
        }
    }
    None
}

/// Per-source-shard store sets (one slice per shard) over the raw grids.
fn band_stores(plan: &ShardPlan, grids: &[Grid2<f64>], tile: usize) -> Vec<Vec<TileStore>> {
    (0..plan.shard_count())
        .map(|s| {
            grids
                .iter()
                .map(|g| TileStore::new(plan.extract_band(g, s).unwrap(), tile).unwrap())
                .collect()
        })
        .collect()
}

/// Runs the migration up to `DualRead` over healthy sources; returns the
/// coordinator (holding the copies).
fn migrate_to_dual_read(
    from_plan: &ShardPlan,
    dest_plan: ShardPlan,
    grids: &[Grid2<f64>],
    tile: usize,
) -> ReshardCoordinator {
    let mut coord = ReshardCoordinator::new(
        EpochedShardPlan::initial(from_plan.clone()),
        dest_plan,
        ReshardPolicy::default(),
    )
    .unwrap();
    let sources = band_stores(from_plan, grids, tile);
    let refs: Vec<&[TileStore]> = sources.iter().map(Vec::as_slice).collect();
    coord.begin_copy().unwrap();
    assert_eq!(coord.run_copy(&refs, None).unwrap(), CopyOutcome::Complete);
    coord.enter_dual_read().unwrap();
    coord
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random plan transforms stay valid, and `plan_diff` partitions the
    /// destination bands exactly into carried-over bands and migration
    /// groups with row-identical source and destination sides.
    #[test]
    fn prop_plan_transforms_and_diffs_partition_exactly(
        side_pow in 4u32..6,
        tile in 1usize..6,
        shards_raw in 0usize..8,
        sel in 0u64..1024,
    ) {
        let side = 1usize << side_pow;
        let shards = 1 + shards_raw % side.div_ceil(tile).min(5);
        let from = ShardPlan::row_bands(side, side, shards, tile).unwrap();
        let Some(to) = derive_dest(&from, sel) else { return; };

        // Bands stay contiguous, tile-aligned, and cover the grid.
        prop_assert_eq!(to.shape(), from.shape());
        prop_assert_eq!(to.tile_size(), tile);
        let mut next = 0usize;
        for band in to.bands() {
            prop_assert_eq!(band.row_offset, next);
            prop_assert!(band.rows > 0);
            if band.row_end() != side {
                prop_assert_eq!(band.rows % tile, 0, "interior band must be tile-aligned");
            }
            next = band.row_end();
        }
        prop_assert_eq!(next, side);

        // The diff partitions both sides exactly.
        let diff = plan_diff(&from, &to).unwrap();
        let mut dest_seen = vec![false; to.shard_count()];
        for &(d, s) in &diff.carried_over {
            prop_assert_eq!(to.bands()[d].row_offset, from.bands()[s].row_offset);
            prop_assert_eq!(to.bands()[d].rows, from.bands()[s].rows);
            prop_assert!(!dest_seen[d]);
            dest_seen[d] = true;
        }
        for group in &diff.groups {
            let src_rows: usize = group.source_bands.iter().map(|&s| from.bands()[s].rows).sum();
            let dst_rows: usize = group.dest_bands.iter().map(|&d| to.bands()[d].rows).sum();
            prop_assert_eq!(src_rows, group.rows);
            prop_assert_eq!(dst_rows, group.rows);
            for &d in &group.dest_bands {
                prop_assert!(!dest_seen[d]);
                dest_seen[d] = true;
            }
        }
        prop_assert!(dest_seen.iter().all(|&b| b), "every dest band carried or migrating");
    }

    /// `plan_diff` round-trips through the topology transforms: the
    /// reverse diff is the exact mirror of the forward one, a
    /// split-then-merge chain restores the original plan (and diffs to
    /// the empty change), and the forward diff's carried bands plus
    /// migration groups reconstruct the destination band layout exactly.
    #[test]
    fn prop_plan_diff_round_trips_through_transforms(
        side_pow in 4u32..6,
        tile in 1usize..6,
        shards_raw in 0usize..8,
        sel in 0u64..1024,
        chain in 1usize..4,
    ) {
        let side = 1usize << side_pow;
        let shards = 1 + shards_raw % side.div_ceil(tile).min(5);
        let from = ShardPlan::row_bands(side, side, shards, tile).unwrap();

        // Chain several transforms; the diff properties must hold across
        // the composition, not just single steps.
        let mut to = from.clone();
        for step in 0..chain {
            let Some(next) = derive_dest(&to, sel.wrapping_add(step as u64 * 37)) else { return; };
            to = next;
        }

        // Round-trip 1: diff(B, A) mirrors diff(A, B) — carried pairs
        // swap, and each group swaps its source and destination sides
        // over the same row range.
        let fwd = plan_diff(&from, &to).unwrap();
        let rev = plan_diff(&to, &from).unwrap();
        let mut fwd_carried: Vec<(usize, usize)> =
            fwd.carried_over.iter().map(|&(d, s)| (s, d)).collect();
        fwd_carried.sort_unstable();
        let mut rev_carried = rev.carried_over.clone();
        rev_carried.sort_unstable();
        prop_assert_eq!(fwd_carried, rev_carried);
        prop_assert_eq!(fwd.groups.len(), rev.groups.len());
        for (f, r) in fwd.groups.iter().zip(&rev.groups) {
            prop_assert_eq!(f.row_offset, r.row_offset);
            prop_assert_eq!(f.rows, r.rows);
            prop_assert_eq!(&f.source_bands, &r.dest_bands);
            prop_assert_eq!(&f.dest_bands, &r.source_bands);
        }

        // Round-trip 2: the forward diff reconstructs the destination
        // layout. Carried bands take their source geometry; each group's
        // destination bands tile the group's row range in order.
        let mut rebuilt = vec![None; to.shard_count()];
        for &(d, s) in &fwd.carried_over {
            rebuilt[d] = Some((from.bands()[s].row_offset, from.bands()[s].rows));
        }
        for group in &fwd.groups {
            let mut row = group.row_offset;
            for &d in &group.dest_bands {
                rebuilt[d] = Some((row, to.bands()[d].rows));
                row += to.bands()[d].rows;
            }
            prop_assert_eq!(row, group.row_end());
        }
        for (d, band) in to.bands().iter().enumerate() {
            prop_assert_eq!(rebuilt[d], Some((band.row_offset, band.rows)));
        }

        // Round-trip 3: split-then-merge is the identity, and the
        // identity diffs to no migration at all.
        for b in 0..from.shard_count() {
            if let Ok(split) = from.split_band(b) {
                let back = split.merge_bands(b).unwrap();
                prop_assert_eq!(back.band_rows(), from.band_rows());
                let idt = plan_diff(&from, &back).unwrap();
                prop_assert!(idt.groups.is_empty());
                prop_assert_eq!(idt.carried_over.len(), from.shard_count());
                break;
            }
        }
    }

    /// A healthy copy phase reproduces every migrated band byte-for-byte.
    #[test]
    fn prop_copy_round_trip_is_bit_exact(
        seed in 0u64..100,
        side_pow in 4u32..6,
        tile in 2usize..6,
        shards_raw in 0usize..8,
        sel in 0u64..1024,
    ) {
        let side = 1usize << side_pow;
        let shards = 1 + shards_raw % side.div_ceil(tile).min(4);
        let (_, _, grids) = world(seed, side);
        let from = ShardPlan::row_bands(side, side, shards, tile).unwrap();
        let Some(to) = derive_dest(&from, sel) else { return; };
        let coord = migrate_to_dual_read(&from, to.clone(), &grids, tile);

        for band in coord.migrated_bands() {
            for (a, grid) in grids.iter().enumerate() {
                let expect = to.extract_band(grid, band.dest_band()).unwrap();
                for r in 0..expect.rows() {
                    for c in 0..expect.cols() {
                        prop_assert_eq!(
                            band.stores()[a].read(r, c).unwrap().to_bits(),
                            expect.at(r, c).to_bits(),
                            "band {} attr {} cell ({r},{c})", band.dest_band(), a
                        );
                    }
                }
            }
        }
    }

    /// Healthy dual-read is bit-identical to the plain pre-migration
    /// scatter and the unsharded resilient engine at every thread count;
    /// killing the migrating source band is covered by the copies
    /// (bit-identical still); killing both sides stays sound.
    #[test]
    fn prop_dual_read_identity_and_chaos_soundness(
        seed in 0u64..100,
        side_pow in 4u32..6,
        tile in 2usize..6,
        shards_raw in 1usize..8,
        sel in 0u64..1024,
        k in 1usize..6,
        threads_idx in 0usize..3,
    ) {
        let side = 1usize << side_pow;
        let shards = 2 + shards_raw % (side.div_ceil(tile).clamp(2, 4) - 1);
        let threads = [1usize, 2, 4][threads_idx];
        let (model, pyramids, grids) = world(seed, side);
        let from = ShardPlan::row_bands(side, side, shards, tile).unwrap();
        let Some(to) = derive_dest(&from, sel) else { return; };
        let coord = migrate_to_dual_read(&from, to, &grids, tile);
        let groups = coord.dual_read_groups().unwrap();
        let budget = ExecutionBudget::unlimited();
        let pool = WorkerPool::new(threads);

        // Unsharded reference.
        let flat_stores: Vec<TileStore> = grids
            .iter()
            .map(|g| TileStore::new(g.clone(), tile).unwrap())
            .collect();
        let flat_src = TileSource::new(&flat_stores).unwrap();
        let reference = resilient_top_k(&model, &pyramids, k, &flat_src, &budget).unwrap();
        let truth = reference.results[0].score;

        // Source-plan archive (healthy) and its per-band pyramids.
        let source_stores = band_stores(&from, &grids, tile);
        let source_pyramids: Vec<Vec<AggregatePyramid>> = (0..from.shard_count())
            .map(|s| grids.iter().map(|g| AggregatePyramid::build(&from.extract_band(g, s).unwrap())).collect())
            .collect();
        let sources: Vec<TileSource<'_>> =
            source_stores.iter().map(|g| TileSource::new(g).unwrap()).collect();
        let handles: Vec<ArchiveShard<'_, TileSource<'_>>> = (0..from.shard_count())
            .map(|s| ArchiveShard::new(&source_pyramids[s], &sources[s], from.bands()[s].row_offset))
            .collect();
        let archive = ShardedArchive::new(handles).unwrap();
        let plain = scatter_gather_top_k(
            &model, &archive, k, &budget, &ScatterPolicy::require_all(), &pool,
        ).unwrap();
        prop_assert_eq!(&plain.results, &reference.results);

        // Dual-read destination handles over the copies.
        let migrated = coord.migrated_bands();
        let dual_sources: Vec<TileSource<'_>> =
            migrated.iter().map(|b| TileSource::new(b.stores()).unwrap()).collect();
        let dest_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = migrated
            .iter()
            .zip(&dual_sources)
            .map(|(b, src)| ArchiveShard::new(b.pyramids(), src, b.row_offset()))
            .collect();
        let dual = scatter_gather_top_k_dual(
            &model, &archive, (&dest_handles, &groups), k, &budget,
            &ScatterPolicy::require_all(), &pool,
        ).unwrap();
        prop_assert_eq!(&dual.results, &reference.results, "healthy dual-read must be invisible");
        prop_assert_eq!(dual.completeness, 1.0);

        // Kill every migrating source band: the copies cover wholesale.
        let migrating_sources = coord.retiring_source_bands();
        let killed_stores: Vec<Vec<TileStore>> = source_stores
            .iter()
            .enumerate()
            .map(|(s, g)| {
                g.iter()
                    .map(|st| {
                        if migrating_sources.contains(&s) {
                            let pages = st.page_count();
                            st.clone().with_faults(
                                (0..pages).fold(FaultProfile::new(), |p, pg| p.permanent(pg)),
                            )
                        } else {
                            st.clone()
                        }
                    })
                    .collect()
            })
            .collect();
        let killed_sources: Vec<TileSource<'_>> =
            killed_stores.iter().map(|g| TileSource::new(g).unwrap()).collect();
        let killed_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = (0..from.shard_count())
            .map(|s| ArchiveShard::new(&source_pyramids[s], &killed_sources[s], from.bands()[s].row_offset))
            .collect();
        let killed_archive = ShardedArchive::new(killed_handles).unwrap();
        let covered = scatter_gather_top_k_dual(
            &model, &killed_archive, (&dest_handles, &groups), k, &budget,
            &ScatterPolicy::best_effort(), &pool,
        ).unwrap();
        prop_assert_eq!(
            &covered.results, &reference.results,
            "a fully covered source kill serves bit-identical results from the copies"
        );

        // Kill both sides: degraded, but the winner never escapes bounds.
        let dead_dest_stores: Vec<Vec<TileStore>> = migrated
            .iter()
            .map(|b| {
                b.stores()
                    .iter()
                    .map(|st| {
                        let pages = st.page_count();
                        st.clone().with_faults(
                            (0..pages).fold(FaultProfile::new(), |p, pg| p.permanent(pg)),
                        )
                    })
                    .collect()
            })
            .collect();
        let dead_dest_sources: Vec<TileSource<'_>> =
            dead_dest_stores.iter().map(|g| TileSource::new(g).unwrap()).collect();
        let dead_dest_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = migrated
            .iter()
            .zip(&dead_dest_sources)
            .map(|(b, src)| ArchiveShard::new(b.pyramids(), src, b.row_offset()))
            .collect();
        let both = scatter_gather_top_k_dual(
            &model, &killed_archive, (&dead_dest_handles, &groups), k, &budget,
            &ScatterPolicy::best_effort(), &pool,
        ).unwrap();
        for hit in &both.results {
            prop_assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
        prop_assert!(
            both.results.iter().any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
            "winner score {} escaped all bounds with both sides dead", truth
        );
    }

    /// An aborted migration leaves no trace: partial copies dropped, the
    /// source epoch active, and source-plan answers bit-identical to
    /// never having started.
    #[test]
    fn prop_aborted_migrations_roll_back_identically(
        seed in 0u64..100,
        side_pow in 4u32..6,
        tile in 2usize..6,
        shards_raw in 0usize..8,
        sel in 0u64..1024,
        k in 1usize..6,
    ) {
        let side = 1usize << side_pow;
        let shards = 1 + shards_raw % side.div_ceil(tile).min(4);
        let (model, _, grids) = world(seed, side);
        let from = ShardPlan::row_bands(side, side, shards, tile).unwrap();
        let Some(to) = derive_dest(&from, sel) else { return; };
        let budget = ExecutionBudget::unlimited();
        let pool = WorkerPool::new(1);

        let source_stores = band_stores(&from, &grids, tile);
        let source_pyramids: Vec<Vec<AggregatePyramid>> = (0..from.shard_count())
            .map(|s| grids.iter().map(|g| AggregatePyramid::build(&from.extract_band(g, s).unwrap())).collect())
            .collect();
        let run_source = |stores: &[Vec<TileStore>]| {
            let sources: Vec<TileSource<'_>> =
                stores.iter().map(|g| TileSource::new(g).unwrap()).collect();
            let handles: Vec<ArchiveShard<'_, TileSource<'_>>> = (0..from.shard_count())
                .map(|s| ArchiveShard::new(&source_pyramids[s], &sources[s], from.bands()[s].row_offset))
                .collect();
            let archive = ShardedArchive::new(handles).unwrap();
            scatter_gather_top_k(
                &model, &archive, k, &budget, &ScatterPolicy::require_all(), &pool,
            ).unwrap()
        };
        let before = run_source(&source_stores);

        // A zero-tick wall deadline aborts on the first page copied.
        let mut coord = ReshardCoordinator::new(
            EpochedShardPlan::initial(from.clone()),
            to,
            ReshardPolicy::default().with_wall_deadline_ticks(0),
        ).unwrap();
        let refs: Vec<&[TileStore]> = source_stores.iter().map(Vec::as_slice).collect();
        coord.begin_copy().unwrap();
        let outcome = coord.run_copy(&refs, None).unwrap();
        prop_assert_eq!(outcome, CopyOutcome::DeadlineExceeded);
        prop_assert_eq!(coord.state(), MigrationState::Aborted);
        prop_assert_eq!(coord.abort_reason(), Some(AbortReason::WallDeadline));
        prop_assert_eq!(coord.active_epoch(), coord.from_epoch());
        prop_assert!(coord.migrated_bands().is_empty());

        let after = run_source(&source_stores);
        prop_assert_eq!(&after.results, &before.results, "rollback must be invisible");
        prop_assert_eq!(after.completeness, 1.0);
    }
}
