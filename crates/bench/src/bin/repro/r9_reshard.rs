//! R9 — live resharding: epoch-fenced topology changes with chaos-proof
//! migration. The winner's source band is split in two through the
//! coordinator's Planned → Copying → DualRead → CutOver → Retired state
//! machine. Gates, in order: (a) the healthy migration is invisible —
//! dual-read answers are bit-identical to the pre-migration plan, and the
//! post-cut-over archive (carried-over source bands + migrated copies) is
//! bit-identical to a destination topology built directly from the raw
//! grids; (b) chaos injected in every migration state — transient,
//! corrupt, and latency copy faults during Copying (healed by retries,
//! caught by checksums, quarantined, then recopied from a clean replica),
//! the migrating source shard killed during DualRead (covered wholesale
//! by its destination copies), both sides killed (degraded but sound),
//! and a post-cut-over kill of the winner's band — yields zero wrong
//! answers: the true winner always stays inside some reported bound,
//! while a dead band the cross-band floor excludes is never read and
//! leaves the answer unchanged; (c) a wall-deadline abort
//! rolls back to the source epoch with results bit-identical to never
//! having started. Epoch fencing is typed end to end: a query pinned to
//! the destination epoch against the source archive fails with
//! `EpochMismatch`, and a mid-migration quorum failure is an
//! `InsufficientShards` stamped with the serving epoch. Writes
//! `BENCH_reshard.json`.

use crate::harness::{
    archive, covers, dead, faulted, in_own_bounds, layout, shard_report_json, shards, slow,
    tile_sources, write_artifact, Args,
};
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::shard::EpochedShardPlan;
use mbir_archive::tile::TileStore;
use mbir_bench::{sharded_world, sharded_world_for_plan};
use mbir_core::parallel::WorkerPool;
use mbir_core::reshard::{
    AbortReason, CopyOutcome, MigrationState, ReshardCoordinator, ReshardPolicy,
};
use mbir_core::resilient::ExecutionBudget;
use mbir_core::shard::{
    scatter_gather_top_k, scatter_gather_top_k_dual, ScatterPolicy, ShardError, ShardOutcome,
    ShardReport, ShardTable,
};
use mbir_core::source::QuarantineScrub;
use mbir_progressive::pyramid::AggregatePyramid;

pub fn run(args: &Args) {
    let seed = args.seed;
    println!("\n## R9 — Live resharding: epoch-fenced topology change under chaos (seed {seed})\n");
    let (rows, cols, tile, k) = (256usize, 256usize, 16usize, 10usize);
    let budget = ExecutionBudget::unlimited();
    let identity_threads = [1usize, 2, 4];

    let (_, model, worlds, from_plan) = sharded_world(seed, rows, cols, tile, 4, 1);
    let page_count = worlds[0].groups[0].0[0].page_count();

    // Source-epoch archive over plain tile sources (one replica group).
    let source_stores: Vec<&[TileStore]> =
        worlds.iter().map(|w| w.groups[0].0.as_slice()).collect();
    let source_sources = tile_sources(source_stores.iter().copied());
    let source_archive = archive(layout(&worlds), &source_sources);
    let pool = WorkerPool::new(1);
    let reference = scatter_gather_top_k(
        model.model(),
        &source_archive,
        k,
        &budget,
        &ScatterPolicy::require_all(),
        &pool,
    )
    .expect("healthy source scatter");
    let truth = reference.results[0].score;
    let winner_shard = from_plan
        .shard_of_row(reference.results[0].cell.row)
        .expect("winner inside the grid");

    // The topology change: split the winner's band in two.
    let dest_plan = from_plan.split_band(winner_shard).expect("band splits");
    let mut coord = ReshardCoordinator::new(
        EpochedShardPlan::initial(from_plan.clone()),
        dest_plan.clone(),
        ReshardPolicy::default(),
    )
    .expect("same shape and tile");
    println!(
        "migration: split band {winner_shard} ({} -> {} shards), epoch {} -> {}\n",
        from_plan.shard_count(),
        dest_plan.shard_count(),
        coord.from_epoch(),
        coord.to_epoch(),
    );

    // --- Copying-state chaos: transient + latency faults heal through
    // coordinator retries; a corrupt page is caught by the checksum,
    // quarantines the band, and a clean-replica recopy completes it.
    let copy_faults = FaultProfile::new().transient(0, 2).latency(1, 5).corrupt(2);
    let chaos_copy: Vec<Vec<TileStore>> = source_stores
        .iter()
        .enumerate()
        .map(|(s, stores)| {
            let mut band = stores.to_vec();
            if s == winner_shard {
                band[0] = band[0].clone().with_faults(copy_faults.clone());
            }
            band
        })
        .collect();
    let chaos_refs: Vec<&[TileStore]> = chaos_copy.iter().map(Vec::as_slice).collect();
    coord.begin_copy().expect("planned -> copying");
    let outcome = coord.run_copy(&chaos_refs, None).expect("copy runs");
    let quarantined_bands = match &outcome {
        CopyOutcome::Quarantined(bands) => bands.clone(),
        other => panic!("corrupt page must quarantine its band, got {other:?}"),
    };
    let checksum_failures: u64 = coord
        .copy_reports()
        .iter()
        .map(|b| b.checksum_failures)
        .sum();
    let copy_retries: u64 = coord.copy_reports().iter().map(|b| b.retries).sum();
    assert!(
        checksum_failures > 0,
        "silent corruption must be caught in flight"
    );
    assert!(copy_retries > 0, "transient faults must be retried");
    coord.clear_copy_quarantine();
    let clean_outcome = coord.run_copy(&source_stores, None).expect("clean recopy");
    assert_eq!(
        clean_outcome,
        CopyOutcome::Complete,
        "clean replica completes the copy"
    );
    let copy_ticks = coord.ticks_spent();
    println!(
        "copy chaos: bands {quarantined_bands:?} quarantined after {checksum_failures} checksum \
         catches and {copy_retries} retries; clean-replica recopy complete ({copy_ticks} ticks).\n"
    );

    // --- DualRead: both sides live. Healthy dual-read must be
    // bit-identical to the pre-migration plan at every thread count.
    coord.enter_dual_read().expect("all bands copied");
    let groups = coord.dual_read_groups().expect("in dual-read");
    let migrated = coord.migrated_bands();
    let migrated_layout = || migrated.iter().map(|b| (b.pyramids(), b.row_offset()));
    let dual_sources = tile_sources(migrated.iter().map(|b| b.stores()));
    let dest_handles = shards(migrated_layout(), &dual_sources);
    for threads in identity_threads {
        let pool = WorkerPool::new(threads);
        let r = scatter_gather_top_k_dual(
            model.model(),
            &source_archive,
            (&dest_handles, &groups),
            k,
            &budget,
            &ScatterPolicy::require_all(),
            &pool,
        )
        .expect("healthy dual-read");
        assert_eq!(
            r.results, reference.results,
            "healthy dual-read must be bit-identical to the pre-migration plan (threads {threads})"
        );
        assert_eq!(r.completeness, 1.0);
    }
    println!(
        "healthy dual-read bit-identical to the pre-migration plan at threads \
         {identity_threads:?}: yes\n"
    );

    // Epoch fence: a query pinned to the destination epoch is rejected
    // typed before any shard runs.
    let fence_err = scatter_gather_top_k(
        model.model(),
        &source_archive,
        k,
        &budget,
        &ScatterPolicy::require_all().at_epoch(coord.to_epoch()),
        &pool,
    );
    let fence_typed =
        matches!(&fence_err, Err(ShardError::Epoch(e)) if e.requested == coord.to_epoch());
    assert!(
        fence_typed,
        "epoch fence must fail typed, got {fence_err:?}"
    );

    // DualRead chaos: kill the migrating source shard. Its rows are
    // covered wholesale by the destination copies — zero wrong answers,
    // and the winner (who lives in the killed band) stays in bounds.
    let kill_all = dead(page_count);
    let killed_stores: Vec<Vec<TileStore>> = source_stores
        .iter()
        .enumerate()
        .map(|(s, stores)| faulted(stores, (s == winner_shard).then_some(&kill_all)))
        .collect();
    let killed_sources = tile_sources(killed_stores.iter().map(Vec::as_slice));
    let killed_archive = archive(layout(&worlds), &killed_sources);
    let mut covered_table: Vec<ShardReport> = Vec::new();
    let mut covered_completeness = 0.0f64;
    for threads in identity_threads {
        let pool = WorkerPool::new(threads);
        let r = scatter_gather_top_k_dual(
            model.model(),
            &killed_archive,
            (&dest_handles, &groups),
            k,
            &budget,
            &ScatterPolicy::best_effort(),
            &pool,
        )
        .expect("covered dual-read");
        assert!(
            in_own_bounds(&r.results),
            "hit score outside its own bounds"
        );
        assert!(
            covers(&r.results, truth),
            "true winner must stay inside some reported bound under source kill"
        );
        assert_eq!(
            r.shards[winner_shard].outcome,
            ShardOutcome::Covered,
            "the killed migrating shard must be covered by its destination copies"
        );
        assert_eq!(
            r.results, reference.results,
            "a fully covered kill serves bit-identical results from the copies (threads {threads})"
        );
        if threads == 1 {
            covered_table = r.shards.clone();
            covered_completeness = r.completeness;
        }
    }
    print!("{}", ShardTable::new(&covered_table));
    println!(
        "\nsource shard {winner_shard} killed during dual-read: covered by destination copies, \
         completeness {covered_completeness:.3}, zero wrong answers at threads {identity_threads:?}.\n"
    );

    // Kill both sides of the migration group: no cover is possible, the
    // merge degrades — but soundly, and require-all fails typed with the
    // serving epoch stamped.
    let killed_dest_stores: Vec<Vec<TileStore>> = migrated
        .iter()
        .map(|b| faulted(b.stores(), Some(&dead(b.stores()[0].page_count()))))
        .collect();
    let killed_dest_sources = tile_sources(killed_dest_stores.iter().map(Vec::as_slice));
    let killed_dest_handles = shards(migrated_layout(), &killed_dest_sources);
    let both = scatter_gather_top_k_dual(
        model.model(),
        &killed_archive,
        (&killed_dest_handles, &groups),
        k,
        &budget,
        &ScatterPolicy::best_effort(),
        &pool,
    )
    .expect("uncovered dual-read still answers best-effort");
    assert!(
        both.is_degraded(),
        "killing both sides must degrade the answer"
    );
    assert!(
        covers(&both.results, truth),
        "true winner must stay inside some reported bound even with both sides dead"
    );
    let quorum = scatter_gather_top_k_dual(
        model.model(),
        &killed_archive,
        (&killed_dest_handles, &groups),
        k,
        &budget,
        &ScatterPolicy::require_all(),
        &pool,
    );
    let (q_responded, q_required) = match quorum {
        Err(ShardError::Insufficient(e)) => {
            assert!(e.failed.contains(&winner_shard));
            assert_eq!(
                e.epoch,
                coord.from_epoch(),
                "quorum error carries the serving epoch"
            );
            (e.responded, e.required)
        }
        other => panic!(
            "uncovered kill under require-all must fail typed, got {:?}",
            other.map(|r| r.results.len())
        ),
    };
    println!(
        "both sides of the migration group killed: degraded-but-sound best-effort answer; \
         require-all failed typed ({q_responded} of {q_required} responded at epoch {}).\n",
        coord.from_epoch(),
    );

    // --- CutOver: the destination epoch goes live atomically. The mixed
    // archive (carried-over source bands + migrated copies) must be
    // bit-identical to a destination topology built directly from the
    // raw grids.
    coord.cut_over().expect("dual-read -> cut-over");
    assert_eq!(coord.active_epoch(), coord.to_epoch());
    let migrated = coord.migrated_bands();
    let (_, _, direct_worlds) = sharded_world_for_plan(seed, &dest_plan, 1);
    let direct_sources = tile_sources(direct_worlds.iter().map(|w| w.groups[0].0.as_slice()));
    let direct_archive =
        archive(layout(&direct_worlds), &direct_sources).with_epoch(coord.to_epoch());
    let direct = scatter_gather_top_k(
        model.model(),
        &direct_archive,
        k,
        &budget,
        &ScatterPolicy::require_all().at_epoch(coord.to_epoch()),
        &pool,
    )
    .expect("healthy direct destination scatter");

    // Assemble the post-cut-over archive: carried-over bands keep their
    // source pyramids and stores; migrating bands use the copies.
    let bands: Vec<(&[AggregatePyramid], &[TileStore])> = (0..dest_plan.shard_count())
        .map(
            |b| match coord.carried_over().iter().find(|&&(d, _)| d == b) {
                Some(&(_, s)) => (worlds[s].pyramids.as_slice(), source_stores[s]),
                None => {
                    let pos = coord
                        .migrating_dest_bands()
                        .iter()
                        .position(|&m| m == b)
                        .expect("band is carried or migrating");
                    (migrated[pos].pyramids(), migrated[pos].stores())
                }
            },
        )
        .collect();
    let cutover_layout = || {
        bands
            .iter()
            .zip(dest_plan.bands())
            .map(|(&(pyramids, _), band)| (pyramids, band.row_offset))
    };
    let cutover_sources = tile_sources(bands.iter().map(|&(_, stores)| stores));
    let cutover_archive =
        archive(cutover_layout(), &cutover_sources).with_epoch(coord.active_epoch());
    for threads in identity_threads {
        let pool = WorkerPool::new(threads);
        let r = scatter_gather_top_k(
            model.model(),
            &cutover_archive,
            k,
            &budget,
            &ScatterPolicy::require_all().at_epoch(coord.to_epoch()),
            &pool,
        )
        .expect("healthy post-cut-over scatter");
        assert_eq!(
            r.results, direct.results,
            "post-cut-over archive must be bit-identical to the directly built destination \
             topology (threads {threads})"
        );
        assert_eq!(r.completeness, 1.0);
    }
    println!(
        "cut over to epoch {}: migrated archive bit-identical to the directly built \
         destination topology at threads {identity_threads:?}: yes\n",
        coord.to_epoch(),
    );

    // Post-cut-over chaos: kill one of the new bands — plain r6-style
    // degradation, no dual-read needed any more. The cross-band floor can
    // prove a band irrelevant before it reads a page, so the band killed
    // is the one holding the true winner: the query must read it, and
    // `Failed` and `covers` mean what they say. The converse: a dead band
    // the floor excludes is never read and changes nothing.
    let post_run = |kill: usize| {
        let post_stores: Vec<Vec<TileStore>> = bands
            .iter()
            .enumerate()
            .map(|(b, &(_, stores))| {
                let dead_band = (b == kill).then(|| dead(stores[0].page_count()));
                faulted(stores, dead_band.as_ref())
            })
            .collect();
        let post_sources = tile_sources(post_stores.iter().map(Vec::as_slice));
        let post_layout = (bands.iter().zip(dest_plan.bands()))
            .map(|(&(pyramids, _), band)| (pyramids, band.row_offset));
        let post_archive = archive(post_layout, &post_sources).with_epoch(coord.active_epoch());
        scatter_gather_top_k(
            model.model(),
            &post_archive,
            k,
            &budget,
            &ScatterPolicy::best_effort(),
            &pool,
        )
        .expect("post-cut-over best effort")
    };
    let post_kill_shard = dest_plan
        .shard_of_row(direct.results[0].cell.row)
        .expect("winner inside the grid");
    let post = post_run(post_kill_shard);
    assert!(
        covers(&post.results, truth),
        "true winner must stay inside some reported bound after a post-cut-over kill"
    );
    assert_eq!(post.shards[post_kill_shard].outcome, ShardOutcome::Failed);
    println!(
        "post-cut-over kill of new band {post_kill_shard} (the winner's): degraded-but-sound \
         (completeness {:.3}), winner still covered.",
        post.completeness,
    );
    let healthy = scatter_gather_top_k(
        model.model(),
        &cutover_archive,
        k,
        &budget,
        &ScatterPolicy::best_effort(),
        &pool,
    )
    .expect("healthy post-cut-over scatter");
    let excluded = healthy
        .shards
        .iter()
        .find(|s| s.pages_read == 0)
        .map(|s| s.shard)
        .expect("the floor excludes some band of the new topology before any read");
    let unread = post_run(excluded);
    assert_eq!(unread.shards[excluded].outcome, ShardOutcome::Complete);
    assert_eq!(unread.completeness, 1.0);
    assert_eq!(
        unread.results, healthy.results,
        "a dead band the floor excludes must not change the answer"
    );
    println!(
        "post-cut-over kill of new band {excluded}, which the floor excludes: never read, \
         complete, answer unchanged.\n"
    );

    // --- Retire: scrub the retired source owners' page quarantine (it is
    // keyed by the old band layout and would suppress healthy reads when
    // the stores are reused). A pre-quarantined page proves the scrub.
    let retiring = coord.retiring_source_bands();
    let scrub_stores: Vec<Vec<TileStore>> = retiring
        .iter()
        .map(|&s| {
            let stores: Vec<TileStore> =
                faulted(source_stores[s], Some(&FaultProfile::new().permanent(0)))
                    .into_iter()
                    .map(|st| {
                        st.with_resilience(ResilienceConfig::new(RetryPolicy::none(), Some(1)))
                    })
                    .collect();
            // Trip the quarantine: one failing read per store.
            for st in &stores {
                let _ = st.read_page(0);
            }
            stores
        })
        .collect();
    let scrub_sources = tile_sources(scrub_stores.iter().map(Vec::as_slice));
    let scrub_refs: Vec<&dyn QuarantineScrub> = scrub_sources
        .iter()
        .map(|s| s as &dyn QuarantineScrub)
        .collect();
    let quarantined_before: u64 = scrub_sources.iter().map(|s| s.quarantined_pages()).sum();
    let cleared = coord.retire(&scrub_refs).expect("cut-over -> retired");
    assert_eq!(coord.state(), MigrationState::Retired);
    assert_eq!(
        cleared, quarantined_before,
        "retire reports every cleared page"
    );
    assert!(cleared > 0, "the staged quarantine must be scrubbed");
    assert_eq!(
        scrub_sources
            .iter()
            .map(|s| s.quarantined_pages())
            .sum::<u64>(),
        0,
        "no stale quarantine survives retirement"
    );
    println!("retired source bands {retiring:?}: scrubbed {cleared} stale quarantined pages.\n");
    let migration_report = coord.report();

    // --- Abort path: a second migration hits a wall deadline mid-copy
    // and rolls back; the source epoch answers bit-identically to never
    // having started.
    let mut abort_coord = ReshardCoordinator::new(
        EpochedShardPlan::initial(from_plan.clone()),
        from_plan.split_band(winner_shard).expect("band splits"),
        ReshardPolicy::default().with_wall_deadline_ticks(10),
    )
    .expect("same shape and tile");
    let drag = slow(page_count, 500);
    let slow_copy: Vec<Vec<TileStore>> = source_stores
        .iter()
        .enumerate()
        .map(|(s, stores)| faulted(stores, (s == winner_shard).then_some(&drag)))
        .collect();
    let slow_refs: Vec<&[TileStore]> = slow_copy.iter().map(Vec::as_slice).collect();
    abort_coord.begin_copy().expect("planned -> copying");
    let abort_outcome = abort_coord.run_copy(&slow_refs, None).expect("copy runs");
    assert_eq!(abort_outcome, CopyOutcome::DeadlineExceeded);
    assert_eq!(abort_coord.state(), MigrationState::Aborted);
    assert_eq!(abort_coord.abort_reason(), Some(AbortReason::WallDeadline));
    assert_eq!(abort_coord.active_epoch(), abort_coord.from_epoch());
    assert!(
        abort_coord.migrated_bands().is_empty(),
        "partial copies dropped on abort"
    );
    let after_abort = scatter_gather_top_k(
        model.model(),
        &source_archive,
        k,
        &budget,
        &ScatterPolicy::require_all().at_epoch(abort_coord.from_epoch()),
        &pool,
    )
    .expect("source epoch still serves after abort");
    assert_eq!(
        after_abort.results, reference.results,
        "aborted migration must leave source-epoch answers bit-identical to never having started"
    );
    println!(
        "wall-deadline abort after {} ticks: rolled back to epoch {}, source answers \
         bit-identical to never having started.",
        abort_coord.ticks_spent(),
        abort_coord.from_epoch(),
    );

    let per_band: Vec<String> = migration_report
        .bands
        .iter()
        .map(|b| {
            format!(
                "{{\"dest_band\":{},\"attempts\":{},\"pages_copied\":{},\"retries\":{},\
                 \"io_failures\":{},\"checksum_failures\":{},\"quarantined\":{},\"complete\":{}}}",
                b.dest_band,
                b.attempts,
                b.pages_copied,
                b.retries,
                b.io_failures,
                b.checksum_failures,
                b.quarantined,
                b.complete,
            )
        })
        .collect();
    let covered_json: Vec<String> = covered_table.iter().map(shard_report_json).collect();
    let id_list = |ids: &[usize]| -> String {
        ids.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    write_artifact(
        "BENCH_reshard.json",
        "r9_reshard",
        args,
        &format!(
            "\"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"tile\": {tile}, \"source_shards\": \
             {}, \"dest_shards\": {}, \"pages_per_shard\": {page_count}}},\n  \"migration\": \
             {{\"from_epoch\": {}, \"to_epoch\": {}, \"state\": \"{}\", \"split_band\": \
             {winner_shard}, \"migrating_dest_bands\": [{}], \"ticks_spent\": {},\n    \
             \"per_band\": [\n      {}\n    ]}},\n  \"copy_chaos\": {{\"quarantined_bands\": [{}], \
             \"checksum_failures\": {checksum_failures}, \"retries\": {copy_retries}, \
             \"clean_recopy_complete\": true}},\n  \"dual_read\": {{\"healthy_bit_identical\": \
             true, \"covered_kill_bit_identical\": true, \"covered_completeness\": \
             {covered_completeness:.6}, \"both_sides_killed_sound\": true, \"quorum_error\": \
             {{\"responded\": {q_responded}, \"required\": {q_required}, \"epoch\": {}}},\n    \
             \"per_shard\": [\n      {}\n    ]}},\n  \"cut_over\": \
             {{\"bit_identical_to_direct_build\": true, \"post_kill_band\": \
             {post_kill_shard}, \"post_kill_sound\": true, \"post_kill_completeness\": {:.6}, \
             \"excluded_kill_band\": {excluded}, \"excluded_kill_unchanged\": true}},\n  \"retire\": {{\"retired_bands\": [{}], \
             \"scrubbed_quarantined_pages\": {cleared}}},\n  \"abort\": {{\"reason\": \
             \"wall-deadline\", \"ticks_spent\": {}, \"rolled_back_to_epoch\": {}, \
             \"rollback_bit_identical\": true}},\n  \"fence\": {{\"typed_epoch_mismatch\": true}}",
            from_plan.shard_count(),
            dest_plan.shard_count(),
            migration_report.from_epoch.get(),
            migration_report.to_epoch.get(),
            migration_report.state,
            id_list(&migration_report.migrating_dest_bands),
            migration_report.ticks_spent,
            per_band.join(",\n      "),
            id_list(&quarantined_bands),
            coord.from_epoch().get(),
            covered_json.join(",\n      "),
            post.completeness,
            id_list(&retiring),
            abort_coord.ticks_spent(),
            abort_coord.from_epoch().get(),
        ),
    );
}
