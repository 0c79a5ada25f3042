//! R6 — fault-domain sharded scatter-gather. Gates, in order: healthy
//! scatter-gather is bit-identical to the unsharded resilient engine for
//! shards ∈ {1, 4, 16} × threads ∈ {1, 2, 4, 8}; killing `kill_shards`
//! whole fault domains (always including the winner's, so the loss can
//! never be masked by pruning) yields zero wrong answers — every hit's
//! score inside its bounds, every exact score verifiable against base
//! data, the true winner covered by some reported bound — at every thread
//! count; `require_all` surfaces the kill as a typed `InsufficientShards`
//! error while `quorum(S-F)` still answers; a slow shard trips its soft
//! deadline and is hedged back to a bit-identical answer. Prints the
//! per-shard latency/completeness table and writes `BENCH_shard.json`.

use crate::harness::{
    archive, covers, dead, faulted, in_own_bounds, layout, shard_report_json, slow, write_artifact,
    Args,
};
use mbir_archive::extent::CellCoord;
use mbir_archive::fault::FaultProfile;
use mbir_archive::tile::TileStore;
use mbir_bench::{replicated_world, sharded_world, ShardWorld};
use mbir_core::metrics::{merge_shard_summaries, sharded_degradation_summary, DegradationSummary};
use mbir_core::parallel::WorkerPool;
use mbir_core::replica::{ReplicaConfig, ReplicatedSource};
use mbir_core::resilient::{resilient_top_k, ExecutionBudget};
use mbir_core::shard::{
    scatter_gather_top_k, ScatterPolicy, ShardError, ShardOutcome, ShardReport, ShardTable,
    ShardedArchive,
};
use mbir_core::source::TileSource;

pub fn run(args: &Args) {
    let (seed, shards, kill_shards) = (args.seed, args.shards, args.kill_shards);
    println!(
        "\n## R6 — Sharded scatter-gather: fault domains, stragglers, quorum \
         (seed {seed}, shards {shards}, kill {kill_shards})\n"
    );
    let (rows, cols, tile, k, n_replicas) = (256usize, 256usize, 16usize, 10usize, 2usize);
    let budget = ExecutionBudget::unlimited();

    // The unsharded reference over the same synthetic scene.
    let (global_pyramids, model, ref_groups) = replicated_world(seed, rows, cols, tile, 1);
    let reference_src = TileSource::new(&ref_groups[0].0).expect("aligned stores");
    let reference = resilient_top_k(model.model(), &global_pyramids, k, &reference_src, &budget)
        .expect("healthy reference");
    let truth = reference.results[0].score;
    let truth_of = |cell: CellCoord| -> f64 {
        let x: Vec<f64> = global_pyramids
            .iter()
            .map(|p| p.cell(0, cell.row, cell.col).expect("cell in range").mean)
            .collect();
        model.model().evaluate(&x)
    };

    // Builds per-shard ReplicatedSources over (optionally faulted) store
    // groups and runs the body with the assembled archive.
    let with_sharded_archive =
        |worlds: &[ShardWorld],
         faults: &dyn Fn(usize) -> Option<FaultProfile>,
         body: &mut dyn FnMut(&ShardedArchive<'_, ReplicatedSource<'_>>)| {
            let groups: Vec<Vec<Vec<TileStore>>> = worlds
                .iter()
                .enumerate()
                .map(|(s, w)| {
                    let profile = faults(s);
                    w.groups
                        .iter()
                        .map(|(g, _)| faulted(g, profile.as_ref()))
                        .collect()
                })
                .collect();
            let sources: Vec<ReplicatedSource<'_>> = groups
                .iter()
                .map(|gs| {
                    ReplicatedSource::new(
                        gs.iter().map(Vec::as_slice).collect(),
                        ReplicaConfig::default(),
                    )
                    .expect("aligned replicas")
                })
                .collect();
            body(&archive(layout(worlds), &sources));
        };

    // Gate 1: healthy bit-identity across shard counts × thread counts.
    let identity_shards = [1usize, 4, 16];
    let identity_threads = [1usize, 2, 4, 8];
    for shard_count in identity_shards {
        let (_, _, worlds, _) = sharded_world(seed, rows, cols, tile, shard_count, n_replicas);
        with_sharded_archive(&worlds, &|_| None, &mut |archive| {
            for threads in identity_threads {
                let pool = WorkerPool::new(threads);
                let r = scatter_gather_top_k(
                    model.model(),
                    archive,
                    k,
                    &budget,
                    &ScatterPolicy::require_all(),
                    &pool,
                )
                .expect("healthy scatter");
                assert_eq!(
                    r.results, reference.results,
                    "healthy bit-identity: shards={shard_count} threads={threads}"
                );
                assert_eq!(r.completeness, 1.0);
                assert!(r.shards.iter().all(|s| s.outcome == ShardOutcome::Complete));
            }
        });
    }
    println!(
        "healthy scatter-gather bit-identical to the unsharded resilient engine \
         for shards x threads = {identity_shards:?} x {identity_threads:?}: yes\n"
    );

    // Gate 2: shard-kill chaos. The winner's fault domain always dies (so
    // pruning can never mask the loss); additional victims rotate by seed.
    let (_, _, worlds, plan) = sharded_world(seed, rows, cols, tile, shards, n_replicas);
    let winner_shard = plan
        .shard_of_row(reference.results[0].cell.row)
        .expect("winner inside the grid");
    let mut killed = vec![winner_shard];
    let mut next = (seed as usize) % shards;
    while killed.len() < kill_shards {
        if !killed.contains(&next) {
            killed.push(next);
        }
        next = (next + 1) % shards;
    }
    killed.sort_unstable();
    let page_count = worlds[0].groups[0].0[0].page_count();
    let kill_profile =
        |s: usize| -> Option<FaultProfile> { killed.contains(&s).then(|| dead(page_count)) };
    let mut chaos_table: Vec<ShardReport> = Vec::new();
    let mut chaos_completeness = 1.0f64;
    let mut quorum_tally = (0usize, 0usize);
    for threads in identity_threads {
        with_sharded_archive(&worlds, &kill_profile, &mut |archive| {
            let pool = WorkerPool::new(threads);
            let r = scatter_gather_top_k(
                model.model(),
                archive,
                k,
                &budget,
                &ScatterPolicy::best_effort(),
                &pool,
            )
            .expect("best-effort scatter under shard kill");
            // Zero wrong answers: scores inside bounds, exact scores real.
            assert!(
                in_own_bounds(&r.results),
                "hit score outside its own bounds"
            );
            for hit in r.results.iter().filter(|h| h.exact) {
                assert_eq!(
                    hit.score,
                    truth_of(hit.cell),
                    "exact hit must match base data at {:?}",
                    hit.cell
                );
            }
            assert!(
                covers(&r.results, truth),
                "true winner score must stay inside some reported bound"
            );
            assert_eq!(
                r.shards[winner_shard].outcome,
                ShardOutcome::Failed,
                "the winner's dead fault domain must classify as failed"
            );
            assert!(r.completeness < 1.0, "a dead shard lowers completeness");
            // Per-shard summaries must merge back to the global scorecard.
            let parts: Vec<(DegradationSummary, u64)> = r
                .shards
                .iter()
                .map(|s| {
                    (
                        DegradationSummary {
                            completeness: s.completeness,
                            skipped_pages: s.skipped_pages.len(),
                            budget_stopped: s.budget_stop.is_some(),
                            pages_read: s.pages_read,
                            ..Default::default()
                        },
                        s.cells,
                    )
                })
                .collect();
            let merged = merge_shard_summaries(&parts);
            assert!(
                (merged.completeness - r.completeness).abs() < 1e-9,
                "cell-weighted shard completeness must merge to the global one"
            );
            assert_eq!(
                merged.pages_read,
                r.shards.iter().map(|s| s.pages_read).sum::<u64>(),
                "page counts conserve across the merge"
            );
            // Quorum: require-all must fail typed, quorum(S-F) must pass.
            match scatter_gather_top_k(
                model.model(),
                archive,
                k,
                &budget,
                &ScatterPolicy::require_all(),
                &pool,
            ) {
                Err(ShardError::Insufficient(e)) => {
                    assert!(e.failed.contains(&winner_shard));
                    assert_eq!(e.required, shards);
                    assert!(e.responded < shards);
                    if threads == 1 {
                        quorum_tally = (e.responded, e.required);
                    }
                }
                other => panic!(
                    "require-all over dead shards must fail typed, got {:?}",
                    other.map(|r| r.results.len())
                ),
            }
            let q = scatter_gather_top_k(
                model.model(),
                archive,
                k,
                &budget,
                &ScatterPolicy::quorum(shards - kill_shards),
                &pool,
            )
            .expect("quorum(S-F) must still answer");
            assert!(q.is_degraded());
            // The printed table and JSON come from the single-threaded
            // iteration: the merged answer is thread-invariant, but a
            // shard's attempted reads (and thus its retry ticks) depend
            // on when the other shards' bounds arrive, which only a
            // sequential wave makes run-to-run reproducible.
            if threads == 1 {
                chaos_completeness = r.completeness;
                chaos_table = r.shards;
            }
        });
    }
    print!("{}", ShardTable::new(&chaos_table));
    println!(
        "\nkilled shards {killed:?} (winner domain {winner_shard}): zero wrong answers at \
         threads {identity_threads:?}; require-all failed typed ({} of {} responded); \
         quorum({}) answered degraded (completeness {:.3}).",
        quorum_tally.0,
        quorum_tally.1,
        shards - kill_shards,
        chaos_completeness,
    );

    // Gate 3: straggler hedging. The winner's domain turns slow, not dead:
    // its primary attempt trips the per-shard soft deadline, the hedged
    // re-dispatch finishes clean, and the merge is bit-identical again.
    let mut straggler_hedged = false;
    let mut straggler_won = false;
    let slow_profile = |s: usize| -> Option<FaultProfile> {
        (s == winner_shard).then(|| slow(page_count, 10_000))
    };
    with_sharded_archive(&worlds, &slow_profile, &mut |archive| {
        // Single-threaded for a reproducible pages-read figure; the soft
        // deadline rides the shard's own tick clock, so straggler
        // detection is identical at any worker count.
        let pool = WorkerPool::new(1);
        let policy = ScatterPolicy::require_all()
            .with_soft_deadline_ticks(5_000)
            .with_hedged_stragglers();
        let r = scatter_gather_top_k(model.model(), archive, k, &budget, &policy, &pool)
            .expect("hedged scatter");
        let report = &r.shards[winner_shard];
        assert!(report.hedged, "slow winner domain must be hedged");
        assert!(report.hedge_won, "the clean hedge attempt must win");
        assert_eq!(
            r.results, reference.results,
            "hedged answer must be bit-identical to the reference"
        );
        straggler_hedged = report.hedged;
        straggler_won = report.hedge_won;
        let summary = sharded_degradation_summary(&r);
        println!(
            "straggler domain {winner_shard} hedged: yes; hedge won: yes; merged summary \
             completeness {:.3}, pages read {}.",
            summary.completeness, summary.pages_read,
        );
    });

    let per_shard: Vec<String> = chaos_table.iter().map(shard_report_json).collect();
    let killed_list: Vec<String> = killed.iter().map(usize::to_string).collect();
    write_artifact(
        "BENCH_shard.json",
        "r6_shard",
        args,
        &format!(
            "\"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"tile\": {tile}, \"replicas\": \
             {n_replicas}, \"pages_per_shard\": {page_count}}},\n  \"identity\": {{\"shards\": \
             [1, 4, 16], \"threads\": [1, 2, 4, 8], \"bit_identical\": true}},\n  \"chaos\": \
             {{\"shards\": {shards}, \"killed\": [{}], \"winner_shard\": {winner_shard}, \
             \"zero_wrong_answers\": true, \"winner_covered\": true, \"completeness\": \
             {chaos_completeness:.6}, \"quorum_error\": {{\"responded\": {}, \"required\": {}}},\n    \
             \"per_shard\": [\n      {}\n    ]}},\n  \"straggler\": {{\"hedged\": {straggler_hedged}, \
             \"hedge_won\": {straggler_won}, \"bit_identical_after_hedge\": true}}",
            killed_list.join(", "),
            quorum_tally.0,
            quorum_tally.1,
            per_shard.join(",\n      "),
        ),
    );
}
