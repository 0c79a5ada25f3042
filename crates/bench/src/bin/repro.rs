//! Regenerates every experiment table of the paper reproduction.
//!
//! Usage: `repro [e1|e2|e3|e4|e5|e6|e7|f1|f3|f4|f5|a1|a2|r1|r2|r3|r4|r5|r6|r7|r8|r9|r10|all]
//! [--threads N] [--legacy] [--seed N] [--load L] [--shards S]
//! [--kill-shards F] [--small]` (default: all). Output is
//! Markdown, pasted into EXPERIMENTS.md. The R2 experiment additionally
//! writes machine-readable scaling numbers to `BENCH_parallel.json`;
//! `--threads N` caps the thread counts it sweeps (default: the pool's
//! detected parallelism). The R3 experiment writes kernel-vs-legacy
//! throughput to `BENCH_kernels.json`; `--legacy` makes it measure and print
//! only the legacy paths without touching the JSON. The R4 chaos harness
//! composes corruption + transient + latency + replica-kill fault cocktails
//! over a replicated HPS archive (`--seed N` picks the cocktail, default 7),
//! asserts the soundness and <2% checksum-overhead gates, and writes
//! `BENCH_chaos.json`. The R5 overload harness drives a mixed-priority query
//! storm through the admission controller over a replicated archive with
//! hedged reads (`--load L` scales submissions per service cycle, default
//! 4), asserts that completed queries are bit-identical to unloaded runs at
//! every thread count, and writes `BENCH_overload.json`. The R6 shard harness
//! scatter-gathers over a row-band-sharded archive: healthy runs must be
//! bit-identical to the unsharded resilient engine for shards ∈ {1, 4, 16}
//! and threads ∈ {1, 2, 4, 8}; `--shards S --kill-shards F` then kills F
//! whole fault domains (always including the winner's) and gates on zero
//! wrong answers, sound bounds, typed `InsufficientShards` quorum errors,
//! and straggler hedging, writing `BENCH_shard.json`. The R7 quantization
//! harness sweeps the i8 coarse-pass scan over d ∈ {2, 3, 8} x n ∈ {10k,
//! 100k, 1M}, measures the pruned Onion query against the legacy and flat
//! kernel paths at the E1 scale (gating on >= 2x over legacy), and
//! rewrites `BENCH_kernels.json` at `schema_version` 2 with a
//! per-variant `configs` array of throughput and prune rates. The R8
//! batched-execution harness scatter-gathers a Q=32 batch over a
//! 10.5M-cell, 16-shard archive through one shared per-shard descent,
//! asserts per-query bit-identity against 32 independent scatter-gather
//! runs, gates on >= 3x fewer pages and >= 2x aggregate throughput,
//! surfaces the page-cache hit/miss/dedup counters, and writes
//! `BENCH_batch.json`; `--small` shrinks the world for CI (identity
//! still asserted, the perf gates become informational). The R9 resharding
//! harness drives an epoch-fenced live topology change (splitting the
//! winner's band) through Planned → Copying → DualRead → CutOver →
//! Retired with chaos injected in every state, gating on healthy
//! bit-identity to both the pre-migration plan and a directly built
//! destination topology, zero wrong answers under copy faults and
//! shard kills, typed epoch fencing, and a wall-deadline abort that
//! rolls back bit-identically; writes `BENCH_reshard.json`. The R10
//! append harness crashes the journal writer at *every* byte offset of a
//! multi-commit journal — plus torn-write and partial-record cuts inside
//! every frame — and gates on each recovery being bit-identical (journal
//! bytes, grids, pyramids, snapshot) to a freshly built archive of the
//! committed prefix; it then drives live appends under concurrent
//! queries, gating on snapshot answers bit-identical to clean archives of
//! the same epoch at threads ∈ {1, 2, 4, 8} and shards ∈ {1, 4} with zero
//! wrong answers, checks epoch-keyed cache invalidation only touches the
//! append frontier, replays a standing continuous query across a crash,
//! and writes `BENCH_append.json`; `--small` shrinks the sweep for CI.

use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::grid::Grid2;
use mbir_archive::synth::OccurrenceSampler;
use mbir_archive::tile::TileStore;
use mbir_archive::weather::WeatherGenerator;
use mbir_archive::welllog::WellLog;
use mbir_bench::{
    classification_world, hps_paged_world, hps_world, onion_workload, parallel_world,
    quant_workload, replicated_world, sharded_world, sharded_world_for_plan, sproc_workload,
    texture_world, wide_model_world,
};
use mbir_core::engine::{combined_top_k, naive_grid_top_k, pyramid_top_k, staged_top_k};
use mbir_core::lifecycle::{
    AdmissionController, AdmissionPolicy, CancelToken, ClassCounters, LifecycleState, Priority,
    SessionId,
};
use mbir_core::metrics::{
    degradation_summary, merge_shard_summaries, precision_recall_at_k, scaling_table,
    sharded_degradation_summary, threshold_sweep,
};
use mbir_core::parallel::{par_pyramid_top_k, par_resilient_top_k, par_staged_top_k, WorkerPool};
use mbir_core::replica::{ReplicaConfig, ReplicatedSource};
use mbir_core::resilient::{resilient_top_k, BudgetStop, ExecOptions, ExecutionBudget};
use mbir_core::shard::{
    batched_scatter_gather_top_k, scatter_gather_top_k, ArchiveShard, ScatterPolicy, ShardError,
    ShardOutcome, ShardedArchive,
};
use mbir_core::source::{CachedTileSource, CellSource, TileSource};
use mbir_core::workflow::{run_workflow, WorkflowConfig};
use mbir_index::onion::OnionIndex;
use mbir_index::quant::QuantizedStore;
use mbir_index::rstar::RStarTree;
use mbir_index::scan::{scan_top_k, scan_top_k_flat, scan_top_k_quant};
use mbir_index::sproc::SprocIndex;
use mbir_index::store::PointStore;
use mbir_models::bayes::hps_net::{hps_network, risk_given_observations};
use mbir_models::fsm::fire_ants::screened_fly_detection;
use mbir_models::knowledge::geology::RiverbedModel;
use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
use mbir_progressive::features::{progressive_texture_match, tile_features, TileFeatures};
use mbir_progressive::pyramid::AggregatePyramid;
use std::time::Instant;

fn main() {
    let mut which = "all".to_owned();
    let mut threads: Option<usize> = None;
    let mut legacy_only = false;
    let mut seed = 7u64;
    let mut load = 4usize;
    let mut shards = 4usize;
    let mut kill_shards = 1usize;
    let mut small = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" {
            threads = args.get(i + 1).and_then(|v| v.parse().ok());
            if threads.is_none() {
                eprintln!("--threads needs a positive integer");
                std::process::exit(2);
            }
            i += 2;
        } else if args[i] == "--seed" {
            match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a non-negative integer");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--load" {
            match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(l) if l > 0 => load = l,
                _ => {
                    eprintln!("--load needs a positive integer");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--shards" {
            match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(s) if s > 0 => shards = s,
                _ => {
                    eprintln!("--shards needs a positive integer");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--kill-shards" {
            match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(f) => kill_shards = f,
                None => {
                    eprintln!("--kill-shards needs a positive integer");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--legacy" {
            legacy_only = true;
            i += 1;
        } else if args[i] == "--small" {
            small = true;
            i += 1;
        } else {
            which = args[i].clone();
            i += 1;
        }
    }
    let threads = threads.unwrap_or_else(|| WorkerPool::with_default_parallelism().threads());
    let run = |name: &str| which == "all" || which == name;
    if run("e1") {
        e1_onion();
    }
    if run("e2") {
        e2_progressive_classification();
    }
    if run("e3") {
        e3_progressive_texture();
    }
    if run("e4") {
        e4_sproc();
    }
    if run("e5") {
        e5_accuracy();
    }
    if run("e6") {
        e6_combined_speedup();
    }
    if run("e7") {
        e7_rstar_baseline();
    }
    if run("f1") {
        f1_fire_ants();
    }
    if run("f3") {
        f3_hps_network();
    }
    if run("f4") {
        f4_geology();
    }
    if run("f5") {
        f5_workflow();
    }
    if run("a1") {
        a1_onion_ablation();
    }
    if run("a2") {
        a2_coherence_ablation();
    }
    if run("r1") {
        r1_resilience();
    }
    if run("r2") {
        r2_parallel(threads);
    }
    if run("r3") {
        r3_kernels(legacy_only);
    }
    if run("r4") {
        r4_chaos(seed);
    }
    if run("r5") {
        r5_overload(seed, load);
    }
    if run("r6") {
        if kill_shards == 0 || kill_shards >= shards {
            eprintln!("--kill-shards must be in 1..shards (the chaos gate needs a victim)");
            std::process::exit(2);
        }
        r6_shard(seed, shards, kill_shards);
    }
    if run("r7") {
        r7_quant(seed);
    }
    if run("r8") {
        r8_batch(seed, threads, small);
    }
    if run("r9") {
        r9_reshard(seed);
    }
    if run("r10") {
        r10_append(seed, small);
    }
}

/// Delegating source that cancels `token` once the inner source's
/// cumulative page counter reaches `after` — the storm's deterministic
/// "client hangs up mid-query" injection, at page granularity.
struct CancelAtPage<'a, S: CellSource> {
    inner: &'a S,
    token: CancelToken,
    after: u64,
}

impl<S: CellSource> CellSource for CancelAtPage<'_, S> {
    fn base_cell(
        &self,
        attr: usize,
        row: usize,
        col: usize,
    ) -> Result<f64, mbir_archive::error::ArchiveError> {
        let v = self.inner.base_cell(attr, row, col);
        if self.inner.pages_read() >= self.after {
            self.token.cancel();
        }
        v
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

/// Index of `p` (0..=1) into an ascending sample; 0 when empty.
fn percentile_ticks(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// R5 — overload harness: a mixed-priority query storm over a 2-way
/// replicated HPS archive, driven through the admission controller on the
/// simulated tick clock. Replica 0 drags every page so hedged reads fire
/// and the fast replica wins the race; queued BestEffort work is shed
/// with a typed `Overloaded` error once the backlog policy trips; some
/// clients hang up while queued and some mid-query (cooperative
/// cancellation). Asserts the zero-wrong-answers gate — every query that
/// completes is bit-identical to the unloaded answer, re-verified with
/// the parallel engine at 1/2/4/8 threads — and that hedging never
/// double-counts replica health. Writes `BENCH_overload.json`.
fn r5_overload(seed: u64, load: usize) {
    println!(
        "\n## R5 — Overload harness: admission, cancellation, hedged reads (seed {seed}, load {load})\n"
    );
    let (rows, cols, tile, n_replicas) = (128usize, 128usize, 16usize, 2usize);
    let (pyramids, model, groups) = replicated_world(seed, rows, cols, tile, n_replicas);
    let page_count = groups[0].0[0].page_count();
    let max_k = 5usize;
    let strict: Vec<_> = (1..=max_k)
        .map(|kq| pyramid_top_k(model.model(), &pyramids, kq).expect("valid inputs"))
        .collect();
    let budget = ExecutionBudget::unlimited();

    let page_mix = |x: usize, salt: u64| -> u64 {
        seed.wrapping_add(salt)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(x as u64)
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            >> 32
    };
    let prio_of = |i: usize| match page_mix(i, 10) % 3 {
        0 => Priority::Interactive,
        1 => Priority::Batch,
        _ => Priority::BestEffort,
    };
    let k_of = |i: usize| 1 + (page_mix(i, 11) as usize) % max_k;

    // Replica 0 drags every page (latency 3 -> 4 ticks per load), replica
    // 1 is fast (1 tick). With a 2-tick hedge delay every cold primary
    // load hedges and the backup's 3-tick finish beats the primary's 4.
    let drag = (0..page_count).fold(FaultProfile::new(seed), |p, pg| p.latency(pg, 3));
    let storm_groups: Vec<Vec<TileStore>> = groups
        .iter()
        .enumerate()
        .map(|(gi, (stores, _))| {
            stores
                .iter()
                .map(|s| {
                    if gi == 0 {
                        s.clone().with_faults(drag.clone())
                    } else {
                        s.clone()
                    }
                })
                .collect()
        })
        .collect();
    // A deliberately small cache keeps the storm I/O-bound: hot pages
    // churn through the LRU, every cold reload re-races the replicas, and
    // queue wait shows up in the simulated latency percentiles.
    let config = ReplicaConfig::default()
        .with_cache_pages((page_count / 8).max(1))
        .with_hedge_after_ticks(2);
    let src = ReplicatedSource::new(storm_groups.iter().map(|g| g.as_slice()).collect(), config)
        .expect("aligned replicas");
    // The storm's clock: simulated I/O ticks accumulated across both
    // replica groups (hedged losers still burned their ticks).
    let clock = || -> u64 { groups.iter().map(|(_, st)| st.ticks_elapsed()).sum() };

    let policy = AdmissionPolicy::default()
        .with_max_in_flight(2)
        .with_max_queue_depth(8)
        .with_max_queued_ticks(256)
        .with_expected_ticks_per_query(64);
    let capacity = policy.max_in_flight;
    let ctl = AdmissionController::new(policy);

    // The storm: every round submits `load` queries and services at most
    // `capacity`, so load > capacity grows the backlog until the policy
    // sheds BestEffort work.
    let n_queries = 24 * load;
    let mut next = 0usize;
    let mut outstanding: Vec<(SessionId, usize, u64)> = Vec::new();
    let mut latencies: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut wrong = 0usize;
    let mut round = 0u64;
    while next < n_queries || ctl.queue_depth() > 0 {
        for _ in 0..load {
            if next >= n_queries {
                break;
            }
            let i = next;
            next += 1;
            match ctl.submit(prio_of(i), clock()) {
                Ok(id) => outstanding.push((id, i, round)),
                // Shed fail-fast: the typed error is the whole cost — no
                // session, no token, no engine work.
                Err(_overloaded) => {}
            }
        }
        // Impatient clients give up while still queued.
        for &(id, i, submitted_round) in &outstanding {
            if ctl.state(id) == Some(LifecycleState::Queued)
                && round >= submitted_round + 2
                && page_mix(i, 12) % 8 == 5
            {
                ctl.cancel(id, clock());
            }
        }
        // One service cycle: up to `capacity` admitted queries run.
        for _ in 0..capacity {
            let Some(id) = ctl.try_admit(clock()) else {
                break;
            };
            let (_, i, _) = *outstanding
                .iter()
                .find(|(sid, _, _)| *sid == id)
                .expect("admitted session is tracked");
            let kq = k_of(i);
            let token = ctl.begin(id);
            let r = match page_mix(i, 13) % 8 {
                // Client hung up before the engine started.
                1 => {
                    token.cancel();
                    resilient_top_k(
                        model.model(),
                        &pyramids,
                        kq,
                        &src,
                        ExecOptions::new(&budget).cancel(&token),
                    )
                    .expect("never aborts")
                }
                // Client hangs up a page or two into the run.
                2 => {
                    let wrapped = CancelAtPage {
                        inner: &src,
                        token: token.clone(),
                        after: src.pages_read() + 1 + page_mix(i, 14) % 4,
                    };
                    resilient_top_k(
                        model.model(),
                        &pyramids,
                        kq,
                        &wrapped,
                        ExecOptions::new(&budget).cancel(&token),
                    )
                    .expect("never aborts")
                }
                _ => resilient_top_k(
                    model.model(),
                    &pyramids,
                    kq,
                    &src,
                    ExecOptions::new(&budget).cancel(&token),
                )
                .expect("never aborts"),
            };
            if r.budget_stop == Some(BudgetStop::Cancelled) {
                ctl.cancel(id, clock());
            } else {
                ctl.complete(id, clock());
                // Zero-wrong-answers gate: a completed query under
                // overload is the unloaded answer, bit for bit.
                let want = &strict[kq - 1];
                let identical = r.completeness == 1.0
                    && r.results.len() == want.results.len()
                    && r.results
                        .iter()
                        .zip(&want.results)
                        .all(|(a, b)| a.cell == b.cell && a.score == b.score && a.exact);
                if !identical {
                    wrong += 1;
                }
                let info = ctl.session(id).expect("completed session");
                let lat = info
                    .finished_at
                    .expect("completed session has a finish time")
                    .saturating_sub(info.queued_at);
                latencies[prio_of(i).index()].push(lat);
            }
        }
        outstanding.retain(|&(id, _, _)| {
            !matches!(
                ctl.state(id),
                Some(LifecycleState::Done) | Some(LifecycleState::Cancelled)
            )
        });
        round += 1;
    }
    assert_eq!(wrong, 0, "overload must never change a completed answer");
    assert!(outstanding.is_empty(), "storm drained every session");

    // Hedging accounting: replica 0 (the laggard) never wins a race and
    // is never charged for a cancelled hedge loser — its health ledger
    // stays empty while the fast replica absorbs the served pages.
    let hedged_reads = src.hedged_reads();
    assert!(hedged_reads > 0, "the dragging replica must trigger hedges");
    let health = src.replica_health();
    assert_eq!(
        (health[0].pages_served, health[0].failures),
        (0, 0),
        "hedge losers must leave no health record"
    );
    assert!(health[1].pages_served > 0);

    // Per-class accounting closes: every submission was shed, cancelled,
    // or completed, and only BestEffort was ever shed.
    let counters: Vec<ClassCounters> = Priority::ALL.iter().map(|p| ctl.counters(*p)).collect();
    for (p, c) in Priority::ALL.iter().zip(&counters) {
        assert_eq!(
            c.submitted,
            c.shed + c.cancelled + c.completed,
            "{p} ledger must close"
        );
    }
    assert_eq!(counters[0].shed, 0, "interactive work is never shed");
    assert_eq!(counters[1].shed, 0, "batch work is never shed");
    if load > capacity {
        assert!(
            counters[2].shed > 0,
            "sustained load {load} over capacity {capacity} must shed best-effort work"
        );
    }
    let total_submitted: u64 = counters.iter().map(|c| c.submitted).sum();
    assert_eq!(total_submitted, n_queries as u64);

    // Thread invariance of completed answers: the same queries on fresh
    // replicas (same drag profile, no storm) at 1/2/4/8 threads.
    let mut thread_invariant = true;
    for kq in 1..=max_k {
        for threads in [1usize, 2, 4, 8] {
            let fresh_groups: Vec<Vec<TileStore>> = groups
                .iter()
                .enumerate()
                .map(|(gi, (stores, _))| {
                    stores
                        .iter()
                        .map(|s| {
                            if gi == 0 {
                                s.clone().with_faults(drag.clone())
                            } else {
                                s.clone()
                            }
                        })
                        .collect()
                })
                .collect();
            let config = ReplicaConfig::default()
                .with_cache_pages(page_count)
                .with_hedge_after_ticks(2);
            let fresh_src =
                ReplicatedSource::new(fresh_groups.iter().map(|g| g.as_slice()).collect(), config)
                    .expect("aligned replicas");
            let pool = WorkerPool::new(threads);
            let par = par_resilient_top_k(model.model(), &pyramids, kq, &fresh_src, &budget, &pool)
                .expect("healthy run");
            let want = &strict[kq - 1];
            thread_invariant &= par.completeness == 1.0
                && par
                    .results
                    .iter()
                    .zip(&want.results)
                    .all(|(a, b)| a.cell == b.cell && a.score == b.score && a.exact);
        }
    }
    assert!(
        thread_invariant,
        "completed answers must be bit-identical at every thread count"
    );

    let sorted: Vec<Vec<u64>> = latencies
        .iter()
        .map(|l| {
            let mut l = l.clone();
            l.sort_unstable();
            l
        })
        .collect();
    println!("| class | submitted | shed | cancelled | completed | p50 ticks | p99 ticks |");
    println!("|---|---|---|---|---|---|---|");
    for (p, c) in Priority::ALL.iter().zip(&counters) {
        let s = &sorted[p.index()];
        println!(
            "| {p} | {} | {} | {} | {} | {} | {} |",
            c.submitted,
            c.shed,
            c.cancelled,
            c.completed,
            percentile_ticks(s, 0.50),
            percentile_ticks(s, 0.99),
        );
    }
    let cancelled_total: u64 = counters.iter().map(|c| c.cancelled).sum();
    let shed_total: u64 = counters.iter().map(|c| c.shed).sum();
    // One unloaded reference run carries the storm's lifecycle counters
    // into the shared degradation-summary shape.
    let unloaded =
        resilient_top_k(model.model(), &pyramids, max_k, &src, &budget).expect("healthy run");
    let summary =
        degradation_summary(&unloaded).with_lifecycle(shed_total, cancelled_total, hedged_reads);
    println!(
        "\nzero wrong answers: yes; thread-invariant at 1/2/4/8: yes; \
         hedged reads {}; shed {}; cancelled {} (summary counters: {}/{}/{}).",
        hedged_reads,
        shed_total,
        cancelled_total,
        summary.shed_queries,
        summary.cancelled_queries,
        summary.hedged_reads,
    );

    // Machine-readable output (hand-rolled JSON; std only).
    let class_json = |p: Priority| -> String {
        let c = &counters[p.index()];
        let s = &sorted[p.index()];
        format!(
            "{{\"submitted\":{},\"shed\":{},\"cancelled\":{},\"completed\":{},\
             \"p50_ticks\":{},\"p99_ticks\":{}}}",
            c.submitted,
            c.shed,
            c.cancelled,
            c.completed,
            percentile_ticks(s, 0.50),
            percentile_ticks(s, 0.99),
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"r5_overload\",\n  \"seed\": {seed},\n  \"load\": {load},\n  \
         \"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"tile\": {tile}, \"replicas\": \
         {n_replicas}, \"pages\": {page_count}}},\n  \"policy\": {{\"max_in_flight\": {}, \
         \"max_queue_depth\": {}, \"max_queued_ticks\": {}, \"expected_ticks_per_query\": {}}},\n  \
         \"queries\": {n_queries},\n  \"zero_wrong_answers\": true,\n  \
         \"thread_invariant\": {thread_invariant},\n  \"hedged_reads\": {hedged_reads},\n  \
         \"per_priority\": {{\n    \"interactive\": {},\n    \"batch\": {},\n    \
         \"best_effort\": {}\n  }}\n}}\n",
        ctl.policy().max_in_flight,
        ctl.policy().max_queue_depth,
        ctl.policy().max_queued_ticks,
        ctl.policy().expected_ticks_per_query,
        class_json(Priority::Interactive),
        class_json(Priority::Batch),
        class_json(Priority::BestEffort),
    );
    match std::fs::write("BENCH_overload.json", &json) {
        Ok(()) => println!("\nwrote BENCH_overload.json"),
        Err(e) => eprintln!("\ncould not write BENCH_overload.json: {e}"),
    }
}

/// R4 — chaos harness: a 3-way replicated, checksummed HPS archive under
/// composed fault cocktails (silent corruption + transient flakes +
/// latency + a full replica kill) with a fixed seed. Asserts the gates:
/// healthy replicated runs are bit-identical to the direct path with <2%
/// end-to-end checksum overhead; masked chaos leaves the top-K unchanged;
/// unmasked chaos degrades with bounds that still contain the true score;
/// an expired wall deadline degrades identically at every thread count.
/// Writes `BENCH_chaos.json`.
fn r4_chaos(seed: u64) {
    println!("\n## R4 — Chaos harness: replicated integrity under composed faults (seed {seed})\n");
    let (rows, cols, tile, k, n_replicas) = (256usize, 256usize, 16usize, 10usize, 3usize);
    let (pyramids, model, groups) = replicated_world(seed, rows, cols, tile, n_replicas);
    let page_count = groups[0].0[0].page_count();
    let strict = pyramid_top_k(model.model(), &pyramids, k).expect("valid inputs");
    let truth = strict.results[0].score;
    let budget = ExecutionBudget::unlimited();

    // Fresh stores per run (fault schedules and caches are consumable):
    // one optional profile per replica, plus 2 internal retries so
    // healing transients stay invisible below the failover layer.
    let fresh = |profiles: &[Option<&FaultProfile>]| -> Vec<Vec<TileStore>> {
        groups
            .iter()
            .zip(profiles)
            .map(|((stores, _), prof)| {
                stores
                    .iter()
                    .map(|s| match prof {
                        Some(p) => s
                            .clone()
                            .with_faults((*p).clone())
                            .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), None)),
                        None => s.clone(),
                    })
                    .collect()
            })
            .collect()
    };
    fn source_of<'a>(
        groups: &'a [Vec<TileStore>],
        cache_pages: usize,
        verify: bool,
    ) -> ReplicatedSource<'a> {
        let mut config = ReplicaConfig::default().with_cache_pages(cache_pages);
        if !verify {
            config = config.without_verification();
        }
        ReplicatedSource::new(groups.iter().map(|g| g.as_slice()).collect(), config)
            .expect("aligned replicas")
    }

    // Gate 1: with every replica healthy the checksummed replicated path
    // is bit-identical to the direct source, and checksumming costs <2%
    // of the end-to-end query.
    let healthy = fresh(&[None, None, None]);
    let direct = TileSource::new(&healthy[0]).expect("aligned stores");
    let reference =
        resilient_top_k(model.model(), &pyramids, k, &direct, &budget).expect("healthy run");
    {
        let src = source_of(&healthy, page_count, true);
        let replicated =
            resilient_top_k(model.model(), &pyramids, k, &src, &budget).expect("healthy run");
        assert_eq!(
            replicated, reference,
            "healthy replicated run must be bit-identical to the direct path"
        );
    }
    // End-to-end overhead is measured over an analysis *session*: one
    // replicated source serves ten rounds of a top-K sweep (k = 1..=10),
    // the Fig. 5 hypothesize → retrieve → revise loop re-querying the same
    // archive. Pages verify once at first load and are cache hits after,
    // which is the deployment pattern the <2% gate is about — checksumming
    // is a per-page-load cost, not a per-access one.
    const PAIRS: usize = 25;
    const SESSION_ROUNDS: usize = 10;
    let run_session = |verify: bool| -> u64 {
        let groups = fresh(&[None, None, None]);
        let src = source_of(&groups, page_count, verify);
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..SESSION_ROUNDS {
            for kq in 1..=k {
                last = Some(
                    resilient_top_k(model.model(), &pyramids, kq, &src, &budget).expect("healthy"),
                );
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(last.expect("k >= 1").results, reference.results);
        ns
    };
    // Shared-machine scheduler noise is strictly additive (a preempted
    // session runs up to ~25% long; nothing ever runs *faster* than the
    // clean floor), so the estimator is the per-side *minimum* over many
    // interleaved samples: both sides hit their clean floor several times
    // in 25 reps, and the floors — unlike means or medians of a
    // fat-right-tailed distribution — are sharp. Pairs alternate ABBA so
    // any first-position warm-up bias cancels too.
    run_session(false);
    run_session(true);
    let pairs: Vec<(u64, u64)> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let off = run_session(false);
                (off, run_session(true))
            } else {
                let on = run_session(true);
                (run_session(false), on)
            }
        })
        .collect();
    if std::env::var_os("R4_DEBUG_PAIRS").is_some() {
        for (i, &(off, on)) in pairs.iter().enumerate() {
            eprintln!(
                "pair {i:2} {} off={off} on={on} ratio={:+.4}",
                if i % 2 == 0 { "AB" } else { "BA" },
                (on as f64 - off as f64) / off as f64
            );
        }
    }
    let verify_off_ns = pairs.iter().map(|&(off, _)| off).min().expect("pairs");
    let verify_on_ns = pairs.iter().map(|&(_, on)| on).min().expect("pairs");
    let overhead = (verify_on_ns as f64 - verify_off_ns as f64) / verify_off_ns as f64;
    assert!(
        overhead < 0.02,
        "checksum overhead gate: {:.2}% >= 2% (on {} ns, off {} ns)",
        overhead * 100.0,
        verify_on_ns,
        verify_off_ns
    );

    // The composed cocktail, keyed off the seed so `--seed` reshuffles
    // which pages are hit.
    let page_mix = |page: usize, salt: u64| -> u64 {
        seed.wrapping_add(salt)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(page as u64)
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            >> 32
    };
    let kill_all = (0..page_count).fold(FaultProfile::new(seed), |p, pg| p.permanent(pg));
    let corrupt_some = (0..page_count).fold(FaultProfile::new(seed + 1), |p, pg| {
        match page_mix(pg, 1) % 4 {
            0 => p.corrupt(pg),
            1 => p.latency(pg, 3),
            _ => p,
        }
    });
    let flaky_all = (0..page_count).fold(FaultProfile::new(seed + 2), |p, pg| {
        let p = p.transient(pg, 1);
        if page_mix(pg, 2) % 4 == 0 {
            p.latency(pg, 2)
        } else {
            p
        }
    });

    // Scenario A — masked chaos: replica 0 is killed outright, replica 1
    // serves silent corruption on ~1/4 of its pages, replica 2 flakes
    // once per page; every page is still servable by someone.
    let masked_groups = fresh(&[Some(&kill_all), Some(&corrupt_some), Some(&flaky_all)]);
    let masked_src = source_of(&masked_groups, page_count, true);
    let masked = resilient_top_k(model.model(), &pyramids, k, &masked_src, &budget)
        .expect("masked chaos run");
    assert_eq!(masked.completeness, 1.0, "masked chaos must stay complete");
    assert!(masked.skipped_pages.is_empty());
    for (hit, want) in masked.results.iter().zip(&strict.results) {
        assert_eq!(hit.cell, want.cell, "masked chaos must not move the top-K");
        assert_eq!(
            hit.score, want.score,
            "masked chaos must not perturb scores"
        );
    }

    // Scenario B — unmasked chaos: the true winner's page is corrupt or
    // dead on *every* replica; the engine must degrade with sound bounds.
    let winner = strict.results[0].cell;
    let winner_page = groups[0].0[0].page_of(winner.row, winner.col);
    let p0 = (0..page_count).fold(FaultProfile::new(seed + 3), |p, pg| p.transient(pg, 1));
    let unmasked_groups = fresh(&[
        Some(&p0.corrupt(winner_page)),
        Some(&FaultProfile::new(seed + 4).permanent(winner_page)),
        Some(&FaultProfile::new(seed + 5).corrupt(winner_page)),
    ]);
    let unmasked_src = source_of(&unmasked_groups, page_count, true);
    let unmasked = resilient_top_k(model.model(), &pyramids, k, &unmasked_src, &budget)
        .expect("unmasked chaos run");
    assert!(unmasked.completeness < 1.0, "winner page is unservable");
    assert!(unmasked.skipped_pages.contains(&winner_page));
    let covered = |r: &mbir_core::resilient::ResilientTopK| {
        r.results
            .iter()
            .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi)
    };
    assert!(
        covered(&unmasked),
        "degraded bounds must contain the true winner score"
    );
    for hit in &unmasked.results {
        assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
    }

    // Scenario C — an already-expired wall deadline: every engine stops at
    // its first checkpoint, and the degraded answer is identical at every
    // thread count.
    let deadline_budget =
        ExecutionBudget::unlimited().with_wall_deadline(std::time::Duration::ZERO);
    let deadline_groups = fresh(&[None, None, None]);
    let deadline_src = source_of(&deadline_groups, page_count, true);
    let deadline_seq =
        resilient_top_k(model.model(), &pyramids, k, &deadline_src, &deadline_budget)
            .expect("deadline run");
    assert_eq!(deadline_seq.budget_stop, Some(BudgetStop::WallClock));
    let mut thread_invariant = true;
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        let par = par_resilient_top_k(
            model.model(),
            &pyramids,
            k,
            &deadline_src,
            &deadline_budget,
            &pool,
        )
        .expect("deadline run");
        assert_eq!(par.budget_stop, Some(BudgetStop::WallClock));
        thread_invariant &=
            par.results == deadline_seq.results && par.completeness == deadline_seq.completeness;
    }
    assert!(
        thread_invariant,
        "deadline degradation must be thread-count invariant"
    );

    let scenarios = [
        (
            "masked chaos (kill + corrupt + flakes)",
            &masked,
            covered(&masked),
        ),
        (
            "unmasked chaos (winner page dead everywhere)",
            &unmasked,
            covered(&unmasked),
        ),
        (
            "expired wall deadline (healthy replicas)",
            &deadline_seq,
            covered(&deadline_seq),
        ),
    ];
    println!("| scenario | completeness | skipped pages | inexact hits | widest bound | budget stop | top-1 in bounds |");
    println!("|---|---|---|---|---|---|---|");
    for (label, r, cov) in &scenarios {
        let s = degradation_summary(r);
        println!(
            "| {label} | {:.3} | {} | {} | {:.3} | {} | {} |",
            s.completeness,
            s.skipped_pages,
            s.inexact_hits,
            s.widest_bound,
            r.budget_stop.map_or("-".to_owned(), |x| x.to_string()),
            if *cov { "yes" } else { "no" },
        );
    }
    println!(
        "\nhealthy replicated run bit-identical to direct path: yes; \
         checksum overhead {:.2}% (gate <2%); replica failovers and breaker \
         trips absorbed every masked fault.",
        overhead * 100.0
    );

    // Machine-readable output (hand-rolled JSON; std only).
    let scenario_json = |r: &mbir_core::resilient::ResilientTopK, cov: bool| -> String {
        let s = degradation_summary(r);
        format!(
            "{{\"completeness\":{:.6},\"skipped_pages\":{},\"inexact_hits\":{},\
             \"widest_bound\":{:.6},\"budget_stopped\":{},\"top1_in_bounds\":{}}}",
            s.completeness, s.skipped_pages, s.inexact_hits, s.widest_bound, s.budget_stopped, cov
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"r4_chaos\",\n  \"seed\": {seed},\n  \"world\": {{\"rows\": {rows}, \
         \"cols\": {cols}, \"tile\": {tile}, \"replicas\": {n_replicas}, \"pages\": {page_count}}},\n  \
         \"bit_identical_healthy\": true,\n  \"checksum_overhead\": {{\"verify_off_ns\": {verify_off_ns}, \
         \"verify_on_ns\": {verify_on_ns}, \"overhead_frac\": {overhead:.6}, \"gate\": 0.02}},\n  \
         \"scenarios\": {{\n    \"masked_chaos\": {},\n    \"unmasked_chaos\": {},\n    \
         \"deadline_zero\": {}\n  }},\n  \"deadline_thread_invariant\": {thread_invariant}\n}}\n",
        scenario_json(&masked, covered(&masked)),
        scenario_json(&unmasked, covered(&unmasked)),
        scenario_json(&deadline_seq, covered(&deadline_seq)),
    );
    match std::fs::write("BENCH_chaos.json", &json) {
        Ok(()) => println!("\nwrote BENCH_chaos.json"),
        Err(e) => eprintln!("\ncould not write BENCH_chaos.json: {e}"),
    }
}

/// R6 — fault-domain sharded scatter-gather. Gates, in order: healthy
/// scatter-gather is bit-identical to the unsharded resilient engine for
/// shards ∈ {1, 4, 16} × threads ∈ {1, 2, 4, 8}; killing `kill_shards`
/// whole fault domains (always including the winner's, so the loss can
/// never be masked by pruning) yields zero wrong answers — every hit's
/// score inside its bounds, every exact score verifiable against base
/// data, the true winner covered by some reported bound — at every thread
/// count; `require_all` surfaces the kill as a typed `InsufficientShards`
/// error while `quorum(S-F)` still answers; a slow shard trips its soft
/// deadline and is hedged back to a bit-identical answer. Prints the
/// per-shard latency/completeness table and writes `BENCH_shard.json`.
fn r6_shard(seed: u64, shards: usize, kill_shards: usize) {
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
    let truth_of = |cell: mbir_archive::extent::CellCoord| -> f64 {
        let x: Vec<f64> = global_pyramids
            .iter()
            .map(|p| p.cell(0, cell.row, cell.col).expect("cell in range").mean)
            .collect();
        model.model().evaluate(&x)
    };

    // Builds per-shard ReplicatedSources over (optionally faulted) store
    // groups and runs the body with the assembled archive.
    let with_sharded_archive =
        |worlds: &[mbir_bench::ShardWorld],
         faults: &dyn Fn(usize) -> Option<FaultProfile>,
         body: &mut dyn FnMut(&ShardedArchive<'_, ReplicatedSource<'_>>)| {
            let groups: Vec<Vec<Vec<TileStore>>> = worlds
                .iter()
                .enumerate()
                .map(|(s, w)| {
                    w.groups
                        .iter()
                        .map(|(g, _)| match faults(s) {
                            Some(profile) => g
                                .iter()
                                .map(|st| st.clone().with_faults(profile.clone()))
                                .collect(),
                            None => g.clone(),
                        })
                        .collect()
                })
                .collect();
            let sources: Vec<ReplicatedSource<'_>> = groups
                .iter()
                .map(|gs| {
                    ReplicatedSource::new(
                        gs.iter().map(|g| g.as_slice()).collect(),
                        ReplicaConfig::default(),
                    )
                    .expect("aligned replicas")
                })
                .collect();
            let handles: Vec<ArchiveShard<'_, ReplicatedSource<'_>>> = worlds
                .iter()
                .zip(&sources)
                .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
                .collect();
            let archive = ShardedArchive::new(handles).expect("contiguous bands");
            body(&archive);
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
    let kill_profile = |s: usize| -> Option<FaultProfile> {
        killed
            .contains(&s)
            .then(|| (0..page_count).fold(FaultProfile::new(seed), |p, pg| p.permanent(pg)))
    };
    let mut chaos_table: Vec<mbir_core::shard::ShardReport> = Vec::new();
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
            for hit in &r.results {
                assert!(
                    hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi,
                    "hit score outside its own bounds"
                );
                if hit.exact {
                    assert_eq!(
                        hit.score,
                        truth_of(hit.cell),
                        "exact hit must match base data at {:?}",
                        hit.cell
                    );
                }
            }
            assert!(
                r.results
                    .iter()
                    .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
                "true winner score must stay inside some reported bound"
            );
            assert_eq!(
                r.shards[winner_shard].outcome,
                ShardOutcome::Failed,
                "the winner's dead fault domain must classify as failed"
            );
            assert!(r.completeness < 1.0, "a dead shard lowers completeness");
            // Per-shard summaries must merge back to the global scorecard.
            let parts: Vec<(mbir_core::metrics::DegradationSummary, u64)> = r
                .shards
                .iter()
                .map(|s| {
                    (
                        mbir_core::metrics::DegradationSummary {
                            completeness: s.completeness,
                            skipped_pages: s.skipped_pages.len(),
                            inexact_hits: 0,
                            widest_bound: 0.0,
                            budget_stopped: s.budget_stop.is_some(),
                            shed_queries: 0,
                            cancelled_queries: 0,
                            hedged_reads: 0,
                            pages_read: s.pages_read,
                            quarantined_pages: 0,
                            cache_hits: 0,
                            cache_misses: 0,
                            cache_dedup_waits: 0,
                            appended_pages_seen: 0,
                            epoch_invalidated_cache_entries: 0,
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
    print!("{}", mbir_core::shard::ShardTable::new(&chaos_table));
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
        (s == winner_shard)
            .then(|| (0..page_count).fold(FaultProfile::new(seed), |p, pg| p.latency(pg, 10_000)))
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

    // Machine-readable output (hand-rolled JSON; std only).
    let per_shard: Vec<String> = chaos_table.iter().map(shard_report_json).collect();
    let killed_list: Vec<String> = killed.iter().map(usize::to_string).collect();
    let json = format!(
        "{{\n  \"experiment\": \"r6_shard\",\n  \"seed\": {seed},\n  \"world\": {{\"rows\": {rows}, \
         \"cols\": {cols}, \"tile\": {tile}, \"replicas\": {n_replicas}, \"pages_per_shard\": \
         {page_count}}},\n  \"identity\": {{\"shards\": [1, 4, 16], \"threads\": [1, 2, 4, 8], \
         \"bit_identical\": true}},\n  \"chaos\": {{\"shards\": {shards}, \"killed\": [{}], \
         \"winner_shard\": {winner_shard}, \"zero_wrong_answers\": true, \"winner_covered\": true, \
         \"completeness\": {chaos_completeness:.6}, \"quorum_error\": {{\"responded\": {}, \
         \"required\": {}}},\n    \"per_shard\": [\n      {}\n    ]}},\n  \"straggler\": \
         {{\"hedged\": {straggler_hedged}, \"hedge_won\": {straggler_won}, \
         \"bit_identical_after_hedge\": true}}\n}}\n",
        killed_list.join(", "),
        quorum_tally.0,
        quorum_tally.1,
        per_shard.join(",\n      "),
    );
    match std::fs::write("BENCH_shard.json", &json) {
        Ok(()) => println!("\nwrote BENCH_shard.json"),
        Err(e) => eprintln!("\ncould not write BENCH_shard.json: {e}"),
    }
}

/// One `ShardReport` as a hand-rolled JSON object (std only) — shared by
/// the r6 and r9 harnesses.
fn shard_report_json(s: &mbir_core::shard::ShardReport) -> String {
    format!(
        "{{\"shard\":{},\"outcome\":\"{}\",\"completeness\":{:.6},\"exact_hits\":{},\
         \"skipped_pages\":{},\"pages_read\":{},\"ticks\":{},\"hedged\":{}}}",
        s.shard,
        s.outcome,
        s.completeness,
        s.exact_hits,
        s.skipped_pages.len(),
        s.pages_read,
        s.ticks,
        s.hedged,
    )
}

/// R9 — live resharding: epoch-fenced topology changes with chaos-proof
/// migration. The winner's source band is split in two through the
/// coordinator's Planned → Copying → DualRead → CutOver → Retired state
/// machine. Gates, in order: (a) the healthy migration is invisible —
/// dual-read answers are bit-identical to the pre-migration plan, and the
/// post-cut-over archive (carried-over source bands + migrated copies) is
/// bit-identical to a destination topology built directly from the raw
/// grids; (b) chaos injected in every migration state — transient,
/// corrupt, and latency copy faults during Copying (healed by retries,
/// caught by checksums, quarantined, then recopied from a clean replica),
/// the migrating source shard killed during DualRead (covered wholesale
/// by its destination copies), both sides killed (degraded but sound),
/// and a post-cut-over kill — yields zero wrong answers: the true winner
/// always stays inside some reported bound; (c) a wall-deadline abort
/// rolls back to the source epoch with results bit-identical to never
/// having started. Epoch fencing is typed end to end: a query pinned to
/// the destination epoch against the source archive fails with
/// `EpochMismatch`, and a mid-migration quorum failure is an
/// `InsufficientShards` stamped with the serving epoch. Writes
/// `BENCH_reshard.json`.
fn r9_reshard(seed: u64) {
    use mbir_archive::shard::EpochedShardPlan;
    use mbir_core::reshard::{
        AbortReason, CopyOutcome, MigrationState, ReshardCoordinator, ReshardPolicy,
    };
    use mbir_core::shard::{scatter_gather_top_k_dual, ShardTable};
    use mbir_core::source::QuarantineScrub;

    println!("\n## R9 — Live resharding: epoch-fenced topology change under chaos (seed {seed})\n");
    let (rows, cols, tile, k) = (256usize, 256usize, 16usize, 10usize);
    let budget = ExecutionBudget::unlimited();
    let identity_threads = [1usize, 2, 4];

    let (_, model, worlds, from_plan) = sharded_world(seed, rows, cols, tile, 4, 1);
    let page_count = worlds[0].groups[0].0[0].page_count();

    // Source-epoch archive over plain tile sources (one replica group).
    let source_stores: Vec<&[TileStore]> =
        worlds.iter().map(|w| w.groups[0].0.as_slice()).collect();
    let source_sources: Vec<TileSource<'_>> = source_stores
        .iter()
        .map(|g| TileSource::new(g).expect("aligned stores"))
        .collect();
    let source_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = worlds
        .iter()
        .zip(&source_sources)
        .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
        .collect();
    let source_archive = ShardedArchive::new(source_handles).expect("contiguous bands");
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
    let chaos_copy: Vec<Vec<TileStore>> = worlds
        .iter()
        .enumerate()
        .map(|(s, w)| {
            w.groups[0]
                .0
                .iter()
                .enumerate()
                .map(|(a, st)| {
                    if s == winner_shard && a == 0 {
                        st.clone().with_faults(
                            FaultProfile::new(seed)
                                .transient(0, 2)
                                .latency(1, 5)
                                .corrupt(2),
                        )
                    } else {
                        st.clone()
                    }
                })
                .collect()
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
    let dual_sources: Vec<TileSource<'_>> = migrated
        .iter()
        .map(|b| TileSource::new(b.stores()).expect("aligned copies"))
        .collect();
    let dest_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = migrated
        .iter()
        .zip(&dual_sources)
        .map(|(b, src)| ArchiveShard::new(b.pyramids(), src, b.row_offset()))
        .collect();
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
    let kill_all = || (0..page_count).fold(FaultProfile::new(seed), |p, pg| p.permanent(pg));
    let killed_stores: Vec<Vec<TileStore>> = worlds
        .iter()
        .enumerate()
        .map(|(s, w)| {
            w.groups[0]
                .0
                .iter()
                .map(|st| {
                    if s == winner_shard {
                        st.clone().with_faults(kill_all())
                    } else {
                        st.clone()
                    }
                })
                .collect()
        })
        .collect();
    let killed_sources: Vec<TileSource<'_>> = killed_stores
        .iter()
        .map(|g| TileSource::new(g).expect("aligned stores"))
        .collect();
    let killed_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = worlds
        .iter()
        .zip(&killed_sources)
        .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
        .collect();
    let killed_archive = ShardedArchive::new(killed_handles).expect("contiguous bands");
    let mut covered_table: Vec<mbir_core::shard::ShardReport> = Vec::new();
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
        for hit in &r.results {
            assert!(
                hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi,
                "hit score outside its own bounds"
            );
        }
        assert!(
            r.results
                .iter()
                .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
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
        .map(|b| {
            b.stores()
                .iter()
                .map(|st| {
                    st.clone().with_faults(
                        (0..st.page_count()).fold(FaultProfile::new(seed), |p, pg| p.permanent(pg)),
                    )
                })
                .collect()
        })
        .collect();
    let killed_dest_sources: Vec<TileSource<'_>> = killed_dest_stores
        .iter()
        .map(|g| TileSource::new(g).expect("aligned copies"))
        .collect();
    let killed_dest_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = migrated
        .iter()
        .zip(&killed_dest_sources)
        .map(|(b, src)| ArchiveShard::new(b.pyramids(), src, b.row_offset()))
        .collect();
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
        both.results
            .iter()
            .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
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
    let direct_sources: Vec<TileSource<'_>> = direct_worlds
        .iter()
        .map(|w| TileSource::new(&w.groups[0].0).expect("aligned stores"))
        .collect();
    let direct_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = direct_worlds
        .iter()
        .zip(&direct_sources)
        .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
        .collect();
    let direct_archive = ShardedArchive::new(direct_handles)
        .expect("contiguous bands")
        .with_epoch(coord.to_epoch());
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
    enum BandRef<'a> {
        Carried(usize),
        Migrated(&'a mbir_core::reshard::MigratedBand),
    }
    let mut band_refs: Vec<BandRef<'_>> = Vec::new();
    for b in 0..dest_plan.shard_count() {
        if let Some(&(_, src)) = coord.carried_over().iter().find(|&&(d, _)| d == b) {
            band_refs.push(BandRef::Carried(src));
        } else {
            let pos = coord
                .migrating_dest_bands()
                .iter()
                .position(|&m| m == b)
                .expect("band is carried or migrating");
            band_refs.push(BandRef::Migrated(migrated[pos]));
        }
    }
    let cutover_sources: Vec<TileSource<'_>> = band_refs
        .iter()
        .map(|r| match r {
            BandRef::Carried(s) => {
                TileSource::new(&worlds[*s].groups[0].0).expect("aligned stores")
            }
            BandRef::Migrated(b) => TileSource::new(b.stores()).expect("aligned copies"),
        })
        .collect();
    let cutover_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = band_refs
        .iter()
        .zip(&cutover_sources)
        .enumerate()
        .map(|(b, (r, src))| {
            let offset = dest_plan.bands()[b].row_offset;
            match r {
                BandRef::Carried(s) => ArchiveShard::new(&worlds[*s].pyramids, src, offset),
                BandRef::Migrated(m) => ArchiveShard::new(m.pyramids(), src, offset),
            }
        })
        .collect();
    let cutover_archive = ShardedArchive::new(cutover_handles)
        .expect("contiguous bands")
        .with_epoch(coord.active_epoch());
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
    // degradation, no dual-read needed any more.
    let post_kill_shard = coord.migrating_dest_bands()[0];
    let post_stores: Vec<Vec<TileStore>> = band_refs
        .iter()
        .enumerate()
        .map(|(b, r)| {
            let base: Vec<TileStore> = match r {
                BandRef::Carried(s) => worlds[*s].groups[0].0.clone(),
                BandRef::Migrated(m) => m.stores().to_vec(),
            };
            if b == post_kill_shard {
                base.into_iter()
                    .map(|st| {
                        let pages = st.page_count();
                        st.with_faults(
                            (0..pages).fold(FaultProfile::new(seed), |p, pg| p.permanent(pg)),
                        )
                    })
                    .collect()
            } else {
                base
            }
        })
        .collect();
    let post_sources: Vec<TileSource<'_>> = post_stores
        .iter()
        .map(|g| TileSource::new(g).expect("aligned stores"))
        .collect();
    let post_handles: Vec<ArchiveShard<'_, TileSource<'_>>> = band_refs
        .iter()
        .zip(&post_sources)
        .enumerate()
        .map(|(b, (r, src))| {
            let offset = dest_plan.bands()[b].row_offset;
            match r {
                BandRef::Carried(s) => ArchiveShard::new(&worlds[*s].pyramids, src, offset),
                BandRef::Migrated(m) => ArchiveShard::new(m.pyramids(), src, offset),
            }
        })
        .collect();
    let post_archive = ShardedArchive::new(post_handles)
        .expect("contiguous bands")
        .with_epoch(coord.active_epoch());
    let post = scatter_gather_top_k(
        model.model(),
        &post_archive,
        k,
        &budget,
        &ScatterPolicy::best_effort(),
        &pool,
    )
    .expect("post-cut-over best effort");
    assert!(
        post.results
            .iter()
            .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
        "true winner must stay inside some reported bound after a post-cut-over kill"
    );
    assert_eq!(post.shards[post_kill_shard].outcome, ShardOutcome::Failed);
    println!(
        "post-cut-over kill of new band {post_kill_shard}: degraded-but-sound \
         (completeness {:.3}), winner still covered.\n",
        post.completeness,
    );

    // --- Retire: scrub the retired source owners' page quarantine (it is
    // keyed by the old band layout and would suppress healthy reads when
    // the stores are reused). A pre-quarantined page proves the scrub.
    let retiring = coord.retiring_source_bands();
    let scrub_stores: Vec<Vec<TileStore>> = retiring
        .iter()
        .map(|&s| {
            let stores: Vec<TileStore> = worlds[s].groups[0]
                .0
                .iter()
                .map(|st| {
                    st.clone()
                        .with_faults(FaultProfile::new(seed).permanent(0))
                        .with_resilience(ResilienceConfig::new(RetryPolicy::none(), Some(1)))
                })
                .collect();
            // Trip the quarantine: one failing read per store.
            for st in &stores {
                let _ = st.read_page(0);
            }
            stores
        })
        .collect();
    let scrub_sources: Vec<TileSource<'_>> = scrub_stores
        .iter()
        .map(|g| TileSource::new(g).expect("aligned stores"))
        .collect();
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
    let slow_copy: Vec<Vec<TileStore>> = worlds
        .iter()
        .enumerate()
        .map(|(s, w)| {
            w.groups[0]
                .0
                .iter()
                .map(|st| {
                    if s == winner_shard {
                        st.clone().with_faults(
                            (0..page_count)
                                .fold(FaultProfile::new(seed), |p, pg| p.latency(pg, 500)),
                        )
                    } else {
                        st.clone()
                    }
                })
                .collect()
        })
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
         bit-identical to never having started.\n",
        abort_coord.ticks_spent(),
        abort_coord.from_epoch(),
    );

    // Machine-readable output (hand-rolled JSON; std only).
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
    let json = format!(
        "{{\n  \"experiment\": \"r9_reshard\",\n  \"seed\": {seed},\n  \"world\": {{\"rows\": {rows}, \
         \"cols\": {cols}, \"tile\": {tile}, \"source_shards\": {}, \"dest_shards\": {}, \
         \"pages_per_shard\": {page_count}}},\n  \"migration\": {{\"from_epoch\": {}, \"to_epoch\": {}, \
         \"state\": \"{}\", \"split_band\": {winner_shard}, \"migrating_dest_bands\": [{}], \
         \"ticks_spent\": {},\n    \"per_band\": [\n      {}\n    ]}},\n  \"copy_chaos\": \
         {{\"quarantined_bands\": [{}], \"checksum_failures\": {checksum_failures}, \"retries\": \
         {copy_retries}, \"clean_recopy_complete\": true}},\n  \"dual_read\": {{\"healthy_bit_identical\": \
         true, \"covered_kill_bit_identical\": true, \"covered_completeness\": \
         {covered_completeness:.6}, \"both_sides_killed_sound\": true, \"quorum_error\": \
         {{\"responded\": {q_responded}, \"required\": {q_required}, \"epoch\": {}}},\n    \
         \"per_shard\": [\n      {}\n    ]}},\n  \"cut_over\": {{\"bit_identical_to_direct_build\": \
         true, \"post_kill_sound\": true, \"post_kill_completeness\": {:.6}}},\n  \"retire\": \
         {{\"retired_bands\": [{}], \"scrubbed_quarantined_pages\": {cleared}}},\n  \"abort\": \
         {{\"reason\": \"wall-deadline\", \"ticks_spent\": {}, \"rolled_back_to_epoch\": {}, \
         \"rollback_bit_identical\": true}},\n  \"fence\": {{\"typed_epoch_mismatch\": true}}\n}}\n",
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
    );
    match std::fs::write("BENCH_reshard.json", &json) {
        Ok(()) => println!("wrote BENCH_reshard.json"),
        Err(e) => eprintln!("could not write BENCH_reshard.json: {e}"),
    }
}

/// R8 — batched multi-query scatter-gather at archive scale: a Q=32 batch
/// of perturbed query directions over a 10.5M-cell grid in 16 row-band
/// shards, answered by *one* shared per-shard descent
/// ([`batched_scatter_gather_top_k`]) and compared against 32 independent
/// [`scatter_gather_top_k`] runs. Gates: every query's batched answer is
/// bit-identical to its solo run (always); at full scale the batch reads at
/// least 3x fewer pages and delivers at least 2x aggregate throughput.
/// Prints the solo-vs-batched table with the page-cache hit/miss/dedup
/// counters and writes `BENCH_batch.json`. With `--small` the world shrinks
/// for CI and the perf gates turn informational.
fn r8_batch(seed: u64, threads: usize, small: bool) {
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
            let handles: Vec<ArchiveShard<'_, EmulatedRemoteSource<'_>>> = worlds
                .iter()
                .zip(&sources)
                .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
                .collect();
            let archive = ShardedArchive::new(handles).expect("contiguous bands");
            body(&archive);
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
        // Satellite view: the merged degradation summary with the page
        // cache folded in (batch-phase deltas are added below).
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
    println!(
        "\nbatched sharing: {} cell requests over {} fetches ({:.1}x), {} bound requests over {} evals ({:.1}x)",
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

    let json = format!(
        "{{\n  \"experiment\": \"r8_batch\",\n  \"schema_version\": 1,\n  \"seed\": {seed},\n  \
         \"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"cells\": {cells}, \"tile\": {tile}, \
         \"shards\": {shards}, \"q\": {q_count}, \"k\": {k}, \"threads\": {threads}, \
         \"page_fetch_us\": 1000, \"small\": {small}}},\n  \"solo\": {{\"pages_read\": {solo_pages}, \"wall_ms\": \
         {solo_total_ms:.3}, \"mcells_per_s\": {:.3}, \"p50_ms\": {solo_p50:.3}, \"p99_ms\": \
         {solo_p99:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_dedup_waits\": {}}},\n  \
         \"batched\": {{\"pages_read\": {batch_pages}, \"cells_fetched\": {}, \"cell_requests\": \
         {}, \"bound_evals\": {}, \"bound_requests\": {}, \"wall_ms\": {batch_ms:.3}, \
         \"mcells_per_s\": {:.3}, \"per_query_ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": \
         {}, \"cache_dedup_waits\": {}}},\n  \"gates\": {{\"bit_identical\": true, \
         \"page_ratio\": {page_ratio:.3}, \"throughput_ratio\": {throughput_ratio:.3}, \
         \"enforced\": {enforce}}}\n}}\n",
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
    );
    match std::fs::write("BENCH_batch.json", &json) {
        Ok(()) => println!("\nwrote BENCH_batch.json"),
        Err(e) => eprintln!("\ncould not write BENCH_batch.json: {e}"),
    }
}

/// R3 — flat columnar kernels vs the legacy nested-Vec hot paths. Measures
/// the sequential scan and the Onion build/query at d=3, n=100k (the E1
/// workload scale), asserts bit-identical results, and writes both sides
/// plus speedup ratios to `BENCH_kernels.json`. With `--legacy` it times
/// and prints only the legacy paths and leaves the JSON alone.
fn r3_kernels(legacy_only: bool) {
    println!("\n## R3 — Flat columnar kernels vs legacy nested-Vec paths\n");
    let n = 100_000usize;
    let d = 3usize;
    let k = 10usize;
    let (points, dir) = onion_workload(7, n);
    let store = PointStore::from_rows(&points).expect("well-formed workload");
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
    let melem_per_s = |ns: u64| n as f64 / (ns as f64 / 1e9) / 1e6;

    // Sequential scan: flat kernel vs closure-per-point over nested Vecs.
    let legacy_scan = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
    let scan_legacy_ns = time_ns(&mut || {
        let _ = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
    });

    // Onion build + query: kernel-backed store vs end-to-end nested Vecs.
    let legacy_index =
        OnionIndex::build_legacy_with(points.clone(), 24, 16, 7).expect("valid workload");
    let legacy_query = legacy_index.top_k_max_legacy(&dir, k).expect("valid query");
    let onion_build_legacy_ns = time_ns(&mut || {
        let _ = OnionIndex::build_legacy_with(points.clone(), 24, 16, 7).expect("valid workload");
    });
    let onion_query_legacy_ns = time_ns(&mut || {
        let _ = legacy_index.top_k_max_legacy(&dir, k).expect("valid query");
    });

    if legacy_only {
        println!("(--legacy: kernel paths not measured)\n");
        println!("| hot path | legacy ms | legacy Melem/s |");
        println!("|---|---|---|");
        for (label, ns) in [
            ("sequential scan", scan_legacy_ns),
            ("onion build", onion_build_legacy_ns),
            ("onion query", onion_query_legacy_ns),
        ] {
            println!(
                "| {label} | {:.3} | {:.1} |",
                ns as f64 / 1e6,
                melem_per_s(ns)
            );
        }
        return;
    }

    let kernel_scan = scan_top_k_flat(&store, &dir, k);
    assert_eq!(
        kernel_scan, legacy_scan,
        "flat scan must be bit-identical to the legacy scan"
    );
    let scan_kernel_ns = time_ns(&mut || {
        let _ = scan_top_k_flat(&store, &dir, k);
    });

    let kernel_index = OnionIndex::build_with(points.clone(), 24, 16, 7).expect("valid workload");
    assert_eq!(
        kernel_index.layer_sizes(),
        legacy_index.layer_sizes(),
        "kernel build must peel identical layers"
    );
    let kernel_query = kernel_index.top_k_max(&dir, k).expect("valid query");
    assert_eq!(
        kernel_query.results, legacy_query.results,
        "kernel query must be bit-identical to the legacy query"
    );
    let onion_build_kernel_ns = time_ns(&mut || {
        let _ = OnionIndex::build_with(points.clone(), 24, 16, 7).expect("valid workload");
    });
    let onion_query_kernel_ns = time_ns(&mut || {
        let _ = kernel_index.top_k_max(&dir, k).expect("valid query");
    });

    let rows = [
        ("sequential scan", scan_kernel_ns, scan_legacy_ns),
        ("onion build", onion_build_kernel_ns, onion_build_legacy_ns),
        ("onion query", onion_query_kernel_ns, onion_query_legacy_ns),
    ];
    println!("| hot path | legacy ms | kernel ms | legacy Melem/s | kernel Melem/s | speedup |");
    println!("|---|---|---|---|---|---|");
    for (label, kernel_ns, legacy_ns) in rows {
        println!(
            "| {label} | {:.3} | {:.3} | {:.1} | {:.1} | {:.2}x |",
            legacy_ns as f64 / 1e6,
            kernel_ns as f64 / 1e6,
            melem_per_s(legacy_ns),
            melem_per_s(kernel_ns),
            legacy_ns as f64 / kernel_ns as f64
        );
    }
    println!("\nAll kernel results asserted bit-identical to legacy before timing (d={d}, n={n}, k={k}).");

    // Machine-readable output (hand-rolled JSON; std only).
    let path_json = |kernel_ns: u64, legacy_ns: u64| -> String {
        format!(
            "{{\"legacy_ns\":{legacy_ns},\"kernel_ns\":{kernel_ns},\
             \"legacy_melem_per_s\":{:.3},\"kernel_melem_per_s\":{:.3},\"speedup\":{:.4}}}",
            melem_per_s(legacy_ns),
            melem_per_s(kernel_ns),
            legacy_ns as f64 / kernel_ns as f64
        )
    };
    let json = format!(
        "{{\n  \"experiment\": \"r3_kernels\",\n  \"world\": {{\"n\": {n}, \"d\": {d}, \
         \"k\": {k}}},\n  \"bit_identical\": true,\n  \"hot_paths\": {{\n    \
         \"sequential_scan\": {},\n    \"onion_build\": {},\n    \"onion_query\": {}\n  }}\n}}\n",
        path_json(scan_kernel_ns, scan_legacy_ns),
        path_json(onion_build_kernel_ns, onion_build_legacy_ns),
        path_json(onion_query_kernel_ns, onion_query_legacy_ns),
    );
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => println!("\nwrote BENCH_kernels.json"),
        Err(e) => eprintln!("\ncould not write BENCH_kernels.json: {e}"),
    }
}

/// R7 — the i8 quantized coarse pass, end to end. Sweeps the pruned scan
/// over d x n variants (bit-identity asserted per variant), measures the
/// unhinted Onion query under its three names against the flat scan at
/// the E1 scale (gating on <= 3 % of the tuples examined and >= 5x over
/// `scan_top_k_flat`), and rewrites `BENCH_kernels.json` at
/// `schema_version` 2: the R3 hot paths plus a `configs` array with
/// per-variant throughput and prune rates.
fn r7_quant(seed: u64) {
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
    let kernel_index = OnionIndex::build_with(points.clone(), 24, 16, 7).expect("valid workload");
    let quant_index =
        OnionIndex::build_quantized_with(points, 24, 16, 7, 1).expect("valid workload");
    let flat_scan = scan_top_k_flat(&onion_store, &dir, k);
    let legacy_query = legacy_index.top_k_max_legacy(&dir, k).expect("valid query");
    let kernel_query = kernel_index.top_k_max(&dir, k).expect("valid query");
    let (quant_query, onion_report) = quant_index
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
        let _ = quant_index.top_k_max_quant(&dir, k).expect("valid query");
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

    // Machine-readable output, schema_version 2: R3-shaped hot paths plus
    // the per-variant sweep.
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
    let json = format!(
        "{{\n  \"experiment\": \"r7_quant\",\n  \"schema_version\": 2,\n  \
         \"world\": {{\"onion_n\": {onion_n}, \"onion_d\": {onion_d}, \"k\": {k}, \
         \"seed\": {seed}}},\n  \"bit_identical\": true,\n  \"hot_paths\": {{\n    \
         \"onion_query\": {{\"scan_flat_ns\":{scan_flat_ns},\"legacy_ns\":{onion_legacy_ns},\
         \"kernel_ns\":{onion_kernel_ns},\"quant_ns\":{onion_quant_ns},\
         \"tuples_examined\":{onion_tuples},\"examined_share\":{:.6},\
         \"speedup_vs_flat_scan\":{:.4}}}\n  }},\n  \"configs\": [\n    {}\n  ]\n}}\n",
        examined_share,
        onion_speedup,
        configs.join(",\n    "),
    );
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => println!("\nwrote BENCH_kernels.json (schema_version 2)"),
        Err(e) => eprintln!("\ncould not write BENCH_kernels.json: {e}"),
    }
}

/// R2 — parallel execution scaling: wall time, speedup, and efficiency of
/// the partitioned pyramid and staged engines across thread counts (the
/// batched engine is `repro r8`'s). Every parallel result is asserted
/// bit-identical to its sequential counterpart before timings are
/// reported. Also writes the numbers to `BENCH_parallel.json` for
/// machines.
fn r2_parallel(max_threads: usize) {
    println!("\n## R2 — Parallel execution scaling\n");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let side = 512usize;
    let arity = 4usize;
    let k = 10usize;
    let (pyramids, model, _, _) = parallel_world(29, side, arity, 16);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= max_threads.max(1))
        .collect();
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

    // Engine 1: parallel pyramid descent.
    let seq = pyramid_top_k(&model, &pyramids, k).expect("valid inputs");
    let mut pyramid_points: Vec<(usize, u64)> = Vec::new();
    for &t in &thread_counts {
        let pool = WorkerPool::new(t);
        let r = par_pyramid_top_k(&model, &pyramids, k, &pool).expect("valid inputs");
        assert_eq!(r.results, seq.results, "par_pyramid must be bit-identical");
        let ns = time_ns(&mut || {
            let _ = par_pyramid_top_k(&model, &pyramids, k, &pool).expect("valid inputs");
        });
        pyramid_points.push((t, ns));
    }

    // Engine 2: parallel staged scan over the flattened base level.
    let ranges: Vec<(f64, f64)> = pyramids
        .iter()
        .map(|p| {
            let root = p.root();
            (root.min, root.max)
        })
        .collect();
    let progressive = ProgressiveLinearModel::new(model, &ranges).expect("ranges match arity");
    let tuples: Vec<Vec<f64>> = (0..side * side)
        .map(|i| {
            pyramids
                .iter()
                .map(|p| p.cell(0, i / side, i % side).expect("in-bounds").mean)
                .collect()
        })
        .collect();
    let seq_staged = staged_top_k(&progressive, &tuples, k).expect("valid inputs");
    let mut staged_points: Vec<(usize, u64)> = Vec::new();
    for &t in &thread_counts {
        let pool = WorkerPool::new(t);
        let r = par_staged_top_k(&progressive, &tuples, k, &pool).expect("valid inputs");
        assert_eq!(
            r.results, seq_staged.results,
            "par_staged must be bit-identical"
        );
        let ns = time_ns(&mut || {
            let _ = par_staged_top_k(&progressive, &tuples, k, &pool).expect("valid inputs");
        });
        staged_points.push((t, ns));
    }

    let engines = [
        ("par_pyramid_top_k", &pyramid_points),
        ("par_staged_top_k", &staged_points),
    ];
    for (name, points) in engines {
        println!("### {name}\n");
        println!("| threads | wall ms | speedup | efficiency |");
        println!("|---|---|---|---|");
        for row in scaling_table(points) {
            println!(
                "| {} | {:.3} | {:.2}x | {:.2} |",
                row.threads,
                row.wall_ns as f64 / 1e6,
                row.speedup,
                row.efficiency
            );
        }
        println!();
    }
    println!("host CPUs: {host_cpus}");
    println!("All parallel results asserted bit-identical to sequential before timing.");

    // Machine-readable output (hand-rolled JSON; std only).
    let scaling_json = |points: &[(usize, u64)]| -> String {
        let rows: Vec<String> = scaling_table(points)
            .iter()
            .map(|r| {
                format!(
                    "{{\"threads\":{},\"wall_ns\":{},\"speedup\":{:.4},\"efficiency\":{:.4}}}",
                    r.threads, r.wall_ns, r.speedup, r.efficiency
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    };
    let json = format!(
        "{{\n  \"experiment\": \"r2_parallel\",\n  \"host_cpus\": {host_cpus},\n  \
         \"max_threads\": {max_threads},\n  \"world\": {{\"side\": {side}, \"arity\": {arity}, \
         \"k\": {k}}},\n  \"bit_identical\": true,\n  \"engines\": {{\n    \
         \"par_pyramid_top_k\": {},\n    \"par_staged_top_k\": {}\n  }}\n}}\n",
        scaling_json(&pyramid_points),
        scaling_json(&staged_points),
    );
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("\nwrote BENCH_parallel.json"),
        Err(e) => eprintln!("\ncould not write BENCH_parallel.json: {e}"),
    }
}

/// R1 — retrieval under fault injection: completeness, skipped pages, and
/// budget stops instead of aborted queries.
fn r1_resilience() {
    println!("\n## R1 — Resilient retrieval under archive faults\n");
    let side = 128usize;
    let k = 10usize;
    let (pyramids, stores, model, _) = hps_paged_world(13, side, side, 16);
    let page_count = stores[0].page_count();
    let strict = pyramid_top_k(model.model(), &pyramids, k).expect("valid");

    let with_profile = |profile: FaultProfile, config: ResilienceConfig| -> Vec<TileStore> {
        stores
            .iter()
            .map(|s| {
                s.clone()
                    .with_faults(profile.clone())
                    .with_resilience(config)
            })
            .collect()
    };
    // Measure the healthy run first so the fault scenarios are calibrated
    // to pages the query actually needs, not arbitrary page numbers.
    let healthy = with_profile(FaultProfile::new(1), ResilienceConfig::none());
    let healthy_src = TileSource::new(&healthy).expect("aligned");
    resilient_top_k(
        model.model(),
        &pyramids,
        k,
        &healthy_src,
        &ExecutionBudget::unlimited(),
    )
    .expect("healthy run");
    let pages_needed = healthy_src.pages_read().max(2);
    let hot_pages: Vec<usize> = strict
        .results
        .iter()
        .map(|sc| stores[0].page_of(sc.cell.row, sc.cell.col))
        .collect();

    let retry2 = ResilienceConfig::new(RetryPolicy::retries(2), Some(4));
    let scenarios: Vec<(String, Vec<TileStore>, ExecutionBudget)> = vec![
        (
            "healthy, unlimited".to_owned(),
            healthy,
            ExecutionBudget::unlimited(),
        ),
        (
            "transient flakes (heal after 1), 2 retries".to_owned(),
            with_profile(
                (0..page_count).fold(FaultProfile::new(2), |p, pg| p.transient(pg, 1)),
                retry2,
            ),
            ExecutionBudget::unlimited(),
        ),
        (
            "hot pages lost, 2 retries + quarantine".to_owned(),
            with_profile(
                hot_pages
                    .iter()
                    .fold(FaultProfile::new(3), |p, pg| p.permanent(*pg)),
                retry2,
            ),
            ExecutionBudget::unlimited(),
        ),
        (
            format!(
                "healthy, page budget {} of {pages_needed}",
                pages_needed / 2
            ),
            with_profile(FaultProfile::new(4), ResilienceConfig::none()),
            ExecutionBudget::unlimited().with_max_page_reads(pages_needed / 2),
        ),
        (
            "slow pages (20 ticks), half-time deadline".to_owned(),
            with_profile(
                (0..page_count).fold(FaultProfile::new(5), |p, pg| p.latency(pg, 20)),
                ResilienceConfig::none(),
            ),
            // Healthy cost is 1 tick/access; with latency it is 21.
            ExecutionBudget::unlimited().with_deadline_ticks(pages_needed * 21 / 2),
        ),
    ];

    println!("| scenario | completeness | skipped pages | exact hits | degraded | budget stop | top-1 in bounds |");
    println!("|---|---|---|---|---|---|---|");
    for (label, faulty_stores, budget) in &scenarios {
        let src = TileSource::new(faulty_stores).expect("aligned");
        let r = resilient_top_k(model.model(), &pyramids, k, &src, budget).expect("never aborts");
        let exact = r.results.iter().filter(|h| h.exact).count();
        let covered = r.results.iter().any(|h| {
            h.bounds.lo <= strict.results[0].score && strict.results[0].score <= h.bounds.hi
        });
        println!(
            "| {label} | {:.3} | {} | {} | {} | {} | {} |",
            r.completeness,
            r.skipped_pages.len(),
            exact,
            r.results.len() - exact,
            r.budget_stop.map_or("-".to_owned(), |s| s.to_string()),
            if covered { "yes" } else { "no" },
        );
    }
    println!("\nEvery scenario returns {k} ranked entries with sound score bounds;");
    println!("degradation is reported, never silent, and no query aborts.");
}

/// A1 — ablation: which Onion design choices carry the speedup?
/// (hint support vs generic bounds; number of peeled layers).
fn a1_onion_ablation() {
    println!("\n## A1 — Ablation: Onion bound type and layer budget\n");
    let n = 200_000usize;
    let (points, dir) = onion_workload(17, n);
    let k = 10;
    let scan = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
    println!("| variant | layers built | tuples examined | speedup |");
    println!("|---|---|---|---|");
    for (label, hints, max_layers) in [
        ("generic bounds, 64 layers", false, 64usize),
        ("generic bounds, 8 layers", false, 8),
        ("hinted, 64 layers", true, 64),
        ("hinted, 8 layers", true, 8),
        ("hinted, 2 layers", true, 2),
    ] {
        let hint_vec = if hints { vec![dir.clone()] } else { vec![] };
        let index = OnionIndex::build_with_hints(points.clone(), &hint_vec, max_layers, 32, 7)
            .expect("valid workload");
        let r = index.top_k_max(&dir, k).expect("valid query");
        assert!(r.score_equivalent(&scan, 1e-9), "{label} must stay exact");
        println!(
            "| {label} | {} | {} | {:.0}x |",
            index.layer_count(),
            r.stats.tuples_examined,
            r.stats.speedup_vs(&scan.stats).unwrap_or(0.0)
        );
    }
    println!("\nEvery variant is exact; the ablation only moves the work.");
}

/// A2 — ablation: progressive-data speedup vs spatial coherence.
fn a2_coherence_ablation() {
    use mbir_archive::synth::GaussianField;
    use mbir_progressive::pyramid::AggregatePyramid;
    println!("\n## A2 — Ablation: pyramid engine speedup vs spatial coherence\n");
    println!("| field roughness | lag-1 autocorrelation | p_d speedup |");
    println!("|---|---|---|");
    for roughness in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
        let grids: Vec<_> = (0..3)
            .map(|i| {
                GaussianField::new(31 + i)
                    .with_roughness(roughness)
                    .generate(256, 256)
                    .normalized(0.0, 100.0)
            })
            .collect();
        // Lag-1 autocorrelation of the first field (coherence measure).
        let g = &grids[0];
        let m = g.mean();
        let mut num = 0.0;
        let mut den = 0.0;
        for r in 0..g.rows() {
            for c in 0..g.cols() {
                let d = g.at(r, c) - m;
                den += d * d;
                if c + 1 < g.cols() {
                    num += d * (g.at(r, c + 1) - m);
                }
            }
        }
        let autocorr = num / den;
        let pyramids: Vec<AggregatePyramid> = grids.iter().map(AggregatePyramid::build).collect();
        let model = LinearModel::new(vec![1.0, 0.6, 0.3], 0.0).expect("valid");
        let fast = pyramid_top_k(&model, &pyramids, 10).expect("valid inputs");
        println!(
            "| {roughness:.1} | {autocorr:.3} | {:.1}x |",
            fast.effort.speedup()
        );
    }
    println!("\nThe progressive-data mechanism is a bet on spatial coherence; uncorrelated data defeats it (speedup < 1 means bound evaluations outweighed the savings).");
}

/// E1 — Onion vs sequential scan on 3-attribute Gaussian data (§3.2).
fn e1_onion() {
    println!("\n## E1 — Onion index vs sequential scan (3-attr Gaussian, §3.2)\n");
    println!("| N | K | scan tuples | onion tuples | speedup (tuples) | scan ms | onion ms | speedup (time) | 1999-disk speedup |");
    println!("|---|---|---|---|---|---|---|---|---|");
    // Layers are stored contiguously (the Onion paper's layout), so pages
    // read = examined tuples / page capacity for both access paths.
    const TUPLES_PER_PAGE: u64 = 256;
    let io = mbir_archive::stats::IoModel::disk_1999();
    let sim = |tuples: u64| {
        let stats = mbir_archive::stats::AccessStats::new();
        stats.record_tuples(tuples);
        stats.record_pages(tuples.div_ceil(TUPLES_PER_PAGE));
        stats.simulated_ms(&io)
    };
    for n in [10_000usize, 100_000, 1_000_000] {
        let (points, dir) = onion_workload(1, n);
        let index =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&dir), 64, 32, 7)
                .expect("valid workload");
        let store = PointStore::from_rows(&points).expect("well-formed workload");
        for k in [1usize, 10, 100] {
            // The index is timed against the scan users run; the nested
            // scan stays as the oracle both must equal.
            let oracle = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            let t0 = Instant::now();
            let scan = scan_top_k_flat(&store, &dir, k);
            let scan_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(scan, oracle, "flat scan must equal the nested scan");
            let t0 = Instant::now();
            let onion = index.top_k_max(&dir, k).expect("valid query");
            let onion_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert!(onion.score_equivalent(&scan, 1e-9), "onion must be exact");
            println!(
                "| {} | {} | {} | {} | {:.0}x | {:.2} | {:.3} | {:.0}x | {:.0}x |",
                n,
                k,
                scan.stats.tuples_examined,
                onion.stats.tuples_examined,
                onion.stats.speedup_vs(&scan.stats).unwrap_or(0.0),
                scan_ms,
                onion_ms,
                scan_ms / onion_ms.max(1e-6),
                sim(scan.stats.tuples_examined) / sim(onion.stats.tuples_examined).max(1e-9)
            );
        }
    }
    println!("\nscan = `scan_top_k_flat` (asserted bit-equal to the nested-`Vec` scan at every N and K).");
    println!("paper claim: ~13,000x top-1 and ~1,400x top-10 (page accesses, their testbed).");
}

/// E2 — progressive classification speedup (§3.1 / ref 13, ~30x claimed).
fn e2_progressive_classification() {
    println!("\n## E2 — Progressive classification on pyramids (§3.1 / [13])\n");
    println!("| scene | full evals | progressive evals | speedup | exact? |");
    println!("|---|---|---|---|---|");
    for side in [128usize, 256, 512] {
        let (bands, pyramids, clf) = classification_world(2, side, side);
        let mut full_work = 0u64;
        let full = clf.classify_grid(&bands, &mut full_work);
        let (prog, prog_work) = clf.classify_progressive(&pyramids);
        println!(
            "| {side}x{side} | {full_work} | {prog_work} | {:.1}x | {} |",
            full_work as f64 / prog_work as f64,
            full == prog
        );
    }
    println!("\npaper claim: ~30x ([13], compressed-domain EOS classification).");
}

/// E3 — progressive texture matching (§3.1 / ref 12, 4–8x claimed).
///
/// Work is counted in *pixels processed by feature extraction*: the naive
/// path extracts fine features for every tile (`tiles x tile^2` pixels);
/// the progressive path extracts coarse features for every tile at the
/// reduced resolution (`tiles x (tile/s)^2` pixels) plus fine features for
/// the tiles that survive the screen. With a 2x reduction the speedup is
/// bounded by 4x, with 4x by 16x — the paper's 4–8x band.
fn e3_progressive_texture() {
    println!("\n## E3 — Progressive texture matching (§3.1 / [12])\n");
    println!("| scene | reduction | naive pixels | progressive pixels | speedup | hit found |");
    println!("|---|---|---|---|---|---|");
    for side in [512usize, 1024] {
        let tile = 32;
        let (fine, coarse2, tile) = texture_world(3, side, tile);
        // A further 2x reduction for the 4x screen.
        let coarse4 = Grid2::from_fn(side / 4, side / 4, |r, c| {
            (coarse2.at(2 * r, 2 * c)
                + coarse2.at(2 * r + 1, 2 * c)
                + coarse2.at(2 * r, 2 * c + 1)
                + coarse2.at(2 * r + 1, 2 * c + 1))
                / 4.0
        });
        let tiles = (side / tile) * (side / tile);
        let planted = (side / tile - 2, side / tile - 1);
        let query_window = fine
            .window(
                mbir_archive::extent::CellCoord::new(planted.0 * tile, planted.1 * tile),
                tile,
                tile,
            )
            .expect("planted tile in range");
        let query_fine = TileFeatures::of(&query_window);
        for (scale, coarse) in [(2usize, &coarse2), (4usize, &coarse4)] {
            let ct = tile / scale;
            let query_coarse_window = coarse
                .window(
                    mbir_archive::extent::CellCoord::new(planted.0 * ct, planted.1 * ct),
                    ct,
                    ct,
                )
                .expect("planted tile in range");
            let query_coarse = TileFeatures::of(&query_coarse_window);
            let naive_pixels = tile_features(&fine, tile).len() * tile * tile;
            let (hits, fine_work) =
                progressive_texture_match(&fine, coarse, &query_coarse, &query_fine, tile, 1, 2.0);
            let progressive_pixels = tiles * ct * ct + fine_work * tile * tile;
            println!(
                "| {side}x{side} | {scale}x | {naive_pixels} | {progressive_pixels} | {:.1}x | {} |",
                naive_pixels as f64 / progressive_pixels as f64,
                hits.first() == Some(&planted)
            );
        }
    }
    println!("\npaper claim: 4–8x ([12], progressive texture matching on EOS imagery).");
}

/// E4 — SPROC complexity (§3.2: `O(L^M)` -> `O(MKL^2)` -> sorted lists).
fn e4_sproc() {
    println!("\n## E4 — SPROC fuzzy Cartesian queries (§3.2 / [15][16])\n");
    println!("| L | M | K | brute comparisons | DP comparisons | fast comparisons | DP==brute | fast==brute |");
    println!("|---|---|---|---|---|---|---|---|");
    for (l, m, k) in [
        (8usize, 3usize, 5usize),
        (16, 3, 5),
        (32, 3, 5),
        (16, 4, 5),
        (64, 3, 10),
    ] {
        let index = SprocIndex::new(sproc_workload(4, m, l)).expect("valid workload");
        let brute = index
            .brute_force(k, None, 100_000_000)
            .expect("within limit");
        let dp = index.top_k_dp(k, None).expect("valid query");
        let fast = index.top_k_independent(k).expect("valid query");
        println!(
            "| {l} | {m} | {k} | {} | {} | {} | {} | {} |",
            brute.stats.comparisons,
            dp.stats.comparisons,
            fast.stats.comparisons,
            dp.score_equivalent(&brute, 1e-9),
            fast.score_equivalent(&brute, 1e-9)
        );
    }
    // Larger instances where brute force is infeasible: DP vs fast only.
    println!("\n| L | M | K | DP comparisons | fast comparisons | fast speedup | agree |");
    println!("|---|---|---|---|---|---|---|");
    for (l, m, k) in [(500usize, 3usize, 10usize), (1000, 4, 10), (2000, 3, 25)] {
        let index = SprocIndex::new(sproc_workload(9, m, l)).expect("valid workload");
        let dp = index.top_k_dp(k, None).expect("valid query");
        let fast = index.top_k_independent(k).expect("valid query");
        println!(
            "| {l} | {m} | {k} | {} | {} | {:.0}x | {} |",
            dp.stats.comparisons,
            fast.stats.comparisons,
            dp.stats.comparisons as f64 / fast.stats.comparisons as f64,
            fast.score_equivalent(&dp, 1e-9)
        );
    }
}

/// E5 — §4.1 accuracy: cost sweep + precision/recall of top-K retrieval.
fn e5_accuracy() {
    println!("\n## E5 — Model accuracy (§4.1)\n");
    let (pyramids, model, _) = hps_world(5, 128, 128);
    let risk = Grid2::from_fn(128, 128, |r, c| {
        let x: Vec<f64> = pyramids
            .iter()
            .map(|p| p.cell(0, r, c).expect("in-bounds").mean)
            .collect();
        model.model().evaluate(&x)
    });
    let normalized = risk.normalized(0.0, 1.0);
    let occurrences = OccurrenceSampler::new(6)
        .with_base_rate(2.0)
        .sample(&normalized.map(|&v| if v > 0.8 { v } else { 0.0 }));

    println!("### cost sweep (c_m = 10, c_f = 1)\n");
    println!("| threshold | misses | false alarms | miss rate | FA rate | C_T |");
    println!("|---|---|---|---|---|---|");
    let (lo, hi) = risk.min_max().expect("non-empty");
    let thresholds: Vec<f64> = (0..=8).map(|i| lo + (hi - lo) * i as f64 / 8.0).collect();
    for (t, r) in
        threshold_sweep(&risk, &occurrences, None, 10.0, 1.0, &thresholds).expect("aligned grids")
    {
        println!(
            "| {:.1} | {} | {} | {:.3} | {:.3} | {:.0} |",
            t, r.misses, r.false_alarms, r.miss_rate, r.false_alarm_rate, r.total_cost
        );
    }

    println!("\n### precision / recall of top-K retrieval\n");
    println!("| K | precision | recall |");
    println!("|---|---|---|");
    for k in [10usize, 50, 100, 250, 500, 1000] {
        let pr = precision_recall_at_k(&risk, &occurrences, k).expect("aligned grids");
        println!("| {k} | {:.3} | {:.3} |", pr.precision, pr.recall);
    }
}

/// E6 — §4.2 efficiency: p_m, p_d and their composition.
fn e6_combined_speedup() {
    println!("\n## E6 — Progressive model x progressive data (§4.2)\n");
    println!("| world | arity | naive mul-adds | model-only (p_m) | data-only (p_d) | combined | combined speedup |");
    println!("|---|---|---|---|---|---|---|");
    for (rows, arity) in [(256usize, 4usize), (256, 8), (256, 16)] {
        let (pyramids, model, progressive) = wide_model_world(11, rows, rows, arity);
        let k = 10;
        let naive = naive_grid_top_k(&model, &pyramids, k).expect("valid inputs");
        // Model-only: staged scan over the flattened pixels.
        let tuples: Vec<Vec<f64>> = (0..rows * rows)
            .map(|i| {
                pyramids
                    .iter()
                    .map(|p| p.cell(0, i / rows, i % rows).expect("in-bounds").mean)
                    .collect()
            })
            .collect();
        let model_only = staged_top_k(&progressive, &tuples, k).expect("valid inputs");
        let data_only = pyramid_top_k(&model, &pyramids, k).expect("valid inputs");
        let both = combined_top_k(&progressive, &pyramids, k).expect("valid inputs");
        // All exact.
        for (a, b) in both.results.iter().zip(&naive.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        println!(
            "| {rows}x{rows} | {arity} | {} | {} ({:.1}x) | {} ({:.1}x) | {} | {:.1}x |",
            naive.effort.naive_multiply_adds,
            model_only.effort.multiply_adds,
            model_only.effort.speedup(),
            data_only.effort.multiply_adds,
            data_only.effort.speedup(),
            both.effort.multiply_adds,
            both.effort.speedup()
        );
    }
    println!("\npaper: total complexity O(nN) -> O(nN/(p_m p_d)).");
}

/// E7 — R*-tree is sub-optimal for model queries (§3.2).
fn e7_rstar_baseline() {
    println!("\n## E7 — Spatial index (R*-tree) vs model-specific index (§3.2)\n");
    println!("| N | K | scan tuples | rstar tuples | onion (hinted) tuples |");
    println!("|---|---|---|---|---|");
    for n in [10_000usize, 50_000] {
        let (points, dir) = onion_workload(13, n);
        let rstar = RStarTree::bulk(points.clone()).expect("valid points");
        let onion =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(&dir), 64, 32, 7)
                .expect("valid points");
        for k in [1usize, 10] {
            let scan = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            let r = rstar.top_k_max(&dir, k).expect("valid query");
            let o = onion.top_k_max(&dir, k).expect("valid query");
            assert!(r.score_equivalent(&scan, 1e-9));
            assert!(o.score_equivalent(&scan, 1e-9));
            println!(
                "| {n} | {k} | {} | {} | {} |",
                scan.stats.tuples_examined, r.stats.tuples_examined, o.stats.tuples_examined
            );
        }
    }
}

/// F1 — the fire-ants FSM over a climate grid + progressive screening.
fn f1_fire_ants() {
    println!("\n## F1 — Fire-ants finite-state model (Fig. 1)\n");
    let regions: Vec<_> = (0..400u64)
        .map(|seed| {
            let mean_temp = 5.0 + (seed % 20) as f64;
            WeatherGenerator::new(seed)
                .with_temperature(mean_temp, 8.0, 2.0)
                .generate(0, 365)
        })
        .collect();
    let (all_events, stats) = screened_fly_detection(&regions, 30).expect("valid block size");
    let firing = all_events.iter().filter(|e| !e.is_empty()).count();
    let events: usize = all_events.iter().map(Vec::len).sum();
    println!("| regions | screened out by coarse summary | FSM runs | firing regions | events |");
    println!("|---|---|---|---|---|");
    println!(
        "| {} | {} | {} | {firing} | {events} |",
        stats.regions,
        stats.screened_out,
        stats.regions - stats.screened_out
    );
    println!(
        "\ndaily readings avoided by screening: {} of {} ({:.1}x data-touched speedup)",
        stats.readings_total - stats.readings_processed,
        stats.readings_total,
        stats.speedup()
    );
}

/// F3 — the HPS high-risk-house Bayesian network (Figs. 2–3).
fn f3_hps_network() {
    println!("\n## F3 — High-risk-house Bayesian network (Fig. 3)\n");
    let (net, nodes) = hps_network();
    println!("| house | bushes | wet season | dry season | P(high risk) |");
    println!("|---|---|---|---|---|");
    for mask in 0..16u32 {
        let b = |bit: u32| mask & (1 << bit) != 0;
        let p =
            risk_given_observations(&net, &nodes, b(3), b(2), b(1), b(0)).expect("valid evidence");
        println!("| {} | {} | {} | {} | {:.4} |", b(3), b(2), b(1), b(0), p);
    }
}

/// F4 — the geology riverbed knowledge model (Fig. 4).
fn f4_geology() {
    println!("\n## F4 — Riverbed knowledge model (Fig. 4)\n");
    let n_wells = 100usize;
    let model = RiverbedModel::paper();
    let wells: Vec<WellLog> = (0..n_wells)
        .map(|i| {
            if i % 5 == 0 {
                WellLog::synthetic_with_riverbed(i as u64, 600.0)
            } else {
                WellLog::synthetic(i as u64, 600.0)
            }
        })
        .collect();
    let mut ranked: Vec<(usize, f64)> = wells
        .iter()
        .enumerate()
        .map(|(i, w)| (i, model.well_score(w)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let planted = |i: usize| i.is_multiple_of(5);
    println!("| K | planted wells in top-K | precision |");
    println!("|---|---|---|");
    for k in [5usize, 10, 20] {
        let hits = ranked[..k].iter().filter(|(i, _)| planted(*i)).count();
        println!("| {k} | {hits} | {:.2} |", hits as f64 / k as f64);
    }
    println!(
        "\n(20 of {n_wells} wells carry the planted shale/sandstone/siltstone + gamma>45 \
         signature; random stratigraphy can legitimately contain the same sequence.)"
    );
}

/// F5 — the Fig. 5 workflow loop.
fn f5_workflow() {
    println!("\n## F5 — Hypothesize -> calibrate -> retrieve -> revise (Fig. 5)\n");
    let (pyramids, _, _) = hps_world(21, 96, 96);
    // Planted truth over the four attributes: risk is vegetation-driven
    // (bands in 0..255), elevation (0..2500 m) nearly irrelevant — note the
    // coefficient scales so each term's *contribution* reflects that.
    let truth = LinearModel::new(vec![0.5, 0.25, 0.15, 0.001], 0.0).expect("valid");
    let risk = Grid2::from_fn(96, 96, |r, c| {
        let x: Vec<f64> = pyramids
            .iter()
            .map(|p| p.cell(0, r, c).expect("in-bounds").mean)
            .collect();
        truth.evaluate(&x)
    })
    .normalized(0.0, 1.0);
    let occurrences = OccurrenceSampler::new(22)
        .with_base_rate(3.0)
        .sample(&risk.map(|&v| if v > 0.7 { v } else { 0.0 }));
    // A genuinely wrong hypothesis: bets on elevation (an attribute that is
    // independent of the bands) while the truth is vegetation-driven.
    let hypothesis = LinearModel::new(vec![0.0, 0.0, 0.0, 1.0], 0.0).expect("valid");
    let run = run_workflow(
        &pyramids,
        &occurrences,
        hypothesis,
        WorkflowConfig {
            k: 40,
            iterations: 8,
            seed: 4,
            exploration: 150,
        },
    )
    .expect("valid workflow");
    println!("| iteration | precision | recall | labelled cells |");
    println!("|---|---|---|---|");
    for rec in &run.iterations {
        println!(
            "| {} | {:.3} | {:.3} | {} |",
            rec.iteration, rec.precision, rec.recall, rec.labelled
        );
    }
    println!("\nfinal model: {}", run.final_model);
}

/// R10 — crash-consistent appends: the journal writer is killed at every
/// byte offset (plus torn-write and partial-record cuts inside every
/// frame) and each recovery must be bit-identical to a freshly built
/// archive of the committed prefix; live appends then run under
/// concurrent queries with snapshot answers gated bit-identical at
/// threads ∈ {1, 2, 4, 8} and shards ∈ {1, 4}, and one band is timed onto
/// 1x / 4x / 16x the base rows (append cost must follow the band, not the
/// archive). Writes `BENCH_append.json`.
fn r10_append(seed: u64, small: bool) {
    use mbir_archive::fault::WriteFault;
    use mbir_archive::journal::FRAME_HEADER_LEN;
    use mbir_archive::shard::ShardPlan;
    use mbir_core::continuous::ContinuousQueryDriver;
    use mbir_core::snapshot::{EpochSnapshot, LiveArchive};
    use mbir_models::fsm::fire_ants::{fire_ants_fsm, DayClass};

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

    let sweep_start = Instant::now();
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
    let sweep_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "\n{recoveries} recoveries verified in {sweep_ms:.0} ms \
         ({dropped_partial_total} torn commit groups dropped whole).\n"
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
    let mut append_ms = 0.0f64;
    println!("| epoch | rows | threads 1/2/4/8 | shards 1/4 | wrong answers |");
    println!("|---|---|---|---|---|");
    for commit in 0..q_commits {
        let offset = q_base + commit * band_h;
        let t0 = Instant::now();
        live.append(&band_at(attrs, offset, band_h, q_cols))
            .expect("live append");
        append_ms += t0.elapsed().as_secs_f64() * 1e3;
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
            let band_sources: Vec<TileSource<'_>> = band_stores
                .iter()
                .map(|s| TileSource::new(s).expect("band stores"))
                .collect();
            let handles: Vec<ArchiveShard<'_, TileSource<'_>>> = band_pyramids
                .iter()
                .zip(&band_sources)
                .zip(plan.bands())
                .map(|((p, s), b)| ArchiveShard::new(p, s, b.row_offset))
                .collect();
            let archive = ShardedArchive::new(handles).expect("contiguous bands");
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
         for its own {q_base} rows after {q_commits} commits. Mean append+publish latency: \
         {:.2} ms.\n",
        append_ms / q_commits as f64
    );

    // --- Append cost against archive height: the same band onto 1x / 4x /
    // 16x the base rows. Consecutive epochs share every unchanged byte, so
    // the cost follows the band, not the archive.
    let (c_cols, c_tile, c_base, c_band) = if small {
        (64usize, 8usize, 64usize, 16usize)
    } else {
        (256, 32, 256, 32)
    };
    let cost_rows: Vec<usize> = [1usize, 4, 16].iter().map(|m| c_base * m).collect();
    let cost_ms: Vec<f64> = cost_rows
        .iter()
        .map(|&rows| {
            let mut grown =
                LiveArchive::new(grids_to(attrs, rows, c_cols), c_tile).expect("valid base");
            let mut ms: Vec<f64> = (0..9)
                .map(|_| {
                    let bands = band_at(attrs, grown.rows(), c_band, c_cols);
                    let t0 = Instant::now();
                    grown.append(&bands).expect("live append");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ms.sort_by(f64::total_cmp);
            ms[ms.len() / 2]
        })
        .collect();
    println!("| base rows | median append+publish ms ({c_band}-row band, {c_cols} cols) |");
    println!("|---|---|");
    for (rows, ms) in cost_rows.iter().zip(&cost_ms) {
        println!("| {rows} | {ms:.3} |");
    }
    println!();

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
         {} epochs recovered) — identical to batch detection.\n",
        alerts.len(),
        committed_days,
        w_report.applied
    );

    // Machine-readable output (hand-rolled JSON; std only).
    let json = format!(
        "{{\n  \"experiment\": \"r10_append\",\n  \"seed\": {seed},\n  \"small\": {small},\n  \
         \"crash_sweep\": {{\"journal_bytes\": {total}, \"commits\": {commits}, \
         \"crash_offsets\": {crash_offsets}, \"torn_writes\": {torn_cuts}, \
         \"partial_records\": {partial_cuts}, \"recoveries\": {recoveries}, \
         \"dropped_partial_records\": {dropped_partial_total}, \
         \"bit_identical\": true, \"sweep_ms\": {sweep_ms:.1}}},\n  \
         \"snapshot_identity\": {{\"epochs\": {q_commits}, \"rows_final\": {}, \
         \"threads\": [1, 2, 4, 8], \"shards\": [1, 4], \"queries\": {queries}, \
         \"wrong_answers\": 0, \"stale_snapshot_frozen\": true, \
         \"mean_append_ms\": {:.3}}},\n  \
         \"append_cost\": {{\"cols\": {c_cols}, \"band_rows\": {c_band}, \
         \"base_rows\": {cost_rows:?}, \"median_append_ms\": [{}]}},\n  \
         \"cache\": {{\"pages_warmed\": {warmed}, \"frontier_page\": {frontier}, \
         \"invalidated\": {invalidated}, \"appended_pages_seen\": {}, \
         \"prefix_stays_cached\": true}},\n  \
         \"continuous\": {{\"committed_days\": {committed_days}, \"alerts\": {}, \
         \"recovered_epochs\": {}, \"schedule_independent\": true}}\n}}\n",
        live.rows(),
        append_ms / q_commits as f64,
        cost_ms
            .iter()
            .map(|ms| format!("{ms:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        stats.appended_pages_seen(),
        alerts.len(),
        w_report.applied,
    );
    match std::fs::write("BENCH_append.json", &json) {
        Ok(()) => println!("wrote BENCH_append.json"),
        Err(e) => eprintln!("could not write BENCH_append.json: {e}"),
    }
}
