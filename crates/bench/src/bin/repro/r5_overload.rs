//! R5 — overload harness: a mixed-priority query storm over a 2-way
//! replicated HPS archive, driven through the admission controller on the
//! simulated tick clock. Replica 0 drags every page so hedged reads fire
//! and the fast replica wins the race; queued BestEffort work is shed
//! with a typed `Overloaded` error once the backlog policy trips; some
//! clients hang up while queued and some mid-query (cooperative
//! cancellation). Asserts the zero-wrong-answers gate — every query that
//! completes is bit-identical to the unloaded answer, re-verified with
//! the parallel engine at 1/2/4/8 threads — and that hedging never
//! double-counts replica health. Writes `BENCH_overload.json`.

use crate::harness::{faulted, page_mix, slow, write_artifact, Args};
use mbir_archive::tile::TileStore;
use mbir_bench::replicated_world;
use mbir_core::engine::pyramid_top_k;
use mbir_core::lifecycle::{
    AdmissionController, AdmissionPolicy, CancelToken, ClassCounters, LifecycleState, Priority,
    SessionId,
};
use mbir_core::metrics::degradation_summary;
use mbir_core::parallel::{par_resilient_top_k, WorkerPool};
use mbir_core::replica::{ReplicaConfig, ReplicatedSource};
use mbir_core::resilient::{resilient_top_k, BudgetStop, ExecOptions, ExecutionBudget};
use mbir_core::source::CellSource;

pub fn run(args: &Args) {
    let (seed, load) = (args.seed, args.load);
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

    let prio_of = |i: usize| match page_mix(seed, i, 10) % 3 {
        0 => Priority::Interactive,
        1 => Priority::Batch,
        _ => Priority::BestEffort,
    };
    let k_of = |i: usize| 1 + (page_mix(seed, i, 11) as usize) % max_k;

    // Replica 0 drags every page (latency 3 -> 4 ticks per load), replica
    // 1 is fast (1 tick). With a 2-tick hedge delay every cold primary
    // load hedges and the backup's 3-tick finish beats the primary's 4.
    let drag = slow(page_count, 3);
    let dragged_groups = || -> Vec<Vec<TileStore>> {
        groups
            .iter()
            .enumerate()
            .map(|(gi, (stores, _))| faulted(stores, (gi == 0).then_some(&drag)))
            .collect()
    };
    let storm_groups = dragged_groups();
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
                && page_mix(seed, i, 12) % 8 == 5
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
            let r = match page_mix(seed, i, 13) % 8 {
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
                        after: src.pages_read() + 1 + page_mix(seed, i, 14) % 4,
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
            let fresh_groups = dragged_groups();
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
    write_artifact(
        "BENCH_overload.json",
        "r5_overload",
        args,
        &format!(
            "\"load\": {load},\n  \"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"tile\": \
             {tile}, \"replicas\": {n_replicas}, \"pages\": {page_count}}},\n  \"policy\": \
             {{\"max_in_flight\": {}, \"max_queue_depth\": {}, \"max_queued_ticks\": {}, \
             \"expected_ticks_per_query\": {}}},\n  \"queries\": {n_queries},\n  \
             \"zero_wrong_answers\": true,\n  \"thread_invariant\": {thread_invariant},\n  \
             \"hedged_reads\": {hedged_reads},\n  \"per_priority\": {{\n    \"interactive\": \
             {},\n    \"batch\": {},\n    \"best_effort\": {}\n  }}",
            ctl.policy().max_in_flight,
            ctl.policy().max_queue_depth,
            ctl.policy().max_queued_ticks,
            ctl.policy().expected_ticks_per_query,
            class_json(Priority::Interactive),
            class_json(Priority::Batch),
            class_json(Priority::BestEffort),
        ),
    );
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
