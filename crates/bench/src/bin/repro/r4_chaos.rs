//! R4 — chaos harness: a 3-way replicated, checksummed HPS archive under
//! composed fault cocktails (silent corruption + transient flakes +
//! latency + a full replica kill) with a fixed seed. Asserts the gates:
//! healthy replicated runs are bit-identical to the direct path with <2%
//! end-to-end checksum overhead; masked chaos leaves the top-K unchanged;
//! unmasked chaos degrades with bounds that still contain the true score;
//! an expired wall deadline degrades identically at every thread count.
//! Writes `BENCH_chaos.json`.

use crate::harness::{covers, dead, faulted, in_own_bounds, page_mix, write_artifact, Args};
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::tile::TileStore;
use mbir_bench::replicated_world;
use mbir_core::engine::pyramid_top_k;
use mbir_core::metrics::degradation_summary;
use mbir_core::parallel::{par_resilient_top_k, WorkerPool};
use mbir_core::replica::{ReplicaConfig, ReplicatedSource};
use mbir_core::resilient::{resilient_top_k, BudgetStop, ExecutionBudget, ResilientTopK};
use mbir_core::source::TileSource;
use std::time::Instant;

pub fn run(args: &Args) {
    let seed = args.seed;
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
    let retry2 = ResilienceConfig::new(RetryPolicy::retries(2), None);
    let fresh = |profiles: &[Option<&FaultProfile>]| -> Vec<Vec<TileStore>> {
        groups
            .iter()
            .zip(profiles)
            .map(|((stores, _), prof)| match prof {
                Some(p) => faulted(stores, Some(p))
                    .into_iter()
                    .map(|s| s.with_resilience(retry2))
                    .collect(),
                None => stores.clone(),
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
    let kill_all = dead(page_count);
    let corrupt_some = (0..page_count).fold(FaultProfile::new(), |p, pg| {
        match page_mix(seed, pg, 1) % 4 {
            0 => p.corrupt(pg),
            1 => p.latency(pg, 3),
            _ => p,
        }
    });
    let flaky_all = (0..page_count).fold(FaultProfile::new(), |p, pg| {
        let p = p.transient(pg, 1);
        if page_mix(seed, pg, 2).is_multiple_of(4) {
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
    let p0 = (0..page_count).fold(FaultProfile::new(), |p, pg| p.transient(pg, 1));
    let unmasked_groups = fresh(&[
        Some(&p0.corrupt(winner_page)),
        Some(&FaultProfile::new().permanent(winner_page)),
        Some(&FaultProfile::new().corrupt(winner_page)),
    ]);
    let unmasked_src = source_of(&unmasked_groups, page_count, true);
    let unmasked = resilient_top_k(model.model(), &pyramids, k, &unmasked_src, &budget)
        .expect("unmasked chaos run");
    assert!(unmasked.completeness < 1.0, "winner page is unservable");
    assert!(unmasked.skipped_pages.contains(&winner_page));
    let covered = |r: &ResilientTopK| covers(&r.results, truth);
    assert!(
        covered(&unmasked),
        "degraded bounds must contain the true winner score"
    );
    assert!(in_own_bounds(&unmasked.results));

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

    let scenario_json = |r: &ResilientTopK, cov: bool| -> String {
        let s = degradation_summary(r);
        format!(
            "{{\"completeness\":{:.6},\"skipped_pages\":{},\"inexact_hits\":{},\
             \"widest_bound\":{:.6},\"budget_stopped\":{},\"top1_in_bounds\":{}}}",
            s.completeness, s.skipped_pages, s.inexact_hits, s.widest_bound, s.budget_stopped, cov
        )
    };
    write_artifact(
        "BENCH_chaos.json",
        "r4_chaos",
        args,
        &format!(
            "\"world\": {{\"rows\": {rows}, \"cols\": {cols}, \"tile\": {tile}, \"replicas\": \
             {n_replicas}, \"pages\": {page_count}}},\n  \"bit_identical_healthy\": true,\n  \
             \"checksum_overhead\": {{\"verify_off_ns\": {verify_off_ns}, \"verify_on_ns\": \
             {verify_on_ns}, \"overhead_frac\": {overhead:.6}, \"gate\": 0.02}},\n  \
             \"scenarios\": {{\n    \"masked_chaos\": {},\n    \"unmasked_chaos\": {},\n    \
             \"deadline_zero\": {}\n  }},\n  \"deadline_thread_invariant\": {thread_invariant}",
            scenario_json(&masked, covered(&masked)),
            scenario_json(&unmasked, covered(&unmasked)),
            scenario_json(&deadline_seq, covered(&deadline_seq)),
        ),
    );
}
