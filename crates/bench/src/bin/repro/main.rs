//! Regenerates every experiment table of the paper reproduction.
//!
//! Usage: `repro [e1|…|a2|r1|r4|…|r10|all] [--seed N] [--threads N]
//! [--load L] [--shards S] [--kill-shards F] [--small]` (default: all).
//! Output is Markdown, pasted into EXPERIMENTS.md. A mistyped flag or
//! experiment prints the usage line on stderr and exits 2.
//!
//! [`paper`] holds the paper's own tables (E1–E7, F1–F5, A1–A2). Each R
//! experiment is a harness over one layer of the execution core that
//! asserts its correctness gates and writes one `BENCH_*.json` through
//! [`harness::write_artifact`]:
//!
//! - r1: retrieval under fault injection (table only, no artifact);
//! - r4: replicated integrity under composed fault cocktails, with the
//!   < 2 % checksum-overhead gate (`BENCH_chaos.json`);
//! - r5: a mixed-priority query storm through admission control with
//!   hedged reads; completed answers are the unloaded ones
//!   (`BENCH_overload.json`);
//! - r6: sharded scatter-gather; healthy bit-identity, shard-kill chaos,
//!   typed quorum errors and straggler hedging (`BENCH_shard.json`);
//! - r7: the pruned scan sweep and the unhinted Onion query, gated at
//!   <= 3 % of the tuples and >= 5x over the flat scan
//!   (`BENCH_kernels.json`);
//! - r8: one batched scatter-gather against Q solo runs, per-query
//!   bit-identity and page/throughput gates at full scale
//!   (`BENCH_batch.json`);
//! - r9: live resharding under chaos in every migration state, with
//!   typed epoch fencing and a rollback (`BENCH_reshard.json`);
//! - r10: crash recovery at every journal byte, snapshot identity under
//!   live appends, frontier-only cache invalidation and a standing query
//!   across a crash (`BENCH_append.json`).

mod harness;
mod paper;
mod r10_append;
mod r1_resilience;
mod r4_chaos;
mod r5_overload;
mod r6_shard;
mod r7_quant;
mod r8_batch;
mod r9_reshard;

use harness::Args;

/// An experiment's name and entry point.
type Experiment = (&'static str, fn(&Args));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", |_| paper::e1_onion()),
    ("e2", |_| paper::e2_progressive_classification()),
    ("e3", |_| paper::e3_progressive_texture()),
    ("e4", |_| paper::e4_sproc()),
    ("e5", |_| paper::e5_accuracy()),
    ("e6", |_| paper::e6_combined_speedup()),
    ("e7", |_| paper::e7_rstar_baseline()),
    ("f1", |_| paper::f1_fire_ants()),
    ("f3", |_| paper::f3_hps_network()),
    ("f4", |_| paper::f4_geology()),
    ("f5", |_| paper::f5_workflow()),
    ("a1", |_| paper::a1_onion_ablation()),
    ("a2", |_| paper::a2_coherence_ablation()),
    ("r1", |_| r1_resilience::run()),
    ("r4", r4_chaos::run),
    ("r5", r5_overload::run),
    ("r6", r6_shard::run),
    ("r7", r7_quant::run),
    ("r8", r8_batch::run),
    ("r9", r9_reshard::run),
    ("r10", r10_append::run),
];

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = harness::parse(&argv, &names).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", harness::usage(&names));
        std::process::exit(2);
    });
    for (name, run) in EXPERIMENTS {
        if args.experiment == "all" || args.experiment == *name {
            run(&args);
        }
    }
}
