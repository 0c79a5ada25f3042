//! `mbir-e2e` — the repo's single end-to-end benchmark.
//!
//! ```text
//! mbir-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one process
//! mbir-e2e [--seed N] [--seconds S] [--trace]                         all four, one child process each
//! mbir-e2e --selfcheck                                                two interleaved sets of runs, A B B A
//! ```
//!
//! The last line of a one-workload run is the result object the driver
//! reads; everything above it is for people. See `README.md` beside
//! `Cargo.toml` for the workloads, the metric map and the measurement
//! rules.

mod append_mix;
mod grid_hot;
mod harness;
mod metrics;
mod shard_batch;
mod trace;
mod tuple_topk;
mod worlds;

use harness::{median, RoundRecord, Rounds, ROUNDS, TRACED_RUN_ROUNDS};
use metrics::{parse_result_line, Report, END_TO_END};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

pub const WORKLOADS: [&str; 4] = [
    grid_hot::NAME,
    shard_batch::NAME,
    tuple_topk::NAME,
    append_mix::NAME,
];

pub struct Config {
    pub seed: u64,
    /// `--seconds`: sizes every round's op list (see [`harness::passes`]).
    pub seconds: f64,
    pub traced: bool,
    /// Where `trace-<workload>.json` goes, relative to the checkout root.
    pub out_dir: PathBuf,
}

impl Config {
    /// Measured (untraced) rounds of this run.
    pub fn rounds(&self) -> usize {
        if self.traced {
            TRACED_RUN_ROUNDS
        } else {
            ROUNDS
        }
    }
}

/// The end-to-end metrics every workload reports, from its rounds and its
/// set-up builds.
pub fn report_for(workload: &'static str, rounds: &Rounds, builds_s: &[f64]) -> Report {
    let mut report = Report {
        workload,
        attempted: rounds.attempted(),
        failed: rounds.failed(),
        checks_passed: rounds.counters_repeat,
        values: BTreeMap::new(),
    };
    if !rounds.counters_repeat {
        println!("CHECK FAILED: {workload} work counters differ between rounds");
    }
    // Every timing is a median over the measured rounds: of the round's
    // throughput, and of each operation's latency.
    let first = &rounds.measured[0];
    report.set(
        "queries_per_s",
        rounds.median_of(RoundRecord::queries_per_s),
    );
    report.set("query_p50_ms", rounds.op_percentile_ms(0.50));
    report.set("query_p95_ms", rounds.op_percentile_ms(0.95));
    report.set(
        "madds_per_query",
        first.counter("madds") as f64 / first.queries as f64,
    );
    report.set("setup_s", median(builds_s));
    report.set("peak_rss_mb", harness::peak_rss_mb());
    report
}

pub fn print_rounds(workload: &str, rounds: &Rounds) {
    harness::print_round_table(workload, rounds);
    let counters: Vec<String> = rounds.measured[0]
        .counters
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!("work counters per round: {}", counters.join(", "));
}

pub fn fill_setup_layers(report: &mut Report, gen_s: f64, oracle_s: f64, builds_s: &[f64]) {
    report.set("setup.gen_s", gen_s);
    report.set("setup.oracle_s", oracle_s);
    report.set("setup.first_build_s", builds_s[0]);
    println!(
        "\n{} set-up builds; first {:.4} s, min {:.4} s, median {:.4} s",
        builds_s.len(),
        builds_s[0],
        harness::minimum(builds_s),
        median(builds_s)
    );
}

/// Folds the traced round into the report: per-layer self-time shares,
/// cell reads, tracing overhead against the untraced rounds, and the
/// span file.
pub fn fill_trace(
    report: &mut Report,
    cfg: &Config,
    rounds: &Rounds,
    traced: &RoundRecord,
    tracer: trace::Tracer,
) {
    let spans = tracer.into_spans();
    let sum = trace::breakdown(&spans);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    report.set("trace.engine_share", sum.share(sum.engine));
    report.set("trace.source_share", sum.share(sum.source));
    report.set("trace.source_miss_share", sum.share(sum.source_miss));
    report.set("trace.index_share", sum.share(sum.index));
    report.set("trace.journal_share", sum.share(sum.journal));
    report.set("trace.build_share", sum.share(sum.build));
    report.set(
        "source.cell_reads_per_query",
        sum.cell_reads as f64 / traced.queries as f64,
    );
    let untraced_wall = rounds.median_of(|r| r.wall_s);
    report.set(
        "trace.overhead_pct",
        (traced.wall_s / untraced_wall - 1.0) * 100.0,
    );
    println!(
        "\ntraced round: {} spans over {} operations, wall {:.3} s against {:.3} s untraced; \
         layer shares sum to {:.4} of the operation spans",
        spans.len(),
        sum.ops,
        traced.wall_s,
        untraced_wall,
        sum.shares_sum()
    );
    if (sum.shares_sum() - 1.0).abs() > 0.02 {
        println!("CHECK FAILED: layer shares do not sum to the operation spans");
        report.checks_passed = false;
    }
    let path = cfg.out_dir.join(format!("trace-{}.json", report.workload));
    match trace::write_file(&path, report.workload, cfg.seed, &spans, &sum) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("CHECK FAILED: could not write {}: {e}", path.display());
            report.checks_passed = false;
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 13,
        seconds: 14.0,
        traced: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--selfcheck" => args.selfcheck = true,
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => match it.next_if(|v| v == "0" || v == "1") {
                Some(v) => args.traced = v == "1",
                None => args.traced = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; known: {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be above 0 and at most 60".into());
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        out_dir: PathBuf::from("crates/e2e/out"),
    };
    println!(
        "## mbir-e2e {name}: seed {}, rounds sized for {} s, {}, host_cpus {}",
        cfg.seed,
        cfg.seconds,
        if cfg.traced {
            format!("traced run ({TRACED_RUN_ROUNDS} untraced rounds, then one traced)")
        } else {
            format!("{ROUNDS} measured rounds")
        },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match name {
        grid_hot::NAME => grid_hot::run(&cfg),
        shard_batch::NAME => shard_batch::run(&cfg),
        tuple_topk::NAME => tuple_topk::run(&cfg),
        _ => append_mix::run(&cfg),
    };
    report.print_table(cfg.traced);
    println!("{}", report.result_line(cfg.traced));
    exit_code(report.correct())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in a process of its own (so `peak_rss_mb` is its own and
/// page-fault history does not leak between workloads). Returns its
/// standard output once it has ended.
fn spawn_workload(name: &str, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!("{name} exited with {}:\n{stdout}", output.status))
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        match spawn_workload(name, args) {
            Ok(stdout) => print!("{stdout}"),
            Err(e) => {
                println!("{e}");
                ok = false;
            }
        }
    }
    exit_code(ok)
}

/// Runs the whole benchmark as two interleaved sets (A B B A: two runs
/// per set) and holds the two medians of every workload × end-to-end
/// metric to the metric's own bound. The work counter must come out
/// bit-equal in every run of a one-thread workload.
fn selfcheck(args: &Args) -> ExitCode {
    type Samples = BTreeMap<(usize, &'static str), Vec<f64>>;
    let mut sets: [Samples; 2] = [Samples::new(), Samples::new()];
    println!(
        "# mbir-e2e selfcheck: seed {}, rounds sized for {} s, sets A B B A",
        args.seed, args.seconds
    );
    for set in [0, 1, 1, 0] {
        for (w, name) in WORKLOADS.into_iter().enumerate() {
            let parsed = spawn_workload(name, args)
                .and_then(|out| {
                    out.lines()
                        .last()
                        .map(str::to_owned)
                        .ok_or("no output".into())
                })
                .and_then(|line| {
                    parse_result_line(&line).ok_or(format!("bad result line: {line}"))
                });
            match parsed {
                Ok((true, values)) => {
                    for metric in END_TO_END.iter().map(|m| m.name) {
                        sets[set]
                            .entry((w, metric))
                            .or_default()
                            .push(values[metric]);
                    }
                }
                Ok((false, _)) => {
                    println!("{name}: run reported incorrect results");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    println!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("\n| workload | metric | median A | median B | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, name) in WORKLOADS.into_iter().enumerate() {
        for &metrics::EndToEnd {
            name: metric,
            bound,
            higher_is_better,
            ..
        } in END_TO_END
        {
            let (a, b) = (
                median(&sets[0][&(w, metric)]),
                median(&sets[1][&(w, metric)]),
            );
            let worse = if higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            // Either set may play the parent: neither may be worse than
            // the other by more than the bound.
            let within = worse.abs() <= bound;
            ok &= within;
            println!(
                "| {name} | {metric} | {a} | {b} | {:+.2}% | {:.0}% | {} |",
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    for (w, name) in WORKLOADS.into_iter().enumerate() {
        if name == shard_batch::NAME {
            continue; // two threads race for the shared floor: not exact
        }
        let all: Vec<f64> = sets
            .iter()
            .flat_map(|s| s[&(w, "madds_per_query")].clone())
            .collect();
        let equal = all.iter().all(|v| v.to_bits() == all[0].to_bits());
        ok &= equal;
        println!(
            "{name}: madds_per_query {} across {} runs{}",
            all[0],
            all.len(),
            if equal {
                ", bit-equal"
            } else {
                " NOT REPEATED"
            }
        );
    }
    println!("\nselfcheck {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mbir-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.selfcheck) {
        (Some(name), _) => run_workload(name, &args),
        (None, true) => selfcheck(&args),
        (None, false) => run_all(&args),
    }
}
