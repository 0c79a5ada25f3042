//! Shared measurement machinery: the seeded generator, order statistics,
//! answer fingerprints and the failed-operation rule, the round loop
//! (one verified warm-up round, then a fixed number of measured rounds
//! over the identical op list), the per-round table, and peak RSS.

use std::collections::BTreeMap;
use std::time::Instant;

/// Measured rounds of an untraced run. Every timing end-to-end metric is a
/// median over these: of the round's throughput, of each operation's
/// latency.
pub const ROUNDS: usize = 7;
/// Untraced rounds a traced run measures its overhead against.
pub const TRACED_RUN_ROUNDS: usize = 3;

/// How often a round goes over a workload's distinct operations, so that
/// [`ROUNDS`] rounds come to about `seconds` on the host the benchmark was
/// sized on, where one pass took `pass_s`. The work is fixed by count:
/// `pass_s` is a constant, so the op list depends on `--seconds` and
/// `--seed` alone, never on how fast the code under test runs.
pub fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / ROUNDS as f64 / pass_s).round() as usize).max(1)
}

/// SplitMix64 — the benchmark's only randomness, so inputs depend on
/// nothing but `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        self.unit() * 2.0 - 1.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(q1, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One ranked answer entry: the item (cell index or tuple index) and the
/// bits of its score. Bit-level equality is the repo's own guarantee
/// ("bit-identical answers"), so the benchmark holds it to that.
pub type Entry = (u64, u64);

/// What one operation produced, reduced to what correctness needs.
pub struct Answer {
    pub entries: Vec<Entry>,
    /// The engine's own completeness claim (1.0 for strict engines).
    pub completeness: f64,
    /// Model multiply-adds the engine reports having spent on it.
    pub madds: u64,
}

/// FNV-1a over the ranked entries — order-sensitive, so a permuted
/// answer is a different answer.
pub fn fingerprint(entries: &[Entry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(item, bits) in entries {
        for word in [item, bits] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// What an operation is compared with: the oracle's ranked entries in
/// the warm-up round, the warm-up round's fingerprint afterwards.
pub enum Expect<'a> {
    Oracle(&'a [Entry]),
    Fingerprint(u64),
}

/// The failed-operation rule. An `Err`, a `completeness < 1.0`, or an
/// answer that differs from what is expected is a failed operation.
/// Returns the answer's fingerprint (0 for an `Err`) and whether it failed.
pub fn judge<E>(outcome: &Result<Answer, E>, expect: &Expect<'_>) -> (u64, bool) {
    let Ok(answer) = outcome else {
        return (0, true);
    };
    let fp = fingerprint(&answer.entries);
    let matches = match expect {
        Expect::Oracle(entries) => answer.entries == *entries,
        Expect::Fingerprint(expected) => fp == *expected,
    };
    (fp, !(matches && answer.completeness >= 1.0))
}

/// Everything one round over the op list produced.
#[derive(Default)]
pub struct RoundRecord {
    /// Wall clock of the whole op loop, seconds.
    pub wall_s: f64,
    /// Per-operation latency, milliseconds, in op order.
    pub op_ms: Vec<f64>,
    /// Queries answered (an operation may answer several).
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-operation fingerprints, in op order.
    pub fingerprints: Vec<u64>,
    /// Exact work counters of the round (pages, multiply-adds, ...).
    pub counters: BTreeMap<&'static str, u64>,
    /// Latency, milliseconds, of the named calls inside the operations:
    /// the three index calls of `tuple_topk`, the appends of `append_mix`.
    pub calls_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl RoundRecord {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn queries_per_s(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }

    pub fn op_percentile_ms(&self, p: f64) -> f64 {
        percentile(&sorted(&self.op_ms), p)
    }

    /// Median latency of the calls filed under `name`, milliseconds.
    pub fn call_p50_ms(&self, name: &str) -> f64 {
        median(&self.calls_ms[name])
    }

    /// Times one operation and files its verdict.
    pub fn op<E>(
        &mut self,
        queries: u64,
        expect: &Expect<'_>,
        run: impl FnOnce() -> Result<Answer, E>,
    ) {
        let t0 = Instant::now();
        let outcome = run();
        self.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (fp, failed) = judge(&outcome, expect);
        self.fingerprints.push(fp);
        self.attempted += 1;
        self.failed += u64::from(failed);
        self.queries += queries;
        if let Ok(answer) = &outcome {
            self.add("madds", answer.madds);
        }
    }

    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }
}

/// The expectation for op `i`: the oracle in the warm-up round (no
/// fingerprints yet), the warm-up round's fingerprint afterwards.
pub fn expect_for<'a>(warm: Option<&[u64]>, i: usize, oracle: &'a [Entry]) -> Expect<'a> {
    match warm {
        None => Expect::Oracle(oracle),
        Some(fps) => Expect::Fingerprint(fps[i]),
    }
}

/// The rounds of one run: the verified warm-up and the measured ones.
pub struct Rounds {
    pub warmup: RoundRecord,
    pub measured: Vec<RoundRecord>,
    /// Whether every measured round repeated the first one's counters.
    pub counters_repeat: bool,
}

impl Rounds {
    pub fn attempted(&self) -> u64 {
        self.warmup.attempted + self.measured.iter().map(|r| r.attempted).sum::<u64>()
    }

    pub fn failed(&self) -> u64 {
        self.warmup.failed + self.measured.iter().map(|r| r.failed).sum::<u64>()
    }

    pub fn per_round(&self, f: impl Fn(&RoundRecord) -> f64) -> Vec<f64> {
        self.measured.iter().map(f).collect()
    }

    /// Median over the measured rounds of a per-round value.
    pub fn median_of(&self, f: impl Fn(&RoundRecord) -> f64) -> f64 {
        median(&self.per_round(f))
    }

    /// Percentile `p` of the per-operation latencies, milliseconds, each
    /// operation's latency being its median over the measured rounds. Op
    /// `i` is the same work from the same state in every round, so a burst
    /// of host noise, which hits other operations in the next round, drops
    /// out, and an operation that is slow stays slow.
    pub fn op_percentile_ms(&self, p: f64) -> f64 {
        let per_op: Vec<f64> = (0..self.measured[0].op_ms.len())
            .map(|i| median(&self.per_round(|r| r.op_ms[i])))
            .collect();
        percentile(&sorted(&per_op), p)
    }
}

/// Runs the warm-up round (`round(None)`: every answer checked against
/// the oracle) and then `rounds` measured rounds
/// (`round(Some(fingerprints))`) over the identical op list.
/// `exact_counters` asserts that the work counters repeat in every round —
/// they must on one thread.
pub fn measure(
    rounds: usize,
    exact_counters: bool,
    mut round: impl FnMut(Option<&[u64]>) -> RoundRecord,
) -> Rounds {
    let warmup = round(None);
    let measured: Vec<RoundRecord> = (0..rounds)
        .map(|_| round(Some(&warmup.fingerprints)))
        .collect();
    let counters_repeat = !exact_counters
        || measured
            .iter()
            .all(|r| r.counters == measured[0].counters && r.queries == warmup.queries);
    Rounds {
        warmup,
        measured,
        counters_repeat,
    }
}

/// Prints each measured round, then the median and the quartiles across
/// rounds (so a reader sees the spread behind every reported median), and
/// warns when a timing metric's inter-quartile range exceeds half its
/// bound.
pub fn print_round_table(workload: &str, rounds: &Rounds) {
    println!("\n### {workload}: measured rounds (op list identical in every round)\n");
    println!("| round | wall s | queries/s | p50 ms | p95 ms | failed |");
    println!("|---|---|---|---|---|---|");
    for (i, r) in rounds.measured.iter().enumerate() {
        println!(
            "| {} | {:.3} | {:.1} | {:.4} | {:.4} | {} |",
            i + 1,
            r.wall_s,
            r.queries_per_s(),
            r.op_percentile_ms(0.50),
            r.op_percentile_ms(0.95),
            r.failed
        );
    }
    let columns: [(&str, Vec<f64>); 3] = [
        (
            "queries_per_s",
            rounds.per_round(RoundRecord::queries_per_s),
        ),
        (
            "query_p50_ms",
            rounds.per_round(|r| r.op_percentile_ms(0.50)),
        ),
        (
            "query_p95_ms",
            rounds.per_round(|r| r.op_percentile_ms(0.95)),
        ),
    ];
    println!("\n| per round | q1 | median | q3 | iqr/median |");
    println!("|---|---|---|---|---|");
    for (name, values) in &columns {
        let (q1, q3) = quartiles(values);
        let share = iqr_share(values);
        let metric = crate::metrics::end_to_end(name);
        println!(
            "| {name} | {q1:.4} | {:.4} | {q3:.4} | {:.2}% |",
            median(values),
            share * 100.0
        );
        if share > metric.bound / 2.0 {
            println!(
                "WARNING: {workload}/{name} inter-quartile range {:.1}% exceeds half its {:.0}% bound",
                share * 100.0,
                metric.bound * 100.0
            );
        }
    }
    println!(
        "\nover each operation's median latency across the rounds: p50 {:.4} ms, p95 {:.4} ms (reported)",
        rounds.op_percentile_ms(0.50),
        rounds.op_percentile_ms(0.95)
    );
    println!(
        "{} operations per round ({} latency samples behind each p50/p95), {} queries per round, {} measured rounds",
        rounds.warmup.attempted,
        rounds.warmup.op_ms.len(),
        rounds.warmup.queries,
        rounds.measured.len()
    );
}

/// The set-up loop builds at least this often, and goes on (up to
/// [`MAX_SETUP_BUILDS`]) until [`SETUP_SECONDS`] have been spent building:
/// a 5 ms build needs more repetitions than a 0.7 s one for its median to
/// hold still.
pub const MIN_SETUP_BUILDS: usize = 5;
pub const MAX_SETUP_BUILDS: usize = 200;
pub const SETUP_SECONDS: f64 = 1.0;

/// The query-ready state and what building it cost: consecutive
/// in-process builds from the already generated raw inputs, each dropped
/// before the next so peak memory is one build's.
pub struct Setup<T> {
    pub state: T,
    /// Whole-build seconds, in build order (the first is the cold one).
    pub builds_s: Vec<f64>,
}

impl<T> Setup<T> {
    pub fn build(mut build: impl FnMut() -> T) -> Self {
        let mut state = None;
        let mut builds_s: Vec<f64> = Vec::new();
        while builds_s.len() < MIN_SETUP_BUILDS
            || (builds_s.len() < MAX_SETUP_BUILDS && builds_s.iter().sum::<f64>() < SETUP_SECONDS)
        {
            drop(state.take());
            let (seconds, built) = timed(&mut build);
            builds_s.push(seconds);
            state = Some(built);
        }
        Setup {
            state: state.expect("at least one build"),
            builds_s,
        }
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Repetitions behind each layer timing of a traced run.
pub const LAYER_REPS: usize = 7;

/// Nanoseconds per call of `f`: the median over `reps` repetitions of a
/// loop of `iters` calls — the microbench shape of every per-layer timing.
pub fn bench_ns(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(entries: &[Entry], completeness: f64) -> Result<Answer, String> {
        Ok(Answer {
            entries: entries.to_vec(),
            completeness,
            madds: 0,
        })
    }

    const TRUTH: [Entry; 3] = [(7, 0x4010), (3, 0x4008), (9, 0x4000)];

    #[test]
    fn right_answer_passes_against_oracle_and_fingerprint() {
        let (fp, failed) = judge(&answer(&TRUTH, 1.0), &Expect::Oracle(&TRUTH));
        assert!(!failed);
        assert_eq!(fp, fingerprint(&TRUTH));
        assert!(!judge(&answer(&TRUTH, 1.0), &Expect::Fingerprint(fp)).1);
    }

    #[test]
    fn wrong_answer_is_a_failed_operation() {
        let wrong_item = [(7, 0x4010), (4, 0x4008), (9, 0x4000)];
        let wrong_score = [(7, 0x4010), (3, 0x4009), (9, 0x4000)];
        let wrong_order = [(3, 0x4008), (7, 0x4010), (9, 0x4000)];
        let fp = fingerprint(&TRUTH);
        for wrong in [
            &wrong_item[..],
            &wrong_score[..],
            &wrong_order[..],
            &TRUTH[..2],
        ] {
            assert!(judge(&answer(wrong, 1.0), &Expect::Oracle(&TRUTH)).1);
            assert!(judge(&answer(wrong, 1.0), &Expect::Fingerprint(fp)).1);
        }
    }

    #[test]
    fn err_is_a_failed_operation() {
        let outcome: Result<Answer, String> = Err("page lost".into());
        assert_eq!(judge(&outcome, &Expect::Oracle(&TRUTH)), (0, true));
    }

    #[test]
    fn incomplete_answer_is_a_failed_operation() {
        assert!(judge(&answer(&TRUTH, 0.999), &Expect::Oracle(&TRUTH)).1);
    }

    #[test]
    fn failed_operations_reach_the_run_totals() {
        let rounds = measure(2, true, |warm| {
            let mut r = RoundRecord::default();
            // The measured rounds return a wrong answer for op 1.
            let second: &[Entry] = if warm.is_some() { &TRUTH[..2] } else { &TRUTH };
            r.op(1, &expect_for(warm, 0, &TRUTH), || answer(&TRUTH, 1.0));
            r.op(1, &expect_for(warm, 1, &TRUTH), || answer(second, 1.0));
            r.wall_s = 1.0;
            r
        });
        assert_eq!(rounds.attempted(), 6);
        assert_eq!(rounds.failed(), 2);
    }

    #[test]
    fn counter_drift_is_detected() {
        let mut n = 0;
        let rounds = measure(3, true, |_| {
            n += 1;
            let mut r = RoundRecord::default();
            r.add("pages", if n == 3 { 5 } else { 4 });
            r.wall_s = 1.0;
            r
        });
        assert!(!rounds.counters_repeat);
    }

    #[test]
    fn a_burst_in_one_round_drops_out_and_a_slow_operation_stays() {
        let mut n = 0;
        let rounds = measure(3, false, |_| {
            n += 1;
            // Op 19 is slow in every round; round 2 (the first measured
            // one) has a burst over ops 0..10.
            let op_ms = (0..20)
                .map(|i| match i {
                    19 => 9.0,
                    0..=9 if n == 2 => 5.0,
                    _ => 1.0,
                })
                .collect();
            RoundRecord {
                op_ms,
                ..RoundRecord::default()
            }
        });
        assert_eq!(rounds.measured[0].op_percentile_ms(0.50), 5.0);
        assert_eq!(rounds.op_percentile_ms(0.50), 1.0);
        assert_eq!(rounds.op_percentile_ms(1.0), 9.0);
    }

    #[test]
    fn passes_depend_on_seconds_alone_and_never_reach_zero() {
        assert_eq!(passes(14.0, 0.2), 10);
        assert_eq!(passes(7.0, 0.2), 5);
        assert_eq!(passes(0.5, 0.8), 1);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn generator_is_deterministic() {
        let (mut a, mut b) = (Rng::new(13), Rng::new(13));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!((0.0..1.0).contains(&a.unit()));
    }
}
