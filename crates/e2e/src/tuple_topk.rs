//! `tuple_topk` — the only workload where `mbir-index` does the work. One
//! d=3, n=200 000 Gaussian `PointStore`; calls are 50 % `OnionIndex::
//! top_k_max`, 25 % `top_k_max_quant`, 25 % `scan_top_k_flat`, K=10, one
//! thread. Kernels, Onion layers and the i8 funnel work; the pyramid/page
//! stack does nothing. Its set-up (Onion peel + quantisation) is the heavy
//! one.
//!
//! An operation is one pair of directions asked through that mix — both
//! through `top_k_max`, one through `top_k_max_quant`, the other through
//! `scan_top_k_flat` — the way an operation of `shard_batch` is one batch.
//! The three calls cost about 0.84 / 0.52 / 0.34 ms here, so with one call
//! per operation the median operation sat in the empty gap between two
//! modes and moved 10 % between seeds, and p95 saw `top_k_max` alone. Over
//! the four calls every path moves both percentiles by its share, and the
//! latency of each kind of call is kept beside them
//! (`index.onion.top_k_max_us`, `index.onion.top_k_max_quant_us`,
//! `index.scan.flat_melem_per_s`).

use crate::harness::{
    bench_ns, expect_for, measure, median, passes, timed, Answer, Entry, Rng, RoundRecord, Rounds,
    Setup, LAYER_REPS,
};
use crate::metrics::Report;
use crate::trace::{self, Tracer, OP_QUERY};
use crate::worlds::{direction_family, ARCHIVE_SEED, JITTER};
use crate::Config;
use mbir_archive::synth::gaussian_tuples;
use mbir_index::kernels::score_block_into;
use mbir_index::onion::OnionIndex;
use mbir_index::quant::QuantizedStore;
use mbir_index::scan::{scan_top_k, scan_top_k_flat, scan_top_k_quant};
use mbir_index::stats::TopKResult;
use mbir_index::store::PointStore;
use mbir_models::error::ModelError;
use std::hint::black_box;
use std::time::Instant;

pub const NAME: &str = "tuple_topk";
const N: usize = 200_000;
const D: usize = 3;
const K: usize = 10;
const DIRECTIONS: usize = 256;
/// Seconds one pass over the 128 distinct pairs took on the sizing host.
const PASS_S: f64 = 0.33;

/// The three kinds of call: span name in the traced round, and the name
/// their latencies are filed under in a round's record.
const ONION: &str = "index.onion.top_k_max";
const ONION_QUANT: &str = "index.onion.top_k_max_quant";
const FLAT_SCAN: &str = "index.scan.top_k_flat";

fn entries_of(result: &TopKResult) -> Vec<Entry> {
    result
        .results
        .iter()
        .map(|item| (item.index as u64, item.score.to_bits()))
        .collect()
}

struct World<'a> {
    onion: &'a OnionIndex,
    store: &'a PointStore,
    directions: &'a [Vec<f64>],
    /// Pairs of directions, in op order.
    ops: &'a [(usize, usize)],
    truth: &'a [Vec<Entry>],
}

/// Per-call latencies of one round, milliseconds, by kind.
type CallsMs = [(&'static str, Vec<f64>); 3];
/// One index call, and which kind of [`CallsMs`] it is.
type Call<'a> = (usize, &'a dyn Fn() -> Result<TopKResult, ModelError>);

impl World<'_> {
    /// One operation: directions `a` and `b` through the four calls.
    fn pair(
        &self,
        (a, b): (usize, usize),
        tracer: Option<&Tracer>,
        calls_ms: &mut CallsMs,
    ) -> Result<Answer, ModelError> {
        let (dir_a, dir_b) = (&self.directions[a], &self.directions[b]);
        let calls: [Call<'_>; 4] = [
            (0, &|| self.onion.top_k_max(dir_a, K)),
            (0, &|| self.onion.top_k_max(dir_b, K)),
            (1, &|| self.onion.top_k_max_quant(dir_a, K)),
            (2, &|| Ok(scan_top_k_flat(self.store, dir_b, K))),
        ];
        // The index structures are strict: an answer is whole or an `Err`.
        let mut all = Answer {
            entries: Vec::with_capacity(calls.len() * K),
            completeness: 1.0,
            madds: 0,
        };
        for (kind, call) in calls {
            let (name, latencies) = &mut calls_ms[kind];
            let t = Instant::now();
            let result = match tracer {
                Some(tracer) => tracer.child(name, call),
                None => call(),
            }?;
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            all.entries.extend(entries_of(&result));
            all.madds += result.stats.tuples_examined * D as u64;
        }
        Ok(all)
    }

    fn round(&self, warm: Option<&[u64]>, tracer: Option<&Tracer>) -> RoundRecord {
        let mut rec = RoundRecord::default();
        let mut calls_ms: CallsMs = [ONION, ONION_QUANT, FLAT_SCAN].map(|name| (name, Vec::new()));
        let t0 = Instant::now();
        for (i, &(a, b)) in self.ops.iter().enumerate() {
            let truth: Vec<Entry> = match warm {
                None => [a, b, a, b]
                    .iter()
                    .flat_map(|&d| self.truth[d].clone())
                    .collect(),
                Some(_) => Vec::new(),
            };
            rec.op(4, &expect_for(warm, i, &truth), || {
                trace::root(tracer, OP_QUERY, i, || {
                    self.pair((a, b), tracer, &mut calls_ms)
                })
            });
        }
        rec.wall_s = t0.elapsed().as_secs_f64();
        rec.calls_ms.extend(calls_ms);
        rec
    }

    /// The layers that work in this workload: the latency of each kind of
    /// call from the measured rounds, and the kernel, the quantised scan
    /// and the prune rates timed alone on this point set.
    fn fill_layers(&self, report: &mut Report, rounds: &Rounds) {
        let call_us = |name: &str| rounds.median_of(|r| r.call_p50_ms(name)) * 1e3;
        report.set("index.onion.top_k_max_us", call_us(ONION));
        report.set("index.onion.top_k_max_quant_us", call_us(ONION_QUANT));
        let elements = (N * D) as f64;
        report.set("index.scan.flat_melem_per_s", elements / call_us(FLAT_SCAN));

        let dirs = self.directions;
        let block = &self.store.flat()[..4096 * D];
        let mut scores = Vec::with_capacity(4096);
        let block_ns = bench_ns(LAYER_REPS, 2_000, |i| {
            score_block_into(black_box(block), D, &dirs[i % dirs.len()], &mut scores);
            black_box(&scores);
        });
        report.set(
            "index.kernels.score_block_melem_per_s",
            (4096 * D) as f64 / 1e6 / (block_ns / 1e9),
        );
        let quant = QuantizedStore::build(self.store);
        let (mut pruned, mut scored) = (0u64, 0u64);
        let quant_ns = bench_ns(LAYER_REPS, 32, |i| {
            let (_, prune) = black_box(scan_top_k_quant(self.store, &quant, &dirs[i], K));
            pruned += prune.rows_pruned;
            scored += prune.rows_exact;
        });
        report.set(
            "index.scan.quant_melem_per_s",
            elements / 1e6 / (quant_ns / 1e9),
        );
        report.set(
            "index.scan.quant_prune_rate",
            pruned as f64 / (pruned + scored) as f64,
        );
        let (mut pruned, mut scored) = (0u64, 0u64);
        for dir in dirs {
            if let Ok((_, prune)) = self.onion.top_k_max_quant_report(dir, K) {
                pruned += prune.rows_pruned;
                scored += prune.rows_exact;
            }
        }
        report.set(
            "index.onion.quant_prune_rate",
            pruned as f64 / (pruned + scored) as f64,
        );
    }
}

pub fn run(cfg: &Config) -> Report {
    // A fixed dataset like the grid archives: how deep the Onion walk goes
    // depends on the draw (tuples examined per query moved 334 205 –
    // 477 978 over ten point-set seeds).
    let (gen_s, points) = timed(|| gaussian_tuples(ARCHIVE_SEED, N, D));
    let (mut onion_s, mut quant_s) = (Vec::new(), Vec::new());
    let setup = Setup::build(|| {
        let (s, onion) = timed(|| OnionIndex::build(points.clone()).expect("non-empty points"));
        onion_s.push(s);
        let (s, onion) = timed(|| onion.with_quantized());
        quant_s.push(s);
        let store = PointStore::from_rows(&points).expect("rectangular points");
        (onion, store)
    });
    let (onion, store) = &setup.state;

    let directions = direction_family(cfg.seed, DIRECTIONS, D, JITTER);
    let mut ops: Vec<(usize, usize)> = (0..passes(cfg.seconds, PASS_S))
        .flat_map(|_| (0..DIRECTIONS / 2).map(|p| (2 * p, 2 * p + 1)))
        .collect();
    Rng::new(cfg.seed).shuffle(&mut ops);
    // The naive oracle: nested-Vec scan, the summation order every kernel
    // in `mbir-index` is pinned to.
    let (oracle_s, truth) = timed(|| {
        directions
            .iter()
            .map(|dir| {
                entries_of(&scan_top_k(&points, K, |p| {
                    dir.iter().zip(p).map(|(a, v)| a * v).sum::<f64>()
                }))
            })
            .collect::<Vec<_>>()
    });

    let world = World {
        onion,
        store,
        directions: &directions,
        ops: &ops,
        truth: &truth,
    };
    let rounds = measure(cfg.rounds(), true, |warm| world.round(warm, None));

    let mut report = crate::report_for(NAME, &rounds, &setup.builds_s);
    crate::print_rounds(NAME, &rounds);
    if cfg.traced {
        crate::fill_setup_layers(&mut report, gen_s, oracle_s, &setup.builds_s);
        report.set("index.onion.build_s", median(&onion_s));
        report.set("index.quant.build_s", median(&quant_s));
        report.set(
            "index.tuples_per_query",
            report.values["madds_per_query"] / D as f64,
        );
        let tracer = Tracer::default();
        let traced = world.round(Some(&rounds.warmup.fingerprints), Some(&tracer));
        crate::fill_trace(&mut report, cfg, &rounds, &traced, tracer);
        world.fill_layers(&mut report, &rounds);
    }
    report
}
