//! Every metric the benchmark prints, by name and unit — the same list
//! `BENCHMARK.json` declares (a unit test holds the two together) — and
//! the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One end-to-end metric: what a user of the archive sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which a change may worsen it.
    pub bound: f64,
    pub higher_is_better: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    higher_is_better: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        higher_is_better,
    }
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("queries_per_s", "1/s", 0.25, true),
    e2e("query_p50_ms", "ms", 0.25, false),
    e2e("query_p95_ms", "ms", 0.25, false),
    e2e("madds_per_query", "count", 0.05, false),
    e2e("peak_rss_mb", "MB", 0.10, false),
    e2e("setup_s", "s", 0.25, false),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

/// `(name, unit)`: one layer each, reported with `--trace 1`. Every one is
/// measured on the workload's own data, by the workloads in which that
/// layer works; the result line owes every name, so a workload that leaves
/// a layer idle reports 0 for it — never a measurement, always "idle".
pub const PER_LAYER: &[(&str, &str)] = &[
    // Work counters of the measured rounds (exact on one thread).
    ("source.pages_per_query", "count"),
    ("source.cell_reads_per_query", "count"),
    ("source.hit_rate", "ratio"),
    ("index.tuples_per_query", "count"),
    ("append.rows_per_s", "1/s"),
    ("append.journal_bytes_per_data_byte", "ratio"),
    // Traced round: self time per layer as a share of operation time.
    ("trace.engine_share", "ratio"),
    ("trace.source_share", "ratio"),
    ("trace.source_miss_share", "ratio"),
    ("trace.index_share", "ratio"),
    ("trace.journal_share", "ratio"),
    ("trace.build_share", "ratio"),
    ("trace.overhead_pct", "%"),
    // mbir-archive
    ("archive.tile.read_page_verified_us", "us/page"),
    ("archive.integrity.checksum_mb_per_s", "MB/s"),
    ("archive.journal.append_mb_per_s", "MB/s"),
    ("archive.journal.frame_overhead_bytes", "B"),
    ("archive.journal.recover_mb_per_s", "MB/s"),
    ("archive.shard.extract_band_ms", "ms/band"),
    // mbir-progressive
    ("progressive.pyramid.build_mcells_per_s", "Mcell/s"),
    ("progressive.pyramid.extend_rows_mcells_per_s", "Mcell/s"),
    // mbir-models
    ("models.linear.bound_over_box_ns", "ns/call"),
    ("models.linear.evaluate_ns", "ns/call"),
    // mbir-index
    ("index.kernels.score_block_melem_per_s", "Melem/s"),
    ("index.scan.flat_melem_per_s", "Melem/s"),
    ("index.scan.quant_melem_per_s", "Melem/s"),
    ("index.scan.quant_prune_rate", "ratio"),
    ("index.onion.top_k_max_us", "us/call"),
    ("index.onion.top_k_max_quant_us", "us/call"),
    ("index.onion.quant_prune_rate", "ratio"),
    ("index.onion.build_s", "s/build"),
    ("index.quant.build_s", "s/build"),
    // mbir-core: source, engines, snapshot
    ("core.source.hit_ns", "ns/read"),
    ("core.source.miss_us", "us/read"),
    ("core.resilient.inmem_query_us", "us/query"),
    ("core.batched.batch_ms", "ms/batch"),
    ("core.batched.page_amortization", "ratio"),
    ("core.parallel.pool_dispatch_us", "us/run"),
    ("core.parallel.speedup_2t", "ratio"),
    ("core.snapshot.append_ms", "ms/append"),
    ("core.snapshot.journal_share", "ratio"),
    ("core.snapshot.current_ns", "ns/call"),
    ("core.snapshot.recover_s", "s/recovery"),
    // Set-up breakdown.
    ("setup.gen_s", "s"),
    ("setup.first_build_s", "s"),
    ("setup.pyramid_build_s", "s/build"),
    ("setup.store_build_s", "s/build"),
    ("setup.oracle_s", "s"),
];

/// What one run of one workload reports.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// False when a work counter did not repeat where it must, or a
    /// whole-run check (journal recovery) failed.
    pub checks_passed: bool,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_passed
    }

    /// The metrics this run owes: every end-to-end metric untraced, every
    /// per-layer metric traced (`None` for a layer this workload leaves
    /// idle).
    fn owed(&self, traced: bool) -> Vec<(&'static str, &'static str, Option<f64>)> {
        let value = |name: &str| self.values.get(name).copied();
        if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, value(name)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = value(m.name).unwrap_or_else(|| panic!("{} not measured", m.name));
                    (m.name, m.unit, Some(v))
                })
                .collect()
        }
    }

    pub fn print_table(&self, traced: bool) {
        println!("\n### {}: metrics\n", self.workload);
        println!("| metric | value | unit |");
        println!("|---|---|---|");
        for (name, unit, value) in self.owed(traced) {
            match value {
                Some(value) => println!("| {name} | {value} | {unit} |"),
                None => println!("| {name} | idle | {unit} |"),
            }
        }
        println!(
            "\nattempted {} operations, {} failed, checks {}",
            self.attempted,
            self.failed,
            if self.checks_passed {
                "passed"
            } else {
                "FAILED"
            }
        );
    }

    /// The result line: one JSON object, the last line of standard output.
    pub fn result_line(&self, traced: bool) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.owed(traced).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // The line owes a number for every name: an idle layer is 0.
            let value = value.unwrap_or(0.0);
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}

/// Reads the `"value"` of every metric back out of a result line — all
/// the JSON the benchmark ever has to parse, and only its own.
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut values = BTreeMap::new();
    for part in body.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value: f64 = value.trim_end_matches([',', ' ']).parse().ok()?;
        values.insert(name.to_string(), value);
    }
    Some((correct, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(failed: u64) -> Report {
        let mut r = Report {
            workload: "grid_hot",
            attempted: 10,
            failed,
            checks_passed: true,
            values: BTreeMap::new(),
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64);
        }
        r.set("trace.engine_share", 0.75);
        r
    }

    #[test]
    fn result_line_round_trips_and_carries_every_owed_metric() {
        let r = report(0);
        let (correct, values) = parse_result_line(&r.result_line(false)).unwrap();
        assert!(correct);
        assert_eq!(values.len(), END_TO_END.len());
        assert_eq!(values["queries_per_s"], 1.5);
        let (_, layers) = parse_result_line(&r.result_line(true)).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers["trace.engine_share"], 0.75);
        assert_eq!(layers["index.onion.build_s"], 0.0);
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        assert!(!report(1).correct());
        assert!(report(1)
            .result_line(false)
            .starts_with("{\"correct\": false"));
        let mut r = report(0);
        r.checks_passed = false;
        assert!(!r.correct());
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics,
    /// units and bounds, and the same four workloads.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let (head, layers) = json.split_once("\"per_layer\"").expect("per_layer key");
        for m in END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                m.bound
            );
            assert!(head.contains(&row), "end_to_end row missing: {row}");
        }
        for &(name, unit) in PER_LAYER {
            let row = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(layers.contains(&row), "per_layer row missing: {row}");
        }
        assert_eq!(head.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        for workload in crate::WORKLOADS {
            assert!(head.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
    }
}
