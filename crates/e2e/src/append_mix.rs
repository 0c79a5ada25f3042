//! `append_mix` — writes beside reads. Each round starts from a fresh
//! `LiveArchive` (4 attributes, 256×384 base, tile 32) and commits 24
//! epochs of one 32-row band per attribute, each followed by 64
//! `EpochSnapshot::query_top_k` on the newly published snapshot. The
//! journal, `AggregatePyramid::extend_rows`, the store rebuild and the
//! `Arc` swap are the only writers in the repo; the queries run the
//! uncached `TileSource` path on a growing archive, so a faster append
//! that slows post-append reads (or the reverse) shows in one row.
//!
//! Its traced run also times, on these bases and bands, the layers that
//! work here: the journal alone (write, frame overhead, recovery),
//! `extend_rows`, the whole append (from the rounds), `current()` and
//! `LiveArchive::recover`.
//!
//! The archive is this small because an append keeps three copies of
//! every pyramid alive at once (working, published, being built): at the
//! 512×1024 base first tried, the process peaked at 1.15 GB.

use crate::grid_hot::{build_pyramids, solo_answer};
use crate::harness::{
    bench_ns, expect_for, measure, median, minimum, passes, timed, Entry, Rng, RoundRecord, Rounds,
    Setup, LAYER_REPS,
};
use crate::metrics::Report;
use crate::trace::{self, TracedSource, Tracer, JOURNAL_REPLAY, OP_APPEND, OP_QUERY};
use crate::worlds::{model_family, rough_world, rows_of, GridOracle, JITTER, TILE};
use crate::Config;
use mbir_archive::grid::Grid2;
use mbir_archive::journal::{self, AppendJournal};
use mbir_core::resilient::{resilient_top_k, ExecutionBudget};
use mbir_core::snapshot::LiveArchive;
use mbir_core::source::TileSource;
use mbir_models::linear::LinearModel;
use std::hint::black_box;
use std::time::Instant;

pub const NAME: &str = "append_mix";
const ATTRS: usize = 4;
const COLS: usize = 384;
const BASE_ROWS: usize = 256;
const EPOCHS: usize = 24;
const BAND_ROWS: usize = 32;
const QUERIES_PER_EPOCH: usize = 64;
const K: usize = 10;
/// Seconds one archive life (24 appends, 1 536 queries) took on the sizing
/// host; a round is as many lives as fit.
const PASS_S: f64 = 0.8;
/// What an append's latency is filed under in a round's record.
const APPEND: &str = "append";

struct World<'a> {
    bases: &'a [Grid2<f64>],
    /// `bands[e]`: the one band per attribute epoch `e + 1` commits.
    bands: &'a [Vec<Grid2<f64>>],
    models: &'a [LinearModel],
    /// `order[e]`: the order epoch `e + 1` asks the models in.
    order: &'a [Vec<usize>],
    /// The oracle over the base rows; each warm-up life grows a copy.
    base_oracle: &'a GridOracle,
    /// Archive lives per round.
    lives: usize,
}

impl World<'_> {
    fn fresh(&self) -> LiveArchive {
        LiveArchive::new(self.bases.to_vec(), TILE).expect("tile-aligned base")
    }

    /// One round: per life a fresh archive (untimed), then append / query
    /// epochs.
    fn round(&self, warm: Option<&[u64]>, tracer: Option<&Tracer>) -> RoundRecord {
        let mut rec = RoundRecord::default();
        let mut appends_ms = Vec::new();
        for life in 0..self.lives {
            self.life(life, warm, tracer, &mut rec, &mut appends_ms);
        }
        rec.calls_ms.insert(APPEND, appends_ms);
        rec
    }

    fn life(
        &self,
        life: usize,
        warm: Option<&[u64]>,
        tracer: Option<&Tracer>,
        rec: &mut RoundRecord,
        appends_ms: &mut Vec<f64>,
    ) {
        let mut live = self.fresh();
        let handle = live.handle();
        let budget = ExecutionBudget::unlimited();
        let mut oracle = warm.is_none().then(|| self.base_oracle.clone());
        let mut replay = AppendJournal::new();
        let pages = live.stats().pages_read();
        let mut oracle_s = 0.0;
        let t0 = Instant::now();
        for (e, bands) in self.bands.iter().enumerate() {
            let row_offset = live.rows();
            let t_append = Instant::now();
            let committed = trace::root(tracer, OP_APPEND, rec.attempted as usize, || {
                live.append(bands)
            });
            appends_ms.push(t_append.elapsed().as_secs_f64() * 1e3);
            rec.attempted += 1;
            rec.failed += u64::from(committed.is_err());
            if let Some(t) = tracer {
                // The journal's part of the append, timed on its own: the
                // same bands into a journal of the benchmark's.
                t.child(JOURNAL_REPLAY, || {
                    for band in bands {
                        black_box(replay.append(row_offset, band).ok());
                    }
                });
            }
            if let Some(oracle) = &mut oracle {
                let (s, ()) = timed(|| oracle.extend(bands, row_offset));
                oracle_s += s;
            }
            for (j, &m) in self.order[e].iter().enumerate() {
                let i = (life * EPOCHS + e) * QUERIES_PER_EPOCH + j;
                let truth: Vec<Entry> = oracle.as_ref().map_or(Vec::new(), |o| o.entries(m, K));
                rec.op(1, &expect_for(warm, i, &truth), || {
                    match tracer {
                        // `query_top_k` builds its source inside; the traced
                        // round spells out the same two calls to wrap it.
                        Some(t) => t.op(OP_QUERY, i, || {
                            let snapshot = handle.current();
                            let source = TileSource::new(snapshot.stores())?;
                            let traced = TracedSource::new(&source, t);
                            resilient_top_k(
                                &self.models[m],
                                snapshot.pyramids(),
                                K,
                                &traced,
                                &budget,
                            )
                        }),
                        None => handle.current().query_top_k(&self.models[m], K, &budget),
                    }
                    .map(|r| solo_answer(r, COLS))
                });
            }
        }
        // The warm-up round's oracle work is not the program's.
        rec.wall_s += t0.elapsed().as_secs_f64() - oracle_s;
        rec.add("pages", live.stats().pages_read() - pages);
        rec.add("journal_bytes", live.journal_bytes().len() as u64);
        rec.add("appended_rows", (live.rows() - BASE_ROWS) as u64);
    }

    /// After the rounds: an archive recovered from the journal bytes must
    /// be the archive that wrote them — same journal, same epoch, same
    /// root aggregates, same answers.
    fn recovery_is_bit_identical(&self, last_epoch_fingerprints: &[u64]) -> bool {
        let mut live = self.fresh();
        for bands in self.bands {
            if live.append(bands).is_err() {
                return false;
            }
        }
        let Ok((recovered, _)) =
            LiveArchive::recover(self.bases.to_vec(), TILE, live.journal_bytes())
        else {
            return false;
        };
        let (a, b) = (live.snapshot(), recovered.snapshot());
        let budget = ExecutionBudget::unlimited();
        let answers_match = self.order[EPOCHS - 1]
            .iter()
            .zip(last_epoch_fingerprints)
            .all(|(&m, &fp)| {
                b.query_top_k(&self.models[m], K, &budget)
                    .is_ok_and(|r| crate::harness::fingerprint(&solo_answer(r, COLS).entries) == fp)
            });
        recovered.journal_bytes() == live.journal_bytes()
            && a.epoch() == b.epoch()
            && a.pyramids()
                .iter()
                .zip(b.pyramids())
                .all(|(p, q)| p.root() == q.root())
            && answers_match
    }
}

impl World<'_> {
    /// The layers that work in this workload, each timed alone on its data.
    fn fill_layers(&self, report: &mut Report, rounds: &Rounds) {
        let write_all = || {
            let mut journal = AppendJournal::new();
            for (e, bands) in self.bands.iter().enumerate() {
                for band in bands {
                    black_box(journal.append(BASE_ROWS + e * BAND_ROWS, band).ok());
                }
            }
            journal
        };
        let journal_ns = bench_ns(LAYER_REPS, 1, |_| {
            black_box(write_all());
        });
        let written = write_all();
        let bytes = written.bytes();
        let data_bytes = (EPOCHS * BAND_ROWS * COLS * ATTRS * 8) as f64;
        report.set(
            "archive.journal.append_mb_per_s",
            bytes.len() as f64 / 1e6 / (journal_ns / 1e9),
        );
        report.set(
            "archive.journal.frame_overhead_bytes",
            (bytes.len() as f64 - data_bytes) / (EPOCHS * ATTRS) as f64,
        );
        let recover_ns = bench_ns(LAYER_REPS, 1, |_| {
            black_box(journal::recover(black_box(bytes)));
        });
        report.set(
            "archive.journal.recover_mb_per_s",
            bytes.len() as f64 / 1e6 / (recover_ns / 1e9),
        );

        let mut pyramids = build_pyramids(self.bases);
        let extends_s: Vec<f64> = self
            .bands
            .iter()
            .map(|bands| {
                timed(|| {
                    for (pyramid, band) in pyramids.iter_mut().zip(bands) {
                        pyramid.extend_rows(band).expect("tile-aligned band");
                    }
                })
                .0
            })
            .collect();
        drop(pyramids);
        report.set(
            "progressive.pyramid.extend_rows_mcells_per_s",
            (BAND_ROWS * COLS * ATTRS) as f64 / 1e6 / median(&extends_s),
        );

        let append_ms = rounds.median_of(|r| r.call_p50_ms(APPEND));
        report.set("core.snapshot.append_ms", append_ms);
        report.set(
            "core.snapshot.journal_share",
            journal_ns / 1e6 / EPOCHS as f64 / append_ms,
        );
        let live = self.fresh();
        let handle = live.handle();
        report.set(
            "core.snapshot.current_ns",
            bench_ns(LAYER_REPS, 100_000, |_| {
                black_box(handle.current());
            }),
        );
        let recoveries: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| black_box(LiveArchive::recover(self.bases.to_vec(), TILE, bytes).ok())).0
            })
            .collect();
        report.set("core.snapshot.recover_s", minimum(&recoveries));
    }
}

pub fn run(cfg: &Config) -> Report {
    let (gen_s, (bases, bands)) = timed(|| {
        let world = rough_world(BASE_ROWS + EPOCHS * BAND_ROWS, COLS, ATTRS);
        let bands: Vec<Vec<Grid2<f64>>> = (0..EPOCHS)
            .map(|e| rows_of(&world, BASE_ROWS + e * BAND_ROWS, BAND_ROWS))
            .collect();
        (rows_of(&world, 0, BASE_ROWS), bands)
    });
    let setup = Setup::build(|| LiveArchive::new(bases.clone(), TILE).expect("tile-aligned base"));

    let models = model_family(cfg.seed, QUERIES_PER_EPOCH, ATTRS, JITTER);
    let mut rng = Rng::new(cfg.seed);
    let order: Vec<Vec<usize>> = (0..EPOCHS)
        .map(|_| {
            let mut epoch: Vec<usize> = (0..QUERIES_PER_EPOCH).collect();
            rng.shuffle(&mut epoch);
            epoch
        })
        .collect();
    let (oracle_s, base_oracle) = timed(|| {
        let mut oracle = GridOracle::new(&models, K, COLS);
        oracle.extend(&bases, 0);
        oracle
    });

    let world = World {
        bases: &bases,
        bands: &bands,
        models: &models,
        order: &order,
        base_oracle: &base_oracle,
        lives: passes(cfg.seconds, PASS_S),
    };
    let rounds = measure(cfg.rounds(), true, |warm| world.round(warm, None));

    let mut report = crate::report_for(NAME, &rounds, &setup.builds_s);
    crate::print_rounds(NAME, &rounds);
    let last_epoch =
        &rounds.warmup.fingerprints[(EPOCHS - 1) * QUERIES_PER_EPOCH..EPOCHS * QUERIES_PER_EPOCH];
    if !world.recovery_is_bit_identical(last_epoch) {
        println!("CHECK FAILED: the archive recovered from the journal differs from its writer");
        report.checks_passed = false;
    }
    if cfg.traced {
        crate::fill_setup_layers(&mut report, gen_s, oracle_s, &setup.builds_s);
        fill_append_counters(&mut report, &rounds);
        let tracer = Tracer::default();
        let traced = world.round(Some(&rounds.warmup.fingerprints), Some(&tracer));
        crate::fill_trace(&mut report, cfg, &rounds, &traced, tracer);
        world.fill_layers(&mut report, &rounds);
    }
    report
}

/// Append speed, journal size and pages per query, from the measured rounds.
fn fill_append_counters(report: &mut Report, rounds: &Rounds) {
    let first = &rounds.measured[0];
    report.set(
        "source.pages_per_query",
        first.counter("pages") as f64 / first.queries as f64,
    );
    let rows = first.counter("appended_rows") as f64;
    report.set(
        "append.rows_per_s",
        rounds.median_of(|r| rows / (r.calls_ms[APPEND].iter().sum::<f64>() / 1e3)),
    );
    report.set(
        "append.journal_bytes_per_data_byte",
        first.counter("journal_bytes") as f64 / (rows * (COLS * ATTRS * 8) as f64),
    );
}
