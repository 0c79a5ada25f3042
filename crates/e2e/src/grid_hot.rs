//! `grid_hot` — the cache-hit control. 256 seeded linear models ×
//! K∈{10,100} through `resilient_top_k` (the Q=1 × 1-shard × 1-thread
//! path every other engine must equal) over the rough four-band 1024²
//! world, behind one `CachedTileSource` that holds every page. After the
//! warm-up round nothing is fetched: descent, `bound_over_box` and the
//! mutex-guarded hit path do all the work; page fetch, merge, pool,
//! journal and `mbir-index` do none.
//!
//! Its traced run also times, on this world and these models, the layers
//! that work here: pyramid build (from the set-up), `bound_over_box`,
//! `evaluate`, the resident `base_cell` hit, and the engine over a free
//! in-memory source.

use crate::harness::{
    bench_ns, expect_for, measure, median, passes, timed, Answer, Entry, Rng, RoundRecord, Rounds,
    Setup, LAYER_REPS,
};
use crate::metrics::Report;
use crate::trace::{self, TracedSource, Tracer, OP_QUERY};
use crate::worlds::{model_family, rough_world, GridOracle, JITTER, TILE};
use crate::Config;
use mbir_archive::grid::Grid2;
use mbir_archive::stats::AccessStats;
use mbir_archive::tile::TileStore;
use mbir_core::resilient::{resilient_top_k, ExecutionBudget, ResilientHit, ResilientTopK};
use mbir_core::source::{CachedTileSource, CellSource, PyramidSource};
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::hint::black_box;
use std::time::Instant;

pub const NAME: &str = "grid_hot";
const SIDE: usize = 1024;
const ATTRS: usize = 4;
const MODELS: usize = 256;
const KS: [usize; 2] = [10, 100];
/// Seconds one pass over the 512 distinct queries took on the sizing host.
const PASS_S: f64 = 0.2;

/// A resilient answer reduced to what correctness needs.
pub fn answer_of(hits: &[ResilientHit], completeness: f64, madds: u64, cols: usize) -> Answer {
    Answer {
        entries: hits
            .iter()
            .map(|h| ((h.cell.row * cols + h.cell.col) as u64, h.score.to_bits()))
            .collect(),
        // A degraded stand-in is not an answer, whatever the fraction says.
        completeness: if hits.iter().all(|h| h.exact) {
            completeness
        } else {
            0.0
        },
        madds,
    }
}

/// [`answer_of`] for the solo engine's result.
pub fn solo_answer(r: ResilientTopK, cols: usize) -> Answer {
    answer_of(&r.results, r.completeness, r.effort.multiply_adds, cols)
}

struct World<'a> {
    pyramids: &'a [AggregatePyramid],
    stats: &'a AccessStats,
    models: &'a [LinearModel],
    ops: &'a [(usize, usize)],
    oracle: &'a GridOracle,
}

impl World<'_> {
    /// One round over the op list through `source`.
    fn round<S: CellSource>(
        &self,
        source: &S,
        warm: Option<&[u64]>,
        tracer: Option<&Tracer>,
    ) -> RoundRecord {
        let budget = ExecutionBudget::unlimited();
        let mut rec = RoundRecord::default();
        let before = source_counters([self.stats]);
        let t0 = Instant::now();
        for (i, &(m, k)) in self.ops.iter().enumerate() {
            let truth: Vec<Entry> = match warm {
                None => self.oracle.entries(m, k),
                Some(_) => Vec::new(),
            };
            rec.op(1, &expect_for(warm, i, &truth), || {
                trace::root(tracer, OP_QUERY, i, || {
                    resilient_top_k(&self.models[m], self.pyramids, k, source, &budget)
                })
                .map(|r| solo_answer(r, SIDE))
            });
        }
        rec.wall_s = t0.elapsed().as_secs_f64();
        add_source_counters(&mut rec, before, source_counters([self.stats]));
        rec
    }
}

/// `[pages read, cache hits, cache misses]` summed over `stats`.
pub fn source_counters<'a>(stats: impl IntoIterator<Item = &'a AccessStats>) -> [u64; 3] {
    stats.into_iter().fold([0; 3], |[p, h, m], s| {
        [p + s.pages_read(), h + s.cache_hits(), m + s.cache_misses()]
    })
}

/// Files what a round added to [`source_counters`].
pub fn add_source_counters(rec: &mut RoundRecord, before: [u64; 3], after: [u64; 3]) {
    for (i, name) in ["pages", "cache_hits", "cache_misses"]
        .into_iter()
        .enumerate()
    {
        rec.add(name, after[i] - before[i]);
    }
}

impl World<'_> {
    /// The layers that work in this workload, each timed alone on its data.
    fn fill_layers(&self, report: &mut Report, resident: &CachedTileSource<'_>) {
        // Boxes a descent really bounds: every level-3 cell's value ranges.
        let (rows, cols) = self.pyramids[0].level_shape(3);
        let boxes: Vec<Vec<(f64, f64)>> = (0..rows * cols)
            .map(|i| {
                self.pyramids
                    .iter()
                    .map(|p| {
                        let s = p.cell(3, i / cols, i % cols).expect("in-bounds");
                        (s.min, s.max)
                    })
                    .collect()
            })
            .collect();
        let points: Vec<Vec<f64>> = boxes
            .iter()
            .map(|b| b.iter().map(|r| r.0).collect())
            .collect();
        let models = self.models;
        report.set(
            "models.linear.bound_over_box_ns",
            bench_ns(LAYER_REPS, 200_000, |i| {
                let model = &models[i % models.len()];
                black_box(
                    model
                        .bound_over_box(black_box(&boxes[i % boxes.len()]))
                        .ok(),
                );
            }),
        );
        report.set(
            "models.linear.evaluate_ns",
            bench_ns(LAYER_REPS, 200_000, |i| {
                let model = &models[i % models.len()];
                black_box(model.evaluate(black_box(&points[i % points.len()])));
            }),
        );
        // The queries left the pages they touch resident; these reads walk
        // the whole world, so the first repetition loads the rest and the
        // median is over hits.
        report.set(
            "core.source.hit_ns",
            bench_ns(LAYER_REPS, 200_000, |i| {
                black_box(
                    resident
                        .base_cell(i % ATTRS, (i * 37) % SIDE, (i * 101) % SIDE)
                        .ok(),
                );
            }),
        );
        // The same queries over a free source: descent and bounds alone.
        let budget = ExecutionBudget::unlimited();
        let inmem = PyramidSource::new(self.pyramids);
        let sample = &self.ops[..MODELS * KS.len()];
        report.set(
            "core.resilient.inmem_query_us",
            bench_ns(LAYER_REPS, sample.len(), |i| {
                let (m, k) = sample[i];
                black_box(resilient_top_k(&models[m], self.pyramids, k, &inmem, &budget).ok());
            }) / 1e3,
        );
    }
}

pub fn build_pyramids(bands: &[Grid2<f64>]) -> Vec<AggregatePyramid> {
    bands.iter().map(AggregatePyramid::build).collect()
}

/// One page store per band, all counting into `stats`.
pub fn build_stores(bands: Vec<Grid2<f64>>, stats: &AccessStats) -> Vec<TileStore> {
    bands
        .into_iter()
        .map(|b| {
            TileStore::new(b, TILE)
                .expect("non-zero tile")
                .with_stats(stats.clone())
        })
        .collect()
}

/// The set-up's two parts (medians over its builds) and the pyramid build
/// rate over `cells` cells.
pub fn fill_build_layers(report: &mut Report, cells: usize, pyramid_s: &[f64], store_s: &[f64]) {
    report.set("setup.pyramid_build_s", median(pyramid_s));
    report.set("setup.store_build_s", median(store_s));
    report.set(
        "progressive.pyramid.build_mcells_per_s",
        cells as f64 / 1e6 / median(pyramid_s),
    );
}

pub fn run(cfg: &Config) -> Report {
    let (gen_s, bands) = timed(|| rough_world(SIDE, SIDE, ATTRS));
    let (mut pyramid_s, mut store_s) = (Vec::new(), Vec::new());
    let setup = Setup::build(|| {
        let (s, pyramids) = timed(|| build_pyramids(&bands));
        pyramid_s.push(s);
        let stats = AccessStats::new();
        let (s, stores) = timed(|| build_stores(bands.clone(), &stats));
        store_s.push(s);
        (pyramids, stores, stats)
    });
    let (pyramids, stores, stats) = &setup.state;

    let models = model_family(cfg.seed, MODELS, ATTRS, JITTER);
    let mut ops: Vec<(usize, usize)> = (0..passes(cfg.seconds, PASS_S))
        .flat_map(|_| (0..MODELS).flat_map(|m| KS.map(|k| (m, k))))
        .collect();
    Rng::new(cfg.seed).shuffle(&mut ops);
    let (oracle_s, oracle) = timed(|| {
        let mut oracle = GridOracle::new(&models, KS[1], SIDE);
        oracle.extend(&bands, 0);
        oracle
    });

    let world = World {
        pyramids,
        stats,
        models: &models,
        ops: &ops,
        oracle: &oracle,
    };
    // Capacity holds every page: resident after the warm-up round, so
    // every measured round starts from the same (fully resident) state.
    let source = CachedTileSource::new(stores, stores[0].page_count()).expect("aligned stores");
    let rounds = measure(cfg.rounds(), true, |warm| world.round(&source, warm, None));

    let mut report = crate::report_for(NAME, &rounds, &setup.builds_s);
    crate::print_rounds(NAME, &rounds);
    if cfg.traced {
        crate::fill_setup_layers(&mut report, gen_s, oracle_s, &setup.builds_s);
        fill_build_layers(&mut report, SIDE * SIDE * ATTRS, &pyramid_s, &store_s);
        fill_source_counters(&mut report, &rounds);
        let tracer = Tracer::default();
        let traced = world.round(
            &TracedSource::new(&source, &tracer),
            Some(&rounds.warmup.fingerprints),
            Some(&tracer),
        );
        crate::fill_trace(&mut report, cfg, &rounds, &traced, tracer);
        world.fill_layers(&mut report, &source);
    }
    report
}

/// Pages and cache behaviour per query, from the measured rounds.
pub fn fill_source_counters(report: &mut Report, rounds: &Rounds) {
    let r = &rounds.measured[0];
    let q = r.queries as f64;
    report.set("source.pages_per_query", r.counter("pages") as f64 / q);
    let lookups = r.counter("cache_hits") + r.counter("cache_misses");
    if lookups > 0 {
        report.set(
            "source.hit_rate",
            r.counter("cache_hits") as f64 / lookups as f64,
        );
    }
}
