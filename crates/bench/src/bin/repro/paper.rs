//! The paper's own tables: E1–E7 reproduce the §3–§4 claims, F1–F5 the
//! figures' models, A1–A2 the ablations. None of them writes an artifact.

use mbir_archive::grid::Grid2;
use mbir_archive::synth::{gaussian_tuples, OccurrenceSampler};
use mbir_archive::weather::WeatherGenerator;
use mbir_archive::welllog::WellLog;
use mbir_bench::{
    classification_world, hps_world, onion_workload, sproc_workload, texture_world,
    wide_model_world,
};
use mbir_core::engine::{combined_top_k, naive_grid_top_k, pyramid_top_k, staged_top_k, GridTopK};
use mbir_core::metrics::{precision_recall_at_k, threshold_sweep};
use mbir_core::workflow::{run_workflow, WorkflowConfig};
use mbir_index::onion::OnionIndex;
use mbir_index::rstar::RStarTree;
use mbir_index::scan::{scan_top_k, scan_top_k_flat};
use mbir_index::sproc::SprocIndex;
use mbir_index::stats::TopKResult;
use mbir_index::store::PointStore;
use mbir_models::bayes::hps_net::{hps_network, risk_given_observations};
use mbir_models::fsm::fire_ants::screened_fly_detection;
use mbir_models::knowledge::geology::RiverbedModel;
use mbir_models::linear::LinearModel;
use mbir_progressive::features::{progressive_texture_match, tile_features, TileFeatures};
use std::time::Instant;

/// E1 — Onion vs sequential scan on 3-attribute Gaussian data (§3.2).
pub fn e1_onion() {
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
pub fn e2_progressive_classification() {
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
pub fn e3_progressive_texture() {
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
pub fn e4_sproc() {
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
pub fn e5_accuracy() {
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
pub fn e6_combined_speedup() {
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
        let staged = model_only.results.iter().map(|i| i.score);
        assert_exact("E6 model-only", staged, &naive);
        assert_exact("E6 data-only", grid_scores(&data_only), &naive);
        assert_exact("E6 combined", grid_scores(&both), &naive);
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

fn grid_scores(r: &GridTopK) -> impl Iterator<Item = f64> + '_ {
    r.results.iter().map(|c| c.score)
}

/// Asserts an engine's top-K scores equal the naive scan's, to the
/// rounding of a different summation order.
fn assert_exact(engine: &str, got: impl Iterator<Item = f64>, naive: &GridTopK) {
    let got: Vec<f64> = got.collect();
    let same = got.len() == naive.results.len()
        && got
            .iter()
            .zip(grid_scores(naive))
            .all(|(a, b)| (a - b).abs() < 1e-9);
    assert!(same, "{engine} is not the naive top-K: {got:?}");
}

/// E7 — R*-tree is sub-optimal for model queries (§3.2).
pub fn e7_rstar_baseline() {
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
pub fn f1_fire_ants() {
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
pub fn f3_hps_network() {
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
pub fn f4_geology() {
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
pub fn f5_workflow() {
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

/// A1 — ablation: which Onion design choices carry the speedup?
/// (hint support vs generic bounds; number of peeled layers; the layer
/// cap of the default build).
pub fn a1_onion_ablation() {
    println!("\n## A1 — Ablation: Onion bound type and layer budget\n");
    let n = 200_000usize;
    let (points, dir) = onion_workload(17, n);
    let k = 10;
    let scan = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
    println!("| variant | layers built | tuples examined | speedup |");
    println!("|---|---|---|---|");
    let row = |label: &str, index: &OnionIndex| {
        let r = index.top_k_max(&dir, k).expect("valid query");
        assert!(r.score_equivalent(&scan, 1e-9), "{label} must stay exact");
        println!(
            "| {label} | {} | {} | {:.0}x |",
            index.layer_count(),
            r.stats.tuples_examined,
            r.stats.speedup_vs(&scan.stats).unwrap_or(0.0)
        );
        r.stats.tuples_examined
    };
    let mut deep_generic = 0;
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
        let tuples = row(label, &index);
        if !hints && max_layers == 64 {
            deep_generic = tuples;
        }
    }
    let default = OnionIndex::build(points).expect("valid workload");
    let default_tuples = row("default build (`OnionIndex::build`)", &default);
    println!("\nEvery variant is exact; the ablation only moves the work.");
    assert!(
        default_tuples <= deep_generic,
        "the default build examines {default_tuples} tuples, the 64-layer unhinted build \
         {deep_generic}"
    );
    a1_cap_sweep();
    a1_hinted_ceiling();
}

/// The layer caps A1's sweep compares.
const SWEEP_CAPS: [usize; 6] = [0, 2, 4, 8, 16, 64];

/// The result sizes A1's sweep asks for.
const SWEEP_KS: [usize; 3] = [1, 10, 100];

/// The sweep's cell (n, d) where `repro a1` checks the default build.
const SMALL_CELL: (usize, usize) = (20_000, 3);

/// `count` query directions drawn like `tuple_topk`'s: each coefficient
/// uniform in `[-1, 1)` from one fixed family, then moved by up to ±0.02.
/// The generator is `rand`'s, not the e2e crate's, so the law is the
/// same and the values are not.
fn jittered_directions(count: usize, d: usize) -> Vec<Vec<f64>> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut family = StdRng::seed_from_u64(0x6d62_6972);
    let mut jitter = StdRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            (0..d)
                .map(|_| {
                    let c = 2.0 * family.random::<f64>() - 1.0;
                    c + 0.02 * (2.0 * jitter.random::<f64>() - 1.0)
                })
                .collect()
        })
        .collect()
}

/// Mean tuples examined by `index` over `dirs` at `k`, each answer
/// checked against the flat scan's.
fn mean_tuples(index: &OnionIndex, dirs: &[Vec<f64>], k: usize, truth: &[TopKResult]) -> f64 {
    let mut total = 0u64;
    for (dir, expect) in dirs.iter().zip(truth) {
        let r = index.top_k_max(dir, k).expect("valid query");
        assert_eq!(r.results, expect.results, "every cap answers like the scan");
        total += r.stats.tuples_examined;
    }
    total as f64 / dirs.len() as f64
}

/// A1's cap sweep: tuples examined per unhinted call for every cap in
/// [`SWEEP_CAPS`], over `gaussian_tuples(13, n, d)` and 64 jittered
/// directions. The rule that chose the default cap: the cap with the
/// smallest worst-case ratio of its tuples to the best cap's, over every
/// (n, d, K) cell. Panics unless the default build walks like the rule's
/// cap on the n = 20,000, d = 3 cell.
fn a1_cap_sweep() {
    println!("\n### Layer cap of an unhinted build (tuples examined per call)\n");
    let caps = SWEEP_CAPS.map(|cap| format!("cap {cap}")).join(" | ");
    println!("| n | d | K | {caps} |");
    println!("|---|---|---|{}", "---|".repeat(SWEEP_CAPS.len()));
    let mut worst = [1.0f64; SWEEP_CAPS.len()];
    let mut builds = Vec::new();
    // The default build's tuples and the caps' on the small d = 3 cell,
    // one entry per K, to check the default against the rule's cap.
    let mut small_cell = Vec::new();
    for (n, d) in [
        (200_000usize, 2usize),
        (200_000, 3),
        (20_000, 3),
        (200_000, 4),
        (200_000, 8),
    ] {
        let points = gaussian_tuples(13, n, d);
        let store = PointStore::from_rows(&points).expect("rectangular points");
        let dirs = jittered_directions(64, d);
        let mut build_s = Vec::new();
        let mut timed = |build: &dyn Fn() -> OnionIndex| {
            let t = Instant::now();
            let index = build();
            build_s.push(t.elapsed().as_secs_f64());
            index
        };
        let indexes: Vec<OnionIndex> = SWEEP_CAPS
            .iter()
            .map(|&cap| {
                timed(&|| OnionIndex::build_with(points.clone(), cap, 32, 7).expect("valid"))
            })
            .collect();
        builds.push((n, d, build_s));
        let default =
            ((n, d) == SMALL_CELL).then(|| OnionIndex::build(points.clone()).expect("valid"));
        for k in SWEEP_KS {
            let truth: Vec<TopKResult> = dirs
                .iter()
                .map(|dir| scan_top_k_flat(&store, dir, k))
                .collect();
            let cells: Vec<f64> = indexes
                .iter()
                .map(|index| mean_tuples(index, &dirs, k, &truth))
                .collect();
            let best = cells.iter().copied().fold(f64::INFINITY, f64::min);
            for (w, cell) in worst.iter_mut().zip(&cells) {
                *w = w.max(cell / best);
            }
            let row = cells.iter().map(|c| format!("{c:.0}")).collect::<Vec<_>>();
            println!("| {n} | {d} | {k} | {} |", row.join(" | "));
            if let Some(default) = &default {
                small_cell.push((k, mean_tuples(default, &dirs, k, &truth), cells));
            }
        }
    }
    let ratios = worst.map(|w| format!("{w:.2}")).join(" | ");
    println!("| worst ratio to the cell's best cap | | | {ratios} |");
    let (rule, _) = SWEEP_CAPS
        .iter()
        .enumerate()
        .zip(&worst)
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("caps to compare");
    let (n, d) = SMALL_CELL;
    for (k, tuples, cells) in &small_cell {
        assert_eq!(
            *tuples, cells[rule.0],
            "n = {n}, d = {d}, K = {k}: the default build walks unlike the rule's cap {}",
            rule.1
        );
    }
    println!(
        "\nThe smallest worst-case ratio is cap {}'s, and the default build walks like it \
         (checked at n = {n}, d = {d}). Build seconds:\n",
        rule.1
    );
    println!("| n | d | {caps} |");
    println!("|---|---|{}", "---|".repeat(SWEEP_CAPS.len()));
    for (n, d, build_s) in builds {
        let cells = build_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>();
        println!("| {n} | {d} | {} |", cells.join(" | "));
    }
}

/// What stored supports could still buy the unhinted default build:
/// on `tuple_topk`'s data, each of 16 directions asked of a 64-layer
/// build hinted with that very direction, against the default build.
fn a1_hinted_ceiling() {
    let points = gaussian_tuples(13, 200_000, 3);
    let dirs = jittered_directions(16, 3);
    let default = OnionIndex::build(points.clone()).expect("valid workload");
    let (mut own_hint, mut unhinted) = (0u64, 0u64);
    for dir in &dirs {
        let hinted =
            OnionIndex::build_with_hints(points.clone(), std::slice::from_ref(dir), 64, 32, 7)
                .expect("valid workload");
        let a = hinted.top_k_max(dir, 10).expect("valid query");
        let b = default.top_k_max(dir, 10).expect("valid query");
        assert_eq!(a.results, b.results, "hinted and unhinted walks agree");
        own_hint += a.stats.tuples_examined;
        unhinted += b.stats.tuples_examined;
    }
    println!(
        "\nCeiling of stored supports (n = 200,000, d = 3, K = 10, {} directions): a walk \
         hinted with its own direction at 64 layers examines {:.0} tuples per call, the \
         default build {:.0}.",
        dirs.len(),
        own_hint as f64 / dirs.len() as f64,
        unhinted as f64 / dirs.len() as f64
    );
}

/// A2 — ablation: progressive-data speedup vs spatial coherence.
pub fn a2_coherence_ablation() {
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
        let naive = naive_grid_top_k(&model, &pyramids, 10).expect("valid inputs");
        assert_exact("A2 data-only", grid_scores(&fast), &naive);
        println!(
            "| {roughness:.1} | {autocorr:.3} | {:.1}x |",
            fast.effort.speedup()
        );
    }
    println!("\nThe progressive-data mechanism is a bet on spatial coherence; uncorrelated data defeats it (speedup < 1 means bound evaluations outweighed the savings).");
}
