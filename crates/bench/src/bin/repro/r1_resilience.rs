//! R1 — retrieval under fault injection: completeness, skipped pages, and
//! budget stops instead of aborted queries.

use crate::harness::{covers, faulted, slow};
use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
use mbir_archive::tile::TileStore;
use mbir_bench::hps_paged_world;
use mbir_core::engine::pyramid_top_k;
use mbir_core::resilient::{resilient_top_k, ExecutionBudget};
use mbir_core::source::{CellSource, TileSource};

pub fn run() {
    println!("\n## R1 — Resilient retrieval under archive faults\n");
    let side = 128usize;
    let k = 10usize;
    let (pyramids, stores, model, _) = hps_paged_world(13, side, side, 16);
    let page_count = stores[0].page_count();
    let strict = pyramid_top_k(model.model(), &pyramids, k).expect("valid");

    let with_profile = |profile: FaultProfile, config: ResilienceConfig| -> Vec<TileStore> {
        faulted(&stores, Some(&profile))
            .into_iter()
            .map(|s| s.with_resilience(config))
            .collect()
    };
    // Measure the healthy run first so the fault scenarios are calibrated
    // to pages the query actually needs, not arbitrary page numbers.
    let healthy = with_profile(FaultProfile::new(), ResilienceConfig::none());
    let healthy_src = TileSource::new(&healthy).expect("aligned");
    resilient_top_k(
        model.model(),
        &pyramids,
        k,
        &healthy_src,
        &ExecutionBudget::unlimited(),
    )
    .expect("healthy run");
    let pages_needed = healthy_src.pages_read().max(2);
    let hot_pages: Vec<usize> = strict
        .results
        .iter()
        .map(|sc| stores[0].page_of(sc.cell.row, sc.cell.col))
        .collect();

    let retry2 = ResilienceConfig::new(RetryPolicy::retries(2), Some(4));
    let scenarios: Vec<(String, Vec<TileStore>, ExecutionBudget)> = vec![
        (
            "healthy, unlimited".to_owned(),
            healthy,
            ExecutionBudget::unlimited(),
        ),
        (
            "transient flakes (heal after 1), 2 retries".to_owned(),
            with_profile(
                (0..page_count).fold(FaultProfile::new(), |p, pg| p.transient(pg, 1)),
                retry2,
            ),
            ExecutionBudget::unlimited(),
        ),
        (
            "hot pages lost, 2 retries + quarantine".to_owned(),
            with_profile(
                hot_pages
                    .iter()
                    .fold(FaultProfile::new(), |p, pg| p.permanent(*pg)),
                retry2,
            ),
            ExecutionBudget::unlimited(),
        ),
        (
            format!(
                "healthy, page budget {} of {pages_needed}",
                pages_needed / 2
            ),
            with_profile(FaultProfile::new(), ResilienceConfig::none()),
            ExecutionBudget::unlimited().with_max_page_reads(pages_needed / 2),
        ),
        (
            "slow pages (20 ticks), half-time deadline".to_owned(),
            with_profile(slow(page_count, 20), ResilienceConfig::none()),
            // Healthy cost is 1 tick/access; with latency it is 21.
            ExecutionBudget::unlimited().with_deadline_ticks(pages_needed * 21 / 2),
        ),
    ];

    println!("| scenario | completeness | skipped pages | exact hits | degraded | budget stop | top-1 in bounds |");
    println!("|---|---|---|---|---|---|---|");
    for (label, faulty_stores, budget) in &scenarios {
        let src = TileSource::new(faulty_stores).expect("aligned");
        let r = resilient_top_k(model.model(), &pyramids, k, &src, budget).expect("never aborts");
        let exact = r.results.iter().filter(|h| h.exact).count();
        let covered = covers(&r.results, strict.results[0].score);
        println!(
            "| {label} | {:.3} | {} | {} | {} | {} | {} |",
            r.completeness,
            r.skipped_pages.len(),
            exact,
            r.results.len() - exact,
            r.budget_stop.map_or("-".to_owned(), |s| s.to_string()),
            if covered { "yes" } else { "no" },
        );
    }
    println!("\nEvery scenario returns {k} ranked entries with sound score bounds;");
    println!("degradation is reported, never silent, and no query aborts.");
}
