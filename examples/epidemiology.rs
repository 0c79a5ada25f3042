//! Environmental epidemiology: the paper's lead scenario.
//!
//! Plants a Hantavirus Pulmonary Syndrome risk surface over a synthetic
//! scene + DEM, samples incident reports from it, then:
//!
//! * retrieves the top-K risk locations and scores them with §4.1's
//!   precision/recall,
//! * sweeps the decision threshold to show the miss / false-alarm cost
//!   trade-off,
//! * evaluates individual houses with the Fig. 3 Bayesian network.
//!
//! Run with: `cargo run --example epidemiology`

use mbir::core::metrics::{precision_recall_at_k, roc_curve, threshold_sweep};
use mbir::models::bayes::hps_net::{hps_network, risk_given_observations};
use mbir::models::linear::{hps_risk_grid, HpsRiskModel};
use mbir_archive::dem::Dem;
use mbir_archive::gis::{PointFeature, PointLayer};
use mbir_archive::scene::SyntheticScene;
use mbir_archive::synth::OccurrenceSampler;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The study area.
    let rows = 128;
    let cols = 128;
    let scene = SyntheticScene::new(7, rows, cols).generate();
    let dem = Dem::synthetic(8, rows, cols, 100.0, 2200.0);

    // The model risk surface and the "observed" incidents: Poisson draws
    // whose rate follows the (normalized) risk — the planted ground truth
    // that replaces proprietary health records.
    let model = HpsRiskModel::paper();
    let risk = hps_risk_grid(&model, &scene, &dem)?;
    let normalized = risk.normalized(0.0, 1.0);
    let hot = normalized.map(|&v| if v > 0.8 { v } else { 0.0 });
    let occurrences = OccurrenceSampler::new(9).with_base_rate(1.5).sample(&hot);
    let cases: u32 = occurrences.iter().map(|(_, &o)| o).sum();
    println!(
        "planted {} HPS case reports over {}x{} cells",
        cases, rows, cols
    );

    // Top-K retrieval accuracy (§4.1).
    println!("\nprecision/recall of top-K retrieval by model risk:");
    println!("{:>6} {:>10} {:>10}", "K", "precision", "recall");
    for k in [10usize, 50, 100, 250, 500] {
        let pr = precision_recall_at_k(&risk, &occurrences, k)?;
        println!("{:>6} {:>10.3} {:>10.3}", k, pr.precision, pr.recall);
    }

    // Decision-cost trade-off: misses cost 10x a false alarm (field teams
    // are cheap; missed outbreaks are not).
    let (lo, hi) = risk.min_max().expect("non-empty risk grid");
    let thresholds: Vec<f64> = (0..=10).map(|i| lo + (hi - lo) * i as f64 / 10.0).collect();
    println!("\ncost sweep (miss cost 10, false-alarm cost 1):");
    println!(
        "{:>10} {:>8} {:>13} {:>10}",
        "threshold", "misses", "false alarms", "total cost"
    );
    let sweep = threshold_sweep(&risk, &occurrences, None, 10.0, 1.0, &thresholds)?;
    for (t, report) in &sweep {
        println!(
            "{:>10.1} {:>8} {:>13} {:>10.0}",
            t, report.misses, report.false_alarms, report.total_cost
        );
    }
    let best = sweep
        .iter()
        .min_by(|a, b| a.1.total_cost.total_cmp(&b.1.total_cost))
        .expect("non-empty sweep");
    println!(
        "cheapest threshold: {:.1} (C_T = {:.0})",
        best.0, best.1.total_cost
    );

    // Threshold-free summary: how well does R(x,y) order risky above safe?
    let (_, auc) = roc_curve(&risk, &occurrences)?;
    println!("ROC AUC of the risk ranking: {auc:.3}");

    // House-level knowledge model (Fig. 3): multi-modal evidence.
    let (net, nodes) = hps_network();
    let mut houses = PointLayer::default();
    houses.push(
        PointFeature::new(0.2, 0.4)
            .with_attr("bushes", true)
            .with_attr("wet_then_dry", true),
    );
    houses.push(
        PointFeature::new(0.7, 0.1)
            .with_attr("bushes", false)
            .with_attr("wet_then_dry", true),
    );
    houses.push(
        PointFeature::new(0.5, 0.9)
            .with_attr("bushes", true)
            .with_attr("wet_then_dry", false),
    );
    println!("\nBayesian house assessment (Fig. 3 network):");
    for (i, house) in houses.iter().enumerate() {
        let bushes = house.attr_f64("bushes").unwrap_or(0.0) > 0.5;
        let season = house.attr_f64("wet_then_dry").unwrap_or(0.0) > 0.5;
        let p = risk_given_observations(&net, &nodes, true, bushes, season, season)?;
        println!(
            "  house {} at ({:.1}, {:.1}): bushes={} wet-then-dry={}  ->  P(high risk) = {:.3}",
            i, house.x, house.y, bushes, season, p
        );
    }
    Ok(())
}
