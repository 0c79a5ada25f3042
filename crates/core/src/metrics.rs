//! Model accuracy metrics (paper §4.1).
//!
//! Two views of accuracy:
//!
//! * **Decision costs** — misses (high-risk ground truth classified low)
//!   and false alarms (low-risk classified high), with per-type costs
//!   `c_m`, `c_f`, location weights `w(x,y)`, and the weighted total
//!   `C_T = Σ w(x,y) C(x,y)`.
//! * **Retrieval quality** — precision and recall of the top-K cells
//!   ranked by model risk against observed occurrences (`O(x,y) > 0`).
//!
//! Note on the paper's formulas: §4.1 writes `P_m = Prob[R > T | O = 0]`
//! and `P_f = Prob[R < T | O > 0]`, which *swaps* the usual definitions
//! (a miss is a truly-risky location predicted safe). This module uses the
//! standard semantics — miss ⇔ `R < T ∧ O > 0`, false alarm ⇔
//! `R ≥ T ∧ O = 0` — and EXPERIMENTS.md records the discrepancy.

use crate::error::CoreError;
use mbir_archive::extent::CellCoord;
use mbir_archive::grid::Grid2;

/// Cost parameters for the §4.1 decision-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost `c_m` of a miss.
    pub miss_cost: f64,
    /// Cost `c_f` of a false alarm.
    pub false_alarm_cost: f64,
    /// Decision threshold `T` on the risk value.
    pub threshold: f64,
}

/// Outcome of a cost evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostReport {
    /// Number of miss cells.
    pub misses: u64,
    /// Number of false-alarm cells.
    pub false_alarms: u64,
    /// Empirical miss rate `P[R < T | O > 0]`.
    pub miss_rate: f64,
    /// Empirical false-alarm rate `P[R >= T | O = 0]`.
    pub false_alarm_rate: f64,
    /// The weighted total cost `C_T`.
    pub total_cost: f64,
}

/// Evaluates the §4.1 cost model of a risk surface against observed
/// occurrences, with optional per-location weights (population etc.;
/// `None` = uniform weight 1).
///
/// # Errors
///
/// Returns [`CoreError::Query`] when the grids are misaligned.
pub fn total_cost(
    risk: &Grid2<f64>,
    occurrences: &Grid2<u32>,
    weights: Option<&Grid2<f64>>,
    params: CostParams,
) -> Result<CostReport, CoreError> {
    let aligned = risk.rows() == occurrences.rows() && risk.cols() == occurrences.cols();
    if !aligned {
        return Err(CoreError::Query(
            "risk and occurrence grids misaligned".into(),
        ));
    }
    if let Some(w) = weights {
        if w.rows() != risk.rows() || w.cols() != risk.cols() {
            return Err(CoreError::Query("weight grid misaligned".into()));
        }
    }
    let mut report = CostReport::default();
    let mut positives = 0u64;
    let mut negatives = 0u64;
    for r in 0..risk.rows() {
        for c in 0..risk.cols() {
            let predicted_high = *risk.at(r, c) >= params.threshold;
            let observed = *occurrences.at(r, c) > 0;
            let w = weights.map(|g| *g.at(r, c)).unwrap_or(1.0);
            if observed {
                positives += 1;
                if !predicted_high {
                    report.misses += 1;
                    report.total_cost += w * params.miss_cost;
                }
            } else {
                negatives += 1;
                if predicted_high {
                    report.false_alarms += 1;
                    report.total_cost += w * params.false_alarm_cost;
                }
            }
        }
    }
    report.miss_rate = if positives > 0 {
        report.misses as f64 / positives as f64
    } else {
        0.0
    };
    report.false_alarm_rate = if negatives > 0 {
        report.false_alarms as f64 / negatives as f64
    } else {
        0.0
    };
    Ok(report)
}

/// Sweeps the decision threshold, returning `(threshold, report)` pairs —
/// the miss/false-alarm trade-off curve §4.1 describes.
///
/// # Errors
///
/// Same alignment requirements as [`total_cost`].
pub fn threshold_sweep(
    risk: &Grid2<f64>,
    occurrences: &Grid2<u32>,
    weights: Option<&Grid2<f64>>,
    miss_cost: f64,
    false_alarm_cost: f64,
    thresholds: &[f64],
) -> Result<Vec<(f64, CostReport)>, CoreError> {
    thresholds
        .iter()
        .map(|&threshold| {
            total_cost(
                risk,
                occurrences,
                weights,
                CostParams {
                    miss_cost,
                    false_alarm_cost,
                    threshold,
                },
            )
            .map(|r| (threshold, r))
        })
        .collect()
}

/// Precision/recall of a top-K retrieval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrReport {
    /// Number of cells retrieved.
    pub k: usize,
    /// Retrieved cells that are correct (`O > 0`).
    pub hits: u64,
    /// Total correct cells in the region.
    pub relevant: u64,
    /// `hits / k`.
    pub precision: f64,
    /// `hits / relevant`.
    pub recall: f64,
}

/// Precision and recall of retrieving the top-K risk cells (§4.1: "the
/// correct results are defined as those locations within a region where
/// O(x,y) > 0 ... the top-K retrieval is really based on the ordering of
/// R(x,y)").
///
/// # Errors
///
/// Returns [`CoreError::Query`] for misaligned grids or `k == 0`.
pub fn precision_recall_at_k(
    risk: &Grid2<f64>,
    occurrences: &Grid2<u32>,
    k: usize,
) -> Result<PrReport, CoreError> {
    if k == 0 {
        return Err(CoreError::Query("k must be >= 1".into()));
    }
    if risk.rows() != occurrences.rows() || risk.cols() != occurrences.cols() {
        return Err(CoreError::Query(
            "risk and occurrence grids misaligned".into(),
        ));
    }
    let mut scored: Vec<(f64, CellCoord)> = risk.iter().map(|(cc, &v)| (v, cc)).collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let k = k.min(scored.len());
    let hits = scored[..k]
        .iter()
        .filter(|(_, cc)| *occurrences.at(cc.row, cc.col) > 0)
        .count() as u64;
    let relevant = occurrences.iter().filter(|(_, &o)| o > 0).count() as u64;
    Ok(PrReport {
        k,
        hits,
        relevant,
        precision: hits as f64 / k as f64,
        recall: if relevant > 0 {
            hits as f64 / relevant as f64
        } else {
            0.0
        },
    })
}

/// One point on a receiver-operating-characteristic curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// True-positive rate (`1 - miss rate`).
    pub tpr: f64,
    /// False-positive rate (= false-alarm rate).
    pub fpr: f64,
}

/// The ROC curve of a risk surface against observed occurrences, computed
/// exactly from the sorted score sweep, plus the area under it.
///
/// This extends §4.1's two-error-rate analysis to the full trade-off curve;
/// AUC summarizes how well `R(x,y)` orders risky above safe locations
/// independent of any threshold.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for misaligned grids, a NaN risk value, or
/// when either class (occurrence / no-occurrence) is empty.
pub fn roc_curve(
    risk: &Grid2<f64>,
    occurrences: &Grid2<u32>,
) -> Result<(Vec<RocPoint>, f64), CoreError> {
    if risk.rows() != occurrences.rows() || risk.cols() != occurrences.cols() {
        return Err(CoreError::Query(
            "risk and occurrence grids misaligned".into(),
        ));
    }
    if let Some((cc, _)) = risk.iter().find(|(_, v)| v.is_nan()) {
        return Err(CoreError::Query(format!(
            "risk cell ({}, {}) holds a NaN value",
            cc.row, cc.col
        )));
    }
    let mut scored: Vec<(f64, bool)> = risk
        .iter()
        .map(|(cc, &v)| (v, *occurrences.at(cc.row, cc.col) > 0))
        .collect();
    let positives = scored.iter().filter(|(_, p)| *p).count() as f64;
    let negatives = scored.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return Err(CoreError::Query(
            "ROC needs both positive and negative cells".into(),
        ));
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut points = Vec::with_capacity(scored.len() + 1);
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut auc = 0.0;
    let mut prev_fpr = 0.0;
    let mut prev_tpr = 0.0;
    let mut i = 0;
    points.push(RocPoint {
        threshold: f64::INFINITY,
        tpr: 0.0,
        fpr: 0.0,
    });
    while i < scored.len() {
        // Advance through ties as one step so the curve is well-defined.
        let t = scored[i].0;
        while i < scored.len() && scored[i].0 == t {
            if scored[i].1 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        let tpr = tp / positives;
        let fpr = fp / negatives;
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0;
        prev_fpr = fpr;
        prev_tpr = tpr;
        points.push(RocPoint {
            threshold: t,
            tpr,
            fpr,
        });
    }
    Ok((points, auc))
}

/// Compact description of how far a resilient answer drifted from exact —
/// the chaos harness's per-run scorecard.
///
/// Storage-layer counters (quarantined pages, cache hits / misses /
/// dedup waits, append-side reads, epoch invalidations) are not copied
/// here: they live on the source's
/// [`AccessStats`](mbir_archive::stats::AccessStats), where the harnesses
/// read them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationSummary {
    /// Fraction of base cells provably accounted for (1.0 = exact).
    pub completeness: f64,
    /// Pages whose cells were lost from the answer.
    pub skipped_pages: usize,
    /// Reported hits whose score is a degraded estimate, not an exact
    /// evaluation.
    pub inexact_hits: usize,
    /// Widest reported `hi - lo` score interval (0.0 when every hit is a
    /// point).
    pub widest_bound: f64,
    /// Whether a budget dimension (including the wall-clock deadline)
    /// stopped the run early.
    pub budget_stopped: bool,
    /// Queries rejected up front by admission control (typed
    /// [`Overloaded`](crate::lifecycle::Overloaded) errors). Always 0
    /// from [`degradation_summary`]; folded in via
    /// [`with_lifecycle`](Self::with_lifecycle).
    pub shed_queries: u64,
    /// Queries cancelled mid-flight via their
    /// [`CancelToken`](crate::lifecycle::CancelToken). Always 0 from
    /// [`degradation_summary`]; folded in via
    /// [`with_lifecycle`](Self::with_lifecycle).
    pub cancelled_queries: u64,
    /// Hedged replica reads issued (see
    /// [`ReplicatedSource::hedged_reads`](crate::replica::ReplicatedSource::hedged_reads)).
    /// Always 0 from [`degradation_summary`]; folded in via
    /// [`with_lifecycle`](Self::with_lifecycle).
    pub hedged_reads: u64,
    /// Pages the winning shard attempts read, from
    /// [`sharded_degradation_summary`]. Always 0 from
    /// [`degradation_summary`]: an unsharded run report carries no I/O
    /// totals (the source's `AccessStats` does).
    pub pages_read: u64,
}

impl DegradationSummary {
    /// Folds lifecycle-layer degradation counters into the scorecard
    /// (builder style), so one report covers every degradation source:
    /// lost pages, budget stops, shed admissions, cancellations, and
    /// hedged reads.
    pub fn with_lifecycle(mut self, shed: u64, cancelled: u64, hedged: u64) -> Self {
        self.shed_queries = shed;
        self.cancelled_queries = cancelled;
        self.hedged_reads = hedged;
        self
    }
}

/// The scorecard fields every run report carries, plus the pages read.
fn summary_of(
    completeness: f64,
    skipped_pages: usize,
    results: &[crate::resilient::ResilientHit],
    budget_stopped: bool,
    pages_read: u64,
) -> DegradationSummary {
    DegradationSummary {
        completeness,
        skipped_pages,
        inexact_hits: results.iter().filter(|h| !h.exact).count(),
        widest_bound: results
            .iter()
            .map(|h| h.bounds.hi - h.bounds.lo)
            .fold(0.0, f64::max),
        budget_stopped,
        pages_read,
        ..DegradationSummary::default()
    }
}

/// Summarizes a [`ResilientTopK`](crate::resilient::ResilientTopK) for
/// degradation reporting. Lifecycle counters (shed / cancelled / hedged)
/// start at zero — one run report cannot see them — and are folded in by
/// the harness via [`DegradationSummary::with_lifecycle`].
pub fn degradation_summary(report: &crate::resilient::ResilientTopK) -> DegradationSummary {
    summary_of(
        report.completeness,
        report.skipped_pages.len(),
        &report.results,
        report.budget_stop.is_some(),
        0,
    )
}

/// Summarizes a [`ShardedTopK`](crate::shard::ShardedTopK) the same way
/// [`degradation_summary`] summarizes an unsharded run, with the winning
/// attempts' page reads already folded in. Per-shard completeness flows
/// through the merged report's cell-weighted completeness; lifecycle
/// counters are folded in by the harness.
pub fn sharded_degradation_summary(report: &crate::shard::ShardedTopK) -> DegradationSummary {
    summary_of(
        report.completeness,
        report.skipped_pages.len(),
        &report.results,
        report.budget_stop.is_some(),
        report.shards.iter().map(|s| s.pages_read).sum(),
    )
}

/// Merges per-shard degradation scorecards into one, each paired with its
/// shard's base-cell count for weighting. The merge *conserves* every
/// count: pages read and skipped (plus the lifecycle counters) are exact
/// sums over the parts, completeness is the cell-weighted mean, the
/// widest bound is the max, and `budget_stopped` is true when any shard
/// stopped early. An empty slice merges to the pristine summary
/// (completeness 1.0, all counters zero).
pub fn merge_shard_summaries(parts: &[(DegradationSummary, u64)]) -> DegradationSummary {
    let total_cells: u64 = parts.iter().map(|(_, cells)| cells).sum();
    let mut merged = DegradationSummary {
        completeness: 1.0,
        ..DegradationSummary::default()
    };
    if total_cells == 0 {
        return merged;
    }
    let mut weighted = 0.0;
    for (part, cells) in parts {
        weighted += part.completeness * *cells as f64;
        merged.skipped_pages += part.skipped_pages;
        merged.inexact_hits += part.inexact_hits;
        merged.widest_bound = merged.widest_bound.max(part.widest_bound);
        merged.budget_stopped |= part.budget_stopped;
        merged.shed_queries += part.shed_queries;
        merged.cancelled_queries += part.cancelled_queries;
        merged.hedged_reads += part.hedged_reads;
        merged.pages_read += part.pages_read;
    }
    merged.completeness = weighted / total_cells as f64;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Risk = column index; occurrences planted in the right half.
    fn fixtures() -> (Grid2<f64>, Grid2<u32>) {
        let risk = Grid2::from_fn(4, 10, |_, c| c as f64);
        let occ = Grid2::from_fn(4, 10, |_, c| u32::from(c >= 5));
        (risk, occ)
    }

    #[test]
    fn perfect_threshold_costs_nothing() {
        let (risk, occ) = fixtures();
        let report = total_cost(
            &risk,
            &occ,
            None,
            CostParams {
                miss_cost: 10.0,
                false_alarm_cost: 1.0,
                threshold: 5.0,
            },
        )
        .unwrap();
        assert_eq!(report.misses, 0);
        assert_eq!(report.false_alarms, 0);
        assert_eq!(report.total_cost, 0.0);
    }

    #[test]
    fn threshold_trades_misses_for_false_alarms() {
        let (risk, occ) = fixtures();
        let sweep = threshold_sweep(&risk, &occ, None, 10.0, 1.0, &[2.0, 5.0, 8.0]).unwrap();
        let (_, low_t) = sweep[0];
        let (_, mid_t) = sweep[1];
        let (_, high_t) = sweep[2];
        // Low threshold: everything flagged -> false alarms, no misses.
        assert_eq!(low_t.misses, 0);
        assert!(low_t.false_alarms > 0);
        // High threshold: misses, no false alarms.
        assert!(high_t.misses > 0);
        assert_eq!(high_t.false_alarms, 0);
        // The well-placed threshold minimizes cost.
        assert!(mid_t.total_cost < low_t.total_cost);
        assert!(mid_t.total_cost < high_t.total_cost);
    }

    #[test]
    fn asymmetric_costs_shift_the_optimum() {
        let (risk, occ) = fixtures();
        // When misses are catastrophic, a lower threshold (more alarms) is
        // cheaper overall.
        let thresholds: Vec<f64> = (0..10).map(|t| t as f64).collect();
        let costly_miss = threshold_sweep(&risk, &occ, None, 100.0, 1.0, &thresholds).unwrap();
        let costly_alarm = threshold_sweep(&risk, &occ, None, 1.0, 100.0, &thresholds).unwrap();
        let argmin = |sweep: &[(f64, CostReport)]| {
            sweep
                .iter()
                .min_by(|a, b| a.1.total_cost.total_cmp(&b.1.total_cost))
                .unwrap()
                .0
        };
        assert!(argmin(&costly_miss) <= argmin(&costly_alarm));
    }

    #[test]
    fn weights_scale_costs() {
        let (risk, occ) = fixtures();
        let weights = Grid2::filled(4, 10, 3.0);
        let params = CostParams {
            miss_cost: 1.0,
            false_alarm_cost: 1.0,
            threshold: 9.5, // everything with O>0 except col 9 missed
        };
        let unweighted = total_cost(&risk, &occ, None, params).unwrap();
        let weighted = total_cost(&risk, &occ, Some(&weights), params).unwrap();
        assert!((weighted.total_cost - 3.0 * unweighted.total_cost).abs() < 1e-9);
    }

    #[test]
    fn misaligned_grids_rejected() {
        let (risk, _) = fixtures();
        let occ = Grid2::filled(2, 2, 0u32);
        assert!(total_cost(
            &risk,
            &occ,
            None,
            CostParams {
                miss_cost: 1.0,
                false_alarm_cost: 1.0,
                threshold: 0.5
            }
        )
        .is_err());
        assert!(precision_recall_at_k(&risk, &occ, 3).is_err());
    }

    #[test]
    fn precision_recall_on_planted_data() {
        let (risk, occ) = fixtures();
        // Top-20 risk cells are exactly the 20 occurrence cells (cols 5-9).
        let pr = precision_recall_at_k(&risk, &occ, 20).unwrap();
        assert_eq!(pr.hits, 20);
        assert_eq!(pr.relevant, 20);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        // Top-40 must include all 20 irrelevant cells too.
        let pr = precision_recall_at_k(&risk, &occ, 40).unwrap();
        assert_eq!(pr.precision, 0.5);
        assert_eq!(pr.recall, 1.0);
        // Top-10: perfect precision, half recall.
        let pr = precision_recall_at_k(&risk, &occ, 10).unwrap();
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.5);
    }

    #[test]
    fn roc_of_perfect_ranker_is_unit_auc() {
        let (risk, occ) = fixtures();
        let (points, auc) = roc_curve(&risk, &occ).unwrap();
        assert!((auc - 1.0).abs() < 1e-12, "auc {auc}");
        assert_eq!(points.first().unwrap().tpr, 0.0);
        let last = points.last().unwrap();
        assert_eq!((last.tpr, last.fpr), (1.0, 1.0));
    }

    #[test]
    fn roc_of_anti_ranker_is_zero_auc() {
        let (risk, occ) = fixtures();
        let inverted = risk.map(|&v| -v);
        let (_, auc) = roc_curve(&inverted, &occ).unwrap();
        assert!(auc < 1e-12, "auc {auc}");
    }

    #[test]
    fn roc_of_constant_ranker_is_half_auc() {
        let (_, occ) = fixtures();
        let flat = Grid2::filled(4, 10, 1.0);
        let (points, auc) = roc_curve(&flat, &occ).unwrap();
        assert!((auc - 0.5).abs() < 1e-12, "auc {auc}");
        // One tie-step from (0,0) to (1,1).
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn roc_requires_both_classes() {
        let risk = Grid2::filled(2, 2, 1.0);
        let all_positive = Grid2::filled(2, 2, 3u32);
        let all_negative = Grid2::filled(2, 2, 0u32);
        assert!(roc_curve(&risk, &all_positive).is_err());
        assert!(roc_curve(&risk, &all_negative).is_err());
        let misaligned = Grid2::filled(1, 2, 0u32);
        assert!(roc_curve(&risk, &misaligned).is_err());
        // A NaN cell never equals itself, so the tie sweep cannot step
        // past it: it must be rejected, not looped on.
        let nan_risk = Grid2::from_fn(2, 2, |r, c| [[f64::NAN, 1.0], [2.0, 3.0]][r][c]);
        let diagonal = Grid2::from_fn(2, 2, |r, c| u32::from(r == c));
        assert!(roc_curve(&nan_risk, &diagonal).is_err());
    }

    #[test]
    fn roc_is_monotone() {
        let (pyr_risk, occ) = fixtures();
        // Add noise-free but shuffled scores to exercise interior points.
        let noisy = pyr_risk.map(|&v| (v * 7.0) % 13.0);
        let (points, auc) = roc_curve(&noisy, &occ).unwrap();
        for pair in points.windows(2) {
            assert!(pair[1].tpr >= pair[0].tpr - 1e-12);
            assert!(pair[1].fpr >= pair[0].fpr - 1e-12);
        }
        assert!((0.0..=1.0).contains(&auc));
    }

    #[test]
    fn empty_relevant_set_yields_zero_recall() {
        let risk = Grid2::filled(2, 2, 1.0);
        let occ = Grid2::filled(2, 2, 0u32);
        let pr = precision_recall_at_k(&risk, &occ, 2).unwrap();
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
        assert!(precision_recall_at_k(&risk, &occ, 0).is_err());
    }

    #[test]
    fn degradation_summary_reads_the_report_faithfully() {
        use crate::engine::EffortReport;
        use crate::resilient::{BudgetStop, ResilientHit, ResilientTopK, ScoreBounds};
        let hit = |score: f64, lo: f64, hi: f64, exact: bool| ResilientHit {
            cell: CellCoord::new(0, 0),
            level: 0,
            score,
            bounds: ScoreBounds { lo, hi },
            exact,
        };
        let report = ResilientTopK {
            results: vec![hit(5.0, 5.0, 5.0, true), hit(3.0, 1.0, 4.5, false)],
            effort: EffortReport::default(),
            completeness: 0.75,
            skipped_pages: vec![2, 9],
            budget_stop: Some(BudgetStop::WallClock),
        };
        let s = degradation_summary(&report);
        assert_eq!(s.completeness, 0.75);
        assert_eq!(s.skipped_pages, 2);
        assert_eq!(s.inexact_hits, 1);
        assert!((s.widest_bound - 3.5).abs() < 1e-12);
        assert!(s.budget_stopped);
        assert_eq!(
            (s.shed_queries, s.cancelled_queries, s.hedged_reads),
            (0, 0, 0)
        );
        assert_eq!(s.pages_read, 0);

        // Lifecycle counters fold in without disturbing the run fields.
        let folded = s.with_lifecycle(3, 2, 7);
        assert_eq!(folded.shed_queries, 3);
        assert_eq!(folded.cancelled_queries, 2);
        assert_eq!(folded.hedged_reads, 7);
        assert_eq!(folded.completeness, s.completeness);
        assert_eq!(folded.skipped_pages, s.skipped_pages);

        let exact = ResilientTopK {
            results: vec![hit(5.0, 5.0, 5.0, true)],
            effort: EffortReport::default(),
            completeness: 1.0,
            skipped_pages: vec![],
            budget_stop: None,
        };
        let s = degradation_summary(&exact);
        assert_eq!(s.widest_bound, 0.0);
        assert!(!s.budget_stopped);
        assert_eq!(s.inexact_hits, 0);
    }

    #[test]
    fn merged_shard_summaries_conserve_counts_and_weight_completeness() {
        let part = |completeness: f64, skipped: usize, read: u64| DegradationSummary {
            completeness,
            skipped_pages: skipped,
            inexact_hits: skipped,
            widest_bound: completeness * 2.0,
            budget_stopped: skipped > 0,
            shed_queries: 1,
            cancelled_queries: 2,
            hedged_reads: 3,
            pages_read: read,
        };
        let parts = [
            (part(1.0, 0, 10), 100u64),
            (part(0.5, 4, 6), 100),
            (part(0.0, 8, 0), 200),
        ];
        let merged = merge_shard_summaries(&parts);
        // Counts are conserved exactly across the merge.
        assert_eq!(merged.skipped_pages, 12);
        assert_eq!(merged.pages_read, 16);
        assert_eq!(merged.inexact_hits, 12);
        assert_eq!(
            (
                merged.shed_queries,
                merged.cancelled_queries,
                merged.hedged_reads
            ),
            (3, 6, 9)
        );
        // Completeness is the cell-weighted mean: (100 + 50 + 0) / 400.
        assert!((merged.completeness - 0.375).abs() < 1e-12);
        assert_eq!(merged.widest_bound, 2.0);
        assert!(merged.budget_stopped);
        // Empty merge is pristine.
        let empty = merge_shard_summaries(&[]);
        assert_eq!(empty.completeness, 1.0);
        assert_eq!(empty.pages_read, 0);
        assert!(!empty.budget_stopped);
    }
}
