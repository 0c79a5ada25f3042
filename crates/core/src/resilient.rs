//! Budgeted, fault-tolerant progressive retrieval with graceful
//! degradation.
//!
//! The strict engines ([`crate::engine`]) read the pyramids' own level 0,
//! which cannot lose a page, and run until the bound proof closes. Real
//! archive queries get neither luxury: pages go missing and interactive
//! callers impose work ceilings. [`resilient_top_k`] is the one descent —
//! the execution core of DESIGN.md §18, which the strict engines run at
//! zero pressure — under both pressures:
//!
//! * **Lost pages degrade, they don't abort.** A base read failing with
//!   [`PageIo`](mbir_archive::error::ArchiveError::PageIo),
//!   [`PageQuarantined`](mbir_archive::error::ArchiveError::PageQuarantined),
//!   or [`PageCorrupt`](mbir_archive::error::ArchiveError::PageCorrupt)
//!   (detected silent corruption) parks the cell instead. A lost cell whose frontier bound falls under the
//!   final K-th floor is *resolved* (provably outside the top-K, exactly
//!   like a healthy pruned cell); the rest are carried as *degraded*
//!   candidates bounded by their parent aggregate (the deepest index level
//!   that does not depend on the lost data) and their pages are reported
//!   skipped. Because the exclusion uses the deterministic bound rather
//!   than evaluation order, the degradation report is reproducible — the
//!   parallel engine ([`crate::parallel`]) produces the same one.
//! * **Budgets stop work at cooperative checkpoints.** An
//!   [`ExecutionBudget`] caps multiply-adds, page reads, and a virtual
//!   tick deadline; it is checked once per frontier pop. On exhaustion the
//!   remaining frontier — the deepest fully-bounded pyramid frontier — is
//!   converted to degraded candidates instead of being discarded.
//! * **Cancellation is cooperative too.** A [`CancelToken`] carried in the
//!   run's [`ExecOptions`] is polled at the same page-granular checkpoint
//!   and stops the run with [`BudgetStop::Cancelled`] under the same
//!   degradation contract. When several stop reasons trip in the same
//!   step, precedence is fixed: Cancelled > WallClock > Budget dimensions
//!   — deterministic at every thread count.
//!
//! What varies by *value* — the budget and the token — is
//! one [`ExecOptions`] every resilient entry point of the crate accepts;
//! a function name is spent only where callers differ by *type* (DESIGN.md
//! §18).
//!
//! The result is honest about what it knows: every hit carries sound
//! [`ScoreBounds`], the [`completeness`](ResilientTopK::completeness)
//! fraction reports how much of the archive is provably accounted for,
//! and [`skipped_pages`](ResilientTopK::skipped_pages) lists exactly what
//! was lost. With a healthy source and an unlimited budget the output is
//! bit-identical to [`pyramid_top_k`](crate::engine::pyramid_top_k).

use crate::batched::batched_top_k;
use crate::engine::{EffortReport, ScoredCell};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::source::CellSource;
use mbir_archive::extent::CellCoord;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Work ceilings for one retrieval, checked at cooperative checkpoints
/// (once per frontier pop). `None` fields are unlimited; the default is
/// fully unlimited.
///
/// # Examples
///
/// ```
/// use mbir_core::resilient::ExecutionBudget;
///
/// let budget = ExecutionBudget::unlimited()
///     .with_max_page_reads(100)
///     .with_deadline_ticks(5_000);
/// assert!(budget.check(0, 99, 0).is_none());
/// assert!(budget.check(0, 100, 0).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionBudget {
    /// Cap on model multiply-adds.
    pub max_multiply_adds: Option<u64>,
    /// Cap on pages read through the source.
    pub max_page_reads: Option<u64>,
    /// Virtual deadline in I/O ticks (see
    /// [`AccessStats::ticks_elapsed`](mbir_archive::stats::AccessStats::ticks_elapsed)).
    pub deadline_ticks: Option<u64>,
    /// Wall-clock deadline measured from query start. Unlike the virtual
    /// tick deadline this is real time — interactive callers' "answer in
    /// 50 ms, whatever you have" contract. Checked through a
    /// shared latch at the same cooperative checkpoints, so
    /// expiry degrades with the same sound-bounds semantics as any other
    /// budget stop.
    pub wall_deadline: Option<Duration>,
}

impl ExecutionBudget {
    /// No ceilings at all.
    pub fn unlimited() -> Self {
        ExecutionBudget::default()
    }

    /// Caps model multiply-adds (builder style).
    pub fn with_max_multiply_adds(mut self, cap: u64) -> Self {
        self.max_multiply_adds = Some(cap);
        self
    }

    /// Caps page reads (builder style).
    pub fn with_max_page_reads(mut self, cap: u64) -> Self {
        self.max_page_reads = Some(cap);
        self
    }

    /// Sets the virtual tick deadline (builder style).
    pub fn with_deadline_ticks(mut self, deadline: u64) -> Self {
        self.deadline_ticks = Some(deadline);
        self
    }

    /// Sets the wall-clock deadline (builder style).
    pub fn with_wall_deadline(mut self, deadline: Duration) -> Self {
        self.wall_deadline = Some(deadline);
        self
    }

    /// Evaluates the ceilings against spent work; `Some` names the first
    /// exhausted dimension. A checkpoint at or beyond a cap stops the run.
    pub fn check(&self, multiply_adds: u64, page_reads: u64, ticks: u64) -> Option<BudgetStop> {
        if self
            .max_multiply_adds
            .is_some_and(|cap| multiply_adds >= cap)
        {
            return Some(BudgetStop::MultiplyAdds);
        }
        if self.max_page_reads.is_some_and(|cap| page_reads >= cap) {
            return Some(BudgetStop::PageReads);
        }
        if self.deadline_ticks.is_some_and(|cap| ticks >= cap) {
            return Some(BudgetStop::Deadline);
        }
        None
    }
}

/// Which budget dimension stopped a run early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStop {
    /// The multiply-add cap was reached.
    MultiplyAdds,
    /// The page-read cap was reached.
    PageReads,
    /// The virtual tick deadline passed.
    Deadline,
    /// The wall-clock deadline passed.
    WallClock,
    /// The caller cancelled the query via its
    /// [`CancelToken`].
    Cancelled,
}

impl fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetStop::MultiplyAdds => "multiply-add cap",
            BudgetStop::PageReads => "page-read cap",
            BudgetStop::Deadline => "tick deadline",
            BudgetStop::WallClock => "wall-clock deadline",
            BudgetStop::Cancelled => "cancelled",
        })
    }
}

/// A shared, latching wall-clock deadline observed at engine checkpoints.
///
/// One instance is created per query ([`WallDeadline::starting_now`]) and
/// shared by every worker of a parallel run, alongside the
/// [`SharedBound`](crate::parallel::SharedBound). Expiry *latches*: once
/// any checkpoint observes the deadline passed, every later check on any
/// thread reports expired, so all workers stop at their next checkpoint
/// even if the clock were to misbehave. A `None` limit never expires and
/// costs no clock reads.
#[derive(Debug)]
pub(crate) struct WallDeadline {
    started: Instant,
    limit: Option<Duration>,
    tripped: AtomicBool,
}

impl WallDeadline {
    /// Starts the clock now against `budget.wall_deadline`.
    pub(crate) fn starting_now(budget: &ExecutionBudget) -> Self {
        WallDeadline {
            started: Instant::now(),
            limit: budget.wall_deadline,
            tripped: AtomicBool::new(false),
        }
    }

    /// Whether the deadline has passed (latching; see the type docs).
    pub(crate) fn expired(&self) -> bool {
        let Some(limit) = self.limit else {
            return false;
        };
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        if self.started.elapsed() >= limit {
            self.tripped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// A sound score interval for one hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBounds {
    /// Guaranteed lower bound.
    pub lo: f64,
    /// Guaranteed upper bound.
    pub hi: f64,
}

impl ScoreBounds {
    /// A zero-width interval around an exactly known score.
    pub fn exact(score: f64) -> Self {
        ScoreBounds {
            lo: score,
            hi: score,
        }
    }
}

/// One entry of a resilient result: an exactly evaluated cell, or a
/// degraded stand-in for data the run could not reach.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientHit {
    /// Base-level cell; for an unrefined region (`level > 0`) this is the
    /// region's top-left base cell.
    pub cell: CellCoord,
    /// Pyramid level of the entry: 0 is a single cell; `l > 0` is an
    /// unrefined region covering up to `4^l` base cells whose refinement
    /// the budget cut off.
    pub level: usize,
    /// Exact model score (`exact == true`) or the model evaluated at the
    /// deepest available aggregate means (`exact == false`).
    pub score: f64,
    /// Sound interval containing every base score the entry stands for.
    pub bounds: ScoreBounds,
    /// Whether `score` is an exact base-level evaluation.
    pub exact: bool,
}

/// Best-effort top-K result with explicit degradation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientTopK {
    /// Up to K entries, descending by `score`. Exact and degraded entries
    /// are ranked together; each carries its own bounds.
    pub results: Vec<ResilientHit>,
    /// Work accounting (degraded estimates are charged too).
    pub effort: EffortReport,
    /// Fraction of base cells provably accounted for: evaluated exactly,
    /// or excluded by a sound bound. 1.0 means the answer is exact.
    pub completeness: f64,
    /// Pages whose failed reads left cells unresolved, ascending. A page
    /// that failed but whose every touched cell was excluded by a sound
    /// bound does not appear: nothing was lost from the answer.
    pub skipped_pages: Vec<usize>,
    /// `Some` when a budget dimension stopped the run early.
    pub budget_stop: Option<BudgetStop>,
}

impl ResilientTopK {
    /// Whether anything separates this answer from the exact one.
    pub fn is_degraded(&self) -> bool {
        self.completeness < 1.0
            || self.budget_stop.is_some()
            || self.results.iter().any(|h| !h.exact)
    }

    /// The exact entries as plain scored cells (what a strict engine
    /// would have been able to certify).
    pub fn exact_cells(&self) -> Vec<ScoredCell> {
        self.results
            .iter()
            .filter(|h| h.exact)
            .map(|h| ScoredCell {
                cell: h.cell,
                score: h.score,
            })
            .collect()
    }
}

/// What a resilient run carries besides its query: the budget, and
/// optionally a cancellation token. Every
/// resilient entry point of the crate takes `impl Into<ExecOptions>`, and
/// `&ExecutionBudget` converts, so a bare budget is the common spelling:
///
/// ```
/// use mbir_core::lifecycle::CancelToken;
/// use mbir_core::resilient::{ExecOptions, ExecutionBudget};
///
/// let budget = ExecutionBudget::unlimited().with_max_page_reads(100);
/// let token = CancelToken::new();
/// let _bare: ExecOptions<'_> = (&budget).into();
/// let _full = ExecOptions::new(&budget).cancel(&token);
/// ```
///
/// The two values are independent and each keeps the contract below
/// under every entry point (sequential, `par_*`, batched, sharded) and in
/// any combination.
///
/// **Budget.** Checked once per frontier pop; see [`ExecutionBudget`].
///
/// **Cancel.** The token is polled at the same checkpoints. Cancellation
/// is just another early stop: the run latches [`BudgetStop::Cancelled`]
/// and degrades with sound bounds and completeness accounting, exactly
/// like a budget or deadline stop. A token that is never cancelled changes
/// nothing — results are bit-identical to the run without it. A token
/// cancelled *before* the call stops the run at its first checkpoint (the
/// warm-up checkpoint of a parallel run), so the degraded answer is
/// deterministic and identical at every thread count; a mid-run
/// cancellation is schedule-dependent, like any mid-run budget stop.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    pub(crate) budget: &'a ExecutionBudget,
    pub(crate) cancel: Option<&'a CancelToken>,
}

impl<'a> ExecOptions<'a> {
    /// `budget` alone: no cancellation token.
    pub fn new(budget: &'a ExecutionBudget) -> Self {
        ExecOptions {
            budget,
            cancel: None,
        }
    }

    /// Polls `cancel` at every checkpoint (builder style).
    pub fn cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl<'a> From<&'a ExecutionBudget> for ExecOptions<'a> {
    fn from(budget: &'a ExecutionBudget) -> Self {
        ExecOptions::new(budget)
    }
}

/// Pyramid descent that degrades gracefully instead of aborting.
///
/// Behaves exactly like [`pyramid_top_k`](crate::engine::pyramid_top_k)
/// with base reads routed through `source`, until a base read fails or the
/// budget runs out; see the module docs for
/// the degradation contract and [`ExecOptions`] for what `opts` may carry
/// (a bare `&ExecutionBudget` converts). Never panics on lost pages, never
/// silently drops what it could not certify.
///
/// Solo is a batch of one: this is
/// [`batched_top_k`] over `[model]`, the
/// sequential configuration of the execution core (the private `descent`
/// module, DESIGN.md §18): local floor, one checkpoint per pop against
/// this run's own multiply-adds and the source's clocks, lost pages
/// parked.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for the same input validation as
/// [`pyramid_top_k`](crate::engine::pyramid_top_k), and propagates archive
/// errors that are *not* page losses (e.g. out-of-bounds reads, which are
/// engine bugs rather than archive faults).
pub fn resilient_top_k<'a, S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    opts: impl Into<ExecOptions<'a>>,
) -> Result<ResilientTopK, CoreError> {
    let models = std::slice::from_ref(model);
    let mut batch = batched_top_k(models, pyramids, k, source, opts)?;
    Ok(batch.queries.pop().expect("one answer per model"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pyramid_top_k;
    use crate::source::TileSource;
    use mbir_archive::error::ArchiveError;
    use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn smooth_grid(i: usize, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
        })
    }

    fn world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (
        LinearModel,
        Vec<AggregatePyramid>,
        Vec<TileStore>,
        AccessStats,
    ) {
        let grids: Vec<Grid2<f64>> = (0..arity).map(|i| smooth_grid(i, rows, cols)).collect();
        let pyramids = grids.iter().map(AggregatePyramid::build).collect();
        let stats = AccessStats::new();
        let stores = grids
            .iter()
            .map(|g| {
                TileStore::new(g.clone(), tile)
                    .unwrap()
                    .with_stats(stats.clone())
            })
            .collect();
        let coeffs: Vec<f64> = (0..arity).map(|i| 1.0 - 0.3 * i as f64).collect();
        (
            LinearModel::new(coeffs, 0.25).unwrap(),
            pyramids,
            stores,
            stats,
        )
    }

    #[test]
    fn healthy_unlimited_matches_strict_engine_exactly() {
        let (model, pyramids, stores, _) = world(3, 48, 48, 8);
        let strict = pyramid_top_k(&model, &pyramids, 7).unwrap();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, 7, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(!r.is_degraded());
        assert_eq!(r.completeness, 1.0);
        assert!(r.skipped_pages.is_empty());
        assert_eq!(r.budget_stop, None);
        assert_eq!(r.effort, strict.effort);
        assert_eq!(r.results.len(), strict.results.len());
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.score, b.score, "bit-identical scores");
            assert!(a.exact);
            assert_eq!(a.bounds, ScoreBounds::exact(b.score));
        }
    }

    #[test]
    fn lost_pages_degrade_without_aborting() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        // Find the strict winner's page and fail it everywhere.
        let strict = pyramid_top_k(&model, &pyramids, 3).unwrap();
        let winner = strict.results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().permanent(page)))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, 3, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(r.is_degraded());
        assert!(r.completeness < 1.0, "completeness {}", r.completeness);
        assert_eq!(r.skipped_pages, vec![page]);
        assert_eq!(r.results.len(), 3);
        // The lost winner is represented by a degraded candidate whose
        // bounds contain the true score.
        let degraded: Vec<&ResilientHit> = r.results.iter().filter(|h| !h.exact).collect();
        assert!(!degraded.is_empty(), "lost hot cell must surface");
        let covering = degraded.iter().find(|h| {
            h.bounds.lo <= strict.results[0].score && strict.results[0].score <= h.bounds.hi
        });
        assert!(
            covering.is_some(),
            "some degraded bound covers the lost winner"
        );
    }

    #[test]
    fn transient_faults_healed_by_retries_stay_exact() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| {
                s.with_faults(FaultProfile::new().transient(0, 2).transient(5, 1))
                    .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None))
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let strict = pyramid_top_k(&model, &pyramids, 4).unwrap();
        let r = resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(!r.is_degraded());
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!((a.cell, a.score), (b.cell, b.score));
        }
    }

    #[test]
    fn budget_stop_reports_frontier_not_nothing() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        // A multiply-add cap hit after the root bound: nothing evaluated.
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_max_multiply_adds(1),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
        assert!(r.is_degraded());
        assert_eq!(r.completeness, 0.0, "nothing was resolved");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        assert!(r.results.iter().all(|h| !h.exact));
        // No work beyond the root bound and its candidate estimate.
        assert!(r.effort.multiply_adds <= 3 * model.arity() as u64);
        assert!(r.effort.speedup_checked().is_some());
    }

    #[test]
    fn page_budget_gives_partial_but_bounded_answer() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let unlimited =
            resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let pages_needed = stores[0].stats().pages_read();
        assert!(pages_needed > 4, "test premise: needs several pages");
        stores[0].stats().reset();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_max_page_reads(pages_needed / 2),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::PageReads));
        assert!(r.completeness < 1.0);
        assert!(r.completeness > 0.0);
        assert_eq!(r.results.len(), 5);
        // Sound bounds: every degraded hit's interval must contain the
        // model evaluated at any covered base cell — spot-check against
        // the unlimited run's exact scores.
        for hit in r.results.iter().filter(|h| !h.exact) {
            assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
        // The exact top-1 must be either confirmed exactly or covered by
        // some degraded candidate's upper bound.
        let best = unlimited.results[0].score;
        assert!(
            r.results
                .iter()
                .any(|h| { (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best) }),
            "true winner neither confirmed nor covered"
        );
    }

    #[test]
    fn deadline_budget_stops_on_injected_latency() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        // Every page is slow: 100 ticks each.
        let profile =
            (0..stores[0].page_count()).fold(FaultProfile::new(), |p, page| p.latency(page, 100));
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(profile.clone()))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_deadline_ticks(350),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::Deadline));
        assert!(r.completeness < 1.0);
    }

    #[test]
    fn quarantined_pages_fail_fast_into_degradation() {
        let (model, pyramids, stores, stats) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| {
                s.with_faults(FaultProfile::new().permanent(page))
                    .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), Some(2)))
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(r.skipped_pages.contains(&page));
        // After quarantine trips, further touches of page 0 cost no
        // retries: retry count stays bounded by the breaker threshold.
        assert!(stats.retries() <= 2, "retries {}", stats.retries());
        assert!(stats.quarantines() >= 1);
    }

    #[test]
    fn zero_wall_deadline_stops_at_the_first_checkpoint() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::WallClock));
        assert_eq!(r.completeness, 0.0, "nothing resolved before expiry");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        assert!(r.results.iter().all(|h| !h.exact));
        for h in &r.results {
            assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
        }
    }

    #[test]
    fn generous_wall_deadline_never_interferes() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let src = TileSource::new(&stores).unwrap();
        let strict = pyramid_top_k(&model, &pyramids, 4).unwrap();
        let r = resilient_top_k(
            &model,
            &pyramids,
            4,
            &src,
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::from_secs(3600)),
        )
        .unwrap();
        assert_eq!(r.budget_stop, None);
        assert!(!r.is_degraded());
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!((a.cell, a.score), (b.cell, b.score));
        }
    }

    #[test]
    fn wall_deadline_latch_is_sticky() {
        let expired = WallDeadline::starting_now(
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO),
        );
        assert!(expired.expired());
        assert!(expired.expired(), "latched");
        let unlimited = WallDeadline::starting_now(&ExecutionBudget::unlimited());
        assert!(!unlimited.expired());
        let generous = WallDeadline::starting_now(
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::from_secs(3600)),
        );
        assert!(!generous.expired());
    }

    #[test]
    fn detected_corruption_degrades_like_a_lost_page() {
        use crate::source::CachedTileSource;
        let (model, pyramids, stores, stats) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        // Corrupt the winner's page on every store; the verifying cached
        // source detects it and the engine degrades instead of returning
        // silently wrong scores.
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().corrupt(page)))
            .collect();
        let src = CachedTileSource::new(&stores, 8).unwrap();
        let r = resilient_top_k(&model, &pyramids, 3, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(r.is_degraded());
        assert!(r.skipped_pages.contains(&page));
        assert!(stats.corruptions() > 0);
        let strict = pyramid_top_k(&model, &pyramids, 1).unwrap();
        let covered = r.results.iter().any(|h| {
            (h.exact && h.score == strict.results[0].score)
                || (!h.exact
                    && h.bounds.lo <= strict.results[0].score
                    && strict.results[0].score <= h.bounds.hi)
        });
        assert!(covered, "true winner must be confirmed or covered");
    }

    #[test]
    fn validates_like_the_strict_engine() {
        let (model, pyramids, stores, _) = world(2, 16, 16, 8);
        let src = TileSource::new(&stores).unwrap();
        assert!(
            resilient_top_k(&model, &pyramids, 0, &src, &ExecutionBudget::unlimited()).is_err()
        );
        assert!(resilient_top_k(
            &model,
            &pyramids[..1],
            1,
            &src,
            &ExecutionBudget::unlimited()
        )
        .is_err());
    }

    /// Delegating source that cancels a token once the inner source has
    /// read `after` pages — deterministic page-granular cancellation.
    struct CancelAfterPages<'a, S: CellSource> {
        inner: &'a S,
        token: CancelToken,
        after: u64,
    }

    impl<S: CellSource> CellSource for CancelAfterPages<'_, S> {
        fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
            let v = self.inner.base_cell(attr, row, col);
            if self.inner.pages_read() >= self.after {
                self.token.cancel();
            }
            v
        }
        fn page_of(&self, row: usize, col: usize) -> Option<usize> {
            self.inner.page_of(row, col)
        }
        fn pages_read(&self) -> u64 {
            self.inner.pages_read()
        }
        fn ticks_elapsed(&self) -> u64 {
            self.inner.ticks_elapsed()
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let src = TileSource::new(&stores).unwrap();
        let plain =
            resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let token = CancelToken::new();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            ExecOptions::new(&ExecutionBudget::unlimited()).cancel(&token),
        )
        .unwrap();
        assert_eq!(r, plain, "live token is free");
    }

    #[test]
    fn mid_flight_cancellation_degrades_with_sound_bounds() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();
        let inner = TileSource::new(&stores).unwrap();
        let token = CancelToken::new();
        let src = CancelAfterPages {
            inner: &inner,
            token: token.clone(),
            after: 3,
        };
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            ExecOptions::new(&ExecutionBudget::unlimited()).cancel(&token),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
        assert!(r.is_degraded());
        assert!(r.completeness < 1.0);
        for h in &r.results {
            assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
        }
        // The true winner is either confirmed exactly or covered by some
        // surviving candidate's bounds — same contract as a budget stop.
        let best = strict.results[0].score;
        assert!(
            r.results
                .iter()
                .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
            "true winner neither confirmed nor covered"
        );
    }

    #[test]
    fn cancellation_takes_precedence_over_deadline_and_budget() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        // All three stop families trip at the very first checkpoint: a
        // pre-cancelled token, an expired wall deadline, and an exhausted
        // multiply-add cap. The fixed precedence reports Cancelled.
        let budget = ExecutionBudget::unlimited()
            .with_max_multiply_adds(1)
            .with_wall_deadline(Duration::ZERO);
        let token = CancelToken::new();
        token.cancel();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            ExecOptions::new(&budget).cancel(&token),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
        assert_eq!(r.completeness, 0.0, "nothing resolved before the stop");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        // Without the token, the same racing budget reports WallClock —
        // the next rung of the precedence order.
        let r2 = resilient_top_k(&model, &pyramids, 5, &src, &budget).unwrap();
        assert_eq!(r2.budget_stop, Some(BudgetStop::WallClock));
    }
}
