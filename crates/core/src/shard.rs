//! Fault-domain sharded scatter-gather retrieval.
//!
//! The paper's "large archives" premise implies data that outgrows one
//! store. This module partitions the grid into contiguous *row-band
//! shards*, each an independent failure domain with its own resident
//! aggregate pyramids and its own [`CellSource`] (typically a
//! [`ReplicatedSource`](crate::replica::ReplicatedSource) with its own
//! circuit breakers, cache, and quarantine). [`scatter_gather_top_k`]
//! fans one top-K query out across the shards through the
//! [`WorkerPool`], and gathers a merged answer that stays *provably
//! sound* no matter which shards degrade, straggle, or die:
//!
//! * **Cross-shard bound propagation.** Each pool worker descends what
//!   it holds — whole shards when there are at least as many as threads,
//!   else regions dealt from one — as one descent, stepping whichever
//!   (shard, query) lane holds the best upper bound, and each query prunes
//!   against one floor per worker: the K-th best of every cell that
//!   worker scored for it in any band, raised to the query's
//!   [`SharedBound`] across workers and offered back to it. A winner
//!   scored in one band prunes the other bands at once, so at one thread
//!   a query walks the forest of band pyramids in the unsharded
//!   best-first order and does about the unsharded work. The cells a
//!   worker scores in one wave are distinct (its regions are disjoint), so
//!   a floor is the K-th best of a *subset* of the archive's cells and
//!   never exceeds the true global K-th score: no true top-K cell is ever
//!   pruned and the healthy merged answer is bit-identical to the
//!   unsharded resilient engine at every shard count and thread count
//!   (absent exact score ties at the K-th boundary; DESIGN.md §13).
//! * **Per-shard fault domains.** A shard's lost pages, quarantine, and
//!   corruption degrade only that shard's contribution. The gather step
//!   resolves each shard's lost cells and unrefined frontier against the
//!   deterministic merged K-th floor — the same exclusion rule as the
//!   unsharded engines — so the degradation report is reproducible.
//! * **Straggler mitigation.** [`ScatterPolicy::shard_soft_deadline_ticks`]
//!   imposes a per-shard soft deadline on the shard's own virtual tick
//!   clock. A shard that trips it is re-dispatched once with the soft
//!   deadline lifted (PR 5's hedging discipline: the first clean finish
//!   wins and the losing attempt's output is discarded wholesale — it
//!   leaves no state in the merge).
//! * **Quorum semantics.** [`CompletionPolicy`] decides how many shards
//!   must respond: `RequireAll`, `Quorum(m)`, or `BestEffort`. A shard
//!   that errored, or whose every attempted page read failed, counts as
//!   *failed*; when fewer than the required number respond the query
//!   returns a typed [`InsufficientShards`] error instead of a silently
//!   truncated answer.
//! * **Sound partial results.** A failed shard's whole band is carried
//!   as a degraded candidate bounded by its resident root aggregate (or
//!   its lost cells' parent aggregates), widening the merged score
//!   bounds, and its unaccounted cells lower the merged
//!   [`completeness`](ShardedTopK::completeness) — a degraded shard can
//!   never silently flip the fused top-K.
//!
//! Every entry point here is one private scatter (DESIGN.md §18): a solo
//! query is a batch of one, plain scatter-gather is the dual-read with no
//! migration groups, and each of its waves is one wave of the pool's
//! dealer (DESIGN.md §9) over one band per shard. What the
//! gather reads stays per shard: each shard's attempt has its own pages,
//! ticks, stop, and lost and leftover regions, and a stop on one shard's
//! clocks halts that shard's lanes only. Every wave (primary, hedge,
//! destination) starts fresh worker floors, because a hedge or a
//! destination copy re-scores rows an earlier wave scored; only the
//! shared bounds cross waves.

use crate::batched::{same_arity, Job, Tally};
use crate::descent::{stop_code, Band, Merge, Outcome};
use crate::engine::{validate_grid_inputs, EffortReport, Region};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::parallel::deal::{deal, Attempt};
use crate::parallel::{SharedBound, WorkerPool};
use crate::resilient::{BudgetStop, ExecOptions, ExecutionBudget, ResilientHit, WallDeadline};
use crate::source::CellSource;
use mbir_archive::shard::TopologyEpoch;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::error::Error;
use std::fmt;

/// One shard of a [`ShardedArchive`]: a contiguous row band of the global
/// grid, with its own resident attribute pyramids (built over the band)
/// and its own fallible page source.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveShard<'a, S> {
    pyramids: &'a [AggregatePyramid],
    source: &'a S,
    row_offset: usize,
}

impl<'a, S: CellSource> ArchiveShard<'a, S> {
    /// Wraps one shard's band pyramids and source. `row_offset` is the
    /// global row of the band's first local row.
    pub fn new(pyramids: &'a [AggregatePyramid], source: &'a S, row_offset: usize) -> Self {
        ArchiveShard {
            pyramids,
            source,
            row_offset,
        }
    }

    /// The shard's resident attribute pyramids (one per model attribute).
    pub fn pyramids(&self) -> &'a [AggregatePyramid] {
        self.pyramids
    }

    /// The shard's page source.
    pub fn source(&self) -> &'a S {
        self.source
    }

    /// Global row of the band's first local row.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Band height in rows (0 if the shard has no pyramids).
    pub fn rows(&self) -> usize {
        self.pyramids.first().map_or(0, |p| p.base_shape().0)
    }

    /// Band width in columns (0 if the shard has no pyramids).
    pub fn cols(&self) -> usize {
        self.pyramids.first().map_or(0, |p| p.base_shape().1)
    }

    /// Base cells in the band.
    pub fn cells(&self) -> u64 {
        (self.rows() * self.cols()) as u64
    }
}

/// A grid archive partitioned into contiguous row-band shards, each an
/// independent failure domain. Validated on construction: bands must
/// tile the global row range contiguously and share one column count.
#[derive(Debug)]
pub struct ShardedArchive<'a, S> {
    shards: Vec<ArchiveShard<'a, S>>,
    rows: usize,
    cols: usize,
    epoch: TopologyEpoch,
}

impl<'a, S: CellSource> ShardedArchive<'a, S> {
    /// Builds the sharded archive from per-shard handles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when no shards are given, a shard has
    /// no pyramids, column counts differ, or the row bands are not
    /// contiguous from row 0 (topology bugs, not runtime faults).
    pub fn new(shards: Vec<ArchiveShard<'a, S>>) -> Result<Self, CoreError> {
        if shards.is_empty() {
            return Err(CoreError::Query(
                "sharded archive needs at least one shard".into(),
            ));
        }
        let cols = shards[0].cols();
        let mut next_row = 0usize;
        for (i, shard) in shards.iter().enumerate() {
            if shard.pyramids.is_empty() {
                return Err(CoreError::Query(format!(
                    "shard {i} has no attribute pyramids"
                )));
            }
            if shard.cols() != cols {
                return Err(CoreError::Query(format!(
                    "shard {i} has {} columns, shard 0 has {cols}",
                    shard.cols()
                )));
            }
            if shard.row_offset != next_row {
                return Err(CoreError::Query(format!(
                    "shard {i} starts at row {} but the previous band ends at row {next_row}",
                    shard.row_offset
                )));
            }
            next_row += shard.rows();
        }
        Ok(ShardedArchive {
            shards,
            rows: next_row,
            cols,
            epoch: TopologyEpoch::ZERO,
        })
    }

    /// Stamps the archive with the [`TopologyEpoch`] it serves (builder
    /// style). Queries whose [`ScatterPolicy`] pins a different epoch are
    /// rejected with a typed [`EpochMismatch`] before any shard is
    /// touched. A fresh archive serves [`TopologyEpoch::ZERO`].
    pub fn with_epoch(mut self, epoch: TopologyEpoch) -> Self {
        self.epoch = epoch;
        self
    }

    /// The per-shard handles, in band order.
    pub fn shards(&self) -> &[ArchiveShard<'a, S>] {
        &self.shards
    }

    /// Global grid shape `(rows, cols)` covered by the bands.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total base cells across all shards.
    pub fn total_cells(&self) -> u64 {
        (self.rows * self.cols) as u64
    }
}

/// How many shards must respond before a scatter-gather answer is
/// returned at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionPolicy {
    /// Every shard must respond; any failed shard fails the query.
    RequireAll,
    /// At least `m` shards must respond (clamped to the shard count).
    Quorum(usize),
    /// Answer with whatever responded, even if every shard failed.
    BestEffort,
}

impl CompletionPolicy {
    /// Responding shards required out of `total` under this policy.
    pub fn required(&self, total: usize) -> usize {
        match self {
            CompletionPolicy::RequireAll => total,
            CompletionPolicy::Quorum(m) => (*m).min(total),
            CompletionPolicy::BestEffort => 0,
        }
    }
}

impl fmt::Display for CompletionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionPolicy::RequireAll => f.write_str("require-all"),
            CompletionPolicy::Quorum(m) => write!(f, "quorum({m})"),
            CompletionPolicy::BestEffort => f.write_str("best-effort"),
        }
    }
}

/// Scatter-gather execution policy: completion quorum plus straggler
/// mitigation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterPolicy {
    /// Shards required for an answer (see [`CompletionPolicy`]).
    pub completion: CompletionPolicy,
    /// Per-shard soft deadline in virtual I/O ticks, measured on each
    /// shard's own tick clock from its attempt start. A shard stopping on
    /// this deadline is a *straggler*; with
    /// [`hedge_stragglers`](Self::hedge_stragglers) it is re-dispatched
    /// once without the soft deadline. `None` disables the soft deadline.
    /// Only engaged when it is tighter than the caller budget's own
    /// [`deadline_ticks`](ExecutionBudget::deadline_ticks).
    pub shard_soft_deadline_ticks: Option<u64>,
    /// Whether shards that trip the soft deadline get one hedged
    /// re-dispatch (first clean finish wins; the loser's output is
    /// discarded wholesale).
    pub hedge_stragglers: bool,
    /// The [`TopologyEpoch`] the query was planned against. When set,
    /// the scatter step rejects an archive serving any other epoch with
    /// a typed [`EpochMismatch`] — the live-resharding fence that keeps
    /// a query from silently spanning two topologies mid-migration.
    /// `None` accepts whatever epoch the archive serves.
    pub epoch_fence: Option<TopologyEpoch>,
}

impl ScatterPolicy {
    /// `RequireAll`, no soft deadline, no hedging, no epoch fence.
    pub fn require_all() -> Self {
        ScatterPolicy {
            completion: CompletionPolicy::RequireAll,
            shard_soft_deadline_ticks: None,
            hedge_stragglers: false,
            epoch_fence: None,
        }
    }

    /// Quorum of `m` responding shards, no soft deadline, no hedging.
    pub fn quorum(m: usize) -> Self {
        ScatterPolicy {
            completion: CompletionPolicy::Quorum(m),
            ..ScatterPolicy::require_all()
        }
    }

    /// Best-effort completion, no soft deadline, no hedging.
    pub fn best_effort() -> Self {
        ScatterPolicy {
            completion: CompletionPolicy::BestEffort,
            ..ScatterPolicy::require_all()
        }
    }

    /// Sets the per-shard soft tick deadline (builder style).
    pub fn with_soft_deadline_ticks(mut self, ticks: u64) -> Self {
        self.shard_soft_deadline_ticks = Some(ticks);
        self
    }

    /// Enables hedged re-dispatch of soft-deadline stragglers (builder
    /// style).
    pub fn with_hedged_stragglers(mut self) -> Self {
        self.hedge_stragglers = true;
        self
    }

    /// Pins the query to a [`TopologyEpoch`] (builder style); the query
    /// fails with [`EpochMismatch`] unless the archive serves exactly
    /// that epoch.
    pub fn at_epoch(mut self, epoch: TopologyEpoch) -> Self {
        self.epoch_fence = Some(epoch);
        self
    }
}

impl Default for ScatterPolicy {
    fn default() -> Self {
        ScatterPolicy::require_all()
    }
}

/// Typed quorum failure: fewer shards responded than the completion
/// policy requires. Carries the full tally so callers can log, retry, or
/// relax the policy — mirroring the structured context of
/// [`Overloaded`](crate::lifecycle::Overloaded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsufficientShards {
    /// Shards that produced a usable response (during a dual-read this
    /// includes migrating source shards whose rows were fully covered by
    /// responding destination copies).
    pub responded: usize,
    /// Responding shards the completion policy requires.
    pub required: usize,
    /// Total shards queried.
    pub total: usize,
    /// Indices of the failed shards, ascending. During a dual-read a
    /// shard only lands here when its destination cover failed too.
    pub failed: Vec<usize>,
    /// The topology epoch the tally was taken against, so a caller
    /// retrying around a live migration can tell a quorum loss at the
    /// source epoch from one at the destination epoch.
    pub epoch: TopologyEpoch,
}

impl fmt::Display for InsufficientShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "only {} of {} shards responded at epoch {} ({} required); failed shards: {:?}",
            self.responded, self.total, self.epoch, self.required, self.failed
        )
    }
}

impl Error for InsufficientShards {}

/// Typed epoch-fence rejection: the query pinned a [`TopologyEpoch`]
/// that the archive does not serve. Raised before any shard is touched,
/// so a fenced query never mixes answers from two topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMismatch {
    /// The epoch the query pinned via [`ScatterPolicy::at_epoch`].
    pub requested: TopologyEpoch,
    /// The epoch the archive currently serves.
    pub serving: TopologyEpoch,
}

impl fmt::Display for EpochMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query pinned topology epoch {} but the archive serves {}",
            self.requested, self.serving
        )
    }
}

impl Error for EpochMismatch {}

/// Error from a scatter-gather query: a typed quorum failure, a typed
/// epoch-fence rejection, or a propagated engine error.
#[derive(Debug)]
pub enum ShardError {
    /// Fewer shards responded than the completion policy requires.
    Insufficient(InsufficientShards),
    /// The query pinned a topology epoch the archive does not serve.
    Epoch(EpochMismatch),
    /// An engine error that is not a shard fault (e.g. invalid inputs).
    Core(CoreError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Insufficient(e) => e.fmt(f),
            ShardError::Epoch(e) => e.fmt(f),
            ShardError::Core(e) => e.fmt(f),
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Insufficient(e) => Some(e),
            ShardError::Epoch(e) => Some(e),
            ShardError::Core(e) => Some(e),
        }
    }
}

impl From<InsufficientShards> for ShardError {
    fn from(e: InsufficientShards) -> Self {
        ShardError::Insufficient(e)
    }
}

impl From<EpochMismatch> for ShardError {
    fn from(e: EpochMismatch) -> Self {
        ShardError::Epoch(e)
    }
}

impl From<CoreError> for ShardError {
    fn from(e: CoreError) -> Self {
        ShardError::Core(e)
    }
}

/// How one shard fared in a scatter-gather run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Fully resolved its band: no losses, no early stop.
    Complete,
    /// Responded, but with lost pages or an early budget stop.
    Degraded,
    /// Stopped on the per-shard soft deadline (straggler), and no hedge
    /// attempt cleared it.
    TimedOut,
    /// Dual-read only: the shard's rows were served by the responding
    /// destination copies of its migration group instead (its own
    /// attempt's output was discarded wholesale). Counts as responded.
    Covered,
    /// Errored, or every attempted page read failed: contributed no
    /// evaluated data. Counts against the completion quorum.
    Failed,
}

impl fmt::Display for ShardOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardOutcome::Complete => "complete",
            ShardOutcome::Degraded => "degraded",
            ShardOutcome::TimedOut => "timed-out",
            ShardOutcome::Covered => "covered",
            ShardOutcome::Failed => "failed",
        })
    }
}

/// Per-shard accounting of one scatter-gather run (the winning attempt's
/// numbers when the shard was hedged).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index (band order).
    pub shard: usize,
    /// Outcome classification.
    pub outcome: ShardOutcome,
    /// Fraction of the shard's base cells provably accounted for.
    pub completeness: f64,
    /// Exact candidates this shard contributed to the merge pool.
    pub exact_hits: usize,
    /// Shard-local pages whose failed reads left cells unresolved.
    pub skipped_pages: Vec<usize>,
    /// The shard's own early-stop reason, if any.
    pub budget_stop: Option<BudgetStop>,
    /// Pages read by the winning attempt.
    pub pages_read: u64,
    /// Virtual ticks the winning attempt spent on the shard's clock.
    pub ticks: u64,
    /// Whether a hedged re-dispatch was issued for this shard.
    pub hedged: bool,
    /// Whether the hedge attempt won (its output replaced the primary's).
    pub hedge_won: bool,
    /// Base cells in the shard's band.
    pub cells: u64,
}

/// Compact markdown table over a slice of [`ShardReport`]s, one row per
/// shard — the shared per-shard rendering of the r6 and r9 repro
/// harnesses (and anything else that wants to log a scatter verdict).
///
/// ```
/// # use mbir_core::shard::{ShardOutcome, ShardReport, ShardTable};
/// let reports = vec![ShardReport {
///     shard: 0,
///     outcome: ShardOutcome::Complete,
///     completeness: 1.0,
///     exact_hits: 5,
///     skipped_pages: vec![],
///     budget_stop: None,
///     pages_read: 12,
///     ticks: 48,
///     hedged: false,
///     hedge_won: false,
///     cells: 4096,
/// }];
/// let table = ShardTable::new(&reports).to_string();
/// assert!(table.contains("| 0 | complete | 1.000 | 5 | 0 | 12 | 48 | no |"));
/// ```
pub struct ShardTable<'a>(&'a [ShardReport]);

impl<'a> ShardTable<'a> {
    /// Wraps the reports to render (typically [`ShardedTopK::shards`]).
    pub fn new(reports: &'a [ShardReport]) -> Self {
        ShardTable(reports)
    }
}

impl fmt::Display for ShardTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "| shard | outcome | completeness | exact hits | skipped pages | pages read | ticks | hedged |"
        )?;
        writeln!(f, "|---|---|---|---|---|---|---|---|")?;
        for r in self.0 {
            let hedged = if r.hedge_won {
                "won"
            } else if r.hedged {
                "lost"
            } else {
                "no"
            };
            writeln!(
                f,
                "| {} | {} | {:.3} | {} | {} | {} | {} | {} |",
                r.shard,
                r.outcome,
                r.completeness,
                r.exact_hits,
                r.skipped_pages.len(),
                r.pages_read,
                r.ticks,
                hedged,
            )?;
        }
        Ok(())
    }
}

/// Merged scatter-gather result: a sound top-K with per-shard
/// degradation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTopK {
    /// Up to K entries in global grid coordinates, ranked like the
    /// unsharded resilient engine (upper bound, then score, then cell).
    pub results: Vec<ResilientHit>,
    /// Work accounting summed over winning shard attempts and the gather
    /// step (`naive_multiply_adds` covers the whole global grid).
    pub effort: EffortReport,
    /// Fraction of all base cells provably accounted for (1.0 = exact).
    pub completeness: f64,
    /// `(shard, shard-local page)` pairs whose failed reads left cells
    /// unresolved, ascending.
    pub skipped_pages: Vec<(usize, usize)>,
    /// The most severe early-stop reason across winning shard attempts
    /// (Cancelled > WallClock > Deadline > PageReads > MultiplyAdds).
    pub budget_stop: Option<BudgetStop>,
    /// Per-shard reports, in band order.
    pub shards: Vec<ShardReport>,
}

impl ShardedTopK {
    /// Whether anything separates this answer from the exact one.
    pub fn is_degraded(&self) -> bool {
        self.completeness < 1.0
            || self.budget_stop.is_some()
            || self.results.iter().any(|h| !h.exact)
    }
}

/// An attempt (primary, hedge, or destination copy) at a shard is the
/// shard's band's run in one wave of the dealer.
impl Attempt {
    fn lanes(&self) -> &[Outcome] {
        self.out.as_ref().map_or(&[], |(lanes, _)| lanes)
    }

    /// A failed shard errored, or every page read it attempted failed:
    /// it evaluated no base data for anyone. Reads are physical, so the
    /// verdict is shared by every query of the batch.
    fn failed(&self) -> bool {
        match &self.out {
            Err(_) => true,
            Ok((lanes, tally)) => {
                tally.cells_fetched == 0 && lanes.iter().any(|l| !l.lost.is_empty())
            }
        }
    }

    /// The budget is batch-wide within an attempt, so a soft-deadline
    /// stop lands on every query still open in the shard: any query
    /// stopped on `Deadline` is the straggler signal.
    fn straggled(&self) -> bool {
        self.lanes()
            .iter()
            .any(|l| l.stop == Some(BudgetStop::Deadline))
    }

    /// Whether this hedge attempt replaces `primary`: the first clean
    /// finish wins, otherwise whichever left less unresolved.
    fn beats(&self, primary: &Attempt) -> bool {
        let unresolved = |a: &Attempt| -> usize {
            a.lanes()
                .iter()
                .map(|l| l.lost.len() + l.leftover.len())
                .sum()
        };
        match (&primary.out, &self.out) {
            (_, Err(_)) => false,
            (Err(_), Ok(_)) => true,
            (Ok(_), Ok(_)) => {
                self.lanes().iter().all(|l| l.stop.is_none())
                    || unresolved(self) < unresolved(primary)
            }
        }
    }
}

/// Read-only context shared by every shard attempt of one wave.
#[derive(Clone, Copy)]
struct ScatterCtx<'a> {
    models: &'a [LinearModel],
    k: usize,
    /// Global column count (bands all share it).
    cols: usize,
    /// The wave's budget (soft deadline merged in for the primary wave,
    /// the caller's own for every later one) and the cancel token.
    opts: ExecOptions<'a>,
    deadline: &'a WallDeadline,
    /// One cross-shard bound per query, in batch order.
    bounds: &'a [SharedBound],
}

impl ScatterCtx<'_> {
    /// One wave over the `which` shards: their attempts, in `which` order.
    fn wave<S: CellSource + Sync>(
        &self,
        shards: &[ArchiveShard<'_, S>],
        which: impl Iterator<Item = usize>,
        pool: &WorkerPool,
    ) -> Vec<Attempt> {
        let job = Job {
            models: self.models,
            bands: which.map(|i| ArchiveShard { ..shards[i] }).collect(),
            k: self.k,
            cols: self.cols,
        };
        deal(&job, self.opts, self.deadline, self.bounds, pool)
    }
}

/// Rejects a query whose pinned epoch differs from the one the archive
/// serves — checked before any shard attempt runs.
fn check_epoch_fence<S>(
    policy: &ScatterPolicy,
    archive: &ShardedArchive<'_, S>,
) -> Result<(), ShardError> {
    if let Some(requested) = policy.epoch_fence {
        if requested != archive.epoch {
            return Err(EpochMismatch {
                requested,
                serving: archive.epoch,
            }
            .into());
        }
    }
    Ok(())
}

/// Merges two stop reasons into the more severe:
/// Cancelled > WallClock > Deadline > PageReads > MultiplyAdds.
fn worse(a: Option<BudgetStop>, b: Option<BudgetStop>) -> Option<BudgetStop> {
    [a, b].into_iter().flatten().max_by_key(|s| stop_code(*s))
}

/// One answer out of a batch of one.
fn solo(batch: BatchedShardedTopK) -> ShardedTopK {
    let mut queries = batch.queries;
    queries.pop().expect("one answer per model")
}

/// Scatter-gather top-K over a sharded archive. See the module docs for
/// the soundness and quorum contract; on a healthy archive with an
/// unlimited budget the merged results are bit-identical to
/// [`resilient_top_k`](crate::resilient::resilient_top_k) over the
/// unsharded grid, at every shard count and thread count.
///
/// `opts` is an [`ExecOptions`] (a bare `&ExecutionBudget` converts). The
/// budget is enforced *per shard attempt*, each dimension measured against
/// the attempt's own source clocks (wall-clock expiry is shared: one latch
/// stops every shard at its next checkpoint); a cancelled token stops
/// every shard at its next checkpoint and the merged answer degrades with
/// sound bounds.
///
/// # Errors
///
/// [`ShardError::Core`] for invalid inputs (any shard failing the same
/// validation as the unsharded engines);
/// [`ShardError::Insufficient`] when fewer shards respond than
/// `policy.completion` requires.
pub fn scatter_gather_top_k<'a, S: CellSource + Sync>(
    model: &LinearModel,
    archive: &ShardedArchive<'_, S>,
    k: usize,
    opts: impl Into<ExecOptions<'a>>,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<ShardedTopK, ShardError> {
    let models = std::slice::from_ref(model);
    scatter::<S, S>(models, archive, (&[], &[]), k, opts.into(), policy, pool).map(solo)
}

/// One migration group of a dual-read: the source shards whose rows are
/// migrating, and the destination shards (band copies) covering exactly
/// the same contiguous row range. Produced by
/// [`ReshardCoordinator::dual_read_groups`](crate::reshard::ReshardCoordinator::dual_read_groups);
/// the row-coverage invariant is validated again by the dual-read
/// scatter before any shard runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualReadGroup {
    /// Indices into the source archive's shards, in band order.
    pub source_shards: Vec<usize>,
    /// Indices into the dual-read destination slice, in band order.
    pub dest_shards: Vec<usize>,
}

/// The `[lo, hi)` row span that `(row_offset, rows)` bands tile end to
/// end once sorted, or `None` if two of them overlap or leave a gap.
fn tiling(mut bands: Vec<(usize, usize)>) -> Option<(usize, usize)> {
    bands.sort_unstable();
    let lo = bands.first()?.0;
    bands
        .iter()
        .try_fold(lo, |next, &(offset, rows)| {
            (offset == next).then_some(next + rows)
        })
        .map(|hi| (lo, hi))
}

/// Validates the dual-read group structure: indices in range and used at
/// most once, every destination shard claimed by exactly one group, each
/// group's bands on either side tiling one span without gap or overlap,
/// and that span the same on both sides.
fn validate_dual_groups<S: CellSource, D: CellSource>(
    archive: &ShardedArchive<'_, S>,
    dest: &[ArchiveShard<'_, D>],
    groups: &[DualReadGroup],
) -> Result<(), ShardError> {
    let invalid = |msg: String| ShardError::Core(CoreError::Query(msg));
    let shards = archive.shards();
    let mut source_used = vec![false; shards.len()];
    let mut dest_used = vec![false; dest.len()];
    for (g, group) in groups.iter().enumerate() {
        if group.source_shards.is_empty() || group.dest_shards.is_empty() {
            return Err(invalid(format!("dual-read group {g} is one-sided")));
        }
        let mut s_bands = Vec::with_capacity(group.source_shards.len());
        for &s in &group.source_shards {
            let shard = shards
                .get(s)
                .ok_or_else(|| invalid(format!("group {g}: source shard {s} out of range")))?;
            if std::mem::replace(&mut source_used[s], true) {
                return Err(invalid(format!("source shard {s} appears in two groups")));
            }
            s_bands.push((shard.row_offset, shard.rows()));
        }
        let mut d_bands = Vec::with_capacity(group.dest_shards.len());
        for &d in &group.dest_shards {
            let shard = dest
                .get(d)
                .ok_or_else(|| invalid(format!("group {g}: dest shard {d} out of range")))?;
            if std::mem::replace(&mut dest_used[d], true) {
                return Err(invalid(format!("dest shard {d} appears in two groups")));
            }
            d_bands.push((shard.row_offset, shard.rows()));
        }
        // Each side must tile its span with neither gap nor overlap: a
        // destination wave's worker floor holds every cell it scored, so a
        // row scored twice in one wave would raise that floor unsoundly.
        let (Some((s_lo, s_hi)), Some((d_lo, d_hi))) = (tiling(s_bands), tiling(d_bands)) else {
            return Err(invalid(format!(
                "dual-read group {g} has a row gap or overlap"
            )));
        };
        if (s_lo, s_hi) != (d_lo, d_hi) {
            return Err(invalid(format!(
                "dual-read group {g} covers source rows {s_lo}..{s_hi} but dest rows {d_lo}..{d_hi}"
            )));
        }
    }
    if let Some(d) = dest_used.iter().position(|used| !used) {
        return Err(invalid(format!("dest shard {d} belongs to no group")));
    }
    Ok(())
}

/// Dual-read scatter-gather: [`scatter_gather_top_k`] over the *source*
/// topology, additionally fanning out to the destination band copies of
/// an in-flight migration (state `DualRead` of
/// [`crate::reshard::ReshardCoordinator`]). Per migration group, the
/// merge uses the source shards' contributions — so a healthy dual-read
/// stays bit-identical to the plain pre-migration scatter — unless a
/// migrating source shard fails *and* every destination copy of its
/// group responded, in which case the whole group's rows are served from
/// the destination side instead. Group substitution is wholesale (the
/// suppressed source attempts leave no state in the merge, like a
/// hedging loser), and a group's destination rows equal its source rows,
/// so no cell is merged twice and every lost or unrefined destination
/// region degrades through the same ulp-guarded candidate machinery as
/// any other shard: bounds stay sound no matter which side served a row.
///
/// Quorum accounting is epoch-aware: a migrating source shard served by
/// its destination cover counts as responded, and only uncovered
/// failures appear in [`InsufficientShards::failed`], stamped with the
/// source epoch.
///
/// `migration` is the destination band copies with their groups, `opts`
/// as in [`scatter_gather_top_k`].
///
/// # Errors
///
/// [`ShardError::Core`] for invalid inputs or malformed groups;
/// [`ShardError::Epoch`] when `policy` pins an epoch the archive does
/// not serve; [`ShardError::Insufficient`] on a quorum miss after
/// destination covers are credited.
pub fn scatter_gather_top_k_dual<'a, S: CellSource + Sync, D: CellSource + Sync>(
    model: &LinearModel,
    archive: &ShardedArchive<'_, S>,
    migration: (&[ArchiveShard<'_, D>], &[DualReadGroup]),
    k: usize,
    opts: impl Into<ExecOptions<'a>>,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<ShardedTopK, ShardError> {
    let models = std::slice::from_ref(model);
    scatter(models, archive, migration, k, opts.into(), policy, pool).map(solo)
}

/// What one shard — or, during a dual-read cover, one migration group's
/// destination side — contributed to one query's merge.
#[derive(Clone, Default)]
struct Ledger {
    unresolved: u64,
    skipped: Vec<usize>,
    exact_hits: usize,
    pages: u64,
    ticks: u64,
    stop: Option<BudgetStop>,
}

impl Ledger {
    /// Folds query `q`'s share of one winning attempt at `shard` into
    /// the merge. An errored attempt degrades the whole band to its
    /// resident root aggregate — the deepest bound that depends on no
    /// page data; if even that falls under the merged floor, the band is
    /// provably irrelevant and nothing was lost. (A leftover region's own
    /// `ub` is never consulted, only its aggregates.)
    fn absorb<S>(
        &mut self,
        merge: &mut Merge,
        (model, q): (&LinearModel, usize),
        shard: &ArchiveShard<'_, S>,
        attempt: &Attempt,
        effort: &mut EffortReport,
    ) -> Result<(), CoreError> {
        let band = Band {
            pyramids: shard.pyramids,
            row_offset: shard.row_offset,
            sharded: true,
        };
        let whole_band;
        let lane = match attempt.lanes().get(q) {
            Some(lane) => lane,
            None => {
                whole_band = Outcome {
                    leftover: vec![Region::new(
                        f64::NAN,
                        (shard.pyramids[0].levels() - 1, 0, 0),
                    )],
                    ..Outcome::default()
                };
                &whole_band
            }
        };
        let (unresolved, skipped) = merge.degrade(model, band, lane, effort)?;
        self.unresolved += unresolved;
        self.skipped.extend(skipped);
        self.exact_hits += lane.items.len();
        self.pages += attempt.pages;
        self.ticks += attempt.ticks;
        self.stop = worse(self.stop, lane.stop);
        Ok(())
    }
}

/// Everything the waves of one scatter produced, ready to be gathered
/// query by query.
struct Scattered<'a, S, D> {
    archive: &'a ShardedArchive<'a, S>,
    dest: &'a [ArchiveShard<'a, D>],
    groups: &'a [DualReadGroup],
    /// The winning attempt at each source shard.
    attempts: Vec<Attempt>,
    dest_attempts: Vec<Attempt>,
    source_failed: Vec<bool>,
    /// The migration group whose destination copies serve this shard's
    /// rows instead of its own (suppressed) attempt.
    cover: Vec<Option<usize>>,
    hedged: Vec<bool>,
    hedge_won: Vec<bool>,
    soft_engaged: bool,
}

/// The one scatter: epoch fence and validation, the primary wave under
/// the soft deadline, one hedged re-dispatch of its stragglers, the
/// destination wave of an in-flight migration, the quorum check, and the
/// per-query gather. Solo is a batch of one; plain scatter-gather is the
/// dual-read with no destination shards and no groups (both extra waves
/// are then empty and every shard serves its own rows).
fn scatter<S: CellSource + Sync, D: CellSource + Sync>(
    models: &[LinearModel],
    archive: &ShardedArchive<'_, S>,
    (dest, groups): (&[ArchiveShard<'_, D>], &[DualReadGroup]),
    k: usize,
    opts: ExecOptions<'_>,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<BatchedShardedTopK, ShardError> {
    if models.is_empty() {
        return Ok(BatchedShardedTopK::gathered(
            Vec::new(),
            Tally::default(),
            0,
        ));
    }
    check_epoch_fence(policy, archive)?;
    let shards = archive.shards();
    let cols = archive.shape().1;
    for shard in shards {
        validate_grid_inputs(&models[0], shard.pyramids, k)?;
    }
    for shard in dest {
        validate_grid_inputs(&models[0], shard.pyramids, k)?;
        if shard.cols() != cols {
            return Err(ShardError::Core(CoreError::Query(format!(
                "dest shard has {} columns, the archive has {cols}",
                shard.cols(),
            ))));
        }
    }
    validate_dual_groups(archive, dest, groups)?;
    same_arity(models)?;

    let deadline = WallDeadline::starting_now(opts.budget);
    let bounds: Vec<SharedBound> = models.iter().map(|_| SharedBound::new()).collect();
    // The soft deadline only engages when it is tighter than the caller's
    // own tick deadline — otherwise a Deadline stop is the caller's
    // ceiling, not a straggler signal.
    let soft_engaged = policy
        .shard_soft_deadline_ticks
        .is_some_and(|soft| opts.budget.deadline_ticks.is_none_or(|d| soft < d));
    let soft_budget = ExecutionBudget {
        deadline_ticks: policy.shard_soft_deadline_ticks,
        ..*opts.budget
    };
    let ctx = ScatterCtx {
        models,
        k,
        cols,
        opts,
        deadline: &deadline,
        bounds: &bounds,
    };
    let primary = ScatterCtx {
        opts: ExecOptions {
            budget: if soft_engaged {
                &soft_budget
            } else {
                opts.budget
            },
            ..opts
        },
        ..ctx
    };
    let mut attempts = primary.wave(shards, 0..shards.len(), pool);

    // Hedged re-dispatch of stragglers: one retry without the soft
    // deadline. The losing attempt's output is discarded wholesale so it
    // leaves no state in the merge.
    let mut hedged = vec![false; shards.len()];
    let mut hedge_won = vec![false; shards.len()];
    let cancelled = opts.cancel.is_some_and(CancelToken::is_cancelled);
    if policy.hedge_stragglers && soft_engaged && !cancelled {
        let stragglers: Vec<usize> = (0..shards.len())
            .filter(|&i| attempts[i].straggled())
            .collect();
        let hedges = ctx.wave(shards, stragglers.iter().copied(), pool);
        for (&i, hedge) in stragglers.iter().zip(hedges) {
            hedged[i] = true;
            if hedge.beats(&attempts[i]) {
                hedge_won[i] = true;
                attempts[i] = hedge;
            }
        }
    }

    // Destination wave: after the source wave, against the caller's own
    // budget (no soft deadline — the copies are fresh and local), with
    // the same shared bounds. The mature cross-shard floors make most
    // healthy destination descents exclude their band near the root, so
    // the dual fan-out costs little extra when nothing is failing.
    let dest_attempts = ctx.wave(dest, 0..dest.len(), pool);

    // A group's rows are served from the destination side only when a
    // migrating source shard failed *and* every destination copy
    // responded; the substitution is wholesale, so no cell merges twice.
    let source_failed: Vec<bool> = attempts.iter().map(Attempt::failed).collect();
    let mut cover: Vec<Option<usize>> = vec![None; shards.len()];
    for (g, group) in groups.iter().enumerate() {
        if group.source_shards.iter().any(|&s| source_failed[s])
            && group
                .dest_shards
                .iter()
                .all(|&d| !dest_attempts[d].failed())
        {
            for &s in &group.source_shards {
                cover[s] = Some(g);
            }
        }
    }

    // Epoch-aware quorum, before any merging: a migrating shard whose
    // rows the destination copies fully served counts as responded; only
    // uncovered failures count against the policy.
    let failed: Vec<usize> = (0..shards.len())
        .filter(|&i| source_failed[i] && cover[i].is_none())
        .collect();
    let responded = shards.len() - failed.len();
    let required = policy.completion.required(shards.len());
    if responded < required {
        return Err(InsufficientShards {
            responded,
            required,
            total: shards.len(),
            failed,
            epoch: archive.epoch,
        }
        .into());
    }

    let mut pages_read = 0u64;
    let mut tally = Tally::default();
    for attempt in &attempts {
        pages_read += attempt.pages;
        if let Ok((_, t)) = &attempt.out {
            tally += *t;
        }
    }
    let scattered = Scattered {
        archive,
        dest,
        groups,
        attempts,
        dest_attempts,
        source_failed,
        cover,
        hedged,
        hedge_won,
        soft_engaged,
    };
    let queries = models
        .iter()
        .enumerate()
        .map(|(q, model)| scattered.gather(q, model, k))
        .collect::<Result<_, _>>()?;
    Ok(BatchedShardedTopK::gathered(queries, tally, pages_read))
}

impl<S: CellSource, D: CellSource> Scattered<'_, S, D> {
    /// Query `q`'s gather: merge the exact items of every attempt that
    /// serves rows, derive the deterministic global K-th floor, then
    /// resolve each contributor's lost and leftover regions against it.
    fn gather(&self, q: usize, model: &LinearModel, k: usize) -> Result<ShardedTopK, CoreError> {
        let shards = self.archive.shards();
        let cols = self.archive.shape().1;
        let covered = |g: usize| self.cover.contains(&Some(g));
        let serving = (self.attempts.iter().zip(&self.cover))
            .filter(|(_, cover)| cover.is_none())
            .map(|(attempt, _)| attempt)
            .chain(
                (self.groups.iter().enumerate())
                    .filter(|(g, _)| covered(*g))
                    .flat_map(|(_, group)| group.dest_shards.iter())
                    .map(|&d| &self.dest_attempts[d]),
            );
        let mut merged = Outcome::default();
        for lane in serving.filter_map(|attempt| attempt.lanes().get(q)) {
            merged.effort.multiply_adds += lane.effort.multiply_adds;
            merged.items.extend(lane.items.iter().copied());
        }
        merged.merge_items(k);
        let mut effort = EffortReport {
            multiply_adds: merged.effort.multiply_adds,
            naive_multiply_adds: model.arity() as u64 * self.archive.total_cells(),
        };
        let mut merge = Merge::new(merged.items, k, cols);

        // Destination-side accounting, one ledger per covered group.
        // During cover, skipped page ids are destination-local (the
        // source pages were never the ones read).
        let mut ledgers: Vec<Option<Ledger>> = Vec::with_capacity(self.groups.len());
        for (g, group) in self.groups.iter().enumerate() {
            if !covered(g) {
                ledgers.push(None);
                continue;
            }
            let mut ledger = Ledger::default();
            for &d in &group.dest_shards {
                let copy = &self.dest_attempts[d];
                ledger.absorb(&mut merge, (model, q), &self.dest[d], copy, &mut effort)?;
            }
            ledger.skipped.sort_unstable();
            ledger.skipped.dedup();
            ledgers.push(Some(ledger));
        }
        let mut unresolved: u64 = ledgers.iter().flatten().map(|l| l.unresolved).sum();
        let mut budget_stop = ledgers.iter().flatten().fold(None, |s, l| worse(s, l.stop));

        let mut skipped_pages: Vec<(usize, usize)> = Vec::new();
        let mut reports: Vec<ShardReport> = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let (outcome, completeness, ledger) = if let Some(g) = self.cover[i] {
                // The group ledger lands on the group's first band; every
                // member shares the group's completeness (cell-weighted,
                // the per-shard fractions sum back to the group's).
                let members = &self.groups[g].source_shards;
                let ledger = ledgers[g].as_ref().expect("covered group has a ledger");
                let cells: u64 = members.iter().map(|&s| shards[s].cells()).sum();
                let shown = if members.iter().min() == Some(&i) {
                    ledger.clone()
                } else {
                    Ledger::default()
                };
                let completeness = 1.0 - ledger.unresolved as f64 / cells as f64;
                (ShardOutcome::Covered, completeness, shown)
            } else {
                let mut ledger = Ledger::default();
                ledger.absorb(
                    &mut merge,
                    (model, q),
                    shard,
                    &self.attempts[i],
                    &mut effort,
                )?;
                unresolved += ledger.unresolved;
                budget_stop = worse(budget_stop, ledger.stop);
                let timed_out = self.soft_engaged
                    && !self.hedge_won[i]
                    && ledger.stop == Some(BudgetStop::Deadline);
                let outcome = if self.source_failed[i] {
                    ShardOutcome::Failed
                } else if timed_out {
                    ShardOutcome::TimedOut
                } else if ledger.unresolved > 0 || ledger.stop.is_some() {
                    ShardOutcome::Degraded
                } else {
                    ShardOutcome::Complete
                };
                let completeness = 1.0 - ledger.unresolved as f64 / shard.cells() as f64;
                (outcome, completeness, ledger)
            };
            skipped_pages.extend(ledger.skipped.iter().map(|&p| (i, p)));
            reports.push(ShardReport {
                shard: i,
                outcome,
                completeness,
                exact_hits: ledger.exact_hits,
                skipped_pages: ledger.skipped,
                budget_stop: ledger.stop,
                pages_read: ledger.pages,
                ticks: ledger.ticks,
                hedged: self.hedged[i],
                hedge_won: self.hedge_won[i],
                cells: shard.cells(),
            });
        }

        Ok(ShardedTopK {
            results: merge.rank(),
            effort,
            completeness: 1.0 - unresolved as f64 / self.archive.total_cells() as f64,
            skipped_pages,
            budget_stop,
            shards: reports,
        })
    }
}

/// Result of one batched scatter-gather run: per-query sharded answers
/// plus the batch-wide physical-work accounting that shows what the
/// shared per-shard descents amortized.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedShardedTopK {
    /// Per-query merged answers, in batch order — on a healthy archive
    /// each is result-identical to that query's solo
    /// [`scatter_gather_top_k`] run under the same policy.
    pub queries: Vec<ShardedTopK>,
    /// Physical pages read by the winning attempts across all shards.
    pub pages_read: u64,
    /// Distinct level-0 cells materialized through the shard sources
    /// (winning attempts).
    pub cells_fetched: u64,
    /// Logical per-query cell reads served (≥ `cells_fetched`; the ratio
    /// is the batch's read amortization factor).
    pub cell_requests: u64,
    /// Physical region range fetches across winning attempts (see
    /// [`BatchedTopK::bound_evals`](crate::batched::BatchedTopK::bound_evals)).
    pub bound_evals: u64,
    /// Logical per-query bound requests served (≥ `bound_evals`).
    pub bound_requests: u64,
}

impl BatchedShardedTopK {
    fn gathered(queries: Vec<ShardedTopK>, tally: Tally, pages_read: u64) -> Self {
        BatchedShardedTopK {
            queries,
            pages_read,
            cells_fetched: tally.cells_fetched,
            cell_requests: tally.cell_requests,
            bound_evals: tally.bound_evals,
            bound_requests: tally.bound_requests,
        }
    }
}

/// Batched scatter-gather top-K: one scatter wave serves every model in
/// `models` — each shard is descended *once* for the whole batch, with
/// page reads and pyramid range fetches shared across queries, instead of
/// once per query. Per query, the pruning, quorum, hedging, and gather
/// semantics are exactly those of [`scatter_gather_top_k`]; on a healthy
/// archive each query's merged answer is result-identical to its solo
/// scatter-gather run. `opts` as in [`scatter_gather_top_k`]; the budget
/// is enforced per shard attempt and is *batch-wide* within the attempt
/// (summed multiply-adds, shared source clocks), like
/// [`crate::batched::batched_top_k`].
///
/// # Errors
///
/// [`ShardError::Core`] for invalid inputs (including models that
/// disagree on arity); [`ShardError::Insufficient`] when fewer shards
/// respond than `policy.completion` requires — shard failure is physical,
/// so the quorum verdict is shared by every query in the batch.
pub fn batched_scatter_gather_top_k<'a, S: CellSource + Sync>(
    models: &[LinearModel],
    archive: &ShardedArchive<'_, S>,
    k: usize,
    opts: impl Into<ExecOptions<'a>>,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<BatchedShardedTopK, ShardError> {
    scatter::<S, S>(models, archive, (&[], &[]), k, opts.into(), policy, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::with_pooled_scratch;
    use crate::resilient::resilient_top_k;
    use crate::source::TileSource;
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    /// Shards whose outcome is not [`ShardOutcome::Failed`].
    fn responded(r: &ShardedTopK) -> usize {
        r.shards
            .iter()
            .filter(|s| s.outcome != ShardOutcome::Failed)
            .count()
    }

    fn smooth_grid(i: usize, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
        })
    }

    /// One shard's owned state: band pyramids, band stores, band stats.
    struct ShardWorld {
        pyramids: Vec<AggregatePyramid>,
        stores: Vec<TileStore>,
        stats: AccessStats,
        row_offset: usize,
    }

    /// The `band_rows` rows of the `arity` smooth grids from global row
    /// `offset` on, as one shard's own state.
    fn band_world(
        arity: usize,
        (rows, cols): (usize, usize),
        tile: usize,
        offset: usize,
        band_rows: usize,
    ) -> ShardWorld {
        let bands: Vec<Grid2<f64>> = (0..arity)
            .map(|i| {
                let g = smooth_grid(i, rows, cols);
                Grid2::from_fn(band_rows, cols, |r, c| *g.at(offset + r, c))
            })
            .collect();
        let stats = AccessStats::new();
        ShardWorld {
            pyramids: bands.iter().map(AggregatePyramid::build).collect(),
            stores: bands
                .iter()
                .map(|b| {
                    TileStore::new(b.clone(), tile)
                        .unwrap()
                        .with_stats(stats.clone())
                })
                .collect(),
            stats,
            row_offset: offset,
        }
    }

    /// A global smooth world plus its row-band sharding. `rows` must be
    /// divisible by `shards` with tile-aligned bands.
    fn sharded_world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
        shards: usize,
    ) -> (LinearModel, Vec<AggregatePyramid>, Vec<ShardWorld>) {
        assert_eq!(rows % shards, 0);
        let band_rows = rows / shards;
        assert_eq!(band_rows % tile, 0, "bands must be tile-aligned");
        let global_pyramids = (0..arity)
            .map(|i| AggregatePyramid::build(&smooth_grid(i, rows, cols)))
            .collect();
        let worlds = (0..shards)
            .map(|s| band_world(arity, (rows, cols), tile, s * band_rows, band_rows))
            .collect();
        let coeffs: Vec<f64> = (0..arity).map(|i| 1.0 - 0.3 * i as f64).collect();
        (
            LinearModel::new(coeffs, 0.25).unwrap(),
            global_pyramids,
            worlds,
        )
    }

    /// Builds sources + archive over the worlds and runs the body. The
    /// closure indirection keeps the borrow chain (stores → sources →
    /// shards) inside one scope.
    fn with_archive<R>(
        worlds: &[ShardWorld],
        body: impl FnOnce(&ShardedArchive<'_, TileSource<'_>>) -> R,
    ) -> R {
        let sources: Vec<TileSource<'_>> = worlds
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        let shards: Vec<ArchiveShard<'_, TileSource<'_>>> = worlds
            .iter()
            .zip(&sources)
            .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
            .collect();
        let archive = ShardedArchive::new(shards).unwrap();
        body(&archive)
    }

    #[test]
    fn healthy_runs_are_bit_identical_to_unsharded_resilient() {
        for shard_count in [1usize, 2, 4, 16] {
            let (model, global, worlds) = sharded_world(3, 64, 64, 4, shard_count);
            let reference_stores: Vec<TileStore> = (0..3)
                .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
                .collect();
            let reference_src = TileSource::new(&reference_stores).unwrap();
            let reference = resilient_top_k(
                &model,
                &global,
                9,
                &reference_src,
                &ExecutionBudget::unlimited(),
            )
            .unwrap();
            with_archive(&worlds, |archive| {
                for threads in [1usize, 2, 4, 8] {
                    let pool = WorkerPool::new(threads);
                    waves();
                    let r = scatter_gather_top_k(
                        &model,
                        archive,
                        9,
                        &ExecutionBudget::unlimited(),
                        &ScatterPolicy::require_all(),
                        &pool,
                    )
                    .unwrap();
                    assert_eq!(
                        r.results, reference.results,
                        "shards={shard_count} threads={threads}"
                    );
                    assert!(!r.is_degraded());
                    assert_eq!(r.completeness, 1.0);
                    assert_eq!(r.budget_stop, None);
                    assert!(r.skipped_pages.is_empty());
                    assert!(r.shards.iter().all(|s| s.outcome == ShardOutcome::Complete));
                    // One pool task per thread at every shard count: whole
                    // shards, or with fewer shards than threads each shard's
                    // regions dealt to its share of the workers.
                    assert_eq!(waves(), [threads, 0], "primary, destination wave");
                }
            });
        }
    }

    /// The pool tasks of every wave this thread dealt since the last call.
    fn waves() -> Vec<usize> {
        crate::parallel::deal::WAVE_TASKS.with(|waves| waves.take())
    }

    #[test]
    fn cross_shard_bound_propagation_prunes_lagging_shards() {
        let (model, _, worlds) = sharded_world(2, 64, 64, 4, 4);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(1);
            let r = scatter_gather_top_k(
                &model,
                archive,
                3,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::require_all(),
                &pool,
            )
            .unwrap();
            // The smooth world concentrates the winners in one band, so
            // the floor published by the early shards must let the rest
            // skip most of their cells.
            assert!(r.effort.multiply_adds < r.effort.naive_multiply_adds / 2);
            let pages: u64 = worlds.iter().map(|w| w.stats.pages_read()).sum();
            let total_pages: usize = worlds
                .iter()
                .map(|w| w.stores.iter().map(TileStore::page_count).sum::<usize>())
                .sum();
            assert!(pages < total_pages as u64 / 2, "{pages} vs {total_pages}");
        });
    }

    fn kill_shard(world: &mut ShardWorld) {
        let store = &world.stores[0];
        let profile =
            (0..store.page_count()).fold(FaultProfile::new(), |p, page| p.permanent(page));
        world.stores = world
            .stores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    s.clone().with_faults(profile.clone())
                } else {
                    s.clone()
                }
            })
            .collect();
    }

    /// Every page of the shard costs 10,000 ticks: a soft deadline of
    /// 5,000 stops it at its first read.
    fn slow_down(world: &mut ShardWorld) {
        let profile = (0..world.stores[0].page_count())
            .fold(FaultProfile::new(), |p, page| p.latency(page, 10_000));
        for store in &mut world.stores {
            *store = store.clone().with_faults(profile.clone());
        }
    }

    #[test]
    fn dead_shard_degrades_best_effort_answer_soundly() {
        let (model, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        // Kill the shard holding the global winner so its absence must
        // surface as widened bounds, not a silent flip.
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &model,
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        let winner_row = reference.results[0].cell.row;
        let band_rows = 64 / 4;
        let victim = winner_row / band_rows;
        kill_shard(&mut worlds[victim]);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(4);
            let r = scatter_gather_top_k(
                &model,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::best_effort(),
                &pool,
            )
            .unwrap();
            assert!(r.is_degraded());
            assert!(r.completeness < 1.0);
            assert_eq!(r.shards[victim].outcome, ShardOutcome::Failed);
            assert_eq!(responded(&r), 3);
            // Soundness: the true winner's score must lie inside some
            // returned hit's bounds — the dead band's aggregate candidate.
            let truth = reference.results[0].score;
            assert!(
                r.results
                    .iter()
                    .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
                "true winner {truth} escaped all reported bounds"
            );
            // And every exact hit it did return is a genuinely correct
            // score for its cell (never a fabricated answer).
            for hit in r.results.iter().filter(|h| h.exact) {
                let x: Vec<f64> = (0..2)
                    .map(|i| *smooth_grid(i, 64, 64).at(hit.cell.row, hit.cell.col))
                    .collect();
                assert_eq!(hit.score, model.evaluate(&x));
            }
        });
    }

    #[test]
    fn quorum_policies_gate_dead_shards_with_typed_errors() {
        let (model, _, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        kill_shard(&mut worlds[0]);
        with_archive(&worlds, |archive| {
            // One worker → shard 0 runs first with an empty shared bound,
            // so its failure classification is deterministic.
            let pool = WorkerPool::new(1);
            let budget = ExecutionBudget::unlimited();
            let run = |policy: &ScatterPolicy| {
                scatter_gather_top_k(&model, archive, 5, &budget, policy, &pool)
            };
            match run(&ScatterPolicy::require_all()) {
                Err(ShardError::Insufficient(e)) => {
                    assert_eq!(e.responded, 3);
                    assert_eq!(e.required, 4);
                    assert_eq!(e.total, 4);
                    assert_eq!(e.failed, vec![0]);
                    let shown = e.to_string();
                    assert!(shown.contains("3 of 4"), "{shown}");
                    assert!(shown.contains("[0]"), "{shown}");
                }
                other => panic!("expected InsufficientShards, got {other:?}"),
            }
            match run(&ScatterPolicy::quorum(4)) {
                Err(ShardError::Insufficient(e)) => assert_eq!(e.required, 4),
                other => panic!("expected InsufficientShards, got {other:?}"),
            }
            let ok = run(&ScatterPolicy::quorum(3)).unwrap();
            assert_eq!(responded(&ok), 3);
            assert!(ok.is_degraded());
            let ok = run(&ScatterPolicy::best_effort()).unwrap();
            assert_eq!(ok.shards[0].outcome, ShardOutcome::Failed);
        });
    }

    #[test]
    fn straggler_shard_is_hedged_and_the_clean_attempt_wins() {
        let (model, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        // Slow down the band holding the global winner: the shared bound
        // can never exclude it, so its primary attempt must read a page,
        // eat the injected latency, and trip the soft deadline. Healthy
        // pages cost 1 tick, so no healthy shard can reach the deadline
        // even by reading its whole band.
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &model,
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        let slow = reference.results[0].cell.row / (64 / 4);
        slow_down(&mut worlds[slow]);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(4);
            let policy = ScatterPolicy::require_all()
                .with_soft_deadline_ticks(5_000)
                .with_hedged_stragglers();
            let r = scatter_gather_top_k(
                &model,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &policy,
                &pool,
            )
            .unwrap();
            let report = &r.shards[slow];
            assert!(report.hedged, "slow shard was not hedged");
            assert!(report.hedge_won, "hedge attempt should win cleanly");
            assert_ne!(report.outcome, ShardOutcome::TimedOut);
            assert!(r.shards.iter().filter(|s| s.hedged).count() == 1);
            // The hedged answer recovers the true winner exactly.
            assert_eq!(r.results[0].cell, reference.results[0].cell);
            assert_eq!(r.results[0].score, reference.results[0].score);
            // Without hedging the same run times the shard out.
            let no_hedge = ScatterPolicy::require_all().with_soft_deadline_ticks(5_000);
            let r2 = scatter_gather_top_k(
                &model,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &no_hedge,
                &pool,
            )
            .unwrap();
            assert_eq!(r2.shards[slow].outcome, ShardOutcome::TimedOut);
            assert_eq!(r2.shards[slow].budget_stop, Some(BudgetStop::Deadline));
        });
    }

    #[test]
    fn pre_cancelled_query_degrades_identically_at_every_thread_count() {
        let (model, _, worlds) = sharded_world(2, 32, 32, 4, 4);
        with_archive(&worlds, |archive| {
            let token = CancelToken::new();
            token.cancel();
            let mut outputs = Vec::new();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let r = scatter_gather_top_k(
                    &model,
                    archive,
                    3,
                    ExecOptions::new(&ExecutionBudget::unlimited()).cancel(&token),
                    &ScatterPolicy::best_effort(),
                    &pool,
                )
                .unwrap();
                assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
                assert!(r.completeness < 1.0);
                outputs.push(r.results);
            }
            for other in &outputs[1..] {
                assert_eq!(&outputs[0], other, "cancelled results diverge by threads");
            }
        });
    }

    #[test]
    fn topology_validation_rejects_malformed_archives() {
        let (_, _, worlds) = sharded_world(2, 32, 32, 4, 2);
        let sources: Vec<TileSource<'_>> = worlds
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        assert!(matches!(
            ShardedArchive::<TileSource<'_>>::new(Vec::new()),
            Err(CoreError::Query(_))
        ));
        // Gap between bands: second shard claims the wrong offset.
        let gappy = vec![
            ArchiveShard::new(&worlds[0].pyramids, &sources[0], 0),
            ArchiveShard::new(&worlds[1].pyramids, &sources[1], 17),
        ];
        assert!(ShardedArchive::new(gappy).is_err());
        // First shard must start at row 0.
        let late = vec![ArchiveShard::new(&worlds[0].pyramids, &sources[0], 4)];
        assert!(ShardedArchive::new(late).is_err());
        // Column mismatch.
        let narrow = smooth_grid(0, 16, 8);
        let narrow_pyr = vec![AggregatePyramid::build(&narrow)];
        let mixed = vec![
            ArchiveShard::new(&worlds[0].pyramids, &sources[0], 0),
            ArchiveShard::new(&narrow_pyr, &sources[1], 16),
        ];
        assert!(ShardedArchive::new(mixed).is_err());
        // k = 0 still rejected, through the shard entry point.
        let (model, _, worlds2) = sharded_world(2, 32, 32, 4, 2);
        with_archive(&worlds2, |archive| {
            let pool = WorkerPool::new(1);
            assert!(matches!(
                scatter_gather_top_k(
                    &model,
                    archive,
                    0,
                    &ExecutionBudget::unlimited(),
                    &ScatterPolicy::require_all(),
                    &pool,
                ),
                Err(ShardError::Core(CoreError::Query(_)))
            ));
        });
    }

    #[test]
    fn completion_policy_requirements_and_display() {
        assert_eq!(CompletionPolicy::RequireAll.required(4), 4);
        assert_eq!(CompletionPolicy::Quorum(2).required(4), 2);
        assert_eq!(CompletionPolicy::Quorum(9).required(4), 4);
        assert_eq!(CompletionPolicy::BestEffort.required(4), 0);
        assert_eq!(CompletionPolicy::RequireAll.to_string(), "require-all");
        assert_eq!(CompletionPolicy::Quorum(3).to_string(), "quorum(3)");
        assert_eq!(CompletionPolicy::BestEffort.to_string(), "best-effort");
        assert_eq!(ShardOutcome::TimedOut.to_string(), "timed-out");
        assert_eq!(ShardOutcome::Covered.to_string(), "covered");
        let err = InsufficientShards {
            responded: 1,
            required: 3,
            total: 4,
            failed: vec![1, 2, 3],
            epoch: TopologyEpoch::new(2),
        };
        assert!(err.to_string().contains("epoch e2"));
        let wrapped: ShardError = err.clone().into();
        assert!(Error::source(&wrapped).is_some());
        assert_eq!(wrapped.to_string(), err.to_string());
        let core_err: ShardError = CoreError::Query("bad".into()).into();
        assert!(Error::source(&core_err).is_some());
        let fence: ShardError = EpochMismatch {
            requested: TopologyEpoch::new(1),
            serving: TopologyEpoch::ZERO,
        }
        .into();
        assert!(Error::source(&fence).is_some());
        assert!(fence.to_string().contains("pinned topology epoch e1"));
    }

    /// A spread of query directions over `arity` shared attributes, like
    /// the batched engine's own test worlds: sign flips, magnitude skews,
    /// and offsets so floors mature at different paces across the batch.
    fn batch_models(arity: usize, m: usize) -> Vec<LinearModel> {
        (0..m)
            .map(|qi| {
                let coeffs: Vec<f64> = (0..arity)
                    .map(|a| 1.0 - 0.3 * a as f64 + 0.17 * qi as f64 - 0.09 * (a * qi) as f64)
                    .collect();
                LinearModel::new(coeffs, 0.25 * qi as f64).unwrap()
            })
            .collect()
    }

    #[test]
    fn healthy_batched_scatter_matches_solo_scatter_per_query() {
        let (_, _, worlds) = sharded_world(3, 64, 64, 4, 4);
        let models = batch_models(3, 5);
        let budget = ExecutionBudget::unlimited();
        let policy = ScatterPolicy::require_all();
        // At one pool thread the shards run in submission order for both
        // paths, so even the per-query effort reports coincide exactly.
        let solos: Vec<ShardedTopK> = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    scatter_gather_top_k(model, archive, 7, &budget, &policy, &WorkerPool::new(1))
                        .unwrap()
                })
            })
            .collect();
        with_archive(&worlds, |archive| {
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                7,
                &budget,
                &policy,
                &WorkerPool::new(1),
            )
            .unwrap();
            assert_eq!(batch.queries.len(), models.len());
            for (q, solo) in solos.iter().enumerate() {
                let b = &batch.queries[q];
                assert_eq!(b.results, solo.results, "q={q}");
                assert_eq!(b.effort, solo.effort, "q={q}");
                assert_eq!(b.completeness, 1.0);
                assert_eq!(b.budget_stop, None);
                assert!(b.skipped_pages.is_empty());
                assert!(b.shards.iter().all(|s| s.outcome == ShardOutcome::Complete));
            }
        });
        // At higher thread counts the shared-bound timing shifts effort,
        // but healthy merged answers stay identical per query.
        for threads in [2usize, 4, 8] {
            with_archive(&worlds, |archive| {
                let batch = batched_scatter_gather_top_k(
                    &models,
                    archive,
                    7,
                    &budget,
                    &policy,
                    &WorkerPool::new(threads),
                )
                .unwrap();
                for (q, solo) in solos.iter().enumerate() {
                    assert_eq!(
                        batch.queries[q].results, solo.results,
                        "threads={threads} q={q}"
                    );
                    assert!(!batch.queries[q].is_degraded());
                }
            });
        }
    }

    #[test]
    fn zero_overlap_batch_equals_solo_scatters_in_results_and_efforts() {
        // Directions that climb to different corners of the world: past
        // the shared pyramid apex the descents have nothing in common, every
        // band's bound memo retires, and each query finishes its walk over
        // the bands on its own. On a 1-thread pool one worker descends all
        // four bands, and a query's floor is its own scored cells (and its
        // own shared bound), so each query prunes exactly as its solo
        // scatter does: the answers *and* the per-query efforts must match.
        let (_, _, worlds) = sharded_world(3, 128, 128, 4, 4);
        let models: Vec<LinearModel> = [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
        .iter()
        .map(|c| LinearModel::new(c.to_vec(), 0.0).unwrap())
        .collect();
        let budget = ExecutionBudget::unlimited();
        let policy = ScatterPolicy::require_all();
        let pool = WorkerPool::new(1);
        with_archive(&worlds, |archive| {
            let batch =
                batched_scatter_gather_top_k(&models, archive, 5, &budget, &policy, &pool).unwrap();
            // The one-thread pool runs its single worker inline, so this
            // thread's pooled scratch holds the band memos the batch used.
            assert!(
                with_pooled_scratch(|scratch| crate::batched::memos_retired(scratch)),
                "test premise: every band's memo must stop sharing"
            );
            for (q, model) in models.iter().enumerate() {
                let solo =
                    scatter_gather_top_k(model, archive, 5, &budget, &policy, &pool).unwrap();
                assert_eq!(batch.queries[q].results, solo.results, "q={q}");
                assert_eq!(batch.queries[q].effort, solo.effort, "q={q}");
                assert_eq!(batch.queries[q].completeness, 1.0);
            }
        });
    }

    #[test]
    fn batched_scatter_amortizes_pages_across_queries() {
        let (_, _, worlds) = sharded_world(3, 64, 64, 4, 8);
        let models = batch_models(3, 6);
        let budget = ExecutionBudget::unlimited();
        let policy = ScatterPolicy::require_all();
        let solo_pages: u64 = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    let r = scatter_gather_top_k(
                        model,
                        archive,
                        7,
                        &budget,
                        &policy,
                        &WorkerPool::new(1),
                    )
                    .unwrap();
                    r.shards.iter().map(|s| s.pages_read).sum::<u64>()
                })
            })
            .sum();
        with_archive(&worlds, |archive| {
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                7,
                &budget,
                &policy,
                &WorkerPool::new(1),
            )
            .unwrap();
            // One scatter serves the whole batch: overlapping queries
            // share page reads, so the batch reads strictly fewer pages
            // than six independent scatters.
            assert!(
                batch.pages_read < solo_pages,
                "batch read {} pages vs {solo_pages} across solos",
                batch.pages_read
            );
            assert!(batch.cell_requests >= batch.cells_fetched);
            assert!(
                batch.bound_requests > batch.bound_evals,
                "no bound-vector sharing: {} requests, {} evals",
                batch.bound_requests,
                batch.bound_evals
            );
        });
    }

    #[test]
    fn dead_shard_degrades_batched_answers_like_solo_scatter() {
        let (_, _, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        let models = batch_models(2, 4);
        kill_shard(&mut worlds[0]);
        let budget = ExecutionBudget::unlimited();
        // Permanent faults are stateless across read attempts, so the
        // batched verdicts coincide with solo scatter verdicts per query.
        let solos: Vec<ShardedTopK> = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    scatter_gather_top_k(
                        model,
                        archive,
                        5,
                        &budget,
                        &ScatterPolicy::best_effort(),
                        &WorkerPool::new(1),
                    )
                    .unwrap()
                })
            })
            .collect();
        with_archive(&worlds, |archive| {
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                5,
                &budget,
                &ScatterPolicy::best_effort(),
                &WorkerPool::new(1),
            )
            .unwrap();
            for (q, solo) in solos.iter().enumerate() {
                let b = &batch.queries[q];
                assert_eq!(b.results, solo.results, "q={q}");
                assert_eq!(b.completeness, solo.completeness, "q={q}");
                assert_eq!(b.skipped_pages, solo.skipped_pages, "q={q}");
                assert_eq!(b.shards[0].outcome, ShardOutcome::Failed);
                assert_eq!(responded(b), 3);
            }
            // The quorum verdict is physical, shared by the whole batch.
            match batched_scatter_gather_top_k(
                &models,
                archive,
                5,
                &budget,
                &ScatterPolicy::require_all(),
                &WorkerPool::new(1),
            ) {
                Err(ShardError::Insufficient(e)) => {
                    assert_eq!(e.responded, 3);
                    assert_eq!(e.failed, vec![0]);
                }
                other => panic!("expected InsufficientShards, got {other:?}"),
            }
        });
    }

    #[test]
    fn batched_straggler_shard_is_hedged_and_recovers() {
        let (_, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        let models = batch_models(2, 3);
        // Slow down the band holding query 0's global winner: no shared
        // bound can exclude it, so its primary attempt must read a page,
        // eat the injected latency, and trip the soft deadline — the
        // batch-wide stop marks the shard a straggler.
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &models[0],
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        let slow = reference.results[0].cell.row / (64 / 4);
        slow_down(&mut worlds[slow]);
        let healthy_solos: Vec<ShardedTopK> = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    scatter_gather_top_k(
                        model,
                        archive,
                        5,
                        &ExecutionBudget::unlimited(),
                        &ScatterPolicy::require_all(),
                        &WorkerPool::new(1),
                    )
                    .unwrap()
                })
            })
            .collect();
        with_archive(&worlds, |archive| {
            let policy = ScatterPolicy::require_all()
                .with_soft_deadline_ticks(5_000)
                .with_hedged_stragglers();
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &policy,
                &WorkerPool::new(4),
            )
            .unwrap();
            for (q, solo) in healthy_solos.iter().enumerate() {
                let report = &batch.queries[q].shards[slow];
                assert!(report.hedged, "q={q}: slow shard was not hedged");
                assert!(report.hedge_won, "q={q}: hedge attempt should win");
                assert_ne!(report.outcome, ShardOutcome::TimedOut);
                assert_eq!(batch.queries[q].results, solo.results, "q={q}");
            }
        });
    }

    #[test]
    fn pre_cancelled_batched_scatter_degrades_every_query() {
        let (_, _, worlds) = sharded_world(2, 32, 32, 4, 4);
        let models = batch_models(2, 3);
        with_archive(&worlds, |archive| {
            let token = CancelToken::new();
            token.cancel();
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                3,
                ExecOptions::new(&ExecutionBudget::unlimited()).cancel(&token),
                &ScatterPolicy::best_effort(),
                &WorkerPool::new(2),
            )
            .unwrap();
            for q in &batch.queries {
                assert_eq!(q.budget_stop, Some(BudgetStop::Cancelled));
                assert!(q.completeness < 1.0);
                assert!(q.is_degraded());
            }
        });
    }

    /// The resilient answer over the whole smooth grid: the reference
    /// every healthy scatter must reproduce.
    fn unsharded(
        model: &LinearModel,
        global: &[AggregatePyramid],
        (rows, cols): (usize, usize),
        k: usize,
    ) -> crate::resilient::ResilientTopK {
        let stores: Vec<TileStore> = (0..global.len())
            .map(|i| TileStore::new(smooth_grid(i, rows, cols), 4).unwrap())
            .collect();
        let src = TileSource::new(&stores).unwrap();
        resilient_top_k(model, global, k, &src, &ExecutionBudget::unlimited()).unwrap()
    }

    #[test]
    fn sharded_work_tracks_unsharded() {
        // One worker descends every band as one forest, best first, against
        // one floor per query over every cell it scored: the work of the
        // unsharded descent, not the sum of four independent ones.
        let (rows, cols, k) = (128usize, 128usize, 9usize);
        let (_, global, worlds) = sharded_world(3, rows, cols, 4, 4);
        let models = batch_models(3, 6);
        let budget = ExecutionBudget::unlimited();
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(1);
            let policy = ScatterPolicy::require_all();
            let batch =
                batched_scatter_gather_top_k(&models, archive, k, &budget, &policy, &pool).unwrap();
            for (q, model) in models.iter().enumerate() {
                let want = unsharded(model, &global, (rows, cols), k);
                let got = &batch.queries[q];
                assert_eq!(got.results, want.results, "q={q}");
                let (sharded, whole) = (got.effort.multiply_adds, want.effort.multiply_adds);
                assert!(
                    sharded as f64 <= 1.05 * whole as f64,
                    "q={q}: sharded scatter did {sharded} multiply-adds, unsharded {whole}"
                );
            }
        });
    }

    #[test]
    fn slow_shard_times_out_alone_beside_its_worker_mate() {
        // At one thread one worker descends both bands as one: a stop on
        // the slow band's own clock halts that band only, and its hedge — a
        // fresh floor over the re-scored rows — recovers the healthy
        // answer. At two, the hedge wave of the one straggler deals its
        // regions to both workers, and nothing else changes.
        let (rows, cols, k) = (64usize, 64usize, 5usize);
        let (model, global, mut worlds) = sharded_world(2, rows, cols, 4, 2);
        let healthy = unsharded(&model, &global, (rows, cols), k);
        let slow = healthy.results[0].cell.row / (rows / 2);
        let mate = 1 - slow;
        slow_down(&mut worlds[slow]);
        with_archive(&worlds, |archive| {
            for threads in [1usize, 2] {
                let pool = WorkerPool::new(threads);
                let budget = ExecutionBudget::unlimited();
                let soft = ScatterPolicy::require_all().with_soft_deadline_ticks(5_000);
                let r = scatter_gather_top_k(&model, archive, k, &budget, &soft, &pool).unwrap();
                assert_eq!(r.shards[slow].outcome, ShardOutcome::TimedOut);
                assert_eq!(r.shards[mate].outcome, ShardOutcome::Complete);
                assert_eq!(r.shards[mate].budget_stop, None);

                let hedging = soft.with_hedged_stragglers();
                waves();
                let r = scatter_gather_top_k(&model, archive, k, &budget, &hedging, &pool);
                assert_eq!(
                    waves(),
                    [threads, threads, 0],
                    "primary, hedge, destination"
                );
                let r = r.unwrap();
                assert!(r.shards[slow].hedged && r.shards[slow].hedge_won);
                assert!(!r.shards[mate].hedged);
                assert_eq!(r.shards[mate].outcome, ShardOutcome::Complete);
                assert_eq!(r.results, healthy.results);
                assert_eq!(r.completeness, 1.0);
            }
        });
    }

    #[test]
    fn dual_read_destination_wave_raises_no_floor() {
        // The winner's band migrates into two half-height copies. A
        // destination wave re-scores rows the source wave already scored,
        // so it must start fresh worker floors: healthy, the source side
        // serves; with the source band dead, the copies serve — and both
        // answers are the unsharded one at every thread count.
        let (rows, cols, k) = (64usize, 64usize, 7usize);
        let (model, global, worlds) = sharded_world(3, rows, cols, 4, 4);
        let want = unsharded(&model, &global, (rows, cols), k);
        let band_rows = rows / 4;
        let migrating = want.results[0].cell.row / band_rows;
        let copies: Vec<ShardWorld> = (0..2)
            .map(|h| {
                let offset = migrating * band_rows + h * band_rows / 2;
                band_world(3, (rows, cols), 4, offset, band_rows / 2)
            })
            .collect();
        let copy_sources: Vec<TileSource<'_>> = copies
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        let dest: Vec<ArchiveShard<'_, TileSource<'_>>> = copies
            .iter()
            .zip(&copy_sources)
            .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
            .collect();
        let groups = [DualReadGroup {
            source_shards: vec![migrating],
            dest_shards: vec![0, 1],
        }];
        let (_, _, mut dead) = sharded_world(3, rows, cols, 4, 4);
        kill_shard(&mut dead[migrating]);
        let budget = ExecutionBudget::unlimited();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            for (world, served_by) in [
                (&worlds, ShardOutcome::Complete),
                (&dead, ShardOutcome::Covered),
            ] {
                with_archive(world, |archive| {
                    let r = scatter_gather_top_k_dual(
                        &model,
                        archive,
                        (&dest, &groups),
                        k,
                        &budget,
                        &ScatterPolicy::best_effort(),
                        &pool,
                    )
                    .unwrap();
                    let at = format!("threads={threads}, {served_by}");
                    assert_eq!(r.results, want.results, "{at}");
                    assert_eq!(r.completeness, 1.0, "{at}");
                    assert_eq!(r.shards[migrating].outcome, served_by, "{at}");
                });
            }
        }
    }

    #[test]
    fn dual_read_rejects_malformed_groups() {
        let (rows, cols) = (32usize, 32usize);
        let (model, _, worlds) = sharded_world(2, rows, cols, 4, 2);
        // Rows 4..8 copied twice and 12..16 not at all: the row count
        // still equals the span, so only a tiling check sees the overlap.
        let copies: Vec<ShardWorld> = [(0, 8), (4, 8), (16, 16)]
            .into_iter()
            .map(|(offset, n)| band_world(2, (rows, cols), 4, offset, n))
            .collect();
        let copy_sources: Vec<TileSource<'_>> = copies
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        let dest: Vec<ArchiveShard<'_, TileSource<'_>>> = copies
            .iter()
            .zip(&copy_sources)
            .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
            .collect();
        let group = |source_shards: Vec<usize>, dest_shards: Vec<usize>| DualReadGroup {
            source_shards,
            dest_shards,
        };
        let malformed = [
            vec![group(vec![0, 1], vec![0, 1, 2])],
            vec![group(vec![0, 1], vec![])],
            vec![group(vec![0], vec![0]), group(vec![1], vec![2])],
            vec![group(vec![0], vec![0, 0])],
            vec![group(vec![0, 1], vec![0, 1, 3])],
        ];
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(1);
            for groups in &malformed {
                assert!(
                    matches!(
                        scatter_gather_top_k_dual(
                            &model,
                            archive,
                            (&dest, groups),
                            3,
                            &ExecutionBudget::unlimited(),
                            &ScatterPolicy::best_effort(),
                            &pool,
                        ),
                        Err(ShardError::Core(CoreError::Query(_)))
                    ),
                    "{groups:?}"
                );
            }
        });
    }

    #[test]
    fn batched_scatter_rejects_empty_and_mismatched_batches() {
        let (_, _, worlds) = sharded_world(2, 32, 32, 4, 2);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(1);
            let budget = ExecutionBudget::unlimited();
            let empty = batched_scatter_gather_top_k::<TileSource<'_>>(
                &[],
                archive,
                3,
                &budget,
                &ScatterPolicy::require_all(),
                &pool,
            )
            .unwrap();
            assert!(empty.queries.is_empty());
            assert_eq!(empty.pages_read, 0);
            let mismatched = vec![
                LinearModel::new(vec![1.0, 0.5], 0.0).unwrap(),
                LinearModel::new(vec![1.0], 0.0).unwrap(),
            ];
            assert!(matches!(
                batched_scatter_gather_top_k(
                    &mismatched,
                    archive,
                    3,
                    &budget,
                    &ScatterPolicy::require_all(),
                    &pool,
                ),
                Err(ShardError::Core(CoreError::Query(_)))
            ));
        });
    }
}
