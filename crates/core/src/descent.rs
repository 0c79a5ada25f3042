//! The one execution core of the grid engines (DESIGN.md, *One execution
//! core*).
//!
//! Every grid engine in this crate — solo, parallel, batched, sharded — is
//! the paper's §4.2 best-first descent: pop the region with the best upper
//! bound, prove it irrelevant against a floor or refine it, evaluate
//! exactly at base resolution. Solo is a batch of one, so every query runs
//! through the one batch driver, `batched::descend`, which the pool's dealer
//! runs on every worker of a parallel wave.
//! This module owns that loop once:
//!
//! * [`step`] — one pop: prune against the floor, cooperative checkpoint,
//!   level-0 read-or-park, otherwise [`expand`] (one block bound of the
//!   children, push), every read through the band's [`Memo`].
//!   Monomorphised over the two axes on which the engines differ: where
//!   the floor comes from ([`Floor`]) and how a model bounds and scores
//!   ([`Scorer`]). What stops a run is one policy, [`Pooled`]: a band's
//!   budget on its own clocks, shared by every worker that descends part
//!   of the band. A lost page always parks its cell: the strict engines
//!   run over a source that cannot lose one.
//! * two schedulers over the step — [`drain`], the plain
//!   `while let Some(r) = frontier.pop()` loop of one lane, and
//!   [`interleave`], which advances one [`Lane`] per (query, band) over
//!   one or more bands ([`Env`]s) in global bound order through a
//!   [`Selector`] while their memo tables share work, and turns
//!   query-major once they stop doing so: each query then walks its own
//!   lanes across the bands in bound order ([`drain`] over one band). A
//!   batch of one starts retired, so a solo query goes straight to
//!   [`drain`]. The [`Floor`] spans every band: [`Scored`] is one pool
//!   worker's floor per query over every cell it scored.
//! * [`Merge`] — the gather half: exact hits, the deterministic K-th
//!   floor, lost cells and unrefined regions resolved against it or
//!   carried as degraded candidates, and the final rank order.

use crate::batched::{Memo, Selector};
use crate::engine::{read_base_vector_into, EffortReport, Region};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::parallel::SharedBound;
use crate::resilient::{
    BudgetStop, ExecOptions, ResilientHit, ResilientTopK, ScoreBounds, WallDeadline,
};
use crate::source::CellSource;
use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::{sort_desc, ScoredItem};
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The clocks one run's checkpoints read: the shared wall-deadline latch
/// and the source's page and tick counters relative to the run's start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock<'a> {
    opts: ExecOptions<'a>,
    deadline: &'a WallDeadline,
    pages_at_entry: u64,
    ticks_at_entry: u64,
}

impl<'a> Clock<'a> {
    /// Starts the page and tick windows at `source`'s current counters.
    pub(crate) fn starting<S: CellSource>(
        opts: ExecOptions<'a>,
        deadline: &'a WallDeadline,
        source: &S,
    ) -> Self {
        Clock {
            opts,
            deadline,
            pages_at_entry: source.pages_read(),
            ticks_at_entry: source.ticks_elapsed(),
        }
    }

    /// One cooperative-checkpoint stop evaluation. The fixed precedence
    /// Cancelled > WallClock > Budget dimensions guarantees a step that
    /// trips several dimensions at once reports the same reason on every
    /// run and at every thread count.
    fn check<S: CellSource>(&self, source: &S, multiply_adds: u64) -> Option<BudgetStop> {
        if self.opts.cancel.is_some_and(CancelToken::is_cancelled) {
            return Some(BudgetStop::Cancelled);
        }
        if self.deadline.expired() {
            return Some(BudgetStop::WallClock);
        }
        self.opts.budget.check(
            multiply_adds,
            source.pages_read().saturating_sub(self.pages_at_entry),
            source.ticks_elapsed().saturating_sub(self.ticks_at_entry),
        )
    }
}

const STOP_NONE: u8 = 0;

/// Stop reasons by severity: Cancelled > WallClock > Deadline > PageReads >
/// MultiplyAdds (0 is "no stop").
pub(crate) fn stop_code(stop: BudgetStop) -> u8 {
    match stop {
        BudgetStop::MultiplyAdds => 1,
        BudgetStop::PageReads => 2,
        BudgetStop::Deadline => 3,
        BudgetStop::WallClock => 4,
        BudgetStop::Cancelled => 5,
    }
}

fn code_stop(code: u8) -> Option<BudgetStop> {
    match code {
        1 => Some(BudgetStop::MultiplyAdds),
        2 => Some(BudgetStop::PageReads),
        3 => Some(BudgetStop::Deadline),
        4 => Some(BudgetStop::WallClock),
        5 => Some(BudgetStop::Cancelled),
        _ => None,
    }
}

/// The shared half of [`Pooled`]: multiply-adds spent across all workers
/// of one band's run, and the first stop reason any of them latched.
#[derive(Debug, Default)]
pub(crate) struct PoolMeter {
    spent: AtomicU64,
    latch: AtomicU8,
}

impl PoolMeter {
    /// The stop reason latched by the first worker to trip one.
    fn latched(&self) -> Option<BudgetStop> {
        code_stop(self.latch.load(Ordering::Relaxed))
    }
}

/// What can end a descent early: one band's budget, on the band's own
/// clocks, across every worker that descends part of the band (a
/// sequential run meters its one band alone). The budget sees the
/// multiply-adds of every such worker, and the first stop any of them
/// trips is latched so the rest surrender at their next pop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pooled<'a> {
    clock: Clock<'a>,
    meter: &'a PoolMeter,
}

impl<'a> Pooled<'a> {
    pub(crate) fn new(clock: Clock<'a>, meter: &'a PoolMeter) -> Self {
        Pooled { clock, meter }
    }

    /// Adds to the multiply-adds the budget sees (once per pop). Only a
    /// multiply-add cap reads the shared count: without one, no worker
    /// pays the atomic add.
    #[inline]
    fn charge(&self, multiply_adds: u64) {
        if self.clock.opts.budget.max_multiply_adds.is_some() {
            self.meter.spent.fetch_add(multiply_adds, Ordering::Relaxed);
        }
    }

    /// The per-pop cooperative checkpoint.
    #[inline]
    fn stop<S: CellSource>(&self, source: &S) -> Option<BudgetStop> {
        if let Some(latched) = self.meter.latched() {
            return Some(latched); // Another worker tripped the stop.
        }
        let stop = self
            .clock
            .check(source, self.meter.spent.load(Ordering::Relaxed))?;
        let _ = self.meter.latch.compare_exchange(
            STOP_NONE,
            stop_code(stop),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.meter.latched()
    }
}

/// Where a lane's pruning floor comes from.
pub(crate) trait Floor {
    /// The floor a lane of query `q` prunes with at pop time, given the
    /// lane's own top-K `heap` (`None`: nothing can be excluded yet).
    fn at_pop(&self, q: usize, heap: &TopKHeap) -> Option<f64>;

    /// Called after a lane of query `q` scored `item`.
    fn publish(&mut self, q: usize, item: ScoredItem);
}

/// The lane's own K-th best score.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Local;

impl Floor for Local {
    #[inline]
    fn at_pop(&self, _q: usize, heap: &TopKHeap) -> Option<f64> {
        heap.floor()
    }

    #[inline]
    fn publish(&mut self, _q: usize, _item: ScoredItem) {}
}

/// One pool worker's floors, one per query: the K-th best of every cell
/// the worker has scored for that query — over all of its lanes, whatever
/// band each descends — raised to the query's [`SharedBound`], which is
/// offered every new K-th in turn.
///
/// Sound because within one wave a worker never scores a cell twice: its
/// bands are disjoint (`ShardedArchive::new` and the dual-read group check
/// reject overlapping bands), and each lane of a band descends its own
/// regions.
/// So a heap's K-th is the K-th best of a subset of the query's distinct
/// cells and never exceeds the true K-th score; the shared bound is the
/// max of such values. A wave that re-scores rows an earlier wave scored
/// (a hedge, a dual-read destination copy) starts fresh heaps and keeps
/// only the shared bound.
pub(crate) struct Scored<'a> {
    heaps: Vec<TopKHeap>,
    bounds: &'a [SharedBound],
}

impl<'a> Scored<'a> {
    /// Empty heaps of `k` for every query of `bounds`.
    pub(crate) fn new(k: usize, bounds: &'a [SharedBound]) -> Self {
        Scored {
            heaps: bounds.iter().map(|_| TopKHeap::new(k)).collect(),
            bounds,
        }
    }
}

impl Floor for Scored<'_> {
    #[inline]
    fn at_pop(&self, q: usize, _heap: &TopKHeap) -> Option<f64> {
        let shared = self.bounds[q].get();
        Some(self.heaps[q].floor().map_or(shared, |f| shared.max(f)))
    }

    #[inline]
    fn publish(&mut self, q: usize, item: ScoredItem) {
        let heap = &mut self.heaps[q];
        if heap.offer(item) {
            if let Some(f) = heap.floor() {
                self.bounds[q].offer(f);
            }
        }
    }
}

/// A model the descent can bound over a region and score at a cell.
///
/// Both bounds are upper bounds only, and [`bound_children`] must give
/// each child exactly the bits [`bound`] gives it: the same terms added
/// in the same order. A cell is scored with the full [`model`], which is
/// also what the inputs are validated against and what bounds a degraded
/// candidate.
///
/// [`bound`]: Scorer::bound
/// [`bound_children`]: Scorer::bound_children
/// [`model`]: Scorer::model
pub(crate) trait Scorer {
    /// The full linear model.
    fn model(&self) -> &LinearModel;

    /// Sound upper bound over region `(level, row, col)`, and the
    /// multiply-adds it cost.
    fn bound(
        &self,
        pyramids: &[AggregatePyramid],
        at: (usize, usize, usize),
    ) -> Result<(f64, u64), CoreError>;

    /// [`bound`](Scorer::bound) of every child of a region of `level`
    /// (1 or more) in one call, over the children's `(min, max)` `rows`,
    /// written to `ub` in [`AggregatePyramid::child_ranges`] order: the
    /// child count, and the multiply-adds *each* child cost.
    fn bound_children(&self, level: usize, rows: impl ChildRows, ub: &mut [f64; 4])
        -> (usize, u64);
}

/// Where a block bound reads the `(min, max)` of a region's children:
/// `rows(attr, out)` writes attribute `attr`'s row in
/// [`AggregatePyramid::child_ranges`] order and returns the child count.
/// The rows are read from the pyramids on a fresh expansion ([`fresh`]),
/// or replayed from a block the batch memo stored.
pub(crate) trait ChildRows: Fn(usize, &mut [(f64, f64); 4]) -> usize {}

impl<F: Fn(usize, &mut [(f64, f64); 4]) -> usize> ChildRows for F {}

/// The rows of region `parent`'s children, read from the pyramids.
#[inline]
pub(crate) fn fresh(
    pyramids: &[AggregatePyramid],
    (level, row, col): (usize, usize, usize),
) -> impl ChildRows + '_ {
    move |attr: usize, out: &mut [(f64, f64); 4]| pyramids[attr].child_ranges(level, row, col, out)
}

/// The children of region `parent` (level >= 1) in `(rr, cc)` order — the
/// order [`AggregatePyramid::child_ranges`] writes them in.
#[inline]
pub(crate) fn children_of(
    pyramids: &[AggregatePyramid],
    (parent, row, col): (usize, usize, usize),
) -> impl Iterator<Item = (usize, usize, usize)> {
    let level = parent - 1;
    let (rows, cols) = pyramids[0].level_shape(level);
    let cc = col * 2..(col * 2 + 2).min(cols);
    (row * 2..(row * 2 + 2).min(rows)).flat_map(move |rr| cc.clone().map(move |c| (level, rr, c)))
}

/// Coefficient `a`'s largest contribution over `[min, max]`:
/// [`LinearModel::bound_over_box`]'s `hi` term.
#[inline]
pub(crate) fn upper_term(a: f64, (min, max): (f64, f64)) -> f64 {
    if a >= 0.0 {
        a * max
    } else {
        a * min
    }
}

/// `intercept` plus the [`upper_term`] of every `(attribute, coefficient)`
/// in `terms`, in that order, over region `at`.
#[inline]
pub(crate) fn region_upper(
    pyramids: &[AggregatePyramid],
    (level, row, col): (usize, usize, usize),
    intercept: f64,
    terms: impl Iterator<Item = (usize, f64)>,
) -> Result<f64, CoreError> {
    let mut hi = intercept;
    for (attr, a) in terms {
        let s = pyramids[attr].cell(level, row, col)?;
        hi += upper_term(a, (s.min, s.max));
    }
    Ok(hi)
}

/// [`region_upper`] of every child at once, over the children's `rows`,
/// written to `ub` in `(rr, cc)` order: one row per term, the same
/// additions in the same order per child. Returns the child count, which
/// every row shares: the grid entry points validate that the pyramids
/// share a shape.
#[inline]
pub(crate) fn children_upper(
    rows: impl ChildRows,
    intercept: f64,
    terms: impl Iterator<Item = (usize, f64)>,
    ub: &mut [f64; 4],
) -> usize {
    *ub = [intercept; 4];
    let (mut ranges, mut n) = ([(0.0, 0.0); 4], 0);
    for (attr, a) in terms {
        n = rows(attr, &mut ranges);
        // All four slots, so the loop has a fixed length: a slot past
        // `n` adds stale ranges to a bound nobody reads.
        for (u, &range) in ub.iter_mut().zip(&ranges) {
            *u += upper_term(a, range);
        }
    }
    n
}

/// The full-model interval bound: `arity` multiply-adds per region,
/// summed from the intercept in attribute order exactly as
/// [`LinearModel::bound_over_box`] sums its `hi`.
impl Scorer for LinearModel {
    #[inline]
    fn model(&self) -> &LinearModel {
        self
    }

    #[inline]
    fn bound(
        &self,
        pyramids: &[AggregatePyramid],
        at: (usize, usize, usize),
    ) -> Result<(f64, u64), CoreError> {
        let terms = self.coefficients().iter().copied().enumerate();
        let hi = region_upper(pyramids, at, self.intercept(), terms)?;
        Ok((hi, self.arity() as u64))
    }

    #[inline]
    fn bound_children(
        &self,
        _level: usize,
        rows: impl ChildRows,
        ub: &mut [f64; 4],
    ) -> (usize, u64) {
        let terms = self.coefficients().iter().copied().enumerate();
        let n = children_upper(rows, self.intercept(), terms, ub);
        (n, self.arity() as u64)
    }
}

/// Verdict of one base-cell read.
pub(crate) enum Cell<'a> {
    /// The cell's attribute vector.
    Loaded(&'a [f64]),
    /// The read was lost on this page.
    Lost(usize),
}

/// Reads one base cell's attribute vector into `x`. A read lost to a page
/// fault — [`ArchiveError::PageIo`], `PageQuarantined`, or `PageCorrupt`
/// (detected silent corruption) — returns the failing page instead of the
/// error, so the descent parks the cell; every other error propagates.
#[inline]
pub(crate) fn read_cell<S: CellSource>(
    source: &S,
    (row, col): (usize, usize),
    x: &mut Vec<f64>,
    arity: usize,
) -> Result<Option<usize>, CoreError> {
    match read_base_vector_into(source, arity, row, col, x) {
        Ok(()) => Ok(None),
        Err(CoreError::Archive(
            ArchiveError::PageIo { page }
            | ArchiveError::PageQuarantined { page }
            | ArchiveError::PageCorrupt { page },
        )) => Ok(Some(source.page_of(row, col).unwrap_or(page))),
        Err(e) => Err(e),
    }
}

/// What one lane's descent produced.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Exact items, best first, indexed `(row + row_offset) * cols + col`.
    pub(crate) items: Vec<ScoredItem>,
    /// Level-0 regions whose page read failed, with the failing page.
    pub(crate) lost: Vec<(Region, usize)>,
    /// Regions an early stop left unrefined.
    pub(crate) leftover: Vec<Region>,
    pub(crate) effort: EffortReport,
    /// `Some` when a stop interrupted this lane (a lane that closed or
    /// drained before a batch-wide stop keeps `None`).
    pub(crate) stop: Option<BudgetStop>,
}

impl Outcome {
    /// Folds another worker's outcome for the same lane into this one.
    pub(crate) fn absorb(&mut self, other: Outcome) {
        self.items.extend(other.items);
        self.lost.extend(other.lost);
        self.leftover.extend(other.leftover);
        self.effort.multiply_adds += other.effort.multiply_adds;
        self.stop = self.stop.or(other.stop);
    }

    /// Restores the global `(score desc, index asc)` order after
    /// [`absorb`](Outcome::absorb) and keeps the best `k`.
    pub(crate) fn merge_items(&mut self, k: usize) {
        sort_desc(&mut self.items);
        self.items.truncate(k);
    }
}

/// One query's descent state: its model, frontier, top-K heap, and what
/// it parked or surrendered.
pub(crate) struct Lane<'a, M> {
    q: usize,
    model: &'a M,
    pub(crate) frontier: &'a mut BinaryHeap<Region>,
    heap: TopKHeap,
    out: Outcome,
}

impl<'a, M> Lane<'a, M> {
    /// Lane `q` over an empty `frontier`; `naive` is the lane's
    /// `naive_multiply_adds`.
    pub(crate) fn new(
        q: usize,
        model: &'a M,
        frontier: &'a mut BinaryHeap<Region>,
        k: usize,
        naive: u64,
    ) -> Self {
        frontier.clear();
        Lane {
            q,
            model,
            frontier,
            heap: TopKHeap::new(k),
            out: Outcome {
                effort: EffortReport {
                    multiply_adds: 0,
                    naive_multiply_adds: naive,
                },
                ..Outcome::default()
            },
        }
    }

    /// Surrenders `region` and the rest of the frontier to `stop`.
    fn surrender(&mut self, region: Option<Region>, stop: BudgetStop) {
        self.out.stop = Some(stop);
        self.out.leftover.extend(region);
        self.out.leftover.extend(self.frontier.drain());
    }

    pub(crate) fn finish(self) -> Outcome {
        Outcome {
            items: self.heap.into_sorted(),
            ..self.out
        }
    }
}

/// What every lane over one band shares: the band's resident pyramids,
/// its page source, the hit-index geometry, the band's [`Memo`] — every
/// bound and base-cell read goes through it — and the band's [`Pooled`]
/// budget. A descent over several bands has one `Env` per band;
/// the [`Floor`] spans them all and is passed apart.
pub(crate) struct Env<'a, S> {
    pub(crate) pyramids: &'a [AggregatePyramid],
    pub(crate) source: &'a S,
    /// Global column count and the global row of the pyramids' first
    /// row: a hit's index is `(row + row_offset) * cols + col`.
    pub(crate) cols: usize,
    pub(crate) row_offset: usize,
    pub(crate) memo: &'a mut Memo,
    pub(crate) pressure: Pooled<'a>,
}

/// How one [`step`] ended.
enum Step {
    /// The region was evaluated, parked, or expanded.
    Advanced,
    /// The lane's bound proof closed: the popped region and everything
    /// left in the frontier are provably outside the top-K.
    Closed,
    /// The checkpoint tripped before the region was processed.
    Stopped(BudgetStop),
}

/// Pushes the lane's root region, charging its bound like any other.
pub(crate) fn seed_root<S, M: Scorer>(
    env: &mut Env<'_, S>,
    lane: &mut Lane<'_, M>,
) -> Result<(), CoreError> {
    let top = env.pyramids[0].levels() - 1;
    let (ub, spent) = env.memo.bound(lane.model, env.pyramids, (top, 0, 0))?;
    lane.out.effort.multiply_adds += spent;
    env.pressure.charge(spent);
    lane.frontier.push(Region::new(ub, (top, 0, 0)));
    Ok(())
}

/// Bounds and pushes the children of `region`: one block bound over all
/// of them, then the pushes in `(rr, cc)` order, charged `n ×` the
/// per-child multiply-adds.
#[inline(always)]
fn expand<S, M: Scorer>(env: &mut Env<'_, S>, lane: &mut Lane<'_, M>, region: Region) {
    let mut ub = [0.0; 4];
    let (n, madds) = env
        .memo
        .bound_children(lane.model, env.pyramids, region.at(), &mut ub);
    for (at, &ub) in children_of(env.pyramids, region.at()).zip(&ub[..n]) {
        lane.frontier.push(Region::new(ub, at));
    }
    let spent = n as u64 * madds;
    lane.out.effort.multiply_adds += spent;
    env.pressure.charge(spent);
}

/// One pop of one lane — the loop body of every grid engine. Forced
/// inline (with [`expand`]) so each scheduler compiles to the single loop
/// the hand-written engines were: on `grid_hot` a plain `#[inline]` hint
/// costs 2 % of throughput, this form measures equal to the old loop.
#[inline(always)]
fn step<S, M, B>(
    env: &mut Env<'_, S>,
    floor: &mut B,
    lane: &mut Lane<'_, M>,
    region: Region,
) -> Result<Step, CoreError>
where
    S: CellSource,
    M: Scorer,
    B: Floor,
{
    if floor
        .at_pop(lane.q, &lane.heap)
        .is_some_and(|f| f >= region.ub())
    {
        return Ok(Step::Closed);
    }
    if let Some(stop) = env.pressure.stop(env.source) {
        return Ok(Step::Stopped(stop));
    }
    let (level, row, col) = region.at();
    if level > 0 {
        expand(env, lane, region);
        return Ok(Step::Advanced);
    }
    let model = lane.model.model();
    let arity = model.arity();
    match env.memo.cell(env.source, (row, col), arity)? {
        Cell::Loaded(x) => {
            let spent = arity as u64;
            lane.out.effort.multiply_adds += spent;
            env.pressure.charge(spent);
            let item = ScoredItem {
                index: (row + env.row_offset) * env.cols + col,
                score: model.evaluate(x),
            };
            lane.heap.offer(item);
            floor.publish(lane.q, item);
        }
        Cell::Lost(page) => lane.out.lost.push((region, page)),
    }
    Ok(Step::Advanced)
}

/// The one-lane scheduler: runs one lane until its bound proof closes, its
/// frontier drains, or a stop (returned) makes it surrender what is left.
/// Kept out of line: inlined into [`interleave`], whose body already holds
/// two [`step`]s, it left the frontier's push and pop as calls.
#[inline(never)]
pub(crate) fn drain<S, M, B>(
    env: &mut Env<'_, S>,
    floor: &mut B,
    lane: &mut Lane<'_, M>,
) -> Result<Option<BudgetStop>, CoreError>
where
    S: CellSource,
    M: Scorer,
    B: Floor,
{
    while let Some(region) = lane.frontier.pop() {
        match step(env, floor, lane, region)? {
            Step::Advanced => {}
            Step::Closed => {
                lane.frontier.clear();
                break;
            }
            Step::Stopped(stop) => {
                lane.surrender(Some(region), stop);
                return Ok(Some(stop));
            }
        }
    }
    Ok(None)
}

/// Ends band `b`'s descent: every lane of it still holding frontier
/// surrenders that to `stop`, or drops it when the band errored (`None`).
fn halt<M>(
    lanes: &mut [Lane<'_, M>],
    bands: usize,
    b: usize,
    stop: Option<BudgetStop>,
    selector: &mut Selector,
) {
    for (i, lane) in lanes.iter_mut().enumerate().skip(b).step_by(bands) {
        match stop {
            Some(stop) if !lane.frontier.is_empty() => lane.surrender(None, stop),
            _ => lane.frontier.clear(),
        }
        selector.arm(i, None);
    }
}

/// Pops and steps lane `i` of [`interleave`] once; returns whether the
/// lane is still open (the caller re-arms it). A stop or an error halts
/// the lane's whole band.
#[inline(always)]
fn advance<S, M, B>(
    envs: &mut [Env<'_, S>],
    floor: &mut B,
    lanes: &mut [Lane<'_, M>],
    i: usize,
    verdicts: &mut [Result<(), CoreError>],
    selector: &mut Selector,
) -> bool
where
    S: CellSource,
    M: Scorer,
    B: Floor,
{
    let bands = envs.len();
    let b = i % bands;
    let lane = &mut lanes[i];
    // A halted lane's heap-selector entry can outlive its frontier.
    let Some(region) = lane.frontier.pop() else {
        return false;
    };
    match step(&mut envs[b], floor, lane, region) {
        Ok(Step::Advanced) => true,
        Ok(Step::Closed) => {
            // Not re-arming drops the lane's remainder wholesale.
            lane.frontier.clear();
            false
        }
        Ok(Step::Stopped(stop)) => {
            lane.surrender(Some(region), stop);
            halt(lanes, bands, b, Some(stop), selector);
            false
        }
        Err(e) => {
            verdicts[b] = Err(e);
            halt(lanes, bands, b, None, selector);
            false
        }
    }
}

/// The batch scheduler, over the lanes of one band or of several.
/// `lanes` holds one lane per (query, band), query-major: lane `i` is
/// query `i / bands`'s descent of band `i % bands`, with `envs[b]` band
/// `b`'s. Whichever lane holds the best upper bound over every band
/// advances, so lanes interested in the same region pop it back to back
/// while their band's memo shares the reads, and each query
/// descends its bands as one forest, best first, against the one floor
/// it has across them. Once a band reports its sharing retired, the
/// schedule turns query-major: each selected query walks its own lanes
/// across the bands in bound order until they close, which keeps that
/// query's pages hot. Restricted to any one query the pop sequence is
/// that query's best-first sequence over the forest. The two selectors
/// (reused buffers) schedule the lanes and a query's walk.
///
/// A stop is band-wide: every lane of the band still holding frontier
/// surrenders it, closed and drained lanes keep their finished answers,
/// and the other bands carry on. An error lands in the band's `verdicts`
/// slot and drops the band's lanes; a band whose verdict is an error on
/// entry is not descended at all.
pub(crate) fn interleave<S, M, B>(
    envs: &mut [Env<'_, S>],
    floor: &mut B,
    lanes: &mut [Lane<'_, M>],
    verdicts: &mut [Result<(), CoreError>],
    [selector, walk]: &mut [Selector; 2],
) where
    S: CellSource,
    M: Scorer,
    B: Floor,
{
    let bands = envs.len();
    selector.reset(lanes.len());
    for (i, lane) in lanes.iter_mut().enumerate() {
        if verdicts[i % bands].is_err() {
            lane.frontier.clear();
        }
        selector.arm(i, lane.frontier.peek());
    }
    walk.reset(bands);
    while let Some(i) = selector.next() {
        if !envs.iter().any(|env| env.memo.retired()) {
            if advance(envs, floor, lanes, i, verdicts, selector) {
                selector.arm(i, lanes[i].frontier.peek());
            }
            continue;
        }
        selector.go_serial();
        let first = i - i % bands;
        for (b, lane) in lanes[first..first + bands].iter().enumerate() {
            walk.arm(b, lane.frontier.peek());
            selector.arm(first + b, None);
        }
        while let Some(b) = walk.next() {
            let j = first + b;
            if !walk.is_empty() {
                if advance(envs, floor, lanes, j, verdicts, selector) {
                    walk.arm(b, lanes[j].frontier.peek());
                }
                continue;
            }
            // The query's last open lane — over one band, its only one —
            // has nothing to yield to: it runs to its end through the solo
            // loop, which re-arms nothing per pop.
            match drain(&mut envs[b], floor, &mut lanes[j]) {
                Ok(None) => {}
                Ok(Some(stop)) => halt(lanes, bands, b, Some(stop), selector),
                Err(e) => {
                    verdicts[b] = Err(e);
                    halt(lanes, bands, b, None, selector);
                }
            }
        }
    }
}

/// The sequential warm-up of a band dealt to several workers: best-first
/// expansion in the [`interleave`] order, with level-0 pops parked
/// instead of evaluated, until the lanes hold `target` regions between
/// them or bottom out. Returns the `(lane, region)` pairs held, best
/// first — `(ub desc, level, row, col, lane)` — ready to be dealt
/// round-robin. One checkpoint per pop; a trip makes every lane surrender
/// what it holds, and nothing is returned.
pub(crate) fn warm_up<S, M>(
    env: &mut Env<'_, S>,
    lanes: &mut [Lane<'_, M>],
    target: usize,
    selector: &mut Selector,
) -> Vec<(usize, Region)>
where
    S: CellSource,
    M: Scorer,
{
    selector.reset(lanes.len());
    for (q, lane) in lanes.iter().enumerate() {
        selector.arm(q, lane.frontier.peek());
    }
    let mut held: Vec<(usize, Region)> = Vec::new();
    let mut open: usize = lanes.iter().map(|l| l.frontier.len()).sum();
    while open + held.len() < target {
        if let Some(stop) = env.pressure.stop(env.source) {
            for (q, region) in held {
                lanes[q].out.leftover.push(region);
            }
            for lane in lanes.iter_mut() {
                lane.surrender(None, stop);
            }
            return Vec::new();
        }
        let Some(q) = selector.next() else { break };
        let lane = &mut lanes[q];
        let region = lane.frontier.pop().expect("an armed lane has a top");
        open -= 1;
        if region.level() == 0 {
            held.push((q, region));
        } else {
            let before = lane.frontier.len();
            expand(env, lane, region);
            open += lane.frontier.len() - before;
        }
        selector.arm(q, lane.frontier.peek());
    }
    for (q, lane) in lanes.iter_mut().enumerate() {
        held.extend(lane.frontier.drain().map(|r| (q, r)));
    }
    held.sort_by(|(qa, a), (qb, b)| b.cmp(a).then(qa.cmp(qb)));
    held
}

/// Degraded candidates cross pyramid boundaries: a band pyramid sums its
/// aggregates in a different floating-point order than a global
/// evaluation of the same cells, so a mathematically sound bound can
/// round a few ulps inside the true supremum. A sharded merge widens
/// every inexact candidate by a relative guard so "the true score lies
/// inside the reported bounds" holds in floating point too. Exact hits
/// are never widened, and exclusion still uses the raw bounds.
fn widen(bounds: ScoreBounds) -> ScoreBounds {
    let pad = bounds.hi.abs().max(bounds.lo.abs()).max(1.0) * f64::EPSILON * 16.0;
    ScoreBounds {
        lo: bounds.lo - pad,
        hi: bounds.hi + pad,
    }
}

/// The pyramids one descent ran over, as the gather sees them.
#[derive(Clone, Copy)]
pub(crate) struct Band<'a> {
    pub(crate) pyramids: &'a [AggregatePyramid],
    /// Global row of the pyramids' first row.
    pub(crate) row_offset: usize,
    /// Whether this is one band of several (candidates are then widened,
    /// see [`widen`]).
    pub(crate) sharded: bool,
}

/// The gather half of every resilient engine: exact hits, the
/// deterministic exclusion floor, and the degraded candidates that
/// survive it.
pub(crate) struct Merge {
    hits: Vec<ResilientHit>,
    /// Only a full set of `k` exact items gives a sound exclusion floor.
    floor: Option<f64>,
    k: usize,
    ranges: Vec<(f64, f64)>,
    means: Vec<f64>,
}

impl Merge {
    /// Starts from the merged exact `items`: best first, at most `k`,
    /// indexed `row * cols + col` in global coordinates.
    pub(crate) fn new(items: Vec<ScoredItem>, k: usize, cols: usize) -> Self {
        let floor = if items.len() == k {
            items.last().map(|i| i.score)
        } else {
            None
        };
        let hits = items
            .into_iter()
            .map(|item| ResilientHit {
                cell: CellCoord::new(item.index / cols, item.index % cols),
                level: 0,
                score: item.score,
                bounds: ScoreBounds::exact(item.score),
                exact: true,
            })
            .collect();
        Merge {
            hits,
            floor,
            k,
            ranges: Vec::new(),
            means: Vec::new(),
        }
    }

    fn excluded(&self, hi: f64) -> bool {
        self.floor.is_some_and(|f| f >= hi)
    }

    /// A degraded candidate for a pyramid region: score = model at the
    /// region means, bounds = sound box bounds, plus the region's
    /// base-cell count. Charged `2n`: bound + estimate.
    fn candidate(
        &mut self,
        model: &LinearModel,
        pyramids: &[AggregatePyramid],
        (level, row, col): (usize, usize, usize),
        effort: &mut EffortReport,
    ) -> Result<(ResilientHit, u64), CoreError> {
        self.ranges.clear();
        self.means.clear();
        let mut count = 0u64;
        for p in pyramids {
            let s = p.cell(level, row, col)?;
            self.ranges.push((s.min, s.max));
            self.means.push(s.mean);
            count = s.count;
        }
        let (lo, hi) = model.bound_over_box(&self.ranges)?;
        effort.multiply_adds += 2 * model.arity() as u64;
        let scale = 1usize << level;
        // The mean estimate is mathematically inside the box bounds, but
        // its summation order differs from bound_over_box's, so on
        // degenerate (single-cell) boxes it can land an ulp outside —
        // clamp to keep the documented `lo <= score <= hi` invariant exact.
        let score = model.evaluate(&self.means).clamp(lo, hi);
        let hit = ResilientHit {
            cell: CellCoord::new(row * scale, col * scale),
            level,
            score,
            bounds: ScoreBounds { lo, hi },
            exact: false,
        };
        Ok((hit, count))
    }

    /// Resolves what one descent over `band` could not evaluate.
    /// Unrefined `leftover` regions are bounded from their own aggregates
    /// — the deepest fully-bounded frontier the stop allowed. `lost`
    /// cells are first excluded by their deterministic frontier bound
    /// (the level-0 index bound is exact, so this is the test the descent
    /// applies to healthy cells, and it makes the surviving set
    /// independent of evaluation order); survivors are bounded from the
    /// parent aggregate, the deepest index level that does not depend on
    /// the missing page. Returns the base cells left unresolved and the
    /// pages that lost them, ascending.
    pub(crate) fn degrade(
        &mut self,
        model: &LinearModel,
        band: Band<'_>,
        out: &Outcome,
        effort: &mut EffortReport,
    ) -> Result<(u64, Vec<usize>), CoreError> {
        let mut unresolved = 0u64;
        let mut skipped = Vec::new();
        for region in &out.leftover {
            let (mut hit, count) = self.candidate(model, band.pyramids, region.at(), effort)?;
            if self.excluded(hit.bounds.hi) {
                continue; // Provably outside the top-K: resolved.
            }
            hit.cell.row += band.row_offset;
            unresolved += count;
            self.push(hit, band.sharded);
        }
        let parent = 1.min(band.pyramids[0].levels() - 1);
        for (region, page) in &out.lost {
            if self.excluded(region.ub()) {
                continue; // Provably outside the top-K: nothing lost.
            }
            skipped.push(*page);
            let (_, row, col) = region.at();
            let at = (parent, row >> parent, col >> parent);
            let (mut hit, _) = self.candidate(model, band.pyramids, at, effort)?;
            hit.cell = CellCoord::new(row + band.row_offset, col);
            hit.level = 0;
            unresolved += 1;
            self.push(hit, band.sharded);
        }
        skipped.sort_unstable();
        skipped.dedup();
        Ok((unresolved, skipped))
    }

    fn push(&mut self, mut hit: ResilientHit, sharded: bool) {
        if sharded {
            hit.bounds = widen(hit.bounds);
        }
        self.hits.push(hit);
    }

    /// Ranks by upper bound first: for exact hits `hi == score`, so
    /// complete answers keep the plain score order, while under
    /// degradation the truncation to `k` can never drop the only
    /// candidate that might still be the true winner — every surviving
    /// hit's `hi` is at least as large.
    pub(crate) fn rank(mut self) -> Vec<ResilientHit> {
        self.hits.sort_by(|a, b| {
            b.bounds
                .hi
                .total_cmp(&a.bounds.hi)
                .then_with(|| b.score.total_cmp(&a.score))
                .then_with(|| a.cell.cmp(&b.cell))
        });
        self.hits.truncate(self.k);
        self.hits
    }
}

/// The unsharded gather: one lane's [`Outcome`] over the whole grid.
pub(crate) fn finish(
    mut out: Outcome,
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<ResilientTopK, CoreError> {
    let (rows, cols) = pyramids[0].base_shape();
    let mut effort = out.effort;
    let mut merge = Merge::new(std::mem::take(&mut out.items), k, cols);
    let band = Band {
        pyramids,
        row_offset: 0,
        sharded: false,
    };
    let (unresolved, skipped_pages) = merge.degrade(model, band, &out, &mut effort)?;
    Ok(ResilientTopK {
        results: merge.rank(),
        effort,
        completeness: 1.0 - unresolved as f64 / (rows * cols) as f64,
        skipped_pages,
        budget_stop: out.stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::{batched_top_k, BatchedTopK};
    use crate::engine::{pyramid_top_k, GridTopK};
    use crate::parallel::{par_batched_top_k, par_resilient_top_k, WorkerPool};
    use crate::resilient::{resilient_top_k, ExecutionBudget};
    use crate::shard::{
        batched_scatter_gather_top_k, scatter_gather_top_k, scatter_gather_top_k_dual,
        ArchiveShard, ScatterPolicy, ShardedArchive, ShardedTopK,
    };
    use crate::source::{PyramidSource, TileSource};
    use mbir_archive::grid::Grid2;
    use mbir_archive::tile::TileStore;

    /// What every entry point reports, whatever struct it reports it in.
    #[derive(Debug, Clone, PartialEq)]
    struct Run {
        hits: Vec<ResilientHit>,
        effort: EffortReport,
        completeness: f64,
        stop: Option<BudgetStop>,
    }

    impl From<ResilientTopK> for Run {
        fn from(r: ResilientTopK) -> Run {
            Run {
                hits: r.results,
                effort: r.effort,
                completeness: r.completeness,
                stop: r.budget_stop,
            }
        }
    }

    impl From<BatchedTopK> for Run {
        fn from(mut r: BatchedTopK) -> Run {
            assert_eq!(r.queries.len(), 1);
            r.queries.pop().unwrap().into()
        }
    }

    impl From<ShardedTopK> for Run {
        fn from(r: ShardedTopK) -> Run {
            Run {
                hits: r.results,
                effort: r.effort,
                completeness: r.completeness,
                stop: r.budget_stop,
            }
        }
    }

    /// What every family must agree on: `(row, col, score bits)` per hit,
    /// and the work it took.
    type Answer = (Vec<(usize, usize, u64)>, EffortReport);

    fn strict(r: GridTopK) -> Answer {
        let hits = r.results.iter();
        let hits = hits.map(|h| (h.cell.row, h.cell.col, h.score.to_bits()));
        (hits.collect(), r.effort)
    }

    fn healthy(r: Run) -> Answer {
        assert_eq!((r.completeness, r.stop), (1.0, None));
        assert!(r.hits.iter().all(|h| h.exact), "healthy run degraded");
        let hits = r.hits.iter();
        let hits = hits.map(|h| (h.cell.row, h.cell.col, h.score.to_bits()));
        (hits.collect(), r.effort)
    }

    /// "Solo is a batch of one, unsharded is one shard, healthy is zero
    /// faults, an option is a value" as an executable: every surviving
    /// resilient entry point (`par_*` at 1 / 2 / 4 threads, also over a
    /// `PyramidSource`, batches of one, one shard, dual-read with no
    /// groups), with and without a live token, and the strict
    /// `pyramid_top_k` return bit-identical hits over one healthy world, and —
    /// wherever the run is single-threaded — the identical `EffortReport`;
    /// a token cancelled before the call gives every one of them the same
    /// degraded answer.
    #[test]
    fn every_wrapper_family_is_one_engine() {
        let (rows, cols, k) = (48usize, 40usize, 7usize);
        let grids: Vec<Grid2<f64>> = (0..3)
            .map(|i| {
                Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
                })
            })
            .collect();
        let pyramids: Vec<AggregatePyramid> = grids.iter().map(AggregatePyramid::build).collect();
        let stores: Vec<TileStore> = grids
            .iter()
            .map(|g| TileStore::new(g.clone(), 8).unwrap())
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let pyramid_source = PyramidSource::new(&pyramids);
        let model = LinearModel::new(vec![1.0, 0.7, -0.4], 0.25).unwrap();
        let models = std::slice::from_ref(&model);
        let budget = ExecutionBudget::unlimited();
        let policy = ScatterPolicy::require_all();
        let archive = ShardedArchive::new(vec![ArchiveShard::new(&pyramids, &src, 0)]).unwrap();
        let no_migration: (&[ArchiveShard<'_, TileSource<'_>>], &[_]) = (&[], &[]);
        let p = &pyramids[..];

        // The eight resilient entry points under one point of the option
        // space.
        let entry_points = |token: Option<&CancelToken>, pool: &WorkerPool| {
            let mut opts = ExecOptions::from(&budget);
            if let Some(token) = token {
                opts = opts.cancel(token);
            }
            let runs: Vec<(&str, Run)> = vec![
                (
                    "resilient",
                    resilient_top_k(&model, p, k, &src, opts).unwrap().into(),
                ),
                (
                    "batched",
                    batched_top_k(models, p, k, &src, opts).unwrap().into(),
                ),
                (
                    "par_resilient",
                    par_resilient_top_k(&model, p, k, &src, opts, pool)
                        .unwrap()
                        .into(),
                ),
                (
                    "par_resilient over the pyramids (the parallel pyramid_top_k)",
                    par_resilient_top_k(&model, p, k, &pyramid_source, opts, pool)
                        .unwrap()
                        .into(),
                ),
                (
                    "par_batched",
                    par_batched_top_k(models, p, k, &src, opts, pool)
                        .unwrap()
                        .into(),
                ),
                (
                    "scatter",
                    scatter_gather_top_k(&model, &archive, k, opts, &policy, pool)
                        .unwrap()
                        .into(),
                ),
                (
                    "scatter/dual, no groups",
                    scatter_gather_top_k_dual(
                        &model,
                        &archive,
                        no_migration,
                        k,
                        opts,
                        &policy,
                        pool,
                    )
                    .unwrap()
                    .into(),
                ),
                (
                    "batched scatter",
                    batched_scatter_gather_top_k(models, &archive, k, opts, &policy, pool)
                        .unwrap()
                        .queries
                        .pop()
                        .unwrap()
                        .into(),
                ),
            ];
            runs
        };

        // The bare `&budget` spelling is the reference.
        let want = healthy(resilient_top_k(&model, p, k, &src, &budget).unwrap().into());
        assert_eq!(want.0.len(), k);

        assert_eq!(strict(pyramid_top_k(&model, p, k).unwrap()), want);

        let live = CancelToken::new();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let mut degraded: Option<Run> = None;
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            for token in [None, Some(&live)] {
                for (name, run) in entry_points(token, &pool) {
                    let at = format!("{name} at {threads} threads, token {}", token.is_some());
                    let got = healthy(run);
                    assert_eq!(got.0, want.0, "{at}");
                    // Above one thread every pool entry point deals the
                    // one band's regions to several workers, whose floors
                    // race: only the answer is fixed there.
                    if threads == 1 || matches!(name, "resilient" | "batched") {
                        assert_eq!(got.1, want.1, "{at}");
                    }
                }
            }

            // A token cancelled before the call stops every entry point at
            // its first checkpoint: the same root-level candidate, the same
            // work, at every thread count.
            for (name, mut run) in entry_points(Some(&cancelled), &pool) {
                let at = format!("{name} at {threads} threads");
                assert_eq!(run.stop, Some(BudgetStop::Cancelled), "{at}");
                let unsharded = degraded.get_or_insert_with(|| run.clone());
                if name.contains("scatter") {
                    // A sharded merge widens inexact bounds by its ulp
                    // guard (see `widen`); nothing else may differ.
                    for (hit, want) in run.hits.iter_mut().zip(&unsharded.hits) {
                        assert!(hit.bounds.lo <= want.bounds.lo, "{at}");
                        assert!(hit.bounds.hi >= want.bounds.hi, "{at}");
                        hit.bounds = want.bounds;
                    }
                }
                assert_eq!(&run, unsharded, "{at}");
            }
        }
        let degraded = degraded.expect("ran");
        assert_eq!(degraded.completeness, 0.0);
        assert!(degraded.hits.iter().all(|h| !h.exact));
    }
}
