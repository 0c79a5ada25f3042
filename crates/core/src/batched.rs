//! Batched multi-query execution: one shared pyramid descent serving Q
//! queries at once — and, as a batch of one, every solo query.
//!
//! [`batched_top_k`] accepts a batch of linear models over one pyramid
//! index and runs a *single* best-first traversal: the batch scheduler of
//! the execution core (the private `descent` module, DESIGN.md §18) with this
//! module's `Selector` — whichever query holds the globally best upper
//! bound advances (a keyed branchless argmax up to 64 queries, a heap
//! above) — and this module's `Memo` under every bound and base-cell
//! read. While the governed memo tables are live the global order is also
//! the cache-friendly order — queries interested in the same region pop it
//! back to back; once the governor proves the batch has no cross-query
//! reuse left, each query runs to completion in the solo loop
//! (DESIGN.md §15). A batch of one starts retired: that is
//! [`resilient_top_k`](crate::resilient::resilient_top_k) and the strict
//! engines. Each query's logical descent — the sequence of regions it
//! expands, the cells it evaluates, the floor it prunes with — is
//! *exactly* its descent alone; what the batch shares is the physical
//! work underneath:
//!
//! * **Base cells are fetched once.** A level-0 cell reached by several
//!   queries hits the page source exactly once; the materialized
//!   attribute vector (or the lost-page verdict) is memoized and replayed
//!   for every later query. A cell is fetched iff it survives at least
//!   one query's K-th floor — the per-query floor vector is what decides.
//! * **Children blocks are fetched once.** When a region expands, the
//!   range boxes of its children — one row of `(min, max)` pairs per
//!   attribute — are read from the pyramids once and stored under the
//!   region's key; every query that expands the same parent bounds its
//!   children over the stored block with the one block bound
//!   (`Scorer::bound_children`), which reads the same rows the pyramids
//!   give it, so every bound keeps its bits. No query's bound is kept: a
//!   query bounds a region once, when the region's parent expands, so
//!   what repeats across queries is the expansion, not the bound.
//!
//! The shared-frontier invariant (DESIGN.md §15): the shared descent may
//! only *add* physical cell visits relative to any single query, never
//! skip one that query needed — each query's offers are gated by its own
//! floor against its own bound, so per-query answers, completeness,
//! skipped pages, and even effort reports stay bit-identical to the solo
//! run. The budget, by contrast, is *batch-wide*: one checkpoint stream
//! over the summed multiply-adds and the shared source clocks, so a
//! binding budget stops the whole batch at one point (each still-open
//! query surrenders its remaining frontier as leftover, exactly like a
//! solo stop; already-closed queries keep their finished answers and a
//! `None` stop).
//!
//! Fault semantics match the resilient engine per query, with one caveat
//! inherited from memoization: a page whose fault behavior is *stateful*
//! across read attempts (e.g. a transient fault budget larger than the
//! retry policy) can present differently to a batch (one physical read)
//! than to Q solo runs (Q physical reads). With deterministic faults —
//! permanent, corrupt, quarantined, or transients healed within one
//! logical read — batched and solo verdicts coincide.

use crate::descent::{
    finish, fresh, interleave, read_cell, seed_root, Cell, ChildRows, Clock, Env, Floor, Lane,
    Local, Outcome, PoolMeter, Pooled, Scorer,
};
use crate::engine::{pack_coords, validate_grid_inputs, Region};
use crate::error::CoreError;
use crate::resilient::{ExecOptions, ResilientTopK, WallDeadline};
use crate::shard::ArchiveShard;
use crate::source::CellSource;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the memo tables, whose keys are already
/// well-packed `u64`s ([`pack_coords`] / [`cell_key`]): one Fibonacci
/// multiply plus an xor-shift replaces SipHash on the descent's hottest
/// path. Not DoS-resistant — keys come from the pyramid geometry, never
/// from untrusted input.
#[derive(Debug, Default)]
struct FastU64Hasher(u64);

impl Hasher for FastU64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

/// `u64`-keyed memo map on the fast hasher.
type MemoMap<V> = HashMap<u64, V, BuildHasherDefault<FastU64Hasher>>;

/// One `(query, region)` frontier entry of the shared batched descent.
///
/// The order is the per-query [`Region`] order — upper bound first, then
/// smaller (level, row, col) pops first — with the query index (smaller
/// first) as the final cross-query tiebreak, so restricted to any one
/// query the pop sequence is exactly the solo frontier's, and the
/// interleaving of queries is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BatchEntry {
    region: Region,
    q: Reverse<usize>,
}

/// Memoized verdict of one base-cell read, shared across the batch.
#[derive(Debug, Clone, Copy)]
enum CellSlot {
    /// Attribute vector lives at this offset of the cell arena.
    Loaded(usize),
    /// The read failed on this page (lost-page semantics).
    Lost(usize),
}

fn cell_key(row: u32, col: u32) -> u64 {
    ((row as u64) << 32) | col as u64
}

/// Probe window of the cell-read memo's [`MemoGovernor`].
const CELL_MEMO_WINDOW: u32 = 64;

/// Probe window of the bound memo's [`MemoGovernor`].
const BOUND_MEMO_WINDOW: u32 = 64;

/// Lifecycle of a governed memo layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoPhase {
    /// Measuring sharing with presence-only probes before paying for
    /// full memoization (bound memo's opening window).
    Sampling,
    /// Full memoization; hit rate still watched, may retire to `Off`.
    On,
    /// Retired for this batch: the engine takes the solo direct path.
    Off,
}

/// Hit-rate governor for a memo layer.
///
/// Memoization is pure dedup — it never changes a query's answer, only
/// who pays for a fetch — so it is worth its hash probes exactly when the
/// batch actually shares work. The governor watches the layer's hit rate
/// over fixed windows of probes and retires the layer for the rest of the
/// batch once a full window hits on fewer than half its probes: from then
/// on the engine takes the solo-style direct path, so an adversarial
/// zero-overlap batch degrades to Q independent descents instead of Q
/// descents each dragging a cold hash table. Windows reset at each
/// boundary, so the always-shared pyramid apex cannot mask a disjoint
/// bulk. A layer whose store cost is heavy (the bound memo's children
/// blocks) starts in [`MemoPhase::Sampling`] and pays only key-presence
/// probes until its first window proves the sharing is real.
#[derive(Debug)]
struct MemoGovernor {
    window: u32,
    probes: u32,
    hits: u32,
    phase: MemoPhase,
    opening: MemoPhase,
}

impl MemoGovernor {
    /// Full memoization from the first probe (cell memo).
    pub(crate) fn new(window: u32) -> Self {
        MemoGovernor {
            window,
            probes: 0,
            hits: 0,
            phase: MemoPhase::On,
            opening: MemoPhase::On,
        }
    }

    /// Presence-only sampling until the first window passes (bound memo).
    pub(crate) fn sampling(window: u32) -> Self {
        MemoGovernor {
            window,
            probes: 0,
            hits: 0,
            phase: MemoPhase::Sampling,
            opening: MemoPhase::Sampling,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.probes = 0;
        self.hits = 0;
        self.phase = self.opening;
    }

    pub(crate) fn phase(&self) -> MemoPhase {
        self.phase
    }

    /// Whether the memo layer should still be probed (cell-memo view of
    /// the two-state lifecycle).
    pub(crate) fn live(&self) -> bool {
        self.phase != MemoPhase::Off
    }

    /// Retire the layer outright (a batch of one has nothing to share).
    pub(crate) fn retire(&mut self) {
        self.phase = MemoPhase::Off;
    }

    /// Record a probe outcome; at each window boundary, promote to full
    /// memoization when at least half of the window's probes hit, retire
    /// the layer otherwise.
    pub(crate) fn record(&mut self, hit: bool) {
        self.probes += 1;
        self.hits += u32::from(hit);
        if self.probes == self.window {
            self.phase = if self.hits * 2 < self.window {
                MemoPhase::Off
            } else {
                MemoPhase::On
            };
            self.probes = 0;
            self.hits = 0;
        }
    }
}

/// Batch width above which [`Selector`] replaces the linear top scan
/// with a mirror heap: the scan costs `O(Q)` per pop but touches only
/// each frontier's root and needs zero re-arm bookkeeping, the heap
/// costs `O(log Q)` plus one push per processed pop.
const SELECTOR_SCAN_MAX: usize = 64;

/// Interleaving policy over the per-query frontiers: pick, at every
/// step, the globally best `(ub, level, row, col, q)` tuple among the
/// live frontier tops — exactly the order one shared heap over all
/// `(query, region)` entries would pop, because the max over per-query
/// maxima *is* the global max. Keeping the frontiers separate is what
/// lets a closed query's remainder be abandoned in O(1) instead of
/// draining through a shared heap entry by entry.
///
/// A query participates while its top is *armed*: [`Selector::next`]
/// disarms the query it pops, and the engine re-arms it after pushing
/// children (or finding its frontier empty). A query that closes — floor
/// at or above its best bound, or a batch stop — is simply never
/// re-armed.
#[derive(Debug)]
pub(crate) enum Selector {
    /// Contiguous mirror of each armed query's frontier top plus a
    /// validity bitmask (batch width ≤ 64). `keys[q]` is the top's
    /// [`Region::ub_key`] (clamped away from the 0 = disarmed sentinel,
    /// which only merges the two bottommost bit patterns — negative
    /// quiet-NaN payloads — that the tie path re-orders exactly), so
    /// `next` is a branch-predictable integer argmax over one dense
    /// array; the full `(ub, level, row, col, q)` order runs only on the
    /// rare exact key tie.
    Scan {
        tops: Vec<Region>,
        keys: Vec<u64>,
        mask: u64,
        /// Cache-aware degraded mode: once the bound memo retires (proven
        /// zero cross-query region reuse), interleaving by global bound
        /// order has nothing left to amortize, so the selector runs each
        /// armed query to completion in ascending-q order instead —
        /// restoring solo cache locality. One-way latch; per-query pop
        /// order (and thus every per-query result) is unchanged.
        serial: bool,
    },
    /// One [`BatchEntry`] per armed query. `O(log Q)` per pop for very
    /// wide batches.
    Heap(BinaryHeap<BatchEntry>),
}

impl Default for Selector {
    fn default() -> Self {
        Selector::for_width(0)
    }
}

impl Selector {
    fn for_width(m: usize) -> Self {
        if m <= SELECTOR_SCAN_MAX {
            Selector::Scan {
                tops: vec![Region::new(0.0, (0, 0, 0)); m],
                keys: vec![0; m],
                mask: 0,
                serial: false,
            }
        } else {
            Selector::Heap(BinaryHeap::with_capacity(m))
        }
    }

    /// Sized for `m` queries with none armed, keeping its buffers (a top
    /// is read only once its query is armed).
    pub(crate) fn reset(&mut self, m: usize) {
        match self {
            Selector::Scan {
                tops,
                keys,
                mask,
                serial,
            } if m <= SELECTOR_SCAN_MAX => {
                tops.resize(m, Region::new(0.0, (0, 0, 0)));
                keys.clear();
                keys.resize(m, 0);
                *mask = 0;
                *serial = false;
            }
            Selector::Heap(h) if m > SELECTOR_SCAN_MAX => h.clear(),
            _ => *self = Selector::for_width(m),
        }
    }

    /// (Re-)arm query `q` with its current frontier top, if any.
    #[inline]
    pub(crate) fn arm(&mut self, q: usize, top: Option<&Region>) {
        match self {
            Selector::Scan {
                tops,
                keys,
                mask,
                serial,
            } => match top {
                // Query-major mode reads only the armed mask; skip the
                // top mirror and key map.
                Some(_) if *serial => *mask |= 1 << q,
                Some(r) => {
                    tops[q] = *r;
                    keys[q] = r.ub_key().max(1);
                    *mask |= 1 << q;
                }
                None => {
                    keys[q] = 0;
                    *mask &= !(1 << q);
                }
            },
            Selector::Heap(h) => {
                if let Some(r) = top {
                    h.push(BatchEntry {
                        region: *r,
                        q: Reverse(q),
                    });
                }
            }
        }
    }

    /// Full-comparator argmax over the armed tops: the tie path of the
    /// scan selector, and the reference order (`BatchEntry`'s) it keeps.
    #[cold]
    fn scan_tie_break(tops: &[Region], mask: u64) -> usize {
        let mut rest = mask;
        let mut best = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        // Ascending-q scan with a strict "pops before" test keeps the
        // smallest q on full ties — BatchEntry's tie-break.
        while rest != 0 {
            let q = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if tops[q] > tops[best] {
                best = q;
            }
        }
        best
    }

    /// Switch the scan selector to serial (query-major) scheduling; a
    /// no-op for the heap selector and after the first call. Engines call
    /// this when the bound memo retires: with no cross-query reuse to
    /// amortize, query-major order trades nothing away and keeps each
    /// query's working set hot.
    #[inline]
    pub(crate) fn go_serial(&mut self) {
        if let Selector::Scan { serial, .. } = self {
            *serial = true;
        }
    }

    /// Whether no query is armed.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Selector::Scan { mask, .. } => *mask == 0,
            Selector::Heap(h) => h.is_empty(),
        }
    }

    /// The query whose frontier top pops next — in global shared-heap
    /// order, or query-major order once [`go_serial`](Selector::go_serial)
    /// latched — disarming that query, or `None` when no query is armed.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<usize> {
        match self {
            Selector::Scan {
                tops,
                keys,
                mask,
                serial,
            } => {
                if *mask == 0 {
                    return None;
                }
                let mut best = mask.trailing_zeros() as usize;
                if !*serial {
                    // Branchless integer argmax; disarmed slots hold key 0
                    // and an ascending scan with a strict test keeps the
                    // smallest q among equals, so a surviving tie means two
                    // armed tops share the exact ub bits — settle those
                    // with the full comparator.
                    best = 0;
                    let mut best_key = keys[0];
                    let mut tie = false;
                    for (q, &k) in keys.iter().enumerate().skip(1) {
                        let gt = k > best_key;
                        tie = (tie && !gt) || k == best_key;
                        best = if gt { q } else { best };
                        best_key = if gt { k } else { best_key };
                    }
                    if tie {
                        best = Self::scan_tie_break(tops, *mask);
                    }
                }
                *mask &= !(1 << best);
                keys[best] = 0;
                Some(best)
            }
            Selector::Heap(h) => h.pop().map(|t| t.q.0),
        }
    }
}

/// Physical-work accounting of a batched descent: what the memo layer
/// was asked for and what it actually fetched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub(crate) cells_fetched: u64,
    pub(crate) cell_requests: u64,
    pub(crate) bound_evals: u64,
    pub(crate) bound_requests: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        self.cells_fetched += rhs.cells_fetched;
        self.cell_requests += rhs.cell_requests;
        self.bound_evals += rhs.bound_evals;
        self.bound_requests += rhs.bound_requests;
    }
}

/// Reusable buffers for the batched engine: the per-lane frontiers, one
/// memo layer per band, with its tables and flat arenas, and the
/// scheduler's two selectors. A warmed scratch allocates nothing in the
/// steady state; [`regrowths`](BatchScratch::regrowths) counts growth
/// events so tests can assert it.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    frontiers: Vec<BinaryHeap<Region>>,
    memos: Vec<Memo>,
    selectors: [Selector; 2],
    /// Bands of the last descent: its memos are `memos[..bands]`.
    bands: usize,
    regrowths: u64,
}

impl BatchScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub(crate) fn new() -> Self {
        BatchScratch::default()
    }

    /// Cumulative number of internal-buffer growth events since creation.
    /// Stable across two identical consecutive batches ⇔ the second batch
    /// allocated nothing.
    #[cfg(test)]
    pub(crate) fn regrowths(&self) -> u64 {
        self.regrowths
    }

    fn caps(&self) -> [usize; 7] {
        let mut caps = [0; 7];
        caps[0] = self.frontiers.iter().map(BinaryHeap::capacity).sum();
        for memo in &self.memos {
            for (sum, cap) in caps[1..].iter_mut().zip(memo.caps()) {
                *sum += cap;
            }
        }
        caps
    }

    fn note_regrowth(&mut self, before: &[usize; 7]) {
        let after = self.caps();
        self.regrowths += after
            .iter()
            .zip(before.iter())
            .map(|(a, b)| u64::from(a > b))
            .sum::<u64>();
    }
}

/// Result of one batched run: per-query answers plus the physical-work
/// accounting that shows what the batch amortized.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedTopK {
    /// Per-query results, in batch order — each bit-identical to the
    /// query's solo [`resilient_top_k`](crate::resilient::resilient_top_k)
    /// run (deterministic faults, non-binding budget).
    pub queries: Vec<ResilientTopK>,
    /// Physical pages read by the whole batch (source delta).
    pub pages_read: u64,
    /// Distinct level-0 cells materialized through the source.
    pub cells_fetched: u64,
    /// Logical per-query cell reads served (≥ `cells_fetched`; the ratio
    /// is the read amortization factor).
    pub cell_requests: u64,
    /// Physical region range-box fetches (one per child of a distinct
    /// expanded region while the bound memo is on; one per request while
    /// it samples or is off).
    pub bound_evals: u64,
    /// Logical per-query bound requests served (≥ `bound_evals`).
    pub bound_requests: u64,
}

impl BatchedTopK {
    pub(crate) fn gathered(queries: Vec<ResilientTopK>, tally: Tally, pages_read: u64) -> Self {
        BatchedTopK {
            queries,
            pages_read,
            cells_fetched: tally.cells_fetched,
            cell_requests: tally.cell_requests,
            bound_evals: tally.bound_evals,
            bound_requests: tally.bound_requests,
        }
    }
}

/// Value of a key that holds no block: a parent expanded while the memo
/// sampled, or a region bounded on its own (see [`REGION_TAG`]).
const UNSTORED: usize = usize::MAX;

/// Marks the key of a region bounded on its own — a lane's root — so it
/// never collides with the same region's key as an expanded parent. Bit 63
/// is the top bit of [`pack_coords`]'s level field, which no pyramid sets:
/// a base side of at most 2^28 cells makes at most 29 levels.
const REGION_TAG: u64 = 1 << 63;

/// Memoized children blocks: the range boxes of every child of an
/// expanded parent, read from the pyramids once per batch and folded for
/// every lane that expands the same parent.
///
/// A lane bounds a region once, when the region's parent expands, so a
/// per-lane bound slot would be written once and never read again (0
/// replays in 93M `shard_batch` box lookups). What repeats across lanes
/// is the expansion: the key is the parent's, and the value is its
/// children's block, `arity` rows of `(min, max)` read with one
/// [`AggregatePyramid::child_ranges`] per pyramid. A lane replaying the
/// block runs the one block bound ([`Scorer::bound_children`]) over the
/// stored rows instead of the pyramids', so every bound keeps its bits.
///
/// A [`MemoGovernor`] retires the table when the batch shows no
/// cross-query sharing. It sees one probe per bound request: a block
/// found is `n` hits and a block missing `n` misses, and a region bounded
/// on its own is one probe under its tagged key. A region's children are
/// bounded together, when it expands, so "block seen" is "every child
/// seen" and the governor decides exactly as over a per-region table.
#[derive(Debug)]
struct BoundMemo {
    /// Parent key → block ordinal, or [`UNSTORED`].
    map: MemoMap<usize>,
    /// `arity` rows per ordinal, attribute by attribute: the children's
    /// `(min, max)` in `child_ranges` order.
    boxes: Vec<[(f64, f64); 4]>,
    /// Child count per ordinal.
    counts: Vec<u8>,
    gov: MemoGovernor,
    /// Physical range fetches, per child: one per child of a block read
    /// (stored, or bounded directly while sampling or off), none per
    /// child of a block replayed.
    evals: u64,
}

impl Default for BoundMemo {
    fn default() -> Self {
        BoundMemo {
            map: MemoMap::default(),
            boxes: Vec::new(),
            counts: Vec::new(),
            gov: MemoGovernor::sampling(BOUND_MEMO_WINDOW),
            evals: 0,
        }
    }
}

impl BoundMemo {
    fn reset(&mut self) {
        self.map.clear();
        self.boxes.clear();
        self.counts.clear();
        self.gov.reset();
        self.evals = 0;
    }

    fn is_off(&self) -> bool {
        self.gov.phase() == MemoPhase::Off
    }

    /// `model`'s bounds over every child of `parent` while the memo is
    /// live: one probe, then the block bound over the parent's stored
    /// block — replayed, or read and stored while the memo is on — or over
    /// the pyramids while it samples.
    #[inline(never)]
    fn live_children<M: Scorer>(
        &mut self,
        model: &M,
        pyramids: &[AggregatePyramid],
        parent: (usize, usize, usize),
        ub: &mut [f64; 4],
    ) -> (usize, u64) {
        let key = pack_coords(parent);
        let found = self.map.get(&key).copied();
        let replayed = found.filter(|&ord| ord != UNSTORED);
        let (level, arity) = (parent.0, pyramids.len());
        let (n, madds) = match replayed {
            Some(ord) => model.bound_children(level, self.block(ord, arity), ub),
            None if self.gov.phase() == MemoPhase::On => {
                let ord = self.store(pyramids, parent);
                self.map.insert(key, ord);
                model.bound_children(level, self.block(ord, arity), ub)
            }
            None => {
                // Sampling: a presence-only probe, the rows read directly.
                self.map.insert(key, UNSTORED);
                model.bound_children(level, fresh(pyramids, parent), ub)
            }
        };
        // Child by child, because a window boundary can fall inside the
        // block: the children past it are counted under the new phase.
        for _ in 0..n {
            let phase = self.gov.phase();
            if phase != MemoPhase::Off {
                self.gov.record(found.is_some());
            }
            self.evals += u64::from(phase != MemoPhase::On || replayed.is_none());
        }
        (n, madds)
    }

    /// Reads the children block of `parent` into a new ordinal.
    fn store(&mut self, pyramids: &[AggregatePyramid], parent: (usize, usize, usize)) -> usize {
        let (rows, mut n) = (fresh(pyramids, parent), 0);
        for attr in 0..pyramids.len() {
            let mut ranges = [(0.0, 0.0); 4];
            n = rows(attr, &mut ranges);
            self.boxes.push(ranges);
        }
        self.counts.push(n as u8);
        self.counts.len() - 1
    }

    /// Block `ord` of `arity` rows, replayed: every term gets the row
    /// [`fresh`] read for it, so a replayed bound keeps its bits.
    fn block(&self, ord: usize, arity: usize) -> impl ChildRows + '_ {
        let rows = &self.boxes[ord * arity..(ord + 1) * arity];
        let n = usize::from(self.counts[ord]);
        move |attr: usize, out: &mut [(f64, f64); 4]| {
            *out = rows[attr];
            n
        }
    }
}

/// Every bound and base-cell read of a descent: base cells and children
/// blocks are fetched once and replayed for every later lane, each behind
/// a [`MemoGovernor`] that retires the table when the batch proves it does
/// not share. A batch of one — every solo query — has nothing to share
/// and starts retired: each request is then performed directly.
#[derive(Debug)]
pub(crate) struct Memo {
    x: Vec<f64>,
    cells: MemoMap<CellSlot>,
    cell_gov: MemoGovernor,
    cell_arena: Vec<f64>,
    bounds: BoundMemo,
    /// `bound_evals` is kept by `bounds` and filled in by [`Memo::tally`].
    tally: Tally,
}

impl Default for Memo {
    fn default() -> Self {
        Memo {
            x: Vec::new(),
            cells: MemoMap::default(),
            cell_gov: MemoGovernor::new(CELL_MEMO_WINDOW),
            cell_arena: Vec::new(),
            bounds: BoundMemo::default(),
            tally: Tally::default(),
        }
    }
}

impl Memo {
    fn reset(&mut self, width: usize) {
        self.cells.clear();
        self.cell_gov.reset();
        self.cell_arena.clear();
        self.bounds.reset();
        if width == 1 {
            self.cell_gov.retire();
            self.bounds.gov.retire();
        }
        self.tally = Tally::default();
    }

    fn caps(&self) -> [usize; 6] {
        [
            self.x.capacity(),
            self.cells.capacity(),
            self.cell_arena.capacity(),
            self.bounds.map.capacity(),
            self.bounds.boxes.capacity(),
            self.bounds.counts.capacity(),
        ]
    }

    fn tally(&self) -> Tally {
        Tally {
            bound_evals: self.bounds.evals,
            ..self.tally
        }
    }

    /// Upper bound of `model` over region `at`, bounded on its own (a
    /// lane's root), with the multiply-adds to charge the lane. Probed
    /// under its tagged key, so the governor counts the request like any
    /// other.
    #[inline]
    pub(crate) fn bound<M: Scorer>(
        &mut self,
        model: &M,
        pyramids: &[AggregatePyramid],
        at: (usize, usize, usize),
    ) -> Result<(f64, u64), CoreError> {
        self.tally.bound_requests += 1;
        let memo = &mut self.bounds;
        if !memo.is_off() {
            let seen = memo.map.insert(pack_coords(at) | REGION_TAG, UNSTORED);
            memo.gov.record(seen.is_some());
        }
        memo.evals += 1;
        model.bound(pyramids, at)
    }

    /// `model`'s bounds over every child of region `parent`, as
    /// [`Scorer::bound_children`] returns them: one block bound over the
    /// pyramids while the bound memo is retired; one probe of the block
    /// memo while it is live. Tallied as one request per child.
    /// Forced inline, with the live path kept out of line, so the drain
    /// loop of a retired batch — every solo query — has the block bound
    /// inline: plain `#[inline]` left a call per expansion there, which the
    /// `batch` bench's zero-overlap case shows (DESIGN.md §15).
    #[inline(always)]
    pub(crate) fn bound_children<M: Scorer>(
        &mut self,
        model: &M,
        pyramids: &[AggregatePyramid],
        parent: (usize, usize, usize),
        ub: &mut [f64; 4],
    ) -> (usize, u64) {
        let (n, madds) = if self.bounds.is_off() {
            let got = model.bound_children(parent.0, fresh(pyramids, parent), ub);
            self.bounds.evals += got.0 as u64;
            got
        } else {
            self.bounds.live_children(model, pyramids, parent, ub)
        };
        self.tally.bound_requests += n as u64;
        (n, madds)
    }

    /// The attribute vector of base cell `at`, or the page it was lost on
    /// (see [`read_cell`]). A cell is fetched iff it survives at least one
    /// lane's floor; the materialized vector (or the lost-page verdict) is
    /// replayed for every later lane while the cell memo is live.
    #[inline]
    pub(crate) fn cell<S: CellSource>(
        &mut self,
        source: &S,
        at: (usize, usize),
        arity: usize,
    ) -> Result<Cell<'_>, CoreError> {
        self.tally.cell_requests += 1;
        let live = self.cell_gov.live();
        let key = cell_key(at.0 as u32, at.1 as u32);
        if live {
            let hit = self.cells.get(&key).copied();
            self.cell_gov.record(hit.is_some());
            match hit {
                Some(CellSlot::Loaded(off)) => {
                    return Ok(Cell::Loaded(&self.cell_arena[off..off + arity]))
                }
                Some(CellSlot::Lost(page)) => return Ok(Cell::Lost(page)),
                None => {}
            }
        }
        let slot = match read_cell(source, at, &mut self.x, arity)? {
            None => {
                self.tally.cells_fetched += 1;
                CellSlot::Loaded(self.cell_arena.len())
            }
            Some(page) => CellSlot::Lost(page),
        };
        if live {
            if let CellSlot::Loaded(_) = slot {
                self.cell_arena.extend_from_slice(&self.x);
            }
            self.cells.insert(key, slot);
        }
        Ok(match slot {
            CellSlot::Loaded(_) => Cell::Loaded(&self.x),
            CellSlot::Lost(page) => Cell::Lost(page),
        })
    }

    /// Whether cross-lane sharing has stopped paying: `interleave` then
    /// runs each lane to completion with `drain`.
    #[inline]
    pub(crate) fn retired(&self) -> bool {
        self.bounds.is_off()
    }
}

/// One batch of Q ≥ 1 queries over one or more bands: each band's
/// resident pyramids, the page source behind them, and its global row
/// offset.
pub(crate) struct Job<'a, S, M = LinearModel> {
    pub(crate) models: &'a [M],
    pub(crate) bands: Vec<ArchiveShard<'a, S>>,
    pub(crate) k: usize,
    /// Global column count: a hit's index is `global row * cols + col`.
    pub(crate) cols: usize,
}

impl<'a, S: CellSource, M> Job<'a, S, M> {
    /// A job over the whole (unsharded) grid: one band at row 0.
    pub(crate) fn whole(
        models: &'a [M],
        pyramids: &'a [AggregatePyramid],
        source: &'a S,
        k: usize,
    ) -> Self {
        Job {
            models,
            bands: vec![ArchiveShard::new(pyramids, source, 0)],
            k,
            cols: pyramids[0].base_shape().1,
        }
    }

    /// The same batch over `bands`, positions in this job's bands.
    pub(crate) fn over(&self, bands: impl IntoIterator<Item = usize>) -> Self {
        Job {
            models: self.models,
            bands: (bands.into_iter())
                .map(|b| &self.bands[b])
                .map(|band| ArchiveShard::new(band.pyramids(), band.source(), band.row_offset()))
                .collect(),
            k: self.k,
            cols: self.cols,
        }
    }
}

/// Batched queries must agree on the model arity.
pub(crate) fn same_arity<M: Scorer>(models: &[M]) -> Result<(), CoreError> {
    let arity = |m: &M| m.model().arity();
    if models.iter().any(|m| arity(m) != arity(&models[0])) {
        return Err(CoreError::Query(
            "batched queries must share the model arity".into(),
        ));
    }
    Ok(())
}

/// The input validation of the unsharded batched entry points: the solo
/// engines' (applied to the first model) plus arity agreement.
pub(crate) fn validate_batch<M: Scorer>(
    models: &[M],
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<(), CoreError> {
    validate_grid_inputs(models[0].model(), pyramids, k)?;
    same_arity(models)
}

/// What one band of a batched descent produced: one outcome per query,
/// in batch order, and the band memo's physical-work accounting.
pub(crate) type BandRun = (Vec<Outcome>, Tally);

/// Sets up one [`Env`] per band of `job` — `pressure(b)` is band `b`'s
/// budget — and one lane per (query, band), query-major as [`interleave`]
/// takes them, over `scratch` (frontiers empty, memos reset); hands them
/// and the scratch's selectors to `run`, and collects what each band's
/// lanes produced.
pub(crate) fn with_lanes<'a, S, M, R>(
    job: &Job<'a, S, M>,
    pressure: impl Fn(usize) -> Pooled<'a>,
    scratch: &mut BatchScratch,
    run: impl FnOnce(&mut [Env<'_, S>], &mut [Lane<'_, M>], &mut [Selector; 2]) -> R,
) -> (R, Vec<BandRun>)
where
    S: CellSource,
    M: Scorer,
{
    let (m, bands) = (job.models.len(), job.bands.len());
    let caps = scratch.caps();
    let BatchScratch {
        frontiers,
        memos,
        selectors,
        ..
    } = scratch;
    if frontiers.len() < m * bands {
        frontiers.resize_with(m * bands, BinaryHeap::new);
    }
    if memos.len() < bands {
        memos.resize_with(bands, Memo::default);
    }
    let mut lanes: Vec<Lane<'_, M>> = frontiers
        .iter_mut()
        .take(m * bands)
        .enumerate()
        .map(|(i, frontier)| {
            let (q, band) = (i / bands, &job.bands[i % bands]);
            let naive = job.models[q].model().arity() as u64 * band.cells();
            Lane::new(q, &job.models[q], frontier, job.k, naive)
        })
        .collect();
    let mut envs: Vec<Env<'_, S>> = (job.bands.iter().enumerate())
        .zip(memos.iter_mut())
        .map(|((b, band), memo)| {
            memo.reset(m);
            Env {
                pyramids: band.pyramids(),
                source: band.source(),
                cols: job.cols,
                row_offset: band.row_offset(),
                memo,
                pressure: pressure(b),
            }
        })
        .collect();
    let ran = run(&mut envs, &mut lanes, selectors);
    let mut runs: Vec<BandRun> = envs
        .iter()
        .map(|env| (Vec::with_capacity(m), env.memo.tally()))
        .collect();
    for (i, lane) in lanes.into_iter().enumerate() {
        runs[i % bands].0.push(lane.finish());
    }
    scratch.bands = bands;
    scratch.note_regrowth(&caps);
    (ran, runs)
}

/// The batched descent: the lanes of band `b` start from `seeds(b)`, the
/// `(query, region)` pairs dealt to this run in that band, or — when that
/// is `None` — at the band's root, each lane charged its own root bound
/// exactly like the solo engine, even though the range box is fetched
/// once. The batch scheduler runs them to the end against `floor`. One
/// verdict per band: an error fails that band alone.
pub(crate) fn descend<'a, 's, S, M, B>(
    job: &Job<'a, S, M>,
    pressure: impl Fn(usize) -> Pooled<'a>,
    seeds: impl Fn(usize) -> Option<&'s [(usize, Region)]>,
    floor: &mut B,
    scratch: &mut BatchScratch,
) -> Vec<Result<BandRun, CoreError>>
where
    S: CellSource,
    M: Scorer,
    B: Floor,
{
    let (verdicts, runs) = with_lanes(job, pressure, scratch, |envs, lanes, selectors| {
        let bands = envs.len();
        let mut verdicts: Vec<Result<(), CoreError>> = vec![Ok(()); bands];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let b = i % bands;
            if seeds(b).is_none() && verdicts[b].is_ok() {
                verdicts[b] = seed_root(&mut envs[b], lane);
            }
        }
        for b in 0..bands {
            for &(q, region) in seeds(b).into_iter().flatten() {
                lanes[q * bands + b].frontier.push(region);
            }
        }
        interleave(envs, floor, lanes, &mut verdicts, selectors);
        verdicts
    });
    verdicts
        .into_iter()
        .zip(runs)
        .map(|(verdict, run)| verdict.map(|()| run))
        .collect()
}

/// Resolves every lane's outcome against its own floor (the unsharded
/// gather, query by query).
pub(crate) fn gather<S: CellSource, M: Scorer>(
    job: &Job<'_, S, M>,
    outs: Vec<Outcome>,
    tally: Tally,
    pages_read: u64,
) -> Result<BatchedTopK, CoreError> {
    let queries = outs
        .into_iter()
        .zip(job.models)
        .map(|(out, model)| finish(out, model.model(), job.bands[0].pyramids(), job.k))
        .collect::<Result<_, _>>()?;
    Ok(BatchedTopK::gathered(queries, tally, pages_read))
}

/// Batched top-K: one shared descent answering every model in `models`
/// against the same pyramids and page source. See the module docs for the
/// sharing/identity contract; `opts` (a bare `&ExecutionBudget` converts,
/// see [`ExecOptions`]) applies batch-wide: one budget, one token stopping
/// the whole batch. Buffers come from a per-thread pool, so repeated
/// batches on one thread stop allocating once warm.
///
/// # Errors
///
/// Same validation as
/// [`resilient_top_k`](crate::resilient::resilient_top_k) (applied to the
/// first model), plus [`CoreError::Query`] when the models disagree on
/// arity. Non-page archive errors abort the whole batch, exactly as they
/// abort a solo run.
pub fn batched_top_k<'a, S: CellSource>(
    models: &[LinearModel],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    opts: impl Into<ExecOptions<'a>>,
) -> Result<BatchedTopK, CoreError> {
    let opts = opts.into();
    with_pooled_scratch(|scratch| batched_top_k_inner(models, pyramids, k, source, opts, scratch))
}

thread_local! {
    /// Per-thread [`BatchScratch`] behind [`batched_top_k`], the parallel
    /// workers and the sharded workers, so repeated batches on one thread
    /// warm the same buffers instead of reallocating the frontiers, memo
    /// tables, and arenas every time.
    static POOLED_SCRATCH: std::cell::RefCell<BatchScratch> =
        std::cell::RefCell::new(BatchScratch::new());
}

/// Run `f` with this thread's pooled scratch, or a fresh one if the pool
/// is unavailable (a source callback re-entering the engine).
pub(crate) fn with_pooled_scratch<T>(f: impl FnOnce(&mut BatchScratch) -> T) -> T {
    POOLED_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BatchScratch::new()),
    })
}

/// The sequential configuration of the execution core, for a batch of Q ≥ 1
/// queries — a solo query is a batch of one: local per-query floors, one
/// checkpoint per logical pop — the same cadence as Q solo runs — against
/// the *batch-wide* budget (summed multiply-adds and the shared source
/// clocks), lost pages parked.
pub(crate) fn batched_top_k_inner<S: CellSource, M: Scorer>(
    models: &[M],
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    opts: ExecOptions<'_>,
    scratch: &mut BatchScratch,
) -> Result<BatchedTopK, CoreError> {
    if models.is_empty() {
        return Ok(BatchedTopK::gathered(Vec::new(), Tally::default(), 0));
    }
    validate_batch(models, pyramids, k)?;
    let deadline = WallDeadline::starting_now(opts.budget);
    let pages_at_entry = source.pages_read();
    let meter = PoolMeter::default();
    let pressure = Pooled::new(Clock::starting(opts, &deadline, source), &meter);
    let job = Job::whole(models, pyramids, source, k);
    let mut runs = descend(&job, |_| pressure, |_| None, &mut Local, scratch);
    let (outs, tally) = runs.pop().expect("one band")?;
    let pages_read = source.pages_read().saturating_sub(pages_at_entry);
    gather(&job, outs, tally, pages_read)
}

/// Whether every band's bound memo of the last descent `scratch` ran
/// ended retired — the premise of tests that exercise the retired path.
#[cfg(test)]
pub(crate) fn memos_retired(scratch: &BatchScratch) -> bool {
    scratch.memos[..scratch.bands].iter().all(Memo::retired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{pyramid_top_k, Truncated};
    use crate::lifecycle::CancelToken;
    use crate::resilient::{resilient_top_k, BudgetStop, ExecutionBudget};
    use crate::source::{CachedTileSource, TileSource};
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;
    use mbir_models::linear::ProgressiveLinearModel;

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
        Vec<LinearModel>,
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
        // A spread of query directions over the shared attributes: sign
        // flips, magnitude skews, and offsets, so floors mature at
        // different paces across the batch.
        let models = (0..6)
            .map(|qi| {
                let coeffs: Vec<f64> = (0..arity)
                    .map(|a| 1.0 - 0.3 * a as f64 + 0.17 * qi as f64 - 0.09 * (a * qi) as f64)
                    .collect();
                LinearModel::new(coeffs, 0.25 * qi as f64).unwrap()
            })
            .collect();
        (models, pyramids, stores, stats)
    }

    fn fresh_sources(stores: &[TileStore]) -> TileSource<'_> {
        TileSource::new(stores).unwrap()
    }

    #[test]
    fn healthy_batch_is_bit_identical_to_solo_runs() {
        let (models, pyramids, stores, _) = world(3, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        for k in [1usize, 5, 9] {
            let src = fresh_sources(&stores);
            let batch = batched_top_k(&models, &pyramids, k, &src, &budget).unwrap();
            assert_eq!(batch.queries.len(), models.len());
            for (q, model) in models.iter().enumerate() {
                let solo_src = fresh_sources(&stores);
                let solo = resilient_top_k(model, &pyramids, k, &solo_src, &budget).unwrap();
                // Full structural equality: results, effort, completeness,
                // skipped pages, and stop reason all match the solo run.
                assert_eq!(batch.queries[q], solo, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn batch_amortizes_pages_and_bounds_across_queries() {
        let (models, pyramids, stores, _) = world(3, 64, 64, 8);
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models, &pyramids, 7, &src, &budget).unwrap();
        let mut solo_pages = 0u64;
        for model in &models {
            let solo_src = fresh_sources(&stores);
            let before = solo_src.pages_read();
            resilient_top_k(model, &pyramids, 7, &solo_src, &budget).unwrap();
            solo_pages += solo_src.pages_read() - before;
        }
        assert!(
            batch.pages_read <= solo_pages,
            "batched {} pages vs solo sum {}",
            batch.pages_read,
            solo_pages
        );
        // The memo tables actually deduplicate: logical requests exceed
        // physical work whenever queries overlap. The spread batch diverges
        // early, so the sampling governor may retire the bound memo there
        // (evals == requests is then correct); cells still amortize.
        assert!(batch.cell_requests >= batch.cells_fetched);
        assert!(batch.bound_requests >= batch.bound_evals);

        // A tightly-overlapping batch keeps the bound memo on past the
        // sampling window with margin, so most range fetches are shared:
        // fewer than half the logical requests reach the pyramids.
        let near: Vec<LinearModel> = (0..6)
            .map(|qi| {
                let t = qi as f64;
                let coeffs: Vec<f64> = (0..pyramids.len())
                    .map(|a| 1.0 + 0.001 * t - 0.3 * a as f64)
                    .collect();
                LinearModel::new(coeffs, 0.02 * t).unwrap()
            })
            .collect();
        let src = fresh_sources(&stores);
        let near_batch = batched_top_k(&near, &pyramids, 7, &src, &budget).unwrap();
        assert!(
            near_batch.bound_evals < near_batch.bound_requests / 2,
            "overlapping batch should amortize range-box fetches: {} requests vs {} evals",
            near_batch.bound_requests,
            near_batch.bound_evals
        );
        assert!(near_batch.cell_requests > near_batch.cells_fetched);
    }

    #[test]
    fn singleton_batch_equals_solo_run_exactly() {
        let (models, pyramids, stores, _) = world(2, 32, 32, 8);
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models[..1], &pyramids, 5, &src, &budget).unwrap();
        let solo_src = fresh_sources(&stores);
        let solo = resilient_top_k(&models[0], &pyramids, 5, &solo_src, &budget).unwrap();
        assert_eq!(batch.queries[0], solo);
        assert_eq!(batch.cell_requests, batch.cells_fetched);
    }

    #[test]
    fn lost_pages_degrade_each_query_exactly_like_solo() {
        let (models, pyramids, stores, _) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&models[0], &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().permanent(page)))
            .collect();
        let budget = ExecutionBudget::unlimited();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models, &pyramids, 3, &src, &budget).unwrap();
        let mut any_degraded = false;
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo = resilient_top_k(model, &pyramids, 3, &solo_src, &budget).unwrap();
            any_degraded |= solo.is_degraded();
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
        assert!(any_degraded, "fault must actually degrade some query");
    }

    #[test]
    fn corrupt_page_verdict_is_shared_and_matches_solo() {
        let (models, pyramids, stores, _) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&models[1], &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new().corrupt(page)))
            .collect();
        let budget = ExecutionBudget::unlimited();
        let src = CachedTileSource::new(&stores, 16).unwrap();
        let batch = batched_top_k(&models, &pyramids, 4, &src, &budget).unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = CachedTileSource::new(&stores, 16).unwrap();
            let solo = resilient_top_k(model, &pyramids, 4, &solo_src, &budget).unwrap();
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn pre_expired_deadline_stops_every_query_like_solo() {
        use std::time::Duration;
        let (models, pyramids, stores, _) = world(2, 64, 64, 8);
        let budget = ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO);
        let src = fresh_sources(&stores);
        let batch = batched_top_k(&models, &pyramids, 5, &src, &budget).unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo = resilient_top_k(model, &pyramids, 5, &solo_src, &budget).unwrap();
            assert_eq!(solo.budget_stop, Some(BudgetStop::WallClock));
            // A stop at the very first checkpoint leaves each query with
            // exactly its root leftover — identical to the solo stop.
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_query_like_solo() {
        let (models, pyramids, stores, _) = world(2, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        let token = CancelToken::new();
        token.cancel();
        let src = fresh_sources(&stores);
        let batch = batched_top_k(
            &models,
            &pyramids,
            5,
            &src,
            ExecOptions::new(&budget).cancel(&token),
        )
        .unwrap();
        for (q, model) in models.iter().enumerate() {
            let solo_src = fresh_sources(&stores);
            let solo = resilient_top_k(
                model,
                &pyramids,
                5,
                &solo_src,
                ExecOptions::new(&budget).cancel(&token),
            )
            .unwrap();
            assert_eq!(solo.budget_stop, Some(BudgetStop::Cancelled));
            assert_eq!(batch.queries[q], solo, "q={q}");
        }
    }

    #[test]
    fn mid_run_budget_stop_is_sound_per_query() {
        let (models, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = fresh_sources(&stores);
        let unlimited =
            batched_top_k(&models, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let total: u64 = unlimited
            .queries
            .iter()
            .map(|r| r.effort.multiply_adds)
            .sum();
        let budget = ExecutionBudget::unlimited().with_max_multiply_adds(total / 3);
        let src = fresh_sources(&stores);
        let stopped = batched_top_k(&models, &pyramids, 5, &src, &budget).unwrap();
        let mut any_stopped = false;
        for (q, r) in stopped.queries.iter().enumerate() {
            any_stopped |= r.budget_stop.is_some();
            assert!(r.completeness >= 0.0 && r.completeness <= 1.0);
            assert!(r.results.len() <= 5);
            // Soundness: the true winner is confirmed exactly, covered by
            // a degraded candidate's bound, or pushed out of a full report.
            let best = unlimited.queries[q].results[0].score;
            assert!(
                r.results.len() == 5
                    || r.results
                        .iter()
                        .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
                "q={q}: winner neither confirmed nor covered"
            );
            for hit in r.results.iter().filter(|h| !h.exact) {
                assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
            }
        }
        assert!(any_stopped, "budget must actually bind");
    }

    #[test]
    fn warmed_scratch_stops_allocating_across_batches() {
        let (models, pyramids, stores, _) = world(3, 48, 48, 8);
        let budget = ExecutionBudget::unlimited();
        let mut scratch = BatchScratch::new();
        let src = fresh_sources(&stores);
        let first = batched_top_k_inner(
            &models,
            &pyramids,
            6,
            &src,
            ExecOptions::new(&budget),
            &mut scratch,
        )
        .unwrap();
        let warm = scratch.regrowths();
        for _ in 0..3 {
            let src = fresh_sources(&stores);
            let again = batched_top_k_inner(
                &models,
                &pyramids,
                6,
                &src,
                ExecOptions::new(&budget),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(again.queries, first.queries);
            assert_eq!(
                scratch.regrowths(),
                warm,
                "a warmed batch scratch must not regrow"
            );
        }
    }

    #[test]
    fn empty_batch_and_mismatched_arity_are_handled() {
        let (models, pyramids, stores, _) = world(2, 16, 16, 8);
        let src = fresh_sources(&stores);
        let budget = ExecutionBudget::unlimited();
        let empty = batched_top_k(&[], &pyramids, 3, &src, &budget).unwrap();
        assert!(empty.queries.is_empty());
        assert_eq!(empty.pages_read, 0);
        let odd = LinearModel::new(vec![1.0, 2.0, 3.0], 0.0).unwrap();
        let mixed = vec![models[0].clone(), odd];
        assert!(batched_top_k(&mixed, &pyramids, 3, &src, &budget).is_err());
        assert!(batched_top_k(&models, &pyramids, 0, &src, &budget).is_err());
    }

    /// Holds the bound memo in `phase`: a window no probe count reaches,
    /// so the governor cannot move it while the law is checked.
    fn pin(memo: &mut Memo, phase: MemoPhase) {
        memo.bounds.gov = MemoGovernor {
            window: u32::MAX,
            probes: 0,
            hits: 0,
            phase,
            opening: phase,
        };
    }

    /// The bound law with the memo as its customer: for each lane in
    /// `lanes` and every parent, `memo`'s block bound is the one over the
    /// pyramids ([`Scorer::bound_children`] over [`fresh`] rows) — the
    /// count, the multiply-adds and every child's bits. Returns the range
    /// fetches the pass added.
    fn check_memo_bound_law<M: Scorer>(
        memo: &mut Memo,
        models: &[M],
        lanes: std::ops::Range<usize>,
        pyramids: &[AggregatePyramid],
        parents: &[(usize, usize, usize)],
    ) -> u64 {
        let evals = memo.tally().bound_evals;
        let (mut got, mut want) = ([f64::NAN; 4], [f64::NAN; 4]);
        for q in lanes {
            for &parent in parents {
                let (n, madds) =
                    models[q].bound_children(parent.0, fresh(pyramids, parent), &mut want);
                let g = memo.bound_children(&models[q], pyramids, parent, &mut got);
                assert_eq!(g, (n, madds), "lane {q} at {parent:?}");
                for (g, w) in got[..n].iter().zip(&want[..n]) {
                    assert_eq!(g.to_bits(), w.to_bits(), "lane {q} at {parent:?}");
                }
            }
        }
        memo.tally().bound_evals - evals
    }

    /// Sampling, on (miss, miss over a sampled mark, hit) and retired: in
    /// each phase, every lane of `models` gets the block bound's bits over
    /// the pyramids for every parent, and only a replayed block skips the
    /// fetch. `children` is the child count summed over `parents`.
    fn check_memo_phases<M: Scorer>(
        models: &[M],
        pyramids: &[AggregatePyramid],
        parents: &[(usize, usize, usize)],
        children: u64,
    ) {
        let width = models.len();
        let all = 0..width;
        let mut memo = Memo::default();

        // Sampling, then on: the first lane stores every block over its
        // sampled mark, every lane after it replays the block.
        memo.reset(width);
        pin(&mut memo, MemoPhase::Sampling);
        let fetched = check_memo_bound_law(&mut memo, models, all.clone(), pyramids, parents);
        assert_eq!(fetched, width as u64 * children);
        pin(&mut memo, MemoPhase::On);
        let fetched = check_memo_bound_law(&mut memo, models, 0..1, pyramids, parents);
        assert_eq!(fetched, children);
        let fetched = check_memo_bound_law(&mut memo, models, all.clone(), pyramids, parents);
        assert_eq!(fetched, 0);

        // On from a cold table, for every lane: it misses every block, then
        // every lane replays the blocks it stored.
        for q in all.clone() {
            memo.reset(width);
            pin(&mut memo, MemoPhase::On);
            let fetched = check_memo_bound_law(&mut memo, models, q..q + 1, pyramids, parents);
            assert_eq!(fetched, children);
            let fetched = check_memo_bound_law(&mut memo, models, all.clone(), pyramids, parents);
            assert_eq!(fetched, 0);
        }

        // Retired: the block bound over the pyramids, fetched every time.
        memo.reset(width);
        memo.bounds.gov.retire();
        let fetched = check_memo_bound_law(&mut memo, models, all, pyramids, parents);
        assert_eq!(fetched, width as u64 * children);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// [`check_memo_phases`] for the full models and for their
        /// truncated (combined-engine) scorers.
        #[test]
        fn prop_memo_block_bound_is_the_direct_block_bound(
            seed in 0u64..10_000,
            shape in 0usize..4,
            rows in 1usize..41,
            cols in 1usize..41,
            width in 2usize..9,
            arity in 1usize..5,
            table in proptest::collection::vec(
                proptest::sample::select(vec![0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0, -0.125]),
                32,
            ),
            intercepts in proptest::collection::vec(
                proptest::sample::select(vec![0.0, -0.0, 4.5, -7.25]),
                8,
            ),
        ) {
            let (rows, cols) = match shape {
                0 => (1, cols),
                1 => (rows, 1),
                _ => (rows, cols),
            };
            let pyramids: Vec<AggregatePyramid> = (0..arity)
                .map(|i| {
                    let grid = crate::engine::tests::dyadic_grid(seed + i as u64, rows, cols);
                    AggregatePyramid::build(&grid)
                })
                .collect();
            let models: Vec<LinearModel> = (0..width)
                .map(|q| {
                    let coeffs = table[q * arity..(q + 1) * arity].to_vec();
                    LinearModel::new(coeffs, intercepts[q]).unwrap()
                })
                .collect();
            let parents: Vec<(usize, usize, usize)> = (1..pyramids[0].levels())
                .rev()
                .flat_map(|level| {
                    let (lr, lc) = pyramids[0].level_shape(level);
                    (0..lr).flat_map(move |r| (0..lc).map(move |c| (level, r, c)))
                })
                .collect();
            let children: u64 = parents
                .iter()
                .map(|&(l, r, c)| pyramids[0].child_ranges(l, r, c, &mut [(0.0, 0.0); 4]) as u64)
                .sum();
            check_memo_phases(&models, &pyramids, &parents, children);
            let levels = pyramids[0].levels();
            let progressive: Vec<ProgressiveLinearModel> = (models.iter())
                .map(|m| crate::engine::tests::progressive_of(m, &pyramids))
                .collect();
            let truncated: Vec<Truncated<'_>> = progressive
                .iter()
                .map(|model| Truncated { model, levels })
                .collect();
            check_memo_phases(&truncated, &pyramids, &parents, children);
        }
    }
}
