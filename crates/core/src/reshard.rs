//! Epoch-fenced live resharding: topology changes over a serving archive
//! with no stop-the-world rebuild and no partial routing ever visible.
//!
//! The ROADMAP's north star — heavy traffic over a growing archive —
//! means the shard topology of [`crate::shard`] must be able to change
//! *while queries are in flight*. This module drives that change as an
//! explicit state machine over [`TopologyEpoch`]-stamped plans:
//!
//! ```text
//! Planned ──begin_copy──▶ Copying ──enter_dual_read──▶ DualRead
//!                           │  ▲                          │
//!         (wall deadline,   │  └── clear_copy_quarantine  │ cut_over
//!          cancellation)    │                             ▼
//!                           ▼                          CutOver
//!                        Aborted                          │ retire
//!                  (source epoch keeps serving)           ▼
//!                                                      Retired
//! ```
//!
//! * **Epoch fencing.** The source and destination [`ShardPlan`]s are
//!   wrapped in [`EpochedShardPlan`]s; [`active_epoch`] only ever returns
//!   the source epoch before `CutOver` and the destination epoch after, so
//!   a router can never observe a half-applied topology. Queries pin
//!   their epoch via [`ScatterPolicy::at_epoch`](crate::shard::ScatterPolicy::at_epoch)
//!   and are rejected with a typed
//!   [`EpochMismatch`](crate::shard::EpochMismatch) when the topology
//!   moved underneath them.
//! * **Chaos-proof copies.** [`run_copy`] assembles each migrating
//!   destination band from the source shards' pages through
//!   [`TileStore::read_page_verified`], so a copy that silently corrupts
//!   in flight is caught by the PR 4 page-envelope checksums rather than
//!   poisoning the new topology. Failed page reads retry with backoff on
//!   the coordinator's own tick ledger; a band whose copy keeps failing
//!   is quarantined after a bounded number of attempts, and a wall
//!   deadline (or cancellation) aborts the whole migration back to the
//!   source epoch with every partial copy dropped.
//! * **Dual-read soundness.** Between `enter_dual_read` and `cut_over`
//!   the copies exist on both sides; [`dual_read_groups`] hands
//!   [`scatter_gather_top_k_dual`](crate::shard::scatter_gather_top_k_dual)
//!   the migration groups so a migrating shard killed mid-flight can be
//!   served from its destination copy — with sound merged bounds, and
//!   bit-identical results to the pre-migration plan whenever the source
//!   side is healthy (see DESIGN.md §16 for the argument).
//! * **Quarantine hygiene.** [`retire`] scrubs the per-page quarantine
//!   of the retired source owners through [`QuarantineScrub`]: the page
//!   ids in those ledgers are only meaningful under the old band layout,
//!   and a stale entry would suppress reads of healthy data when the
//!   stores are reused.
//!
//! Copied band data is a bit-exact `f64` copy of the source rows, so the
//! destination pyramids built here are identical to pyramids built
//! directly over the destination plan — which is why a healthy migration
//! is bit-identical to having planned the destination topology from the
//! start (repro r9's first gate).
//!
//! [`active_epoch`]: ReshardCoordinator::active_epoch
//! [`run_copy`]: ReshardCoordinator::run_copy
//! [`dual_read_groups`]: ReshardCoordinator::dual_read_groups
//! [`retire`]: ReshardCoordinator::retire

use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::shard::DualReadGroup;
use crate::source::QuarantineScrub;
use mbir_archive::error::ArchiveError;
use mbir_archive::fault::RetryPolicy;
use mbir_archive::grid::Grid2;
use mbir_archive::shard::{plan_diff, EpochedShardPlan, PlanDiff, ShardPlan, TopologyEpoch};
use mbir_archive::tile::TileStore;
use mbir_progressive::pyramid::AggregatePyramid;
use std::collections::BTreeSet;
use std::fmt;

/// Where a migration stands. See the module docs for the transition
/// diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationState {
    /// Planned but no data moved; the source epoch serves alone.
    Planned,
    /// Band copies are being assembled (or retrying after quarantine).
    Copying,
    /// Every migrating band is copied; queries may fan out to both
    /// sides through the dual-read scatter.
    DualRead,
    /// The destination epoch is live; the source copies still exist.
    CutOver,
    /// Retired source owners are scrubbed; the migration is finished.
    Retired,
    /// Rolled back to the source epoch; partial copies were dropped.
    Aborted,
}

impl fmt::Display for MigrationState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MigrationState::Planned => "planned",
            MigrationState::Copying => "copying",
            MigrationState::DualRead => "dual-read",
            MigrationState::CutOver => "cut-over",
            MigrationState::Retired => "retired",
            MigrationState::Aborted => "aborted",
        })
    }
}

/// Why a migration was rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The copy phase exceeded [`ReshardPolicy::wall_deadline_ticks`].
    WallDeadline,
    /// A [`CancelToken`] was cancelled during the copy phase.
    Cancelled,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbortReason::WallDeadline => "wall-deadline",
            AbortReason::Cancelled => "cancelled",
        })
    }
}

/// Retry, quarantine, and deadline knobs for the copy phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardPolicy {
    /// Coordinator-level retry of a failed page copy (on top of whatever
    /// resilience the source stores run internally). Backoff accrues on
    /// the coordinator's [`ticks_spent`](ReshardCoordinator::ticks_spent)
    /// ledger.
    pub retry: RetryPolicy,
    /// Whole-band copy attempts before the band is quarantined (each
    /// attempt re-reads the band from scratch; a page that exhausts its
    /// retries fails the attempt). Minimum 1.
    pub band_attempts: u32,
    /// Abort the migration when the coordinator's copy ledger exceeds
    /// this many ticks (page I/O, injected latency, and backoff all
    /// count). `None` never aborts on time.
    pub wall_deadline_ticks: Option<u64>,
}

impl Default for ReshardPolicy {
    fn default() -> Self {
        ReshardPolicy {
            retry: RetryPolicy::retries(2).with_backoff(4, 64),
            band_attempts: 2,
            wall_deadline_ticks: None,
        }
    }
}

impl ReshardPolicy {
    /// Sets the wall deadline in ticks (builder style).
    pub fn with_wall_deadline_ticks(mut self, ticks: u64) -> Self {
        self.wall_deadline_ticks = Some(ticks);
        self
    }
}

/// One migrated destination band: its copied attribute stores and the
/// pyramids built over the copy. Owned by the coordinator from the end
/// of a successful copy until an abort drops it.
#[derive(Debug)]
pub struct MigratedBand {
    dest_band: usize,
    row_offset: usize,
    pyramids: Vec<AggregatePyramid>,
    stores: Vec<TileStore>,
}

impl MigratedBand {
    /// Destination-plan band index this copy serves.
    pub fn dest_band(&self) -> usize {
        self.dest_band
    }

    /// Global row of the band's first row.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Attribute pyramids built over the copied band (bit-identical to
    /// pyramids built directly over the destination plan's band).
    pub fn pyramids(&self) -> &[AggregatePyramid] {
        &self.pyramids
    }

    /// The copied per-attribute tile stores.
    pub fn stores(&self) -> &[TileStore] {
        &self.stores
    }
}

/// Per-band accounting of the copy phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BandCopyReport {
    /// Destination-plan band index.
    pub dest_band: usize,
    /// Whole-band attempts so far (reset by
    /// [`ReshardCoordinator::clear_copy_quarantine`]).
    pub attempts: u32,
    /// Pages copied successfully (across all attempts).
    pub pages_copied: u64,
    /// Coordinator-level page retries issued.
    pub retries: u64,
    /// Page reads that failed on I/O or quarantine.
    pub io_failures: u64,
    /// Page reads whose envelope failed checksum verification — silent
    /// corruption caught in flight.
    pub checksum_failures: u64,
    /// Whether the band is currently quarantined.
    pub quarantined: bool,
    /// Whether the band's copy completed and verified.
    pub complete: bool,
}

/// Verdict of one [`ReshardCoordinator::run_copy`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CopyOutcome {
    /// Every migrating band is copied and verified.
    Complete,
    /// These destination bands exhausted their attempts and are
    /// quarantined; the rest are copied. The caller can switch sources
    /// and [`clear_copy_quarantine`](ReshardCoordinator::clear_copy_quarantine).
    Quarantined(Vec<usize>),
    /// The wall deadline expired; the migration aborted and rolled back.
    DeadlineExceeded,
    /// The cancel token fired; the migration aborted and rolled back.
    Cancelled,
}

/// Snapshot of a migration for logging and the bench harness.
#[derive(Debug, Clone, PartialEq)]
pub struct ReshardReport {
    /// Epoch of the source topology.
    pub from_epoch: TopologyEpoch,
    /// Epoch the destination topology serves once cut over.
    pub to_epoch: TopologyEpoch,
    /// Current state.
    pub state: MigrationState,
    /// Destination band indices that need (or needed) copies.
    pub migrating_dest_bands: Vec<usize>,
    /// Per-band copy accounting, in migrating-band order.
    pub bands: Vec<BandCopyReport>,
    /// Ticks the copy phase has accrued (page I/O plus backoff).
    pub ticks_spent: u64,
    /// Why the migration aborted, if it did.
    pub abort: Option<AbortReason>,
}

/// Drives one topology change (split / merge / boundary move of
/// tile-aligned row bands) through the epoch-fenced state machine. See
/// the module docs.
#[derive(Debug)]
pub struct ReshardCoordinator {
    from: EpochedShardPlan,
    to: EpochedShardPlan,
    diff: PlanDiff,
    policy: ReshardPolicy,
    state: MigrationState,
    /// Migrating destination band indices, in row order.
    migrating: Vec<usize>,
    /// Copies, parallel to `migrating`.
    copied: Vec<Option<MigratedBand>>,
    /// Copy accounting, parallel to `migrating`.
    reports: Vec<BandCopyReport>,
    /// Positions (into `migrating`) currently quarantined.
    quarantined: BTreeSet<usize>,
    ticks_spent: u64,
    abort: Option<AbortReason>,
}

impl ReshardCoordinator {
    /// Plans a migration from `from` to the destination plan `dest`,
    /// which is stamped as the successor epoch. Starts in
    /// [`MigrationState::Planned`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Archive`] when the destination disagrees with the
    /// source on grid shape or tile size.
    pub fn new(
        from: EpochedShardPlan,
        dest: ShardPlan,
        policy: ReshardPolicy,
    ) -> Result<Self, CoreError> {
        let to = from.successor(dest).map_err(CoreError::Archive)?;
        let diff = plan_diff(from.plan(), to.plan()).map_err(CoreError::Archive)?;
        let migrating = diff.migrating_dest_bands();
        let reports = migrating
            .iter()
            .map(|&b| BandCopyReport {
                dest_band: b,
                ..BandCopyReport::default()
            })
            .collect();
        let copied = migrating.iter().map(|_| None).collect();
        Ok(ReshardCoordinator {
            from,
            to,
            diff,
            policy,
            state: MigrationState::Planned,
            migrating,
            copied,
            reports,
            quarantined: BTreeSet::new(),
            ticks_spent: 0,
            abort: None,
        })
    }

    /// Current state.
    pub fn state(&self) -> MigrationState {
        self.state
    }

    /// Epoch of the source topology.
    pub fn from_epoch(&self) -> TopologyEpoch {
        self.from.epoch()
    }

    /// Epoch the destination topology serves once cut over.
    pub fn to_epoch(&self) -> TopologyEpoch {
        self.to.epoch()
    }

    /// The epoch serving live traffic *right now*: the source epoch in
    /// every state before [`MigrationState::CutOver`] (including
    /// `DualRead` — the dual fan-out is an opt-in extra, routing is
    /// still the source's) and after an abort; the destination epoch
    /// from `CutOver` on.
    pub fn active_epoch(&self) -> TopologyEpoch {
        self.active_plan().epoch()
    }

    /// The epoch-stamped plan serving live traffic right now. Only ever
    /// the full source plan or the full destination plan — no partial
    /// routing is representable, in any state.
    fn active_plan(&self) -> &EpochedShardPlan {
        match self.state {
            MigrationState::CutOver | MigrationState::Retired => &self.to,
            _ => &self.from,
        }
    }

    /// Destination band indices needing copies, in row order.
    pub fn migrating_dest_bands(&self) -> &[usize] {
        &self.migrating
    }

    /// Source band indices whose rows migrate away (retired from their
    /// owner once the change completes).
    pub fn retiring_source_bands(&self) -> Vec<usize> {
        self.diff.migrating_source_bands()
    }

    /// `(dest_band, source_band)` pairs whose geometry is unchanged: the
    /// destination band reuses the source band's pyramids and stores.
    pub fn carried_over(&self) -> &[(usize, usize)] {
        &self.diff.carried_over
    }

    /// Per-band copy accounting, in migrating-band order.
    pub fn copy_reports(&self) -> &[BandCopyReport] {
        &self.reports
    }

    /// Ticks the copy phase has accrued on the coordinator's ledger.
    pub fn ticks_spent(&self) -> u64 {
        self.ticks_spent
    }

    /// Why the migration aborted, if it did.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.abort
    }

    /// Snapshot for logging and the bench harness.
    pub fn report(&self) -> ReshardReport {
        ReshardReport {
            from_epoch: self.from_epoch(),
            to_epoch: self.to_epoch(),
            state: self.state,
            migrating_dest_bands: self.migrating.clone(),
            bands: self.reports.clone(),
            ticks_spent: self.ticks_spent,
            abort: self.abort,
        }
    }

    fn expect_state(&self, want: MigrationState, doing: &str) -> Result<(), CoreError> {
        if self.state != want {
            return Err(CoreError::Query(format!(
                "reshard: cannot {doing} in state {} (requires {want})",
                self.state
            )));
        }
        Ok(())
    }

    /// [`MigrationState::Planned`] → [`MigrationState::Copying`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] outside `Planned`.
    pub fn begin_copy(&mut self) -> Result<(), CoreError> {
        self.expect_state(MigrationState::Planned, "begin the copy phase")?;
        self.state = MigrationState::Copying;
        Ok(())
    }

    /// Copies every pending migrating band out of `sources` (one slice
    /// of per-attribute stores per *source* shard, in band order),
    /// verifying every page's checksum in flight. Page failures retry
    /// with backoff per [`ReshardPolicy::retry`]; a band that fails
    /// [`ReshardPolicy::band_attempts`] whole-band attempts is
    /// quarantined; the wall deadline and `cancel` both abort the whole
    /// migration (state [`MigrationState::Aborted`], partial copies
    /// dropped, source epoch untouched).
    ///
    /// Idempotent over completed bands: a second pass only works on
    /// bands that are neither copied nor quarantined, so the caller can
    /// re-run after [`clear_copy_quarantine`](Self::clear_copy_quarantine)
    /// with healthier sources.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] outside `Copying` or when `sources` does not
    /// match the source plan (count, arity, band shapes);
    /// [`CoreError::Archive`] only for non-fault archive bugs (fault-type
    /// page errors are handled, not propagated).
    pub fn run_copy(
        &mut self,
        sources: &[&[TileStore]],
        cancel: Option<&CancelToken>,
    ) -> Result<CopyOutcome, CoreError> {
        self.expect_state(MigrationState::Copying, "run the copy phase")?;
        let plan_cols = self.from.plan().shape().1;
        let tile = self.from.plan().tile_size();
        if sources.len() != self.from.plan().shard_count() {
            return Err(CoreError::Query(format!(
                "reshard: {} source store sets for {} source shards",
                sources.len(),
                self.from.plan().shard_count()
            )));
        }
        let arity = sources[0].len();
        if arity == 0 {
            return Err(CoreError::Query("reshard: empty source store set".into()));
        }
        for (s, band) in self.from.plan().bands().iter().enumerate() {
            if sources[s].len() != arity {
                return Err(CoreError::Query(format!(
                    "reshard: source shard {s} has {} stores, shard 0 has {arity}",
                    sources[s].len()
                )));
            }
            for store in sources[s] {
                if store.rows() != band.rows
                    || store.cols() != plan_cols
                    || store.tile_size() != tile
                {
                    return Err(CoreError::Query(format!(
                        "reshard: source shard {s} store shape {}x{} tile {} does not match its band ({}x{plan_cols} tile {tile})",
                        store.rows(),
                        store.cols(),
                        store.tile_size(),
                        band.rows,
                    )));
                }
            }
        }

        'bands: for p in 0..self.migrating.len() {
            if self.copied[p].is_some() || self.quarantined.contains(&p) {
                continue;
            }
            let dest_band = self.to.plan().bands()[self.migrating[p]];
            let slices = self
                .from
                .plan()
                .band_slices(dest_band.row_offset, dest_band.rows)
                .map_err(CoreError::Archive)?;
            loop {
                self.reports[p].attempts += 1;
                let mut buffers: Vec<Vec<f64>> = (0..arity)
                    .map(|_| vec![f64::NAN; dest_band.rows * plan_cols])
                    .collect();
                let mut attempt_failed = false;
                'slices: for slice in &slices {
                    for (a, store) in sources[slice.shard].iter().enumerate() {
                        let first_page = store.page_of(slice.local_row, 0);
                        let last_page =
                            store.page_of(slice.local_row + slice.rows - 1, plan_cols - 1);
                        for page in first_page..=last_page {
                            if cancel.is_some_and(CancelToken::is_cancelled) {
                                self.do_abort(AbortReason::Cancelled);
                                return Ok(CopyOutcome::Cancelled);
                            }
                            let ticks_at_entry = store.stats().ticks_elapsed();
                            let mut retry = 0u32;
                            let read = loop {
                                match store.read_page_verified(page) {
                                    Ok(values) => break Some(values),
                                    Err(e @ ArchiveError::PageCorrupt { .. }) => {
                                        self.reports[p].checksum_failures += 1;
                                        if retry >= self.policy.retry.max_retries {
                                            let _ = e;
                                            break None;
                                        }
                                    }
                                    Err(
                                        ArchiveError::PageIo { .. }
                                        | ArchiveError::PageQuarantined { .. },
                                    ) => {
                                        self.reports[p].io_failures += 1;
                                        if retry >= self.policy.retry.max_retries {
                                            break None;
                                        }
                                    }
                                    Err(e) => return Err(CoreError::Archive(e)),
                                }
                                retry += 1;
                                self.reports[p].retries += 1;
                                self.ticks_spent += self.policy.retry.backoff_ticks(retry);
                            };
                            self.ticks_spent +=
                                store.stats().ticks_elapsed().saturating_sub(ticks_at_entry);
                            let Some(values) = read else {
                                attempt_failed = true;
                                break 'slices;
                            };
                            self.reports[p].pages_copied += 1;
                            for (coord, value) in values {
                                if coord.row < slice.local_row
                                    || coord.row >= slice.local_row + slice.rows
                                {
                                    continue; // Outside the slice (ragged edge).
                                }
                                let dest_row = slice.global_row + (coord.row - slice.local_row)
                                    - dest_band.row_offset;
                                buffers[a][dest_row * plan_cols + coord.col] = value;
                            }
                            if self.deadline_exceeded() {
                                self.do_abort(AbortReason::WallDeadline);
                                return Ok(CopyOutcome::DeadlineExceeded);
                            }
                        }
                    }
                }
                if !attempt_failed {
                    debug_assert!(
                        buffers.iter().all(|b| b.iter().all(|v| !v.is_nan())),
                        "band copy left unwritten cells"
                    );
                    let mut pyramids = Vec::with_capacity(arity);
                    let mut stores = Vec::with_capacity(arity);
                    for buffer in buffers {
                        let grid = Grid2::from_vec(dest_band.rows, plan_cols, buffer)
                            .map_err(CoreError::Archive)?;
                        pyramids.push(AggregatePyramid::build(&grid));
                        stores.push(TileStore::new(grid, tile).map_err(CoreError::Archive)?);
                    }
                    self.reports[p].complete = true;
                    self.copied[p] = Some(MigratedBand {
                        dest_band: self.migrating[p],
                        row_offset: dest_band.row_offset,
                        pyramids,
                        stores,
                    });
                    continue 'bands;
                }
                if self.reports[p].attempts >= self.policy.band_attempts.max(1) {
                    self.reports[p].quarantined = true;
                    self.quarantined.insert(p);
                    continue 'bands;
                }
                // Backoff between whole-band attempts, then re-read the
                // band from scratch (partial buffers are dropped).
                self.ticks_spent += self.policy.retry.backoff_ticks(self.reports[p].attempts);
                if self.deadline_exceeded() {
                    self.do_abort(AbortReason::WallDeadline);
                    return Ok(CopyOutcome::DeadlineExceeded);
                }
            }
        }
        if self.quarantined.is_empty() {
            Ok(CopyOutcome::Complete)
        } else {
            Ok(CopyOutcome::Quarantined(
                self.quarantined
                    .iter()
                    .map(|&p| self.migrating[p])
                    .collect(),
            ))
        }
    }

    /// Lifts the copy quarantine: quarantined bands get a fresh attempt
    /// budget so a later [`run_copy`](Self::run_copy) (typically against
    /// healthier sources, e.g. a different replica) can retry them.
    pub fn clear_copy_quarantine(&mut self) {
        for p in std::mem::take(&mut self.quarantined) {
            self.reports[p].quarantined = false;
            self.reports[p].attempts = 0;
        }
    }

    /// [`MigrationState::Copying`] → [`MigrationState::DualRead`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] outside `Copying`, or while any migrating
    /// band is still uncopied or quarantined.
    pub fn enter_dual_read(&mut self) -> Result<(), CoreError> {
        self.expect_state(MigrationState::Copying, "enter dual-read")?;
        if !self.quarantined.is_empty() || self.copied.iter().any(Option::is_none) {
            let pending: Vec<usize> = self
                .migrating
                .iter()
                .enumerate()
                .filter(|&(p, _)| self.copied[p].is_none())
                .map(|(_, &b)| b)
                .collect();
            return Err(CoreError::Query(format!(
                "reshard: cannot enter dual-read with uncopied bands {pending:?}"
            )));
        }
        self.state = MigrationState::DualRead;
        Ok(())
    }

    /// The migrated band copies, in migrating-band (row) order. Empty
    /// before any copy completes and after an abort.
    pub fn migrated_bands(&self) -> Vec<&MigratedBand> {
        self.copied.iter().flatten().collect()
    }

    /// The migration groups in the shape the dual-read scatter wants:
    /// source shard indices paired with indices into
    /// [`migrated_bands`](Self::migrated_bands) (which is exactly the
    /// destination-shard slice a dual-read caller assembles).
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] outside [`MigrationState::DualRead`].
    pub fn dual_read_groups(&self) -> Result<Vec<DualReadGroup>, CoreError> {
        self.expect_state(MigrationState::DualRead, "form dual-read groups")?;
        Ok(self
            .diff
            .groups
            .iter()
            .map(|g| DualReadGroup {
                source_shards: g.source_bands.clone(),
                dest_shards: g
                    .dest_bands
                    .iter()
                    .map(|b| {
                        self.migrating
                            .iter()
                            .position(|m| m == b)
                            .expect("migrating band indexed by its group")
                    })
                    .collect(),
            })
            .collect())
    }

    /// [`MigrationState::DualRead`] → [`MigrationState::CutOver`]: the
    /// destination epoch becomes the active one, atomically — callers of
    /// [`active_epoch`](Self::active_epoch) see the whole new topology or
    /// the whole old one, never a mix.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] outside `DualRead`.
    pub fn cut_over(&mut self) -> Result<(), CoreError> {
        self.expect_state(MigrationState::DualRead, "cut over")?;
        self.state = MigrationState::CutOver;
        Ok(())
    }

    /// [`MigrationState::CutOver`] → [`MigrationState::Retired`]:
    /// scrubs the per-page quarantine of the retired source owners (the
    /// ISSUE-9 hygiene fix — those ledgers describe pages under the old
    /// band layout and would otherwise suppress reads of healthy data
    /// when the stores are reused). Pass one [`QuarantineScrub`] per
    /// retiring source shard, in [`retiring_source_bands`](Self::retiring_source_bands)
    /// order. Returns the number of quarantined pages cleared.
    ///
    /// # Errors
    ///
    /// [`CoreError::Query`] outside `CutOver` or with the wrong number
    /// of sources.
    pub fn retire(&mut self, retired_sources: &[&dyn QuarantineScrub]) -> Result<u64, CoreError> {
        self.expect_state(MigrationState::CutOver, "retire the source owners")?;
        let retiring = self.retiring_source_bands();
        if retired_sources.len() != retiring.len() {
            return Err(CoreError::Query(format!(
                "reshard: {} sources to scrub for {} retiring bands {retiring:?}",
                retired_sources.len(),
                retiring.len()
            )));
        }
        let mut cleared = 0u64;
        for source in retired_sources {
            cleared += source.quarantined_pages();
            source.clear_quarantine();
        }
        self.state = MigrationState::Retired;
        Ok(cleared)
    }

    fn do_abort(&mut self, reason: AbortReason) {
        for slot in &mut self.copied {
            *slot = None;
        }
        self.abort = Some(reason);
        self.state = MigrationState::Aborted;
    }

    fn deadline_exceeded(&self) -> bool {
        self.policy
            .wall_deadline_ticks
            .is_some_and(|d| self.ticks_spent > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::fault::FaultProfile;

    const ROWS: usize = 32;
    const COLS: usize = 16;
    const TILE: usize = 4;

    fn global_grid() -> Grid2<f64> {
        Grid2::from_fn(ROWS, COLS, |r, c| ((r * COLS + c) as f64).sin() * 10.0)
    }

    /// One store set per source shard, two attributes each.
    fn source_stores(plan: &ShardPlan) -> Vec<Vec<TileStore>> {
        let grid = global_grid();
        let scaled = Grid2::from_fn(ROWS, COLS, |r, c| grid.as_slice()[r * COLS + c] * -0.5);
        (0..plan.shard_count())
            .map(|s| {
                [&grid, &scaled]
                    .iter()
                    .map(|g| TileStore::new(plan.extract_band(g, s).unwrap(), TILE).unwrap())
                    .collect()
            })
            .collect()
    }

    fn split_coordinator(policy: ReshardPolicy) -> ReshardCoordinator {
        let from = EpochedShardPlan::initial(ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap());
        let dest = from.plan().split_band(1).unwrap();
        ReshardCoordinator::new(from, dest, policy).unwrap()
    }

    fn borrow(sources: &[Vec<TileStore>]) -> Vec<&[TileStore]> {
        sources.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn state_machine_rejects_out_of_order_transitions() {
        let mut coord = split_coordinator(ReshardPolicy::default());
        let sources = source_stores(&ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap());
        assert_eq!(coord.state(), MigrationState::Planned);
        assert!(coord.run_copy(&borrow(&sources), None).is_err());
        assert!(coord.enter_dual_read().is_err());
        assert!(coord.cut_over().is_err());
        assert!(coord.retire(&[]).is_err());
        assert!(coord.dual_read_groups().is_err());

        coord.begin_copy().unwrap();
        assert!(coord.begin_copy().is_err());
        // Cannot enter dual-read before the copy lands.
        assert!(coord.enter_dual_read().is_err());
        assert_eq!(
            coord.run_copy(&borrow(&sources), None).unwrap(),
            CopyOutcome::Complete
        );
        coord.enter_dual_read().unwrap();
        assert_eq!(coord.active_epoch(), coord.from_epoch());
        coord.cut_over().unwrap();
        assert_eq!(coord.active_epoch(), coord.to_epoch());
        // Wrong scrub arity.
        assert!(coord.retire(&[]).is_err());
    }

    #[test]
    fn healthy_copy_is_bit_exact_against_direct_extraction() {
        let mut coord = split_coordinator(ReshardPolicy::default());
        let from_plan = ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap();
        let sources = source_stores(&from_plan);
        coord.begin_copy().unwrap();
        assert_eq!(
            coord.run_copy(&borrow(&sources), None).unwrap(),
            CopyOutcome::Complete
        );
        let grid = global_grid();
        let scaled = Grid2::from_fn(ROWS, COLS, |r, c| grid.as_slice()[r * COLS + c] * -0.5);
        let dest_plan = from_plan.split_band(1).unwrap();
        for band in coord.migrated_bands() {
            for (a, reference) in [&grid, &scaled].into_iter().enumerate() {
                let expect = dest_plan.extract_band(reference, band.dest_band()).unwrap();
                assert_eq!(band.stores()[a].rows(), expect.rows());
                // Bit-exact payload: the copy is byte-for-byte the band.
                let copied: Vec<u64> = (0..expect.rows())
                    .flat_map(|r| (0..COLS).map(move |c| (r, c)))
                    .map(|(r, c)| band.stores()[a].read(r, c).unwrap().to_bits())
                    .collect();
                let want: Vec<u64> = expect.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(copied, want);
            }
            assert_eq!(
                band.stores()[0].rows(),
                dest_plan.bands()[band.dest_band()].rows
            );
            assert_eq!(
                band.row_offset(),
                dest_plan.bands()[band.dest_band()].row_offset
            );
        }
        let report = coord.report();
        assert!(report.bands.iter().all(|b| b.complete && !b.quarantined));
        assert_eq!(report.state, MigrationState::Copying);
    }

    #[test]
    fn transient_faults_heal_through_coordinator_retries() {
        let mut coord = split_coordinator(ReshardPolicy::default());
        let from_plan = ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap();
        let mut sources = source_stores(&from_plan);
        // Shard 1 is the one being split; make one of its pages flaky.
        let store = sources[1].remove(0);
        sources[1].insert(0, store.with_faults(FaultProfile::new().transient(0, 2)));
        coord.begin_copy().unwrap();
        assert_eq!(
            coord.run_copy(&borrow(&sources), None).unwrap(),
            CopyOutcome::Complete
        );
        let report = coord.report();
        let retries: u64 = report.bands.iter().map(|b| b.retries).sum();
        let io: u64 = report.bands.iter().map(|b| b.io_failures).sum();
        assert_eq!(io, 2, "both pre-heal failures observed");
        assert_eq!(retries, 2, "coordinator retried through them");
        assert!(coord.ticks_spent() > 0, "backoff accrues on the ledger");
    }

    #[test]
    fn corruption_quarantines_then_clean_source_retry_succeeds() {
        let policy = ReshardPolicy::default();
        let mut coord = split_coordinator(policy);
        let from_plan = ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap();
        let mut sources = source_stores(&from_plan);
        let store = sources[1].remove(1);
        sources[1].insert(1, store.with_faults(FaultProfile::new().corrupt(0)));
        coord.begin_copy().unwrap();
        let outcome = coord.run_copy(&borrow(&sources), None).unwrap();
        let CopyOutcome::Quarantined(bands) = outcome else {
            panic!("expected quarantine, got {outcome:?}");
        };
        assert!(!bands.is_empty());
        assert!(coord
            .copy_reports()
            .iter()
            .any(|b| b.quarantined && b.checksum_failures > 0));
        assert!(coord.enter_dual_read().is_err());

        // Re-point at a clean replica and lift the quarantine.
        let clean = source_stores(&from_plan);
        coord.clear_copy_quarantine();
        assert_eq!(
            coord.run_copy(&borrow(&clean), None).unwrap(),
            CopyOutcome::Complete
        );
        coord.enter_dual_read().unwrap();
    }

    #[test]
    fn wall_deadline_aborts_and_rolls_back() {
        let policy = ReshardPolicy::default().with_wall_deadline_ticks(3);
        let mut coord = split_coordinator(policy);
        let from_plan = ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap();
        let mut sources = source_stores(&from_plan);
        let mut profile = FaultProfile::new();
        for page in 0..sources[1][0].page_count() {
            profile = profile.latency(page, 50);
        }
        let store = sources[1].remove(0);
        sources[1].insert(0, store.with_faults(profile));
        coord.begin_copy().unwrap();
        assert_eq!(
            coord.run_copy(&borrow(&sources), None).unwrap(),
            CopyOutcome::DeadlineExceeded
        );
        assert_eq!(coord.state(), MigrationState::Aborted);
        assert_eq!(coord.abort_reason(), Some(AbortReason::WallDeadline));
        assert_eq!(coord.active_epoch(), coord.from_epoch());
        assert!(coord.migrated_bands().is_empty(), "partial copies dropped");
        assert!(coord.run_copy(&borrow(&sources), None).is_err());
    }

    #[test]
    fn cancellation_aborts_and_rolls_back() {
        let mut coord = split_coordinator(ReshardPolicy::default());
        let from_plan = ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap();
        let sources = source_stores(&from_plan);
        let cancel = CancelToken::new();
        cancel.cancel();
        coord.begin_copy().unwrap();
        assert_eq!(
            coord.run_copy(&borrow(&sources), Some(&cancel)).unwrap(),
            CopyOutcome::Cancelled
        );
        assert_eq!(coord.state(), MigrationState::Aborted);
        assert_eq!(coord.abort_reason(), Some(AbortReason::Cancelled));
        assert_eq!(coord.active_epoch(), coord.from_epoch());
    }

    struct CountingScrub {
        pages: std::cell::Cell<u64>,
        cleared: std::cell::Cell<bool>,
    }

    impl QuarantineScrub for CountingScrub {
        fn clear_quarantine(&self) {
            self.cleared.set(true);
            self.pages.set(0);
        }
        fn quarantined_pages(&self) -> u64 {
            self.pages.get()
        }
    }

    #[test]
    fn retire_scrubs_retired_sources_and_releases_copies() {
        let mut coord = split_coordinator(ReshardPolicy::default());
        let from_plan = ShardPlan::row_bands(ROWS, COLS, 2, TILE).unwrap();
        let sources = source_stores(&from_plan);
        coord.begin_copy().unwrap();
        coord.run_copy(&borrow(&sources), None).unwrap();
        coord.enter_dual_read().unwrap();
        let groups = coord.dual_read_groups().unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].source_shards, vec![1]);
        assert_eq!(groups[0].dest_shards, vec![0, 1]);
        coord.cut_over().unwrap();
        let scrub = CountingScrub {
            pages: std::cell::Cell::new(3),
            cleared: std::cell::Cell::new(false),
        };
        assert_eq!(coord.retiring_source_bands(), vec![1]);
        let cleared = coord.retire(&[&scrub]).unwrap();
        assert_eq!(cleared, 3);
        assert!(scrub.cleared.get());
        assert_eq!(coord.state(), MigrationState::Retired);
    }
}
