//! Fault profiles, retry policies, and page quarantine for the tile store.
//!
//! The paper's archives live on late-1990s storage hierarchies — tape
//! robots, striped disks, remote mounts — where a page read can fail
//! transiently (a busy drive), permanently (a bad block), or merely run
//! slow. This module models those regimes deterministically so the
//! progressive engines can be exercised, and benchmarked, under loss:
//!
//! * [`FaultProfile`] — a per-page map of [`FaultKind`]s plus injected
//!   latency ticks. Every kind is deterministic, so a given profile
//!   replays identically across runs.
//! * [`RetryPolicy`] — a deterministic tick-based retry schedule with
//!   exponential backoff. Time is virtual: every attempt and every
//!   backoff accrues *ticks* into [`AccessStats`](crate::stats::AccessStats),
//!   which execution budgets read as a deadline clock.
//! * [`ResilienceConfig`] — retry policy plus a per-page circuit breaker:
//!   after `quarantine_after` consecutive failed attempts a page is
//!   quarantined and all later reads fail fast with
//!   [`ArchiveError::PageQuarantined`](crate::error::ArchiveError::PageQuarantined),
//!   without consuming retries or ticks.
//!
//! The default configuration (no faults, no retries, breaker disabled)
//! reproduces the pre-resilience store bit for bit.
//!
//! # Fault interaction matrix
//!
//! A page carries at most **one** [`FaultKind`] (the builder is
//! last-wins: `.corrupt(p).transient(p, 2)` leaves `p` transient, the
//! corruption is *replaced*, not stacked)
//! plus an orthogonal latency. When several mechanisms apply to the same
//! access, precedence is fixed and tested:
//!
//! | combination | behavior |
//! |---|---|
//! | Quarantine × anything | quarantine wins: the access fails fast with no attempt, **no latency ticks**, and no fault-state movement — even on a `Corruption` page. |
//! | Corruption × Latency | the access "succeeds" slow: `AttemptOutcome::Corrupted` carries the page's latency ticks, charged on **every** (re-)read since nothing heals. |
//! | Corruption × breaker | silent at the attempt level — the breaker only advances when a verifying reader feeds detections back through `note_checksum_failure`, which shares the same consecutive-failure run as I/O failures. |
//! | Transient × Latency | failing *and* healed accesses both pay the latency; healing is counted in accesses, not ticks. |
//! | Transient × breaker | heal progress (`failed_accesses`) survives both quarantine and [`clear_quarantine`](crate::tile::TileStore::clear_quarantine); a healed page stays healed after the breaker reopens. |
//! | Permanent × Latency | identical to Transient × Latency: the latency rides on both outcomes. |
//!
//! Read-side kinds model a faulty *device*; [`WriteFault`] models a dying
//! *writer* — the process crashes mid-append and takes all volatile state
//! with it, leaving a possibly-torn byte prefix for
//! [`crate::journal::recover`] to truncate.

use std::collections::HashMap;

/// How a faulty page misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every access fails, forever. Models a bad block or lost shard.
    Permanent,
    /// The first `fails_before_heal` accesses fail, then the page heals
    /// permanently. Models a device that recovers after remount.
    Transient {
        /// Number of failing accesses before the page starts succeeding.
        fails_before_heal: u32,
    },
    /// Every access *succeeds* at the I/O level but delivers a payload
    /// with flipped bits (see
    /// [`corrupt_value`](crate::integrity::corrupt_value)). The store
    /// itself cannot tell — only checksum verification catches it. Models
    /// silent bit rot on an untrusted replica.
    Corruption,
}

/// How an append-journal write dies mid-flight.
///
/// Read faults ([`FaultKind`]) model a device that misbehaves while the
/// process lives; write faults model the *process* dying while bytes are
/// in flight. All three kinds crash the writer: the journal latches a
/// crashed state, the in-memory archive is lost, and only the persisted
/// byte prefix survives for [`crate::journal::recover`] to replay.
/// Frames are numbered from 0 in append order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Frame `frame` persists only its first `persisted_bytes` bytes —
    /// the classic torn write, cut at an arbitrary byte (possibly mid
    /// header, mid value, or mid checksum).
    TornWrite {
        /// 0-based index of the append that tears.
        frame: u64,
        /// Bytes of that frame that reach stable storage.
        persisted_bytes: usize,
    },
    /// Frame `frame` persists its header and the first `tuples` payload
    /// values but never the trailing checksum — a partial record cut at
    /// a tuple boundary, so every persisted byte is individually
    /// plausible.
    PartialRecord {
        /// 0-based index of the append that is cut short.
        frame: u64,
        /// Payload values of that frame that reach stable storage.
        tuples: usize,
    },
    /// The device stops persisting at absolute journal byte `offset`;
    /// whichever append is in flight when the high-water mark is hit
    /// crashes there.
    CrashAtOffset {
        /// Absolute journal offset after which nothing persists.
        offset: usize,
    },
}

#[derive(Debug, Clone, Default)]
struct PageFaultSpec {
    kind: Option<FaultKind>,
    latency_ticks: u64,
}

/// A per-page fault assignment for a [`TileStore`](crate::tile::TileStore).
///
/// Built fluently; pages not mentioned are healthy.
///
/// # Examples
///
/// ```
/// use mbir_archive::fault::FaultProfile;
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::tile::TileStore;
///
/// let profile = FaultProfile::new()
///     .permanent(3)
///     .transient(5, 2)
///     .latency(9, 10);
/// // 8x8 cells in 2x2 tiles: page 3 holds (0, 6), page 9 holds (4, 2).
/// let grid = Grid2::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
/// let store = TileStore::new(grid, 2).unwrap().with_faults(profile);
/// assert!(store.read(0, 6).is_err());
/// assert_eq!(store.read(4, 2).unwrap(), 34.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultProfile {
    specs: HashMap<usize, PageFaultSpec>,
}

impl FaultProfile {
    /// A profile with no faults at all.
    pub fn new() -> Self {
        FaultProfile::default()
    }

    /// Marks `page` as permanently failing.
    pub fn permanent(mut self, page: usize) -> Self {
        self.spec_mut(page).kind = Some(FaultKind::Permanent);
        self
    }

    /// Marks `page` as failing its first `fails_before_heal` accesses and
    /// healthy afterwards.
    pub fn transient(mut self, page: usize, fails_before_heal: u32) -> Self {
        self.spec_mut(page).kind = Some(FaultKind::Transient { fails_before_heal });
        self
    }

    /// Marks `page` as silently corrupted: reads succeed but every payload
    /// value comes back with flipped bits. Only checksum verification
    /// ([`crate::integrity`]) detects it.
    pub fn corrupt(mut self, page: usize) -> Self {
        self.spec_mut(page).kind = Some(FaultKind::Corruption);
        self
    }

    /// Adds `ticks` of injected latency to every access of `page`, on top
    /// of the base per-access cost. Composes with any fault kind; a page
    /// with latency but no kind is slow-but-correct.
    pub fn latency(mut self, page: usize, ticks: u64) -> Self {
        self.spec_mut(page).latency_ticks = ticks;
        self
    }

    /// The fault kind currently assigned to `page`, if any. Because the
    /// builder is last-wins, this is always the *most recent* kind set —
    /// the tests' way to check what a chain of builder calls left behind.
    #[cfg(test)]
    fn kind_of(&self, page: usize) -> Option<FaultKind> {
        self.specs.get(&page).and_then(|s| s.kind)
    }

    /// Injected latency ticks charged on every access of `page` (0 for
    /// unmentioned pages). Latency is orthogonal to the kind and
    /// survives kind replacement.
    #[cfg(test)]
    fn latency_of(&self, page: usize) -> u64 {
        self.specs.get(&page).map_or(0, |s| s.latency_ticks)
    }

    /// Pages with a fault kind assigned (latency-only pages excluded),
    /// sorted ascending.
    #[cfg(test)]
    fn faulty_pages(&self) -> Vec<usize> {
        let mut pages: Vec<usize> = self
            .specs
            .iter()
            .filter(|(_, s)| s.kind.is_some())
            .map(|(&p, _)| p)
            .collect();
        pages.sort_unstable();
        pages
    }

    /// True when no page has a fault kind or injected latency.
    #[cfg(test)]
    fn is_healthy(&self) -> bool {
        self.specs
            .values()
            .all(|s| s.kind.is_none() && s.latency_ticks == 0)
    }

    fn spec_mut(&mut self, page: usize) -> &mut PageFaultSpec {
        self.specs.entry(page).or_default()
    }
}

/// Deterministic retry schedule over virtual ticks.
///
/// Attempt `i` (1-based retry count) backs off for
/// `base_backoff_ticks << (i - 1)` ticks, capped at `max_backoff_ticks`.
/// The default policy performs no retries, matching the pre-resilience
/// store.
///
/// # Examples
///
/// ```
/// use mbir_archive::fault::RetryPolicy;
///
/// let policy = RetryPolicy::retries(3).with_backoff(4, 10);
/// assert_eq!(policy.backoff_ticks(1), 4);
/// assert_eq!(policy.backoff_ticks(2), 8);
/// assert_eq!(policy.backoff_ticks(3), 10); // capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry, in ticks.
    pub base_backoff_ticks: u64,
    /// Upper bound on any single backoff, in ticks.
    pub max_backoff_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
        }
    }

    /// Up to `max_retries` retries with a default 1-tick base backoff
    /// capped at 64 ticks.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff_ticks: 1,
            max_backoff_ticks: 64,
        }
    }

    /// Overrides the backoff schedule (builder style).
    pub fn with_backoff(mut self, base_ticks: u64, max_ticks: u64) -> Self {
        self.base_backoff_ticks = base_ticks;
        self.max_backoff_ticks = max_ticks.max(base_ticks);
        self
    }

    /// Backoff before retry number `retry` (1-based): exponential in the
    /// retry index, saturating, capped at `max_backoff_ticks`. Retry 0
    /// (the initial attempt) has no backoff.
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        if retry == 0 || self.base_backoff_ticks == 0 {
            return 0;
        }
        let shifted = self
            .base_backoff_ticks
            .checked_shl(retry - 1)
            .unwrap_or(u64::MAX);
        shifted.min(self.max_backoff_ticks)
    }
}

/// Retry policy plus circuit breaker: how hard the store fights a fault
/// before giving up on a page.
///
/// The default (`no retries`, breaker disabled) keeps the store's
/// observable behavior identical to the pre-resilience implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceConfig {
    /// Retry schedule applied to every failed page access.
    pub retry: RetryPolicy,
    /// Consecutive failed attempts after which a page is quarantined;
    /// `None` disables the breaker.
    pub quarantine_after: Option<u32>,
}

impl ResilienceConfig {
    /// No retries, breaker disabled — the pre-resilience behavior.
    pub fn none() -> Self {
        ResilienceConfig::default()
    }

    /// A forgiving profile: `retries` retries per read and quarantine
    /// after `quarantine_after` consecutive failures.
    pub fn new(retry: RetryPolicy, quarantine_after: Option<u32>) -> Self {
        if let Some(m) = quarantine_after {
            assert!(m > 0, "quarantine threshold must be positive");
        }
        ResilienceConfig {
            retry,
            quarantine_after,
        }
    }
}

/// Per-page mutable fault state tracked by the runtime.
#[derive(Debug, Clone, Copy, Default)]
struct PageState {
    /// Failing accesses delivered so far (drives transient healing).
    failed_accesses: u32,
    /// Consecutive failed attempts (drives the circuit breaker; reset on
    /// success).
    consecutive_failures: u32,
    /// Breaker has tripped: all further reads fail fast.
    quarantined: bool,
}

/// Outcome of a single low-level access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptOutcome {
    /// The attempt succeeded, costing the given latency ticks.
    Ok {
        /// Injected latency ticks for this access.
        latency_ticks: u64,
    },
    /// The attempt failed, costing the given latency ticks.
    Failed {
        /// Injected latency ticks for this access.
        latency_ticks: u64,
    },
    /// The attempt *appeared* to succeed, but the delivered payload is
    /// silently corrupted. The breaker is not advanced here — the store
    /// has no way to know; detection is the verifying reader's job
    /// ([`note_checksum_failure`](FaultRuntime::note_checksum_failure)).
    Corrupted {
        /// Injected latency ticks for this access.
        latency_ticks: u64,
    },
    /// The page is quarantined; no attempt was made and no ticks accrue.
    Quarantined,
}

/// Mutable runtime evaluating a [`FaultProfile`]: advances transient
/// counters and runs the circuit breaker.
///
/// Owned by the store behind a lock; exposed only within the crate.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    profile: FaultProfile,
    config: ResilienceConfig,
    states: HashMap<usize, PageState>,
}

impl FaultRuntime {
    pub(crate) fn new(profile: FaultProfile, config: ResilienceConfig) -> Self {
        FaultRuntime {
            profile,
            config,
            states: HashMap::new(),
        }
    }

    pub(crate) fn config(&self) -> ResilienceConfig {
        self.config
    }

    pub(crate) fn set_config(&mut self, config: ResilienceConfig) {
        self.config = config;
    }

    pub(crate) fn add_permanent(&mut self, page: usize) {
        self.profile.spec_mut(page).kind = Some(FaultKind::Permanent);
    }

    pub(crate) fn is_quarantined(&self, page: usize) -> bool {
        self.states.get(&page).is_some_and(|s| s.quarantined)
    }

    pub(crate) fn quarantined_pages(&self) -> Vec<usize> {
        let mut pages: Vec<usize> = self
            .states
            .iter()
            .filter(|(_, s)| s.quarantined)
            .map(|(&p, _)| p)
            .collect();
        pages.sort_unstable();
        pages
    }

    /// Evaluates one access attempt against the profile, updating
    /// transient counters and the circuit breaker. Returns whether the
    /// attempt succeeded and how many injected latency ticks it cost.
    ///
    /// Precedence (see the module-level interaction matrix): quarantine
    /// wins over everything and costs no ticks; corruption comes next and
    /// "succeeds" with latency but without touching transient or breaker
    /// state; the failing kinds are evaluated last, with latency riding
    /// on both outcomes.
    pub(crate) fn attempt(&mut self, page: usize) -> AttemptOutcome {
        if self.is_quarantined(page) {
            return AttemptOutcome::Quarantined;
        }
        let spec = self.profile.specs.get(&page).cloned().unwrap_or_default();
        if spec.kind == Some(FaultKind::Corruption) {
            // Silent at the I/O level: neither the transient counter nor
            // the breaker advances. Consecutive checksum failures are fed
            // back through `note_checksum_failure` by verifying readers.
            return AttemptOutcome::Corrupted {
                latency_ticks: spec.latency_ticks,
            };
        }
        let state = self.states.entry(page).or_default();
        let fails = match spec.kind {
            // Corruption returned above; the arm is kept only for match
            // exhaustiveness and is unreachable.
            None | Some(FaultKind::Corruption) => false,
            Some(FaultKind::Permanent) => true,
            Some(FaultKind::Transient { fails_before_heal }) => {
                state.failed_accesses < fails_before_heal
            }
        };
        let state = self.states.entry(page).or_default();
        if fails {
            state.failed_accesses += 1;
            state.consecutive_failures += 1;
            if let Some(m) = self.config.quarantine_after {
                if state.consecutive_failures >= m {
                    state.quarantined = true;
                }
            }
            AttemptOutcome::Failed {
                latency_ticks: spec.latency_ticks,
            }
        } else {
            state.consecutive_failures = 0;
            AttemptOutcome::Ok {
                latency_ticks: spec.latency_ticks,
            }
        }
    }

    /// Feeds one detected checksum failure into the circuit breaker.
    ///
    /// Called by verifying readers after an access came back
    /// [`Corrupted`](AttemptOutcome::Corrupted) (the attempt itself could
    /// not know). Counts toward the same consecutive-failure run as I/O
    /// failures. Returns `true` when this failure *newly* quarantined the
    /// page.
    pub(crate) fn note_checksum_failure(&mut self, page: usize) -> bool {
        let state = self.states.entry(page).or_default();
        if state.quarantined {
            return false;
        }
        state.failed_accesses += 1;
        state.consecutive_failures += 1;
        if let Some(m) = self.config.quarantine_after {
            if state.consecutive_failures >= m {
                state.quarantined = true;
                return true;
            }
        }
        false
    }

    /// Lifts every quarantine and resets consecutive-failure runs, so the
    /// next access re-attempts (and re-verifies) the page. Transient heal
    /// progress (`failed_accesses`) is preserved: a healed page stays
    /// healed.
    pub(crate) fn clear_quarantine(&mut self) {
        for state in self.states.values_mut() {
            state.quarantined = false;
            state.consecutive_failures = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_builder_collects_faults() {
        let p = FaultProfile::new()
            .permanent(2)
            .transient(9, 3)
            .corrupt(4)
            .latency(2, 7)
            .latency(11, 5);
        assert_eq!(p.faulty_pages(), vec![2, 4, 9]);
        assert!(!p.is_healthy());
        assert!(FaultProfile::new().is_healthy());
        // Latency-only pages are not "faulty" but make the profile unhealthy.
        assert!(!FaultProfile::new().latency(1, 1).is_healthy());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::retries(5).with_backoff(2, 16);
        assert_eq!(p.backoff_ticks(0), 0);
        assert_eq!(p.backoff_ticks(1), 2);
        assert_eq!(p.backoff_ticks(2), 4);
        assert_eq!(p.backoff_ticks(3), 8);
        assert_eq!(p.backoff_ticks(4), 16);
        assert_eq!(p.backoff_ticks(5), 16);
        assert_eq!(RetryPolicy::none().backoff_ticks(3), 0);
    }

    #[test]
    fn backoff_shift_saturates() {
        let p = RetryPolicy::retries(80).with_backoff(1, u64::MAX);
        assert_eq!(p.backoff_ticks(60), 1u64 << 59);
        // Shift count beyond the word size saturates at the cap instead of
        // wrapping.
        assert_eq!(p.backoff_ticks(80), u64::MAX);
    }

    #[test]
    fn transient_fault_heals_after_n_accesses() {
        let profile = FaultProfile::new().transient(3, 2);
        let mut rt = FaultRuntime::new(profile, ResilienceConfig::none());
        assert!(matches!(rt.attempt(3), AttemptOutcome::Failed { .. }));
        assert!(matches!(rt.attempt(3), AttemptOutcome::Failed { .. }));
        assert!(matches!(rt.attempt(3), AttemptOutcome::Ok { .. }));
        assert!(matches!(rt.attempt(3), AttemptOutcome::Ok { .. }));
        // Healthy pages never fail.
        assert!(matches!(rt.attempt(0), AttemptOutcome::Ok { .. }));
    }

    #[test]
    fn breaker_trips_after_threshold_and_resets_on_success() {
        let profile = FaultProfile::new().transient(1, 2).permanent(2);
        let cfg = ResilienceConfig::new(RetryPolicy::none(), Some(3));
        let mut rt = FaultRuntime::new(profile, cfg);
        // Transient heals before the breaker trips; success resets the run.
        assert!(matches!(rt.attempt(1), AttemptOutcome::Failed { .. }));
        assert!(matches!(rt.attempt(1), AttemptOutcome::Failed { .. }));
        assert!(matches!(rt.attempt(1), AttemptOutcome::Ok { .. }));
        assert!(!rt.is_quarantined(1));
        // Permanent fault trips it on the third consecutive failure.
        assert!(matches!(rt.attempt(2), AttemptOutcome::Failed { .. }));
        assert!(matches!(rt.attempt(2), AttemptOutcome::Failed { .. }));
        assert!(!rt.is_quarantined(2));
        assert!(matches!(rt.attempt(2), AttemptOutcome::Failed { .. }));
        assert!(rt.is_quarantined(2));
        assert!(matches!(rt.attempt(2), AttemptOutcome::Quarantined));
        assert_eq!(rt.quarantined_pages(), vec![2]);
    }

    #[test]
    fn corruption_is_silent_at_the_attempt_level() {
        let profile = FaultProfile::new().corrupt(4).latency(4, 6);
        let cfg = ResilienceConfig::new(RetryPolicy::none(), Some(1));
        let mut rt = FaultRuntime::new(profile, cfg);
        // Corrupted attempts never advance the breaker, no matter how many.
        for _ in 0..5 {
            assert_eq!(
                rt.attempt(4),
                AttemptOutcome::Corrupted { latency_ticks: 6 }
            );
        }
        assert!(!rt.is_quarantined(4));
    }

    #[test]
    fn checksum_failures_trip_the_breaker() {
        let profile = FaultProfile::new().corrupt(4);
        let cfg = ResilienceConfig::new(RetryPolicy::none(), Some(3));
        let mut rt = FaultRuntime::new(profile, cfg);
        assert!(!rt.note_checksum_failure(4));
        assert!(!rt.note_checksum_failure(4));
        // Third consecutive detected corruption newly quarantines the page…
        assert!(rt.note_checksum_failure(4));
        assert!(rt.is_quarantined(4));
        // …and further reports are not "new".
        assert!(!rt.note_checksum_failure(4));
        assert_eq!(rt.attempt(4), AttemptOutcome::Quarantined);
    }

    #[test]
    fn clear_quarantine_reopens_pages_but_keeps_heal_progress() {
        let profile = FaultProfile::new().permanent(1).transient(2, 2);
        let cfg = ResilienceConfig::new(RetryPolicy::none(), Some(2));
        let mut rt = FaultRuntime::new(profile, cfg);
        // Trip both breakers (the transient page fails twice before healing).
        for _ in 0..2 {
            let _ = rt.attempt(1);
            let _ = rt.attempt(2);
        }
        assert_eq!(rt.quarantined_pages(), vec![1, 2]);
        rt.clear_quarantine();
        assert_eq!(rt.quarantined_pages(), Vec::<usize>::new());
        // The permanent page is re-attempted (and fails again for real);
        // the transient page already burned its failures and now succeeds.
        assert!(matches!(rt.attempt(1), AttemptOutcome::Failed { .. }));
        assert!(matches!(rt.attempt(2), AttemptOutcome::Ok { .. }));
    }

    #[test]
    fn latency_applies_to_successes_too() {
        let profile = FaultProfile::new().latency(5, 9);
        let mut rt = FaultRuntime::new(profile, ResilienceConfig::none());
        assert_eq!(rt.attempt(5), AttemptOutcome::Ok { latency_ticks: 9 });
        assert_eq!(rt.attempt(6), AttemptOutcome::Ok { latency_ticks: 0 });
    }

    // ---- interaction matrix (Corruption × Latency × Transient) ----

    #[test]
    fn builder_kind_is_last_wins_and_latency_survives() {
        let p = FaultProfile::new().corrupt(3).latency(3, 5).transient(3, 2);
        // The corruption was *replaced* by the transient kind, not stacked…
        assert_eq!(
            p.kind_of(3),
            Some(FaultKind::Transient {
                fails_before_heal: 2
            })
        );
        // …while the orthogonal latency survived the replacement.
        assert_eq!(p.latency_of(3), 5);
        assert_eq!(p.kind_of(0), None);
        assert_eq!(p.latency_of(0), 0);
    }

    #[test]
    fn transient_with_latency_charges_failures_and_heals_alike() {
        let profile = FaultProfile::new().transient(2, 2).latency(2, 7);
        let mut rt = FaultRuntime::new(profile, ResilienceConfig::none());
        // Failing accesses pay the latency…
        assert_eq!(rt.attempt(2), AttemptOutcome::Failed { latency_ticks: 7 });
        assert_eq!(rt.attempt(2), AttemptOutcome::Failed { latency_ticks: 7 });
        // …and so does the healed page: latency is a device property, not
        // a failure property.
        assert_eq!(rt.attempt(2), AttemptOutcome::Ok { latency_ticks: 7 });
    }

    #[test]
    fn quarantine_beats_corruption_and_costs_no_ticks() {
        let profile = FaultProfile::new().corrupt(4).latency(4, 9);
        let cfg = ResilienceConfig::new(RetryPolicy::none(), Some(2));
        let mut rt = FaultRuntime::new(profile, cfg);
        // Two detected corruptions trip the breaker…
        assert!(!rt.note_checksum_failure(4));
        assert!(rt.note_checksum_failure(4));
        // …after which even the slow corrupt page fails fast, latency-free.
        assert_eq!(rt.attempt(4), AttemptOutcome::Quarantined);
        // Reopening the page re-exposes the corruption (with its latency):
        // clearing quarantine never silently "heals" bit rot.
        rt.clear_quarantine();
        assert_eq!(
            rt.attempt(4),
            AttemptOutcome::Corrupted { latency_ticks: 9 }
        );
    }

    #[test]
    fn corruption_never_advances_transient_style_heal_state() {
        // A corrupt page re-corrupts forever: unlike Transient, repeated
        // accesses do not burn toward a heal, and the runtime tracks no
        // failed accesses for it at the attempt level.
        let profile = FaultProfile::new().corrupt(1);
        let mut rt =
            FaultRuntime::new(profile, ResilienceConfig::new(RetryPolicy::none(), Some(8)));
        for _ in 0..16 {
            assert!(matches!(rt.attempt(1), AttemptOutcome::Corrupted { .. }));
        }
        assert!(
            !rt.is_quarantined(1),
            "attempts alone never trip the breaker"
        );
    }
}
