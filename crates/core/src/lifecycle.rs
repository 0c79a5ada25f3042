//! Query lifecycle management: cooperative cancellation, admission
//! control, and load shedding.
//!
//! The budget machinery (DESIGN.md §8) bounds how much work a single
//! query may do; this module bounds how much work the *system* accepts
//! in the first place, and lets callers abandon queries that are already
//! running. Three pieces compose:
//!
//! - [`CancelToken`] — a latching atomic flag threaded through the
//!   sequential and parallel resilient engines exactly like the budget's
//!   wall-deadline latch. Engines poll it at page granularity;
//!   cancellation surfaces as
//!   [`BudgetStop::Cancelled`](crate::resilient::BudgetStop) with the
//!   same sound-bounds degradation contract as every other early stop.
//! - [`AdmissionController`] — a bounded in-flight slot table with one
//!   FIFO queue per [`Priority`] class. Admission always drains the
//!   highest class first, so interactive traffic cannot be starved by a
//!   batch backlog.
//! - Load shedding — when the queue depth or the predicted queue wait
//!   (on the simulated tick clock) exceeds policy, [`Priority::BestEffort`]
//!   submissions are rejected up front with a typed [`Overloaded`] error
//!   instead of timing out downstream after consuming engine work.
//!
//! Every session walks the state machine
//! `Queued → Admitted → Running → {Done, Cancelled}`, or is `Shed` at the
//! door (see [`LifecycleState`]). The controller is deterministic: it
//! never reads a clock itself — callers pass the simulated tick time
//! explicitly — so harness runs replay bit-identically.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A shared, latching cancellation flag polled at engine checkpoints.
///
/// Cloning yields a handle to the *same* flag: the caller keeps one clone
/// and hands another to the engine (or stores it in an
/// [`AdmissionController`] session). Cancellation latches — once
/// [`cancel`](CancelToken::cancel) runs, every later
/// [`is_cancelled`](CancelToken::is_cancelled) on any thread reports
/// `true` — mirroring the budget's wall-deadline latch, so all parallel
/// workers stop at their next checkpoint.
///
/// # Examples
///
/// ```
/// use mbir_core::lifecycle::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Latches the token cancelled. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been cancelled (latching).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Scheduling class of a query session. Admission drains classes in
/// declared order; only [`Priority::BestEffort`] is ever load-shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// A human is waiting: admitted first, never shed.
    Interactive,
    /// Throughput work (index builds, sweeps): admitted after
    /// interactive, never shed.
    Batch,
    /// Opportunistic work: admitted last and rejected up front with
    /// [`Overloaded`] when the system is saturated.
    BestEffort,
}

impl Priority {
    /// All classes in admission order (highest first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// Stable array index of this class: its position in [`Priority::ALL`].
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::BestEffort => "best-effort",
        })
    }
}

/// Where a session is in the lifecycle state machine
/// `Queued → Admitted → Running → {Done, Cancelled}` (shed sessions never
/// enter the machine; see [`AdmissionController::submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleState {
    /// Waiting in its priority queue for a slot.
    Queued,
    /// Holds an in-flight slot; the engine has not started yet.
    Admitted,
    /// The engine is executing (its [`CancelToken`] is live).
    Running,
    /// Completed and released its slot.
    Done,
    /// Cancelled — while queued, or mid-flight via its token.
    Cancelled,
}

/// The typed fail-fast rejection returned when a best-effort submission
/// is load-shed. Carries enough context to log or retry later without
/// querying the controller again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overloaded {
    /// Class of the rejected submission.
    pub priority: Priority,
    /// Total queued sessions (all classes) at rejection time.
    pub queue_depth: usize,
    /// Predicted queue wait in simulated ticks at rejection time.
    pub predicted_wait_ticks: u64,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overloaded: {} submission shed (queue depth {}, predicted wait {} ticks)",
            self.priority, self.queue_depth, self.predicted_wait_ticks
        )
    }
}

impl Error for Overloaded {}

/// Admission and shedding policy. All thresholds are inclusive caps; a
/// submission or admission that would exceed one is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Bounded slot table: how many sessions may hold a slot (Admitted or
    /// Running) at once.
    pub max_in_flight: usize,
    /// Best-effort submissions are shed once this many sessions are
    /// queued across all classes.
    pub max_queue_depth: usize,
    /// Best-effort submissions are shed once the predicted queue wait
    /// exceeds this many simulated ticks.
    pub max_queued_ticks: u64,
    /// Expected per-query cost in simulated ticks, used to predict queue
    /// wait (`ceil(backlog / max_in_flight) * expected`).
    pub expected_ticks_per_query: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_in_flight: 4,
            max_queue_depth: 16,
            max_queued_ticks: 1024,
            expected_ticks_per_query: 64,
        }
    }
}

impl AdmissionPolicy {
    /// Sets the in-flight slot count (builder style; clamped to ≥ 1).
    pub fn with_max_in_flight(mut self, slots: usize) -> Self {
        self.max_in_flight = slots.max(1);
        self
    }

    /// Sets the shed threshold on total queue depth (builder style).
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Sets the shed threshold on predicted queue wait (builder style).
    pub fn with_max_queued_ticks(mut self, ticks: u64) -> Self {
        self.max_queued_ticks = ticks;
        self
    }

    /// Sets the expected per-query tick cost (builder style).
    pub fn with_expected_ticks_per_query(mut self, ticks: u64) -> Self {
        self.expected_ticks_per_query = ticks;
        self
    }
}

/// Opaque handle to a session inside one [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

/// Per-priority lifecycle counters (see [`AdmissionController::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Sessions offered to [`AdmissionController::submit`], including
    /// shed ones.
    pub submitted: u64,
    /// Sessions rejected up front with [`Overloaded`].
    pub shed: u64,
    /// Sessions cancelled while queued or running.
    pub cancelled: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
}

#[derive(Debug)]
struct Session {
    priority: Priority,
    state: LifecycleState,
    token: CancelToken,
    queued_at: u64,
    admitted_at: Option<u64>,
    finished_at: Option<u64>,
}

/// Everything a caller may want to know about one session, snapshotted
/// under the controller lock.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Scheduling class.
    pub priority: Priority,
    /// Current lifecycle state.
    pub state: LifecycleState,
    /// Tick time the session was submitted.
    pub queued_at: u64,
    /// Tick time it was admitted to a slot, if it has been.
    pub admitted_at: Option<u64>,
    /// Tick time it finished (done or cancelled), if it has.
    pub finished_at: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    sessions: Vec<Session>,
    queues: [VecDeque<usize>; 3],
    in_flight: usize,
    counters: [ClassCounters; 3],
}

/// A bounded in-flight slot table with per-priority queues and
/// best-effort load shedding.
///
/// The controller is a pure scheduler: it never runs queries itself.
/// Callers [`submit`](AdmissionController::submit) sessions,
/// [`try_admit`](AdmissionController::try_admit) them into slots,
/// [`begin`](AdmissionController::begin) to obtain the session's
/// [`CancelToken`] for the engine call, and
/// [`complete`](AdmissionController::complete) (or
/// [`cancel`](AdmissionController::cancel)) to release the slot.
///
/// Determinism: no method reads a clock; the caller passes the simulated
/// tick time (`now_ticks`) explicitly, so a harness driving the
/// controller off the archive's virtual I/O clock replays bit-identically.
///
/// # Examples
///
/// ```
/// use mbir_core::lifecycle::{AdmissionController, AdmissionPolicy, Priority};
///
/// let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(1));
/// let id = ctl.submit(Priority::Interactive, 0).expect("never shed");
/// let admitted = ctl.try_admit(0).expect("slot free");
/// assert_eq!(admitted, id);
/// let token = ctl.begin(id);
/// assert!(!token.is_cancelled());
/// ctl.complete(id, 10);
/// assert_eq!(ctl.counters(Priority::Interactive).completed, 1);
/// ```
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    inner: Mutex<Inner>,
}

impl AdmissionController {
    /// Creates an empty controller under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController {
            policy,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The policy this controller enforces.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Offers a session for admission at tick time `now_ticks`.
    ///
    /// Interactive and batch submissions always enqueue. Best-effort
    /// submissions are load-shed — rejected with [`Overloaded`] before
    /// consuming any engine work — when either shedding trigger fires:
    /// the total queue depth has reached `max_queue_depth`, or the
    /// predicted queue wait (`ceil(backlog / max_in_flight) *
    /// expected_ticks_per_query`, where backlog counts queued and
    /// in-flight sessions) exceeds `max_queued_ticks`.
    ///
    /// # Errors
    ///
    /// Returns [`Overloaded`] for a shed best-effort submission.
    pub fn submit(&self, priority: Priority, now_ticks: u64) -> Result<SessionId, Overloaded> {
        let mut inner = self.inner.lock().expect("admission lock");
        let depth: usize = inner.queues.iter().map(VecDeque::len).sum();
        let backlog = depth + inner.in_flight;
        let waves = backlog.div_ceil(self.policy.max_in_flight) as u64;
        let predicted_wait = waves * self.policy.expected_ticks_per_query;
        inner.counters[priority.index()].submitted += 1;
        if priority == Priority::BestEffort
            && (depth >= self.policy.max_queue_depth
                || predicted_wait > self.policy.max_queued_ticks)
        {
            inner.counters[priority.index()].shed += 1;
            return Err(Overloaded {
                priority,
                queue_depth: depth,
                predicted_wait_ticks: predicted_wait,
            });
        }
        let slot = inner.sessions.len();
        inner.sessions.push(Session {
            priority,
            state: LifecycleState::Queued,
            token: CancelToken::new(),
            queued_at: now_ticks,
            admitted_at: None,
            finished_at: None,
        });
        inner.queues[priority.index()].push_back(slot);
        Ok(SessionId(slot as u64))
    }

    /// Admits the highest-priority queued session into a free slot, or
    /// returns `None` when the slot table is full or every queue is
    /// empty. Within a class, admission is FIFO.
    pub fn try_admit(&self, now_ticks: u64) -> Option<SessionId> {
        let mut inner = self.inner.lock().expect("admission lock");
        if inner.in_flight >= self.policy.max_in_flight {
            return None;
        }
        for q in 0..inner.queues.len() {
            if let Some(slot) = inner.queues[q].pop_front() {
                inner.in_flight += 1;
                let session = &mut inner.sessions[slot];
                session.state = LifecycleState::Admitted;
                session.admitted_at = Some(now_ticks);
                return Some(SessionId(slot as u64));
            }
        }
        None
    }

    /// Marks an admitted session running and returns a clone of its
    /// [`CancelToken`] to thread into the engine call.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the `Admitted` state (a scheduler-usage
    /// bug, not a load condition).
    pub fn begin(&self, id: SessionId) -> CancelToken {
        let mut inner = self.inner.lock().expect("admission lock");
        let session = &mut inner.sessions[id.0 as usize];
        assert_eq!(
            session.state,
            LifecycleState::Admitted,
            "begin() requires an admitted session"
        );
        session.state = LifecycleState::Running;
        session.token.clone()
    }

    /// Marks a running session done and releases its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the `Running` state.
    pub fn complete(&self, id: SessionId, now_ticks: u64) {
        let mut inner = self.inner.lock().expect("admission lock");
        let session = &mut inner.sessions[id.0 as usize];
        assert_eq!(
            session.state,
            LifecycleState::Running,
            "complete() requires a running session"
        );
        session.state = LifecycleState::Done;
        session.finished_at = Some(now_ticks);
        let priority = session.priority;
        inner.in_flight -= 1;
        inner.counters[priority.index()].completed += 1;
    }

    /// Cancels a session: removes it from its queue if still queued (the
    /// ledger moves it to `cancelled`, never `completed`), releases its
    /// slot if it held one, and latches its token. Idempotent on finished
    /// sessions — cancelling a `Done` or already-`Cancelled` session is a
    /// no-op that leaves its token and counters untouched.
    pub fn cancel(&self, id: SessionId, now_ticks: u64) {
        let mut inner = self.inner.lock().expect("admission lock");
        let slot = id.0 as usize;
        let session = &inner.sessions[slot];
        let priority = session.priority;
        match session.state {
            LifecycleState::Queued => {
                inner.queues[priority.index()].retain(|&s| s != slot);
            }
            LifecycleState::Admitted | LifecycleState::Running => {
                inner.in_flight -= 1;
            }
            LifecycleState::Done | LifecycleState::Cancelled => return,
        }
        let session = &mut inner.sessions[slot];
        session.token.cancel();
        session.state = LifecycleState::Cancelled;
        session.finished_at = Some(now_ticks);
        inner.counters[priority.index()].cancelled += 1;
    }

    /// Snapshot of one session's lifecycle, or `None` for an unknown id.
    pub fn session(&self, id: SessionId) -> Option<SessionInfo> {
        let inner = self.inner.lock().expect("admission lock");
        inner.sessions.get(id.0 as usize).map(|s| SessionInfo {
            priority: s.priority,
            state: s.state,
            queued_at: s.queued_at,
            admitted_at: s.admitted_at,
            finished_at: s.finished_at,
        })
    }

    /// Current lifecycle state of a session, or `None` for an unknown id.
    pub fn state(&self, id: SessionId) -> Option<LifecycleState> {
        self.session(id).map(|s| s.state)
    }

    /// Sessions currently holding slots (Admitted or Running).
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.inner.lock().expect("admission lock").in_flight
    }

    /// Sessions currently queued across all classes.
    pub fn queue_depth(&self) -> usize {
        let inner = self.inner.lock().expect("admission lock");
        inner.queues.iter().map(VecDeque::len).sum()
    }

    /// Lifecycle counters for one priority class.
    pub fn counters(&self, priority: Priority) -> ClassCounters {
        let inner = self.inner.lock().expect("admission lock");
        inner.counters[priority.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_latches_and_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        clone.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn admission_is_priority_ordered_and_fifo_within_class() {
        let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(8));
        let b1 = ctl.submit(Priority::Batch, 0).unwrap();
        let e1 = ctl.submit(Priority::BestEffort, 0).unwrap();
        let i1 = ctl.submit(Priority::Interactive, 0).unwrap();
        let i2 = ctl.submit(Priority::Interactive, 0).unwrap();
        assert_eq!(ctl.queue_depth(), 4);
        assert_eq!(ctl.try_admit(1), Some(i1));
        assert_eq!(ctl.try_admit(1), Some(i2));
        assert_eq!(ctl.try_admit(1), Some(b1));
        assert_eq!(ctl.try_admit(1), Some(e1));
        assert_eq!(ctl.try_admit(1), None);
        assert_eq!(ctl.in_flight(), 4);
    }

    #[test]
    fn slot_table_is_bounded() {
        let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(2));
        let a = ctl.submit(Priority::Interactive, 0).unwrap();
        let _b = ctl.submit(Priority::Interactive, 0).unwrap();
        let _c = ctl.submit(Priority::Interactive, 0).unwrap();
        assert!(ctl.try_admit(0).is_some());
        assert!(ctl.try_admit(0).is_some());
        assert_eq!(ctl.try_admit(0), None, "slot table full");
        let token = ctl.begin(a);
        assert!(!token.is_cancelled());
        ctl.complete(a, 5);
        assert!(ctl.try_admit(5).is_some(), "slot released");
        assert_eq!(ctl.state(a), Some(LifecycleState::Done));
    }

    #[test]
    fn best_effort_is_shed_on_queue_depth() {
        let policy = AdmissionPolicy::default()
            .with_max_in_flight(1)
            .with_max_queue_depth(2)
            .with_max_queued_ticks(u64::MAX)
            .with_expected_ticks_per_query(1);
        let ctl = AdmissionController::new(policy);
        ctl.submit(Priority::Batch, 0).unwrap();
        ctl.submit(Priority::Batch, 0).unwrap();
        let err = ctl.submit(Priority::BestEffort, 0).unwrap_err();
        assert_eq!(err.priority, Priority::BestEffort);
        assert_eq!(err.queue_depth, 2);
        assert_eq!(ctl.counters(Priority::BestEffort).shed, 1);
        // Interactive and batch are never shed.
        ctl.submit(Priority::Interactive, 0).unwrap();
        ctl.submit(Priority::Batch, 0).unwrap();
    }

    #[test]
    fn best_effort_is_shed_on_predicted_wait() {
        let policy = AdmissionPolicy::default()
            .with_max_in_flight(1)
            .with_max_queue_depth(usize::MAX)
            .with_max_queued_ticks(100)
            .with_expected_ticks_per_query(60);
        let ctl = AdmissionController::new(policy);
        // Empty system: predicted wait 0, admitted.
        let ok = ctl.submit(Priority::BestEffort, 0).unwrap();
        assert_eq!(ctl.state(ok), Some(LifecycleState::Queued));
        // One queued session → backlog 1 → one wave of 60 ticks ≤ 100: ok.
        ctl.submit(Priority::BestEffort, 0).unwrap();
        // Backlog 2 → 2 waves × 60 = 120 > 100: shed.
        let err = ctl.submit(Priority::BestEffort, 0).unwrap_err();
        assert_eq!(err.predicted_wait_ticks, 120);
        assert_eq!(ctl.counters(Priority::BestEffort).shed, 1);
        assert_eq!(ctl.counters(Priority::BestEffort).submitted, 3);
    }

    #[test]
    fn cancel_while_queued_removes_from_queue() {
        let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(1));
        let a = ctl.submit(Priority::Interactive, 0).unwrap();
        let b = ctl.submit(Priority::Interactive, 0).unwrap();
        ctl.cancel(a, 1);
        assert_eq!(ctl.state(a), Some(LifecycleState::Cancelled));
        assert_eq!(ctl.try_admit(2), Some(b), "cancelled session skipped");
        assert_eq!(ctl.counters(Priority::Interactive).cancelled, 1);
    }

    #[test]
    fn cancel_while_queued_lands_in_the_cancelled_ledger_column() {
        // Regression: a queued entry cancelled before admission must be
        // accounted as `cancelled`, never `completed`, and the per-class
        // ledger must still close (submitted = shed + cancelled +
        // completed + still-live).
        let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(1));
        let queued = ctl.submit(Priority::Interactive, 0).unwrap();
        let runs = ctl.submit(Priority::Interactive, 0).unwrap();
        ctl.cancel(queued, 1);
        let c = ctl.counters(Priority::Interactive);
        assert_eq!(c.cancelled, 1, "queued cancel must count as cancelled");
        assert_eq!(c.completed, 0, "queued cancel must not count as completed");
        assert_eq!(ctl.try_admit(2), Some(runs));
        ctl.begin(runs);
        ctl.complete(runs, 3);
        let c = ctl.counters(Priority::Interactive);
        assert_eq!(c.submitted, 2);
        assert_eq!(c.shed + c.cancelled + c.completed, 2, "ledger closes");
        // A cancelled-while-queued session can never be admitted later.
        assert_eq!(ctl.try_admit(4), None);
        assert_eq!(ctl.state(queued), Some(LifecycleState::Cancelled));
    }

    #[test]
    fn cancelling_a_finished_session_leaves_its_token_untouched() {
        // Idempotence, PR-5 hedging style: the loser of a cancel/complete
        // race leaves no state. Cancelling after completion must not
        // latch the (possibly still shared) token or touch the ledger.
        let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(1));
        let a = ctl.submit(Priority::Batch, 0).unwrap();
        assert_eq!(ctl.try_admit(0), Some(a));
        let token = ctl.begin(a);
        ctl.complete(a, 2);
        ctl.cancel(a, 3);
        assert!(
            !token.is_cancelled(),
            "cancel after completion must not latch the token"
        );
        assert_eq!(ctl.state(a), Some(LifecycleState::Done));
        let c = ctl.counters(Priority::Batch);
        assert_eq!((c.completed, c.cancelled), (1, 0));
    }

    #[test]
    fn cancel_while_running_latches_token_and_frees_slot() {
        let ctl = AdmissionController::new(AdmissionPolicy::default().with_max_in_flight(1));
        let a = ctl.submit(Priority::Batch, 0).unwrap();
        let b = ctl.submit(Priority::Batch, 0).unwrap();
        assert_eq!(ctl.try_admit(0), Some(a));
        let token = ctl.begin(a);
        ctl.cancel(a, 3);
        assert!(token.is_cancelled(), "engine-side clone observes cancel");
        assert_eq!(ctl.state(a), Some(LifecycleState::Cancelled));
        assert_eq!(ctl.try_admit(3), Some(b), "slot released by cancel");
        ctl.cancel(a, 4); // idempotent on finished sessions
        assert_eq!(ctl.counters(Priority::Batch).cancelled, 1);
    }

    #[test]
    fn session_info_records_tick_times() {
        let ctl = AdmissionController::new(AdmissionPolicy::default());
        let a = ctl.submit(Priority::Interactive, 10).unwrap();
        assert_eq!(ctl.try_admit(25), Some(a));
        ctl.begin(a);
        ctl.complete(a, 40);
        let info = ctl.session(a).unwrap();
        assert_eq!(info.queued_at, 10);
        assert_eq!(info.admitted_at, Some(25));
        assert_eq!(info.finished_at, Some(40));
        assert_eq!(info.state, LifecycleState::Done);
    }

    #[test]
    fn overloaded_formats_and_is_an_error() {
        let err = Overloaded {
            priority: Priority::BestEffort,
            queue_depth: 9,
            predicted_wait_ticks: 512,
        };
        let msg = err.to_string();
        assert!(msg.contains("best-effort"), "{msg}");
        assert!(msg.contains("queue depth 9"), "{msg}");
        let _: &dyn Error = &err;
    }
}
