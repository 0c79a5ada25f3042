//! The worker pool and the shared-bound primitive every parallel engine is
//! built on.
//!
//! [`WorkerPool::run`] executes one closure per task and returns their
//! results in task order. Engines partition their work *before* calling
//! `run`, so the only synchronization the hot loops need is the lock-free
//! [`SharedBound`] (and plain atomic counters for effort/budget
//! accounting).
//!
//! The threads persist. One process-wide set of workers, spawned lazily
//! (as many as the widest pool asked for, less one), parks on a condvar.
//! A call publishes one job; its tasks are claimed through an atomic index
//! by at most `threads − 1` workers *plus the calling thread*, which helps
//! run its own job. So a nested or concurrent `run` always makes progress,
//! and at most `threads` tasks of one call run at once. A completion latch
//! makes `run` return only after every task of the call has returned; a
//! task's panic is caught and re-raised from `run` after the latch.
//! Because the workers outlive the call, each keeps its thread-local batch
//! scratch warm from one call to the next. A call that no worker could
//! help (one task, or a pool of one) runs its tasks inline, in order, on
//! the calling thread. DESIGN.md §9 gives the lifetime argument for the
//! one `unsafe` block, in `help`.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding [`WorkerPool::with_default_parallelism`];
/// CI sets it so the parallel paths run multi-threaded deterministically.
pub const THREADS_ENV: &str = "MBIR_TEST_THREADS";

/// A handle on the process-wide workers that runs at most `threads` tasks
/// of one call at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized from the environment: the `MBIR_TEST_THREADS` variable
    /// when set and parseable, otherwise
    /// [`std::thread::available_parallelism`].
    pub fn with_default_parallelism() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        WorkerPool::new(threads)
    }

    /// The number of tasks of one call this pool runs at once, the calling
    /// thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one closure per task, returning results in task order. Each
    /// closure receives its task index. The calling thread runs tasks too,
    /// beside at most `threads() − 1` pool workers; with a single task or
    /// a one-thread pool every task runs inline, in order.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed task that panicked, once
    /// every other task of the call has returned.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        let helpers = (self.threads - 1).min(tasks.len().saturating_sub(1));
        if helpers == 0 {
            return tasks.into_iter().enumerate().map(|(i, f)| f(i)).collect();
        }
        let slots: Vec<Mutex<Slot<F, T>>> = tasks
            .into_iter()
            .map(|f| Mutex::new(Slot::Ready(f)))
            .collect();
        let body = |i: usize| {
            let Slot::Ready(task) = std::mem::replace(&mut *lock(&slots[i]), Slot::Taken) else {
                unreachable!("task {i} claimed twice");
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(i)));
            *lock(&slots[i]) = Slot::Done(outcome);
        };
        let job = Arc::new(Job::new(&body, slots.len()));
        publish(&job, helpers);
        (job.help)(&job);
        withdraw(&job);
        job.wait();
        slots
            .into_iter()
            .map(
                |slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    Slot::Done(Ok(value)) => value,
                    Slot::Done(Err(payload)) => panic::resume_unwind(payload),
                    Slot::Ready(_) | Slot::Taken => unreachable!("the latch waits for every task"),
                },
            )
            .collect()
    }
}

/// One task of a call: its closure until claimed, then what it returned
/// or the payload it panicked with.
enum Slot<F, T> {
    Ready(F),
    Taken,
    Done(Result<T, Box<dyn Any + Send>>),
}

/// One call's tasks, published to the workers: a type- and lifetime-erased
/// pointer to the caller's task body, the claim index and the completion
/// latch. Workers hold it through an `Arc`, so everything here outlives
/// the call except what `body` points to.
struct Job {
    /// The caller's `B: Fn(usize)`, erased; read only by `help::<B>`.
    /// Relaxed loads suffice: it is stored before the job is published
    /// through the queue's mutex, which orders it for every worker.
    body: AtomicPtr<()>,
    /// `help::<B>` for the `B` that `body` points to.
    help: fn(&Job),
    /// Number of tasks; indices at or past it claim nothing.
    tasks: usize,
    /// The next unclaimed task index. Relaxed: it publishes no other data
    /// (each slot is behind its own mutex).
    next: AtomicUsize,
    /// Tasks claimed or not that have not yet returned: the latch.
    pending: Mutex<usize>,
    done: Condvar,
}

impl Job {
    fn new<B: Fn(usize) + Sync>(body: &B, tasks: usize) -> Self {
        Job {
            body: AtomicPtr::new(std::ptr::from_ref(body).cast_mut().cast()),
            help: help::<B>,
            tasks,
            next: AtomicUsize::new(0),
            pending: Mutex::new(tasks),
            done: Condvar::new(),
        }
    }

    /// Blocks until every task has returned.
    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Claims and runs `job`'s tasks until none is left. `B` is the type of
/// the body `job.body` points to: [`Job::new`] sets both together.
#[allow(unsafe_code)]
fn help<B: Fn(usize) + Sync>(job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.tasks {
            return;
        }
        // SAFETY: `job.body` was made from a `&B` by `Job::new`, the one
        // place a `Job` is built, which also picked this `help::<B>`, so
        // the type is right, and `B: Sync` lets any thread share it. The
        // `B` is a local of the `run` call that published the job, and it
        // lives until `run` returns. `run` returns only after
        // `job.wait()`, and the latch it waits on counts task `i`, which
        // is released below, after `body` has returned. Index `i < tasks`
        // was claimed by this thread alone, so task `i` is still pending
        // here and the `B` is alive. A worker that takes the job late
        // claims an index past `tasks` and returns above without reading
        // the pointer.
        let body = unsafe { &*job.body.load(Ordering::Relaxed).cast_const().cast::<B>() };
        body(i);
        let mut pending = lock(&job.pending);
        *pending -= 1;
        if *pending == 0 {
            job.done.notify_all();
        }
    }
}

/// The process-wide workers and the jobs published to them.
struct Registry {
    queue: Mutex<Queue>,
    /// Signalled once per helper slot a job is published with.
    work: Condvar,
}

struct Queue {
    /// Published jobs, each with the number of workers that may still
    /// take it.
    jobs: VecDeque<(Arc<Job>, usize)>,
    /// Workers spawned so far.
    workers: usize,
}

static REGISTRY: Registry = Registry {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        workers: 0,
    }),
    work: Condvar::new(),
};

/// Offers `job` to up to `helpers` workers, first spawning workers until
/// there are at least `helpers`. A worker that cannot be spawned is simply
/// not there: the caller runs whatever no worker claims. Workers are never
/// joined: they live as long as the process, and no panic ends one, since
/// every task runs under `catch_unwind`.
fn publish(job: &Arc<Job>, helpers: usize) {
    let mut queue = lock(&REGISTRY.queue);
    while queue.workers < helpers {
        let spawned = std::thread::Builder::new()
            .name("mbir-pool".into())
            .spawn(serve);
        if spawned.is_err() {
            break;
        }
        queue.workers += 1;
    }
    queue.jobs.push_back((Arc::clone(job), helpers));
    drop(queue);
    for _ in 0..helpers {
        REGISTRY.work.notify_one();
    }
}

/// Takes `job` off the queue once its caller has run out of tasks to
/// claim, so no worker wakes up for it later.
fn withdraw(job: &Arc<Job>) {
    lock(&REGISTRY.queue)
        .jobs
        .retain(|(queued, _)| !Arc::ptr_eq(queued, job));
}

/// A worker's life: park until a job has a helper slot free, take it,
/// help, repeat.
fn serve() {
    loop {
        let job = {
            let mut queue = lock(&REGISTRY.queue);
            loop {
                if let Some((job, left)) = queue.jobs.front_mut() {
                    let job = Arc::clone(job);
                    *left -= 1;
                    if *left == 0 {
                        queue.jobs.pop_front();
                    }
                    break job;
                }
                queue = REGISTRY
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        (job.help)(&job);
    }
}

/// Locks `mutex`, ignoring poison: no lock in this module is held across
/// a task, so a poisoned one still guards consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lock-free, monotonically tightening lower bound shared by all workers
/// of one parallel query.
///
/// Stores an `f64` as its IEEE-754 bits in an `AtomicU64` and raises it
/// with a compare-and-swap loop that compares in the *float* domain, so
/// the published value only ever increases. Each worker offers here the
/// K-th best of every cell it has scored for the query — over all of its
/// lanes, and in a sharded scatter over all of the bands it holds — and
/// prunes against `max(that floor, shared.get())`, so pruning progress
/// made by one worker immediately tightens all the others. Such a floor
/// never exceeds the true K-th score as long as no worker counts a cell
/// twice, which is why a wave that re-scores rows (a hedge, a dual-read
/// destination copy) starts fresh worker floors and keeps only this
/// bound.
///
/// Relaxed ordering is sufficient: the bound is a pruning hint, and a
/// stale read only means a worker prunes slightly later than it could
/// have — never incorrectly (see DESIGN.md §9 for the soundness argument).
#[derive(Debug)]
pub struct SharedBound {
    bits: AtomicU64,
}

impl SharedBound {
    /// A bound starting at negative infinity (nothing excluded yet).
    pub fn new() -> Self {
        SharedBound {
            bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Raises the bound to `value` if it is higher than the current one.
    pub fn offer(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            if value <= f64::from_bits(current) {
                return;
            }
            match self.bits.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// The current bound (`-inf` until the first offer).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::new(4).threads(), 4);
    }

    #[test]
    fn run_preserves_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..8).map(|_| move |i: usize| i * 10).collect();
        assert_eq!(pool.run(tasks), (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_task_runs_inline() {
        let pool = WorkerPool::new(8);
        let id = std::thread::current().id();
        let got = pool.run(vec![move |_i: usize| std::thread::current().id()]);
        assert_eq!(got, vec![id]);
    }

    #[test]
    fn at_most_threads_tasks_of_one_call_run_at_once() {
        for threads in [2, 3] {
            let pool = WorkerPool::new(threads);
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let tasks: Vec<_> = (0..4 * threads)
                .map(|_| {
                    |_i: usize| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                })
                .collect();
            pool.run(tasks);
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= threads,
                "{peak} tasks ran at once on a pool of {threads}"
            );
        }
    }

    #[test]
    fn a_panicking_task_fails_run_after_the_others_return() {
        let pool = WorkerPool::new(3);
        let returned: Vec<AtomicBool> = (0..6).map(|_| AtomicBool::new(false)).collect();
        let tasks: Vec<_> = (0..6)
            .map(|_| {
                |i: usize| {
                    if i == 1 {
                        panic!("task 1 fails");
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    returned[i].store(true, Ordering::SeqCst);
                }
            })
            .collect();
        let payload = panic::catch_unwind(AssertUnwindSafe(|| pool.run(tasks)))
            .expect_err("run re-raises the task's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 1 fails"));
        for (i, flag) in returned.iter().enumerate() {
            assert_eq!(flag.load(Ordering::SeqCst), i != 1, "task {i}");
        }
        let tasks: Vec<_> = (0..6).map(|_| |i: usize| i + 1).collect();
        assert_eq!(pool.run(tasks), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_task_may_run_a_call_on_its_own_pool() {
        let pool = WorkerPool::new(2);
        let outer: Vec<_> = (0..3)
            .map(|_| {
                |i: usize| {
                    let inner: Vec<_> = (0..3).map(|_| move |j: usize| 10 * i + j).collect();
                    pool.run(inner)
                }
            })
            .collect();
        let expect: Vec<Vec<usize>> = (0..3)
            .map(|i| (0..3).map(|j| 10 * i + j).collect())
            .collect();
        assert_eq!(pool.run(outer), expect);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results_in_order() {
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            for c in 0..4 {
                scope.spawn(move || {
                    for _ in 0..50 {
                        let tasks: Vec<_> = (0..5).map(|_| move |i: usize| (c, i)).collect();
                        let got = pool.run(tasks);
                        assert_eq!(got, (0..5).map(|i| (c, i)).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn shared_bound_is_monotone() {
        let b = SharedBound::new();
        assert_eq!(b.get(), f64::NEG_INFINITY);
        b.offer(3.5);
        assert_eq!(b.get(), 3.5);
        b.offer(2.0); // lower: ignored
        assert_eq!(b.get(), 3.5);
        b.offer(7.25);
        assert_eq!(b.get(), 7.25);
        b.offer(f64::NAN); // never poisons the bound
        assert_eq!(b.get(), 7.25);
    }

    #[test]
    fn shared_bound_races_keep_the_max() {
        let b = SharedBound::new();
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let b = &b;
                scope.spawn(move || {
                    for i in 0..1000u32 {
                        b.offer(f64::from(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(b.get(), 7999.0);
    }
}
