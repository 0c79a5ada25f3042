//! The scoped worker pool and the shared-bound primitive every parallel
//! engine is built on.
//!
//! The pool is deliberately minimal: [`WorkerPool::run`] executes one
//! closure per worker on `std::thread::scope` threads and returns their
//! results in worker order. There is no task queue and no persistent
//! threads — engines partition their work *before* calling `run`, so the
//! only synchronization the hot loops need is the lock-free
//! [`SharedBound`] (and plain atomic counters for effort/budget
//! accounting). A pool of one thread runs the closure inline, so the
//! single-threaded path pays no spawn cost at all.

use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable overriding [`WorkerPool::with_default_parallelism`];
/// CI sets it so the parallel paths run multi-threaded deterministically.
pub const THREADS_ENV: &str = "MBIR_TEST_THREADS";

/// A scoped worker pool over plain `std::thread`.
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

    /// The number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one closure per task on scoped threads, returning results in
    /// task order. Each closure receives its task index. With a single
    /// task (or a one-thread pool and a single task) the closure runs
    /// inline on the calling thread.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        if tasks.len() <= 1 {
            return tasks.into_iter().enumerate().map(|(i, f)| f(i)).collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, f)| scope.spawn(move || f(i)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }
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
