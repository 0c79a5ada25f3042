//! Hardware-parallel execution: worker-pool engines, the batched engine
//! over the pool, and shared bound propagation.
//!
//! Everything the sequential engines prove, these engines prove with the
//! work spread over threads:
//!
//! * [`WorkerPool`] / [`SharedBound`] ([`pool`]) — a pool over
//!   persistent `std::thread` workers, in which the calling thread helps
//!   run its own tasks, and the lock-free monotone bound the workers
//!   share.
//! * [`par_resilient_top_k`] / [`par_staged_top_k`] ([`engines`]) —
//!   partitioned counterparts of the resilient and staged engines,
//!   bit-identical to them at every thread count (budget stops excepted;
//!   see the engine docs). Over a
//!   [`PyramidSource`](crate::source::PyramidSource) with an unlimited
//!   budget, [`par_resilient_top_k`] is the parallel
//!   [`pyramid_top_k`](crate::engine::pyramid_top_k).
//! * [`par_batched_top_k`] ([`batched`]) — the shared-frontier batched
//!   engine of [`crate::batched`] partitioned over the pool, with one
//!   [`SharedBound`] per query.
//!
//! The design and its determinism argument live in DESIGN.md §9; the
//! batched shared-frontier invariant is §15.

pub mod batched;
pub(crate) mod deal;
pub mod engines;
pub mod pool;

pub use batched::par_batched_top_k;
pub use engines::{par_resilient_top_k, par_staged_top_k};
pub use pool::{SharedBound, WorkerPool, THREADS_ENV};
