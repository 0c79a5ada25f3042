#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
//! # mbir-index
//!
//! Model-specific indexing support (paper §3.2):
//!
//! * [`onion`] — the Onion technique \[11\]: convex-hull layer peeling for
//!   linear optimization (top-K max/min of a linear model). The paper quotes
//!   13,000x (top-1) and 1,400x (top-10) speedups over sequential scan on
//!   3-attribute Gaussian data.
//! * [`rstar`] — an R*-tree: the spatial-index baseline the paper calls
//!   "sub-optimal for model-based queries"; provides range queries and a
//!   best-first top-K over linear scores via MBR bounds.
//! * [`sproc`] — SPROC [15, 16]: dynamic-programming pruning for fuzzy
//!   Cartesian (composite multi-component) queries, reducing `O(L^M)` to
//!   `O(M K L^2)` and further with sorted-list early termination.
//! * [`scan`] — the sequential-scan baseline every speedup is measured
//!   against, with tuple accounting.
//! * [`store`] — flat row-major point storage ([`store::PointStore`]):
//!   one contiguous allocation instead of a `Vec` per tuple.
//! * [`kernels`] — batched scoring kernels over flat rows, bit-identical
//!   to the per-point paths by the summation-order contract.
//! * [`quant`] — i8 quantized coarse-pass pruning over point blocks:
//!   sound upper bounds reject rows below the top-K floor before any f64
//!   is touched; prune-only, so answers stay bit-identical.
//!
//! ```
//! use mbir_index::onion::OnionIndex;
//!
//! let points = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![0.9, 0.9]];
//! let index = OnionIndex::build(points).unwrap();
//! let top = index.top_k_max(&[1.0, 1.0], 1).unwrap();
//! assert_eq!(top.results[0].index, 3);
//! ```

pub mod kernels;
pub mod onion;
pub mod quant;
pub mod rstar;
pub mod scan;
pub mod sproc;
pub mod stats;
pub mod store;

pub use onion::OnionIndex;
pub use quant::{QuantPruneReport, QuantQuery, QuantizedStore};
pub use rstar::RStarTree;
pub use scan::{scan_top_k, scan_top_k_flat, scan_top_k_quant};
pub use sproc::SprocIndex;
pub use stats::{QueryStats, ScoredItem, TopKResult};
pub use store::PointStore;
