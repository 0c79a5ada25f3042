#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
//! # mbir-progressive
//!
//! Progressive data representations for model-based retrieval (paper §3.1).
//! The paper names two orthogonal axes along which archive data can be made
//! progressively cheaper to consume:
//!
//! * **Multi-resolution** — coarse views first. [`wavelet`] provides the
//!   Haar transform family the paper cites; [`pyramid`] builds aggregate
//!   (min/max/mean) resolution pyramids that yield *sound interval bounds*
//!   for model values over whole regions, enabling quad-descent refinement.
//! * **Multi-abstraction** — alternate formulations at lower data volume:
//!   raw pixels → derived [`features`] (texture statistics) → [`semantics`]
//!   (classified land cover) → metadata.
//!
//! ```
//! use mbir_archive::grid::Grid2;
//! use mbir_progressive::pyramid::AggregatePyramid;
//!
//! let grid = Grid2::from_fn(64, 64, |r, c| (r + c) as f64);
//! let pyr = AggregatePyramid::build(&grid);
//! let top = pyr.cell(pyr.levels() - 1, 0, 0).unwrap();
//! assert!(top.min <= top.mean && top.mean <= top.max);
//! ```

pub mod compress;
pub mod features;
pub mod pyramid;
pub mod semantics;
pub mod wavelet;

pub use compress::CompressedGrid;
pub use features::TileFeatures;
pub use pyramid::{AggregatePyramid, CellStats};
pub use semantics::{GaussianClassifier, LandCover};
pub use wavelet::{haar_decompose_1d, haar_reconstruct_1d};
