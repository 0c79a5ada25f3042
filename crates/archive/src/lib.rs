#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
//! # mbir-archive
//!
//! The multi-modal archive substrate for model-based information retrieval
//! (MBIR). The ICDCS 2000 paper evaluates its framework on archives that mix
//! remotely-sensed imagery (Landsat TM bands), digital elevation maps,
//! weather-station time series, GIS/demographic layers, and well-log traces.
//! None of those proprietary sources are redistributable, so this crate
//! provides:
//!
//! * typed containers for each modality ([`Grid2`], [`Scene`], [`Dem`],
//!   [`TimeSeries`], [`WellLog`], [`PointLayer`]),
//! * deterministic, seeded synthetic generators that preserve the statistical
//!   structure the retrieval algorithms exploit ([`synth`], [`weather`],
//!   [`lithology`]),
//! * a metadata [`catalog`] describing every dataset in an archive, and
//! * a paged [`TileStore`] with explicit access accounting ([`AccessStats`])
//!   so that "data touched" speedups can be measured exactly the way the
//!   paper reports them.
//!
//! ```
//! use mbir_archive::synth::GaussianField;
//! use mbir_archive::grid::Grid2;
//!
//! let field = GaussianField::new(7).with_roughness(0.6);
//! let grid: Grid2<f64> = field.generate(64, 64);
//! assert_eq!(grid.rows(), 64);
//! assert_eq!(grid.cols(), 64);
//! ```

pub mod catalog;
pub mod dem;
pub mod error;
pub mod extent;
pub mod fault;
pub mod gis;
pub mod grid;
pub mod integrity;
pub mod journal;
pub mod lithology;
pub mod randx;
pub mod region;
pub mod scene;
pub mod series;
pub mod shard;
pub mod stats;
pub mod synth;
pub mod temporal;
pub mod tile;
pub mod weather;
pub mod welllog;

pub use catalog::{Catalog, DatasetId, DatasetMeta, Modality};
pub use dem::Dem;
pub use error::ArchiveError;
pub use extent::{CellCoord, GeoExtent};
pub use fault::{FaultKind, FaultProfile, ResilienceConfig, RetryPolicy, WriteFault};
pub use gis::{PointFeature, PointLayer};
pub use grid::Grid2;
pub use integrity::{fnv1a64, PageEnvelope};
pub use journal::{AppendJournal, AppendRecord, RecoveredJournal, TruncationReason};
pub use lithology::{ColumnGenerator, Layer, Lithology};
pub use region::{Polygon, Region, RegionLayer};
pub use scene::{BandId, Scene};
pub use series::TimeSeries;
pub use shard::{ShardBand, ShardPlan};
pub use stats::{AccessStats, IoModel};
pub use temporal::TemporalStack;
pub use tile::TileStore;
pub use weather::{WeatherDay, WeatherGenerator};
pub use welllog::WellLog;
