//! Archive metadata catalog — the coarsest abstraction level.
//!
//! The paper's progressive representation ladder tops out at *metadata*:
//! before touching any pixel, a retrieval can discard whole datasets whose
//! modality, extent, or time range cannot satisfy the model. The catalog is
//! that ladder rung.

use crate::extent::GeoExtent;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a dataset in a catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(String);

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for DatasetId {
    fn from(s: &str) -> Self {
        DatasetId(s.to_owned())
    }
}

/// Data modality of a catalogued dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Modality {
    /// Multi-spectral imagery (satellite scenes).
    Imagery,
    /// Elevation rasters.
    Elevation,
    /// Station time series (weather, sensors).
    SeriesFeed,
    /// Depth-indexed well logs.
    WellLog,
    /// Vector point/polygon layers.
    Gis,
    /// Tabular records (credit files, incident reports).
    Tabular,
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Modality::Imagery => "imagery",
            Modality::Elevation => "elevation",
            Modality::SeriesFeed => "series-feed",
            Modality::WellLog => "well-log",
            Modality::Gis => "gis",
            Modality::Tabular => "tabular",
        };
        f.write_str(name)
    }
}

/// Descriptive metadata for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Dataset identifier.
    pub id: DatasetId,
    /// Human-readable name.
    pub name: String,
    /// Data modality.
    pub modality: Modality,
    /// Geographic coverage.
    pub extent: GeoExtent,
}

impl DatasetMeta {
    /// Creates metadata with unit extent.
    pub fn new(id: impl Into<DatasetId>, name: impl Into<String>, modality: Modality) -> Self {
        DatasetMeta {
            id: id.into(),
            name: name.into(),
            modality,
            extent: GeoExtent::unit(),
        }
    }

    /// Sets the geographic extent (builder style).
    pub fn with_extent(mut self, extent: GeoExtent) -> Self {
        self.extent = extent;
        self
    }
}

/// The archive catalog: id -> metadata, with query helpers.
///
/// # Examples
///
/// ```
/// use mbir_archive::catalog::{Catalog, DatasetMeta, Modality};
///
/// let mut catalog = Catalog::new();
/// catalog.register(DatasetMeta::new("tm-scene-1", "Landsat scene", Modality::Imagery));
/// assert_eq!(catalog.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: BTreeMap<DatasetId, DatasetMeta>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a dataset, returning any previous entry.
    pub fn register(&mut self, meta: DatasetMeta) -> Option<DatasetMeta> {
        self.entries.insert(meta.id.clone(), meta)
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Datasets whose extent intersects `extent` — the metadata-level screen
    /// used before touching data.
    pub fn covering(&self, extent: &GeoExtent) -> Vec<&DatasetMeta> {
        self.entries
            .values()
            .filter(|m| m.extent.intersects(extent))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            DatasetMeta::new("tm1", "scene a", Modality::Imagery)
                .with_extent(GeoExtent::new(0.0, 0.0, 1.0, 1.0)),
        );
        c.register(
            DatasetMeta::new("dem1", "terrain", Modality::Elevation)
                .with_extent(GeoExtent::new(0.5, 0.5, 2.0, 2.0)),
        );
        c.register(
            DatasetMeta::new("wx1", "station", Modality::SeriesFeed)
                .with_extent(GeoExtent::new(5.0, 5.0, 5.1, 5.1)),
        );
        c
    }

    #[test]
    fn register_and_lookup() {
        let c = sample_catalog();
        assert_eq!(c.len(), 3);
        let everywhere = c.covering(&GeoExtent::new(-10.0, -10.0, 10.0, 10.0));
        let ids: Vec<_> = everywhere.iter().map(|m| m.id.to_string()).collect();
        assert_eq!(ids, ["dem1", "tm1", "wx1"]);
        assert_eq!(everywhere[1].name, "scene a");
    }

    #[test]
    fn register_replaces() {
        let mut c = sample_catalog();
        let old = c.register(DatasetMeta::new("tm1", "scene b", Modality::Imagery));
        assert_eq!(old.unwrap().name, "scene a");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn extent_screen() {
        let c = sample_catalog();
        let roi = GeoExtent::new(0.0, 0.0, 0.4, 0.4);
        let hits = c.covering(&roi);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, DatasetId::from("tm1"));
    }
}
