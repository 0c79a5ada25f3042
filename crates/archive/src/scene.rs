//! Multi-band raster scenes (the Landsat Thematic Mapper stand-in).

use crate::error::ArchiveError;
use crate::grid::Grid2;
use crate::synth::{mix_fields, GaussianField};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a spectral band within a [`Scene`].
///
/// Landsat TM numbering is used by the paper's HPS risk model (bands 4, 5
/// and 7), so the constants for those bands are provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BandId(pub u8);

impl BandId {
    /// Landsat TM band 4 (near infrared).
    pub const TM4: BandId = BandId(4);
    /// Landsat TM band 5 (shortwave infrared 1).
    pub const TM5: BandId = BandId(5);
    /// Landsat TM band 7 (shortwave infrared 2).
    pub const TM7: BandId = BandId(7);
}

impl fmt::Display for BandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "band{}", self.0)
    }
}

/// A co-registered multi-band raster scene.
///
/// All bands share one shape. Pixel values are stored as `f64` radiance.
///
/// # Examples
///
/// ```
/// use mbir_archive::scene::{BandId, SyntheticScene};
///
/// let scene = SyntheticScene::new(7, 8, 8).generate();
/// assert_eq!(scene.band_ids(), vec![BandId::TM4, BandId::TM5, BandId::TM7]);
/// ```
#[derive(Debug, Clone)]
pub struct Scene {
    rows: usize,
    cols: usize,
    bands: BTreeMap<BandId, Grid2<f64>>,
}

impl Scene {
    /// Creates an empty scene of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "scene dimensions must be non-zero");
        Scene {
            rows,
            cols,
            bands: BTreeMap::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Band ids present, in ascending order.
    pub fn band_ids(&self) -> Vec<BandId> {
        self.bands.keys().copied().collect()
    }

    /// Adds (or replaces) a band.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::Misaligned`] when the grid shape differs from
    /// the scene shape.
    fn add_band(&mut self, id: BandId, grid: Grid2<f64>) -> Result<(), ArchiveError> {
        if grid.rows() != self.rows || grid.cols() != self.cols {
            return Err(ArchiveError::Misaligned(format!(
                "{id} is {}x{}, scene is {}x{}",
                grid.rows(),
                grid.cols(),
                self.rows,
                self.cols
            )));
        }
        self.bands.insert(id, grid);
        Ok(())
    }

    /// Borrow of a band.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnknownDataset`] for an absent band.
    pub fn band(&self, id: BandId) -> Result<&Grid2<f64>, ArchiveError> {
        self.bands
            .get(&id)
            .ok_or_else(|| ArchiveError::UnknownDataset(id.to_string()))
    }
}

/// Builder for synthetic multi-spectral scenes with controlled inter-band
/// correlation, the stand-in for real Landsat acquisitions.
#[derive(Debug, Clone)]
pub struct SyntheticScene {
    seed: u64,
    rows: usize,
    cols: usize,
    roughness: f64,
    band_ids: Vec<BandId>,
    correlation: f64,
}

impl SyntheticScene {
    /// Creates a builder for a `rows x cols` scene.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn new(seed: u64, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "scene dimensions must be non-zero");
        SyntheticScene {
            seed,
            rows,
            cols,
            roughness: 0.55,
            band_ids: vec![BandId::TM4, BandId::TM5, BandId::TM7],
            correlation: 0.7,
        }
    }

    /// Sets field roughness (clamped to `[0, 1]`).
    pub fn with_roughness(mut self, roughness: f64) -> Self {
        self.roughness = roughness.clamp(0.0, 1.0);
        self
    }

    /// Sets the pairwise correlation between consecutive bands (clamped to
    /// `[0, 0.99]`).
    #[cfg(test)]
    fn with_correlation(mut self, correlation: f64) -> Self {
        self.correlation = correlation.clamp(0.0, 0.99);
        self
    }

    /// Generates the scene.
    pub fn generate(&self) -> Scene {
        let k = self.band_ids.len().max(1);
        let sources: Vec<Grid2<f64>> = (0..k)
            .map(|i| {
                GaussianField::new(self.seed.wrapping_add(i as u64 * 7919))
                    .with_roughness(self.roughness)
                    .generate(self.rows, self.cols)
            })
            .collect();
        // Band j mixes a shared component (source 0) with its own source:
        // weight rho on shared, sqrt(1 - rho^2) on own, giving correlation
        // ~rho^2 between any two bands and exactly rho with the shared field.
        let rho = self.correlation;
        let own = (1.0 - rho * rho).sqrt();
        let weights: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let mut w = vec![0.0; k];
                w[0] += rho;
                w[j] += own;
                w
            })
            .collect();
        let mixed = mix_fields(&sources, &weights);
        let mut scene = Scene::new(self.rows, self.cols);
        for (id, grid) in self.band_ids.iter().zip(mixed) {
            scene
                .add_band(*id, grid.normalized(0.0, 255.0))
                .expect("generated bands share the scene shape");
        }
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_band_rejects_misaligned() {
        let mut scene = Scene::new(4, 4);
        let err = scene.add_band(BandId::TM4, Grid2::filled(3, 4, 0.0));
        assert!(matches!(err, Err(ArchiveError::Misaligned(_))));
    }

    #[test]
    fn unknown_band_is_an_error() {
        let scene = Scene::new(2, 2);
        assert!(matches!(
            scene.band(BandId::TM4),
            Err(ArchiveError::UnknownDataset(_))
        ));
    }

    #[test]
    fn synthetic_scene_has_requested_bands_and_is_deterministic() {
        let s1 = SyntheticScene::new(99, 16, 16).generate();
        let s2 = SyntheticScene::new(99, 16, 16).generate();
        assert_eq!(s1.band_ids(), vec![BandId::TM4, BandId::TM5, BandId::TM7]);
        for id in s1.band_ids() {
            assert_eq!(s1.band(id).unwrap(), s2.band(id).unwrap());
        }
    }

    #[test]
    fn synthetic_bands_are_correlated() {
        let scene = SyntheticScene::new(4, 33, 33)
            .with_correlation(0.9)
            .generate();
        let a = scene.band(BandId::TM4).unwrap();
        let b = scene.band(BandId::TM5).unwrap();
        let (ma, mb) = (a.mean(), b.mean());
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                let dx = a.at(r, c) - ma;
                let dy = b.at(r, c) - mb;
                sxy += dx * dy;
                sxx += dx * dx;
                syy += dy * dy;
            }
        }
        let corr = sxy / (sxx * syy).sqrt();
        assert!(corr > 0.5, "corr {corr}");
    }
}
