//! Digital elevation model (DEM).

use crate::grid::Grid2;
use crate::synth::GaussianField;

/// A digital elevation model: elevations in meters over a grid.
///
/// The HPS risk model in the paper uses "elevation (in meters) from the
/// corresponding DEM" as its fourth attribute; [`Dem::synthetic`] produces
/// fractal terrain matching that role.
///
/// # Examples
///
/// ```
/// use mbir_archive::dem::Dem;
///
/// let dem = Dem::synthetic(3, 32, 32, 0.0, 1500.0);
/// let (lo, hi) = dem.grid().min_max().unwrap();
/// assert!(lo >= 0.0 && hi <= 1500.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dem {
    grid: Grid2<f64>,
}

impl Dem {
    /// Synthesizes fractal terrain spanning `[min_elev, max_elev]` meters.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn synthetic(seed: u64, rows: usize, cols: usize, min_elev: f64, max_elev: f64) -> Self {
        let grid = GaussianField::new(seed)
            .with_roughness(0.45)
            .generate(rows, cols)
            .normalized(min_elev.min(max_elev), min_elev.max(max_elev));
        Dem { grid }
    }

    /// The elevation grid.
    pub fn grid(&self) -> &Grid2<f64> {
        &self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_respects_range() {
        let dem = Dem::synthetic(1, 20, 30, 100.0, 900.0);
        let (lo, hi) = dem.grid().min_max().unwrap();
        assert!(lo >= 100.0 - 1e-9 && hi <= 900.0 + 1e-9);
        assert_eq!(dem.grid().rows(), 20);
    }
}
