//! Digital elevation model (DEM) and terrain derivatives.

use crate::error::ArchiveError;
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
    cell_size_m: f64,
}

impl Dem {
    /// Wraps an elevation grid with the given cell size in meters.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size_m` is not strictly positive and finite.
    pub fn new(grid: Grid2<f64>, cell_size_m: f64) -> Self {
        assert!(
            cell_size_m > 0.0 && cell_size_m.is_finite(),
            "cell size must be positive, got {cell_size_m}"
        );
        Dem { grid, cell_size_m }
    }

    /// Synthesizes fractal terrain spanning `[min_elev, max_elev]` meters,
    /// 30 m cells (the Landsat TM ground sample distance).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn synthetic(seed: u64, rows: usize, cols: usize, min_elev: f64, max_elev: f64) -> Self {
        let field = GaussianField::new(seed)
            .with_roughness(0.45)
            .generate(rows, cols)
            .normalized(min_elev.min(max_elev), min_elev.max(max_elev));
        Dem::new(field, 30.0)
    }

    /// The elevation grid.
    pub fn grid(&self) -> &Grid2<f64> {
        &self.grid
    }

    /// Cell size in meters.
    #[cfg(test)]
    fn cell_size_m(&self) -> f64 {
        self.cell_size_m
    }

    /// Elevation at a cell.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] when outside the grid.
    pub fn elevation(&self, row: usize, col: usize) -> Result<f64, ArchiveError> {
        Ok(*self.grid.get(row, col)?)
    }

    /// Slope magnitude (rise over run, dimensionless) via central
    /// differences, one-sided at the edges.
    pub fn slope(&self) -> Grid2<f64> {
        let g = &self.grid;
        let rows = g.rows();
        let cols = g.cols();
        Grid2::from_fn(rows, cols, |r, c| {
            let (r0, r1) = (r.saturating_sub(1), (r + 1).min(rows - 1));
            let (c0, c1) = (c.saturating_sub(1), (c + 1).min(cols - 1));
            let dz_dy = (g.at(r1, c) - g.at(r0, c)) / ((r1 - r0).max(1) as f64 * self.cell_size_m);
            let dz_dx = (g.at(r, c1) - g.at(r, c0)) / ((c1 - c0).max(1) as f64 * self.cell_size_m);
            (dz_dx * dz_dx + dz_dy * dz_dy).sqrt()
        })
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
        assert_eq!(dem.cell_size_m(), 30.0);
    }

    #[test]
    fn flat_terrain_has_zero_slope() {
        let dem = Dem::new(Grid2::filled(5, 5, 200.0), 30.0);
        let s = dem.slope();
        assert!(s.iter().all(|(_, &v)| v == 0.0));
    }

    #[test]
    fn ramp_has_expected_slope() {
        // Elevation increases 30 m per column with 30 m cells -> slope 1.0.
        let dem = Dem::new(Grid2::from_fn(4, 6, |_, c| 30.0 * c as f64), 30.0);
        let s = dem.slope();
        for (_, &v) in s.iter() {
            assert!((v - 1.0).abs() < 1e-12, "slope {v}");
        }
    }

    #[test]
    fn elevation_bounds_checked() {
        let dem = Dem::new(Grid2::filled(2, 2, 0.0), 30.0);
        assert!(dem.elevation(0, 0).is_ok());
        assert!(dem.elevation(2, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_rejected() {
        let _ = Dem::new(Grid2::filled(2, 2, 0.0), 0.0);
    }
}
