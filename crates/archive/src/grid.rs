//! Dense 2-D raster grid, the workhorse container for imagery and DEMs.

use crate::error::ArchiveError;
use crate::extent::{CellCoord, GeoExtent};
use std::fmt;

/// A dense, row-major 2-D grid of values with an associated geographic
/// extent.
///
/// `Grid2` is the raw-data (abstraction level 0) representation of every
/// raster modality in the archive: individual satellite bands, elevation,
/// derived feature planes, classification maps, and planted risk surfaces.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
///
/// let mut g = Grid2::filled(4, 4, 0.0f64);
/// g.set(1, 2, 7.5).unwrap();
/// assert_eq!(*g.at(1, 2), 7.5);
/// assert_eq!(g.len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2<T> {
    rows: usize,
    cols: usize,
    extent: GeoExtent,
    data: Vec<T>,
}

impl<T> Grid2<T> {
    /// Creates a grid from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::EmptyDimension`] if `rows == 0 || cols == 0`,
    /// and [`ArchiveError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, ArchiveError> {
        if rows == 0 || cols == 0 {
            return Err(ArchiveError::EmptyDimension);
        }
        if data.len() != rows * cols {
            return Err(ArchiveError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Grid2 {
            rows,
            cols,
            extent: GeoExtent::unit(),
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has zero cells (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sets the geographic extent (builder style).
    pub fn with_extent(mut self, extent: GeoExtent) -> Self {
        self.extent = extent;
        self
    }

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Value at `(row, col)` without bounds checking against the error type;
    /// panics on out-of-range like slice indexing.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    pub fn at(&self, row: usize, col: usize) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "grid index ({row}, {col}) out of bounds {}x{}",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }

    /// Stores `value` at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] when outside the grid.
    pub fn set(&mut self, row: usize, col: usize, value: T) -> Result<(), ArchiveError> {
        if row >= self.rows || col >= self.cols {
            return Err(self.oob(row, col));
        }
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Iterator over `(CellCoord, &T)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (CellCoord, &T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (CellCoord::new(i / cols, i % cols), v))
    }

    /// Iterator over one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of bounds {}", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Applies `f` to every cell, producing a new grid of the same shape and
    /// extent.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Grid2<U> {
        Grid2 {
            rows: self.rows,
            cols: self.cols,
            extent: self.extent,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Extracts a rectangular window (clamped to the grid bounds).
    ///
    /// Returns `None` when the window origin is outside the grid or has zero
    /// size after clamping.
    pub fn window(&self, origin: CellCoord, rows: usize, cols: usize) -> Option<Grid2<T>>
    where
        T: Clone,
    {
        if origin.row >= self.rows || origin.col >= self.cols || rows == 0 || cols == 0 {
            return None;
        }
        let r_end = (origin.row + rows).min(self.rows);
        let c_end = (origin.col + cols).min(self.cols);
        let mut data = Vec::with_capacity((r_end - origin.row) * (c_end - origin.col));
        for r in origin.row..r_end {
            data.extend_from_slice(&self.data[r * self.cols + origin.col..r * self.cols + c_end]);
        }
        Some(Grid2 {
            rows: r_end - origin.row,
            cols: c_end - origin.col,
            extent: self.extent,
            data,
        })
    }

    fn oob(&self, row: usize, col: usize) -> ArchiveError {
        ArchiveError::OutOfBounds {
            row,
            col,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl<T: Clone> Grid2<T> {
    /// Creates a grid filled with copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        Grid2 {
            rows,
            cols,
            extent: GeoExtent::unit(),
            data: vec![value; rows * cols],
        }
    }

    /// Creates a grid by evaluating `f(row, col)` at every cell.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(rows: usize, cols: usize, mut f: F) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Grid2 {
            rows,
            cols,
            extent: GeoExtent::unit(),
            data,
        }
    }
}

impl Grid2<f64> {
    /// Minimum and maximum values; `None` for a grid with NaNs only.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo.is_finite() {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Arithmetic mean of all values.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f64>() / self.data.len() as f64
    }

    /// Population variance of all values.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.data.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.data.len() as f64
    }

    /// Rescales values linearly into `[lo, hi]`. A constant grid maps to `lo`.
    pub fn normalized(&self, lo: f64, hi: f64) -> Grid2<f64> {
        match self.min_max() {
            Some((mn, mx)) if mx > mn => self.map(|&v| lo + (v - mn) / (mx - mn) * (hi - lo)),
            _ => self.map(|_| lo),
        }
    }
}

impl<T: fmt::Display> fmt::Display for Grid2<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Grid2 {}x{} {}", self.rows, self.cols, self.extent)?;
        // Print at most 8x8 corner to keep Debug output usable.
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:>8.6} ", self.data[r * self.cols + c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates() {
        assert!(matches!(
            Grid2::from_vec(0, 3, Vec::<f64>::new()),
            Err(ArchiveError::EmptyDimension)
        ));
        assert!(matches!(
            Grid2::from_vec(2, 2, vec![1.0; 3]),
            Err(ArchiveError::DimensionMismatch {
                expected: 4,
                actual: 3
            })
        ));
        let g = Grid2::from_vec(2, 3, vec![0.0; 6]).unwrap();
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cols(), 3);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut g = Grid2::filled(3, 4, 0i32);
        g.set(2, 3, 42).unwrap();
        assert_eq!(*g.at(2, 3), 42);
        assert!(g.set(3, 0, 1).is_err());
        assert!(g.set(0, 4, 1).is_err());
        assert!(g.set(9, 9, 1).is_err());
        assert_eq!(g.as_slice().iter().sum::<i32>(), 42);
    }

    #[test]
    fn from_fn_row_major_order() {
        let g = Grid2::from_fn(2, 3, |r, c| r * 10 + c);
        assert_eq!(g.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(g.row(1), &[10, 11, 12]);
    }

    #[test]
    fn iter_yields_coords() {
        let g = Grid2::from_fn(2, 2, |r, c| (r, c));
        let coords: Vec<CellCoord> = g.iter().map(|(cc, _)| cc).collect();
        assert_eq!(
            coords,
            vec![
                CellCoord::new(0, 0),
                CellCoord::new(0, 1),
                CellCoord::new(1, 0),
                CellCoord::new(1, 1)
            ]
        );
    }

    #[test]
    fn window_clamps() {
        let g = Grid2::from_fn(4, 4, |r, c| r * 4 + c);
        let w = g.window(CellCoord::new(2, 2), 5, 5).unwrap();
        assert_eq!(w.rows(), 2);
        assert_eq!(w.cols(), 2);
        assert_eq!(w.as_slice(), &[10, 11, 14, 15]);
        assert!(g.window(CellCoord::new(4, 0), 1, 1).is_none());
        assert!(g.window(CellCoord::new(0, 0), 0, 1).is_none());
    }

    #[test]
    fn stats_and_normalize() {
        let g = Grid2::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(g.min_max(), Some((1.0, 4.0)));
        assert!((g.mean() - 2.5).abs() < 1e-12);
        assert!((g.variance() - 1.25).abs() < 1e-12);
        let n = g.normalized(0.0, 1.0);
        assert_eq!(n.min_max(), Some((0.0, 1.0)));
        let constant = Grid2::filled(2, 2, 5.0);
        assert_eq!(constant.normalized(0.0, 1.0).min_max(), Some((0.0, 0.0)));
    }

    #[test]
    fn map_preserves_shape_and_extent() {
        let e = GeoExtent::new(0.0, 0.0, 100.0, 50.0);
        let g = Grid2::filled(2, 3, 1.5f64).with_extent(e);
        let m = g.map(|v| (v * 2.0) as i64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m, Grid2::filled(2, 3, 3i64).with_extent(e));
        assert_ne!(m, Grid2::filled(2, 3, 3i64));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_panics_out_of_bounds() {
        let g = Grid2::filled(2, 2, 0.0);
        let _ = g.at(2, 0);
    }

    #[test]
    fn display_renders_header_and_values() {
        let g = Grid2::filled(2, 2, 1.0);
        let s = g.to_string();
        assert!(s.contains("Grid2 2x2"));
        assert!(s.contains("1.0"));
    }

    #[test]
    fn min_max_skips_nan_and_handles_all_nan() {
        let g = Grid2::from_vec(1, 3, vec![f64::NAN, 2.0, -1.0]).unwrap();
        assert_eq!(g.min_max(), Some((-1.0, 2.0)));
        let all_nan = Grid2::filled(2, 2, f64::NAN);
        assert_eq!(all_nan.min_max(), None);
    }
}
