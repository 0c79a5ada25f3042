//! Temporal stacks: time series of co-registered grids.
//!
//! The paper's §3.1 linear model is explicitly temporal —
//! `R(x,y,t) = a1 X1(x,y,t) + a2 X2(x,y,t) + a3 X3(x,y,t) + a4 R(x,y,t-1)`
//! — which needs an archive representation for "the same raster, observed
//! repeatedly". `TemporalStack` stores one grid per acquisition day with
//! shape enforcement and per-cell time-series extraction.

use crate::error::ArchiveError;
use crate::grid::Grid2;

/// A time-ordered stack of co-registered grids.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::temporal::TemporalStack;
///
/// let mut stack = TemporalStack::new(4, 4);
/// stack.push(0, Grid2::filled(4, 4, 1.0)).unwrap();
/// stack.push(16, Grid2::filled(4, 4, 2.0)).unwrap();
/// assert_eq!(stack.len(), 2);
/// let ts = stack.cell_series(1, 1).unwrap();
/// assert_eq!(ts, vec![(0, 1.0), (16, 2.0)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalStack {
    rows: usize,
    cols: usize,
    frames: Vec<(i64, Grid2<f64>)>,
}

impl TemporalStack {
    /// Creates an empty stack for `rows x cols` frames.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "stack dimensions must be non-zero");
        TemporalStack {
            rows,
            cols,
            frames: Vec::new(),
        }
    }

    /// Frame shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stack has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Appends a frame for `day`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::Misaligned`] for a wrong-shaped grid or a
    /// day not after the last frame (frames must be strictly increasing).
    pub fn push(&mut self, day: i64, grid: Grid2<f64>) -> Result<(), ArchiveError> {
        if grid.rows() != self.rows || grid.cols() != self.cols {
            return Err(ArchiveError::Misaligned(format!(
                "frame is {}x{}, stack is {}x{}",
                grid.rows(),
                grid.cols(),
                self.rows,
                self.cols
            )));
        }
        if let Some((last, _)) = self.frames.last() {
            if day <= *last {
                return Err(ArchiveError::Misaligned(format!(
                    "frame day {day} not after previous day {last}"
                )));
            }
        }
        self.frames.push((day, grid));
        Ok(())
    }

    /// The frame at index `i` as `(day, grid)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] past the end.
    pub fn frame(&self, i: usize) -> Result<(i64, &Grid2<f64>), ArchiveError> {
        self.frames
            .get(i)
            .map(|(d, g)| (*d, g))
            .ok_or(ArchiveError::OutOfBounds {
                row: i,
                col: 0,
                rows: self.frames.len(),
                cols: 1,
            })
    }

    /// The per-cell time series `(day, value)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] outside the frame shape.
    pub fn cell_series(&self, row: usize, col: usize) -> Result<Vec<(i64, f64)>, ArchiveError> {
        if row >= self.rows || col >= self.cols {
            return Err(ArchiveError::OutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(self
            .frames
            .iter()
            .map(|(d, g)| (*d, *g.at(row, col)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_3() -> TemporalStack {
        let mut s = TemporalStack::new(2, 2);
        for (i, day) in [0i64, 16, 32].iter().enumerate() {
            s.push(*day, Grid2::filled(2, 2, i as f64)).unwrap();
        }
        s
    }

    #[test]
    fn push_enforces_shape_and_order() {
        let mut s = TemporalStack::new(2, 2);
        assert!(s.push(0, Grid2::filled(3, 2, 0.0)).is_err());
        s.push(5, Grid2::filled(2, 2, 0.0)).unwrap();
        assert!(s.push(5, Grid2::filled(2, 2, 0.0)).is_err());
        assert!(s.push(4, Grid2::filled(2, 2, 0.0)).is_err());
        assert!(s.push(6, Grid2::filled(2, 2, 0.0)).is_ok());
    }

    #[test]
    fn frame_lookup() {
        let s = stack_3();
        assert_eq!(s.frame(1).unwrap().0, 16);
        assert!(s.frame(3).is_err());
    }

    #[test]
    fn cell_series_and_regular_view() {
        let s = stack_3();
        assert_eq!(
            s.cell_series(0, 0).unwrap(),
            vec![(0, 0.0), (16, 1.0), (32, 2.0)]
        );
        assert!(s.cell_series(2, 0).is_err());
    }
}
