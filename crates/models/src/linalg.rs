//! Minimal dense linear algebra for model calibration.
//!
//! Ordinary least squares needs nothing beyond a dense matrix, a
//! transpose-product and a linear solve; implementing those here keeps the
//! workspace inside the allowed offline dependency set.

use crate::error::ModelError;
use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from rows.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no rows and
    /// [`ModelError::ArityMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, ModelError> {
        let first = rows.first().ok_or(ModelError::Empty)?;
        let cols = first.len();
        if cols == 0 {
            return Err(ModelError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(ModelError::ArityMismatch {
                    expected: cols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indexes.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indexes.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when inner dimensions differ.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, ModelError> {
        if self.cols != other.rows {
            return Err(ModelError::ArityMismatch {
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let v = self.get(r, k);
                if v == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.set(r, c, out.get(r, c) + v * other.get(k, c));
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when lengths differ.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, ModelError> {
        if self.cols != v.len() {
            return Err(ModelError::ArityMismatch {
                expected: self.cols,
                actual: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * v[c]).sum())
            .collect())
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a non-square system or a
    /// wrong-length `b`, and [`ModelError::Singular`] when no unique
    /// solution exists.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, ModelError> {
        if self.rows != self.cols {
            return Err(ModelError::ArityMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(ModelError::ArityMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
                .expect("non-empty range");
            let pivot = a[pivot_row * n + col];
            if pivot.abs() < 1e-12 {
                return Err(ModelError::Singular);
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[row * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * x[k];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_rows_validates() {
        assert!(matches!(Matrix::from_rows(&[]), Err(ModelError::Empty)));
        assert!(matches!(
            Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ModelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn mul_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let identity = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(m.mul(&identity).unwrap(), m);
        assert!(m.mul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]).unwrap();
        let x = a.solve(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(ModelError::Singular));
    }

    #[test]
    fn solve_rejects_non_square() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(a.solve(&[1.0]).is_err());
    }

    #[test]
    fn display_shows_shape_and_entries() {
        let m = Matrix::from_rows(&[vec![1.5, -2.0]]).unwrap();
        let s = m.to_string();
        assert!(s.contains("1x2"));
        assert!(s.contains("1.5"));
        assert!(s.contains("-2.0"));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, -1.0, 1.0]]).unwrap();
        let v = m.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(v, vec![6.0, 0.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve_larger_hilbert_like_system() {
        // Mildly ill-conditioned but solvable 5x5 system.
        let n = 5;
        let mut a = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a.set(
                    r,
                    c,
                    1.0 / (r + c + 1) as f64 + if r == c { 0.5 } else { 0.0 },
                );
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    proptest! {
        #[test]
        fn prop_solve_inverts_mul(
            diag in proptest::collection::vec(1.0f64..10.0, 2..6),
            off in proptest::collection::vec(-0.4f64..0.4, 36),
            x_true in proptest::collection::vec(-5.0f64..5.0, 2..6),
        ) {
            // Build a diagonally dominant (hence nonsingular) matrix.
            let n = diag.len().min(x_true.len());
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    if r == c {
                        a.set(r, c, diag[r] + 1.0);
                    } else {
                        a.set(r, c, off[(r * 6 + c) % off.len()] / n as f64);
                    }
                }
            }
            let x_true = &x_true[..n];
            let b = a.mul_vec(x_true).unwrap();
            let x = a.solve(&b).unwrap();
            for (xi, ti) in x.iter().zip(x_true) {
                prop_assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
            }
        }
    }
}
