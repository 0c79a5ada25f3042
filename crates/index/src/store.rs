//! Flat, dimension-stamped point storage.
//!
//! Every index structure in this crate originally held its tuples as
//! `Vec<Vec<f64>>`: one heap allocation and one pointer chase per tuple.
//! For model-based scoring — where a query touches thousands of tuples
//! and each touch is a d-term dot product — that layout makes memory
//! latency, not arithmetic, the bottleneck. [`PointStore`] packs all
//! tuples into a single row-major `Vec<f64>` so a scoring sweep walks
//! one contiguous allocation, the hardware prefetcher sees a linear
//! stream, and the [`crate::kernels`] can autovectorize across rows.
//!
//! The store changes *layout only*: [`PointStore::row`] hands back the
//! exact same `&[f64]` slice contents the nested representation held, so
//! every kernel consuming rows produces bit-identical scores.

use mbir_models::error::ModelError;

/// A dense, row-major collection of `d`-dimensional points.
///
/// Row `i` occupies `data[i*dims .. (i+1)*dims]`. The dimension is fixed
/// at construction; every row pushed later must match it.
///
/// # Examples
///
/// ```
/// use mbir_index::store::PointStore;
///
/// let store = PointStore::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.row(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PointStore {
    data: Vec<f64>,
    dims: usize,
}

impl PointStore {
    /// An empty store of `dims`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "PointStore needs dims >= 1");
        PointStore {
            data: Vec::new(),
            dims,
        }
    }

    /// Packs nested rows into a flat store, validating shape.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no rows or zero-width rows and
    /// [`ModelError::ArityMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, ModelError> {
        let first = rows.first().ok_or(ModelError::Empty)?;
        let dims = first.len();
        if dims == 0 {
            return Err(ModelError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * dims);
        for row in rows {
            if row.len() != dims {
                return Err(ModelError::ArityMismatch {
                    expected: dims,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(PointStore { data, dims })
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// Whether no points are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Appends a row, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a wrong-width row.
    pub fn push_row(&mut self, row: &[f64]) -> Result<usize, ModelError> {
        if row.len() != self.dims {
            return Err(ModelError::ArityMismatch {
                expected: self.dims,
                actual: row.len(),
            });
        }
        let idx = self.len();
        self.data.extend_from_slice(row);
        Ok(idx)
    }

    /// Iterates rows in index order.
    #[inline]
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dims)
    }

    /// The whole row-major buffer (length `len() * dims()`).
    #[inline]
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// Copies the store back into the nested representation.
    #[cfg(test)]
    fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_roundtrips() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let store = PointStore::from_rows(&rows).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.dims(), 3);
        assert_eq!(store.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(store.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(store.to_rows(), rows);
        assert_eq!(store.flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let collected: Vec<&[f64]> = store.rows().collect();
        assert_eq!(collected, vec![&rows[0][..], &rows[1][..]]);
    }

    #[test]
    fn from_rows_validates() {
        assert!(matches!(PointStore::from_rows(&[]), Err(ModelError::Empty)));
        assert!(matches!(
            PointStore::from_rows(&[vec![]]),
            Err(ModelError::Empty)
        ));
        assert!(matches!(
            PointStore::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ModelError::ArityMismatch {
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn push_row_grows_and_validates() {
        let mut store = PointStore::new(2);
        assert!(store.is_empty());
        assert_eq!(store.push_row(&[1.0, 2.0]).unwrap(), 0);
        assert_eq!(store.push_row(&[3.0, 4.0]).unwrap(), 1);
        assert!(store.push_row(&[1.0]).is_err());
        assert_eq!(store.len(), 2);
        assert_eq!(store.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dims >= 1")]
    fn zero_dims_panics() {
        let _ = PointStore::new(0);
    }
}
