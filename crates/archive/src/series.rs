//! Regularly-sampled time series (weather feeds, well production, sensors).

use crate::error::ArchiveError;
use std::fmt;

/// A regularly-sampled time series with a step size in days.
///
/// Index 0 corresponds to `start_day`; sample `i` is at day
/// `start_day + i * step_days`.
///
/// # Examples
///
/// ```
/// use mbir_archive::series::TimeSeries;
///
/// let ts = TimeSeries::new(0, 1, vec![1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.day_of(2), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries<T> {
    start_day: i64,
    step_days: u32,
    values: Vec<T>,
}

impl<T> TimeSeries<T> {
    /// Creates a series.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::EmptyDimension`] if `step_days == 0` or
    /// `values` is empty.
    pub fn new(start_day: i64, step_days: u32, values: Vec<T>) -> Result<Self, ArchiveError> {
        if step_days == 0 || values.is_empty() {
            return Err(ArchiveError::EmptyDimension);
        }
        Ok(TimeSeries {
            start_day,
            step_days,
            values,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty (never true for a constructed series).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// First sample's day number.
    pub fn start_day(&self) -> i64 {
        self.start_day
    }

    /// Sampling step in days.
    #[cfg(test)]
    pub(crate) fn step_days(&self) -> u32 {
        self.step_days
    }

    /// Day number of sample `i`.
    pub fn day_of(&self, i: usize) -> i64 {
        self.start_day + (i as i64) * i64::from(self.step_days)
    }

    /// Sample at index `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::OutOfBounds`] past the end.
    pub fn get(&self, i: usize) -> Result<&T, ArchiveError> {
        self.values.get(i).ok_or(ArchiveError::OutOfBounds {
            row: i,
            col: 0,
            rows: self.values.len(),
            cols: 1,
        })
    }

    /// Borrow of all samples.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterator over `(day, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &T)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (self.day_of(i), v))
    }

    /// Applies `f` to every sample, keeping the time axis.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> TimeSeries<U> {
        TimeSeries {
            start_day: self.start_day,
            step_days: self.step_days,
            values: self.values.iter().map(f).collect(),
        }
    }

    /// A sub-series covering samples `[from, to)` (clamped).
    ///
    /// Returns `None` for an empty result.
    pub fn slice(&self, from: usize, to: usize) -> Option<TimeSeries<T>>
    where
        T: Clone,
    {
        let to = to.min(self.values.len());
        if from >= to {
            return None;
        }
        Some(TimeSeries {
            start_day: self.day_of(from),
            step_days: self.step_days,
            values: self.values[from..to].to_vec(),
        })
    }
}

impl TimeSeries<f64> {
    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Block-averaged coarsening by `factor` (last partial block averaged
    /// too): the 1-D multi-resolution representation used by progressive
    /// series models.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn coarsen(&self, factor: usize) -> TimeSeries<f64> {
        assert!(factor > 0, "coarsening factor must be non-zero");
        if factor == 1 {
            return self.clone();
        }
        let values: Vec<f64> = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        TimeSeries {
            start_day: self.start_day,
            step_days: self.step_days * factor as u32,
            values,
        }
    }
}

impl<T: fmt::Display> fmt::Display for TimeSeries<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TimeSeries[{} samples from day {} step {}d]",
            self.values.len(),
            self.start_day,
            self.step_days
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(TimeSeries::<f64>::new(0, 0, vec![1.0]).is_err());
        assert!(TimeSeries::<f64>::new(0, 1, vec![]).is_err());
        assert!(TimeSeries::new(5, 2, vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn day_mapping() {
        let ts = TimeSeries::new(10, 3, vec![0.0; 4]).unwrap();
        assert_eq!(ts.day_of(0), 10);
        assert_eq!(ts.day_of(3), 19);
        let days: Vec<i64> = ts.iter().map(|(d, _)| d).collect();
        assert_eq!(days, vec![10, 13, 16, 19]);
    }

    #[test]
    fn get_bounds() {
        let ts = TimeSeries::new(0, 1, vec![1, 2]).unwrap();
        assert_eq!(*ts.get(1).unwrap(), 2);
        assert!(ts.get(2).is_err());
    }

    #[test]
    fn slice_clamps_and_retimes() {
        let ts = TimeSeries::new(0, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let s = ts.slice(1, 99).unwrap();
        assert_eq!(s.values(), &[2.0, 3.0, 4.0]);
        assert_eq!(s.start_day(), 2);
        assert!(ts.slice(3, 3).is_none());
    }

    #[test]
    fn coarsen_averages_blocks() {
        let ts = TimeSeries::new(0, 1, vec![1.0, 3.0, 5.0, 7.0, 9.0]).unwrap();
        let c = ts.coarsen(2);
        assert_eq!(c.values(), &[2.0, 6.0, 9.0]);
        assert_eq!(c.step_days(), 2);
        assert!((ts.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn coarsen_by_one_is_identity() {
        let ts = TimeSeries::new(0, 1, vec![1.0, 2.0]).unwrap();
        assert_eq!(ts.coarsen(1), ts);
    }
}
