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

    /// Day number of sample `i`.
    pub fn day_of(&self, i: usize) -> i64 {
        self.start_day + (i as i64) * i64::from(self.step_days)
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
}
