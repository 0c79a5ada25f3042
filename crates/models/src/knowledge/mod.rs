//! Knowledge models: multi-modal rule structures over semantic abstractions
//! (paper §2.3 and Fig. 4).
//!
//! A knowledge model combines *structural* predicates (this on top of that,
//! adjacency within a tolerance) with *measurement* predicates (gamma ray
//! above a threshold) into a fuzzy score used for top-K retrieval. The
//! concrete instance shipped here is the geology riverbed model
//! ([`geology`]); the structural machinery ([`SequencePattern`]) is generic
//! over any labelled-run sequence.

pub mod geology;

use crate::error::ModelError;
use std::fmt;

/// One element of a vertical sequence pattern: a label plus optional
/// thickness constraints (in the run's length unit).
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceElement<L> {
    /// Required label of the run.
    pub label: L,
    /// Maximum thickness, if constrained (e.g. "< 10 ft" beds).
    pub max_thickness: Option<f64>,
    /// Minimum thickness, if constrained.
    pub min_thickness: Option<f64>,
}

impl<L> SequenceElement<L> {
    /// An element constrained only by label.
    pub fn labelled(label: L) -> Self {
        SequenceElement {
            label,
            max_thickness: None,
            min_thickness: None,
        }
    }

    /// Adds an upper thickness bound (builder style).
    pub fn with_max_thickness(mut self, max: f64) -> Self {
        self.max_thickness = Some(max);
        self
    }

    /// Adds a lower thickness bound (builder style).
    #[cfg(test)]
    fn with_min_thickness(mut self, min: f64) -> Self {
        self.min_thickness = Some(min);
        self
    }
}

/// A consecutive-run sequence pattern ("shale on top of sandstone on top of
/// siltstone"): elements must match *adjacent* runs in order.
///
/// # Examples
///
/// ```
/// use mbir_models::knowledge::{SequenceElement, SequencePattern};
///
/// let pattern = SequencePattern::new(vec![
///     SequenceElement::labelled("shale"),
///     SequenceElement::labelled("sand"),
/// ])?;
/// let runs = [("mud", 3.0), ("shale", 5.0), ("sand", 8.0)];
/// assert_eq!(pattern.best_match(&runs), Some((1, 1.0)));
/// # Ok::<(), mbir_models::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SequencePattern<L> {
    elements: Vec<SequenceElement<L>>,
}

impl<L: PartialEq + fmt::Debug> SequencePattern<L> {
    /// Creates a pattern.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for an empty element list.
    pub fn new(elements: Vec<SequenceElement<L>>) -> Result<Self, ModelError> {
        if elements.is_empty() {
            return Err(ModelError::Empty);
        }
        Ok(SequencePattern { elements })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the pattern has no elements (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Fuzzy match quality at `start`: the fraction of element constraints
    /// satisfied, with thickness violations scored by how close the run is
    /// to the bound (a 12 ft bed against a 10 ft cap scores 10/12). Label
    /// mismatches zero that element. The result is the mean element score —
    /// the "slightly different structure still ranks" semantics of §3.
    pub fn match_quality(&self, runs: &[(L, f64)], start: usize) -> f64 {
        if start + self.elements.len() > runs.len() {
            return 0.0;
        }
        let total: f64 = self
            .elements
            .iter()
            .enumerate()
            .map(|(j, e)| {
                let (label, thickness) = &runs[start + j];
                if &e.label != label {
                    return 0.0;
                }
                let mut s = 1.0f64;
                if let Some(max) = e.max_thickness {
                    if *thickness > max {
                        s = s.min(max / thickness);
                    }
                }
                if let Some(min) = e.min_thickness {
                    if *thickness < min {
                        s = s.min(thickness / min);
                    }
                }
                s
            })
            .sum();
        total / self.elements.len() as f64
    }

    /// The best fuzzy match over all start positions: `(start, quality)`.
    /// Returns `None` for a runs list shorter than the pattern.
    pub fn best_match(&self, runs: &[(L, f64)]) -> Option<(usize, f64)> {
        if runs.len() < self.elements.len() {
            return None;
        }
        (0..=runs.len() - self.elements.len())
            .map(|start| (start, self.match_quality(runs, start)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shale_sand_silt() -> SequencePattern<&'static str> {
        SequencePattern::new(vec![
            SequenceElement::labelled("shale").with_max_thickness(10.0),
            SequenceElement::labelled("sand").with_max_thickness(10.0),
            SequenceElement::labelled("silt"),
        ])
        .unwrap()
    }

    #[test]
    fn crisp_match_requires_adjacency_and_thickness() {
        // A crisp match is quality 1.0: every element holds on adjacent runs.
        let p = shale_sand_silt();
        let good = [
            ("lime", 30.0),
            ("shale", 5.0),
            ("sand", 7.0),
            ("silt", 20.0),
        ];
        assert_eq!(p.best_match(&good), Some((1, 1.0)));
        let thick = [("shale", 15.0), ("sand", 7.0), ("silt", 20.0)];
        assert!(p.best_match(&thick).unwrap().1 < 1.0);
        let gap = [("shale", 5.0), ("lime", 2.0), ("sand", 7.0), ("silt", 20.0)];
        assert!(p.best_match(&gap).unwrap().1 < 1.0);
    }

    #[test]
    fn fuzzy_quality_degrades_gracefully() {
        let p = shale_sand_silt();
        let perfect = [("shale", 5.0), ("sand", 7.0), ("silt", 20.0)];
        assert!((p.match_quality(&perfect, 0) - 1.0).abs() < 1e-12);
        // 12 ft shale against a 10 ft cap: that element scores 10/12.
        let slightly_thick = [("shale", 12.0), ("sand", 7.0), ("silt", 20.0)];
        let q = p.match_quality(&slightly_thick, 0);
        let expected = (10.0 / 12.0 + 1.0 + 1.0) / 3.0;
        assert!((q - expected).abs() < 1e-12);
        // Wrong middle label zeroes one element.
        let wrong = [("shale", 5.0), ("lime", 7.0), ("silt", 20.0)];
        assert!((p.match_quality(&wrong, 0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn best_match_scans_all_offsets() {
        let p = shale_sand_silt();
        let runs = [
            ("sand", 5.0),
            ("shale", 5.0),
            ("sand", 30.0), // too thick: partial credit
            ("silt", 4.0),
            ("shale", 6.0),
            ("sand", 6.0),
            ("silt", 9.0),
        ];
        let (start, q) = p.best_match(&runs).unwrap();
        assert_eq!(start, 4);
        assert!((q - 1.0).abs() < 1e-12);
        assert!(p.best_match(&runs[..2]).is_none());
    }

    #[test]
    fn min_thickness_constraint() {
        let e = SequenceElement::labelled("sand").with_min_thickness(5.0);
        let p = SequencePattern::new(vec![e]).unwrap();
        let q = p.match_quality(&[("sand", 2.5)], 0);
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_pattern_rejected() {
        assert!(SequencePattern::<&str>::new(vec![]).is_err());
    }
}
