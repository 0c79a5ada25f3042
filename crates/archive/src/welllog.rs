//! Well logs: depth-indexed 1-D traces with lithology labels.

use crate::lithology::{ColumnGenerator, Layer, Lithology};
use crate::randx;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::lithology::Lithology as WellLithology;

/// One sample of a well log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSample {
    /// Measured depth in feet.
    pub depth_ft: f64,
    /// Gamma-ray response in API units.
    pub gamma_api: f64,
    /// Interpreted lithology at this depth.
    pub lithology: Lithology,
}

/// A regularly-sampled well log (0.5 ft default sample interval, the FMI
/// stand-in from the paper's oil/gas scenario).
///
/// # Examples
///
/// ```
/// use mbir_archive::welllog::WellLog;
///
/// let log = WellLog::synthetic(42, 300.0);
/// assert!(log.len() > 0);
/// assert!(log.samples()[0].depth_ft >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WellLog {
    interval_ft: f64,
    samples: Vec<LogSample>,
}

impl WellLog {
    /// Synthesizes a log for a `depth_ft`-deep well at 0.5 ft sampling.
    ///
    /// # Panics
    ///
    /// Panics if `depth_ft <= 0`.
    pub fn synthetic(seed: u64, depth_ft: f64) -> Self {
        WellLog::from_column(
            &ColumnGenerator::new(seed).generate(depth_ft),
            depth_ft,
            seed,
        )
    }

    /// Synthesizes a log guaranteed to contain the riverbed signature the
    /// geology knowledge model searches for.
    ///
    /// # Panics
    ///
    /// Panics if `depth_ft <= 0`.
    pub fn synthetic_with_riverbed(seed: u64, depth_ft: f64) -> Self {
        WellLog::from_column(
            &ColumnGenerator::new(seed)
                .with_riverbed()
                .generate(depth_ft),
            depth_ft,
            seed,
        )
    }

    /// Builds a sampled log from a stratigraphic column, adding per-sample
    /// gamma noise drawn from each layer's lithology profile.
    ///
    /// # Panics
    ///
    /// Panics if `depth_ft <= 0` or the column is empty.
    pub fn from_column(layers: &[Layer], depth_ft: f64, seed: u64) -> Self {
        assert!(depth_ft > 0.0, "depth must be positive");
        assert!(!layers.is_empty(), "column must have at least one layer");
        let interval_ft = 0.5;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_1065);
        let n = (depth_ft / interval_ft).ceil() as usize;
        let mut samples = Vec::with_capacity(n);
        let mut layer_idx = 0;
        let mut layer_top = 0.0;
        for i in 0..n {
            let depth = i as f64 * interval_ft;
            while layer_idx + 1 < layers.len()
                && depth >= layer_top + layers[layer_idx].thickness_ft
            {
                layer_top += layers[layer_idx].thickness_ft;
                layer_idx += 1;
            }
            let lith = layers[layer_idx].lithology;
            let (mean, std) = lith.gamma_profile();
            samples.push(LogSample {
                depth_ft: depth,
                gamma_api: randx::normal(&mut rng, mean, std).max(0.0),
                lithology: lith,
            });
        }
        WellLog {
            interval_ft,
            samples,
        }
    }

    /// Sample spacing in feet.
    #[cfg(test)]
    fn interval_ft(&self) -> f64 {
        self.interval_ft
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the log is empty (never true for a constructed log).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow of all samples (shallow to deep).
    pub fn samples(&self) -> &[LogSample] {
        &self.samples
    }

    /// Mean gamma over a depth range `[top_ft, bottom_ft)`.
    ///
    /// Returns `None` when no samples fall inside the range.
    pub fn mean_gamma(&self, top_ft: f64, bottom_ft: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.depth_ft >= top_ft && s.depth_ft < bottom_ft)
            .map(|s| s.gamma_api)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Collapses the sampled log back into contiguous lithology runs
    /// (`(lithology, top_ft, thickness_ft)`) — the semantic abstraction the
    /// knowledge model runs over.
    pub fn lithology_runs(&self) -> Vec<(Lithology, f64, f64)> {
        let mut runs = Vec::new();
        let mut iter = self.samples.iter();
        let first = match iter.next() {
            Some(s) => s,
            None => return runs,
        };
        let mut current = first.lithology;
        let mut top = first.depth_ft;
        let mut last_depth = first.depth_ft;
        for s in iter {
            if s.lithology != current {
                runs.push((current, top, s.depth_ft - top));
                current = s.lithology;
                top = s.depth_ft;
            }
            last_depth = s.depth_ft;
        }
        runs.push((current, top, last_depth - top + self.interval_ft));
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_log_shape() {
        let log = WellLog::synthetic(1, 100.0);
        assert_eq!(log.len(), 200);
        assert_eq!(log.interval_ft(), 0.5);
        assert_eq!(log.samples()[0].depth_ft, 0.0);
        assert_eq!(log.samples()[199].depth_ft, 99.5);
    }

    #[test]
    fn gamma_tracks_lithology() {
        let layers = vec![
            Layer {
                lithology: Lithology::Shale,
                thickness_ft: 50.0,
            },
            Layer {
                lithology: Lithology::Sandstone,
                thickness_ft: 50.0,
            },
        ];
        let log = WellLog::from_column(&layers, 100.0, 9);
        let shale_gamma = log.mean_gamma(0.0, 50.0).unwrap();
        let sand_gamma = log.mean_gamma(50.0, 100.0).unwrap();
        assert!(
            shale_gamma > sand_gamma + 30.0,
            "shale {shale_gamma} sand {sand_gamma}"
        );
        assert!(log.mean_gamma(200.0, 300.0).is_none());
    }

    #[test]
    fn lithology_runs_roundtrip_column() {
        let layers = vec![
            Layer {
                lithology: Lithology::Shale,
                thickness_ft: 10.0,
            },
            Layer {
                lithology: Lithology::Sandstone,
                thickness_ft: 6.0,
            },
            Layer {
                lithology: Lithology::Siltstone,
                thickness_ft: 8.0,
            },
        ];
        let log = WellLog::from_column(&layers, 24.0, 2);
        let runs = log.lithology_runs();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].0, Lithology::Shale);
        assert_eq!(runs[1].0, Lithology::Sandstone);
        assert_eq!(runs[2].0, Lithology::Siltstone);
        assert!((runs[0].2 - 10.0).abs() <= 0.5, "{:?}", runs[0]);
        assert!((runs[1].2 - 6.0).abs() <= 0.5, "{:?}", runs[1]);
    }

    #[test]
    fn direct_construction_from_samples() {
        let samples = vec![
            LogSample {
                depth_ft: 0.0,
                gamma_api: 90.0,
                lithology: Lithology::Shale,
            },
            LogSample {
                depth_ft: 0.5,
                gamma_api: 30.0,
                lithology: Lithology::Sandstone,
            },
        ];
        let log = WellLog {
            interval_ft: 0.5,
            samples,
        };
        assert_eq!(log.len(), 2);
        let runs = log.lithology_runs();
        assert_eq!(
            runs,
            [
                (Lithology::Shale, 0.0, 0.5),
                (Lithology::Sandstone, 0.5, 0.5)
            ]
        );
    }

    #[test]
    fn riverbed_variant_contains_signature() {
        let log = WellLog::synthetic_with_riverbed(17, 600.0);
        let runs = log.lithology_runs();
        let found = runs.windows(3).any(|w| {
            w[0].0 == Lithology::Shale
                && w[1].0 == Lithology::Sandstone
                && w[2].0 == Lithology::Siltstone
        });
        assert!(found, "expected planted riverbed in runs {runs:?}");
    }
}
