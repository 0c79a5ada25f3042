//! The geology riverbed knowledge model of paper Fig. 4:
//!
//! > "the riverbed consisting of: shale, on top of sandstones, on top of
//! > siltstones, and the Gamma ray of these region is higher than 45."
//!
//! The Fig. 4 annotations add "adjacent, < 10 ft" bed constraints and a
//! "delta lobe" context. The model here scores a well log by combining the
//! structural sequence match (fuzzy, via [`SequencePattern`]) with a fuzzy
//! gamma-ray criterion over the matched interval — multi-modal, since
//! lithology comes from image-interpreted FMI logs and gamma from the
//! 1-D tool trace.

use crate::fuzzy::Membership;
use crate::knowledge::{SequenceElement, SequencePattern};
use mbir_archive::lithology::Lithology;
use mbir_archive::welllog::WellLog;

/// A scored riverbed candidate within one well.
#[derive(Debug, Clone, PartialEq)]
pub struct RiverbedMatch {
    /// Index of the first matched run (shale bed) in the well's runs.
    pub run_index: usize,
    /// Top depth of the matched interval in feet.
    pub top_ft: f64,
    /// Bottom depth of the matched interval in feet.
    pub bottom_ft: f64,
    /// Structural sequence quality in `[0, 1]`.
    pub structure_score: f64,
    /// Gamma criterion degree in `[0, 1]`.
    pub gamma_score: f64,
    /// Combined model score in `[0, 1]`.
    pub score: f64,
}

/// The riverbed knowledge model.
///
/// # Examples
///
/// ```
/// use mbir_models::knowledge::geology::RiverbedModel;
/// use mbir_archive::welllog::WellLog;
///
/// let model = RiverbedModel::paper();
/// let well = WellLog::synthetic_with_riverbed(7, 500.0);
/// let matches = model.score_well(&well);
/// assert!(!matches.is_empty());
/// assert!(matches[0].score > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct RiverbedModel {
    pattern: SequencePattern<Lithology>,
    gamma: Membership,
    min_quality: f64,
}

impl RiverbedModel {
    /// The model as specified in Fig. 4: shale / sandstone / siltstone
    /// adjacent beds under 10 ft, gamma above 45 API (as a soft sigmoid so
    /// near-misses rank rather than vanish).
    pub fn paper() -> Self {
        RiverbedModel {
            pattern: SequencePattern::new(vec![
                SequenceElement::labelled(Lithology::Shale).with_max_thickness(10.0),
                SequenceElement::labelled(Lithology::Sandstone).with_max_thickness(10.0),
                SequenceElement::labelled(Lithology::Siltstone).with_max_thickness(10.0),
            ])
            .expect("non-empty pattern"),
            gamma: Membership::Sigmoid {
                center: 45.0,
                slope: 0.3,
            },
            min_quality: 0.25,
        }
    }

    /// Scores every candidate interval in a well, best first. Candidates
    /// below the model's quality floor are dropped.
    pub fn score_well(&self, well: &WellLog) -> Vec<RiverbedMatch> {
        let runs = well.lithology_runs();
        let run_pairs: Vec<(Lithology, f64)> = runs.iter().map(|(l, _, t)| (*l, *t)).collect();
        let span = self.pattern.len();
        if run_pairs.len() < span {
            return Vec::new();
        }
        let mut matches: Vec<RiverbedMatch> = (0..=run_pairs.len() - span)
            .filter_map(|start| {
                let structure = self.pattern.match_quality(&run_pairs, start);
                if structure < self.min_quality {
                    return None;
                }
                let top_ft = runs[start].1;
                let last = &runs[start + span - 1];
                let bottom_ft = last.1 + last.2;
                let gamma_mean = well.mean_gamma(top_ft, bottom_ft)?;
                let gamma_score = self.gamma.degree(gamma_mean);
                Some(RiverbedMatch {
                    run_index: start,
                    top_ft,
                    bottom_ft,
                    structure_score: structure,
                    gamma_score,
                    score: structure * gamma_score,
                })
            })
            .collect();
        matches.sort_by(|a, b| b.score.total_cmp(&a.score));
        matches
    }

    /// The best score for a well (0 when nothing clears the quality floor) —
    /// the per-well ranking key for top-K retrieval across an archive.
    pub fn well_score(&self, well: &WellLog) -> f64 {
        self.score_well(well)
            .first()
            .map(|m| m.score)
            .unwrap_or(0.0)
    }

    /// Cheap screening score from the well's lithology runs only (no gamma
    /// samples touched): an upper bound on [`RiverbedModel::well_score`],
    /// since the gamma degree can only shrink the product. Screening with
    /// it prunes wells soundly before reading their (much larger) traces.
    pub fn structure_upper_bound(&self, runs: &[(Lithology, f64)]) -> f64 {
        self.pattern.best_match(runs).map(|(_, q)| q).unwrap_or(0.0)
    }

    /// Progressive top-K well retrieval (the F4 pipeline as a library
    /// call): ranks wells by the lithology-level structural bound, reads
    /// gamma traces only while a bound can still beat the provisional
    /// K-th score, and returns `(well index, score)` pairs descending plus
    /// the number of traces actually read. Exact: equals exhaustive
    /// scoring (verified by tests), because the bound dominates the score.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn screened_top_k<'a, W>(&self, wells: W, k: usize) -> (Vec<(usize, f64)>, usize)
    where
        W: IntoIterator<Item = &'a WellLog>,
    {
        assert!(k > 0, "top-K needs k >= 1");
        let mut bounds: Vec<(usize, f64, &WellLog)> = wells
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let runs: Vec<(Lithology, f64)> = w
                    .lithology_runs()
                    .iter()
                    .map(|(l, _, t)| (*l, *t))
                    .collect();
                (i, self.structure_upper_bound(&runs), w)
            })
            .collect();
        bounds.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut scored: Vec<(usize, f64)> = Vec::new();
        let mut traces_read = 0usize;
        for (i, bound, well) in &bounds {
            let kth = if scored.len() >= k {
                scored[k - 1].1
            } else {
                f64::NEG_INFINITY
            };
            if *bound <= kth {
                break;
            }
            traces_read += 1;
            scored.push((*i, self.well_score(well)));
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        scored.truncate(k);
        (scored, traces_read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::lithology::Layer;

    fn riverbed_layers() -> Vec<Layer> {
        vec![
            Layer {
                lithology: Lithology::Limestone,
                thickness_ft: 40.0,
            },
            Layer {
                lithology: Lithology::Shale,
                thickness_ft: 6.0,
            },
            Layer {
                lithology: Lithology::Sandstone,
                thickness_ft: 8.0,
            },
            Layer {
                lithology: Lithology::Siltstone,
                thickness_ft: 7.0,
            },
            Layer {
                lithology: Lithology::Limestone,
                thickness_ft: 60.0,
            },
        ]
    }

    #[test]
    fn perfect_riverbed_scores_high() {
        let well = WellLog::from_column(&riverbed_layers(), 121.0, 3);
        let model = RiverbedModel::paper();
        let matches = model.score_well(&well);
        assert!(!matches.is_empty());
        let best = &matches[0];
        assert_eq!(best.run_index, 1);
        assert!((best.structure_score - 1.0).abs() < 1e-9);
        assert!(best.gamma_score > 0.5, "mixed shale/sand gamma ~64 API");
        assert!(best.score > 0.5);
        assert!((best.top_ft - 40.0).abs() <= 0.5);
        assert!((best.bottom_ft - 61.0).abs() <= 0.5);
    }

    #[test]
    fn well_without_sequence_scores_zero() {
        let layers = vec![
            Layer {
                lithology: Lithology::Limestone,
                thickness_ft: 60.0,
            },
            Layer {
                lithology: Lithology::Sandstone,
                thickness_ft: 60.0,
            },
        ];
        let well = WellLog::from_column(&layers, 120.0, 5);
        assert_eq!(RiverbedModel::paper().well_score(&well), 0.0);
    }

    #[test]
    fn thick_beds_rank_below_thin_beds() {
        let mut thick = riverbed_layers();
        thick[1].thickness_ft = 25.0; // shale way over the 10 ft cap
        let thin_well = WellLog::from_column(&riverbed_layers(), 121.0, 3);
        let thick_well = WellLog::from_column(&thick, 140.0, 3);
        let model = RiverbedModel::paper();
        assert!(model.well_score(&thin_well) > model.well_score(&thick_well));
    }

    #[test]
    fn structure_bound_dominates_final_score() {
        let model = RiverbedModel::paper();
        for seed in 0..30 {
            let well = if seed % 3 == 0 {
                WellLog::synthetic_with_riverbed(seed, 400.0)
            } else {
                WellLog::synthetic(seed, 400.0)
            };
            let runs: Vec<(Lithology, f64)> = well
                .lithology_runs()
                .iter()
                .map(|(l, _, t)| (*l, *t))
                .collect();
            let bound = model.structure_upper_bound(&runs);
            let score = model.well_score(&well);
            assert!(
                bound >= score - 1e-9,
                "seed {seed}: bound {bound} < score {score}"
            );
        }
    }

    #[test]
    fn planted_wells_outrank_random_wells_on_average() {
        let model = RiverbedModel::paper();
        let planted: f64 = (0..10)
            .map(|s| model.well_score(&WellLog::synthetic_with_riverbed(s, 500.0)))
            .sum::<f64>()
            / 10.0;
        let random: f64 = (100..110)
            .map(|s| model.well_score(&WellLog::synthetic(s, 500.0)))
            .sum::<f64>()
            / 10.0;
        assert!(
            planted > random,
            "planted mean {planted} vs random mean {random}"
        );
    }

    #[test]
    fn screened_top_k_equals_exhaustive() {
        let model = RiverbedModel::paper();
        let wells: Vec<WellLog> = (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    WellLog::synthetic_with_riverbed(i as u64, 400.0)
                } else {
                    WellLog::synthetic(i as u64, 400.0)
                }
            })
            .collect();
        for k in [1usize, 5, 12] {
            let (screened, traces_read) = model.screened_top_k(&wells, k);
            let mut exhaustive: Vec<(usize, f64)> = wells
                .iter()
                .enumerate()
                .map(|(i, w)| (i, model.well_score(w)))
                .collect();
            exhaustive.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            exhaustive.truncate(k);
            for ((_, a), (_, b)) in screened.iter().zip(&exhaustive) {
                assert!((a - b).abs() < 1e-9, "k={k}");
            }
            assert!(traces_read <= wells.len());
        }
        // Small K leaves most traces unread.
        let (_, traces_read) = model.screened_top_k(&wells, 1);
        assert!(traces_read < wells.len(), "read {traces_read} of 40");
    }
}
