//! Temporal model-based retrieval: the paper's §3.1 recursive risk model
//! `R(x,y,t) = a1 X1(x,y,t) + a2 X2(x,y,t) + a3 X3(x,y,t) + a4 R(x,y,t-1)`
//! run over a temporal archive, with per-frame top-K retrieval.
//!
//! The tracker maintains the recursive risk surface incrementally (one
//! `O(nN)` sweep per frame — the recursion itself is inherently dense) and
//! answers each frame's top-K through a fresh aggregate pyramid over the
//! risk surface, so the *retrieval* stays progressive even though the
//! state update is dense.

use crate::engine::{pyramid_top_k, GridTopK};
use crate::error::CoreError;
use mbir_archive::grid::Grid2;
use mbir_archive::temporal::TemporalStack;
use mbir_models::linear::{LinearModel, TemporalHpsModel};
use mbir_progressive::pyramid::AggregatePyramid;

/// Per-frame output of the tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTopK {
    /// Acquisition day of the frame.
    pub day: i64,
    /// The frame's top-K risk cells.
    pub top_k: GridTopK,
}

/// Tracks the recursive risk surface over co-registered temporal stacks
/// (one stack per observation attribute) and retrieves each frame's top-K.
///
/// # Examples
///
/// ```
/// use mbir_archive::grid::Grid2;
/// use mbir_archive::temporal::TemporalStack;
/// use mbir_core::temporal::TemporalRiskTracker;
/// use mbir_models::linear::TemporalHpsModel;
///
/// let mut stack = TemporalStack::new(8, 8);
/// stack.push(0, Grid2::filled(8, 8, 1.0)).unwrap();
/// stack.push(16, Grid2::filled(8, 8, 0.5)).unwrap();
/// let model = TemporalHpsModel::new([0.5, 0.3, 0.2], 0.5).unwrap();
/// let tracker = TemporalRiskTracker::new(model);
/// let frames = tracker.run(&[stack.clone(), stack.clone(), stack], 3).unwrap();
/// assert_eq!(frames.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TemporalRiskTracker {
    model: TemporalHpsModel,
}

impl TemporalRiskTracker {
    /// Creates a tracker for the given recursive model.
    pub fn new(model: TemporalHpsModel) -> Self {
        TemporalRiskTracker { model }
    }

    /// Runs the recursion over three observation stacks (one per model
    /// attribute) and returns each frame's top-K risk cells. Risk starts
    /// at zero everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] for `k == 0`, missing frames, or
    /// misaligned stacks.
    pub fn run(
        &self,
        observations: &[TemporalStack; 3],
        k: usize,
    ) -> Result<Vec<FrameTopK>, CoreError> {
        if k == 0 {
            return Err(CoreError::Query("k must be >= 1".into()));
        }
        let shape = observations[0].shape();
        let frames = observations[0].len();
        if frames == 0 {
            return Err(CoreError::Query("temporal stacks are empty".into()));
        }
        for stack in observations.iter().skip(1) {
            if stack.shape() != shape || stack.len() != frames {
                return Err(CoreError::Query(
                    "observation stacks misaligned in shape or frame count".into(),
                ));
            }
        }
        let (rows, cols) = shape;
        let mut risk = Grid2::filled(rows, cols, 0.0f64);
        // Retrieval over the risk surface treats it as a 1-attribute model.
        let identity = LinearModel::new(vec![1.0], 0.0).map_err(CoreError::Model)?;
        let mut out = Vec::with_capacity(frames);
        for f in 0..frames {
            let (day, x1) = observations[0].frame(f)?;
            let (_, x2) = observations[1].frame(f)?;
            let (_, x3) = observations[2].frame(f)?;
            let prev = risk;
            risk = Grid2::from_fn(rows, cols, |r, c| {
                self.model
                    .step([*x1.at(r, c), *x2.at(r, c), *x3.at(r, c)], *prev.at(r, c))
            });
            let pyramid = AggregatePyramid::build(&risk);
            let top_k = pyramid_top_k(&identity, &[pyramid], k)?;
            out.push(FrameTopK { day, top_k });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::synth::GaussianField;

    fn stacks(seed: u64, rows: usize, cols: usize, frames: usize) -> [TemporalStack; 3] {
        let make = |salt: u64| {
            let mut s = TemporalStack::new(rows, cols);
            for f in 0..frames {
                let g = GaussianField::new(seed + salt * 100 + f as u64)
                    .with_roughness(0.4)
                    .generate(rows, cols)
                    .normalized(0.0, 1.0);
                s.push(f as i64 * 16, g).expect("aligned frames");
            }
            s
        };
        [make(0), make(1), make(2)]
    }

    #[test]
    fn tracker_matches_bruteforce_recursion() {
        let obs = stacks(3, 16, 16, 5);
        let model = TemporalHpsModel::new([0.4, 0.3, 0.3], 0.6).unwrap();
        let tracker = TemporalRiskTracker::new(model.clone());
        let frames = tracker.run(&obs, 4).unwrap();
        assert_eq!(frames.len(), 5);

        // Brute-force: per-cell recursion, then sort each frame.
        let mut risk = vec![0.0f64; 16 * 16];
        for (f, frame) in frames.iter().enumerate() {
            let (day, x1) = obs[0].frame(f).unwrap();
            let (_, x2) = obs[1].frame(f).unwrap();
            let (_, x3) = obs[2].frame(f).unwrap();
            assert_eq!(frame.day, day);
            for r in 0..16 {
                for c in 0..16 {
                    risk[r * 16 + c] =
                        model.step([*x1.at(r, c), *x2.at(r, c), *x3.at(r, c)], risk[r * 16 + c]);
                }
            }
            let mut sorted: Vec<f64> = risk.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            for (got, want) in frame.top_k.results.iter().zip(&sorted) {
                assert!(
                    (got.score - want).abs() < 1e-9,
                    "frame {f}: {} vs {want}",
                    got.score
                );
            }
        }
    }

    #[test]
    fn risk_accumulates_with_persistence() {
        // Constant observations: risk converges upward to the fixed point.
        let mut constant = TemporalStack::new(4, 4);
        for f in 0..10 {
            constant.push(f, Grid2::filled(4, 4, 1.0)).unwrap();
        }
        let obs = [constant.clone(), constant.clone(), constant];
        let model = TemporalHpsModel::new([0.3, 0.3, 0.4], 0.5).unwrap();
        let frames = TemporalRiskTracker::new(model).run(&obs, 1).unwrap();
        let trajectory: Vec<f64> = frames.iter().map(|f| f.top_k.results[0].score).collect();
        for pair in trajectory.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12, "risk must be non-decreasing");
        }
        // Fixed point: 1.0 / (1 - 0.5) = 2.0.
        assert!((trajectory.last().unwrap() - 2.0).abs() < 0.01);
    }

    #[test]
    fn tracker_validates() {
        let obs = stacks(1, 8, 8, 3);
        let model = TemporalHpsModel::new([0.3, 0.3, 0.4], 0.5).unwrap();
        let tracker = TemporalRiskTracker::new(model);
        assert!(tracker.run(&obs, 0).is_err());
        let misaligned = [
            obs[0].clone(),
            obs[1].clone(),
            stacks(9, 4, 4, 3)[0].clone(),
        ];
        assert!(tracker.run(&misaligned, 1).is_err());
        let empty = [
            TemporalStack::new(8, 8),
            TemporalStack::new(8, 8),
            TemporalStack::new(8, 8),
        ];
        assert!(tracker.run(&empty, 1).is_err());
    }
}
