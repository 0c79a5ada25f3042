#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
//! # mbir-models
//!
//! The three model families of the ICDCS 2000 paper (§2), each with a
//! progressive decomposition (§3.1):
//!
//! * [`linear`] — linear time-invariant models: ordinary least squares
//!   calibration (own dense [`linalg`]), the Hantavirus Pulmonary Syndrome
//!   risk model, the FICO credit-score model, and coefficient-ranked
//!   progressive stages with sound residual bounds.
//! * [`fsm`] — finite-state models: deterministic predicate machines, the
//!   fire-ants model of Fig. 1, event-stream runners, and
//!   over-approximating coarsened machines for progressive screening.
//! * [`bayes`] + [`fuzzy`] + [`knowledge`] — Bayesian networks (exact
//!   inference), fuzzy memberships, and multi-modal
//!   knowledge models (the high-risk-house network of Fig. 3 and the
//!   geology riverbed model of Fig. 4).
//!
//! ```
//! use mbir_models::linear::LinearModel;
//!
//! let model = LinearModel::new(vec![0.443, 0.222, 0.153, 0.183], 0.0).unwrap();
//! let risk = model.evaluate(&[0.5, 0.3, 0.2, 0.9]);
//! assert!(risk > 0.0);
//! ```

pub mod bayes;
pub mod error;
pub mod fsm;
pub mod fuzzy;
pub mod knowledge;
pub mod linalg;
pub mod linear;

pub use bayes::BayesNet;
pub use error::ModelError;
pub use fsm::Fsm;
pub use linear::{LinearModel, ProgressiveLinearModel};
