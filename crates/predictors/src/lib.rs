//! # bfbp-predictors
//!
//! Baseline branch predictors and shared predictor machinery for the
//! Bias-Free Branch Predictor reproduction:
//!
//! * [`counter`] — saturating counters and compact counter tables;
//! * [`history`] — global/folded/path history registers;
//! * [`bimodal`], [`gshare`] — classic table baselines;
//! * [`perceptron`] — the Jiménez–Lin global perceptron;
//! * [`piecewise`] — hashed piecewise-linear neural predictor (the
//!   paper's Figure 9 "Conventional Perceptron" baseline);
//! * [`snap`] — OH-SNAP-style scaled neural predictor (the paper's
//!   strongest neural baseline, Figure 8);
//! * [`loop_pred`] — the 64-entry skewed-associative loop-count
//!   predictor shared by ISL-TAGE and BF-Neural.
//!
//! ```
//! use bfbp_predictors::piecewise::PiecewiseLinear;
//! use bfbp_sim::simulate::simulate;
//! use bfbp_trace::synth::suite;
//!
//! let trace = suite::find("INT2").expect("suite trace").generate_len(5_000);
//! let mut predictor = PiecewiseLinear::conventional_64kb();
//! let result = simulate(&mut predictor, &trace);
//! assert!(result.accuracy() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bimodal;
pub mod counter;
pub mod gshare;
pub mod history;
pub mod loop_pred;
pub mod perceptron;
pub mod piecewise;
pub mod registry;
pub mod snap;

pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use loop_pred::{LoopLookup, LoopPrediction, LoopPredictor};
pub use perceptron::Perceptron;
pub use piecewise::{PiecewiseConfig, PiecewiseLinear};
pub use registry::register;
pub use snap::{ScaledNeural, ScaledNeuralConfig};
