//! # bfbp-core
//!
//! The Bias-Free Branch Predictor — the primary contribution of Gope &
//! Lipasti, *"Bias-Free Branch Predictor"*, MICRO-47 (2014) — implemented
//! from scratch:
//!
//! * [`bst`] — the Branch Status Table FSM detecting non-biased branches
//!   at runtime (2-bit and probabilistic 3-bit variants);
//! * [`recency`] — the recency stack with positional history;
//! * [`bf_neural`] — the BF-Neural predictor (idealized Algorithm 1 and
//!   practical Algorithms 2–3), with the Figure 9 ablation knobs;
//! * [`bf_ghr`] — the segmented recency stacks forming the compressed
//!   bias-free history register of BF-TAGE;
//! * [`bf_tage`] — BF-TAGE and BF-ISL-TAGE;
//! * [`profile`] — static profile-assisted bias classification (§VI-D).
//!
//! ```
//! use bfbp_core::bf_neural::BfNeural;
//! use bfbp_sim::simulate::simulate;
//! use bfbp_trace::synth::suite;
//!
//! let trace = suite::find("SPEC03").expect("suite trace").generate_len(5_000);
//! let mut predictor = BfNeural::budget_64kb();
//! let result = simulate(&mut predictor, &trace);
//! println!("{}", result);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bf_ghr;
pub mod bf_neural;
pub mod bf_tage;
pub mod bst;
pub mod profile;
pub mod recency;
pub mod registry;

pub use bf_ghr::{BfGhr, GhrEntry, SEGMENT_BOUNDARIES, SEGMENT_RS_SIZE};
pub use bf_neural::{BfNeural, BfNeuralConfig, HistoryMode, IdealBfNeural};
pub use bf_tage::{bf_isl_tage, BfIslTage, BfTage};
pub use bst::{BranchStatus, Bst, Classifier, ProbabilisticBst};
pub use profile::StaticProfile;
pub use recency::{RecencyStack, RsEntry};
pub use registry::register;
