//! Control-flow prediction substrate for the slipstream reproduction.
//!
//! The paper builds its IR-predictor "on top of a conventional trace
//! predictor" (Jacobson, Rotenberg, Smith — *Path-Based Next Trace
//! Prediction*) and uses resetting confidence counters (Jacobsen,
//! Rotenberg, Smith — *Assigning Confidence to Conditional Branch
//! Predictions*). Both are reproduced here:
//!
//! - [`TraceId`], [`TraceBuilder`], [`materialize`] — the trace abstraction:
//!   a trace is up to 32 dynamic instructions identified by a start PC and
//!   embedded conditional-branch outcomes; indirect jumps and `halt` end a
//!   trace (their successor is captured by the *next* trace's start PC).
//! - [`TracePredictor`] — the hybrid path-based next-trace predictor
//!   (2^16-entry correlated table over the last 8 trace ids + 2^16-entry
//!   simple table over the last trace id), with speculative history and
//!   recovery, and modelled delayed update (updates happen at trace
//!   retirement, as in the paper's §5).
//! - [`ResettingCounter`] — the confidence mechanism the IR-predictor uses
//!   to gate instruction removal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confidence;
mod trace;
mod trace_pred;

pub use confidence::ResettingCounter;
pub use trace::{
    materialize, materialize_into, MaterializedTrace, TraceBuilder, TraceId, MAX_TRACE_LEN,
};
pub use trace_pred::{PathHistory, TracePredictor, TracePredictorConfig, TracePredictorStats};
