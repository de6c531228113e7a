//! Control-flow prediction substrate for the slipstream reproduction.
//!
//! The paper builds its IR-predictor "on top of a conventional trace
//! predictor" (Jacobson, Rotenberg, Smith — *Path-Based Next Trace
//! Prediction*) and uses resetting confidence counters (Jacobsen,
//! Rotenberg, Smith — *Assigning Confidence to Conditional Branch
//! Predictions*). Both are reproduced here:
//!
//! - [`TraceId`], [`ends_trace`], [`TraceBuilder`], [`walk`] — the trace
//!   abstraction: a trace is up to 32 dynamic instructions identified by a
//!   start PC and embedded conditional-branch outcomes; indirect jumps and
//!   `halt` end a trace (their successor is captured by the *next* trace's
//!   start PC). This crate alone decides where a trace ends: the one
//!   builder segments a retired stream, and the one walker follows an id
//!   (or the static not-taken path) through the program text.
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
    ends_trace, materialize_into, walk, TraceBuilder, TraceId, WalkEnd, MAX_TRACE_LEN,
};
pub use trace_pred::{PathHistory, TracePredictor, TracePredictorConfig};
