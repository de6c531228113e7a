//! The slipstream microarchitecture (the paper's contribution).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
/// Differential invariant checkers for the fuzzing subsystem.
pub mod check;
/// Processor and removal-policy configuration (paper Table 2).
pub mod config;
pub mod delay;
pub mod detector;
pub mod fault;
pub mod front_end;
/// The IR-predictor's removal table (ir-vecs + confidence).
pub mod ir_table;
pub mod recovery;
/// Removal reasons and Figure 8 accounting categories.
pub mod removal;
pub mod rstream;
pub mod slipstream;
/// Flight-recorder tracing, interval metrics, and trace merging.
pub mod trace;

pub use baseline::{run_superscalar, run_superscalar_with_core, BaselineStats};
pub use check::{
    catch_check, check_all, standard_invariants, CoreOracle, CycleAccounting, Invariant, RunKey,
    SlipstreamOracle, StatsSanity,
};
pub use config::{RemovalPolicy, SlipstreamConfig};
pub use delay::{DelayBuffer, DelayEntry, TraceCommit};
pub use detector::{DetectorOutput, IrDetector};
pub use fault::{
    golden_state, run_fault_experiment, run_fault_experiment_traced, run_injected, FaultOutcome,
    FaultReport, FaultTarget,
};
pub use front_end::{FeCheckpoint, FrontEndStats, TraceFrontEnd};
pub use ir_table::{IrTable, RemovalInfo};
pub use recovery::{RecoveryController, RecoveryOutcome};
pub use removal::{Category, Reason};
pub use rstream::{IrMispKind, RStreamDriver};
pub use slipstream::{ExecMode, SlipstreamProcessor, SlipstreamStats};
pub use slipstream_cpu::{CpiCat, CpiStack, L2Config};
/// Host-side telemetry (re-exported so
/// [`SlipstreamProcessor::take_telemetry`]'s types are reachable).
pub use slipstream_telemetry as telemetry;
pub use trace::{
    EventKind, FlightRecording, IntervalSample, IntervalSampler, StreamId, TraceConfig, TraceEvent,
    TraceSink, NO_SEQ,
};
