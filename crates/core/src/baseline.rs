//! The paper's superscalar reference models: a single core driven by the
//! same trace predictor the slipstream processor uses (paper §5: "the same
//! trace predictor is used for accurate and high-bandwidth control flow
//! prediction in all three processor models").

use slipstream_cpu::{Core, CoreConfig, CoreStats};
use slipstream_isa::Program;
use slipstream_predict::TracePredictorConfig;

use crate::front_end::{FrontEndStats, TraceFrontEnd};

/// Result of a baseline superscalar run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineStats {
    /// Core counters (IPC = `core.ipc()`).
    pub core: CoreStats,
    /// Front-end counters (trace prediction accuracy).
    pub front_end: FrontEndStats,
    /// Whether the program ran to completion.
    pub halted: bool,
}

impl BaselineStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }
}

/// Runs `program` to completion (or `max_cycles`) on a single superscalar
/// core — the SS(64x4)/SS(128x8) models of the paper, depending on
/// `core_cfg`.
pub fn run_superscalar(
    core_cfg: CoreConfig,
    tp_cfg: TracePredictorConfig,
    program: &Program,
    max_cycles: u64,
) -> BaselineStats {
    run_superscalar_with_core(core_cfg, tp_cfg, program, max_cycles).0
}

/// Like [`run_superscalar`] but also returns the core for state
/// inspection (tests compare final architectural state to the functional
/// oracle).
pub fn run_superscalar_with_core(
    core_cfg: CoreConfig,
    tp_cfg: TracePredictorConfig,
    program: &Program,
    max_cycles: u64,
) -> (BaselineStats, Core) {
    let mut core = Core::new(core_cfg, program.initial_memory());
    let mut fe = TraceFrontEnd::baseline(program, tp_cfg);
    while !core.halted() && core.now() < max_cycles {
        // The front end observes every retirement through `on_retire`.
        core.cycle_quiet(&mut fe);
        // The baseline has no sync windows: train on every commit at once.
        fe.apply_training();
    }
    let stats = BaselineStats {
        core: *core.stats(),
        front_end: fe.spec.stats,
        halted: core.halted(),
    };
    (stats, core)
}
