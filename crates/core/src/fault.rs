//! Transient-fault experiments (paper §3, Figure 5).
//!
//! A single transient fault is injected as a bit flip in the result of one
//! dynamic instruction in either stream, and the run's outcome is
//! classified against the functional oracle:
//!
//! - **Scenario 1** (fault in a redundantly-executed instruction): the
//!   R-stream's comparison detects it as an "IR-misprediction" and recovery
//!   repairs the affected context → correct final output.
//! - **Scenario 2** (fault in an R-stream instruction the A-stream
//!   skipped): there is nothing to compare against → the corruption retires
//!   silently.
//! - **Scenario 3** (fault after a divergence point): recovery flushes the
//!   faulty instruction before it does damage.

use slipstream_cpu::{Core, FaultSpec};
use slipstream_isa::{ArchState, Program};

use crate::config::SlipstreamConfig;
use crate::rstream::IrMispKind;
use crate::slipstream::SlipstreamProcessor;
use crate::trace::{self, EventKind, FlightRecording, StreamId, TraceConfig, TraceEvent};

/// Which stream's core takes the bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The leading, reduced stream.
    AStream,
    /// The trailing, checking stream.
    RStream,
}

impl FaultTarget {
    /// The core in `proc` that takes this target's bit flips.
    pub fn core(self, proc: &SlipstreamProcessor) -> &Core {
        match self {
            FaultTarget::AStream => proc.a_core(),
            FaultTarget::RStream => proc.r_core(),
        }
    }
}

/// Classification of a fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Final architectural output matches the oracle and at least one
    /// fault-attributed divergence was detected along the way: detected
    /// and recovered.
    DetectedRecovered,
    /// The fault *fired* and the final output still matches the oracle
    /// without any fault-attributed detection — the flipped bit was
    /// architecturally dead.
    Masked,
    /// Final output differs from the oracle: the fault escaped the
    /// redundancy (e.g. scenario 2) — silent data corruption.
    SilentCorruption,
    /// The run did not complete within its cycle budget.
    Hang,
    /// The armed fault never fired (its target dynamic instruction was
    /// never dispatched — e.g. an A-stream sequence number beyond the
    /// reduced stream's length). The run is a dead injection site, not an
    /// architecturally-masked fault, and is excluded from campaign rate
    /// denominators (the paper's Figure 5 counts activated faults only).
    NotActivated,
}

/// Everything observed about one fault-injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Classified outcome.
    pub outcome: FaultOutcome,
    /// Whether the armed fault actually fired (its target instruction
    /// dispatched).
    pub fired: bool,
    /// Cycle at which the fault fired (`None` when not activated).
    pub fired_cycle: Option<u64>,
    /// IR-misprediction (divergence-detection) events *attributed to the
    /// fault*: the events from the point where this run's misprediction
    /// log first diverges from the fault-free baseline log. Downstream
    /// consumers can sum this across a campaign without double-counting
    /// ordinary removal-misprediction detections. (Post-recovery
    /// perturbation can shift later ordinary events in time; those shifted
    /// events count here too, so treat values > 1 as "detected, then
    /// perturbed" rather than as independent detections.)
    pub detections: u64,
    /// Raw IR-misprediction count of the run, baseline included.
    pub total_detections: u64,
    /// Cycles from the fault firing to the first fault-attributed
    /// detection event (`None` if the fault was never detected).
    pub detection_latency: Option<u64>,
    /// Cycles simulated.
    pub cycles: u64,
}

/// Runs `program` on the functional simulator to completion, returning the
/// golden final state.
///
/// # Panics
///
/// Panics if the program does not halt within `fuel` instructions.
pub fn golden_state(program: &Program, fuel: u64) -> ArchState {
    let mut st = ArchState::new(program);
    st.run_quiet(program, fuel)
        .expect("golden run must complete");
    st
}

/// Injects one fault into a fresh processor, runs it and classifies the
/// run against `golden` and the fault-free `baseline_misp` log (see
/// [`run_injected`] and [`FaultRun::classify`]).
pub fn run_fault_experiment(
    cfg: SlipstreamConfig,
    program: &Program,
    target: FaultTarget,
    fault: FaultSpec,
    max_cycles: u64,
    golden: &ArchState,
    baseline_misp: &[(IrMispKind, u64)],
) -> FaultReport {
    let mut proc = SlipstreamProcessor::new(cfg, program);
    run_injected(&mut proc, target, fault, max_cycles, golden).classify(baseline_misp)
}

/// [`run_fault_experiment`] with a flight recorder: the run is recorded
/// under `trace`, and the returned [`FlightRecording`] holds the event
/// window plus a synthesized [`EventKind::FaultDetected`] event at the
/// attributed detection point (detection is only knowable post-run,
/// against the baseline log).
#[allow(clippy::too_many_arguments)]
pub fn run_fault_experiment_traced(
    cfg: SlipstreamConfig,
    program: &Program,
    target: FaultTarget,
    fault: FaultSpec,
    max_cycles: u64,
    golden: &ArchState,
    baseline_misp: &[(IrMispKind, u64)],
    trace: TraceConfig,
) -> (FaultReport, FlightRecording) {
    let mut proc = SlipstreamProcessor::new(cfg, program);
    proc.enable_tracing(trace);
    let report = run_injected(&mut proc, target, fault, max_cycles, golden).classify(baseline_misp);
    let detection = proc
        .misp_log()
        .get(first_divergence(proc.misp_log(), baseline_misp))
        .copied();
    let mut recording = proc.flight_recording().expect("tracing is enabled");
    if let Some((kind, det_cycle)) = detection {
        let (_code, pc) = trace::misp_code(kind);
        recording.insert_event(TraceEvent {
            cycle: det_cycle,
            seq: fault.seq,
            pc,
            arg: report.detection_latency.unwrap_or(0),
            stream: StreamId::Machine,
            kind: EventKind::FaultDetected,
        });
    }
    (report, recording)
}

/// What a finished fault run leaves for classification: everything
/// [`FaultRun::classify`] needs except the fault-free baseline log, so a
/// campaign can run its sites before its baseline run has halted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRun {
    /// Whether the program halted within the cycle budget.
    halted: bool,
    /// Whether the run halted with the R-core's registers and memory equal
    /// to the golden state.
    correct: bool,
    /// Whether the armed fault fired (its target instruction dispatched).
    fired: bool,
    /// Cycle at which the fault fired.
    fired_cycle: Option<u64>,
    /// Cycles simulated.
    cycles: u64,
    /// The run's `(kind, cycle)` IR-misprediction log.
    misp_log: Vec<(IrMispKind, u64)>,
}

impl FaultRun {
    /// Observes `proc` as its run ended: `target` names the core whose
    /// fault statistics count, and the R-core's final state is compared
    /// with `golden`.
    pub fn observe(
        proc: &SlipstreamProcessor,
        target: FaultTarget,
        golden: &ArchState,
    ) -> FaultRun {
        let stats = target.core(proc).stats();
        let halted = proc.halted();
        let correct = halted
            && proc.r_core().arch_regs() == golden.regs()
            && proc.r_core().mem().first_difference(golden.mem()).is_none();
        FaultRun {
            halted,
            correct,
            fired: stats.faults_injected > 0,
            fired_cycle: stats.fault_fired_cycle,
            cycles: proc.cycles(),
            misp_log: proc.misp_log().to_vec(),
        }
    }

    /// Classifies the run against `baseline_misp`, the `(kind, cycle)`
    /// IR-misprediction log of a fault-free run of the same program and
    /// config (ordinary mispredicted removals also trigger detection).
    ///
    /// Until the fault fires the simulation is deterministic and its log
    /// matches the baseline exactly, so the first event that differs — in
    /// kind *or* cycle — is the fault's detection. Comparing logs rather
    /// than raw counts stays correct when the fault's detection sits
    /// *before* remaining baseline events, and when post-recovery
    /// perturbation adds or removes ordinary events downstream (a count
    /// delta would misclassify both).
    pub fn classify(&self, baseline_misp: &[(IrMispKind, u64)]) -> FaultReport {
        // Everything up to `common` is ordinary removal mispredictions
        // (identical kind and cycle); the event at `common`, if any, is the
        // fault's detection, and everything after it is fault-perturbed.
        let common = first_divergence(&self.misp_log, baseline_misp);
        let attributed = (self.misp_log.len() - common) as u64;
        let detection_latency = self
            .misp_log
            .get(common)
            .zip(self.fired_cycle)
            .map(|(&(_, det), fire)| det.saturating_sub(fire));
        // Classify on `fired` first: a fault that never dispatched is a dead
        // injection site (NotActivated), not an architecturally-masked fault.
        let outcome = if !self.halted {
            FaultOutcome::Hang
        } else if !self.fired {
            if self.correct {
                FaultOutcome::NotActivated
            } else {
                // An unfired fault cannot corrupt output; surface the
                // divergence as corruption so simulator bugs stay visible.
                FaultOutcome::SilentCorruption
            }
        } else if !self.correct {
            FaultOutcome::SilentCorruption
        } else if attributed > 0 {
            FaultOutcome::DetectedRecovered
        } else {
            FaultOutcome::Masked
        };
        FaultReport {
            outcome,
            fired: self.fired,
            fired_cycle: self.fired_cycle,
            detections: attributed,
            total_detections: self.misp_log.len() as u64,
            detection_latency,
            cycles: self.cycles,
        }
    }
}

/// Arms `fault` on `proc` and runs it to `max_cycles`; classify the
/// returned run with [`FaultRun::classify`].
///
/// `proc` is either fresh or a fault-free run of the same program that has
/// not yet dispatched the target instruction (its target core's
/// `next_seq()` is at most `fault.seq`): a clone of such a run, armed
/// here, reproduces exactly the run that was armed at cycle 0, because a
/// not-yet-fired fault changes nothing until its instruction dispatches.
/// A campaign forks each site from its fault-free leader while the leader
/// is still short of the site's instruction, so the fork re-simulates at
/// most one fork stride of fault-free prefix, and classifies every site
/// once the leader has halted and its misprediction log is the baseline.
pub fn run_injected(
    proc: &mut SlipstreamProcessor,
    target: FaultTarget,
    fault: FaultSpec,
    max_cycles: u64,
    golden: &ArchState,
) -> FaultRun {
    assert!(
        target.core(proc).next_seq() <= fault.seq,
        "fault at seq {} armed after its instruction dispatched",
        fault.seq
    );
    match target {
        FaultTarget::AStream => proc.arm_fault_a(fault),
        FaultTarget::RStream => proc.arm_fault_r(fault),
    }
    proc.run(max_cycles);
    FaultRun::observe(proc, target, golden)
}

/// Length of the common prefix of a run's misprediction log and the
/// fault-free baseline log.
fn first_divergence(log: &[(IrMispKind, u64)], baseline: &[(IrMispKind, u64)]) -> usize {
    log.iter().zip(baseline).take_while(|(a, b)| a == b).count()
}
