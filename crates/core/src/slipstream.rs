//! The slipstream processor: two cores on a CMP, the IR-predictor front
//! end reducing the leading A-stream, the delay buffer feeding the
//! trailing R-stream, the IR-detector learning what to remove, and the
//! recovery controller repairing the A-stream when removal went wrong
//! (paper §2, Figure 1).
//!
//! # Decoupled execution
//!
//! The two cores are coupled only through the delay buffer and recovery
//! events, and that coupling is *one-directional per cycle*: A→R traffic
//! (delay entries, trace commits) is consumed by the R-stream strictly
//! after the A-stream produced it, while R→A influence (back-pressure,
//! IR-detector training, recovery) is latency-tolerant — it only has to
//! reach the A-stream within a bounded slack. The machine is therefore
//! split into an [`AHalf`] and an [`RHalf`] exchanging per-cycle
//! [`CycleBatch`]es, with three interchangeable schedulers that all
//! produce byte-identical results:
//!
//! - **serial** ([`SlipstreamProcessor::step`], or
//!   [`SlipstreamProcessor::run_mode`] with [`ExecMode::Serial`]) — one
//!   batch at a time, cores in lockstep; the reference semantics.
//! - **slack-window** ([`SlipstreamProcessor::run`], the default) — the
//!   A-stream runs `sync_quantum` cycles in a burst against a boundary
//!   credit budget, then the R-stream consumes the whole window; recovery
//!   rolls the A-stream back to a boundary checkpoint and deterministically
//!   replays it to the exact recovery cycle.
//! - **two threads** ([`ExecMode::Threaded`]) — the same
//!   window loop, except that each window's A cycles run on a helper
//!   thread while the R-stream consumes their batches on the calling
//!   thread. The A half goes back to the calling thread at every boundary,
//!   so checkpoint, boundary sync, recovery and the halt rollback have one
//!   implementation for both window schedulers.
//!
//! Recovery is a sync boundary. It runs once both halves sit at the
//! detection cycle, goes through the same hand-off as a window boundary
//! (deferred learning, shared-L2 merge, credits), and repairs the
//! A-stream's registers and tracked memory locations straight from the
//! R-core. Neither half keeps a copy of the other's state for it.
//!
//! Determinism rests on three invariants, enforced here and in
//! [`TraceFrontEnd`]: (1) all learning (trace-predictor training,
//! IR-table observations) is deferred to window boundaries, so the
//! A-stream's fetch decisions inside a window depend only on boundary
//! state; (2) the A-stream's retire budget is computed from
//! boundary-snapshot delay-buffer occupancy plus its own in-window pushes
//! — never from the live buffer the R-stream is draining; (3) recovery
//! always restarts the window grid at the recovery cycle.

use slipstream_cpu::{Core, CoreStats, FaultSpec, L2View};
use slipstream_isa::Program;
use slipstream_predict::{PathHistory, TraceId};
use slipstream_telemetry::{SpanKind, Telemetry};
use std::sync::mpsc::{self, Receiver, RecvError, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use crate::config::SlipstreamConfig;
use crate::delay::{Credits, DelayEntry, TraceCommit};
use crate::front_end::{FeSpec, FrontEndStats, TraceFrontEnd};
use crate::ir_table::{IrTable, RemovalInfo};
use crate::removal::Reason;
use crate::rstream::{IrMispKind, OnlineChecker, RStreamDriver};
use crate::trace::{
    self, EventKind, FlightRecording, IntervalSample, IntervalSampler, StreamId, TraceConfig,
    TraceEvent, TraceSink, NO_SEQ,
};

/// If the R-stream retires nothing for this many cycles the simulation is
/// wedged (a harness bug, not a program property) and we panic loudly.
const HARNESS_WATCHDOG: u64 = 2_000_000;

/// Which scheduler [`SlipstreamProcessor::run_mode`] uses. All three are
/// byte-identical in results; they differ only in wall-clock performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Cycle-by-cycle lockstep (the reference semantics).
    Serial,
    /// Slack-window batching on one thread (the default).
    Windowed,
    /// Slack-window batching with each window's A cycles on a helper
    /// thread.
    Threaded,
}

impl ExecMode {
    /// The scheduler's name in run manifests.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Serial => "serial",
            ExecMode::Windowed => "windowed",
            ExecMode::Threaded => "threaded",
        }
    }
}

/// End-of-run summary of a slipstream execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SlipstreamStats {
    /// Total cycles simulated (both cores advance in lockstep).
    pub cycles: u64,
    /// Instructions retired by the R-stream — the full program, counted
    /// once; the paper's IPC numerator.
    pub r_retired: u64,
    /// Instructions retired by the (reduced) A-stream.
    pub a_retired: u64,
    /// Combined IPC: `r_retired / cycles` (paper §5).
    pub ipc: f64,
    /// Dynamic instructions skipped by the A-stream.
    pub skipped: u64,
    /// Skips by removal reason (Figure 8 accounting).
    pub skipped_by_reason: Vec<(Reason, u64)>,
    /// `skipped / r_retired`: the fraction of the dynamic stream removed.
    pub removal_fraction: f64,
    /// IR-mispredictions detected.
    pub ir_mispredictions: u64,
    /// Cycle of each IR-misprediction detection, in order (the cycle
    /// column of [`SlipstreamProcessor::misp_log`], which fault
    /// experiments compare against a baseline run's log to attribute
    /// detections and measure latency).
    pub misp_cycles: Vec<u64>,
    /// IR-mispredictions per 1000 retired instructions (Table 3).
    pub ir_misp_per_kilo: f64,
    /// Mean recovery latency in cycles (Table 3's "avg. IR-misprediction
    /// penalty").
    pub avg_ir_penalty: f64,
    /// A-stream conventional branch mispredictions per 1000 retired
    /// instructions (Table 3's CMP row).
    pub branch_misp_per_kilo: f64,
    /// Memory locations restored across all recoveries.
    pub mem_restored: u64,
    /// Operand values delivered to the R-stream as matching predictions.
    pub value_hints: u64,
    /// A-stream core counters.
    pub a_core: CoreStats,
    /// R-stream core counters.
    pub r_core: CoreStats,
    /// A-stream front-end counters.
    pub front_end: FrontEndStats,
    /// Whether the program ran to completion (`halt` retired in the
    /// R-stream).
    pub halted: bool,
}

/// One simulated cycle's worth of A→R traffic: everything the A-stream
/// produced at `cycle` that the R-stream consumes. In the window
/// schedulers a window's batches exist *outside* the delay buffer until the
/// R-stream pushes them in — capacity accounting happens on the A side via
/// the boundary credit budget, mirroring the real buffer's limits.
#[derive(Debug, Clone, Default)]
struct CycleBatch {
    cycle: u64,
    entries: Vec<DelayEntry>,
    commits: Vec<TraceCommit>,
    applied: Vec<(u64, TraceId)>,
    /// The A-core's flight-recorder events of this cycle (empty unless
    /// tracing): the R side keeps the ring, so a batch thrown away by a
    /// rollback takes its events with it.
    events: Vec<TraceEvent>,
    sample: Option<ASample>,
}

/// A-side counters captured at an interval-sampler due cycle (the sampler
/// itself lives on the R side, which may consume this cycle much later).
#[derive(Debug, Clone, Copy)]
struct ASample {
    a_stats: CoreStats,
    fe_stats: FrontEndStats,
}

/// What the R-stream observed while consuming one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RPhase {
    /// Nothing notable; keep going.
    Ok,
    /// The program's `halt` retired.
    Halted,
    /// An IR-misprediction was flagged; recovery must run at this cycle.
    /// (Takes priority over `Halted`: recovery flushes the R-core, which
    /// clears a halt that retired on the same divergent path.)
    Misp,
}

/// The leading core and its front end: everything the A-stream touches
/// while running a window, plus the boundary credit budget that stands in
/// for live delay-buffer back-pressure.
#[derive(Clone)]
struct AHalf {
    core: Core,
    fe: TraceFrontEnd,
    cycles: u64,
    /// Delay-buffer back-pressure, as of the last sync boundary plus this
    /// side's pushes since.
    credits: Credits,
    /// Interval-sampler period (0 = off), mirrored from the R side so
    /// A-side counters are captured at exactly the due cycles.
    sample_interval: u64,
    /// Host-side telemetry for the A side (`None` = off, the zero-cost
    /// default). It travels with the half: a threaded run records
    /// `a_window_exec` into it on the helper thread and every other A span
    /// on the calling thread.
    tel: Option<Box<Telemetry>>,
}

/// A boundary snapshot of the A side, for rollback-and-replay recovery.
struct ACheckpoint {
    core: Core,
    fe: FeSpec,
    cycles: u64,
    credits: Credits,
}

slipstream_isa::clone_in_place!(ACheckpoint {
    core,
    fe,
    cycles,
    credits
});

impl AHalf {
    /// Runs one A-stream cycle into `batch`.
    fn run_cycle(&mut self, batch: &mut CycleBatch) {
        self.cycles += 1;
        batch.cycle = self.cycles;
        batch.entries.clear();
        batch.commits.clear();
        batch.applied.clear();
        batch.events.clear();
        batch.sample = None;

        // Delay-buffer back-pressure gates A-stream retirement.
        self.fe.retire_budget = self.credits.retire_budget();
        // `cycle_quiet`: the A side observes retirement through its front
        // end only, so materializing the `Retired` records would be a pure
        // ~130-byte-per-instruction copy.
        self.core.cycle_quiet(&mut self.fe);
        self.core.drain_trace(&mut batch.events);

        // Zero-copy hand-off: count the push credits, then swap the front
        // end's output buffers straight into the batch (the batch's cleared
        // vectors become the front end's recycled scratch for next cycle).
        for e in &self.fe.out_entries {
            self.credits.count(e);
        }
        std::mem::swap(&mut batch.entries, &mut self.fe.out_entries);
        std::mem::swap(&mut batch.applied, &mut self.fe.out_applied);
        std::mem::swap(&mut batch.commits, &mut self.fe.out_commits);

        if self.sample_interval != 0 && self.cycles.is_multiple_of(self.sample_interval) {
            batch.sample = Some(ASample {
                a_stats: *self.core.stats(),
                fe_stats: self.fe.spec.stats,
            });
        }
    }

    /// Boundary checkpoint (must be taken at a sync boundary — the front
    /// end asserts its deferred queues are empty).
    fn checkpoint(&self) -> ACheckpoint {
        let mut fe = FeSpec::default();
        self.fe.checkpoint_into(&mut fe);
        ACheckpoint {
            core: self.core.clone(),
            fe,
            cycles: self.cycles,
            credits: self.credits,
        }
    }

    /// [`AHalf::checkpoint`] into an existing snapshot, reusing its
    /// buffers (the schedulers re-checkpoint every window).
    fn checkpoint_into(&self, out: &mut ACheckpoint) {
        out.core.clone_from(&self.core);
        self.fe.checkpoint_into(&mut out.fe);
        out.cycles = self.cycles;
        out.credits = self.credits;
    }

    /// Restores `ck` and deterministically re-runs to `target` (inclusive),
    /// discarding the regenerated batches — the R-stream already consumed
    /// the prefix. Replay reproduces the original cycles exactly: fetch
    /// decisions depend only on boundary state (learning is deferred), the
    /// credit budget is part of the checkpoint, and an armed fault refires
    /// at the same sequence number.
    fn rollback_replay(&mut self, ck: &ACheckpoint, target: u64, scratch: &mut CycleBatch) {
        self.core.clone_from(&ck.core);
        self.fe.restore(&ck.fe);
        self.cycles = ck.cycles;
        self.credits = ck.credits;
        while self.cycles < target {
            self.run_cycle(scratch);
        }
    }
}

/// The trailing core, its driver (which owns the delay buffer, the
/// IR-detector and the recovery controller), and everything downstream
/// of it: the online checker, the misprediction log, the removal counts,
/// and every flight-recorder ring (all of which observe consumed batches
/// and committed state only, so they never roll back).
#[derive(Clone)]
struct RHalf {
    core: Core,
    drv: RStreamDriver,
    /// Path history mirrored on the verification side, so IR-detector
    /// outputs are filed under the same context keys the A-stream uses for
    /// lookups.
    observe_hist: PathHistory,
    applied_pending: Vec<(u64, TraceId)>,
    cycles: u64,
    /// Skipped delay entries consumed, indexed by removal [`Reason`] bits.
    skipped_by_reason: [u64; 16],
    penalty_sum: u64,
    mem_restored_sum: u64,
    last_r_progress: u64,
    strict: bool,
    /// Log of detected IR-mispredictions (kind, cycle), one row per
    /// recovery — used by the fault experiments to classify outcomes.
    misp_log: Vec<(IrMispKind, u64)>,
    /// The A side's and the machine's flight-recorder rings + interval
    /// sampler (`None` = tracing disabled, which also leaves every
    /// component sink uninstalled).
    machine_trace: Option<MachineTrace>,
    /// IR-detector observations deferred to the next sync boundary (the
    /// IR-table lives on the A side; shipping observations at boundaries
    /// keeps every scheduler's table updates at identical points).
    obs_q: Vec<(u64, TraceId, RemovalInfo)>,
    /// Host-side telemetry for the R/consuming side (`None` = off).
    tel: Option<Box<Telemetry>>,
}

/// `Some(now)` only when telemetry is on — the telemetry-off path must
/// never call `Instant::now`.
fn tel_now(tel: &Option<Box<Telemetry>>) -> Option<Instant> {
    tel.is_some().then(Instant::now)
}

/// Records `start.elapsed()` into `kind`; a `None` start (telemetry off)
/// records nothing.
fn tel_span(tel: &mut Option<Box<Telemetry>>, kind: SpanKind, start: Option<Instant>) {
    if let (Some(t0), Some(tel)) = (start, tel.as_deref_mut()) {
        tel.record_span(kind, t0.elapsed().as_nanos() as u64);
    }
}

/// Machine-level observability state, present only while tracing.
#[derive(Clone)]
struct MachineTrace {
    /// The A-core's events, fed from each consumed batch and from the
    /// A-core's flush at recovery.
    a_core: TraceSink,
    /// The A-stream's removals, one per consumed skipped entry.
    a_fe: TraceSink,
    /// Sink for cross-stream events (delay traffic, IR-misps, recovery).
    sink: TraceSink,
    sampler: IntervalSampler,
}

impl RHalf {
    /// Consumes one A-stream cycle batch: routes delay traffic, advances
    /// the R-core, checks, and trains the detector.
    fn consume_cycle(&mut self, batch: &mut CycleBatch) -> RPhase {
        self.cycles = batch.cycle;
        if let Some(mt) = self.machine_trace.as_mut() {
            mt.a_core.extend(batch.events.iter().copied());
            mt.a_fe.set_cycle(self.cycles);
            mt.sink.set_cycle(self.cycles);
        }
        if let Some(t) = self.drv.trace.as_mut() {
            t.set_cycle(self.cycles);
        }

        // Route the A-stream's retirement output into the delay buffer: one
        // read-only pass for the bookkeeping, then the batch's entries move
        // into the buffer's ring (the batch keeps its emptied vector for
        // refilling).
        for e in &batch.entries {
            if e.is_skipped() {
                let bits = e.reason().bits();
                self.skipped_by_reason[bits as usize] += 1;
                if let Some(mt) = self.machine_trace.as_mut() {
                    mt.a_fe
                        .record(EventKind::Removed, NO_SEQ, e.pc, u64::from(bits));
                }
            }
            if let Some(mt) = self.machine_trace.as_mut() {
                mt.sink
                    .record(EventKind::DelayEnqueue, NO_SEQ, e.pc, e.is_skipped() as u64);
            }
        }
        self.drv.delay.push_chunk(&mut batch.entries);
        self.applied_pending.extend_from_slice(&batch.applied);
        for &c in &batch.commits {
            self.drv.delay.push_commit(c);
        }

        // Advance the R-stream. Its driver observes every retirement.
        if !self.core.halted() {
            let retired_before = self.core.stats().retired;
            self.core.cycle_quiet(&mut self.drv);
            if self.core.stats().retired != retired_before {
                self.last_r_progress = self.cycles;
            }
        }

        // IR-detector outputs: verify the A-stream's applied removals now;
        // queue the IR-table training for the next sync boundary.
        while let Some(out) = self.drv.detector.pop_output() {
            if let Some(c) = self.drv.delay.pop_commit() {
                if c.used_vec & !out.info.ir_vec != 0 {
                    // The A-stream removed something the detector says was
                    // effectual: early IR-misprediction detection.
                    self.drv.flag(IrMispKind::VecMismatch {
                        trace_start: out.id.start_pc,
                    });
                } else {
                    for &(slot, addr, w) in out.stores.iter() {
                        if (c.used_vec >> slot) & 1 == 1 {
                            self.drv.recovery.remove_do(addr, w);
                        }
                    }
                    if c.used_vec != 0 {
                        if let Some(pos) =
                            self.applied_pending.iter().position(|(_, id)| *id == c.id)
                        {
                            self.applied_pending.remove(pos);
                        }
                    }
                }
            }
            let key = self.observe_hist.context_hash();
            self.obs_q.push((key, out.id, out.info));
            self.observe_hist.push(out.id);
        }
        if self.applied_pending.len() > 4096 {
            // Leaked entries from truncated reduced traces; the list is
            // only a recovery-time penalty hint, so trimming is safe.
            self.applied_pending.drain(..2048);
        }

        if let Some(mt) = &self.machine_trace {
            if mt.sampler.due(self.cycles) {
                let s = batch.sample.expect("A side samples at the same due cycles");
                self.sample(&s.a_stats, &s.fe_stats);
            }
        }

        assert!(
            self.cycles - self.last_r_progress < HARNESS_WATCHDOG,
            "slipstream wedged: no R-stream retirement since cycle {} (now {}; \
             delay buffer {} entries, restart pc {:#x})",
            self.last_r_progress,
            self.cycles,
            self.drv.delay.len(),
            self.drv.restart_pc,
        );

        if self.drv.ir_misp.is_some() {
            RPhase::Misp
        } else if self.core.halted() {
            RPhase::Halted
        } else {
            RPhase::Ok
        }
    }

    /// Skipped delay entries consumed so far.
    fn skipped(&self) -> u64 {
        self.skipped_by_reason.iter().sum()
    }

    /// Appends the interval sample ending at the current cycle, given the
    /// A side's counters as of that cycle (a no-op unless tracing).
    fn sample(&mut self, a_stats: &CoreStats, fe_stats: &FrontEndStats) {
        let skipped = self.skipped();
        if let Some(mt) = self.machine_trace.as_mut() {
            mt.sampler.sample(
                self.cycles,
                a_stats,
                self.core.stats(),
                fe_stats,
                skipped,
                self.misp_log.len() as u64,
                self.drv.value_hints,
                self.drv.delay.len() as u64,
            );
        }
    }
}

/// The sync-boundary hand-off, shared by boundaries and recoveries: flush
/// deferred learning into the A side's predictor/IR-table, merge the two
/// cores' shared-L2 logs onto both replicas, and refresh the A side's
/// credit budget from live delay-buffer occupancy. Both halves must sit
/// at the same cycle.
fn sync_halves(a: &mut AHalf, r: &mut RHalf) {
    a.fe.apply_training();
    for (key, id, info) in r.obs_q.drain(..) {
        a.fe.ir_table.observe(key, id, info);
    }
    a.core.sync_l2(&mut r.core);
    a.credits = r.drv.delay.credits();
}

/// A window boundary: [`sync_halves`], timed as `r_boundary_sync`.
fn boundary_sync(a: &mut AHalf, r: &mut RHalf) {
    let t0 = tel_now(&r.tel);
    sync_halves(a, r);
    tel_span(&mut r.tel, SpanKind::RBoundarySync, t0);
}

/// IR-misprediction recovery (paper §2.3). Recovery is a sync boundary:
/// the A half must sit at the detection cycle, either because it runs in
/// lockstep or because it was rolled back and replayed there.
///
/// The R side goes first (timed as `r_recovery_build`): it logs the
/// misprediction, latches the undo list from the delay buffer, charges the
/// recovery latency, and flushes and restarts its core. It does not read
/// A. Then the boundary hand-off runs, and the A-stream context is
/// repaired from the R-core (timed as `a_recover_apply`): the tracked
/// memory locations and the whole register file are copied over, the
/// A-stream restarts behind the same latency, and the unverified removals
/// it applied are penalized.
fn recover(a: &mut AHalf, r: &mut RHalf, cfg: &SlipstreamConfig) {
    debug_assert_eq!(a.cycles, r.cycles, "A must sit at the recovery cycle");
    let t0 = tel_now(&r.tel);
    let kind = r.drv.ir_misp.expect("called only when flagged");
    r.misp_log.push((kind, r.cycles));
    let restart = r.drv.restart_pc;
    // The undo list is the delay buffer's executed stores: latch it
    // before the reset below clears the buffer.
    r.drv.recovery.latch_undo(&r.drv.delay);
    let latency = cfg.recovery_latency(r.drv.recovery.tracked() as u64);
    if let Some(mt) = r.machine_trace.as_mut() {
        let (code, pc) = trace::misp_code(kind);
        mt.sink.record(EventKind::IrMispredict, NO_SEQ, pc, code);
        mt.sink
            .record(EventKind::Recovery, NO_SEQ, restart, latency);
    }
    r.core.flush();
    r.drv.reset_for_recovery();
    let r_resume = r.core.now() + latency;
    r.core.stall_fetch_recovery(r_resume);
    r.penalty_sum += latency;
    tel_span(&mut r.tel, SpanKind::RRecoveryBuild, t0);

    let t0 = tel_now(&a.tel);
    // Observations reach the IR table before the penalties below.
    sync_halves(a, r);
    r.mem_restored_sum += r.drv.recovery.repair(r.core.mem(), a.core.mem_mut()) as u64;
    a.core.flush();
    if let Some(mt) = r.machine_trace.as_mut() {
        a.core.drain_trace(&mut mt.a_core);
    }
    a.core.set_regs(r.core.arch_regs());
    a.fe.reset_to(restart);
    for (key, _) in r.applied_pending.drain(..) {
        a.fe.ir_table.penalize(key);
    }
    let a_resume = a.core.now() + latency;
    a.core.stall_fetch_recovery(a_resume);
    if r.strict {
        assert_eq!(a.core.arch_regs(), r.core.arch_regs());
        if let Some(addr) = a.core.mem().first_difference(r.core.mem()) {
            panic!(
                "post-recovery divergence: A and R memories differ at {addr:#x} \
                 (A={:#x}, R={:#x})",
                a.core.mem().load_word(addr & !7),
                r.core.mem().load_word(addr & !7),
            );
        }
    }
    tel_span(&mut a.tel, SpanKind::ARecoverApply, t0);
}

/// Blocking receive that spins, then yields, instead of parking: the two
/// threads of a threaded run hand over every few microseconds, and a
/// park/unpark round trip through the OS costs more than the wait.
fn recv_spin<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let mut spins = 0u32;
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if spins < 64 => {
                spins += 1;
                std::hint::spin_loop();
            }
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
}

/// The first non-`Ok` phase of a window and the cycle it happened at.
type Outcome = Option<(RPhase, u64)>;

/// The processor's state that the schedulers touch besides the A half,
/// borrowed apart from it so a threaded run can lend the A half to its
/// helper thread while the R side keeps consuming.
struct Sched<'m> {
    r: &'m mut RHalf,
    cfg: &'m SlipstreamConfig,
    anchor: &'m mut u64,
    quantum: u64,
    scratch: &'m mut CycleBatch,
    window_ck: &'m mut Option<ACheckpoint>,
}

impl Sched<'_> {
    /// Performs the boundary sync if the current cycle sits on the window
    /// grid (`anchor`, or `quantum`+ cycles past it).
    fn maybe_boundary(&mut self, a: &mut AHalf) {
        if a.cycles == *self.anchor || a.cycles - *self.anchor >= self.quantum {
            *self.anchor = a.cycles;
            boundary_sync(a, self.r);
        }
    }

    /// Advances both halves one cycle in lockstep, recovering immediately
    /// on an IR-misprediction (the A side is already at the detection
    /// cycle, so no rollback is needed).
    fn one_cycle(&mut self, a: &mut AHalf) {
        a.run_cycle(self.scratch);
        if self.r.consume_cycle(self.scratch) == RPhase::Misp {
            recover(a, self.r, self.cfg);
            *self.anchor = a.cycles;
        }
    }

    /// The window loop of both window schedulers. Each window checkpoints
    /// the A side, then `exec` runs its A cycles and has the R side consume
    /// the batches up to the first misprediction or halt. `exec` takes the
    /// A half by value and hands it back, so a threaded run can lend it to
    /// another thread for exactly the window's A cycles; everything between
    /// windows (boundary sync, recovery, halt rollback) happens here.
    fn run_windows<'a, E>(&mut self, mut a: &'a mut AHalf, max_cycles: u64, mut exec: E)
    where
        E: FnMut(&'a mut AHalf, usize, &mut RHalf) -> (&'a mut AHalf, Outcome),
    {
        let q = self.quantum;
        while !self.r.core.halted() && self.r.cycles < max_cycles {
            self.maybe_boundary(a);
            if a.cycles != *self.anchor {
                // Resumed mid-window (a prior run stopped at its cycle
                // budget): advance serially to the next boundary.
                self.one_cycle(a);
                continue;
            }
            let anchor = *self.anchor;
            let window_end = (anchor + q).min(max_cycles);
            let t0 = tel_now(&a.tel);
            match self.window_ck {
                Some(ck) => a.checkpoint_into(ck),
                None => *self.window_ck = Some(a.checkpoint()),
            }
            tel_span(&mut a.tel, SpanKind::ACheckpoint, t0);
            let outcome;
            (a, outcome) = exec(a, (window_end - anchor) as usize, self.r);
            let ck = self.window_ck.as_ref().expect("checkpointed above");
            match outcome {
                None => {
                    if window_end == anchor + q {
                        *self.anchor = window_end;
                    }
                    // else: budget-clamped window — leave the grid alone
                    // (matching the serial scheduler) and exit at the top.
                }
                Some((RPhase::Misp, cycle)) => {
                    let t0 = tel_now(&a.tel);
                    a.rollback_replay(ck, cycle, self.scratch);
                    tel_span(&mut a.tel, SpanKind::ARollbackReplay, t0);
                    recover(a, self.r, self.cfg);
                    *self.anchor = cycle;
                }
                Some((_, cycle)) => {
                    // Halted: discard the A-stream's overrun.
                    let t0 = tel_now(&a.tel);
                    a.rollback_replay(ck, cycle, self.scratch);
                    tel_span(&mut a.tel, SpanKind::ARollbackReplay, t0);
                    break;
                }
            }
        }
    }
}

/// Has `r` consume `batch` and reports a phase other than `Ok` with its
/// cycle.
fn consume(r: &mut RHalf, batch: &mut CycleBatch) -> Outcome {
    match r.consume_cycle(batch) {
        RPhase::Ok => None,
        phase => Some((phase, batch.cycle)),
    }
}

/// A slipstream processor built from two identical cores.
///
/// `Clone` is a deep copy (memory pages are copy-on-write): a clone runs
/// on independently of its source, which is how fault campaigns fork
/// each injection site from a fault-free leader.
#[derive(Clone)]
pub struct SlipstreamProcessor {
    cfg: SlipstreamConfig,
    /// Shared with the online checker, when one is enabled.
    program: Arc<Program>,
    a: AHalf,
    r: RHalf,
    /// Cycle of the last sync boundary; the window grid is
    /// `anchor + k*quantum`, restarted at every recovery.
    anchor: u64,
    /// Reused single-cycle batch (serial stepping and replay).
    scratch: CycleBatch,
    /// Reused window batches (windowed scheduler).
    batches: Vec<CycleBatch>,
    /// Reused window checkpoint (window schedulers): re-snapshotting into
    /// the previous window's buffers makes checkpointing allocation-free.
    window_ck: Option<ACheckpoint>,
}

impl SlipstreamProcessor {
    /// Builds a slipstream processor for `program`. Each stream gets a
    /// private copy of the program's memory image (process replication).
    pub fn new(cfg: SlipstreamConfig, program: &Program) -> SlipstreamProcessor {
        let ir_table = IrTable::new(cfg.ir_table_capacity, cfg.confidence_threshold);
        let a_fe = TraceFrontEnd::a_stream(program, cfg.trace_pred, ir_table, cfg.removal.any());
        let r_drv = RStreamDriver::new(
            program.entry(),
            cfg.delay_data_entries,
            cfg.delay_control_entries,
            cfg.removal,
            cfg.detector_scope,
        );
        // Process replication: build the initial image once and clone it.
        // Memory pages are copy-on-write, so the second image is O(pages)
        // pointer copies and the streams un-share pages only as they write.
        let a_image = program.initial_memory();
        let r_image = a_image.clone();
        let mut a_core = Core::new(cfg.core.clone(), a_image);
        let mut r_core = Core::new(cfg.core.clone(), r_image);
        if let Some(l2) = cfg.l2 {
            // Core id is the arbitration tie-break: the leading A-stream
            // wins same-cycle port conflicts.
            a_core.attach_l2(L2View::new(l2, 0));
            r_core.attach_l2(L2View::new(l2, 1));
        }
        SlipstreamProcessor {
            a: AHalf {
                core: a_core,
                fe: a_fe,
                cycles: 0,
                credits: r_drv.delay.credits(),
                sample_interval: 0,
                tel: None,
            },
            r: RHalf {
                core: r_core,
                drv: r_drv,
                observe_hist: PathHistory::new(cfg.trace_pred.path_len),
                applied_pending: Vec::new(),
                cycles: 0,
                skipped_by_reason: [0; 16],
                penalty_sum: 0,
                mem_restored_sum: 0,
                last_r_progress: 0,
                strict: false,
                misp_log: Vec::new(),
                machine_trace: None,
                obs_q: Vec::new(),
                tel: None,
            },
            program: Arc::new(program.clone()),
            anchor: 0,
            scratch: CycleBatch::default(),
            batches: Vec::new(),
            window_ck: None,
            cfg,
        }
    }

    /// Turns on the flight recorder (and, if configured, interval
    /// sampling): one bounded ring per component — A core, A front end,
    /// machine, R core, R driver — all kept on the R side. The A-core
    /// records into an unbounded sink that each cycle's batch empties, so
    /// a window checkpoint copies no recorder state. Call before
    /// stepping; with tracing off the step path pays only never-taken
    /// `Option` branches.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        let mk = |stream| {
            let mut t = TraceSink::new(stream, cfg.ring_capacity);
            if let Some(f) = cfg.freeze_after {
                t.freeze_after(f);
            }
            t
        };
        let staging = TraceSink::new(StreamId::AStream, usize::MAX);
        self.a.core.set_trace(Some(staging));
        self.r.core.set_trace(Some(mk(StreamId::RStream)));
        self.r.drv.trace = Some(mk(StreamId::RStream));
        self.a.sample_interval = cfg.metrics_interval;
        self.r.machine_trace = Some(MachineTrace {
            a_core: mk(StreamId::AStream),
            a_fe: mk(StreamId::AStream),
            sink: mk(StreamId::Machine),
            sampler: IntervalSampler::new(cfg.metrics_interval),
        });
    }

    /// Turns on host-side telemetry: wall-clock span timers around the
    /// scheduler phases (window execution and consumption, boundary sync,
    /// checkpoint, rollback/replay, recovery). Off by default; the off
    /// path pays only never-taken `Option` branches — no `Instant::now`
    /// calls and no allocations (enforced by the bench crate's
    /// `telemetry_alloc_gate` test).
    pub fn enable_telemetry(&mut self) {
        self.r.tel = Some(Box::new(Telemetry::new()));
        self.a.tel = Some(Box::new(Telemetry::new()));
    }

    /// Whether [`SlipstreamProcessor::enable_telemetry`] has been called.
    pub fn telemetry_enabled(&self) -> bool {
        self.r.tel.is_some()
    }

    /// Takes the accumulated telemetry, merging the A- and R-side
    /// registries into one, and turns telemetry off. `None` when telemetry
    /// was never enabled.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        let mut merged = *self.r.tel.take()?;
        if let Some(a) = self.a.tel.take() {
            merged.merge(&a);
        }
        Some(merged)
    }

    fn sinks(&self) -> impl Iterator<Item = &TraceSink> {
        // Fixed merge order = deterministic tie-breaking within a cycle:
        // A core, A front end, machine, R core, R driver.
        let mt = self.r.machine_trace.as_ref();
        mt.into_iter()
            .flat_map(|mt| [&mt.a_core, &mt.a_fe, &mt.sink])
            .chain(self.r.core.trace())
            .chain(self.r.drv.trace.as_ref())
    }

    /// The interval-metrics time-series (empty unless tracing with a
    /// nonzero `metrics_interval`).
    pub fn interval_samples(&self) -> &[IntervalSample] {
        self.r
            .machine_trace
            .as_ref()
            .map(|mt| mt.sampler.samples.as_slice())
            .unwrap_or(&[])
    }

    /// The merged, export-ready view of the traced run (`None` when
    /// tracing was never enabled).
    pub fn flight_recording(&self) -> Option<FlightRecording> {
        self.r.machine_trace.as_ref()?;
        let samples = self.interval_samples().to_vec();
        // A run that halted inside `run_mode` ends with a tail sample, so
        // its rows cover it.
        let covered = samples.last().is_some_and(|s| s.cycle == self.r.cycles);
        let totals = (self.halted() && covered).then(|| IntervalSample {
            cycle: self.r.cycles,
            a: *self.a.core.stats(),
            r: *self.r.core.stats(),
            front_end: self.a.fe.spec.stats,
            skipped: self.r.skipped(),
            ir_misps: self.r.misp_log.len() as u64,
            value_hints: self.r.drv.value_hints,
            delay_occupancy: self.r.drv.delay.len() as u64,
        });
        Some(FlightRecording {
            events: trace::merge_events(self.sinks()),
            samples,
            totals,
            dropped: self.sinks().map(|s| s.dropped()).sum(),
        })
    }

    /// Enables expensive post-recovery invariant checks: after every
    /// recovery the A-stream context must be bit-identical to the
    /// R-stream context (registers *and* full memory image).
    pub fn set_strict(&mut self, strict: bool) {
        self.r.strict = strict;
    }

    /// Runs a functional simulator in lockstep with R-stream retirement,
    /// panicking on the first divergence — the paper's §4 methodology
    /// ("the simulator itself is validated via a functional simulator run
    /// independently and in parallel with the detailed timing simulator").
    /// Roughly doubles simulation cost; intended for tests and debugging.
    pub fn enable_online_check(&mut self) {
        self.r.drv.online_check = Some(OnlineChecker::new(Arc::clone(&self.program)));
    }

    /// Snapshot of the delay buffer between the streams: every queued
    /// entry in FIFO order plus the `(data, control)` occupancy counters.
    /// Diagnostic/test view — the scheduler-equivalence suite uses it to
    /// prove the retire path's recycled allocations never alias live data.
    pub fn delay_snapshot(&self) -> (Vec<crate::DelayEntry>, usize, usize) {
        (
            self.r.drv.delay.iter().copied().collect(),
            self.r.drv.delay.data_occupancy(),
            self.r.drv.delay.control_occupancy(),
        )
    }

    /// The trailing (architecturally correct) core.
    pub fn r_core(&self) -> &Core {
        &self.r.core
    }

    /// The leading (reduced, speculative) core.
    pub fn a_core(&self) -> &Core {
        &self.a.core
    }

    /// Whether the program has completed (R-stream retired `halt`).
    pub fn halted(&self) -> bool {
        self.r.core.halted()
    }

    /// Cycles simulated so far (committed, i.e. R-stream, time).
    pub fn cycles(&self) -> u64 {
        self.r.cycles
    }

    /// Log of detected IR-mispredictions `(kind, cycle)`, in detection
    /// order — fault experiments diff this against a clean run's log to
    /// attribute detections.
    pub fn misp_log(&self) -> &[(IrMispKind, u64)] {
        &self.r.misp_log
    }

    /// Arms a transient fault in the A-stream core (see [`FaultSpec`]).
    pub fn arm_fault_a(&mut self, fault: FaultSpec) {
        self.a.core.arm_fault(fault);
    }

    /// Arms a transient fault in the R-stream core.
    pub fn arm_fault_r(&mut self, fault: FaultSpec) {
        self.r.core.arm_fault(fault);
    }

    /// Splits the processor into the A half, the state the schedulers
    /// borrow beside it, and the windowed scheduler's batches.
    fn split(&mut self) -> (&mut AHalf, Sched<'_>, &mut Vec<CycleBatch>) {
        let sched = Sched {
            r: &mut self.r,
            cfg: &self.cfg,
            anchor: &mut self.anchor,
            quantum: self.cfg.sync_quantum.max(1) as u64,
            scratch: &mut self.scratch,
            window_ck: &mut self.window_ck,
        };
        (&mut self.a, sched, &mut self.batches)
    }

    /// Advances both cores one cycle and routes all inter-stream traffic.
    pub fn step(&mut self) {
        let (a, mut sched, _) = self.split();
        sched.maybe_boundary(a);
        sched.one_cycle(a);
    }

    /// A completed run ends on a boundary: sample the interval since the
    /// last sample row, if one is open, and flush the deferred learning so
    /// post-run inspection (predictor state, statistics) sees every
    /// committed trace, identically in every mode.
    fn finish_run(&mut self) -> bool {
        if self.halted() {
            let r = &mut self.r;
            if let Some(mt) = &r.machine_trace {
                if mt.sampler.tail_due(r.cycles) {
                    r.sample(self.a.core.stats(), &self.a.fe.spec.stats);
                }
            }
            self.anchor = self.a.cycles;
            boundary_sync(&mut self.a, &mut self.r);
        }
        self.halted()
    }

    /// Runs until the program halts or `max_cycles` elapse, using the
    /// default slack-window scheduler. Returns `true` if the program
    /// completed.
    pub fn run(&mut self, max_cycles: u64) -> bool {
        self.run_mode(ExecMode::Windowed, max_cycles)
    }

    /// Runs with the named scheduler (see [`ExecMode`]). With telemetry
    /// on, the whole call is recorded as the `run_total` span — the
    /// denominator every other span is attributed against.
    pub fn run_mode(&mut self, mode: ExecMode, max_cycles: u64) -> bool {
        let t0 = tel_now(&self.r.tel);
        let done = match mode {
            ExecMode::Serial => self.run_serial(max_cycles),
            ExecMode::Windowed => self.run_windowed(max_cycles),
            ExecMode::Threaded => self.run_parallel(max_cycles),
        };
        tel_span(&mut self.r.tel, SpanKind::RunTotal, t0);
        done
    }

    /// Cycle-by-cycle lockstep run (the reference scheduler).
    fn run_serial(&mut self, max_cycles: u64) -> bool {
        let t0 = tel_now(&self.r.tel);
        while !self.halted() && self.r.cycles < max_cycles {
            self.step();
        }
        let done = self.finish_run();
        tel_span(&mut self.r.tel, SpanKind::SerialExec, t0);
        done
    }

    /// Slack-window run: the A-stream bursts a whole window against its
    /// boundary credit budget, then the R-stream consumes it. On
    /// IR-misprediction the A side rolls back to the window's checkpoint
    /// and replays to the exact detection cycle before recovering —
    /// byte-identical to the serial scheduler, but with all the cross-core
    /// ping-ponging (and its cache traffic) hoisted out of the hot loop.
    fn run_windowed(&mut self, max_cycles: u64) -> bool {
        let (a, mut sched, batches) = self.split();
        sched.run_windows(a, max_cycles, |a, n, r| {
            if batches.len() < n {
                batches.resize_with(n, CycleBatch::default);
            }
            let window = &mut batches[..n];
            let t0 = tel_now(&a.tel);
            for batch in window.iter_mut() {
                a.run_cycle(batch);
            }
            tel_span(&mut a.tel, SpanKind::AWindowExec, t0);
            let t0 = tel_now(&r.tel);
            let outcome = window.iter_mut().find_map(|b| consume(r, b));
            tel_span(&mut r.tel, SpanKind::RWindowConsume, t0);
            (a, outcome)
        });
        self.finish_run()
    }

    /// Two-thread run: the window loop of `run_windowed`,
    /// with each window's A cycles on a helper thread. The calling thread
    /// lends the A half to the helper, consumes the batches as they arrive
    /// over a channel sized to one window, and gets the A half back before
    /// the boundary. Results are byte-identical to the other schedulers; a
    /// panic on either thread propagates to the caller.
    fn run_parallel(&mut self, max_cycles: u64) -> bool {
        let (a, mut sched, _) = self.split();
        let q = sched.quantum as usize;
        std::thread::scope(|scope| {
            let (job_tx, job_rx) = mpsc::sync_channel::<(&mut AHalf, usize)>(1);
            let (batch_tx, batch_rx) = mpsc::sync_channel::<CycleBatch>(q);
            let (back_tx, back_rx) = mpsc::sync_channel::<&mut AHalf>(1);
            let (recycle_tx, recycle_rx) = mpsc::channel::<CycleBatch>();
            let mut helper = Some(scope.spawn(move || {
                while let Ok((a, n)) = recv_spin(&job_rx) {
                    let t0 = tel_now(&a.tel);
                    for _ in 0..n {
                        let mut batch = recycle_rx.try_recv().unwrap_or_default();
                        a.run_cycle(&mut batch);
                        // Never blocks: the channel holds a whole window.
                        if batch_tx.send(batch).is_err() {
                            return;
                        }
                    }
                    tel_span(&mut a.tel, SpanKind::AWindowExec, t0);
                    if back_tx.send(a).is_err() {
                        return;
                    }
                }
            }));
            // The helper hangs up only by panicking: re-raise its panic.
            let mut helper_died = || -> ! {
                let helper = helper.take().expect("the helper dies once");
                match helper.join() {
                    Err(panic) => std::panic::resume_unwind(panic),
                    Ok(()) => unreachable!("the helper runs until the job channel closes"),
                }
            };
            sched.run_windows(a, max_cycles, |a, n, r| {
                if job_tx.send((a, n)).is_err() {
                    helper_died();
                }
                let t0 = tel_now(&r.tel);
                let mut outcome = None;
                for _ in 0..n {
                    let Ok(mut batch) = recv_spin(&batch_rx) else {
                        helper_died();
                    };
                    if outcome.is_none() {
                        outcome = consume(r, &mut batch);
                    }
                    // Fails only once the helper has gone; the next
                    // receive reports that.
                    let _ = recycle_tx.send(batch);
                }
                tel_span(&mut r.tel, SpanKind::RWindowConsume, t0);
                let Ok(a) = recv_spin(&back_rx) else {
                    helper_died();
                };
                (a, outcome)
            });
            // The scope's locals drop before it joins the helper; the
            // closed job channel ends the helper's loop.
        });
        self.finish_run()
    }

    /// End-of-run statistics.
    pub fn stats(&self) -> SlipstreamStats {
        let r = *self.r.core.stats();
        let a = *self.a.core.stats();
        let skipped = self.r.skipped();
        let by_reason: Vec<(Reason, u64)> = (0u8..)
            .zip(self.r.skipped_by_reason)
            .filter(|&(_, n)| n > 0)
            .map(|(bits, n)| (Reason::from_bits(bits), n))
            .collect();
        let cycles = self.r.cycles;
        let ir_misps = self.r.misp_log.len() as u64;
        let kilo = |n: u64| {
            if r.retired == 0 {
                0.0
            } else {
                1000.0 * n as f64 / r.retired as f64
            }
        };
        SlipstreamStats {
            cycles,
            r_retired: r.retired,
            a_retired: a.retired,
            ipc: if cycles == 0 {
                0.0
            } else {
                r.retired as f64 / cycles as f64
            },
            skipped,
            skipped_by_reason: by_reason,
            removal_fraction: if r.retired == 0 {
                0.0
            } else {
                skipped as f64 / r.retired as f64
            },
            ir_mispredictions: ir_misps,
            misp_cycles: self.r.misp_log.iter().map(|&(_, c)| c).collect(),
            ir_misp_per_kilo: kilo(ir_misps),
            avg_ir_penalty: if ir_misps == 0 {
                0.0
            } else {
                self.r.penalty_sum as f64 / ir_misps as f64
            },
            branch_misp_per_kilo: kilo(a.branch_mispredicts),
            mem_restored: self.r.mem_restored_sum,
            value_hints: self.r.drv.value_hints,
            a_core: a,
            r_core: r,
            front_end: self.a.fe.spec.stats,
            halted: self.halted(),
        }
    }

    /// The processor's configuration.
    pub fn config(&self) -> &SlipstreamConfig {
        &self.cfg
    }
}
