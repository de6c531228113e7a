//! The R-stream front end: drives the trailing core entirely from the
//! delay buffer (paper §2.2) and performs the checking that makes the
//! whole scheme safe — every executed A-stream outcome is compared against
//! the R-stream's redundantly computed one, and any difference raises an
//! IR-misprediction (paper §2.3). Matching operand values are used as
//! value predictions so dependent instructions issue immediately.

use slipstream_cpu::{
    CoreDriver, DispatchHints, DriverStall, EventKind, FetchItem, TraceSink, NO_SEQ,
};
use std::sync::Arc;

use slipstream_isa::{ArchState, Program, Retired};

use crate::config::RemovalPolicy;
use crate::delay::{DelayBuffer, DelayEntry};
use crate::detector::IrDetector;
use crate::recovery::RecoveryController;

/// How an IR-misprediction (or a transient fault masquerading as one) was
/// noticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrMispKind {
    /// The R-stream computed a different value than the delay buffer
    /// supplied (removal of an effectual write, a corrupted A-stream
    /// context, or a transient fault in either stream).
    ValueMismatch {
        /// PC of the diverging instruction.
        pc: u64,
    },
    /// The R-stream's control flow diverged from the A-stream's path
    /// (removal of a mispredicted branch).
    ControlDivergence {
        /// PC of the diverging branch.
        pc: u64,
    },
    /// The IR-detector's computed ir-vec did not cover everything the
    /// A-stream skipped (early detection; bounds recovery tracking).
    VecMismatch {
        /// Start PC of the offending trace.
        trace_start: u64,
    },
}

/// The online functional checker (paper §4): a functional simulator
/// stepped in lockstep with R-stream retirement. Any divergence is a
/// simulator bug and panics at once.
#[derive(Clone)]
pub(crate) struct OnlineChecker {
    state: ArchState,
    program: Arc<Program>,
}

impl OnlineChecker {
    /// A checker positioned at `program`'s entry.
    pub(crate) fn new(program: Arc<Program>) -> OnlineChecker {
        OnlineChecker {
            state: ArchState::new(&program),
            program,
        }
    }

    /// Steps the functional simulator once and panics, naming the first
    /// divergent field, unless it retires what the timing model retired.
    fn check(&mut self, rec: &Retired) {
        let want = self
            .state
            .step(&self.program)
            .expect("online checker follows a valid program");
        let divergent = if rec.pc != want.pc {
            Some("pc")
        } else if rec.dest != want.dest {
            Some("dest")
        } else if rec.mem != want.mem {
            Some("mem")
        } else if rec.taken != want.taken {
            Some("taken")
        } else if rec.next_pc != want.next_pc {
            Some("next_pc")
        } else {
            None
        };
        if let Some(field) = divergent {
            panic!(
                "R-stream diverged from the online functional checker at seq {} \
                 (simulator bug): `{field}` differs — timing model retired {rec:?}, \
                 checker expected {want:?}",
                want.seq,
            );
        }
    }
}

/// The R-stream driver: owns the delay buffer's consumer end, the
/// IR-detector, and the recovery controller they feed.
///
/// An entry stays in the delay buffer from fetch to retire: dispatch checks
/// it in place (`DelayBuffer::in_flight`) and retire releases it, so the
/// driver keeps only the meta id of the oldest entry in flight. The
/// entries held are also recovery's undo list; retire hands the
/// controller the do list's stores. Retire also keeps the restart PC and
/// steps the online checker, so the R-core never copies out its retired
/// records.
#[derive(Clone)]
pub struct RStreamDriver {
    /// The delay buffer (producer side filled by the harness from the
    /// A-stream's retirement outbox).
    pub delay: DelayBuffer,
    /// The IR-detector, fed by R-stream retirement.
    pub detector: IrDetector,
    /// The recovery controller: do-tracking begins when a skipped store
    /// retires here.
    pub recovery: RecoveryController,
    /// Meta id of the oldest entry in flight. Ids are handed out
    /// contiguously at fetch and items retire strictly in dispatch order,
    /// so entry `meta` is the delay buffer's in-flight entry
    /// `meta - inflight_base`.
    inflight_base: u64,
    next_meta: u64,
    prev_pc: Option<u64>,
    frozen: bool,
    /// Set when a divergence is noticed; the harness performs recovery and
    /// calls [`RStreamDriver::reset_for_recovery`].
    pub ir_misp: Option<IrMispKind>,
    /// Operand values that matched and were used as predictions.
    pub value_hints: u64,
    /// Flight recorder for delay-buffer consumption; the driver has no
    /// clock of its own, so the owning harness stamps the cycle each step.
    pub trace: Option<TraceSink>,
    /// Where recovery restarts both streams: the next PC of the last
    /// retired instruction, or the program's entry before any.
    pub(crate) restart_pc: u64,
    /// The online functional checker (`None` = off).
    pub(crate) online_check: Option<OnlineChecker>,
}

impl RStreamDriver {
    /// Creates an R-stream driver for a program entered at `entry`, with
    /// the given buffer capacities and detector policy/scope.
    pub fn new(
        entry: u64,
        data_cap: usize,
        control_cap: usize,
        policy: RemovalPolicy,
        detector_scope: usize,
    ) -> RStreamDriver {
        RStreamDriver {
            delay: DelayBuffer::new(data_cap, control_cap),
            detector: IrDetector::new(policy, detector_scope),
            recovery: RecoveryController::new(),
            inflight_base: 1,
            next_meta: 1,
            prev_pc: None,
            frozen: false,
            ir_misp: None,
            value_hints: 0,
            trace: None,
            restart_pc: entry,
            online_check: None,
        }
    }

    /// Raises an IR-misprediction (first one wins) and freezes fetch until
    /// recovery.
    pub fn flag(&mut self, kind: IrMispKind) {
        if self.ir_misp.is_none() {
            self.ir_misp = Some(kind);
        }
        self.frozen = true;
    }

    /// Clears all in-flight state after recovery; the delay buffer and
    /// detector restart empty. The buffer is recovery's undo list, so
    /// [`RecoveryController::latch_undo`] must run first.
    pub fn reset_for_recovery(&mut self) {
        self.delay.clear();
        self.detector.flush();
        self.inflight_base = self.next_meta;
        self.prev_pc = None;
        self.frozen = false;
        self.ir_misp = None;
    }
}

/// Whether the R-stream's execution `rec` agrees with every outcome the
/// A-stream recorded in `e`.
fn check_entry(e: &DelayEntry, rec: &Retired) -> bool {
    let mism = e.src1().is_some() && e.src1() != rec.src1.map(|(_, v)| v)
        || e.src2().is_some() && e.src2() != rec.src2.map(|(_, v)| v)
        || e.result().is_some() && e.result() != rec.dest.map(|(_, v)| v)
        || e.taken() != rec.taken
        || e.addr().is_some() && e.addr() != rec.mem.map(|m| m.addr)
        || e.store_value().is_some()
            && e.store_value() != rec.mem.and_then(|m| m.is_store.then_some(m.value))
        || e.next_pc != rec.next_pc;
    !mism
}

impl CoreDriver for RStreamDriver {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        // An entry pulled here but not yet fetched sits in the core's fetch
        // group; it is already in flight, and recovery clears both sides
        // together (`reset_for_recovery` + core flush).
        if self.frozen {
            return None;
        }
        let e = self.delay.pop()?;
        let new_block = self.prev_pc.is_none_or(|p| p + 4 != e.pc);
        let pred_taken = e
            .taken()
            .or_else(|| e.instr.is_branch().then(|| e.next_pc != e.pc + 4));
        let item = FetchItem {
            pc: e.pc,
            instr: e.instr,
            pred_npc: e.next_pc,
            pred_taken,
            new_block,
            slot_cost: 1,
            meta: self.next_meta,
        };
        self.next_meta += 1;
        self.prev_pc = Some(item.pc);
        if let Some(t) = self.trace.as_mut() {
            t.record(
                EventKind::DelayDequeue,
                NO_SEQ,
                item.pc,
                self.delay.len() as u64,
            );
        }
        Some(item)
    }

    fn on_dispatch(&mut self, rec: &Retired, meta: u64) -> DispatchHints {
        // Contiguous ids make the lookup an O(1) index off the oldest entry
        // in flight. A miss would mean a broken id invariant, and skipping
        // the value check would hide a detection, so it panics.
        let e = meta
            .checked_sub(self.inflight_base)
            .and_then(|i| self.delay.in_flight(i as usize))
            .expect("every dispatched R-stream item has its delay entry");
        if e.is_skipped() {
            return DispatchHints::default();
        }
        let matches = check_entry(e, rec);
        let hints = DispatchHints {
            src1_predicted: e.src1().is_some(),
            src2_predicted: e.src2().is_some(),
        };
        if !matches {
            self.flag(IrMispKind::ValueMismatch { pc: rec.pc });
            return DispatchHints::default();
        }
        self.value_hints += u64::from(hints.src1_predicted) + u64::from(hints.src2_predicted);
        hints
    }

    fn on_redirect(&mut self, resolved: &Retired, _meta: u64) {
        // The R-stream never follows a wrong path of its own: any redirect
        // means the delay buffer's path diverged from the real program —
        // a removed branch was mispredicted (or worse).
        self.flag(IrMispKind::ControlDivergence { pc: resolved.pc });
    }

    fn stall_kind(&self) -> DriverStall {
        // Frozen between IR-misprediction detection and the A-stream's
        // squash: those cycles belong to recovery. Otherwise an empty
        // delay buffer means the trailing core is starved behind the
        // A-stream.
        if self.frozen {
            DriverStall::Frozen
        } else if self.delay.is_empty() {
            DriverStall::Starved
        } else {
            DriverStall::None
        }
    }

    fn on_retire(&mut self, rec: &Retired, meta: u64) {
        debug_assert_eq!(
            meta, self.inflight_base,
            "R-stream items retire in dispatch order"
        );
        let e = self
            .delay
            .in_flight(0)
            .expect("every dispatched R-stream item has its delay entry");
        let skipped = e.is_skipped();
        self.delay.release();
        self.inflight_base += 1;
        self.restart_pc = rec.next_pc;
        if let Some(checker) = self.online_check.as_mut() {
            checker.check(rec);
        }
        self.detector.push(rec);
        if let Some(m) = rec.mem.filter(|m| skipped && m.is_store) {
            self.recovery.add_do(m.addr, m.width);
        }
    }
}
