//! The R-stream front end: drives the trailing core entirely from the
//! delay buffer (paper §2.2) and performs the checking that makes the
//! whole scheme safe — every executed A-stream outcome is compared against
//! the R-stream's redundantly computed one, and any difference raises an
//! IR-misprediction (paper §2.3). Matching operand values are used as
//! value predictions so dependent instructions issue immediately.

use slipstream_cpu::{
    CoreDriver, DispatchHints, DriverStall, EventKind, FetchItem, TraceSink, NO_SEQ,
};
use slipstream_isa::{MemWidth, Retired};

use crate::config::RemovalPolicy;
use crate::delay::{DelayBuffer, DelayEntry};
use crate::detector::IrDetector;

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

/// The R-stream driver: owns the delay buffer's consumer end and the
/// IR-detector.
///
/// An entry stays in the delay buffer from fetch to retire: dispatch checks
/// it in place (`DelayBuffer::in_flight`) and retire releases it, so the
/// driver keeps only the meta id of the oldest entry in flight.
#[derive(Clone)]
pub struct RStreamDriver {
    /// The delay buffer (producer side filled by the harness from the
    /// A-stream's retirement outbox).
    pub delay: DelayBuffer,
    /// The IR-detector, fed by R-stream retirement.
    pub detector: IrDetector,
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
    /// Stores the R-stream retired whose companions executed in the
    /// A-stream (recovery controller: end undo-tracking).
    pub out_undo_remove: Vec<(u64, MemWidth)>,
    /// Stores the R-stream retired that the A-stream skipped (recovery
    /// controller: begin do-tracking).
    pub out_do_add: Vec<(u64, MemWidth)>,
    /// Operand values that matched and were used as predictions.
    pub value_hints: u64,
    /// Dynamic instructions checked against delay-buffer data.
    pub checked: u64,
    /// Flight recorder for delay-buffer consumption; the driver has no
    /// clock of its own, so the owning harness stamps the cycle each step.
    pub trace: Option<TraceSink>,
}

impl RStreamDriver {
    /// Creates an R-stream driver with the given buffer capacities and
    /// detector policy/scope.
    pub fn new(
        data_cap: usize,
        control_cap: usize,
        policy: RemovalPolicy,
        detector_scope: usize,
    ) -> RStreamDriver {
        RStreamDriver {
            delay: DelayBuffer::new(data_cap, control_cap),
            detector: IrDetector::new(policy, detector_scope),
            inflight_base: 1,
            next_meta: 1,
            prev_pc: None,
            frozen: false,
            ir_misp: None,
            out_undo_remove: Vec::new(),
            out_do_add: Vec::new(),
            value_hints: 0,
            checked: 0,
            trace: None,
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
    /// detector restart empty.
    pub fn reset_for_recovery(&mut self) {
        self.delay.clear();
        self.detector.flush();
        self.inflight_base = self.next_meta;
        self.prev_pc = None;
        self.frozen = false;
        self.ir_misp = None;
        self.out_undo_remove.clear();
        self.out_do_add.clear();
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
        self.checked += 1;
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
        self.detector.push(rec);
        if let Some(m) = rec.mem {
            if m.is_store {
                if skipped {
                    self.out_do_add.push((m.addr, m.width));
                } else {
                    self.out_undo_remove.push((m.addr, m.width));
                }
            }
        }
    }
}
