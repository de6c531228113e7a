//! Reference [`CoreDriver`] implementations.
//!
//! - [`OracleDriver`] supplies perfect control flow by running the
//!   functional simulator one step ahead of fetch. It never mispredicts,
//!   so it bounds achievable IPC from above and is the workhorse of the
//!   timing-vs-functional equivalence tests.
//! - [`StaticDriver`] predicts not-taken for branches and follows static
//!   jump targets, taking a redirect on every taken branch — the floor any
//!   real predictor must beat.

use slipstream_isa::{ArchState, InstrKind, Program, Retired};

use crate::driver::{CoreDriver, FetchItem};

/// Supplies the exact dynamic instruction stream by functionally executing
/// one step ahead of fetch; predictions are always correct.
pub struct OracleDriver {
    program: Program,
    oracle: ArchState,
    prev_pc: Option<u64>,
    done: bool,
}

impl OracleDriver {
    /// Creates an oracle for `program`.
    pub fn new(program: &Program) -> OracleDriver {
        OracleDriver {
            oracle: ArchState::new(program),
            program: program.clone(),
            prev_pc: None,
            done: false,
        }
    }
}

impl CoreDriver for OracleDriver {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        if self.done {
            return None;
        }
        let rec = self.oracle.step(&self.program).ok()?;
        if rec.is_halt() {
            self.done = true;
        }
        // A new fetch block starts wherever the dynamic stream is not
        // sequential (the target of a taken transfer) and at the entry.
        let new_block = self.prev_pc.is_none_or(|p| p + 4 != rec.pc);
        self.prev_pc = Some(rec.pc);
        Some(FetchItem {
            pc: rec.pc,
            instr: rec.instr,
            pred_npc: rec.next_pc,
            pred_taken: rec.taken,
            new_block,
            slot_cost: 1,
            meta: 0,
        })
    }

    fn on_redirect(&mut self, resolved: &Retired, _meta: u64) {
        unreachable!(
            "oracle-driven cores never mispredict (pc {:#x})",
            resolved.pc
        );
    }
}

/// Predicts not-taken / static targets; every taken branch and indirect
/// jump costs a redirect.
pub struct StaticDriver {
    program: Program,
    pc: u64,
    new_block: bool,
    done: bool,
}

impl StaticDriver {
    /// Creates a static-prediction driver starting at `program`'s entry.
    pub fn new(program: &Program) -> StaticDriver {
        StaticDriver {
            pc: program.entry(),
            program: program.clone(),
            new_block: true,
            done: false,
        }
    }
}

impl CoreDriver for StaticDriver {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        if self.done {
            return None;
        }
        let pc = self.pc;
        let instr = *self.program.instr_at(pc)?;
        let (pred_npc, pred_taken) = match instr.kind() {
            InstrKind::Branch => (pc + 4, Some(false)),
            // jr: guaranteed redirect when wrong
            InstrKind::Jump => (instr.static_target().unwrap_or(pc + 4), None),
            InstrKind::Halt => {
                self.done = true;
                (pc, None)
            }
            _ => (pc + 4, None),
        };
        let item = FetchItem {
            pc,
            instr,
            pred_npc,
            pred_taken,
            new_block: self.new_block,
            slot_cost: 1,
            meta: 0,
        };
        self.new_block = pred_npc != pc + 4;
        self.pc = pred_npc;
        Some(item)
    }

    fn on_redirect(&mut self, resolved: &Retired, _meta: u64) {
        self.pc = resolved.next_pc;
        self.new_block = true;
        self.done = false;
    }
}
