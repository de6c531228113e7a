use std::fmt;

use crate::instr::{Effects, Instr, MemWidth};
use crate::mem::Memory;
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};

/// The memory side effect of one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEffect {
    /// Effective address.
    pub addr: u64,
    /// Access width.
    pub width: MemWidth,
    /// Value loaded or stored.
    pub value: u64,
    /// For stores: the value the location held *before* the store. Lets
    /// observers (e.g. the IR-detector) recognise non-modifying writes
    /// without re-reading memory.
    pub old_value: Option<u64>,
    /// Whether this was a store (`true`) or a load (`false`).
    pub is_store: bool,
}

/// A fully-described retired dynamic instruction: the unit of communication
/// throughout the reproduction.
///
/// The functional simulator produces these as its execution trace; the
/// timing cores produce the same records at retirement (validated against
/// the functional simulator in tests, mirroring the paper's independent
/// functional checker); the delay buffer carries them from A-stream to
/// R-stream; and the IR-detector consumes the R-stream's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Dynamic instruction number (0-based).
    pub seq: u64,
    /// The instruction's PC.
    pub pc: u64,
    /// The instruction itself.
    pub instr: Instr,
    /// Value of the first source register, if any.
    pub src1: Option<(Reg, u64)>,
    /// Value of the second source register, if any.
    pub src2: Option<(Reg, u64)>,
    /// Register write performed, if any (never `r0`).
    pub dest: Option<(Reg, u64)>,
    /// Memory effect, if any.
    pub mem: Option<MemEffect>,
    /// Conditional-branch outcome, if this was a branch.
    pub taken: Option<bool>,
    /// PC of the next instruction in program order.
    pub next_pc: u64,
}

// `Retired` is the hot-path payload: every simulated instruction is moved
// through the retire queue, the per-cycle batch, and the delay buffer as
// one of these. Growing it silently taxes every model, so any field
// addition must consciously raise this pin.
const _: () = assert!(
    std::mem::size_of::<Retired>() <= 160,
    "Retired grew past 160 bytes; shrink it or deliberately raise this pin"
);

impl Retired {
    /// Whether this record ends the program.
    pub fn is_halt(&self) -> bool {
        matches!(self.instr, Instr::Halt)
    }
}

/// Errors from functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text segment (wild jump).
    InvalidPc {
        /// The offending PC.
        pc: u64,
    },
    /// The step budget was exhausted before `halt`.
    OutOfFuel {
        /// How many instructions were executed before giving up.
        executed: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidPc { pc } => write!(f, "pc {pc:#x} is outside the text segment"),
            ExecError::OutOfFuel { executed } => {
                write!(f, "program did not halt within {executed} instructions")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Architectural state plus a functional (non-timing) simulator.
///
/// This is the reproduction's reference oracle, playing the role of the
/// "functional simulator run independently and in parallel with the
/// detailed timing simulator" in the paper's §4: every timing model in the
/// workspace is validated against it.
///
/// ```
/// use slipstream_isa::{assemble, ArchState, Reg};
/// let p = assemble("li r1, 2\nadd r2, r1, r1\nhalt")?;
/// let mut st = ArchState::new(&p);
/// st.run(&p, 100)?;
/// assert_eq!(st.reg(Reg::new(2)), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArchState {
    pc: u64,
    regs: [u64; NUM_REGS],
    mem: Memory,
    halted: bool,
    retired: u64,
}

impl ArchState {
    /// Creates architectural state positioned at `program`'s entry with its
    /// data segments loaded.
    pub fn new(program: &Program) -> ArchState {
        ArchState {
            pc: program.entry(),
            regs: [0; NUM_REGS],
            mem: program.initial_memory(),
            halted: false,
            retired: 0,
        }
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads a register (reads of `r0` return 0).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// All 64 registers (index 0 is always 0).
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.regs
    }

    /// The data memory image.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the data memory image (fault injection, test
    /// setup).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Whether the program has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of retired instructions so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes one instruction, returning its retirement record.
    ///
    /// After `halt` retires, further calls keep returning the `halt`
    /// record without advancing (`halted()` stays true).
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidPc`] if the PC is outside `program`'s text.
    pub fn step(&mut self, program: &Program) -> Result<Retired, ExecError> {
        let pc = self.pc;
        let instr = *program.instr_at(pc).ok_or(ExecError::InvalidPc { pc })?;
        let rec = instr.exec(self.retired, pc, &self.regs, &self.mem);
        if let Some(m) = rec.mem.filter(|m| m.is_store) {
            self.mem.store(m.addr, m.width, m.value);
        }
        if let Some((d, v)) = rec.dest {
            self.regs[d.index()] = v;
        }
        self.pc = rec.next_pc;
        if matches!(instr, Instr::Halt) {
            self.halted = true;
        }
        self.retired += 1;
        Ok(rec)
    }

    /// Runs `program` until `halt` or until `fuel` instructions retire,
    /// collecting the retirement trace (the `halt` record is included).
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidPc`] on a wild jump; [`ExecError::OutOfFuel`] if
    /// the program doesn't halt within `fuel` steps.
    pub fn run(&mut self, program: &Program, fuel: u64) -> Result<Vec<Retired>, ExecError> {
        let mut trace = Vec::new();
        for _ in 0..fuel {
            let rec = self.step(program)?;
            let halt = rec.is_halt();
            trace.push(rec);
            if halt {
                return Ok(trace);
            }
        }
        Err(ExecError::OutOfFuel { executed: fuel })
    }

    /// Runs to completion without collecting a trace; returns the number of
    /// instructions retired (including `halt`). Each instruction's effects
    /// land straight in the registers and memory: no [`Retired`] is built
    /// and no store's old value is read. The final state, and any error,
    /// are those of a loop of [`ArchState::step`].
    ///
    /// # Errors
    ///
    /// Same as [`ArchState::run`].
    pub fn run_quiet(&mut self, program: &Program, fuel: u64) -> Result<u64, ExecError> {
        let start = self.retired;
        for _ in 0..fuel {
            let pc = self.pc;
            let instr = *program.instr_at(pc).ok_or(ExecError::InvalidPc { pc })?;
            instr.apply(pc, &mut InPlace(self));
            self.retired += 1;
            if matches!(instr, Instr::Halt) {
                self.halted = true;
                return Ok(self.retired - start);
            }
        }
        Err(ExecError::OutOfFuel { executed: fuel })
    }
}

/// The [`Effects`] sink behind [`ArchState::run_quiet`]: every effect lands
/// in the state's own registers, memory and PC, and nothing is recorded.
struct InPlace<'a>(&'a mut ArchState);

impl Effects for InPlace<'_> {
    #[inline(always)]
    fn read(&mut self, r: Reg) -> u64 {
        self.0.regs[r.index()]
    }

    #[inline(always)]
    fn load(&mut self, addr: u64, width: MemWidth) -> u64 {
        self.0.mem.load(addr, width)
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, width: MemWidth, value: u64) {
        self.0.mem.store(addr, width, value);
    }

    #[inline(always)]
    fn write(&mut self, d: Reg, value: u64) {
        self.0.regs[d.index()] = value;
    }

    #[inline(always)]
    fn next(&mut self, next_pc: u64, _taken: Option<bool>) {
        self.0.pc = next_pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::program::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn straight_line_arithmetic() {
        let p = assemble("li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt").unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 100).unwrap();
        assert_eq!(st.reg(r(3)), 42);
        assert_eq!(trace.len(), 4);
        assert!(st.halted());
    }

    #[test]
    fn loop_counts_down() {
        let p = assemble(
            "li r1, 10\nli r2, 0\nloop:\nadd r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
        )
        .unwrap();
        let mut st = ArchState::new(&p);
        st.run(&p, 1000).unwrap();
        assert_eq!(st.reg(r(2)), 55);
    }

    #[test]
    fn memory_round_trip_with_old_value() {
        let p = assemble("li r1, 4096\nli r2, 77\nst r2, 0(r1)\nst r2, 0(r1)\nld r3, 0(r1)\nhalt")
            .unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 100).unwrap();
        assert_eq!(st.reg(r(3)), 77);
        // First store sees old value 0; second (silent) store sees 77.
        let stores: Vec<_> = trace
            .iter()
            .filter_map(|t| t.mem)
            .filter(|m| m.is_store)
            .collect();
        assert_eq!(stores[0].old_value, Some(0));
        assert_eq!(stores[1].old_value, Some(77));
        assert_eq!(stores[1].value, 77);
    }

    #[test]
    fn retired_records_capture_operands() {
        let p = assemble("li r1, 3\nli r2, 4\nadd r3, r1, r2\nhalt").unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 10).unwrap();
        let add = &trace[2];
        assert_eq!(add.src1, Some((r(1), 3)));
        assert_eq!(add.src2, Some((r(2), 4)));
        assert_eq!(add.dest, Some((r(3), 7)));
        assert_eq!(add.seq, 2);
    }

    #[test]
    fn branch_outcomes_recorded() {
        let p = assemble("li r1, 1\nbeq r1, r0, skip\nli r2, 5\nskip:\nhalt").unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 10).unwrap();
        assert_eq!(trace[1].taken, Some(false));
        assert_eq!(st.reg(r(2)), 5);
    }

    #[test]
    fn wild_jump_is_an_error() {
        let p = assemble("li r1, 64\njr r1").unwrap();
        let mut st = ArchState::new(&p);
        st.step(&p).unwrap();
        st.step(&p).unwrap();
        assert_eq!(st.step(&p), Err(ExecError::InvalidPc { pc: 64 }));
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let p = assemble("loop:\nj loop").unwrap();
        let mut st = ArchState::new(&p);
        assert_eq!(st.run(&p, 50), Err(ExecError::OutOfFuel { executed: 50 }));
    }

    #[test]
    fn halt_is_sticky() {
        let p = assemble("halt").unwrap();
        let mut st = ArchState::new(&p);
        st.step(&p).unwrap();
        assert!(st.halted());
        let again = st.step(&p).unwrap();
        assert!(again.is_halt());
        assert_eq!(st.pc(), p.entry());
    }

    #[test]
    fn jal_jr_call_return() {
        let p = assemble("jal r31, func\nli r2, 2\nhalt\nfunc:\nli r1, 1\njr r31").unwrap();
        let mut st = ArchState::new(&p);
        st.run(&p, 100).unwrap();
        assert_eq!(st.reg(r(1)), 1);
        assert_eq!(st.reg(r(2)), 2);
    }

    #[test]
    fn run_quiet_counts_retired() {
        let p = assemble("li r1, 1\nli r2, 2\nhalt").unwrap();
        let mut st = ArchState::new(&p);
        assert_eq!(st.run_quiet(&p, 100).unwrap(), 3);
    }

    #[test]
    fn builder_program_executes() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Li { d: r(1), imm: 9 });
        b.push(Instr::Addi {
            d: r(1),
            a: r(1),
            imm: 1,
        });
        b.push(Instr::Halt);
        let p = b.build();
        let mut st = ArchState::new(&p);
        st.run(&p, 10).unwrap();
        assert_eq!(st.reg(r(1)), 10);
    }

    #[test]
    fn byte_ops_zero_extend() {
        let p = assemble("li r1, 4096\nli r2, 511\nstb r2, 0(r1)\nldb r3, 0(r1)\nhalt").unwrap();
        let mut st = ArchState::new(&p);
        st.run(&p, 10).unwrap();
        assert_eq!(st.reg(r(3)), 0xff);
    }
}
