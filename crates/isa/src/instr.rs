use std::fmt;

use crate::arch::{MemEffect, Retired};
use crate::reg::{Reg, NUM_REGS};

/// Access width of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemWidth {
    /// One byte, zero-extended on load.
    Byte,
    /// One 8-byte word (SSIR is a 64-bit machine).
    Word,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Word => 8,
        }
    }
}

/// Coarse instruction class, used by the timing model to pick a function
/// unit latency and by the fetch unit to find control-flow boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply.
    Mul,
    /// Integer divide/remainder.
    Div,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump (`j`, `jal`, `jr`).
    Jump,
    /// Program termination.
    Halt,
    /// No-operation.
    Nop,
}

/// A read-only view of data memory, used by [`Instr::exec`] so that the
/// out-of-order core can execute loads against its own speculative view
/// (store-queue overlay) rather than architectural memory.
pub trait MemRead {
    /// Loads `width` bytes at `addr`, zero-extended into a `u64`.
    fn load(&self, addr: u64, width: MemWidth) -> u64;
}

impl<M: MemRead + ?Sized> MemRead for &M {
    fn load(&self, addr: u64, width: MemWidth) -> u64 {
        (**self).load(addr, width)
    }
}

/// One SSIR instruction.
///
/// The ISA is a classic three-operand RISC: ALU register and immediate
/// forms, word/byte loads and stores, compare-and-branch, absolute jumps,
/// and `halt`. PCs advance by 4 per instruction. Branch and jump targets
/// are absolute byte addresses (the assembler resolves labels).
///
/// Arithmetic wraps; division by zero produces `u64::MAX` (quotient) or the
/// dividend (remainder) rather than trapping, so that speculatively- or
/// erroneously-executed A-stream instructions can never crash the
/// simulator — mirroring how the paper's A-stream keeps retiring while its
/// context is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // each variant's doc comment defines its fields
pub enum Instr {
    /// `d = a + b`
    Add { d: Reg, a: Reg, b: Reg },
    /// `d = a - b`
    Sub { d: Reg, a: Reg, b: Reg },
    /// `d = a & b`
    And { d: Reg, a: Reg, b: Reg },
    /// `d = a | b`
    Or { d: Reg, a: Reg, b: Reg },
    /// `d = a ^ b`
    Xor { d: Reg, a: Reg, b: Reg },
    /// `d = (a as i64) < (b as i64)`
    Slt { d: Reg, a: Reg, b: Reg },
    /// `d = a < b` (unsigned)
    Sltu { d: Reg, a: Reg, b: Reg },
    /// `d = a << (b & 63)`
    Sll { d: Reg, a: Reg, b: Reg },
    /// `d = a >> (b & 63)` (logical)
    Srl { d: Reg, a: Reg, b: Reg },
    /// `d = (a as i64) >> (b & 63)` (arithmetic)
    Sra { d: Reg, a: Reg, b: Reg },
    /// `d = a * b` (wrapping)
    Mul { d: Reg, a: Reg, b: Reg },
    /// `d = (a as i64) / (b as i64)`; `u64::MAX` if `b == 0`
    Div { d: Reg, a: Reg, b: Reg },
    /// `d = (a as i64) % (b as i64)`; `a` if `b == 0`
    Rem { d: Reg, a: Reg, b: Reg },

    /// `d = a + imm`
    Addi { d: Reg, a: Reg, imm: i64 },
    /// `d = a & imm`
    Andi { d: Reg, a: Reg, imm: i64 },
    /// `d = a | imm`
    Ori { d: Reg, a: Reg, imm: i64 },
    /// `d = a ^ imm`
    Xori { d: Reg, a: Reg, imm: i64 },
    /// `d = (a as i64) < imm`
    Slti { d: Reg, a: Reg, imm: i64 },
    /// `d = a << (imm & 63)`
    Slli { d: Reg, a: Reg, imm: i64 },
    /// `d = a >> (imm & 63)` (logical)
    Srli { d: Reg, a: Reg, imm: i64 },
    /// `d = (a as i64) >> (imm & 63)` (arithmetic)
    Srai { d: Reg, a: Reg, imm: i64 },
    /// `d = imm` (load immediate; the assembler also accepts labels)
    Li { d: Reg, imm: i64 },

    /// `d = mem[a + off]` (8 bytes)
    Ld { d: Reg, base: Reg, off: i64 },
    /// `mem[base + off] = s` (8 bytes)
    St { s: Reg, base: Reg, off: i64 },
    /// `d = mem[a + off]` (1 byte, zero-extended)
    Ldb { d: Reg, base: Reg, off: i64 },
    /// `mem[base + off] = s & 0xff` (1 byte)
    Stb { s: Reg, base: Reg, off: i64 },

    /// Branch to `target` if `a == b`.
    Beq { a: Reg, b: Reg, target: u64 },
    /// Branch to `target` if `a != b`.
    Bne { a: Reg, b: Reg, target: u64 },
    /// Branch to `target` if `(a as i64) < (b as i64)`.
    Blt { a: Reg, b: Reg, target: u64 },
    /// Branch to `target` if `(a as i64) >= (b as i64)`.
    Bge { a: Reg, b: Reg, target: u64 },

    /// Unconditional jump to `target`.
    J { target: u64 },
    /// Jump to `target`, writing the return address (`pc + 4`) to `link`.
    Jal { link: Reg, target: u64 },
    /// Indirect jump to the address in `a`.
    Jr { a: Reg },

    /// Stop the program.
    Halt,
    /// Do nothing.
    Nop,
}

/// Where [`Instr::apply`] sends one instruction's architectural effects.
///
/// The sink supplies the operands (register reads, loads) and receives
/// the results (the register write, the store, the next PC). Two sinks
/// exist: [`Instr::exec`] records every effect into a [`Retired`] without
/// changing anything, and [`ArchState::run_quiet`](crate::ArchState::run_quiet)
/// writes straight into its registers and memory.
pub(crate) trait Effects {
    /// Reads source register `r`. `apply` calls it once per source that
    /// [`Instr::src_regs`] names, in that order; a read of `r0` must
    /// return 0.
    fn read(&mut self, r: Reg) -> u64;
    /// Loads `width` bytes at `addr`, zero-extended into a `u64`.
    fn load(&mut self, addr: u64, width: MemWidth) -> u64;
    /// Stores `value`, already truncated to `width`, at `addr`.
    fn store(&mut self, addr: u64, width: MemWidth, value: u64);
    /// Writes `value` to `d`, which is never `r0` (the register
    /// [`Instr::dest_reg`] names).
    fn write(&mut self, d: Reg, value: u64);
    /// The address of the next instruction, with the conditional-branch
    /// outcome (`None` for everything but a conditional branch). `apply`
    /// calls it last, exactly once.
    fn next(&mut self, next_pc: u64, taken: Option<bool>);
}

impl Instr {
    /// The instruction's coarse class (drives function-unit latency).
    pub fn kind(&self) -> InstrKind {
        use Instr::*;
        match self {
            Mul { .. } => InstrKind::Mul,
            Div { .. } | Rem { .. } => InstrKind::Div,
            Ld { .. } | Ldb { .. } => InstrKind::Load,
            St { .. } | Stb { .. } => InstrKind::Store,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } => InstrKind::Branch,
            J { .. } | Jal { .. } | Jr { .. } => InstrKind::Jump,
            Halt => InstrKind::Halt,
            Nop => InstrKind::Nop,
            _ => InstrKind::IntAlu,
        }
    }

    /// Destination register, if the instruction writes one.
    ///
    /// Writes to `r0` are reported as `None` (they are architectural
    /// no-ops), so the IR-detector never tracks them as real writes.
    pub fn dest_reg(&self) -> Option<Reg> {
        use Instr::*;
        let d = match self {
            Add { d, .. }
            | Sub { d, .. }
            | And { d, .. }
            | Or { d, .. }
            | Xor { d, .. }
            | Slt { d, .. }
            | Sltu { d, .. }
            | Sll { d, .. }
            | Srl { d, .. }
            | Sra { d, .. }
            | Mul { d, .. }
            | Div { d, .. }
            | Rem { d, .. }
            | Addi { d, .. }
            | Andi { d, .. }
            | Ori { d, .. }
            | Xori { d, .. }
            | Slti { d, .. }
            | Slli { d, .. }
            | Srli { d, .. }
            | Srai { d, .. }
            | Li { d, .. }
            | Ld { d, .. }
            | Ldb { d, .. } => *d,
            Jal { link, .. } => *link,
            _ => return None,
        };
        (!d.is_zero()).then_some(d)
    }

    /// Source registers `(first, second)`.
    ///
    /// For stores the first source is the base address register and the
    /// second is the value being stored. Reads of `r0` are still reported
    /// (they are real operands; they simply always read zero).
    pub fn src_regs(&self) -> (Option<Reg>, Option<Reg>) {
        use Instr::*;
        match self {
            Add { a, b, .. }
            | Sub { a, b, .. }
            | And { a, b, .. }
            | Or { a, b, .. }
            | Xor { a, b, .. }
            | Slt { a, b, .. }
            | Sltu { a, b, .. }
            | Sll { a, b, .. }
            | Srl { a, b, .. }
            | Sra { a, b, .. }
            | Mul { a, b, .. }
            | Div { a, b, .. }
            | Rem { a, b, .. } => (Some(*a), Some(*b)),
            Addi { a, .. }
            | Andi { a, .. }
            | Ori { a, .. }
            | Xori { a, .. }
            | Slti { a, .. }
            | Slli { a, .. }
            | Srli { a, .. }
            | Srai { a, .. } => (Some(*a), None),
            Li { .. } => (None, None),
            Ld { base, .. } | Ldb { base, .. } => (Some(*base), None),
            St { base, s, .. } | Stb { base, s, .. } => (Some(*base), Some(*s)),
            Beq { a, b, .. } | Bne { a, b, .. } | Blt { a, b, .. } | Bge { a, b, .. } => {
                (Some(*a), Some(*b))
            }
            Jr { a } => (Some(*a), None),
            J { .. } | Jal { .. } | Halt | Nop => (None, None),
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        self.kind() == InstrKind::Branch
    }

    /// Whether this instruction writes memory.
    pub fn is_store(&self) -> bool {
        self.kind() == InstrKind::Store
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        self.kind() == InstrKind::Load
    }

    /// The statically-known control-flow target, if any (`None` for `jr`).
    pub fn static_target(&self) -> Option<u64> {
        use Instr::*;
        match self {
            Beq { target, .. }
            | Bne { target, .. }
            | Blt { target, .. }
            | Bge { target, .. }
            | J { target }
            | Jal { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Memory access width for loads/stores.
    pub fn mem_width(&self) -> Option<MemWidth> {
        use Instr::*;
        match self {
            Ld { .. } | St { .. } => Some(MemWidth::Word),
            Ldb { .. } | Stb { .. } => Some(MemWidth::Byte),
            _ => None,
        }
    }

    /// Executes the instruction at `pc` through `fx`: reads its sources,
    /// performs its load or store, writes its destination, and reports the
    /// next PC. This is the one definition of every opcode's semantics;
    /// each [`Effects`] sink decides what the effects touch.
    #[inline]
    pub(crate) fn apply<E: Effects>(&self, pc: u64, fx: &mut E) {
        use Instr::*;
        use MemWidth::{Byte, Word};
        let fall = pc.wrapping_add(4);
        let (d, value) = match *self {
            Add { d, a, b } => (d, rr(fx, a, b, u64::wrapping_add)),
            Sub { d, a, b } => (d, rr(fx, a, b, u64::wrapping_sub)),
            And { d, a, b } => (d, rr(fx, a, b, |x, y| x & y)),
            Or { d, a, b } => (d, rr(fx, a, b, |x, y| x | y)),
            Xor { d, a, b } => (d, rr(fx, a, b, |x, y| x ^ y)),
            Slt { d, a, b } => (d, rr(fx, a, b, |x, y| ((x as i64) < (y as i64)) as u64)),
            Sltu { d, a, b } => (d, rr(fx, a, b, |x, y| (x < y) as u64)),
            Sll { d, a, b } => (d, rr(fx, a, b, shl)),
            Srl { d, a, b } => (d, rr(fx, a, b, shr)),
            Sra { d, a, b } => (d, rr(fx, a, b, sra)),
            Mul { d, a, b } => (d, rr(fx, a, b, u64::wrapping_mul)),
            Div { d, a, b } => (
                d,
                rr(fx, a, b, |x, y| {
                    if y == 0 {
                        u64::MAX
                    } else {
                        (x as i64).wrapping_div(y as i64) as u64
                    }
                }),
            ),
            Rem { d, a, b } => (
                d,
                rr(fx, a, b, |x, y| {
                    if y == 0 {
                        x
                    } else {
                        (x as i64).wrapping_rem(y as i64) as u64
                    }
                }),
            ),
            Addi { d, a, imm } => (d, fx.read(a).wrapping_add(imm as u64)),
            Andi { d, a, imm } => (d, fx.read(a) & imm as u64),
            Ori { d, a, imm } => (d, fx.read(a) | imm as u64),
            Xori { d, a, imm } => (d, fx.read(a) ^ imm as u64),
            Slti { d, a, imm } => (d, ((fx.read(a) as i64) < imm) as u64),
            Slli { d, a, imm } => (d, shl(fx.read(a), imm as u64)),
            Srli { d, a, imm } => (d, shr(fx.read(a), imm as u64)),
            Srai { d, a, imm } => (d, sra(fx.read(a), imm as u64)),
            Li { d, imm } => (d, imm as u64),
            Ld { d, base, off } => (d, load(fx, base, off, Word)),
            Ldb { d, base, off } => (d, load(fx, base, off, Byte)),
            St { s, base, off } => return store(fx, base, off, s, Word, fall),
            Stb { s, base, off } => return store(fx, base, off, s, Byte, fall),
            Beq { a, b, target } => return branch(fx, a, b, |x, y| x == y, target, fall),
            Bne { a, b, target } => return branch(fx, a, b, |x, y| x != y, target, fall),
            Blt { a, b, target } => {
                return branch(fx, a, b, |x, y| (x as i64) < (y as i64), target, fall)
            }
            Bge { a, b, target } => {
                return branch(fx, a, b, |x, y| (x as i64) >= (y as i64), target, fall)
            }
            J { target } => return fx.next(target, None),
            Jal { link, target } => {
                write(fx, link, fall);
                return fx.next(target, None);
            }
            Jr { a } => {
                let target = fx.read(a);
                return fx.next(target, None);
            }
            Halt => return fx.next(pc, None),
            Nop => return fx.next(fall, None),
        };
        write(fx, d, value);
        fx.next(fall, None);
    }

    /// Executes the instruction at `pc` as dynamic instruction `seq`, with
    /// source operands read from `regs` and loads from `mem`, returning its
    /// retirement record (a store's old value is read from `mem` too).
    /// Nothing is mutated: the caller applies the record's register write,
    /// store and next PC, which is what lets the functional simulator, the
    /// out-of-order core's speculative dispatch and the fault injector
    /// share `Instr::apply`.
    pub fn exec<M: MemRead>(&self, seq: u64, pc: u64, regs: &[u64; NUM_REGS], mem: M) -> Retired {
        let mut rec = Record {
            regs,
            mem,
            out: Retired {
                seq,
                pc,
                instr: *self,
                src1: None,
                src2: None,
                dest: None,
                mem: None,
                taken: None,
                next_pc: pc,
            },
        };
        self.apply(pc, &mut rec);
        rec.out
    }
}

/// Reads `a` then `b` and combines them.
#[inline(always)]
fn rr<E: Effects>(fx: &mut E, a: Reg, b: Reg, f: impl FnOnce(u64, u64) -> u64) -> u64 {
    let x = fx.read(a);
    let y = fx.read(b);
    f(x, y)
}

fn shl(x: u64, by: u64) -> u64 {
    x.wrapping_shl((by & 63) as u32)
}

fn shr(x: u64, by: u64) -> u64 {
    x.wrapping_shr((by & 63) as u32)
}

fn sra(x: u64, by: u64) -> u64 {
    (x as i64).wrapping_shr((by & 63) as u32) as u64
}

/// A register write; writes to `r0` are architectural no-ops and never
/// reach the sink.
#[inline(always)]
fn write<E: Effects>(fx: &mut E, d: Reg, value: u64) {
    if !d.is_zero() {
        fx.write(d, value);
    }
}

#[inline(always)]
fn load<E: Effects>(fx: &mut E, base: Reg, off: i64, width: MemWidth) -> u64 {
    let addr = fx.read(base).wrapping_add(off as u64);
    fx.load(addr, width)
}

/// Reads the base, then the value (the [`Instr::src_regs`] order).
#[inline(always)]
fn store<E: Effects>(fx: &mut E, base: Reg, off: i64, s: Reg, width: MemWidth, fall: u64) {
    let addr = fx.read(base).wrapping_add(off as u64);
    let value = match width {
        MemWidth::Byte => fx.read(s) & 0xff,
        MemWidth::Word => fx.read(s),
    };
    fx.store(addr, width, value);
    fx.next(fall, None);
}

#[inline(always)]
fn branch<E: Effects>(
    fx: &mut E,
    a: Reg,
    b: Reg,
    cond: impl FnOnce(u64, u64) -> bool,
    target: u64,
    fall: u64,
) {
    let x = fx.read(a);
    let y = fx.read(b);
    let taken = cond(x, y);
    fx.next(if taken { target } else { fall }, Some(taken));
}

/// The [`Effects`] sink behind [`Instr::exec`]: operands come from a
/// register file and a read-only memory view, and every effect is
/// recorded rather than performed.
struct Record<'a, M> {
    regs: &'a [u64; NUM_REGS],
    mem: M,
    out: Retired,
}

impl<M: MemRead> Effects for Record<'_, M> {
    #[inline(always)]
    fn read(&mut self, r: Reg) -> u64 {
        let v = self.regs[r.index()];
        let slot = if self.out.src1.is_none() {
            &mut self.out.src1
        } else {
            &mut self.out.src2
        };
        *slot = Some((r, v));
        v
    }

    #[inline(always)]
    fn load(&mut self, addr: u64, width: MemWidth) -> u64 {
        let value = self.mem.load(addr, width);
        self.out.mem = Some(MemEffect {
            addr,
            width,
            value,
            old_value: None,
            is_store: false,
        });
        value
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, width: MemWidth, value: u64) {
        self.out.mem = Some(MemEffect {
            addr,
            width,
            value,
            old_value: Some(self.mem.load(addr, width)),
            is_store: true,
        });
    }

    #[inline(always)]
    fn write(&mut self, d: Reg, value: u64) {
        self.out.dest = Some((d, value));
    }

    #[inline(always)]
    fn next(&mut self, next_pc: u64, taken: Option<bool>) {
        self.out.next_pc = next_pc;
        self.out.taken = taken;
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match self {
            Add { d, a, b } => write!(f, "add {d}, {a}, {b}"),
            Sub { d, a, b } => write!(f, "sub {d}, {a}, {b}"),
            And { d, a, b } => write!(f, "and {d}, {a}, {b}"),
            Or { d, a, b } => write!(f, "or {d}, {a}, {b}"),
            Xor { d, a, b } => write!(f, "xor {d}, {a}, {b}"),
            Slt { d, a, b } => write!(f, "slt {d}, {a}, {b}"),
            Sltu { d, a, b } => write!(f, "sltu {d}, {a}, {b}"),
            Sll { d, a, b } => write!(f, "sll {d}, {a}, {b}"),
            Srl { d, a, b } => write!(f, "srl {d}, {a}, {b}"),
            Sra { d, a, b } => write!(f, "sra {d}, {a}, {b}"),
            Mul { d, a, b } => write!(f, "mul {d}, {a}, {b}"),
            Div { d, a, b } => write!(f, "div {d}, {a}, {b}"),
            Rem { d, a, b } => write!(f, "rem {d}, {a}, {b}"),
            Addi { d, a, imm } => write!(f, "addi {d}, {a}, {imm}"),
            Andi { d, a, imm } => write!(f, "andi {d}, {a}, {imm}"),
            Ori { d, a, imm } => write!(f, "ori {d}, {a}, {imm}"),
            Xori { d, a, imm } => write!(f, "xori {d}, {a}, {imm}"),
            Slti { d, a, imm } => write!(f, "slti {d}, {a}, {imm}"),
            Slli { d, a, imm } => write!(f, "slli {d}, {a}, {imm}"),
            Srli { d, a, imm } => write!(f, "srli {d}, {a}, {imm}"),
            Srai { d, a, imm } => write!(f, "srai {d}, {a}, {imm}"),
            Li { d, imm } => write!(f, "li {d}, {imm}"),
            Ld { d, base, off } => write!(f, "ld {d}, {off}({base})"),
            St { s, base, off } => write!(f, "st {s}, {off}({base})"),
            Ldb { d, base, off } => write!(f, "ldb {d}, {off}({base})"),
            Stb { s, base, off } => write!(f, "stb {s}, {off}({base})"),
            Beq { a, b, target } => write!(f, "beq {a}, {b}, {target:#x}"),
            Bne { a, b, target } => write!(f, "bne {a}, {b}, {target:#x}"),
            Blt { a, b, target } => write!(f, "blt {a}, {b}, {target:#x}"),
            Bge { a, b, target } => write!(f, "bge {a}, {b}, {target:#x}"),
            J { target } => write!(f, "j {target:#x}"),
            Jal { link, target } => write!(f, "jal {link}, {target:#x}"),
            Jr { a } => write!(f, "jr {a}"),
            Halt => write!(f, "halt"),
            Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoMem;
    impl MemRead for NoMem {
        fn load(&self, _addr: u64, _width: MemWidth) -> u64 {
            0xdead_beef
        }
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// [`Instr::exec`] with `v1`/`v2` in the registers that
    /// [`Instr::src_regs`] names, and every load reading `0xdead_beef`.
    fn exec(instr: &Instr, pc: u64, v1: u64, v2: u64) -> Retired {
        let mut regs = [0; NUM_REGS];
        let (s1, s2) = instr.src_regs();
        if let Some(s) = s1 {
            regs[s.index()] = v1;
        }
        if let Some(s) = s2 {
            regs[s.index()] = v2;
        }
        instr.exec(0, pc, &regs, NoMem)
    }

    #[test]
    fn alu_semantics() {
        let cases: Vec<(Instr, u64, u64, u64)> = vec![
            (
                Instr::Add {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                7,
                8,
                15,
            ),
            (
                Instr::Sub {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                7,
                8,
                (-1i64) as u64,
            ),
            (
                Instr::And {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                0b1100,
                0b1010,
                0b1000,
            ),
            (
                Instr::Or {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                0b1100,
                0b1010,
                0b1110,
            ),
            (
                Instr::Xor {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                0b1100,
                0b1010,
                0b0110,
            ),
            (
                Instr::Slt {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                (-5i64) as u64,
                3,
                1,
            ),
            (
                Instr::Sltu {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                (-5i64) as u64,
                3,
                0,
            ),
            (
                Instr::Sll {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                1,
                4,
                16,
            ),
            (
                Instr::Srl {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                16,
                4,
                1,
            ),
            (
                Instr::Sra {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                (-16i64) as u64,
                4,
                (-1i64) as u64,
            ),
            (
                Instr::Mul {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                6,
                7,
                42,
            ),
            (
                Instr::Div {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                42,
                7,
                6,
            ),
            (
                Instr::Rem {
                    d: r(1),
                    a: r(2),
                    b: r(3),
                },
                43,
                7,
                1,
            ),
        ];
        for (instr, v1, v2, want) in cases {
            let out = exec(&instr, 0x1000, v1, v2);
            assert_eq!(out.dest, Some((r(1), want)), "{instr}");
            assert_eq!(out.next_pc, 0x1004, "{instr}");
        }
    }

    #[test]
    fn division_by_zero_does_not_trap() {
        let div = Instr::Div {
            d: r(1),
            a: r(2),
            b: r(3),
        };
        assert_eq!(exec(&div, 0, 10, 0).dest, Some((r(1), u64::MAX)));
        let rem = Instr::Rem {
            d: r(1),
            a: r(2),
            b: r(3),
        };
        assert_eq!(exec(&rem, 0, 10, 0).dest, Some((r(1), 10)));
    }

    #[test]
    fn signed_overflow_wraps() {
        let div = Instr::Div {
            d: r(1),
            a: r(2),
            b: r(3),
        };
        let out = exec(&div, 0, i64::MIN as u64, (-1i64) as u64);
        assert_eq!(out.dest, Some((r(1), i64::MIN as u64)));
    }

    #[test]
    fn writes_to_r0_are_discarded() {
        let instr = Instr::Add {
            d: Reg::ZERO,
            a: r(2),
            b: r(3),
        };
        assert_eq!(instr.dest_reg(), None);
        assert_eq!(exec(&instr, 0, 1, 2).dest, None);
    }

    #[test]
    fn load_reads_memory_and_reports_address() {
        let instr = Instr::Ld {
            d: r(5),
            base: r(2),
            off: 16,
        };
        let out = exec(&instr, 0, 100, 0);
        let m = out.mem.expect("a load reports its access");
        assert_eq!(
            (m.addr, m.width, m.value),
            (116, MemWidth::Word, 0xdead_beef)
        );
        assert!(!m.is_store && m.old_value.is_none());
        assert_eq!(out.dest, Some((r(5), 0xdead_beef)));
    }

    #[test]
    fn store_reports_address_and_value_without_writing() {
        let instr = Instr::St {
            s: r(5),
            base: r(2),
            off: -8,
        };
        let out = exec(&instr, 0, 100, 77);
        let m = out.mem.expect("a store reports its access");
        assert_eq!((m.addr, m.width, m.value), (92, MemWidth::Word, 77));
        // The old value is read from the view, which nothing wrote.
        assert!(m.is_store && m.old_value == Some(0xdead_beef));
        assert_eq!(out.dest, None);
    }

    #[test]
    fn byte_store_truncates() {
        let instr = Instr::Stb {
            s: r(5),
            base: r(2),
            off: 0,
        };
        let m = exec(&instr, 0, 0, 0x1ff).mem.expect("a store");
        assert_eq!((m.addr, m.width, m.value), (0, MemWidth::Byte, 0xff));
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let beq = Instr::Beq {
            a: r(1),
            b: r(2),
            target: 0x2000,
        };
        let out = exec(&beq, 0x1000, 5, 5);
        assert_eq!(out.taken, Some(true));
        assert_eq!(out.next_pc, 0x2000);
        let out = exec(&beq, 0x1000, 5, 6);
        assert_eq!(out.taken, Some(false));
        assert_eq!(out.next_pc, 0x1004);
    }

    #[test]
    fn signed_branch_compare() {
        let blt = Instr::Blt {
            a: r(1),
            b: r(2),
            target: 0x40,
        };
        assert_eq!(exec(&blt, 0, (-1i64) as u64, 0).taken, Some(true));
        let bge = Instr::Bge {
            a: r(1),
            b: r(2),
            target: 0x40,
        };
        assert_eq!(exec(&bge, 0, (-1i64) as u64, 0).taken, Some(false));
    }

    #[test]
    fn jumps_redirect_and_jal_links() {
        let j = Instr::J { target: 0x4000 };
        assert_eq!(exec(&j, 0x1000, 0, 0).next_pc, 0x4000);
        let jal = Instr::Jal {
            link: r(9),
            target: 0x4000,
        };
        let out = exec(&jal, 0x1000, 0, 0);
        assert_eq!(out.next_pc, 0x4000);
        assert_eq!(out.dest, Some((r(9), 0x1004)));
        let jr = Instr::Jr { a: r(9) };
        assert_eq!(exec(&jr, 0x1000, 0x1004, 0).next_pc, 0x1004);
    }

    #[test]
    fn halt_loops_in_place() {
        assert_eq!(exec(&Instr::Halt, 0x1000, 0, 0).next_pc, 0x1000);
    }

    #[test]
    fn kind_classification() {
        assert_eq!(
            Instr::Mul {
                d: r(1),
                a: r(1),
                b: r(1)
            }
            .kind(),
            InstrKind::Mul
        );
        assert_eq!(
            Instr::Div {
                d: r(1),
                a: r(1),
                b: r(1)
            }
            .kind(),
            InstrKind::Div
        );
        assert_eq!(
            Instr::Ld {
                d: r(1),
                base: r(1),
                off: 0
            }
            .kind(),
            InstrKind::Load
        );
        assert_eq!(
            Instr::St {
                s: r(1),
                base: r(1),
                off: 0
            }
            .kind(),
            InstrKind::Store
        );
        assert_eq!(
            Instr::Beq {
                a: r(1),
                b: r(1),
                target: 0
            }
            .kind(),
            InstrKind::Branch
        );
        assert_eq!(Instr::J { target: 0 }.kind(), InstrKind::Jump);
        assert_eq!(Instr::Halt.kind(), InstrKind::Halt);
        assert_eq!(Instr::Nop.kind(), InstrKind::Nop);
        assert_eq!(
            Instr::Add {
                d: r(1),
                a: r(1),
                b: r(1)
            }
            .kind(),
            InstrKind::IntAlu
        );
    }

    #[test]
    fn store_sources_are_base_then_value() {
        let st = Instr::St {
            s: r(7),
            base: r(3),
            off: 0,
        };
        assert_eq!(st.src_regs(), (Some(r(3)), Some(r(7))));
        assert_eq!(st.dest_reg(), None);
    }

    #[test]
    fn static_targets() {
        assert_eq!(Instr::J { target: 0x99 }.static_target(), Some(0x99));
        assert_eq!(Instr::Jr { a: r(1) }.static_target(), None);
        assert_eq!(
            Instr::Bne {
                a: r(1),
                b: r(2),
                target: 0x44
            }
            .static_target(),
            Some(0x44)
        );
    }

    /// One instance of every variant, writing to `d` where it writes; the
    /// operand registers are distinct and non-zero.
    fn every_variant(d: Reg) -> Vec<Instr> {
        use Instr::*;
        let (a, b, s, base) = (r(2), r(3), r(4), r(5));
        let (imm, off, target) = (-3, 8, 0x40);
        vec![
            Add { d, a, b },
            Sub { d, a, b },
            And { d, a, b },
            Or { d, a, b },
            Xor { d, a, b },
            Slt { d, a, b },
            Sltu { d, a, b },
            Sll { d, a, b },
            Srl { d, a, b },
            Sra { d, a, b },
            Mul { d, a, b },
            Div { d, a, b },
            Rem { d, a, b },
            Addi { d, a, imm },
            Andi { d, a, imm },
            Ori { d, a, imm },
            Xori { d, a, imm },
            Slti { d, a, imm },
            Slli { d, a, imm },
            Srli { d, a, imm },
            Srai { d, a, imm },
            Li { d, imm },
            Ld { d, base, off },
            St { s, base, off },
            Ldb { d, base, off },
            Stb { s, base, off },
            Beq { a, b, target },
            Bne { a, b, target },
            Blt { a, b, target },
            Bge { a, b, target },
            J { target },
            Jal { link: d, target },
            Jr { a },
            Halt,
            Nop,
        ]
    }

    /// The variant's position in the enum. The match has no wildcard, so
    /// adding a variant fails to compile until it is listed here and in
    /// [`every_variant`].
    fn variant_no(i: &Instr) -> usize {
        use Instr::*;
        match i {
            Add { .. } => 0,
            Sub { .. } => 1,
            And { .. } => 2,
            Or { .. } => 3,
            Xor { .. } => 4,
            Slt { .. } => 5,
            Sltu { .. } => 6,
            Sll { .. } => 7,
            Srl { .. } => 8,
            Sra { .. } => 9,
            Mul { .. } => 10,
            Div { .. } => 11,
            Rem { .. } => 12,
            Addi { .. } => 13,
            Andi { .. } => 14,
            Ori { .. } => 15,
            Xori { .. } => 16,
            Slti { .. } => 17,
            Slli { .. } => 18,
            Srli { .. } => 19,
            Srai { .. } => 20,
            Li { .. } => 21,
            Ld { .. } => 22,
            St { .. } => 23,
            Ldb { .. } => 24,
            Stb { .. } => 25,
            Beq { .. } => 26,
            Bne { .. } => 27,
            Blt { .. } => 28,
            Bge { .. } => 29,
            J { .. } => 30,
            Jal { .. } => 31,
            Jr { .. } => 32,
            Halt => 33,
            Nop => 34,
        }
    }

    /// Every effect `apply` sends, in order. Register `rN` reads
    /// `0xabcd_0100 + N`, so a byte store's value differs from its
    /// register's.
    #[derive(Default)]
    struct Log {
        reads: Vec<Reg>,
        writes: Vec<Reg>,
        accesses: Vec<(MemWidth, Option<u64>)>,
        nexts: usize,
    }

    impl Effects for Log {
        fn read(&mut self, r: Reg) -> u64 {
            assert_eq!(self.nexts, 0, "read after next");
            self.reads.push(r);
            0xabcd_0100 + r.index() as u64
        }
        fn load(&mut self, _addr: u64, width: MemWidth) -> u64 {
            self.accesses.push((width, None));
            7
        }
        fn store(&mut self, _addr: u64, width: MemWidth, value: u64) {
            self.accesses.push((width, Some(value)));
        }
        fn write(&mut self, d: Reg, _value: u64) {
            self.writes.push(d);
        }
        fn next(&mut self, _next_pc: u64, _taken: Option<bool>) {
            self.nexts += 1;
        }
    }

    /// The decode helpers the dependence tracking and the IR-detector read
    /// (`src_regs`, `dest_reg`, `mem_width`) name exactly what `apply`
    /// does, for every variant, with a real destination and with `r0`.
    #[test]
    fn decode_helpers_match_apply() {
        let mut seen: Vec<usize> = every_variant(r(1)).iter().map(variant_no).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..35).collect::<Vec<_>>(), "every variant once");
        for d in [r(1), Reg::ZERO] {
            for instr in every_variant(d) {
                let mut log = Log::default();
                instr.apply(0x1000, &mut log);
                let (s1, s2) = instr.src_regs();
                let srcs: Vec<Reg> = s1.into_iter().chain(s2).collect();
                assert_eq!(log.reads, srcs, "{instr}: reads");
                let dest: Vec<Reg> = instr.dest_reg().into_iter().collect();
                assert_eq!(log.writes, dest, "{instr}: writes");
                assert!(!log.writes.contains(&Reg::ZERO), "{instr}: r0 write");
                assert_eq!(log.nexts, 1, "{instr}: next PC reported once");
                match instr.mem_width() {
                    None => assert!(log.accesses.is_empty(), "{instr}: no access"),
                    Some(w) => {
                        assert_eq!(log.accesses.len(), 1, "{instr}: one access");
                        let (width, stored) = log.accesses[0];
                        assert_eq!(width, w, "{instr}: width");
                        assert_eq!(stored.is_some(), instr.is_store(), "{instr}: kind");
                        if let (Some(v), Some(s)) = (stored, s2) {
                            let full = 0xabcd_0100 + s.index() as u64;
                            let want = match w {
                                MemWidth::Byte => full & 0xff,
                                MemWidth::Word => full,
                            };
                            assert_eq!(v, want, "{instr}: stored value");
                        }
                    }
                }
            }
        }
    }
}
