use std::fmt;

use crate::reg::Reg;

/// Access width of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The architectural effect of executing one instruction, as computed by
/// [`Instr::exec`].
///
/// The *caller* is responsible for applying the effect: writing
/// `dest`, performing `store`, and setting the PC to `next_pc`. This split
/// lets the out-of-order core buffer stores in its store queue and lets the
/// functional simulator apply them immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOut {
    /// Register write: destination and value.
    pub dest: Option<(Reg, u64)>,
    /// Effective address of a load or store.
    pub addr: Option<u64>,
    /// Value to be stored (stores only).
    pub store: Option<(u64, MemWidth, u64)>,
    /// Value that was loaded (loads only).
    pub loaded: Option<u64>,
    /// Conditional-branch outcome (`Some(taken)`), `None` otherwise.
    pub taken: Option<bool>,
    /// Address of the next instruction.
    pub next_pc: u64,
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

    /// Executes the instruction given its (already-read) source operand
    /// values and a read-only view of memory, returning its effect.
    ///
    /// `v1`/`v2` correspond to [`Instr::src_regs`]'s first/second sources
    /// and are ignored when the instruction has fewer sources.
    ///
    /// The caller applies the returned [`ExecOut`]: this function never
    /// mutates anything, which is what lets the A-stream, the R-stream, the
    /// functional oracle, and the fault injector share one implementation
    /// of the ISA semantics.
    pub fn exec<M: MemRead>(&self, pc: u64, v1: u64, v2: u64, mem: M) -> ExecOut {
        use Instr::*;
        let fall = pc.wrapping_add(4);
        let mut out = ExecOut {
            dest: None,
            addr: None,
            store: None,
            loaded: None,
            taken: None,
            next_pc: fall,
        };
        let alu = |v: u64| Some(v);
        let result: Option<u64> = match self {
            Add { .. } => alu(v1.wrapping_add(v2)),
            Sub { .. } => alu(v1.wrapping_sub(v2)),
            And { .. } => alu(v1 & v2),
            Or { .. } => alu(v1 | v2),
            Xor { .. } => alu(v1 ^ v2),
            Slt { .. } => alu(((v1 as i64) < (v2 as i64)) as u64),
            Sltu { .. } => alu((v1 < v2) as u64),
            Sll { .. } => alu(v1.wrapping_shl((v2 & 63) as u32)),
            Srl { .. } => alu(v1.wrapping_shr((v2 & 63) as u32)),
            Sra { .. } => alu(((v1 as i64).wrapping_shr((v2 & 63) as u32)) as u64),
            Mul { .. } => alu(v1.wrapping_mul(v2)),
            Div { .. } => alu(if v2 == 0 {
                u64::MAX
            } else {
                ((v1 as i64).wrapping_div(v2 as i64)) as u64
            }),
            Rem { .. } => alu(if v2 == 0 {
                v1
            } else {
                ((v1 as i64).wrapping_rem(v2 as i64)) as u64
            }),
            Addi { imm, .. } => alu(v1.wrapping_add(*imm as u64)),
            Andi { imm, .. } => alu(v1 & (*imm as u64)),
            Ori { imm, .. } => alu(v1 | (*imm as u64)),
            Xori { imm, .. } => alu(v1 ^ (*imm as u64)),
            Slti { imm, .. } => alu(((v1 as i64) < *imm) as u64),
            Slli { imm, .. } => alu(v1.wrapping_shl((*imm & 63) as u32)),
            Srli { imm, .. } => alu(v1.wrapping_shr((*imm & 63) as u32)),
            Srai { imm, .. } => alu(((v1 as i64).wrapping_shr((*imm & 63) as u32)) as u64),
            Li { imm, .. } => alu(*imm as u64),
            Ld { off, .. } | Ldb { off, .. } => {
                let width = self.mem_width().expect("load has a width");
                let addr = v1.wrapping_add(*off as u64);
                let val = mem.load(addr, width);
                out.addr = Some(addr);
                out.loaded = Some(val);
                Some(val)
            }
            St { off, .. } | Stb { off, .. } => {
                let width = self.mem_width().expect("store has a width");
                let addr = v1.wrapping_add(*off as u64);
                let val = match width {
                    MemWidth::Byte => v2 & 0xff,
                    MemWidth::Word => v2,
                };
                out.addr = Some(addr);
                out.store = Some((addr, width, val));
                None
            }
            Beq { target, .. } => return branch(out, v1 == v2, *target, fall),
            Bne { target, .. } => return branch(out, v1 != v2, *target, fall),
            Blt { target, .. } => return branch(out, (v1 as i64) < (v2 as i64), *target, fall),
            Bge { target, .. } => return branch(out, (v1 as i64) >= (v2 as i64), *target, fall),
            J { target } => {
                out.next_pc = *target;
                None
            }
            Jal { target, .. } => {
                out.next_pc = *target;
                Some(fall)
            }
            Jr { .. } => {
                out.next_pc = v1;
                None
            }
            Halt => {
                out.next_pc = pc;
                None
            }
            Nop => None,
        };
        if let (Some(d), Some(v)) = (self.dest_reg(), result) {
            out.dest = Some((d, v));
        }
        out
    }
}

fn branch(mut out: ExecOut, taken: bool, target: u64, fall: u64) -> ExecOut {
    out.taken = Some(taken);
    out.next_pc = if taken { target } else { fall };
    out
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
            let out = instr.exec(0x1000, v1, v2, NoMem);
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
        assert_eq!(div.exec(0, 10, 0, NoMem).dest, Some((r(1), u64::MAX)));
        let rem = Instr::Rem {
            d: r(1),
            a: r(2),
            b: r(3),
        };
        assert_eq!(rem.exec(0, 10, 0, NoMem).dest, Some((r(1), 10)));
    }

    #[test]
    fn signed_overflow_wraps() {
        let div = Instr::Div {
            d: r(1),
            a: r(2),
            b: r(3),
        };
        let out = div.exec(0, i64::MIN as u64, (-1i64) as u64, NoMem);
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
        assert_eq!(instr.exec(0, 1, 2, NoMem).dest, None);
    }

    #[test]
    fn load_reads_memory_and_reports_address() {
        let instr = Instr::Ld {
            d: r(5),
            base: r(2),
            off: 16,
        };
        let out = instr.exec(0, 100, 0, NoMem);
        assert_eq!(out.addr, Some(116));
        assert_eq!(out.loaded, Some(0xdead_beef));
        assert_eq!(out.dest, Some((r(5), 0xdead_beef)));
    }

    #[test]
    fn store_reports_address_and_value_without_writing() {
        let instr = Instr::St {
            s: r(5),
            base: r(2),
            off: -8,
        };
        let out = instr.exec(0, 100, 77, NoMem);
        assert_eq!(out.addr, Some(92));
        assert_eq!(out.store, Some((92, MemWidth::Word, 77)));
        assert_eq!(out.dest, None);
    }

    #[test]
    fn byte_store_truncates() {
        let instr = Instr::Stb {
            s: r(5),
            base: r(2),
            off: 0,
        };
        let out = instr.exec(0, 0, 0x1ff, NoMem);
        assert_eq!(out.store, Some((0, MemWidth::Byte, 0xff)));
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let beq = Instr::Beq {
            a: r(1),
            b: r(2),
            target: 0x2000,
        };
        let out = beq.exec(0x1000, 5, 5, NoMem);
        assert_eq!(out.taken, Some(true));
        assert_eq!(out.next_pc, 0x2000);
        let out = beq.exec(0x1000, 5, 6, NoMem);
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
        assert_eq!(blt.exec(0, (-1i64) as u64, 0, NoMem).taken, Some(true));
        let bge = Instr::Bge {
            a: r(1),
            b: r(2),
            target: 0x40,
        };
        assert_eq!(bge.exec(0, (-1i64) as u64, 0, NoMem).taken, Some(false));
    }

    #[test]
    fn jumps_redirect_and_jal_links() {
        let j = Instr::J { target: 0x4000 };
        assert_eq!(j.exec(0x1000, 0, 0, NoMem).next_pc, 0x4000);
        let jal = Instr::Jal {
            link: r(9),
            target: 0x4000,
        };
        let out = jal.exec(0x1000, 0, 0, NoMem);
        assert_eq!(out.next_pc, 0x4000);
        assert_eq!(out.dest, Some((r(9), 0x1004)));
        let jr = Instr::Jr { a: r(9) };
        assert_eq!(jr.exec(0x1000, 0x1004, 0, NoMem).next_pc, 0x1004);
    }

    #[test]
    fn halt_loops_in_place() {
        assert_eq!(Instr::Halt.exec(0x1000, 0, 0, NoMem).next_pc, 0x1000);
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
}
