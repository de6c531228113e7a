use std::fmt;

use crate::arch::{MemEffect, Retired};
use crate::asm::{AsmError, Operands};
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

/// One row of the opcode table as data: what the round-trip tests and the
/// SSIR reader fuzz iterate (see [`OPCODES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opcode {
    /// The assembly mnemonic.
    pub mnemonic: &'static str,
    /// The operand format: `rrr`, `rri`, `li`, `load`, `store`, `branch`,
    /// `j`, `jal`, `jr` or `none`.
    pub format: &'static str,
}

/// Generates everything that reads an opcode's operands from the opcode
/// table below, so that each opcode is declared once.
///
/// A row is `Variant "mnemonic" format Kind [Width],` under the variant's
/// doc comment. The format fixes the variant's fields, and each `@format`
/// rule gives, for those fields, one `match` arm per generated helper: the
/// destination, the sources, the immediate, the target, the `Display`
/// layout and the assembler's lowering. `@rows` appends each row with its
/// format's arms, and `@emit` writes, one arm per opcode:
///
/// - the [`Instr`] enum;
/// - `kind`, `dest_reg`, `src_regs`, `static_target` and `mem_width`;
/// - the immediate accessors `imm`/`imm_mut` and the target rewriter
///   `target_mut`;
/// - `Display`, the assembler's `lower` and [`OPCODES`].
///
/// The semantics stay in [`Instr::apply`], the one hand-written per-opcode
/// `match`, which does not compile until a new variant has its arm.
macro_rules! opcodes {
    (@rows [$($done:tt)*]) => { opcodes!(@emit $($done)*); };
    (@rows $done:tt
        $(#[$m:meta])* $V:ident $mn:literal $fmt:ident $k:ident $($w:ident)?, $($rest:tt)*
    ) => {
        opcodes!(@$fmt $done [$(#[$m])* $V $mn $fmt $k [$($w)?]] $($rest)*);
    };

    // `add d, a, b`
    (@rrr [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ d: Reg, a: Reg, b: Reg })
        dest { d, .. } => Some(d);
        srcs { a, b, .. } => (Some(a), Some(b));
        imm { .. } => None;
        target { .. } => None;
        show { d, a, b } => "{} {}, {}, {}", d, a, b;
        lower(o) { o.want(3)?; } { d: o.reg(0)?, a: o.reg(1)?, b: o.reg(2)? }
    }] $($rest)*); };
    // `addi d, a, imm`
    (@rri [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ d: Reg, a: Reg, imm: i64 })
        dest { d, .. } => Some(d);
        srcs { a, .. } => (Some(a), None);
        imm { imm, .. } => Some(imm);
        target { .. } => None;
        show { d, a, imm } => "{} {}, {}, {}", d, a, imm;
        lower(o) { o.want(3)?; } { d: o.reg(0)?, a: o.reg(1)?, imm: o.imm(2)? }
    }] $($rest)*); };
    // `li d, imm`
    (@li [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ d: Reg, imm: i64 })
        dest { d, .. } => Some(d);
        srcs { .. } => (None, None);
        imm { imm, .. } => Some(imm);
        target { .. } => None;
        show { d, imm } => "{} {}, {}", d, imm;
        lower(o) { o.want(2)?; } { d: o.reg(0)?, imm: o.imm(1)? }
    }] $($rest)*); };
    // `ld d, off(base)`
    (@load [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ d: Reg, base: Reg, off: i64 })
        dest { d, .. } => Some(d);
        srcs { base, .. } => (Some(base), None);
        imm { off, .. } => Some(off);
        target { .. } => None;
        show { d, base, off } => "{} {}, {}({})", d, off, base;
        lower(o) { o.want(2)?; let (off, base) = o.mem(1)?; } { d: o.reg(0)?, base, off }
    }] $($rest)*); };
    // `st s, off(base)`: the base is the first source, the value the second
    (@store [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ s: Reg, base: Reg, off: i64 })
        dest { .. } => None;
        srcs { s, base, .. } => (Some(base), Some(s));
        imm { off, .. } => Some(off);
        target { .. } => None;
        show { s, base, off } => "{} {}, {}({})", s, off, base;
        lower(o) { o.want(2)?; let (off, base) = o.mem(1)?; } { s: o.reg(0)?, base, off }
    }] $($rest)*); };
    // `beq a, b, target`
    (@branch [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ a: Reg, b: Reg, target: u64 })
        dest { .. } => None;
        srcs { a, b, .. } => (Some(a), Some(b));
        imm { .. } => None;
        target { target, .. } => Some(target);
        show { a, b, target } => "{} {}, {}, {:#x}", a, b, target;
        lower(o) { o.want(3)?; } { a: o.reg(0)?, b: o.reg(1)?, target: o.target(2)? }
    }] $($rest)*); };
    // `j target`
    (@j [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ target: u64 })
        dest { .. } => None;
        srcs { .. } => (None, None);
        imm { .. } => None;
        target { target } => Some(target);
        show { target } => "{} {:#x}", target;
        lower(o) { o.want(1)?; } { target: o.target(0)? }
    }] $($rest)*); };
    // `jal link, target`
    (@jal [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ link: Reg, target: u64 })
        dest { link, .. } => Some(link);
        srcs { .. } => (None, None);
        imm { .. } => None;
        target { target, .. } => Some(target);
        show { link, target } => "{} {}, {:#x}", link, target;
        lower(o) { o.want(2)?; } { link: o.reg(0)?, target: o.target(1)? }
    }] $($rest)*); };
    // `jr a`
    (@jr [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ({ a: Reg })
        dest { .. } => None;
        srcs { a } => (Some(a), None);
        imm { .. } => None;
        target { .. } => None;
        show { a } => "{} {}", a;
        lower(o) { o.want(1)?; } { a: o.reg(0)? }
    }] $($rest)*); };
    // `halt`: a unit variant
    (@none [$($done:tt)*] $row:tt $($rest:tt)*) => { opcodes!(@rows [$($done)* $row {
        fields ()
        dest {} => None;
        srcs {} => (None, None);
        imm {} => None;
        target {} => None;
        show {} => "{}";
        lower(o) { o.want(0)?; } {}
    }] $($rest)*); };

    (@width) => { None };
    (@width $w:ident) => { Some(MemWidth::$w) };

    (@emit [$(#[$em:meta])*] $(
        [$(#[$m:meta])* $V:ident $mn:literal $fmt:ident $k:ident [$($w:ident)?]] {
            fields ($($fields:tt)*)
            dest $dp:tt => $de:expr;
            srcs $sp:tt => $se:expr;
            imm $ip:tt => $ie:expr;
            target $tp:tt => $te:expr;
            show $shp:tt => $fs:tt $(, $sa:expr)*;
            lower($o:ident) { $($ls:tt)* } $li:tt
        }
    )*) => {
        $(#[$em])*
        pub enum Instr {
            $($(#[$m])* $V $($fields)*,)*
        }

        /// Every opcode's mnemonic and operand format, in table order.
        pub const OPCODES: [Opcode; [$($mn),*].len()] = [
            $(Opcode { mnemonic: $mn, format: stringify!($fmt) }),*
        ];

        // The decode helpers run per dispatched instruction and per
        // IR-detector push, in other crates: the small ones are `#[inline]`
        // so that those crates can inline them.
        impl Instr {
            /// The instruction's coarse class (drives function-unit latency).
            #[inline]
            pub fn kind(&self) -> InstrKind {
                match self {
                    $(Instr::$V { .. } => InstrKind::$k,)*
                }
            }

            /// Destination register, if the instruction writes one.
            ///
            /// Writes to `r0` are reported as `None` (they are architectural
            /// no-ops), so the IR-detector never tracks them as real writes.
            #[inline]
            pub fn dest_reg(&self) -> Option<Reg> {
                match *self {
                    $(Instr::$V $dp => $de,)*
                }
                .filter(|d| !d.is_zero())
            }

            /// Source registers `(first, second)`.
            ///
            /// For stores the first source is the base address register and
            /// the second is the value being stored. Reads of `r0` are still
            /// reported (they are real operands; they simply always read
            /// zero).
            pub fn src_regs(&self) -> (Option<Reg>, Option<Reg>) {
                match *self {
                    $(Instr::$V $sp => $se,)*
                }
            }

            /// The statically-known control-flow target, if any (`None` for
            /// `jr`).
            #[inline]
            pub fn static_target(&self) -> Option<u64> {
                match *self {
                    $(Instr::$V $tp => $te,)*
                }
            }

            /// The static control-flow target, to rewrite in place.
            pub fn target_mut(&mut self) -> Option<&mut u64> {
                match self {
                    $(Instr::$V $tp => $te,)*
                }
            }

            /// The immediate operand: an ALU or `li` immediate, or a memory
            /// offset. Branch and jump targets are not immediates.
            pub fn imm(&self) -> Option<i64> {
                match *self {
                    $(Instr::$V $ip => $ie,)*
                }
            }

            /// The immediate operand ([`Instr::imm`]), to rewrite in place.
            pub fn imm_mut(&mut self) -> Option<&mut i64> {
                match self {
                    $(Instr::$V $ip => $ie,)*
                }
            }

            /// Memory access width for loads/stores.
            #[inline]
            pub fn mem_width(&self) -> Option<MemWidth> {
                match self {
                    $(Instr::$V { .. } => opcodes!(@width $($w)?),)*
                }
            }

            /// The instruction `mnemonic` names, with the operands `ops`
            /// supplies in its format's order; `Ok(None)` if no opcode has
            /// that mnemonic.
            pub(crate) fn lower(mnemonic: &str, ops: &Operands<'_>) -> Result<Option<Instr>, AsmError> {
                Ok(Some(match mnemonic {
                    $($mn => {
                        let $o = ops;
                        $($ls)*
                        Instr::$V $li
                    })*
                    _ => return Ok(None),
                }))
            }
        }

        impl fmt::Display for Instr {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match *self {
                    $(Instr::$V $shp => write!(f, $fs, $mn $(, $sa)*),)*
                }
            }
        }
    };

    ($(#[$em:meta])* pub enum Instr { $($rows:tt)* }) => {
        opcodes!(@rows [[$(#[$em])*]] $($rows)*);
    };
}

opcodes! {
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
        Add "add" rrr IntAlu,
        /// `d = a - b`
        Sub "sub" rrr IntAlu,
        /// `d = a & b`
        And "and" rrr IntAlu,
        /// `d = a | b`
        Or "or" rrr IntAlu,
        /// `d = a ^ b`
        Xor "xor" rrr IntAlu,
        /// `d = (a as i64) < (b as i64)`
        Slt "slt" rrr IntAlu,
        /// `d = a < b` (unsigned)
        Sltu "sltu" rrr IntAlu,
        /// `d = a << (b & 63)`
        Sll "sll" rrr IntAlu,
        /// `d = a >> (b & 63)` (logical)
        Srl "srl" rrr IntAlu,
        /// `d = (a as i64) >> (b & 63)` (arithmetic)
        Sra "sra" rrr IntAlu,
        /// `d = a * b` (wrapping)
        Mul "mul" rrr Mul,
        /// `d = (a as i64) / (b as i64)`; `u64::MAX` if `b == 0`
        Div "div" rrr Div,
        /// `d = (a as i64) % (b as i64)`; `a` if `b == 0`
        Rem "rem" rrr Div,

        /// `d = a + imm`
        Addi "addi" rri IntAlu,
        /// `d = a & imm`
        Andi "andi" rri IntAlu,
        /// `d = a | imm`
        Ori "ori" rri IntAlu,
        /// `d = a ^ imm`
        Xori "xori" rri IntAlu,
        /// `d = (a as i64) < imm`
        Slti "slti" rri IntAlu,
        /// `d = a << (imm & 63)`
        Slli "slli" rri IntAlu,
        /// `d = a >> (imm & 63)` (logical)
        Srli "srli" rri IntAlu,
        /// `d = (a as i64) >> (imm & 63)` (arithmetic)
        Srai "srai" rri IntAlu,
        /// `d = imm` (load immediate; the assembler also accepts labels)
        Li "li" li IntAlu,

        /// `d = mem[a + off]` (8 bytes)
        Ld "ld" load Load Word,
        /// `mem[base + off] = s` (8 bytes)
        St "st" store Store Word,
        /// `d = mem[a + off]` (1 byte, zero-extended)
        Ldb "ldb" load Load Byte,
        /// `mem[base + off] = s & 0xff` (1 byte)
        Stb "stb" store Store Byte,

        /// Branch to `target` if `a == b`.
        Beq "beq" branch Branch,
        /// Branch to `target` if `a != b`.
        Bne "bne" branch Branch,
        /// Branch to `target` if `(a as i64) < (b as i64)`.
        Blt "blt" branch Branch,
        /// Branch to `target` if `(a as i64) >= (b as i64)`.
        Bge "bge" branch Branch,

        /// Unconditional jump to `target`.
        J "j" j Jump,
        /// Jump to `target`, writing the return address (`pc + 4`) to `link`.
        Jal "jal" jal Jump,
        /// Indirect jump to the address in `a`.
        Jr "jr" jr Jump,

        /// Stop the program.
        Halt "halt" none Halt,
        /// Do nothing.
        Nop "nop" none Nop,
    }
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
    /// Whether this is a conditional branch.
    #[inline]
    pub fn is_branch(&self) -> bool {
        self.kind() == InstrKind::Branch
    }

    /// Whether this instruction writes memory.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.kind() == InstrKind::Store
    }

    /// Whether this instruction reads memory.
    #[inline]
    pub fn is_load(&self) -> bool {
        self.kind() == InstrKind::Load
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
        let instr = crate::assemble("stb r5, 0(r2)").unwrap().instrs()[0];
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

    /// One instance of every opcode, in table order, assembled from its
    /// format's operand layout: it writes to `d` where it writes, its
    /// operand registers are distinct and non-zero (`r2`, `r3`; a store
    /// stores `r4` at `8(r5)`), its immediate is -3 and its target 0x40.
    fn every_opcode(d: Reg) -> Vec<Instr> {
        OPCODES
            .iter()
            .map(|op| {
                let ops = match op.format {
                    "rrr" => format!("{d}, r2, r3"),
                    "rri" => format!("{d}, r2, -3"),
                    "li" => format!("{d}, -3"),
                    "load" => format!("{d}, 8(r5)"),
                    "store" => "r4, 8(r5)".to_string(),
                    "branch" => "r2, r3, 0x40".to_string(),
                    "j" => "0x40".to_string(),
                    "jal" => format!("{d}, 0x40"),
                    "jr" => "r2".to_string(),
                    "none" => String::new(),
                    other => panic!("{}: unknown format `{other}`", op.mnemonic),
                };
                let src = format!("{} {ops}", op.mnemonic);
                let p = crate::assemble(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
                p.instrs()[0]
            })
            .collect()
    }

    /// What `Display` writes for [`every_opcode`]`(r1)`, one line per
    /// opcode in table order. Committed corpus entries are SSIR that
    /// `Display` wrote, so these strings are a file format.
    const DISPLAYED: [&str; 35] = [
        "add r1, r2, r3",
        "sub r1, r2, r3",
        "and r1, r2, r3",
        "or r1, r2, r3",
        "xor r1, r2, r3",
        "slt r1, r2, r3",
        "sltu r1, r2, r3",
        "sll r1, r2, r3",
        "srl r1, r2, r3",
        "sra r1, r2, r3",
        "mul r1, r2, r3",
        "div r1, r2, r3",
        "rem r1, r2, r3",
        "addi r1, r2, -3",
        "andi r1, r2, -3",
        "ori r1, r2, -3",
        "xori r1, r2, -3",
        "slti r1, r2, -3",
        "slli r1, r2, -3",
        "srli r1, r2, -3",
        "srai r1, r2, -3",
        "li r1, -3",
        "ld r1, 8(r5)",
        "st r4, 8(r5)",
        "ldb r1, 8(r5)",
        "stb r4, 8(r5)",
        "beq r2, r3, 0x40",
        "bne r2, r3, 0x40",
        "blt r2, r3, 0x40",
        "bge r2, r3, 0x40",
        "j 0x40",
        "jal r1, 0x40",
        "jr r2",
        "halt",
        "nop",
    ];

    #[test]
    fn display_is_pinned_per_opcode() {
        let shown: Vec<String> = every_opcode(r(1)).iter().map(|i| i.to_string()).collect();
        assert_eq!(shown, DISPLAYED);
    }

    /// The immediate and target accessors read the operands
    /// [`every_opcode`]'s text gives: the immediate -3, the memory offset
    /// 8 (an immediate too, which the shrinker rewrites), the target 0x40.
    #[test]
    fn imm_and_target_read_the_operands_the_text_shows() {
        for (op, i) in OPCODES.iter().zip(every_opcode(r(1))) {
            let (imm, target) = match op.format {
                "rri" | "li" => (Some(-3), None),
                "load" | "store" => (Some(8), None),
                "branch" | "j" | "jal" => (None, Some(0x40)),
                _ => (None, None),
            };
            assert_eq!((i.imm(), i.static_target()), (imm, target), "{i}");
            let mut m = i;
            assert_eq!(m.imm_mut().map(|v| *v), imm, "{i}");
            assert_eq!(m.target_mut().map(|t| *t), target, "{i}");
        }
    }

    /// `assemble(format!("{i}"))` gives `i` back for every opcode, with
    /// the extreme immediates, offsets and targets set in place.
    #[test]
    fn display_round_trips_through_the_assembler() {
        for base in every_opcode(r(1)) {
            for imm in [0, -1, i64::MIN, i64::MAX] {
                for target in [0, u64::MAX] {
                    let mut i = base;
                    if let Some(v) = i.imm_mut() {
                        *v = imm;
                    }
                    if let Some(t) = i.target_mut() {
                        *t = target;
                    }
                    let text = i.to_string();
                    let back = crate::assemble(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                    assert_eq!(back.instrs(), [i], "{text}");
                }
            }
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
        let mnemonics: std::collections::BTreeSet<&str> =
            OPCODES.iter().map(|op| op.mnemonic).collect();
        assert_eq!(mnemonics.len(), 35, "35 opcodes, each named once");
        for d in [r(1), Reg::ZERO] {
            for instr in every_opcode(d) {
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
