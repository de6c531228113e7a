//! SSIR — the **S**lip**s**tream **I**ntermediate **R**ISC instruction set.
//!
//! The slipstream paper evaluates on the SimpleScalar (MIPS-like) ISA. That
//! toolchain is not available here, so this crate provides a from-scratch
//! substitute with the properties the slipstream mechanisms actually rely
//! on:
//!
//! - a register/memory dataflow in which every architectural **write** is
//!   identifiable (needed by the IR-detector to find unreferenced and
//!   non-modifying writes),
//! - conditional **branches** with observable outcomes (needed by the trace
//!   predictor and by branch-removal),
//! - **loads/stores** with effective addresses and values (needed by the
//!   delay buffer and the recovery controller).
//!
//! Like the paper's machine it has 64 architectural registers (the paper's
//! recovery-latency arithmetic — 64 registers restored 4 per cycle — is kept
//! intact).
//!
//! # Quick start
//!
//! ```
//! use slipstream_isa::{assemble, ArchState};
//!
//! let program = assemble(
//!     r#"
//!         li   r1, 5
//!         li   r2, 0
//!     loop:
//!         add  r2, r2, r1
//!         addi r1, r1, -1
//!         bne  r1, r0, loop
//!         halt
//!     "#,
//! )?;
//! let mut state = ArchState::new(&program);
//! let trace = state.run(&program, 10_000)?;
//! assert_eq!(state.reg(slipstream_isa::Reg::new(2)), 15);
//! assert!(state.halted());
//! assert!(trace.len() > 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod asm;
pub mod fasthash;
mod fields;
mod instr;
mod mem;
mod program;
mod reg;

pub use arch::{ArchState, ExecError, MemEffect, Retired};
pub use asm::{assemble, AsmError};
pub use fasthash::{BuildFastHasher, FastHashMap, FastHashSet};
pub use instr::{accesses_overlap, Instr, InstrKind, MemRead, MemWidth, Opcode, OPCODES};
pub use mem::Memory;
pub use program::{Program, ProgramBuilder};
pub use reg::{Reg, NUM_REGS};
