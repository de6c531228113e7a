//! Cycle-level out-of-order superscalar core model.
//!
//! This crate reproduces the paper's base processor (Table 2): a 4-wide
//! out-of-order core with a 64-entry reorder buffer, 64 KB 4-way LRU
//! instruction/data caches, symmetric function units with MIPS
//! R10000-style latencies, and wide interleaved fetch that can pass
//! multiple not-taken branches per cycle.
//!
//! The defining structural choice is that a [`Core`] has **no opinion about
//! control flow**: a [`CoreDriver`] supplies [`FetchItem`]s along the
//! predicted path, observes dispatches/retirements, and is redirected when
//! the core detects that an instruction's real outcome diverges from the
//! predicted path. One core implementation therefore serves:
//!
//! - the SS(64x4) and SS(128x8) superscalar baselines (trace-predictor
//!   front end),
//! - the slipstream **A-stream** (IR-predictor front end that skips
//!   predicted-removable instructions), and
//! - the slipstream **R-stream** (delay-buffer front end with value
//!   predictions merged at dispatch).
//!
//! Functional execution happens in program order at dispatch against the
//! core's private speculative state (registers plus a store-queue overlay
//! over its private memory image), so the core produces *real values* —
//! including wrong ones when the A-stream's context is corrupted, which is
//! exactly the behaviour slipstream recovery exists to handle.
//!
//! # Example: run a program on the paper's base core
//!
//! ```
//! use slipstream_cpu::{Core, CoreConfig, OracleDriver};
//! use slipstream_isa::assemble;
//!
//! let p = assemble("li r1, 100\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt")?;
//! let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
//! let mut driver = OracleDriver::new(&p);
//! let mut retired = Vec::new(); // reused every cycle — the loop never allocates
//! while !core.halted() {
//!     core.cycle(&mut driver, &mut retired);
//! }
//! assert!(core.stats().ipc() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod cache;
mod config;
mod driver;
mod drivers;
mod l2;
mod pipeline;
mod stats;
mod trace;

pub use accounting::{CpiCat, CpiStack};
pub use cache::{Cache, CacheConfig};
pub use config::CoreConfig;
pub use driver::{CoreDriver, DispatchHints, DriverStall, FetchItem};
pub use drivers::{OracleDriver, StaticDriver};
pub use l2::{L2Config, L2Outcome, L2View};
pub use pipeline::{Core, FaultSpec};
pub use stats::CoreStats;
pub use trace::{EventKind, StreamId, TraceEvent, TraceSink, NO_SEQ};
