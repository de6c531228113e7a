//! The heap-allocation gate. Telemetry must be zero-cost when off: with
//! no registry enabled, the instrumented schedulers must hold the
//! steady-state marginal allocation rate below a fixed ceiling; with a
//! registry enabled they may allocate nothing extra per instruction.
//!
//! The counter below is process-wide, so this file holds exactly one
//! `#[test]`: a second test running on another harness thread would add
//! its allocations to the measured windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use slipstream_bench::MAX_CYCLES;
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor};
use slipstream_workloads::suite;

static CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers every allocation to `System`, which upholds the
// GlobalAlloc contract; the counter increment has no other effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Marginal heap allocations per 10k retired instructions of the
/// telemetry-off windowed m88ksim run, as measured at 37.139 in debug and
/// release builds alike (the simulation is deterministic, so the count is
/// too). A change that moves it must re-measure and update it here.
const CEILING_PER_10K: f64 = 37.14;

/// Absolute allowance (allocs per 10k retired) on top of the ceiling. The
/// rate is small by design, so a multiplicative tolerance would make the
/// gate trip on standard-library noise.
const SLACK_PER_10K: f64 = 5.0;

/// One gate probe: the slack-window scheduler on m88ksim at `scale`, with
/// telemetry in the given state, returning (alloc calls, instrs retired).
fn gate_run(scale: f64, telemetry: bool) -> (u64, u64) {
    let workloads = suite(scale);
    let w = workloads
        .iter()
        .find(|w| w.name == "m88ksim")
        .unwrap_or(&workloads[0]);
    let before = CALLS.load(Ordering::Relaxed);
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    if telemetry {
        proc.enable_telemetry();
    }
    assert_eq!(proc.telemetry_enabled(), telemetry);
    assert!(proc.run_mode(ExecMode::Windowed, MAX_CYCLES));
    let stats = proc.stats();
    (
        CALLS.load(Ordering::Relaxed) - before,
        stats.a_retired + stats.r_retired,
    )
}

/// The marginal slope between a short and a longer run: one-time costs
/// appear in both and cancel.
fn marginal_per_10k(telemetry: bool) -> f64 {
    let (short_allocs, short_instrs) = gate_run(0.05, telemetry);
    let (long_allocs, long_instrs) = gate_run(0.25, telemetry);
    assert!(long_instrs > short_instrs);
    long_allocs.saturating_sub(short_allocs) as f64 * 10_000.0 / (long_instrs - short_instrs) as f64
}

#[test]
fn telemetry_off_holds_the_ceiling_and_telemetry_on_adds_nothing_per_instruction() {
    let off = marginal_per_10k(false);
    let limit = CEILING_PER_10K + SLACK_PER_10K;
    assert!(
        off <= limit,
        "telemetry-off marginal allocation rate {off:.3}/10k exceeds the \
         ceiling + slack ({limit:.2}) — instrumentation leaked onto the off path"
    );

    // The on path is allowed its fixed-size registry but nothing
    // per-instruction: spans are recorded per *window*, into fixed
    // arrays, so the marginal slope must match the off path within the
    // same noise slack.
    let on = marginal_per_10k(true);
    assert!(
        on <= off + SLACK_PER_10K,
        "telemetry-on marginal rate {on:.3}/10k vs off {off:.3}/10k — the \
         registry must be fixed-size, not per-instruction"
    );

    // And the run actually produced telemetry.
    let workloads = suite(0.05);
    let w = workloads
        .iter()
        .find(|w| w.name == "m88ksim")
        .unwrap_or(&workloads[0]);
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    proc.enable_telemetry();
    assert!(proc.run_mode(ExecMode::Windowed, MAX_CYCLES));
    let tel = proc.take_telemetry().expect("telemetry was enabled");
    assert!(
        tel.span(slipstream_core::telemetry::SpanKind::AWindowExec)
            .count
            > 0
    );
}
