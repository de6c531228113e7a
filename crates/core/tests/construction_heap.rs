//! Construction-heap guard: a fresh slipstream processor must be cheap to
//! build and to clone, because fault campaigns fork one per injection
//! site from a fault-free leader. The trace predictor's tables are sparse,
//! so construction allocates no table memory.
//!
//! The live-byte counter below is process-wide, so this file holds exactly
//! one `#[test]`: a second test running on another harness thread would
//! add its allocations to the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use slipstream_core::{SlipstreamConfig, SlipstreamProcessor};
use slipstream_workloads::benchmark;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct LiveBytes;

// SAFETY: defers every allocation to `System`, which upholds the
// GlobalAlloc contract; the counter updates have no other effect.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Ceiling on the heap a freshly built processor holds (about 62 KB on
/// m88ksim).
const CEILING_BYTES: i64 = 256 * 1024;

#[test]
fn a_fresh_processor_holds_little_heap() {
    let program = benchmark("m88ksim", 1.0).expect("known benchmark").program;
    let before = LIVE.load(Ordering::Relaxed);
    let proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let fork = proc.clone();
    let with_fork = LIVE.load(Ordering::Relaxed) - before;
    drop((proc, fork));
    assert!(
        held < CEILING_BYTES,
        "a fresh SlipstreamProcessor holds {held} B of heap (ceiling {CEILING_BYTES} B)"
    );
    assert!(
        with_fork < 2 * CEILING_BYTES,
        "a processor and its clone hold {with_fork} B of heap (ceiling {} B)",
        2 * CEILING_BYTES
    );
}
