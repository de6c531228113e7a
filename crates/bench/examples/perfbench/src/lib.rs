//! `perfbench`: the repository's benchmark.
//!
//! Every layer is measured from outside, by timing calls into the public
//! functions of the simulator's crates; nothing inside the program is
//! instrumented for it. See `README.md` next to this package for the
//! workloads, the metrics and how to read them.

pub mod measure;
pub mod report;
pub mod spec;
pub mod workload;

use std::hint::black_box;

/// Counts heap allocation calls and live heap bytes process-wide, so the
/// traced run can report allocations per retired instruction and the
/// untraced run the workload's peak heap.
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    static CALLS: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub struct CountingAlloc;

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the counter updates have no other effect.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            let new = System.realloc(ptr, layout, new_size);
            if !new.is_null() {
                if new_size > layout.size() {
                    grow(new_size - layout.size());
                } else {
                    shrink(layout.size() - new_size);
                }
            }
            new
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            shrink(layout.size());
        }
    }

    pub fn calls() -> u64 {
        CALLS.load(Ordering::Relaxed)
    }

    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    pub fn reset_peak() {
        PEAK.store(live(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Heap allocation calls (fresh, zeroed and realloc) since process start.
pub fn alloc_calls() -> u64 {
    alloc_counter::calls()
}

/// Tracks the most heap bytes live at once from the moment it is created.
///
/// Bytes are counted as requested from the global allocator, so the peak
/// depends only on what the program allocates and frees, and in which
/// order. The process's resident set (`VmHWM`) also depends on the C
/// allocator's state: on `fuzz_sweep` it read from 14 to 25 MB for the
/// same inputs under different glibc arena and threshold settings.
pub struct HeapPeak {
    base: usize,
}

impl HeapPeak {
    /// Starts tracking; bytes live now are not counted.
    pub fn start() -> HeapPeak {
        alloc_counter::reset_peak();
        HeapPeak {
            base: alloc_counter::live(),
        }
    }

    /// The most heap MB (MiB) live at once since `start`, above the bytes
    /// live then.
    pub fn mb(&self) -> f64 {
        alloc_counter::peak().saturating_sub(self.base) as f64 / (1 << 20) as f64
    }
}

/// Puts the C allocator's adaptive thresholds in the same state in every
/// run, before anything is measured.
///
/// glibc's malloc maps each block of 128 KiB or more afresh until such a
/// block is freed; it then raises that threshold to the freed block's size
/// (at most 32 MiB) and its heap-trim threshold to twice that. The
/// simulator allocates predictor tables of several MiB per processor, and
/// where the thresholds settle depends on the order of the first large
/// frees across the fuzz and campaign worker threads' arenas, which
/// differs from process to process. About one `fuzz_sweep` run in ten kept
/// unmapping or trimming those tables and faulting them back in: a million
/// page faults per round, at about 55 % of the usual rate. Freeing one
/// block just under the ceiling settles the thresholds at their top.
pub fn settle_allocator() {
    black_box(Vec::<u8>::with_capacity(31 << 20));
}

/// `(p25, median, p75)` of `values`, by the same "exclusive" method as
/// Python's `statistics.quantiles(values, n=4)`, so the quartiles printed
/// here match the ones computed over saved runs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

/// Minor page faults of this process so far (`/proc/self/stat`).
pub fn minor_faults() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("page faults: cannot read /proc/self/stat: {e}"))?;
    // The fields after the parenthesised command name start with the
    // state (field 3); minflt is field 10.
    stat.rsplit(')')
        .next()
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| "page faults: no minflt field in /proc/self/stat".to_string())
}

#[cfg(test)]
mod tests {
    use super::{quartiles, HeapPeak};
    use std::hint::black_box;

    #[test]
    fn heap_peak_keeps_a_freed_block() {
        let peak = HeapPeak::start();
        drop(black_box(vec![1u8; 4 << 20]));
        assert!(peak.mb() >= 4.0, "peak {} MB", peak.mb());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }
}
