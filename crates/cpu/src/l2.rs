//! The shared L2/memory subsystem: a unified second-level cache plus a
//! bandwidth-limited memory port, shared by the two cores of a slipstream
//! pair (the paper's CMP shares everything past the private L1s).
//!
//! # Determinism: a replicated L2, not a locked one
//!
//! The slipstream schedulers (serial, slack-window, two threads) must all
//! produce byte-identical results, and the windowed/threaded schedulers run
//! the A-core a whole window ahead of the R-core. A single mutable L2
//! touched by both cores in real time would make every core's hit/miss
//! pattern depend on scheduler interleaving. Instead, each core owns an
//! [`L2View`]:
//!
//! - **canonical state** — L2 tags and memory-port busy times as of the
//!   last sync boundary, identical across the two views;
//! - **a private overlay** — lines this core filled since the boundary
//!   (so its own repeat accesses hit) and port reservations for its own
//!   fills (so its own fills queue behind each other);
//! - **an access log** — every L2 access since the boundary, stamped with
//!   its cycle; its position in the log is its per-core ordinal.
//!
//! At every sync boundary — the same points where the slipstream machine
//! applies deferred predictor/IR-table learning, recoveries included — one
//! call, [`L2View::sync`], merges the two logs in a fixed
//! `(cycle, core-id, ordinal)` order and replays the result onto both
//! canonical replicas, which therefore stay bit-identical without any
//! cross-thread sharing.
//! Within a window a core sees only boundary state plus its own traffic,
//! so results cannot depend on how far the other core has advanced — the
//! property the mode-equivalence battery pins down.
//!
//! The cost of this construction is that *cross-core* contention becomes
//! visible at window granularity: core 0's fills delay core 1's only from
//! the next boundary on (own-traffic contention is exact). The sync
//! quantum is already an architectural parameter (it bounds learning
//! visibility the same way); at quantum 1 the model converges to exact
//! per-cycle arbitration.
//!
//! The hierarchy is non-inclusive non-exclusive (NINE): an L2 eviction
//! does not back-invalidate the L1s, matching the tag-only timing model.

use crate::cache::{Cache, CacheConfig};

/// Geometry and timing of the shared L2 and its memory port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Set associativity.
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Cycles from an L1 miss reaching the L2 to data return on an L2 hit
    /// (also the tag-check time spent before a fill can start on a miss).
    pub hit_latency: u64,
    /// Cycles to fill a line from memory once a port slot is granted.
    pub fill_latency: u64,
    /// Memory-port bandwidth: line fills that may be in flight at once.
    /// A fill requested while all slots are busy waits for the earliest
    /// one to free (the wait is charged as port-stall cycles).
    pub max_fills: usize,
}

impl L2Config {
    /// The default shared L2 of the `cmp_shared_l2` model: 512 KB, 8-way,
    /// LRU, 64-byte lines, 14-cycle hit (the latency the private-cache
    /// model charged as its flat miss penalty, so an L2-resident line
    /// costs the same as before), 80-cycle memory fill, 4 fills in flight.
    pub fn l2_512k_8w() -> L2Config {
        L2Config {
            bytes: 512 * 1024,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 14,
            fill_latency: 80,
            max_fills: 4,
        }
    }

    fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            bytes: self.bytes,
            assoc: self.assoc,
            line_bytes: self.line_bytes,
            // Unused: miss cost comes from the port model.
            miss_penalty: self.fill_latency,
        }
    }
}

/// One logged L2 access: the replay unit of the boundary merge. Its
/// position in its core's log is its ordinal, the third key of the
/// `(cycle, core-id, ordinal)` arbitration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct L2Access {
    /// Simulated cycle the request reached the L2.
    cycle: u64,
    /// Line index (address >> line shift).
    line: u64,
    /// Whether the requesting core issued a memory fill (its view missed).
    fill: bool,
}

/// What one L2 access cost the requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Outcome {
    /// Whether the line was present (canonical state or own overlay).
    pub hit: bool,
    /// Cycle the data is available to the L1.
    pub ready_at: u64,
    /// Cycles the fill waited for a free memory-port slot (0 on hits).
    pub port_stall: u64,
}

/// One core's deterministic view of the shared L2 (see module docs).
#[derive(Debug)]
pub struct L2View {
    cfg: L2Config,
    core_id: u8,
    /// Tags as of the last sync boundary — bit-identical across views.
    canonical: Cache,
    /// Port-slot busy-until cycles as of the last boundary (canonical).
    canonical_port: Vec<u64>,
    /// Working port slots: canonical plus this core's in-window fills.
    port: Vec<u64>,
    /// Lines this core filled since the boundary (own repeat hits).
    overlay: Vec<u64>,
    /// Accesses since the boundary, in `(cycle, ordinal)` order.
    log: Vec<L2Access>,
    line_shift: u32,
}

// `clone_from` reuses the destination's vectors — the slack-window
// checkpoint clones each core's view once per window.
slipstream_isa::clone_in_place!(L2View {
    cfg,
    core_id,
    canonical,
    canonical_port,
    port,
    overlay,
    log,
    line_shift
});

impl L2View {
    /// Creates an empty view for `core_id` (0 = A-stream/leader,
    /// 1 = R-stream/trailer; the id is the arbitration tie-break).
    pub fn new(cfg: L2Config, core_id: u8) -> L2View {
        let canonical = Cache::new(cfg.cache_config());
        L2View {
            core_id,
            canonical,
            canonical_port: vec![0; cfg.max_fills.max(1)],
            port: vec![0; cfg.max_fills.max(1)],
            overlay: Vec::new(),
            log: Vec::new(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// Services an L1 miss whose request reaches the L2 at `cycle`. Logs
    /// the access, updates the private overlay/port state, and returns the
    /// timing outcome. Deterministic given the boundary state and this
    /// core's own access history.
    pub fn access(&mut self, cycle: u64, addr: u64) -> L2Outcome {
        let line = addr >> self.line_shift;
        let hit = self.canonical.probe(addr) || self.overlay.contains(&line);
        self.log.push(L2Access {
            cycle,
            line,
            fill: !hit,
        });
        if hit {
            return L2Outcome {
                hit: true,
                ready_at: cycle + self.cfg.hit_latency,
                port_stall: 0,
            };
        }
        self.overlay.push(line);
        // Tag check runs before the fill can be requested.
        let request = cycle + self.cfg.hit_latency;
        let slot = earliest_slot(&self.port);
        let start = request.max(self.port[slot]);
        self.port[slot] = start + self.cfg.fill_latency;
        L2Outcome {
            hit: false,
            ready_at: start + self.cfg.fill_latency,
            port_stall: start - request,
        }
    }

    /// Boundary sync of the two cores' views: merges both access logs in
    /// the canonical arbitration order and replays the merged stream onto
    /// both canonical replicas, which therefore stay bit-identical; then
    /// starts both views' next window (empty overlay and log, working port
    /// reset to canonical). The argument order is immaterial — the core
    /// ids decide the tie-break.
    pub fn sync(&mut self, other: &mut L2View) {
        let (v0, v1) = if self.core_id <= other.core_id {
            (self, other)
        } else {
            (other, self)
        };
        let (log0, log1) = (std::mem::take(&mut v0.log), std::mem::take(&mut v1.log));
        for a in merged(&log0, &log1) {
            v0.replay(a);
            v1.replay(a);
        }
        v0.start_window(log0);
        v1.start_window(log1);
    }

    /// Applies one merged access to the canonical tags and port.
    fn replay(&mut self, a: L2Access) {
        self.canonical.access(a.line << self.line_shift);
        if a.fill {
            let slot = earliest_slot(&self.canonical_port);
            let start = (a.cycle + self.cfg.hit_latency).max(self.canonical_port[slot]);
            self.canonical_port[slot] = start + self.cfg.fill_latency;
        }
    }

    /// Resets the per-window state, reusing `log`'s buffer.
    fn start_window(&mut self, mut log: Vec<L2Access>) {
        log.clear();
        self.log = log;
        self.port.copy_from_slice(&self.canonical_port);
        self.overlay.clear();
    }
}

/// Index of the port slot that frees earliest (first on ties — fixed,
/// deterministic).
fn earliest_slot(slots: &[u64]) -> usize {
    let mut best = 0;
    for (i, &b) in slots.iter().enumerate().skip(1) {
        if b < slots[best] {
            best = i;
        }
    }
    let _ = &slots[best];
    best
}

/// The two cores' boundary logs in the canonical arbitration order:
/// ascending `(cycle, core-id, ordinal)`, where `log0` is core 0 (the
/// A-stream wins same-cycle ties) and `log1` is core 1. Both inputs are
/// already `(cycle, ordinal)`-sorted because cores log in simulation order.
fn merged<'a>(log0: &'a [L2Access], log1: &'a [L2Access]) -> impl Iterator<Item = L2Access> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        // Core 0 goes first on equal cycles: the fixed core-id tie-break.
        let from0 = match (log0.get(i), log1.get(j)) {
            (Some(x), Some(y)) => x.cycle <= y.cycle,
            (x, _) => x.is_some(),
        };
        if from0 {
            i += 1;
            Some(log0[i - 1])
        } else {
            let y = *log1.get(j)?;
            j += 1;
            Some(y)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L2Config {
        // 2 sets x 2 ways x 64B lines = 256 B, easy to force evictions.
        L2Config {
            bytes: 256,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 10,
            fill_latency: 50,
            max_fills: 2,
        }
    }

    #[test]
    fn miss_fill_then_own_window_hit() {
        let mut v = L2View::new(tiny(), 0);
        let m = v.access(100, 0x1000);
        assert!(!m.hit);
        assert_eq!(m.ready_at, 100 + 10 + 50);
        assert_eq!(m.port_stall, 0);
        // Same line, same window: the private overlay serves it.
        let h = v.access(120, 0x1020);
        assert!(h.hit);
        assert_eq!(h.ready_at, 120 + 10);
    }

    #[test]
    fn port_bandwidth_limits_fills_in_flight() {
        let mut v = L2View::new(tiny(), 0);
        // Three same-cycle fills into a 2-slot port: the third waits for
        // the first slot to free.
        let a = v.access(0, 0x0000);
        let b = v.access(0, 0x2000);
        let c = v.access(0, 0x4000);
        assert_eq!(a.port_stall, 0);
        assert_eq!(b.port_stall, 0);
        assert_eq!(c.port_stall, 50, "third fill queues one full fill time");
        // cycle 0 + hit latency 10 + one queued fill time 50 + own fill 50.
        assert_eq!(c.ready_at, 110);
    }

    #[test]
    fn boundary_merge_keeps_replicas_identical() {
        // Two views, asymmetric traffic, then the same merged log applied
        // to both: every subsequent probe must agree.
        let mut a = L2View::new(tiny(), 0);
        let mut r = L2View::new(tiny(), 1);
        a.access(1, 0x0000);
        a.access(3, 0x2000);
        r.access(2, 0x0000); // same line as A's first — both charged a fill
        r.access(2, 0x4000);
        assert_eq!(
            merged(&a.log, &r.log).map(|m| m.cycle).collect::<Vec<_>>(),
            vec![1, 2, 2, 3]
        );
        a.sync(&mut r);
        assert!(
            a.log.is_empty() && r.log.is_empty(),
            "sync starts a new window"
        );
        for addr in [0x0000u64, 0x2000, 0x4000, 0x6000] {
            let (oa, or) = (a.access(10, addr), r.access(10, addr));
            assert_eq!(oa, or, "replicas disagree at {addr:#x}");
            // A sync per round keeps the views in lockstep.
            a.sync(&mut r);
        }
    }

    #[test]
    fn merge_tie_break_is_cycle_then_core_then_ordinal() {
        let at = |cycle, line| L2Access {
            cycle,
            line,
            fill: true,
        };
        let l0 = [at(5, 1), at(5, 2)];
        let l1 = [at(4, 3), at(5, 4)];
        let order: Vec<u64> = merged(&l0, &l1).map(|m| m.line).collect();
        // Cycle 4 first; at cycle 5 core 0 wins, its own ordinals in order.
        assert_eq!(order, vec![3, 1, 2, 4]);
    }

    #[test]
    fn eviction_after_merge_is_lru_and_visible_to_both() {
        let mut a = L2View::new(tiny(), 0);
        let mut r = L2View::new(tiny(), 1);
        // Set 0 lines at stride 2 sets x 64 B = 128 B: 0x000, 0x080, 0x100.
        a.access(1, 0x000);
        a.access(2, 0x080);
        a.access(3, 0x000); // touch: LRU is now 0x080
        a.access(4, 0x100); // evicts 0x080 at the merge
        a.sync(&mut r);
        assert!(a.access(10, 0x000).hit, "touched line survives");
        assert!(r.access(10, 0x100).hit, "new line resident in both views");
        assert!(!r.access(11, 0x080).hit, "LRU line evicted in both views");
    }

    #[test]
    fn cross_core_port_contention_lands_at_the_next_boundary() {
        let cfg = tiny();
        let mut a = L2View::new(cfg, 0);
        let mut r = L2View::new(cfg, 1);
        // Window 1: both cores saturate the 2-slot port independently —
        // neither sees the other's fills yet (each charged only its own).
        for (i, v) in [&mut a, &mut r].into_iter().enumerate() {
            v.access(0, 0x2000 * (1 + i as u64));
            v.access(0, 0x2000 * (3 + i as u64));
        }
        a.sync(&mut r);
        // The merged four fills occupied both slots twice: slots busy
        // until cycle 10+50+50. A window-2 fill at cycle 20 must stall.
        let out = a.access(20, 0xa000);
        assert!(!out.hit);
        assert!(
            out.port_stall > 0,
            "merged cross-core fills must delay the next window"
        );
        assert_eq!(out.port_stall, (10 + 50 + 50) - (20 + 10));
    }
}
