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
//!   `(cycle, per-core ordinal)`.
//!
//! At every sync boundary — the same points where the slipstream machine
//! applies deferred predictor/IR-table learning — the two logs are merged
//! in a fixed `(cycle, core-id, ordinal)` order ([`merge_l2_logs`]) and
//! replayed onto both canonical replicas ([`L2View::apply_boundary`]),
//! which therefore stay bit-identical without any cross-thread sharing.
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

/// One logged L2 access: the replay unit of the boundary merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Access {
    /// Simulated cycle the request reached the L2.
    pub cycle: u64,
    /// Per-core access ordinal since the last boundary — the third key of
    /// the `(cycle, core-id, ordinal)` arbitration tie-break.
    pub ord: u32,
    /// Line index (address >> line shift).
    pub line: u64,
    /// Whether the requesting core issued a memory fill (its view missed).
    pub fill: bool,
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
    /// Accesses since the boundary, in `(cycle, ord)` order.
    log: Vec<L2Access>,
    next_ord: u32,
    line_shift: u32,
    hits: u64,
    misses: u64,
    /// Cumulative cycles this core's fills waited for a port slot — the
    /// L2-side total behind the per-core `port_stall_cycles` stat and the
    /// CPI stack's `l2_port` bucket.
    port_stall_cycles: u64,
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
    next_ord,
    line_shift,
    hits,
    misses,
    port_stall_cycles
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
            next_ord: 0,
            line_shift: cfg.line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
            port_stall_cycles: 0,
            cfg,
        }
    }

    /// The configured geometry/timing.
    pub fn config(&self) -> L2Config {
        self.cfg
    }

    /// Which core this view belongs to.
    pub fn core_id(&self) -> u8 {
        self.core_id
    }

    /// L2 hits observed by this core.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// L2 misses (memory fills) issued by this core.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative cycles this core's fills spent queued for a free
    /// memory-port slot.
    pub fn port_stall_cycles(&self) -> u64 {
        self.port_stall_cycles
    }

    /// Services an L1 miss whose request reaches the L2 at `cycle`. Logs
    /// the access, updates the private overlay/port state, and returns the
    /// timing outcome. Deterministic given the boundary state and this
    /// core's own access history.
    pub fn access(&mut self, cycle: u64, addr: u64) -> L2Outcome {
        let line = addr >> self.line_shift;
        let hit = self.canonical.probe(addr) || self.overlay.contains(&line);
        let ord = self.next_ord;
        self.next_ord += 1;
        self.log.push(L2Access {
            cycle,
            ord,
            line,
            fill: !hit,
        });
        if hit {
            self.hits += 1;
            return L2Outcome {
                hit: true,
                ready_at: cycle + self.cfg.hit_latency,
                port_stall: 0,
            };
        }
        self.misses += 1;
        self.overlay.push(line);
        // Tag check runs before the fill can be requested.
        let request = cycle + self.cfg.hit_latency;
        let slot = earliest_slot(&self.port);
        let start = request.max(self.port[slot]);
        self.port[slot] = start + self.cfg.fill_latency;
        self.port_stall_cycles += start - request;
        L2Outcome {
            hit: false,
            ready_at: start + self.cfg.fill_latency,
            port_stall: start - request,
        }
    }

    /// The accesses logged since the last boundary, oldest first.
    pub fn log(&self) -> &[L2Access] {
        &self.log
    }

    /// Removes and returns the logged accesses (the boundary handshake
    /// ships them to the other core before [`L2View::apply_boundary`]).
    pub fn take_log(&mut self) -> Vec<L2Access> {
        std::mem::take(&mut self.log)
    }

    /// Boundary sync: replays the merged two-core access stream (from
    /// [`merge_l2_logs`]) onto the canonical tags and port, then resets
    /// the per-window overlay/log state. Applying the same `merged` slice
    /// to both views keeps their canonical replicas bit-identical.
    pub fn apply_boundary(&mut self, merged: &[L2Access]) {
        debug_assert!(
            self.log.is_empty(),
            "take_log must run before apply_boundary"
        );
        for a in merged {
            let addr = a.line << self.line_shift;
            self.canonical.access(addr);
            if a.fill {
                let slot = earliest_slot(&self.canonical_port);
                let start = (a.cycle + self.cfg.hit_latency).max(self.canonical_port[slot]);
                self.canonical_port[slot] = start + self.cfg.fill_latency;
            }
        }
        self.port.copy_from_slice(&self.canonical_port);
        self.overlay.clear();
        self.next_ord = 0;
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

/// Merges the two cores' boundary logs into the canonical arbitration
/// order: ascending `(cycle, core-id, ordinal)`, where `log0` is core 0
/// (the A-stream wins same-cycle ties) and `log1` is core 1. Both inputs
/// are already `(cycle, ordinal)`-sorted because cores log in simulation
/// order.
pub fn merge_l2_logs(log0: &[L2Access], log1: &[L2Access]) -> Vec<L2Access> {
    let mut out = Vec::with_capacity(log0.len() + log1.len());
    let (mut i, mut j) = (0, 0);
    while i < log0.len() && j < log1.len() {
        // Core 0 goes first on equal cycles: the fixed core-id tie-break.
        if log0[i].cycle <= log1[j].cycle {
            out.push(log0[i]);
            i += 1;
        } else {
            out.push(log1[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&log0[i..]);
    out.extend_from_slice(&log1[j..]);
    out
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
        assert_eq!((v.hits(), v.misses()), (1, 1));
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
        let (la, lr) = (a.take_log(), r.take_log());
        let merged = merge_l2_logs(&la, &lr);
        assert_eq!(merged.len(), 4);
        assert_eq!(
            merged.iter().map(|m| m.cycle).collect::<Vec<_>>(),
            vec![1, 2, 2, 3]
        );
        a.apply_boundary(&merged);
        r.apply_boundary(&merged);
        for addr in [0x0000u64, 0x2000, 0x4000, 0x6000] {
            let (oa, or) = (a.access(10, addr), r.access(10, addr));
            assert_eq!(oa, or, "replicas disagree at {addr:#x}");
            // Fresh logs for the next round keep the views in lockstep.
            let (la, lr) = (a.take_log(), r.take_log());
            let merged = merge_l2_logs(&la, &lr);
            a.apply_boundary(&merged);
            r.apply_boundary(&merged);
        }
    }

    #[test]
    fn merge_tie_break_is_cycle_then_core_then_ordinal() {
        let l0 = [
            L2Access {
                cycle: 5,
                ord: 0,
                line: 1,
                fill: true,
            },
            L2Access {
                cycle: 5,
                ord: 1,
                line: 2,
                fill: true,
            },
        ];
        let l1 = [
            L2Access {
                cycle: 4,
                ord: 0,
                line: 3,
                fill: true,
            },
            L2Access {
                cycle: 5,
                ord: 1,
                line: 4,
                fill: true,
            },
        ];
        let merged = merge_l2_logs(&l0, &l1);
        let order: Vec<u64> = merged.iter().map(|m| m.line).collect();
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
        let (la, lr) = (a.take_log(), r.take_log());
        let merged = merge_l2_logs(&la, &lr);
        a.apply_boundary(&merged);
        r.apply_boundary(&merged);
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
        let (la, lr) = (a.take_log(), r.take_log());
        let merged = merge_l2_logs(&la, &lr);
        a.apply_boundary(&merged);
        r.apply_boundary(&merged);
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

    #[test]
    fn merge_is_independent_of_which_side_computes_it() {
        // At a recovery each side computes the merge from its own copies of
        // the logs (the R side in `build_recover`, the A side after its
        // replay in `apply_recover`); the result must be one list.
        let mut a = L2View::new(tiny(), 0);
        let mut r = L2View::new(tiny(), 1);
        for c in 0..6u64 {
            a.access(c, 0x80 * c);
            if c.is_multiple_of(2) {
                r.access(c, 0x80 * (c + 7));
            }
        }
        let (la, lr) = (a.take_log(), r.take_log());
        let m1 = merge_l2_logs(&la, &lr);
        let m2 = merge_l2_logs(&la.clone(), &lr.clone());
        assert_eq!(m1, m2);
        // And applying it twice to fresh views converges to equal state.
        let mut x = L2View::new(tiny(), 0);
        let mut y = L2View::new(tiny(), 1);
        x.apply_boundary(&m1);
        y.apply_boundary(&m2);
        assert_eq!(x.access(50, 0x80).hit, y.access(50, 0x80).hit);
    }
}
