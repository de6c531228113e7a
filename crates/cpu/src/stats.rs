use crate::accounting::CpiStack;

/// Event and timing counters for one [`crate::Core`].
///
/// These back every measurement in the paper's evaluation: IPC
/// (`retired`/`cycles`), branch mispredictions per 1000 instructions
/// (Table 3), and the cache/fetch diagnostics used to sanity-check the
/// model. `cpi` is the exact cycle-accounting stack: every cycle lands in
/// exactly one category and `cpi.total() == cycles` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions dispatched (program order, no wrong-path).
    pub dispatched: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Fetch items accepted into the fetch queue.
    pub fetched: u64,
    /// Conditional branches dispatched.
    pub cond_branches: u64,
    /// Conditional branches whose predicted outcome or target was wrong.
    pub branch_mispredicts: u64,
    /// Indirect/unconditional control transfers with a wrong predicted
    /// target (e.g. cold `jr`).
    pub jump_mispredicts: u64,
    /// Instruction-cache line misses.
    pub icache_misses: u64,
    /// Data-cache line misses.
    pub dcache_misses: u64,
    /// L1 misses that hit in the shared L2 (always 0 without an L2).
    pub l2_hits: u64,
    /// L1 misses that missed the shared L2 and filled from memory.
    pub l2_misses: u64,
    /// Cycles L2 fills spent queued for a free memory-port slot.
    pub port_stall_cycles: u64,
    /// Cycles dispatch was blocked because the reorder buffer was full.
    pub rob_full_cycles: u64,
    /// Cycles dispatch was blocked because the issue queue was full.
    pub iq_full_cycles: u64,
    /// Cycles fetch was stalled behind an instruction-cache line fill.
    pub fetch_fill_stall_cycles: u64,
    /// Cycles fetch was stalled by the redirect penalty of a resolved
    /// control misprediction.
    pub fetch_redirect_stall_cycles: u64,
    /// Cycles fetch was stalled by an externally imposed hold —
    /// [`crate::Core::stall_fetch_until`] or the recovery-tagged
    /// [`crate::Core::stall_fetch_recovery`] (the CPI stack separates the
    /// two; this counter is their union).
    pub fetch_external_stall_cycles: u64,
    /// Cycles in which at least one instruction was fetched.
    pub fetch_active_cycles: u64,
    /// External pipeline flushes (slipstream recovery events).
    pub flushes: u64,
    /// Transient faults injected into execution results.
    pub faults_injected: u64,
    /// Exclusive per-cycle attribution; `cpi.total() == cycles`.
    pub cpi: CpiStack,
    /// Cycle at which the armed transient fault fired (dispatched its
    /// target instruction); `None` if it never fired. Fault campaigns
    /// measure detection latency from this point.
    pub fault_fired_cycle: Option<u64>,
    /// Dispatch sequence number the fired fault struck (`None` if it
    /// never fired).
    pub fault_fired_seq: Option<u64>,
}

impl CoreStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch mispredictions per 1000 retired instructions
    /// (the paper's Table 3 metric).
    pub fn branch_mispredicts_per_kilo(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            1000.0 * self.branch_mispredicts as f64 / self.retired as f64
        }
    }

    /// Counters accumulated since `earlier` was snapshotted — the interval
    /// sampler's workhorse. Every cumulative counter is subtracted
    /// (saturating, so a stale snapshot cannot underflow); the fault-fire
    /// markers are kept only if the fault fired *inside* the interval.
    pub fn delta(&self, earlier: &CoreStats) -> CoreStats {
        let mut d = self.zip_counters(earlier, u64::saturating_sub);
        d.cpi = self.cpi.delta(&earlier.cpi);
        if self.fault_fired_cycle == earlier.fault_fired_cycle {
            d.fault_fired_cycle = None;
        }
        if self.fault_fired_seq == earlier.fault_fired_seq {
            d.fault_fired_seq = None;
        }
        d
    }

    /// Sums `other` into a combined view (aggregate stats across cores or
    /// runs). Counters add; of the fault-fire markers the earliest fire
    /// wins, matching campaign attribution which keys off the first fire.
    pub fn merge(&self, other: &CoreStats) -> CoreStats {
        let mut m = self.zip_counters(other, |a, b| a + b);
        m.cpi = self.cpi.merge(&other.cpi);
        (m.fault_fired_cycle, m.fault_fired_seq) =
            match (self.fault_fired_cycle, other.fault_fired_cycle) {
                (Some(a), Some(b)) if b < a => (other.fault_fired_cycle, other.fault_fired_seq),
                (Some(_), _) => (self.fault_fired_cycle, self.fault_fired_seq),
                (None, Some(_)) => (other.fault_fired_cycle, other.fault_fired_seq),
                (None, None) => (None, None),
            };
        m
    }
}

// The one list of `CoreStats`' integer counters: `delta`, `merge` and the
// run file's sample rows all walk it. The CPI stack and the fault-fire
// markers are not plain counters, so each of those handles them itself.
slipstream_isa::counter_list!(CoreStats {
    cycles,
    dispatched,
    retired,
    fetched,
    cond_branches,
    branch_mispredicts,
    jump_mispredicts,
    icache_misses,
    dcache_misses,
    l2_hits,
    l2_misses,
    port_stall_cycles,
    rob_full_cycles,
    iq_full_cycles,
    fetch_fill_stall_cycles,
    fetch_redirect_stall_cycles,
    fetch_external_stall_cycles,
    fetch_active_cycles,
    flushes,
    faults_injected
} skip {
    cpi,
    fault_fired_cycle,
    fault_fired_seq
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::CpiCat;

    #[test]
    fn ipc_and_rates() {
        let s = CoreStats {
            cycles: 100,
            retired: 250,
            branch_mispredicts: 5,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.branch_mispredicts_per_kilo() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_mispredicts_per_kilo(), 0.0);
    }

    #[test]
    fn delta_subtracts_every_cumulative_counter() {
        let mut earlier_cpi = CpiStack::default();
        earlier_cpi.charge(CpiCat::Base);
        let mut later_cpi = earlier_cpi;
        later_cpi.charge(CpiCat::IcacheFill);
        later_cpi.charge(CpiCat::Base);
        let earlier = CoreStats {
            cycles: 100,
            dispatched: 220,
            retired: 200,
            fetched: 260,
            cond_branches: 30,
            branch_mispredicts: 3,
            jump_mispredicts: 1,
            icache_misses: 2,
            dcache_misses: 7,
            l2_hits: 5,
            l2_misses: 2,
            port_stall_cycles: 30,
            rob_full_cycles: 11,
            iq_full_cycles: 4,
            fetch_fill_stall_cycles: 5,
            fetch_redirect_stall_cycles: 3,
            fetch_external_stall_cycles: 1,
            fetch_active_cycles: 80,
            flushes: 1,
            faults_injected: 0,
            cpi: earlier_cpi,
            fault_fired_cycle: None,
            fault_fired_seq: None,
        };
        let later = CoreStats {
            cycles: 150,
            dispatched: 320,
            retired: 290,
            fetched: 400,
            cond_branches: 45,
            branch_mispredicts: 5,
            jump_mispredicts: 2,
            icache_misses: 2,
            dcache_misses: 12,
            l2_hits: 9,
            l2_misses: 3,
            port_stall_cycles: 75,
            rob_full_cycles: 20,
            iq_full_cycles: 6,
            fetch_fill_stall_cycles: 8,
            fetch_redirect_stall_cycles: 5,
            fetch_external_stall_cycles: 2,
            fetch_active_cycles: 115,
            flushes: 3,
            faults_injected: 1,
            cpi: later_cpi,
            fault_fired_cycle: Some(120),
            fault_fired_seq: Some(250),
        };
        let d = later.delta(&earlier);
        assert_eq!(d.cycles, 50);
        assert_eq!(d.dispatched, 100);
        assert_eq!(d.retired, 90);
        assert_eq!(d.fetched, 140);
        assert_eq!(d.cond_branches, 15);
        assert_eq!(d.branch_mispredicts, 2);
        assert_eq!(d.jump_mispredicts, 1);
        assert_eq!(d.icache_misses, 0);
        assert_eq!(d.dcache_misses, 5);
        assert_eq!(d.l2_hits, 4);
        assert_eq!(d.l2_misses, 1);
        assert_eq!(d.port_stall_cycles, 45);
        assert_eq!(d.rob_full_cycles, 9);
        assert_eq!(d.iq_full_cycles, 2);
        assert_eq!(d.fetch_fill_stall_cycles, 3);
        assert_eq!(d.fetch_redirect_stall_cycles, 2);
        assert_eq!(d.fetch_external_stall_cycles, 1);
        assert_eq!(d.fetch_active_cycles, 35);
        assert_eq!(d.flushes, 2);
        assert_eq!(d.faults_injected, 1);
        assert_eq!(d.cpi.get(CpiCat::Base), 1);
        assert_eq!(d.cpi.get(CpiCat::IcacheFill), 1);
        assert_eq!(d.fault_fired_cycle, Some(120), "fire inside interval kept");
        assert_eq!(d.fault_fired_seq, Some(250));
        // Fire before the snapshot is not re-reported in the next interval.
        assert_eq!(later.delta(&later).fault_fired_cycle, None);
        assert_eq!(later.delta(&later).cycles, 0);
    }

    #[test]
    fn delta_then_merge_round_trips() {
        let mut earlier_cpi = CpiStack::default();
        earlier_cpi.charge(CpiCat::Base);
        earlier_cpi.charge(CpiCat::SyncWait);
        let mut later_cpi = earlier_cpi;
        later_cpi.charge(CpiCat::Recovery);
        later_cpi.charge(CpiCat::DelayEmpty);
        later_cpi.charge(CpiCat::Base);
        let earlier = CoreStats {
            cycles: 40,
            retired: 90,
            dcache_misses: 3,
            fetch_fill_stall_cycles: 2,
            fetch_redirect_stall_cycles: 1,
            fetch_external_stall_cycles: 4,
            cpi: earlier_cpi,
            ..Default::default()
        };
        let later = CoreStats {
            cycles: 100,
            retired: 250,
            dcache_misses: 9,
            fetch_fill_stall_cycles: 6,
            fetch_redirect_stall_cycles: 3,
            fetch_external_stall_cycles: 9,
            cpi: later_cpi,
            fault_fired_cycle: Some(77),
            fault_fired_seq: Some(140),
            ..Default::default()
        };
        assert_eq!(earlier.merge(&later.delta(&earlier)), later);
    }

    #[test]
    fn merge_keeps_earliest_fault_fire() {
        let a = CoreStats {
            fault_fired_cycle: Some(500),
            fault_fired_seq: Some(1000),
            ..Default::default()
        };
        let b = CoreStats {
            fault_fired_cycle: Some(200),
            fault_fired_seq: Some(400),
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.fault_fired_cycle, Some(200));
        assert_eq!(m.fault_fired_seq, Some(400));
        let m2 = b.merge(&a);
        assert_eq!(m2.fault_fired_cycle, Some(200));
        assert_eq!(m2.fault_fired_seq, Some(400));
        assert_eq!(CoreStats::default().merge(&a).fault_fired_cycle, Some(500));
    }
}
