//! Exact cycle accounting: every simulated cycle of a [`crate::Core`] is
//! attributed to exactly one exclusive [`CpiCat`] category, and the sum of
//! all categories equals [`crate::CoreStats::cycles`] by construction —
//! the pipeline charges exactly one category per cycle, in a fixed
//! priority order, from state that is part of the core (and therefore of
//! every slack-window checkpoint). Attribution is pure bookkeeping: no
//! timing decision reads it, so enabling it cannot perturb simulated
//! cycles, and the stacks are byte-identical across the serial, windowed,
//! and threaded schedulers.

/// Exclusive cycle categories of the CPI stack, in display order.
///
/// The fixed classification priority (first match wins) is:
/// retirement → recovery (frozen driver or recovery-pipeline stall) →
/// d-miss shadow (L2-port first) → sync-boundary wait → ROB full →
/// IQ full → fetch stalls (fill/external/redirect) → delay-buffer
/// starvation → base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CpiCat {
    /// At least one instruction retired, or the cycle is issue-bound with
    /// work in flight (dependence/latency limited) — the "useful" bucket a
    /// CPI stack's base represents.
    Base = 0,
    /// Fetch stalled behind an instruction-cache line fill.
    IcacheFill,
    /// Fetch stalled by the redirect penalty of a resolved misprediction.
    FetchRedirect,
    /// The R-stream's delay buffer was empty: the trailing core starved
    /// with nothing in flight (A-stream too far behind or finished).
    DelayEmpty,
    /// Dispatch blocked on a full reorder buffer and nothing retired.
    RobFull,
    /// Dispatch blocked on a full issue queue and nothing retired.
    IqFull,
    /// Retirement blocked in the shadow of an outstanding data-cache miss
    /// at the ROB head.
    DcacheShadow,
    /// A miss shadow (d-side or i-side) whose latency came from waiting on
    /// the shared L2's bandwidth-limited memory port.
    L2Port,
    /// IR-misprediction recovery: the recovery-pipeline stall, plus
    /// R-stream cycles frozen between detection and the A-stream's squash.
    Recovery,
    /// The A-stream held back by delay-buffer back-pressure (the decoupled
    /// schedulers' boundary credit models the same wait).
    SyncWait,
    /// Fetch held by an externally imposed stall with no specific cause
    /// recorded ([`crate::Core::stall_fetch_until`]).
    External,
}

impl CpiCat {
    /// Number of categories.
    pub const COUNT: usize = 11;

    /// Every category, in display order.
    pub const ALL: [CpiCat; CpiCat::COUNT] = [
        CpiCat::Base,
        CpiCat::IcacheFill,
        CpiCat::FetchRedirect,
        CpiCat::DelayEmpty,
        CpiCat::RobFull,
        CpiCat::IqFull,
        CpiCat::DcacheShadow,
        CpiCat::L2Port,
        CpiCat::Recovery,
        CpiCat::SyncWait,
        CpiCat::External,
    ];

    /// Stable snake_case label used by every JSON export and table.
    pub fn label(self) -> &'static str {
        match self {
            CpiCat::Base => "base",
            CpiCat::IcacheFill => "icache_fill",
            CpiCat::FetchRedirect => "fetch_redirect",
            CpiCat::DelayEmpty => "delay_empty",
            CpiCat::RobFull => "rob_full",
            CpiCat::IqFull => "iq_full",
            CpiCat::DcacheShadow => "dcache_shadow",
            CpiCat::L2Port => "l2_port",
            CpiCat::Recovery => "recovery",
            CpiCat::SyncWait => "sync_wait",
            CpiCat::External => "external",
        }
    }
}

/// A per-core CPI stack: one cycle counter per [`CpiCat`].
///
/// Lives inside [`crate::CoreStats`], so it rides through interval deltas,
/// merges, checkpoints, and every scheduler-equivalence assertion for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    counts: [u64; CpiCat::COUNT],
}

impl CpiStack {
    /// Charges one cycle to `cat`.
    #[inline]
    pub fn charge(&mut self, cat: CpiCat) {
        self.counts[cat as usize] += 1;
    }

    /// Cycles attributed to `cat`.
    pub fn get(&self, cat: CpiCat) -> u64 {
        self.counts[cat as usize]
    }

    /// Sets the cycles attributed to `cat` (rebuilding a stack from an
    /// export).
    pub fn set(&mut self, cat: CpiCat, cycles: u64) {
        self.counts[cat as usize] = cycles;
    }

    /// Sum over all categories — the invariant is `total() == cycles`.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(category, cycles)` pairs in display order.
    pub fn entries(&self) -> impl Iterator<Item = (CpiCat, u64)> + '_ {
        CpiCat::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Element-wise saturating subtraction (interval deltas).
    pub fn delta(&self, earlier: &CpiStack) -> CpiStack {
        let mut out = CpiStack::default();
        for i in 0..CpiCat::COUNT {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// Element-wise addition (aggregation across cores or intervals).
    pub fn merge(&self, other: &CpiStack) -> CpiStack {
        let mut out = CpiStack::default();
        for i in 0..CpiCat::COUNT {
            out.counts[i] = self.counts[i] + other.counts[i];
        }
        out
    }
}

/// Which deadline is binding on a stalled fetch cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallCause {
    Recovery,
    External,
    Fill,
    Redirect,
}

/// Per-core attribution state: shadow deadlines mirroring every update to
/// `fetch_resume_cycle` (so a stalled fetch cycle knows *why* it stalled),
/// the outstanding L2-port debt, and per-cycle dispatch-blockage flags.
/// `Copy`, and a plain field of [`crate::Core`], so checkpoints and
/// rollback-replay restore it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Accounting {
    /// Fetch stalled behind an icache fill until this cycle.
    pub fill_until: u64,
    /// Fetch stalled by a redirect penalty until this cycle.
    pub redirect_until: u64,
    /// Fetch stalled externally (untagged `stall_fetch_until`) until here.
    pub ext_until: u64,
    /// Fetch stalled by the recovery pipeline until this cycle.
    pub recovery_until: u64,
    /// Memory-port wait cycles accrued but not yet attributed; burned one
    /// per miss-shadow cycle (as [`CpiCat::L2Port`]) before the shadow
    /// falls back to its cache category.
    pub port_debt: u64,
    /// Dispatch broke on a full ROB this cycle.
    pub rob_full: bool,
    /// Dispatch broke on a full issue queue this cycle.
    pub iq_full: bool,
    /// Fetch was stalled this cycle, and why (set by the fetch stage as it
    /// bumps the matching split stall counter).
    pub fetch_stalled: Option<StallCause>,
}

impl Accounting {
    /// Resets the per-cycle flags (call at the top of every cycle).
    #[inline]
    pub fn reset_cycle(&mut self) {
        self.rob_full = false;
        self.iq_full = false;
        self.fetch_stalled = None;
    }

    /// Clears every deadline (call wherever `fetch_resume_cycle` is reset,
    /// i.e. on flush).
    pub fn clear_deadlines(&mut self, now: u64) {
        self.fill_until = now;
        self.redirect_until = now;
        self.ext_until = now;
        self.recovery_until = now;
    }

    /// The binding cause of a fetch stall at `now`: the live deadline that
    /// extends furthest (removing a nearer cause would not unstall fetch).
    /// Ties break recovery > external > fill > redirect. Falls back to
    /// `External` if no deadline is live (unreachable when the mirrors are
    /// maintained at every `fetch_resume_cycle` update site).
    pub fn stall_cause(&self, now: u64) -> StallCause {
        let mut best = StallCause::External;
        let mut best_until = now;
        for (until, cause) in [
            (self.recovery_until, StallCause::Recovery),
            (self.ext_until, StallCause::External),
            (self.fill_until, StallCause::Fill),
            (self.redirect_until, StallCause::Redirect),
        ] {
            if until > best_until {
                best = cause;
                best_until = until;
            }
        }
        debug_assert!(best_until > now, "stalled fetch with no live deadline");
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_total_and_entries() {
        let mut s = CpiStack::default();
        s.charge(CpiCat::Base);
        s.charge(CpiCat::Base);
        s.charge(CpiCat::Recovery);
        assert_eq!(s.get(CpiCat::Base), 2);
        assert_eq!(s.get(CpiCat::Recovery), 1);
        assert_eq!(s.total(), 3);
        let cats: Vec<CpiCat> = s.entries().map(|(c, _)| c).collect();
        assert_eq!(cats.len(), CpiCat::COUNT);
        assert_eq!(cats[0], CpiCat::Base);
    }

    #[test]
    fn delta_then_merge_round_trips() {
        let mut earlier = CpiStack::default();
        earlier.charge(CpiCat::Base);
        earlier.charge(CpiCat::RobFull);
        let mut later = earlier;
        later.charge(CpiCat::Base);
        later.charge(CpiCat::IcacheFill);
        later.charge(CpiCat::SyncWait);
        assert_eq!(earlier.merge(&later.delta(&earlier)), later);
        assert_eq!(later.delta(&later).total(), 0);
    }

    #[test]
    fn labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in CpiCat::ALL {
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
        }
    }

    #[test]
    fn stall_cause_picks_the_furthest_live_deadline() {
        let mut a = Accounting {
            fill_until: 20,
            redirect_until: 15,
            ..Accounting::default()
        };
        assert_eq!(a.stall_cause(10), StallCause::Fill);
        a.ext_until = 20; // ties break toward external over fill
        assert_eq!(a.stall_cause(10), StallCause::External);
        a.recovery_until = 25;
        assert_eq!(a.stall_cause(10), StallCause::Recovery);
        assert_eq!(a.stall_cause(21), StallCause::Recovery);
    }
}
