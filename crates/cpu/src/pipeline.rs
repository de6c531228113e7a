use std::collections::VecDeque;

use slipstream_isa::{
    accesses_overlap, InstrKind, MemRead, MemWidth, Memory, Reg, Retired, NUM_REGS,
};

use crate::accounting::{Accounting, CpiCat, StallCause};
use crate::cache::Cache;
use crate::config::CoreConfig;
use crate::driver::{CoreDriver, DispatchHints, DriverStall, FetchItem};
use crate::l2::L2View;
use crate::stats::CoreStats;
use crate::trace::{EventKind, TraceEvent, TraceSink, NO_SEQ};

/// A single transient fault to inject: when the dynamic instruction with
/// dispatch sequence number `seq` executes, bit `bit` of its result is
/// flipped (destination value, store value, or branch outcome — whichever
/// the instruction produces). Models the paper's §3 single-fault scenarios:
/// the wrong value then propagates through the machine exactly as a real
/// soft error would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Dynamic (dispatch-order) instruction number the fault strikes.
    pub seq: u64,
    /// Which bit of the produced value to flip.
    pub bit: u8,
}

/// How many cycles the core may go without dispatching or retiring before
/// [`Core::cycle`] panics — a guard against simulator deadlock bugs. Large
/// enough that cache-miss pile-ups and delay-buffer stalls never trip it.
const WATCHDOG_CYCLES: u64 = 1_000_000;

/// Completion cycle of an in-flight instruction that has not issued yet.
/// No cycle count reaches it, so `done_at(id) <= now` reads "complete".
const NOT_ISSUED: u64 = u64::MAX;

/// An [`IqEntry`] dependence slot with no producer.
const NO_DEP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    rob_id: u64,
    addr: u64,
    width: MemWidth,
    value: u64,
}

/// One in-flight instruction, from dispatch to retirement. Its
/// completion cycle lives in [`Core::done_at`] and, until it issues, its
/// dependences in an [`IqEntry`], so the issue scan never touches this
/// (`Retired`-sized) record.
#[derive(Debug, Clone)]
struct RobEntry {
    id: u64,
    meta: u64,
    rec: Retired,
    /// This entry is a load that missed in the data cache — while it sits
    /// incomplete at the ROB head, the core is in a d-miss shadow
    /// (cycle-accounting only; no timing decision reads it).
    missed: bool,
}

/// One dispatched-but-unissued instruction in the issue queue.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    rob_id: u64,
    /// Producer ROB ids the sources and, in slot [`MEM_DEP`], a load's
    /// memory dependence wait on; [`NO_DEP`] for an empty slot.
    deps: [u64; 3],
    /// Latest completion cycle of the producers folded so far. A producer
    /// completes exactly once, so a folded one is never read again.
    ready_at: u64,
    /// `deps[..folded]` are folded into `ready_at` (or had no producer,
    /// or one that had already retired).
    folded: u8,
}

/// The [`IqEntry::deps`] slot of a load's memory dependence: the youngest
/// older store to an overlapping address at dispatch.
const MEM_DEP: usize = 2;

// Both are copied per dispatched instruction, and the issue queue is
// scanned every cycle: a field that fattens either must raise its pin.
const _: () = assert!(
    std::mem::size_of::<RobEntry>() <= 184,
    "RobEntry grew past 184 bytes; shrink it or deliberately raise this pin"
);
const _: () = assert!(
    std::mem::size_of::<IqEntry>() <= 48,
    "IqEntry grew past 48 bytes; shrink it or deliberately raise this pin"
);

/// Speculative (dispatch-time) view of data memory: architectural memory
/// overlaid with the in-flight store queue, newest store wins per byte.
struct SpecMem<'a> {
    mem: &'a Memory,
    stores: &'a VecDeque<StoreEntry>,
}

impl MemRead for SpecMem<'_> {
    fn load(&self, addr: u64, width: MemWidth) -> u64 {
        // Fast path: when no in-flight store overlaps the loaded range
        // (the common case even with a busy store queue), the speculative
        // view is architectural memory itself, which resolves word loads
        // with a single page lookup instead of 8 byte probes.
        let n = width.bytes();
        let conflict = self
            .stores
            .iter()
            .any(|st| accesses_overlap(st.addr, st.width, addr, width));
        if !conflict {
            return self.mem.load(addr, width);
        }
        let mut out = 0u64;
        for i in 0..n {
            let byte_addr = addr.wrapping_add(i);
            let mut byte = self.mem.load_byte(byte_addr);
            for st in self.stores.iter() {
                let w = st.width.bytes();
                if byte_addr.wrapping_sub(st.addr) < w {
                    let lane = byte_addr.wrapping_sub(st.addr);
                    byte = (st.value >> (8 * lane)) as u8;
                }
            }
            out |= (byte as u64) << (8 * i);
        }
        out
    }
}

/// A cycle-level out-of-order superscalar core.
///
/// The pipeline implements the paper's base processor (Table 2): wide
/// fetch through an interleaved instruction cache, in-order
/// dispatch into a reorder buffer, dataflow-ordered issue to symmetric
/// function units, and in-order retirement. Control flow comes entirely
/// from a [`CoreDriver`] (see that trait for why), and *functional*
/// execution happens in program order at dispatch against a private
/// speculative state — the standard execution-driven-simulator structure —
/// so the core computes real (possibly wrong, in the A-stream's case)
/// values rather than consulting an oracle.
///
/// On a control misprediction the core stops dispatching, discards the
/// fetch queue, and resumes after the branch resolves plus a redirect
/// penalty. Since nothing dispatches down a wrong path, the speculative
/// register state never needs rollback; stores are buffered in the store
/// queue and only reach memory at retirement.
///
/// `Clone` supports the slack-window scheduler's A-core checkpoints: the
/// whole core state (flat cache tag arrays, memory image, ROB, queues) is
/// snapshotted at window boundaries and restored on recovery replay.
/// `clone_from` reuses the destination's buffers, so re-checkpointing
/// into the same snapshot every window is allocation-free.
pub struct Core {
    cfg: CoreConfig,
    /// Dispatch-time register state (speculative down the supplied path).
    spec_regs: [u64; NUM_REGS],
    /// Retirement-time register state (the architectural registers).
    arch_regs: [u64; NUM_REGS],
    mem: Memory,
    icache: Cache,
    dcache: Cache,
    /// The fetch queue, then the rest of the current fetch group: the first
    /// `fetched` items were fetched and await dispatch, the others were
    /// pulled from the driver as one group but not fetched yet. Sharing
    /// one buffer makes fetching an item a boundary move, not a copy.
    fetch_buf: VecDeque<FetchItem>,
    fetched: usize,
    fetch_resume_cycle: u64,
    rob: VecDeque<RobEntry>,
    rob_base: u64,
    next_rob_id: u64,
    /// Completion cycle of each in-flight instruction ([`NOT_ISSUED`]
    /// before it issues), indexed by ROB id modulo the length: a power of
    /// two no smaller than `rob_size`, so in-flight ids never share a slot.
    done_at: Vec<u64>,
    /// Dispatched-but-unissued instructions, oldest first.
    iq: Vec<IqEntry>,
    store_queue: VecDeque<StoreEntry>,
    reg_producer: [Option<u64>; NUM_REGS],
    pending_redirect: Option<u64>,
    /// Reusable scratch for issue selection (avoids a per-cycle `Vec`).
    issue_scratch: Vec<usize>,
    /// Busy-until cycle of each miss status holding register.
    mshrs: Vec<u64>,
    /// This core's deterministic view of the shared L2, when one is
    /// attached (see [`L2View`]); `None` keeps the flat `miss_penalty`
    /// memory model. Cloned with the core, so slack-window checkpoints
    /// capture L2/port state for free.
    l2: Option<L2View>,
    fault: Option<FaultSpec>,
    halted: bool,
    now: u64,
    next_seq: u64,
    last_progress: u64,
    stats: CoreStats,
    /// Cycle-accounting shadow state (stall-deadline mirrors, port debt,
    /// per-cycle flags). Plain `Copy` data cloned with the core, so
    /// checkpoints and rollback-replay reproduce attribution exactly.
    acct: Accounting,
    /// Flight recorder; `None` (the default) records nothing and costs one
    /// predictable branch per event site.
    trace: Option<TraceSink>,
}

// Field-wise `clone_from` (see the struct docs) lets the slack-window
// checkpoint reuse every container it cloned last window.
slipstream_isa::clone_in_place!(Core {
    cfg,
    spec_regs,
    arch_regs,
    mem,
    icache,
    dcache,
    fetch_buf,
    fetched,
    fetch_resume_cycle,
    rob,
    rob_base,
    next_rob_id,
    done_at,
    iq,
    store_queue,
    reg_producer,
    pending_redirect,
    issue_scratch,
    mshrs,
    l2,
    fault,
    halted,
    now,
    next_seq,
    last_progress,
    stats,
    acct,
    trace
});

impl Core {
    /// Creates a core with `mem` as its private initial memory image.
    pub fn new(cfg: CoreConfig, mem: Memory) -> Core {
        let mshrs = vec![0; cfg.mshr_count];
        let done_at = vec![NOT_ISSUED; cfg.rob_size.next_power_of_two()];
        Core {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            mshrs,
            cfg,
            spec_regs: [0; NUM_REGS],
            arch_regs: [0; NUM_REGS],
            mem,
            fetch_buf: VecDeque::new(),
            fetched: 0,
            fetch_resume_cycle: 0,
            rob: VecDeque::new(),
            rob_base: 0,
            next_rob_id: 0,
            done_at,
            iq: Vec::new(),
            store_queue: VecDeque::new(),
            reg_producer: [None; NUM_REGS],
            pending_redirect: None,
            issue_scratch: Vec::new(),
            l2: None,
            fault: None,
            halted: false,
            now: 0,
            next_seq: 0,
            last_progress: 0,
            stats: CoreStats::default(),
            acct: Accounting::default(),
            trace: None,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether `halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Timing and event statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Installs (or removes, with `None`) a flight-recorder sink. With no
    /// sink installed the pipeline records nothing.
    pub fn set_trace(&mut self, sink: Option<TraceSink>) {
        self.trace = sink;
    }

    /// The installed flight recorder, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Moves the installed recorder's events onto the end of `out` (see
    /// [`TraceSink::drain_into`]); a no-op with tracing off.
    pub fn drain_trace(&mut self, out: &mut impl Extend<TraceEvent>) {
        if let Some(t) = self.trace.as_mut() {
            t.drain_into(out);
        }
    }

    /// Records one event into the flight recorder, if one is installed.
    #[inline]
    fn trace_event(&mut self, kind: EventKind, seq: u64, pc: u64, arg: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.record(kind, seq, pc, arg);
        }
    }

    /// The architectural (retired) register file.
    pub fn arch_regs(&self) -> &[u64; NUM_REGS] {
        &self.arch_regs
    }

    /// Reads one architectural register.
    pub fn arch_reg(&self, r: Reg) -> u64 {
        self.arch_regs[r.index()]
    }

    /// The architectural memory image (reflects retired stores only).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable architectural memory — used by the recovery controller to
    /// repair a corrupted context and by fault injection.
    ///
    /// Callers must only use this while the pipeline is flushed (or accept
    /// that in-flight instructions used the old values).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Number of in-flight (dispatched, unretired) instructions.
    pub fn in_flight(&self) -> usize {
        self.rob.len()
    }

    /// Attaches a shared-L2 view: L1 misses (icache, loads, stores) now go
    /// through the L2 and its bandwidth-limited memory port instead of the
    /// flat `miss_penalty`. The caller (the slipstream machine) must call
    /// [`Core::sync_l2`] with the other core at every sync boundary — the
    /// view's access log grows until it does.
    pub fn attach_l2(&mut self, view: L2View) {
        self.l2 = Some(view);
    }

    /// Boundary sync of the shared L2 between this core and `other` (see
    /// [`L2View::sync`]). No-op unless both cores have a view attached.
    pub fn sync_l2(&mut self, other: &mut Core) {
        if let (Some(v), Some(w)) = (self.l2.as_mut(), other.l2.as_mut()) {
            v.sync(w);
        }
    }

    /// Arms a single transient fault (see [`FaultSpec`]). A previously
    /// armed, not-yet-fired fault is replaced.
    pub fn arm_fault(&mut self, fault: FaultSpec) {
        self.fault = Some(fault);
    }

    /// The next dispatch sequence number (useful for aiming a fault at
    /// "the Nth instruction from now").
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Overwrites the architectural *and* speculative register file — the
    /// paper's register-file repair ("the entire register file of the
    /// R-stream is copied to the A-stream register file"). Call only after
    /// [`Core::flush`].
    pub fn set_regs(&mut self, regs: &[u64; NUM_REGS]) {
        self.arch_regs = *regs;
        self.arch_regs[0] = 0;
        self.spec_regs = self.arch_regs;
    }

    /// Squashes everything in flight: fetch queue, reorder buffer, store
    /// queue, and pending redirect state. Speculative register state is
    /// re-synchronized to the architectural state. Also clears a sticky
    /// `halted` flag (a corrupted A-stream may have "halted" spuriously).
    pub fn flush(&mut self) {
        self.discard_fetch();
        self.rob_base = self.next_rob_id;
        self.rob.clear();
        self.store_queue.clear();
        self.reg_producer = [None; NUM_REGS];
        self.pending_redirect = None;
        self.iq.clear();
        self.spec_regs = self.arch_regs;
        self.halted = false;
        // A squashed icache miss (or redirect penalty) must not keep the
        // post-flush fetch stream stalled behind its fill timer; the
        // recovery latency is re-imposed by `stall_fetch_until`.
        self.fetch_resume_cycle = self.now;
        self.acct.clear_deadlines(self.now);
        self.stats.flushes += 1;
        self.trace_event(EventKind::Flush, NO_SEQ, 0, 0);
        self.last_progress = self.now;
    }

    /// Holds the core idle (no fetch) until `cycle`. Stall cycles spent
    /// here are attributed to [`CpiCat::External`]; recovery latency should
    /// use [`Core::stall_fetch_recovery`] instead.
    pub fn stall_fetch_until(&mut self, cycle: u64) {
        self.fetch_resume_cycle = self.fetch_resume_cycle.max(cycle);
        self.acct.ext_until = self.acct.ext_until.max(cycle);
        self.last_progress = self.last_progress.max(cycle);
    }

    /// [`Core::stall_fetch_until`] with the stall attributed to
    /// [`CpiCat::Recovery`] — the IR-misprediction recovery pipeline.
    /// Timing is identical; only the cycle-accounting bucket differs.
    pub fn stall_fetch_recovery(&mut self, cycle: u64) {
        self.fetch_resume_cycle = self.fetch_resume_cycle.max(cycle);
        self.acct.recovery_until = self.acct.recovery_until.max(cycle);
        self.last_progress = self.last_progress.max(cycle);
    }

    /// Advances one cycle, depositing the instructions retired this cycle
    /// in program order into `retired` (which is cleared first).
    ///
    /// The caller owns and reuses the buffer so the per-cycle hot loop
    /// performs no allocation — at two cores × millions of cycles per run,
    /// a fresh `Vec` per cycle was a measurable cost.
    ///
    /// Generic over the driver so each concrete driver's callbacks inline
    /// into the pipeline; `&mut dyn CoreDriver` still works.
    ///
    /// # Panics
    ///
    /// Panics if the core makes no progress for an implausibly long time
    /// (an internal deadlock — indicates a simulator bug, not a program
    /// property).
    pub fn cycle<D: CoreDriver + ?Sized>(&mut self, driver: &mut D, retired: &mut Vec<Retired>) {
        retired.clear();
        self.cycle_inner(driver, Some(retired));
    }

    /// [`Core::cycle`] without materializing the retired records — the
    /// driver still observes every retirement via
    /// [`CoreDriver::on_retire`]. Both slipstream halves and the
    /// superscalar baselines use this: the A-stream consumes retirements
    /// through its front end, and the R-stream's driver keeps the restart
    /// PC and steps the online checker from `on_retire`. Skipping the
    /// `Retired` copy-out (160 bytes each) is a measurable hot-path saving.
    pub fn cycle_quiet<D: CoreDriver + ?Sized>(&mut self, driver: &mut D) {
        self.cycle_inner(driver, None);
    }

    fn cycle_inner<D: CoreDriver + ?Sized>(
        &mut self,
        driver: &mut D,
        retired: Option<&mut Vec<Retired>>,
    ) {
        self.now += 1;
        self.stats.cycles += 1;
        self.acct.reset_cycle();
        // Sampled before any stage runs, so the hint reflects the same
        // driver state every scheduler sees at this cycle boundary.
        let driver_stall = driver.stall_kind();
        let dispatched_before = self.stats.dispatched;
        let fetched_before = self.stats.fetched;
        if let Some(t) = self.trace.as_mut() {
            t.set_cycle(self.now);
        }
        // Resolve before retiring so a completing mispredicted branch
        // redirects the driver even if it also retires this cycle.
        self.resolve_redirect(driver);
        let progressed = self.retire(driver, retired);
        self.issue();
        self.dispatch(driver);
        self.fetch(driver);
        let cat = self.classify_cycle(progressed, driver_stall, dispatched_before, fetched_before);
        self.stats.cpi.charge(cat);
        debug_assert_eq!(
            self.stats.cpi.total(),
            self.stats.cycles,
            "CPI stack out of sync with the cycle counter"
        );
        if progressed || self.halted {
            self.last_progress = self.now;
        }
        assert!(
            self.now.saturating_sub(self.last_progress) < WATCHDOG_CYCLES,
            "core wedged: no progress since cycle {} (now {}; rob {} entries, head {:?})",
            self.last_progress,
            self.now,
            self.rob.len(),
            self.rob.front().map(|e| e.rec.pc),
        );
    }

    /// Attributes this cycle to exactly one [`CpiCat`] — the sums-to-total
    /// invariant holds by construction because every cycle takes exactly
    /// one branch of this priority chain. Inputs are the per-cycle facts
    /// the stages just recorded ([`Accounting`]) plus the driver hint
    /// sampled at the top of the cycle; nothing here feeds back into
    /// timing.
    ///
    /// Priority (first match wins): retirement → recovery (frozen stream
    /// or recovery-pipeline stall) → d-miss shadow (L2-port debt burns
    /// first) → sync-boundary wait → ROB full → IQ full → fetch stalls
    /// (fill, again port-debt first / external / redirect) → delay-buffer
    /// starvation → base.
    fn classify_cycle(
        &mut self,
        retired_any: bool,
        driver_stall: DriverStall,
        dispatched_before: u64,
        fetched_before: u64,
    ) -> CpiCat {
        if retired_any {
            return CpiCat::Base;
        }
        if driver_stall == DriverStall::Frozen
            || self.acct.fetch_stalled == Some(StallCause::Recovery)
        {
            return CpiCat::Recovery;
        }
        // An incomplete missed load at the ROB head blocks retirement no
        // matter what the front of the pipe does: the d-miss shadow.
        let head_missed = self
            .rob
            .front()
            .is_some_and(|e| e.missed && self.done_at(e.id) > self.now);
        if head_missed {
            if self.acct.port_debt > 0 {
                self.acct.port_debt -= 1;
                return CpiCat::L2Port;
            }
            return CpiCat::DcacheShadow;
        }
        if driver_stall == DriverStall::Backpressure && !self.rob.is_empty() {
            return CpiCat::SyncWait;
        }
        if self.acct.rob_full {
            return CpiCat::RobFull;
        }
        if self.acct.iq_full {
            return CpiCat::IqFull;
        }
        match self.acct.fetch_stalled {
            Some(StallCause::Fill) => {
                // An icache fill that queued behind the shared memory port
                // charges the queueing part to the port, like d-side fills.
                if self.acct.port_debt > 0 {
                    self.acct.port_debt -= 1;
                    return CpiCat::L2Port;
                }
                return CpiCat::IcacheFill;
            }
            Some(StallCause::External | StallCause::Recovery) => return CpiCat::External,
            Some(StallCause::Redirect) => return CpiCat::FetchRedirect,
            None => {}
        }
        if driver_stall == DriverStall::Starved
            && self.rob.is_empty()
            && self.stats.dispatched == dispatched_before
            && self.stats.fetched == fetched_before
        {
            return CpiCat::DelayEmpty;
        }
        CpiCat::Base
    }

    // ---- retire ---------------------------------------------------------

    fn retire<D: CoreDriver + ?Sized>(
        &mut self,
        driver: &mut D,
        mut out: Option<&mut Vec<Retired>>,
    ) -> bool {
        let cap = self.cfg.width.min(driver.retire_capacity());
        let mut count = 0;
        while count < cap {
            let ready = self
                .rob
                .front()
                .is_some_and(|e| self.done_at(e.id) <= self.now);
            if !ready {
                break;
            }
            // Read the head in place and pop it last: the entry is never
            // moved out of the deque.
            let entry = &self.rob[0];
            self.rob_base = entry.id + 1;
            // Apply the store to architectural memory.
            if let Some(m) = entry.rec.mem {
                if m.is_store {
                    let st = self
                        .store_queue
                        .pop_front()
                        .expect("a retiring store must be at the store-queue head");
                    debug_assert_eq!(st.rob_id, entry.id);
                    self.mem.store(st.addr, st.width, st.value);
                }
            }
            if let Some((d, v)) = entry.rec.dest {
                self.arch_regs[d.index()] = v;
            }
            if matches!(entry.rec.instr.kind(), InstrKind::Halt) {
                self.halted = true;
            }
            self.stats.retired += 1;
            count += 1;
            if let Some(t) = self.trace.as_mut() {
                t.record(EventKind::Retire, entry.rec.seq, entry.rec.pc, 0);
            }
            driver.on_retire(&entry.rec, entry.meta);
            if let Some(out) = out.as_deref_mut() {
                out.push(entry.rec);
            }
            self.rob.pop_front();
            if self.halted {
                break;
            }
        }
        count > 0
    }

    // ---- redirect resolution -------------------------------------------

    fn resolve_redirect<D: CoreDriver + ?Sized>(&mut self, driver: &mut D) {
        let Some(id) = self.pending_redirect else {
            return;
        };
        let Some(idx) = id
            .checked_sub(self.rob_base)
            .map(|i| i as usize)
            .filter(|&i| i < self.rob.len())
        else {
            // The offending entry already retired (resolution happened at
            // an earlier cycle boundary); should not happen, but recover.
            self.pending_redirect = None;
            return;
        };
        if self.done_at(id) <= self.now {
            self.pending_redirect = None;
            self.fetch_resume_cycle = self
                .fetch_resume_cycle
                .max(self.now + self.cfg.redirect_penalty);
            self.acct.redirect_until = self
                .acct
                .redirect_until
                .max(self.now + self.cfg.redirect_penalty);
            let entry = &self.rob[idx];
            driver.on_redirect(&entry.rec, entry.meta);
        }
    }

    /// Completion cycle of in-flight instruction `id` ([`NOT_ISSUED`] until
    /// it issues).
    #[inline]
    fn done_at(&self, id: u64) -> u64 {
        self.done_at[id as usize & (self.done_at.len() - 1)]
    }

    // ---- issue ----------------------------------------------------------

    fn issue(&mut self) {
        let base = self.rob_base;
        let now = self.now;
        let mask = self.done_at.len() - 1;
        let mut to_issue = std::mem::take(&mut self.issue_scratch);
        to_issue.clear();
        // Select oldest-first among the ready entries, up to `width`. A
        // selection that then defers on a structural hazard still used its
        // slot this cycle. Each producer folds into `ready_at` once it has
        // issued; a waiting entry stops at its first producer that has not,
        // so it costs one `done_at` read per cycle.
        for (i, e) in self.iq.iter_mut().enumerate() {
            if to_issue.len() >= self.cfg.width {
                break;
            }
            while let Some(&d) = e.deps.get(e.folded as usize) {
                // An empty slot or a retired producer (whose `done_at`
                // slot a younger instruction may own by now) adds nothing.
                if d != NO_DEP && d >= base {
                    let at = self.done_at[d as usize & mask];
                    if at == NOT_ISSUED {
                        break;
                    }
                    e.ready_at = e.ready_at.max(at);
                }
                e.folded += 1;
            }
            if e.folded as usize == e.deps.len() && e.ready_at <= now {
                to_issue.push(i);
            }
        }
        let mut issued_any = false;
        for &i in &to_issue {
            let IqEntry {
                rob_id: id, deps, ..
            } = self.iq[i];
            let idx = (id - base) as usize;
            let Some(lat) = self.exec_latency(idx, deps[MEM_DEP]) else {
                // Structural hazard (all MSHRs busy): retry next cycle.
                continue;
            };
            let complete = now + lat;
            self.done_at[id as usize & mask] = complete;
            issued_any = true;
            if let Some(t) = self.trace.as_mut() {
                let rec = &self.rob[idx].rec;
                t.record(EventKind::Issue, rec.seq, rec.pc, complete);
            }
        }
        if issued_any {
            let done_at = &self.done_at;
            self.iq
                .retain(|e| done_at[e.rob_id as usize & mask] == NOT_ISSUED);
        }
        self.issue_scratch = to_issue;
    }

    /// Latency of servicing an L1 miss whose request reaches the next
    /// memory level at `request`: the shared L2 (hit, or port-arbitrated
    /// memory fill) when one is attached, else the flat `penalty`. Counts
    /// L2/port stats and trace events on the way.
    fn next_level_latency(&mut self, request: u64, addr: u64, penalty: u64, seq: u64) -> u64 {
        if self.l2.is_none() {
            return penalty;
        }
        let out = self
            .l2
            .as_mut()
            .expect("just checked")
            .access(request, addr);
        if out.hit {
            self.stats.l2_hits += 1;
        } else {
            self.stats.l2_misses += 1;
            self.trace_event(EventKind::L2Miss, seq, addr, addr);
            if out.port_stall > 0 {
                self.stats.port_stall_cycles += out.port_stall;
                self.acct.port_debt += out.port_stall;
                self.trace_event(EventKind::PortStall, seq, addr, out.port_stall);
            }
        }
        out.ready_at - request
    }

    /// Latency of executing the instruction at ROB index `idx`, whose
    /// memory dependence (a load's [`MEM_DEP`] slot) is `mem_dep`, or
    /// `None` when a structural hazard (no free MSHR for a missing load or
    /// store) defers issue to a later cycle.
    fn exec_latency(&mut self, idx: usize, mem_dep: u64) -> Option<u64> {
        let rec = &self.rob[idx].rec;
        let (kind, mem, seq, pc) = (rec.instr.kind(), rec.mem, rec.seq, rec.pc);
        Some(match kind {
            InstrKind::IntAlu | InstrKind::Branch | InstrKind::Jump => self.cfg.alu_latency,
            InstrKind::Nop | InstrKind::Halt => self.cfg.alu_latency,
            InstrKind::Mul => self.cfg.mul_latency,
            InstrKind::Div => self.cfg.div_latency,
            InstrKind::Store => {
                // Stores only need address generation before retirement
                // (write-buffer semantics: the write happens at retire),
                // but a write-allocate miss still brings the line in — the
                // fill occupies an MSHR like any other miss, and issue
                // defers while all MSHRs are busy. Retirement itself never
                // waits on the fill.
                if let Some(m) = mem {
                    if self.dcache.probe(m.addr) {
                        self.dcache.access(m.addr); // update LRU
                    } else {
                        if !self.mshrs.iter().any(|b| *b <= self.now) {
                            return None;
                        }
                        let req = self.now + self.cfg.agen_latency + self.cfg.mem_latency;
                        let fill =
                            self.next_level_latency(req, m.addr, self.cfg.dcache.miss_penalty, seq);
                        let done = req + fill;
                        let slot = self
                            .mshrs
                            .iter_mut()
                            .find(|b| **b <= self.now)
                            .expect("checked above");
                        *slot = done;
                        self.dcache.access(m.addr); // allocate the line
                        self.stats.dcache_misses += 1;
                        self.trace_event(EventKind::DcacheMiss, seq, pc, m.addr);
                    }
                }
                self.cfg.agen_latency
            }
            InstrKind::Load => {
                let m = mem.expect("loads carry a memory effect");
                // Store-to-load forwarding: if an older in-flight store
                // covers this address, data comes from the store queue at
                // hit latency. Dispatch found the youngest such store;
                // stores retire in order, so some older overlapping store
                // is still in flight exactly when that one is.
                let forwarded = mem_dep != NO_DEP && mem_dep >= self.rob_base;
                if forwarded || self.dcache.probe(m.addr) {
                    // A forwarded load still touches a resident line's LRU
                    // state (the access happened, only the data came from
                    // the store queue); it does not fill on a miss — no
                    // memory access occurred.
                    if self.dcache.probe(m.addr) {
                        self.dcache.access(m.addr); // update LRU
                    }
                    self.cfg.agen_latency + self.cfg.mem_latency
                } else {
                    // A miss needs a free miss status holding register.
                    if !self.mshrs.iter().any(|b| *b <= self.now) {
                        return None;
                    }
                    let req = self.now + self.cfg.agen_latency + self.cfg.mem_latency;
                    let fill =
                        self.next_level_latency(req, m.addr, self.cfg.dcache.miss_penalty, seq);
                    let lat = self.cfg.agen_latency + self.cfg.mem_latency + fill;
                    let slot = self
                        .mshrs
                        .iter_mut()
                        .find(|b| **b <= self.now)
                        .expect("checked above");
                    *slot = self.now + lat;
                    self.dcache.access(m.addr); // allocate the line
                    self.stats.dcache_misses += 1;
                    self.rob[idx].missed = true;
                    self.trace_event(EventKind::DcacheMiss, seq, pc, m.addr);
                    lat
                }
            }
        })
    }

    // ---- dispatch --------------------------------------------------------

    fn dispatch<D: CoreDriver + ?Sized>(&mut self, driver: &mut D) {
        if self.pending_redirect.is_some() || self.halted {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.rob_full_cycles += 1;
                self.acct.rob_full = true;
                break;
            }
            if self.iq.len() >= self.cfg.iq_size {
                self.stats.iq_full_cycles += 1;
                self.acct.iq_full = true;
                break;
            }
            if self.fetched == 0 {
                break;
            }
            let item = self.fetch_buf[0];
            if item.instr.is_store() && self.store_queue.len() >= self.cfg.store_queue {
                break;
            }
            self.fetch_buf.pop_front();
            self.fetched -= 1;
            let rec = self.execute_functionally(&item);
            let hints = driver.on_dispatch(&rec, item.meta);
            let (seq, pc, taken, next_pc) = (rec.seq, rec.pc, rec.taken, rec.next_pc);
            let halt = matches!(item.instr.kind(), InstrKind::Halt);
            let mispredicted = !halt && next_pc != item.pred_npc;
            self.admit(item.meta, rec, hints);
            self.stats.dispatched += 1;
            self.trace_event(EventKind::Dispatch, seq, pc, 0);
            if taken.is_some() {
                self.stats.cond_branches += 1;
                if mispredicted || item.pred_taken != taken {
                    self.stats.branch_mispredicts += 1;
                    self.trace_event(EventKind::BranchMispredict, seq, pc, next_pc);
                }
            } else if mispredicted {
                self.stats.jump_mispredicts += 1;
                self.trace_event(EventKind::JumpMispredict, seq, pc, next_pc);
            }
            if mispredicted {
                // Stop dispatching; everything younger is wrong-path.
                self.pending_redirect = Some(self.next_rob_id - 1);
                self.discard_fetch();
                break;
            }
            if halt {
                // Nothing meaningful follows; drop whatever was prefetched.
                self.discard_fetch();
                break;
            }
        }
    }

    /// Drops the fetch queue and the unfetched rest of the fetch group.
    fn discard_fetch(&mut self) {
        self.fetch_buf.clear();
        self.fetched = 0;
    }

    fn execute_functionally(&mut self, item: &FetchItem) -> Retired {
        let spec = SpecMem {
            mem: &self.mem,
            stores: &self.store_queue,
        };
        let mut rec = item
            .instr
            .exec(self.next_seq, item.pc, &self.spec_regs, &spec);
        if self.fault.is_some_and(|f| f.seq == self.next_seq) {
            let f = self.fault.take().expect("just checked");
            self.apply_fault(f, &mut rec);
        }
        self.next_seq += 1;
        rec
    }

    /// Flips one bit of the instruction's produced value (dest register,
    /// store data, or branch outcome).
    fn apply_fault(&mut self, f: FaultSpec, rec: &mut Retired) {
        self.stats.faults_injected += 1;
        self.stats.fault_fired_cycle = Some(self.now);
        self.stats.fault_fired_seq = Some(f.seq);
        self.trace_event(EventKind::FaultFired, f.seq, rec.pc, f.bit as u64);
        if let Some((d, v)) = rec.dest {
            rec.dest = Some((d, v ^ (1u64 << (f.bit & 63))));
        } else if let Some(m) = rec.mem.as_mut().filter(|m| m.is_store) {
            m.value ^= 1u64 << (f.bit as u64 % (8 * m.width.bytes()));
        } else if let Some(t) = rec.taken {
            rec.taken = Some(!t);
            rec.next_pc = if t {
                rec.pc.wrapping_add(4)
            } else {
                rec.instr.static_target().unwrap_or(rec.next_pc)
            };
        }
        // Instructions with no visible result (nop, halt, j) absorb the
        // fault silently — architecturally masked.
    }

    fn admit(&mut self, meta: u64, rec: Retired, hints: DispatchHints) {
        let id = self.next_rob_id;
        self.next_rob_id += 1;
        let (s1, s2) = rec.instr.src_regs();
        let dep_of = |src: Option<Reg>, predicted: bool, producers: &[Option<u64>; NUM_REGS]| {
            if predicted {
                return NO_DEP;
            }
            src.and_then(|r| producers[r.index()]).unwrap_or(NO_DEP)
        };
        let mut deps = [
            dep_of(s1, hints.src1_predicted, &self.reg_producer),
            dep_of(s2, hints.src2_predicted, &self.reg_producer),
            NO_DEP,
        ];
        // Memory dependence: a load waits for the youngest older store to
        // an overlapping address.
        if let Some(m) = rec.mem {
            if !m.is_store {
                deps[MEM_DEP] = self
                    .store_queue
                    .iter()
                    .rev()
                    .find(|st| accesses_overlap(st.addr, st.width, m.addr, m.width))
                    .map_or(NO_DEP, |st| st.rob_id);
            } else {
                self.store_queue.push_back(StoreEntry {
                    rob_id: id,
                    addr: m.addr,
                    width: m.width,
                    value: m.value,
                });
            }
        }
        if let Some((d, v)) = rec.dest {
            self.spec_regs[d.index()] = v;
            self.reg_producer[d.index()] = Some(id);
        }
        let mask = self.done_at.len() - 1;
        self.done_at[id as usize & mask] = NOT_ISSUED;
        self.iq.push(IqEntry {
            rob_id: id,
            deps,
            ready_at: 0,
            folded: 0,
        });
        self.rob.push_back(RobEntry {
            id,
            meta,
            rec,
            missed: false,
        });
    }

    // ---- fetch ----------------------------------------------------------

    fn fetch<D: CoreDriver + ?Sized>(&mut self, driver: &mut D) {
        if self.pending_redirect.is_some() || self.halted {
            return;
        }
        if self.now < self.fetch_resume_cycle {
            let cause = self.acct.stall_cause(self.now);
            self.acct.fetch_stalled = Some(cause);
            match cause {
                StallCause::Fill => self.stats.fetch_fill_stall_cycles += 1,
                StallCause::Redirect => self.stats.fetch_redirect_stall_cycles += 1,
                StallCause::External | StallCause::Recovery => {
                    self.stats.fetch_external_stall_cycles += 1
                }
            }
            return;
        }
        let mut slots_used: u32 = 0;
        // Consecutive items on one cache line need a single probe: a
        // repeat access is always a hit plus an idempotent MRU move, and
        // nothing else touches the icache inside this burst.
        let mut probed_line: Option<u64> = None;
        loop {
            // Pull a whole fetch group (up to `fetch_width` items, fewer
            // only if the driver idles) once the last one is fetched;
            // unfetched items wait in `fetch_buf` across cycles.
            if self.fetched == self.fetch_buf.len() {
                for _ in 0..self.cfg.fetch_width {
                    let Some(item) = driver.next_fetch() else {
                        break;
                    };
                    self.fetch_buf.push_back(item);
                }
                if self.fetched == self.fetch_buf.len() {
                    break;
                }
            }
            if self.fetched >= self.cfg.fetch_queue {
                break;
            }
            let item = &self.fetch_buf[self.fetched];
            let (pc, new_block, slot_cost) = (item.pc, item.new_block, item.slot_cost);
            // A new fetch block cannot start mid-cycle.
            if slots_used > 0 && new_block {
                break;
            }
            // Respect per-cycle fetch bandwidth (a single oversized skip
            // still goes through alone).
            if slots_used > 0 && slots_used + slot_cost > self.cfg.fetch_width as u32 {
                break;
            }
            // Instruction cache probe; a miss stalls fetch (the line fills
            // during the stall).
            let line = self.icache.line_of(pc);
            if probed_line != Some(line) {
                if !self.icache.access(pc) {
                    self.stats.icache_misses += 1;
                    let fill =
                        self.next_level_latency(self.now, pc, self.cfg.icache.miss_penalty, NO_SEQ);
                    self.fetch_resume_cycle = self.now + fill;
                    // Fetch only runs with every deadline expired, so a
                    // plain assignment keeps the mirror exact.
                    self.acct.fill_until = self.now + fill;
                    self.trace_event(EventKind::IcacheMiss, NO_SEQ, pc, 0);
                    break;
                }
                probed_line = Some(line);
            }
            self.fetched += 1;
            slots_used += slot_cost.max(1);
            self.stats.fetched += 1;
            self.trace_event(EventKind::Fetch, NO_SEQ, pc, 0);
            if slots_used >= self.cfg.fetch_width as u32 {
                break;
            }
        }
        if slots_used > 0 {
            self.stats.fetch_active_cycles += 1;
        }
    }
}
