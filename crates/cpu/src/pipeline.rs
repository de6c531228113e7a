use std::collections::VecDeque;

use slipstream_isa::{InstrKind, MemEffect, MemRead, MemWidth, Memory, Reg, Retired, NUM_REGS};

use slipstream_isa::ExecOut;

use crate::accounting::{Accounting, CpiCat, StallCause};
use crate::cache::Cache;
use crate::config::CoreConfig;
use crate::driver::{CoreDriver, DispatchHints, DriverStall, FetchBlock, FetchItem};
use crate::l2::{L2Access, L2View};
use crate::stats::CoreStats;
use crate::trace::{EventKind, TraceSink, NO_SEQ};

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

/// Whether `SLIP_DEBUG_MISP` was set when the process first asked. Read
/// once: an `env::var_os` per mispredict was a measurable cost in the
/// dispatch hot path.
fn debug_misp() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("SLIP_DEBUG_MISP").is_some())
}

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    rob_id: u64,
    addr: u64,
    width: MemWidth,
    value: u64,
}

#[derive(Debug, Clone)]
struct RobEntry {
    id: u64,
    meta: u64,
    rec: Retired,
    /// Producer ROB ids this entry's sources wait on (timing only).
    deps: [Option<u64>; 3],
    issued: bool,
    complete_cycle: Option<u64>,
    /// Cycle at which every dependence is complete, cached once all
    /// producers have a scheduled completion (producers complete exactly
    /// once, so the value never goes stale). `None` = not yet computable.
    ready_at: Option<u64>,
    /// This entry is a load that missed in the data cache — while it sits
    /// incomplete at the ROB head, the core is in a d-miss shadow
    /// (cycle-accounting only; no timing decision reads it).
    missed: bool,
}

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
        let conflict = self.stores.iter().any(|st| {
            st.addr.wrapping_sub(addr) < n || addr.wrapping_sub(st.addr) < st.width.bytes()
        });
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
    fetch_queue: VecDeque<FetchItem>,
    /// Items pulled from the driver in a batch but not yet consumed (the
    /// generalization of the old single-item `pending_fetch` stash).
    /// Discarded wherever the fetch queue is discarded.
    fetch_block: FetchBlock,
    fetch_resume_cycle: u64,
    rob: VecDeque<RobEntry>,
    rob_base: u64,
    next_rob_id: u64,
    store_queue: VecDeque<StoreEntry>,
    reg_producer: [Option<u64>; NUM_REGS],
    pending_redirect: Option<u64>,
    /// Dispatched-but-unissued instructions (issue-queue occupancy).
    unissued: usize,
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

// Hand-written (see the struct docs): field-wise `clone_from` lets the
// slack-window checkpoint reuse every container it cloned last window.
impl Clone for Core {
    fn clone(&self) -> Core {
        Core {
            cfg: self.cfg.clone(),
            spec_regs: self.spec_regs,
            arch_regs: self.arch_regs,
            mem: self.mem.clone(),
            icache: self.icache.clone(),
            dcache: self.dcache.clone(),
            fetch_queue: self.fetch_queue.clone(),
            fetch_block: self.fetch_block.clone(),
            fetch_resume_cycle: self.fetch_resume_cycle,
            rob: self.rob.clone(),
            rob_base: self.rob_base,
            next_rob_id: self.next_rob_id,
            store_queue: self.store_queue.clone(),
            reg_producer: self.reg_producer,
            pending_redirect: self.pending_redirect,
            unissued: self.unissued,
            issue_scratch: self.issue_scratch.clone(),
            mshrs: self.mshrs.clone(),
            l2: self.l2.clone(),
            fault: self.fault,
            halted: self.halted,
            now: self.now,
            next_seq: self.next_seq,
            last_progress: self.last_progress,
            stats: self.stats,
            acct: self.acct,
            trace: self.trace.clone(),
        }
    }

    fn clone_from(&mut self, src: &Core) {
        self.cfg.clone_from(&src.cfg);
        self.spec_regs = src.spec_regs;
        self.arch_regs = src.arch_regs;
        self.mem.clone_from(&src.mem);
        self.icache.clone_from(&src.icache);
        self.dcache.clone_from(&src.dcache);
        self.fetch_queue.clone_from(&src.fetch_queue);
        self.fetch_block.clone_from(&src.fetch_block);
        self.fetch_resume_cycle = src.fetch_resume_cycle;
        self.rob.clone_from(&src.rob);
        self.rob_base = src.rob_base;
        self.next_rob_id = src.next_rob_id;
        self.store_queue.clone_from(&src.store_queue);
        self.reg_producer = src.reg_producer;
        self.pending_redirect = src.pending_redirect;
        self.unissued = src.unissued;
        self.issue_scratch.clone_from(&src.issue_scratch);
        self.mshrs.clone_from(&src.mshrs);
        self.l2.clone_from(&src.l2);
        self.fault = src.fault;
        self.halted = src.halted;
        self.now = src.now;
        self.next_seq = src.next_seq;
        self.last_progress = src.last_progress;
        self.stats = src.stats;
        self.acct = src.acct;
        self.trace.clone_from(&src.trace);
    }
}

impl Core {
    /// Creates a core with `mem` as its private initial memory image.
    pub fn new(cfg: CoreConfig, mem: Memory) -> Core {
        let mshrs = vec![0; cfg.mshr_count];
        Core {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            mshrs,
            cfg,
            spec_regs: [0; NUM_REGS],
            arch_regs: [0; NUM_REGS],
            mem,
            fetch_queue: VecDeque::new(),
            fetch_block: FetchBlock::new(),
            fetch_resume_cycle: 0,
            rob: VecDeque::new(),
            rob_base: 0,
            next_rob_id: 0,
            store_queue: VecDeque::new(),
            reg_producer: [None; NUM_REGS],
            pending_redirect: None,
            unissued: 0,
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
    /// flat `miss_penalty`. The caller (the slipstream machine) must drain
    /// the view's access log and call [`Core::l2_apply_boundary`] at every
    /// sync boundary — the log grows until it does.
    pub fn attach_l2(&mut self, view: L2View) {
        self.l2 = Some(view);
    }

    /// The attached shared-L2 view, if any.
    pub fn l2(&self) -> Option<&L2View> {
        self.l2.as_ref()
    }

    /// This core's L2 accesses logged since the last boundary (empty when
    /// no L2 is attached).
    pub fn l2_log(&self) -> &[L2Access] {
        self.l2.as_ref().map_or(&[], |v| v.log())
    }

    /// Removes and returns the L2 access log (see [`L2View::take_log`]).
    pub fn l2_take_log(&mut self) -> Vec<L2Access> {
        self.l2.as_mut().map(|v| v.take_log()).unwrap_or_default()
    }

    /// Boundary sync for the shared L2: replays the merged two-core access
    /// stream onto this core's canonical replica (see
    /// [`L2View::apply_boundary`]). No-op when no L2 is attached.
    pub fn l2_apply_boundary(&mut self, merged: &[L2Access]) {
        if let Some(v) = self.l2.as_mut() {
            v.apply_boundary(merged);
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
        self.fetch_queue.clear();
        self.fetch_block.clear();
        self.rob_base = self.next_rob_id;
        self.rob.clear();
        self.store_queue.clear();
        self.reg_producer = [None; NUM_REGS];
        self.pending_redirect = None;
        self.unissued = 0;
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
    /// # Panics
    ///
    /// Panics if the core makes no progress for an implausibly long time
    /// (an internal deadlock — indicates a simulator bug, not a program
    /// property).
    pub fn cycle(&mut self, driver: &mut dyn CoreDriver, retired: &mut Vec<Retired>) {
        retired.clear();
        self.cycle_inner(driver, Some(retired));
    }

    /// [`Core::cycle`] without materializing the retired records — the
    /// driver still observes every retirement via
    /// [`CoreDriver::on_retire`]. The A-stream half uses this: it consumes
    /// retirements through its front end only, and skipping the `Retired`
    /// copy-out (~130 bytes each) is a measurable hot-path saving.
    pub fn cycle_quiet(&mut self, driver: &mut dyn CoreDriver) {
        self.cycle_inner(driver, None);
    }

    fn cycle_inner(&mut self, driver: &mut dyn CoreDriver, retired: Option<&mut Vec<Retired>>) {
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
            .is_some_and(|e| e.missed && e.complete_cycle.is_none_or(|c| c > self.now));
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

    fn retire(&mut self, driver: &mut dyn CoreDriver, mut out: Option<&mut Vec<Retired>>) -> bool {
        let cap = self.cfg.width.min(driver.retire_capacity());
        let mut count = 0;
        while count < cap {
            let ready = match self.rob.front() {
                Some(e) => e.complete_cycle.is_some_and(|c| c <= self.now),
                None => false,
            };
            if !ready {
                break;
            }
            let entry = self.rob.pop_front().expect("checked nonempty");
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
            self.trace_event(EventKind::Retire, entry.rec.seq, entry.rec.pc, 0);
            driver.on_retire(&entry.rec, entry.meta);
            if let Some(out) = out.as_deref_mut() {
                out.push(entry.rec);
            }
            if self.halted {
                break;
            }
        }
        count > 0
    }

    // ---- redirect resolution -------------------------------------------

    fn resolve_redirect(&mut self, driver: &mut dyn CoreDriver) {
        let Some(id) = self.pending_redirect else {
            return;
        };
        let Some(entry) = self.rob_entry(id) else {
            // The offending entry already retired (resolution happened at
            // an earlier cycle boundary); should not happen, but recover.
            self.pending_redirect = None;
            return;
        };
        if entry.complete_cycle.is_some_and(|c| c <= self.now) {
            let rec = entry.rec;
            let meta = entry.meta;
            self.pending_redirect = None;
            self.fetch_resume_cycle = self
                .fetch_resume_cycle
                .max(self.now + self.cfg.redirect_penalty);
            self.acct.redirect_until = self
                .acct
                .redirect_until
                .max(self.now + self.cfg.redirect_penalty);
            driver.on_redirect(&rec, meta);
        }
    }

    fn rob_entry(&self, id: u64) -> Option<&RobEntry> {
        let idx = id.checked_sub(self.rob_base)? as usize;
        self.rob.get(idx)
    }

    // ---- issue ----------------------------------------------------------

    fn issue(&mut self) {
        let mut issued = 0;
        let mut seen = 0;
        let base = self.rob_base;
        let now = self.now;
        // Collect issue decisions first to appease the borrow checker,
        // reusing one scratch buffer across cycles.
        let mut to_issue = std::mem::take(&mut self.issue_scratch);
        to_issue.clear();
        // The scan is oldest-first over the whole ROB but stops once every
        // unissued entry has been examined — issued entries cost one flag
        // check each, and the dependence walk runs at most once per entry
        // thanks to the `ready_at` cache.
        for idx in 0..self.rob.len() {
            if issued >= self.cfg.width || seen >= self.unissued {
                break;
            }
            let e = &self.rob[idx];
            if e.issued {
                continue;
            }
            seen += 1;
            let ready = match e.ready_at {
                Some(t) => t <= now,
                None => {
                    let deps = e.deps;
                    let mut at = 0u64;
                    let mut computable = true;
                    for id in deps.into_iter().flatten() {
                        if id < base {
                            continue; // already retired, hence complete
                        }
                        match self.rob[(id - base) as usize].complete_cycle {
                            Some(c) => at = at.max(c),
                            None => {
                                // A producer has not issued yet; its
                                // completion cycle is unknowable, retry.
                                computable = false;
                                break;
                            }
                        }
                    }
                    if computable {
                        self.rob[idx].ready_at = Some(at);
                        at <= now
                    } else {
                        false
                    }
                }
            };
            if ready {
                to_issue.push(idx);
                issued += 1;
            }
        }
        for &idx in &to_issue {
            let Some(lat) = self.exec_latency(idx) else {
                // Structural hazard (all MSHRs busy): retry next cycle.
                continue;
            };
            let complete = self.now + lat;
            let (seq, pc) = {
                let e = &mut self.rob[idx];
                e.issued = true;
                e.complete_cycle = Some(complete);
                (e.rec.seq, e.rec.pc)
            };
            self.unissued -= 1;
            self.trace_event(EventKind::Issue, seq, pc, complete);
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

    /// Latency of executing the instruction at ROB index `idx`, or `None`
    /// when a structural hazard (no free MSHR for a missing load or store)
    /// defers issue to a later cycle.
    fn exec_latency(&mut self, idx: usize) -> Option<u64> {
        let rec = self.rob[idx].rec;
        Some(match rec.instr.kind() {
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
                if let Some(m) = rec.mem {
                    if self.dcache.probe(m.addr) {
                        self.dcache.access(m.addr); // update LRU
                    } else {
                        if !self.mshrs.iter().any(|b| *b <= self.now) {
                            return None;
                        }
                        let req = self.now + self.cfg.agen_latency + self.cfg.mem_latency;
                        let fill = self.next_level_latency(
                            req,
                            m.addr,
                            self.cfg.dcache.miss_penalty,
                            rec.seq,
                        );
                        let done = req + fill;
                        let slot = self
                            .mshrs
                            .iter_mut()
                            .find(|b| **b <= self.now)
                            .expect("checked above");
                        *slot = done;
                        self.dcache.access(m.addr); // allocate the line
                        self.stats.dcache_misses += 1;
                        self.trace_event(EventKind::DcacheMiss, rec.seq, rec.pc, m.addr);
                    }
                }
                self.cfg.agen_latency
            }
            InstrKind::Load => {
                let m = rec.mem.expect("loads carry a memory effect");
                // Store-to-load forwarding: if an older in-flight store
                // covers this address, data comes from the store queue at
                // hit latency.
                let id = self.rob[idx].id;
                let forwarded = self
                    .store_queue
                    .iter()
                    .any(|st| st.rob_id < id && overlaps(st, m));
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
                        self.next_level_latency(req, m.addr, self.cfg.dcache.miss_penalty, rec.seq);
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
                    self.trace_event(EventKind::DcacheMiss, rec.seq, rec.pc, m.addr);
                    lat
                }
            }
        })
    }

    // ---- dispatch --------------------------------------------------------

    fn dispatch(&mut self, driver: &mut dyn CoreDriver) {
        if self.pending_redirect.is_some() || self.halted {
            return;
        }
        for _ in 0..self.cfg.width {
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.rob_full_cycles += 1;
                self.acct.rob_full = true;
                break;
            }
            if self.unissued >= self.cfg.iq_size {
                self.stats.iq_full_cycles += 1;
                self.acct.iq_full = true;
                break;
            }
            let Some(item) = self.fetch_queue.front().copied() else {
                break;
            };
            if item.instr.is_store() && self.store_queue.len() >= self.cfg.store_queue {
                break;
            }
            self.fetch_queue.pop_front();
            let rec = self.execute_functionally(&item);
            let hints = driver.on_dispatch(&rec, item.meta);
            let mispredicted =
                !matches!(item.instr.kind(), InstrKind::Halt) && rec.next_pc != item.pred_npc;
            self.admit(item, rec, hints);
            self.stats.dispatched += 1;
            self.trace_event(EventKind::Dispatch, rec.seq, rec.pc, 0);
            if rec.taken.is_some() {
                self.stats.cond_branches += 1;
                if mispredicted || item.pred_taken != rec.taken {
                    self.stats.branch_mispredicts += 1;
                    self.trace_event(EventKind::BranchMispredict, rec.seq, rec.pc, rec.next_pc);
                    if debug_misp() {
                        eprintln!(
                            "misp pc {:#x} taken {:?} pred {:?}",
                            rec.pc, rec.taken, item.pred_taken
                        );
                    }
                }
            } else if mispredicted {
                self.stats.jump_mispredicts += 1;
                self.trace_event(EventKind::JumpMispredict, rec.seq, rec.pc, rec.next_pc);
                if debug_misp() {
                    eprintln!(
                        "misp pc {:#x} jump to {:#x} pred {:#x}",
                        rec.pc, rec.next_pc, item.pred_npc
                    );
                }
            }
            if mispredicted {
                // Stop dispatching; everything younger is wrong-path.
                self.pending_redirect = Some(self.next_rob_id - 1);
                self.fetch_queue.clear();
                self.fetch_block.clear();
                break;
            }
            if matches!(item.instr.kind(), InstrKind::Halt) {
                // Nothing meaningful follows; drop whatever was prefetched.
                self.fetch_queue.clear();
                self.fetch_block.clear();
                break;
            }
        }
    }

    fn execute_functionally(&mut self, item: &FetchItem) -> Retired {
        let instr = item.instr;
        let (s1, s2) = instr.src_regs();
        let v1 = s1.map_or(0, |r| self.spec_regs[r.index()]);
        let v2 = s2.map_or(0, |r| self.spec_regs[r.index()]);
        let mut out = {
            let spec = SpecMem {
                mem: &self.mem,
                stores: &self.store_queue,
            };
            instr.exec(item.pc, v1, v2, &spec)
        };
        if self.fault.is_some_and(|f| f.seq == self.next_seq) {
            let f = self.fault.take().expect("just checked");
            self.apply_fault(&instr, item.pc, f, &mut out);
        }
        let mem = if let Some((addr, width, value)) = out.store {
            let spec = SpecMem {
                mem: &self.mem,
                stores: &self.store_queue,
            };
            let old = spec.load(addr, width);
            Some(MemEffect {
                addr,
                width,
                value,
                old_value: Some(old),
                is_store: true,
            })
        } else if let (Some(addr), Some(value)) = (out.addr, out.loaded) {
            Some(MemEffect {
                addr,
                width: instr.mem_width().expect("load has a width"),
                value,
                old_value: None,
                is_store: false,
            })
        } else {
            None
        };
        let rec = Retired {
            seq: self.next_seq,
            pc: item.pc,
            instr,
            src1: s1.map(|r| (r, v1)),
            src2: s2.map(|r| (r, v2)),
            dest: out.dest,
            mem,
            taken: out.taken,
            next_pc: out.next_pc,
        };
        self.next_seq += 1;
        rec
    }

    /// Flips one bit of the instruction's produced value (dest register,
    /// store data, or branch outcome).
    fn apply_fault(
        &mut self,
        instr: &slipstream_isa::Instr,
        pc: u64,
        f: FaultSpec,
        out: &mut ExecOut,
    ) {
        self.stats.faults_injected += 1;
        self.stats.fault_fired_cycle = Some(self.now);
        self.stats.fault_fired_seq = Some(f.seq);
        self.trace_event(EventKind::FaultFired, f.seq, pc, f.bit as u64);
        if let Some((d, v)) = out.dest {
            out.dest = Some((d, v ^ (1u64 << (f.bit & 63))));
        } else if let Some((a, w, v)) = out.store {
            let flipped = v ^ (1u64 << (f.bit as u64 % (8 * w.bytes())));
            out.store = Some((a, w, flipped));
        } else if let Some(t) = out.taken {
            out.taken = Some(!t);
            out.next_pc = if t {
                pc.wrapping_add(4)
            } else {
                instr.static_target().unwrap_or(out.next_pc)
            };
        }
        // Instructions with no visible result (nop, halt, j) absorb the
        // fault silently — architecturally masked.
    }

    fn admit(&mut self, item: FetchItem, rec: Retired, hints: DispatchHints) {
        let id = self.next_rob_id;
        self.next_rob_id += 1;
        let (s1, s2) = rec.instr.src_regs();
        let dep_of = |src: Option<Reg>, predicted: bool, producers: &[Option<u64>; NUM_REGS]| {
            if predicted {
                return None;
            }
            src.and_then(|r| producers[r.index()])
        };
        let mut deps = [
            dep_of(s1, hints.src1_predicted, &self.reg_producer),
            dep_of(s2, hints.src2_predicted, &self.reg_producer),
            None,
        ];
        // Memory dependence: a load waits for the youngest older store to
        // an overlapping address.
        if let Some(m) = rec.mem {
            if !m.is_store {
                deps[2] = self
                    .store_queue
                    .iter()
                    .rev()
                    .find(|st| overlaps(st, m))
                    .map(|st| st.rob_id);
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
        self.unissued += 1;
        self.rob.push_back(RobEntry {
            id,
            meta: item.meta,
            rec,
            deps,
            issued: false,
            complete_cycle: None,
            ready_at: None,
            missed: false,
        });
    }

    // ---- fetch ----------------------------------------------------------

    fn fetch(&mut self, driver: &mut dyn CoreDriver) {
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
            // Pull a whole fetch group in one virtual call; unconsumed
            // items stay in the block across cycles.
            if self.fetch_block.is_empty() {
                driver.next_fetch_block(&mut self.fetch_block, self.cfg.fetch_width);
                if self.fetch_block.is_empty() {
                    break;
                }
            }
            let item = *self.fetch_block.peek().expect("block checked nonempty");
            if self.fetch_queue.len() >= self.cfg.fetch_queue {
                break;
            }
            // A new fetch block cannot start mid-cycle.
            if slots_used > 0 && item.new_block {
                break;
            }
            // Respect per-cycle fetch bandwidth (a single oversized skip
            // still goes through alone).
            if slots_used > 0 && slots_used + item.slot_cost > self.cfg.fetch_width as u32 {
                break;
            }
            // Instruction cache probe; a miss stalls fetch (the line fills
            // during the stall).
            let line = self.icache.line_of(item.pc);
            if probed_line != Some(line) {
                if !self.icache.access(item.pc) {
                    self.stats.icache_misses += 1;
                    let fill = self.next_level_latency(
                        self.now,
                        item.pc,
                        self.cfg.icache.miss_penalty,
                        NO_SEQ,
                    );
                    self.fetch_resume_cycle = self.now + fill;
                    // Fetch only runs with every deadline expired, so a
                    // plain assignment keeps the mirror exact.
                    self.acct.fill_until = self.now + fill;
                    self.trace_event(EventKind::IcacheMiss, NO_SEQ, item.pc, 0);
                    break;
                }
                probed_line = Some(line);
            }
            self.fetch_block.advance();
            slots_used += item.slot_cost.max(1);
            let fetched_pc = item.pc;
            self.fetch_queue.push_back(item);
            self.stats.fetched += 1;
            self.trace_event(EventKind::Fetch, NO_SEQ, fetched_pc, 0);
            if slots_used >= self.cfg.fetch_width as u32 {
                break;
            }
        }
        if slots_used > 0 {
            self.stats.fetch_active_cycles += 1;
        }
    }
}

fn overlaps(st: &StoreEntry, m: MemEffect) -> bool {
    let a0 = st.addr;
    let a1 = st.addr + st.width.bytes();
    let b0 = m.addr;
    let b1 = m.addr + m.width.bytes();
    a0 < b1 && b0 < a1
}
