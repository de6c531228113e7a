//! Structural-hazard and fault-injection behaviour of the cycle-level
//! core: issue-queue pressure, issue selection order, MSHR limits, and
//! single-bit result faults.

use std::collections::BTreeMap;

use slipstream_cpu::{
    Core, CoreConfig, CoreDriver, EventKind, FaultSpec, OracleDriver, StreamId, TraceSink,
};
use slipstream_isa::{assemble, ArchState, Program, Reg, Retired};

fn run(cfg: CoreConfig, p: &Program) -> (Core, Vec<Retired>) {
    let mut core = Core::new(cfg, p.initial_memory());
    let mut d = OracleDriver::new(p);
    let mut trace = Vec::new();
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut d, &mut retired);
        trace.extend_from_slice(&retired);
    }
    (core, trace)
}

/// A loop whose body is one long dependence chain followed by independent
/// work.
fn chain_program() -> Program {
    let chain = "slli r3, r2, 1\nxor r2, r2, r3\naddi r2, r2, 7\nsrli r3, r2, 3\nadd r2, r2, r3\n"
        .repeat(4);
    let indep = (0..12)
        .map(|i| format!("li r{}, {}\n", 10 + i, i))
        .collect::<String>();
    // Seed the chain from the loop counter so iterations are independent:
    // a large window can overlap them, a clogged issue queue cannot.
    let src = format!(
        "li r1, 300\nloop:\nmv r2, r1\n{chain}{indep}addi r1, r1, -1\nbne r1, r0, loop\nhalt"
    );
    assemble(&src).unwrap()
}

/// With a small issue queue, the waiting chain blocks dispatch of the
/// independent work behind it; a large issue queue lets the machine run
/// at full width.
#[test]
fn issue_queue_pressure_throttles_chains() {
    let p = chain_program();

    let mut small = CoreConfig::ss_64x4();
    small.iq_size = 8;
    let (c_small, _) = run(small, &p);

    let mut big = CoreConfig::ss_64x4();
    big.iq_size = 64;
    let (c_big, _) = run(big, &p);

    assert!(
        c_small.stats().iq_full_cycles > 100,
        "small IQ must clog: {} full cycles",
        c_small.stats().iq_full_cycles
    );
    assert!(
        c_big.stats().ipc() > c_small.stats().ipc() * 1.15,
        "a big IQ must outrun a small one ({:.2} vs {:.2})",
        c_big.stats().ipc(),
        c_small.stats().ipc()
    );
    // Results identical either way.
    assert_eq!(c_small.arch_regs(), c_big.arch_regs());
}

/// Independent streaming misses: MSHR count bounds memory-level
/// parallelism, so fewer MSHRs = more cycles, same results.
#[test]
fn mshr_limit_bounds_memory_parallelism() {
    let src = r#"
        li r1, 0x100000
        li r2, 4096
    loop:
        ld r3, 0(r1)
        ld r4, 64(r1)
        ld r5, 128(r1)
        ld r6, 192(r1)
        addi r1, r1, 256
        addi r2, r2, -4
        bne r2, r0, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let mut one = CoreConfig::ss_64x4();
    one.mshr_count = 1;
    let (c_one, _) = run(one, &p);
    let mut eight = CoreConfig::ss_64x4();
    eight.mshr_count = 8;
    let (c_eight, _) = run(eight, &p);
    assert!(
        c_one.stats().cycles > c_eight.stats().cycles * 2,
        "1 MSHR ({}) must be much slower than 8 ({})",
        c_one.stats().cycles,
        c_eight.stats().cycles
    );
    assert_eq!(c_one.arch_regs(), c_eight.arch_regs());
}

/// A fault on a register-writing instruction flips exactly one result bit,
/// which then propagates architecturally.
#[test]
fn fault_flips_destination_bit() {
    let p = assemble("li r1, 8\nli r2, 16\nadd r3, r1, r2\nhalt").unwrap();
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    core.arm_fault(FaultSpec { seq: 2, bit: 0 }); // the add
    let mut d = OracleDriver::new(&p);
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut d, &mut retired);
    }
    assert_eq!(core.stats().faults_injected, 1);
    assert_eq!(core.arch_reg(Reg::new(3)), 24 ^ 1);
}

/// A fault on a store flips the stored value in memory.
#[test]
fn fault_flips_store_value() {
    let p = assemble("li r1, 0x2000\nli r2, 100\nst r2, 0(r1)\nhalt").unwrap();
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    core.arm_fault(FaultSpec { seq: 2, bit: 3 });
    let mut d = OracleDriver::new(&p);
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut d, &mut retired);
    }
    assert_eq!(core.mem().load_word(0x2000), 100 ^ 8);
}

/// A fault on a branch flips its outcome: the oracle-driven core then
/// "mispredicts" and takes the corrected (faulty) path.
#[test]
fn fault_flips_branch_outcome() {
    let p =
        assemble("li r1, 1\nbeq r1, r0, taken\nli r2, 10\nj end\ntaken:\nli r2, 20\nend:\nhalt")
            .unwrap();
    // Functionally the branch is not taken → r2 = 10. Flip it.
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    core.arm_fault(FaultSpec { seq: 1, bit: 0 });
    // The oracle driver predicts the *correct* outcome, so the faulty
    // branch resolves as a misprediction and redirects.
    struct Tolerant(OracleDriver, u64);
    impl CoreDriver for Tolerant {
        fn next_fetch(&mut self) -> Option<slipstream_cpu::FetchItem> {
            self.0.next_fetch()
        }
        fn on_redirect(&mut self, resolved: &Retired, _meta: u64) {
            // Resynchronize a fresh oracle-like walk from the faulty path.
            self.1 = resolved.next_pc;
        }
    }
    let mut d = Tolerant(OracleDriver::new(&p), 0);
    let mut retired = Vec::new();
    for _ in 0..200 {
        core.cycle(&mut d, &mut retired);
        if core.halted() || d.1 != 0 {
            break;
        }
    }
    assert_eq!(core.stats().faults_injected, 1);
    assert_eq!(d.1, p.entry() + 4 * 4, "redirect lands on the taken target");
}

/// A fault armed past the end of the program never fires.
#[test]
fn unfired_fault_is_harmless() {
    let p = assemble("li r1, 5\nhalt").unwrap();
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    core.arm_fault(FaultSpec { seq: 1_000, bit: 0 });
    let mut d = OracleDriver::new(&p);
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut d, &mut retired);
    }
    assert_eq!(core.stats().faults_injected, 0);
    assert_eq!(core.arch_reg(Reg::new(1)), 5);
}

/// `next_seq` lets callers aim a fault at "N instructions from now".
#[test]
fn next_seq_tracks_dispatch_order() {
    let p = assemble("li r1, 1\nli r2, 2\nli r3, 3\nhalt").unwrap();
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    assert_eq!(core.next_seq(), 0);
    let mut d = OracleDriver::new(&p);
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut d, &mut retired);
    }
    assert_eq!(core.next_seq(), 4);
}

/// Oracle equivalence is unaffected by any structural configuration.
#[test]
fn structural_limits_never_change_results() {
    let src = r#"
        li r1, 0x3000
        li r2, 200
    loop:
        mul r3, r2, r2
        st r3, 0(r1)
        ld r4, 0(r1)
        add r5, r5, r4
        slli r6, r5, 1
        xor r5, r5, r6
        addi r1, r1, 8
        addi r2, r2, -1
        bne r2, r0, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let mut gold = ArchState::new(&p);
    gold.run_quiet(&p, 1_000_000).unwrap();
    for (iq, mshr, width) in [(4, 1, 2), (16, 8, 4), (64, 16, 8)] {
        let mut cfg = CoreConfig::ss_64x4();
        cfg.iq_size = iq;
        cfg.mshr_count = mshr;
        cfg.width = width;
        let (core, _) = run(cfg, &p);
        assert_eq!(
            core.arch_regs(),
            gold.regs(),
            "iq={iq} mshr={mshr} w={width}"
        );
        assert_eq!(core.mem().first_difference(gold.mem()), None);
    }
}

/// Streaming store misses: a store whose line misses must claim an MSHR
/// for its fill just like a load miss, so one MSHR serializes the write
/// stream while eight overlap it. (Store misses used to bypass the MSHR
/// file entirely, giving stores unbounded memory-level parallelism.)
#[test]
fn store_misses_consume_mshrs() {
    let src = r#"
        li r1, 0x100000
        li r3, 7
        li r2, 2048
    loop:
        st r3, 0(r1)
        st r3, 64(r1)
        st r3, 128(r1)
        st r3, 192(r1)
        addi r1, r1, 256
        addi r2, r2, -4
        bne r2, r0, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let mut one = CoreConfig::ss_64x4();
    one.mshr_count = 1;
    let (c_one, _) = run(one, &p);
    let mut eight = CoreConfig::ss_64x4();
    eight.mshr_count = 8;
    let (c_eight, _) = run(eight, &p);
    assert_eq!(c_one.stats().dcache_misses, 2048);
    assert_eq!(c_eight.stats().dcache_misses, 2048);
    assert!(
        c_one.stats().cycles > c_eight.stats().cycles * 2,
        "1 MSHR ({}) must serialize store fills vs 8 ({})",
        c_one.stats().cycles,
        c_eight.stats().cycles
    );
    assert_eq!(c_one.arch_regs(), c_eight.arch_regs());
    assert_eq!(c_one.mem().first_difference(c_eight.mem()), None);
}

/// A load that forwards from an in-flight store still *uses* its cache
/// line, so it must refresh that line's LRU position when the line is
/// resident. The set below holds lines A,B,C,D with A least-recent; a
/// forwarded load to A (timed, via a divide chain, to issue while the
/// store is still queued and after B/C/D filled) must make A most-recent,
/// so the next same-set fill evicts B and a final load of A still hits.
#[test]
fn forwarded_loads_refresh_dcache_lru() {
    // dcache: 64 KB, 4-way, 64 B lines = 256 sets; addresses 0x4000 apart
    // map to the same set. A=r1, B=r1+0x4000, C=r1-0x4000, D=r1-0x8000,
    // E=r9=r1+0x10000 — all set 0.
    let src = r#"
        li r1, 0x100000
        li r9, 0x110000
        li r2, 77
        li r20, 5
        li r21, 1
        li r3, 9
        ld r10, 0(r1)
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        div r20, r20, r21
        st r2, 0(r1)
        ld r11, 16384(r1)
        ld r12, -16384(r1)
        ld r13, -32768(r1)
        div r3, r3, r21
        div r3, r3, r21
        div r3, r3, r21
        div r3, r3, r21
        xor r6, r3, r3
        add r5, r6, r1
        ld r14, 0(r5)
        xor r7, r14, r14
        add r7, r7, r9
        ld r15, 0(r7)
        xor r8, r15, r15
        add r8, r8, r1
        ld r16, 32(r8)
        halt
    "#;
    // Timeline: the ten-divide chain (~120 cycles) keeps the store
    // unretired (and thus forwardable) long past the four-divide chain
    // (~50 cycles) that delays the forwarded load's address; B/C/D fill
    // within the first few cycles. So at the forwarded load's issue the
    // set is {A,B,C,D} with A least-recent, and E's fill picks the victim.
    let p = assemble(src).unwrap();
    let (c, _) = run(CoreConfig::ss_64x4(), &p);
    assert_eq!(c.arch_reg(Reg::new(14)), 77, "load must forward the store");
    assert_eq!(
        c.arch_reg(Reg::new(16)),
        0,
        "final reload reads untouched bytes"
    );
    // Misses: A, B, C, D, E — and *not* the final reload of A, because the
    // forwarded load refreshed A's recency and E evicted B instead.
    assert_eq!(
        c.stats().dcache_misses,
        5,
        "forwarded load must keep A resident (a 6th miss means A was evicted)"
    );
}

/// A flush while an instruction-cache fill is outstanding must not leave
/// the post-flush fetch stream stalled behind the squashed fill timer:
/// recovery resumes fetch immediately (any recovery-pipeline latency is
/// re-imposed explicitly via `stall_fetch_until`).
#[test]
fn flush_clears_squashed_icache_fill_timer() {
    let pad = "nop\n".repeat(40); // pushes `far` onto a distant icache line
    let src = format!("j far\n{pad}far:\nli r2, 20\nhalt");
    let p = assemble(&src).unwrap();
    let mut cfg = CoreConfig::ss_64x4();
    cfg.icache.miss_penalty = 50;
    let mut core = Core::new(cfg, p.initial_memory());
    let mut d = OracleDriver::new(&p);
    let mut retired = Vec::new();
    // Run until the far line's 50-cycle fill is outstanding (miss #1 is
    // the entry line, miss #2 the far line).
    while core.stats().icache_misses < 2 {
        core.cycle(&mut d, &mut retired);
        assert!(core.now() < 1000, "never reached the far-line miss");
    }
    let flushed_at = core.now();
    core.flush();
    // Both lines were allocated when their misses were recorded, so a
    // fresh oracle walk from the entry should now run miss-free — unless
    // the squashed fill timer is still holding fetch.
    let mut d2 = OracleDriver::new(&p);
    while !core.halted() {
        core.cycle(&mut d2, &mut retired);
        assert!(
            core.now() < flushed_at + 400,
            "post-flush fetch never resumed"
        );
    }
    assert_eq!(core.arch_reg(Reg::new(2)), 20);
    assert!(
        core.now() - flushed_at < 25,
        "fetch stayed stalled {} cycles after the flush",
        core.now() - flushed_at
    );
}

// ---- issue selection, as the flight recorder sees it -------------------

/// One traced run, cycle by cycle: the instructions waiting in the issue
/// queue with every producer complete (`ready`, oldest first) and the ones
/// that issued, both read from `Dispatch`/`Issue` events. Dependences are
/// rebuilt from the retired stream the way dispatch renames them: the last
/// writer of each source register and, for a load, the youngest older
/// overlapping store.
struct IssueRun {
    core: Core,
    recs: Vec<Retired>,
    /// `(ready, issued)` for cycles 1, 2, ...
    cycles: Vec<(Vec<usize>, Vec<usize>)>,
}

impl IssueRun {
    /// Runs `p` and checks the selection rule on every cycle: issue takes
    /// the oldest `width` ready instructions, in age order, and only a
    /// memory access (an MSHR deferral) may drop out of that selection.
    fn new(cfg: CoreConfig, p: &Program) -> IssueRun {
        let width = cfg.width;
        let mut core = Core::new(cfg, p.initial_memory());
        core.set_trace(Some(TraceSink::new(StreamId::Single, 1 << 22)));
        let (mut d, mut recs, mut retired) = (OracleDriver::new(p), Vec::new(), Vec::new());
        while !core.halted() {
            core.cycle(&mut d, &mut retired);
            recs.extend_from_slice(&retired);
        }
        let t = core.trace().expect("trace installed");
        assert_eq!(t.dropped(), 0, "the ring must hold the whole run");
        let n = recs.len();
        let (mut dispatched, mut issued, mut done) = (vec![0; n], vec![0; n], vec![0; n]);
        let mut by_cycle: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for e in t.events() {
            let s = e.seq as usize;
            match e.kind {
                EventKind::Dispatch => dispatched[s] = e.cycle,
                EventKind::Issue => {
                    (issued[s], done[s]) = (e.cycle, e.arg);
                    by_cycle.entry(e.cycle).or_default().push(s);
                }
                _ => {}
            }
        }
        let (mut producer, mut stores) = ([None; 64], Vec::new());
        let deps: Vec<Vec<usize>> = (0..n)
            .map(|s| {
                let r = recs[s];
                let mut ds: Vec<usize> = [r.src1, r.src2]
                    .into_iter()
                    .flatten()
                    .filter_map(|(reg, _)| producer[reg.index()])
                    .collect();
                match r.mem {
                    Some(m) if m.is_store => stores.push(s),
                    Some(m) => ds.extend(stores.iter().rev().copied().find(|&st| {
                        let o = recs[st].mem.expect("a store");
                        o.addr < m.addr + m.width.bytes() && m.addr < o.addr + o.width.bytes()
                    })),
                    None => {}
                }
                if let Some((reg, _)) = r.dest {
                    producer[reg.index()] = Some(s);
                }
                ds
            })
            .collect();
        assert!(
            dispatched.iter().chain(&issued).all(|&c| c > 0),
            "events missing"
        );
        // Issue runs before dispatch, so an instruction dispatched in
        // cycle `d` is first seen by issue in cycle `d + 1`.
        let (mut cycles, mut waiting, mut next) = (Vec::new(), Vec::new(), 0);
        for cycle in 1..=issued.iter().copied().max().unwrap_or(0) {
            while next < n && dispatched[next] < cycle {
                waiting.push(next);
                next += 1;
            }
            waiting.retain(|&s| issued[s] >= cycle);
            let ready: Vec<usize> = waiting
                .iter()
                .copied()
                .filter(|&s| deps[s].iter().all(|&d| done[d] <= cycle))
                .collect();
            let now = by_cycle.remove(&cycle).unwrap_or_default();
            assert!(now.is_sorted(), "cycle {cycle}: issue order {now:?}");
            let sel = &ready[..ready.len().min(width)];
            for s in &now {
                assert!(
                    sel.contains(s),
                    "cycle {cycle}: {s} issued; ready {ready:?}"
                );
            }
            for &s in sel.iter().filter(|s| !now.contains(s)) {
                assert!(recs[s].mem.is_some(), "cycle {cycle}: {s} not issued");
            }
            cycles.push((ready, now));
        }
        IssueRun { core, recs, cycles }
    }

    /// Per cycle: the selected instructions that did not issue.
    fn deferred(&self) -> impl Iterator<Item = Vec<usize>> + '_ {
        let width = self.core.config().width;
        self.cycles.iter().map(move |(ready, issued)| {
            ready
                .iter()
                .take(width)
                .copied()
                .filter(|s| !issued.contains(s))
                .collect()
        })
    }
}

/// Independent missing loads (a new line each) between independent ALU
/// work: with one MSHR, loads keep deferring while younger work is ready.
fn miss_stream() -> Program {
    let body = "ld r3, 0(r1)\naddi r5, r5, 1\nld r4, 64(r1)\naddi r6, r6, 2\nxor r7, r5, r6\n\
                ld r8, 128(r1)\nadd r10, r10, r5\nld r9, 192(r1)\naddi r11, r11, 3\nor r12, r11, r7\n";
    let src = format!(
        "li r1, 0x100000\nli r2, 256\nloop:\n{body}addi r1, r1, 256\naddi r2, r2, -4\n\
         bne r2, r0, loop\nhalt"
    );
    assemble(&src).unwrap()
}

fn one_mshr() -> CoreConfig {
    let mut cfg = CoreConfig::ss_64x4();
    cfg.mshr_count = 1;
    cfg
}

#[test]
fn issue_selects_the_oldest_ready_instructions_first() {
    // Chains, stores, forwarded loads, and a multiply whose ten consumers
    // wake together: issue must often choose, even eight wide.
    let fan: String = (0..10)
        .map(|i| format!("addi r{}, r13, {i}\n", 20 + i))
        .collect();
    let p = assemble(&format!(
        "li r1, 0x3000\nli r2, 300\nloop:\nmul r3, r2, r2\nst r3, 0(r1)\nld r4, 0(r1)\n\
         add r5, r5, r4\nslli r6, r5, 1\nxor r5, r5, r6\naddi r7, r2, 1\naddi r8, r2, 2\n\
         add r10, r7, r8\ndiv r12, r10, r7\nmul r13, r2, r3\n{fan}addi r1, r1, 8\n\
         addi r2, r2, -1\nbne r2, r0, loop\nhalt"
    ))
    .unwrap();
    let mut narrow = CoreConfig::ss_64x4();
    (narrow.width, narrow.iq_size) = (2, 6);
    for cfg in [CoreConfig::ss_64x4(), CoreConfig::ss_128x8(), narrow] {
        let run = IssueRun::new(cfg, &p);
        let width = run.core.config().width;
        let contested = run.cycles.iter().filter(|(r, _)| r.len() > width).count();
        assert!(
            contested > 50,
            "width {width}: {contested} cycles with a choice"
        );
    }
}

/// A deferred access keeps its selection slot: with more than `width`
/// ready, exactly `width - deferred` issue, and the younger ready work
/// that would fit the freed slot waits.
#[test]
fn issue_width_counts_selections_before_mshr_deferral() {
    let run = IssueRun::new(one_mshr(), &miss_stream());
    let width = run.core.config().width;
    let mut squeezed = 0;
    for ((ready, issued), deferred) in run.cycles.iter().zip(run.deferred()) {
        if !deferred.is_empty() && ready.len() > width {
            assert_eq!(issued.len(), width - deferred.len());
            squeezed += 1;
        }
    }
    assert!(
        squeezed > 20,
        "{squeezed} cycles deferred with younger work ready"
    );
}

/// A load deferred for want of an MSHR is still ready next cycle and,
/// being older than anything that arrived since, is selected again ahead
/// of every younger ready instruction.
#[test]
fn mshr_deferred_load_is_retried_ahead_of_younger_ready_work() {
    let run = IssueRun::new(one_mshr(), &miss_stream());
    let width = run.core.config().width;
    let mut contested = 0;
    for (c, deferred) in run.deferred().enumerate() {
        let Some((ready, _)) = run.cycles.get(c + 1) else {
            continue;
        };
        for s in deferred {
            assert!(run.recs[s].instr.is_load() || run.recs[s].instr.is_store());
            let pos = ready.iter().position(|&r| r == s);
            assert!(
                pos.is_some_and(|i| i < width),
                "cycle {}: {s} lost its place",
                c + 2
            );
            contested += usize::from(ready.iter().filter(|&&y| y > s).count() >= width);
        }
    }
    assert!(
        contested > 20,
        "{contested} retries competed with a full width"
    );
}

/// Exact issue-queue-full counts: how dispatch sees issue-queue occupancy
/// must not drift.
#[test]
fn iq_full_cycles_are_pinned() {
    let mut got = Vec::new();
    for (iq, mut cfg) in [
        (8, CoreConfig::ss_64x4()),
        (16, CoreConfig::ss_64x4()),
        (32, CoreConfig::ss_128x8()),
    ] {
        cfg.iq_size = iq;
        let s = *IssueRun::new(cfg, &chain_program()).core.stats();
        got.push((iq, s.iq_full_cycles, s.cycles));
    }
    assert_eq!(got, [(8, 5092, 6026), (16, 2538, 3791), (32, 1788, 2247)]);
}
