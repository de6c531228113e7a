//! Timing-core validation: the cycle-level pipeline must retire exactly the
//! functional simulator's dynamic instruction stream (the paper validates
//! its detailed simulator the same way, §4), and its timing behaviour must
//! respond to ILP, branch mispredictions, and cache misses in the expected
//! directions.

use slipstream_cpu::{
    Core, CoreConfig, CoreDriver, DispatchHints, EventKind, FetchItem, OracleDriver, StaticDriver,
    StreamId, TraceSink,
};
use slipstream_isa::{assemble, ArchState, Program, Retired};

fn run_to_halt(
    cfg: CoreConfig,
    program: &Program,
    driver: &mut dyn CoreDriver,
) -> (Core, Vec<Retired>) {
    let mut core = Core::new(cfg, program.initial_memory());
    let mut trace = Vec::new();
    let mut retired = Vec::new();
    let mut guard = 0u64;
    while !core.halted() {
        core.cycle(driver, &mut retired);
        trace.extend_from_slice(&retired);
        guard += 1;
        assert!(guard < 5_000_000, "simulation did not converge");
    }
    (core, trace)
}

fn functional_trace(program: &Program) -> (ArchState, Vec<Retired>) {
    let mut st = ArchState::new(program);
    let trace = st.run(program, 5_000_000).expect("program must halt");
    (st, trace)
}

/// Core retirement stream must equal the functional oracle, record for
/// record, and final architectural state must match.
fn assert_oracle_equivalent(src: &str) {
    let p = assemble(src).expect("test program assembles");
    let (oracle_state, oracle_trace) = functional_trace(&p);
    for (name, driver) in [
        (
            "oracle",
            Box::new(OracleDriver::new(&p)) as Box<dyn CoreDriver>,
        ),
        (
            "static",
            Box::new(StaticDriver::new(&p)) as Box<dyn CoreDriver>,
        ),
    ] {
        let mut driver = driver;
        let (core, trace) = run_to_halt(CoreConfig::ss_64x4(), &p, driver.as_mut());
        assert_eq!(
            trace.len(),
            oracle_trace.len(),
            "[{name}] retired count mismatch"
        );
        for (got, want) in trace.iter().zip(&oracle_trace) {
            assert_eq!(got.pc, want.pc, "[{name}] pc diverged at seq {}", want.seq);
            assert_eq!(
                got.dest, want.dest,
                "[{name}] dest diverged at pc {:#x}",
                want.pc
            );
            assert_eq!(
                got.mem, want.mem,
                "[{name}] mem diverged at pc {:#x}",
                want.pc
            );
            assert_eq!(
                got.taken, want.taken,
                "[{name}] branch diverged at pc {:#x}",
                want.pc
            );
        }
        assert_eq!(
            core.arch_regs(),
            oracle_state.regs(),
            "[{name}] final registers"
        );
    }
}

#[test]
fn equivalence_straight_line() {
    assert_oracle_equivalent("li r1, 3\nli r2, 4\nadd r3, r1, r2\nmul r4, r3, r3\nhalt");
}

#[test]
fn equivalence_loop_with_memory() {
    assert_oracle_equivalent(
        r#"
        li r1, 0x2000      ; base
        li r2, 16          ; count
        li r3, 0           ; i
    fill:
        mul r4, r3, r3
        slli r5, r3, 3
        add r5, r5, r1
        st r4, 0(r5)
        addi r3, r3, 1
        bne r3, r2, fill
        li r3, 0
        li r6, 0
    sum:
        slli r5, r3, 3
        add r5, r5, r1
        ld r4, 0(r5)
        add r6, r6, r4
        addi r3, r3, 1
        bne r3, r2, sum
        halt
        "#,
    );
}

#[test]
fn equivalence_calls_and_branch_mix() {
    assert_oracle_equivalent(
        r#"
        li r10, 25
        li r11, 0
    loop:
        jal r31, parity
        add r11, r11, r1
        addi r10, r10, -1
        bne r10, r0, loop
        halt
    parity:
        andi r1, r10, 1
        beq r1, r0, even
        li r1, 1
        jr r31
    even:
        li r1, 0
        jr r31
        "#,
    );
}

#[test]
fn equivalence_byte_memory_and_overlap() {
    assert_oracle_equivalent(
        r#"
        li r1, 0x3000
        li r2, 0x0102030405060708
        st r2, 0(r1)
        li r3, 0xff
        stb r3, 3(r1)       ; punch a byte into the middle of the word
        ld r4, 0(r1)        ; must see the merged value (forwarding overlap)
        ldb r5, 3(r1)
        ldb r6, 7(r1)
        halt
        "#,
    );
}

#[test]
fn ilp_reaches_dispatch_width() {
    // 4-wide core, loop of fully independent instructions (warm caches):
    // IPC should approach the dispatch width of 4.
    let body = (0..32)
        .map(|i| format!("li r{}, {}\n", 1 + (i % 40), i))
        .collect::<String>();
    let src = format!("li r60, 200\nloop:\n{body}addi r60, r60, -1\nbne r60, r0, loop\nhalt");
    let p = assemble(&src).unwrap();
    let mut d = OracleDriver::new(&p);
    let (core, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut d);
    let ipc = core.stats().ipc();
    assert!(
        ipc > 3.0,
        "independent code should run near width 4, got {ipc:.2}"
    );
}

#[test]
fn dependence_chain_serializes() {
    let body = "addi r1, r1, 1\n".repeat(400);
    let p = assemble(&format!("{body}halt")).unwrap();
    let mut d = OracleDriver::new(&p);
    let (core, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut d);
    let ipc = core.stats().ipc();
    assert!(
        ipc < 1.3,
        "a serial dependence chain cannot exceed 1 IPC, got {ipc:.2}"
    );
    assert!(
        ipc > 0.7,
        "chain should still sustain about 1 IPC, got {ipc:.2}"
    );
}

#[test]
fn wider_core_helps_parallel_code() {
    let body = (0..24)
        .map(|i| format!("addi r{}, r{}, 1\n", 1 + (i % 32), 1 + (i % 32)))
        .collect::<String>();
    let src = format!("li r60, 200\nloop:\n{body}addi r60, r60, -1\nbne r60, r0, loop\nhalt");
    let p = assemble(&src).unwrap();
    let mut d4 = OracleDriver::new(&p);
    let (c4, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut d4);
    let mut d8 = OracleDriver::new(&p);
    let (c8, _) = run_to_halt(CoreConfig::ss_128x8(), &p, &mut d8);
    assert!(
        c8.stats().ipc() > c4.stats().ipc() * 1.3,
        "8-wide ({:.2}) should clearly beat 4-wide ({:.2}) on parallel code",
        c8.stats().ipc(),
        c4.stats().ipc()
    );
}

#[test]
fn static_prediction_pays_for_taken_branches() {
    // A tight loop whose backward branch is always taken: the static
    // driver mispredicts every iteration; the oracle driver never does.
    let src = "li r1, 200\nloop:\naddi r2, r2, 1\naddi r3, r3, 1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
    let p = assemble(src).unwrap();
    let mut ds = StaticDriver::new(&p);
    let (cs, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut ds);
    let mut do_ = OracleDriver::new(&p);
    let (co, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut do_);
    assert_eq!(co.stats().branch_mispredicts, 0);
    assert!(
        cs.stats().branch_mispredicts >= 199,
        "every loop-back mispredicts"
    );
    assert!(
        cs.stats().cycles > co.stats().cycles * 2,
        "mispredictions must cost cycles: static {} vs oracle {}",
        cs.stats().cycles,
        co.stats().cycles
    );
}

#[test]
fn dcache_misses_slow_big_strides() {
    // Touch 1 MiB with a 64-byte stride: every access is a fresh line and
    // the 64 KB cache cannot hold them.
    let src = r#"
        li r1, 0x100000
        li r2, 16384
    loop:
        ld r3, 0(r1)
        addi r1, r1, 64
        addi r2, r2, -1
        bne r2, r0, loop
        halt
    "#;
    let p = assemble(src).unwrap();
    let mut d = OracleDriver::new(&p);
    let (core, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut d);
    assert!(
        core.stats().dcache_misses > 15_000,
        "expected cold misses on nearly every line, got {}",
        core.stats().dcache_misses
    );

    // Same count of loads hitting one line: almost no misses.
    let src_hot = r#"
        li r1, 0x100000
        li r2, 16384
    loop:
        ld r3, 0(r1)
        addi r2, r2, -1
        bne r2, r0, loop
        halt
    "#;
    let p2 = assemble(src_hot).unwrap();
    let mut d2 = OracleDriver::new(&p2);
    let (hot, _) = run_to_halt(CoreConfig::ss_64x4(), &p2, &mut d2);
    assert!(hot.stats().dcache_misses < 8);
    assert!(
        core.stats().cycles * 2 > hot.stats().cycles * 3,
        "stride ({}) should cost at least 1.5x the hot loop ({})",
        core.stats().cycles,
        hot.stats().cycles
    );
}

#[test]
fn store_load_forwarding_returns_fresh_value() {
    let src = r#"
        li r1, 0x4000
        li r2, 1234
        st r2, 0(r1)
        ld r3, 0(r1)
        add r4, r3, r3
        halt
    "#;
    let p = assemble(src).unwrap();
    let mut d = OracleDriver::new(&p);
    let (core, trace) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut d);
    let ld = trace.iter().find(|r| r.instr.is_load()).unwrap();
    assert_eq!(ld.dest.unwrap().1, 1234);
    assert_eq!(core.arch_reg(slipstream_isa::Reg::new(4)), 2468);
}

/// A driver that wraps the oracle and claims every operand value is
/// predicted: models a perfect value-prediction feed (the R-stream's best
/// case) and must never run slower than the plain oracle.
struct ValuePredictedOracle(OracleDriver);

impl CoreDriver for ValuePredictedOracle {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        self.0.next_fetch()
    }
    fn on_redirect(&mut self, resolved: &Retired, meta: u64) {
        self.0.on_redirect(resolved, meta);
    }
    fn on_dispatch(&mut self, _rec: &Retired, _meta: u64) -> DispatchHints {
        DispatchHints {
            src1_predicted: true,
            src2_predicted: true,
        }
    }
}

#[test]
fn value_prediction_breaks_dependence_chains() {
    // Serial chain through r1 (addi 1 + mul 3 = 4 cycles per iteration)
    // inside a loop so caches stay warm.
    let src = "li r60, 200\nloop:\naddi r1, r1, 1\nmul r1, r1, r1\naddi r60, r60, -1\nbne r60, r0, loop\nhalt";
    let p = assemble(src).unwrap();
    let mut plain = OracleDriver::new(&p);
    let (c_plain, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut plain);
    let mut vp = ValuePredictedOracle(OracleDriver::new(&p));
    let (c_vp, t_vp) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut vp);
    // Functional results are unchanged...
    assert_eq!(t_vp.len(), 200 * 4 + 2);
    // ...but the serial mul/addi chain no longer limits timing.
    assert!(
        c_vp.stats().cycles * 2 < c_plain.stats().cycles,
        "value prediction should at least halve the chain's runtime ({} vs {})",
        c_vp.stats().cycles,
        c_plain.stats().cycles
    );
}

/// Retire-capacity gating (delay-buffer back-pressure) slows the core but
/// cannot change results.
struct GatedOracle(OracleDriver);

impl CoreDriver for GatedOracle {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        self.0.next_fetch()
    }
    fn on_redirect(&mut self, resolved: &Retired, meta: u64) {
        self.0.on_redirect(resolved, meta);
    }
    fn retire_capacity(&mut self) -> usize {
        1
    }
}

#[test]
fn retire_gating_throttles_but_preserves_results() {
    let body = (0..200)
        .map(|i| format!("li r{}, {}\n", 1 + (i % 40), i))
        .collect::<String>();
    let p = assemble(&format!("{body}halt")).unwrap();
    let (oracle_state, _) = functional_trace(&p);
    let mut gated = GatedOracle(OracleDriver::new(&p));
    let (core, trace) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut gated);
    assert_eq!(core.arch_regs(), oracle_state.regs());
    assert_eq!(trace.len() as u64, oracle_state.retired());
    assert!(
        core.stats().ipc() < 1.05,
        "retire gate of 1 caps IPC at about 1, got {:.2}",
        core.stats().ipc()
    );
}

#[test]
fn flush_discards_inflight_and_unhalts() {
    let body = "addi r1, r1, 1\n".repeat(50);
    let p = assemble(&format!("{body}halt")).unwrap();
    let mut d = OracleDriver::new(&p);
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    // Enough cycles to ride out the cold I-cache miss and fill the window.
    let mut retired = Vec::new();
    for _ in 0..20 {
        core.cycle(&mut d, &mut retired);
    }
    assert!(core.in_flight() > 0, "pipeline should have filled");
    let arch_before = *core.arch_regs();
    core.flush();
    assert_eq!(core.in_flight(), 0);
    assert_eq!(
        core.arch_regs(),
        &arch_before,
        "flush must not touch architectural state"
    );
    assert!(!core.halted());
    assert_eq!(core.stats().flushes, 1);
}

#[test]
fn set_regs_overwrites_architectural_state() {
    let p = assemble("halt").unwrap();
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    let mut regs = [7u64; slipstream_isa::NUM_REGS];
    regs[0] = 99; // must be forced back to zero
    core.flush();
    core.set_regs(&regs);
    assert_eq!(core.arch_regs()[1], 7);
    assert_eq!(core.arch_regs()[0], 0, "r0 stays hardwired to zero");
}

#[test]
fn icache_cold_miss_costs_startup_cycles() {
    let p = assemble("li r1, 1\nhalt").unwrap();
    let mut d = OracleDriver::new(&p);
    let (core, _) = run_to_halt(CoreConfig::ss_64x4(), &p, &mut d);
    assert!(core.stats().icache_misses >= 1);
    // 12-cycle miss + pipeline depth: tiny programs still take a while.
    assert!(core.stats().cycles >= 12);
}

/// Wraps the oracle, idles (returns `None`) on every seventh call, and
/// logs what this cycle's calls returned: `true` for an item.
struct FetchLog(OracleDriver, u64, Vec<bool>);

impl CoreDriver for FetchLog {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        self.1 += 1;
        let item = (!self.1.is_multiple_of(7))
            .then(|| self.0.next_fetch())
            .flatten();
        self.2.push(item.is_some());
        item
    }
    fn on_redirect(&mut self, resolved: &Retired, meta: u64) {
        self.0.on_redirect(resolved, meta);
    }
}

/// The core keeps what it pulled but could not fetch yet (fetch queue
/// full, icache miss, block boundary) and asks the driver for more only
/// once that is all fetched. It then pulls a whole group: `fetch_width`
/// items, or fewer only when the driver idles.
#[test]
fn core_pulls_a_fetch_group_only_when_its_buffer_is_empty() {
    let chain = "slli r3, r2, 1\nxor r2, r2, r3\naddi r2, r2, 7\n".repeat(3);
    let p = assemble(&format!(
        "li r1, 200\nloop:\nmv r2, r1\n{chain}li r10, 1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt"
    ))
    .unwrap();
    let mut narrow = CoreConfig::ss_64x4();
    (narrow.fetch_width, narrow.fetch_queue) = (4, 6);
    for cfg in [CoreConfig::ss_64x4(), CoreConfig::ss_128x8(), narrow] {
        let fw = cfg.fetch_width as u64;
        let mut core = Core::new(cfg, p.initial_memory());
        let mut d = FetchLog(OracleDriver::new(&p), 0, Vec::new());
        let (mut supplied, mut retired, mut leftover_cycles) = (0, Vec::new(), 0);
        while !core.halted() {
            assert!(core.now() < 1_000_000, "did not halt");
            let before = core.stats().fetched;
            let held = supplied - before;
            d.2.clear();
            core.cycle(&mut d, &mut retired);
            supplied += d.2.iter().filter(|&&some| some).count() as u64;
            let fetched = core.stats().fetched - before;
            leftover_cycles += u32::from(held > 0);
            assert!(
                d.2.is_empty() || fetched >= held,
                "pulled with {held} unfetched"
            );
            // Each group ends at an idle `None` or at `fetch_width` items.
            let short =
                d.2.iter()
                    .fold(0, |n, &some| if some { (n + 1) % fw } else { 0 });
            assert_eq!(
                short,
                0,
                "cycle {}: a group stopped short ({:?})",
                core.now(),
                d.2
            );
            assert!(supplied - core.stats().fetched <= fw);
        }
        assert!(
            leftover_cycles > 50,
            "{leftover_cycles} cycles began with unfetched items"
        );
    }
}

/// Per-instruction cycles of a traced oracle run, indexed by dispatch
/// sequence number.
struct Cycles {
    dispatch: Vec<u64>,
    issue: Vec<u64>,
    retire: Vec<u64>,
}

fn traced_run(cfg: CoreConfig, p: &Program) -> (Core, Vec<Retired>, Cycles) {
    let mut core = Core::new(cfg, p.initial_memory());
    core.set_trace(Some(TraceSink::new(StreamId::Single, 1 << 20)));
    let mut d = OracleDriver::new(p);
    let (mut recs, mut retired) = (Vec::new(), Vec::new());
    while !core.halted() {
        assert!(core.now() < 100_000, "did not halt");
        core.cycle(&mut d, &mut retired);
        recs.extend_from_slice(&retired);
    }
    let t = core.trace().expect("trace installed");
    assert_eq!(t.dropped(), 0, "the ring must hold the whole run");
    let n = recs.len();
    let mut c = Cycles {
        dispatch: vec![0; n],
        issue: vec![0; n],
        retire: vec![0; n],
    };
    for e in t.events() {
        let slot = match e.kind {
            EventKind::Dispatch => &mut c.dispatch,
            EventKind::Issue => &mut c.issue,
            EventKind::Retire => &mut c.retire,
            _ => continue,
        };
        slot[e.seq as usize] = e.cycle;
    }
    (core, recs, c)
}

/// Consumers of a producer that retired before they were first scanned
/// issue the cycle after dispatch. The producer's completion slot is
/// reused by a younger instruction, dispatched with some of them, that
/// waits on a divide: reading that slot would hold them back.
#[test]
fn consumers_of_a_retired_producer_issue_the_cycle_after_dispatch() {
    let cfg = CoreConfig::ss_64x4();
    let ring = cfg.rob_size.next_power_of_two();
    // seq 5 produces r5; seqs ring+2 ..= ring+4 consume it; seq ring+5
    // owns seq 5's slot and cannot issue until the divide completes. All
    // four sit on one 16-instruction icache line, so they arrive together.
    let (producer, reuser) = (5, ring + 5);
    let li = |i: usize| format!("li r{}, {i}\n", 10 + i % 40);
    let head = (0..producer).map(li).collect::<String>();
    let filler = (producer + 1..reuser - 4).map(li).collect::<String>();
    let src = format!(
        "{head}li r5, 7\n{filler}div r8, r5, r5\nadd r6, r5, r5\nadd r7, r5, r5\n\
         add r9, r5, r5\nadd r60, r8, r8\nhalt"
    );
    let p = assemble(&src).unwrap();
    let (core, recs, c) = traced_run(cfg, &p);
    assert_eq!(core.arch_reg(slipstream_isa::Reg::new(9)), 14);
    assert_eq!(recs[reuser].pc, p.entry() + 4 * reuser as u64);
    let consumers = reuser - 3..reuser;
    // The edge this test pins: the producer retired before each consumer
    // dispatched, and the slot's new owner dispatched with at least one
    // of them and issued only later.
    assert!(c.retire[producer] < c.dispatch[consumers.start]);
    assert!(consumers
        .clone()
        .any(|s| c.dispatch[s] == c.dispatch[reuser]));
    assert!(c.issue[reuser] > c.dispatch[reuser] + 1);
    for s in consumers {
        assert_eq!(
            c.issue[s],
            c.dispatch[s] + 1,
            "consumer seq {s} dispatched at {} (slot owner at {})",
            c.dispatch[s],
            c.dispatch[reuser]
        );
    }
}

/// A load whose older overlapping store retires between the load's
/// dispatch and its issue reads the cache, not the store queue: with the
/// store's line evicted meanwhile, the load misses.
#[test]
fn a_load_issued_after_its_store_retired_takes_the_cache_path() {
    let mut cfg = CoreConfig::ss_64x4();
    // One 64-byte line: any other line evicts the store's.
    (cfg.dcache.bytes, cfg.dcache.assoc) = (64, 1);
    let src = r#"
        li r1, 0x4000
        li r2, 77
        st r2, 0(r1)
        ld r4, 0x1000(r1)
        div r7, r2, r2
        addi r7, r7, -1
        add r8, r1, r7
        ld r3, 0(r8)
        halt
    "#;
    let p = assemble(src).unwrap();
    let (core, recs, c) = traced_run(cfg, &p);
    let (store, load) = (2, 7);
    assert!(recs[store].instr.is_store() && recs[load].instr.is_load());
    assert_eq!(recs[load].dest.unwrap().1, 77, "the value came at dispatch");
    assert!(c.dispatch[load] < c.retire[store] && c.retire[store] < c.issue[load]);
    // The store's write-allocate miss, the evicting load's, and the load's.
    assert_eq!(core.stats().dcache_misses, 3);
}

/// An 8-byte store at -4 wraps past the top of the address space; the
/// load of the same address still sees the memory dependence.
#[test]
fn a_store_straddling_the_top_of_memory_feeds_its_load() {
    let src = "li r1, -4\nli r2, 77\nst r2, 0(r1)\nld r3, 0(r1)\nhalt";
    let p = assemble(src).unwrap();
    let (core, _, c) = traced_run(CoreConfig::ss_64x4(), &p);
    assert_eq!(core.arch_reg(slipstream_isa::Reg::new(3)), 77);
    assert!(c.issue[3] > c.issue[2], "the load waits for the store");
    assert_oracle_equivalent(src);
}
