//! Component-level tests for the slipstream front ends: the trace-driven
//! fetch engine (baseline and A-stream modes) and the delay-buffer-driven
//! R-stream engine, each exercised against a real core.

use slipstream_core::{
    DelayEntry, IrTable, RStreamDriver, Reason, RemovalInfo, RemovalPolicy, TraceFrontEnd,
};
use slipstream_cpu::{Core, CoreConfig};
use slipstream_isa::{assemble, ArchState, MemWidth, Program};
use slipstream_predict::{walk, TracePredictorConfig, WalkEnd, MAX_TRACE_LEN};

fn loopy_program(iters: u64) -> Program {
    assemble(&format!(
        "li r1, {iters}\nloop:\nadd r2, r2, r1\nslli r3, r2, 1\nxor r2, r2, r3\naddi r1, r1, -1\nbne r1, r0, loop\nhalt"
    ))
    .unwrap()
}

fn run_with_front_end(p: &Program, mut fe: TraceFrontEnd) -> (Core, TraceFrontEnd) {
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut fe, &mut retired);
        fe.apply_training();
    }
    (core, fe)
}

#[test]
fn baseline_front_end_matches_oracle_and_learns() {
    let p = loopy_program(2000);
    let mut gold = ArchState::new(&p);
    gold.run_quiet(&p, 1_000_000).unwrap();
    let fe = TraceFrontEnd::baseline(&p, TracePredictorConfig::default());
    let (core, fe) = run_with_front_end(&p, fe);
    assert_eq!(core.arch_regs(), gold.regs());
    let s = fe.spec.stats;
    assert!(
        s.traces_predicted > s.traces_fallback * 5,
        "a steady loop must be served by predictions ({} pred vs {} fallback)",
        s.traces_predicted,
        s.traces_fallback
    );
    assert!(
        s.traces_correct as f64 > s.traces_committed as f64 * 0.9,
        "steady-loop trace accuracy should exceed 90% ({}/{})",
        s.traces_correct,
        s.traces_committed
    );
}

#[test]
fn baseline_emits_nothing_astream_emits_everything() {
    let p = loopy_program(50);
    let fe = TraceFrontEnd::baseline(&p, TracePredictorConfig::default());
    let (_, fe) = run_with_front_end(&p, fe);
    assert!(
        fe.out_entries.is_empty(),
        "baseline mode must not fill the delay buffer"
    );
    assert!(fe.out_commits.is_empty());

    let fe = TraceFrontEnd::a_stream(
        &p,
        TracePredictorConfig::default(),
        IrTable::new(1 << 16, 32),
        true,
    );
    let (core, fe) = run_with_front_end(&p, fe);
    let executed = fe.out_entries.iter().filter(|e| !e.is_skipped()).count() as u64;
    assert_eq!(
        executed,
        core.stats().retired,
        "A-stream mode must emit one delay entry per retired instruction"
    );
    assert!(
        !fe.out_commits.is_empty(),
        "every completed trace must produce a commit record"
    );
    // Entries must be a contiguous path: each entry's next_pc is the next
    // entry's pc.
    for pair in fe.out_entries.windows(2) {
        assert_eq!(
            pair[0].next_pc, pair[1].pc,
            "broken path at {:#x}",
            pair[0].pc
        );
    }
}

/// Asserts every committed id walks back through the text to a path that
/// is 32 slots long or ends at a `jr`/`halt`, and returns how many ended
/// early.
fn assert_canonical_boundaries(p: &Program, fe: &TraceFrontEnd) -> usize {
    let mut pcs = Vec::new();
    let mut early = 0;
    for c in &fe.out_commits {
        let (id, end) = walk(p, c.id.start_pc, c.id.outcomes, c.id.len, &mut pcs);
        assert_eq!(id, c.id, "committed id walks back through the text");
        if c.id.len as usize != MAX_TRACE_LEN {
            assert_eq!(end, WalkEnd::Terminator, "{:?} closed early", c.id);
            early += 1;
        }
    }
    early
}

#[test]
fn canonical_trace_boundaries_are_32_or_terminators() {
    let a_stream = |p: &Program| {
        let fe = TraceFrontEnd::a_stream(
            p,
            TracePredictorConfig::default(),
            IrTable::new(1 << 16, 32),
            false,
        );
        run_with_front_end(p, fe).1
    };
    // A call in the loop body: every `jr` closes a trace early.
    let calls = assemble(
        "li r1, 300\nloop:\njal r31, f\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n\
         f:\naddi r2, r2, 3\njr r31",
    )
    .unwrap();
    assert!(assert_canonical_boundaries(&calls, &a_stream(&calls)) >= 300);

    let p = loopy_program(3000);
    let fe = a_stream(&p);
    assert_eq!(
        assert_canonical_boundaries(&p, &fe),
        1,
        "only halt ends early"
    );
    // In a long run, almost all traces must be full-length (canonical
    // policy: only jr/halt end a trace early).
    let full = fe.out_commits.iter().filter(|c| c.id.len == 32).count();
    assert!(
        full * 10 > fe.out_commits.len() * 9,
        "straight loops must produce full 32-instruction traces ({}/{})",
        full,
        fe.out_commits.len()
    );
}

#[test]
fn front_end_commits_cover_the_whole_stream_despite_mispredicts() {
    // Data-dependent branches force redirects; the canonical commit stream
    // must still cover every retired instruction exactly once, in order.
    let p = assemble(
        r#"
        li r1, 1500
        li r2, 0x9e3779b9
        li r20, 6364136223846793005
    loop:
        mul r2, r2, r20
        addi r2, r2, 1442695040888963407
        srli r3, r2, 40
        andi r3, r3, 1
        beq r3, r0, skip       ; ~50% taken: constant redirect pressure
        addi r4, r4, 1
        j next
    skip:
        addi r5, r5, 1
        j next
    next:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
        "#,
    )
    .unwrap();
    let mut gold = ArchState::new(&p);
    gold.run_quiet(&p, 1_000_000).unwrap();
    let fe = TraceFrontEnd::a_stream(
        &p,
        TracePredictorConfig::default(),
        IrTable::new(1 << 16, 32),
        true,
    );
    let (core, fe) = run_with_front_end(&p, fe);
    assert_eq!(
        core.arch_regs(),
        gold.regs(),
        "redirect-heavy run stays correct"
    );
    let committed_slots: u64 = fe.out_commits.iter().map(|c| c.id.len as u64).sum();
    let entries = fe.out_entries.len() as u64;
    assert_eq!(
        committed_slots, entries,
        "commit records must tile the delay stream exactly"
    );
    assert_eq!(entries, core.stats().retired, "no removal configured yet");
    assert!(
        core.stats().branch_mispredicts > 500,
        "the random branch must actually mispredict ({})",
        core.stats().branch_mispredicts
    );
}

/// Build delay entries by functionally executing a program, then feed them
/// to an R-stream driver on a real core: it must retire the exact stream
/// with zero mispredictions and flag nothing.
#[test]
fn rstream_replays_a_faithful_delay_stream() {
    let p = loopy_program(400);
    let mut st = ArchState::new(&p);
    let trace = st.run(&p, 1_000_000).unwrap();
    let mut drv = RStreamDriver::new(p.entry(), 100_000, 100_000, RemovalPolicy::all(), 8);
    for (i, rec) in trace.iter().enumerate() {
        drv.delay.push(DelayEntry::executed(
            rec,
            (i + 1) % 32 == 0 || rec.is_halt(),
        ));
    }
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut drv, &mut retired);
    }
    assert!(drv.ir_misp.is_none(), "a faithful stream never diverges");
    assert_eq!(core.stats().retired, trace.len() as u64);
    assert_eq!(
        core.stats().branch_mispredicts,
        0,
        "R-stream never mispredicts"
    );
    assert_eq!(core.arch_regs(), st.regs());
    assert!(
        drv.value_hints > 0,
        "matching values must be used as predictions"
    );
}

/// Corrupt one value in the delay stream: the R-stream must flag a value
/// mismatch at exactly that instruction and freeze.
#[test]
fn rstream_flags_corrupted_delay_stream() {
    let p = loopy_program(100);
    let mut st = ArchState::new(&p);
    let trace = st.run(&p, 1_000_000).unwrap();
    let mut drv = RStreamDriver::new(p.entry(), 100_000, 100_000, RemovalPolicy::all(), 8);
    for (i, rec) in trace.iter().enumerate() {
        let mut rec = *rec;
        if i == 57 {
            // The "A-stream" went wrong here.
            rec.dest = rec.dest.map(|(r, v)| (r, v ^ 4));
        }
        drv.delay.push(DelayEntry::executed(
            &rec,
            (i + 1) % 32 == 0 || rec.is_halt(),
        ));
    }
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    let mut retired = Vec::new();
    for _ in 0..10_000 {
        core.cycle(&mut drv, &mut retired);
        if drv.ir_misp.is_some() {
            break;
        }
    }
    match drv.ir_misp {
        Some(slipstream_core::IrMispKind::ValueMismatch { pc }) => {
            assert_eq!(pc, trace[57].pc, "flag lands on the corrupted instruction");
        }
        other => panic!("expected a value mismatch, got {other:?}"),
    }
    // Frozen: no further fetch.
    let before = core.stats().dispatched;
    for _ in 0..50 {
        core.cycle(&mut drv, &mut retired);
    }
    assert!(
        core.stats().dispatched <= before + 64,
        "a frozen driver must starve the core"
    );
}

/// Skipped entries carry no data and are exempt from checking, but still
/// traverse the pipeline and reach the detector.
#[test]
fn rstream_executes_skip_markers_without_checking() {
    let p = assemble("li r1, 7\nli r2, 0x5000\nst r1, 0(r2)\nst r1, 0(r2)\nld r3, 0(r2)\nhalt")
        .unwrap();
    let mut st = ArchState::new(&p);
    let trace = st.run(&p, 1_000).unwrap();
    let mut drv = RStreamDriver::new(p.entry(), 1_000, 1_000, RemovalPolicy::all(), 8);
    for (i, rec) in trace.iter().enumerate() {
        // Mark the second (silent) store as skipped-by-A: no values.
        if i == 3 {
            drv.delay.push(DelayEntry::skipped(
                rec.pc,
                rec.instr,
                rec.next_pc,
                false,
                Reason::NONE,
            ));
        } else {
            drv.delay.push(DelayEntry::executed(rec, rec.is_halt()));
        }
    }
    let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
    let mut retired = Vec::new();
    while !core.halted() {
        core.cycle(&mut drv, &mut retired);
    }
    assert!(drv.ir_misp.is_none());
    assert_eq!(
        core.stats().retired,
        trace.len() as u64,
        "skips still execute in R"
    );
    drv.recovery.latch_undo(&drv.delay);
    assert_eq!(
        drv.recovery.tracked(),
        1,
        "a skipped store begins do-tracking"
    );
    drv.recovery.remove_do(0x5000, MemWidth::Word);
    assert_eq!(
        drv.recovery.tracked(),
        0,
        "the executed companion store has left the delay buffer: nothing to undo"
    );
}

#[test]
fn removal_info_reasons_survive_the_table() {
    let mut info = RemovalInfo::empty();
    info.ir_vec = 0b11;
    info.reasons[0] = Reason::SV;
    info.reasons[1] = Reason::PROP.union(Reason::SV);
    let mut table = IrTable::new(16, 1);
    let id = slipstream_predict::TraceId {
        start_pc: 0x40,
        outcomes: 0,
        branch_count: 0,
        len: 8,
    };
    table.observe(7, id, info);
    table.observe(7, id, info);
    let got = table.removal_for(7, &id).expect("confident");
    assert_eq!(got.reasons[0], Reason::SV);
    assert!(got.reasons[1].is_propagated());
}
