//! End-to-end slipstream correctness: whatever the A-stream skips or
//! corrupts, the R-stream's final architectural state must equal the
//! functional oracle's, every recovery must leave the two contexts
//! bit-identical (strict mode), and the headline behaviours — instruction
//! removal, value communication, IR-misprediction handling — must actually
//! occur.

use slipstream_core::{
    golden_state, run_fault_experiment, run_superscalar, ExecMode, FaultOutcome, FaultTarget,
    RemovalPolicy, SlipstreamConfig, SlipstreamProcessor,
};
use slipstream_cpu::FaultSpec;
use slipstream_isa::{assemble, Program};

const MAX_CYCLES: u64 = 3_000_000;

fn run_slipstream(program: &Program, cfg: SlipstreamConfig) -> SlipstreamProcessor {
    let mut proc = SlipstreamProcessor::new(cfg, program);
    proc.set_strict(true);
    assert!(proc.run(MAX_CYCLES), "slipstream run must complete");
    proc
}

fn assert_matches_oracle(proc: &SlipstreamProcessor, program: &Program) {
    let golden = golden_state(program, 10_000_000);
    assert_eq!(
        proc.r_core().arch_regs(),
        golden.regs(),
        "R-stream final registers must match the functional oracle"
    );
    assert_eq!(
        proc.r_core().mem().first_difference(golden.mem()),
        None,
        "R-stream final memory must match the functional oracle"
    );
}

/// A loop with many silent stores and dead writes — prime removal fodder.
fn removable_heavy_program(iters: u64) -> Program {
    assemble(&format!(
        r#"
        li r1, 0x10000      ; state block base
        li r2, {iters}      ; iterations
        li r9, 42
        st r9, 0(r1)        ; state word A = 42 (never changes)
        st r9, 8(r1)        ; state word B = 42 (never changes)
    loop:
        li r3, 42           ; chain feeding silent stores
        st r3, 0(r1)        ; silent store
        st r3, 8(r1)        ; silent store
        li r4, 7            ; dead write (overwritten before use)
        li r4, 8
        add r5, r4, r0      ; keeps second li alive
        addi r2, r2, -1
        bne r2, r0, loop    ; highly predictable branch
        ld r6, 0(r1)
        ld r7, 8(r1)
        add r8, r6, r7
        halt
        "#
    ))
    .expect("program assembles")
}

/// A compute loop with no removable work at all (every value is live).
fn dense_program(iters: u64) -> Program {
    assemble(&format!(
        r#"
        li r1, {iters}
        li r2, 1
        li r3, 0
    loop:
        mul r2, r2, r1
        xor r2, r2, r1
        add r3, r3, r2
        addi r1, r1, -1
        bne r1, r0, loop
        halt
        "#
    ))
    .expect("program assembles")
}

#[test]
fn slipstream_matches_oracle_on_simple_loop() {
    let p = dense_program(500);
    let proc = run_slipstream(&p, SlipstreamConfig::cmp_2x64x4());
    assert_matches_oracle(&proc, &p);
    let s = proc.stats();
    assert!(s.halted);
    assert_eq!(s.r_retired, 3 + 500 * 5 + 1);
}

/// 17 consumers read one in-trace producer through both sources: 34 reads,
/// more than a trace has slots, must leave every run clean.
#[test]
fn same_source_fanout_runs_under_every_fuzz_key() {
    let p = assemble(&format!("li r1, 5\n{}halt", "add r2, r1, r1\n".repeat(17)))
        .expect("program assembles");
    let golden = golden_state(&p, 10_000);
    let default_threshold = SlipstreamConfig::cmp_2x64x4().confidence_threshold;
    for (removal, confidence_threshold) in [
        (RemovalPolicy::all(), default_threshold),
        (RemovalPolicy::branches_only(), default_threshold),
        (RemovalPolicy::none(), default_threshold),
        (RemovalPolicy::all(), 1),
    ] {
        let cfg = SlipstreamConfig {
            removal,
            confidence_threshold,
            ..SlipstreamConfig::cmp_2x64x4()
        };
        let mut proc = SlipstreamProcessor::new(cfg, &p);
        proc.set_strict(true);
        proc.enable_online_check();
        assert!(proc.run(MAX_CYCLES), "{removal:?}: run must halt");
        assert_eq!(proc.r_core().arch_regs(), golden.regs(), "{removal:?}");
        assert_eq!(proc.r_core().mem().first_difference(golden.mem()), None);
    }
}

/// A word store at -4 covers the top four bytes of the address space and
/// the bottom four; the load of the same address depends on it. Both
/// streams' memory-dependence tests wrap with the address, under strict
/// mode and the online checker, in the serial and windowed schedulers.
#[test]
fn a_store_straddling_the_top_of_memory_runs_in_every_scheduler() {
    let p = assemble("li r1, -4\nli r2, 77\nst r2, 0(r1)\nld r3, 0(r1)\nhalt").unwrap();
    for mode in [ExecMode::Serial, ExecMode::Windowed] {
        let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &p);
        proc.set_strict(true);
        proc.enable_online_check();
        assert!(proc.run_mode(mode, MAX_CYCLES), "{mode:?}: run must halt");
        assert_matches_oracle(&proc, &p);
        assert_eq!(proc.r_core().arch_regs()[3], 77, "{mode:?}");
    }
}

#[test]
fn slipstream_matches_oracle_with_heavy_removal() {
    let p = removable_heavy_program(800);
    let proc = run_slipstream(&p, SlipstreamConfig::cmp_2x64x4());
    assert_matches_oracle(&proc, &p);
    let s = proc.stats();
    assert!(
        s.skipped > 500,
        "a removable-heavy loop must see substantial removal, got {} skips",
        s.skipped
    );
    assert!(s.removal_fraction > 0.05, "got {}", s.removal_fraction);
    assert!(
        s.a_retired < s.r_retired,
        "the A-stream must retire fewer instructions ({} vs {})",
        s.a_retired,
        s.r_retired
    );
}

#[test]
fn removal_covers_all_three_trigger_classes() {
    let p = removable_heavy_program(800);
    let proc = run_slipstream(&p, SlipstreamConfig::cmp_2x64x4());
    let s = proc.stats();
    let mut saw_br = false;
    let mut saw_sv = false;
    let mut saw_prop = false;
    for (reason, n) in &s.skipped_by_reason {
        assert!(*n > 0);
        if reason.is_propagated() {
            saw_prop = true;
        } else if reason.contains(slipstream_core::Reason::BR) {
            saw_br = true;
        } else if reason.contains(slipstream_core::Reason::SV) {
            saw_sv = true;
        }
    }
    assert!(saw_br, "branch removal expected: {:?}", s.skipped_by_reason);
    assert!(
        saw_sv,
        "silent-store removal expected: {:?}",
        s.skipped_by_reason
    );
    assert!(
        saw_prop,
        "chain removal expected: {:?}",
        s.skipped_by_reason
    );
}

#[test]
fn branches_only_policy_restricts_reasons() {
    let p = removable_heavy_program(600);
    let mut cfg = SlipstreamConfig::cmp_2x64x4();
    cfg.removal = RemovalPolicy::branches_only();
    let proc = run_slipstream(&p, cfg);
    assert_matches_oracle(&proc, &p);
    let s = proc.stats();
    assert!(s.skipped > 0, "branch removal must still occur");
    for (reason, _) in &s.skipped_by_reason {
        assert!(
            !reason.contains(slipstream_core::Reason::SV)
                && !reason.contains(slipstream_core::Reason::WW),
            "only BR-class removal allowed, got {reason}"
        );
    }
}

#[test]
fn ar_smt_mode_removes_nothing_but_still_helps() {
    let p = dense_program(400);
    let mut cfg = SlipstreamConfig::cmp_2x64x4();
    cfg.removal = RemovalPolicy::none();
    let proc = run_slipstream(&p, cfg);
    assert_matches_oracle(&proc, &p);
    let s = proc.stats();
    assert_eq!(s.skipped, 0);
    assert_eq!(s.ir_mispredictions, 0, "full redundancy never diverges");
    assert!(
        s.value_hints > 0,
        "the R-stream still consumes value predictions"
    );
    assert_eq!(s.a_retired, s.r_retired);
}

#[test]
fn forced_ir_mispredictions_recover_correctly() {
    // A branch that is stable for 120 iterations, then flips every 3rd
    // iteration: with a low confidence threshold the IR-predictor will
    // remove it while stable and mispredict when the behaviour changes.
    let p = assemble(
        r#"
        li r1, 400
        li r5, 0x10000
    loop:
        andi r2, r1, 255
        slti r3, r2, 120     ; phase selector
        beq r3, r0, stable
        ; "unstable" phase: branch direction depends on r1 % 3
        li r4, 3
        rem r6, r1, r4
        beq r6, r0, skipwork
        j work
    stable:
        j work
    skipwork:
        addi r7, r7, 1
        j next
    work:
        addi r8, r8, 1
        st r8, 0(r5)
    next:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
        "#,
    )
    .unwrap();
    let mut cfg = SlipstreamConfig::cmp_2x64x4();
    cfg.confidence_threshold = 4; // aggressive removal → forced mispredictions
    let proc = run_slipstream(&p, cfg);
    assert_matches_oracle(&proc, &p);
    let s = proc.stats();
    assert!(s.skipped > 0, "aggressive threshold must remove something");
    // Recovery machinery must have been exercised (strict mode verified
    // context equality after each one).
    assert!(
        s.ir_mispredictions > 0,
        "expected forced IR-mispredictions, got {:?}",
        s.ir_mispredictions
    );
    assert!(
        s.avg_ir_penalty >= proc.config().min_recovery_latency() as f64,
        "penalty ({}) must be at least the minimum recovery latency",
        s.avg_ir_penalty
    );
}

#[test]
fn each_core_dispatches_at_most_width_instructions_a_cycle() {
    // Fault campaigns fork a site while its core's `next_seq()` is more
    // than one stride's worth of `width`-wide dispatch short of the site,
    // so this bound must hold on both cores, across IR-mispredictions and
    // recoveries (m88ksim and perl have both).
    for bench in ["m88ksim", "perl"] {
        let program = slipstream_workloads::benchmark(bench, 0.05)
            .expect("known benchmark")
            .program;
        let cfg = SlipstreamConfig::cmp_2x64x4();
        let width = cfg.core.width as u64;
        let mut proc = SlipstreamProcessor::new(cfg, &program);
        let mut seqs = (0, 0);
        while !proc.halted() && proc.cycles() < MAX_CYCLES {
            proc.step();
            let now = (proc.a_core().next_seq(), proc.r_core().next_seq());
            assert!(
                now.0 >= seqs.0 && now.0 - seqs.0 <= width,
                "{bench}: A-core next_seq {} -> {} at cycle {}",
                seqs.0,
                now.0,
                proc.cycles()
            );
            assert!(
                now.1 >= seqs.1 && now.1 - seqs.1 <= width,
                "{bench}: R-core next_seq {} -> {} at cycle {}",
                seqs.1,
                now.1,
                proc.cycles()
            );
            seqs = now;
        }
        assert!(proc.halted(), "{bench} halts");
        assert!(proc.stats().ir_mispredictions > 0, "{bench} recovers");
    }
}

#[test]
fn slipstream_beats_or_matches_baseline_on_removable_code() {
    let p = removable_heavy_program(3000);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let base = run_superscalar(cfg.core.clone(), cfg.trace_pred, &p, MAX_CYCLES);
    assert!(base.halted);
    let proc = run_slipstream(&p, cfg);
    let s = proc.stats();
    assert!(
        s.ipc > base.ipc() * 0.95,
        "slipstream ({:.3} IPC) should not fall behind SS(64x4) ({:.3} IPC) here",
        s.ipc,
        base.ipc()
    );
}

#[test]
fn memory_heavy_program_with_removal_is_correct() {
    // Writes a table where most stores are silent after the first pass.
    // Each pass is exactly 96 instructions (3 traces), keeping trace ids
    // phase-aligned so the IR-predictor's confidence can saturate.
    let p = assemble(
        r#"
        li r1, 0x20000
        li r2, 150         ; passes
    pass:
        li r3, 16          ; entries
        mv r4, r1
    inner:
        andi r5, r3, 3
        st r5, 0(r4)       ; same values every pass → silent from pass 2
        addi r4, r4, 8
        addi r3, r3, -1
        bne r3, r0, inner
        add r10, r10, r4   ; pass summary (pads the pass to 96)
        slli r11, r10, 1
        xor r10, r10, r11
        addi r10, r10, 7
        srli r11, r10, 3
        add r10, r10, r11
        slli r11, r10, 2
        xor r10, r10, r11
        addi r10, r10, 19
        add r12, r12, r10
        srli r11, r12, 2
        xor r12, r12, r11
        addi r2, r2, -1
        bne r2, r0, pass
        ; checksum
        li r3, 16
        mv r4, r1
        li r6, 0
    sum:
        ld r5, 0(r4)
        add r6, r6, r5
        addi r4, r4, 8
        addi r3, r3, -1
        bne r3, r0, sum
        halt
        "#,
    )
    .unwrap();
    let proc = run_slipstream(&p, SlipstreamConfig::cmp_2x64x4());
    assert_matches_oracle(&proc, &p);
    let s = proc.stats();
    assert!(s.skipped > 0, "silent table stores should be removed");
}

#[test]
fn fault_in_checked_region_is_detected_and_recovered() {
    let p = dense_program(300);
    let golden = golden_state(&p, 1_000_000);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    // Fault-free baseline misprediction log.
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &p);
    assert!(clean.run(MAX_CYCLES));
    let base_log = clean.misp_log().to_vec();

    // Flip a bit in the A-stream in the middle of the run: every executed
    // A-stream value is checked, so this must be caught and repaired.
    let report = run_fault_experiment(
        cfg.clone(),
        &p,
        FaultTarget::AStream,
        FaultSpec { seq: 700, bit: 5 },
        MAX_CYCLES,
        &golden,
        &base_log,
    );
    assert!(report.fired, "fault must hit a real instruction");
    assert_eq!(
        report.outcome,
        FaultOutcome::DetectedRecovered,
        "A-stream faults are always detected (report: {report:?})"
    );
    // `detections` is the fault-attributed count: events from the first
    // divergence of this run's misprediction log against the baseline's.
    assert!(
        report.detections >= 1,
        "divergence must attribute the fault"
    );
    assert!(
        report.detections <= report.total_detections,
        "attributed events are a suffix of the raw log"
    );
    let latency = report
        .detection_latency
        .expect("a detected fault reports its fire-to-detection latency");
    assert!(
        report.fired_cycle.unwrap() + latency <= report.cycles,
        "detection happens within the run"
    );

    // Same for a fault in the R-stream's *checked* (executed-in-A) region:
    // the R-stream's own wrong value mismatches the A-stream's prediction.
    let report = run_fault_experiment(
        cfg,
        &p,
        FaultTarget::RStream,
        FaultSpec { seq: 700, bit: 5 },
        MAX_CYCLES,
        &golden,
        &base_log,
    );
    assert!(report.fired);
    assert_eq!(
        report.outcome,
        FaultOutcome::DetectedRecovered,
        "R-stream faults in compared instructions are detected (report: {report:?})"
    );
}

#[test]
fn fault_that_never_fires_is_not_activated() {
    let p = dense_program(100);
    let golden = golden_state(&p, 1_000_000);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &p);
    assert!(clean.run(MAX_CYCLES));
    let base_log = clean.misp_log().to_vec();
    // Armed far past the end of the program: never fires. This is a dead
    // injection site, not an architecturally-masked fault — conflating the
    // two inflates campaign masking rates with runs that injected nothing.
    let report = run_fault_experiment(
        cfg,
        &p,
        FaultTarget::RStream,
        FaultSpec {
            seq: 10_000_000,
            bit: 3,
        },
        MAX_CYCLES,
        &golden,
        &base_log,
    );
    assert!(!report.fired);
    assert_eq!(report.fired_cycle, None);
    assert_eq!(report.outcome, FaultOutcome::NotActivated);
    assert_ne!(
        report.outcome,
        FaultOutcome::Masked,
        "a never-fired fault must not count as masked"
    );
}

#[test]
fn fault_on_skipped_dead_value_is_masked() {
    // The `li r4, 7` in removable_heavy_program is a dead write: once the
    // IR-predictor removes it, a fault striking its R-stream execution is
    // never compared — and also never observed, because the value is
    // overwritten before any use. Architecturally masked.
    let p = removable_heavy_program(2000);
    let golden = golden_state(&p, 10_000_000);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &p);
    assert!(clean.run(MAX_CYCLES));
    // Iteration i's `li r4, 7` is dynamic instruction 5 + 8i + 3.
    let seq = 5 + 8 * 1500 + 3;
    let report = run_fault_experiment(
        cfg,
        &p,
        FaultTarget::RStream,
        FaultSpec { seq, bit: 0 },
        MAX_CYCLES,
        &golden,
        clean.misp_log(),
    );
    assert!(report.fired, "fault must strike the dead write");
    assert_eq!(
        report.outcome,
        FaultOutcome::Masked,
        "a faulted dead value must vanish architecturally ({report:?})"
    );
}

#[test]
fn fault_in_skipped_region_can_corrupt_silently() {
    // Scenario 2 (paper Figure 5): the A-stream skips a region; a fault
    // striking the R-stream inside it has nothing to be compared against,
    // and the corruption retires into architectural state. We build a
    // program whose passes of silent stores align to trace boundaries
    // (288 = 9 x 32 instructions per pass) so removal becomes confident,
    // then fault a *last-pass* store — its location is never overwritten
    // again, so the wrong value survives to the checksum.
    let fillers = "addi r20, r20, 1\n".repeat(28);
    let p = assemble(&format!(
        r#"
        li r10, 80          ; passes
        li r9, 42
    pass:
        li r4, 0x30000
        li r5, 64
        {fillers}
    inner:
        st r9, 0(r4)        ; pass 1 initializes; passes 2..80 are silent
        addi r4, r4, 8
        addi r5, r5, -1
        bne r5, r0, inner
        addi r10, r10, -1
        bne r10, r0, pass
        ; checksum
        li r4, 0x30000
        li r5, 64
        li r6, 0
    sum:
        ld r7, 0(r4)
        add r6, r6, r7
        addi r4, r4, 8
        addi r5, r5, -1
        bne r5, r0, sum
        halt
        "#
    ))
    .unwrap();
    let golden = golden_state(&p, 10_000_000);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &p);
    assert!(clean.run(MAX_CYCLES));

    // Last pass (k = 80) starts at dynamic seq 2 + 288*79; its inner loop
    // begins 30 instructions later; iteration j's store is 4j further.
    let pass_start = 2 + 288 * 79;
    let mut silent = 0;
    let mut outcomes = Vec::new();
    for j in [5u64, 20, 40] {
        let seq = pass_start + 30 + 4 * j;
        let report = run_fault_experiment(
            cfg.clone(),
            &p,
            FaultTarget::RStream,
            FaultSpec { seq, bit: 0 },
            MAX_CYCLES,
            &golden,
            clean.misp_log(),
        );
        assert_ne!(report.outcome, FaultOutcome::Hang);
        outcomes.push((seq, report.outcome, report.fired));
        if report.outcome == FaultOutcome::SilentCorruption {
            silent += 1;
        }
    }
    assert!(
        silent > 0,
        "scenario 2 must be reproducible: a fault on a removed store must \
         escape the redundancy (outcomes: {outcomes:?})"
    );
}
