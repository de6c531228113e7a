//! Differential tests for the three slipstream schedulers: serial
//! lockstep, slack-window batching, and two-thread decoupled execution
//! must produce byte-identical architecture and statistics on every
//! workload — including runs with IR-misprediction recoveries, injected
//! faults, cycle-budget truncation, and chunked (stop/resume) driving.

use slipstream_core::{
    CpiCat, EventKind, ExecMode, SlipstreamConfig, SlipstreamProcessor, SlipstreamStats, StreamId,
    TraceConfig,
};
use slipstream_cpu::FaultSpec;
use slipstream_isa::{assemble, Program};
use slipstream_workloads::{benchmark, suite};

const MAX_CYCLES: u64 = 2_000_000;
const MODES: [ExecMode; 3] = [ExecMode::Serial, ExecMode::Windowed, ExecMode::Threaded];

/// Runs `program` under `mode` and returns everything observable.
fn run_mode(
    program: &Program,
    cfg: &SlipstreamConfig,
    mode: ExecMode,
    max_cycles: u64,
) -> (SlipstreamProcessor, SlipstreamStats) {
    let mut p = SlipstreamProcessor::new(cfg.clone(), program);
    p.enable_online_check();
    p.set_strict(true);
    p.run_mode(mode, max_cycles);
    let stats = p.stats();
    (p, stats)
}

/// Asserts `got` (from `mode`) is byte-identical to the serial reference.
fn assert_identical(
    name: &str,
    mode: ExecMode,
    reference: &(SlipstreamProcessor, SlipstreamStats),
    got: &(SlipstreamProcessor, SlipstreamStats),
) {
    assert_eq!(
        reference.1, got.1,
        "{name}: {mode:?} stats diverged from serial"
    );
    assert_eq!(
        reference.0.misp_log(),
        got.0.misp_log(),
        "{name}: {mode:?} misprediction log diverged"
    );
    assert_eq!(
        reference.0.r_core().arch_regs(),
        got.0.r_core().arch_regs(),
        "{name}: {mode:?} R-stream registers diverged"
    );
    assert_eq!(
        reference.0.a_core().arch_regs(),
        got.0.a_core().arch_regs(),
        "{name}: {mode:?} A-stream registers diverged"
    );
    if let Some(addr) = reference
        .0
        .r_core()
        .mem()
        .first_difference(got.0.r_core().mem())
    {
        panic!("{name}: {mode:?} R-stream memory diverged at {addr:#x}");
    }
    if let Some(addr) = reference
        .0
        .a_core()
        .mem()
        .first_difference(got.0.a_core().mem())
    {
        panic!("{name}: {mode:?} A-stream memory diverged at {addr:#x}");
    }
}

#[test]
fn all_eight_benchmarks_identical_across_schedulers() {
    let cfg = SlipstreamConfig::cmp_2x64x4();
    for w in suite(0.1) {
        let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
        assert!(reference.1.halted, "{}: did not finish", w.name);
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_mode(&w.program, &cfg, mode, MAX_CYCLES);
            assert_identical(w.name, mode, &reference, &got);
        }
    }
}

#[test]
fn recovery_heavy_workload_identical_across_schedulers() {
    // vortex at this scale triggers a steady stream of IR-misprediction
    // recoveries: plenty of rollback-and-replay inside windows.
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let w = benchmark("vortex", 0.3).unwrap();
    let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
    assert!(
        reference.1.ir_mispredictions > 0,
        "test needs recoveries to be meaningful"
    );
    for mode in [ExecMode::Windowed, ExecMode::Threaded] {
        let got = run_mode(&w.program, &cfg, mode, MAX_CYCLES);
        assert_identical("vortex", mode, &reference, &got);
    }
}

#[test]
fn awkward_quanta_stay_identical_to_serial() {
    // The window grid must not leak into results for any quantum choice,
    // including 1 (degenerate), primes, and windows far larger than the
    // delay buffer.
    let w = benchmark("li", 0.1).unwrap();
    for quantum in [1usize, 7, 61, 256, 5000] {
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.sync_quantum = quantum;
        let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_mode(&w.program, &cfg, mode, MAX_CYCLES);
            assert_identical(&format!("li q={quantum}"), mode, &reference, &got);
        }
    }
}

#[test]
fn cycle_budget_truncation_identical_across_schedulers() {
    // A max_cycles that lands mid-window: every scheduler must stop in the
    // same state (no trailing boundary sync, A-side parked mid-window).
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let w = benchmark("go", 0.3).unwrap();
    let full = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
    let total = full.1.cycles;
    // Odd fractions of the full run land mid-window with high probability.
    for budget in [(total / 4) | 1, (total / 2) | 1, (total * 3 / 4) | 1] {
        let reference = run_mode(&w.program, &cfg, ExecMode::Serial, budget);
        assert!(!reference.1.halted, "budget {budget} must truncate the run");
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_mode(&w.program, &cfg, mode, budget);
            assert_identical(&format!("go budget={budget}"), mode, &reference, &got);
        }
    }
}

#[test]
fn chunked_driving_resumes_mid_window_identically() {
    // Callers may drive `run` in slices (the fault campaign does). A
    // stop/resume at a non-boundary cycle must not perturb results, in any
    // mode and even when the modes are interleaved within one run.
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let w = benchmark("vortex", 0.1).unwrap();
    let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
    for mode in MODES {
        let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
        p.enable_online_check();
        p.set_strict(true);
        let mut budget = 911; // prime: lands mid-window almost every slice
        while !p.halted() {
            p.run_mode(mode, budget);
            budget += 911;
        }
        let got_stats = p.stats();
        assert_identical(
            &format!("vortex chunked {mode:?}"),
            mode,
            &reference,
            &(p, got_stats),
        );
    }
    // Mixed-mode chunks: scheduler choice is a per-call detail.
    let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
    p.enable_online_check();
    p.set_strict(true);
    let mut budget = 1013;
    let mut i = 0;
    while !p.halted() {
        p.run_mode(MODES[i % 3], budget);
        budget += 1013;
        i += 1;
    }
    let got_stats = p.stats();
    assert_identical(
        "vortex mixed-mode chunks",
        ExecMode::Threaded,
        &reference,
        &(p, got_stats),
    );
}

#[test]
fn injected_faults_detected_identically_across_schedulers() {
    // A fault in the A-stream perturbs the reduced stream mid-window; the
    // detection cycle and full recovery trajectory must not depend on the
    // scheduler. (The armed fault is part of the A-side checkpoint, so a
    // rollback-replay refires it deterministically.)
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let w = benchmark("m88ksim", 0.1).unwrap();
    for (seq, bit) in [(5_000u64, 3u8), (20_000, 17), (33_333, 40)] {
        let fault = FaultSpec { seq, bit };
        let run_with_fault = |mode: ExecMode| {
            let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
            p.enable_online_check();
            p.set_strict(true);
            p.arm_fault_a(fault);
            p.run_mode(mode, MAX_CYCLES);
            let stats = p.stats();
            (p, stats)
        };
        let reference = run_with_fault(ExecMode::Serial);
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_with_fault(mode);
            assert_identical(
                &format!("fault seq={seq} bit={bit}"),
                mode,
                &reference,
                &got,
            );
        }
    }
}

#[test]
fn shared_l2_identical_across_schedulers() {
    // The shared L2 + memory port couples the two cores through a second
    // resource; window-deferred arbitration must keep every scheduler
    // byte-identical anyway, and the config must actually exercise the L2.
    let cfg = SlipstreamConfig::cmp_shared_l2();
    for w in suite(0.1) {
        let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
        assert!(reference.1.halted, "{}: did not finish", w.name);
        let touched = reference.1.a_core.l2_hits
            + reference.1.a_core.l2_misses
            + reference.1.r_core.l2_hits
            + reference.1.r_core.l2_misses;
        assert!(touched > 0, "{}: shared L2 never accessed", w.name);
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_mode(&w.program, &cfg, mode, MAX_CYCLES);
            assert_identical(w.name, mode, &reference, &got);
        }
    }
}

#[test]
fn shared_l2_recovery_heavy_identical_across_schedulers() {
    // Recoveries roll the A-core (including its L2 view) back to a window
    // checkpoint and replay; the regenerated access log must merge to the
    // same canonical L2 state the serial scheduler reaches.
    let cfg = SlipstreamConfig::cmp_shared_l2();
    let w = benchmark("vortex", 0.3).unwrap();
    let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
    assert!(
        reference.1.ir_mispredictions > 0,
        "test needs recoveries to be meaningful"
    );
    for mode in [ExecMode::Windowed, ExecMode::Threaded] {
        let got = run_mode(&w.program, &cfg, mode, MAX_CYCLES);
        assert_identical("vortex+l2", mode, &reference, &got);
    }
}

#[test]
fn shared_l2_awkward_quanta_stay_identical() {
    // Quantum 1 degenerates to per-cycle arbitration; large quanta defer
    // a lot of cross-core contention to one merge. All must stay on the
    // serial reference for that same quantum.
    let w = benchmark("li", 0.1).unwrap();
    for quantum in [1usize, 7, 61, 256] {
        let mut cfg = SlipstreamConfig::cmp_shared_l2();
        cfg.sync_quantum = quantum;
        let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_mode(&w.program, &cfg, mode, MAX_CYCLES);
            assert_identical(&format!("li+l2 q={quantum}"), mode, &reference, &got);
        }
    }
}

#[test]
fn shared_l2_injected_faults_identical_across_schedulers() {
    // A fault perturbs the A-stream's (and thus the shared L2's) access
    // stream mid-window; detection and the whole recovery trajectory must
    // still not depend on the scheduler.
    let cfg = SlipstreamConfig::cmp_shared_l2();
    let w = benchmark("m88ksim", 0.1).unwrap();
    for (seq, bit) in [(5_000u64, 3u8), (33_333, 40)] {
        let fault = FaultSpec { seq, bit };
        let run_with_fault = |mode: ExecMode| {
            let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
            p.enable_online_check();
            p.set_strict(true);
            p.arm_fault_a(fault);
            p.run_mode(mode, MAX_CYCLES);
            let stats = p.stats();
            (p, stats)
        };
        let reference = run_with_fault(ExecMode::Serial);
        for mode in [ExecMode::Windowed, ExecMode::Threaded] {
            let got = run_with_fault(mode);
            assert_identical(
                &format!("l2 fault seq={seq} bit={bit}"),
                mode,
                &reference,
                &got,
            );
        }
    }
}

#[test]
fn shared_l2_chunked_and_mixed_mode_driving() {
    // Stop/resume at non-boundary cycles leaves unmerged L2 logs in the
    // cores; resuming in any scheduler must pick them up consistently.
    let cfg = SlipstreamConfig::cmp_shared_l2();
    let w = benchmark("vortex", 0.1).unwrap();
    let reference = run_mode(&w.program, &cfg, ExecMode::Serial, MAX_CYCLES);
    let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
    p.enable_online_check();
    p.set_strict(true);
    let mut budget = 911;
    let mut i = 0;
    while !p.halted() {
        p.run_mode(MODES[i % 3], budget);
        budget += 911;
        i += 1;
    }
    let got_stats = p.stats();
    assert_identical(
        "vortex+l2 mixed-mode chunks",
        ExecMode::Threaded,
        &reference,
        &(p, got_stats),
    );
}

/// Asserts the exact cycle-accounting invariant on both cores: every
/// category sum equals the core's cycle counter.
fn assert_cpi_exact(name: &str, s: &SlipstreamStats) {
    for (label, core) in [("A", &s.a_core), ("R", &s.r_core)] {
        assert_eq!(
            core.cpi.total(),
            core.cycles,
            "{name}: {label}-stream CPI stack sums to {} over {} cycles",
            core.cpi.total(),
            core.cycles
        );
    }
}

#[test]
fn cpi_stacks_sum_to_cycles_and_match_across_schedulers() {
    // The acceptance grid: every suite workload, with and without the
    // shared L2, under all three schedulers — per-core category sums must
    // equal `CoreStats::cycles` exactly, and the full stacks must be
    // byte-identical to the serial reference.
    for (tag, cfg) in [
        ("private", SlipstreamConfig::cmp_2x64x4()),
        ("shared-l2", SlipstreamConfig::cmp_shared_l2()),
    ] {
        for w in suite(0.1) {
            let mut serial = SlipstreamProcessor::new(cfg.clone(), &w.program);
            serial.run_mode(ExecMode::Serial, MAX_CYCLES);
            let reference = serial.stats();
            assert_cpi_exact(&format!("{} {tag} Serial", w.name), &reference);
            assert!(
                reference.r_core.cpi.get(CpiCat::Base) > 0,
                "{}: a finished run must retire in some cycles",
                w.name
            );
            for mode in [ExecMode::Windowed, ExecMode::Threaded] {
                let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
                p.run_mode(mode, MAX_CYCLES);
                let got = p.stats();
                assert_cpi_exact(&format!("{} {tag} {mode:?}", w.name), &got);
                assert_eq!(
                    reference.a_core.cpi, got.a_core.cpi,
                    "{} {tag}: {mode:?} A-stream CPI stack diverged from serial",
                    w.name
                );
                assert_eq!(
                    reference.r_core.cpi, got.r_core.cpi,
                    "{} {tag}: {mode:?} R-stream CPI stack diverged from serial",
                    w.name
                );
            }
        }
    }
}

#[test]
fn cpi_stacks_exact_across_window_quanta() {
    // The quantum grid {1, 7, 61, 256}: each quantum is its own
    // architectural configuration (it bounds learning/arbitration
    // visibility), so each gets its own serial reference; within a
    // quantum, all schedulers must agree on the stacks exactly.
    let w = benchmark("li", 0.1).unwrap();
    for shared_l2 in [false, true] {
        for quantum in [1usize, 7, 61, 256] {
            let mut cfg = if shared_l2 {
                SlipstreamConfig::cmp_shared_l2()
            } else {
                SlipstreamConfig::cmp_2x64x4()
            };
            cfg.sync_quantum = quantum;
            let name = format!("li l2={shared_l2} q={quantum}");
            let mut serial = SlipstreamProcessor::new(cfg.clone(), &w.program);
            serial.run_mode(ExecMode::Serial, MAX_CYCLES);
            let reference = serial.stats();
            assert_cpi_exact(&format!("{name} Serial"), &reference);
            for mode in [ExecMode::Windowed, ExecMode::Threaded] {
                let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
                p.run_mode(mode, MAX_CYCLES);
                let got = p.stats();
                assert_cpi_exact(&format!("{name} {mode:?}"), &got);
                assert_eq!(
                    (reference.a_core.cpi, reference.r_core.cpi),
                    (got.a_core.cpi, got.r_core.cpi),
                    "{name}: {mode:?} CPI stacks diverged from serial"
                );
            }
        }
    }
}

#[test]
fn retire_path_recycled_buffers_never_alias_live_delay_data() {
    // The zero-copy retire path circulates the same allocations between
    // `fe.out_entries` and `CycleBatch::entries`, whose entries are then
    // copied into the delay buffer's ring, in every scheduler (including
    // across the threaded scheduler's recycle channel). If any recycled
    // buffer aliased live data — a batch reused before its window is
    // consumed — the delay buffer's contents would diverge between
    // schedulers somewhere mid-run, not just at the end. Drive a recovery-heavy, shared-L2
    // workload in lockstep chunks at a degenerate and an oversized
    // quantum and compare the full queued-entry sequence plus occupancy
    // counters against the serial reference at every truncation point.
    let w = benchmark("vortex", 0.3).unwrap();
    for quantum in [1usize, 5000] {
        let mut cfg = SlipstreamConfig::cmp_shared_l2();
        cfg.sync_quantum = quantum;
        let make = || {
            let mut p = SlipstreamProcessor::new(cfg.clone(), &w.program);
            p.enable_online_check();
            p.set_strict(true);
            p
        };
        let mut serial = make();
        let mut others: Vec<(ExecMode, SlipstreamProcessor)> =
            [ExecMode::Windowed, ExecMode::Threaded]
                .into_iter()
                .map(|m| (m, make()))
                .collect();
        let mut budget = 911u64; // prime: lands mid-window almost always
        let mut pauses = 0u64;
        while !serial.halted() {
            serial.run_mode(ExecMode::Serial, budget);
            let (ref_entries, ref_data, ref_ctrl) = serial.delay_snapshot();
            for (mode, p) in &mut others {
                p.run_mode(*mode, budget);
                let (entries, data, ctrl) = p.delay_snapshot();
                assert_eq!(
                    (data, ctrl),
                    (ref_data, ref_ctrl),
                    "q={quantum} {mode:?} delay occupancy diverged at cycle {}",
                    serial.cycles()
                );
                assert_eq!(
                    entries,
                    ref_entries,
                    "q={quantum} {mode:?} delay contents diverged at cycle {}",
                    serial.cycles()
                );
            }
            budget += 911;
            pauses += 1;
        }
        assert!(pauses > 3, "q={quantum}: test must truncate mid-run");
        let ref_stats = serial.stats();
        assert!(
            ref_stats.ir_mispredictions > 0,
            "q={quantum}: test needs recoveries to stress the retire path"
        );
        let reference = (serial, ref_stats);
        for (mode, p) in others {
            let got_stats = p.stats();
            assert_identical(
                &format!("vortex+l2 aliasing q={quantum}"),
                mode,
                &reference,
                &(p, got_stats),
            );
        }
    }
}

#[test]
fn step_interleaves_with_batch_runs() {
    // `step` (the public single-cycle API) is the serial scheduler one
    // cycle at a time; mixing it with windowed runs must stay identical.
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let src = "
        li r1, 4000
    loop:
        add r2, r2, r1
        slli r3, r2, 1
        xor r2, r2, r3
        addi r1, r1, -1
        bne r1, r0, loop
        halt";
    let program = assemble(src).unwrap();
    let reference = run_mode(&program, &cfg, ExecMode::Serial, MAX_CYCLES);
    let mut p = SlipstreamProcessor::new(cfg.clone(), &program);
    p.enable_online_check();
    p.set_strict(true);
    while !p.halted() {
        for _ in 0..37 {
            if p.halted() {
                break;
            }
            p.step();
        }
        p.run_mode(ExecMode::Windowed, p.cycles() + 1000);
    }
    // Mirror the batch schedulers' end-of-run boundary flush so post-run
    // state (predictor, statistics) is comparable.
    p.run_mode(ExecMode::Serial, u64::MAX);
    let got_stats = p.stats();
    assert_identical(
        "step+windowed interleave",
        ExecMode::Windowed,
        &reference,
        &(p, got_stats),
    );
}

#[test]
fn stepped_recording_leaves_nothing_on_the_a_side() {
    // Every A-side event rides the cycle's batch to the R side, and a
    // recovery hands the A-core's flush over at once: between steps the
    // A-core's sink is empty, and stepping records what a windowed run
    // records. Threshold 1 removes eagerly, so recoveries are frequent.
    let mut cfg = SlipstreamConfig::cmp_2x64x4();
    cfg.confidence_threshold = 1;
    let w = benchmark("vortex", 0.1).unwrap();
    let trace = TraceConfig::flight(1 << 20).with_metrics(500);
    let mut stepped = SlipstreamProcessor::new(cfg.clone(), &w.program);
    stepped.enable_tracing(trace);
    while !stepped.halted() {
        stepped.step();
        let staged = stepped.a_core().trace().expect("tracing enabled");
        assert!(
            staged.is_empty(),
            "cycle {}: {} A-core events left on the A side",
            stepped.cycles(),
            staged.len()
        );
    }
    // The end-of-run boundary the batch schedulers finish with.
    stepped.run_mode(ExecMode::Serial, u64::MAX);
    assert!(stepped.stats().ir_mispredictions > 1, "needs recoveries");
    let mut windowed = SlipstreamProcessor::new(cfg, &w.program);
    windowed.enable_tracing(trace);
    assert!(windowed.run_mode(ExecMode::Windowed, MAX_CYCLES));
    let (got, want) = (
        stepped.flight_recording().unwrap(),
        windowed.flight_recording().unwrap(),
    );
    let a_flush = (EventKind::Flush, StreamId::AStream);
    assert!(
        got.events.iter().any(|e| (e.kind, e.stream) == a_flush),
        "no A-core flush was recorded"
    );
    assert!(got.events == want.events, "stepped events diverged");
    assert_eq!(got.samples, want.samples);
    assert_eq!(got.dropped, want.dropped);
}
