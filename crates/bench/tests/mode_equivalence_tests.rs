//! Scheduler-equivalence tests at the bench layer: the flight recorder's
//! five-sink merge, its run file, the checked-in fuzz corpus, and a traced
//! fault experiment must all be byte-identical whether the processor runs
//! serial, slack-windowed, or on two threads. Every event carries
//! simulated cycles — never wall-clock — so decoupled execution cannot
//! leak into any simulated row.

use std::path::Path;

use slipstream_bench::{parse_jsonl, to_jsonl, RunFile};
use slipstream_core::telemetry::RunManifest;
use slipstream_core::{EventKind, ExecMode, SlipstreamConfig, SlipstreamProcessor, TraceConfig};
use slipstream_cpu::FaultSpec;
use slipstream_isa::{assemble, Program};
use slipstream_workloads::benchmark;

const BUDGET: u64 = 1_000_000;
const ALT_MODES: [ExecMode; 2] = [ExecMode::Windowed, ExecMode::Threaded];
const TRACE: TraceConfig = TraceConfig {
    ring_capacity: 8_192,
    metrics_interval: 200,
    freeze_after: None,
};

/// One run with the flight recorder and host telemetry both on, as its
/// run file.
fn traced_run(
    cfg: SlipstreamConfig,
    program: &Program,
    mode: ExecMode,
    trace: TraceConfig,
    fault: Option<FaultSpec>,
) -> (bool, RunFile) {
    let mut p = SlipstreamProcessor::new(cfg, program);
    p.enable_tracing(trace);
    p.enable_telemetry();
    if let Some(f) = fault {
        p.arm_fault_a(f);
    }
    let halted = p.run_mode(mode, BUDGET);
    let manifest = RunManifest::new("mode_equivalence_tests", mode.label(), "cmp");
    let run = RunFile {
        snapshot: p
            .take_telemetry()
            .expect("telemetry on")
            .snapshot(&manifest),
        recording: p.flight_recording().expect("tracing enabled"),
    };
    (halted, run)
}

/// The `event` and `sample` rows of a run file: its simulated part.
fn simulated_rows(jsonl: &str) -> Vec<&str> {
    jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\": \"event\"") || l.starts_with("{\"type\": \"sample\""))
        .collect()
}

/// The run file of `got` round-trips through its one reader, its
/// `event`/`sample` rows are byte-identical to the serial reference's, and
/// its rings evicted as many events.
fn assert_recordings_identical(name: &str, mode: ExecMode, reference: &RunFile, got: &RunFile) {
    let text = to_jsonl(got);
    let parsed = parse_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {mode:?}: {e}"));
    assert!(
        to_jsonl(&parsed) == text,
        "{name}: {mode:?} run file does not round-trip"
    );
    assert_eq!(
        parsed.recording.dropped, reference.recording.dropped,
        "{name}: {mode:?} dropped count diverged from serial"
    );
    let want = to_jsonl(reference);
    let (want, got) = (simulated_rows(&want), simulated_rows(&text));
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        panic!(
            "{name}: {mode:?} simulated row {i} diverged from serial:\n  serial: {:?}\n  {mode:?}: {:?}",
            want.get(i),
            got.get(i)
        );
    }
}

#[test]
fn five_sink_merge_is_byte_identical_across_schedulers() {
    // vortex at this scale commits traces, removes instructions, and
    // recovers from IR-mispredictions — all five sinks see traffic.
    let w = benchmark("vortex", 0.2).unwrap();
    let run = |mode| {
        let cfg = SlipstreamConfig::cmp_2x64x4();
        traced_run(cfg, &w.program, mode, TRACE, None)
    };
    let (halted, reference) = run(ExecMode::Serial);
    assert!(halted);
    let rec = &reference.recording;
    assert!(!rec.events.is_empty() && !rec.samples.is_empty());
    for mode in ALT_MODES {
        let (halted, got) = run(mode);
        assert!(halted);
        assert_recordings_identical("vortex", mode, &reference, &got);
    }
}

#[test]
fn shared_l2_recording_is_byte_identical_across_schedulers() {
    // With the shared L2 and bandwidth-limited memory port modeled, the
    // recorded artifacts — including the new l2-miss/port-stall events —
    // must still not depend on the scheduler, even though the two cores'
    // outer-level traffic is interleaved differently by each one.
    let w = benchmark("vortex", 0.2).unwrap();
    // A large ring: L2 misses are concentrated in the cold start, and the
    // default flight window would have evicted them by halt.
    let trace = TraceConfig::flight(1 << 20).with_metrics(200);
    let run = |mode| {
        traced_run(
            SlipstreamConfig::cmp_shared_l2(),
            &w.program,
            mode,
            trace,
            None,
        )
    };
    let (halted, reference) = run(ExecMode::Serial);
    assert!(halted);
    assert!(
        reference
            .recording
            .events
            .iter()
            .any(|e| e.kind == EventKind::L2Miss),
        "cold L1 misses must surface as L2 misses in the recording"
    );
    for mode in ALT_MODES {
        let (halted, got) = run(mode);
        assert!(halted);
        assert_recordings_identical("vortex+l2", mode, &reference, &got);
    }
}

#[test]
fn traced_fault_detection_is_byte_identical_across_schedulers() {
    // An injected A-stream fault perturbs the reduced stream mid-window;
    // the recorded detection (cycle, recovery events, counter deltas) must
    // not depend on the scheduler.
    let w = benchmark("m88ksim", 0.2).unwrap();
    let fault = Some(FaultSpec { seq: 9_000, bit: 5 });
    let run = |mode| {
        let cfg = SlipstreamConfig::cmp_2x64x4();
        traced_run(cfg, &w.program, mode, TRACE, fault)
    };
    let (halted, reference) = run(ExecMode::Serial);
    assert!(halted);
    for mode in ALT_MODES {
        let (halted, got) = run(mode);
        assert!(halted);
        assert_recordings_identical("m88ksim+fault", mode, &reference, &got);
    }
}

#[test]
fn checked_in_fuzz_corpus_replays_identically_across_schedulers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ssir") {
            continue;
        }
        seen += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let program = assemble(&src)
            .unwrap_or_else(|e| panic!("corpus entry {} must assemble: {e}", path.display()));
        let run = |mode: ExecMode| {
            let mut p = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &program);
            p.enable_online_check();
            p.set_strict(true);
            let halted = p.run_mode(mode, BUDGET);
            let stats = p.stats();
            let log = p.misp_log().to_vec();
            let regs = *p.r_core().arch_regs();
            (halted, stats, log, regs)
        };
        let reference = run(ExecMode::Serial);
        assert!(reference.0, "{}: corpus entry must halt", path.display());
        for mode in ALT_MODES {
            assert_eq!(
                run(mode),
                reference,
                "{}: {mode:?} diverged from serial",
                path.display()
            );
        }
    }
    assert!(seen >= 3, "expected the seed corpus entries, found {seen}");
}
