//! End-to-end tests of the flight recorder, its run file, and its
//! pipeview: determinism across worker counts, round trips through the
//! one reader, and divergence naming in a fuzz violation's run file.

use std::path::Path;

use slipstream_bench::{
    first_divergence, live_count, parse_jsonl, pipeview_text, report_text, to_jsonl, write_corpus,
    FuzzViolation, RunFile,
};
use slipstream_core::telemetry::{RunManifest, Telemetry};
use slipstream_core::{
    golden_state, run_fault_experiment_traced, EventKind, FaultOutcome, FaultReport, FaultTarget,
    FlightRecording, SlipstreamConfig, SlipstreamProcessor, StreamId, TraceConfig, TraceEvent,
    NO_SEQ,
};
use slipstream_cpu::FaultSpec;
use slipstream_isa::{assemble, ArchState, Program};
use slipstream_workloads::{random_program_with_shape, RandProgConfig};

const BUDGET: u64 = 1_000_000;

fn kernel_program() -> Program {
    assemble(
        r#"
        li r1, 40
        li r3, 0xa0000
        li r24, 42
    step:
        li r10, 42
        st r10, 0(r3)
        ld r14, 32(r3)
        addi r14, r14, 1
        st r14, 32(r3)
        andi r17, r14, 7
        slli r17, r17, 3
        add r18, r3, r17
        xor r19, r14, r24
        st r19, 64(r18)
        add r20, r20, r19
        andi r15, r14, 511
        bne r15, r0, no_event
        addi r16, r16, 1
    no_event:
        addi r1, r1, -1
        bne r1, r0, step
        halt
    "#,
    )
    .unwrap()
}

/// The run file of a recording, with an empty host part — the shape
/// `fault_campaign --trace` writes.
fn run_file_text(rec: &FlightRecording) -> String {
    let manifest = RunManifest::new("trace_tests", "windowed", "cmp_2x64x4");
    to_jsonl(&RunFile {
        snapshot: Telemetry::new().snapshot(&manifest),
        recording: rec.clone(),
    })
}

/// Finds a detected+recovered A-stream fault in the kernel program and
/// returns the traced run's report and recording.
fn traced_detection(trace: TraceConfig) -> (FaultReport, FlightRecording) {
    let program = kernel_program();
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let golden = golden_state(&program, BUDGET);
    let mut clean = SlipstreamProcessor::new(cfg.clone(), &program);
    assert!(clean.run(BUDGET), "fault-free run completes");
    let baseline = clean.misp_log().to_vec();
    let dynamic = clean.stats().r_retired;
    for seq in dynamic / 4..dynamic.saturating_sub(10) {
        let fault = FaultSpec { seq, bit: 2 };
        let (report, recording) = run_fault_experiment_traced(
            cfg.clone(),
            &program,
            FaultTarget::AStream,
            fault,
            BUDGET,
            &golden,
            &baseline,
            Some(trace),
        );
        if report.outcome == FaultOutcome::DetectedRecovered {
            return (report, recording.expect("tracing enabled"));
        }
    }
    panic!("no detected+recovered A-stream fault found in the kernel program");
}

#[test]
fn run_file_is_deterministic_and_worker_count_independent() {
    let trace = TraceConfig::flight(8_192).with_metrics(200);
    let export = || run_file_text(&traced_detection(trace).1);
    let serial = export();
    // The sample rows carry each core's interval CPI stack; the reader
    // rejects any stack that does not sum to its interval cycles.
    let parsed = parse_jsonl(&serial).expect("the run file parses");
    assert!(!parsed.recording.samples.is_empty(), "sample rows present");
    assert!(
        serial.contains("\"delay_empty\""),
        "stacks name the categories"
    );
    // The same traced experiment computed concurrently on 4 workers must
    // produce a byte-identical run file — events and samples carry
    // simulated cycles only, so thread scheduling cannot leak into them.
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(export)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in outputs {
        assert!(got == serial, "run file must be byte-identical");
    }
}

#[test]
fn traced_fault_run_round_trips_through_its_run_file() {
    let (_, rec) = traced_detection(TraceConfig::flight(8_192).with_metrics(200));
    assert!(
        rec.events
            .iter()
            .any(|e| e.kind == EventKind::FaultDetected),
        "the synthesized detection event is in the recording"
    );
    let text = run_file_text(&rec);
    let parsed = parse_jsonl(&text).expect("the run file parses");
    assert!(
        to_jsonl(&parsed) == text,
        "re-render must be byte-identical"
    );
    assert_eq!(parsed.recording.events, rec.events);
    assert!(
        !rec.samples.is_empty(),
        "interval sampling produced samples"
    );
    assert_eq!(parsed.recording.samples, rec.samples);
    assert_eq!(parsed.recording.dropped, rec.dropped);
}

#[test]
fn traced_fault_run_synthesizes_the_detection_event() {
    let (report, rec) = traced_detection(TraceConfig::flight(8_192));
    let det: Vec<&TraceEvent> = rec
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FaultDetected)
        .collect();
    assert_eq!(det.len(), 1, "exactly one attributed detection");
    let fired = report.fired_cycle.expect("fault fired");
    assert_eq!(
        det[0].cycle,
        fired + report.detection_latency.expect("detected"),
        "detection event sits at fire cycle + latency"
    );
    assert_eq!(det[0].arg, report.detection_latency.unwrap());
    assert!(
        rec.events.iter().any(|e| e.kind == EventKind::FaultFired),
        "the fire itself is in the window"
    );
    let text = pipeview_text(&rec);
    assert!(text.contains("fault-detected"), "pipeview names the event");
}

#[test]
fn first_divergence_names_kind_cycle_and_seq() {
    let retire = |cycle, seq, pc| TraceEvent {
        cycle,
        seq,
        pc,
        arg: 0,
        stream: StreamId::RStream,
        kind: EventKind::Retire,
    };
    let mut rec = FlightRecording {
        events: vec![retire(10, 0, 0x1000), retire(12, 1, 0x1008)],
        ..Default::default()
    };
    let d = first_divergence(&rec, &[0x1000, 0x1004]).expect("diverges");
    assert_eq!((d.kind, d.cycle, d.seq), ("retire", 12, 1));
    assert!(d.detail.contains("0x1008") && d.detail.contains("0x1004"));

    // Matching retire streams: no divergence to name.
    assert!(first_divergence(&rec, &[0x1000, 0x1008]).is_none());

    // A ring that dropped events cannot align retires with the oracle;
    // the first IR-misprediction detection is named instead.
    rec.dropped = 5;
    rec.events.push(TraceEvent {
        cycle: 40,
        seq: NO_SEQ,
        pc: 0x2000,
        arg: 1,
        stream: StreamId::Machine,
        kind: EventKind::IrMispredict,
    });
    let d = first_divergence(&rec, &[0x1000, 0x1004]).expect("falls back");
    assert_eq!((d.kind, d.cycle), ("ir-mispredict", 40));
    assert!(d.detail.contains("control-divergence"));
}

#[test]
fn violation_trace_is_a_run_file_that_report_reads() {
    // A clean random program stands in for a violation's minimized
    // reproducer: its slipstream replay halts on the oracle's path.
    let (program, _) = random_program_with_shape(11, RandProgConfig::default());
    let v = FuzzViolation {
        seed: 11,
        invariant: "core-oracle",
        detail: "synthetic".into(),
        original_instrs: live_count(&program),
        minimized: program.clone(),
        minimized_live: live_count(&program),
        shrink_evals: 0,
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("violation_trace");
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus(&dir, std::slice::from_ref(&v), true).expect("write the corpus entry and trace");
    let stem = dir.join("seed_000000000000000b_core-oracle");
    assert!(
        stem.with_extension("ssir").is_file(),
        "the reproducer is written"
    );
    let text = std::fs::read_to_string(stem.with_extension("jsonl")).expect("the run file");
    let run = parse_jsonl(&text).expect("the run file parses");
    assert_eq!(to_jsonl(&run), text, "re-render must be byte-identical");

    let label = |key: &str| {
        run.snapshot
            .labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(run.snapshot.binary, "differential_fuzz");
    assert_eq!(label("invariant"), Some("core-oracle"));
    assert_eq!(label("seed"), Some("0xb"));
    assert_eq!(label("replay"), Some("halted"));
    // The retire streams agree, so only a detection can be named; either
    // way the divergence labels describe first_divergence's answer.
    let oracle: Vec<u64> = ArchState::new(&program)
        .run(&program, BUDGET)
        .expect("the oracle halts")
        .iter()
        .map(|r| r.pc)
        .collect();
    match first_divergence(&run.recording, &oracle) {
        None => {
            assert_eq!(label("divergence"), Some("none"));
            assert_eq!(label("divergence_cycle"), None);
        }
        Some(d) => {
            assert_eq!(label("divergence"), Some(d.kind));
            assert_eq!(
                label("divergence_cycle"),
                Some(d.cycle.to_string().as_str())
            );
            assert_eq!(label("divergence_detail"), Some(d.detail.as_str()));
            assert_ne!(d.kind, "retire", "a clean replay retires the oracle's path");
        }
    }
    // The R-stream retire events are the oracle's retirement stream.
    assert_eq!(run.recording.dropped, 0, "a tiny program fits the ring");
    let retired: Vec<u64> = run
        .recording
        .events
        .iter()
        .filter(|e| e.stream == StreamId::RStream && e.kind == EventKind::Retire)
        .map(|e| e.pc)
        .collect();
    assert_eq!(retired, oracle);

    let report = report_text(std::slice::from_ref(&run));
    assert!(report.contains("invariant=core-oracle"), "{report}");
    assert!(report.contains("flight-recorder window"), "{report}");
    assert!(report.contains("# slipstream pipeview"), "{report}");
}
