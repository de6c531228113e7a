//! Telemetry integration tests: the scheduler spans and the snapshot
//! pipeline (run file, report) must hold their contracts on real simulator
//! runs — not just the unit-test fixtures.

use slipstream_bench::{parse_jsonl, report_text, to_jsonl, MAX_CYCLES};
use slipstream_core::telemetry::RunManifest;
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor};
use slipstream_workloads::benchmark;

#[test]
fn threaded_run_attributes_its_wall_clock_to_named_spans() {
    let w = benchmark("compress", 0.2).expect("compress workload exists");
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut proc = SlipstreamProcessor::new(cfg.clone(), &w.program);
    proc.enable_telemetry();
    assert!(proc.run_mode(ExecMode::Threaded, MAX_CYCLES));
    let tel = proc.take_telemetry().expect("telemetry was enabled");
    let manifest = RunManifest::new("telemetry_tests", "threaded", &format!("{cfg:?}"));
    let snap = tel.snapshot(&manifest);

    let span = |name: &str| snap.spans.iter().find(|s| s.name == name);
    let run_total = span("run_total").expect("run_total recorded").total_nanos;
    assert!(run_total > 0);
    // Both threads must have produced their core spans.
    for required in [
        "a_window_exec",
        "a_checkpoint",
        "r_window_consume",
        "r_boundary_sync",
    ] {
        assert!(
            span(required).is_some_and(|s| s.count > 0),
            "{required} missing from a threaded telemetry run"
        );
    }
    // The R-side exclusive set nests inside run_total, so its sum is
    // bounded by it — this is what makes the "other" remainder (and the
    // report's 100% attribution) well-defined.
    let named: u64 = [
        "r_ring_pop_wait",
        "r_window_consume",
        "r_boundary_sync",
        "r_recovery_build",
    ]
    .iter()
    .filter_map(|n| span(n))
    .map(|s| s.total_nanos)
    .sum();
    assert!(named <= run_total, "exclusive spans exceed run_total");

    // The report over this snapshot attributes the full run total.
    let run = snap.into();
    let report = report_text(std::slice::from_ref(&run), None);
    assert!(
        report.contains("= 100.0% of run_total"),
        "report:\n{report}"
    );

    // And the JSONL render of a real run round-trips byte-identically.
    let jsonl = to_jsonl(&run);
    assert_eq!(to_jsonl(&parse_jsonl(&jsonl).unwrap()), jsonl);
}

#[test]
fn telemetry_off_run_produces_no_registry() {
    let w = benchmark("compress", 0.1).expect("compress workload exists");
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &w.program);
    assert!(!proc.telemetry_enabled());
    assert!(proc.run_mode(ExecMode::Windowed, MAX_CYCLES));
    assert!(proc.take_telemetry().is_none());
}
