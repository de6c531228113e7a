//! Self-test of the benchmark: the committed spec, metric coverage at tiny
//! sizes, checks that can fail, and `compare`'s verdicts.

use std::path::{Path, PathBuf};

use perfbench::measure::{run, trace, RunReport, Summary};
use perfbench::report::{compare, judge, parse_run, read_runs, run_text, trace_text, Verdict};
use perfbench::spec::{self, END_TO_END, PER_LAYER};
use perfbench::workload::{fault_outcome_ok, repo_root, round, Size, Untimed, Workload};
use slipstream_bench::MAX_CYCLES;
use slipstream_core::{FaultOutcome, FaultTarget, SlipstreamConfig, SlipstreamProcessor};
use slipstream_isa::Reg;

#[test]
fn committed_benchmark_json_is_rendered_from_the_spec() {
    let path = repo_root().join("BENCHMARK.json");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} is missing: {e}", path.display()));
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "BENCHMARK.json differs from `perfbench spec`; regenerate it with \
         `perfbench spec > BENCHMARK.json`"
    );
}

/// The limits of the `BENCHMARK.json` format: counts, name and unit
/// spellings, one-line reasons, unique names and regression bounds.
#[test]
fn spec_stays_within_the_format_limits() {
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    assert!(spec::COMMAND.len() <= 32 && spec::COMMAND.iter().all(|a| a.len() <= 200));
    assert!((1..=16).contains(&spec::PATHS.len()));
    assert!(spec::benchmark_json().len() <= 64 * 1024);

    let mut seen = std::collections::BTreeSet::new();
    for w in spec::WORKLOADS {
        assert!(name_ok(w.name), "workload name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(seen.insert(w.name), "{} is named twice", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "metric name {}", m.name);
        assert!(unit_ok(m.unit), "unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "{} is named twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = spec::end_to_end("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    // Set-up is the noisiest of the end-to-end metrics; it gets the
    // largest bound.
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

fn names<'a>(it: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    it.collect()
}

fn assert_emits_every_metric(w: Workload) {
    let seed = w.default_seed();
    let r = run(w, Size::Tiny, seed, 0.0).expect("tiny run");
    assert_eq!(r.failed, 0, "{}: tiny run failed a check", w.name());
    assert_eq!(
        names(r.metrics.iter().map(|s| s.metric.name)),
        names(END_TO_END.iter().map(|m| m.name))
    );
    let text = run_text(&r);
    assert!(
        text.ends_with("}\n")
            && text
                .lines()
                .last()
                .unwrap()
                .starts_with("{\"correct\": true")
    );
    let saved = parse_run(&text).expect("run output reads back");
    assert_eq!(saved.workload, w.name());
    assert_eq!(saved.values.len(), END_TO_END.len());

    let t = trace(w, Size::Tiny, seed).expect("tiny trace");
    assert_eq!(t.failed, 0, "{}: tiny trace failed a check", w.name());
    assert_eq!(
        names(t.values.iter().map(|(m, _)| m.name)),
        names(PER_LAYER.iter().map(|m| m.name))
    );
    let text = trace_text(&t);
    for m in PER_LAYER {
        assert!(text.contains(&format!("\"{}\": {{\"value\": ", m.name)));
    }
}

#[test]
fn paper_suite_emits_every_metric() {
    assert_emits_every_metric(Workload::PaperSuite);
}

#[test]
fn fault_campaign_emits_every_metric() {
    assert_emits_every_metric(Workload::FaultCampaign);
}

#[test]
fn fuzz_sweep_emits_every_metric() {
    assert_emits_every_metric(Workload::FuzzSweep);
}

#[test]
fn long_run_emits_every_metric() {
    assert_emits_every_metric(Workload::LongRun);
}

#[test]
fn every_spec_workload_exists() {
    let spec_names = names(spec::WORKLOADS.iter().map(|w| w.name));
    assert_eq!(spec_names, names(Workload::ALL.iter().map(|w| w.name())));
}

#[test]
fn an_altered_expected_row_is_a_failed_op() {
    let mut inputs = Workload::PaperSuite.setup(Size::Tiny, 0).expect("set-up");
    assert_eq!(round(&inputs, None, &mut Untimed).failed, 0);
    let (_, fig6) = inputs
        .expected
        .iter_mut()
        .find(|(name, _)| *name == "BENCH_fig6.json")
        .expect("fig6 is a reference");
    let row = fig6
        .lines()
        .find(|l| l.contains("\"bench\": \"perl\""))
        .expect("perl row")
        .to_string();
    *fig6 = fig6.replace(&row, &row.replace("\"slip_ipc\": ", "\"slip_ipc\": 1"));
    assert_eq!(round(&inputs, None, &mut Untimed).failed, 1);
}

#[test]
fn an_altered_golden_state_is_a_failed_op() {
    let mut inputs = Workload::LongRun.setup(Size::Tiny, 0).expect("set-up");
    assert_eq!(round(&inputs, None, &mut Untimed).failed, 0);
    let r1 = inputs.goldens[0].reg(Reg::new(1));
    inputs.goldens[0].set_reg(Reg::new(1), r1 ^ 1);
    assert_eq!(round(&inputs, None, &mut Untimed).failed, 1);
}

#[test]
fn a_long_run_timed_in_slices_simulates_the_same_run() {
    let program = &Workload::LongRun.programs(Size::Tiny, 0, false)[0].program;
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut whole = SlipstreamProcessor::new(cfg.clone(), program);
    assert!(whole.run(MAX_CYCLES));
    // Slices far shorter than the benchmark's, so that the run stops
    // mid-window many times.
    let mut sliced = SlipstreamProcessor::new(cfg, program);
    let mut budget = 0;
    while !sliced.halted() && budget < MAX_CYCLES {
        budget += 997;
        sliced.run(budget);
    }
    assert!(budget > 10 * 997, "the run took too few slices");
    assert_eq!(sliced.stats(), whole.stats());
}

#[test]
fn a_site_that_differs_from_the_warm_up_is_a_failed_op() {
    let inputs = Workload::FaultCampaign
        .setup(Size::Tiny, 7)
        .expect("set-up");
    let mut warm = round(&inputs, None, &mut Untimed);
    assert_eq!(warm.failed, 0);
    assert_eq!(round(&inputs, Some(&warm), &mut Untimed).failed, 0);
    warm.sites[0].cycles += 1;
    assert_eq!(round(&inputs, Some(&warm), &mut Untimed).failed, 1);
}

#[test]
fn an_r_stream_fault_that_loops_forever_is_a_legitimate_outcome() {
    // Seed 15 puts an R-stream fault in vortex that sends it into an
    // endless loop; the watchdog budget ends it within a few sites' time.
    let inputs = Workload::FaultCampaign
        .setup(Size::Full, 15)
        .expect("set-up");
    let r = round(&inputs, None, &mut Untimed);
    assert_eq!(r.failed, 0);
    let hang = r
        .sites
        .iter()
        .find(|s| s.outcome == FaultOutcome::Hang)
        .expect("seed 15 has an endless-loop site");
    assert_eq!(hang.site.target, FaultTarget::RStream);
    // The same outcome of an A-stream fault would be a simulator bug.
    assert!(!fault_outcome_ok(FaultTarget::AStream, FaultOutcome::Hang));
    assert!(!fault_outcome_ok(
        FaultTarget::AStream,
        FaultOutcome::SilentCorruption
    ));
}

/// Ten synthetic runs of one workload, `scale` times a jittered base.
fn synthetic_runs(dir: &Path, scale_ops: f64) {
    std::fs::create_dir_all(dir).expect("create run dir");
    for i in 0..10 {
        let jitter = 1.0 + 0.002 * (i as f64 - 4.5);
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let base = match m.name {
                    "ops_per_s" => 100.0 * scale_ops,
                    "setup_s" => 0.5,
                    _ => 40.0,
                };
                let v = base * jitter;
                Summary {
                    metric: m,
                    value: v,
                    median: v,
                    p25: v,
                    p75: v,
                    n: 9,
                }
            })
            .collect();
        let report = RunReport {
            workload: "long_run",
            seed: i,
            ops: 9,
            failed: 0,
            metrics,
            anchor_s: 0.085,
            page_faults_per_round: 0.0,
        };
        std::fs::write(dir.join(format!("run{i:02}.txt")), run_text(&report)).expect("write run");
    }
}

fn verdict(dir: &Path, change_scale: f64, metric: &str) -> Verdict {
    let parent = dir.join("parent");
    let change = dir.join(format!("change{change_scale}"));
    synthetic_runs(&parent, 1.0);
    synthetic_runs(&change, change_scale);
    let comparisons = compare(
        &read_runs(&parent).expect("read parent"),
        &read_runs(&change).expect("read change"),
    )
    .expect("compare");
    comparisons
        .iter()
        .find(|c| c.metric.name == metric)
        .expect("metric compared")
        .verdict
}

#[test]
fn compare_flags_a_regression_beyond_the_bound_only() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-compare");
    let bound = spec::end_to_end("ops_per_s")
        .and_then(|m| m.bound)
        .expect("bound");
    // A drop 5 points beyond the bound is flagged; a 5 % drop is not.
    assert_eq!(verdict(&dir, 0.95 - bound, "ops_per_s"), Verdict::Regressed);
    assert_eq!(verdict(&dir, 0.95, "ops_per_s"), Verdict::WithinBound);
    assert_eq!(verdict(&dir, 0.95, "setup_s"), Verdict::WithinBound);
    assert_eq!(verdict(&dir, 1.15, "ops_per_s"), Verdict::Improved);
}

#[test]
fn compare_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
    let m = spec::end_to_end("ops_per_s").expect("metric");
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
    // Better median, but only half the pairs won: no gain is claimed.
    let mixed: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 120.0 } else { 90.0 })
        .collect();
    assert_eq!(judge("w", m, &parent, &mixed).verdict, Verdict::WithinBound);
    // Every pair won, but by less than the parent's interquartile range.
    let close: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
    assert_eq!(judge("w", m, &parent, &close).verdict, Verdict::WithinBound);
    // Fewer than ten pairs never show a gain.
    let fast: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
    assert_eq!(
        judge("w", m, &parent[..9], &fast[..9]).verdict,
        Verdict::WithinBound
    );
    assert_eq!(judge("w", m, &parent, &fast).verdict, Verdict::Improved);
    // A parent spread wider than the bound leaves the metric unresolved.
    let noisy: Vec<f64> = (0..10).map(|i| 60.0 + 10.0 * f64::from(i)).collect();
    assert_eq!(judge("w", m, &noisy, &noisy).verdict, Verdict::Unresolved);
}
