//! Figure 5 at campaign scale: a parallel, deterministic fault-injection
//! sweep over all eight benchmarks × both streams.
//!
//! Enumerates N distinct (dynamic-instruction, bit) injection sites per
//! benchmark × target from the seeded xorshift64* PRNG, runs each
//! benchmark's sites on a `std::thread` worker pool (each site forked from
//! a fault-free leader processor rather than simulated from cycle 0), and
//! writes the outcome distribution plus the campaign's own wall-clock
//! throughput to `BENCH_fault_campaign.json`.
//!
//! ```text
//! fault_campaign [--sites N] [--workers W] [--scale S] [--seed X]
//!                [--out PATH] [--smoke] [--scaling-probe]
//!                [--trace DIR] [--trace-bench NAME] [--ring N]
//!                [--metrics-interval N] [--telemetry PATH]
//! ```
//!
//! `--smoke` runs the reduced-scale CI gate (≤ 10 s): same code path, few
//! sites, small workloads, sanity assertions that fail the build on
//! fault-path regressions, and no JSON artifact unless `--out` is given.
//! `--scaling-probe` reruns the same site set at 1 and `--workers` threads
//! and reports the wall-clock speedup. `--trace DIR` re-runs the first
//! detected+recovered site of `--trace-bench` (default: the first
//! benchmark) for each target with the flight recorder frozen just after
//! the detection, and writes its run file `DIR/fault_<bench>_<A|R>.jsonl`
//! (event rows, plus sample rows when `--metrics-interval` is nonzero)
//! and the Perfetto rendering `.chrome.json` next to it. `--telemetry PATH`
//! collects host telemetry (per-site spans, campaign counters, worker
//! gauge) during the sweep and writes it to `PATH` as JSONL for
//! `report`.

use std::path::PathBuf;

use slipstream_bench::{
    json, print_campaign_table, run_campaign, run_campaign_telemetry, target_label, to_jsonl,
    trace_first_detection, write_run, CampaignConfig, CampaignResult, RunFile, TARGETS,
};
use slipstream_core::telemetry::{RunManifest, Telemetry};
use slipstream_core::{ExecMode, FaultTarget, TraceConfig};
use slipstream_workloads::BENCHMARK_NAMES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--smoke` selects the *base* config regardless of where it appears
    // on the command line; every explicit flag then overlays it, so flag
    // behavior is order-independent.
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut cfg = if smoke {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::full()
    };
    let mut out: Option<String> = if smoke {
        None
    } else {
        Some("BENCH_fault_campaign.json".to_string())
    };
    let mut scaling_probe = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut trace_bench = BENCHMARK_NAMES[0];
    let mut ring = 65_536usize;
    let mut metrics_interval = 0u64;
    let mut tel_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--smoke" => {
                i += 1;
            }
            "--sites" => {
                cfg.sites_per_target = value(i).parse().expect("--sites: integer");
                i += 2;
            }
            "--workers" => {
                cfg.workers = value(i)
                    .parse::<usize>()
                    .expect("--workers: integer")
                    .max(1);
                i += 2;
            }
            "--scale" => {
                cfg.scale = value(i).parse().expect("--scale: number");
                i += 2;
            }
            "--seed" => {
                cfg.seed = value(i).parse().expect("--seed: integer");
                i += 2;
            }
            "--out" => {
                out = Some(value(i).clone());
                i += 2;
            }
            "--scaling-probe" => {
                scaling_probe = true;
                i += 1;
            }
            "--trace" => {
                trace_dir = Some(PathBuf::from(value(i)));
                i += 2;
            }
            "--trace-bench" => {
                let name = value(i).as_str();
                trace_bench = BENCHMARK_NAMES
                    .iter()
                    .copied()
                    .find(|b| *b == name)
                    .unwrap_or_else(|| panic!("unknown benchmark {name}"));
                i += 2;
            }
            "--ring" => {
                ring = value(i).parse().expect("--ring: integer");
                i += 2;
            }
            "--metrics-interval" => {
                metrics_interval = value(i).parse().expect("--metrics-interval: integer");
                i += 2;
            }
            "--telemetry" => {
                tel_path = Some(value(i).clone());
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    eprintln!(
        "fault campaign: {} benchmarks x {} targets x {} sites (scale {}, seed {:#x}, {} workers)",
        BENCHMARK_NAMES.len(),
        TARGETS.len(),
        cfg.sites_per_target,
        cfg.scale,
        cfg.seed,
        cfg.workers,
    );
    let mut tel = tel_path.as_ref().map(|_| Telemetry::new());
    let result = run_campaign_telemetry(&cfg, &BENCHMARK_NAMES, &TARGETS, tel.as_mut());
    print_campaign_table(&result);

    if let (Some(path), Some(tel)) = (&tel_path, &tel) {
        let manifest = RunManifest::new("fault_campaign", "campaign", &format!("{cfg:?}"))
            .label("workers", cfg.workers)
            .label("sites_per_target", cfg.sites_per_target)
            .label("scale", cfg.scale)
            .label("seed", format!("{:#x}", cfg.seed));
        std::fs::write(path, to_jsonl(&tel.snapshot(&manifest).into()))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if smoke {
        smoke_assertions(&result);
        println!("smoke campaign OK");
    }

    if scaling_probe {
        probe_scaling(&cfg);
    }

    if let Some(dir) = trace_dir {
        dump_detection_traces(&cfg, trace_bench, &dir, ring, metrics_interval);
    }

    if let Some(path) = out {
        std::fs::write(&path, full_json(&result)).expect("write campaign JSON");
        eprintln!("wrote {path}");
    }
}

/// For each target, replays `bench`'s first detected+recovered site with
/// the flight recorder frozen just after the detection and writes its run
/// file (plus the Perfetto rendering) into `dir`.
fn dump_detection_traces(
    cfg: &CampaignConfig,
    bench: &'static str,
    dir: &std::path::Path,
    ring: usize,
    metrics_interval: u64,
) {
    let trace = TraceConfig::flight(ring).with_metrics(metrics_interval);
    for target in TARGETS {
        let label = if target == FaultTarget::AStream {
            "A"
        } else {
            "R"
        };
        let Some((site, report, rec)) = trace_first_detection(cfg, bench, target, trace) else {
            eprintln!("trace: no detected+recovered site for {bench} {label}-stream");
            continue;
        };
        eprintln!(
            "trace: {bench} {label}-stream seq {} bit {} — fired @{:?}, detected after {:?} cycles \
             ({} events held, {} dropped)",
            site.seq,
            site.bit,
            report.fired_cycle,
            report.detection_latency,
            rec.events.len(),
            rec.dropped,
        );
        let manifest = RunManifest::new(
            "fault_campaign",
            ExecMode::Windowed.label(),
            &format!("{cfg:?}"),
        )
        .label("bench", bench)
        .label("target", label)
        .label("seq", site.seq)
        .label("bit", site.bit);
        let run = RunFile {
            snapshot: Telemetry::new().snapshot(&manifest),
            recording: rec,
        };
        write_run(dir, &format!("fault_{bench}_{label}"), &run)
            .unwrap_or_else(|e| panic!("trace: {e}"));
    }
}

/// Sanity invariants cheap enough for CI; a violation is a fault-path
/// regression, so panic (non-zero exit) fails the build.
fn smoke_assertions(result: &CampaignResult) {
    let totals = result.totals();
    assert_eq!(totals.hangs, 0, "no smoke run may exceed its cycle budget");
    assert!(
        totals.detected_recovered > 0,
        "campaign must observe detection + recovery"
    );
    for s in &result.summaries {
        assert_eq!(
            s.sites,
            s.not_activated + s.detected_recovered + s.masked + s.silent + s.hangs,
            "{} {}: outcome counters must partition the site set",
            s.bench,
            target_label(s.target),
        );
        if s.target == FaultTarget::AStream {
            assert_eq!(
                s.silent, 0,
                "{}: A-stream faults must never corrupt silently (every executed \
                 A-stream value is checked by the R-stream)",
                s.bench,
            );
        }
    }
    assert_eq!(
        totals.latency.n, totals.detected_recovered,
        "every detected+recovered run must report a detection latency"
    );
}

/// Reruns the same site set single-threaded vs the configured pool and
/// reports the speedup (the site enumeration is identical, so the rows
/// are too — only wall-clock changes).
fn probe_scaling(cfg: &CampaignConfig) {
    let mut one = cfg.clone();
    one.workers = 1;
    let serial = run_campaign(&one, &BENCHMARK_NAMES, &TARGETS);
    let pooled = run_campaign(cfg, &BENCHMARK_NAMES, &TARGETS);
    assert_eq!(
        serial.rows_json(),
        pooled.rows_json(),
        "campaign rows must be worker-count independent"
    );
    println!(
        "scaling probe: 1 worker {:.2}s, {} workers {:.2}s — {:.2}x speedup",
        serial.elapsed_seconds,
        cfg.workers,
        pooled.elapsed_seconds,
        serial.elapsed_seconds / pooled.elapsed_seconds.max(1e-9),
    );
}

/// The JSON document: campaign parameters, wall-clock throughput of the
/// sweep itself, per-target rows, and whole-campaign totals.
fn full_json(result: &CampaignResult) -> String {
    let cfg = &result.config;
    let totals = result.totals();
    let throughput = json::Obj::new()
        .f64("elapsed_seconds", result.elapsed_seconds, 3)
        .raw("runs", result.runs())
        .f64("runs_per_sec", result.runs_per_sec(), 2)
        .raw("sim_cycles", result.sim_cycles())
        .f64(
            "sim_cycles_per_sec",
            result.sim_cycles() as f64 / result.elapsed_seconds.max(1e-9),
            0,
        )
        .finish();
    let totals_obj = json::Obj::new()
        .raw("sites", totals.sites)
        .raw("not_activated", totals.not_activated)
        .raw("activated", totals.activated())
        .raw("detected_recovered", totals.detected_recovered)
        .raw("masked", totals.masked)
        .raw("silent_corruption", totals.silent)
        .raw("hangs", totals.hangs)
        .f64(
            "rate_detected_recovered",
            totals.rate(totals.detected_recovered),
            4,
        )
        .f64("rate_masked", totals.rate(totals.masked), 4)
        .f64("rate_silent", totals.rate(totals.silent), 4)
        .f64("detection_latency_mean_cycles", totals.latency.mean(), 2)
        .finish();
    format!(
        "{{\n  \"seed\": {}, \"scale\": {}, \"sites_per_target\": {}, \"workers\": {},\n  \
         \"throughput\": {},\n  \"rows\": {},\n  \"totals\": {}\n}}\n",
        cfg.seed,
        cfg.scale,
        cfg.sites_per_target,
        cfg.workers,
        throughput,
        result.rows_json(),
        totals_obj,
    )
}
