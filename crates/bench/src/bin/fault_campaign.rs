//! Figure 5 at campaign scale: a parallel, deterministic fault-injection
//! sweep over all eight benchmarks × both streams.
//!
//! Enumerates N distinct (dynamic-instruction, bit) injection sites per
//! benchmark × target from the seeded xorshift64* PRNG, runs each
//! benchmark's single fault-free pass on a `std::thread` worker pool (each
//! site forked from the pass's leader processor rather than simulated from
//! cycle 0), and writes the outcome distribution plus the campaign's own
//! wall-clock throughput to `BENCH_fault_campaign.json`. Writing that file
//! also renders its outcome table into the `campaign_outcomes` region of
//! `EXPERIMENTS.md` (exit 1, naming the region, if the file or a marker is
//! missing).
//!
//! ```text
//! fault_campaign [--sites N] [--workers W] [--scale S] [--seed X]
//!                [--out PATH] [--smoke] [--trace DIR] [--trace-bench NAME]
//! ```
//!
//! `--smoke` runs the reduced-scale CI gate (≤ 10 s): same code path, few
//! sites, small workloads, sanity assertions that fail the build on
//! fault-path regressions, and no JSON artifact unless `--out` is given.
//! The rows do not depend on `--workers`. `--trace DIR` re-runs the first
//! detected+recovered site of `--trace-bench` (default: the first
//! benchmark) for each target under the shared `TRACE` config, with the
//! flight recorder frozen just after the detection, and writes its run
//! file `DIR/fault_<bench>_<A|R>.jsonl` (event and sample rows).

use std::path::PathBuf;

use slipstream_bench::{
    command_line, json, outcome_table, parse_number, parse_scale, print_campaign_table,
    run_campaign, splice_regions, target_label, trace_first_detection, write_run, CampaignConfig,
    CampaignResult, RunFile, OUTCOMES_REGION, TARGETS, TRACE,
};
use slipstream_core::telemetry::{RunManifest, Telemetry};
use slipstream_core::{ExecMode, FaultTarget};
use slipstream_workloads::BENCHMARK_NAMES;

/// The committed campaign document, whose outcome table EXPERIMENTS.md
/// quotes.
const COMMITTED: &str = "BENCH_fault_campaign.json";
const EXPERIMENTS: &str = "EXPERIMENTS.md";

const USAGE: &str = "usage: fault_campaign [--sites N] [--workers W] [--scale S] [--seed X] \
                     [--out PATH] [--smoke] [--trace DIR] [--trace-bench NAME]";

/// The command line.
struct Args {
    cfg: CampaignConfig,
    out: Option<String>,
    smoke: bool,
    trace_dir: Option<PathBuf>,
    trace_bench: &'static str,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    // `--smoke` selects the *base* config regardless of where it appears
    // on the command line; every explicit flag then overlays it, so flag
    // behavior is order-independent.
    let smoke = argv.iter().any(|a| a == "--smoke");
    let mut args = Args {
        cfg: if smoke {
            CampaignConfig::smoke()
        } else {
            CampaignConfig::full()
        },
        out: (!smoke).then(|| COMMITTED.to_string()),
        smoke,
        trace_dir: None,
        trace_bench: BENCHMARK_NAMES[0],
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => {}
            "--sites" => args.cfg.sites_per_target = parse_number(flag, value()?)?,
            "--workers" => args.cfg.workers = parse_number::<usize>(flag, value()?)?.max(1),
            "--scale" => args.cfg.scale = parse_scale(flag, value()?)?,
            "--seed" => args.cfg.seed = parse_number(flag, value()?)?,
            "--out" => args.out = Some(value()?.clone()),
            "--trace" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--trace-bench" => {
                let name = value()?;
                let known = BENCHMARK_NAMES.iter().find(|b| *b == name);
                args.trace_bench = known.ok_or(format!("{flag}: unknown benchmark {name:?}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = command_line(parse_args, USAGE);
    let cfg = &args.cfg;

    eprintln!(
        "fault campaign: {} benchmarks x {} targets x {} sites (scale {}, seed {:#x}, {} workers)",
        BENCHMARK_NAMES.len(),
        TARGETS.len(),
        cfg.sites_per_target,
        cfg.scale,
        cfg.seed,
        cfg.workers,
    );
    let result = run_campaign(cfg, &BENCHMARK_NAMES, &TARGETS);
    print_campaign_table(&result);

    if args.smoke {
        smoke_assertions(&result);
        println!("smoke campaign OK");
    }

    if let Some(dir) = &args.trace_dir {
        dump_detection_traces(cfg, args.trace_bench, dir);
    }

    if let Some(path) = &args.out {
        let doc = full_json(&result);
        std::fs::write(path, &doc).expect("write campaign JSON");
        eprintln!("wrote {path}");
        if path == COMMITTED {
            splice_outcome_table(&doc);
        }
    }
}

/// Renders `doc`'s outcome table into its EXPERIMENTS.md region; a missing
/// file or marker exits with status 1, naming the region.
fn splice_outcome_table(doc: &str) {
    let spliced = json::parse(doc)
        .and_then(|doc| outcome_table(&doc))
        .and_then(|table| {
            let experiments = std::fs::read_to_string(EXPERIMENTS).map_err(|e| e.to_string())?;
            splice_regions(&experiments, &[(OUTCOMES_REGION, table)])
        })
        .unwrap_or_else(|e| {
            eprintln!("fault_campaign: {EXPERIMENTS}: {e}");
            std::process::exit(1)
        });
    std::fs::write(EXPERIMENTS, spliced).unwrap_or_else(|e| panic!("write {EXPERIMENTS}: {e}"));
    eprintln!("wrote {EXPERIMENTS}");
}

/// For each target, replays `bench`'s first detected+recovered site with
/// the flight recorder frozen just after the detection and writes its run
/// file into `dir`.
fn dump_detection_traces(cfg: &CampaignConfig, bench: &'static str, dir: &std::path::Path) {
    for target in TARGETS {
        let label = if target == FaultTarget::AStream {
            "A"
        } else {
            "R"
        };
        let Some((site, report, rec)) = trace_first_detection(cfg, bench, target, TRACE) else {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    /// `--smoke` picks the base config wherever it appears; bad values and
    /// unknown or missing arguments are errors (main prints the usage,
    /// exits 2) instead of panics.
    #[test]
    fn command_lines_outside_the_usage_are_errors() {
        let ok = parse("--sites 5 --workers 0 --trace-bench li --smoke").unwrap();
        let smoke = CampaignConfig::smoke();
        assert_eq!((ok.cfg.sites_per_target, ok.cfg.workers), (5, 1));
        assert_eq!((ok.cfg.scale, ok.trace_bench), (smoke.scale, "li"));
        assert!(ok.smoke && ok.out.is_none());
        let full = parse("").unwrap();
        assert_eq!(full.out.as_deref(), Some("BENCH_fault_campaign.json"));
        for (line, want) in [
            ("--sites x", "--sites: not a number"),
            ("--workers -2", "--workers: not a number"),
            ("--scale 0", "--scale: not a positive number"),
            ("--seed", "--seed needs a value"),
            ("--trace-bench spice", "unknown benchmark \"spice\""),
            ("--smoke --verbose", "unknown argument --verbose"),
            ("--trace t --ring 9", "unknown argument --ring"),
            (
                "--trace t --metrics-interval 7",
                "unknown argument --metrics-interval",
            ),
            ("--telemetry x", "unknown argument --telemetry"),
            ("1000", "unknown argument 1000"),
        ] {
            let e = parse(line).map(|_| ()).expect_err(line);
            assert!(e.contains(want), "{line:?}: {e}");
        }
    }
}
