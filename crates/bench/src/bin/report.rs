//! The run report: records one run into its run file, or reads run files
//! back and reports them.
//!
//! ```text
//! report --bench NAME [--scale S] [--ring N] [--metrics-interval N] [--out-dir DIR]
//! report FILES... [--cpi PATH]
//! report --smoke [--cpi PATH]
//! report --gate-summary FILE
//! ```
//!
//! - `--bench NAME` runs one benchmark on CMP(2x64x4) under the windowed
//!   scheduler with the flight recorder and host telemetry both on
//!   (defaults: scale 0.2, a 65536-event ring per sink, one sample every
//!   10000 cycles), writes `DIR/trace_<bench>.jsonl` and its Perfetto
//!   rendering `DIR/trace_<bench>.chrome.json` (default `DIR`: `.`), and
//!   prints that file's report.
//! - `FILES...` are run files: from `report --bench`, `fault_campaign
//!   --trace/--telemetry`, `throughput --telemetry`, `differential_fuzz
//!   --telemetry`, `cpi_stack --telemetry`, or `scripts/check.sh`'s gate
//!   log. For each file the report prints the host span attribution, the
//!   simulated CPI stack (summed from the file's `sample` rows, else from
//!   the committed `BENCH_cpi_stack.json`, or `--cpi PATH`, when present),
//!   and the pipeview of the flight-recorder window when the file has
//!   `event` rows. An explicit `--cpi` that cannot be read is an error.
//! - `--smoke` is the CI gate: a small traced windowed run and a
//!   telemetry-only threaded run, each written, read back, and checked to
//!   re-render byte-identically and to attribute its `run_total`, then
//!   reported together. It fails without the committed
//!   `BENCH_throughput.json` calibration row or the CPI-stack document.
//!   Artifacts land in `report_smoke/`.
//! - `--gate-summary FILE` prints the per-gate wall-time table from the
//!   span log `scripts/check.sh` appends while running its gates.
//!
//! A malformed command line — including a flag the chosen mode does not
//! read — prints the usage and exits with status 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use slipstream_bench::{
    chrome_trace_json, command_line, committed_calibration, committed_cpi_section, exclusive_spans,
    json, parse_jsonl, parse_number, parse_scale, report_text, to_jsonl, write_run, RunFile,
    MAX_CYCLES,
};
use slipstream_core::telemetry::RunManifest;
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor, TraceConfig};
use slipstream_workloads::{benchmark, BENCHMARK_NAMES};

const USAGE: &str = "usage: report --bench NAME [--scale S] [--ring N] [--metrics-interval N] \
                     [--out-dir DIR]\n       report FILES... [--cpi PATH]\n       \
                     report --smoke [--cpi PATH]\n       report --gate-summary FILE";

/// Where `--smoke` writes its artifacts.
const SMOKE_DIR: &str = "report_smoke";

/// The committed CPI-stack document the report falls back to.
const DEFAULT_CPI: &str = "BENCH_cpi_stack.json";

/// The command line.
struct Args {
    bench: Option<String>,
    scale: f64,
    ring: usize,
    metrics_interval: u64,
    out_dir: PathBuf,
    cpi: Option<String>,
    smoke: bool,
    gate_summary: Option<String>,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        bench: None,
        scale: 0.2,
        ring: 65_536,
        metrics_interval: 10_000,
        out_dir: PathBuf::from("."),
        cpi: None,
        smoke: false,
        gate_summary: None,
        files: Vec::new(),
    };
    // The first flag given that only `--bench` reads.
    let mut bench_only = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--bench" => args.bench = Some(value()?.clone()),
            "--scale" => args.scale = parse_scale(flag, value()?)?,
            "--ring" => args.ring = parse_number(flag, value()?)?,
            "--metrics-interval" => args.metrics_interval = parse_number(flag, value()?)?,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--cpi" => args.cpi = Some(value()?.clone()),
            "--gate-summary" => args.gate_summary = Some(value()?.clone()),
            "--smoke" => args.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown argument {other}")),
            file => args.files.push(file.to_string()),
        }
        if matches!(
            flag.as_str(),
            "--scale" | "--ring" | "--metrics-interval" | "--out-dir"
        ) {
            bench_only.get_or_insert(flag);
        }
    }
    let modes = [
        args.bench.is_some(),
        !args.files.is_empty(),
        args.smoke,
        args.gate_summary.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --bench, FILES, --smoke, --gate-summary".to_string());
    }
    if let (None, Some(flag)) = (&args.bench, bench_only) {
        return Err(format!("{flag} applies only to --bench"));
    }
    if args.cpi.is_some() && (args.bench.is_some() || args.gate_summary.is_some()) {
        return Err("--cpi applies only to FILES and --smoke".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = command_line(parse_args, USAGE);
    let result = if let Some(bench) = &args.bench {
        record(bench, &args)
    } else if args.smoke {
        smoke(args.cpi.as_deref())
    } else if let Some(path) = &args.gate_summary {
        gate_summary(path)
    } else {
        report_files(&args.files, args.cpi.as_deref())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads and parses one run file.
fn read_run(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// The rendered committed CPI-stack section: from `cpi` (an error when it
/// cannot be read), else from the committed default when it exists. With
/// `required`, a missing default is an error too.
fn committed_cpi(cpi: Option<&str>, required: bool) -> Result<Option<String>, String> {
    let path = cpi.unwrap_or(DEFAULT_CPI);
    match std::fs::read_to_string(path) {
        Ok(doc) => committed_cpi_section(&doc)
            .map(Some)
            .map_err(|e| format!("{path}: {e}")),
        Err(e) if cpi.is_some() || required => Err(format!("{path}: {e}")),
        Err(_) => Ok(None),
    }
}

/// `report FILES...`.
fn report_files(files: &[String], cpi: Option<&str>) -> Result<(), String> {
    let runs = files
        .iter()
        .map(|path| read_run(path))
        .collect::<Result<Vec<_>, _>>()?;
    print!(
        "{}",
        report_text(&runs, committed_cpi(cpi, false)?.as_deref())
    );
    Ok(())
}

/// One CMP(2x64x4) run of `bench` under `mode` with host telemetry on
/// and, given a trace config, the flight recorder too.
fn run_file(
    bench: &str,
    scale: f64,
    mode: ExecMode,
    trace: Option<TraceConfig>,
    calibration: Option<f64>,
) -> Result<RunFile, String> {
    let w = benchmark(bench, scale).ok_or_else(|| {
        format!(
            "unknown benchmark {bench} (known: {})",
            BENCHMARK_NAMES.join(", ")
        )
    })?;
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let mut proc = SlipstreamProcessor::new(cfg.clone(), &w.program);
    proc.enable_telemetry();
    if let Some(trace) = trace {
        proc.enable_tracing(trace);
    }
    if !proc.run_mode(mode, MAX_CYCLES) {
        return Err(format!("{bench} did not complete"));
    }
    let manifest = RunManifest::new("report", mode.label(), &format!("{cfg:?}"))
        .label("bench", bench)
        .label("scale", scale)
        .calibration(calibration);
    Ok(RunFile {
        snapshot: proc
            .take_telemetry()
            .expect("telemetry was enabled")
            .snapshot(&manifest),
        recording: proc.flight_recording().unwrap_or_default(),
    })
}

/// `report --bench NAME`: record, write, and report the file written.
fn record(bench: &str, args: &Args) -> Result<(), String> {
    let trace = TraceConfig::flight(args.ring).with_metrics(args.metrics_interval);
    let run = run_file(bench, args.scale, ExecMode::Windowed, Some(trace), None)?;
    write_run(&args.out_dir, &format!("trace_{bench}"), &run)?;
    let committed = committed_cpi(None, false)?;
    print!(
        "{}",
        report_text(std::slice::from_ref(&run), committed.as_deref())
    );
    Ok(())
}

/// The scheduler's exclusive spans are recorded and bounded by
/// `run_total`, so named spans plus "other" attribute all of it.
fn check_attribution(stem: &str, run: &RunFile) -> Result<(), String> {
    let snap = &run.snapshot;
    let span = |name: &str| snap.spans.iter().find(|s| s.name == name);
    let run_total = span("run_total")
        .ok_or_else(|| format!("{stem}: no run_total span"))?
        .total_nanos;
    let set = exclusive_spans(&snap.scheduler)
        .ok_or_else(|| format!("{stem}: no exclusive span set for {}", snap.scheduler))?;
    let named: u64 = set
        .iter()
        .filter_map(|n| span(n))
        .map(|s| s.total_nanos)
        .sum();
    if named > run_total {
        return Err(format!(
            "{stem}: exclusive spans ({named} ns) exceed run_total ({run_total} ns)"
        ));
    }
    for required in ["a_window_exec", "r_window_consume", "r_boundary_sync"] {
        if span(required).is_none_or(|s| s.count == 0) {
            return Err(format!("{stem}: span {required} missing"));
        }
    }
    Ok(())
}

/// The `--smoke` gate body.
fn smoke(cpi: Option<&str>) -> Result<(), String> {
    let calibration = std::fs::read_to_string("BENCH_throughput.json")
        .map_err(|e| e.to_string())
        .and_then(|doc| committed_calibration(&doc))
        .map_err(|e| format!("--smoke needs the committed BENCH_throughput.json: {e}"))?;
    let committed = committed_cpi(cpi, true)?;
    let trace = TraceConfig::flight(65_536).with_metrics(1_000);
    let traced = run_file(
        "m88ksim",
        0.05,
        ExecMode::Windowed,
        Some(trace),
        Some(calibration),
    )?;
    if traced.recording.events.is_empty() || traced.recording.samples.is_empty() {
        return Err("the traced run recorded no events or no samples".to_string());
    }
    let threaded = run_file("gcc", 0.2, ExecMode::Threaded, None, Some(calibration))?;
    let mut runs = Vec::new();
    for (stem, run) in [("trace_m88ksim", traced), ("telemetry_threaded", threaded)] {
        let jsonl = write_run(Path::new(SMOKE_DIR), stem, &run)?;
        let parsed = parse_jsonl(&jsonl).map_err(|e| format!("{stem}.jsonl: {e}"))?;
        if to_jsonl(&parsed) != jsonl {
            return Err(format!("{stem}.jsonl does not re-render byte-identically"));
        }
        check_attribution(stem, &parsed)?;
        runs.push(parsed);
    }
    json::validate(&chrome_trace_json(&runs[0].recording))
        .map_err(|e| format!("the Perfetto rendering is not valid JSON: {e}"))?;
    let report = report_text(&runs, committed.as_deref());
    for (want, what) in [
        ("sample rows covering", "the CPI stack from sample rows"),
        ("(BENCH_cpi_stack.json", "the committed CPI stack"),
        ("flight-recorder window", "the pipeview window"),
    ] {
        if !report.contains(want) {
            return Err(format!("the report lacks {what}"));
        }
    }
    if report.matches("= 100.0% of run_total").count() != runs.len() {
        return Err("the report must attribute each run's full run_total".to_string());
    }
    let path = format!("{SMOKE_DIR}/report.txt");
    std::fs::write(&path, &report).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "report --smoke: traced windowed + threaded run files round-tripped and reported \
         — artifacts in {SMOKE_DIR}/"
    );
    Ok(())
}

/// `--gate-summary FILE`: the per-gate wall-time table.
fn gate_summary(path: &str) -> Result<(), String> {
    let snap = read_run(path)?.snapshot;
    let total: u64 = snap.spans.iter().map(|s| s.total_nanos).sum();
    println!("check.sh gate wall-time summary:");
    for s in &snap.spans {
        println!(
            "  {:<32} {:>9.3} s {:>5.1}%",
            s.name,
            s.total_nanos as f64 / 1e9,
            100.0 * s.total_nanos as f64 / total.max(1) as f64,
        );
    }
    println!("  {:<32} {:>9.3} s", "total", total as f64 / 1e9);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    /// Each mode takes only its own flags; bad numbers and unknown or
    /// missing arguments are errors too (main prints the usage, exits 2).
    #[test]
    fn command_lines_outside_the_usage_are_errors() {
        let ok = parse("--bench g --scale 0.5 --ring 9 --metrics-interval 7 --out-dir d").unwrap();
        assert_eq!((ok.scale, ok.ring, ok.metrics_interval), (0.5, 9, 7));
        for line in [
            "a.jsonl b.jsonl --cpi c",
            "--smoke --cpi c",
            "--gate-summary g",
        ] {
            assert!(parse(line).is_ok(), "{line}");
        }
        for (line, want) in [
            ("--smoke --scale 9", "--scale applies only to --bench"),
            ("run.jsonl --ring 5", "--ring applies only"),
            ("--gate-summary f --out-dir d", "--out-dir applies only"),
            ("--smoke --metrics-interval 3", "--metrics-interval applies"),
            ("--bench gcc --cpi c", "--cpi applies only"),
            ("--gate-summary f --cpi c", "--cpi applies only"),
            ("--bench gcc --scale x", "--scale: not a number"),
            ("--bench gcc --ring -1", "--ring: not a number"),
            ("--bench gcc --ring", "--ring needs a value"),
            ("--smoke --verbose", "unknown argument --verbose"),
            ("", "exactly one of"),
            ("--smoke run.jsonl", "exactly one of"),
        ] {
            let e = parse(line).map(|_| ()).expect_err(line);
            assert!(e.contains(want), "{line:?}: {e}");
        }
    }
}
