//! The run report: records one run into its run file, or reads run files
//! back and reports them.
//!
//! ```text
//! report --bench NAME [--scale S] [--out-dir DIR]
//! report FILES...
//! report --smoke
//! report --gate-summary FILE
//! ```
//!
//! - `--bench NAME` runs one benchmark on CMP(2x64x4) under the windowed
//!   scheduler with the flight recorder (the shared `TRACE` config: a
//!   65536-event ring per sink, one sample every 10000 cycles) and host
//!   telemetry both on (default scale 0.2), writes the run file
//!   `DIR/trace_<bench>.jsonl` (default `DIR`: `.`), and prints its report.
//! - `FILES...` are run files: from `report --bench`, `fault_campaign
//!   --trace`, `differential_fuzz --trace`, or `scripts/check.sh`'s gate
//!   log. Run files are the only input: for each file the report prints
//!   its manifest labels, the host span attribution, the simulated CPI
//!   stack summed from the file's `sample` rows, and the pipeview of the
//!   flight-recorder window when the file has `event` rows.
//! - `--smoke` is the CI gate: a small traced windowed run and a
//!   telemetry-only threaded run, each written, read back, and checked to
//!   re-render byte-identically and to attribute its `run_total`, then
//!   reported together. It reads no committed file. Artifacts land in
//!   `report_smoke/`: the two run files and `report.txt`.
//! - `--gate-summary FILE` prints the per-gate wall-time table from the
//!   span log `scripts/check.sh` appends while running its gates.
//!
//! A malformed command line — including a flag the chosen mode does not
//! read — prints the usage and exits with status 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use slipstream_bench::{
    command_line, exclusive_spans, parse_jsonl, parse_scale, report_text, to_jsonl, write_run,
    RunFile, MAX_CYCLES, TRACE,
};
use slipstream_core::telemetry::RunManifest;
use slipstream_core::{ExecMode, SlipstreamConfig, SlipstreamProcessor, TraceConfig};
use slipstream_workloads::{benchmark, BENCHMARK_NAMES};

const USAGE: &str = "usage: report --bench NAME [--scale S] [--out-dir DIR]\n       \
                     report FILES...\n       report --smoke\n       report --gate-summary FILE";

/// Where `--smoke` writes its artifacts.
const SMOKE_DIR: &str = "report_smoke";

/// The `--smoke` traced run's recorder: [`TRACE`] sampling every 1000
/// cycles, so its short run still yields sample rows.
const SMOKE_TRACE: TraceConfig = TraceConfig {
    metrics_interval: 1_000,
    ..TRACE
};

/// The command line.
struct Args {
    bench: Option<String>,
    scale: f64,
    out_dir: PathBuf,
    smoke: bool,
    gate_summary: Option<String>,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        bench: None,
        scale: 0.2,
        out_dir: PathBuf::from("."),
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
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--gate-summary" => args.gate_summary = Some(value()?.clone()),
            "--smoke" => args.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown argument {other}")),
            file => args.files.push(file.to_string()),
        }
        if matches!(flag.as_str(), "--scale" | "--out-dir") {
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
    Ok(args)
}

fn main() -> ExitCode {
    let args = command_line(parse_args, USAGE);
    let result = if let Some(bench) = &args.bench {
        record(bench, &args)
    } else if args.smoke {
        smoke()
    } else if let Some(path) = &args.gate_summary {
        gate_summary(path)
    } else {
        report_files(&args.files)
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

/// `report FILES...`.
fn report_files(files: &[String]) -> Result<(), String> {
    let runs = files
        .iter()
        .map(|path| read_run(path))
        .collect::<Result<Vec<_>, _>>()?;
    print!("{}", report_text(&runs));
    Ok(())
}

/// One CMP(2x64x4) run of `bench` under `mode` with host telemetry on
/// and, given a trace config, the flight recorder too.
fn run_file(
    bench: &str,
    scale: f64,
    mode: ExecMode,
    trace: Option<TraceConfig>,
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
        .label("scale", scale);
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
    let run = run_file(bench, args.scale, ExecMode::Windowed, Some(TRACE))?;
    write_run(&args.out_dir, &format!("trace_{bench}"), &run)?;
    print!("{}", report_text(std::slice::from_ref(&run)));
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
fn smoke() -> Result<(), String> {
    let traced = run_file("m88ksim", 0.05, ExecMode::Windowed, Some(SMOKE_TRACE))?;
    if traced.recording.events.is_empty() || traced.recording.samples.is_empty() {
        return Err("the traced run recorded no events or no samples".to_string());
    }
    let threaded = run_file("gcc", 0.2, ExecMode::Threaded, None)?;
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
    let report = report_text(&runs);
    for (want, what) in [
        ("sample rows covering", "the CPI stack from sample rows"),
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
        let ok = parse("--bench g --scale 0.5 --out-dir d").unwrap();
        assert_eq!((ok.scale, ok.out_dir), (0.5, PathBuf::from("d")));
        for line in ["a.jsonl b.jsonl", "--smoke", "--gate-summary g"] {
            assert!(parse(line).is_ok(), "{line}");
        }
        for (line, want) in [
            ("--smoke --scale 9", "--scale applies only to --bench"),
            ("--gate-summary f --out-dir d", "--out-dir applies only"),
            ("--bench gcc --scale x", "--scale: not a number"),
            ("--bench gcc --out-dir", "--out-dir needs a value"),
            ("--bench gcc --ring 9", "unknown argument --ring"),
            (
                "--bench gcc --metrics-interval 7",
                "unknown argument --metrics-interval",
            ),
            ("a.jsonl --cpi c", "unknown argument --cpi"),
            ("--smoke --cpi c", "unknown argument --cpi"),
            ("--smoke --verbose", "unknown argument --verbose"),
            ("--telemetry x", "unknown argument --telemetry"),
            ("", "exactly one of"),
            ("--smoke run.jsonl", "exactly one of"),
        ] {
            let e = parse(line).map(|_| ()).expect_err(line);
            assert!(e.contains(want), "{line:?}: {e}");
        }
    }
}
