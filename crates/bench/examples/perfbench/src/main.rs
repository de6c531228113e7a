//! `perfbench` command line; see README.md.
//!
//! ```text
//! perfbench run <workload> [--seed N] [--seconds S]
//! perfbench trace <workload> [--seed N]
//! perfbench --workload <workload> --seed N --seconds S --trace 0|1
//! perfbench spec
//! perfbench compare <parent-dir> <change-dir>
//! ```
//!
//! `run` and `trace` print their metrics, one per line, and end with one
//! JSON line; they exit with 1 if an output check failed. `trace` ignores
//! `--seconds`. `spec` prints `BENCHMARK.json`. `compare` judges saved
//! `run` outputs and exits with 1 if any metric on any workload regressed
//! or is unresolved.

use std::path::Path;
use std::process::ExitCode;

use perfbench::measure;
use perfbench::report::{compare, comparison_text, read_runs, run_text, trace_text, Verdict};
use perfbench::spec::{self, RUN_SECONDS};
use perfbench::workload::{Size, Workload};

const USAGE: &str = "usage: perfbench run|trace <workload> [--seed N] [--seconds S]
       perfbench --workload <workload> [--seed N] [--seconds S] [--trace 0|1]
       perfbench spec
       perfbench compare <parent-dir> <change-dir>";

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    let mut positional: Vec<&str> = Vec::new();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with("--") {
            i += 1;
            let v = value(&args, i, arg)?;
            match arg {
                "--workload" => workload = Some(v),
                "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?),
                "--seconds" => match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                    _ => return Err(format!("--seconds takes a number of seconds, not {v}")),
                },
                "--trace" => {
                    traced = match v {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                _ => return Err(format!("unknown option {arg}")),
            }
        } else {
            positional.push(arg);
        }
        i += 1;
    }
    match positional.as_slice() {
        ["spec"] => {
            print!("{}", spec::benchmark_json());
            return Ok(ExitCode::SUCCESS);
        }
        ["compare", parent, change] => {
            let comparisons = compare(
                &read_runs(Path::new(parent))?,
                &read_runs(Path::new(change))?,
            )?;
            print!("{}", comparison_text(&comparisons));
            let held = comparisons
                .iter()
                .all(|c| matches!(c.verdict, Verdict::WithinBound | Verdict::Improved));
            return Ok(if held {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            });
        }
        [mode @ ("run" | "trace"), name] if workload.is_none() => {
            workload = Some(name);
            traced = *mode == "trace";
        }
        [] => {}
        _ => return Err(format!("unexpected arguments {positional:?}")),
    }
    let name = workload.ok_or("no workload given")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = seed.unwrap_or(w.default_seed());
    let failed = if traced {
        let r = measure::trace(w, Size::Full, seed)?;
        print!("{}", trace_text(&r));
        r.failed
    } else {
        let seconds = seconds.unwrap_or(f64::from(RUN_SECONDS));
        let r = measure::run(w, Size::Full, seed, seconds)?;
        print!("{}", run_text(&r));
        r.failed
    };
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
