//! Differential fuzzing campaign: random programs vs the functional
//! oracle, with automatic test-case minimization.
//!
//! Sweeps thousands of seeded `random_program`s across a worker pool; each
//! program is checked against the standard invariant battery (cycle-level
//! core vs oracle, slipstream under every removal policy with strict +
//! online checks, stats sanity, cycle accounting), one simulation per
//! slipstream configuration. Violations are delta-debugged down to
//! minimal reproducers and printed as assembly; `--emit-corpus` writes
//! them into the regression corpus at `crates/bench/corpus/`.
//!
//! ```text
//! differential_fuzz [--seeds N] [--workers W] [--seed X] [--out PATH]
//!                   [--smoke] [--scaling-probe] [--emit-corpus] [--trace]
//!                   [--corpus DIR] [--replay PATH]
//! ```
//!
//! A malformed command line — an unknown flag, a missing value, or a
//! value that is not a number where one is expected — prints the usage
//! and exits with status 2.
//!
//! `--smoke` runs the reduced-scale CI gate (≤ 10 s): same code path,
//! fewer seeds, smaller programs, corpus replay included, sanity
//! assertions that fail the build on any divergence, and no JSON artifact
//! unless `--out` is given. `--replay PATH` only replays a corpus entry
//! (or a directory of them) and exits. `--scaling-probe` reruns the sweep
//! at 1 worker and asserts the rows are byte-identical. `--trace` writes a
//! flight-recorder trace of each violation's minimized program next to its
//! `.ssir` reproducer, headed by the first divergent event against the
//! functional oracle (implies writing the reproducers too).

use std::path::PathBuf;
use std::process::ExitCode;

use slipstream_bench::{
    command_line, corpus_entry_text, json, parse_number, replay_corpus_dir, replay_corpus_file,
    run_fuzz, write_corpus_traced, FuzzConfig, FuzzResult,
};
use slipstream_core::standard_invariants;

/// The checked-in regression corpus, relative to the workspace root.
const DEFAULT_CORPUS: &str = "crates/bench/corpus";

const USAGE: &str =
    "usage: differential_fuzz [--seeds N] [--workers W] [--seed X] [--out PATH]\n       \
                     [--smoke] [--scaling-probe] [--emit-corpus] [--trace]\n       \
                     [--corpus DIR] [--replay PATH]";

/// The command line.
struct Args {
    cfg: FuzzConfig,
    smoke: bool,
    out: Option<String>,
    corpus: PathBuf,
    emit_corpus: bool,
    trace: bool,
    scaling_probe: bool,
    replay: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    // `--smoke` selects the *base* config regardless of where it appears
    // on the command line; every explicit flag then overlays it, so flag
    // behavior is order-independent.
    let smoke = argv.iter().any(|a| a == "--smoke");
    let mut args = Args {
        cfg: if smoke {
            FuzzConfig::smoke()
        } else {
            FuzzConfig::full()
        },
        smoke,
        out: (!smoke).then(|| "BENCH_fuzz.json".to_string()),
        corpus: corpus_dir(),
        emit_corpus: false,
        trace: false,
        scaling_probe: false,
        replay: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => {}
            "--seeds" => args.cfg.seeds = parse_number(flag, value()?)?,
            "--workers" => args.cfg.workers = parse_number::<usize>(flag, value()?)?.max(1),
            "--seed" => args.cfg.seed = parse_number(flag, value()?)?,
            "--out" => args.out = Some(value()?.clone()),
            "--corpus" => args.corpus = PathBuf::from(value()?),
            "--emit-corpus" => args.emit_corpus = true,
            "--trace" => args.trace = true,
            "--scaling-probe" => args.scaling_probe = true,
            "--replay" => args.replay = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let Args {
        cfg,
        smoke,
        out,
        corpus,
        emit_corpus,
        trace,
        scaling_probe,
        replay,
    } = command_line(parse_args, USAGE);

    if let Some(path) = replay {
        return replay_only(&path);
    }

    eprintln!(
        "differential fuzz: {} seeds x {} invariants (master seed {:#x}, {} workers)",
        cfg.seeds,
        standard_invariants().len(),
        cfg.seed,
        cfg.workers,
    );
    let invariants = standard_invariants();
    let result = run_fuzz(&cfg, &invariants);
    print_report(&result);

    // Replay the checked-in corpus alongside every sweep: old minimized
    // reproducers must stay fixed.
    let replayed = match replay_corpus_dir(&corpus) {
        Ok(n) => {
            println!("corpus replay: {n} entries from {} OK", corpus.display());
            n
        }
        Err(e) => {
            eprintln!("corpus replay FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    if scaling_probe {
        probe_scaling(&cfg, &result);
    }

    if smoke {
        smoke_assertions(&result, replayed);
        println!("smoke fuzz OK");
    }

    if !result.violations.is_empty() {
        for v in &result.violations {
            println!(
                "\nVIOLATION seed {:#x} invariant {} ({} live instrs, shrunk from {}):",
                v.seed, v.invariant, v.minimized_live, v.original_instrs
            );
            print!("{}", corpus_entry_text(v));
        }
        if emit_corpus || trace {
            let paths = write_corpus_traced(&corpus, &result.violations, trace)
                .expect("write corpus entries");
            for p in &paths {
                eprintln!("wrote {}", p.display());
            }
        }
    }

    if let Some(path) = out {
        std::fs::write(&path, full_json(&result)).expect("write fuzz JSON");
        eprintln!("wrote {path}");
    }

    if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolves the checked-in corpus directory from the manifest location, so
/// the binary works from any working directory inside the workspace.
fn corpus_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let local = manifest.join("corpus");
    if local.is_dir() {
        local
    } else {
        PathBuf::from(DEFAULT_CORPUS)
    }
}

fn replay_only(path: &std::path::Path) -> ExitCode {
    let outcome = if path.is_dir() {
        replay_corpus_dir(path).map(|n| format!("{n} entries"))
    } else {
        replay_corpus_file(path).map(|()| "1 entry".to_string())
    };
    match outcome {
        Ok(what) => {
            println!("corpus replay: {what} OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corpus replay FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_report(result: &FuzzResult) {
    println!("{:<26} {:>8} {:>10}", "invariant", "checked", "violations");
    for c in &result.coverage {
        println!("{:<26} {:>8} {:>10}", c.name, c.checked, c.violations);
    }
    println!(
        "fuzz: {} seeds ({} rejected) in {:.2}s ({:.1} seeds/s, {} checks, {} workers)",
        result.seeds.len(),
        result.gen_rejected,
        result.elapsed_seconds,
        result.seeds_per_sec(),
        result.checks(),
        result.config.workers,
    );
}

/// Sanity invariants cheap enough for CI; a violation is a simulator
/// regression, so panic (non-zero exit) fails the build.
fn smoke_assertions(result: &FuzzResult, replayed: usize) {
    assert!(
        result.is_clean(),
        "smoke fuzz found violations — the simulators diverged from the oracle"
    );
    assert_eq!(
        result.gen_rejected, 0,
        "every generated program must terminate functionally"
    );
    for c in &result.coverage {
        assert_eq!(
            c.checked,
            result.seeds.len() as u64,
            "{}: every seed must be checked by every invariant",
            c.name,
        );
    }
    assert!(replayed > 0, "the checked-in corpus must not be empty");
}

/// Reruns the same seed set single-threaded and asserts the deterministic
/// rows are byte-identical — the worker pool must not affect output.
fn probe_scaling(cfg: &FuzzConfig, pooled: &FuzzResult) {
    let mut one = cfg.clone();
    one.workers = 1;
    let invariants = standard_invariants();
    let serial = run_fuzz(&one, &invariants);
    assert_eq!(
        serial.rows_json(),
        pooled.rows_json(),
        "fuzz rows must be worker-count independent"
    );
    println!(
        "scaling probe: 1 worker {:.2}s, {} workers {:.2}s — {:.2}x speedup",
        serial.elapsed_seconds,
        cfg.workers,
        pooled.elapsed_seconds,
        serial.elapsed_seconds / pooled.elapsed_seconds.max(1e-9),
    );
}

/// The JSON document: sweep parameters, wall-clock throughput, and the
/// deterministic per-invariant rows.
fn full_json(result: &FuzzResult) -> String {
    let cfg = &result.config;
    let throughput = json::Obj::new()
        .f64("elapsed_seconds", result.elapsed_seconds, 3)
        .f64("seeds_per_sec", result.seeds_per_sec(), 2)
        .raw("checks", result.checks())
        .finish();
    format!(
        "{{\n  \"seed\": {}, \"seeds\": {}, \"workers\": {}, \"shrink_evals\": {},\n  \
         \"throughput\": {},\n  \"rows\": {}\n}}\n",
        cfg.seed,
        cfg.seeds,
        cfg.workers,
        cfg.shrink_evals,
        throughput,
        result.rows_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    /// Flags overlay the base config in any order; bad numbers and
    /// unknown or missing arguments are errors (main prints the usage,
    /// exits 2).
    #[test]
    fn command_lines_outside_the_usage_are_errors() {
        let ok = parse("--seeds 9 --workers 0 --seed 7 --smoke").unwrap();
        assert_eq!((ok.cfg.seeds, ok.cfg.workers, ok.cfg.seed), (9, 1, 7));
        assert!(ok.smoke && ok.out.is_none());
        assert_eq!(ok.cfg.prog.chunks, FuzzConfig::smoke().prog.chunks);
        let full = parse("--emit-corpus --trace --scaling-probe").unwrap();
        assert_eq!(full.out.as_deref(), Some("BENCH_fuzz.json"));
        assert!(full.emit_corpus && full.trace && full.scaling_probe && !full.smoke);
        let paths = parse("--out o.json --corpus c --replay r.ssir").unwrap();
        assert_eq!(paths.out.as_deref(), Some("o.json"));
        assert_eq!(paths.corpus, PathBuf::from("c"));
        assert_eq!(paths.replay, Some(PathBuf::from("r.ssir")));
        for (line, want) in [
            ("--seeds x", "--seeds: not a number"),
            ("--seeds -1", "--seeds: not a number"),
            ("--workers 2.5", "--workers: not a number"),
            ("--seed 0xf022", "--seed: not a number"),
            ("--seeds", "--seeds needs a value"),
            ("--smoke --replay", "--replay needs a value"),
            ("--verbose", "unknown argument --verbose"),
            ("--telemetry x", "unknown argument --telemetry"),
            ("corpus.ssir", "unknown argument corpus.ssir"),
        ] {
            let e = parse(line).map(|_| ()).expect_err(line);
            assert!(e.contains(want), "{line:?}: {e}");
        }
    }
}
