//! Simulator throughput harness: how fast does the *simulator itself* run?
//!
//! Runs every suite workload to completion on the SS(64x4) baseline and the
//! CMP(2x64x4) slipstream model under each scheduler, timing each run with
//! `std::time::Instant`, and reports simulated instructions/second and
//! cycles/second (best of `reps` runs, to shed warm-up and scheduler
//! noise). Results go to stdout as a table and to `BENCH_throughput.json`
//! for machine consumption.
//!
//! Models:
//! - `calibration` — a fixed, scale-independent arithmetic loop on the
//!   SS(64x4) core; its committed speed anchors the `--smoke` gate's
//!   host normalization
//! - `ss64` — single-core SS(64x4) baseline
//! - `slipstream` — CMP(2x64x4), serial lockstep scheduler
//! - `slipstream-window` — CMP(2x64x4), slack-window scheduler (the
//!   library default)
//! - `slipstream-l2` — CMP(2x64x4) with the shared 512 KB L2 and
//!   bandwidth-limited memory port modeled, slack-window scheduler
//! - `slipstream-threaded` — CMP(2x64x4), the slack-window scheduler with
//!   each window's A-stream cycles on a helper thread
//!
//! Usage: `throughput [scale] [reps] [--smoke]`
//!
//! - `scale` stretches the workload suite (default 1.0), `reps` is runs
//!   per measurement (default 3).
//! - `--smoke` is the CI regression gate: a quick reduced-scale run
//!   (scale 0.2) that does NOT overwrite `BENCH_throughput.json`. Each
//!   model runs the suite `reps` times (default 5), with a host-probe
//!   pass before the first and after every suite pass. Each suite pass is
//!   compared with the committed model speed, normalized by the host
//!   ratio of its two adjacent probe passes, and the gate fails loudly if
//!   a model's median ratio is below 1 / tolerance. The probe runs no
//!   simulator code, so a slowdown of the simulator itself cannot cancel
//!   out of the ratio.
//!
//! A malformed command line prints the usage and exits with status 2.

use std::time::Instant;

use slipstream_bench::{command_line, json, parse_number, parse_scale, MAX_CYCLES};
use slipstream_core::{run_superscalar, ExecMode, SlipstreamConfig, SlipstreamProcessor};
use slipstream_cpu::CoreConfig;
use slipstream_isa::assemble;
use slipstream_workloads::{suite, Workload};

/// Allowed slowdown vs the committed baseline before `--smoke` fails.
/// The probe passes cancel most host-speed variance (a slower CI runner
/// slows the probe and the models alike), and the median over
/// interleaved passes sheds a noisy pass, so the tolerance only has to
/// absorb scheduling jitter — not machine identity. Measured on a shared
/// 2-CPU host: over 10 clean smokes no model's median fell below 0.83,
/// while a `Core::cycle` made ~1.5x slower put at least one model at or
/// below 0.70 in each of 10 smokes.
const SMOKE_TOLERANCE: f64 = 1.33;

/// Host-speed ratios outside this band are treated as suspicious (a
/// broken calibration row, not a slower machine) and clamped so they
/// cannot mask a real regression entirely.
const HOST_RATIO_BAND: (f64, f64) = (0.25, 4.0);

/// Simulated calibration-loop instructions per host-probe operation:
/// the simulator's speed relative to the host, as of the commit that set
/// it (the median of interleaved calibration/probe pairs on a shared
/// 2-CPU host). `--smoke` multiplies a probe pass's speed by it to get
/// the calibration speed an unregressed simulator would reach on the
/// host, which normalizes the committed floors.
const CALIBRATION_PER_PROBE: f64 = 0.0163;

/// Operations in one host-probe pass (about 0.1 s on a 2.x-GHz core).
const PROBE_OPS: u64 = 40_000_000;

/// One timed simulation: what ran, how much it simulated, how long it took.
struct Measurement {
    bench: &'static str,
    model: &'static str,
    instructions: u64,
    cycles: u64,
    /// Best-of-reps wall time in seconds.
    seconds: f64,
    /// Shared-L2 traffic (A + R cores); zero for models without an L2.
    l2_hits: u64,
    /// Shared-L2 misses (A + R cores).
    l2_misses: u64,
    /// Cycles L2 misses spent queued on the busy memory port (A + R).
    port_stall_cycles: u64,
}

impl Measurement {
    fn instrs_per_sec(&self) -> f64 {
        self.instructions as f64 / self.seconds
    }

    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.seconds
    }
}

/// Times `f` `reps` times and keeps the fastest run's wall time, trusting
/// `f` to return the same counters every repetition.
fn best_of<F: FnMut() -> (u64, u64, [u64; 3])>(reps: u32, mut f: F) -> (u64, u64, [u64; 3], f64) {
    let mut best = f64::INFINITY;
    let mut counts = (0, 0, [0; 3]);
    for _ in 0..reps {
        let start = Instant::now();
        counts = std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    (counts.0, counts.1, counts.2, best)
}

/// The models to measure, in output order: name, scheduler (None = the
/// single-core baseline), and whether the shared-L2 memory system is on.
const MODELS: [(&str, Option<ExecMode>, bool); 5] = [
    ("ss64", None, false),
    ("slipstream", Some(ExecMode::Serial), false),
    ("slipstream-window", Some(ExecMode::Windowed), false),
    ("slipstream-l2", Some(ExecMode::Windowed), true),
    ("slipstream-threaded", Some(ExecMode::Threaded), false),
];

/// The host-speed probe: a fixed arithmetic loop whose simulated work is
/// independent of `scale`, so its instrs/s measures only the machine (and
/// build) running the simulator. `--smoke` divides measured by committed
/// calibration speed to normalize every other model's floor.
fn calibration(reps: u32) -> Measurement {
    let src = "
        li r1, 200000
    loop:
        xor r2, r2, r1
        add r3, r3, r2
        slli r4, r3, 1
        srli r5, r4, 2
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    ";
    let p = assemble(src).expect("calibration loop assembles");
    let cfg = SlipstreamConfig::cmp_2x64x4();
    let (instructions, cycles, _, seconds) = best_of(reps, || {
        let stats = run_superscalar(CoreConfig::ss_64x4(), cfg.trace_pred, &p, MAX_CYCLES);
        assert!(stats.halted, "calibration loop did not complete");
        (stats.core.retired, stats.core.cycles, [0; 3])
    });
    Measurement {
        bench: "calibration",
        model: "calibration",
        instructions,
        cycles,
        seconds,
        l2_hits: 0,
        l2_misses: 0,
        port_stall_cycles: 0,
    }
}

/// The host-speed probe behind `--smoke`: fixed integer work (xorshift
/// steps, data-dependent branches and updates of a 32 KiB table) that
/// runs no simulator code. Returns operations per second.
fn host_probe() -> f64 {
    let mut table = [0u64; 4096];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let start = Instant::now();
    for i in 0..PROBE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & (table.len() - 1);
        if x & 1 == 0 {
            table[slot] = table[slot].wrapping_add(i);
        } else {
            table[slot] ^= x;
        }
    }
    std::hint::black_box(&table);
    PROBE_OPS as f64 / start.elapsed().as_secs_f64()
}

fn measure(
    w: &Workload,
    cfg: &SlipstreamConfig,
    model: &'static str,
    mode: Option<ExecMode>,
    shared_l2: bool,
    reps: u32,
) -> Measurement {
    let cfg = if shared_l2 {
        SlipstreamConfig::cmp_shared_l2()
    } else {
        cfg.clone()
    };
    let (instructions, cycles, l2, seconds) = match mode {
        None => best_of(reps, || {
            let stats = run_superscalar(
                CoreConfig::ss_64x4(),
                cfg.trace_pred,
                &w.program,
                MAX_CYCLES,
            );
            assert!(stats.halted, "{}: SS(64x4) did not complete", w.name);
            (stats.core.retired, stats.core.cycles, [0; 3])
        }),
        Some(mode) => best_of(reps, || {
            let mut proc = SlipstreamProcessor::new(cfg.clone(), &w.program);
            assert!(
                proc.run_mode(mode, MAX_CYCLES),
                "{}: {model} did not complete",
                w.name
            );
            let stats = proc.stats();
            // Count work on both cores: the simulator executes A- and
            // R-stream instructions even though IPC only counts R.
            (
                stats.a_retired + stats.r_retired,
                stats.cycles,
                [
                    stats.a_core.l2_hits + stats.r_core.l2_hits,
                    stats.a_core.l2_misses + stats.r_core.l2_misses,
                    stats.a_core.port_stall_cycles + stats.r_core.port_stall_cycles,
                ],
            )
        }),
    };
    Measurement {
        bench: w.name,
        model,
        instructions,
        cycles,
        seconds,
        l2_hits: l2[0],
        l2_misses: l2[1],
        port_stall_cycles: l2[2],
    }
}

/// Per-model totals (instructions, seconds) over a row set.
fn model_totals<'a>(rows: impl Iterator<Item = &'a Measurement>) -> Vec<(&'static str, u64, f64)> {
    let mut totals: Vec<(&'static str, u64, f64)> = Vec::new();
    for r in rows {
        match totals.iter_mut().find(|(m, _, _)| *m == r.model) {
            Some(t) => {
                t.1 += r.instructions;
                t.2 += r.seconds;
            }
            None => totals.push((r.model, r.instructions, r.seconds)),
        }
    }
    totals
}

/// Per-model (instructions, seconds) totals from the `model_totals` of a
/// committed `BENCH_throughput.json`. Any missing or non-numeric field is
/// an error: the smoke gate must not compare against a guess.
fn committed_model_totals(doc: &str) -> Result<Vec<(String, u64, f64)>, String> {
    let doc = json::parse(doc)?;
    let totals = doc
        .get("model_totals")
        .and_then(json::Value::as_arr)
        .ok_or("no model_totals array")?;
    totals
        .iter()
        .map(|t| {
            let field = |key: &str| t.get(key).ok_or(format!("model_totals row without {key}"));
            let model = field("model")?.as_str().ok_or("model is not a string")?;
            let instrs = field("instructions")?
                .as_u64()
                .ok_or(format!("{model}: instructions is not an integer"))?;
            let secs = field("seconds")?
                .as_f64()
                .filter(|s| *s > 0.0)
                .ok_or(format!("{model}: seconds is not a positive number"))?;
            Ok((model.to_string(), instrs, secs))
        })
        .collect()
}

/// The `--smoke` speed gate (see the module docs). A probe pass runs
/// before each model's first suite pass and after every suite pass, so
/// every suite pass sits between two probe passes taken moments apart on
/// the same host; the mean of their host ratios is its anchor. A model
/// passes when the median of its normalized speeds clears
/// `1 / SMOKE_TOLERANCE`.
fn smoke_gate(workloads: &[Workload], cfg: &SlipstreamConfig, reps: u32) {
    let doc = std::fs::read_to_string("BENCH_throughput.json")
        .expect("--smoke needs the committed BENCH_throughput.json in the working directory");
    let committed = committed_model_totals(&doc)
        .unwrap_or_else(|e| panic!("committed BENCH_throughput.json: {e}"));
    let speed = |model: &str| {
        committed
            .iter()
            .find(|(m, _, _)| m == model)
            .map(|&(_, i, s)| i as f64 / s)
    };
    let committed_cal = speed("calibration")
        .expect("committed BENCH_throughput.json has no calibration model total");
    // Each probe pass's host ratio: the calibration speed it implies over
    // the committed calibration speed.
    let mut host_ratios = Vec::new();
    let mut host_ratio = || {
        let raw = host_probe() * CALIBRATION_PER_PROBE / committed_cal;
        host_ratios.push(raw);
        raw.clamp(HOST_RATIO_BAND.0, HOST_RATIO_BAND.1)
    };
    let mut failures = Vec::new();
    let mut checked = 0;
    let mut before = host_ratio();
    for (model, mode, shared_l2) in MODELS {
        let Some(committed_speed) = speed(model) else {
            continue; // model not in the committed file
        };
        let mut ratios: Vec<f64> = (0..reps)
            .map(|_| {
                let (instrs, secs) = workloads
                    .iter()
                    .map(|w| measure(w, cfg, model, mode, shared_l2, 1))
                    .fold((0, 0.0), |(i, s), m| (i + m.instructions, s + m.seconds));
                let after = host_ratio();
                let ratio = instrs as f64 / secs / committed_speed / ((before + after) / 2.0);
                before = after;
                ratio
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        checked += 1;
        println!(
            "smoke       {model:<20} median ratio {median:.3} over {reps} passes \
             ({:.3}..{:.3}; floor {:.3})",
            ratios[0],
            ratios[ratios.len() - 1],
            1.0 / SMOKE_TOLERANCE
        );
        if median * SMOKE_TOLERANCE < 1.0 {
            failures.push(format!(
                "{model}: median speed {median:.3} x committed (host-normalized) is below \
                 1 / tolerance {SMOKE_TOLERANCE}"
            ));
        }
    }
    host_ratios.sort_by(f64::total_cmp);
    println!(
        "smoke       host ratio {:.3}..{:.3} (median {:.3}) over {} probe passes",
        host_ratios[0],
        host_ratios[host_ratios.len() - 1],
        host_ratios[host_ratios.len() / 2],
        host_ratios.len()
    );
    assert!(checked > 0, "no committed model matched a measured model");
    assert!(
        failures.is_empty(),
        "simulator throughput regression:\n  {}",
        failures.join("\n  ")
    );
    println!("smoke       OK — {checked} models within {SMOKE_TOLERANCE}x of committed speed");
}

const USAGE: &str = "usage: throughput [scale] [reps] [--smoke]";

/// The command line.
#[derive(Default)]
struct Args {
    scale: Option<f64>,
    reps: Option<u32>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    for arg in argv {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag}")),
            s if args.scale.is_none() => args.scale = Some(parse_scale("scale", s)?),
            s if args.reps.is_none() => args.reps = Some(parse_number("reps", s)?),
            s => return Err(format!("unexpected argument {s}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = command_line(parse_args, USAGE);
    let smoke = args.smoke;
    let scale = args.scale.unwrap_or(if smoke { 0.2 } else { 1.0 });
    let reps = args.reps.unwrap_or(if smoke { 5 } else { 3 }).max(1);

    let workloads = suite(scale);
    let cfg = SlipstreamConfig::cmp_2x64x4();
    if smoke {
        smoke_gate(&workloads, &cfg, reps);
        return;
    }
    let mut rows: Vec<Measurement> = Vec::new();

    println!(
        "{:<11} {:<20} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "benchmark", "model", "instrs", "cycles", "wall s", "instrs/s", "cycles/s"
    );
    // The calibration row runs at every scale, smoke or not, so the
    // committed file and the smoke pass always have a host-speed anchor.
    rows.push(calibration(reps));
    for w in &workloads {
        for (model, mode, shared_l2) in MODELS {
            rows.push(measure(w, &cfg, model, mode, shared_l2, reps));
        }
    }
    for r in &rows {
        println!(
            "{:<11} {:<20} {:>12} {:>12} {:>9.3} {:>12.0} {:>12.0}",
            r.bench,
            r.model,
            r.instructions,
            r.cycles,
            r.seconds,
            r.instrs_per_sec(),
            r.cycles_per_sec()
        );
    }
    let l2_total: (u64, u64, u64) =
        rows.iter()
            .filter(|r| r.model == "slipstream-l2")
            .fold((0, 0, 0), |acc, r| {
                (
                    acc.0 + r.l2_hits,
                    acc.1 + r.l2_misses,
                    acc.2 + r.port_stall_cycles,
                )
            });
    println!(
        "l2          {:<20} {} hits, {} misses, {} port-stall cycles",
        "slipstream-l2", l2_total.0, l2_total.1, l2_total.2
    );

    let totals = model_totals(rows.iter());
    for &(model, instrs, secs) in &totals {
        println!(
            "{:<11} {:<20} {:>12} {:>12} {:>9.3} {:>12.0}",
            "TOTAL",
            model,
            instrs,
            "",
            secs,
            instrs as f64 / secs
        );
    }
    if let Some(&(_, base_i, base_s)) = totals.iter().find(|(m, _, _)| *m == "slipstream") {
        let base = base_i as f64 / base_s;
        for &(model, i, s) in &totals {
            if model.starts_with("slipstream-") {
                println!(
                    "speedup     {:<20} {:>6.2}x vs serial slipstream",
                    model,
                    (i as f64 / s) / base
                );
            }
        }
    }

    // Hand-rolled JSON via the shared helpers: the workspace has no serde
    // (and no registry access).
    let rows_json = json::array(
        rows.iter().map(|r| {
            json::Obj::new()
                .str("bench", r.bench)
                .str("model", r.model)
                .raw("instructions", r.instructions)
                .raw("cycles", r.cycles)
                .raw("l2_hits", r.l2_hits)
                .raw("l2_misses", r.l2_misses)
                .raw("port_stall_cycles", r.port_stall_cycles)
                .f64("seconds", r.seconds, 6)
                .f64("instrs_per_sec", r.instrs_per_sec(), 0)
                .f64("cycles_per_sec", r.cycles_per_sec(), 0)
                .finish()
        }),
        2,
    );
    let totals_json = json::array(
        totals.iter().map(|&(model, instrs, secs)| {
            json::Obj::new()
                .str("model", model)
                .raw("instructions", instrs)
                .f64("seconds", secs, 6)
                .f64("instrs_per_sec", instrs as f64 / secs, 0)
                .finish()
        }),
        2,
    );
    let doc = format!(
        "{{\n  \"scale\": {scale},\n  \"reps\": {reps},\n  \"rows\": {rows_json},\n  \
         \"model_totals\": {totals_json}\n}}\n"
    );
    std::fs::write("BENCH_throughput.json", doc).expect("write BENCH_throughput.json");
    eprintln!("wrote BENCH_throughput.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    /// Bad positionals and unknown or missing arguments are errors (main
    /// prints the usage, exits 2) instead of panics.
    #[test]
    fn command_lines_outside_the_usage_are_errors() {
        let ok = parse("0.5 2").unwrap();
        assert_eq!((ok.scale, ok.reps), (Some(0.5), Some(2)));
        assert!(!ok.smoke);
        assert_eq!(parse("--smoke").unwrap().scale, None);
        for (line, want) in [
            ("x", "scale: not a number"),
            ("0", "scale: not a positive number"),
            ("1 many", "reps: not a number"),
            ("1 3 7", "unexpected argument 7"),
            ("--telemetry x", "unknown argument --telemetry"),
            ("--parallel", "unknown argument --parallel"),
            (
                "0.5 2 --parallel-cores",
                "unknown argument --parallel-cores",
            ),
        ] {
            let e = parse(line).map(|_| ()).expect_err(line);
            assert!(e.contains(want), "{line:?}: {e}");
        }
    }
}
