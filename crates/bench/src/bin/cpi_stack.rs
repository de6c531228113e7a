//! CPI-stack cycle accounting: where every simulated cycle went.
//!
//! Runs the eight-benchmark suite and prints, per benchmark, the CPI
//! stack of the slipstream A-stream and R-stream cores and the SS(64x4)
//! baseline core — every cycle attributed to exactly one exclusive
//! category, with the sum equal to the core's cycle counter (asserted
//! here in release builds, on top of the debug-build online invariant).
//! The suite is then re-run under the `cmp_shared_l2` preset (both cores
//! contending on one shared L2), populating the `l2_port` category. The
//! same data is written to `BENCH_cpi_stack.json`, including a
//! per-category attribution of the slipstream speedup over SS(64x4).
//!
//! Usage: `cpi_stack [scale] [--smoke] [--telemetry PATH]`
//!
//! - `scale` stretches the workload suite (default 1.0). Only runs at the
//!   canonical scale 1.0 overwrite `BENCH_cpi_stack.json`.
//! - `--smoke` is the CI drift gate: regenerates the document at the
//!   canonical scale and fails loudly if it differs byte-for-byte from
//!   the committed file. Cycle accounting is deterministic, so any
//!   difference is real timing or attribution drift, never noise.
//! - `--telemetry PATH` writes host-telemetry JSONL (one `bench_eval`
//!   span per suite evaluation) to `PATH` for `report`.

use slipstream_bench::{
    cpi_stack_json, evaluate_shared_l2_suite, evaluate_workload, to_jsonl, top_sinks,
    write_figure_doc, BenchRow, SharedL2Row,
};
use slipstream_core::telemetry::{RunManifest, SpanKind, Telemetry};
use slipstream_core::SlipstreamConfig;
use slipstream_workloads::suite;

const DOC: &str = "BENCH_cpi_stack.json";
const CANONICAL_SCALE: f64 = 1.0;

fn print_table(rows: &[BenchRow]) {
    println!("CPI stacks (top cycle sinks beyond base, % of that core's cycles):");
    println!(
        "{:<10} {:>9} {:>9} {:>9}  top sinks (A-stream | R-stream | SS64)",
        "benchmark", "A cyc", "R cyc", "SS64 cyc"
    );
    for r in rows {
        let fmt = |sinks: Vec<(&'static str, f64)>| {
            if sinks.is_empty() {
                "-".to_string()
            } else {
                sinks
                    .iter()
                    .map(|(l, p)| format!("{l}={p:.1}%"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        };
        println!(
            "{:<10} {:>9} {:>9} {:>9}  {} | {} | {}",
            r.name,
            r.slip.a_core.cycles,
            r.slip.r_core.cycles,
            r.ss64.core.cycles,
            fmt(top_sinks(&r.slip.a_core.cpi, 3)),
            fmt(top_sinks(&r.slip.r_core.cpi, 3)),
            fmt(top_sinks(&r.ss64.core.cpi, 3)),
        );
    }
    println!();
}

fn print_shared_l2(rows: &[SharedL2Row]) {
    println!("cmp_shared_l2 (both cores behind one shared L2, combined counters):");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "benchmark", "A cyc", "R cyc", "l2 hits", "l2 misses", "port stalls"
    );
    for r in rows {
        let a = &r.slip.a_core;
        let rr = &r.slip.r_core;
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>10} {:>12}",
            r.name,
            a.cycles,
            rr.cycles,
            a.l2_hits + rr.l2_hits,
            a.l2_misses + rr.l2_misses,
            a.port_stall_cycles + rr.port_stall_cycles,
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let tel_path = args
        .windows(2)
        .find(|w| w[0] == "--telemetry")
        .map(|w| w[1].clone());
    let scale = args
        .iter()
        .find_map(|a| a.parse::<f64>().ok())
        .unwrap_or(CANONICAL_SCALE);
    let scale = if smoke { CANONICAL_SCALE } else { scale };
    let mut tel = tel_path.as_ref().map(|_| Telemetry::new());

    let rows: Vec<BenchRow> = suite(scale)
        .iter()
        .map(|w| {
            let _guard = tel.as_mut().map(|t| t.span_guard(SpanKind::BenchEval));
            evaluate_workload(w)
        })
        .collect();
    let l2_rows = {
        let _guard = tel.as_mut().map(|t| t.span_guard(SpanKind::BenchEval));
        evaluate_shared_l2_suite(scale)
    };
    // `cpi_stack_json` asserts, for every benchmark and all involved cores,
    // that each stack sums exactly to the core's cycle counter, and that
    // the shared-L2 suite shows nonzero l2_port contention — so both modes
    // re-verify the accounting invariants in release builds.
    let doc = cpi_stack_json(&rows, &l2_rows, scale);
    print_table(&rows);
    print_shared_l2(&l2_rows);

    if smoke {
        let committed = std::fs::read_to_string(DOC).unwrap_or_else(|e| {
            eprintln!("{DOC} missing ({e}); run `cargo run --release -p slipstream-bench --bin cpi_stack` and commit it");
            std::process::exit(1);
        });
        if doc != committed {
            eprintln!(
                "{DOC} drifted from the committed anchor — if the timing or \
                 attribution change is intentional, re-commit it via \
                 `cargo run --release -p slipstream-bench --bin cpi_stack`"
            );
            std::process::exit(1);
        }
        println!("cpi_stack --smoke: {DOC} matches the regenerated document");
    } else if scale == CANONICAL_SCALE {
        write_figure_doc(DOC, &doc);
    } else {
        eprintln!("scale {scale} != {CANONICAL_SCALE}: not overwriting {DOC}");
    }

    if let (Some(path), Some(tel)) = (tel_path, tel) {
        let manifest = RunManifest::new(
            "cpi_stack",
            "harness",
            &format!("{:?}", SlipstreamConfig::cmp_shared_l2()),
        )
        .label("scale", scale);
        let jsonl = to_jsonl(&tel.snapshot(&manifest).into());
        std::fs::write(&path, jsonl).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
