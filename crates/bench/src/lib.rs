//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5) plus the §3 fault-tolerance scenarios.
//!
//! `paper_tables` prints every table and figure the paper reports and
//! re-anchors the committed figure documents; `fault_campaign` runs the
//! full §3 sweep. The simulator's own speed is measured by the
//! `perfbench` package in `examples/perfbench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Parallel, deterministic fault-injection campaigns (§3 / Figure 5).
pub mod campaign;
/// Parallel differential fuzzing over random programs.
pub mod fuzz;
/// Shared hand-rolled JSON emission and validation.
pub mod json;
/// Delta-debugging shrinker for failing fuzz cases.
pub mod shrink;
/// The run file (one JSONL stream of host and simulated rows), its one
/// reader, and the run report.
pub mod telemetry_export;
/// Flight-recording renderings (Chrome trace, pipeview) and divergence
/// naming.
pub mod trace_export;

use slipstream_core::{
    run_superscalar, BaselineStats, CpiCat, RemovalPolicy, SlipstreamConfig, SlipstreamProcessor,
    SlipstreamStats,
};
use slipstream_cpu::CoreConfig;
use slipstream_workloads::{suite, Workload};

pub use campaign::{
    available_workers, enumerate_sites, for_each_forked_site, print_campaign_table, run_campaign,
    run_campaign_telemetry, target_label, trace_first_detection, CampaignConfig, CampaignResult,
    InjectionSite, LatencyHistogram, SiteResult, TargetSummary, LATENCY_EDGES, TARGETS,
};
pub use fuzz::{
    corpus_entry_text, enumerate_seeds, replay_corpus_dir, replay_corpus_file, run_fuzz,
    run_fuzz_telemetry, trace_entry_name, write_corpus, write_corpus_traced, FuzzConfig,
    FuzzResult, FuzzViolation, InvariantCoverage,
};
pub use shrink::{live_count, shrink, ShrinkOutcome};
pub use telemetry_export::{
    committed_calibration, committed_cpi_section, deterministic_jsonl, exclusive_spans,
    parse_jsonl, report_text, to_jsonl, write_run, RunFile,
};
pub use trace_export::{
    chrome_trace_json, cpi_stack_obj, first_divergence, lifecycles, pipeview_text,
    trace_slipstream_run, violation_trace_text, Divergence, Lifecycle,
};

/// Cycle budget per run — far above anything a healthy run needs.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Everything measured for one benchmark across the three processor
/// models (plus the branches-only ablation).
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Dynamic instruction count (R-stream retired).
    pub dynamic: u64,
    /// SS(64x4) baseline.
    pub ss64: BaselineStats,
    /// SS(128x8) baseline.
    pub ss128: BaselineStats,
    /// CMP(2x64x4) slipstream, full removal policy.
    pub slip: SlipstreamStats,
    /// CMP(2x64x4) slipstream, branches-only removal (Figure 8 bottom).
    pub slip_br: SlipstreamStats,
}

impl BenchRow {
    /// Figure 6 metric: % IPC improvement of slipstream over SS(64x4).
    pub fn fig6_improvement(&self) -> f64 {
        100.0 * (self.slip.ipc / self.ss64.ipc() - 1.0)
    }

    /// Figure 7 metric: % IPC improvement of SS(128x8) over SS(64x4).
    pub fn fig7_improvement(&self) -> f64 {
        100.0 * (self.ss128.ipc() / self.ss64.ipc() - 1.0)
    }
}

/// Runs an arbitrary workload through all processor models.
pub fn evaluate_workload(w: &Workload) -> BenchRow {
    let cfg = SlipstreamConfig::cmp_2x64x4();

    let ss64 = run_superscalar(
        CoreConfig::ss_64x4(),
        cfg.trace_pred,
        &w.program,
        MAX_CYCLES,
    );
    assert!(ss64.halted, "{}: SS(64x4) did not complete", w.name);
    let ss128 = run_superscalar(
        CoreConfig::ss_128x8(),
        cfg.trace_pred,
        &w.program,
        MAX_CYCLES,
    );
    assert!(ss128.halted, "{}: SS(128x8) did not complete", w.name);

    let mut slip_proc = SlipstreamProcessor::new(cfg.clone(), &w.program);
    assert!(
        slip_proc.run(MAX_CYCLES),
        "{}: slipstream did not complete",
        w.name
    );
    let slip = slip_proc.stats();

    let mut br_cfg = cfg;
    br_cfg.removal = RemovalPolicy::branches_only();
    let mut br_proc = SlipstreamProcessor::new(br_cfg, &w.program);
    assert!(
        br_proc.run(MAX_CYCLES),
        "{}: branches-only run did not complete",
        w.name
    );
    let slip_br = br_proc.stats();

    BenchRow {
        name: w.name,
        dynamic: slip.r_retired,
        ss64,
        ss128,
        slip,
        slip_br,
    }
}

/// Runs the full eight-benchmark suite.
pub fn evaluate_suite(scale: f64) -> Vec<BenchRow> {
    suite(scale).iter().map(evaluate_workload).collect()
}

// ---- printers (one per paper table/figure) -------------------------------

/// Table 1: benchmarks and dynamic instruction counts.
pub fn print_table1(rows: &[BenchRow]) {
    println!("Table 1: Benchmarks (synthetic SPEC95int analogues).");
    println!("{:<10} {:>14}", "benchmark", "instr. count");
    for r in rows {
        println!("{:<10} {:>14}", r.name, r.dynamic);
    }
    println!();
}

/// Figure 6: % IPC improvement of CMP(2x64x4) slipstream over SS(64x4).
pub fn print_fig6(rows: &[BenchRow]) {
    println!("Figure 6: Performance of CMP(2x64x4) (slipstream) vs SS(64x4).");
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>10}",
        "benchmark", "SS64 IPC", "slip IPC", "improvement", "removal"
    );
    let mut sum = 0.0;
    for r in rows {
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>13.1}% {:>9.1}%",
            r.name,
            r.ss64.ipc(),
            r.slip.ipc,
            r.fig6_improvement(),
            100.0 * r.slip.removal_fraction,
        );
        sum += r.fig6_improvement();
    }
    println!("{:<10} {:>36.1}%", "average", sum / rows.len() as f64);
    println!();
}

/// Figure 7: % IPC improvement of SS(128x8) over SS(64x4).
pub fn print_fig7(rows: &[BenchRow]) {
    println!("Figure 7: Performance of SS(128x8) vs SS(64x4).");
    println!(
        "{:<10} {:>10} {:>10} {:>14}",
        "benchmark", "SS64 IPC", "SS128 IPC", "improvement"
    );
    let mut sum = 0.0;
    for r in rows {
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>13.1}%",
            r.name,
            r.ss64.ipc(),
            r.ss128.ipc(),
            r.fig7_improvement()
        );
        sum += r.fig7_improvement();
    }
    println!("{:<10} {:>36.1}%", "average", sum / rows.len() as f64);
    println!();
}

/// Breakdown used by Figure 8: removal fraction per category, as a
/// percentage of all dynamic instructions.
pub fn removal_breakdown(stats: &SlipstreamStats) -> Vec<(String, f64)> {
    let mut cats: Vec<(String, u64)> = Vec::new();
    for (reason, n) in &stats.skipped_by_reason {
        let label = reason.category().to_string();
        match cats.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += n,
            None => cats.push((label, *n)),
        }
    }
    cats.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    cats.into_iter()
        .map(|(l, n)| (l, 100.0 * n as f64 / stats.r_retired.max(1) as f64))
        .collect()
}

/// Figure 8: breakdown of removed A-stream instructions (top: all
/// triggers; bottom: branches only).
pub fn print_fig8(rows: &[BenchRow]) {
    println!("Figure 8 (top): removed A-stream instructions, all triggers.");
    println!("{:<10} {:>8}  breakdown", "benchmark", "total");
    for r in rows {
        let parts: Vec<String> = removal_breakdown(&r.slip)
            .iter()
            .map(|(l, p)| format!("{l}={p:.1}%"))
            .collect();
        println!(
            "{:<10} {:>7.1}%  {}",
            r.name,
            100.0 * r.slip.removal_fraction,
            parts.join("  ")
        );
    }
    println!();
    println!("Figure 8 (bottom): only branches (and their chains) removed.");
    println!("{:<10} {:>8}  breakdown", "benchmark", "total");
    for r in rows {
        let parts: Vec<String> = removal_breakdown(&r.slip_br)
            .iter()
            .map(|(l, p)| format!("{l}={p:.1}%"))
            .collect();
        println!(
            "{:<10} {:>7.1}%  {}",
            r.name,
            100.0 * r.slip_br.removal_fraction,
            parts.join("  ")
        );
    }
    println!();
}

// ---- committed figure documents (BENCH_fig*.json) ------------------------
//
// Every paper figure/table is also emitted as a deterministic JSON
// document and committed at the repo root; `tests/figure_drift.rs`
// regenerates them and fails if simulated timing drifts from the
// committed anchors without the files being re-committed.

/// Document header shared by the figure JSONs.
fn figure_doc(scale: f64, rows_json: String, trailer: Option<(&str, String)>) -> String {
    let mut out = format!("{{\n  \"scale\": {scale},\n  \"rows\": {rows_json}");
    if let Some((key, value)) = trailer {
        out.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    out.push_str("\n}\n");
    out
}

/// Figure 6 as the committed `BENCH_fig6.json` document.
pub fn fig6_json(rows: &[BenchRow], scale: f64) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str("bench", r.name)
                .f64("ss64_ipc", r.ss64.ipc(), 4)
                .f64("slip_ipc", r.slip.ipc, 4)
                .f64("improvement_pct", r.fig6_improvement(), 2)
                .f64("removal_pct", 100.0 * r.slip.removal_fraction, 2)
                .finish()
        })
        .collect();
    let avg = rows.iter().map(BenchRow::fig6_improvement).sum::<f64>() / rows.len().max(1) as f64;
    figure_doc(
        scale,
        json::array(&rendered, 2),
        Some(("average_improvement_pct", json::f64_fixed(avg, 2))),
    )
}

/// Figure 7 as the committed `BENCH_fig7.json` document.
pub fn fig7_json(rows: &[BenchRow], scale: f64) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str("bench", r.name)
                .f64("ss64_ipc", r.ss64.ipc(), 4)
                .f64("ss128_ipc", r.ss128.ipc(), 4)
                .f64("improvement_pct", r.fig7_improvement(), 2)
                .finish()
        })
        .collect();
    let avg = rows.iter().map(BenchRow::fig7_improvement).sum::<f64>() / rows.len().max(1) as f64;
    figure_doc(
        scale,
        json::array(&rendered, 2),
        Some(("average_improvement_pct", json::f64_fixed(avg, 2))),
    )
}

/// One Figure 8 breakdown as an inline JSON array of category objects.
fn breakdown_json(stats: &SlipstreamStats) -> String {
    json::inline_array(removal_breakdown(stats).iter().map(|(label, pct)| {
        json::Obj::new()
            .str("category", label)
            .f64("pct", *pct, 2)
            .finish()
    }))
}

/// Figure 8 (both panels) as the committed `BENCH_fig8.json` document.
pub fn fig8_json(rows: &[BenchRow], scale: f64) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str("bench", r.name)
                .f64("all_triggers_pct", 100.0 * r.slip.removal_fraction, 2)
                .raw("all_triggers", breakdown_json(&r.slip))
                .f64("branches_only_pct", 100.0 * r.slip_br.removal_fraction, 2)
                .raw("branches_only", breakdown_json(&r.slip_br))
                .finish()
        })
        .collect();
    figure_doc(scale, json::array(&rendered, 2), None)
}

/// Tables 1 and 3 as the committed `BENCH_paper_tables.json` document.
pub fn paper_tables_json(rows: &[BenchRow], scale: f64) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json::Obj::new()
                .str("bench", r.name)
                .raw("dynamic_instructions", r.dynamic)
                .f64("ss64_ipc", r.ss64.ipc(), 4)
                .f64(
                    "ss64_branch_misp_per_kilo",
                    r.ss64.core.branch_mispredicts_per_kilo(),
                    4,
                )
                .f64("cmp_branch_misp_per_kilo", r.slip.branch_misp_per_kilo, 4)
                .f64("ir_misp_per_kilo", r.slip.ir_misp_per_kilo, 4)
                .f64("avg_ir_penalty_cycles", r.slip.avg_ir_penalty, 2)
                .finish()
        })
        .collect();
    figure_doc(scale, json::array(&rendered, 2), None)
}

// ---- CPI stacks (cycle-accounting document) -------------------------------

/// Per-instruction CPI for one category: category cycles over retired
/// instructions (the *full-program* dynamic count for slipstream cores).
fn per_instr(cycles: u64, instrs: u64) -> f64 {
    cycles as f64 / instrs.max(1) as f64
}

/// One benchmark's CPI-stack row: the slipstream A/R stacks and the
/// SS(64x4) baseline stack (each asserted to sum to its core's cycle
/// counter), plus the A-vs-baseline speedup attribution.
fn cpi_row_json(r: &BenchRow) -> String {
    let a = &r.slip.a_core;
    let rr = &r.slip.r_core;
    let base = &r.ss64.core;
    for (label, s) in [("A", a), ("R", rr), ("SS64", base)] {
        assert_eq!(
            s.cpi.total(),
            s.cycles,
            "{}: {label} CPI stack does not sum to its cycle counter",
            r.name
        );
    }
    // Speedup attribution: for each category, cycles per *full-program*
    // instruction in the baseline minus the same in the slipstream
    // A-stream (the leading core, whose cycle count is the machine's
    // completion time). A positive entry means the slipstream machine
    // spends fewer cycles per program instruction in that category; the
    // entries sum to `total_cpi_delta`, the whole CPI reduction, exactly.
    let mut attr = json::Obj::new();
    for cat in CpiCat::ALL {
        let delta =
            per_instr(base.cpi.get(cat), base.retired) - per_instr(a.cpi.get(cat), r.dynamic);
        attr = attr.f64(cat.label(), delta, 5);
    }
    let total_delta = per_instr(base.cycles, base.retired) - per_instr(a.cycles, r.dynamic);
    json::Obj::new()
        .str("bench", r.name)
        .raw("dynamic", r.dynamic)
        .raw("ss64_cycles", base.cycles)
        .raw("ss64", cpi_stack_obj(&base.cpi))
        .raw("a_cycles", a.cycles)
        .raw("a", cpi_stack_obj(&a.cpi))
        .raw("r_cycles", rr.cycles)
        .raw("r", cpi_stack_obj(&rr.cpi))
        .f64("ss64_cpi", per_instr(base.cycles, base.retired), 4)
        .f64("slip_cpi", per_instr(a.cycles, r.dynamic), 4)
        .f64("total_cpi_delta", total_delta, 5)
        .raw("speedup_attribution", attr.finish())
        .finish()
}

/// One benchmark under the `cmp_shared_l2` preset: both slipstream cores
/// behind a shared L2 with deterministic port contention (the ROADMAP
/// follow-on row to the shared-memory-subsystem PR).
#[derive(Debug, Clone)]
pub struct SharedL2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Dynamic instruction count (R-stream retired).
    pub dynamic: u64,
    /// CMP(2x64x4) slipstream under `SlipstreamConfig::cmp_shared_l2`.
    pub slip: SlipstreamStats,
}

/// Runs the full suite under the `cmp_shared_l2` preset.
pub fn evaluate_shared_l2_suite(scale: f64) -> Vec<SharedL2Row> {
    suite(scale)
        .iter()
        .map(|w| {
            let cfg = SlipstreamConfig::cmp_shared_l2();
            let mut proc = SlipstreamProcessor::new(cfg, &w.program);
            assert!(
                proc.run(MAX_CYCLES),
                "{}: cmp_shared_l2 run did not complete",
                w.name
            );
            let slip = proc.stats();
            SharedL2Row {
                name: w.name,
                dynamic: slip.r_retired,
                slip,
            }
        })
        .collect()
}

/// One `cmp_shared_l2` row: A/R CPI stacks (sums asserted, `l2_port` now a
/// real category) plus the combined L2 hit/miss/port-stall counters.
fn shared_l2_row_json(r: &SharedL2Row) -> String {
    let a = &r.slip.a_core;
    let rr = &r.slip.r_core;
    for (label, s) in [("A", a), ("R", rr)] {
        assert_eq!(
            s.cpi.total(),
            s.cycles,
            "{}: shared-L2 {label} CPI stack does not sum to its cycle counter",
            r.name
        );
    }
    json::Obj::new()
        .str("bench", r.name)
        .raw("dynamic", r.dynamic)
        .raw("a_cycles", a.cycles)
        .raw("a", cpi_stack_obj(&a.cpi))
        .raw("r_cycles", rr.cycles)
        .raw("r", cpi_stack_obj(&rr.cpi))
        .raw("l2_hits", a.l2_hits + rr.l2_hits)
        .raw("l2_misses", a.l2_misses + rr.l2_misses)
        .raw(
            "port_stall_cycles",
            a.port_stall_cycles + rr.port_stall_cycles,
        )
        .finish()
}

/// The cycle-accounting document committed as `BENCH_cpi_stack.json`:
/// per-benchmark A-stream, R-stream, and SS(64x4) CPI stacks (raw cycle
/// counts per category — each object sums to its `*_cycles` field), with
/// a per-category attribution of the slipstream speedup over SS(64x4),
/// plus a `cmp_shared_l2` section re-running the suite with both cores
/// contending on a shared L2 (the `l2_port` category populated).
pub fn cpi_stack_json(rows: &[BenchRow], l2_rows: &[SharedL2Row], scale: f64) -> String {
    let rendered: Vec<String> = rows.iter().map(cpi_row_json).collect();
    let l2_rendered: Vec<String> = l2_rows.iter().map(shared_l2_row_json).collect();
    if !l2_rows.is_empty() {
        let port_cycles: u64 = l2_rows
            .iter()
            .map(|r| r.slip.a_core.cpi.get(CpiCat::L2Port) + r.slip.r_core.cpi.get(CpiCat::L2Port))
            .sum();
        assert!(
            port_cycles > 0,
            "cmp_shared_l2 suite shows no l2_port contention — shared-L2 preset inert"
        );
    }
    figure_doc(
        scale,
        json::array(&rendered, 2),
        Some(("cmp_shared_l2", json::array(&l2_rendered, 2))),
    )
}

/// The top `n` non-base cycle sinks of a stack, as `(label, % of cycles)`
/// rows in descending order. Drives the `cpi_stack` binary's table and
/// the documented per-benchmark sink summaries.
pub fn top_sinks(stack: &slipstream_cpu::CpiStack, n: usize) -> Vec<(&'static str, f64)> {
    let cycles = stack.total().max(1);
    let mut rows: Vec<(&'static str, u64)> = stack
        .entries()
        .filter(|&(cat, count)| cat != CpiCat::Base && count > 0)
        .map(|(cat, count)| (cat.label(), count))
        .collect();
    rows.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    rows.truncate(n);
    rows.into_iter()
        .map(|(label, count)| (label, 100.0 * count as f64 / cycles as f64))
        .collect()
}

/// Writes `text` to `name` in the current directory (the convention all
/// `BENCH_*.json` emitters follow) after self-validating it as JSON.
pub fn write_figure_doc(name: &str, text: &str) {
    json::validate(text).unwrap_or_else(|e| panic!("{name}: emitted invalid JSON: {e}"));
    std::fs::write(name, text).unwrap_or_else(|e| panic!("write {name}: {e}"));
    eprintln!("wrote {name}");
}

/// Table 3: misprediction measurements.
pub fn print_table3(rows: &[BenchRow]) {
    println!("Table 3: Misprediction measurements.");
    println!(
        "{:<10} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "SS64 IPC", "SS64 bm/1k", "CMP bm/1k", "IRmisp/1k", "avg penalty"
    );
    for r in rows {
        println!(
            "{:<10} {:>9.2} {:>12.2} {:>12.2} {:>12.3} {:>12.1}",
            r.name,
            r.ss64.ipc(),
            r.ss64.core.branch_mispredicts_per_kilo(),
            r.slip.branch_misp_per_kilo,
            r.slip.ir_misp_per_kilo,
            r.slip.avg_ir_penalty,
        );
    }
    println!();
}
