//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5) plus the §3 fault-tolerance scenarios.
//!
//! `paper_tables` prints every table and figure the paper reports as
//! markdown ([`paper_regions`]), re-anchors the committed figure documents
//! and splices the tables into EXPERIMENTS.md ([`splice_regions`]);
//! `fault_campaign` runs the full §3 sweep. The simulator's own speed is
//! measured layer by layer by the `perfbench` package in
//! `examples/perfbench`; `throughput` records each model's speed relative
//! to a host probe ([`Throughput`]) and gates it.
//!
//! Independent simulations are jobs on the crate's one worker pool of
//! scoped threads, which returns results in input order: a figure row's
//! four model runs ([`evaluate_workload`]; [`evaluate_suite`] puts every
//! benchmark's runs in one list), the shared-L2 rows, the campaign's
//! benchmarks and the fuzz sweep's seeds. The figure rows use one thread
//! per available CPU; the campaign and the fuzz sweep take the count from
//! their configs. No job reads another's result, so every output is the
//! same on one CPU or many.

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
/// `BENCH_throughput.json`: each model's best probe-relative suite pass,
/// and its README table.
pub mod throughput;
/// The pipeview rendering of flight recordings, the shared trace config,
/// and divergence naming.
pub mod trace_export;

use std::sync::Mutex;

use slipstream_core::{
    run_superscalar, BaselineStats, CpiCat, RemovalPolicy, SlipstreamConfig, SlipstreamProcessor,
    SlipstreamStats,
};
use slipstream_cpu::{CoreConfig, CoreStats};
use slipstream_workloads::{suite, Workload};

pub use campaign::{
    available_workers, enumerate_sites, for_each_forked_site, outcome_table, print_campaign_table,
    run_campaign, target_label, trace_first_detection, CampaignConfig, CampaignResult,
    InjectionSite, LatencyHistogram, SiteResult, TargetSummary, LATENCY_EDGES, OUTCOMES_REGION,
    TARGETS,
};
pub use fuzz::{
    corpus_entry_text, enumerate_seeds, replay_corpus_dir, replay_corpus_file, run_fuzz,
    write_corpus, FuzzConfig, FuzzResult, FuzzViolation, InvariantCoverage,
};
pub use shrink::{live_count, shrink, ShrinkOutcome};
pub use telemetry_export::{
    exclusive_spans, parse_jsonl, report_text, to_jsonl, write_run, RunFile,
};
pub use throughput::{ModelSpeed, Throughput, THROUGHPUT_REGION};
pub use trace_export::{
    cpi_stack_obj, first_divergence, lifecycles, pipeview_text, violation_run, Divergence,
    Lifecycle, TRACE,
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

/// What one job of the figure-row list measured: a baseline or a
/// slipstream run. Each value moves once, into its row, so the variants'
/// sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Run {
    Baseline(BaselineStats),
    Slipstream(SlipstreamStats),
}

impl Run {
    fn baseline(self) -> BaselineStats {
        match self {
            Run::Baseline(stats) => stats,
            Run::Slipstream(_) => unreachable!("a baseline job returned slipstream stats"),
        }
    }

    fn slipstream(self) -> SlipstreamStats {
        match self {
            Run::Slipstream(stats) => stats,
            Run::Baseline(_) => unreachable!("a slipstream job returned baseline stats"),
        }
    }
}

/// Runs `w` to completion on one superscalar core; `label` names the model
/// in the panic when it does not finish.
fn run_baseline(core: CoreConfig, w: &Workload, label: &str) -> BaselineStats {
    let trace_pred = SlipstreamConfig::cmp_2x64x4().trace_pred;
    let stats = run_superscalar(core, trace_pred, &w.program, MAX_CYCLES);
    assert!(stats.halted, "{}: {label} did not complete", w.name);
    stats
}

/// Runs `w` to completion on a slipstream processor built from `cfg`; the
/// processor is dropped before the stats return, so a finished job holds
/// no simulator state.
fn run_slipstream(cfg: SlipstreamConfig, w: &Workload, label: &str) -> SlipstreamStats {
    let mut proc = SlipstreamProcessor::new(cfg, &w.program);
    assert!(proc.run(MAX_CYCLES), "{}: {label} did not complete", w.name);
    proc.stats()
}

/// The four independent runs behind one [`BenchRow`], longest first, so
/// the short baseline runs fill the tail of the job list.
const ROW_JOBS: [fn(&Workload) -> Run; 4] = [
    |w| {
        let cfg = SlipstreamConfig::cmp_2x64x4();
        Run::Slipstream(run_slipstream(cfg, w, "slipstream"))
    },
    |w| {
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.removal = RemovalPolicy::branches_only();
        Run::Slipstream(run_slipstream(cfg, w, "branches-only run"))
    },
    |w| Run::Baseline(run_baseline(CoreConfig::ss_128x8(), w, "SS(128x8)")),
    |w| Run::Baseline(run_baseline(CoreConfig::ss_64x4(), w, "SS(64x4)")),
];

/// One [`BenchRow`] per workload, in input order. Every (workload, model)
/// run is one job: no run reads another's result, so the jobs share
/// [`map_ordered`]'s one pool of [`available_workers`] threads.
fn evaluate_rows(workloads: &[Workload]) -> Vec<BenchRow> {
    let jobs = workloads
        .iter()
        .flat_map(|w| ROW_JOBS.iter().map(move |job| (w, job)));
    let mut runs = map_ordered(jobs, available_workers(), |(w, job)| job(w)).into_iter();
    let mut next = || runs.next().expect("one run per job");
    workloads
        .iter()
        .map(|w| {
            let slip = next().slipstream();
            let slip_br = next().slipstream();
            let ss128 = next().baseline();
            let ss64 = next().baseline();
            BenchRow {
                name: w.name,
                dynamic: slip.r_retired,
                ss64,
                ss128,
                slip,
                slip_br,
            }
        })
        .collect()
}

/// Runs an arbitrary workload through all processor models, its four runs
/// side by side.
pub fn evaluate_workload(w: &Workload) -> BenchRow {
    evaluate_rows(std::slice::from_ref(w))
        .pop()
        .expect("one row per workload")
}

/// Runs the full eight-benchmark suite: every benchmark's runs in one job
/// list, rows in the suite's order.
pub fn evaluate_suite(scale: f64) -> Vec<BenchRow> {
    evaluate_rows(&suite(scale))
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

impl SharedL2Row {
    /// A counter summed over the A and R cores.
    fn both(&self, counter: fn(&CoreStats) -> u64) -> u64 {
        counter(&self.slip.a_core) + counter(&self.slip.r_core)
    }
}

/// Runs the full suite under the `cmp_shared_l2` preset, one job per
/// benchmark on [`map_ordered`]'s pool, rows in the suite's order.
pub fn evaluate_shared_l2_suite(scale: f64) -> Vec<SharedL2Row> {
    map_ordered(&suite(scale), available_workers(), |w| {
        let slip = run_slipstream(SlipstreamConfig::cmp_shared_l2(), w, "cmp_shared_l2 run");
        SharedL2Row {
            name: w.name,
            dynamic: slip.r_retired,
            slip,
        }
    })
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
        .raw("l2_hits", r.both(|c| c.l2_hits))
        .raw("l2_misses", r.both(|c| c.l2_misses))
        .raw("port_stall_cycles", r.both(|c| c.port_stall_cycles))
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

/// Writes `text` to `name` in the current directory (the convention all
/// `BENCH_*.json` emitters follow) after self-validating it as JSON.
pub fn write_figure_doc(name: &str, text: &str) {
    json::validate(text).unwrap_or_else(|e| panic!("{name}: emitted invalid JSON: {e}"));
    std::fs::write(name, text).unwrap_or_else(|e| panic!("write {name}: {e}"));
    eprintln!("wrote {name}");
}

// ---- markdown tables (stdout and EXPERIMENTS.md) --------------------------
//
// Each paper table is rendered once, as markdown: `paper_tables` prints the
// regions and splices them into EXPERIMENTS.md between
// `<!-- paper_tables:NAME -->` and `<!-- /paper_tables:NAME -->` markers,
// and `tests/figure_drift.rs` fails when a committed region is stale.

/// One markdown table column: header, whether it is right-aligned, and
/// the cell it shows for a row.
type Column<T> = (&'static str, bool, fn(&T) -> String);

/// A markdown table of `rows` plus an optional `footer` row; cells are
/// padded to their column's width so the raw text reads as a table too.
fn md_table<T>(rows: &[T], columns: &[Column<T>], footer: Option<Vec<String>>) -> String {
    let header = columns.iter().map(|c| c.0.to_string()).collect();
    let body = rows
        .iter()
        .map(|r| columns.iter().map(|c| (c.2)(r)).collect());
    let mut lines: Vec<Vec<String>> = std::iter::once(header).chain(body).chain(footer).collect();
    let width = |i: usize| {
        lines
            .iter()
            .map(|l| l[i].chars().count())
            .fold(3, usize::max)
    };
    let widths: Vec<usize> = (0..columns.len()).map(width).collect();
    lines.insert(1, widths.iter().map(|&w| "-".repeat(w)).collect());
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let cells = line.iter().zip(&widths).zip(columns);
        let cells: Vec<String> = cells
            .map(|((cell, &w), &(_, right, _))| match (i, right) {
                (1, true) => format!("{}:", &cell[1..]),
                (_, true) => format!("{cell:>w$}"),
                _ => format!("{cell:<w$}"),
            })
            .collect();
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    out
}

/// A two-decimal cell.
fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// A Figure 8 breakdown as `CAT pct; ...`, or `—` when nothing was removed.
fn breakdown_text(stats: &SlipstreamStats) -> String {
    let parts: Vec<String> = removal_breakdown(stats)
        .iter()
        .map(|(label, pct)| format!("{label} {pct:.2}"))
        .collect();
    if parts.is_empty() {
        "—".to_string()
    } else {
        parts.join("; ")
    }
}

/// A CPI stack as `category pct, ...` in descending order of cycles, in %
/// of the core's cycles; categories below 0.05 % are omitted.
fn stack_text(stack: &slipstream_cpu::CpiStack) -> String {
    let cycles = stack.total().max(1) as f64;
    let mut entries: Vec<(CpiCat, u64)> = stack.entries().collect();
    entries.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    entries
        .iter()
        .map(|&(cat, n)| (cat.label(), 100.0 * n as f64 / cycles))
        .filter(|&(_, pct)| pct >= 0.05)
        .map(|(label, pct)| format!("{label} {pct:.1}"))
        .collect::<Vec<_>>()
        .join(", ")
}

// The measured columns of each table.
const BENCH: Column<BenchRow> = ("benchmark", false, |r| r.name.to_string());
const SS64_IPC: Column<BenchRow> = ("SS64 IPC", true, |r| f2(r.ss64.ipc()));
const TABLE1: &[Column<BenchRow>] = &[BENCH, ("instructions", true, |r| r.dynamic.to_string())];
const FIG6: &[Column<BenchRow>] = &[
    BENCH,
    SS64_IPC,
    ("slipstream IPC", true, |r| f2(r.slip.ipc)),
    ("improvement %", true, |r| f2(r.fig6_improvement())),
    ("removal %", true, |r| f2(100.0 * r.slip.removal_fraction)),
];
const FIG7: &[Column<BenchRow>] = &[
    BENCH,
    SS64_IPC,
    ("SS128 IPC", true, |r| f2(r.ss128.ipc())),
    ("improvement %", true, |r| f2(r.fig7_improvement())),
];
const FIG8: &[Column<BenchRow>] = &[
    BENCH,
    ("all triggers %", true, |r| {
        f2(100.0 * r.slip.removal_fraction)
    }),
    ("all-triggers breakdown", false, |r| breakdown_text(&r.slip)),
    ("branches only %", true, |r| {
        f2(100.0 * r.slip_br.removal_fraction)
    }),
    ("branches-only breakdown", false, |r| {
        breakdown_text(&r.slip_br)
    }),
];
const TABLE3: &[Column<BenchRow>] = &[
    BENCH,
    SS64_IPC,
    ("SS64 bm/1k", true, |r| {
        f2(r.ss64.core.branch_mispredicts_per_kilo())
    }),
    ("CMP bm/1k", true, |r| f2(r.slip.branch_misp_per_kilo)),
    ("IR-misp/1k", true, |r| {
        format!("{:.3}", r.slip.ir_misp_per_kilo)
    }),
    ("avg IR penalty", true, |r| match r.slip.ir_mispredictions {
        0 => "—".to_string(),
        _ => format!("{:.1}", r.slip.avg_ir_penalty),
    }),
];
const CPI_STACKS: &[Column<BenchRow>] = &[
    BENCH,
    ("A-stream stack", false, |r| stack_text(&r.slip.a_core.cpi)),
    ("R-stream stack", false, |r| stack_text(&r.slip.r_core.cpi)),
    ("SS64 stack", false, |r| stack_text(&r.ss64.core.cpi)),
];
const SHARED_L2: &[Column<SharedL2Row>] = &[
    ("benchmark", false, |r| r.name.to_string()),
    ("A cycles", true, |r| r.slip.a_core.cycles.to_string()),
    ("R cycles", true, |r| r.slip.r_core.cycles.to_string()),
    ("L2 hits", true, |r| r.both(|c| c.l2_hits).to_string()),
    ("L2 misses", true, |r| r.both(|c| c.l2_misses).to_string()),
    ("port-stall cycles", true, |r| {
        r.both(|c| c.port_stall_cycles).to_string()
    }),
];

/// Every measured table of the paper's evaluation plus the CPI stacks, as
/// named markdown regions: `table1`, `fig6`, `fig7`, `fig8` (both
/// panels), `table3`, `cpi_stacks` and `cmp_shared_l2`.
pub fn paper_regions(rows: &[BenchRow], l2_rows: &[SharedL2Row]) -> Vec<(&'static str, String)> {
    // A bold footer under `columns` averaging `f` in column 3.
    let average = |columns: &[Column<BenchRow>], f: fn(&BenchRow) -> f64| {
        let mut footer = vec![String::new(); columns.len()];
        footer[0] = "**average**".to_string();
        footer[3] = format!(
            "**{:.2}**",
            rows.iter().map(f).sum::<f64>() / rows.len() as f64
        );
        Some(footer)
    };
    let fig6_avg = average(FIG6, BenchRow::fig6_improvement);
    let fig7_avg = average(FIG7, BenchRow::fig7_improvement);
    vec![
        ("table1", md_table(rows, TABLE1, None)),
        ("fig6", md_table(rows, FIG6, fig6_avg)),
        ("fig7", md_table(rows, FIG7, fig7_avg)),
        ("fig8", md_table(rows, FIG8, None)),
        ("table3", md_table(rows, TABLE3, None)),
        ("cpi_stacks", md_table(rows, CPI_STACKS, None)),
        ("cmp_shared_l2", md_table(l2_rows, SHARED_L2, None)),
    ]
}

/// Replaces the text between each region's `<!-- paper_tables:NAME -->`
/// and `<!-- /paper_tables:NAME -->` markers in `doc` with its table; all
/// other text is kept byte for byte. A missing, unterminated or duplicated
/// marker is an error naming the region.
pub fn splice_regions(doc: &str, regions: &[(&str, String)]) -> Result<String, String> {
    let mut out = doc.to_string();
    for (name, table) in regions {
        let begin = format!("<!-- paper_tables:{name} -->");
        let end = format!("<!-- /paper_tables:{name} -->");
        if out.matches(&begin).count() > 1 || out.matches(&end).count() > 1 {
            return Err(format!("region {name}: duplicated marker"));
        }
        let start = out
            .find(&begin)
            .ok_or_else(|| format!("region {name}: missing `{begin}`"))?
            + begin.len();
        let stop = out[start..]
            .find(&end)
            .ok_or_else(|| format!("region {name}: unterminated, no `{end}` after `{begin}`"))?
            + start;
        out.replace_range(start..stop, &format!("\n{table}"));
    }
    Ok(out)
}

/// Maps `f` over `items` on `workers` scoped threads (at least one) and
/// returns the results in input order. Each worker takes the next
/// unclaimed item, so which thread ran an item never shows in the output.
/// A panic in `f` is re-raised with its own payload once every worker has
/// stopped (the first worker's, if several panicked), so its message still
/// names the failed item.
pub(crate) fn map_ordered<I, R>(items: I, workers: usize, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: Send,
    R: Send,
{
    let jobs = Mutex::new(items.into_iter().enumerate());
    let results = Mutex::new(Vec::new());
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| loop {
                    let next = jobs.lock().expect("worker panicked").next();
                    let Some((i, item)) = next else { break };
                    let r = f(item);
                    results.lock().expect("worker panicked").push((i, r));
                })
            })
            .collect();
        let mut first = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    let mut v = results.into_inner().expect("worker panicked");
    v.sort_unstable_by_key(|&(i, _)| i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// A binary's command line, parsed by `parse`; a malformed one prints the
/// error and `usage` and exits with status 2.
pub fn command_line<A>(parse: fn(&[String]) -> Result<A, String>, usage: &str) -> A {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2)
    })
}

/// A command-line flag's numeric value; the error names the flag.
pub fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: not a number: {value:?}"))
}

/// A workload scale: a positive, finite number.
pub fn parse_scale(flag: &str, value: &str) -> Result<f64, String> {
    let scale: f64 = parse_number(flag, value)?;
    if scale > 0.0 && scale.is_finite() {
        Ok(scale)
    } else {
        Err(format!("{flag}: not a positive number: {value:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# head\n\nprose *kept*\n<!-- paper_tables:a -->\nold a\n\
                       <!-- /paper_tables:a -->\nmiddle  \n<!-- paper_tables:b -->\
                       <!-- /paper_tables:b -->\ntail";

    #[test]
    fn splicing_replaces_only_region_bodies() {
        let regions = [("a", "| new a |\n".into()), ("b", "| new b |\n".into())];
        let spliced = splice_regions(DOC, &regions).unwrap();
        assert_eq!(
            spliced,
            "# head\n\nprose *kept*\n<!-- paper_tables:a -->\n| new a |\n\
             <!-- /paper_tables:a -->\nmiddle  \n<!-- paper_tables:b -->\n| new b |\n\
             <!-- /paper_tables:b -->\ntail"
        );
        assert_eq!(splice_regions(&spliced, &regions).unwrap(), spliced);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_worker_panic_keeps_its_message() {
        map_ordered(0..8, 2, |i| {
            assert!(i != 5, "job {i} failed");
            i
        });
    }

    #[test]
    fn bad_markers_are_errors_naming_the_region() {
        let (b, e) = ("<!-- paper_tables:a -->", "<!-- /paper_tables:a -->");
        for (doc, want) in [
            (format!("text\n{e}\n"), "region a: missing"),
            (format!("{b}\nx\n"), "region a: unterminated"),
            (format!("{e}{b}\n"), "region a: unterminated"),
            (format!("{b}\n{e}\n{b}\n{e}\n"), "region a: duplicated"),
            (format!("{b}\n{e}\n{e}"), "region a: duplicated"),
        ] {
            let err = splice_regions(&doc, &[("a", "x\n".to_string())]).expect_err(&doc);
            assert!(err.starts_with(want), "{doc:?}: {err}");
        }
    }
}
