//! The benchmark's specification: its workloads, metrics, units,
//! directions and regression bounds, in one table. `BENCHMARK.json` at the
//! repository root is rendered from this table by `perfbench spec` and
//! never edited by hand; the self-test checks that the two agree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs, rates).
    Higher,
    /// Smaller values are better (times, costs, memory).
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed by `run`/`trace`.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which have no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// One workload: its name and why the benchmark has it.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// How the benchmark is invoked from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/examples/perfbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["crates/bench/examples/perfbench"];

/// Seconds of timed rounds in one run.
pub const RUN_SECONDS: u32 = 20;

/// The workloads, in reporting order.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "paper_suite",
        why: "the 8 paper programs through every model (figures 6-8, CPI stacks, shared L2): \
              long runs where the steady-state cpu/predict/front-end loop dominates",
    },
    WorkloadSpec {
        name: "fault_campaign",
        why: "128 fault-injection sites: many medium runs that re-simulate a fault-free \
              prefix and exercise recovery, the target of checkpoint-forked campaigns",
    },
    WorkloadSpec {
        name: "fuzz_sweep",
        why: "512 tiny random programs under 7 invariants: processor construction and the \
              checker battery dominate, the hot loop barely warms up",
    },
    WorkloadSpec {
        name: "long_run",
        why: "one 7.7M-instruction windowed slipstream run: per-instruction cost, growth \
              with run length and allocations, with no construction churn",
    },
];

/// End-to-end metrics, emitted by every untraced run. An op is one
/// benchmark row (`paper_suite`), injection site (`fault_campaign`),
/// program seed (`fuzz_sweep`) or whole run (`long_run`).
///
/// Each bound is wider than the widest spread (interquartile range over
/// median) of ten runs with distinct seeds seen on a 2-vCPU shared VM:
/// `ops_per_s` 3-7 %, and up to 13.8 % while other tenants kept the host
/// busy. `setup_s` spread up to 21 % and gets the largest bound.
/// `peak_heap_mb` counts bytes requested from the allocator, so it moves
/// only with the inputs (`fuzz_sweep`, about 1 %) and by a few KiB with the
/// number of rounds a run fits in.
pub const END_TO_END: &[Metric] = &[
    e2e("ops_per_s", "op/s", Better::Higher, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.10),
];

/// The windowed scheduler's exclusive top-level spans: together with
/// `other` they tile the run's `run_total`.
pub const WINDOWED_SPANS: [&str; 7] = [
    "a_window_exec",
    "a_checkpoint",
    "a_rollback_replay",
    "a_recover_apply",
    "r_window_consume",
    "r_boundary_sync",
    "r_recovery_build",
];

use Better::{Higher, Lower};

/// Per-layer metrics, emitted by every traced run, each measured on the
/// traced workload's own inputs.
pub const PER_LAYER: &[Metric] = &[
    // The layer ladder: host ns per simulated instruction (retired on
    // every simulated core), one model per row.
    layer("host.calibration_ns_per_instr", "ns/instr", Lower),
    layer("host.page_faults_per_op", "faults/op", Lower),
    layer("isa.arch.run_quiet_ns_per_instr", "ns/instr", Lower),
    layer("cpu.pipeline.oracle_ns_per_instr", "ns/instr", Lower),
    layer("cpu.pipeline.oracle_ns_per_cycle", "ns/cycle", Lower),
    layer("predict.ss64_ns_per_instr", "ns/instr", Lower),
    layer("predict.marginal_ns_per_instr", "ns/instr", Lower),
    layer("cpu.pipeline.ss128_ns_per_instr", "ns/instr", Lower),
    layer("core.slipstream.serial_ns_per_instr", "ns/instr", Lower),
    layer("core.slipstream.windowed_ns_per_instr", "ns/instr", Lower),
    layer(
        "core.slipstream.branches_only_ns_per_instr",
        "ns/instr",
        Lower,
    ),
    layer("core.slipstream.marginal_ns_per_instr", "ns/instr", Lower),
    layer("cpu.l2.windowed_ns_per_instr", "ns/instr", Lower),
    layer("cpu.l2.marginal_ns_per_instr", "ns/instr", Lower),
    layer("core.slipstream.threaded_ns_per_instr", "ns/instr", Lower),
    layer("core.slipstream.threaded_speedup", "x", Higher),
    layer("core.slipstream.new_us", "us", Lower),
    // Scheduler self-time: shares of the windowed run's run_total.
    layer("core.slipstream.span.a_window_exec_share", "share", Lower),
    layer("core.slipstream.span.a_checkpoint_share", "share", Lower),
    layer(
        "core.slipstream.span.a_rollback_replay_share",
        "share",
        Lower,
    ),
    layer("core.slipstream.span.a_recover_apply_share", "share", Lower),
    layer(
        "core.slipstream.span.r_window_consume_share",
        "share",
        Lower,
    ),
    layer("core.slipstream.span.r_boundary_sync_share", "share", Lower),
    layer(
        "core.slipstream.span.r_recovery_build_share",
        "share",
        Lower,
    ),
    layer("core.slipstream.span.other_share", "share", Lower),
    layer("telemetry.overhead_pct", "%", Lower),
    // Simulated counts: deterministic, identical under speed-only changes.
    layer("core.removal_pct", "%", Higher),
    layer("core.ir_misp_per_kilo", "1/kinstr", Lower),
    layer("cpu.accounting.a_sync_wait_pct", "%", Lower),
    layer("cpu.l2.misses", "count", Lower),
    layer("cpu.l2.port_stall_cycles", "cycles", Lower),
    // Fault injection over the workload's programs.
    layer("bench.campaign.prepare_ms", "ms", Lower),
    layer("core.fault.site_ms_p50", "ms", Lower),
    layer("core.fault.site_ms_p90", "ms", Lower),
    layer("core.fault.sites", "count", Higher),
    layer("core.fault.prefix_cycle_share", "share", Lower),
    layer("core.fault.new_share", "share", Lower),
    layer("core.fault.detected_recovered_pct", "%", Higher),
    // Per-program costs of input generation and the checker battery.
    layer("workloads.build_us_per_program", "us/program", Lower),
    layer("isa.arch.golden_us_per_program", "us/program", Lower),
    layer("core.check.core-oracle.us_per_program", "us/program", Lower),
    layer(
        "core.check.slipstream-all.us_per_program",
        "us/program",
        Lower,
    ),
    layer(
        "core.check.slipstream-branches-only.us_per_program",
        "us/program",
        Lower,
    ),
    layer(
        "core.check.slipstream-ar-smt.us_per_program",
        "us/program",
        Lower,
    ),
    layer(
        "core.check.slipstream-aggressive.us_per_program",
        "us/program",
        Lower,
    ),
    layer(
        "core.check.stats-sanity.us_per_program",
        "us/program",
        Lower,
    ),
    layer(
        "core.check.cycle-accounting.us_per_program",
        "us/program",
        Lower,
    ),
    // Run length: the same programs at a quarter of their length.
    layer(
        "core.slipstream.windowed_ns_per_instr_short",
        "ns/instr",
        Lower,
    ),
    layer(
        "core.slipstream.windowed_ns_per_instr_long",
        "ns/instr",
        Lower,
    ),
    layer("core.slipstream.length_slope_pct", "%", Lower),
    layer(
        "core.slipstream.allocs_per_10k_retired",
        "allocs/10kinstr",
        Lower,
    ),
];

/// Looks up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_json(m: &Metric) -> String {
    let bound = m
        .bound
        .map(|b| format!(", \"bound\": {b}"))
        .unwrap_or_default();
    format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
        quoted(m.name),
        quoted(m.unit),
        quoted(m.better.label())
    )
}

fn list(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let inline = |xs: &[&str]| {
        let q: Vec<String> = xs.iter().map(|s| quoted(s)).collect();
        format!("[{}]", q.join(", "))
    };
    let workloads = list(WORKLOADS.iter().map(|w| {
        format!(
            "{{\"name\": {}, \"why\": {}}}",
            quoted(w.name),
            quoted(w.why)
        )
    }));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {workloads},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        inline(COMMAND),
        inline(PATHS),
        list(END_TO_END.iter().map(metric_json)),
        list(PER_LAYER.iter().map(metric_json)),
    )
}
