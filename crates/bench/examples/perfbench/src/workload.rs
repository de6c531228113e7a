//! The four workloads: how each builds its inputs from the seed, what one
//! round of fixed work is, and how each round's outputs are checked.

use std::path::PathBuf;

use slipstream_bench::{
    cpi_stack_json, enumerate_seeds, evaluate_workload, fig6_json, fig7_json, fig8_json,
    paper_tables_json, run_campaign, run_fuzz, CampaignConfig, FuzzConfig, SharedL2Row, SiteResult,
    MAX_CYCLES, TARGETS,
};
use slipstream_core::{
    golden_state, standard_invariants, FaultOutcome, FaultTarget, SlipstreamConfig,
    SlipstreamProcessor,
};
use slipstream_isa::ArchState;
use slipstream_workloads::{benchmark, random_program, RandProgConfig, Workload as Prog};

/// Step budget for every functional-oracle run.
pub const FUEL: u64 = 4 * MAX_CYCLES;

/// The cycle budget of a fault-injection run, as a multiple of the
/// program's fault-free slipstream run: a watchdog. Over 5,120 campaign
/// sites (seeds 1-40) the longest run that ended took 1.6 times its
/// fault-free cycles. A fault that sends the R-stream into an endless loop
/// (about one seed in 40 has such a site) then costs a few sites' worth of
/// simulation instead of `MAX_CYCLES`.
pub const FAULT_BUDGET_FACTOR: u64 = 4;

/// Simulated cycles per timed piece of a `long_run` round. The windowed
/// scheduler resumes a run that stopped at its cycle budget with the same
/// results, so the run is timed in slices of a few tenths of a second,
/// like the other workloads' pieces. Timed whole, in one piece of about
/// 1.5 s between two host-anchor measurements, it spread 11-17 % over ten
/// runs on a busy shared host.
pub const LONG_RUN_SLICE: u64 = 200_000;

/// Whether a fault-injection outcome is one a correct simulation can
/// give. The R-stream re-executes every instruction the A-stream runs, so
/// a fault in the A-stream is detected and recovered, masked, or never
/// fires. Only an R-stream fault in an instruction the A-stream skipped
/// (the paper's scenario 2) can escape, as silent corruption or as an
/// endless loop that exhausts the cycle budget.
pub fn fault_outcome_ok(target: FaultTarget, outcome: FaultOutcome) -> bool {
    target == FaultTarget::RStream
        || !matches!(outcome, FaultOutcome::SilentCorruption | FaultOutcome::Hang)
}

/// The committed figure documents `paper_suite` must reproduce, at the
/// repository root.
const FIGURE_DOCS: [&str; 5] = [
    "BENCH_fig6.json",
    "BENCH_fig7.json",
    "BENCH_fig8.json",
    "BENCH_paper_tables.json",
    "BENCH_cpi_stack.json",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper figure, regenerated and checked against the anchors.
    PaperSuite,
    /// A fault-injection campaign over the whole suite.
    FaultCampaign,
    /// A differential fuzz sweep over random programs.
    FuzzSweep,
    /// One long windowed slipstream run.
    LongRun,
}

/// How much work a workload does: `Full` is the benchmark, `Tiny` a
/// seconds-long version with the same code paths for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// Minimal sizes that still exercise every path.
    Tiny,
}

/// Everything a workload's rounds, checks and trace need, built by
/// [`Workload::setup`].
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Their size.
    pub size: Size,
    /// The seed they were made from.
    pub seed: u64,
    /// The programs the workload simulates.
    pub programs: Vec<Prog>,
    /// The functional oracle's final state for each program.
    pub goldens: Vec<ArchState>,
    /// `paper_suite` only: the committed figure documents, by file name.
    pub expected: Vec<(&'static str, String)>,
    /// `fault_campaign` only: each program's fault-run cycle budget (see
    /// [`FAULT_BUDGET_FACTOR`]).
    pub fault_budgets: Vec<u64>,
}

/// What one round did and how many of its operations failed their check.
pub struct Round {
    /// Operations performed.
    pub ops: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// `fault_campaign` only: per-site results, compared across rounds.
    pub sites: Vec<SiteResult>,
}

impl Workload {
    /// Every workload, in the order of [`crate::spec::WORKLOADS`].
    pub const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::FaultCampaign,
        Workload::FuzzSweep,
        Workload::LongRun,
    ];

    /// The workload's name in the spec.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper_suite",
            Workload::FaultCampaign => "fault_campaign",
            Workload::FuzzSweep => "fuzz_sweep",
            Workload::LongRun => "long_run",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the library's own default master
    /// seed for the seeded workloads. `paper_suite` and `long_run` run the
    /// paper's fixed programs and only record the seed.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FaultCampaign => CampaignConfig::full().seed,
            Workload::FuzzSweep => FuzzConfig::full().seed,
            Workload::PaperSuite | Workload::LongRun => 0,
        }
    }

    /// Builds the workload's programs. `short` gives the same programs at a
    /// quarter of their length (the trace's run-length two-point).
    pub fn programs(self, size: Size, seed: u64, short: bool) -> Vec<Prog> {
        let tiny = size == Size::Tiny;
        let length = if short { 0.25 } else { 1.0 };
        let suite = |names: &[&str], scale: f64| -> Vec<Prog> {
            names
                .iter()
                .map(|n| benchmark(n, scale * length).expect("known benchmark"))
                .collect()
        };
        match self {
            Workload::PaperSuite | Workload::FaultCampaign => {
                // Tiny picks: perl contends for the shared L2 (which the
                // CPI-stack document requires), and m88ksim still shortens
                // at the campaign's tiny scale, where perl is at its minimum.
                let names: &[&str] = match (self, tiny) {
                    (_, false) => &slipstream_workloads::BENCHMARK_NAMES,
                    (Workload::PaperSuite, true) => &["perl"],
                    (_, true) => &["m88ksim"],
                };
                let scale = match (self, tiny) {
                    (Workload::PaperSuite, _) => 1.0,
                    (_, false) => 0.2,
                    (_, true) => 0.05,
                };
                suite(names, scale)
            }
            Workload::FuzzSweep => {
                let prog = RandProgConfig {
                    chunks: if short { 6 } else { 24 },
                    ..RandProgConfig::default()
                };
                self.fuzz_slices(size, seed)
                    .iter()
                    .flat_map(|cfg| enumerate_seeds(cfg.seeds, cfg.seed))
                    .map(|s| Prog {
                        name: "randprog",
                        program: random_program(s, prog),
                        target_dynamic: 0,
                    })
                    .collect()
            }
            Workload::LongRun => suite(&["m88ksim"], if tiny { 0.2 } else { 20.0 }),
        }
    }

    fn campaign_config(size: Size, seed: u64, max_cycles: u64) -> CampaignConfig {
        CampaignConfig {
            scale: if size == Size::Tiny { 0.05 } else { 0.2 },
            sites_per_target: campaign_sites(size),
            workers: 1,
            seed,
            max_cycles,
        }
    }

    /// The sweep as 8 slices of 64 seeds (2 of 4 when tiny), each with its
    /// own master seed derived from `seed`, so a round can be timed in
    /// pieces of a few tenths of a second.
    fn fuzz_slices(self, size: Size, seed: u64) -> Vec<FuzzConfig> {
        let (slices, seeds) = if size == Size::Tiny { (2, 4) } else { (8, 64) };
        (0..slices)
            .map(|k: u64| FuzzConfig {
                seeds,
                workers: 1,
                seed: seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                ..FuzzConfig::full()
            })
            .collect()
    }

    /// Builds the workload's inputs: its programs, their golden final
    /// states, for `fault_campaign` the fault runs' cycle budgets, and for
    /// `paper_suite` the committed figure documents. Fails if a committed
    /// reference file is missing.
    pub fn setup(self, size: Size, seed: u64) -> Result<Inputs, String> {
        let programs = self.programs(size, seed, false);
        let goldens = programs
            .iter()
            .map(|p| golden_state(&p.program, FUEL))
            .collect();
        let fault_budgets = if self == Workload::FaultCampaign {
            programs
                .iter()
                .map(|p| {
                    let mut clean =
                        SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &p.program);
                    clean.run(MAX_CYCLES);
                    FAULT_BUDGET_FACTOR * clean.stats().cycles
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut expected = Vec::new();
        if self == Workload::PaperSuite {
            let root = repo_root();
            for name in FIGURE_DOCS {
                let path = root.join(name);
                let doc = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reference {} is missing: {e}", path.display()))?;
                expected.push((name, doc));
            }
        }
        Ok(Inputs {
            workload: self,
            size,
            seed,
            programs,
            goldens,
            expected,
            fault_budgets,
        })
    }
}

impl Inputs {
    /// Injection sites per program and target in the traced fault rows,
    /// and how many of the programs take them. `fault_campaign` uses
    /// exactly the sites of its own rounds.
    pub fn trace_fault_plan(&self) -> (usize, usize) {
        let tiny = self.size == Size::Tiny;
        let n = self.programs.len();
        match self.workload {
            Workload::PaperSuite => (1, n),
            Workload::FaultCampaign => (campaign_sites(self.size), n),
            Workload::FuzzSweep => (1, n.min(if tiny { 2 } else { 16 })),
            Workload::LongRun => (if tiny { 1 } else { 2 }, n),
        }
    }
}

/// Injection sites per program and target in a `fault_campaign` round.
fn campaign_sites(size: Size) -> usize {
    if size == Size::Tiny {
        1
    } else {
        8
    }
}

/// The repository root, which holds the committed reference documents.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../.."))
}

/// Runs the pieces a round's fixed work is split into. The untraced run
/// times each piece against the host anchor; checks and the trace run
/// them [`Untimed`].
pub trait Pieces {
    /// Runs one piece of a round.
    fn piece<T>(&mut self, work: impl FnOnce() -> T) -> T;
}

/// Runs pieces without timing them.
pub struct Untimed;

impl Pieces for Untimed {
    fn piece<T>(&mut self, work: impl FnOnce() -> T) -> T {
        work()
    }
}

/// Runs one round of the workload's fixed work, one piece per program (or
/// per slice of seeds or of the long run's cycles), and checks its outputs
/// outside the pieces. `warm` is the untimed warm-up round, which
/// `fault_campaign` rounds must reproduce exactly.
pub fn round(inputs: &Inputs, warm: Option<&Round>, pieces: &mut impl Pieces) -> Round {
    match inputs.workload {
        Workload::PaperSuite => paper_round(inputs, pieces),
        Workload::FaultCampaign => {
            // Site enumeration depends only on (seed, program, target), so
            // one campaign per program runs exactly the whole suite's sites.
            let sites: Vec<SiteResult> = inputs
                .programs
                .iter()
                .zip(&inputs.fault_budgets)
                .flat_map(|(p, &budget)| {
                    let cfg = Workload::campaign_config(inputs.size, inputs.seed, budget);
                    pieces
                        .piece(|| run_campaign(&cfg, &[p.name], &TARGETS))
                        .site_results
                })
                .collect();
            let failed = sites
                .iter()
                .enumerate()
                .filter(|&(i, r)| {
                    !fault_outcome_ok(r.site.target, r.outcome)
                        || warm.is_some_and(|w| w.sites.get(i) != Some(r))
                })
                .count();
            Round {
                ops: sites.len() as u64,
                failed: failed as u64,
                sites,
            }
        }
        Workload::FuzzSweep => {
            let invariants = standard_invariants();
            let (mut ops, mut failed) = (0, 0);
            for cfg in inputs.workload.fuzz_slices(inputs.size, inputs.seed) {
                let result = pieces.piece(|| run_fuzz(&cfg, &invariants));
                let mut bad: Vec<u64> = result.violations.iter().map(|v| v.seed).collect();
                bad.sort_unstable();
                bad.dedup();
                ops += result.seeds.len() as u64;
                failed += bad.len() as u64 + result.gen_rejected;
            }
            Round {
                ops,
                failed,
                sites: Vec::new(),
            }
        }
        Workload::LongRun => {
            let failed = inputs
                .programs
                .iter()
                .zip(&inputs.goldens)
                .filter(|(p, golden)| {
                    let mut proc = pieces.piece(|| {
                        let mut proc =
                            SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &p.program);
                        proc.run(LONG_RUN_SLICE);
                        proc
                    });
                    let mut budget = LONG_RUN_SLICE;
                    while !proc.halted() && budget < MAX_CYCLES {
                        budget = (budget + LONG_RUN_SLICE).min(MAX_CYCLES);
                        pieces.piece(|| proc.run(budget));
                    }
                    !proc.halted() || !matches_golden(&proc, golden)
                })
                .count();
            Round {
                ops: inputs.programs.len() as u64,
                failed: failed as u64,
                sites: Vec::new(),
            }
        }
    }
}

/// Whether the R-stream's final registers and memory equal the oracle's.
pub fn matches_golden(proc: &SlipstreamProcessor, golden: &ArchState) -> bool {
    proc.r_core().arch_regs() == golden.regs()
        && proc.r_core().mem().first_difference(golden.mem()).is_none()
}

/// `evaluate_shared_l2_suite` for one prebuilt program.
fn shared_l2_row(w: &Prog) -> SharedL2Row {
    let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_shared_l2(), &w.program);
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
}

/// One `paper_suite` round: every program through SS(64x4), SS(128x8),
/// slipstream and branches-only slipstream, plus the shared-L2 model, then
/// the five figure documents regenerated. An op is one row (a program in
/// one section); it fails if any of its lines differs from the committed
/// documents. When the round covers a document's every row, the rest of
/// the document (averages, headers) must match too, or every row fails.
fn paper_round(inputs: &Inputs, pieces: &mut impl Pieces) -> Round {
    let (rows, l2_rows): (Vec<_>, Vec<_>) = inputs
        .programs
        .iter()
        .map(|p| pieces.piece(|| (evaluate_workload(p), shared_l2_row(p))))
        .unzip();
    let regenerated = [
        fig6_json(&rows, 1.0),
        fig7_json(&rows, 1.0),
        fig8_json(&rows, 1.0),
        paper_tables_json(&rows, 1.0),
        cpi_stack_json(&rows, &l2_rows, 1.0),
    ];
    let mut bad: Vec<(usize, &str)> = Vec::new();
    let mut whole_doc_differs = false;
    for ((_, expected), got) in inputs.expected.iter().zip(&regenerated) {
        let want = row_lines(expected);
        let have = row_lines(got);
        for (key, line) in &have {
            if want.iter().find(|(k, _)| k == key).map(|(_, l)| l) != Some(line) {
                bad.push(*key);
            }
        }
        whole_doc_differs |= have.len() == want.len() && got != expected;
    }
    let ops = (rows.len() + l2_rows.len()) as u64;
    bad.sort_unstable();
    bad.dedup();
    Round {
        ops,
        failed: if whole_doc_differs {
            ops
        } else {
            bad.len() as u64
        },
        sites: Vec::new(),
    }
}

/// The row lines of a figure document, keyed by (section, bench): the
/// documents put each row on one line, and a top-level array key such as
/// `"cmp_shared_l2": [` starts a new section. The separating comma is left
/// out, since it depends on whether the row is its section's last.
fn row_lines(doc: &str) -> Vec<((usize, &str), &str)> {
    let mut section = 0;
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.starts_with("  \"") && line.ends_with('[') {
            section += 1;
        } else if let Some(rest) = line.trim_start().strip_prefix("{\"bench\": \"") {
            let bench = rest.split('"').next().unwrap_or("");
            out.push(((section, bench), line.strip_suffix(',').unwrap_or(line)));
        }
    }
    out
}
