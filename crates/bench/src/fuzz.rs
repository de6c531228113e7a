//! Parallel differential fuzzing over random programs.
//!
//! The campaign sweeps thousands of [`random_program`] seeds; for each
//! generated program it computes the functional oracle's final state once
//! and then checks every [`Invariant`] in
//! [`slipstream_core::standard_invariants`] against it through
//! [`check_all`] — the cycle-level core, the full slipstream pair under
//! each removal policy (strict + online checker engaged), end-of-run stats
//! sanity and exact cycle accounting, with each distinct slipstream
//! configuration simulated once and judged by every invariant that names
//! it. Any violation is immediately minimized by the delta-debugging
//! [`shrink`] pass, which re-runs only the violated invariant's own
//! `check`, and reported with the minimal program's assembly, ready to be
//! checked into the regression corpus under `crates/bench/corpus/`.
//!
//! Determinism mirrors `campaign.rs`: seed enumeration depends only on the
//! master seed, every per-seed check (and its shrink, which re-runs the
//! violated invariant on candidate reductions) is a pure function of the
//! seed, and results are reassembled in enumeration order after the
//! `std::thread::scope` pool drains — the same master seed produces
//! byte-identical rows and corpus entries for any worker count.
//!
//! [`random_program`]: slipstream_workloads::random_program

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use slipstream_core::{check_all, standard_invariants, Invariant};
use slipstream_isa::{assemble, ArchState, Program};
use slipstream_workloads::{random_program_with_shape, RandProgConfig, XorShift64Star};

use crate::shrink::shrink;
use crate::{available_workers, json, map_ordered, trace_export, MAX_CYCLES};

/// Parameters of one fuzzing sweep.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of distinct program seeds to sweep.
    pub seeds: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Master seed for seed enumeration.
    pub seed: u64,
    /// Cycle budget per timing simulation.
    pub max_cycles: u64,
    /// Step budget for the functional oracle (and for shrink candidates).
    pub fuel: u64,
    /// Shape of the generated programs.
    pub prog: RandProgConfig,
    /// Predicate-evaluation budget per shrink.
    pub shrink_evals: usize,
}

impl FuzzConfig {
    /// The full overnight-scale sweep.
    pub fn full() -> FuzzConfig {
        FuzzConfig {
            seeds: 4096,
            workers: available_workers(),
            seed: 0xf0_22,
            max_cycles: MAX_CYCLES,
            fuel: 3_000_000,
            prog: RandProgConfig::default(),
            shrink_evals: 4096,
        }
    }

    /// Reduced-scale smoke sweep for CI (≤ 10 s): same code path, fewer
    /// seeds, smaller programs.
    pub fn smoke() -> FuzzConfig {
        FuzzConfig {
            seeds: 256,
            workers: available_workers().min(4),
            seed: 0xf0_22,
            max_cycles: MAX_CYCLES,
            fuel: 3_000_000,
            prog: RandProgConfig {
                chunks: 10,
                ..RandProgConfig::default()
            },
            shrink_evals: 2048,
        }
    }
}

/// Deterministically enumerates `n` distinct program seeds from `master`.
/// Depends only on `(n, master)` — never on thread scheduling.
pub fn enumerate_seeds(n: usize, master: u64) -> Vec<u64> {
    // Mix with a fixed tag so the fuzz seed stream is decorrelated from
    // the fault campaign's site stream under the same master seed.
    let mut rng = XorShift64Star::new(master ^ 0x9e37_79b9_7f4a_7c15);
    let mut seen: HashSet<u64> = HashSet::with_capacity(n);
    let mut seeds = Vec::with_capacity(n);
    while seeds.len() < n {
        let s = rng.next_u64();
        if s != 0 && seen.insert(s) {
            seeds.push(s);
        }
    }
    seeds
}

/// One minimized invariant violation.
#[derive(Debug, Clone)]
pub struct FuzzViolation {
    /// The `random_program` seed that produced the failing program.
    pub seed: u64,
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// The invariant's failure detail (from the original, unshrunk run).
    pub detail: String,
    /// Live (non-`nop`) instructions in the original program.
    pub original_instrs: usize,
    /// The minimized program that still violates the invariant.
    pub minimized: Program,
    /// Live instructions in the minimized program.
    pub minimized_live: usize,
    /// Predicate evaluations the shrinker consumed.
    pub shrink_evals: usize,
}

/// Per-invariant coverage counters, in invariant order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantCoverage {
    /// Invariant name.
    pub name: &'static str,
    /// Programs the invariant was checked on.
    pub checked: u64,
    /// Checks that found a violation.
    pub violations: u64,
}

/// Result of a fuzzing sweep.
#[derive(Debug, Clone)]
pub struct FuzzResult {
    /// Configuration the sweep ran with.
    pub config: FuzzConfig,
    /// Seeds swept, in enumeration order.
    pub seeds: Vec<u64>,
    /// Generated programs whose functional oracle did not terminate
    /// within the fuel budget (a generator bug if ever nonzero; such
    /// seeds are skipped, not checked).
    pub gen_rejected: u64,
    /// Per-invariant coverage, in invariant order.
    pub coverage: Vec<InvariantCoverage>,
    /// Minimized violations, in (seed, invariant) enumeration order.
    pub violations: Vec<FuzzViolation>,
    /// Wall-clock seconds for the whole sweep.
    pub elapsed_seconds: f64,
}

impl FuzzResult {
    /// Whether the sweep found no violations and rejected no seeds.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.gen_rejected == 0
    }

    /// Total invariant checks performed.
    pub fn checks(&self) -> u64 {
        self.coverage.iter().map(|c| c.checked).sum()
    }

    /// Seeds swept per wall-clock second.
    pub fn seeds_per_sec(&self) -> f64 {
        self.seeds.len() as f64 / self.elapsed_seconds.max(1e-9)
    }

    /// The sweep's outcome as deterministic JSON (no timing fields):
    /// identical for identical `(seed, seeds, prog)` regardless of worker
    /// count.
    pub fn rows_json(&self) -> String {
        let invariants = json::array(
            self.coverage.iter().map(|c| {
                json::Obj::new()
                    .str("name", c.name)
                    .raw("checked", c.checked)
                    .raw("violations", c.violations)
                    .finish()
            }),
            4,
        );
        let violations = json::array(
            self.violations.iter().map(|v| {
                json::Obj::new()
                    .raw("seed", v.seed)
                    .str("invariant", v.invariant)
                    .raw("original_instrs", v.original_instrs)
                    .raw("minimized_live", v.minimized_live)
                    .raw("shrink_evals", v.shrink_evals)
                    .finish()
            }),
            4,
        );
        format!(
            "{{\n    \"master_seed\": {}, \"seeds\": {}, \"gen_rejected\": {},\n    \
             \"invariants\": {},\n    \"violations\": {}\n  }}",
            self.config.seed,
            self.seeds.len(),
            self.gen_rejected,
            invariants,
            violations,
        )
    }
}

/// Functional oracle for `program`: final architectural state, or `Err`
/// if it doesn't terminate within `fuel` retired instructions.
fn oracle(program: &Program, fuel: u64) -> Result<ArchState, ()> {
    let mut st = ArchState::new(program);
    match st.run_quiet(program, fuel) {
        Ok(_) => Ok(st),
        Err(_) => Err(()),
    }
}

/// Outcome of checking all invariants against one seed.
struct SeedOutcome {
    rejected: bool,
    /// One entry per invariant, aligned with the invariant list.
    rows: Vec<Option<FuzzViolation>>,
}

fn check_seed(cfg: &FuzzConfig, seed: u64, invariants: &[Box<dyn Invariant>]) -> SeedOutcome {
    let (program, shape) = random_program_with_shape(seed, cfg.prog);
    let Ok(golden) = oracle(&program, cfg.fuel) else {
        return SeedOutcome {
            rejected: true,
            rows: invariants.iter().map(|_| None).collect(),
        };
    };
    let rows = check_all(invariants, &program, &golden, cfg.max_cycles)
        .into_iter()
        .zip(invariants)
        .map(|(result, inv)| {
            let detail = result.err()?;
            // Minimize against the *same* invariant. A candidate only
            // counts as failing if it still terminates functionally —
            // shrinking must not wander into non-terminating programs.
            let mut fails = |p: &Program| match oracle(p, cfg.fuel) {
                Ok(g) => inv.check(p, &g, cfg.max_cycles).is_err(),
                Err(()) => false,
            };
            let out = shrink(&program, &shape, cfg.shrink_evals, &mut fails);
            Some(FuzzViolation {
                seed,
                invariant: inv.name(),
                detail,
                original_instrs: out.from_instrs,
                minimized: out.program,
                minimized_live: out.live_instrs,
                shrink_evals: out.evals,
            })
        })
        .collect();
    SeedOutcome {
        rejected: false,
        rows,
    }
}

/// Runs a fuzzing sweep over `cfg.seeds` seeds with the given invariant
/// set (pass [`standard_invariants`]`()` for the full battery).
pub fn run_fuzz(cfg: &FuzzConfig, invariants: &[Box<dyn Invariant>]) -> FuzzResult {
    let start = Instant::now();
    let seeds = enumerate_seeds(cfg.seeds, cfg.seed);
    let outcomes = map_ordered(&seeds, cfg.workers, |&seed| {
        check_seed(cfg, seed, invariants)
    });

    let mut coverage: Vec<InvariantCoverage> = invariants
        .iter()
        .map(|inv| InvariantCoverage {
            name: inv.name(),
            checked: 0,
            violations: 0,
        })
        .collect();
    let mut violations = Vec::new();
    let mut gen_rejected = 0u64;
    for o in outcomes {
        if o.rejected {
            gen_rejected += 1;
            continue;
        }
        for (c, row) in coverage.iter_mut().zip(o.rows) {
            c.checked += 1;
            if let Some(violation) = row {
                c.violations += 1;
                violations.push(violation);
            }
        }
    }

    FuzzResult {
        config: cfg.clone(),
        seeds,
        gen_rejected,
        coverage,
        violations,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    }
}

// ---- regression corpus ----------------------------------------------------

/// Renders a violation as a self-contained corpus entry: reproduction
/// metadata in comments, then the minimized program as assembly. The text
/// round-trips through [`assemble`] (branch targets are absolute hex
/// addresses, which the assembler accepts directly).
pub fn corpus_entry_text(v: &FuzzViolation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; differential-fuzz reproducer (minimized)");
    let _ = writeln!(out, "; invariant: {}", v.invariant);
    for (i, line) in v.detail.lines().enumerate() {
        let _ = writeln!(
            out,
            "; {}{}",
            if i == 0 { "detail: " } else { "        " },
            line
        );
    }
    let _ = writeln!(
        out,
        "; origin: seed {:#x} ({} live instrs shrunk to {}, {} evals)",
        v.seed, v.original_instrs, v.minimized_live, v.shrink_evals
    );
    let _ = writeln!(
        out,
        "; replay: cargo run --release -p slipstream-bench --bin differential_fuzz -- --replay <this file>"
    );
    let _ = writeln!(out, ".org {:#x}", v.minimized.text_base());
    for instr in v.minimized.instrs() {
        let _ = writeln!(out, "{instr}");
    }
    out
}

/// File name for a violation's corpus entry.
pub fn corpus_entry_name(v: &FuzzViolation) -> String {
    format!("seed_{:016x}_{}.ssir", v.seed, v.invariant)
}

/// Writes each violation's corpus entry into `dir`, returning the paths.
pub fn write_corpus(dir: &Path, violations: &[FuzzViolation]) -> std::io::Result<Vec<PathBuf>> {
    write_corpus_traced(dir, violations, false)
}

/// File name for a violation's flight-recorder trace, written next to its
/// `.ssir` reproducer. The `.trace.txt` extension keeps it invisible to
/// [`replay_corpus_dir`], which only picks up `.ssir` entries.
pub fn trace_entry_name(v: &FuzzViolation) -> String {
    format!("seed_{:016x}_{}.trace.txt", v.seed, v.invariant)
}

/// [`write_corpus`] plus, when `with_traces` is set, a flight-recorder
/// trace of the minimized program's slipstream replay next to each
/// reproducer — headed by the first divergent event (kind, cycle, seq)
/// against the functional oracle's retirement stream.
pub fn write_corpus_traced(
    dir: &Path,
    violations: &[FuzzViolation],
    with_traces: bool,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(violations.len());
    for v in violations {
        let path = dir.join(corpus_entry_name(v));
        std::fs::write(&path, corpus_entry_text(v))?;
        paths.push(path);
        if with_traces {
            let tpath = dir.join(trace_entry_name(v));
            std::fs::write(&tpath, trace_export::violation_trace_text(v))?;
            paths.push(tpath);
        }
    }
    Ok(paths)
}

/// Replays one corpus entry: assembles it, runs the functional oracle,
/// and checks the full standard invariant battery with [`check_all`],
/// reporting the first invariant in battery order that fails. A corpus
/// entry records a *fixed* historical bug, so replay demands every
/// invariant now holds; any failure is a regression.
pub fn replay_corpus_file(path: &Path) -> Result<(), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let program = assemble(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    let golden = oracle(&program, 3_000_000)
        .map_err(|()| format!("{}: program does not terminate", path.display()))?;
    let invariants = standard_invariants();
    let results = check_all(&invariants, &program, &golden, MAX_CYCLES);
    for (inv, result) in invariants.iter().zip(results) {
        result.map_err(|e| format!("{}: {} regressed: {e}", path.display(), inv.name()))?;
    }
    Ok(())
}

/// Replays every `.ssir` entry in `dir` (sorted by name, for deterministic
/// reporting), returning how many were replayed or the first failure.
pub fn replay_corpus_dir(dir: &Path) -> Result<usize, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ssir"))
        .collect();
    entries.sort();
    for path in &entries {
        replay_corpus_file(path)?;
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::live_count;

    #[test]
    fn seed_enumeration_is_deterministic_and_distinct() {
        let a = enumerate_seeds(64, 7);
        let b = enumerate_seeds(64, 7);
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 64);
        assert_ne!(enumerate_seeds(64, 8), a);
    }

    #[test]
    fn corpus_entry_round_trips_through_the_assembler() {
        let (program, _) = random_program_with_shape(11, RandProgConfig::default());
        let v = FuzzViolation {
            seed: 11,
            invariant: "core-oracle",
            detail: "register r3 = 0x1, oracle has 0x2\nsecond line".into(),
            original_instrs: live_count(&program),
            minimized: program.clone(),
            minimized_live: live_count(&program),
            shrink_evals: 0,
        };
        let text = corpus_entry_text(&v);
        let back = assemble(&text).expect("corpus text assembles");
        assert_eq!(back.text_base(), program.text_base());
        assert_eq!(back.instrs(), program.instrs());
    }
}
