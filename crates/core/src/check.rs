//! Differential invariant checkers — the pluggable oracle surface of the
//! fuzzing subsystem.
//!
//! The paper's central correctness claim is that the R-stream fully
//! validates the shortened A-stream, so *any* disagreement between a
//! timing model and the functional oracle is a bug in the reproduction.
//! Each [`Invariant`] here packages one such check as a pure function of
//! `(program, golden state)`: the cycle-level core against the oracle, the
//! full slipstream processor under each removal policy (with strict
//! post-recovery checks and the online functional checker engaged),
//! structural sanity of the end-of-run statistics, and exact cycle
//! accounting.
//!
//! Most invariants judge one slipstream run: each names its run with a
//! [`RunKey`] (removal policy and confidence threshold over
//! `cmp_2x64x4()`) and implements [`Invariant::judge`], and every such run
//! is simulated with the strict post-recovery checks and the online
//! functional checker on. [`check_all`] simulates each distinct key once
//! and lets every invariant with that key judge the same run — the
//! standard battery's six slipstream invariants share four runs — so a
//! battery costs one simulation per configuration, not one per invariant.
//! [`Invariant::check`] is the same judgement on a run of its own, which
//! the shrinker uses to re-check a single violated invariant.
//!
//! Checkers never panic at their callers: internal simulator assertions
//! (strict mode, the online checker, the wedge watchdog) are caught and
//! converted into `Err` details, with the default panic printer suppressed
//! on the checking thread so a fuzz campaign's stderr stays readable. A
//! run aborted that way (or one that does not halt) fails every invariant
//! that judges it, with the same detail.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use slipstream_cpu::{Core, CoreConfig, OracleDriver};
use slipstream_isa::{ArchState, Program};

use crate::config::{RemovalPolicy, SlipstreamConfig};
use crate::slipstream::SlipstreamProcessor;

/// Names the slipstream run an invariant judges: `cmp_2x64x4()` with this
/// removal policy and confidence threshold. Invariants with equal keys
/// judge the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunKey {
    /// What the A-stream may remove.
    pub removal: RemovalPolicy,
    /// Consecutive confirmations before a removal is trusted.
    pub confidence_threshold: u32,
}

impl RunKey {
    /// `cmp_2x64x4()` with `removal` at the default confidence threshold.
    pub fn cmp_2x64x4(removal: RemovalPolicy) -> RunKey {
        RunKey {
            removal,
            confidence_threshold: SlipstreamConfig::cmp_2x64x4().confidence_threshold,
        }
    }

    /// The processor configuration this key names.
    fn config(self) -> SlipstreamConfig {
        SlipstreamConfig {
            removal: self.removal,
            confidence_threshold: self.confidence_threshold,
            ..SlipstreamConfig::cmp_2x64x4()
        }
    }
}

/// Simulates `key`'s configuration on `program` with the strict
/// post-recovery checks and the online functional checker on. `Err` holds
/// the caught panic (as [`catch_check`] words it) or a run that did not
/// halt within `max_cycles`.
fn simulate(
    key: RunKey,
    program: &Program,
    max_cycles: u64,
) -> Result<SlipstreamProcessor, String> {
    catch_panics(|| {
        let mut proc = SlipstreamProcessor::new(key.config(), program);
        proc.set_strict(true);
        proc.enable_online_check();
        if proc.run(max_cycles) {
            Ok(proc)
        } else {
            Err(format!("did not halt within {max_cycles} cycles"))
        }
    })
}

/// One differential invariant, checkable on any `(program, golden)` pair.
///
/// Implementations must be deterministic — the fuzz engine relies on a
/// violated invariant staying violated while a shrinker re-checks
/// candidate reductions — and `Sync`, so one instance can serve a whole
/// worker pool. An invariant either names the run it judges
/// ([`run_key`](Invariant::run_key) + [`judge`](Invariant::judge)) or
/// overrides [`check`](Invariant::check) with a simulation of its own.
pub trait Invariant: Sync {
    /// Stable, human-readable identifier (used in reports and corpus
    /// metadata).
    fn name(&self) -> &'static str;

    /// The slipstream run this invariant judges; `None` for an invariant
    /// that overrides [`check`](Invariant::check) instead.
    fn run_key(&self) -> Option<RunKey> {
        None
    }

    /// Judges `run` — this invariant's key simulated with strict
    /// post-recovery checks and the online checker on — against `golden`.
    /// An `Err` run (a caught panic, or no halt within the cycle budget)
    /// is a violation with that detail.
    fn judge(
        &self,
        _run: &Result<SlipstreamProcessor, String>,
        _golden: &ArchState,
    ) -> Result<(), String> {
        Err(format!("{}: no run key to judge", self.name()))
    }

    /// Checks the invariant. `golden` is the functional oracle's final
    /// state for `program`; `max_cycles` bounds every timing simulation.
    /// By default: simulate the run key, then judge the run.
    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String> {
        let Some(key) = self.run_key() else {
            return Err(format!(
                "{}: no run key and no check of its own",
                self.name()
            ));
        };
        let run = simulate(key, program, max_cycles);
        catch_check(|| self.judge(&run, golden))
    }
}

/// Checks every invariant on one `(program, golden)` pair, returning the
/// results in invariant order; `results[i]` equals
/// `invariants[i].check(program, golden, max_cycles)`. Each distinct
/// [`RunKey`] is simulated once, in order of first appearance, judged by
/// every invariant with that key, and dropped before the next key is
/// built, so at most one processor is live. Unkeyed invariants run their
/// own `check` at their position.
pub fn check_all(
    invariants: &[Box<dyn Invariant>],
    program: &Program,
    golden: &ArchState,
    max_cycles: u64,
) -> Vec<Result<(), String>> {
    let keys: Vec<Option<RunKey>> = invariants.iter().map(|inv| inv.run_key()).collect();
    let mut results: Vec<Option<Result<(), String>>> = vec![None; invariants.len()];
    for (i, inv) in invariants.iter().enumerate() {
        if results[i].is_some() {
            continue;
        }
        let Some(key) = keys[i] else {
            results[i] = Some(inv.check(program, golden, max_cycles));
            continue;
        };
        let run = simulate(key, program, max_cycles);
        for (j, judge) in invariants.iter().enumerate().skip(i) {
            if keys[j] == Some(key) {
                results[j] = Some(catch_check(|| judge.judge(&run, golden)));
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every invariant was checked"))
        .collect()
}

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}
static INSTALL_QUIET_HOOK: Once = Once::new();

struct QuietGuard(bool);

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET_PANICS.with(|q| q.set(self.0));
    }
}

/// Runs `f`, converting a panic into `Err` with the panic message as the
/// detail. While `f` runs, the default panic printer is suppressed on this
/// thread (the message is not lost — it becomes the `Err`); other threads
/// keep normal panic reporting.
pub fn catch_check(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_panics(f)
}

/// [`catch_check`] for any `Ok` type.
fn catch_panics<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    INSTALL_QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    let _guard = QuietGuard(QUIET_PANICS.with(|q| q.replace(true)));
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {msg}"))
        }
    }
}

fn compare_final_state(
    label: &str,
    regs: &[u64; slipstream_isa::NUM_REGS],
    mem_diff: Option<u64>,
    golden: &ArchState,
) -> Result<(), String> {
    if regs != golden.regs() {
        let r = (0..slipstream_isa::NUM_REGS)
            .find(|&i| regs[i] != golden.regs()[i])
            .expect("some register differs");
        return Err(format!(
            "{label}: register r{r} = {:#x}, oracle has {:#x}",
            regs[r],
            golden.regs()[r]
        ));
    }
    if let Some(addr) = mem_diff {
        return Err(format!("{label}: memory differs from oracle at {addr:#x}"));
    }
    Ok(())
}

/// Invariant 1: the cycle-level out-of-order core, driven by the oracle's
/// control flow, retires exactly the oracle's architectural state.
pub struct CoreOracle;

impl Invariant for CoreOracle {
    fn name(&self) -> &'static str {
        "core-oracle"
    }

    fn check(&self, program: &Program, golden: &ArchState, max_cycles: u64) -> Result<(), String> {
        catch_check(|| {
            let mut core = Core::new(CoreConfig::ss_64x4(), program.initial_memory());
            let mut driver = OracleDriver::new(program);
            let mut cycles = 0u64;
            while !core.halted() {
                if cycles >= max_cycles {
                    return Err(format!("core did not halt within {max_cycles} cycles"));
                }
                core.cycle_quiet(&mut driver);
                cycles += 1;
            }
            compare_final_state(
                "core-oracle",
                core.arch_regs(),
                core.mem().first_difference(golden.mem()),
                golden,
            )
        })
    }
}

/// Invariant 2: the full slipstream processor — removal, delay buffer,
/// recovery — reaches the oracle's architectural state, with the strict
/// post-recovery checks and the online functional checker both clean.
pub struct SlipstreamOracle {
    label: &'static str,
    key: RunKey,
    /// Extra AR-SMT lockstep accounting (only meaningful with
    /// `RemovalPolicy::none()`).
    lockstep: bool,
}

impl SlipstreamOracle {
    /// The paper's default removal policy (branches + ineffectual writes).
    pub fn all() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-all",
            key: RunKey::cmp_2x64x4(RemovalPolicy::all()),
            lockstep: false,
        }
    }

    /// Figure 8 (bottom): branches and their chains only.
    pub fn branches_only() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-branches-only",
            key: RunKey::cmp_2x64x4(RemovalPolicy::branches_only()),
            lockstep: false,
        }
    }

    /// AR-SMT mode: no removal; both streams retire in lockstep totals and
    /// no IR-misprediction may fire.
    pub fn ar_smt() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-ar-smt",
            key: RunKey::cmp_2x64x4(RemovalPolicy::none()),
            lockstep: true,
        }
    }

    /// Full removal with a confidence threshold of 1 — provokes wrong
    /// removal and exercises the recovery path hard.
    pub fn aggressive() -> SlipstreamOracle {
        SlipstreamOracle {
            label: "slipstream-aggressive",
            key: AGGRESSIVE,
            lockstep: false,
        }
    }
}

/// Full removal trusted after one confirmation: the most recovery traffic.
const AGGRESSIVE: RunKey = RunKey {
    removal: RemovalPolicy::all(),
    confidence_threshold: 1,
};

impl Invariant for SlipstreamOracle {
    fn name(&self) -> &'static str {
        self.label
    }

    fn run_key(&self) -> Option<RunKey> {
        Some(self.key)
    }

    fn judge(
        &self,
        run: &Result<SlipstreamProcessor, String>,
        golden: &ArchState,
    ) -> Result<(), String> {
        let proc = run.as_ref().map_err(String::clone)?;
        compare_final_state(
            self.label,
            proc.r_core().arch_regs(),
            proc.r_core().mem().first_difference(golden.mem()),
            golden,
        )?;
        if self.lockstep {
            let s = proc.stats();
            if s.skipped != 0 {
                return Err(format!(
                    "{}: skipped {} with removal off",
                    self.label, s.skipped
                ));
            }
            if s.ir_mispredictions != 0 {
                return Err(format!(
                    "{}: {} IR-mispredictions with removal off",
                    self.label, s.ir_mispredictions
                ));
            }
            if s.a_retired != s.r_retired {
                return Err(format!(
                    "{}: A retired {} but R retired {} in AR-SMT mode",
                    self.label, s.a_retired, s.r_retired
                ));
            }
        }
        Ok(())
    }
}

/// Invariant 3: end-of-run statistics of the default `cmp_2x64x4()` run
/// are internally consistent — retired counts match the oracle,
/// IR-misprediction accounting balances, and the misprediction log's cycle
/// column is monotone.
pub struct StatsSanity;

impl Invariant for StatsSanity {
    fn name(&self) -> &'static str {
        "stats-sanity"
    }

    fn run_key(&self) -> Option<RunKey> {
        Some(RunKey::cmp_2x64x4(RemovalPolicy::all()))
    }

    fn judge(
        &self,
        run: &Result<SlipstreamProcessor, String>,
        golden: &ArchState,
    ) -> Result<(), String> {
        let proc = run.as_ref().map_err(String::clone)?;
        let s = proc.stats();
        if !s.halted {
            return Err("halted flag disagrees with run() returning true".into());
        }
        if s.r_retired != golden.retired() {
            return Err(format!(
                "R-stream retired {} dynamic instructions, oracle retired {}",
                s.r_retired,
                golden.retired()
            ));
        }
        if s.cycles == 0 || s.a_retired == 0 {
            return Err(format!(
                "degenerate run: cycles {} a_retired {}",
                s.cycles, s.a_retired
            ));
        }
        let by_reason: u64 = s.skipped_by_reason.iter().map(|&(_, n)| n).sum();
        if by_reason != s.skipped {
            return Err(format!(
                "skip accounting: by-reason total {} != skipped {}",
                by_reason, s.skipped
            ));
        }
        if s.skipped > s.r_retired {
            return Err(format!(
                "skipped {} exceeds the dynamic stream {}",
                s.skipped, s.r_retired
            ));
        }
        if s.ir_mispredictions != s.misp_cycles.len() as u64 {
            return Err(format!(
                "IR-misprediction count {} != log length {}",
                s.ir_mispredictions,
                s.misp_cycles.len()
            ));
        }
        if s.misp_cycles.windows(2).any(|w| w[0] > w[1]) {
            return Err("misprediction log cycles are not monotone".into());
        }
        if s.misp_cycles.last().is_some_and(|&c| c > s.cycles) {
            return Err("misprediction logged past the end of the run".into());
        }
        let ipc = s.r_retired as f64 / s.cycles as f64;
        if (s.ipc - ipc).abs() > 1e-9 {
            return Err(format!("reported IPC {} != {}", s.ipc, ipc));
        }
        Ok(())
    }
}

/// Invariant 4: exact cycle accounting — for both cores, the CPI stack's
/// category sum equals the core's cycle counter (every cycle attributed to
/// exactly one exclusive bucket), after a full run including whatever
/// recoveries the program provoked. It judges the aggressive run, whose
/// threshold of 1 maximizes recovery traffic through the accounting paths.
pub struct CycleAccounting;

impl Invariant for CycleAccounting {
    fn name(&self) -> &'static str {
        "cycle-accounting"
    }

    fn run_key(&self) -> Option<RunKey> {
        Some(AGGRESSIVE)
    }

    fn judge(
        &self,
        run: &Result<SlipstreamProcessor, String>,
        _golden: &ArchState,
    ) -> Result<(), String> {
        let proc = run.as_ref().map_err(String::clone)?;
        for (label, core) in [("A", proc.a_core()), ("R", proc.r_core())] {
            let s = core.stats();
            if s.cpi.total() != s.cycles {
                return Err(format!(
                    "{label}-stream CPI stack sums to {} but the core ran {} cycles",
                    s.cpi.total(),
                    s.cycles
                ));
            }
            let split = s.fetch_fill_stall_cycles
                + s.fetch_redirect_stall_cycles
                + s.fetch_external_stall_cycles;
            if split > s.cycles {
                return Err(format!(
                    "{label}-stream fetch-stall split {split} exceeds {} cycles",
                    s.cycles
                ));
            }
        }
        Ok(())
    }
}

/// The standard invariant set swept by the differential fuzzing campaign,
/// in reporting order.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(CoreOracle),
        Box::new(SlipstreamOracle::all()),
        Box::new(SlipstreamOracle::branches_only()),
        Box::new(SlipstreamOracle::ar_smt()),
        Box::new(SlipstreamOracle::aggressive()),
        Box::new(StatsSanity),
        Box::new(CycleAccounting),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_isa::assemble;

    fn golden(p: &Program) -> ArchState {
        let mut st = ArchState::new(p);
        st.run_quiet(p, 1_000_000).expect("terminates");
        st
    }

    #[test]
    fn standard_invariants_pass_on_a_simple_program() {
        let p = assemble("li r1, 5\nloop: addi r2, r2, 3\naddi r1, r1, -1\nbne r1, r0, loop\nhalt")
            .unwrap();
        let g = golden(&p);
        for inv in standard_invariants() {
            inv.check(&p, &g, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", inv.name()));
        }
    }

    #[test]
    fn checkers_report_wrong_golden_as_violation() {
        let p = assemble("li r1, 5\nhalt").unwrap();
        let mut g = golden(&p);
        g.set_reg(slipstream_isa::Reg::new(1), 99); // corrupt the oracle
        assert!(CoreOracle.check(&p, &g, 1_000_000).is_err());
        assert!(SlipstreamOracle::all().check(&p, &g, 1_000_000).is_err());
    }

    #[test]
    fn catch_check_converts_panics_to_errors() {
        let r = catch_check(|| panic!("boom {}", 42));
        assert_eq!(r, Err("panicked: boom 42".to_string()));
        assert_eq!(catch_check(|| Ok(())), Ok(()));
        // The quiet flag is restored even after a panic.
        let r2 = catch_check(|| -> Result<(), String> { panic!("again") });
        assert!(r2.is_err());
    }
}
