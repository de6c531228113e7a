//! Property-based tests over randomly generated programs: whatever program
//! the generator produces, every timing model must agree exactly with the
//! functional oracle, and the slipstream invariants must hold.
//!
//! Formerly a `proptest` suite; rewritten as deterministic sweeps over the
//! seed-derived PRNG streams so the workspace builds with no external
//! dependencies. Seeds are drawn from a fixed xorshift64* stream per test
//! (spread across the seed space rather than clustered at 0..N), so the
//! programs exercised match the old suite in diversity. On failure the
//! panic message names the offending seed; reproduce with
//! `random_program(seed, RandProgConfig::default())`.

use slipstream::core::{RemovalPolicy, SlipstreamConfig, SlipstreamProcessor};
use slipstream::cpu::{Core, CoreConfig, OracleDriver};
use slipstream::isa::{ArchState, Program, Retired};
use slipstream::workloads::{random_program, RandProgConfig, XorShift64Star};

const FUEL: u64 = 3_000_000;
const MAX_CYCLES: u64 = 10_000_000;

fn golden(p: &Program) -> ArchState {
    let mut st = ArchState::new(p);
    st.run_quiet(p, FUEL).expect("generated programs terminate");
    st
}

/// `cases` seeds in `[0, limit)`, deterministically derived from the test
/// name so each test sweeps a distinct but reproducible sample.
fn seeds(test: &str, cases: usize, limit: u64) -> Vec<u64> {
    let tag = test
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    let mut rng = XorShift64Star::new(tag);
    (0..cases).map(|_| rng.below(limit)).collect()
}

/// The cycle-level core retires exactly the oracle's results.
#[test]
fn cycle_core_equals_oracle() {
    for seed in seeds("cycle_core_equals_oracle", 24, 10_000) {
        let p = random_program(seed, RandProgConfig::default());
        let gold = golden(&p);
        let mut core = Core::new(CoreConfig::ss_64x4(), p.initial_memory());
        let mut driver = OracleDriver::new(&p);
        let mut retired: Vec<Retired> = Vec::new();
        while !core.halted() {
            core.cycle(&mut driver, &mut retired);
        }
        assert_eq!(core.arch_regs(), gold.regs(), "seed {seed}");
        assert_eq!(core.mem().first_difference(gold.mem()), None, "seed {seed}");
    }
}

/// The full slipstream processor — removal, delay buffer, recovery and
/// all — ends with the oracle's architectural state.
#[test]
fn slipstream_equals_oracle() {
    for seed in seeds("slipstream_equals_oracle", 24, 10_000) {
        let p = random_program(seed, RandProgConfig::default());
        let gold = golden(&p);
        let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &p);
        proc.set_strict(true);
        assert!(proc.run(MAX_CYCLES), "seed {seed}");
        assert_eq!(proc.r_core().arch_regs(), gold.regs(), "seed {seed}");
        assert_eq!(
            proc.r_core().mem().first_difference(gold.mem()),
            None,
            "seed {seed}"
        );
    }
}

/// An aggressive confidence threshold provokes wrong removal and
/// recovery, but the final state still matches.
#[test]
fn slipstream_recovers_under_aggressive_removal() {
    for seed in seeds("slipstream_recovers_under_aggressive_removal", 24, 2_000) {
        let p = random_program(seed, RandProgConfig::default());
        let gold = golden(&p);
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.confidence_threshold = 1;
        let mut proc = SlipstreamProcessor::new(cfg, &p);
        proc.set_strict(true);
        assert!(proc.run(MAX_CYCLES), "seed {seed}");
        assert_eq!(proc.r_core().arch_regs(), gold.regs(), "seed {seed}");
        assert_eq!(
            proc.r_core().mem().first_difference(gold.mem()),
            None,
            "seed {seed}"
        );
    }
}

/// AR-SMT mode (no removal) never diverges and retires both streams in
/// lockstep totals.
#[test]
fn ar_smt_mode_is_fully_redundant() {
    for seed in seeds("ar_smt_mode_is_fully_redundant", 24, 5_000) {
        let p = random_program(seed, RandProgConfig::default());
        let mut cfg = SlipstreamConfig::cmp_2x64x4();
        cfg.removal = RemovalPolicy::none();
        let mut proc = SlipstreamProcessor::new(cfg, &p);
        assert!(proc.run(MAX_CYCLES), "seed {seed}");
        let s = proc.stats();
        assert_eq!(s.skipped, 0, "seed {seed}");
        assert_eq!(s.ir_mispredictions, 0, "seed {seed}");
        assert_eq!(s.a_retired, s.r_retired, "seed {seed}");
    }
}

/// Trace construction and materialization are inverses: segmenting a
/// random program's dynamic stream into canonical traces and walking
/// each id back through the text reproduces the exact PC sequence.
#[test]
fn trace_ids_materialize_back_to_the_dynamic_stream() {
    use slipstream::predict::{materialize_into, TraceBuilder};
    for seed in seeds(
        "trace_ids_materialize_back_to_the_dynamic_stream",
        24,
        10_000,
    ) {
        let p = random_program(seed, RandProgConfig::default());
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, FUEL).expect("terminates");
        let mut tb = TraceBuilder::new();
        let ids: Vec<_> = trace
            .iter()
            .filter_map(|rec| tb.push(rec.pc, &rec.instr, rec.taken))
            .collect();
        let pcs: Vec<u64> = trace.iter().map(|rec| rec.pc).collect();
        let (mut rebuilt, mut walked) = (Vec::new(), Vec::new());
        for id in ids.into_iter().chain(tb.flush()) {
            materialize_into(&p, id, &mut walked).expect("constructed ids always materialize");
            rebuilt.extend_from_slice(&walked);
        }
        assert_eq!(rebuilt, pcs, "seed {seed}");
    }
}

/// The online functional checker (paper §4) passes on random programs:
/// the R-stream retires the oracle's stream record-for-record.
#[test]
fn online_checker_accepts_random_programs() {
    for seed in seeds("online_checker_accepts_random_programs", 24, 3_000) {
        let p = random_program(seed, RandProgConfig::default());
        let mut proc = SlipstreamProcessor::new(SlipstreamConfig::cmp_2x64x4(), &p);
        proc.enable_online_check();
        assert!(proc.run(MAX_CYCLES), "seed {seed}");
    }
}

/// The functional simulator itself is deterministic.
#[test]
fn functional_simulator_is_deterministic() {
    for seed in seeds("functional_simulator_is_deterministic", 24, 10_000) {
        let p = random_program(seed, RandProgConfig::default());
        let a = golden(&p);
        let b = golden(&p);
        assert_eq!(a.regs(), b.regs(), "seed {seed}");
        assert_eq!(a.retired(), b.retired(), "seed {seed}");
    }
}
