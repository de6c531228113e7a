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
use slipstream::isa::{assemble, ArchState, ExecError, Program, Retired};
use slipstream::workloads::{random_program, suite, RandProgConfig, XorShift64Star};

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

/// `run_quiet`'s contract, spelled out as a loop of `step`.
fn step_loop(st: &mut ArchState, p: &Program, fuel: u64) -> Result<u64, ExecError> {
    let start = st.retired();
    for _ in 0..fuel {
        if st.step(p)?.is_halt() {
            return Ok(st.retired() - start);
        }
    }
    Err(ExecError::OutOfFuel { executed: fuel })
}

fn assert_same_state(quiet: &ArchState, stepped: &ArchState, what: &str) {
    assert_eq!(quiet.regs(), stepped.regs(), "{what}: registers");
    assert_eq!(
        quiet.mem().first_difference(stepped.mem()),
        None,
        "{what}: memory"
    );
    assert_eq!(quiet.pc(), stepped.pc(), "{what}: pc");
    assert_eq!(quiet.retired(), stepped.retired(), "{what}: retired");
    assert_eq!(quiet.halted(), stepped.halted(), "{what}: halted");
}

/// Runs `p` both ways with `fuel`, then once more with `fuel` again (after
/// a halt that re-executes the halt), checking the results and the states
/// agree each time.
fn assert_quiet_matches_step(p: &Program, fuel: u64, what: &str) {
    let mut quiet = ArchState::new(p);
    let mut stepped = ArchState::new(p);
    for call in ["first run", "second run"] {
        assert_eq!(
            quiet.run_quiet(p, fuel),
            step_loop(&mut stepped, p, fuel),
            "{what}: {call}: result"
        );
        assert_same_state(&quiet, &stepped, &format!("{what}: {call}"));
    }
}

/// The quiet functional run (effects applied in place, no records) ends
/// in exactly the state a loop of `step` does: on the benchmarks, on the
/// checked-in corpus, on generated programs, cut short by fuel, on byte
/// stores, and on a wild jump.
#[test]
fn run_quiet_matches_a_step_loop() {
    for w in suite(0.05) {
        assert_quiet_matches_step(&w.program, 100_000_000, w.name);
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/corpus");
    let mut corpus: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ssir"))
        .collect();
    corpus.sort();
    assert!(
        corpus.len() >= 5,
        "expected the seed corpus, found {corpus:?}"
    );
    for path in &corpus {
        let src = std::fs::read_to_string(path).expect("corpus file reads");
        let p = assemble(&src).expect("corpus file assembles");
        assert_quiet_matches_step(&p, FUEL, &path.display().to_string());
    }
    for seed in seeds("run_quiet_matches_a_step_loop", 256, 1 << 32) {
        let p = random_program(seed, RandProgConfig::default());
        assert_quiet_matches_step(&p, FUEL, &format!("seed {seed}"));
        let half = golden(&p).retired() / 2;
        assert_quiet_matches_step(&p, half, &format!("seed {seed}, fuel {half}"));
    }
    // Neither the benchmarks, the corpus nor the generator store bytes.
    let bytes = assemble(
        "li r1, 0x3000\nli r2, 0x0102030405060708\nst r2, 0(r1)\nst r2, 8(r1)\n\
         li r3, 0x1ff\nstb r3, 3(r1)\nstb r3, 4095(r1)\nldb r4, 3(r1)\nld r5, 0(r1)\nhalt",
    )
    .unwrap();
    assert_quiet_matches_step(&bytes, FUEL, "byte stores into live words");
    let wild = assemble("li r1, 64\njr r1").unwrap();
    let mut st = ArchState::new(&wild);
    assert_eq!(
        st.run_quiet(&wild, 10),
        Err(ExecError::InvalidPc { pc: 64 })
    );
    assert_quiet_matches_step(&wild, 10, "wild jump");
    let spin = assemble("li r1, 1\nloop:\nst r1, 0(r0)\naddi r1, r1, 1\nj loop").unwrap();
    let mut st = ArchState::new(&spin);
    assert_eq!(
        st.run_quiet(&spin, 50),
        Err(ExecError::OutOfFuel { executed: 50 })
    );
    assert_quiet_matches_step(&spin, 50, "out of fuel");
}
