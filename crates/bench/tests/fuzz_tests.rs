//! Differential-fuzz engine tests: the shrinker must minimize a seeded
//! synthetic bug to a handful of instructions, the campaign's rows and
//! corpus output must be byte-identical for any worker count, the
//! checked-in regression corpus must replay clean (and a malformed entry
//! must fail, not panic), the shared-run battery (`check_all`) must agree
//! with every invariant's own `check`, and the committed `BENCH_fuzz.json`
//! must describe the current battery.

use std::path::Path;

use slipstream_bench::{
    corpus_entry_text, enumerate_seeds, json, live_count, replay_corpus_dir, replay_corpus_file,
    run_fuzz, shrink, FuzzConfig,
};
use slipstream_core::{check_all, standard_invariants, Invariant, RunKey};
use slipstream_isa::{assemble, ArchState, Instr, Program, Reg};
use slipstream_workloads::{random_program, random_program_with_shape};

const FUEL: u64 = 3_000_000;

/// A synthetic "bug": the invariant is violated iff the program contains
/// a `mul`. Shrinking a violation must therefore converge onto (nearly)
/// only the offending instruction.
struct MulPresent;

impl Invariant for MulPresent {
    fn name(&self) -> &'static str {
        "synthetic-mul-present"
    }

    fn check(
        &self,
        program: &Program,
        _golden: &ArchState,
        _max_cycles: u64,
    ) -> Result<(), String> {
        if program
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Mul { .. }))
        {
            Err("program contains a mul".into())
        } else {
            Ok(())
        }
    }
}

/// First enumerated seed whose generated program contains a `mul`.
fn seed_with_mul(cfg: &FuzzConfig) -> u64 {
    enumerate_seeds(cfg.seeds, cfg.seed)
        .into_iter()
        .find(|&s| {
            let (p, _) = random_program_with_shape(s, cfg.prog);
            p.instrs().iter().any(|i| matches!(i, Instr::Mul { .. }))
        })
        .expect("some generated program contains a mul")
}

fn small_config() -> FuzzConfig {
    let mut cfg = FuzzConfig::smoke();
    cfg.seeds = 24;
    cfg
}

#[test]
fn shrinker_minimizes_synthetic_bug_to_a_few_instructions() {
    let cfg = small_config();
    let seed = seed_with_mul(&cfg);
    let (program, shape) = random_program_with_shape(seed, cfg.prog);
    let from = live_count(&program);

    // The fuzz engine's predicate shape: functionally terminating AND
    // still violating.
    let mut fails = |p: &Program| {
        let mut g = ArchState::new(p);
        g.run_quiet(p, FUEL).is_ok() && MulPresent.check(p, &g, cfg.max_cycles).is_err()
    };
    let out = shrink(&program, &shape, cfg.shrink_evals, &mut fails);

    assert!(fails(&out.program), "minimized program must still fail");
    assert!(
        out.live_instrs <= 8,
        "synthetic bug must shrink to <= 8 instructions, got {} (from {from})",
        out.live_instrs
    );
    assert!(out.live_instrs < from, "shrinker must make progress");
    // The nops are gone entirely: the compacted form still contains the
    // mul, so the final pass must have adopted it.
    assert_eq!(out.live_instrs, out.program.len());
    assert!(out
        .program
        .instrs()
        .iter()
        .any(|i| matches!(i, Instr::Mul { .. })));
}

#[test]
fn shrinker_result_is_deterministic() {
    let cfg = small_config();
    let seed = seed_with_mul(&cfg);
    let (program, shape) = random_program_with_shape(seed, cfg.prog);
    let run = || {
        let mut fails = |p: &Program| {
            let mut g = ArchState::new(p);
            g.run_quiet(p, FUEL).is_ok() && MulPresent.check(p, &g, cfg.max_cycles).is_err()
        };
        shrink(&program, &shape, cfg.shrink_evals, &mut fails)
    };
    let a = run();
    let b = run();
    assert_eq!(a.program.instrs(), b.program.instrs());
    assert_eq!(a.evals, b.evals);
    assert_eq!(a.live_instrs, b.live_instrs);
}

#[test]
fn fuzz_rows_and_corpus_are_worker_count_independent() {
    // The synthetic invariant guarantees violations (and thus shrinks)
    // happen inside the worker pool, so this exercises the full
    // enumerate → check → shrink → reassemble path under contention.
    let mut cfg = small_config();
    let invariants: Vec<Box<dyn Invariant>> = vec![Box::new(MulPresent)];

    cfg.workers = 1;
    let serial = run_fuzz(&cfg, &invariants);
    cfg.workers = 3;
    let pooled = run_fuzz(&cfg, &invariants);

    assert_eq!(serial.rows_json(), pooled.rows_json());
    assert!(
        !serial.violations.is_empty(),
        "the sweep must find at least one mul-carrying program"
    );
    assert_eq!(serial.violations.len(), pooled.violations.len());
    for (a, b) in serial.violations.iter().zip(&pooled.violations) {
        assert_eq!(corpus_entry_text(a), corpus_entry_text(b));
    }
}

#[test]
fn real_invariants_hold_on_sampled_seeds() {
    let mut cfg = small_config();
    cfg.seeds = 8;
    let result = run_fuzz(&cfg, &standard_invariants());
    assert!(result.is_clean(), "violations: {:?}", result.violations);
    assert_eq!(result.checks(), 8 * standard_invariants().len() as u64);
}

#[test]
fn checked_in_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let n = replay_corpus_dir(&dir).expect("corpus must replay clean");
    assert!(n >= 5, "expected the seed corpus entries, found {n}");
}

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn golden(p: &Program) -> ArchState {
    let mut g = ArchState::new(p);
    g.run_quiet(p, FUEL).expect("program terminates");
    g
}

/// Checks `program` with the shared-run battery and with every
/// invariant's own `check`, asserts the two agree detail for detail, and
/// returns the shared results.
fn check_all_matches_each_check(
    invariants: &[Box<dyn Invariant>],
    program: &Program,
    golden: &ArchState,
    max_cycles: u64,
) -> Vec<Result<(), String>> {
    let shared = check_all(invariants, program, golden, max_cycles);
    assert_eq!(shared.len(), invariants.len());
    for (inv, result) in invariants.iter().zip(&shared) {
        assert_eq!(
            result,
            &inv.check(program, golden, max_cycles),
            "{}",
            inv.name()
        );
    }
    shared
}

#[test]
fn check_all_equals_each_invariants_own_check() {
    let invariants = standard_invariants();
    let cfg = small_config();

    let mut corpus: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ssir"))
        .collect();
    corpus.sort();
    assert!(
        !corpus.is_empty(),
        "the checked-in corpus must not be empty"
    );
    let mut programs: Vec<Program> = corpus
        .iter()
        .map(|p| assemble(&std::fs::read_to_string(p).expect("read entry")).expect("assembles"))
        .collect();
    programs.extend(
        enumerate_seeds(16, cfg.seed)
            .into_iter()
            .map(|s| random_program(s, cfg.prog)),
    );
    for p in &programs {
        let results = check_all_matches_each_check(&invariants, p, &golden(p), cfg.max_cycles);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
    }

    // A wrong golden — stopped half way, with a register clobbered — fails
    // every invariant that reads it; cycle-accounting never reads it.
    let p = &programs[corpus.len()];
    let mut bad = ArchState::new(p);
    let _ = bad.run_quiet(p, golden(p).retired() / 2);
    bad.set_reg(Reg::new(1), bad.reg(Reg::new(1)) ^ 0xdead);
    let results = check_all_matches_each_check(&invariants, p, &bad, cfg.max_cycles);
    for (inv, r) in invariants.iter().zip(&results) {
        assert_eq!(
            r.is_ok(),
            inv.name() == "cycle-accounting",
            "{}: {r:?}",
            inv.name()
        );
    }

    // A budget too small to halt fails every standard invariant, with the
    // same detail through either path; the unkeyed synthetic invariant
    // put ahead of them keeps its own answer.
    let mixed: Vec<Box<dyn Invariant>> =
        std::iter::once(Box::new(MulPresent) as Box<dyn Invariant>)
            .chain(standard_invariants())
            .collect();
    let results = check_all_matches_each_check(&mixed, p, &golden(p), 10);
    assert!(results[1..].iter().all(Result::is_err), "{results:?}");
    assert_eq!(
        results[2].as_ref().unwrap_err(),
        "did not halt within 10 cycles"
    );
}

#[test]
fn keyed_standard_invariants_share_four_runs() {
    let invariants = standard_invariants();
    let key = |name: &str| {
        invariants
            .iter()
            .find(|inv| inv.name() == name)
            .and_then(|inv| inv.run_key())
    };
    let keys: Vec<RunKey> = invariants.iter().filter_map(|inv| inv.run_key()).collect();
    assert_eq!(
        keys.len(),
        6,
        "every standard invariant but core-oracle is keyed"
    );
    assert_eq!(key("core-oracle"), None);
    let mut distinct: Vec<RunKey> = Vec::new();
    for k in keys {
        if !distinct.contains(&k) {
            distinct.push(k);
        }
    }
    assert_eq!(distinct.len(), 4);
    assert_eq!(key("stats-sanity"), key("slipstream-all"));
    assert_eq!(key("cycle-accounting"), key("slipstream-aggressive"));
}

#[test]
fn malformed_corpus_entry_is_an_error() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, src) in [
        ("backwards_parens.ssir", "lw r1, )r2(\nhalt\n"),
        ("offset_backwards.ssir", "lw r1, 4)r2(\nhalt\n"),
        ("neg_overflow.ssir", "li r1, -0x8000000000000000\nhalt\n"),
        ("unknown_op.ssir", "frobnicate r1\nhalt\n"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, src).expect("write entry");
        let e = replay_corpus_file(&path).expect_err(name);
        assert!(e.contains(name) && e.contains("line 1"), "{e}");
    }
}

/// The committed full sweep describes the current battery: its invariants
/// are `standard_invariants()` in order, every non-rejected seed was
/// checked by each, and its violation counts match its violation list.
#[test]
fn committed_fuzz_rows_match_the_battery() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fuzz.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} is missing ({e}); run the differential_fuzz binary",
            path.display()
        )
    });
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let rows = doc
        .get("rows")
        .unwrap_or_else(|| panic!("{}: no `rows` object", path.display()));
    let field = |v: &json::Value, key: &str| {
        v.get(key)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("{}: no integer `{key}`", path.display()))
    };
    let array = |key: &str| {
        rows.get(key)
            .and_then(json::Value::as_arr)
            .unwrap_or_else(|| panic!("{}: no `rows.{key}` array", path.display()))
    };
    let checked = field(rows, "seeds") - field(rows, "gen_rejected");
    let invariants = array("invariants");
    let names: Vec<&str> = invariants
        .iter()
        .map(|row| {
            row.get("name")
                .and_then(json::Value::as_str)
                .unwrap_or_else(|| panic!("{}: an invariant row has no name", path.display()))
        })
        .collect();
    let battery: Vec<&str> = standard_invariants().iter().map(|i| i.name()).collect();
    assert_eq!(names, battery, "committed invariants");
    for (row, name) in invariants.iter().zip(&names) {
        assert_eq!(field(row, "checked"), checked, "{name}: checked");
    }
    let violations: u64 = invariants.iter().map(|row| field(row, "violations")).sum();
    assert_eq!(violations, array("violations").len() as u64);
    let throughput = doc
        .get("throughput")
        .unwrap_or_else(|| panic!("{}: no `throughput` object", path.display()));
    assert_eq!(
        field(throughput, "checks"),
        checked * names.len() as u64,
        "throughput.checks"
    );
}
