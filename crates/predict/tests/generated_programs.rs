//! Predictor coverage driven by generated programs: the resetting
//! confidence counter's saturation/reset edges, and path-history hashing
//! over real trace streams (built by retiring seeded `random_program`s
//! through the functional simulator), rather than only indirectly through
//! end-to-end slipstream runs.

use slipstream_isa::{ArchState, Program};
use slipstream_predict::{
    materialize_into, walk, PathHistory, ResettingCounter, TraceBuilder, TraceId, TracePredictor,
    WalkEnd, MAX_TRACE_LEN,
};
use slipstream_workloads::{random_program, RandProgConfig};

// ---- resetting-counter edges ----------------------------------------------

#[test]
fn threshold_one_asserts_after_a_single_hit_and_recovers_after_reset() {
    let mut c = ResettingCounter::new(1);
    assert!(!c.confident());
    c.hit();
    assert!(c.confident());
    c.miss();
    assert!(!c.confident());
    assert_eq!(c.value(), 0);
    c.hit();
    assert!(
        c.confident(),
        "one hit must re-establish threshold-1 confidence"
    );
}

#[test]
fn alternating_hit_miss_never_reaches_a_threshold_of_two() {
    let mut c = ResettingCounter::new(2);
    for _ in 0..100 {
        c.hit();
        assert!(
            !c.confident(),
            "a single hit after a reset is not confidence"
        );
        c.miss();
        assert_eq!(c.value(), 0);
    }
}

#[test]
fn zero_threshold_counter_saturates_at_one() {
    // threshold 0 is always confident; its value still saturates (at 1,
    // the `threshold.max(1)` floor) instead of growing without bound.
    let mut c = ResettingCounter::new(0);
    assert!(c.confident());
    for _ in 0..10 {
        c.hit();
        assert!(c.confident());
    }
    assert_eq!(c.value(), 1);
}

#[test]
fn miss_exactly_at_threshold_forfeits_all_progress() {
    // The paper's IR-predictor semantics (threshold 32): one detector
    // disagreement forfeits all accumulated confidence, and the full run
    // of consecutive hits must be re-earned.
    let mut c = ResettingCounter::new(32);
    for _ in 0..32 {
        c.hit();
    }
    assert!(c.confident());
    assert_eq!(c.value(), 32, "value saturates at the threshold");
    c.miss();
    for i in 0..32 {
        assert!(!c.confident(), "still rebuilding after {i} hits");
        c.hit();
    }
    assert!(c.confident());
}

// ---- path hashing over generated trace streams ----------------------------

fn small_prog(seed: u64) -> Program {
    random_program(
        seed,
        RandProgConfig {
            chunks: 6,
            ..RandProgConfig::default()
        },
    )
}

/// Retires `program` through the functional simulator and segments the
/// dynamic stream into trace ids.
fn trace_stream(program: &Program) -> Vec<TraceId> {
    let mut st = ArchState::new(program);
    let retired = st
        .run(program, 3_000_000)
        .expect("generated programs terminate");
    let mut b = TraceBuilder::new();
    let mut ids = Vec::new();
    for r in &retired {
        if let Some(id) = b.push(r.pc, &r.instr, r.taken) {
            ids.push(id);
        }
    }
    ids.extend(b.flush());
    ids
}

#[test]
fn context_hash_is_a_pure_function_of_the_trace_stream() {
    for seed in [1u64, 42, 0xdead] {
        let p = small_prog(seed);
        let ids = trace_stream(&p);
        assert!(
            ids.len() >= 2,
            "seed {seed}: stream too short to be interesting"
        );
        let hashes = |ids: &[TraceId]| -> Vec<u64> {
            let mut h = PathHistory::new(8);
            ids.iter()
                .map(|&id| {
                    h.push(id);
                    h.context_hash()
                })
                .collect()
        };
        // Re-running the same program yields the same stream and hashes.
        assert_eq!(hashes(&ids), hashes(&trace_stream(&p)));
    }
}

#[test]
fn context_hash_separates_different_programs_and_depths() {
    let mut final_hashes = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let ids = trace_stream(&small_prog(seed));
        let mut h = PathHistory::new(8);
        for id in ids {
            h.push(id);
        }
        final_hashes.push(h.context_hash());
    }
    final_hashes.sort_unstable();
    final_hashes.dedup();
    assert_eq!(
        final_hashes.len(),
        5,
        "five seeds must land in five contexts"
    );

    // Depth sensitivity: the same stream folded into shallower histories
    // hashes differently (older context genuinely participates).
    let ids = trace_stream(&small_prog(9));
    let fold = |cap: usize| {
        let mut h = PathHistory::new(cap);
        for &id in &ids {
            h.push(id);
        }
        h.context_hash()
    };
    assert_ne!(fold(2), fold(8));
}

#[test]
fn speculative_push_then_pop_restores_the_context() {
    let ids = trace_stream(&small_prog(17));
    let mut h = PathHistory::new(8);
    for &id in &ids {
        h.push(id);
    }
    let before = h.context_hash();
    let junk = TraceId {
        start_pc: 0xffff_0000,
        outcomes: 0x15,
        branch_count: 5,
        len: 32,
    };
    h.push(junk);
    assert_ne!(
        h.context_hash(),
        before,
        "speculation must move the context"
    );
    h.pop_recent();
    assert_eq!(h.context_hash(), before, "undo must restore it exactly");
}

#[test]
fn predictor_learns_a_generated_programs_trace_stream() {
    // A generated program's dynamic trace stream is (by construction)
    // deterministic; replaying it several times must drive the hybrid
    // predictor to high accuracy on the final pass — this is the
    // steady-state the paper's Table 3 front ends operate in.
    let ids = trace_stream(&small_prog(23));
    let mut pred = TracePredictor::default();
    let mut hist = pred.new_history();
    let reps = 8;
    let mut last_correct = 0u64;
    for rep in 0..reps {
        for &id in &ids {
            let p = pred.predict(&hist);
            if rep + 1 == reps && p == Some(id) {
                last_correct += 1;
            }
            pred.update(&hist, id);
            hist.push(id);
        }
    }
    let acc = last_correct as f64 / ids.len() as f64;
    assert!(
        acc >= 0.9,
        "steady-state accuracy {acc:.2} on {} traces is too low",
        ids.len()
    );
}

// ---- the static trace walk -------------------------------------------------

/// From every text PC, the static not-taken trace a cold front end builds
/// walks back through `materialize_into` to the same PCs and successor.
/// The programs' text is also cut in half, so that walks run off its end:
/// such a walk reports the partial path before the text ends, and that
/// path's id materializes with the first PC past the text as successor.
#[test]
fn static_traces_materialize_back_from_every_text_pc() {
    let (mut built, mut walked) = (Vec::new(), Vec::new());
    let mut off_text = 0;
    for seed in [1u64, 42, 0xdead] {
        let full = small_prog(seed);
        let half = Program::new(
            full.text_base(),
            full.instrs()[..full.len() / 2].to_vec(),
            Vec::new(),
        );
        for p in [&full, &half] {
            for i in 0..p.len() {
                let (id, end) = walk(p, p.pc_of(i), 0, MAX_TRACE_LEN as u8, &mut built);
                assert_eq!((id.start_pc, id.outcomes), (p.pc_of(i), 0));
                assert_eq!(id.len as usize, built.len());
                let next = materialize_into(p, id, &mut walked);
                assert_eq!(walked, built, "seed {seed} pc {:#x}", p.pc_of(i));
                match end {
                    WalkEnd::OffText => {
                        off_text += 1;
                        assert!(built.len() < MAX_TRACE_LEN);
                        let past = next.flatten().expect("the partial path has a successor");
                        assert!(p.instr_at(past).is_none(), "{past:#x} is past the text");
                    }
                    end => assert_eq!(next, Some(end.next_pc()), "seed {seed}"),
                }
            }
        }
    }
    assert!(off_text > 0, "some walks must run off a cut text");
}
