//! Delta-debugging shrinker for failing fuzz cases.
//!
//! Given a program that violates an invariant, [`shrink`] reduces it to a
//! (locally) minimal program that still violates the *same* invariant,
//! re-running the caller's predicate after every candidate reduction. The
//! reduction is structural, in coarse-to-fine passes:
//!
//! 1. whole generator chunks are rewritten to `nop` (using the
//!    [`ProgramShape`] recorded by `random_program_with_shape`),
//! 2. individual instructions are rewritten to `nop`,
//! 3. loop trip counts are shrunk toward 1,
//! 4. immediates are shrunk toward 0,
//! 5. finally the surviving instructions are compacted (nops deleted,
//!    branch targets remapped) if the compacted form still fails.
//!
//! Rewriting to `nop` rather than deleting keeps every PC and branch
//! target valid during reduction, so candidates stay well-formed without
//! any target fix-ups; only the final compaction moves instructions. Every
//! adoption is gated on the predicate, so the result is guaranteed to
//! still fail. The process is deterministic — same program, same
//! predicate, same result — and bounded by `max_evals` predicate calls.

use slipstream_isa::{Instr, Program};
use slipstream_workloads::{ChunkKind, ProgramShape};

/// Result of a [`shrink`] run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized program (compacted if the compacted form still
    /// fails; otherwise nop-padded at the original addresses).
    pub program: Program,
    /// Predicate evaluations consumed.
    pub evals: usize,
    /// Non-`nop` instructions in the minimized program.
    pub live_instrs: usize,
    /// Non-`nop` instructions in the original program.
    pub from_instrs: usize,
}

/// Counts non-`nop` instructions.
pub fn live_count(p: &Program) -> usize {
    p.instrs()
        .iter()
        .filter(|i| !matches!(i, Instr::Nop))
        .count()
}

/// `instr` with its immediate operand ([`Instr::imm`]) set to `imm`.
/// Branch/jump targets are *not* immediates — rewriting them would change
/// control structure rather than simplify a value.
fn with_imm(mut instr: Instr, imm: i64) -> Instr {
    *instr.imm_mut().expect("an instruction with an immediate") = imm;
    instr
}

struct Budget<'a> {
    fails: &'a mut dyn FnMut(&Program) -> bool,
    evals: usize,
    max_evals: usize,
}

impl Budget<'_> {
    /// Evaluates the predicate unless the budget is spent; a spent budget
    /// reports "does not fail", which freezes the current candidate.
    fn fails(&mut self, p: &Program) -> bool {
        if self.evals >= self.max_evals {
            return false;
        }
        self.evals += 1;
        (self.fails)(p)
    }

    fn spent(&self) -> bool {
        self.evals >= self.max_evals
    }
}

/// Minimizes `original` — which must currently satisfy `fails` — to a
/// smaller program that still does. `shape` is the chunk structure the
/// generator recorded; `max_evals` bounds the number of predicate calls.
pub fn shrink(
    original: &Program,
    shape: &ProgramShape,
    max_evals: usize,
    fails: &mut dyn FnMut(&Program) -> bool,
) -> ShrinkOutcome {
    let mut b = Budget {
        fails,
        evals: 0,
        max_evals,
    };
    let mut cur = original.clone();

    // Pass 1: drop whole chunks, largest first, to fixpoint. The epilogue
    // (the `halt`) is kept so candidates remain terminating by
    // construction; the instruction pass below may still remove it if the
    // invariant genuinely doesn't need it.
    let mut spans: Vec<_> = shape
        .chunks
        .iter()
        .filter(|c| !matches!(c.kind, ChunkKind::Epilogue))
        .collect();
    spans.sort_by_key(|c| std::cmp::Reverse(c.len()));
    loop {
        let mut changed = false;
        for span in &spans {
            if span
                .indices()
                .all(|i| matches!(cur.instrs()[i], Instr::Nop))
            {
                continue;
            }
            let cand = cur.with_nops(span.indices());
            if b.fails(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if !changed || b.spent() {
            break;
        }
    }

    // Pass 2: drop individual instructions, to fixpoint.
    loop {
        let mut changed = false;
        for i in 0..cur.len() {
            if matches!(cur.instrs()[i], Instr::Nop) {
                continue;
            }
            let cand = cur.with_replaced(i, Instr::Nop);
            if b.fails(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if !changed || b.spent() {
            break;
        }
    }

    // Pass 3: shrink loop trip counts toward 1. Shape indices are still
    // valid — passes 1–2 rewrite in place without moving instructions.
    for chunk in shape.loops() {
        let ChunkKind::Loop { trip_li, .. } = chunk.kind else {
            continue;
        };
        // The `li` reads no immediate once an earlier pass made it a `nop`.
        while let Some(imm) = cur.instrs()[trip_li].imm() {
            if imm <= 1 {
                break;
            }
            let li = cur.instrs()[trip_li];
            let next = [1, imm / 2, imm - 1]
                .into_iter()
                .filter(|&t| t < imm)
                .find(|&t| b.fails(&cur.with_replaced(trip_li, with_imm(li, t))));
            match next {
                Some(t) => cur = cur.with_replaced(trip_li, with_imm(li, t)),
                None => break,
            }
        }
    }

    // Pass 4: shrink remaining immediates toward 0 (0 first, then
    // halving — the classic delta-debugging value schedule).
    for i in 0..cur.len() {
        while let Some(imm) = cur.instrs()[i].imm() {
            if imm == 0 {
                break;
            }
            let instr = cur.instrs()[i];
            let next = [0, imm / 2]
                .into_iter()
                .filter(|&v| v != imm)
                .find(|&v| b.fails(&cur.with_replaced(i, with_imm(instr, v))));
            match next {
                Some(v) => cur = cur.with_replaced(i, with_imm(instr, v)),
                None => break,
            }
        }
    }

    // Pass 5: delete the nops and remap targets, if that preserves the
    // failure (it can change `jal` link values and instruction addresses,
    // so it must be re-verified like any other reduction).
    let compact = cur.compacted();
    if compact.len() < cur.len() && b.fails(&compact) {
        cur = compact;
    }

    ShrinkOutcome {
        evals: b.evals,
        live_instrs: live_count(&cur),
        from_instrs: live_count(original),
        program: cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_workloads::{random_program_with_shape, RandProgConfig};

    #[test]
    fn with_imm_covers_every_immediate_form() {
        let (p, _) = random_program_with_shape(7, RandProgConfig::default());
        for &i in p.instrs() {
            if let Some(v) = i.imm() {
                assert_eq!(with_imm(i, v), i, "identity rewrite must round-trip");
                let rewritten = with_imm(i, v ^ 1);
                assert_eq!(rewritten.imm(), Some(v ^ 1), "{i}");
                assert_eq!(with_imm(rewritten, v), i, "only the immediate changed");
            }
        }
    }

    #[test]
    fn shrink_respects_eval_budget() {
        let (p, shape) = random_program_with_shape(3, RandProgConfig::default());
        let mut evals = 0usize;
        let out = shrink(&p, &shape, 10, &mut |_| {
            evals += 1;
            true
        });
        assert_eq!(out.evals, 10);
        assert_eq!(evals, 10);
    }
}
