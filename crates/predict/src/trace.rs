use slipstream_isa::{Instr, Program};

/// Maximum trace length in instructions (the paper uses length-32 traces
/// throughout: IR-predictor entries, R-DFG size, ir-vec width).
pub const MAX_TRACE_LEN: usize = 32;

/// A trace identifier: start PC plus the taken/not-taken outcomes of the
/// embedded conditional branches, exactly as in the paper's §2.1.1
/// ("a trace is uniquely identified by a starting PC and branch outcomes
/// indicating the path through the trace").
///
/// Given the program, a `TraceId` deterministically denotes a sequence of
/// up to 32 dynamic instructions (see [`materialize_into`]). Traces end
/// early at indirect jumps (`jr`) and `halt`, whose successors a trace id
/// cannot encode; the successor is captured by the next trace's start PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId {
    /// PC of the first instruction in the trace.
    pub start_pc: u64,
    /// Embedded conditional-branch outcomes, least-significant bit first
    /// (bit i = outcome of the i-th conditional branch; 1 = taken).
    pub outcomes: u32,
    /// Number of embedded conditional branches (≤ 32).
    pub branch_count: u8,
    /// Trace length in instructions (1..=32).
    pub len: u8,
}

impl TraceId {
    /// A stable 64-bit hash of the id, used to build predictor path
    /// histories and table indices.
    pub fn hash64(&self) -> u64 {
        // SplitMix64-style mixing of the three components.
        let mut z = self
            .start_pc
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((self.outcomes as u64) << 8)
            .wrapping_add(self.branch_count as u64)
            .wrapping_add((self.len as u64) << 40);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The outcome of the `i`-th embedded conditional branch.
    pub fn outcome(&self, i: usize) -> bool {
        (self.outcomes >> i) & 1 == 1
    }
}

/// Whether `instr` ends the trace it appears in wherever it falls: an
/// indirect jump's successor cannot be encoded in a trace id, and `halt`
/// ends the program.
fn is_terminator(instr: &Instr) -> bool {
    matches!(instr, Instr::Jr { .. } | Instr::Halt)
}

/// The trace-selection rule: whether a trace whose `len`-th slot holds
/// `instr` closes at that slot. A trace closes at [`MAX_TRACE_LEN`] slots,
/// or early at a `jr` or `halt`.
///
/// Every component with a trace view of the dynamic stream (trace
/// predictor update, the front end's commits and redirects, the
/// IR-detector's scope) segments it by this one rule, through
/// [`TraceBuilder`] or directly; that is what the paper calls a
/// "consistent (static) trace selection policy" — a prerequisite for
/// accurate trace prediction.
pub fn ends_trace(len: usize, instr: &Instr) -> bool {
    len >= MAX_TRACE_LEN || is_terminator(instr)
}

/// Incrementally builds [`TraceId`]s from a retired instruction stream,
/// closing each trace by the rule of [`ends_trace`]. It is the only
/// incremental builder: the front end's commits and the IR-detector's
/// trace ids both come from one.
///
/// ```
/// use slipstream_predict::TraceBuilder;
/// use slipstream_isa::{assemble, ArchState};
/// let p = assemble("li r1, 40\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt")?;
/// let mut st = ArchState::new(&p);
/// let mut tb = TraceBuilder::new();
/// let mut traces = Vec::new();
/// for rec in st.run(&p, 1_000)? {
///     if let Some(t) = tb.push(rec.pc, &rec.instr, rec.taken) {
///         traces.push(t);
///     }
/// }
/// if let Some(t) = tb.flush() { traces.push(t); }
/// assert_eq!(traces.iter().map(|t| t.len as u64).sum::<u64>(), st.retired());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceBuilder {
    /// The open trace's id so far, or the last closed trace's id.
    id: TraceId,
    open: bool,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Adds one retired instruction; returns the completed trace id when
    /// this instruction closes the current trace.
    ///
    /// `taken` must be `Some` exactly for conditional branches.
    pub fn push(&mut self, pc: u64, instr: &Instr, taken: Option<bool>) -> Option<TraceId> {
        if !self.open {
            self.id = TraceId {
                start_pc: pc,
                ..TraceId::default()
            };
            self.open = true;
        }
        if let Some(t) = taken {
            self.id.outcomes |= u32::from(t) << self.id.branch_count;
            self.id.branch_count += 1;
        }
        self.id.len += 1;
        self.open = !ends_trace(self.id.len as usize, instr);
        (!self.open).then_some(self.id)
    }

    /// Completes and returns the in-progress partial trace, if any.
    pub fn flush(&mut self) -> Option<TraceId> {
        std::mem::take(&mut self.open).then_some(self.id)
    }

    /// Length of the in-progress trace (0 if none).
    pub fn pending_len(&self) -> usize {
        if self.open {
            self.id.len as usize
        } else {
            0
        }
    }

    /// The in-progress trace's id so far or, between traces, the last
    /// completed one (all zero before the first push).
    pub fn id(&self) -> TraceId {
        self.id
    }
}

/// How a [`walk`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEnd {
    /// Filled its slot cap; the path continues at this PC.
    Cap(u64),
    /// Stopped at a `jr` or `halt`, whose successor the path cannot
    /// encode.
    Terminator,
    /// Reached a PC outside the text segment: the walked slots are the
    /// partial path before it.
    OffText,
}

impl WalkEnd {
    /// The PC after the walked path, when the walk stopped at its cap.
    pub fn next_pc(self) -> Option<u64> {
        match self {
            WalkEnd::Cap(pc) => Some(pc),
            WalkEnd::Terminator | WalkEnd::OffText => None,
        }
    }
}

/// The static trace walk: follows the program text from `start_pc` for up
/// to `cap` slots, stopping early at a `jr` or `halt`, and leaves the
/// walked PCs in `pcs` (cleared first). Returns the walked path's id —
/// `start_pc` and `outcomes` as given, the conditional branches passed and
/// the slots walked — and how the walk stopped.
///
/// The `i`-th conditional branch on the path follows bit `i` of
/// `outcomes` (a zero bit means not-taken); direct jumps follow their
/// targets. With `outcomes` 0 and `cap` [`MAX_TRACE_LEN`] this is the
/// static not-taken trace a cold front end fetches; capped at an id's
/// length it is [`materialize_into`]. The caller-provided buffer keeps
/// trace fetch off the allocator.
pub fn walk(
    program: &Program,
    start_pc: u64,
    outcomes: u32,
    cap: u8,
    pcs: &mut Vec<u64>,
) -> (TraceId, WalkEnd) {
    pcs.clear();
    let mut id = TraceId {
        start_pc,
        outcomes,
        ..TraceId::default()
    };
    let mut pc = start_pc;
    while id.len < cap {
        let Some(instr) = program.instr_at(pc) else {
            return (id, WalkEnd::OffText);
        };
        pcs.push(pc);
        id.len += 1;
        if is_terminator(instr) {
            return (id, WalkEnd::Terminator);
        }
        let taken = instr
            .is_branch()
            .then(|| id.outcome(id.branch_count as usize));
        id.branch_count += u8::from(taken.is_some());
        pc = match (instr.static_target(), taken) {
            (Some(target), None | Some(true)) => target,
            _ => pc + 4,
        };
    }
    (id, WalkEnd::Cap(pc))
}

/// Walks the program text along `id`'s path, filling `pcs` (cleared
/// first) with the instruction sequence the id denotes, and returns the
/// trace's successor PC: `None` when the trace ends at a `jr` or `halt`,
/// whose successor comes from the next trace prediction.
///
/// Returns `None` — with `pcs` contents unspecified — if the id is
/// inconsistent with the program (walks off the text segment, ends at a
/// `jr`/`halt` before its last slot, or passes a different number of
/// conditional branches than it records): a stale or aliased predictor
/// entry, which callers treat as "no prediction".
pub fn materialize_into(program: &Program, id: TraceId, pcs: &mut Vec<u64>) -> Option<Option<u64>> {
    let (walked, end) = walk(program, id.start_pc, id.outcomes, id.len, pcs);
    (walked == id).then_some(end.next_pc())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_isa::{assemble, ArchState};

    fn traces_of(src: &str, fuel: u64) -> (Vec<TraceId>, slipstream_isa::Program) {
        let p = assemble(src).unwrap();
        let mut st = ArchState::new(&p);
        let mut tb = TraceBuilder::new();
        let mut out: Vec<_> = st
            .run(&p, fuel)
            .unwrap()
            .iter()
            .filter_map(|rec| tb.push(rec.pc, &rec.instr, rec.taken))
            .collect();
        out.extend(tb.flush());
        (out, p)
    }

    /// `materialize_into` with a fresh buffer: the PCs and successor.
    fn materialize(p: &Program, id: TraceId) -> Option<(Vec<u64>, Option<u64>)> {
        let mut pcs = Vec::new();
        let next_pc = materialize_into(p, id, &mut pcs)?;
        Some((pcs, next_pc))
    }

    #[test]
    fn straight_line_code_makes_one_trace() {
        let (traces, _) = traces_of("li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt", 100);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].len, 4);
        assert_eq!(traces[0].branch_count, 0);
        assert_eq!(traces[0].start_pc, 0x1000);
    }

    #[test]
    fn traces_cap_at_32_instructions() {
        let body = "addi r1, r1, 1\n".repeat(40);
        let (traces, _) = traces_of(&format!("{body}halt"), 1000);
        assert_eq!(traces[0].len as usize, MAX_TRACE_LEN);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[1].len, 9); // 8 remaining addi + halt
    }

    #[test]
    fn branch_outcomes_recorded_in_order() {
        // 5-iteration loop: bne taken 4x then not-taken.
        let (traces, _) = traces_of(
            "li r1, 5\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt",
            100,
        );
        // Dynamic stream: li, (addi, bne)*5, halt = 12 instrs → 1 trace.
        assert_eq!(traces.len(), 1);
        let t = traces[0];
        assert_eq!(t.len, 12);
        assert_eq!(t.branch_count, 5);
        assert_eq!(t.outcomes & 0b11111, 0b01111); // 4 taken then 1 not-taken
    }

    #[test]
    fn jr_terminates_a_trace() {
        let (traces, _) = traces_of("jal r31, f\nli r2, 2\nhalt\nf:\nli r1, 1\njr r31", 100);
        // jal, li, jr | li, halt
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].len, 3);
        assert!(traces[1].start_pc > 0);
    }

    #[test]
    fn materialize_round_trips_the_dynamic_stream() {
        let src = "li r1, 20\nli r3, 0\nloop:\nandi r2, r1, 1\nbeq r2, r0, even\naddi r3, r3, 1\neven:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
        let (traces, p) = traces_of(src, 10_000);
        let run = ArchState::new(&p).run(&p, 10_000).unwrap();
        let dynamic_pcs: Vec<u64> = run.iter().map(|rec| rec.pc).collect();
        let mut rebuilt = Vec::new();
        for t in traces {
            let (pcs, _) = materialize(&p, t).expect("constructed traces always materialize");
            rebuilt.extend(pcs);
        }
        assert_eq!(rebuilt, dynamic_pcs);
    }

    #[test]
    fn materialize_provides_next_pc_for_fallthrough_traces() {
        let body = "addi r1, r1, 1\n".repeat(40);
        let (traces, p) = traces_of(&format!("{body}halt"), 1000);
        let (_, next_pc) = materialize(&p, traces[0]).unwrap();
        assert_eq!(next_pc, Some(0x1000 + 32 * 4));
        let (_, last) = materialize(&p, traces[1]).unwrap();
        assert_eq!(last, None); // ends at halt
    }

    #[test]
    fn materialize_rejects_inconsistent_ids() {
        let p = assemble("nop\nhalt").unwrap();
        // Claims 5 instructions but text has 2 then halt.
        let bogus = TraceId {
            start_pc: 0x1000,
            outcomes: 0,
            branch_count: 0,
            len: 5,
        };
        assert_eq!(materialize(&p, bogus), None);
        // Claims a branch where there is none.
        let bogus2 = TraceId {
            start_pc: 0x1000,
            outcomes: 1,
            branch_count: 1,
            len: 2,
        };
        assert_eq!(materialize(&p, bogus2), None);
        // Walks off the text segment.
        let bogus3 = TraceId {
            start_pc: 0x9000,
            outcomes: 0,
            branch_count: 0,
            len: 1,
        };
        assert_eq!(materialize(&p, bogus3), None);
    }

    #[test]
    fn walk_reports_how_it_stopped() {
        let p = assemble("nop\nbeq r0, r0, out\nnop\nhalt\nout:\nnop\nj 0x9000").unwrap();
        let mut pcs = Vec::new();
        // Not-taken: nop, beq, nop, halt.
        let (id, end) = walk(&p, 0x1000, 0, 32, &mut pcs);
        assert_eq!((id.len, id.branch_count, end), (4, 1, WalkEnd::Terminator));
        assert_eq!(pcs, [0x1000, 0x1004, 0x1008, 0x100c]);
        // Capped at two slots, the path continues at the branch's fall-through.
        assert_eq!(walk(&p, 0x1000, 0, 2, &mut pcs).1, WalkEnd::Cap(0x1008));
        // Taken: nop, beq, nop, j — then off the text at 0x9000.
        let (id, end) = walk(&p, 0x1000, 1, 32, &mut pcs);
        assert_eq!((id.len, end), (4, WalkEnd::OffText));
        assert_eq!(pcs, [0x1000, 0x1004, 0x1010, 0x1014]);
    }

    #[test]
    fn hash_is_stable_and_distinguishes() {
        let a = TraceId {
            start_pc: 0x1000,
            outcomes: 0b101,
            branch_count: 3,
            len: 10,
        };
        let b = TraceId {
            start_pc: 0x1000,
            outcomes: 0b111,
            branch_count: 3,
            len: 10,
        };
        assert_eq!(a.hash64(), a.hash64());
        assert_ne!(a.hash64(), b.hash64());
    }

    #[test]
    fn pending_len_tracks_partial_trace() {
        let mut tb = TraceBuilder::new();
        assert_eq!(tb.pending_len(), 0);
        tb.push(0x1000, &Instr::Nop, None);
        tb.push(0x1004, &Instr::Nop, None);
        assert_eq!(tb.pending_len(), 2);
        assert_eq!(tb.flush().unwrap().len, 2);
        assert_eq!(tb.pending_len(), 0);
        assert_eq!(tb.flush(), None);
    }
}
