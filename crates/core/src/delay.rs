//! The delay buffer (paper §2.2): a FIFO carrying the A-stream's control
//! and data flow outcomes to the R-stream.
//!
//! The paper describes the contents as a control-flow side (a sequence of
//! `{trace-id, ir-vec}` pairs) and a data-flow side (one entry per
//! *executed* A-stream instruction, holding operand values and load/store
//! addresses, plus enough information to know which instructions were
//! skipped). We carry the same information at per-instruction granularity:
//! every dynamic instruction on the A-stream's path produces one
//! [`DelayEntry`] — executed entries carry values, skipped entries are
//! data-less markers — and trace boundaries travel as flags. Capacity is
//! enforced exactly as the paper sizes it: 256 data (executed) entries and
//! 128 control (trace) entries; a full buffer back-pressures A-stream
//! retirement.

use std::collections::VecDeque;

use slipstream_isa::{Instr, Retired};
use slipstream_predict::TraceId;

use crate::removal::Reason;

/// One slot of the A-stream's path, communicated to the R-stream.
///
/// Built only by [`DelayEntry::executed`] and [`DelayEntry::skipped`]; the
/// outcome values are read through accessors. An absent value is stored as
/// zero with its presence bit clear, so two entries with the same outcomes
/// compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayEntry {
    /// Instruction address.
    pub pc: u64,
    /// The instruction (resolved by the A-stream front end; SSIR has no
    /// self-modifying code, so this is identical to what the R-stream
    /// would fetch at `pc`).
    pub instr: Instr,
    /// PC of the next slot on the A-stream's path.
    pub next_pc: u64,
    /// Outcome values, indexed by the `SRC1`..`STORE_VALUE` slots.
    values: [u64; 5],
    /// `SKIPPED`, `ENDS_TRACE`, `HAS_TAKEN`, `TAKEN`, one `HAS_VALUE`
    /// bit per value slot, and a skipped entry's removal [`Reason`] bits
    /// at `REASON_SHIFT`.
    flags: u32,
}

// One of these is copied into the delay buffer per A-stream instruction:
// a field that fattens it must raise this pin.
const _: () = assert!(
    std::mem::size_of::<DelayEntry>() <= 80,
    "DelayEntry grew past 80 bytes; shrink it or deliberately raise this pin"
);

const SKIPPED: u32 = 1 << 0;
const ENDS_TRACE: u32 = 1 << 1;
const HAS_TAKEN: u32 = 1 << 2;
const TAKEN: u32 = 1 << 3;
/// Presence bit of value slot 0; slot `i` uses `HAS_VALUE << i`.
const HAS_VALUE: u32 = 1 << 4;
/// Lowest bit of the removal reason, above the five presence bits.
const REASON_SHIFT: u32 = 9;

const SRC1: usize = 0;
const SRC2: usize = 1;
const RESULT: usize = 2;
const ADDR: usize = 3;
const STORE_VALUE: usize = 4;

impl DelayEntry {
    /// The entry for an instruction the A-stream executed: its branch
    /// outcome, operand, result and memory values, taken from `rec`.
    pub fn executed(rec: &Retired, ends_trace: bool) -> DelayEntry {
        let mut e = DelayEntry {
            pc: rec.pc,
            instr: rec.instr,
            next_pc: rec.next_pc,
            values: [0; 5],
            flags: if ends_trace { ENDS_TRACE } else { 0 },
        };
        if let Some(t) = rec.taken {
            e.flags |= HAS_TAKEN | if t { TAKEN } else { 0 };
        }
        e.set(SRC1, rec.src1.map(|(_, v)| v));
        e.set(SRC2, rec.src2.map(|(_, v)| v));
        e.set(RESULT, rec.dest.map(|(_, v)| v));
        e.set(ADDR, rec.mem.map(|m| m.addr));
        e.set(
            STORE_VALUE,
            rec.mem.and_then(|m| m.is_store.then_some(m.value)),
        );
        e
    }

    /// A data-less marker for an instruction the A-stream skipped, and
    /// why it was removed.
    pub fn skipped(
        pc: u64,
        instr: Instr,
        next_pc: u64,
        ends_trace: bool,
        reason: Reason,
    ) -> DelayEntry {
        DelayEntry {
            pc,
            instr,
            next_pc,
            values: [0; 5],
            flags: SKIPPED
                | if ends_trace { ENDS_TRACE } else { 0 }
                | u32::from(reason.bits()) << REASON_SHIFT,
        }
    }

    fn set(&mut self, slot: usize, v: Option<u64>) {
        if let Some(v) = v {
            self.values[slot] = v;
            self.flags |= HAS_VALUE << slot;
        }
    }

    fn value(&self, slot: usize) -> Option<u64> {
        (self.flags & (HAS_VALUE << slot) != 0).then_some(self.values[slot])
    }

    /// Whether the A-stream skipped this instruction (no data available).
    /// (Named apart from the [`DelayEntry::skipped`] constructor.)
    pub fn is_skipped(&self) -> bool {
        self.flags & SKIPPED != 0
    }

    /// Why the A-stream removed this instruction ([`Reason::NONE`] for an
    /// executed entry).
    pub fn reason(&self) -> Reason {
        Reason::from_bits((self.flags >> REASON_SHIFT) as u8)
    }

    /// This slot ends its trace: the A-stream's commit builder closed a
    /// trace on it, so the entry counts one control-side pair.
    pub fn ends_trace(&self) -> bool {
        self.flags & ENDS_TRACE != 0
    }

    /// Executed conditional branches: the A-stream's outcome.
    pub fn taken(&self) -> Option<bool> {
        (self.flags & HAS_TAKEN != 0).then_some(self.flags & TAKEN != 0)
    }

    /// Executed: first source operand value.
    pub fn src1(&self) -> Option<u64> {
        self.value(SRC1)
    }

    /// Executed: second source operand value.
    pub fn src2(&self) -> Option<u64> {
        self.value(SRC2)
    }

    /// Executed: result (register write or load) value.
    pub fn result(&self) -> Option<u64> {
        self.value(RESULT)
    }

    /// Executed loads/stores: effective address.
    pub fn addr(&self) -> Option<u64> {
        self.value(ADDR)
    }

    /// Executed stores: value stored.
    pub fn store_value(&self) -> Option<u64> {
        self.value(STORE_VALUE)
    }
}
/// A `{trace-id, ir-vec}` pair recording what the A-stream actually
/// retired for one trace: consumed by the IR-misprediction checker, which
/// compares the *used* ir-vec against the IR-detector's *computed* one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCommit {
    /// The trace as actually retired by the A-stream (predicted outcomes
    /// for skipped branches, computed outcomes for executed ones).
    pub id: TraceId,
    /// Bit `i` set = the A-stream skipped slot `i`.
    pub used_vec: u32,
}

/// The FIFO connecting the two streams.
///
/// One ring holds an entry from the A-stream's push until the R-stream
/// retires it. The oldest entries have been popped: they are in flight in
/// the R-core, which reads them in place through `in_flight` at dispatch
/// and drops them with `release` at retire. The rest are queued. The
/// data/control occupancy counters, [`DelayBuffer::len`] and
/// [`DelayBuffer::iter`] see queued entries only: an entry leaves the
/// paper's buffer when the R-stream fetches it.
#[derive(Debug, Clone, Default)]
pub struct DelayBuffer {
    /// In-flight entries, then queued ones, oldest first.
    ring: VecDeque<DelayEntry>,
    /// How many entries at the front of `ring` are in flight.
    taken: usize,
    commits: VecDeque<TraceCommit>,
    data_cap: usize,
    control_cap: usize,
    /// Executed entries currently queued (data-side occupancy).
    data_count: usize,
    /// Trace boundaries currently queued (control-side occupancy).
    control_count: usize,
}

impl DelayBuffer {
    /// Creates a buffer with the paper's capacities (data entries = 256,
    /// control pairs = 128 by default).
    pub fn new(data_cap: usize, control_cap: usize) -> DelayBuffer {
        DelayBuffer {
            ring: VecDeque::new(),
            taken: 0,
            commits: VecDeque::new(),
            data_cap,
            control_cap,
            data_count: 0,
            control_count: 0,
        }
    }

    /// The A-stream's credit budget at a sync boundary: the live
    /// occupancy, with nothing pushed since.
    pub fn credits(&self) -> Credits {
        Credits {
            data_cap: self.data_cap,
            control_cap: self.control_cap,
            data_occ: self.data_count,
            control_occ: self.control_count,
            data_pushed: 0,
            control_pushed: 0,
        }
    }

    /// Data-side occupancy (executed entries currently queued). The
    /// slack-window scheduler snapshots this at window boundaries to hand
    /// the A-core a credit budget covering the whole window.
    pub fn data_occupancy(&self) -> usize {
        self.data_count
    }

    /// Control-side occupancy (trace boundaries currently queued).
    pub fn control_occupancy(&self) -> usize {
        self.control_count
    }

    /// Entries currently queued (in-flight entries excluded).
    pub fn len(&self) -> usize {
        self.ring.len() - self.taken
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn count_in(&mut self, e: &DelayEntry) {
        self.data_count += usize::from(!e.is_skipped());
        self.control_count += usize::from(e.ends_trace());
    }

    /// Appends one entry. Capacity is the *caller's* responsibility: the
    /// A side gates retirement on [`Credits::retire_budget`], matching how
    /// the hardware back-pressures retirement rather than dropping data.
    pub fn push(&mut self, e: DelayEntry) {
        self.count_in(&e);
        self.ring.push_back(e);
    }

    /// Appends every entry of `batch` in order. `batch` comes back empty
    /// with its allocation intact, ready for refilling.
    pub fn push_chunk(&mut self, batch: &mut Vec<DelayEntry>) {
        for e in batch.iter() {
            self.count_in(e);
        }
        // Extending from a slice of `Copy` entries is one block copy.
        self.ring.extend(batch.iter());
        batch.clear();
    }

    /// Records a completed-trace commit (control-flow side bookkeeping for
    /// the IR-misprediction checker).
    pub fn push_commit(&mut self, c: TraceCommit) {
        self.commits.push_back(c);
    }

    /// Next queued entry for the R-stream, if any. It leaves the queue
    /// (and the occupancy counters) but stays readable through
    /// `DelayBuffer::in_flight` until `DelayBuffer::release`.
    pub fn pop(&mut self) -> Option<&DelayEntry> {
        let e = self.ring.get(self.taken)?;
        self.taken += 1;
        self.data_count -= usize::from(!e.is_skipped());
        self.control_count -= usize::from(e.ends_trace());
        Some(e)
    }

    /// The `i`-th oldest entry in flight (0 = the next to be released).
    pub(crate) fn in_flight(&self, i: usize) -> Option<&DelayEntry> {
        if i < self.taken {
            self.ring.get(i)
        } else {
            None
        }
    }

    /// Drops the oldest in-flight entry (the R-stream retired it).
    ///
    /// # Panics
    ///
    /// If no entry is in flight.
    pub(crate) fn release(&mut self) {
        assert!(self.taken > 0, "release without an entry in flight");
        self.taken -= 1;
        self.ring.pop_front();
    }

    /// Iterates the queued entries in FIFO order (test/diagnostic use —
    /// the hot paths never walk the buffer).
    pub fn iter(&self) -> impl Iterator<Item = &DelayEntry> + '_ {
        self.ring.range(self.taken..)
    }

    /// Iterates every entry the ring holds, in flight then queued, oldest
    /// first: the A-stream's outcomes the R-stream has not yet retired
    /// (recovery's undo list).
    pub(crate) fn held(&self) -> impl Iterator<Item = &DelayEntry> + '_ {
        self.ring.iter()
    }

    /// Oldest unconsumed trace commit.
    pub fn pop_commit(&mut self) -> Option<TraceCommit> {
        self.commits.pop_front()
    }

    /// Peeks the oldest unconsumed trace commit.
    pub fn peek_commit(&self) -> Option<&TraceCommit> {
        self.commits.front()
    }

    /// Discards everything, in-flight entries included (IR-misprediction
    /// recovery flushes the buffer and the R-core together).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.taken = 0;
        self.commits.clear();
        self.data_count = 0;
        self.control_count = 0;
    }
}

/// The A-stream's delay-buffer credit budget between two sync boundaries:
/// the buffer's occupancy at the last boundary plus the entries the
/// A-stream has pushed since. The R-stream may have drained entries in
/// the meantime, so the budget is conservative; it never reads the live
/// buffer, which keeps every scheduler's retire decisions identical.
#[derive(Debug, Clone, Copy)]
pub struct Credits {
    data_cap: usize,
    control_cap: usize,
    /// Occupancy at the last boundary.
    data_occ: usize,
    control_occ: usize,
    /// Entries pushed since the boundary.
    data_pushed: usize,
    control_pushed: usize,
}

impl Credits {
    /// The back-pressure rule: how many more *executed* instructions the
    /// A-stream may retire — none while the control side (trace
    /// boundaries) is full, else the free data-side slots.
    pub fn retire_budget(&self) -> usize {
        if self.control_occ + self.control_pushed >= self.control_cap {
            0
        } else {
            self.data_cap
                .saturating_sub(self.data_occ + self.data_pushed)
        }
    }

    /// Counts one entry the A-stream pushed since the boundary.
    pub fn count(&mut self, e: &DelayEntry) {
        self.data_pushed += usize::from(!e.is_skipped());
        self.control_pushed += usize::from(e.ends_trace());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use slipstream_isa::{assemble, ArchState, Reg};

    fn exec_entry(pc: u64, ends: bool) -> DelayEntry {
        let rec = Retired {
            seq: 0,
            pc,
            instr: Instr::Nop,
            src1: Some((Reg::new(1), 1)),
            src2: None,
            dest: Some((Reg::new(2), 2)),
            mem: None,
            taken: None,
            next_pc: pc + 4,
        };
        DelayEntry::executed(&rec, ends)
    }

    /// The A side's retire budget were a sync boundary taken now.
    fn budget(db: &DelayBuffer) -> usize {
        db.credits().retire_budget()
    }

    #[test]
    fn fifo_order_preserved() {
        let mut db = DelayBuffer::new(4, 4);
        db.push(exec_entry(0x1000, false));
        db.push(DelayEntry::skipped(
            0x1004,
            Instr::Nop,
            0x1008,
            false,
            Reason::NONE,
        ));
        db.push(exec_entry(0x1008, true));
        assert_eq!(db.pop().unwrap().pc, 0x1000);
        assert_eq!(db.pop().unwrap().pc, 0x1004);
        assert_eq!(db.pop().unwrap().pc, 0x1008);
        assert!(db.pop().is_none());
    }

    #[test]
    fn data_capacity_counts_only_executed_entries() {
        let mut db = DelayBuffer::new(2, 8);
        assert_eq!(budget(&db), 2);
        db.push(exec_entry(0, false));
        db.push(DelayEntry::skipped(4, Instr::Nop, 8, false, Reason::NONE));
        assert_eq!(budget(&db), 1, "skip markers are control-only");
        db.push(exec_entry(8, false));
        assert_eq!(budget(&db), 0);
        db.pop();
        assert_eq!(budget(&db), 1);
    }

    #[test]
    fn control_capacity_counts_trace_boundaries() {
        let mut db = DelayBuffer::new(100, 2);
        db.push(exec_entry(0, true));
        assert_eq!(budget(&db), 99);
        db.push(exec_entry(4, true));
        assert_eq!(budget(&db), 0, "a full control side stops retirement");
        db.pop();
        assert_eq!(budget(&db), 99);
    }

    #[test]
    fn counted_pushes_spend_credits_like_buffered_ones() {
        // Within a window the A side counts its own pushes instead of
        // reading the buffer: each count must cost what the push does.
        let mut db = DelayBuffer::new(3, 2);
        let mut credits = db.credits();
        for e in [
            exec_entry(0, false),
            DelayEntry::skipped(4, Instr::Nop, 8, true, Reason::NONE),
            exec_entry(8, false),
            exec_entry(12, true),
        ] {
            credits.count(&e);
            db.push(e);
            assert_eq!(credits.retire_budget(), budget(&db), "after {:#x}", e.pc);
        }
        assert_eq!(credits.retire_budget(), 0, "the control side filled");
    }

    #[test]
    fn commits_flow_independently() {
        let mut db = DelayBuffer::new(4, 4);
        let id = TraceId {
            start_pc: 0x1000,
            outcomes: 0,
            branch_count: 0,
            len: 3,
        };
        db.push_commit(TraceCommit {
            id,
            used_vec: 0b010,
        });
        assert_eq!(db.peek_commit().unwrap().used_vec, 0b010);
        assert_eq!(db.pop_commit().unwrap().id, id);
        assert!(db.pop_commit().is_none());
    }

    #[test]
    fn free_data_when_data_full_but_control_is_not() {
        // The slack-window credit formula gates retirement on the *data*
        // side alone when control has room: a full data side must read as
        // zero credits while the control side is not full.
        let mut db = DelayBuffer::new(2, 8);
        db.push(exec_entry(0, false));
        db.push(exec_entry(4, false));
        assert_eq!(budget(&db), 0);
        assert_eq!(db.data_occupancy(), 2);
        assert_eq!(db.control_occupancy(), 0);
        // Skip markers still flow even with zero data credits.
        db.push(DelayEntry::skipped(8, Instr::Nop, 12, true, Reason::NONE));
        assert_eq!(budget(&db), 0);
        assert_eq!(db.control_occupancy(), 1);
    }

    #[test]
    fn push_while_draining_in_the_same_window() {
        // Interleave pushes and pops the way one scheduler window does:
        // occupancy must track the live difference, never go stale, and
        // the budget must saturate rather than underflow.
        let mut db = DelayBuffer::new(3, 3);
        db.push(exec_entry(0, false));
        db.push(exec_entry(4, true));
        assert_eq!(db.pop().unwrap().pc, 0);
        db.push(exec_entry(8, false));
        db.push(exec_entry(12, true));
        assert_eq!(budget(&db), 0);
        assert_eq!(db.data_occupancy(), 3);
        assert_eq!(db.control_occupancy(), 2);
        assert_eq!(db.pop().unwrap().pc, 4);
        assert_eq!(budget(&db), 1);
        assert_eq!(db.control_occupancy(), 1);
        db.push(exec_entry(16, false));
        assert_eq!(budget(&db), 0);
        // Drain completely: occupancies return to zero exactly.
        while db.pop().is_some() {}
        assert_eq!(budget(&db), 3);
        assert_eq!(db.data_occupancy(), 0);
        assert_eq!(db.control_occupancy(), 0);
    }

    #[test]
    fn commit_queue_interleaves_independently_of_entries() {
        // Commits ride a separate queue: draining entries must not consume
        // commits and vice versa, and popping commits leaves entries alone.
        let mut db = DelayBuffer::new(4, 4);
        let id = |pc: u64| TraceId {
            start_pc: pc,
            outcomes: 0,
            branch_count: 0,
            len: 2,
        };
        db.push(exec_entry(0, true));
        db.push_commit(TraceCommit {
            id: id(0),
            used_vec: 0,
        });
        db.push(exec_entry(8, true));
        db.push_commit(TraceCommit {
            id: id(8),
            used_vec: 1,
        });
        assert_eq!(db.pop().unwrap().pc, 0);
        assert_eq!(db.peek_commit().unwrap().id.start_pc, 0);
        assert_eq!(db.pop_commit().unwrap().id.start_pc, 0);
        assert_eq!(db.pop_commit().unwrap().id.start_pc, 8);
        assert!(db.pop_commit().is_none());
        assert_eq!(db.len(), 1, "entries untouched by commit draining");
        assert_eq!(db.control_occupancy(), 1);
    }

    #[test]
    fn push_chunk_preserves_fifo_order_and_hands_the_batch_back() {
        let mut db = DelayBuffer::new(8, 8);
        db.push(exec_entry(0, false));
        let mut batch = Vec::with_capacity(16);
        batch.push(exec_entry(4, true));
        batch.push(DelayEntry::skipped(8, Instr::Nop, 12, false, Reason::NONE));
        db.push_chunk(&mut batch);
        assert!(batch.is_empty(), "the entries moved into the ring");
        assert_eq!(batch.capacity(), 16, "the allocation stays for reuse");
        db.push(exec_entry(12, false));
        db.push_chunk(&mut vec![exec_entry(16, true)]);
        assert_eq!(db.len(), 5);
        assert_eq!(db.data_occupancy(), 4, "skip markers are control-only");
        assert_eq!(db.control_occupancy(), 2);
        let pcs: Vec<u64> = db.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, [0, 4, 8, 12, 16], "iter sees push order");
        for want in [0u64, 4, 8, 12, 16] {
            assert_eq!(db.pop().unwrap().pc, want);
        }
        assert!(db.pop().is_none());
        assert_eq!(db.data_occupancy(), 0);
        assert_eq!(db.control_occupancy(), 0);
    }

    #[test]
    fn popped_entry_stays_readable_until_release() {
        let mut db = DelayBuffer::new(8, 8);
        db.push(exec_entry(0, false));
        db.push(exec_entry(4, true));
        db.push(exec_entry(8, false));
        assert!(
            db.in_flight(0).is_none(),
            "queued entries are not in flight"
        );
        db.pop();
        db.pop();
        assert_eq!(db.in_flight(0).unwrap().pc, 0);
        assert_eq!(db.in_flight(1).unwrap().pc, 4);
        assert!(db.in_flight(2).is_none(), "the third entry is still queued");
        db.release();
        assert_eq!(db.in_flight(0).unwrap().pc, 4);
        assert!(db.in_flight(1).is_none());
        db.release();
        assert!(db.in_flight(0).is_none());
        assert_eq!(db.pop().unwrap().pc, 8, "release leaves the queue alone");
    }

    #[test]
    fn occupancy_drops_at_pop_not_at_release() {
        let mut db = DelayBuffer::new(2, 2);
        db.push(exec_entry(0, true));
        db.push(exec_entry(4, false));
        assert_eq!(budget(&db), 0);
        db.pop();
        assert_eq!(budget(&db), 1);
        assert_eq!(db.data_occupancy(), 1);
        assert_eq!(db.control_occupancy(), 0);
        db.release();
        assert_eq!(budget(&db), 1, "release frees no credit");
        assert_eq!(db.data_occupancy(), 1);
        assert_eq!(db.control_occupancy(), 0);
    }

    #[test]
    fn clear_drops_in_flight_entries() {
        let mut db = DelayBuffer::new(8, 8);
        db.push(exec_entry(0, false));
        db.push(exec_entry(4, false));
        db.pop();
        db.clear();
        assert!(db.in_flight(0).is_none());
        assert!(db.pop().is_none());
        db.push(exec_entry(8, false));
        assert_eq!(db.pop().unwrap().pc, 8);
        assert_eq!(db.in_flight(0).unwrap().pc, 8, "no stale entry survives");
    }

    #[test]
    fn len_and_iter_exclude_in_flight_entries() {
        let mut db = DelayBuffer::new(8, 8);
        for pc in [0, 4, 8] {
            db.push(exec_entry(pc, false));
        }
        db.pop();
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        let pcs: Vec<u64> = db.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, [4, 8]);
        db.pop();
        db.pop();
        assert!(db.is_empty(), "two entries in flight, none queued");
        assert_eq!(db.iter().count(), 0);
    }

    #[test]
    fn entry_accessors_round_trip_every_retired_record() {
        let p = assemble(
            "li r1, 0x4000\nli r2, 5\nloop:\nst r2, 0(r1)\nld r3, 0(r1)\n\
             add r4, r3, r2\naddi r2, r2, -1\nbne r2, r0, loop\nhalt",
        )
        .unwrap();
        let trace = ArchState::new(&p).run(&p, 1_000).unwrap();
        let mut kinds = [0; 3];
        for (i, rec) in trace.iter().enumerate() {
            let ends = i % 3 == 0;
            let e = DelayEntry::executed(rec, ends);
            assert_eq!((e.pc, e.instr, e.next_pc), (rec.pc, rec.instr, rec.next_pc));
            assert!(!e.is_skipped());
            assert_eq!(e.ends_trace(), ends);
            assert_eq!(e.taken(), rec.taken);
            assert_eq!(e.src1(), rec.src1.map(|(_, v)| v));
            assert_eq!(e.src2(), rec.src2.map(|(_, v)| v));
            assert_eq!(e.result(), rec.dest.map(|(_, v)| v));
            assert_eq!(e.addr(), rec.mem.map(|m| m.addr));
            assert_eq!(
                e.store_value(),
                rec.mem.and_then(|m| m.is_store.then_some(m.value))
            );
            kinds[0] += usize::from(rec.mem.is_some_and(|m| !m.is_store));
            kinds[1] += usize::from(rec.mem.is_some_and(|m| m.is_store));
            kinds[2] += usize::from(rec.taken.is_some());

            let reason = Reason::from_bits(i as u8 % 16);
            let s = DelayEntry::skipped(rec.pc, rec.instr, rec.next_pc, ends, reason);
            assert!(s.is_skipped());
            assert_eq!(s.ends_trace(), ends);
            assert_eq!((s.reason(), e.reason()), (reason, Reason::NONE));
            assert_eq!(
                [s.src1(), s.src2(), s.result(), s.addr(), s.store_value()],
                [None; 5]
            );
            assert_eq!(s.taken(), None);
        }
        assert!(
            kinds.iter().all(|&n| n >= 5),
            "loads, stores and branches all covered: {kinds:?}"
        );
    }

    #[test]
    fn clear_resets_occupancy() {
        let mut db = DelayBuffer::new(1, 1);
        db.push(exec_entry(0, true));
        assert_eq!(db.control_occupancy(), 1);
        assert_eq!(budget(&db), 0);
        db.clear();
        assert_eq!(budget(&db), 1);
        assert!(db.is_empty());
    }
}
