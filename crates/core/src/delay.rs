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

use slipstream_isa::Instr;
use slipstream_predict::TraceId;

/// One slot of the A-stream's path, communicated to the R-stream.
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
    /// Whether the A-stream skipped this instruction (no data available).
    pub skipped: bool,
    /// This slot ends its trace (boundary flag used by the R-side
    /// reconstruction and the IR-detector).
    pub ends_trace: bool,
    /// Executed conditional branches: the A-stream's outcome.
    pub taken: Option<bool>,
    /// Executed: first source operand value.
    pub src1: Option<u64>,
    /// Executed: second source operand value.
    pub src2: Option<u64>,
    /// Executed: result (register write or load) value.
    pub result: Option<u64>,
    /// Executed loads/stores: effective address.
    pub addr: Option<u64>,
    /// Executed stores: value stored.
    pub store_value: Option<u64>,
}

// One of these is copied into and out of the delay buffer per A-stream
// instruction: a field that fattens it must raise this pin.
const _: () = assert!(
    std::mem::size_of::<DelayEntry>() <= 120,
    "DelayEntry grew past 120 bytes; shrink it or deliberately raise this pin"
);

impl DelayEntry {
    /// A data-less marker for an instruction the A-stream skipped.
    pub fn skipped(pc: u64, instr: Instr, next_pc: u64, ends_trace: bool) -> DelayEntry {
        DelayEntry {
            pc,
            instr,
            next_pc,
            skipped: true,
            ends_trace,
            taken: None,
            src1: None,
            src2: None,
            result: None,
            addr: None,
            store_value: None,
        }
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

/// Recycled chunk allocations kept beyond this are dropped. The pool must
/// cover the peak chunk population — every buffered chunk (one per
/// producing cycle while the R-stream lags, so up to the data capacity in
/// the worst case) plus the `CycleBatch` vectors in circulation. A tight
/// cap makes occupancy swings drop and re-grow chunk buffers in a steady
/// churn; chunks are small (a cycle's retirement burst), so retaining the
/// worst-case population outright is cheaper.
const SPARE_CHUNKS: usize = 512;

/// Recycled chunks are topped up to this capacity so a buffer that sealed
/// small (a quiet cycle) doesn't re-grow through doubling the next time it
/// lands on a full-width retirement burst. One reserve per buffer,
/// amortized to zero once the pool saturates.
const CHUNK_MIN_CAP: usize = 128;

/// The FIFO connecting the two streams.
///
/// Storage is *chunked*: the R-side consumer donates each cycle's batch of
/// entries as a whole `Vec` via [`DelayBuffer::push_chunk`] — a pointer
/// swap, not a per-entry copy (a [`DelayEntry`] is ~112 bytes) — and gets a
/// recycled empty allocation back. Single-entry [`DelayBuffer::push`] still
/// works (tests, hand-fed drivers) through an open tail chunk that is
/// sealed lazily. FIFO order and the data/control occupancy counters are
/// exactly those of the old flat deque.
#[derive(Debug, Clone, Default)]
pub struct DelayBuffer {
    /// Closed chunks in FIFO order; every stored chunk is non-empty.
    chunks: VecDeque<Vec<DelayEntry>>,
    /// Read cursor into `chunks.front()`.
    head: usize,
    /// Open chunk receiving singleton pushes.
    tail: Vec<DelayEntry>,
    /// Consumed chunk allocations awaiting reuse.
    spare: Vec<Vec<DelayEntry>>,
    /// Total entries buffered (all chunks + tail).
    len: usize,
    commits: VecDeque<TraceCommit>,
    data_cap: usize,
    control_cap: usize,
    /// Executed entries currently buffered (data-side occupancy).
    data_count: usize,
    /// Trace boundaries currently buffered (control-side occupancy).
    control_count: usize,
}

impl DelayBuffer {
    /// Creates a buffer with the paper's capacities (data entries = 256,
    /// control pairs = 128 by default).
    pub fn new(data_cap: usize, control_cap: usize) -> DelayBuffer {
        DelayBuffer {
            chunks: VecDeque::new(),
            head: 0,
            tail: Vec::new(),
            spare: Vec::new(),
            len: 0,
            commits: VecDeque::new(),
            data_cap,
            control_cap,
            data_count: 0,
            control_count: 0,
        }
    }

    fn recycle(&mut self, mut chunk: Vec<DelayEntry>) {
        if self.spare.len() < SPARE_CHUNKS {
            chunk.clear();
            if chunk.capacity() < CHUNK_MIN_CAP {
                chunk.reserve(CHUNK_MIN_CAP);
            }
            self.spare.push(chunk);
        }
    }

    fn seal_tail(&mut self) {
        if !self.tail.is_empty() {
            let chunk = std::mem::replace(&mut self.tail, self.spare.pop().unwrap_or_default());
            self.chunks.push_back(chunk);
        }
    }

    /// Free data-side slots: how many more *executed* instructions the
    /// A-stream may retire before stalling.
    pub fn free_data(&self) -> usize {
        self.data_cap.saturating_sub(self.data_count)
    }

    /// Whether the control side (trace pairs) is full.
    pub fn control_full(&self) -> bool {
        self.control_count >= self.control_cap
    }

    /// Data-side occupancy (executed entries currently buffered). The
    /// slack-window scheduler snapshots this at window boundaries to hand
    /// the A-core a credit budget covering the whole window.
    pub fn data_occupancy(&self) -> usize {
        self.data_count
    }

    /// Control-side occupancy (trace boundaries currently buffered).
    pub fn control_occupancy(&self) -> usize {
        self.control_count
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one entry (capacity is the *caller's* responsibility — the
    /// A-stream driver gates retirement on [`DelayBuffer::free_data`] /
    /// [`DelayBuffer::control_full`], matching how the hardware
    /// back-pressures retirement rather than dropping data).
    pub fn push(&mut self, e: DelayEntry) {
        if !e.skipped {
            self.data_count += 1;
        }
        if e.ends_trace {
            self.control_count += 1;
        }
        self.len += 1;
        self.tail.push(e);
    }

    /// Appends every entry of `batch` by *taking the allocation* — `batch`
    /// comes back empty, holding a recycled buffer ready for refilling.
    /// Equivalent to `for &e in batch { self.push(e) }` without the
    /// per-entry copies.
    pub fn push_chunk(&mut self, batch: &mut Vec<DelayEntry>) {
        if batch.is_empty() {
            return;
        }
        for e in batch.iter() {
            if !e.skipped {
                self.data_count += 1;
            }
            if e.ends_trace {
                self.control_count += 1;
            }
        }
        self.len += batch.len();
        self.seal_tail();
        let chunk = std::mem::replace(batch, self.spare.pop().unwrap_or_default());
        self.chunks.push_back(chunk);
    }

    /// Records a completed-trace commit (control-flow side bookkeeping for
    /// the IR-misprediction checker).
    pub fn push_commit(&mut self, c: TraceCommit) {
        self.commits.push_back(c);
    }

    /// Next entry for the R-stream, if any.
    pub fn pop(&mut self) -> Option<DelayEntry> {
        if self.chunks.is_empty() {
            if self.tail.is_empty() {
                return None;
            }
            self.seal_tail();
        }
        let front = self.chunks.front().expect("sealed a non-empty chunk");
        let e = front[self.head];
        self.head += 1;
        if self.head == front.len() {
            let done = self.chunks.pop_front().expect("checked nonempty");
            self.recycle(done);
            self.head = 0;
        }
        self.len -= 1;
        if !e.skipped {
            self.data_count -= 1;
        }
        if e.ends_trace {
            self.control_count -= 1;
        }
        Some(e)
    }

    /// Iterates the queued entries in FIFO order (test/diagnostic use —
    /// the hot paths never walk the buffer).
    pub fn iter(&self) -> impl Iterator<Item = &DelayEntry> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .flat_map(move |(i, c)| c[if i == 0 { self.head } else { 0 }..].iter())
            .chain(self.tail.iter())
    }

    /// Oldest unconsumed trace commit.
    pub fn pop_commit(&mut self) -> Option<TraceCommit> {
        self.commits.pop_front()
    }

    /// Peeks the oldest unconsumed trace commit.
    pub fn peek_commit(&self) -> Option<&TraceCommit> {
        self.commits.front()
    }

    /// Discards everything (IR-misprediction recovery flushes the buffer).
    pub fn clear(&mut self) {
        while let Some(chunk) = self.chunks.pop_front() {
            self.recycle(chunk);
        }
        self.head = 0;
        self.tail.clear();
        self.len = 0;
        self.commits.clear();
        self.data_count = 0;
        self.control_count = 0;
    }

    /// All pending commits, drained (used at recovery to penalize applied
    /// removals that were never verified).
    pub fn drain_commits(&mut self) -> Vec<TraceCommit> {
        self.commits.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec_entry(pc: u64, ends: bool) -> DelayEntry {
        DelayEntry {
            pc,
            instr: Instr::Nop,
            next_pc: pc + 4,
            skipped: false,
            ends_trace: ends,
            taken: None,
            src1: Some(1),
            src2: None,
            result: Some(2),
            addr: None,
            store_value: None,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut db = DelayBuffer::new(4, 4);
        db.push(exec_entry(0x1000, false));
        db.push(DelayEntry::skipped(0x1004, Instr::Nop, 0x1008, false));
        db.push(exec_entry(0x1008, true));
        assert_eq!(db.pop().unwrap().pc, 0x1000);
        assert_eq!(db.pop().unwrap().pc, 0x1004);
        assert_eq!(db.pop().unwrap().pc, 0x1008);
        assert!(db.pop().is_none());
    }

    #[test]
    fn data_capacity_counts_only_executed_entries() {
        let mut db = DelayBuffer::new(2, 8);
        assert_eq!(db.free_data(), 2);
        db.push(exec_entry(0, false));
        db.push(DelayEntry::skipped(4, Instr::Nop, 8, false));
        assert_eq!(db.free_data(), 1, "skip markers are control-only");
        db.push(exec_entry(8, false));
        assert_eq!(db.free_data(), 0);
        db.pop();
        assert_eq!(db.free_data(), 1);
    }

    #[test]
    fn control_capacity_counts_trace_boundaries() {
        let mut db = DelayBuffer::new(100, 2);
        db.push(exec_entry(0, true));
        assert!(!db.control_full());
        db.push(exec_entry(4, true));
        assert!(db.control_full());
        db.pop();
        assert!(!db.control_full());
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
        // zero credits while control_full() stays false.
        let mut db = DelayBuffer::new(2, 8);
        db.push(exec_entry(0, false));
        db.push(exec_entry(4, false));
        assert_eq!(db.free_data(), 0);
        assert!(!db.control_full());
        assert_eq!(db.data_occupancy(), 2);
        assert_eq!(db.control_occupancy(), 0);
        // Skip markers still flow even with zero data credits.
        db.push(DelayEntry::skipped(8, Instr::Nop, 12, true));
        assert_eq!(db.free_data(), 0);
        assert_eq!(db.control_occupancy(), 1);
    }

    #[test]
    fn push_while_draining_in_the_same_window() {
        // Interleave pushes and pops the way one scheduler window does:
        // occupancy must track the live difference, never go stale, and
        // free_data must saturate rather than underflow.
        let mut db = DelayBuffer::new(3, 3);
        db.push(exec_entry(0, false));
        db.push(exec_entry(4, true));
        assert_eq!(db.pop().unwrap().pc, 0);
        db.push(exec_entry(8, false));
        db.push(exec_entry(12, true));
        assert_eq!(db.free_data(), 0);
        assert_eq!(db.data_occupancy(), 3);
        assert_eq!(db.control_occupancy(), 2);
        assert_eq!(db.pop().unwrap().pc, 4);
        assert_eq!(db.free_data(), 1);
        assert_eq!(db.control_occupancy(), 1);
        db.push(exec_entry(16, false));
        assert_eq!(db.free_data(), 0);
        // Drain completely: occupancies return to zero exactly.
        while db.pop().is_some() {}
        assert_eq!(db.free_data(), 3);
        assert_eq!(db.data_occupancy(), 0);
        assert_eq!(db.control_occupancy(), 0);
        assert!(!db.control_full());
    }

    #[test]
    fn commit_queue_interleaves_independently_of_entries() {
        // Commits ride a separate queue: draining entries must not consume
        // commits and vice versa, and drain_commits empties only commits.
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
        let drained = db.drain_commits();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id.start_pc, 8);
        assert_eq!(db.len(), 1, "entries untouched by commit draining");
        assert_eq!(db.control_occupancy(), 1);
    }

    #[test]
    fn push_chunk_takes_the_allocation_and_preserves_fifo_order() {
        let mut db = DelayBuffer::new(8, 8);
        db.push(exec_entry(0, false)); // opens the tail chunk
        let mut batch = vec![
            exec_entry(4, true),
            DelayEntry::skipped(8, Instr::Nop, 12, false),
        ];
        db.push_chunk(&mut batch);
        assert!(batch.is_empty(), "the allocation was donated");
        db.push(exec_entry(12, false)); // new tail *after* the chunk
        let mut batch2 = vec![exec_entry(16, true)];
        db.push_chunk(&mut batch2);
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
        // The next chunk push reuses a recycled allocation (no way to
        // observe the pointer here, but the capacity survives the trip).
        let mut batch3 = vec![exec_entry(20, false)];
        db.push_chunk(&mut batch3);
        assert_eq!(db.pop().unwrap().pc, 20);
    }

    #[test]
    fn clear_resets_occupancy() {
        let mut db = DelayBuffer::new(1, 1);
        db.push(exec_entry(0, true));
        assert_eq!(db.free_data(), 0);
        assert!(db.control_full());
        db.clear();
        assert_eq!(db.free_data(), 1);
        assert!(!db.control_full());
        assert!(db.is_empty());
    }
}
