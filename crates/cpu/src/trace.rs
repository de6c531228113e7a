//! Flight-recorder tracing: typed pipeline events in a bounded ring.
//!
//! The sink lives in this lowest layer so every component of the machine —
//! the core itself, the slipstream drivers, and the harness — can record
//! into the same event vocabulary; higher layers (`slipstream_core::trace`)
//! add configuration, interval sampling, and multi-sink merging on top.
//!
//! Design contract (enforced by the call sites, tested end to end):
//!
//! - **Zero overhead when disabled.** Every record site is gated on an
//!   `Option<TraceSink>` owned by the component; a disabled trace costs one
//!   branch per event site and allocates nothing.
//! - **Bounded.** The ring keeps the last `capacity` events; older events
//!   are overwritten (and counted in [`TraceSink::dropped`]), so a
//!   flight-recorder trace of an arbitrarily long run uses constant memory.
//! - **Deterministic.** Events carry simulated cycles, never wall-clock
//!   time, so identical runs produce byte-identical traces regardless of
//!   host machine or worker count.

/// `seq` value for events not tied to a dispatched instruction (fetch-stage
/// events, machine-level events).
pub const NO_SEQ: u64 = u64::MAX;

/// Which part of the machine an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamId {
    /// The leading (reduced) slipstream core and its front end.
    AStream,
    /// The trailing (checking) slipstream core and its driver.
    RStream,
    /// A single superscalar baseline core.
    Single,
    /// Machine-level events (recovery, delay buffer, fault attribution).
    Machine,
}

impl StreamId {
    /// Short human-readable label (`A`, `R`, `S`, `M`).
    pub fn label(self) -> &'static str {
        match self {
            StreamId::AStream => "A",
            StreamId::RStream => "R",
            StreamId::Single => "S",
            StreamId::Machine => "M",
        }
    }
}

/// What happened. Kind-specific detail travels in [`TraceEvent::arg`]
/// (documented per variant) so events stay `Copy` and fixed-size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An instruction entered the fetch queue (`seq` unknown yet).
    Fetch,
    /// An instruction dispatched into the ROB (functional execution
    /// happened here; `seq` is now assigned).
    Dispatch,
    /// An instruction issued to a function unit. `arg` = the cycle its
    /// execution completes.
    Issue,
    /// An instruction retired (left the ROB in program order).
    Retire,
    /// A conditional branch resolved against its prediction. `arg` = the
    /// actual next PC.
    BranchMispredict,
    /// An indirect/unconditional transfer resolved against its predicted
    /// target. `arg` = the actual next PC.
    JumpMispredict,
    /// Instruction-cache line miss (fetch stalls for the fill).
    IcacheMiss,
    /// Data-cache line miss. `arg` = the missing address.
    DcacheMiss,
    /// Shared-L2 miss (the line fills from memory). `arg` = the missing
    /// address.
    L2Miss,
    /// An L2 fill waited for a free memory-port slot. `arg` = the number
    /// of cycles it queued.
    PortStall,
    /// External pipeline flush (slipstream recovery squashed everything).
    Flush,
    /// The armed transient fault fired. `arg` = the flipped bit.
    FaultFired,
    /// The A-stream skipped (removed) this instruction. `arg` = the
    /// removal [`Reason`] bits.
    ///
    /// [`Reason`]: https://docs.rs/ (see `slipstream_core::removal::Reason`)
    Removed,
    /// An entry entered the delay buffer. `arg` = 1 if it is a skipped
    /// (data-less) marker, 0 if executed.
    DelayEnqueue,
    /// The R-stream consumed a delay-buffer entry. `arg` = entries left.
    DelayDequeue,
    /// An IR-misprediction was detected. `arg` = kind code (0 = value
    /// mismatch, 1 = control divergence, 2 = vec mismatch); `pc` = the
    /// offending PC (or trace start for vec mismatches).
    IrMispredict,
    /// Recovery ran: both pipelines flushed, A-stream context repaired.
    /// `arg` = the charged recovery latency in cycles.
    Recovery,
    /// Synthesized by traced fault experiments: the first detection event
    /// attributed to the injected fault. `arg` = fire-to-detect latency.
    FaultDetected,
}

impl EventKind {
    /// Stable lower-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Fetch => "fetch",
            EventKind::Dispatch => "dispatch",
            EventKind::Issue => "issue",
            EventKind::Retire => "retire",
            EventKind::BranchMispredict => "branch-mispredict",
            EventKind::JumpMispredict => "jump-mispredict",
            EventKind::IcacheMiss => "icache-miss",
            EventKind::DcacheMiss => "dcache-miss",
            EventKind::L2Miss => "l2-miss",
            EventKind::PortStall => "port-stall",
            EventKind::Flush => "flush",
            EventKind::FaultFired => "fault-fired",
            EventKind::Removed => "removed",
            EventKind::DelayEnqueue => "delay-enqueue",
            EventKind::DelayDequeue => "delay-dequeue",
            EventKind::IrMispredict => "ir-mispredict",
            EventKind::Recovery => "recovery",
            EventKind::FaultDetected => "fault-detected",
        }
    }
}

/// One recorded event. `Copy` and fixed-size so the ring is a flat buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred.
    pub cycle: u64,
    /// Dispatch sequence number, or [`NO_SEQ`] when not applicable.
    pub seq: u64,
    /// Instruction (or trace-start) address, 0 when not applicable.
    pub pc: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
    /// Which part of the machine recorded the event.
    pub stream: StreamId,
    /// What happened.
    pub kind: EventKind,
}

/// A bounded ring buffer of [`TraceEvent`]s — the flight recorder.
///
/// The owner sets the current cycle once per simulated cycle
/// ([`TraceSink::set_cycle`]); record sites then only pass
/// `(kind, seq, pc, arg)`.
#[derive(Debug, Clone)]
pub struct TraceSink {
    stream: StreamId,
    cap: usize,
    buf: Vec<TraceEvent>,
    /// Next overwrite position once the ring is full.
    next: usize,
    dropped: u64,
    cycle: u64,
    /// Events past this cycle are discarded (freeze the recorder shortly
    /// after an interesting moment to keep the window *around* it).
    freeze_after: Option<u64>,
}

impl TraceSink {
    /// Creates a sink keeping the last `capacity` events (min 1).
    pub fn new(stream: StreamId, capacity: usize) -> TraceSink {
        TraceSink {
            stream,
            cap: capacity.max(1),
            buf: Vec::new(),
            next: 0,
            dropped: 0,
            cycle: 0,
            freeze_after: None,
        }
    }

    /// Sets the cycle stamped on subsequently recorded events.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Stops recording for events past `cycle` — the ring then holds the
    /// last `capacity` events *up to* that point.
    pub fn freeze_after(&mut self, cycle: u64) {
        self.freeze_after = Some(cycle);
    }

    /// Records one event at the current cycle.
    #[inline]
    pub fn record(&mut self, kind: EventKind, seq: u64, pc: u64, arg: u64) {
        self.push(TraceEvent {
            cycle: self.cycle,
            seq,
            pc,
            arg,
            stream: self.stream,
            kind,
        });
    }

    /// Records an event as stamped, keeping its cycle and stream.
    #[inline]
    fn push(&mut self, e: TraceEvent) {
        if self.freeze_after.is_some_and(|f| e.cycle > f) {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Moves every held event, oldest first, onto the end of `out`, leaving
    /// the sink empty (its dropped count stays).
    pub fn drain_into(&mut self, out: &mut impl Extend<TraceEvent>) {
        out.extend(self.events().copied());
        self.buf.clear();
        self.next = 0;
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (older, newer) = self.buf.split_at(self.next.min(self.buf.len()));
        newer.iter().chain(older.iter())
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded (or all were dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Records events another sink stamped (see [`TraceSink::drain_into`]).
impl Extend<TraceEvent> for TraceSink {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        for e in events {
            self.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(sink: &mut TraceSink, n: u64) {
        for i in 0..n {
            sink.set_cycle(i);
            sink.record(EventKind::Retire, i, 0x1000 + 4 * i, 0);
        }
    }

    #[test]
    fn ring_keeps_exactly_the_last_k_events_in_order() {
        let k = 8;
        let mut sink = TraceSink::new(StreamId::Single, k);
        push_n(&mut sink, 3 * k as u64);
        assert_eq!(sink.len(), k);
        assert_eq!(sink.dropped(), 2 * k as u64);
        let seqs: Vec<u64> = sink.events().map(|e| e.seq).collect();
        let want: Vec<u64> = (2 * k as u64..3 * k as u64).collect();
        assert_eq!(seqs, want, "ring holds the most recent K, oldest first");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut sink = TraceSink::new(StreamId::AStream, 16);
        push_n(&mut sink, 5);
        assert_eq!(sink.len(), 5);
        assert_eq!(sink.dropped(), 0);
        let cycles: Vec<u64> = sink.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_is_exact_at_every_fill_level() {
        // Wraparound boundary sweep: for every total 1..=3K the ring holds
        // the last min(total, K) events in order.
        let k = 4;
        for total in 1..=(3 * k as u64) {
            let mut sink = TraceSink::new(StreamId::RStream, k);
            push_n(&mut sink, total);
            let held: Vec<u64> = sink.events().map(|e| e.seq).collect();
            let start = total.saturating_sub(k as u64);
            let want: Vec<u64> = (start..total).collect();
            assert_eq!(held, want, "total={total}");
        }
    }

    #[test]
    fn freeze_discards_later_events() {
        let mut sink = TraceSink::new(StreamId::Machine, 64);
        sink.freeze_after(10);
        push_n(&mut sink, 20);
        assert_eq!(sink.len(), 11, "cycles 0..=10 recorded, rest frozen out");
        assert!(sink.events().all(|e| e.cycle <= 10));
    }

    #[test]
    fn drained_events_keep_their_stamps_and_freeze_by_their_cycle() {
        let mut staging = TraceSink::new(StreamId::AStream, usize::MAX);
        push_n(&mut staging, 6);
        let mut ring = TraceSink::new(StreamId::Machine, 4);
        ring.freeze_after(4);
        staging.drain_into(&mut ring);
        assert!(staging.is_empty());
        let held: Vec<(u64, StreamId)> = ring.events().map(|e| (e.cycle, e.stream)).collect();
        let want: Vec<(u64, StreamId)> = (1..=4).map(|c| (c, StreamId::AStream)).collect();
        assert_eq!(held, want, "cycles 0..=4 kept as stamped, one evicted");
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut sink = TraceSink::new(StreamId::Single, 0);
        push_n(&mut sink, 3);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events().next().unwrap().cycle, 2);
    }
}
