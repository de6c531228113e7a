//! Slipstream-level observability: trace configuration, interval metrics,
//! and multi-sink merging on top of the `slipstream_cpu` flight recorder.
//!
//! The event vocabulary ([`TraceEvent`], [`EventKind`], [`TraceSink`]) is
//! defined in `slipstream_cpu` (the lowest layer, so the pipeline itself
//! can record) and re-exported here; this module adds the machine-level
//! pieces: [`TraceConfig`] to turn everything on at once, an
//! [`IntervalSampler`] that snapshots counter *deltas* into a time-series,
//! and [`FlightRecording`] — the merged, export-ready view of a traced run.

pub use slipstream_cpu::{EventKind, StreamId, TraceEvent, TraceSink, NO_SEQ};

use slipstream_cpu::CoreStats;

use crate::front_end::FrontEndStats;
use crate::rstream::IrMispKind;

/// How to trace a run. Passed to
/// [`SlipstreamProcessor::enable_tracing`](crate::SlipstreamProcessor::enable_tracing).
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Events kept per ring (five rings, all on the R side: A core, A
    /// front end, machine, R core, R driver). The flight recorder keeps
    /// the *last* `ring_capacity` events of each; the A-core's own sink
    /// only stages one cycle's events for its batch and is never bounded.
    pub ring_capacity: usize,
    /// Snapshot counter deltas every this many cycles into the interval
    /// time-series; `0` disables sampling.
    pub metrics_interval: u64,
    /// Discard events recorded after this cycle — freezes the recorder
    /// just past an interesting moment so the ring holds the window
    /// *around* it rather than the end of the run.
    pub freeze_after: Option<u64>,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            ring_capacity: 65_536,
            metrics_interval: 0,
            freeze_after: None,
        }
    }
}

impl TraceConfig {
    /// A flight recorder keeping the last `ring_capacity` events per sink.
    pub fn flight(ring_capacity: usize) -> TraceConfig {
        TraceConfig {
            ring_capacity,
            ..TraceConfig::default()
        }
    }

    /// Adds interval metrics sampling every `interval` cycles.
    pub fn with_metrics(mut self, interval: u64) -> TraceConfig {
        self.metrics_interval = interval;
        self
    }

    /// Freezes the recorder after `cycle`.
    pub fn frozen_after(mut self, cycle: u64) -> TraceConfig {
        self.freeze_after = Some(cycle);
        self
    }
}

/// Encodes an [`IrMispKind`] into the `(arg, pc)` pair carried by an
/// [`EventKind::IrMispredict`] event.
pub fn misp_code(kind: IrMispKind) -> (u64, u64) {
    match kind {
        IrMispKind::ValueMismatch { pc } => (0, pc),
        IrMispKind::ControlDivergence { pc } => (1, pc),
        IrMispKind::VecMismatch { trace_start } => (2, trace_start),
    }
}

/// Human-readable label for an [`EventKind::IrMispredict`] `arg` code.
pub fn misp_code_label(code: u64) -> &'static str {
    match code {
        0 => "value-mismatch",
        1 => "control-divergence",
        2 => "vec-mismatch",
        _ => "unknown",
    }
}

/// One point of the interval time-series: every counter is the *delta*
/// accumulated over the `cycles`-long interval ending at `cycle`.
///
/// Because `a`/`r` are whole [`CoreStats`] deltas, each sample carries the
/// per-interval CPI stacks (`a.cpi`/`r.cpi`, summing to that core's
/// interval cycles) and the fetch-stall cause split — the stacked
/// time-series the metrics export draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// Cycle the interval ends at.
    pub cycle: u64,
    /// A-stream core counter deltas over the interval.
    pub a: CoreStats,
    /// R-stream core counter deltas over the interval.
    pub r: CoreStats,
    /// A-stream front-end counter deltas over the interval.
    pub front_end: FrontEndStats,
    /// Dynamic instructions the A-stream skipped during the interval.
    pub skipped: u64,
    /// IR-mispredictions detected during the interval.
    pub ir_misps: u64,
    /// Matching operand values delivered as predictions in the interval.
    pub value_hints: u64,
    /// Delay-buffer occupancy (entries) at the sample point.
    pub delay_occupancy: u64,
}

impl IntervalSample {
    /// Combined IPC over the interval (R-stream retirement).
    pub fn ipc(&self) -> f64 {
        if self.r.cycles == 0 {
            0.0
        } else {
            self.r.retired as f64 / self.r.cycles as f64
        }
    }

    /// Fraction of the dynamic stream the A-stream removed this interval.
    pub fn removal_rate(&self) -> f64 {
        if self.r.retired == 0 {
            0.0
        } else {
            self.skipped as f64 / self.r.retired as f64
        }
    }

    /// IR-mispredictions per 1000 retired instructions this interval.
    pub fn ir_misp_per_kilo(&self) -> f64 {
        if self.r.retired == 0 {
            0.0
        } else {
            1000.0 * self.ir_misps as f64 / self.r.retired as f64
        }
    }
}

/// Snapshots counter deltas every N cycles (built on [`CoreStats::delta`]).
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    interval: u64,
    last_a: CoreStats,
    last_r: CoreStats,
    last_fe: FrontEndStats,
    last_skipped: u64,
    last_misps: u64,
    last_hints: u64,
    /// The collected time-series.
    pub samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// Creates a sampler firing every `interval` cycles (`0` = never).
    pub fn new(interval: u64) -> IntervalSampler {
        IntervalSampler {
            interval,
            last_a: CoreStats::default(),
            last_r: CoreStats::default(),
            last_fe: FrontEndStats::default(),
            last_skipped: 0,
            last_misps: 0,
            last_hints: 0,
            samples: Vec::new(),
        }
    }

    /// Whether a sample is due at `cycle` — callers gate the (mildly
    /// expensive) counter gathering on this.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        self.interval != 0 && cycle.is_multiple_of(self.interval)
    }

    /// Whether a run halting at `cycle` still needs a final, partial
    /// sample: sampling is on and no row ends at `cycle` yet.
    pub fn tail_due(&self, cycle: u64) -> bool {
        self.interval != 0 && self.samples.last().is_none_or(|s| s.cycle != cycle)
    }

    /// Records the sample for the interval ending at `cycle`.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        &mut self,
        cycle: u64,
        a: &CoreStats,
        r: &CoreStats,
        fe: &FrontEndStats,
        skipped: u64,
        ir_misps: u64,
        value_hints: u64,
        delay_occupancy: u64,
    ) {
        self.samples.push(IntervalSample {
            cycle,
            a: a.delta(&self.last_a),
            r: r.delta(&self.last_r),
            front_end: fe.delta(&self.last_fe),
            skipped: skipped.saturating_sub(self.last_skipped),
            ir_misps: ir_misps.saturating_sub(self.last_misps),
            value_hints: value_hints.saturating_sub(self.last_hints),
            delay_occupancy,
        });
        self.last_a = *a;
        self.last_r = *r;
        self.last_fe = *fe;
        self.last_skipped = skipped;
        self.last_misps = ir_misps;
        self.last_hints = value_hints;
    }
}

/// Merges per-component rings into one cycle-ordered event stream. Ties
/// within a cycle keep the sinks' argument order, then each sink's own
/// recording order — fully deterministic for identical runs.
pub fn merge_events<'a>(sinks: impl IntoIterator<Item = &'a TraceSink>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = sinks
        .into_iter()
        .flat_map(|s| s.events().copied())
        .collect();
    // Stable sort: equal-cycle events keep their collection order.
    all.sort_by_key(|e| e.cycle);
    all
}

/// The export-ready view of a traced run: the merged event stream, the
/// interval time-series and the run's totals, and how much the rings
/// dropped.
#[derive(Debug, Clone, Default)]
pub struct FlightRecording {
    /// All held events across every sink, cycle-ordered.
    pub events: Vec<TraceEvent>,
    /// Interval metrics time-series (empty unless sampling was enabled).
    pub samples: Vec<IntervalSample>,
    /// The run's cumulative counters at its end, in sample form. Present
    /// when the samples cover the whole run (it halted, and the last
    /// sample ends at its last cycle): each sample counter then sums to
    /// its total.
    pub totals: Option<IntervalSample>,
    /// Events overwritten across all rings (the trace is a *suffix* of the
    /// run whenever this is nonzero).
    pub dropped: u64,
}

impl FlightRecording {
    /// Inserts a synthesized event (e.g. fault-detection attribution,
    /// which is only known post-run) keeping the stream cycle-ordered; the
    /// event lands after existing events of the same cycle.
    pub fn insert_event(&mut self, event: TraceEvent) {
        let pos = self.events.partition_point(|e| e.cycle <= event.cycle);
        self.events.insert(pos, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_cycle_ordered_and_stable() {
        let mut a = TraceSink::new(StreamId::AStream, 8);
        let mut b = TraceSink::new(StreamId::RStream, 8);
        a.set_cycle(1);
        a.record(EventKind::Dispatch, 0, 0x100, 0);
        a.set_cycle(3);
        a.record(EventKind::Retire, 0, 0x100, 0);
        b.set_cycle(1);
        b.record(EventKind::Dispatch, 0, 0x100, 0);
        b.set_cycle(2);
        b.record(EventKind::Retire, 0, 0x100, 0);
        let merged = merge_events([&a, &b]);
        let got: Vec<(u64, StreamId)> = merged.iter().map(|e| (e.cycle, e.stream)).collect();
        assert_eq!(
            got,
            vec![
                (1, StreamId::AStream), // tie at cycle 1: sink order wins
                (1, StreamId::RStream),
                (2, StreamId::RStream),
                (3, StreamId::AStream),
            ]
        );
    }

    #[test]
    fn sampler_reports_deltas_not_cumulative_counters() {
        let mut s = IntervalSampler::new(100);
        assert!(!s.due(50));
        assert!(s.due(100));
        let fe = FrontEndStats::default();
        let at = |cycles, retired| CoreStats {
            cycles,
            retired,
            ..Default::default()
        };
        s.sample(100, &at(100, 150), &at(100, 180), &fe, 40, 1, 10, 3);
        s.sample(200, &at(200, 320), &at(200, 400), &fe, 95, 1, 25, 7);
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].r.retired, 180);
        assert_eq!(s.samples[1].r.retired, 220, "second sample is a delta");
        assert_eq!(s.samples[1].skipped, 55);
        assert_eq!(s.samples[1].ir_misps, 0);
        assert_eq!(s.samples[1].value_hints, 15);
        assert_eq!(s.samples[1].delay_occupancy, 7);
        assert!((s.samples[1].ipc() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn sampler_carries_cpi_stacks_and_stall_split_as_deltas() {
        use slipstream_cpu::{CpiCat, CpiStack};
        let mut s = IntervalSampler::new(10);
        let fe = FrontEndStats::default();
        let mut cpi1 = CpiStack::default();
        for _ in 0..8 {
            cpi1.charge(CpiCat::Base);
        }
        cpi1.charge(CpiCat::IcacheFill);
        cpi1.charge(CpiCat::DelayEmpty);
        let mut cpi2 = cpi1;
        for _ in 0..7 {
            cpi2.charge(CpiCat::Base);
        }
        for _ in 0..3 {
            cpi2.charge(CpiCat::Recovery);
        }
        let at = |cycles, cpi, fill, ext| CoreStats {
            cycles,
            cpi,
            fetch_fill_stall_cycles: fill,
            fetch_external_stall_cycles: ext,
            ..Default::default()
        };
        let quiet = CoreStats::default();
        s.sample(10, &at(10, cpi1, 1, 0), &quiet, &fe, 0, 0, 0, 0);
        s.sample(20, &at(20, cpi2, 1, 3), &quiet, &fe, 0, 0, 0, 0);
        let second = &s.samples[1].a;
        assert_eq!(second.cpi.get(CpiCat::Base), 7, "stack deltas, not totals");
        assert_eq!(second.cpi.get(CpiCat::Recovery), 3);
        assert_eq!(second.cpi.get(CpiCat::IcacheFill), 0);
        assert_eq!(
            second.cpi.total(),
            second.cycles,
            "per-interval stacks keep the sums-to-total invariant"
        );
        assert_eq!(second.fetch_fill_stall_cycles, 0);
        assert_eq!(second.fetch_external_stall_cycles, 3);
    }

    #[test]
    fn insert_event_keeps_cycle_order() {
        let mut rec = FlightRecording::default();
        for c in [1u64, 3, 3, 5] {
            rec.events.push(TraceEvent {
                cycle: c,
                seq: 0,
                pc: 0,
                arg: 0,
                stream: StreamId::Machine,
                kind: EventKind::Recovery,
            });
        }
        rec.insert_event(TraceEvent {
            cycle: 3,
            seq: 9,
            pc: 0,
            arg: 0,
            stream: StreamId::Machine,
            kind: EventKind::FaultDetected,
        });
        let cycles: Vec<u64> = rec.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 3, 3, 3, 5]);
        assert_eq!(rec.events[3].kind, EventKind::FaultDetected, "after ties");
    }
}
