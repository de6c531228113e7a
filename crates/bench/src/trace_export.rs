//! Renderings of flight recordings, and divergence naming.
//!
//! A run's recording is saved as `event` and `sample` rows of its run file
//! (see `telemetry_export`); the renderings here are views of it, all
//! deterministic (nothing reads the clock or the environment):
//!
//! - [`chrome_trace_json`]: Chrome Trace Event JSON for Perfetto (which
//!   cannot read the run file), written next to each traced `.jsonl` and
//!   never read back. Instruction lifecycles become duration (`"X"`)
//!   slices on one track per stream, out-of-band events become instants,
//!   and interval samples become counter tracks. Timestamps are simulated
//!   cycles interpreted as microseconds.
//! - [`pipeview_text`]: a gem5-`O3PipeView`-style per-instruction lifecycle
//!   dump — one line per dispatched instruction with its fetch / dispatch /
//!   issue / complete / retire cycles, followed by the out-of-band events
//!   and the interval time-series. The `report` binary prints it.
//!
//! Plus [`first_divergence`] / [`violation_trace_text`]: given a fuzz
//! violation's minimized program, re-run it traced and name the first event
//! where the slipstream machine's retirement stream leaves the functional
//! oracle's path.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use slipstream_core::trace::misp_code_label;
use slipstream_core::{
    EventKind, FlightRecording, SlipstreamConfig, SlipstreamProcessor, StreamId, TraceConfig,
    TraceEvent, NO_SEQ,
};
use slipstream_isa::Program;

use crate::fuzz::{corpus_entry_name, FuzzViolation};
use crate::json::{self, Obj};
use crate::MAX_CYCLES;

/// `const $name: [$ty; N]` holding the listed variants, in order, plus a
/// match over them that names no wildcard: a variant added to the enum
/// fails to compile until it is listed here.
macro_rules! every_variant {
    ($(#[$doc:meta])* $name:ident: $ty:ident = [$($v:ident),+ $(,)?]) => {
        $(#[$doc])*
        pub(crate) const $name: [$ty; [$(stringify!($v)),+].len()] = [$($ty::$v),+];
        const _: fn($ty) = |v| match v {
            $($ty::$v)|+ => {}
        };
    };
}

every_variant! {
    /// All streams in fixed export order (determines Chrome track order
    /// and tie-breaking everywhere).
    STREAMS: StreamId = [AStream, RStream, Single, Machine]
}

every_variant! {
    /// Every event kind: the labels an `event` row may carry.
    EVENT_KINDS: EventKind = [
        Fetch, Dispatch, Issue, Retire, BranchMispredict, JumpMispredict, IcacheMiss,
        DcacheMiss, L2Miss, PortStall, Flush, FaultFired, Removed, DelayEnqueue, DelayDequeue,
        IrMispredict, Recovery, FaultDetected,
    ]
}

fn stream_index(s: StreamId) -> u8 {
    match s {
        StreamId::AStream => 0,
        StreamId::RStream => 1,
        StreamId::Single => 2,
        StreamId::Machine => 3,
    }
}

fn stream_name(s: StreamId) -> &'static str {
    match s {
        StreamId::AStream => "A-stream core",
        StreamId::RStream => "R-stream core",
        StreamId::Single => "single core",
        StreamId::Machine => "machine",
    }
}

/// Whether `kind` is one of the per-instruction lifecycle stages (consumed
/// by [`lifecycles`]) rather than an out-of-band event.
fn is_lifecycle_stage(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Fetch | EventKind::Dispatch | EventKind::Issue | EventKind::Retire
    )
}

/// One instruction's reconstructed pipeline lifecycle. Stages the
/// flight-recorder window did not capture are `None`.
#[derive(Debug, Clone, Copy)]
pub struct Lifecycle {
    /// Stream the instruction ran in.
    pub stream: StreamId,
    /// Dispatch sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// Cycle the instruction entered the fetch queue.
    pub fetch: Option<u64>,
    /// Cycle it dispatched into the ROB.
    pub dispatch: Option<u64>,
    /// Cycle it issued to a function unit.
    pub issue: Option<u64>,
    /// Cycle its execution completed (writeback).
    pub complete: Option<u64>,
    /// Cycle it retired.
    pub retire: Option<u64>,
}

impl Lifecycle {
    fn partial(stream: StreamId, seq: u64, pc: u64) -> Lifecycle {
        Lifecycle {
            stream,
            seq,
            pc,
            fetch: None,
            dispatch: None,
            issue: None,
            complete: None,
            retire: None,
        }
    }

    /// Last known cycle of the lifecycle (for slice durations).
    fn end(&self) -> Option<u64> {
        self.retire
            .or(self.complete)
            .or(self.issue)
            .or(self.dispatch)
    }

    /// First known cycle of the lifecycle.
    fn start(&self) -> Option<u64> {
        self.fetch.or(self.dispatch).or(self.issue).or(self.retire)
    }
}

/// Reconstructs per-instruction lifecycles from a cycle-ordered event
/// stream, in dispatch order.
///
/// Fetch events carry no sequence number (dispatch assigns it), so they
/// are matched to dispatches FIFO by PC per stream; redirects and flushes
/// (which squash the fetch queue) clear the pending-fetch window, and
/// non-matching queue heads are treated as squashed wrong-path fetches.
/// Instructions whose dispatch fell off the ring still appear (from their
/// later stage events) with the missing stages as `None`.
pub fn lifecycles(events: &[TraceEvent]) -> Vec<Lifecycle> {
    let mut lives: Vec<Lifecycle> = Vec::new();
    let mut open: HashMap<(u8, u64), usize> = HashMap::new();
    let mut fetched: HashMap<u8, VecDeque<(u64, u64)>> = HashMap::new();
    for e in events {
        let s = stream_index(e.stream);
        let mut stage = |lives: &mut Vec<Lifecycle>| -> usize {
            *open.entry((s, e.seq)).or_insert_with(|| {
                lives.push(Lifecycle::partial(e.stream, e.seq, e.pc));
                lives.len() - 1
            })
        };
        match e.kind {
            EventKind::Fetch => fetched.entry(s).or_default().push_back((e.pc, e.cycle)),
            EventKind::Flush | EventKind::BranchMispredict | EventKind::JumpMispredict => {
                fetched.entry(s).or_default().clear();
            }
            EventKind::Dispatch => {
                let q = fetched.entry(s).or_default();
                let mut fetch_cycle = None;
                while let Some((pc, cyc)) = q.pop_front() {
                    if pc == e.pc {
                        fetch_cycle = Some(cyc);
                        break;
                    }
                }
                let idx = stage(&mut lives);
                lives[idx].pc = e.pc;
                lives[idx].fetch = fetch_cycle;
                lives[idx].dispatch = Some(e.cycle);
            }
            EventKind::Issue => {
                let idx = stage(&mut lives);
                lives[idx].issue = Some(e.cycle);
                lives[idx].complete = Some(e.arg);
            }
            EventKind::Retire => {
                let idx = stage(&mut lives);
                lives[idx].retire = Some(e.cycle);
                // Retired: the seq can never appear again in this stream.
                open.remove(&(s, e.seq));
            }
            _ => {}
        }
    }
    lives
}

/// Renders a recording as Chrome Trace Event JSON (the `traceEvents`
/// object form), loadable in `chrome://tracing` or Perfetto. Simulated
/// cycles map 1:1 to microseconds.
pub fn chrome_trace_json(rec: &FlightRecording) -> String {
    let lives = lifecycles(&rec.events);
    let mut rows: Vec<String> = Vec::new();

    // Track metadata: one named thread per stream that appears.
    let mut used = [false; 4];
    for e in &rec.events {
        used[stream_index(e.stream) as usize] = true;
    }
    if !rec.samples.is_empty() {
        used[stream_index(StreamId::Machine) as usize] = true;
    }
    for s in STREAMS {
        let i = stream_index(s);
        if !used[i as usize] {
            continue;
        }
        rows.push(
            Obj::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .raw("pid", 0)
                .raw("tid", i)
                .raw("args", Obj::new().str("name", stream_name(s)).finish())
                .finish(),
        );
        rows.push(
            Obj::new()
                .str("name", "thread_sort_index")
                .str("ph", "M")
                .raw("pid", 0)
                .raw("tid", i)
                .raw("args", Obj::new().raw("sort_index", i).finish())
                .finish(),
        );
    }

    // Instruction lifecycles as duration slices.
    for l in &lives {
        let (Some(start), Some(end)) = (l.start(), l.end()) else {
            continue;
        };
        let mut args = Obj::new().raw("seq", seq_str(l.seq)).str("pc", &hex(l.pc));
        for (label, stage) in [
            ("fetch", l.fetch),
            ("dispatch", l.dispatch),
            ("issue", l.issue),
            ("complete", l.complete),
            ("retire", l.retire),
        ] {
            if let Some(c) = stage {
                args = args.raw(label, c);
            }
        }
        rows.push(
            Obj::new()
                .str("name", &hex(l.pc))
                .str("cat", "instr")
                .str("ph", "X")
                .raw("ts", start)
                .raw("dur", (end - start).max(1))
                .raw("pid", 0)
                .raw("tid", stream_index(l.stream))
                .raw("args", args.finish())
                .finish(),
        );
    }

    // Out-of-band events as instants.
    for e in &rec.events {
        if is_lifecycle_stage(e.kind) {
            continue;
        }
        let mut args = Obj::new().str("pc", &hex(e.pc)).raw("arg", e.arg);
        if e.seq != NO_SEQ {
            args = args.raw("seq", e.seq);
        }
        if e.kind == EventKind::IrMispredict {
            args = args.str("misp_kind", misp_code_label(e.arg));
        }
        rows.push(
            Obj::new()
                .str("name", e.kind.label())
                .str("cat", "event")
                .str("ph", "i")
                .str("s", "t")
                .raw("ts", e.cycle)
                .raw("pid", 0)
                .raw("tid", stream_index(e.stream))
                .raw("args", args.finish())
                .finish(),
        );
    }

    // Interval metrics as counter tracks.
    for s in &rec.samples {
        for (name, value) in [
            ("ipc", json::f64_fixed(s.ipc(), 4)),
            ("removal_rate", json::f64_fixed(s.removal_rate(), 4)),
            ("ir_misp_per_kilo", json::f64_fixed(s.ir_misp_per_kilo(), 4)),
            ("delay_occupancy", s.delay_occupancy.to_string()),
        ] {
            rows.push(
                Obj::new()
                    .str("name", name)
                    .str("ph", "C")
                    .raw("ts", s.cycle)
                    .raw("pid", 0)
                    .raw("args", Obj::new().raw("value", value).finish())
                    .finish(),
            );
        }
    }

    format!(
        "{{\n  \"displayTimeUnit\": \"ms\",\n  \"dropped_events\": {},\n  \
         \"traceEvents\": {}\n}}\n",
        rec.dropped,
        json::array(rows, 2),
    )
}

fn hex(v: u64) -> String {
    format!("{v:#x}")
}

fn seq_str(seq: u64) -> String {
    if seq == NO_SEQ {
        "-".to_string()
    } else {
        seq.to_string()
    }
}

fn opt_cycle(c: Option<u64>) -> String {
    c.map_or_else(|| "-".to_string(), |c| c.to_string())
}

/// Renders a recording as a per-instruction lifecycle text dump
/// (gem5-`O3PipeView`-style), followed by the out-of-band events and the
/// interval time-series.
pub fn pipeview_text(rec: &FlightRecording) -> String {
    let lives = lifecycles(&rec.events);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# slipstream pipeview: one line per dispatched instruction; cycles are absolute\n\
         # stages: fetch dispatch issue complete retire ('-' = outside the recorded window)\n\
         # dropped events: {} (nonzero means the trace is a suffix of the run)",
        rec.dropped
    );
    let _ = writeln!(
        out,
        "# {:<6} {:>10} {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stream", "seq", "pc", "fetch", "dispatch", "issue", "complete", "retire"
    );
    for l in &lives {
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            l.stream.label(),
            seq_str(l.seq),
            hex(l.pc),
            opt_cycle(l.fetch),
            opt_cycle(l.dispatch),
            opt_cycle(l.issue),
            opt_cycle(l.complete),
            opt_cycle(l.retire),
        );
    }
    let _ = writeln!(out, "# ---- out-of-band events ----");
    for e in &rec.events {
        if is_lifecycle_stage(e.kind) {
            continue;
        }
        let extra = match e.kind {
            EventKind::IrMispredict => format!(" ({})", misp_code_label(e.arg)),
            EventKind::FaultDetected => " (fire-to-detect latency)".to_string(),
            EventKind::Recovery => " (recovery latency)".to_string(),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "@{:>10} [{}] {} seq={} pc={} arg={:#x}{}",
            e.cycle,
            e.stream.label(),
            e.kind.label(),
            seq_str(e.seq),
            hex(e.pc),
            e.arg,
            extra,
        );
    }
    if !rec.samples.is_empty() {
        let _ = writeln!(out, "# ---- interval samples ----");
        for s in &rec.samples {
            let _ = writeln!(
                out,
                "@{:>10} ipc={:.3} removal={:.3} irm/kilo={:.3} hints={} delay={}",
                s.cycle,
                s.ipc(),
                s.removal_rate(),
                s.ir_misp_per_kilo(),
                s.value_hints,
                s.delay_occupancy,
            );
        }
    }
    out
}

/// One CPI stack as an inline JSON object, categories in display order.
pub fn cpi_stack_obj(stack: &slipstream_cpu::CpiStack) -> String {
    let mut o = Obj::new();
    for (cat, n) in stack.entries() {
        o = o.raw(cat.label(), n);
    }
    o.finish()
}

/// Runs `program` on the slipstream model with tracing enabled. Panics are
/// caught and returned as `Err` — a violating fuzz program may legitimately
/// trip simulator assertions, and the caller still wants a trace file.
pub fn trace_slipstream_run(
    cfg: SlipstreamConfig,
    program: &Program,
    max_cycles: u64,
    trace: TraceConfig,
) -> Result<(bool, FlightRecording), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut proc = SlipstreamProcessor::new(cfg, program);
        proc.enable_tracing(trace);
        let halted = proc.run(max_cycles);
        (halted, proc.flight_recording().expect("tracing enabled"))
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// The first point where a traced run's retirement stream leaves the
/// functional oracle's path.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Event kind label (`retire` for a retirement-stream divergence,
    /// `ir-mispredict` for a detection-only divergence).
    pub kind: &'static str,
    /// Cycle of the divergent event.
    pub cycle: u64,
    /// Dispatch sequence number of the divergent event ([`NO_SEQ`] when
    /// not tied to an instruction).
    pub seq: u64,
    /// Human-readable explanation.
    pub detail: String,
}

/// Names the first divergent event of a recording against the oracle's
/// retirement-PC stream: the first R-stream retire whose PC differs from
/// the oracle's, or (when the retire streams agree or the ring dropped the
/// beginning of the run) the first IR-misprediction detection.
pub fn first_divergence(rec: &FlightRecording, oracle_pcs: &[u64]) -> Option<Divergence> {
    // PC-by-PC comparison needs the retire stream from instruction 0; a
    // ring that dropped events no longer has it.
    if rec.dropped == 0 {
        let mut idx = 0usize;
        for e in &rec.events {
            if e.stream != StreamId::RStream || e.kind != EventKind::Retire {
                continue;
            }
            match oracle_pcs.get(idx) {
                Some(&want) if want == e.pc => idx += 1,
                Some(&want) => {
                    return Some(Divergence {
                        kind: EventKind::Retire.label(),
                        cycle: e.cycle,
                        seq: e.seq,
                        detail: format!(
                            "r-stream retired pc {} where the oracle retires {} \
                             (dynamic instruction {idx})",
                            hex(e.pc),
                            hex(want),
                        ),
                    })
                }
                None => {
                    return Some(Divergence {
                        kind: EventKind::Retire.label(),
                        cycle: e.cycle,
                        seq: e.seq,
                        detail: format!(
                            "r-stream retired pc {} past the oracle's halt \
                             (oracle retires {} instructions)",
                            hex(e.pc),
                            oracle_pcs.len(),
                        ),
                    })
                }
            }
        }
    }
    rec.events
        .iter()
        .find(|e| e.kind == EventKind::IrMispredict)
        .map(|e| Divergence {
            kind: EventKind::IrMispredict.label(),
            cycle: e.cycle,
            seq: e.seq,
            detail: format!("{} at pc {}", misp_code_label(e.arg), hex(e.pc)),
        })
}

/// The oracle's retirement-PC stream for `program`, or `None` if it does
/// not terminate within `fuel` instructions.
fn oracle_retire_pcs(program: &Program, fuel: u64) -> Option<Vec<u64>> {
    let mut st = slipstream_isa::ArchState::new(program);
    st.run(program, fuel)
        .ok()
        .map(|trace| trace.iter().map(|r| r.pc).collect())
}

/// Renders the flight-recorder trace file written next to a fuzz
/// violation's `.ssir` reproducer: a comment header naming the first
/// divergent event (kind + cycle + seq), then the full pipeview dump of
/// the minimized program's traced slipstream replay.
pub fn violation_trace_text(v: &FuzzViolation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; flight-recorder trace for reproducer {}",
        corpus_entry_name(v)
    );
    let _ = writeln!(out, "; invariant: {}", v.invariant);
    match trace_slipstream_run(
        SlipstreamConfig::cmp_2x64x4(),
        &v.minimized,
        MAX_CYCLES,
        TraceConfig::default(),
    ) {
        Err(panic) => {
            let _ = writeln!(
                out,
                "; slipstream replay panicked before completion: {}",
                panic.replace('\n', " | ")
            );
            let _ = writeln!(out, "; no events recorded");
        }
        Ok((halted, rec)) => {
            let oracle_pcs = oracle_retire_pcs(&v.minimized, 3_000_000).unwrap_or_default();
            match first_divergence(&rec, &oracle_pcs) {
                Some(d) => {
                    let _ = writeln!(
                        out,
                        "; first divergent event: kind={} cycle={} seq={}",
                        d.kind,
                        d.cycle,
                        seq_str(d.seq),
                    );
                    let _ = writeln!(out, "; detail: {}", d.detail);
                }
                None => {
                    let _ = writeln!(
                        out,
                        "; no divergent event in the slipstream replay (the violation \
                         may be baseline-core-only or stats-level)"
                    );
                }
            }
            if !halted {
                let _ = writeln!(out, "; replay did not halt within its cycle budget");
            }
            out.push_str(&pipeview_text(&rec));
        }
    }
    out
}
