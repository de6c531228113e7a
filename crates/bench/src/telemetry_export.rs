//! The run file: one JSONL stream per run, its one reader, and the report
//! rendered from it.
//!
//! A run file is JSON Lines. A `{"type": "manifest", ...}` line carries the
//! run's identity and the flight recorder's `dropped` count; every other
//! line is one row, and the row type fixes its clock:
//!
//! - host rows, in wall-clock nanoseconds: `span` (one scheduler phase's
//!   count and total; the [`Snapshot`]);
//! - simulated rows, in simulated cycles: `event` (one flight-recorder
//!   event), `sample` (one interval sample, integer counters only —
//!   ratios are computed when rendered) and at most one `totals` (the
//!   run's cumulative counters, in sample form, written when the samples
//!   cover the whole run; the reader rejects a file whose samples do not
//!   sum to it) (the [`FlightRecording`]).
//!
//! [`to_jsonl`] writes a [`RunFile`] and [`parse_jsonl`], the only reader,
//! inverts it byte for byte. A run file is the only artifact a traced run
//! writes and the only input `report` reads. Lines are self-describing, so external
//! producers can append rows — the `run_gate` wrapper in
//! `scripts/check.sh` appends `gate:*` span lines with nothing but a shell
//! and `date +%s%N` — and everything still parses and reports.

use std::path::Path;

use crate::json::{self, Value};
use crate::trace_export::{cpi_stack_obj, pipeview_text, EVENT_KINDS, STREAMS};
use slipstream_core::{FlightRecording, FrontEndStats, IntervalSample, TraceEvent};
use slipstream_cpu::{CoreStats, CpiCat};
use slipstream_telemetry::{Snapshot, SpanRow};

/// Everything one run leaves for later reading: host spans plus the
/// simulated flight recording (empty when the run was not traced).
#[derive(Debug, Clone)]
pub struct RunFile {
    /// Manifest identity and host rows.
    pub snapshot: Snapshot,
    /// Event and sample rows, and the ring's drop count.
    pub recording: FlightRecording,
}

impl From<Snapshot> for RunFile {
    fn from(snapshot: Snapshot) -> RunFile {
        RunFile {
            snapshot,
            recording: FlightRecording::default(),
        }
    }
}

// ---- JSONL emission -------------------------------------------------------

/// One span row — the exact shape shell producers emit.
fn span_line(s: &SpanRow) -> String {
    json::Obj::new()
        .str("type", "span")
        .str("name", &s.name)
        .raw("count", s.count)
        .raw("total_nanos", s.total_nanos)
        .finish()
}

/// One flight-recorder event row.
fn event_line(e: &TraceEvent) -> String {
    json::Obj::new()
        .str("type", "event")
        .raw("cycle", e.cycle)
        .str("stream", e.stream.label())
        .str("kind", e.kind.label())
        .raw("seq", e.seq)
        .raw("pc", e.pc)
        .raw("arg", e.arg)
        .finish()
}

/// One core's interval counters as an inline object, CPI stack last. The
/// fault-fire markers appear only when the fault fired in the interval.
fn core_obj(c: &CoreStats) -> String {
    let mut c = *c;
    let mut o = json::Obj::new();
    for (key, v) in c.counters_mut() {
        o = o.raw(key, v);
    }
    if let Some(cycle) = c.fault_fired_cycle {
        o = o.raw("fault_fired_cycle", cycle);
    }
    if let Some(seq) = c.fault_fired_seq {
        o = o.raw("fault_fired_seq", seq);
    }
    o.raw("cpi", cpi_stack_obj(&c.cpi)).finish()
}

/// One interval-sample row, or with `ty` = `"totals"` the totals row.
fn sample_line(s: &IntervalSample, ty: &str) -> String {
    let mut fe = s.front_end;
    let mut front_end = json::Obj::new();
    for (key, v) in fe.counters_mut() {
        front_end = front_end.raw(key, v);
    }
    json::Obj::new()
        .str("type", ty)
        .raw("cycle", s.cycle)
        .raw("skipped", s.skipped)
        .raw("ir_misps", s.ir_misps)
        .raw("value_hints", s.value_hints)
        .raw("delay_occupancy", s.delay_occupancy)
        .raw("front_end", front_end.finish())
        .raw("a", core_obj(&s.a))
        .raw("r", core_obj(&s.r))
        .finish()
}

/// The run as JSONL: manifest first, then spans, events, samples and the
/// totals.
/// `parse_jsonl` inverts this byte-identically
/// (`to_jsonl(&parse_jsonl(&to_jsonl(r))?) == to_jsonl(r)`).
pub fn to_jsonl(run: &RunFile) -> String {
    let (snap, rec) = (&run.snapshot, &run.recording);
    let mut labels = json::Obj::new();
    for (k, v) in &snap.labels {
        labels = labels.str(k, v);
    }
    let manifest = json::Obj::new()
        .str("type", "manifest")
        .str("binary", &snap.binary)
        .str("scheduler", &snap.scheduler)
        .str("config_digest", &snap.config_digest)
        .raw("dropped", rec.dropped)
        .raw("labels", labels.finish())
        .finish();
    std::iter::once(manifest)
        .chain(snap.spans.iter().map(span_line))
        .chain(rec.events.iter().map(event_line))
        .chain(rec.samples.iter().map(|s| sample_line(s, "sample")))
        .chain(rec.totals.iter().map(|s| sample_line(s, "totals")))
        .map(|line| line + "\n")
        .collect()
}

/// Writes the run file `<dir>/<stem>.jsonl`. Returns the JSONL text.
pub fn write_run(dir: &Path, stem: &str, run: &RunFile) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let jsonl = to_jsonl(run);
    let path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&path, &jsonl).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(jsonl)
}

// ---- JSONL parsing --------------------------------------------------------

/// A required string field.
fn need_str(obj: &Value, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// A required integer field.
fn need_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

/// An optional integer field (absent is `None`, present but not an
/// integer is an error).
fn opt_u64(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    obj.get(key)
        .map(|v| v.as_u64().ok_or(format!("non-integer field {key:?}")))
        .transpose()
}

/// A required object field.
fn need_obj<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    obj.get(key)
        .filter(|v| v.as_obj().is_some())
        .ok_or_else(|| format!("missing object field {key:?}"))
}

/// An `event` row.
fn read_event(val: &Value) -> Result<TraceEvent, String> {
    let stream = need_str(val, "stream")?;
    let kind = need_str(val, "kind")?;
    Ok(TraceEvent {
        cycle: need_u64(val, "cycle")?,
        seq: need_u64(val, "seq")?,
        pc: need_u64(val, "pc")?,
        arg: need_u64(val, "arg")?,
        stream: STREAMS
            .into_iter()
            .find(|s| s.label() == stream)
            .ok_or_else(|| format!("unknown stream {stream:?}"))?,
        kind: EVENT_KINDS
            .into_iter()
            .find(|k| k.label() == kind)
            .ok_or_else(|| format!("unknown event kind {kind:?}"))?,
    })
}

/// One core's counters from a `sample` row; its CPI stack must sum to its
/// interval cycles.
fn read_core(sample: &Value, core: &str) -> Result<CoreStats, String> {
    let obj = need_obj(sample, core)?;
    let mut c = CoreStats {
        fault_fired_cycle: opt_u64(obj, "fault_fired_cycle")?,
        fault_fired_seq: opt_u64(obj, "fault_fired_seq")?,
        ..CoreStats::default()
    };
    for (key, v) in c.counters_mut() {
        *v = need_u64(obj, key).map_err(|e| format!("{core}: {e}"))?;
    }
    let cpi = need_obj(obj, "cpi").map_err(|e| format!("{core}: {e}"))?;
    for cat in CpiCat::ALL {
        let cycles = need_u64(cpi, cat.label()).map_err(|e| format!("{core}.cpi: {e}"))?;
        c.cpi.set(cat, cycles);
    }
    // A checked sum: the counts are untrusted, so their sum may overflow.
    let sum = CpiCat::ALL
        .iter()
        .try_fold(0u64, |sum, &cat| sum.checked_add(c.cpi.get(cat)));
    if sum != Some(c.cycles) {
        let sum = sum.map_or_else(|| "more than u64::MAX".to_string(), |s| s.to_string());
        return Err(format!(
            "{core}: CPI stack sums to {sum} but cycles is {}",
            c.cycles
        ));
    }
    Ok(c)
}

/// A `sample` row.
fn read_sample(val: &Value) -> Result<IntervalSample, String> {
    let mut front_end = FrontEndStats::default();
    let fe = need_obj(val, "front_end")?;
    for (key, v) in front_end.counters_mut() {
        *v = need_u64(fe, key).map_err(|e| format!("front_end: {e}"))?;
    }
    Ok(IntervalSample {
        cycle: need_u64(val, "cycle")?,
        a: read_core(val, "a")?,
        r: read_core(val, "r")?,
        front_end,
        skipped: need_u64(val, "skipped")?,
        ir_misps: need_u64(val, "ir_misps")?,
        value_hints: need_u64(val, "value_hints")?,
        delay_occupancy: need_u64(val, "delay_occupancy")?,
    })
}

/// Every summable counter of a `sample` or `totals` row as `(prefix,
/// name, value)`, in file order.
fn row_counters(s: &IntervalSample) -> Vec<(&'static str, &'static str, u64)> {
    let mut out = Vec::new();
    for (core, cpi, mut c) in [("a", "a.cpi", s.a), ("r", "r.cpi", s.r)] {
        out.extend(c.counters_mut().map(|(key, v)| (core, key, *v)));
        out.extend(
            CpiCat::ALL
                .iter()
                .map(|&cat| (cpi, cat.label(), c.cpi.get(cat))),
        );
    }
    let mut fe = s.front_end;
    out.extend(fe.counters_mut().map(|(key, v)| ("front_end", key, *v)));
    out.extend([
        ("", "skipped", s.skipped),
        ("", "ir_misps", s.ir_misps),
        ("", "value_hints", s.value_hints),
    ]);
    out
}

/// The `sample` rows must end at the `totals` row's cycle and sum to it,
/// counter by counter; the error names the first counter that differs.
fn check_totals(samples: &[IntervalSample], totals: &IntervalSample) -> Result<(), String> {
    let end = samples.last().map_or(0, |s| s.cycle);
    if end != totals.cycle {
        return Err(format!(
            "the sample rows end at cycle {end} but the totals row at cycle {}",
            totals.cycle
        ));
    }
    let want = row_counters(totals);
    // Checked sums: the counts are untrusted, so they may overflow.
    let mut sums = vec![Some(0u64); want.len()];
    for s in samples {
        for (sum, (.., v)) in sums.iter_mut().zip(row_counters(s)) {
            *sum = sum.and_then(|n| n.checked_add(v));
        }
    }
    for (sum, (prefix, key, total)) in sums.into_iter().zip(want) {
        if sum != Some(total) {
            let name = if prefix.is_empty() {
                key.to_string()
            } else {
                format!("{prefix}.{key}")
            };
            let sum = sum.map_or_else(|| "more than u64::MAX".to_string(), |n| n.to_string());
            return Err(format!(
                "the sample rows sum to {name} = {sum} but the totals row says {total}"
            ));
        }
    }
    Ok(())
}

/// The `binary` and `scheduler` of a run file without a manifest line.
const NO_MANIFEST: &str = "-";

/// Parses a run file back into a [`RunFile`] — the only reader of run
/// files. A `manifest` line is optional (shell-produced gate files have
/// none; the identity then stays at its [`NO_MANIFEST`] placeholders, and
/// the report prints no header for it) but at most one is allowed: one
/// file per run. Rows append in file order, so `to_jsonl` of the result
/// reproduces any file it wrote byte-for-byte. Malformed rows are an `Err`
/// naming the line, and so is a second `totals` row; sample rows that do
/// not sum to the `totals` row are an `Err` naming the first counter that
/// differs.
pub fn parse_jsonl(text: &str) -> Result<RunFile, String> {
    let mut snap = Snapshot {
        binary: NO_MANIFEST.to_string(),
        scheduler: NO_MANIFEST.to_string(),
        config_digest: "0000000000000000".to_string(),
        labels: Vec::new(),
        spans: Vec::new(),
    };
    let mut rec = FlightRecording::default();
    let mut saw_manifest = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", idx + 1);
        let val = json::parse(line).map_err(&fail)?;
        let ty = need_str(&val, "type").map_err(&fail)?;
        match ty.as_str() {
            "manifest" => {
                if saw_manifest {
                    return Err(fail("second manifest line (one run per file)".to_string()));
                }
                saw_manifest = true;
                snap.binary = need_str(&val, "binary").map_err(&fail)?;
                snap.scheduler = need_str(&val, "scheduler").map_err(&fail)?;
                snap.config_digest = need_str(&val, "config_digest").map_err(&fail)?;
                rec.dropped = need_u64(&val, "dropped").map_err(&fail)?;
                if let Some(labels) = val.get("labels") {
                    let labels = labels
                        .as_obj()
                        .ok_or_else(|| fail("labels is not an object".into()))?;
                    for (k, v) in labels {
                        let v = v.as_str().ok_or_else(|| fail("non-string label".into()))?;
                        snap.labels.push((k.clone(), v.to_string()));
                    }
                }
            }
            "span" => snap.spans.push(SpanRow {
                name: need_str(&val, "name").map_err(&fail)?,
                count: need_u64(&val, "count").map_err(&fail)?,
                total_nanos: need_u64(&val, "total_nanos").map_err(&fail)?,
            }),
            "event" => rec.events.push(read_event(&val).map_err(&fail)?),
            "sample" => rec.samples.push(read_sample(&val).map_err(&fail)?),
            "totals" => {
                if rec.totals.is_some() {
                    return Err(fail("second totals line (one run per file)".to_string()));
                }
                rec.totals = Some(read_sample(&val).map_err(&fail)?);
            }
            other => return Err(fail(format!("unknown line type {other:?}"))),
        }
    }
    if let Some(totals) = &rec.totals {
        check_totals(&rec.samples, totals)?;
    }
    Ok(RunFile {
        snapshot: snap,
        recording: rec,
    })
}

// ---- the run report ------------------------------------------------------
//
// Each scheduler has one set of *exclusive top-level* spans: spans that
// tile the measuring thread's run_total without overlapping (nested spans
// like serial-mode r_boundary_sync are excluded). "other" is the exact
// remainder, so the named rows plus "other" attribute 100% of run_total
// by construction — the report's job is to show how small "other" is.

/// Serial scheduler: the whole loop is one span (the boundary and
/// recovery spans nest inside it).
const SERIAL_SET: &[&str] = &["serial_exec"];

/// Windowed scheduler: single-threaded, so A- and R-side phases
/// interleave on one thread and are all top-level. The untimed serial
/// catch-up (`one_cycle`) lands in "other".
const WINDOWED_SET: &[&str] = &[
    "a_checkpoint",
    "a_window_exec",
    "r_window_consume",
    "r_boundary_sync",
    "r_recovery_build",
    "a_rollback_replay",
    "a_recover_apply",
];

/// Threaded scheduler: the windowed set minus `a_window_exec`, which runs
/// on the helper thread and overlaps `r_window_consume`. Everything else
/// runs on the calling thread, whose elapsed time is `run_total`.
const THREADED_SET: &[&str] = &[
    "a_checkpoint",
    "r_window_consume",
    "r_boundary_sync",
    "r_recovery_build",
    "a_rollback_replay",
    "a_recover_apply",
];

/// The exclusive top-level span set of `scheduler`'s measuring thread;
/// `None` for files with no scheduler span structure (`check.sh` gates).
pub fn exclusive_spans(scheduler: &str) -> Option<&'static [&'static str]> {
    match scheduler {
        "serial" => Some(SERIAL_SET),
        "windowed" => Some(WINDOWED_SET),
        "threaded" => Some(THREADED_SET),
        _ => None,
    }
}

/// Sums a span's `(count, total_nanos)` across same-named rows (files
/// from external producers may repeat a name).
fn span_sum(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, n), s| (c + s.count, n + s.total_nanos))
}

/// Nanoseconds as fixed-point milliseconds.
fn ms(nanos: u64) -> String {
    json::f64_fixed(nanos as f64 / 1e6, 3)
}

/// `part` as a percentage of `total`.
fn pct(part: u64, total: u64) -> String {
    json::f64_fixed(100.0 * part as f64 / total.max(1) as f64, 1)
}

/// Attribution rows `(name, count, nanos)` as shares of `total`, the name
/// column as wide as the longest name.
fn push_rows(out: &mut String, rows: &[(&str, Option<u64>, u64)], total: u64) {
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    for &(name, count, nanos) in rows {
        out.push_str(&format!(
            "    {name:<width$} {:>12} ms {:>6}%",
            ms(nanos),
            pct(nanos, total)
        ));
        if let Some(count) = count {
            out.push_str(&format!("  (count {count})"));
        }
        out.push('\n');
    }
}

/// The host wall-clock attribution section for one snapshot.
fn attribution_section(out: &mut String, snap: &Snapshot) {
    let (_, run_total) = span_sum(snap, "run_total");
    match (exclusive_spans(&snap.scheduler), run_total) {
        (Some(set), total) if total > 0 => {
            out.push_str(&format!(
                "  host wall-clock attribution (run_total = {} ms):\n",
                ms(total)
            ));
            let mut rows: Vec<(&str, Option<u64>, u64)> = set
                .iter()
                .map(|&name| (name, span_sum(snap, name)))
                .filter(|&(_, (count, _))| count > 0)
                .map(|(name, (count, nanos))| (name, Some(count), nanos))
                .collect();
            let named: u64 = rows.iter().map(|r| r.2).sum();
            let other = total.saturating_sub(named);
            rows.push(("other", None, other));
            push_rows(out, &rows, total);
            out.push_str(&format!(
                "    attributed: {}% named + {}% other = 100.0% of run_total\n",
                pct(named.min(total), total),
                pct(other, total)
            ));
        }
        _ => {
            // Files with no scheduler span structure (check.sh gates):
            // list everything, largest first, as a share of the span sum.
            let mut rows: Vec<_> = snap
                .spans
                .iter()
                .map(|s| (s.name.as_str(), Some(s.count), s.total_nanos))
                .collect();
            if rows.is_empty() {
                return;
            }
            rows.sort_by_key(|r| std::cmp::Reverse(r.2));
            let total: u64 = rows.iter().map(|r| r.2).sum();
            out.push_str(&format!(
                "  host wall-clock spans (sum = {} ms):\n",
                ms(total)
            ));
            push_rows(out, &rows, total);
        }
    }
}

/// The simulated CPI stack summed from a recording's `sample` rows, plus
/// the ratios over the span they cover.
fn sampled_cpi_section(out: &mut String, samples: &[IntervalSample]) {
    let Some(last) = samples.last() else {
        return;
    };
    let mut sum = IntervalSample {
        cycle: last.cycle,
        ..IntervalSample::default()
    };
    for s in samples {
        sum.a = sum.a.merge(&s.a);
        sum.r = sum.r.merge(&s.r);
        sum.skipped += s.skipped;
        sum.ir_misps += s.ir_misps;
    }
    out.push_str(&format!(
        "  simulated CPI stack ({} sample rows covering cycles 0..{}):\n",
        samples.len(),
        last.cycle
    ));
    out.push_str(&format!(
        "    {:<22} {:>12} {:>7} {:>12} {:>7}\n",
        "category", "A cycles", "%", "R cycles", "%"
    ));
    for cat in CpiCat::ALL {
        let (a, r) = (sum.a.cpi.get(cat), sum.r.cpi.get(cat));
        if a + r > 0 {
            out.push_str(&format!(
                "    {:<22} {a:>12} {:>6}% {r:>12} {:>6}%\n",
                cat.label(),
                pct(a, sum.a.cycles),
                pct(r, sum.r.cycles)
            ));
        }
    }
    out.push_str(&format!(
        "    ipc {}, removal rate {}, IR-mispredictions per 1k {}\n",
        json::f64_fixed(sum.ipc(), 3),
        json::f64_fixed(sum.removal_rate(), 3),
        json::f64_fixed(sum.ir_misp_per_kilo(), 3)
    ));
}

/// The human-readable run report, three sections per run file: host
/// wall-clock attribution; the simulated CPI stack, summed from the file's
/// `sample` rows; and the pipeview of the flight-recorder window when the
/// file has `event` rows. Each section is omitted when its rows are absent.
pub fn report_text(files: &[RunFile]) -> String {
    let mut out = String::new();
    out.push_str("slipstream run report\n");
    out.push_str("=====================\n\n");
    for file in files {
        let (snap, rec) = (&file.snapshot, &file.recording);
        if snap.binary != NO_MANIFEST {
            out.push_str(&format!(
                "== {} / {} ==  config {}\n",
                snap.binary, snap.scheduler, snap.config_digest
            ));
        }
        if !snap.labels.is_empty() {
            let labels: Vec<String> = snap
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("  labels: {}\n", labels.join(", ")));
        }
        attribution_section(&mut out, snap);
        sampled_cpi_section(&mut out, &rec.samples);
        if !rec.events.is_empty() {
            out.push_str(&format!(
                "  flight-recorder window ({} events held, {} dropped):\n",
                rec.events.len(),
                rec.dropped
            ));
            out.push_str(&pipeview_text(rec));
        }
        out.push('\n');
    }
    out.push_str(
        "(host spans measure where the simulator's wall-clock goes; the CPI stack\n \
         measures where the simulated machine's cycles go — different questions,\n \
         and the two attributions need not match.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_core::{EventKind, StreamId, NO_SEQ};
    use slipstream_telemetry::{RunManifest, SpanKind, Telemetry};

    fn sample_snapshot() -> Snapshot {
        let mut tel = Telemetry::new();
        tel.record_span(SpanKind::RunTotal, 1_000_000);
        tel.record_span(SpanKind::RWindowConsume, 600_000);
        tel.record_span(SpanKind::ACheckpoint, 100_000);
        tel.record_span(SpanKind::RBoundarySync, 50_000);
        let m = RunManifest::new("throughput", "threaded", "cfg-debug").label("scale", "0.2");
        tel.snapshot(&m)
    }

    /// A traced run: span rows, two events, and one interval sample whose
    /// stacks sum to 10 cycles per core.
    fn sample_run() -> RunFile {
        let core = |retired, fired: Option<u64>| {
            let mut c = CoreStats {
                cycles: 10,
                retired,
                fault_fired_cycle: fired,
                fault_fired_seq: fired.map(|c| c + 1),
                ..CoreStats::default()
            };
            c.cpi.set(CpiCat::Base, 7);
            c.cpi.set(CpiCat::DelayEmpty, 3);
            c
        };
        let event = |cycle, stream, kind, seq| TraceEvent {
            cycle,
            seq,
            pc: 0x1000,
            arg: 2,
            stream,
            kind,
        };
        RunFile {
            snapshot: sample_snapshot(),
            recording: FlightRecording {
                events: vec![
                    event(3, StreamId::AStream, EventKind::Dispatch, 0),
                    event(9, StreamId::Machine, EventKind::FaultDetected, NO_SEQ),
                ],
                samples: vec![IntervalSample {
                    cycle: 10,
                    a: core(6, Some(4)),
                    r: core(8, None),
                    front_end: FrontEndStats {
                        traces_committed: 2,
                        ..FrontEndStats::default()
                    },
                    skipped: 2,
                    ir_misps: 1,
                    value_hints: 3,
                    delay_occupancy: 5,
                }],
                totals: None,
                dropped: 17,
            },
        }
    }

    #[test]
    fn jsonl_round_trips_byte_identically_and_every_line_validates() {
        let run = sample_run();
        let text = to_jsonl(&run);
        for line in text.lines() {
            json::validate(line).unwrap_or_else(|e| panic!("invalid line {line:?}: {e}"));
        }
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.snapshot, run.snapshot);
        assert_eq!(parsed.recording.events, run.recording.events);
        assert_eq!(parsed.recording.samples, run.recording.samples);
        assert_eq!(parsed.recording.dropped, 17);
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parses_shell_produced_gate_lines_without_manifest() {
        let text = "{\"type\": \"span\", \"name\": \"gate:fmt\", \"count\": 1, \
                    \"total_nanos\": 123456789}\n";
        let run = parse_jsonl(text).unwrap();
        let snap = &run.snapshot;
        assert_eq!(snap.binary, "-");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "gate:fmt");
        // And it re-renders in the exact shape the shell wrote.
        assert_eq!(
            to_jsonl(&run).lines().nth(1).unwrap().to_string() + "\n",
            text
        );
        assert!(parse_jsonl("{\"type\": \"mystery\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
    }

    #[test]
    fn malformed_rows_are_errors_naming_the_line() {
        let err = |text: &str| parse_jsonl(text).expect_err(text);
        let span = |count: &str| {
            format!(
                "\n{{\"type\": \"span\", \"name\": \"s\", \"count\": {count}, \
                 \"total_nanos\": 9}}\n"
            )
        };
        assert!(parse_jsonl(&span("2")).is_ok());
        let e = err(&span("-2"));
        assert!(e.starts_with("line 2:") && e.contains("\"count\""), "{e}");

        // Run files hold span, event and sample rows only.
        for (ty, rest) in [
            ("counter", "\"value\": 96"),
            ("gauge", "\"value\": 3"),
            ("hist", "\"count\": 1, \"sum\": 5, \"max\": 5"),
        ] {
            let e = err(&format!(
                "\n{{\"type\": \"{ty}\", \"name\": \"x\", {rest}}}"
            ));
            assert!(
                e.starts_with("line 2: unknown line type") && e.contains(ty),
                "{e}"
            );
        }

        let event = "{\"type\": \"event\", \"cycle\": 3, \"stream\": \"A\", \
                     \"kind\": \"dispatch\", \"seq\": 0, \"pc\": 4096, \"arg\": 0}";
        assert!(parse_jsonl(event).is_ok());
        for (bad, want) in [
            (event.replace("dispatch", "teleport"), "unknown event kind"),
            (event.replace("\"A\"", "\"Q\""), "unknown stream"),
            (event.replace(", \"arg\": 0", ""), "\"arg\""),
            (event.replace("\"seq\": 0", "\"seq\": -1"), "\"seq\""),
        ] {
            let e = err(&format!("\n\n{bad}"));
            assert!(e.starts_with("line 3:") && e.contains(want), "{e}");
        }

        let text = to_jsonl(&sample_run());
        let sample = text.lines().last().unwrap();
        assert!(sample.starts_with("{\"type\": \"sample\""));
        let e = err(&sample.replacen("\"cycles\": 10", "\"cycles\": 11", 1));
        assert!(e.starts_with("line 1: a: CPI stack sums to 10"), "{e}");
        let e = err(&sample.replace("\"delay_empty\": 3", "\"delay_empty\": 4"));
        assert!(e.contains("CPI stack sums to 11 but cycles is 10"), "{e}");
        let e = err(&sample.replace(
            "\"delay_empty\": 3",
            "\"delay_empty\": 18446744073709551615",
        ));
        assert!(e.contains("CPI stack sums to more than u64::MAX"), "{e}");
        assert!(err(&sample.replace(", \"ir_misps\": 1", "")).contains("ir_misps"));
        let e = err(&text.replacen(", \"dropped\": 17", "", 1));
        assert!(e.starts_with("line 1:") && e.contains("dropped"), "{e}");
        // Labels that are not an object are an error, not an empty set.
        let manifest = text.lines().next().unwrap();
        for labels in ["[]", "\"scale=0.2\"", "7"] {
            let bad = manifest.replace("{\"scale\": \"0.2\"}", labels);
            let e = err(&format!("\n{bad}"));
            assert!(e.starts_with("line 2: labels is not an object"), "{e}");
        }
        let e = err(&manifest.replace("\"0.2\"", "0.2"));
        assert!(e.starts_with("line 1: non-string label"), "{e}");
    }

    #[test]
    fn sample_rows_must_sum_to_the_totals_row() {
        let mut run = sample_run();
        let row = run.recording.samples[0];
        let second = IntervalSample { cycle: 20, ..row };
        let totals = IntervalSample {
            cycle: 20,
            a: row.a.merge(&row.a),
            r: row.r.merge(&row.r),
            front_end: row
                .front_end
                .zip_counters(&row.front_end, u64::wrapping_add),
            skipped: 4,
            ir_misps: 2,
            value_hints: 6,
            delay_occupancy: 5,
        };
        run.recording.samples.push(second);
        run.recording.totals = Some(totals);
        let text = to_jsonl(&run);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"type\": \"totals\""));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.recording.totals, Some(totals));
        assert_eq!(to_jsonl(&parsed), text);

        let err = |totals: IntervalSample, samples: &[IntervalSample]| {
            let mut bad = run.clone();
            bad.recording.samples = samples.to_vec();
            bad.recording.totals = Some(totals);
            parse_jsonl(&to_jsonl(&bad)).expect_err("sums differ")
        };
        let mut r = totals;
        r.r.retired += 1;
        assert_eq!(
            err(r, &[row, second]),
            "the sample rows sum to r.retired = 16 but the totals row says 17"
        );
        let mut cpi = totals;
        cpi.a.cpi.set(CpiCat::Base, 13);
        cpi.a.cpi.set(CpiCat::DelayEmpty, 7);
        assert_eq!(
            err(cpi, &[row, second]),
            "the sample rows sum to a.cpi.base = 14 but the totals row says 13"
        );
        let hints = IntervalSample {
            value_hints: 7,
            ..totals
        };
        assert!(err(hints, &[row, second]).contains("value_hints = 6 but"));
        // A dropped row: the rows end early.
        let e = err(totals, &[second]);
        assert!(
            e.contains("sum to a.cycles = 10 but the totals row says 20"),
            "{e}"
        );
        let e = err(totals, &[row]);
        assert!(
            e.contains("end at cycle 10 but the totals row at cycle 20"),
            "{e}"
        );
        let e = parse_jsonl(&(text.clone() + text.lines().last().unwrap())).unwrap_err();
        assert!(e.contains("second totals line"), "{e}");
    }

    #[test]
    fn report_attributes_all_of_run_total() {
        let report = report_text(&[sample_snapshot().into()]);
        assert!(report.contains("run_total = 1.000 ms"));
        assert!(report.contains("r_window_consume"));
        assert!(report.contains("a_checkpoint"));
        // 600k + 100k + 50k named of 1M total -> 25% other.
        assert!(
            report.contains("75.0% named + 25.0% other = 100.0%"),
            "{report}"
        );
    }

    #[test]
    fn gate_log_report_aligns_long_names_and_has_no_placeholder_header() {
        let long = format!("gate:{}", "x".repeat(55));
        let text = format!(
            "{{\"type\": \"span\", \"name\": \"{long}\", \"count\": 1, \"total_nanos\": 3000000}}\n\
             {{\"type\": \"span\", \"name\": \"gate:fmt\", \"count\": 1, \"total_nanos\": 1000000}}\n"
        );
        let report = report_text(&[parse_jsonl(&text).unwrap()]);
        assert!(!report.lines().any(|l| l.starts_with("== ")), "{report}");
        assert!(!report.contains("config"), "{report}");
        let rows: Vec<&str> = report.lines().filter(|l| l.contains(" ms ")).collect();
        assert_eq!(rows.len(), 2, "{report}");
        assert!(rows[0].contains(&long) && rows[1].contains("gate:fmt"));
        for col in [" ms ", "%", "(count"] {
            assert_eq!(
                rows[0].find(col),
                rows[1].find(col),
                "{col:?} column in\n{report}"
            );
        }
    }

    #[test]
    fn report_takes_the_cpi_stack_from_sample_rows_only() {
        let host_only = report_text(&[sample_snapshot().into()]);
        assert!(!host_only.contains("simulated CPI stack"), "{host_only}");
        assert!(!host_only.contains("flight-recorder window"));

        let traced = report_text(&[sample_run()]);
        assert!(traced.contains("1 sample rows covering cycles 0..10"));
        assert!(traced.contains("delay_empty"));
        assert!(traced.contains("30.0%"), "{traced}");
        assert!(traced.contains("ipc 0.800, removal rate 0.250"), "{traced}");
        assert!(traced.contains("flight-recorder window (2 events held, 17 dropped)"));
        assert!(traced.contains("fault-detected"));
    }
}
