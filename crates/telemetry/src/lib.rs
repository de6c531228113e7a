//! Host-side telemetry for the slipstream simulator: where does the
//! *simulator's own* wall-clock go?
//!
//! The flight recorder and interval samples make simulated time
//! observable; this crate turns the same lens on the host, timing the
//! slipstream schedulers' phases and nothing else. It provides:
//!
//! - [`Telemetry`] — a per-thread registry of span timers (count + total
//!   nanoseconds + a log2-bucketed duration histogram per [`SpanKind`]).
//!   Every field is a plain `u64` — no atomics, no locks, no allocation
//!   after construction — because each scheduler thread owns its own
//!   instance and registries are combined after the run.
//! - [`Telemetry::merge`] — commutative, associative summation, so the
//!   aggregate of several registries is independent of merge order.
//! - [`Telemetry::record_span`] — records one timed span entry; call sites
//!   time their own phases, so accumulate-and-subtract spans (window
//!   execution minus in-window ring waits) need no special support.
//! - [`RunManifest`] + [`Snapshot`] — a run's identity (binary, scheduler,
//!   FNV-1a config digest, host-speed calibration anchor) married to a
//!   *dynamic* named-span view that can carry rows [`SpanKind`] doesn't
//!   know (e.g. `gate:*` spans appended by `scripts/check.sh`). Snapshots
//!   are written as the span rows of a run file, whose writer and only
//!   reader live in the bench crate's `telemetry_export` module.
//!
//! Cost discipline: the simulator's schedulers hold `Option<Box<Telemetry>>`
//! and every instrumentation point is gated on it — telemetry off means no
//! `Instant::now()` calls and no allocations, checked by the bench crate's
//! `telemetry_alloc_gate` test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of log2 buckets: bucket `i` counts values in `[2^(i-1), 2^i)`
/// (bucket 0 counts zero), which spans the full `u64` range.
pub const LOG2_BUCKETS: usize = 64;

/// The log2 bucket index of `v` (0 for 0, else `64 - leading_zeros`,
/// clamped to the last bucket).
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

/// A log2-bucketed histogram of `u64` values (span durations in
/// nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    /// Count per log2 bucket (see [`log2_bucket`]).
    pub buckets: [u64; LOG2_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Maximum recorded value (0 when empty).
    pub max: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHist {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Sums `other` into `self` (commutative; `max` merges by max).
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs, ascending.
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }
}

macro_rules! kinds {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= export) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $name::ALL.len();

            /// The stable export name of this kind.
            pub fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }

            /// Index into a `[_; COUNT]` array.
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

kinds! {
    /// Named wall-clock spans around the slipstream schedulers' phases.
    /// The `A`/`R` prefixes name the *logical side* of the machine a span
    /// belongs to (in the threaded scheduler they run on different OS
    /// threads, so per-side sums can be compared against the run total
    /// independently).
    SpanKind {
        /// Whole `run_mode` call, recorded on the R (calling) side.
        RunTotal => "run_total",
        /// Serial scheduler: the entire lockstep loop (one span per run;
        /// the serial loop is not decomposed further).
        SerialExec => "serial_exec",
        /// A side: executing one window's burst of cycles (net of ring
        /// push waits in the threaded scheduler).
        AWindowExec => "a_window_exec",
        /// A thread: blocked pushing a batch into the full SPSC ring.
        ARingPushWait => "a_ring_push_wait",
        /// A side: taking the window boundary checkpoint.
        ACheckpoint => "a_checkpoint",
        /// A side: rollback to the window checkpoint + deterministic replay.
        ARollbackReplay => "a_rollback_replay",
        /// A side: applying a boundary report (training + credit refresh).
        ABoundaryApply => "a_boundary_apply",
        /// A side: applying a recovery command.
        ARecoverApply => "a_recover_apply",
        /// R side: consuming one window's batches (net of ring pop waits
        /// and recovery building).
        RWindowConsume => "r_window_consume",
        /// R thread: blocked popping from the empty SPSC ring.
        RRingPopWait => "r_ring_pop_wait",
        /// R side: the window boundary sync (training hand-off, L2 merge,
        /// credit snapshot).
        RBoundarySync => "r_boundary_sync",
        /// R side: building a recovery command (repair list, flush).
        RRecoveryBuild => "r_recovery_build",
    }
}

/// One span's accumulated statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_nanos: u64,
    /// Log2 histogram of per-entry durations (nanoseconds).
    pub hist: LogHist,
}

/// A per-thread span registry (see the crate docs). Construct one per
/// owning thread, record into it without synchronization, and
/// [`merge`](Telemetry::merge) after the run.
#[derive(Debug, Clone)]
pub struct Telemetry {
    spans: Vec<SpanStat>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Telemetry {
        Telemetry {
            spans: vec![SpanStat::default(); SpanKind::COUNT],
        }
    }

    /// Records one completed span entry of `nanos` duration.
    pub fn record_span(&mut self, kind: SpanKind, nanos: u64) {
        let s = &mut self.spans[kind.index()];
        s.count += 1;
        s.total_nanos += nanos;
        s.hist.record(nanos);
    }

    /// A span's accumulated statistics.
    pub fn span(&self, kind: SpanKind) -> &SpanStat {
        &self.spans[kind.index()]
    }

    /// Sums `other` into `self`. Merging is commutative and associative,
    /// so any merge order over any partitioning of the work yields the
    /// same registry.
    pub fn merge(&mut self, other: &Telemetry) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.count += b.count;
            a.total_nanos += b.total_nanos;
            a.hist.merge(&b.hist);
        }
    }

    /// The registry as a dynamic named-row [`Snapshot`] under `manifest`'s
    /// identity. Zero-count spans are skipped.
    pub fn snapshot(&self, manifest: &RunManifest) -> Snapshot {
        let spans = SpanKind::ALL
            .iter()
            .map(|&k| (k, self.span(k)))
            .filter(|(_, s)| s.count > 0)
            .map(|(k, s)| SpanRow {
                name: k.label().to_string(),
                count: s.count,
                total_nanos: s.total_nanos,
                buckets: s.hist.sparse(),
            })
            .collect();
        Snapshot {
            binary: manifest.binary.clone(),
            scheduler: manifest.scheduler.clone(),
            config_digest: format!("{:016x}", manifest.config_digest),
            calibration_instrs_per_sec: manifest.calibration_instrs_per_sec,
            labels: manifest.labels.clone(),
            spans,
        }
    }
}

/// FNV-1a hash of `bytes` (the vendored 64-bit variant the campaign's
/// site-stream seeding already uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A run's identity, attached to every export so merged telemetry is
/// traceable to what produced it.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Producing binary (`throughput`, `fault_campaign`, ...).
    pub binary: String,
    /// Scheduler/model the run used (`serial`, `windowed`, `threaded`,
    /// or a harness-level label like `campaign`).
    pub scheduler: String,
    /// FNV-1a digest of the run's configuration (`Debug`-rendered), so
    /// two exports are only comparable when their digests match.
    pub config_digest: u64,
    /// Host-speed anchor: the throughput calibration row's instrs/s on
    /// this machine (`None` when no calibration is available).
    pub calibration_instrs_per_sec: Option<f64>,
    /// Free-form extra labels (scale, workers, ...).
    pub labels: Vec<(String, String)>,
}

impl RunManifest {
    /// A manifest with the config digest computed from a `Debug` rendering.
    pub fn new(binary: &str, scheduler: &str, config_debug: &str) -> RunManifest {
        RunManifest {
            binary: binary.to_string(),
            scheduler: scheduler.to_string(),
            config_digest: fnv1a(config_debug.as_bytes()),
            calibration_instrs_per_sec: None,
            labels: Vec::new(),
        }
    }

    /// Adds a free-form label.
    pub fn label(mut self, key: &str, value: impl std::fmt::Display) -> RunManifest {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    /// Sets the calibration anchor.
    pub fn calibration(mut self, instrs_per_sec: Option<f64>) -> RunManifest {
        self.calibration_instrs_per_sec = instrs_per_sec;
        self
    }
}

/// One span row of a [`Snapshot`] (dynamic name — may be a [`SpanKind`]
/// label or an external row like `gate:fmt`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Span name.
    pub name: String,
    /// Times entered.
    pub count: u64,
    /// Total nanoseconds.
    pub total_nanos: u64,
    /// Sparse log2 duration histogram (`(bucket, count)`, ascending).
    pub buckets: Vec<(u32, u64)>,
}

/// A manifest plus dynamic named span rows: the host part of a run file.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Producing binary.
    pub binary: String,
    /// Scheduler/model label.
    pub scheduler: String,
    /// Config digest as 16 hex digits.
    pub config_digest: String,
    /// Host-speed calibration anchor (instrs/s), when known.
    pub calibration_instrs_per_sec: Option<f64>,
    /// Free-form labels.
    pub labels: Vec<(String, String)>,
    /// Span rows, in export order.
    pub spans: Vec<SpanRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_edges() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 63);
    }

    #[test]
    fn merge_is_commutative_and_partition_independent() {
        let record = |tel: &mut Telemetry, vs: &[u64]| {
            for &v in vs {
                tel.record_span(SpanKind::AWindowExec, v);
                tel.record_span(SpanKind::RWindowConsume, v / 2);
            }
        };
        // One registry records all the spans...
        let mut all = Telemetry::new();
        record(&mut all, &[3, 700, 19, 0, 1 << 40]);
        // ...vs three registries splitting them, merged in a different order.
        let (mut w1, mut w2, mut w3) = (Telemetry::new(), Telemetry::new(), Telemetry::new());
        record(&mut w1, &[700]);
        record(&mut w2, &[19, 3]);
        record(&mut w3, &[1 << 40, 0]);
        let mut merged = Telemetry::new();
        merged.merge(&w3);
        merged.merge(&w1);
        merged.merge(&w2);
        for kind in SpanKind::ALL {
            assert_eq!(merged.span(*kind), all.span(*kind), "{}", kind.label());
        }
    }

    #[test]
    fn snapshot_skips_empty_rows() {
        let mut tel = Telemetry::new();
        tel.record_span(SpanKind::RunTotal, 100);
        let snap = tel.snapshot(&RunManifest::new("t", "windowed", "cfg"));
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "run_total");
        assert_eq!(snap.spans[0].total_nanos, 100);
    }
}
