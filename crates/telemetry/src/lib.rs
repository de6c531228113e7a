//! Host-side telemetry for the slipstream simulator: where does the
//! *simulator's own* wall-clock go?
//!
//! The flight recorder and interval samples make simulated time
//! observable; this crate turns the same lens on the host, timing the
//! slipstream schedulers' phases and nothing else. It provides:
//!
//! - [`Telemetry`] — a registry of span timers (count + total
//!   nanoseconds per [`SpanKind`]).
//!   Every field is a plain `u64` — no atomics, no locks, no allocation
//!   after construction — because each side of the machine owns its own
//!   instance (one thread records into it at a time) and registries are
//!   combined after the run.
//! - [`Telemetry::merge`] — commutative, associative summation, so the
//!   aggregate of several registries is independent of merge order.
//! - [`Telemetry::record_span`] — records one timed span entry; call sites
//!   time their own phases.
//! - [`RunManifest`] + [`Snapshot`] — a run's identity (binary, scheduler,
//!   FNV-1a config digest, free-form labels) married to a
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
    /// belongs to. Every span is recorded on the calling thread except
    /// `a_window_exec` in the threaded scheduler, which runs on its helper
    /// thread and overlaps `r_window_consume`.
    SpanKind {
        /// Whole `run_mode` call, recorded on the R (calling) side.
        RunTotal => "run_total",
        /// Serial scheduler: the entire lockstep loop (one span per run;
        /// the serial loop is not decomposed further).
        SerialExec => "serial_exec",
        /// A side: executing one window's burst of cycles.
        AWindowExec => "a_window_exec",
        /// A side: taking the window boundary checkpoint.
        ACheckpoint => "a_checkpoint",
        /// A side: rollback to the window checkpoint + deterministic replay.
        ARollbackReplay => "a_rollback_replay",
        /// A side of a recovery: the boundary hand-off, then the A-stream
        /// context repaired from the R-core (memory repairs, register
        /// copy, restart, penalties).
        ARecoverApply => "a_recover_apply",
        /// R side: consuming one window's batches (in the threaded
        /// scheduler, including waits for the helper thread's batches).
        RWindowConsume => "r_window_consume",
        /// R side: the window boundary sync (training hand-off, L2 merge,
        /// credit snapshot).
        RBoundarySync => "r_boundary_sync",
        /// R side of a recovery: logging the misprediction, charging its
        /// latency, and flushing and restarting the R-core.
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
}

/// A span registry (see the crate docs). Construct one per side of the
/// machine, record into it without synchronization, and
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
            })
            .collect();
        Snapshot {
            binary: manifest.binary.clone(),
            scheduler: manifest.scheduler.clone(),
            config_digest: format!("{:016x}", manifest.config_digest),
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
            labels: Vec::new(),
        }
    }

    /// Adds a free-form label.
    pub fn label(mut self, key: &str, value: impl std::fmt::Display) -> RunManifest {
        self.labels.push((key.to_string(), value.to_string()));
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
    /// Free-form labels.
    pub labels: Vec<(String, String)>,
    /// Span rows, in export order.
    pub spans: Vec<SpanRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
