use slipstream_cpu::{CoreConfig, L2Config};
use slipstream_predict::TracePredictorConfig;

/// Which classes of computation the IR-detector may select for removal.
///
/// The paper's Figure 8 evaluates two policies: everything (branches +
/// ineffectual writes, the default) and *branches only* (its lower graph),
/// because branch predictability is an algorithm property while
/// ineffectual writes are partly a compiler artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemovalPolicy {
    /// Remove consistently-predictable branch instructions (BR) and their
    /// computation chains (P:BR).
    pub branches: bool,
    /// Remove unreferenced writes — dynamic dead code (WW) and chains
    /// (P:WW).
    pub dead_writes: bool,
    /// Remove non-modifying (silent) writes (SV) and chains (P:SV).
    pub silent_writes: bool,
}

impl RemovalPolicy {
    /// The paper's default: remove everything removable.
    pub const fn all() -> RemovalPolicy {
        RemovalPolicy {
            branches: true,
            dead_writes: true,
            silent_writes: true,
        }
    }

    /// Figure 8 (bottom): branches and their chains only.
    pub fn branches_only() -> RemovalPolicy {
        RemovalPolicy {
            branches: true,
            dead_writes: false,
            silent_writes: false,
        }
    }

    /// No removal at all: the A-stream runs the full program. This is the
    /// AR-SMT operating mode (pure fault tolerance; the R-stream still
    /// receives all outcomes as predictions).
    pub fn none() -> RemovalPolicy {
        RemovalPolicy {
            branches: false,
            dead_writes: false,
            silent_writes: false,
        }
    }

    /// Whether any removal class is enabled.
    pub fn any(&self) -> bool {
        self.branches || self.dead_writes || self.silent_writes
    }
}

impl Default for RemovalPolicy {
    fn default() -> Self {
        RemovalPolicy::all()
    }
}

/// Full slipstream processor configuration (paper Table 2, slipstream
/// components section).
#[derive(Debug, Clone)]
pub struct SlipstreamConfig {
    /// Per-core configuration (both CMP cores are identical).
    pub core: CoreConfig,
    /// Trace predictor geometry (shared IR-predictor/trace predictor).
    pub trace_pred: TracePredictorConfig,
    /// Resetting-counter confidence threshold before a trace's
    /// instruction-removal is acted on. Paper: 32.
    pub confidence_threshold: u32,
    /// IR-detector analysis scope in completed traces. Paper: 8 traces
    /// (256 instructions).
    pub detector_scope: usize,
    /// Maximum IR-predictor entries (the paper uses a large predictor; we
    /// bound the removal table at this many distinct trace ids).
    pub ir_table_capacity: usize,
    /// Delay-buffer data capacity in executed-instruction entries.
    /// Paper: 256.
    pub delay_data_entries: usize,
    /// Delay-buffer control capacity in {trace-id, ir-vec} pairs.
    /// Paper: 128.
    pub delay_control_entries: usize,
    /// Cycles to start the recovery pipeline after an IR-misprediction is
    /// detected. Paper: 5.
    pub recovery_startup: u64,
    /// Register/memory restores per cycle during recovery. Paper: 4.
    pub restores_per_cycle: u64,
    /// What the IR-detector may remove.
    pub removal: RemovalPolicy,
    /// Slack-window synchronization quantum in cycles: all schedulers
    /// apply deferred learning and refresh delay-buffer credits at
    /// boundaries this many cycles apart, and the windowed/threaded
    /// schedulers advance the A-core a whole window per burst. `0` is
    /// treated as `1`. For a *given* quantum the serial, windowed, and
    /// threaded schedulers are byte-identical; the quantum itself is an
    /// architectural parameter (it sets the training-visibility latency,
    /// like any pipeline depth).
    pub sync_quantum: usize,
    /// Shared L2 + bandwidth-limited memory port behind both cores'
    /// private L1s. `None` (the historical model) backs every L1 miss with
    /// its flat `miss_penalty` and zero contention. Cross-core contention
    /// is accounted deterministically at sync-boundary granularity (see
    /// `slipstream_cpu::L2View`), so all three schedulers stay
    /// byte-identical.
    pub l2: Option<L2Config>,
}

impl SlipstreamConfig {
    /// The paper's CMP(2x64x4) slipstream processor.
    pub fn cmp_2x64x4() -> SlipstreamConfig {
        SlipstreamConfig {
            core: CoreConfig::ss_64x4(),
            trace_pred: TracePredictorConfig::default(),
            confidence_threshold: 32,
            detector_scope: 8,
            ir_table_capacity: 1 << 16,
            delay_data_entries: 256,
            delay_control_entries: 128,
            recovery_startup: 5,
            restores_per_cycle: 4,
            removal: RemovalPolicy::all(),
            sync_quantum: 64,
            l2: None,
        }
    }

    /// CMP(2x64x4) with the shared memory system modeled: a unified
    /// 512 KB 8-way L2 and a 4-fill memory port behind both cores' L1s,
    /// so the A- and R-stream compete for (and constructively share)
    /// outer-level bandwidth instead of each enjoying a private magic
    /// memory. The L2 hit latency equals the old flat L1 miss penalty, so
    /// an L2-resident working set behaves like the `cmp_2x64x4` model;
    /// L2-missing traffic now pays a real memory latency and queues on
    /// the port.
    pub fn cmp_shared_l2() -> SlipstreamConfig {
        SlipstreamConfig {
            l2: Some(L2Config::l2_512k_8w()),
            ..SlipstreamConfig::cmp_2x64x4()
        }
    }

    /// Minimum recovery latency in cycles, with no memory to restore (the
    /// paper's "minimum latency (no memory) = 21 cycles").
    pub fn min_recovery_latency(&self) -> u64 {
        self.recovery_latency(0)
    }

    /// Recovery latency in cycles when `mem_restores` memory locations must
    /// be copied, per the paper's recovery pipeline: startup, then all 64
    /// registers and the memory locations at `restores_per_cycle` per
    /// cycle. The schedulers impose it via `Core::stall_fetch_recovery`, so
    /// the CPI stack attributes every one of these cycles to its `recovery`
    /// bucket (not the generic external-stall bucket).
    pub fn recovery_latency(&self, mem_restores: u64) -> u64 {
        self.recovery_startup
            + (slipstream_isa::NUM_REGS as u64).div_ceil(self.restores_per_cycle)
            + mem_restores.div_ceil(self.restores_per_cycle)
    }
}

impl Default for SlipstreamConfig {
    fn default() -> Self {
        SlipstreamConfig::cmp_2x64x4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_minimum_recovery_latency_is_21_cycles() {
        let cfg = SlipstreamConfig::cmp_2x64x4();
        assert_eq!(cfg.min_recovery_latency(), 21); // 5 + 64/4
        assert_eq!(cfg.recovery_latency(0), 21);
        assert_eq!(cfg.recovery_latency(1), 22);
        assert_eq!(cfg.recovery_latency(8), 23);
    }

    #[test]
    fn paper_component_sizes() {
        let cfg = SlipstreamConfig::cmp_2x64x4();
        assert_eq!(cfg.confidence_threshold, 32);
        assert_eq!(cfg.detector_scope, 8);
        assert_eq!(cfg.delay_data_entries, 256);
        assert_eq!(cfg.delay_control_entries, 128);
    }

    #[test]
    fn removal_policies() {
        assert!(RemovalPolicy::all().any());
        assert!(RemovalPolicy::branches_only().any());
        assert!(!RemovalPolicy::branches_only().dead_writes);
        assert!(!RemovalPolicy::none().any());
    }
}
