use slipstream_isa::FastHashMap;
use slipstream_predict::{ResettingCounter, TraceId};

use crate::removal::Reason;

/// Per-slot removal information for one trace, as produced by the
/// IR-detector and stored in the IR-predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemovalInfo {
    /// Bit `i` set = remove the trace's `i`-th instruction.
    pub ir_vec: u32,
    /// Why each slot is removable ([`Reason::NONE`] for kept slots).
    pub reasons: [Reason; 32],
}

impl RemovalInfo {
    /// Removal info that removes nothing.
    pub fn empty() -> RemovalInfo {
        RemovalInfo {
            ir_vec: 0,
            reasons: [Reason::NONE; 32],
        }
    }

    /// Number of removed slots.
    pub fn removed_count(&self) -> u32 {
        self.ir_vec.count_ones()
    }

    /// Whether slot `i` is removed.
    pub fn removes(&self, i: usize) -> bool {
        (self.ir_vec >> i) & 1 == 1
    }
}

/// The instruction-removal half of the IR-predictor: per trace-table
/// entry, the latest `{trace-id, ir-vec}` pair plus a resetting confidence
/// counter (paper §2.1.1).
///
/// The paper stores this information in the trace predictor's own table
/// entries, which are indexed by a hash of the **path history**. We key a
/// separate bounded map by the same kind of context hash
/// ([`slipstream_predict::PathHistory::context_hash`]), which reproduces
/// both properties the paper's results depend on:
///
/// - one entry holds one `{trace-id, ir-vec}` pair at a time, so a trace
///   whose embedded branches keep changing outcome under the *same*
///   context ("unstable traces", §2.1.3) keeps resetting its confidence
///   and is never reduced — confidence dilution;
/// - outcome variants reached under *different* contexts (e.g. loop-exit
///   versus loop-back traces) occupy different entries and build
///   confidence independently.
///
/// Intermediate PCs are not stored — they are recomputed from the program
/// text when a removal is applied, which is information-equivalent since
/// the ir-vec and trace id determine them.
#[derive(Debug, Clone)]
pub struct IrTable {
    entries: FastHashMap<u64, IrEntry>,
    capacity: usize,
    threshold: u32,
}

#[derive(Debug, Clone)]
struct IrEntry {
    id: TraceId,
    info: RemovalInfo,
    confidence: ResettingCounter,
}

impl IrTable {
    /// Creates a table holding at most `capacity` trace entries, asserting
    /// removal only after `threshold` consecutive identical observations.
    pub fn new(capacity: usize, threshold: u32) -> IrTable {
        IrTable {
            entries: FastHashMap::default(),
            capacity,
            threshold,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a newly computed `{trace-id, ir-vec}` pair from the
    /// IR-detector into the entry at `key` (the path-context hash at the
    /// trace's position). The pair must match the entry's previous pair —
    /// same trace id *and* same ir-vec — to build confidence; any
    /// difference resets the counter and installs the new pair (the
    /// paper's resetting-counter update rule).
    pub fn observe(&mut self, key: u64, id: TraceId, info: RemovalInfo) {
        if let Some(e) = self.entries.get_mut(&key) {
            if e.id == id && e.info.ir_vec == info.ir_vec {
                e.info.reasons = info.reasons; // keep freshest reason detail
                e.confidence.hit();
            } else {
                e.id = id;
                e.info = info;
                e.confidence.miss();
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            // Table full: displace an arbitrary victim (models aliasing in
            // a finite predictor).
            if let Some(&victim) = self.entries.keys().next() {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            IrEntry {
                id,
                info,
                confidence: ResettingCounter::new(self.threshold),
            },
        );
    }

    /// Removal information for `id` looked up under context `key`, if the
    /// entry currently holds exactly this trace id, confidence has been
    /// established, and there is anything to remove.
    pub fn removal_for(&self, key: u64, id: &TraceId) -> Option<RemovalInfo> {
        let e = self.entries.get(&key)?;
        (e.id == *id && e.confidence.confident() && e.info.ir_vec != 0).then_some(e.info)
    }

    /// Resets confidence for the entry at `key` — used during
    /// IR-misprediction recovery so a bad removal cannot immediately
    /// re-apply (forward-progress guarantee).
    pub fn penalize(&mut self, key: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.confidence.miss();
        }
    }

    /// Current confidence value for the entry at `key`
    /// (testing/diagnostics).
    pub fn confidence_of(&self, key: u64) -> Option<u32> {
        self.entries.get(&key).map(|e| e.confidence.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(pc: u64) -> TraceId {
        TraceId {
            start_pc: pc,
            outcomes: 0,
            branch_count: 0,
            len: 8,
        }
    }

    fn info(vec: u32) -> RemovalInfo {
        let mut reasons = [Reason::NONE; 32];
        for (i, r) in reasons.iter_mut().enumerate() {
            if (vec >> i) & 1 == 1 {
                *r = Reason::BR;
            }
        }
        RemovalInfo {
            ir_vec: vec,
            reasons,
        }
    }

    #[test]
    fn confidence_builds_then_asserts() {
        let mut t = IrTable::new(16, 3);
        let id = tid(0x1000);
        t.observe(id.start_pc, id, info(0b101));
        assert_eq!(
            t.removal_for(id.start_pc, &id),
            None,
            "first observation installs, no confidence"
        );
        t.observe(id.start_pc, id, info(0b101));
        t.observe(id.start_pc, id, info(0b101));
        assert_eq!(
            t.removal_for(id.start_pc, &id),
            None,
            "threshold 3 needs 3 matching *re*-observations"
        );
        t.observe(id.start_pc, id, info(0b101));
        let r = t.removal_for(id.start_pc, &id).expect("confident now");
        assert_eq!(r.ir_vec, 0b101);
        assert_eq!(r.removed_count(), 2);
        assert!(r.removes(0) && r.removes(2) && !r.removes(1));
    }

    #[test]
    fn differing_vec_resets_confidence() {
        let mut t = IrTable::new(16, 2);
        let id = tid(0x2000);
        t.observe(id.start_pc, id, info(0b1));
        t.observe(id.start_pc, id, info(0b1));
        t.observe(id.start_pc, id, info(0b1));
        assert!(t.removal_for(id.start_pc, &id).is_some());
        t.observe(id.start_pc, id, info(0b11)); // changed → reset + install
        assert_eq!(t.removal_for(id.start_pc, &id), None);
        assert_eq!(t.confidence_of(id.start_pc), Some(0));
        t.observe(id.start_pc, id, info(0b11));
        t.observe(id.start_pc, id, info(0b11));
        assert_eq!(t.removal_for(id.start_pc, &id).unwrap().ir_vec, 0b11);
    }

    #[test]
    fn empty_vec_never_triggers_removal() {
        let mut t = IrTable::new(16, 1);
        let id = tid(0x3000);
        for _ in 0..5 {
            t.observe(id.start_pc, id, info(0));
        }
        assert_eq!(t.removal_for(id.start_pc, &id), None);
    }

    #[test]
    fn penalize_forces_reconfirmation() {
        let mut t = IrTable::new(16, 2);
        let id = tid(0x4000);
        for _ in 0..4 {
            t.observe(id.start_pc, id, info(0b1));
        }
        assert!(t.removal_for(id.start_pc, &id).is_some());
        t.penalize(id.start_pc);
        assert_eq!(t.removal_for(id.start_pc, &id), None);
    }

    #[test]
    fn capacity_bound_is_respected() {
        let mut t = IrTable::new(4, 1);
        for i in 0..10 {
            t.observe(0x1000 + i * 4, tid(0x1000 + i * 4), info(0b1));
        }
        assert!(t.len() <= 4);
    }

    #[test]
    fn unstable_traces_dilute_confidence() {
        // Two outcome-variants of the same trace location alternate: the
        // shared entry keeps resetting and neither variant is ever removed
        // (paper §2.1.3's "unstable traces").
        let mut t = IrTable::new(16, 2);
        let a = TraceId {
            start_pc: 0x1000,
            outcomes: 0b0,
            branch_count: 1,
            len: 8,
        };
        let b = TraceId {
            start_pc: 0x1000,
            outcomes: 0b1,
            branch_count: 1,
            len: 8,
        };
        for _ in 0..20 {
            t.observe(0x1000, a, info(0b1));
            t.observe(0x1000, b, info(0b1));
        }
        assert_eq!(t.removal_for(0x1000, &a), None);
        assert_eq!(t.removal_for(0x1000, &b), None);
        assert_eq!(t.len(), 1, "one entry per trace location");
    }

    #[test]
    fn zero_threshold_is_immediately_confident() {
        let mut t = IrTable::new(4, 0);
        let id = tid(0x5000);
        t.observe(id.start_pc, id, info(0b1));
        assert!(t.removal_for(id.start_pc, &id).is_some());
    }
}
