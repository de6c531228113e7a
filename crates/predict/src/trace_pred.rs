use std::collections::VecDeque;

use slipstream_isa::FastHashMap;

use crate::trace::TraceId;

/// Configuration for [`TracePredictor`] (defaults follow paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePredictorConfig {
    /// log2 of the correlated (path-based) table size. Paper: 16.
    pub correlated_bits: u32,
    /// log2 of the simple (last-trace) table size. Paper: 16.
    pub simple_bits: u32,
    /// Number of trace ids in the path history. Paper: 8.
    pub path_len: usize,
}

impl Default for TracePredictorConfig {
    fn default() -> Self {
        TracePredictorConfig {
            correlated_bits: 16,
            simple_bits: 16,
            path_len: 8,
        }
    }
}

/// A bounded path history of trace-id hashes.
///
/// The predictor itself is stateless with respect to history: callers own
/// one or more `PathHistory` values and pass them to
/// [`TracePredictor::predict`] / [`TracePredictor::update`]. A superscalar
/// front end keeps two (speculative and committed); a slipstream processor
/// keeps three (A-stream speculative, A-stream retired, R-stream
/// committed) and re-synchronizes them at mispredictions and recoveries.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct PathHistory {
    ids: VecDeque<u64>,
    cap: usize,
}

// `clone_from` reuses the destination's ring buffer: the slack-window
// scheduler snapshots histories every window, and the derived impl would
// re-allocate each time.
slipstream_isa::clone_in_place!(PathHistory { ids, cap });

impl PathHistory {
    /// An empty history holding up to `cap` trace ids.
    pub fn new(cap: usize) -> PathHistory {
        PathHistory {
            ids: VecDeque::with_capacity(cap + 1),
            cap,
        }
    }

    /// Appends a trace to the history (oldest entry falls off).
    pub fn push(&mut self, id: TraceId) {
        self.ids.push_back(id.hash64());
        while self.ids.len() > self.cap {
            self.ids.pop_front();
        }
    }

    /// Re-synchronizes this history to another (e.g. speculative :=
    /// committed on a flush).
    pub fn sync_to(&mut self, other: &PathHistory) {
        self.ids.clone_from(&other.ids);
        self.cap = other.cap;
    }

    /// Removes the most recent entry (undoing a speculative push for a
    /// trace that was squashed before executing).
    pub fn pop_recent(&mut self) {
        self.ids.pop_back();
    }

    /// Replaces the oldest occurrence of `old` with `new` (reconciling a
    /// speculatively-pushed trace id with the id that actually retired).
    /// Returns whether a replacement happened.
    pub fn replace_oldest(&mut self, old: TraceId, new: TraceId) -> bool {
        let oh = old.hash64();
        if let Some(slot) = self.ids.iter_mut().find(|h| **h == oh) {
            *slot = new.hash64();
            true
        } else {
            false
        }
    }

    /// A stable hash of the whole history (most recent ids weighted
    /// hardest) — the context key under which path-indexed structures such
    /// as the IR-predictor's removal entries are stored.
    pub fn context_hash(&self) -> u64 {
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
        for (age, h) in self.ids.iter().rev().enumerate() {
            acc ^= h >> (age as u32 * 5);
            acc = acc.rotate_left(13);
        }
        acc
    }

    /// Number of traces currently in the history.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn iter_newest_first(&self) -> impl Iterator<Item = &u64> {
        self.ids.iter().rev()
    }

    fn newest(&self) -> Option<u64> {
        self.ids.back().copied()
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u16,
    pred: TraceId,
    /// 2-bit replacement counter (paper §2.1.1).
    ctr: u8,
}

/// Hybrid path-based next-trace predictor (Jacobson, Rotenberg, Smith —
/// "Path-Based Next Trace Prediction", MICRO-30), as used by the paper for
/// control-flow prediction in *all* processor models and as the foundation
/// of the IR-predictor.
///
/// Two tables: a **correlated** table indexed by a hash of the last 8 trace
/// ids (recent ids contribute more index bits than older ones) and a
/// **simple** table indexed by the most recent trace id only (shorter
/// learning time, less aliasing pressure). Both are tagged and use 2-bit
/// replacement counters; the correlated table takes priority on a hit.
///
/// Histories live *outside* the predictor (see [`PathHistory`]); updates
/// are performed by the caller at trace retirement, so the *delayed
/// update* effect the paper measures (Table 3) arises naturally from how
/// far retirement lags fetch.
///
/// Both tables are sparse: a map from table index to entry, where an
/// absent index is an empty slot. A run occupies a few thousand of the
/// 2^16 slots, so a fresh predictor owns no table memory and a clone
/// copies only the trained entries.
#[derive(Debug, Clone)]
pub struct TracePredictor {
    cfg: TracePredictorConfig,
    correlated: FastHashMap<u32, Entry>,
    simple: FastHashMap<u32, Entry>,
}

impl TracePredictor {
    /// Creates a predictor with the given table configuration.
    ///
    /// # Panics
    ///
    /// Panics if either table is configured wider than 32 index bits.
    pub fn new(cfg: TracePredictorConfig) -> TracePredictor {
        assert!(
            cfg.correlated_bits <= 32 && cfg.simple_bits <= 32,
            "trace-predictor tables are indexed by u32"
        );
        TracePredictor {
            cfg,
            correlated: FastHashMap::default(),
            simple: FastHashMap::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TracePredictorConfig {
        self.cfg
    }

    /// A history sized to this predictor's path length.
    pub fn new_history(&self) -> PathHistory {
        PathHistory::new(self.cfg.path_len)
    }

    /// Predicts the trace following `hist`. Returns `None` when neither
    /// table hits (cold or aliased); the consumer then falls back to
    /// constructing a trace statically.
    pub fn predict(&self, hist: &PathHistory) -> Option<TraceId> {
        let (ci, ctag) = self.correlated_index(hist);
        if let Some(e) = self.correlated.get(&ci) {
            if e.tag == ctag {
                return Some(e.pred);
            }
        }
        let (si, stag) = self.simple_index(hist);
        self.simple
            .get(&si)
            .filter(|e| e.tag == stag)
            .map(|e| e.pred)
    }

    /// Trains both tables: after `hist`, the next trace was `actual`.
    /// (The caller then pushes `actual` onto `hist`.)
    pub fn update(&mut self, hist: &PathHistory, actual: TraceId) {
        let (ci, ctag) = self.correlated_index(hist);
        update_entry(&mut self.correlated, ci, ctag, actual);
        let (si, stag) = self.simple_index(hist);
        update_entry(&mut self.simple, si, stag, actual);
    }

    fn correlated_index(&self, hist: &PathHistory) -> (u32, u16) {
        // DOLC-flavoured hash: the most recent trace id contributes full
        // bits; each older id is shifted right so it contributes fewer.
        let mut acc: u64 = 0xabcd_ef01_2345_6789;
        for (age, h) in hist.iter_newest_first().enumerate() {
            acc ^= h >> (age as u32 * 5);
            acc = acc.rotate_left(11);
        }
        let mask = (1u64 << self.cfg.correlated_bits) - 1;
        ((acc & mask) as u32, (acc >> 48) as u16)
    }

    fn simple_index(&self, hist: &PathHistory) -> (u32, u16) {
        let h = hist.newest().unwrap_or(0x5555_aaaa);
        let mask = (1u64 << self.cfg.simple_bits) - 1;
        (((h ^ (h >> 17)) & mask) as u32, (h >> 48) as u16)
    }
}

impl Default for TracePredictor {
    fn default() -> Self {
        TracePredictor::new(TracePredictorConfig::default())
    }
}

fn update_entry(table: &mut FastHashMap<u32, Entry>, index: u32, tag: u16, actual: TraceId) {
    match table.get_mut(&index) {
        Some(e) if e.tag == tag => {
            if e.pred == actual {
                e.ctr = (e.ctr + 1).min(3);
            } else if e.ctr == 0 {
                e.pred = actual;
                e.ctr = 1;
            } else {
                e.ctr -= 1;
            }
        }
        Some(e) => {
            // Tag conflict: 2-bit counter arbitrates replacement.
            if e.ctr == 0 {
                *e = Entry {
                    tag,
                    pred: actual,
                    ctr: 1,
                };
            } else {
                e.ctr -= 1;
            }
        }
        None => {
            table.insert(
                index,
                Entry {
                    tag,
                    pred: actual,
                    ctr: 1,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(pc: u64, outcomes: u32, branches: u8, len: u8) -> TraceId {
        TraceId {
            start_pc: pc,
            outcomes,
            branch_count: branches,
            len,
        }
    }

    /// Drives the predictor through `seq` repeatedly with a single history
    /// (update immediately after each trace), returning accuracy on the
    /// final repetition.
    fn learn_sequence(pred: &mut TracePredictor, seq: &[TraceId], reps: usize) -> f64 {
        let mut hist = pred.new_history();
        let mut last_correct = 0u64;
        let mut last_total = 0u64;
        for rep in 0..reps {
            for &t in seq {
                let p = pred.predict(&hist);
                if rep + 1 == reps {
                    last_total += 1;
                    if p == Some(t) {
                        last_correct += 1;
                    }
                }
                pred.update(&hist, t);
                hist.push(t);
            }
        }
        last_correct as f64 / last_total as f64
    }

    #[test]
    fn learns_a_repeating_trace_sequence() {
        let mut pred = TracePredictor::default();
        let seq: Vec<TraceId> = (0..4)
            .map(|i| tid(0x1000 + i * 0x80, i as u32, 3, 32))
            .collect();
        let acc = learn_sequence(&mut pred, &seq, 10);
        assert_eq!(acc, 1.0, "a short repeating sequence must be fully learned");
    }

    #[test]
    fn path_correlation_disambiguates_shared_context() {
        // Second-order context: after C·A comes X, after D·A comes Y. The
        // simple (last-trace) table alone cannot separate the two cases.
        let c = tid(0x10, 0, 0, 8);
        let d = tid(0x20, 0, 0, 8);
        let a = tid(0x30, 0, 0, 8);
        let x = tid(0x40, 0, 0, 8);
        let y = tid(0x50, 0, 0, 8);
        let seq = [c, a, x, d, a, y];
        let mut pred = TracePredictor::default();
        let acc = learn_sequence(&mut pred, &seq, 20);
        assert_eq!(acc, 1.0, "path history must disambiguate C·A→X vs D·A→Y");
    }

    #[test]
    fn cold_predictor_returns_none() {
        let pred = TracePredictor::default();
        let mut hist = pred.new_history();
        assert_eq!(pred.predict(&hist), None);
        hist.push(tid(0x40, 1, 1, 8));
        assert_eq!(pred.predict(&hist), None, "a cold table misses everywhere");
        assert!(pred.correlated.is_empty() && pred.simple.is_empty());
    }

    #[test]
    fn tag_conflict_is_arbitrated_by_the_two_bit_counter() {
        // Two contexts that share a slot but not a tag: the resident entry
        // loses one counter step per conflicting update and is replaced
        // (counter 1) only once its counter has reached 0.
        let mut table = FastHashMap::default();
        let (a, b) = (tid(0x10, 0, 0, 4), tid(0x20, 0, 0, 4));
        let slot = 7;
        update_entry(&mut table, slot, 0xaaaa, a); // allocate, ctr 1
        update_entry(&mut table, slot, 0xaaaa, a); // ctr 2
        update_entry(&mut table, slot, 0xaaaa, a); // ctr 3
        update_entry(&mut table, slot, 0xaaaa, a); // saturates at 3
        let resident = |t: &FastHashMap<u32, Entry>| {
            let e = t[&slot];
            (e.tag, e.pred, e.ctr)
        };
        assert_eq!(resident(&table), (0xaaaa, a, 3));
        for ctr in [2, 1, 0] {
            update_entry(&mut table, slot, 0xbbbb, b);
            assert_eq!(resident(&table), (0xaaaa, a, ctr), "conflict decays");
        }
        update_entry(&mut table, slot, 0xbbbb, b);
        assert_eq!(resident(&table), (0xbbbb, b, 1), "replaced at counter 0");
        // A same-tag disagreement decays, then retargets at counter 0.
        update_entry(&mut table, slot, 0xbbbb, a);
        assert_eq!(resident(&table), (0xbbbb, b, 0));
        update_entry(&mut table, slot, 0xbbbb, a);
        assert_eq!(resident(&table), (0xbbbb, a, 1));
        assert_eq!(table.len(), 1, "one slot, one entry");
    }

    #[test]
    fn a_clone_trains_independently_of_its_source() {
        let mut src = TracePredictor::default();
        let seq: Vec<TraceId> = (0..6)
            .map(|i| tid(0x1000 + i * 0x40, i as u32, 2, 16))
            .collect();
        learn_sequence(&mut src, &seq, 4);
        let mut fork = src.clone();
        // Train the clone on a different successor for every context.
        let junk: Vec<TraceId> = (0..6).map(|i| tid(0x9000 + i * 0x40, 0, 0, 8)).collect();
        learn_sequence(&mut fork, &junk, 8);
        let mut hist = src.new_history();
        for &t in &seq {
            assert_eq!(
                src.predict(&hist),
                Some(t),
                "the source keeps its own training"
            );
            hist.push(t);
        }
    }

    #[test]
    fn histories_are_independent_and_syncable() {
        let mut pred = TracePredictor::default();
        let a = tid(0x10, 0, 0, 4);
        let b = tid(0x20, 0, 0, 4);
        let mut committed = pred.new_history();
        // Teach: after A comes B (in committed context).
        for _ in 0..8 {
            pred.update(&committed, a);
            committed.push(a);
            pred.update(&committed, b);
            committed.push(b);
        }
        let mut spec = pred.new_history();
        spec.sync_to(&committed);
        let before = pred.predict(&spec);
        spec.push(tid(0x999, 0, 0, 4)); // speculate down a junk path
        spec.sync_to(&committed); // recover
        let after = pred.predict(&spec);
        assert_eq!(before, after);
        assert_eq!(spec, committed);
    }

    #[test]
    fn disagreeing_tables_predict_from_the_correlated_one() {
        // C·A and D·A end in the same trace, so they share a simple-table
        // entry but not a correlated one. D·A→Y trains the simple entry
        // to Y; one C·A→X then puts X in C·A's correlated entry.
        let (a, c, d) = (tid(0x10, 0, 0, 4), tid(0x20, 0, 0, 4), tid(0x30, 0, 0, 4));
        let (x, y) = (tid(0x40, 0, 0, 4), tid(0x50, 0, 0, 4));
        let mut pred = TracePredictor::default();
        let (mut ca, mut da) = (pred.new_history(), pred.new_history());
        ca.push(c);
        ca.push(a);
        da.push(d);
        da.push(a);
        for _ in 0..3 {
            pred.update(&da, y);
        }
        pred.update(&ca, x);
        assert_ne!(pred.correlated_index(&ca), pred.correlated_index(&da));
        let simple = pred.simple[&pred.simple_index(&ca).0];
        assert_eq!(simple.pred, y, "the simple table says Y after A");
        assert_eq!(pred.predict(&ca), Some(x), "the correlated table wins");
        assert_eq!(pred.predict(&da), Some(y));
    }

    #[test]
    fn replacement_counter_provides_hysteresis() {
        // Establish A→B strongly in one fixed context, then observe a
        // single contradiction: the entry must survive it.
        let mut pred = TracePredictor::default();
        let ctx = pred.new_history();
        let b = tid(0x20, 0, 0, 4);
        let z = tid(0x30, 0, 0, 4);
        for _ in 0..6 {
            pred.update(&ctx, b);
        }
        pred.update(&ctx, z); // one disagreement
        assert_eq!(
            pred.predict(&ctx),
            Some(b),
            "2-bit counter resists single flips"
        );
    }

    #[test]
    fn path_history_caps_length() {
        let mut h = PathHistory::new(3);
        for i in 0..10 {
            h.push(tid(i * 4, 0, 0, 4));
        }
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }
}
