//! The trace-predictor front end: a [`CoreDriver`] that fetches predicted
//! traces, falls back to static construction when cold, and — in A-stream
//! mode — applies the IR-predictor's instruction removal, producing the
//! paper's reduced A-stream along with the delay-buffer traffic.
//!
//! The same driver runs the SS(64x4)/SS(128x8) baselines (removal and
//! delay-buffer emission disabled), so baseline and slipstream share every
//! line of front-end behaviour except the slipstream-specific parts —
//! exactly the comparison the paper makes.

use std::collections::VecDeque;

use slipstream_cpu::{CoreDriver, DriverStall, FetchItem};
use slipstream_isa::{FastHashMap, Instr, InstrKind, Program, Retired};
use slipstream_predict::{
    ends_trace, materialize_into, walk, PathHistory, TraceBuilder, TraceId, TracePredictor,
    TracePredictorConfig, WalkEnd, MAX_TRACE_LEN,
};

use crate::delay::{DelayEntry, TraceCommit};
use crate::ir_table::{IrTable, RemovalInfo};
use crate::removal::Reason;

/// If this many skipped slots pile up without an executed instruction to
/// attach to (a pathological fully-removed loop), removal is suspended for
/// subsequent traces until the backlog drains — a forward-progress guard.
const MAX_PENDING_SKIPS: usize = 512;

#[derive(Debug, Clone, Copy)]
struct SkipRec {
    pc: u64,
    instr: Instr,
    next_pc: u64,
    /// Predicted outcome if this is a skipped branch.
    taken: Option<bool>,
    reason: Reason,
}

#[derive(Debug, Clone, Copy, Default)]
struct ItemMeta {
    /// How many records this item owns at the front of the flat skip
    /// queue (see [`FeSpec::skips`]); `Copy` metas keep the
    /// per-window checkpoint a flat memcpy.
    skip_count: u32,
    /// Which fetched trace this item belongs to (monotonic counter).
    trace_no: u64,
    /// Slot index within the canonical trace (counting skipped slots).
    canonical_pos: u8,
}

/// Bookkeeping for a fetched-but-not-yet-committed trace: reconciles the
/// speculative path history with what actually retires.
#[derive(Debug, Clone, Copy)]
struct InflightTrace {
    trace_no: u64,
    /// The id pushed onto the speculative history at fetch.
    used: TraceId,
    /// The predictor's output for this slot, if any (accuracy stats).
    predicted: Option<TraceId>,
}

/// Builds the trace id that *actually retired* (predicted outcomes for
/// skipped slots, computed outcomes for executed ones) plus the used
/// ir-vec, from the in-order retire stream.
#[derive(Debug, Clone, Copy, Default)]
struct CommitBuilder {
    trace: TraceBuilder,
    used_vec: u32,
}

impl CommitBuilder {
    /// Feeds one slot; returns the finished commit when the slot closes
    /// its trace.
    fn feed(
        &mut self,
        pc: u64,
        instr: &Instr,
        taken: Option<bool>,
        skipped: bool,
    ) -> Option<TraceCommit> {
        if skipped {
            self.used_vec |= 1 << self.trace.pending_len();
        }
        let id = self.trace.push(pc, instr, taken)?;
        Some(TraceCommit {
            id,
            used_vec: std::mem::take(&mut self.used_vec),
        })
    }
}

/// Accuracy/behaviour counters for a [`TraceFrontEnd`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEndStats {
    /// Traces fetched from a predictor hit.
    pub traces_predicted: u64,
    /// Traces constructed by static fallback.
    pub traces_fallback: u64,
    /// Retired traces whose id matched the prediction used to fetch them.
    pub traces_correct: u64,
    /// Retired traces (commits emitted).
    pub traces_committed: u64,
    /// Traces to which instruction removal was applied.
    pub traces_reduced: u64,
}

impl FrontEndStats {
    /// Counters accumulated since `earlier` was snapshotted (interval
    /// sampling; see [`slipstream_cpu::CoreStats::delta`]).
    pub fn delta(&self, earlier: &FrontEndStats) -> FrontEndStats {
        self.zip_counters(earlier, u64::saturating_sub)
    }
}

// The one list of `FrontEndStats`' counters (`delta` and the run file).
slipstream_isa::counter_list!(FrontEndStats {
    traces_predicted,
    traces_fallback,
    traces_correct,
    traces_committed,
    traces_reduced
});

/// A control-flow front end driving one core from the shared trace
/// predictor, optionally reduced by the IR-predictor (A-stream mode).
///
/// Its state falls in three parts. [`FeSpec`] is everything a slack window
/// changes, so it is all a window checkpoint copies. The predictor and
/// removal tables, the retired history and the trace cache learn only at
/// window boundaries (see [`TraceFrontEnd::apply_training`]), so they are
/// frozen for a whole window. The `out_*` buffers are per-cycle output
/// that the harness drains.
#[derive(Clone)]
pub struct TraceFrontEnd {
    program: Program,
    /// The next-trace predictor (the paper drives *all* models with it).
    pub predictor: TracePredictor,
    /// The instruction-removal table (the IR-predictor's removal half).
    pub ir_table: IrTable,
    retired_hist: PathHistory,
    removal_enabled: bool,
    /// Emit delay-buffer entries and trace commits (A-stream mode).
    emit: bool,
    /// The window-speculative state.
    pub spec: FeSpec,
    /// Last committed trace id per start PC — a tiny trace cache used as
    /// the fallback of last resort (repeats the previous path through this
    /// PC instead of guessing all-not-taken).
    last_trace_at: FastHashMap<u64, TraceId>,
    /// Reusable trace-PC buffer (filled by `walk`/`materialize_into`).
    pcs_scratch: Vec<u64>,

    /// Delay entries produced at retirement (drained by the harness).
    pub out_entries: Vec<DelayEntry>,
    /// Trace commits produced at retirement (drained by the harness).
    pub out_commits: Vec<TraceCommit>,
    /// `(context key, trace id)` pairs whose removal was applied at fetch
    /// (drained by the harness for verification bookkeeping and
    /// recovery-time confidence penalties).
    pub out_applied: Vec<(u64, TraceId)>,
    /// Executed-entry retire budget for this cycle (delay-buffer
    /// back-pressure; `usize::MAX` when unconstrained).
    pub retire_budget: usize,
    /// Committed trace ids whose *learning* side effects (predictor
    /// training, retired history, trace cache) have not
    /// been applied yet. All schedulers defer learning to the next sync
    /// boundary ([`TraceFrontEnd::apply_training`]) so that the
    /// slack-window checkpoint never has to snapshot the predictor tables
    /// and every mode trains at identical points.
    train_q: Vec<TraceId>,
}

/// The [`TraceFrontEnd`] state that a slack window changes: the
/// speculative path history, fetch and retire bookkeeping, and the
/// counters that fetch and retire bump. A window checkpoint copies
/// exactly this struct, and its `Clone` is generated from one field list,
/// so a field added here is checkpointed and restored with the rest. It
/// holds no flight recorder: a removal travels to the R side as the
/// skipped [`DelayEntry`]'s reason, and the R side records and counts it.
#[derive(Default)]
pub struct FeSpec {
    spec_hist: PathHistory,
    ready: VecDeque<FetchItem>,
    next_pred: Option<TraceId>,
    fetch_pc: Option<u64>,
    next_meta: u64,
    /// Per-item retire metadata, ordered by meta id. Items retire strictly
    /// in dispatch (= insertion) order and redirects squash a strict
    /// suffix, so a deque replaces the former per-instruction `HashMap`:
    /// retire pops the front, redirect pops the tail.
    metas: VecDeque<(u64, ItemMeta)>,
    /// Skip records of all in-flight metas, flattened in fetch order:
    /// retirement consumes a meta's `skip_count` records off the front,
    /// a redirect squash drops a squashed meta's records off the back.
    /// One flat `Copy` queue instead of a `Vec` per meta keeps both the
    /// retire path and the window checkpoint allocation-free.
    skips: VecDeque<SkipRec>,
    pending_skips: Vec<SkipRec>,
    inflight: VecDeque<InflightTrace>,
    trace_counter: u64,
    /// Slots of the current canonical trace already emitted (nonzero only
    /// after a misprediction truncated fetch mid-trace: the next fetch is
    /// a *continuation* of the same trace, so boundaries stay canonical —
    /// traces close only by [`ends_trace`]).
    open_len: u8,
    open_trace_no: u64,
    commit: CommitBuilder,
    done: bool,
    /// Front-end statistics.
    pub stats: FrontEndStats,
}

slipstream_isa::clone_in_place!(FeSpec {
    spec_hist,
    ready,
    next_pred,
    fetch_pc,
    next_meta,
    metas,
    skips,
    pending_skips,
    inflight,
    trace_counter,
    open_len,
    open_trace_no,
    commit,
    done,
    stats
});

impl TraceFrontEnd {
    /// Creates a baseline front end (no removal, no delay-buffer output).
    pub fn baseline(program: &Program, tp_cfg: TracePredictorConfig) -> TraceFrontEnd {
        TraceFrontEnd::new(program, tp_cfg, IrTable::new(1, u32::MAX), false, false)
    }

    /// Creates an A-stream front end with the given removal table.
    pub fn a_stream(
        program: &Program,
        tp_cfg: TracePredictorConfig,
        ir_table: IrTable,
        removal_enabled: bool,
    ) -> TraceFrontEnd {
        TraceFrontEnd::new(program, tp_cfg, ir_table, removal_enabled, true)
    }

    fn new(
        program: &Program,
        tp_cfg: TracePredictorConfig,
        ir_table: IrTable,
        removal_enabled: bool,
        emit: bool,
    ) -> TraceFrontEnd {
        let predictor = TracePredictor::new(tp_cfg);
        let spec_hist = predictor.new_history();
        let retired_hist = predictor.new_history();
        TraceFrontEnd {
            program: program.clone(),
            predictor,
            ir_table,
            retired_hist,
            removal_enabled,
            emit,
            spec: FeSpec {
                spec_hist,
                fetch_pc: Some(program.entry()),
                next_meta: 1,
                ..FeSpec::default()
            },
            last_trace_at: FastHashMap::default(),
            pcs_scratch: Vec::new(),
            out_entries: Vec::new(),
            out_commits: Vec::new(),
            out_applied: Vec::new(),
            retire_budget: usize::MAX,
            train_q: Vec::new(),
        }
    }

    /// Restarts the front end at `pc` with all in-flight state dropped
    /// (IR-misprediction recovery). Predictor tables and the removal table
    /// survive; path histories re-synchronize to the retired history.
    pub fn reset_to(&mut self, pc: u64) {
        self.spec.ready.clear();
        self.spec.next_pred = None;
        self.spec.metas.clear();
        self.spec.skips.clear();
        self.spec.pending_skips.clear();
        self.spec.inflight.clear();
        self.spec.commit = CommitBuilder::default();
        self.spec.open_len = 0;
        self.spec.done = false;
        self.spec.fetch_pc = Some(pc);
        self.out_entries.clear();
        self.out_commits.clear();
        self.out_applied.clear();
        self.spec.spec_hist.sync_to(&self.retired_hist);
    }

    // ---- fetch-side trace preparation ------------------------------------

    /// Resolves the next trace to fetch: `(used_id, next_start,
    /// predicted)`, with the trace's PCs left in `self.pcs_scratch`.
    fn resolve_next(&mut self) -> Option<(TraceId, Option<u64>, Option<TraceId>)> {
        let pred = self
            .spec
            .next_pred
            .take()
            .or_else(|| self.predictor.predict(&self.spec.spec_hist));
        let mut pcs = std::mem::take(&mut self.pcs_scratch);
        let (program, fetch_pc) = (&self.program, self.spec.fetch_pc);
        // A prediction is used when it starts at the fetch PC (any PC after
        // a `jr`, whose target only the prediction knows).
        let predicted = pred
            .filter(|id| fetch_pc.is_none_or(|pc| pc == id.start_pc))
            .and_then(|id| Some((id, materialize_into(program, id, &mut pcs)?)));
        let out = if let Some((id, npc)) = predicted {
            self.spec.stats.traces_predicted += 1;
            Some((id, npc, pred))
        } else if let Some(pc) = fetch_pc {
            // Trace-cache fallback: repeat the last committed path through
            // this PC; otherwise construct statically, branches assumed
            // not-taken.
            let fallback = self
                .last_trace_at
                .get(&pc)
                .and_then(|&id| Some((id, materialize_into(program, id, &mut pcs)?)))
                .or_else(|| {
                    let (id, end) = walk(program, pc, 0, MAX_TRACE_LEN as u8, &mut pcs);
                    (end != WalkEnd::OffText).then_some((id, end.next_pc()))
                });
            self.spec.stats.traces_fallback += u64::from(fallback.is_some());
            fallback.map(|(id, npc)| (id, npc, pred))
        } else {
            None
        };
        self.pcs_scratch = pcs;
        out
    }

    /// Fetches the remainder of the current canonical trace after a
    /// misprediction redirected fetch mid-trace. Constructed statically
    /// (branches assumed not-taken) — the canonical trace id is rebuilt at
    /// retirement either way.
    fn prepare_continuation(&mut self) -> bool {
        let Some(start) = self.spec.fetch_pc else {
            return false;
        };
        let open_len = self.spec.open_len;
        let mut pcs = std::mem::take(&mut self.pcs_scratch);
        let (_, end) = walk(
            &self.program,
            start,
            0,
            MAX_TRACE_LEN as u8 - open_len,
            &mut pcs,
        );
        let mut new_block = true;
        for (i, &pc) in pcs.iter().enumerate() {
            let instr = *self.program.instr_at(pc).expect("walked pcs are valid");
            let pred_npc = match instr.kind() {
                // `jr`'s target is unknown: it resolves via redirect.
                InstrKind::Jump => instr.static_target().unwrap_or(0),
                InstrKind::Halt => pc,
                _ => pc + 4,
            };
            let meta = self.spec.next_meta;
            self.spec.next_meta += 1;
            self.spec.metas.push_back((
                meta,
                ItemMeta {
                    skip_count: 0,
                    trace_no: self.spec.open_trace_no,
                    canonical_pos: open_len + i as u8,
                },
            ));
            self.spec.ready.push_back(FetchItem {
                pc,
                instr,
                pred_npc,
                pred_taken: instr.is_branch().then_some(false),
                new_block,
                slot_cost: 1,
                meta,
            });
            new_block = pred_npc != pc + 4;
            if matches!(instr, Instr::Halt) {
                self.spec.done = true;
            }
        }
        let emitted = !pcs.is_empty();
        self.pcs_scratch = pcs;
        // A wild continuation (corrupt A-stream context) supplies only the
        // path before the text ends; the R-stream's checks will trigger
        // recovery. Otherwise the trace is closed, and the next one starts
        // at the fall-through (none after a `jr` or `halt`).
        if end != WalkEnd::OffText {
            self.spec.open_len = 0;
            self.spec.fetch_pc = end.next_pc();
        }
        emitted
    }

    /// Prepares one more trace's worth of fetch items. Returns `false` if
    /// nothing could be prepared (unknown successor or program finished).
    fn prepare_trace(&mut self) -> bool {
        if self.spec.done {
            return false;
        }
        if self.spec.open_len > 0 {
            return self.prepare_continuation();
        }
        let Some((used_id, next_start, predicted)) = self.resolve_next() else {
            return false;
        };
        let pcs = std::mem::take(&mut self.pcs_scratch);
        // Context under which this trace's removal entry lives: the path
        // history *before* the trace itself.
        let context_key = self.spec.spec_hist.context_hash();
        self.spec.spec_hist.push(used_id);
        let trace_no = self.spec.trace_counter;
        self.spec.trace_counter += 1;
        self.spec.inflight.push_back(InflightTrace {
            trace_no,
            used: used_id,
            predicted,
        });

        // Removal lookup (A-stream only).
        let removal: RemovalInfo =
            if self.removal_enabled && self.spec.pending_skips.len() < MAX_PENDING_SKIPS {
                match self.ir_table.removal_for(context_key, &used_id) {
                    Some(info) => {
                        self.spec.stats.traces_reduced += 1;
                        self.out_applied.push((context_key, used_id));
                        info
                    }
                    None => RemovalInfo::empty(),
                }
            } else {
                RemovalInfo::empty()
            };

        self.spec.open_trace_no = trace_no;
        let n = pcs.len();
        // Eager successor prediction for jr-ended traces (the paper's next
        // trace prediction supplies the indirect target).
        let successor = match next_start {
            None if self.program.instr_at(pcs[n - 1]) != Some(&Instr::Halt) => {
                self.spec.next_pred = self.predictor.predict(&self.spec.spec_hist);
                self.spec.next_pred.map(|t| t.start_pc)
            }
            _ => next_start,
        };
        self.spec.fetch_pc = successor;

        let mut branch_idx = 0usize;
        let mut block = 0u32;
        let mut last_kept_block: Option<u32> = None;
        let mut skips_since_kept_in_block = 0u32;
        for (i, &pc) in pcs.iter().enumerate() {
            // A new block starts wherever the path is not sequential.
            block += u32::from(i > 0 && pc != pcs[i - 1] + 4);
            let instr = *self
                .program
                .instr_at(pc)
                .expect("materialized pcs are valid");
            let pred_taken = instr.is_branch().then(|| used_id.outcome(branch_idx));
            if instr.is_branch() {
                branch_idx += 1;
            }
            let slot_next: Option<u64> = if i + 1 < n {
                Some(pcs[i + 1])
            } else if matches!(instr, Instr::Halt) {
                Some(pc)
            } else {
                successor
            };
            let removable = removal.removes(i)
                && !matches!(instr, Instr::Halt | Instr::Jr { .. } | Instr::Jal { .. });
            if removable {
                self.spec.pending_skips.push(SkipRec {
                    pc,
                    instr,
                    next_pc: slot_next.unwrap_or(0),
                    taken: pred_taken,
                    reason: removal.reasons[i],
                });
                if last_kept_block == Some(block) {
                    skips_since_kept_in_block += 1;
                }
                continue;
            }
            let meta = self.spec.next_meta;
            self.spec.next_meta += 1;
            let skip_count = self.spec.pending_skips.len() as u32;
            self.spec.skips.extend(self.spec.pending_skips.drain(..));
            self.spec.metas.push_back((
                meta,
                ItemMeta {
                    skip_count,
                    trace_no,
                    canonical_pos: i as u8,
                },
            ));
            let (new_block, slot_cost) = if last_kept_block == Some(block) {
                (false, 1 + skips_since_kept_in_block)
            } else {
                (true, 1)
            };
            skips_since_kept_in_block = 0;
            last_kept_block = Some(block);
            self.spec.ready.push_back(FetchItem {
                pc,
                instr,
                pred_npc: slot_next.unwrap_or(0),
                pred_taken,
                new_block,
                slot_cost,
                meta,
            });
            if matches!(instr, Instr::Halt) {
                self.spec.done = true;
            }
        }
        self.pcs_scratch = pcs;
        true
    }
}

impl CoreDriver for TraceFrontEnd {
    fn next_fetch(&mut self) -> Option<FetchItem> {
        let mut guard = 0;
        while self.spec.ready.is_empty() {
            if !self.prepare_trace() {
                return None;
            }
            guard += 1;
            if guard > 64 {
                // Pathological full-trace removal run; yield this cycle.
                return None;
            }
        }
        self.spec.ready.pop_front()
    }

    fn on_redirect(&mut self, resolved: &Retired, meta: u64) {
        self.spec.ready.clear();
        self.spec.next_pred = None;
        self.spec.pending_skips.clear();
        // Traces fetched beyond the redirecting one are wrong-path: drop
        // them and undo their speculative-history pushes.
        let metas = &self.spec.metas;
        let redirecting = metas
            .binary_search_by_key(&meta, |&(k, _)| k)
            .ok()
            .map(|i| metas[i].1);
        let cur_trace = redirecting.map_or(u64::MAX, |m| m.trace_no);
        while self
            .spec
            .inflight
            .back()
            .is_some_and(|t| t.trace_no > cur_trace)
        {
            self.spec.inflight.pop_back();
            self.spec.spec_hist.pop_recent();
        }
        // Meta ids are pushed in increasing order, so the wrong-path items
        // are exactly the deque's tail beyond `meta`.
        while self.spec.metas.back().is_some_and(|&(k, _)| k > meta) {
            if let Some((_, m)) = self.spec.metas.pop_back() {
                // The squashed item's skip group is the flat queue's tail
                // (skips are appended in the same order metas are pushed).
                for _ in 0..m.skip_count {
                    self.spec.skips.pop_back();
                }
            }
        }
        // The canonical trace continues through the redirect unless the
        // redirecting instruction already closed it.
        match redirecting {
            Some(m) if !ends_trace(m.canonical_pos as usize + 1, &resolved.instr) => {
                self.spec.open_len = m.canonical_pos + 1;
                self.spec.open_trace_no = m.trace_no;
            }
            _ => self.spec.open_len = 0,
        }
        self.spec.fetch_pc = Some(resolved.next_pc);
        self.spec.done = false;
    }

    fn on_retire(&mut self, rec: &Retired, meta: u64) {
        let (key, m) = self
            .spec
            .metas
            .pop_front()
            .expect("every dispatched item has retire metadata");
        debug_assert_eq!(key, meta, "items retire in dispatch order");
        for _ in 0..m.skip_count {
            let skip = self
                .spec
                .skips
                .pop_front()
                .expect("the flat skip queue tracks meta skip counts");
            let commit = self
                .spec
                .commit
                .feed(skip.pc, &skip.instr, skip.taken, true);
            let ends = commit.is_some();
            if let Some(c) = commit {
                self.finish_commit(c);
            }
            if self.emit {
                self.out_entries.push(DelayEntry::skipped(
                    skip.pc,
                    skip.instr,
                    skip.next_pc,
                    ends,
                    skip.reason,
                ));
            }
        }
        let commit = self.spec.commit.feed(rec.pc, &rec.instr, rec.taken, false);
        let ends = commit.is_some();
        if let Some(c) = commit {
            self.finish_commit(c);
        }
        if self.emit {
            self.out_entries.push(DelayEntry::executed(rec, ends));
        }
    }

    fn retire_capacity(&mut self) -> usize {
        self.retire_budget
    }

    fn stall_kind(&self) -> DriverStall {
        // A zero retire budget means the delay buffer's control queue is
        // full: the A-stream is throttled by the slipstream sync boundary
        // (only meaningful when this front end emits delay entries).
        if self.emit && self.retire_budget == 0 {
            DriverStall::Backpressure
        } else {
            DriverStall::None
        }
    }
}

impl TraceFrontEnd {
    fn finish_commit(&mut self, c: TraceCommit) {
        self.spec.stats.traces_committed += 1;
        if let Some(t) = self.spec.inflight.pop_front() {
            if t.predicted == Some(c.id) {
                self.spec.stats.traces_correct += 1;
            }
            // Reconcile the speculative history with reality: the id we
            // pushed at fetch may differ from what retired (fallback
            // guess, truncation at a misprediction).
            if t.used != c.id {
                self.spec.spec_hist.replace_oldest(t.used, c.id);
            }
        }
        // Learning is deferred to the next sync boundary; see `train_q`.
        self.train_q.push(c.id);
        if self.emit {
            self.out_commits.push(c);
        }
    }

    /// Applies all deferred learning: predictor training, retired path
    /// history, and trace-cache update, in commit order. Called at
    /// slack-window boundaries (and before recovery repairs) by every
    /// scheduler, so serial, windowed, and threaded execution observe
    /// byte-identical predictor state.
    pub fn apply_training(&mut self) {
        // Indexed drain: `mem::take` here would drop the queue's buffer and
        // re-allocate it one trace later, once per trace for the rest of
        // the run.
        for i in 0..self.train_q.len() {
            let id = self.train_q[i];
            self.predictor.update(&self.retired_hist, id);
            self.retired_hist.push(id);
            self.last_trace_at.insert(id.start_pc, id);
        }
        self.train_q.clear();
    }

    /// Snapshots the window-speculative state into `out`, reusing its
    /// buffers, for the slack-window scheduler's checkpoint/replay. Must
    /// be taken at a sync boundary: the learning queue and retirement
    /// output buffers are empty there, so everything outside [`FeSpec`] is
    /// *frozen* for the whole window and needs no copy.
    pub fn checkpoint_into(&self, out: &mut FeSpec) {
        debug_assert!(self.train_q.is_empty(), "checkpoint off-boundary");
        debug_assert!(self.out_entries.is_empty() && self.out_commits.is_empty());
        out.clone_from(&self.spec);
    }

    /// Restores a boundary checkpoint, rewinding every side effect of the
    /// partially executed window (replay then re-derives the cycles up to
    /// the recovery point deterministically — the frozen tables guarantee
    /// identical fetch decisions).
    pub fn restore(&mut self, ck: &FeSpec) {
        self.spec.clone_from(ck);
        self.train_q.clear();
        self.out_entries.clear();
        self.out_commits.clear();
        self.out_applied.clear();
    }
}
