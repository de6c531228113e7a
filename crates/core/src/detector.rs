//! The IR-detector (paper §2.1.2): monitors the R-stream's retired
//! instructions, builds a small reverse dataflow graph (R-DFG) per trace,
//! detects the three removal triggers — unreferenced writes, non-modifying
//! writes, and branches — and back-propagates removal status to
//! computation chains. Completed traces are analysed within a scope of 8
//! traces; on eviction a `{trace-id, ir-vec}` pair is produced for the
//! IR-predictor.

use std::collections::VecDeque;

use slipstream_isa::FastHashMap;

use slipstream_isa::{accesses_overlap, Instr, MemWidth, Retired, NUM_REGS};
use slipstream_predict::{TraceBuilder, TraceId, MAX_TRACE_LEN};

use crate::config::RemovalPolicy;
use crate::ir_table::RemovalInfo;
use crate::removal::Reason;

/// Identifies a dynamic instruction inside the detector's analysis scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Producer {
    trace_no: u64,
    slot: u8,
}

/// Inline list of at most `N` per-slot items: a trace holds at most
/// [`MAX_TRACE_LEN`] (= 32) nodes, so a node's producer list and a trace's
/// store list fit in fixed arrays and the detector allocates nothing per
/// retired instruction or per evicted trace. Reads as a slice.
#[derive(Debug, Clone, Copy)]
pub struct SlotList<T, const N: usize> {
    len: u8,
    buf: [T; N],
}

impl<T: Copy, const N: usize> SlotList<T, N> {
    /// An empty list; `fill` only initialises the unused capacity.
    const fn new(fill: T) -> Self {
        SlotList {
            len: 0,
            buf: [fill; N],
        }
    }

    fn push(&mut self, v: T) {
        self.buf[self.len as usize] = v;
        self.len += 1;
    }
}

impl<T, const N: usize> std::ops::Deref for SlotList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

/// Every store of one trace: `(slot, address, width)`.
pub type TraceStores = SlotList<(u8, u64, MemWidth), MAX_TRACE_LEN>;

// `Node::consumers` keeps one bit per slot of a trace.
const _: () = assert!(MAX_TRACE_LEN <= u32::BITS as usize);

#[derive(Debug, Clone)]
struct Node {
    instr: Instr,
    /// Same-trace producer slots (back-propagation edges).
    producers: SlotList<u8, 3>,
    /// Same-trace consumer slots, one bit per slot: a consumer that reads
    /// the node through both sources is one consumer, and walking the set
    /// bits upward visits consumers in the order they retired.
    consumers: u32,
    /// A consumer outside this node's trace referenced the value: the node
    /// can never be back-prop selected (no connection exists to track it).
    external_consumer: bool,
    /// The node's written location has been overwritten — all consumers
    /// are known.
    killed: bool,
    /// Writes a register or memory location.
    has_dest: bool,
    selected: bool,
    reason: Reason,
    /// For stores: effective address and width (the recovery controller
    /// needs them to verify skipped stores).
    store: Option<(u64, MemWidth)>,
}

impl Node {
    /// Filler for unused arena slots; never read through a live trace.
    const fn placeholder() -> Node {
        Node {
            instr: Instr::Halt,
            producers: SlotList::new(0),
            consumers: 0,
            external_consumer: false,
            killed: false,
            has_dest: false,
            selected: false,
            reason: Reason::NONE,
            store: None,
        }
    }
}

/// A trace under analysis. Nodes live in the detector's striped arena
/// (`IrDetector::nodes`): this struct only records which stripe
/// (`base..base + len`) holds them, so creating and evicting traces never
/// allocates.
#[derive(Debug, Clone, Copy)]
struct TraceDfg {
    trace_no: u64,
    /// First arena index of this trace's stripe.
    base: usize,
    /// The trace's id, built slot by slot; it decides where the trace
    /// closes.
    trace: TraceBuilder,
}

impl TraceDfg {
    /// Number of nodes written so far (`<= MAX_TRACE_LEN`).
    fn len(&self) -> usize {
        self.trace.id().len as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct RegState {
    /// Producer of the current value, if still in scope.
    producer: Option<Producer>,
    /// Whether the current value has been referenced.
    referenced: bool,
    /// Shadow of the architectural value (survives invalidation; used for
    /// silent-write detection).
    value: u64,
}

#[derive(Debug, Clone, Copy)]
struct MemState {
    producer: Producer,
    referenced: bool,
    width: MemWidth,
}

/// What the IR-detector learned about one evicted trace.
#[derive(Debug, Clone)]
pub struct DetectorOutput {
    /// The trace's identity, reconstructed from the retired stream.
    pub id: TraceId,
    /// Computed removal vector and per-slot reasons.
    pub info: RemovalInfo,
    /// Every store in the trace — used to verify predicted-ineffectual
    /// (skipped) stores and stop tracking them.
    pub stores: TraceStores,
}

/// The IR-detector. Feed it the R-stream's retired instructions in order
/// via [`IrDetector::push`]; collect per-evicted-trace removal information
/// from [`IrDetector::pop_output`].
#[derive(Debug, Clone)]
pub struct IrDetector {
    policy: RemovalPolicy,
    scope_cap: usize,
    /// Completed traces under analysis, oldest first.
    scope: VecDeque<TraceDfg>,
    current: Option<TraceDfg>,
    next_trace_no: u64,
    /// Striped bump arena holding every live trace's nodes: stripe `i`
    /// covers `i * MAX_TRACE_LEN ..` and belongs to the trace whose number
    /// is `i (mod scope_cap + 1)`. At most `scope_cap + 1` traces are ever
    /// live (the current one plus a full scope), and trace numbers are
    /// monotonic, so a new trace's stripe occupant is always already
    /// evicted — slots are reused by overwrite, never cleared or
    /// reallocated.
    nodes: Vec<Node>,
    regs: [RegState; NUM_REGS],
    mem: FastHashMap<u64, MemState>,
    outputs: VecDeque<DetectorOutput>,
    /// Reusable scratch for `push`'s trigger list (avoids a per-retire
    /// allocation).
    pending_scratch: Vec<(Producer, Reason)>,
    /// Reusable scratch for `mark_overlaps_referenced` (per-load on the
    /// hot path).
    pin_scratch: Vec<Producer>,
    /// Reusable scratch for `write_mem`'s overlap kill list (per-store on
    /// the hot path).
    overlap_scratch: Vec<u64>,
}

impl IrDetector {
    /// Creates a detector analysing up to `scope_cap` completed traces at
    /// a time (paper: 8).
    pub fn new(policy: RemovalPolicy, scope_cap: usize) -> IrDetector {
        IrDetector {
            policy,
            scope_cap,
            scope: VecDeque::new(),
            current: None,
            next_trace_no: 0,
            nodes: vec![Node::placeholder(); (scope_cap + 1) * MAX_TRACE_LEN],
            regs: [RegState {
                producer: None,
                referenced: false,
                value: 0,
            }; NUM_REGS],
            mem: FastHashMap::default(),
            outputs: VecDeque::new(),
            pending_scratch: Vec::new(),
            pin_scratch: Vec::new(),
            overlap_scratch: Vec::new(),
        }
    }

    /// Arena stripe base for `trace_no`; the modulus must match the
    /// maximum number of simultaneously live traces (`scope_cap + 1`).
    fn stripe_base(&self, trace_no: u64) -> usize {
        (trace_no % (self.scope_cap as u64 + 1)) as usize * MAX_TRACE_LEN
    }

    /// The active removal policy.
    pub fn policy(&self) -> RemovalPolicy {
        self.policy
    }

    /// Merges one retired instruction into the current trace's R-DFG.
    /// The trace closes by the trace-selection rule
    /// ([`slipstream_predict::ends_trace`]), the same rule the A-stream's
    /// front end commits by, so both sides segment the dynamic stream
    /// identically.
    pub fn push(&mut self, rec: &Retired) {
        if self.current.is_none() {
            let no = self.next_trace_no;
            self.next_trace_no += 1;
            let base = self.stripe_base(no);
            debug_assert!(
                self.scope.iter().all(|t| t.base != base),
                "arena stripe {base} reclaimed while its trace is still in scope"
            );
            self.current = Some(TraceDfg {
                trace_no: no,
                base,
                trace: TraceBuilder::new(),
            });
        }
        let cur_no = self.current.as_ref().expect("just ensured").trace_no;
        let slot = self.current.as_ref().expect("just ensured").len() as u8;
        let me = Producer {
            trace_no: cur_no,
            slot,
        };

        // ---- source references (must precede destination processing so a
        // self-overwrite like `addi r1, r1, 1` counts as a reference).
        let mut producers = SlotList::<u8, 3>::new(0);
        let mut reference = |p: Option<Producer>, nodes: &mut IrDetector| {
            if let Some(prod) = p {
                if prod.trace_no == cur_no {
                    producers.push(prod.slot);
                } else if let Some(n) = nodes.node_mut(prod) {
                    n.external_consumer = true;
                }
            }
        };
        for (r, _) in [rec.src1, rec.src2].into_iter().flatten() {
            if !r.is_zero() {
                let prod = {
                    let st = &mut self.regs[r.index()];
                    st.referenced = true;
                    st.producer
                };
                reference(prod, self);
            }
        }
        if let Some(m) = rec.mem {
            if !m.is_store {
                let prod = self.reference_mem(m.addr, m.width);
                reference(prod, self);
            }
        }

        // ---- build and insert the node (consumer edges added below).
        let is_store = rec.mem.is_some_and(|m| m.is_store);
        let node = Node {
            instr: rec.instr,
            producers,
            consumers: 0,
            external_consumer: false,
            killed: false,
            has_dest: rec.dest.is_some() || is_store,
            selected: false,
            reason: Reason::NONE,
            store: rec
                .mem
                .and_then(|m| m.is_store.then_some((m.addr, m.width))),
        };
        let closed = {
            let cur = self.current.as_mut().expect("current exists");
            debug_assert!(cur.len() < MAX_TRACE_LEN, "trace overflows its stripe");
            self.nodes[cur.base + cur.len()] = node;
            for &p in producers.iter() {
                self.nodes[cur.base + p as usize].consumers |= 1 << slot;
            }
            cur.trace.push(rec.pc, &rec.instr, rec.taken).is_some()
        };

        // ---- triggers and destination bookkeeping.
        let mut pending_select = std::mem::take(&mut self.pending_scratch);
        pending_select.clear();

        if self.policy.branches && (rec.instr.is_branch() || matches!(rec.instr, Instr::J { .. })) {
            pending_select.push((me, Reason::BR));
        }

        if let Some((d, v)) = rec.dest {
            let old = self.regs[d.index()];
            let silent = old.value == v;
            if silent && self.policy.silent_writes {
                // Non-modifying write: select it; the old producer stays
                // live and the table entry is unchanged.
                pending_select.push((me, Reason::SV));
            } else {
                if let Some(prod) = old.producer {
                    self.kill(prod, !old.referenced, &mut pending_select);
                }
                self.regs[d.index()] = RegState {
                    producer: Some(me),
                    referenced: false,
                    value: v,
                };
            }
        }

        if let Some(m) = rec.mem {
            if m.is_store {
                let silent = m.old_value == Some(m.value);
                if silent && self.policy.silent_writes {
                    pending_select.push((me, Reason::SV));
                } else {
                    self.write_mem(m.addr, m.width, me, &mut pending_select);
                }
            }
        }

        for &(p, r) in &pending_select {
            self.select(p, r);
        }
        self.pending_scratch = pending_select;

        // ---- trace completion.
        if closed {
            let cur = self.current.take().expect("current exists");
            self.scope.push_back(cur);
            while self.scope.len() > self.scope_cap {
                self.evict_oldest();
            }
        }
    }

    /// Takes the oldest evicted-trace output, if any.
    pub fn pop_output(&mut self) -> Option<DetectorOutput> {
        self.outputs.pop_front()
    }

    /// Evicts and reports every completed trace still in scope (used when
    /// a run ends, so the tail of the program is analysed too).
    pub fn finish(&mut self) {
        if let Some(cur) = self.current.take() {
            self.scope.push_back(cur);
        }
        while !self.scope.is_empty() {
            self.evict_oldest();
        }
    }

    /// Clears all analysis state (IR-misprediction recovery).
    pub fn flush(&mut self) {
        self.scope.clear();
        self.current = None;
        self.mem.clear();
        for r in &mut self.regs {
            r.producer = None;
            r.referenced = false;
        }
        self.outputs.clear();
    }

    // ---- internals -------------------------------------------------------

    fn node_mut(&mut self, p: Producer) -> Option<&mut Node> {
        let t = *self.trace_of(p.trace_no)?;
        if p.slot as usize >= t.len() {
            return None;
        }
        debug_assert_eq!(
            t.base,
            self.stripe_base(p.trace_no),
            "trace {} not in its own stripe",
            p.trace_no
        );
        Some(&mut self.nodes[t.base + p.slot as usize])
    }

    fn reference_mem(&mut self, addr: u64, width: MemWidth) -> Option<Producer> {
        // Exact-match reference, plus conservative handling of entries
        // overlapping this access at other addresses (they become
        // unremovable).
        self.mark_overlaps_referenced(addr, width);
        let st = self.mem.get_mut(&addr)?;
        if st.width == width {
            st.referenced = true;
            Some(st.producer)
        } else {
            None
        }
    }

    /// Conservatively treats entries overlapping `[addr, addr+width)` at a
    /// *different* address or width as referenced-and-pinned: their
    /// producers can never be claimed dead.
    fn mark_overlaps_referenced(&mut self, addr: u64, width: MemWidth) {
        let mut pin = std::mem::take(&mut self.pin_scratch);
        pin.clear();
        for (&a, st) in self.mem.iter_mut() {
            if a == addr && st.width == width {
                continue;
            }
            if accesses_overlap(a, st.width, addr, width) {
                st.referenced = true;
                pin.push(st.producer);
            }
        }
        for &p in &pin {
            if let Some(node) = self.node_mut(p) {
                node.external_consumer = true;
            }
        }
        self.pin_scratch = pin;
    }

    fn write_mem(
        &mut self,
        addr: u64,
        width: MemWidth,
        me: Producer,
        pending: &mut Vec<(Producer, Reason)>,
    ) {
        // Kill exact-match previous producer.
        if let Some(old) = self.mem.get(&addr).copied() {
            if old.width == width {
                self.kill(old.producer, !old.referenced, pending);
            } else {
                // Width conflict: conservative kill without a dead-write
                // claim.
                if let Some(n) = self.node_mut(old.producer) {
                    n.killed = true;
                    n.external_consumer = true;
                }
            }
        }
        // Conservatively kill overlapping entries at other addresses.
        let mut overlapping = std::mem::take(&mut self.overlap_scratch);
        overlapping.clear();
        overlapping.extend(
            self.mem
                .iter()
                .filter(|(&a, st)| a != addr && accesses_overlap(a, st.width, addr, width))
                .map(|(&a, _)| a),
        );
        for &a in &overlapping {
            let st = self.mem.remove(&a).expect("key just found");
            if let Some(node) = self.node_mut(st.producer) {
                node.killed = true;
                node.external_consumer = true;
            }
        }
        self.overlap_scratch = overlapping;
        self.mem.insert(
            addr,
            MemState {
                producer: me,
                referenced: false,
                width,
            },
        );
    }

    /// Marks `p` killed; if `unreferenced`, its write was dynamic dead code
    /// (WW trigger). Either way `p` becomes a back-propagation candidate.
    fn kill(&mut self, p: Producer, unreferenced: bool, pending: &mut Vec<(Producer, Reason)>) {
        let Some(node) = self.node_mut(p) else { return };
        node.killed = true;
        if unreferenced && self.policy.dead_writes {
            pending.push((p, Reason::WW));
        } else {
            // Value killed with known consumers: p may now be eligible for
            // back-propagated removal if all its consumers were selected.
            self.try_select(p);
        }
    }

    /// Directly selects `p` for removal and back-propagates to producers.
    fn select(&mut self, p: Producer, reason: Reason) {
        let producers = {
            let Some(node) = self.node_mut(p) else { return };
            if node.selected {
                node.reason = node.reason.union(reason);
                return;
            }
            node.selected = true;
            node.reason = node.reason.union(reason);
            node.producers
        };
        for &slot in producers.iter() {
            self.try_select(Producer {
                trace_no: p.trace_no,
                slot,
            });
        }
    }

    /// Back-propagation: selects `p` if it was killed, has no external
    /// consumers, and every same-trace consumer is already selected.
    fn try_select(&mut self, p: Producer) {
        let (eligible, inherited) = {
            let Some(trace) = self.trace_of(p.trace_no) else {
                return;
            };
            let base = trace.base;
            debug_assert!((p.slot as usize) < trace.len(), "slot outside trace");
            let node = &self.nodes[base + p.slot as usize];
            if node.selected
                || !node.killed
                || !node.has_dest
                || node.external_consumer
                || node.consumers == 0
                || matches!(node.instr, Instr::Halt | Instr::Jr { .. })
            {
                // A killed node with *no* consumers is an unreferenced
                // write: that is the WW trigger's (policy-gated) job, not
                // back-propagation's.
                return;
            }
            let mut inherited = Reason::PROP;
            let mut all_selected = true;
            let mut rest = node.consumers;
            while rest != 0 {
                let c = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let cn = &self.nodes[base + c];
                if cn.selected {
                    inherited = inherited.union(cn.reason.triggers());
                } else {
                    all_selected = false;
                    break;
                }
            }
            (all_selected, inherited)
        };
        if eligible {
            self.select(p, inherited);
        }
    }

    fn trace_of(&self, trace_no: u64) -> Option<&TraceDfg> {
        if let Some(cur) = &self.current {
            if cur.trace_no == trace_no {
                return Some(cur);
            }
        }
        let front_no = self.scope.front()?.trace_no;
        let idx = trace_no.checked_sub(front_no)? as usize;
        self.scope.get(idx)
    }

    fn evict_oldest(&mut self) {
        let Some(t) = self.scope.pop_front() else {
            return;
        };
        let mut info = RemovalInfo::empty();
        let mut stores = TraceStores::new((0, 0, MemWidth::Byte));
        for i in 0..t.len() {
            let node = &self.nodes[t.base + i];
            if node.selected {
                info.ir_vec |= 1 << i;
                info.reasons[i] = node.reason;
            }
            if let Some((addr, width)) = node.store {
                stores.push((i as u8, addr, width));
            }
        }
        // Invalidate rename-table entries whose producer left the scope.
        for r in &mut self.regs {
            if r.producer.is_some_and(|p| p.trace_no == t.trace_no) {
                r.producer = None;
            }
        }
        self.mem.retain(|_, st| st.producer.trace_no != t.trace_no);
        self.outputs.push_back(DetectorOutput {
            id: t.trace.id(),
            info,
            stores,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_isa::{assemble, ArchState};

    /// Runs `src` functionally, feeds every retired instruction to a
    /// detector, evicts everything, and returns the outputs.
    fn analyse(src: &str, policy: RemovalPolicy) -> Vec<DetectorOutput> {
        let p = assemble(src).expect("test program assembles");
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 100_000).expect("halts");
        let mut det = IrDetector::new(policy, 8);
        for rec in &trace {
            det.push(rec);
        }
        det.finish();
        outputs(&mut det)
    }

    /// Takes every evicted-trace output so far, in order.
    fn outputs(det: &mut IrDetector) -> Vec<DetectorOutput> {
        std::iter::from_fn(|| det.pop_output()).collect()
    }

    fn all_reasons(outputs: &[DetectorOutput]) -> Vec<(usize, usize, Reason)> {
        let mut v = Vec::new();
        for (t, o) in outputs.iter().enumerate() {
            for i in 0..o.id.len as usize {
                if o.info.removes(i) {
                    v.push((t, i, o.info.reasons[i]));
                }
            }
        }
        v
    }

    #[test]
    fn silent_store_is_selected_sv() {
        // Two identical stores: the second writes the same value → SV.
        let out = analyse(
            "li r1, 4096\nli r2, 7\nst r2, 0(r1)\nst r2, 0(r1)\nhalt",
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: true,
            },
        );
        let removed = all_reasons(&out);
        // Slot 3 is the second store.
        assert!(
            removed
                .iter()
                .any(|&(_, slot, r)| slot == 3 && r.contains(Reason::SV)),
            "second store must be SV-selected, got {removed:?}"
        );
    }

    #[test]
    fn dead_register_write_is_selected_ww() {
        // r3 written then overwritten without a read.
        let out = analyse(
            "li r3, 5\nli r3, 6\nadd r4, r3, r3\nhalt",
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: false,
            },
        );
        let removed = all_reasons(&out);
        assert!(
            removed
                .iter()
                .any(|&(_, slot, r)| slot == 0 && r.contains(Reason::WW)),
            "first li must be WW-selected, got {removed:?}"
        );
        // The second li is referenced — must not be removed.
        assert!(!removed.iter().any(|&(_, slot, _)| slot == 1));
    }

    #[test]
    fn referenced_write_is_not_dead() {
        let out = analyse(
            "li r3, 5\nadd r4, r3, r3\nli r3, 6\nadd r5, r3, r0\nhalt",
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: false,
            },
        );
        assert!(
            all_reasons(&out).is_empty(),
            "everything is referenced or live"
        );
    }

    #[test]
    fn branches_selected_when_policy_allows() {
        let src = "li r1, 3\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
        let out = analyse(src, RemovalPolicy::branches_only());
        let removed = all_reasons(&out);
        assert!(
            removed
                .iter()
                .any(|&(_, _, r)| r.contains(Reason::BR) && !r.is_propagated()),
            "branches must be BR-selected, got {removed:?}"
        );
        let out2 = analyse(src, RemovalPolicy::none());
        assert!(all_reasons(&out2).is_empty(), "policy off removes nothing");
    }

    #[test]
    fn chain_back_propagates_from_silent_store() {
        // r2 computed only to feed a silent store, and r2 is overwritten
        // afterwards: the store is SV, the computation chain is P:SV.
        let out = analyse(
            r#"
            li r1, 4096
            li r9, 7
            st r9, 0(r1)     ; prime location with 7
            li r2, 7         ; chain head (only consumer: silent store)
            st r2, 0(r1)     ; silent store (writes 7 over 7)
            li r2, 99        ; kills the chain head
            add r3, r2, r0   ; keeps the second li alive
            halt
            "#,
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: true,
            },
        );
        let removed = all_reasons(&out);
        assert!(
            removed
                .iter()
                .any(|&(_, slot, r)| slot == 4 && r.contains(Reason::SV) && !r.is_propagated()),
            "silent store selected, got {removed:?}"
        );
        assert!(
            removed
                .iter()
                .any(|&(_, slot, r)| slot == 3 && r.is_propagated() && r.contains(Reason::SV)),
            "chain head must be P:SV, got {removed:?}"
        );
    }

    #[test]
    fn branch_chain_back_propagates() {
        // r5 feeds only the branch and is then overwritten → P:BR.
        let out = analyse(
            r#"
            li r1, 1
            slti r5, r1, 10   ; only consumed by the branch
            bne r5, r0, next
        next:
            li r5, 0          ; kills the slti result
            add r6, r5, r0
            halt
            "#,
            RemovalPolicy::branches_only(),
        );
        let removed = all_reasons(&out);
        assert!(
            removed
                .iter()
                .any(|&(_, slot, r)| slot == 1 && r.is_propagated() && r.contains(Reason::BR)),
            "slti must be P:BR, got {removed:?}"
        );
    }

    #[test]
    fn partially_consumed_value_is_not_back_propagated() {
        // r5 feeds the branch AND a live add → not removable even though
        // the branch is selected.
        let out = analyse(
            r#"
            li r1, 1
            slti r5, r1, 10
            bne r5, r0, next
        next:
            add r6, r5, r0    ; live use of r5
            li r5, 0
            add r7, r5, r6
            halt
            "#,
            RemovalPolicy::branches_only(),
        );
        let removed = all_reasons(&out);
        assert!(
            !removed.iter().any(|&(_, slot, _)| slot == 1),
            "slti has a live consumer, got {removed:?}"
        );
    }

    #[test]
    fn cross_trace_consumer_blocks_removal() {
        // Pad so the producer and its killing overwrite land in different
        // traces: the dead write in trace 0 is consumed... actually here
        // the producer's kill arrives from trace 1; the WW trigger still
        // fires (ref bit is clear) because the paper allows killing across
        // traces — what must NOT happen is back-propagation across traces.
        // Use a referenced value whose consumer is in another trace.
        let pad = "addi r20, r20, 1\n".repeat(31); // li + pad fill trace 0 exactly
        let src = format!("li r5, 7\n{pad}add r6, r5, r0\nli r5, 8\nadd r7, r5, r6\nhalt");
        let out = analyse(
            &src,
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: false,
            },
        );
        let removed = all_reasons(&out);
        // li r5, 7 (slot 0 of trace 0) is referenced by trace 1 → killed
        // later but referenced → not dead, and no cross-trace chain forms.
        assert!(
            !removed.iter().any(|&(t, slot, _)| t == 0 && slot == 0),
            "got {removed:?}"
        );
    }

    #[test]
    fn dead_write_killed_from_later_trace_is_still_detected() {
        // An unreferenced write killed by an overwrite in a later trace
        // (within scope) is WW-selected.
        let pad = "addi r20, r20, 1\n".repeat(31); // li + pad fill trace 0 exactly
        let src = format!("li r5, 7\n{pad}li r5, 8\nadd r7, r5, r0\nhalt");
        let out = analyse(
            &src,
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: false,
            },
        );
        let removed = all_reasons(&out);
        assert!(
            removed
                .iter()
                .any(|&(t, slot, r)| t == 0 && slot == 0 && r.contains(Reason::WW)),
            "got {removed:?}"
        );
    }

    #[test]
    fn eviction_reports_stores_with_addresses() {
        let out = analyse(
            "li r1, 4096\nli r2, 1\nst r2, 8(r1)\nstb r2, 100(r1)\nhalt",
            RemovalPolicy::all(),
        );
        let stores: Vec<_> = out.iter().flat_map(|o| o.stores.iter().copied()).collect();
        assert_eq!(stores.len(), 2);
        assert!(stores.contains(&(2, 4104, MemWidth::Word)));
        assert!(stores.contains(&(3, 4196, MemWidth::Byte)));
    }

    #[test]
    fn trace_ids_match_trace_builder_segmentation() {
        let src = "li r1, 50\nloop:\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
        let p = assemble(src).unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 10_000).unwrap();
        let mut tb = TraceBuilder::new();
        let mut want = Vec::new();
        let mut det = IrDetector::new(RemovalPolicy::all(), 8);
        for rec in &trace {
            det.push(rec);
            want.extend(tb.push(rec.pc, &rec.instr, rec.taken));
        }
        if let Some(t) = tb.flush() {
            want.push(t);
        }
        det.finish();
        let got: Vec<_> = outputs(&mut det).into_iter().map(|o| o.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scope_limits_live_analysis() {
        // 20 traces of filler: only outputs for evicted traces should
        // appear before finish().
        let body = "addi r1, r1, 1\n".repeat(32 * 20);
        let p = assemble(&format!("{body}halt")).unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 100_000).unwrap();
        let mut det = IrDetector::new(RemovalPolicy::all(), 8);
        for rec in &trace {
            det.push(rec);
        }
        let before_finish = outputs(&mut det).len();
        assert!(
            before_finish >= 12,
            "evictions must stream out, got {before_finish}"
        );
        det.finish();
        let after = outputs(&mut det).len();
        assert!(after >= 8, "finish flushes the in-scope tail, got {after}");
    }

    #[test]
    fn flush_clears_state() {
        let p = assemble("li r1, 4096\nli r2, 7\nst r2, 0(r1)\nhalt").unwrap();
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 100).unwrap();
        let mut det = IrDetector::new(RemovalPolicy::all(), 8);
        for rec in &trace {
            det.push(rec);
        }
        det.flush();
        det.finish();
        assert!(outputs(&mut det).is_empty());
    }

    /// Loads one of the checked-in `.ssir` corpus reproducers (they live
    /// with the differential-fuzz harness, which replays them through the
    /// full processor; here the detector analyses them in isolation).
    fn corpus_src(name: &str) -> String {
        let path = format!("{}/../bench/corpus/{name}.ssir", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    /// Compact fingerprint of a detector run: one `(ir_vec, len, stores)`
    /// triple per evicted trace, in eviction order.
    fn fingerprint(outputs: &[DetectorOutput]) -> Vec<(u32, u8, usize)> {
        outputs
            .iter()
            .map(|o| (o.info.ir_vec, o.id.len, o.stores.len()))
            .collect()
    }

    /// Arena regression pin: the corpus program whose dynamic stream ends
    /// with a partial trace on a reused stripe. The exact per-trace
    /// removal vectors are pinned so any arena mis-mapping (wrong stripe
    /// modulus, eviction reading past `len` into stale nodes, a stripe
    /// reclaimed too early) fails loudly here even though the full
    /// processor would self-heal it through recovery.
    #[test]
    fn corpus_partial_trace_tail_outputs_are_pinned() {
        let out = analyse(
            &corpus_src("detector_partial_trace_tail"),
            RemovalPolicy::all(),
        );
        let got = fingerprint(&out);
        // Ten full warm-up traces (the loop's removable branch/dead-write
        // pattern), then the 11-slot tail evicted by `finish()` with its
        // dead write (slot 2), silent store (slot 4) and back-propagated
        // chain — and exactly its two stores, none leaked from the stale
        // stripe remainder.
        let mut want: Vec<(u32, u8, usize)> = vec![(0x5555_5550, 32, 0)];
        want.extend(vec![(0x5555_5555, 32, 0); 9]);
        want.push((0b1001_0100, 11, 2));
        assert_eq!(got, want);
    }

    /// Arena regression pin: ≥14 back-to-back short traces (`jr` bounded)
    /// wrapping every arena stripe, with cross-stripe kills and silent
    /// stores. See `corpus_partial_trace_tail_outputs_are_pinned`.
    #[test]
    fn corpus_stripe_wrap_outputs_are_pinned() {
        let out = analyse(&corpus_src("detector_stripe_wrap"), RemovalPolicy::all());
        let got = fingerprint(&out);
        // Prologue + first iteration (12 slots), then 12 jr-bounded
        // 6-slot traces, each with the cross-stripe dead write (slot 1,
        // WW killed from the *next* trace's stripe), the silent store
        // (slot 2) and the removable branch (slot 4); the taken-exit
        // final trace (7 slots) keeps its live accumulator chain.
        let mut want: Vec<(u32, u8, usize)> = vec![(0b0101_1000_1000, 12, 2)];
        want.extend(vec![(0b01_0110, 6, 1); 12]);
        want.push((0b001_0100, 7, 1));
        assert_eq!(got, want);
    }

    /// A consumer that reads one in-trace producer through both sources is
    /// one consumer: 17 `add r2, r1, r1` make 34 reads of the `li`, more
    /// than a trace has slots.
    #[test]
    fn same_source_fanout_counts_each_consumer_once() {
        let src = format!("li r1, 5\n{}halt", "add r2, r1, r1\n".repeat(17));
        let out = analyse(&src, RemovalPolicy::all());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id.len, 19);
        // Every add after the first rewrites the value r2 already holds
        // (SV); the `li`, the first add and the halt stay.
        let removed = all_reasons(&out);
        let slots: Vec<usize> = removed.iter().map(|&(_, i, _)| i).collect();
        assert_eq!(slots, (2..=17).collect::<Vec<_>>());
        assert!(removed.iter().all(|&(_, _, r)| r.contains(Reason::SV)));
    }

    #[test]
    fn byte_word_overlap_is_conservative() {
        // A word store followed by a byte store into its middle, then a
        // word load: nothing should be claimed dead or silent.
        let out = analyse(
            r#"
            li r1, 4096
            li r2, 0x1111
            st r2, 0(r1)
            li r3, 0x22
            stb r3, 2(r1)
            ld r4, 0(r1)
            add r5, r4, r0
            halt
            "#,
            RemovalPolicy {
                branches: false,
                dead_writes: true,
                silent_writes: true,
            },
        );
        let removed = all_reasons(&out);
        assert!(
            !removed.iter().any(|&(_, slot, _)| slot == 2 || slot == 4),
            "overlapping stores must be pinned, got {removed:?}"
        );
    }
}
