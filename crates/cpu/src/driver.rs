use slipstream_isa::{Instr, Retired};

/// One instruction slot handed to the core by its control-flow supplier.
///
/// The core never consults the program text itself: whoever drives it (a
/// trace-predictor front end, the delay buffer, an oracle) resolves PCs to
/// instructions and decides the predicted path. This is what lets one core
/// implementation serve the superscalar baselines, the A-stream (with
/// instructions removed), and the R-stream (fed from the delay buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchItem {
    /// Address of the instruction.
    pub pc: u64,
    /// The instruction at `pc`.
    pub instr: Instr,
    /// Predicted next PC *in the supplied stream* — i.e. the PC of the next
    /// item the driver intends to supply. Dispatch compares the actual
    /// next PC against this to detect control mispredictions.
    pub pred_npc: u64,
    /// Predicted conditional-branch outcome (`None` for non-branches).
    pub pred_taken: Option<bool>,
    /// Whether this instruction starts a new fetch block: a fresh fetch
    /// cycle must begin here (targets of taken branches/jumps, skip-chunk
    /// landing points, post-redirect restart).
    pub new_block: bool,
    /// Fetch slots this item consumes: 1 plus any immediately preceding
    /// removed-but-fetched instructions in the same block (the paper's
    /// ir-vec collapses those after fetch, before decode — they cost fetch
    /// bandwidth but not dispatch bandwidth).
    pub slot_cost: u32,
    /// Opaque driver tag, echoed back in [`CoreDriver::on_dispatch`],
    /// [`CoreDriver::on_retire`], and [`CoreDriver::on_redirect`] so the
    /// driver can correlate pipeline events with its own bookkeeping.
    pub meta: u64,
}

// Copied into the core's fetch buffer and out at dispatch, once per
// instruction: a field that fattens it must raise this pin.
const _: () = assert!(
    std::mem::size_of::<FetchItem>() <= 48,
    "FetchItem grew past 48 bytes; shrink it or deliberately raise this pin"
);

impl FetchItem {
    /// A plain sequential item: predicts fall-through, costs one slot.
    pub fn sequential(pc: u64, instr: Instr) -> FetchItem {
        FetchItem {
            pc,
            instr,
            pred_npc: pc + 4,
            pred_taken: instr.is_branch().then_some(false),
            new_block: false,
            slot_cost: 1,
            meta: 0,
        }
    }
}

/// Per-instruction hints returned by the driver at dispatch, implementing
/// the paper's value communication: operands whose values arrived from the
/// A-stream via the delay buffer are treated as ready immediately (value
/// prediction at the rename stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchHints {
    /// First source operand's value was predicted — don't wait for its
    /// producer.
    pub src1_predicted: bool,
    /// Second source operand's value was predicted.
    pub src2_predicted: bool,
}

/// Why a driver is (or is about to be) withholding work from its core this
/// cycle — a cycle-accounting hint sampled once at the top of every core
/// cycle. It carries no timing information and the core makes no timing
/// decision from it; it only routes otherwise-idle cycles to the right
/// [`crate::CpiCat`] bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DriverStall {
    /// Not stalled (or the driver doesn't report causes).
    #[default]
    None,
    /// The driver has nothing to supply (e.g. the R-stream's delay buffer
    /// is empty).
    Starved,
    /// Downstream back-pressure is throttling the core (e.g. the A-stream
    /// blocked on a full delay buffer via `retire_capacity`).
    Backpressure,
    /// The stream is frozen pending recovery (e.g. the R-stream between
    /// IR-misprediction detection and the A-stream's squash).
    Frozen,
}

/// The control-flow and observation interface a [`crate::Core`] is driven
/// by.
///
/// Call order within one simulated cycle:
///
/// 1. [`CoreDriver::stall_kind`], sampled once before any stage runs;
/// 2. [`CoreDriver::on_redirect`], if a mispredicted instruction resolved;
/// 3. [`CoreDriver::retire_capacity`], then [`CoreDriver::on_retire`] per
///    retiring instruction;
/// 4. [`CoreDriver::on_dispatch`] per dispatching instruction;
/// 5. [`CoreDriver::next_fetch`], only when the core has fetched every item
///    it pulled before: then up to `fetch_width` times in a row, stopping
///    at the first `None`.
pub trait CoreDriver {
    /// Supplies the next instruction on the predicted path, or `None` to
    /// let fetch idle this cycle (e.g. delay buffer empty, program done).
    fn next_fetch(&mut self) -> Option<FetchItem>;

    /// A control misprediction resolved: `resolved` is the offending
    /// instruction's functional record; fetch restarts at
    /// `resolved.next_pc`. The driver must resynchronize its predictor
    /// state. Everything it supplied after this instruction was discarded.
    fn on_redirect(&mut self, resolved: &Retired, meta: u64);

    /// Called in program order as each instruction dispatches (with its
    /// functional outcome already computed). Returns value-prediction
    /// hints for the issue timing model.
    fn on_dispatch(&mut self, rec: &Retired, meta: u64) -> DispatchHints {
        let _ = (rec, meta);
        DispatchHints::default()
    }

    /// Called in program order as each instruction retires.
    fn on_retire(&mut self, rec: &Retired, meta: u64) {
        let _ = (rec, meta);
    }

    /// Maximum instructions the core may retire this cycle beyond the
    /// machine's retire width (used to model delay-buffer back-pressure on
    /// the A-stream). Defaults to unlimited.
    fn retire_capacity(&mut self) -> usize {
        usize::MAX
    }

    /// Cycle-accounting hint: why the driver is withholding or throttling
    /// work right now. Sampled once at the top of each core cycle, before
    /// retire/fetch run; never read by any timing decision. Defaults to
    /// [`DriverStall::None`].
    fn stall_kind(&self) -> DriverStall {
        DriverStall::None
    }
}
