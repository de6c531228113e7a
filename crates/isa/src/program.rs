use crate::instr::Instr;
use crate::mem::Memory;

/// Default base address of the text segment.
pub(crate) const DEFAULT_TEXT_BASE: u64 = 0x1000;

/// An assembled SSIR program: a read-only text segment plus initialised
/// data segments.
///
/// Instructions occupy 4 bytes of PC space each (there is no binary
/// encoding — the simulators fetch `Instr` values directly; the paper's
/// mechanisms never inspect instruction bytes). Text is immutable: SSIR has
/// no self-modifying code, so the A-stream and R-stream can share one
/// `Program` while owning private [`Memory`] images for data.
#[derive(Debug, Clone)]
pub struct Program {
    text_base: u64,
    instrs: Vec<Instr>,
    data: Vec<(u64, Vec<u8>)>,
}

impl Program {
    /// Creates a program from raw parts. Most callers use
    /// [`crate::assemble`] or [`ProgramBuilder`] instead.
    pub fn new(text_base: u64, instrs: Vec<Instr>, data: Vec<(u64, Vec<u8>)>) -> Program {
        Program {
            text_base,
            instrs,
            data,
        }
    }

    /// Base address of the text segment (also the entry point).
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// Entry-point PC.
    pub fn entry(&self) -> u64 {
        self.text_base
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// End of the text segment (one past the last instruction).
    pub fn text_end(&self) -> u64 {
        self.text_base + 4 * self.instrs.len() as u64
    }

    /// The instruction at `pc`, or `None` if `pc` is outside the text
    /// segment or not 4-byte aligned.
    pub fn instr_at(&self, pc: u64) -> Option<&Instr> {
        if pc < self.text_base || !(pc - self.text_base).is_multiple_of(4) {
            return None;
        }
        self.instrs.get(((pc - self.text_base) / 4) as usize)
    }

    /// All instructions, in text order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Writes the initialised data segments into a memory image.
    pub fn load_data(&self, mem: &mut Memory) {
        for (addr, bytes) in &self.data {
            mem.write_bytes(*addr, bytes);
        }
    }

    /// A fresh memory image with this program's data loaded.
    pub fn initial_memory(&self) -> Memory {
        let mut mem = Memory::new();
        self.load_data(&mut mem);
        mem
    }

    // ---- reduction helpers (test-case minimization) ----------------------
    //
    // A shrinker reduces a failing program by *rewriting* instructions in
    // place — nop-ing a slot keeps every PC and branch target valid — and
    // only at the very end deletes the accumulated `nop`s with
    // [`Program::compacted`], which remaps control-flow targets.

    /// PC of the instruction at text `index` (valid for `index <= len()`;
    /// `len()` yields [`Program::text_end`]).
    pub fn pc_of(&self, index: usize) -> u64 {
        self.text_base + 4 * index as u64
    }

    /// Text index of `pc`, or `None` if `pc` is misaligned or outside the
    /// text segment.
    pub fn index_of(&self, pc: u64) -> Option<usize> {
        if pc < self.text_base || !(pc - self.text_base).is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - self.text_base) / 4) as usize;
        (idx < self.instrs.len()).then_some(idx)
    }

    /// A copy with the instruction at `index` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn with_replaced(&self, index: usize, instr: Instr) -> Program {
        let mut p = self.clone();
        p.instrs[index] = instr;
        p
    }

    /// A copy with every instruction named by `indices` rewritten to
    /// `nop` — structure-preserving deletion: instruction positions, PCs,
    /// and branch targets all stay valid. Out-of-range indices are ignored.
    pub fn with_nops<I: IntoIterator<Item = usize>>(&self, indices: I) -> Program {
        let mut p = self.clone();
        for i in indices {
            if let Some(slot) = p.instrs.get_mut(i) {
                *slot = Instr::Nop;
            }
        }
        p
    }

    /// A copy with every `nop` deleted and all in-text control-flow targets
    /// remapped to the surviving instructions.
    ///
    /// A target that pointed at a deleted `nop` is redirected to the next
    /// surviving instruction (falling through a `nop` and branching past it
    /// are equivalent); a target at or past [`Program::text_end`] maps to
    /// the new text end. Targets outside the text segment are left
    /// untouched. Note that `jal` link values change with the layout, so
    /// callers that care must re-validate the compacted program.
    pub fn compacted(&self) -> Program {
        // kept_before[i] = number of surviving instructions at indices < i;
        // it doubles as the new index of the first survivor at-or-after i.
        let mut kept_before = Vec::with_capacity(self.instrs.len() + 1);
        let mut kept = 0usize;
        for instr in &self.instrs {
            kept_before.push(kept);
            if !matches!(instr, Instr::Nop) {
                kept += 1;
            }
        }
        kept_before.push(kept);
        let remap = |target: u64| -> u64 {
            if target == self.text_end() {
                return self.text_base + 4 * kept as u64;
            }
            match self.index_of(target) {
                Some(idx) => self.text_base + 4 * kept_before[idx] as u64,
                None => target,
            }
        };
        let instrs: Vec<Instr> = self
            .instrs
            .iter()
            .filter(|i| !matches!(i, Instr::Nop))
            .map(|&i| {
                let mut i = i;
                if let Some(target) = i.target_mut() {
                    *target = remap(*target);
                }
                i
            })
            .collect();
        Program::new(self.text_base, instrs, self.data.clone())
    }
}

/// Programmatic construction of [`Program`]s, used by workload generators
/// and tests that don't want to go through assembly text.
///
/// ```
/// use slipstream_isa::{Instr, ProgramBuilder, Reg};
/// let r1 = Reg::new(1);
/// let mut b = ProgramBuilder::new();
/// b.push(Instr::Li { d: r1, imm: 3 });
/// b.push(Instr::Halt);
/// let program = b.build();
/// assert_eq!(program.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    text_base: u64,
    instrs: Vec<Instr>,
    data: Vec<(u64, Vec<u8>)>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder with the default text base (`0x1000`).
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            text_base: DEFAULT_TEXT_BASE,
            instrs: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Overrides the text base address.
    pub fn text_base(&mut self, base: u64) -> &mut Self {
        self.text_base = base;
        self
    }

    /// The PC the *next* pushed instruction will occupy — handy for
    /// computing branch targets while emitting code.
    pub fn here(&self) -> u64 {
        self.text_base + 4 * self.instrs.len() as u64
    }

    /// Number of instructions pushed so far (the text index the next push
    /// will occupy — used by generators that record structural spans).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no instructions have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends one instruction, returning its PC.
    pub fn push(&mut self, instr: Instr) -> u64 {
        let pc = self.here();
        self.instrs.push(instr);
        pc
    }

    /// Appends many instructions.
    pub fn extend<I: IntoIterator<Item = Instr>>(&mut self, instrs: I) -> &mut Self {
        self.instrs.extend(instrs);
        self
    }

    /// Replaces the instruction at `pc` (used to backpatch forward branch
    /// targets).
    ///
    /// # Panics
    ///
    /// Panics if `pc` does not name an already-pushed instruction.
    pub fn patch(&mut self, pc: u64, instr: Instr) {
        let idx = pc
            .checked_sub(self.text_base)
            .map(|off| (off / 4) as usize)
            .filter(|&i| i < self.instrs.len())
            .unwrap_or_else(|| panic!("patch target {pc:#x} is not an emitted instruction"));
        self.instrs[idx] = instr;
    }

    /// Adds an initialised data segment.
    pub fn data(&mut self, addr: u64, bytes: Vec<u8>) -> &mut Self {
        self.data.push((addr, bytes));
        self
    }

    /// Adds a data segment of 8-byte little-endian words.
    pub fn data_words(&mut self, addr: u64, words: &[u64]) -> &mut Self {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.data(addr, bytes)
    }

    /// Finishes construction.
    pub fn build(self) -> Program {
        Program::new(self.text_base, self.instrs, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn nop_program(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        for _ in 0..n {
            b.push(Instr::Nop);
        }
        b.build()
    }

    #[test]
    fn instr_at_bounds_and_alignment() {
        let p = nop_program(3);
        assert!(p.instr_at(0x1000).is_some());
        assert!(p.instr_at(0x1008).is_some());
        assert!(p.instr_at(0x100c).is_none()); // past the end
        assert!(p.instr_at(0x1002).is_none()); // misaligned
        assert!(p.instr_at(0xff0).is_none()); // below base
        assert_eq!(p.text_end(), 0x100c);
    }

    #[test]
    fn builder_here_tracks_pcs() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.here(), 0x1000);
        let pc0 = b.push(Instr::Nop);
        assert_eq!(pc0, 0x1000);
        assert_eq!(b.here(), 0x1004);
    }

    #[test]
    fn builder_patch_backpatches() {
        let mut b = ProgramBuilder::new();
        let hole = b.push(Instr::Nop);
        b.push(Instr::Halt);
        let target = b.here();
        b.patch(hole, Instr::J { target });
        let p = b.build();
        assert_eq!(p.instr_at(hole), Some(&Instr::J { target }));
    }

    #[test]
    #[should_panic(expected = "not an emitted instruction")]
    fn patch_rejects_unknown_pc() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Nop);
        b.patch(0x9999, Instr::Nop);
    }

    #[test]
    fn data_segments_load_into_memory() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Halt);
        b.data_words(0x10_0000, &[11, 22]);
        b.data(0x20_0000, vec![0xaa]);
        let p = b.build();
        let mem = p.initial_memory();
        assert_eq!(mem.load_word(0x10_0000), 11);
        assert_eq!(mem.load_word(0x10_0008), 22);
        assert_eq!(mem.load_byte(0x20_0000), 0xaa);
    }

    #[test]
    fn index_pc_roundtrip() {
        let p = nop_program(4);
        assert_eq!(p.pc_of(0), 0x1000);
        assert_eq!(p.pc_of(3), 0x100c);
        assert_eq!(p.index_of(0x100c), Some(3));
        assert_eq!(p.index_of(0x1010), None); // text_end
        assert_eq!(p.index_of(0x1002), None); // misaligned
        assert_eq!(p.index_of(0xff8), None); // below base
    }

    #[test]
    fn with_nops_and_replaced_rewrite_in_place() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Li {
            d: Reg::new(1),
            imm: 1,
        });
        b.push(Instr::Li {
            d: Reg::new(2),
            imm: 2,
        });
        b.push(Instr::Halt);
        let p = b.build();
        let q = p.with_nops([0]);
        assert_eq!(q.instrs()[0], Instr::Nop);
        assert_eq!(q.instrs()[1], p.instrs()[1]);
        assert_eq!(q.len(), p.len(), "nop-ing preserves layout");
        let r = p.with_replaced(
            1,
            Instr::Li {
                d: Reg::new(2),
                imm: 0,
            },
        );
        assert_eq!(
            r.instrs()[1],
            Instr::Li {
                d: Reg::new(2),
                imm: 0
            }
        );
        // Out-of-range nop indices are ignored.
        assert_eq!(p.with_nops([99]).instrs(), p.instrs());
    }

    #[test]
    fn compacted_drops_nops_and_remaps_targets() {
        // 0: beq r0, r0, 0x1010 (over the nops, onto the li)
        // 1: nop
        // 2: nop
        // 3: j 0x1008           (at a nop: redirects to the next survivor,
        //                        which is the j itself at new pc 0x1004)
        // 4: li r1, 7
        // 5: halt
        let mut b = ProgramBuilder::new();
        b.push(Instr::Beq {
            a: Reg::ZERO,
            b: Reg::ZERO,
            target: 0x1010,
        });
        b.push(Instr::Nop);
        b.push(Instr::Nop);
        b.push(Instr::J { target: 0x1008 });
        b.push(Instr::Li {
            d: Reg::new(1),
            imm: 7,
        });
        b.push(Instr::Halt);
        let p = b.build().compacted();
        assert_eq!(p.len(), 4);
        assert_eq!(
            p.instrs()[0],
            Instr::Beq {
                a: Reg::ZERO,
                b: Reg::ZERO,
                target: 0x1008, // li moved from index 4 to index 2
            }
        );
        assert_eq!(p.instrs()[1], Instr::J { target: 0x1004 });
        assert_eq!(
            p.instrs()[2],
            Instr::Li {
                d: Reg::new(1),
                imm: 7
            }
        );
        assert_eq!(p.instrs()[3], Instr::Halt);
    }

    #[test]
    fn compacted_maps_text_end_and_foreign_targets() {
        let mut b = ProgramBuilder::new();
        b.push(Instr::Nop);
        let end = 0x100c; // text_end of the 3-instruction program
        b.push(Instr::Beq {
            a: Reg::ZERO,
            b: Reg::ZERO,
            target: end,
        });
        b.push(Instr::J { target: 0x9000 }); // outside the text segment
        let p = b.build().compacted();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.instrs()[0],
            Instr::Beq {
                a: Reg::ZERO,
                b: Reg::ZERO,
                target: 0x1008, // new text_end
            }
        );
        assert_eq!(p.instrs()[1], Instr::J { target: 0x9000 });
    }

    #[test]
    fn custom_text_base() {
        let mut b = ProgramBuilder::new();
        b.text_base(0x4000);
        b.push(Instr::Li {
            d: Reg::new(1),
            imm: 1,
        });
        let p = b.build();
        assert_eq!(p.entry(), 0x4000);
        assert!(p.instr_at(0x4000).is_some());
        assert!(p.instr_at(0x1000).is_none());
    }
}
