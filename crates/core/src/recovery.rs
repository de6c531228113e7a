//! The recovery controller (paper §2.3, Figure 4): tracks the memory
//! addresses that may need repair when an IR-misprediction is detected,
//! and performs the repair.
//!
//! Two kinds of addresses are tracked:
//!
//! - **undo** — stores retired by the A-stream whose companion store has
//!   not yet retired in the R-stream ("store 1" in Figure 4). If recovery
//!   strikes in that window, the A-stream's store must be undone (the
//!   location takes the R-stream's current value). The delay buffer is
//!   this list: an executed entry stays in its ring from the A-stream's
//!   push until the R-stream retires it. The controller keeps no copy; it
//!   latches the ring's executed stores when recovery starts
//!   ([`RecoveryController::latch_undo`]).
//! - **do** — stores *skipped* by the A-stream, tracked from the moment
//!   the R-stream retires them until the IR-detector verifies the removal
//!   was truly ineffectual ("store 2"). If recovery strikes first, the
//!   skipped store is done in the A-stream by copying from the R-stream.
//!
//! Both cases reduce to the same repair: copy the tracked bytes from the
//! R-stream's memory image to the A-stream's. Together with the full
//! register-file copy this restores the A-stream context exactly (the
//! integration tests assert bit-identical contexts after every recovery).

use slipstream_isa::{FastHashMap, MemWidth, Memory};

use crate::delay::DelayBuffer;

/// Tracks potentially-corrupted A-stream memory locations and repairs the
/// A-stream context from the R-stream context.
#[derive(Debug, Clone, Default)]
pub struct RecoveryController {
    /// (addr, width) → outstanding count: skipped in A, unverified.
    do_: FastHashMap<(u64, MemWidth), u32>,
    /// The undo list as last latched from the delay buffer: distinct
    /// (addr, width) pairs, sorted. Kept between recoveries so latching
    /// reuses its allocation.
    undo: Vec<(u64, MemWidth)>,
}

impl RecoveryController {
    /// An empty controller.
    pub fn new() -> RecoveryController {
        RecoveryController::default()
    }

    /// R-stream retired a store the A-stream skipped: begin do-tracking.
    pub fn add_do(&mut self, addr: u64, width: MemWidth) {
        *self.do_.entry((addr, width)).or_insert(0) += 1;
    }

    /// IR-detector verified a skipped store was truly ineffectual: end
    /// do-tracking for one instance.
    pub fn remove_do(&mut self, addr: u64, width: MemWidth) {
        if let Some(c) = self.do_.get_mut(&(addr, width)) {
            *c -= 1;
            if *c == 0 {
                self.do_.remove(&(addr, width));
            }
        }
    }

    /// Latches the undo list: the location of every executed store `delay`
    /// holds, queued or in flight in the R-core. Recovery calls this before
    /// it clears the buffer.
    pub fn latch_undo(&mut self, delay: &DelayBuffer) {
        self.undo.clear();
        for e in delay.held() {
            if e.is_skipped() || !e.instr.is_store() {
                continue;
            }
            if let (Some(addr), Some(w)) = (e.addr(), e.instr.mem_width()) {
                self.undo.push((addr, w));
            }
        }
        self.undo.sort_unstable();
        self.undo.dedup();
    }

    /// Number of distinct tracked locations (either kind), with the undo
    /// list as last latched.
    pub fn tracked(&self) -> usize {
        // Locations present in both lists are still one restore each.
        let do_only = self
            .do_
            .keys()
            .filter(|k| self.undo.binary_search(k).is_err());
        self.undo.len() + do_only.count()
    }

    /// The memory repair: copies every tracked location from the
    /// R-stream image `r_mem` into the A-stream image `a_mem`, clears all
    /// tracking, and returns the number of locations restored. Every value
    /// comes from the one `r_mem` image, so the HashMap iteration order is
    /// immaterial even for overlapping ranges. (Register repair — copying
    /// the whole register file — is performed by the caller on the cores
    /// themselves.)
    pub fn repair(&mut self, r_mem: &Memory, a_mem: &mut Memory) -> usize {
        let restored = self.tracked();
        for &(addr, width) in self.undo.iter().chain(self.do_.keys()) {
            a_mem.store(addr, width, r_mem.load(addr, width));
        }
        self.undo.clear();
        self.do_.clear();
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use slipstream_isa::{assemble, ArchState, Retired};

    use crate::delay::DelayEntry;
    use crate::removal::Reason;

    /// The retired stores of `src`, in program order.
    fn stores(src: &str) -> Vec<Retired> {
        let p = assemble(src).expect("test program assembles");
        let mut st = ArchState::new(&p);
        let trace = st.run(&p, 1_000).expect("halts");
        trace.into_iter().filter(|r| r.instr.is_store()).collect()
    }

    fn latched(rc: &mut RecoveryController, db: &DelayBuffer) -> usize {
        rc.latch_undo(db);
        rc.tracked()
    }

    /// An executed store is undo-tracked while the delay buffer holds it,
    /// queued or in flight in the R-core, and untracked once released.
    #[test]
    fn undo_lifecycle() {
        let st = stores("li r1, 256\nli r2, 7\nst r2, 0(r1)\nst r2, 0(r1)\nhalt");
        let mut db = DelayBuffer::new(8, 8);
        let mut rc = RecoveryController::new();
        db.push(DelayEntry::executed(&st[0], false));
        db.push(DelayEntry::executed(&st[1], false));
        assert_eq!(
            latched(&mut rc, &db),
            1,
            "one location, however many stores"
        );
        db.pop();
        assert_eq!(latched(&mut rc, &db), 1, "queued and in flight");
        db.pop();
        assert_eq!(latched(&mut rc, &db), 1, "in flight in the R-core");
        db.release();
        db.release();
        assert_eq!(latched(&mut rc, &db), 0, "retired in the R-stream");
    }

    /// A skipped store is do-tracked until `remove_do`, whatever the delay
    /// buffer holds; a location in both lists is one restore.
    #[test]
    fn do_lifecycle_and_overlap_counting() {
        let st = stores("li r1, 512\nli r2, 7\nst r2, 0(r1)\nhalt");
        let s = &st[0];
        let mut db = DelayBuffer::new(8, 8);
        let mut rc = RecoveryController::new();
        db.push(DelayEntry::skipped(
            s.pc,
            s.instr,
            s.next_pc,
            false,
            Reason::NONE,
        ));
        assert_eq!(latched(&mut rc, &db), 0, "a skipped store undoes nothing");
        db.pop();
        db.release();
        rc.add_do(512, MemWidth::Word);
        rc.add_do(512, MemWidth::Word);
        assert_eq!(latched(&mut rc, &db), 1, "tracked after its entry left");
        rc.remove_do(512, MemWidth::Word);
        assert_eq!(latched(&mut rc, &db), 1, "one instance still outstanding");

        db.push(DelayEntry::executed(s, false));
        assert_eq!(latched(&mut rc, &db), 1, "same location in both lists");
        rc.add_do(520, MemWidth::Byte);
        assert_eq!(rc.tracked(), 2);
        rc.remove_do(512, MemWidth::Word);
        rc.remove_do(520, MemWidth::Byte);
        assert_eq!(rc.tracked(), 1, "the undo entry remains");
    }

    #[test]
    fn repair_copies_tracked_bytes_and_clears() {
        let mut a = Memory::new();
        let mut r = Memory::new();
        a.store_word(0x100, 111); // A diverged here
        r.store_word(0x100, 222);
        a.store_word(0x900, 5); // untracked difference stays
        r.store_word(0x900, 6);
        r.store_byte(0x300, 0xbb); // A skipped this byte store

        let st = stores("li r1, 0x100\nli r2, 111\nst r2, 0(r1)\nhalt");
        let mut db = DelayBuffer::new(8, 8);
        db.push(DelayEntry::executed(&st[0], false));
        let mut rc = RecoveryController::new();
        rc.add_do(0x300, MemWidth::Byte);
        rc.latch_undo(&db);
        assert_eq!(rc.repair(&r, &mut a), 2);
        assert_eq!(rc.tracked(), 0, "repair clears tracking");
        assert_eq!(a.load_word(0x100), 222);
        assert_eq!(a.load_byte(0x300), 0xbb);
        assert_eq!(a.load_word(0x900), 5, "untracked locations untouched");
    }

    #[test]
    fn remove_of_untracked_is_harmless() {
        let mut rc = RecoveryController::new();
        rc.remove_do(0x2, MemWidth::Byte);
        assert_eq!(rc.tracked(), 0);
    }
}
