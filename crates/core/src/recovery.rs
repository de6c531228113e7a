//! The recovery controller (paper §2.3, Figure 4): tracks the memory
//! addresses that may need repair when an IR-misprediction is detected,
//! and performs the repair.
//!
//! Two kinds of addresses are tracked:
//!
//! - **undo** — stores retired by the A-stream whose companion store has
//!   not yet retired in the R-stream ("store 1" in Figure 4). If recovery
//!   strikes in that window, the A-stream's store must be undone (the
//!   location takes the R-stream's current value).
//! - **do** — stores *skipped* by the A-stream, tracked from the moment
//!   the R-stream retires them until the IR-detector verifies the removal
//!   was truly ineffectual ("store 2"). If recovery strikes first, the
//!   skipped store is done in the A-stream by copying from the R-stream.
//!
//! Both cases reduce to the same repair: copy the tracked bytes from the
//! R-stream's memory image to the A-stream's. Together with the full
//! register-file copy this restores the A-stream context exactly (the
//! integration tests assert bit-identical contexts after every recovery).

use slipstream_isa::FastHashMap;

use slipstream_isa::{MemWidth, Memory, NUM_REGS};

/// Tracks potentially-corrupted A-stream memory locations and repairs the
/// A-stream context from the R-stream context.
#[derive(Debug, Clone, Default)]
pub struct RecoveryController {
    /// (addr, width) → outstanding count: A-retired, R-companion pending.
    undo: FastHashMap<(u64, MemWidth), u32>,
    /// (addr, width) → outstanding count: skipped in A, unverified.
    do_: FastHashMap<(u64, MemWidth), u32>,
}

impl RecoveryController {
    /// An empty controller.
    pub fn new() -> RecoveryController {
        RecoveryController::default()
    }

    /// A-stream retired a store: begin undo-tracking.
    pub fn add_undo(&mut self, addr: u64, width: MemWidth) {
        *self.undo.entry((addr, width)).or_insert(0) += 1;
    }

    /// R-stream retired the companion of an A-executed store: end
    /// undo-tracking for one instance.
    pub fn remove_undo(&mut self, addr: u64, width: MemWidth) {
        if let Some(c) = self.undo.get_mut(&(addr, width)) {
            *c -= 1;
            if *c == 0 {
                self.undo.remove(&(addr, width));
            }
        }
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

    /// Number of distinct tracked locations (either kind).
    pub fn tracked(&self) -> usize {
        // Locations present in both sets are still one restore each.
        let mut n = self.undo.len();
        for k in self.do_.keys() {
            if !self.undo.contains_key(k) {
                n += 1;
            }
        }
        n
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
        for &(addr, width) in self.undo.keys().chain(self.do_.keys()) {
            a_mem.store(addr, width, r_mem.load(addr, width));
        }
        self.undo.clear();
        self.do_.clear();
        restored
    }

    /// Recovery latency for this event, per the paper's recovery pipeline:
    /// `startup + NUM_REGS/restores_per_cycle + mem/restores_per_cycle`.
    ///
    /// The schedulers impose this via `Core::stall_fetch_recovery`, so the
    /// CPI stack attributes every one of these cycles to its `recovery`
    /// bucket (not the generic external-stall bucket).
    pub fn latency(&self, startup: u64, per_cycle: u64) -> u64 {
        startup
            + (NUM_REGS as u64).div_ceil(per_cycle)
            + (self.tracked() as u64).div_ceil(per_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_lifecycle() {
        let mut rc = RecoveryController::new();
        rc.add_undo(0x100, MemWidth::Word);
        rc.add_undo(0x100, MemWidth::Word);
        assert_eq!(rc.tracked(), 1);
        rc.remove_undo(0x100, MemWidth::Word);
        assert_eq!(rc.tracked(), 1, "one instance still outstanding");
        rc.remove_undo(0x100, MemWidth::Word);
        assert_eq!(rc.tracked(), 0);
    }

    #[test]
    fn do_lifecycle_and_overlap_counting() {
        let mut rc = RecoveryController::new();
        rc.add_do(0x200, MemWidth::Word);
        rc.add_undo(0x200, MemWidth::Word);
        assert_eq!(rc.tracked(), 1, "same location in both sets counts once");
        rc.add_do(0x300, MemWidth::Byte);
        assert_eq!(rc.tracked(), 2);
        rc.remove_do(0x200, MemWidth::Word);
        rc.remove_do(0x300, MemWidth::Byte);
        assert_eq!(rc.tracked(), 1);
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

        let mut rc = RecoveryController::new();
        rc.add_undo(0x100, MemWidth::Word);
        rc.add_do(0x300, MemWidth::Byte);
        assert_eq!(rc.repair(&r, &mut a), 2);
        assert_eq!(rc.tracked(), 0, "repair clears tracking");
        assert_eq!(a.load_word(0x100), 222);
        assert_eq!(a.load_byte(0x300), 0xbb);
        assert_eq!(a.load_word(0x900), 5, "untracked locations untouched");
    }

    #[test]
    fn latency_matches_paper_arithmetic() {
        let mut rc = RecoveryController::new();
        assert_eq!(rc.latency(5, 4), 21, "minimum latency: 5 + 64/4");
        rc.add_undo(0x10, MemWidth::Word);
        assert_eq!(rc.latency(5, 4), 22);
        for i in 0..5 {
            rc.add_undo(0x100 + i * 8, MemWidth::Word);
        }
        // 6 locations → ceil(6/4) = 2 memory cycles.
        assert_eq!(rc.latency(5, 4), 23);
    }

    #[test]
    fn remove_of_untracked_is_harmless() {
        let mut rc = RecoveryController::new();
        rc.remove_undo(0x1, MemWidth::Word);
        rc.remove_do(0x2, MemWidth::Byte);
        assert_eq!(rc.tracked(), 0);
    }
}
