use crate::fasthash::FastHashMap;
use std::cell::Cell;
use std::sync::Arc;

use crate::instr::{MemRead, MemWidth};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

type Page = [u8; PAGE_SIZE];

/// Slot sentinel for the one-entry page cache: no page cached.
const NO_PAGE: u64 = u64::MAX;

static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// Sparse, paged, byte-addressable data memory.
///
/// Unmapped bytes read as zero; pages are allocated on first write. Pages
/// are reference-counted and copy-on-write: cloning a `Memory` shares every
/// page (O(pages) pointer copies, no byte copies), and a clone's pages are
/// only duplicated when one side writes to them. This is how "process
/// replication" in the paper is modelled cheaply: the A-stream and R-stream
/// each own a logically private copy of the program's memory, physically
/// sharing all pages neither has written, and the recovery controller
/// copies individual locations from one image to the other.
///
/// The hot path is tuned for the simulator's access pattern:
/// - aligned (and any non-page-straddling) 8-byte accesses resolve with a
///   single page lookup and one 8-byte slice copy, not 8 byte probes;
/// - a one-entry last-page cache short-circuits the page-table lookup for
///   consecutive accesses to the same page (the overwhelmingly common
///   case), which makes the cache's interior mutability the reason
///   `Memory` is intentionally not `Sync`;
/// - bulk [`Memory::write_bytes`] copies per-page slices, and
///   [`Memory::first_difference`] compares whole pages (skipping pages the
///   two images still share) before ever looking at individual bytes.
///
/// ```
/// use slipstream_isa::Memory;
/// let mut mem = Memory::new();
/// mem.store_word(0x1000, 42);
/// assert_eq!(mem.load_word(0x1000), 42);
/// assert_eq!(mem.load_word(0x9999_0000), 0); // unmapped reads are zero
/// ```
#[derive(Debug)]
pub struct Memory {
    /// Page number → slot in `pages`/`page_nos`.
    index: FastHashMap<u64, u32>,
    /// Page data, copy-on-write shared between clones.
    pages: Vec<Arc<Page>>,
    /// Page number of each slot (parallel to `pages`).
    page_nos: Vec<u64>,
    /// Last page hit: `(page number, slot)` — a spatial-locality cache that
    /// skips the hash lookup for repeated accesses to one page.
    last: Cell<(u64, u32)>,
}

// `clone_from` reuses the destination's index and slot vectors (the pages
// themselves are already shared copy-on-write): checkpoint-heavy callers
// snapshot a `Memory` every window, and the derived impl would
// re-allocate all three containers each time.
crate::clone_in_place!(Memory {
    index,
    pages,
    page_nos,
    last
});

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            index: FastHashMap::default(),
            pages: Vec::new(),
            page_nos: Vec::new(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory image.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Slot of page `pno`, consulting the one-entry cache first.
    #[inline]
    fn slot_of(&self, pno: u64) -> Option<u32> {
        let (cached_pno, cached_slot) = self.last.get();
        if cached_pno == pno {
            return Some(cached_slot);
        }
        let slot = *self.index.get(&pno)?;
        self.last.set((pno, slot));
        Some(slot)
    }

    /// Read access to page `pno`, if resident.
    #[inline]
    fn page(&self, pno: u64) -> Option<&Page> {
        self.slot_of(pno).map(|s| &*self.pages[s as usize])
    }

    /// The refcounted page `pno`, if resident (for sharing checks).
    #[inline]
    fn page_arc(&self, pno: u64) -> Option<&Arc<Page>> {
        self.slot_of(pno).map(|s| &self.pages[s as usize])
    }

    /// Write access to page `pno`, allocating it (zeroed) on first touch
    /// and un-sharing it (copy-on-write) if a clone still references it.
    #[inline]
    fn page_mut(&mut self, pno: u64) -> &mut Page {
        let slot = match self.slot_of(pno) {
            Some(s) => s,
            None => {
                let s = self.pages.len() as u32;
                self.pages.push(Arc::new(ZERO_PAGE));
                self.page_nos.push(pno);
                self.index.insert(pno, s);
                self.last.set((pno, s));
                s
            }
        };
        Arc::make_mut(&mut self.pages[slot as usize])
    }

    /// Reads one byte.
    #[inline]
    pub fn load_byte(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn store_byte(&mut self, addr: u64, value: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads an 8-byte little-endian word. Unaligned access is allowed;
    /// only words straddling a page boundary fall back to byte probes.
    #[inline]
    pub fn load_word(&self, addr: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            match self.page(addr >> PAGE_SHIFT) {
                Some(page) => {
                    u64::from_le_bytes(page[off..off + 8].try_into().expect("8-byte slice"))
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.load_byte(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Writes an 8-byte little-endian word. Unaligned access is allowed;
    /// only words straddling a page boundary fall back to byte stores.
    #[inline]
    pub fn store_word(&mut self, addr: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.store_byte(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Reads `width` bytes at `addr`, zero-extended.
    #[inline]
    pub fn load(&self, addr: u64, width: MemWidth) -> u64 {
        match width {
            MemWidth::Byte => self.load_byte(addr) as u64,
            MemWidth::Word => self.load_word(addr),
        }
    }

    /// Writes the low `width` bytes of `value` at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, width: MemWidth, value: u64) {
        match width {
            MemWidth::Byte => self.store_byte(addr, value as u8),
            MemWidth::Word => self.store_word(addr, value),
        }
    }

    /// Copies a slice of bytes into memory starting at `addr`, one page-
    /// sized `memcpy` at a time.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Number of resident (allocated) pages — a footprint diagnostic.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Compares the word at `addr` in `self` and `other` (used by recovery
    /// tests to check that a repaired context matches its source).
    pub fn word_matches(&self, other: &Memory, addr: u64) -> bool {
        self.load_word(addr) == other.load_word(addr)
    }

    /// Address of the first byte where the two images differ, scanning the
    /// union of resident pages (unmapped bytes read as zero). Used by the
    /// slipstream invariant checks: after recovery the A-stream and
    /// R-stream images must be identical.
    ///
    /// Pages the two images still share (copy-on-write) are skipped by
    /// pointer identity; resident-but-equal pages are rejected with one
    /// slice comparison before any per-byte scan.
    pub fn first_difference(&self, other: &Memory) -> Option<u64> {
        let mut pages: Vec<u64> = self
            .page_nos
            .iter()
            .chain(other.page_nos.iter())
            .copied()
            .collect();
        pages.sort_unstable();
        pages.dedup();
        for pno in pages {
            let base = pno << PAGE_SHIFT;
            match (self.page_arc(pno), other.page_arc(pno)) {
                (Some(a), Some(b)) => {
                    if Arc::ptr_eq(a, b) || a[..] == b[..] {
                        continue;
                    }
                    for off in 0..PAGE_SIZE {
                        if a[off] != b[off] {
                            return Some(base + off as u64);
                        }
                    }
                }
                (Some(p), None) | (None, Some(p)) => {
                    if let Some(off) = p.iter().position(|&b| b != 0) {
                        return Some(base + off as u64);
                    }
                }
                (None, None) => unreachable!("page came from one of the two images"),
            }
        }
        None
    }
}

impl MemRead for Memory {
    fn load(&self, addr: u64, width: MemWidth) -> u64 {
        Memory::load(self, addr, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.load_byte(0), 0);
        assert_eq!(mem.load_word(0xffff_ffff_0000), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn byte_round_trip() {
        let mut mem = Memory::new();
        mem.store_byte(5, 0xab);
        assert_eq!(mem.load_byte(5), 0xab);
        assert_eq!(mem.load_byte(6), 0);
    }

    #[test]
    fn word_round_trip_little_endian() {
        let mut mem = Memory::new();
        mem.store_word(0x100, 0x0123_4567_89ab_cdef);
        assert_eq!(mem.load_word(0x100), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.load_byte(0x100), 0xef);
        assert_eq!(mem.load_byte(0x107), 0x01);
    }

    #[test]
    fn unaligned_word_round_trip_within_page() {
        let mut mem = Memory::new();
        for addr in [0x101u64, 0x107, (1 << PAGE_SHIFT) - 8] {
            mem.store_word(addr, 0xdead_beef_cafe_f00d);
            assert_eq!(mem.load_word(addr), 0xdead_beef_cafe_f00d, "addr {addr:#x}");
        }
    }

    #[test]
    fn unaligned_and_page_straddling_word() {
        let mut mem = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles a page boundary
        mem.store_word(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.load_word(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn every_straddle_offset_round_trips() {
        // All seven page-straddling alignments, against byte reads.
        for k in 1..8u64 {
            let addr = (1 << PAGE_SHIFT) - k;
            let mut mem = Memory::new();
            mem.store_word(addr, 0x0807_0605_0403_0201);
            assert_eq!(mem.load_word(addr), 0x0807_0605_0403_0201, "straddle -{k}");
            for i in 0..8u64 {
                assert_eq!(
                    mem.load_byte(addr + i),
                    (i + 1) as u8,
                    "straddle -{k} byte {i}"
                );
            }
        }
    }

    #[test]
    fn aligned_word_aliases_bytes() {
        let mut mem = Memory::new();
        mem.store_word(0x2000, u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        mem.store_byte(0x2003, 0xff);
        assert_eq!(
            mem.load_word(0x2000),
            u64::from_le_bytes([1, 2, 3, 0xff, 5, 6, 7, 8])
        );
        // Unaligned word read across the patched byte.
        assert_eq!(
            mem.load_word(0x2001),
            u64::from_le_bytes([2, 3, 0xff, 5, 6, 7, 8, 0])
        );
    }

    #[test]
    fn width_dispatch() {
        let mut mem = Memory::new();
        mem.store(0x10, MemWidth::Word, 0x1_0000_00ff);
        assert_eq!(mem.load(0x10, MemWidth::Byte), 0xff);
        mem.store(0x10, MemWidth::Byte, 0xaa);
        assert_eq!(mem.load(0x10, MemWidth::Word) & 0xff, 0xaa);
    }

    #[test]
    fn write_bytes_bulk() {
        let mut mem = Memory::new();
        mem.write_bytes(0x200, &[1, 2, 3, 4]);
        assert_eq!(mem.load_byte(0x203), 4);
    }

    #[test]
    fn write_bytes_spans_pages() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..=255)
            .cycle()
            .take(3 * PAGE_SIZE / 2)
            .map(|b| b as u8)
            .collect();
        let base = (1 << PAGE_SHIFT) - 100;
        mem.write_bytes(base, &data);
        assert_eq!(mem.resident_pages(), 3);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(mem.load_byte(base + i as u64), b, "offset {i}");
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Memory::new();
        a.store_word(0x40, 7);
        let mut b = a.clone();
        b.store_word(0x40, 8);
        assert_eq!(a.load_word(0x40), 7);
        assert_eq!(b.load_word(0x40), 8);
        assert!(!a.word_matches(&b, 0x40));
        assert!(a.word_matches(&b, 0x48));
    }

    #[test]
    fn clone_is_independent_both_directions_across_pages() {
        let mut a = Memory::new();
        for p in 0..4u64 {
            a.store_word(p << PAGE_SHIFT, p + 1);
        }
        let mut b = a.clone();
        // Writes on either side must not leak to the other, page by page.
        a.store_word(0, 100);
        b.store_word(1 << PAGE_SHIFT, 200);
        b.store_byte((2 << PAGE_SHIFT) + 5, 0xee);
        assert_eq!(a.load_word(0), 100);
        assert_eq!(b.load_word(0), 1);
        assert_eq!(a.load_word(1 << PAGE_SHIFT), 2);
        assert_eq!(b.load_word(1 << PAGE_SHIFT), 200);
        assert_eq!(a.load_byte((2 << PAGE_SHIFT) + 5), 0);
        assert_eq!(b.load_byte((2 << PAGE_SHIFT) + 5), 0xee);
        // Untouched page 3 still reads identically on both sides.
        assert!(a.word_matches(&b, 3 << PAGE_SHIFT));
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut a = Memory::new();
        a.store_word(0x1000, 1);
        a.store_word(0x2000, 2);
        let b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        // Writing the same value still un-shares the page (CoW is per
        // write, not per value change) but images stay equal.
        let mut c = a.clone();
        c.store_word(0x1000, 1);
        assert_eq!(a.first_difference(&c), None);
    }

    #[test]
    fn first_difference_finds_the_lowest_address() {
        let a = Memory::new();
        let mut b = a.clone();
        b.store_byte(0x5005, 9);
        assert_eq!(a.first_difference(&b), Some(0x5005));
        assert_eq!(b.first_difference(&a), Some(0x5005));
        // A difference on a lower page wins.
        b.store_byte(0x1fff, 1);
        assert_eq!(a.first_difference(&b), Some(0x1fff));
        // Repairing the bytes restores equality.
        b.store_byte(0x5005, 0);
        b.store_byte(0x1fff, 0);
        assert_eq!(a.first_difference(&b), None);
    }

    /// A trivially-correct byte-wise reference model.
    #[derive(Default)]
    struct RefMem {
        bytes: std::collections::HashMap<u64, u8>,
    }

    impl RefMem {
        fn load_byte(&self, addr: u64) -> u8 {
            self.bytes.get(&addr).copied().unwrap_or(0)
        }
        fn store_byte(&mut self, addr: u64, v: u8) {
            self.bytes.insert(addr, v);
        }
        fn load_word(&self, addr: u64) -> u64 {
            let mut b = [0u8; 8];
            for (i, x) in b.iter_mut().enumerate() {
                *x = self.load_byte(addr.wrapping_add(i as u64));
            }
            u64::from_le_bytes(b)
        }
        fn store_word(&mut self, addr: u64, v: u64) {
            for (i, x) in v.to_le_bytes().iter().enumerate() {
                self.store_byte(addr.wrapping_add(i as u64), *x);
            }
        }
        fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
            for (i, b) in bytes.iter().enumerate() {
                self.store_byte(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Differential test: the optimized paged memory is observationally
    /// identical to the byte-wise reference model over thousands of
    /// randomized operations, concentrated near page boundaries so
    /// straddling and aliasing paths are hit constantly. Also exercises
    /// post-clone independence mid-stream.
    #[test]
    fn differential_vs_bytewise_reference() {
        // Minimal xorshift64* so slipstream-isa needs no dependencies.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        // Addresses cluster around a handful of page boundaries.
        let addr_of = |r: u64| -> u64 {
            let page = [0u64, 1, 2, 16][(r % 4) as usize] << PAGE_SHIFT;
            let near = (r >> 8) % (2 * 8 + 1);
            (page + PAGE_SIZE as u64 - 8 + near) & !(u64::MAX << 40)
        };

        let mut mem = Memory::new();
        let mut reference = RefMem::default();
        let mut clones: Vec<(Memory, RefMem)> = Vec::new();

        for op in 0..8_000u32 {
            let r = rng();
            let addr = addr_of(rng());
            match r % 100 {
                0..=29 => {
                    let v = rng();
                    mem.store_word(addr, v);
                    reference.store_word(addr, v);
                }
                30..=49 => {
                    let v = rng() as u8;
                    mem.store_byte(addr, v);
                    reference.store_byte(addr, v);
                }
                50..=79 => {
                    assert_eq!(
                        mem.load_word(addr),
                        reference.load_word(addr),
                        "op {op} addr {addr:#x}"
                    );
                }
                80..=89 => {
                    assert_eq!(
                        mem.load_byte(addr),
                        reference.load_byte(addr),
                        "op {op} addr {addr:#x}"
                    );
                }
                90..=95 => {
                    let len = (rng() % 40) as usize;
                    let data: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
                    mem.write_bytes(addr, &data);
                    reference.write_bytes(addr, &data);
                }
                _ => {
                    // Fork a clone; mutate the original afterwards to prove
                    // the clone stayed independent (checked at the end).
                    if clones.len() < 4 {
                        let snap_ref = RefMem {
                            bytes: reference.bytes.clone(),
                        };
                        clones.push((mem.clone(), snap_ref));
                    }
                    let v = rng();
                    mem.store_word(addr, v);
                    reference.store_word(addr, v);
                }
            }
        }

        // Final sweep: every byte of every touched page matches, in the
        // live image and in every frozen clone.
        let check = |m: &Memory, r: &RefMem| {
            for pno in [0u64, 1, 2, 3, 16, 17] {
                for off in 0..PAGE_SIZE as u64 {
                    let a = (pno << PAGE_SHIFT) + off;
                    assert_eq!(m.load_byte(a), r.load_byte(a), "addr {a:#x}");
                }
            }
        };
        check(&mem, &reference);
        for (m, r) in &clones {
            check(m, r);
        }
    }
}
