/// Geometry and miss penalty of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Set associativity.
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Cycles to fill a missing line.
    pub miss_penalty: u64,
}

/// A set-associative, LRU, tag-only cache timing model.
///
/// Only hit/miss behaviour is modelled — data always comes from the
/// simulator's memory image. `access` probes and updates LRU/fills in one
/// step (misses allocate, i.e. write-allocate for stores).
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag storage flattened to one allocation: set `s` occupies
    /// `tags[s*assoc .. s*assoc + len[s]]`, most-recently-used last.
    /// (Flat so cloning a whole `Core` — needed by the slack-window
    /// checkpoint — is two `memcpy`s instead of `num_sets` allocations.)
    tags: Vec<u64>,
    /// Valid-way count per set.
    len: Vec<u32>,
    line_shift: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

// `clone_from` re-fills the destination's tag arrays in place: the
// slack-window checkpoint clones every cache once per window, and the
// derived impl would re-allocate both vectors each time.
slipstream_isa::clone_in_place!(Cache {
    cfg,
    tags,
    len,
    line_shift,
    set_mask,
    hits,
    misses
});

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero/non-power-of-two sizes).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes > 0);
        assert!(cfg.assoc > 0);
        let lines = cfg.bytes / cfg.line_bytes;
        assert!(
            lines.is_multiple_of(cfg.assoc),
            "capacity must divide evenly into sets"
        );
        let num_sets = lines / cfg.assoc;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            cfg,
            tags: vec![0; num_sets * cfg.assoc],
            len: vec![0; num_sets],
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The line-aligned address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Checks residency of the line containing `addr` without updating LRU
    /// state or filling on a miss (used to test MSHR availability before
    /// committing to an access).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set_idx = (line & self.set_mask) as usize;
        let base = set_idx * self.cfg.assoc;
        let valid = self.len[set_idx] as usize;
        self.tags[base..base + valid].contains(&line)
    }

    /// Probes the line containing `addr`; returns `true` on a hit. A miss
    /// fills the line (evicting LRU) and counts against the miss counter.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set_idx = (line & self.set_mask) as usize;
        let base = set_idx * self.cfg.assoc;
        let valid = self.len[set_idx] as usize;
        let set = &mut self.tags[base..base + valid];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[pos..].rotate_left(1); // move to MRU (slot valid-1)
            self.hits += 1;
            true
        } else {
            if valid == self.cfg.assoc {
                set.rotate_left(1); // evict LRU (slot 0)
                set[valid - 1] = line;
            } else {
                self.tags[base + valid] = line;
                self.len[set_idx] += 1;
            }
            self.misses += 1;
            false
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidates all lines but keeps the statistics.
    pub fn flush(&mut self) {
        self.len.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig {
            bytes: 128,
            assoc: 2,
            line_bytes: 16,
            miss_penalty: 10,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10f)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets * line = 64).
        c.access(0x000);
        c.access(0x040);
        c.access(0x000); // touch A: LRU is now B (0x040)
        c.access(0x080); // evicts B
        assert!(c.access(0x000), "A must still be resident");
        assert!(!c.access(0x040), "B must have been evicted");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        c.access(0x00);
        c.access(0x10);
        c.access(0x20);
        c.access(0x30);
        assert!(c.access(0x00));
        assert!(c.access(0x10));
        assert!(c.access(0x20));
        assert!(c.access(0x30));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0x100);
        c.flush();
        assert!(!c.access(0x100));
    }

    #[test]
    fn paper_icache_geometry_is_accepted() {
        let c = Cache::new(CacheConfig {
            bytes: 64 * 1024,
            assoc: 4,
            line_bytes: 64,
            miss_penalty: 12,
        });
        assert_eq!(c.config().bytes / c.config().line_bytes, 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            bytes: 96,
            assoc: 1,
            line_bytes: 16,
            miss_penalty: 1,
        });
    }
}
