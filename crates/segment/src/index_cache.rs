//! The hardware index cache: a small physically-addressed cache of
//! index-tree nodes.

use hvc_types::{Cycles, LruSets, PhysAddr, LINE_SHIFT};

/// Hit/miss counters for the index cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Node reads served from the cache.
    pub hits: u64,
    /// Node reads that went to memory.
    pub misses: u64,
}

impl IndexCacheStats {
    /// Total node reads.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; `None` with no accesses.
    pub fn hit_rate(&self) -> Option<f64> {
        let n = self.accesses();
        (n > 0).then(|| self.hits as f64 / n as f64)
    }
}

/// An 8-way set-associative cache of 64-byte index-tree nodes, addressed
/// by physical address (the paper's Figure 7 sweeps its size from 128 B
/// to 64 KB; 32 KB has a 3-cycle latency by CACTI). The tags are one
/// [`LruSets`] store of block numbers with no payload.
#[derive(Clone, Debug)]
pub struct IndexCache {
    tags: LruSets,
    latency: Cycles,
    stats: IndexCacheStats,
}

impl IndexCache {
    /// Creates an index cache of `size_bytes` capacity (8-way, 64 B
    /// blocks; direct-mapped-ish degenerate geometries allowed for the
    /// tiny sizes of the sensitivity sweep).
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is smaller than one block or not a power of
    /// two.
    pub fn new(size_bytes: u64, latency: Cycles) -> Self {
        assert!(
            size_bytes >= 64 && size_bytes.is_power_of_two(),
            "index cache size must be a power of two ≥ 64"
        );
        let lines = (size_bytes >> LINE_SHIFT) as usize;
        let ways = lines.min(8);
        let sets = (lines / ways).max(1);
        IndexCache {
            tags: LruSets::new(sets, ways, 0),
            latency,
            stats: IndexCacheStats::default(),
        }
    }

    /// The paper's chosen configuration: 32 KB, 8-way, 3 cycles.
    pub fn isca2016() -> Self {
        IndexCache::new(32 * 1024, Cycles::new(3))
    }

    /// Lookup latency per node access.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Accesses the node at `addr`; returns `true` on a hit and fills the
    /// line on a miss.
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        let block = addr.as_u64() >> LINE_SHIFT;
        let set = self.tags.set_of(block);
        if let Some(way) = self.tags.find(set, block) {
            self.tags.touch(set, way);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.tags.insert(set, block);
        false
    }

    /// Whether the node at `addr` is cached, without updating LRU or
    /// counters.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let block = addr.as_u64() >> LINE_SHIFT;
        self.tags.find(self.tags.set_of(block), block).is_some()
    }

    /// Invalidates everything (index-tree rebuild).
    pub fn flush(&mut self) {
        self.tags.clear();
    }

    /// Counters.
    pub fn stats(&self) -> &IndexCacheStats {
        &self.stats
    }

    /// Resets counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = IndexCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = IndexCache::new(1024, Cycles::new(3));
        let a = PhysAddr::new(0x1000);
        assert!(!c.access(a));
        assert!(c.access(a));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), Some(0.5));
    }

    #[test]
    fn tiny_cache_is_legal() {
        let mut c = IndexCache::new(128, Cycles::new(1));
        assert!(!c.access(PhysAddr::new(0)));
        assert!(!c.access(PhysAddr::new(64)));
        assert!(c.access(PhysAddr::new(0)));
        // Third distinct block evicts LRU (2 lines total).
        assert!(!c.access(PhysAddr::new(128)));
        assert!(!c.access(PhysAddr::new(64)), "LRU victim was block 64");
    }

    #[test]
    fn flush_clears() {
        let mut c = IndexCache::isca2016();
        c.access(PhysAddr::new(0));
        c.flush();
        assert!(!c.access(PhysAddr::new(0)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_rejected() {
        let _ = IndexCache::new(100, Cycles::new(1));
    }

    #[test]
    fn capacity_bounds_are_respected() {
        // 512 B = 8 lines = 1 set of 8 ways: 8 blocks fit, a 9th evicts.
        let mut c = IndexCache::new(512, Cycles::new(1));
        for i in 0..8u64 {
            c.access(PhysAddr::new(i * 64));
        }
        c.reset_stats();
        for i in 0..8u64 {
            assert!(c.access(PhysAddr::new(i * 64)));
        }
        c.access(PhysAddr::new(8 * 64));
        assert_eq!(c.stats().misses, 1);
    }
}
