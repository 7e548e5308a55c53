//! Paging-structure (walk) caches.
//!
//! Real walkers (and the paper's Haswell-like baseline) cache upper-level
//! page-table entries so most walks touch only the leaf level. We model
//! one fully-associative cache per skippable level, keyed by `(ASID,
//! region)`.

use hvc_types::{Asid, LruTags, VirtPage};

/// Entries per skip level (PML4-skip, PDPT-skip, PD-skip).
const WAYS: usize = 32;

/// A paging-structure cache: for a virtual page, reports how many
/// upper levels of the radix walk can be skipped (0–3).
#[derive(Clone, Debug)]
pub struct WalkCache {
    /// `caches[k]` caches the node reached after `k + 1` levels, keyed
    /// by `asid << 48 | region`; a hit means the walk skips those
    /// `k + 1` top accesses.
    caches: [LruTags<()>; 3],
}

impl Default for WalkCache {
    fn default() -> Self {
        WalkCache {
            caches: std::array::from_fn(|_| LruTags::new(WAYS)),
        }
    }
}

impl WalkCache {
    /// Creates an empty walk cache.
    pub fn new() -> Self {
        WalkCache::default()
    }

    /// Records a walk of `vpage`: returns the number of upper-level
    /// accesses (0–3) it may skip, the deepest cached node's level, and
    /// caches every node it visits. Each level is probed once: a hit is
    /// touched, a miss inserted.
    pub fn record_walk(&mut self, asid: Asid, vpage: VirtPage) -> usize {
        let mut skip = 0;
        for (k, cache) in self.caches.iter_mut().enumerate() {
            let key = Self::key(asid, vpage, k);
            match cache.find(key) {
                Some(slot) => {
                    cache.touch(slot);
                    skip = k + 1;
                }
                None => {
                    cache.insert(key, ());
                }
            }
        }
        skip
    }

    /// Invalidates everything for `asid` (shootdowns that change upper
    /// levels are rare; we flush conservatively).
    pub fn flush_asid(&mut self, asid: Asid) {
        let asid = u64::from(asid.as_u16());
        for c in &mut self.caches {
            c.retain(|key| key >> 48 != asid);
        }
    }

    fn key(asid: Asid, vpage: VirtPage, k: usize) -> u64 {
        u64::from(asid.as_u16()) << 48 | Self::region(vpage, k)
    }

    /// Region key after skipping `k + 1` levels: drop 9 bits per
    /// remaining level.
    fn region(vpage: VirtPage, k: usize) -> u64 {
        vpage.as_u64() >> (9 * (3 - k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_skips_nothing() {
        let mut wc = WalkCache::new();
        assert_eq!(wc.record_walk(Asid::new(1), VirtPage::new(0)), 0);
        assert_eq!(
            wc.record_walk(Asid::new(1), VirtPage::new(0)),
            3,
            "now cached"
        );
    }

    #[test]
    fn a_walk_enables_deep_skip_for_neighbours() {
        let a = Asid::new(1);
        let walked = |vpage: u64| {
            let mut wc = WalkCache::new();
            wc.record_walk(a, VirtPage::new(0x1000));
            wc.record_walk(a, VirtPage::new(vpage))
        };
        // Same 2 MB region (same PD entry): skip all three upper levels.
        assert_eq!(walked(0x1001), 3);
        // Same 1 GB region only: skip two.
        assert_eq!(walked(0x1000 + (1 << 9)), 2);
        // Same 512 GB region only: skip one.
        assert_eq!(walked(0x1000 + (1 << 18)), 1);
        // Different top-level region: no skip.
        assert_eq!(walked(0x1000 + (1 << 27)), 0);
    }

    #[test]
    fn asid_isolation_and_flush() {
        let mut wc = WalkCache::new();
        wc.record_walk(Asid::new(1), VirtPage::new(7));
        assert_eq!(wc.record_walk(Asid::new(2), VirtPage::new(7)), 0);
        wc.flush_asid(Asid::new(1));
        assert_eq!(wc.record_walk(Asid::new(1), VirtPage::new(7)), 0);
        assert_eq!(wc.record_walk(Asid::new(2), VirtPage::new(7)), 3);
    }

    #[test]
    fn capacity_is_bounded_with_lru() {
        let mut wc = WalkCache::new();
        let a = Asid::new(1);
        for i in 0..(WAYS as u64 + 4) {
            wc.record_walk(a, VirtPage::new(i << 9)); // distinct 2 MB regions
        }
        // The newest is still cached.
        assert_eq!(wc.record_walk(a, VirtPage::new((WAYS as u64 + 3) << 9)), 3);
        // The oldest region was evicted from the deepest cache.
        assert!(wc.record_walk(a, VirtPage::new(0)) < 3);
    }
}
