//! The segment cache (SC): a small fixed-granularity cache of recent
//! segment translations.

use hvc_os::Segment;
use hvc_types::{Asid, Cycles, LruTags, PhysAddr, VirtAddr};

/// Granularity shift of SC entries (2 MB regions).
const SC_SHIFT: u32 = 21;

/// A 128-entry TLB-like structure holding 2 MB-granularity segment
/// translations, hiding the index-tree traversal for hot regions
/// (Section IV-C, "Segment Cache").
///
/// Each entry is keyed by `asid << 48 | region` and caches its segment's
/// `[base, len, phys_base]`: a region may be only partly covered by a
/// segment, so bounds are validated on every hit.
#[derive(Clone, Debug)]
pub struct SegmentCache {
    entries: LruTags<[u64; 3]>,
    latency: Cycles,
    hits: u64,
    misses: u64,
}

impl SegmentCache {
    /// Creates an SC with `capacity` entries.
    pub fn new(capacity: usize, latency: Cycles) -> Self {
        SegmentCache {
            entries: LruTags::new(capacity),
            latency,
            hits: 0,
            misses: 0,
        }
    }

    /// The paper's configuration: 128 entries (we model 2-cycle access).
    pub fn isca2016() -> Self {
        SegmentCache::new(128, Cycles::new(2))
    }

    /// Access latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    fn key(asid: Asid, va: VirtAddr) -> u64 {
        u64::from(asid.as_u16()) << 48 | va.as_u64() >> SC_SHIFT
    }

    /// Attempts to translate `va`; `None` on a miss (or when the cached
    /// segment does not cover `va`, which falls back to the full path).
    pub fn translate(&mut self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        let key = Self::key(asid, va);
        let va = va.as_u64();
        if let Some(slot) = self.entries.find(key) {
            let [base, len, phys_base] = *self.entries.payload(slot);
            if va >= base && va - base < len {
                self.entries.touch(slot);
                self.hits += 1;
                return Some(PhysAddr::new(phys_base.wrapping_add(va - base)));
            }
        }
        self.misses += 1;
        None
    }

    /// Fills the entry for `va`'s region from a resolved segment. A
    /// zero-capacity SC (the "without SC" configuration) ignores fills.
    pub fn fill(&mut self, asid: Asid, va: VirtAddr, seg: &Segment) {
        self.entries.put(
            Self::key(asid, va),
            [seg.base.as_u64(), seg.len, seg.phys_base.as_u64()],
        );
    }

    /// Invalidates everything (segment-table change).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resets counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::SegmentId;

    fn seg(base: u64, len: u64, phys: u64) -> Segment {
        Segment {
            id: SegmentId(0),
            asid: Asid::new(1),
            base: VirtAddr::new(base),
            len,
            phys_base: PhysAddr::new(phys),
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut sc = SegmentCache::new(4, Cycles::new(2));
        let s = seg(0x20_0000, 0x40_0000, 0x80_0000);
        assert_eq!(sc.translate(Asid::new(1), VirtAddr::new(0x20_0040)), None);
        sc.fill(Asid::new(1), VirtAddr::new(0x20_0040), &s);
        assert_eq!(
            sc.translate(Asid::new(1), VirtAddr::new(0x20_0080)),
            Some(PhysAddr::new(0x80_0080))
        );
        assert_eq!(sc.stats(), (1, 1));
    }

    #[test]
    fn partial_region_coverage_is_bounds_checked() {
        let mut sc = SegmentCache::new(4, Cycles::new(2));
        // Segment covers only the first 4 KB of its 2 MB region.
        let s = seg(0x20_0000, 0x1000, 0x80_0000);
        sc.fill(Asid::new(1), VirtAddr::new(0x20_0000), &s);
        assert!(sc
            .translate(Asid::new(1), VirtAddr::new(0x20_0fff))
            .is_some());
        assert_eq!(
            sc.translate(Asid::new(1), VirtAddr::new(0x20_1000)),
            None,
            "beyond the segment limit inside the same region"
        );
    }

    #[test]
    fn different_asids_do_not_hit() {
        let mut sc = SegmentCache::new(4, Cycles::new(2));
        let s = seg(0, 0x1000, 0x5000);
        sc.fill(Asid::new(1), VirtAddr::new(0), &s);
        assert_eq!(sc.translate(Asid::new(2), VirtAddr::new(0)), None);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut sc = SegmentCache::new(2, Cycles::new(2));
        for i in 0..3u64 {
            let s = seg(i << SC_SHIFT, 1 << SC_SHIFT, i << 32);
            sc.fill(Asid::new(1), VirtAddr::new(i << SC_SHIFT), &s);
        }
        assert_eq!(
            sc.translate(Asid::new(1), VirtAddr::new(0)),
            None,
            "evicted"
        );
        assert!(sc
            .translate(Asid::new(1), VirtAddr::new(2 << SC_SHIFT))
            .is_some());
    }

    #[test]
    fn flush_invalidates() {
        let mut sc = SegmentCache::isca2016();
        let s = seg(0, 0x1000, 0x5000);
        sc.fill(Asid::new(1), VirtAddr::new(0), &s);
        sc.flush();
        assert_eq!(sc.translate(Asid::new(1), VirtAddr::new(0)), None);
    }
}
