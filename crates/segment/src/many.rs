//! The composed many-segment delayed translator (Figure 5).

use crate::{IndexCacheStats, SegmentCache, SegmentCost, SegmentWalk};
use hvc_os::SegmentTable;
use hvc_types::{Asid, Cycles, PhysAddr, VirtAddr};

/// The full delayed-translation pipeline: the segment cache, then on a
/// miss the [`SegmentWalk`] (index cache walk → hardware segment table).
///
/// [`ManySegmentTranslator::sync`] re-mirrors the OS segment table when
/// it changed (the OS batches this with its shootdowns; the cost is
/// charged by the caller) and flushes the segment cache with it.
#[derive(Clone, Debug)]
pub struct ManySegmentTranslator {
    sc: SegmentCache,
    walk: SegmentWalk,
    /// Translations that missed the segment cache and walked the tree.
    tree_walks: u64,
}

impl ManySegmentTranslator {
    /// Builds the paper's configuration (128-entry SC, 32 KB index cache,
    /// 2048-entry segment table) over the current OS segment table.
    pub fn isca2016(table: &SegmentTable) -> Self {
        Self::new(SegmentCache::isca2016(), table)
    }

    /// Creates a variant without a segment cache (the paper evaluates
    /// many-segment translation with and without SC in Figure 9) by using
    /// a zero-capacity SC.
    pub fn isca2016_no_sc(table: &SegmentTable) -> Self {
        Self::new(SegmentCache::new(0, Cycles::new(0)), table)
    }

    /// Composes a translator from a segment cache and the paper's walk
    /// over `table`.
    pub fn new(sc: SegmentCache, table: &SegmentTable) -> Self {
        ManySegmentTranslator {
            sc,
            // The tree region lies outside simulated DRAM traffic.
            walk: SegmentWalk::isca2016(table, PhysAddr::new(1 << 40)),
            tree_walks: 0,
        }
    }

    /// Re-mirrors `table` if it changed since the last build; returns
    /// whether it did.
    pub fn sync(&mut self, table: &SegmentTable) -> bool {
        let moved = self.walk.sync(table);
        if moved {
            self.sc.flush();
        }
        moved
    }

    /// Translates `(asid, va)` after an LLC miss. Returns the physical
    /// address and the latency itemized per structure, or `None` if no
    /// segment covers the address (OS interrupt — the caller handles
    /// the fill).
    ///
    /// `fetch` is invoked for index-tree nodes that miss the index cache
    /// and must return the memory access latency.
    pub fn translate(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        fetch: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(PhysAddr, SegmentCost)> {
        let mut cost = SegmentCost {
            segment_cache: self.sc.latency(),
            ..SegmentCost::default()
        };
        if let Some(pa) = self.sc.translate(asid, va) {
            return Some((pa, cost));
        }
        self.tree_walks += 1;
        let seg = self.walk.walk(asid, va, &mut cost, fetch)?;
        self.sc.fill(asid, va, seg);
        Some((seg.translate(va), cost))
    }

    /// Translations that walked the index tree.
    pub fn tree_walks(&self) -> u64 {
        self.tree_walks
    }

    /// Segment-cache counters `(hits, misses)`.
    pub fn sc_stats(&self) -> (u64, u64) {
        self.sc.stats()
    }

    /// Index-cache counters.
    pub fn index_cache_stats(&self) -> &IndexCacheStats {
        self.walk.index_cache_stats()
    }

    /// Resets all counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.tree_walks = 0;
        self.sc.reset_stats();
        self.walk.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, Kernel, MapIntent};
    use hvc_types::Permissions;

    fn eager_kernel_with_map() -> (Kernel, Asid) {
        let mut k = Kernel::new(1 << 30, AllocPolicy::EagerSegments { split: 1 });
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x100000),
            1 << 20,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        (k, a)
    }

    #[test]
    fn translation_matches_page_table() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        for off in [0u64, 0x1000, 0xfffff] {
            let va = VirtAddr::new(0x100000 + off);
            let (pa, _) = tr.translate(a, va, |_| Cycles::new(160)).unwrap();
            let pte = k.walk(a, va.page_number()).unwrap().0;
            assert_eq!(pa.frame_number(), pte.frame, "offset {off:#x}");
            assert_eq!(pa.page_offset(), va.page_offset());
        }
    }

    #[test]
    fn sc_hit_is_fast_and_counted() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        let va = VirtAddr::new(0x100040);
        let (_, first) = tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        let (_, second) = tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        assert!(
            second.total() < first.total(),
            "SC hit {second:?} vs full path {first:?}"
        );
        assert_eq!(tr.sc_stats(), (1, 1));
        assert_eq!(tr.tree_walks(), 1);
        assert_eq!(second.total(), Cycles::new(2));
        assert_eq!(second.segment_cache, second.total());
    }

    #[test]
    fn no_sc_variant_always_walks_the_tree() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016_no_sc(k.segments());
        let va = VirtAddr::new(0x100040);
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        assert_eq!(tr.sc_stats().0, 0);
        assert_eq!(tr.tree_walks(), 2);
    }

    #[test]
    fn warm_index_cache_eliminates_fetches() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016_no_sc(k.segments());
        let va = VirtAddr::new(0x100040);
        let fetches = std::cell::Cell::new(0);
        let fetch = |_| {
            fetches.set(fetches.get() + 1);
            Cycles::new(160)
        };
        tr.translate(a, va, fetch).unwrap();
        let cold = fetches.get();
        tr.translate(a, va, fetch).unwrap();
        assert!(cold > 0, "a cold walk fetches its nodes");
        assert_eq!(fetches.get(), cold, "no new fetches when warm");
    }

    #[test]
    fn uncovered_address_returns_none() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        assert!(tr
            .translate(a, VirtAddr::new(0x9999_0000), |_| Cycles::new(160))
            .is_none());
        assert_eq!(tr.sc_stats(), (0, 1));
        assert_eq!(tr.tree_walks(), 1, "an uncovered address walks the tree");
    }

    #[test]
    fn sync_tracks_new_segments() {
        let (mut k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        k.mmap(
            a,
            VirtAddr::new(0x4000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        assert!(tr
            .translate(a, VirtAddr::new(0x4000_0000), |_| Cycles::new(160))
            .is_none());
        assert!(tr.sync(k.segments()));
        assert!(tr
            .translate(a, VirtAddr::new(0x4000_0000), |_| Cycles::new(160))
            .is_some());
    }

    #[test]
    fn sync_rebuilds_only_when_the_table_moved() {
        let (mut k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        assert!(!tr.sync(k.segments()), "freshly mirrored");
        // Cached in the segment cache, which the re-mirror must flush.
        assert!(tr
            .translate(a, VirtAddr::new(0x100000), |_| Cycles::new(160))
            .is_some());
        k.munmap(a, VirtAddr::new(0x100000)).unwrap();
        assert!(tr.sync(k.segments()));
        assert!(!tr.sync(k.segments()));
        assert!(tr
            .translate(a, VirtAddr::new(0x100000), |_| Cycles::new(160))
            .is_none());
    }

    #[test]
    fn worst_case_latency_is_about_20_cycles_when_cached() {
        // Paper Section IV-D: ≤ 4 index-cache reads (3 cy each) + segment
        // table (7 cy) ≈ 19-20 cycles when the index cache hits.
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016_no_sc(k.segments());
        let va = VirtAddr::new(0x100040);
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        let (_, lat) = tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        assert!(lat.total().get() <= 20, "warm latency {lat:?}");
    }
}
