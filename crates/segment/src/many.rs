//! The composed many-segment delayed translator (Figure 5).

use crate::{HwSegmentTable, IndexCache, IndexTree, SegmentCache};
use hvc_obs::LatencyHistogram;
use hvc_os::SegmentTable;
use hvc_types::{Asid, Cycles, PhysAddr, VirtAddr};

/// Per-stage cost of one many-segment translation, so callers can
/// attribute cycles to the structure that spent them. The stages sum to
/// the latency [`ManySegmentTranslator::translate`] would have
/// returned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentCost {
    /// Segment-cache probe (hit or the probe preceding a tree walk).
    pub segment_cache: Cycles,
    /// Index-cache probes, including memory fetches of missing nodes.
    pub index_cache: Cycles,
    /// Hardware segment-table read.
    pub segment_table: Cycles,
}

impl SegmentCost {
    /// Total translation latency.
    pub fn total(&self) -> Cycles {
        self.segment_cache + self.index_cache + self.segment_table
    }
}

/// Counters for the many-segment translation path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManySegmentStats {
    /// Translations served by the segment cache.
    pub sc_hits: u64,
    /// Translations that traversed the index tree.
    pub tree_walks: u64,
    /// Index-tree node reads that missed the index cache (fetched from
    /// memory).
    pub node_fetches: u64,
    /// Addresses not covered by any segment (OS interrupt; cold miss or
    /// a synonym/TLB-managed page reaching the wrong path).
    pub uncovered: u64,
    /// Total cycles spent translating.
    pub cycles: Cycles,
    /// Distribution of per-translation latencies (uncovered probes
    /// included).
    pub translate_latency: LatencyHistogram,
}

/// The full delayed-translation pipeline: SC → index cache walk →
/// hardware segment table.
///
/// The index tree is rebuilt from the OS segment table with
/// [`ManySegmentTranslator::rebuild`] whenever segments change (the OS
/// batches this with its shootdowns; the cost is charged by the caller).
/// [`ManySegmentTranslator::sync`] does so only when the table's version
/// moved since the last build.
#[derive(Clone, Debug)]
pub struct ManySegmentTranslator {
    sc: SegmentCache,
    index_cache: IndexCache,
    index_tree: IndexTree,
    hw_table: HwSegmentTable,
    /// Where in physical memory the index tree lives.
    tree_base: PhysAddr,
    /// The segment-table version the tree and hardware table mirror.
    version: u64,
    stats: ManySegmentStats,
    scratch: Vec<PhysAddr>,
}

impl ManySegmentTranslator {
    /// Builds the paper's configuration (128-entry SC, 32 KB index cache,
    /// 2048-entry segment table) over the current OS segment table.
    pub fn isca2016(table: &SegmentTable) -> Self {
        Self::new(
            SegmentCache::isca2016(),
            IndexCache::isca2016(),
            HwSegmentTable::mirror(table, Cycles::new(7)),
            table,
            PhysAddr::new(1 << 40), // tree region outside simulated DRAM traffic
        )
    }

    /// Composes a translator from explicit components.
    pub fn new(
        sc: SegmentCache,
        index_cache: IndexCache,
        hw_table: HwSegmentTable,
        table: &SegmentTable,
        tree_base: PhysAddr,
    ) -> Self {
        ManySegmentTranslator {
            sc,
            index_cache,
            index_tree: IndexTree::build(table, tree_base),
            hw_table,
            tree_base,
            version: table.version(),
            stats: ManySegmentStats::default(),
            scratch: Vec::with_capacity(8),
        }
    }

    /// Creates a variant without a segment cache (the paper evaluates
    /// many-segment translation with and without SC in Figure 9) by using
    /// a zero-capacity SC.
    pub fn isca2016_no_sc(table: &SegmentTable) -> Self {
        Self::new(
            SegmentCache::new(0, Cycles::new(0)),
            IndexCache::isca2016(),
            HwSegmentTable::mirror(table, Cycles::new(7)),
            table,
            PhysAddr::new(1 << 40),
        )
    }

    /// Rebuilds the index tree and hardware table after the OS changed
    /// the segment table (segment allocation/removal).
    pub fn rebuild(&mut self, table: &SegmentTable) {
        self.index_tree = IndexTree::build(table, self.tree_base);
        self.hw_table.sync(table);
        self.sc.flush();
        self.index_cache.flush();
        self.version = table.version();
    }

    /// Rebuilds if `table` changed since the last build; returns whether
    /// it did.
    pub fn sync(&mut self, table: &SegmentTable) -> bool {
        let stale = self.version != table.version();
        if stale {
            self.rebuild(table);
        }
        stale
    }

    /// Translates `(asid, va)` after an LLC miss. Returns the physical
    /// address and the translation latency, or `None` if no segment
    /// covers the address (OS interrupt — the caller handles the fill).
    ///
    /// `fetch` is invoked for index-tree nodes that miss the index cache
    /// and must return the memory access latency.
    pub fn translate(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        fetch: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(PhysAddr, Cycles)> {
        self.translate_detailed(asid, va, fetch)
            .map(|(pa, cost)| (pa, cost.total()))
    }

    /// Like [`ManySegmentTranslator::translate`], but itemizes the
    /// latency per structure (segment cache, index cache, hardware
    /// segment table) so callers can attribute the cycles.
    pub fn translate_detailed(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        mut fetch: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(PhysAddr, SegmentCost)> {
        let mut cost = SegmentCost {
            segment_cache: self.sc.latency(),
            ..SegmentCost::default()
        };
        if let Some(pa) = self.sc.translate(asid, va) {
            self.stats.sc_hits += 1;
            self.finish(cost);
            return Some((pa, cost));
        }

        // Traverse the index tree through the index cache.
        self.stats.tree_walks += 1;
        self.scratch.clear();
        let mut touched = std::mem::take(&mut self.scratch);
        let found = self.index_tree.lookup(asid, va, &mut touched);
        for &node in &touched {
            cost.index_cache += self.index_cache.latency();
            if !self.index_cache.access(node) {
                cost.index_cache += fetch(node);
                self.stats.node_fetches += 1;
            }
        }
        self.scratch = touched;

        let Some(id) = found else {
            self.stats.uncovered += 1;
            self.finish(cost);
            return None;
        };

        // Hardware segment table: base/limit check + offset add.
        cost.segment_table = self.hw_table.latency();
        let Some(pa) = self.hw_table.translate(id, asid, va) else {
            self.stats.uncovered += 1;
            self.finish(cost);
            return None;
        };
        if let Some(seg) = self.hw_table.get(id) {
            self.sc.fill(asid, va, seg);
        }
        self.finish(cost);
        Some((pa, cost))
    }

    fn finish(&mut self, cost: SegmentCost) {
        self.stats.cycles += cost.total();
        self.stats.translate_latency.record(cost.total());
    }

    /// Counters.
    pub fn stats(&self) -> &ManySegmentStats {
        &self.stats
    }

    /// Segment-cache counters `(hits, misses)`.
    pub fn sc_stats(&self) -> (u64, u64) {
        self.sc.stats()
    }

    /// Index-cache counters.
    pub fn index_cache_stats(&self) -> &crate::IndexCacheStats {
        self.index_cache.stats()
    }

    /// Index-tree depth (accesses per traversal).
    pub fn tree_depth(&self) -> usize {
        self.index_tree.depth()
    }

    /// Resets all counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = ManySegmentStats::default();
        self.sc.reset_stats();
        self.index_cache.reset_stats();
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
        assert!(second < first, "SC hit {second:?} vs full path {first:?}");
        assert_eq!(tr.stats().sc_hits, 1);
        assert_eq!(tr.stats().tree_walks, 1);
        assert_eq!(second, Cycles::new(2));
    }

    #[test]
    fn no_sc_variant_always_walks_the_tree() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016_no_sc(k.segments());
        let va = VirtAddr::new(0x100040);
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        assert_eq!(tr.stats().sc_hits, 0);
        assert_eq!(tr.stats().tree_walks, 2);
    }

    #[test]
    fn warm_index_cache_eliminates_fetches() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016_no_sc(k.segments());
        let va = VirtAddr::new(0x100040);
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        let before = tr.stats().node_fetches;
        tr.translate(a, va, |_| Cycles::new(160)).unwrap();
        assert_eq!(tr.stats().node_fetches, before, "no new fetches when warm");
    }

    #[test]
    fn uncovered_address_returns_none() {
        let (k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        assert!(tr
            .translate(a, VirtAddr::new(0x9999_0000), |_| Cycles::new(160))
            .is_none());
        assert_eq!(tr.stats().uncovered, 1);
    }

    #[test]
    fn rebuild_tracks_new_segments() {
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
        tr.rebuild(k.segments());
        assert!(tr
            .translate(a, VirtAddr::new(0x4000_0000), |_| Cycles::new(160))
            .is_some());
    }

    #[test]
    fn sync_rebuilds_only_when_the_table_moved() {
        let (mut k, a) = eager_kernel_with_map();
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        assert!(!tr.sync(k.segments()), "freshly mirrored");
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
        assert!(lat.get() <= 20, "warm latency {lat:?}");
    }
}
