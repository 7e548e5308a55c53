//! The segment walk both native and 2D translation take after a
//! segment-cache miss: index tree → index cache → hardware segment table.

use crate::{IndexCache, IndexCacheStats, IndexTree};
use hvc_os::{Segment, SegmentTable};
use hvc_types::{Asid, Cycles, PhysAddr, VirtAddr};

/// Read latency of the 2048-entry hardware segment table (CACTI). The
/// table mirrors the OS table 1:1 ("segment misses occur only for cold
/// misses, as the size of HW table is equal to the in-memory segment
/// table size") and is re-mirrored with the index tree, so it never
/// takes a cold miss.
const SEGMENT_TABLE_LATENCY: Cycles = Cycles::new(7);

/// Per-stage cost of one segment translation, so callers can attribute
/// cycles to the structure that spent them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentCost {
    /// Segment-cache probe (hit or the probe preceding a tree walk).
    pub segment_cache: Cycles,
    /// Index-cache probes, including memory fetches of missing nodes.
    pub index_cache: Cycles,
    /// Hardware segment-table reads.
    pub segment_table: Cycles,
}

impl SegmentCost {
    /// Total translation latency.
    pub fn total(&self) -> Cycles {
        self.segment_cache + self.index_cache + self.segment_table
    }
}

/// One segment table's hardware mirror — the in-memory [`IndexTree`],
/// whose leaves carry the hardware segment table's entries, and the
/// [`IndexCache`] over its nodes — and the walk through them.
///
/// The mirror follows the OS table by version:
/// [`SegmentWalk::sync`] rebuilds the tree and flushes the index cache
/// whenever the table changed since the last build.
#[derive(Clone, Debug)]
pub struct SegmentWalk {
    tree: IndexTree,
    index_cache: IndexCache,
    /// Where in physical memory the index tree lives.
    tree_base: PhysAddr,
    /// The segment-table version the mirror reflects.
    version: u64,
    /// Reusable buffer for the nodes a lookup touches.
    touched: Vec<PhysAddr>,
}

impl SegmentWalk {
    /// The paper's configuration (32 KB index cache, 7-cycle 2048-entry
    /// segment table) over `table`, with the tree's nodes at
    /// `tree_base`.
    pub fn isca2016(table: &SegmentTable, tree_base: PhysAddr) -> Self {
        SegmentWalk {
            tree: IndexTree::build(table, tree_base),
            index_cache: IndexCache::isca2016(),
            tree_base,
            version: table.version(),
            touched: Vec::with_capacity(8),
        }
    }

    /// Re-mirrors `table` if its version moved since the last build;
    /// returns whether it did (the caller then flushes what it cached
    /// from the old mirror).
    pub fn sync(&mut self, table: &SegmentTable) -> bool {
        if self.version == table.version() {
            return false;
        }
        self.tree = IndexTree::build(table, self.tree_base);
        self.index_cache.flush();
        self.version = table.version();
        true
    }

    /// Walks `(asid, va)` to the segment covering it, adding the
    /// index-cache probes and the segment-table read to `cost`. `fetch`
    /// is invoked for index-tree nodes that miss the index cache and
    /// returns the memory access latency.
    ///
    /// `None` if no segment covers `va`. A probe below every key of the
    /// tree (any probe of an empty table) reads no node.
    pub fn walk(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        cost: &mut SegmentCost,
        mut fetch: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<&Segment> {
        self.touched.clear();
        let seg = self.tree.predecessor(asid, va, &mut self.touched)?;
        for &node in &self.touched {
            cost.index_cache += self.index_cache.latency();
            if !self.index_cache.access(node) {
                cost.index_cache += fetch(node);
            }
        }
        cost.segment_table += SEGMENT_TABLE_LATENCY;
        // The base/limit check.
        seg.contains(asid, va).then_some(seg)
    }

    /// Index-cache counters.
    pub fn index_cache_stats(&self) -> &IndexCacheStats {
        self.index_cache.stats()
    }

    /// Resets the index-cache counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.index_cache.reset_stats();
    }
}
