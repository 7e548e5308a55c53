//! The in-memory B-tree over segment base addresses ("index tree").
//!
//! The OS keeps all segments sorted by `ASID ++ base VA` and bulk-builds a
//! B+-tree whose nodes are 64-byte cache blocks: six keys and seven
//! values per node, where leaf values are segment ids (Figure 6). The
//! tree is stored in (simulated) physical memory so the hardware's
//! [`crate::IndexCache`] can cache its nodes by physical address.
//!
//! A leaf's id indexes the hardware segment table, which holds the
//! segment's base, limit and offset. That table mirrors the OS table
//! 1:1 and is rebuilt with the tree, so each simulated leaf keeps the
//! segment itself beside the id, and the table read is only its
//! latency.

use hvc_os::{Segment, SegmentId, SegmentTable};
use hvc_types::{Asid, PhysAddr, VirtAddr, LINE_SIZE};

/// Keys per 64-byte node (six keys + seven values, per the paper).
pub(crate) const KEYS_PER_NODE: usize = 6;
/// Fanout of the tree.
pub(crate) const FANOUT: usize = KEYS_PER_NODE + 1;

/// Composite search key: `ASID ++ VA`.
fn key_of(asid: Asid, va: VirtAddr) -> u128 {
    ((asid.as_u16() as u128) << 64) | va.as_u64() as u128
}

#[derive(Clone, Debug)]
struct Node {
    /// Separator keys (ascending).
    keys: Vec<u128>,
    /// Children node indices (internal) — `keys.len() + 1` of them.
    children: Vec<usize>,
    /// Leaf payload: segments in ascending key order.
    entries: Vec<Segment>,
    leaf: bool,
}

/// An immutable bulk-built B+-tree mapping `(ASID, VA)` to the id of the
/// segment whose base is the greatest one ≤ the probe (predecessor
/// search). The caller validates the limit against the segment table.
#[derive(Clone, Debug)]
pub struct IndexTree {
    nodes: Vec<Node>,
    root: usize,
    depth: usize,
    base: PhysAddr,
}

impl IndexTree {
    /// Builds a tree over the current contents of `table`, placing its
    /// nodes in physical memory starting at `base` (64 B per node).
    pub fn build(table: &SegmentTable, base: PhysAddr) -> Self {
        let entries: Vec<Segment> = table.iter().copied().collect();
        let mut nodes = Vec::new();
        // Build the leaf level; each level entry carries its subtree
        // minimum key for separator construction one level up.
        let mut level: Vec<(usize, u128)> = Vec::new();
        if entries.is_empty() {
            nodes.push(Node {
                keys: vec![],
                children: vec![],
                entries: vec![],
                leaf: true,
            });
            level.push((0, 0));
        } else {
            for chunk in entries.chunks(KEYS_PER_NODE) {
                let idx = nodes.len();
                let min = key_of(chunk[0].asid, chunk[0].base);
                nodes.push(Node {
                    keys: vec![],
                    children: vec![],
                    entries: chunk.to_vec(),
                    leaf: true,
                });
                level.push((idx, min));
            }
        }
        let mut depth = 1;
        // Build internal levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<(usize, u128)> = Vec::new();
            for group in level.chunks(FANOUT) {
                let keys: Vec<u128> = group[1..].iter().map(|&(_, min)| min).collect();
                let children: Vec<usize> = group.iter().map(|&(idx, _)| idx).collect();
                let idx = nodes.len();
                let min = group[0].1;
                nodes.push(Node {
                    keys,
                    children,
                    entries: vec![],
                    leaf: false,
                });
                next.push((idx, min));
            }
            level = next;
            depth += 1;
        }
        IndexTree {
            root: level[0].0,
            nodes,
            depth,
            base,
        }
    }

    /// Tree depth (levels from root to leaf, inclusive) — each level is
    /// one index-cache access on a traversal.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Physical address of node `idx` (cache-block aligned).
    fn node_addr(&self, idx: usize) -> PhysAddr {
        PhysAddr::new(self.base.as_u64() + (idx as u64) * LINE_SIZE)
    }

    /// Predecessor search: returns the segment id of the greatest base
    /// ≤ `(asid, va)` (if any), and appends the physical address of every
    /// node touched to `touched` (root first).
    pub fn lookup(
        &self,
        asid: Asid,
        va: VirtAddr,
        touched: &mut Vec<PhysAddr>,
    ) -> Option<SegmentId> {
        self.predecessor(asid, va, touched).map(|s| s.id)
    }

    /// [`IndexTree::lookup`], returning the segment the leaf's id names.
    pub(crate) fn predecessor(
        &self,
        asid: Asid,
        va: VirtAddr,
        touched: &mut Vec<PhysAddr>,
    ) -> Option<&Segment> {
        let probe = key_of(asid, va);
        let mut idx = self.root;
        loop {
            let node = &self.nodes[idx];
            touched.push(self.node_addr(idx));
            if node.leaf {
                return node
                    .entries
                    .iter()
                    .rev()
                    .find(|s| key_of(s.asid, s.base) <= probe);
            }
            // Leftmost child whose subtree may contain the predecessor:
            // descend into the rightmost child whose separator ≤ probe.
            let mut child = 0;
            for (i, &k) in node.keys.iter().enumerate() {
                if probe >= k {
                    child = i + 1;
                } else {
                    break;
                }
            }
            idx = node.children[child];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::PhysFrame;

    fn table_with(n: u64) -> SegmentTable {
        let mut t = SegmentTable::new(4096);
        for i in 0..n {
            t.insert(
                Asid::new(1),
                VirtAddr::new(0x10_0000 * (i + 1)),
                0x8000,
                PhysFrame::new(256 * i).base(),
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn empty_tree_finds_nothing() {
        let t = IndexTree::build(&SegmentTable::new(16), PhysAddr::new(0));
        let mut touched = Vec::new();
        assert_eq!(
            t.lookup(Asid::new(1), VirtAddr::new(0x1000), &mut touched),
            None
        );
        assert_eq!(touched.len(), 1, "root touched");
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn finds_covering_segment() {
        let table = table_with(10);
        let tree = IndexTree::build(&table, PhysAddr::new(0x100000));
        let mut touched = Vec::new();
        let id = tree
            .lookup(Asid::new(1), VirtAddr::new(0x30_1234), &mut touched)
            .expect("predecessor exists");
        let seg = table.get(id).unwrap();
        assert!(seg.contains(Asid::new(1), VirtAddr::new(0x30_1234)));
    }

    #[test]
    fn predecessor_is_returned_even_outside_segment() {
        // The tree performs a pure predecessor search; limit checking is
        // the segment table's job.
        let table = table_with(2);
        let tree = IndexTree::build(&table, PhysAddr::new(0));
        let mut touched = Vec::new();
        let id = tree
            .lookup(Asid::new(1), VirtAddr::new(0x10_9999), &mut touched)
            .unwrap();
        let seg = table.get(id).unwrap();
        assert_eq!(seg.base, VirtAddr::new(0x10_0000));
        assert!(!seg.contains(Asid::new(1), VirtAddr::new(0x10_9999)));
    }

    #[test]
    fn probe_below_all_keys_finds_nothing() {
        let table = table_with(5);
        let tree = IndexTree::build(&table, PhysAddr::new(0));
        let mut touched = Vec::new();
        assert_eq!(
            tree.lookup(Asid::new(1), VirtAddr::new(0x1000), &mut touched),
            None
        );
    }

    #[test]
    fn asid_ordering_is_respected() {
        let mut table = SegmentTable::new(64);
        table
            .insert(
                Asid::new(2),
                VirtAddr::new(0x1000),
                0x1000,
                PhysAddr::new(0),
            )
            .unwrap();
        let tree = IndexTree::build(&table, PhysAddr::new(0));
        let mut touched = Vec::new();
        // ASID 1 probes must not find ASID 2's segment even at higher VA.
        assert_eq!(
            tree.lookup(Asid::new(1), VirtAddr::new(0xffff_0000), &mut touched),
            None
        );
        assert!(tree
            .lookup(Asid::new(2), VirtAddr::new(0x1500), &mut touched)
            .is_some());
    }

    #[test]
    fn depth_four_covers_2048_segments() {
        // 6 keys/leaf, fanout 7: depth 4 holds ≥ 6·7³ = 2058 entries.
        let table = table_with(2048);
        let tree = IndexTree::build(&table, PhysAddr::new(0));
        assert!(tree.depth() <= 4, "depth {} too deep", tree.depth());
        let mut touched = Vec::new();
        tree.lookup(Asid::new(1), VirtAddr::new(0x10_0000), &mut touched);
        assert_eq!(touched.len(), tree.depth());
    }

    #[test]
    fn every_segment_is_reachable() {
        let table = table_with(300);
        let tree = IndexTree::build(&table, PhysAddr::new(0));
        for seg in table.iter() {
            let mut touched = Vec::new();
            let id = tree
                .lookup(seg.asid, seg.base + 0x10, &mut touched)
                .expect("segment reachable");
            assert_eq!(id, seg.id);
        }
    }

    #[test]
    fn node_addresses_are_line_aligned_and_distinct() {
        let table = table_with(100);
        let tree = IndexTree::build(&table, PhysAddr::new(0x40));
        let mut touched = Vec::new();
        tree.lookup(Asid::new(1), VirtAddr::new(0x50_0000), &mut touched);
        for w in touched.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        for a in &touched {
            assert_eq!((a.as_u64() - 0x40) % 64, 0);
        }
    }
}
