//! Four-level x86-64 radix page tables.
//!
//! Page-table nodes occupy simulated physical frames so that a hardware
//! page walk can be charged as four real memory references (the entry
//! addresses are reported via [`WalkPath`]); this is what makes delayed
//! translation's interaction with the cache hierarchy faithful.

use crate::BuddyAllocator;
use hvc_types::{
    FxHashMap, HvcError, Permissions, PhysAddr, PhysFrame, Result, VirtPage, PAGE_SHIFT,
};

/// Radix levels of an x86-64 page table (PML4 → PDPT → PD → PT).
pub const PT_LEVELS: usize = 4;
/// Index bits per level.
const LEVEL_BITS: u32 = 9;
/// Entries per node.
const NODE_ENTRIES: usize = 1 << LEVEL_BITS;

/// A leaf page-table entry.
///
/// Besides the frame and permissions, the paper adds "a single sharing
/// bit for page mappings to mark a page sharing or non-sharing" — the
/// `shared` bit that distinguishes synonym pages, and which TLB fills use
/// to report synonym-filter false positives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// Mapped physical frame.
    pub frame: PhysFrame,
    /// Access permissions.
    pub perm: Permissions,
    /// `true` if the page is a synonym (r/w shared or DMA) page.
    pub shared: bool,
}

/// Frames a leaf entry can name: 2^27, a machine of up to 512 GiB.
/// [`PageTable::map`] rejects a frame at or beyond this bound.
pub const PTE_FRAMES: u64 = 1 << ENTRY_PERM_SHIFT;
/// Physical memory whose every frame fits a leaf entry (512 GiB).
pub const MAX_PHYS_BYTES: u64 = PTE_FRAMES << PAGE_SHIFT;

/// Packed leaf-entry layout (one `u32` per PT slot): bits 0..27 the
/// frame number, bits 27..30 the permission bits (R/W/X), bit 30 the
/// shared bit, bit 31 the valid bit. An all-zero word is an unmapped
/// slot.
const ENTRY_PERM_SHIFT: u32 = 27;
const ENTRY_SHARED: u32 = 1 << 30;
const ENTRY_VALID: u32 = 1 << 31;

impl Pte {
    /// The packed entry; the caller has checked the frame is below
    /// [`PTE_FRAMES`].
    #[inline]
    fn pack(self) -> u32 {
        ENTRY_VALID
            | self.frame.as_u64() as u32
            | (u32::from(self.perm.bits()) << ENTRY_PERM_SHIFT)
            | if self.shared { ENTRY_SHARED } else { 0 }
    }

    #[inline]
    fn unpack(entry: u32) -> Option<Pte> {
        (entry & ENTRY_VALID != 0).then(|| Pte {
            frame: PhysFrame::new(u64::from(entry) & (PTE_FRAMES - 1)),
            perm: Permissions::from_bits((entry >> ENTRY_PERM_SHIFT) as u8),
            shared: entry & ENTRY_SHARED != 0,
        })
    }
}

/// The four physical entry addresses a hardware walk reads, root first.
pub type WalkPath = [PhysAddr; PT_LEVELS];

/// One interior node (PML4, PDPT or PD) of the radix tree.
#[derive(Clone, Debug)]
struct Node {
    frame: PhysFrame,
    /// Child nodes by entry index. PD nodes keep none: their children
    /// are the leaf nodes, found by [`leaf_key`].
    children: FxHashMap<u16, usize>,
}

/// One leaf (PT) node: its 512 packed entries, together with the path
/// that leads to it, so a walk of a mapped page is one hash probe.
/// The simulated node keeps the architectural 8-byte entry stride (see
/// [`LeafNode::entry_addr`]); only the host copy is packed to 4 bytes.
#[derive(Clone, Debug)]
struct LeafNode {
    entries: [u32; NODE_ENTRIES],
    /// The PML4, PDPT and PD entry addresses above this node. Interior
    /// nodes are never freed, so the path cannot go stale.
    upper: [PhysAddr; PT_LEVELS - 1],
    frame: PhysFrame,
}

impl LeafNode {
    /// Physical address of the entry in `slot`.
    #[inline]
    fn entry_addr(&self, slot: usize) -> PhysAddr {
        self.frame.base() + slot as u64 * 8
    }

    /// The walk path of the page in `slot`.
    #[inline]
    fn path(&self, slot: usize) -> WalkPath {
        let [pml4, pdpt, pd] = self.upper;
        [pml4, pdpt, pd, self.entry_addr(slot)]
    }
}

/// Key of the leaf node covering `vpage`: its PML4, PDPT and PD indices.
#[inline]
fn leaf_key(vpage: VirtPage) -> u64 {
    vpage.as_u64() >> LEVEL_BITS
}

/// Slot of `vpage` within its leaf node.
#[inline]
fn leaf_slot(vpage: VirtPage) -> usize {
    vpage.as_u64() as usize % NODE_ENTRIES
}

/// A 4-level radix page table for one address space.
///
/// Interior nodes live in an arena; each leaf node is one boxed chunk of
/// 512 packed 4-byte entries (see [`Pte`] for the fields) that also
/// records its three upper entry addresses and its own frame. A walk of
/// a mapped page is therefore one probe of the leaf map and one indexed
/// word; [`PageTable::walk_path`] still walks node by node for pages
/// that are not mapped.
#[derive(Clone, Debug)]
pub struct PageTable {
    /// Arena of interior nodes; index 0 is the root (PML4).
    nodes: Vec<Node>,
    /// Leaf nodes keyed by [`leaf_key`]. Never removed: an unmap clears
    /// the entry and keeps the node, as the interior nodes are kept.
    leaves: FxHashMap<u64, Box<LeafNode>>,
    /// Valid leaf entries.
    mapped: usize,
}

impl PageTable {
    /// Creates an empty table, allocating its root node from `frames`.
    ///
    /// # Errors
    ///
    /// Returns [`hvc_types::HvcError::OutOfMemory`] if no frame is free.
    pub fn new(frames: &mut BuddyAllocator) -> Result<Self> {
        let root = Node {
            frame: frames.alloc_frame()?,
            children: FxHashMap::default(),
        };
        Ok(PageTable {
            nodes: vec![root],
            leaves: FxHashMap::default(),
            mapped: 0,
        })
    }

    /// Installs or replaces the mapping for `vpage`.
    ///
    /// Interior and leaf nodes are created on demand (each takes a
    /// physical frame, PDPT first).
    ///
    /// # Errors
    ///
    /// Returns [`hvc_types::HvcError::OutOfMemory`] if a node cannot be
    /// allocated, and [`hvc_types::HvcError::BadConfig`] (leaving the
    /// table unchanged) if `pte.frame` is at or beyond [`PTE_FRAMES`].
    pub fn map(&mut self, frames: &mut BuddyAllocator, vpage: VirtPage, pte: Pte) -> Result<()> {
        if pte.frame.as_u64() >= PTE_FRAMES {
            return Err(HvcError::BadConfig(
                "frame beyond the 512 GiB a page-table entry can name",
            ));
        }
        let key = leaf_key(vpage);
        if !self.leaves.contains_key(&key) {
            let mut upper = [PhysAddr::new(0); PT_LEVELS - 1];
            let mut node = 0usize;
            for level in (1..PT_LEVELS).rev() {
                let idx = Self::level_index(vpage, level);
                upper[PT_LEVELS - 1 - level] = self.nodes[node].frame.base() + u64::from(idx) * 8;
                if level == 1 {
                    break;
                }
                node = match self.nodes[node].children.get(&idx) {
                    Some(&child) => child,
                    None => {
                        let frame = frames.alloc_frame()?;
                        let child = self.nodes.len();
                        self.nodes.push(Node {
                            frame,
                            children: FxHashMap::default(),
                        });
                        self.nodes[node].children.insert(idx, child);
                        child
                    }
                };
            }
            let leaf = LeafNode {
                entries: [0; NODE_ENTRIES],
                upper,
                frame: frames.alloc_frame()?,
            };
            self.leaves.insert(key, Box::new(leaf));
        }
        let entry = &mut self
            .leaves
            .get_mut(&key)
            .expect("leaf node just ensured")
            .entries[leaf_slot(vpage)];
        self.mapped += usize::from(*entry & ENTRY_VALID == 0);
        *entry = pte.pack();
        Ok(())
    }

    /// Removes the mapping for `vpage`, returning the old entry.
    pub fn unmap(&mut self, vpage: VirtPage) -> Option<Pte> {
        let entry = &mut self.leaves.get_mut(&leaf_key(vpage))?.entries[leaf_slot(vpage)];
        let old = Pte::unpack(std::mem::take(entry))?;
        self.mapped -= 1;
        Some(old)
    }

    /// Looks up the leaf entry for `vpage`.
    #[inline]
    pub fn lookup(&self, vpage: VirtPage) -> Option<Pte> {
        Pte::unpack(self.leaves.get(&leaf_key(vpage))?.entries[leaf_slot(vpage)])
    }

    /// Applies `f` to the leaf entry of `vpage` (permission or
    /// sharing-bit changes) and returns its result, or `None` if the
    /// page is unmapped.
    pub fn update<R>(&mut self, vpage: VirtPage, f: impl FnOnce(&mut Pte) -> R) -> Option<R> {
        let entry = &mut self.leaves.get_mut(&leaf_key(vpage))?.entries[leaf_slot(vpage)];
        let mut pte = Pte::unpack(*entry)?;
        let out = f(&mut pte);
        assert!(
            pte.frame.as_u64() < PTE_FRAMES,
            "frame beyond the entry's range"
        );
        *entry = pte.pack();
        Some(out)
    }

    /// Returns the leaf entry together with the four physical addresses a
    /// hardware walker would read, root first, or `None` if the page is
    /// unmapped (a true page fault). One probe: the leaf node carries its
    /// path.
    #[inline]
    pub fn walk(&self, vpage: VirtPage) -> Option<(Pte, WalkPath)> {
        let leaf = self.leaves.get(&leaf_key(vpage))?;
        let slot = leaf_slot(vpage);
        Some((Pte::unpack(leaf.entries[slot])?, leaf.path(slot)))
    }

    /// The physical entry addresses a walk of `vpage` touches, root
    /// first, found node by node. The path is well-defined even for
    /// unmapped pages as far as nodes exist: levels whose node is missing
    /// repeat the deepest existing node's entry address (the walk aborts
    /// there in reality; charging the same address keeps accounting
    /// simple and conservative).
    pub fn walk_path(&self, vpage: VirtPage) -> WalkPath {
        let mut path = [PhysAddr::new(0); PT_LEVELS];
        let mut node = 0usize;
        for level in (1..PT_LEVELS).rev() {
            let idx = Self::level_index(vpage, level);
            let entry_addr = self.nodes[node].frame.base() + u64::from(idx) * 8;
            path[PT_LEVELS - 1 - level] = entry_addr;
            if level == 1 {
                path[PT_LEVELS - 1] = match self.leaves.get(&leaf_key(vpage)) {
                    Some(leaf) => leaf.entry_addr(leaf_slot(vpage)),
                    None => entry_addr,
                };
            } else if let Some(&child) = self.nodes[node].children.get(&idx) {
                node = child;
            } else {
                // Walk aborts; charge remaining levels to the same entry
                // (they will be absorbed by the cache).
                path[PT_LEVELS - level..].fill(entry_addr);
                break;
            }
        }
        path
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Iterates over `(vpage, pte)` pairs: ascending within a leaf node,
    /// leaf nodes in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, Pte)> + '_ {
        self.leaves.iter().flat_map(|(&key, leaf)| {
            leaf.entries
                .iter()
                .enumerate()
                .filter_map(move |(slot, &entry)| {
                    Some((
                        VirtPage::new(key << LEVEL_BITS | slot as u64),
                        Pte::unpack(entry)?,
                    ))
                })
        })
    }

    /// Frames used by page-table nodes (page-table overhead accounting).
    pub fn node_frames(&self) -> usize {
        self.nodes.len() + self.leaves.len()
    }

    /// Index into the page-table level `level` (0 = leaf PT, 3 = PML4).
    fn level_index(vpage: VirtPage, level: usize) -> u16 {
        ((vpage.as_u64() >> (LEVEL_BITS as usize * level)) & ((1 << LEVEL_BITS) - 1)) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BuddyAllocator, PageTable) {
        let mut b = BuddyAllocator::new(1 << 30);
        let pt = PageTable::new(&mut b).unwrap();
        (b, pt)
    }

    fn pte(frame: u64) -> Pte {
        Pte {
            frame: PhysFrame::new(frame),
            perm: Permissions::RW,
            shared: false,
        }
    }

    #[test]
    fn map_then_lookup() {
        let (mut b, mut pt) = setup();
        let vp = VirtPage::new(0x12345);
        pt.map(&mut b, vp, pte(7)).unwrap();
        assert_eq!(pt.lookup(vp), Some(pte(7)));
        assert_eq!(pt.lookup(VirtPage::new(0x12346)), None);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn unmap_removes() {
        let (mut b, mut pt) = setup();
        let vp = VirtPage::new(5);
        pt.map(&mut b, vp, pte(1)).unwrap();
        assert_eq!(pt.unmap(vp), Some(pte(1)));
        assert_eq!(pt.lookup(vp), None);
        assert_eq!(pt.unmap(vp), None);
    }

    #[test]
    fn walk_reports_four_distinct_levels_for_spread_pages() {
        let (mut b, mut pt) = setup();
        let vp = VirtPage::new(0x0001_2345_6789);
        pt.map(&mut b, vp, pte(3)).unwrap();
        let (got, path) = pt.walk(vp).unwrap();
        assert_eq!(got, pte(3));
        // All four entry addresses are distinct (different nodes).
        for i in 0..PT_LEVELS {
            for j in i + 1..PT_LEVELS {
                assert_ne!(path[i], path[j]);
            }
        }
    }

    #[test]
    fn contiguous_pages_share_upper_level_nodes() {
        let (mut b, mut pt) = setup();
        pt.map(&mut b, VirtPage::new(0), pte(1)).unwrap();
        let nodes_before = pt.node_frames();
        pt.map(&mut b, VirtPage::new(1), pte(2)).unwrap();
        assert_eq!(pt.node_frames(), nodes_before, "same PT leaf node");
        let p0 = pt.walk_path(VirtPage::new(0));
        let p1 = pt.walk_path(VirtPage::new(1));
        assert_eq!(p0[0], p1[0], "same PML4 entry");
        assert_eq!(p0[1], p1[1]);
        assert_eq!(p0[2], p1[2]);
        assert_ne!(p0[3], p1[3], "different PT entries");
    }

    #[test]
    fn walk_of_unmapped_page_is_none_but_path_exists() {
        let (mut b, mut pt) = setup();
        pt.map(&mut b, VirtPage::new(0), pte(1)).unwrap();
        assert!(pt.walk(VirtPage::new(0x8000_0000)).is_none());
        let path = pt.walk_path(VirtPage::new(0x8000_0000));
        // Walk aborts at the root; all levels charge the root entry.
        assert_eq!(path[0], path[1]);
    }

    #[test]
    fn update_edits_in_place() {
        let (mut b, mut pt) = setup();
        let vp = VirtPage::new(9);
        pt.map(&mut b, vp, pte(4)).unwrap();
        assert_eq!(
            pt.update(vp, |p| std::mem::replace(&mut p.shared, true)),
            Some(false)
        );
        assert!(pt.lookup(vp).unwrap().shared);
        assert_eq!(pt.update(VirtPage::new(10), |p| p.shared = true), None);
        assert_eq!(pt.lookup(VirtPage::new(10)), None, "no entry created");
    }

    #[test]
    fn iter_visits_all_mappings() {
        let (mut b, mut pt) = setup();
        for i in 0..10 {
            pt.map(&mut b, VirtPage::new(i), pte(i)).unwrap();
        }
        let mut seen: Vec<u64> = pt.iter().map(|(vp, _)| vp.as_u64()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
