//! Per-process address spaces: VMAs, page table, synonym filter.

use crate::pagetable::PageTable;
use crate::segment::SegmentId;
use crate::shm::ShmId;
use hvc_filter::{FilterKind, SynonymFilter};
use hvc_types::{Asid, Permissions, VirtAddr, PAGE_SHIFT};
use std::collections::BTreeMap;

/// What backs a virtual memory area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VmaBacking {
    /// Anonymous private memory (non-synonym).
    Private,
    /// A r/w shared-memory object (synonym pages).
    Shared(ShmId),
    /// A read-only mapping of a shared object (content sharing — *not* a
    /// synonym thanks to the paper's r/o optimization).
    SharedRo(ShmId),
    /// A DMA buffer (synonym: devices address it physically).
    Dma,
}

/// A virtual memory area of one address space.
#[derive(Clone, Debug)]
pub struct Vma {
    /// First address (page aligned).
    pub start: VirtAddr,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// Permissions pages of this area are mapped with.
    pub perm: Permissions,
    pub(crate) backing: VmaBacking,
    /// Segments eagerly allocated for this area (eager policy only).
    pub(crate) segments: Vec<SegmentId>,
}

impl Vma {
    /// Exclusive end address.
    pub fn end(&self) -> VirtAddr {
        self.start + self.len
    }

    /// Returns `true` if `va` falls inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }

    /// Returns `true` if the backing produces r/w synonym pages.
    pub fn is_rw_shared(&self) -> bool {
        matches!(self.backing, VmaBacking::Shared(_) | VmaBacking::Dma)
    }
}

/// One process address space.
#[derive(Debug)]
pub struct AddressSpace {
    /// The identifier the cache hierarchy tags non-synonym lines with.
    pub asid: Asid,
    pub(crate) page_table: PageTable,
    /// The OS-maintained synonym filter pair for this space.
    pub filter: SynonymFilter,
    pub(crate) vmas: BTreeMap<u64, Vma>,
}

impl AddressSpace {
    pub(crate) fn new(asid: Asid, page_table: PageTable, filter_kind: FilterKind) -> Self {
        AddressSpace {
            asid,
            page_table,
            filter: SynonymFilter::with_kind(filter_kind),
            vmas: BTreeMap::new(),
        }
    }

    /// Finds the VMA containing `va`.
    pub fn vma(&self, va: VirtAddr) -> Option<&Vma> {
        let (_, vma) = self.vmas.range(..=va.as_u64()).next_back()?;
        vma.contains(va).then_some(vma)
    }

    /// Returns `true` if `[start, start+len)` overlaps any VMA.
    pub(crate) fn overlaps(&self, start: VirtAddr, len: u64) -> bool {
        if let Some((_, prev)) = self.vmas.range(..=start.as_u64()).next_back() {
            if prev.end() > start {
                return true;
            }
        }
        if let Some((_, next)) = self.vmas.range(start.as_u64() + 1..).next() {
            if next.start.as_u64() < start.as_u64() + len {
                return true;
            }
        }
        false
    }

    /// Iterates the VMAs in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Pages currently mapped in the page table.
    pub fn mapped_pages(&self) -> usize {
        self.page_table.mapped_pages()
    }

    /// Total pages backing r/w-shared (synonym) VMAs.
    pub fn rw_shared_pages(&self) -> u64 {
        self.vmas
            .values()
            .filter(|v| v.is_rw_shared())
            .map(|v| v.len >> PAGE_SHIFT)
            .sum()
    }

    /// Total pages across all VMAs.
    pub fn total_vma_pages(&self) -> u64 {
        self.vmas.values().map(|v| v.len >> PAGE_SHIFT).sum()
    }

    /// Read-only view of the page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuddyAllocator;

    fn space() -> (BuddyAllocator, AddressSpace) {
        let mut b = BuddyAllocator::new(1 << 30);
        let pt = PageTable::new(&mut b).unwrap();
        (b, AddressSpace::new(Asid::new(1), pt, FilterKind::Bloom))
    }

    fn vma(start: u64, len: u64, backing: VmaBacking) -> Vma {
        Vma {
            start: VirtAddr::new(start),
            len,
            perm: Permissions::RW,
            backing,
            segments: Vec::new(),
        }
    }

    #[test]
    fn vma_lookup() {
        let (_b, mut s) = space();
        s.vmas
            .insert(0x1000, vma(0x1000, 0x2000, VmaBacking::Private));
        assert!(s.vma(VirtAddr::new(0x1000)).is_some());
        assert!(s.vma(VirtAddr::new(0x2fff)).is_some());
        assert!(s.vma(VirtAddr::new(0x3000)).is_none());
        assert!(s.vma(VirtAddr::new(0x0fff)).is_none());
    }

    #[test]
    fn overlap_detection() {
        let (_b, mut s) = space();
        s.vmas
            .insert(0x2000, vma(0x2000, 0x2000, VmaBacking::Private));
        assert!(s.overlaps(VirtAddr::new(0x3000), 0x1000));
        assert!(s.overlaps(VirtAddr::new(0x1000), 0x1001));
        assert!(!s.overlaps(VirtAddr::new(0x1000), 0x1000));
        assert!(!s.overlaps(VirtAddr::new(0x4000), 0x1000));
    }

    #[test]
    fn sharing_accounting() {
        let (_b, mut s) = space();
        s.vmas
            .insert(0x1000, vma(0x1000, 0x4000, VmaBacking::Private));
        s.vmas
            .insert(0x10000, vma(0x10000, 0x2000, VmaBacking::Shared(ShmId(0))));
        s.vmas.insert(
            0x20000,
            vma(0x20000, 0x1000, VmaBacking::SharedRo(ShmId(1))),
        );
        s.vmas
            .insert(0x30000, vma(0x30000, 0x1000, VmaBacking::Dma));
        assert_eq!(s.rw_shared_pages(), 2 + 1, "shm + dma count, r/o does not");
        assert_eq!(s.total_vma_pages(), 4 + 2 + 1 + 1);
    }
}
