//! The OS-side, system-wide segment table.
//!
//! For many-segment delayed translation the OS eagerly allocates
//! variable-length contiguous physical regions and records each as a
//! [`Segment`]. The hardware structures in `hvc-segment` (segment table,
//! index tree, index cache) mirror this table; the paper sizes it at 2048
//! entries system-wide.

use hvc_types::{Asid, HvcError, PhysAddr, Result, VirtAddr};
use std::collections::BTreeMap;

/// Default capacity of the system-wide segment table (the paper's 2K).
pub const DEFAULT_SEGMENT_CAPACITY: usize = 2048;

/// Identifier of a segment: its index in the segment table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

/// A variable-length mapping from a contiguous `ASID ++ VA` range to a
/// contiguous physical range: `(base, limit, offset)` in the paper's
/// terms (we store `phys_base` and derive the offset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Identifier (index in the segment table).
    pub id: SegmentId,
    /// Owning address space.
    pub asid: Asid,
    /// First virtual address covered.
    pub base: VirtAddr,
    /// Length in bytes.
    pub len: u64,
    /// First physical address of the backing region.
    pub phys_base: PhysAddr,
}

impl Segment {
    /// Returns `true` if `(asid, va)` falls inside this segment.
    pub fn contains(&self, asid: Asid, va: VirtAddr) -> bool {
        self.asid == asid && va >= self.base && (va - self.base) < self.len
    }

    /// Translates `va` (which must be inside the segment) to a physical
    /// address by applying the segment offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `va` is outside the segment.
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        debug_assert!(va >= self.base && (va - self.base) < self.len);
        PhysAddr::new(self.phys_base.as_u64() + (va - self.base))
    }

    /// Exclusive end of the virtual range.
    pub fn end(&self) -> VirtAddr {
        self.base + self.len
    }
}

/// The system-wide in-memory segment table, sorted by `(ASID, base VA)` so
/// the hardware index tree can be built over it directly.
#[derive(Clone, Debug)]
pub struct SegmentTable {
    by_key: BTreeMap<(u16, u64), Segment>,
    by_id: Vec<Option<(u16, u64)>>,
    free_ids: Vec<u32>,
    /// Bumped on every mutation — hardware mirrors use it to detect
    /// staleness cheaply.
    version: u64,
}

impl SegmentTable {
    /// Creates an empty table with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SegmentTable {
            by_key: BTreeMap::new(),
            by_id: vec![None; capacity],
            free_ids: (0..capacity as u32).rev().collect(),
            version: 0,
        }
    }

    /// Monotonic mutation counter (insert / remove / grow).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.by_id.len()
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Returns `true` if no segments are registered.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Registers a new segment and returns its id.
    ///
    /// # Errors
    ///
    /// [`HvcError::SegmentTableFull`] if the table is at capacity;
    /// [`HvcError::RegionOverlap`] if the virtual range overlaps an
    /// existing segment of the same address space.
    pub fn insert(
        &mut self,
        asid: Asid,
        base: VirtAddr,
        len: u64,
        phys_base: PhysAddr,
    ) -> Result<SegmentId> {
        if self.overlaps(asid, base, len) {
            return Err(HvcError::RegionOverlap {
                asid,
                vaddr: base,
                len,
            });
        }
        let raw = self.free_ids.pop().ok_or(HvcError::SegmentTableFull)?;
        let id = SegmentId(raw);
        let seg = Segment {
            id,
            asid,
            base,
            len,
            phys_base,
        };
        let key = (asid.as_u16(), base.as_u64());
        self.by_key.insert(key, seg);
        self.by_id[raw as usize] = Some(key);
        self.version += 1;
        Ok(id)
    }

    /// Removes a segment by id, returning it.
    pub fn remove(&mut self, id: SegmentId) -> Option<Segment> {
        let key = self.by_id.get_mut(id.0 as usize)?.take()?;
        self.free_ids.push(id.0);
        self.version += 1;
        self.by_key.remove(&key)
    }

    /// Looks up a segment by id.
    pub fn get(&self, id: SegmentId) -> Option<&Segment> {
        let key = self.by_id.get(id.0 as usize)?.as_ref()?;
        self.by_key.get(key)
    }

    /// Finds the segment covering `(asid, va)`, if any — the predecessor
    /// query the hardware index tree accelerates.
    pub fn find(&self, asid: Asid, va: VirtAddr) -> Option<&Segment> {
        let key = (asid.as_u16(), va.as_u64());
        let (_, seg) = self.by_key.range(..=key).next_back()?;
        seg.contains(asid, va).then_some(seg)
    }

    /// Grows segment `id` in place to `new_len` bytes (physical backing
    /// must have been extended by the caller).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for an unknown id; [`HvcError::RegionOverlap`]
    /// if growth would collide with the next segment of the same space.
    pub fn grow(&mut self, id: SegmentId, new_len: u64) -> Result<()> {
        let key = self
            .by_id
            .get(id.0 as usize)
            .and_then(|k| *k)
            .ok_or(HvcError::BadId("unknown segment id"))?;
        let seg = self.by_key[&key];
        if new_len > seg.len {
            // Check the next segment in the same space does not begin
            // before the new end.
            let next = self
                .by_key
                .range((key.0, key.1 + 1)..)
                .next()
                .filter(|((a, _), _)| *a == key.0);
            if let Some((_, n)) = next {
                if n.base.as_u64() < seg.base.as_u64() + new_len {
                    return Err(HvcError::RegionOverlap {
                        asid: seg.asid,
                        vaddr: seg.base,
                        len: new_len,
                    });
                }
            }
        }
        self.by_key.get_mut(&key).expect("checked").len = new_len;
        self.version += 1;
        Ok(())
    }

    /// Iterates segments in `(ASID, base)` order — the order the index
    /// tree is built in.
    pub fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.by_key.values()
    }

    /// Iterates the segments of one address space in base order.
    pub fn iter_asid(&self, asid: Asid) -> impl Iterator<Item = &Segment> {
        let a = asid.as_u16();
        self.by_key.range((a, 0)..=(a, u64::MAX)).map(|(_, s)| s)
    }

    /// Number of segments owned by `asid`.
    pub fn count_asid(&self, asid: Asid) -> usize {
        self.iter_asid(asid).count()
    }

    fn overlaps(&self, asid: Asid, base: VirtAddr, len: u64) -> bool {
        let a = asid.as_u16();
        // Predecessor may extend over `base`.
        if let Some((_, prev)) = self.by_key.range(..=(a, base.as_u64())).next_back() {
            if prev.asid == asid && prev.end() > base && prev.base <= base {
                return true;
            }
        }
        // Successor may begin before `base + len`.
        if let Some((_, next)) = self.by_key.range((a, base.as_u64() + 1)..).next() {
            if next.asid == asid && next.base.as_u64() < base.as_u64() + len {
                return true;
            }
        }
        false
    }
}

impl Default for SegmentTable {
    fn default() -> Self {
        SegmentTable::new(DEFAULT_SEGMENT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Asid {
        Asid::new(n)
    }

    fn va(n: u64) -> VirtAddr {
        VirtAddr::new(n)
    }

    fn pa(n: u64) -> PhysAddr {
        PhysAddr::new(n)
    }

    #[test]
    fn insert_find_translate() {
        let mut t = SegmentTable::new(8);
        let id = t.insert(a(1), va(0x10000), 0x4000, pa(0x800000)).unwrap();
        let s = t.find(a(1), va(0x12345)).unwrap();
        assert_eq!(s.id, id);
        assert_eq!(s.translate(va(0x12345)), pa(0x802345));
        assert!(t.find(a(1), va(0x14000)).is_none(), "end is exclusive");
        assert!(t.find(a(2), va(0x12345)).is_none(), "wrong ASID");
        assert!(t.find(a(1), va(0xffff)).is_none(), "below base");
    }

    #[test]
    fn capacity_enforced() {
        let mut t = SegmentTable::new(2);
        t.insert(a(1), va(0x0000), 0x1000, pa(0)).unwrap();
        t.insert(a(1), va(0x2000), 0x1000, pa(0x1000)).unwrap();
        assert_eq!(
            t.insert(a(1), va(0x4000), 0x1000, pa(0x2000)),
            Err(HvcError::SegmentTableFull)
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overlap_rejected_same_space_only() {
        let mut t = SegmentTable::new(8);
        t.insert(a(1), va(0x1000), 0x2000, pa(0)).unwrap();
        assert!(matches!(
            t.insert(a(1), va(0x2000), 0x1000, pa(0x9000)),
            Err(HvcError::RegionOverlap { .. })
        ));
        assert!(matches!(
            t.insert(a(1), va(0x0000), 0x2000, pa(0x9000)),
            Err(HvcError::RegionOverlap { .. })
        ));
        // Different address space: same VA range is fine.
        assert!(t.insert(a(2), va(0x1000), 0x2000, pa(0x9000)).is_ok());
    }

    #[test]
    fn remove_recycles_ids() {
        let mut t = SegmentTable::new(1);
        let id = t.insert(a(1), va(0), 0x1000, pa(0)).unwrap();
        assert!(t.get(id).is_some());
        let seg = t.remove(id).unwrap();
        assert_eq!(seg.len, 0x1000);
        assert!(t.get(id).is_none());
        assert!(t.remove(id).is_none());
        // Capacity is available again.
        t.insert(a(1), va(0x2000), 0x1000, pa(0)).unwrap();
    }

    #[test]
    fn grow_in_place() {
        let mut t = SegmentTable::new(8);
        let id = t.insert(a(1), va(0x1000), 0x1000, pa(0)).unwrap();
        t.insert(a(1), va(0x8000), 0x1000, pa(0x10000)).unwrap();
        t.grow(id, 0x3000).unwrap();
        assert!(t.find(a(1), va(0x3fff)).is_some());
        // Growing into the next segment fails.
        assert!(matches!(
            t.grow(id, 0x8000),
            Err(HvcError::RegionOverlap { .. })
        ));
        assert!(matches!(t.grow(SegmentId(99), 1), Err(HvcError::BadId(_))));
    }

    #[test]
    fn iteration_orders_by_asid_then_base() {
        let mut t = SegmentTable::new(8);
        t.insert(a(2), va(0x1000), 0x1000, pa(0)).unwrap();
        t.insert(a(1), va(0x5000), 0x1000, pa(0)).unwrap();
        t.insert(a(1), va(0x1000), 0x1000, pa(0)).unwrap();
        let order: Vec<(u16, u64)> = t
            .iter()
            .map(|s| (s.asid.as_u16(), s.base.as_u64()))
            .collect();
        assert_eq!(order, vec![(1, 0x1000), (1, 0x5000), (2, 0x1000)]);
        assert_eq!(t.count_asid(a(1)), 2);
        assert_eq!(t.iter_asid(a(2)).count(), 1);
    }
}
