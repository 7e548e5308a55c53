//! The hardware segment table mirroring the OS's in-memory table.

use hvc_os::{Segment, SegmentId, SegmentTable};
use hvc_types::{Cycles, VirtAddr};

/// The on-chip segment table: a 2048-entry SRAM array indexed by segment
/// id, mirroring the OS table 1:1 ("segment misses occur only for cold
/// misses, as the size of HW table is equal to the in-memory segment
/// table size"). CACTI puts its access at seven cycles. Because the
/// mirror is re-synced whenever the OS table changes, it never takes a
/// cold miss.
#[derive(Clone, Debug)]
pub struct HwSegmentTable {
    entries: Vec<Option<Segment>>,
    latency: Cycles,
}

impl HwSegmentTable {
    /// Creates a hardware table pre-populated from the OS table.
    pub fn mirror(table: &SegmentTable, latency: Cycles) -> Self {
        let mut hw = HwSegmentTable {
            entries: vec![None; table.capacity()],
            latency,
        };
        hw.sync(table);
        hw
    }

    /// Access latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Re-mirrors the OS table (shootdown-style bulk update).
    pub fn sync(&mut self, table: &SegmentTable) {
        for e in &mut self.entries {
            *e = None;
        }
        for seg in table.iter() {
            self.entries[seg.id.0 as usize] = Some(*seg);
        }
    }

    /// Looks up segment `id`; `None` if the OS table holds no such
    /// segment.
    pub fn get(&self, id: SegmentId) -> Option<&Segment> {
        self.entries.get(id.0 as usize)?.as_ref()
    }

    /// Base/limit check: segment `id`, if it covers `va` of `asid`.
    pub fn covering(&self, id: SegmentId, asid: hvc_types::Asid, va: VirtAddr) -> Option<&Segment> {
        self.get(id).filter(|seg| seg.contains(asid, va))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::{Asid, PhysAddr};

    fn os_table() -> SegmentTable {
        let mut t = SegmentTable::new(16);
        t.insert(
            Asid::new(1),
            VirtAddr::new(0x10000),
            0x4000,
            PhysAddr::new(0x800000),
        )
        .unwrap();
        t
    }

    #[test]
    fn mirror_and_translate() {
        let os = os_table();
        let hw = HwSegmentTable::mirror(&os, Cycles::new(7));
        let id = os.iter().next().unwrap().id;
        let va = VirtAddr::new(0x11000);
        assert_eq!(
            hw.covering(id, Asid::new(1), va)
                .map(|seg| seg.translate(va)),
            Some(PhysAddr::new(0x801000))
        );
        // Out of bounds or wrong ASID: no translation.
        assert!(hw
            .covering(id, Asid::new(1), VirtAddr::new(0x14000))
            .is_none());
        assert!(hw.covering(id, Asid::new(2), va).is_none());
    }

    #[test]
    fn sync_replaces_contents() {
        let mut os = os_table();
        let mut hw = HwSegmentTable::mirror(&os, Cycles::new(7));
        let id = os.iter().next().unwrap().id;
        os.remove(id);
        hw.sync(&os);
        assert!(hw.get(id).is_none());
    }
}
