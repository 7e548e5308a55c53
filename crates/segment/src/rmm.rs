//! Redundant Memory Mappings (RMM) baseline: a small, core-side,
//! fully-associative set of segment registers on the critical
//! core-to-L1 path.
//!
//! The paper reproduces RMM's published segment counts (Table III) and
//! shows that with only 32 segments, segment-heavy workloads thrash. We
//! model the 32-entry range TLB with its 7-cycle (L2-TLB-equivalent)
//! latency; the simulator's `rmm` scheme counts its probes and misses.

use hvc_os::{Segment, SegmentTable};
use hvc_types::{Asid, Cycles, LruTags, PhysAddr, VirtAddr};

/// The RMM range TLB: fully-associative variable-length segment
/// registers (32 in the paper, operating at seven cycles).
///
/// Lookups match by range, so the tag array's keys (`asid << 48 |
/// base`) serve only its recency bookkeeping and invalidation.
#[derive(Clone, Debug)]
pub struct Rmm {
    entries: LruTags<Segment>,
    latency: Cycles,
    /// Segment-table version of the last [`Rmm::sync`].
    version: u64,
}

/// The tag-array key of a cached segment.
fn key(asid: Asid, base: VirtAddr) -> u64 {
    u64::from(asid.as_u16()) << 48 | base.as_u64()
}

impl Rmm {
    /// The published configuration: 32 segments at 7 cycles.
    pub fn rmm32() -> Self {
        Rmm {
            entries: LruTags::new(32),
            latency: Cycles::new(7),
            version: 0,
        }
    }

    /// Lookup latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Attempts to translate `va`; on a miss (`None`) the caller walks
    /// the OS segment table ([`Rmm::fill_from`]).
    pub fn translate(&mut self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        let slot = self.entries.find_by(|seg| seg.contains(asid, va))?;
        self.entries.touch(slot);
        Some(self.entries.payload(slot).translate(va))
    }

    /// Services a miss by walking the OS table; returns the translation
    /// if a segment covers the address, filling the range TLB. A segment
    /// the OS grew since it was cached replaces its shorter copy.
    pub fn fill_from(
        &mut self,
        table: &SegmentTable,
        asid: Asid,
        va: VirtAddr,
    ) -> Option<PhysAddr> {
        let seg = *table.find(asid, va)?;
        self.entries.put(key(seg.asid, seg.base), seg);
        Some(seg.translate(va))
    }

    /// Drops every entry whose segment `table` no longer holds, once
    /// per table version: an entry survives while a live segment with
    /// its id starts at its base and physical base and is at least as
    /// long (the OS grows segments in place).
    pub fn sync(&mut self, table: &SegmentTable) {
        if self.version == table.version() {
            return;
        }
        self.version = table.version();
        let stale: Vec<u64> = self
            .entries()
            .filter(|seg| {
                !table.get(seg.id).is_some_and(|live| {
                    live.asid == seg.asid
                        && live.base == seg.base
                        && live.phys_base == seg.phys_base
                        && live.len >= seg.len
                })
            })
            .map(|seg| key(seg.asid, seg.base))
            .collect();
        if !stale.is_empty() {
            self.entries.retain(|k| !stale.contains(&k));
        }
    }

    /// The cached segments, most recently used first.
    pub fn entries(&self) -> impl Iterator<Item = &Segment> + '_ {
        self.entries
            .keys_by_recency()
            .filter_map(|k| self.entries.find(k))
            .map(|slot| self.entries.payload(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u64) -> SegmentTable {
        let mut t = SegmentTable::new(4096);
        for i in 0..n {
            t.insert(
                Asid::new(1),
                VirtAddr::new(0x100_0000 * (i + 1)),
                0x1000,
                PhysAddr::new(0x8000_0000 + i * 0x1000),
            )
            .unwrap();
        }
        t
    }

    /// Round-robin over the first `n` segments of `t`, `rounds` times;
    /// returns the range-TLB hits.
    fn round_robin(r: &mut Rmm, t: &SegmentTable, n: u64, rounds: usize) -> usize {
        let mut hits = 0;
        for _ in 0..rounds {
            for i in 0..n {
                let va = VirtAddr::new(0x100_0000 * (i + 1) + 0x40);
                if r.translate(Asid::new(1), va).is_some() {
                    hits += 1;
                } else {
                    r.fill_from(t, Asid::new(1), va).unwrap();
                }
            }
        }
        hits
    }

    #[test]
    fn miss_fill_hit() {
        let t = table(1);
        let mut r = Rmm::rmm32();
        let va = VirtAddr::new(0x100_0040);
        assert_eq!(r.translate(Asid::new(1), va), None);
        let pa = r.fill_from(&t, Asid::new(1), va).unwrap();
        assert_eq!(pa, PhysAddr::new(0x8000_0040));
        assert_eq!(r.translate(Asid::new(1), va), Some(pa));
        assert_eq!(r.entries().count(), 1);
    }

    #[test]
    fn thrashing_beyond_32_segments() {
        let t = table(64);
        let mut r = Rmm::rmm32();
        assert_eq!(
            round_robin(&mut r, &t, 64, 2),
            0,
            "LRU round-robin over 2× capacity never hits"
        );
    }

    #[test]
    fn within_32_segments_no_thrash() {
        let t = table(16);
        let mut r = Rmm::rmm32();
        assert_eq!(round_robin(&mut r, &t, 16, 3), 32, "only cold misses");
    }

    #[test]
    fn sync_drops_only_removed_segments() {
        let mut t = table(4);
        let mut r = Rmm::rmm32();
        round_robin(&mut r, &t, 4, 1);
        r.sync(&t);
        assert_eq!(r.entries().count(), 4, "every entry is live");
        let gone = t.find(Asid::new(1), VirtAddr::new(0x200_0000)).unwrap().id;
        t.remove(gone);
        // The freed id comes back for a segment elsewhere.
        t.insert(
            Asid::new(1),
            VirtAddr::new(0x900_0000),
            0x1000,
            PhysAddr::new(0x9000_0000),
        )
        .unwrap();
        r.sync(&t);
        assert_eq!(r.entries().count(), 3);
        assert!(r
            .translate(Asid::new(1), VirtAddr::new(0x200_0000))
            .is_none());
    }

    #[test]
    fn a_grown_segment_replaces_its_cached_copy() {
        let mut t = table(1);
        let mut r = Rmm::rmm32();
        let asid = Asid::new(1);
        r.fill_from(&t, asid, VirtAddr::new(0x100_0000)).unwrap();
        let id = t.find(asid, VirtAddr::new(0x100_0000)).unwrap().id;
        t.grow(id, 0x2000).unwrap();
        let past_old_end = VirtAddr::new(0x100_1000);
        assert!(r.translate(asid, past_old_end).is_none());
        assert_eq!(
            r.fill_from(&t, asid, past_old_end),
            Some(PhysAddr::new(0x8000_1000))
        );
        assert_eq!(r.entries().count(), 1);
        assert_eq!(r.entries().next().unwrap().len, 0x2000);
        // A copy cached before the growth still translates correctly and
        // survives a sync.
        let mut before = Rmm::rmm32();
        before
            .fill_from(&table(1), asid, VirtAddr::new(0x100_0000))
            .unwrap();
        before.sync(&t);
        assert_eq!(before.entries().count(), 1);
    }

    #[test]
    fn uncovered_address_stays_none() {
        let t = table(1);
        let mut r = Rmm::rmm32();
        assert!(r
            .fill_from(&t, Asid::new(1), VirtAddr::new(0x9999_0000))
            .is_none());
    }
}
