//! Redundant Memory Mappings (RMM) baseline: a small, core-side,
//! fully-associative set of segment registers on the critical
//! core-to-L1 path.
//!
//! The paper reproduces RMM's published segment counts (Table III) and
//! shows that with only 32 segments, segment-heavy workloads thrash. We
//! model the 32-entry range TLB with its 7-cycle (L2-TLB-equivalent)
//! latency and count misses per kilo-instruction.

use hvc_os::{Segment, SegmentTable};
use hvc_types::{Asid, Cycles, LruTags, PhysAddr, VirtAddr};

/// RMM counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RmmStats {
    /// Range-TLB hits.
    pub hits: u64,
    /// Range-TLB misses (segment walk + fill).
    pub misses: u64,
}

impl RmmStats {
    /// Misses per 1000 lookups scaled by an instruction count — the MPKI
    /// metric of Table III when `instructions` covers the trace.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.misses as f64 * 1000.0 / instructions as f64
    }
}

/// The RMM range TLB: `capacity` fully-associative variable-length
/// segment registers (32 in the paper, operating at seven cycles).
///
/// Lookups match by range, so the tag array's keys (`asid << 48 |
/// base`) serve only its recency bookkeeping.
#[derive(Clone, Debug)]
pub struct Rmm {
    entries: LruTags<Segment>,
    latency: Cycles,
    stats: RmmStats,
}

impl Rmm {
    /// Creates an RMM range TLB with `capacity` entries.
    pub fn new(capacity: usize, latency: Cycles) -> Self {
        Rmm {
            entries: LruTags::new(capacity),
            latency,
            stats: RmmStats::default(),
        }
    }

    /// The published configuration: 32 segments at 7 cycles.
    pub fn rmm32() -> Self {
        Rmm::new(32, Cycles::new(7))
    }

    /// Lookup latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Attempts to translate `va`; on a miss the caller must walk the OS
    /// segment table ([`Rmm::fill_from`]) — misses are counted here.
    pub fn translate(&mut self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        if let Some(slot) = self.entries.find_by(|seg| seg.contains(asid, va)) {
            self.entries.touch(slot);
            self.stats.hits += 1;
            return Some(self.entries.payload(slot).translate(va));
        }
        self.stats.misses += 1;
        None
    }

    /// Services a miss by walking the OS table; returns the translation
    /// if a segment covers the address, filling the range TLB.
    pub fn fill_from(
        &mut self,
        table: &SegmentTable,
        asid: Asid,
        va: VirtAddr,
    ) -> Option<PhysAddr> {
        let seg = *table.find(asid, va)?;
        let key = u64::from(seg.asid.as_u16()) << 48 | seg.base.as_u64();
        self.entries.insert(key, seg);
        Some(seg.translate(va))
    }

    /// Invalidates everything (context switch in the strictest model;
    /// entries are ASID-checked so this is optional).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Counters.
    pub fn stats(&self) -> &RmmStats {
        &self.stats
    }

    /// Resets counters.
    pub fn reset_stats(&mut self) {
        self.stats = RmmStats::default();
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

    #[test]
    fn miss_fill_hit() {
        let t = table(1);
        let mut r = Rmm::rmm32();
        let va = VirtAddr::new(0x100_0040);
        assert_eq!(r.translate(Asid::new(1), va), None);
        let pa = r.fill_from(&t, Asid::new(1), va).unwrap();
        assert_eq!(pa, PhysAddr::new(0x8000_0040));
        assert_eq!(r.translate(Asid::new(1), va), Some(pa));
        assert_eq!(r.stats().hits, 1);
        assert_eq!(r.stats().misses, 1);
    }

    #[test]
    fn thrashing_beyond_32_segments() {
        let t = table(64);
        let mut r = Rmm::rmm32();
        // Round-robin over 64 segments: every access misses after warmup.
        for round in 0..2 {
            for i in 0..64u64 {
                let va = VirtAddr::new(0x100_0000 * (i + 1) + 0x40);
                if r.translate(Asid::new(1), va).is_none() {
                    r.fill_from(&t, Asid::new(1), va).unwrap();
                }
            }
            let _ = round;
        }
        assert_eq!(
            r.stats().hits,
            0,
            "LRU round-robin over 2× capacity never hits"
        );
    }

    #[test]
    fn within_32_segments_no_thrash() {
        let t = table(16);
        let mut r = Rmm::rmm32();
        for _ in 0..3 {
            for i in 0..16u64 {
                let va = VirtAddr::new(0x100_0000 * (i + 1) + 0x40);
                if r.translate(Asid::new(1), va).is_none() {
                    r.fill_from(&t, Asid::new(1), va).unwrap();
                }
            }
        }
        assert_eq!(r.stats().misses, 16, "only cold misses");
    }

    #[test]
    fn mpki_accounting() {
        let s = RmmStats { hits: 0, misses: 5 };
        assert!((s.mpki(1000) - 5.0).abs() < 1e-12);
        assert_eq!(s.mpki(0), 0.0);
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
