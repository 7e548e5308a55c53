//! The baseline two-level TLB (Haswell-like, Table IV).

use crate::{Tlb, TlbConfig};
use hvc_os::Pte;
use hvc_types::{Asid, Cycles, VirtPage};

/// Which level served a two-level TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbHit {
    /// Served by the L1 TLB.
    L1,
    /// Served by the L2 TLB (entry promoted into L1).
    L2,
    /// Missed both levels (page walk required).
    Miss,
}

/// A two-level TLB: small fast L1 backed by a larger L2, both
/// ASID-tagged. Matches the paper's baseline (64-entry L1, 1024-entry
/// 8-way L2).
#[derive(Clone, Debug)]
pub struct TwoLevelTlb {
    l1: Tlb,
    l2: Tlb,
}

impl TwoLevelTlb {
    /// Creates the paper's baseline configuration.
    pub fn isca2016_baseline() -> Self {
        TwoLevelTlb::new(TlbConfig::l1_64(), TlbConfig::l2_1024())
    }

    /// Creates a two-level TLB from explicit configurations.
    pub fn new(l1: TlbConfig, l2: TlbConfig) -> Self {
        TwoLevelTlb {
            l1: Tlb::new(l1),
            l2: Tlb::new(l2),
        }
    }

    /// Looks up a translation; L2 hits are promoted into L1. Returns the
    /// serving level and the lookup latency.
    pub fn lookup(&mut self, asid: Asid, vpage: VirtPage) -> (Option<Pte>, TlbHit, Cycles) {
        let l1_lat = self.l1.config().latency;
        if let Some(pte) = self.l1.lookup(asid, vpage) {
            return (Some(pte), TlbHit::L1, l1_lat);
        }
        let lat = l1_lat + self.l2.config().latency;
        if let Some(pte) = self.l2.lookup(asid, vpage) {
            self.l1.insert(asid, vpage, pte);
            return (Some(pte), TlbHit::L2, lat);
        }
        (None, TlbHit::Miss, lat)
    }

    /// Inserts a walked translation into both levels.
    pub fn insert(&mut self, asid: Asid, vpage: VirtPage, pte: Pte) {
        self.l2.insert(asid, vpage, pte);
        self.l1.insert(asid, vpage, pte);
    }

    /// Shootdown of a single page.
    pub fn flush_page(&mut self, asid: Asid, vpage: VirtPage) {
        self.l1.flush_page(asid, vpage);
        self.l2.flush_page(asid, vpage);
    }

    /// Shootdown of a whole address space.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.l1.flush_asid(asid);
        self.l2.flush_asid(asid);
    }

    /// The L1 level (for statistics).
    pub fn l1(&self) -> &Tlb {
        &self.l1
    }

    /// The L2 level (for statistics).
    pub fn l2(&self) -> &Tlb {
        &self.l2
    }

    /// Total lookups that missed both levels.
    pub fn full_misses(&self) -> u64 {
        self.l2.stats().misses
    }

    /// Iterates over all valid entries in both levels (see
    /// [`Tlb::entries`]); entries resident in both L1 and L2 appear
    /// twice.
    pub fn entries(&self) -> impl Iterator<Item = (Asid, VirtPage, Pte)> + '_ {
        self.l1.entries().chain(self.l2.entries())
    }

    /// Resets statistics on both levels.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }
}

impl Default for TwoLevelTlb {
    fn default() -> Self {
        TwoLevelTlb::isca2016_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::{Permissions, PhysFrame};

    fn pte(frame: u64) -> Pte {
        Pte {
            frame: PhysFrame::new(frame),
            perm: Permissions::RW,
            shared: false,
        }
    }

    #[test]
    fn miss_insert_hit_l1() {
        let mut t = TwoLevelTlb::isca2016_baseline();
        let a = Asid::new(1);
        let (p, hit, lat) = t.lookup(a, VirtPage::new(3));
        assert_eq!((p, hit), (None, TlbHit::Miss));
        assert_eq!(lat, Cycles::new(8));
        t.insert(a, VirtPage::new(3), pte(5));
        let (p, hit, lat) = t.lookup(a, VirtPage::new(3));
        assert_eq!((p, hit), (Some(pte(5)), TlbHit::L1));
        assert_eq!(lat, Cycles::new(1));
    }

    #[test]
    fn l2_hit_promotes() {
        let mut small_l1 = TwoLevelTlb::new(
            TlbConfig::new(2, 2, Cycles::new(1)),
            TlbConfig::new(64, 8, Cycles::new(7)),
        );
        let a = Asid::new(1);
        // Fill L1 set with conflicting pages; the victim stays in L2.
        for i in 0..3 {
            small_l1.insert(a, VirtPage::new(i), pte(i));
        }
        // Page 0 was evicted from the 2-entry L1 but remains in L2.
        let (p, hit, _) = small_l1.lookup(a, VirtPage::new(0));
        assert_eq!((p, hit), (Some(pte(0)), TlbHit::L2));
        let (_, hit, _) = small_l1.lookup(a, VirtPage::new(0));
        assert_eq!(hit, TlbHit::L1, "promotion into L1");
    }

    #[test]
    fn flush_hits_both_levels() {
        let mut t = TwoLevelTlb::isca2016_baseline();
        let a = Asid::new(1);
        t.insert(a, VirtPage::new(1), pte(1));
        t.flush_page(a, VirtPage::new(1));
        let (p, _, _) = t.lookup(a, VirtPage::new(1));
        assert_eq!(p, None);
        t.insert(a, VirtPage::new(2), pte(2));
        t.flush_asid(a);
        let (p, _, _) = t.lookup(a, VirtPage::new(2));
        assert_eq!(p, None);
        assert_eq!(t.full_misses(), 2);
    }
}
