//! The hardware page walker.

use crate::WalkCache;
use hvc_obs::LatencyHistogram;
use hvc_os::{Kernel, Pte, PT_LEVELS};
use hvc_types::{Asid, Cycles, PhysAddr, VirtPage};

/// Walker event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkerStats {
    /// Walks performed.
    pub walks: u64,
    /// Page-table entry reads issued to the memory system.
    pub pte_reads: u64,
    /// Upper-level reads skipped thanks to the walk caches.
    pub skipped_reads: u64,
    /// Total cycles spent walking.
    pub walk_cycles: Cycles,
    /// Distribution of per-walk latencies.
    pub walk_latency: LatencyHistogram,
}

/// A hardware radix page walker with paging-structure caches.
///
/// The walker does not own a memory hierarchy; every page-table entry
/// read is charged through the `access` callback the caller passes, which
/// routes it through caches + DRAM (baseline) or wherever the modelled
/// microarchitecture sends walker traffic.
#[derive(Clone, Debug, Default)]
pub struct PageWalker {
    walk_cache: WalkCache,
    stats: WalkerStats,
}

impl PageWalker {
    /// Creates a walker with cold walk caches.
    pub fn new() -> Self {
        PageWalker::default()
    }

    /// Walks the page table of `asid` for `vpage`. Returns the leaf PTE
    /// and the walk latency, or `None` on a true page fault (unmapped
    /// page — the caller invokes the OS and retries).
    ///
    /// `access` is called once per page-table entry read with the entry's
    /// physical address and must return the access latency.
    pub fn walk(
        &mut self,
        kernel: &Kernel,
        asid: Asid,
        vpage: VirtPage,
        mut access: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(Pte, Cycles)> {
        let (pte, path) = kernel.walk(asid, vpage)?;
        let skip = self.walk_cache.record_walk(asid, vpage).min(PT_LEVELS - 1);
        let mut latency = Cycles::ZERO;
        for addr in &path[skip..] {
            latency += access(*addr);
            self.stats.pte_reads += 1;
        }
        self.stats.skipped_reads += skip as u64;
        self.stats.walks += 1;
        self.stats.walk_cycles += latency;
        self.stats.walk_latency.record(latency);
        Some((pte, latency))
    }

    /// Invalidate cached upper-level nodes of `asid` (shootdown).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.walk_cache.flush_asid(asid);
    }

    /// Walker counters.
    pub fn stats(&self) -> &WalkerStats {
        &self.stats
    }

    /// Resets counters (walk caches kept).
    pub fn reset_stats(&mut self) {
        self.stats = WalkerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, MapIntent};
    use hvc_types::{Permissions, VirtAddr};

    fn kernel_with_page() -> (Kernel, Asid) {
        let mut k = Kernel::new(1 << 30, AllocPolicy::DemandPaging);
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x10000),
            0x10000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        k.translate_touch(a, VirtAddr::new(0x10000)).unwrap();
        k.translate_touch(a, VirtAddr::new(0x11000)).unwrap();
        (k, a)
    }

    #[test]
    fn cold_walk_reads_four_levels() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        let mut reads = 0;
        let (pte, lat) = w
            .walk(&k, a, VirtAddr::new(0x10000).page_number(), |_| {
                reads += 1;
                Cycles::new(10)
            })
            .unwrap();
        assert_eq!(reads, 4);
        assert_eq!(lat, Cycles::new(40));
        assert!(pte.perm.allows(Permissions::READ));
        assert_eq!(w.stats().pte_reads, 4);
    }

    #[test]
    fn warm_walk_skips_upper_levels() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        w.walk(&k, a, VirtAddr::new(0x10000).page_number(), |_| {
            Cycles::new(10)
        })
        .unwrap();
        let mut reads = 0;
        let (_, lat) = w
            .walk(&k, a, VirtAddr::new(0x11000).page_number(), |_| {
                reads += 1;
                Cycles::new(10)
            })
            .unwrap();
        assert_eq!(reads, 1, "only the leaf PT entry");
        assert_eq!(lat, Cycles::new(10));
        assert_eq!(w.stats().skipped_reads, 3);
    }

    #[test]
    fn unmapped_page_faults() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        assert!(w
            .walk(&k, a, VirtAddr::new(0xdead_0000).page_number(), |_| {
                Cycles::new(1)
            })
            .is_none());
    }

    #[test]
    fn flush_asid_forces_full_walk() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        w.walk(&k, a, VirtAddr::new(0x10000).page_number(), |_| {
            Cycles::new(1)
        })
        .unwrap();
        w.flush_asid(a);
        let mut reads = 0;
        w.walk(&k, a, VirtAddr::new(0x10000).page_number(), |_| {
            reads += 1;
            Cycles::new(1)
        })
        .unwrap();
        assert_eq!(reads, 4);
    }
}
