//! The hardware page walker.

use crate::WalkCache;
use hvc_obs::LatencyHistogram;
use hvc_os::{WalkPath, PT_LEVELS};
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
/// The walker neither owns a memory hierarchy nor reads the page table:
/// the caller walks the table ([`hvc_os::Kernel::walk`]) and hands over
/// the entry addresses, and every entry read is charged through the
/// `access` callback the caller passes, which routes it through caches +
/// DRAM (baseline) or wherever the modelled microarchitecture sends
/// walker traffic.
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

    /// Charges a walk of `vpage` in `asid` along `path`, the entry
    /// addresses of its mapped leaf, root first. The walk caches skip the
    /// upper levels they hold; `access` is called once per remaining
    /// entry read with the entry's physical address and must return the
    /// access latency. Returns the walk latency.
    pub fn walk_path(
        &mut self,
        asid: Asid,
        vpage: VirtPage,
        path: &WalkPath,
        mut access: impl FnMut(PhysAddr) -> Cycles,
    ) -> Cycles {
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
        latency
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
    use hvc_os::{AllocPolicy, Kernel, MapIntent};
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

    /// Walks `va` in `k` with `w`, charging 10 cycles per entry read;
    /// returns the latency and the addresses read.
    fn walk(w: &mut PageWalker, k: &Kernel, a: Asid, va: u64) -> (Cycles, Vec<PhysAddr>) {
        let vpage = VirtAddr::new(va).page_number();
        let (_, path) = k.walk(a, vpage).expect("mapped");
        let mut reads = Vec::new();
        let lat = w.walk_path(a, vpage, &path, |addr| {
            reads.push(addr);
            Cycles::new(10)
        });
        (lat, reads)
    }

    #[test]
    fn cold_walk_reads_four_levels() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        let (lat, reads) = walk(&mut w, &k, a, 0x10000);
        let (_, path) = k.walk(a, VirtAddr::new(0x10000).page_number()).unwrap();
        assert_eq!(reads, path, "every level, root first");
        assert_eq!(lat, Cycles::new(40));
        assert_eq!(w.stats().pte_reads, 4);
        assert_eq!(w.stats().walks, 1);
    }

    #[test]
    fn warm_walk_skips_upper_levels() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        walk(&mut w, &k, a, 0x10000);
        let (lat, reads) = walk(&mut w, &k, a, 0x11000);
        let (_, path) = k.walk(a, VirtAddr::new(0x11000).page_number()).unwrap();
        assert_eq!(reads, [path[3]], "only the leaf PT entry");
        assert_eq!(lat, Cycles::new(10));
        assert_eq!(w.stats().skipped_reads, 3);
    }

    #[test]
    fn flush_asid_forces_full_walk() {
        let (k, a) = kernel_with_page();
        let mut w = PageWalker::new();
        walk(&mut w, &k, a, 0x10000);
        w.flush_asid(a);
        let (_, reads) = walk(&mut w, &k, a, 0x10000);
        assert_eq!(reads.len(), 4);
    }
}
