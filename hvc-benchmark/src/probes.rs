//! Host cost of single simulator operations, in nanoseconds per
//! operation: the median over [`BATCHES`] timed batches, each preceded
//! by an untimed reset that puts the structure back in the state the
//! probe defines.

use hvc_cache::{Hierarchy, HierarchyConfig};
use hvc_filter::{FilterKind, SynonymFilter};
use hvc_mem::{Dram, DramConfig};
use hvc_os::{AllocPolicy, Kernel, MapIntent, Pte, SegmentTable};
use hvc_segment::IndexTree;
use hvc_tlb::{Tlb, TlbConfig};
use hvc_types::{
    AccessKind, Asid, BlockName, Cycles, LineAddr, Permissions, PhysAddr, PhysFrame, VirtAddr,
    VirtPage,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe.
const BATCHES: usize = 15;
const ASID: Asid = Asid::new(1);
const LINES_PER_PAGE: u64 = 64;

/// Times `ops` calls of `op` per batch over [`BATCHES`] batches, running
/// `reset` untimed before each, and returns the median ns per call.
fn probe<S>(
    state: &mut S,
    ops: u64,
    mut reset: impl FnMut(&mut S, u64),
    mut op: impl FnMut(&mut S, u64) -> u64,
) -> f64 {
    let mut per_op = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES as u64 {
        reset(state, batch);
        let first = batch * ops;
        let start = Instant::now();
        for i in first..first + ops {
            black_box(op(state, i));
        }
        per_op.push(start.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    crate::runs::median(&per_op)
}

fn no_reset<S>(_: &mut S, _: u64) {}

/// Runs every probe and returns `(metric name, ns per operation)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    vec![
        ("probe.filter.bloom_is_candidate_ns", bloom_is_candidate()),
        ("probe.filter.rlt_insert_remove_ns", rlt_insert_remove()),
        ("probe.tlb.lookup_hit_ns", tlb_lookup_hit()),
        ("probe.cache.l1_hit_ns", l1_hit()),
        ("probe.cache.llc_miss_fill_ns", llc_miss_fill()),
        ("probe.mem.dram_access_ns", dram_access()),
        ("probe.segment.index_tree_lookup_ns", index_tree_lookup()),
        ("probe.cache.flush_virt_page_ns", flush(1, Flush::VirtPage)),
        (
            "probe.cache.flush_phys_frame_ns",
            flush(1, Flush::PhysFrame),
        ),
        ("probe.cache.downgrade_ro_ns", flush(1, Flush::DowngradeRo)),
        (
            "probe.cache.flush_virt_page_2c_ns",
            flush(2, Flush::VirtPage),
        ),
        ("probe.os.munmap_mmap_2m_ns", munmap_mmap_2m()),
        ("probe.os.touch_fault_ns", touch_fault()),
    ]
}

/// A mostly negative Bloom-pair probe over 64 shared pages.
fn bloom_is_candidate() -> f64 {
    let mut f = SynonymFilter::new();
    for i in 0..64u64 {
        f.insert_page(VirtAddr::new(i << 15));
    }
    probe(&mut f, 200_000, no_reset, |f, i| {
        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        u64::from(f.is_candidate(VirtAddr::new(x)))
    })
}

/// An RLT insert and remove of one page, beside 256 live regions.
fn rlt_insert_remove() -> f64 {
    let mut f = SynonymFilter::with_kind(FilterKind::Rlt);
    for i in 0..256u64 {
        f.insert_page(VirtAddr::new(i << 15));
    }
    probe(&mut f, 20_000, no_reset, |f, i| {
        let va = VirtAddr::new((1 << 32) + ((i % 4096) << 12));
        f.insert_page(va);
        f.remove_page(va);
        0
    })
}

/// A hit in a full 1024-entry TLB.
fn tlb_lookup_hit() -> f64 {
    let mut t = Tlb::new(TlbConfig::l2_1024());
    let pte = Pte {
        frame: PhysFrame::new(1),
        perm: Permissions::RW,
        shared: false,
    };
    for i in 0..1024u64 {
        t.insert(ASID, VirtPage::new(i), pte);
    }
    probe(&mut t, 200_000, no_reset, |t, i| {
        u64::from(t.lookup(ASID, VirtPage::new(i % 1024)).is_some())
    })
}

fn virt(line: u64) -> BlockName {
    BlockName::Virt(ASID, LineAddr::new(line))
}

/// A read hit in L1D of a 1-core hierarchy.
fn l1_hit() -> f64 {
    let mut h = Hierarchy::new(HierarchyConfig::isca2016(1));
    for i in 0..512u64 {
        h.access(0, virt(i), AccessKind::Read);
    }
    probe(&mut h, 100_000, no_reset, |h, i| {
        h.access(0, virt(i % 512), AccessKind::Read).latency.get()
    })
}

/// A read of a line never seen before: a miss at every level and a fill
/// that evicts from a full hierarchy.
fn llc_miss_fill() -> f64 {
    let mut h = Hierarchy::new(HierarchyConfig::isca2016(1));
    let fill = (h.config().llc.size_bytes / 64) * 2;
    for i in 0..fill {
        h.access(0, virt(i), AccessKind::Read);
    }
    probe(&mut h, 20_000, no_reset, |h, i| {
        h.access(0, virt(fill + i), AccessKind::Read).latency.get()
    })
}

/// A streaming DDR3 access.
fn dram_access() -> f64 {
    let mut d = Dram::new(DramConfig::ddr3_1600());
    probe(&mut d, 100_000, no_reset, |d, i| {
        let addr = i.wrapping_mul(0x40);
        d.access(Cycles::new(addr), PhysAddr::new(addr % (1 << 30)), false)
            .get()
    })
}

/// A predecessor search in the index tree over 2048 segments.
fn index_tree_lookup() -> f64 {
    let mut table = SegmentTable::new(2048);
    for i in 0..2048u64 {
        table
            .insert(
                ASID,
                VirtAddr::new(i * 0x100_0000),
                0x80_0000,
                PhysAddr::new(i * 0x80_0000),
            )
            .expect("2048 segments fit a 2048-entry table");
    }
    let tree = IndexTree::build(&table, PhysAddr::new(0));
    let mut touched = Vec::with_capacity(8);
    probe(&mut touched, 20_000, no_reset, |touched, i| {
        let x = i.wrapping_mul(6_364_136_223_846_793_005);
        touched.clear();
        tree.lookup(ASID, VirtAddr::new(x % (2048 * 0x100_0000)), touched)
            .map_or(0, |_| 1)
    })
}

/// The page-granular hierarchy operations the kernel's flush requests
/// turn into.
#[derive(Clone, Copy)]
enum Flush {
    VirtPage,
    PhysFrame,
    DowngradeRo,
}

/// One flush or downgrade of a resident page in a hierarchy whose LLC
/// is full. Each batch first re-reads the batch's pages (untimed), so
/// every operation finds its 64 lines resident.
fn flush(cores: usize, kind: Flush) -> f64 {
    const OPS: u64 = 16;
    let mut h = Hierarchy::new(HierarchyConfig::isca2016(cores));
    let pages = h.config().llc.size_bytes / 4096;
    let name = move |page: u64, line: u64| match kind {
        Flush::PhysFrame => BlockName::Phys(LineAddr::new(page * LINES_PER_PAGE + line)),
        Flush::VirtPage | Flush::DowngradeRo => virt(page * LINES_PER_PAGE + line),
    };
    let touch = move |h: &mut Hierarchy, page: u64| {
        for line in 0..LINES_PER_PAGE {
            h.access((page as usize) % cores, name(page, line), AccessKind::Read);
        }
    };
    for page in 0..pages {
        touch(&mut h, page);
    }
    probe(
        &mut h,
        OPS,
        |h, batch| {
            for i in batch * OPS..(batch + 1) * OPS {
                touch(h, i % pages);
            }
        },
        |h, i| {
            let page = i % pages;
            match kind {
                Flush::VirtPage => h.flush_virt_page(ASID, page),
                Flush::PhysFrame => h.flush_phys_frame(page << 12),
                Flush::DowngradeRo => {
                    h.downgrade_page_read_only(ASID, page);
                    0
                }
            }
        },
    )
}

/// A 2 MB shared-memory remap (`munmap` then `mmap` of the same
/// object), the kernel half of a `ShmRemap` churn event; the flush
/// requests it queues are drained and dropped.
fn munmap_mmap_2m() -> f64 {
    const LEN: u64 = 2 << 20;
    let mut k = Kernel::new(16 << 30, AllocPolicy::DemandPaging);
    let asid = k.create_process().expect("a fresh kernel has ASIDs");
    let shm = k.shm_create(LEN).expect("2 MB fits 16 GB");
    let va = VirtAddr::new(1 << 32);
    k.mmap(asid, va, LEN, Permissions::RW, MapIntent::Shared(shm))
        .expect("the first mapping cannot overlap");
    k.drain_flush_requests();
    probe(&mut k, 16, no_reset, |k, _| {
        k.munmap(asid, va).expect("the region is mapped");
        k.mmap(asid, va, LEN, Permissions::RW, MapIntent::Shared(shm))
            .expect("the region was just unmapped");
        k.drain_flush_requests().len() as u64
    })
}

/// A demand fault: the first write to a page of a 1 GB private region.
fn touch_fault() -> f64 {
    const LEN: u64 = 1 << 30;
    let mut k = Kernel::new(16 << 30, AllocPolicy::DemandPaging);
    let asid = k.create_process().expect("a fresh kernel has ASIDs");
    let va = VirtAddr::new(1 << 32);
    k.mmap(asid, va, LEN, Permissions::RW, MapIntent::Private)
        .expect("the first mapping cannot overlap");
    probe(&mut k, 4096, no_reset, |k, i| {
        let pte = k
            .touch(asid, va + (i << 12), AccessKind::Write)
            .expect("the page lies inside the region");
        pte.frame.as_u64()
    })
}
