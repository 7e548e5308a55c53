//! Property tests for many-segment translation, native and 2D.

use hvc_os::{AllocPolicy, Kernel, MapIntent, SegmentTable};
use hvc_segment::{IndexCache, ManySegmentTranslator, Rmm, SegmentCache};
use hvc_types::{
    Asid, Cycles, GuestPhysAddr, Permissions, PhysAddr, VirtAddr, LINE_SHIFT, PAGE_SIZE,
};
use hvc_virt::{Hypervisor, NestedSegments};
use proptest::prelude::*;

/// Maps `pages` pages at `va` of `asid`.
fn map(k: &mut Kernel, asid: Asid, va: VirtAddr, pages: u64) {
    k.mmap(
        asid,
        va,
        pages * PAGE_SIZE,
        Permissions::RW,
        MapIntent::Private,
    )
    .unwrap();
}

/// Eager regions of `region_pages` pages each, 8 MiB apart.
fn map_regions(k: &mut Kernel, asid: Asid, region_pages: &[u64]) -> Vec<(VirtAddr, u64)> {
    let mut next = 0x1000_0000u64;
    region_pages
        .iter()
        .map(|&pages| {
            let va = VirtAddr::new(next);
            map(k, asid, va, pages);
            next += pages * PAGE_SIZE + (8 << 20);
            (va, pages)
        })
        .collect()
}

/// Moves region `(va, pages)` in physical memory behind the translator's
/// back: unmaps it, lets a new mapping (the `n`-th) take its frames and
/// maps it again.
fn remap(k: &mut Kernel, asid: Asid, (va, pages): (VirtAddr, u64), n: u64) {
    k.munmap(asid, va).unwrap();
    map(
        k,
        asid,
        VirtAddr::new(0x80_0000_0000 + n * (1 << 30)),
        pages,
    );
    map(k, asid, va, pages);
}

/// The address a probe `(region, page, offset)` of `regions` reads.
fn probe_va(regions: &[(VirtAddr, u64)], (ri, page, off): (usize, u64, u64)) -> VirtAddr {
    let (base, pages) = regions[ri % regions.len()];
    VirtAddr::new(base.as_u64() + (page % pages) * PAGE_SIZE + off)
}

proptest! {
    /// The full translation pipeline (SC → index cache → segment table)
    /// always agrees with the page table, for any eager layout and any
    /// probe order — including repeated probes that exercise SC fills,
    /// hits and partial-coverage checks, and regions the OS moves in
    /// physical memory between probes, which the translator re-mirrors
    /// before translating as the engine does.
    #[test]
    fn pipeline_agrees_with_page_table(
        region_pages in prop::collection::vec(1u64..64, 1..8),
        probes in prop::collection::vec((0usize..8, 0u64..64, 0u64..0x1000, 0u8..10), 1..120),
    ) {
        let mut k = Kernel::new(1 << 30, AllocPolicy::EagerSegments { split: 1 });
        let a = k.create_process().unwrap();
        let regions = map_regions(&mut k, a, &region_pages);
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        for (n, (ri, page, off, roll)) in probes.into_iter().enumerate() {
            // One probe in ten first moves its region.
            let moved = roll == 0;
            if moved {
                remap(&mut k, a, regions[ri % regions.len()], n as u64);
            }
            prop_assert_eq!(tr.sync(k.segments()), moved);
            let va = probe_va(&regions, (ri, page, off));
            let (pa, cost) = tr.translate(a, va, |_| Cycles::new(100)).expect("covered");
            let pte = k.walk(a, va.page_number()).unwrap().0;
            prop_assert_eq!(pa.frame_number(), pte.frame);
            prop_assert_eq!(pa.page_offset(), va.page_offset());
            prop_assert!(cost.total().get() >= 2);
        }
    }

    /// 2D segment translation (gVA→MA SC → guest walk → host walk)
    /// always agrees with the guest page table followed by the EPT,
    /// while the guest OS moves regions in guest-physical memory between
    /// probes.
    #[test]
    fn nested_pipeline_agrees_with_guest_page_table_and_ept(
        region_pages in prop::collection::vec(1u64..64, 1..8),
        probes in prop::collection::vec((0usize..8, 0u64..64, 0u64..0x1000, 0u8..10), 1..120),
    ) {
        let mut hv = Hypervisor::new(1 << 30);
        let vm = hv.create_vm(256 << 20, AllocPolicy::EagerSegments { split: 1 }, true).unwrap();
        let a = hv.create_guest_process(vm).unwrap();
        let regions = map_regions(hv.guest_kernel_mut(vm).unwrap(), a, &region_pages);
        let mut ns = NestedSegments::build(&hv, vm).unwrap();
        for (n, (ri, page, off, roll)) in probes.into_iter().enumerate() {
            // One probe in ten first moves its region.
            let moved = roll == 0;
            if moved {
                remap(hv.guest_kernel_mut(vm).unwrap(), a, regions[ri % regions.len()], n as u64);
            }
            prop_assert_eq!(ns.sync(&hv), moved);
            let va = probe_va(&regions, (ri, page, off));
            let (ma, cost) = ns.translate(a, va, |_| Cycles::new(100)).expect("covered");
            let gpte = hv.guest_kernel(vm).unwrap().walk(a, va.page_number()).unwrap().0;
            let gpa = GuestPhysAddr::new(gpte.frame.base().as_u64());
            let mpte = hv.ept_walk(vm, gpa).unwrap().0;
            prop_assert_eq!(ma.frame_number(), mpte.frame);
            prop_assert_eq!(ma.page_offset(), va.page_offset());
            prop_assert!(cost.total().get() >= 2);
        }
    }

    /// The segment cache never produces a wrong translation: every SC
    /// hit equals what the segment table would say (bounds included).
    #[test]
    fn segment_cache_is_sound(
        starts in prop::collection::btree_set(0u64..200, 1..20),
        probes in prop::collection::vec(0u64..(210 * 0x4000), 1..150),
    ) {
        let mut table = SegmentTable::new(1024);
        for &s in &starts {
            // 8-page segments at 16-page-aligned slots: gaps exist.
            table
                .insert(
                    Asid::new(1),
                    VirtAddr::new(s * 0x4000),
                    0x2000,
                    PhysAddr::new(0x8000_0000 + s * 0x2000),
                )
                .unwrap();
        }
        let mut sc = SegmentCache::isca2016();
        for &p in &probes {
            let va = VirtAddr::new(p);
            let truth = table.find(Asid::new(1), va).map(|s| s.translate(va));
            if let Some(pa) = sc.translate(Asid::new(1), va) {
                prop_assert_eq!(Some(pa), truth, "SC hit must match the table");
            } else if let Some(seg) = table.find(Asid::new(1), va) {
                sc.fill(Asid::new(1), va, seg);
                // Immediately after a fill, the translation must hit and
                // agree.
                prop_assert_eq!(sc.translate(Asid::new(1), va), truth);
            }
        }
    }

    /// RMM translations always agree with the OS segment table, and it
    /// never holds more than its 32 entries.
    #[test]
    fn rmm_is_sound(
        starts in prop::collection::btree_set(0u64..100, 1..50),
        probes in prop::collection::vec(0u64..(110 * 0x4000), 1..200),
    ) {
        let mut table = SegmentTable::new(1024);
        for &s in &starts {
            table
                .insert(
                    Asid::new(1),
                    VirtAddr::new(s * 0x4000),
                    0x4000,
                    PhysAddr::new(s * 0x4000 + 0x1000_0000),
                )
                .unwrap();
        }
        let mut rmm = Rmm::rmm32();
        for &p in &probes {
            let va = VirtAddr::new(p);
            let truth = table.find(Asid::new(1), va).map(|s| s.translate(va));
            let got = match rmm.translate(Asid::new(1), va) {
                Some(pa) => Some(pa),
                None => rmm.fill_from(&table, Asid::new(1), va),
            };
            prop_assert_eq!(got, truth);
        }
        prop_assert!(rmm.entries().count() <= 32);
    }
}

// --- Differential model: IndexCache vs. the per-set stamp model ---

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    lru: u64,
}

/// The index cache's storage before it shared the set-associative tag
/// store: one `Vec` of lines per set, each with a global-tick stamp, and
/// a miss in a full set evicts the minimum stamp.
struct RefIndexCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    tick: u64,
}

impl RefIndexCache {
    /// The geometry `IndexCache::new` gives `size_bytes`.
    fn new(size_bytes: u64) -> Self {
        let lines = (size_bytes >> LINE_SHIFT) as usize;
        let ways = lines.min(8);
        RefIndexCache {
            sets: vec![Vec::with_capacity(ways); lines / ways],
            ways,
            tick: 0,
        }
    }

    fn access(&mut self, addr: PhysAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let block = addr.as_u64() >> LINE_SHIFT;
        let idx = (block as usize) & (self.sets.len() - 1);
        let set = &mut self.sets[idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == block) {
            line.lru = tick;
            return true;
        }
        if set.len() == self.ways {
            let (slot, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("non-empty");
            set.swap_remove(slot);
        }
        set.push(Line {
            tag: block,
            lru: tick,
        });
        false
    }

    fn contains(&self, addr: PhysAddr) -> bool {
        let block = addr.as_u64() >> LINE_SHIFT;
        self.sets[(block as usize) & (self.sets.len() - 1)]
            .iter()
            .any(|l| l.tag == block)
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// Sets of an index cache of `size_bytes`, and the blocks its test
/// reads: at least three times its capacity and 24 blocks per set.
fn index_cache_space(size_bytes: u64) -> (u64, u64) {
    let lines = size_bytes >> LINE_SHIFT;
    let sets = lines / lines.min(8);
    (sets, (3 * lines).max(24 * sets))
}

/// Asserts that `cache` and `model` hold the same blocks of the test's
/// block space.
fn assert_same_residency(cache: &IndexCache, model: &RefIndexCache, size_bytes: u64) {
    for block in 0..index_cache_space(size_bytes).1 {
        let addr = PhysAddr::new(block << LINE_SHIFT);
        prop_assert_eq!(
            cache.contains(addr),
            model.contains(addr),
            "block {}",
            block
        );
    }
}

proptest! {
    /// The index cache on the shared tag store is observationally equal
    /// to the stamp model at its smallest (2 ways, 1 set), one-set
    /// (8 ways) and paper (32 KB, 64 sets) sizes: the same hit or miss
    /// on every node read, the same residency before every flush and at
    /// the end, and the same counters. One op in fifty is a flush. Half
    /// the reads fall in at most four sets, 24 blocks each, so sets fill
    /// and evict between flushes; the rest spread over the whole block
    /// space.
    #[test]
    fn index_cache_matches_the_stamp_model(
        size in prop_oneof![Just(128u64), Just(512), Just(32 * 1024)],
        ops in prop::collection::vec(
            (0u8..50, any::<bool>(), 0u64..4, 0u64..24, 0u64..1 << 20, 0u64..64),
            1..1500,
        ),
    ) {
        let (sets, space) = index_cache_space(size);
        let mut cache = IndexCache::new(size, Cycles::new(3));
        let mut model = RefIndexCache::new(size);
        let (mut hits, mut reads) = (0u64, 0u64);
        for (i, (roll, near, set, k, far, off)) in ops.into_iter().enumerate() {
            if roll == 0 {
                assert_same_residency(&cache, &model, size);
                cache.flush();
                model.flush();
                continue;
            }
            let block = if near { set % sets + k * sets } else { far % space };
            let addr = PhysAddr::new((block << LINE_SHIFT) + off);
            let hit = model.access(addr);
            hits += hit as u64;
            reads += 1;
            prop_assert_eq!(cache.access(addr), hit, "read {} of block {}", i, block);
        }
        assert_same_residency(&cache, &model, size);
        prop_assert_eq!(cache.stats().hits, hits);
        prop_assert_eq!(cache.stats().misses, reads - hits);
    }
}
