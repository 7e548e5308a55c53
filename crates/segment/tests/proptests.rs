//! Property tests for many-segment translation.

use hvc_os::{AllocPolicy, Kernel, MapIntent, SegmentTable};
use hvc_segment::{ManySegmentTranslator, Rmm, SegmentCache};
use hvc_types::{Asid, Cycles, Permissions, PhysAddr, VirtAddr, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    /// The full translation pipeline (SC → index cache → segment table)
    /// always agrees with the page table, for any eager layout and any
    /// probe order — including repeated probes that exercise SC fills,
    /// hits and partial-coverage checks.
    #[test]
    fn pipeline_agrees_with_page_table(
        region_pages in prop::collection::vec(1u64..64, 1..8),
        probes in prop::collection::vec((0usize..8, 0u64..64, 0u64..0x1000), 1..120),
    ) {
        let mut k = Kernel::new(1 << 30, AllocPolicy::EagerSegments { split: 1 });
        let a = k.create_process().unwrap();
        let mut bases = Vec::new();
        let mut next = 0x1000_0000u64;
        for &pages in &region_pages {
            let va = VirtAddr::new(next);
            k.mmap(a, va, pages * PAGE_SIZE, Permissions::RW, MapIntent::Private).unwrap();
            bases.push((va, pages));
            next += pages * PAGE_SIZE + (8 << 20);
        }
        let mut tr = ManySegmentTranslator::isca2016(k.segments());
        for (ri, page, off) in probes {
            let (base, pages) = bases[ri % bases.len()];
            let va = VirtAddr::new(base.as_u64() + (page % pages) * PAGE_SIZE + off);
            let (pa, lat) = tr.translate(a, va, |_| Cycles::new(100)).expect("covered");
            let pte = k.walk(a, va.page_number()).unwrap().0;
            prop_assert_eq!(pa.frame_number(), pte.frame);
            prop_assert_eq!(pa.page_offset(), va.page_offset());
            prop_assert!(lat.get() >= 2);
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
