//! Property tests for the OS substrate.

use hvc_os::{AllocPolicy, BuddyAllocator, Kernel, MapIntent, SegmentTable};
use hvc_types::{Asid, HvcError, Permissions, PhysAddr, VirtAddr, PAGE_SIZE};
use proptest::prelude::*;

proptest! {
    /// Interleaved alloc/free sequences keep the buddy allocator
    /// consistent (no double handouts, exact free-frame accounting).
    #[test]
    fn buddy_interleaved_alloc_free(script in prop::collection::vec((1u64..300, any::<bool>()), 1..60)) {
        let mut b = BuddyAllocator::new(1 << 30);
        let total = b.free_frames();
        let mut live: Vec<(hvc_types::PhysFrame, u64)> = Vec::new();
        for (n, free_one) in script {
            if free_one && !live.is_empty() {
                let (base, m) = live.swap_remove(0);
                b.free_exact(base, m);
            } else if let Ok(base) = b.alloc_exact(n) {
                for &(other, m) in &live {
                    let (a0, a1) = (base.as_u64(), base.as_u64() + n);
                    let (b0, b1) = (other.as_u64(), other.as_u64() + m);
                    prop_assert!(a1 <= b0 || b1 <= a0, "overlapping handout");
                }
                live.push((base, n));
            }
            let used: u64 = live.iter().map(|&(_, m)| m).sum();
            prop_assert_eq!(b.free_frames(), total - used);
        }
    }

    /// Page tables: mapping then walking always agrees, for arbitrary
    /// page numbers spread across the 48-bit space.
    #[test]
    fn page_table_walk_agrees_with_map(vpns in prop::collection::btree_set(0u64..(1u64 << 36), 1..80)) {
        let mut b = BuddyAllocator::new(1 << 30);
        let mut pt = hvc_os::PageTable::new(&mut b).unwrap();
        for (i, &vpn) in vpns.iter().enumerate() {
            let pte = hvc_os::Pte {
                frame: hvc_types::PhysFrame::new(i as u64 + 100),
                perm: Permissions::RW,
                shared: i % 3 == 0,
            };
            pt.map(&mut b, hvc_types::VirtPage::new(vpn), pte).unwrap();
        }
        for (i, &vpn) in vpns.iter().enumerate() {
            let (pte, path) = pt.walk(hvc_types::VirtPage::new(vpn)).unwrap();
            prop_assert_eq!(pte.frame.as_u64(), i as u64 + 100);
            prop_assert_eq!(pte.shared, i % 3 == 0);
            prop_assert_eq!(path.len(), hvc_os::PT_LEVELS);
        }
        prop_assert_eq!(pt.mapped_pages(), vpns.len());
    }

    /// Packed leaf entries round-trip every field at its extremes: the
    /// smallest and largest representable frame, every permission
    /// combination and both values of the shared bit, through `map`,
    /// `walk`, `update` and `unmap`. One frame past the entry's range is
    /// rejected by `map` with an error, never truncated.
    #[test]
    fn packed_page_table_entries_round_trip(vpn in 0u64..(1u64 << 36)) {
        let mut b = BuddyAllocator::new(1 << 30);
        let mut pt = hvc_os::PageTable::new(&mut b).unwrap();
        let vp = hvc_types::VirtPage::new(vpn);
        let largest = hvc_types::PhysFrame::new(hvc_os::PTE_FRAMES - 1);
        prop_assert_eq!(largest.base().as_u64() + PAGE_SIZE, hvc_os::MAX_PHYS_BYTES);
        let beyond = hvc_os::Pte {
            frame: hvc_types::PhysFrame::new(hvc_os::PTE_FRAMES),
            perm: Permissions::RW,
            shared: false,
        };
        let nodes = pt.node_frames();
        prop_assert!(matches!(pt.map(&mut b, vp, beyond), Err(HvcError::BadConfig(_))));
        prop_assert_eq!(pt.lookup(vp), None);
        prop_assert_eq!((pt.mapped_pages(), pt.node_frames()), (0, nodes));
        for frame in [hvc_types::PhysFrame::new(0), hvc_types::PhysFrame::new(1), largest] {
            for bits in 0u8..8 {
                for shared in [false, true] {
                    let pte = hvc_os::Pte { frame, perm: Permissions::from_bits(bits), shared };
                    pt.map(&mut b, vp, pte).unwrap();
                    prop_assert_eq!(pt.lookup(vp), Some(pte));
                    prop_assert_eq!(pt.walk(vp).map(|(p, _)| p), Some(pte));
                    let flipped = hvc_os::Pte { shared: !shared, ..pte };
                    prop_assert_eq!(pt.update(vp, |p| p.shared = !p.shared), Some(()));
                    prop_assert_eq!(pt.lookup(vp), Some(flipped));
                    prop_assert_eq!(pt.unmap(vp), Some(flipped));
                    prop_assert_eq!(pt.lookup(vp), None);
                    prop_assert_eq!(pt.mapped_pages(), 0);
                }
            }
        }
    }

    /// The walk path a leaf node stores equals the node-by-node
    /// `walk_path` for every mapped page, across interleaved maps,
    /// unmaps and remaps over a few shared upper nodes; unmapped pages
    /// walk to `None`, and the table agrees with a map model.
    #[test]
    fn stored_walk_path_matches_the_node_walk(
        ops in prop::collection::vec((any::<bool>(), 0u64..3, 0u64..3, 0u64..3, 0u64..512), 1..120),
    ) {
        let mut b = BuddyAllocator::new(1 << 30);
        let mut pt = hvc_os::PageTable::new(&mut b).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (i, &(map, top, mid, low, slot)) in ops.iter().enumerate() {
            let vp = hvc_types::VirtPage::new(top << 27 | mid << 18 | low << 9 | slot);
            if map {
                let pte = hvc_os::Pte {
                    frame: hvc_types::PhysFrame::new(i as u64 + 7),
                    perm: Permissions::RW,
                    shared: i % 2 == 0,
                };
                pt.map(&mut b, vp, pte).unwrap();
                model.insert(vp, pte);
            } else {
                prop_assert_eq!(pt.unmap(vp), model.remove(&vp));
            }
        }
        for &(_, top, mid, low, slot) in &ops {
            let vp = hvc_types::VirtPage::new(top << 27 | mid << 18 | low << 9 | slot);
            match pt.walk(vp) {
                Some((pte, path)) => {
                    prop_assert_eq!(Some(&pte), model.get(&vp));
                    prop_assert_eq!(path, pt.walk_path(vp));
                }
                None => prop_assert!(!model.contains_key(&vp)),
            }
        }
        prop_assert_eq!(pt.mapped_pages(), model.len());
        let mut listed: Vec<_> = pt.iter().collect();
        listed.sort_by_key(|&(vp, _)| vp);
        prop_assert_eq!(listed, model.into_iter().collect::<Vec<_>>());
    }

    /// Segment table find() equals a brute-force scan for arbitrary
    /// disjoint segments and probes.
    #[test]
    fn segment_find_matches_scan(
        starts in prop::collection::btree_set(0u64..500, 1..40),
        probes in prop::collection::vec(0u64..(600 * 0x2000), 1..60),
    ) {
        let mut t = SegmentTable::new(2048);
        let mut segs = Vec::new();
        for &s in &starts {
            let base = s * 0x2000;
            let id = t.insert(Asid::new(1), VirtAddr::new(base), 0x1000, PhysAddr::new(base)).unwrap();
            segs.push((id, base));
        }
        for &p in &probes {
            let va = VirtAddr::new(p);
            let scan = segs
                .iter()
                .find(|&&(_, base)| p >= base && p < base + 0x1000)
                .map(|&(id, _)| id);
            prop_assert_eq!(t.find(Asid::new(1), va).map(|s| s.id), scan);
        }
    }

    /// mmap / munmap round-trips leave no leaked frames and no stale
    /// mappings, under demand paging and eager segments (whole or split).
    #[test]
    fn mmap_munmap_conserves_memory(
        lens in prop::collection::vec(1u64..64, 1..10),
        policy_pick in 0u8..3,
        touches in prop::collection::vec(0u64..64, 0..20),
    ) {
        let policy = match policy_pick {
            0 => AllocPolicy::DemandPaging,
            1 => AllocPolicy::EagerSegments { split: 1 },
            _ => AllocPolicy::EagerSegments { split: 3 },
        };
        let mut k = Kernel::new(1 << 30, policy);
        let a = k.create_process().unwrap();
        let before = k.free_frames();
        let mut vas = Vec::new();
        let mut next = 0x1000_0000u64;
        for &pages in &lens {
            let va = VirtAddr::new(next);
            k.mmap(a, va, pages * PAGE_SIZE, Permissions::RW, MapIntent::Private).unwrap();
            k.translate_touch(a, va).unwrap();
            for &t in &touches {
                let _ = k.translate_touch(a, VirtAddr::new(va.as_u64() + (t % pages) * PAGE_SIZE));
            }
            vas.push(va);
            next += pages * PAGE_SIZE + (4 << 20); // scattered
        }
        for va in vas {
            k.munmap(a, va).unwrap();
            let unmapped = matches!(k.translate_touch(a, va), Err(HvcError::Unmapped { .. }));
            prop_assert!(unmapped);
        }
        prop_assert_eq!(k.free_frames(), before);
        prop_assert_eq!(k.segments().count_asid(a), 0);
    }
}
