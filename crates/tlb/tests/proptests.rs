//! Property tests for TLBs and the hardware page walker.

use hvc_os::{AllocPolicy, Kernel, MapIntent, Pte};
use hvc_tlb::{PageWalker, Tlb, TlbConfig, TwoLevelTlb};
use hvc_types::{Asid, Cycles, Permissions, PhysFrame, VirtAddr, VirtPage, PAGE_SIZE};
use proptest::prelude::*;

fn pte(frame: u64) -> Pte {
    Pte {
        frame: PhysFrame::new(frame),
        perm: Permissions::RW,
        shared: false,
    }
}

proptest! {
    /// A TLB behaves like a bounded map: after inserting (k, v), looking
    /// k up either returns exactly v or misses (evicted) — never a stale
    /// or foreign value.
    #[test]
    fn tlb_returns_exact_values_or_misses(
        inserts in prop::collection::vec((1u16..4, 0u64..512), 1..300),
    ) {
        let mut t = Tlb::new(TlbConfig::new(64, 4, Cycles::new(1)));
        let mut model = std::collections::HashMap::new();
        for (i, &(asid, vpn)) in inserts.iter().enumerate() {
            t.insert(Asid::new(asid), VirtPage::new(vpn), pte(i as u64));
            model.insert((asid, vpn), i as u64);
            prop_assert!(t.occupancy() <= 64);
        }
        for (&(asid, vpn), &frame) in &model {
            if let Some(got) = t.lookup(Asid::new(asid), VirtPage::new(vpn)) {
                prop_assert_eq!(got.frame.as_u64(), frame, "stale entry");
            }
        }
    }

    /// Two-level TLB: an entry inserted is found until both levels have
    /// evicted it; L2 hits promote without changing the translation.
    #[test]
    fn two_level_promotion_preserves_translation(
        pages in prop::collection::btree_set(0u64..2048, 2..100),
    ) {
        let mut t = TwoLevelTlb::isca2016_baseline();
        for (i, &p) in pages.iter().enumerate() {
            t.insert(Asid::new(1), VirtPage::new(p), pte(i as u64 + 7));
        }
        for (i, &p) in pages.iter().enumerate() {
            let (got, _, _) = t.lookup(Asid::new(1), VirtPage::new(p));
            if let Some(g) = got {
                prop_assert_eq!(g.frame.as_u64(), i as u64 + 7);
                // Second lookup must also agree (promotion intact).
                let (again, _, _) = t.lookup(Asid::new(1), VirtPage::new(p));
                prop_assert_eq!(again.unwrap().frame.as_u64(), i as u64 + 7);
            }
        }
    }

    /// The walker returns the same PTE as the kernel's own walk, for any
    /// touched page, with any interleaving of walk-cache state.
    #[test]
    fn walker_agrees_with_kernel(pages in prop::collection::btree_set(0u64..256, 1..40)) {
        let mut k = Kernel::new(1 << 30, AllocPolicy::DemandPaging);
        let a = k.create_process().unwrap();
        k.mmap(a, VirtAddr::new(0x100000), 256 * PAGE_SIZE, Permissions::RW, MapIntent::Private)
            .unwrap();
        for &p in &pages {
            k.translate_touch(a, VirtAddr::new(0x100000 + p * PAGE_SIZE)).unwrap();
        }
        let mut w = PageWalker::new();
        for &p in &pages {
            let vp = VirtAddr::new(0x100000 + p * PAGE_SIZE).page_number();
            let (got, lat) = w.walk(&k, a, vp, |_| Cycles::new(5)).unwrap();
            let expected = k.walk(a, vp).unwrap().0;
            prop_assert_eq!(got, expected);
            // A walk reads between 1 and 4 levels.
            prop_assert!(lat.get() >= 5 && lat.get() <= 20);
        }
    }

    /// ASID flushes never disturb other address spaces.
    #[test]
    fn asid_flush_is_isolated(
        a_pages in prop::collection::btree_set(0u64..256, 1..30),
        b_pages in prop::collection::btree_set(0u64..256, 1..30),
    ) {
        let mut t = Tlb::new(TlbConfig::new(1024, 8, Cycles::new(1)));
        for &p in &a_pages {
            t.insert(Asid::new(1), VirtPage::new(p), pte(p));
        }
        for &p in &b_pages {
            t.insert(Asid::new(2), VirtPage::new(p), pte(p + 1000));
        }
        t.flush_asid(Asid::new(1));
        for &p in &a_pages {
            prop_assert!(!t.contains(Asid::new(1), VirtPage::new(p)));
        }
        for &p in &b_pages {
            prop_assert!(t.contains(Asid::new(2), VirtPage::new(p)));
        }
    }
}

// --- Differential model: flat generation-tagged Tlb vs. naive eager model ---

/// One entry of the reference TLB, mirroring the real per-entry state.
#[derive(Clone, Debug)]
struct RefEntry {
    asid: u16,
    vpn: u64,
    pte: Pte,
    lru: u64,
}

/// The naive seed-era storage the flat generation-tagged slab replaced:
/// one `Vec` per set, linear probes, LRU victim by minimum tick, and
/// **eager** ASID shootdown (walk every set, remove matching entries).
/// The flat TLB instead bumps a per-ASID generation in O(1) and reclaims
/// lazily — this test proves the two are observationally identical, in
/// particular that generation-invalidated entries never hit and never
/// displace a live entry.
struct RefTlb {
    sets: Vec<Vec<RefEntry>>,
    ways: usize,
    set_mask: u64,
    tick: u64,
}

impl RefTlb {
    fn new(sets: usize, ways: usize) -> Self {
        RefTlb {
            sets: vec![Vec::new(); sets],
            ways,
            set_mask: sets as u64 - 1,
            tick: 0,
        }
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn & self.set_mask) as usize
    }

    fn lookup(&mut self, asid: u16, vpn: u64) -> Option<Pte> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        let entry = self.sets[set]
            .iter_mut()
            .find(|e| e.asid == asid && e.vpn == vpn)?;
        entry.lru = tick;
        Some(entry.pte)
    }

    fn insert(&mut self, asid: u16, vpn: u64, pte: Pte) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        let ways = self.ways;
        let entries = &mut self.sets[set];
        if let Some(e) = entries.iter_mut().find(|e| e.asid == asid && e.vpn == vpn) {
            e.pte = pte;
            e.lru = tick;
            return;
        }
        if entries.len() == ways {
            let at = (0..entries.len())
                .min_by_key(|&i| entries[i].lru)
                .expect("full set");
            entries.remove(at);
        }
        entries.push(RefEntry {
            asid,
            vpn,
            pte,
            lru: tick,
        });
    }

    fn flush_page(&mut self, asid: u16, vpn: u64) {
        let set = self.set_of(vpn);
        self.sets[set].retain(|e| !(e.asid == asid && e.vpn == vpn));
    }

    fn flush_asid(&mut self, asid: u16) {
        for entries in &mut self.sets {
            entries.retain(|e| e.asid != asid);
        }
    }

    fn flush_all(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    fn entries(&self) -> Vec<(u16, u64, u64)> {
        let mut all: Vec<_> = self
            .sets
            .iter()
            .flatten()
            .map(|e| (e.asid, e.vpn, e.pte.frame.as_u64()))
            .collect();
        all.sort_unstable();
        all
    }
}

/// The operation alphabet of the TLB differential test.
#[derive(Clone, Debug)]
enum TlbOp {
    Lookup(u16, u64),
    Insert(u16, u64, u64),
    FlushPage(u16, u64),
    FlushAsid(u16),
    FlushAll,
}

fn tlb_op() -> impl Strategy<Value = TlbOp> {
    prop_oneof![
        (1u16..4, 0u64..64).prop_map(|(a, p)| TlbOp::Lookup(a, p)),
        (1u16..4, 0u64..64, 0u64..1024).prop_map(|(a, p, f)| TlbOp::Insert(a, p, f)),
        (1u16..4, 0u64..64).prop_map(|(a, p)| TlbOp::FlushPage(a, p)),
        (1u16..4).prop_map(TlbOp::FlushAsid),
        Just(TlbOp::FlushAll),
    ]
}

proptest! {
    /// The flat generation-tagged `Tlb` is observationally equal to the
    /// naive eager-flush model under arbitrary interleavings of lookups,
    /// inserts and shootdowns: identical lookup results (stale entries
    /// never hit), identical LRU victim choice (stale slots are
    /// reclaimed before any live entry is displaced), identical hit/miss
    /// counters, occupancy, and live-entry sets.
    #[test]
    fn flat_tlb_matches_naive_model(
        ops in prop::collection::vec(tlb_op(), 1..300),
    ) {
        // 8 sets × 2 ways over 64 pages × 3 ASIDs: dense conflicts and
        // frequent cross-generation slot reuse.
        let mut flat = Tlb::new(TlbConfig::new(16, 2, Cycles::new(1)));
        let mut model = RefTlb::new(8, 2);
        let mut hits = 0u64;
        let mut misses = 0u64;
        for op in ops {
            match op {
                TlbOp::Lookup(a, p) => {
                    let want = model.lookup(a, p);
                    match want {
                        Some(_) => hits += 1,
                        None => misses += 1,
                    }
                    prop_assert_eq!(
                        flat.lookup(Asid::new(a), VirtPage::new(p)),
                        want,
                        "lookup {}/{}", a, p
                    );
                }
                TlbOp::Insert(a, p, f) => {
                    flat.insert(Asid::new(a), VirtPage::new(p), pte(f));
                    model.insert(a, p, pte(f));
                }
                TlbOp::FlushPage(a, p) => {
                    flat.flush_page(Asid::new(a), VirtPage::new(p));
                    model.flush_page(a, p);
                }
                TlbOp::FlushAsid(a) => {
                    flat.flush_asid(Asid::new(a));
                    model.flush_asid(a);
                }
                TlbOp::FlushAll => {
                    flat.flush_all();
                    model.flush_all();
                }
            }
            prop_assert_eq!(flat.occupancy(), model.entries().len());
        }
        prop_assert_eq!(flat.stats().hits, hits);
        prop_assert_eq!(flat.stats().misses, misses);
        let mut flat_entries: Vec<_> = flat
            .entries()
            .map(|(a, p, pte)| (a.as_u16(), p.as_u64(), pte.frame.as_u64()))
            .collect();
        flat_entries.sort_unstable();
        prop_assert_eq!(flat_entries, model.entries(), "live entry sets differ");
    }
}
