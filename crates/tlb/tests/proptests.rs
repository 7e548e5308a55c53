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

    /// The walker reads a non-empty suffix of the kernel's walk path (the
    /// levels its walk caches do not hold) and charges each read once,
    /// for any touched page, with any interleaving of walk-cache state.
    #[test]
    fn walker_reads_a_suffix_of_the_kernel_path(
        pages in prop::collection::btree_set(0u64..256, 1..40),
    ) {
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
            let (_, path) = k.walk(a, vp).unwrap();
            let mut reads = Vec::new();
            let lat = w.walk_path(a, vp, &path, |addr| {
                reads.push(addr);
                Cycles::new(5)
            });
            // A walk reads between 1 and 4 levels, always the deepest.
            prop_assert!((1..=4).contains(&reads.len()));
            prop_assert_eq!(&reads[..], &path[4 - reads.len()..]);
            prop_assert_eq!(lat.get(), 5 * reads.len() as u64);
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
        let holds = |asid: u16, p: u64| {
            t.entries()
                .any(|(a, vp, _)| a == Asid::new(asid) && vp == VirtPage::new(p))
        };
        for &p in &a_pages {
            prop_assert!(!holds(1, p));
        }
        for &p in &b_pages {
            prop_assert!(holds(2, p));
        }
    }
}

// --- Differential model: flat Tlb vs. naive per-set model ---

/// One entry of the reference TLB, mirroring the real per-entry state.
#[derive(Clone, Debug)]
struct RefEntry {
    asid: u16,
    vpn: u64,
    pte: Pte,
    lru: u64,
}

/// The naive seed-era storage the flat slab replaced: one `Vec` per set,
/// linear probes, LRU victim by minimum tick, and eager ASID shootdown
/// (walk every set, remove matching entries).
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
}

fn tlb_op() -> impl Strategy<Value = TlbOp> {
    prop_oneof![
        (1u16..4, 0u64..64).prop_map(|(a, p)| TlbOp::Lookup(a, p)),
        (1u16..4, 0u64..64, 0u64..1024).prop_map(|(a, p, f)| TlbOp::Insert(a, p, f)),
        (1u16..4, 0u64..64).prop_map(|(a, p)| TlbOp::FlushPage(a, p)),
        (1u16..4).prop_map(TlbOp::FlushAsid),
    ]
}

/// The insert-heavy mix: inserts and lookups over 2 ASIDs × 32 pages,
/// and one op in 32 drawn from [`tlb_op`]. 8-way sets fill, hit and
/// evict between flushes, so touches and victims reach every recency
/// rank.
fn insert_heavy_op() -> impl Strategy<Value = TlbOp> {
    (
        0u8..32,
        any::<bool>(),
        1u16..3,
        0u64..32,
        0u64..1024,
        tlb_op(),
    )
        .prop_map(|(roll, insert, a, p, f, rare)| match roll {
            0 => rare,
            _ if insert => TlbOp::Insert(a, p, f),
            _ => TlbOp::Lookup(a, p),
        })
}

proptest! {
    /// The flat `Tlb` is observationally equal to the naive eager-flush
    /// model under arbitrary interleavings of lookups, inserts and
    /// shootdowns: identical lookup results (flushed entries never hit),
    /// identical LRU victim choice (flushed ways are reused before any
    /// live entry is displaced), identical hit/miss counters, occupancy,
    /// and live-entry sets.
    #[test]
    fn flat_tlb_matches_naive_model(
        ways in prop_oneof![Just(2usize), Just(4), Just(8)],
        ops in prop_oneof![
            prop::collection::vec(tlb_op(), 1..300),
            prop::collection::vec(insert_heavy_op(), 1..400),
        ],
    ) {
        // 16 entries as 8 sets × 2 ways, 4 × 4 or 2 × 8 (the geometries
        // of the repo's TLBs) over 64 pages × 3 ASIDs: dense conflicts
        // and frequent reuse of flushed ways.
        let mut flat = Tlb::new(TlbConfig::new(16, ways, Cycles::new(1)));
        let mut model = RefTlb::new(16 / ways, ways);
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
