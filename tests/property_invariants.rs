//! Property-based tests (proptest) of the core data-structure invariants
//! across crates.

use hvc::cache::{Cache, CacheConfig};
use hvc::filter::{FilterKind, SynonymFilter};
use hvc::os::{BuddyAllocator, SegmentTable};
use hvc::segment::IndexTree;
use hvc::tlb::{Tlb, TlbConfig};
use hvc::types::{Asid, BlockName, Cycles, LineAddr, Permissions, PhysAddr, VirtAddr, VirtPage};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// The synonym filter never produces a false negative, for any set of
    /// inserted pages and any probe into an inserted page's region.
    #[test]
    fn filter_has_no_false_negatives(
        pages in prop::collection::vec(0u64..(1 << 36), 1..200),
        probe_offsets in prop::collection::vec((0usize..200, 0u64..0x1000), 1..50),
    ) {
        let mut f = SynonymFilter::new();
        for &p in &pages {
            f.insert_page(VirtAddr::new(p << 12));
        }
        for &(i, off) in &probe_offsets {
            let page = pages[i % pages.len()];
            prop_assert!(f.is_candidate(VirtAddr::new((page << 12) + off)));
        }
    }

    /// Differential lockstep of the two synonym-filter strategies: the
    /// same random sequence of share / unshare / rebuild operations
    /// (with deliberate duplicates) driven into a Bloom-pair filter and
    /// an RLT filter side by side. Both must agree on the exact
    /// insertion accounting at every step (idempotent under duplicate
    /// shares and unshares), and neither may ever answer `false` for a
    /// live page — the no-false-negative invariant is
    /// strategy-independent.
    #[test]
    fn bloom_and_rlt_stay_in_lockstep_over_share_unshare_rebuild(
        // op: 0-4 share, 5-8 unshare, 9 rebuild (clear + re-insert live).
        ops in prop::collection::vec((0u8..10, 0u64..(1 << 24)), 1..300),
    ) {
        let mut bloom = SynonymFilter::with_kind(FilterKind::Bloom);
        let mut rlt = SynonymFilter::with_kind(FilterKind::Rlt);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        for &(op, page) in &ops {
            let va = VirtAddr::new(page << 12);
            match op {
                0..=4 => {
                    // Duplicate shares are common in the sequence (the
                    // page universe is small): accounting must stay
                    // idempotent under them.
                    bloom.insert_page(va);
                    rlt.insert_page(va);
                    live.insert(page);
                }
                5..=8 => {
                    bloom.remove_page(va);
                    rlt.remove_page(va);
                    live.remove(&page);
                }
                _ => {
                    // OS rebuild: clear, then re-insert exactly the live
                    // set — the same protocol `Kernel::rebuild_filter`
                    // follows.
                    bloom.clear();
                    rlt.clear();
                    for &p in &live {
                        bloom.insert_page(VirtAddr::new(p << 12));
                        rlt.insert_page(VirtAddr::new(p << 12));
                    }
                }
            }
            prop_assert_eq!(bloom.insertions(), live.len() as u64);
            prop_assert_eq!(rlt.insertions(), live.len() as u64);
        }
        // End state: every live page is a candidate under both
        // strategies, at any offset within the page.
        for &p in &live {
            let probe = VirtAddr::new((p << 12) + (p & 0xfff));
            prop_assert!(bloom.is_candidate(probe), "bloom false negative at page {p:#x}");
            prop_assert!(rlt.is_candidate(probe), "rlt false negative at page {p:#x}");
        }
        // A rebuild right after the sequence preserves all of the above
        // and leaves the RLT exact again (overflow drained).
        rlt.clear();
        for &p in &live {
            rlt.insert_page(VirtAddr::new(p << 12));
        }
        prop_assert_eq!(rlt.rlt_overflowed(), 0);
        for &p in &live {
            prop_assert!(rlt.is_candidate(VirtAddr::new(p << 12)));
        }
    }

    /// Buddy allocator conservation: allocations and frees always leave
    /// `free_frames` consistent, blocks never overlap, and freeing
    /// everything restores the initial state.
    #[test]
    fn buddy_allocator_conserves_frames(ops in prop::collection::vec(1u64..512, 1..40)) {
        let mut b = BuddyAllocator::new(1 << 30);
        let total = b.free_frames();
        let mut live: Vec<(hvc::types::PhysFrame, u64)> = Vec::new();
        for &n in &ops {
            if let Ok(base) = b.alloc_exact(n) {
                // No overlap with any live allocation.
                for &(other, m) in &live {
                    let a0 = base.as_u64();
                    let a1 = a0 + n;
                    let b0 = other.as_u64();
                    let b1 = b0 + m;
                    prop_assert!(a1 <= b0 || b1 <= a0, "overlap");
                }
                live.push((base, n));
            }
        }
        let used: u64 = live.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(b.free_frames(), total - used);
        for (base, n) in live {
            b.free_exact(base, n);
        }
        prop_assert_eq!(b.free_frames(), total);
        prop_assert_eq!(b.largest_free_block(), hvc::os::MAX_BLOCK_FRAMES.min(total));
    }

    /// The index tree's predecessor search agrees with a linear scan of
    /// the segment table for arbitrary segment layouts and probes.
    #[test]
    fn index_tree_matches_linear_search(
        seg_starts in prop::collection::btree_set(0u64..1000, 1..60),
        probes in prop::collection::vec(0u64..1_100_000, 1..60),
    ) {
        let mut table = SegmentTable::new(4096);
        for &s in &seg_starts {
            // Disjoint 512-byte-page segments at 4 KiB-aligned slots.
            table
                .insert(Asid::new(1), VirtAddr::new(s * 0x1000), 0x800, PhysAddr::new(s * 0x800))
                .unwrap();
        }
        let tree = IndexTree::build(&table, PhysAddr::new(0));
        for &p in &probes {
            let va = VirtAddr::new(p);
            let expected = table.find(Asid::new(1), va).map(|s| s.id);
            let mut touched = Vec::new();
            let got = tree
                .lookup(Asid::new(1), va, &mut touched)
                .filter(|id| {
                    table.get(*id).is_some_and(|s| s.contains(Asid::new(1), va))
                });
            prop_assert_eq!(got, expected);
            prop_assert!(touched.len() <= tree.depth());
        }
    }

    /// A cache never exceeds its capacity and a fill always makes the
    /// block resident.
    #[test]
    fn cache_capacity_and_residency(lines in prop::collection::vec(0u64..4096, 1..300)) {
        let mut c = Cache::new(CacheConfig::new(64 * 64, 4, Cycles::new(1)));
        for &l in &lines {
            let name = BlockName::Virt(Asid::new(1), LineAddr::new(l));
            c.fill(name, false, Permissions::RW);
            prop_assert!(c.contains(name), "just-filled block resident");
            prop_assert!(c.occupancy() <= 64, "capacity exceeded");
        }
    }

    /// TLB lookups after insert always hit until evicted, and flushes
    /// remove exactly the targeted entries.
    #[test]
    fn tlb_flush_precision(
        pages in prop::collection::btree_set(0u64..512, 2..40),
        flush_page in 0u64..512,
    ) {
        let mut t = Tlb::new(TlbConfig::new(1024, 8, Cycles::new(1)));
        let pte = hvc::os::Pte {
            frame: hvc::types::PhysFrame::new(1),
            perm: Permissions::RW,
            shared: false,
        };
        for &p in &pages {
            t.insert(Asid::new(1), VirtPage::new(p), pte);
        }
        t.flush_page(Asid::new(1), VirtPage::new(flush_page));
        for &p in &pages {
            let expected = p != flush_page;
            let held = t
                .entries()
                .any(|(a, vp, _)| a == Asid::new(1) && vp == VirtPage::new(p));
            prop_assert_eq!(held, expected);
        }
    }

    /// Address arithmetic round-trips: page/line decomposition is exact.
    #[test]
    fn address_decomposition_roundtrips(raw in 0u64..(1 << 48)) {
        let va = VirtAddr::new(raw);
        prop_assert_eq!(va.page_number().base() + va.page_offset(), va);
        prop_assert_eq!(
            PhysAddr::new(va.line().base_raw()).as_u64() + va.line_offset(),
            va.as_u64()
        );
    }
}

mod multicore_attribution {
    //! The cycle-attribution ledger must keep summing to the recorded
    //! memory cycles once the `Shootdown` component joins it: every
    //! stall a multi-core run charges (initiator IPI waits,
    //! responder interrupt + flush time) enters the latency histogram
    //! and the attribution ledger in the same place.

    use hvc::cache::HierarchyConfig;
    use hvc::core::{SystemConfig, SystemSim, TranslationScheme};
    use hvc::obs::Component;
    use hvc::os::{AllocPolicy, Kernel};
    use proptest::prelude::*;

    fn run_mc(workload: &str, cores: usize, seed: u64) -> hvc::core::RunReport {
        let spec =
            hvc::runner::params::workload_by_name(workload, 16 << 20).expect("workload exists");
        let mut kernel = Kernel::new(2 << 30, AllocPolicy::DemandPaging);
        let mut wl = spec.instantiate(&mut kernel, seed).expect("workload");
        let mut config = SystemConfig::isca2016();
        config.hierarchy = HierarchyConfig::isca2016(cores);
        let mut sim = SystemSim::new(kernel, config, TranslationScheme::HybridDelayedTlb(1024));
        sim.warm_up(&mut wl, 1_000);
        sim.run(&mut wl, 6_000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// With churn-driven shootdowns in the stream, the extended
        /// attribution (including `Component::Shootdown`) still sums
        /// exactly to the total recorded memory cycles.
        #[test]
        fn attribution_sums_to_memory_cycles_under_shootdowns(
            seed in 0u64..1_000,
            cores in prop_oneof![Just(2usize), Just(4usize)],
            shm in any::<bool>(),
        ) {
            let workload = if shm { "shm_heavy" } else { "fork_storm" };
            let report = run_mc(workload, cores, seed);
            prop_assert!(
                report.os.shootdown_ipis > 0,
                "churn workloads on {cores} cores must shoot down"
            );
            prop_assert!(
                report.obs.attribution.get(Component::Shootdown).get() > 0,
                "shootdown stalls must be attributed"
            );
            prop_assert_eq!(
                report.obs.attribution.total(),
                report.obs.mem_latency.total(),
                "attribution diverged from recorded memory cycles"
            );
        }

        /// The same invariant on the plain single-core engine: adding
        /// the component must not have disturbed the existing ledger.
        #[test]
        fn attribution_sums_to_memory_cycles_single_core(seed in 0u64..1_000) {
            let report = run_mc("postgres", 1, seed);
            prop_assert_eq!(report.os.shootdown_ipis, 0);
            prop_assert_eq!(
                report.obs.attribution.total(),
                report.obs.mem_latency.total()
            );
        }
    }
}

mod virt_attribution {
    //! The virtualized schemes keep the same ledger: the gVA TLB, the
    //! guest-OR-host filter path, 2D walks and 2D segments are charged
    //! where their latency is composed, so the components sum exactly
    //! to the recorded memory cycles.

    use hvc::core::{SystemConfig, SystemSim, VirtScheme};
    use hvc::obs::Component;
    use hvc::os::AllocPolicy;
    use hvc::virt::Hypervisor;
    use proptest::prelude::*;

    /// Each scheme with its `vm:` cell's allocation, plus 2D segments
    /// over demand paging, where every translation falls back to a 2D
    /// walk.
    const SETUPS: [(VirtScheme, bool); 4] = [
        (VirtScheme::NestedBaseline, false),
        (VirtScheme::HybridDelayedNested(1024), false),
        (VirtScheme::HybridNestedSegments, true),
        (VirtScheme::HybridNestedSegments, false),
    ];

    /// One guest run; `eager` backs the guest with eager segments and
    /// eager machine memory.
    fn run_guest(
        workload: &str,
        scheme: VirtScheme,
        eager: bool,
        seed: u64,
    ) -> hvc::core::RunReport {
        let policy = if eager {
            AllocPolicy::EagerSegments { split: 1 }
        } else {
            AllocPolicy::DemandPaging
        };
        let spec =
            hvc::runner::params::workload_by_name(workload, 16 << 20).expect("workload exists");
        let mut hv = Hypervisor::new(2 << 30);
        let vm = hv.create_vm(1 << 30, policy, eager).expect("vm");
        let mut wl = spec
            .instantiate(hv.guest_kernel_mut(vm).expect("guest kernel"), seed)
            .expect("workload");
        let mut sim =
            SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme).expect("sim");
        sim.warm_up(&mut wl, 1_000);
        sim.run(&mut wl, 4_000)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every virtualized scheme's attribution sums exactly to the
        /// total recorded memory cycles, over private, synonym-heavy and
        /// churning guests.
        #[test]
        fn attribution_sums_to_memory_cycles_in_a_vm(
            seed in 0u64..1_000,
            workload in prop_oneof![Just("gups"), Just("postgres"), Just("fork_storm")],
        ) {
            for (scheme, eager) in SETUPS {
                let report = run_guest(workload, scheme, eager, seed);
                prop_assert!(report.obs.mem_latency.total().get() > 0);
                prop_assert_eq!(
                    report.obs.attribution.total(),
                    report.obs.mem_latency.total(),
                    "{} / {:?} / eager {}: attribution diverged from recorded memory cycles",
                    workload,
                    scheme,
                    eager
                );
                let translated = [
                    Component::FrontTlb,
                    Component::FrontWalk,
                    Component::DelayedTlb,
                    Component::DelayedWalk,
                    Component::SegmentCache,
                ]
                .iter()
                .map(|&c| report.obs.attribution.get(c).get())
                .sum::<u64>();
                prop_assert!(translated > 0, "{} / {:?}: no translation attributed", workload, scheme);
            }
        }
    }
}
