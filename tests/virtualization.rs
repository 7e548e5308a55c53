//! End-to-end virtualization tests: nested translation agrees across
//! every path (EPT demand walks, nested hardware walks, 2D segments),
//! and guest/host synonym detection composes correctly.

use hvc::core::{PerCoreStats, SystemConfig, SystemSim, VirtScheme};
use hvc::os::{AllocPolicy, MapIntent};
use hvc::tlb::{Tlb, TwoLevelTlb};
use hvc::types::{
    AccessKind, Asid, BlockName, Cycles, GuestPhysAddr, MemRef, Permissions, TraceItem, VirtAddr,
    VirtPage, Vmid, PAGE_SIZE,
};
use hvc::virt::{Hypervisor, NestedSegments, NestedWalker};
use hvc::workloads::{apps, WorkloadInstance};

const GIB: u64 = 1 << 30;

#[test]
fn all_nested_translation_paths_agree() {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm = hv
        .create_vm(GIB, AllocPolicy::EagerSegments { split: 1 }, true)
        .unwrap();
    let asid = hv.create_guest_process(vm).unwrap();
    let va = VirtAddr::new(0x40_0000);
    let gk = hv.guest_kernel_mut(vm).unwrap();
    gk.mmap(asid, va, 1 << 20, Permissions::RW, MapIntent::Private)
        .unwrap();

    let probe = va + 0x3456;

    // Path 1: guest PT + EPT (the reference).
    let gpte = hv
        .guest_kernel(vm)
        .unwrap()
        .walk(asid, probe.page_number())
        .unwrap()
        .0;
    let gpa = GuestPhysAddr::new(gpte.frame.base().as_u64() + probe.page_offset());
    let ma_ref = hv.machine_addr(vm, gpa).unwrap();

    // Path 2: hardware nested walker (pre-touch PT pages).
    let (_, gpath) = hv
        .guest_kernel(vm)
        .unwrap()
        .walk(asid, probe.page_number())
        .unwrap();
    for e in gpath {
        hv.machine_addr(vm, GuestPhysAddr::new(e.as_u64())).unwrap();
    }
    let mut walker = NestedWalker::isca2016();
    let (npte, _) = walker
        .walk(&hv, vm, asid, probe.page_number(), |_| Cycles::new(1))
        .unwrap();
    assert_eq!(
        npte.machine_frame.base().as_u64() + probe.page_offset(),
        ma_ref.as_u64(),
        "nested walker disagrees with EPT reference"
    );

    // Path 3: 2D segment translation.
    let mut ns = NestedSegments::build(&hv, vm).unwrap();
    let (ma_seg, _) = ns.translate(asid, probe, |_| Cycles::new(1)).unwrap();
    assert_eq!(ma_seg, ma_ref, "2D segments disagree with EPT reference");
}

#[test]
fn guest_synonyms_work_inside_a_vm() {
    // Two guest processes in one VM share guest memory — guest-OS-induced
    // synonyms detected by the guest filter, physical(machine)-named.
    let mut hv = Hypervisor::new(4 * GIB);
    let vm = hv.create_vm(GIB, AllocPolicy::DemandPaging, false).unwrap();
    let a = hv.create_guest_process(vm).unwrap();
    let b = hv.create_guest_process(vm).unwrap();
    let gk = hv.guest_kernel_mut(vm).unwrap();
    let shm = gk.shm_create(0x2000).unwrap();
    gk.mmap(
        a,
        VirtAddr::new(0x7000_0000),
        0x2000,
        Permissions::RW,
        MapIntent::Shared(shm),
    )
    .unwrap();
    gk.mmap(
        b,
        VirtAddr::new(0x9000_0000),
        0x2000,
        Permissions::RW,
        MapIntent::Shared(shm),
    )
    .unwrap();
    let pa = gk.translate_touch(a, VirtAddr::new(0x7000_0000)).unwrap();
    let pb = gk.translate_touch(b, VirtAddr::new(0x9000_0000)).unwrap();
    assert_eq!(pa.frame, pb.frame, "same guest-physical frame");
    assert!(pa.shared && pb.shared);
    assert!(gk
        .space(a)
        .unwrap()
        .filter
        .is_candidate(VirtAddr::new(0x7000_0000)));
    assert!(gk
        .space(b)
        .unwrap()
        .filter
        .is_candidate(VirtAddr::new(0x9000_0000)));
    // The two guest views reach one machine address.
    let ma_a = hv
        .machine_addr(vm, GuestPhysAddr::new(pa.frame.base().as_u64()))
        .unwrap();
    let ma_b = hv
        .machine_addr(vm, GuestPhysAddr::new(pb.frame.base().as_u64()))
        .unwrap();
    assert_eq!(ma_a, ma_b);
}

#[test]
fn vm_isolation_distinct_asids_and_frames() {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm1 = hv
        .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
        .unwrap();
    let vm2 = hv
        .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
        .unwrap();
    let a1 = hv.create_guest_process(vm1).unwrap();
    let a2 = hv.create_guest_process(vm2).unwrap();
    assert_ne!(a1, a2, "ASIDs embed VMIDs so VMs cannot alias");
    for (vm, asid) in [(vm1, a1), (vm2, a2)] {
        let gk = hv.guest_kernel_mut(vm).unwrap();
        gk.mmap(
            asid,
            VirtAddr::new(0x1000_0000),
            0x1000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        gk.translate_touch(asid, VirtAddr::new(0x1000_0000))
            .unwrap();
    }
    let g1 = hv
        .guest_kernel(vm1)
        .unwrap()
        .walk(a1, VirtAddr::new(0x1000_0000).page_number())
        .unwrap()
        .0;
    let g2 = hv
        .guest_kernel(vm2)
        .unwrap()
        .walk(a2, VirtAddr::new(0x1000_0000).page_number())
        .unwrap()
        .0;
    let m1 = hv
        .machine_addr(vm1, GuestPhysAddr::new(g1.frame.base().as_u64()))
        .unwrap();
    let m2 = hv
        .machine_addr(vm2, GuestPhysAddr::new(g2.frame.base().as_u64()))
        .unwrap();
    assert_ne!(
        m1.frame_number(),
        m2.frame_number(),
        "machine frames are disjoint"
    );
}

#[test]
fn virt_sim_schemes_agree_functionally() {
    let refs = 20_000;
    let mk = |scheme| {
        let (policy, eager) = match scheme {
            VirtScheme::HybridNestedSegments => (AllocPolicy::EagerSegments { split: 1 }, true),
            _ => (AllocPolicy::DemandPaging, false),
        };
        let mut hv = Hypervisor::new(4 * GIB);
        let vm = hv.create_vm(GIB, policy, eager).unwrap();
        let gk = hv.guest_kernel_mut(vm).unwrap();
        let mut wl = apps::astar().instantiate(gk, 13).unwrap();
        let mut sim = SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme).unwrap();
        sim.run(&mut wl, refs)
    };
    let base = mk(VirtScheme::NestedBaseline);
    let dtlb = mk(VirtScheme::HybridDelayedNested(4096));
    let seg = mk(VirtScheme::HybridNestedSegments);
    assert_eq!(base.instructions, dtlb.instructions);
    assert_eq!(base.instructions, seg.instructions);
    assert!(base.ipc() > 0.0 && dtlb.ipc() > 0.0 && seg.ipc() > 0.0);
}

#[test]
fn virt_reports_window_guest_os_stats_and_one_core() {
    // Warm-up faults must not leak into the measured window, and the
    // report carries one per-core slice like a native single-core run.
    for scheme in [
        VirtScheme::NestedBaseline,
        VirtScheme::HybridDelayedNested(1024),
        VirtScheme::HybridNestedSegments,
    ] {
        let mut hv = Hypervisor::new(4 * GIB);
        let vm = hv.create_vm(GIB, AllocPolicy::DemandPaging, false).unwrap();
        let gk = hv.guest_kernel_mut(vm).unwrap();
        let mut wl = apps::gups(64 << 20).instantiate(gk, 42).unwrap();
        let mut sim = SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme).unwrap();
        sim.warm_up(&mut wl, 5_000);
        let warm_faults = sim.kernel().stats().minor_faults;
        assert!(warm_faults > 0, "{scheme:?}: warm-up must fault pages in");
        let r = sim.run(&mut wl, 10_000);
        let total_faults = sim.kernel().stats().minor_faults;
        assert_eq!(r.minor_faults, total_faults - warm_faults, "{scheme:?}");
        assert_eq!(r.os.minor_faults, r.minor_faults, "{scheme:?}");
        assert_eq!(
            r.per_core,
            vec![PerCoreStats {
                instructions: r.instructions,
                cycles: r.cycles,
            }],
            "{scheme:?}"
        );
    }
}

#[test]
fn dedup_then_write_roundtrip_preserves_isolation() {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm1 = hv
        .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
        .unwrap();
    let vm2 = hv
        .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
        .unwrap();
    let g1 = GuestPhysAddr::new(0x10_0000);
    let g2 = GuestPhysAddr::new(0x20_0000);
    hv.machine_addr(vm1, g1).unwrap();
    hv.machine_addr(vm2, g2).unwrap();
    hv.dedup_ro((vm1, g1), (vm2, g2)).unwrap();
    let shared_frame = hv.ept_walk(vm1, g1).unwrap().0.frame;
    assert_eq!(hv.ept_walk(vm2, g2).unwrap().0.frame, shared_frame);

    // VM2 writes → breaks → VM1 still points at the original frame.
    hv.break_dedup(vm2, g2).unwrap();
    assert_eq!(hv.ept_walk(vm1, g1).unwrap().0.frame, shared_frame);
    assert_ne!(hv.ept_walk(vm2, g2).unwrap().0.frame, shared_frame);
    let _ = AccessKind::Read;
}

// --- the virtualized simulator (guest VM on `SystemSim`) ---

fn gups_guest(policy: AllocPolicy, eager_backing: bool) -> (Hypervisor, Vmid, WorkloadInstance) {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm = hv.create_vm(GIB, policy, eager_backing).unwrap();
    let gk = hv.guest_kernel_mut(vm).unwrap();
    let wl = apps::gups(8 << 20).instantiate(gk, 5).unwrap();
    (hv, vm, wl)
}

fn guest_sim(config: SystemConfig, scheme: VirtScheme) -> (SystemSim, WorkloadInstance) {
    let (policy, eager) = match scheme {
        VirtScheme::HybridNestedSegments => (AllocPolicy::EagerSegments { split: 1 }, true),
        _ => (AllocPolicy::DemandPaging, false),
    };
    let (hv, vm, wl) = gups_guest(policy, eager);
    (SystemSim::virtualized(hv, vm, config, scheme).unwrap(), wl)
}

fn has_virt_lines_of(sim: &SystemSim, asid: Asid) -> bool {
    sim.hierarchy()
        .resident_names()
        .any(|n| matches!(n, BlockName::Virt(a, _) if a == asid))
}

#[test]
fn nested_baseline_runs_and_walks() {
    let (mut sim, mut wl) = guest_sim(SystemConfig::isca2016(), VirtScheme::NestedBaseline);
    let r = sim.run(&mut wl, 5000);
    assert!(r.ipc() > 0.0);
    assert!(r.obs.walk_latency.count() > 0, "2D walks are recorded");
    assert!(r.translation.pte_reads > 0);
    assert_eq!(r.translation.l1_tlb_lookups, 5000);
}

#[test]
fn hybrid_delayed_nested_bypasses_front_tlb() {
    let (mut sim, mut wl) = guest_sim(
        SystemConfig::isca2016(),
        VirtScheme::HybridDelayedNested(4096),
    );
    let r = sim.run(&mut wl, 5000);
    assert_eq!(r.translation.filter_lookups, 5000);
    assert_eq!(r.translation.synonym_tlb_lookups, 0, "private guest pages");
    assert!(r.translation.delayed_tlb_lookups > 0);
}

#[test]
fn hybrid_beats_nested_baseline_on_walk_heavy_guest() {
    // TLB-thrashing but LLC-resident guest working set: the nested
    // baseline pays 2D-walk latency for cache-resident lines; hybrid
    // virtual caching removes translation from that path entirely.
    let (mut base, mut wl) =
        guest_sim(SystemConfig::isca2016_8mb_llc(), VirtScheme::NestedBaseline);
    let rb = base.run(&mut wl, 60_000);
    let (mut hyb, mut wl2) = guest_sim(
        SystemConfig::isca2016_8mb_llc(),
        VirtScheme::HybridDelayedNested(8192),
    );
    let rh = hyb.run(&mut wl2, 60_000);
    assert!(
        rh.ipc() > rb.ipc(),
        "hybrid virt {} vs nested baseline {}",
        rh.ipc(),
        rb.ipc()
    );
}

#[test]
fn nested_segments_scheme_uses_segment_path() {
    let (mut sim, mut wl) = guest_sim(SystemConfig::isca2016(), VirtScheme::HybridNestedSegments);
    let r = sim.run(&mut wl, 5000);
    assert!(r.translation.sc_lookups > 0);
    assert!(r.translation.segment_table_accesses > 0);
    assert!(r.ipc() > 0.0);
}

#[test]
fn destroyed_guest_space_leaves_no_stale_lines() {
    for scheme in [
        VirtScheme::NestedBaseline,
        VirtScheme::HybridDelayedNested(1024),
        VirtScheme::HybridNestedSegments,
    ] {
        let (mut sim, mut wl) = guest_sim(SystemConfig::isca2016(), scheme);
        let asid = wl.procs()[0].asid;
        sim.run(&mut wl, 2000);
        // The process's cached translations, those of the TLBs a private
        // page's translation goes through first.
        let owned = |sim: &SystemSim| -> Vec<VirtPage> {
            let gva = sim.gva_tlb().expect("a guest has a gVA TLB").entries();
            let data = sim.data_tlbs().iter().flat_map(TwoLevelTlb::entries);
            let synonym = sim.synonym_tlbs().iter().flat_map(Tlb::entries);
            gva.chain(data)
                .chain(sim.delayed_tlb().entries())
                .chain(synonym)
                .filter(|&(a, _, _)| a == asid)
                .map(|(_, page, _)| page)
                .collect()
        };
        let pages = owned(&sim);
        assert!(
            !pages.is_empty() || has_virt_lines_of(&sim, asid),
            "{scheme:?}: warm-up should leave lines or TLB entries for the process"
        );
        sim.os(|gk| gk.destroy_process(asid).unwrap());
        assert!(
            !has_virt_lines_of(&sim, asid),
            "{scheme:?}: stale virtually tagged lines survived guest ASID destruction"
        );
        assert_eq!(
            owned(&sim),
            [],
            "{scheme:?}: stale TLB entries survived guest ASID destruction"
        );
        // A new process under the same ASID maps a page the old one had
        // cached: its first reference walks the page tables.
        if let Some(&page) = pages.first() {
            sim.os(|gk| {
                gk.create_process_with_asid(asid).unwrap();
                gk.mmap(
                    asid,
                    page.base(),
                    PAGE_SIZE,
                    Permissions::RW,
                    MapIntent::Private,
                )
                .unwrap();
            });
            sim.reset_stats();
            sim.step(TraceItem::new(0, MemRef::read(asid, page.base())), 1);
            assert!(
                sim.report().translation.pte_reads > 0,
                "{scheme:?}: the reused ASID hit a stale entry"
            );
        }
    }
}

#[test]
fn injected_flush_drop_reproduces_stale_lines() {
    // With the pre-fix fault injected (Space/DowngradeRo requests
    // dropped), destroying the guest process leaves stale virtually
    // tagged lines behind — exactly what hvc-check must flag.
    let (mut sim, mut wl) = guest_sim(
        SystemConfig::isca2016(),
        VirtScheme::HybridDelayedNested(1024),
    );
    let asid = wl.procs()[0].asid;
    sim.inject_drop_non_page_flushes();
    sim.run(&mut wl, 2000);
    sim.os(|gk| gk.destroy_process(asid).unwrap());
    assert!(
        has_virt_lines_of(&sim, asid),
        "fault injection should reproduce the dropped-flush bug"
    );
}

#[test]
fn host_induced_sharing_becomes_candidate() {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm = hv.create_vm(GIB, AllocPolicy::DemandPaging, false).unwrap();
    let gk = hv.guest_kernel_mut(vm).unwrap();
    let wl = apps::gups(4 << 20).instantiate(gk, 5).unwrap();
    let asid = wl.procs()[0].asid;
    // The hypervisor shares the first guest page r/w with the host.
    hv.share_rw_with_host(
        vm,
        GuestPhysAddr::new(0x40_0000),
        VirtAddr::new(0x1000_0000),
    )
    .unwrap();
    let mut sim = SystemSim::virtualized(
        hv,
        vm,
        SystemConfig::isca2016(),
        VirtScheme::HybridDelayedNested(1024),
    )
    .unwrap();
    // Drive an access directly at the shared page.
    sim.step(
        TraceItem::new(0, MemRef::read(asid, VirtAddr::new(0x1000_0040))),
        1,
    );
    let r = sim.report();
    assert_eq!(r.translation.filter_candidates, 1);
    assert_eq!(
        r.translation.shared_accesses, 1,
        "host-induced synonym → PA path"
    );
}

#[test]
fn unknown_vm_is_an_error() {
    let hv = Hypervisor::new(4 * GIB);
    let bogus = Vmid::new(7);
    assert!(SystemSim::virtualized(
        hv,
        bogus,
        SystemConfig::isca2016(),
        VirtScheme::NestedBaseline
    )
    .is_err());
}
