//! End-to-end checks of the differential oracle observing a measured
//! simulator: clean runs stay clean, the checked report matches an
//! unchecked run bit-for-bit, and the injected historical flush bug is
//! caught.

use hvc_check::Violation;
use hvc_check::{stress, CheckConfig, Oracle};
use hvc_core::{SystemConfig, SystemSim, TranslationScheme, VirtScheme};
use hvc_os::{AllocPolicy, Kernel, MapIntent};
use hvc_types::{BlockName, MemRef, Permissions, TraceItem, VirtAddr, Vmid};
use hvc_virt::Hypervisor;
use hvc_workloads::{apps, WorkloadInstance};

const GIB: u64 = 1 << 30;

fn native_setup(kernel: &mut Kernel) -> hvc_types::Result<WorkloadInstance> {
    apps::gups(8 << 20).instantiate(kernel, 7)
}

/// A native simulator of `scheme` over a kernel built by `setup`, with
/// the ideal oracle installed over a twin kernel built the same way.
fn checked_native<T>(
    scheme: TranslationScheme,
    cfg: CheckConfig,
    mem_bytes: u64,
    policy: AllocPolicy,
    setup: impl Fn(&mut Kernel) -> hvc_types::Result<T>,
) -> (SystemSim, T) {
    let build = || {
        let mut kernel = Kernel::new(mem_bytes, policy);
        let value = setup(&mut kernel).unwrap();
        (kernel, value)
    };
    let (kernel, value) = build();
    let mut sim = SystemSim::new(kernel, SystemConfig::isca2016(), scheme);
    Oracle::native(&mut sim, build().0, cfg);
    (sim, value)
}

#[test]
fn native_checked_run_is_clean_and_matches_unchecked_report() {
    let (mut sim, mut wl) = checked_native(
        TranslationScheme::HybridDelayedTlb(1024),
        CheckConfig::default(),
        4 * GIB,
        AllocPolicy::DemandPaging,
        native_setup,
    );
    sim.warm_up(&mut wl, 1000);
    let checked = sim.run(&mut wl, 4000);
    assert!(
        Oracle::verdict(&sim).is_empty(),
        "clean workload must stay clean"
    );
    assert_eq!(Oracle::of(&sim).unwrap().refs(), 5000);

    // The same run without any checking: reports must be identical,
    // demonstrating that checking observes without perturbing.
    let mut kernel = Kernel::new(4 * GIB, AllocPolicy::DemandPaging);
    let mut wl2 = native_setup(&mut kernel).unwrap();
    let mut sim = SystemSim::new(
        kernel,
        SystemConfig::isca2016(),
        TranslationScheme::HybridDelayedTlb(1024),
    );
    sim.warm_up(&mut wl2, 1000);
    let plain = sim.run(&mut wl2, 4000);
    assert_eq!(format!("{checked:?}"), format!("{plain:?}"));
}

#[test]
fn native_process_churn_stays_clean() {
    let (mut sim, mut wl) = checked_native(
        TranslationScheme::HybridDelayedTlb(1024),
        CheckConfig { sweep_every: 256 },
        4 * GIB,
        AllocPolicy::DemandPaging,
        native_setup,
    );
    sim.run(&mut wl, 2000);
    let asid = wl.procs()[0].asid;
    Oracle::os(&mut sim, |k| k.destroy_process(asid).unwrap());
    let v = Oracle::verdict(&sim);
    assert!(
        v.is_empty(),
        "destroy_process through os() must leave no stale state: {v:?}"
    );
}

/// The OS moves a segment outside the translation path: it unmaps an
/// eager region, a new mapping takes its frames, and the region is
/// mapped again elsewhere in physical memory. The next translation must
/// follow the page table, not the segment the many-segment translator
/// mirrored or the RMM range TLB cached — nor, in a VM whose guest OS
/// does the same, the guest segment the 2D translator mirrored.
#[test]
fn remapped_eager_segment_is_not_served_stale() {
    const MIB: u64 = 1 << 20;
    let (a, b) = (VirtAddr::new(0x4000_0000), VirtAddr::new(0x8000_0000));
    let rw = Permissions::RW;
    let eager = AllocPolicy::EagerSegments { split: 1 };
    let native = |scheme| {
        checked_native(scheme, CheckConfig::default(), GIB, eager, |k| {
            let asid = k.create_process()?;
            k.mmap(asid, a, 2 * MIB, rw, MapIntent::Private)?;
            Ok(asid)
        })
    };
    // Eager guest segments over eagerly backed machine memory.
    let guest = || {
        let mut hv = Hypervisor::new(4 * GIB);
        let vm = hv.create_vm(GIB, eager, true).unwrap();
        let asid = hv.create_guest_process(vm).unwrap();
        let gk = hv.guest_kernel_mut(vm).unwrap();
        gk.mmap(asid, a, 2 * MIB, rw, MapIntent::Private).unwrap();
        (hv, vm, asid)
    };
    let (hv, vm, asid) = guest();
    let scheme = VirtScheme::HybridNestedSegments;
    let mut sim = SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme).unwrap();
    let (twin, twin_vm, _) = guest();
    Oracle::virtualized(&mut sim, twin, twin_vm, CheckConfig::default()).unwrap();
    let cases = [
        (
            "manyseg",
            native(TranslationScheme::HybridManySegment {
                segment_cache: true,
            }),
        ),
        ("rmm", native(TranslationScheme::Rmm)),
        ("vm:seg", (sim, asid)),
    ];
    for (label, (mut sim, asid)) in cases {
        let read = |va: VirtAddr| TraceItem::new(1, MemRef::read(asid, va));
        sim.step(read(a + 0x40), 1);
        Oracle::os(&mut sim, |k| {
            k.munmap(asid, a).unwrap();
            k.mmap(asid, b, 2 * MIB, rw, MapIntent::Private).unwrap();
            k.mmap(asid, a, 2 * MIB, rw, MapIntent::Private).unwrap();
        });
        sim.step(read(a + 0x1040), 1);
        sim.step(read(a + 0x40), 1);
        sim.step(read(b + 0x40), 1);
        let violations = Oracle::verdict(&sim);
        assert!(violations.is_empty(), "{label}: {violations:?}");
    }
}

/// RMM under eager-segment churn: destroying a process removes its
/// segments, and the flush drain that follows re-syncs the range TLBs.
/// With that drain dropped, the destroyed space's range entries outlive
/// their segments, and the oracle's sweep must report them.
#[test]
fn rmm_range_entries_outliving_their_segments_are_caught() {
    for drop_invalidation in [false, true] {
        let (mut sim, mut wl) = checked_native(
            TranslationScheme::Rmm,
            CheckConfig::default(),
            4 * GIB,
            AllocPolicy::EagerSegments { split: 1 },
            |k| apps::xalancbmk().instantiate(k, 7),
        );
        sim.run(&mut wl, 3000);
        assert!(sim.range_tlbs()[0].entries().count() > 1);
        if drop_invalidation {
            sim.inject_drop_non_page_flushes();
        }
        let asid = wl.procs()[0].asid;
        Oracle::os(&mut sim, |k| k.destroy_process(asid).unwrap());
        let stale = Oracle::verdict(&sim)
            .into_iter()
            .filter(|v| {
                matches!(
                    v,
                    Violation::TlbStale {
                        tlb: "range_tlb",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(
            stale > 0,
            drop_invalidation,
            "{stale} stale range entries, invalidation dropped: {drop_invalidation}"
        );
    }
}

fn virt_setup() -> (Hypervisor, Vmid, WorkloadInstance) {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm = hv.create_vm(GIB, AllocPolicy::DemandPaging, false).unwrap();
    let gk = hv.guest_kernel_mut(vm).unwrap();
    let wl = apps::gups(8 << 20).instantiate(gk, 7).unwrap();
    (hv, vm, wl)
}

/// A guest VM running the hybrid delayed-TLB nested scheme, with the
/// nested-baseline oracle installed over a twin hypervisor.
fn checked_virt() -> (SystemSim, WorkloadInstance) {
    let (hv, vm, wl) = virt_setup();
    let scheme = VirtScheme::HybridDelayedNested(1024);
    let mut sim = SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme).unwrap();
    let (hv, vm, _) = virt_setup();
    Oracle::virtualized(&mut sim, hv, vm, CheckConfig::default()).unwrap();
    (sim, wl)
}

#[test]
fn virt_checked_run_is_clean() {
    let (mut sim, mut wl) = checked_virt();
    sim.warm_up(&mut wl, 500);
    sim.run(&mut wl, 2000);
    let v = Oracle::verdict(&sim);
    assert!(v.is_empty(), "clean guest workload must stay clean: {v:?}");
}

#[test]
fn virt_guest_destroy_is_clean_with_the_fix() {
    let (mut sim, mut wl) = checked_virt();
    sim.run(&mut wl, 2000);
    let asid = wl.procs()[0].asid;
    Oracle::os(&mut sim, |gk| {
        let _ = gk.destroy_process(asid);
    });
    let v = Oracle::verdict(&sim);
    assert!(v.is_empty(), "guest destroy must flush everything: {v:?}");
}

#[test]
fn virt_injected_flush_drop_is_caught() {
    // Reverting the virtualized flush fix (Space/DowngradeRo requests
    // dropped) must surface under hvc-check as stale virtually tagged
    // lines and/or stale TLB entries after guest process destruction.
    let (mut sim, mut wl) = checked_virt();
    sim.inject_drop_non_page_flushes();
    sim.run(&mut wl, 2000);
    let asid = wl.procs()[0].asid;
    Oracle::os(&mut sim, |gk| {
        let _ = gk.destroy_process(asid);
    });
    let sut_asid_lines = sim
        .hierarchy()
        .resident_names()
        .filter(|n| matches!(n, BlockName::Virt(a, _) if *a == asid))
        .count();
    assert!(
        sut_asid_lines > 0,
        "injection must leave stale lines behind"
    );
    let v = Oracle::verdict(&sim);
    assert!(
        v.iter()
            .any(|v| matches!(v, Violation::StaleLine { .. } | Violation::TlbStale { .. })),
        "dropped Space flush must be flagged, got: {v:?}"
    );
}

#[test]
fn stress_scripts_run_clean_on_default_seeds() {
    for seed in [1u64, 2, 3] {
        let ops = stress::generate(seed, 300);
        let v = stress::run_script(&ops).unwrap();
        assert!(
            v.is_empty(),
            "seed {seed} must run clean, got: {}\nscript:\n{}",
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; "),
            stress::script(&ops)
        );
    }
}

#[test]
fn shrinker_reduces_an_injected_failure_to_a_minimal_script() {
    let mut ops = stress::generate(11, 120);
    // A nemesis op mutates only the machine under test, so the twin
    // kernels diverge; everything else in the script is noise.
    ops.push(stress::Op::Nemesis { proc: 0, page: 2 });
    let v = stress::run_script(&ops).unwrap();
    assert!(!v.is_empty(), "nemesis script must fail");
    let min = stress::shrink(&ops).unwrap();
    assert!(!stress::run_script(&min).unwrap().is_empty());
    assert!(
        min.len() <= 3,
        "shrinker should reduce 121 ops to a tiny reproducer, got {} ops:\n{}",
        min.len(),
        stress::script(&min)
    );
    assert!(
        min.iter()
            .any(|op| matches!(op, stress::Op::Nemesis { .. })),
        "the nemesis must survive shrinking"
    );
}
