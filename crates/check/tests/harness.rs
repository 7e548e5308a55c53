//! End-to-end checks of the differential harnesses: clean runs stay
//! clean, the checked report matches an unchecked run bit-for-bit, and
//! the injected historical flush bug is caught.

use hvc_check::Violation;
use hvc_check::{stress, CheckConfig, DiffHarness};
use hvc_core::{SystemConfig, SystemSim, TranslationScheme, VirtScheme};
use hvc_os::{AllocPolicy, Kernel, MapIntent};
use hvc_types::{Asid, BlockName, MemRef, Permissions, TraceItem, VirtAddr, Vmid};
use hvc_virt::Hypervisor;
use hvc_workloads::{apps, WorkloadInstance};

const GIB: u64 = 1 << 30;

fn native_setup(kernel: &mut Kernel) -> hvc_types::Result<WorkloadInstance> {
    apps::gups(8 << 20).instantiate(kernel, 7)
}

#[test]
fn native_checked_run_is_clean_and_matches_unchecked_report() {
    let (mut h, mut wl) = DiffHarness::new(
        SystemConfig::isca2016(),
        TranslationScheme::HybridDelayedTlb(1024),
        CheckConfig::default(),
        4 * GIB,
        AllocPolicy::DemandPaging,
        native_setup,
    )
    .unwrap();
    h.warm_up(&mut wl, 1000);
    let checked = h.run(&mut wl, 4000);
    assert!(h.finish().is_empty(), "clean workload must stay clean");

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
    assert_eq!(checked.instructions, plain.instructions);
    assert_eq!(checked.cycles, plain.cycles);
    assert_eq!(checked.translation, plain.translation);
    assert_eq!(checked.cache, plain.cache);
    assert_eq!(checked.dram, plain.dram);
}

#[test]
fn native_process_churn_stays_clean() {
    let (mut h, mut wl) = DiffHarness::new(
        SystemConfig::isca2016(),
        TranslationScheme::HybridDelayedTlb(1024),
        CheckConfig { sweep_every: 256 },
        4 * GIB,
        AllocPolicy::DemandPaging,
        native_setup,
    )
    .unwrap();
    h.run(&mut wl, 2000);
    let asid = wl.procs()[0].asid;
    h.os(|k| k.destroy_process(asid).unwrap());
    h.sweep();
    assert!(
        h.violations().is_empty(),
        "destroy_process through os() must leave no stale state: {:?}",
        h.violations()
    );
}

/// The OS moves a segment outside the many-segment path: it unmaps an
/// eager region, a new mapping takes its frames, and the region is
/// mapped again elsewhere in physical memory. The next translation must
/// follow the page table, not the segment the translator mirrored.
#[test]
fn remapped_eager_segment_is_not_served_stale() {
    const MIB: u64 = 1 << 20;
    let (a, b) = (VirtAddr::new(0x4000_0000), VirtAddr::new(0x8000_0000));
    let rw = Permissions::RW;
    let (mut h, asid) = DiffHarness::new(
        SystemConfig::isca2016(),
        TranslationScheme::HybridManySegment {
            segment_cache: true,
        },
        CheckConfig::default(),
        GIB,
        AllocPolicy::EagerSegments { split: 1 },
        |k| {
            let asid = k.create_process()?;
            k.mmap(asid, a, 2 * MIB, rw, MapIntent::Private)?;
            Ok(asid)
        },
    )
    .unwrap();
    let read = |va: VirtAddr| TraceItem::new(1, MemRef::read(asid, va));
    h.step(read(a + 0x40), 1);
    h.os(|k| {
        k.munmap(asid, a).unwrap();
        k.mmap(asid, b, 2 * MIB, rw, MapIntent::Private).unwrap();
        k.mmap(asid, a, 2 * MIB, rw, MapIntent::Private).unwrap();
    });
    h.step(read(a + 0x1040), 1);
    h.step(read(a + 0x40), 1);
    let violations = h.finish();
    assert!(violations.is_empty(), "{violations:?}");
}

fn virt_setup() -> hvc_types::Result<(Hypervisor, Vmid, WorkloadInstance)> {
    let mut hv = Hypervisor::new(4 * GIB);
    let vm = hv.create_vm(GIB, AllocPolicy::DemandPaging, false)?;
    let gk = hv.guest_kernel_mut(vm)?;
    let wl = apps::gups(8 << 20).instantiate(gk, 7)?;
    Ok((hv, vm, wl))
}

#[test]
fn virt_checked_run_is_clean() {
    let (mut h, mut wl) = DiffHarness::virtualized(
        SystemConfig::isca2016(),
        VirtScheme::HybridDelayedNested(1024),
        CheckConfig::default(),
        virt_setup,
    )
    .unwrap();
    h.warm_up(&mut wl, 500);
    h.run(&mut wl, 2000);
    let v = h.finish();
    assert!(v.is_empty(), "clean guest workload must stay clean: {v:?}");
}

#[test]
fn virt_guest_destroy_is_clean_with_the_fix() {
    let (mut h, mut wl) = DiffHarness::virtualized(
        SystemConfig::isca2016(),
        VirtScheme::HybridDelayedNested(1024),
        CheckConfig::default(),
        virt_setup,
    )
    .unwrap();
    h.run(&mut wl, 2000);
    let asid = wl.procs()[0].asid;
    h.os(|gk| {
        let _ = gk.destroy_process(asid);
    });
    let v = h.finish();
    assert!(v.is_empty(), "guest destroy must flush everything: {v:?}");
}

#[test]
fn virt_injected_flush_drop_is_caught() {
    // Reverting the virtualized flush fix (Space/DowngradeRo requests
    // dropped) must surface under hvc-check as stale virtually tagged
    // lines and/or stale TLB entries after guest process destruction.
    let (mut h, mut wl) = DiffHarness::virtualized(
        SystemConfig::isca2016(),
        VirtScheme::HybridDelayedNested(1024),
        CheckConfig::default(),
        virt_setup,
    )
    .unwrap();
    h.inject_drop_non_page_flushes();
    h.run(&mut wl, 2000);
    let asid = wl.procs()[0].asid;
    h.os(|gk| {
        let _ = gk.destroy_process(asid);
    });
    let sut_asid_lines = h
        .sut()
        .hierarchy()
        .resident_names()
        .filter(|n| matches!(n, BlockName::Virt(a, _) if *a == asid))
        .count();
    assert!(
        sut_asid_lines > 0,
        "injection must leave stale lines behind"
    );
    let v = h.finish();
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
    let _ = Asid::KERNEL; // silence unused-import lint paths on some cfgs
}
