//! End-to-end equivalence and sanity tests across translation schemes.
//!
//! All schemes simulate the *same* workload stream, so their functional
//! footprints must agree (pages touched, faults, shared-access counts),
//! while their timing characteristics must order the way the paper's
//! evaluation says they do.

use hvc::core::{RunReport, SystemConfig, SystemSim, TranslationScheme};
use hvc::os::{AllocPolicy, Kernel};
use hvc::workloads::apps;

fn run(scheme: TranslationScheme, policy: AllocPolicy, refs: usize, seed: u64) -> RunReport {
    let mut kernel = Kernel::new(4 << 30, policy);
    let mut wl = apps::omnetpp().instantiate(&mut kernel, seed).unwrap();
    let mut sim = SystemSim::new(kernel, SystemConfig::isca2016(), scheme);
    sim.run(&mut wl, refs)
}

#[test]
fn all_schemes_touch_the_same_memory() {
    let refs = 30_000;
    let reports = [
        run(
            TranslationScheme::Baseline,
            AllocPolicy::DemandPaging,
            refs,
            5,
        ),
        run(
            TranslationScheme::HybridDelayedTlb(1024),
            AllocPolicy::DemandPaging,
            refs,
            5,
        ),
        run(TranslationScheme::Ideal, AllocPolicy::DemandPaging, refs, 5),
    ];
    // The workload stream is deterministic: all demand-paged schemes
    // must fault in exactly the same pages and count the same
    // shared-access traffic.
    for r in &reports[1..] {
        assert_eq!(r.minor_faults, reports[0].minor_faults);
        assert_eq!(
            r.translation.shared_accesses,
            reports[0].translation.shared_accesses
        );
        assert_eq!(r.instructions, reports[0].instructions);
        assert_eq!(r.refs, reports[0].refs);
    }
}

#[test]
fn simulation_is_deterministic() {
    let a = run(
        TranslationScheme::HybridDelayedTlb(2048),
        AllocPolicy::DemandPaging,
        20_000,
        9,
    );
    let b = run(
        TranslationScheme::HybridDelayedTlb(2048),
        AllocPolicy::DemandPaging,
        20_000,
        9,
    );
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.translation, b.translation);
    assert_eq!(a.dram, b.dram);
}

#[test]
fn ideal_bounds_every_scheme() {
    let refs = 40_000;
    let ideal = run(
        TranslationScheme::Ideal,
        AllocPolicy::DemandPaging,
        refs,
        11,
    );
    let demand = AllocPolicy::DemandPaging;
    for (scheme, policy) in [
        (TranslationScheme::Baseline, demand),
        (TranslationScheme::HybridDelayedTlb(1024), demand),
        (TranslationScheme::HybridDelayedTlb(32768), demand),
        (
            TranslationScheme::Rmm,
            AllocPolicy::EagerSegments { split: 1 },
        ),
    ] {
        let r = run(scheme, policy, refs, 11);
        assert!(
            ideal.cycles <= r.cycles,
            "{scheme:?} ran in {} cycles, faster than ideal's {}",
            r.cycles,
            ideal.cycles
        );
    }
}

#[test]
fn hybrid_eliminates_front_side_tlb_traffic_for_private_workloads() {
    let r = run(
        TranslationScheme::HybridDelayedTlb(1024),
        AllocPolicy::DemandPaging,
        20_000,
        3,
    );
    assert_eq!(r.translation.l1_tlb_lookups, 0);
    assert_eq!(r.translation.l2_tlb_lookups, 0);
    assert_eq!(
        r.translation.synonym_tlb_lookups, 0,
        "no synonyms in omnetpp"
    );
    assert_eq!(r.translation.filter_lookups, 20_000);
}

#[test]
fn many_segment_and_delayed_tlb_agree_functionally() {
    let refs = 30_000;
    // Same seed: the eager-policy runs see identical streams.
    let seg = {
        let mut kernel = Kernel::new(4 << 30, AllocPolicy::EagerSegments { split: 1 });
        let mut wl = apps::omnetpp().instantiate(&mut kernel, 7).unwrap();
        let mut sim = SystemSim::new(
            kernel,
            SystemConfig::isca2016(),
            TranslationScheme::HybridManySegment {
                segment_cache: true,
            },
        );
        sim.run(&mut wl, refs)
    };
    let tlb = {
        let mut kernel = Kernel::new(4 << 30, AllocPolicy::EagerSegments { split: 1 });
        let mut wl = apps::omnetpp().instantiate(&mut kernel, 7).unwrap();
        let mut sim = SystemSim::new(
            kernel,
            SystemConfig::isca2016(),
            TranslationScheme::HybridDelayedTlb(1024),
        );
        sim.run(&mut wl, refs)
    };
    let rmm = run(
        TranslationScheme::Rmm,
        AllocPolicy::EagerSegments { split: 1 },
        refs,
        7,
    );
    for r in [&tlb, &rmm] {
        assert_eq!(seg.instructions, r.instructions);
        assert_eq!(
            seg.translation.shared_accesses,
            r.translation.shared_accesses
        );
    }
    // Under eager allocation no demand faults occur in any of them.
    assert_eq!(seg.minor_faults, 0);
    assert_eq!(tlb.minor_faults, 0);
    assert_eq!(rmm.minor_faults, 0);
    // omnetpp's one heap segment fits the range TLB: only cold misses.
    assert_eq!(rmm.translation.l1_tlb_lookups, refs as u64);
    assert!(rmm.translation.segment_table_accesses <= 2);
}

#[test]
fn postgres_synonym_traffic_is_consistent_across_schemes() {
    let refs = 40_000;
    let mk = |scheme| {
        let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let mut wl = apps::postgres().instantiate(&mut kernel, 21).unwrap();
        let mut sim = SystemSim::new(kernel, SystemConfig::isca2016(), scheme);
        sim.run(&mut wl, refs)
    };
    let base = mk(TranslationScheme::Baseline);
    let hyb = mk(TranslationScheme::HybridDelayedTlb(1024));
    assert_eq!(
        base.translation.shared_accesses,
        hyb.translation.shared_accesses
    );
    // Candidates cover at least the true synonym accesses (no false
    // negatives), possibly more (false positives).
    assert!(hyb.translation.filter_candidates >= hyb.translation.shared_accesses);
}
