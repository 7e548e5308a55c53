//! Oracle coverage for the restructured hot path: the same
//! workload × scheme matrix as the golden-equivalence grid, swept with
//! `RunOptions::check` so the `hvc-check` differential oracle observes
//! every cell's measured run (a physically-addressed reference machine
//! stepped with each reference and churn batch in the order the measured
//! machine executes them, plus whole-machine invariant sweeps).
//!
//! The golden test pins *reports*; this one proves the flat cache/TLB
//! storage preserves *behavior* under the oracle's invariants, and that
//! the checked report is the unchecked one. Reference counts are
//! smaller than the golden grid's, but the matrix is identical.

use hvc::cache::HierarchyConfig;
use hvc::check::{CheckConfig, Oracle};
use hvc::core::{SystemConfig, SystemSim, TranslationScheme};
use hvc::os::Kernel;
use hvc::runner::params::{parse_scheme, workload_by_name};
use hvc::runner::{run_report_value, run_sweep, CellResult, Experiment, RunOptions};

/// `RunReport` has no `PartialEq`; compare cells through the same
/// serialization the sweep report (and the golden fixture) uses.
fn rendered(exp: &Experiment, r: &CellResult) -> String {
    run_report_value(&r.report, &r.filters, &r.cell.scheme, exp.obs).to_pretty()
}

fn checked(exp: &Experiment) {
    let opts = RunOptions {
        jobs: 2,
        check: true,
    };
    let outcome = run_sweep(exp, &opts).expect("checked sweep must pass");
    assert_eq!(outcome.results.len(), exp.cells().len());

    // The oracle pass must not perturb the measured reports: an
    // unchecked sweep of the same grid agrees cell for cell.
    let plain = run_sweep(
        exp,
        &RunOptions {
            check: false,
            ..opts
        },
    )
    .expect("plain sweep must pass");
    for (a, b) in outcome.results.iter().zip(plain.results.iter()) {
        assert_eq!(
            rendered(exp, a),
            rendered(exp, b),
            "{}/{}",
            a.cell.workload,
            a.cell.scheme
        );
    }
}

#[test]
fn native_grid_passes_the_oracle() {
    checked(&Experiment {
        name: "check-native".into(),
        workloads: vec!["gups".into(), "postgres".into()],
        schemes: vec![
            "baseline".into(),
            "dtlb:1024".into(),
            "manyseg".into(),
            "enigma:1024".into(),
            "rmm".into(),
        ],
        filters: vec!["bloom".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 4_000,
        warm: 2_000,
        mem: 64 << 20,
        cores: 1,
        ifetch: false,
        replay: None,
        obs: false,
    });
}

#[test]
fn multicore_ifetch_grid_passes_the_oracle() {
    checked(&Experiment {
        name: "check-native-mc".into(),
        workloads: vec!["postgres".into()],
        schemes: vec!["dtlb:1024".into(), "manyseg".into(), "rmm".into()],
        filters: vec!["bloom".into(), "rlt".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 2_000,
        warm: 1_000,
        mem: 64 << 20,
        cores: 2,
        ifetch: true,
        replay: None,
        obs: false,
    });
}

/// Both churn profiles on 4 cores: the oracle applies each address-space
/// mutation to the reference machine as the measured machine applies it,
/// in the quantum schedule's order, so a translation corrupted by a
/// missed (or misdirected) TLB shootdown surfaces as a differential
/// violation.
#[test]
fn fork_storm_grid_passes_the_oracle_on_four_cores() {
    checked(&Experiment {
        name: "check-fork-storm".into(),
        workloads: vec!["fork_storm".into()],
        schemes: vec!["baseline".into(), "dtlb:4096".into()],
        filters: vec!["bloom".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 6_000,
        warm: 2_000,
        mem: 64 << 20,
        cores: 4,
        ifetch: false,
        replay: None,
        obs: false,
    });
}

/// The three synonym-stress churn profiles (KSM-style dedup
/// merge/break, COW fork storms, reader/writer shm rotation) under the
/// full hybrid scheme at **both** filter strategies: the oracle's
/// no-false-negative and flush-sufficiency invariants gate the Bloom
/// pair and the reverse lookup table identically.
#[test]
fn synonym_stress_grid_passes_the_oracle_under_both_filters() {
    checked(&Experiment {
        name: "check-synonym-stress".into(),
        workloads: vec!["ksm_dedup".into(), "cow_storm".into(), "shm_rotate".into()],
        schemes: vec!["manyseg".into()],
        filters: vec!["bloom".into(), "rlt".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 6_000,
        warm: 2_000,
        mem: 64 << 20,
        cores: 1,
        ifetch: false,
        replay: None,
        obs: false,
    });
}

/// Every mapped page of every space as `(asid, vpn, frame)`, sorted.
fn frames(kernel: &Kernel) -> Vec<(u16, u64, u64)> {
    let mut v: Vec<_> = kernel
        .spaces()
        .flat_map(|(asid, space)| {
            space.page_table().iter().map(move |(vp, pte)| {
                (asid.as_u16(), vp.base().as_u64(), pte.frame.base().as_u64())
            })
        })
        .collect();
    v.sort_unstable();
    v
}

/// The oracle checks the order the quantum schedule executes, not the
/// order the workload emits. On a `cores = 4` `fork_storm` cell it
/// observes exactly `warm + refs` references, passes, and its reference
/// kernel ends with the measured kernel's frames. The same items stepped
/// in feed order map different frames (demand faults allocate in
/// first-touch order), so an oracle fed in that order would diverge from
/// the measured run.
#[test]
fn oracle_observes_a_four_core_fork_storm_cell_in_mcsim_order() {
    let (warm, refs) = (2_000, 6_000);
    let spec = workload_by_name("fork_storm", 64 << 20).unwrap();
    let (scheme, policy) = parse_scheme("dtlb:4096").unwrap();
    let mut config = SystemConfig::isca2016();
    config.hierarchy = HierarchyConfig::isca2016(4);
    let build = || {
        let mut kernel = Kernel::new(16 << 30, policy);
        let wl = spec.instantiate(&mut kernel, 42).unwrap();
        (kernel, wl)
    };

    let (kernel, mut wl) = build();
    let mut sim = SystemSim::new(kernel, config.clone(), scheme);
    Oracle::native(&mut sim, build().0, CheckConfig::default());
    sim.warm_up(&mut wl, warm);
    sim.run(&mut wl, refs);
    let violations = Oracle::verdict(&sim);
    assert!(violations.is_empty(), "{violations:?}");
    let oracle = Oracle::of(&sim).unwrap();
    assert_eq!(oracle.refs(), (warm + refs) as u64);
    let measured = frames(sim.kernel());
    assert_eq!(frames(oracle.reference().kernel()), measured);

    let (kernel, mut wl) = build();
    let mut feed_order = SystemSim::new(kernel, config, TranslationScheme::Ideal);
    let mlp = wl.mlp();
    for _ in 0..warm + refs {
        feed_order.step(wl.next_item(), mlp);
        if let Some(ops) = wl.take_churn_ops() {
            feed_order.apply_churn(&ops);
        }
    }
    assert_ne!(
        frames(feed_order.kernel()),
        measured,
        "feed order must map different frames than quantum-schedule order"
    );
}

#[test]
fn shm_heavy_grid_passes_the_oracle_on_four_cores() {
    checked(&Experiment {
        name: "check-shm-heavy".into(),
        workloads: vec!["shm_heavy".into()],
        schemes: vec!["baseline".into(), "dtlb:4096".into()],
        filters: vec!["bloom".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 6_000,
        warm: 2_000,
        mem: 64 << 20,
        cores: 4,
        ifetch: false,
        replay: None,
        obs: false,
    });
}

/// Eager-segment churn (the COW storms' munmap/mmap, process teardown)
/// moves the segment table outside the many-segment path. The
/// translator must re-mirror it before translating, or its index tree,
/// hardware table and segment cache keep serving removed segments — a
/// mapped page resolving to a frame other than the page table's, which
/// the oracle reports for every segment translation.
#[test]
fn segment_churn_rebuilds_the_many_segment_translator() {
    let exp = Experiment {
        name: "check-segment-churn".into(),
        workloads: vec!["cow_storm".into(), "fork_storm".into()],
        schemes: vec!["manyseg".into()],
        filters: vec!["bloom".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 30_000,
        warm: 5_000,
        mem: 64 << 20,
        cores: 1,
        ifetch: false,
        replay: None,
        obs: false,
    };
    checked(&exp);
    let outcome = run_sweep(&exp, &RunOptions::default()).expect("sweep must run");
    for r in &outcome.results {
        assert!(
            r.report.translation.segment_table_rebuilds > 0,
            "{}: churn moved the segment table but nothing re-mirrored it",
            r.cell.workload
        );
    }
}

/// The same eager-segment churn under RMM stays clean under the oracle,
/// whose sweep audits every cached range entry against the segment
/// table. A recycled arena gets back the same segment id, base and
/// frames, so these cells cannot tell a dropped re-sync from a kept one;
/// `hvc-check`'s harness tests remove segments for good and can.
#[test]
fn segment_churn_keeps_rmm_range_entries_live() {
    let exp = Experiment {
        name: "check-rmm-churn".into(),
        workloads: vec!["cow_storm".into(), "fork_storm".into()],
        schemes: vec!["rmm".into()],
        filters: vec!["bloom".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 20_000,
        warm: 5_000,
        mem: 64 << 20,
        cores: 1,
        ifetch: false,
        replay: None,
        obs: false,
    };
    checked(&exp);
    let outcome = run_sweep(&exp, &RunOptions::default()).expect("sweep must run");
    for r in &outcome.results {
        let t = &r.report.translation;
        assert_eq!(t.l1_tlb_lookups, r.report.refs, "{}", r.cell.workload);
        assert!(t.segment_table_accesses > 0, "{}", r.cell.workload);
        assert!(
            r.report.os.shootdowns > 0,
            "{} did not churn",
            r.cell.workload
        );
    }
}

/// Guest churn: `cow_storm` and `fork_storm` in a VM apply their kernel
/// mutations to the guest kernel, and the checked guest cells — a
/// delayed TLB over demand paging, 2D segments over eager backing —
/// stay clean against the nested-baseline oracle. Every OS counter the
/// native run of the same workload moves must move in the guest too — a
/// guest run that never churns reports zero COW breaks and flushed
/// pages.
#[test]
fn guest_churn_is_applied_and_passes_the_oracle() {
    let exp = Experiment {
        name: "check-guest-churn".into(),
        workloads: vec!["cow_storm".into(), "fork_storm".into()],
        schemes: vec!["dtlb:1024".into(), "vm:dtlb:1024".into(), "vm:seg".into()],
        filters: vec!["bloom".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 30_000,
        warm: 5_000,
        mem: 64 << 20,
        cores: 1,
        ifetch: false,
        replay: None,
        obs: false,
    };
    let opts = RunOptions {
        jobs: 2,
        check: true,
    };
    let outcome = run_sweep(&exp, &opts).expect("checked sweep must pass");
    for row in outcome.results.chunks(exp.schemes.len()) {
        let native = &row[0].report.os;
        for r in &row[1..] {
            let guest = &r.report.os;
            for (counter, n, g) in [
                ("cow_breaks", native.cow_breaks, guest.cow_breaks),
                ("flushed_pages", native.flushed_pages, guest.flushed_pages),
                ("shootdowns", native.shootdowns, guest.shootdowns),
                (
                    "filter_insertions",
                    native.filter_insertions,
                    guest.filter_insertions,
                ),
                (
                    "filter_rebuilds",
                    native.filter_rebuilds,
                    guest.filter_rebuilds,
                ),
                (
                    "shootdown_fast_paths",
                    native.shootdown_fast_paths,
                    guest.shootdown_fast_paths,
                ),
            ] {
                assert!(
                    n == 0 || g > 0,
                    "{} / {}: the native run counts {n} {counter}, the guest none",
                    r.cell.workload,
                    r.cell.scheme
                );
            }
        }
    }
}
