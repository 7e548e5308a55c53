//! Oracle coverage for the restructured hot path: the same
//! workload × scheme matrix as the golden-equivalence grid, swept with
//! `RunOptions::check` so every cell is re-run through the `hvc-check`
//! differential oracle (scheme under test vs. a physically-addressed
//! reference machine in lockstep, plus whole-machine invariant sweeps).
//!
//! The golden test pins *reports*; this one proves the flat cache/TLB
//! storage preserves *behavior* under the oracle's invariants. Reference
//! counts are smaller than the golden grid's — the oracle runs every
//! cell twice and single-steps the checked pass — but the matrix is
//! identical.

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
        schemes: vec!["dtlb:1024".into(), "manyseg".into()],
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

/// Both churn profiles on 4 cores: the oracle applies the same address-
/// space mutations to the scheme under test and the reference machine
/// in lockstep, so a translation corrupted by a missed (or misdirected)
/// TLB shootdown surfaces as a differential violation.
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
