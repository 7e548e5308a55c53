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
