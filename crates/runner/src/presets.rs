//! Named experiment presets for the paper's figures and tables.
//!
//! Each preset fixes the grid axes; reference counts default to a size
//! that finishes in minutes on one machine and can be raised from the
//! CLI (`--refs`/`--warm` override the preset). The native-execution
//! figures are covered. Figure 10 (virtualized speedup) has no preset
//! yet: a guest VM runs on the same `SystemSim` engine
//! (`SystemSim::virtualized`), but the sweep executor does not build
//! VMs, so `fig10_virt_perf` in `hvc-bench` still drives it.

use crate::grid::Experiment;
use crate::params::{MC_WORKLOADS, STRESS_WORKLOADS, SYNONYM_WORKLOADS, WORKLOAD_NAMES};

/// `(name, summary)` for every preset, in display order.
pub const PRESET_NAMES: &[(&str, &str)] = &[
    (
        "smoke",
        "2-cell sanity sweep (gups × baseline/manyseg, tiny)",
    ),
    ("fig4", "delayed-TLB size sweep, 1K-32K entries"),
    (
        "fig9",
        "speedup of hybrid schemes over baseline, big-memory apps",
    ),
    ("fig11", "synonym apps under the full hybrid scheme"),
    ("table1", "synonym access behaviour (filter statistics)"),
    (
        "table2",
        "TLB access / miss reduction vs baseline, all apps",
    ),
    ("table3", "translation energy comparison"),
    (
        "fork-storm",
        "4-core prefork worker churn (directed TLB shootdowns)",
    ),
    (
        "shm-heavy",
        "4-core shared-pool remapping (broadcast TLB shootdowns)",
    ),
    ("mc", "both multi-core churn profiles on 4 cores"),
    (
        "ksm-dedup",
        "KSM-style dedup merge/break churn, bloom vs rlt filters",
    ),
    (
        "cow-storm",
        "COW fork-storm share/break churn, bloom vs rlt filters",
    ),
    (
        "shm-rotate",
        "reader/writer shm rotation churn, bloom vs rlt filters",
    ),
    (
        "filter-compare",
        "all three synonym-stress profiles × bloom/rlt filter grid",
    ),
    (
        "stress-smoke",
        "tiny synonym-stress grid at both filters (CI oracle gate)",
    ),
];

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The sixteen big-memory applications (Figure 9's x-axis).
fn big_memory() -> Vec<String> {
    strings(&WORKLOAD_NAMES[..16])
}

/// Resolves a preset by name.
pub fn preset(name: &str) -> Option<Experiment> {
    let base = Experiment {
        name: name.to_string(),
        ..Default::default()
    };
    Some(match name {
        // A deliberately tiny grid for CI and integration tests.
        "smoke" => Experiment {
            workloads: strings(&["gups"]),
            schemes: strings(&["baseline", "manyseg"]),
            refs: 20_000,
            warm: 5_000,
            mem: 16 << 20,
            ..base
        },
        // Figure 4: total TLB misses as the delayed TLB grows. The page
        // -granularity hybrid scheme with 1K-32K entry delayed TLBs.
        "fig4" => Experiment {
            workloads: strings(&["gups", "mcf", "milc", "canneal", "graph500"]),
            schemes: strings(&[
                "dtlb:1024",
                "dtlb:2048",
                "dtlb:4096",
                "dtlb:8192",
                "dtlb:16384",
                "dtlb:32768",
            ]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Figure 9: execution-time comparison of baseline, the delayed
        // TLB hybrid, many-segment translation, and the ideal bound.
        "fig9" => Experiment {
            workloads: big_memory(),
            schemes: strings(&["baseline", "dtlb:4096", "manyseg", "ideal"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Figure 11: the synonym-heavy applications under the full
        // scheme (synonym filter + many-segment delayed translation).
        "fig11" => Experiment {
            workloads: strings(SYNONYM_WORKLOADS),
            schemes: strings(&["baseline", "manyseg", "ideal"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Table I: synonym candidate / false-positive rates, observable
        // in the `translation` counters of a hybrid run.
        "table1" => Experiment {
            workloads: strings(SYNONYM_WORKLOADS),
            schemes: strings(&["manyseg"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Table II: front-TLB access and total-miss reduction over the
        // baseline for every application.
        "table2" => Experiment {
            workloads: strings(WORKLOAD_NAMES),
            schemes: strings(&["baseline", "manyseg"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Table III: dynamic translation energy for the competing
        // schemes (the report's `energy_uj` field).
        "table3" => Experiment {
            workloads: big_memory(),
            schemes: strings(&["baseline", "dtlb:4096", "manyseg"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Multi-core translation coherence: an apache-like prefork
        // master recycling workers on other cores — every recycle is a
        // directed shootdown from the master's core.
        "fork-storm" => Experiment {
            workloads: strings(&["fork_storm"]),
            schemes: strings(&["baseline", "dtlb:4096"]),
            cores: 4,
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Multi-core translation coherence: postgres-like shared-pool
        // recycling that remaps the pool in every attached process at
        // once — each event is a broadcast shootdown round.
        "shm-heavy" => Experiment {
            workloads: strings(&["shm_heavy"]),
            schemes: strings(&["baseline", "dtlb:4096"]),
            cores: 4,
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Both churn profiles on one 4-core grid.
        "mc" => Experiment {
            workloads: strings(MC_WORKLOADS),
            schemes: strings(&["baseline", "dtlb:4096"]),
            cores: 4,
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // Synonym-stress scenario presets: each churn profile under the
        // full hybrid scheme at both filter strategies, so the
        // occupancy / false-positive columns compare directly.
        "ksm-dedup" => Experiment {
            workloads: strings(&["ksm_dedup"]),
            schemes: strings(&["manyseg"]),
            filters: strings(&["bloom", "rlt"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        "cow-storm" => Experiment {
            workloads: strings(&["cow_storm"]),
            schemes: strings(&["manyseg"]),
            filters: strings(&["bloom", "rlt"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        "shm-rotate" => Experiment {
            workloads: strings(&["shm_rotate"]),
            schemes: strings(&["manyseg"]),
            filters: strings(&["bloom", "rlt"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // The bloom-vs-rlt comparison grid over every stress profile.
        "filter-compare" => Experiment {
            workloads: strings(STRESS_WORKLOADS),
            schemes: strings(&["manyseg"]),
            filters: strings(&["bloom", "rlt"]),
            refs: 200_000,
            warm: 100_000,
            ..base
        },
        // The same grid shrunk for CI: small enough that the `--check`
        // differential oracle gates every stress profile at both filter
        // strategies in seconds.
        "stress-smoke" => Experiment {
            workloads: strings(STRESS_WORKLOADS),
            schemes: strings(&["manyseg"]),
            filters: strings(&["bloom", "rlt"]),
            refs: 20_000,
            warm: 5_000,
            mem: 16 << 20,
            ..base
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_resolves_and_validates() {
        for (name, _) in PRESET_NAMES {
            let exp = preset(name).unwrap_or_else(|| panic!("missing preset {name}"));
            exp.validate()
                .unwrap_or_else(|e| panic!("preset {name}: {e}"));
            assert_eq!(exp.name, *name);
            assert!(!exp.cells().is_empty());
        }
        assert!(preset("fig10").is_none());
    }

    #[test]
    fn smoke_is_two_cells() {
        assert_eq!(preset("smoke").unwrap().cells().len(), 2);
    }

    #[test]
    fn stress_presets_cover_both_filter_strategies() {
        for name in ["ksm-dedup", "cow-storm", "shm-rotate", "filter-compare"] {
            let exp = preset(name).unwrap();
            assert_eq!(exp.filters, vec!["bloom", "rlt"], "{name}");
        }
        assert_eq!(preset("filter-compare").unwrap().cells().len(), 6);
        assert_eq!(preset("stress-smoke").unwrap().cells().len(), 6);
    }

    #[test]
    fn fig9_covers_the_four_schemes() {
        let exp = preset("fig9").unwrap();
        assert_eq!(exp.schemes.len(), 4);
        assert_eq!(exp.workloads.len(), 16);
        assert_eq!(exp.cells().len(), 64);
    }
}
