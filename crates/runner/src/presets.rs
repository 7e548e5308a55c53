//! Named experiment presets.
//!
//! Each paper result is one preset whose table [`crate::tables`] prints
//! from the sweep report (`hvcsim table <report.json>`): `table1`,
//! `table2`, `fig4`, `fig9`, `fig10` (guest VMs) and `energy`, with the
//! grids EXPERIMENTS.md reports: a warm-up of half the measured
//! references (none for Table I). Cells run with the runner's derived
//! seeds, so the schemes of one table row see decorrelated streams.
//! Grid flags (`--refs`, `--warm`, …) override a preset. The other
//! presets are CI grids and studies beyond the paper.

use crate::grid::Experiment;
use crate::params::{MC_WORKLOADS, STRESS_WORKLOADS, SYNONYM_WORKLOADS};

/// `(name, summary)` for every preset, in display order.
pub const PRESET_NAMES: &[(&str, &str)] = &[
    (
        "smoke",
        "2-cell sanity sweep (gups × baseline/manyseg, tiny)",
    ),
    ("table1", "Table I: r/w shared area and accesses"),
    ("table2", "Table II: synonym filter vs baseline TLBs"),
    ("fig4", "Figure 4: delayed-TLB MPKI, 1K-64K entries"),
    ("fig9", "Figure 9: native speedup over the baseline"),
    ("fig10", "Figure 10: guest-VM speedup over nested"),
    ("energy", "translation energy, baseline vs hybrid schemes"),
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
        "tiny synonym-stress grid at both filter strategies (CI oracle gate)",
    ),
];

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
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
        // Table I: shared area (from the workload's layout) and the
        // share of accesses to r/w-shared regions, with no warm-up.
        "table1" => Experiment {
            workloads: strings(&[SYNONYM_WORKLOADS, &["mcf"]].concat()),
            schemes: strings(&["baseline"]),
            refs: 300_000,
            warm: 0,
            ..base
        },
        // Table II: the synonym filter and synonym TLB against the
        // baseline's two-level TLB, behind an 8 MB LLC (Section III-C).
        "table2" => Experiment {
            workloads: strings(SYNONYM_WORKLOADS),
            schemes: strings(&["baseline", "dtlb:1024"]),
            llc_bytes: vec![8 << 20],
            refs: 500_000,
            warm: 250_000,
            ..base
        },
        // Figure 4: delayed-TLB misses as the delayed TLB grows.
        "fig4" => Experiment {
            workloads: strings(&[
                "gups",
                "milc",
                "mcf",
                "xalancbmk",
                "tigr",
                "omnetpp",
                "soplex",
            ]),
            // 1K to 64K entries in powers of two.
            schemes: (10..=16).map(|k| format!("dtlb:{}", 1 << k)).collect(),
            mem: 1 << 30,
            refs: 1_000_000,
            warm: 500_000,
            ..base
        },
        // Figure 9: native performance of the delayed-TLB, Enigma and
        // many-segment hybrids against the baseline and the ideal bound.
        "fig9" => Experiment {
            workloads: strings(&[
                "gups",
                "mcf",
                "milc",
                "tigr",
                "xalancbmk",
                "omnetpp",
                "soplex",
                "canneal",
                "memcached",
                "cg",
                "graph500",
                "astar",
                "stream",
            ]),
            schemes: strings(&[
                "baseline",
                "dtlb:1024",
                "dtlb:4096",
                "dtlb:32768",
                "enigma:4096",
                "manyseg-nosc",
                "manyseg",
                "ideal",
            ]),
            mem: 1 << 30,
            refs: 1_000_000,
            warm: 500_000,
            ..base
        },
        // Figure 10: guest VMs under the nested translation-cache
        // baseline, a delayed TLB over the 2D walker, and 2D segments.
        "fig10" => Experiment {
            workloads: strings(&["gups", "mcf", "omnetpp", "xalancbmk", "astar", "cg"]),
            schemes: strings(&["vm:nested", "vm:dtlb:4096", "vm:seg"]),
            mem: 256 << 20,
            refs: 500_000,
            warm: 250_000,
            ..base
        },
        // Translation energy (the report's `energy_uj`): the baseline
        // two-level TLB against the two hybrid schemes.
        "energy" => Experiment {
            workloads: strings(&[SYNONYM_WORKLOADS, &["mcf", "omnetpp", "astar", "gups"]].concat()),
            schemes: strings(&["baseline", "dtlb:1024", "manyseg"]),
            mem: 256 << 20,
            refs: 500_000,
            warm: 250_000,
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
        // Retired names: `table3` is kept free for Table III, and
        // `fig11` matched no paper figure.
        assert!(preset("table3").is_none());
        assert!(preset("fig11").is_none());
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
    fn fig9_covers_thirteen_apps_under_eight_schemes() {
        let exp = preset("fig9").unwrap();
        assert_eq!(exp.schemes.len(), 8);
        assert_eq!(exp.schemes[0], "baseline");
        assert_eq!(exp.workloads.len(), 13);
        assert_eq!(exp.cells().len(), 104);
        assert_eq!((exp.mem, exp.warm), (1 << 30, exp.refs / 2));
    }

    #[test]
    fn fig10_runs_six_guests_under_the_three_vm_schemes() {
        let exp = preset("fig10").unwrap();
        assert_eq!(exp.schemes, vec!["vm:nested", "vm:dtlb:4096", "vm:seg"]);
        assert_eq!(exp.workloads.len(), 6);
        assert_eq!(exp.cells().len(), 18);
        assert_eq!((exp.mem, exp.cores), (256 << 20, 1));
        assert_eq!((exp.refs, exp.warm), (500_000, 250_000));
        for s in &exp.schemes {
            assert!(crate::params::parse_vm_scheme(s).is_some(), "{s}");
        }
    }

    #[test]
    fn energy_compares_nine_apps_against_the_baseline() {
        let exp = preset("energy").unwrap();
        assert_eq!(exp.schemes, vec!["baseline", "dtlb:1024", "manyseg"]);
        assert_eq!(exp.workloads.len(), 9);
        assert_eq!(exp.workloads.last().map(String::as_str), Some("gups"));
        assert_eq!((exp.mem, exp.refs, exp.warm), (256 << 20, 500_000, 250_000));
    }

    #[test]
    fn table_presets_keep_their_harness_configuration() {
        let t1 = preset("table1").unwrap();
        assert_eq!((t1.refs, t1.warm), (300_000, 0));
        assert_eq!(t1.workloads.len(), 6);
        let t2 = preset("table2").unwrap();
        assert_eq!(t2.llc_bytes, vec![8 << 20]);
        assert_eq!(t2.schemes, vec!["baseline", "dtlb:1024"]);
        let f4 = preset("fig4").unwrap();
        assert_eq!(f4.cells().len(), 49);
        assert_eq!(f4.mem, 1 << 30);
    }
}
