//! Experiment grids and their cells.

use crate::params;

/// A full experiment: the cartesian product of workloads × schemes ×
/// synonym-filter strategies × base seeds × LLC capacities, with shared
/// reference counts and machine configuration.
///
/// Cells are enumerated in a fixed row-major order (workload outermost,
/// LLC innermost), so a cell's index is stable across runs and across
/// `--jobs` values; the per-cell RNG seed derives from the base seed and
/// that index (see [`Cell::derive_seed`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Experiment {
    /// Grid name (preset name, or `custom` for ad-hoc grids).
    pub name: String,
    /// Workload axis (profile names, see `params::workload_by_name`).
    pub workloads: Vec<String>,
    /// Scheme axis: native strings accepted by `params::parse_scheme`,
    /// or guest-VM strings accepted by `params::parse_vm_scheme` (such a
    /// cell runs its workload in one VM, on one core).
    pub schemes: Vec<String>,
    /// Synonym-filter strategy axis (strings accepted by
    /// `params::parse_filter`: `bloom` or `rlt`).
    pub filters: Vec<String>,
    /// Base-seed axis.
    pub seeds: Vec<u64>,
    /// LLC-capacity axis in bytes.
    pub llc_bytes: Vec<u64>,
    /// Measured references per cell.
    pub refs: usize,
    /// Warm-up references per cell (unmeasured).
    pub warm: usize,
    /// GUPS table size in bytes.
    pub mem: u64,
    /// Cores simulated per cell.
    pub cores: usize,
    /// Model the instruction-fetch stream.
    pub ifetch: bool,
    /// Replay this HVCT trace instead of generating references (the
    /// workload still provides the memory layout and MLP hint).
    pub replay: Option<String>,
    /// Include the observability sections (latency percentiles, cycle
    /// attribution) in the report. Collection is always on — this only
    /// widens the JSON, so turning it off reproduces the lean reports.
    pub obs: bool,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            name: "custom".into(),
            workloads: vec!["gups".into()],
            schemes: vec!["manyseg".into()],
            filters: vec!["bloom".into()],
            seeds: vec![42],
            llc_bytes: vec![2 << 20],
            refs: 500_000,
            warm: 250_000,
            mem: 512 << 20,
            cores: 1,
            ifetch: false,
            replay: None,
            obs: false,
        }
    }
}

/// One point of the grid, fully determined by the experiment and its
/// index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Position in the fixed enumeration order.
    pub index: usize,
    /// Workload profile name.
    pub workload: String,
    /// Scheme string.
    pub scheme: String,
    /// Synonym-filter strategy name (`bloom` or `rlt`).
    pub filter: String,
    /// The base seed this cell came from.
    pub base_seed: u64,
    /// The derived per-cell RNG seed actually used.
    pub seed: u64,
    /// LLC capacity in bytes.
    pub llc_bytes: u64,
}

impl Cell {
    /// Derives the per-cell seed from `(base seed, cell index)` with a
    /// SplitMix64 round, so neighbouring cells get decorrelated streams
    /// while the mapping stays a pure function of the grid position.
    pub fn derive_seed(base_seed: u64, index: usize) -> u64 {
        let mut z = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Experiment {
    /// Checks every axis value; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty()
            || self.schemes.is_empty()
            || self.filters.is_empty()
            || self.seeds.is_empty()
            || self.llc_bytes.is_empty()
        {
            return Err("experiment has an empty axis".into());
        }
        if self.refs == 0 {
            return Err("refs must be positive".into());
        }
        if self.cores == 0 {
            return Err("cores must be positive".into());
        }
        if !self.cores.is_power_of_two() || self.cores > hvc_cache::MAX_CORES {
            return Err(format!(
                "cores must be a power of two (the shared-LLC geometry splits \
                 sets per core) and at most {} (the LLC sharer bitmap's width), got {}",
                hvc_cache::MAX_CORES,
                self.cores
            ));
        }
        for w in &self.workloads {
            if params::workload_by_name(w, self.mem).is_none() {
                return Err(format!("unknown workload '{w}'"));
            }
        }
        for s in &self.schemes {
            if params::parse_vm_scheme(s).is_some() {
                if self.cores > 1 {
                    return Err(format!(
                        "guest-VM scheme '{s}' runs on one core, got cores = {}",
                        self.cores
                    ));
                }
                if self.replay.is_some() {
                    return Err(format!("guest-VM scheme '{s}' cannot replay a trace"));
                }
            } else if params::parse_scheme(s).is_none() {
                return Err(format!("unknown scheme '{s}'"));
            }
        }
        for f in &self.filters {
            if params::parse_filter(f).is_none() {
                return Err(format!("unknown filter strategy '{f}' (use bloom or rlt)"));
            }
        }
        for &llc in &self.llc_bytes {
            if !params::valid_llc(llc) {
                return Err(format!(
                    "LLC capacity {llc} is not a valid 16-way geometry (use a power of two ≥ 64K)"
                ));
            }
        }
        Ok(())
    }

    /// Enumerates the grid in its fixed order: workload, then scheme,
    /// then filter strategy, then base seed, then LLC capacity.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(
            self.workloads.len()
                * self.schemes.len()
                * self.filters.len()
                * self.seeds.len()
                * self.llc_bytes.len(),
        );
        for w in &self.workloads {
            for s in &self.schemes {
                for f in &self.filters {
                    for &seed in &self.seeds {
                        for &llc in &self.llc_bytes {
                            let index = out.len();
                            out.push(Cell {
                                index,
                                workload: w.clone(),
                                scheme: s.clone(),
                                filter: f.clone(),
                                base_seed: seed,
                                seed: Cell::derive_seed(seed, index),
                                llc_bytes: llc,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_row_major_and_indexed() {
        let exp = Experiment {
            workloads: vec!["gups".into(), "mcf".into()],
            schemes: vec!["baseline".into(), "ideal".into()],
            seeds: vec![1, 2],
            llc_bytes: vec![2 << 20],
            ..Default::default()
        };
        let cells = exp.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].workload, "gups");
        assert_eq!(cells[0].scheme, "baseline");
        assert_eq!(cells[0].filter, "bloom");
        assert_eq!(cells[0].base_seed, 1);
        assert_eq!(cells[3].scheme, "ideal");
        assert_eq!(cells[4].workload, "mcf");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.seed, Cell::derive_seed(c.base_seed, i));
        }
    }

    #[test]
    fn filter_axis_sits_between_scheme_and_seed() {
        let exp = Experiment {
            workloads: vec!["gups".into()],
            schemes: vec!["baseline".into(), "manyseg".into()],
            filters: vec!["bloom".into(), "rlt".into()],
            seeds: vec![1, 2],
            llc_bytes: vec![2 << 20],
            ..Default::default()
        };
        let cells = exp.cells();
        assert_eq!(cells.len(), 8);
        // Row-major: seeds vary fastest, then filter, then scheme.
        assert_eq!(cells[0].filter, "bloom");
        assert_eq!(cells[1].filter, "bloom");
        assert_eq!(cells[2].filter, "rlt");
        assert_eq!(cells[3].filter, "rlt");
        assert_eq!(cells[3].scheme, "baseline");
        assert_eq!(cells[4].scheme, "manyseg");
        assert_eq!(cells[4].filter, "bloom");
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let a = Cell::derive_seed(42, 0);
        let b = Cell::derive_seed(42, 1);
        let c = Cell::derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Pure function of (base, index).
        assert_eq!(a, Cell::derive_seed(42, 0));
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let ok = Experiment::default();
        assert!(ok.validate().is_ok());
        let bad = Experiment {
            workloads: vec!["nope".into()],
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("workload"));
        let bad = Experiment {
            schemes: vec!["warp-drive".into()],
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("scheme"));
        let bad = Experiment {
            filters: vec!["cuckoo".into()],
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("filter"));
        let bad = Experiment {
            llc_bytes: vec![3 << 20],
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("LLC"));
        let mut bad = Experiment::default();
        bad.seeds.clear();
        assert!(bad.validate().unwrap_err().contains("empty axis"));
    }

    #[test]
    fn validation_rejects_a_vm_scheme_on_two_cores() {
        let vm = Experiment {
            schemes: vec!["baseline".into(), "vm:dtlb:1024".into()],
            ..Default::default()
        };
        assert!(vm.validate().is_ok());
        let bad = Experiment { cores: 2, ..vm };
        let err = bad.validate().unwrap_err();
        assert!(
            err.contains("vm:dtlb:1024") && err.contains("one core"),
            "{err}"
        );
    }

    #[test]
    fn validation_rejects_a_vm_scheme_with_replay() {
        let bad = Experiment {
            schemes: vec!["vm:seg".into()],
            replay: Some("trace.hvct".into()),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("vm:seg") && err.contains("replay"), "{err}");
    }

    #[test]
    fn validation_caps_cores_at_the_sharer_bitmap() {
        let ok = Experiment {
            cores: 32,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        let bad = Experiment {
            cores: 64,
            ..Default::default()
        };
        assert!(bad.validate().unwrap_err().contains("at most 32"));
    }
}
