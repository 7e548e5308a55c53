//! What the benchmark measures: the metric catalogue this program emits,
//! the workload table, and the loading and validation of `BENCHMARK.json`.
//!
//! `BENCHMARK.json` names the workloads and metrics; this module holds
//! how each workload is configured. A definition that disagrees with the
//! program (an unknown workload, a metric the program does not emit, a
//! missing one, a bad name) is an error reported with exit code 2, never
//! a panic.

use hvc_core::TranslationScheme;
use hvc_os::{AllocPolicy, FilterKind};
use hvc_runner::json::{self, Value};
use hvc_runner::params;
use hvc_workloads::WorkloadSpec;

/// One metric the program emits: its name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as it appears in `BENCHMARK.json` and the output.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("refs_per_s", "refs/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    // Outside-in spans of the traced run.
    m("workloads.next_item_ns", "ns"),
    m("core.sim_ns_per_ref", "ns"),
    m("core.window_us_p50", "us"),
    m("core.window_us_p99", "us"),
    m("core.window_us_max", "us"),
    m("core.step_batch_share", "share"),
    m("core.apply_churn_share", "share"),
    m("core.churn_windows", "count"),
    m("core.sim_ipc", "ipc"),
    m("trace.phase_sum_share", "share"),
    m("trace.overhead", "ratio"),
    m("host.reference_ns_per_op", "ns"),
    // Work done per layer, from the measured report.
    m("filter.lookups", "count"),
    m("filter.candidates", "count"),
    m("filter.false_positives", "count"),
    m("filter.reloads", "count"),
    m("tlb.l1_lookups", "count"),
    m("tlb.l2_lookups", "count"),
    m("tlb.full_misses", "count"),
    m("tlb.synonym_misses", "count"),
    m("tlb.delayed_lookups", "count"),
    m("tlb.delayed_misses", "count"),
    m("tlb.pte_reads", "count"),
    m("segment.sc_lookups", "count"),
    m("segment.index_cache_accesses", "count"),
    m("segment.table_accesses", "count"),
    m("cache.l1d_misses", "count"),
    m("cache.l2_misses", "count"),
    m("cache.llc_misses", "count"),
    m("cache.memory_writebacks", "count"),
    m("mem.dram_reads", "count"),
    m("mem.dram_writes", "count"),
    m("mem.row_hit_rate", "share"),
    m("os.minor_faults", "count"),
    m("os.flushed_pages", "count"),
    m("os.shootdowns", "count"),
    m("os.shootdown_ipis", "count"),
    m("os.cow_breaks", "count"),
    m("os.filter_insertions", "count"),
    m("os.filter_rebuilds", "count"),
    // Host cost of single operations.
    m("probe.filter.bloom_is_candidate_ns", "ns"),
    m("probe.filter.rlt_insert_remove_ns", "ns"),
    m("probe.tlb.lookup_hit_ns", "ns"),
    m("probe.cache.l1_hit_ns", "ns"),
    m("probe.cache.llc_miss_fill_ns", "ns"),
    m("probe.mem.dram_access_ns", "ns"),
    m("probe.segment.index_tree_lookup_ns", "ns"),
    m("probe.cache.flush_virt_page_ns", "ns"),
    m("probe.cache.flush_phys_frame_ns", "ns"),
    m("probe.cache.downgrade_ro_ns", "ns"),
    m("probe.cache.flush_virt_page_2c_ns", "ns"),
    m("probe.os.munmap_mmap_2m_ns", "ns"),
    m("probe.os.touch_fault_ns", "ns"),
];

/// How one named workload is configured. Strings are resolved (and
/// rejected when unknown) by [`WorkloadDef::resolve`].
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Workload profile (`hvc_runner::params::workload_by_name`).
    pub profile: &'static str,
    /// GUPS table size in bytes (ignored by the other profiles).
    pub mem: u64,
    /// Translation scheme (`hvc_runner::params::parse_scheme`).
    pub scheme: &'static str,
    /// Synonym-filter strategy (`bloom` / `rlt`).
    pub filter: &'static str,
    /// Simulated cores; more than one runs on the multi-core driver.
    pub cores: usize,
    /// Measured references per run.
    pub refs: usize,
    /// Warm-up references per run (part of set-up).
    pub warm: usize,
    /// Expected report digest per seed. Seeds not listed are checked
    /// only for agreement between the runs of one process.
    pub digests: &'static [(u64, u64)],
}

/// Every workload the benchmark knows. Sizes keep one run between one
/// and three host seconds, so several fresh runs fit in a measurement.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "gups-baseline",
        profile: "gups",
        mem: 512 << 20,
        scheme: "baseline",
        filter: "bloom",
        cores: 1,
        refs: 1_500_000,
        warm: 500_000,
        digests: &[(42, 0x0eee_a053_2f83_6380), (7, 0x85c2_9264_724e_5b13)],
    },
    WorkloadDef {
        name: "gups-dtlb",
        profile: "gups",
        mem: 512 << 20,
        scheme: "dtlb:1024",
        filter: "bloom",
        cores: 1,
        refs: 1_500_000,
        warm: 500_000,
        digests: &[(42, 0x1d25_1d47_b20f_5d61), (7, 0x8290_e36d_444e_ed21)],
    },
    WorkloadDef {
        name: "gups-manyseg",
        profile: "gups",
        mem: 512 << 20,
        scheme: "manyseg",
        filter: "bloom",
        cores: 1,
        refs: 1_500_000,
        warm: 500_000,
        digests: &[(42, 0x4649_e563_6e68_6b9d), (7, 0x119a_7ada_e63c_784e)],
    },
    WorkloadDef {
        name: "postgres-dtlb",
        profile: "postgres",
        mem: 512 << 20,
        scheme: "dtlb:1024",
        filter: "bloom",
        cores: 1,
        refs: 1_500_000,
        warm: 500_000,
        digests: &[(42, 0x38f4_7371_8ea7_db47), (7, 0xa60e_0570_0ec0_6c95)],
    },
    WorkloadDef {
        name: "cow_storm-rlt",
        profile: "cow_storm",
        mem: 512 << 20,
        scheme: "dtlb:1024",
        filter: "rlt",
        cores: 1,
        refs: 25_000,
        warm: 20_000,
        digests: &[(42, 0xaa27_a3ec_b3b6_cf9a), (7, 0xf306_3306_e126_732c)],
    },
    WorkloadDef {
        name: "shm_heavy-2c",
        profile: "shm_heavy",
        mem: 512 << 20,
        scheme: "dtlb:1024",
        filter: "bloom",
        cores: 2,
        refs: 16_000,
        warm: 8_000,
        digests: &[(42, 0xb13b_88b3_d6ac_9e60), (7, 0x9388_8d19_a1f2_8c1e)],
    },
];

/// A workload definition resolved into simulator types.
pub struct Resolved {
    /// The definition it came from.
    pub def: WorkloadDef,
    /// The workload generator's profile.
    pub spec: WorkloadSpec,
    /// Translation scheme.
    pub scheme: TranslationScheme,
    /// Allocation policy the scheme needs.
    pub policy: AllocPolicy,
    /// Synonym-filter strategy.
    pub filter: FilterKind,
}

impl WorkloadDef {
    /// Looks a workload up by its `BENCHMARK.json` name.
    pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Resolves the definition's strings into simulator types.
    pub fn resolve(&self) -> Result<Resolved, String> {
        let spec = params::workload_by_name(self.profile, self.mem)
            .ok_or_else(|| format!("{}: unknown workload profile '{}'", self.name, self.profile))?;
        let (scheme, policy) = params::parse_scheme(self.scheme)
            .ok_or_else(|| format!("{}: unknown scheme '{}'", self.name, self.scheme))?;
        let filter = params::parse_filter(self.filter)
            .ok_or_else(|| format!("{}: unknown filter '{}'", self.name, self.filter))?;
        if !self.cores.is_power_of_two() || self.cores > 128 {
            return Err(format!(
                "{}: cores must be a power of two up to 128, got {}",
                self.name, self.cores
            ));
        }
        if self.refs == 0 {
            return Err(format!("{}: refs must be positive", self.name));
        }
        Ok(Resolved {
            def: *self,
            spec,
            scheme,
            policy,
            filter,
        })
    }

    /// The expected digest for `seed`, if the table pins one.
    pub fn expected_digest(&self, seed: u64) -> Option<u64> {
        self.digests
            .iter()
            .find(|&&(s, _)| s == seed)
            .map(|&(_, d)| d)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

/// A validated `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds, in file order.
    pub end_to_end: Vec<Bound>,
    /// Per-layer metric names, in file order.
    pub per_layer: Vec<String>,
}

/// Largest `BENCHMARK.json` accepted (bytes).
const MAX_FILE_BYTES: usize = 64 << 10;
/// Deepest bracket nesting accepted before parsing (the parser recurses).
const MAX_DEPTH: usize = 32;
const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;
const MAX_BOUND: f64 = 0.25;

/// Reads and validates `BENCHMARK.json` at `path`.
pub fn load(path: &std::path::Path) -> Result<Benchmark, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses and validates the text of a `BENCHMARK.json`.
pub fn parse(text: &str) -> Result<Benchmark, String> {
    let doc = parse_json(text, MAX_FILE_BYTES)?;
    let Value::Object(fields) = &doc else {
        return Err("top level must be an object".into());
    };
    const KEYS: [&str; 6] = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    for (key, _) in fields {
        if !KEYS.contains(&key.as_str()) {
            return Err(format!("unknown key '{key}'"));
        }
    }
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing key '{key}'"));
    let list = |key: &str, max: usize| -> Result<&[Value], String> {
        let items = field(key)?
            .as_array()
            .ok_or_else(|| format!("'{key}' must be an array"))?;
        if items.is_empty() || items.len() > max {
            return Err(format!("'{key}' must hold 1 to {max} entries"));
        }
        Ok(items)
    };
    let text_field = |entry: &Value, key: &str, what: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{what} needs a string '{key}'"))
    };

    let run_seconds = field("run_seconds")?
        .as_u64()
        .filter(|s| (1..=60).contains(s))
        .ok_or("'run_seconds' must be a whole number from 1 to 60")?;

    let mut names = Vec::new();
    let mut workloads = Vec::new();
    for entry in list("workloads", MAX_WORKLOADS)? {
        let name = text_field(entry, "name", "a workload")?;
        text_field(entry, "why", "a workload")?;
        check_name(&name, &mut names)?;
        let def =
            WorkloadDef::by_name(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
        def.resolve()?;
        workloads.push(name);
    }

    let (mut end_to_end, mut end_to_end_units) = (Vec::new(), Vec::new());
    for entry in list("end_to_end", MAX_END_TO_END)? {
        let name = text_field(entry, "name", "an end-to-end metric")?;
        check_name(&name, &mut names)?;
        let better = match text_field(entry, "better", &name)?.as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            other => {
                return Err(format!(
                    "{name}: 'better' must be higher or lower, not '{other}'"
                ))
            }
        };
        let bound = entry
            .get("bound")
            .and_then(Value::as_f64)
            .filter(|b| *b > 0.0 && *b <= MAX_BOUND)
            .ok_or_else(|| format!("{name}: 'bound' must be in (0, {MAX_BOUND}]"))?;
        end_to_end_units.push((name.clone(), text_field(entry, "unit", &name)?));
        end_to_end.push(Bound {
            name,
            better,
            bound,
        });
    }

    let mut per_layer = Vec::new();
    for entry in list("per_layer", MAX_PER_LAYER)? {
        let name = text_field(entry, "name", "a per-layer metric")?;
        check_name(&name, &mut names)?;
        text_field(entry, "better", &name)?;
        let unit = text_field(entry, "unit", &name)?;
        per_layer.push((name, unit));
    }

    check_catalogue("end_to_end", &end_to_end_units, END_TO_END)?;
    check_catalogue("per_layer", &per_layer, PER_LAYER)?;

    Ok(Benchmark {
        run_seconds,
        workloads,
        end_to_end,
        per_layer: per_layer.into_iter().map(|(name, _)| name).collect(),
    })
}

/// Parses JSON read from outside the program, bounding its size and
/// nesting first.
pub fn parse_json(text: &str, max_bytes: usize) -> Result<Value, String> {
    if text.len() > max_bytes {
        return Err(format!("larger than {max_bytes} bytes"));
    }
    check_depth(text)?;
    json::parse(text)
}

/// Rejects input nested deeper than [`MAX_DEPTH`] before the recursive
/// parser sees it.
fn check_depth(text: &str) -> Result<(), String> {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for b in text.bytes() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                if depth > MAX_DEPTH {
                    return Err(format!("nested deeper than {MAX_DEPTH} levels"));
                }
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    Ok(())
}

/// Checks a workload or metric name: starts with a letter or digit, at
/// most 64 of `[A-Za-z0-9_.-]`, used once in the whole file.
fn check_name(name: &str, seen: &mut Vec<String>) -> Result<(), String> {
    let valid = !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if !valid {
        return Err(format!("invalid name '{name}'"));
    }
    if seen.iter().any(|s| s == name) {
        return Err(format!("name '{name}' is used twice"));
    }
    seen.push(name.to_string());
    Ok(())
}

/// Checks that the declared metrics are exactly the ones the program
/// emits, with the same units.
fn check_catalogue(
    section: &str,
    declared: &[(String, String)],
    emitted: &[Metric],
) -> Result<(), String> {
    for (name, unit) in declared {
        match emitted.iter().find(|m| m.name == name) {
            None => {
                return Err(format!(
                    "{section}: '{name}' is not a metric this program emits"
                ))
            }
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "{section}: '{name}' has unit '{}', not '{unit}'",
                    m.unit
                ))
            }
            Some(_) => {}
        }
    }
    if let Some(missing) = emitted
        .iter()
        .find(|m| !declared.iter().any(|(name, _)| name == m.name))
    {
        return Err(format!(
            "{section}: '{}' is emitted but not declared",
            missing.name
        ));
    }
    Ok(())
}
