//! Golden bitwise-equivalence regression for the per-reference hot path.
//!
//! A representative grid — baseline / hybrid / many-segment / Enigma,
//! native (single- and multi-core, with and without ifetch) plus the
//! virtualized schemes — was serialized with
//! [`hvc::runner::run_report_value`] and committed under
//! `tests/goldens/`. Any restructuring of the cache/TLB storage or the
//! step loop must reproduce that file **byte for byte**: every counter,
//! derived rate, latency percentile and attribution bucket.
//!
//! A second golden pins the kernel-churn paths the hot-path grid never
//! reaches: the five churn workloads (COW fork storms, shm broadcast
//! remaps, worker recycling, KSM dedup, r/w↔r/o shm rotation) under the
//! hybrid delayed-TLB scheme, both filter strategies, on one and two
//! cores. Every unmap, COW break, and synonym-status change flows
//! through the hierarchy's page flushes and shootdown accounting here.
//!
//! A third golden runs `cow_storm` long enough to reach its break-back
//! munmaps, whose flush drains interleave the physically named lines of
//! freed synonym frames with the virtually named lines of the arena.
//!
//! A fourth golden runs GUPS and postgres at 512 MB, large enough that
//! the segment cache and the walk cache's PD level evict, so their
//! replacement victims are pinned too.
//!
//! A fifth golden runs GUPS and astar as the runner's guest-VM cells
//! (`vm:nested`, `vm:dtlb:1024`, `vm:seg`) — the cells a `fig10` sweep
//! runs — so the 2D-segment scheme's segment-cache hits are pinned (the
//! hot-path grid's demand-paged VM never hits a segment).
//!
//! A sixth golden is text: the six paper-result presets (`table1`,
//! `table2`, `fig4`, `fig9`, `fig10`, `energy`) swept at smoke size and
//! printed by their `hvc_runner::tables` reductions, as `hvcsim table`
//! prints them.
//!
//! Regenerate with `HVC_BLESS=1 cargo test --test equivalence_golden`
//! after an *intentional* behavior change — never to paper over an
//! unexplained diff.

use hvc::core::{RunReport, SystemConfig, SystemSim, VirtScheme};
use hvc::os::AllocPolicy;
use hvc::runner::json::Value;
use hvc::runner::{
    presets, run_cell, run_report_value, run_sweep, sweep_report, tables, Cell, Experiment,
    RunOptions,
};
use hvc::virt::Hypervisor;

const GOLDEN_PATH: &str = "tests/goldens/hot_path_equivalence.json";
const CHURN_GOLDEN_PATH: &str = "tests/goldens/churn_equivalence.json";
const UNMAP_GOLDEN_PATH: &str = "tests/goldens/unmap_equivalence.json";
const TRANSLATION_GOLDEN_PATH: &str = "tests/goldens/translation_cache_equivalence.json";
const VIRT_GOLDEN_PATH: &str = "tests/goldens/virt_equivalence.json";
const TABLES_GOLDEN_PATH: &str = "tests/goldens/figure_tables.txt";

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The native single-core grid: both workload classes under all four
/// scheme families, with the observability sections pinned too.
fn native_grid() -> Experiment {
    Experiment {
        name: "golden-native".into(),
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
        refs: 20_000,
        warm: 10_000,
        mem: 64 << 20,
        cores: 1,
        ifetch: false,
        replay: None,
        obs: true,
    }
}

/// The native multi-core grid: coherence + ifetch paths.
fn native_mc_grid() -> Experiment {
    Experiment {
        name: "golden-native-mc".into(),
        workloads: vec!["postgres".into()],
        schemes: vec!["dtlb:1024".into(), "manyseg".into()],
        filters: vec!["bloom".into(), "rlt".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 10_000,
        warm: 5_000,
        mem: 64 << 20,
        cores: 2,
        ifetch: true,
        replay: None,
        obs: true,
    }
}

fn native_cells(exp: &Experiment) -> Vec<Value> {
    exp.cells()
        .iter()
        .map(|cell| {
            let (report, filters) = run_cell(exp, cell, None, false).expect("golden cell must run");
            object(vec![
                ("experiment", Value::Str(exp.name.clone())),
                ("workload", Value::Str(cell.workload.clone())),
                ("scheme", Value::Str(cell.scheme.clone())),
                ("filter", Value::Str(cell.filter.clone())),
                ("seed", Value::UInt(cell.seed)),
                (
                    "stats",
                    run_report_value(&report, &filters, &cell.scheme, exp.obs),
                ),
            ])
        })
        .collect()
}

/// The three virtualized schemes with their report labels.
const VIRT_SCHEMES: [(&str, VirtScheme); 3] = [
    ("nested-baseline", VirtScheme::NestedBaseline),
    (
        "hybrid-delayed-nested:1024",
        VirtScheme::HybridDelayedNested(1024),
    ),
    ("hybrid-nested-segments", VirtScheme::HybridNestedSegments),
];

/// One golden entry for a guest run, under the golden's own scheme
/// label and without filter-occupancy gauges.
fn virt_entry(experiment: &str, workload: &str, label: &str, report: &RunReport) -> Value {
    object(vec![
        ("experiment", Value::Str(experiment.into())),
        ("workload", Value::Str(workload.into())),
        ("scheme", Value::Str(label.into())),
        ("seed", Value::UInt(42)),
        ("stats", run_report_value(report, &[], label, false)),
    ])
}

/// GUPS in a hand-built, demand-paged VM (seed 42, 5k warm-up, 10k
/// measured refs) under every scheme: the 2D-segment scheme then falls
/// back to 2D walks on every segment-cache lookup, which no runner cell
/// does (`vm:seg` backs its guest eagerly).
fn virt_cells() -> Vec<Value> {
    let mem: u64 = 64 << 20;
    let spec = hvc::runner::params::workload_by_name("gups", mem).expect("workload exists");
    let (guest, host) = hvc::runner::params::vm_memory(mem);
    VIRT_SCHEMES
        .iter()
        .map(|&(label, scheme)| {
            let mut hv = Hypervisor::new(host);
            let vm = hv
                .create_vm(guest, AllocPolicy::DemandPaging, false)
                .expect("vm");
            let gk = hv.guest_kernel_mut(vm).expect("guest kernel");
            let mut wl = spec.instantiate(gk, 42).expect("guest workload");
            let mut sim =
                SystemSim::virtualized(hv, vm, SystemConfig::isca2016(), scheme).expect("virt sim");
            sim.warm_up(&mut wl, 5_000);
            let report = sim.run(&mut wl, 10_000);
            virt_entry("golden-virt", "gups", label, &report)
        })
        .collect()
}

/// The runner's guest-VM cells, each at seed 42 with 64 MB, 5k warm-up
/// and 10k measured refs: `vm:seg` runs over eager guest segments and
/// eager machine backing, so its segment-cache and two-step segment
/// paths are pinned as well.
fn virt_fig10_cells() -> Vec<Value> {
    let exp = Experiment {
        name: "golden-virt-fig10".into(),
        workloads: vec!["gups".into(), "astar".into()],
        schemes: vec!["vm:nested".into(), "vm:dtlb:1024".into(), "vm:seg".into()],
        refs: 10_000,
        warm: 5_000,
        mem: 64 << 20,
        obs: false,
        ..native_grid()
    };
    let mut cells = Vec::new();
    for workload in &exp.workloads {
        for (scheme, (label, _)) in exp.schemes.iter().zip(VIRT_SCHEMES) {
            let cell = Cell {
                index: 0,
                workload: workload.clone(),
                scheme: scheme.clone(),
                filter: "bloom".into(),
                base_seed: 42,
                seed: 42,
                llc_bytes: 2 << 20,
            };
            let (report, _) = run_cell(&exp, &cell, None, false).expect("VM cell must run");
            cells.push(virt_entry(&exp.name, workload, label, &report));
        }
    }
    cells
}

/// The churn grid: every kernel-churn workload under `dtlb:1024` with
/// both filter strategies, on `cores` cores.
fn churn_grid(cores: usize) -> Experiment {
    Experiment {
        name: format!("golden-churn-{cores}c"),
        workloads: vec![
            "cow_storm".into(),
            "shm_heavy".into(),
            "fork_storm".into(),
            "ksm_dedup".into(),
            "shm_rotate".into(),
        ],
        schemes: vec!["dtlb:1024".into()],
        filters: vec!["bloom".into(), "rlt".into()],
        seeds: vec![42],
        llc_bytes: vec![2 << 20],
        refs: 12_000,
        warm: 4_000,
        mem: 64 << 20,
        cores,
        ifetch: false,
        replay: None,
        obs: true,
    }
}

/// The unmap grid: `cow_storm` run long enough (24k refs) to reach its
/// break-back munmaps, whose drains interleave synonym-frame and page
/// flushes. The churn grid stops before the first one.
fn unmap_grid(cores: usize) -> Experiment {
    Experiment {
        name: format!("golden-unmap-{cores}c"),
        workloads: vec!["cow_storm".into()],
        refs: 24_000,
        ..churn_grid(cores)
    }
}

/// The translation-cache grid: 512 MB GUPS spans 256 2 MB regions, so
/// the 128-entry segment cache and the 32-entry PD-level walk cache both
/// evict (the 64 MB grids above never fill either).
fn translation_grid() -> Experiment {
    Experiment {
        name: "golden-translation".into(),
        workloads: vec!["gups".into()],
        schemes: vec!["baseline".into(), "dtlb:1024".into(), "manyseg".into()],
        refs: 20_000,
        warm: 5_000,
        mem: 512 << 20,
        ..native_grid()
    }
}

/// `postgres` under the many-segment scheme at the same size: several
/// processes' segments compete for the segment cache.
fn translation_postgres_grid() -> Experiment {
    Experiment {
        name: "golden-translation-postgres".into(),
        workloads: vec!["postgres".into()],
        schemes: vec!["manyseg".into()],
        ..translation_grid()
    }
}

fn document(cells: Vec<Value>) -> Value {
    object(vec![
        ("schema", Value::Str("hvc-golden/1".into())),
        ("cells", Value::Array(cells)),
    ])
}

fn current_document() -> Value {
    let mut cells = native_cells(&native_grid());
    cells.extend(native_cells(&native_mc_grid()));
    cells.extend(virt_cells());
    document(cells)
}

fn churn_document() -> Value {
    let mut cells = native_cells(&churn_grid(1));
    cells.extend(native_cells(&churn_grid(2)));
    document(cells)
}

fn unmap_document() -> Value {
    let mut cells = native_cells(&unmap_grid(1));
    cells.extend(native_cells(&unmap_grid(2)));
    document(cells)
}

fn translation_document() -> Value {
    let mut cells = native_cells(&translation_grid());
    cells.extend(native_cells(&translation_postgres_grid()));
    document(cells)
}

fn virt_document() -> Value {
    document(virt_fig10_cells())
}

/// Every paper-result preset at smoke size — 2k measured references,
/// a warm-up of at most 1k, 64 MB GUPS tables — reduced to its table
/// through the JSON text of its sweep report, as `hvcsim table` reads it.
fn figure_tables() -> String {
    let mut text = String::new();
    for name in [
        "table1", "table2", "fig4", "fig9", "fig10", "energy", "table3",
    ] {
        let mut exp = presets::preset(name).expect("paper preset exists");
        exp.refs = 2_000;
        exp.warm = exp.warm.min(1_000);
        exp.mem = 64 << 20;
        let opts = RunOptions {
            jobs: 2,
            check: false,
        };
        let outcome = run_sweep(&exp, &opts).expect("preset sweep must run");
        let report = hvc::runner::json::parse(&sweep_report(&exp, &opts, &outcome).to_pretty())
            .expect("report parses");
        text += &tables::render(&report).expect("preset has a table");
    }
    text
}

/// Compares `doc` byte for byte with the golden at `path`, or rewrites
/// the golden when `HVC_BLESS` is set.
fn assert_matches_golden(path: &str, doc: &Value) {
    assert_text_matches_golden(path, &doc.to_pretty());
}

/// [`assert_matches_golden`] for text that is already serialized.
fn assert_text_matches_golden(path: &str, text: &str) {
    if std::env::var_os("HVC_BLESS").is_some() {
        std::fs::create_dir_all("tests/goldens").expect("mkdir goldens");
        std::fs::write(path, text).expect("write golden");
        eprintln!("blessed {path} ({} bytes)", text.len());
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run HVC_BLESS=1 cargo test --test equivalence_golden");
    if text != golden {
        // Point at the first divergence instead of dumping both docs.
        let byte = text
            .bytes()
            .zip(golden.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.len().min(golden.len()));
        let line = golden[..byte.min(golden.len())].lines().count();
        let ctx_from = byte.saturating_sub(120);
        panic!(
            "report diverges from {path} at byte {byte} (line ~{line}).\n\
             golden: …{}…\n\
             got:    …{}…\n\
             If the change is intentional, re-bless with HVC_BLESS=1.",
            &golden[ctx_from..(byte + 120).min(golden.len())],
            &text[ctx_from..(byte + 120).min(text.len())],
        );
    }
}

#[test]
fn hot_path_reports_match_the_blessed_goldens() {
    assert_matches_golden(GOLDEN_PATH, &current_document());
}

#[test]
fn churn_reports_match_the_blessed_goldens() {
    assert_matches_golden(CHURN_GOLDEN_PATH, &churn_document());
}

#[test]
fn unmap_reports_match_the_blessed_goldens() {
    assert_matches_golden(UNMAP_GOLDEN_PATH, &unmap_document());
}

#[test]
fn translation_cache_reports_match_the_blessed_goldens() {
    assert_matches_golden(TRANSLATION_GOLDEN_PATH, &translation_document());
}

#[test]
fn virt_reports_match_the_blessed_goldens() {
    assert_matches_golden(VIRT_GOLDEN_PATH, &virt_document());
}

#[test]
fn figure_tables_match_the_blessed_golden() {
    assert_text_matches_golden(TABLES_GOLDEN_PATH, &figure_tables());
}
