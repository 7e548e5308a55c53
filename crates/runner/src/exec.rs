//! The parallel sweep executor.
//!
//! Cells are pushed onto a shared queue and claimed by `--jobs` worker
//! threads (work stealing degenerates to work sharing with a single
//! global deque, which is all a sweep of independent, similarly-sized
//! cells needs). Every cell is one continuous run — one warm-up, then
//! one measured window — on its own [`SystemSim`] (native, or one guest
//! VM for a `vm:` scheme; [`McSim`] for multi-core native cells) with a
//! seed derived from the grid position, so the
//! reported statistics are a pure function of the experiment: identical
//! whatever the job count or completion order. A simulated reference
//! stream is serially dependent (every access mutates the caches the
//! next one probes), so cross-cell `--jobs` is the only parallelism.

use crate::grid::{Cell, Experiment};
use crate::params;
use hvc_core::{Hypervisor, RunReport, SystemConfig, SystemSim, TranslationScheme, VirtScheme};
use hvc_mc::McSim;
use hvc_os::{AllocPolicy, FilterKind, Kernel};
use hvc_types::{Cycles, TraceItem, Vmid};
use hvc_workloads::{WorkloadInstance, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs of one sweep invocation (as opposed to the experiment itself,
/// these must not influence the reported statistics).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads claiming whole cells.
    pub jobs: usize,
    /// Re-run every cell through the `hvc-check` differential oracle
    /// after measuring it and fail the sweep on any invariant violation.
    /// Checking runs on a separate simulator pair, so the reported
    /// statistics are bitwise unaffected.
    pub check: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 1,
            check: false,
        }
    }
}

/// The outcome of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The grid cell that produced this result.
    pub cell: Cell,
    /// Statistics of the cell's measured window.
    pub report: RunReport,
    /// End-of-run synonym-filter occupancy per address space, sorted by
    /// ASID. A gauge, not a counter: it is sampled from the final kernel
    /// state, so it lives outside the [`RunReport`].
    pub filters: Vec<FilterOccupancy>,
}

/// End-of-run occupancy of one address space's synonym filter.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterOccupancy {
    /// Address-space identifier.
    pub asid: u16,
    /// Synonym-filter strategy name (`bloom` or `rlt`).
    pub strategy: &'static str,
    /// Distinct pages currently marked shared (exact accounting).
    pub insertions: u64,
    /// First occupancy gauge: coarse (16 MB) bit saturation under
    /// Bloom, exact-table fill fraction under the RLT.
    pub coarse_saturation: f64,
    /// Second occupancy gauge: fine (32 KB) bit saturation under Bloom,
    /// conservative-overflow bit saturation under the RLT.
    pub fine_saturation: f64,
    /// Pages unmapped since the last filter rebuild (stale filter
    /// contributions awaiting a lazy rebuild).
    pub stale_pages: u64,
    /// Exact regions the RLT currently tracks (0 under Bloom).
    pub rlt_entries: u64,
    /// Regions that overflowed the RLT into its conservative side since
    /// the last rebuild (0 under Bloom).
    pub rlt_overflowed: u64,
}

/// The outcome of a whole sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-cell results in grid order.
    pub results: Vec<CellResult>,
    /// Wall-clock time of the parallel phase.
    pub wall: Duration,
}

/// Runs every cell of `exp` on `opts.jobs` threads.
pub fn run_sweep(exp: &Experiment, opts: &RunOptions) -> Result<SweepOutcome, String> {
    exp.validate()?;
    if opts.jobs == 0 {
        return Err("jobs must be positive".into());
    }
    let replay_items: Option<Vec<TraceItem>> = match &exp.replay {
        Some(path) => Some(load_trace(path)?),
        None => None,
    };

    let cells = exp.cells();
    let n = cells.len();
    let queue: Mutex<VecDeque<Cell>> = Mutex::new(cells.into());
    let slots: Vec<Mutex<Option<Result<CellResult, String>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..opts.jobs.min(n.max(1)) {
            scope.spawn(|| loop {
                let Some(cell) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                let index = cell.index;
                let outcome = run_cell(exp, &cell, replay_items.as_deref(), opts.check).map(
                    |(report, filters)| CellResult {
                        cell,
                        report,
                        filters,
                    },
                );
                *slots[index].lock().unwrap() = Some(outcome);
            });
        }
    });
    let wall = start.elapsed();

    let mut results = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap() {
            Some(Ok(r)) => results.push(r),
            Some(Err(e)) => return Err(format!("cell {i}: {e}")),
            None => return Err(format!("cell {i} was never executed")),
        }
    }
    Ok(SweepOutcome { results, wall })
}

/// Runs one cell as one continuous run: a fresh kernel (the guest
/// kernel of a fresh VM for a `vm:` scheme) and workload seeded with
/// `cell.seed`, `exp.warm` unmeasured warm-up references, then
/// `exp.refs` measured ones — on the plain engine, or on the multi-core
/// driver when `exp.cores > 1`. With `replay`, the recorded stream
/// replaces the workload's references (warm-up eating its head).
/// Alongside the report, returns the end-of-run filter-occupancy gauges
/// (sorted by ASID for deterministic serialization).
pub fn run_cell(
    exp: &Experiment,
    cell: &Cell,
    replay: Option<&[TraceItem]>,
    check: bool,
) -> Result<(RunReport, Vec<FilterOccupancy>), String> {
    if check && replay.is_some() {
        return Err("--check does not support trace replay (the oracle needs the workload)".into());
    }
    let setup = CellSetup::resolve(exp, cell)?;
    if let Some(items) = replay {
        if exp.cores > 1 {
            return Err("trace replay drives a single core (re-run with --cores 1)".into());
        }
        if matches!(setup.machine, Machine::Vm(_)) {
            return Err(format!(
                "guest-VM scheme '{}' cannot replay a trace",
                cell.scheme
            ));
        }
        return run_replay(exp, cell, &setup, items);
    }

    let result = run_continuous(exp, cell, &setup, exp.cores > 1)?;
    // The functional `--check` oracle runs on the plain engine — it
    // verifies translation results, which timing quanta cannot change.
    if check {
        check_cell(exp, cell, &setup)?;
    }
    Ok(result)
}

/// References a core executes per scheduling turn of the multi-core
/// driver. Part of the experiment definition (it shapes how cores
/// interleave on the shared LLC), so it is fixed rather than a CLI
/// knob; [`crate::key::KEY_SCHEMA`] must be bumped if it changes.
pub const MC_QUANTUM: usize = 64;

/// Runs one cell on the multi-core driver: the same continuous run as
/// [`run_cell`], as one feed-and-drain `McSim` run. Public so the
/// single-core equivalence gate can force a `cores = 1` cell through
/// this path and compare bitwise.
pub fn run_cell_mc(
    exp: &Experiment,
    cell: &Cell,
) -> Result<(RunReport, Vec<FilterOccupancy>), String> {
    run_continuous(exp, cell, &CellSetup::resolve(exp, cell)?, true)
}

/// The machine a cell's scheme string names.
#[derive(Clone, Copy)]
enum Machine {
    /// A native kernel under `scheme`, allocating as `policy`.
    Native {
        scheme: TranslationScheme,
        policy: AllocPolicy,
    },
    /// One guest VM under a nested scheme.
    Vm(VirtScheme),
}

/// A cell's names resolved against the parameter tables, plus its
/// system configuration — shared by the measured run, the replay path
/// and the `--check` oracle pass, which must agree exactly.
struct CellSetup {
    spec: WorkloadSpec,
    machine: Machine,
    filter: FilterKind,
    mem: u64,
    config: SystemConfig,
}

impl CellSetup {
    fn resolve(exp: &Experiment, cell: &Cell) -> Result<Self, String> {
        let spec = params::workload_by_name(&cell.workload, exp.mem)
            .ok_or_else(|| format!("unknown workload '{}'", cell.workload))?;
        let machine = match params::parse_vm_scheme(&cell.scheme) {
            Some(scheme) => Machine::Vm(scheme),
            None => params::parse_scheme(&cell.scheme)
                .map(|(scheme, policy)| Machine::Native { scheme, policy })
                .ok_or_else(|| format!("unknown scheme '{}'", cell.scheme))?,
        };
        let filter = params::parse_filter(&cell.filter)
            .ok_or_else(|| format!("unknown filter strategy '{}'", cell.filter))?;
        let mut config = SystemConfig::isca2016();
        config.hierarchy = hvc_cache::HierarchyConfig::isca2016(exp.cores.max(1));
        if cell.llc_bytes != config.hierarchy.llc.size_bytes {
            if !params::valid_llc(cell.llc_bytes) {
                return Err(format!("invalid LLC capacity {}", cell.llc_bytes));
            }
            config.hierarchy.llc = hvc_cache::CacheConfig::new(cell.llc_bytes, 16, Cycles::new(27));
        }
        config.model_ifetch = exp.ifetch;
        Ok(CellSetup {
            spec,
            machine,
            filter,
            mem: exp.mem,
            config,
        })
    }

    /// A fresh hypervisor with one VM, sized by [`params::vm_memory`],
    /// with the cell's workload instantiated in its guest kernel from
    /// `seed`. Allocation follows the native convention: 2D segments
    /// run over eager guest segments and eagerly backed machine memory,
    /// every other scheme demand-pages.
    fn instantiate_vm(
        &self,
        scheme: VirtScheme,
        seed: u64,
    ) -> hvc_types::Result<(Hypervisor, Vmid, WorkloadInstance)> {
        let (guest, host) = params::vm_memory(self.mem);
        let (policy, eager_backing) = match scheme {
            VirtScheme::HybridNestedSegments => (AllocPolicy::EagerSegments { split: 1 }, true),
            _ => (AllocPolicy::DemandPaging, false),
        };
        let mut hv = Hypervisor::new(host);
        hv.set_filter_kind(self.filter);
        let vm = hv.create_vm(guest, policy, eager_backing)?;
        let wl = self.spec.instantiate(hv.guest_kernel_mut(vm)?, seed)?;
        Ok((hv, vm, wl))
    }

    /// The cell's machine, freshly built — a kernel, or a hypervisor
    /// with one VM — with its workload instantiated from `seed`.
    fn build(&self, seed: u64) -> Result<(SystemSim, WorkloadInstance), String> {
        let config = self.config.clone();
        let build = || match self.machine {
            Machine::Native { scheme, policy } => {
                let mut kernel = Kernel::new(16 << 30, policy);
                kernel.set_filter_kind(self.filter);
                let wl = self.spec.instantiate(&mut kernel, seed)?;
                Ok((SystemSim::new(kernel, config, scheme), wl))
            }
            Machine::Vm(scheme) => {
                let (hv, vm, wl) = self.instantiate_vm(scheme, seed)?;
                Ok((SystemSim::virtualized(hv, vm, config, scheme)?, wl))
            }
        };
        build().map_err(|e: hvc_types::HvcError| format!("workload setup failed: {e}"))
    }
}

/// One warm-up, then `exp.refs` measured references on the plain engine
/// (or the multi-core driver when `mc` is set).
fn run_continuous(
    exp: &Experiment,
    cell: &Cell,
    setup: &CellSetup,
    mc: bool,
) -> Result<(RunReport, Vec<FilterOccupancy>), String> {
    if mc && matches!(setup.machine, Machine::Vm(_)) {
        return Err(format!(
            "guest-VM scheme '{}' runs on one core",
            cell.scheme
        ));
    }
    let (sim, mut wl) = setup.build(cell.seed)?;
    if mc {
        let mut sim = McSim::new(sim, MC_QUANTUM);
        if exp.warm > 0 {
            sim.warm_up(&mut wl, exp.warm);
        }
        sim.feed(&mut wl, exp.refs);
        sim.drain();
        Ok((sim.report(), filter_occupancy(sim.sim())))
    } else {
        let mut sim = sim;
        if exp.warm > 0 {
            sim.warm_up(&mut wl, exp.warm);
        }
        let report = sim.run(&mut wl, exp.refs);
        Ok((report, filter_occupancy(&sim)))
    }
}

/// The trace-replay path: one simulator consumes the recorded stream in
/// order, warm-up eating the head of the trace as a real recorded
/// execution would.
fn run_replay(
    exp: &Experiment,
    cell: &Cell,
    setup: &CellSetup,
    items: &[TraceItem],
) -> Result<(RunReport, Vec<FilterOccupancy>), String> {
    let (mut sim, wl) = setup.build(cell.seed)?;
    let mlp = wl.mlp();

    let mut pos = 0usize;
    if exp.warm > 0 {
        let end = exp.warm.min(items.len());
        sim.run_trace(items[..end].iter().copied(), mlp);
        sim.reset_stats();
        pos = end;
    }
    let end = (pos + exp.refs).min(items.len());
    let report = sim.run_trace(items[pos..end].iter().copied(), mlp);
    Ok((report, filter_occupancy(&sim)))
}

/// Re-runs the cell through the `hvc-check` differential oracle: the
/// identical workload, seed and configuration on the scheme under test
/// and a reference machine in lockstep (physically addressed natively,
/// the nested baseline in a VM), with whole-machine invariant sweeps
/// along the way.
fn check_cell(exp: &Experiment, cell: &Cell, setup: &CellSetup) -> Result<(), String> {
    let config = setup.config.clone();
    let cfg = hvc_check::CheckConfig::default();
    let (mut harness, mut wl) = match setup.machine {
        Machine::Native { scheme, policy } => {
            hvc_check::DiffHarness::new(config, scheme, cfg, 16 << 30, policy, |k| {
                k.set_filter_kind(setup.filter);
                setup.spec.instantiate(k, cell.seed)
            })
        }
        Machine::Vm(scheme) => hvc_check::DiffHarness::virtualized(config, scheme, cfg, || {
            setup.instantiate_vm(scheme, cell.seed)
        }),
    }
    .map_err(|e| format!("check setup failed: {e}"))?;
    if exp.warm > 0 {
        harness.warm_up(&mut wl, exp.warm);
    }
    harness.run(&mut wl, exp.refs);
    let violations = harness.finish();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "invariant violations under --check: {}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ))
    }
}

/// Samples the end-of-run synonym-filter occupancy of every address
/// space, sorted by ASID (the kernel iterates spaces in hash order).
fn filter_occupancy(sim: &SystemSim) -> Vec<FilterOccupancy> {
    let kernel = sim.kernel();
    let mut out: Vec<FilterOccupancy> = kernel
        .spaces()
        .map(|(asid, space)| {
            let (coarse, fine) = space.filter.saturation();
            FilterOccupancy {
                asid: asid.as_u16(),
                strategy: space.filter.kind().name(),
                insertions: space.filter.insertions(),
                coarse_saturation: coarse,
                fine_saturation: fine,
                stale_pages: kernel.stale_filter_pages(asid),
                rlt_entries: space.filter.rlt_entries() as u64,
                rlt_overflowed: space.filter.rlt_overflowed(),
            }
        })
        .collect();
    out.sort_by_key(|f| f.asid);
    out
}

fn load_trace(path: &str) -> Result<Vec<TraceItem>, String> {
    // Bulk window reads (`read_batch`) instead of one 16-byte read per
    // item; the window also bounds pre-allocation against a corrupt
    // header claiming billions of items.
    const LOAD_WINDOW: usize = 1 << 16;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open trace {path}: {e}"))?;
    let mut reader = hvc_trace::read_trace(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let mut items = Vec::new();
    loop {
        let n = reader
            .read_batch(&mut items, LOAD_WINDOW)
            .map_err(|e| format!("corrupt trace {path}: {e}"))?;
        if n == 0 {
            return Ok(items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::preset;

    fn tiny() -> Experiment {
        let mut exp = preset("smoke").unwrap();
        exp.refs = 4_000;
        exp.warm = 1_000;
        exp
    }

    #[test]
    fn jobs_do_not_change_results() {
        let exp = tiny();
        let serial = run_sweep(
            &exp,
            &RunOptions {
                jobs: 1,
                check: false,
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &exp,
            &RunOptions {
                jobs: 4,
                check: false,
            },
        )
        .unwrap();
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(parallel.results.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report.instructions, b.report.instructions);
            assert_eq!(a.report.cycles, b.report.cycles);
            assert_eq!(a.report.translation, b.report.translation);
            assert_eq!(a.report.cache, b.report.cache);
            assert_eq!(a.report.dram, b.report.dram);
            assert_eq!(a.report.minor_faults, b.report.minor_faults);
        }
    }

    #[test]
    fn errors_name_the_failing_cell() {
        let mut exp = tiny();
        exp.replay = Some("/nonexistent/trace.hvct".into());
        assert!(run_sweep(&exp, &RunOptions::default()).is_err());
    }

    #[test]
    fn checked_sweep_passes_and_reports_match_unchecked() {
        let mut exp = tiny();
        exp.refs = 2_000;
        exp.warm = 500;
        let plain = run_sweep(&exp, &RunOptions::default()).unwrap();
        let checked = run_sweep(
            &exp,
            &RunOptions {
                check: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        for (a, b) in plain.results.iter().zip(checked.results.iter()) {
            assert_eq!(a.report.cycles, b.report.cycles);
            assert_eq!(a.report.translation, b.report.translation);
            assert_eq!(a.report.cache, b.report.cache);
        }
    }

    #[test]
    fn filter_axis_selects_the_strategy_per_cell() {
        let mut exp = tiny();
        exp.filters = vec!["bloom".into(), "rlt".into()];
        let out = run_sweep(&exp, &RunOptions::default()).unwrap();
        assert_eq!(out.results.len(), 4);
        for r in &out.results {
            for f in &r.filters {
                assert_eq!(f.strategy, r.cell.filter, "cell {}", r.cell.index);
            }
        }
    }

    #[test]
    fn vm_cells_pass_the_nested_oracle_on_one_core() {
        let mut exp = tiny();
        exp.schemes = vec!["vm:nested".into(), "vm:dtlb:1024".into(), "vm:seg".into()];
        exp.refs = 2_000;
        exp.warm = 500;
        let checked = RunOptions {
            check: true,
            ..RunOptions::default()
        };
        let out = run_sweep(&exp, &checked).unwrap();
        // `vm:seg` backs its guest eagerly, so 2D segments translate.
        assert!(out.results[2].report.translation.sc_lookups > 0);
        assert_eq!(out.results[0].report.translation.sc_lookups, 0);
        let err = run_cell_mc(&exp, &exp.cells()[0]).unwrap_err();
        assert!(err.contains("one core"), "unexpected error: {err}");
        let err = run_cell(&exp, &exp.cells()[2], Some(&[]), false).unwrap_err();
        assert!(err.contains("replay"), "unexpected error: {err}");
    }

    #[test]
    fn check_refuses_trace_replay() {
        let exp = tiny();
        let cell = &exp.cells()[0];
        let err = run_cell(&exp, cell, Some(&[]), true).unwrap_err();
        assert!(err.contains("replay"), "unexpected error: {err}");
    }

    /// A run of 140,000 refs (more than twice 65,536) is one warm-up and
    /// one measured window on one machine, on one core and on two: the
    /// cell report equals a hand-built run of the same engine.
    #[test]
    fn long_runs_are_one_continuous_run() {
        let mut exp = tiny();
        exp.schemes = vec!["dtlb:1024".into()];
        exp.refs = 140_000;
        exp.warm = 2_000;
        for cores in [1, 2] {
            exp.cores = cores;
            let cell = &exp.cells()[0];
            let (report, _) = run_cell(&exp, cell, None, false).unwrap();

            let (scheme, policy) = params::parse_scheme(&cell.scheme).unwrap();
            let mut kernel = Kernel::new(16 << 30, policy);
            kernel.set_filter_kind(FilterKind::Bloom);
            let mut wl = params::workload_by_name("gups", exp.mem)
                .unwrap()
                .instantiate(&mut kernel, cell.seed)
                .unwrap();
            let mut config = SystemConfig::isca2016();
            config.hierarchy = hvc_cache::HierarchyConfig::isca2016(cores);
            // The cell's LLC axis (2 MB) sizes the shared LLC.
            config.hierarchy.llc = hvc_cache::CacheConfig::new(cell.llc_bytes, 16, Cycles::new(27));
            let mut sim = SystemSim::new(kernel, config, scheme);
            let expected = if cores == 1 {
                sim.warm_up(&mut wl, exp.warm);
                sim.run(&mut wl, exp.refs)
            } else {
                let mut mc = McSim::new(sim, MC_QUANTUM);
                mc.warm_up(&mut wl, exp.warm);
                mc.feed(&mut wl, exp.refs);
                mc.drain();
                mc.report()
            };
            assert_eq!(report.refs, exp.refs as u64);
            assert_eq!(
                format!("{report:?}"),
                format!("{expected:?}"),
                "{cores}-core run diverges from the hand-built continuous run"
            );
        }
    }
}
