//! `hvcsim` — command-line driver for the hybrid virtual caching
//! simulator.
//!
//! ```sh
//! hvcsim --workload gups --scheme manyseg --refs 1000000
//! hvcsim --workload postgres --scheme dtlb:4096 --llc 8M --warm 200000
//! hvcsim sweep --preset fig9 --jobs 4 --out fig9.json
//! hvcsim table fig9.json
//! hvcsim sweep --workloads gups,mcf --schemes baseline,manyseg --out report.json
//! hvcsim check --preset smoke --schemes baseline,vm:seg --seed-range 0..8
//! hvcsim --list
//! ```

use hvc::check::stress;
use hvc::core::{EnergyModel, SystemConfig, SystemSim};
use hvc::os::Kernel;
use hvc::runner::{
    params, presets, run_cell, run_sweep, sweep_report, tables, write_atomic, Cell, Experiment,
    RunOptions,
};
use hvc::serve::{ServeConfig, Server};
use std::process::ExitCode;

const USAGE: &str = "\
hvcsim — hybrid virtual caching simulator (ISCA 2016 reproduction)

USAGE:
    hvcsim [OPTIONS]                 run one simulation
    hvcsim sweep [SWEEP OPTIONS]     run an experiment grid in parallel
    hvcsim table <report.json>       print a paper result's table from the
                                     sweep report of its preset (table1,
                                     table2, fig4, fig9, fig10, energy)
    hvcsim check [CHECK OPTIONS]     run the correctness checker
    hvcsim serve [SERVE OPTIONS]     run the HTTP experiment server

OPTIONS:
    --workload <name>    workload profile (see --list)        [default: gups]
    --scheme <scheme>    baseline | ideal | dtlb:<entries> |
                         manyseg | manyseg-nosc | enigma:<entries>
                                                              [default: manyseg]
    --filter <name>      synonym-filter strategy: bloom | rlt [default: bloom]
    --refs <n>           memory references to simulate        [default: 500000]
    --warm <n>           unmeasured warm-up references        [default: refs/2]
    --seed <n>           workload RNG seed                    [default: 42]
    --mem <size>         gups table size, e.g. 256M, 1G       [default: 512M]
    --llc <size>         LLC capacity: 2M or 8M               [default: 2M]
    --cores <n>          number of cores                      [default: 1]
    --ifetch             model the instruction-fetch stream
    --obs                print latency percentiles and cycle attribution
    --trace-events <p>   write a Chrome trace_event JSON of the run
    --save-trace <path>  write the measured reference stream to a file
    --replay <path>      replay a saved trace instead of generating one
                         (trace options need --cores 1)
    --list               list workload profiles and exit
    --help               show this help

SWEEP OPTIONS:
    --preset <name>      a named grid (see --list-presets); grid axes
                         below override the preset's
    --workloads <a,b>    comma-separated workload axis
    --schemes <a,b>      comma-separated scheme axis: the single-run
                         schemes, or a guest VM on one core under
                         vm:nested | vm:dtlb:<entries> | vm:seg
    --filters <a,b>      comma-separated filter-strategy axis [default: bloom]
    --seeds <a,b>        comma-separated base-seed axis       [default: 42]
    --llc <a,b>          comma-separated LLC-capacity axis    [default: 2M]
    --refs / --warm / --mem / --cores / --ifetch / --replay   as above
    --jobs <n>           worker threads                       [default: 1]
    --check              verify every cell with the hvc-check oracle
    --out <path>         write the JSON report here (default: stdout)
    --list-presets       list presets and exit

CHECK OPTIONS:
    --preset <name>      check every cell of a named grid     [default: smoke]
    --workloads / --schemes / --filters / --seeds / --refs / --warm / --mem
                         as above; vm: schemes check guest VMs against
                         the nested baseline
    --seed-range <a..b>  randomized stress-script seeds       [default: 0..4]
    --stress-ops <n>     operations per stress script         [default: 400]

SERVE OPTIONS:
    --addr <host:port>   listen address (port 0 = ephemeral)
                                                   [default: 127.0.0.1:8080]
    --jobs <n>           simulation worker threads            [default: 2]
    --cache-capacity <n> memoized cells kept in memory        [default: 4096]
    --spool <dir>        crash-safe result spool; restarting with the same
                         directory resumes interrupted sweeps (no spool:
                         results are memoized in memory only)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(&args[1..]),
        Some("table") => table_main(&args[1..]),
        Some("check") => check_main(&args[1..]),
        Some("serve") => serve_main(&args[1..]),
        _ => single_main(&args),
    }
}

/// `hvcsim sweep ...`: run a grid and write a JSON report.
fn sweep_main(args: &[String]) -> ExitCode {
    let mut grid = GridFlags::default();
    let mut llc: Option<Vec<u64>> = None;
    let mut cores: Option<usize> = None;
    let mut ifetch = false;
    let mut obs = false;
    let mut replay: Option<String> = None;
    let mut opts = RunOptions::default();
    let mut out: Option<String> = None;

    let mut i = 0;
    let next = |i: &mut usize| -> Option<String> {
        *i += 1;
        args.get(*i - 1).cloned()
    };
    while i < args.len() {
        let arg = args[i].clone();
        i += 1;
        let bad = || {
            eprintln!("invalid or missing value for {arg}\n\n{USAGE}");
            ExitCode::FAILURE
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list-presets" => {
                println!("presets (`hvcsim table <report.json>` prints the paper table of");
                println!("table1, table2, fig4, fig9, fig10 and energy):");
                for (name, summary) in presets::PRESET_NAMES {
                    println!("  {name:<14} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "--llc" => {
                match next(&mut i)
                    .map(|v| split_list(&v))
                    .and_then(|l| l.iter().map(|s| params::parse_size(s)).collect())
                {
                    Some(v) => llc = Some(v),
                    None => return bad(),
                }
            }
            "--cores" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => cores = Some(v),
                None => return bad(),
            },
            "--ifetch" => ifetch = true,
            "--obs" => obs = true,
            "--replay" => match next(&mut i) {
                Some(v) => replay = Some(v),
                None => return bad(),
            },
            "--jobs" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => opts.jobs = v,
                _ => return bad(),
            },
            "--check" => opts.check = true,
            "--out" => match next(&mut i) {
                Some(v) => out = Some(v),
                None => return bad(),
            },
            _ => match grid.take(&arg, || next(&mut i)) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("unknown option {arg}\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    // Grid flags override the preset; with no preset they refine the
    // default single-cell grid.
    let mut exp = grid.into_experiment(Experiment::default);
    if let Some(v) = llc {
        exp.llc_bytes = v;
    }
    if let Some(v) = cores {
        exp.cores = v;
    }
    if ifetch {
        exp.ifetch = true;
    }
    if obs {
        exp.obs = true;
    }
    if replay.is_some() {
        exp.replay = replay;
    }

    if let Err(e) = exp.validate() {
        eprintln!("invalid sweep: {e}");
        return ExitCode::FAILURE;
    }
    let cells = exp.cells().len();
    eprintln!(
        "sweeping '{}': {cells} cells × {} refs on {} thread(s)…",
        exp.name, exp.refs, opts.jobs
    );
    let outcome = match run_sweep(&exp, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("swept {cells} cells in {:.2}s", outcome.wall.as_secs_f64());

    let text = sweep_report(&exp, &opts, &outcome).to_pretty();
    match &out {
        Some(path) => {
            // Atomic so a crash or full disk never leaves a truncated
            // report where a previous good one stood.
            if let Err(e) = write_atomic(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// `hvcsim table <report.json>`: print the paper table of the preset
/// that produced a sweep report.
fn table_main(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: hvcsim table <report.json>\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match hvc::runner::json::parse(&text).and_then(|doc| tables::render(&doc)) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot print a table from {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `hvcsim check ...`: run the differential oracle over a grid of cells
/// (native, and guest VMs for `vm:` schemes) and seeded stress scripts.
/// Exits non-zero on the first invariant violation.
fn check_main(args: &[String]) -> ExitCode {
    let mut grid = GridFlags::default();
    let mut seed_range = 0u64..4u64;
    let mut stress_ops = 400usize;

    let mut i = 0;
    let next = |i: &mut usize| -> Option<String> {
        *i += 1;
        args.get(*i - 1).cloned()
    };
    while i < args.len() {
        let arg = args[i].clone();
        i += 1;
        let bad = || {
            eprintln!("invalid or missing value for {arg}\n\n{USAGE}");
            ExitCode::FAILURE
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--seed-range" => {
                match next(&mut i).and_then(|v| {
                    let (a, b) = v.split_once("..")?;
                    Some(a.trim().parse().ok()?..b.trim().parse().ok()?)
                }) {
                    Some(r) => seed_range = r,
                    None => return bad(),
                }
            }
            "--stress-ops" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => stress_ops = v,
                None => return bad(),
            },
            _ => match grid.take(&arg, || next(&mut i)) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("unknown option {arg}\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    let exp = grid.into_experiment(|| presets::preset("smoke").expect("smoke preset exists"));
    if let Err(e) = exp.validate() {
        eprintln!("invalid grid: {e}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;

    // Every cell: measurement plus the differential-oracle pass.
    let cells = exp.cells();
    eprintln!("checking {} cell(s)…", cells.len());
    for cell in &cells {
        match run_cell(&exp, cell, None, true) {
            Ok(_) => eprintln!(
                "  ok   {} / {} / {} / seed {}",
                cell.workload, cell.scheme, cell.filter, cell.seed
            ),
            Err(e) => {
                eprintln!(
                    "  FAIL {} / {} / {} / seed {}: {e}",
                    cell.workload, cell.scheme, cell.filter, cell.seed
                );
                failed = true;
            }
        }
    }

    // Seeded stress scripts with shrinking.
    eprintln!(
        "running stress scripts for seeds {}..{} ({stress_ops} ops each)…",
        seed_range.start, seed_range.end
    );
    for seed in seed_range {
        let ops = stress::generate(seed, stress_ops);
        match stress::run_script(&ops) {
            Ok(v) if v.is_empty() => eprintln!("  ok   stress seed {seed}"),
            Ok(v) => {
                failed = true;
                eprintln!("  FAIL stress seed {seed}:");
                for violation in &v {
                    eprintln!("    {violation}");
                }
                match stress::shrink(&ops) {
                    Ok(min) => eprintln!(
                        "  minimal reproducer ({} ops):\n{}",
                        min.len(),
                        stress::script(&min)
                    ),
                    Err(e) => eprintln!("  shrinking failed: {e}"),
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("  FAIL stress seed {seed}: harness error {e}");
            }
        }
    }

    if failed {
        eprintln!("check FAILED");
        ExitCode::FAILURE
    } else {
        eprintln!("all checks passed");
        ExitCode::SUCCESS
    }
}

/// `hvcsim serve ...`: run the HTTP experiment server until killed.
/// Results land in the memoizing cache (and the spool, when given), so
/// restarting after a kill resumes any interrupted sweep.
fn serve_main(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut config = ServeConfig::default();

    let mut i = 0;
    let next = |i: &mut usize| -> Option<String> {
        *i += 1;
        args.get(*i - 1).cloned()
    };
    while i < args.len() {
        let arg = args[i].clone();
        i += 1;
        let bad = || {
            eprintln!("invalid or missing value for {arg}\n\n{USAGE}");
            ExitCode::FAILURE
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => match next(&mut i) {
                Some(a) => addr = a,
                None => return bad(),
            },
            "--jobs" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => config.jobs = n,
                None => return bad(),
            },
            "--cache-capacity" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => config.cache_capacity = n,
                None => return bad(),
            },
            "--spool" => match next(&mut i) {
                Some(dir) => config.spool_dir = Some(dir.into()),
                None => return bad(),
            },
            _ => {
                eprintln!("unknown option {arg}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let spool = config
        .spool_dir
        .as_ref()
        .map(|d| d.display().to_string())
        .unwrap_or_else(|| "off (in-memory only)".into());
    let server = match Server::start(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "hvcsim serve listening on http://{} (spool: {spool})",
        server.addr()
    );
    eprintln!("endpoints: GET /healthz, GET /stats, GET /presets, POST /sweep");
    // Serve until the process is killed; completed cells are already
    // spooled, so a kill at any instant is resumable.
    loop {
        std::thread::park();
    }
}

/// Prints the human-readable summary of one run (shared by the plain and
/// trace single-run paths).
fn print_report(
    name: &str,
    scheme: hvc::core::TranslationScheme,
    report: &hvc::core::RunReport,
    obs: bool,
) {
    let t = &report.translation;
    println!("== {name} / {scheme:?} ==");
    println!("instructions        {:>12}", report.instructions);
    println!("cycles              {:>12}", report.cycles);
    println!("IPC                 {:>12.4}", report.ipc());
    println!("front TLB lookups   {:>12}", t.front_tlb_accesses());
    println!("filter lookups      {:>12}", t.filter_lookups);
    println!("  candidates        {:>12}", t.filter_candidates);
    println!("  false positives   {:>12}", t.false_positives);
    println!("delayed TLB lookups {:>12}", t.delayed_tlb_lookups);
    println!("  misses            {:>12}", t.delayed_tlb_misses);
    println!("segment-cache hits  {:>12}", t.sc_lookups);
    println!("PTE reads           {:>12}", t.pte_reads);
    println!("shared accesses     {:>12}", t.shared_accesses);
    println!(
        "LLC miss rate       {:>11.1}%",
        report.cache.llc.miss_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "DRAM mean latency   {:>12.1}",
        report.dram.mean_latency().unwrap_or(0.0)
    );
    let energy = EnergyModel::cacti_32nm().breakdown(t, 4096).total() / 1e6;
    println!("translation energy  {:>10.2} µJ", energy);
    println!("minor faults        {:>12}", report.minor_faults);
    if report.per_core.len() > 1 {
        println!("shootdown IPIs      {:>12}", report.os.shootdown_ipis);
        println!("  fast paths        {:>12}", report.os.shootdown_fast_paths);
        println!("  cycles            {:>12}", report.os.shootdown_cycles);
        for (i, c) in report.per_core.iter().enumerate() {
            let ipc = if c.cycles > 0 {
                c.instructions as f64 / c.cycles as f64
            } else {
                0.0
            };
            println!(
                "core {i}: {:>12} insts  {:>12} cycles  IPC {ipc:.4}",
                c.instructions, c.cycles
            );
        }
    }
    if obs {
        let mem = &report.obs.mem_latency;
        println!("memory latency (cycles over {} accesses)", mem.count());
        println!("  p50               {:>12}", mem.p50());
        println!("  p95               {:>12}", mem.p95());
        println!("  p99               {:>12}", mem.p99());
        println!("  max               {:>12}", mem.max());
        println!("cycle attribution");
        for &c in hvc::obs::Component::ALL.iter() {
            let cycles = report.obs.attribution.get(c);
            if cycles.get() > 0 {
                println!("  {:<17} {:>12}", c.name(), cycles.get());
            }
        }
        println!(
            "  {:<17} {:>12}",
            "total",
            report.obs.attribution.total().get()
        );
    }
}

/// The grid flags `sweep` and `check` share: a preset, and axis values
/// that override it.
#[derive(Default)]
struct GridFlags {
    preset: Option<Experiment>,
    workloads: Option<Vec<String>>,
    schemes: Option<Vec<String>>,
    filters: Option<Vec<String>>,
    seeds: Option<Vec<u64>>,
    refs: Option<usize>,
    warm: Option<usize>,
    mem: Option<u64>,
}

impl GridFlags {
    /// Takes `arg` with the value `value` yields if it is a shared grid
    /// flag; `Ok(false)` leaves any other flag (and its value) alone.
    fn take(&mut self, arg: &str, value: impl FnOnce() -> Option<String>) -> Result<bool, String> {
        let bad = || format!("invalid or missing value for {arg}\n\n{USAGE}");
        let list = |v: Option<String>| v.map(|v| split_list(&v)).ok_or_else(bad);
        match arg {
            "--preset" => {
                self.preset = Some(
                    value()
                        .as_deref()
                        .and_then(presets::preset)
                        .ok_or("unknown preset (try --list-presets)")?,
                )
            }
            "--workloads" => self.workloads = Some(list(value())?),
            "--schemes" => self.schemes = Some(list(value())?),
            "--filters" => self.filters = Some(list(value())?),
            "--seeds" => {
                let seeds: Option<Vec<u64>> =
                    list(value())?.iter().map(|s| s.parse().ok()).collect();
                self.seeds = Some(seeds.ok_or_else(bad)?);
            }
            "--refs" => self.refs = Some(value().and_then(|v| v.parse().ok()).ok_or_else(bad)?),
            "--warm" => self.warm = Some(value().and_then(|v| v.parse().ok()).ok_or_else(bad)?),
            "--mem" => {
                self.mem = Some(
                    value()
                        .and_then(|v| params::parse_size(&v))
                        .ok_or_else(bad)?,
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The preset (or `default()` without one) with the axis flags
    /// applied.
    fn into_experiment(self, default: impl FnOnce() -> Experiment) -> Experiment {
        let mut exp = self.preset.unwrap_or_else(default);
        exp.workloads = self.workloads.unwrap_or(exp.workloads);
        exp.schemes = self.schemes.unwrap_or(exp.schemes);
        exp.filters = self.filters.unwrap_or(exp.filters);
        exp.seeds = self.seeds.unwrap_or(exp.seeds);
        exp.refs = self.refs.unwrap_or(exp.refs);
        exp.warm = self.warm.unwrap_or(exp.warm);
        exp.mem = self.mem.unwrap_or(exp.mem);
        exp
    }
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(String::from)
        .collect()
}

/// Classic single-run mode.
fn single_main(args: &[String]) -> ExitCode {
    let mut workload = "gups".to_string();
    let mut scheme = "manyseg".to_string();
    let mut filter = "bloom".to_string();
    let mut refs = 500_000usize;
    let mut warm: Option<usize> = None;
    let mut seed = 42u64;
    let mut mem = 512u64 << 20;
    let mut llc = 2u64 << 20;
    let mut cores = 1usize;
    let mut ifetch = false;
    let mut obs = false;
    let mut trace_events: Option<String> = None;
    let mut save_trace: Option<String> = None;
    let mut replay: Option<String> = None;

    let mut i = 0;
    let next = |i: &mut usize| -> Option<String> {
        *i += 1;
        args.get(*i - 1).cloned()
    };
    while i < args.len() {
        let arg = args[i].clone();
        i += 1;
        let bad = || {
            eprintln!("invalid or missing value for {arg}\n\n{USAGE}");
            ExitCode::FAILURE
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list" => {
                println!("workload profiles:");
                println!("  big-memory : gups milc mcf xalancbmk tigr omnetpp soplex");
                println!("               astar cactus gems canneal stream mummer");
                println!("               memcached cg graph500");
                println!("  synonym    : ferret postgres specjbb firefox apache");
                println!("  multi-core : fork_storm shm_heavy (churn profiles for --cores N)");
                println!("  stress     : ksm_dedup cow_storm shm_rotate (synonym-filter churn)");
                println!("filter strategies (--filter / --filters): bloom rlt");
                return ExitCode::SUCCESS;
            }
            "--workload" => match next(&mut i) {
                Some(v) => workload = v,
                None => return bad(),
            },
            "--scheme" => match next(&mut i) {
                Some(v) => scheme = v,
                None => return bad(),
            },
            "--filter" => match next(&mut i) {
                Some(v) => filter = v,
                None => return bad(),
            },
            "--refs" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => refs = v,
                None => return bad(),
            },
            "--warm" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => warm = Some(v),
                None => return bad(),
            },
            "--seed" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return bad(),
            },
            "--mem" => match next(&mut i).and_then(|v| params::parse_size(&v)) {
                Some(v) => mem = v,
                None => return bad(),
            },
            "--llc" => match next(&mut i).and_then(|v| params::parse_size(&v)) {
                Some(v) => llc = v,
                None => return bad(),
            },
            "--cores" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) if usize::is_power_of_two(v) && v <= hvc::cache::MAX_CORES => cores = v,
                Some(v) => {
                    eprintln!(
                        "--cores {v} is not a power of two (the shared-LLC geometry \
                         splits sets per core) of at most {} (the LLC sharer bitmap's width)",
                        hvc::cache::MAX_CORES
                    );
                    return ExitCode::FAILURE;
                }
                None => return bad(),
            },
            "--ifetch" => ifetch = true,
            "--obs" => obs = true,
            "--trace-events" => match next(&mut i) {
                Some(v) => trace_events = Some(v),
                None => return bad(),
            },
            "--save-trace" => match next(&mut i) {
                Some(v) => save_trace = Some(v),
                None => return bad(),
            },
            "--replay" => match next(&mut i) {
                Some(v) => replay = Some(v),
                None => return bad(),
            },
            _ => {
                eprintln!("unknown option {arg}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(spec) = params::workload_by_name(&workload, mem) else {
        eprintln!("unknown workload '{workload}' (try --list)");
        return ExitCode::FAILURE;
    };
    let Some((parsed_scheme, policy)) = params::parse_scheme(&scheme) else {
        eprintln!("unknown scheme '{scheme}'\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(parsed_filter) = params::parse_filter(&filter) else {
        eprintln!("unknown filter strategy '{filter}' (use bloom or rlt)\n\n{USAGE}");
        return ExitCode::FAILURE;
    };

    let warm = warm.unwrap_or(refs / 2);
    let trace_mode = replay.is_some() || save_trace.is_some() || trace_events.is_some();
    if trace_mode && cores > 1 {
        eprintln!(
            "trace options (--replay / --save-trace / --trace-events) drive a \
             single core (re-run with --cores 1)"
        );
        return ExitCode::FAILURE;
    }

    // Plain runs (no trace options) go through the runner's cell path,
    // the same continuous run a sweep cell makes (multi-core included).
    if !trace_mode {
        let exp = Experiment {
            name: "single".into(),
            workloads: vec![workload.clone()],
            schemes: vec![scheme.clone()],
            filters: vec![filter.clone()],
            seeds: vec![seed],
            llc_bytes: vec![llc],
            refs,
            warm,
            mem,
            cores,
            ifetch,
            replay: None,
            obs,
        };
        if let Err(e) = exp.validate() {
            eprintln!("invalid run: {e}");
            return ExitCode::FAILURE;
        }
        // A single run uses the raw `--seed` directly (no grid-position
        // derivation), preserving the historical stream.
        let cell = Cell {
            index: 0,
            workload: workload.clone(),
            scheme: scheme.clone(),
            filter: filter.clone(),
            base_seed: seed,
            seed,
            llc_bytes: llc,
        };
        eprintln!(
            "running {workload} under {parsed_scheme:?} ({warm} warm-up + {refs} \
             measured references)…"
        );
        let start = std::time::Instant::now();
        let (report, _filters) = match run_cell(&exp, &cell, None, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wall = start.elapsed();
        print_report(&workload, parsed_scheme, &report, obs);
        println!(
            "simulated {:.2} M refs/s",
            (warm + refs) as f64 / wall.as_secs_f64() / 1e6
        );
        return ExitCode::SUCCESS;
    }

    let mut config = SystemConfig::isca2016();
    if llc != 2 << 20 {
        if !params::valid_llc(llc) {
            eprintln!(
                "--llc {llc} is not a valid 16-way geometry (use a power of two ≥ 64K, e.g. 2M, 8M)"
            );
            return ExitCode::FAILURE;
        }
        config.hierarchy.llc = hvc::cache::CacheConfig::new(llc, 16, hvc::types::Cycles::new(27));
    }
    config.model_ifetch = ifetch;
    if trace_events.is_some() {
        // Bounded ring buffer: a long run keeps the newest window.
        config.trace_capacity = 1 << 18;
    }

    let mut kernel = Kernel::new(16 << 30, policy);
    kernel.set_filter_kind(parsed_filter);
    let mut wl = match spec.instantiate(&mut kernel, seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("failed to set up workload: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "running {} under {:?} ({} warm-up + {} measured references)…",
        wl.name(),
        parsed_scheme,
        warm,
        refs
    );
    let mut sim = SystemSim::new(kernel, config, parsed_scheme);
    if warm > 0 {
        sim.warm_up(&mut wl, warm);
    }
    let start = std::time::Instant::now();
    let report = if let Some(path) = &replay {
        // Replay a saved trace (the workload instance still provided the
        // memory layout; the stream comes from the file). A corrupt
        // trace aborts the run instead of silently truncating it.
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let reader = match hvc::trace::read_trace(std::io::BufReader::new(file)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let items: Vec<hvc::types::TraceItem> = match reader.take(refs).collect() {
            Ok(items) => items,
            Err(e) => {
                eprintln!("corrupt trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mlp = wl.mlp();
        sim.run_trace(items, mlp)
    } else if let Some(path) = &save_trace {
        let items: Vec<hvc::types::TraceItem> = (0..refs).map(|_| wl.next_item()).collect();
        let file = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) =
            hvc::trace::write_trace(std::io::BufWriter::new(file), items.iter().copied())
        {
            eprintln!("cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("saved {} references to {path}", items.len());
        let mlp = wl.mlp();
        sim.run_trace(items, mlp)
    } else {
        sim.run(&mut wl, refs)
    };
    let wall = start.elapsed();

    print_report(wl.name(), parsed_scheme, &report, obs);
    if let Some(path) = &trace_events {
        let Some(tracer) = sim.tracer() else {
            eprintln!("tracer was not enabled");
            return ExitCode::FAILURE;
        };
        let doc = hvc::runner::trace_events_json(tracer.events().copied());
        if let Err(e) = write_atomic(path, doc.to_pretty()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} trace events to {path} ({} dropped by the ring buffer)",
            tracer.len(),
            tracer.dropped()
        );
    }
    println!(
        "simulated {:.2} M refs/s",
        (warm + refs) as f64 / wall.as_secs_f64() / 1e6
    );
    ExitCode::SUCCESS
}
