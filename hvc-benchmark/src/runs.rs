//! Building, timing and tracing one workload through the continuous
//! engine's public calls: `Kernel::new`, `WorkloadSpec::instantiate`,
//! `SystemSim::new` / `run` / `reset_stats` / `report` / `step_batch` /
//! `apply_churn`, and `McSim::new` / `feed` / `drain` / `reset_stats` /
//! `report`.

use crate::spec::Resolved;
use hvc_core::{RunReport, SystemConfig, SystemSim};
use hvc_mc::McSim;
use hvc_os::Kernel;
use hvc_runner::json::Value;
use hvc_runner::{run_report_value, MC_QUANTUM};
use hvc_workloads::WorkloadInstance;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Physical memory of every simulated machine (the sweep runner's size).
const PHYS_BYTES: u64 = 16 << 30;

/// References per window of the plain engine's batched loop (its
/// private `BATCH_WINDOW`, equal to the multi-core quantum).
const WINDOW: usize = MC_QUANTUM;

/// Slices the warm-up and the measured window are cut into, with a
/// reference sample after each. Run-window and feed granularity do not
/// change what is simulated, which the digest gate checks.
const WARM_SLICES: usize = 8;
const MEASURE_SLICES: usize = 16;

/// Fresh runs a measurement makes even when they overrun its seconds.
pub const MIN_RUNS: usize = 3;
/// Upper limit on fresh runs per measurement.
const MAX_RUNS: usize = 200;

/// A fixed host workload timed between the slices of every run. On a
/// shared host the simulator and this kernel slow down together, so the
/// end-to-end metrics are stated at the speed of a nominal host: a run's
/// host time is scaled by how much slower than nominal this kernel ran
/// beside it.
pub struct Reference {
    table: Vec<u64>,
    state: u64,
    samples: Vec<f64>,
}

impl Reference {
    /// Table of 1 MiB: beyond a core's L1, like the simulator's own
    /// structures, yet small beside the process's memory.
    const WORDS: usize = 1 << 17;
    /// Random read-modify-writes per sample (under a millisecond).
    const OPS: usize = 200_000;
    /// Nanoseconds per operation on the nominal host, roughly what a
    /// quiet 2-vCPU Xeon virtual machine takes.
    pub const NOMINAL_NS_PER_OP: f64 = 3.0;

    /// A reference kernel with its table allocated and touched.
    pub fn new() -> Self {
        Reference {
            table: (0..Self::WORDS as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            samples: Vec::new(),
        }
    }

    /// Times one batch of operations and records its ns per operation.
    fn sample(&mut self) {
        let start = Instant::now();
        let (mut x, mut acc) = (self.state, 0u64);
        for _ in 0..Self::OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (Self::WORDS - 1);
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        self.state = black_box(x);
        let ns = start.elapsed().as_secs_f64() * 1e9;
        self.samples.push(ns / Self::OPS as f64);
    }

    /// Median ns per operation of the samples since the last call.
    fn take_ns_per_op(&mut self) -> f64 {
        let ns = median(&self.samples);
        self.samples.clear();
        ns
    }
}

/// The simulator of one workload: the plain engine, or the multi-core
/// driver when the workload has more than one core.
enum Engine {
    Single(SystemSim),
    Multi(McSim),
}

impl Engine {
    /// Simulates `refs` more references in `slices` pieces, sampling the
    /// reference kernel after each; returns the time spent simulating.
    fn advance(
        &mut self,
        workload: &mut WorkloadInstance,
        refs: usize,
        slices: usize,
        reference: &mut Reference,
    ) -> Duration {
        let (mut spent, mut done) = (Duration::ZERO, 0);
        for slice in 1..=slices {
            let upto = refs * slice / slices;
            let start = Instant::now();
            match self {
                Engine::Single(sim) => {
                    sim.run(workload, upto - done);
                }
                Engine::Multi(mc) => mc.feed(workload, upto - done),
            }
            spent += start.elapsed();
            done = upto;
            reference.sample();
        }
        spent
    }

    /// Executes the driver's buffered work, as a window's end does.
    fn drain(&mut self) {
        if let Engine::Multi(mc) = self {
            mc.drain();
        }
    }

    fn reset_stats(&mut self) {
        match self {
            Engine::Single(sim) => sim.reset_stats(),
            Engine::Multi(mc) => mc.reset_stats(),
        }
    }

    fn report(&self) -> RunReport {
        match self {
            Engine::Single(sim) => sim.report(),
            Engine::Multi(mc) => mc.report(),
        }
    }
}

/// A warmed-up simulator and its workload, ready to measure.
struct Prepared {
    engine: Engine,
    workload: WorkloadInstance,
    setup: Duration,
}

/// Set-up: boots a kernel, instantiates the workload, builds the
/// simulator and runs the warm-up (`warm_up`, in slices). Everything
/// before the clock starts; reference samples are not counted.
fn prepare(res: &Resolved, seed: u64, reference: &mut Reference) -> Result<Prepared, String> {
    let start = Instant::now();
    let (kernel, mut workload) = instantiate(res, seed)?;
    let mut config = SystemConfig::isca2016();
    config.hierarchy = hvc_cache::HierarchyConfig::isca2016(res.def.cores);
    let sim = SystemSim::new(kernel, config, res.scheme);
    let mut engine = if res.def.cores > 1 {
        Engine::Multi(McSim::new(sim, MC_QUANTUM))
    } else {
        Engine::Single(sim)
    };
    let mut setup = start.elapsed();
    setup += engine.advance(&mut workload, res.def.warm, WARM_SLICES, reference);
    let start = Instant::now();
    engine.drain();
    engine.reset_stats();
    setup += start.elapsed();
    Ok(Prepared {
        engine,
        workload,
        setup,
    })
}

/// Boots a kernel with the workload's filter strategy and instantiates
/// the workload on it.
fn instantiate(res: &Resolved, seed: u64) -> Result<(Kernel, WorkloadInstance), String> {
    let mut kernel = Kernel::new(PHYS_BYTES, res.policy);
    kernel.set_filter_kind(res.filter);
    let workload = res
        .spec
        .instantiate(&mut kernel, seed)
        .map_err(|e| format!("{}: instantiating the workload: {e}", res.def.name))?;
    Ok((kernel, workload))
}

/// FNV-1a over the report's canonical serialization — the bytes the
/// golden-report test pins.
pub fn digest(report: &RunReport, scheme: &str) -> u64 {
    run_report_value(report, &[], scheme, true)
        .to_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Host times of one untraced fresh run, as measured.
#[derive(Clone, Copy, Debug)]
pub struct Times {
    /// Set-up seconds.
    pub setup_s: f64,
    /// Measured references per host second.
    pub refs_per_s: f64,
    /// Median ns per operation of the reference kernel during the run.
    pub reference_ns_per_op: f64,
}

impl Times {
    /// How many times slower than nominal the host ran.
    fn slowdown(&self) -> f64 {
        self.reference_ns_per_op / Reference::NOMINAL_NS_PER_OP
    }

    /// Refs per second at the nominal host speed.
    pub fn nominal_refs_per_s(&self) -> f64 {
        self.refs_per_s * self.slowdown()
    }

    /// Set-up seconds at the nominal host speed.
    pub fn nominal_setup_s(&self) -> f64 {
        self.setup_s / self.slowdown()
    }
}

/// One untraced fresh run.
pub struct Sample {
    /// Its host times.
    pub times: Times,
    /// The measured report.
    pub report: RunReport,
}

/// Prepares a fresh simulator and times its measured window (`run`, or
/// `feed` then `drain`, in slices).
pub fn timed_run(res: &Resolved, seed: u64, reference: &mut Reference) -> Result<Sample, String> {
    let mut p = prepare(res, seed, reference)?;
    let mut measured = p
        .engine
        .advance(&mut p.workload, res.def.refs, MEASURE_SLICES, reference);
    let start = Instant::now();
    p.engine.drain();
    let report = p.engine.report();
    measured += start.elapsed();
    Ok(Sample {
        times: Times {
            setup_s: p.setup.as_secs_f64(),
            refs_per_s: report.refs as f64 / measured.as_secs_f64(),
            reference_ns_per_op: reference.take_ns_per_op(),
        },
        report,
    })
}

/// The outcome of a measurement: repeated fresh runs of one workload.
pub struct Measurement {
    /// Runs started.
    pub attempted: usize,
    /// Runs that panicked, failed, or produced the wrong digest.
    pub failed: usize,
    /// Host times of each good run.
    pub runs: Vec<Times>,
    /// Digest of the first run that produced a report.
    pub digest: Option<u64>,
    /// Report of the last good run.
    pub report: Option<RunReport>,
}

/// Runs `f` and turns a panic or an error into a logged failure.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Some(value),
        Ok(Err(e)) => {
            eprintln!("{what} failed: {e}");
            None
        }
        Err(_) => {
            eprintln!("{what} panicked");
            None
        }
    }
}

/// Makes fresh runs until `seconds` have passed (at least [`MIN_RUNS`]):
/// a run starts only when the previous one suggests it will end in time.
/// Every run's digest must equal the table's digest for `seed`, or, for
/// a seed the table does not pin, the first run's.
pub fn measure(res: &Resolved, seed: u64, seconds: f64) -> Measurement {
    let mut m = Measurement {
        attempted: 0,
        failed: 0,
        runs: Vec::new(),
        digest: None,
        report: None,
    };
    let mut reference = Reference::new();
    let mut want = res.def.expected_digest(seed);
    let start = Instant::now();
    let mut last = 0.0;
    while m.attempted < MIN_RUNS
        || (m.attempted < MAX_RUNS && start.elapsed().as_secs_f64() + last <= seconds)
    {
        let began = Instant::now();
        m.attempted += 1;
        let label = format!("{} run {}", res.def.name, m.attempted);
        if let Some(sample) = guarded(&label, || timed_run(res, seed, &mut reference)) {
            let got = digest(&sample.report, res.def.scheme);
            let want = *want.get_or_insert(got);
            m.digest.get_or_insert(got);
            let t = sample.times;
            eprintln!(
                "{label}: setup {:.4} s, {:.1} refs/s, reference {:.3} ns/op, digest {got:016x}",
                t.setup_s, t.refs_per_s, t.reference_ns_per_op
            );
            if got == want {
                m.runs.push(t);
                m.report = Some(sample.report);
            } else {
                eprintln!("{label}: digest {got:016x} differs from {want:016x}");
                m.failed += 1;
            }
        } else {
            m.failed += 1;
        }
        last = began.elapsed().as_secs_f64();
    }
    m
}

/// Host time of a traced run, split at the public calls it makes.
pub struct Trace {
    /// The measured report (must equal the untraced run's).
    pub report: RunReport,
    /// Seconds in `next_item` + `take_churn_ops` (plain engine only).
    pub next_item_s: f64,
    /// Seconds in windows without churn: `step_batch` on the plain
    /// engine, `feed` chunks that issued no shootdown on the driver.
    pub step_s: f64,
    /// Seconds in churn: `apply_churn` on the plain engine, `feed`
    /// chunks that issued a shootdown on the driver.
    pub churn_s: f64,
    /// Seconds in the final `McSim::drain` (driver only).
    pub drain_s: f64,
    /// Seconds of the whole traced loop.
    pub wall_s: f64,
    /// Host microseconds per window: `step_batch` plus any
    /// `apply_churn` of one 64-ref window on the plain engine, one
    /// `feed` chunk of `MC_QUANTUM × cores` refs on the driver.
    pub windows_us: Vec<f64>,
    /// Windows that applied churn.
    pub churn_windows: u64,
}

impl Trace {
    /// Share of the traced wall time the recorded spans cover.
    pub fn phase_sum_share(&self) -> f64 {
        (self.next_item_s + self.step_s + self.churn_s + self.drain_s) / self.wall_s
    }

    /// Measured references per host second, tracing included.
    pub fn refs_per_s(&self) -> f64 {
        self.report.refs as f64 / self.wall_s
    }
}

/// A fresh run whose measured window re-drives the engine's own loop
/// with a span around each public call.
pub fn traced_run(res: &Resolved, seed: u64) -> Result<Trace, String> {
    let p = prepare(res, seed, &mut Reference::new())?;
    let refs = res.def.refs;
    Ok(match p.engine {
        Engine::Single(sim) => trace_single(sim, p.workload, refs),
        Engine::Multi(mc) => trace_multi(mc, p.workload, refs),
    })
}

/// The plain engine's `run` loop (`SystemSim::run_batched`): decode up
/// to one window ahead, ending it early at a churn event, then
/// `step_batch`, then `apply_churn`.
fn trace_single(mut sim: SystemSim, mut workload: WorkloadInstance, refs: usize) -> Trace {
    let mlp = workload.mlp();
    let mut batch = Vec::with_capacity(WINDOW);
    let (mut next_item, mut step, mut churn) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut windows_us = Vec::with_capacity(refs / WINDOW + 1);
    let mut churn_windows = 0;
    let mut remaining = refs;
    let start = Instant::now();
    while remaining > 0 {
        let t0 = Instant::now();
        batch.clear();
        let mut ops = None;
        while batch.len() < WINDOW.min(remaining) {
            batch.push(workload.next_item());
            if let Some(churn_ops) = workload.take_churn_ops() {
                ops = Some(churn_ops);
                break;
            }
        }
        remaining -= batch.len();
        let t1 = Instant::now();
        sim.step_batch(&batch, mlp);
        let mut t2 = Instant::now();
        next_item += t1 - t0;
        step += t2 - t1;
        if let Some(ops) = ops {
            sim.apply_churn(&ops);
            churn_windows += 1;
            let t3 = Instant::now();
            churn += t3 - t2;
            t2 = t3;
        }
        windows_us.push((t2 - t1).as_secs_f64() * 1e6);
    }
    let wall = start.elapsed().as_secs_f64();
    let report = sim.report();
    Trace {
        report,
        next_item_s: next_item.as_secs_f64(),
        step_s: step.as_secs_f64(),
        churn_s: churn.as_secs_f64(),
        drain_s: 0.0,
        wall_s: wall,
        windows_us,
        churn_windows,
    }
}

/// The driver's `run_to_completion` as `feed` chunks of one full
/// round of quanta, then `drain`. Feed granularity does not change the
/// schedule, so the report is bitwise the untraced one. Churn happens
/// inside `feed`, so a chunk counts as churn when the kernel's
/// shootdown counter moved during it.
fn trace_multi(mut mc: McSim, mut workload: WorkloadInstance, refs: usize) -> Trace {
    let chunk = MC_QUANTUM * mc.cores();
    let (mut step, mut churn) = (Duration::ZERO, Duration::ZERO);
    let mut windows_us = Vec::with_capacity(refs / chunk + 1);
    let mut churn_windows = 0;
    let mut remaining = refs;
    let start = Instant::now();
    while remaining > 0 {
        let n = chunk.min(remaining);
        let shootdowns = mc.sim().kernel().stats().shootdowns;
        let t0 = Instant::now();
        mc.feed(&mut workload, n);
        let spent = t0.elapsed();
        if mc.sim().kernel().stats().shootdowns == shootdowns {
            step += spent;
        } else {
            churn += spent;
            churn_windows += 1;
        }
        windows_us.push(spent.as_secs_f64() * 1e6);
        remaining -= n;
    }
    let t0 = Instant::now();
    mc.drain();
    let drain = t0.elapsed();
    let wall = start.elapsed().as_secs_f64();
    let report = mc.report();
    Trace {
        report,
        next_item_s: 0.0,
        step_s: step.as_secs_f64(),
        churn_s: churn.as_secs_f64(),
        drain_s: drain.as_secs_f64(),
        wall_s: wall,
        windows_us,
        churn_windows,
    }
}

/// Host nanoseconds per `next_item` + `take_churn_ops` of a generator
/// running alone: the measured window's items, after skipping the
/// warm-up's. Used where the engine generates items inside its own
/// calls (the multi-core driver's `feed`).
pub fn generator_ns(res: &Resolved, seed: u64) -> Result<f64, String> {
    let (_kernel, mut workload) = instantiate(res, seed)?;
    for _ in 0..res.def.warm {
        black_box(workload.next_item());
        black_box(workload.take_churn_ops());
    }
    let start = Instant::now();
    for _ in 0..res.def.refs {
        black_box(workload.next_item());
        black_box(workload.take_churn_ops());
    }
    Ok(start.elapsed().as_secs_f64() * 1e9 / res.def.refs as f64)
}

/// Work done per layer in a measured report: deterministic for a seed.
pub fn counts(r: &RunReport) -> Vec<(&'static str, Value)> {
    let t = &r.translation;
    let sum = |levels: &[hvc_cache::LevelStats]| levels.iter().map(|l| l.misses).sum::<u64>();
    let count = |name, n: u64| (name, Value::UInt(n));
    vec![
        count("filter.lookups", t.filter_lookups),
        count("filter.candidates", t.filter_candidates),
        count("filter.false_positives", t.false_positives),
        count("filter.reloads", t.filter_reloads),
        count("tlb.l1_lookups", t.l1_tlb_lookups),
        count("tlb.l2_lookups", t.l2_tlb_lookups),
        count("tlb.full_misses", r.baseline_tlb_misses),
        count("tlb.synonym_misses", t.synonym_tlb_misses),
        count("tlb.delayed_lookups", t.delayed_tlb_lookups),
        count("tlb.delayed_misses", t.delayed_tlb_misses),
        count("tlb.pte_reads", t.pte_reads),
        count("segment.sc_lookups", t.sc_lookups),
        count("segment.index_cache_accesses", t.index_cache_accesses),
        count("segment.table_accesses", t.segment_table_accesses),
        count("cache.l1d_misses", sum(&r.cache.l1d)),
        count("cache.l2_misses", sum(&r.cache.l2)),
        count("cache.llc_misses", r.cache.llc.misses),
        count("cache.memory_writebacks", r.cache.memory_writebacks),
        count("mem.dram_reads", r.dram.reads),
        count("mem.dram_writes", r.dram.writes),
        (
            "mem.row_hit_rate",
            Value::Float(r.dram.row_hit_rate().unwrap_or(0.0)),
        ),
        count("os.minor_faults", r.os.minor_faults),
        count("os.flushed_pages", r.os.flushed_pages),
        count("os.shootdowns", r.os.shootdowns),
        count("os.shootdown_ipis", r.os.shootdown_ipis),
        count("os.cow_breaks", r.os.cow_breaks),
        count("os.filter_insertions", r.os.filter_insertions),
        count("os.filter_rebuilds", r.os.filter_rebuilds),
        ("core.sim_ipc", Value::Float(r.ipc())),
    ]
}

/// The median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of `values`; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
