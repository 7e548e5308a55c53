//! Multi-core driver for the HVC simulator.
//!
//! [`McSim`] wraps a [`SystemSim`] and time-multiplexes it over N
//! simulated cores, each with its own [`CoreModel`] clock. References
//! are routed to the home core of their address space (the same
//! placement the single-core engine uses to pick per-core TLBs) and
//! buffered in per-core queues; cores execute round-robin in bounded
//! *quanta* of `quantum` references each, so cores interleave at a
//! granularity coarse enough to amortize clock swaps but fine enough
//! that the shared LLC and DRAM see a realistic mixed access stream.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Dispatch is a pure function of the fed reference
//!   stream: a quantum is released only once `cores × quantum`
//!   references are buffered, queues are drained round-robin from a
//!   persistent rotor, and only [`McSim::drain`] — called at the end of
//!   warm-up and before the report — empties the queues. Feed
//!   granularity is therefore invisible: feeding a run in many small
//!   calls executes the same schedule, bitwise, as one call.
//! * **Single-core equivalence.** With one core there is one queue and
//!   one clock, so references execute in stream order on a fresh clock
//!   and every shootdown round takes the free zero-responder fast
//!   path: a drained `cores = 1` run is bitwise identical to plain
//!   [`SystemSim::run`]. The equivalence gate in
//!   `tests/equivalence_golden.rs` enforces this.
//!
//! Address-space churn ([`WorkloadInstance::take_churn_ops`]) is
//! enqueued as an OS marker on the initiating process's home queue, so
//! mutations happen at the same point of the reference stream whatever
//! the core count, and the resulting directed TLB shootdowns are
//! priced by the `SystemSim` cost model (initiator IPI issue + ack
//! wait, per-responder interrupt + flush).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hvc_core::{CoreModel, PerCoreStats, RunReport, SystemSim};
use hvc_workloads::{ChurnOps, WorkloadInstance};
use std::collections::VecDeque;
use std::mem;

/// One buffered unit of work for a core: a memory reference, or an
/// address-space mutation batch that must execute at this point of the
/// core's stream.
#[derive(Clone, Debug)]
enum QueueEntry {
    /// A memory reference (counts toward the quantum).
    Item(hvc_types::TraceItem),
    /// An OS churn batch (applied in order, free of quantum budget).
    Os(ChurnOps),
}

/// Round-robin multi-core driver over a shared [`SystemSim`].
///
/// Construct with [`McSim::new`], then either mirror the single-core
/// API ([`warm_up`](McSim::warm_up) /
/// [`run_to_completion`](McSim::run_to_completion)) or compose a run
/// from [`feed`](McSim::feed) + [`drain`](McSim::drain) +
/// [`reset_stats`](McSim::reset_stats) + [`report`](McSim::report).
pub struct McSim {
    sim: SystemSim,
    /// Per-core clocks, swapped into `sim` for the duration of a
    /// quantum. Statistics marks live in the clocks, so per-core
    /// instruction/cycle counts survive the swap protocol.
    clocks: Vec<CoreModel>,
    queues: Vec<VecDeque<QueueEntry>>,
    /// Next core considered for dispatch (persists across calls so
    /// feed boundaries cannot perturb the schedule).
    rotor: usize,
    /// Buffered `Item` entries across all queues (`Os` markers ride
    /// along for free).
    buffered: usize,
    quantum: usize,
    /// Memory-level-parallelism hint of the most recently fed
    /// workload, reused by `drain`.
    mlp: u32,
    /// Reusable window buffer for [`McSim::dispatch_quantum`]: runs of
    /// consecutive references are handed to the batched pipeline
    /// ([`SystemSim::step_batch`]) in one call, with no allocation per
    /// quantum.
    batch: Vec<hvc_types::TraceItem>,
}

impl McSim {
    /// Wraps `sim`, giving each of its cores a private clock and an
    /// empty queue. `quantum` is the number of references a core
    /// executes per turn; it shapes interleaving granularity only and
    /// must be positive.
    pub fn new(sim: SystemSim, quantum: usize) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        let cores = sim.cores();
        McSim {
            clocks: (0..cores).map(|_| sim.new_clock()).collect(),
            queues: (0..cores).map(|_| VecDeque::new()).collect(),
            sim,
            rotor: 0,
            buffered: 0,
            quantum,
            mlp: 1,
            batch: Vec::with_capacity(quantum),
        }
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.clocks.len()
    }

    /// The wrapped simulator (for end-of-run gauges such as
    /// synonym-filter occupancy).
    pub fn sim(&self) -> &SystemSim {
        &self.sim
    }

    /// Generates `refs` references from `workload`, routes each to its
    /// home core's queue, and executes full quanta as they become
    /// ready. Up to `cores × quantum − 1` references may remain
    /// buffered afterwards; see [`drain`](McSim::drain).
    pub fn feed(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        self.mlp = workload.mlp();
        for _ in 0..refs {
            let item = workload.next_item();
            let home = self.sim.placement_of(item.mref.asid);
            self.queues[home].push_back(QueueEntry::Item(item));
            self.buffered += 1;
            if let Some(ops) = workload.take_churn_ops() {
                let q = ops
                    .initiator
                    .map(|asid| self.sim.placement_of(asid))
                    .unwrap_or(home);
                self.queues[q].push_back(QueueEntry::Os(ops));
            }
            self.pump();
        }
    }

    /// Executes all buffered work. Call once at the end of warm-up and
    /// once before the report — never in between, or the schedule (and
    /// thus the statistics) would depend on where the feed calls fall.
    pub fn drain(&mut self) {
        while self.buffered > 0 {
            self.dispatch_quantum();
        }
        // Apply any trailing OS markers (zero buffered items left).
        for core in 0..self.queues.len() {
            while let Some(entry) = self.queues[core].pop_front() {
                match entry {
                    QueueEntry::Os(ops) => self.sim.apply_churn(&ops),
                    QueueEntry::Item(_) => unreachable!("drained queue holds an item"),
                }
            }
        }
    }

    /// Releases quanta while every core's worth of work is buffered.
    fn pump(&mut self) {
        let high_water = self.clocks.len() * self.quantum;
        while self.buffered >= high_water {
            self.dispatch_quantum();
        }
    }

    /// Runs one quantum on the next non-empty queue after the rotor:
    /// swaps that core's clock into the simulator, steps up to
    /// `quantum` references (applying interleaved OS markers in
    /// order), and swaps the clock back out.
    ///
    /// Runs of consecutive references go through the batched pipeline
    /// ([`SystemSim::step_batch`]); each OS marker ends the current run
    /// so mutations land at exactly the same stream position as
    /// one-at-a-time stepping. A marker still costs no quantum budget
    /// and is still deferred to the core's next turn if the budget is
    /// already spent when it reaches the queue head.
    fn dispatch_quantum(&mut self) {
        let cores = self.queues.len();
        let core = (0..cores)
            .map(|i| (self.rotor + i) % cores)
            .find(|&c| !self.queues[c].is_empty())
            .expect("dispatch_quantum called with all queues empty");
        self.rotor = (core + 1) % cores;

        mem::swap(self.sim.core_mut(), &mut self.clocks[core]);
        let mut batch = mem::take(&mut self.batch);
        let mut budget = self.quantum;
        while budget > 0 {
            batch.clear();
            while budget > 0 {
                match self.queues[core].front() {
                    Some(&QueueEntry::Item(item)) => {
                        self.queues[core].pop_front();
                        batch.push(item);
                        budget -= 1;
                    }
                    _ => break,
                }
            }
            if !batch.is_empty() {
                self.buffered -= batch.len();
                self.sim.step_batch(&batch, self.mlp);
            }
            if budget == 0 {
                break;
            }
            match self.queues[core].pop_front() {
                Some(QueueEntry::Os(ops)) => self.sim.apply_churn(&ops),
                Some(QueueEntry::Item(_)) => unreachable!("items are batched above"),
                None => break,
            }
        }
        self.batch = batch;
        mem::swap(self.sim.core_mut(), &mut self.clocks[core]);
    }

    /// Resets all statistics (queues, clocks and microarchitectural
    /// state are kept) so measurements exclude what came before —
    /// the multi-core analogue of [`SystemSim::reset_stats`].
    pub fn reset_stats(&mut self) {
        self.sim.reset_stats();
        for clock in &mut self.clocks {
            clock.mark();
        }
    }

    /// Reports statistics since the last reset. Instructions and
    /// cycles are summed over the per-core clocks (the wrapped
    /// simulator's own clock slot is idle between quanta), and
    /// `per_core` carries the per-core breakdown.
    pub fn report(&self) -> RunReport {
        let mut report = self.sim.report();
        report.per_core = self
            .clocks
            .iter()
            .map(|c| PerCoreStats {
                instructions: c.instructions(),
                cycles: c.cycles(),
            })
            .collect();
        report.instructions = report.per_core.iter().map(|c| c.instructions).sum();
        report.cycles = report.per_core.iter().map(|c| c.cycles).sum();
        report
    }

    /// Feeds `refs` warm-up references, drains them, and resets
    /// statistics — the multi-core analogue of [`SystemSim::warm_up`].
    pub fn warm_up(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        self.feed(workload, refs);
        self.drain();
        self.reset_stats();
    }

    /// Feeds `refs` references, drains every queue, and reports — the
    /// multi-core analogue of a single-window [`SystemSim::run`].
    pub fn run_to_completion(&mut self, workload: &mut WorkloadInstance, refs: usize) -> RunReport {
        self.feed(workload, refs);
        self.drain();
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_core::{SystemConfig, SystemSim, TranslationScheme};
    use hvc_os::{AllocPolicy, Kernel};
    use hvc_workloads::{apps, WorkloadInstance, WorkloadSpec};

    fn config(cores: usize) -> SystemConfig {
        let mut config = SystemConfig::isca2016();
        config.hierarchy = hvc_cache::HierarchyConfig::isca2016(cores);
        config
    }

    fn build(spec: &WorkloadSpec, cores: usize, seed: u64) -> (SystemSim, WorkloadInstance) {
        let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
        let wl = spec.instantiate(&mut kernel, seed).unwrap();
        let sim = SystemSim::new(
            kernel,
            config(cores),
            TranslationScheme::HybridDelayedTlb(1024),
        );
        (sim, wl)
    }

    /// With one core, the multi-core driver is bitwise identical to
    /// the plain engine — including on a churning workload, where
    /// every shootdown round must take the free fast path.
    #[test]
    fn single_core_matches_plain_engine() {
        for spec in [apps::fork_storm(), apps::shm_heavy(), apps::postgres()] {
            let (mut plain, mut wl_a) = build(&spec, 1, 7);
            plain.warm_up(&mut wl_a, 4_000);
            let a = plain.run(&mut wl_a, 12_000);

            let (sim, mut wl_b) = build(&spec, 1, 7);
            let mut mc = McSim::new(sim, 64);
            mc.warm_up(&mut wl_b, 4_000);
            let b = mc.run_to_completion(&mut wl_b, 12_000);

            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "cores=1 divergence on {}",
                spec.name
            );
            assert_eq!(b.os.shootdown_ipis, 0, "one core can have no responders");
        }
    }

    /// Four cores running the fork-storm preset generate directed
    /// shootdowns (master recycles a worker on another core), the
    /// per-core breakdown covers every core, and it sums to the
    /// headline instruction/cycle counts.
    #[test]
    fn fork_storm_on_four_cores_pays_for_shootdowns() {
        let (sim, mut wl) = build(&apps::fork_storm(), 4, 7);
        let mut mc = McSim::new(sim, 64);
        mc.warm_up(&mut wl, 4_000);
        let report = mc.run_to_completion(&mut wl, 40_000);

        assert_eq!(report.per_core.len(), 4);
        assert!(report.per_core.iter().all(|c| c.instructions > 0));
        assert_eq!(
            report.per_core.iter().map(|c| c.instructions).sum::<u64>(),
            report.instructions
        );
        assert_eq!(
            report.per_core.iter().map(|c| c.cycles).sum::<u64>(),
            report.cycles
        );
        assert!(
            report.os.shootdown_ipis > 0,
            "worker recycling must cross cores: {:?}",
            report.os
        );
        assert!(report.os.shootdown_cycles > 0);
        let shoot = report
            .obs
            .attribution
            .get(hvc_obs::Component::Shootdown)
            .get();
        assert!(shoot > 0, "shootdown cycles must be attributed");
    }

    /// The shm-remap preset shoots down every attached process at
    /// once, so rounds are broadcast-shaped: responder IPIs arrive in
    /// batches of cores − 1 (all other cores host an attachment).
    #[test]
    fn shm_heavy_broadcasts() {
        let (sim, mut wl) = build(&apps::shm_heavy(), 4, 7);
        let mut mc = McSim::new(sim, 64);
        mc.warm_up(&mut wl, 4_000);
        let report = mc.run_to_completion(&mut wl, 40_000);
        assert!(report.os.shootdown_ipis >= 3, "{:?}", report.os);
    }

    /// The schedule is a pure function of the fed stream: feeding in
    /// dribbles equals feeding in one call.
    #[test]
    fn feed_granularity_is_invisible() {
        let spec = apps::shm_heavy();
        let (sim, mut wl_a) = build(&spec, 4, 3);
        let mut bulk = McSim::new(sim, 32);
        bulk.warm_up(&mut wl_a, 1_000);
        let a = bulk.run_to_completion(&mut wl_a, 10_000);

        let (sim, mut wl_b) = build(&spec, 4, 3);
        let mut dribble = McSim::new(sim, 32);
        dribble.warm_up(&mut wl_b, 1_000);
        for _ in 0..10 {
            dribble.feed(&mut wl_b, 1_000);
        }
        dribble.drain();
        let b = dribble.report();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// On several cores, a mid-run `report` and `reset_stats` leave the
    /// schedule alone, and each window counts exactly what ran after
    /// the reset before it: the windows' counters add up to one
    /// whole run's.
    #[test]
    fn windowed_reports_sum_to_whole_run() {
        let spec = apps::fork_storm();
        let (sim, mut wl_a) = build(&spec, 4, 11);
        let mut whole = McSim::new(sim, 64);
        whole.warm_up(&mut wl_a, 2_000);
        let a = whole.run_to_completion(&mut wl_a, 24_000);

        let (sim, mut wl_b) = build(&spec, 4, 11);
        let mut windowed = McSim::new(sim, 64);
        windowed.warm_up(&mut wl_b, 2_000);
        let mut sum = RunReport {
            per_core: vec![PerCoreStats::default(); 4],
            ..RunReport::default()
        };
        for (i, window) in [9_000usize, 9_000, 6_000].into_iter().enumerate() {
            windowed.feed(&mut wl_b, window);
            if i == 2 {
                windowed.drain();
            }
            let report = windowed.report();
            windowed.reset_stats();
            sum.instructions += report.instructions;
            sum.cycles += report.cycles;
            sum.refs += report.refs;
            sum.minor_faults += report.minor_faults;
            sum.os.shootdown_ipis += report.os.shootdown_ipis;
            sum.os.shootdown_cycles += report.os.shootdown_cycles;
            for (s, c) in sum.per_core.iter_mut().zip(&report.per_core) {
                s.instructions += c.instructions;
                s.cycles += c.cycles;
            }
        }
        assert_eq!(a.instructions, sum.instructions);
        assert_eq!(a.cycles, sum.cycles);
        assert_eq!(a.refs, sum.refs);
        assert_eq!(a.minor_faults, sum.minor_faults);
        assert_eq!(a.per_core, sum.per_core);
        assert_eq!(a.os.shootdown_ipis, sum.os.shootdown_ipis);
        assert_eq!(a.os.shootdown_cycles, sum.os.shootdown_cycles);
        assert!(a.os.shootdown_ipis > 0, "windows must span shootdowns");
    }
}
