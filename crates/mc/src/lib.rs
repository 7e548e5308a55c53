//! The multi-core calls of the HVC simulator's benchmark.
//!
//! [`SystemSim`] runs every core count itself: per-core clocks, and a
//! quantum schedule that queues each reference on its address space's
//! home core and releases round-robin turns of [`QUANTUM`] references
//! once `cores × QUANTUM` are buffered ([`SystemSim::feed`],
//! [`SystemSim::drain`]). [`McSim`] only forwards the calls the
//! benchmark makes to it; every other caller uses [`SystemSim`]
//! directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hvc_core::{RunReport, SystemSim, QUANTUM};
use hvc_workloads::WorkloadInstance;

/// A [`SystemSim`] driven through `feed`, `drain`, `reset_stats` and
/// `report`.
pub struct McSim {
    sim: SystemSim,
}

impl McSim {
    /// Wraps `sim`.
    ///
    /// # Panics
    ///
    /// Panics unless `quantum` is [`QUANTUM`], the only schedule the
    /// simulator runs.
    pub fn new(sim: SystemSim, quantum: usize) -> Self {
        assert_eq!(quantum, QUANTUM, "the quantum is fixed at {QUANTUM}");
        McSim { sim }
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.sim.cores()
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &SystemSim {
        &self.sim
    }

    /// [`SystemSim::feed`].
    pub fn feed(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        self.sim.feed(workload, refs);
    }

    /// [`SystemSim::drain`].
    pub fn drain(&mut self) {
        self.sim.drain();
    }

    /// [`SystemSim::reset_stats`].
    pub fn reset_stats(&mut self) {
        self.sim.reset_stats();
    }

    /// [`SystemSim::report`].
    pub fn report(&self) -> RunReport {
        self.sim.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_core::{SystemConfig, TranslationScheme};
    use hvc_os::{AllocPolicy, Kernel};
    use hvc_workloads::apps;

    fn build(cores: usize) -> (SystemSim, WorkloadInstance) {
        let mut kernel = Kernel::new(4 << 30, AllocPolicy::DemandPaging);
        let wl = apps::fork_storm().instantiate(&mut kernel, 7).unwrap();
        let mut config = SystemConfig::isca2016();
        config.hierarchy = hvc_cache::HierarchyConfig::isca2016(cores);
        let sim = SystemSim::new(kernel, config, TranslationScheme::HybridDelayedTlb(1024));
        (sim, wl)
    }

    /// `SystemSim::run` on four cores keeps a clock per core: its report
    /// lists four cores that sum to the headline counts, and it equals
    /// the same stream fed through `McSim` and drained.
    #[test]
    fn four_core_run_reports_every_clock_and_matches_the_fed_stream() {
        let (mut sim, mut wl_a) = build(4);
        sim.warm_up(&mut wl_a, 4_000);
        let a = sim.run(&mut wl_a, 20_000);
        assert_eq!(a.per_core.len(), 4);
        assert!(a.per_core.iter().all(|c| c.instructions > 0));
        assert_eq!(
            a.per_core.iter().map(|c| c.instructions).sum::<u64>(),
            a.instructions
        );
        assert_eq!(a.per_core.iter().map(|c| c.cycles).sum::<u64>(), a.cycles);

        let (sim, mut wl_b) = build(4);
        let mut mc = McSim::new(sim, QUANTUM);
        mc.feed(&mut wl_b, 4_000);
        mc.drain();
        mc.reset_stats();
        mc.feed(&mut wl_b, 20_000);
        mc.drain();
        assert_eq!(mc.cores(), 4);
        assert_eq!(format!("{a:?}"), format!("{:?}", mc.report()));
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn another_quantum_is_rejected() {
        let _ = McSim::new(build(1).0, 32);
    }
}
