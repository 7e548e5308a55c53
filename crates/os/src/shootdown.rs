//! TLB-shootdown cost model.
//!
//! When the kernel mutates an address space (unmap, permission
//! downgrade, CoW break, frame free, synonym promotion) it must make
//! every core that may cache stale translations discard them. On real
//! hardware that is an inter-processor-interrupt (IPI) round: the
//! initiating core issues IPIs, spins until every responder
//! acknowledges, and each responder takes an interrupt, runs the flush
//! handler, and resumes. *Hardware Translation Coherence for Virtualized
//! Systems* (arXiv 1701.07517) measures this software protocol at tens
//! of thousands of cycles per round on multi-tenant workloads, dominated
//! by the interrupt delivery and acknowledgement waits rather than the
//! invalidations themselves.
//!
//! [`ShootdownModel`] reduces that protocol to three charges:
//!
//! * an **initiator** charge — IPI issue plus the acknowledgement wait,
//!   paid once per shootdown round on the core that ran the mutation,
//! * a **responder** charge — interrupt entry, flush handler, and return,
//!   paid once by every core that must invalidate, and
//! * a **zero-responder fast path** — when the mutated space is
//!   resident on no other core, the initiating core flushes its own
//!   structures and no IPI round happens at all.
//!
//! The constants are round numbers in the range the paper reports for
//! bare-metal Linux (interrupt delivery ~O(µs) end to end); they are
//! deliberately coarse — the point is the *scaling shape* (cost grows
//! with responder count, vanishes for core-private spaces), not
//! cycle-accurate interrupt timing.

/// Cycle costs of one directed TLB-shootdown round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShootdownModel {
    /// Initiator cost of issuing the IPIs (APIC writes, cpumask setup).
    pub ipi_issue: u64,
    /// Initiator cost of waiting for all acknowledgements once at least
    /// one responder exists (the spin-wait until the last core checks
    /// in).
    pub ack_wait: u64,
    /// Per-responder cost: interrupt entry, flush handler, return.
    pub responder: u64,
}

impl Default for ShootdownModel {
    fn default() -> Self {
        ShootdownModel {
            ipi_issue: 500,
            ack_wait: 1500,
            responder: 1200,
        }
    }
}

/// The cycle bill of one shootdown round, split by who pays it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShootdownCost {
    /// Cycles the initiating core stalls (IPI issue + ack wait).
    pub initiator: u64,
    /// Cycles *each* responder core stalls.
    pub per_responder: u64,
}

impl ShootdownModel {
    /// Cost of a round reaching `responders` other cores. Zero
    /// responders is the zero-responder fast path: no IPIs, no stall.
    #[must_use]
    pub fn round(&self, responders: usize) -> ShootdownCost {
        if responders == 0 {
            return ShootdownCost::default();
        }
        ShootdownCost {
            initiator: self.ipi_issue + self.ack_wait,
            per_responder: self.responder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_is_free() {
        let m = ShootdownModel::default();
        assert_eq!(m.round(0), ShootdownCost::default());
    }

    #[test]
    fn responders_pay_each_and_initiator_pays_once() {
        let m = ShootdownModel::default();
        let one = m.round(1);
        let three = m.round(3);
        assert_eq!(one.initiator, m.ipi_issue + m.ack_wait);
        assert_eq!(one.initiator, three.initiator);
        assert_eq!(one.per_responder, m.responder);
        assert_eq!(three.per_responder, m.responder);
    }
}
