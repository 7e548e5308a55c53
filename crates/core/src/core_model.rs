//! A trace-driven, out-of-order-approximating core timing model.
//!
//! MARSSx86 models the paper's 5-issue, 128-ROB core cycle by cycle; the
//! figures we reproduce are *normalized*, so what matters is that IPC
//! responds to added or removed memory-path latency the way an OoO core's
//! does. This model captures the two first-order effects:
//!
//! * non-memory instructions retire `width` per cycle,
//! * each memory access exposes `max(0, latency - hidden)` cycles of
//!   stall, divided by the workload's memory-level parallelism (dependent
//!   pointer chases expose everything; GUPS-style independent misses
//!   overlap).

use hvc_types::Cycles;

/// The accumulating core model.
#[derive(Clone, Debug)]
pub struct CoreModel {
    width: u32,
    hidden: u64,
    instructions: u64,
    /// Fixed-point accumulator of issue cycles (per-item remainders).
    issue_insts: u64,
    stall_cycles: u64,
    /// Snapshot baselines set by [`CoreModel::mark`] (warm-up exclusion).
    mark_instructions: u64,
    mark_cycles: u64,
}

impl CoreModel {
    /// Creates a core retiring `width` instructions per cycle and hiding
    /// `hidden` cycles of each memory access in its OoO window.
    pub fn new(width: u32, hidden: u64) -> Self {
        assert!(width > 0, "core width must be positive");
        CoreModel {
            width,
            hidden,
            instructions: 0,
            issue_insts: 0,
            stall_cycles: 0,
            mark_instructions: 0,
            mark_cycles: 0,
        }
    }

    /// Marks the current point as the measurement origin: subsequent
    /// [`CoreModel::instructions`] / [`CoreModel::cycles`] readings
    /// exclude everything before the mark (warm-up exclusion). Absolute
    /// time ([`CoreModel::now`]) is unaffected.
    pub fn mark(&mut self) {
        self.mark_instructions = self.instructions;
        self.mark_cycles = self.now().get();
    }

    /// Retires `count` instructions (gap + the memory instruction).
    pub fn retire(&mut self, count: u64) {
        self.instructions += count;
        self.issue_insts += count;
    }

    /// Accounts a memory access of total `latency`, overlappable up to
    /// `mlp` ways.
    pub fn memory(&mut self, latency: Cycles, mlp: u32) {
        let exposed = latency.get().saturating_sub(self.hidden);
        self.stall_cycles += exposed / u64::from(mlp.max(1));
    }

    /// Charges `cycles` of un-overlappable stall — serialization events
    /// the OoO window cannot hide (TLB-shootdown IPI waits, interrupt
    /// handlers).
    pub fn stall(&mut self, cycles: Cycles) {
        self.stall_cycles += cycles.get();
    }

    /// Current absolute time (issue + stalls) — also the DRAM timestamp.
    pub fn now(&self) -> Cycles {
        Cycles::new(self.issue_insts / u64::from(self.width) + self.stall_cycles)
    }

    /// Instructions retired since the last [`CoreModel::mark`].
    pub fn instructions(&self) -> u64 {
        self.instructions - self.mark_instructions
    }

    /// Cycles elapsed since the last [`CoreModel::mark`].
    pub fn cycles(&self) -> u64 {
        self.now().get() - self.mark_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_compute_ipc_equals_width() {
        let mut c = CoreModel::new(4, 12);
        c.retire(4000);
        assert_eq!(c.instructions(), 4000);
        assert_eq!(c.cycles(), 1000);
    }

    #[test]
    fn mark_restarts_instructions_and_cycles_from_zero() {
        let mut c = CoreModel::new(4, 12);
        c.retire(4000);
        c.memory(Cycles::new(212), 1);
        c.mark();
        assert_eq!((c.instructions(), c.cycles()), (0, 0));
        c.retire(400);
        assert_eq!((c.instructions(), c.cycles()), (400, 100));
        assert_eq!(
            c.now().get(),
            1000 + 200 + 100,
            "absolute time keeps running"
        );
    }

    #[test]
    fn short_latencies_are_hidden() {
        let mut c = CoreModel::new(4, 12);
        c.retire(400);
        c.memory(Cycles::new(10), 1);
        assert_eq!(c.cycles(), 100, "L1/L2-hit latency fully hidden");
    }

    #[test]
    fn long_latency_stalls_scale_with_mlp() {
        let mut a = CoreModel::new(4, 12);
        a.retire(4);
        a.memory(Cycles::new(212), 1);
        let serial = a.cycles();

        let mut b = CoreModel::new(4, 12);
        b.retire(4);
        b.memory(Cycles::new(212), 8);
        let overlapped = b.cycles();
        assert_eq!(serial, 1 + 200);
        assert_eq!(overlapped, 1 + 25);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = CoreModel::new(0, 0);
    }
}
