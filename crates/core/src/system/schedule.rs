//! The quantum schedule: how [`SystemSim::feed`] spreads a reference
//! stream over the simulated cores.
//!
//! Each reference is queued on the home core of its address space (the
//! placement that also picks the per-core TLBs). Cores then take turns
//! round-robin from a persistent rotor, each turn stepping up to
//! [`QUANTUM`] of its queued references on that core's clock, so cores
//! interleave finely enough that the shared LLC and DRAM see a mixed
//! access stream.
//!
//! The schedule is a pure function of the fed stream: a turn is
//! released only once `cores × QUANTUM` references are buffered, the
//! rotor persists across calls, and only [`SystemSim::drain`] runs what
//! is left below that mark. Feed granularity is therefore invisible —
//! feeding a run in many small calls executes the same schedule,
//! bitwise, as one call — and with one core the schedule is stream
//! order.
//!
//! A churn batch ([`WorkloadInstance::take_churn_ops`]) is queued on its
//! initiator's home core at the point of that core's stream where the
//! generator emitted it, so the kernel mutation happens at the same
//! stream position whatever the core count. It costs no turn budget,
//! but a turn whose budget is spent leaves it for the core's next turn.

use super::SystemSim;
use hvc_types::TraceItem;
use hvc_workloads::{ChurnOps, WorkloadInstance};
use std::collections::VecDeque;
use std::mem;

/// References a core steps per scheduling turn. It shapes how cores
/// interleave on the shared LLC, so it is part of every multi-core
/// experiment's definition rather than a knob.
pub const QUANTUM: usize = 64;

/// One core's queued work.
#[derive(Default)]
pub(super) struct CoreQueue {
    /// References in stream order; those before `head` have stepped.
    items: Vec<TraceItem>,
    head: usize,
    /// Churn batches in stream order, each with the number of this
    /// core's references that precede it.
    churn: VecDeque<(u64, ChurnOps)>,
    /// References ever stepped.
    stepped: u64,
}

impl CoreQueue {
    fn is_empty(&self) -> bool {
        self.head == self.items.len() && self.churn.is_empty()
    }

    /// The references that may step before the next churn batch, at
    /// most `budget` of them.
    fn ready(&self, budget: usize) -> &[TraceItem] {
        let before_churn = self
            .churn
            .front()
            .map_or(usize::MAX, |&(at, _)| (at - self.stepped) as usize);
        let queued = &self.items[self.head..];
        &queued[..budget.min(before_churn).min(queued.len())]
    }

    /// Marks `n` references stepped, dropping the stepped prefix once it
    /// outweighs what is still queued.
    fn consume(&mut self, n: usize) {
        self.head += n;
        self.stepped += n as u64;
        if self.head > self.items.len() - self.head {
            self.items.drain(..self.head);
            self.head = 0;
        }
    }

    /// The churn batch due before the next reference, if any.
    fn due_churn(&mut self) -> Option<ChurnOps> {
        match self.churn.front() {
            Some(&(at, _)) if at == self.stepped => self.churn.pop_front().map(|(_, ops)| ops),
            _ => None,
        }
    }
}

/// The per-core queues and the rotor.
pub(super) struct Schedule {
    queues: Vec<CoreQueue>,
    /// Next core considered for a turn.
    rotor: usize,
    /// References queued across all cores (churn batches ride free).
    buffered: usize,
    /// Memory-level-parallelism hint of the most recently fed workload.
    mlp: u32,
}

impl Schedule {
    pub(super) fn new(cores: usize) -> Self {
        Schedule {
            queues: (0..cores).map(|_| CoreQueue::default()).collect(),
            rotor: 0,
            buffered: 0,
            mlp: 1,
        }
    }
}

impl SystemSim {
    /// Generates `refs` references from `workload`, queues each on its
    /// home core and runs turns while `cores × QUANTUM` references are
    /// buffered. Up to that many minus one may stay queued afterwards;
    /// see [`SystemSim::drain`].
    pub fn feed(&mut self, workload: &mut WorkloadInstance, refs: usize) {
        self.schedule.mlp = workload.mlp();
        let high_water = self.cores() * QUANTUM;
        for _ in 0..refs {
            let item = workload.next_item();
            let home = self.placement_of(item.mref.asid);
            self.schedule.queues[home].items.push(item);
            self.schedule.buffered += 1;
            if let Some(ops) = workload.take_churn_ops() {
                let core = ops.initiator.map_or(home, |a| self.placement_of(a));
                let queue = &mut self.schedule.queues[core];
                let at = queue.stepped + (queue.items.len() - queue.head) as u64;
                queue.churn.push_back((at, ops));
            }
            while self.schedule.buffered >= high_water {
                self.run_turn();
            }
        }
    }

    /// Runs everything queued, then the churn batches left behind the
    /// last references. A run drains once at the end of warm-up and once
    /// before its report: draining anywhere else would make the
    /// schedule, and so the statistics, depend on where feed calls fall.
    pub fn drain(&mut self) {
        while self.schedule.buffered > 0 {
            self.run_turn();
        }
        for core in 0..self.schedule.queues.len() {
            while let Some((_, ops)) = self.schedule.queues[core].churn.pop_front() {
                self.apply_churn(&ops);
            }
        }
    }

    /// One turn of the next core after the rotor with queued work: up to
    /// [`QUANTUM`] references through the batched pipeline, with the
    /// churn batches due among them applied in order.
    fn run_turn(&mut self) {
        let cores = self.schedule.queues.len();
        let core = (0..cores)
            .map(|i| (self.schedule.rotor + i) % cores)
            .find(|&c| !self.schedule.queues[c].is_empty())
            .expect("a turn needs queued work");
        self.schedule.rotor = (core + 1) % cores;
        let mlp = self.schedule.mlp;
        let mut queue = mem::take(&mut self.schedule.queues[core]);
        let mut budget = QUANTUM;
        loop {
            let items = queue.ready(budget);
            let n = items.len();
            if n > 0 {
                self.step_batch(items, mlp);
                queue.consume(n);
                self.schedule.buffered -= n;
                budget -= n;
            }
            if budget == 0 {
                break;
            }
            match queue.due_churn() {
                Some(ops) => self.apply_churn(&ops),
                None => break,
            }
        }
        self.schedule.queues[core] = queue;
    }
}
