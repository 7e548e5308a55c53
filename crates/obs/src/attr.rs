//! Cycle attribution: explaining *where* memory-access cycles went.

use crate::hist::LatencyHistogram;
use hvc_types::Cycles;

/// The named components a demand memory access's cycles are split into.
///
/// Components are attributed at the latency-composition points of the
/// system model, so for every scheme the per-component cycles sum
/// exactly to the total cycles recorded in the memory-latency
/// histogram (`ObsReport::mem_latency.total()`), turning each scheme's
/// CPI gap into an itemized bill instead of a single number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// Demand access served by the L1 (data or instruction).
    L1Hit,
    /// Demand access served by the private L2.
    L2Hit,
    /// Demand access served by the shared LLC.
    LlcHit,
    /// Probe cost of an access that missed the whole hierarchy
    /// (the traversal latency charged before DRAM takes over).
    MissProbe,
    /// Conventional front-side TLB lookups charged on the critical path.
    FrontTlb,
    /// Synonym-TLB lookups for filter-flagged candidates (hybrid
    /// schemes).
    SynonymTlb,
    /// Front-side page walks (baseline scheme, and hybrid synonym
    /// resolution).
    FrontWalk,
    /// Delayed-TLB lookups after an LLC miss (delayed translation).
    DelayedTlb,
    /// Page walks triggered by delayed translation misses.
    DelayedWalk,
    /// Segment-cache probes of the many-segment translator.
    SegmentCache,
    /// Index-cache probes (including node fetches) of the many-segment
    /// translator.
    IndexCache,
    /// Hardware segment-table reads of the many-segment translator.
    SegmentTable,
    /// Main-memory access time.
    Dram,
    /// TLB-shootdown coherence cost exposed to a core: IPI issue and
    /// acknowledgement waits on the initiator, interrupt + flush time on
    /// each responder. Modeled after "Hardware Translation Coherence for
    /// Virtualized Systems" (arXiv 1701.07517).
    Shootdown,
}

impl Component {
    /// Every component, in the fixed serialization order.
    pub const ALL: [Component; 14] = [
        Component::L1Hit,
        Component::L2Hit,
        Component::LlcHit,
        Component::MissProbe,
        Component::FrontTlb,
        Component::SynonymTlb,
        Component::FrontWalk,
        Component::DelayedTlb,
        Component::DelayedWalk,
        Component::SegmentCache,
        Component::IndexCache,
        Component::SegmentTable,
        Component::Dram,
        Component::Shootdown,
    ];

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Component::L1Hit => "l1_hit",
            Component::L2Hit => "l2_hit",
            Component::LlcHit => "llc_hit",
            Component::MissProbe => "miss_probe",
            Component::FrontTlb => "front_tlb",
            Component::SynonymTlb => "synonym_tlb",
            Component::FrontWalk => "front_walk",
            Component::DelayedTlb => "delayed_tlb",
            Component::DelayedWalk => "delayed_walk",
            Component::SegmentCache => "segment_cache",
            Component::IndexCache => "index_cache",
            Component::SegmentTable => "segment_table",
            Component::Dram => "dram",
            Component::Shootdown => "shootdown",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// A per-component cycle ledger.
///
/// # Examples
///
/// ```
/// use hvc_obs::{Component, CycleAttribution};
/// use hvc_types::Cycles;
///
/// let mut a = CycleAttribution::default();
/// a.add(Component::L1Hit, Cycles::new(4));
/// a.add(Component::Dram, Cycles::new(180));
/// assert_eq!(a.total(), Cycles::new(184));
/// assert_eq!(a.get(Component::Dram), Cycles::new(180));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    cycles: [u64; 14],
}

impl CycleAttribution {
    /// Charges `cycles` to `component`.
    #[inline]
    pub fn add(&mut self, component: Component, cycles: Cycles) {
        self.cycles[component.index()] += cycles.get();
    }

    /// Cycles charged to one component.
    pub fn get(&self, component: Component) -> Cycles {
        Cycles::new(self.cycles[component.index()])
    }

    /// Sum over all components.
    pub fn total(&self) -> Cycles {
        Cycles::new(self.cycles.iter().sum())
    }

    /// All `(component, cycles)` pairs in the fixed order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, Cycles)> + '_ {
        Component::ALL
            .iter()
            .zip(self.cycles.iter())
            .map(|(&c, &n)| (c, Cycles::new(n)))
    }

    /// Removes up to `hidden` cycles from the ledger, draining
    /// components in their fixed declared order, and returns how many
    /// cycles were actually removed.
    ///
    /// This models latency hidden by overlap (e.g. delayed translation
    /// probed in parallel with the LLC access): the hidden cycles were
    /// spent by the structures but never exposed to the core, so they
    /// must leave the ledger for the sum-equals-total invariant to keep
    /// holding.
    pub fn clip(&mut self, hidden: Cycles) -> Cycles {
        let mut left = hidden.get();
        for n in self.cycles.iter_mut() {
            let take = (*n).min(left);
            *n -= take;
            left -= take;
            if left == 0 {
                break;
            }
        }
        Cycles::new(hidden.get() - left)
    }

    /// Adds `other`'s charges to `self`, component by component, so the
    /// merged total is the sum of the two totals.
    pub fn merge_from(&mut self, other: &Self) {
        for (dst, src) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *dst += *src;
        }
    }
}

/// The full observability record of one run's measured window: latency
/// distributions plus the cycle-attribution ledger. Lives inside
/// `RunReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// Distribution of demand memory-access latencies as charged to the
    /// core (one sample per retired memory reference, instruction
    /// fetches included when modelled).
    pub mem_latency: LatencyHistogram,
    /// Distribution of page-walk latencies (front-side and delayed).
    pub walk_latency: LatencyHistogram,
    /// Where those memory cycles went; components sum to
    /// `mem_latency.total()`.
    pub attribution: CycleAttribution,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ordered() {
        let names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "l1_hit");
        assert_eq!(names[12], "dram");
        assert_eq!(names[13], "shootdown");
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn add_get_total_roundtrip() {
        let mut a = CycleAttribution::default();
        a.add(Component::FrontTlb, Cycles::new(2));
        a.add(Component::FrontTlb, Cycles::new(3));
        a.add(Component::Dram, Cycles::new(100));
        assert_eq!(a.get(Component::FrontTlb), Cycles::new(5));
        assert_eq!(a.get(Component::L1Hit), Cycles::ZERO);
        assert_eq!(a.total(), Cycles::new(105));
        let collected: Vec<_> = a.iter().filter(|(_, n)| n.get() > 0).collect();
        assert_eq!(
            collected,
            vec![
                (Component::FrontTlb, Cycles::new(5)),
                (Component::Dram, Cycles::new(100)),
            ]
        );
    }

    #[test]
    fn clip_drains_in_declared_order() {
        let mut a = CycleAttribution::default();
        a.add(Component::DelayedTlb, Cycles::new(2));
        a.add(Component::DelayedWalk, Cycles::new(30));
        // 10 hidden cycles: the delayed TLB empties first, the walk
        // absorbs the rest.
        assert_eq!(a.clip(Cycles::new(10)), Cycles::new(10));
        assert_eq!(a.get(Component::DelayedTlb), Cycles::ZERO);
        assert_eq!(a.get(Component::DelayedWalk), Cycles::new(22));
        // Clipping more than the ledger holds reports the shortfall.
        assert_eq!(a.clip(Cycles::new(100)), Cycles::new(22));
        assert_eq!(a.total(), Cycles::ZERO);
    }

    #[test]
    fn merge_laws_hold() {
        let mut a = CycleAttribution::default();
        a.add(Component::L1Hit, Cycles::new(7));
        let mut b = CycleAttribution::default();
        b.add(Component::Dram, Cycles::new(11));
        let mut c = CycleAttribution::default();
        c.add(Component::L1Hit, Cycles::new(1));
        let sum = |x: &CycleAttribution, y: &CycleAttribution| {
            let mut out = x.clone();
            out.merge_from(y);
            out
        };
        assert_eq!(sum(&a, &CycleAttribution::default()), a);
        assert_eq!(sum(&a, &b), sum(&b, &a));
        assert_eq!(sum(&sum(&a, &b), &c), sum(&a, &sum(&b, &c)));
    }
}
