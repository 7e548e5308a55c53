//! Property tests for the two merges a run report performs: per-core
//! walk histograms folded into one, and per-access attribution parts
//! folded into the run's ledger.

use hvc_obs::{Component, CycleAttribution, LatencyHistogram};
use hvc_types::Cycles;
use proptest::prelude::*;

// Counters stay below 2^40 so merging a handful of values can never
// overflow u64.
const MAX: u64 = 1 << 40;

fn cycle_attribution() -> impl Strategy<Value = CycleAttribution> {
    prop::collection::vec(0u64..MAX, Component::ALL.len()..Component::ALL.len() + 1).prop_map(|v| {
        let mut a = CycleAttribution::default();
        for (&c, &cycles) in Component::ALL.iter().zip(v.iter()) {
            a.add(c, Cycles::new(cycles));
        }
        a
    })
}

proptest! {
    /// Merging two histograms is exactly recording the union of their
    /// samples — count, totals, max, and every derived percentile agree.
    #[test]
    fn histogram_merge_is_union_of_samples(
        xs in prop::collection::vec(0u64..MAX, 0..40),
        ys in prop::collection::vec(0u64..MAX, 0..40),
    ) {
        let mut a = LatencyHistogram::default();
        for &x in &xs {
            a.record(Cycles::new(x));
        }
        let mut b = LatencyHistogram::default();
        for &y in &ys {
            b.record(Cycles::new(y));
        }
        let mut union = LatencyHistogram::default();
        for &v in xs.iter().chain(ys.iter()) {
            union.record(Cycles::new(v));
        }
        let mut merged = a;
        merged.merge_from(&b);
        prop_assert_eq!(&merged, &union);
        prop_assert_eq!(merged.p50(), union.p50());
        prop_assert_eq!(merged.p95(), union.p95());
        prop_assert_eq!(merged.p99(), union.p99());
    }

    /// Attribution totals are preserved by merging.
    #[test]
    fn attribution_merge_preserves_total(a in cycle_attribution(), b in cycle_attribution()) {
        let mut merged = a.clone();
        merged.merge_from(&b);
        prop_assert_eq!(merged.total(), a.total() + b.total());
    }
}
