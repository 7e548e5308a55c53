//! Property tests for the `MergeStats` algebra.
//!
//! Merging run statistics is only sound if merge behaves like
//! elementwise addition: **commutative** (parts finish in any order)
//! and **associative** (parts can be combined pairwise in any
//! grouping), with the default value as identity. These laws are
//! checked here for every stats struct that merges.

use hvc_cache::{CacheStats, LevelStats};
use hvc_core::{PerCoreStats, RunReport, TranslationCounters};
use hvc_mem::DramStats;
use hvc_obs::{Component, CycleAttribution, LatencyHistogram, ObsReport};
use hvc_os::KernelStats;
use hvc_tlb::{TlbStats, WalkerStats};
use hvc_types::{Cycles, MergeStats};
use proptest::prelude::*;

// Counters stay below 2^40 so merging a handful of values can never
// overflow u64.
const MAX: u64 = 1 << 40;

fn level_stats() -> impl Strategy<Value = LevelStats> {
    prop::collection::vec(0u64..MAX, 5..6).prop_map(|v| LevelStats {
        hits: v[0],
        misses: v[1],
        evictions: v[2],
        writebacks: v[3],
        invalidations: v[4],
    })
}

fn cache_stats() -> impl Strategy<Value = CacheStats> {
    (
        prop::collection::vec(level_stats(), 0..3),
        prop::collection::vec(level_stats(), 0..3),
        prop::collection::vec(level_stats(), 0..3),
        level_stats(),
        0u64..MAX,
        0u64..MAX,
    )
        .prop_map(|(l1i, l1d, l2, llc, ci, mw)| CacheStats {
            l1i,
            l1d,
            l2,
            llc,
            coherence_invalidations: ci,
            memory_writebacks: mw,
            ..Default::default()
        })
}

fn dram_stats() -> impl Strategy<Value = DramStats> {
    prop::collection::vec(0u64..MAX, 6..7).prop_map(|v| DramStats {
        reads: v[0],
        writes: v[1],
        row_hits: v[2],
        row_misses: v[3],
        row_conflicts: v[4],
        total_latency: Cycles::new(v[5]),
        ..Default::default()
    })
}

fn translation_counters() -> impl Strategy<Value = TranslationCounters> {
    prop::collection::vec(0u64..MAX, 20..21).prop_map(|v| TranslationCounters {
        l1_tlb_lookups: v[0],
        l2_tlb_lookups: v[1],
        filter_lookups: v[2],
        filter_candidates: v[3],
        false_positives: v[4],
        synonym_tlb_lookups: v[5],
        synonym_tlb_misses: v[6],
        delayed_tlb_lookups: v[7],
        delayed_tlb_misses: v[8],
        sc_lookups: v[9],
        index_cache_accesses: v[10],
        segment_table_accesses: v[11],
        pte_reads: v[12],
        shared_accesses: v[13],
        writeback_translations: v[14],
        filter_reloads: v[15],
        segment_table_rebuilds: v[16],
        enigma_lookups: v[17],
        prefetches: v[18],
        prefetches_blocked: v[19],
    })
}

fn latency_histogram() -> impl Strategy<Value = LatencyHistogram> {
    prop::collection::vec(0u64..MAX, 0..40).prop_map(|samples| {
        let mut h = LatencyHistogram::default();
        for s in samples {
            h.record(Cycles::new(s));
        }
        h
    })
}

fn cycle_attribution() -> impl Strategy<Value = CycleAttribution> {
    prop::collection::vec(0u64..MAX, Component::ALL.len()..Component::ALL.len() + 1).prop_map(|v| {
        let mut a = CycleAttribution::default();
        for (&c, &cycles) in Component::ALL.iter().zip(v.iter()) {
            a.add(c, Cycles::new(cycles));
        }
        a
    })
}

fn obs_report() -> impl Strategy<Value = ObsReport> {
    (
        latency_histogram(),
        latency_histogram(),
        cycle_attribution(),
    )
        .prop_map(|(mem_latency, walk_latency, attribution)| ObsReport {
            mem_latency,
            walk_latency,
            attribution,
        })
}

fn kernel_stats() -> impl Strategy<Value = KernelStats> {
    prop::collection::vec(0u64..MAX, 10..11).prop_map(|v| KernelStats {
        minor_faults: v[0],
        shootdowns: v[1],
        cow_breaks: v[2],
        flushed_pages: v[3],
        filter_insertions: v[4],
        filter_rebuilds: v[5],
        host_filter_rebuilds: v[6],
        shootdown_ipis: v[7],
        shootdown_fast_paths: v[8],
        shootdown_cycles: v[9],
    })
}

fn per_core_stats() -> impl Strategy<Value = PerCoreStats> {
    (0u64..MAX, 0u64..MAX).prop_map(|(instructions, cycles)| PerCoreStats {
        instructions,
        cycles,
    })
}

fn run_report() -> impl Strategy<Value = RunReport> {
    (
        (0u64..MAX, 0u64..MAX, 0u64..MAX, 0u64..MAX, 0u64..MAX),
        translation_counters(),
        cache_stats(),
        dram_stats(),
        kernel_stats(),
        obs_report(),
        prop::collection::vec(per_core_stats(), 0..5),
    )
        .prop_map(
            |(
                (instructions, cycles, refs, btm, faults),
                translation,
                cache,
                dram,
                os,
                obs,
                per_core,
            )| {
                RunReport {
                    instructions,
                    cycles,
                    refs,
                    translation,
                    baseline_tlb_misses: btm,
                    cache,
                    dram,
                    minor_faults: faults,
                    os,
                    obs,
                    per_core,
                }
            },
        )
}

/// `RunReport` has no `PartialEq`; compare the parts that do.
fn reports_equal(a: &RunReport, b: &RunReport) -> bool {
    a.instructions == b.instructions
        && a.cycles == b.cycles
        && a.refs == b.refs
        && a.translation == b.translation
        && a.baseline_tlb_misses == b.baseline_tlb_misses
        && a.cache == b.cache
        && a.dram == b.dram
        && a.minor_faults == b.minor_faults
        && a.os == b.os
        && a.obs == b.obs
        && a.per_core == b.per_core
}

macro_rules! merge_laws {
    ($comm:ident, $assoc:ident, $ident:ident, $strat:expr, $ty:ty) => {
        proptest! {
            #[test]
            fn $comm(a in $strat, b in $strat) {
                prop_assert_eq!(a.merged(&b), b.merged(&a));
            }

            #[test]
            fn $assoc(a in $strat, b in $strat, c in $strat) {
                prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
            }

            #[test]
            fn $ident(a in $strat) {
                prop_assert_eq!(a.merged(&<$ty>::default()), a);
            }
        }
    };
}

merge_laws!(
    level_commutative,
    level_associative,
    level_identity,
    level_stats(),
    LevelStats
);
merge_laws!(
    cache_commutative,
    cache_associative,
    cache_identity,
    cache_stats(),
    CacheStats
);
merge_laws!(
    dram_commutative,
    dram_associative,
    dram_identity,
    dram_stats(),
    DramStats
);
merge_laws!(
    translation_commutative,
    translation_associative,
    translation_identity,
    translation_counters(),
    TranslationCounters
);
merge_laws!(
    histogram_commutative,
    histogram_associative,
    histogram_identity,
    latency_histogram(),
    LatencyHistogram
);
merge_laws!(
    attribution_commutative,
    attribution_associative,
    attribution_identity,
    cycle_attribution(),
    CycleAttribution
);
merge_laws!(
    obs_commutative,
    obs_associative,
    obs_identity,
    obs_report(),
    ObsReport
);
merge_laws!(
    kernel_commutative,
    kernel_associative,
    kernel_identity,
    kernel_stats(),
    KernelStats
);
merge_laws!(
    per_core_commutative,
    per_core_associative,
    per_core_identity,
    per_core_stats(),
    PerCoreStats
);

proptest! {
    /// Per-core vectors of *different* lengths (a window that never
    /// scheduled the last core) still merge commutatively and
    /// associatively: the shorter side pads with the identity.
    #[test]
    fn per_core_vectors_merge_under_length_mismatch(
        a in prop::collection::vec(per_core_stats(), 0..5),
        b in prop::collection::vec(per_core_stats(), 0..5),
        c in prop::collection::vec(per_core_stats(), 0..5),
    ) {
        let wrap = |per_core: &[PerCoreStats]| RunReport {
            per_core: per_core.to_vec(),
            ..Default::default()
        };
        let (a, b, c) = (wrap(&a), wrap(&b), wrap(&c));
        prop_assert_eq!(&a.merged(&b).per_core, &b.merged(&a).per_core);
        prop_assert_eq!(
            &a.merged(&b).merged(&c).per_core,
            &a.merged(&b.merged(&c)).per_core
        );
    }
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
        let merged = a.merged(&b);
        prop_assert_eq!(&merged, &union);
        prop_assert_eq!(merged.p50(), union.p50());
        prop_assert_eq!(merged.p95(), union.p95());
        prop_assert_eq!(merged.p99(), union.p99());
    }

    /// Attribution totals are preserved by merging.
    #[test]
    fn attribution_merge_preserves_total(a in cycle_attribution(), b in cycle_attribution()) {
        let merged = a.merged(&b);
        prop_assert_eq!(merged.total(), a.total() + b.total());
    }
}

proptest! {
    #[test]
    fn tlb_stats_laws(h1 in 0u64..MAX, m1 in 0u64..MAX, h2 in 0u64..MAX, m2 in 0u64..MAX) {
        let a = TlbStats { hits: h1, misses: m1 };
        let b = TlbStats { hits: h2, misses: m2 };
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        prop_assert_eq!(a.merged(&TlbStats::default()), a);
    }

    #[test]
    fn walker_stats_laws(v in prop::collection::vec(0u64..MAX, 8..9)) {
        let a = WalkerStats {
            walks: v[0],
            pte_reads: v[1],
            skipped_reads: v[2],
            walk_cycles: Cycles::new(v[3]),
            ..Default::default()
        };
        let b = WalkerStats {
            walks: v[4],
            pte_reads: v[5],
            skipped_reads: v[6],
            walk_cycles: Cycles::new(v[7]),
            ..Default::default()
        };
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        prop_assert_eq!(a.merged(&WalkerStats::default()), a.clone());
        prop_assert_eq!(
            a.merged(&b).merged(&a),
            a.merged(&b.merged(&a))
        );
    }

    #[test]
    fn run_report_laws(a in run_report(), b in run_report(), c in run_report()) {
        prop_assert!(reports_equal(&a.merged(&b), &b.merged(&a)));
        prop_assert!(reports_equal(&a.merged(&b).merged(&c), &a.merged(&b.merged(&c))));
        prop_assert!(reports_equal(&a.merged(&RunReport::default()), &a));
    }
}
