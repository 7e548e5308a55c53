//! Property tests: the batched reference pipeline (decode-ahead windows
//! plus the read-only prefetch pre-pass) is observationally identical to
//! one-at-a-time stepping — same statistics bit for bit, for every
//! translation scheme, both synonym-filter strategies, arbitrary
//! workload shapes (including kernel churn landing mid-window), and
//! every batch granularity down to single-item windows.
//!
//! The reference executor below replays the exact workload call sequence
//! the batched driver makes (`next_item` / `take_churn_ops` alternate
//! identically), so any divergence is the pipeline's fault, not the
//! generator's.

use hvc::core::{RunReport, SystemConfig, SystemSim, TranslationScheme};
use hvc::mc::McSim;
use hvc::os::{AllocPolicy, FilterKind, Kernel};
use hvc::types::PAGE_SIZE;
use hvc::workloads::{AccessPattern, ChurnKind, ChurnSpec, RegionSpec, SharingSpec, WorkloadSpec};
use proptest::prelude::*;

fn scheme_strategy() -> impl Strategy<Value = TranslationScheme> {
    prop_oneof![
        Just(TranslationScheme::Baseline),
        Just(TranslationScheme::Ideal),
        Just(TranslationScheme::HybridDelayedTlb(64)),
        Just(TranslationScheme::HybridDelayedTlb(1024)),
        Just(TranslationScheme::EnigmaDelayedTlb(256)),
    ]
}

fn filter_strategy() -> impl Strategy<Value = FilterKind> {
    prop_oneof![Just(FilterKind::Bloom), Just(FilterKind::Rlt)]
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        2u64..48,
        prop_oneof![
            Just(AccessPattern::Uniform),
            (0.5f64..0.9).prop_map(AccessPattern::Zipfian),
            Just(AccessPattern::Stream),
        ],
        0.0f64..0.5,
        prop::option::of((20u64..90).prop_map(|every| ChurnSpec {
            every,
            kind: ChurnKind::WorkerRecycle,
        })),
    )
        .prop_map(|(pages, pattern, write_frac, churn)| WorkloadSpec {
            name: "batch-prop".into(),
            regions: vec![RegionSpec::full(pages * PAGE_SIZE)],
            contiguous: true,
            pattern,
            write_frac,
            mean_gap: 3,
            mlp: 2,
            burst: 4,
            stack_frac: 0.2,
            sharing: Some(SharingSpec {
                processes: 2,
                shared_bytes: 8 * PAGE_SIZE,
                shared_access_frac: 0.3,
            }),
            churn,
        })
}

fn build(
    spec: &WorkloadSpec,
    scheme: TranslationScheme,
    filter: FilterKind,
    seed: u64,
) -> (SystemSim, hvc::workloads::WorkloadInstance) {
    let mut kernel = Kernel::new(1 << 30, AllocPolicy::DemandPaging);
    kernel.set_filter_kind(filter);
    let wl = spec.instantiate(&mut kernel, seed).unwrap();
    let sim = SystemSim::new(kernel, SystemConfig::isca2016(), scheme);
    (sim, wl)
}

/// One-at-a-time reference: `step` per item, churn applied at the exact
/// stream position the generator emits it.
fn run_stepwise(
    spec: &WorkloadSpec,
    scheme: TranslationScheme,
    filter: FilterKind,
    seed: u64,
    refs: usize,
) -> RunReport {
    let (mut sim, mut wl) = build(spec, scheme, filter, seed);
    let mlp = wl.mlp();
    for _ in 0..refs {
        let item = wl.next_item();
        sim.step(item, mlp);
        if let Some(ops) = wl.take_churn_ops() {
            sim.apply_churn(&ops);
        }
    }
    sim.report()
}

/// Batched pipeline with caller-chosen window size: windows of
/// `batch` items through `step_batch`, honouring churn boundaries.
fn run_windowed(
    spec: &WorkloadSpec,
    scheme: TranslationScheme,
    filter: FilterKind,
    seed: u64,
    refs: usize,
    batch: usize,
) -> RunReport {
    let (mut sim, mut wl) = build(spec, scheme, filter, seed);
    let mlp = wl.mlp();
    let mut window = Vec::with_capacity(batch);
    let mut remaining = refs;
    while remaining > 0 {
        window.clear();
        let mut churn = None;
        while window.len() < batch.min(remaining) {
            window.push(wl.next_item());
            if let Some(ops) = wl.take_churn_ops() {
                churn = Some(ops);
                break;
            }
        }
        remaining -= window.len();
        sim.step_batch(&window, mlp);
        if let Some(ops) = churn {
            sim.apply_churn(&ops);
        }
    }
    sim.report()
}

/// Full-report equality via the derived Debug form: covers every
/// counter, histogram bucket, and attribution entry.
fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what} diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `SystemSim::run` (64-item windows with the prefetch pre-pass)
    /// reports bitwise the same statistics as one-at-a-time `step`.
    #[test]
    fn batched_run_matches_stepwise(
        spec in spec_strategy(),
        scheme in scheme_strategy(),
        filter in filter_strategy(),
        seed in 0u64..200,
    ) {
        let refs = 2_500;
        let (mut sim, mut wl) = build(&spec, scheme, filter, seed);
        let batched = sim.run(&mut wl, refs);
        let stepwise = run_stepwise(&spec, scheme, filter, seed, refs);
        assert_reports_identical(&batched, &stepwise, "batched vs stepwise");
    }

    /// Window size is invisible — including degenerate single-item
    /// windows, whose pre-pass prefetches the very item being stepped.
    #[test]
    fn window_size_is_invisible(
        spec in spec_strategy(),
        scheme in scheme_strategy(),
        filter in filter_strategy(),
        seed in 0u64..200,
        batch in prop_oneof![Just(1usize), 2usize..7, Just(64usize), Just(200usize)],
    ) {
        let refs = 1_500;
        let windowed = run_windowed(&spec, scheme, filter, seed, refs, batch);
        let stepwise = run_stepwise(&spec, scheme, filter, seed, refs);
        assert_reports_identical(&windowed, &stepwise, "windowed vs stepwise");
    }

    /// Multi-core: the quantum dispatcher's internal batching must keep
    /// the feed granularity invisible — driving the same workload in
    /// arbitrary-size feed chunks yields the run-to-completion report.
    #[test]
    fn mc_feed_granularity_is_invisible(
        spec in spec_strategy(),
        filter in filter_strategy(),
        seed in 0u64..200,
        chunk in 1usize..97,
    ) {
        let refs = 1_200;
        let scheme = TranslationScheme::HybridDelayedTlb(256);
        let make = |spec: &WorkloadSpec| {
            let mut kernel = Kernel::new(1 << 30, AllocPolicy::DemandPaging);
            kernel.set_filter_kind(filter);
            let wl = spec.instantiate(&mut kernel, seed).unwrap();
            let mut config = SystemConfig::isca2016();
            config.hierarchy = hvc::cache::HierarchyConfig::isca2016(2);
            (McSim::new(SystemSim::new(kernel, config, scheme), 64), wl)
        };

        let (mut whole, mut wl_a) = make(&spec);
        let whole_report = whole.run_to_completion(&mut wl_a, refs);

        let (mut chunked, mut wl_b) = make(&spec);
        let mut fed = 0;
        while fed < refs {
            let n = chunk.min(refs - fed);
            chunked.feed(&mut wl_b, n);
            fed += n;
        }
        chunked.drain();
        let chunked_report = chunked.report();
        assert_reports_identical(&whole_report, &chunked_report, "mc chunked vs whole");
    }

}
