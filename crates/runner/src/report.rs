//! JSON sweep reports.
//!
//! # Schema `hvc-sweep-report/6`
//!
//! `/4` adds multi-core output: `stats.per_core` (one entry per
//! simulated core) and the `os.shootdown_*` counters of the TLB
//! shootdown cost model. `/5` adds the synonym-filter strategy axis:
//! `experiment.filters`, the per-cell `filter` name, the
//! `os.host_filter_rebuilds` counter, and the per-space occupancy
//! columns `strategy`, `rlt_entries`, `rlt_overflowed`. `/6` drops the
//! top-level `shards` key: every cell is one continuous run.
//!
//! ```text
//! {
//!   "schema": "hvc-sweep-report/6",
//!   "simulator": { "name": "hvc", "version": "<crate version>" },
//!   "experiment": {
//!     "name", "workloads" [], "schemes" [], "filters" [], "seeds" [],
//!     "llc_bytes" [],
//!     "refs", "warm", "mem", "cores", "ifetch", "replay" (string|null),
//!     "obs"
//!   },
//!   "jobs": <worker threads>,
//!   "wall_ms": <wall-clock of the parallel phase>,
//!   "cells": [
//!     {
//!       "index", "workload", "scheme", "filter", "base_seed", "seed",
//!       "llc_bytes",
//!       "stats": {
//!         "instructions", "cycles", "ipc", "refs",
//!         "baseline_tlb_misses", "minor_faults",
//!         "translation": { ...all TranslationCounters fields...,
//!                          "front_tlb_accesses", "total_tlb_misses" },
//!         "cache": { "l1i" [], "l1d" [], "l2" [],
//!                    "llc" { "hits", "misses", "evictions",
//!                            "writebacks", "invalidations",
//!                            "miss_rate" (float|null) },
//!                    "coherence_invalidations", "memory_writebacks" },
//!         "dram": { "reads", "writes", "row_hits", "row_misses",
//!                   "row_conflicts", "total_latency_cycles",
//!                   "row_hit_rate" (float|null),
//!                   "mean_latency" (float|null) },
//!         "energy_uj": <translation energy, µJ>,
//!         "os": { "minor_faults", "shootdowns", "cow_breaks",
//!                 "flushed_pages", "filter_insertions",
//!                 "filter_rebuilds", "host_filter_rebuilds",
//!                 "shootdown_ipis",
//!                 "shootdown_fast_paths", "shootdown_cycles" },
//!         "per_core": [ { "instructions", "cycles",
//!                         "ipc" (float|null) }, ... ],
//!         "filter_occupancy": [
//!           { "asid", "strategy", "insertions", "coarse_saturation",
//!             "fine_saturation", "stale_pages", "rlt_entries",
//!             "rlt_overflowed" }, ...
//!         ],
//!         // with "obs": true on the experiment:
//!         "latency": { "memory" {...}, "walk" {...} },  // histograms:
//!                    // count, total_cycles, max, mean, p50, p95, p99,
//!                    // buckets [[upper_bound, count], ...]
//!         "attribution": { "l1_hit", ..., "dram", "total" }
//!       }
//!     }, ...
//!   ]
//! }
//! ```
//!
//! All counters are exact `u64`; derived floats (`ipc`, `energy_uj`,
//! saturations, `mean`, the cache/DRAM rates) are pure functions of the
//! counters, so the whole `cells` array is byte-identical for identical
//! statistics. Derived rates over an empty denominator — a cache level
//! that saw no accesses, a cell with no DRAM traffic — are emitted as
//! JSON `null`, never `NaN` (which is not valid JSON).
//! `wall_ms` is the only field that varies between invocations, and it
//! lives outside the per-cell objects on purpose. Percentiles are
//! computed from the merged log₂ histogram buckets with integer rank
//! arithmetic, which keeps them `--jobs`-invariant too.

use crate::exec::{CellResult, FilterOccupancy, RunOptions, SweepOutcome};
use crate::grid::Experiment;
use crate::json::Value;
use crate::params;
use hvc_cache::{CacheStats, LevelStats};
use hvc_core::{EnergyModel, RunReport, TranslationCounters};
use hvc_mem::DramStats;
use hvc_obs::{Component, CycleAttribution, LatencyHistogram, TraceEvent};
use hvc_os::KernelStats;

/// The schema identifier written into every report.
pub const SCHEMA: &str = "hvc-sweep-report/6";

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builds the report document for a finished sweep.
pub fn sweep_report(exp: &Experiment, opts: &RunOptions, outcome: &SweepOutcome) -> Value {
    object(vec![
        ("schema", Value::Str(SCHEMA.into())),
        (
            "simulator",
            object(vec![
                ("name", Value::Str("hvc".into())),
                ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
            ]),
        ),
        ("experiment", experiment_value(exp)),
        ("jobs", Value::UInt(opts.jobs as u64)),
        ("wall_ms", Value::UInt(outcome.wall.as_millis() as u64)),
        (
            "cells",
            Value::Array(
                outcome
                    .results
                    .iter()
                    .map(|r| cell_value(r, exp.obs))
                    .collect(),
            ),
        ),
    ])
}

fn experiment_value(exp: &Experiment) -> Value {
    let strs = |v: &[String]| Value::Array(v.iter().map(|s| Value::Str(s.clone())).collect());
    object(vec![
        ("name", Value::Str(exp.name.clone())),
        ("workloads", strs(&exp.workloads)),
        ("schemes", strs(&exp.schemes)),
        ("filters", strs(&exp.filters)),
        (
            "seeds",
            Value::Array(exp.seeds.iter().map(|&s| Value::UInt(s)).collect()),
        ),
        (
            "llc_bytes",
            Value::Array(exp.llc_bytes.iter().map(|&b| Value::UInt(b)).collect()),
        ),
        ("refs", Value::UInt(exp.refs as u64)),
        ("warm", Value::UInt(exp.warm as u64)),
        ("mem", Value::UInt(exp.mem)),
        ("cores", Value::UInt(exp.cores as u64)),
        ("ifetch", Value::Bool(exp.ifetch)),
        (
            "replay",
            exp.replay
                .as_ref()
                .map_or(Value::Null, |p| Value::Str(p.clone())),
        ),
        ("obs", Value::Bool(exp.obs)),
    ])
}

fn cell_value(result: &CellResult, obs: bool) -> Value {
    let c = &result.cell;
    object(vec![
        ("index", Value::UInt(c.index as u64)),
        ("workload", Value::Str(c.workload.clone())),
        ("scheme", Value::Str(c.scheme.clone())),
        ("filter", Value::Str(c.filter.clone())),
        ("base_seed", Value::UInt(c.base_seed)),
        ("seed", Value::UInt(c.seed)),
        ("llc_bytes", Value::UInt(c.llc_bytes)),
        (
            "stats",
            run_report_value(&result.report, &result.filters, &c.scheme, obs),
        ),
    ])
}

/// Serializes one run's statistics exactly as a sweep cell's `stats`
/// object. Public so equivalence harnesses (golden-report tests, the
/// benchmark's report digests) can pin a `RunReport` bitwise without going through a
/// full sweep; the byte-identical guarantee of the module doc applies.
pub fn run_report_value(
    r: &RunReport,
    filters: &[FilterOccupancy],
    scheme: &str,
    obs: bool,
) -> Value {
    let energy = EnergyModel::cacti_32nm()
        .breakdown(&r.translation, params::energy_entries(scheme))
        .total()
        / 1e6;
    let mut fields = vec![
        ("instructions", Value::UInt(r.instructions)),
        ("cycles", Value::UInt(r.cycles)),
        ("ipc", Value::Float(r.ipc())),
        ("refs", Value::UInt(r.refs)),
        ("baseline_tlb_misses", Value::UInt(r.baseline_tlb_misses)),
        ("minor_faults", Value::UInt(r.minor_faults)),
        ("translation", translation_value(&r.translation)),
        ("cache", cache_value(&r.cache)),
        ("dram", dram_value(&r.dram)),
        ("energy_uj", Value::Float(energy)),
        ("os", os_value(&r.os)),
        (
            "per_core",
            Value::Array(
                r.per_core
                    .iter()
                    .map(|c| {
                        object(vec![
                            ("instructions", Value::UInt(c.instructions)),
                            ("cycles", Value::UInt(c.cycles)),
                            (
                                "ipc",
                                if c.cycles == 0 {
                                    Value::Null
                                } else {
                                    Value::Float(c.instructions as f64 / c.cycles as f64)
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "filter_occupancy",
            Value::Array(filters.iter().map(occupancy_value).collect()),
        ),
    ];
    if obs {
        fields.push((
            "latency",
            object(vec![
                ("memory", histogram_value(&r.obs.mem_latency)),
                ("walk", histogram_value(&r.obs.walk_latency)),
            ]),
        ));
        fields.push(("attribution", attribution_value(&r.obs.attribution)));
    }
    object(fields)
}

fn os_value(k: &KernelStats) -> Value {
    object(vec![
        ("minor_faults", Value::UInt(k.minor_faults)),
        ("shootdowns", Value::UInt(k.shootdowns)),
        ("cow_breaks", Value::UInt(k.cow_breaks)),
        ("flushed_pages", Value::UInt(k.flushed_pages)),
        ("filter_insertions", Value::UInt(k.filter_insertions)),
        ("filter_rebuilds", Value::UInt(k.filter_rebuilds)),
        ("host_filter_rebuilds", Value::UInt(k.host_filter_rebuilds)),
        ("shootdown_ipis", Value::UInt(k.shootdown_ipis)),
        ("shootdown_fast_paths", Value::UInt(k.shootdown_fast_paths)),
        ("shootdown_cycles", Value::UInt(k.shootdown_cycles)),
    ])
}

fn occupancy_value(f: &FilterOccupancy) -> Value {
    object(vec![
        ("asid", Value::UInt(f.asid as u64)),
        ("strategy", Value::Str(f.strategy.into())),
        ("insertions", Value::UInt(f.insertions)),
        ("coarse_saturation", Value::Float(f.coarse_saturation)),
        ("fine_saturation", Value::Float(f.fine_saturation)),
        ("stale_pages", Value::UInt(f.stale_pages)),
        ("rlt_entries", Value::UInt(f.rlt_entries)),
        ("rlt_overflowed", Value::UInt(f.rlt_overflowed)),
    ])
}

/// Serializes a log₂ latency histogram: exact counters plus the derived
/// percentiles (pure functions of the buckets).
fn histogram_value(h: &LatencyHistogram) -> Value {
    object(vec![
        ("count", Value::UInt(h.count())),
        ("total_cycles", Value::UInt(h.total().get())),
        ("max", Value::UInt(h.max())),
        ("mean", h.mean().map_or(Value::Null, Value::Float)),
        ("p50", Value::UInt(h.p50())),
        ("p95", Value::UInt(h.p95())),
        ("p99", Value::UInt(h.p99())),
        (
            "buckets",
            Value::Array(
                h.nonzero_buckets()
                    .map(|(ub, n)| Value::Array(vec![Value::UInt(ub), Value::UInt(n)]))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes the cycle-attribution ledger; `total` equals the memory
/// latency histogram's `total_cycles` by construction.
fn attribution_value(a: &CycleAttribution) -> Value {
    let mut fields: Vec<(&str, Value)> = Component::ALL
        .iter()
        .map(|&c| (c.name(), Value::UInt(a.get(c).get())))
        .collect();
    fields.push(("total", Value::UInt(a.total().get())));
    object(fields)
}

/// Builds a Chrome `trace_event`-format document (the "JSON Array
/// Format" with an explicit object wrapper) from captured events.
/// Load the output in `chrome://tracing` or Perfetto.
pub fn trace_events_json(events: impl IntoIterator<Item = TraceEvent>) -> Value {
    let events = events
        .into_iter()
        .map(|e| {
            object(vec![
                ("name", Value::Str(e.name.into())),
                ("cat", Value::Str(e.cat.into())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::UInt(e.ts)),
                ("dur", Value::UInt(e.dur)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(e.tid as u64)),
            ])
        })
        .collect();
    object(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ns".into())),
    ])
}

fn translation_value(t: &TranslationCounters) -> Value {
    object(vec![
        ("l1_tlb_lookups", Value::UInt(t.l1_tlb_lookups)),
        ("l2_tlb_lookups", Value::UInt(t.l2_tlb_lookups)),
        ("filter_lookups", Value::UInt(t.filter_lookups)),
        ("filter_candidates", Value::UInt(t.filter_candidates)),
        ("false_positives", Value::UInt(t.false_positives)),
        ("synonym_tlb_lookups", Value::UInt(t.synonym_tlb_lookups)),
        ("synonym_tlb_misses", Value::UInt(t.synonym_tlb_misses)),
        ("delayed_tlb_lookups", Value::UInt(t.delayed_tlb_lookups)),
        ("delayed_tlb_misses", Value::UInt(t.delayed_tlb_misses)),
        ("sc_lookups", Value::UInt(t.sc_lookups)),
        ("index_cache_accesses", Value::UInt(t.index_cache_accesses)),
        (
            "segment_table_accesses",
            Value::UInt(t.segment_table_accesses),
        ),
        ("pte_reads", Value::UInt(t.pte_reads)),
        ("shared_accesses", Value::UInt(t.shared_accesses)),
        (
            "writeback_translations",
            Value::UInt(t.writeback_translations),
        ),
        ("filter_reloads", Value::UInt(t.filter_reloads)),
        (
            "segment_table_rebuilds",
            Value::UInt(t.segment_table_rebuilds),
        ),
        ("enigma_lookups", Value::UInt(t.enigma_lookups)),
        ("prefetches", Value::UInt(t.prefetches)),
        ("prefetches_blocked", Value::UInt(t.prefetches_blocked)),
        ("front_tlb_accesses", Value::UInt(t.front_tlb_accesses())),
        ("total_tlb_misses", Value::UInt(t.total_tlb_misses())),
    ])
}

fn level_value(l: &LevelStats) -> Value {
    object(vec![
        ("hits", Value::UInt(l.hits)),
        ("misses", Value::UInt(l.misses)),
        ("evictions", Value::UInt(l.evictions)),
        ("writebacks", Value::UInt(l.writebacks)),
        ("invalidations", Value::UInt(l.invalidations)),
        // Derived; null rather than NaN when the level saw no accesses
        // (empty measurement windows, ifetch-only levels, …).
        ("miss_rate", l.miss_rate().map_or(Value::Null, Value::Float)),
    ])
}

fn cache_value(c: &CacheStats) -> Value {
    let levels = |v: &[LevelStats]| Value::Array(v.iter().map(level_value).collect());
    object(vec![
        ("l1i", levels(&c.l1i)),
        ("l1d", levels(&c.l1d)),
        ("l2", levels(&c.l2)),
        ("llc", level_value(&c.llc)),
        (
            "coherence_invalidations",
            Value::UInt(c.coherence_invalidations),
        ),
        ("memory_writebacks", Value::UInt(c.memory_writebacks)),
    ])
}

fn dram_value(d: &DramStats) -> Value {
    object(vec![
        ("reads", Value::UInt(d.reads)),
        ("writes", Value::UInt(d.writes)),
        ("row_hits", Value::UInt(d.row_hits)),
        ("row_misses", Value::UInt(d.row_misses)),
        ("row_conflicts", Value::UInt(d.row_conflicts)),
        ("total_latency_cycles", Value::UInt(d.total_latency.get())),
        // Derived; null rather than NaN for a cell with no DRAM traffic.
        (
            "row_hit_rate",
            d.row_hit_rate().map_or(Value::Null, Value::Float),
        ),
        (
            "mean_latency",
            d.mean_latency().map_or(Value::Null, Value::Float),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fake_outcome() -> (Experiment, RunOptions, SweepOutcome) {
        let exp = Experiment {
            workloads: vec!["gups".into()],
            schemes: vec!["baseline".into()],
            ..Default::default()
        };
        let cell = exp.cells().remove(0);
        let report = RunReport {
            instructions: 1000,
            cycles: 500,
            refs: 100,
            ..Default::default()
        };
        let outcome = SweepOutcome {
            results: vec![CellResult {
                cell,
                report,
                filters: vec![FilterOccupancy {
                    asid: 1,
                    strategy: "bloom",
                    insertions: 3,
                    coarse_saturation: 0.25,
                    fine_saturation: 0.125,
                    stale_pages: 0,
                    rlt_entries: 0,
                    rlt_overflowed: 0,
                }],
            }],
            wall: Duration::from_millis(12),
        };
        (
            exp,
            RunOptions {
                jobs: 2,
                check: false,
            },
            outcome,
        )
    }

    #[test]
    fn report_has_schema_and_cells() {
        let (exp, opts, outcome) = fake_outcome();
        let doc = sweep_report(&exp, &opts, &outcome);
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("jobs").unwrap().as_u64(), Some(2));
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        let stats = cells[0].get("stats").unwrap();
        assert_eq!(stats.get("instructions").unwrap().as_u64(), Some(1000));
        assert!((stats.get("ipc").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-12);
        assert!(stats.get("translation").unwrap().get("pte_reads").is_some());
        assert!(stats.get("cache").unwrap().get("llc").is_some());
        assert!(stats.get("dram").unwrap().get("reads").is_some());
    }

    #[test]
    fn empty_cell_rates_are_null_not_nan() {
        // A report with zero cache accesses and zero DRAM traffic must
        // emit null for the derived rates: NaN is not valid JSON and a
        // 0/0 division would produce exactly that.
        let (exp, opts, outcome) = fake_outcome();
        let doc = sweep_report(&exp, &opts, &outcome);
        let stats = doc.get("cells").unwrap().as_array().unwrap()[0]
            .get("stats")
            .unwrap();
        let llc = stats.get("cache").unwrap().get("llc").unwrap();
        assert_eq!(llc.get("miss_rate"), Some(&Value::Null));
        let dram = stats.get("dram").unwrap();
        assert_eq!(dram.get("row_hit_rate"), Some(&Value::Null));
        assert_eq!(dram.get("mean_latency"), Some(&Value::Null));
        // The whole document still round-trips through the strict parser.
        assert!(crate::json::parse(&doc.to_pretty()).is_ok());
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let (exp, opts, outcome) = fake_outcome();
        let doc = sweep_report(&exp, &opts, &outcome);
        let text = doc.to_pretty();
        assert_eq!(crate::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn cells_serialization_ignores_wall_clock() {
        let (exp, opts, mut outcome) = fake_outcome();
        let a = sweep_report(&exp, &opts, &outcome);
        outcome.wall = Duration::from_millis(9_999);
        let b = sweep_report(&exp, &opts, &outcome);
        assert_eq!(
            a.get("cells").unwrap().to_pretty(),
            b.get("cells").unwrap().to_pretty()
        );
        assert_ne!(a.get("wall_ms"), b.get("wall_ms"));
    }
}
