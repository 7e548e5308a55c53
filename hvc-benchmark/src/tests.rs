//! Unit tests at smoke size: the digest gate, trace equivalence,
//! `BENCHMARK.json` validation, and result-set comparison.

use crate::spec::{self, WorkloadDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{compare, runs};
use hvc_runner::json::{self, Value};

/// The named workload shrunk to a few thousand references (and, for
/// GUPS, an 8 MB table). `refs` is chosen per workload so that churn
/// workloads still apply at least one event.
fn smoke(name: &str, refs: usize) -> WorkloadDef {
    WorkloadDef {
        mem: 8 << 20,
        refs,
        warm: 500,
        digests: &[],
        ..*WorkloadDef::by_name(name).expect("a benchmark workload")
    }
}

#[test]
fn a_tampered_digest_fails_every_run() {
    let def = WorkloadDef {
        digests: &[(42, 0x0123_4567_89ab_cdef)],
        ..smoke("gups-dtlb", 2_000)
    };
    let m = runs::measure(&def.resolve().unwrap(), 42, 0.0);
    assert_eq!(m.attempted, runs::MIN_RUNS);
    assert_eq!(m.failed, m.attempted);
    assert!(m.runs.is_empty());
}

#[test]
fn runs_of_one_seed_agree_and_pass_their_pinned_digest() {
    let def = smoke("gups-manyseg", 2_000);
    let m = runs::measure(&def.resolve().unwrap(), 3, 0.0);
    assert_eq!((m.attempted, m.failed), (runs::MIN_RUNS, 0));
    let digests: &'static [(u64, u64)] = Box::leak(Box::new([(3, m.digest.unwrap())]));
    let pinned = WorkloadDef { digests, ..def };
    assert_eq!(runs::measure(&pinned.resolve().unwrap(), 3, 0.0).failed, 0);
}

fn assert_trace_equivalent(def: WorkloadDef) {
    let res = def.resolve().unwrap();
    let plain = runs::timed_run(&res, 42, &mut runs::Reference::new()).unwrap();
    let traced = runs::traced_run(&res, 42).unwrap();
    assert_eq!(
        runs::digest(&traced.report, def.scheme),
        runs::digest(&plain.report, def.scheme),
        "{}: the traced run simulates something else",
        def.name
    );
    assert!(
        traced.phase_sum_share() >= 0.98,
        "{}: spans cover {:.4} of the traced wall time",
        def.name,
        traced.phase_sum_share()
    );
    assert_eq!(traced.report.refs, def.refs as u64);
}

#[test]
fn tracing_gups_dtlb_changes_nothing() {
    assert_trace_equivalent(smoke("gups-dtlb", 3_000));
}

#[test]
fn tracing_cow_storm_rlt_changes_nothing() {
    let def = smoke("cow_storm-rlt", 3_000);
    assert_trace_equivalent(def);
    let traced = runs::traced_run(&def.resolve().unwrap(), 42).unwrap();
    assert!(traced.churn_windows > 0, "the smoke run must apply churn");
}

#[test]
fn tracing_shm_heavy_2c_changes_nothing() {
    let def = smoke("shm_heavy-2c", 4_500);
    assert_trace_equivalent(def);
    let traced = runs::traced_run(&def.resolve().unwrap(), 42).unwrap();
    assert!(
        traced.report.os.shootdown_ipis > 0,
        "two cores must shoot down"
    );
}

/// A valid `BENCHMARK.json` text built from the catalogue, with
/// `edit` applied to its parsed form.
fn benchmark_text(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    let metric = |m: &spec::Metric, bound: Option<f64>| {
        let mut fields = vec![
            ("name".to_string(), Value::Str(m.name.into())),
            ("unit".to_string(), Value::Str(m.unit.into())),
            ("better".to_string(), Value::Str("lower".into())),
        ];
        if let Some(b) = bound {
            fields.push(("bound".to_string(), Value::Float(b)));
        }
        Value::Object(fields)
    };
    let workload = |name: &str| {
        Value::Object(vec![
            ("name".into(), Value::Str(name.into())),
            ("why".into(), Value::Str("a reason".into())),
        ])
    };
    let mut doc = vec![
        ("command".to_string(), Value::Array(vec![])),
        ("paths".to_string(), Value::Array(vec![])),
        ("run_seconds".to_string(), Value::UInt(10)),
        (
            "workloads".to_string(),
            Value::Array(WORKLOADS.iter().map(|w| workload(w.name)).collect()),
        ),
        (
            "end_to_end".to_string(),
            Value::Array(END_TO_END.iter().map(|m| metric(m, Some(0.1))).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Array(PER_LAYER.iter().map(|m| metric(m, None)).collect()),
        ),
    ];
    edit(&mut doc);
    Value::Object(doc).to_pretty()
}

fn section<'a>(doc: &'a mut [(String, Value)], key: &str) -> &'a mut Vec<Value> {
    match doc.iter_mut().find(|(k, _)| k == key) {
        Some((_, Value::Array(items))) => items,
        _ => panic!("no array '{key}'"),
    }
}

fn rejected(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    spec::parse(&benchmark_text(edit)).expect_err("the edit must be rejected")
}

#[test]
fn the_committed_benchmark_json_is_valid() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = spec::load(&path).unwrap();
    assert!(bench.workloads.len() >= 2);
    assert_eq!(bench.per_layer.len(), PER_LAYER.len());
    spec::parse(&benchmark_text(|_| {})).unwrap();
}

#[test]
fn malformed_json_is_an_error() {
    for text in ["", "{", "[1,2", "{\"run_seconds\": }", "nul"] {
        assert!(spec::parse(text).is_err(), "{text:?}");
    }
    let deep = format!("{}{}", "[".repeat(30_000), "]".repeat(30_000));
    assert!(spec::parse(&deep).unwrap_err().contains("nested"));
    assert!(spec::parse(&" ".repeat(70_000))
        .unwrap_err()
        .contains("larger than"));
}

#[test]
fn names_must_be_plain_and_unique() {
    for bad in ["has space", "", "-leading", "a/b", &"x".repeat(65)] {
        let err = rejected(|doc| {
            section(doc, "workloads")[0] = Value::Object(vec![
                ("name".into(), Value::Str(bad.into())),
                ("why".into(), Value::Str("r".into())),
            ]);
        });
        assert!(err.contains("invalid name"), "{bad:?}: {err}");
    }
    let err = rejected(|doc| {
        let first = section(doc, "workloads")[0].clone();
        section(doc, "workloads").push(first);
    });
    assert!(err.contains("used twice"), "{err}");
}

#[test]
fn counts_are_bounded() {
    let err = rejected(|doc| {
        let first = section(doc, "workloads")[0].clone();
        section(doc, "workloads").extend(std::iter::repeat_n(first, 8));
    });
    assert!(err.contains("1 to 8"), "{err}");
    let err = rejected(|doc| {
        let first = section(doc, "end_to_end")[0].clone();
        section(doc, "end_to_end").extend(std::iter::repeat_n(first, 16));
    });
    assert!(err.contains("1 to 16"), "{err}");
    let err = rejected(|doc| {
        let first = section(doc, "per_layer")[0].clone();
        section(doc, "per_layer").extend(std::iter::repeat_n(first, 128));
    });
    assert!(err.contains("1 to 128"), "{err}");
    let err = rejected(|doc| section(doc, "workloads").clear());
    assert!(err.contains("1 to 8"), "{err}");
}

#[test]
fn declared_metrics_must_match_the_emitted_ones() {
    let err = rejected(|doc| {
        section(doc, "per_layer").pop();
    });
    assert!(err.contains("emitted but not declared"), "{err}");
    let err = rejected(|doc| {
        section(doc, "end_to_end").push(Value::Object(vec![
            ("name".into(), Value::Str("latency_ms".into())),
            ("unit".into(), Value::Str("ms".into())),
            ("better".into(), Value::Str("lower".into())),
            ("bound".into(), Value::Float(0.1)),
        ]));
    });
    assert!(err.contains("not a metric this program emits"), "{err}");
    let err = rejected(|doc| {
        section(doc, "end_to_end")[0] = Value::Object(vec![
            ("name".into(), Value::Str("refs_per_s".into())),
            ("unit".into(), Value::Str("ms".into())),
            ("better".into(), Value::Str("higher".into())),
            ("bound".into(), Value::Float(0.1)),
        ]);
    });
    assert!(err.contains("has unit"), "{err}");
    let err = rejected(|doc| {
        section(doc, "end_to_end")[0] = Value::Object(vec![
            ("name".into(), Value::Str("refs_per_s".into())),
            ("unit".into(), Value::Str("refs/s".into())),
            ("better".into(), Value::Str("higher".into())),
            ("bound".into(), Value::Float(0.5)),
        ]);
    });
    assert!(err.contains("bound"), "{err}");
    let err = rejected(|doc| doc.push(("extra".into(), Value::Null)));
    assert!(err.contains("unknown key"), "{err}");
}

#[test]
fn unknown_workloads_schemes_and_filters_are_errors() {
    let err = rejected(|doc| {
        section(doc, "workloads")[0] = Value::Object(vec![
            ("name".into(), Value::Str("nosuch".into())),
            ("why".into(), Value::Str("r".into())),
        ]);
    });
    assert!(err.contains("unknown workload 'nosuch'"), "{err}");
    let base = WORKLOADS[0];
    let cases = [
        (
            WorkloadDef {
                profile: "nosuch",
                ..base
            },
            "unknown workload profile",
        ),
        (
            WorkloadDef {
                scheme: "dtlb:x",
                ..base
            },
            "unknown scheme",
        ),
        (
            WorkloadDef {
                filter: "cuckoo",
                ..base
            },
            "unknown filter",
        ),
        (WorkloadDef { cores: 3, ..base }, "power of two"),
    ];
    for (def, want) in cases {
        let err = def.resolve().err().expect("must be rejected");
        assert!(err.contains(want), "{err}");
    }
}

fn result_set(seed: u64, median: f64, digest: &str, misses: u64) -> Value {
    let summary =
        |m: f64| json::parse(&format!(r#"{{"median":{m},"min":{m},"max":{m}}}"#)).unwrap();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".into(), Value::Str(w.name.into())),
                ("digest".into(), Value::Str(digest.into())),
                (
                    "e2e".into(),
                    Value::Object(
                        END_TO_END
                            .iter()
                            .map(|m| (m.name.to_string(), summary(median)))
                            .collect(),
                    ),
                ),
                (
                    "counts".into(),
                    Value::Object(vec![("cache.llc_misses".into(), Value::UInt(misses))]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::Str(compare::SCHEMA.into())),
        ("seed".into(), Value::UInt(seed)),
        ("workloads".into(), Value::Array(workloads)),
    ])
}

#[test]
fn compare_holds_medians_to_their_bounds_and_results_to_equality() {
    let bench = spec::parse(&benchmark_text(|_| {})).unwrap();
    let base = result_set(42, 100.0, "ab", 7);
    assert!(compare::compare(&bench, &base, &base));
    // Every metric is declared "lower is better" with a 10% bound.
    assert!(compare::compare(
        &bench,
        &base,
        &result_set(42, 109.0, "ab", 7)
    ));
    assert!(!compare::compare(
        &bench,
        &base,
        &result_set(42, 111.0, "ab", 7)
    ));
    assert!(compare::compare(
        &bench,
        &base,
        &result_set(42, 50.0, "ab", 7)
    ));
    assert!(!compare::compare(
        &bench,
        &base,
        &result_set(42, 100.0, "cd", 7)
    ));
    assert!(!compare::compare(
        &bench,
        &base,
        &result_set(42, 100.0, "ab", 8)
    ));
}
