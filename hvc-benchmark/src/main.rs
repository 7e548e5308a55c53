//! `hvc-benchmark`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! hvc-benchmark [--seed N] [--seconds S] [--out FILE]      every workload
//! hvc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! hvc-benchmark compare A.json B.json
//! ```
//!
//! Run from the directory holding `BENCHMARK.json`, which names the
//! workloads and metrics. With `--workload`, this process measures that
//! one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without it, every workload runs in a child process of its own, one
//! at a time, once per trace setting, and `--out` saves the results for
//! `compare`. Exit codes: 0 success, 1 a failed run or an exceeded
//! bound, 2 a bad argument or definition.

mod compare;
mod probes;
mod runs;
mod spec;

use hvc_runner::json::{self, Value};
use runs::{Reference, Times};
use spec::{Benchmark, Metric, WorkloadDef, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// A traced run must account for at least this share of its wall time.
const MIN_PHASE_SUM_SHARE: f64 = 0.98;
/// Prefix of the stdout line that carries a workload's samples, digest
/// and counts to the parent process.
const DETAIL: &str = "detail ";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hvc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Command-line options of the measuring modes.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<String>,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, not '{v}'"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?),
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = Some(number(value()?)?),
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => opts.out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let bench = spec::load(Path::new("BENCHMARK.json"))?;
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else {
            return Err("usage: hvc-benchmark compare A.json B.json".into());
        };
        return compare::run(&bench, Path::new(a), Path::new(b));
    }
    let opts = parse_options(argv)?;
    let seconds = opts.seconds.unwrap_or(bench.run_seconds);
    match &opts.workload {
        Some(name) => {
            if !bench.workloads.contains(name) {
                return Err(format!("unknown workload '{name}'"));
            }
            let def = WorkloadDef::by_name(name).expect("BENCHMARK.json workloads are validated");
            if opts.trace {
                trace_workload(&bench, def, opts.seed)
            } else {
                measure_workload(&bench, def, opts.seed, seconds)
            }
        }
        None => run_all(&bench, opts.seed, seconds, opts.out.as_deref()),
    }
}

/// Builds the `metrics` object in `BENCHMARK.json` order, insisting
/// that `values` holds exactly the declared metrics.
fn metrics_object(
    declared: &[String],
    catalogue: &[Metric],
    values: &[(&str, Value)],
) -> Result<Value, String> {
    if let Some((extra, _)) = values
        .iter()
        .find(|(n, _)| !declared.iter().any(|d| d == n))
    {
        return Err(format!(
            "metric '{extra}' is not declared in BENCHMARK.json"
        ));
    }
    declared
        .iter()
        .map(|name| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            let unit = catalogue
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
                .expect("declared metrics are in the catalogue");
            Ok((
                name.clone(),
                object(vec![("value", value), ("unit", Value::Str(unit.into()))]),
            ))
        })
        .collect::<Result<_, String>>()
        .map(Value::Object)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
}

/// The result line every measuring process ends with.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Value) -> String {
    object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted as u64)),
        ("failed", Value::UInt(failed as u64)),
        ("metrics", metrics),
    ])
    .to_compact()
}

/// `--trace 0`: fresh timed runs for `seconds`, end-to-end metrics.
fn measure_workload(
    bench: &Benchmark,
    def: &WorkloadDef,
    seed: u64,
    seconds: u64,
) -> Result<bool, String> {
    let res = def.resolve()?;
    let m = runs::measure(&res, seed, seconds as f64);
    let rss = runs::peak_rss_mb()?;
    let each = |f: fn(&Times) -> f64| m.runs.iter().map(f).collect::<Vec<f64>>();
    let (refs_per_s, setup_s) = (
        each(Times::nominal_refs_per_s),
        each(Times::nominal_setup_s),
    );
    let raw = [
        ("refs_per_s", each(|t| t.refs_per_s)),
        ("setup_s", each(|t| t.setup_s)),
        ("reference_ns_per_op", each(|t| t.reference_ns_per_op)),
    ];
    let summary = |samples: &[f64]| {
        object(vec![
            ("median", Value::Float(runs::median(samples))),
            ("min", Value::Float(runs::percentile(samples, 0.0))),
            ("max", Value::Float(runs::percentile(samples, 1.0))),
            ("samples", floats(samples)),
        ])
    };
    let samples = [
        ("refs_per_s", &refs_per_s[..]),
        ("setup_s", &setup_s[..]),
        ("peak_rss_mb", &[rss][..]),
    ];
    for (name, values) in samples {
        let unit = unit_of(END_TO_END, name);
        println!(
            "{:<16} {name:<12} {:>14.4} {unit:<7} min {:.4}  max {:.4}  n={}",
            def.name,
            runs::median(values),
            runs::percentile(values, 0.0),
            runs::percentile(values, 1.0),
            values.len()
        );
    }
    println!(
        "{:<16} as measured: refs/s {:.1}, setup {:.4} s, reference {:.3} ns/op (medians)",
        def.name,
        runs::median(&raw[0].1),
        runs::median(&raw[1].1),
        runs::median(&raw[2].1)
    );
    let detail = object(vec![
        (
            "digest",
            m.digest.map_or(Value::Null, |d| Value::Str(hex(d))),
        ),
        (
            "e2e",
            object(samples.iter().map(|&(n, v)| (n, summary(v))).collect()),
        ),
        (
            "raw",
            object(raw.iter().map(|(n, v)| (*n, floats(v))).collect()),
        ),
        (
            "counts",
            object(m.report.as_ref().map(runs::counts).unwrap_or_default()),
        ),
    ]);
    println!("{DETAIL}{}", detail.to_compact());
    let values: Vec<(&str, Value)> = samples
        .iter()
        .map(|&(n, v)| (n, Value::Float(runs::median(v))))
        .collect();
    let declared: Vec<String> = bench.end_to_end.iter().map(|b| b.name.clone()).collect();
    let metrics = metrics_object(&declared, END_TO_END, &values)?;
    let correct = m.failed == 0;
    println!("{}", result_line(correct, m.attempted, m.failed, metrics));
    Ok(correct)
}

/// `--trace 1`: one untraced and one traced fresh run, then the probes;
/// per-layer metrics.
fn trace_workload(bench: &Benchmark, def: &WorkloadDef, seed: u64) -> Result<bool, String> {
    let res = def.resolve()?;
    let untraced = runs::guarded(&format!("{} untraced run", def.name), || {
        runs::timed_run(&res, seed, &mut Reference::new())
    });
    let traced = runs::guarded(&format!("{} traced run", def.name), || {
        runs::traced_run(&res, seed)
    });
    let (Some(untraced), Some(traced)) = (&untraced, &traced) else {
        let failed = usize::from(untraced.is_none()) + usize::from(traced.is_none());
        println!(
            "{}",
            result_line(false, 2, failed, Value::Object(Vec::new()))
        );
        return Ok(false);
    };
    let (plain, with_spans) = (
        runs::digest(&untraced.report, def.scheme),
        runs::digest(&traced.report, def.scheme),
    );
    let expected = def.expected_digest(seed).unwrap_or(plain);
    let untraced_ok = plain == expected;
    if !untraced_ok {
        eprintln!(
            "{}: digest {} differs from {}",
            def.name,
            hex(plain),
            hex(expected)
        );
    }
    let phase_sum = traced.phase_sum_share();
    let mut traced_ok = with_spans == plain && phase_sum >= MIN_PHASE_SUM_SHARE;
    if !traced_ok {
        eprintln!(
            "{}: traced digest {} (untraced {}), phases cover {phase_sum:.4} of wall",
            def.name,
            hex(with_spans),
            hex(plain)
        );
    }
    let refs = traced.report.refs as f64;
    let next_item_ns = if def.cores > 1 {
        runs::guarded(&format!("{} generator pass", def.name), || {
            runs::generator_ns(&res, seed)
        })
        .unwrap_or_else(|| {
            traced_ok = false;
            0.0
        })
    } else {
        traced.next_item_s * 1e9 / refs
    };
    let window = |q| Value::Float(runs::percentile(&traced.windows_us, q));
    let mut values = vec![
        ("workloads.next_item_ns", Value::Float(next_item_ns)),
        (
            "core.sim_ns_per_ref",
            Value::Float(traced.windows_us.iter().sum::<f64>() * 1e3 / refs),
        ),
        ("core.window_us_p50", window(0.5)),
        ("core.window_us_p99", window(0.99)),
        ("core.window_us_max", window(1.0)),
        (
            "core.step_batch_share",
            Value::Float(traced.step_s / traced.wall_s),
        ),
        (
            "core.apply_churn_share",
            Value::Float(traced.churn_s / traced.wall_s),
        ),
        ("core.churn_windows", Value::UInt(traced.churn_windows)),
        ("trace.phase_sum_share", Value::Float(phase_sum)),
        (
            "trace.overhead",
            Value::Float(traced.refs_per_s() / untraced.times.refs_per_s),
        ),
        (
            "host.reference_ns_per_op",
            Value::Float(untraced.times.reference_ns_per_op),
        ),
    ];
    values.extend(runs::counts(&traced.report));
    values.extend(
        probes::run_all()
            .into_iter()
            .map(|(name, ns)| (name, Value::Float(ns))),
    );
    for (name, value) in &values {
        println!(
            "{:<16} {name:<36} {:>16} {}",
            def.name,
            value.to_compact(),
            unit_of(PER_LAYER, name)
        );
    }
    let metrics = metrics_object(&bench.per_layer, PER_LAYER, &values)?;
    let failed = usize::from(!untraced_ok) + usize::from(!traced_ok);
    println!("{}", result_line(failed == 0, 2, failed, metrics));
    Ok(failed == 0)
}

fn unit_of(catalogue: &[Metric], name: &str) -> &'static str {
    catalogue
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The outcome of one child process: its detail line (if any) and
/// its result line.
struct ChildOutput {
    ok: bool,
    detail: Option<Value>,
    result: Value,
}

/// Runs this program on one workload in a child process and parses its
/// output; its standard error passes through.
fn spawn(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut last = "";
    for line in stdout.lines() {
        if let Some(text) = line.strip_prefix(DETAIL) {
            detail = Some(json::parse(text)?);
        } else {
            last = line;
            if !line.starts_with('{') {
                println!("{line}");
            }
        }
    }
    let result = json::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    Ok(ChildOutput {
        ok: output.status.success(),
        detail,
        result,
    })
}

/// Every workload, each in its own process, first untraced then traced.
fn run_all(bench: &Benchmark, seed: u64, seconds: u64, out: Option<&str>) -> Result<bool, String> {
    let mut all_ok = true;
    let mut records = Vec::new();
    for name in &bench.workloads {
        let timed = spawn(name, seed, seconds, false)?;
        let traced = spawn(name, seed, seconds, true)?;
        all_ok &= timed.ok && traced.ok;
        let count = |key: &str| {
            [&timed.result, &traced.result]
                .iter()
                .filter_map(|r| r.get(key).and_then(Value::as_u64))
                .sum::<u64>()
        };
        let detail = timed.detail.unwrap_or(Value::Null);
        let field = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
        records.push(object(vec![
            ("name", Value::Str(name.clone())),
            ("attempted", Value::UInt(count("attempted"))),
            ("failed", Value::UInt(count("failed"))),
            ("digest", field(&detail, "digest")),
            ("e2e", field(&detail, "e2e")),
            ("counts", field(&detail, "counts")),
            ("layers", field(&traced.result, "metrics")),
        ]));
    }
    let doc = object(vec![
        ("schema", Value::Str(compare::SCHEMA.into())),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::UInt(seconds)),
        ("workloads", Value::Array(records)),
    ]);
    if let Some(path) = out {
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    println!(
        "{}",
        if all_ok {
            "all workloads passed"
        } else {
            "FAILED"
        }
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests;
