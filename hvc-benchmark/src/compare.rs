//! `hvc-benchmark compare A.json B.json`: checks that result set B is
//! no worse than A by more than each end-to-end metric's bound, and that
//! both simulated the same thing (equal digests and counts).

use crate::spec::{self, Benchmark, Better};
use hvc_runner::json::Value;
use std::path::Path;

/// Schema tag of a saved result set.
pub const SCHEMA: &str = "hvc-benchmark-results/1";

/// Largest result file accepted (bytes).
const MAX_RESULT_BYTES: usize = 4 << 20;

/// One end-to-end metric of one workload in a result set.
#[derive(Clone, Copy, Debug)]
struct Summary {
    median: f64,
    min: f64,
    max: f64,
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = spec::parse_json(&text, MAX_RESULT_BYTES)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not an {SCHEMA} result set", path.display()));
    }
    Ok(doc)
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn summary(workload: &Value, metric: &str) -> Option<Summary> {
    let m = workload.get("e2e")?.get(metric)?;
    let num = |k| m.get(k).and_then(Value::as_f64);
    Some(Summary {
        median: num("median")?,
        min: num("min")?,
        max: num("max")?,
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = (b - a) / a;
    match better {
        Better::Higher => -delta,
        Better::Lower => delta,
    }
}

/// Loads two result sets and compares them; `Ok(false)` when a bound is
/// exceeded, a workload is missing, or the simulated results differ.
pub fn run(bench: &Benchmark, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    Ok(compare(bench, &load(a_path)?, &load(b_path)?))
}

/// Prints, per workload, each end-to-end median's change against its
/// bound and whether the runs' ranges overlap, then whether digests and
/// counts are identical. Returns whether everything passed.
pub fn compare(bench: &Benchmark, a: &Value, b: &Value) -> bool {
    if a.get("seed") != b.get("seed") {
        println!("note: the sets use different seeds, so digests and counts differ");
    }
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "overlap"
    );
    for name in &bench.workloads {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            println!("{name:<16} missing from a result set");
            ok = false;
            continue;
        };
        for bound in &bench.end_to_end {
            let (Some(sa), Some(sb)) = (summary(wa, &bound.name), summary(wb, &bound.name)) else {
                println!("{name:<16} {:<12} missing from a result set", bound.name);
                ok = false;
                continue;
            };
            let worse = worsening(sa.median, sb.median, bound.better);
            let within = worse <= bound.bound;
            // A metric with one sample per process has no range to overlap.
            let overlap = if sa.min == sa.max && sb.min == sb.max {
                "-"
            } else if sa.min <= sb.max && sb.min <= sa.max {
                "yes"
            } else {
                "no"
            };
            ok &= within;
            println!(
                "{name:<16} {:<12} {:>14.4} {:>14.4} {:>7.2}% {:>5.1}% {:>8}  {}",
                bound.name,
                sa.median,
                sb.median,
                worse * 100.0,
                bound.bound * 100.0,
                overlap,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
        for key in ["digest", "counts"] {
            let same = wa.get(key).is_some() && wa.get(key) == wb.get(key);
            ok &= same;
            println!(
                "{name:<16} {key:<12} {}",
                if same { "identical" } else { "DIFFER" }
            );
        }
    }
    println!("{}", if ok { "all within bounds" } else { "FAILED" });
    ok
}
