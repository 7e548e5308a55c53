//! Reductions: the paper's tables, printed from a preset's sweep report.
//!
//! [`render`] reads an `hvc-sweep-report` document and dispatches on
//! `experiment.name`. Tables I, II and III have dedicated reductions;
//! `fig4`, `fig9`, `fig10` and `energy` share one: per workload, a
//! metric for every scheme as a ratio to the experiment's first scheme,
//! under a geometric-mean (or, for energy, a total) row. A report is
//! reducible when every axis other than workload and scheme holds one
//! value, so each table cell is exactly one sweep cell.

use crate::json::Value;
use crate::params;
use hvc_os::{AllocPolicy, Kernel};
use hvc_workloads::WorkloadSpec;

/// Formats a fixed-width table with a title, header row, and data rows.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| -> String {
        cells
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header = line(&mut headers.iter().copied());
    let mut out = format!(
        "\n=== {title} ===\n{header}\n{}\n",
        "-".repeat(header.chars().count())
    );
    for row in rows {
        out += &line(&mut row.iter().map(String::as_str));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a ratio with three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// The table of the paper result whose preset produced `report`, as
/// `hvcsim table` prints it.
///
/// # Errors
///
/// When the preset has no reduction, when an axis other than workload
/// and scheme holds more than one value, or when a cell or field the
/// table needs is missing.
pub fn render(report: &Value) -> Result<String, String> {
    let name = report
        .get("experiment")
        .and_then(|e| e.get("name"))
        .and_then(Value::as_str)
        .ok_or("not a sweep report: no experiment.name")?;
    let reduce: fn(&Sweep) -> Result<String, String> = match name {
        "table1" => table1,
        "table2" => table2,
        "table3" => table3,
        "fig4" => |s| relative(s, &FIG4),
        "fig9" => |s| relative(s, &FIG9),
        "fig10" => |s| relative(s, &FIG10),
        "energy" => |s| relative(s, &ENERGY),
        other => {
            return Err(format!(
                "preset '{other}' has no reduction (tables exist for table1, table2, \
                 table3, fig4, fig9, fig10 and energy)"
            ))
        }
    };
    reduce(&Sweep::read(report)?)
}

/// The parts of a sweep report a reduction reads.
struct Sweep<'a> {
    workloads: Vec<&'a str>,
    schemes: Vec<&'a str>,
    mem: u64,
    refs: u64,
    warm: u64,
    cells: &'a [Value],
}

impl<'a> Sweep<'a> {
    fn read(report: &'a Value) -> Result<Self, String> {
        let exp = report.get("experiment").ok_or("no experiment")?;
        let axis = |key: &str| -> Result<&'a [Value], String> {
            exp.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("no experiment.{key}"))
        };
        for key in ["filters", "seeds", "llc_bytes"] {
            let n = axis(key)?.len();
            if n != 1 {
                return Err(format!(
                    "a table needs one value on every axis but workload and scheme; \
                     experiment.{key} has {n}"
                ));
            }
        }
        let strs = |key: &str| -> Result<Vec<&'a str>, String> {
            axis(key)?
                .iter()
                .map(|v| v.as_str().ok_or_else(|| format!("bad experiment.{key}")))
                .collect()
        };
        let uint = |key: &str| {
            exp.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("no experiment.{key}"))
        };
        let (workloads, schemes) = (strs("workloads")?, strs("schemes")?);
        if workloads.is_empty() || schemes.is_empty() {
            return Err("a table needs at least one workload and one scheme".into());
        }
        Ok(Sweep {
            workloads,
            schemes,
            mem: uint("mem")?,
            refs: uint("refs")?,
            warm: uint("warm")?,
            cells: report
                .get("cells")
                .and_then(Value::as_array)
                .ok_or("no cells")?,
        })
    }

    /// The cell of `workload` under `scheme`.
    fn cell(&self, workload: &str, scheme: &str) -> Result<&'a Value, String> {
        self.cells
            .iter()
            .find(|c| {
                c.get("workload").and_then(Value::as_str) == Some(workload)
                    && c.get("scheme").and_then(Value::as_str) == Some(scheme)
            })
            .ok_or_else(|| format!("no cell for {workload} / {scheme}"))
    }

    fn footer(&self) -> String {
        format!(
            "({} measured + {} warm-up references per cell)\n",
            self.refs, self.warm
        )
    }
}

/// The number at `stats.<path>` in a cell.
fn num(cell: &Value, path: &[&str]) -> Result<f64, String> {
    std::iter::once(&"stats")
        .chain(path)
        .try_fold(cell, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("no stats.{}", path.join(".")))
}

/// `a / b`, or 0 for an empty denominator.
fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The mean over a kernel's address spaces of each one's r/w-shared
/// fraction of its mapped pages (spaces with no mapping are skipped).
/// This is a property of the workload's layout: the synonym
/// applications do not churn, so a freshly instantiated kernel gives the
/// end-of-run value.
fn shared_area(kernel: &Kernel) -> f64 {
    let mut fractions: Vec<(u16, f64)> = kernel
        .spaces()
        .filter(|(_, space)| space.total_vma_pages() > 0)
        .map(|(asid, space)| {
            let total = space.total_vma_pages() as f64;
            (asid.as_u16(), space.rw_shared_pages() as f64 / total)
        })
        .collect();
    fractions.sort_by_key(|&(asid, _)| asid);
    let n = fractions.len() as f64;
    share(fractions.iter().map(|&(_, f)| f).sum(), n)
}

/// `workload`'s profile and a fresh 16 GiB kernel with it instantiated
/// under `policy` from `cell`'s seed, as the cell's run began.
fn fresh_kernel(
    sweep: &Sweep,
    workload: &str,
    cell: &Value,
    policy: AllocPolicy,
) -> Result<(WorkloadSpec, Kernel), String> {
    let seed = cell
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or("cell has no seed")?;
    let spec = params::workload_by_name(workload, sweep.mem)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut kernel = Kernel::new(16 << 30, policy);
    spec.instantiate(&mut kernel, seed)
        .map_err(|e| format!("instantiating {workload}: {e}"))?;
    Ok((spec, kernel))
}

/// Table I: per workload, the r/w-shared area of its layout and the
/// share of its references that touch r/w-shared regions.
fn table1(sweep: &Sweep) -> Result<String, String> {
    const PAPER: &[(&str, &str, &str)] = &[
        ("ferret", "0.3%", "0.2%"),
        ("postgres", "66%", "16%"),
        ("specjbb", "~0.5%", "~0.1%"),
        ("firefox", "~2%", "~0.6%"),
        ("apache", "~3%", "~0.5%"),
    ];
    let scheme = sweep.schemes[0];
    let mut rows = Vec::new();
    for &w in &sweep.workloads {
        let cell = sweep.cell(w, scheme)?;
        let (_, kernel) = fresh_kernel(sweep, w, cell, AllocPolicy::DemandPaging)?;
        let access = share(
            num(cell, &["translation", "shared_accesses"])?,
            num(cell, &["refs"])?,
        );
        let (area_paper, access_paper) = PAPER
            .iter()
            .find(|(n, ..)| *n == w)
            .map_or(("0%", "0%"), |&(_, a, b)| (a, b));
        rows.push(vec![
            w.to_string(),
            pct(shared_area(&kernel)),
            area_paper.into(),
            pct(access),
            access_paper.into(),
        ]);
    }
    Ok(format_table(
        "Table I: r/w shared memory area and accesses to shared regions",
        &[
            "workload",
            "shared area",
            "(paper)",
            "shared access",
            "(paper)",
        ],
        &rows,
    ) + &sweep.footer())
}

/// Table II: the synonym filter and synonym TLB (second scheme) against
/// the baseline two-level TLB (first scheme).
fn table2(sweep: &Sweep) -> Result<String, String> {
    const PAPER: &[(&str, &str, &str, &str)] = &[
        ("ferret", "0.061%", "99.1%", "20.4%"),
        ("postgres", "0.029%", "83.7%", "-6.1%"),
        ("specjbb", "0.008%", "99.9%", "42.6%"),
        ("firefox", "0.030%", "99.4%", "63.2%"),
        ("apache", "0.143%", "99.5%", "69.7%"),
    ];
    let [base_scheme, hybrid_scheme] = sweep.schemes[..] else {
        return Err("table2 compares exactly two schemes: baseline, then hybrid".into());
    };
    let mut rows = Vec::new();
    for &w in &sweep.workloads {
        let base = sweep.cell(w, base_scheme)?;
        let hyb = sweep.cell(w, hybrid_scheme)?;
        let t = |cell, key| num(cell, &["translation", key]);
        let fp = share(t(hyb, "false_positives")?, t(hyb, "filter_lookups")?);
        let access_reduction =
            1.0 - share(t(hyb, "synonym_tlb_lookups")?, t(base, "l1_tlb_lookups")?);
        let base_misses = num(base, &["baseline_tlb_misses"])?.max(1.0);
        let miss_reduction = 1.0 - t(hyb, "total_tlb_misses")? / base_misses;
        let (p_fp, p_access, p_miss) = PAPER
            .iter()
            .find(|(n, ..)| *n == w)
            .map_or(("-", "-", "-"), |&(_, a, b, c)| (a, b, c));
        rows.push(vec![
            w.to_string(),
            format!("{:.3}%", fp * 100.0),
            p_fp.into(),
            pct(access_reduction),
            p_access.into(),
            pct(miss_reduction),
            p_miss.into(),
        ]);
    }
    Ok(format_table(
        "Table II: synonym filter effectiveness (hybrid vs baseline TLBs)",
        &[
            "workload",
            "FP rate",
            "(paper)",
            "TLB access red.",
            "(paper)",
            "TLB miss red.",
            "(paper)",
        ],
        &rows,
    ) + &sweep.footer())
}

/// Table III: per workload, the eager segments its layout allocates,
/// the RMM range TLB's misses per kilo-instruction, and the share of the
/// eagerly allocated memory the workload touches. Segments come from a
/// fresh kernel; utilization is the layout's planned touched fraction,
/// which a run's touched pages converge to.
fn table3(sweep: &Sweep) -> Result<String, String> {
    let scheme = sweep.schemes[0];
    let mut rows = Vec::new();
    for &w in &sweep.workloads {
        let cell = sweep.cell(w, scheme)?;
        let eager = AllocPolicy::EagerSegments { split: 1 };
        let (spec, kernel) = fresh_kernel(sweep, w, cell, eager)?;
        let mpki = share(
            num(cell, &["translation", "segment_table_accesses"])? * 1000.0,
            num(cell, &["instructions"])?,
        );
        let total: u64 = spec.regions.iter().map(|r| r.len).sum();
        let touched: f64 = spec
            .regions
            .iter()
            .map(|r| r.len as f64 * r.touch_frac)
            .sum();
        rows.push(vec![
            w.to_string(),
            kernel.segments().len().to_string(),
            format!("{mpki:.3}"),
            pct(share(touched, total as f64)),
        ]);
    }
    Ok(format_table(
        "Table III: segments in use, RMM(32) MPKI, memory utilization",
        &["workload", "segments", "RMM MPKI", "utilization"],
        &rows,
    ) + "Paper shape: stream/gups use about 1 segment at ~0 MPKI and full utilization; \
         tigr, xalancbmk and memcached use tens of segments with non-zero MPKI; \
         cactus and memcached leave eager memory untouched.\n"
        + &sweep.footer())
}

/// A figure whose cells are one metric, shown relative to the first
/// scheme.
struct Relative {
    title: &'static str,
    /// Column label of the first scheme's absolute value.
    unit: &'static str,
    /// Decimals of the absolute value.
    digits: usize,
    /// The metric of one cell.
    metric: fn(&Value) -> Result<f64, String>,
    /// Summarize with the ratio of column totals instead of a geomean.
    total: bool,
    /// The paper's shape, printed under the table.
    note: &'static str,
}

const FIG4: Relative = Relative {
    title: "Figure 4: delayed-TLB MPKI normalized to the first size",
    unit: "MPKI",
    digits: 2,
    metric: |s| {
        Ok(num(s, &["translation", "delayed_tlb_misses"])? * 1000.0
            / num(s, &["instructions"])?.max(1.0))
    },
    total: false,
    note: "Paper shape: gups/milc/mcf stay near 1.0 as the delayed TLB grows; \
           xalancbmk, omnetpp and soplex drop steeply.",
};

const FIG9: Relative = Relative {
    title: "Figure 9: IPC normalized to the physically addressed baseline",
    unit: "IPC",
    digits: 3,
    metric: |s| num(s, &["ipc"]),
    total: false,
    note: "Paper: delayed TLBs saturate on big page working sets; many-segment \
           translation tracks ideal (about +10.7% on memory-intensive apps).",
};

const FIG10: Relative = Relative {
    title: "Figure 10: guest IPC normalized to the nested (2D translation-cache) baseline",
    unit: "IPC",
    digits: 3,
    metric: |s| num(s, &["ipc"]),
    total: false,
    note: "Paper: hybrid virtual caching gains +31.7% on average over the nested baseline.",
};

const ENERGY: Relative = Relative {
    title: "Translation dynamic energy normalized to the baseline TLBs",
    unit: "µJ",
    digits: 2,
    metric: |s| num(s, &["energy_uj"]),
    total: true,
    note: "Paper: hybrid virtual caching cuts translation power by about 60%.",
};

/// Per workload, `fig.metric` for every scheme as a ratio to the first
/// scheme, plus the first scheme's absolute value.
fn relative(sweep: &Sweep, fig: &Relative) -> Result<String, String> {
    let first = sweep.schemes[0];
    let unit_header = format!("{} {first}", fig.unit);
    let headers: Vec<&str> = ["workload", unit_header.as_str()]
        .into_iter()
        .chain(sweep.schemes.iter().copied())
        .collect();
    let n = sweep.schemes.len();
    let (mut log_sums, mut totals) = (vec![0.0; n], vec![0.0; n]);
    // Rows whose first scheme reads zero have no ratios.
    let mut ratioed = 0usize;
    let mut rows = Vec::new();
    for &w in &sweep.workloads {
        let values = sweep
            .schemes
            .iter()
            .map(|&s| (fig.metric)(sweep.cell(w, s)?))
            .collect::<Result<Vec<f64>, String>>()?;
        let base = values[0];
        let mut row = vec![w.to_string(), format!("{base:.*}", fig.digits)];
        if base > 0.0 {
            ratioed += 1;
        }
        for (i, &v) in values.iter().enumerate() {
            totals[i] += v;
            row.push(if base > 0.0 {
                log_sums[i] += (v / base).ln();
                ratio(v / base)
            } else {
                "-".into()
            });
        }
        rows.push(row);
    }
    let summary: Vec<String> = if fig.total {
        ["total".to_string(), format!("{:.*}", fig.digits, totals[0])]
            .into_iter()
            .chain(totals.iter().map(|&t| ratio(share(t, totals[0]))))
            .collect()
    } else {
        ["geomean".to_string(), "-".to_string()]
            .into_iter()
            .chain(log_sums.iter().map(|&l| {
                if ratioed > 0 {
                    ratio((l / ratioed as f64).exp())
                } else {
                    "-".into()
                }
            }))
            .collect()
    };
    rows.push(summary);
    Ok(format_table(fig.title, &headers, &rows) + fig.note + "\n" + &sweep.footer())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use hvc_core::{SystemConfig, SystemSim, TranslationScheme};

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(ratio(1.23456), "1.235");
        let t = format_table("t", &["a", "bb"], &[vec!["1".into(), "22".into()]]);
        assert_eq!(t, "\n=== t ===\na  bb\n-----\n1  22\n");
    }

    /// The shared area read from a freshly instantiated kernel equals the
    /// value at the end of a run: the synonym applications do not churn.
    #[test]
    fn fresh_shared_area_equals_the_end_of_run_value() {
        for name in params::SYNONYM_WORKLOADS.iter().chain(&["mcf"]) {
            let spec = params::workload_by_name(name, 64 << 20).unwrap();
            assert!(spec.churn.is_none(), "{name}");
            let mut kernel = Kernel::new(16 << 30, AllocPolicy::DemandPaging);
            let mut wl = spec.instantiate(&mut kernel, 17).unwrap();
            let fresh = shared_area(&kernel);
            let mut sim = SystemSim::new(
                kernel,
                SystemConfig::isca2016(),
                TranslationScheme::Baseline,
            );
            sim.run(&mut wl, 20_000);
            assert_eq!(fresh, shared_area(sim.kernel()), "{name}");
            if *name == "mcf" {
                assert_eq!(fresh, 0.0);
            } else {
                assert!(fresh > 0.0, "{name}");
            }
        }
    }

    fn report(name: &str, seeds: &str) -> Value {
        report_with_schemes(name, seeds, r#""baseline", "ideal""#)
    }

    fn report_with_schemes(name: &str, seeds: &str, schemes: &str) -> Value {
        parse(&format!(
            r#"{{"experiment": {{"name": "{name}", "workloads": ["gups"],
                "schemes": [{schemes}], "filters": ["bloom"],
                "seeds": [{seeds}], "llc_bytes": [2097152], "mem": 1048576,
                "refs": 10, "warm": 0}},
              "cells": [
                {{"workload": "gups", "scheme": "baseline", "seed": 1,
                  "stats": {{"ipc": 0.5, "energy_uj": 4.0}}}},
                {{"workload": "gups", "scheme": "ideal", "seed": 2,
                  "stats": {{"ipc": 1.0, "energy_uj": 1.0}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn relative_tables_divide_by_the_first_scheme() {
        let fig9 = render(&report("fig9", "42")).unwrap();
        assert!(
            fig9.contains("gups         0.500     1.000  2.000"),
            "{fig9}"
        );
        assert!(
            fig9.contains("geomean             -     1.000  2.000"),
            "{fig9}"
        );
        let energy = render(&report("energy", "42")).unwrap();
        assert!(
            energy.contains("total         4.00     1.000  0.250"),
            "{energy}"
        );
    }

    #[test]
    fn reports_that_are_not_one_table_are_rejected() {
        let err = render(&report("fig9", "1, 2")).unwrap_err();
        assert!(err.contains("seeds has 2"), "{err}");
        let err = render(&report("smoke", "42")).unwrap_err();
        assert!(err.contains("no reduction"), "{err}");
        assert!(render(&parse("{}").unwrap()).is_err());
        let empty = report_with_schemes("fig9", "42", "");
        assert!(render(&empty).unwrap_err().contains("one scheme"));
    }
}
