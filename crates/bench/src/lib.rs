//! Shared harness utilities for the experiment benches.
//!
//! Every table and figure of the paper has a dedicated bench target in
//! `benches/` (plain `main`s, `harness = false`); this library holds the
//! pieces they share: run helpers, table formatting, and scaling knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hvc_core::{RunReport, SystemConfig, SystemSim, TranslationScheme};
use hvc_os::{AllocPolicy, Kernel};
use hvc_workloads::WorkloadSpec;

/// Default physical memory for experiment kernels.
pub const PHYS_BYTES: u64 = 16 << 30;

/// Returns the number of memory references to simulate per configuration,
/// honouring the `HVC_REFS` environment variable (e.g. `HVC_REFS=200000`
/// for a quick pass).
pub fn refs_per_run(default: usize) -> usize {
    std::env::var("HVC_REFS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Instantiates `spec` on a fresh kernel and runs it under `scheme`.
///
/// # Panics
///
/// Panics if workload instantiation fails (experiment misconfiguration).
pub fn run_native(
    spec: &WorkloadSpec,
    scheme: TranslationScheme,
    policy: AllocPolicy,
    config: SystemConfig,
    refs: usize,
    seed: u64,
) -> (RunReport, SystemSim) {
    run_native_warm(spec, scheme, policy, config, 0, refs, seed)
}

/// Like [`run_native`], but runs `warm` unmeasured references first so
/// the report excludes cold-start effects.
///
/// # Panics
///
/// Panics if workload instantiation fails.
pub fn run_native_warm(
    spec: &WorkloadSpec,
    scheme: TranslationScheme,
    policy: AllocPolicy,
    config: SystemConfig,
    warm: usize,
    refs: usize,
    seed: u64,
) -> (RunReport, SystemSim) {
    let mut kernel = Kernel::new(PHYS_BYTES, policy);
    let mut wl = spec
        .instantiate(&mut kernel, seed)
        .unwrap_or_else(|e| panic!("instantiating {}: {e}", spec.name));
    let mut sim = SystemSim::new(kernel, config, scheme);
    if warm > 0 {
        sim.warm_up(&mut wl, warm);
    }
    let report = sim.run(&mut wl, refs);
    (report, sim)
}

/// Prints a fixed-width table with a title, header row, and data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a ratio with three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_workloads::apps;

    #[test]
    fn run_native_produces_report() {
        let (r, sim) = run_native(
            &apps::gups(4 << 20),
            TranslationScheme::Baseline,
            AllocPolicy::DemandPaging,
            SystemConfig::isca2016(),
            2000,
            1,
        );
        assert_eq!(r.refs, 2000);
        assert!(sim.kernel().space(hvc_types::Asid::new(1)).is_some());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(ratio(1.23456), "1.235");
        print_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn refs_env_override() {
        std::env::remove_var("HVC_REFS");
        assert_eq!(refs_per_run(123), 123);
    }
}
