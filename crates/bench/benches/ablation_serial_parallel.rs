//! **Ablation** — serial vs parallel delayed translation (Section IV-C).
//!
//! Serial translation (the paper's pick) starts after an LLC miss is
//! known: minimal energy, up to ~20 cycles of added miss latency.
//! Parallel translation overlaps the LLC lookup: it hides that latency
//! but performs a (mostly wasted) translation for every LLC access.

use hvc_bench::refs_per_run;
use hvc_core::{EnergyModel, SystemConfig, SystemSim, TranslationScheme};
use hvc_os::{AllocPolicy, Kernel};
use hvc_runner::tables::print_table;
use hvc_workloads::apps;

fn main() {
    let refs = refs_per_run(300_000);
    let model = EnergyModel::cacti_32nm();
    let mut rows = Vec::new();

    for spec in [apps::gups(256 << 20), apps::omnetpp(), apps::npb_cg()] {
        let mut results = Vec::new();
        for parallel in [false, true] {
            let mut kernel = Kernel::new(16 << 30, AllocPolicy::EagerSegments { split: 1 });
            let mut wl = spec.instantiate(&mut kernel, 13).expect("instantiate");
            let mut config = SystemConfig::isca2016();
            config.parallel_delayed = parallel;
            let mut sim = SystemSim::new(
                kernel,
                config,
                TranslationScheme::HybridManySegment {
                    segment_cache: true,
                },
            );
            sim.warm_up(&mut wl, refs / 2);
            let r = sim.run(&mut wl, refs);
            let energy = model.breakdown(&r.translation, 1024).total() / 1e6;
            results.push((r.ipc(), energy));
        }
        let (ipc_s, e_s) = results[0];
        let (ipc_p, e_p) = results[1];
        rows.push(vec![
            spec.name.clone(),
            format!("{ipc_s:.3}"),
            format!("{ipc_p:.3}"),
            format!("{:+.2}%", (ipc_p / ipc_s - 1.0) * 100.0),
            format!("{e_s:.2}"),
            format!("{e_p:.2}"),
            format!("{:+.0}%", (e_p / e_s - 1.0) * 100.0),
        ]);
    }

    print_table(
        "Ablation: serial vs parallel delayed translation (many-segment + SC)",
        &[
            "workload",
            "IPC serial",
            "IPC parallel",
            "Δperf",
            "µJ serial",
            "µJ parallel",
            "Δenergy",
        ],
        &rows,
    );
    println!("\nExpected shape: parallel buys a small latency win at a large translation-");
    println!("energy premium — the reason the paper defaults to serial access.");
    println!("({refs} references per point; set HVC_REFS to change)");
}
