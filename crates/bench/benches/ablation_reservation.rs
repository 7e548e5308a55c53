//! **Ablation** — reservation-based allocation (Section IV-B).
//!
//! Pure eager allocation strands memory for partially-touched arenas
//! (Table III's utilization column); reservation-based allocation
//! commits sub-segments on first touch and merges neighbours, recovering
//! utilization at the cost of more segments and commit-time work.

use hvc_bench::{refs_per_run, PHYS_BYTES};
use hvc_core::{SystemConfig, SystemSim, TranslationScheme};
use hvc_os::{AllocPolicy, Kernel};
use hvc_runner::tables::{pct, print_table};
use hvc_workloads::apps;

fn main() {
    let refs = refs_per_run(300_000);
    let mut rows = Vec::new();

    for spec in [apps::cactus(), apps::memcached(), apps::gems()] {
        for (label, policy) in [
            ("eager", AllocPolicy::EagerSegments { split: 1 }),
            (
                "reserved-2MB",
                AllocPolicy::ReservedSegments { sub_pages: 512 },
            ),
            (
                "reserved-8MB",
                AllocPolicy::ReservedSegments { sub_pages: 2048 },
            ),
        ] {
            let mut kernel = Kernel::new(PHYS_BYTES, policy);
            let mut wl = spec.instantiate(&mut kernel, 91).expect("instantiate");
            let asid = wl.procs()[0].asid;
            let mut sim = SystemSim::new(
                kernel,
                SystemConfig::isca2016(),
                TranslationScheme::HybridManySegment {
                    segment_cache: true,
                },
            );
            let r = sim.run(&mut wl, refs);
            let kernel = sim.kernel();
            let space = kernel.space(asid).expect("space");
            // Committed physical memory vs what the workload will ever
            // touch: eager commits everything up front; reservation
            // commits only what was touched (so utilization ≈ 100%).
            let committed = space.eager_allocated_bytes();
            let planned_touched: f64 = spec
                .regions
                .iter()
                .map(|rg| rg.len as f64 * rg.touch_frac)
                .sum();
            let util = if committed == 0 {
                0.0
            } else {
                (planned_touched / committed as f64).min(1.0)
            };
            rows.push(vec![
                format!("{}:{}", spec.name, label),
                kernel.segments().count_asid(asid).to_string(),
                format!("{}MB", committed >> 20),
                pct(util),
                format!("{:.3}", r.ipc()),
                r.translation.segment_table_rebuilds.to_string(),
            ]);
        }
    }

    print_table(
        "Ablation: eager vs reservation-based segment allocation",
        &[
            "workload:policy",
            "segments",
            "committed",
            "utilization",
            "IPC",
            "rebuilds",
        ],
        &rows,
    );
    println!("\nExpected shape: reservation recovers the stranded memory of");
    println!("partially-touched arenas (utilization → ~100% of committed) while");
    println!("using more segments and paying commit-time structure rebuilds.");
    println!("({refs} references per point; set HVC_REFS to change)");
}
