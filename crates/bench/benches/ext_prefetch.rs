//! **Extension** — next-line prefetching under physical vs hybrid
//! virtual caching.
//!
//! A classic side benefit of virtually-addressed hierarchies: a next-line
//! prefetcher can follow *virtual* contiguity across page boundaries,
//! while a physically-addressed prefetcher must stop at each page edge
//! (the next physical line is unknown without a translation). Streaming
//! workloads cross a page boundary every 64 lines, so ~1.6% of physical
//! prefetch opportunities vanish — and, more importantly, every page
//! transition re-exposes a demand miss.

use hvc_bench::{refs_per_run, PHYS_BYTES};
use hvc_core::{SystemConfig, SystemSim, TranslationScheme};
use hvc_os::{AllocPolicy, Kernel};
use hvc_runner::tables::{print_table, ratio};
use hvc_workloads::apps;

fn main() {
    let refs = refs_per_run(400_000);
    let mut rows = Vec::new();

    for spec in [
        apps::milc(),
        apps::stream(),
        apps::npb_cg(),
        apps::gups(256 << 20),
    ] {
        let mut cells = vec![spec.name.clone()];
        let mut base_ipc = 0.0;
        for (scheme, policy, prefetch) in [
            (
                TranslationScheme::Baseline,
                AllocPolicy::DemandPaging,
                false,
            ),
            (TranslationScheme::Baseline, AllocPolicy::DemandPaging, true),
            (
                TranslationScheme::HybridManySegment {
                    segment_cache: true,
                },
                AllocPolicy::EagerSegments { split: 1 },
                true,
            ),
        ] {
            let mut kernel = Kernel::new(PHYS_BYTES, policy);
            let mut wl = spec.instantiate(&mut kernel, 29).expect("instantiate");
            let mut config = SystemConfig::isca2016();
            config.prefetch_next_line = prefetch;
            let mut sim = SystemSim::new(kernel, config, scheme);
            sim.warm_up(&mut wl, refs / 2);
            let r = sim.run(&mut wl, refs);
            if base_ipc == 0.0 {
                base_ipc = r.ipc();
                cells.push(format!("{base_ipc:.3}"));
            } else {
                cells.push(ratio(r.ipc() / base_ipc));
            }
            if prefetch {
                cells.push(r.translation.prefetches_blocked.to_string());
            }
        }
        rows.push(cells);
    }

    print_table(
        "Extension: next-line prefetching (IPC normalized to no-prefetch baseline)",
        &[
            "workload",
            "base IPC",
            "phys+pf",
            "blocked@page",
            "hybrid+pf",
            "blocked@page",
        ],
        &rows,
    );
    println!("\nExpected shape: prefetching helps the streaming workloads under both");
    println!("schemes; the physical prefetcher reports blocked page-boundary");
    println!("prefetches while the virtual one reports none.");
    println!("({refs} references per point; set HVC_REFS to change)");
}
