//! **Ablation** — segment-cache (SC) size sweep.
//!
//! The paper picks a 128-entry, 2 MB-granularity SC to hide the
//! index-tree traversal (Section IV-C). This ablation sweeps SC capacity
//! and reports SC hit rate and mean delayed-translation latency.

use hvc_bench::{refs_per_run, PHYS_BYTES};
use hvc_os::{AllocPolicy, Kernel};
use hvc_runner::tables::{pct, print_table};
use hvc_segment::{HwSegmentTable, IndexCache, ManySegmentTranslator, SegmentCache};
use hvc_types::Cycles;
use hvc_workloads::apps;

fn main() {
    let refs = refs_per_run(300_000);
    let mut rows = Vec::new();

    for &entries in &[0usize, 16, 64, 128, 256, 512] {
        let mut kernel = Kernel::new(PHYS_BYTES, AllocPolicy::EagerSegments { split: 4 });
        let mut wl = apps::memcached()
            .instantiate(&mut kernel, 5)
            .expect("instantiate");
        let mut tr = ManySegmentTranslator::new(
            SegmentCache::new(entries, Cycles::new(2)),
            IndexCache::isca2016(),
            HwSegmentTable::mirror(kernel.segments(), Cycles::new(7)),
            kernel.segments(),
            hvc_types::PhysAddr::new(1 << 40),
        );
        let mut total_lat = 0u64;
        let mut translations = 0u64;
        for _ in 0..refs {
            let item = wl.next_item();
            if let Some((_, lat)) =
                tr.translate(item.mref.asid, item.mref.vaddr, |_| Cycles::new(160))
            {
                total_lat += lat.get();
                translations += 1;
            }
        }
        let (h, m) = tr.sc_stats();
        let hit_rate = if h + m > 0 {
            h as f64 / (h + m) as f64
        } else {
            0.0
        };
        rows.push(vec![
            entries.to_string(),
            pct(hit_rate),
            format!("{:.1}", total_lat as f64 / translations.max(1) as f64),
        ]);
    }

    print_table(
        "Ablation: segment-cache size vs hit rate and mean delayed-translation latency",
        &["SC entries", "SC hit rate", "mean latency (cy)"],
        &rows,
    );
    println!("\nExpected shape: latency collapses from ≈20 cycles toward the 2-cycle SC");
    println!("as capacity covers the hot 2 MB regions; 128 entries suffices (the paper's pick).");
}
