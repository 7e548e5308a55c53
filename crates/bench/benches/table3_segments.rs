//! **Table III** — maximum segments in use per application, RMM
//! (32-segment range-TLB) MPKI, and eager-allocation memory utilization.
//!
//! Paper shape: most apps use few segments and fully utilize memory;
//! tigr / xalancbmk / memcached use many segments (thrashing RMM's 32
//! registers into measurable MPKI) and several apps strand 17–75% of
//! their eagerly allocated memory.

use hvc_bench::{refs_per_run, PHYS_BYTES};
use hvc_os::{AllocPolicy, Kernel};
use hvc_runner::tables::{pct, print_table};
use hvc_segment::Rmm;
use hvc_workloads::apps;

fn main() {
    let refs = refs_per_run(1_000_000);
    let mut rows = Vec::new();

    for spec in apps::table3_set() {
        let mut kernel = Kernel::new(PHYS_BYTES, AllocPolicy::EagerSegments { split: 1 });
        let mut wl = spec.instantiate(&mut kernel, 47).expect("instantiate");
        let asid = wl.procs()[0].asid;
        let segments = kernel.segments().count_asid(asid);

        // RMM: drive the access stream through the 32-entry range TLB on
        // the core-to-L1 path (every reference looks it up).
        let mut rmm = Rmm::rmm32();
        let mut instructions = 0u64;
        for _ in 0..refs {
            let item = wl.next_item();
            instructions += item.instructions();
            let asid = item.mref.asid;
            let va = item.mref.vaddr;
            if rmm.translate(asid, va).is_none() {
                // Segment walk + fill (counted as one RMM miss).
                let _ = rmm.fill_from(kernel.segments(), asid, va);
            }
        }
        let mpki = rmm.stats().mpki(instructions);

        // Utilization: touched bytes over eagerly allocated bytes. The
        // generator's page domain is exact, so report its planned
        // fraction (the run-measured value converges to it).
        let planned: f64 = {
            let total: u64 = spec.regions.iter().map(|r| r.len).sum();
            let touched: f64 = spec
                .regions
                .iter()
                .map(|r| r.len as f64 * r.touch_frac)
                .sum();
            touched / total as f64
        };

        rows.push(vec![
            spec.name.clone(),
            segments.to_string(),
            format!("{mpki:.3}"),
            pct(planned),
        ]);
    }

    print_table(
        "Table III: segments in use, RMM(32) MPKI, memory utilization",
        &["workload", "segments", "RMM MPKI", "utilization"],
        &rows,
    );
    println!("\nExpected shape: stream/gups ≈ 1 segment, MPKI ≈ 0, full utilization;");
    println!("tigr/xalancbmk/memcached tens of segments with non-zero RMM MPKI;");
    println!("cactus/memcached leave a large fraction of eager memory untouched.");
    println!("({refs} references per workload; set HVC_REFS to change)");
}
