//! **Figure 7** — index-cache size sensitivity.
//!
//! (a) Real workloads, single-threaded and 4-way multiprogrammed, with
//!     each segment artificially broken into 10 pieces (external
//!     fragmentation), LLC-filtered: hit rate vs index-cache size.
//! (b) Synthetic worst case: 1024 / 2048 segments spread evenly over a
//!     40-bit physical space, one million uniform random accesses.
//!
//! Paper shape: real workloads exceed ~99% hit rate by 8 KB; the worst
//! case needs 32 KB for 1024 segments and reaches ≈75% for 2048.

use hvc_bench::{refs_per_run, PHYS_BYTES};
use hvc_cache::{Cache, CacheConfig};
use hvc_os::{AllocPolicy, Kernel, SegmentTable};
use hvc_runner::tables::{pct, print_table};
use hvc_segment::{IndexCache, IndexTree};
use hvc_types::{Asid, BlockName, Cycles, PhysAddr, VirtAddr};
use hvc_workloads::{apps, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: &[u64] = &[128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536];

/// Runs the LLC-filtered index-cache study for one set of workloads
/// sharing a kernel; returns the hit rate per index-cache size.
fn run_apps(specs: &[WorkloadSpec], refs: usize) -> Vec<f64> {
    // Fragment each allocation into 10 segments, as the paper does.
    let mut kernel =
        Kernel::with_segment_capacity(PHYS_BYTES, AllocPolicy::EagerSegments { split: 10 }, 8192);
    let mut insts: Vec<_> = specs
        .iter()
        .map(|s| s.instantiate(&mut kernel, 53).expect("instantiate"))
        .collect();
    let tree = IndexTree::build(kernel.segments(), PhysAddr::new(1 << 40));

    // One 2 MB LLC filters translation requests (as in the paper).
    let mut llc = Cache::new(CacheConfig::l3_2m());
    let mut caches: Vec<IndexCache> = SIZES
        .iter()
        .map(|&s| IndexCache::new(s, Cycles::new(3)))
        .collect();
    let mut touched = Vec::with_capacity(8);

    for i in 0..refs {
        let n_insts = insts.len();
        let inst = &mut insts[i % n_insts];
        let item = inst.next_item();
        let asid = item.mref.asid;
        let va = item.mref.vaddr;
        let name = BlockName::Virt(asid, va.line());
        if llc.access(name, item.mref.kind.is_write()) {
            continue;
        }
        llc.fill(name, false, hvc_types::Permissions::RW);
        // LLC miss: traverse the index tree through every candidate
        // index-cache size in parallel.
        touched.clear();
        let _ = tree.lookup(asid, va, &mut touched);
        for c in caches.iter_mut() {
            for &node in &touched {
                c.access(node);
            }
        }
    }
    caches
        .iter()
        .map(|c| c.stats().hit_rate().unwrap_or(0.0))
        .collect()
}

/// Synthetic worst case: `n` segments spread evenly over 40-bit space,
/// uniform random probes.
fn run_worst_case(n: usize, probes: usize) -> Vec<f64> {
    let mut table = SegmentTable::new(n);
    let span = 1u64 << 40;
    let step = span / n as u64;
    for i in 0..n as u64 {
        table
            .insert(
                Asid::new(1),
                VirtAddr::new(i * step),
                step,
                PhysAddr::new(i * step),
            )
            .expect("capacity");
    }
    let tree = IndexTree::build(&table, PhysAddr::new(1 << 41));
    let mut caches: Vec<IndexCache> = SIZES
        .iter()
        .map(|&s| IndexCache::new(s, Cycles::new(3)))
        .collect();
    let mut rng = StdRng::seed_from_u64(99);
    let mut touched = Vec::with_capacity(8);
    for _ in 0..probes {
        let va = VirtAddr::new(rng.gen_range(0..span));
        touched.clear();
        let _ = tree.lookup(Asid::new(1), va, &mut touched);
        for c in caches.iter_mut() {
            for &node in &touched {
                c.access(node);
            }
        }
    }
    caches
        .iter()
        .map(|c| c.stats().hit_rate().unwrap_or(0.0))
        .collect()
}

fn main() {
    let refs = refs_per_run(500_000);
    let headers: Vec<String> = std::iter::once("config".to_string())
        .chain(SIZES.iter().map(|s| {
            if *s >= 1024 {
                format!("{}KB", s / 1024)
            } else {
                format!("{s}B")
            }
        }))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();

    // (a) single-threaded applications.
    let singles = [
        apps::xalancbmk(),
        apps::omnetpp(),
        apps::astar(),
        apps::memcached(),
    ];
    let mut single_avg = vec![0.0; SIZES.len()];
    for s in &singles {
        let rates = run_apps(std::slice::from_ref(s), refs);
        for (a, r) in single_avg.iter_mut().zip(&rates) {
            *a += r / singles.len() as f64;
        }
        rows.push(
            std::iter::once(format!("single:{}", s.name))
                .chain(rates.iter().map(|r| pct(*r)))
                .collect(),
        );
    }
    rows.push(
        std::iter::once("single-avg".to_string())
            .chain(single_avg.iter().map(|r| pct(*r)))
            .collect(),
    );

    // (b) 4-way multiprogrammed mixes.
    let mixes: Vec<Vec<WorkloadSpec>> = vec![
        vec![
            apps::xalancbmk(),
            apps::omnetpp(),
            apps::astar(),
            apps::memcached(),
        ],
        vec![
            apps::tigr(),
            apps::mummer(),
            apps::xalancbmk(),
            apps::canneal(),
        ],
        vec![
            apps::memcached(),
            apps::tigr(),
            apps::omnetpp(),
            apps::npb_cg(),
        ],
    ];
    let mut multi_avg = vec![0.0; SIZES.len()];
    for (i, mix) in mixes.iter().enumerate() {
        let rates = run_apps(mix, refs);
        for (a, r) in multi_avg.iter_mut().zip(&rates) {
            *a += r / mixes.len() as f64;
        }
        rows.push(
            std::iter::once(format!("multi:mix{}", i + 1))
                .chain(rates.iter().map(|r| pct(*r)))
                .collect(),
        );
    }
    rows.push(
        std::iter::once("multi-avg".to_string())
            .chain(multi_avg.iter().map(|r| pct(*r)))
            .collect(),
    );

    // (c) worst case.
    for n in [1024usize, 2048] {
        let rates = run_worst_case(n, refs.max(1_000_000));
        rows.push(
            std::iter::once(format!("worst-case {n} seg"))
                .chain(rates.iter().map(|r| pct(*r)))
                .collect(),
        );
    }

    print_table(
        "Figure 7: index-cache hit rate vs size (10× fragmented segments, 2MB LLC filter)",
        &headers_ref,
        &rows,
    );
    println!("\nExpected shape: real workloads ≥99% by 8KB; worst case needs 32KB (1024 seg)");
    println!("and reaches ≈75% for 2048 segments at 32KB.");
    println!("({refs} references per study; set HVC_REFS to change)");
}
