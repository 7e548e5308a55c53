//! The shapes of two structure-level results, at test size:
//!
//! - Figure 7: the index-cache hit rate against its size, for real
//!   workloads behind an LLC filter and for a synthetic worst case.
//! - The segment-cache ablation: the delayed-translation latency
//!   against the segment cache's capacity (Section IV-C).

use hvc_cache::{Cache, CacheConfig};
use hvc_os::{AllocPolicy, Kernel, SegmentTable};
use hvc_segment::{IndexCache, IndexTree, ManySegmentTranslator, SegmentCache};
use hvc_types::{Asid, BlockName, Cycles, Permissions, PhysAddr, VirtAddr};
use hvc_workloads::{apps, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index-cache sizes in bytes, 256 B to 32 KB.
const SIZES: [u64; 8] = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// Hit rate of an index cache of every size in [`SIZES`], all fed the
/// nodes that `probes` touch in `tree`.
fn index_cache_hit_rates(
    tree: &IndexTree,
    probes: impl Iterator<Item = (Asid, VirtAddr)>,
) -> Vec<f64> {
    let mut caches: Vec<IndexCache> = SIZES
        .iter()
        .map(|&s| IndexCache::new(s, Cycles::new(3)))
        .collect();
    let mut touched = Vec::new();
    for (asid, va) in probes {
        touched.clear();
        let _ = tree.lookup(asid, va, &mut touched);
        for c in &mut caches {
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

/// Figure 7(a): `spec`'s segments broken into 10 pieces each, the index
/// tree probed on the misses of a 2 MB LLC over `refs` references.
fn app_hit_rates(spec: &WorkloadSpec, refs: usize) -> Vec<f64> {
    let mut kernel = Kernel::new(16 << 30, AllocPolicy::EagerSegments { split: 10 });
    let mut wl = spec.instantiate(&mut kernel, 53).expect("instantiate");
    let tree = IndexTree::build(kernel.segments(), PhysAddr::new(1 << 40));
    let mut llc = Cache::new(CacheConfig::l3_2m());
    let misses = std::iter::repeat_with(|| wl.next_item().mref)
        .take(refs)
        .filter(|m| {
            let name = BlockName::Virt(m.asid, m.vaddr.line());
            let hit = llc.access(name, m.kind.is_write());
            if !hit {
                llc.fill(name, false, Permissions::RW);
            }
            !hit
        })
        .map(|m| (m.asid, m.vaddr));
    index_cache_hit_rates(&tree, misses)
}

/// Figure 7(b): `n` equal segments spread over a 40-bit space, probed
/// at uniformly random addresses.
fn worst_case_hit_rates(n: u64, probes: usize) -> Vec<f64> {
    let span = 1u64 << 40;
    let step = span / n;
    let mut table = SegmentTable::new(n as usize);
    for i in 0..n {
        let base = i * step;
        table
            .insert(Asid::new(1), VirtAddr::new(base), step, PhysAddr::new(base))
            .expect("capacity");
    }
    let tree = IndexTree::build(&table, PhysAddr::new(1 << 41));
    let mut rng = StdRng::seed_from_u64(99);
    let probes = std::iter::repeat_with(|| VirtAddr::new(rng.gen_range(0..span)))
        .take(probes)
        .map(|va| (Asid::new(1), va));
    index_cache_hit_rates(&tree, probes)
}

/// Prints one row of hit rates per entry of `rows` under a header of
/// the sizes in [`SIZES`] (visible with `--nocapture`).
fn print_hit_rates(title: &str, rows: &[(&str, &[f64])]) {
    println!("{title}");
    let header: String = SIZES
        .iter()
        .map(|&s| match s {
            s if s < 1024 => format!("{:>8}", format!("{s} B")),
            s => format!("{:>8}", format!("{} KB", s / 1024)),
        })
        .collect();
    println!("{:<14}{header}", "hit rate (%)");
    for (name, rates) in rows {
        let cells: String = rates
            .iter()
            .map(|r| format!("{:>8.2}", 100.0 * r))
            .collect();
        println!("{name:<14}{cells}");
    }
}

fn at(rates: &[f64], size: u64) -> f64 {
    rates[SIZES
        .iter()
        .position(|&s| s == size)
        .expect("a listed size")]
}

/// Real workloads need only a modest index cache: at least 99% of
/// index-tree node reads hit an 8 KB one, and a larger cache never hits
/// less. xalancbmk's tree outgrows the smallest caches.
#[test]
fn figure7_real_workloads_hit_by_8kb() {
    let specs = [apps::xalancbmk(), apps::omnetpp(), apps::astar()];
    let all: Vec<Vec<f64>> = specs.iter().map(|s| app_hit_rates(s, 100_000)).collect();
    let rows: Vec<(&str, &[f64])> = specs
        .iter()
        .zip(&all)
        .map(|(s, r)| (s.name.as_str(), r.as_slice()))
        .collect();
    print_hit_rates("Figure 7(a): index-cache hit rate, 100 k references", &rows);
    for (spec, rates) in specs.iter().zip(all) {
        assert!(at(&rates, 8192) >= 0.99, "{}: {rates:?}", spec.name);
        assert!(
            rates.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "{}: {rates:?}",
            spec.name
        );
        if spec.name == "xalancbmk" {
            assert!(at(&rates, 256) < 0.9, "{rates:?}");
        }
    }
}

/// The synthetic worst case needs a 32 KB index cache for 1024
/// segments, and 2048 segments hit less at every smaller size. The
/// paper reads 75.5% at 32 KB for 2048 segments; the bulk-built tree
/// here is densely packed and fits 32 KB (EXPERIMENTS.md, Figure 7).
#[test]
fn figure7_worst_case_needs_32kb() {
    let seg1024 = worst_case_hit_rates(1024, 200_000);
    let seg2048 = worst_case_hit_rates(2048, 200_000);
    print_hit_rates(
        "Figure 7(b): index-cache hit rate, 200 k uniform probes",
        &[("1024 segments", &seg1024), ("2048 segments", &seg2048)],
    );
    assert!(at(&seg1024, 8192) < 0.95, "{seg1024:?}");
    assert!(at(&seg1024, 32768) >= 0.99, "{seg1024:?}");
    for (&size, (a, b)) in SIZES.iter().zip(seg1024.iter().zip(&seg2048)) {
        if size < 32768 {
            assert!(b < a, "{size} B: 2048 segments {b}, 1024 segments {a}");
        }
    }
    assert!(at(&seg2048, 32768) >= 0.99, "{seg2048:?}");
}

/// Mean delayed-translation latency of memcached's many-segment
/// translation (segments split four ways) with a `entries`-entry
/// segment cache, and the cache's hit rate.
fn segment_cache_latency(entries: usize, refs: usize) -> (f64, f64) {
    let mut kernel = Kernel::new(16 << 30, AllocPolicy::EagerSegments { split: 4 });
    let mut wl = apps::memcached()
        .instantiate(&mut kernel, 5)
        .expect("instantiate");
    let mut tr = ManySegmentTranslator::new(
        SegmentCache::new(entries, Cycles::new(2)),
        kernel.segments(),
    );
    let (mut total, mut n) = (0u64, 0u64);
    for _ in 0..refs {
        let m = wl.next_item().mref;
        if let Some((_, cost)) = tr.translate(m.asid, m.vaddr, |_| Cycles::new(160)) {
            total += cost.total().get();
            n += 1;
        }
    }
    let (hits, misses) = tr.sc_stats();
    (
        total as f64 / n.max(1) as f64,
        hits as f64 / (hits + misses).max(1) as f64,
    )
}

/// The segment cache hides the index-tree walk: the paper's 128 entries
/// hit at least 90% of the time and cut the mean latency several-fold
/// against no segment cache, and more entries never cost latency.
/// Prints the table it measures (visible with `--nocapture`).
#[test]
fn segment_cache_ablation_128_entries_hide_the_tree_walk() {
    let refs = 50_000;
    let rows = [0, 16, 128, 512].map(|entries| (entries, segment_cache_latency(entries, refs)));
    println!("Segment-cache size: memcached, 4-way split segments, 50 k references");
    println!(
        "{:<10}{:>16}{:>14}",
        "entries", "mean (cycles)", "SC hit (%)"
    );
    for (entries, (mean, hits)) in rows {
        println!("{entries:<10}{mean:>16.2}{:>14.2}", 100.0 * hits);
    }
    let [(_, (none, _)), (_, (small, _)), (_, (paper, hit_rate)), (_, (large, _))] = rows;
    assert!(hit_rate >= 0.9, "128-entry hit rate {hit_rate}");
    assert!(paper * 3.0 < none, "128 entries {paper} cy, none {none} cy");
    assert!(
        none >= small && small >= paper && paper >= large,
        "{none} {small} {paper} {large}"
    );
}
