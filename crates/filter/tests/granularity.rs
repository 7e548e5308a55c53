//! Why the synonym filter uses two granularities (Figure 3): the
//! conjunction of a 16 MB-granule and a 32 KB-granule Bloom filter has
//! fewer false positives than either filter alone.

use hvc_filter::{BloomFilter, SynonymFilter, COARSE_SHIFT, FINE_SHIFT};
use hvc_types::VirtAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// False-positive rates of the coarse filter, the fine filter and the
/// paper's pair after `regions` shared regions (eight consecutive 4 KB
/// pages each, as shm segments cluster) are inserted, over `probes`
/// disjoint private addresses.
fn false_positive_rates(regions: usize, probes: usize) -> [f64; 3] {
    let mut coarse = BloomFilter::new(COARSE_SHIFT);
    let mut fine = BloomFilter::new(FINE_SHIFT);
    let mut pair = SynonymFilter::new();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..regions {
        let base = rng.gen_range(0u64..1 << 32) << 15;
        for page in 0..8u64 {
            let va = VirtAddr::new(base + page * 4096);
            coarse.insert(va);
            fine.insert(va);
            pair.insert_page(va);
        }
    }
    let mut hits = [0u64; 3];
    for _ in 0..probes {
        // Bit 46 keeps the probes clear of every shared region.
        let va = VirtAddr::new(rng.gen_range(0u64..1 << 47) | (1 << 46));
        for (h, hit) in hits.iter_mut().zip([
            coarse.contains(va),
            fine.contains(va),
            pair.is_candidate(va),
        ]) {
            *h += u64::from(hit);
        }
    }
    hits.map(|h| h as f64 / probes as f64)
}

/// The pair stays under either filter alone at every sharing level,
/// under 0.5% up to 128 shared regions, and under half of either at 512.
/// Prints the rates (visible with `--nocapture`).
#[test]
fn the_pair_beats_either_granularity_alone() {
    println!("false positives (%), 50 k private probes");
    println!("{:<10}{:>8}{:>8}{:>8}", "regions", "coarse", "fine", "pair");
    for regions in [8, 32, 128, 512] {
        let [coarse, fine, pair] = false_positive_rates(regions, 50_000);
        println!(
            "{regions:<10}{:>8.2}{:>8.2}{:>8.2}",
            100.0 * coarse,
            100.0 * fine,
            100.0 * pair
        );
        assert!(
            pair <= coarse.min(fine),
            "{regions} regions: pair {pair}, coarse {coarse}, fine {fine}"
        );
        if regions <= 128 {
            assert!(pair < 0.005, "{regions} regions: pair {pair}");
        }
        // Heavy sharing saturates the single filters first.
        if regions == 512 {
            assert!(
                pair * 2.0 < coarse.min(fine),
                "pair {pair}, coarse {coarse}, fine {fine}"
            );
        }
    }
}
