//! **Ablation** — why the synonym filter uses *two* granularities.
//!
//! The paper's filter ANDs a 16 MB-granule filter with a 32 KB-granule
//! filter (Figure 3). This ablation measures false-positive rates for
//! coarse-only, fine-only, and the combined design across sharing
//! intensities.

use hvc_bench::refs_per_run;
use hvc_filter::{BloomFilter, SynonymFilter, COARSE_SHIFT, FINE_SHIFT};
use hvc_runner::tables::{pct, print_table};
use hvc_types::VirtAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let probes = refs_per_run(200_000);
    let mut rows = Vec::new();

    for &shared_regions in &[8usize, 32, 128, 512] {
        let mut coarse = BloomFilter::new(COARSE_SHIFT);
        let mut fine = BloomFilter::new(FINE_SHIFT);
        let mut combined = SynonymFilter::new();
        let mut rng = StdRng::seed_from_u64(7);

        // Shared regions clustered the way shm segments are: groups of 8
        // consecutive 4 KB pages.
        let mut shared = Vec::new();
        for _ in 0..shared_regions {
            let base = (rng.gen_range(0u64..1 << 32)) << 15;
            shared.push(base);
            for page in 0..8u64 {
                let va = VirtAddr::new(base + page * 4096);
                coarse.insert(va);
                fine.insert(va);
                combined.insert_page(va);
            }
        }

        // Probe disjoint private addresses.
        let (mut fp_c, mut fp_f, mut fp_b) = (0u64, 0u64, 0u64);
        for _ in 0..probes {
            let va = VirtAddr::new(rng.gen_range(0u64..1 << 47) | (1 << 46));
            if coarse.contains(va) {
                fp_c += 1;
            }
            if fine.contains(va) {
                fp_f += 1;
            }
            if combined.is_candidate(va) {
                fp_b += 1;
            }
        }
        let n = probes as f64;
        rows.push(vec![
            shared_regions.to_string(),
            pct(fp_c as f64 / n),
            pct(fp_f as f64 / n),
            pct(fp_b as f64 / n),
        ]);
    }

    print_table(
        "Ablation: filter false-positive rate by granularity design",
        &[
            "shared regions",
            "coarse-only (16MB)",
            "fine-only (32KB)",
            "both (paper)",
        ],
        &rows,
    );
    println!("\nExpected shape: the conjunction stays well under either filter alone,");
    println!("keeping false positives <0.5% even at heavy sharing.");
}
