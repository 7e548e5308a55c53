//! Domain scenario: a postgres-like multi-process database sharing a
//! buffer pool — the workload class that motivates the synonym filter.
//!
//! Four processes attach one shared-memory object at *different* virtual
//! addresses (synonyms). The example shows how the OS marks the pages
//! shared, how the Bloom filter routes only those accesses through the
//! synonym TLB, and what that does to translation traffic and coherence
//! correctness.
//!
//! ```sh
//! cargo run --release --example database_shm
//! ```

use hvc::core::{SystemConfig, SystemSim, TranslationScheme};
use hvc::os::{AllocPolicy, Kernel};
use hvc::types::HvcError;
use hvc::workloads::apps;

fn main() -> Result<(), HvcError> {
    let refs = 300_000;
    let mut kernel = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
    let mut workload = apps::postgres().instantiate(&mut kernel, 7)?;

    // Inspect what the OS set up: every process maps the same frames at
    // a different virtual address — the textbook synonym situation.
    println!(
        "postgres-like workload: {} backend processes",
        workload.procs().len()
    );
    let p0 = &workload.procs()[0];
    let p1 = &workload.procs()[1];
    let (s0, s1) = (
        p0.shared_pages.get(0).expect("backend 0 maps the pool"),
        p1.shared_pages.get(0).expect("backend 1 maps the pool"),
    );
    let f0 = kernel.translate_touch(p0.asid, s0.base())?.frame;
    let f1 = kernel.translate_touch(p1.asid, s1.base())?.frame;
    println!(
        "  backend 0 maps frame {:#x} at {}, backend 1 maps it at {}",
        f0.as_u64(),
        s0.base(),
        s1.base()
    );
    assert_eq!(f0, f1, "one physical frame, two virtual names: a synonym");

    // The per-process filters already flag the shared region:
    let space = kernel.space(p0.asid).expect("space exists");
    println!(
        "  synonym filter flags the shared pool: {}",
        space.filter.is_candidate(s0.base())
    );
    println!(
        "  …but not the private heap: {}\n",
        space
            .filter
            .is_candidate(p0.pages.get(0).expect("private heap").base())
    );

    // Simulate under hybrid virtual caching.
    let mut sim = SystemSim::new(
        kernel,
        SystemConfig::isca2016_8mb_llc(),
        TranslationScheme::HybridDelayedTlb(1024),
    );
    let report = sim.run(&mut workload, refs);

    let t = &report.translation;
    println!("after {refs} references:");
    println!("  filter lookups          {:>9}", t.filter_lookups);
    println!(
        "  synonym candidates      {:>9}  ({:.1}% of accesses — the shared pool)",
        t.filter_candidates,
        t.filter_candidates as f64 / t.filter_lookups as f64 * 100.0
    );
    println!(
        "  false positives         {:>9}  ({:.3}%)",
        t.false_positives,
        t.false_positives as f64 / t.filter_lookups as f64 * 100.0
    );
    println!(
        "  TLB accesses avoided    {:>9}  ({:.1}% reduction vs a conventional TLB)",
        t.filter_lookups - t.synonym_tlb_lookups,
        (1.0 - t.synonym_tlb_lookups as f64 / t.filter_lookups as f64) * 100.0
    );
    println!("  IPC {:.3}", report.ipc());
    Ok(())
}
