//! Named workload profiles standing in for the paper's applications.
//!
//! Sizes are scaled so that the relevant capacity relationships of the
//! paper hold in simulation: the 2 MB-per-core LLC and the 1K–32K-entry
//! delayed TLBs (4 MB–128 MB reach) sit well below the big workloads'
//! working sets, while the Zipfian object-graph workloads have hot sets
//! that progressively fit as structures grow — reproducing who improves
//! and who saturates in Figures 4 and 9.

use crate::{AccessPattern, ChurnKind, ChurnSpec, RegionSpec, SharingSpec, WorkloadSpec};

fn spec(
    name: &str,
    regions: Vec<RegionSpec>,
    contiguous: bool,
    pattern: AccessPattern,
    write_frac: f64,
    mean_gap: u32,
    mlp: u32,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        regions,
        contiguous,
        pattern,
        write_frac,
        mean_gap,
        mlp,
        burst: 8,
        stack_frac: 0.3,
        sharing: None,
        churn: None,
    }
}

/// Overrides the spatial-locality burst of a profile.
fn with_burst(mut s: WorkloadSpec, burst: u32) -> WorkloadSpec {
    s.burst = burst;
    s
}

const MIB: u64 = 1 << 20;

// --- big-memory / SPEC-like private workloads ---

/// GUPS random-access (the paper runs size 30): uniform updates over a
/// huge table; thrashes every translation structure.
pub fn gups(mem_bytes: u64) -> WorkloadSpec {
    with_burst(
        spec(
            "gups",
            vec![RegionSpec::full(mem_bytes)],
            true,
            AccessPattern::Uniform,
            0.5,
            2,
            8,
        ),
        1, // true random single-word updates
    )
}

/// milc-like streaming over large lattices (SPEC CPU2006 433.milc).
pub fn milc() -> WorkloadSpec {
    spec(
        "milc",
        vec![RegionSpec::full(384 * MIB)],
        true,
        AccessPattern::Stream,
        0.3,
        6,
        4,
    )
}

/// mcf-like dependent pointer chasing (SPEC CPU2006 429.mcf).
pub fn mcf() -> WorkloadSpec {
    spec(
        "mcf",
        vec![RegionSpec::full(384 * MIB)],
        true,
        AccessPattern::Chase,
        0.1,
        3,
        1,
    )
}

/// xalancbmk-like Zipfian object graph with mmap-heavy allocation
/// (SPEC CPU2006 483.xalancbmk; 40 scattered arenas give it the large
/// segment count of Table III).
pub fn xalancbmk() -> WorkloadSpec {
    spec(
        "xalancbmk",
        (0..40).map(|_| RegionSpec::full(2 * MIB)).collect(),
        false,
        AccessPattern::Zipfian(0.8),
        0.2,
        8,
        4,
    )
}

/// tigr-like branchy suffix-tree walks (BioBench; very low IPC, large
/// scattered index).
pub fn tigr() -> WorkloadSpec {
    spec(
        "tigr",
        (0..48).map(|_| RegionSpec::full(5 * MIB)).collect(),
        false,
        AccessPattern::Branchy(0.4),
        0.05,
        2,
        2,
    )
}

/// omnetpp-like event-graph traffic (SPEC CPU2006 471.omnetpp).
pub fn omnetpp() -> WorkloadSpec {
    spec(
        "omnetpp",
        vec![RegionSpec::full(96 * MIB)],
        true,
        AccessPattern::Zipfian(0.85),
        0.3,
        6,
        4,
    )
}

/// soplex-like sparse LP solving: streaming rows with scattered gathers.
pub fn soplex() -> WorkloadSpec {
    spec(
        "soplex",
        vec![RegionSpec::full(128 * MIB)],
        true,
        AccessPattern::SparseGather(0.3),
        0.25,
        6,
        4,
    )
}

/// astar-like path search over a medium heap (SPEC CPU2006 473.astar).
pub fn astar() -> WorkloadSpec {
    spec(
        "astar",
        vec![RegionSpec::full(64 * MIB)],
        true,
        AccessPattern::Zipfian(0.9),
        0.25,
        8,
        4,
    )
}

/// cactusADM-like structured-grid sweeps with over-provisioned arrays
/// (low utilization under eager allocation).
pub fn cactus() -> WorkloadSpec {
    spec(
        "cactus",
        vec![RegionSpec {
            len: 256 * MIB,
            touch_frac: 0.55,
        }],
        true,
        AccessPattern::Stream,
        0.35,
        8,
        4,
    )
}

/// GemsFDTD-like field solver (large streaming, partly-touched arenas).
pub fn gems() -> WorkloadSpec {
    spec(
        "GemsFDTD",
        vec![RegionSpec {
            len: 320 * MIB,
            touch_frac: 0.8,
        }],
        true,
        AccessPattern::Stream,
        0.35,
        7,
        4,
    )
}

/// canneal-like random netlist swaps (PARSEC; chase with poor locality).
pub fn canneal() -> WorkloadSpec {
    spec(
        "canneal",
        vec![RegionSpec::full(256 * MIB)],
        true,
        AccessPattern::Chase,
        0.2,
        4,
        1,
    )
}

/// STREAM-like pure bandwidth kernel.
pub fn stream() -> WorkloadSpec {
    spec(
        "stream",
        vec![RegionSpec::full(512 * MIB)],
        true,
        AccessPattern::Stream,
        0.33,
        4,
        8,
    )
}

/// mummer-like genome index walks (BioBench).
pub fn mummer() -> WorkloadSpec {
    spec(
        "mummer",
        (0..12).map(|_| RegionSpec::full(20 * MIB)).collect(),
        false,
        AccessPattern::Branchy(0.3),
        0.05,
        3,
        2,
    )
}

/// memcached-like slab server: grows on demand in 64 MB chunks at
/// scattered addresses (the paper notes its many segments), Zipfian key
/// popularity, half the provisioned memory ever touched.
pub fn memcached() -> WorkloadSpec {
    spec(
        "memcached",
        (0..40)
            .map(|_| RegionSpec {
                len: 64 * MIB,
                touch_frac: 0.5,
            })
            .collect(),
        false,
        AccessPattern::Zipfian(0.75),
        0.15,
        6,
        4,
    )
}

/// NPB CG-like sparse mat-vec (class C).
pub fn npb_cg() -> WorkloadSpec {
    spec(
        "NPB:CG",
        vec![RegionSpec::full(256 * MIB)],
        true,
        AccessPattern::SparseGather(0.35),
        0.2,
        5,
        4,
    )
}

/// graph500-like BFS over a scale-22 graph: Zipfian vertex popularity
/// over a large working set with scattered edge-list accesses.
pub fn graph500() -> WorkloadSpec {
    spec(
        "graph500",
        vec![RegionSpec::full(320 * MIB)],
        true,
        AccessPattern::Zipfian(0.6),
        0.15,
        4,
        4,
    )
}

// --- synonym (r/w sharing) applications, Table I / Table II ---

fn shared_app(
    name: &str,
    processes: usize,
    private_bytes: u64,
    shared_bytes: u64,
    shared_access_frac: f64,
    pattern: AccessPattern,
) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_owned(),
        // Several scattered arenas (heap, libraries, caches) — the VA
        // diversity real processes have, which is what exposes the
        // synonym filter to false positives.
        regions: (0..6)
            .map(|_| RegionSpec::full(private_bytes / 6))
            .collect(),
        contiguous: false,
        pattern,
        write_frac: 0.3,
        mean_gap: 5,
        mlp: 4,
        burst: 8,
        stack_frac: 0.3,
        sharing: Some(SharingSpec {
            processes,
            shared_bytes,
            shared_access_frac,
        }),
        churn: None,
    }
}

/// ferret-like PARSEC pipeline: the only PARSEC app with r/w sharing —
/// a small shared queue region (Table I: ≈0.3% of area, ≈0.2–0.9% of
/// accesses).
pub fn ferret() -> WorkloadSpec {
    shared_app(
        "ferret",
        4,
        96 * MIB,
        MIB,
        0.009,
        AccessPattern::Phased {
            window: 4096,
            p_in: 0.45,
            slide_every: 40_000,
        },
    )
}

/// postgres-like multi-process database: a large shared buffer pool
/// (Table I: ≈66% of area, ≈16% of accesses).
pub fn postgres() -> WorkloadSpec {
    shared_app(
        "postgres",
        4,
        64 * MIB,
        128 * MIB,
        0.163,
        AccessPattern::Phased {
            window: 4096,
            p_in: 0.6,
            slide_every: 40_000,
        },
    )
}

/// SpecJBB-like Java middleware: negligible r/w sharing.
pub fn specjbb() -> WorkloadSpec {
    shared_app(
        "SpecJBB",
        2,
        96 * MIB,
        MIB,
        0.001,
        AccessPattern::Phased {
            window: 4096,
            p_in: 0.55,
            slide_every: 40_000,
        },
    )
}

/// firefox-like browser: small shared compositor/IPC buffers.
pub fn firefox() -> WorkloadSpec {
    shared_app(
        "firefox",
        3,
        96 * MIB,
        6 * MIB,
        0.006,
        AccessPattern::Phased {
            window: 4096,
            p_in: 0.85,
            slide_every: 40_000,
        },
    )
}

/// apache-like prefork server under worker churn (a fork storm): the
/// master reaps and respawns one worker every few thousand references,
/// tearing the worker's arena down and refaulting it. On a multi-core
/// system each recycle is a directed TLB shootdown from the master's
/// core to the worker's — the coherence traffic `hvc-mc` prices.
pub fn fork_storm() -> WorkloadSpec {
    let mut s = shared_app(
        "fork_storm",
        8,
        24 * MIB,
        2 * MIB,
        0.01,
        AccessPattern::Phased {
            window: 2048,
            p_in: 0.9,
            slide_every: 40_000,
        },
    );
    s.churn = Some(ChurnSpec {
        every: 2_000,
        kind: ChurnKind::WorkerRecycle,
    });
    s
}

/// postgres-like shm-heavy database whose coordinator recycles the
/// shared buffer pool slice periodically: every attached process must be
/// shot down at once (the worst-case broadcast), so shootdown cost — not
/// cache behavior — bounds multi-core throughput.
pub fn shm_heavy() -> WorkloadSpec {
    let mut s = shared_app(
        "shm_heavy",
        4,
        32 * MIB,
        2 * MIB,
        0.3,
        AccessPattern::Phased {
            window: 4096,
            p_in: 0.6,
            slide_every: 40_000,
        },
    );
    s.churn = Some(ChurnSpec {
        every: 4_000,
        kind: ChurnKind::ShmRemap,
    });
    s
}

// --- synonym-stress profiles (filter-strategy comparison workloads) ---

/// KSM-like container fleet under dedup churn: the scanner sweeps each
/// container's arena merging one 32 KB window at a time
/// (private→synonym transitions), and container restarts break a whole
/// merged arena back to private at once. The filter fills gradually and
/// goes stale in bulk — the pattern that separates the Bloom pair
/// (stale bits linger until a rebuild) from the exact RLT.
pub fn ksm_dedup() -> WorkloadSpec {
    let mut s = shared_app(
        "ksm_dedup",
        6,
        24 * MIB,
        MIB,
        0.01,
        AccessPattern::Phased {
            window: 2048,
            p_in: 0.8,
            slide_every: 40_000,
        },
    );
    s.churn = Some(ChurnSpec {
        every: 1_500,
        kind: ChurnKind::KsmMergeBreak,
    });
    s
}

/// Copy-on-write fork storm at a high synonym ratio: each fork marks a
/// process's whole arena shared in one burst and the following write
/// storm breaks it all back to private — the fastest filter
/// fill/stale cycle a process can generate, and the worst case for
/// bounded exact tables (the RLT overflows into its conservative side).
pub fn cow_storm() -> WorkloadSpec {
    let mut s = shared_app(
        "cow_storm",
        8,
        12 * MIB,
        2 * MIB,
        0.05,
        AccessPattern::Phased {
            window: 1024,
            p_in: 0.85,
            slide_every: 30_000,
        },
    );
    s.churn = Some(ChurnSpec {
        every: 2_500,
        kind: ChurnKind::CowFork,
    });
    s
}

/// Many-readers/many-writers shm: process 0 writes a large shared pool
/// the rotating readers flip between r/w (synonym) and r/o (content
/// sharing) attaches. Whole shared VMAs cross the synonym boundary in
/// both directions, with reader writes breaking COW in between.
pub fn shm_rotate() -> WorkloadSpec {
    let mut s = shared_app(
        "shm_rotate",
        6,
        16 * MIB,
        16 * MIB,
        0.3,
        AccessPattern::Phased {
            window: 4096,
            p_in: 0.6,
            slide_every: 40_000,
        },
    );
    s.churn = Some(ChurnSpec {
        every: 2_000,
        kind: ChurnKind::RwRotate,
    });
    s
}

/// apache-like prefork server: small shared scoreboard.
pub fn apache() -> WorkloadSpec {
    shared_app(
        "apache",
        8,
        32 * MIB,
        2 * MIB,
        0.005,
        AccessPattern::Phased {
            window: 2048,
            p_in: 0.94,
            slide_every: 40_000,
        },
    )
}

// --- experiment groupings ---

/// The Table III set (segment counts, RMM MPKI, utilization).
pub fn table3_set() -> Vec<WorkloadSpec> {
    vec![
        astar(),
        mcf(),
        omnetpp(),
        cactus(),
        gems(),
        xalancbmk(),
        canneal(),
        stream(),
        mummer(),
        tigr(),
        memcached(),
        npb_cg(),
        gups(512 * MIB),
    ]
}

/// The synonym-stress set: share/unshare churn profiles built to
/// exercise both filter strategies' staleness and eviction behavior.
pub fn synonym_stress_set() -> Vec<WorkloadSpec> {
    vec![ksm_dedup(), cow_storm(), shm_rotate()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, Kernel};

    #[test]
    fn all_profiles_instantiate_under_demand_paging() {
        let mut k = Kernel::new(16 << 30, AllocPolicy::DemandPaging);
        for s in table3_set().into_iter().chain([
            gups(1024 * MIB),
            milc(),
            soplex(),
            graph500(),
            ferret(),
            postgres(),
            specjbb(),
            firefox(),
            apache(),
        ]) {
            let mut inst = s.instantiate(&mut k, 1).unwrap();
            let item = inst.next_item();
            assert!(item.mref.vaddr.as_u64() > 0, "{}", inst.name());
        }
    }

    #[test]
    fn synonym_apps_have_expected_sharing_shape() {
        let mut k = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
        let inst = postgres().instantiate(&mut k, 1).unwrap();
        let space = k.space(inst.procs()[0].asid).unwrap();
        let shared = space.rw_shared_pages() as f64;
        let total = space.total_vma_pages() as f64;
        let frac = shared / total;
        assert!((0.6..0.75).contains(&frac), "postgres shared area {frac}");

        let inst = ferret().instantiate(&mut k, 2).unwrap();
        let space = k.space(inst.procs()[0].asid).unwrap();
        let frac = space.rw_shared_pages() as f64 / space.total_vma_pages() as f64;
        assert!(frac < 0.02, "ferret shared area {frac}");
    }

    #[test]
    fn stress_profiles_churn_filters_without_false_negatives() {
        // Drive each synonym-stress generator through a few thousand
        // items, applying its churn to the kernel, and audit the core
        // filter invariant after every event: every shared PTE must
        // still be a filter candidate, whatever the churn did.
        for spec in synonym_stress_set() {
            let mut k = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
            let mut inst = spec.instantiate(&mut k, 7).unwrap();
            let mut events = 0;
            for _ in 0..12_000 {
                let _ = inst.next_item();
                if let Some(ops) = inst.take_churn_ops() {
                    assert!(!ops.is_empty(), "{}", inst.name());
                    ops.apply(&mut k);
                    let _ = k.drain_flush_requests();
                    events += 1;
                    for (_, space) in k.spaces() {
                        for (vp, pte) in space.page_table().iter() {
                            if pte.shared {
                                assert!(
                                    space.filter.is_candidate(vp.base()),
                                    "{}: filter false negative",
                                    inst.name()
                                );
                            }
                        }
                    }
                }
            }
            assert!(events >= 4, "{}: churn never fired", inst.name());
            assert!(
                k.stats().filter_insertions > 0,
                "{}: no synonym transitions",
                inst.name()
            );
        }
    }

    #[test]
    fn stress_churn_keeps_staleness_accounting_bounded() {
        // Regression for the FILTER_STALE_LIMIT audit: share/unshare
        // churn from the generators must keep every space's stale tally
        // at or below the limit (rebuilds reset it; no skipped or
        // double-counted rebuilds), and heavy merge/break churn must
        // actually trigger rebuilds.
        let mut total_rebuilds = 0;
        for spec in synonym_stress_set() {
            let mut k = Kernel::new(8 << 30, AllocPolicy::DemandPaging);
            let mut inst = spec.instantiate(&mut k, 11).unwrap();
            for _ in 0..30_000 {
                let _ = inst.next_item();
                if let Some(ops) = inst.take_churn_ops() {
                    ops.apply(&mut k);
                    let _ = k.drain_flush_requests();
                    for (asid, _) in k.spaces() {
                        assert!(
                            k.stale_filter_pages(asid) <= Kernel::FILTER_STALE_LIMIT,
                            "{}: staleness ran past the rebuild threshold",
                            inst.name()
                        );
                    }
                }
            }
            total_rebuilds += k.stats().filter_rebuilds;
        }
        assert!(
            total_rebuilds > 0,
            "stress churn must cross the staleness limit somewhere"
        );
    }

    #[test]
    fn mmap_heavy_apps_make_many_segments() {
        let mut k = Kernel::new(16 << 30, AllocPolicy::EagerSegments { split: 1 });
        let inst = memcached().instantiate(&mut k, 1).unwrap();
        assert!(k.segments().count_asid(inst.procs()[0].asid) >= 40);
        let inst = stream().instantiate(&mut k, 2).unwrap();
        assert!(k.segments().count_asid(inst.procs()[0].asid) <= 2);
    }
}
