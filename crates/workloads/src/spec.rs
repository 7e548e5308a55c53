//! Workload specification and trace-generating instances.

use crate::churn::{ChurnKind, ChurnOp, ChurnOps, ChurnSpec};
use crate::patterns::{AccessPattern, Zipf};
use hvc_os::{Kernel, MapIntent, ShmId};
use hvc_types::{
    AccessKind, Asid, MemRef, Permissions, Result, TraceItem, VirtAddr, VirtPage, LINE_SIZE,
    PAGE_SHIFT, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One private memory region of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionSpec {
    /// Region length in bytes (page aligned up at instantiation).
    pub len: u64,
    /// Fraction of the region's pages the workload ever touches —
    /// drives Table III's utilization column under eager allocation.
    pub touch_frac: f64,
}

impl RegionSpec {
    /// A fully-touched region of `len` bytes.
    pub fn full(len: u64) -> Self {
        RegionSpec {
            len,
            touch_frac: 1.0,
        }
    }
}

/// Multi-process r/w sharing (synonym) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharingSpec {
    /// Number of processes attaching the shared object.
    pub processes: usize,
    /// Size of the r/w shared region.
    pub shared_bytes: u64,
    /// Fraction of memory accesses directed at the shared region
    /// (postgres ≈ 0.16 in Table I).
    pub shared_access_frac: f64,
}

/// A complete, instantiable workload description.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (matches the paper workload it stands in for).
    pub name: String,
    /// Private regions mapped per process.
    pub regions: Vec<RegionSpec>,
    /// Lay regions out back-to-back in virtual memory (heap-like growth
    /// that eager allocation can merge into few segments) instead of
    /// scattering them (mmap-heavy apps producing many segments).
    pub contiguous: bool,
    /// How touched pages are visited.
    pub pattern: AccessPattern,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
    /// Mean non-memory instructions between memory references.
    pub mean_gap: u32,
    /// Memory-level parallelism hint for the core model (1 = fully
    /// dependent chasing, larger = independent misses overlap).
    pub mlp: u32,
    /// Spatial-locality burst: after sampling a page, the next
    /// `burst - 1` references walk consecutive lines of the same page
    /// (object-sized accesses). `1` disables bursting (pure random lines,
    /// GUPS-style). Applies to the uniform / Zipfian / branchy / gather
    /// patterns; streaming and chasing have their own structure.
    pub burst: u32,
    /// Fraction of references going to a tiny per-process stack/locals
    /// region (first four pages of the domain, always cache-hot) —
    /// real programs spend 20–40% of their accesses there, which is what
    /// keeps L1 hit rates high.
    pub stack_frac: f64,
    /// Optional multi-process r/w sharing (creates synonym pages).
    pub sharing: Option<SharingSpec>,
    /// Optional periodic address-space churn (unmap/remap storms that
    /// drive TLB shootdowns; see [`ChurnSpec`]).
    pub churn: Option<ChurnSpec>,
}

impl WorkloadSpec {
    /// Creates all processes and memory regions in `kernel` and returns
    /// a trace-generating instance.
    ///
    /// # Errors
    ///
    /// Propagates kernel allocation errors.
    pub fn instantiate(&self, kernel: &mut Kernel, seed: u64) -> Result<WorkloadInstance> {
        let nproc = self.sharing.map_or(1, |s| s.processes.max(1));
        let shm = match self.sharing {
            Some(s) if s.shared_bytes > 0 => Some(kernel.shm_create(s.shared_bytes)?),
            _ => None,
        };
        let mut procs = Vec::with_capacity(nproc);
        let mut arenas = Vec::with_capacity(nproc);
        let mut shared_vmas = Vec::with_capacity(nproc);
        for p in 0..nproc {
            let asid = kernel.create_process()?;
            let mut pages = PageRuns::default();
            // Private regions: contiguous (heap-like) or scattered (mmap-
            // heavy), starting at a per-process base.
            let mut next_va = 0x1000_0000u64 + (p as u64) * 0x100_0000_0000;
            for (i, r) in self.regions.iter().enumerate() {
                let len = r.len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                let va = VirtAddr::new(next_va);
                if i == 0 {
                    // The process's main arena — the region churn events
                    // tear down and remap (WorkerRecycle).
                    arenas.push((va, len));
                }
                kernel.mmap(asid, va, len, Permissions::RW, MapIntent::Private)?;
                let touched = (((len >> PAGE_SHIFT) as f64) * r.touch_frac)
                    .ceil()
                    .max(1.0) as u64;
                let first = va.page_number();
                pages.push_run(first, touched.min(len >> PAGE_SHIFT));
                next_va += if self.contiguous {
                    len
                } else {
                    // Scatter: leave a large hole so eager allocation
                    // cannot merge across regions.
                    (len + (64 << 20)).next_power_of_two()
                };
            }
            // Shared region at a per-process virtual address (a synonym).
            let mut shared_pages = PageRuns::default();
            if let (Some(shm), Some(s)) = (shm, self.sharing) {
                let sva = VirtAddr::new(0x7000_0000_0000 + (p as u64) * 0x10_0000_0000);
                kernel.mmap(
                    asid,
                    sva,
                    s.shared_bytes,
                    Permissions::RW,
                    MapIntent::Shared(shm),
                )?;
                shared_vmas.push((sva, s.shared_bytes));
                let first = sva.page_number();
                shared_pages.push_run(first, s.shared_bytes >> PAGE_SHIFT);
            }
            procs.push(ProcMem {
                asid,
                pages,
                shared_pages,
            });
        }

        let max_pages = procs.iter().map(|p| p.pages.len()).max().unwrap_or(1);
        let zipf = match self.pattern {
            AccessPattern::Zipfian(theta) => Some(Zipf::new(max_pages as u64, theta)),
            _ => None,
        };

        let mut rng = StdRng::seed_from_u64(seed);
        let states = procs
            .iter()
            .map(|p| ProcState::new(p.pages.len(), &self.pattern, &mut rng))
            .collect();
        Ok(WorkloadInstance {
            name: self.name.clone(),
            mlp: self.mlp,
            pattern: self.pattern.clone(),
            write_frac: self.write_frac,
            mean_gap: self.mean_gap,
            shared_access_frac: self.sharing.map_or(0.0, |s| s.shared_access_frac),
            burst: self.burst.max(1),
            stack_frac: self.stack_frac,
            procs,
            states,
            zipf,
            rng,
            next_proc: 0,
            churn: self.churn,
            arenas,
            shared_vmas,
            shm,
            items: 0,
            churn_rotor: 0,
        })
    }
}

/// Memory owned by one process of a workload.
#[derive(Clone, Debug)]
pub struct ProcMem {
    /// The process's address space.
    pub asid: Asid,
    /// Private pages the process touches (pattern domain).
    pub pages: PageRuns,
    /// R/w shared (synonym) pages, if any.
    pub shared_pages: PageRuns,
}

/// An indexed list of virtual pages stored as runs of consecutive
/// pages — one run per region, or fewer where regions abut — so
/// [`PageRuns::get`] is arithmetic instead of a load from a per-page
/// array.
#[derive(Clone, Debug, Default)]
pub struct PageRuns {
    /// `(index of the run's first page, first page)`, by index.
    runs: Vec<(usize, VirtPage)>,
    len: usize,
}

impl PageRuns {
    /// Appends the `count` pages from `first` on.
    fn push_run(&mut self, first: VirtPage, count: u64) {
        let abuts = self
            .runs
            .last()
            .is_some_and(|&(start, head)| head.offset((self.len - start) as u64) == first);
        if count > 0 && !abuts {
            self.runs.push((self.len, first));
        }
        self.len += count as usize;
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no page.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page at `idx`, or `None` past the end.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<VirtPage> {
        if idx >= self.len {
            return None;
        }
        let (start, first) = self.runs[self.runs.partition_point(|&(start, _)| start <= idx) - 1];
        Some(first.offset((idx - start) as u64))
    }
}

/// Per-process pattern cursor state.
#[derive(Clone, Debug)]
struct ProcState {
    cursor: usize,
    line: u64,
    /// Phased pattern: window start page index and refs since last slide.
    phase_start: usize,
    phase_refs: u32,
    /// Chase permutation (page index → next page index), or the Zipf
    /// rank→page shuffle (hot pages are scattered across regions in real
    /// heaps, not clustered at low addresses).
    perm: Vec<u32>,
    /// Remaining references of the current spatial burst.
    burst_left: u32,
    /// Page index and line of the in-progress burst.
    burst_page: usize,
    burst_line: u64,
}

impl ProcState {
    fn new(npages: usize, pattern: &AccessPattern, rng: &mut StdRng) -> Self {
        let perm = match pattern {
            AccessPattern::Chase => {
                // A single random cycle over all pages (Sattolo's
                // algorithm) so the chase visits the full working set.
                let n = npages.max(1);
                let mut items: Vec<u32> = (0..n as u32).collect();
                let mut next = vec![0u32; n];
                for i in (1..n).rev() {
                    items.swap(i, rng.gen_range(0..i));
                }
                for w in 0..n {
                    next[items[w] as usize] = items[(w + 1) % n];
                }
                next
            }
            AccessPattern::Zipfian(_) => {
                // Fisher–Yates shuffle: rank → page.
                let n = npages.max(1);
                let mut map: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    map.swap(i, rng.gen_range(0..=i));
                }
                map
            }
            _ => Vec::new(),
        };
        ProcState {
            cursor: 0,
            line: 0,
            phase_start: 0,
            phase_refs: 0,
            perm,
            burst_left: 0,
            burst_page: 0,
            burst_line: 0,
        }
    }
}

/// An instantiated workload: address spaces plus a deterministic stream
/// of [`TraceItem`]s.
#[derive(Clone, Debug)]
pub struct WorkloadInstance {
    name: String,
    mlp: u32,
    pattern: AccessPattern,
    write_frac: f64,
    mean_gap: u32,
    shared_access_frac: f64,
    burst: u32,
    stack_frac: f64,
    procs: Vec<ProcMem>,
    states: Vec<ProcState>,
    zipf: Option<Zipf>,
    rng: StdRng,
    next_proc: usize,
    /// Periodic churn configuration, if any.
    churn: Option<ChurnSpec>,
    /// Per-process main arena `(va, len)` — the WorkerRecycle target.
    arenas: Vec<(VirtAddr, u64)>,
    /// Per-process shared VMA `(va, len)` — the ShmRemap target.
    shared_vmas: Vec<(VirtAddr, u64)>,
    /// The shared object attached by every process, if any.
    shm: Option<ShmId>,
    /// Trace items emitted so far (drives churn, *not* the RNG: churn
    /// timing is pure arithmetic so every engine replays it identically).
    items: u64,
    /// Round-robin cursor over recycle targets.
    churn_rotor: u64,
}

impl WorkloadInstance {
    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Memory-level-parallelism hint for the core model.
    pub fn mlp(&self) -> u32 {
        self.mlp
    }

    /// The processes (address spaces) of the workload.
    pub fn procs(&self) -> &[ProcMem] {
        &self.procs
    }

    /// Produces the next trace item (infinite stream; processes are
    /// interleaved round-robin as a multiprogrammed/multithreaded mix).
    pub fn next_item(&mut self) -> TraceItem {
        self.items += 1;
        let p = self.next_proc;
        self.next_proc = (self.next_proc + 1) % self.procs.len();
        let gap = if self.mean_gap == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.mean_gap * 2)
        };
        let vaddr = self.sample_addr(p);
        let kind = if self.rng.gen::<f64>() < self.write_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let asid = self.procs[p].asid;
        TraceItem::new(gap, MemRef { asid, vaddr, kind })
    }

    /// Iterator view over the infinite trace stream.
    pub fn iter(&mut self) -> Iter<'_> {
        Iter { inst: self }
    }

    /// Returns the churn event due after the item just emitted, if any.
    ///
    /// Call once after every [`WorkloadInstance::next_item`]; an event
    /// fires each time the emitted-item count crosses a multiple of the
    /// spec's period. The returned batch is replayable: apply it to the
    /// simulator's kernel (and to any differential-oracle twin) so all
    /// engines observe the same mutation at the same stream position.
    pub fn take_churn_ops(&mut self) -> Option<ChurnOps> {
        let spec = self.churn?;
        if self.items == 0 || !self.items.is_multiple_of(spec.every.max(1)) {
            return None;
        }
        let initiator = Some(self.procs[0].asid);
        match spec.kind {
            ChurnKind::WorkerRecycle => {
                let (va, len) = *self.arenas.first()?;
                let n = self.procs.len();
                // The master (process 0) never recycles itself; with a
                // single process it has no workers either, so recycle its
                // own arena (a degenerate but still flush-generating mix).
                let p = if n < 2 {
                    0
                } else {
                    1 + (self.churn_rotor as usize % (n - 1))
                };
                self.churn_rotor += 1;
                let (va, len) = *self.arenas.get(p).unwrap_or(&(va, len));
                let asid = self.procs[p].asid;
                Some(ChurnOps {
                    initiator,
                    ops: vec![
                        ChurnOp::Munmap { asid, va },
                        ChurnOp::Mmap {
                            asid,
                            va,
                            len,
                            shared: None,
                        },
                    ],
                })
            }
            ChurnKind::ShmRemap => {
                let shm = self.shm?;
                let mut ops = Vec::with_capacity(self.shared_vmas.len() * 2);
                for (p, &(va, len)) in self.shared_vmas.iter().enumerate() {
                    let asid = self.procs[p].asid;
                    ops.push(ChurnOp::Munmap { asid, va });
                    ops.push(ChurnOp::Mmap {
                        asid,
                        va,
                        len,
                        shared: Some(shm),
                    });
                }
                if ops.is_empty() {
                    return None;
                }
                Some(ChurnOps { initiator, ops })
            }
            ChurnKind::KsmMergeBreak => {
                // One fine-filter region (8 pages = 32 KB) merged per
                // event, sweeping a rotating process's arena; after a
                // full pass the container restarts and the arena breaks
                // back to private in one teardown.
                const WINDOW: u64 = 8;
                let n = self.procs.len() as u64;
                let p = (self.churn_rotor % n) as usize;
                let (va, len) = *self.arenas.get(p)?;
                let windows = ((len >> PAGE_SHIFT) / WINDOW).max(1);
                let w = (self.churn_rotor / n) % (windows + 1);
                self.churn_rotor += 1;
                let asid = self.procs[p].asid;
                if w == windows {
                    Some(ChurnOps {
                        initiator,
                        ops: vec![
                            ChurnOp::Munmap { asid, va },
                            ChurnOp::Mmap {
                                asid,
                                va,
                                len,
                                shared: None,
                            },
                        ],
                    })
                } else {
                    Some(ChurnOps {
                        initiator,
                        ops: vec![ChurnOp::MarkShared {
                            asid,
                            va: va + w * WINDOW * PAGE_SIZE,
                            pages: WINDOW,
                        }],
                    })
                }
            }
            ChurnKind::CowFork => {
                // Fork: the whole arena of the rotating process turns
                // synonym in one burst; the following event for the same
                // process is the write storm that breaks it all back.
                let n = self.procs.len() as u64;
                let p = (self.churn_rotor % n) as usize;
                let (va, len) = *self.arenas.get(p)?;
                let merging = (self.churn_rotor / n).is_multiple_of(2);
                self.churn_rotor += 1;
                let asid = self.procs[p].asid;
                if merging {
                    Some(ChurnOps {
                        initiator,
                        ops: vec![ChurnOp::MarkShared {
                            asid,
                            va,
                            pages: len >> PAGE_SHIFT,
                        }],
                    })
                } else {
                    Some(ChurnOps {
                        initiator,
                        ops: vec![
                            ChurnOp::Munmap { asid, va },
                            ChurnOp::Mmap {
                                asid,
                                va,
                                len,
                                shared: None,
                            },
                        ],
                    })
                }
            }
            ChurnKind::RwRotate => {
                // Process 0 stays the writer; readers 1..n rotate their
                // shared mapping between r/w (synonym) and r/o (content
                // sharing) attaches.
                let shm = self.shm?;
                let n = self.shared_vmas.len() as u64;
                if n < 2 {
                    return None;
                }
                let p = (1 + self.churn_rotor % (n - 1)) as usize;
                let to_ro = (self.churn_rotor / (n - 1)).is_multiple_of(2);
                self.churn_rotor += 1;
                let (va, len) = self.shared_vmas[p];
                let asid = self.procs[p].asid;
                let attach = if to_ro {
                    ChurnOp::MmapRo { asid, va, len, shm }
                } else {
                    ChurnOp::Mmap {
                        asid,
                        va,
                        len,
                        shared: Some(shm),
                    }
                };
                Some(ChurnOps {
                    initiator,
                    ops: vec![ChurnOp::Munmap { asid, va }, attach],
                })
            }
        }
    }

    fn sample_addr(&mut self, p: usize) -> VirtAddr {
        // Shared-region access?
        if self.shared_access_frac > 0.0
            && !self.procs[p].shared_pages.is_empty()
            && self.rng.gen::<f64>() < self.shared_access_frac
        {
            // Shared pools have a hot head (database buffer pools, shared
            // queues): 90% of shared accesses hit the first 512 pages —
            // small enough for the baseline TLB to retain, large enough to
            // thrash the 64-entry synonym TLB (the paper's postgres
            // anomaly).
            let pages = &self.procs[p].shared_pages;
            let hot = pages.len().min(512);
            let idx = if self.rng.gen::<f64>() < 0.9 {
                self.rng.gen_range(0..hot)
            } else {
                self.rng.gen_range(0..pages.len())
            };
            let page = pages.get(idx).expect("index below the page count");
            let line = self.rng.gen_range(0..PAGE_SIZE / LINE_SIZE);
            return page.base() + line * LINE_SIZE;
        }
        let npages = self.procs[p].pages.len();
        // Stack / locals traffic: a tiny always-hot region.
        if self.stack_frac > 0.0 && self.rng.gen::<f64>() < self.stack_frac {
            let pages = &self.procs[p].pages;
            let page = pages
                .get(self.rng.gen_range(0..pages.len().min(4)))
                .expect("index below the page count");
            let line = self.rng.gen_range(0..64);
            return page.base() + line * LINE_SIZE;
        }
        // Continue an in-progress spatial burst (consecutive lines of the
        // last sampled page).
        if self.burst > 1 && self.states[p].burst_left > 0 {
            let st = &mut self.states[p];
            st.burst_left -= 1;
            // Object-style access: revisit the same line, stepping to the
            // next line every other reference (field reuse + short spatial
            // walks, without assuming a hardware prefetcher).
            if st.burst_left.is_multiple_of(3) {
                st.burst_line = (st.burst_line + 1) % 64;
            }
            let page = self.procs[p]
                .pages
                .get(st.burst_page)
                .expect("burst page sampled");
            return page.base() + st.burst_line * LINE_SIZE;
        }
        let (idx, line) = {
            let st = &mut self.states[p];
            // Bursty (object-style) patterns anchor accesses at a fixed
            // per-page object slot, keeping each page's line footprint to
            // a couple of lines (hot objects are line-sized, so the LLC
            // can retain far more pages than the TLB — the paper's key
            // observation); non-bursty patterns touch any line.
            let burst = self.burst;
            let new_line = move |rng: &mut StdRng, idx: usize| -> u64 {
                if burst > 1 {
                    (idx as u64).wrapping_mul(0x9e37_79b1) >> 16 & 0x3f & !7
                } else {
                    rng.gen_range(0..64)
                }
            };
            match &self.pattern {
                AccessPattern::Uniform => {
                    let idx = self.rng.gen_range(0..npages);
                    (idx, new_line(&mut self.rng, idx))
                }
                AccessPattern::Zipfian(_) => {
                    let z = self.zipf.as_ref().expect("zipf built at instantiation");
                    let rank = z.sample(&mut self.rng) as usize % npages;
                    let idx = st.perm[rank] as usize;
                    (idx, new_line(&mut self.rng, idx))
                }
                AccessPattern::Stream => {
                    // Visit every line of a page before advancing.
                    st.line += 1;
                    if st.line >= 64 {
                        st.line = 0;
                        st.cursor = (st.cursor + 1) % npages;
                    }
                    (st.cursor, st.line)
                }
                AccessPattern::Chase => {
                    st.cursor = st.perm[st.cursor] as usize;
                    // A data-dependent line within the page.
                    let line = (st.cursor as u64).wrapping_mul(0x9e3779b9) % 64;
                    (st.cursor, line)
                }
                AccessPattern::Branchy(p_jump) => {
                    if self.rng.gen::<f64>() < *p_jump {
                        st.cursor = self.rng.gen_range(0..npages);
                    } else {
                        st.cursor = (st.cursor + 1) % npages;
                    }
                    let cur = st.cursor;
                    (cur, new_line(&mut self.rng, cur))
                }
                AccessPattern::SparseGather(frac) => {
                    if self.rng.gen::<f64>() < *frac {
                        let idx = self.rng.gen_range(0..npages);
                        (idx, new_line(&mut self.rng, idx))
                    } else {
                        st.line += 1;
                        if st.line >= 64 {
                            st.line = 0;
                            st.cursor = (st.cursor + 1) % npages;
                        }
                        (st.cursor, st.line)
                    }
                }
                AccessPattern::Phased {
                    window,
                    p_in,
                    slide_every,
                } => {
                    st.phase_refs += 1;
                    if st.phase_refs >= *slide_every {
                        st.phase_refs = 0;
                        st.phase_start = (st.phase_start + window / 4) % npages;
                    }
                    let idx = if self.rng.gen::<f64>() < *p_in {
                        (st.phase_start + self.rng.gen_range(0..*window)) % npages
                    } else {
                        self.rng.gen_range(0..npages)
                    };
                    (idx, new_line(&mut self.rng, idx))
                }
            }
        };
        if self.burst > 1
            && matches!(
                self.pattern,
                AccessPattern::Uniform
                    | AccessPattern::Zipfian(_)
                    | AccessPattern::Branchy(_)
                    | AccessPattern::SparseGather(_)
                    | AccessPattern::Phased { .. }
            )
        {
            let st = &mut self.states[p];
            st.burst_left = self.burst - 1;
            st.burst_page = idx;
            st.burst_line = line % 64;
        }
        let page = self.procs[p]
            .pages
            .get(idx)
            .expect("index below the page count");
        page.base() + (line % 64) * LINE_SIZE
    }
}

/// Borrowing iterator over a workload's infinite trace stream.
pub struct Iter<'a> {
    inst: &'a mut WorkloadInstance,
}

impl Iterator for Iter<'_> {
    type Item = TraceItem;

    fn next(&mut self) -> Option<TraceItem> {
        Some(self.inst.next_item())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::AllocPolicy;

    fn kernel() -> Kernel {
        Kernel::new(4 << 30, AllocPolicy::DemandPaging)
    }

    fn basic_spec(pattern: AccessPattern) -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            regions: vec![RegionSpec::full(8 << 20)],
            contiguous: true,
            pattern,
            write_frac: 0.3,
            mean_gap: 4,
            mlp: 4,
            burst: 1,
            stack_frac: 0.0,
            sharing: None,
            churn: None,
        }
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let spec = basic_spec(AccessPattern::Uniform);
        let mut k1 = kernel();
        let mut k2 = kernel();
        let mut a = spec.instantiate(&mut k1, 9).unwrap();
        let mut b = spec.instantiate(&mut k2, 9).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.next_item(), b.next_item());
        }
    }

    #[test]
    fn addresses_stay_within_mapped_regions() {
        let spec = basic_spec(AccessPattern::Uniform);
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 1).unwrap();
        for item in inst.iter().take(5000) {
            let va = item.mref.vaddr.as_u64();
            assert!(
                (0x1000_0000..0x1000_0000 + (8 << 20)).contains(&va),
                "va {va:#x}"
            );
        }
    }

    #[test]
    fn stream_pattern_is_sequential_lines() {
        let spec = basic_spec(AccessPattern::Stream);
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 1).unwrap();
        let a = inst.next_item().mref.vaddr;
        let b = inst.next_item().mref.vaddr;
        assert_eq!(b - a, LINE_SIZE);
    }

    #[test]
    fn chase_visits_every_page_before_repeating() {
        let mut spec = basic_spec(AccessPattern::Chase);
        spec.regions = vec![RegionSpec::full(64 * PAGE_SIZE)];
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for item in inst.iter().take(64) {
            seen.insert(item.mref.vaddr.page_number());
        }
        assert_eq!(seen.len(), 64, "single cycle covers all pages");
    }

    #[test]
    fn touch_frac_limits_page_domain() {
        let mut spec = basic_spec(AccessPattern::Uniform);
        spec.regions = vec![RegionSpec {
            len: 100 * PAGE_SIZE,
            touch_frac: 0.25,
        }];
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 1).unwrap();
        let limit = 0x1000_0000 + 25 * PAGE_SIZE;
        for item in inst.iter().take(2000) {
            assert!(item.mref.vaddr.as_u64() < limit);
        }
    }

    #[test]
    fn sharing_creates_synonym_traffic_at_expected_rate() {
        let spec = WorkloadSpec {
            name: "pg".into(),
            regions: vec![RegionSpec::full(4 << 20)],
            contiguous: true,
            pattern: AccessPattern::Uniform,
            write_frac: 0.3,
            mean_gap: 4,
            mlp: 4,
            burst: 1,
            stack_frac: 0.0,
            sharing: Some(SharingSpec {
                processes: 4,
                shared_bytes: 8 << 20,
                shared_access_frac: 0.16,
            }),
            churn: None,
        };
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 5).unwrap();
        assert_eq!(inst.procs().len(), 4);
        let total = 20_000;
        let mut shared = 0;
        for item in inst.iter().take(total) {
            if item.mref.vaddr.as_u64() >= 0x7000_0000_0000 {
                shared += 1;
            }
        }
        let frac = shared as f64 / total as f64;
        assert!((frac - 0.16).abs() < 0.02, "shared access fraction {frac}");
        // The shared pages are genuine synonyms: same frame, different VAs.
        let p0 = inst.procs()[0].shared_pages.get(0).unwrap();
        let p1 = inst.procs()[1].shared_pages.get(0).unwrap();
        assert_ne!(p0, p1);
        let f0 = k
            .translate_touch(inst.procs()[0].asid, p0.base())
            .unwrap()
            .frame;
        let f1 = k
            .translate_touch(inst.procs()[1].asid, p1.base())
            .unwrap()
            .frame;
        assert_eq!(f0, f1);
    }

    #[test]
    fn gaps_average_near_mean() {
        let spec = basic_spec(AccessPattern::Uniform);
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 3).unwrap();
        let n = 20_000;
        let total: u64 = inst.iter().take(n).map(|i| u64::from(i.gap)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean gap {mean}");
    }

    #[test]
    fn write_fraction_is_respected() {
        let spec = basic_spec(AccessPattern::Uniform);
        let mut k = kernel();
        let mut inst = spec.instantiate(&mut k, 4).unwrap();
        let n = 20_000;
        let writes = inst
            .iter()
            .take(n)
            .filter(|i| i.mref.kind.is_write())
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn page_runs_match_the_flattened_page_list() {
        // Scattered regions of different sizes and touch fractions, one
        // of them touched for a single page.
        let regions = [(16, 1.0), (5, 0.5), (1, 1.0), (40, 0.1), (7, 1.0)];
        let spec = WorkloadSpec {
            name: "runs".into(),
            regions: regions
                .iter()
                .map(|&(pages, touch_frac)| RegionSpec {
                    len: pages * PAGE_SIZE,
                    touch_frac,
                })
                .collect(),
            contiguous: false,
            ..basic_spec(AccessPattern::Uniform)
        };
        let mut k = kernel();
        let inst = spec.instantiate(&mut k, 1).unwrap();
        // The page list as one `Vec` entry per touched page.
        let mut flat = Vec::new();
        let mut next_va = 0x1000_0000u64;
        for r in &spec.regions {
            let len = r.len >> PAGE_SHIFT;
            let touched = ((len as f64 * r.touch_frac).ceil().max(1.0) as u64).min(len);
            let first = VirtAddr::new(next_va).page_number();
            flat.extend((0..touched).map(|i| first.offset(i)));
            next_va += (r.len + (64 << 20)).next_power_of_two();
        }
        let runs = &inst.procs()[0].pages;
        assert_eq!(runs.len(), flat.len());
        assert!(!runs.is_empty());
        for (i, &page) in flat.iter().enumerate() {
            assert_eq!(runs.get(i), Some(page), "index {i}");
        }
        assert_eq!(runs.get(flat.len()), None);
        assert!(inst.procs()[0].shared_pages.is_empty());
    }

    #[test]
    fn abutting_regions_share_one_run() {
        let mut runs = PageRuns::default();
        runs.push_run(VirtPage::new(10), 4);
        runs.push_run(VirtPage::new(14), 2);
        runs.push_run(VirtPage::new(100), 0);
        runs.push_run(VirtPage::new(20), 1);
        assert_eq!(runs.runs.len(), 2);
        let pages: Vec<u64> = (0..runs.len())
            .map(|i| runs.get(i).unwrap().as_u64())
            .collect();
        assert_eq!(pages, [10, 11, 12, 13, 14, 15, 20]);
    }

    #[test]
    fn scattered_regions_make_multiple_segments_under_eager() {
        let spec = WorkloadSpec {
            name: "mmapheavy".into(),
            regions: (0..8).map(|_| RegionSpec::full(1 << 20)).collect(),
            contiguous: false,
            pattern: AccessPattern::Uniform,
            write_frac: 0.2,
            mean_gap: 4,
            mlp: 4,
            burst: 1,
            stack_frac: 0.0,
            sharing: None,
            churn: None,
        };
        let mut k = Kernel::new(4 << 30, AllocPolicy::EagerSegments { split: 1 });
        let inst = spec.instantiate(&mut k, 1).unwrap();
        assert_eq!(k.segments().count_asid(inst.procs()[0].asid), 8);
    }

    #[test]
    fn contiguous_regions_merge_under_eager() {
        let spec = WorkloadSpec {
            name: "heap".into(),
            regions: (0..8).map(|_| RegionSpec::full(1 << 20)).collect(),
            contiguous: true,
            pattern: AccessPattern::Uniform,
            write_frac: 0.2,
            mean_gap: 4,
            mlp: 4,
            burst: 1,
            stack_frac: 0.0,
            sharing: None,
            churn: None,
        };
        let mut k = Kernel::new(4 << 30, AllocPolicy::EagerSegments { split: 1 });
        let inst = spec.instantiate(&mut k, 1).unwrap();
        assert_eq!(k.segments().count_asid(inst.procs()[0].asid), 1);
    }
}
