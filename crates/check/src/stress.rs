//! Seeded randomized stress driver.
//!
//! Generates scripts of OS operations (map/unmap, shared-memory attach
//! and detach, copy-on-write, content-sharing downgrades, process
//! churn, filter rebuilds) interleaved with memory traffic, runs them
//! on a simulator the [`Oracle`] observes, and — when a script fails —
//! shrinks it to a minimal reproducer with a delta-debugging pass.
//!
//! Scripts are a pure function of the seed, so a failure report of the
//! form `(seed, shrunken ops)` reproduces anywhere.

use crate::oracle::{CheckConfig, Oracle};
use crate::violation::Violation;
use hvc_core::{SystemConfig, SystemSim, TranslationScheme};
use hvc_os::{AllocPolicy, Kernel, MapIntent, ShmId};
use hvc_types::{Asid, MemRef, Permissions, TraceItem, VirtAddr, PAGE_SIZE};
use std::fmt;

/// Processes a stress script runs over.
pub const NPROCS: usize = 3;
/// Pages in each process's private region.
pub const PRIV_PAGES: u8 = 16;
/// Pages in the shared-memory object.
pub const SHM_PAGES: u8 = 8;

fn priv_base(proc_: usize) -> u64 {
    0x1000_0000 + proc_ as u64 * 0x1_0000_0000
}

fn shm_base(proc_: usize) -> u64 {
    0x7000_0000_0000 + proc_ as u64 * 0x1000_0000
}

/// One operation of a stress script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load from a page (`shared` selects the shm attach region).
    Read {
        /// Process index.
        proc: u8,
        /// Page index within the region.
        page: u8,
        /// Target the shm attach region instead of the private one.
        shared: bool,
    },
    /// Store to a page (downgraded private pages are read instead).
    Write {
        /// Process index.
        proc: u8,
        /// Page index within the region.
        page: u8,
        /// Target the shm attach region instead of the private one.
        shared: bool,
    },
    /// Attach the shared object (r/w synonym, or r/o copy-on-write).
    AttachShm {
        /// Process index.
        proc: u8,
        /// Attach read-only (content sharing + CoW on write).
        ro: bool,
    },
    /// Detach the shared object.
    DetachShm {
        /// Process index.
        proc: u8,
    },
    /// Transition a private page to synonym status.
    MarkShared {
        /// Process index.
        proc: u8,
        /// Page index within the private region.
        page: u8,
    },
    /// Content-sharing downgrade of a private page to read-only.
    Downgrade {
        /// Process index.
        proc: u8,
        /// Page index within the private region.
        page: u8,
    },
    /// Unmap and re-map the private region.
    Remap {
        /// Process index.
        proc: u8,
    },
    /// Destroy the process and recreate it (fresh ASID).
    Churn {
        /// Process index.
        proc: u8,
    },
    /// Rebuild the process's synonym filter from the page tables.
    RebuildFilter {
        /// Process index.
        proc: u8,
    },
    /// Fault injection for shrinker self-tests: apply `MarkShared` to
    /// the machine under test only, making the twin kernels diverge.
    #[doc(hidden)]
    Nemesis {
        /// Process index.
        proc: u8,
        /// Page index within the private region.
        page: u8,
    },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Read { proc, page, shared } => {
                write!(
                    f,
                    "read p{proc} {}page {page}",
                    if shared { "shm-" } else { "" }
                )
            }
            Op::Write { proc, page, shared } => {
                write!(
                    f,
                    "write p{proc} {}page {page}",
                    if shared { "shm-" } else { "" }
                )
            }
            Op::AttachShm { proc, ro } => {
                write!(f, "attach-shm p{proc}{}", if ro { " ro" } else { "" })
            }
            Op::DetachShm { proc } => write!(f, "detach-shm p{proc}"),
            Op::MarkShared { proc, page } => write!(f, "mark-shared p{proc} page {page}"),
            Op::Downgrade { proc, page } => write!(f, "downgrade p{proc} page {page}"),
            Op::Remap { proc } => write!(f, "remap p{proc}"),
            Op::Churn { proc } => write!(f, "churn p{proc}"),
            Op::RebuildFilter { proc } => write!(f, "rebuild-filter p{proc}"),
            Op::Nemesis { proc, page } => write!(f, "nemesis p{proc} page {page}"),
        }
    }
}

/// Renders a script as a reproducer listing, one op per line.
pub fn script(ops: &[Op]) -> String {
    let mut s = String::new();
    for op in ops {
        s.push_str(&op.to_string());
        s.push('\n');
    }
    s
}

/// SplitMix64 — tiny, seedable, and good enough for op selection.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Generates a deterministic `n`-op script from `seed` — mostly memory
/// traffic, with OS churn mixed in.
pub fn generate(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64(seed ^ 0x5eed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let proc = (rng.next() % NPROCS as u64) as u8;
        let ppage = (rng.next() % PRIV_PAGES as u64) as u8;
        let spage = (rng.next() % SHM_PAGES as u64) as u8;
        let w = rng.next() & 1 == 0;
        ops.push(match rng.next() % 100 {
            0..=54 => access(w, proc, ppage, false),
            55..=69 => access(w, proc, spage, true),
            70..=75 => Op::AttachShm {
                proc,
                ro: rng.next() & 1 == 0,
            },
            76..=78 => Op::DetachShm { proc },
            79..=84 => Op::MarkShared { proc, page: ppage },
            85..=88 => Op::Downgrade { proc, page: ppage },
            89..=92 => Op::Remap { proc },
            93..=95 => Op::Churn { proc },
            _ => Op::RebuildFilter { proc },
        });
    }
    ops
}

/// Helper for the generator: read or write, by flag.
fn access(write: bool, proc: u8, page: u8, shared: bool) -> Op {
    if write {
        Op::Write { proc, page, shared }
    } else {
        Op::Read { proc, page, shared }
    }
}

/// Per-process interpreter model (tracks just enough state to keep the
/// generated ops legal — e.g. never writing a downgraded page).
struct ProcModel {
    asid: Asid,
    /// `Some(ro)` while the shared object is attached.
    attached: Option<bool>,
    downgraded: [bool; PRIV_PAGES as usize],
}

/// Two shared objects: one only ever mapped r/w (synonyms), one only
/// ever mapped r/o (content sharing). Mixing writable and read-only
/// mappings of one frame would break the dedup precondition the kernel
/// models (see `shared_ro_is_not_a_synonym_and_cow_breaks_on_write`).
fn setup(kernel: &mut Kernel) -> hvc_types::Result<(Vec<Asid>, ShmId, ShmId)> {
    let shm_rw = kernel.shm_create(SHM_PAGES as u64 * PAGE_SIZE)?;
    let shm_ro = kernel.shm_create(SHM_PAGES as u64 * PAGE_SIZE)?;
    let mut asids = Vec::with_capacity(NPROCS);
    for p in 0..NPROCS {
        let asid = kernel.create_process()?;
        kernel.mmap(
            asid,
            VirtAddr::new(priv_base(p)),
            PRIV_PAGES as u64 * PAGE_SIZE,
            Permissions::RW,
            MapIntent::Private,
        )?;
        asids.push(asid);
    }
    Ok((asids, shm_rw, shm_ro))
}

/// Runs a stress script on a fresh hybrid simulator with the ideal
/// [`Oracle`] installed and returns every violation.
///
/// # Errors
///
/// Propagates setup errors.
pub fn run_script(ops: &[Op]) -> hvc_types::Result<Vec<Violation>> {
    let kernel = || Kernel::new(4 << 30, AllocPolicy::DemandPaging);
    let mut k = kernel();
    let (asids, shm_rw, shm_ro) = setup(&mut k)?;
    let mut twin = kernel();
    setup(&mut twin)?;
    let mut sim = SystemSim::new(
        k,
        SystemConfig::isca2016(),
        TranslationScheme::HybridDelayedTlb(1024),
    );
    Oracle::native(&mut sim, twin, CheckConfig { sweep_every: 64 });
    let mut procs: Vec<ProcModel> = asids
        .into_iter()
        .map(|asid| ProcModel {
            asid,
            attached: None,
            downgraded: [false; PRIV_PAGES as usize],
        })
        .collect();

    for &op in ops {
        match op {
            Op::Read { proc, page, shared } | Op::Write { proc, page, shared } => {
                let p = proc as usize % NPROCS;
                let m = &procs[p];
                if shared && m.attached.is_none() {
                    continue;
                }
                // Writes to a downgraded *private* page would fault for
                // real (no CoW backing) — the generator's write becomes
                // a read. Writes through a r/o attach break CoW.
                let write = matches!(op, Op::Write { .. })
                    && (shared || !m.downgraded[page as usize % PRIV_PAGES as usize]);
                let base = if shared {
                    shm_base(p) + (page as u64 % SHM_PAGES as u64) * PAGE_SIZE
                } else {
                    priv_base(p) + (page as u64 % PRIV_PAGES as u64) * PAGE_SIZE
                };
                let va = VirtAddr::new(base + 0x40);
                let mref = if write {
                    MemRef::write(m.asid, va)
                } else {
                    MemRef::read(m.asid, va)
                };
                sim.step(TraceItem::new(1, mref), 1);
            }
            Op::AttachShm { proc, ro } => {
                let p = proc as usize % NPROCS;
                if procs[p].attached.is_some() {
                    continue;
                }
                let asid = procs[p].asid;
                let intent = if ro {
                    MapIntent::SharedRo(shm_ro)
                } else {
                    MapIntent::Shared(shm_rw)
                };
                let perm = if ro {
                    Permissions::READ
                } else {
                    Permissions::RW
                };
                let ok = Oracle::os(&mut sim, |k| {
                    k.mmap(
                        asid,
                        VirtAddr::new(shm_base(p)),
                        SHM_PAGES as u64 * PAGE_SIZE,
                        perm,
                        intent,
                    )
                    .is_ok()
                });
                if ok {
                    procs[p].attached = Some(ro);
                }
            }
            Op::DetachShm { proc } => {
                let p = proc as usize % NPROCS;
                if procs[p].attached.is_none() {
                    continue;
                }
                let asid = procs[p].asid;
                Oracle::os(&mut sim, |k| {
                    let _ = k.munmap(asid, VirtAddr::new(shm_base(p)));
                });
                procs[p].attached = None;
            }
            Op::MarkShared { proc, page } => {
                let p = proc as usize % NPROCS;
                let asid = procs[p].asid;
                let va =
                    VirtAddr::new(priv_base(p) + (page as u64 % PRIV_PAGES as u64) * PAGE_SIZE);
                Oracle::os(&mut sim, |k| {
                    let _ = k.mark_page_shared(asid, va);
                });
            }
            Op::Downgrade { proc, page } => {
                let p = proc as usize % NPROCS;
                let asid = procs[p].asid;
                let idx = page as usize % PRIV_PAGES as usize;
                let va = VirtAddr::new(priv_base(p) + idx as u64 * PAGE_SIZE);
                let ok = Oracle::os(&mut sim, |k| k.downgrade_page_read_only(asid, va).is_ok());
                if ok {
                    procs[p].downgraded[idx] = true;
                }
            }
            Op::Remap { proc } => {
                let p = proc as usize % NPROCS;
                let asid = procs[p].asid;
                Oracle::os(&mut sim, |k| {
                    let _ = k.munmap(asid, VirtAddr::new(priv_base(p)));
                    let _ = k.mmap(
                        asid,
                        VirtAddr::new(priv_base(p)),
                        PRIV_PAGES as u64 * PAGE_SIZE,
                        Permissions::RW,
                        MapIntent::Private,
                    );
                });
                procs[p].downgraded = [false; PRIV_PAGES as usize];
            }
            Op::Churn { proc } => {
                let p = proc as usize % NPROCS;
                let old = procs[p].asid;
                let asid = Oracle::os(&mut sim, |k| {
                    let _ = k.destroy_process(old);
                    let asid = k.create_process().expect("ASID space not exhausted");
                    let _ = k.mmap(
                        asid,
                        VirtAddr::new(priv_base(p)),
                        PRIV_PAGES as u64 * PAGE_SIZE,
                        Permissions::RW,
                        MapIntent::Private,
                    );
                    asid
                });
                procs[p] = ProcModel {
                    asid,
                    attached: None,
                    downgraded: [false; PRIV_PAGES as usize],
                };
            }
            Op::RebuildFilter { proc } => {
                let p = proc as usize % NPROCS;
                let asid = procs[p].asid;
                Oracle::os(&mut sim, |k| {
                    let _ = k.rebuild_filter(asid);
                });
            }
            Op::Nemesis { proc, page } => {
                let p = proc as usize % NPROCS;
                let asid = procs[p].asid;
                let va =
                    VirtAddr::new(priv_base(p) + (page as u64 % PRIV_PAGES as u64) * PAGE_SIZE);
                // The machine under test only: the twins diverge.
                sim.os(|k| {
                    let _ = k.mark_page_shared(asid, va);
                });
            }
        }
    }
    Ok(Oracle::verdict(&sim))
}

/// Shrinks a failing script to a locally-minimal reproducer with a
/// delta-debugging pass (remove halving chunks while the script still
/// fails). Returns the input unchanged if it does not fail.
///
/// # Errors
///
/// Propagates harness-construction errors.
pub fn shrink(ops: &[Op]) -> hvc_types::Result<Vec<Op>> {
    let mut cur = ops.to_vec();
    if run_script(&cur)?.is_empty() {
        return Ok(cur);
    }
    let mut chunk = cur.len();
    while chunk > 0 {
        let mut i = 0;
        while i < cur.len() {
            let end = (i + chunk).min(cur.len());
            let mut cand = cur.clone();
            cand.drain(i..end);
            if !run_script(&cand)?.is_empty() {
                cur = cand;
            } else {
                i = end;
            }
        }
        chunk /= 2;
    }
    Ok(cur)
}
