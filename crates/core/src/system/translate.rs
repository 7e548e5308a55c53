//! The translation schemes: one [`Translator`] implementation each.
//!
//! A scheme decides three things, and nothing else: how an access is
//! translated or filtered before L1 ([`Translator::front`]), how a
//! virtually named line is translated after an LLC miss
//! ([`Translator::delayed`]), and which of its structures an OS flush
//! reaches ([`Translator::flush`]). The implementations are zero-sized;
//! their state lives in [`SystemSim`], and what only nested translation
//! reads lives in its VM machine state.

use super::{phys_of, pte_read, CheckHooks, SystemSim, Vm};
use hvc_cache::FlushOp;
use hvc_obs::{Component, CycleAttribution};
use hvc_os::{FlushRequest, Pte};
use hvc_segment::SegmentCost;
use hvc_types::{
    Asid, BlockName, Cycles, GuestPhysAddr, LineAddr, MemRef, Permissions, PhysAddr, PhysFrame,
    VirtPage,
};

/// A delayed translation request: the access whose line missed (or is
/// written back or prefetched), the translation the front path already
/// resolved, if any, and whether it is a demand miss (counted in the
/// TLB-miss metrics) or not (counted only as lookups, for energy).
#[derive(Clone, Copy)]
pub(super) struct Miss {
    mref: MemRef,
    known_pte: Option<Pte>,
    demand: bool,
}

impl Miss {
    pub(super) fn new(mref: MemRef, known_pte: Option<Pte>, demand: bool) -> Self {
        Miss {
            mref,
            known_pte,
            demand,
        }
    }
}

/// The outcome of a delayed translation: the physical (machine) address,
/// its latency, the page's permissions, and the latency itemized per
/// structure (the components sum to the latency exactly).
pub(super) type Delayed = (PhysAddr, Cycles, Permissions, CycleAttribution);

const NESTED: &str = "nested scheme on a native machine";

/// The VM a nested scheme runs on.
fn vm(sim: &mut SystemSim) -> &mut Vm {
    sim.machine.vm_mut().expect(NESTED)
}

/// One translation scheme's hooks into the engine. `SystemSim` selects
/// the implementation once per window (`with_translator!`), so the hooks
/// inline into a loop specialized for the scheme.
pub(super) trait Translator {
    /// Whether the scheme probes per-process synonym filters, whose
    /// registers a context switch reloads from memory.
    const FILTERED: bool = false;

    /// The front path: translates or filters `mref` before L1 and
    /// performs the hierarchy access, returning its whole latency.
    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles;

    /// The delayed path: translates a virtually named line after an LLC
    /// miss, or for a writeback or prefetch. Physically named schemes
    /// never take it.
    fn delayed(_sim: &mut SystemSim, _core: usize, _miss: Miss) -> Delayed {
        unreachable!("a physically named scheme has no delayed path")
    }

    /// Invalidates the scheme's translation state for one OS flush
    /// request (`home`: the space's core, if placed) and returns the
    /// hierarchy flush it needs. Natively that is the per-core TLBs,
    /// walker caches and the delayed TLB.
    fn flush(sim: &mut SystemSim, req: FlushRequest, home: Option<usize>) -> Option<FlushOp> {
        Some(sim.flush_tlbs(req, home))
    }
}

// One implementation per scheme; each scheme's variant documents it.

/// [`TranslationScheme::Baseline`](crate::TranslationScheme::Baseline).
pub(super) struct Baseline;
/// [`TranslationScheme::Ideal`](crate::TranslationScheme::Ideal).
pub(super) struct Ideal;
/// [`TranslationScheme::HybridDelayedTlb`](crate::TranslationScheme::HybridDelayedTlb).
pub(super) struct HybridTlb;
/// [`TranslationScheme::HybridManySegment`](crate::TranslationScheme::HybridManySegment).
pub(super) struct ManySegment;
/// [`TranslationScheme::EnigmaDelayedTlb`](crate::TranslationScheme::EnigmaDelayedTlb).
pub(super) struct Enigma;
/// [`TranslationScheme::Rmm`](crate::TranslationScheme::Rmm).
pub(super) struct Rmm;
/// [`VirtScheme::NestedBaseline`](crate::VirtScheme::NestedBaseline).
pub(super) struct NestedBaseline;
/// [`VirtScheme::HybridDelayedNested`](crate::VirtScheme::HybridDelayedNested).
pub(super) struct NestedHybridTlb;
/// [`VirtScheme::HybridNestedSegments`](crate::VirtScheme::HybridNestedSegments).
pub(super) struct NestedHybridSegments;

impl Translator for Baseline {
    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        sim.counters.l1_tlb_lookups += 1;
        let (hit_pte, hit, tlat) = sim.dtlb[core].lookup(asid, vaddr.page_number());
        if hit != hvc_tlb::TlbHit::L1 {
            sim.counters.l2_tlb_lookups += 1;
        }
        // An L1 TLB hit is overlapped with the VIPT L1 cache access.
        let mut front = match hit {
            hvc_tlb::TlbHit::L1 => Cycles::ZERO,
            _ => tlat,
        };
        sim.obs.attribution.add(Component::FrontTlb, front);
        let pte = match hit_pte {
            // Hardware enforces permissions at the TLB: a hit whose
            // entry does not allow the access (a write to a cached
            // read-only page) faults to the OS like a miss — the OS
            // breaks COW and the refreshed PTE is re-inserted.
            Some(p) if p.perm.allows(kind.required_permissions()) => p,
            _ => {
                let (pte, walk) = native_walk::<Self>(sim, core, mref, None);
                sim.obs.attribution.add(Component::FrontWalk, walk);
                front += walk;
                sim.dtlb[core].insert(asid, vaddr.page_number(), pte);
                pte
            }
        };
        if pte.shared {
            sim.counters.shared_accesses += 1;
        }
        front + sim.phys_access::<Self>(core, phys_of(pte, vaddr), kind)
    }
}

impl Translator for Ideal {
    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        let pte = sim.ensure_pte::<Self>(core, mref);
        if pte.shared {
            sim.counters.shared_accesses += 1;
        }
        sim.phys_access::<Self>(core, phys_of(pte, mref.vaddr), mref.kind)
    }
}

impl Translator for HybridTlb {
    const FILTERED: bool = true;

    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        native_hybrid_front::<Self>(sim, core, mref)
    }

    fn delayed(sim: &mut SystemSim, core: usize, miss: Miss) -> Delayed {
        delayed_tlb(sim, miss, |sim| {
            native_walk::<Self>(sim, core, miss.mref, miss.known_pte)
        })
    }
}

impl Translator for ManySegment {
    const FILTERED: bool = true;

    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        native_hybrid_front::<Self>(sim, core, mref)
    }

    fn delayed(sim: &mut SystemSim, core: usize, miss: Miss) -> Delayed {
        let MemRef { asid, vaddr, .. } = miss.mref;
        let now = sim.now(core);
        let SystemSim {
            many,
            dram,
            machine,
            counters,
            hooks,
            ..
        } = sim;
        let m = many.as_mut().expect("many-segment scheme");
        let kernel = machine.kernel();
        // The OS also moves the segment table outside this path (churn's
        // munmap/mmap of eager segments, process teardown, the lazily
        // mapped instruction-fetch text), so re-mirror it before
        // translating.
        if m.sync(kernel.segments()) {
            counters.segment_table_rebuilds += 1;
        }
        if let Some((pa, cost)) = m.translate(asid, vaddr, |addr| {
            counters.pte_reads += 1; // index-tree node fetch from memory
            dram.access_latency(now, addr, false)
        }) {
            // Permissions ride the segment (whole-VMA granularity).
            let perm = kernel
                .space(asid)
                .and_then(|s| s.vma(vaddr))
                .map(|v| v.perm)
                .unwrap_or(Permissions::RW);
            return segment_delayed(hooks, miss.mref, pa, cost, perm, || {
                kernel
                    .walk(asid, vaddr.page_number())
                    .map(|(pte, _)| pte.frame)
            });
        }
        // Not covered by any segment: walk, faulting to the OS, which maps
        // the page without touching the segment table.
        let (pte, lat) = native_walk::<Self>(sim, core, miss.mref, None);
        let mut parts = CycleAttribution::default();
        parts.add(Component::DelayedWalk, lat);
        (phys_of(pte, vaddr), lat, pte.perm, parts)
    }
}

impl Translator for Enigma {
    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, .. } = mref;
        sim.counters.enigma_lookups += 1;
        let (shared, line) = match sim.machine.kernel().intermediate_line(asid, vaddr) {
            Some(x) => x,
            None => {
                // Fault the VMA in via the OS, then retry the first level.
                let _ = sim.ensure_pte::<Self>(core, mref);
                sim.machine
                    .kernel()
                    .intermediate_line(asid, vaddr)
                    .expect("mapped after fault")
            }
        };
        if shared {
            sim.counters.shared_accesses += 1;
        }
        let name = if shared {
            // Canonical object-relative intermediate name: one name for
            // all synonym views (homonym-safe via the reserved IA range).
            BlockName::Virt(Asid::KERNEL, LineAddr::new(line))
        } else {
            BlockName::Virt(asid, vaddr.line())
        };
        // The first-level segment lookup overlaps the L1 access (large
        // per-process segment registers): no added latency.
        sim.named_access::<Self>(core, name, mref, None)
    }

    fn delayed(sim: &mut SystemSim, core: usize, miss: Miss) -> Delayed {
        delayed_tlb(sim, miss, |sim| {
            native_walk::<Self>(sim, core, miss.mref, miss.known_pte)
        })
    }
}

impl Translator for Rmm {
    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        // Range probes and misses are counted as L1 TLB lookups and
        // segment-table accesses (DESIGN.md, RMM model note).
        sim.counters.l1_tlb_lookups += 1;
        // A range hit is overlapped with the VIPT L1 cache access.
        if let Some(pa) = sim.rmm[core].translate(asid, vaddr) {
            return sim.phys_access::<Self>(core, pa, kind);
        }
        // A miss pays the range TLB and the page walk on the critical
        // path, while the range-table walk refills the entry beside it.
        // An address no segment covers is served by the walk alone.
        sim.counters.segment_table_accesses += 1;
        let mut front = sim.rmm[core].latency();
        sim.obs.attribution.add(Component::FrontTlb, front);
        let (pte, walk) = native_walk::<Self>(sim, core, mref, None);
        sim.obs.attribution.add(Component::FrontWalk, walk);
        front += walk;
        let _ = sim.rmm[core].fill_from(sim.machine.kernel().segments(), asid, vaddr);
        if pte.shared {
            sim.counters.shared_accesses += 1;
        }
        front + sim.phys_access::<Self>(core, phys_of(pte, vaddr), kind)
    }

    /// Every removal of a segment comes with a flush request (its pages
    /// unmapped, or its space destroyed), so re-syncing the range TLBs
    /// with the segment table here leaves no entry outliving its segment.
    fn flush(sim: &mut SystemSim, req: FlushRequest, home: Option<usize>) -> Option<FlushOp> {
        let table = sim.machine.kernel().segments();
        for range_tlb in &mut sim.rmm {
            range_tlb.sync(table);
        }
        Some(sim.flush_tlbs(req, home))
    }
}

impl Translator for NestedBaseline {
    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        let MemRef { asid, vaddr, kind } = mref;
        sim.counters.l1_tlb_lookups += 1;
        let mut front = Cycles::ZERO;
        let pte = match vm(sim).gva_tlb.lookup(asid, vaddr.page_number()) {
            // Permissions are enforced at the TLB, as natively.
            Some(p) if p.perm.allows(kind.required_permissions()) => p,
            _ => {
                // The flat structure stands for both TLB levels: a miss
                // pays the second level's latency before the 2D walk.
                sim.counters.l2_tlb_lookups += 1;
                front = sim.config.l2_tlb.latency;
                sim.obs.attribution.add(Component::FrontTlb, front);
                let (pte, walk) = nested_walk::<Self>(sim, core, mref);
                sim.obs.attribution.add(Component::FrontWalk, walk);
                front += walk;
                vm(sim).gva_tlb.insert(asid, vaddr.page_number(), pte);
                pte
            }
        };
        if pte.shared {
            sim.counters.shared_accesses += 1;
        }
        front + sim.phys_access::<Self>(core, phys_of(pte, vaddr), kind)
    }

    fn flush(sim: &mut SystemSim, req: FlushRequest, home: Option<usize>) -> Option<FlushOp> {
        nested_flush(sim, req, home)
    }
}

impl Translator for NestedHybridTlb {
    const FILTERED: bool = true;

    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        nested_hybrid_front::<Self>(sim, core, mref)
    }

    fn delayed(sim: &mut SystemSim, core: usize, miss: Miss) -> Delayed {
        // The 2D walk re-derives the front path's translation.
        delayed_tlb(sim, miss, |sim| nested_walk::<Self>(sim, core, miss.mref))
    }

    fn flush(sim: &mut SystemSim, req: FlushRequest, home: Option<usize>) -> Option<FlushOp> {
        nested_flush(sim, req, home)
    }
}

impl Translator for NestedHybridSegments {
    const FILTERED: bool = true;

    fn front(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
        nested_hybrid_front::<Self>(sim, core, mref)
    }

    fn delayed(sim: &mut SystemSim, core: usize, miss: Miss) -> Delayed {
        let MemRef { asid, vaddr, .. } = miss.mref;
        sim.counters.sc_lookups += 1;
        let now = sim.now(core);
        let SystemSim {
            machine,
            dram,
            counters,
            hooks,
            ..
        } = sim;
        let Vm {
            hv, vmid, segments, ..
        } = machine.vm_mut().expect(NESTED);
        let segments = segments.as_mut().expect("2D segment scheme");
        // The guest OS moves its segment table as the native OS does.
        if segments.sync(hv) {
            counters.segment_table_rebuilds += 1;
        }
        if let Some((ma, cost)) = segments.translate(asid, vaddr, |addr| {
            counters.pte_reads += 1; // index-tree node fetch from memory
            dram.access_latency(now, addr, false)
        }) {
            counters.segment_table_accesses += 1;
            // The reference is the guest page table followed by the EPT.
            return segment_delayed(hooks, miss.mref, ma, cost, Permissions::RW, || {
                let gk = hv.guest_kernel(*vmid).ok()?;
                let (gpte, _) = gk.walk(asid, vaddr.page_number())?;
                let gpa = GuestPhysAddr::new(gpte.frame.base().as_u64());
                hv.ept_walk(*vmid, gpa).map(|(mpte, _)| mpte.frame)
            });
        }
        // Not covered by a guest and a host segment (paging-managed guest
        // pages): fall back to a 2D walk.
        let (pte, walk) = nested_walk::<Self>(sim, core, miss.mref);
        let mut parts = CycleAttribution::default();
        parts.add(Component::DelayedWalk, walk);
        (phys_of(pte, vaddr), walk, pte.perm, parts)
    }

    fn flush(sim: &mut SystemSim, req: FlushRequest, home: Option<usize>) -> Option<FlushOp> {
        nested_flush(sim, req, home)
    }
}

/// A covered segment translation (native or 2D) as a delayed one: an
/// installed check hook sees `pa` against `reference`, the frame the
/// page tables map at `mref`'s address (computed only for the hook),
/// and the cost is itemized per structure.
fn segment_delayed(
    hooks: &mut Option<Box<dyn CheckHooks>>,
    mref: MemRef,
    pa: PhysAddr,
    cost: SegmentCost,
    perm: Permissions,
    reference: impl FnOnce() -> Option<PhysFrame>,
) -> Delayed {
    if let Some(h) = hooks {
        h.segment_translation(mref.asid, mref.vaddr, pa, reference());
    }
    let mut parts = CycleAttribution::default();
    parts.add(Component::SegmentCache, cost.segment_cache);
    parts.add(Component::IndexCache, cost.index_cache);
    parts.add(Component::SegmentTable, cost.segment_table);
    (pa, cost.total(), perm, parts)
}

/// A charged 1D walk with the OS fault path behind it, reading the page
/// table once when the leaf allows the access: its path is charged as
/// found. `known_pte` (a translation the front path resolved) skips the
/// fault service but not the walk. Only a fault or a permission miss goes
/// through the OS (`SystemSim::ensure_pte`: demand fill, COW break,
/// flushes) and walks again. That is exact because the OS's fault
/// service changes nothing for a leaf that allows the access, and no
/// flush is queued between accesses.
fn native_walk<T: Translator>(
    sim: &mut SystemSim,
    core: usize,
    mref: MemRef,
    known_pte: Option<Pte>,
) -> (Pte, Cycles) {
    let MemRef { asid, vaddr, kind } = mref;
    let vpage = vaddr.page_number();
    let kernel = sim.machine.kernel();
    let (pte, path) = match (known_pte, kernel.walk(asid, vpage)) {
        (Some(known), Some((_, path))) => (known, path),
        (None, Some((pte, path))) if pte.perm.allows(kind.required_permissions()) => {
            debug_assert_eq!(kernel.pending_flush_requests(), 0, "flushes left queued");
            (pte, path)
        }
        _ => {
            let pte = known_pte.unwrap_or_else(|| sim.ensure_pte::<T>(core, mref));
            let (_, path) = sim
                .machine
                .kernel()
                .walk(asid, vpage)
                .expect("page mapped by ensure_pte before walking");
            (pte, path)
        }
    };
    (pte, sim.charged_walk(core, asid, vpage, &path))
}

/// Whether the synonym filter of `mref`'s process (in the guest kernel,
/// in a VM) flags its address.
fn filter_hit(sim: &SystemSim, mref: MemRef) -> bool {
    let space = sim.machine.kernel().space(mref.asid);
    space.is_some_and(|s| s.filter.is_candidate(mref.vaddr))
}

/// The hybrid front path over a native kernel: the process's synonym
/// filter decides.
fn native_hybrid_front<T: Translator>(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
    let candidate = filter_hit(sim, mref);
    hybrid_front::<T>(sim, core, mref, candidate, |sim| {
        native_walk::<T>(sim, core, mref, None)
    })
}

/// The hybrid front path in a VM: the guest filter (per process, in the
/// guest kernel) OR the host filter (per VM, in the hypervisor), both
/// indexed by gVA. A host hit forces physical naming.
fn nested_hybrid_front<T: Translator>(sim: &mut SystemSim, core: usize, mref: MemRef) -> Cycles {
    let guest_hit = filter_hit(sim, mref);
    let vm = vm(sim);
    let host_hit = vm
        .hv
        .host_filter(vm.vmid)
        .is_ok_and(|f| f.is_candidate(mref.vaddr));
    hybrid_front::<T>(sim, core, mref, guest_hit || host_hit, |sim| {
        let (mut pte, walk) = nested_walk::<T>(sim, core, mref);
        pte.shared |= host_hit;
        (pte, walk)
    })
}

/// The hybrid front path: a filter `candidate` is resolved by the
/// synonym TLB (filled by `walk` on a miss or a permission fault) and
/// named physically if it is a true synonym; every other access is named
/// virtually and translated only after an LLC miss.
fn hybrid_front<T: Translator>(
    sim: &mut SystemSim,
    core: usize,
    mref: MemRef,
    candidate: bool,
    walk: impl FnOnce(&mut SystemSim) -> (Pte, Cycles),
) -> Cycles {
    let MemRef { asid, vaddr, kind } = mref;
    sim.counters.filter_lookups += 1;
    if !candidate {
        // The filter probe overlaps the L1 access: no added latency.
        return sim.named_access::<T>(core, BlockName::Virt(asid, vaddr.line()), mref, None);
    }
    sim.counters.filter_candidates += 1;
    sim.counters.synonym_tlb_lookups += 1;
    let mut front = sim.config.synonym_tlb.latency;
    sim.obs.attribution.add(Component::SynonymTlb, front);
    let pte = match sim.syn_tlb[core].lookup(asid, vaddr.page_number()) {
        // Permission enforcement lives in the synonym TLB on this path:
        // a hit whose entry forbids the access (a write through an r/o
        // view of a writable object) faults to the OS, which breaks COW;
        // the fresh PTE replaces the entry.
        Some(p) if p.perm.allows(kind.required_permissions()) => p,
        looked_up => {
            if looked_up.is_none() {
                sim.counters.synonym_tlb_misses += 1;
            }
            let (pte, w) = walk(sim);
            sim.obs.attribution.add(Component::FrontWalk, w);
            front += w;
            // Non-synonym entries are inserted too, so future false
            // positives are corrected quickly (Section III-A).
            sim.syn_tlb[core].insert(asid, vaddr.page_number(), pte);
            pte
        }
    };
    if pte.shared {
        // A true synonym: physically addressed through the hierarchy.
        sim.counters.shared_accesses += 1;
        front + sim.phys_access::<T>(core, phys_of(pte, vaddr), kind)
    } else {
        // False positive: serve virtually; the known PTE saves the
        // delayed walk's fault service if the line misses the LLC.
        sim.counters.false_positives += 1;
        let name = BlockName::Virt(asid, vaddr.line());
        front + sim.named_access::<T>(core, name, mref, Some(pte))
    }
}

/// Page-granularity delayed translation: the shared delayed TLB, filled
/// by `walk` on a miss.
fn delayed_tlb(
    sim: &mut SystemSim,
    miss: Miss,
    walk: impl FnOnce(&mut SystemSim) -> (Pte, Cycles),
) -> Delayed {
    let MemRef { asid, vaddr, .. } = miss.mref;
    let mut parts = CycleAttribution::default();
    sim.counters.delayed_tlb_lookups += 1;
    let tlb_lat = sim.delayed_tlb.config().latency;
    parts.add(Component::DelayedTlb, tlb_lat);
    let (pte, lat) = match sim.delayed_tlb.lookup(asid, vaddr.page_number()) {
        Some(pte) => (pte, tlb_lat),
        None => {
            if miss.demand {
                sim.counters.delayed_tlb_misses += 1;
            }
            let (pte, w) = walk(sim);
            parts.add(Component::DelayedWalk, w);
            sim.delayed_tlb.insert(asid, vaddr.page_number(), pte);
            (pte, tlb_lat + w)
        }
    };
    (phys_of(pte, vaddr), lat, pte.perm, parts)
}

/// A full 2D walk of `mref`'s page — guest fault service and machine
/// backing first — with every guest and EPT read charged through the
/// hierarchy. Returns the gVA→MA entry (guest ∩ host permissions, the
/// guest's synonym bit).
fn nested_walk<T: Translator>(sim: &mut SystemSim, core: usize, mref: MemRef) -> (Pte, Cycles) {
    let MemRef { asid, vaddr, .. } = mref;
    let gpte = sim.ensure_pte::<T>(core, mref);
    // Machine backing for the guest page-table pages and the data page
    // (EPT violations are serviced before the hardware walks).
    let (_, gpath) = sim
        .machine
        .kernel()
        .walk(asid, vaddr.page_number())
        .expect("just touched");
    let vm = vm(sim);
    for gpa in gpath.into_iter().chain([gpte.frame.base()]) {
        vm.hv
            .machine_addr(vm.vmid, GuestPhysAddr::new(gpa.as_u64()))
            .expect("machine memory available");
    }
    let now = sim.now(core);
    let SystemSim {
        machine,
        hierarchy,
        dram,
        counters,
        ..
    } = sim;
    let vm = machine.vm_mut().expect(NESTED);
    let (npte, lat) = vm
        .walker
        .walk(&vm.hv, vm.vmid, asid, vaddr.page_number(), |addr| {
            pte_read(hierarchy, dram, counters, core, now, addr)
        })
        .expect("backed above");
    sim.obs.walk_latency.record(lat);
    sim.trace("page_walk", "translation", lat, core);
    let pte = Pte {
        frame: npte.machine_frame,
        perm: npte.perm,
        shared: npte.guest_shared,
    };
    (pte, lat)
}

/// A guest flush request reaches every gVA-indexed structure — the
/// per-core and delayed TLBs, the nested baseline's gVA TLB and (for a
/// whole space) the 2D walker's caches — while a freed guest frame's
/// lines are tagged by machine address, found through the EPT.
fn nested_flush(sim: &mut SystemSim, req: FlushRequest, home: Option<usize>) -> Option<FlushOp> {
    let op = sim.flush_tlbs(req, home);
    let vm = vm(sim);
    match req {
        FlushRequest::Page(asid, vpn) | FlushRequest::DowngradeRo(asid, vpn) => {
            vm.gva_tlb.flush_page(asid, VirtPage::new(vpn));
        }
        FlushRequest::Space(asid) => {
            vm.gva_tlb.flush_asid(asid);
            // The walker's caches expose no per-ASID shootdown: flush
            // them whole (conservative, as on a real ASID reuse).
            vm.walker.flush();
        }
        // No EPT entry means the frame never had machine backing, so
        // nothing of it is cached.
        FlushRequest::Frame(gpa) => {
            return vm
                .hv
                .ept_walk(vm.vmid, GuestPhysAddr::new(gpa))
                .map(|(mpte, _)| FlushOp::PhysFrame(mpte.frame.base().as_u64()));
        }
    }
    Some(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemConfig, TranslationScheme};
    use hvc_os::{AllocPolicy, Kernel, MapIntent};
    use hvc_types::{AccessKind, VirtAddr, PAGE_SIZE};

    /// Two private pages, the first touched.
    const PRIVATE: u64 = 0x1000_0000;
    /// A touched page of a content-shared read-only object.
    const CONTENT: u64 = 0x5000_0000;

    /// A simulator under `scheme` over one process with the pages above.
    fn sim_with_pages(scheme: TranslationScheme) -> (SystemSim, Asid) {
        let mut k = Kernel::new(1 << 30, AllocPolicy::DemandPaging);
        let a = k.create_process().unwrap();
        let private = VirtAddr::new(PRIVATE);
        k.mmap(
            a,
            private,
            2 * PAGE_SIZE,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        let shm = k.shm_create(PAGE_SIZE).unwrap();
        let content = VirtAddr::new(CONTENT);
        k.mmap(
            a,
            content,
            PAGE_SIZE,
            Permissions::RW,
            MapIntent::SharedRo(shm),
        )
        .unwrap();
        k.translate_touch(a, private).unwrap();
        k.translate_touch(a, content).unwrap();
        assert_eq!(k.pending_flush_requests(), 0);
        (SystemSim::new(k, SystemConfig::isca2016(), scheme), a)
    }

    /// A native walk for an access of `kind` to `va` on core 0; returns
    /// its leaf and the entry reads it charged.
    fn walk<T: Translator>(sim: &mut SystemSim, a: Asid, va: u64, kind: AccessKind) -> (Pte, u64) {
        let mref = MemRef {
            asid: a,
            vaddr: VirtAddr::new(va),
            kind,
        };
        let pte_reads = sim.counters.pte_reads;
        let (pte, lat) = native_walk::<T>(sim, 0, mref, None);
        assert!(lat > Cycles::ZERO);
        let leaf = sim
            .kernel()
            .walk(a, mref.vaddr.page_number())
            .map(|(p, _)| p);
        assert_eq!(leaf, Some(pte), "the walk returns the page table's leaf");
        (pte, sim.counters.pte_reads - pte_reads)
    }

    /// Reads of mapped pages, the read-only one included, ask nothing of
    /// the OS: its counters and flush queue stay as they were.
    fn mapped_reads_leave_the_os_alone<T: Translator>(scheme: TranslationScheme) {
        for va in [PRIVATE, CONTENT] {
            let (mut sim, a) = sim_with_pages(scheme);
            let stats = sim.kernel().stats().clone();
            let (_, reads) = walk::<T>(&mut sim, a, va, AccessKind::Read);
            assert_eq!(reads, 4, "a cold walk reads every level");
            assert_eq!(sim.kernel().stats(), &stats, "{scheme:?} at {va:#x}");
            assert_eq!(sim.kernel().pending_flush_requests(), 0);
        }
    }

    /// A write to the content-shared page breaks COW through the walk
    /// (the new private frame is what the walk returns, and the break's
    /// flush is applied), and a touch of the unmapped private page is a
    /// demand fault.
    fn faults_go_through_the_os<T: Translator>(scheme: TranslationScheme) {
        let (mut sim, a) = sim_with_pages(scheme);
        let stats = sim.kernel().stats().clone();
        let shared = sim.kernel().walk(a, VirtAddr::new(CONTENT).page_number());
        let shared = shared.unwrap().0.frame;
        let (pte, reads) = walk::<T>(&mut sim, a, CONTENT, AccessKind::Write);
        assert_eq!(reads, 4, "the new leaf's path is charged once");
        assert_ne!(pte.frame, shared, "{scheme:?}: a fresh frame");
        assert!(pte.perm.is_writable());
        assert_eq!(sim.kernel().stats().cow_breaks, stats.cow_breaks + 1);
        assert_eq!(sim.kernel().pending_flush_requests(), 0, "flush applied");

        let (_, reads) = walk::<T>(&mut sim, a, PRIVATE + PAGE_SIZE, AccessKind::Read);
        assert!(reads >= 1);
        assert_eq!(sim.kernel().stats().minor_faults, stats.minor_faults + 1);
    }

    #[test]
    fn a_walk_of_a_mapped_page_leaves_the_os_alone() {
        mapped_reads_leave_the_os_alone::<Baseline>(TranslationScheme::Baseline);
        mapped_reads_leave_the_os_alone::<HybridTlb>(TranslationScheme::HybridDelayedTlb(1024));
    }

    #[test]
    fn a_walk_that_faults_goes_through_the_os() {
        faults_go_through_the_os::<Baseline>(TranslationScheme::Baseline);
        faults_go_through_the_os::<HybridTlb>(TranslationScheme::HybridDelayedTlb(1024));
    }
}
