//! Whole-machine invariant sweeps.
//!
//! These walk every resident cache line, every TLB entry and every page
//! table, so they are O(machine state) — run them periodically (see
//! [`crate::CheckConfig::sweep_every`]), not per access.

use crate::violation::Violation;
use hvc_core::SystemSim;
use hvc_os::{Kernel, Pte};
use hvc_types::{
    Asid, BlockName, FxHashMap, GuestPhysAddr, PhysFrame, VirtAddr, VirtPage, Vmid, PAGE_SHIFT,
    PAGE_SIZE,
};
use hvc_virt::Hypervisor;

/// Reserved-bit marker of Enigma canonical intermediate names (the
/// shared-object address range, mirroring `system.rs`'s writeback
/// decode).
const ENIGMA_IA_BIT: u64 = 1 << 46;

enum Resolved {
    /// Machine (line-aligned) address the name currently maps to.
    Machine(u64),
    /// Cannot be resolved without being a violation (e.g. a canonical
    /// name whose shared object vanished, which `write_back` drops too).
    Skip,
}

fn describe(name: BlockName) -> String {
    format!("{name:?}")
}

fn decode_canonical(base: u64) -> (hvc_os::ShmId, u64) {
    let ia = base - ENIGMA_IA_BIT;
    (hvc_os::ShmId((ia >> 34) as u32), ia & ((1 << 34) - 1))
}

/// Resolves a native block name to the machine line it currently maps
/// to, or reports the stale-line violation.
fn resolve_native(kernel: &Kernel, name: BlockName) -> Result<Resolved, Violation> {
    match name {
        BlockName::Phys(line) => Ok(Resolved::Machine(line.base_raw())),
        BlockName::Virt(asid, line)
            if asid == Asid::KERNEL && line.base_raw() & ENIGMA_IA_BIT != 0 =>
        {
            let (id, offset) = decode_canonical(line.base_raw());
            match kernel.shm_phys_addr(id, offset) {
                Some(pa) => Ok(Resolved::Machine(pa.as_u64())),
                None => Ok(Resolved::Skip),
            }
        }
        BlockName::Virt(asid, line) => {
            let va = VirtAddr::new(line.base_raw());
            match kernel.walk(asid, va.page_number()) {
                Some((pte, _)) => Ok(Resolved::Machine(
                    pte.frame.base().as_u64() + (line.base_raw() & (PAGE_SIZE - 1)),
                )),
                None => Err(Violation::StaleLine {
                    name: describe(name),
                }),
            }
        }
    }
}

/// Checks the single-name guarantee over a set of resolved names:
/// at most one name per machine line, except when every involved name
/// is cached read-only (the paper's content-based sharing serves
/// deduplicated read-only pages virtually under multiple names).
fn audit_single_name<F>(resolved: &[(BlockName, u64)], writable: F, out: &mut Vec<Violation>)
where
    F: Fn(BlockName) -> bool,
{
    let mut owner: FxHashMap<u64, BlockName> = FxHashMap::default();
    for &(name, line) in resolved {
        match owner.get(&line) {
            Some(&other) if other != name => {
                if writable(name) || writable(other) {
                    out.push(Violation::SingleName {
                        line,
                        a: describe(name),
                        b: describe(other),
                    });
                }
            }
            Some(_) => {}
            None => {
                owner.insert(line, name);
            }
        }
    }
}

fn vpn_of(vp: VirtPage) -> u64 {
    vp.base().as_u64() >> PAGE_SHIFT
}

/// Checks one native TLB entry against the page tables.
fn check_native_tlb_entry(
    kernel: &Kernel,
    tlb: &'static str,
    entry: (Asid, VirtPage, Pte),
    out: &mut Vec<Violation>,
) {
    let (asid, vp, pte) = entry;
    if asid != Asid::KERNEL {
        return check_tlb_entry(kernel, tlb, entry, Some, out);
    }
    // Enigma canonical entries index the intermediate address space;
    // audit them against the shared object they decode to.
    let base = vp.base().as_u64();
    if base & ENIGMA_IA_BIT != 0 {
        let (id, offset) = decode_canonical(base);
        if let Some(pa) = kernel.shm_phys_addr(id, offset) {
            let frame_base = pa.as_u64() & !(PAGE_SIZE - 1);
            if pte.frame.base().as_u64() != frame_base {
                out.push(Violation::TlbStale {
                    tlb,
                    asid: asid.as_u16(),
                    vpn: vpn_of(vp),
                    detail: format!(
                        "canonical entry maps frame {:#x}, object lives at {frame_base:#x}",
                        pte.frame.base().as_u64()
                    ),
                });
            }
        }
    }
}

/// Checks one TLB entry against `kernel`'s page tables. `machine` gives
/// the frame the entry must hold for a page-table frame: the frame itself
/// natively, its EPT backing in a VM — `None` when the frame has no
/// machine backing yet, so nothing of it can be cached.
fn check_tlb_entry(
    kernel: &Kernel,
    tlb: &'static str,
    (asid, vp, pte): (Asid, VirtPage, Pte),
    machine: impl Fn(PhysFrame) -> Option<PhysFrame>,
    out: &mut Vec<Violation>,
) {
    let stale = |detail: String| Violation::TlbStale {
        tlb,
        asid: asid.as_u16(),
        vpn: vpn_of(vp),
        detail,
    };
    let Some((kpte, _)) = kernel.walk(asid, vp) else {
        out.push(stale("entry maps an unmapped page".into()));
        return;
    };
    match machine(kpte.frame) {
        None => {}
        Some(frame) if frame != pte.frame => out.push(stale(format!(
            "entry frame {:#x} != machine frame {:#x}",
            pte.frame.base().as_u64(),
            frame.base().as_u64()
        ))),
        Some(_) if pte.perm.is_writable() && !kpte.perm.is_writable() => out.push(stale(
            "entry is writable but the OS downgraded the page".into(),
        )),
        Some(_) => {}
    }
}

/// Audits every space's filter for false negatives: a page the OS marked
/// shared must be a candidate in its space's synonym filter.
fn audit_filters(kernel: &Kernel, out: &mut Vec<Violation>) {
    for (asid, space) in kernel.spaces() {
        for (vp, pte) in space.page_table().iter() {
            if pte.shared && !space.filter.is_candidate(vp.base()) {
                out.push(Violation::FilterFalseNegative {
                    asid: asid.as_u16(),
                    vpn: vpn_of(vp),
                });
            }
        }
    }
}

/// The sweep both machines share: every resident name resolved to the
/// machine line it maps to (`resolve`) for the single-name audit, every
/// TLB entry checked (`check_entry`), then the kernel's filters and its
/// flush queue.
fn sweep<'a>(
    sim: &'a SystemSim,
    resolve: impl Fn(BlockName) -> Result<Resolved, Violation>,
    entries: impl Iterator<Item = (&'static str, (Asid, VirtPage, Pte))> + 'a,
    check_entry: impl Fn(&'static str, (Asid, VirtPage, Pte), &mut Vec<Violation>),
) -> Vec<Violation> {
    let mut out = Vec::new();
    // Sorted, so violations come out in the same order on every run.
    let mut names: Vec<BlockName> = sim.hierarchy().resident_names().collect();
    names.sort_unstable();
    names.dedup();
    let mut resolved = Vec::with_capacity(names.len());
    for &name in &names {
        match resolve(name) {
            Err(v) => out.push(v),
            Ok(Resolved::Skip) => {}
            Ok(Resolved::Machine(line)) => resolved.push((name, line)),
        }
    }
    resolved.sort_unstable();
    audit_single_name(
        &resolved,
        |n| {
            sim.hierarchy()
                .cached_permissions(0, n)
                .map(|p| p.is_writable())
                .unwrap_or(false)
        },
        &mut out,
    );

    for (tlb, entry) in entries {
        check_entry(tlb, entry, &mut out);
    }

    audit_filters(sim.kernel(), &mut out);

    let pending = sim.kernel().pending_flush_requests();
    if pending > 0 {
        out.push(Violation::PendingFlushes { pending });
    }
    out
}

/// The per-core synonym TLBs' and the shared delayed TLB's entries,
/// tagged with their structure's name.
fn hybrid_tlb_entries(
    sim: &SystemSim,
) -> impl Iterator<Item = (&'static str, (Asid, VirtPage, Pte))> + '_ {
    sim.synonym_tlbs()
        .iter()
        .flat_map(|t| t.entries().map(|e| ("synonym_tlb", e)))
        .chain(sim.delayed_tlb().entries().map(|e| ("delayed_tlb", e)))
}

/// Audits every cached RMM range entry against the kernel's segment
/// table: it must still be a live segment — the same id, base and
/// physical base, at most as long (the OS grows segments in place).
fn audit_range_tlbs(sim: &SystemSim, out: &mut Vec<Violation>) {
    let table = sim.kernel().segments();
    for seg in sim.range_tlbs().iter().flat_map(|r| r.entries()) {
        let live = table.get(seg.id).is_some_and(|l| {
            l.asid == seg.asid
                && l.base == seg.base
                && l.phys_base == seg.phys_base
                && l.len >= seg.len
        });
        if !live {
            out.push(Violation::TlbStale {
                tlb: "range_tlb",
                asid: seg.asid.as_u16(),
                vpn: seg.base.as_u64() >> PAGE_SHIFT,
                detail: format!(
                    "entry caches segment {} ({:#x} bytes at {:#x}), which the segment \
                     table no longer holds",
                    seg.id.0,
                    seg.len,
                    seg.phys_base.as_u64()
                ),
            });
        }
    }
}

/// Sweeps a native simulator's whole state: stale lines, single-name,
/// TLB and range-TLB soundness, filter false negatives, and the flush
/// queue.
pub fn check_system(sim: &SystemSim) -> Vec<Violation> {
    let kernel = sim.kernel();
    let entries = sim
        .data_tlbs()
        .iter()
        .flat_map(|t| t.entries().map(|e| ("dtlb", e)))
        .chain(hybrid_tlb_entries(sim));
    let mut out = sweep(
        sim,
        |name| resolve_native(kernel, name),
        entries,
        |tlb, entry, out| check_native_tlb_entry(kernel, tlb, entry, out),
    );
    audit_range_tlbs(sim, &mut out);
    out
}

/// Resolves a guest block name through the guest page tables and the
/// EPT. A line whose page has no machine backing yet is skipped: machine
/// backing is established before every fill.
fn resolve_guest(
    gk: &Kernel,
    hv: &Hypervisor,
    vmid: Vmid,
    name: BlockName,
) -> Result<Resolved, Violation> {
    let BlockName::Virt(asid, line) = name else {
        return resolve_native(gk, name);
    };
    let va = VirtAddr::new(line.base_raw());
    let Some((gpte, _)) = gk.walk(asid, va.page_number()) else {
        return Err(Violation::StaleLine {
            name: describe(name),
        });
    };
    let gpa = gpte.frame.base().as_u64() + (line.base_raw() & (PAGE_SIZE - 1));
    Ok(match hv.ept_walk(vmid, GuestPhysAddr::new(gpa)) {
        Some((mpte, _)) => Resolved::Machine(mpte.frame.base().as_u64() + (gpa & (PAGE_SIZE - 1))),
        None => Resolved::Skip,
    })
}

/// Sweeps a virtualized simulator's whole state; names and TLB entries
/// are gVA-indexed and resolve through guest page tables plus the EPT.
///
/// A native simulator has no guest to resolve through: it yields no
/// violations here (use [`check_system`]).
pub fn check_virt(sim: &SystemSim) -> Vec<Violation> {
    let Some((hv, vmid)) = sim.guest() else {
        return Vec::new();
    };
    let gk = sim.kernel();
    let entries = sim
        .gva_tlb()
        .into_iter()
        .flat_map(|t| t.entries().map(|e| ("gva_tlb", e)))
        .chain(hybrid_tlb_entries(sim));
    sweep(
        sim,
        |name| resolve_guest(gk, hv, vmid, name),
        entries,
        |tlb, entry, out| {
            let backing = |f: PhysFrame| {
                let gpa = GuestPhysAddr::new(f.base().as_u64());
                hv.ept_walk(vmid, gpa).map(|(mpte, _)| mpte.frame)
            };
            check_tlb_entry(gk, tlb, entry, backing, out)
        },
    )
}
