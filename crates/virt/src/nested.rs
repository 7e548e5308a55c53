//! Two-dimensional (guest + host) hardware page walking.

use crate::Hypervisor;
use hvc_types::{
    Asid, Cycles, GuestPhysAddr, LruTags, Permissions, PhysAddr, PhysFrame, VirtPage, Vmid,
};

/// The result of a nested translation: everything the TLB caches about a
/// guest virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestedPte {
    /// Backing machine frame.
    pub machine_frame: PhysFrame,
    /// Effective permissions (guest ∩ host).
    pub perm: Permissions,
    /// Guest-OS-induced synonym status (the guest PTE's shared bit).
    pub guest_shared: bool,
}

/// Counters for the nested walker.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NestedWalkerStats {
    /// Nested walks completed.
    pub walks: u64,
    /// Memory references issued (guest PT entries + EPT entries).
    pub memory_reads: u64,
    /// gPA→MA translations served by the nested TLB.
    pub nested_tlb_hits: u64,
    /// gPA→MA translations requiring an EPT walk.
    pub nested_tlb_misses: u64,
}

/// The walker's nested TLB: fully associative guest-physical page →
/// machine frame entries, keyed by `vmid << 48 | gpa_page`, with exact
/// LRU replacement.
#[derive(Clone, Debug)]
pub struct NestedTlb {
    entries: LruTags<PhysFrame>,
}

impl NestedTlb {
    /// An empty nested TLB of `capacity` entries (zero caches nothing).
    pub fn new(capacity: usize) -> Self {
        NestedTlb {
            entries: LruTags::new(capacity),
        }
    }

    fn key(vmid: Vmid, gpa_page: u64) -> u64 {
        u64::from(vmid.as_u8()) << 48 | gpa_page
    }

    /// The machine frame of `gpa_page`, making it most recently used.
    pub fn lookup(&mut self, vmid: Vmid, gpa_page: u64) -> Option<PhysFrame> {
        let slot = self.entries.find(Self::key(vmid, gpa_page))?;
        self.entries.touch(slot);
        Some(*self.entries.payload(slot))
    }

    /// Caches a translation that just missed [`NestedTlb::lookup`],
    /// evicting the least recently used entry when full.
    pub fn insert(&mut self, vmid: Vmid, gpa_page: u64, machine_frame: PhysFrame) {
        self.entries
            .insert(Self::key(vmid, gpa_page), machine_frame);
    }

    /// Invalidates every entry.
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

/// A hardware two-dimensional page walker with a nested TLB (gPA→MA) —
/// the translation-cache-equipped 2D walker of recent x86 parts, which
/// the paper's virtualized baseline models.
///
/// Worst case (cold nested TLB) a walk issues the classic
/// `4 guest reads + 5 EPT walks × 4 reads = 24` memory references; a warm
/// nested TLB reduces it to the four guest reads.
#[derive(Clone, Debug)]
pub struct NestedWalker {
    nested_tlb: NestedTlb,
    stats: NestedWalkerStats,
}

impl NestedWalker {
    /// Creates a walker with a nested TLB of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        NestedWalker {
            nested_tlb: NestedTlb::new(capacity),
            stats: NestedWalkerStats::default(),
        }
    }

    /// A representative configuration: 64-entry nested TLB.
    pub fn isca2016() -> Self {
        NestedWalker::new(64)
    }

    /// Walks guest and host tables for `(vmid, asid, vpage)`.
    ///
    /// Both the guest page and all page-table pages must already have
    /// machine backing (the system simulator services EPT violations via
    /// [`Hypervisor::machine_addr`] before walking). Every memory read is
    /// charged through `access`.
    ///
    /// Returns `None` on a guest page fault or missing machine backing.
    pub fn walk(
        &mut self,
        hv: &Hypervisor,
        vmid: Vmid,
        asid: Asid,
        vpage: VirtPage,
        mut access: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(NestedPte, Cycles)> {
        let kernel = hv.guest_kernel(vmid).ok()?;
        let (gpte, gpath) = kernel.walk(asid, vpage)?;
        let mut latency = Cycles::ZERO;
        // Read each guest page-table entry; its address is guest-physical
        // and must itself be translated through the EPT first.
        for &gpa_entry in &gpath {
            let gpa = GuestPhysAddr::new(gpa_entry.as_u64());
            let ma = self.translate_gpa(hv, vmid, gpa, &mut access, &mut latency)?;
            latency += access(ma);
            self.stats.memory_reads += 1;
        }
        // Translate the leaf guest frame to its machine frame (the fifth
        // EPT walk of the classic 24-reference picture).
        let data_gpa = GuestPhysAddr::new(gpte.frame.base().as_u64());
        let data_ma = self.translate_gpa(hv, vmid, data_gpa, &mut access, &mut latency)?;
        let (ept_pte, _) = hv.ept_walk(vmid, data_gpa)?;
        self.stats.walks += 1;
        let perm = intersect(gpte.perm, ept_pte.perm);
        Some((
            NestedPte {
                machine_frame: data_ma.frame_number(),
                perm,
                guest_shared: gpte.shared,
            },
            latency,
        ))
    }

    /// Translates a guest-physical address via the nested TLB or a full
    /// EPT walk (charging its reads).
    fn translate_gpa(
        &mut self,
        hv: &Hypervisor,
        vmid: Vmid,
        gpa: GuestPhysAddr,
        access: &mut impl FnMut(PhysAddr) -> Cycles,
        latency: &mut Cycles,
    ) -> Option<PhysAddr> {
        let gpa_page = gpa.as_u64() >> hvc_types::PAGE_SHIFT;
        if let Some(frame) = self.nested_tlb.lookup(vmid, gpa_page) {
            self.stats.nested_tlb_hits += 1;
            *latency += Cycles::new(1);
            return Some(PhysAddr::new(frame.base().as_u64() + gpa.page_offset()));
        }
        self.stats.nested_tlb_misses += 1;
        let (pte, path) = hv.ept_walk(vmid, gpa)?;
        for &addr in &path {
            *latency += access(addr);
            self.stats.memory_reads += 1;
        }
        self.nested_tlb.insert(vmid, gpa_page, pte.frame);
        Some(PhysAddr::new(pte.frame.base().as_u64() + gpa.page_offset()))
    }

    /// Invalidates the nested TLB (EPT changes).
    pub fn flush(&mut self) {
        self.nested_tlb.flush();
    }

    /// Counters.
    pub fn stats(&self) -> &NestedWalkerStats {
        &self.stats
    }

    /// Resets counters.
    pub fn reset_stats(&mut self) {
        self.stats = NestedWalkerStats::default();
    }
}

impl Default for NestedWalker {
    fn default() -> Self {
        NestedWalker::isca2016()
    }
}

fn intersect(a: Permissions, b: Permissions) -> Permissions {
    let mut p = Permissions::NONE;
    for bit in [Permissions::READ, Permissions::WRITE, Permissions::EXEC] {
        if a.allows(bit) && b.allows(bit) {
            p |= bit;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, MapIntent};
    use hvc_types::VirtAddr;

    const GIB: u64 = 1 << 30;

    /// Sets up a VM with one mapped+touched guest page whose guest PT
    /// pages and data page all have machine backing.
    fn setup() -> (Hypervisor, Vmid, Asid, VirtAddr) {
        let mut hv = Hypervisor::new(2 * GIB);
        let vm = hv
            .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
            .unwrap();
        let asid = hv.create_guest_process(vm).unwrap();
        let va = VirtAddr::new(0x40_0000);
        let gk = hv.guest_kernel_mut(vm).unwrap();
        gk.mmap(
            asid,
            va,
            0x10000,
            hvc_types::Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        gk.translate_touch(asid, va).unwrap();
        gk.translate_touch(asid, va + 0x1000).unwrap();
        // Establish machine backing for PT pages and data pages.
        let (gpte, gpath) = hv
            .guest_kernel(vm)
            .unwrap()
            .walk(asid, va.page_number())
            .unwrap();
        for e in gpath {
            hv.machine_addr(vm, GuestPhysAddr::new(e.as_u64())).unwrap();
        }
        hv.machine_addr(vm, GuestPhysAddr::new(gpte.frame.base().as_u64()))
            .unwrap();
        let (gpte2, _) = hv
            .guest_kernel(vm)
            .unwrap()
            .walk(asid, (va + 0x1000).page_number())
            .unwrap();
        hv.machine_addr(vm, GuestPhysAddr::new(gpte2.frame.base().as_u64()))
            .unwrap();
        (hv, vm, asid, va)
    }

    #[test]
    fn cold_walk_issues_24_reads() {
        let (hv, vm, asid, va) = setup();
        let mut w = NestedWalker::new(0); // no nested TLB
        let mut reads = 0u32;
        let (pte, _lat) = w
            .walk(&hv, vm, asid, va.page_number(), |_| {
                reads += 1;
                Cycles::new(10)
            })
            .unwrap();
        assert_eq!(reads, 24, "4 guest + 5 EPT walks × 4");
        assert!(pte.perm.allows(Permissions::READ));
        assert!(!pte.guest_shared);
    }

    #[test]
    fn nested_tlb_cuts_reads_to_guest_levels() {
        let (hv, vm, asid, va) = setup();
        let mut w = NestedWalker::isca2016();
        w.walk(&hv, vm, asid, va.page_number(), |_| Cycles::new(10))
            .unwrap();
        let mut reads = 0u32;
        // Second page: same PT pages (nested TLB warm for them); only its
        // own data-frame EPT translation may miss.
        w.walk(&hv, vm, asid, (va + 0x1000).page_number(), |_| {
            reads += 1;
            Cycles::new(10)
        })
        .unwrap();
        assert!(
            reads <= 8,
            "nested TLB should absorb EPT walks, got {reads}"
        );
        assert!(w.stats().nested_tlb_hits >= 4);
    }

    #[test]
    fn machine_frame_matches_hypervisor_view() {
        let (mut hv, vm, asid, va) = setup();
        let mut w = NestedWalker::isca2016();
        let (pte, _) = w
            .walk(&hv, vm, asid, va.page_number(), |_| Cycles::new(1))
            .unwrap();
        let gpte = hv
            .guest_kernel(vm)
            .unwrap()
            .walk(asid, va.page_number())
            .unwrap()
            .0;
        let ma = hv
            .machine_addr(vm, GuestPhysAddr::new(gpte.frame.base().as_u64()))
            .unwrap();
        assert_eq!(pte.machine_frame, ma.frame_number());
    }

    #[test]
    fn unmapped_guest_page_is_none() {
        let (hv, vm, asid, _) = setup();
        let mut w = NestedWalker::isca2016();
        assert!(w
            .walk(
                &hv,
                vm,
                asid,
                VirtAddr::new(0xdead_0000).page_number(),
                |_| Cycles::new(1)
            )
            .is_none());
    }

    #[test]
    fn flush_forces_ept_rewalk() {
        let (hv, vm, asid, va) = setup();
        let mut w = NestedWalker::isca2016();
        w.walk(&hv, vm, asid, va.page_number(), |_| Cycles::new(1))
            .unwrap();
        w.flush();
        let before = w.stats().nested_tlb_misses;
        w.walk(&hv, vm, asid, va.page_number(), |_| Cycles::new(1))
            .unwrap();
        assert!(w.stats().nested_tlb_misses > before);
    }

    #[test]
    fn permission_intersection() {
        assert_eq!(
            intersect(Permissions::RW, Permissions::READ),
            Permissions::READ
        );
        assert_eq!(intersect(Permissions::RW, Permissions::RW), Permissions::RW);
        assert_eq!(
            intersect(Permissions::RX, Permissions::READ | Permissions::WRITE),
            Permissions::READ
        );
    }
}
