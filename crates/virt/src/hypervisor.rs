//! The hypervisor: VM lifecycle, EPT management, hypervisor-induced
//! sharing.

use hvc_filter::{FilterKind, SynonymFilter};
use hvc_os::{AllocPolicy, BuddyAllocator, Kernel, PageTable, Pte, SegmentTable, WalkPath};
use hvc_types::{
    Asid, FxHashMap, GuestPhysAddr, HvcError, Permissions, PhysAddr, PhysFrame, Result, VirtAddr,
    Vmid, PAGE_SHIFT,
};
use std::collections::HashMap;

/// Hypervisor event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtStats {
    /// EPT violations serviced by demand allocation.
    pub ept_faults: u64,
    /// Copy-on-write breaks of deduplicated machine pages.
    pub cow_breaks: u64,
    /// Machine pages reclaimed by deduplication.
    pub pages_deduped: u64,
    /// Host-filter insertions (hypervisor-induced r/w sharing).
    pub host_filter_insertions: u64,
    /// Host-share teardowns (hypervisor-induced sharing revoked).
    pub host_filter_unshares: u64,
}

struct VmState {
    kernel: Kernel,
    /// EPT: guest-physical page → machine frame ("VirtPage" here carries a
    /// guest-physical page number).
    ept: PageTable,
    host_filter: SynonymFilter,
    /// Inverse map of hypervisor-induced shares: guest-physical page →
    /// the guest-virtual page base the filter was indexed with. This is
    /// what makes the host filter rebuildable — the hypervisor works in
    /// gPA terms but the filter is indexed by gVA (Section V-A).
    host_inverse: FxHashMap<u64, VirtAddr>,
    /// Shares revoked since the last host-filter rebuild. Under the
    /// Bloom strategy, revoked pages keep their bits until a rebuild.
    host_stale_pages: u64,
    next_local_asid: u16,
    /// Host segments: contiguous machine regions backing guest-physical
    /// ranges, for 2D segment translation (keyed in the host segment
    /// table by the VM's base ASID and gPA-as-VA).
    host_segment_key: Asid,
}

/// The hypervisor: owns machine memory and all VMs.
pub struct Hypervisor {
    machine: BuddyAllocator,
    machine_meta: BuddyAllocator,
    vms: HashMap<u8, VmState>,
    next_vmid: u8,
    host_segments: SegmentTable,
    stats: VirtStats,
    filter_kind: FilterKind,
}

impl Hypervisor {
    /// Bytes reserved for EPT nodes and hypervisor metadata.
    const META_BYTES: u64 = 64 << 20;

    /// Revoked host shares tolerated before the host filter is rebuilt
    /// from the inverse map (mirrors `Kernel::FILTER_STALE_LIMIT`).
    pub const HOST_FILTER_STALE_LIMIT: u64 = 64;

    /// Boots a hypervisor managing `machine_bytes` of machine memory.
    ///
    /// # Panics
    ///
    /// Panics if `machine_bytes` is not larger than the 64 MiB metadata
    /// reservation, or beyond the [`hvc_os::MAX_PHYS_BYTES`] an EPT entry
    /// can name.
    pub fn new(machine_bytes: u64) -> Self {
        assert!(machine_bytes > Self::META_BYTES, "machine memory too small");
        assert!(
            machine_bytes <= hvc_os::MAX_PHYS_BYTES,
            "machine memory beyond the EPT entry's frame range"
        );
        let user_base = PhysFrame::new(Self::META_BYTES >> PAGE_SHIFT);
        Hypervisor {
            machine: BuddyAllocator::with_base(user_base, machine_bytes - Self::META_BYTES),
            machine_meta: BuddyAllocator::new(Self::META_BYTES),
            vms: HashMap::new(),
            next_vmid: 1,
            host_segments: SegmentTable::new(2048),
            stats: VirtStats::default(),
            filter_kind: FilterKind::Bloom,
        }
    }

    /// Selects the synonym-filter strategy for VMs created **after**
    /// this call: both the per-VM host filter and the guest kernel's
    /// per-process filters. Existing VMs keep their filters.
    pub fn set_filter_kind(&mut self, kind: FilterKind) {
        self.filter_kind = kind;
    }

    /// The strategy new VMs' filters will use.
    pub fn filter_kind(&self) -> FilterKind {
        self.filter_kind
    }

    /// Creates a VM with `guest_bytes` of guest-physical memory, whose
    /// guest kernel runs `guest_policy`. Machine backing is established
    /// on demand (EPT faults) — or eagerly as one host segment per
    /// contiguous machine run when `eager_backing` is set (required for
    /// 2D segment translation).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] when VMIDs run out, [`HvcError::OutOfMemory`] /
    /// [`HvcError::SegmentTableFull`] when eager backing fails.
    pub fn create_vm(
        &mut self,
        guest_bytes: u64,
        guest_policy: AllocPolicy,
        eager_backing: bool,
    ) -> Result<Vmid> {
        if self.next_vmid >= 64 {
            return Err(HvcError::BadId("VMID space exhausted"));
        }
        let vmid = Vmid::new(self.next_vmid);
        self.next_vmid += 1;
        let ept = PageTable::new(&mut self.machine_meta)?;
        let host_segment_key = Asid::for_vm(vmid, 0);
        let mut kernel = Kernel::new(guest_bytes, guest_policy);
        kernel.set_filter_kind(self.filter_kind);
        let mut state = VmState {
            kernel,
            ept,
            host_filter: SynonymFilter::with_kind(self.filter_kind),
            host_inverse: FxHashMap::default(),
            host_stale_pages: 0,
            next_local_asid: 1,
            host_segment_key,
        };
        if eager_backing {
            // Back the whole guest-physical space with large machine
            // segments (hypervisors allocate VM memory in big chunks; one
            // host segment per 1 GiB buddy block at most).
            let total = guest_bytes >> PAGE_SHIFT;
            let mut done = 0u64;
            while done < total {
                let chunk = (total - done).min(hvc_os::MAX_BLOCK_FRAMES);
                let base = self.machine.alloc_exact(chunk)?;
                self.host_segments.insert(
                    host_segment_key,
                    VirtAddr::new(done << PAGE_SHIFT), // gPA
                    chunk << PAGE_SHIFT,
                    base.base(),
                )?;
                for i in 0..chunk {
                    let gpa_page = hvc_types::VirtPage::new(done + i);
                    let pte = Pte {
                        frame: base.offset(i),
                        perm: Permissions::RW,
                        shared: false,
                    };
                    state.ept.map(&mut self.machine_meta, gpa_page, pte)?;
                }
                done += chunk;
            }
        }
        self.vms.insert(vmid.as_u8(), state);
        Ok(vmid)
    }

    /// Creates a guest process inside `vmid`; the returned ASID embeds
    /// the VMID.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs or exhausted guest ASIDs.
    pub fn create_guest_process(&mut self, vmid: Vmid) -> Result<Asid> {
        let vm = self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        if vm.next_local_asid >= 1 << 10 {
            return Err(HvcError::BadId("guest ASID space exhausted"));
        }
        let asid = Asid::for_vm(vmid, vm.next_local_asid);
        vm.next_local_asid += 1;
        vm.kernel.create_process_with_asid(asid)?;
        Ok(asid)
    }

    /// Mutable access to a VM's guest kernel (guest OS operations:
    /// mmap, shm, touch, …).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn guest_kernel_mut(&mut self, vmid: Vmid) -> Result<&mut Kernel> {
        Ok(&mut self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?
            .kernel)
    }

    /// Shared access to a VM's guest kernel.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn guest_kernel(&self, vmid: Vmid) -> Result<&Kernel> {
        Ok(&self
            .vms
            .get(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?
            .kernel)
    }

    /// The host synonym filter of `vmid` (looked up with guest virtual
    /// addresses alongside the guest filter).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn host_filter(&self, vmid: Vmid) -> Result<&SynonymFilter> {
        Ok(&self
            .vms
            .get(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?
            .host_filter)
    }

    /// Translates a guest-physical address to a machine address,
    /// establishing backing on demand (an EPT violation + fill).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] / [`HvcError::OutOfMemory`].
    pub fn machine_addr(&mut self, vmid: Vmid, gpa: GuestPhysAddr) -> Result<PhysAddr> {
        let vm = self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        let gpa_page = hvc_types::VirtPage::new(gpa.as_u64() >> PAGE_SHIFT);
        if let Some(pte) = vm.ept.lookup(gpa_page) {
            return Ok(PhysAddr::new(pte.frame.base().as_u64() + gpa.page_offset()));
        }
        let frame = self.machine.alloc_frame()?;
        let pte = Pte {
            frame,
            perm: Permissions::RW,
            shared: false,
        };
        vm.ept.map(&mut self.machine_meta, gpa_page, pte)?;
        self.stats.ept_faults += 1;
        Ok(PhysAddr::new(frame.base().as_u64() + gpa.page_offset()))
    }

    /// Read-only EPT walk: the machine PTE plus the four machine
    /// addresses a hardware EPT walk touches. `None` if the guest page
    /// has no machine backing yet.
    pub fn ept_walk(&self, vmid: Vmid, gpa: GuestPhysAddr) -> Option<(Pte, WalkPath)> {
        let vm = self.vms.get(&vmid.as_u8())?;
        let gpa_page = hvc_types::VirtPage::new(gpa.as_u64() >> PAGE_SHIFT);
        vm.ept.walk(gpa_page)
    }

    /// Deduplicates two guest pages (possibly in different VMs) onto one
    /// machine frame, read-only — the paper's content-based sharing with
    /// the r/o optimization: **no** filter update, permission downgraded
    /// in the EPT and (by the caller) in cached copies.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] / [`HvcError::Unmapped`] for unknown targets.
    pub fn dedup_ro(&mut self, a: (Vmid, GuestPhysAddr), b: (Vmid, GuestPhysAddr)) -> Result<()> {
        // Resolve (and if needed create) machine backing for `a`.
        let ma = self.machine_addr(a.0, a.1)?;
        let keep_frame = ma.frame_number();
        // Downgrade a's EPT entry.
        let vm_a = self
            .vms
            .get_mut(&a.0.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        let gpa_page_a = hvc_types::VirtPage::new(a.1.as_u64() >> PAGE_SHIFT);
        vm_a.ept
            .update(gpa_page_a, |pte| pte.perm = pte.perm.downgraded_read_only());
        // Point b's EPT entry at the kept frame, r/o; free b's old frame.
        let vm_b = self
            .vms
            .get_mut(&b.0.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        let gpa_page_b = hvc_types::VirtPage::new(b.1.as_u64() >> PAGE_SHIFT);
        let old = vm_b.ept.lookup(gpa_page_b);
        let pte = Pte {
            frame: keep_frame,
            perm: Permissions::READ | Permissions::EXEC,
            shared: false,
        };
        vm_b.ept.map(&mut self.machine_meta, gpa_page_b, pte)?;
        if let Some(old) = old {
            if old.frame != keep_frame {
                self.machine.free_exact(old.frame, 1);
                self.stats.pages_deduped += 1;
            }
        }
        Ok(())
    }

    /// Breaks deduplication on a guest write: allocates a fresh machine
    /// frame and remaps the EPT entry read-write.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] / [`HvcError::OutOfMemory`].
    pub fn break_dedup(&mut self, vmid: Vmid, gpa: GuestPhysAddr) -> Result<PhysAddr> {
        let frame = self.machine.alloc_frame()?;
        let vm = self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        let gpa_page = hvc_types::VirtPage::new(gpa.as_u64() >> PAGE_SHIFT);
        let pte = Pte {
            frame,
            perm: Permissions::RW,
            shared: false,
        };
        vm.ept.map(&mut self.machine_meta, gpa_page, pte)?;
        self.stats.cow_breaks += 1;
        Ok(PhysAddr::new(frame.base().as_u64() + gpa.page_offset()))
    }

    /// Registers hypervisor-induced **r/w** sharing of a guest page
    /// (e.g. a virtio ring shared with the host): inserts the page's
    /// guest-*virtual* address into the VM's host filter, making it a
    /// synonym candidate (Section V-A), and records the gPA→gVA pair in
    /// the VM's inverse map so the filter can later be pruned and
    /// rebuilt. Re-sharing an already-shared guest-physical page is
    /// idempotent.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn share_rw_with_host(
        &mut self,
        vmid: Vmid,
        gpa: GuestPhysAddr,
        gva: VirtAddr,
    ) -> Result<()> {
        let vm = self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        let gpa_page = gpa.as_u64() >> PAGE_SHIFT;
        let gva_base = VirtAddr::new((gva.as_u64() >> PAGE_SHIFT) << PAGE_SHIFT);
        if let Some(&old) = vm.host_inverse.get(&gpa_page) {
            if old == gva_base {
                return Ok(()); // already shared at this gVA
            }
            // Remapped to a different gVA: the old filter entry goes stale.
            vm.host_filter.remove_page(old);
            vm.host_stale_pages += 1;
        }
        vm.host_inverse.insert(gpa_page, gva_base);
        vm.host_filter.insert_page(gva_base);
        self.stats.host_filter_insertions += 1;
        self.maybe_rebuild_host_filter(vmid)
    }

    /// Revokes hypervisor-induced sharing of a guest-physical page: the
    /// inverse-map entry is dropped and the gVA is removed from the host
    /// filter (exact under the RLT; under the Bloom pair the bits stay
    /// until the staleness bound triggers a rebuild). Unknown pages are
    /// a no-op.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn unshare_with_host(&mut self, vmid: Vmid, gpa: GuestPhysAddr) -> Result<()> {
        let vm = self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        let gpa_page = gpa.as_u64() >> PAGE_SHIFT;
        let Some(gva) = vm.host_inverse.remove(&gpa_page) else {
            return Ok(());
        };
        vm.host_filter.remove_page(gva);
        vm.host_stale_pages += 1;
        self.stats.host_filter_unshares += 1;
        self.maybe_rebuild_host_filter(vmid)
    }

    fn maybe_rebuild_host_filter(&mut self, vmid: Vmid) -> Result<()> {
        let stale = self
            .vms
            .get(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?
            .host_stale_pages;
        if stale > Self::HOST_FILTER_STALE_LIMIT {
            self.rebuild_host_filter(vmid)?;
        }
        Ok(())
    }

    /// Rebuilds the VM's host filter from the inverse gPA→gVA map —
    /// the hypervisor-side analogue of `Kernel::rebuild_filter`. Clears
    /// the filter, re-inserts every live host share, resets the
    /// staleness tally, and books the rebuild (plus the shootdown that
    /// publishes the fresh filter) against the guest kernel's
    /// [`hvc_os::KernelStats`], so it shows in the run's report.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn rebuild_host_filter(&mut self, vmid: Vmid) -> Result<()> {
        let vm = self
            .vms
            .get_mut(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?;
        vm.host_filter.clear();
        for &gva in vm.host_inverse.values() {
            vm.host_filter.insert_page(gva);
        }
        vm.host_stale_pages = 0;
        vm.kernel.account_host_filter_rebuild();
        Ok(())
    }

    /// Live hypervisor-induced shares of `vmid` (inverse-map size).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn host_shared_pages(&self, vmid: Vmid) -> Result<usize> {
        Ok(self
            .vms
            .get(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?
            .host_inverse
            .len())
    }

    /// Host (machine) segment table for 2D segment translation.
    pub fn host_segments(&self) -> &SegmentTable {
        &self.host_segments
    }

    /// The host-segment key (base ASID) of `vmid` — host segments are
    /// registered under this ASID with gPA-as-VA.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown VMs.
    pub fn host_segment_key(&self, vmid: Vmid) -> Result<Asid> {
        Ok(self
            .vms
            .get(&vmid.as_u8())
            .ok_or(HvcError::BadId("unknown VMID"))?
            .host_segment_key)
    }

    /// Counters.
    pub fn stats(&self) -> &VirtStats {
        &self.stats
    }

    /// Free machine frames remaining.
    pub fn free_machine_frames(&self) -> u64 {
        self.machine.free_frames()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::MapIntent;

    const GIB: u64 = 1 << 30;

    fn hv_with_vm() -> (Hypervisor, Vmid, Asid) {
        let mut hv = Hypervisor::new(2 * GIB);
        let vm = hv
            .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
            .unwrap();
        let asid = hv.create_guest_process(vm).unwrap();
        (hv, vm, asid)
    }

    #[test]
    fn guest_asids_embed_vmid() {
        let (_, vm, asid) = hv_with_vm();
        assert_eq!(asid.vmid(), vm);
        assert_ne!(asid, Asid::new(asid.local()));
    }

    #[test]
    fn two_vms_get_disjoint_machine_frames() {
        let mut hv = Hypervisor::new(2 * GIB);
        let vm1 = hv
            .create_vm(GIB / 4, AllocPolicy::DemandPaging, false)
            .unwrap();
        let vm2 = hv
            .create_vm(GIB / 4, AllocPolicy::DemandPaging, false)
            .unwrap();
        let m1 = hv.machine_addr(vm1, GuestPhysAddr::new(0x1000)).unwrap();
        let m2 = hv.machine_addr(vm2, GuestPhysAddr::new(0x1000)).unwrap();
        assert_ne!(m1.frame_number(), m2.frame_number());
        assert_eq!(hv.stats().ept_faults, 2);
        // Repeat translation faults no more.
        hv.machine_addr(vm1, GuestPhysAddr::new(0x1040)).unwrap();
        assert_eq!(hv.stats().ept_faults, 2);
    }

    #[test]
    fn guest_process_memory_reaches_machine_memory() {
        let (mut hv, vm, asid) = hv_with_vm();
        let gk = hv.guest_kernel_mut(vm).unwrap();
        gk.mmap(
            asid,
            VirtAddr::new(0x10000),
            0x1000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        let pte = gk.translate_touch(asid, VirtAddr::new(0x10000)).unwrap();
        let gpa = GuestPhysAddr::new(pte.frame.base().as_u64());
        let ma = hv.machine_addr(vm, gpa).unwrap();
        assert!(ma.as_u64() >= Hypervisor::META_BYTES);
    }

    #[test]
    fn eager_backing_creates_host_segment_and_full_ept() {
        let mut hv = Hypervisor::new(2 * GIB);
        let vm = hv
            .create_vm(128 << 20, AllocPolicy::DemandPaging, true)
            .unwrap();
        assert_eq!(hv.host_segments().len(), 1);
        let key = hv.host_segment_key(vm).unwrap();
        let seg = hv
            .host_segments()
            .find(key, VirtAddr::new(0x12345))
            .unwrap();
        // Segment translation agrees with the EPT.
        let ma_seg = seg.translate(VirtAddr::new(0x12345));
        let ma_ept = hv.machine_addr(vm, GuestPhysAddr::new(0x12345)).unwrap();
        assert_eq!(ma_seg, ma_ept);
        assert_eq!(hv.stats().ept_faults, 0, "no faults with eager backing");
    }

    #[test]
    fn dedup_shares_one_frame_read_only() {
        let mut hv = Hypervisor::new(2 * GIB);
        let vm1 = hv
            .create_vm(GIB / 4, AllocPolicy::DemandPaging, false)
            .unwrap();
        let vm2 = hv
            .create_vm(GIB / 4, AllocPolicy::DemandPaging, false)
            .unwrap();
        let g1 = GuestPhysAddr::new(0x5000);
        let g2 = GuestPhysAddr::new(0x9000);
        hv.machine_addr(vm1, g1).unwrap();
        hv.machine_addr(vm2, g2).unwrap();
        let free_before = hv.free_machine_frames();
        hv.dedup_ro((vm1, g1), (vm2, g2)).unwrap();
        assert_eq!(hv.free_machine_frames(), free_before + 1);
        assert_eq!(hv.stats().pages_deduped, 1);
        let (p1, _) = hv.ept_walk(vm1, g1).unwrap();
        let (p2, _) = hv.ept_walk(vm2, g2).unwrap();
        assert_eq!(p1.frame, p2.frame);
        assert!(!p1.perm.is_writable());
        assert!(!p2.perm.is_writable());
        // Host filters untouched: r/o sharing is not a synonym.
        assert_eq!(hv.stats().host_filter_insertions, 0);

        // A write breaks the sharing.
        let ma = hv.break_dedup(vm2, g2).unwrap();
        let (p2b, _) = hv.ept_walk(vm2, g2).unwrap();
        assert_eq!(p2b.frame, ma.frame_number());
        assert_ne!(p2b.frame, p1.frame);
        assert!(p2b.perm.is_writable());
        assert_eq!(hv.stats().cow_breaks, 1);
    }

    #[test]
    fn rw_host_sharing_updates_host_filter() {
        let (mut hv, vm, _asid) = hv_with_vm();
        let gva = VirtAddr::new(0x7fff_0000);
        let gpa = GuestPhysAddr::new(0x4000_0000);
        assert!(!hv.host_filter(vm).unwrap().is_candidate(gva));
        hv.share_rw_with_host(vm, gpa, gva).unwrap();
        assert!(hv.host_filter(vm).unwrap().is_candidate(gva));
        assert_eq!(hv.stats().host_filter_insertions, 1);
        assert_eq!(hv.host_shared_pages(vm).unwrap(), 1);
        // Re-sharing the same gPA at the same gVA is idempotent.
        hv.share_rw_with_host(vm, gpa, gva).unwrap();
        assert_eq!(hv.host_shared_pages(vm).unwrap(), 1);
        assert_eq!(hv.host_filter(vm).unwrap().insertions(), 1);
    }

    #[test]
    fn unshare_prunes_inverse_map_and_rlt_filter_exactly() {
        let mut hv = Hypervisor::new(2 * GIB);
        hv.set_filter_kind(hvc_filter::FilterKind::Rlt);
        let vm = hv
            .create_vm(GIB / 2, AllocPolicy::DemandPaging, false)
            .unwrap();
        let gva = VirtAddr::new(0x7fff_0000);
        let gpa = GuestPhysAddr::new(0x4000_0000);
        hv.share_rw_with_host(vm, gpa, gva).unwrap();
        hv.unshare_with_host(vm, gpa).unwrap();
        assert_eq!(hv.host_shared_pages(vm).unwrap(), 0);
        assert_eq!(hv.stats().host_filter_unshares, 1);
        assert!(
            !hv.host_filter(vm).unwrap().is_candidate(gva),
            "RLT host filter prunes exactly on unshare"
        );
        // Unsharing an unknown page is a no-op.
        hv.unshare_with_host(vm, GuestPhysAddr::new(0x5000_0000))
            .unwrap();
        assert_eq!(hv.stats().host_filter_unshares, 1);
    }

    #[test]
    fn unshare_churn_bounds_host_filter_false_positives() {
        // Regression: before the inverse map existed, hypervisor
        // unshare churn had no way to clear host-filter bits, so the
        // false-positive rate ratcheted up monotonically. Now stale
        // shares trigger a rebuild from the inverse map once the
        // staleness bound is crossed, restoring a bounded rate.
        let (mut hv, vm, _asid) = hv_with_vm();
        let live = VirtAddr::new(0x7000_0000_0000);
        hv.share_rw_with_host(vm, GuestPhysAddr::new(0x100_0000), live)
            .unwrap();
        // Churn well past the staleness bound: share then immediately
        // unshare ephemeral pages (virtio-ring style setup/teardown)
        // spread over the guest address space.
        let churn = 3 * Hypervisor::HOST_FILTER_STALE_LIMIT;
        let mut dead = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..churn {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let gpa = GuestPhysAddr::new(0x2000_0000 + (i << PAGE_SHIFT));
            let gva = VirtAddr::new((x >> 17) << PAGE_SHIFT & 0x7fff_ffff_ffff);
            hv.share_rw_with_host(vm, gpa, gva).unwrap();
            hv.unshare_with_host(vm, gpa).unwrap();
            dead.push(gva);
        }
        assert!(
            hv.guest_kernel(vm).unwrap().stats().host_filter_rebuilds >= 2,
            "churn past the bound must have rebuilt the host filter"
        );
        // The long-lived share must survive every rebuild.
        assert!(hv.host_filter(vm).unwrap().is_candidate(live));
        // The rebuilt filter holds one page, so the false-positive rate
        // over the churned (now dead) gVAs is that of a near-empty
        // filter — bounded, not ratcheted to ~100%.
        let dead_hits = dead
            .iter()
            .filter(|&&gva| hv.host_filter(vm).unwrap().is_candidate(gva))
            .count();
        // Residue is bounded by what accumulated since the last rebuild
        // (at most the staleness limit of exact stale pages, plus a few
        // Bloom collisions) — without the rebuild path every churned gVA
        // would still hit.
        assert!(
            (dead_hits as u64) < churn / 2,
            "host-filter false positives not bounded after churn: {dead_hits}/{churn}"
        );
        assert_eq!(
            hv.host_filter(vm).unwrap().insertions(),
            1,
            "exact accounting tracks only the live share"
        );
    }

    #[test]
    fn unknown_vm_errors() {
        let mut hv = Hypervisor::new(2 * GIB);
        let bogus = Vmid::new(9);
        assert!(hv.guest_kernel(bogus).is_err());
        assert!(hv.create_guest_process(bogus).is_err());
        assert!(hv.machine_addr(bogus, GuestPhysAddr::new(0)).is_err());
        assert!(hv.host_filter(bogus).is_err());
        assert!(hv
            .share_rw_with_host(bogus, GuestPhysAddr::new(0), VirtAddr::new(0))
            .is_err());
        assert!(hv.unshare_with_host(bogus, GuestPhysAddr::new(0)).is_err());
        assert!(hv.rebuild_host_filter(bogus).is_err());
        assert!(hv.host_shared_pages(bogus).is_err());
    }
}
