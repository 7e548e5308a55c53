//! The kernel facade: processes, memory mapping, sharing, faults.

use crate::addrspace::{AddressSpace, Vma, VmaBacking};
use crate::frame::BuddyAllocator;
use crate::pagetable::{PageTable, Pte, WalkPath};
use crate::segment::{SegmentId, SegmentTable, DEFAULT_SEGMENT_CAPACITY};
use crate::shm::{ShmId, ShmObject};
use hvc_filter::FilterKind;
use hvc_types::{
    AccessKind, Asid, FxHashMap, HvcError, Permissions, Result, VirtAddr, VirtPage, PAGE_SHIFT,
    PAGE_SIZE,
};

/// Physical memory allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Conventional demand paging: frames allocated at first touch.
    DemandPaging,
    /// Eager allocation of contiguous segments at `mmap` time (the
    /// RMM-style policy required for segment translation). `split`
    /// artificially breaks each allocation into that many separately
    /// placed segments — the external-fragmentation knob of the paper's
    /// Figure 7 study (`split = 1` means best-effort contiguity).
    EagerSegments {
        /// Number of pieces each allocation is broken into (≥ 1).
        split: u32,
    },
}

/// What an `mmap` call is backed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapIntent {
    /// Anonymous private memory (non-synonym).
    Private,
    /// A r/w mapping of a shared-memory object — creates synonym pages.
    Shared(ShmId),
    /// A read-only mapping of a shared object: content sharing, served
    /// virtually with r/o tag permissions rather than as a synonym.
    SharedRo(ShmId),
    /// A DMA buffer: pinned and physically addressed (synonym).
    Dma,
}

/// A flush the hardware must perform on cached (virtually-tagged) lines —
/// produced by unmap / remap / sharing transitions and drained by the
/// system simulator, which also charges the TLB shootdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushRequest {
    /// Flush one virtual page of one address space.
    Page(Asid, u64),
    /// Flush everything belonging to an address space (process exit).
    Space(Asid),
    /// Downgrade a page's cached permission bits to read-only.
    DowngradeRo(Asid, u64),
    /// Flush physically-named lines of one freed frame (base address).
    /// Synonym pages are cached by physical address, so releasing their
    /// frame for reuse must invalidate those lines too — the per-space
    /// requests above only reach virtually-tagged state.
    Frame(u64),
}

/// Kernel event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Demand-paging minor faults served.
    pub minor_faults: u64,
    /// TLB shootdowns issued (mapping/status changes, filter updates).
    pub shootdowns: u64,
    /// Copy-on-write breaks of content-shared pages.
    pub cow_breaks: u64,
    /// Pages whose cachelines were requested flushed.
    pub flushed_pages: u64,
    /// Synonym-filter page insertions.
    pub filter_insertions: u64,
    /// Synonym-filter rebuilds (clear + re-insert).
    pub filter_rebuilds: u64,
    /// Hypervisor host-filter rebuilds (virtualized runs only; the
    /// hypervisor reconstructs a VM's host filter from its inverse
    /// gPA→gVA map and books the event against the guest kernel so the
    /// counter is windowed with the rest).
    pub host_filter_rebuilds: u64,
    /// Shootdown IPIs delivered to responder cores (directed rounds).
    pub shootdown_ipis: u64,
    /// Shootdown rounds resolved by the zero-responder fast path (the
    /// mutated space was resident on no other core — no IPIs needed).
    pub shootdown_fast_paths: u64,
    /// Total modeled shootdown cycles (initiator IPI issue + ack waits
    /// plus every responder's interrupt + flush handler).
    pub shootdown_cycles: u64,
}

impl KernelStats {
    /// Counter deltas accumulated since `mark` was captured — the
    /// windowing primitive the system simulator uses so a report after a
    /// statistics reset counts only the measured window's OS events.
    #[must_use]
    pub fn since(&self, mark: &KernelStats) -> KernelStats {
        KernelStats {
            minor_faults: self.minor_faults - mark.minor_faults,
            shootdowns: self.shootdowns - mark.shootdowns,
            cow_breaks: self.cow_breaks - mark.cow_breaks,
            flushed_pages: self.flushed_pages - mark.flushed_pages,
            filter_insertions: self.filter_insertions - mark.filter_insertions,
            filter_rebuilds: self.filter_rebuilds - mark.filter_rebuilds,
            host_filter_rebuilds: self.host_filter_rebuilds - mark.host_filter_rebuilds,
            shootdown_ipis: self.shootdown_ipis - mark.shootdown_ipis,
            shootdown_fast_paths: self.shootdown_fast_paths - mark.shootdown_fast_paths,
            shootdown_cycles: self.shootdown_cycles - mark.shootdown_cycles,
        }
    }
}

/// The simulated operating system.
///
/// Owns physical memory, all address spaces (with their page tables and
/// synonym filters), shared-memory objects and the system-wide segment
/// table. The hardware side (TLBs, segment hardware, caches) lives in the
/// sibling crates and pulls state from here.
#[derive(Debug)]
pub struct Kernel {
    frames: BuddyAllocator,
    /// Separate pool for page-table nodes and kernel metadata, so that
    /// metadata allocations never fragment the user pool (and eager
    /// segments can grow in place).
    meta_frames: BuddyAllocator,
    spaces: FxHashMap<u16, AddressSpace>,
    next_asid: u16,
    shm: Vec<ShmObject>,
    segments: SegmentTable,
    policy: AllocPolicy,
    stats: KernelStats,
    flush_queue: Vec<FlushRequest>,
    /// Last eagerly-allocated segment per space, for in-place extension.
    last_segment: FxHashMap<u16, SegmentId>,
    /// Synonym-filter staleness per space: shared pages unmapped since
    /// the last rebuild. Crossing [`Kernel::FILTER_STALE_LIMIT`] triggers
    /// an automatic filter reconstruction (Section III-B).
    stale_filter_pages: FxHashMap<u16, u64>,
    /// Synonym-detection strategy newly created address spaces use.
    filter_kind: FilterKind,
}

impl Kernel {
    /// Bytes reserved at the bottom of physical memory for page tables
    /// and other kernel metadata.
    const META_BYTES: u64 = 64 << 20;

    /// Shared pages whose filter bits may be stale before the OS rebuilds
    /// the space's synonym filter automatically.
    pub const FILTER_STALE_LIMIT: u64 = 64;

    /// Boots a kernel managing `phys_bytes` of memory under `policy`.
    /// The bottom 64 MiB are reserved for kernel metadata (page tables);
    /// the rest is the user pool.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is not page aligned, not larger than the
    /// metadata reservation, or beyond the [`crate::MAX_PHYS_BYTES`] a
    /// page-table entry can name.
    pub fn new(phys_bytes: u64, policy: AllocPolicy) -> Self {
        assert!(
            phys_bytes > Self::META_BYTES,
            "need more than the metadata reservation"
        );
        assert!(
            phys_bytes <= crate::MAX_PHYS_BYTES,
            "physical memory beyond the page-table entry's frame range"
        );
        let user_base = hvc_types::PhysFrame::new(Self::META_BYTES >> PAGE_SHIFT);
        Kernel {
            frames: BuddyAllocator::with_base(user_base, phys_bytes - Self::META_BYTES),
            meta_frames: BuddyAllocator::new(Self::META_BYTES),
            spaces: FxHashMap::default(),
            next_asid: 1,
            shm: Vec::new(),
            segments: SegmentTable::new(DEFAULT_SEGMENT_CAPACITY),
            policy,
            stats: KernelStats::default(),
            flush_queue: Vec::new(),
            last_segment: FxHashMap::default(),
            stale_filter_pages: FxHashMap::default(),
            filter_kind: FilterKind::Bloom,
        }
    }

    /// Selects the synonym-detection strategy for address spaces created
    /// afterwards (`filter=bloom|rlt` in experiment configs). Call right
    /// after boot, before the first process exists; spaces already
    /// created keep their filter.
    pub fn set_filter_kind(&mut self, kind: FilterKind) {
        self.filter_kind = kind;
    }

    /// The synonym-detection strategy new address spaces get.
    pub fn filter_kind(&self) -> FilterKind {
        self.filter_kind
    }

    /// Creates a new process and returns its ASID. The synonym filter
    /// pair starts cleared, as the paper specifies for address-space
    /// creation.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] when ASIDs are exhausted,
    /// [`HvcError::OutOfMemory`] when the page-table root cannot be
    /// allocated.
    pub fn create_process(&mut self) -> Result<Asid> {
        let raw = self.next_asid;
        if raw == u16::MAX {
            return Err(HvcError::BadId("ASID space exhausted"));
        }
        self.next_asid += 1;
        let asid = Asid::new(raw);
        let pt = PageTable::new(&mut self.meta_frames)?;
        self.spaces
            .insert(raw, AddressSpace::new(asid, pt, self.filter_kind));
        Ok(asid)
    }

    /// Registers a process with a caller-chosen ASID (used by the
    /// virtualization layer, which composes VMID + guest ASID).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] if the ASID is taken.
    pub fn create_process_with_asid(&mut self, asid: Asid) -> Result<()> {
        if self.spaces.contains_key(&asid.as_u16()) {
            return Err(HvcError::BadId("ASID already in use"));
        }
        let pt = PageTable::new(&mut self.meta_frames)?;
        self.spaces
            .insert(asid.as_u16(), AddressSpace::new(asid, pt, self.filter_kind));
        Ok(())
    }

    /// Tears down a process: frees private frames, detaches shared
    /// objects, removes its segments, and requests a full flush of its
    /// virtually-tagged cachelines.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for an unknown ASID.
    pub fn destroy_process(&mut self, asid: Asid) -> Result<()> {
        let space = self
            .spaces
            .remove(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        // Free private frames; shared frames belong to their shm objects.
        for (vpage, pte) in space.page_table.iter() {
            let backing = space
                .vmas
                .values()
                .find(|v| v.contains(vpage.base()))
                .map(|v| v.backing);
            match backing {
                Some(VmaBacking::Shared(_)) | Some(VmaBacking::SharedRo(_)) => {}
                _ => {
                    if pte.shared {
                        self.flush_queue
                            .push(FlushRequest::Frame(pte.frame.base().as_u64()));
                    }
                    self.frames.free_exact(pte.frame, 1);
                }
            }
        }
        for vma in space.vmas.values() {
            if let VmaBacking::Shared(id) | VmaBacking::SharedRo(id) = vma.backing {
                if let Some(obj) = self.shm.get_mut(id.0 as usize) {
                    obj.attachments = obj.attachments.saturating_sub(1);
                    if matches!(vma.backing, VmaBacking::Shared(_)) {
                        obj.rw_attachments = obj.rw_attachments.saturating_sub(1);
                    }
                }
            }
            for &sid in &vma.segments {
                self.segments.remove(sid);
            }
        }
        self.last_segment.remove(&asid.as_u16());
        // The space's filter dies with it: drop its staleness count so a
        // reused ASID starts from zero instead of inheriting the dead
        // space's tally (which could trigger a premature rebuild).
        self.stale_filter_pages.remove(&asid.as_u16());
        self.flush_queue.push(FlushRequest::Space(asid));
        self.stats.shootdowns += 1;
        Ok(())
    }

    /// Creates a shared-memory object of `len` bytes (page aligned up).
    ///
    /// # Errors
    ///
    /// [`HvcError::OutOfMemory`] when frames run out.
    pub fn shm_create(&mut self, len: u64) -> Result<ShmId> {
        let pages = len.div_ceil(PAGE_SIZE);
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            frames.push(self.frames.alloc_frame()?);
        }
        let id = ShmId(self.shm.len() as u32);
        self.shm.push(ShmObject {
            frames,
            attachments: 0,
            rw_attachments: 0,
        });
        Ok(id)
    }

    /// Maps `len` bytes at `va` in `asid` with the given permissions and
    /// backing.
    ///
    /// Under [`AllocPolicy::EagerSegments`], private mappings allocate
    /// contiguous physical segments immediately and register them in the
    /// system-wide segment table; shared/DMA mappings always populate
    /// their page-table entries eagerly (their translation goes through
    /// the synonym TLB path).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for unknown ASIDs or shm objects,
    /// [`HvcError::RegionOverlap`] if the range collides,
    /// [`HvcError::BadConfig`] for unaligned arguments,
    /// [`HvcError::OutOfMemory`] / [`HvcError::SegmentTableFull`] from
    /// allocation.
    pub fn mmap(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        len: u64,
        perm: Permissions,
        intent: MapIntent,
    ) -> Result<()> {
        if !va.is_aligned(PAGE_SIZE) || len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(HvcError::BadConfig("mmap range must be page aligned"));
        }
        let space = self
            .spaces
            .get(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        if space.overlaps(va, len) {
            return Err(HvcError::RegionOverlap {
                asid,
                vaddr: va,
                len,
            });
        }

        let backing = match intent {
            MapIntent::Private => VmaBacking::Private,
            MapIntent::Shared(id) => VmaBacking::Shared(id),
            MapIntent::SharedRo(id) => VmaBacking::SharedRo(id),
            MapIntent::Dma => VmaBacking::Dma,
        };
        let mut vma = Vma {
            start: va,
            len,
            perm,
            backing,
            segments: Vec::new(),
        };

        match intent {
            MapIntent::Shared(id) | MapIntent::SharedRo(id) => {
                self.map_shared_object(asid, &vma, id, perm, intent)?;
            }
            MapIntent::Dma => {
                self.map_dma(asid, &vma, perm)?;
            }
            MapIntent::Private => match self.policy {
                AllocPolicy::EagerSegments { split } => {
                    self.map_eager_private(asid, &mut vma, perm, split.max(1))?;
                }
                AllocPolicy::DemandPaging => {
                    // Nothing until first touch.
                }
            },
        }

        let space = self.spaces.get_mut(&asid.as_u16()).expect("checked");
        space.vmas.insert(va.as_u64(), vma);
        Ok(())
    }

    /// Unmaps the VMA starting at `va`, freeing private frames and
    /// requesting flushes of its pages.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for an unknown ASID,
    /// [`HvcError::Unmapped`] if no VMA starts exactly at `va`.
    pub fn munmap(&mut self, asid: Asid, va: VirtAddr) -> Result<()> {
        let space = self
            .spaces
            .get_mut(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        let vma = space
            .vmas
            .remove(&va.as_u64())
            .ok_or(HvcError::Unmapped { asid, vaddr: va })?;
        let pages = vma.len >> PAGE_SHIFT;
        let first = va.page_number();
        let shared_obj = matches!(vma.backing, VmaBacking::Shared(_) | VmaBacking::SharedRo(_));
        let mut stale_unmapped = 0u64;
        for i in 0..pages {
            let vp = first.offset(i);
            if let Some(pte) = space.page_table.unmap(vp) {
                if pte.shared {
                    // Synonym page leaving the page tables: drop it from
                    // the filter (exact under the RLT, accounting-only
                    // under Bloom where the stale bits wait for a
                    // rebuild) and count it toward the rebuild threshold.
                    space.filter.remove_page(vp.base());
                    stale_unmapped += 1;
                }
                if !shared_obj {
                    if pte.shared {
                        self.flush_queue
                            .push(FlushRequest::Frame(pte.frame.base().as_u64()));
                    }
                    self.frames.free_exact(pte.frame, 1);
                }
                self.flush_queue.push(FlushRequest::Page(asid, vp.as_u64()));
                self.stats.flushed_pages += 1;
            }
        }
        if let VmaBacking::Shared(id) | VmaBacking::SharedRo(id) = vma.backing {
            if let Some(obj) = self.shm.get_mut(id.0 as usize) {
                obj.attachments = obj.attachments.saturating_sub(1);
                if matches!(vma.backing, VmaBacking::Shared(_)) {
                    obj.rw_attachments = obj.rw_attachments.saturating_sub(1);
                }
            }
        }
        // Eagerly-allocated segments: their frames were just freed via
        // the page-table entries (eager allocation maps every page), so
        // only the table entries remain to drop.
        for sid in vma.segments {
            self.segments.remove(sid);
        }
        // Unmapping synonym pages leaves stale state in the synonym
        // filter (Bloom bits cannot be removed individually; RLT
        // overflow regions cannot either); past a threshold the OS
        // rebuilds it from the page tables (the policy Section III-B
        // describes). The count is per *shared PTE actually unmapped* —
        // shm teardown, DMA regions and frame frees of privately-mapped
        // synonym pages all land here exactly once, and
        // [`Kernel::rebuild_filter`] is the single place the counter
        // resets, so back-to-back churn can neither double-rebuild nor
        // skip one.
        if stale_unmapped > 0 {
            let stale = self.stale_filter_pages.entry(asid.as_u16()).or_insert(0);
            *stale += stale_unmapped;
            if *stale > Self::FILTER_STALE_LIMIT {
                self.rebuild_filter(asid)?;
            }
        }
        self.stats.shootdowns += 1;
        Ok(())
    }

    /// Translates `va` for an access of `kind`, demand-allocating on
    /// first touch and breaking copy-on-write on writes to content-shared
    /// pages. This is the path the system simulator's page walker takes on
    /// a true page-table miss.
    ///
    /// # Errors
    ///
    /// [`HvcError::Unmapped`] outside any VMA,
    /// [`HvcError::PermissionFault`] for disallowed accesses,
    /// [`HvcError::OutOfMemory`] when demand allocation fails.
    pub fn touch(&mut self, asid: Asid, va: VirtAddr, kind: AccessKind) -> Result<Pte> {
        let required = kind.required_permissions();
        let space = self
            .spaces
            .get_mut(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        let vpage = va.page_number();

        if let Some(pte) = space.page_table.lookup(vpage) {
            if pte.perm.allows(required) {
                return Ok(pte);
            }
            // Write to a read-only content-shared page: COW break.
            if kind.is_write() {
                if let Some(vma) = space.vma(va) {
                    if matches!(vma.backing, VmaBacking::SharedRo(_)) {
                        return self.break_cow(asid, va);
                    }
                }
            }
            return Err(HvcError::PermissionFault {
                asid,
                vaddr: va,
                held: pte.perm,
                required,
            });
        }

        // Page-table miss: find the VMA and demand-allocate.
        let vma = space
            .vma(va)
            .ok_or(HvcError::Unmapped { asid, vaddr: va })?;
        if !vma.perm.allows(required) {
            let held = vma.perm;
            return Err(HvcError::PermissionFault {
                asid,
                vaddr: va,
                held,
                required,
            });
        }
        debug_assert!(
            matches!(vma.backing, VmaBacking::Private),
            "non-private VMAs are populated eagerly"
        );
        let perm = vma.perm;
        let frame = self.frames.alloc_frame()?;
        let pte = Pte {
            frame,
            perm,
            shared: false,
        };
        let space = self.spaces.get_mut(&asid.as_u16()).expect("checked");
        space.page_table.map(&mut self.meta_frames, vpage, pte)?;
        self.stats.minor_faults += 1;
        Ok(pte)
    }

    /// Read-path convenience wrapper over [`Kernel::touch`].
    ///
    /// # Errors
    ///
    /// See [`Kernel::touch`].
    pub fn translate_touch(&mut self, asid: Asid, va: VirtAddr) -> Result<Pte> {
        self.touch(asid, va, AccessKind::Read)
    }

    /// Transitions an already-mapped private page to shared (synonym)
    /// status: sets the PTE's shared bit, inserts the page into the
    /// synonym filter, and requests a flush of its cachelines — the
    /// paper's private→synonym transition.
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] / [`HvcError::Unmapped`] for unknown targets.
    pub fn mark_page_shared(&mut self, asid: Asid, va: VirtAddr) -> Result<()> {
        let space = self
            .spaces
            .get_mut(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        let vpage = va.page_number();
        let was_shared = space
            .page_table
            .update(vpage, |pte| std::mem::replace(&mut pte.shared, true))
            .ok_or(HvcError::Unmapped { asid, vaddr: va })?;
        if !was_shared {
            space.filter.insert_page(va);
            self.stats.filter_insertions += 1;
            self.flush_queue
                .push(FlushRequest::Page(asid, vpage.as_u64()));
            self.stats.flushed_pages += 1;
            self.stats.shootdowns += 1;
        }
        Ok(())
    }

    /// Downgrades a mapped page to read-only in place (content-based
    /// sharing begins): cached lines keep their virtual names but their
    /// permission bits are downgraded; no synonym-filter update is needed
    /// (the paper's Section III-D optimization).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] / [`HvcError::Unmapped`] for unknown targets.
    pub fn downgrade_page_read_only(&mut self, asid: Asid, va: VirtAddr) -> Result<()> {
        let space = self
            .spaces
            .get_mut(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        let vpage = va.page_number();
        space
            .page_table
            .update(vpage, |pte| pte.perm = pte.perm.downgraded_read_only())
            .ok_or(HvcError::Unmapped { asid, vaddr: va })?;
        self.flush_queue
            .push(FlushRequest::DowngradeRo(asid, vpage.as_u64()));
        self.stats.shootdowns += 1;
        Ok(())
    }

    /// Rebuilds the synonym filter of `asid` from its page tables (the
    /// OS's response to filter saturation from stale bits).
    ///
    /// # Errors
    ///
    /// [`HvcError::BadId`] for an unknown ASID.
    pub fn rebuild_filter(&mut self, asid: Asid) -> Result<()> {
        let space = self
            .spaces
            .get_mut(&asid.as_u16())
            .ok_or(HvcError::BadId("unknown ASID"))?;
        space.filter.clear();
        for (vp, _) in space.page_table.iter().filter(|(_, pte)| pte.shared) {
            space.filter.insert_page(vp.base());
            self.stats.filter_insertions += 1;
        }
        // The rebuild serviced every stale page, however it was
        // triggered (threshold crossing or a direct call) — reset the
        // staleness count so the next threshold crossing is measured
        // from this clean state and cannot fire a redundant rebuild.
        self.stale_filter_pages.insert(asid.as_u16(), 0);
        self.stats.filter_rebuilds += 1;
        self.stats.shootdowns += 1;
        Ok(())
    }

    /// Books one hypervisor host-filter rebuild against this (guest)
    /// kernel's counters, so virtualized runs report it through the
    /// same stat windows as every other OS event.
    pub fn account_host_filter_rebuild(&mut self) {
        self.stats.host_filter_rebuilds += 1;
        self.stats.shootdowns += 1;
    }

    // --- read-only views used by the hardware crates ---

    /// The address space of `asid`.
    pub fn space(&self, asid: Asid) -> Option<&AddressSpace> {
        self.spaces.get(&asid.as_u16())
    }

    /// All live address spaces, in unspecified order (callers that need
    /// determinism sort by ASID).
    pub fn spaces(&self) -> impl Iterator<Item = (Asid, &AddressSpace)> {
        self.spaces.iter().map(|(&a, s)| (Asid::new(a), s))
    }

    /// Synonym-filter staleness of `asid`: shared pages unmapped since
    /// the filter was last rebuilt.
    pub fn stale_filter_pages(&self, asid: Asid) -> u64 {
        self.stale_filter_pages
            .get(&asid.as_u16())
            .copied()
            .unwrap_or(0)
    }

    /// Page-table walk for the hardware walker: leaf PTE plus the four
    /// entry addresses touched. `None` means a true page fault.
    pub fn walk(&self, asid: Asid, vpage: VirtPage) -> Option<(Pte, WalkPath)> {
        self.spaces.get(&asid.as_u16())?.page_table.walk(vpage)
    }

    /// The system-wide segment table.
    pub fn segments(&self) -> &SegmentTable {
        &self.segments
    }

    /// Physical address of byte `offset` inside shared object `id`
    /// (used to resolve intermediate-space writebacks under the Enigma
    /// scheme, which names shared lines object-relatively).
    pub fn shm_phys_addr(&self, id: crate::ShmId, offset: u64) -> Option<hvc_types::PhysAddr> {
        let obj = self.shm.get(id.0 as usize)?;
        let frame = obj.frames.get((offset >> PAGE_SHIFT) as usize)?;
        Some(hvc_types::PhysAddr::new(
            frame.base().as_u64() + (offset & (PAGE_SIZE - 1)),
        ))
    }

    /// Enigma-style first-level translation (Section II of the paper):
    /// maps `(asid, va)` to a canonical *intermediate-space* line at VMA
    /// (coarse-segment) granularity. R/w-shared mappings of one object
    /// resolve to one object-relative intermediate line regardless of the
    /// attaching process or virtual address, so synonyms collapse without
    /// a filter; private mappings keep their per-ASID virtual name.
    ///
    /// Returns `(shared, canonical_line)` — `None` outside every VMA.
    pub fn intermediate_line(&self, asid: Asid, va: VirtAddr) -> Option<(bool, u64)> {
        let space = self.spaces.get(&asid.as_u16())?;
        let vma = space.vma(va)?;
        match vma.backing {
            VmaBacking::Shared(id) => {
                // Object-relative intermediate address in a reserved
                // region of the intermediate space.
                let offset = va - vma.start;
                let ia = (1u64 << 46) + ((id.0 as u64) << 34) + offset;
                Some((true, ia >> hvc_types::LINE_SHIFT))
            }
            _ => Some((false, va.line().as_u64())),
        }
    }

    /// Drains pending hardware flush requests (the system simulator
    /// applies them to the cache hierarchy and TLBs).
    pub fn drain_flush_requests(&mut self) -> Vec<FlushRequest> {
        std::mem::take(&mut self.flush_queue)
    }

    /// Number of flush requests queued but not yet drained. The
    /// simulators assert this is zero at access boundaries when runtime
    /// checking is enabled: a non-empty queue means a kernel operation's
    /// shootdowns could be observed late by the next access.
    pub fn pending_flush_requests(&self) -> usize {
        self.flush_queue.len()
    }

    /// Kernel event counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Accounts one directed shootdown round: `ipis` responder
    /// interrupts (0 = the zero-responder fast path) costing `cycles` of
    /// total modeled stall across initiator and responders. Called by
    /// the system simulator, which owns core residency and the
    /// [`ShootdownModel`](crate::ShootdownModel) — the kernel just keeps
    /// the books.
    pub fn account_shootdown(&mut self, ipis: u64, cycles: u64) {
        if ipis == 0 {
            self.stats.shootdown_fast_paths += 1;
        } else {
            self.stats.shootdown_ipis += ipis;
        }
        self.stats.shootdown_cycles += cycles;
    }

    /// Free physical frames remaining.
    pub fn free_frames(&self) -> u64 {
        self.frames.free_frames()
    }

    // --- internals ---

    fn map_shared_object(
        &mut self,
        asid: Asid,
        vma: &Vma,
        id: ShmId,
        perm: Permissions,
        intent: MapIntent,
    ) -> Result<()> {
        let read_only = matches!(intent, MapIntent::SharedRo(_));
        let obj = self
            .shm
            .get(id.0 as usize)
            .ok_or(HvcError::BadId("unknown shm object"))?;
        let pages = vma.len >> PAGE_SHIFT;
        if pages > obj.frames.len() as u64 {
            return Err(HvcError::BadConfig("mapping longer than shm object"));
        }
        // The r/o content-sharing optimization (virtual naming, no
        // filter entry) only holds while nothing can write the frames.
        // With a live writer, an r/o view is a true synonym: its lines
        // must be named physically or the same machine line would carry
        // both a virtual and a physical name.
        let synonym = !read_only || obj.rw_attachments > 0;
        // First writer joining after an all-r/o period: existing r/o
        // views elsewhere lose the optimization too.
        if !read_only && obj.rw_attachments == 0 {
            self.upgrade_ro_attachments(id);
        }
        let obj = &self.shm[id.0 as usize];
        let frames: Vec<_> = obj.frames[..pages as usize].to_vec();
        let first = vma.start.page_number();
        let effective_perm = if read_only {
            perm.downgraded_read_only()
        } else {
            perm
        };
        for (i, frame) in frames.into_iter().enumerate() {
            let vp = first.offset(i as u64);
            let pte = Pte {
                frame,
                perm: effective_perm,
                shared: synonym,
            };
            let space = self
                .spaces
                .get_mut(&asid.as_u16())
                .expect("checked by caller");
            space.page_table.map(&mut self.meta_frames, vp, pte)?;
            if synonym {
                space.filter.insert_page(vp.base());
                self.stats.filter_insertions += 1;
            }
        }
        if synonym {
            // One shootdown per mapping operation propagates the filter
            // update to other cores running this ASID.
            self.stats.shootdowns += 1;
        }
        let obj = &mut self.shm[id.0 as usize];
        obj.attachments += 1;
        if !read_only {
            obj.rw_attachments += 1;
        }
        Ok(())
    }

    /// A writable attachment is joining shm object `id` after a period
    /// with none: every read-only content mapping of the object loses
    /// the r/o optimization, because a writer can now change the bytes
    /// under it. Each still-object-backed page flips to synonym status
    /// (shared PTE, filter entry) and its virtually-named cachelines
    /// are flushed so the data re-enters the cache under its physical
    /// name. Pages whose COW already broke keep their private frames
    /// and stay virtual.
    fn upgrade_ro_attachments(&mut self, id: ShmId) {
        let frames = self.shm[id.0 as usize].frames.clone();
        let asids: Vec<u16> = self.spaces.keys().copied().collect();
        let mut upgraded = 0u64;
        for a in asids {
            let space = self.spaces.get_mut(&a).expect("key just listed");
            let ranges: Vec<(VirtAddr, u64)> = space
                .vmas
                .values()
                .filter(|v| matches!(v.backing, VmaBacking::SharedRo(i) if i == id))
                .map(|v| (v.start, v.len >> PAGE_SHIFT))
                .collect();
            for (start, pages) in ranges {
                let first = start.page_number();
                for i in 0..pages {
                    let vp = first.offset(i);
                    let object_backed = frames.get(i as usize);
                    let flipped = space.page_table.update(vp, |pte| {
                        let flip = !pte.shared && object_backed == Some(&pte.frame);
                        pte.shared |= flip;
                        flip
                    });
                    if flipped != Some(true) {
                        continue;
                    }
                    space.filter.insert_page(vp.base());
                    self.stats.filter_insertions += 1;
                    self.flush_queue
                        .push(FlushRequest::Page(Asid::new(a), vp.as_u64()));
                    self.stats.flushed_pages += 1;
                    upgraded += 1;
                }
            }
        }
        if upgraded > 0 {
            self.stats.shootdowns += 1;
        }
    }

    fn map_dma(&mut self, asid: Asid, vma: &Vma, perm: Permissions) -> Result<()> {
        let pages = vma.len >> PAGE_SHIFT;
        let base = self.frames.alloc_exact(pages)?;
        let first = vma.start.page_number();
        for i in 0..pages {
            let pte = Pte {
                frame: base.offset(i),
                perm,
                shared: true,
            };
            let space = self
                .spaces
                .get_mut(&asid.as_u16())
                .expect("checked by caller");
            space
                .page_table
                .map(&mut self.meta_frames, first.offset(i), pte)?;
            space.filter.insert_page(first.offset(i).base());
            self.stats.filter_insertions += 1;
        }
        self.stats.shootdowns += 1;
        Ok(())
    }

    fn map_eager_private(
        &mut self,
        asid: Asid,
        vma: &mut Vma,
        perm: Permissions,
        split: u32,
    ) -> Result<()> {
        let total_pages = vma.len >> PAGE_SHIFT;
        let piece_pages = total_pages.div_ceil(u64::from(split));
        let mut mapped = 0u64;
        while mapped < total_pages {
            let pages = piece_pages.min(total_pages - mapped);
            let piece_va = vma.start + (mapped << PAGE_SHIFT);
            let seg_id = self.alloc_segment(asid, piece_va, pages, split == 1)?;
            let seg = *self.segments.get(seg_id).expect("just inserted");
            // Fill page-table entries for the piece (eager population).
            let first_vp = piece_va.page_number();
            let first_frame = seg.translate(piece_va).frame_number();
            for i in 0..pages {
                let pte = Pte {
                    frame: first_frame.offset(i),
                    perm,
                    shared: false,
                };
                let space = self
                    .spaces
                    .get_mut(&asid.as_u16())
                    .expect("checked by caller");
                space
                    .page_table
                    .map(&mut self.meta_frames, first_vp.offset(i), pte)?;
            }
            if !vma.segments.contains(&seg_id) {
                vma.segments.push(seg_id);
            }
            mapped += pages;
        }
        Ok(())
    }

    /// Allocates (or extends) a segment covering `pages` pages at `va`.
    fn alloc_segment(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        pages: u64,
        allow_extend: bool,
    ) -> Result<SegmentId> {
        // Try to grow the previous segment in place: virtual contiguity
        // plus free physical frames right after it.
        if allow_extend {
            if let Some(&last) = self.last_segment.get(&asid.as_u16()) {
                if let Some(seg) = self.segments.get(last).copied() {
                    let phys_next = seg
                        .translate(seg.base + (seg.len - 1))
                        .frame_number()
                        .offset(1);
                    if seg.end() == va && self.frames.is_run_free(phys_next, pages) {
                        self.frames.claim_run(phys_next, pages)?;
                        self.segments.grow(last, seg.len + (pages << PAGE_SHIFT))?;
                        return Ok(last);
                    }
                }
            }
        }
        let base_frame = self.frames.alloc_exact(pages)?;
        let id = self
            .segments
            .insert(asid, va, pages << PAGE_SHIFT, base_frame.base())?;
        self.last_segment.insert(asid.as_u16(), id);
        Ok(id)
    }

    fn break_cow(&mut self, asid: Asid, va: VirtAddr) -> Result<Pte> {
        let frame = self.frames.alloc_frame()?;
        let space = self
            .spaces
            .get_mut(&asid.as_u16())
            .expect("checked by caller");
        let vpage = va.page_number();
        let old = space
            .page_table
            .lookup(vpage)
            .ok_or(HvcError::Unmapped { asid, vaddr: va })?;
        // An r/o view upgraded to synonym status (a writer attached the
        // object) was in the filter; the private copy is not — drop it
        // and count the stale entry toward the rebuild threshold.
        let was_synonym = old.shared;
        if was_synonym {
            space.filter.remove_page(vpage.base());
        }
        let pte = Pte {
            frame,
            perm: old.perm | Permissions::RW,
            shared: false,
        };
        space.page_table.map(&mut self.meta_frames, vpage, pte)?;
        // The stale r/o lines (old name, old perm) must be flushed.
        self.flush_queue
            .push(FlushRequest::Page(asid, vpage.as_u64()));
        self.stats.flushed_pages += 1;
        self.stats.cow_breaks += 1;
        self.stats.shootdowns += 1;
        if was_synonym {
            let stale = self.stale_filter_pages.entry(asid.as_u16()).or_insert(0);
            *stale += 1;
            if *stale > Self::FILTER_STALE_LIMIT {
                self.rebuild_filter(asid)?;
            }
        }
        Ok(pte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn demand_kernel() -> Kernel {
        Kernel::new(GIB, AllocPolicy::DemandPaging)
    }

    fn eager_kernel() -> Kernel {
        Kernel::new(GIB, AllocPolicy::EagerSegments { split: 1 })
    }

    #[test]
    fn demand_paging_allocates_on_touch() {
        let mut k = demand_kernel();
        let asid = k.create_process().unwrap();
        k.mmap(
            asid,
            VirtAddr::new(0x10000),
            0x4000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        assert_eq!(k.space(asid).unwrap().mapped_pages(), 0);
        let pte = k.translate_touch(asid, VirtAddr::new(0x10040)).unwrap();
        assert!(!pte.shared);
        assert_eq!(k.space(asid).unwrap().mapped_pages(), 1);
        assert_eq!(k.stats().minor_faults, 1);
        // Second touch of the same page: no new fault.
        k.translate_touch(asid, VirtAddr::new(0x10080)).unwrap();
        assert_eq!(k.stats().minor_faults, 1);
    }

    #[test]
    fn untouched_unmapped_address_faults() {
        let mut k = demand_kernel();
        let asid = k.create_process().unwrap();
        assert!(matches!(
            k.translate_touch(asid, VirtAddr::new(0xdead_0000)),
            Err(HvcError::Unmapped { .. })
        ));
    }

    #[test]
    fn eager_policy_populates_and_registers_segment() {
        let mut k = eager_kernel();
        let asid = k.create_process().unwrap();
        k.mmap(
            asid,
            VirtAddr::new(0x100000),
            0x10000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        let space = k.space(asid).unwrap();
        assert_eq!(space.mapped_pages(), 16, "pages populated eagerly");
        assert_eq!(k.segments().count_asid(asid), 1);
        let seg = k.segments().find(asid, VirtAddr::new(0x104000)).unwrap();
        assert_eq!(seg.len, 0x10000);
        // Segment translation matches the page table.
        let pte = k
            .walk(asid, VirtAddr::new(0x104000).page_number())
            .unwrap()
            .0;
        assert_eq!(
            seg.translate(VirtAddr::new(0x104000)).frame_number(),
            pte.frame
        );
    }

    #[test]
    fn contiguous_growth_extends_segment_in_place() {
        let mut k = eager_kernel();
        let asid = k.create_process().unwrap();
        k.mmap(
            asid,
            VirtAddr::new(0x100000),
            0x4000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        // Next mmap is VA-contiguous; the frames after the segment are
        // still free, so it should extend rather than add a segment.
        k.mmap(
            asid,
            VirtAddr::new(0x104000),
            0x4000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        assert_eq!(k.segments().count_asid(asid), 1);
        let seg = k.segments().iter_asid(asid).next().unwrap();
        assert_eq!(seg.len, 0x8000);
    }

    #[test]
    fn split_policy_breaks_allocation_into_pieces() {
        let mut k = Kernel::new(GIB, AllocPolicy::EagerSegments { split: 4 });
        let asid = k.create_process().unwrap();
        k.mmap(
            asid,
            VirtAddr::new(0x100000),
            0x10000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        assert_eq!(k.segments().count_asid(asid), 4);
    }

    #[test]
    fn shm_mapping_creates_synonyms_in_both_spaces() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        let b = k.create_process().unwrap();
        let shm = k.shm_create(0x2000).unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x7000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        k.mmap(
            b,
            VirtAddr::new(0x9000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        let pa = k.translate_touch(a, VirtAddr::new(0x7000_0000)).unwrap();
        let pb = k.translate_touch(b, VirtAddr::new(0x9000_0000)).unwrap();
        assert_eq!(pa.frame, pb.frame, "same physical frame — a synonym");
        assert!(pa.shared && pb.shared);
        // Both filters report the candidate at their own VA.
        assert!(k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x7000_0000)));
        assert!(k
            .space(b)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x9000_0000)));
        // And not at unrelated addresses (modulo false positives, which
        // these values do not trigger).
        assert!(!k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x1234_0000)));
    }

    #[test]
    fn shared_ro_is_not_a_synonym_and_cow_breaks_on_write() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        let shm = k.shm_create(0x1000).unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x5000_0000),
            0x1000,
            Permissions::RW,
            MapIntent::SharedRo(shm),
        )
        .unwrap();
        let pte = k.translate_touch(a, VirtAddr::new(0x5000_0000)).unwrap();
        assert!(!pte.shared, "r/o content sharing is served virtually");
        assert!(!pte.perm.is_writable());
        let before = pte.frame;
        // Write: COW break to a fresh private frame.
        let pte2 = k
            .touch(a, VirtAddr::new(0x5000_0000), AccessKind::Write)
            .unwrap();
        assert_ne!(pte2.frame, before);
        assert!(pte2.perm.is_writable());
        assert_eq!(k.stats().cow_breaks, 1);
        let reqs = k.drain_flush_requests();
        assert!(reqs.contains(&FlushRequest::Page(a, 0x50000)));
    }

    #[test]
    fn ro_view_of_a_writable_object_is_a_synonym() {
        // A reader attaching r/o while a writer already maps the object
        // r/w cannot use the content-sharing optimization: its pages
        // alias mutable memory and must be named physically.
        let mut k = demand_kernel();
        let w = k.create_process().unwrap();
        let r = k.create_process().unwrap();
        let shm = k.shm_create(0x2000).unwrap();
        k.mmap(
            w,
            VirtAddr::new(0x5000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        k.mmap(
            r,
            VirtAddr::new(0x6000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::SharedRo(shm),
        )
        .unwrap();
        let pte = k.translate_touch(r, VirtAddr::new(0x6000_0000)).unwrap();
        assert!(pte.shared, "r/o view of a writable object is a synonym");
        assert!(!pte.perm.is_writable());
        assert!(k
            .space(r)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x6000_0000)));
    }

    #[test]
    fn first_writer_upgrades_existing_ro_views() {
        // Readers attach first (no writer: virtual naming is sound),
        // then a writer joins — every r/o view must flip to synonym
        // status, enter its space's filter, and flush its virtually
        // named lines.
        let mut k = demand_kernel();
        let r = k.create_process().unwrap();
        let w = k.create_process().unwrap();
        let shm = k.shm_create(0x2000).unwrap();
        k.mmap(
            r,
            VirtAddr::new(0x6000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::SharedRo(shm),
        )
        .unwrap();
        let pte = k.translate_touch(r, VirtAddr::new(0x6000_0000)).unwrap();
        assert!(!pte.shared, "no writer yet: content sharing is virtual");
        k.drain_flush_requests();

        k.mmap(
            w,
            VirtAddr::new(0x5000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        let pte = k.translate_touch(r, VirtAddr::new(0x6000_0000)).unwrap();
        assert!(pte.shared, "writer attached: the r/o view is a synonym now");
        assert!(k
            .space(r)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x6000_0000)));
        let reqs = k.drain_flush_requests();
        assert!(
            reqs.contains(&FlushRequest::Page(r, 0x60000)),
            "upgrade must flush the virtually named lines: {reqs:?}"
        );

        // A COW break on the upgraded view moves the page to a private
        // frame and back out of the filter.
        let before = k.space(r).unwrap().filter.insertions();
        let pte2 = k
            .touch(r, VirtAddr::new(0x6000_0000), AccessKind::Write)
            .unwrap();
        assert!(!pte2.shared);
        assert!(pte2.perm.is_writable());
        assert_eq!(k.space(r).unwrap().filter.insertions(), before - 1);
        assert_eq!(k.stale_filter_pages(r), 1);
    }

    #[test]
    fn dma_pages_are_synonyms() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x8000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Dma,
        )
        .unwrap();
        let pte = k.translate_touch(a, VirtAddr::new(0x8000_0000)).unwrap();
        assert!(pte.shared);
        assert!(k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x8000_0000)));
    }

    #[test]
    fn mark_page_shared_transition() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x1000_0000),
            0x1000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        k.translate_touch(a, VirtAddr::new(0x1000_0000)).unwrap();
        k.drain_flush_requests();
        k.mark_page_shared(a, VirtAddr::new(0x1000_0000)).unwrap();
        let pte = k
            .walk(a, VirtAddr::new(0x1000_0000).page_number())
            .unwrap()
            .0;
        assert!(pte.shared);
        assert!(k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x1000_0000)));
        let reqs = k.drain_flush_requests();
        assert_eq!(reqs, vec![FlushRequest::Page(a, 0x10000)]);
        // Idempotent: re-marking does not flush again.
        k.mark_page_shared(a, VirtAddr::new(0x1000_0000)).unwrap();
        assert!(k.drain_flush_requests().is_empty());
    }

    #[test]
    fn permission_fault_on_disallowed_access() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x2000_0000),
            0x1000,
            Permissions::READ,
            MapIntent::Private,
        )
        .unwrap();
        assert!(matches!(
            k.touch(a, VirtAddr::new(0x2000_0000), AccessKind::Write),
            Err(HvcError::PermissionFault { .. })
        ));
    }

    #[test]
    fn munmap_frees_and_flushes() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x3000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        k.translate_touch(a, VirtAddr::new(0x3000_0000)).unwrap();
        k.translate_touch(a, VirtAddr::new(0x3000_1000)).unwrap();
        let free_before = k.free_frames();
        k.munmap(a, VirtAddr::new(0x3000_0000)).unwrap();
        assert_eq!(k.free_frames(), free_before + 2);
        assert!(k
            .drain_flush_requests()
            .iter()
            .all(|r| matches!(r, FlushRequest::Page(_, _))));
        assert!(matches!(
            k.translate_touch(a, VirtAddr::new(0x3000_0000)),
            Err(HvcError::Unmapped { .. })
        ));
    }

    #[test]
    fn freeing_a_synonym_frame_requests_a_phys_flush() {
        // A page that went through mark_page_shared is cached by
        // physical address; releasing its frame back to the allocator
        // must also flush those physically-named lines, both on munmap
        // and on process destruction.
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x3000_0000),
            0x2000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        let pte = k.translate_touch(a, VirtAddr::new(0x3000_0000)).unwrap();
        k.mark_page_shared(a, VirtAddr::new(0x3000_0000)).unwrap();
        k.drain_flush_requests();
        k.munmap(a, VirtAddr::new(0x3000_0000)).unwrap();
        let reqs = k.drain_flush_requests();
        assert!(
            reqs.contains(&FlushRequest::Frame(pte.frame.base().as_u64())),
            "munmap of a synonym page must flush its frame: {reqs:?}"
        );

        let b = k.create_process().unwrap();
        k.mmap(
            b,
            VirtAddr::new(0x4000_0000),
            0x1000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        let pte = k.translate_touch(b, VirtAddr::new(0x4000_0000)).unwrap();
        k.mark_page_shared(b, VirtAddr::new(0x4000_0000)).unwrap();
        k.drain_flush_requests();
        k.destroy_process(b).unwrap();
        let reqs = k.drain_flush_requests();
        assert!(
            reqs.contains(&FlushRequest::Frame(pte.frame.base().as_u64())),
            "destroy of a space with synonym pages must flush their frames: {reqs:?}"
        );
    }

    #[test]
    fn destroy_process_releases_resources() {
        let mut k = eager_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x100000),
            0x10000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        assert_eq!(k.segments().len(), 1);
        k.destroy_process(a).unwrap();
        assert_eq!(k.segments().len(), 0);
        assert!(k.space(a).is_none());
        assert!(k.drain_flush_requests().contains(&FlushRequest::Space(a)));
    }

    #[test]
    fn rebuild_filter_drops_stale_bits() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        let shm = k.shm_create(0x1000).unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x7000_0000),
            0x1000,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        // Unmap the shared region: the filter still has its (stale) bits.
        k.munmap(a, VirtAddr::new(0x7000_0000)).unwrap();
        assert!(k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x7000_0000)));
        k.rebuild_filter(a).unwrap();
        assert!(!k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x7000_0000)));
        assert_eq!(k.stats().filter_rebuilds, 1);
    }

    #[test]
    fn overlapping_mmap_rejected() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x1000),
            0x2000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        assert!(matches!(
            k.mmap(
                a,
                VirtAddr::new(0x2000),
                0x1000,
                Permissions::RW,
                MapIntent::Private
            ),
            Err(HvcError::RegionOverlap { .. })
        ));
        assert!(matches!(
            k.mmap(
                a,
                VirtAddr::new(0x1800),
                0x1000,
                Permissions::RW,
                MapIntent::Private
            ),
            Err(HvcError::BadConfig(_))
        ));
    }

    #[test]
    fn filter_rebuilds_automatically_after_stale_unmaps() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        // Map and unmap shared regions repeatedly: each unmap leaves
        // stale filter bits; past the threshold the OS rebuilds.
        for i in 0..3u64 {
            let shm = k.shm_create(0x40_000).unwrap();
            let va = VirtAddr::new(0x7000_0000 + i * 0x100_0000);
            k.mmap(a, va, 0x40_000, Permissions::RW, MapIntent::Shared(shm))
                .unwrap();
            k.munmap(a, va).unwrap();
        }
        // 3 × 64 pages unmapped > 64-page threshold → at least one rebuild.
        assert!(k.stats().filter_rebuilds >= 1);
        // After the final rebuild(s), fully-unmapped addresses are clean
        // once the last rebuild has happened.
        k.rebuild_filter(a).unwrap();
        assert!(!k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x7000_0000)));
    }

    #[test]
    fn automatic_rebuild_never_drops_live_synonym_pages() {
        // A saturation-triggered rebuild reconstructs the filter from the
        // page tables, so it must keep every still-mapped synonym page a
        // candidate — a false negative here would let a synonym access
        // bypass translation and read a stale virtually-named line.
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        let live = k.shm_create(0x10_000).unwrap();
        let live_va = VirtAddr::new(0x6000_0000);
        k.mmap(
            a,
            live_va,
            0x10_000,
            Permissions::RW,
            MapIntent::Shared(live),
        )
        .unwrap();
        // Populate the page table: the rebuild only sees present entries.
        for p in 0..16u64 {
            k.translate_touch(a, VirtAddr::new(0x6000_0000 + p * 0x1000))
                .unwrap();
        }
        // Churn unrelated shared regions past FILTER_STALE_LIMIT pages
        // of stale unmaps to force at least one automatic rebuild.
        for i in 0..3u64 {
            let shm = k.shm_create(0x40_000).unwrap();
            let va = VirtAddr::new(0x7000_0000 + i * 0x100_0000);
            k.mmap(a, va, 0x40_000, Permissions::RW, MapIntent::Shared(shm))
                .unwrap();
            k.munmap(a, va).unwrap();
        }
        assert!(k.stats().filter_rebuilds >= 1);
        let filter = &k.space(a).unwrap().filter;
        for p in 0..16u64 {
            let va = VirtAddr::new(0x6000_0000 + p * 0x1000 + 0x123);
            assert!(filter.is_candidate(va), "false negative at page {p}");
        }
    }

    /// Maps a shared object of `pages` pages at `va` and immediately
    /// unmaps it, leaving `pages` stale filter pages behind.
    fn churn_shared(k: &mut Kernel, asid: Asid, va: u64, pages: u64) {
        let shm = k.shm_create(pages * PAGE_SIZE).unwrap();
        let va = VirtAddr::new(va);
        k.mmap(
            asid,
            va,
            pages * PAGE_SIZE,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        k.munmap(asid, va).unwrap();
    }

    #[test]
    fn direct_rebuild_resets_staleness_accounting() {
        // A rebuild triggered *directly* (not by the threshold) must
        // still reset the stale-page count; otherwise the next few
        // unmaps cross the limit early and fire a redundant rebuild.
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        churn_shared(&mut k, a, 0x7000_0000, 40);
        assert_eq!(k.stale_filter_pages(a), 40);
        k.rebuild_filter(a).unwrap();
        assert_eq!(k.stale_filter_pages(a), 0, "direct rebuild resets");
        assert_eq!(k.stats().filter_rebuilds, 1);
        // 40 more stale pages: under the 64-page limit measured from the
        // rebuild, so no automatic rebuild may fire.
        churn_shared(&mut k, a, 0x7100_0000, 40);
        assert_eq!(k.stats().filter_rebuilds, 1, "no double rebuild");
        assert_eq!(k.stale_filter_pages(a), 40);
        // Crossing the limit from the clean state fires exactly one.
        churn_shared(&mut k, a, 0x7200_0000, 30);
        assert_eq!(k.stats().filter_rebuilds, 2);
        assert_eq!(k.stale_filter_pages(a), 0);
    }

    #[test]
    fn destroy_process_drops_staleness_for_reused_asids() {
        // A dead space's stale tally must not leak to a later process
        // that reuses the ASID (the virtualization layer composes fixed
        // VMID + guest-ASID values, so reuse is routine there).
        let mut k = demand_kernel();
        let asid = Asid::new(321);
        k.create_process_with_asid(asid).unwrap();
        churn_shared(&mut k, asid, 0x7000_0000, 50);
        assert_eq!(k.stale_filter_pages(asid), 50);
        k.destroy_process(asid).unwrap();
        k.drain_flush_requests();
        k.create_process_with_asid(asid).unwrap();
        assert_eq!(k.stale_filter_pages(asid), 0, "fresh space, fresh tally");
        // 30 stale pages in the new space: below the limit, no rebuild.
        churn_shared(&mut k, asid, 0x7100_0000, 30);
        assert_eq!(k.stats().filter_rebuilds, 0, "no premature rebuild");
    }

    #[test]
    fn frame_freed_synonym_pages_count_toward_staleness() {
        // Pages that became synonyms via mark_page_shared live in
        // *private* VMAs; unmapping them frees their frames with a
        // FlushRequest::Frame and must count toward the rebuild
        // threshold exactly like shm teardown does.
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x1000_0000),
            4 * PAGE_SIZE,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        for p in 0..4u64 {
            let va = VirtAddr::new(0x1000_0000 + p * PAGE_SIZE);
            k.translate_touch(a, va).unwrap();
            // Only half the pages become synonyms.
            if p < 2 {
                k.mark_page_shared(a, va).unwrap();
            }
        }
        k.munmap(a, VirtAddr::new(0x1000_0000)).unwrap();
        assert_eq!(
            k.stale_filter_pages(a),
            2,
            "exactly the shared PTEs count, not the VMA size"
        );
    }

    #[test]
    fn rlt_kernel_prunes_filter_exactly_on_unmap() {
        // Under the RLT strategy the kernel's unmap-time remove_page
        // call drops the region immediately — no rebuild needed for the
        // filter to stop reporting the dead range.
        let mut k = demand_kernel();
        k.set_filter_kind(FilterKind::Rlt);
        let a = k.create_process().unwrap();
        assert_eq!(k.filter_kind(), FilterKind::Rlt);
        let shm = k.shm_create(0x8000).unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x7000_0000),
            0x8000,
            Permissions::RW,
            MapIntent::Shared(shm),
        )
        .unwrap();
        assert!(k
            .space(a)
            .unwrap()
            .filter
            .is_candidate(VirtAddr::new(0x7000_0000)));
        k.munmap(a, VirtAddr::new(0x7000_0000)).unwrap();
        assert!(
            !k.space(a)
                .unwrap()
                .filter
                .is_candidate(VirtAddr::new(0x7000_0000)),
            "RLT removal is exact; no stale candidate"
        );
    }

    #[test]
    fn walk_returns_path_for_hardware_walker() {
        let mut k = demand_kernel();
        let a = k.create_process().unwrap();
        k.mmap(
            a,
            VirtAddr::new(0x1000),
            0x1000,
            Permissions::RW,
            MapIntent::Private,
        )
        .unwrap();
        k.translate_touch(a, VirtAddr::new(0x1000)).unwrap();
        let (pte, path) = k.walk(a, VirtAddr::new(0x1000).page_number()).unwrap();
        assert!(pte.perm.allows(Permissions::READ));
        assert_eq!(path.len(), crate::PT_LEVELS);
    }
}
