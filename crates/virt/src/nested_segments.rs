//! Delayed two-dimensional segment translation (Section V-B).
//!
//! Guest segments map `gVA → gPA` (maintained by the guest OS); host
//! segments map `gPA → MA` (maintained by the hypervisor, which backs
//! each VM with large contiguous machine regions). After an LLC miss the
//! two lookups happen serially, with a 128-entry segment cache storing
//! direct `gVA → MA` translations for 2 MB regions to skip both steps.

use crate::Hypervisor;
use hvc_os::SegmentId;
use hvc_segment::{HwSegmentTable, IndexCache, IndexTree, SegmentCache, SegmentCost};
use hvc_types::{Asid, Cycles, GuestPhysAddr, PhysAddr, VirtAddr, Vmid};

/// Counters for 2D segment translation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NestedSegmentStats {
    /// Translations served directly by the gVA→MA segment cache.
    pub sc_hits: u64,
    /// Full two-step translations.
    pub two_step: u64,
    /// Addresses not covered by guest or host segments.
    pub uncovered: u64,
}

/// Two-dimensional many-segment translation with a gVA→MA segment cache.
#[derive(Debug)]
pub struct NestedSegments {
    /// Guest-side structures (gVA → gPA).
    guest_tree: IndexTree,
    guest_table: HwSegmentTable,
    guest_cache: IndexCache,
    /// Host-side structures (gPA → MA).
    host_tree: IndexTree,
    host_table: HwSegmentTable,
    host_cache: IndexCache,
    /// Direct gVA→MA cache (2 MB granularity).
    sc: SegmentCache,
    stats: NestedSegmentStats,
}

impl NestedSegments {
    /// Builds the 2D translator from the guest kernel of `vmid` and the
    /// hypervisor's host segment table.
    ///
    /// # Errors
    ///
    /// [`hvc_types::HvcError::BadId`] for an unknown VM.
    pub fn build(hv: &Hypervisor, vmid: Vmid) -> hvc_types::Result<Self> {
        let guest_segments = hv.guest_kernel(vmid)?.segments();
        let host_segments = hv.host_segments();
        Ok(NestedSegments {
            guest_tree: IndexTree::build(guest_segments, PhysAddr::new(1 << 41)),
            guest_table: HwSegmentTable::mirror(guest_segments, Cycles::new(7)),
            guest_cache: IndexCache::isca2016(),
            host_tree: IndexTree::build(host_segments, PhysAddr::new(1 << 42)),
            host_table: HwSegmentTable::mirror(host_segments, Cycles::new(7)),
            host_cache: IndexCache::isca2016(),
            sc: SegmentCache::isca2016(),
            stats: NestedSegmentStats::default(),
        })
    }

    /// Translates `(asid, gva)` to a machine address after an LLC miss.
    /// `host_key` is the VM's host-segment ASID
    /// ([`Hypervisor::host_segment_key`]); `fetch` charges index-tree
    /// node reads that miss the index caches.
    ///
    /// The cost itemizes the segment-cache probe, both dimensions'
    /// index-cache probes (including node fetches) and both segment-table
    /// reads. Returns `None` (with `uncovered` counted) if either
    /// dimension has no covering segment.
    pub fn translate(
        &mut self,
        asid: Asid,
        host_key: Asid,
        gva: VirtAddr,
        mut fetch: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(PhysAddr, SegmentCost)> {
        let mut cost = SegmentCost {
            segment_cache: self.sc.latency(),
            ..SegmentCost::default()
        };
        if let Some(ma) = self.sc.translate(asid, gva) {
            self.stats.sc_hits += 1;
            return Some((ma, cost));
        }

        // Step 1: guest segments, gVA → gPA.
        let (gpa, guest_seg) = {
            let mut touched = Vec::new();
            let id = self.guest_tree.lookup(asid, gva, &mut touched)?;
            for &n in &touched {
                cost.index_cache += self.guest_cache.latency();
                if !self.guest_cache.access(n) {
                    cost.index_cache += fetch(n);
                }
            }
            cost.segment_table += self.guest_table.latency();
            let Some(gpa) = self.guest_table.translate(id, asid, gva) else {
                self.stats.uncovered += 1;
                return None;
            };
            (GuestPhysAddr::new(gpa.as_u64()), id)
        };

        // Step 2: host segments, gPA → MA (gPA plays the VA role).
        let gpa_as_va = VirtAddr::new(gpa.as_u64());
        let mut touched = Vec::new();
        let Some(host_id) = self.host_tree.lookup(host_key, gpa_as_va, &mut touched) else {
            self.stats.uncovered += 1;
            return None;
        };
        for &n in &touched {
            cost.index_cache += self.host_cache.latency();
            if !self.host_cache.access(n) {
                cost.index_cache += fetch(n);
            }
        }
        cost.segment_table += self.host_table.latency();
        let Some(ma) = self.host_table.translate(host_id, host_key, gpa_as_va) else {
            self.stats.uncovered += 1;
            return None;
        };
        self.stats.two_step += 1;

        // Fill the direct gVA→MA segment cache with the *intersection*
        // of the guest and host segments around `gva`, so SC hits stay
        // within both segments' bounds.
        if let (Some(gseg), Some(hseg)) = (
            self.guest_table.get(guest_seg),
            self.host_table.get(host_id),
        ) {
            // Effective direct segment: from the later of the two bases
            // (mapped back to gVA) to the earlier of the two limits.
            let g_delta = gseg.phys_base.as_u64() as i128 - gseg.base.as_u64() as i128;
            let h_delta = hseg.phys_base.as_u64() as i128 - hseg.base.as_u64() as i128;
            // Host segment bounds mapped back into gVA space (signed: the
            // guest offset can exceed the host base).
            let h_start_gva = hseg.base.as_u64() as i128 - g_delta;
            let h_end_gva = h_start_gva + hseg.len as i128;
            let start = (gseg.base.as_u64() as i128).max(h_start_gva);
            let end = ((gseg.base.as_u64() + gseg.len) as i128).min(h_end_gva);
            if end > start {
                let direct = hvc_os::Segment {
                    id: SegmentId(u32::MAX),
                    asid,
                    base: VirtAddr::new(start as u64),
                    len: (end - start) as u64,
                    phys_base: PhysAddr::new((start + g_delta + h_delta) as u64),
                };
                self.sc.fill(asid, gva, &direct);
            }
        }
        Some((ma, cost))
    }

    /// Counters.
    pub fn stats(&self) -> &NestedSegmentStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, MapIntent};
    use hvc_types::Permissions;

    const GIB: u64 = 1 << 30;

    fn setup() -> (Hypervisor, Vmid, Asid, VirtAddr) {
        let mut hv = Hypervisor::new(2 * GIB);
        let vm = hv
            .create_vm(256 << 20, AllocPolicy::EagerSegments { split: 1 }, true)
            .unwrap();
        let asid = hv.create_guest_process(vm).unwrap();
        let va = VirtAddr::new(0x40_0000);
        let gk = hv.guest_kernel_mut(vm).unwrap();
        gk.mmap(asid, va, 1 << 20, Permissions::RW, MapIntent::Private)
            .unwrap();
        (hv, vm, asid, va)
    }

    #[test]
    fn two_step_translation_matches_ept_path() {
        let (mut hv, vm, asid, va) = setup();
        let mut ns = NestedSegments::build(&hv, vm).unwrap();
        let host_key = hv.host_segment_key(vm).unwrap();
        let probe = va + 0x1234;
        let (ma, _lat) = ns
            .translate(asid, host_key, probe, |_| Cycles::new(160))
            .expect("covered");
        // Cross-check with guest PT + EPT.
        let gpte = hv
            .guest_kernel(vm)
            .unwrap()
            .walk(asid, probe.page_number())
            .unwrap()
            .0;
        let gpa = GuestPhysAddr::new(gpte.frame.base().as_u64() + probe.page_offset());
        let ma_ref = hv.machine_addr(vm, gpa).unwrap();
        assert_eq!(ma, ma_ref);
        assert_eq!(ns.stats().two_step, 1);
    }

    #[test]
    fn sc_caches_direct_gva_to_ma() {
        let (hv, vm, asid, va) = setup();
        let mut ns = NestedSegments::build(&hv, vm).unwrap();
        let host_key = hv.host_segment_key(vm).unwrap();
        let (ma1, lat1) = ns
            .translate(asid, host_key, va, |_| Cycles::new(160))
            .unwrap();
        let (ma2, lat2) = ns
            .translate(asid, host_key, va + 0x40, |_| Cycles::new(160))
            .unwrap();
        assert_eq!(ma2 - ma1, 0x40);
        assert!(
            lat2.total() < lat1.total(),
            "SC hit must be cheaper: {lat2:?} vs {lat1:?}"
        );
        assert_eq!(ns.stats().sc_hits, 1);
    }

    #[test]
    fn uncovered_gva_is_none() {
        let (hv, vm, asid, _) = setup();
        let mut ns = NestedSegments::build(&hv, vm).unwrap();
        let host_key = hv.host_segment_key(vm).unwrap();
        assert!(ns
            .translate(asid, host_key, VirtAddr::new(0xdead_0000), |_| Cycles::new(
                160
            ))
            .is_none());
    }
}
