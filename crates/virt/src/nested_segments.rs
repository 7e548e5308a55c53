//! Delayed two-dimensional segment translation (Section V-B).
//!
//! Guest segments map `gVA → gPA` (maintained by the guest OS); host
//! segments map `gPA → MA` (maintained by the hypervisor, which backs
//! each VM with large contiguous machine regions). After an LLC miss the
//! two walks happen serially, with a 128-entry segment cache storing
//! direct `gVA → MA` translations for 2 MB regions to skip both.

use crate::Hypervisor;
use hvc_os::{Segment, SegmentId};
use hvc_segment::{SegmentCache, SegmentCost, SegmentWalk};
use hvc_types::{Asid, Cycles, PhysAddr, VirtAddr, Vmid};

/// Two-dimensional many-segment translation with a gVA→MA segment cache.
#[derive(Debug)]
pub struct NestedSegments {
    vmid: Vmid,
    /// The VM's host-segment ASID ([`Hypervisor::host_segment_key`]).
    host_key: Asid,
    /// Guest segments (gVA → gPA), re-mirrored by [`NestedSegments::sync`].
    guest: SegmentWalk,
    /// Host segments (gPA → MA), mirrored once: the hypervisor adds
    /// host segments only when it creates an eagerly backed VM.
    host: SegmentWalk,
    /// Direct gVA→MA cache (2 MB granularity).
    sc: SegmentCache,
}

impl NestedSegments {
    /// Builds the 2D translator from the guest kernel of `vmid` and the
    /// hypervisor's host segment table.
    ///
    /// # Errors
    ///
    /// [`hvc_types::HvcError::BadId`] for an unknown VM.
    pub fn build(hv: &Hypervisor, vmid: Vmid) -> hvc_types::Result<Self> {
        Ok(NestedSegments {
            vmid,
            host_key: hv.host_segment_key(vmid)?,
            guest: SegmentWalk::isca2016(hv.guest_kernel(vmid)?.segments(), PhysAddr::new(1 << 41)),
            host: SegmentWalk::isca2016(hv.host_segments(), PhysAddr::new(1 << 42)),
            sc: SegmentCache::isca2016(),
        })
    }

    /// Re-mirrors the guest segment table of the VM if it changed since
    /// the last build, flushing the segment cache with it; returns
    /// whether it did.
    ///
    /// # Panics
    ///
    /// Panics if `hv` no longer hosts the VM.
    pub fn sync(&mut self, hv: &Hypervisor) -> bool {
        let guest = hv.guest_kernel(self.vmid).expect("VM exists");
        let moved = self.guest.sync(guest.segments());
        if moved {
            self.sc.flush();
        }
        moved
    }

    /// Translates `(asid, gva)` to a machine address after an LLC miss;
    /// `fetch` charges index-tree node reads that miss the index caches.
    ///
    /// The cost itemizes the segment-cache probe, both dimensions'
    /// index-cache probes (including node fetches) and both segment-table
    /// reads. Returns `None` if either dimension has no covering
    /// segment.
    pub fn translate(
        &mut self,
        asid: Asid,
        gva: VirtAddr,
        mut fetch: impl FnMut(PhysAddr) -> Cycles,
    ) -> Option<(PhysAddr, SegmentCost)> {
        let mut cost = SegmentCost {
            segment_cache: self.sc.latency(),
            ..SegmentCost::default()
        };
        if let Some(ma) = self.sc.translate(asid, gva) {
            return Some((ma, cost));
        }
        let gseg = self.guest.walk(asid, gva, &mut cost, &mut fetch)?;
        // The host dimension: gPA plays the VA role.
        let gpa = gseg.translate(gva);
        let gpa_as_va = VirtAddr::new(gpa.as_u64());
        let hseg = self
            .host
            .walk(self.host_key, gpa_as_va, &mut cost, &mut fetch)?;
        let ma = hseg.translate(gpa_as_va);
        // Fill the direct gVA→MA segment cache with the *intersection*
        // of the guest and host segments around `gva`, so SC hits stay
        // within both segments' bounds: from the later of the two bases
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
            let direct = Segment {
                id: SegmentId(u32::MAX),
                asid,
                base: VirtAddr::new(start as u64),
                len: (end - start) as u64,
                phys_base: PhysAddr::new((start + g_delta + h_delta) as u64),
            };
            self.sc.fill(asid, gva, &direct);
        }
        Some((ma, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_os::{AllocPolicy, MapIntent};
    use hvc_types::{GuestPhysAddr, Permissions};

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
        let probe = va + 0x1234;
        let (ma, cost) = ns
            .translate(asid, probe, |_| Cycles::new(160))
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
        assert_eq!(
            cost.segment_table,
            Cycles::new(14),
            "guest and host tables read"
        );
    }

    #[test]
    fn sc_caches_direct_gva_to_ma() {
        let (hv, vm, asid, va) = setup();
        let mut ns = NestedSegments::build(&hv, vm).unwrap();
        let (ma1, lat1) = ns.translate(asid, va, |_| Cycles::new(160)).unwrap();
        let (ma2, lat2) = ns.translate(asid, va + 0x40, |_| Cycles::new(160)).unwrap();
        assert_eq!(ma2 - ma1, 0x40);
        assert!(
            lat2.total() < lat1.total(),
            "SC hit must be cheaper: {lat2:?} vs {lat1:?}"
        );
        assert_eq!(lat2.total(), lat2.segment_cache, "served by the SC alone");
    }

    #[test]
    fn uncovered_gva_is_none() {
        let (hv, vm, asid, _) = setup();
        let mut ns = NestedSegments::build(&hv, vm).unwrap();
        assert!(ns
            .translate(asid, VirtAddr::new(0xdead_0000), |_| Cycles::new(160))
            .is_none());
    }
}
