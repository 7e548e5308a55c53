//! The fully associative translation caches against the stamp-scan
//! implementations they replaced, copied here as models: each entry
//! carries the tick of its last insert or touch, a full cache evicts the
//! `min_by_key` stamp and `swap_remove`s it. Every operation sequence
//! uses more distinct keys than slots, so victims decide later hits.

use hvc::os::{Segment, SegmentId};
use hvc::segment::SegmentCache;
use hvc::tlb::WalkCache;
use hvc::types::{Asid, Cycles, PhysAddr, PhysFrame, VirtAddr, VirtPage, Vmid};
use hvc::virt::NestedTlb;
use proptest::prelude::*;

/// Picks the slot of the oldest stamp.
fn lru_slot<T>(entries: &[T], stamp: impl Fn(&T) -> u64) -> usize {
    entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| stamp(e))
        .expect("non-empty")
        .0
}

// ---- segment cache -------------------------------------------------

const SC_SHIFT: u32 = 21;

struct ScEntry {
    asid: Asid,
    region: u64,
    seg_base: u64,
    seg_len: u64,
    offset_delta: i128,
    lru: u64,
}

struct ScModel {
    entries: Vec<ScEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ScModel {
    fn translate(&mut self, asid: Asid, va: VirtAddr) -> Option<PhysAddr> {
        self.tick += 1;
        let tick = self.tick;
        let region = va.as_u64() >> SC_SHIFT;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.region == region)
        {
            if va.as_u64() >= e.seg_base && va.as_u64() - e.seg_base < e.seg_len {
                e.lru = tick;
                self.hits += 1;
                return Some(PhysAddr::new((va.as_u64() as i128 + e.offset_delta) as u64));
            }
        }
        self.misses += 1;
        None
    }

    fn fill(&mut self, asid: Asid, va: VirtAddr, seg: &Segment) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let region = va.as_u64() >> SC_SHIFT;
        let delta = seg.phys_base.as_u64() as i128 - seg.base.as_u64() as i128;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == asid && e.region == region)
        {
            e.seg_base = seg.base.as_u64();
            e.seg_len = seg.len;
            e.offset_delta = delta;
            e.lru = tick;
            return;
        }
        if self.entries.len() == self.capacity {
            let slot = lru_slot(&self.entries, |e| e.lru);
            self.entries.swap_remove(slot);
        }
        self.entries.push(ScEntry {
            asid,
            region,
            seg_base: seg.base.as_u64(),
            seg_len: seg.len,
            offset_delta: delta,
            lru: tick,
        });
    }
}

// ---- walk cache ----------------------------------------------------

const WALK_WAYS: usize = 32;

struct WalkEntry {
    asid: Asid,
    region: u64,
    lru: u64,
}

#[derive(Default)]
struct WalkModel {
    caches: [Vec<WalkEntry>; 3],
    tick: u64,
}

impl WalkModel {
    fn region(vpage: VirtPage, k: usize) -> u64 {
        vpage.as_u64() >> (9 * (3 - k))
    }

    fn skip_levels(&mut self, asid: Asid, vpage: VirtPage) -> usize {
        self.tick += 1;
        let tick = self.tick;
        for k in (0..3).rev() {
            let region = Self::region(vpage, k);
            if let Some(e) = self.caches[k]
                .iter_mut()
                .find(|e| e.asid == asid && e.region == region)
            {
                e.lru = tick;
                return k + 1;
            }
        }
        0
    }

    fn fill(&mut self, asid: Asid, vpage: VirtPage) {
        self.tick += 1;
        let tick = self.tick;
        for k in 0..3 {
            let region = Self::region(vpage, k);
            let cache = &mut self.caches[k];
            if let Some(e) = cache
                .iter_mut()
                .find(|e| e.asid == asid && e.region == region)
            {
                e.lru = tick;
                continue;
            }
            if cache.len() == WALK_WAYS {
                let slot = lru_slot(cache, |e| e.lru);
                cache.swap_remove(slot);
            }
            cache.push(WalkEntry {
                asid,
                region,
                lru: tick,
            });
        }
    }

    fn flush_asid(&mut self, asid: Asid) {
        for c in &mut self.caches {
            c.retain(|e| e.asid != asid);
        }
    }
}

// ---- nested TLB ----------------------------------------------------

struct NestedEntry {
    vmid: Vmid,
    gpa_page: u64,
    machine_frame: PhysFrame,
    lru: u64,
}

struct NestedModel {
    entries: Vec<NestedEntry>,
    capacity: usize,
    tick: u64,
}

impl NestedModel {
    /// One `translate_gpa` step: a hit touches, a miss inserts the
    /// frame the EPT walk returned.
    fn access(&mut self, vmid: Vmid, gpa_page: u64, walked: PhysFrame) -> Option<PhysFrame> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.vmid == vmid && e.gpa_page == gpa_page)
        {
            e.lru = tick;
            return Some(e.machine_frame);
        }
        if self.capacity > 0 {
            if self.entries.len() == self.capacity {
                let slot = lru_slot(&self.entries, |e| e.lru);
                self.entries.swap_remove(slot);
            }
            self.entries.push(NestedEntry {
                vmid,
                gpa_page,
                machine_frame: walked,
                lru: tick,
            });
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ten regions over two address spaces compete for up to six SC
    /// slots; fills may cover only part of a region (or miss `va`
    /// entirely), so region hits that fail the bounds check occur.
    #[test]
    fn segment_cache_matches_the_stamp_model(
        capacity in 0usize..7,
        ops in prop::collection::vec(
            (0u8..4, 1u16..3, 0u64..10, 0u64..(1 << SC_SHIFT), 0u64..(1 << SC_SHIFT), 1u64..(3 << SC_SHIFT), any::<u32>()),
            1..400,
        ),
    ) {
        let mut sc = SegmentCache::new(capacity, Cycles::new(2));
        let mut model = ScModel { entries: Vec::new(), capacity, tick: 0, hits: 0, misses: 0 };
        for (op, asid, region, off, seg_off, len, phys) in ops {
            let asid = Asid::new(asid);
            let va = VirtAddr::new((region << SC_SHIFT) + off);
            match op {
                0 | 1 => prop_assert_eq!(sc.translate(asid, va), model.translate(asid, va)),
                2 => {
                    let seg = Segment {
                        id: SegmentId(0),
                        asid,
                        base: VirtAddr::new((region << SC_SHIFT) + seg_off),
                        len,
                        phys_base: PhysAddr::new(u64::from(phys) << 12),
                    };
                    sc.fill(asid, va, &seg);
                    model.fill(asid, va, &seg);
                }
                _ => {
                    // Probe every region so the full contents are compared.
                    for r in 0..10u64 {
                        for a in 1..3u16 {
                            let probe = VirtAddr::new((r << SC_SHIFT) + off);
                            prop_assert_eq!(
                                sc.translate(Asid::new(a), probe),
                                model.translate(Asid::new(a), probe)
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(sc.stats(), (model.hits, model.misses));
        }
    }

    /// Pages spread over 40 top-level regions in two address spaces, so
    /// every level of the 32-entry walk cache evicts; an address space is
    /// flushed rarely enough that the levels refill.
    #[test]
    fn walk_cache_matches_the_stamp_model(
        ops in prop::collection::vec((0u8..64, 1u16..3, 0u64..40, 0u64..2, 0u64..2, 0u64..512), 1..800),
    ) {
        let mut wc = WalkCache::new();
        let mut model = WalkModel::default();
        for (op, asid, top, mid, low, page) in ops {
            let asid = Asid::new(asid);
            let vpage = VirtPage::new(top << 27 | mid << 18 | low << 9 | page);
            match op {
                0..=62 => {
                    let skip = model.skip_levels(asid, vpage);
                    model.fill(asid, vpage);
                    prop_assert_eq!(wc.record_walk(asid, vpage), skip);
                }
                _ => {
                    wc.flush_asid(asid);
                    model.flush_asid(asid);
                }
            }
        }
    }

    /// Three VMs' guest-physical pages compete for up to eight nested-TLB
    /// entries, with occasional full flushes.
    #[test]
    fn nested_tlb_matches_the_stamp_model(
        capacity in 0usize..9,
        ops in prop::collection::vec((0u8..40, 0u8..3, 0u64..12), 1..400),
    ) {
        let mut tlb = NestedTlb::new(capacity);
        let mut model = NestedModel { entries: Vec::new(), capacity, tick: 0 };
        for (epoch, (op, vmid, gpa_page)) in ops.into_iter().enumerate() {
            let vmid = Vmid::new(vmid);
            if op == 0 {
                tlb.flush();
                model.entries.clear();
                continue;
            }
            // A frame unique to this step, so a stale hit shows.
            let walked = PhysFrame::new(epoch as u64);
            let got = tlb.lookup(vmid, gpa_page);
            if got.is_none() {
                tlb.insert(vmid, gpa_page, walked);
            }
            prop_assert_eq!(got, model.access(vmid, gpa_page, walked));
        }
    }
}
