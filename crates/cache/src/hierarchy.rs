//! A multi-core cache hierarchy: private L1I/L1D/L2 per core, shared
//! inclusive LLC, MESI-style coherence over hybrid block names.

use crate::{Cache, CacheStats, HierarchyConfig, Victim};
use hvc_obs::LatencyHistogram;
use hvc_types::{AccessKind, Asid, BlockName, Cycles, Permissions, PAGE_SHIFT};

/// The outcome of one hierarchy access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Level that supplied the block: `0` = L1, `1` = L2, `2` = LLC,
    /// `None` = missed everywhere (main memory must be accessed).
    pub hit_level: Option<u8>,
    /// Lookup latency through the levels traversed (DRAM not included —
    /// the caller performs delayed translation and the memory access).
    pub latency: Cycles,
    /// Dirty LLC victim displaced by the (auto-)fill, if any. The caller
    /// owns its writeback (which needs delayed translation under hybrid
    /// virtual caching).
    pub llc_victim: Option<Victim>,
}

impl AccessResult {
    /// `true` if the access missed the entire on-chip hierarchy.
    pub fn llc_miss(&self) -> bool {
        self.hit_level.is_none()
    }
}

/// One page-granular operation of a flush batch
/// ([`Hierarchy::apply_batch`]). The variant order is the batch's sort
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushOp {
    /// Invalidate the virtually named lines of page `vpage` of the space.
    VirtPage(Asid, u64),
    /// Downgrade the virtually named lines of page `vpage` to read-only.
    DowngradeRo(Asid, u64),
    /// Invalidate the physically named lines of the frame at this byte
    /// address.
    PhysFrame(u64),
    /// Invalidate every virtually named line of the space.
    Space(Asid),
}

impl FlushOp {
    /// The same op `n` pages (or frames) further on; `None` for a whole
    /// space, which never joins a run.
    fn step(self, n: u64) -> Option<FlushOp> {
        match self {
            FlushOp::VirtPage(asid, vpage) => Some(FlushOp::VirtPage(asid, vpage + n)),
            FlushOp::DowngradeRo(asid, vpage) => Some(FlushOp::DowngradeRo(asid, vpage + n)),
            FlushOp::PhysFrame(base) => Some(FlushOp::PhysFrame(base + (n << PAGE_SHIFT))),
            FlushOp::Space(_) => None,
        }
    }
}

/// A full cache hierarchy operating on [`BlockName`]s.
///
/// Because every physical block has exactly one name (the paper's
/// correctness invariant), coherence needs no reverse translation: the
/// LLC doubles as a directory keyed by the same name the private caches
/// use.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    coherence_invalidations: u64,
    memory_writebacks: u64,
    lookup_latency: LatencyHistogram,
    /// Reusable victim buffer for page/frame/space flushes, so shootdowns
    /// allocate nothing on the steady state.
    scratch: Vec<Victim>,
    /// `true` once any line was ever filled with (or downgraded to)
    /// non-writable permissions. While `false`, the front-end's r/o write
    /// check can skip its hierarchy-wide permission probe: no cached line
    /// can fault it. Monotone, so skipping is observationally neutral.
    may_cache_readonly: bool,
}

/// Most cores a [`Hierarchy`] can track: the LLC's per-line sharer
/// bitmap is 32 bits.
pub const MAX_CORES: usize = 32;

impl Hierarchy {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` exceeds [`MAX_CORES`].
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(
            config.cores <= MAX_CORES,
            "{} cores exceed the {MAX_CORES}-bit LLC sharer bitmap",
            config.cores
        );
        Hierarchy {
            l1i: (0..config.cores)
                .map(|_| Cache::new(config.l1i.clone()))
                .collect(),
            l1d: (0..config.cores)
                .map(|_| Cache::new(config.l1d.clone()))
                .collect(),
            l2: (0..config.cores)
                .map(|_| Cache::new(config.l2.clone()))
                .collect(),
            llc: Cache::new(config.llc.clone()),
            config,
            coherence_invalidations: 0,
            memory_writebacks: 0,
            lookup_latency: LatencyHistogram::default(),
            scratch: Vec::new(),
            may_cache_readonly: false,
        }
    }

    /// `true` if some line anywhere may carry non-writable permissions —
    /// the cue for the front-end to run its cached r/o write check.
    #[inline]
    pub fn may_hold_readonly(&self) -> bool {
        self.may_cache_readonly
    }

    /// Returns the configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Accesses `name` from `core` with read/write permissions cached as
    /// given (stored in the tag on fill, per the paper's Figure 2).
    ///
    /// On a complete miss the block is auto-filled into LLC, L2 and L1
    /// (the simulator carries no data, so fill and access fold together);
    /// the returned latency covers the on-chip lookups only.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_with_perm(
        &mut self,
        core: usize,
        name: BlockName,
        kind: AccessKind,
        perm: Permissions,
    ) -> AccessResult {
        let result = self.access_with_perm_inner(core, name, kind, perm);
        self.lookup_latency.record(result.latency);
        result
    }

    fn access_with_perm_inner(
        &mut self,
        core: usize,
        name: BlockName,
        kind: AccessKind,
        perm: Permissions,
    ) -> AccessResult {
        assert!(core < self.config.cores, "core {core} out of range");
        self.may_cache_readonly |= !perm.is_writable();
        let write = kind.is_write();
        // MESI upgrade: any write must remove other cores' copies, even if
        // the writer hits its own (Shared-state) L1 copy.
        if write && self.config.cores > 1 {
            self.invalidate_other_sharers(core, name);
        }
        let mut latency = if kind.is_fetch() {
            self.config.l1i.latency
        } else {
            self.config.l1d.latency
        };

        // L1.
        let l1 = if kind.is_fetch() {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        if l1.access(name, write) {
            return AccessResult {
                hit_level: Some(0),
                latency,
                llc_victim: None,
            };
        }

        // L2.
        latency += self.config.l2.latency;
        if self.l2[core].access(name, write) {
            self.fill_l1(core, kind, name, write, perm);
            return AccessResult {
                hit_level: Some(1),
                latency,
                llc_victim: None,
            };
        }

        // LLC (one scan: hit bookkeeping + sharer registration fused).
        latency += self.config.llc.latency;
        if self.llc.access_sharing(name, write, core).is_some() {
            self.fill_private(core, kind, name, write, perm);
            return AccessResult {
                hit_level: Some(2),
                latency,
                llc_victim: None,
            };
        }

        // Miss everywhere: fill bottom-up, maintaining inclusion.
        let llc_victim = self.fill_miss(core, kind, name, write, perm);
        AccessResult {
            hit_level: None,
            latency,
            llc_victim,
        }
    }

    /// Accesses with default read-write permissions.
    pub fn access(&mut self, core: usize, name: BlockName, kind: AccessKind) -> AccessResult {
        self.access_with_perm(core, name, kind, Permissions::RW)
    }

    /// Probes the hierarchy without filling on a complete miss — the
    /// system simulator uses this so the fill can carry the permissions
    /// produced by delayed translation ([`Hierarchy::fill_miss`]).
    pub fn lookup(&mut self, core: usize, name: BlockName, kind: AccessKind) -> AccessResult {
        let result = self.lookup_inner(core, name, kind);
        self.lookup_latency.record(result.latency);
        result
    }

    fn lookup_inner(&mut self, core: usize, name: BlockName, kind: AccessKind) -> AccessResult {
        assert!(core < self.config.cores, "core {core} out of range");
        let write = kind.is_write();
        if write && self.config.cores > 1 {
            self.invalidate_other_sharers(core, name);
        }
        let mut latency = if kind.is_fetch() {
            self.config.l1i.latency
        } else {
            self.config.l1d.latency
        };
        let l1 = if kind.is_fetch() {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        if l1.access(name, write) {
            return AccessResult {
                hit_level: Some(0),
                latency,
                llc_victim: None,
            };
        }
        latency += self.config.l2.latency;
        // Promote with the permissions already cached at L2 (read out by
        // the same scan that services the hit).
        if let Some(perm) = self.l2[core].access_perm(name, write) {
            self.fill_l1(core, kind, name, write, perm);
            return AccessResult {
                hit_level: Some(1),
                latency,
                llc_victim: None,
            };
        }
        latency += self.config.llc.latency;
        if let Some(perm) = self.llc.access_sharing(name, write, core) {
            self.fill_private(core, kind, name, write, perm);
            return AccessResult {
                hit_level: Some(2),
                latency,
                llc_victim: None,
            };
        }
        AccessResult {
            hit_level: None,
            latency,
            llc_victim: None,
        }
    }

    /// Installs a block after a complete miss (memory returned the data),
    /// with the permissions obtained from (delayed) translation. Returns
    /// a dirty LLC victim needing a writeback, if any.
    pub fn fill_miss(
        &mut self,
        core: usize,
        kind: AccessKind,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
    ) -> Option<Victim> {
        self.may_cache_readonly |= !perm.is_writable();
        let victim = self.fill_llc(core, name, dirty, perm);
        self.fill_private(core, kind, name, dirty, perm);
        victim
    }

    /// Returns the permission bits cached for `name`, looking from the L1
    /// of `core` outwards (used by the front-end to enforce r/o sharing).
    pub fn cached_permissions(&self, core: usize, name: BlockName) -> Option<Permissions> {
        self.l1d[core]
            .permissions(name)
            .or_else(|| self.l1i[core].permissions(name))
            .or_else(|| self.l2[core].permissions(name))
            .or_else(|| self.llc.permissions(name))
    }

    /// Iterates over every block name resident anywhere in the
    /// hierarchy (all L1s, L2s and the LLC), including duplicates when
    /// a block is cached at several levels. Used by the `hvc-check`
    /// invariant sweeps to audit the single-name guarantee; not on any
    /// simulation fast path.
    pub fn resident_names(&self) -> impl Iterator<Item = BlockName> + '_ {
        self.l1i
            .iter()
            .chain(&self.l1d)
            .chain(&self.l2)
            .flat_map(|c| c.resident_names())
            .chain(self.llc.resident_names())
    }

    /// Probes the whole hierarchy for `name` without side effects.
    pub fn contains(&self, name: BlockName) -> bool {
        self.llc.contains(name)
            || self.l1i.iter().any(|c| c.contains(name))
            || self.l1d.iter().any(|c| c.contains(name))
            || self.l2.iter().any(|c| c.contains(name))
    }

    /// Flushes all lines of virtual page `(asid, vpage)` hierarchy-wide;
    /// returns the number of dirty lines written back to memory. Used by
    /// the OS for unmap / remap / synonym-status transitions. One-page
    /// form of [`Hierarchy::flush_virt_pages`].
    pub fn flush_virt_page(&mut self, asid: Asid, vpage: u64) -> u64 {
        self.flush_virt_pages(asid, vpage, 1)
    }

    /// Flushes all lines of the `count` virtual pages of `asid` starting
    /// at `first` from every level; returns the number of dirty lines
    /// written back. Each level picks its own strategy by size — keyed
    /// probes of the range's sets when the range has fewer lines than the
    /// level has sets, otherwise one sweep ([`Cache::flush_virt_pages`]) —
    /// and the outcome (contents, per-level statistics, dirty count) is
    /// identical to `count` calls of [`Hierarchy::flush_virt_page`].
    pub fn flush_virt_pages(&mut self, asid: Asid, first: u64, count: u64) -> u64 {
        self.flush_each(|c, victims| c.flush_virt_pages(asid, first, count, victims))
    }

    /// Flushes all physically-named lines of the frame at `frame_base`
    /// hierarchy-wide; returns the number of dirty lines written back.
    /// Used by the OS when a synonym page's frame is freed for reuse.
    /// One-frame form of [`Hierarchy::flush_phys_frames`].
    pub fn flush_phys_frame(&mut self, frame_base: u64) -> u64 {
        self.flush_phys_frames(frame_base, 1)
    }

    /// Flushes all physically-named lines of the `count` frames starting
    /// at byte address `frame_base` from every level, choosing probes or
    /// a sweep per level as [`Hierarchy::flush_virt_pages`] does; returns
    /// the dirty count. Identical to `count` calls of
    /// [`Hierarchy::flush_phys_frame`].
    pub fn flush_phys_frames(&mut self, frame_base: u64, count: u64) -> u64 {
        self.flush_each(|c, victims| c.flush_phys_frames(frame_base, count, victims))
    }

    /// Downgrades cached permissions of a virtual page to read-only in
    /// every level (content-based-sharing transition; no flush needed).
    /// One-page form of [`Hierarchy::downgrade_pages_read_only`].
    pub fn downgrade_page_read_only(&mut self, asid: Asid, vpage: u64) {
        self.downgrade_pages_read_only(asid, vpage, 1);
    }

    /// Downgrades the `count` virtual pages of `asid` starting at `first`
    /// to read-only in every level, choosing probes or a sweep per level
    /// by size exactly as [`Hierarchy::flush_virt_pages`] does; identical
    /// to `count` calls of [`Hierarchy::downgrade_page_read_only`].
    pub fn downgrade_pages_read_only(&mut self, asid: Asid, first: u64, count: u64) {
        self.may_cache_readonly = true;
        for c in self.caches_mut() {
            c.downgrade_pages_read_only(asid, first, count);
        }
    }

    /// Flushes every line of an address space (process exit).
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        // Every appended victim is dirty by the `Cache::flush_asid`
        // contract, so the buffer length is the writeback count.
        self.flush_each(|c, victims| c.flush_asid(asid, victims))
    }

    /// Applies one drained shootdown's flushes as a set and leaves `ops`
    /// empty (capacity kept); returns the number of dirty lines written
    /// back.
    ///
    /// The ops are sorted in place by (kind, space, page), duplicates are
    /// dropped, and each run of consecutive pages (or frames) becomes one
    /// range operation. That is exact because no fill happens inside a
    /// batch and every flush or downgrade decides a line's fate from that
    /// line's own name: a line is gone if any invalidating op covers it,
    /// read-only if it survives and a downgrade covers it, and each level
    /// counts every dirty line it drops once, as an invalidation and as a
    /// memory writeback. So contents, per-level statistics, and
    /// `memory_writebacks` equal applying the ops one by one in any order.
    pub fn apply_batch(&mut self, ops: &mut Vec<FlushOp>) -> u64 {
        ops.sort_unstable();
        ops.dedup();
        let mut dirty = 0;
        let mut rest = &ops[..];
        while let Some((&head, tail)) = rest.split_first() {
            let run = 1 + tail
                .iter()
                .zip(1..)
                .take_while(|&(&op, i)| Some(op) == head.step(i))
                .count();
            let count = run as u64;
            match head {
                FlushOp::VirtPage(asid, first) => {
                    dirty += self.flush_virt_pages(asid, first, count)
                }
                FlushOp::DowngradeRo(asid, first) => {
                    self.downgrade_pages_read_only(asid, first, count)
                }
                FlushOp::PhysFrame(base) => dirty += self.flush_phys_frames(base, count),
                FlushOp::Space(asid) => dirty += self.flush_asid(asid),
            }
            rest = &rest[run..];
        }
        ops.clear();
        dirty
    }

    /// Every level: the private caches of each core, then the LLC.
    fn caches_mut(&mut self) -> impl Iterator<Item = &mut Cache> {
        self.l1i
            .iter_mut()
            .chain(&mut self.l1d)
            .chain(&mut self.l2)
            .chain(std::iter::once(&mut self.llc))
    }

    /// Runs one flush on every level, collecting dirty victims in the
    /// reusable scratch buffer; returns (and counts) the writebacks.
    fn flush_each(&mut self, mut flush: impl FnMut(&mut Cache, &mut Vec<Victim>)) -> u64 {
        let mut victims = std::mem::take(&mut self.scratch);
        victims.clear();
        for c in self.caches_mut() {
            flush(c, &mut victims);
        }
        let dirty = victims.len() as u64;
        self.scratch = victims;
        self.memory_writebacks += dirty;
        dirty
    }

    /// Gathers statistics from all levels.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            l1i: self.l1i.iter().map(|c| c.stats().clone()).collect(),
            l1d: self.l1d.iter().map(|c| c.stats().clone()).collect(),
            l2: self.l2.iter().map(|c| c.stats().clone()).collect(),
            llc: self.llc.stats().clone(),
            coherence_invalidations: self.coherence_invalidations,
            memory_writebacks: self.memory_writebacks,
            lookup_latency: self.lookup_latency.clone(),
        }
    }

    /// Resets statistics on every level (contents kept — useful for
    /// warm-up phases).
    pub fn reset_stats(&mut self) {
        for c in self.caches_mut() {
            c.reset_stats();
        }
        self.coherence_invalidations = 0;
        self.memory_writebacks = 0;
        self.lookup_latency = LatencyHistogram::default();
    }

    // --- internals ---

    fn fill_l1(
        &mut self,
        core: usize,
        kind: AccessKind,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
    ) {
        let l1 = if kind.is_fetch() {
            &mut self.l1i[core]
        } else {
            &mut self.l1d[core]
        };
        // The caller just missed `name` in this L1, so skip the residency
        // probe; the displaced victim's write-back uses the plain `fill`
        // because the line *is* resident in the inclusive L2.
        if let Some(v) = l1.fill_after_miss(name, dirty, perm) {
            if v.dirty {
                self.l2[core].fill(v.name, true, perm);
            }
        }
    }

    fn fill_private(
        &mut self,
        core: usize,
        kind: AccessKind,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
    ) {
        if let Some(v) = self.l2[core].fill_after_miss(name, dirty, perm) {
            // L2 victim: its dirty state merges into the (inclusive) LLC;
            // also evict from L1s to keep L2⊇L1 inclusion simple.
            self.evict_from_l1s(core, v.name);
            if v.dirty {
                self.llc.fill_unshare(v.name, true, perm, core);
            } else {
                self.llc.remove_sharer(v.name, core);
            }
        }
        self.fill_l1(core, kind, name, dirty, perm);
    }

    fn fill_llc(
        &mut self,
        core: usize,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
    ) -> Option<Victim> {
        // The new line's sharer set is seeded with the filling core, so no
        // separate `add_sharer` scan is needed after the private fills.
        let (victim, sharers) = self
            .llc
            .fill_after_miss_tracked(name, dirty, perm, 1 << core)?;
        // Inclusive LLC: back-invalidate the victim from the private
        // caches that hold it (the directory's sharer bits are exact —
        // every private fill sets them, every private eviction clears
        // them); any dirty private copy makes the victim dirty.
        let mut dirty_above = false;
        let mut holders = sharers;
        while holders != 0 {
            let c = holders.trailing_zeros() as usize;
            holders &= holders - 1;
            dirty_above |= self.evict_from_l1s(c, victim.name);
            if let Some(v) = self.l2[c].invalidate(victim.name) {
                dirty_above |= v.dirty;
            }
        }
        let victim = Victim {
            name: victim.name,
            dirty: victim.dirty || dirty_above,
        };
        if victim.dirty {
            self.memory_writebacks += 1;
        }
        victim.dirty.then_some(victim)
    }

    fn evict_from_l1s(&mut self, core: usize, name: BlockName) -> bool {
        let mut dirty = false;
        if let Some(v) = self.l1i[core].invalidate(name) {
            dirty |= v.dirty;
        }
        if let Some(v) = self.l1d[core].invalidate(name) {
            dirty |= v.dirty;
        }
        dirty
    }

    /// MESI write-invalidate: a write by `core` removes all other cores'
    /// private copies (their dirty data folds into the LLC copy).
    fn invalidate_other_sharers(&mut self, core: usize, name: BlockName) {
        let sharers = self.llc.sharers(name);
        for other in 0..self.config.cores {
            if other == core || sharers & (1 << other) == 0 {
                continue;
            }
            let mut dirty = self.evict_from_l1s(other, name);
            if let Some(v) = self.l2[other].invalidate(name) {
                dirty |= v.dirty;
            }
            if dirty {
                // Fold the modified data into the LLC copy.
                self.llc.mark_dirty(name);
            }
            self.llc.remove_sharer(name, other);
            self.coherence_invalidations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::LineAddr;

    fn v(asid: u16, line: u64) -> BlockName {
        BlockName::Virt(Asid::new(asid), LineAddr::new(line))
    }

    fn p(line: u64) -> BlockName {
        BlockName::Phys(LineAddr::new(line))
    }

    fn tiny(cores: usize) -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            cores,
            ..HierarchyConfig::test_tiny()
        })
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = tiny(1);
        let r = h.access(0, v(1, 0), AccessKind::Read);
        assert!(r.llc_miss());
        assert_eq!(r.latency, Cycles::new(1 + 3 + 9));
        let r = h.access(0, v(1, 0), AccessKind::Read);
        assert_eq!(r.hit_level, Some(0));
        assert_eq!(r.latency, Cycles::new(1));
    }

    #[test]
    fn fetch_uses_l1i() {
        let mut h = tiny(1);
        h.access(0, v(1, 0), AccessKind::Fetch);
        // A data read of the same name misses L1D but hits L2 (filled on
        // the fetch path).
        let r = h.access(0, v(1, 0), AccessKind::Read);
        assert_eq!(r.hit_level, Some(1));
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = tiny(1);
        h.access(0, v(1, 0), AccessKind::Read);
        // Evict line 0 from tiny L1D (512 B, 2-way, 4 sets ⇒ lines 0, 4, 8
        // share set 0) but not from L2.
        h.access(0, v(1, 4), AccessKind::Read);
        h.access(0, v(1, 8), AccessKind::Read);
        let r = h.access(0, v(1, 0), AccessKind::Read);
        assert_eq!(r.hit_level, Some(1));
        let r = h.access(0, v(1, 0), AccessKind::Read);
        assert_eq!(r.hit_level, Some(0), "L2 hit should refill L1");
    }

    #[test]
    fn other_core_read_hits_shared_llc() {
        let mut h = tiny(2);
        h.access(0, p(0), AccessKind::Read);
        let r = h.access(1, p(0), AccessKind::Read);
        assert_eq!(r.hit_level, Some(2));
    }

    #[test]
    fn write_invalidates_other_cores_copies() {
        let mut h = tiny(2);
        h.access(0, p(0), AccessKind::Read);
        h.access(1, p(0), AccessKind::Read);
        // Core 1 writes: core 0's private copies must go.
        let r = h.access(1, p(0), AccessKind::Write);
        assert_eq!(r.hit_level, Some(0)); // it had its own L1 copy? No — write hits its L1.
        let s = h.stats();
        // Core 0 re-reads: must not hit its L1 (invalidated).
        let r0 = h.access(0, p(0), AccessKind::Read);
        assert!(
            r0.hit_level >= Some(2),
            "copy must come from LLC, got {:?}",
            r0.hit_level
        );
        assert!(s.coherence_invalidations >= 1);
    }

    #[test]
    fn inclusive_llc_back_invalidates() {
        let mut h = tiny(1);
        let cfg = h.config().clone();
        let llc_lines = cfg.llc.lines();
        // Touch enough distinct lines mapping set 0 of the LLC to evict
        // the first one.
        let sets = cfg.llc.sets() as u64;
        h.access(0, v(1, 0), AccessKind::Read);
        for i in 1..=cfg.llc.ways as u64 {
            h.access(0, v(1, i * sets), AccessKind::Read);
        }
        assert!(!h.contains(v(1, 0)), "victim must leave every level");
        let _ = llc_lines;
    }

    #[test]
    fn dirty_llc_victim_is_reported_and_counted() {
        let mut h = tiny(1);
        let sets = h.config().llc.sets() as u64;
        h.access(0, v(1, 0), AccessKind::Write);
        let mut saw_victim = false;
        for i in 1..=h.config().llc.ways as u64 + 1 {
            let r = h.access(0, v(1, i * sets), AccessKind::Read);
            if let Some(vv) = r.llc_victim {
                assert_eq!(vv.name, v(1, 0));
                assert!(vv.dirty);
                saw_victim = true;
                break;
            }
        }
        assert!(saw_victim);
        assert!(h.stats().memory_writebacks >= 1);
    }

    #[test]
    fn flush_virt_page_hits_all_levels() {
        let mut h = tiny(1);
        h.access(0, v(1, 0), AccessKind::Write); // page 0 (lines 0..64)
        h.access(0, v(1, 63), AccessKind::Read);
        let dirty = h.flush_virt_page(Asid::new(1), 0);
        assert!(dirty >= 1);
        assert!(!h.contains(v(1, 0)));
        assert!(!h.contains(v(1, 63)));
    }

    #[test]
    fn flush_asid_leaves_others() {
        let mut h = tiny(1);
        h.access(0, v(1, 0), AccessKind::Read);
        h.access(0, v(2, 1), AccessKind::Read);
        h.flush_asid(Asid::new(1));
        assert!(!h.contains(v(1, 0)));
        assert!(h.contains(v(2, 1)));
    }

    #[test]
    fn permissions_are_cached_and_downgradable() {
        let mut h = tiny(1);
        h.access_with_perm(0, v(1, 0), AccessKind::Read, Permissions::RW);
        assert_eq!(h.cached_permissions(0, v(1, 0)), Some(Permissions::RW));
        h.downgrade_page_read_only(Asid::new(1), 0);
        assert_eq!(h.cached_permissions(0, v(1, 0)), Some(Permissions::READ));
    }

    #[test]
    fn stats_reset() {
        let mut h = tiny(1);
        h.access(0, v(1, 0), AccessKind::Read);
        h.reset_stats();
        let s = h.stats();
        assert_eq!(s.l1d[0].accesses(), 0);
        assert_eq!(s.llc.accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut h = tiny(1);
        h.access(1, v(1, 0), AccessKind::Read);
    }

    #[test]
    #[should_panic(expected = "sharer bitmap")]
    fn more_cores_than_sharer_bits_panics() {
        let _ = tiny(MAX_CORES + 1);
    }
}
