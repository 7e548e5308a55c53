//! A single set-associative cache level keyed by [`BlockName`].

use crate::{CacheConfig, LevelStats};
#[cfg(test)]
use hvc_types::LineAddr;
use hvc_types::{Asid, BlockName, Permissions, LINE_SHIFT, PAGE_SHIFT};

/// An evicted line returned to the caller for writeback handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The unique name of the evicted block.
    pub name: BlockName,
    /// Whether the block was dirty (needs a writeback).
    pub dirty: bool,
}

/// Per-line state other than the name, in unpacked form. In the slab it
/// is packed into one metadata word per way (see the `META_*` layout
/// constants); this struct is the working representation handed to
/// `update_range` callbacks. `sharers` is used only by the LLC level of
/// a multi-core [`crate::Hierarchy`] to track which private caches hold
/// the block (MESI-style directory-in-LLC).
#[derive(Clone, Copy, Debug)]
struct Meta {
    dirty: bool,
    perm: Permissions,
    lru: u64,
    sharers: u32,
}

/// Packed-metadata word layout (one `u128` per way): bit 0 the dirty
/// flag, bits 8..16 the permission bits, bits 32..64 the sharer bitmap,
/// bits 64..128 the LRU stamp.
const META_DIRTY: u128 = 1;
const META_PERM_SHIFT: u32 = 8;
const META_SHARERS_SHIFT: u32 = 32;
const META_SHARERS_MASK: u128 = (u32::MAX as u128) << META_SHARERS_SHIFT;
const META_LRU_SHIFT: u32 = 64;
const META_LRU_MASK: u128 = (u64::MAX as u128) << META_LRU_SHIFT;

#[inline]
fn pack_meta(m: Meta) -> u128 {
    (m.dirty as u128)
        | ((m.perm.bits() as u128) << META_PERM_SHIFT)
        | ((m.sharers as u128) << META_SHARERS_SHIFT)
        | ((m.lru as u128) << META_LRU_SHIFT)
}

#[inline]
fn unpack_meta(w: u128) -> Meta {
    Meta {
        dirty: (w & META_DIRTY) != 0,
        perm: Permissions::from_bits((w >> META_PERM_SHIFT) as u8),
        lru: (w >> META_LRU_SHIFT) as u64,
        sharers: (w >> META_SHARERS_SHIFT) as u32,
    }
}

#[inline]
fn meta_perm(w: u128) -> Permissions {
    Permissions::from_bits((w >> META_PERM_SHIFT) as u8)
}

/// Discriminant bit set in the high key word of virtually-named blocks;
/// sits just above the 16 ASID bits, so `VIRT_TAG | asid` never collides
/// with the physical tag word (0) for any ASID.
const VIRT_TAG: u64 = 1 << 16;

/// High key word of physically-named blocks.
const PHYS_TAG: u64 = 0;

/// Lines per 4 KB page: a page's lines are `vpage * PAGE_LINES ..` on.
const PAGE_LINES: u64 = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// High key word of the virtually-named blocks of `asid`.
#[inline]
fn virt_tag(asid: Asid) -> u64 {
    VIRT_TAG | asid.as_u16() as u64
}

/// Key filler for invalid slots. The high word is `u64::MAX`, which no
/// encodable [`BlockName`] produces (physical names encode 0 there,
/// virtual names at most `VIRT_TAG | 0xFFFF`), so an invalid slot can
/// never compare equal to a probe key and the vector probe may compare
/// whole sets unconditionally.
const EMPTY_KEY: u128 = u128::MAX;

/// Packs a [`BlockName`] into the 16-byte tag-array form: low word =
/// line address, high word = synonym/ASID tag (`0` = physical,
/// `VIRT_TAG | asid` = virtual). The packing is injective, so key
/// equality is name equality and a set probe is a bare 128-bit compare.
#[inline]
fn key_of(name: BlockName) -> u128 {
    match name {
        BlockName::Phys(line) => line.as_u64() as u128,
        BlockName::Virt(asid, line) => (line.as_u64() as u128) | ((virt_tag(asid) as u128) << 64),
    }
}

/// Inverse of [`key_of`] for live slots (never called on `EMPTY_KEY`).
#[inline]
fn name_of(key: u128) -> BlockName {
    let line = hvc_types::LineAddr::new(key as u64);
    let tag = (key >> 64) as u64;
    if tag == PHYS_TAG {
        BlockName::Phys(line)
    } else {
        BlockName::Virt(Asid::new(tag as u16), line)
    }
}

/// A set-associative cache level keyed by the hybrid [`BlockName`].
///
/// Indexing uses the low line-address bits (as hardware does); the ASID
/// participates only in tag comparison, which is exactly the paper's tag
/// extension (Figure 2): `ASID | PA/VA tag | S | permission`.
///
/// Storage is one contiguous **set-interleaved** slab: set `s` occupies
/// the row `rows[s * stride .. (s + 1) * stride]`, laid out as
/// `[occupancy | keys[ways] | meta[ways] | padding]` — the occupancy
/// bitmask a probe reads first, then the 16-byte packed block-name keys
/// it scans (see `key_of`), then one packed metadata word per way
/// (LRU/dirty/permission/sharer state touched only on the way that hit).
/// The stride is rounded up to a whole number of 64-byte host cache
/// lines, so everything a probe touches for one simulated set spans a
/// handful of *contiguous* host lines instead of three slabs megabytes
/// apart; a multi-megabyte simulated LLC costs one or two host-memory
/// fetches per probe rather than three scattered ones. Under the `simd`
/// feature the key row is compared in one vectorized sweep.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// The set-interleaved slab (see the struct docs for the row layout).
    /// Key slots of invalid ways hold [`EMPTY_KEY`] filler, which matches
    /// no probe; padding words are zero and never read.
    rows: Box<[u128]>,
    ways: usize,
    /// Row length in `u128` words: `2 * ways + 1`, rounded up to a
    /// multiple of four words (one 64-byte host line).
    stride: usize,
    set_mask: usize,
    tick: u64,
    stats: LevelStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 ways (the per-set
    /// occupancy bitmask is a `u64`).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways;
        assert!(ways <= 64, "at most 64 ways per set");
        let stride = (2 * ways + 1 + 3) & !3;
        let mut rows = vec![0u128; sets * stride].into_boxed_slice();
        for set in 0..sets {
            let base = set * stride + 1;
            rows[base..base + ways].fill(EMPTY_KEY);
        }
        Cache {
            rows,
            ways,
            stride,
            set_mask: sets - 1,
            config,
            tick: 0,
            stats: LevelStats::default(),
        }
    }

    /// Returns the geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns accumulated statistics for this level.
    pub fn stats(&self) -> &LevelStats {
        &self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = LevelStats::default();
    }

    #[inline]
    fn set_index(&self, name: BlockName) -> usize {
        (name.line().as_u64() as usize) & self.set_mask
    }

    /// Slab index of `set`'s row (its occupancy word).
    #[inline]
    fn row(&self, set: usize) -> usize {
        set * self.stride
    }

    /// Slab index of `way`'s packed metadata word within `set`.
    #[inline]
    fn meta_idx(&self, set: usize, way: usize) -> usize {
        set * self.stride + 1 + self.ways + way
    }

    /// Finds the way holding `key` within `set`. Dispatches to the
    /// vector probe under the `simd` feature and the masked scalar walk
    /// otherwise; both paths are always compiled and equivalence-tested
    /// against each other (`tests/probe_equivalence.rs`).
    #[inline]
    fn find(&self, set: usize, key: u128) -> Option<usize> {
        #[cfg(feature = "simd")]
        {
            self.find_simd(set, key)
        }
        #[cfg(not(feature = "simd"))]
        {
            self.find_scalar(set, key)
        }
    }

    /// Portable probe: walk only the live ways of the occupancy bitmask,
    /// comparing one 16-byte key at a time.
    #[inline]
    fn find_scalar(&self, set: usize, key: u128) -> Option<usize> {
        let row = self.row(set);
        let keys = &self.rows[row + 1..row + 1 + self.ways];
        let mut live = self.rows[row] as u64;
        while live != 0 {
            let w = live.trailing_zeros() as usize;
            if keys[w] == key {
                return Some(w);
            }
            live &= live - 1;
        }
        None
    }

    /// Vector probe: compare the whole set's 16-byte keys against the
    /// probe key branchlessly (the compiler lowers the fixed-trip loop to
    /// SIMD compares — two `u64` lanes per way), collect the match bits,
    /// and mask with occupancy. Single-name residency guarantees at most
    /// one live match, so taking the lowest match bit is exact, and
    /// invalid slots hold [`EMPTY_KEY`] which matches no probe.
    #[inline]
    fn find_simd(&self, set: usize, key: u128) -> Option<usize> {
        let row = self.row(set);
        let mut matches = 0u64;
        for (w, &k) in self.rows[row + 1..row + 1 + self.ways].iter().enumerate() {
            matches |= ((k == key) as u64) << w;
        }
        matches &= self.rows[row] as u64;
        if matches != 0 {
            Some(matches.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Scalar set probe of `name`, exposed (with [`Cache::probe_simd`])
    /// for the SIMD-vs-scalar equivalence proptests. Returns the hit
    /// way, if any.
    #[doc(hidden)]
    pub fn probe_scalar(&self, name: BlockName) -> Option<usize> {
        self.find_scalar(self.set_index(name), key_of(name))
    }

    /// Vector set probe of `name`; see [`Cache::probe_scalar`].
    #[doc(hidden)]
    pub fn probe_simd(&self, name: BlockName) -> Option<usize> {
        self.find_simd(self.set_index(name), key_of(name))
    }

    /// Looks up `name`; on a hit updates LRU and (for writes) the dirty
    /// bit, and returns `true`.
    #[inline]
    pub fn access(&mut self, name: BlockName, write: bool) -> bool {
        self.tick += 1;
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            let m = &mut self.rows[set * self.stride + 1 + self.ways + way];
            *m = (*m & !META_LRU_MASK) | ((self.tick as u128) << META_LRU_SHIFT) | (write as u128);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// [`Cache::access`] returning the cached permissions on a hit — one
    /// way-scan where an `access` + [`Cache::permissions`] pair would do
    /// two.
    #[inline]
    pub fn access_perm(&mut self, name: BlockName, write: bool) -> Option<Permissions> {
        self.tick += 1;
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            let m = &mut self.rows[set * self.stride + 1 + self.ways + way];
            *m = (*m & !META_LRU_MASK) | ((self.tick as u128) << META_LRU_SHIFT) | (write as u128);
            self.stats.hits += 1;
            Some(meta_perm(*m))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// [`Cache::access`] that additionally records `core` in the sharer
    /// set and returns the cached permissions — the LLC hit path in one
    /// way-scan instead of three (`access` + `permissions` +
    /// [`Cache::add_sharer`]).
    #[inline]
    pub fn access_sharing(
        &mut self,
        name: BlockName,
        write: bool,
        core: usize,
    ) -> Option<Permissions> {
        self.tick += 1;
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            let m = &mut self.rows[set * self.stride + 1 + self.ways + way];
            *m = (*m & !META_LRU_MASK)
                | ((self.tick as u128) << META_LRU_SHIFT)
                | (write as u128)
                | (1u128 << (META_SHARERS_SHIFT as usize + core));
            self.stats.hits += 1;
            Some(meta_perm(*m))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Probes for `name` without updating LRU or statistics.
    #[inline]
    pub fn contains(&self, name: BlockName) -> bool {
        self.find(self.set_index(name), key_of(name)).is_some()
    }

    /// Returns the permission bits cached with `name`, if present.
    #[inline]
    pub fn permissions(&self, name: BlockName) -> Option<Permissions> {
        let set = self.set_index(name);
        self.find(set, key_of(name))
            .map(|way| meta_perm(self.rows[self.meta_idx(set, way)]))
    }

    /// Inserts `name` (filling after a miss); returns the victim if the
    /// set was full. If the block is already present this refreshes its
    /// LRU/dirty state instead of duplicating it.
    pub fn fill(&mut self, name: BlockName, dirty: bool, perm: Permissions) -> Option<Victim> {
        self.tick += 1;
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            let m = &mut self.rows[set * self.stride + 1 + self.ways + way];
            *m = (*m & META_SHARERS_MASK)
                | (*m & META_DIRTY)
                | (dirty as u128)
                | ((perm.bits() as u128) << META_PERM_SHIFT)
                | ((self.tick as u128) << META_LRU_SHIFT);
            return None;
        }
        self.insert_absent(set, name, dirty, perm, 0)
            .map(|(v, _)| v)
    }

    /// Inserts `name` directly after a miss of the same name, skipping the
    /// residency probe [`Cache::fill`] performs: the caller guarantees the
    /// block is absent (it just missed this level and nothing filled it in
    /// between), so the hierarchy does one way-scan per miss instead of
    /// two.
    pub fn fill_after_miss(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
    ) -> Option<Victim> {
        self.tick += 1;
        let set = self.set_index(name);
        debug_assert!(
            self.find(set, key_of(name)).is_none(),
            "fill_after_miss of a resident line"
        );
        self.insert_absent(set, name, dirty, perm, 0)
            .map(|(v, _)| v)
    }

    /// Merges a private-cache victim into its (inclusive-resident) LLC
    /// line and removes `core` from its sharer set — one way-scan for
    /// what would otherwise be a [`Cache::fill`] + [`Cache::remove_sharer`]
    /// pair. Falls back to a plain insert if the line is somehow absent,
    /// exactly as the unfused pair would.
    pub fn fill_unshare(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        core: usize,
    ) -> Option<Victim> {
        self.tick += 1;
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            let m = &mut self.rows[set * self.stride + 1 + self.ways + way];
            *m = ((*m & META_SHARERS_MASK) & !(1u128 << (META_SHARERS_SHIFT as usize + core)))
                | (*m & META_DIRTY)
                | (dirty as u128)
                | ((perm.bits() as u128) << META_PERM_SHIFT)
                | ((self.tick as u128) << META_LRU_SHIFT);
            return None;
        }
        self.insert_absent(set, name, dirty, perm, 0)
            .map(|(v, _)| v)
    }

    /// [`Cache::fill_after_miss`] for the directory-holding LLC: seeds the
    /// new line's sharer set with `sharers` (saving the separate
    /// `add_sharer` scan) and reports the evicted line's sharer bitmap, so
    /// the hierarchy back-invalidates only private caches that actually
    /// hold the victim.
    pub fn fill_after_miss_tracked(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        sharers: u32,
    ) -> Option<(Victim, u32)> {
        self.tick += 1;
        let set = self.set_index(name);
        debug_assert!(
            self.find(set, key_of(name)).is_none(),
            "fill_after_miss of a resident line"
        );
        self.insert_absent(set, name, dirty, perm, sharers)
    }

    /// Places `name` into `set`, evicting the LRU way if the set is full.
    /// LRU ticks are unique among live lines (every residency-granting or
    /// refreshing operation stamps a fresh tick), so the minimum is unique
    /// and victim choice does not depend on slot order. Returns the victim
    /// together with its sharer bitmap.
    fn insert_absent(
        &mut self,
        set: usize,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        sharers: u32,
    ) -> Option<(Victim, u32)> {
        let row = self.row(set);
        let mask = self.rows[row] as u64;
        let mut victim = None;
        let way = if mask.count_ones() as usize == self.ways {
            let mut live = mask;
            let mut best = 0usize;
            let mut best_lru = u64::MAX;
            while live != 0 {
                let w = live.trailing_zeros() as usize;
                let lru = (self.rows[row + 1 + self.ways + w] >> META_LRU_SHIFT) as u64;
                if lru < best_lru {
                    best_lru = lru;
                    best = w;
                }
                live &= live - 1;
            }
            let old = unpack_meta(self.rows[row + 1 + self.ways + best]);
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            victim = Some((
                Victim {
                    name: name_of(self.rows[row + 1 + best]),
                    dirty: old.dirty,
                },
                old.sharers,
            ));
            best
        } else {
            (!mask).trailing_zeros() as usize
        };
        self.rows[row + 1 + way] = key_of(name);
        self.rows[row + 1 + self.ways + way] = pack_meta(Meta {
            dirty,
            perm,
            lru: self.tick,
            sharers,
        });
        self.rows[row] |= 1u128 << way;
        victim
    }

    /// Removes `name` if present, returning its victim record (dirty state
    /// preserved so the caller can write it back).
    pub fn invalidate(&mut self, name: BlockName) -> Option<Victim> {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            let row = self.row(set);
            let dirty = (self.rows[row + 1 + self.ways + way] & META_DIRTY) != 0;
            self.rows[row + 1 + way] = EMPTY_KEY;
            self.rows[row + 1 + self.ways + way] = 0;
            self.rows[row] &= !(1u128 << way);
            self.stats.invalidations += 1;
            Some(Victim { name, dirty })
        } else {
            None
        }
    }

    /// Marks `name` dirty if present, without touching LRU or statistics
    /// (coherence fold-in of a remote modified copy).
    pub fn mark_dirty(&mut self, name: BlockName) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            self.rows[self.meta_idx(set, way)] |= META_DIRTY;
        }
    }

    /// Marks `name` clean (after a writeback) if present.
    pub fn clean(&mut self, name: BlockName) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            self.rows[self.meta_idx(set, way)] &= !META_DIRTY;
        }
    }

    /// Downgrades the cached permissions of every line of the given
    /// virtual page to read-only (the paper's content-sharing transition).
    /// One-page form of [`Cache::downgrade_pages_read_only`].
    pub fn downgrade_page_read_only(&mut self, asid: Asid, vpage: u64) {
        self.downgrade_pages_read_only(asid, vpage, 1);
    }

    /// Downgrades every line of the `count` virtual pages starting at
    /// `first` to read-only. Small ranges probe each line's own set,
    /// large ones sweep the cache once (see `update_range`); the result
    /// is identical either way.
    pub fn downgrade_pages_read_only(&mut self, asid: Asid, first: u64, count: u64) {
        self.update_range(
            virt_tag(asid),
            first * PAGE_LINES,
            count * PAGE_LINES,
            |_, meta| {
                meta.perm = meta.perm.downgraded_read_only();
                true
            },
        );
    }

    /// Invalidates every line belonging to the virtual page `(asid,
    /// vpage)`, appending dirty victims to `victims` (a reusable scratch
    /// buffer the caller clears between flushes). One-page form of
    /// [`Cache::flush_virt_pages`].
    pub fn flush_virt_page(&mut self, asid: Asid, vpage: u64, victims: &mut Vec<Victim>) {
        self.flush_virt_pages(asid, vpage, 1, victims);
    }

    /// Invalidates every line of the `count` virtual pages of `asid`
    /// starting at `first`, appending dirty victims to `victims`. A range
    /// with fewer lines than the cache has sets probes each line's key in
    /// its own set; a larger one sweeps every set once with a range test.
    /// Contents, statistics, and the victim multiset are identical either
    /// way, and identical to `count` one-page flushes.
    pub fn flush_virt_pages(
        &mut self,
        asid: Asid,
        first: u64,
        count: u64,
        victims: &mut Vec<Victim>,
    ) {
        self.flush_range(
            virt_tag(asid),
            first * PAGE_LINES,
            count * PAGE_LINES,
            victims,
        );
    }

    /// Invalidates every physically-named line of the frame whose base
    /// byte address is `frame_base`, appending dirty victims to `victims`.
    /// The OS requests this when a freed synonym frame goes back to the
    /// allocator — physically-tagged lines survive every per-space flush.
    /// One-frame form of [`Cache::flush_phys_frames`].
    pub fn flush_phys_frame(&mut self, frame_base: u64, victims: &mut Vec<Victim>) {
        self.flush_phys_frames(frame_base, 1, victims);
    }

    /// Invalidates every physically-named line of the `count` frames
    /// starting at byte address `frame_base`, appending dirty victims to
    /// `victims`; probes or sweeps by size as [`Cache::flush_virt_pages`]
    /// does, and identical to `count` one-frame flushes.
    pub fn flush_phys_frames(&mut self, frame_base: u64, count: u64, victims: &mut Vec<Victim>) {
        self.flush_range(
            PHYS_TAG,
            (frame_base >> PAGE_SHIFT) * PAGE_LINES,
            count * PAGE_LINES,
            victims,
        );
    }

    /// Invalidates every line of an address space (process teardown),
    /// appending dirty victims to `victims`. Always a full sweep. Like
    /// every flush it counts its dirty victims as invalidations, so this
    /// and a page flush of the same space count the same in total
    /// whichever runs first.
    pub fn flush_asid(&mut self, asid: Asid, victims: &mut Vec<Victim>) {
        self.flush_range(virt_tag(asid), 0, u64::MAX, victims);
    }

    /// Number of resident lines (for tests and occupancy reporting).
    pub fn occupancy(&self) -> usize {
        (0..=self.set_mask)
            .map(|set| (self.rows[set * self.stride] as u64).count_ones() as usize)
            .sum()
    }

    /// Iterates over resident block names (used by inclusion checks in
    /// tests).
    pub fn resident_names(&self) -> impl Iterator<Item = BlockName> + '_ {
        (0..=self.set_mask).flat_map(move |set| {
            let row = set * self.stride;
            BitIter(self.rows[row] as u64).map(move |w| name_of(self.rows[row + 1 + w]))
        })
    }

    // --- LLC sharer tracking (MESI-style directory-in-LLC) ---

    /// Adds `core` to the sharer set of `name` (LLC use only).
    pub fn add_sharer(&mut self, name: BlockName, core: usize) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            self.rows[self.meta_idx(set, way)] |= 1u128 << (META_SHARERS_SHIFT as usize + core);
        }
    }

    /// Removes `core` from the sharer set of `name` (LLC use only).
    pub fn remove_sharer(&mut self, name: BlockName, core: usize) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, key_of(name)) {
            self.rows[self.meta_idx(set, way)] &= !(1u128 << (META_SHARERS_SHIFT as usize + core));
        }
    }

    /// Returns the sharer bitmap of `name` (LLC use only).
    pub fn sharers(&self, name: BlockName) -> u32 {
        let set = self.set_index(name);
        self.find(set, key_of(name)).map_or(0, |way| {
            (self.rows[self.meta_idx(set, way)] >> META_SHARERS_SHIFT) as u32
        })
    }

    /// Invalidates the lines `update_range` selects, appending the dirty
    /// ones to `victims` and counting them as invalidations.
    fn flush_range(&mut self, tag: u64, first: u64, lines: u64, victims: &mut Vec<Victim>) {
        let before = victims.len();
        self.update_range(tag, first, lines, |name, meta| {
            if meta.dirty {
                victims.push(Victim { name, dirty: true });
            }
            false
        });
        self.stats.invalidations += (victims.len() - before) as u64;
    }

    /// The set-range primitive behind every flush and downgrade: visits
    /// each live line whose key has tag word `tag` and line address in
    /// `[first, first + lines)`, and invalidates those for which `f`
    /// returns `false`.
    ///
    /// `set_index` is `line & set_mask`, so consecutive lines sit in
    /// consecutive sets. A range of fewer lines than the cache has sets
    /// is therefore served by one keyed probe per line (as
    /// `Tlb::flush_page` probes one set); anything larger is one sweep of
    /// every set with a range test. Each line is visited at most once
    /// either way, and `f` sees only that line, so both strategies leave
    /// identical contents.
    fn update_range(
        &mut self,
        tag: u64,
        first: u64,
        lines: u64,
        mut f: impl FnMut(BlockName, &mut Meta) -> bool,
    ) {
        if lines <= self.set_mask as u64 {
            for line in first..first + lines {
                let set = line as usize & self.set_mask;
                if let Some(way) = self.find(set, (line as u128) | ((tag as u128) << 64)) {
                    self.update_way(set, way, &mut f);
                }
            }
            return;
        }
        for set in 0..=self.set_mask {
            let row = self.row(set);
            let mut live = self.rows[row] as u64;
            while live != 0 {
                let w = live.trailing_zeros() as usize;
                live &= live - 1;
                let key = self.rows[row + 1 + w];
                if (key >> 64) as u64 == tag && (key as u64).wrapping_sub(first) < lines {
                    self.update_way(set, w, &mut f);
                }
            }
        }
    }

    /// Applies an `update_range` callback to one live way.
    #[inline]
    fn update_way(
        &mut self,
        set: usize,
        way: usize,
        f: &mut impl FnMut(BlockName, &mut Meta) -> bool,
    ) {
        let row = self.row(set);
        let ki = row + 1 + way;
        let mi = row + 1 + self.ways + way;
        let mut meta = unpack_meta(self.rows[mi]);
        if f(name_of(self.rows[ki]), &mut meta) {
            self.rows[mi] = pack_meta(meta);
        } else {
            self.rows[row] &= !(1u128 << way);
            self.rows[ki] = EMPTY_KEY;
            self.rows[mi] = 0;
        }
    }
}

/// Iterator over the set bit positions of a `u64` mask, low to high.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }
}

/// Returns the block names of all 64 lines of a virtual page — a helper
/// for page-granularity operations on physical names.
#[cfg(test)]
pub(crate) fn lines_of_virt_page(asid: Asid, vpage: u64) -> impl Iterator<Item = BlockName> {
    (0..PAGE_LINES).map(move |i| BlockName::Virt(asid, LineAddr::new(vpage * PAGE_LINES + i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::Cycles;

    fn tiny() -> Cache {
        // 4 lines, 2 ways, 2 sets.
        Cache::new(CacheConfig::new(256, 2, Cycles::new(1)))
    }

    fn v(asid: u16, line: u64) -> BlockName {
        BlockName::Virt(Asid::new(asid), LineAddr::new(line))
    }

    fn p(line: u64) -> BlockName {
        BlockName::Phys(LineAddr::new(line))
    }

    #[test]
    fn meta_word_roundtrips() {
        let m = Meta {
            dirty: true,
            perm: Permissions::RX,
            lru: u64::MAX - 7,
            sharers: 0xdead_beef,
        };
        let back = unpack_meta(pack_meta(m));
        assert_eq!(back.dirty, m.dirty);
        assert_eq!(back.perm, m.perm);
        assert_eq!(back.lru, m.lru);
        assert_eq!(back.sharers, m.sharers);
    }

    #[test]
    fn row_stride_is_whole_host_lines() {
        for ways in [1usize, 2, 4, 8, 16] {
            let stride = (2 * ways + 1 + 3) & !3;
            assert_eq!(stride % 4, 0, "ways {ways}");
            assert!(stride > 2 * ways, "ways {ways}");
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(v(1, 0), false));
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(c.access(v(1, 0), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.fill(v(1, 0), false, Permissions::RW);
        c.fill(v(1, 2), false, Permissions::RW);
        c.access(v(1, 0), false); // make line 0 most recent
        let victim = c.fill(v(1, 4), false, Permissions::RW).expect("eviction");
        assert_eq!(victim.name, v(1, 2));
    }

    #[test]
    fn dirty_victims_are_reported() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.fill(v(1, 2), false, Permissions::RW);
        let victim = c.fill(v(1, 4), false, Permissions::RW).unwrap();
        assert_eq!(
            victim,
            Victim {
                name: v(1, 0),
                dirty: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_sets_dirty_bit() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        c.access(v(1, 0), true);
        let victim = c.invalidate(v(1, 0)).unwrap();
        assert!(victim.dirty);
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.clean(v(1, 0));
        assert!(!c.invalidate(v(1, 0)).unwrap().dirty);
    }

    #[test]
    fn refill_of_resident_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(c.fill(v(1, 0), true, Permissions::RW).is_none());
        assert_eq!(c.occupancy(), 1);
        // Dirty bit merged.
        assert!(c.invalidate(v(1, 0)).unwrap().dirty);
    }

    #[test]
    fn fill_after_miss_inserts_and_evicts_like_fill() {
        let mut c = tiny();
        assert!(!c.access(v(1, 0), false));
        assert!(c.fill_after_miss(v(1, 0), false, Permissions::RW).is_none());
        assert!(c.access(v(1, 0), false));
        assert!(!c.access(v(1, 2), false));
        c.fill_after_miss(v(1, 2), true, Permissions::RW);
        assert!(!c.access(v(1, 4), false));
        let victim = c.fill_after_miss(v(1, 4), false, Permissions::RW).unwrap();
        // Line 0's last touch predates line 2's fill, so 0 is the victim.
        assert_eq!(victim.name, v(1, 0));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn access_perm_reports_hit_permissions() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::READ);
        assert_eq!(c.access_perm(v(1, 0), false), Some(Permissions::READ));
        assert_eq!(c.access_perm(v(1, 2), false), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn access_sharing_records_core_and_returns_perm() {
        let mut c = tiny();
        c.fill(p(0), false, Permissions::RW);
        assert_eq!(c.access_sharing(p(0), true, 2), Some(Permissions::RW));
        assert_eq!(c.sharers(p(0)), 0b100);
        assert!(c.invalidate(p(0)).unwrap().dirty, "write set the dirty bit");
        assert_eq!(c.access_sharing(p(0), false, 0), None, "gone after inval");
    }

    #[test]
    fn tracked_fill_seeds_sharers_and_reports_victim_sharers() {
        let mut c = tiny();
        let (_, vs) = {
            c.fill_after_miss_tracked(v(1, 0), false, Permissions::RW, 0b01);
            c.fill_after_miss_tracked(v(1, 2), false, Permissions::RW, 0b10);
            c.fill_after_miss_tracked(v(1, 4), false, Permissions::RW, 0)
                .expect("set 0 full, LRU victim evicted")
        };
        assert_eq!(vs, 0b01, "victim v(1,0) carried its seeded sharer set");
        assert_eq!(c.sharers(v(1, 2)), 0b10);
    }

    #[test]
    fn asid_distinguishes_same_line() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(!c.access(v(2, 0), false), "homonym must not hit");
        assert!(c.contains(v(1, 0)));
        assert!(!c.contains(v(2, 0)));
    }

    #[test]
    fn phys_and_virt_names_are_disjoint() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(!c.access(p(0), false));
    }

    #[test]
    fn flush_phys_frame_removes_only_that_frame() {
        let mut c = Cache::new(CacheConfig::new(64 * 128, 2, Cycles::new(1)));
        // Lines 0 and 5 live in the frame at byte 0; line 64 is the
        // first line of the next frame; virtual names never match.
        c.fill(p(0), false, Permissions::RW);
        c.fill(p(5), true, Permissions::RW);
        c.fill(p(64), false, Permissions::RW);
        c.fill(v(1, 0), false, Permissions::RW);
        let mut victims = Vec::new();
        c.flush_phys_frame(0, &mut victims);
        assert_eq!(victims.len(), 1, "one dirty line in the frame");
        assert_eq!(victims[0].name, p(5));
        assert!(!c.contains(p(0)) && !c.contains(p(5)));
        assert!(c.contains(p(64)), "next frame untouched");
        assert!(c.contains(v(1, 0)), "virtual names untouched");
    }

    #[test]
    fn flush_virt_page_removes_all_lines_of_page() {
        let mut c = Cache::new(CacheConfig::new(64 * 128, 2, Cycles::new(1)));
        // Page 0 of ASID 1: lines 0..64.
        for name in lines_of_virt_page(Asid::new(1), 0) {
            c.fill(name, false, Permissions::RW);
        }
        c.access(v(1, 5), true); // dirty one line
        let mut victims = Vec::new();
        c.flush_virt_page(Asid::new(1), 0, &mut victims);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].name, v(1, 5));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_asid_spares_other_spaces() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.fill(v(2, 1), false, Permissions::RW);
        c.fill(p(3), false, Permissions::RW);
        let mut victims = Vec::new();
        c.flush_asid(Asid::new(1), &mut victims);
        assert_eq!(victims.len(), 1);
        assert!(!c.contains(v(1, 0)));
        assert!(c.contains(v(2, 1)));
        assert!(c.contains(p(3)));
    }

    #[test]
    fn flush_scratch_buffer_appends_across_calls() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.fill(v(2, 1), true, Permissions::RW);
        let mut victims = Vec::new();
        c.flush_asid(Asid::new(1), &mut victims);
        c.flush_asid(Asid::new(2), &mut victims);
        assert_eq!(victims.len(), 2, "flushes append, callers clear");
    }

    #[test]
    fn downgrade_page_clears_write_permission() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        c.downgrade_page_read_only(Asid::new(1), 0);
        assert_eq!(c.permissions(v(1, 0)), Some(Permissions::READ));
    }

    #[test]
    fn sharer_tracking() {
        let mut c = tiny();
        c.fill(p(0), false, Permissions::RW);
        c.add_sharer(p(0), 0);
        c.add_sharer(p(0), 2);
        assert_eq!(c.sharers(p(0)), 0b101);
        c.remove_sharer(p(0), 0);
        assert_eq!(c.sharers(p(0)), 0b100);
        assert_eq!(c.sharers(p(99)), 0);
    }

    #[test]
    fn lines_of_page_enumerates_64_lines() {
        let names: Vec<_> = lines_of_virt_page(Asid::new(1), 2).collect();
        assert_eq!(names.len(), 64);
        assert_eq!(names[0], v(1, 128));
        assert_eq!(names[63], v(1, 191));
    }
}
