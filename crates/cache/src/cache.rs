//! A single set-associative cache level keyed by [`BlockName`].

use crate::{CacheConfig, LevelStats};
use hvc_types::{Asid, BlockName, LruSets, Permissions, LINE_SHIFT, PAGE_SHIFT};

/// An evicted line returned to the caller for writeback handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The unique name of the evicted block.
    pub name: BlockName,
    /// Whether the block was dirty (needs a writeback).
    pub dirty: bool,
}

/// The line a [`Cache::fill_absent`] displaced, with the state the
/// hierarchy needs to retire it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Evicted {
    /// The displaced line and its dirty bit.
    pub(crate) victim: Victim,
    /// Its sharer bitmap (LLC lines).
    pub(crate) sharers: u32,
    /// The way its copy holds one level out (private lines).
    pub(crate) parent: usize,
}

/// Per-line state other than the name and the recency rank, in unpacked
/// form. In the slab it is packed into one state word per way (see the
/// `STATE_*` layout constants); this struct is the working representation
/// handed to `update_range` callbacks. `sharers` is used only by the LLC
/// level of a multi-core [`crate::Hierarchy`] to track which private
/// caches hold the block (MESI-style directory-in-LLC); `parent` only by
/// the private levels, for the way their line's copy holds one level out.
#[derive(Clone, Copy, Debug)]
struct Meta {
    dirty: bool,
    perm: Permissions,
    parent: usize,
    sharers: u32,
}

/// State word layout (the store's one payload column): bit 0 the dirty
/// flag, bits 8..16 the permission bits, bits 16..20 the parent way,
/// bits 32..64 the sharer bitmap.
const STATE_DIRTY: u64 = 1;
const STATE_PERM_SHIFT: u32 = 8;
const STATE_PARENT_SHIFT: u32 = 16;
const STATE_PARENT_MASK: u64 = 0xF << STATE_PARENT_SHIFT;
const STATE_SHARERS_SHIFT: u32 = 32;
const STATE_SHARERS_MASK: u64 = (u32::MAX as u64) << STATE_SHARERS_SHIFT;

/// The state bits a refill of a resident line keeps: everything but the
/// permissions, which it replaces, and the dirty flag, which it ORs in.
const STATE_KEPT: u64 = STATE_DIRTY | STATE_PARENT_MASK | STATE_SHARERS_MASK;

#[inline]
fn pack_meta(m: Meta) -> u64 {
    (m.dirty as u64)
        | ((m.perm.bits() as u64) << STATE_PERM_SHIFT)
        | ((m.parent as u64) << STATE_PARENT_SHIFT)
        | ((m.sharers as u64) << STATE_SHARERS_SHIFT)
}

#[inline]
fn unpack_meta(w: u64) -> Meta {
    Meta {
        dirty: (w & STATE_DIRTY) != 0,
        perm: state_perm(w),
        parent: ((w & STATE_PARENT_MASK) >> STATE_PARENT_SHIFT) as usize,
        sharers: (w >> STATE_SHARERS_SHIFT) as u32,
    }
}

#[inline]
fn state_perm(w: u64) -> Permissions {
    Permissions::from_bits((w >> STATE_PERM_SHIFT) as u8)
}

/// The state word of a resident line refilled dirty or not with `perm`.
#[inline]
fn refilled(state: u64, dirty: bool, perm: Permissions) -> u64 {
    (state & STATE_KEPT) | (dirty as u64) | ((perm.bits() as u64) << STATE_PERM_SHIFT)
}

/// State-word bit of `core` in the sharer bitmap.
#[inline]
fn sharer_bit(core: usize) -> u64 {
    1 << (STATE_SHARERS_SHIFT as usize + core)
}

/// Width of the line-address field of a key. Every line the simulator
/// names fits: physical and guest-physical lines are 46 bits, virtual
/// lines 42, and Enigma's intermediate lines stay below bit 41 for the
/// first 4096 shared objects.
const LINE_BITS: u32 = 46;

/// Line-address field of a key.
const LINE_MASK: u64 = (1 << LINE_BITS) - 1;

/// Tag field (above the line address) of virtually-named blocks; sits
/// just above the 16 ASID bits, so `VIRT_TAG | asid` never collides with
/// the physical tag (0) for any ASID.
const VIRT_TAG: u64 = 1 << 16;

/// Tag field of physically-named blocks.
const PHYS_TAG: u64 = 0;

/// Lines per 4 KB page: a page's lines are `vpage * PAGE_LINES ..` on.
const PAGE_LINES: u64 = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// Tag field of the virtually-named blocks of `asid`.
#[inline]
fn virt_tag(asid: Asid) -> u64 {
    VIRT_TAG | asid.as_u16() as u64
}

/// Packs a tag field and a line address into one key word.
#[inline]
fn pack_key(tag: u64, line: u64) -> u64 {
    debug_assert!(
        line <= LINE_MASK,
        "line {line:#x} exceeds the {LINE_BITS}-bit key field"
    );
    line | (tag << LINE_BITS)
}

/// Packs a [`BlockName`] into the 8-byte tag-array form: bits 0..46 the
/// line address, the synonym/ASID tag above it (`0` = physical,
/// `VIRT_TAG | asid` = virtual). The packing is injective, so key
/// equality is name equality and a set probe is a bare 64-bit compare.
/// The line address at the bottom selects the set, as in hardware. Keys
/// use at most 63 bits (a 17-bit tag above the 46-bit line), so no name
/// packs to `u64::MAX`, the store's free-way filler.
#[inline]
fn key_of(name: BlockName) -> u64 {
    match name {
        BlockName::Phys(line) => pack_key(PHYS_TAG, line.as_u64()),
        BlockName::Virt(asid, line) => pack_key(virt_tag(asid), line.as_u64()),
    }
}

/// Inverse of [`key_of`] for live slots.
#[inline]
fn name_of(key: u64) -> BlockName {
    let line = hvc_types::LineAddr::new(key & LINE_MASK);
    let tag = key >> LINE_BITS;
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
/// The tags are one [`LruSets`] store with one payload column, so a row
/// is `[key[ways] | state[ways] | occupancy | recency]`: the packed
/// block-name keys a probe scans (see `key_of`), one packed
/// dirty/permission/parent-way/sharer state word per way, touched only
/// on the way that hit, the occupancy bitmask that fills and sweeps read,
/// and the set's recency word. A 16-way row is 320 B and a probe scans
/// its first 128 B. At most 16 ways.
///
/// A resident line never changes ways, so the way a hit reports
/// ([`Cache::access_perm`], [`Cache::access_sharing`]) or a fill takes
/// names the line until it leaves: the hierarchy stores it in the line's
/// private copies and updates the line there without a scan.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    tags: LruSets,
    stats: LevelStats,
    /// Resident lines.
    live: usize,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 16 ways.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            tags: LruSets::new(config.sets(), config.ways, 1),
            config,
            stats: LevelStats::default(),
            live: 0,
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

    /// The set and key of `name`.
    #[inline]
    fn locate(&self, name: BlockName) -> (usize, u64) {
        let key = key_of(name);
        (self.tags.set_of(key), key)
    }

    /// The way holding `name` and its set, if resident.
    #[inline]
    fn find(&self, name: BlockName) -> Option<(usize, usize)> {
        let (set, key) = self.locate(name);
        self.tags.find(set, key).map(|way| (set, way))
    }

    /// Moves `way` of `set` to the most recent rank and returns its
    /// state word for the caller to update.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) -> &mut u64 {
        self.tags.touch(set, way);
        self.tags.payload_mut(set, way, 0)
    }

    /// Looks up `name`; on a hit updates LRU and (for writes) the dirty
    /// bit, and returns `true`.
    #[inline]
    pub fn access(&mut self, name: BlockName, write: bool) -> bool {
        if let Some((set, way)) = self.find(name) {
            let state = self.touch(set, way);
            // A read hit leaves the state word (a separate host line) alone.
            if write {
                *state |= STATE_DIRTY;
            }
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// [`Cache::access`] returning the cached permissions and the way on
    /// a hit — one way-scan where an `access` + [`Cache::permissions`]
    /// pair would do two.
    #[inline]
    pub fn access_perm(&mut self, name: BlockName, write: bool) -> Option<(Permissions, usize)> {
        if let Some((set, way)) = self.find(name) {
            let state = self.touch(set, way);
            if write {
                *state |= STATE_DIRTY;
            }
            let perm = state_perm(*state);
            self.stats.hits += 1;
            Some((perm, way))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// [`Cache::access`] that additionally records `core` in the sharer
    /// set and returns the cached permissions and the way — the LLC hit
    /// path in one way-scan instead of three (`access` + `permissions` +
    /// [`Cache::add_sharer`]).
    #[inline]
    pub fn access_sharing(
        &mut self,
        name: BlockName,
        write: bool,
        core: usize,
    ) -> Option<(Permissions, usize)> {
        if let Some((set, way)) = self.find(name) {
            let state = self.touch(set, way);
            *state |= (write as u64) | sharer_bit(core);
            let perm = state_perm(*state);
            self.stats.hits += 1;
            Some((perm, way))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Probes for `name` without updating LRU or statistics.
    #[inline]
    pub fn contains(&self, name: BlockName) -> bool {
        self.find(name).is_some()
    }

    /// Returns the permission bits cached with `name`, if present.
    #[inline]
    pub fn permissions(&self, name: BlockName) -> Option<Permissions> {
        self.find(name)
            .map(|(set, way)| state_perm(self.tags.payload(set, way, 0)))
    }

    /// Inserts `name` (filling after a miss); returns the victim if the
    /// set was full. If the block is already present this refreshes its
    /// LRU/dirty state instead of duplicating it.
    pub fn fill(&mut self, name: BlockName, dirty: bool, perm: Permissions) -> Option<Victim> {
        if let Some((set, way)) = self.find(name) {
            let state = self.touch(set, way);
            *state = refilled(*state, dirty, perm);
            return None;
        }
        self.fill_absent(name, dirty, perm, 0, 0)
            .1
            .map(|e| e.victim)
    }

    /// Places `name`, which the caller guarantees is absent (it just
    /// missed this level and nothing filled it since), evicting the least
    /// recently used line if its set is full: one insert and no residency
    /// probe. The new line starts with `sharers` as its sharer set and
    /// `parent` as its parent way. Returns the way it took and the
    /// displaced line.
    pub(crate) fn fill_absent(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        sharers: u32,
        parent: usize,
    ) -> (usize, Option<Evicted>) {
        let (set, key) = self.locate(name);
        let (way, evicted) = self.tags.insert(set, key);
        let state = self.tags.payload_mut(set, way, 0);
        let old = unpack_meta(*state);
        *state = pack_meta(Meta {
            dirty,
            perm,
            parent,
            sharers,
        });
        let Some(victim) = evicted else {
            self.live += 1;
            return (way, None);
        };
        self.stats.evictions += 1;
        if old.dirty {
            self.stats.writebacks += 1;
        }
        let evicted = Evicted {
            victim: Victim {
                name: name_of(victim),
                dirty: old.dirty,
            },
            sharers: old.sharers,
            parent: old.parent,
        };
        (way, Some(evicted))
    }

    /// The set of the resident `name` held at `way`.
    #[inline]
    fn set_at(&self, name: BlockName, way: usize) -> usize {
        let (set, key) = self.locate(name);
        debug_assert_eq!(self.tags.key(set, way), key, "{name:?} is not at way {way}");
        set
    }

    /// Writes a dirty child victim back into its resident copy `name` at
    /// `way` (the parent way the child stored): a [`Cache::fill`] of
    /// `name`, dirty, with `perm`, without the scan.
    pub(crate) fn write_back_at(&mut self, name: BlockName, way: usize, perm: Permissions) {
        let set = self.set_at(name, way);
        let state = self.touch(set, way);
        *state = refilled(*state, true, perm);
    }

    /// [`Cache::remove_sharer`] of the resident `name` that `way` holds.
    /// No scan.
    pub(crate) fn unshare_at(&mut self, name: BlockName, way: usize, core: usize) {
        let set = self.set_at(name, way);
        *self.tags.payload_mut(set, way, 0) &= !sharer_bit(core);
    }

    /// Removes `name` if present, returning its victim record (dirty state
    /// preserved so the caller can write it back).
    pub fn invalidate(&mut self, name: BlockName) -> Option<Victim> {
        if let Some((set, way)) = self.find(name) {
            let dirty = (self.tags.payload(set, way, 0) & STATE_DIRTY) != 0;
            self.tags.clear_way(set, way);
            self.live -= 1;
            self.stats.invalidations += 1;
            Some(Victim { name, dirty })
        } else {
            None
        }
    }

    /// Marks `name` dirty if present, without touching LRU or statistics
    /// (coherence fold-in of a remote modified copy).
    pub fn mark_dirty(&mut self, name: BlockName) {
        if let Some((set, way)) = self.find(name) {
            *self.tags.payload_mut(set, way, 0) |= STATE_DIRTY;
        }
    }

    /// Downgrades every line of the `count` virtual pages starting at
    /// `first` to read-only (the paper's content-sharing transition). Small ranges probe each line's own set,
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

    /// Invalidates every line of the `count` virtual pages of `asid`
    /// starting at `first`, appending dirty victims to `victims` (a
    /// reusable scratch buffer the caller clears between flushes). A range
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

    /// Invalidates every physically-named line of the `count` frames
    /// starting at byte address `frame_base`, appending dirty victims to
    /// `victims`; probes or sweeps by size as [`Cache::flush_virt_pages`]
    /// does. The OS requests this when a freed synonym frame goes back to
    /// the allocator — physically-tagged lines survive every per-space
    /// flush.
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

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// `true` if no line is resident.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over resident block names (used by inclusion checks in
    /// tests).
    pub fn resident_names(&self) -> impl Iterator<Item = BlockName> + '_ {
        self.tags
            .slots()
            .map(|(set, way)| name_of(self.tags.key(set, way)))
    }

    // --- LLC sharer tracking (MESI-style directory-in-LLC) ---

    /// Adds `core` to the sharer set of `name` (LLC use only).
    pub fn add_sharer(&mut self, name: BlockName, core: usize) {
        if let Some((set, way)) = self.find(name) {
            *self.tags.payload_mut(set, way, 0) |= sharer_bit(core);
        }
    }

    /// Removes `core` from the sharer set of `name` (LLC use only).
    pub fn remove_sharer(&mut self, name: BlockName, core: usize) {
        if let Some((set, way)) = self.find(name) {
            *self.tags.payload_mut(set, way, 0) &= !sharer_bit(core);
        }
    }

    /// Returns the sharer bitmap of `name` (LLC use only).
    pub fn sharers(&self, name: BlockName) -> u32 {
        self.find(name).map_or(0, |(set, way)| {
            (self.tags.payload(set, way, 0) >> STATE_SHARERS_SHIFT) as u32
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
    /// each live line whose key has tag field `tag` and line address in
    /// `[first, first + lines)`, and invalidates those for which `f`
    /// returns `false`.
    ///
    /// A key's set is its line address modulo the set count, so
    /// consecutive lines sit in
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
        if lines < self.tags.sets() as u64 {
            for line in first..first + lines {
                let key = pack_key(tag, line);
                let set = self.tags.set_of(key);
                if let Some(way) = self.tags.find(set, key) {
                    self.update_way(set, way, &mut f);
                }
            }
            return;
        }
        for set in 0..self.tags.sets() {
            let mut live = self.tags.occupied(set);
            while live != 0 {
                let w = live.trailing_zeros() as usize;
                live &= live - 1;
                let key = self.tags.key(set, w);
                if key >> LINE_BITS == tag && (key & LINE_MASK).wrapping_sub(first) < lines {
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
        let mut meta = unpack_meta(self.tags.payload(set, way, 0));
        if f(name_of(self.tags.key(set, way)), &mut meta) {
            *self.tags.payload_mut(set, way, 0) = pack_meta(meta);
        } else {
            self.tags.clear_way(set, way);
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::{Cycles, LineAddr};

    /// The block names of all 64 lines of a virtual page.
    fn lines_of_virt_page(asid: Asid, vpage: u64) -> impl Iterator<Item = BlockName> {
        (0..PAGE_LINES).map(move |i| v(asid.as_u16(), vpage * PAGE_LINES + i))
    }

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
            parent: 15,
            sharers: 0xdead_beef,
        };
        let back = unpack_meta(pack_meta(m));
        assert_eq!(back.dirty, m.dirty);
        assert_eq!(back.perm, m.perm);
        assert_eq!(back.parent, m.parent);
        assert_eq!(back.sharers, m.sharers);
    }

    #[test]
    fn keys_roundtrip_at_the_extremes() {
        let top = LINE_MASK;
        let names = [
            p(0),
            p(top),
            v(0, 0),
            v(0, top),
            v(0xFFFF, 0),
            v(0xFFFF, top),
        ];
        for name in names {
            let key = key_of(name);
            assert_ne!(key, u64::MAX, "{name:?}");
            assert_eq!(name_of(key), name);
        }
        // Physical and virtual names of one line never share a key.
        assert_ne!(key_of(p(top)), key_of(v(0, top)));
        assert_ne!(key_of(p(7)), key_of(v(0, 7)));
    }

    #[test]
    fn every_named_line_fits_the_key_field() {
        use hvc_types::{GuestPhysAddr, PhysAddr, VirtAddr};
        assert_eq!(PhysAddr::MAX.line().as_u64(), LINE_MASK);
        assert_eq!(GuestPhysAddr::MAX.line().as_u64(), LINE_MASK);
        assert!(VirtAddr::MAX.line().as_u64() <= LINE_MASK);
        // Enigma's intermediate line of byte `offset` in shared object
        // `id` (`hvc_os::Kernel::intermediate_line`), at the largest
        // in-object offset.
        for id in [0u64, 4095] {
            let ia = (1u64 << 46) + (id << 34) + ((1 << 34) - 1);
            assert!(ia >> LINE_SHIFT <= LINE_MASK, "shm {id}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    #[cfg(debug_assertions)]
    fn oversized_line_is_caught() {
        let _ = key_of(p(LINE_MASK + 1));
    }

    #[test]
    fn sixteen_way_set_evicts_in_exact_lru_order() {
        // One set of 16 ways: every line maps to set 0.
        let mut c = Cache::new(CacheConfig::new(16 * 64, 16, Cycles::new(1)));
        for line in 0..16 {
            c.fill(p(line), false, Permissions::RW);
        }
        // Touch the lines at recency ranks 0 (line 15), 7 (line 8) and
        // 15 (line 0), in that order.
        for line in [15, 8, 0] {
            assert!(c.access(p(line), false));
        }
        let expected = [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 8, 0];
        for (i, &line) in expected.iter().enumerate() {
            let victim = c.fill(p(100 + i as u64), false, Permissions::RW);
            assert_eq!(victim.map(|v| v.name), Some(p(line)), "eviction {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_is_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 32 * 64,
            ways: 32,
            latency: Cycles::new(1),
        });
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
    fn refill_of_resident_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(c.fill(v(1, 0), true, Permissions::RW).is_none());
        assert_eq!(c.occupancy(), 1);
        // Dirty bit merged.
        assert!(c.invalidate(v(1, 0)).unwrap().dirty);
    }

    #[test]
    fn fill_absent_inserts_and_evicts_like_fill() {
        let mut c = tiny();
        assert!(!c.access(v(1, 0), false));
        assert_eq!(
            c.fill_absent(v(1, 0), false, Permissions::RW, 0, 0),
            (0, None)
        );
        assert!(c.access(v(1, 0), false));
        assert!(!c.access(v(1, 2), false));
        assert_eq!(c.fill_absent(v(1, 2), true, Permissions::RW, 0, 3).0, 1);
        assert!(!c.access(v(1, 4), false));
        let (way, evicted) = c.fill_absent(v(1, 4), false, Permissions::RW, 0, 0);
        // Line 0's last touch predates line 2's fill, so 0 is the victim
        // and its way is reused.
        assert_eq!(way, 0);
        assert_eq!(evicted.unwrap().victim.name, v(1, 0));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn parent_way_survives_every_state_rewrite() {
        let mut c = tiny();
        let (way, _) = c.fill_absent(v(1, 0), false, Permissions::RW, 0, 9);
        c.fill(v(1, 0), true, Permissions::READ);
        c.write_back_at(v(1, 0), way, Permissions::RW);
        c.downgrade_pages_read_only(Asid::new(1), 0, 1);
        c.access(v(1, 0), true);
        c.fill_absent(v(1, 2), false, Permissions::RW, 0, 0);
        let (_, evicted) = c.fill_absent(v(1, 4), false, Permissions::RW, 0, 0);
        let evicted = evicted.expect("set 0 is full");
        assert_eq!(
            evicted.victim,
            Victim {
                name: v(1, 0),
                dirty: true
            }
        );
        assert_eq!(evicted.parent, 9);
    }

    #[test]
    fn updates_at_a_way_match_their_scanning_forms() {
        let mut at = tiny();
        let mut scanned = tiny();
        for c in [&mut at, &mut scanned] {
            c.fill_absent(p(0), false, Permissions::RW, 0b101, 0);
            c.fill_absent(p(2), false, Permissions::RW, 0, 0);
        }
        at.write_back_at(p(0), 0, Permissions::READ);
        at.unshare_at(p(0), 0, 2);
        scanned.fill(p(0), true, Permissions::READ);
        scanned.remove_sharer(p(0), 2);
        assert_eq!(format!("{at:?}"), format!("{scanned:?}"));
        assert_eq!(at.sharers(p(0)), 0b001);
    }

    #[test]
    #[should_panic(expected = "is not at way")]
    #[cfg(debug_assertions)]
    fn an_update_at_the_wrong_way_is_caught() {
        let mut c = tiny();
        c.fill_absent(p(0), false, Permissions::RW, 0, 0);
        c.unshare_at(p(0), 1, 0);
    }

    #[test]
    fn access_perm_reports_hit_permissions() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::READ);
        assert_eq!(c.access_perm(v(1, 0), false), Some((Permissions::READ, 0)));
        assert_eq!(c.access_perm(v(1, 2), false), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn access_sharing_records_core_and_returns_perm() {
        let mut c = tiny();
        c.fill(p(0), false, Permissions::RW);
        assert_eq!(c.access_sharing(p(0), true, 2), Some((Permissions::RW, 0)));
        assert_eq!(c.sharers(p(0)), 0b100);
        assert!(c.invalidate(p(0)).unwrap().dirty, "write set the dirty bit");
        assert_eq!(c.access_sharing(p(0), false, 0), None, "gone after inval");
    }

    #[test]
    fn absent_fill_seeds_sharers_and_reports_victim_sharers() {
        let mut c = tiny();
        c.fill_absent(v(1, 0), false, Permissions::RW, 0b01, 0);
        c.fill_absent(v(1, 2), false, Permissions::RW, 0b10, 0);
        let (_, evicted) = c.fill_absent(v(1, 4), false, Permissions::RW, 0, 0);
        let evicted = evicted.expect("set 0 full, LRU victim evicted");
        assert_eq!(
            evicted.sharers, 0b01,
            "victim v(1,0) carried its seeded sharer set"
        );
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
        c.flush_phys_frames(0, 1, &mut victims);
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
        c.flush_virt_pages(Asid::new(1), 0, 1, &mut victims);
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
        c.downgrade_pages_read_only(Asid::new(1), 0, 1);
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
