//! A generic set-associative TLB.

use hvc_os::Pte;
use hvc_types::{Asid, Cycles, MergeStats, Permissions, PhysFrame, VirtPage};

/// Geometry and latency of a TLB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency.
    pub latency: Cycles,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible into a power-of-two number of
    /// sets of `ways` entries.
    pub fn new(entries: usize, ways: usize, latency: Cycles) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        TlbConfig {
            entries,
            ways,
            latency,
        }
    }

    /// The paper's baseline L1 TLB: 64 entries, 4-way, 1 cycle.
    pub fn l1_64() -> Self {
        TlbConfig::new(64, 4, Cycles::new(1))
    }

    /// The paper's baseline L2 TLB: 1024 entries, 8-way, 7 cycles.
    pub fn l2_1024() -> Self {
        TlbConfig::new(1024, 8, Cycles::new(7))
    }

    /// The hybrid scheme's synonym TLB: 64 entries, 4-way, single level.
    pub fn synonym_64() -> Self {
        TlbConfig::new(64, 4, Cycles::new(1))
    }

    /// A delayed TLB of the given size (8-way, 7 cycles; sizes of 1K-32K
    /// are swept in Figure 4 / Figure 9).
    pub fn delayed(entries: usize) -> Self {
        TlbConfig::new(entries, 8, Cycles::new(7))
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

/// Hit/miss counters for a TLB.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio; `None` with no lookups.
    pub fn miss_rate(&self) -> Option<f64> {
        let n = self.accesses();
        (n > 0).then(|| self.misses as f64 / n as f64)
    }
}

impl MergeStats for TlbStats {
    fn merge_from(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Width of the VPN field of a key and of the frame field of a PTE
/// word. Virtual page numbers are 36 bits and frame numbers 40.
const FIELD_BITS: u32 = 48;

/// VPN field of a key, frame field of a PTE word.
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;

/// Key filler for invalid slots. [`key_of`] puts the 16-bit ASID above a
/// VPN of at most 36 bits, so it never produces `u64::MAX` and an invalid
/// slot never compares equal to a probe key.
const EMPTY_KEY: u64 = u64::MAX;

/// Packs a TLB tag into the 8-byte form the tag slab stores: bits 0..48
/// the virtual page number, the ASID above it. Injective, so key
/// equality is `(asid, vpn)` equality and a set probe is a bare 64-bit
/// compare.
#[inline]
fn key_of(asid: Asid, vpn: u64) -> u64 {
    debug_assert!(
        vpn <= FIELD_MASK,
        "vpn {vpn:#x} exceeds the {FIELD_BITS}-bit key field"
    );
    vpn | ((asid.as_u16() as u64) << FIELD_BITS)
}

/// ASID half of a packed key (never called on `EMPTY_KEY`).
#[inline]
fn asid_of(key: u64) -> Asid {
    Asid::new((key >> FIELD_BITS) as u16)
}

/// Virtual-page half of a packed key.
#[inline]
fn vpn_of(key: u64) -> u64 {
    key & FIELD_MASK
}

/// PTE word layout: the frame number in bits 0..48, the permission bits
/// at 48..56, and the shared flag at bit 56.
const PTE_PERM_SHIFT: u32 = FIELD_BITS;
const PTE_SHARED_SHIFT: u32 = 56;

#[inline]
fn pack_pte(pte: Pte) -> u64 {
    let frame = pte.frame.as_u64();
    debug_assert!(
        frame <= FIELD_MASK,
        "frame {frame:#x} exceeds the {FIELD_BITS}-bit PTE field"
    );
    frame | ((pte.perm.bits() as u64) << PTE_PERM_SHIFT) | ((pte.shared as u64) << PTE_SHARED_SHIFT)
}

#[inline]
fn unpack_pte(w: u64) -> Pte {
    Pte {
        frame: PhysFrame::new(w & FIELD_MASK),
        perm: Permissions::from_bits((w >> PTE_PERM_SHIFT) as u8),
        shared: (w >> PTE_SHARED_SHIFT) & 1 == 1,
    }
}

/// A set-associative TLB keyed by `(ASID, virtual page number)` with LRU
/// replacement.
///
/// ASID tagging means context switches need no flush (homonyms cannot
/// hit), matching the paper's ASID-based design.
///
/// Storage is one contiguous **set-interleaved** slab of `u64` words:
/// set `s` occupies the row `rows[s * stride .. (s + 1) * stride]`, laid
/// out as `[key[ways] | pte[ways] | lru[ways] | gen[ways] | occupancy |
/// padding]` — the packed 8-byte `(asid, vpn)` tags a probe scans open
/// the row, then each way's packed PTE word, LRU stamp, and the ASID
/// generation captured at insert (the entry is live only while that
/// generation matches its ASID's current one), then the occupancy
/// bitmask that inserts read. The stride is rounded up to a whole number
/// of 64-byte host cache lines, so a probe of an 8-way TLB scans the
/// row's first 64 bytes. Address-space shootdowns are O(1):
/// [`Tlb::flush_asid`] just bumps the generation, and
/// generation-mismatched entries never hit — they are reclaimed lazily
/// as preferred free slots on insert.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// The set-interleaved slab (see the struct docs for the row layout).
    /// Key slots of invalid ways hold [`EMPTY_KEY`] filler, which matches
    /// no probe; padding words are zero and never read.
    rows: Box<[u64]>,
    ways: usize,
    /// Row length in words: `4 * ways + 1`, rounded up to a multiple of
    /// eight words (one 64-byte host line).
    stride: usize,
    set_mask: usize,
    /// Current generation per ASID, grown lazily; absent ASIDs are at
    /// generation 0.
    asid_gen: Vec<u64>,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 ways (the per-set
    /// occupancy bitmask is a `u64`).
    pub fn new(config: TlbConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways;
        assert!(ways <= 64, "at most 64 ways per set");
        let stride = (4 * ways + 1 + 7) & !7;
        let mut rows = vec![0u64; sets * stride].into_boxed_slice();
        for row in rows.chunks_exact_mut(stride) {
            row[..ways].fill(EMPTY_KEY);
        }
        Tlb {
            rows,
            ways,
            stride,
            set_mask: sets - 1,
            asid_gen: Vec::new(),
            config,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Returns hit/miss counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    #[inline]
    fn set_index(&self, vpn: u64) -> usize {
        (vpn as usize) & self.set_mask
    }

    /// Slab index of `set`'s row, which is also its first key.
    #[inline]
    fn row(&self, set: usize) -> usize {
        set * self.stride
    }

    /// Slab index of `way`'s packed PTE word within `set`.
    #[inline]
    fn pte_idx(&self, set: usize, way: usize) -> usize {
        self.row(set) + self.ways + way
    }

    /// Slab index of `way`'s LRU stamp within `set`.
    #[inline]
    fn lru_idx(&self, set: usize, way: usize) -> usize {
        self.row(set) + 2 * self.ways + way
    }

    /// Slab index of `way`'s insert-time ASID generation within `set`.
    #[inline]
    fn gen_idx(&self, set: usize, way: usize) -> usize {
        self.row(set) + 3 * self.ways + way
    }

    /// Slab index of `set`'s occupancy bitmask.
    #[inline]
    fn occ_idx(&self, set: usize) -> usize {
        self.row(set) + 4 * self.ways
    }

    /// Current generation of `asid` (0 if never flushed).
    #[inline]
    fn gen_of(&self, asid: Asid) -> u64 {
        self.asid_gen
            .get(asid.as_u16() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Whether the in-use entry at `(set, way)` is live (generation
    /// current).
    #[inline]
    fn is_live(&self, set: usize, way: usize) -> bool {
        self.rows[self.gen_idx(set, way)] == self.gen_of(asid_of(self.rows[self.row(set) + way]))
    }

    /// Clears `(set, way)` back to filler and drops its occupancy bit.
    #[inline]
    fn clear_way(&mut self, set: usize, way: usize) {
        let row = self.row(set);
        self.rows[row + way] = EMPTY_KEY;
        self.rows[row + self.ways + way] = 0;
        self.rows[row + 2 * self.ways + way] = 0;
        self.rows[row + 3 * self.ways + way] = 0;
        self.rows[self.occ_idx(set)] &= !(1 << way);
    }

    /// Finds the way of the entry tagged `key` within `set`, live or
    /// stale, with one linear scan of the set's keys; invalid slots hold
    /// [`EMPTY_KEY`], which matches no probe. At most one slot can match:
    /// [`Tlb::insert`] refreshes a live duplicate in place and reclaims
    /// every stale slot of the set before placing a tag, so duplicates
    /// never coexist.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let row = self.row(set);
        self.rows[row..row + self.ways]
            .iter()
            .position(|&k| k == key)
    }

    /// Looks up a translation, updating LRU and counters.
    pub fn lookup(&mut self, asid: Asid, vpage: VirtPage) -> Option<Pte> {
        self.tick += 1;
        let vpn = vpage.as_u64();
        let set = self.set_index(vpn);
        let gen = self.gen_of(asid);
        if let Some(way) = self.find(set, key_of(asid, vpn)) {
            if self.rows[self.gen_idx(set, way)] == gen {
                let li = self.lru_idx(set, way);
                self.rows[li] = self.tick;
                self.stats.hits += 1;
                return Some(unpack_pte(self.rows[self.pte_idx(set, way)]));
            }
            // Stale survivor of a generation flush: reclaim the slot.
            self.clear_way(set, way);
        }
        self.stats.misses += 1;
        None
    }

    /// Probes without updating LRU or counters.
    pub fn contains(&self, asid: Asid, vpage: VirtPage) -> bool {
        let vpn = vpage.as_u64();
        let set = self.set_index(vpn);
        self.find(set, key_of(asid, vpn))
            .is_some_and(|way| self.rows[self.gen_idx(set, way)] == self.gen_of(asid))
    }

    /// Inserts (or refreshes) a translation after a miss/page walk.
    ///
    /// Stale (generation-flushed) entries are preferred reclamation
    /// targets, so a set never evicts a live entry while it holds dead
    /// ones — exactly the occupancy an eager flush would have left.
    pub fn insert(&mut self, asid: Asid, vpage: VirtPage, pte: Pte) {
        self.tick += 1;
        let vpn = vpage.as_u64();
        let set = self.set_index(vpn);
        let gen = self.gen_of(asid);
        let row = self.row(set);
        let key = key_of(asid, vpn);
        let mut used = self.rows[self.occ_idx(set)];
        while used != 0 {
            let w = used.trailing_zeros() as usize;
            if !self.is_live(set, w) {
                // Lazily reclaim any stale entry encountered on the way.
                self.clear_way(set, w);
            } else if self.rows[row + w] == key {
                self.rows[row + self.ways + w] = pack_pte(pte);
                self.rows[row + 2 * self.ways + w] = self.tick;
                return;
            }
            used &= used - 1;
        }
        let mask = self.rows[self.occ_idx(set)];
        let way = if mask.count_ones() as usize == self.ways {
            // All ways live: evict the unique LRU minimum (ticks are
            // unique among live entries, so slot order cannot matter).
            let lru = &self.rows[row + 2 * self.ways..row + 3 * self.ways];
            (0..self.ways).min_by_key(|&w| lru[w]).unwrap_or(0)
        } else {
            (!mask).trailing_zeros() as usize
        };
        self.rows[row + way] = key;
        self.rows[row + self.ways + way] = pack_pte(pte);
        self.rows[row + 2 * self.ways + way] = self.tick;
        self.rows[row + 3 * self.ways + way] = gen;
        self.rows[self.occ_idx(set)] |= 1 << way;
    }

    /// Invalidates one page's entry (TLB shootdown).
    pub fn flush_page(&mut self, asid: Asid, vpage: VirtPage) {
        let vpn = vpage.as_u64();
        let set = self.set_index(vpn);
        if let Some(way) = self.find(set, key_of(asid, vpn)) {
            self.clear_way(set, way);
        }
    }

    /// Invalidates every entry of an address space — O(1): the ASID's
    /// generation is bumped and surviving entries can never hit again.
    pub fn flush_asid(&mut self, asid: Asid) {
        let idx = asid.as_u16() as usize;
        if idx >= self.asid_gen.len() {
            self.asid_gen.resize(idx + 1, 0);
        }
        self.asid_gen[idx] += 1;
    }

    /// Invalidates everything.
    pub fn flush_all(&mut self) {
        self.rows.fill(0);
        let ways = self.ways;
        for row in self.rows.chunks_exact_mut(self.stride) {
            row[..ways].fill(EMPTY_KEY);
        }
    }

    /// Number of valid (live) entries.
    pub fn occupancy(&self) -> usize {
        self.live_slots().count()
    }

    /// Iterates over all live entries as `(asid, vpage, pte)`. Used by
    /// the `hvc-check` invariant sweeps to audit cached translations
    /// against the page tables; not on any simulation fast path.
    pub fn entries(&self) -> impl Iterator<Item = (Asid, VirtPage, Pte)> + '_ {
        self.live_slots().map(|(set, way)| {
            let key = self.rows[self.row(set) + way];
            (
                asid_of(key),
                VirtPage::new(vpn_of(key)),
                unpack_pte(self.rows[self.pte_idx(set, way)]),
            )
        })
    }

    /// `(set, way)` coordinates of all live (in-use and
    /// generation-current) entries.
    fn live_slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..=self.set_mask)
            .flat_map(move |set| (0..self.ways).map(move |w| (set, w)))
            .filter(|&(set, w)| self.rows[self.row(set) + w] != EMPTY_KEY && self.is_live(set, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::{Permissions, PhysFrame};

    fn pte(frame: u64) -> Pte {
        Pte {
            frame: PhysFrame::new(frame),
            perm: Permissions::RW,
            shared: false,
        }
    }

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig::new(4, 2, Cycles::new(1)))
    }

    #[test]
    fn pte_word_roundtrips() {
        let p = Pte {
            frame: PhysFrame::new(u64::MAX),
            perm: Permissions::RX,
            shared: true,
        };
        let back = unpack_pte(pack_pte(p));
        assert_eq!(back.frame, p.frame);
        assert_eq!(back.perm, p.perm);
        assert_eq!(back.shared, p.shared);
        let q = pte(7);
        assert!(!unpack_pte(pack_pte(q)).shared);
    }

    #[test]
    fn keys_roundtrip_at_the_extremes() {
        let top = VirtPage::new(u64::MAX).as_u64();
        for asid in [0u16, 1, 0xFFFF] {
            for vpn in [0, top] {
                let key = key_of(Asid::new(asid), vpn);
                assert_ne!(key, EMPTY_KEY, "asid {asid} vpn {vpn:#x}");
                assert_eq!(asid_of(key), Asid::new(asid));
                assert_eq!(vpn_of(key), vpn);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    #[cfg(debug_assertions)]
    fn oversized_vpn_is_caught() {
        let _ = key_of(Asid::new(1), FIELD_MASK + 1);
    }

    #[test]
    fn row_stride_is_whole_host_lines() {
        for ways in [1usize, 2, 4, 8, 16] {
            let t = Tlb::new(TlbConfig::new(4 * ways, ways, Cycles::new(1)));
            assert_eq!(t.stride % 8, 0, "ways {ways}");
            assert!(t.stride > 4 * ways, "ways {ways}");
            assert_eq!(t.rows.len(), t.stride * 4, "ways {ways}");
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        let a = Asid::new(1);
        assert_eq!(t.lookup(a, VirtPage::new(5)), None);
        t.insert(a, VirtPage::new(5), pte(9));
        assert_eq!(t.lookup(a, VirtPage::new(5)), Some(pte(9)));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert!((t.stats().miss_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asid_tagged_entries_do_not_cross() {
        let mut t = tiny();
        t.insert(Asid::new(1), VirtPage::new(5), pte(9));
        assert_eq!(t.lookup(Asid::new(2), VirtPage::new(5)), None);
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut t = tiny();
        let a = Asid::new(1);
        // 2 sets: pages 0, 2, 4 map to set 0.
        t.insert(a, VirtPage::new(0), pte(0));
        t.insert(a, VirtPage::new(2), pte(2));
        t.lookup(a, VirtPage::new(0));
        t.insert(a, VirtPage::new(4), pte(4));
        assert!(t.contains(a, VirtPage::new(0)));
        assert!(!t.contains(a, VirtPage::new(2)));
    }

    #[test]
    fn insert_refreshes_existing_entry() {
        let mut t = tiny();
        let a = Asid::new(1);
        t.insert(a, VirtPage::new(0), pte(1));
        t.insert(a, VirtPage::new(0), pte(2));
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.lookup(a, VirtPage::new(0)), Some(pte(2)));
    }

    #[test]
    fn flushes() {
        let mut t = tiny();
        let a = Asid::new(1);
        let b = Asid::new(2);
        t.insert(a, VirtPage::new(0), pte(1));
        t.insert(a, VirtPage::new(1), pte(2));
        t.insert(b, VirtPage::new(1), pte(3));
        t.flush_page(a, VirtPage::new(0));
        assert!(!t.contains(a, VirtPage::new(0)));
        assert!(t.contains(a, VirtPage::new(1)));
        t.flush_asid(a);
        assert!(!t.contains(a, VirtPage::new(1)));
        assert!(t.contains(b, VirtPage::new(1)));
        t.flush_all();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn generation_flush_hides_entries_immediately() {
        let mut t = tiny();
        let a = Asid::new(1);
        t.insert(a, VirtPage::new(0), pte(1));
        t.flush_asid(a);
        // The stale entry never hits, never shows in occupancy/entries.
        assert_eq!(t.lookup(a, VirtPage::new(0)), None);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.entries().count(), 0);
    }

    #[test]
    fn stale_slots_are_reclaimed_before_evicting_live_entries() {
        let mut t = tiny();
        let a = Asid::new(1);
        let b = Asid::new(2);
        // Fill set 0 with both ways, then kill ASID 1.
        t.insert(a, VirtPage::new(0), pte(1));
        t.insert(b, VirtPage::new(2), pte(2));
        t.flush_asid(a);
        // Inserting into the full-looking set must reuse the stale slot,
        // keeping ASID 2's live entry resident.
        t.insert(b, VirtPage::new(4), pte(4));
        assert!(t.contains(b, VirtPage::new(2)));
        assert!(t.contains(b, VirtPage::new(4)));
    }

    #[test]
    fn reinsert_after_generation_flush_is_fresh() {
        let mut t = tiny();
        let a = Asid::new(1);
        t.insert(a, VirtPage::new(0), pte(1));
        t.flush_asid(a);
        t.insert(a, VirtPage::new(0), pte(7));
        assert_eq!(t.lookup(a, VirtPage::new(0)), Some(pte(7)));
        assert_eq!(t.occupancy(), 1, "stale duplicate must not linger");
    }

    #[test]
    fn presets_match_table_iv() {
        assert_eq!(TlbConfig::l1_64().sets(), 16);
        assert_eq!(TlbConfig::l2_1024().sets(), 128);
        assert_eq!(TlbConfig::delayed(32 * 1024).entries, 32768);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = TlbConfig::new(24, 4, Cycles::new(1));
    }
}
