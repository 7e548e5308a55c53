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

/// Key filler for invalid slots. The high word is `u64::MAX`, which
/// [`key_of`] never produces (ASIDs are 16-bit), so an invalid slot can
/// never compare equal to a probe key and the vector probe may compare
/// whole sets unconditionally.
const EMPTY_KEY: u128 = u128::MAX;

/// Packs a TLB tag into the 16-byte form the tag slab stores: low word =
/// virtual page number, high word = ASID. Injective, so key equality is
/// `(asid, vpn)` equality and a set probe is a bare 128-bit compare.
#[inline]
fn key_of(asid: Asid, vpn: u64) -> u128 {
    (vpn as u128) | ((asid.as_u16() as u128) << 64)
}

/// ASID half of a packed key (never called on `EMPTY_KEY`).
#[inline]
fn asid_of(key: u128) -> Asid {
    Asid::new((key >> 64) as u16)
}

/// Virtual-page half of a packed key.
#[inline]
fn vpn_of(key: u128) -> u64 {
    key as u64
}

/// Packed-payload layout: each way carries two `u128` words. The **PTE
/// word** holds the frame number in its low 64 bits, the permission bits
/// at 64..72, and the shared flag at bit 72. The **clock word** holds
/// the LRU stamp in its low 64 bits and the ASID generation captured at
/// insert in its high 64 bits (the entry is live only while that
/// generation matches its ASID's current one).
const PTE_PERM_SHIFT: u32 = 64;
const PTE_SHARED_SHIFT: u32 = 72;
const CLOCK_LRU_MASK: u128 = u64::MAX as u128;

#[inline]
fn pack_pte(pte: Pte) -> u128 {
    (pte.frame.as_u64() as u128)
        | ((pte.perm.bits() as u128) << PTE_PERM_SHIFT)
        | ((pte.shared as u128) << PTE_SHARED_SHIFT)
}

#[inline]
fn unpack_pte(w: u128) -> Pte {
    Pte {
        frame: PhysFrame::new(w as u64),
        perm: Permissions::from_bits((w >> PTE_PERM_SHIFT) as u8),
        shared: (w >> PTE_SHARED_SHIFT) & 1 == 1,
    }
}

#[inline]
fn pack_clock(lru: u64, gen: u64) -> u128 {
    (lru as u128) | ((gen as u128) << 64)
}

/// A set-associative TLB keyed by `(ASID, virtual page number)` with LRU
/// replacement.
///
/// ASID tagging means context switches need no flush (homonyms cannot
/// hit), matching the paper's ASID-based design.
///
/// Storage is one contiguous **set-interleaved** slab: set `s` occupies
/// the row `rows[s * stride .. (s + 1) * stride]`, laid out as
/// `[occupancy | keys[ways] | pte[ways] | clock[ways] | padding]` — the
/// occupancy bitmask a probe reads first, then the packed 16-byte
/// `(asid, vpn)` tags it scans (under the `simd` feature as one
/// vectorized whole-set compare), then the packed PTE and LRU/generation
/// payload words of each way. The stride is rounded up to a whole number
/// of 64-byte host cache lines, so a probe of a multi-thousand-entry
/// delayed TLB touches a handful of *contiguous* host lines instead of
/// three slabs allocated apart. Address-space shootdowns are O(1): every
/// entry is tagged with its ASID's generation at insert,
/// [`Tlb::flush_asid`] just bumps the generation, and
/// generation-mismatched entries never hit — they are reclaimed lazily
/// as preferred free slots on insert.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// The set-interleaved slab (see the struct docs for the row layout).
    /// Key slots of invalid ways hold [`EMPTY_KEY`] filler, which matches
    /// no probe; padding words are zero and never read.
    rows: Box<[u128]>,
    ways: usize,
    /// Row length in `u128` words: `3 * ways + 1`, rounded up to a
    /// multiple of four words (one 64-byte host line).
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
        let stride = (3 * ways + 1 + 3) & !3;
        let mut rows = vec![0u128; sets * stride].into_boxed_slice();
        for set in 0..sets {
            let base = set * stride + 1;
            rows[base..base + ways].fill(EMPTY_KEY);
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

    /// Slab index of `set`'s row (its occupancy word).
    #[inline]
    fn row(&self, set: usize) -> usize {
        set * self.stride
    }

    /// Slab index of `way`'s packed PTE word within `set`.
    #[inline]
    fn pte_idx(&self, set: usize, way: usize) -> usize {
        set * self.stride + 1 + self.ways + way
    }

    /// Slab index of `way`'s LRU/generation word within `set`.
    #[inline]
    fn clock_idx(&self, set: usize, way: usize) -> usize {
        set * self.stride + 1 + 2 * self.ways + way
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
        let gen = (self.rows[self.clock_idx(set, way)] >> 64) as u64;
        gen == self.gen_of(asid_of(self.rows[set * self.stride + 1 + way]))
    }

    /// Clears `(set, way)` back to filler and drops its occupancy bit.
    #[inline]
    fn clear_way(&mut self, set: usize, way: usize) {
        let row = self.row(set);
        self.rows[row + 1 + way] = EMPTY_KEY;
        self.rows[row + 1 + self.ways + way] = 0;
        self.rows[row + 1 + 2 * self.ways + way] = 0;
        self.rows[row] &= !(1u128 << way);
    }

    /// Finds the way of the entry tagged `key` within `set`, live or
    /// stale. At most one slot can match: [`Tlb::insert`] refreshes a
    /// live duplicate in place and reclaims every stale slot of the set
    /// before placing a tag, so duplicates never coexist. Dispatches to
    /// the vector probe under the `simd` feature and the masked scalar
    /// walk otherwise; both are always compiled and equivalence-tested.
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

    /// Portable probe: walk only the in-use ways of the occupancy
    /// bitmask, comparing one 16-byte key at a time.
    #[inline]
    fn find_scalar(&self, set: usize, key: u128) -> Option<usize> {
        let row = self.row(set);
        let keys = &self.rows[row + 1..row + 1 + self.ways];
        let mut used = self.rows[row] as u64;
        while used != 0 {
            let w = used.trailing_zeros() as usize;
            if keys[w] == key {
                return Some(w);
            }
            used &= used - 1;
        }
        None
    }

    /// Vector probe: compare the whole set's 16-byte keys branchlessly
    /// (the compiler lowers the fixed-trip loop to SIMD compares — two
    /// `u64` lanes per way), collect the match bits, and mask with
    /// occupancy. Invalid slots hold [`EMPTY_KEY`], which matches no
    /// probe, and tags are unique per set, so the lowest bit is exact.
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

    /// Scalar set probe, exposed (with [`Tlb::probe_simd`]) for the
    /// SIMD-vs-scalar equivalence proptests. Returns the matching way
    /// (live or stale), if any.
    #[doc(hidden)]
    pub fn probe_scalar(&self, asid: Asid, vpage: VirtPage) -> Option<usize> {
        let set = self.set_index(vpage.as_u64());
        self.find_scalar(set, key_of(asid, vpage.as_u64()))
    }

    /// Vector set probe; see [`Tlb::probe_scalar`].
    #[doc(hidden)]
    pub fn probe_simd(&self, asid: Asid, vpage: VirtPage) -> Option<usize> {
        let set = self.set_index(vpage.as_u64());
        self.find_simd(set, key_of(asid, vpage.as_u64()))
    }

    /// Looks up a translation, updating LRU and counters.
    pub fn lookup(&mut self, asid: Asid, vpage: VirtPage) -> Option<Pte> {
        self.tick += 1;
        let vpn = vpage.as_u64();
        let set = self.set_index(vpn);
        let gen = self.gen_of(asid);
        if let Some(way) = self.find(set, key_of(asid, vpn)) {
            let ci = self.clock_idx(set, way);
            let clock = self.rows[ci];
            if (clock >> 64) as u64 == gen {
                self.rows[ci] = (clock & !CLOCK_LRU_MASK) | (self.tick as u128);
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
        self.find(set, key_of(asid, vpn)).is_some_and(|way| {
            (self.rows[self.clock_idx(set, way)] >> 64) as u64 == self.gen_of(asid)
        })
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
        let mut used = self.rows[row] as u64;
        while used != 0 {
            let w = used.trailing_zeros() as usize;
            if !self.is_live(set, w) {
                // Lazily reclaim any stale entry encountered on the way.
                self.clear_way(set, w);
            } else if self.rows[row + 1 + w] == key {
                self.rows[row + 1 + self.ways + w] = pack_pte(pte);
                let ci = row + 1 + 2 * self.ways + w;
                self.rows[ci] = (self.rows[ci] & !CLOCK_LRU_MASK) | (self.tick as u128);
                return;
            }
            used &= used - 1;
        }
        let mask = self.rows[row] as u64;
        let way = if mask.count_ones() as usize == self.ways {
            // All ways live: evict the unique LRU minimum (ticks are
            // unique among live entries, so slot order cannot matter).
            let mut live = mask;
            let mut best = 0usize;
            let mut best_lru = u64::MAX;
            while live != 0 {
                let w = live.trailing_zeros() as usize;
                let lru = self.rows[row + 1 + 2 * self.ways + w] as u64;
                if lru < best_lru {
                    best_lru = lru;
                    best = w;
                }
                live &= live - 1;
            }
            best
        } else {
            (!mask).trailing_zeros() as usize
        };
        self.rows[row + 1 + way] = key;
        self.rows[row + 1 + self.ways + way] = pack_pte(pte);
        self.rows[row + 1 + 2 * self.ways + way] = pack_clock(self.tick, gen);
        self.rows[row] |= 1u128 << way;
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
        for set in 0..=self.set_mask {
            let base = set * self.stride + 1;
            self.rows[base..base + self.ways].fill(EMPTY_KEY);
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
            let key = self.rows[set * self.stride + 1 + way];
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
        (0..=self.set_mask).flat_map(move |set| {
            BitIter(self.rows[set * self.stride] as u64)
                .map(move |w| (set, w))
                .filter(|&(set, w)| self.is_live(set, w))
        })
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
            frame: PhysFrame::new(u64::MAX >> 1),
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
