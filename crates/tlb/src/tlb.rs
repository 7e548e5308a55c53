//! A generic set-associative TLB.

use hvc_os::Pte;
use hvc_types::{Asid, Cycles, LruSets, Permissions, PhysFrame, VirtPage};

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
    /// sets of `ways` entries, or `ways` exceeds 16 (a set's recency
    /// order is one nibble per way in one `u64`).
    pub fn new(entries: usize, ways: usize, latency: Cycles) -> Self {
        assert!(
            ways <= LruSets::MAX_WAYS,
            "at most {} ways per set",
            LruSets::MAX_WAYS
        );
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

/// Width of the VPN field of a key and of the frame field of a PTE
/// word. Virtual page numbers are 36 bits and frame numbers 40.
const FIELD_BITS: u32 = 48;

/// VPN field of a key, frame field of a PTE word.
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;

/// Packs a TLB tag into the 8-byte form the tag store keeps: bits 0..48
/// the virtual page number, which selects the set, and the ASID above
/// it. Injective, so key equality is `(asid, vpn)` equality and a set
/// probe is a bare 64-bit compare. The ASID is 16 bits and the VPN at
/// most 36, so no key is `u64::MAX`, the store's free-way filler.
#[inline]
fn key_of(asid: Asid, vpn: u64) -> u64 {
    debug_assert!(
        vpn <= FIELD_MASK,
        "vpn {vpn:#x} exceeds the {FIELD_BITS}-bit key field"
    );
    vpn | ((asid.as_u16() as u64) << FIELD_BITS)
}

/// ASID half of a packed key.
#[inline]
fn asid_of(key: u64) -> Asid {
    Asid::new((key >> FIELD_BITS) as u16)
}

/// Virtual-page half of a packed key.
#[inline]
fn vpn_of(key: u64) -> u64 {
    key & FIELD_MASK
}

/// The store's one payload column: a way's packed PTE word.
const PTE: usize = 0;

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
/// The tags are one [`LruSets`] store with one payload column, so a row
/// is `[key[ways] | pte[ways] | occupancy | recency]`: the packed 8-byte
/// `(asid, vpn)` tags a probe scans, each way's packed PTE word, the
/// occupancy bitmask and the set's recency word. An 8-way row is 192 B
/// and a probe scans its first 64 B.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    tags: LruSets,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 16 ways.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            tags: LruSets::new(config.sets(), config.ways, 1),
            config,
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

    /// The set and key of `(asid, vpage)`.
    #[inline]
    fn locate(&self, asid: Asid, vpage: VirtPage) -> (usize, u64) {
        let key = key_of(asid, vpage.as_u64());
        (self.tags.set_of(key), key)
    }

    /// Looks up a translation, updating LRU and counters.
    pub fn lookup(&mut self, asid: Asid, vpage: VirtPage) -> Option<Pte> {
        let (set, key) = self.locate(asid, vpage);
        if let Some(way) = self.tags.find(set, key) {
            self.tags.touch(set, way);
            self.stats.hits += 1;
            return Some(unpack_pte(self.tags.payload(set, way, PTE)));
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts (or refreshes) a translation after a miss/page walk.
    pub fn insert(&mut self, asid: Asid, vpage: VirtPage, pte: Pte) {
        let (set, key) = self.locate(asid, vpage);
        let way = match self.tags.find(set, key) {
            Some(way) => {
                self.tags.touch(set, way);
                way
            }
            None => self.tags.insert(set, key).0,
        };
        *self.tags.payload_mut(set, way, PTE) = pack_pte(pte);
    }

    /// Invalidates one page's entry (TLB shootdown).
    pub fn flush_page(&mut self, asid: Asid, vpage: VirtPage) {
        let (set, key) = self.locate(asid, vpage);
        if let Some(way) = self.tags.find(set, key) {
            self.tags.clear_way(set, way);
        }
    }

    /// Invalidates every entry of an address space (process teardown)
    /// with one sweep of the sets, as `Cache::flush_asid` does.
    pub fn flush_asid(&mut self, asid: Asid) {
        for set in 0..self.tags.sets() {
            let mut live = self.tags.occupied(set);
            while live != 0 {
                let way = live.trailing_zeros() as usize;
                live &= live - 1;
                if asid_of(self.tags.key(set, way)) == asid {
                    self.tags.clear_way(set, way);
                }
            }
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.slots().count()
    }

    /// Iterates over all valid entries as `(asid, vpage, pte)`. Used by
    /// the `hvc-check` invariant sweeps to audit cached translations
    /// against the page tables; not on any simulation fast path.
    pub fn entries(&self) -> impl Iterator<Item = (Asid, VirtPage, Pte)> + '_ {
        self.tags.slots().map(|(set, way)| {
            let key = self.tags.key(set, way);
            (
                asid_of(key),
                VirtPage::new(vpn_of(key)),
                unpack_pte(self.tags.payload(set, way, PTE)),
            )
        })
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

    /// Whether `t` holds an entry for `(asid, page)`, without touching
    /// recency or counters.
    fn holds(t: &Tlb, asid: Asid, page: u64) -> bool {
        t.entries()
            .any(|(a, p, _)| a == asid && p == VirtPage::new(page))
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
                assert_ne!(key, u64::MAX, "asid {asid} vpn {vpn:#x}");
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
        assert!(holds(&t, a, 0));
        assert!(!holds(&t, a, 2));
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
        assert!(!holds(&t, a, 0));
        assert!(holds(&t, a, 1));
        t.flush_asid(a);
        assert!(!holds(&t, a, 1));
        assert!(holds(&t, b, 1));
    }

    #[test]
    fn asid_flush_hides_entries_immediately() {
        let mut t = tiny();
        let a = Asid::new(1);
        t.insert(a, VirtPage::new(0), pte(1));
        t.flush_asid(a);
        // The flushed entry never hits, never shows in occupancy/entries.
        assert_eq!(t.lookup(a, VirtPage::new(0)), None);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.entries().count(), 0);
    }

    #[test]
    fn flushed_ways_are_reused_before_evicting_live_entries() {
        let mut t = tiny();
        let a = Asid::new(1);
        let b = Asid::new(2);
        // Fill set 0 with both ways, then kill ASID 1.
        t.insert(a, VirtPage::new(0), pte(1));
        t.insert(b, VirtPage::new(2), pte(2));
        t.flush_asid(a);
        // Inserting into the set must reuse the flushed way, keeping
        // ASID 2's live entry resident.
        t.insert(b, VirtPage::new(4), pte(4));
        assert!(holds(&t, b, 2));
        assert!(holds(&t, b, 4));
    }

    #[test]
    fn reinsert_after_asid_flush_is_fresh() {
        let mut t = tiny();
        let a = Asid::new(1);
        t.insert(a, VirtPage::new(0), pte(1));
        t.flush_asid(a);
        t.insert(a, VirtPage::new(0), pte(7));
        assert_eq!(t.lookup(a, VirtPage::new(0)), Some(pte(7)));
        assert_eq!(t.occupancy(), 1, "flushed duplicate must not linger");
    }

    #[test]
    fn presets_match_table_iv() {
        assert_eq!(TlbConfig::l1_64().sets(), 16);
        assert_eq!(TlbConfig::l2_1024().sets(), 128);
        assert_eq!(TlbConfig::delayed(32 * 1024).entries, 32768);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_is_rejected() {
        let _ = TlbConfig::new(64, 32, Cycles::new(1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = TlbConfig::new(24, 4, Cycles::new(1));
    }
}
