//! An exact-LRU set-associative tag store for caches, TLBs and other
//! set-indexed structures.

/// Key of a free way; no live key may equal it.
const EMPTY: u64 = u64::MAX;

/// `0x1` in every nibble.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// The recency word of an empty set of `ways` ways: rank `i` holds way
/// `i`, and ranks past `ways` hold `0xF`, which is no way's number when
/// `ways < 16`, so [`promote`] never finds a rank there.
fn initial_recency(ways: usize) -> u64 {
    (0..ways).fold(u64::MAX, |rec, w| {
        rec & !(0xF << (4 * w)) | (w as u64) << (4 * w)
    })
}

/// Moves `way` to rank 0 (most recent) of the recency word `rec`; each
/// way that was more recent than it moves one rank older. Nibble `i` of
/// `rec` holds the way at rank `i`; every way appears exactly once, so
/// the lowest nibble equal to `way` is found with the zero-nibble test
/// on `rec ^ way * 0x1111…`. Branch-free.
#[inline]
fn promote(rec: u64, way: usize) -> u64 {
    let x = rec ^ (way as u64).wrapping_mul(NIBBLE_ONES);
    // The lowest flagged nibble is the lowest zero nibble of `x` (a
    // borrow flags only nibbles above a zero one).
    let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    debug_assert!(zero != 0, "way {way} missing from recency word {rec:#x}");
    let shift = zero.trailing_zeros() & !3;
    let newer = (1u64 << shift) - 1;
    let through = newer | (0xF << shift);
    (rec & !through) | ((rec & newer) << 4) | way as u64
}

/// The sets of a set-associative structure — a cache level, a TLB, the
/// index cache — each holding up to `ways` distinct `u64` keys, with a
/// fixed number of `u64` payload columns per way, in exact LRU order.
///
/// A key's set is its low bits, so callers pack their set-indexing field
/// (line address, virtual page number, block number) at the bottom of
/// the key. Storage is one **set-interleaved** slab of `u64` words: set
/// `s` is the row `rows[s * stride..][..stride]`, laid out as
/// `[key[ways] | column 0[ways] | … | occupancy | recency | padding]`
/// and rounded up to whole 64-byte host lines, so a 16-way row with one
/// column is 320 B and an 8-way row with one is 192 B. The keys a probe
/// scans open the row. Nibble `i` of the recency word holds the way at
/// rank `i`, most recent first (see `promote`); an insert or a touch
/// moves its way to rank 0, so in a full set the last rank holds the
/// least recently used key.
///
/// ```
/// use hvc_types::LruSets;
///
/// // One set of two ways, one payload column.
/// let mut tags = LruSets::new(1, 2, 1);
/// assert_eq!(tags.insert(0, 1), (0, None));
/// *tags.payload_mut(0, 0, 0) = 10;
/// assert_eq!(tags.insert(0, 2), (1, None));
/// tags.touch(0, tags.find(0, 1).unwrap());
/// assert_eq!(tags.insert(0, 3), (1, Some(2)), "2 is least recently used");
/// assert_eq!(tags.payload(0, 0, 0), 10);
/// ```
#[derive(Clone, Debug)]
pub struct LruSets {
    /// The set-interleaved slab (see the struct docs for the row layout).
    /// Key slots of free ways hold `EMPTY` filler, which matches no
    /// probe, and their payload words are zero, so two histories that
    /// leave the same entries leave the same slab; padding words are zero
    /// and never read.
    rows: Box<[u64]>,
    ways: usize,
    /// Offset of the occupancy word within a row: `(1 + columns) * ways`.
    occ: usize,
    /// Row length in words: `occ + 2`, rounded up to a
    /// multiple of eight words (one 64-byte host line).
    stride: usize,
    set_mask: usize,
}

impl LruSets {
    /// Most ways a set can have: its recency order is one 4-bit way
    /// number per rank in one `u64`.
    pub const MAX_WAYS: usize = 16;

    /// An empty store of `sets` sets of `ways` ways, each way carrying
    /// `columns` payload words.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or `ways` is zero or more
    /// than [`LruSets::MAX_WAYS`].
    pub fn new(sets: usize, ways: usize, columns: usize) -> Self {
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        assert!(
            (1..=Self::MAX_WAYS).contains(&ways),
            "at most {} ways per set, got {ways}",
            Self::MAX_WAYS
        );
        let occ = (1 + columns) * ways;
        let stride = (occ + 2 + 7) & !7;
        let mut tags = LruSets {
            rows: Box::default(),
            ways,
            occ,
            stride,
            set_mask: sets - 1,
        };
        tags.rows = tags.empty_row().repeat(sets).into_boxed_slice();
        tags
    }

    /// A row whose ways are all free, in their initial recency order.
    fn empty_row(&self) -> Vec<u64> {
        let mut row = vec![0; self.stride];
        row[..self.ways].fill(EMPTY);
        row[self.occ_idx(0) + 1] = initial_recency(self.ways);
        row
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.set_mask + 1
    }

    /// The set `key` belongs to: its low bits.
    #[inline]
    pub fn set_of(&self, key: u64) -> usize {
        key as usize & self.set_mask
    }

    /// Slab index of `set`'s row, which is also its first key.
    #[inline]
    fn row(&self, set: usize) -> usize {
        set * self.stride
    }

    /// Slab index of `set`'s occupancy bitmask.
    #[inline]
    fn occ_idx(&self, set: usize) -> usize {
        self.row(set) + self.occ
    }

    /// Slab index of `way`'s payload column `column` within `set`.
    #[inline]
    fn payload_idx(&self, set: usize, way: usize, column: usize) -> usize {
        debug_assert!((1 + column) * self.ways < self.occ, "column {column}");
        self.row(set) + (1 + column) * self.ways + way
    }

    /// Finds the way holding `key` within `set` with one linear scan of
    /// the set's keys. Free ways hold filler that matches no key, so the
    /// scan needs no occupancy mask (measured faster than a walk of the
    /// occupancy bits).
    #[inline]
    pub fn find(&self, set: usize, key: u64) -> Option<usize> {
        let row = self.row(set);
        self.rows[row..row + self.ways]
            .iter()
            .position(|&k| k == key)
    }

    /// The key held by `way` of `set`, which must be occupied.
    #[inline]
    pub fn key(&self, set: usize, way: usize) -> u64 {
        self.rows[self.row(set) + way]
    }

    /// Payload column `column` of `way` of `set`.
    #[inline]
    pub fn payload(&self, set: usize, way: usize, column: usize) -> u64 {
        self.rows[self.payload_idx(set, way, column)]
    }

    /// Payload column `column` of `way` of `set`, for update.
    #[inline]
    pub fn payload_mut(&mut self, set: usize, way: usize, column: usize) -> &mut u64 {
        let i = self.payload_idx(set, way, column);
        &mut self.rows[i]
    }

    /// Bitmask of `set`'s occupied ways.
    #[inline]
    pub fn occupied(&self, set: usize) -> u64 {
        self.rows[self.occ_idx(set)]
    }

    /// Moves `way` of `set` to the most recent rank.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        let ri = self.occ_idx(set) + 1;
        self.rows[ri] = promote(self.rows[ri], way);
    }

    /// Places `key`, which `set` must not hold, in the lowest free way of
    /// `set`, or, when every way is occupied, in place of the least
    /// recently used key; the way becomes the most recent. Returns the
    /// way and the evicted key. The way's payload columns are left as
    /// they were — the evicted key's values, or zero for a free way — for
    /// the caller to read before it writes the new ones.
    #[inline]
    pub fn insert(&mut self, set: usize, key: u64) -> (usize, Option<u64>) {
        debug_assert!(key != EMPTY, "key {key:#x} is the free-way filler");
        debug_assert!(self.find(set, key).is_none(), "insert of a resident key");
        let occ = self.occ_idx(set);
        let mask = self.rows[occ];
        let rec = self.rows[occ + 1];
        let (way, evicted) = if mask.count_ones() as usize == self.ways {
            let lru = (rec >> (4 * (self.ways - 1))) as usize & 0xF;
            (lru, Some(self.key(set, lru)))
        } else {
            ((!mask).trailing_zeros() as usize, None)
        };
        let ki = self.row(set) + way;
        self.rows[ki] = key;
        self.rows[occ] = mask | 1 << way;
        self.rows[occ + 1] = promote(rec, way);
        (way, evicted)
    }

    /// Frees `way` of `set`: its key goes back to filler, its payload
    /// columns to zero, and its occupancy bit is dropped. The recency
    /// word keeps the way's rank: inserts take free ways from the
    /// occupancy mask first, and move them to rank 0.
    #[inline]
    pub fn clear_way(&mut self, set: usize, way: usize) {
        let occ = self.occ_idx(set);
        self.rows[occ] &= !(1 << way);
        let row = self.row(set);
        self.rows[row + way] = EMPTY;
        for i in (row + self.ways + way..row + self.occ).step_by(self.ways) {
            self.rows[i] = 0;
        }
    }

    /// Frees every way of every set and resets their recency order.
    pub fn clear(&mut self) {
        let empty = self.empty_row();
        for row in self.rows.chunks_exact_mut(self.stride) {
            row.copy_from_slice(&empty);
        }
    }

    /// `(set, way)` of every occupied way, by set and then by way.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.sets())
            .flat_map(move |set| (0..self.ways).map(move |way| (set, way)))
            .filter(|&(set, way)| self.occupied(set) >> way & 1 != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_stride_is_whole_host_lines() {
        for ways in [1usize, 2, 4, 8, 16] {
            for columns in 0..3 {
                let t = LruSets::new(4, ways, columns);
                assert_eq!(t.stride % 8, 0, "ways {ways} columns {columns}");
                assert!(t.stride >= (1 + columns) * ways + 2, "ways {ways}");
                assert_eq!(t.rows.len(), t.stride * 4, "ways {ways}");
            }
        }
        // The cache's 16-way rows, the TLB's 8-way rows and the index
        // cache's 8-way rows.
        assert_eq!(LruSets::new(1, 16, 1).stride * 8, 320);
        assert_eq!(LruSets::new(1, 8, 1).stride * 8, 192);
        assert_eq!(LruSets::new(1, 8, 0).stride * 8, 128);
    }

    #[test]
    fn promote_moves_a_way_to_rank_zero_at_every_rank() {
        for ways in [1usize, 2, 4, 8, 15, 16] {
            let start = initial_recency(ways);
            for way in 0..ways {
                let rec = promote(start, way);
                let mut order: Vec<usize> = (0..ways).filter(|&w| w != way).collect();
                order.insert(0, way);
                for (rank, &w) in order.iter().enumerate() {
                    assert_eq!(
                        (rec >> (4 * rank)) as usize & 0xF,
                        w,
                        "ways {ways} way {way}"
                    );
                }
                let used = 1u64
                    .checked_shl(4 * ways as u32)
                    .map_or(u64::MAX, |b| b - 1);
                assert_eq!(rec & !used, start & !used, "ranks past {ways} untouched");
            }
        }
    }

    #[test]
    fn free_ways_are_taken_lowest_first_and_keep_their_payload_zero() {
        let mut t = LruSets::new(2, 4, 2);
        // Keys 0, 2, 4 and 6 all map to set 0.
        for key in [0, 2, 4, 6] {
            let (way, evicted) = t.insert(0, key);
            assert_eq!((way, evicted), (key as usize / 2, None));
            *t.payload_mut(0, way, 1) = key + 1;
        }
        assert_eq!(t.slots().count(), 4);
        t.clear_way(0, 1);
        assert_eq!(t.find(0, 2), None);
        assert_eq!(t.payload(0, 1, 1), 0);
        assert_eq!(t.insert(0, 8), (1, None), "the freed way, not the LRU one");
        let (way, evicted) = t.insert(0, 10);
        assert_eq!((way, evicted), (0, Some(0)));
        assert_eq!(t.payload(0, way, 1), 1, "the evicted key's payload");
        assert_eq!(
            t.slots().collect::<Vec<_>>(),
            [(0, 0), (0, 1), (0, 2), (0, 3)]
        );
        t.clear();
        assert_eq!(t.slots().count(), 0);
        assert_eq!(t.insert(0, 4), (0, None));
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_is_rejected() {
        let _ = LruSets::new(1, 17, 1);
    }
}
