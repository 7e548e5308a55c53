//! A single 1K-bit Bloom filter with the paper's two XOR-folding hash
//! functions.

use hvc_types::{VirtAddr, VIRT_ADDR_BITS};

/// Number of bits in one Bloom filter (the paper uses 1K-bit filters).
const BLOOM_BITS: usize = 1024;
/// Bits of index produced by each hash function (log2 of [`BLOOM_BITS`]).
const INDEX_BITS: u32 = 10;
/// Each hash function concatenates two 5-bit XOR folds.
const HALF_BITS: u32 = INDEX_BITS / 2;

/// A 1K-bit Bloom filter over virtual addresses at a fixed granularity.
///
/// The hash scheme follows the paper exactly: the virtual address is
/// trimmed by `granularity_shift` bits; the remaining bits are split into
/// two partitions (one hash splits 1:1, the other 1:2); each partition is
/// XOR-folded down to 5 bits; and the two 5-bit results concatenate into a
/// 10-bit filter index. The filter reports membership only when **both**
/// hash positions are set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    words: [u64; BLOOM_BITS / 64],
    granularity_shift: u32,
}

impl BloomFilter {
    /// Creates an empty filter tracking regions of `1 << granularity_shift`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if the granularity leaves fewer than ten address
    /// bits to hash.
    pub fn new(granularity_shift: u32) -> Self {
        assert!(
            granularity_shift + INDEX_BITS <= VIRT_ADDR_BITS,
            "granularity leaves too few bits to hash"
        );
        BloomFilter {
            words: [0; BLOOM_BITS / 64],
            granularity_shift,
        }
    }

    /// Returns the granularity shift.
    pub fn granularity_shift(&self) -> u32 {
        self.granularity_shift
    }

    /// Inserts the region containing `va`.
    pub fn insert(&mut self, va: VirtAddr) {
        for idx in self.indices(va) {
            self.words[(idx / 64) as usize] |= 1u64 << (idx % 64);
        }
    }

    /// Returns `true` if both hash positions for `va` are set.
    #[inline]
    pub fn contains(&self, va: VirtAddr) -> bool {
        self.indices(va)
            .into_iter()
            .all(|idx| self.words[(idx / 64) as usize] & (1u64 << (idx % 64)) != 0)
    }

    /// Clears all bits (filter reconstruction).
    pub fn clear(&mut self) {
        self.words = [0; BLOOM_BITS / 64];
    }

    /// Fraction of set bits in `[0, 1]` — a saturation measure the OS can
    /// use to decide when to rebuild the filter.
    pub fn saturation(&self) -> f64 {
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / BLOOM_BITS as f64
    }

    /// The two 10-bit filter indices for `va`.
    #[inline]
    fn indices(&self, va: VirtAddr) -> [u16; 2] {
        let key = va.as_u64() >> self.granularity_shift;
        let width = VIRT_ADDR_BITS - self.granularity_shift;
        // Hash 1 partitions the key bits 1:1, hash 2 partitions 1:2.
        let split_even = width / 2;
        let split_third = width / 3;
        [
            Self::fold_pair(key, width, split_even),
            Self::fold_pair(key, width, split_third),
        ]
    }

    /// Splits the low `width` bits of `key` at `split`, XOR-folds each
    /// side to 5 bits, and concatenates into a 10-bit index.
    #[inline]
    fn fold_pair(key: u64, width: u32, split: u32) -> u16 {
        let low = key & ((1u64 << split) - 1);
        let high = (key >> split) & ((1u64 << (width - split)) - 1);
        let lo5 = Self::xor_fold5(low);
        let hi5 = Self::xor_fold5(high);
        ((hi5 << HALF_BITS) | lo5) as u16
    }

    /// XOR-folds a value into 5 bits.
    #[inline]
    fn xor_fold5(mut v: u64) -> u64 {
        let mut acc = 0u64;
        while v != 0 {
            acc ^= v & 0x1f;
            v >>= 5;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(15);
        assert!(!f.contains(VirtAddr::new(0)));
        assert!(!f.contains(VirtAddr::new(0x7fff_ffff_f000)));
        assert_eq!(f.saturation(), 0.0);
    }

    #[test]
    fn inserted_regions_are_found() {
        let mut f = BloomFilter::new(15);
        let va = VirtAddr::new(0x1234_5678_8000); // 32 KB aligned
        f.insert(va);
        assert!(f.contains(va));
        // Any address within the same 32 KB region hits.
        assert!(f.contains(VirtAddr::new(0x1234_5678_8000 + 0x7fff)));
    }

    #[test]
    fn granularity_bounds_region() {
        let mut f = BloomFilter::new(15);
        f.insert(VirtAddr::new(0));
        // The next 32 KB region hashes independently (may or may not
        // collide, but for these specific values it does not).
        assert!(!f.contains(VirtAddr::new(0x8000)));
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(24);
        f.insert(VirtAddr::new(0xdead_b000));
        assert!(f.saturation() > 0.0);
        f.clear();
        assert_eq!(f.saturation(), 0.0);
        assert!(!f.contains(VirtAddr::new(0xdead_b000)));
    }

    #[test]
    fn xor_fold_stays_in_5_bits() {
        for v in [0u64, 1, 0x1f, 0x20, u64::MAX, 0x1234_5678_9abc_def0] {
            assert!(BloomFilter::xor_fold5(v) < 32);
        }
    }

    #[test]
    fn indices_stay_in_range_and_differ_between_hashes() {
        let f = BloomFilter::new(15);
        let mut differing = 0;
        let mut x = 0x9e37_79b9_7f4a_7c15u64; // LCG over the full VA space
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let va = VirtAddr::new(x);
            let [a, b] = f.indices(va);
            assert!((a as usize) < BLOOM_BITS);
            assert!((b as usize) < BLOOM_BITS);
            if a != b {
                differing += 1;
            }
        }
        assert!(differing > 900, "hashes should usually differ: {differing}");
    }

    #[test]
    fn coarsest_legal_granularity_still_hashes() {
        // At exactly VIRT_ADDR_BITS - INDEX_BITS the key is down to the
        // ten index bits — the coarsest filter the constructor accepts.
        let shift = VIRT_ADDR_BITS - INDEX_BITS;
        let mut f = BloomFilter::new(shift);
        assert_eq!(f.granularity_shift(), shift);
        let base = VirtAddr::new(7u64 << shift);
        f.insert(base);
        // The whole 1 << shift region aliases to the same key, up to the
        // very last byte of the region.
        assert!(f.contains(base));
        assert!(f.contains(VirtAddr::new((7u64 << shift) + (1u64 << shift) - 1)));
        // Index computation stays in range even for the topmost region
        // of the 48-bit space.
        let top = VirtAddr::new((1u64 << VIRT_ADDR_BITS) - 1);
        f.insert(top);
        assert!(f.contains(top));
    }

    #[test]
    #[should_panic(expected = "too few bits")]
    fn one_past_the_granularity_boundary_is_rejected() {
        let _ = BloomFilter::new(VIRT_ADDR_BITS - INDEX_BITS + 1);
    }

    #[test]
    #[should_panic(expected = "too few bits")]
    fn absurd_granularity_rejected() {
        let _ = BloomFilter::new(40);
    }

    #[test]
    fn saturation_counts_bits() {
        let mut f = BloomFilter::new(15);
        f.insert(VirtAddr::new(0));
        let sat = f.saturation();
        // One insert sets one or two bits.
        assert!((1.0 / 1024.0..=2.0 / 1024.0).contains(&sat));
    }
}
