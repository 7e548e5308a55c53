//! A dense chunked page set keyed by virtual page number.
//!
//! The kernel's touched-page accounting set is probed on every simulated
//! memory reference. As a flat hash set over individual page numbers it
//! grows to megabytes for large workloads and costs the host ~two cache
//! lines per probe (control bytes + slot). Virtual pages are dense in
//! practice (VMAs are contiguous runs), so [`PageSet`] groups 512
//! consecutive pages per chunk behind one small hash lookup: one 64-byte
//! bitmap per chunk — a 512 MB region costs 16 KB instead of megabytes,
//! so it stays resident in the host's near caches. The page table's
//! leaves use the same 512-page chunking (see `PageTable`).
//!
//! The set exposes no iteration, so the chunk hash's order can never
//! leak into simulation results.

use hvc_types::FxHashMap;

/// Pages per chunk (9 bits — one x86 page-table level's fan-out).
const CHUNK_PAGES: u64 = 512;
/// Bitmap words per [`PageSet`] chunk.
const CHUNK_WORDS: usize = (CHUNK_PAGES / 64) as usize;

#[inline]
fn split(page: u64) -> (u64, usize) {
    (page / CHUNK_PAGES, (page % CHUNK_PAGES) as usize)
}

/// A set of page numbers: chunked bitmap with a maintained count.
///
/// Drop-in for the `FxHashSet<u64>` it replaced: `insert` keeps
/// first-insertion semantics (returns `true` if newly added) and `len`
/// counts distinct members since creation of the set.
#[derive(Clone, Debug, Default)]
pub struct PageSet {
    chunks: FxHashMap<u64, Box<[u64; CHUNK_WORDS]>>,
    len: u64,
}

impl PageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PageSet::default()
    }

    /// Adds `page`; returns `true` if it was not already present.
    pub fn insert(&mut self, page: u64) -> bool {
        let (chunk, bit) = split(page);
        let words = self
            .chunks
            .entry(chunk)
            .or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
        let mask = 1u64 << (bit % 64);
        let word = &mut words[bit / 64];
        let fresh = *word & mask == 0;
        *word |= mask;
        self.len += u64::from(fresh);
        fresh
    }

    /// Whether `page` is in the set.
    pub fn contains(&self, page: u64) -> bool {
        let (chunk, bit) = split(page);
        self.chunks
            .get(&chunk)
            .is_some_and(|words| words[bit / 64] & (1 << (bit % 64)) != 0)
    }

    /// Number of distinct pages in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_insert_contains_len() {
        let mut s = PageSet::new();
        assert!(!s.contains(7));
        assert!(s.insert(7));
        assert!(!s.insert(7), "re-insert is not fresh");
        assert!(s.insert(7 + CHUNK_PAGES));
        assert!(s.contains(7));
        assert!(s.contains(7 + CHUNK_PAGES));
        assert!(!s.contains(8));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn set_chunk_boundaries() {
        let mut s = PageSet::new();
        for page in [0, 511, 512, 513, u64::MAX / CHUNK_PAGES * CHUNK_PAGES] {
            assert!(s.insert(page), "{page}");
            assert!(s.contains(page), "{page}");
        }
        assert_eq!(s.len(), 5);
    }
}
