//! The per-address-space synonym filter: dispatch to the selected
//! strategy (the paper's Bloom pair or the reverse lookup table) over
//! an exact set of the shared pages, kept as runs of consecutive pages.

use crate::strategy::{BloomPair, FilterKind, RltFilter, SynonymStrategy};
use hvc_types::{VirtAddr, PAGE_SHIFT};
use std::collections::BTreeMap;

/// Granularity shift of the coarse filter (16 MB regions).
pub const COARSE_SHIFT: u32 = 24;
/// Granularity shift of the fine filter (32 KB regions — "shared pages
/// are commonly allocated in 8 consecutive 4 KB pages").
pub const FINE_SHIFT: u32 = 15;
/// Bits per component Bloom filter.
pub const FILTER_BITS: usize = 1024;

/// A set of page numbers stored as maximal runs of consecutive pages,
/// `first → end` (exclusive). Shared pages are mapped a region at a
/// time, so a space holds a handful of runs however many pages it
/// shares. Runs never abut or overlap, which keeps the representation
/// canonical: two sets holding the same pages compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RunSet {
    runs: BTreeMap<u64, u64>,
    len: u64,
}

impl RunSet {
    /// The run containing or ending right before `page`, as
    /// `(first, end)`.
    fn run_at_or_before(&self, page: u64) -> Option<(u64, u64)> {
        self.runs
            .range(..=page)
            .next_back()
            .map(|(&first, &end)| (first, end))
    }

    /// Adds `page`; `false` if it was already present. A page next to a
    /// run extends it, and one that fills the gap between two runs
    /// joins them.
    fn insert(&mut self, page: u64) -> bool {
        let left = self.run_at_or_before(page);
        if matches!(left, Some((_, end)) if page < end) {
            return false;
        }
        let end = self.runs.remove(&(page + 1)).unwrap_or(page + 1);
        match left {
            Some((first, left_end)) if left_end == page => self.runs.insert(first, end),
            _ => self.runs.insert(page, end),
        };
        self.len += 1;
        true
    }

    /// Drops `page`; `false` if it was absent. Removing a page inside a
    /// run splits it in two.
    fn remove(&mut self, page: u64) -> bool {
        let Some((first, end)) = self.run_at_or_before(page).filter(|&(_, end)| page < end) else {
            return false;
        };
        if first == page {
            self.runs.remove(&first);
        } else {
            self.runs.insert(first, page);
        }
        if page + 1 < end {
            self.runs.insert(page + 1, end);
        }
        self.len -= 1;
        true
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.len = 0;
    }
}

/// The selected strategy's state.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Strategy {
    Bloom(BloomPair),
    Rlt(RltFilter),
}

/// A per-address-space synonym filter. The detection mechanism is
/// pluggable ([`FilterKind`]): the paper's dual Bloom pair (a coarse
/// 16 MB and a fine 32 KB filter that must **both** hit, Figure 3) or
/// the exact bounded reverse lookup table. The wrapper additionally
/// keeps the exact set of inserted pages (as runs of consecutive
/// pages), which makes [`SynonymFilter::insert_page`] idempotent in its
/// accounting and gives every strategy precise region reference counts.
///
/// Guarantees: [`SynonymFilter::is_candidate`] never returns `false`
/// for a page previously passed to [`SynonymFilter::insert_page`] and
/// not since removed (no false negatives). False positives are possible
/// and are corrected downstream by the TLB's false-positive entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynonymFilter {
    strategy: Strategy,
    pages: RunSet,
}

impl SynonymFilter {
    /// Creates an empty dual-Bloom filter (done at address-space
    /// creation; the paper's default mechanism).
    pub fn new() -> Self {
        Self::with_kind(FilterKind::Bloom)
    }

    /// Creates an empty filter using the given strategy.
    pub fn with_kind(kind: FilterKind) -> Self {
        let strategy = match kind {
            FilterKind::Bloom => Strategy::Bloom(BloomPair::new()),
            FilterKind::Rlt => Strategy::Rlt(RltFilter::new()),
        };
        SynonymFilter {
            strategy,
            pages: RunSet::default(),
        }
    }

    /// The strategy this filter dispatches to.
    pub fn kind(&self) -> FilterKind {
        match self.strategy {
            Strategy::Bloom(_) => FilterKind::Bloom,
            Strategy::Rlt(_) => FilterKind::Rlt,
        }
    }

    fn strategy_mut(&mut self) -> &mut dyn SynonymStrategy {
        match &mut self.strategy {
            Strategy::Bloom(b) => b,
            Strategy::Rlt(r) => r,
        }
    }

    fn strategy(&self) -> &dyn SynonymStrategy {
        match &self.strategy {
            Strategy::Bloom(b) => b,
            Strategy::Rlt(r) => r,
        }
    }

    /// Marks the page containing `va` as a synonym (shared) page. Called
    /// by the OS when a page's status changes to shared; the update is
    /// propagated to other cores via the TLB-shootdown mechanism, which
    /// the OS substrate accounts for separately. Re-inserting an
    /// already-shared page is a no-op (idempotent accounting).
    pub fn insert_page(&mut self, va: VirtAddr) {
        let page = va.as_u64() >> PAGE_SHIFT;
        if self.pages.insert(page) {
            self.strategy_mut().insert_new_page(va);
        }
    }

    /// Unmarks the page containing `va` after a synonym→non-synonym
    /// transition. Exact strategies (the RLT) drop it immediately;
    /// the Bloom pair cannot remove bits and keeps answering
    /// conservatively until the OS rebuilds. Unknown pages are ignored.
    pub fn remove_page(&mut self, va: VirtAddr) {
        let page = va.as_u64() >> PAGE_SHIFT;
        if self.pages.remove(page) {
            self.strategy_mut().remove_known_page(va);
        }
    }

    /// Returns `true` if `va` may be a synonym.
    #[inline]
    pub fn is_candidate(&self, va: VirtAddr) -> bool {
        match &self.strategy {
            Strategy::Bloom(b) => b.is_candidate(va),
            Strategy::Rlt(r) => r.is_candidate(va),
        }
    }

    /// Clears the filter (OS-driven reconstruction when stale state has
    /// accumulated after synonym→non-synonym transitions). The strategy
    /// is preserved.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.strategy_mut().clear();
    }

    /// Number of distinct pages currently marked shared (exact; a
    /// re-shared page counts once).
    pub fn insertions(&self) -> u64 {
        self.pages.len
    }

    /// Two occupancy gauges in `[0, 1]`: (coarse, fine) bit saturation
    /// for the Bloom pair; (table fill, overflow saturation) for the
    /// RLT.
    pub fn saturation(&self) -> (f64, f64) {
        self.strategy().saturation()
    }

    /// Exact regions the RLT currently tracks (0 under Bloom).
    pub fn rlt_entries(&self) -> usize {
        match &self.strategy {
            Strategy::Bloom(_) => 0,
            Strategy::Rlt(r) => r.entries(),
        }
    }

    /// Regions that overflowed the RLT into its conservative side since
    /// the last clear (0 under Bloom).
    pub fn rlt_overflowed(&self) -> u64 {
        match &self.strategy {
            Strategy::Bloom(_) => 0,
            Strategy::Rlt(r) => r.overflowed(),
        }
    }
}

impl Default for SynonymFilter {
    fn default() -> Self {
        SynonymFilter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_over_many_inserts() {
        for kind in [FilterKind::Bloom, FilterKind::Rlt] {
            let mut f = SynonymFilter::with_kind(kind);
            let pages: Vec<VirtAddr> = (0..500)
                .map(|i| VirtAddr::new(i * 0x1000 + 0x5555_0000_0000))
                .collect();
            for &p in &pages {
                f.insert_page(p);
            }
            for &p in &pages {
                assert!(f.is_candidate(p), "false negative at {p} under {kind:?}");
            }
            assert_eq!(f.insertions(), 500);
        }
    }

    #[test]
    fn insertions_accounting_is_idempotent() {
        for kind in [FilterKind::Bloom, FilterKind::Rlt] {
            let mut f = SynonymFilter::with_kind(kind);
            let page = VirtAddr::new(0x7000_3000);
            f.insert_page(page);
            f.insert_page(page);
            f.insert_page(VirtAddr::new(0x7000_3abc)); // same page
            assert_eq!(f.insertions(), 1, "{kind:?}");
            let (coarse, fine) = f.saturation();
            f.insert_page(page);
            assert_eq!(f.saturation(), (coarse, fine), "{kind:?}");
            f.remove_page(page);
            assert_eq!(f.insertions(), 0, "{kind:?}");
            // Removing again is a no-op, not an underflow.
            f.remove_page(page);
            assert_eq!(f.insertions(), 0, "{kind:?}");
        }
    }

    #[test]
    fn both_granularities_must_hit() {
        let mut f = SynonymFilter::new();
        f.insert_page(VirtAddr::new(0x1000_0000));
        // Same 16 MB region, different 32 KB region: coarse hits, fine
        // need not — verify the conjunction suppresses it (for this value
        // the fine filter does not collide).
        assert!(!f.is_candidate(VirtAddr::new(0x1080_0000 - 0x8000)));
    }

    #[test]
    fn false_positive_rate_is_low_for_sparse_sharing() {
        // Insert 32 shared regions (typical workload per Table I), then
        // probe 100k distinct non-shared addresses.
        for kind in [FilterKind::Bloom, FilterKind::Rlt] {
            let mut f = SynonymFilter::with_kind(kind);
            for i in 0..32u64 {
                f.insert_page(VirtAddr::new(0x7f00_0000_0000 + i * 0x8000));
            }
            let mut fp = 0u64;
            let probes = 100_000u64;
            for i in 0..probes {
                // Far away from the shared range.
                let va = VirtAddr::new(0x1000_0000_0000 + i * 0x1000);
                if f.is_candidate(va) {
                    fp += 1;
                }
            }
            let rate = fp as f64 / probes as f64;
            assert!(rate < 0.005, "false positive rate too high: {rate}");
        }
    }

    #[test]
    fn rlt_removal_is_exact_bloom_removal_is_conservative() {
        let page = VirtAddr::new(0x4242_8000);
        let mut rlt = SynonymFilter::with_kind(FilterKind::Rlt);
        rlt.insert_page(page);
        rlt.remove_page(page);
        assert!(!rlt.is_candidate(page), "RLT removal is exact");

        let mut bloom = SynonymFilter::with_kind(FilterKind::Bloom);
        bloom.insert_page(page);
        bloom.remove_page(page);
        // Conservative: still positive (no false negatives for aliased
        // bits), but the exact accounting already dropped it.
        assert!(bloom.is_candidate(page));
        assert_eq!(bloom.insertions(), 0);
    }

    #[test]
    fn clear_resets_everything() {
        for kind in [FilterKind::Bloom, FilterKind::Rlt] {
            let mut f = SynonymFilter::with_kind(kind);
            f.insert_page(VirtAddr::new(0x1234_5000));
            f.clear();
            assert!(!f.is_candidate(VirtAddr::new(0x1234_5000)), "{kind:?}");
            assert_eq!(f.insertions(), 0);
            assert_eq!(f.saturation(), (0.0, 0.0));
            assert_eq!(f.kind(), kind, "clear preserves the strategy");
        }
    }

    #[test]
    fn runs_merge_on_fill_and_split_on_removal() {
        let mut runs = RunSet::default();
        for page in [10, 12, 11, 20] {
            assert!(runs.insert(page));
        }
        assert!(!runs.insert(11), "already present");
        assert_eq!(runs.runs, BTreeMap::from([(10, 13), (20, 21)]));
        assert!(runs.remove(11));
        assert!(!runs.remove(11), "already absent");
        assert!(!runs.remove(15), "never present");
        assert_eq!(runs.runs, BTreeMap::from([(10, 11), (12, 13), (20, 21)]));
        assert!(runs.remove(10) && runs.remove(20));
        assert_eq!(runs.runs, BTreeMap::from([(12, 13)]));
        assert_eq!(runs.len, 1);
    }

    #[test]
    fn default_is_empty() {
        let f = SynonymFilter::default();
        assert!(!f.is_candidate(VirtAddr::new(0)));
        assert_eq!(f.kind(), FilterKind::Bloom);
    }
}
