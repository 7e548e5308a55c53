//! Property tests for the synonym filter: the no-false-negative guarantee
//! is the correctness foundation of the entire hybrid design.

use hvc_filter::SynonymFilter;
use hvc_types::VirtAddr;
use proptest::prelude::*;

proptest! {
    /// Any inserted page is a candidate forever after, at every offset of
    /// its 4 KiB page, regardless of interleaved unrelated insertions.
    #[test]
    fn inserted_pages_are_always_candidates(
        pages in prop::collection::vec(0u64..(1u64 << 36), 1..300),
        offsets in prop::collection::vec(0u64..0x1000, 1..20),
    ) {
        let mut f = SynonymFilter::new();
        for (i, &p) in pages.iter().enumerate() {
            f.insert_page(VirtAddr::new(p << 12));
            // Everything inserted so far remains detected.
            for &q in &pages[..=i] {
                for &off in &offsets {
                    prop_assert!(f.is_candidate(VirtAddr::new((q << 12) + off)));
                }
            }
        }
    }

    /// Clearing resets to the empty state: nothing previously inserted
    /// remains a candidate purely from stale state (a fresh filter and a
    /// cleared filter agree on every probe).
    #[test]
    fn clear_equals_fresh(
        pages in prop::collection::vec(0u64..(1u64 << 36), 1..100),
        probes in prop::collection::vec(0u64..(1u64 << 48), 1..100),
    ) {
        let mut f = SynonymFilter::new();
        for &p in &pages {
            f.insert_page(VirtAddr::new(p << 12));
        }
        f.clear();
        let fresh = SynonymFilter::new();
        for &q in &probes {
            prop_assert_eq!(
                f.is_candidate(VirtAddr::new(q)),
                fresh.is_candidate(VirtAddr::new(q))
            );
        }
    }

    /// Insertion order does not matter (the filter is a set of bits).
    #[test]
    fn insertion_is_commutative(mut pages in prop::collection::vec(0u64..(1u64 << 36), 2..50)) {
        let mut a = SynonymFilter::new();
        for &p in &pages {
            a.insert_page(VirtAddr::new(p << 12));
        }
        pages.reverse();
        let mut b = SynonymFilter::new();
        for &p in &pages {
            b.insert_page(VirtAddr::new(p << 12));
        }
        prop_assert_eq!(a.saturation(), b.saturation());
        for &p in &pages {
            prop_assert_eq!(
                a.is_candidate(VirtAddr::new(p << 12)),
                b.is_candidate(VirtAddr::new(p << 12))
            );
        }
    }

    /// Saturation is monotone in insertions and bounded by 1.
    #[test]
    fn saturation_monotone(pages in prop::collection::vec(0u64..(1u64 << 36), 1..200)) {
        let mut f = SynonymFilter::new();
        let mut last = (0.0, 0.0);
        for &p in &pages {
            f.insert_page(VirtAddr::new(p << 12));
            let s = f.saturation();
            prop_assert!(s.0 >= last.0 && s.1 >= last.1);
            prop_assert!(s.0 <= 1.0 && s.1 <= 1.0);
            last = s;
        }
    }
}
