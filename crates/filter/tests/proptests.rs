//! Property tests for the synonym filter: the no-false-negative guarantee
//! is the correctness foundation of the entire hybrid design.

use hvc_filter::{FilterKind, SynonymFilter};
use hvc_types::VirtAddr;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One operation on a filter's shared-page set.
#[derive(Clone, Copy, Debug)]
enum PageOp {
    Insert(u64),
    Remove(u64),
    Clear,
}

/// Pages from three short windows far apart, so that random inserts
/// abut and merge runs and random removals split them mid-run.
fn windowed_page() -> impl Strategy<Value = u64> {
    (0usize..3, 0u64..24).prop_map(|(w, off)| [0x10, 0x7_f000, 0x4_0000_0000][w] + off)
}

/// Inserts, removals and clears at 6 : 3 : 1.
fn page_op() -> impl Strategy<Value = PageOp> {
    (0u8..10, windowed_page()).prop_map(|(pick, page)| match pick {
        0..=5 => PageOp::Insert(page),
        6..=8 => PageOp::Remove(page),
        _ => PageOp::Clear,
    })
}

fn va(page: u64) -> VirtAddr {
    VirtAddr::new(page << 12)
}

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

    /// The exact shared-page set (runs of consecutive pages) agrees
    /// with a `BTreeSet` model under inserts, removals and clears, for
    /// both strategies: after every op the count is exact and every
    /// live page is a candidate. At the end the filter equals one that
    /// replays only the surviving history in ascending order: every
    /// page inserted since the last clear, then the removed ones taken
    /// out again (the Bloom pair keeps their bits until a rebuild).
    #[test]
    fn shared_page_runs_match_a_set_model(ops in prop::collection::vec(page_op(), 1..200)) {
        for kind in [FilterKind::Bloom, FilterKind::Rlt] {
            let mut f = SynonymFilter::with_kind(kind);
            let mut model = BTreeSet::new();
            let mut since_clear = BTreeSet::new();
            for &op in &ops {
                match op {
                    PageOp::Insert(p) => {
                        f.insert_page(va(p));
                        model.insert(p);
                        since_clear.insert(p);
                    }
                    PageOp::Remove(p) => {
                        f.remove_page(va(p));
                        model.remove(&p);
                    }
                    PageOp::Clear => {
                        f.clear();
                        model.clear();
                        since_clear.clear();
                    }
                }
                prop_assert_eq!(f.insertions(), model.len() as u64, "{:?} after {:?}", kind, op);
                for &p in &model {
                    prop_assert!(f.is_candidate(va(p)), "false negative at page {:#x} under {:?}", p, kind);
                }
            }
            let mut replayed = SynonymFilter::with_kind(kind);
            for &p in &since_clear {
                replayed.insert_page(va(p));
            }
            for p in since_clear.difference(&model) {
                replayed.remove_page(va(*p));
            }
            prop_assert_eq!(&f, &replayed, "{:?}", kind);
        }
    }
}
