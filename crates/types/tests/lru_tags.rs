//! `LruTags` against the stamp model it replaces: a plain
//! `Vec<(key, payload, tick)>` whose victim is the `min_by_key` over the
//! stamps of each entry's last insert or touch.
//!
//! Capacities reach past the 128-entry segment cache, and keys take the
//! callers' `tag << 48 | region` shape, so the key index meets full
//! arrays, long eviction chains and sparse key spaces.

use hvc_types::LruTags;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The stamp-scan model.
struct StampModel {
    entries: Vec<(u64, u32, u64)>,
    capacity: usize,
    tick: u64,
}

impl StampModel {
    fn find(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == key)
    }

    fn touch(&mut self, i: usize) {
        self.tick += 1;
        self.entries[i].2 = self.tick;
    }

    fn insert(&mut self, key: u64, payload: u32) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut victim = None;
        if self.entries.len() == self.capacity {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .expect("non-empty");
            victim = Some(self.entries.swap_remove(i).0);
        }
        self.entries.push((key, payload, self.tick));
        victim
    }

    /// `(key, payload)` from most to least recently used.
    fn by_recency(&self) -> Vec<(u64, u32)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|e| std::cmp::Reverse(e.2));
        v.into_iter().map(|(k, p, _)| (k, p)).collect()
    }
}

/// The callers' key shape: `tag << 48 | region` (an ASID over a region
/// or page number). Picks land on `tags` tags and `regions` regions
/// `stride` apart from `base`.
#[derive(Clone, Copy, Debug)]
struct KeyShape {
    tags: u64,
    regions: u64,
    base: u64,
    stride: u64,
}

impl KeyShape {
    fn key(&self, pick: u64) -> u64 {
        let tag = pick % self.tags;
        let region = self.base + (pick / self.tags % self.regions) * self.stride;
        tag << 48 | region
    }
}

fn contents(tags: &LruTags<u32>) -> Vec<(u64, u32)> {
    tags.keys_by_recency()
        .map(|k| {
            (
                k,
                *tags.payload(tags.find(k).expect("listed key is present")),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation leaves both structures with the same entries in
    /// the same recency order, every insert evicts the same victim, and
    /// `find` agrees with the model on every key ever inserted.
    #[test]
    fn lru_tags_match_the_stamp_model(
        capacity in prop_oneof![0usize..9, 120usize..131, 0usize..131],
        tags_count in 1u64..5,
        spread in 1usize..13,
        base in prop_oneof![Just(0u64), 0u64..1 << 26],
        stride in prop::sample::select(vec![1u64, 2, 64, 1 << 12, 0x1_0001, (1 << 20) - 1]),
        ops in prop::collection::vec((0u8..200, any::<u64>(), any::<u32>()), 1..1000),
    ) {
        // About `spread / 4` times the capacity in distinct keys: small
        // spreads mostly hit, large ones mostly evict.
        let shape = KeyShape {
            tags: tags_count,
            regions: (capacity * spread / 4 + 2) as u64,
            base,
            stride,
        };
        let mut tags = LruTags::new(capacity);
        let mut model = StampModel { entries: Vec::new(), capacity, tick: 0 };
        let mut seen = BTreeSet::new();
        for (op, pick, value) in ops {
            let key = shape.key(pick);
            match op {
                // Insert an absent key (the common miss path).
                0..=79 => {
                    if model.find(key).is_none() {
                        prop_assert_eq!(tags.insert(key, value), model.insert(key, value));
                        seen.insert(key);
                    }
                }
                // Touch on a hit.
                80..=139 => {
                    let slot = tags.find(key);
                    prop_assert_eq!(slot.is_some(), model.find(key).is_some());
                    if let (Some(slot), Some(i)) = (slot, model.find(key)) {
                        prop_assert_eq!(*tags.payload(slot), model.entries[i].1);
                        tags.touch(slot);
                        model.touch(i);
                    }
                }
                // Touch-or-insert with a new payload.
                140..=196 => {
                    tags.put(key, value);
                    match model.find(key) {
                        Some(i) => {
                            model.entries[i].1 = value;
                            model.touch(i);
                        }
                        None => {
                            model.insert(key, value);
                        }
                    }
                    seen.insert(key);
                }
                // Drop every key in one residue class. Retains and clears
                // are rare, so the largest arrays fill and evict.
                197 => {
                    let m = u64::from(value % 3) + 2;
                    let r = key % m;
                    tags.retain(|k| k % m != r);
                    model.entries.retain(|e| e.0 % m != r);
                }
                // Drop one tag (an ASID flush).
                198 => {
                    let tag = key >> 48;
                    tags.retain(|k| k >> 48 != tag);
                    model.entries.retain(|e| e.0 >> 48 != tag);
                }
                _ => {
                    tags.clear();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(contents(&tags), model.by_recency());
            let live: HashMap<u64, u32> = model.entries.iter().map(|e| (e.0, e.1)).collect();
            for &probe in &seen {
                let found = tags.find(probe).map(|slot| *tags.payload(slot));
                prop_assert_eq!(found, live.get(&probe).copied(), "key {:#x}", probe);
            }
        }
    }
}
