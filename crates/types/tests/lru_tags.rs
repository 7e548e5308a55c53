//! `LruTags` against the stamp model it replaces: a plain
//! `Vec<(key, payload, tick)>` whose victim is the `min_by_key` over the
//! stamps of each entry's last insert or touch.

use hvc_types::LruTags;
use proptest::prelude::*;

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
    /// the same recency order, and every insert evicts the same victim.
    #[test]
    fn lru_tags_match_the_stamp_model(
        capacity in 0usize..9,
        ops in prop::collection::vec((0u8..16, 0u64..14, any::<u32>()), 1..300),
    ) {
        let mut tags = LruTags::new(capacity);
        let mut model = StampModel { entries: Vec::new(), capacity, tick: 0 };
        for (op, key, value) in ops {
            match op {
                // Insert an absent key (the common miss path).
                0..=5 => {
                    if model.find(key).is_none() {
                        prop_assert_eq!(tags.insert(key, value), model.insert(key, value));
                    }
                }
                // Touch on a hit.
                6..=9 => {
                    let slot = tags.find(key);
                    prop_assert_eq!(slot.is_some(), model.find(key).is_some());
                    if let (Some(slot), Some(i)) = (slot, model.find(key)) {
                        prop_assert_eq!(*tags.payload(slot), model.entries[i].1);
                        tags.touch(slot);
                        model.touch(i);
                    }
                }
                // Touch-or-insert with a new payload.
                10..=12 => {
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
                }
                // Drop every key in one residue class.
                13 | 14 => {
                    let m = u64::from(value % 3) + 2;
                    let r = key % m;
                    tags.retain(|k| k % m != r);
                    model.entries.retain(|e| e.0 % m != r);
                }
                _ => {
                    tags.clear();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(contents(&tags), model.by_recency());
            for probe in 0..14 {
                prop_assert_eq!(tags.find(probe).is_some(), model.find(probe).is_some());
            }
        }
    }
}
