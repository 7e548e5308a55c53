//! Differential test of the set-associative tag store against a naive
//! per-way stamp model.

use hvc_types::LruSets;
use proptest::prelude::*;

/// One way of the model: its key, last insert-or-touch time and payload.
#[derive(Clone, Copy, Debug)]
struct Way {
    key: u64,
    stamp: u64,
    payload: u64,
}

/// Every set as a `Vec` of optional ways with a global-tick stamp each:
/// an insert takes the lowest free way, or in a full set the way with
/// the minimum stamp.
struct Model {
    sets: Vec<Vec<Option<Way>>>,
    tick: u64,
}

impl Model {
    fn new(sets: usize, ways: usize) -> Self {
        Model {
            sets: vec![vec![None; ways]; sets],
            tick: 0,
        }
    }

    fn find(&self, set: usize, key: u64) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|w| w.is_some_and(|w| w.key == key))
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.sets[set][way].as_mut().expect("occupied").stamp = self.tick;
    }

    fn insert(&mut self, set: usize, key: u64, payload: u64) -> (usize, Option<u64>) {
        self.tick += 1;
        let ways = &mut self.sets[set];
        let (way, evicted) = match ways.iter().position(Option::is_none) {
            Some(free) => (free, None),
            None => {
                let lru = (0..ways.len())
                    .min_by_key(|&w| ways[w].expect("full").stamp)
                    .expect("a way");
                (lru, ways[lru].map(|w| w.key))
            }
        };
        ways[way] = Some(Way {
            key,
            stamp: self.tick,
            payload,
        });
        (way, evicted)
    }
}

/// The operation alphabet: a read (touch on a hit, insert on a miss,
/// like a cache access), a touch-free probe, freeing a key's way, and
/// clearing everything.
#[derive(Clone, Debug)]
enum Op {
    Access(u64, u64),
    Probe(u64),
    Free(u64),
    Clear,
}

/// Of every 200 ops, one clears, 10 free, 29 probe and 160 access, so
/// 16-way sets fill and evict between clears.
fn op(keys: u64) -> impl Strategy<Value = Op> {
    (0u8..200, 0..keys, any::<u64>()).prop_map(|(roll, k, p)| match roll {
        0 => Op::Clear,
        1..=10 => Op::Free(k),
        11..=39 => Op::Probe(k),
        _ => Op::Access(k, p),
    })
}

proptest! {
    /// At 1 to 16 ways, 1 or 4 sets and 0 to 2 payload columns, the
    /// store places every key in the model's way, evicts the model's
    /// key, keeps every payload word, and holds the same keys.
    #[test]
    fn store_matches_the_stamp_model(
        ways in prop_oneof![
            Just(1usize), Just(2), Just(3), Just(4), Just(7), Just(8), Just(15), Just(16)
        ],
        sets in prop_oneof![Just(1usize), Just(4)],
        columns in 0usize..3,
        ops in prop::collection::vec(op(1 << 16), 1..600),
    ) {
        // Two keys per way over all sets: sets fill, then evict.
        let keys = (2 * ways * sets) as u64;
        let mut tags = LruSets::new(sets, ways, columns);
        let mut model = Model::new(sets, ways);
        for op in ops {
            match op {
                Op::Access(key, payload) => {
                    let key = key % keys;
                    let set = tags.set_of(key);
                    prop_assert_eq!(set, key as usize % sets);
                    let way = tags.find(set, key);
                    prop_assert_eq!(way, model.find(set, key), "find {}", key);
                    match way {
                        Some(way) => {
                            tags.touch(set, way);
                            model.touch(set, way);
                            if columns > 0 {
                                let want = model.sets[set][way].expect("hit").payload;
                                prop_assert_eq!(tags.payload(set, way, columns - 1), want);
                            }
                        }
                        None => {
                            let (way, evicted) = tags.insert(set, key);
                            prop_assert_eq!((way, evicted), model.insert(set, key, payload));
                            for c in 0..columns {
                                *tags.payload_mut(set, way, c) = payload;
                            }
                        }
                    }
                }
                Op::Probe(key) => {
                    let key = key % keys;
                    let set = tags.set_of(key);
                    prop_assert_eq!(tags.find(set, key), model.find(set, key));
                }
                Op::Free(key) => {
                    let key = key % keys;
                    let set = tags.set_of(key);
                    if let Some(way) = model.find(set, key) {
                        tags.clear_way(set, way);
                        model.sets[set][way] = None;
                        for c in 0..columns {
                            prop_assert_eq!(tags.payload(set, way, c), 0);
                        }
                    }
                }
                Op::Clear => {
                    tags.clear();
                    model.sets.iter_mut().flatten().for_each(|w| *w = None);
                }
            }
        }
        let held: Vec<(usize, usize, u64)> = tags
            .slots()
            .map(|(set, way)| (set, way, tags.key(set, way)))
            .collect();
        let want: Vec<(usize, usize, u64)> = model
            .sets
            .iter()
            .enumerate()
            .flat_map(|(s, ways)| {
                ways.iter()
                    .enumerate()
                    .filter_map(move |(w, way)| way.map(|way| (s, w, way.key)))
            })
            .collect();
        prop_assert_eq!(held, want);
    }
}
