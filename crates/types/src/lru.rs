//! An exact-LRU tag array for small fully associative structures.

use crate::FxHashMap;

/// Key of a free slot; no live key may equal it.
const EMPTY: u64 = u64::MAX;

/// One node of the intrusive recency list (slot indices).
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u16,
    next: u16,
}

/// Up to `capacity` distinct `u64` keys, each with a payload, kept in
/// exact least-recently-used order — the replacement state of a fully
/// associative translation cache (segment cache, walk cache, nested TLB,
/// range TLB).
///
/// Keys sit in one dense array beside a hash index from key to slot, so
/// a lookup is one hash probe whatever the capacity. Recency is a doubly
/// linked list of `u16` slot indices threaded through `links`, whose
/// extra last element is the list head: its `next` is the most recently
/// used slot and its `prev` the least. Touching an entry and
/// choosing a victim are both O(1), and the victim is always the key
/// whose last insert or touch is oldest. Slots freed by
/// [`LruTags::retain`] move to the LRU end, so inserts reuse them before
/// evicting a live key.
///
/// ```
/// use hvc_types::LruTags;
///
/// let mut tags = LruTags::new(2);
/// assert_eq!(tags.insert(1, 'a'), None);
/// assert_eq!(tags.insert(2, 'b'), None);
/// let slot = tags.find(1).unwrap();
/// tags.touch(slot);
/// assert_eq!(tags.insert(3, 'c'), Some(2), "2 is least recently used");
/// assert_eq!(tags.find(2), None);
/// ```
#[derive(Clone, Debug)]
pub struct LruTags<P> {
    keys: Vec<u64>,
    payloads: Vec<P>,
    links: Vec<Link>,
    /// Slot of every live key.
    index: FxHashMap<u64, u16>,
}

impl<P> LruTags<P> {
    /// Most slots an array can have: slot indices, and the list head one
    /// past the last slot, are `u16`s.
    pub const MAX_CAPACITY: usize = u16::MAX as usize - 1;

    /// An empty array of `capacity` slots (zero keeps nothing).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds [`LruTags::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "LruTags capacity {capacity}"
        );
        let head = capacity as u16;
        LruTags {
            keys: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
            // Twice the capacity keeps the index at most half full, so
            // the tombstones evictions leave are cleared by an in-place
            // rehash and never grow it: the index allocates only here.
            index: FxHashMap::with_capacity_and_hasher(2 * capacity, Default::default()),
            links: vec![
                Link {
                    prev: head,
                    next: head
                };
                capacity + 1
            ],
        }
    }

    fn capacity(&self) -> usize {
        self.links.len() - 1
    }

    /// The slot holding `key`, if present (no recency update).
    #[inline]
    pub fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY, "reserved key");
        self.index.get(&key).map(|&slot| usize::from(slot))
    }

    /// The first live slot whose payload satisfies `pred`, in slot order
    /// (no recency update) — for structures matched by range rather
    /// than by key.
    #[inline]
    pub fn find_by(&self, mut pred: impl FnMut(&P) -> bool) -> Option<usize> {
        self.keys
            .iter()
            .zip(&self.payloads)
            .position(|(&k, p)| k != EMPTY && pred(p))
    }

    /// The payload in `slot`.
    #[inline]
    pub fn payload(&self, slot: usize) -> &P {
        &self.payloads[slot]
    }

    /// Makes `slot` the most recently used entry.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        self.unlink(slot);
        self.link_after(self.capacity(), slot);
    }

    /// Inserts an absent `key` as the most recently used entry. A full
    /// array first evicts its least recently used key, which is
    /// returned; a zero-capacity array drops the insert.
    pub fn insert(&mut self, key: u64, payload: P) -> Option<u64> {
        debug_assert!(self.find(key).is_none(), "key {key:#x} already present");
        let head = self.capacity();
        if self.keys.len() < head {
            let slot = self.keys.len();
            self.keys.push(key);
            self.payloads.push(payload);
            self.index.insert(key, slot as u16);
            self.link_after(head, slot);
            return None;
        }
        if head == 0 {
            return None;
        }
        let slot = usize::from(self.links[head].prev);
        let old = std::mem::replace(&mut self.keys[slot], key);
        self.payloads[slot] = payload;
        self.touch(slot);
        if old != EMPTY {
            self.index.remove(&old);
        }
        self.index.insert(key, slot as u16);
        (old != EMPTY).then_some(old)
    }

    /// Touches `key` and replaces its payload if present; inserts it
    /// otherwise.
    pub fn put(&mut self, key: u64, payload: P) {
        match self.find(key) {
            Some(slot) => {
                self.payloads[slot] = payload;
                self.touch(slot);
            }
            None => {
                self.insert(key, payload);
            }
        }
    }

    /// Drops every entry whose key fails `keep`; recency among the
    /// survivors is unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let tail = self.capacity();
        for slot in 0..self.keys.len() {
            let key = self.keys[slot];
            if key != EMPTY && !keep(key) {
                self.keys[slot] = EMPTY;
                self.index.remove(&key);
                self.unlink(slot);
                self.link_after(usize::from(self.links[tail].prev), slot);
            }
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.payloads.clear();
        self.index.clear();
        let head = self.capacity();
        self.links[head] = Link {
            prev: head as u16,
            next: head as u16,
        };
    }

    /// Live keys from most to least recently used.
    pub fn keys_by_recency(&self) -> impl Iterator<Item = u64> + '_ {
        let head = self.capacity();
        let mut slot = usize::from(self.links[head].next);
        std::iter::from_fn(move || {
            while slot != head {
                let key = self.keys[slot];
                slot = usize::from(self.links[slot].next);
                if key != EMPTY {
                    return Some(key);
                }
            }
            None
        })
    }

    fn unlink(&mut self, slot: usize) {
        let Link { prev, next } = self.links[slot];
        self.links[usize::from(prev)].next = next;
        self.links[usize::from(next)].prev = prev;
    }

    /// Links `slot` right after `at` (the head when `at` is the
    /// sentinel).
    fn link_after(&mut self, at: usize, slot: usize) {
        let next = self.links[at].next;
        self.links[slot] = Link {
            prev: at as u16,
            next,
        };
        self.links[usize::from(next)].prev = slot as u16;
        self.links[at].next = slot as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_least_recently_touched() {
        let mut t = LruTags::new(3);
        for k in 1..=3 {
            assert_eq!(t.insert(k, ()), None);
        }
        t.touch(t.find(1).unwrap());
        assert_eq!(t.insert(4, ()), Some(2));
        assert_eq!(t.keys_by_recency().collect::<Vec<_>>(), [4, 1, 3]);
    }

    #[test]
    fn retained_out_slots_are_reused_before_eviction() {
        let mut t = LruTags::new(3);
        for k in 1..=3 {
            t.insert(k, k * 10);
        }
        t.retain(|k| k != 3);
        assert_eq!(t.find(3), None);
        assert_eq!(t.insert(5, 50), None, "the freed slot takes the insert");
        assert_eq!(t.insert(6, 60), Some(1));
        assert_eq!(*t.payload(t.find(5).unwrap()), 50);
        assert_eq!(t.keys_by_recency().collect::<Vec<_>>(), [6, 5, 2]);
    }

    #[test]
    fn put_updates_in_place() {
        let mut t = LruTags::new(2);
        t.put(1, 'a');
        t.put(2, 'b');
        t.put(1, 'c');
        assert_eq!(*t.payload(t.find(1).unwrap()), 'c');
        assert_eq!(t.insert(3, 'd'), Some(2));
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut t = LruTags::new(0);
        assert_eq!(t.insert(1, ()), None);
        t.put(1, ());
        assert_eq!(t.find(1), None);
        assert_eq!(t.keys_by_recency().count(), 0);
    }

    #[test]
    fn clear_empties_and_restarts() {
        let mut t = LruTags::new(2);
        t.insert(1, ());
        t.insert(2, ());
        t.clear();
        assert_eq!(t.find(1), None);
        assert_eq!(t.insert(3, ()), None);
        assert_eq!(t.keys_by_recency().collect::<Vec<_>>(), [3]);
    }
}
