//! The sharded, memoizing result cache.
//!
//! Maps a stable [`hvc_runner::cell_key`] to the cell's fully
//! serialized statistics. The map is split into power-of-two shards,
//! each behind its own mutex, so concurrent sweep requests contend only
//! when they touch the same shard — the classic concurrent keyed-cache
//! shape (cf. mini-moka), hand-rolled because the workspace is offline.
//!
//! Each shard is an exact-LRU [`LruTags`] array holding its share of a
//! global capacity bound: a hit makes its entry the most recent, and an
//! insert into a full shard evicts that shard's least recently used
//! entry, both in O(1).

use hvc_types::LruTags;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where a cached value originally came from — reported per cell in the
/// NDJSON stream so clients (and tests) can tell a warm-cache hit from
/// a crash-resume replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Simulated by this server process and inserted on completion.
    Simulated,
    /// Replayed from the on-disk spool when the server restarted.
    Spool,
}

/// One memoized cell: the serialized `stats` object (observability
/// sections included; they are stripped at response time for
/// `obs: false` requests) plus its provenance.
#[derive(Clone, Debug)]
pub struct CachedCell {
    /// The cell's `stats` JSON (always the full, obs-wide form).
    pub stats: hvc_runner::json::Value,
    /// How this entry entered the cache.
    pub origin: Origin,
}

/// Monotonic counters describing cache traffic, for `GET /stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (first-time completions and spool replays).
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Total capacity across shards.
    pub capacity: u64,
}

/// The one key [`LruTags`] reserves for its free slots; a cell whose key
/// hashes to it is never memoized.
const RESERVED_KEY: u64 = u64::MAX;

/// A sharded `cell_key → CachedCell` LRU cache, safe to share across
/// request-handler and worker threads behind an `Arc`.
pub struct ResultCache {
    shards: Vec<Mutex<LruTags<Arc<CachedCell>>>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Number of shards; a power of two so shard selection is a mask.
    const SHARDS: usize = 16;

    /// Largest capacity [`ResultCache::new`] accepts: every shard's share
    /// must fit one [`LruTags`] array.
    pub const MAX_CAPACITY: usize = Self::SHARDS * LruTags::<()>::MAX_CAPACITY;

    /// Creates a cache holding at most `capacity` entries (rounded up
    /// to a multiple of the shard count; a zero capacity still admits
    /// one entry per shard so the cache degrades rather than panics).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds [`ResultCache::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> ResultCache {
        let per_shard_capacity = capacity.div_ceil(Self::SHARDS).max(1);
        ResultCache {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(LruTags::new(per_shard_capacity)))
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The key is already an FNV-1a hash with well-mixed low bits, so
    /// shard selection is a plain mask.
    fn shard(&self, key: u64) -> &Mutex<LruTags<Arc<CachedCell>>> {
        &self.shards[(key as usize) & (Self::SHARDS - 1)]
    }

    /// Looks up `key`, making it the shard's most recent entry on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<CachedCell>> {
        let mut shard = self.shard(key).lock().unwrap();
        match (key != RESERVED_KEY).then(|| shard.find(key)).flatten() {
            Some(slot) => {
                shard.touch(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(shard.payload(slot)))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's
    /// least-recently-used entry if the shard is full.
    pub fn insert(&self, key: u64, value: Arc<CachedCell>) {
        if key == RESERVED_KEY {
            return;
        }
        let mut shard = self.shard(key).lock().unwrap();
        if shard.find(key).is_some() {
            shard.put(key, value);
            return;
        }
        if shard.insert(key, value).is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the traffic counters (each
    /// counter is individually exact; the set is not read atomically).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().keys_by_recency().count() as u64)
                .sum(),
            capacity: (self.per_shard_capacity * Self::SHARDS) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_runner::json::Value;

    fn cell(n: u64) -> Arc<CachedCell> {
        Arc::new(CachedCell {
            stats: Value::UInt(n),
            origin: Origin::Simulated,
        })
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ResultCache::new(64);
        assert!(cache.get(1).is_none());
        cache.insert(1, cell(10));
        let hit = cache.get(1).expect("hit");
        assert_eq!(hit.stats, Value::UInt(10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        // Single-entry shards: keys in the same shard displace each
        // other, and the LRU (not the newest) entry is the victim.
        let cache = ResultCache::new(0);
        let (a, b) = (16, 32); // same shard (both ≡ 0 mod 16)
        cache.insert(a, cell(1));
        cache.insert(b, cell(2));
        assert!(cache.get(a).is_none(), "LRU entry should be evicted");
        assert!(cache.get(b).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let cache = ResultCache::new(ResultCache::SHARDS * 2); // 2 per shard
        let (a, b, c) = (16, 32, 48); // one shard
        cache.insert(a, cell(1));
        cache.insert(b, cell(2));
        assert!(cache.get(a).is_some()); // refresh a; b is now LRU
        cache.insert(c, cell(3));
        assert!(cache.get(a).is_some(), "refreshed entry survived");
        assert!(cache.get(b).is_none(), "stale entry evicted");
        assert!(cache.get(c).is_some());
    }

    #[test]
    fn reinserting_a_key_replaces_without_counting_twice() {
        let cache = ResultCache::new(64);
        cache.insert(5, cell(1));
        cache.insert(5, cell(2));
        assert_eq!(cache.get(5).unwrap().stats, Value::UInt(2));
        let s = cache.stats();
        assert_eq!((s.insertions, s.entries, s.evictions), (1, 1, 0));
    }

    #[test]
    fn the_reserved_key_is_never_memoized() {
        let cache = ResultCache::new(64);
        cache.insert(RESERVED_KEY, cell(1));
        assert!(cache.get(RESERVED_KEY).is_none());
        let s = cache.stats();
        assert_eq!((s.insertions, s.entries, s.misses), (0, 0, 1));
    }

    #[test]
    fn concurrent_readers_and_writers_are_safe() {
        let cache = Arc::new(ResultCache::new(256));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = (t * 1_000 + i) % 97;
                        cache.insert(key, cell(key));
                        if let Some(v) = cache.get(key) {
                            // A racing eviction may drop the key, but a
                            // present value is never torn.
                            assert_eq!(v.stats, Value::UInt(key));
                        }
                    }
                });
            }
        });
        assert!(cache.stats().entries <= 256 + ResultCache::SHARDS as u64);
    }
}
