//! The sharded, content-addressed schedule cache.
//!
//! Sixteen `Mutex`-guarded shards, picked by hashing the [`CacheKey`];
//! concurrent sweep workers only contend when they touch the same shard.
//! A key maps to one value. The key digests the exact body and the exact
//! context (see [`crate::hash`]), so a cached value is always *the* value
//! the cold path would have produced for that precise request, bit for
//! bit.
//!
//! **Poisoned shards are recovered, not propagated.** A panicking scheduler
//! thread poisons whatever shard mutex it held; unwrapping the poison would
//! turn one bad request into a permanently dead resident service. Entries
//! are insert-once keep-first — a lookup never observes a half-written
//! entry because the map insert is the last thing an insert does and
//! clones are taken under the lock — so the map behind a poisoned mutex is
//! still consistent and every accessor simply takes the guard back with
//! [`PoisonError::into_inner`].

use crate::hash::CacheKey;
use dms_telemetry::Counter;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Mutex, PoisonError};

/// Snapshot of the cache's activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry for their key.
    pub misses: u64,
    /// Entries inserted (re-inserting an existing entry does not count).
    pub inserts: u64,
}

/// Shard count: comfortably above the worker counts the sweep engine runs
/// with, so shard contention stays negligible.
const SHARDS: usize = 16;

/// One shard: a key mapped to its value.
type Shard<V> = Mutex<HashMap<CacheKey, V>>;

/// A sharded map from a key to a cloneable value.
///
/// The hit/miss/insert counters are `dms-telemetry` [`Counter`] handles,
/// so the cache publishes its activity straight into the metrics registry
/// that registered them.
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Shard<V>>,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
}

impl<V: Clone> ShardedCache<V> {
    /// Creates an empty cache whose hit/miss/insert counts feed the given
    /// counters (typically registered in the owning service's registry).
    pub fn with_counters(hits: Counter, misses: Counter, inserts: Counter) -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits,
            misses,
            inserts,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Shard<V> {
        &self.shards[(key.mixed() % SHARDS as u64) as usize]
    }

    /// Looks up the entry for `key`, counting a hit or a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<V> {
        let shard = self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        let found = shard.get(key).cloned();
        drop(shard);
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        found
    }

    /// Inserts a value for `key`. Keep-first: if another worker raced us
    /// to the same key the existing entry wins — both workers computed it
    /// from identical inputs through a deterministic pipeline, so the
    /// values are identical and the first stays.
    pub fn insert(&self, key: CacheKey, value: V) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(PoisonError::into_inner);
        if let Entry::Vacant(slot) = shard.entry(key) {
            slot.insert(value);
            drop(shard);
            self.inserts.inc();
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/insert counters.
    pub fn stats(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(body: u64, context: u64) -> CacheKey {
        CacheKey { body, context }
    }

    fn cache<V: Clone>() -> ShardedCache<V> {
        ShardedCache::with_counters(Counter::default(), Counter::default(), Counter::default())
    }

    #[test]
    fn lookup_miss_insert_hit() {
        let cache: ShardedCache<String> = cache();
        let k = key(1, 2);
        assert_eq!(cache.lookup(&k), None);
        cache.insert(k, "v".to_string());
        assert_eq!(cache.lookup(&k), Some("v".to_string()));
        assert_eq!(cache.stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn reinsert_keeps_the_first_value_and_does_not_count() {
        let cache: ShardedCache<u32> = cache();
        let k = key(5, 5);
        cache.insert(k, 1);
        cache.insert(k, 2);
        assert_eq!(cache.lookup(&k), Some(1));
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn a_poisoned_shard_keeps_serving_lookups_inserts_and_len() {
        let cache: ShardedCache<u32> = cache();
        let k = key(3, 4);
        cache.insert(k, 11);

        // Poison every shard: a thread panics while holding each lock
        // (exactly what a panicking scheduler worker would do mid-insert).
        for shard in &cache.shards {
            std::thread::scope(|s| {
                let handle = s.spawn(|| {
                    let _guard = shard.lock().unwrap();
                    panic!("poison the shard");
                });
                assert!(handle.join().is_err(), "the poisoning thread must have panicked");
            });
        }
        assert!(cache.shards.iter().all(|shard| shard.is_poisoned()));

        // Every accessor recovers the guard instead of propagating the
        // panic: the pre-poison entry survives and new inserts land.
        assert_eq!(cache.lookup(&k), Some(11));
        let k2 = key(5, 6);
        cache.insert(k2, 22);
        assert_eq!(cache.lookup(&k2), Some(22));
        assert_eq!(cache.len(), 2);
    }
}
