//! The deterministic result cache: canonical instance key → rendered
//! report, with hit/miss/eviction counters and a bounded-memory LRU
//! tier.
//!
//! # Soundness
//!
//! The cache is keyed by the **full canonical encoding** of the
//! [`InstanceKey`](ringdeploy_analysis::InstanceKey) — never by its
//! 64-bit fingerprint — so two distinct queries cannot alias an entry
//! even under an adversarial hash collision. Because every engine entry
//! point the service dispatches is a pure function of that key (the
//! daemon fixes all free engine parameters: serial exploration,
//! per-instance limits, default certify settings), a stored payload is
//! *the* answer to its key, and serving it is indistinguishable from
//! recomputing — byte-identical, since payloads are [`Json`] values and
//! the printer is deterministic.
//!
//! # Bounded memory
//!
//! `insert` charges each entry its canonical-key length plus its
//! rendered-payload length and evicts least-recently-used entries while
//! the total exceeds the budget. The entry being inserted is exempt
//! from its own eviction round (a single oversized report still gets
//! cached and is evicted by the *next* insert), so the cache degrades
//! to "remember at least the most recent answer" rather than thrashing
//! to empty.

use std::collections::{BTreeMap, HashMap};

use ringdeploy_json::Json;

use crate::protocol::CacheStats;

struct Entry {
    payload: Json,
    bytes: usize,
    stamp: u64,
}

/// Memoized reports keyed by canonical instance key. See the
/// [module docs](self) for the soundness argument.
pub struct ResultCache {
    max_bytes: usize,
    clock: u64,
    map: HashMap<String, Entry>,
    /// LRU index: monotone use-stamp → key. Stamps are unique (the
    /// clock only moves forward), so this is a faithful recency order.
    lru: BTreeMap<u64, String>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache bounded to approximately `max_bytes` of resident
    /// key + payload text.
    pub fn new(max_bytes: usize) -> ResultCache {
        ResultCache {
            max_bytes,
            clock: 0,
            map: HashMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up `canonical_key`, counting a hit (and refreshing
    /// recency). A miss is not counted here, because a caller may probe
    /// a key again before it computes it: it counts the keys it sends
    /// to be computed with [`count_misses`](ResultCache::count_misses).
    pub fn get(&mut self, canonical_key: &str) -> Option<Json> {
        let stamp = self.tick();
        let entry = self.map.get_mut(canonical_key)?;
        self.lru.remove(&entry.stamp);
        entry.stamp = stamp;
        self.lru.insert(stamp, canonical_key.to_string());
        self.hits += 1;
        Some(entry.payload.clone())
    }

    /// Counts `keys` looked-up keys that missed and were sent to be
    /// computed.
    pub fn count_misses(&mut self, keys: usize) {
        self.misses += keys as u64;
    }

    /// Stores `payload` under `canonical_key`, then evicts
    /// least-recently-used entries (the new one exempt) while over
    /// budget. Re-inserting an existing key refreshes its payload and
    /// recency.
    pub fn insert(&mut self, canonical_key: String, payload: Json) {
        let stamp = self.tick();
        let bytes = canonical_key.len() + payload.to_string().len();
        if let Some(old) = self.map.remove(&canonical_key) {
            self.lru.remove(&old.stamp);
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.lru.insert(stamp, canonical_key.clone());
        self.map.insert(
            canonical_key,
            Entry {
                payload,
                bytes,
                stamp,
            },
        );
        while self.bytes > self.max_bytes && self.map.len() > 1 {
            let (&oldest, _) = self
                .lru
                .iter()
                .next()
                .expect("non-empty map has an LRU entry");
            if oldest == stamp {
                // Only the entry just inserted remains under the
                // budgeted stamp — keep it (see module docs).
                break;
            }
            let key = self.lru.remove(&oldest).expect("stamp just observed");
            let entry = self.map.remove(&key).expect("LRU key is resident");
            self.bytes -= entry.bytes;
            self.evictions += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: &str, pad: usize) -> Json {
        Json::object([
            ("tag", Json::String(tag.to_string())),
            ("pad", Json::String("x".repeat(pad))),
        ])
    }

    #[test]
    fn hits_are_counted_and_byte_identical() {
        let mut cache = ResultCache::new(1 << 20);
        assert!(cache.get("k1").is_none());
        assert!(cache.get("k1").is_none());
        assert_eq!(cache.stats().misses, 0, "a probe alone counts no miss");
        cache.count_misses(1);
        cache.insert("k1".to_string(), payload("a", 10));
        let first = cache.get("k1").expect("resident");
        let second = cache.get("k1").expect("still resident");
        assert_eq!(first.to_string(), second.to_string());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        // Three ~60-byte entries in a ~140-byte cache: inserting the
        // third must evict exactly one, and touching `k1` beforehand
        // makes `k2` the victim.
        let mut cache = ResultCache::new(140);
        cache.insert("k1".to_string(), payload("a", 30));
        cache.insert("k2".to_string(), payload("b", 30));
        assert!(cache.get("k1").is_some()); // refresh k1 → k2 is LRU
        cache.insert("k3".to_string(), payload("c", 30));
        assert!(cache.get("k2").is_none(), "LRU entry evicted");
        assert!(cache.get("k1").is_some(), "recently-used entry kept");
        assert!(cache.get("k3").is_some(), "new entry kept");
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().bytes <= 140);
    }

    #[test]
    fn oversized_entry_is_kept_until_the_next_insert() {
        let mut cache = ResultCache::new(10);
        cache.insert("big".to_string(), payload("a", 500));
        assert!(
            cache.get("big").is_some(),
            "a single oversized entry survives its own insert"
        );
        cache.insert("next".to_string(), payload("b", 500));
        assert!(cache.get("big").is_none(), "evicted by the next insert");
        assert!(cache.get("next").is_some());
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let mut cache = ResultCache::new(1 << 20);
        cache.insert("k".to_string(), payload("a", 100));
        let bytes_first = cache.stats().bytes;
        cache.insert("k".to_string(), payload("b", 100));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().bytes, bytes_first);
        let got = cache.get("k").expect("resident");
        assert!(got.to_string().contains("\"b\""), "payload refreshed");
    }
}
