//! The decision store: one sharded LRU.
//!
//! [`ShardedLruCache`] is the body — independently locked shards, so
//! concurrent requests on different shards never contend, and within a
//! shard a classic intrusive doubly-linked LRU list with O(1)
//! get/insert/evict — generic over its key. [`ContentStore`] is the one
//! instance that serves: keyed by content address `(checkpoint_hash,
//! sample_key)` ([`crate::sample_key`]) to `(vf_idx, if_idx)`. A decision
//! is a pure function of both, so one store is safe to share across every
//! handle of a hub:
//!
//! * the A/B sides of a split serving the **same** checkpoint share every
//!   decision instead of computing it twice;
//! * a hot-swap `reload` back to an already-seen checkpoint finds its old
//!   decisions still addressed and valid;
//! * entries pulled from a peer are valid verbatim — the address says
//!   exactly which checkpoint computed them;
//! * two **different** checkpoints never exchange an entry, because they
//!   never share an address.
//!
//! The persisted snapshot, the gossip export and the warm join are views
//! of the same store ([`ContentStore::entries_for`],
//! [`ContentStore::absorb`]).

use std::collections::HashMap;
use std::hash::Hash;

use parking_lot::Mutex;

use crate::SharedDecisionStore;

const NIL: usize = usize::MAX;

/// Aggregated statistics across all shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries written (first insertions, not value refreshes).
    pub insertions: u64,
    /// Live entries per shard.
    pub occupancy: Vec<usize>,
    /// Capacity per shard.
    pub(crate) shard_capacity: usize,
}

impl CacheStats {
    /// Total live entries.
    pub fn len(&self) -> usize {
        self.occupancy.iter().sum()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups that hit, in `[0, 1]` (0 when unused).
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A key of a [`ShardedLruCache`].
pub trait CacheKey: Copy + Eq + Hash {
    /// 64 well-mixed bits that pick the key's shard.
    fn shard_bits(&self) -> u64;
}

impl CacheKey for u64 {
    fn shard_bits(&self) -> u64 {
        *self
    }
}

/// A content address `(checkpoint_hash, sample_key)`: the sample key's
/// FNV bits pick the shard.
impl CacheKey for (u64, u64) {
    fn shard_bits(&self) -> u64 {
        self.1
    }
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

#[derive(Debug)]
struct LruShard<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl<K: CacheKey, V: Copy> LruShard<K, V> {
    fn new(capacity: usize) -> Self {
        LruShard {
            // Grown on demand: a large store costs nothing until it fills.
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Makes slot `i` the warmest.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.detach(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, key: K) -> Option<V> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.hits += 1;
                self.touch(i);
                Some(self.slots[i].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.touch(i);
            return false;
        }
        let slot = Slot {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if self.map.len() >= self.capacity {
            // Reuse the coldest entry's slot.
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slots[victim].key);
            self.evictions += 1;
            self.slots[victim] = slot;
            victim
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.push_front(i);
        self.map.insert(key, i);
        self.insertions += 1;
        true
    }
}

/// A fixed-capacity LRU cache split over independently locked shards.
#[derive(Debug)]
pub struct ShardedLruCache<V, K = u64> {
    shards: Vec<Mutex<LruShard<K, V>>>,
}

impl<V: Copy, K: CacheKey> ShardedLruCache<V, K> {
    /// Builds a cache holding about `capacity` entries over `shards`
    /// shards (each shard gets `ceil(capacity / shards)`). A zero
    /// `capacity` disables the cache: every `get` misses, `insert` is a
    /// no-op.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ShardedLruCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
        }
    }

    /// The shard a key lives on (Fibonacci spreading of the high bits).
    fn shard(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let spread = key.shard_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[((spread >> 32) as usize) % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: K) -> Option<V> {
        self.shard(&key).lock().get(key)
    }

    /// Inserts (or refreshes) `key`, evicting the shard's coldest entry
    /// at capacity. True when `key` was not already present.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.shard(&key).lock().insert(key, value)
    }

    /// Live entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Calls `f` on every live entry, coldest first within each shard
    /// (shards in index order).
    fn for_each_coldest_first(&self, mut f: impl FnMut(K, V)) {
        for shard in &self.shards {
            let s = shard.lock();
            let mut i = s.tail;
            while i != NIL {
                f(s.slots[i].key, s.slots[i].value);
                i = s.slots[i].prev;
            }
        }
    }

    /// Every live entry, coldest first within each shard (shards
    /// concatenated in index order). Re-inserting a snapshot in order via
    /// [`ShardedLruCache::restore`] reproduces each shard's recency
    /// ranking, so a persisted-then-restored cache evicts in the same
    /// order the original would have.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.for_each_coldest_first(|k, v| out.push((k, v)));
        out
    }

    /// Inserts `entries` in order (oldest/coldest first within each
    /// shard). Returns how many
    /// entries the cache *grew by* — zero when the cache is disabled,
    /// and less than the snapshot size when the snapshot exceeds this
    /// cache's capacity (the restoring daemon may be configured
    /// smaller than the one that wrote it; only survivors count).
    pub(crate) fn restore(&self, entries: impl IntoIterator<Item = (K, V)>) -> usize {
        let before = self.len();
        for (key, value) in entries {
            self.insert(key, value);
        }
        self.len() - before
    }

    /// Aggregated counters and per-shard occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock();
            out.hits += s.hits;
            out.misses += s.misses;
            out.evictions += s.evictions;
            out.insertions += s.insertions;
            out.occupancy.push(s.map.len());
            out.shard_capacity = s.capacity;
        }
        out
    }
}

/// The decision store: `(checkpoint_hash, sample_key) → (vf_idx,
/// if_idx)` in one sharded LRU. See the module docs.
#[derive(Debug)]
pub struct ContentStore(ShardedLruCache<(usize, usize), (u64, u64)>);

impl Default for ContentStore {
    /// A store sized for a serving node (256 Ki entries, 16 shards).
    fn default() -> Self {
        ContentStore::new(262_144, 16)
    }
}

impl ContentStore {
    /// A store holding about `capacity` decisions over `shards` shards
    /// (0 disables it, as for [`ShardedLruCache::new`]).
    pub fn new(capacity: usize, shards: usize) -> Self {
        ContentStore(ShardedLruCache::new(capacity, shards))
    }

    /// Stores a decision computed under `checkpoint_hash`. True when the
    /// address was new.
    pub(crate) fn insert(
        &self,
        checkpoint_hash: u64,
        sample_key: u64,
        decision: (usize, usize),
    ) -> bool {
        self.0.insert((checkpoint_hash, sample_key), decision)
    }

    /// Inserts `entries` computed under `checkpoint_hash` — a persisted
    /// section or a peer's export — coldest first. Returns how many
    /// entries the store grew by.
    pub fn absorb(
        &self,
        checkpoint_hash: u64,
        entries: impl IntoIterator<Item = (u64, (usize, usize))>,
    ) -> usize {
        self.0.restore(
            entries
                .into_iter()
                .map(|(key, pair)| ((checkpoint_hash, key), pair)),
        )
    }

    /// Every entry stored under `checkpoint_hash` as `(sample_key,
    /// decision)`, coldest first per shard — what a hub persists and
    /// exports to a joining peer; [`ContentStore::absorb`] reads it back
    /// in recency order.
    pub fn entries_for(&self, checkpoint_hash: u64) -> Vec<(u64, (usize, usize))> {
        let mut out = Vec::new();
        self.0.for_each_coldest_first(|(hash, key), pair| {
            if hash == checkpoint_hash {
                out.push((key, pair));
            }
        });
        out
    }

    /// Entries currently held, under every checkpoint.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// Store-wide counters: every probe and insertion of every handle.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

impl SharedDecisionStore for ContentStore {
    fn get(&self, checkpoint_hash: u64, sample_key: u64) -> Option<(usize, usize)> {
        self.0.get((checkpoint_hash, sample_key))
    }

    fn put(&self, checkpoint_hash: u64, sample_key: u64, decision: (usize, usize)) {
        self.insert(checkpoint_hash, sample_key, decision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_semantics() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(8, 2);
        assert_eq!(c.get(1), None);
        assert!(c.insert(1, 10));
        assert_eq!(c.get(1), Some(10));
        assert!(!c.insert(1, 11), "a refresh is not new");
        assert_eq!(c.get(1), Some(11), "insert refreshes the value");
        let st = c.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 1);
        assert_eq!(st.insertions, 1, "value refresh is not an insertion");
    }

    #[test]
    fn lru_evicts_coldest_within_shard() {
        // One shard for a deterministic eviction order.
        let c: ShardedLruCache<u32> = ShardedLruCache::new(3, 1);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        // Touch 1 so it is warm; 2 becomes the coldest.
        assert_eq!(c.get(1), Some(1));
        c.insert(4, 4);
        assert_eq!(c.get(2), None, "coldest entry must be evicted");
        assert_eq!(c.get(1), Some(1));
        assert_eq!(c.get(3), Some(3));
        assert_eq!(c.get(4), Some(4));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(0, 4);
        c.insert(9, 9);
        assert_eq!(c.get(9), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn keys_spread_across_shards() {
        let c: ShardedLruCache<u64> = ShardedLruCache::new(4096, 8);
        for k in 0..512u64 {
            // Realistic keys: FNV-style hashes, not small integers.
            let key = k.wrapping_mul(0x100_0000_01b3).rotate_left(17) ^ 0xDEAD_BEEF;
            c.insert(key, k);
        }
        let st = c.stats();
        assert_eq!(st.len(), 512);
        for (i, occ) in st.occupancy.iter().enumerate() {
            assert!(
                (16..=112).contains(occ),
                "shard {i} occupancy {occ} far from uniform (512/8 = 64)"
            );
        }
    }

    #[test]
    fn snapshot_restore_preserves_entries_and_recency() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(3, 1);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Touch 1: recency order (cold → warm) becomes 2, 3, 1.
        assert_eq!(c.get(1), Some(10));
        let snap = c.snapshot();
        assert_eq!(snap, vec![(2, 20), (3, 30), (1, 10)]);

        let c2: ShardedLruCache<u32> = ShardedLruCache::new(3, 1);
        assert_eq!(c2.restore(snap), 3);
        for (k, v) in [(1, 10), (2, 20), (3, 30)] {
            assert_eq!(c2.get(k), Some(v), "restored entry {k} lost");
        }
        // Recency carried over: after restoring and touching nothing
        // else, inserting a 4th entry evicts 2 (the coldest), same as
        // the original cache would.
        let c3: ShardedLruCache<u32> = ShardedLruCache::new(3, 1);
        c3.restore(c.snapshot());
        c3.insert(4, 40);
        assert_eq!(c3.get(2), None, "coldest snapshot entry must evict first");
        assert_eq!(c3.get(1), Some(10));
    }

    #[test]
    fn restore_into_disabled_cache_is_a_noop() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(0, 2);
        assert_eq!(c.restore(vec![(1, 1), (2, 2)]), 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn restore_counts_survivors_not_insertions() {
        // A snapshot larger than the restoring cache: only the entries
        // still resident afterwards count as restored.
        let c: ShardedLruCache<u32> = ShardedLruCache::new(2, 1);
        let restored = c.restore((0..10u64).map(|k| (k, k as u32)));
        assert_eq!(restored, 2, "only survivors count");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn snapshot_covers_all_shards() {
        let c: ShardedLruCache<u64> = ShardedLruCache::new(1024, 8);
        for k in 0..100u64 {
            c.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
        }
        let snap = c.snapshot();
        assert_eq!(snap.len(), 100);
        let c2: ShardedLruCache<u64> = ShardedLruCache::new(1024, 8);
        c2.restore(snap);
        assert_eq!(c2.len(), 100);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let c: ShardedLruCache<u64> = ShardedLruCache::new(64, 4);
        for k in 0..10_000u64 {
            c.insert(k.wrapping_mul(0x9E37_79B9), k);
        }
        let st = c.stats();
        assert!(st.len() <= 64 + 3, "len {} over capacity", st.len());
        for occ in &st.occupancy {
            assert!(*occ <= st.shard_capacity);
        }
        assert!(st.evictions > 0);
    }

    #[test]
    fn content_store_respects_checkpoint_boundaries() {
        let store = ContentStore::new(1024, 4);
        store.put(0xA, 1, (2, 3));
        assert_eq!(store.get(0xA, 1), Some((2, 3)));
        assert_eq!(store.get(0xB, 1), None, "other checkpoint must miss");
        assert_eq!(store.get(0xA, 2), None);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
    }

    #[test]
    fn content_store_absorbs_and_exports_per_checkpoint_in_recency_order() {
        let store = ContentStore::new(1024, 1);
        let entries = vec![(10u64, (1, 1)), (20, (2, 0)), (30, (0, 2))];
        assert_eq!(store.absorb(0xFEED, entries.clone()), 3);
        store.put(0xBEEF, 99, (3, 3)); // different checkpoint
        assert_eq!(store.entries_for(0xFEED), entries, "coldest first");
        assert_eq!(store.entries_for(0xBEEF), vec![(99, (3, 3))]);
        assert_eq!(store.absorb(0xFEED, entries), 0, "nothing new");
        // Absorbed entries serve through the trait.
        assert_eq!(store.get(0xFEED, 20), Some((2, 0)));
        assert_eq!(store.len(), 4);
    }
}
