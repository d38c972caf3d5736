//! Seeded-capacity LRU cache for motif expansions.
//!
//! The serving layer keys cached expansions by the *sorted* query-node id
//! set plus the motif configuration, so the same entity set reached
//! through different link orders shares one entry. A generation counter
//! invalidates the whole cache in O(1) when the underlying graph or index
//! is swapped: stale entries simply miss (and are unlinked lazily), so no
//! lock is held for a full clear on the swap path. The serving layer
//! drives the generation from the segmented index's **segment-set
//! epoch**: each seal advances the epoch once, and the service bumps the
//! generation exactly once per advance, so auto-merges that ride a seal
//! never cause a second flush.
//!
//! The LRU core is an index-linked list over a slab plus a hash map from
//! key to slot — O(1) lookup, insert, touch, and eviction, with no
//! iteration over the hash map anywhere (iteration order must never
//! influence behaviour; see the `hash-iteration-determinism` lint).

use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

use kbgraph::ArticleId;
use rustc_hash::FxHashMap;

use crate::spec::MotifFingerprint;

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    generation: u64,
    prev: usize,
    next: usize,
}

/// A generational LRU cache with a fixed ("seeded") capacity.
///
/// Not internally synchronized — wrap in a mutex for shared use (see
/// [`ExpansionCache`]). Generic so the recency/capacity invariants can be
/// property-tested with small keys.
pub struct LruCache<K, V> {
    capacity: usize,
    generation: u64,
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. Capacity 0
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            generation: 0,
            map: FxHashMap::default(),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots (live *and* stale-but-unreclaimed).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Entries evicted by the capacity policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bumps the generation: every existing entry becomes stale and will
    /// miss (and be reclaimed) on its next lookup or eviction.
    pub fn invalidate(&mut self) {
        self.generation += 1;
    }

    /// Unlinks `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = match self.slots.get(idx) {
            Some(s) => (s.prev, s.next),
            None => return,
        };
        match self.slots.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Links `idx` at the head (most recently used).
    fn link_front(&mut self, idx: usize) {
        let old_head = self.head;
        if let Some(s) = self.slots.get_mut(idx) {
            s.prev = NIL;
            s.next = old_head;
        }
        match self.slots.get_mut(old_head) {
            Some(h) => h.prev = idx,
            None => self.tail = idx,
        }
        self.head = idx;
    }

    /// Removes the entry in `idx` entirely (map, list, slab).
    fn remove_slot(&mut self, idx: usize) {
        self.unlink(idx);
        if let Some(s) = self.slots.get(idx) {
            self.map.remove(&s.key);
        }
        self.free.push(idx);
    }

    /// Looks a key up. A hit refreshes recency and returns a clone of the
    /// value; a stale (old-generation) entry is reclaimed and misses.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        let live = self
            .slots
            .get(idx)
            .is_some_and(|s| s.generation == self.generation);
        if !live {
            self.remove_slot(idx);
            return None;
        }
        self.unlink(idx);
        self.link_front(idx);
        self.slots.get(idx).map(|s| s.value.clone())
    }

    /// Inserts or refreshes an entry at the current generation, evicting
    /// the least recently used entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            if let Some(s) = self.slots.get_mut(idx) {
                s.value = value;
                s.generation = self.generation;
            }
            self.unlink(idx);
            self.link_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            if victim != NIL {
                let was_live = self
                    .slots
                    .get(victim)
                    .is_some_and(|s| s.generation == self.generation);
                self.remove_slot(victim);
                if was_live {
                    self.evictions += 1;
                }
            }
        }
        let generation = self.generation;
        let idx = match self.free.pop() {
            Some(i) => {
                if let Some(s) = self.slots.get_mut(i) {
                    s.key = key.clone();
                    s.value = value;
                    s.generation = generation;
                }
                i
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    generation,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.link_front(idx);
    }

    /// Keys from most to least recently used, skipping stale entries.
    /// For tests and diagnostics (O(len)).
    pub fn recency_keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while let Some(s) = self.slots.get(cur) {
            if s.generation == self.generation {
                out.push(s.key.clone());
            }
            cur = s.next;
        }
        out
    }
}

/// Cache key of one expansion computation: the sorted query-node id set
/// plus the canonical fingerprint of the motif set that expanded it —
/// distinct motif sets over the same nodes can never collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query-node ids, ascending (duplicates preserved so the cached
    /// result is exactly what a fresh build over the same slice returns —
    /// `QueryGraphBuilder::build` sums multiplicities per occurrence).
    nodes: Vec<ArticleId>,
    /// Canonical fingerprint of the expanding motif set.
    motifs: MotifFingerprint,
}

impl CacheKey {
    /// Builds the canonical key for a query-node slice: node order never
    /// affects the expansion result, so the key sorts it away; the motif
    /// set is already canonical through its fingerprint.
    pub fn new(nodes: &[ArticleId], motifs: MotifFingerprint) -> Self {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        CacheKey { nodes, motifs }
    }
}

/// The weighted expansion features of one cached entry, shared so a hit
/// costs one `Arc` clone.
pub type CachedExpansions = Arc<Vec<(ArticleId, u32)>>;

/// Thread-safe expansion cache: a mutex-wrapped [`LruCache`] keyed by
/// [`CacheKey`].
pub struct ExpansionCache {
    inner: Mutex<LruCache<CacheKey, CachedExpansions>>,
}

impl ExpansionCache {
    /// Creates a cache with the given seeded capacity.
    pub fn new(capacity: usize) -> Self {
        ExpansionCache {
            inner: Mutex::new(LruCache::new(capacity)),
        }
    }

    /// Locks the inner cache; a poisoned mutex still yields usable state
    /// because every critical section below is panic-free.
    fn lock(&self) -> MutexGuard<'_, LruCache<CacheKey, CachedExpansions>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up cached expansions.
    pub fn get(&self, key: &CacheKey) -> Option<CachedExpansions> {
        self.lock().get(key)
    }

    /// Stores expansions under `key`.
    pub fn insert(&self, key: CacheKey, value: CachedExpansions) {
        self.lock().insert(key, value);
    }

    /// Bumps the generation (call when the graph or index is swapped).
    pub fn invalidate(&self) {
        self.lock().invalidate();
    }

    /// Occupied entries (live and stale-but-unreclaimed).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The seeded capacity.
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.lock().generation()
    }

    /// Entries evicted by the capacity policy so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> LruCache<u32, u64> {
        LruCache::new(cap)
    }

    #[test]
    fn lookup_returns_inserted_value() {
        let mut c = cache(4);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = cache(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 1 now most recent
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = cache(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh, 1 most recent
        c.insert(3, 30); // evicts 2, not 1
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn invalidate_makes_every_entry_miss() {
        let mut c = cache(4);
        c.insert(1, 10);
        c.insert(2, 20);
        c.invalidate();
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.generation(), 1);
        // Stale entries were reclaimed by the lookups.
        assert_eq!(c.len(), 0);
        // New generation works normally.
        c.insert(1, 100);
        assert_eq!(c.get(&1), Some(100));
    }

    #[test]
    fn stale_entries_are_reclaimed_by_eviction_without_counting() {
        let mut c = cache(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.invalidate();
        c.insert(3, 30); // evicts a stale slot: not a "real" eviction
        c.insert(4, 40);
        assert_eq!(c.evictions(), 0);
        c.insert(5, 50); // evicts live entry 3
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(&4), Some(40));
        assert_eq!(c.get(&5), Some(50));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = cache(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn recency_order_is_mru_first() {
        let mut c = cache(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.recency_keys(), vec![3, 2, 1]);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.recency_keys(), vec![1, 3, 2]);
    }

    #[test]
    fn cache_key_canonicalizes_node_order() {
        use crate::spec::MotifSet;
        let a = ArticleId::new(3);
        let b = ArticleId::new(7);
        let t = MotifSet::triangular().fingerprint();
        let s = MotifSet::square().fingerprint();
        assert_eq!(CacheKey::new(&[a, b], t), CacheKey::new(&[b, a], t));
        assert_ne!(CacheKey::new(&[a, b], t), CacheKey::new(&[a, b], s));
        // Duplicates are part of the key: they change multiplicities.
        assert_ne!(CacheKey::new(&[a, a], t), CacheKey::new(&[a], t));
    }

    #[test]
    fn distinct_motif_sets_occupy_distinct_entries() {
        use crate::spec::{MotifSet, MotifSpec};
        // Same query nodes, every enumerable singleton motif set: each
        // must hold its own entry — no fingerprint collisions anywhere
        // in the spec space.
        let nodes = [ArticleId::new(1), ArticleId::new(2)];
        let c = ExpansionCache::new(64);
        let sets: Vec<MotifSet> = MotifSpec::all()
            .into_iter()
            .map(MotifSet::single)
            .chain([MotifSet::t_and_s(), MotifSet::empty()])
            .collect();
        for (i, set) in sets.iter().enumerate() {
            c.insert(
                CacheKey::new(&nodes, set.fingerprint()),
                Arc::new(vec![(ArticleId::new(100), i as u32)]),
            );
        }
        for (i, set) in sets.iter().enumerate() {
            let hit = c
                .get(&CacheKey::new(&nodes, set.fingerprint()))
                .expect("every set keeps its own entry");
            assert_eq!(
                *hit,
                vec![(ArticleId::new(100), i as u32)],
                "{}",
                set.name()
            );
        }
        assert_eq!(c.len(), sets.len());
    }

    #[test]
    fn expansion_cache_roundtrip_and_invalidate() {
        use crate::spec::MotifSet;
        let c = ExpansionCache::new(8);
        let key = CacheKey::new(&[ArticleId::new(1)], MotifSet::t_and_s().fingerprint());
        assert!(c.get(&key).is_none());
        c.insert(key.clone(), Arc::new(vec![(ArticleId::new(9), 2)]));
        let hit = c.get(&key).expect("just inserted");
        assert_eq!(*hit, vec![(ArticleId::new(9), 2)]);
        c.invalidate();
        assert!(c.get(&key).is_none());
        assert_eq!(c.generation(), 1);
    }
}
