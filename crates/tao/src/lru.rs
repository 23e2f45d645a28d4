//! A fixed-capacity LRU cache.
//!
//! Used by the follower tiers in [`crate::store`]. Implemented as a
//! `HashMap` from key to slot index plus an intrusive doubly-linked list
//! threaded through a slot arena, so `get`/`insert`/`remove` are all O(1)
//! and no per-operation allocation happens once the arena is warm.

use std::hash::Hash;

use simkit::fxhash::FxHashMap;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    // `None` only while the slot is on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
///
/// # Examples
///
/// ```
/// use tao::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a"); // refresh "a"
/// cache.insert("c", 3); // evicts "b"
/// assert!(cache.get(&"b").is_none());
/// assert_eq!(cache.get(&"a"), Some(&1));
/// ```
pub struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        // Capacity is an eviction bound, not a reservation: a scale config
        // may set seven-figure capacities per follower tier, and an eager
        // `with_capacity` would pin hundreds of megabytes of table that a
        // run's working set never touches. Both the index map and the slot
        // arena grow organically toward the bound.
        LruCache {
            map: FxHashMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total hits observed by [`get`](Self::get).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses observed by [`get`](Self::get).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`, or 0 if no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.attach_front(idx);
                self.slots[idx].value.as_ref()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without affecting recency or hit statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slots[idx].value.as_ref())
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry if
    /// the cache is full. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = Some(value);
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        // Evict the LRU entry first if at capacity, recycling its slot.
        let evicted = if self.map.len() >= self.capacity {
            let idx = self.tail;
            debug_assert_ne!(idx, NIL);
            self.detach(idx);
            let old_key = self.slots[idx].key.clone();
            let old_value = self.slots[idx].value.take().expect("live slot has value");
            self.map.remove(&old_key);
            self.free.push(idx);
            Some((old_key, old_value))
        } else {
            None
        };

        let idx = match self.free.pop() {
            Some(free_idx) => {
                self.slots[free_idx] = Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                free_idx
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.slots[idx].value.take()
    }

    /// Invalidates `key` (drops it from the cache if present).
    ///
    /// Returns `true` if an entry was dropped. Used for write-through
    /// invalidation when the leader applies a mutation.
    pub fn invalidate(&mut self, key: &K) -> bool {
        self.remove(key).is_some()
    }

    /// The eviction bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries in recency order, most-recently-used first. This is the
    /// cache's canonical serialization order: it captures exactly the state
    /// that determines future evictions.
    pub fn iter_recency(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let slot = &self.slots[idx];
            idx = slot.next;
            Some((&slot.key, slot.value.as_ref().expect("live slot has value")))
        })
    }

    /// Rebuilds a cache from entries in most-recently-used-first order plus
    /// the hit/miss statistics. The rebuilt cache evicts in exactly the same
    /// order the original would have. Fails on more entries than `capacity`
    /// or a repeated key: no cache holds either.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn from_recency(
        capacity: usize,
        entries: Vec<(K, V)>,
        hits: u64,
        misses: u64,
    ) -> Result<Self, &'static str> {
        if entries.len() > capacity {
            return Err("more cache entries than capacity");
        }
        let supplied = entries.len();
        let mut cache = LruCache::new(capacity);
        for (k, v) in entries.into_iter().rev() {
            cache.insert(k, v);
        }
        if cache.len() != supplied {
            return Err("duplicate cache key");
        }
        cache.hits = hits;
        cache.misses = misses;
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(4);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        c.get(&1);
        let evicted = c.insert(3, 3);
        assert_eq!(evicted, Some((2, 2)));
        assert!(c.get(&2).is_none());
        assert_eq!(c.get(&1), Some(&1));
        assert_eq!(c.get(&3), Some(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.insert(1, 10), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.peek(&1), Some(&1));
        // 1 is still LRU because peek did not refresh it.
        c.insert(3, 3);
        assert!(c.peek(&1).is_none());
        assert_eq!(c.hits(), 0, "peek does not count as a hit");
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        assert_eq!(c.remove(&1), Some(1));
        assert!(c.is_empty());
        c.insert(2, 2);
        c.insert(3, 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&2), Some(&2));
        assert_eq!(c.get(&3), Some(&3));
    }

    #[test]
    fn invalidate() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        assert!(c.invalidate(&1));
        assert!(!c.invalidate(&1));
    }

    #[test]
    fn hit_rate() {
        let mut c = LruCache::new(2);
        c.insert(1, 1);
        c.get(&1);
        c.get(&2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
        let empty: LruCache<u8, u8> = LruCache::new(1);
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        c.insert(1, 1);
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        LruCache::<u8, u8>::new(0);
    }

    #[test]
    fn stress_against_reference_model() {
        use std::collections::VecDeque;
        let mut c = LruCache::new(8);
        let mut model: VecDeque<(u64, u64)> = VecDeque::new(); // front = MRU
        let mut rng = simkit::DetRng::new(1234);
        for _ in 0..20_000 {
            let key = rng.below(16);
            match rng.below(3) {
                0 => {
                    // insert
                    let val = rng.next_u64();
                    if let Some(pos) = model.iter().position(|&(k, _)| k == key) {
                        model.remove(pos);
                    } else if model.len() == 8 {
                        model.pop_back();
                    }
                    model.push_front((key, val));
                    c.insert(key, val);
                }
                1 => {
                    // get
                    let got = c.get(&key).copied();
                    let expect = model.iter().position(|&(k, _)| k == key).map(|pos| {
                        let entry = model.remove(pos).expect("pos valid");
                        model.push_front(entry);
                        entry.1
                    });
                    assert_eq!(got, expect);
                }
                _ => {
                    // remove
                    let got = c.remove(&key);
                    let expect = model
                        .iter()
                        .position(|&(k, _)| k == key)
                        .and_then(|pos| model.remove(pos))
                        .map(|(_, v)| v);
                    assert_eq!(got, expect);
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
