//! Compact ordered collections for large resident state.
//!
//! [`SortedVecMap`] is a map stored as one contiguous `Vec<(K, V)>` kept
//! sorted by key. Against a hash map it trades O(log n) lookups and O(n)
//! arbitrary inserts for three properties that matter when an instance
//! holds a million entries for the life of a run:
//!
//! * **Exact footprint** — `len * size_of::<(K, V)>()` plus bounded vec
//!   growth slack. A hash table sized for the same population sits at
//!   50–87% load, which at seven figures is hundreds of megabytes of
//!   empty buckets.
//! * **Ascending-append fast path** — populations created in id order
//!   (the common case for fleet construction) insert in O(1) amortised.
//! * **Deterministic iteration** — always key order, independent of
//!   insertion history, so fleet scans can never become a hidden source
//!   of run-to-run divergence.

use crate::snap::{restore_sorted, Snap, SnapReader, SnapResult, SnapWriter};

/// A map from `K` to `V` backed by a single sorted vector.
///
/// # Examples
///
/// ```
/// use simkit::collections::SortedVecMap;
///
/// let mut m = SortedVecMap::new();
/// m.insert(2u64, "b");
/// m.insert(1, "a");
/// assert_eq!(m.get(&1), Some(&"a"));
/// assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedVecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> SortedVecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SortedVecMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    /// Ascending-key appends (the fleet-construction pattern) are O(1)
    /// amortised; out-of-order inserts shift the tail.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().is_none_or(|(k, _)| *k < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// A reference to the value at `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.position(key) {
            Ok(i) => Some(&self.entries[i].1),
            Err(_) => None,
        }
    }

    /// A mutable reference to the value at `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_ok()
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Drops excess capacity left over from growth doubling.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }
}

/// Entries in ascending key order, which is also storage order. Reading
/// is strict: accepting unsorted keys would silently change iteration
/// order (and thus simulation behaviour) relative to the writer.
impl<K: Ord + Snap, V: Snap> Snap for SortedVecMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        self.entries.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(SortedVecMap {
            entries: restore_sorted(r, |a: &(K, V), b| a.0 < b.0)?,
        })
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a SortedVecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K: Ord, V> std::ops::Index<&K> for SortedVecMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key not present in SortedVecMap")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SortedVecMap::new();
        assert_eq!(m.insert(5u64, "e"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.insert(3, "c2"), Some("c"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&3), Some(&"c2"));
        assert!(m.contains_key(&1));
        assert!(!m.contains_key(&2));
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_key_ordered_regardless_of_insert_order() {
        let mut m = SortedVecMap::new();
        for k in [9u64, 2, 7, 4, 1] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 4, 7, 9]);
        let pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs[0], (1, 10));
        for (&k, &v) in &m {
            assert_eq!(v, k * 10);
        }
    }

    #[test]
    fn ascending_append_and_index() {
        let mut m = SortedVecMap::new();
        for k in 0u64..1000 {
            m.insert(k, k);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&999], 999);
        assert_eq!(m.values().sum::<u64>(), 499_500);
        let doubled: Vec<u64> = {
            for v in m.values_mut() {
                *v *= 2;
            }
            m.values().take(3).copied().collect()
        };
        assert_eq!(doubled, vec![0, 2, 4]);
    }
}
