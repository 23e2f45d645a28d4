//! Compact collections for large resident state: maps that replace a hash
//! table where the keys have a shape a hash throws away, or where a hot
//! path can carry an index instead of a key.
//!
//! [`IdMap`] is a map from ids handed out in ascending order (a fleet
//! created in id order), stored as one contiguous `Vec<(u64, V)>` in id
//! order plus a dense index from `id − first id` to the entry's position.
//! Against a hash map it gives up arbitrary inserts for three properties
//! that matter when an instance holds a million entries for the life of a
//! run:
//!
//! * **O(1) lookups without hashing** — one subtraction and one 4-byte
//!   load find an entry's position; an id in range with no entry (another
//!   object drawn from the same counter) holds a sentinel.
//! * **Exact footprint** — `len * size_of::<(u64, V)>()` plus 4 bytes per
//!   id in range, plus bounded vec growth slack. A hash table sized for the
//!   same population sits at 50–87% load, which at seven figures is
//!   hundreds of megabytes of empty buckets.
//! * **Deterministic iteration** — always id order, so fleet scans can
//!   never become a hidden source of run-to-run divergence.
//!
//! Nothing is ever removed, so a position stays good for the life of the
//! map: [`IdMap::slot`] resolves an id once and [`IdMap::at`] /
//! [`at_mut`](IdMap::at_mut) reuse it, so a handler that touches one entry
//! six times looks it up once.
//!
//! [`SeqMap`] is a map for keys handed out by an increasing counter —
//! timer tokens, request tokens — whose entries live briefly. The live
//! keys are then a short run of recent integers, and a hash table turns
//! that run into random probes: moving one timer from token `t` to
//! `t + n` touches two unrelated buckets, both usually cold. `SeqMap`
//! keeps a window of slots indexed by `key − base` instead, so inserts
//! land at the back, removals near the front, and both stay on the few
//! lines the last call touched. An entry that outlives its neighbours by
//! far (one long timer among thousands of short ones) is moved to a side
//! map rather than left to pin a window of empty slots.
//!
//! [`SlotTable`] is a keyed map whose entries also have a dense `u32`
//! *slot*: the key is hashed once, where an entry is created or removed,
//! and everything that refers to the entry afterwards — a watcher list, a
//! timer, an in-flight request — holds the slot and reaches the value with
//! one `Vec` index. A slot outlives its value while anything still holds
//! it, so a late reference finds the key's current value (or none) rather
//! than another key's; once the value is gone and the last holder lets go,
//! the slot is reused.

use std::collections::{BTreeMap, VecDeque};
use std::hash::Hash;

use crate::fxhash::FxHashMap;
use crate::snap::{restore_sorted, Snap, SnapReader, SnapResult, SnapWriter};

/// An [`IdMap`] index entry for an id in range that has no entry.
const NO_SLOT: u32 = u32::MAX;

/// A map from `u64` ids, pushed in ascending order, to `V`. See the module
/// docs.
///
/// # Examples
///
/// ```
/// use simkit::collections::IdMap;
///
/// let mut m = IdMap::new();
/// m.push(3, "c");
/// m.push(5, "e");
/// assert_eq!(m.get(5), Some(&"e"));
/// assert_eq!(m.get(4), None);
/// assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![3, 5]);
/// ```
#[derive(Clone, Debug)]
pub struct IdMap<V> {
    /// Entries in ascending id order.
    entries: Vec<(u64, V)>,
    /// The id of `entries[0]`.
    base: u64,
    /// `index[id − base]` is `id`'s position in `entries`, or [`NO_SLOT`].
    /// Derived from `entries`; never part of any snapshot.
    index: Vec<u32>,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IdMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        IdMap {
            entries: Vec::new(),
            base: 0,
            index: Vec::new(),
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

    /// Appends `value` at `id`. The index grows to cover every id from the
    /// first entry's to this one, 4 bytes each, so a caller loading ids
    /// from outside bounds them first.
    ///
    /// # Panics
    ///
    /// If `id` is not above every id present, or the map already holds
    /// `u32::MAX` entries.
    pub fn push(&mut self, id: u64, value: V) {
        match self.entries.last() {
            Some(&(last, _)) => assert!(id > last, "id {id} pushed after {last}"),
            None => self.base = id,
        }
        let slot = u32::try_from(self.entries.len())
            .ok()
            .filter(|&slot| slot != NO_SLOT)
            .expect("an IdMap holds fewer than u32::MAX entries");
        let at = usize::try_from(id - self.base).expect("id range fits the address space");
        self.index.resize(at, NO_SLOT);
        self.index.push(slot);
        self.entries.push((id, value));
    }

    /// The position of `id`'s entry, for [`at`](Self::at) and
    /// [`at_mut`](Self::at_mut). Positions never move.
    pub fn slot(&self, id: u64) -> Option<usize> {
        // An id below the first wraps far past the end of the index.
        let at = usize::try_from(id.wrapping_sub(self.base)).ok()?;
        match *self.index.get(at)? {
            NO_SLOT => None,
            slot => Some(slot as usize),
        }
    }

    /// The value at a position [`slot`](Self::slot) returned.
    pub fn at(&self, slot: usize) -> &V {
        &self.entries[slot].1
    }

    /// The value at a position [`slot`](Self::slot) returned, mutably.
    pub fn at_mut(&mut self, slot: usize) -> &mut V {
        &mut self.entries[slot].1
    }

    /// A reference to the value at `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        Some(self.at(self.slot(id)?))
    }

    /// A mutable reference to the value at `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        let slot = self.slot(id)?;
        Some(self.at_mut(slot))
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: u64) -> bool {
        self.slot(id).is_some()
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(id, v)| (*id, v))
    }
}

impl<'a, V> IntoIterator for &'a IdMap<V> {
    type Item = (u64, &'a V);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (u64, V)>, fn(&'a (u64, V)) -> (u64, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(id, v)| (*id, v))
    }
}

/// A map from counter-issued `u64` keys to `V`: a window of slots indexed
/// by `key − base`, plus a side map for stragglers. See the module docs.
///
/// Any key may be inserted or removed at any time; what the counter shape
/// buys is speed, not correctness. Iteration is in ascending key order.
///
/// # Examples
///
/// ```
/// use simkit::collections::SeqMap;
///
/// let mut timers = SeqMap::new();
/// for token in 100..104u64 {
///     timers.insert(token, token * 2);
/// }
/// assert_eq!(timers.remove(101), Some(202));
/// assert_eq!(timers.remove(101), None);
/// assert_eq!(timers.keys().collect::<Vec<_>>(), vec![100, 102, 103]);
/// ```
#[derive(Clone, Debug)]
pub struct SeqMap<V> {
    /// The key of `window[0]`.
    base: u64,
    /// Slot `i` holds key `base + i`. The front slot is never empty: the
    /// front is trimmed on removal.
    window: VecDeque<Option<V>>,
    /// Occupied window slots.
    in_window: usize,
    /// Entries that fell too far behind the window; every key is below
    /// `base`.
    spilled: BTreeMap<u64, V>,
}

impl<V> Default for SeqMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SeqMap<V> {
    /// The window may span this many slots per occupied one (plus a
    /// constant) before its oldest entry is spilled: the window's memory
    /// and the cost of iterating it stay O(live entries).
    const SPAN_PER_ENTRY: u64 = 4;
    const SPAN_SLACK: u64 = 64;

    /// Creates an empty map.
    pub fn new() -> Self {
        SeqMap {
            base: 0,
            window: VecDeque::new(),
            in_window: 0,
            spilled: BTreeMap::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.in_window + self.spilled.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window slot of a key at or above `base`.
    fn slot_of(&self, key: u64) -> Option<usize> {
        usize::try_from(key - self.base).ok()
    }

    /// Drops empty slots off the front so the window starts at an entry.
    fn trim_front(&mut self) {
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            // Saturating for the one slot that can hold key `u64::MAX`.
            self.base = self.base.saturating_add(1);
        }
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key < self.base {
            return self.spilled.insert(key, value);
        }
        // Entries this far behind the new key would pin a window of mostly
        // empty slots: move them aside. (Also what keeps a hostile key from
        // sizing an allocation: the span is bounded before it is padded.)
        while key - self.base >= Self::SPAN_PER_ENTRY * self.in_window as u64 + Self::SPAN_SLACK {
            let Some(oldest) = self.window.pop_front().flatten() else {
                break; // the window is empty
            };
            self.spilled.insert(self.base, oldest);
            self.base += 1;
            self.in_window -= 1;
            self.trim_front();
        }
        if self.window.is_empty() {
            self.base = key;
        }
        let at = self.slot_of(key).expect("the span was bounded above");
        if at >= self.window.len() {
            self.window.resize_with(at + 1, || None);
        }
        let previous = self.window[at].replace(value);
        self.in_window += usize::from(previous.is_none());
        previous
    }

    /// The value at `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        if key < self.base {
            return self.spilled.get(&key);
        }
        self.window.get(self.slot_of(key)?)?.as_ref()
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key < self.base {
            return self.spilled.remove(&key);
        }
        let at = self.slot_of(key)?;
        let value = self.window.get_mut(at)?.take()?;
        self.in_window -= 1;
        self.trim_front();
        Some(value)
    }

    /// Keeps only the entries `keep` approves of.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &V) -> bool) {
        self.spilled.retain(|&key, value| keep(key, value));
        for (i, slot) in self.window.iter_mut().enumerate() {
            if slot
                .as_ref()
                .is_some_and(|value| !keep(self.base + i as u64, value))
            {
                *slot = None;
                self.in_window -= 1;
            }
        }
        self.trim_front();
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let window = self.window.iter().enumerate();
        let window = window.filter_map(|(i, slot)| Some((self.base + i as u64, slot.as_ref()?)));
        self.spilled.iter().map(|(&key, v)| (key, v)).chain(window)
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(key, _)| key)
    }
}

/// The same bytes a hash map of the same pairs writes — a length, then
/// `(key, value)` ascending — and the same strict reading, so a table can
/// move between the two without moving a snapshot byte.
impl<V: Snap> Snap for SeqMap<V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (key, value) in self.iter() {
            key.snap(w);
            value.snap(w);
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let mut map = SeqMap::new();
        for (key, value) in restore_sorted(r, |a: &(u64, V), b| a.0 < b.0)? {
            map.insert(key, value);
        }
        Ok(map)
    }
}

/// One [`SlotTable`] entry: its key, its value if it has one, and how many
/// holders still name the slot.
#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    value: Option<V>,
    holds: u32,
}

/// A map from `K` to `V` that gives each key a dense `u32` slot. See the
/// module docs.
///
/// A key keeps its slot while it has a value or while any holder
/// ([`hold`](Self::hold) / [`acquire`](Self::acquire), undone by
/// [`release`](Self::release)) names it. Taking the value of a held slot
/// keeps the key there, so inserting the key again reaches the same slot —
/// and its holders reach the new value. Slot numbers are never part of a
/// snapshot: the table snapshots as a hash map of its live pairs.
///
/// # Examples
///
/// ```
/// use simkit::collections::SlotTable;
///
/// let mut streams = SlotTable::new();
/// let s = streams.insert("a", 1);
/// streams.hold(s); // a timer names the slot
/// assert_eq!(streams.take(s), Some(1));
/// assert_eq!(streams.insert("a", 2), s, "held: the key kept its slot");
/// assert_eq!(streams.get(s), Some(&2));
/// streams.release(s);
/// assert_eq!(streams.take(s), Some(2));
/// assert_eq!(streams.slot(&"a"), None, "unheld and empty: freed");
/// ```
#[derive(Clone, Debug)]
pub struct SlotTable<K, V> {
    /// The slot of every key that has one.
    index: FxHashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    /// Slots with no key, reused before the table grows.
    free: Vec<u32>,
    /// Slots holding a value.
    live: usize,
}

impl<K, V> Default for SlotTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SlotTable<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        SlotTable {
            index: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of keys with a value.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no key has a value.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The value in `slot`, if it has one.
    ///
    /// # Panics
    ///
    /// If `slot` was never handed out.
    pub fn get(&self, slot: u32) -> Option<&V> {
        self.slots[slot as usize].value.as_ref()
    }

    /// The value in `slot`, mutably, if it has one.
    ///
    /// # Panics
    ///
    /// If `slot` was never handed out.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut V> {
        self.slots[slot as usize].value.as_mut()
    }

    /// The key `slot` belongs to. Meaningful only while the slot has a
    /// value or a holder.
    pub fn key(&self, slot: u32) -> &K {
        &self.slots[slot as usize].key
    }

    /// Live values, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.value.as_ref())
    }

    /// Adds a holder to `slot`: it keeps its key until
    /// [`release`](Self::release)d.
    pub fn hold(&mut self, slot: u32) {
        let holds = &mut self.slots[slot as usize].holds;
        *holds = holds.checked_add(1).expect("fewer than u32::MAX holders");
    }
}

impl<K: Copy + Eq + Hash, V> SlotTable<K, V> {
    /// The slot `key` has, with or without a value. The one lookup that
    /// hashes.
    pub fn slot(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// `key`'s slot, created empty if the key has none.
    fn slot_or_new(&mut self, key: K) -> u32 {
        if let Some(slot) = self.slot(&key) {
            return slot;
        }
        let entry = Slot {
            key,
            value: None,
            holds: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots");
                self.slots.push(entry);
                slot
            }
        };
        self.index.insert(key, slot);
        slot
    }

    /// Sets `key`'s value, replacing any it had, and returns its slot.
    pub fn insert(&mut self, key: K, value: V) -> u32 {
        let slot = self.slot_or_new(key);
        let previous = self.slots[slot as usize].value.replace(value);
        self.live += usize::from(previous.is_none());
        slot
    }

    /// `key`'s slot with one more holder, created empty if the key has
    /// none: how a restored reference finds its slot.
    pub fn acquire(&mut self, key: K) -> u32 {
        let slot = self.slot_or_new(key);
        self.hold(slot);
        slot
    }

    /// Removes and returns `slot`'s value. The slot is freed unless held.
    pub fn take(&mut self, slot: u32) -> Option<V> {
        let value = self.slots[slot as usize].value.take()?;
        self.live -= 1;
        self.free_if_unused(slot);
        Some(value)
    }

    /// Drops one holder of `slot`. The slot is freed if that was the last
    /// and it has no value.
    ///
    /// # Panics
    ///
    /// If `slot` has no holder.
    pub fn release(&mut self, slot: u32) {
        let holds = &mut self.slots[slot as usize].holds;
        *holds = holds.checked_sub(1).expect("released a slot nobody holds");
        self.free_if_unused(slot);
    }

    fn free_if_unused(&mut self, slot: u32) {
        let s = &self.slots[slot as usize];
        if s.holds == 0 && s.value.is_none() {
            self.index.remove(&s.key);
            self.free.push(slot);
        }
    }
}

/// The same bytes a hash map of the live pairs writes — a length, then
/// `(key, value)` in ascending key order — and the same strict reading;
/// restored keys take slots `0..len` in key order, with no holders.
impl<K, V> Snap for SlotTable<K, V>
where
    K: Snap + Ord + Copy + Hash,
    V: Snap,
{
    fn snap(&self, w: &mut SnapWriter) {
        let live = self.slots.iter();
        let live = live.filter_map(|s| Some((&s.key, s.value.as_ref()?)));
        let mut pairs: Vec<(&K, &V)> = live.collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_usize(pairs.len());
        for (key, value) in pairs {
            key.snap(w);
            value.snap(w);
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let mut table = SlotTable::new();
        for (key, value) in restore_sorted(r, |a: &(K, V), b| a.0 < b.0)? {
            table.insert(key, value);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_map_slot_addresses_an_entry_without_looking_up_again() {
        let mut m = IdMap::new();
        assert_eq!((m.slot(0), m.slot(10)), (None, None), "empty");
        for id in [10u64, 20, 30] {
            m.push(id, id + 1);
        }
        for id in [0, 5, 9, 11, 25, 31, u64::MAX] {
            assert_eq!(m.slot(id), None, "{id}");
        }
        let slot = m.slot(20).expect("present");
        assert_eq!(*m.at(slot), 21);
        *m.at_mut(slot) += 100;
        assert_eq!(m.get(20), Some(&121));
        *m.get_mut(30).expect("present") += 1;
        // Appending (the fleet only ever grows at the end) moves no slot.
        m.push(40, 41);
        assert_eq!(m.slot(20), Some(slot));
        assert_eq!(m.slot(40), Some(3));
        assert_eq!(m.len(), 4);
        let pairs: Vec<(u64, u64)> = (&m).into_iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(pairs, vec![(10, 11), (20, 121), (30, 32), (40, 41)]);
        assert_eq!(m.values().sum::<u64>(), 205);
    }

    #[test]
    #[should_panic(expected = "id 20 pushed after 20")]
    fn id_map_rejects_an_id_out_of_order() {
        let mut m = IdMap::new();
        m.push(20u64, ());
        m.push(20, ());
    }

    proptest::proptest! {
        /// Against a binary search over the entries (the lookup this index
        /// replaced): a fleet of ascending ids with other objects' ids
        /// interleaved, probed at every id in range and around it.
        #[test]
        fn id_map_slot_matches_a_binary_search(
            gaps in proptest::collection::vec((0..4u64, proptest::prelude::any::<bool>()), 0..300),
            first in 0..1_000u64,
        ) {
            let mut m = IdMap::new();
            let mut next = first;
            for &(skip, device) in &gaps {
                next += skip;
                if device {
                    m.push(next, next * 3);
                }
                next += 1;
            }
            let ids: Vec<u64> = m.iter().map(|(id, _)| id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            let low = first.saturating_sub(3);
            for id in (low..next + 3).chain([u64::MAX, u64::MAX - 1]) {
                let oracle = ids.binary_search(&id).ok();
                assert_eq!(m.slot(id), oracle, "id {id}");
                assert_eq!(m.get(id).copied(), oracle.map(|_| id * 3), "id {id}");
            }
            // 4 bytes per id from the first entry's to the last's.
            let span = ids.last().map_or(0, |last| (last - ids[0] + 1) as usize);
            assert_eq!(m.index.len(), span);
            assert_eq!(m.index.iter().filter(|&&slot| slot != NO_SLOT).count(), ids.len());
        }
    }

    fn snap_of(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn seq_map_window_follows_the_live_keys() {
        // A timer chain: every tick removes the oldest token and issues a
        // new one. The window slides; it never grows.
        let mut m = SeqMap::new();
        for token in 0..100u64 {
            m.insert(token, token);
        }
        for token in 100..10_000u64 {
            assert_eq!(m.remove(token - 100), Some(token - 100));
            assert_eq!(m.insert(token, token), None);
        }
        assert_eq!((m.len(), m.base, m.window.len()), (100, 9_900, 100));
        assert!(m.spilled.is_empty());
        assert!(m.window.capacity() <= 256, "no high-water growth");
        assert_eq!(m.remove(9_899), None);
        assert_eq!(m.insert(9_950, 1), Some(9_950));
        // Draining it leaves an empty window that restarts at the next key.
        for token in 9_900..10_000 {
            assert!(m.remove(token).is_some());
        }
        assert!(m.is_empty() && m.window.is_empty());
        m.insert(1 << 40, 7);
        assert_eq!((m.base, m.window.len()), (1 << 40, 1));
    }

    #[test]
    fn seq_map_spills_a_straggler_instead_of_pinning_the_window() {
        let mut m = SeqMap::new();
        m.insert(0u64, "long timer");
        for token in 1..5_000u64 {
            m.insert(token, "short");
            assert_eq!(m.remove(token), Some("short"));
        }
        assert_eq!(m.len(), 1);
        assert!(m.window.len() <= 70, "window {}", m.window.len());
        for token in 5_000..5_100u64 {
            m.insert(token, "short");
        }
        assert_eq!(m.spilled.len(), 1, "the straggler moved aside");
        assert_eq!(m.iter().next(), Some((0, &"long timer")), "still first");
        assert_eq!(m.window.len(), 100);
        // A key from before the window (never issued by a counter, but
        // legal) joins the stragglers; both come out again.
        assert_eq!(m.insert(17, "old"), None);
        assert_eq!(m.keys().take(3).collect::<Vec<_>>(), vec![0, 17, 5_000]);
        assert_eq!(m.remove(0), Some("long timer"));
        assert_eq!(m.remove(17), Some("old"));
        assert_eq!(m.len(), 100);
        // A far jump moves the whole window aside rather than padding
        // 2^50 slots.
        m.insert(1 << 50, "far");
        assert_eq!((m.spilled.len(), m.window.len()), (100, 1));
        assert_eq!(m.len(), 101);
        m.retain(|key, _| key % 2 == 0);
        assert_eq!(m.len(), 51);
        assert_eq!(m.keys().last(), Some(1 << 50));
    }

    #[derive(Debug, Clone, Copy)]
    enum SeqOp {
        /// Issue the next key after skipping this many.
        Issue(u64),
        /// Remove the nth live key, counting from the oldest.
        RemoveNth(usize),
        /// Remove the newest live key.
        RemoveNewest,
        /// Insert at (or over) an arbitrary earlier key.
        InsertOld(u64),
        RetainOdd,
    }

    fn seq_op(kind: u8, raw: u64) -> SeqOp {
        match kind % 16 {
            0..=6 => SeqOp::Issue(if raw.is_multiple_of(5) {
                raw >> 8 & 0x3ff
            } else {
                raw % 3
            }),
            // Mostly the oldest few (timers fire roughly in issue order),
            // sometimes anywhere — which is what leaves stragglers behind.
            7..=10 => SeqOp::RemoveNth((raw % 4) as usize),
            11 | 12 => SeqOp::RemoveNth((raw >> 4) as usize),
            13 => SeqOp::RemoveNewest,
            14 => SeqOp::InsertOld(raw),
            _ => SeqOp::RetainOdd,
        }
    }

    proptest::proptest! {
        /// Against a `BTreeMap`: same answers, same iteration order, the
        /// same snapshot bytes as a hash map of the same pairs, and a
        /// window that stays O(live).
        #[test]
        fn seq_map_matches_a_btree_model(
            ops in proptest::collection::vec((proptest::prelude::any::<u8>(), proptest::prelude::any::<u64>()), 1..400)
        ) {
            let mut map = SeqMap::new();
            let mut model = BTreeMap::new();
            let mut next = 0u64;
            for (i, &(kind, raw)) in ops.iter().enumerate() {
                match seq_op(kind, raw) {
                    SeqOp::Issue(gap) => {
                        next += gap;
                        assert_eq!(map.insert(next, i), model.insert(next, i));
                        next += 1;
                        // Checked where it is enforced: when the window grows.
                        let bound = SeqMap::<usize>::SPAN_PER_ENTRY as usize * map.in_window
                            + SeqMap::<usize>::SPAN_SLACK as usize;
                        assert!(map.window.len() <= bound, "window {} > {bound}", map.window.len());
                    }
                    SeqOp::RemoveNth(n) if !model.is_empty() => {
                        let key = *model.keys().nth(n % model.len()).expect("in range");
                        assert_eq!(map.remove(key), model.remove(&key));
                        assert_eq!(map.remove(key), None);
                    }
                    SeqOp::RemoveNewest => {
                        let key = model.keys().next_back().copied().unwrap_or(next);
                        assert_eq!(map.remove(key), model.remove(&key));
                    }
                    SeqOp::InsertOld(raw) if next > 0 => {
                        let key = raw % next;
                        assert_eq!(map.insert(key, i), model.insert(key, i));
                    }
                    SeqOp::RetainOdd => {
                        map.retain(|key, _| key % 2 == 1);
                        model.retain(|key, _| key % 2 == 1);
                    }
                    SeqOp::RemoveNth(_) | SeqOp::InsertOld(_) => {}
                }
                assert_eq!(map.len(), model.len());
                assert!(map.iter().eq(model.iter().map(|(&k, v)| (k, v))), "op {i}");
                for key in [raw % (next + 1), next, next.wrapping_sub(1)] {
                    assert_eq!(map.get(key), model.get(&key), "get {key} after op {i}");
                }
                assert!(map.window.front().is_none_or(Option::is_some));
                assert!(map.spilled.keys().all(|&k| k < map.base));
            }
            let hashed: crate::fxhash::FxHashMap<u64, usize> =
                model.iter().map(|(&k, &v)| (k, v)).collect();
            let bytes = snap_of(&map);
            assert_eq!(bytes, snap_of(&hashed), "snap(SeqMap) == snap(FxHashMap)");
            let mut r = SnapReader::new(&bytes);
            let restored = SeqMap::<usize>::restore(&mut r).expect("restore");
            r.finish().expect("no trailing bytes");
            assert!(restored.iter().eq(map.iter()));
            assert_eq!(snap_of(&restored), bytes);
        }
    }

    #[test]
    fn slot_table_frees_a_slot_only_when_closed_and_unheld() {
        let mut t = SlotTable::new();
        let a = t.insert(10u64, "a");
        let b = t.insert(20u64, "b");
        assert_ne!(a, b);
        t.hold(a);
        t.hold(a);
        assert_eq!(t.take(a), Some("a"));
        assert_eq!((t.len(), t.slot(&10)), (1, Some(a)), "held: kept");
        t.release(a);
        assert_eq!(t.slot(&10), Some(a), "one holder left");
        // Reopened while held: the same slot, and the holder reaches the
        // new value.
        assert_eq!(t.insert(10, "a2"), a);
        assert_eq!(t.get(a), Some(&"a2"));
        t.release(a);
        assert_eq!(t.slot(&10), Some(a), "open: kept without holders");
        assert_eq!(t.take(a), Some("a2"));
        assert_eq!(t.take(a), None);
        assert_eq!(t.slot(&10), None, "closed and unheld: freed");
        // The freed slot is reused before the table grows.
        assert_eq!(t.insert(30, "c"), a);
        assert_eq!((t.slots.len(), t.index.len(), t.len()), (2, 2, 2));
        assert_eq!(*t.key(a), 30);
    }

    #[test]
    #[should_panic(expected = "released a slot nobody holds")]
    fn slot_table_rejects_an_unmatched_release() {
        let mut t = SlotTable::new();
        let s = t.insert(1u64, ());
        t.release(s);
    }

    #[derive(Debug, Clone, Copy)]
    enum SlotOp {
        /// Insert (open, or replace the value of) a key.
        Open(u64),
        /// Take the value of a key's slot, if it has one.
        Close(u64),
        /// A new holder of a key that has a slot (a timer or a fetch).
        Hold(u64),
        /// Let go of the nth holder.
        Release(usize),
    }

    fn slot_op(kind: u8, raw: u64) -> SlotOp {
        let key = raw % 24;
        match kind % 8 {
            0..=2 => SlotOp::Open(key),
            3 | 4 => SlotOp::Close(key),
            5 => SlotOp::Hold(key),
            _ => SlotOp::Release((raw >> 8) as usize),
        }
    }

    proptest::proptest! {
        /// Against a `BTreeMap` of the open keys plus a list of holders:
        /// every holder reaches its key's current value, a key has a slot
        /// exactly while it is open or held, a reopened held key keeps its
        /// slot, the bytes are a hash map's of the open pairs, and restore
        /// gives slots in key order that every holder's key resolves to.
        #[test]
        fn slot_table_matches_a_keyed_model(
            ops in proptest::collection::vec((proptest::prelude::any::<u8>(), proptest::prelude::any::<u64>()), 1..400)
        ) {
            let mut table = SlotTable::new();
            let mut open: BTreeMap<u64, usize> = BTreeMap::new();
            let mut holders: Vec<(u64, u32)> = Vec::new();
            for (i, &(kind, raw)) in ops.iter().enumerate() {
                match slot_op(kind, raw) {
                    SlotOp::Open(key) => {
                        let before = table.slot(&key);
                        let slot = table.insert(key, i);
                        assert!(before.is_none_or(|b| b == slot), "a key with a slot keeps it");
                        open.insert(key, i);
                    }
                    SlotOp::Close(key) => {
                        let taken = table.slot(&key).and_then(|slot| table.take(slot));
                        assert_eq!(taken, open.remove(&key));
                    }
                    SlotOp::Hold(key) => {
                        if let Some(slot) = table.slot(&key) {
                            table.hold(slot);
                            holders.push((key, slot));
                        }
                    }
                    SlotOp::Release(n) if !holders.is_empty() => {
                        let (_, slot) = holders.swap_remove(n % holders.len());
                        table.release(slot);
                    }
                    SlotOp::Release(_) => {}
                }
                for &(key, slot) in &holders {
                    assert_eq!(table.slot(&key), Some(slot), "op {i}");
                    assert_eq!(table.get(slot), open.get(&key), "op {i}");
                }
                for key in 0..24 {
                    let kept = open.contains_key(&key) || holders.iter().any(|h| h.0 == key);
                    assert_eq!(table.slot(&key).is_some(), kept, "op {i}, key {key}");
                }
                assert_eq!(table.len(), open.len());
                assert_eq!(table.index.len() + table.free.len(), table.slots.len());
            }
            let hashed: crate::fxhash::FxHashMap<u64, usize> =
                open.iter().map(|(&k, &v)| (k, v)).collect();
            let bytes = snap_of(&table);
            assert_eq!(bytes, snap_of(&hashed), "snap(SlotTable) == snap(FxHashMap)");
            let mut r = SnapReader::new(&bytes);
            let mut restored = SlotTable::<u64, usize>::restore(&mut r).expect("restore");
            r.finish().expect("no trailing bytes");
            for (n, key) in open.keys().enumerate() {
                assert_eq!(restored.slot(key), Some(n as u32), "key order");
            }
            for &(key, _) in &holders {
                let slot = restored.acquire(key);
                assert_eq!(*restored.key(slot), key);
                assert_eq!(restored.get(slot), open.get(&key));
            }
            assert_eq!(snap_of(&restored), bytes);
        }
    }

    #[test]
    fn seq_map_restore_is_strict_and_bounded() {
        let bytes_of = |keys: &[u64]| {
            let mut w = SnapWriter::new();
            w.put_usize(keys.len());
            for &k in keys {
                w.put_u64(k);
                w.put_u64(!k);
            }
            w.into_bytes()
        };
        let restore = |keys: &[u64]| {
            let bytes = bytes_of(keys);
            SeqMap::<u64>::restore(&mut SnapReader::new(&bytes))
        };
        assert!(restore(&[3, 2]).is_err(), "descending");
        assert!(restore(&[3, 3]).is_err(), "duplicate");
        // Keys a counter would never leave this far apart load anyway,
        // without padding the gap.
        let mut sparse = restore(&[1, 1 << 40, u64::MAX]).expect("ascending");
        assert_eq!(sparse.len(), 3);
        assert!(sparse.window.len() <= 64);
        assert_eq!(sparse.remove(u64::MAX), Some(0));
        assert_eq!(sparse.insert(u64::MAX, 5), None);
        assert_eq!(
            sparse.keys().collect::<Vec<_>>(),
            vec![1, 1 << 40, u64::MAX]
        );
    }
}
