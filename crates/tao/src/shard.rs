//! A single TAO storage shard.
//!
//! Each shard owns the objects whose ids hash to it, plus the association
//! lists *rooted* at those objects (TAO co-locates an association with its
//! `id1`). Association lists are kept sorted by descending creation time,
//! which is the access order of "recent first" range queries.

use simkit::fxhash::FxHashMap;
use simkit::snap::{restore_sorted, Snap, SnapError, SnapReader, SnapResult, SnapWriter};

use crate::types::{Assoc, Data, Object, ObjectId};

/// A single storage shard.
#[derive(Default)]
pub struct Shard {
    objects: FxHashMap<ObjectId, Object>,
    // (id1, atype) -> assocs sorted by time descending, ties by id2.
    assocs: FxHashMap<(ObjectId, String), Vec<Assoc>>,
    reads: u64,
    writes: u64,
}

impl Shard {
    /// Creates an empty shard.
    pub fn new() -> Self {
        Shard::default()
    }

    /// Total read operations served by this shard (hot-shard detection).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total write operations applied to this shard.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Inserts or replaces an object.
    pub fn put_object(&mut self, obj: Object) {
        self.writes += 1;
        self.objects.insert(obj.id, obj);
    }

    /// Fetches an object by id.
    pub fn get_object(&mut self, id: ObjectId) -> Option<&Object> {
        self.reads += 1;
        self.objects.get(&id)
    }

    /// Updates an object's data in place, bumping its version.
    ///
    /// Returns `false` if the object does not exist.
    pub fn update_object(&mut self, id: ObjectId, data: Data) -> bool {
        self.writes += 1;
        match self.objects.get_mut(&id) {
            Some(obj) => {
                obj.data = data;
                obj.version += 1;
                true
            }
            None => false,
        }
    }

    /// Adds an association, keeping the list time-sorted (descending).
    ///
    /// Re-adding an existing `(id1, atype, id2)` replaces it (TAO semantics).
    pub fn add_assoc(&mut self, assoc: Assoc) {
        self.writes += 1;
        let list = self
            .assocs
            .entry((assoc.id1, assoc.atype.clone()))
            .or_default();
        if let Some(pos) = list.iter().position(|a| a.id2 == assoc.id2) {
            list.remove(pos);
        }
        // Descending by time; binary search for the insertion point.
        let pos = list.partition_point(|a| a.time > assoc.time);
        list.insert(pos, assoc);
    }

    /// Point lookup of specific associations; returns them in `id2s` order.
    ///
    /// The second element of the return is the number of rows scanned.
    pub fn get_assocs(
        &mut self,
        id1: ObjectId,
        atype: &str,
        id2s: &[ObjectId],
    ) -> (Vec<Assoc>, u64) {
        self.reads += 1;
        let mut scanned = 0;
        let mut out = Vec::new();
        if let Some(list) = self.assocs.get(&(id1, atype.to_owned())) {
            for id2 in id2s {
                scanned += 1;
                if let Some(a) = list.iter().find(|a| a.id2 == *id2) {
                    out.push(a.clone());
                }
            }
        }
        (out, scanned)
    }

    /// Range query: up to `limit` associations starting at `offset`, newest
    /// first. Returns the rows and the number scanned.
    pub fn assoc_range(
        &mut self,
        id1: ObjectId,
        atype: &str,
        offset: usize,
        limit: usize,
    ) -> (Vec<Assoc>, u64) {
        self.reads += 1;
        match self.assocs.get(&(id1, atype.to_owned())) {
            Some(list) => {
                let rows: Vec<Assoc> = list.iter().skip(offset).take(limit).cloned().collect();
                let scanned = (offset + rows.len()) as u64;
                (rows, scanned)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Time-range query: associations with `low <= time <= high`, newest
    /// first, up to `limit`. Returns the rows and the number scanned.
    pub fn assoc_time_range(
        &mut self,
        id1: ObjectId,
        atype: &str,
        low: u64,
        high: u64,
        limit: usize,
    ) -> (Vec<Assoc>, u64) {
        self.reads += 1;
        match self.assocs.get(&(id1, atype.to_owned())) {
            Some(list) => {
                // List is sorted descending; skip entries newer than `high`,
                // then take until older than `low`.
                let mut scanned = 0u64;
                let mut out = Vec::new();
                for a in list {
                    scanned += 1;
                    if a.time > high {
                        continue;
                    }
                    if a.time < low {
                        break;
                    }
                    out.push(a.clone());
                    if out.len() >= limit {
                        break;
                    }
                }
                (out, scanned)
            }
            None => (Vec::new(), 0),
        }
    }

    /// Number of associations in a list.
    pub fn assoc_count(&mut self, id1: ObjectId, atype: &str) -> u64 {
        self.reads += 1;
        self.assocs
            .get(&(id1, atype.to_owned()))
            .map_or(0, |l| l.len() as u64)
    }

    /// Mutable iteration over all stored objects (intern-table fixup after
    /// a snapshot restore).
    pub fn objects_mut(&mut self) -> impl Iterator<Item = &mut Object> {
        self.objects.values_mut()
    }

    /// Mutable iteration over all stored associations (intern-table fixup
    /// after a snapshot restore).
    pub fn assocs_mut(&mut self) -> impl Iterator<Item = &mut Assoc> {
        self.assocs.values_mut().flatten()
    }
}

/// Objects in id order, association lists in `(id1, atype)` order with
/// each list verbatim (lists carry a maintained time-descending order that
/// must survive as-is). Reading rejects snapshots that violate the storage
/// invariants: out-of-order keys, entries whose embedded ids disagree with
/// their map key, lists not time-descending, or duplicate `id2`s within a
/// list.
impl Snap for Shard {
    fn snap(&self, w: &mut SnapWriter) {
        let mut objects: Vec<&Object> = self.objects.values().collect();
        objects.sort_unstable_by_key(|o| o.id);
        w.put_usize(objects.len());
        for obj in objects {
            obj.snap(w);
        }
        self.assocs.snap(w);
        self.reads.snap(w);
        self.writes.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let objects = restore_sorted(r, |a: &Object, b| a.id < b.id)?
            .into_iter()
            .map(|obj| (obj.id, obj))
            .collect();
        let assocs = FxHashMap::<(ObjectId, String), Vec<Assoc>>::restore(r)?;
        for ((id1, atype), list) in &assocs {
            for (i, a) in list.iter().enumerate() {
                if a.id1 != *id1 || a.atype != *atype {
                    return Err(SnapError::Invalid("assoc disagrees with list key".into()));
                }
                if list[..i].iter().any(|b| b.id2 == a.id2) {
                    return Err(SnapError::Invalid("duplicate id2 in assoc list".into()));
                }
                if i > 0 && list[i - 1].time < a.time {
                    return Err(SnapError::Invalid("assoc list not time-descending".into()));
                }
            }
        }
        Ok(Shard {
            objects,
            assocs,
            reads: Snap::restore(r)?,
            writes: Snap::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn obj(id: u64) -> Object {
        Object {
            id: ObjectId(id),
            otype: "t".into(),
            data: vec![],
            version: 0,
        }
    }

    fn assoc(id1: u64, id2: u64, time: u64) -> Assoc {
        Assoc {
            id1: ObjectId(id1),
            atype: "e".into(),
            id2: ObjectId(id2),
            time,
            data: vec![],
        }
    }

    #[test]
    fn object_crud() {
        let mut s = Shard::new();
        s.put_object(obj(1));
        assert!(s.get_object(ObjectId(1)).is_some());
        assert!(s.update_object(ObjectId(1), vec![("k".into(), Value::from(1i64))]));
        assert_eq!(s.get_object(ObjectId(1)).unwrap().version, 1);
        assert!(!s.update_object(ObjectId(9), vec![]));
    }

    #[test]
    fn assocs_sorted_newest_first() {
        let mut s = Shard::new();
        for (id2, t) in [(10, 5), (11, 9), (12, 1), (13, 9)] {
            s.add_assoc(assoc(1, id2, t));
        }
        let (rows, _) = s.assoc_range(ObjectId(1), "e", 0, 10);
        let times: Vec<u64> = rows.iter().map(|a| a.time).collect();
        assert_eq!(times, vec![9, 9, 5, 1]);
    }

    #[test]
    fn add_assoc_replaces_duplicate_edge() {
        let mut s = Shard::new();
        s.add_assoc(assoc(1, 2, 5));
        s.add_assoc(assoc(1, 2, 9));
        assert_eq!(s.assoc_count(ObjectId(1), "e"), 1);
        let (rows, _) = s.assoc_range(ObjectId(1), "e", 0, 10);
        assert_eq!(rows[0].time, 9);
    }

    #[test]
    fn range_offset_and_limit() {
        let mut s = Shard::new();
        for i in 0..10 {
            s.add_assoc(assoc(1, 100 + i, i));
        }
        let (rows, scanned) = s.assoc_range(ObjectId(1), "e", 2, 3);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].time, 7);
        assert_eq!(scanned, 5);
    }

    #[test]
    fn time_range() {
        let mut s = Shard::new();
        for i in 0..10 {
            s.add_assoc(assoc(1, 100 + i, i * 10));
        }
        let (rows, _) = s.assoc_time_range(ObjectId(1), "e", 25, 65, 10);
        let times: Vec<u64> = rows.iter().map(|a| a.time).collect();
        assert_eq!(times, vec![60, 50, 40, 30]);
        // Limit applies.
        let (rows, _) = s.assoc_time_range(ObjectId(1), "e", 0, 100, 2);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn get_assocs_point_lookup() {
        let mut s = Shard::new();
        s.add_assoc(assoc(1, 2, 1));
        s.add_assoc(assoc(1, 3, 2));
        let (rows, _) = s.get_assocs(ObjectId(1), "e", &[ObjectId(3), ObjectId(9)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id2, ObjectId(3));
    }

    #[test]
    fn read_write_counters() {
        let mut s = Shard::new();
        s.put_object(obj(1));
        s.get_object(ObjectId(1));
        s.get_object(ObjectId(1));
        assert_eq!(s.writes(), 1);
        assert_eq!(s.reads(), 2);
    }

    #[test]
    fn empty_queries() {
        let mut s = Shard::new();
        assert_eq!(s.assoc_range(ObjectId(1), "e", 0, 5).0.len(), 0);
        assert_eq!(s.assoc_time_range(ObjectId(1), "e", 0, 9, 5).0.len(), 0);
        assert_eq!(s.assoc_count(ObjectId(1), "e"), 0);
    }
}
