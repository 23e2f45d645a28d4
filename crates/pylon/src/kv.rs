//! The replicated subscriber KV store.
//!
//! Each topic's subscriber list lives on a replica set of KV nodes chosen by
//! rendezvous hashing. Entries are versioned and deletions are tombstoned so
//! that replicas can be compared and **patched toward eventual consistency**
//! when a publish observes them disagreeing (§3.1: "If Pylon identifies
//! inconsistencies in the subscriber information received from the replicas,
//! it performs patch operations based on a quorum of responses").

use simkit::fxhash::FxHashMap;
use simkit::snap::ensure;
use simkit::snap_struct;

use crate::cluster::HostId;
use crate::topic::Topic;

/// A versioned subscriber entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubEntry {
    /// Monotonic version assigned by the cluster front end (Lamport-style).
    pub version: u64,
    /// `true` if this entry records an unsubscribe.
    pub tombstone: bool,
}

/// A topic's versioned subscriber entries, sorted by host id.
///
/// A vec rather than a per-topic map: most topics carry one or two
/// subscriber hosts (one notification topic per user), so at fleet scale
/// the fixed overhead of an inner hash table per topic per replica
/// dominates the entries themselves. Sorted order doubles as the
/// deterministic comparison form for replica repair.
pub type SubEntries = Vec<(HostId, SubEntry)>;

/// One replica of the subscriber store.
#[derive(Default)]
pub struct KvNode {
    /// Whether the node is reachable. Down nodes neither serve reads nor
    /// accept writes; they keep (possibly stale) state for when they return.
    pub up: bool,
    store: FxHashMap<Topic, SubEntries>,
    writes: u64,
    reads: u64,
}

/// Inserts `entry` for `host` into a sorted entry list, newest version
/// winning (equal versions are idempotent).
fn upsert(subs: &mut SubEntries, host: HostId, entry: SubEntry) {
    match subs.binary_search_by_key(&host, |&(h, _)| h) {
        Ok(i) => {
            if subs[i].1.version < entry.version {
                subs[i].1 = entry;
            }
        }
        Err(i) => subs.insert(i, (host, entry)),
    }
}

impl KvNode {
    /// Creates a live, empty node.
    pub fn new() -> Self {
        KvNode {
            up: true,
            ..Default::default()
        }
    }

    /// Applies a subscriber write (newer versions win; equal versions are
    /// idempotent).
    pub fn write(&mut self, topic: &Topic, host: HostId, entry: SubEntry) {
        debug_assert!(self.up, "caller must not write to a down node");
        self.writes += 1;
        upsert(self.store.entry(*topic).or_default(), host, entry);
    }

    /// Reads the live (non-tombstoned) subscribers of a topic.
    pub fn read(&mut self, topic: &Topic) -> Vec<HostId> {
        debug_assert!(self.up, "caller must not read from a down node");
        self.reads += 1;
        self.store
            .get(topic)
            .map(|subs| {
                subs.iter()
                    .filter(|(_, e)| !e.tombstone)
                    .map(|&(h, _)| h)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Reads the full versioned entry list for a topic (for repair).
    pub fn read_entries(&self, topic: &Topic) -> SubEntries {
        self.store.get(topic).cloned().unwrap_or_default()
    }

    /// Borrows the versioned entry list for a topic, if any state exists.
    ///
    /// Allocation-free replica comparison: a present list is never empty
    /// (entries are tombstoned, not removed) and always host-sorted, so
    /// `None` vs `Some` compares exactly like the owned empty-vs-populated
    /// lists from [`read_entries`](Self::read_entries).
    pub fn entries(&self, topic: &Topic) -> Option<&SubEntries> {
        self.store.get(topic)
    }

    /// Merges `entries` into this node's state (newest version wins).
    pub fn patch(&mut self, topic: &Topic, entries: &SubEntries) {
        let subs = self.store.entry(*topic).or_default();
        for &(host, entry) in entries {
            upsert(subs, host, entry);
        }
    }

    /// Removes all entries for hosts matching `pred` across all topics.
    ///
    /// Used when Pylon detects a BRASS host failure and "removes all
    /// subscriptions from that host" (§4).
    pub fn purge_host(&mut self, host: HostId, version: u64) {
        for subs in self.store.values_mut() {
            if let Ok(i) = subs.binary_search_by_key(&host, |&(h, _)| h) {
                if subs[i].1.version < version {
                    subs[i].1 = SubEntry {
                        version,
                        tombstone: true,
                    };
                }
            }
        }
    }

    /// Number of write operations applied.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of read operations served.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of topics with any (possibly tombstoned) state.
    pub fn topic_count(&self) -> usize {
        self.store.len()
    }
}

snap_struct!(SubEntry { version, tombstone });
// Entry lists must be strictly host-sorted: the sorted order is the type's
// comparison form, so accepting a permutation would change replica repair
// behaviour.
snap_struct!(
    KvNode {
        up,
        store,
        writes,
        reads
    },
    |n| {
        let sorted = |subs: &SubEntries| subs.windows(2).all(|p| p[0].0 < p[1].0);
        ensure(
            n.store.values().all(sorted),
            "kv subscriber entries not host-sorted",
        )
    }
);

/// Merges entry lists from several replicas, newest version winning per
/// host; the result is host-sorted like every [`SubEntries`].
pub fn merge_entries(lists: &[SubEntries]) -> SubEntries {
    let mut merged = SubEntries::new();
    for list in lists {
        for &(host, entry) in list {
            upsert(&mut merged, host, entry);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic() -> Topic {
        Topic::new("/t/1").unwrap()
    }

    #[test]
    fn write_then_read() {
        let mut n = KvNode::new();
        n.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        n.write(
            &topic(),
            HostId(2),
            SubEntry {
                version: 2,
                tombstone: false,
            },
        );
        assert_eq!(n.read(&topic()), vec![HostId(1), HostId(2)]);
    }

    #[test]
    fn tombstone_hides_subscriber() {
        let mut n = KvNode::new();
        n.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        n.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 2,
                tombstone: true,
            },
        );
        assert!(n.read(&topic()).is_empty());
    }

    #[test]
    fn stale_write_is_ignored() {
        let mut n = KvNode::new();
        n.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 5,
                tombstone: true,
            },
        );
        n.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 3,
                tombstone: false,
            },
        );
        assert!(
            n.read(&topic()).is_empty(),
            "older write must not resurrect"
        );
    }

    #[test]
    fn patch_merges_newest() {
        let mut a = KvNode::new();
        a.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        let incoming = vec![
            (
                HostId(1),
                SubEntry {
                    version: 2,
                    tombstone: true,
                },
            ),
            (
                HostId(2),
                SubEntry {
                    version: 1,
                    tombstone: false,
                },
            ),
        ];
        a.patch(&topic(), &incoming);
        assert_eq!(a.read(&topic()), vec![HostId(2)]);
    }

    #[test]
    fn merge_entries_takes_max_version() {
        let m1 = vec![
            (
                HostId(1),
                SubEntry {
                    version: 1,
                    tombstone: false,
                },
            ),
            (
                HostId(2),
                SubEntry {
                    version: 3,
                    tombstone: true,
                },
            ),
        ];
        let m2 = vec![
            (
                HostId(1),
                SubEntry {
                    version: 2,
                    tombstone: true,
                },
            ),
            (
                HostId(2),
                SubEntry {
                    version: 1,
                    tombstone: false,
                },
            ),
        ];
        let merged = merge_entries(&[m1, m2]);
        assert_eq!(
            merged,
            vec![
                (
                    HostId(1),
                    SubEntry {
                        version: 2,
                        tombstone: true
                    }
                ),
                (
                    HostId(2),
                    SubEntry {
                        version: 3,
                        tombstone: true
                    }
                ),
            ]
        );
    }

    #[test]
    fn purge_host_tombstones_everywhere() {
        let mut n = KvNode::new();
        let t1 = Topic::new("/a/1").unwrap();
        let t2 = Topic::new("/a/2").unwrap();
        n.write(
            &t1,
            HostId(1),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        n.write(
            &t2,
            HostId(1),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        n.write(
            &t2,
            HostId(2),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        n.purge_host(HostId(1), 10);
        assert!(n.read(&t1).is_empty());
        assert_eq!(n.read(&t2), vec![HostId(2)]);
    }

    #[test]
    fn counters() {
        let mut n = KvNode::new();
        n.write(
            &topic(),
            HostId(1),
            SubEntry {
                version: 1,
                tombstone: false,
            },
        );
        n.read(&topic());
        n.read(&topic());
        assert_eq!(n.write_count(), 1);
        assert_eq!(n.read_count(), 2);
        assert_eq!(n.topic_count(), 1);
    }
}
