//! The Pylon cluster front end.
//!
//! [`PylonCluster`] models the fleet of Pylon servers: topics are
//! partitioned across [`PylonConfig::topic_shards`] shards (512K in
//! production) that are mapped onto servers — with incremental, one-shard
//! -at-a-time rebalancing — while subscriber state lives on a replica set
//! of KV nodes chosen by rendezvous hashing per topic.
//!
//! Consistency follows the paper's CAP split: [`subscribe`]
//! (and unsubscribe) are **CP** quorum writes that fail when a majority of
//! the replica set is unreachable, while [`publish`] is **AP** — it fans out
//! using whatever replica answers first and patches in stragglers, so
//! delivery degrades instead of failing during a partition.
//!
//! [`subscribe`]: PylonCluster::subscribe
//! [`publish`]: PylonCluster::publish

use std::fmt;

use simkit::fxhash::FxHashMap;
use simkit::snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::snap_struct;

use crate::hash;
use crate::kv::{merge_entries, KvNode, SubEntry};
use crate::topic::Topic;

/// Identifier of a BRASS host (the unit Pylon fans out to).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host:{}", self.0)
    }
}

/// Configuration of a Pylon cluster.
#[derive(Clone, Debug)]
pub struct PylonConfig {
    /// Number of topic shards mapped onto servers (production: 512K).
    pub topic_shards: u32,
    /// Number of Pylon servers.
    pub servers: u32,
    /// Number of subscriber-KV nodes.
    pub kv_nodes: u32,
    /// Replication factor for subscriber state (production: one local
    /// replica plus remote replicas).
    pub replicas: usize,
}

impl PylonConfig {
    /// A small configuration for tests and examples.
    pub fn small() -> Self {
        PylonConfig {
            topic_shards: 1_024,
            servers: 8,
            kv_nodes: 6,
            replicas: 3,
        }
    }
}

/// Why a subscribe (CP) operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscribeError {
    /// Fewer than a quorum of the topic's KV replicas are reachable.
    QuorumUnavailable,
}

impl fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubscribeError::QuorumUnavailable => {
                write!(f, "subscriber-store quorum unavailable")
            }
        }
    }
}

impl std::error::Error for SubscribeError {}

/// The result of publishing one update event.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PublishOutcome {
    /// Hosts found in the first-responding replica's list; the orchestrator
    /// forwards to these immediately.
    pub fast_forwards: Vec<HostId>,
    /// Hosts only present in straggler replicas' lists; forwarded after the
    /// remaining replica responses arrive.
    pub late_forwards: Vec<HostId>,
    /// Whether replica inconsistency was detected and a patch issued.
    pub repaired: bool,
    /// Whether no replica at all was reachable (event delivered to nobody).
    pub lost: bool,
    /// The Pylon server that handled the publish.
    pub server: u32,
}

/// Aggregate cluster counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PylonCounters {
    /// Successful subscribe operations.
    pub subscribes: u64,
    /// Successful unsubscribe operations.
    pub unsubscribes: u64,
    /// Subscribe/unsubscribe attempts rejected for lack of quorum.
    pub quorum_failures: u64,
    /// Publish operations handled.
    pub publishes: u64,
    /// Host fan-out messages emitted (fast + late).
    pub forwards: u64,
    /// Replica inconsistencies repaired.
    pub repairs: u64,
    /// Publishes that reached no replica.
    pub lost_publishes: u64,
}

/// A simulated Pylon cluster.
pub struct PylonCluster {
    config: PylonConfig,
    nodes: Vec<KvNode>,
    node_ids: Vec<u64>,
    /// Overrides of the default shard→server mapping (rebalanced shards).
    shard_overrides: FxHashMap<u32, u32>,
    per_server_requests: Vec<u64>,
    version_clock: u64,
    counters: PylonCounters,
}

impl PylonCluster {
    /// Creates a cluster from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `replicas > kv_nodes`.
    pub fn new(config: PylonConfig) -> Self {
        assert!(config.topic_shards > 0 && config.servers > 0 && config.kv_nodes > 0);
        assert!(config.replicas >= 1 && config.replicas <= config.kv_nodes as usize);
        PylonCluster {
            nodes: (0..config.kv_nodes).map(|_| KvNode::new()).collect(),
            node_ids: (0..config.kv_nodes as u64).collect(),
            shard_overrides: FxHashMap::default(),
            per_server_requests: vec![0; config.servers as usize],
            version_clock: 0,
            config,
            counters: PylonCounters::default(),
        }
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &PylonConfig {
        &self.config
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &PylonCounters {
        &self.counters
    }

    /// Requests handled per server (load-headroom analysis, §3.1).
    pub fn server_loads(&self) -> &[u64] {
        &self.per_server_requests
    }

    /// The topic shard a topic maps to.
    pub fn shard_of(&self, topic: &Topic) -> u32 {
        // The interned handle caches FNV-1a of the topic string, so shard
        // placement is identical to hashing the string — without touching
        // the bytes.
        (topic.route_hash() % self.config.topic_shards as u64) as u32
    }

    /// The server currently responsible for a topic shard.
    pub fn server_of_shard(&self, shard: u32) -> u32 {
        self.shard_overrides
            .get(&shard)
            .copied()
            .unwrap_or(shard % self.config.servers)
    }

    /// Moves one shard to a different server ("incremental load rebalancing,
    /// one shard at a time", §3.1).
    pub fn rebalance_shard(&mut self, shard: u32, to_server: u32) {
        assert!(shard < self.config.topic_shards);
        assert!(to_server < self.config.servers);
        self.shard_overrides.insert(shard, to_server);
    }

    /// The KV replica set for a topic (rendezvous hashing).
    fn replica_set(&self, topic: &Topic) -> Vec<u64> {
        hash::top_n(topic.route_hash(), &self.node_ids, self.config.replicas)
    }

    fn quorum(&self) -> usize {
        self.config.replicas / 2 + 1
    }

    fn next_version(&mut self) -> u64 {
        self.version_clock += 1;
        self.version_clock
    }

    /// Marks a KV node unreachable (failure injection).
    pub fn node_down(&mut self, node: u64) {
        self.nodes[node as usize].up = false;
    }

    /// Marks a KV node reachable again. Its state may be stale until a
    /// publish-triggered repair touches the affected topics.
    pub fn node_up(&mut self, node: u64) {
        self.nodes[node as usize].up = true;
    }

    /// Returns `true` if a quorum of this topic's replica set is reachable.
    pub fn quorum_available(&self, topic: &Topic) -> bool {
        let up = self
            .replica_set(topic)
            .iter()
            .filter(|&&n| self.nodes[n as usize].up)
            .count();
        up >= self.quorum()
    }

    fn write_entry(
        &mut self,
        topic: &Topic,
        host: HostId,
        tombstone: bool,
    ) -> Result<(), SubscribeError> {
        let replicas = self.replica_set(topic);
        let up: Vec<u64> = replicas
            .iter()
            .copied()
            .filter(|&n| self.nodes[n as usize].up)
            .collect();
        if up.len() < self.quorum() {
            self.counters.quorum_failures += 1;
            return Err(SubscribeError::QuorumUnavailable);
        }
        let version = self.next_version();
        for n in up {
            self.nodes[n as usize].write(topic, host, SubEntry { version, tombstone });
        }
        let shard = self.shard_of(topic);
        let server = self.server_of_shard(shard);
        self.per_server_requests[server as usize] += 1;
        Ok(())
    }

    /// Registers `host` as a subscriber of `topic` (CP quorum write).
    pub fn subscribe(&mut self, topic: &Topic, host: HostId) -> Result<(), SubscribeError> {
        self.write_entry(topic, host, false)?;
        self.counters.subscribes += 1;
        Ok(())
    }

    /// Removes `host`'s subscription to `topic` (CP quorum write).
    pub fn unsubscribe(&mut self, topic: &Topic, host: HostId) -> Result<(), SubscribeError> {
        self.write_entry(topic, host, true)?;
        self.counters.unsubscribes += 1;
        Ok(())
    }

    /// Publishes an update event to a topic (AP path).
    ///
    /// The first reachable replica's subscriber list drives
    /// [`PublishOutcome::fast_forwards`]; hosts present only on straggler
    /// replicas are returned as `late_forwards`. Replica disagreement
    /// triggers a quorum-merge patch of all reachable replicas.
    ///
    /// `event_id` is opaque to Pylon (it is content-agnostic).
    pub fn publish(&mut self, topic: &Topic, event_id: u64) -> PublishOutcome {
        let _ = event_id; // Pylon never looks inside events.
        self.counters.publishes += 1;
        let shard = self.shard_of(topic);
        let server = self.server_of_shard(shard);
        self.per_server_requests[server as usize] += 1;

        let replicas = self.replica_set(topic);
        let up: Vec<u64> = replicas
            .iter()
            .copied()
            .filter(|&n| self.nodes[n as usize].up)
            .collect();
        let mut outcome = PublishOutcome {
            server,
            ..Default::default()
        };
        let Some(&first) = up.first() else {
            self.counters.lost_publishes += 1;
            outcome.lost = true;
            return outcome;
        };

        outcome.fast_forwards = self.nodes[first as usize].read(topic);

        // Straggler replicas: union in hosts the first responder missed.
        // Dedup against the outcome's own vecs — no scratch `seen` clone;
        // fan-out lists are replica-set sized, so the linear scans are
        // cheaper than the allocation they replace.
        for &n in &up[1..] {
            let hosts = self.nodes[n as usize].read(topic);
            for h in hosts {
                if !outcome.fast_forwards.contains(&h) && !outcome.late_forwards.contains(&h) {
                    outcome.late_forwards.push(h);
                }
            }
        }

        // Detect inconsistency by borrowing the entry maps (the common,
        // agreeing path clones nothing); only a detected disagreement pays
        // for owned copies to merge and patch back.
        let first_entries = self.nodes[first as usize].entries(topic);
        let disagreement = up[1..]
            .iter()
            .any(|&n| self.nodes[n as usize].entries(topic) != first_entries);
        if disagreement {
            let entry_maps: Vec<_> = up
                .iter()
                .map(|&n| self.nodes[n as usize].read_entries(topic))
                .collect();
            let merged = merge_entries(&entry_maps);
            for &n in &up {
                self.nodes[n as usize].patch(topic, &merged);
            }
            self.counters.repairs += 1;
            outcome.repaired = true;
        }

        self.counters.forwards +=
            (outcome.fast_forwards.len() + outcome.late_forwards.len()) as u64;
        outcome
    }

    /// Handles a detected BRASS host failure by tombstoning all of its
    /// subscriptions on every reachable replica (§4: "Pylon also detects
    /// this and removes all subscriptions from that host").
    pub fn host_failed(&mut self, host: HostId) {
        let version = self.next_version();
        for node in &mut self.nodes {
            if node.up {
                node.purge_host(host, version);
            }
        }
    }

    /// Total topics with state on any replica (capacity analysis: Pylon,
    /// unlike Kafka, supports dynamically created topics in the billions).
    pub fn topic_footprint(&self) -> usize {
        self.nodes.iter().map(|n| n.topic_count()).sum()
    }
}

snap_struct!(HostId { 0 });
snap_struct!(PylonConfig {
    topic_shards,
    servers,
    kv_nodes,
    replicas
});
snap_struct!(PylonCounters {
    subscribes,
    unsubscribes,
    quorum_failures,
    publishes,
    forwards,
    repairs,
    lost_publishes
});

/// Reading rejects shapes `new` would refuse or that disagree with their
/// own config.
impl Snap for PylonCluster {
    fn snap(&self, w: &mut SnapWriter) {
        self.config.snap(w);
        self.nodes.snap(w);
        self.shard_overrides.snap(w);
        self.per_server_requests.snap(w);
        self.version_clock.snap(w);
        self.counters.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let config = PylonConfig::restore(r)?;
        if config.topic_shards == 0
            || config.servers == 0
            || config.kv_nodes == 0
            || config.replicas == 0
            || config.replicas > config.kv_nodes as usize
        {
            return Err(SnapError::Invalid("bad pylon config".into()));
        }
        let nodes = Vec::<KvNode>::restore(r)?;
        let shard_overrides = FxHashMap::<u32, u32>::restore(r)?;
        let per_server_requests = Vec::<u64>::restore(r)?;
        if nodes.len() != config.kv_nodes as usize
            || per_server_requests.len() != config.servers as usize
        {
            return Err(SnapError::Invalid("node or server count != config".into()));
        }
        let in_range = |(&shard, &server): (&u32, &u32)| {
            shard < config.topic_shards && server < config.servers
        };
        if !shard_overrides.iter().all(in_range) {
            return Err(SnapError::Invalid("shard override out of range".into()));
        }
        Ok(PylonCluster {
            node_ids: (0..nodes.len() as u64).collect(),
            nodes,
            shard_overrides,
            per_server_requests,
            version_clock: Snap::restore(r)?,
            counters: Snap::restore(r)?,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> PylonCluster {
        PylonCluster::new(PylonConfig::small())
    }

    fn topic(n: u64) -> Topic {
        Topic::live_video_comments(n)
    }

    #[test]
    fn subscribe_then_publish_fans_out() {
        let mut p = cluster();
        p.subscribe(&topic(1), HostId(1)).unwrap();
        p.subscribe(&topic(1), HostId(2)).unwrap();
        p.subscribe(&topic(2), HostId(3)).unwrap();
        let out = p.publish(&topic(1), 1);
        assert_eq!(out.fast_forwards, vec![HostId(1), HostId(2)]);
        assert!(out.late_forwards.is_empty());
        assert!(!out.repaired && !out.lost);
    }

    #[test]
    fn unsubscribe_stops_fanout() {
        let mut p = cluster();
        p.subscribe(&topic(1), HostId(1)).unwrap();
        p.unsubscribe(&topic(1), HostId(1)).unwrap();
        let out = p.publish(&topic(1), 1);
        assert!(out.fast_forwards.is_empty());
    }

    #[test]
    fn publish_to_unknown_topic_is_empty_not_error() {
        let mut p = cluster();
        let out = p.publish(&topic(99), 1);
        assert!(out.fast_forwards.is_empty() && !out.lost);
    }

    #[test]
    fn cp_subscribe_fails_without_quorum() {
        let mut p = cluster();
        let t = topic(1);
        // Take down enough replica-set nodes to break quorum.
        let replicas = p.replica_set(&t);
        p.node_down(replicas[0]);
        p.node_down(replicas[1]);
        assert!(!p.quorum_available(&t));
        assert_eq!(
            p.subscribe(&t, HostId(1)),
            Err(SubscribeError::QuorumUnavailable)
        );
        assert_eq!(p.counters().quorum_failures, 1);
    }

    #[test]
    fn ap_publish_survives_partial_replica_failure() {
        let mut p = cluster();
        let t = topic(1);
        p.subscribe(&t, HostId(1)).unwrap();
        let replicas = p.replica_set(&t);
        p.node_down(replicas[0]);
        p.node_down(replicas[1]);
        // Subscribes now fail (CP) but publish still delivers (AP).
        let out = p.publish(&t, 1);
        assert_eq!(out.fast_forwards, vec![HostId(1)]);
        assert!(!out.lost);
    }

    #[test]
    fn publish_lost_when_all_replicas_down() {
        let mut p = cluster();
        let t = topic(1);
        p.subscribe(&t, HostId(1)).unwrap();
        for n in p.replica_set(&t) {
            p.node_down(n);
        }
        let out = p.publish(&t, 1);
        assert!(out.lost);
        assert_eq!(p.counters().lost_publishes, 1);
    }

    #[test]
    fn straggler_replica_produces_late_forwards_and_repair() {
        let mut p = cluster();
        let t = topic(1);
        let replicas = p.replica_set(&t);
        // Host 1 subscribes while the first replica is down: the write only
        // lands on the stragglers.
        p.node_down(replicas[0]);
        p.subscribe(&t, HostId(1)).unwrap();
        p.node_up(replicas[0]);
        let out = p.publish(&t, 1);
        assert!(out.fast_forwards.is_empty(), "first replica missed the sub");
        assert_eq!(out.late_forwards, vec![HostId(1)]);
        assert!(out.repaired, "inconsistency must trigger a patch");
        // After the repair, the first replica serves the subscriber fast.
        let out2 = p.publish(&t, 2);
        assert_eq!(out2.fast_forwards, vec![HostId(1)]);
        assert!(out2.late_forwards.is_empty());
        assert!(!out2.repaired, "replicas converged");
    }

    #[test]
    fn rejoined_stale_node_is_repaired_on_publish() {
        let mut p = cluster();
        let t = topic(1);
        let replicas = p.replica_set(&t);
        p.subscribe(&t, HostId(1)).unwrap();
        // First replica goes down, misses an unsubscribe, then rejoins.
        p.node_down(replicas[0]);
        p.unsubscribe(&t, HostId(1)).unwrap();
        p.node_up(replicas[0]);
        // The stale first responder still lists host 1: it is forwarded
        // (best-effort duplicates are acceptable), and repair converges.
        let out = p.publish(&t, 1);
        assert_eq!(out.fast_forwards, vec![HostId(1)]);
        assert!(out.repaired);
        let out2 = p.publish(&t, 2);
        assert!(out2.fast_forwards.is_empty(), "tombstone won after repair");
    }

    #[test]
    fn host_failure_purges_all_subscriptions() {
        let mut p = cluster();
        p.subscribe(&topic(1), HostId(1)).unwrap();
        p.subscribe(&topic(2), HostId(1)).unwrap();
        p.subscribe(&topic(2), HostId(2)).unwrap();
        p.host_failed(HostId(1));
        assert!(p.publish(&topic(1), 1).fast_forwards.is_empty());
        assert_eq!(p.publish(&topic(2), 2).fast_forwards, vec![HostId(2)]);
    }

    #[test]
    fn shard_rebalancing_moves_load() {
        let mut p = cluster();
        let t = topic(1);
        let shard = p.shard_of(&t);
        let before = p.server_of_shard(shard);
        let target = (before + 1) % p.config().servers;
        p.rebalance_shard(shard, target);
        assert_eq!(p.server_of_shard(shard), target);
        p.subscribe(&t, HostId(1)).unwrap();
        p.publish(&t, 1);
        assert!(p.server_loads()[target as usize] >= 2);
    }

    #[test]
    fn counters_track_operations() {
        let mut p = cluster();
        p.subscribe(&topic(1), HostId(1)).unwrap();
        p.subscribe(&topic(1), HostId(2)).unwrap();
        p.unsubscribe(&topic(1), HostId(2)).unwrap();
        p.publish(&topic(1), 1);
        let c = p.counters();
        assert_eq!(c.subscribes, 2);
        assert_eq!(c.unsubscribes, 1);
        assert_eq!(c.publishes, 1);
        assert_eq!(c.forwards, 1);
    }

    #[test]
    fn supports_many_dynamic_topics() {
        let mut p = cluster();
        for i in 0..10_000 {
            p.subscribe(&topic(i), HostId((i % 50) as u32)).unwrap();
        }
        assert!(p.topic_footprint() >= 10_000);
        // Every topic still routes to a server without preregistration.
        let out = p.publish(&topic(9_999), 1);
        assert_eq!(out.fast_forwards.len(), 1);
    }

    #[test]
    fn idempotent_resubscribe() {
        let mut p = cluster();
        p.subscribe(&topic(1), HostId(1)).unwrap();
        p.subscribe(&topic(1), HostId(1)).unwrap();
        let out = p.publish(&topic(1), 1);
        assert_eq!(out.fast_forwards, vec![HostId(1)], "no duplicate fanout");
    }
}
