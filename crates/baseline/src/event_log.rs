//! The distributed event-log baseline (Kafka-like).
//!
//! "Existing logging systems are not designed to accommodate 100 million
//! plus queries per second on a single topic … Kafka's current structure
//! precludes it from supporting billions of topics that are created
//! dynamically; e.g., LinkedIn's variant supports only 100,000 topics …
//! each event is assigned to exactly one partition, causing all accesses to
//! an event to effectively be serialized." (§2)
//!
//! This module implements a faithful small event log — topics, partitions,
//! offset-based consumer polling — so `paper ablations` can demonstrate both
//! structural mismatches concretely.

use std::collections::HashMap;

/// Event-log configuration.
#[derive(Clone, Debug)]
pub struct EventLogConfig {
    /// Maximum topics the cluster supports (LinkedIn's variant: 100K).
    pub max_topics: usize,
    /// Partitions per topic.
    pub partitions_per_topic: u32,
    /// Maximum partitions per broker before performance degrades
    /// (the paper cites studies at ~100; current guidance ~4,000).
    pub max_partitions_per_broker: u32,
    /// Number of brokers.
    pub brokers: u32,
}

impl EventLogConfig {
    /// A small cluster for tests.
    pub fn small() -> Self {
        EventLogConfig {
            max_topics: 100,
            partitions_per_topic: 4,
            max_partitions_per_broker: 100,
            brokers: 4,
        }
    }
}

/// Event-log errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventLogError {
    /// The cluster's topic capacity is exhausted — the structural limit
    /// that rules out billions of dynamic topics.
    TopicCapacityExhausted,
    /// Adding the topic would exceed per-broker partition limits.
    PartitionCapacityExhausted,
    /// The topic does not exist (logs require explicit creation).
    UnknownTopic,
}

impl std::fmt::Display for EventLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventLogError::TopicCapacityExhausted => write!(f, "topic capacity exhausted"),
            EventLogError::PartitionCapacityExhausted => {
                write!(f, "partition capacity exhausted")
            }
            EventLogError::UnknownTopic => write!(f, "unknown topic"),
        }
    }
}

impl std::error::Error for EventLogError {}

struct Partition {
    records: Vec<u64>, // event ids
    appends: u64,
    reads: u64,
}

struct TopicState {
    partitions: Vec<Partition>,
}

/// A Kafka-like partitioned event log.
pub struct EventLog {
    config: EventLogConfig,
    topics: HashMap<String, TopicState>,
    broker_partitions: Vec<u32>,
    round_robin: u64,
}

impl EventLog {
    /// Creates an empty log cluster.
    pub fn new(config: EventLogConfig) -> Self {
        EventLog {
            broker_partitions: vec![0; config.brokers as usize],
            config,
            topics: HashMap::new(),
            round_robin: 0,
        }
    }

    /// Number of topics created.
    pub fn topic_count(&self) -> usize {
        self.topics.len()
    }

    /// Creates a topic (logs require explicit creation — no dynamic
    /// billion-topic namespace).
    pub fn create_topic(&mut self, name: &str) -> Result<(), EventLogError> {
        if self.topics.contains_key(name) {
            return Ok(());
        }
        if self.topics.len() >= self.config.max_topics {
            return Err(EventLogError::TopicCapacityExhausted);
        }
        // Atomic capacity check: the whole topic must fit before any
        // partition is placed.
        let free: u32 = self
            .broker_partitions
            .iter()
            .map(|&l| self.config.max_partitions_per_broker.saturating_sub(l))
            .sum();
        if free < self.config.partitions_per_topic {
            return Err(EventLogError::PartitionCapacityExhausted);
        }
        // Place each partition on the least-loaded broker.
        for _ in 0..self.config.partitions_per_topic {
            let broker = self
                .broker_partitions
                .iter()
                .enumerate()
                .min_by_key(|(_, &l)| l)
                .map(|(b, _)| b)
                .expect("at least one broker");
            self.broker_partitions[broker] += 1;
        }
        self.topics.insert(
            name.to_owned(),
            TopicState {
                partitions: (0..self.config.partitions_per_topic)
                    .map(|_| Partition {
                        records: Vec::new(),
                        appends: 0,
                        reads: 0,
                    })
                    .collect(),
            },
        );
        Ok(())
    }

    /// Appends an event to a topic; the event lands on exactly one
    /// partition (round-robin), serializing all access to it there.
    pub fn append(&mut self, topic: &str, event_id: u64) -> Result<(u32, u64), EventLogError> {
        let state = self
            .topics
            .get_mut(topic)
            .ok_or(EventLogError::UnknownTopic)?;
        let p = (self.round_robin % state.partitions.len() as u64) as usize;
        self.round_robin += 1;
        let partition = &mut state.partitions[p];
        partition.records.push(event_id);
        partition.appends += 1;
        Ok((p as u32, partition.records.len() as u64 - 1))
    }

    /// Consumer poll: fetch records from one partition after `offset`.
    pub fn poll(
        &mut self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<u64>, EventLogError> {
        let state = self
            .topics
            .get_mut(topic)
            .ok_or(EventLogError::UnknownTopic)?;
        let p = state
            .partitions
            .get_mut(partition as usize)
            .ok_or(EventLogError::UnknownTopic)?;
        p.reads += 1;
        Ok(p.records
            .iter()
            .skip(offset as usize)
            .take(max)
            .copied()
            .collect())
    }

    /// Per-partition access counts for a topic (appends + reads) — the
    /// serialization hotspot measurement.
    pub fn partition_loads(&self, topic: &str) -> Option<Vec<u64>> {
        self.topics
            .get(topic)
            .map(|t| t.partitions.iter().map(|p| p.appends + p.reads).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_poll_roundtrip() {
        let mut log = EventLog::new(EventLogConfig::small());
        log.create_topic("t").unwrap();
        let (p0, o0) = log.append("t", 100).unwrap();
        assert_eq!(o0, 0);
        let got = log.poll("t", p0, 0, 10).unwrap();
        assert_eq!(got, vec![100]);
    }

    #[test]
    fn topic_capacity_is_bounded() {
        let mut config = EventLogConfig::small();
        config.max_topics = 10;
        config.partitions_per_topic = 1;
        let mut log = EventLog::new(config);
        for i in 0..10 {
            log.create_topic(&format!("t{i}")).unwrap();
        }
        // Bladerunner needs a topic per social-graph area — the log cannot
        // keep up with dynamic topic creation.
        assert_eq!(
            log.create_topic("one-more"),
            Err(EventLogError::TopicCapacityExhausted)
        );
    }

    #[test]
    fn partition_capacity_is_bounded() {
        let config = EventLogConfig {
            max_topics: 1_000_000,
            partitions_per_topic: 10,
            max_partitions_per_broker: 25,
            brokers: 2,
        };
        let mut log = EventLog::new(config);
        log.create_topic("a").unwrap();
        log.create_topic("b").unwrap();
        log.create_topic("c").unwrap();
        log.create_topic("d").unwrap();
        log.create_topic("e").unwrap(); // exactly fills 2 brokers x 25
        assert_eq!(
            log.create_topic("f"),
            Err(EventLogError::PartitionCapacityExhausted)
        );
    }

    #[test]
    fn events_serialize_on_one_partition() {
        let mut log = EventLog::new(EventLogConfig::small());
        log.create_topic("hot").unwrap();
        // A hot event: everyone reads the partition holding it.
        let (p, o) = log.append("hot", 42).unwrap();
        for _ in 0..1_000 {
            log.poll("hot", p, o, 1).unwrap();
        }
        let loads = log.partition_loads("hot").unwrap();
        let hot = loads[p as usize];
        let others: u64 = loads.iter().sum::<u64>() - hot;
        assert!(hot > 1_000, "hot partition load {hot}");
        assert_eq!(others, 0, "all access serialized on one partition");
    }

    #[test]
    fn unknown_topic_errors() {
        let mut log = EventLog::new(EventLogConfig::small());
        assert_eq!(log.append("x", 1), Err(EventLogError::UnknownTopic));
        assert_eq!(log.poll("x", 0, 0, 1), Err(EventLogError::UnknownTopic));
    }

    #[test]
    fn create_topic_is_idempotent() {
        let mut log = EventLog::new(EventLogConfig::small());
        log.create_topic("t").unwrap();
        log.create_topic("t").unwrap();
        assert_eq!(log.topic_count(), 1);
    }
}
