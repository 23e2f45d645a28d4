//! The pub/sub-triggering baseline (Thialfi-like).
//!
//! "A triggering solution uses a publish/subscribe system to notify the
//! client that an update of interest has occurred, and only then does the
//! client poll TAO … However, the pub/sub system would need to guarantee
//! at-least-once delivery of the notification … the downside … is that
//! devices could easily be overwhelmed with update signals in some
//! scenarios. Moreover, the triggered poll would still be subject to the
//! latency added by having to use indexing in TAO." (§2)

use std::collections::HashMap;

/// A reliable (at-least-once) notification service that triggers client
/// polls.
#[derive(Default)]
pub struct TriggerService {
    /// topic → subscribed client ids.
    subscribers: HashMap<String, Vec<u64>>,
    /// Pending notifications per client: each is a TAO poll the client
    /// owes.
    pending: HashMap<u64, u64>,
    replication_writes: u64,
    /// Replication factor for notification durability.
    replicas: u64,
}

impl TriggerService {
    /// Creates a trigger service replicating notifications `replicas` ways
    /// (at-least-once delivery demands cross-region durability).
    pub fn new(replicas: u64) -> Self {
        TriggerService {
            replicas,
            ..Default::default()
        }
    }

    /// Subscribes a client to a topic.
    pub fn subscribe(&mut self, topic: &str, client: u64) {
        let subs = self.subscribers.entry(topic.to_owned()).or_default();
        if !subs.contains(&client) {
            subs.push(client);
        }
    }

    /// Publishes an update notification; every subscriber gets a trigger.
    ///
    /// Returns the number of notifications enqueued.
    pub fn publish(&mut self, topic: &str) -> u64 {
        // At-least-once delivery => the notification itself is replicated,
        // whatever its fan-out.
        self.replication_writes += self.replicas;
        let Some(subs) = self.subscribers.get(topic) else {
            return 0;
        };
        for &client in subs {
            *self.pending.entry(client).or_default() += 1;
        }
        subs.len() as u64
    }

    /// Drains a client's pending triggers: how many TAO polls it owes.
    pub fn drain(&mut self, client: u64) -> u64 {
        self.pending.remove(&client).unwrap_or(0)
    }

    /// Replication writes performed for notification durability.
    pub fn replication_writes(&self) -> u64 {
        self.replication_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_triggers_subscribers() {
        let mut t = TriggerService::new(3);
        t.subscribe("/LVC/1", 10);
        t.subscribe("/LVC/1", 11);
        t.subscribe("/LVC/2", 12);
        assert_eq!(t.publish("/LVC/1"), 2);
        assert_eq!(t.publish("/LVC/1"), 2);
        assert_eq!(t.drain(10), 2);
        assert_eq!(t.drain(11), 2);
        assert_eq!(t.drain(12), 0);
        assert_eq!(t.drain(10), 0, "a drain empties the queue");
    }

    #[test]
    fn duplicate_subscribe_is_idempotent() {
        let mut t = TriggerService::new(1);
        t.subscribe("/a", 1);
        t.subscribe("/a", 1);
        assert_eq!(t.publish("/a"), 1);
    }

    #[test]
    fn replication_cost_scales_with_publishes() {
        let mut t = TriggerService::new(3);
        t.subscribe("/a", 1);
        for _ in 0..100 {
            t.publish("/a");
        }
        // At-least-once: 3 replica writes per notification event.
        assert_eq!(t.replication_writes(), 300);
    }
}
