//! ActiveStatus: "display the online status of a user's friends" (§3.4).
//!
//! One device subscribe fans into many Pylon subscriptions (one `/Status/
//! f-uid` per friend). The BRASS maintains a per-stream map of online
//! friends with a 30-second TTL and "periodically pushes a batch update to
//! the device. Pushing batches only periodically prevents the device from
//! receiving too many updates."

use burst::json::Json;
use pylon::Topic;
use simkit::collections::SeqMap;
use simkit::fxhash::FxHashMap;
use simkit::snap::{ensure, Snap, SnapWriter};
use simkit::snap_struct;
use simkit::time::{SimDuration, SimTime};
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::resolve::resolve;

/// Online-status TTL: a friend is online if they pinged within this window
/// (devices refresh "every 30 seconds when online").
pub const ONLINE_TTL: SimDuration = SimDuration::from_secs(30);

/// Cadence of batched pushes to each device.
pub const BATCH_INTERVAL: SimDuration = SimDuration::from_secs(10);

struct StreamState {
    friend_topics: Vec<Topic>,
    /// friend uid → last time they reported online.
    online: FxHashMap<u64, SimTime>,
    /// Snapshot sent in the previous batch (dedupe no-change batches).
    last_sent: Vec<u64>,
}

/// The ActiveStatus BRASS application.
#[derive(Default)]
pub struct ActiveStatusApp {
    streams: FxHashMap<StreamKey, StreamState>,
    /// friend uid → streams watching that friend.
    pub(crate) watchers: FxHashMap<u64, Vec<StreamKey>>,
    /// In-flight friend-list requests, by [`FetchToken`] value.
    pending_friends: SeqMap<StreamKey>,
    /// The armed batch timer of each stream, by timer token.
    timers: SeqMap<StreamKey>,
    next_timer: u64,
}

impl ActiveStatusApp {
    /// Creates the application.
    pub fn new() -> Self {
        ActiveStatusApp::default()
    }

    /// Streams currently served.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    fn arm_timer(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, stream);
        ctx.timer(BATCH_INTERVAL, token);
    }

    fn uid_of_status_topic(topic: &Topic) -> Option<u64> {
        let mut segs = topic.segments();
        if segs.next() != Some("Status") {
            return None;
        }
        segs.next()?.parse().ok()
    }

    fn online_snapshot(state: &StreamState, now: SimTime) -> Vec<u64> {
        let mut online: Vec<u64> = state
            .online
            .iter()
            .filter(|(_, &at)| now.saturating_since(at) <= ONLINE_TTL)
            .map(|(&uid, _)| uid)
            .collect();
        online.sort_unstable();
        online
    }
}

// `friend_topics` and `last_sent` are verbatim — the former drives
// unsubscribe order, the latter is device-visible.
snap_struct!(StreamState {
    friend_topics,
    online,
    last_sent
});
// Rejects snapshots with dangling watcher entries or a timer counter
// behind its live tokens.
snap_struct!(
    ActiveStatusApp {
        streams,
        watchers,
        pending_friends,
        timers,
        next_timer
    },
    |app| {
        let mut watchers = app.watchers.values().flatten();
        ensure(
            watchers.all(|k| app.streams.contains_key(k)),
            "active_status: dangling watcher",
        )?;
        ensure(
            app.timers.keys().all(|t| t < app.next_timer),
            "active_status: next_timer behind live timers",
        )
    }
);

impl BrassApp for ActiveStatusApp {
    fn name(&self) -> &'static str {
        "active_status"
    }

    fn snap(&self, w: &mut SnapWriter) {
        Snap::snap(self, w);
    }

    fn on_subscribe(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey, header: &Json) {
        let Ok(sub) = resolve(header) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        let state = StreamState {
            friend_topics: Vec::new(),
            online: FxHashMap::default(),
            last_sent: Vec::new(),
        };
        self.streams.insert(stream, state);
        // One device subscribe → many BRASS subscriptions: fetch the friend
        // list, then subscribe per friend.
        let token = ctx.was_request(WasRequest::Friends { uid: sub.viewer });
        self.pending_friends.insert(token.0, stream);
        self.arm_timer(ctx, stream);
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        let Some(stream) = self.pending_friends.remove(token.0) else {
            return;
        };
        let Some(state) = self.streams.get_mut(&stream) else {
            return;
        };
        if let WasResponse::Friends(friends) = response {
            for f in friends {
                let topic = Topic::active_status(f);
                if !state.friend_topics.contains(&topic) {
                    state.friend_topics.push(topic);
                }
                let w = self.watchers.entry(f).or_default();
                if !w.contains(&stream) {
                    w.push(stream);
                }
                ctx.subscribe(topic);
            }
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::StatusOnline {
            return;
        }
        let Some(friend) = Self::uid_of_status_topic(&event.topic) else {
            return;
        };
        let Some(watchers) = self.watchers.get(&friend) else {
            return;
        };
        for key in watchers {
            let Some(state) = self.streams.get_mut(key) else {
                continue;
            };
            ctx.decision();
            state.online.insert(friend, ctx.now);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(stream) = self.timers.remove(token) else {
            return;
        };
        let Some(state) = self.streams.get_mut(&stream) else {
            return;
        };
        let online = Self::online_snapshot(state, ctx.now);
        if online != state.last_sent {
            let payload = format!(
                r#"{{"online":[{}]}}"#,
                online
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            state.last_sent = online;
            ctx.send(stream, payload.into_bytes());
        }
        // Garbage-collect expired entries.
        let now = ctx.now;
        state
            .online
            .retain(|_, at| now.saturating_since(*at) <= ONLINE_TTL);
        self.arm_timer(ctx, stream);
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        let Some(state) = self.streams.remove(&stream) else {
            return;
        };
        for topic in &state.friend_topics {
            if let Some(uid) = Self::uid_of_status_topic(topic) {
                if let Some(w) = self.watchers.get_mut(&uid) {
                    w.retain(|k| *k != stream);
                    if w.is_empty() {
                        self.watchers.remove(&uid);
                    }
                }
            }
            // One unsubscribe per per-friend subscribe; host refcounts.
            ctx.unsubscribe(*topic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{DeviceId, Effect, TestDriver};
    use burst::frame::StreamId;
    use tao::ObjectId;
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(viewer: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(viewer)),
            ("gql", Json::from("subscription { activeStatus }")),
        ])
    }

    fn status_event(uid: u64) -> UpdateEvent {
        UpdateEvent {
            id: 1,
            topic: Topic::active_status(uid),
            object: ObjectId(uid),
            kind: EventKind::StatusOnline,
            meta: EventMeta {
                uid,
                ..Default::default()
            },
        }
    }

    fn subscribe_with_friends(
        d: &mut TestDriver<ActiveStatusApp>,
        s: StreamKey,
        viewer: u64,
        friends: Vec<u64>,
    ) {
        let fx = d.subscribe(s, &header(viewer));
        let tok = fx
            .iter()
            .find_map(|e| match e {
                Effect::Was {
                    token,
                    request: WasRequest::Friends { .. },
                } => Some(*token),
                _ => None,
            })
            .expect("subscribe fetches friends");
        d.was_response(tok, WasResponse::Friends(friends));
    }

    #[test]
    fn one_subscribe_fans_into_many_topics() {
        let mut d = TestDriver::new(ActiveStatusApp::new());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6, 7]);
        for f in [5, 6, 7] {
            assert!(d
                .effects
                .contains(&Effect::SubscribeTopic(Topic::active_status(f))));
        }
    }

    #[test]
    fn batches_online_friends_periodically() {
        let mut d = TestDriver::new(ActiveStatusApp::new());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6]);
        d.event(&status_event(5));
        d.event(&status_event(6));
        d.advance(BATCH_INTERVAL);
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => {
                    Some(String::from_utf8(payloads[0].to_vec()).unwrap())
                }
                _ => None,
            })
            .expect("batch pushed");
        assert_eq!(payload, r#"{"online":[5,6]}"#);
        // Many events, one delivery: that is the point of batching.
        assert_eq!(d.counters.decisions, 2);
        assert_eq!(d.counters.deliveries, 1);
    }

    #[test]
    fn unchanged_snapshot_is_not_resent() {
        let mut d = TestDriver::new(ActiveStatusApp::new());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5]);
        d.event(&status_event(5));
        d.advance(BATCH_INTERVAL);
        let (_, t) = d.timers()[0];
        assert_eq!(
            d.fire_timer(t)
                .iter()
                .filter(|e| matches!(e, Effect::SendPayloads { .. }))
                .count(),
            1
        );
        // Refresh within TTL, snapshot identical → no resend.
        d.event(&status_event(5));
        d.advance(BATCH_INTERVAL);
        let (_, t) = *d.timers().last().unwrap();
        assert_eq!(
            d.fire_timer(t)
                .iter()
                .filter(|e| matches!(e, Effect::SendPayloads { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn ttl_expires_offline_friends() {
        let mut d = TestDriver::new(ActiveStatusApp::new());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5]);
        d.event(&status_event(5));
        d.advance(BATCH_INTERVAL);
        let (_, t) = d.timers()[0];
        d.fire_timer(t); // sends online:[5]
                         // No refresh for > TTL: the friend drops out, and the change batch
                         // (now empty) is pushed.
        d.advance(SimDuration::from_secs(31));
        let (_, t) = *d.timers().last().unwrap();
        let fx = d.fire_timer(t);
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => {
                    Some(String::from_utf8(payloads[0].to_vec()).unwrap())
                }
                _ => None,
            })
            .expect("offline transition pushed");
        assert_eq!(payload, r#"{"online":[]}"#);
    }

    #[test]
    fn events_for_unwatched_friends_ignored() {
        let mut d = TestDriver::new(ActiveStatusApp::new());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5]);
        let fx = d.event(&status_event(99));
        assert!(fx.is_empty());
        assert_eq!(d.counters.decisions, 0);
    }

    #[test]
    fn close_unsubscribes_friend_topics() {
        let mut d = TestDriver::new(ActiveStatusApp::new());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6]);
        subscribe_with_friends(&mut d, stream(2), 10, vec![5]);
        let fx = d.close(stream(1));
        // Each per-friend subscribe is balanced by an unsubscribe; the
        // host's refcounting keeps friend 5 subscribed for stream 2.
        assert!(fx.contains(&Effect::UnsubscribeTopic(Topic::active_status(6))));
        assert!(fx.contains(&Effect::UnsubscribeTopic(Topic::active_status(5))));
        assert!(d.app.watchers.contains_key(&5), "stream 2 still watches 5");
        assert!(!d.app.watchers.contains_key(&6));
    }
}
