//! ActiveStatus: "display the online status of a user's friends" (§3.4).
//!
//! One device subscribe fans into many Pylon subscriptions (one `/Status/
//! f-uid` per friend). The BRASS maintains a per-stream map of online
//! friends with a 30-second TTL and "periodically pushes a batch update to
//! the device. Pushing batches only periodically prevents the device from
//! receiving too many updates."

use burst::frame::Payload;
use burst::json::Json;
use pylon::{Topic, TopicId};
use simkit::fxhash::FxHashMap;
use simkit::snap_struct;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceId;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::apps::AppId;
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

/// Online-status TTL: a friend is online if they pinged within this window
/// (devices refresh "every 30 seconds when online").
pub const ONLINE_TTL: SimDuration = SimDuration::from_secs(30);

/// Cadence of batched pushes to each device.
pub const BATCH_INTERVAL: SimDuration = SimDuration::from_secs(10);

struct StreamState {
    /// friend uid → last time they reported online.
    online: FxHashMap<u64, SimTime>,
    /// Snapshot sent in the previous batch (dedupe no-change batches).
    last_sent: Vec<u64>,
    /// The trace of the latest status update folded in since the last
    /// tick, which the tick's batch carries.
    trace: Option<TraceId>,
}

/// The ActiveStatus BRASS application.
#[derive(Default)]
pub struct ActiveStatusApp {
    /// Streams listed under each friend they watch, their friend-list
    /// requests and their batch timers.
    table: StreamTable<StreamState>,
}

impl ActiveStatusApp {
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

// `last_sent` is verbatim — it is device-visible.
snap_struct!(StreamState {
    online,
    last_sent,
    trace
});
snap_struct!(ActiveStatusApp { table });

impl BrassApp for ActiveStatusApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        _header: &Json,
    ) {
        // A live key's new incarnation keeps the old one's friend topics
        // until its own friend list answers, so Pylon sees no churn; the
        // old batch chain ends, and one is armed below.
        let state = StreamState {
            online: FxHashMap::default(),
            last_sent: Vec::new(),
            trace: None,
        };
        let slot = self.table.open(stream, state);
        // One device subscribe → many BRASS subscriptions: fetch the friend
        // list, then declare a topic per friend.
        let token = ctx.was_request(WasRequest::Friends { uid: sub.viewer });
        self.table.await_fetch(token, slot, ());
        self.table.arm(ctx, slot, BATCH_INTERVAL);
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        if let (Some((slot, ())), WasResponse::Friends(friends)) =
            (self.table.answer(token), response)
        {
            let topics: Vec<Topic> = friends.into_iter().map(Topic::active_status).collect();
            self.table.set_topics(ctx, slot, &topics);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::StatusOnline {
            return;
        }
        let Some(friend) = event.topic.id_under(AppId::ActiveStatus.family()) else {
            return;
        };
        self.table.fan_out(&event.topic, |table, slot| {
            let Some(state) = table.get_mut(slot) else {
                return;
            };
            ctx.decision();
            state.online.insert(friend, ctx.now);
            state.trace = Some(event.trace());
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(slot) = self.table.fire(token) else {
            return;
        };
        let stream = self.table.key(slot);
        let state = self.table.get_mut(slot).expect("a fired stream is open");
        let online = Self::online_snapshot(state, ctx.now);
        let trace = state.trace.take();
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
            ctx.send(stream, Payload::from(payload.into_bytes()).traced(trace));
        }
        // Garbage-collect expired entries.
        let now = ctx.now;
        state
            .online
            .retain(|_, at| now.saturating_since(*at) <= ONLINE_TTL);
        self.table.arm(ctx, slot, BATCH_INTERVAL);
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        self.table.close(ctx, &stream);
    }

    fn watches(&self, topic: TopicId) -> bool {
        self.table.watches(topic)
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
            id: 1_000 + uid,
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
        let mut d = TestDriver::new(ActiveStatusApp::default());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6, 7]);
        for f in [5, 6, 7] {
            assert!(d
                .effects
                .contains(&Effect::SubscribeTopic(Topic::active_status(f))));
        }
    }

    #[test]
    fn batches_online_friends_periodically() {
        let mut d = TestDriver::new(ActiveStatusApp::default());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6]);
        d.event(&status_event(5));
        d.event(&status_event(6));
        d.advance(BATCH_INTERVAL);
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => Some(&payloads[0]),
                _ => None,
            })
            .expect("batch pushed");
        assert_eq!(&payload[..], br#"{"online":[5,6]}"#);
        // The batch carries the trace of the latest update it folded in.
        assert_eq!(payload.trace(), Some(TraceId(1_006)));
        // Many events, one delivery: that is the point of batching.
        assert_eq!(d.counters.decisions, 2);
        assert_eq!(d.counters.deliveries, 1);
    }

    #[test]
    fn unchanged_snapshot_is_not_resent() {
        let mut d = TestDriver::new(ActiveStatusApp::default());
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
        let mut d = TestDriver::new(ActiveStatusApp::default());
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
        let mut d = TestDriver::new(ActiveStatusApp::default());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5]);
        let fx = d.event(&status_event(99));
        assert!(fx.is_empty());
        assert_eq!(d.counters.decisions, 0);
    }

    #[test]
    fn close_unsubscribes_friend_topics() {
        let mut d = TestDriver::new(ActiveStatusApp::default());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6]);
        subscribe_with_friends(&mut d, stream(2), 10, vec![5]);
        let fx = d.close(stream(1));
        // Friend 6 lost its last holder; stream 2 still holds friend 5.
        let unsub = |uid| Effect::UnsubscribeTopic(Topic::active_status(uid));
        assert_eq!(fx, vec![unsub(6)]);
        assert!(d.app.watches(Topic::active_status(5).id()));
        assert!(!d.app.watches(Topic::active_status(6).id()));
        let decided = d.counters.decisions;
        d.event(&status_event(5));
        assert_eq!(
            d.counters.decisions,
            decided + 1,
            "stream 2 still watches 5"
        );
        d.event(&status_event(6));
        assert_eq!(d.counters.decisions, decided + 1, "nobody watches 6");
    }

    /// A resubscribe of a live key replaces its stream: the new incarnation
    /// keeps the friend topics, and its batch chain is the only one left.
    #[test]
    fn resubscribe_of_a_live_key_leaves_one_timer_chain() {
        let mut d = TestDriver::new(ActiveStatusApp::default());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5, 6]);
        d.advance(SimDuration::from_secs(3));
        let fx = d.subscribe(stream(1), &header(9));
        assert!(
            !fx.iter()
                .any(|e| matches!(e, Effect::SubscribeTopic(_) | Effect::UnsubscribeTopic(_))),
            "the friend topics pass to the new incarnation: {fx:?}"
        );
        let armed = d.timers();
        assert_eq!(armed.len(), 2, "one timer per subscribe");
        assert_eq!(d.app.table.timer_count(), 1, "the old chain is disarmed");
        d.advance(BATCH_INTERVAL);
        assert_eq!(
            d.fire_timer(armed[0].1),
            vec![],
            "the old chain's token is dead"
        );
        let fx = d.fire_timer(armed[1].1);
        assert!(matches!(fx[..], [Effect::Timer { .. }]), "{fx:?}");
        assert_eq!(d.app.table.timer_count(), 1);
        let fx = d.close(stream(1));
        let unsubscribed = fx
            .iter()
            .filter(|e| matches!(e, Effect::UnsubscribeTopic(_)));
        assert_eq!(unsubscribed.count(), 2, "each friend topic released once");
    }

    /// A close and reopen of a key leaves the reopened stream one batch
    /// chain: the closed stream's tick fires into nothing.
    #[test]
    fn close_and_reopen_leaves_one_timer_chain() {
        let mut d = TestDriver::new(ActiveStatusApp::default());
        subscribe_with_friends(&mut d, stream(1), 9, vec![5]);
        let (_, old) = d.timers()[0];
        d.close(stream(1));
        subscribe_with_friends(&mut d, stream(1), 9, vec![5]);
        assert_eq!(d.app.table.timer_count(), 1, "one chain after the reopen");
        d.advance(BATCH_INTERVAL);
        assert_eq!(d.fire_timer(old), vec![]);
        let (_, new) = *d.timers().last().expect("the reopen armed");
        let fx = d.fire_timer(new);
        assert!(matches!(fx[..], [Effect::Timer { .. }]), "{fx:?}");
        assert_eq!(d.app.table.timer_count(), 1);
    }
}
