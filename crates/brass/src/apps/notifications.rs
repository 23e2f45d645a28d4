//! WebsiteNotifications: the coalescing notification feed (§1's onboarded
//! application list).
//!
//! The distinguishing behaviour is **coalescing**: a viral post produces
//! thousands of "X liked your post" events, but the device should see
//! "X and 4,999 others liked your post" — one push. The BRASS buffers
//! incoming notification events per stream for a short window, then
//! flushes a single coalesced payload naming the first actor and the
//! total count.

use burst::json::Json;
use simkit::collections::SeqMap;
use simkit::fxhash::FxHashMap;
use simkit::snap::{ensure, Snap, SnapWriter};
use simkit::snap_struct;
use simkit::time::SimDuration;
use tao::ObjectId;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasResponse};
use crate::resolve::resolve;

/// Coalescing window: events arriving within this span merge into one push.
pub const COALESCE_WINDOW: SimDuration = SimDuration::from_secs(4);

#[derive(Default)]
struct PendingGroup {
    /// The first actor in the window (named in the payload).
    first_actor: u64,
    /// Total events coalesced.
    count: u64,
}

struct StreamState {
    uid: u64,
    /// Pending notifications per subject object (e.g. per liked post).
    pending: FxHashMap<ObjectId, PendingGroup>,
    /// Whether a flush timer is armed.
    timer_armed: bool,
}

/// The WebsiteNotifications BRASS application.
#[derive(Default)]
pub struct NotificationsApp {
    streams: FxHashMap<StreamKey, StreamState>,
    by_uid: FxHashMap<u64, Vec<StreamKey>>,
    /// Armed coalescing flushes, by timer token.
    timers: SeqMap<StreamKey>,
    next_timer: u64,
}

impl NotificationsApp {
    /// Creates the application.
    pub fn new() -> Self {
        NotificationsApp::default()
    }

    /// Streams currently served.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    fn uid_of_topic(topic: &pylon::Topic) -> Option<u64> {
        let mut segs = topic.segments();
        if segs.next() != Some("Notif") {
            return None;
        }
        segs.next()?.parse().ok()
    }

    fn arm_flush(&mut self, ctx: &mut Ctx<'_>, key: StreamKey) {
        let Some(state) = self.streams.get_mut(&key) else {
            return;
        };
        if state.timer_armed {
            return;
        }
        state.timer_armed = true;
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, key);
        ctx.timer(COALESCE_WINDOW, token);
    }
}

snap_struct!(PendingGroup { first_actor, count }, |g| {
    ensure(g.count != 0, "notifications: empty coalescing group")
});
snap_struct!(StreamState {
    uid,
    pending,
    timer_armed
});
// The per-uid watcher lists are verbatim because fan-out order follows
// them. Rejects snapshots whose coalescing groups or cross-map references
// are inconsistent.
snap_struct!(
    NotificationsApp {
        streams,
        by_uid,
        timers,
        next_timer
    },
    |app| {
        let watches = |u: u64, k: &StreamKey| app.streams.get(k).is_some_and(|s| s.uid == u);
        let watched = |(&u, ws): (&u64, &Vec<StreamKey>)| ws.iter().all(|k| watches(u, k));
        ensure(
            app.by_uid.iter().all(watched),
            "notifications: dangling watcher",
        )?;
        ensure(
            app.timers.keys().all(|t| t < app.next_timer),
            "notifications: next_timer behind live timers",
        )
    }
);

impl BrassApp for NotificationsApp {
    fn name(&self) -> &'static str {
        "notifications"
    }

    fn snap(&self, w: &mut SnapWriter) {
        Snap::snap(self, w);
    }

    fn on_subscribe(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey, header: &Json) {
        let Ok(sub) = resolve(header) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        let Some(uid) = Self::uid_of_topic(&sub.topic) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        ctx.subscribe(sub.topic);
        self.streams.insert(
            stream,
            StreamState {
                uid,
                pending: FxHashMap::default(),
                timer_armed: false,
            },
        );
        let watchers = self.by_uid.entry(uid).or_default();
        if !watchers.contains(&stream) {
            watchers.push(stream);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::NotificationPosted {
            return;
        }
        let Some(uid) = Self::uid_of_topic(&event.topic) else {
            return;
        };
        let Some(watchers) = self.by_uid.get(&uid) else {
            return;
        };
        for key in watchers.clone() {
            if let Some(state) = self.streams.get_mut(&key) {
                ctx.decision();
                let group = state.pending.entry(event.object).or_default();
                if group.count == 0 {
                    group.first_actor = event.meta.uid;
                }
                group.count += 1;
            }
            self.arm_flush(ctx, key);
        }
    }

    fn on_was_response(&mut self, _ctx: &mut Ctx<'_>, _token: FetchToken, _response: WasResponse) {
        // Notification payloads are synthesized from event metadata.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(key) = self.timers.remove(token) else {
            return;
        };
        let Some(state) = self.streams.get_mut(&key) else {
            return;
        };
        state.timer_armed = false;
        let mut groups: Vec<(ObjectId, PendingGroup)> = state.pending.drain().collect();
        groups.sort_by_key(|(obj, _)| *obj);
        let payloads: Vec<Vec<u8>> = groups
            .into_iter()
            .map(|(obj, g)| {
                let text = if g.count == 1 {
                    format!(
                        r#"{{"notif":"like","post":{},"actor":{}}}"#,
                        obj.0, g.first_actor
                    )
                } else {
                    format!(
                        r#"{{"notif":"like","post":{},"actor":{},"others":{}}}"#,
                        obj.0,
                        g.first_actor,
                        g.count - 1
                    )
                };
                text.into_bytes()
            })
            .collect();
        ctx.send_batch(key, payloads);
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        let Some(state) = self.streams.remove(&stream) else {
            return;
        };
        if let Some(w) = self.by_uid.get_mut(&state.uid) {
            w.retain(|k| *k != stream);
            if w.is_empty() {
                self.by_uid.remove(&state.uid);
            }
        }
        ctx.unsubscribe(pylon::Topic::notifications(state.uid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{DeviceId, Effect, TestDriver};
    use burst::frame::StreamId;
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(uid: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(uid)),
            ("gql", Json::from("subscription { notifications }")),
        ])
    }

    fn notif(owner: u64, post: u64, actor: u64) -> UpdateEvent {
        UpdateEvent {
            id: actor,
            topic: pylon::Topic::notifications(owner),
            object: ObjectId(post),
            kind: EventKind::NotificationPosted,
            meta: EventMeta {
                uid: actor,
                ..Default::default()
            },
        }
    }

    fn payloads(fx: &[Effect]) -> Vec<String> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => Some(
                    payloads
                        .iter()
                        .map(|p| String::from_utf8(p.to_vec()).unwrap())
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn single_notification_flushes_after_window() {
        let mut d = TestDriver::new(NotificationsApp::new());
        d.subscribe(stream(1), &header(9));
        let fx = d.event(&notif(9, 7, 100));
        assert!(payloads(&fx).is_empty(), "buffered, not pushed immediately");
        d.advance(COALESCE_WINDOW);
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        assert_eq!(
            payloads(&fx),
            vec![r#"{"notif":"like","post":7,"actor":100}"#]
        );
    }

    #[test]
    fn burst_coalesces_into_x_and_others() {
        let mut d = TestDriver::new(NotificationsApp::new());
        d.subscribe(stream(1), &header(9));
        for actor in 0..5_000u64 {
            d.event(&notif(9, 7, 100 + actor));
        }
        d.advance(COALESCE_WINDOW);
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        assert_eq!(
            payloads(&fx),
            vec![r#"{"notif":"like","post":7,"actor":100,"others":4999}"#],
            "five thousand events -> one push"
        );
        assert_eq!(d.counters.decisions, 5_000);
        assert_eq!(d.counters.deliveries, 1);
    }

    #[test]
    fn distinct_posts_flush_separately_in_one_batch() {
        let mut d = TestDriver::new(NotificationsApp::new());
        d.subscribe(stream(1), &header(9));
        d.event(&notif(9, 7, 1));
        d.event(&notif(9, 8, 2));
        d.advance(COALESCE_WINDOW);
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        let p = payloads(&fx);
        assert_eq!(p.len(), 2, "one payload per subject post");
        assert!(p[0].contains(r#""post":7"#));
        assert!(p[1].contains(r#""post":8"#));
        assert_eq!(d.counters.deliveries, 2, "two payloads in one atomic batch");
    }

    #[test]
    fn window_restarts_after_flush() {
        let mut d = TestDriver::new(NotificationsApp::new());
        d.subscribe(stream(1), &header(9));
        d.event(&notif(9, 7, 1));
        d.advance(COALESCE_WINDOW);
        let (_, t) = d.timers()[0];
        d.fire_timer(t);
        // A later like starts a fresh window and a fresh count.
        d.event(&notif(9, 7, 2));
        d.advance(COALESCE_WINDOW);
        let (_, t) = *d.timers().last().unwrap();
        let fx = d.fire_timer(t);
        assert_eq!(
            payloads(&fx),
            vec![r#"{"notif":"like","post":7,"actor":2}"#]
        );
    }

    #[test]
    fn close_unsubscribes() {
        let mut d = TestDriver::new(NotificationsApp::new());
        d.subscribe(stream(1), &header(9));
        let fx = d.close(stream(1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::UnsubscribeTopic(t) if t.as_str() == "/Notif/9")));
    }

    #[test]
    fn events_for_other_users_ignored() {
        let mut d = TestDriver::new(NotificationsApp::new());
        d.subscribe(stream(1), &header(9));
        let fx = d.event(&notif(10, 7, 1));
        assert!(fx.is_empty());
        assert_eq!(d.counters.decisions, 0);
    }
}
