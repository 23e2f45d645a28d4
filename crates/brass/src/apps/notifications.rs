//! WebsiteNotifications: the coalescing notification feed (§1's onboarded
//! application list).
//!
//! The distinguishing behaviour is **coalescing**: a viral post produces
//! thousands of "X liked your post" events, but the device should see
//! "X and 4,999 others liked your post" — one push. The BRASS buffers
//! incoming notification events per stream for a short window, then
//! flushes a single coalesced payload naming the first actor and the
//! total count.

use burst::frame::TerminateReason;
use burst::json::Json;
use simkit::fxhash::FxHashMap;
use simkit::snap::ensure;
use simkit::snap_struct;
use simkit::time::SimDuration;
use tao::ObjectId;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, StreamKey};
use crate::apps::AppId;
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

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
    /// Pending notifications per subject object (e.g. per liked post).
    pending: FxHashMap<ObjectId, PendingGroup>,
}

/// The WebsiteNotifications BRASS application.
#[derive(Default)]
pub struct NotificationsApp {
    /// Streams listed under their user's topic, and their coalescing
    /// flushes.
    table: StreamTable<StreamState>,
}

snap_struct!(PendingGroup { first_actor, count }, |g| {
    ensure(g.count != 0, "notifications: empty coalescing group")
});
snap_struct!(StreamState { pending });
snap_struct!(NotificationsApp { table });

impl BrassApp for NotificationsApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        _header: &Json,
    ) {
        if sub.topic.id_under(AppId::Notifications.family()).is_none() {
            ctx.terminate(stream, TerminateReason::Error);
            return;
        }
        let state = StreamState {
            pending: FxHashMap::default(),
        };
        // A live key's old incarnation's flush dies with it.
        let slot = self.table.open(stream, state);
        self.table.set_topics(ctx, slot, &[sub.topic]);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::NotificationPosted {
            return;
        }
        self.table.fan_out(&event.topic, |table, slot| {
            let state = table.get_mut(slot).expect("a listed stream is open");
            ctx.decision();
            let group = state.pending.entry(event.object).or_default();
            if group.count == 0 {
                group.first_actor = event.meta.uid;
            }
            group.count += 1;
            // The first event of a window starts its flush.
            if !table.armed(slot) {
                table.arm(ctx, slot, COALESCE_WINDOW);
            }
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(slot) = self.table.fire(token) else {
            return;
        };
        let key = self.table.key(slot);
        let state = self.table.get_mut(slot).expect("a fired stream is open");
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
        self.table.close(ctx, &stream);
    }

    fn watches(&self, topic: pylon::TopicId) -> bool {
        self.table.watches(topic)
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
        let mut d = TestDriver::new(NotificationsApp::default());
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
        let mut d = TestDriver::new(NotificationsApp::default());
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
        let mut d = TestDriver::new(NotificationsApp::default());
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
        let mut d = TestDriver::new(NotificationsApp::default());
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
        let mut d = TestDriver::new(NotificationsApp::default());
        d.subscribe(stream(1), &header(9));
        let fx = d.close(stream(1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::UnsubscribeTopic(t) if t.as_str() == "/Notif/9")));
    }

    #[test]
    fn events_for_other_users_ignored() {
        let mut d = TestDriver::new(NotificationsApp::default());
        d.subscribe(stream(1), &header(9));
        let fx = d.event(&notif(10, 7, 1));
        assert!(fx.is_empty());
        assert_eq!(d.counters.decisions, 0);
    }

    /// A resubscribe of a live key replaces its stream, pending flush and
    /// all: the new incarnation keeps the topic without a Pylon effect,
    /// and the old flush's token is dead.
    #[test]
    fn resubscribe_of_a_live_key_leaves_one_timer_chain() {
        let mut d = TestDriver::new(NotificationsApp::default());
        d.subscribe(stream(1), &header(9));
        d.event(&notif(9, 7, 100));
        let fx = d.subscribe(stream(1), &header(9));
        assert_eq!(fx, vec![], "the topic is kept");
        assert_eq!(d.app.table.timer_count(), 0, "the old flush is disarmed");
        d.event(&notif(9, 8, 101));
        d.advance(COALESCE_WINDOW);
        let timers = d.timers();
        assert_eq!(timers.len(), 2, "one flush per incarnation");
        assert_eq!(d.fire_timer(timers[0].1), vec![]);
        let fx = d.fire_timer(timers[1].1);
        assert_eq!(
            payloads(&fx),
            vec![r#"{"notif":"like","post":8,"actor":101}"#]
        );
    }

    /// A close and reopen of a key leaves the reopened stream one flush:
    /// the closed stream's flush fires into nothing.
    #[test]
    fn close_and_reopen_leaves_one_timer_chain() {
        let mut d = TestDriver::new(NotificationsApp::default());
        d.subscribe(stream(1), &header(9));
        d.event(&notif(9, 7, 100));
        let (_, old) = d.timers()[0];
        d.close(stream(1));
        assert_eq!(d.app.table.timer_count(), 0, "the close ended the flush");
        d.subscribe(stream(1), &header(9));
        d.event(&notif(9, 8, 101));
        assert_eq!(d.app.table.timer_count(), 1, "one flush after the reopen");
        d.advance(COALESCE_WINDOW);
        assert_eq!(d.fire_timer(old), vec![]);
        let (_, new) = *d.timers().last().expect("the reopen armed");
        let fx = d.fire_timer(new);
        assert_eq!(
            payloads(&fx),
            vec![r#"{"notif":"like","post":8,"actor":101}"#]
        );
    }
}
