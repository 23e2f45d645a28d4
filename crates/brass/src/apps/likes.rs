//! NewsFeedPostLikes: aggregated like counters for posts on screen.
//!
//! One of the "more prominent" onboarded applications (§1). Unlike
//! LiveVideoComments, likes need neither payload fetches nor privacy
//! checks — the BRASS aggregates like *events* into a per-post counter and
//! pushes the running total at a bounded rate, so a viral post's million
//! likes cost the device a handful of counter updates. A clean
//! demonstration that per-app BRASS code stays tiny (§3.4: "at most a few
//! hundred JS lines").

use burst::frame::TerminateReason;
use burst::json::Json;
use simkit::snap::ensure;
use simkit::snap_struct;
use simkit::time::SimDuration;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, StreamKey};
use crate::apps::AppId;
use crate::limiter::TokenBucket;
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

/// Minimum spacing between counter pushes per stream.
pub const PUSH_INTERVAL: SimDuration = SimDuration::from_secs(3);

struct StreamState {
    post: u64,
    /// Likes accumulated since the stream opened.
    count: u64,
    /// Count included in the last push.
    pushed: u64,
    limiter: TokenBucket,
}

/// The NewsFeedPostLikes BRASS application.
#[derive(Default)]
pub struct LikesApp {
    /// Streams listed under their post's topic, and their deferred flushes.
    table: StreamTable<StreamState>,
}

impl LikesApp {
    fn push_or_defer(table: &mut StreamTable<StreamState>, ctx: &mut Ctx<'_>, slot: u32) {
        let (key, armed) = (table.key(slot), table.armed(slot));
        let Some(state) = table.get_mut(slot) else {
            return;
        };
        if state.count == state.pushed {
            return;
        }
        if state.limiter.try_acquire(ctx.now) {
            state.pushed = state.count;
            let payload = format!(r#"{{"post":{},"likes":{}}}"#, state.post, state.count);
            ctx.send(key, payload.into_bytes());
        } else if !armed {
            // Defer the flush until a token is available. The wait is
            // floored at 1 ms: float rounding in the bucket can otherwise
            // produce a zero wait and an instantly re-firing timer.
            let wait = state
                .limiter
                .time_to_available(ctx.now)
                .max(SimDuration::from_millis(1));
            table.arm(ctx, slot, wait);
        }
    }
}

snap_struct!(
    StreamState {
        post,
        count,
        pushed,
        limiter
    },
    |s| ensure(s.pushed <= s.count, "likes: pushed exceeds count")
);
snap_struct!(LikesApp { table });

impl BrassApp for LikesApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        _header: &Json,
    ) {
        let Some(post) = sub.topic.id_under(AppId::Likes.family()) else {
            ctx.terminate(stream, TerminateReason::Error);
            return;
        };
        let state = StreamState {
            post,
            count: 0,
            pushed: 0,
            limiter: TokenBucket::per_interval(PUSH_INTERVAL),
        };
        // A live key's old incarnation's deferred flush dies with it.
        let slot = self.table.open(stream, state);
        self.table.set_topics(ctx, slot, &[sub.topic]);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::PostLiked {
            return;
        }
        self.table.fan_out(&event.topic, |table, slot| {
            if let Some(state) = table.get_mut(slot) {
                ctx.decision();
                state.count += 1;
            }
            Self::push_or_defer(table, ctx, slot);
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(slot) = self.table.fire(token) else {
            return;
        };
        Self::push_or_defer(&mut self.table, ctx, slot);
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
    use pylon::Topic;
    use tao::ObjectId;
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(post: u64, viewer: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(viewer)),
            ("app", Json::from("likes")),
            ("topic", Json::from(format!("/Likes/{post}"))),
        ])
    }

    fn like(post: u64, uid: u64) -> UpdateEvent {
        UpdateEvent {
            id: uid,
            topic: Topic::new(&format!("/Likes/{post}")).unwrap(),
            object: ObjectId(post),
            kind: EventKind::PostLiked,
            meta: EventMeta {
                uid,
                ..Default::default()
            },
        }
    }

    fn payloads(fx: &[Effect]) -> Vec<String> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => {
                    Some(String::from_utf8(payloads[0].to_vec()).unwrap())
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_like_pushes_immediately() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        let fx = d.event(&like(7, 100));
        assert_eq!(payloads(&fx), vec![r#"{"post":7,"likes":1}"#]);
    }

    #[test]
    fn burst_collapses_into_one_counter_push() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        d.event(&like(7, 100)); // pushed: likes=1
                                // 50 more likes inside the rate-limit window: no pushes, one timer.
        for i in 0..50 {
            d.event(&like(7, 200 + i));
        }
        assert_eq!(d.counters.deliveries, 1);
        // The deferred flush carries the full total.
        d.advance(PUSH_INTERVAL);
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        assert_eq!(payloads(&fx), vec![r#"{"post":7,"likes":51}"#]);
        assert_eq!(d.counters.decisions, 51);
        assert_eq!(d.counters.deliveries, 2, "51 likes -> 2 pushes");
    }

    #[test]
    fn no_redundant_timer_when_idle() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        d.event(&like(7, 1));
        assert!(d.timers().is_empty(), "no defer needed after a clean push");
    }

    #[test]
    fn per_post_isolation() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        d.subscribe(stream(2), &header(8, 9));
        let fx = d.event(&like(8, 1));
        let p = payloads(&fx);
        assert_eq!(p, vec![r#"{"post":8,"likes":1}"#]);
    }

    #[test]
    fn close_unsubscribes() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        let fx = d.close(stream(1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::UnsubscribeTopic(t) if t.as_str() == "/Likes/7")));
        assert_eq!(d.app.table.values().count(), 0);
    }

    #[test]
    fn no_was_requests_ever() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        for i in 0..20 {
            d.event(&like(7, i));
        }
        assert_eq!(d.counters.was_requests, 0, "the counter IS the payload");
    }

    /// A resubscribe of a live key replaces its stream, deferred flush and
    /// all: the new incarnation keeps the topic without a Pylon effect, and
    /// the old flush's token is dead.
    #[test]
    fn resubscribe_of_a_live_key_leaves_one_timer_chain() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        d.event(&like(7, 1));
        d.event(&like(7, 2));
        assert_eq!(d.app.table.timer_count(), 1, "the second like is deferred");
        let fx = d.subscribe(stream(1), &header(7, 9));
        assert_eq!(fx, vec![], "the topic is kept");
        assert_eq!(d.app.table.timer_count(), 0, "the old flush is disarmed");
        d.event(&like(7, 3));
        d.event(&like(7, 4));
        d.advance(PUSH_INTERVAL);
        let timers = d.timers();
        assert_eq!(timers.len(), 2, "one flush per incarnation");
        assert_eq!(d.fire_timer(timers[0].1), vec![]);
        let fx = d.fire_timer(timers[1].1);
        assert_eq!(payloads(&fx), vec![r#"{"post":7,"likes":2}"#]);
        assert_eq!(d.app.table.timer_count(), 0);
    }

    /// A close and reopen of a key leaves the reopened stream one deferred
    /// flush: the closed stream's flush fires into nothing.
    #[test]
    fn close_and_reopen_leaves_one_timer_chain() {
        let mut d = TestDriver::new(LikesApp::default());
        d.subscribe(stream(1), &header(7, 9));
        d.event(&like(7, 1));
        d.event(&like(7, 2));
        let (_, old) = d.timers()[0];
        d.close(stream(1));
        assert_eq!(d.app.table.timer_count(), 0, "the close ended the flush");
        d.subscribe(stream(1), &header(7, 9));
        d.event(&like(7, 3));
        d.event(&like(7, 4));
        assert_eq!(d.app.table.timer_count(), 1, "one flush after the reopen");
        d.advance(PUSH_INTERVAL);
        assert_eq!(d.fire_timer(old), vec![]);
        let (_, new) = *d.timers().last().expect("the reopen deferred");
        let fx = d.fire_timer(new);
        assert_eq!(payloads(&fx), vec![r#"{"post":7,"likes":2}"#]);
        assert_eq!(d.app.table.timer_count(), 0);
    }
}
