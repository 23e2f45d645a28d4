//! NewsFeedPostLikes: aggregated like counters for posts on screen.
//!
//! One of the "more prominent" onboarded applications (§1). Unlike
//! LiveVideoComments, likes need neither payload fetches nor privacy
//! checks — the BRASS aggregates like *events* into a per-post counter and
//! pushes the running total at a bounded rate, so a viral post's million
//! likes cost the device a handful of counter updates. A clean
//! demonstration that per-app BRASS code stays tiny (§3.4: "at most a few
//! hundred JS lines").

use burst::json::Json;
use pylon::Topic;
use simkit::collections::SeqMap;
use simkit::fxhash::FxHashMap;
use simkit::snap::{ensure, Snap, SnapWriter};
use simkit::snap_struct;
use simkit::time::SimDuration;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasResponse};
use crate::limiter::TokenBucket;
use crate::resolve::resolve;

/// Minimum spacing between counter pushes per stream.
pub const PUSH_INTERVAL: SimDuration = SimDuration::from_secs(3);

struct StreamState {
    post: u64,
    /// Likes accumulated since the stream opened.
    count: u64,
    /// Count included in the last push.
    pushed: u64,
    limiter: TokenBucket,
    /// Whether a flush timer is currently armed.
    timer_armed: bool,
}

/// The NewsFeedPostLikes BRASS application.
#[derive(Default)]
pub struct LikesApp {
    streams: FxHashMap<StreamKey, StreamState>,
    by_post: FxHashMap<u64, Vec<StreamKey>>,
    /// Deferred flushes, by timer token.
    timers: SeqMap<StreamKey>,
    next_timer: u64,
}

impl LikesApp {
    /// Creates the application.
    pub fn new() -> Self {
        LikesApp::default()
    }

    /// Streams currently served.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    fn post_of_topic(topic: &Topic) -> Option<u64> {
        let mut segs = topic.segments();
        if segs.next() != Some("Likes") {
            return None;
        }
        segs.next()?.parse().ok()
    }

    fn push_or_defer(&mut self, ctx: &mut Ctx<'_>, key: StreamKey) {
        let Some(state) = self.streams.get_mut(&key) else {
            return;
        };
        if state.count == state.pushed {
            return;
        }
        if state.limiter.try_acquire(ctx.now) {
            state.pushed = state.count;
            let payload = format!(r#"{{"post":{},"likes":{}}}"#, state.post, state.count);
            ctx.send(key, payload.into_bytes());
        } else if !state.timer_armed {
            // Defer the flush until a token is available. The wait is
            // floored at 1 ms: float rounding in the bucket can otherwise
            // produce a zero wait and an instantly re-firing timer.
            state.timer_armed = true;
            let wait = state
                .limiter
                .time_to_available(ctx.now)
                .max(SimDuration::from_millis(1));
            let token = self.next_timer;
            self.next_timer += 1;
            self.timers.insert(token, key);
            ctx.timer(wait, token);
        }
    }
}

snap_struct!(
    StreamState {
        post,
        count,
        pushed,
        limiter,
        timer_armed
    },
    |s| ensure(s.pushed <= s.count, "likes: pushed exceeds count")
);
// The per-post watcher lists are verbatim because fan-out order follows
// them. Rejects snapshots whose counters or cross-map references are
// inconsistent.
snap_struct!(
    LikesApp {
        streams,
        by_post,
        timers,
        next_timer
    },
    |app| {
        let watches = |p: u64, k: &StreamKey| app.streams.get(k).is_some_and(|s| s.post == p);
        let watched = |(&p, ws): (&u64, &Vec<StreamKey>)| ws.iter().all(|k| watches(p, k));
        ensure(app.by_post.iter().all(watched), "likes: dangling watcher")?;
        ensure(
            app.timers.keys().all(|t| t < app.next_timer),
            "likes: next_timer behind live timers",
        )
    }
);

impl BrassApp for LikesApp {
    fn name(&self) -> &'static str {
        "likes"
    }

    fn snap(&self, w: &mut SnapWriter) {
        Snap::snap(self, w);
    }

    fn on_subscribe(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey, header: &Json) {
        let Ok(sub) = resolve(header) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        let Some(post) = Self::post_of_topic(&sub.topic) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        ctx.subscribe(sub.topic);
        self.streams.insert(
            stream,
            StreamState {
                post,
                count: 0,
                pushed: 0,
                limiter: TokenBucket::per_interval(PUSH_INTERVAL),
                timer_armed: false,
            },
        );
        let watchers = self.by_post.entry(post).or_default();
        if !watchers.contains(&stream) {
            watchers.push(stream);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::PostLiked {
            return;
        }
        let Some(post) = Self::post_of_topic(&event.topic) else {
            return;
        };
        let Some(watchers) = self.by_post.get(&post) else {
            return;
        };
        for key in watchers.clone() {
            if let Some(state) = self.streams.get_mut(&key) {
                ctx.decision();
                state.count += 1;
            }
            self.push_or_defer(ctx, key);
        }
    }

    fn on_was_response(&mut self, _ctx: &mut Ctx<'_>, _token: FetchToken, _response: WasResponse) {
        // Likes never fetch: the counter itself is the payload.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(key) = self.timers.remove(token) else {
            return;
        };
        if let Some(state) = self.streams.get_mut(&key) {
            state.timer_armed = false;
        }
        self.push_or_defer(ctx, key);
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        let Some(state) = self.streams.remove(&stream) else {
            return;
        };
        if let Some(w) = self.by_post.get_mut(&state.post) {
            w.retain(|k| *k != stream);
            if w.is_empty() {
                self.by_post.remove(&state.post);
            }
        }
        ctx.unsubscribe(Topic::new(&format!("/Likes/{}", state.post)).expect("static shape"));
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
        let mut d = TestDriver::new(LikesApp::new());
        d.subscribe(stream(1), &header(7, 9));
        let fx = d.event(&like(7, 100));
        assert_eq!(payloads(&fx), vec![r#"{"post":7,"likes":1}"#]);
    }

    #[test]
    fn burst_collapses_into_one_counter_push() {
        let mut d = TestDriver::new(LikesApp::new());
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
        let mut d = TestDriver::new(LikesApp::new());
        d.subscribe(stream(1), &header(7, 9));
        d.event(&like(7, 1));
        assert!(d.timers().is_empty(), "no defer needed after a clean push");
    }

    #[test]
    fn per_post_isolation() {
        let mut d = TestDriver::new(LikesApp::new());
        d.subscribe(stream(1), &header(7, 9));
        d.subscribe(stream(2), &header(8, 9));
        let fx = d.event(&like(8, 1));
        let p = payloads(&fx);
        assert_eq!(p, vec![r#"{"post":8,"likes":1}"#]);
    }

    #[test]
    fn close_unsubscribes() {
        let mut d = TestDriver::new(LikesApp::new());
        d.subscribe(stream(1), &header(7, 9));
        let fx = d.close(stream(1));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::UnsubscribeTopic(t) if t.as_str() == "/Likes/7")));
        assert_eq!(d.app.stream_count(), 0);
    }

    #[test]
    fn no_was_requests_ever() {
        let mut d = TestDriver::new(LikesApp::new());
        d.subscribe(stream(1), &header(7, 9));
        for i in 0..20 {
            d.event(&like(7, i));
        }
        assert_eq!(d.counters.was_requests, 0, "the counter IS the payload");
    }
}
