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
use simkit::fxhash::FxHashMap;
use simkit::snap::{SnapError, SnapReader, SnapResult, SnapWriter};
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
    timers: FxHashMap<u64, StreamKey>,
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

    /// Writes the complete application state into a snapshot. Maps go out
    /// in sorted key order; the per-post watcher lists are verbatim because
    /// fan-out order follows them.
    pub(crate) fn snap_state(&self, w: &mut SnapWriter) {
        let mut keys: Vec<StreamKey> = self.streams.keys().copied().collect();
        keys.sort_unstable();
        w.put_usize(keys.len());
        for key in keys {
            let s = &self.streams[&key];
            key.snap(w);
            w.put_u64(s.post);
            w.put_u64(s.count);
            w.put_u64(s.pushed);
            s.limiter.snap(w);
            w.put_bool(s.timer_armed);
        }
        let mut posts: Vec<u64> = self.by_post.keys().copied().collect();
        posts.sort_unstable();
        w.put_usize(posts.len());
        for p in posts {
            w.put_u64(p);
            let watchers = &self.by_post[&p];
            w.put_usize(watchers.len());
            for k in watchers {
                k.snap(w);
            }
        }
        let mut timers: Vec<u64> = self.timers.keys().copied().collect();
        timers.sort_unstable();
        w.put_usize(timers.len());
        for t in timers {
            w.put_u64(t);
            self.timers[&t].snap(w);
        }
        w.put_u64(self.next_timer);
    }

    /// Reads the application back, rejecting snapshots whose counters or
    /// cross-map references are inconsistent.
    pub(crate) fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let nstreams = r.get_len()?;
        let mut streams: FxHashMap<StreamKey, StreamState> =
            FxHashMap::with_capacity_and_hasher(nstreams, Default::default());
        let mut prev: Option<StreamKey> = None;
        for _ in 0..nstreams {
            let key = StreamKey::restore(r)?;
            if prev.is_some_and(|p| p >= key) {
                return Err(SnapError::Invalid("likes: stream keys out of order".into()));
            }
            prev = Some(key);
            let post = r.get_u64()?;
            let count = r.get_u64()?;
            let pushed = r.get_u64()?;
            if pushed > count {
                return Err(SnapError::Invalid("likes: pushed exceeds count".into()));
            }
            let limiter = TokenBucket::restore(r)?;
            let timer_armed = r.get_bool()?;
            streams.insert(
                key,
                StreamState {
                    post,
                    count,
                    pushed,
                    limiter,
                    timer_armed,
                },
            );
        }
        let nposts = r.get_len()?;
        let mut by_post: FxHashMap<u64, Vec<StreamKey>> =
            FxHashMap::with_capacity_and_hasher(nposts, Default::default());
        let mut prev_post: Option<u64> = None;
        for _ in 0..nposts {
            let p = r.get_u64()?;
            if prev_post.is_some_and(|q| q >= p) {
                return Err(SnapError::Invalid("likes: posts out of order".into()));
            }
            prev_post = Some(p);
            let nw = r.get_len()?;
            let mut watchers = Vec::with_capacity(nw);
            for _ in 0..nw {
                let k = StreamKey::restore(r)?;
                match streams.get(&k) {
                    Some(s) if s.post == p => watchers.push(k),
                    _ => return Err(SnapError::Invalid("likes: dangling watcher".into())),
                }
            }
            by_post.insert(p, watchers);
        }
        let ntimers = r.get_len()?;
        let mut timers: FxHashMap<u64, StreamKey> =
            FxHashMap::with_capacity_and_hasher(ntimers, Default::default());
        let mut prev_timer: Option<u64> = None;
        for _ in 0..ntimers {
            let tok = r.get_u64()?;
            if prev_timer.is_some_and(|p| p >= tok) {
                return Err(SnapError::Invalid(
                    "likes: timer tokens out of order".into(),
                ));
            }
            prev_timer = Some(tok);
            timers.insert(tok, StreamKey::restore(r)?);
        }
        let next_timer = r.get_u64()?;
        if timers.keys().max().is_some_and(|m| next_timer <= *m) {
            return Err(SnapError::Invalid(
                "likes: next_timer behind live timers".into(),
            ));
        }
        Ok(LikesApp {
            streams,
            by_post,
            timers,
            next_timer,
        })
    }
}

impl BrassApp for LikesApp {
    fn name(&self) -> &'static str {
        "likes"
    }

    fn snap(&self, w: &mut SnapWriter) {
        self.snap_state(w);
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
        let Some(key) = self.timers.remove(&token) else {
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
