//! LiveVideoComments: the application that drove Bladerunner's design.
//!
//! Per §3.4: the BRASS "maintains a ranked buffer for each stream-connected
//! device to which it adds the incoming updates after filtering them on a
//! per user basis. For the most relevant ones, BRASS fetches the comments
//! from the WAS. The highest-ranked comment in the buffer is pushed to the
//! device periodically at a prescribed rate."
//!
//! Per-viewer filters implemented here (§2): language mismatch, low ML
//! quality, stale comments (age > 10 s), and — via the WAS fetch — blocked
//! users and other privacy rules. In **hot mode** the stream additionally
//! holds the per-poster overflow topics `/LVC/videoID/f-uid` for each of
//! the viewer's friends, matching the WAS-side strategy switch. A comment
//! fans out by its topic, so a per-poster comment reaches only the streams
//! holding that topic (the poster's friends' streams), not every viewer of
//! the video.

use burst::frame::TerminateReason;
use burst::json::Json;
use pylon::{Topic, TopicId};
use simkit::snap::ensure;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, TraceId};
use simkit::{snap_enum, snap_struct};
use tao::ObjectId;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::apps::AppId;
use crate::buffer::{PushOutcome, RankedBuffer};
use crate::limiter::TokenBucket;
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

/// LiveVideoComments tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct LvcConfig {
    /// Ranked-buffer capacity per stream (the paper's Fig. 9 runs hold the
    /// "ranking … fixed at 5 elements").
    pub buffer_capacity: usize,
    /// Comments older than this are discarded ("comments older than n
    /// seconds become irrelevant", §2; the product chose 10 s, §5).
    pub max_comment_age: SimDuration,
    /// Per-stream push cadence ("rate limits each stream to one message
    /// every two seconds", §5).
    pub push_interval: SimDuration,
    /// Minimum ML quality score a comment needs to enter the buffer.
    pub min_quality: f64,
}

impl Default for LvcConfig {
    fn default() -> Self {
        LvcConfig {
            buffer_capacity: 5,
            max_comment_age: SimDuration::from_secs(10),
            push_interval: SimDuration::from_secs(2),
            min_quality: 0.2,
        }
    }
}

/// A buffered comment reference (the payload stays in TAO until fetched)
/// and the trace of the update that posted it.
#[derive(Clone, Debug)]
struct BufferedComment {
    object: ObjectId,
    trace: TraceId,
}

struct StreamState {
    viewer: u64,
    /// Viewer language as an index into [`LvcApp::langs`] — the fleet
    /// speaks a handful of languages, so a per-stream heap `String` would
    /// repeat each of them once per watcher.
    lang: u16,
    video: u64,
    buffer: RankedBuffer<BufferedComment>,
    limiter: TokenBucket,
    sends_since_rewrite: u32,
    /// Buffer-loss counters already converted into drop decisions.
    accounted_losses: u64,
}

/// The LiveVideoComments BRASS application.
///
/// Its streams sit in a [`StreamTable`]: a comment offered to every viewer
/// of a video, a push tick and a fetch response reach their stream by
/// slot. A push tick ends with its stream; a fetch that outlives its
/// stream finds the key's current stream (or none), exactly as a lookup
/// by key would.
pub struct LvcApp {
    config: LvcConfig,
    /// Interned viewer languages (see [`StreamState::lang`]).
    langs: Vec<Box<str>>,
    /// Streams listed under their topics, their fetches and push timers.
    table: StreamTable<StreamState, PendingFetch>,
}

/// An in-flight WAS request of a stream.
#[derive(Clone, Copy)]
enum PendingFetch {
    /// A popped comment awaiting its payload/privacy fetch. Carries the
    /// comment's trace: the payload is tagged with it, and the fetch
    /// outcome is attributed to it if the comment never reaches the device
    /// (privacy denial, deletion, stream teardown while the fetch was in
    /// flight).
    Comment(TraceId),
    Friends,
}

/// With the default config.
impl Default for LvcApp {
    fn default() -> Self {
        LvcApp::new(LvcConfig::default())
    }
}

impl LvcApp {
    /// Creates the application with the given configuration.
    pub fn new(config: LvcConfig) -> Self {
        LvcApp {
            config,
            langs: Vec::new(),
            table: StreamTable::default(),
        }
    }

    fn intern_lang(&mut self, lang: &str) -> u16 {
        if let Some(i) = self.langs.iter().position(|l| &**l == lang) {
            return i as u16;
        }
        assert!(self.langs.len() < u16::MAX as usize, "lang table overflow");
        self.langs.push(lang.into());
        (self.langs.len() - 1) as u16
    }

    /// Converts buffer evictions/expiries that happened since the last call
    /// into drop decisions, so the Fig. 8 decision counts include them.
    fn account_buffer_losses(state: &mut StreamState, ctx: &mut Ctx<'_>) {
        let losses = state.buffer.evicted() + state.buffer.expired();
        ctx.decisions(losses.saturating_sub(state.accounted_losses));
        state.accounted_losses = state.accounted_losses.max(losses);
    }
}

snap_struct!(
    LvcConfig {
        buffer_capacity,
        max_comment_age,
        push_interval,
        min_quality
    },
    |c| {
        ensure(
            c.buffer_capacity != 0 && c.min_quality.is_finite(),
            "lvc: bad config",
        )
    }
);
snap_struct!(BufferedComment { object, trace });
snap_struct!(
    StreamState {
        viewer,
        lang,
        video,
        buffer,
        limiter,
        sends_since_rewrite,
        accounted_losses
    },
    |s| {
        ensure(
            s.accounted_losses <= s.buffer.evicted() + s.buffer.expired(),
            "lvc: accounted losses exceed losses",
        )
    }
);
snap_enum!(PendingFetch { 0 => Comment(trace), 1 => Friends });
// The language table is verbatim: interned indices are behaviour-visible.
snap_struct!(
    LvcApp {
        config,
        langs,
        table
    },
    |app| {
        // At most a buffer's worth of losses can be waiting to become
        // decisions (every offer settles the count): a larger debt is a
        // corrupt counter, and paying it would inflate the decision count.
        let owed = |s: &StreamState| s.buffer.evicted() + s.buffer.expired() - s.accounted_losses;
        let capacity = app.config.buffer_capacity as u64;
        ensure(
            app.table.values().all(|s| owed(s) <= capacity),
            "lvc: more unaccounted losses than a buffer holds",
        )?;
        let langs = app.langs.len();
        ensure(
            app.table.values().all(|s| (s.lang as usize) < langs),
            "lvc: lang index out of range",
        )
    }
);

impl BrassApp for LvcApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        header: &Json,
    ) {
        let Some(video) = sub.topic.id_under(AppId::Lvc.family()) else {
            ctx.terminate(stream, TerminateReason::Error);
            return;
        };
        let lang = self.intern_lang(header.get("lang").and_then(Json::as_str).unwrap_or("en"));
        // Resubscribe to a stream this instance is already serving — the
        // stream-repair path (proxy blip, failover retry) re-sends the
        // Subscribe for a connection that never left this host. The live
        // state is the resumption state: its buffer holds comments
        // admitted but not yet pushed, its limiter is fresher than the
        // header's persisted copy, and its timer chain is already armed.
        // Rebuilding from scratch here silently lost every buffered
        // comment, double-armed the pop timer, and leaked a topic
        // subscription refcount per repair.
        let live = self.table.find_mut(&stream);
        if let Some(live) = live.filter(|l| l.viewer == sub.viewer && l.video == video) {
            live.lang = lang;
            return;
        }
        // Resumption (§3.5): restore rate-limiter state a previous BRASS
        // stored in the header, if any.
        let limiter = TokenBucket::from_header(header)
            .unwrap_or_else(|| TokenBucket::per_interval(self.config.push_interval));
        let hot = header.get("hot").and_then(Json::as_bool).unwrap_or(false);
        let state = StreamState {
            viewer: sub.viewer,
            lang,
            video,
            buffer: RankedBuffer::new(self.config.buffer_capacity, self.config.max_comment_age),
            limiter,
            sends_since_rewrite: 0,
            accounted_losses: 0,
        };
        // Same key, different identity: the old stream is gone for good,
        // so it is closed first (its push chain ends with it) and the new
        // one joins its video's viewers last.
        self.on_stream_closed(ctx, stream);
        let slot = self.table.open(stream, state);
        self.table.set_topics(ctx, slot, &[sub.topic]);
        if hot {
            // Hot strategy: also follow per-poster topics for the viewer's
            // friends; the friend list comes from the backend.
            let token = ctx.was_request(WasRequest::Friends { uid: sub.viewer });
            self.table.await_fetch(token, slot, PendingFetch::Friends);
        }
        self.table.arm(ctx, slot, self.config.push_interval);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::CommentPosted {
            return;
        }
        let LvcApp {
            config,
            langs,
            table,
        } = self;
        let created = SimTime::from_millis(event.meta.created_ms);
        let trace = event.trace();
        table.fan_out(&event.topic, |table, slot| {
            let Some(state) = table.get_mut(slot) else {
                return;
            };
            // Per-viewer filtering (§2): language, quality, staleness.
            let lang_ok = event
                .meta
                .lang
                .as_deref()
                .is_none_or(|l| langs.get(state.lang as usize).is_some_and(|s| l == &**s));
            let fresh = ctx.now.saturating_since(created) <= config.max_comment_age;
            let quality_ok = event.meta.quality >= config.min_quality;
            if !(lang_ok && fresh && quality_ok) {
                // Attribute the first failing filter for the trace ledger.
                let reason = if !lang_ok {
                    DropReason::LanguageFilter
                } else if !fresh {
                    DropReason::Stale
                } else {
                    DropReason::QualityFilter
                };
                ctx.dropped(trace, reason);
                ctx.decision();
                return;
            }
            let comment = BufferedComment {
                object: event.object,
                trace,
            };
            match state.buffer.offer(event.meta.quality, created, comment) {
                PushOutcome::KeptEvicting(e) | PushOutcome::Rejected(e) => {
                    ctx.dropped(e.item.trace, DropReason::BufferOverflow);
                }
                PushOutcome::Kept => {}
            }
            Self::account_buffer_losses(state, ctx);
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(slot) = self.table.fire(token) else {
            return;
        };
        let state = self.table.get_mut(slot).expect("a fired stream is open");
        // Comments that aged out died waiting for the rate-limited push slot.
        for e in state.buffer.take_expired(ctx.now) {
            ctx.dropped(e.item.trace, DropReason::RateLimit);
        }
        let mut fetch = None;
        if state.limiter.try_acquire(ctx.now) {
            if let Some(comment) = state.buffer.pop_best(ctx.now) {
                // Popping is the deliver decision; the fetch decides privacy.
                ctx.decision();
                let token = ctx.was_request(WasRequest::FetchObject {
                    viewer: state.viewer,
                    object: comment.object,
                    trace: comment.trace,
                });
                fetch = Some((token, PendingFetch::Comment(comment.trace)));
            }
            Self::account_buffer_losses(state, ctx);
        }
        if let Some((token, pending)) = fetch {
            self.table.await_fetch(token, slot, pending);
        }
        self.table.arm(ctx, slot, self.config.push_interval);
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        let Some((slot, pending)) = self.table.answer(token) else {
            return;
        };
        let stream = self.table.key(slot);
        match (pending, self.table.get_mut(slot)) {
            // The stream was torn down while the fetch was in flight; the
            // popped comment dies here with it.
            (PendingFetch::Comment(trace), None) => {
                ctx.dropped(trace, DropReason::DeviceDisconnected);
            }
            (PendingFetch::Comment(trace), Some(state)) => match response {
                WasResponse::Payload(payload) => {
                    ctx.send(stream, payload.traced(trace));
                    state.sends_since_rewrite += 1;
                    // Periodically persist limiter state into the header so
                    // a failover BRASS continues the rate limit.
                    if state.sends_since_rewrite >= 8 {
                        state.sends_since_rewrite = 0;
                        let patch = state.limiter.to_header();
                        ctx.rewrite(stream, patch);
                    }
                }
                // The decision was already counted at pop; the drop still
                // needs trace attribution or the update ledger shows
                // unaccounted loss.
                WasResponse::Denied => {
                    ctx.dropped(trace, DropReason::PrivacyBlock);
                }
                WasResponse::NotFound => {
                    ctx.dropped(trace, DropReason::NotFound);
                }
                _ => {}
            },
            (PendingFetch::Friends, Some(state)) => {
                if let WasResponse::Friends(friends) = response {
                    let video = state.video;
                    let mut topics = vec![Topic::live_video_comments(video)];
                    topics.extend(
                        friends
                            .into_iter()
                            .map(|f| Topic::live_video_comments_by(video, f)),
                    );
                    self.table.set_topics(ctx, slot, &topics);
                }
            }
            (PendingFetch::Friends, None) => {}
        }
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        let Some(state) = self.table.find_mut(&stream) else {
            return;
        };
        // Comments still buffered when the stream goes away never reach the
        // device; attribute them so their traces resolve.
        for e in state.buffer.drain() {
            ctx.dropped(e.item.trace, DropReason::DeviceDisconnected);
        }
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
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(video: u64, viewer: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(viewer)),
            (
                "gql",
                Json::from(format!(
                    "subscription {{ liveVideoComments(videoId: {video}) }}"
                )),
            ),
        ])
    }

    fn comment_event(
        video: u64,
        object: u64,
        quality: f64,
        lang: &str,
        created_ms: u64,
    ) -> UpdateEvent {
        UpdateEvent {
            // A trace apart from the object, so a test sees which is named.
            id: 1_000 + object,
            topic: Topic::live_video_comments(video),
            object: ObjectId(object),
            kind: EventKind::CommentPosted,
            meta: EventMeta {
                uid: 1,
                quality,
                lang: Some(lang.into()),
                created_ms,
                seq: None,
                typing: None,
            },
        }
    }

    fn driver() -> TestDriver<LvcApp> {
        TestDriver::new(LvcApp::new(LvcConfig::default()))
    }

    #[test]
    fn subscribe_registers_topic_and_timer() {
        let mut d = driver();
        let fx = d.subscribe(stream(1), &header(42, 9));
        assert!(fx.contains(&Effect::SubscribeTopic(Topic::live_video_comments(42))));
        assert_eq!(d.timers().len(), 1);
        assert_eq!(d.app.table.values().count(), 1);
    }

    #[test]
    fn bad_header_terminates_stream() {
        let mut d = driver();
        let fx = d.subscribe(stream(1), &Json::obj::<&str>([]));
        assert!(matches!(fx[0], Effect::SendDeltas { .. }));
        assert_eq!(d.app.table.values().count(), 0);
    }

    #[test]
    fn quality_and_language_filters() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        // Low quality: filtered.
        d.event(&comment_event(42, 100, 0.05, "en", 0));
        // Wrong language: filtered.
        d.event(&comment_event(42, 101, 0.9, "fr", 0));
        assert_eq!(d.counters.decisions, 2);
        assert_eq!(d.counters.deliveries, 0);
        // Good comment: buffered, then delivered on the next tick.
        d.event(&comment_event(42, 102, 0.9, "en", 0));
        d.advance(SimDuration::from_secs(2));
        let (at, token) = d.timers()[0];
        assert!(at <= d.now());
        let fx = d.fire_timer(token);
        let fetch = fx.iter().find_map(|e| match e {
            Effect::Was {
                token,
                request:
                    WasRequest::FetchObject {
                        object,
                        viewer,
                        trace,
                    },
            } => Some((*token, *object, *viewer, *trace)),
            _ => None,
        });
        let (tok, obj, viewer, trace) = fetch.expect("tick fetches the best comment");
        assert_eq!((obj, viewer, trace), (ObjectId(102), 9, TraceId(1_102)));
        let fx = d.was_response(tok, WasResponse::Payload(b"payload".to_vec().into()));
        // The fetched payload goes out tagged with the comment's trace.
        let Effect::SendPayloads { payloads, .. } = &fx[0] else {
            panic!("expected a send, got {fx:?}");
        };
        assert_eq!(payloads[0].trace(), Some(TraceId(1_102)));
        assert_eq!(d.counters.deliveries, 1);
    }

    #[test]
    fn rate_limit_one_per_interval() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        for i in 0..10 {
            d.event(&comment_event(42, 200 + i, 0.9, "en", 0));
        }
        // First tick at t=2s delivers one fetch...
        d.advance(SimDuration::from_secs(2));
        let (_, t0) = d.timers()[0];
        let fx = d.fire_timer(t0);
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(e, Effect::Was { .. }))
                .count(),
            1
        );
        // ...an immediate second tick (same instant) is rate-limited.
        let (_, t1) = *d.timers().last().unwrap();
        let fx = d.fire_timer(t1);
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(e, Effect::Was { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn highest_ranked_pops_first_and_stale_expire() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        d.event(&comment_event(42, 300, 0.5, "en", 0));
        d.event(&comment_event(42, 301, 0.95, "en", 0));
        d.advance(SimDuration::from_secs(2));
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        let obj = fx.iter().find_map(|e| match e {
            Effect::Was {
                request: WasRequest::FetchObject { object, .. },
                ..
            } => Some(*object),
            _ => None,
        });
        assert_eq!(obj, Some(ObjectId(301)), "best quality first");
        // Let the remaining comment age out past 10s.
        d.advance(SimDuration::from_secs(12));
        let (_, t) = *d.timers().last().unwrap();
        let fx = d.fire_timer(t);
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::Was { .. })),
            "stale comment must not be delivered"
        );
    }

    #[test]
    fn resubscribe_keeps_buffered_comments() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        d.event(&comment_event(42, 500, 0.9, "en", 0));
        // Stream repair after a proxy blip re-sends Subscribe for a
        // stream this instance is already serving: the buffered comment
        // must survive, no duplicate topic subscription may be taken,
        // and no second timer chain may be armed.
        let timers_before = d.timers().len();
        let fx = d.subscribe(stream(1), &header(42, 9));
        assert!(
            !fx.iter()
                .any(|e| matches!(e, Effect::SubscribeTopic(_) | Effect::Timer { .. })),
            "same-identity resubscribe resumes live state: {fx:?}"
        );
        assert_eq!(d.timers().len(), timers_before);
        d.advance(SimDuration::from_secs(2));
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        let obj = fx.iter().find_map(|e| match e {
            Effect::Was {
                request: WasRequest::FetchObject { object, .. },
                ..
            } => Some(*object),
            _ => None,
        });
        assert_eq!(
            obj,
            Some(ObjectId(500)),
            "buffered comment survives the resubscribe"
        );
    }

    #[test]
    fn resubscribe_with_a_new_identity_leaves_one_timer_chain() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        let fx = d.subscribe(stream(1), &header(43, 9));
        assert!(fx.contains(&Effect::UnsubscribeTopic(Topic::live_video_comments(42))));
        let armed = d.timers();
        assert_eq!(armed.len(), 2, "one timer per subscribe");
        assert_eq!(
            d.app.table.timer_count(),
            1,
            "the replaced stream's is disarmed"
        );
        d.advance(SimDuration::from_secs(2));
        // The old chain's token is dead: firing it re-arms nothing.
        assert_eq!(d.fire_timer(armed[0].1), vec![]);
        let fx = d.fire_timer(armed[1].1);
        assert!(matches!(fx[..], [Effect::Timer { .. }]), "{fx:?}");
        assert_eq!(d.app.table.timer_count(), 1);
    }

    /// A fetch in flight when a stream closes and the same key resubscribes
    /// reaches the reopened stream, through a snapshot taken while only it
    /// still names the key: the effect a table keyed by stream gave. The
    /// closed stream's timer does not: the close ended its chain, and the
    /// reopened stream runs one.
    #[test]
    fn references_to_a_closed_key_reach_its_reopened_stream() {
        use simkit::snap::{Snap, SnapReader, SnapWriter};
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        d.event(&comment_event(42, 800, 0.9, "en", 0));
        d.advance(SimDuration::from_secs(2));
        let (_, first) = d.timers()[0];
        let fx = d.fire_timer(first);
        let fetch = fx.iter().find_map(|e| match e {
            Effect::Was { token, .. } => Some(*token),
            _ => None,
        });
        let fetch = fetch.expect("the tick fetches the comment");
        let (_, old_chain) = *d.timers().last().expect("re-armed");
        d.close(stream(1));
        assert_eq!(d.app.table.values().count(), 0);
        assert_eq!(d.app.table.timer_count(), 0, "the close ended the chain");
        // Only the fetch names the key now; a restore gives it a slot
        // again.
        let bytes = |app: &LvcApp| {
            let mut w = SnapWriter::new();
            Snap::snap(app, &mut w);
            w.into_bytes()
        };
        let closed = bytes(&d.app);
        d.app = <LvcApp as Snap>::restore(&mut SnapReader::new(&closed)).expect("restores");
        assert_eq!(bytes(&d.app), closed);
        d.subscribe(stream(1), &header(42, 9));
        d.event(&comment_event(42, 801, 0.9, "en", d.now().as_millis()));
        // The fetched payload is sent on the reopened stream.
        let fx = d.was_response(fetch, WasResponse::Payload(b"p".to_vec().into()));
        assert!(
            matches!(&fx[..], [Effect::SendPayloads { stream: s, .. }] if *s == stream(1)),
            "{fx:?}"
        );
        // The old chain's timer fires into nothing: it neither pops the
        // comment buffered on the reopened stream nor re-arms beside the
        // new chain, which pops it.
        assert_eq!(d.fire_timer(old_chain), vec![]);
        assert_eq!(d.app.table.timer_count(), 1, "one chain on the stream");
        let (_, new_chain) = *d.timers().last().expect("the reopen armed");
        assert_ne!(new_chain, old_chain);
        let fx = d.fire_timer(new_chain);
        let popped = fx.iter().find_map(|e| match e {
            Effect::Was {
                request: WasRequest::FetchObject { object, .. },
                ..
            } => Some(*object),
            _ => None,
        });
        assert_eq!(popped, Some(ObjectId(801)), "{fx:?}");
    }

    #[test]
    fn restore_rejects_a_loss_debt_no_run_could_owe() {
        use simkit::snap::{Snap, SnapReader, SnapWriter};
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        for i in 0..11u64 {
            // Rising quality: each one past the fifth evicts the lowest.
            d.event(&comment_event(42, 700 + i, 0.5 + i as f64 / 100.0, "en", 0));
        }
        let restore = |app: &LvcApp| {
            let mut w = SnapWriter::new();
            Snap::snap(app, &mut w);
            let bytes = w.into_bytes();
            <LvcApp as Snap>::restore(&mut SnapReader::new(&bytes)).map(drop)
        };
        let owes = |d: &mut TestDriver<LvcApp>, owed: u64| {
            let state = d.app.table.find_mut(&stream(1)).expect("open");
            state.accounted_losses = state.buffer.evicted() - owed;
        };
        let state = d.app.table.find_mut(&stream(1)).expect("open");
        assert_eq!(state.accounted_losses, 6);
        assert!(restore(&d.app).is_ok());
        owes(&mut d, 5);
        assert!(restore(&d.app).is_ok(), "a full buffer's worth can be owed");
        owes(&mut d, 6);
        assert!(
            restore(&d.app).is_err(),
            "more than that is a corrupt counter"
        );
    }

    #[test]
    fn privacy_denied_fetch_is_dropped() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        d.event(&comment_event(42, 400, 0.9, "en", 0));
        d.advance(SimDuration::from_secs(2));
        let (_, t) = d.timers()[0];
        let fx = d.fire_timer(t);
        let tok = fx.iter().find_map(|e| match e {
            Effect::Was { token, .. } => Some(*token),
            _ => None,
        });
        let fx = d.was_response(tok.unwrap(), WasResponse::Denied);
        // The denial never reaches the device, but the popped comment
        // must still be attributed or its trace shows unaccounted loss.
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::SendPayloads { .. })),
            "denied payloads never reach the device"
        );
        assert_eq!(
            fx,
            vec![Effect::DropUpdate {
                trace: TraceId(1_400),
                reason: DropReason::PrivacyBlock,
                count: 1,
            }]
        );
        assert_eq!(d.counters.deliveries, 0);
        assert_eq!(d.counters.decisions, 1);
    }

    #[test]
    fn hot_mode_subscribes_friend_overflow_topics() {
        let mut d = driver();
        let mut h = header(42, 9);
        h.set("hot", Json::from(true));
        let fx = d.subscribe(stream(1), &h);
        let tok = fx.iter().find_map(|e| match e {
            Effect::Was {
                token,
                request: WasRequest::Friends { uid },
            } => {
                assert_eq!(*uid, 9);
                Some(*token)
            }
            _ => None,
        });
        let fx = d.was_response(tok.unwrap(), WasResponse::Friends(vec![5, 6]));
        assert!(
            fx.contains(&Effect::SubscribeTopic(Topic::live_video_comments_by(
                42, 5
            )))
        );
        assert!(
            fx.contains(&Effect::SubscribeTopic(Topic::live_video_comments_by(
                42, 6
            )))
        );
    }

    /// A per-poster comment fans out by its own topic: it reaches the hot
    /// stream that follows the poster, not every viewer of the video.
    #[test]
    fn a_per_poster_comment_reaches_only_the_posters_friends() {
        let mut d = driver();
        let mut hot = header(42, 1);
        hot.set("hot", Json::from(true));
        let fx = d.subscribe(stream(1), &hot);
        let friends = fx.iter().find_map(|e| match e {
            Effect::Was { token, .. } => Some(*token),
            _ => None,
        });
        d.was_response(friends.unwrap(), WasResponse::Friends(vec![7]));
        d.subscribe(stream(2), &header(42, 2));
        let mut comment = comment_event(42, 100, 0.9, "en", 0);
        comment.topic = Topic::live_video_comments_by(42, 7);
        d.event(&comment);
        let mut buffered = |n| d.app.table.find_mut(&stream(n)).map(|s| s.buffer.len());
        assert_eq!((buffered(1), buffered(2)), (Some(1), Some(0)));
    }

    #[test]
    fn close_balances_each_subscribe_with_an_unsubscribe() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        d.subscribe(stream(2), &header(42, 10));
        // The topic's one subscribe is balanced when its last holder goes.
        let topic = Topic::live_video_comments(42);
        let fx = d.close(stream(1));
        assert!(!fx.contains(&Effect::UnsubscribeTopic(topic)));
        assert!(d.app.watches(topic.id()), "stream 2 holds it");
        let fx = d.close(stream(2));
        assert!(fx.contains(&Effect::UnsubscribeTopic(topic)));
        assert!(!d.app.watches(topic.id()));
        assert_eq!(d.app.table.values().count(), 0);
    }

    #[test]
    fn limiter_state_restored_from_header() {
        // A header carrying a drained limiter should prevent an immediate
        // send after failover.
        let mut exhausted = TokenBucket::per_interval(SimDuration::from_secs(2));
        exhausted.try_acquire(SimTime::ZERO);
        let mut h = header(42, 9);
        h.merge(&exhausted.to_header());
        let mut d = driver();
        d.subscribe(stream(1), &h);
        d.event(&comment_event(42, 500, 0.9, "en", 0));
        let (_, t) = d.timers()[0];
        // Timer fires immediately at t=0: the restored limiter has no token.
        let fx = d.fire_timer(t);
        assert!(!fx.iter().any(|e| matches!(e, Effect::Was { .. })));
    }

    #[test]
    fn rewrite_persists_limiter_after_sends() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        let mut rewrites = 0;
        for i in 0..9u64 {
            d.event(&comment_event(42, 600 + i, 0.9, "en", d.now().as_millis()));
            d.advance(SimDuration::from_secs(2));
            let (_, t) = *d.timers().last().unwrap();
            let fx = d.fire_timer(t);
            if let Some(tok) = fx.iter().find_map(|e| match e {
                Effect::Was {
                    token,
                    request: WasRequest::FetchObject { .. },
                } => Some(*token),
                _ => None,
            }) {
                let fx = d.was_response(tok, WasResponse::Payload(vec![1].into()));
                rewrites += fx
                    .iter()
                    .filter(|e| matches!(e, Effect::SendDeltas { .. }))
                    .count();
            }
        }
        assert!(rewrites >= 1, "limiter state is periodically rewritten");
    }

    #[test]
    fn filtered_fraction_is_high_under_load() {
        // A firehose of comments against a 1-per-2s limit: the vast
        // majority must be dropped (the paper reports ~80%).
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        for i in 0..200u64 {
            let ms = i * 100; // 10 comments/second for 20 seconds
            d.advance(SimDuration::from_millis(100));
            d.event(&comment_event(
                42,
                1_000 + i,
                0.3 + (i % 7) as f64 / 10.0,
                "en",
                ms,
            ));
            // Fire any due timers.
            let due: Vec<u64> = d
                .timers()
                .iter()
                .filter(|(at, _)| *at <= d.now())
                .map(|(_, t)| *t)
                .collect();
            for t in due {
                let fx = d.fire_timer(t);
                let toks: Vec<FetchToken> = fx
                    .iter()
                    .filter_map(|e| match e {
                        Effect::Was {
                            token,
                            request: WasRequest::FetchObject { .. },
                        } => Some(*token),
                        _ => None,
                    })
                    .collect();
                for tok in toks {
                    d.was_response(tok, WasResponse::Payload(vec![0].into()));
                }
            }
        }
        assert!(d.counters.decisions > 50);
        let filtered = d.counters.filtered_fraction();
        assert!(filtered > 0.5, "filtered fraction {filtered}");
    }

    /// A close and reopen of a key leaves the reopened stream one push
    /// chain: the closed stream's tick fires into nothing.
    #[test]
    fn close_and_reopen_leaves_one_timer_chain() {
        let mut d = driver();
        d.subscribe(stream(1), &header(42, 9));
        let (_, old) = d.timers()[0];
        d.close(stream(1));
        d.subscribe(stream(1), &header(42, 9));
        assert_eq!(d.app.table.timer_count(), 1, "one chain after the reopen");
        d.advance(SimDuration::from_secs(2));
        assert_eq!(d.fire_timer(old), vec![]);
        let (_, new) = *d.timers().last().expect("the reopen armed");
        let fx = d.fire_timer(new);
        assert!(matches!(fx[..], [Effect::Timer { .. }]), "{fx:?}");
        assert_eq!(d.app.table.timer_count(), 1);
    }
}
