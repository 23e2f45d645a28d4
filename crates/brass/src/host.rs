//! The BRASS host: a machine running (multi-tenant) BRASS instances.
//!
//! §3.2: "BRASS is serverless in the sense that a new instance is spooled up
//! automatically whenever a stream request arrives at a designated host that
//! doesn't already have a running BRASS instance for the target
//! application"; "the number of BRASSes per host is limited to two per core
//! to reduce context switching". Each host also runs a **Pylon subscription
//! manager** (footnote 10), so Pylon sees at most one subscription per
//! (host, topic). It keeps no count of its own: each application's stream
//! table tells it when a topic gains its first holder or loses its last
//! ([`Effect::SubscribeTopic`] / [`Effect::UnsubscribeTopic`]), and the host
//! subscribes or unsubscribes Pylon when no other instance
//! [watches](BrassApp::watches) the topic.
//!
//! [`BrassHost`] turns application [`Effect`]s into [`HostEffect`]s — the
//! externally visible actions the simulation orchestrator executes: Pylon
//! subscribe/unsubscribe, WAS requests, BURST response frames, timers.

use burst::frame::{Delta, Frame, StreamId, TerminateReason};
use burst::json::Json;
use burst::stream::ServerStream;
use pylon::{Topic, TopicId};
use simkit::fxhash::FxHashMap;
use simkit::time::SimTime;

use simkit::snap::{ensure, restore_sorted, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::snap_struct;

use crate::app::{
    AppCounters, BrassApp, Ctx, DeviceId, Effect, FetchToken, StreamKey, StreamView, WasRequest,
};
use crate::apps::{AppFactory, AppId};
use crate::resolve::resolve;

/// Host configuration.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// This host's identity with Pylon.
    pub host_id: pylon::HostId,
    /// CPU cores; instance capacity is two per core (§3.2).
    pub cores: u32,
}

impl HostConfig {
    /// A small host for tests and examples.
    pub fn small(host_id: u32) -> Self {
        HostConfig {
            host_id: pylon::HostId(host_id),
            cores: 4,
        }
    }
}

/// An externally visible action requested by the host.
#[derive(Debug)]
pub enum HostEffect {
    /// Register this host as a subscriber of a topic with Pylon.
    PylonSubscribe(Topic),
    /// Remove this host's subscription to a topic.
    PylonUnsubscribe(Topic),
    /// Issue a WAS request on behalf of an application.
    Was {
        /// Owning application (routes the response back).
        app: AppId,
        /// Correlation token.
        token: FetchToken,
        /// The request.
        request: WasRequest,
    },
    /// Send a BURST frame toward a device.
    Send {
        /// Target device.
        device: DeviceId,
        /// The frame (typically a `Response`), in the box it travels the
        /// transport in.
        frame: Box<Frame>,
    },
    /// Arm a timer for an application.
    Timer {
        /// When to fire.
        at: SimTime,
        /// Owning application.
        app: AppId,
        /// Opaque app token.
        token: u64,
    },
    /// An application dropped an update; forwarded for trace attribution.
    DropUpdate {
        /// The TAO object the dropped update referenced.
        object: tao::ObjectId,
        /// Why the update was dropped.
        reason: simkit::trace::DropReason,
        /// How many identical drops in a row this stands for.
        count: u32,
    },
}

struct Instance {
    id: AppId,
    app: Box<dyn BrassApp>,
    counters: AppCounters,
    next_token: u64,
}

struct StreamMeta {
    /// The owning application.
    app: AppId,
    server: ServerStream,
}

/// The server streams' retention is the one record of what is unacked.
impl StreamView for FxHashMap<StreamKey, StreamMeta> {
    fn has_unacked(&self, stream: StreamKey) -> bool {
        self.get(&stream)
            .is_some_and(|meta| !meta.server.unacked().is_empty())
    }
}

/// Host-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCounters {
    /// Serverless instance spool-ups.
    pub spool_ups: u64,
    /// Subscribe requests accepted.
    pub streams_accepted: u64,
    /// Subscribe requests rejected (a header that does not resolve, an
    /// application with no registered factory, or capacity).
    pub streams_rejected: u64,
}

/// A BRASS host.
///
/// Applications are known by their [`AppId`]: stream metadata, effects
/// and the simulator's queued events carry it, so naming an application
/// never copies or compares a string.
pub struct BrassHost {
    config: HostConfig,
    /// Each application's factory, if one is registered, by [`AppId`].
    factories: [Option<AppFactory>; AppId::ALL.len()],
    /// Running instances in [`AppId`] (name) order: at most two per core,
    /// so a scan is cheap, and every walk is already in the order that
    /// effect emission and snapshots need.
    instances: Vec<Instance>,
    streams: FxHashMap<StreamKey, StreamMeta>,
    counters: HostCounters,
    /// Application effects of the handler being run, reused across calls.
    effects: Vec<Effect>,
}

impl BrassHost {
    /// Creates an empty host.
    pub fn new(config: HostConfig) -> Self {
        BrassHost {
            config,
            factories: Default::default(),
            instances: Vec::new(),
            streams: FxHashMap::default(),
            counters: HostCounters::default(),
            effects: Vec::new(),
        }
    }

    /// This host's Pylon identity.
    pub fn host_id(&self) -> pylon::HostId {
        self.config.host_id
    }

    /// Registers a factory for `app`; instances spool up on demand.
    /// Registering an application again replaces its factory.
    pub fn register_app(&mut self, app: AppId, factory: AppFactory) {
        self.factories[app as usize] = Some(factory);
    }

    /// Registers every application with its default config.
    pub fn register_standard_apps(&mut self) {
        self.factories = AppId::ALL.map(|app| Some(app.factory()));
    }

    /// Maximum instances this host can run (two per core, §3.2).
    pub fn capacity(&self) -> usize {
        self.config.cores as usize * 2
    }

    /// Currently running instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Active streams on this host.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The `(device, sid)` key of every active stream, in no set order.
    /// The metrics tick and the convergence audit ask it which
    /// subscriptions a host is actually serving.
    pub fn iter_stream_keys(&self) -> impl Iterator<Item = (u64, StreamId)> + '_ {
        self.streams.keys().map(|k| (k.device.0, k.sid))
    }

    /// Host counters.
    pub fn counters(&self) -> &HostCounters {
        &self.counters
    }

    /// Per-application counters, if the instance is running.
    pub fn app_counters(&self, app: AppId) -> Option<AppCounters> {
        self.instance_index(app).map(|i| self.instances[i].counters)
    }

    /// Aggregate counters across all instances on this host.
    pub fn total_app_counters(&self) -> AppCounters {
        let mut total = AppCounters::default();
        for i in &self.instances {
            total.decisions += i.counters.decisions;
            total.deliveries += i.counters.deliveries;
            total.events_in += i.counters.events_in;
            total.was_requests += i.counters.was_requests;
        }
        total
    }

    /// Whether a stream on this host holds `topic`: exactly when the host
    /// holds a Pylon subscription to it.
    pub fn watches(&self, topic: Topic) -> bool {
        self.instances.iter().any(|i| i.app.watches(topic.id()))
    }

    /// Whether an instance other than the one at `index` holds `topic`.
    fn watched_elsewhere(&self, index: usize, topic: TopicId) -> bool {
        let mut all = self.instances.iter().enumerate();
        all.any(|(i, other)| i != index && other.app.watches(topic))
    }

    /// Position of `app`'s running instance in the sorted table.
    fn instance_index(&self, app: AppId) -> Option<usize> {
        self.instances.iter().position(|i| i.id == app)
    }

    /// Spools up an instance of `app` unless one runs; `Err` when no
    /// factory is registered for it or the host is at capacity.
    fn ensure_instance(&mut self, app: AppId) -> Result<(), ()> {
        if self.instance_index(app).is_some() {
            return Ok(());
        }
        if self.instances.len() >= self.capacity() {
            return Err(());
        }
        let factory = self.factories[app as usize].ok_or(())?;
        let instance = Instance {
            id: app,
            app: factory(),
            counters: AppCounters::default(),
            next_token: 0,
        };
        let index = self.instances.partition_point(|i| i.id < app);
        self.instances.insert(index, instance);
        self.counters.spool_ups += 1;
        Ok(())
    }

    /// Runs an app handler and converts its effects into host effects.
    fn run_handler(
        &mut self,
        app: AppId,
        now: SimTime,
        out: &mut Vec<HostEffect>,
        f: impl FnOnce(&mut dyn BrassApp, &mut Ctx<'_>),
    ) {
        let Some(index) = self.instance_index(app) else {
            return;
        };
        let instance = &mut self.instances[index];
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Ctx::new(
                now,
                &mut effects,
                &mut instance.counters,
                &mut instance.next_token,
                &self.streams,
            );
            f(instance.app.as_mut(), &mut ctx);
        }
        self.apply_effects(index, &mut effects, out);
        self.effects = effects;
    }

    /// Drains one handler's effects into `out`. `index` is the emitting
    /// instance: handlers never spool instances up, so it stays put.
    fn apply_effects(
        &mut self,
        index: usize,
        effects: &mut Vec<Effect>,
        out: &mut Vec<HostEffect>,
    ) {
        let app = self.instances[index].id;
        for effect in effects.drain(..) {
            match effect {
                // The emitting instance's first holder came or its last
                // went; Pylon hears of it unless another instance holds
                // the topic. Other instances' tables are settled: only the
                // emitting handler has run.
                Effect::SubscribeTopic(topic) if !self.watched_elsewhere(index, topic.id()) => {
                    out.push(HostEffect::PylonSubscribe(topic));
                }
                Effect::UnsubscribeTopic(topic) if !self.watched_elsewhere(index, topic.id()) => {
                    out.push(HostEffect::PylonUnsubscribe(topic));
                }
                Effect::SubscribeTopic(_) | Effect::UnsubscribeTopic(_) => {}
                Effect::Was { token, request } => out.push(HostEffect::Was {
                    app,
                    token,
                    request,
                }),
                Effect::SendPayloads {
                    stream,
                    payloads,
                    rewrite,
                } => {
                    let Some(meta) = self.streams.get_mut(&stream) else {
                        continue; // Stream closed since the app decided.
                    };
                    let mut batch = Vec::with_capacity(payloads.len() + 2);
                    batch.extend(payloads.into_iter().map(|p| meta.server.push(p)));
                    batch.extend(rewrite.map(Delta::rewrite));
                    // Transport-level resumption ("Resumption", §3.5): every
                    // data batch installs `last_seq`, so a resubscribe — to
                    // this incarnation or a replacement — resumes sequence
                    // numbering where delivery actually got to instead of
                    // restarting at zero. Without this, a stale in-flight
                    // frame from the old incarnation can push the client's
                    // expectations permanently ahead of the new one, and
                    // every later update is swallowed as a duplicate.
                    batch.push(meta.server.rewrite_progress());
                    out.push(Self::respond(stream.device, stream.sid, batch));
                }
                Effect::SendDeltas { stream, deltas } => {
                    if !self.streams.contains_key(&stream) {
                        continue;
                    }
                    let terminated = deltas.iter().any(|d| matches!(d, Delta::Terminate(_)));
                    out.push(Self::respond(stream.device, stream.sid, deltas));
                    if terminated {
                        self.streams.remove(&stream);
                    }
                }
                Effect::Timer { at, token } => out.push(HostEffect::Timer { at, app, token }),
                Effect::DropUpdate {
                    object,
                    reason,
                    count,
                } => out.push(HostEffect::DropUpdate {
                    object,
                    reason,
                    count,
                }),
                Effect::ReplayUnacked { stream } => {
                    let Some(meta) = self.streams.get(&stream) else {
                        continue;
                    };
                    let batch = meta.server.replay_unacked();
                    if !batch.is_empty() {
                        out.push(Self::respond(stream.device, stream.sid, batch));
                    }
                }
            }
        }
    }

    /// The effect that sends one response batch down a stream.
    fn respond(device: DeviceId, sid: StreamId, batch: Vec<Delta>) -> HostEffect {
        HostEffect::Send {
            device,
            frame: Box::new(Frame::Response { sid, batch }),
        }
    }

    /// The response that ends a stream from this side.
    fn terminate(device: DeviceId, sid: StreamId, reason: TerminateReason) -> HostEffect {
        Self::respond(device, sid, vec![Delta::Terminate(reason)])
    }

    /// Handles an incoming BURST subscribe; the effects as a vector (see
    /// [`BrassHost::on_subscribe_into`]).
    pub fn on_subscribe(
        &mut self,
        device: DeviceId,
        sid: StreamId,
        header: Json,
        now: SimTime,
    ) -> Vec<HostEffect> {
        let mut out = Vec::new();
        self.on_subscribe_into(device, sid, header, now, &mut out);
        out
    }

    /// Handles an incoming BURST subscribe for a stream, appending the
    /// effects to `out`.
    ///
    /// Failures produce a terminate response rather than an error: devices
    /// are remote. A header that does not resolve, one naming no
    /// application included, is an `Error`, which the device drops; a host
    /// at capacity or with no factory for the application answers
    /// `ServerShutdown`, which the device retries. Either ends a live key's
    /// old incarnation too.
    pub fn on_subscribe_into(
        &mut self,
        device: DeviceId,
        sid: StreamId,
        header: Json,
        now: SimTime,
        out: &mut Vec<HostEffect>,
    ) {
        let stream = StreamKey { device, sid };
        let Ok(sub) = resolve(&header) else {
            self.counters.streams_rejected += 1;
            out.push(Self::terminate(device, sid, TerminateReason::Error));
            self.on_cancel_into(device, sid, now, out);
            return;
        };
        let app = sub.app;
        if self.ensure_instance(app).is_err() {
            self.counters.streams_rejected += 1;
            out.push(Self::terminate(
                device,
                sid,
                TerminateReason::ServerShutdown,
            ));
            self.on_cancel_into(device, sid, now, out);
            return;
        }
        self.counters.streams_accepted += 1;
        let server = ServerStream::accept(sid, &header, app.retains_unacked());
        // Sticky routing (§3.5): patch the header with this host's identity
        // so a resubscribe after failure lands back here.
        let patch = Json::obj([("brass_host", Json::from(self.config.host_id.0 as u64))]);
        let rewrite = Delta::rewrite(patch);
        let replaced = self.streams.insert(stream, StreamMeta { app, server });
        out.push(Self::respond(device, sid, vec![rewrite]));
        self.run_handler(app, now, out, |a, ctx| {
            a.on_subscribe(ctx, stream, &sub, &header)
        });
        // A live key's old incarnation is closed in its own application
        // when another one took the key over, or when its application
        // refused the resubscribe (and so kept the old one). A same-app
        // resubscribe it accepted is that app's to merge.
        if let Some(old) = replaced {
            if old.app != app || !self.streams.contains_key(&stream) {
                self.run_handler(old.app, now, out, |a, ctx| a.on_stream_closed(ctx, stream));
            }
        }
    }

    /// Fans a Pylon update event out; the effects as a vector (see
    /// [`BrassHost::on_pylon_event_into`]).
    pub fn on_pylon_event(&mut self, event: &was::UpdateEvent, now: SimTime) -> Vec<HostEffect> {
        let mut out = Vec::new();
        self.on_pylon_event_into(event, now, &mut out);
        out
    }

    /// Fans a Pylon update event to every colocated instance holding a
    /// subscription to its topic, in app-name order: the handler order
    /// decides the order of emitted effects, and therefore of every
    /// downstream event.
    pub fn on_pylon_event_into(
        &mut self,
        event: &was::UpdateEvent,
        now: SimTime,
        out: &mut Vec<HostEffect>,
    ) {
        // A handler changes only its own instance's topics, so each
        // instance can be asked as its turn comes.
        for index in 0..self.instances.len() {
            let instance = &mut self.instances[index];
            if !instance.app.watches(event.topic.id()) {
                continue;
            }
            instance.counters.events_in += 1;
            let app = instance.id;
            self.run_handler(app, now, out, |a, ctx| a.on_event(ctx, event));
        }
    }

    /// Routes a WAS response back to the application named `app`; the
    /// effects as a vector (see [`BrassHost::on_was_response_into`]).
    pub fn on_was_response(
        &mut self,
        app: &str,
        token: FetchToken,
        response: crate::app::WasResponse,
        now: SimTime,
    ) -> Vec<HostEffect> {
        let mut out = Vec::new();
        if let Some(app) = AppId::from_name(app) {
            self.on_was_response_into(app, token, response, now, &mut out);
        }
        out
    }

    /// Routes a WAS response back to the owning application.
    pub fn on_was_response_into(
        &mut self,
        app: AppId,
        token: FetchToken,
        response: crate::app::WasResponse,
        now: SimTime,
        out: &mut Vec<HostEffect>,
    ) {
        self.run_handler(app, now, out, |a, ctx| {
            a.on_was_response(ctx, token, response)
        });
    }

    /// Fires a timer of the application named `app`; the effects as a
    /// vector (see [`BrassHost::on_timer_into`]).
    pub fn on_timer(&mut self, app: &str, token: u64, now: SimTime) -> Vec<HostEffect> {
        let mut out = Vec::new();
        if let Some(app) = AppId::from_name(app) {
            self.on_timer_into(app, token, now, &mut out);
        }
        out
    }

    /// Fires an application timer.
    pub fn on_timer_into(
        &mut self,
        app: AppId,
        token: u64,
        now: SimTime,
        out: &mut Vec<HostEffect>,
    ) {
        self.run_handler(app, now, out, |a, ctx| a.on_timer(ctx, token));
    }

    /// Handles a client cancel for one stream.
    pub fn on_cancel_into(
        &mut self,
        device: DeviceId,
        sid: StreamId,
        now: SimTime,
        out: &mut Vec<HostEffect>,
    ) {
        let stream = StreamKey { device, sid };
        if let Some(meta) = self.streams.remove(&stream) {
            self.run_handler(meta.app, now, out, |a, ctx| a.on_stream_closed(ctx, stream));
        }
    }

    /// Handles a device ack: the stream's retained updates up to `seq`
    /// are released (reliable applications replay the rest).
    pub fn on_ack(&mut self, device: DeviceId, sid: StreamId, seq: u64) {
        if let Some(meta) = self.streams.get_mut(&StreamKey { device, sid }) {
            meta.server.on_ack(seq);
        }
    }

    /// Redirects one stream to another BRASS host (§3.5 "Redirects": load
    /// balancing, consolidation, or host drain). The header is rewritten
    /// with the new routing target, then the stream is terminated with
    /// [`TerminateReason::Redirect`] so the device retries — landing on
    /// `to_host` via sticky routing, with no device logic involved.
    pub fn redirect_stream_into(
        &mut self,
        device: DeviceId,
        sid: StreamId,
        to_host: u32,
        now: SimTime,
        out: &mut Vec<HostEffect>,
    ) {
        let stream = StreamKey { device, sid };
        let Some(meta) = self.streams.remove(&stream) else {
            return;
        };
        let patch = Json::obj([("brass_host", Json::from(to_host as u64))]);
        let redirect = Delta::Terminate(TerminateReason::Redirect);
        out.push(Self::respond(
            device,
            sid,
            vec![Delta::rewrite(patch), redirect],
        ));
        // The application releases its per-stream state (and topics).
        self.run_handler(meta.app, now, out, |a, ctx| a.on_stream_closed(ctx, stream));
    }
}

snap_struct!(HostConfig { host_id, cores }, |c| {
    ensure(c.cores != 0, "brass host: zero cores")
});
snap_struct!(HostCounters {
    spool_ups,
    streams_accepted,
    streams_rejected
});

/// The application, counters, token counter and the application's own
/// state (its stream table is its record of interest), which is restored
/// with the application's default code: a snapshot cannot carry a custom
/// factory.
impl Snap for Instance {
    fn snap(&self, w: &mut SnapWriter) {
        self.id.snap(w);
        self.counters.snap(w);
        self.next_token.snap(w);
        self.app.snap_state(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let id = AppId::restore(r)?;
        Ok(Instance {
            id,
            counters: Snap::restore(r)?,
            next_token: Snap::restore(r)?,
            app: id.restore_app(r)?,
        })
    }
}

/// Config, every running instance, every server-side stream (keyed by its
/// device, owned by an application), and the host counters. Factories are
/// code, not state: restore registers the standard ones.
impl Snap for BrassHost {
    fn snap(&self, w: &mut SnapWriter) {
        self.config.snap(w);
        self.instances.snap(w);
        let mut keys: Vec<&StreamKey> = self.streams.keys().collect();
        keys.sort_unstable();
        w.put_usize(keys.len());
        for key in keys {
            let meta = &self.streams[key];
            key.device.snap(w);
            meta.app.snap(w);
            meta.server.snap(w);
        }
        self.counters.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let mut host = BrassHost::new(HostConfig::restore(r)?);
        host.register_standard_apps();
        host.instances = restore_sorted(r, |a: &Instance, b| a.id < b.id)?;
        if host.instances.len() > host.capacity() {
            return Err(SnapError::Invalid("brass host: over capacity".into()));
        }
        let by_key = |a: &(DeviceId, AppId, ServerStream), b: &(DeviceId, AppId, ServerStream)| {
            (a.0, a.2.sid()) < (b.0, b.2.sid())
        };
        for (device, app, server) in restore_sorted(r, by_key)? {
            if host.instance_index(app).is_none() {
                return Err(SnapError::Invalid(
                    "brass host: stream owned by absent instance".into(),
                ));
            }
            let sid = server.sid();
            host.streams
                .insert(StreamKey { device, sid }, StreamMeta { app, server });
        }
        host.counters = Snap::restore(r)?;
        Ok(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::WasResponse;
    use pylon::HostId;
    use was::event::{EventKind, EventMeta};
    use was::UpdateEvent;

    /// What an `_into` handler emits, as a vector.
    fn collect<E>(run: impl FnOnce(&mut Vec<E>)) -> Vec<E> {
        let mut out = Vec::new();
        run(&mut out);
        out
    }

    fn host() -> BrassHost {
        let mut h = BrassHost::new(HostConfig::small(1));
        h.register_standard_apps();
        h
    }

    /// The response a `Send` effect carries: target, stream and batch
    /// (patterns cannot see through the frame's box).
    fn sent(e: &HostEffect) -> Option<(DeviceId, StreamId, &[Delta])> {
        match e {
            HostEffect::Send { device, frame } => match &**frame {
                Frame::Response { sid, batch } => Some((*device, *sid, batch)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether `e` sends a response terminating its stream for `reason`.
    fn terminates(e: &HostEffect, reason: TerminateReason) -> bool {
        sent(e).is_some_and(|(_, _, batch)| batch.contains(&Delta::Terminate(reason)))
    }

    fn lvc_header(video: u64, viewer: u64) -> Json {
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

    fn comment(video: u64, object: u64, quality: f64) -> UpdateEvent {
        UpdateEvent {
            id: object,
            topic: Topic::live_video_comments(video),
            object: tao::ObjectId(object),
            kind: EventKind::CommentPosted,
            meta: EventMeta {
                uid: 1,
                quality,
                lang: Some("en".into()),
                created_ms: 0,
                seq: None,
                typing: None,
            },
        }
    }

    #[test]
    fn serverless_spool_up_on_first_stream() {
        let mut h = host();
        assert_eq!(h.instance_count(), 0);
        let fx = h.on_subscribe(DeviceId(1), StreamId(1), lvc_header(42, 9), SimTime::ZERO);
        assert_eq!(h.instance_count(), 1);
        assert_eq!(h.counters().spool_ups, 1);
        assert!(fx
            .iter()
            .any(|e| matches!(e, HostEffect::PylonSubscribe(t) if t.as_str() == "/LVC/42")));
        // A second stream for the same app reuses the instance.
        h.on_subscribe(DeviceId(2), StreamId(1), lvc_header(43, 9), SimTime::ZERO);
        assert_eq!(h.instance_count(), 1);
        assert_eq!(h.counters().spool_ups, 1);
    }

    #[test]
    fn sticky_routing_rewrite_sent_on_accept() {
        let mut h = host();
        let fx = h.on_subscribe(DeviceId(1), StreamId(1), lvc_header(42, 9), SimTime::ZERO);
        let rewrite = fx.iter().filter_map(sent).find_map(|(_, _, batch)| {
            batch.iter().find_map(|d| match d {
                Delta::RewriteRequest { patch } => patch.get("brass_host").and_then(Json::as_u64),
                _ => None,
            })
        });
        assert_eq!(rewrite, Some(1), "host identity patched for stickiness");
    }

    #[test]
    fn subscription_manager_dedupes_host_wide() {
        let mut h = host();
        let mut pylon_subs = 0;
        for d in 1..=5 {
            let fx = h.on_subscribe(DeviceId(d), StreamId(1), lvc_header(42, d), SimTime::ZERO);
            pylon_subs += fx
                .iter()
                .filter(|e| matches!(e, HostEffect::PylonSubscribe(_)))
                .count();
        }
        assert_eq!(pylon_subs, 1, "one Pylon subscription per (host, topic)");
        assert!(h.watches(Topic::live_video_comments(42)));
        assert!(!h.watches(Topic::live_video_comments(43)));
    }

    #[test]
    fn unsubscribe_emitted_when_last_ref_drops() {
        let mut h = host();
        h.on_subscribe(DeviceId(1), StreamId(1), lvc_header(42, 1), SimTime::ZERO);
        h.on_subscribe(DeviceId(2), StreamId(1), lvc_header(42, 2), SimTime::ZERO);
        let fx = collect(|out| h.on_cancel_into(DeviceId(1), StreamId(1), SimTime::ZERO, out));
        assert!(!fx
            .iter()
            .any(|e| matches!(e, HostEffect::PylonUnsubscribe(_))));
        let fx = collect(|out| h.on_cancel_into(DeviceId(2), StreamId(1), SimTime::ZERO, out));
        assert!(fx
            .iter()
            .any(|e| matches!(e, HostEffect::PylonUnsubscribe(t) if t.as_str() == "/LVC/42")));
        assert!(!h.watches(Topic::live_video_comments(42)));
    }

    #[test]
    fn event_to_delivery_pipeline_with_sequencing() {
        let mut h = host();
        h.on_subscribe(DeviceId(1), StreamId(7), lvc_header(42, 9), SimTime::ZERO);
        h.on_pylon_event(&comment(42, 100, 0.95), SimTime::ZERO);
        // Fire the LVC push timer.
        let now = SimTime::from_secs(2);
        let fx = h.on_timer("lvc", 0, now);
        let (token,) = fx
            .iter()
            .find_map(|e| match e {
                HostEffect::Was { token, .. } => Some((*token,)),
                _ => None,
            })
            .expect("timer triggers WAS fetch");
        let fx = h.on_was_response(
            "lvc",
            token,
            WasResponse::Payload(b"hi".to_vec().into()),
            now,
        );
        let (device, sid, batch) = fx.iter().find_map(sent).expect("payload sent");
        assert_eq!((device, sid), (DeviceId(1), StreamId(7)));
        // Every data batch closes with a transport-progress rewrite
        // installing `last_seq`, so resubscribes resume sequence
        // numbering instead of restarting at zero.
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], Delta::update(0, b"hi".to_vec()));
        assert_eq!(batch[1], Delta::Progress { last_seq: 0 });
        let c = h.app_counters(AppId::Lvc).unwrap();
        assert_eq!(c.deliveries, 1);
        assert_eq!(c.events_in, 1);
    }

    #[test]
    fn unregistered_app_terminates_stream() {
        let mut h = BrassHost::new(HostConfig::small(1)); // no apps registered
        let fx = h.on_subscribe(DeviceId(1), StreamId(1), lvc_header(42, 9), SimTime::ZERO);
        assert!(fx
            .iter()
            .any(|e| terminates(e, TerminateReason::ServerShutdown)));
        assert_eq!(h.counters().streams_rejected, 1);
    }

    /// A pre-resolved header naming an application no host runs is an
    /// error, which the device does not retry, not a `ServerShutdown`,
    /// which it retries at once and forever.
    #[test]
    fn header_naming_an_unknown_app_is_an_error() {
        let mut h = host();
        let header = Json::obj([
            ("viewer", Json::from(9u64)),
            ("app", Json::from("noisy")),
            ("topic", Json::from("/LVC/42")),
        ]);
        let fx = h.on_subscribe(DeviceId(1), StreamId(1), header, SimTime::ZERO);
        assert!(fx.iter().any(|e| terminates(e, TerminateReason::Error)));
        assert!(!fx
            .iter()
            .any(|e| terminates(e, TerminateReason::ServerShutdown)));
        assert_eq!(h.counters().streams_rejected, 1);
        assert_eq!((h.instance_count(), h.stream_count()), (0, 0));
    }

    #[test]
    fn bad_header_terminates_stream() {
        let mut h = host();
        let fx = h.on_subscribe(
            DeviceId(1),
            StreamId(1),
            Json::obj::<&str>([]),
            SimTime::ZERO,
        );
        assert!(matches!(fx[0], HostEffect::Send { .. }));
        assert_eq!(h.stream_count(), 0);
    }

    #[test]
    fn capacity_limit_two_per_core() {
        let mut h = BrassHost::new(HostConfig {
            host_id: HostId(1),
            cores: 1, // capacity 2
        });
        h.register_standard_apps();
        h.on_subscribe(DeviceId(1), StreamId(1), lvc_header(1, 1), SimTime::ZERO);
        let typing_header = Json::obj([
            ("viewer", Json::from(1u64)),
            (
                "gql",
                Json::from("subscription { typingIndicator(threadId: 1, counterpartyId: 2) }"),
            ),
        ]);
        h.on_subscribe(DeviceId(1), StreamId(2), typing_header, SimTime::ZERO);
        assert_eq!(h.instance_count(), 2);
        // Third app hits the 2-per-core limit.
        let msgr_header = Json::obj([
            ("viewer", Json::from(1u64)),
            ("gql", Json::from("subscription { mailbox(uid: 1) }")),
        ]);
        let fx = h.on_subscribe(DeviceId(1), StreamId(3), msgr_header, SimTime::ZERO);
        assert_eq!(h.instance_count(), 2);
        assert!(fx
            .iter()
            .any(|e| terminates(e, TerminateReason::ServerShutdown)));
    }

    #[test]
    fn redirect_rewrites_then_terminates() {
        let mut h = host();
        h.on_subscribe(DeviceId(1), StreamId(1), lvc_header(42, 9), SimTime::ZERO);
        let fx =
            collect(|out| h.redirect_stream_into(DeviceId(1), StreamId(1), 3, SimTime::ZERO, out));
        let (_, _, batch) = fx.iter().find_map(sent).expect("redirect response");
        assert!(matches!(
            &batch[0],
            Delta::RewriteRequest { patch } if patch.get("brass_host").and_then(Json::as_u64) == Some(3)
        ));
        assert!(matches!(
            batch[1],
            Delta::Terminate(TerminateReason::Redirect)
        ));
        assert_eq!(h.stream_count(), 0, "the stream left this host");
        // Redirecting an unknown stream is a no-op.
        assert!(collect(|out| h.redirect_stream_into(
            DeviceId(1),
            StreamId(1),
            3,
            SimTime::ZERO,
            out
        ))
        .is_empty());
    }

    #[test]
    fn ack_reaches_server_stream_retention() {
        let mut h = host();
        let msgr_header = Json::obj([
            ("viewer", Json::from(9u64)),
            ("gql", Json::from("subscription { mailbox(uid: 9) }")),
        ]);
        let fx = h.on_subscribe(DeviceId(1), StreamId(1), msgr_header, SimTime::ZERO);
        // Complete the initial backfill with one message.
        let token = fx
            .iter()
            .find_map(|e| match e {
                HostEffect::Was { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        let fx = h.on_was_response(
            "messenger",
            token,
            WasResponse::Mailbox(vec![(0, tao::ObjectId(500))]),
            SimTime::ZERO,
        );
        let token = fx
            .iter()
            .find_map(|e| match e {
                HostEffect::Was { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        let fx = h.on_was_response(
            "messenger",
            token,
            WasResponse::Payload(b"m0".to_vec().into()),
            SimTime::ZERO,
        );
        assert!(fx.iter().any(|e| matches!(e, HostEffect::Send { .. })));
        let stream = StreamKey {
            device: DeviceId(1),
            sid: StreamId(1),
        };
        assert!(h.streams.has_unacked(stream));
        // The ack releases what was retained; the stream stays open.
        h.on_ack(DeviceId(1), StreamId(1), 0);
        assert!(!h.streams.has_unacked(stream));
        assert_eq!(h.stream_count(), 1);
    }

    /// Builds a host with instances of several apps, live streams, pending
    /// WAS fetches and timers — a state worth snapshotting.
    fn busy_host() -> BrassHost {
        let mut h = host();
        for d in 1..=6u64 {
            h.on_subscribe(
                DeviceId(d),
                StreamId(1),
                lvc_header(40 + d % 3, d),
                SimTime::ZERO,
            );
        }
        h.on_pylon_event(&comment(41, 100, 0.95), SimTime::ZERO);
        h.on_pylon_event(&comment(42, 101, 0.90), SimTime::ZERO);
        let typing_header = Json::obj([
            ("viewer", Json::from(9u64)),
            (
                "gql",
                Json::from("subscription { typingIndicator(threadId: 5, counterpartyId: 6) }"),
            ),
        ]);
        h.on_subscribe(DeviceId(7), StreamId(2), typing_header, SimTime::ZERO);
        let msgr_header = Json::obj([
            ("viewer", Json::from(8u64)),
            ("gql", Json::from("subscription { mailbox(uid: 8) }")),
        ]);
        h.on_subscribe(DeviceId(8), StreamId(3), msgr_header, SimTime::ZERO);
        h
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let h = busy_host();
        let mut w = simkit::snap::SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = simkit::snap::SnapReader::new(&bytes);
        let restored = BrassHost::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        let mut w2 = simkit::snap::SnapWriter::new();
        restored.snap(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "snap(restore(snap(h))) differs");
        assert_eq!(restored.stream_count(), h.stream_count());
        assert_eq!(restored.instance_count(), h.instance_count());
        for video in 40..44 {
            let topic = Topic::live_video_comments(video);
            assert_eq!(restored.watches(topic), h.watches(topic));
        }
        let keys = |h: &BrassHost| {
            h.iter_stream_keys()
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(keys(&restored), keys(&h));
    }

    #[test]
    fn restored_host_behaves_identically() {
        let h = busy_host();
        let mut w = simkit::snap::SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = simkit::snap::SnapReader::new(&bytes);
        let mut a = BrassHost::restore(&mut r).expect("restore");
        let mut b = {
            let mut r = simkit::snap::SnapReader::new(&bytes);
            BrassHost::restore(&mut r).expect("restore")
        };
        drop(h);
        // Drive both restored copies with the same inputs; every effect
        // stream must match (Debug form covers frames, topics, tokens).
        let now = SimTime::from_secs(2);
        for (fa, fb) in [
            (
                a.on_pylon_event(&comment(41, 102, 0.99), now),
                b.on_pylon_event(&comment(41, 102, 0.99), now),
            ),
            (a.on_timer("lvc", 0, now), b.on_timer("lvc", 0, now)),
            (
                collect(|out| a.on_cancel_into(DeviceId(2), StreamId(1), now, out)),
                collect(|out| b.on_cancel_into(DeviceId(2), StreamId(1), now, out)),
            ),
            (
                collect(|out| a.on_cancel_into(DeviceId(3), StreamId(1), now, out)),
                collect(|out| b.on_cancel_into(DeviceId(3), StreamId(1), now, out)),
            ),
        ] {
            assert_eq!(format!("{fa:?}"), format!("{fb:?}"));
        }
    }

    #[test]
    fn truncated_host_snapshot_fails_closed() {
        let h = busy_host();
        let mut w = simkit::snap::SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.into_bytes();
        for cut in [1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = simkit::snap::SnapReader::new(&bytes[..cut]);
            assert!(
                BrassHost::restore(&mut r).is_err() || r.finish().is_err(),
                "truncation at {cut} must not produce a clean host"
            );
        }
    }
}
