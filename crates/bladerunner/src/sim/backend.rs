//! The backend half of the pipeline: workload injections, the WAS, Pylon
//! and the BRASS hosts (`DeviceSubscribe`, `DeviceCancel`,
//! `WasMutationExec`, `PylonPublish`, `PylonDeliverHost`,
//! `PylonSubscribeExec`, `WasExec`, `WasReply`, `WasBackfillExec`, and
//! every host effect), plus the registries that attribute a frame to its
//! traces and route it down. A frame's stream topic, which picks its
//! application and its fan-out leg, is read from the metrics' Fig. 7
//! registration ([`SystemMetrics::stream_topic`]).

use std::sync::Arc;

use brass::app::{FetchToken, WasRequest, WasResponse};
use brass::host::HostEffect;
use brass::AppId;
use burst::frame::{Frame, StreamId};
use burst::json::Json;
use pylon::{HostId, Topic};
use simkit::fxhash::FxHashMap;
use simkit::snap_struct;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop, HopOutcome, TraceId};
use tao::ObjectId;
use was::service::{Rv, WebApplicationServer};
use was::UpdateEvent;

use super::ev::Ev;
use super::SystemSim;
use crate::metrics::SystemMetrics;

// ----------------------------------------------------------------------
// Attribution and routing registries.
// ----------------------------------------------------------------------

/// The registries handlers consult to attribute frames to traces and to
/// route them back down. Grouped so a handler can walk a frame's traces
/// while it writes the ledger.
#[derive(Default)]
pub(super) struct Registries {
    /// object → trace of the most recent update event referencing it, used
    /// to attribute payload fetches, frames, and renders back to traces.
    /// (Updates sharing an object — e.g. one message fanned to N mailboxes —
    /// resolve to the most recent trace.)
    pub(super) object_trace: FxHashMap<ObjectId, TraceId>,
    /// (topic, object) → trace. One mutation can fan one object to many
    /// topics as *distinct* update events (a message separately added to
    /// each member mailbox, §4); deliveries resolved through the stream's
    /// subscription topic land on the exact per-mailbox trace instead of
    /// collapsing onto the object's most recent one.
    pub(super) topic_object_trace: FxHashMap<(Topic, ObjectId), TraceId>,
    /// device → proxy carrying its streams (learned from POP routing).
    pub(super) device_proxy: FxHashMap<u64, usize>,
}

snap_struct!(Registries {
    object_trace,
    topic_object_trace,
    device_proxy
});

impl SystemSim {
    pub(super) fn on_device_subscribe(&mut self, now: SimTime, device: u64, header: Json) {
        let Some(state) = self.devices.get_mut(device) else {
            return;
        };
        if !state.connected {
            return;
        }
        // Device stream cap ("each mobile app up to 20 concurrent
        // streams"): the oldest stream makes room for the new one.
        let mut evict: Vec<StreamId> = Vec::new();
        state.for_each_open_sid(|sid| evict.push(sid));
        evict.truncate((evict.len() + 1).saturating_sub(self.config.max_streams_per_device));
        for sid in evict {
            self.on_device_cancel(now, device, sid);
        }
        let Some(state) = self.devices.get_mut(device) else {
            return;
        };
        // Fig. 7 registration: which topic does this stream's subscription
        // target? Resolved before the header moves into the stream.
        let sub_topic = brass::resolve::resolve(&header).ok().map(|sub| sub.topic);
        let (sid, frame) = state
            .wake(device, &mut self.park)
            .open_stream(header, Vec::new());
        let link = state.link;
        state.maybe_park(self.config.hibernation, &mut self.park);
        self.metrics.subscriptions.inc();
        self.metrics.ts_subscriptions.inc(now);
        self.metrics.stream_opened(device, sid, now, sub_topic);
        self.sub_started.insert((device, sid), now);
        self.send_up(now, link, device, frame);
    }

    pub(super) fn on_device_cancel(&mut self, now: SimTime, device: u64, sid: StreamId) {
        let Some(state) = self.devices.get_mut(device) else {
            return;
        };
        let frame = state.wake(device, &mut self.park).cancel_stream(sid);
        let link = state.link;
        state.maybe_park(self.config.hibernation, &mut self.park);
        let Some(frame) = frame else {
            return;
        };
        self.metrics.cancellations.inc();
        self.metrics.stream_closed(device, sid, now);
        self.metrics.unregister_stream(device, sid);
        self.send_up(now, link, device, frame);
    }

    pub(super) fn on_was_mutation(&mut self, now: SimTime, gql: &str, app: AppId) {
        let Ok(outcome) = self.was.execute_mutation(gql, now.as_millis()) else {
            return;
        };
        self.metrics.mutations.inc();
        for rep in outcome.replication {
            let d = self.latency.cross_region(&mut self.engine_rng);
            self.queue
                .schedule(now + d, Ev::TaoReplicate { event: rep.into() });
        }
        let was_delay = self
            .latency
            .was_mutation(outcome.was_latency_ms, &mut self.engine_rng);
        self.metrics
            .bucket(Some(app))
            .was_handling
            .record(was_delay.as_millis_f64());
        for event in outcome.events {
            // The write committed: open the update's trace.
            let trace = TraceId(event.id);
            self.reg.object_trace.insert(event.object, trace);
            self.reg
                .topic_object_trace
                .insert((event.topic, event.object), trace);
            self.ledger
                .record(trace, Hop::TaoCommit, now, HopOutcome::Ok);
            self.queue.schedule(
                now + was_delay,
                Ev::PylonPublish {
                    event: event.into(),
                },
            );
        }
    }

    pub(super) fn on_pylon_publish(&mut self, now: SimTime, event: UpdateEvent) {
        self.metrics.publications.inc();
        self.metrics.ts_publications.inc(now);
        self.metrics.publication(event.topic);
        let outcome = self.pylon.publish(&event.topic, event.id);
        let subscribers = outcome.fast_forwards.len() + outcome.late_forwards.len();
        let publish_outcome = if subscribers == 0 {
            HopOutcome::Dropped(DropReason::NoSubscribers)
        } else {
            HopOutcome::Ok
        };
        self.ledger
            .record(TraceId(event.id), Hop::PylonPublish, now, publish_outcome);
        let fanout = self.latency.pylon_fanout(subscribers, &mut self.engine_rng);
        if subscribers < 10_000 {
            self.metrics
                .pylon_fanout_small
                .record(fanout.as_millis_f64());
        } else {
            self.metrics
                .pylon_fanout_large
                .record(fanout.as_millis_f64());
        }
        // Fan-out pressure: one publish puts `subscribers` deliveries in
        // flight at once — the Pylon-stage queue depth under a hot topic.
        self.metrics.q_pylon_fanout.enqueued_n(subscribers as u64);
        self.metrics
            .q_pylon_fanout
            .observe_depth(now, subscribers as u64);
        // One allocation, N pointers: the fan-out shares the event.
        let event = Arc::new(event);
        for host in outcome.fast_forwards {
            self.queue.schedule(
                now + fanout,
                Ev::PylonDeliverHost {
                    host: host.0 as usize,
                    event: Arc::clone(&event),
                },
            );
        }
        for host in outcome.late_forwards {
            let extra = self.latency.pylon_late_extra(&mut self.engine_rng);
            self.queue.schedule(
                now + fanout + extra,
                Ev::PylonDeliverHost {
                    host: host.0 as usize,
                    event: Arc::clone(&event),
                },
            );
        }
    }

    pub(super) fn on_pylon_deliver(&mut self, now: SimTime, host: usize, event: Arc<UpdateEvent>) {
        if host >= self.hosts.len() {
            return;
        }
        self.metrics.q_pylon_fanout.dequeued_n(1);
        if !self.host_up[host] {
            // Pylon has not yet purged a crashed host's subscriptions
            // (that happens when a proxy's heartbeats detect the death);
            // events fanned to it meanwhile die here.
            self.ledger.record(
                TraceId(event.id),
                Hop::PylonDeliver,
                now,
                HopOutcome::Dropped(DropReason::HostDown),
            );
            return;
        }
        // The host's ingress mailbox: events beyond the service rate
        // queue; events beyond the mailbox cap are shed — attributed, so
        // the ledger never shows unaccounted loss under overload.
        let Some(qdelay) = self.host_admit(now, host, true) else {
            self.ledger.record(
                TraceId(event.id),
                Hop::PylonDeliver,
                now,
                HopOutcome::Dropped(DropReason::MailboxOverflow),
            );
            return;
        };
        self.object_delivered.insert((host, event.object), now);
        self.ledger
            .record(TraceId(event.id), Hop::PylonDeliver, now, HopOutcome::Ok);
        // Effects materialise once the host works through its backlog;
        // attribution stays at `now`, so the brass_processing histogram
        // captures the queueing delay — that's the latency curve bending
        // upward as offered load approaches capacity.
        self.drive_host(now + qdelay, host, Some(now), |h, fx| {
            h.on_pylon_event_into(&event, now, fx)
        });
    }

    pub(super) fn on_pylon_subscribe_exec(
        &mut self,
        now: SimTime,
        host: usize,
        topic: Topic,
        attempt: u32,
    ) {
        match self.pylon.subscribe(&topic, HostId(host as u32)) {
            Ok(()) => {}
            Err(_) => {
                self.metrics.quorum_failures.inc();
                // CP subscribe failed; BRASS retries with capped
                // exponential backoff until quorum returns.
                self.queue.schedule(
                    now + SystemSim::quorum_retry_backoff(attempt),
                    Ev::PylonSubscribeExec {
                        host,
                        topic,
                        attempt: attempt.saturating_add(1),
                    },
                );
            }
        }
    }

    pub(super) fn on_was_exec(
        &mut self,
        now: SimTime,
        host: usize,
        app: AppId,
        token: FetchToken,
        request: WasRequest,
        attributed: Option<SimTime>,
    ) {
        let fetched = match request {
            WasRequest::FetchObject { object, .. } => Some(object),
            _ => None,
        };
        let response = serve_was(&mut self.was, request);
        // The payload fetch is the final BRASS-processing gate: the WAS
        // privacy check decides whether the update survives.
        if let Some(&trace) = fetched.and_then(|object| self.reg.object_trace.get(&object)) {
            let outcome = match &response {
                WasResponse::Payload(_) => HopOutcome::Ok,
                WasResponse::Denied => HopOutcome::Dropped(DropReason::PrivacyBlock),
                _ => HopOutcome::Dropped(DropReason::NotFound),
            };
            self.ledger.record(trace, Hop::BrassProcess, now, outcome);
        }
        let back = self.latency.brass_was_rtt(&mut self.engine_rng) / 2;
        self.queue.schedule(
            now + back,
            Ev::WasReply {
                host,
                app,
                token,
                response,
                attributed,
            },
        );
    }

    /// The M/D/1-style BRASS ingress model: each admitted piece of work
    /// costs `brass_service_us` of host time, so work arriving faster
    /// than the service rate queues behind the host's `busy_until` clock.
    ///
    /// Returns the queueing delay the arrival waits behind (`None` means
    /// the mailbox cap was hit and the arrival must be shed). With
    /// `charge == false` the arrival only *observes* the backlog (control
    /// frames and heartbeat pongs are delayed by the queue but don't
    /// consume a service slot). A no-op returning zero delay when the
    /// overload model is off (`brass_service_us == 0`).
    pub(super) fn host_admit(
        &mut self,
        now: SimTime,
        host: usize,
        charge: bool,
    ) -> Option<SimDuration> {
        let service = self.config.brass_service_us;
        if service == 0 {
            return Some(SimDuration::ZERO);
        }
        let busy = self.host_busy_until[host];
        let backlog = busy.saturating_since(now);
        if !charge {
            return Some(backlog);
        }
        let depth = backlog.as_micros() / service;
        let cap = self.config.brass_mailbox_capacity;
        if cap > 0 && depth >= cap {
            self.metrics.q_brass_mailbox.observe_depth(now, depth);
            self.metrics.q_brass_mailbox.dropped_n(1);
            self.metrics.mailbox_sheds.inc();
            return None;
        }
        let start = if busy > now { busy } else { now };
        self.host_busy_until[host] = start + SimDuration::from_micros(service);
        self.metrics.q_brass_mailbox.enqueued_n(1);
        self.metrics.q_brass_mailbox.dequeued_n(1);
        self.metrics.q_brass_mailbox.observe_depth(now, depth + 1);
        Some(backlog)
    }

    /// Converts BRASS host effects into scheduled events, leaving
    /// `effects` empty.
    ///
    /// `attributed` carries the instant the update event arrived at the
    /// host, for the Fig. 9 "BRASS host processing" histogram.
    pub(super) fn process_host_effects(
        &mut self,
        now: SimTime,
        host: usize,
        effects: &mut Vec<HostEffect>,
        attributed: Option<SimTime>,
    ) {
        // A storm drops one object from hundreds of buffers in a row.
        let mut last_drop: Option<(ObjectId, Option<TraceId>)> = None;
        for effect in effects.drain(..) {
            match effect {
                HostEffect::PylonSubscribe(topic) => {
                    let d = self.latency.sub_replication(&mut self.engine_rng);
                    self.metrics.sub_replication.record(d.as_millis_f64());
                    self.queue.schedule(
                        now + d,
                        Ev::PylonSubscribeExec {
                            host,
                            topic,
                            attempt: 0,
                        },
                    );
                }
                HostEffect::PylonUnsubscribe(topic) => {
                    let d = self.latency.sub_replication(&mut self.engine_rng);
                    self.queue
                        .schedule(now + d, Ev::PylonUnsubscribeExec { host, topic });
                }
                HostEffect::Was {
                    app,
                    token,
                    request,
                } => {
                    // Payload fetches inherit attribution from the event
                    // that referenced the object (covers buffered apps).
                    let attr = match &request {
                        WasRequest::FetchObject { object, .. } => self
                            .object_delivered
                            .get(&(host, *object))
                            .copied()
                            .or(attributed),
                        _ => attributed,
                    };
                    let d = self.latency.brass_was_rtt(&mut self.engine_rng) / 2;
                    self.queue.schedule(
                        now + d,
                        Ev::WasExec {
                            host,
                            app,
                            token,
                            request,
                            attributed: attr,
                        },
                    );
                }
                HostEffect::DropUpdate {
                    object,
                    reason,
                    count,
                } => {
                    let trace = match last_drop {
                        Some((last, trace)) if last == object => trace,
                        _ => self.reg.object_trace.get(&object).copied(),
                    };
                    last_drop = Some((object, trace));
                    if let Some(trace) = trace {
                        self.ledger.record_n(
                            trace,
                            Hop::BrassProcess,
                            now,
                            HopOutcome::Dropped(reason),
                            count,
                        );
                    }
                }
                HostEffect::Send { device, frame } => {
                    let proc = self.latency.brass_processing(&mut self.engine_rng);
                    let send_at = now + proc;
                    for trace in frame_traces(&self.reg, &self.metrics, device.0, &frame) {
                        self.ledger
                            .record(trace, Hop::BrassSend, send_at, HopOutcome::Ok);
                    }
                    if let Some(event_at) = attributed {
                        // Only data batches count as event processing.
                        if frame.update_payloads().next().is_some() {
                            let app = app_of_stream(&self.metrics, device.0, frame.sid());
                            self.metrics
                                .bucket(app)
                                .brass_processing
                                .record(send_at.saturating_since(event_at).as_millis_f64());
                        }
                    }
                    // The downstream route is resolved *at send time* from
                    // the routing registry; frames for devices with no known
                    // route die here (they had nowhere to go), exactly as
                    // they used to die unrouted at the proxy layer.
                    if let Some(&proxy) = self.reg.device_proxy.get(&device.0) {
                        let d = self.latency.proxy_brass(&mut self.engine_rng);
                        self.queue.schedule(
                            send_at + d,
                            Ev::DownAtProxy {
                                proxy,
                                host,
                                device: device.0,
                                frame,
                                sent_at: send_at,
                            },
                        );
                    }
                }
                HostEffect::Timer { at, app, token } => {
                    self.queue.schedule(at, Ev::BrassTimer { host, app, token });
                }
            }
        }
    }

    /// Drops, with attribution, every update `frame` carries toward
    /// `device`, and — when the losing stream is known — remembers each
    /// trace so a later WAS backfill poll (gap detection or reconnect) can
    /// recover it.
    pub(super) fn drop_frame(
        &mut self,
        now: SimTime,
        device: u64,
        frame: &Frame,
        hop: Hop,
        why: DropReason,
    ) {
        let sid = frame.sid();
        for trace in frame_traces(&self.reg, &self.metrics, device, frame) {
            self.ledger
                .record(trace, hop, now, HopOutcome::Dropped(why));
            if let Some(sid) = sid {
                self.pending_backfill
                    .entry((device, sid))
                    .or_default()
                    .push(trace);
            }
        }
    }

    /// Executes a device's backfill poll at the WAS: every trace lost on
    /// the way to this stream that never made it by other means is
    /// recovered out-of-band.
    pub(super) fn on_was_backfill(&mut self, now: SimTime, device: u64, sid: StreamId) {
        let Some(lost) = self.pending_backfill.remove(&(device, sid)) else {
            return;
        };
        for trace in lost {
            if self.trace_resolved(trace) {
                continue;
            }
            self.metrics.backfills.inc();
            self.ledger
                .record(trace, Hop::WasBackfill, now, HopOutcome::Ok);
        }
    }

    /// Backoff before quorum-subscribe retry `attempt + 1`. The exponent
    /// is clamped *before* shifting: attempts grow without bound under a
    /// long partition, and `1u64 << 64` would overflow.
    pub(super) fn quorum_retry_backoff(attempt: u32) -> SimDuration {
        const CAP_SECS: u64 = 30;
        SimDuration::from_secs((1u64 << attempt.min(5)).min(CAP_SECS))
    }
}

/// Answers a BRASS host's request at the WAS.
pub(crate) fn serve_was(was: &mut WebApplicationServer, request: WasRequest) -> WasResponse {
    match request {
        WasRequest::FetchObject { viewer, object } => {
            match was.fetch_for_viewer(0, viewer, object) {
                Ok((payload, _)) => WasResponse::Payload(payload.into()),
                Err(was::WasError::PrivacyDenied) => WasResponse::Denied,
                Err(_) => WasResponse::NotFound,
            }
        }
        WasRequest::Friends { uid } => WasResponse::Friends(was.friends_of(uid)),
        WasRequest::MailboxAfter { uid, after_seq } => {
            let q = match after_seq {
                Some(a) => format!("{{ mailbox(uid: {uid}, afterSeq: {a}) }}"),
                None => format!("{{ mailbox(uid: {uid}) }}"),
            };
            let entries = was
                .execute_query(0, &q)
                .ok()
                .and_then(|o| {
                    o.response.get("mailbox").map(|m| {
                        m.items()
                            .iter()
                            .filter_map(|e| {
                                let seq = e.get("seq").and_then(Rv::as_int)? as u64;
                                let obj = e.get("messageId").and_then(Rv::as_int)? as u64;
                                Some((seq, ObjectId(obj)))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .unwrap_or_default();
            WasResponse::Mailbox(entries)
        }
    }
}

/// The application a stream's frames belong to: the one whose family its
/// registered topic is in, if any.
pub(super) fn app_of_stream(
    metrics: &SystemMetrics,
    device: u64,
    sid: Option<StreamId>,
) -> Option<AppId> {
    AppId::of_topic(&metrics.stream_topic(device, sid?)?)
}

/// The trace ids of every update payload a frame carries, in batch
/// order. The owning stream's subscription topic disambiguates
/// fan-out: one mutation can reference the same object from many
/// topics under distinct traces (per-mailbox message adds).
pub(super) fn frame_traces<'a>(
    reg: &'a Registries,
    metrics: &SystemMetrics,
    device: u64,
    frame: &'a Frame,
) -> impl Iterator<Item = TraceId> + 'a {
    let topic = frame
        .sid()
        .and_then(|sid| metrics.stream_topic(device, sid));
    frame
        .update_payloads()
        .filter_map(move |p| payload_trace(reg, topic, p))
}

/// Resolves an update payload to its trace id via the embedded TAO
/// object id. Payloads without an `"id"` field (or for objects written
/// before tracing started) are simply untraced. When the delivering
/// stream's topic is known, the (topic, object) fan-out leg wins over
/// the object's most recent trace.
///
/// Runs on every update of every frame at every transport hop, so the
/// id is pulled out with the single-pass [`burst::json::top_level_u64`]
/// scanner instead of a full allocating parse.
pub(super) fn payload_trace(
    reg: &Registries,
    topic: Option<Topic>,
    payload: &[u8],
) -> Option<TraceId> {
    let id = burst::json::top_level_u64(payload, "id")?;
    let object = ObjectId(id);
    if let Some(topic) = topic {
        if let Some(trace) = reg.topic_object_trace.get(&(topic, object)) {
            return Some(*trace);
        }
    }
    reg.object_trace.get(&object).copied()
}
