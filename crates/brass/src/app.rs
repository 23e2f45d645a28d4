//! The BRASS application model.
//!
//! Applications are sans-io state machines implementing [`BrassApp`].
//! Handlers receive a [`Ctx`] through which they emit [`Effect`]s — Pylon
//! subscriptions, WAS requests, delta batches toward devices, timers — that
//! the host (and ultimately the simulation orchestrator) carries out. This
//! mirrors the paper's event-loop JS VMs: "all computation is powered by an
//! event loop, executing logic on each incoming … request and each backend
//! service response" (§3.2).

use std::collections::BTreeSet;

use burst::frame::{Delta, Payload, StreamId, TerminateReason};
use burst::json::Json;
use pylon::{Topic, TopicId};
use simkit::snap::{Snap, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, TraceId};
use simkit::{snap_enum, snap_struct};
use tao::ObjectId;
use was::UpdateEvent;

use crate::resolve::{resolve, ResolvedSub};

/// Identifier of an end-user device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u64);

/// A request-stream endpoint as seen by a BRASS: device plus stream id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamKey {
    /// The device the stream belongs to.
    pub device: DeviceId,
    /// The client-generated stream id.
    pub sid: StreamId,
}

snap_struct!(DeviceId { 0 });
snap_struct!(StreamKey { device, sid });

/// Token correlating a WAS request with its asynchronous response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FetchToken(pub u64);

snap_struct!(FetchToken { 0 });

/// A backend request a BRASS can issue ("BRASS … may invoke any backend
/// service", §3.2). All data access goes through the WAS, where privacy
/// checks live.
#[derive(Clone, Debug, PartialEq)]
pub enum WasRequest {
    /// Fetch one updated object's payload for a viewer (privacy-checked).
    FetchObject {
        /// The viewing user.
        viewer: u64,
        /// The TAO object referenced by an update event.
        object: ObjectId,
        /// The trace of that update: the fetch decides its fate.
        trace: TraceId,
    },
    /// Fetch a user's friend list.
    Friends {
        /// The user whose friends to list.
        uid: u64,
    },
    /// Fetch mailbox entries after a sequence number (Messenger backfill).
    MailboxAfter {
        /// Mailbox owner.
        uid: u64,
        /// Replay entries with sequence numbers strictly greater than this;
        /// `None` replays from the start.
        after_seq: Option<u64>,
    },
}

/// The response to a [`WasRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum WasResponse {
    /// A privacy-checked payload, ready to push (shared, never copied on
    /// fan-out).
    Payload(Payload),
    /// The privacy check denied the viewer.
    Denied,
    /// The object no longer exists.
    NotFound,
    /// A friend list.
    Friends(Vec<u64>),
    /// Mailbox entries `(seq, object, trace)`, oldest first: the trace is
    /// that of the update that added the entry.
    Mailbox(Vec<(u64, ObjectId, TraceId)>),
}

// Requests and responses ride inside queued simulator events.
snap_enum!(WasRequest {
    0 => FetchObject { viewer, object, trace },
    1 => Friends { uid },
    2 => MailboxAfter { uid, after_seq },
});
snap_enum!(WasResponse {
    0 => Payload(payload),
    1 => Denied,
    2 => NotFound,
    3 => Friends(uids),
    4 => Mailbox(entries),
});

/// An effect requested by application code, executed by the host.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// A topic gained its first holder among this application's streams.
    SubscribeTopic(Topic),
    /// A topic lost its last holder among this application's streams.
    UnsubscribeTopic(Topic),
    /// Issue an asynchronous WAS request.
    Was {
        /// Correlation token (returned via `on_was_response`).
        token: FetchToken,
        /// The request.
        request: WasRequest,
    },
    /// Send raw payloads to a stream (the host assigns sequence numbers and
    /// wraps them in a single atomically-applied response batch).
    SendPayloads {
        /// Target stream.
        stream: StreamKey,
        /// Payloads, in order.
        payloads: Vec<Payload>,
        /// Optional header rewrite delivered in the *same* atomic batch —
        /// progress state advances if and only if the payloads arrive.
        rewrite: Option<Json>,
    },
    /// Send protocol deltas (rewrites, flow status, termination) verbatim.
    SendDeltas {
        /// Target stream.
        stream: StreamKey,
        /// Deltas to batch.
        deltas: Vec<Delta>,
    },
    /// Arm a timer; `on_timer` fires with the token at the given instant.
    Timer {
        /// When to fire.
        at: SimTime,
        /// Opaque token returned to the app.
        token: u64,
    },
    /// Retransmit the stream's sent-but-unacknowledged updates (reliable
    /// applications; the host holds the retention buffer).
    ReplayUnacked {
        /// Target stream.
        stream: StreamKey,
    },
    /// Report that this application dropped an update (filter, buffer
    /// eviction, …) so the trace ledger can attribute the loss. Purely
    /// observational: no delivery behaviour changes.
    DropUpdate {
        /// The trace of the dropped update.
        trace: TraceId,
        /// Why the update was dropped.
        reason: DropReason,
        /// How many drops in a row this stands for: one per viewer when a
        /// storm update is dropped from many viewers' buffers in one turn.
        count: u32,
    },
}

/// Per-application counters, including the paper's delivery-decision
/// metrics (Fig. 8: "decisions on updates" vs "update deliveries").
#[derive(Clone, Copy, Debug, Default)]
pub struct AppCounters {
    /// Delivery decisions taken (deliver-or-drop judgements on updates).
    pub decisions: u64,
    /// Decisions that resulted in a delivery.
    pub deliveries: u64,
    /// Update events received from Pylon.
    pub events_in: u64,
    /// WAS requests issued.
    pub was_requests: u64,
}

snap_struct!(AppCounters {
    decisions,
    deliveries,
    events_in,
    was_requests
});

impl AppCounters {
    /// Fraction of decided updates that were filtered out (the paper's
    /// headline "80% of messages are filtered out at BRASS instances").
    pub fn filtered_fraction(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            1.0 - self.deliveries as f64 / self.decisions as f64
        }
    }
}

/// What a handler may ask of the host's per-stream transport state. The
/// host's server streams own it; an app reads it, never keeps a copy.
pub trait StreamView {
    /// Whether `stream` holds sent updates its device has not acknowledged.
    fn has_unacked(&self, stream: StreamKey) -> bool;
}

/// Handler context: the current time plus an effect sink and counters.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    effects: &'a mut Vec<Effect>,
    /// Length of `effects` when this handler turn began: effects before it
    /// belong to earlier turns and are never folded into.
    turn_start: usize,
    counters: &'a mut AppCounters,
    next_token: &'a mut u64,
    streams: &'a dyn StreamView,
}

impl<'a> Ctx<'a> {
    /// Creates a context over an effect sink (used by the host and tests).
    pub fn new(
        now: SimTime,
        effects: &'a mut Vec<Effect>,
        counters: &'a mut AppCounters,
        next_token: &'a mut u64,
        streams: &'a dyn StreamView,
    ) -> Self {
        Ctx {
            now,
            turn_start: effects.len(),
            effects,
            counters,
            next_token,
            streams,
        }
    }

    /// Whether `stream` holds sent updates its device has not acknowledged,
    /// as of this handler turn (effects emitted in it are not yet applied).
    pub fn has_unacked(&self, stream: StreamKey) -> bool {
        self.streams.has_unacked(stream)
    }

    /// Tells the host a topic gained its first holder (the stream table's
    /// job).
    pub(crate) fn subscribe(&mut self, topic: Topic) {
        self.effects.push(Effect::SubscribeTopic(topic));
    }

    /// Tells the host a topic lost its last holder (the stream table's
    /// job).
    pub(crate) fn unsubscribe(&mut self, topic: Topic) {
        self.effects.push(Effect::UnsubscribeTopic(topic));
    }

    /// Issues a WAS request; the response arrives via
    /// [`BrassApp::on_was_response`] with the returned token.
    pub fn was_request(&mut self, request: WasRequest) -> FetchToken {
        let token = FetchToken(*self.next_token);
        *self.next_token += 1;
        self.counters.was_requests += 1;
        self.effects.push(Effect::Was { token, request });
        token
    }

    /// Records one deliver-or-drop judgement on an update.
    ///
    /// Apps must call this once per judgement so the Fig. 8 "decisions"
    /// metric is meaningful; deliveries are counted automatically by
    /// [`send`](Self::send) / [`send_batch`](Self::send_batch).
    pub fn decision(&mut self) {
        self.decisions(1);
    }

    /// Records `n` deliver-or-drop judgements at once.
    pub fn decisions(&mut self, n: u64) {
        self.counters.decisions += n;
    }

    /// Sends one payload to a stream (counts one delivery).
    pub fn send(&mut self, stream: StreamKey, payload: impl Into<Payload>) {
        self.counters.deliveries += 1;
        self.effects.push(Effect::SendPayloads {
            stream,
            payloads: vec![payload.into()],
            rewrite: None,
        });
    }

    /// Sends several payloads as one atomic batch (each counts a delivery).
    pub fn send_batch(&mut self, stream: StreamKey, payloads: Vec<impl Into<Payload>>) {
        if !payloads.is_empty() {
            self.counters.deliveries += payloads.len() as u64;
            self.effects.push(Effect::SendPayloads {
                stream,
                payloads: payloads.into_iter().map(Into::into).collect(),
                rewrite: None,
            });
        }
    }

    /// Sends payloads plus a header rewrite in one atomic batch: the
    /// rewritten state (e.g. delivery progress) takes effect exactly when
    /// the payloads do — a dropped frame loses both together.
    pub fn send_batch_rewriting(
        &mut self,
        stream: StreamKey,
        payloads: Vec<impl Into<Payload>>,
        patch: Json,
    ) {
        self.counters.deliveries += payloads.len() as u64;
        self.effects.push(Effect::SendPayloads {
            stream,
            payloads: payloads.into_iter().map(Into::into).collect(),
            rewrite: Some(patch),
        });
    }

    /// Sends a header rewrite to a stream ([`Delta::rewrite`]).
    pub fn rewrite(&mut self, stream: StreamKey, patch: Json) {
        self.effects.push(Effect::SendDeltas {
            stream,
            deltas: vec![Delta::rewrite(patch)],
        });
    }

    /// Terminates a stream.
    pub fn terminate(&mut self, stream: StreamKey, reason: TerminateReason) {
        self.effects.push(Effect::SendDeltas {
            stream,
            deltas: vec![Delta::Terminate(reason)],
        });
    }

    /// Arms a timer `after` from now; `on_timer` fires with `token`.
    pub fn timer(&mut self, after: SimDuration, token: u64) {
        self.effects.push(Effect::Timer {
            at: self.now + after,
            token,
        });
    }

    /// Requests retransmission of the stream's unacknowledged updates.
    ///
    /// "BRASS can rely on device acks to ensure the device receives each
    /// update" (§4): the device's duplicate suppression makes replays safe.
    pub fn replay_unacked(&mut self, stream: StreamKey) {
        self.effects.push(Effect::ReplayUnacked { stream });
    }

    /// Reports that the app dropped the update of `trace`, for
    /// trace-ledger drop attribution. Observational only; pair with
    /// [`decision`](Self::decision) where the drop is also a judgement.
    ///
    /// A drop of the same trace for the same reason as the effect just
    /// emitted in this turn extends that effect's count instead of adding
    /// one, so a storm dropped from every viewer's buffer costs one effect;
    /// expanding the counts gives back the drops one by one, in order.
    pub fn dropped(&mut self, trace: TraceId, reason: DropReason) {
        if let Some(Effect::DropUpdate {
            trace: t,
            reason: r,
            count,
        }) = self.effects[self.turn_start..].last_mut()
        {
            if (*t, *r) == (trace, reason) && *count < u32::MAX {
                *count += 1;
                return;
            }
        }
        self.effects.push(Effect::DropUpdate {
            trace,
            reason,
            count: 1,
        });
    }
}

/// A Bladerunner application running inside a BRASS instance.
///
/// Each handler corresponds to one event-loop turn. Implementations are
/// single-application by design ("the implementation becomes simpler because
/// each BRASS addresses the requirements of only one application", §3.2).
/// `Send` so a host (and its apps) can live on a dedicated backend thread.
pub trait BrassApp: Send + AppSnap {
    /// A new request-stream was accepted for this application: `sub` is
    /// what the host resolved `header` to.
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        header: &Json,
    );

    /// An update event arrived from Pylon on a subscribed topic.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent);

    /// A WAS response arrived for a previously issued request. An app
    /// that never fetches keeps the default, which does nothing.
    fn on_was_response(&mut self, _ctx: &mut Ctx<'_>, _token: FetchToken, _response: WasResponse) {}

    /// A timer armed with [`Ctx::timer`] fired. An app that arms none
    /// keeps the default, which does nothing.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// A stream went away (cancel, device disconnect, or proxy GC).
    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey);

    /// Whether a stream of this application holds `topic`: the host routes
    /// Pylon events by it and asks it before changing its own Pylon
    /// subscription. Apps answer from their [`StreamTable`](crate::table::StreamTable).
    fn watches(&self, topic: TopicId) -> bool;
}

/// How a host writes an application's whole state into a snapshot (its
/// restore knows only the standard applications, by name).
pub trait AppSnap {
    /// Writes the state: any [`Snap`] type's encoding.
    fn snap_state(&self, w: &mut SnapWriter);
}

impl<T: Snap> AppSnap for T {
    fn snap_state(&self, w: &mut SnapWriter) {
        self.snap(w);
    }
}

/// A test harness that runs a [`BrassApp`] and records its effects.
///
/// Used by the per-app unit tests and usable by downstream consumers for
/// their own application tests.
pub struct TestDriver<A> {
    /// The application under test.
    pub app: A,
    /// All effects emitted so far.
    pub effects: Vec<Effect>,
    /// Counters accumulated so far.
    pub counters: AppCounters,
    /// Streams the harness reports as holding unacknowledged updates: a
    /// stream joins when payloads are sent to it, and nothing acks, so a
    /// test takes it out to model the device's ack.
    pub unacked: BTreeSet<StreamKey>,
    next_token: u64,
    now: SimTime,
}

impl StreamView for BTreeSet<StreamKey> {
    fn has_unacked(&self, stream: StreamKey) -> bool {
        self.contains(&stream)
    }
}

impl<A: BrassApp> TestDriver<A> {
    /// Wraps an application.
    pub fn new(app: A) -> Self {
        TestDriver {
            app,
            effects: Vec::new(),
            counters: AppCounters::default(),
            unacked: BTreeSet::new(),
            next_token: 0,
            now: SimTime::ZERO,
        }
    }

    /// Advances the harness clock.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Current harness time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn with_ctx(&mut self, f: impl FnOnce(&mut A, &mut Ctx<'_>)) -> Vec<Effect> {
        let before = self.effects.len();
        let mut ctx = Ctx::new(
            self.now,
            &mut self.effects,
            &mut self.counters,
            &mut self.next_token,
            &self.unacked,
        );
        f(&mut self.app, &mut ctx);
        let emitted = self.effects[before..].to_vec();
        for effect in &emitted {
            if let Effect::SendPayloads { stream, .. } = effect {
                self.unacked.insert(*stream);
            }
        }
        emitted
    }

    /// Delivers a subscribe and returns the newly emitted effects. As on a
    /// host, a header that does not resolve terminates the stream.
    pub fn subscribe(&mut self, stream: StreamKey, header: &Json) -> Vec<Effect> {
        match resolve(header) {
            Ok(sub) => self.with_ctx(|app, ctx| app.on_subscribe(ctx, stream, &sub, header)),
            Err(_) => self.with_ctx(|_, ctx| ctx.terminate(stream, TerminateReason::Error)),
        }
    }

    /// Delivers an update event.
    pub fn event(&mut self, event: &UpdateEvent) -> Vec<Effect> {
        self.counters.events_in += 1;
        self.with_ctx(|app, ctx| app.on_event(ctx, event))
    }

    /// Delivers a WAS response.
    pub fn was_response(&mut self, token: FetchToken, response: WasResponse) -> Vec<Effect> {
        self.with_ctx(|app, ctx| app.on_was_response(ctx, token, response))
    }

    /// Fires a timer.
    pub fn fire_timer(&mut self, token: u64) -> Vec<Effect> {
        self.with_ctx(|app, ctx| app.on_timer(ctx, token))
    }

    /// Closes a stream.
    pub fn close(&mut self, stream: StreamKey) -> Vec<Effect> {
        self.with_ctx(|app, ctx| app.on_stream_closed(ctx, stream))
    }

    /// Pending timers among emitted effects (at, token), in emission order.
    pub fn timers(&self) -> Vec<(SimTime, u64)> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Timer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_effects_and_counters() {
        let none = BTreeSet::new();
        let mut effects = Vec::new();
        let mut counters = AppCounters::default();
        let mut token = 0;
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            &mut effects,
            &mut counters,
            &mut token,
            &none,
        );
        ctx.subscribe(Topic::active_status(1));
        let t1 = ctx.was_request(WasRequest::Friends { uid: 1 });
        let t2 = ctx.was_request(WasRequest::Friends { uid: 2 });
        assert_ne!(t1, t2, "tokens are unique");
        ctx.decision();
        ctx.decision();
        ctx.decision();
        let stream = StreamKey {
            device: DeviceId(1),
            sid: StreamId(1),
        };
        ctx.send(stream, b"x".to_vec());
        ctx.send_batch(stream, Vec::<Vec<u8>>::new());
        ctx.timer(SimDuration::from_secs(2), 77);
        assert_eq!(effects.len(), 5, "empty batch is elided");
        assert_eq!(counters.decisions, 3);
        assert_eq!(counters.deliveries, 1, "send counts the delivery");
        assert_eq!(counters.was_requests, 2);
        assert!((counters.filtered_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    /// Adjacent drops of one trace for one reason share an effect; any
    /// other effect, trace or reason in between starts a new one, and a
    /// new handler turn never extends an earlier turn's effect.
    #[test]
    fn dropped_folds_adjacent_repeats_within_a_turn() {
        let none = BTreeSet::new();
        let mut effects = Vec::new();
        let mut counters = AppCounters::default();
        let mut token = 0;
        let (a, b) = (TraceId(1), TraceId(2));
        let drop = |trace, reason, count| Effect::DropUpdate {
            trace,
            reason,
            count,
        };
        let mut ctx = Ctx::new(
            SimTime::ZERO,
            &mut effects,
            &mut counters,
            &mut token,
            &none,
        );
        for _ in 0..3 {
            ctx.dropped(a, DropReason::BufferOverflow);
        }
        ctx.dropped(a, DropReason::RateLimit);
        ctx.dropped(b, DropReason::RateLimit);
        ctx.timer(SimDuration::from_secs(1), 7);
        ctx.dropped(b, DropReason::RateLimit);
        ctx.decisions(4);
        let mut next = Ctx::new(
            SimTime::ZERO,
            &mut effects,
            &mut counters,
            &mut token,
            &none,
        );
        next.dropped(b, DropReason::RateLimit);
        assert_eq!(
            effects,
            vec![
                drop(a, DropReason::BufferOverflow, 3),
                drop(a, DropReason::RateLimit, 1),
                drop(b, DropReason::RateLimit, 1),
                Effect::Timer {
                    at: SimTime::from_secs(1),
                    token: 7
                },
                drop(b, DropReason::RateLimit, 1),
                drop(b, DropReason::RateLimit, 1),
            ]
        );
        assert_eq!(counters.decisions, 4);
    }

    #[test]
    fn filtered_fraction_empty() {
        assert_eq!(AppCounters::default().filtered_fraction(), 0.0);
    }
}
