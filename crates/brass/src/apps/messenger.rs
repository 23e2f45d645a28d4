//! Messenger: reliable, in-order message delivery layered on best-effort
//! Bladerunner (§4).
//!
//! "Each time a message is added to a mailbox, it is assigned the next
//! consecutive sequence number for the mailbox. This allows dropped
//! messages to be detected both at the BRASS and at the device, although
//! BRASS will recover the dropped message so the device does not have to.
//! If the connection to the device fails, the device will resubscribe with
//! the latest sequence number it obtained, at which point the BRASS polls
//! the mailbox to obtain all subsequent messages."
//!
//! Gap handling: out-of-order events wait in a reorder buffer; a detected
//! gap triggers a mailbox backfill via the WAS. Progress is persisted into
//! the BURST header (`msgr_seq`) through rewrites, so resumption after
//! failover needs no device logic.
//!
//! Retransmission: "BRASS can rely on device acks to ensure the device
//! receives each update". A stream's retransmit tick runs only while the
//! host holds sends its device has not acked, and only at
//! `phase + k·RETRANSMIT_INTERVAL` (the subscribe instant plus whole
//! intervals): a send arms the next such instant when no tick is armed, a
//! tick that finds unacked sends replays them and arms the next, and one
//! that finds none ends the chain. Replays thus land exactly where a tick
//! running every interval from subscribe would have made them.

use std::collections::BTreeMap;

use burst::json::Json;
use pylon::Topic;
use simkit::collections::SeqMap;
use simkit::fxhash::FxHashMap;
use simkit::snap::{ensure, Snap, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::{snap_enum, snap_struct};
use tao::ObjectId;
use was::{EventKind, UpdateEvent};

use burst::frame::Payload;

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::resolve::resolve;

#[derive(Clone, Debug)]
enum Slot {
    /// Event seen; payload fetch in flight.
    Fetching,
    /// Payload ready to deliver once all earlier sequences are.
    Ready(Payload),
}

struct StreamState {
    viewer: u64,
    mailbox: u64,
    topic: Topic,
    /// Next mailbox sequence number the device expects.
    next_seq: u64,
    /// Reorder buffer keyed by mailbox seq.
    pending: BTreeMap<u64, Slot>,
    /// Whether a backfill poll is currently outstanding.
    backfilling: bool,
    /// Sequence persisted in the header via the last rewrite.
    persisted_seq: Option<u64>,
    /// The subscribe instant: retransmit ticks fire only at
    /// `phase + k·RETRANSMIT_INTERVAL`.
    phase: SimTime,
    /// The token of this stream's armed retransmit tick. A fire with any
    /// other token is stale (armed for a replaced incarnation of the key)
    /// and does nothing, so a stream has at most one chain.
    armed: Option<u64>,
}

/// How often sent-but-unacked updates are retransmitted.
pub const RETRANSMIT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// The Messenger content-delivery BRASS application.
#[derive(Default)]
pub struct MessengerApp {
    streams: FxHashMap<StreamKey, StreamState>,
    by_mailbox: FxHashMap<u64, Vec<StreamKey>>,
    /// In-flight message fetches `(stream, seq)`, by [`FetchToken`] value.
    pending_fetch: SeqMap<(StreamKey, u64)>,
    /// In-flight mailbox backfills, by [`FetchToken`] value.
    pending_backfill: SeqMap<StreamKey>,
    /// The armed retransmit timer of each stream, by timer token.
    timers: SeqMap<StreamKey>,
    next_timer: u64,
}

impl MessengerApp {
    /// Creates the application.
    pub fn new() -> Self {
        MessengerApp::default()
    }

    /// Streams currently served.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// The next expected sequence for a stream (test observability).
    pub fn next_seq(&self, stream: StreamKey) -> Option<u64> {
        self.streams.get(&stream).map(|s| s.next_seq)
    }

    fn mailbox_of_topic(topic: &Topic) -> Option<u64> {
        let mut segs = topic.segments();
        if segs.next() != Some("Msgr") {
            return None;
        }
        segs.next()?.parse().ok()
    }

    /// Delivers every contiguous ready message starting at `next_seq`, then
    /// persists progress into the header. Returns whether it sent anything.
    fn drain_ready(state: &mut StreamState, stream: StreamKey, ctx: &mut Ctx<'_>) -> bool {
        let mut batch: Vec<Payload> = Vec::new();
        while let Some(Slot::Ready(_)) = state.pending.get(&state.next_seq) {
            let Slot::Ready(payload) = state
                .pending
                .remove(&state.next_seq)
                .expect("checked above")
            else {
                unreachable!("matched Ready above");
            };
            batch.push(payload);
            state.next_seq += 1;
        }
        if !batch.is_empty() {
            // Resumption: persist the delivered sequence so a resubscribe
            // (to this or another BRASS) resumes rather than replays. The
            // rewrite travels in the SAME atomic batch as the payloads, so
            // a frame lost on the last mile loses the progress marker with
            // it — the next backfill re-covers exactly what was lost.
            let last = state.next_seq - 1;
            state.persisted_seq = Some(last);
            ctx.send_batch_rewriting(stream, batch, Json::obj([("msgr_seq", Json::from(last))]));
            return true;
        }
        false
    }

    fn on_timer_impl(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(stream) = self.timers.remove(token) else {
            return;
        };
        let Some(state) = self.streams.get_mut(&stream) else {
            return; // Stream closed; the timer chain dies.
        };
        if state.armed != Some(token) {
            return; // A replaced incarnation's tick.
        }
        state.armed = None;
        if ctx.has_unacked(stream) {
            ctx.replay_unacked(stream);
            self.arm_retransmit(stream, ctx);
        }
    }

    /// Arms `stream`'s retransmit tick at its first grid instant after now,
    /// unless one is armed already.
    fn arm_retransmit(&mut self, stream: StreamKey, ctx: &mut Ctx<'_>) {
        let Some(state) = self.streams.get_mut(&stream) else {
            return;
        };
        if state.armed.is_some() {
            return;
        }
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, stream);
        state.armed = Some(token);
        let interval = RETRANSMIT_INTERVAL.as_micros();
        let into_period = ctx.now.saturating_since(state.phase).as_micros() % interval;
        ctx.timer(SimDuration::from_micros(interval - into_period), token);
    }

    fn start_backfill(&mut self, state_key: StreamKey, ctx: &mut Ctx<'_>) {
        let Some(state) = self.streams.get_mut(&state_key) else {
            return;
        };
        if state.backfilling {
            return;
        }
        state.backfilling = true;
        let after = state.next_seq.checked_sub(1);
        let token = ctx.was_request(WasRequest::MailboxAfter {
            uid: state.mailbox,
            after_seq: after,
        });
        self.pending_backfill.insert(token.0, state_key);
    }
}

snap_enum!(Slot { 0 => Fetching, 1 => Ready(payload) });
snap_struct!(
    StreamState {
        viewer,
        mailbox,
        topic,
        next_seq,
        pending,
        backfilling,
        persisted_seq,
        phase,
        armed
    },
    |s| {
        ensure(
            s.pending.keys().next().is_none_or(|&seq| seq >= s.next_seq),
            "messenger: buffered seq behind next_seq",
        )
    }
);
// The per-mailbox watcher lists are verbatim because fan-out order follows
// them. Rejects snapshots whose reorder buffer or cross-map references are
// inconsistent.
snap_struct!(
    MessengerApp {
        streams,
        by_mailbox,
        pending_fetch,
        pending_backfill,
        timers,
        next_timer
    },
    |app| {
        let watches = |m: u64, k: &StreamKey| app.streams.get(k).is_some_and(|s| s.mailbox == m);
        let watched = |(&m, ws): (&u64, &Vec<StreamKey>)| ws.iter().all(|k| watches(m, k));
        ensure(
            app.by_mailbox.iter().all(watched),
            "messenger: dangling watcher",
        )?;
        ensure(
            app.timers.keys().all(|t| t < app.next_timer),
            "messenger: next_timer behind live timers",
        )?;
        let armed_here = |(k, s): (&StreamKey, &StreamState)| {
            s.armed
                .is_none_or(|t| t < app.next_timer && app.timers.get(t) == Some(k))
        };
        ensure(
            app.streams.iter().all(armed_here),
            "messenger: armed tick not in the timer table",
        )
    }
);

impl BrassApp for MessengerApp {
    fn name(&self) -> &'static str {
        "messenger"
    }

    fn snap(&self, w: &mut SnapWriter) {
        Snap::snap(self, w);
    }

    fn on_subscribe(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey, header: &Json) {
        let Ok(sub) = resolve(header) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        let Some(mailbox) = Self::mailbox_of_topic(&sub.topic) else {
            ctx.terminate(stream, burst::frame::TerminateReason::Error);
            return;
        };
        // Resumption: the header may carry the last sequence the device
        // received (installed by a previous BRASS via rewrite).
        let next_seq = header
            .get("msgr_seq")
            .and_then(Json::as_u64)
            .map(|s| s + 1)
            .unwrap_or(0);
        ctx.subscribe(sub.topic);
        let state = StreamState {
            viewer: sub.viewer,
            mailbox,
            topic: sub.topic,
            next_seq,
            pending: BTreeMap::new(),
            backfilling: false,
            persisted_seq: header.get("msgr_seq").and_then(Json::as_u64),
            phase: ctx.now,
            armed: None,
        };
        self.streams.insert(stream, state);
        let watchers = self.by_mailbox.entry(mailbox).or_default();
        if !watchers.contains(&stream) {
            watchers.push(stream);
        }
        // Catch up on anything missed while disconnected. No retransmit
        // tick yet: the first send arms one.
        self.start_backfill(stream, ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::MessageAdded {
            return;
        }
        let Some(mailbox) = Self::mailbox_of_topic(&event.topic) else {
            return;
        };
        let Some(seq) = event.meta.seq else {
            return;
        };
        let Some(watchers) = self.by_mailbox.get(&mailbox) else {
            return;
        };
        let mut fetches: Vec<(StreamKey, u64, u64, ObjectId)> = Vec::new();
        let mut gaps: Vec<StreamKey> = Vec::new();
        for &key in watchers {
            let Some(state) = self.streams.get_mut(&key) else {
                continue;
            };
            ctx.decision();
            if seq < state.next_seq || state.pending.contains_key(&seq) {
                continue; // Duplicate.
            }
            state.pending.insert(seq, Slot::Fetching);
            fetches.push((key, seq, state.viewer, event.object));
            if seq > state.next_seq {
                // A gap: events for the missing range may have been dropped
                // by best-effort Pylon. Poll the mailbox to recover them —
                // the BRASS recovers so the device does not have to.
                gaps.push(key);
            }
        }
        for (key, seq, viewer, object) in fetches {
            let token = ctx.was_request(WasRequest::FetchObject { viewer, object });
            self.pending_fetch.insert(token.0, (key, seq));
        }
        for key in gaps {
            self.start_backfill(key, ctx);
        }
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        if let Some((stream, seq)) = self.pending_fetch.remove(token.0) {
            let Some(state) = self.streams.get_mut(&stream) else {
                return;
            };
            match response {
                WasResponse::Payload(payload) => {
                    if let Some(slot) = state.pending.get_mut(&seq) {
                        *slot = Slot::Ready(payload);
                    }
                }
                _ => {
                    // Denied/missing content: skip this seq so the stream
                    // does not stall forever.
                    state.pending.remove(&seq);
                    if state.next_seq != seq {
                        return;
                    }
                    state.next_seq += 1;
                }
            }
            if Self::drain_ready(state, stream, ctx) {
                // Retransmission: unacked updates are replayed until acked
                // (the device's duplicate suppression makes this
                // idempotent).
                self.arm_retransmit(stream, ctx);
            }
            return;
        }
        if let Some(stream) = self.pending_backfill.remove(token.0) {
            let Some(state) = self.streams.get_mut(&stream) else {
                return;
            };
            state.backfilling = false;
            if let WasResponse::Mailbox(entries) = response {
                let mut fetches = Vec::new();
                for (seq, object) in entries {
                    if seq >= state.next_seq && !state.pending.contains_key(&seq) {
                        state.pending.insert(seq, Slot::Fetching);
                        fetches.push((seq, state.viewer, object));
                    }
                }
                for (seq, viewer, object) in fetches {
                    let token = ctx.was_request(WasRequest::FetchObject { viewer, object });
                    self.pending_fetch.insert(token.0, (stream, seq));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.on_timer_impl(ctx, token);
    }

    fn on_stream_closed(&mut self, ctx: &mut Ctx<'_>, stream: StreamKey) {
        let Some(state) = self.streams.remove(&stream) else {
            return;
        };
        if let Some(w) = self.by_mailbox.get_mut(&state.mailbox) {
            w.retain(|k| *k != stream);
            if w.is_empty() {
                self.by_mailbox.remove(&state.mailbox);
            }
        }
        // One unsubscribe per subscribe; the host refcounts topic interest.
        ctx.unsubscribe(state.topic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{DeviceId, Effect, TestDriver};
    use burst::frame::StreamId;
    use simkit::time::SimDuration;
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(mailbox: u64, viewer: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(viewer)),
            (
                "gql",
                Json::from(format!("subscription {{ mailbox(uid: {mailbox}) }}")),
            ),
        ])
    }

    fn msg_event(mailbox: u64, seq: u64, object: u64) -> UpdateEvent {
        UpdateEvent {
            id: object,
            topic: Topic::messenger_mailbox(mailbox),
            object: ObjectId(object),
            kind: EventKind::MessageAdded,
            meta: EventMeta {
                uid: 1,
                seq: Some(seq),
                ..Default::default()
            },
        }
    }

    /// Subscribes and resolves the initial (empty) backfill.
    fn subscribe_empty(d: &mut TestDriver<MessengerApp>, s: StreamKey, mailbox: u64) {
        let fx = d.subscribe(s, &header(mailbox, 9));
        let tok = fx
            .iter()
            .find_map(|e| match e {
                Effect::Was {
                    token,
                    request: WasRequest::MailboxAfter { .. },
                } => Some(*token),
                _ => None,
            })
            .expect("subscribe triggers catch-up backfill");
        d.was_response(tok, WasResponse::Mailbox(vec![]));
    }

    fn fetch_tokens(fx: &[Effect]) -> Vec<FetchToken> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Was {
                    token,
                    request: WasRequest::FetchObject { .. },
                } => Some(*token),
                _ => None,
            })
            .collect()
    }

    fn sent(fx: &[Effect]) -> Vec<String> {
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
    fn in_order_messages_flow_through() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        for seq in 0..3u64 {
            let fx = d.event(&msg_event(7, seq, 100 + seq));
            let toks = fetch_tokens(&fx);
            let fx = d.was_response(
                toks[0],
                WasResponse::Payload(format!("m{seq}").into_bytes().into()),
            );
            assert_eq!(sent(&fx), vec![format!("m{seq}")]);
        }
        assert_eq!(d.app.next_seq(stream(1)), Some(3));
        assert_eq!(d.counters.deliveries, 3);
    }

    #[test]
    fn out_of_order_fetches_deliver_in_order() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        let fx0 = d.event(&msg_event(7, 0, 100));
        let t0 = fetch_tokens(&fx0)[0];
        let fx1 = d.event(&msg_event(7, 1, 101));
        let t1 = fetch_tokens(&fx1)[0];
        // Fetch for seq 1 completes first: nothing is sent yet.
        let fx = d.was_response(t1, WasResponse::Payload(b"m1".to_vec().into()));
        assert!(sent(&fx).is_empty(), "seq 1 must wait for seq 0");
        // Seq 0 completes: both flush, in order, in one batch.
        let fx = d.was_response(t0, WasResponse::Payload(b"m0".to_vec().into()));
        assert_eq!(sent(&fx), vec!["m0", "m1"]);
    }

    #[test]
    fn gap_triggers_mailbox_backfill() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        // Seq 0 never arrives (dropped by best-effort Pylon); seq 2 shows up.
        let fx = d.event(&msg_event(7, 2, 102));
        let backfill = fx.iter().find_map(|e| match e {
            Effect::Was {
                token,
                request: WasRequest::MailboxAfter { uid, after_seq },
            } => {
                assert_eq!(*uid, 7);
                assert_eq!(*after_seq, None, "nothing delivered yet");
                Some(*token)
            }
            _ => None,
        });
        let backfill = backfill.expect("gap must trigger a backfill");
        // The mailbox has the dropped messages 0 and 1 (and 2, deduped).
        let fx = d.was_response(
            backfill,
            WasResponse::Mailbox(vec![
                (0, ObjectId(100)),
                (1, ObjectId(101)),
                (2, ObjectId(102)),
            ]),
        );
        let toks = fetch_tokens(&fx);
        assert_eq!(toks.len(), 2, "seq 2 is already being fetched: {toks:?}");
        // Resolve all three fetches (2 was requested by the event).
        let all_effects = d.effects.clone();
        let ev_tok = fetch_tokens(&all_effects)[0];
        d.was_response(ev_tok, WasResponse::Payload(b"m2".to_vec().into()));
        d.was_response(toks[0], WasResponse::Payload(b"m0".to_vec().into()));
        let fx = d.was_response(toks[1], WasResponse::Payload(b"m1".to_vec().into()));
        assert_eq!(
            sent(&fx),
            vec!["m1", "m2"],
            "m0 flushed earlier, rest in order"
        );
        assert_eq!(d.app.next_seq(stream(1)), Some(3));
    }

    #[test]
    fn resumption_from_header_seq() {
        let mut d = TestDriver::new(MessengerApp::new());
        let mut h = header(7, 9);
        h.set("msgr_seq", Json::from(4u64));
        let fx = d.subscribe(stream(1), &h);
        let tok = fx
            .iter()
            .find_map(|e| match e {
                Effect::Was {
                    token,
                    request: WasRequest::MailboxAfter { after_seq, .. },
                } => {
                    assert_eq!(*after_seq, Some(4), "backfill starts after persisted seq");
                    Some(*token)
                }
                _ => None,
            })
            .unwrap();
        d.was_response(tok, WasResponse::Mailbox(vec![]));
        assert_eq!(d.app.next_seq(stream(1)), Some(5));
        // Old (already seen) events are dropped as duplicates.
        let fx = d.event(&msg_event(7, 3, 103));
        assert!(fetch_tokens(&fx).is_empty());
    }

    #[test]
    fn progress_rewrites_header() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        let fx = d.event(&msg_event(7, 0, 100));
        let t = fetch_tokens(&fx)[0];
        let fx = d.was_response(t, WasResponse::Payload(b"m0".to_vec().into()));
        // The rewrite rides in the same atomic batch as the payloads.
        let rewrite = fx.iter().find_map(|e| match e {
            Effect::SendPayloads {
                rewrite: Some(patch),
                ..
            } => patch.get("msgr_seq").and_then(Json::as_u64),
            _ => None,
        });
        assert_eq!(rewrite, Some(0), "delivered seq persisted via rewrite");
    }

    #[test]
    fn denied_message_does_not_stall_stream() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        let fx = d.event(&msg_event(7, 0, 100));
        let t0 = fetch_tokens(&fx)[0];
        let fx = d.event(&msg_event(7, 1, 101));
        let t1 = fetch_tokens(&fx)[0];
        d.was_response(t1, WasResponse::Payload(b"m1".to_vec().into()));
        // Seq 0 is privacy-denied: skipped, and m1 flushes.
        let fx = d.was_response(t0, WasResponse::Denied);
        assert_eq!(sent(&fx), vec!["m1"]);
        assert_eq!(d.app.next_seq(stream(1)), Some(2));
    }

    /// Delivers message `seq` of mailbox 7 to every subscribed stream.
    fn deliver(d: &mut TestDriver<MessengerApp>, seq: u64) -> Vec<Effect> {
        let fx = d.event(&msg_event(7, seq, 100 + seq));
        let mut out = Vec::new();
        for t in fetch_tokens(&fx) {
            out.extend(d.was_response(t, WasResponse::Payload(b"m".to_vec().into())));
        }
        out
    }

    fn ticks(fx: &[Effect]) -> Vec<(SimTime, u64)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Timer { at, token } => Some((*at, *token)),
                _ => None,
            })
            .collect()
    }

    /// A resubscribe of a live key replaces its stream, chain and all: the
    /// replaced incarnation's tick fires as a no-op, and from then on one
    /// tick per interval replays and re-arms.
    #[test]
    fn resubscribe_of_a_live_key_leaves_one_chain() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        assert!(d.timers().is_empty(), "no tick before a send");
        let first = ticks(&deliver(&mut d, 0));
        assert_eq!(first, vec![(SimTime::from_secs(5), first[0].1)]);

        d.advance(SimDuration::from_secs(2));
        subscribe_empty(&mut d, stream(1), 7);
        assert!(d.timers().len() == 1, "a resubscribe arms nothing");
        // The header carries no `msgr_seq`: the new incarnation starts at 0.
        let second = ticks(&deliver(&mut d, 0));
        assert_eq!(second, vec![(SimTime::from_secs(7), second[0].1)]);
        assert_eq!(d.app.timers.len(), 2, "the stale tick is still queued");

        // Fire every queued tick in time order for a minute; nothing acks.
        let mut queue = vec![first[0], second[0]];
        let mut replays_at = Vec::new();
        while let Some(i) = (0..queue.len()).min_by_key(|&i| queue[i].0) {
            let (at, token) = queue.swap_remove(i);
            if at > SimTime::from_secs(60) {
                break;
            }
            d.advance(at.saturating_since(d.now()));
            let fx = d.fire_timer(token);
            if at == SimTime::from_secs(5) {
                assert!(fx.is_empty(), "the replaced stream's tick is a no-op");
            }
            if fx.contains(&Effect::ReplayUnacked { stream: stream(1) }) {
                replays_at.push(at.as_secs());
            }
            queue.extend(ticks(&fx));
            assert!(queue.len() <= 1, "one armed tick at a time");
        }
        assert_eq!(replays_at, (1..=11).map(|k| 2 + 5 * k).collect::<Vec<_>>());
    }

    #[test]
    fn close_unsubscribes_mailbox() {
        let mut d = TestDriver::new(MessengerApp::new());
        subscribe_empty(&mut d, stream(1), 7);
        let fx = d.close(stream(1));
        assert!(fx.contains(&Effect::UnsubscribeTopic(Topic::messenger_mailbox(7))));
    }
}
