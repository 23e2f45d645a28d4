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
//! running every interval from subscribe would have made them. The stream
//! table keeps the one armed tick: a resubscribe or a close ends it, so a
//! replaced incarnation's tick finds nothing when it fires.

use std::collections::BTreeMap;

use burst::frame::{Payload, TerminateReason};
use burst::json::Json;
use simkit::snap::ensure;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceId;
use simkit::{snap_enum, snap_struct};
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::apps::AppId;
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

struct StreamState {
    viewer: u64,
    mailbox: u64,
    /// Next mailbox sequence number the device expects.
    next_seq: u64,
    /// Reorder buffer keyed by mailbox seq: a message's payload, ready to
    /// deliver once all earlier sequences are, or `None` while its fetch
    /// is in flight.
    pending: BTreeMap<u64, Option<Payload>>,
    /// Whether a backfill poll is currently outstanding.
    backfilling: bool,
    /// Sequence persisted in the header via the last rewrite.
    persisted_seq: Option<u64>,
    /// The subscribe instant: retransmit ticks fire only at
    /// `phase + k·RETRANSMIT_INTERVAL`.
    phase: SimTime,
}

/// An in-flight WAS request of a stream.
enum Fetch {
    /// The payload of message `seq`, added to the mailbox by the update
    /// of the trace, which the payload is tagged with.
    Message(u64, TraceId),
    /// A mailbox backfill.
    Backfill,
}

/// How often sent-but-unacked updates are retransmitted.
pub const RETRANSMIT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// The Messenger content-delivery BRASS application.
#[derive(Default)]
pub struct MessengerApp {
    /// Streams listed under their mailbox's topic, their fetches and backfills,
    /// and their retransmit ticks.
    table: StreamTable<StreamState, Fetch>,
}

impl MessengerApp {
    /// Delivers every contiguous ready message starting at `next_seq`, then
    /// persists progress into the header. Returns whether it sent anything.
    fn drain_ready(state: &mut StreamState, stream: StreamKey, ctx: &mut Ctx<'_>) -> bool {
        let mut batch: Vec<Payload> = Vec::new();
        while let Some(Some(_)) = state.pending.get(&state.next_seq) {
            let ready = state.pending.remove(&state.next_seq).flatten();
            batch.push(ready.expect("matched above"));
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

    /// Arms the retransmit tick of the stream in `slot` at its first grid
    /// instant after now, unless one is armed already.
    fn arm_retransmit(table: &mut StreamTable<StreamState, Fetch>, slot: u32, ctx: &mut Ctx<'_>) {
        let Some(state) = table.get(slot) else {
            return;
        };
        if table.armed(slot) {
            return;
        }
        let interval = RETRANSMIT_INTERVAL.as_micros();
        let into_period = ctx.now.saturating_since(state.phase).as_micros() % interval;
        let after = SimDuration::from_micros(interval - into_period);
        table.arm(ctx, slot, after);
    }

    fn start_backfill(table: &mut StreamTable<StreamState, Fetch>, slot: u32, ctx: &mut Ctx<'_>) {
        let Some(state) = table.get_mut(slot) else {
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
        table.await_fetch(token, slot, Fetch::Backfill);
    }
}

snap_enum!(Fetch { 0 => Message(seq, trace), 1 => Backfill });
snap_struct!(
    StreamState {
        viewer,
        mailbox,
        next_seq,
        pending,
        backfilling,
        persisted_seq,
        phase
    },
    |s| {
        ensure(
            s.pending.keys().next().is_none_or(|&seq| seq >= s.next_seq),
            "messenger: buffered seq behind next_seq",
        )
    }
);
snap_struct!(MessengerApp { table });

impl BrassApp for MessengerApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        header: &Json,
    ) {
        let Some(mailbox) = sub.topic.id_under(AppId::Messenger.family()) else {
            ctx.terminate(stream, TerminateReason::Error);
            return;
        };
        // Resumption: the header may carry the last sequence the device
        // received (installed by a previous BRASS via rewrite).
        let next_seq = header
            .get("msgr_seq")
            .and_then(Json::as_u64)
            .map(|s| s + 1)
            .unwrap_or(0);
        let state = StreamState {
            viewer: sub.viewer,
            mailbox,
            next_seq,
            pending: BTreeMap::new(),
            backfilling: false,
            persisted_seq: header.get("msgr_seq").and_then(Json::as_u64),
            phase: ctx.now,
        };
        // A live key's old incarnation's retransmit tick ends with it.
        let slot = self.table.open(stream, state);
        self.table.set_topics(ctx, slot, &[sub.topic]);
        // Catch up on anything missed while disconnected. No retransmit
        // tick yet: the first send arms one.
        Self::start_backfill(&mut self.table, slot, ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::MessageAdded {
            return;
        }
        let Some(seq) = event.meta.seq else {
            return;
        };
        let mut gaps: Vec<u32> = Vec::new();
        self.table.fan_out(&event.topic, |table, slot| {
            let Some(state) = table.get_mut(slot) else {
                return;
            };
            ctx.decision();
            if seq < state.next_seq || state.pending.contains_key(&seq) {
                return; // Duplicate.
            }
            state.pending.insert(seq, None);
            if seq > state.next_seq {
                // A gap: events for the missing range may have been dropped
                // by best-effort Pylon. Poll the mailbox to recover them —
                // the BRASS recovers so the device does not have to.
                gaps.push(slot);
            }
            let (viewer, trace) = (state.viewer, event.trace());
            let token = ctx.was_request(WasRequest::FetchObject {
                viewer,
                object: event.object,
                trace,
            });
            table.await_fetch(token, slot, Fetch::Message(seq, trace));
        });
        for slot in gaps {
            Self::start_backfill(&mut self.table, slot, ctx);
        }
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        let Some((slot, fetch)) = self.table.answer(token) else {
            return;
        };
        let stream = self.table.key(slot);
        let Some(state) = self.table.get_mut(slot) else {
            return;
        };
        match fetch {
            Fetch::Message(seq, trace) => {
                match response {
                    WasResponse::Payload(payload) => {
                        if let Some(entry) = state.pending.get_mut(&seq) {
                            *entry = Some(payload.traced(trace));
                        }
                    }
                    _ => {
                        // Denied/missing content: skip this seq so the
                        // stream does not stall forever.
                        state.pending.remove(&seq);
                        if state.next_seq != seq {
                            return;
                        }
                        state.next_seq += 1;
                    }
                }
                if Self::drain_ready(state, stream, ctx) {
                    // Retransmission: unacked updates are replayed until
                    // acked (the device's duplicate suppression makes this
                    // idempotent).
                    Self::arm_retransmit(&mut self.table, slot, ctx);
                }
            }
            Fetch::Backfill => {
                state.backfilling = false;
                let WasResponse::Mailbox(entries) = response else {
                    return;
                };
                let viewer = state.viewer;
                let mut fetches = Vec::new();
                for (seq, object, trace) in entries {
                    if seq >= state.next_seq && !state.pending.contains_key(&seq) {
                        state.pending.insert(seq, None);
                        fetches.push((seq, object, trace));
                    }
                }
                for (seq, object, trace) in fetches {
                    let request = WasRequest::FetchObject {
                        viewer,
                        object,
                        trace,
                    };
                    let token = ctx.was_request(request);
                    self.table
                        .await_fetch(token, slot, Fetch::Message(seq, trace));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(slot) = self.table.fire(token) else {
            return;
        };
        let stream = self.table.key(slot);
        if ctx.has_unacked(stream) {
            ctx.replay_unacked(stream);
            Self::arm_retransmit(&mut self.table, slot, ctx);
        }
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
    use simkit::time::SimDuration;
    use tao::ObjectId;
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
            id: 1_000 + object,
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

    fn sent_payloads(fx: &[Effect]) -> impl Iterator<Item = &Payload> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::SendPayloads { payloads, .. } => Some(payloads),
                _ => None,
            })
            .flatten()
    }

    fn sent(fx: &[Effect]) -> Vec<String> {
        let text = |p: &Payload| String::from_utf8(p.to_vec()).unwrap();
        sent_payloads(fx).map(text).collect()
    }

    fn sent_traces(fx: &[Effect]) -> Vec<Option<TraceId>> {
        sent_payloads(fx).map(Payload::trace).collect()
    }

    #[test]
    fn in_order_messages_flow_through() {
        let mut d = TestDriver::new(MessengerApp::default());
        subscribe_empty(&mut d, stream(1), 7);
        for seq in 0..3u64 {
            let fx = d.event(&msg_event(7, seq, 100 + seq));
            let toks = fetch_tokens(&fx);
            let fx = d.was_response(
                toks[0],
                WasResponse::Payload(format!("m{seq}").into_bytes().into()),
            );
            assert_eq!(sent(&fx), vec![format!("m{seq}")]);
            assert_eq!(sent_traces(&fx), vec![Some(TraceId(1_100 + seq))]);
        }
        assert_eq!(
            d.app.table.find_mut(&stream(1)).map(|s| s.next_seq),
            Some(3)
        );
        assert_eq!(d.counters.deliveries, 3);
    }

    #[test]
    fn out_of_order_fetches_deliver_in_order() {
        let mut d = TestDriver::new(MessengerApp::default());
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
        let mut d = TestDriver::new(MessengerApp::default());
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
                (0, ObjectId(100), TraceId(1_100)),
                (1, ObjectId(101), TraceId(1_101)),
                (2, ObjectId(102), TraceId(1_102)),
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
        // A replayed message carries the trace its mailbox row names.
        assert_eq!(
            sent_traces(&fx),
            vec![Some(TraceId(1_101)), Some(TraceId(1_102))]
        );
        assert_eq!(
            d.app.table.find_mut(&stream(1)).map(|s| s.next_seq),
            Some(3)
        );
    }

    #[test]
    fn resumption_from_header_seq() {
        let mut d = TestDriver::new(MessengerApp::default());
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
        assert_eq!(
            d.app.table.find_mut(&stream(1)).map(|s| s.next_seq),
            Some(5)
        );
        // Old (already seen) events are dropped as duplicates.
        let fx = d.event(&msg_event(7, 3, 103));
        assert!(fetch_tokens(&fx).is_empty());
    }

    #[test]
    fn progress_rewrites_header() {
        let mut d = TestDriver::new(MessengerApp::default());
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
        let mut d = TestDriver::new(MessengerApp::default());
        subscribe_empty(&mut d, stream(1), 7);
        let fx = d.event(&msg_event(7, 0, 100));
        let t0 = fetch_tokens(&fx)[0];
        let fx = d.event(&msg_event(7, 1, 101));
        let t1 = fetch_tokens(&fx)[0];
        d.was_response(t1, WasResponse::Payload(b"m1".to_vec().into()));
        // Seq 0 is privacy-denied: skipped, and m1 flushes.
        let fx = d.was_response(t0, WasResponse::Denied);
        assert_eq!(sent(&fx), vec!["m1"]);
        assert_eq!(
            d.app.table.find_mut(&stream(1)).map(|s| s.next_seq),
            Some(2)
        );
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

    /// Fires every queued tick in time order up to `until`, queueing the
    /// ticks they arm; nothing acks. Returns the replay instants in seconds
    /// and the first tick left queued.
    fn run_ticks(
        d: &mut TestDriver<MessengerApp>,
        mut queue: Vec<(SimTime, u64)>,
        until: SimTime,
    ) -> (Vec<u64>, (SimTime, u64)) {
        let mut replays_at = Vec::new();
        loop {
            let i = (0..queue.len())
                .min_by_key(|&i| queue[i].0)
                .expect("a tick");
            let (at, token) = queue.swap_remove(i);
            if at > until {
                return (replays_at, (at, token));
            }
            d.advance(at.saturating_since(d.now()));
            let fx = d.fire_timer(token);
            if fx.contains(&Effect::ReplayUnacked { stream: stream(1) }) {
                replays_at.push(at.as_secs());
            }
            queue.extend(ticks(&fx));
            assert!(queue.len() <= 1, "one armed tick at a time");
        }
    }

    /// A resubscribe of a live key replaces its stream, chain and all, and
    /// so does a close and reopen: the old incarnation's tick fires as a
    /// no-op, and from then on one tick per interval replays and re-arms.
    #[test]
    fn resubscribe_of_a_live_key_leaves_one_chain() {
        let mut d = TestDriver::new(MessengerApp::default());
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
        assert_eq!(d.app.table.timer_count(), 1, "the replaced tick ended");
        d.advance(SimDuration::from_secs(3));
        assert!(d.fire_timer(first[0].1).is_empty(), "and fires as a no-op");

        // A minute of ticks on the live chain.
        let (replays_at, (at, old)) = run_ticks(&mut d, second, SimTime::from_secs(60));
        assert_eq!(replays_at, (1..=11).map(|k| 2 + 5 * k).collect::<Vec<_>>());
        assert_eq!(at, SimTime::from_secs(62));

        // Close and reopen at 60 s: the old chain's tick at 62 s ends with
        // the close, and the reopened stream's first send starts the one
        // chain left, on its own phase.
        d.advance(SimTime::from_secs(60).saturating_since(d.now()));
        d.close(stream(1));
        assert_eq!(d.app.table.timer_count(), 0, "the close ended the chain");
        subscribe_empty(&mut d, stream(1), 7);
        let third = ticks(&deliver(&mut d, 0));
        assert_eq!(third, vec![(SimTime::from_secs(65), third[0].1)]);
        assert_eq!(d.app.table.timer_count(), 1, "one chain after the reopen");
        d.advance(SimDuration::from_secs(2));
        assert!(d.fire_timer(old).is_empty(), "the closed stream's tick");
        let (replays_at, _) = run_ticks(&mut d, third, SimTime::from_secs(90));
        assert_eq!(replays_at, (1..=6).map(|k| 60 + 5 * k).collect::<Vec<_>>());
    }

    #[test]
    fn close_unsubscribes_mailbox() {
        let mut d = TestDriver::new(MessengerApp::default());
        subscribe_empty(&mut d, stream(1), 7);
        let fx = d.close(stream(1));
        assert!(fx.contains(&Effect::UnsubscribeTopic(Topic::messenger_mailbox(7))));
    }
}
