//! TypingIndicator: "display dancing ellipses when a communicating
//! counterparty is typing" (§3.4).
//!
//! Update events are pushed to the device as they arrive — but, per the
//! Fig. 9 methodology, "the TypingIndicator application here … require\[s\]
//! the BRASS application to perform privacy checking and device-specific
//! transformations by making calls to backend services", so every event
//! triggers a privacy-checking WAS fetch before the (tiny) payload is
//! pushed.

use burst::frame::Payload;
use burst::json::Json;
use simkit::snap_struct;
use was::{EventKind, UpdateEvent};

use crate::app::{BrassApp, Ctx, FetchToken, StreamKey, WasRequest, WasResponse};
use crate::resolve::ResolvedSub;
use crate::table::StreamTable;

struct StreamState {
    viewer: u64,
}

/// The TypingIndicator BRASS application.
#[derive(Default)]
pub struct TypingApp {
    /// Streams listed under their topic, and their privacy fetches, each
    /// holding the indicator payload it pushes if the check allows.
    table: StreamTable<StreamState, Payload>,
}

snap_struct!(StreamState { viewer });
snap_struct!(TypingApp { table });

impl BrassApp for TypingApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        sub: &ResolvedSub,
        _header: &Json,
    ) {
        let state = StreamState { viewer: sub.viewer };
        let slot = self.table.open(stream, state);
        self.table.set_topics(ctx, slot, &[sub.topic]);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: &UpdateEvent) {
        if event.kind != EventKind::TypingChanged {
            return;
        }
        // The indicator payload is tiny and the same for every viewer, and
        // carries the update's trace. It keeps the source object's `id`,
        // which sets its wire size; the trace ledger reads the tag.
        let typing = event.meta.typing.unwrap_or(false);
        let (object, uid, created_ms) = (event.object.0, event.meta.uid, event.meta.created_ms);
        let payload =
            format!(r#"{{"id":{object},"uid":{uid},"typing":{typing},"created_ms":{created_ms}}}"#);
        let payload = Payload::from(payload.into_bytes()).traced(event.trace());
        self.table.fan_out(&event.topic, |table, slot| {
            let Some(state) = table.get(slot) else {
                return;
            };
            ctx.decision();
            // Privacy check + device transform via the WAS (the typer's
            // user object is the referenced TAO object).
            let token = ctx.was_request(WasRequest::FetchObject {
                viewer: state.viewer,
                object: event.object,
                trace: event.trace(),
            });
            table.await_fetch(token, slot, payload.clone());
        });
    }

    fn on_was_response(&mut self, ctx: &mut Ctx<'_>, token: FetchToken, response: WasResponse) {
        let Some((slot, payload)) = self.table.answer(token) else {
            return;
        };
        if self.table.get(slot).is_some() && matches!(response, WasResponse::Payload(_)) {
            ctx.send(self.table.key(slot), payload);
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
    use simkit::trace::TraceId;
    use tao::ObjectId;
    use was::event::EventMeta;

    fn stream(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn header(thread: u64, counterparty: u64, viewer: u64) -> Json {
        Json::obj([
            ("viewer", Json::from(viewer)),
            (
                "gql",
                Json::from(format!(
                    "subscription {{ typingIndicator(threadId: {thread}, counterpartyId: {counterparty}) }}"
                )),
            ),
        ])
    }

    fn typing_event(thread: u64, uid: u64, typing: bool) -> UpdateEvent {
        UpdateEvent {
            id: 31,
            topic: Topic::typing_indicator(thread, uid),
            object: ObjectId(uid),
            kind: EventKind::TypingChanged,
            meta: EventMeta {
                uid,
                typing: Some(typing),
                ..Default::default()
            },
        }
    }

    #[test]
    fn event_flows_through_privacy_fetch_to_device() {
        let mut d = TestDriver::new(TypingApp::default());
        let fx = d.subscribe(stream(1), &header(7, 2, 9));
        assert!(fx.contains(&Effect::SubscribeTopic(Topic::typing_indicator(7, 2))));
        let fx = d.event(&typing_event(7, 2, true));
        let tok = fx.iter().find_map(|e| match e {
            Effect::Was {
                token,
                request:
                    WasRequest::FetchObject {
                        viewer,
                        object,
                        trace,
                    },
            } => {
                assert_eq!((*viewer, *object, *trace), (9, ObjectId(2), TraceId(31)));
                Some(*token)
            }
            _ => None,
        });
        let fx = d.was_response(tok.unwrap(), WasResponse::Payload(b"user".to_vec().into()));
        let (sent, trace) = match &fx[0] {
            Effect::SendPayloads { payloads, .. } => (
                String::from_utf8(payloads[0].to_vec()).unwrap(),
                payloads[0].trace(),
            ),
            other => panic!("expected send, got {other:?}"),
        };
        assert_eq!(sent, r#"{"id":2,"uid":2,"typing":true,"created_ms":0}"#);
        // The payload carries the trace of the event it came from.
        assert_eq!(trace, Some(TraceId(31)));
        assert_eq!(d.counters.decisions, 1);
        assert_eq!(d.counters.deliveries, 1);
    }

    #[test]
    fn privacy_denied_drops_indicator() {
        let mut d = TestDriver::new(TypingApp::default());
        d.subscribe(stream(1), &header(7, 2, 9));
        let fx = d.event(&typing_event(7, 2, true));
        let tok = fx.iter().find_map(|e| match e {
            Effect::Was { token, .. } => Some(*token),
            _ => None,
        });
        let fx = d.was_response(tok.unwrap(), WasResponse::Denied);
        assert!(fx.is_empty());
        assert_eq!(d.counters.deliveries, 0);
    }

    #[test]
    fn events_on_other_topics_are_ignored() {
        let mut d = TestDriver::new(TypingApp::default());
        d.subscribe(stream(1), &header(7, 2, 9));
        let fx = d.event(&typing_event(8, 2, true));
        assert!(fx.is_empty());
        assert_eq!(d.counters.decisions, 0);
    }

    #[test]
    fn close_balances_subscribes() {
        let mut d = TestDriver::new(TypingApp::default());
        d.subscribe(stream(1), &header(7, 2, 9));
        d.subscribe(stream(2), &header(7, 2, 11));
        let topic = Topic::typing_indicator(7, 2);
        let fx = d.close(stream(1));
        assert!(
            !fx.contains(&Effect::UnsubscribeTopic(topic)),
            "stream 2 holds it"
        );
        let fx = d.close(stream(2));
        assert!(fx.contains(&Effect::UnsubscribeTopic(topic)));
        assert!(!d.app.watches(topic.id()));
        assert_eq!(d.app.table.values().count(), 0);
    }

    #[test]
    fn stale_response_after_close_is_dropped() {
        let mut d = TestDriver::new(TypingApp::default());
        d.subscribe(stream(1), &header(7, 2, 9));
        let fx = d.event(&typing_event(7, 2, false));
        let tok = fx.iter().find_map(|e| match e {
            Effect::Was { token, .. } => Some(*token),
            _ => None,
        });
        d.close(stream(1));
        let fx = d.was_response(tok.unwrap(), WasResponse::Payload(vec![1].into()));
        assert!(fx.is_empty(), "no sends to closed streams");
    }
}
