//! Protocol fuzzing: random frame sequences over fragmenting/corrupting
//! transports, client state machine robustness under arbitrary delta
//! streams, and egress-window hysteresis under random send/drain schedules.

use std::collections::VecDeque;

use proptest::prelude::*;

use burst::codec::{encode_frame, Decoder};
use burst::flow::{Admit, FlowWindow};
use burst::frame::{Delta, FlowStatus, Frame, StreamId, TerminateReason};
use burst::json::Json;
use burst::stream::{ClientAction, ClientStream, StreamState};
use bytes::BytesMut;

fn arb_delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..32)).prop_map(|(seq, payload)| {
            Delta::Update {
                seq,
                payload: payload.into(),
            }
        }),
        Just(Delta::FlowStatus(FlowStatus::Degraded)),
        Just(Delta::FlowStatus(FlowStatus::Recovered)),
        "[a-z]{1,8}".prop_map(|k| Delta::RewriteRequest {
            patch: Json::obj([(k, Json::from(1u64))]),
        }),
        Just(Delta::Terminate(TerminateReason::Cancelled)),
        Just(Delta::Terminate(TerminateReason::Redirect)),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u64>(),
            "[a-z]{0,6}",
            proptest::collection::vec(any::<u8>(), 0..24)
        )
            .prop_map(|(sid, key, body)| Frame::Subscribe {
                sid: StreamId(sid),
                header: Json::obj([("topic", Json::from(format!("/{key}x"))),]),
                body,
            }),
        any::<u64>().prop_map(|sid| Frame::Cancel { sid: StreamId(sid) }),
        (any::<u64>(), any::<u64>()).prop_map(|(sid, seq)| Frame::Ack {
            sid: StreamId(sid),
            seq
        }),
        (any::<u64>(), proptest::collection::vec(arb_delta(), 0..6)).prop_map(|(sid, batch)| {
            Frame::Response {
                sid: StreamId(sid),
                batch,
            }
        }),
        any::<u64>().prop_map(|token| Frame::Ping { token }),
        any::<u64>().prop_map(|token| Frame::Pong { token }),
    ]
}

/// A failure-path frame: exactly the repair signalling that flows during
/// fault episodes — degraded/recovered flow status, sticky-routing
/// rewrites, and redirect/shutdown terminations.
fn arb_failure_frame() -> impl Strategy<Value = Frame> {
    let failure_delta = prop_oneof![
        Just(Delta::FlowStatus(FlowStatus::Degraded)),
        Just(Delta::FlowStatus(FlowStatus::Recovered)),
        ("[a-z]{1,8}", any::<u64>()).prop_map(|(k, host)| Delta::RewriteRequest {
            patch: Json::obj([(k, Json::from(host))]),
        }),
        Just(Delta::Terminate(TerminateReason::Redirect)),
        Just(Delta::Terminate(TerminateReason::ServerShutdown)),
        Just(Delta::Terminate(TerminateReason::Error)),
    ];
    (any::<u64>(), proptest::collection::vec(failure_delta, 1..5)).prop_map(|(sid, batch)| {
        Frame::Response {
            sid: StreamId(sid),
            batch,
        }
    })
}

fn apply_batch(c: &mut ClientStream, batch: &[Delta]) -> Vec<ClientAction> {
    let mut actions = Vec::new();
    c.on_batch_with(batch, |action| actions.push(action));
    actions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any frame sequence, fragmented at arbitrary points, decodes to the
    /// exact same sequence.
    #[test]
    fn fragmented_stream_roundtrip(
        frames in proptest::collection::vec(arb_frame(), 1..12),
        cuts in proptest::collection::vec(1usize..64, 0..20),
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut cut_iter = cuts.into_iter();
        while pos < wire.len() {
            let step = cut_iter.next().unwrap_or(wire.len()).min(wire.len() - pos);
            dec.feed(&wire[pos..pos + step]);
            pos += step;
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
    }

    /// A corrupted byte never panics the decoder: it either still decodes
    /// (the byte landed in an opaque payload) or errors cleanly.
    #[test]
    fn corruption_never_panics(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let idx = flip_at % wire.len();
        wire[idx] ^= flip_bits;
        let mut dec = Decoder::new();
        dec.feed(&wire);
        // Drain until error or exhaustion; must not panic or loop forever.
        for _ in 0..frames.len() + 2 {
            match dec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Truncation at EVERY byte boundary: a prefix of encoded failure
    /// frames decodes to an exact prefix of the original sequence (never
    /// an error, never an invented frame), and feeding the remainder
    /// completes the stream exactly.
    #[test]
    fn truncated_failure_frames_resume_exactly(
        frames in proptest::collection::vec(arb_failure_frame(), 1..4),
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        for cut in 0..wire.len() {
            let mut dec = Decoder::new();
            dec.feed(&wire[..cut]);
            let mut got = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
            prop_assert!(got.len() < frames.len(), "a strict prefix cannot finish");
            prop_assert_eq!(&frames[..got.len()], &got[..]);
            dec.feed(&wire[cut..]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
            prop_assert_eq!(&got[..], &frames[..]);
        }
    }

    /// Corrupting one byte of failure-path signalling never panics the
    /// decoder, and whatever frames still decode re-encode cleanly (no
    /// structurally-broken frame escapes the codec).
    #[test]
    fn corrupted_failure_frames_fail_closed(
        frames in proptest::collection::vec(arb_failure_frame(), 1..4),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut wire = BytesMut::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let idx = flip_at % wire.len();
        wire[idx] ^= flip_bits;
        let mut dec = Decoder::new();
        dec.feed(&wire);
        for _ in 0..frames.len() + 2 {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    let mut reenc = BytesMut::new();
                    encode_frame(&frame, &mut reenc);
                    prop_assert!(!reenc.is_empty());
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// The client state machine accepts ANY delta stream without panicking,
    /// and its invariants hold: delivered counts match Deliver actions,
    /// and the stream never processes anything after termination.
    #[test]
    fn client_state_machine_total(batches in proptest::collection::vec(
        proptest::collection::vec(arb_delta(), 0..5), 0..10))
    {
        let header = Json::obj([("viewer", Json::from(1u64))]);
        let mut c = ClientStream::new(StreamId(1), header, vec![]);
        let mut delivered = 0u64;
        let mut terminated = false;
        for batch in &batches {
            let actions = apply_batch(&mut c, batch);
            if terminated {
                prop_assert!(actions.is_empty(), "no actions after termination");
            }
            for a in &actions {
                if matches!(a, ClientAction::Deliver(_)) {
                    delivered += 1;
                }
                if matches!(a, ClientAction::Terminated(_)) {
                    terminated = true;
                }
            }
        }
        prop_assert_eq!(c.delivered(), delivered);
        if terminated {
            prop_assert!(matches!(c.state(), StreamState::Terminated(_)));
        }
    }

    /// The egress window the simulator drives: under any interleaving of
    /// sends and drains of what was admitted, the bytes in flight are
    /// admitted minus drained, Degraded and Recovered strictly alternate,
    /// and draining everything always ends recovered.
    #[test]
    fn flow_window_signals_alternate_and_always_recover(
        capacity in 0u64..2_000,
        ops in proptest::collection::vec(prop_oneof![(1u64..600).prop_map(Some), Just(None)], 1..80),
    ) {
        let mut window = FlowWindow::new(capacity);
        let mut queue = VecDeque::new();
        let (mut admitted, mut drained) = (0u64, 0u64);
        let mut signals = Vec::new(); // true = Degraded, false = Recovered
        // After the scripted ops, keep draining until nothing is in flight.
        for (i, op) in ops.iter().copied().chain(std::iter::repeat(None)).enumerate() {
            if i >= ops.len() && queue.is_empty() {
                break;
            }
            match op {
                Some(bytes) => match window.try_send(bytes) {
                    Admit::Ok => {
                        admitted += bytes;
                        queue.push_back(bytes);
                    }
                    Admit::ShedDegrade => signals.push(true),
                    Admit::Shed => prop_assert!(window.is_degraded()),
                },
                None => {
                    if let Some(bytes) = queue.pop_front() {
                        drained += bytes;
                        if window.on_drained(bytes) {
                            signals.push(false);
                        }
                    }
                }
            }
            prop_assert_eq!(window.in_flight(), admitted - drained);
        }
        prop_assert!(
            signals.iter().enumerate().all(|(i, &degrade)| degrade == (i % 2 == 0)),
            "signals do not alternate: {:?}", signals
        );
        prop_assert_eq!(signals.len() % 2, 0, "a full drain ends recovered");
        prop_assert!(!window.is_degraded());
        prop_assert_eq!(window.in_flight(), 0);
    }
}
