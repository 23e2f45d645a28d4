//! Host-level retention and retransmission: the Messenger retransmit chain
//! driven through [`BrassHost`], including ack-based release.

use std::collections::BTreeMap;

use brass::app::{DeviceId, WasResponse};
use brass::apps::messenger::RETRANSMIT_INTERVAL;
use brass::host::{BrassHost, HostConfig, HostEffect};
use brass::AppId;
use burst::frame::{Delta, Frame, StreamId};
use burst::json::Json;
use proptest::prelude::*;
use pylon::Topic;
use simkit::time::SimTime;
use tao::ObjectId;
use was::event::{EventKind, EventMeta};
use was::UpdateEvent;

fn msgr_header(mailbox: u64, viewer: u64) -> Json {
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

fn was_token(fx: &[HostEffect]) -> Option<(AppId, brass::app::FetchToken)> {
    fx.iter().find_map(|e| match e {
        HostEffect::Was { app, token, .. } => Some((*app, *token)),
        _ => None,
    })
}

fn update_frames(fx: &[HostEffect]) -> Vec<(u64, Vec<Vec<u8>>)> {
    fx.iter()
        .filter_map(|e| match e {
            HostEffect::Send { device, frame } => {
                let Frame::Response { batch, .. } = &**frame else {
                    return None;
                };
                let updates: Vec<Vec<u8>> = batch
                    .iter()
                    .filter_map(|d| match d {
                        Delta::Update { payload, .. } => Some(payload.to_vec()),
                        _ => None,
                    })
                    .collect();
                if updates.is_empty() {
                    None
                } else {
                    Some((device.0, updates))
                }
            }
            _ => None,
        })
        .collect()
}

fn timers_of(fx: &[HostEffect]) -> Vec<(SimTime, AppId, u64)> {
    fx.iter()
        .filter_map(|e| match e {
            HostEffect::Timer { at, app, token } => Some((*at, *app, *token)),
            _ => None,
        })
        .collect()
}

/// Subscribes bob's mailbox and resolves the initial backfill as empty.
fn open_mailbox(host: &mut BrassHost) -> Vec<HostEffect> {
    let mut fx = host.on_subscribe(DeviceId(2), StreamId(1), msgr_header(2, 2), SimTime::ZERO);
    let (app, token) = was_token(&fx).expect("initial backfill");
    fx.extend(host.on_was_response(
        app.name(),
        token,
        WasResponse::Mailbox(vec![]),
        SimTime::ZERO,
    ));
    fx
}

/// Sends message `seq` (object `100 + seq`) to bob's open mailbox stream
/// at `now`, returning the host's effects.
fn send_message(host: &mut BrassHost, seq: u64, now: SimTime) -> Vec<HostEffect> {
    let fx = host.on_pylon_event(&msg_event(2, seq, 100 + seq), now);
    let (app, token) = was_token(&fx).expect("payload fetch");
    let payload = format!("m{seq}").into_bytes();
    host.on_was_response(app.name(), token, WasResponse::Payload(payload.into()), now)
}

#[test]
fn unacked_messages_are_retransmitted_until_acked() {
    let mut host = BrassHost::new(HostConfig::small(1));
    host.register_standard_apps();
    let fx = open_mailbox(&mut host);
    assert!(
        timers_of(&fx).is_empty(),
        "no retransmit tick before a send"
    );

    // One message arrives and is sent; the send arms the first tick on
    // the subscribe-instant grid.
    let fx = send_message(&mut host, 0, SimTime::from_secs(1));
    assert_eq!(update_frames(&fx).len(), 1, "first transmission");
    let tick = timers_of(&fx);
    assert_eq!(tick.len(), 1);
    assert_eq!(
        (tick[0].0, tick[0].1),
        (SimTime::from_secs(5), AppId::Messenger)
    );

    // No ack: the retransmit tick replays it and arms the next one.
    let fx = host.on_timer("messenger", tick[0].2, tick[0].0);
    let replays = update_frames(&fx);
    assert_eq!(replays.len(), 1, "unacked message replayed");
    assert_eq!(replays[0].1, vec![b"m0".to_vec()]);
    let next = timers_of(&fx);
    assert_eq!(next.len(), 1);
    assert_eq!(next[0].0, SimTime::from_secs(10));

    // The device acks; the next tick finds nothing unacked, replays
    // nothing and ends the chain.
    host.on_ack(DeviceId(2), StreamId(1), 0);
    let fx = host.on_timer("messenger", next[0].2, next[0].0);
    assert!(fx.is_empty(), "acked: no replay and no re-arm");

    // The next send starts a new chain, still on the grid.
    let fx = send_message(&mut host, 1, SimTime::from_micros(12_000_001));
    assert_eq!(timers_of(&fx)[0].0, SimTime::from_secs(15));
}

#[test]
fn retransmit_loop_dies_with_the_stream() {
    let mut host = BrassHost::new(HostConfig::small(1));
    host.register_standard_apps();
    open_mailbox(&mut host);
    let fx = send_message(&mut host, 0, SimTime::from_secs(1));
    let (at, _, token) = timers_of(&fx)[0];
    host.on_cancel_into(DeviceId(2), StreamId(1), at, &mut Vec::new());
    let fx = host.on_timer("messenger", token, at);
    assert!(fx.is_empty(), "no replay and no re-arm after cancel");
}

/// One scripted step of the replay equivalence check.
#[derive(Clone, Debug)]
enum Op {
    /// The next mailbox message is sent.
    Send,
    /// The device acks every update sent so far but the last `n`.
    Ack(u64),
}

proptest! {
    /// Over random send and ack times, the instants at which the host
    /// replays something are exactly those of a tick that runs every
    /// `RETRANSMIT_INTERVAL` from subscribe and replays whatever is unacked
    /// (the free-running loop this demand-driven chain replaced).
    #[test]
    fn replays_land_where_a_free_running_loop_puts_them(
        phase_us in 0u64..5_000_000,
        steps in proptest::collection::vec((1u64..9_000, 0u8..4, 0u64..3), 1..24),
    ) {
        let interval = RETRANSMIT_INTERVAL.as_micros();
        let mut host = BrassHost::new(HostConfig::small(1));
        host.register_standard_apps();
        let phase = SimTime::from_micros(phase_us);
        let fx = host.on_subscribe(DeviceId(2), StreamId(1), msgr_header(2, 2), phase);
        let (app, token) = was_token(&fx).expect("initial backfill");
        host.on_was_response(app.name(), token, WasResponse::Mailbox(vec![]), phase);

        // The script: whole milliseconds after the phase, plus 1 µs, so no
        // step shares an instant with a tick.
        let mut at = phase_us + 1;
        let script: Vec<(u64, Op)> = steps
            .into_iter()
            .map(|(gap_ms, kind, n)| {
                at += gap_ms * 1_000;
                (at, if kind == 0 { Op::Ack(n) } else { Op::Send })
            })
            .collect();
        let horizon = at + 4 * interval;

        // The model: (time, seq) of every send and every ack.
        let (mut sends, mut acks) = (Vec::new(), Vec::new());
        let mut timers: BTreeMap<u64, u64> = BTreeMap::new(); // at → token
        let mut replayed_at = Vec::new();
        let mut run_ticks_until = |host: &mut BrassHost, until: u64, timers: &mut BTreeMap<u64, u64>| {
            while let Some((&t, &token)) = timers.iter().next() {
                if t >= until {
                    break;
                }
                timers.remove(&t);
                let fx = host.on_timer("messenger", token, SimTime::from_micros(t));
                if !update_frames(&fx).is_empty() {
                    replayed_at.push(t);
                }
                for (at, _, token) in timers_of(&fx) {
                    assert!(timers.insert(at.as_micros(), token).is_none(), "two ticks at once");
                }
            }
        };
        for (t, op) in &script {
            run_ticks_until(&mut host, *t, &mut timers);
            match op {
                Op::Send => {
                    let seq = sends.len() as u64;
                    let fx = send_message(&mut host, seq, SimTime::from_micros(*t));
                    prop_assert_eq!(update_frames(&fx).len(), 1);
                    for (at, _, token) in timers_of(&fx) {
                        prop_assert!(timers.insert(at.as_micros(), token).is_none());
                    }
                    sends.push(*t);
                }
                Op::Ack(n) => {
                    if let Some(seq) = (sends.len() as u64).checked_sub(n + 1) {
                        host.on_ack(DeviceId(2), StreamId(1), seq);
                        acks.push((*t, seq));
                    }
                }
            }
        }
        run_ticks_until(&mut host, horizon, &mut timers);

        let unacked_at = |g: u64| {
            let acked = acks.iter().filter(|(t, _)| *t < g).map(|(_, s)| s + 1).max().unwrap_or(0);
            sends.iter().enumerate().any(|(seq, t)| *t < g && seq as u64 >= acked)
        };
        let model: Vec<u64> = (1..)
            .map(|k| phase_us + k * interval)
            .take_while(|g| *g < horizon)
            .filter(|g| unacked_at(*g))
            .collect();
        prop_assert_eq!(replayed_at, model);
    }
}

#[test]
fn best_effort_streams_retain_nothing() {
    let mut host = BrassHost::new(HostConfig::small(1));
    host.register_standard_apps();
    let lvc_header = Json::obj([
        ("viewer", Json::from(9u64)),
        (
            "gql",
            Json::from("subscription { liveVideoComments(videoId: 5) }"),
        ),
    ]);
    host.on_subscribe(DeviceId(9), StreamId(1), lvc_header, SimTime::ZERO);
    // Push an update through the LVC pipeline.
    let ev = UpdateEvent {
        id: 1,
        topic: Topic::live_video_comments(5),
        object: ObjectId(50),
        kind: EventKind::CommentPosted,
        meta: EventMeta {
            uid: 1,
            quality: 0.9,
            lang: Some("en".into()),
            created_ms: 0,
            seq: None,
            typing: None,
        },
    };
    host.on_pylon_event(&ev, SimTime::ZERO);
    let fx = host.on_timer("lvc", 0, SimTime::from_secs(2));
    let (app, token) = was_token(&fx).unwrap();
    let fx = host.on_was_response(
        app.name(),
        token,
        WasResponse::Payload(b"c".to_vec().into()),
        SimTime::from_secs(2),
    );
    assert_eq!(update_frames(&fx).len(), 1);
    // An LVC ack is harmless and retains nothing to release (best-effort
    // streams never buffer); this is a no-crash check.
    host.on_ack(DeviceId(9), StreamId(1), 0);
    assert_eq!(host.stream_count(), 1);
}
