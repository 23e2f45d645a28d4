//! Host-level retention and retransmission: the Messenger retransmit loop
//! driven through [`BrassHost`], including ack-based release.

use brass::app::{DeviceId, WasResponse};
use brass::host::{BrassHost, HostConfig, HostEffect};
use burst::frame::{Delta, Frame, StreamId};
use burst::json::Json;
use pylon::Topic;
use simkit::time::{SimDuration, SimTime};
use tao::ObjectId;
use was::event::{EventKind, EventMeta};
use was::UpdateEvent;

/// What an `_into` handler emits, as a vector.
fn collect<E>(run: impl FnOnce(&mut Vec<E>)) -> Vec<E> {
    let mut out = Vec::new();
    run(&mut out);
    out
}

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

fn was_token(fx: &[HostEffect]) -> Option<(&'static str, brass::app::FetchToken)> {
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

fn timers(fx: &[HostEffect]) -> Vec<(SimTime, &'static str, u64)> {
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
    fx.extend(host.on_was_response(app, token, WasResponse::Mailbox(vec![]), SimTime::ZERO));
    fx
}

#[test]
fn unacked_messages_are_retransmitted_until_acked() {
    let mut host = BrassHost::new(HostConfig::small(1));
    host.register_standard_apps();
    let fx = open_mailbox(&mut host);
    let retransmit_timer = timers(&fx)
        .into_iter()
        .find(|(_, app, _)| *app == "messenger")
        .expect("retransmit timer armed on subscribe");

    // One message arrives and is sent.
    let fx = host.on_pylon_event(&msg_event(2, 0, 100), SimTime::from_secs(1));
    let (app, token) = was_token(&fx).unwrap();
    let fx = host.on_was_response(
        app,
        token,
        WasResponse::Payload(b"m0".to_vec().into()),
        SimTime::from_secs(1),
    );
    assert_eq!(update_frames(&fx).len(), 1, "first transmission");

    // No ack: the retransmit timer replays it.
    let fx = host.on_timer("messenger", retransmit_timer.2, retransmit_timer.0);
    let replays = update_frames(&fx);
    assert_eq!(replays.len(), 1, "unacked message replayed");
    assert_eq!(replays[0].1, vec![b"m0".to_vec()]);
    let next_timer = timers(&fx)[0];

    // The device acks; the next timer tick replays nothing.
    host.on_ack_into(DeviceId(2), StreamId(1), 0, next_timer.0, &mut Vec::new());
    let fx = host.on_timer("messenger", next_timer.2, next_timer.0);
    assert!(update_frames(&fx).is_empty(), "acked messages are released");
    assert!(!timers(&fx).is_empty(), "the loop keeps running");
}

#[test]
fn retransmit_loop_dies_with_the_stream() {
    let mut host = BrassHost::new(HostConfig::small(1));
    host.register_standard_apps();
    let fx = open_mailbox(&mut host);
    let (at, _, token) = timers(&fx)
        .into_iter()
        .find(|(_, app, _)| *app == "messenger")
        .unwrap();
    host.on_cancel_into(DeviceId(2), StreamId(1), at, &mut Vec::new());
    let fx = host.on_timer("messenger", token, at + SimDuration::from_secs(5));
    assert!(fx.is_empty(), "no replay and no re-arm after cancel");
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
        app,
        token,
        WasResponse::Payload(b"c".to_vec().into()),
        SimTime::from_secs(2),
    );
    assert_eq!(update_frames(&fx).len(), 1);
    // An LVC ack is harmless and retains nothing to release (best-effort
    // streams never buffer); this is a no-crash/no-effect check.
    let fx =
        collect(|out| host.on_ack_into(DeviceId(9), StreamId(1), 0, SimTime::from_secs(3), out));
    assert!(update_frames(&fx).is_empty());
}
