//! Multi-tenant isolation: several applications coexisting on one BRASS
//! host, exercising the paper's operational claims (independent instances,
//! per-app state, shared subscription manager, misbehaviour containment).

use brass::app::{BrassApp, Ctx, DeviceId, StreamKey};
use brass::host::{BrassHost, HostConfig, HostEffect};
use brass::{AppId, ResolvedSub};
use burst::frame::{Frame, StreamId};
use burst::json::Json;
use pylon::Topic;
use simkit::time::SimTime;
use tao::ObjectId;
use was::event::{EventKind, EventMeta};
use was::UpdateEvent;

fn host() -> BrassHost {
    let mut h = BrassHost::new(HostConfig::small(1));
    h.register_standard_apps();
    h
}

fn gql_header(viewer: u64, gql: &str) -> Json {
    Json::obj([("viewer", Json::from(viewer)), ("gql", Json::from(gql))])
}

#[test]
fn five_applications_coexist_on_one_host() {
    let mut h = host();
    let subs = [
        "subscription { liveVideoComments(videoId: 1) }",
        "subscription { typingIndicator(threadId: 1, counterpartyId: 2) }",
        "subscription { activeStatus }",
        "subscription { storiesTray }",
        "subscription { mailbox(uid: 9) }",
        "subscription { postLikes(postId: 4) }",
    ];
    for (i, gql) in subs.iter().enumerate() {
        h.on_subscribe(
            DeviceId(9),
            StreamId(i as u64 + 1),
            gql_header(9, gql),
            SimTime::ZERO,
        );
    }
    assert_eq!(h.instance_count(), 6, "one instance per application");
    assert_eq!(h.stream_count(), 6);
    assert!(h.instance_count() <= h.capacity());
}

#[test]
fn events_only_reach_subscribed_applications() {
    let mut h = host();
    h.on_subscribe(
        DeviceId(1),
        StreamId(1),
        gql_header(1, "subscription { liveVideoComments(videoId: 7) }"),
        SimTime::ZERO,
    );
    h.on_subscribe(
        DeviceId(2),
        StreamId(1),
        gql_header(2, "subscription { postLikes(postId: 7) }"),
        SimTime::ZERO,
    );
    // An LVC event on /LVC/7: only the LVC instance sees it.
    let ev = UpdateEvent {
        id: 1,
        topic: Topic::live_video_comments(7),
        object: ObjectId(100),
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
    h.on_pylon_event(&ev, SimTime::ZERO);
    assert_eq!(h.app_counters(AppId::Lvc).unwrap().events_in, 1);
    assert_eq!(h.app_counters(AppId::Likes).unwrap().events_in, 0);
}

/// A deliberately misbehaving application: panics are NOT what we model
/// (Rust would abort); instead it floods effects. The host must pass them
/// through without corrupting other instances' state.
struct NoisyApp {
    streams: usize,
}

simkit::snap_struct!(NoisyApp { streams });

impl BrassApp for NoisyApp {
    fn on_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamKey,
        _sub: &ResolvedSub,
        _header: &Json,
    ) {
        self.streams += 1;
        // Floods 100 payloads immediately.
        for i in 0..100u64 {
            ctx.send(stream, format!("noise-{i}").into_bytes());
        }
    }
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: &UpdateEvent) {}
    fn on_stream_closed(&mut self, _ctx: &mut Ctx<'_>, _stream: StreamKey) {}
    fn watches(&self, _topic: pylon::TopicId) -> bool {
        false
    }
}

#[test]
fn a_noisy_tenant_does_not_corrupt_neighbours() {
    let mut h = host();
    // The noisy tenant stands in for one of the standard applications:
    // the set of applications is closed.
    h.register_app(AppId::Notifications, || Box::new(NoisyApp { streams: 0 }));
    // A healthy LVC stream first.
    h.on_subscribe(
        DeviceId(1),
        StreamId(1),
        gql_header(1, "subscription { liveVideoComments(videoId: 7) }"),
        SimTime::ZERO,
    );
    // The noisy app spools up via a pre-resolved header.
    let noisy_header = Json::obj([
        ("viewer", Json::from(2u64)),
        ("app", Json::from(AppId::Notifications.name())),
        ("topic", Json::from("/Noise/1")),
    ]);
    let fx = h.on_subscribe(DeviceId(2), StreamId(1), noisy_header, SimTime::ZERO);
    let noise_frames = fx
        .iter()
        .filter(|e| {
            matches!(e, HostEffect::Send { device: DeviceId(2), frame }
                if matches!(**frame, Frame::Response { .. }))
        })
        .count();
    assert!(noise_frames >= 100, "the flood went to its own device only");
    // The LVC instance still works normally.
    let ev = UpdateEvent {
        id: 1,
        topic: Topic::live_video_comments(7),
        object: ObjectId(100),
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
    h.on_pylon_event(&ev, SimTime::ZERO);
    assert_eq!(h.app_counters(AppId::Lvc).unwrap().events_in, 1);
    let fx = h.on_timer("lvc", 0, SimTime::from_secs(2));
    assert!(
        fx.iter().any(|e| matches!(e, HostEffect::Was { .. })),
        "LVC still fetches and serves"
    );
}

#[test]
fn per_app_counters_are_independent() {
    let mut h = host();
    h.on_subscribe(
        DeviceId(1),
        StreamId(1),
        gql_header(1, "subscription { postLikes(postId: 7) }"),
        SimTime::ZERO,
    );
    for i in 0..10u64 {
        let ev = UpdateEvent {
            id: i,
            topic: Topic::new("/Likes/7").unwrap(),
            object: ObjectId(7),
            kind: EventKind::PostLiked,
            meta: EventMeta {
                uid: i,
                ..Default::default()
            },
        };
        h.on_pylon_event(&ev, SimTime::ZERO);
    }
    let likes = h.app_counters(AppId::Likes).unwrap();
    assert_eq!(likes.events_in, 10);
    assert_eq!(likes.decisions, 10);
    assert_eq!(likes.deliveries, 1, "rate-limited counter pushes");
    // Totals aggregate across instances.
    let total = h.total_app_counters();
    assert_eq!(total.events_in, 10);
}
