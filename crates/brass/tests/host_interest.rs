//! The host's Pylon subscription manager against a model of the open
//! streams: several applications on one host declare overlapping topics
//! while streams subscribe, resubscribe their live key (to the same
//! application or another, which may refuse it), cancel and are
//! redirected, and Pylon events arrive. After every step the topics the
//! host's Pylon effects leave subscribed are the union of the topics the
//! open streams declare, no topic is subscribed twice without an
//! unsubscribe between, and an event reaches exactly the instances that
//! hold its topic.

use std::collections::{BTreeMap, BTreeSet};

use brass::app::DeviceId;
use brass::host::{BrassHost, HostConfig, HostEffect};
use burst::frame::StreamId;
use burst::json::Json;
use proptest::prelude::*;
use pylon::Topic;
use simkit::time::SimTime;
use tao::ObjectId;
use was::event::{EventKind, EventMeta};
use was::UpdateEvent;

/// Applications that declare exactly the topic their header names.
const APPS: [&str; 4] = ["likes", "lvc", "notifications", "typing"];

/// The topics streams declare, then one no stream declares. Each family's
/// application accepts only its own; typing accepts any, so it shares
/// each with another application.
const TOPICS: [&str; 5] = ["/LVC/1", "/LVC/2", "/Likes/1", "/Notif/1", "/Unwatched/1"];

fn topic(t: usize) -> Topic {
    Topic::new(TOPICS[t]).expect("a valid topic")
}

/// Whether `APPS[app]` accepts a stream on `TOPICS[t]`.
fn accepts(app: usize, t: usize) -> bool {
    match APPS[app] {
        "typing" => t + 1 < TOPICS.len(),
        "likes" => TOPICS[t].starts_with("/Likes/"),
        "lvc" => TOPICS[t].starts_with("/LVC/"),
        _ => TOPICS[t].starts_with("/Notif/"),
    }
}

/// The `k`th topic `APPS[app]` accepts, cycling.
fn topic_for(app: usize, k: usize) -> usize {
    let accepted: Vec<usize> = (0..TOPICS.len()).filter(|&t| accepts(app, t)).collect();
    accepted[k % accepted.len()]
}

/// One step, on the stream `(device, 1)`.
#[derive(Clone, Debug)]
enum Op {
    /// A closed key subscribes to `APPS[app]` on the `k`th topic it takes.
    Subscribe(u64, usize, usize),
    /// An open key subscribes again, to its own application, on the `k`th
    /// topic it takes.
    Resubscribe(u64, usize),
    /// An open key subscribes again to `APPS[app]` on `TOPICS[t]`: another
    /// application takes the key over, or the application refuses the
    /// topic and the stream ends.
    ResubscribeAs(u64, usize, usize),
    Cancel(u64),
    Redirect(u64),
    /// A Pylon event on `TOPICS[t]`.
    Event(usize),
}

fn op() -> impl Strategy<Value = Op> {
    let device = || 0u64..5;
    let k = || 0usize..4;
    prop_oneof![
        (device(), 0..APPS.len(), k()).prop_map(|(d, a, k)| Op::Subscribe(d, a, k)),
        (device(), k()).prop_map(|(d, k)| Op::Resubscribe(d, k)),
        (device(), 0..APPS.len(), 0..TOPICS.len() - 1)
            .prop_map(|(d, a, t)| Op::ResubscribeAs(d, a, t)),
        device().prop_map(Op::Cancel),
        device().prop_map(Op::Redirect),
        (0..TOPICS.len()).prop_map(Op::Event),
    ]
}

/// A pre-resolved subscribe header: the application and its one topic.
fn header(device: u64, app: usize, t: usize) -> Json {
    Json::obj([
        ("viewer", Json::from(device)),
        ("app", Json::from(APPS[app])),
        ("topic", Json::from(TOPICS[t])),
    ])
}

fn event(id: u64, t: usize) -> UpdateEvent {
    UpdateEvent {
        id,
        topic: topic(t),
        object: ObjectId(id),
        kind: EventKind::Generic,
        meta: EventMeta::default(),
    }
}

fn events_in(host: &BrassHost) -> Vec<u64> {
    let count = |app| host.app_counters(app).map_or(0, |c| c.events_in);
    APPS.iter().map(|&app| count(app)).collect()
}

proptest! {
    #[test]
    fn pylon_interest_is_the_union_of_the_open_streams_topics(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let mut host = BrassHost::new(HostConfig::small(1));
        host.register_standard_apps();
        let now = SimTime::ZERO;
        let sid = StreamId(1);
        // Open streams: device → (application, topic).
        let mut open: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        let mut subscribed: BTreeSet<Topic> = BTreeSet::new();
        for (step, op) in ops.into_iter().enumerate() {
            let mut out = Vec::new();
            match op {
                Op::Subscribe(d, app, k) => {
                    if open.contains_key(&d) {
                        continue;
                    }
                    let t = topic_for(app, k);
                    host.on_subscribe_into(DeviceId(d), sid, header(d, app, t), now, &mut out);
                    open.insert(d, (app, t));
                }
                Op::Resubscribe(d, k) => {
                    let Some(held) = open.get_mut(&d) else { continue };
                    let t = topic_for(held.0, k);
                    host.on_subscribe_into(DeviceId(d), sid, header(d, held.0, t), now, &mut out);
                    held.1 = t;
                }
                Op::ResubscribeAs(d, app, t) => {
                    if !open.contains_key(&d) {
                        continue;
                    }
                    host.on_subscribe_into(DeviceId(d), sid, header(d, app, t), now, &mut out);
                    if accepts(app, t) {
                        open.insert(d, (app, t));
                    } else {
                        open.remove(&d);
                    }
                }
                Op::Cancel(d) => {
                    host.on_cancel_into(DeviceId(d), sid, now, &mut out);
                    open.remove(&d);
                }
                Op::Redirect(d) => {
                    host.redirect_stream_into(DeviceId(d), sid, 2, now, &mut out);
                    open.remove(&d);
                }
                Op::Event(t) => {
                    let before = events_in(&host);
                    host.on_pylon_event_into(&event(step as u64, t), now, &mut out);
                    let reached: Vec<u64> = events_in(&host)
                        .iter()
                        .zip(&before)
                        .map(|(after, before)| after - before)
                        .collect();
                    let holders: Vec<u64> = (0..APPS.len())
                        .map(|app| u64::from(open.values().any(|&held| held == (app, t))))
                        .collect();
                    prop_assert_eq!(reached, holders, "event on {} at step {}", topic(t), step);
                }
            }
            for effect in out {
                match effect {
                    HostEffect::PylonSubscribe(t) => {
                        prop_assert!(subscribed.insert(t), "{} subscribed twice at step {}", t, step);
                    }
                    HostEffect::PylonUnsubscribe(t) => {
                        prop_assert!(subscribed.remove(&t), "{} unsubscribed unheld at step {}", t, step);
                    }
                    _ => {}
                }
            }
            let declared: BTreeSet<Topic> = open.values().map(|&(_, t)| topic(t)).collect();
            prop_assert_eq!(&subscribed, &declared, "after step {}", step);
        }
    }
}
