//! A resubscribe of a live `(device, sid)` replaces the stream it names.
//! Whatever the replaced incarnation held — Pylon topic references, a
//! timer chain — is released, so that once the stream is cancelled the
//! host holds nothing for it.

use std::collections::BTreeMap;

use brass::app::{DeviceId, WasRequest, WasResponse};
use brass::host::{BrassHost, HostConfig, HostEffect};
use burst::frame::StreamId;
use burst::json::Json;
use pylon::Topic;
use simkit::time::SimTime;

/// A host driven to quiescence at each step: every WAS request is answered
/// at once (friend lists name `friends`, users 2 and 3 unless a test
/// changes them; mailboxes are empty), every timer is queued, and Pylon
/// (un)subscriptions are counted per topic.
struct Driven {
    host: BrassHost,
    now: SimTime,
    friends: Vec<u64>,
    timers: Vec<(SimTime, &'static str, u64)>,
    subscribes: BTreeMap<Topic, u32>,
    unsubscribes: BTreeMap<Topic, u32>,
}

impl Driven {
    fn new() -> Self {
        let mut host = BrassHost::new(HostConfig::small(1));
        host.register_standard_apps();
        Driven {
            host,
            now: SimTime::ZERO,
            friends: vec![2, 3],
            timers: Vec::new(),
            subscribes: BTreeMap::new(),
            unsubscribes: BTreeMap::new(),
        }
    }

    fn absorb(&mut self, mut effects: Vec<HostEffect>) {
        while let Some(effect) = effects.pop() {
            match effect {
                HostEffect::PylonSubscribe(t) => *self.subscribes.entry(t).or_default() += 1,
                HostEffect::PylonUnsubscribe(t) => *self.unsubscribes.entry(t).or_default() += 1,
                HostEffect::Timer { at, app, token } => self.timers.push((at, app, token)),
                HostEffect::Was {
                    app,
                    token,
                    request,
                } => {
                    let response = match request {
                        WasRequest::Friends { .. } => WasResponse::Friends(self.friends.clone()),
                        WasRequest::MailboxAfter { .. } => WasResponse::Mailbox(Vec::new()),
                        WasRequest::FetchObject { .. } => WasResponse::NotFound,
                    };
                    let fx = self.host.on_was_response(app, token, response, self.now);
                    effects.extend(fx);
                }
                HostEffect::Send { .. } | HostEffect::DropUpdate { .. } => {}
            }
        }
    }

    fn subscribe(&mut self, header: &Json) {
        let fx = self
            .host
            .on_subscribe(DeviceId(1), StreamId(1), header.clone(), self.now);
        self.absorb(fx);
    }

    /// Fires every queued timer due by `until`, in time order.
    fn run_until(&mut self, until: SimTime) {
        while let Some(next) = (0..self.timers.len()).min_by_key(|&i| self.timers[i].0) {
            let (at, app, token) = self.timers[next];
            if at > until {
                break;
            }
            self.timers.swap_remove(next);
            self.now = at;
            let fx = self.host.on_timer(app, token, at);
            self.absorb(fx);
        }
        self.now = until;
    }
}

fn header(gql: &str) -> Json {
    Json::obj([("viewer", Json::from(9u64)), ("gql", Json::from(gql))])
}

#[test]
fn a_resubscribed_then_cancelled_stream_leaves_nothing_behind() {
    let apps = [
        "subscription { liveVideoComments(videoId: 42) }",
        "subscription { typingIndicator(threadId: 5, counterpartyId: 6) }",
        "subscription { activeStatus }",
        "subscription { storiesTray }",
        "subscription { mailbox(uid: 9) }",
        "subscription { postLikes(postId: 5) }",
        "subscription { notifications }",
    ];
    let secs = SimTime::from_secs;
    for gql in apps {
        let mut d = Driven::new();
        d.subscribe(&header(gql));
        d.run_until(secs(3));
        d.subscribe(&header(gql));
        d.run_until(secs(33));
        assert!(
            d.timers.len() <= 1,
            "{gql}: {} armed chains",
            d.timers.len()
        );
        let mut out = Vec::new();
        d.host
            .on_cancel_into(DeviceId(1), StreamId(1), d.now, &mut out);
        d.absorb(out);
        d.run_until(secs(90));
        assert!(d.timers.is_empty(), "{gql}: a chain outlived the stream");
        assert!(!d.subscribes.is_empty(), "{gql}: subscribed to nothing");
        for (topic, n) in &d.subscribes {
            assert_eq!(*n, 1, "{gql}: {topic} subscribed {n} times");
            assert!(!d.host.watches(*topic), "{gql}: {topic} still held");
        }
        assert_eq!(
            d.unsubscribes, d.subscribes,
            "{gql}: one Pylon unsubscribe per topic"
        );
    }
}

/// A resubscribe whose friend list shrank releases the friend it dropped,
/// and only that friend: the kept one's topic sees no Pylon effect.
#[test]
fn a_resubscribe_whose_friend_list_shrank_releases_the_dropped_friend() {
    let apps = [
        ("subscription { activeStatus }", "Status"),
        ("subscription { storiesTray }", "Stories"),
    ];
    for (gql, family) in apps {
        let topic = |uid: u64| Topic::new(&format!("/{family}/{uid}")).unwrap();
        let mut d = Driven::new();
        d.subscribe(&header(gql));
        let both = BTreeMap::from([(topic(2), 1), (topic(3), 1)]);
        assert_eq!(d.subscribes, both, "{gql}");
        d.subscribes.clear();
        d.friends = vec![2];
        d.subscribe(&header(gql));
        assert!(d.subscribes.is_empty(), "{gql}: {:?}", d.subscribes);
        let dropped = BTreeMap::from([(topic(3), 1)]);
        assert_eq!(d.unsubscribes, dropped, "{gql}");
        assert!(
            d.host.watches(topic(2)) && !d.host.watches(topic(3)),
            "{gql}"
        );
    }
}

impl Driven {
    /// Asserts the host holds nothing for the stream: no stream, no topic,
    /// one Pylon unsubscribe per subscribe, and no timer chain once the
    /// clock runs on.
    fn assert_released(&mut self, case: &str) {
        assert_eq!(self.host.stream_count(), 0, "{case}: a stream is left");
        assert!(!self.subscribes.is_empty(), "{case}: subscribed to nothing");
        for topic in self.subscribes.keys() {
            assert!(!self.host.watches(*topic), "{case}: {topic} still held");
        }
        assert_eq!(self.unsubscribes, self.subscribes, "{case}");
        self.run_until(self.now + simkit::time::SimDuration::from_secs(90));
        assert!(
            self.timers.is_empty(),
            "{case}: a chain outlived the stream"
        );
    }
}

/// A live key resubscribed to another application is closed in the first:
/// it no longer holds its topic, and once the key is cancelled neither
/// application holds anything.
#[test]
fn a_live_key_taken_over_by_another_app_is_closed_in_the_first() {
    let mut d = Driven::new();
    d.subscribe(&header("subscription { liveVideoComments(videoId: 5) }"));
    d.subscribe(&header("subscription { postLikes(postId: 5) }"));
    let lvc = Topic::live_video_comments(5);
    assert!(!d.host.watches(lvc), "the replaced LVC stream holds {lvc}");
    assert_eq!(d.host.stream_count(), 1);
    let mut out = Vec::new();
    d.host
        .on_cancel_into(DeviceId(1), StreamId(1), d.now, &mut out);
    d.absorb(out);
    d.assert_released("lvc, then likes");
}

/// A live key whose resubscribe is refused — by its own application, or
/// because the header does not resolve — ends whole: the host terminates
/// it, and the application releases what the old incarnation held.
#[test]
fn a_refused_live_key_resubscribe_releases_the_old_stream() {
    let apps = [
        ("subscription { postLikes(postId: 5) }", "likes"),
        ("subscription { notifications }", "notifications"),
        ("subscription { liveVideoComments(videoId: 5) }", "lvc"),
        ("subscription { mailbox(uid: 9) }", "messenger"),
    ];
    for (gql, app) in apps {
        // The application's own name on a topic outside its family, and
        // a header with no viewer.
        let foreign = Json::obj([
            ("viewer", Json::from(9u64)),
            ("app", Json::from(app)),
            ("topic", Json::from("/Unwatched/1")),
        ]);
        let unresolvable = Json::obj([("gql", Json::from(gql))]);
        for refusal in [foreign, unresolvable] {
            let mut d = Driven::new();
            d.subscribe(&header(gql));
            d.subscribe(&refusal);
            d.assert_released(&format!("{app}, refused by {refusal}"));
        }
    }
}
