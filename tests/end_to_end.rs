//! Cross-crate integration tests: full update pipelines through every
//! component, one application at a time.

use bladerunner_repro::config::SystemConfig;
use bladerunner_repro::scenario::LiveVideo;
use bladerunner_repro::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Hop, HopOutcome, TraceId};
use std::collections::BTreeSet;

fn sim(seed: u64) -> SystemSim {
    SystemSim::new(SystemConfig::small(), seed)
}

#[test]
fn lvc_pipeline_delivers_to_all_viewers() {
    let mut s = sim(1);
    let lv = LiveVideo::setup(&mut s, 5, 2, SimTime::ZERO);
    s.post_comment(
        SimTime::from_secs(3),
        lv.posters[0],
        lv.video,
        "a comment destined for every viewer present",
    );
    s.run_until(SimTime::from_secs(40));
    assert_eq!(s.metrics().deliveries.get(), 5, "one delivery per viewer");
    for &v in &lv.viewers {
        assert_eq!(s.device(v).unwrap().delivered(), 1);
    }
}

#[test]
fn language_filtering_is_per_viewer() {
    let mut s = sim(2);
    let video = s.was_mut().create_video("v");
    let english = s.create_user_device("english", "en");
    let french = s.create_user_device("french", "fr");
    let poster = s.create_user_device("poster", "en"); // posts in English
    s.subscribe_lvc(SimTime::ZERO, english, video);
    s.subscribe_lvc(SimTime::ZERO, french, video);
    s.post_comment(
        SimTime::from_secs(2),
        poster,
        video,
        "an english comment of agreeable quality",
    );
    s.run_until(SimTime::from_secs(40));
    assert_eq!(s.device(english).unwrap().delivered(), 1);
    assert_eq!(
        s.device(french).unwrap().delivered(),
        0,
        "language mismatch filtered at the BRASS"
    );
}

#[test]
fn privacy_blocks_filter_at_fetch_time() {
    let mut s = sim(3);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    let poster = s.create_user_device("poster", "en");
    s.was_mut().block(viewer, poster, 1);
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(
        SimTime::from_secs(2),
        poster,
        video,
        "the viewer must never see this text",
    );
    s.run_until(SimTime::from_secs(40));
    assert_eq!(s.metrics().deliveries.get(), 0, "blocked author filtered");
    assert!(s.was_mut().counters().privacy_denials >= 1);
}

#[test]
fn typing_indicator_is_bidirectional_pair() {
    let mut s = sim(4);
    let a = s.create_user_device("a", "en");
    let b = s.create_user_device("b", "en");
    let thread = s.was_mut().create_thread(&[a, b]);
    s.subscribe_typing(SimTime::ZERO, a, thread, b);
    s.subscribe_typing(SimTime::ZERO, b, thread, a);
    s.set_typing(SimTime::from_secs(2), a, thread, true);
    s.set_typing(SimTime::from_secs(3), b, thread, true);
    s.run_until(SimTime::from_secs(20));
    assert_eq!(s.device(a).unwrap().delivered(), 1, "a sees b typing");
    assert_eq!(s.device(b).unwrap().delivered(), 1, "b sees a typing");
}

/// One user's two typing updates, closer together than one delivery
/// time, are two updates on one object: each renders under its own trace,
/// and no trace is left unaccounted. (A render attributed by its payload's
/// object named the newer trace for both, and the older one was lost.)
#[test]
fn close_typing_updates_render_under_their_own_traces() {
    let mut s = sim(8);
    let a = s.create_user_device("a", "en");
    let b = s.create_user_device("b", "en");
    let thread = s.was_mut().create_thread(&[a, b]);
    s.subscribe_mailbox(SimTime::ZERO, a);
    s.subscribe_mailbox(SimTime::ZERO, b);
    s.subscribe_typing(SimTime::ZERO, b, thread, a);
    s.set_typing(SimTime::from_secs(2), a, thread, true);
    s.set_typing(SimTime::from_millis(2_050), a, thread, false);
    s.run_until(SimTime::from_secs(30));
    assert_eq!(s.device(b).unwrap().delivered(), 2, "b sees both updates");
    let ledger = s.trace_ledger();
    let admitted: BTreeSet<TraceId> = ledger
        .records()
        .filter(|r| r.hop == Hop::TaoCommit)
        .map(|r| r.trace_id)
        .collect();
    assert_eq!(admitted.len(), 2);
    for trace in admitted {
        let chain = ledger.chain(trace);
        let rendered = chain
            .iter()
            .filter(|r| r.hop == Hop::DeviceRender && r.outcome == HopOutcome::Ok);
        let dropped = chain.iter().any(|r| r.outcome != HopOutcome::Ok);
        assert!(rendered.count() == 1 || dropped, "trace {trace}: {chain:?}");
    }
    assert_eq!(s.convergence_report().unaccounted, Vec::<TraceId>::new());
}

#[test]
fn stories_tray_updates_push_to_friends() {
    let mut s = sim(5);
    let viewer = s.create_user_device("viewer", "en");
    let author = s.create_user_device("author", "en");
    s.was_mut().add_friend(viewer, author, 1);
    s.subscribe_stories(SimTime::ZERO, viewer);
    s.create_story(SimTime::from_secs(3), author, "sunset");
    s.run_until(SimTime::from_secs(30));
    assert!(
        s.device(viewer).unwrap().delivered() >= 1,
        "the new container reached the tray"
    );
}

#[test]
fn active_status_batches() {
    let mut s = sim(6);
    let viewer = s.create_user_device("viewer", "en");
    let friend = s.create_user_device("friend", "en");
    s.was_mut().add_friend(viewer, friend, 1);
    s.subscribe_active_status(SimTime::ZERO, viewer);
    for t in (5..65).step_by(5) {
        s.set_online(SimTime::from_secs(t), friend);
    }
    s.run_until(SimTime::from_secs(120));
    let delivered = s.device(viewer).unwrap().delivered();
    assert!(delivered >= 1, "online status reached the viewer");
    assert!(
        delivered <= 3,
        "12 pings collapse into periodic batches, got {delivered}"
    );
}

#[test]
fn subscription_rewrite_installs_sticky_routing() {
    let mut s = sim(7);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(SimTime::from_secs(10));
    let dev = s.device(viewer).unwrap();
    let stream = dev.stream(burst::frame::StreamId(1)).unwrap();
    assert!(
        stream.header().get("brass_host").is_some(),
        "the accepting BRASS patched its identity into the header"
    );
}

#[test]
fn hot_video_strategy_switch_maintains_delivery() {
    let mut s = sim(8);
    let lv = LiveVideo::setup(&mut s, 3, 3, SimTime::ZERO);
    // Give the viewers some friends so per-poster overflow topics matter.
    for &v in &lv.viewers {
        for &p in &lv.posters {
            s.was_mut().add_friend(v, p, 1);
        }
    }
    s.was_mut()
        .set_video_hot(lv.video, Some(Default::default()));
    lv.drive_comments(
        &mut s,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
        1.0,
    );
    s.run_until(SimTime::from_secs(120));
    assert!(
        s.metrics().deliveries.get() > 0,
        "hot-mode routing still delivers headline comments"
    );
}

#[test]
fn cancels_stop_delivery() {
    let mut s = sim(9);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    let poster = s.create_user_device("poster", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(
        SimTime::from_secs(2),
        poster,
        video,
        "before cancel this arrives",
    );
    s.run_until(SimTime::from_secs(20));
    assert_eq!(s.metrics().deliveries.get(), 1);
    s.cancel_stream(SimTime::from_secs(21), viewer, burst::frame::StreamId(1));
    s.post_comment(
        SimTime::from_secs(30),
        poster,
        video,
        "after cancel this is unheard",
    );
    s.run_until(SimTime::from_secs(60));
    assert_eq!(s.metrics().deliveries.get(), 1, "no delivery after cancel");
}

#[test]
fn device_stream_cap_evicts_oldest() {
    let mut config = SystemConfig::small();
    config.max_streams_per_device = 3;
    let mut s = SystemSim::new(config, 10);
    let viewer = s.create_user_device("viewer", "en");
    for i in 0..5u64 {
        let video = s.was_mut().create_video(&format!("v{i}"));
        s.subscribe_lvc(SimTime::from_secs(i), viewer, video);
    }
    s.run_until(SimTime::from_secs(30));
    assert_eq!(
        s.device(viewer).unwrap().open_streams(),
        3,
        "oldest streams evicted at the cap"
    );
}

#[test]
fn post_likes_aggregate_into_rate_limited_counters() {
    let mut s = sim(11);
    let post = s.was_mut().create_video("a post, reusing the object type");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_likes(SimTime::ZERO, viewer, post);
    // A burst of 30 likes within a few seconds.
    for i in 0..30u64 {
        let liker = s.create_user_device(&format!("liker{i}"), "en");
        s.like_post(SimTime::from_millis(2_000 + i * 100), liker, post);
    }
    s.run_until(SimTime::from_secs(60));
    let delivered = s.device(viewer).unwrap().delivered();
    assert!(delivered >= 2, "counter pushes arrived: {delivered}");
    assert!(
        delivered <= 6,
        "30 likes collapse into a handful of counter pushes: {delivered}"
    );
    assert!(s.total_decisions() >= 30, "every like was a decision");
}

#[test]
fn topic_routing_curtails_pylon_subscriptions() {
    // §3.2: "For applications with low fanout, routing is typically based
    // on topic, so as to curtail the number of subscriptions maintained by
    // Pylon" — all watchers of one topic land on one host, which holds a
    // single Pylon subscription; load routing spreads them over the fleet.
    use edge::proxy::RouteStrategy;
    let run = |strategy: RouteStrategy| {
        let mut config = SystemConfig::small();
        config.route_strategy = strategy;
        config.pops = 1; // a single edge path keeps proxy choice fixed
        config.proxies = 1;
        let mut s = SystemSim::new(config, 12);
        let video = s.was_mut().create_video("v");
        for i in 0..12 {
            let d = s.create_user_device(&format!("d{i}"), "en");
            s.subscribe_lvc(SimTime::from_millis(i * 10), d, video);
        }
        s.run_until(SimTime::from_secs(20));
        s.pylon().counters().subscribes
    };
    let by_topic = run(RouteStrategy::ByTopic);
    let by_load = run(RouteStrategy::ByLoad);
    assert_eq!(by_topic, 1, "one host, one Pylon subscription");
    assert!(
        by_load > 1,
        "load routing spreads watchers across hosts: {by_load} subscriptions"
    );
}

#[test]
fn viral_post_notifications_coalesce() {
    let mut s = sim(13);
    let owner = s.create_user_device("owner", "en");
    let post = s.was_mut().create_post(owner, "going viral today");
    s.subscribe_notifications(SimTime::ZERO, owner);
    // 40 fans like the post within two seconds.
    for i in 0..40u64 {
        let fan = s.create_user_device(&format!("fan{i}"), "en");
        s.like_post(SimTime::from_millis(3_000 + i * 50), fan, post);
    }
    s.run_until(SimTime::from_secs(60));
    let delivered = s.device(owner).unwrap().delivered();
    assert!(delivered >= 1, "the owner heard about it");
    assert!(
        delivered <= 4,
        "40 likes coalesce into a handful of notifications: {delivered}"
    );
    assert!(s.total_decisions() >= 40);
}
