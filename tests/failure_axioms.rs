//! Integration tests for §4's three failure-handling axioms, exercised
//! through the full system.

use bladerunner_repro::config::SystemConfig;
use bladerunner_repro::fault::{FaultKind, FaultPlan};
use bladerunner_repro::scenario::LiveVideo;
use bladerunner_repro::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};

fn sim(seed: u64) -> SystemSim {
    SystemSim::new(SystemConfig::small(), seed)
}

#[test]
fn axiom1_device_drop_is_detected_and_propagated() {
    // If a client device loses connectivity, the POP detects it and informs
    // the BRASSes servicing its streams (via proxy cancels).
    let mut s = sim(1);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    let poster = s.create_user_device("poster", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(SimTime::from_secs(10));
    s.schedule_device_drop(SimTime::from_secs(11), viewer);
    // Run only briefly: comments posted while dropped find no stream.
    s.post_comment(
        SimTime::from_secs(12),
        poster,
        video,
        "into the dead zone it goes",
    );
    s.run_until(SimTime::from_secs(12));
    assert_eq!(s.metrics().connection_drops.get(), 1);
    // After reconnect (2 s) the stream recovers and deliveries resume.
    s.post_comment(
        SimTime::from_secs(30),
        poster,
        video,
        "back in the land of living",
    );
    s.run_until(SimTime::from_secs(90));
    assert!(s.metrics().deliveries.get() >= 1, "post-reconnect delivery");
}

#[test]
fn axiom2_proxy_repairs_streams_after_brass_failure() {
    let mut s = sim(2);
    let lv = LiveVideo::setup(&mut s, 6, 2, SimTime::ZERO);
    s.run_until(SimTime::from_secs(10));
    // Kill every host once, staggered; each wave forces proxy repairs.
    for h in 0..4usize {
        s.schedule_brass_upgrade(
            SimTime::from_secs(15 + h as u64 * 5),
            h,
            SimDuration::from_secs(60),
        );
    }
    s.run_until(SimTime::from_secs(60));
    assert!(
        s.total_proxy_reconnects() >= 6,
        "every stream repaired at least once: {}",
        s.total_proxy_reconnects()
    );
    // Deliveries continue after the wave.
    s.post_comment(
        SimTime::from_secs(100),
        lv.posters[0],
        lv.video,
        "still streaming after the upgrade wave",
    );
    s.run_until(SimTime::from_secs(140));
    assert!(s.metrics().deliveries.get() >= 6);
}

#[test]
fn axiom3_messenger_state_recovers_via_rewrites() {
    // Reliable apps persist progress in the stream (header rewrites); a
    // BRASS failure plus proxy repair resumes without replaying.
    let mut s = sim(3);
    let alice = s.create_user_device("alice", "en");
    let bob = s.create_user_device("bob", "en");
    let thread = s.was_mut().create_thread(&[alice, bob]);
    s.subscribe_mailbox(SimTime::ZERO, bob);
    for i in 0..4u64 {
        s.send_message(
            SimTime::from_secs(5 + i * 5),
            alice,
            thread,
            &format!("pre {i}"),
        );
    }
    s.run_until(SimTime::from_secs(40));
    let delivered_before = s.metrics().deliveries.get();
    assert_eq!(delivered_before, 4);
    // Kill all hosts briefly: bob's stream is repaired with the rewritten
    // header carrying msgr_seq.
    for h in 0..4usize {
        s.schedule_brass_upgrade(SimTime::from_secs(41), h, SimDuration::from_secs(10));
    }
    for i in 0..3u64 {
        s.send_message(
            SimTime::from_secs(70 + i * 5),
            alice,
            thread,
            &format!("post {i}"),
        );
    }
    s.run_until(SimTime::from_secs(160));
    assert_eq!(
        s.metrics().deliveries.get(),
        7,
        "exactly the three post-failure messages more — no replay, no loss"
    );
}

#[test]
fn pylon_quorum_loss_is_cp_for_subscribes_ap_for_delivery() {
    let mut s = sim(4);
    let video = s.was_mut().create_video("v");
    let video2 = s.was_mut().create_video("v2");
    let established = s.create_user_device("established", "en");
    let late = s.create_user_device("late", "en");
    let poster = s.create_user_device("poster", "en");
    // One viewer subscribes before the outage.
    s.subscribe_lvc(SimTime::ZERO, established, video);
    s.run_until(SimTime::from_secs(5));
    // Partial subscriber-KV outage: probe for a node set that breaks
    // quorum for video2's fresh topic while leaving at least one replica
    // of video1's topic alive (so AP delivery can continue there).
    let topic2 = pylon::Topic::live_video_comments(video2);
    let nodes = s.pylon().config().kv_nodes as u64;
    let mut kill = Vec::new();
    for n in 0..nodes {
        s.pylon_mut().node_down(n);
        kill.push(n);
        if !s.pylon_mut().quorum_available(&topic2) {
            break;
        }
    }
    assert!(
        !s.pylon_mut().quorum_available(&topic2),
        "probe broke quorum"
    );
    for &n in &kill {
        s.pylon_mut().node_up(n);
    }
    for &n in &kill {
        s.schedule_pylon_outage(SimTime::from_secs(6), n, SimDuration::from_secs(40));
    }
    // The late viewer subscribes to a *fresh* topic during the outage, so
    // a new CP quorum write is required (same-topic subscribes would be
    // deduplicated by the host subscription manager): it fails and
    // retries. The established stream keeps receiving (AP).
    s.subscribe_lvc(SimTime::from_secs(10), late, video2);
    s.post_comment(
        SimTime::from_secs(15),
        poster,
        video,
        "published during the outage",
    );
    s.post_comment(
        SimTime::from_secs(15),
        poster,
        video2,
        "unheard during the outage here",
    );
    s.run_until(SimTime::from_secs(40));
    assert!(
        s.metrics().quorum_failures.get() >= 1,
        "CP subscribe failed"
    );
    assert_eq!(
        s.device(established).unwrap().delivered(),
        1,
        "AP delivery continued for the established stream"
    );
    assert_eq!(s.device(late).unwrap().delivered(), 0);
    // After the outage, the (backed-off) retry lands and the late viewer
    // receives: the last retry fires ~74s in, so post after it.
    s.post_comment(
        SimTime::from_secs(90),
        poster,
        video2,
        "published after the recovery",
    );
    s.run_until(SimTime::from_secs(150));
    assert_eq!(s.device(late).unwrap().delivered(), 1, "retry succeeded");
}

#[test]
fn best_effort_drops_are_not_retransmitted_for_lvc() {
    // LVC tolerates loss: a dropped last-mile frame is gone, and nothing
    // crashes or retries (best-effort by design).
    let mut config = SystemConfig::small();
    config.last_mile_drop = 1.0; // every downstream frame is lost
    let mut s = SystemSim::new(config, 5);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    let poster = s.create_user_device("poster", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(
        SimTime::from_secs(5),
        poster,
        video,
        "lost to the void forever",
    );
    s.run_until(SimTime::from_secs(40));
    assert_eq!(s.metrics().deliveries.get(), 0);
    assert!(s.metrics().frames_lost.get() >= 1);
}

#[test]
fn upgrades_preserve_sticky_routing_benefits() {
    // After a repair, the stream keeps working and the device's header
    // carries the (new) serving host.
    let mut s = sim(6);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(SimTime::from_secs(10));
    let before = s
        .device(viewer)
        .unwrap()
        .stream(burst::frame::StreamId(1))
        .unwrap()
        .header()
        .get("brass_host")
        .cloned();
    assert!(before.is_some());
    for h in 0..4usize {
        s.schedule_brass_upgrade(
            SimTime::from_secs(12 + h as u64),
            h,
            SimDuration::from_secs(20),
        );
    }
    s.run_until(SimTime::from_secs(60));
    let after = s
        .device(viewer)
        .unwrap()
        .stream(burst::frame::StreamId(1))
        .unwrap()
        .header()
        .get("brass_host")
        .cloned();
    assert!(after.is_some(), "repaired stream re-patched its host");
}

#[test]
fn redirect_migrates_stream_transparently() {
    // §3.5 "Redirects": the serving BRASS patches new routing info into the
    // header and terminates with Redirect; the device retries and lands on
    // the target host — delivery continues with zero device-side logic.
    let mut s = sim(7);
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    let poster = s.create_user_device("poster", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(SimTime::from_secs(5));
    // Find the serving host from the sticky rewrite the device received.
    let serving = s
        .device(viewer)
        .unwrap()
        .stream(burst::frame::StreamId(1))
        .unwrap()
        .header()
        .get("brass_host")
        .and_then(burst::json::Json::as_u64)
        .expect("sticky host patched") as usize;
    let target = (serving + 1) % 4;
    s.schedule_brass_redirect(
        SimTime::from_secs(6),
        serving,
        viewer,
        burst::frame::StreamId(1),
        target,
    );
    s.run_until(SimTime::from_secs(20));
    // The device's header now points at the target host...
    let now_serving = s
        .device(viewer)
        .unwrap()
        .stream(burst::frame::StreamId(1))
        .unwrap()
        .header()
        .get("brass_host")
        .and_then(burst::json::Json::as_u64)
        .unwrap() as usize;
    assert_eq!(
        now_serving, target,
        "header rewritten to the redirect target"
    );
    // ...and delivery flows through it.
    s.post_comment(
        SimTime::from_secs(25),
        poster,
        video,
        "after the redirect it arrives",
    );
    s.run_until(SimTime::from_secs(60));
    assert_eq!(s.metrics().deliveries.get(), 1);
}

#[test]
fn total_proxy_outage_while_devices_subscribe_converges_after_heal() {
    // Every proxy goes dark at once, and devices subscribe while it lasts.
    // Each POP is left with an empty pool: it keeps every subscribe as an
    // orphan and tells the device `Degraded`, and when the proxies return
    // it repairs the orphans through them.
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    let mut s = SystemSim::new(config.clone(), 8);
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    let viewers: Vec<u64> = (0..8)
        .map(|i| s.create_user_device(&format!("v{i}"), "en"))
        .collect();
    for &v in &viewers[..4] {
        s.subscribe_lvc(SimTime::ZERO, v, video);
    }
    let outage = SimTime::from_secs(10);
    let mut plan = FaultPlan::new();
    for proxy in 0..config.proxies as usize {
        let kind = FaultKind::ProxyOutage {
            proxy,
            down: SimDuration::from_secs(20),
        };
        plan = plan.with(outage, kind);
    }
    plan.apply(&mut s);
    for (i, &v) in viewers[4..].iter().enumerate() {
        s.subscribe_lvc(outage + SimDuration::from_secs(1 + i as u64), v, video);
    }
    s.post_comment(SimTime::from_secs(5), poster, video, "before the dark");
    s.post_comment(SimTime::from_secs(20), poster, video, "while it is dark");
    s.run_until(SimTime::from_secs(25));
    assert!(!(0..config.proxies as usize).any(|p| s.proxy_is_up(p)));

    let heal = plan.heal_time();
    s.post_comment(
        heal + SimDuration::from_secs(30),
        poster,
        video,
        "after the heal",
    );
    s.run_until(heal + SimDuration::from_secs(60));
    let report = s.convergence_report();
    assert!(report.converged(), "{:?}", report.failures());
    assert_eq!(report.connected_devices, 9);
    assert_eq!(report.open_streams, 8, "every viewer's stream is served");
    for &v in &viewers {
        let got = s.device(v).unwrap().delivered();
        assert!(got >= 1, "viewer {v} got the post-heal comment ({got})");
    }
}
