//! Chaos-harness integration: heartbeat-driven failure detection, fault
//! plans, and post-heal convergence.

use bladerunner::config::SystemConfig;
use bladerunner::fault::{canned_plan, FaultKind, FaultPlan};
use bladerunner::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A small config with a tight metrics tick so the availability timeline
/// actually samples during short chaos runs.
fn chaos_config() -> SystemConfig {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    config
}

/// The acceptance test: an *unplanned* BRASS crash is learned
/// of exclusively through missed heartbeat pongs — no repair happens
/// before the miss threshold, and the crashed host's streams land on a
/// healthy host within the detection window.
#[test]
fn unplanned_crash_is_detected_and_repaired_by_heartbeats_only() {
    let mut s = SystemSim::new(chaos_config(), 7);
    let video = s.was_mut().create_video("eclipse");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(secs(10));

    let sid = s.device(viewer).expect("viewer exists").open_sids()[0];
    let serving: Vec<usize> = (0..4)
        .filter(|&h| s.host_stream_keys(h).contains(&(viewer, sid)))
        .collect();
    assert_eq!(serving.len(), 1, "exactly one host serves the stream");
    let dead = serving[0];

    // Crash at t=12s. Heartbeats are 5s apart with a 3-miss threshold, so
    // the proxy cannot declare the host dead before ~t=30s.
    let crash_at = secs(12);
    s.schedule_brass_crash(crash_at, dead, dur(120));
    let reconnects_before = s.total_proxy_reconnects();

    // Just before the miss threshold: nobody has been told, nothing moved.
    s.run_until(secs(27));
    assert!(!s.host_is_up(dead), "host is down");
    assert_eq!(
        s.total_proxy_reconnects(),
        reconnects_before,
        "no omniscient teardown: repair cannot precede heartbeat detection"
    );
    assert_eq!(s.metrics().host_failures_detected.get(), 0);

    // Within interval × (misses + 2) of the crash the proxy has crossed
    // the miss threshold, declared the host dead, and repaired the stream
    // onto a healthy host.
    s.run_until(crash_at + SimDuration::from_secs(5 * 5));
    assert!(
        s.metrics().host_failures_detected.get() >= 1,
        "heartbeat monitors declared the crashed host dead"
    );
    assert!(
        s.total_proxy_reconnects() > reconnects_before,
        "the dead host's stream was repaired"
    );
    let rehomed: Vec<usize> = (0..4)
        .filter(|&h| h != dead && s.host_stream_keys(h).contains(&(viewer, sid)))
        .collect();
    assert_eq!(
        rehomed.len(),
        1,
        "stream re-homed onto exactly one healthy host"
    );

    // Deliveries flow over the repaired stream.
    s.post_comment(secs(45), poster, video, "back from the dead");
    s.run_until(secs(90));
    assert_eq!(s.metrics().deliveries.get(), 1, "post-repair delivery");
    assert_eq!(s.metrics().host_crashes.get(), 1);
}

/// A canned plan covering all six fault kinds converges: after the last
/// episode heals (plus grace), every connected device's streams are live
/// on healthy hosts and the ledger accounts for every admitted update.
#[test]
fn mixed_fault_plan_converges_after_healing() {
    let mut s = SystemSim::new(chaos_config(), 21);
    let video = s.was_mut().create_video("marathon");
    let poster = s.create_user_device("poster", "en");
    let viewers: Vec<u64> = (0..10)
        .map(|i| s.create_user_device(&format!("v{i}"), "en"))
        .collect();
    for (i, &v) in viewers.iter().enumerate() {
        s.subscribe_lvc(SimTime::from_millis(200 * i as u64), v, video);
    }

    let mut plan_rng = s.rng_mut().fork(0xFA);
    let plan = canned_plan(secs(30), &chaos_config(), &viewers, &mut plan_rng);
    assert!(
        plan.kinds().len() >= 5,
        "plan covers at least 5 fault kinds"
    );
    plan.apply(&mut s);

    // Keep publishing throughout the chaos so the ledger has updates in
    // flight during every episode.
    let heal = plan.heal_time();
    let mut t = 5u64;
    while secs(t) < heal {
        s.post_comment(secs(t), poster, video, "still going");
        t += 15;
    }

    // Last episode heals, then a grace period: detection windows close,
    // reconnect backoffs drain, backfills land.
    let end = heal + dur(60);
    s.run_until(end);

    let report = s.convergence_report();
    assert!(
        report.converged(),
        "post-heal convergence failed: {:?}",
        report.failures()
    );
    assert_eq!(report.connected_devices, 11, "everyone reconnected");
    assert!(report.open_streams >= 10, "viewers' streams are live");
    assert!(report.delivered > 0, "updates delivered during the run");

    // Every episode actually fired.
    let m = s.metrics();
    assert!(m.host_crashes.get() >= 1, "crash episode ran");
    assert!(m.proxy_outages.get() >= 1, "proxy outage ran");
    assert!(m.device_vanishes.get() >= 1, "reconnect storm ran");
    assert!(m.connection_drops.get() >= 4, "device flaps ran");
    assert!(m.host_failures_detected.get() >= 1, "crash was detected");
    assert!(m.hb_pings.get() > 0, "proxies were pinging hosts");

    // The availability timeline sampled the whole run and dipped under
    // fault before recovering.
    let (min_avail, mean_avail) = m.availability_stats(secs(30), heal);
    assert!(min_avail < 1.0, "faults dented availability");
    assert!(mean_avail > 0.5, "system stayed mostly available");
    let (post_min, _) = m.availability_stats(end.max(heal + dur(40)), end);
    assert!(
        post_min > 0.999,
        "availability reconverged to 1.0 (got {post_min})"
    );
}

/// An update published while its only viewer has silently vanished is
/// not lost: the frame's trace is remembered, and the reconnect's WAS
/// backfill poll recovers it, so the ledger accounts it as backfilled.
#[test]
fn silently_lost_update_is_recovered_by_was_backfill() {
    let mut s = SystemSim::new(chaos_config(), 11);
    let video = s.was_mut().create_video("ghost");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);

    // The comment posted at 10.3s reaches the last mile about 2.3s later.
    // The viewer vanishes silently at 12s — just before the frame lands —
    // and the server, unaware, sends into the void. Reconnect backoff
    // (2s base + jitter) brings the device back after the frame is gone.
    s.post_comment(SimTime::from_millis(10_300), poster, video, "into the void");
    s.schedule_device_vanish(secs(12), viewer);
    s.run_until(secs(40));

    assert_eq!(s.metrics().deliveries.get(), 0, "the render never happened");
    assert!(
        s.metrics().backfills.get() >= 1,
        "the lost update was recovered out-of-band"
    );
    let report = s.convergence_report();
    assert!(report.backfilled >= 1, "ledger shows the backfill");
    assert!(
        report.converged(),
        "accounting has no holes: {:?}",
        report.failures()
    );
}

/// A partition that outlives eight retry attempts: the capped backoff
/// keeps retrying (the old code silently gave up after attempt 8 — and an
/// unclamped shift would overflow at attempt 64) and the subscribe lands
/// once quorum returns.
#[test]
fn long_pylon_partition_retries_until_quorum_returns() {
    let mut s = SystemSim::new(chaos_config(), 13);
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    let nodes: Vec<u64> = (0..s.pylon().config().kv_nodes as u64).collect();
    let plan = FaultPlan::new().with(
        SimTime::ZERO,
        FaultKind::PylonPartition {
            nodes,
            down: dur(290),
        },
    );
    plan.apply(&mut s);
    s.subscribe_lvc(secs(5), viewer, video);
    s.run_until(secs(320));
    assert!(
        s.metrics().quorum_failures.get() >= 10,
        "retries continued past the old 8-attempt cliff (got {})",
        s.metrics().quorum_failures.get()
    );
    // Quorum healed at 290s; the pending retry lands within one backoff cap.
    s.post_comment(secs(330), poster, video, "finally");
    s.run_until(secs(400));
    assert_eq!(
        s.metrics().deliveries.get(),
        1,
        "subscription recovered after the partition healed"
    );
}

/// Silent device loss (a reconnect storm) converges: POP heartbeats or
/// the devices' own backoff reconnects clean up server-side state, and
/// repeated drops back off instead of hammering in lockstep.
#[test]
fn reconnect_storm_converges_with_backoff() {
    let mut s = SystemSim::new(chaos_config(), 5);
    let video = s.was_mut().create_video("storm");
    let poster = s.create_user_device("poster", "en");
    let viewers: Vec<u64> = (0..6)
        .map(|i| s.create_user_device(&format!("v{i}"), "en"))
        .collect();
    for &v in &viewers {
        s.subscribe_lvc(SimTime::ZERO, v, video);
    }
    let plan = FaultPlan::new()
        .with(
            secs(20),
            FaultKind::ReconnectStorm {
                devices: viewers.clone(),
            },
        )
        .with(
            secs(40),
            FaultKind::ReconnectStorm {
                devices: viewers.clone(),
            },
        );
    plan.apply(&mut s);
    s.post_comment(secs(80), poster, video, "after the storm");
    s.run_until(secs(140));
    assert_eq!(s.metrics().device_vanishes.get(), 12);
    let report = s.convergence_report();
    assert!(
        report.converged(),
        "storm did not converge: {:?}",
        report.failures()
    );
    assert_eq!(
        s.metrics().deliveries.get(),
        6,
        "every viewer got the post-storm comment"
    );
}
