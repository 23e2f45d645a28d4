//! Flash-crowd overload: the graceful-shed guarantee, end to end.
//!
//! Above-capacity load must degrade *gracefully*: admitted updates keep a
//! bounded tail latency, everything shed is attributed to a named reason in
//! the hop ledger (rate-limit, ranked-buffer overflow, mailbox overflow,
//! flow-control Degraded), and overload alone never masquerades as a
//! failure — no unaccounted traces, no unbounded queues, and no BRASS host
//! falsely declared dead just because its pong is stuck behind a backlog.

use bladerunner::config::LinkClass;
use bladerunner::scenario::FlashCrowd;
use bladerunner::{SystemConfig, SystemSim};
use brass::AppId;
use burst::heartbeat::{INTERVAL_US, MISSES};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop};

/// Sums the ledger's drop table for one reason across all hops.
fn drops_for(sim: &SystemSim, reason: DropReason) -> u64 {
    sim.trace_ledger()
        .drop_table()
        .iter()
        .filter(|(_, r, _)| *r == reason)
        .map(|(_, _, n)| *n)
        .sum()
}

/// The tentpole invariant: a flash crowd at ~6x per-host capacity sheds the
/// excess with full attribution while the admitted stream stays bounded.
#[test]
fn overload_sheds_gracefully_with_full_attribution() {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    // 20 ms per update => 50 updates/s/host; cap the mailbox at 25 queued
    // (0.5 s of backlog) so overflow — not an unbounded queue — absorbs the
    // excess, and keep a small egress window in play.
    config.brass_service_us = 20_000;
    config.brass_mailbox_capacity = 25;
    config.egress_window_bytes = 256;
    let mut s = SystemSim::new(config, 77);

    let fc = FlashCrowd::setup(
        &mut s,
        12,
        3,
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
    );
    // ~300 comments/s offered against 4 hosts x 50/s = 200/s of capacity.
    let posted = fc.drive_storm(
        &mut s,
        SimTime::from_secs(4),
        SimDuration::from_secs(15),
        300.0,
    );
    assert!(posted > 1_000, "storm too small to overload: {posted}");
    s.run_until(SimTime::from_secs(120));

    let m = s.metrics().clone();
    let report = s.convergence_report();
    assert!(report.converged(), "failures: {:?}", report.failures());
    assert!(
        s.trace_ledger().unaccounted().is_empty(),
        "every shed update must carry a ledger attribution"
    );

    // The mailbox cap actually engaged, and every shed it reports shows up
    // in the ledger under the mailbox_overflow reason.
    let shed = m.mailbox_sheds.get();
    assert!(shed > 0, "a 1.5x-capacity storm must overflow the mailbox");
    assert_eq!(
        drops_for(&s, DropReason::MailboxOverflow),
        shed,
        "mailbox sheds and ledger attribution must agree"
    );
    // The queue is bounded by the configured cap, never unbounded.
    assert!(
        m.q_brass_mailbox.peak() <= 25,
        "mailbox depth {} exceeded its cap",
        m.q_brass_mailbox.peak()
    );

    // Pure overload is not a failure: no host crashed, so none may be
    // detected as crashed, and no device may end up stuck flow-degraded.
    assert_eq!(m.host_crashes.get(), 0);
    assert_eq!(
        m.host_failures_detected.get(),
        0,
        "overload backlog must not trip heartbeat failure detection"
    );
    assert_eq!(
        m.flow_degraded_signals.get(),
        m.flow_recovered_signals.get(),
        "every Degraded flow notice must be matched by a Recovered one"
    );

    // Admitted updates stay bounded: the worst case is the LVC ranked-buffer
    // batching baseline (~11 s) plus the 0.5 s mailbox bound plus slack.
    let lvc = m.app_latencies(AppId::Lvc).unwrap();
    assert!(lvc.total.count() > 0, "some updates must still be admitted");
    let p99_ms = lvc.total.quantile(0.99) / 1_000.0;
    assert!(
        p99_ms < 15_000.0,
        "admitted-update p99 {p99_ms:.0} ms is not bounded"
    );
}

/// Satellite: heartbeat starvation. With an *unbounded* mailbox and a storm
/// far above capacity, pong responses queue behind tens of seconds of
/// backlog — well past the misses x interval detection threshold. The data
/// frames still draining through the proxy must credit host liveness, so a
/// merely-slow host is never declared dead.
#[test]
fn pure_overload_never_declares_hosts_dead() {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    // 50 ms per update => 20 updates/s/host, no mailbox cap: backlog grows.
    config.brass_service_us = 50_000;
    config.brass_mailbox_capacity = 0;
    let mut s = SystemSim::new(config.clone(), 5);

    let fc = FlashCrowd::setup(&mut s, 6, 2, SimTime::from_secs(1), SimDuration::ZERO);
    // 40/s offered per host-reachable topic vs 20/s service for 20 s: the
    // backlog peaks around 20 s — beyond the 15 s (3 x 5 s) death threshold.
    fc.drive_storm(
        &mut s,
        SimTime::from_secs(3),
        SimDuration::from_secs(20),
        40.0,
    );
    s.run_until(SimTime::from_secs(180));

    let m = s.metrics().clone();
    let threshold_depth = (INTERVAL_US * u64::from(MISSES)) / config.brass_service_us;
    assert!(
        m.q_brass_mailbox.peak() > threshold_depth,
        "backlog peak {} never crossed the detection threshold ({}), the \
         scenario is not actually starving heartbeats",
        m.q_brass_mailbox.peak(),
        threshold_depth
    );
    assert_eq!(m.host_crashes.get(), 0, "nothing actually crashed");
    assert_eq!(
        m.host_failures_detected.get(),
        0,
        "a backlogged-but-alive host was falsely declared dead"
    );
    let report = s.convergence_report();
    assert!(report.converged(), "failures: {:?}", report.failures());
}

/// Satellite: ranked-buffer overload. Ten times the buffer capacity arrives
/// inside one flush window; every displaced update must surface in the
/// ledger as a buffer_overflow drop, with nothing unaccounted.
#[test]
fn ranked_buffer_overload_accounts_for_every_displaced_update() {
    let mut s = SystemSim::new(SystemConfig::small(), 21);
    let video = s.was_mut().create_video("hot-thread");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    // LVC's ranked buffer holds 5 comments per stream; 50 land within half
    // a second — 10x capacity inside a single 2 s push interval.
    for i in 0..50 {
        s.post_comment(
            SimTime::from_millis(2_000 + i * 10),
            poster,
            video,
            &format!("pile-on comment {i}"),
        );
    }
    s.run_until(SimTime::from_secs(60));

    let ledger = s.trace_ledger().clone();
    assert!(
        ledger.unaccounted().is_empty(),
        "displaced updates must not vanish without attribution"
    );
    let displaced: u64 = ledger
        .drop_table()
        .iter()
        .filter(|(hop, r, _)| *hop == Hop::BrassProcess && *r == DropReason::BufferOverflow)
        .map(|(_, _, n)| *n)
        .sum();
    assert!(
        displaced >= 30,
        "expected most of the 10x burst displaced as buffer_overflow, got {displaced}"
    );
    assert!(
        ledger.delivered_count() > 0,
        "the surviving top-ranked comments must still be delivered"
    );
    // Complete accounting at 10x: delivery, an attributed drop, or a
    // backfill — for all 50 updates.
    assert_eq!(ledger.trace_count(), 50);
}

/// Satellite: flow-control sheds. A tiny egress window over slow last-mile
/// links forces BURST to shed frames for a flow-degraded device; every shed
/// is attributed to flow_control, every Degraded notice is followed by a
/// Recovered one, and no device finishes the run stuck degraded.
#[test]
fn flow_control_sheds_are_attributed_and_recovered() {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    config.egress_window_bytes = 96;
    config.link_mix = vec![(LinkClass::Slow, 1.0)];
    let mut s = SystemSim::new(config, 11);

    // One viewer on three streams: the per-stream flush timers align, so
    // several response frames hit the 96-byte window back to back.
    let videos: Vec<u64> = (0..3)
        .map(|i| s.was_mut().create_video(&format!("live{i}")))
        .collect();
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    for &v in &videos {
        s.subscribe_lvc(SimTime::ZERO, viewer, v);
    }
    for i in 0..40u64 {
        s.post_comment(
            SimTime::from_millis(2_000 + i * 250),
            poster,
            videos[(i % 3) as usize],
            &format!("storm comment {i}"),
        );
    }
    s.run_until(SimTime::from_secs(120));

    let m = s.metrics().clone();
    assert!(
        m.flow_sheds.get() > 0,
        "a 96-byte window over slow links must shed at least one frame"
    );
    assert_eq!(
        drops_for(&s, DropReason::FlowControl),
        m.flow_sheds.get(),
        "flow sheds and ledger attribution must agree"
    );
    assert!(
        m.flow_degraded_signals.get() > 0,
        "Degraded never signalled"
    );
    assert_eq!(
        m.flow_degraded_signals.get(),
        m.flow_recovered_signals.get(),
        "hysteresis must close every Degraded with a Recovered"
    );
    let report = s.convergence_report();
    assert_eq!(report.flow_degraded_devices, 0, "device stuck degraded");
    assert!(report.converged(), "failures: {:?}", report.failures());
    assert!(
        s.trace_ledger().unaccounted().is_empty(),
        "flow-shed frames must stay accounted"
    );
}
