//! Determinism regression: all randomness flows from the single seed, so
//! the same seed must reproduce the run bit-for-bit — every metric and
//! every trace-ledger hop record — while a different seed must not. The
//! same holds across commits that claim to change no behaviour:
//! `fingerprints_match_the_pinned_parent` holds literals to compare with.

use bladerunner::fault::FaultPlan;
use bladerunner::{SystemConfig, SystemMetrics, SystemSim};
use simkit::snap::SnapWriter;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceLedger;

/// An LVC end-to-end scenario with enough entropy sources to catch a
/// nondeterminism regression: ranking, buffer pressure, rate-limit expiry,
/// last-mile loss, and a mid-run device drop with reconnect.
fn lvc_scenario(seed: u64) -> (SystemMetrics, TraceLedger) {
    let s = lvc_run(seed);
    let metrics = s.metrics().clone();
    let ledger = s.trace_ledger().clone();
    (metrics, ledger)
}

/// [`lvc_scenario`]'s sim, run to its end.
fn lvc_run(seed: u64) -> SystemSim {
    let mut s = SystemSim::new(SystemConfig::small(), seed);
    let video = s.was_mut().create_video("replay");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    for i in 0..20 {
        s.post_comment(
            SimTime::from_millis(2_000 + i * 300),
            poster,
            video,
            &format!("replayable comment number {i} with text"),
        );
    }
    s.schedule_device_drop(SimTime::from_secs(6), viewer);
    s.run_until(SimTime::from_secs(60));
    s
}

#[test]
fn same_seed_reproduces_metrics_and_ledger_exactly() {
    let (m1, l1) = lvc_scenario(42);
    let (m2, l2) = lvc_scenario(42);
    assert_eq!(m1, m2, "metrics must be bit-identical across replays");
    assert_eq!(
        l1.records(),
        l2.records(),
        "hop records must be bit-identical across replays"
    );
    assert_eq!(l1, l2, "the full ledgers must be bit-identical");
}

/// A chaos scenario: the canned fault plan (itself seeded) on top of a
/// steady workload — heartbeat detection, stream repair, reconnect
/// backoff with jitter, and WAS backfill all replay from the one seed.
fn chaos_scenario(seed: u64) -> (SystemMetrics, TraceLedger, FaultPlan) {
    let (mut s, end, plan) = chaos_setup(seed);
    s.run_until(end);
    let metrics = s.metrics().clone();
    let ledger = s.trace_ledger().clone();
    (metrics, ledger, plan)
}

/// [`chaos_scenario`] scheduled but not yet run, with the instant to run
/// it to.
fn chaos_setup(seed: u64) -> (SystemSim, SimTime, FaultPlan) {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    let mut s = SystemSim::new(config.clone(), seed);
    let video = s.was_mut().create_video("chaos-replay");
    let poster = s.create_user_device("poster", "en");
    let viewers: Vec<u64> = (0..8)
        .map(|i| s.create_user_device(&format!("v{i}"), "en"))
        .collect();
    for &v in &viewers {
        s.subscribe_lvc(SimTime::ZERO, v, video);
    }
    let mut plan_rng = s.rng_mut().fork(0xFA);
    let plan =
        bladerunner::fault::canned_plan(SimTime::from_secs(20), &config, &viewers, &mut plan_rng);
    plan.apply(&mut s);
    for i in 0..18 {
        s.post_comment(
            SimTime::from_secs(5 + i * 15),
            poster,
            video,
            &format!("chaos comment {i}"),
        );
    }
    let end = plan.heal_time() + SimDuration::from_secs(45);
    (s, end, plan)
}

#[test]
fn same_seed_and_fault_plan_replay_bit_identically() {
    let (m1, l1, p1) = chaos_scenario(1234);
    let (m2, l2, p2) = chaos_scenario(1234);
    assert_eq!(p1, p2, "the compiled fault timeline must be identical");
    assert_eq!(
        m1, m2,
        "metrics (incl. availability timeline) must replay exactly"
    );
    assert_eq!(l1, l2, "the ledgers must be bit-identical under faults");
}

/// The chaos scenario driven the way the benches drive a sim — 250 ms
/// `run_until` chunks — reading `metrics()` after every chunk or only at
/// the end. Returns everything a read could conceivably disturb: the final
/// metrics' canonical bytes, the state fingerprint, the per-tick series.
fn chunked_chaos(poll: bool) -> (Vec<u8>, u64, Vec<(SimTime, u64)>) {
    let (mut s, end, _plan) = chaos_setup(1234);
    let mut now = SimTime::ZERO;
    while now < end {
        now = (now + SimDuration::from_millis(250)).min(end);
        s.run_until(now);
        if poll {
            // Folds and caches; were the next `run_until` not to drop the
            // cache, the final read below would return this chunk's fold.
            let _ = s.metrics();
        }
    }
    let mut w = SnapWriter::new();
    s.metrics().snap(&mut w);
    (
        w.into_bytes(),
        s.fingerprint_now(),
        s.tick_fingerprints().to_vec(),
    )
}

/// `metrics()` folds lazily and caches; the fold must be a pure read (no
/// trace in any fingerprint) and every `run_until` must invalidate it
/// (the polled run's last read equals the unpolled run's only read).
#[test]
fn polling_metrics_every_chunk_equals_reading_once_at_the_end() {
    let once = chunked_chaos(false);
    assert!(!once.2.is_empty(), "the scenario must cross metrics ticks");
    assert!(
        once == chunked_chaos(true),
        "polling metrics() diverged from the read-once run"
    );
}

/// The flash-crowd overload scenario with every backpressure knob engaged:
/// an M/D/1 host backlog, a capped mailbox shedding to the ledger, and the
/// byte-window flow control with Degraded/Recovered hysteresis. The queue
/// gauges, shed counters, and drop attributions all live inside
/// [`SystemMetrics`]/[`TraceLedger`], so bit-equality here proves the whole
/// overload path — including its per-stage queue-depth series — replays
/// identically.
fn flashcrowd_scenario(seed: u64) -> (SystemMetrics, TraceLedger) {
    let mut config = SystemConfig::small();
    config.metrics_interval = simkit::time::SimDuration::from_secs(2);
    config.metrics_horizon = simkit::time::SimDuration::from_hours(1);
    config.brass_service_us = 20_000;
    config.brass_mailbox_capacity = 50;
    config.egress_window_bytes = 256;
    let mut s = SystemSim::new(config, seed);
    let fc = bladerunner::scenario::FlashCrowd::setup(
        &mut s,
        10,
        3,
        SimTime::from_secs(1),
        simkit::time::SimDuration::from_secs(2),
    );
    fc.drive_storm(
        &mut s,
        SimTime::from_secs(4),
        simkit::time::SimDuration::from_secs(15),
        120.0,
    );
    fc.regional_outage(
        &mut s,
        SimTime::from_secs(10),
        1,
        simkit::time::SimDuration::from_secs(8),
    );
    fc.reconnect_storm(
        &mut s,
        SimTime::from_secs(12),
        simkit::time::SimDuration::from_secs(2),
        3,
    );
    s.run_until(SimTime::from_secs(120));
    let metrics = s.metrics().clone();
    let ledger = s.trace_ledger().clone();
    (metrics, ledger)
}

#[test]
fn same_seed_replays_flashcrowd_overload_exactly() {
    let (m1, l1) = flashcrowd_scenario(4242);
    let (m2, l2) = flashcrowd_scenario(4242);
    assert_eq!(m1, m2, "overload metrics must replay bit-identically");
    assert_eq!(l1, l2, "overload ledger must replay bit-identically");
    assert!(
        m1.mailbox_sheds.get() > 0 || m1.flow_sheds.get() > 0,
        "the determinism case must actually exercise shedding"
    );
}

#[test]
fn different_seed_diverges() {
    let (m1, l1) = lvc_scenario(42);
    let (m2, l2) = lvc_scenario(777);
    assert!(
        m1 != m2 || l1 != l2,
        "different seeds must not produce identical runs"
    );
}

/// Cross-commit pin: a PR that claims bit-identical behaviour must leave
/// these literals alone; one that means to move fingerprints re-captures
/// them and says so. Captured at commit 363e80c.
#[test]
fn fingerprints_match_the_pinned_parent() {
    let lvc = lvc_run(42);
    assert_eq!(lvc.fingerprint_now(), 0x1c82_d8c3_ec26_e49d, "LVC seed 42");
    // 60 s at the default 15 min cadence crosses no metrics tick.
    assert_eq!(lvc.tick_fingerprints().last(), None, "LVC seed 42");

    let (mut chaos, end, _plan) = chaos_setup(1234);
    chaos.run_until(end);
    assert_eq!(
        chaos.fingerprint_now(),
        0x2441_51a3_a22c_a90f,
        "chaos seed 1234"
    );
    assert_eq!(
        chaos.tick_fingerprints().last(),
        Some(&(SimTime::from_secs(294), 0x496b_5cfa_d65d_b7e1)),
        "chaos seed 1234, last of 147 ticks"
    );
}
