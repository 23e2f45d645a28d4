//! Determinism regression: all randomness flows from the single seed, so
//! the same seed must reproduce the run bit-for-bit — every metric and
//! every trace-ledger hop record — while a different seed must not, and
//! how the caller chunks `run_until` must not matter at all. The same
//! holds across commits that claim to change no behaviour:
//! `pinned_lvc_and_chaos_fingerprints` holds literals to compare with.

mod common;

use bladerunner::fault::FaultPlan;
use bladerunner::{SystemConfig, SystemMetrics, SystemSim};
use simkit::snap::{Snap, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Retention, TraceLedger};

fn lvc_setup(seed: u64) -> (SystemSim, SimTime) {
    common::lvc_setup(seed, Retention::Full)
}

fn chaos_setup(seed: u64) -> (SystemSim, SimTime, FaultPlan) {
    common::chaos_setup(common::chaos_config(Retention::Full), seed)
}

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
    let (mut s, end) = lvc_setup(seed);
    s.run_until(end);
    s
}

#[test]
fn same_seed_reproduces_metrics_and_ledger_exactly() {
    let (m1, l1) = lvc_scenario(42);
    let (m2, l2) = lvc_scenario(42);
    assert_eq!(m1, m2, "metrics must be bit-identical across replays");
    assert!(
        l1.records().eq(l2.records()),
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

/// `metrics()` must be a pure read: polling it between chunks leaves no
/// trace in any fingerprint, and the polled run's last read equals the
/// unpolled run's only read.
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

/// Everything a run leaves behind, down to the snapshot bytes (queue
/// structure, both RNG streams, every component).
#[derive(PartialEq)]
struct RunDigest {
    metrics: Vec<u8>,
    state_fp: u64,
    ticks: Vec<(SimTime, u64)>,
    events: bladerunner::sim::EventStats,
    ledger_fp: u64,
    snapshot: Vec<u8>,
}

/// Runs `sim` through `stops` (ascending; the last one is the end) and
/// digests what is left.
fn run_through(mut sim: SystemSim, stops: impl IntoIterator<Item = SimTime>) -> RunDigest {
    for stop in stops {
        sim.run_until(stop);
    }
    let mut w = SnapWriter::new();
    sim.metrics().snap(&mut w);
    RunDigest {
        metrics: w.into_bytes(),
        state_fp: sim.fingerprint_now(),
        ticks: sim.tick_fingerprints().to_vec(),
        events: sim.event_stats().clone(),
        ledger_fp: sim.trace_ledger().fingerprint(),
        snapshot: sim.snapshot(),
    }
}

/// Every multiple of `stride` up to `end`, then `end`.
fn strided(stride: SimDuration, end: SimTime) -> impl Iterator<Item = SimTime> {
    let step = stride.as_micros();
    (1..)
        .map(move |i| SimTime::from_micros(i * step))
        .take_while(move |t| *t < end)
        .chain([end])
}

/// Results are a function of `(config, seed, workload)` and of nothing
/// about how the caller slices time: with the whole workload injected up
/// front, one `run_until(end)` equals any chunking of it — coarse, fine,
/// a prime stride that never lines up with anything, and boundaries that
/// land exactly on, just before and just after every metrics tick.
#[test]
fn run_until_is_invariant_under_chunking() {
    type Setup = fn() -> (SystemSim, SimTime);
    // (name, setup, metrics ticks the run must at least cross)
    let scenarios: [(&str, Setup, usize); 2] = [
        (
            "chaos",
            || {
                let (s, end, _plan) = chaos_setup(1234);
                (s, end)
            },
            100,
        ),
        ("lvc", || lvc_setup(42), 0),
    ];
    for (name, setup, min_ticks) in scenarios {
        let (sim, end) = setup();
        let tick = sim.config().metrics_interval;
        let whole = run_through(sim, [end]);
        assert!(
            whole.ticks.len() >= min_ticks,
            "{name} crosses too few ticks"
        );
        let around_ticks: Vec<SimTime> = strided(tick, end)
            .flat_map(|t| {
                let us = t.as_micros();
                [us - 1, us, us + 1].map(SimTime::from_micros)
            })
            .filter(|t| *t < end)
            .chain([end])
            .collect();
        let schedules: [(&str, Vec<SimTime>); 4] = [
            (
                "250 ms",
                strided(SimDuration::from_millis(250), end).collect(),
            ),
            ("7 ms", strided(SimDuration::from_millis(7), end).collect()),
            (
                "999,983 µs",
                strided(SimDuration::from_micros(999_983), end).collect(),
            ),
            ("around every tick", around_ticks),
        ];
        for (label, stops) in schedules {
            let chunked = run_through(setup().0, stops);
            assert!(chunked.metrics == whole.metrics, "{name}, {label}: metrics");
            assert_eq!(chunked.state_fp, whole.state_fp, "{name}, {label}");
            assert_eq!(chunked.ticks, whole.ticks, "{name}, {label}");
            assert_eq!(chunked.events, whole.events, "{name}, {label}");
            assert_eq!(chunked.ledger_fp, whole.ledger_fp, "{name}, {label}");
            assert!(
                chunked.snapshot == whole.snapshot,
                "{name}, {label}: snapshot"
            );
        }
    }
}

/// Cross-commit pin: a PR that claims bit-identical behaviour must leave
/// these literals alone; one that means to move fingerprints re-captures
/// them and says so. Captured at the one-queue engine (ISSUE 16), which
/// moved them on purpose: event order became plain `(time, seq)`, hop
/// latencies come from one RNG stream, and no hop is clamped to a window.
/// Re-captured when the ledger fingerprint became a polynomial hash mod
/// 2^61 − 1: the ledger's value and everything that folds it in moved,
/// while every event, delivery and ledger record stayed the same. The
/// seven-app pins were added with the one-timer-per-stream table; the run
/// on to 120 s reads (0xc33a_509d_f8cf_0e4b, 6_966) at its parent. The
/// seven-app pair was re-captured when each update payload came to carry
/// its trace, the event totals unmoved: the ledger moved, because the
/// object → trace lookup named no trace for any Likes, Notifications,
/// Active Status or Stories payload (none has an `"id"`), so their 323
/// sends, 320 deliveries, 320 renders and 3 in-flight drops at 120 s are
/// new records, three Messenger fetch records moved to the mailbox trace
/// they fetched for (the lookup named the message's latest mailbox
/// trace), and a crashed host's `host_down` drops name the 10 Likes
/// traces it held where the lookup named one Notifications trace of the
/// same post. The LVC and chaos worlds carry one trace per object, and
/// every one of their records names the same trace as before.
/// (Counted by a scratch probe running the old lookup beside the tags.)
#[test]
fn pinned_lvc_and_chaos_fingerprints() {
    let lvc = lvc_run(42);
    assert_eq!(lvc.fingerprint_now(), 0xc67d_c725_5e2b_04c9, "LVC seed 42");
    // 60 s at the default 15 min cadence crosses no metrics tick.
    assert_eq!(lvc.tick_fingerprints().last(), None, "LVC seed 42");

    let (mut chaos, end, _plan) = chaos_setup(1234);
    chaos.run_until(end);
    assert_eq!(
        chaos.fingerprint_now(),
        0xaf7e_a321_1d9b_3c8d,
        "chaos seed 1234"
    );
    assert_eq!(
        chaos.tick_fingerprints().last(),
        Some(&(SimTime::from_secs(294), 0xdb64_85a2_9332_042f)),
        "chaos seed 1234, last of 147 ticks"
    );

    // The seven-app world at its snapshot instant, then run on: it closes
    // and reopens Active Status and Notifications keys with a timer
    // armed, so the second pair moved when a closed stream's timer
    // stopped ticking the reopened one (at 45 s, nothing yet had).
    let mut seven = common::seven_app_overload_world(true);
    let at_snapshot = (seven.fingerprint_now(), seven.event_stats().total);
    assert_eq!(
        at_snapshot,
        (0x4f96_89a7_606d_6f16, 4_088),
        "seven apps, overload"
    );
    seven.run_until(SimTime::from_secs(120));
    assert_eq!(
        (seven.fingerprint_now(), seven.event_stats().total),
        (0x3fed_ab46_b560_ffbe, 6_963),
        "seven apps, overload, run on to 120 s"
    );
}
