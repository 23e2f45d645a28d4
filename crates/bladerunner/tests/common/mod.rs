//! Scenario builders shared by the determinism, snapshot and hibernation
//! suites, so a literal pinned in one file names the same world as in
//! another.
#![allow(dead_code)] // each suite uses its own subset

use bladerunner::fault::FaultPlan;
use bladerunner::{SystemConfig, SystemSim};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Retention;

/// An LVC end-to-end scenario with enough entropy sources to catch a
/// nondeterminism regression: ranking, buffer pressure, rate-limit expiry,
/// last-mile loss, and a mid-run device drop with reconnect. Scheduled but
/// not yet run; returns the instant to run it to.
pub fn lvc_setup(seed: u64, retention: Retention) -> (SystemSim, SimTime) {
    let mut config = SystemConfig::small();
    config.trace_retention = retention;
    let mut s = SystemSim::new(config, seed);
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
    (s, SimTime::from_secs(60))
}

/// The system [`chaos_setup`]'s pinned worlds run on: the small preset
/// with 2 s metrics ticks over an hour and the given ledger retention.
pub fn chaos_config(retention: Retention) -> SystemConfig {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(1);
    config.trace_retention = retention;
    config
}

/// A chaos scenario on `config`: the canned fault plan (itself seeded) on
/// top of a steady workload — heartbeat detection, stream repair,
/// reconnect backoff with jitter, and WAS backfill all replay from the
/// one seed. Scheduled but not yet run; returns the instant to run it to.
pub fn chaos_setup(config: SystemConfig, seed: u64) -> (SystemSim, SimTime, FaultPlan) {
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
