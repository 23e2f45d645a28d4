//! Allocations-per-event regression gate.
//!
//! The steady-state event path may allocate for what outlives the event —
//! a new stream's state, payload bytes, frames in flight, ledger and table
//! growth — and for nothing else (DESIGN.md §5c). This runs an LVC fixture
//! past its subscribe ramp and holds the allocator calls per handled event
//! under a checked-in ceiling, with the counting allocator.
//!
//! The ceiling is not a target: it sits ≈1.5× the measured value, so
//! table-growth granularity never trips it, while a `String` or `Vec` that
//! creeps back into a per-event path (an app name per timer tick, an effect
//! vector per handler call, a slot buffer dropped per cascade) adds one to
//! several allocations to most events and fails: the commit before this
//! gate measured 13.8 on the same fixture. What is left is almost all
//! inside the WAS payload fetch (TAO object and association copies), once
//! per delivery. Counted in a debug build, where the canonical-header
//! assertions of the hibernation path allocate too; a release build reads
//! lower.

use bladerunner::config::SystemConfig;
use bladerunner::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc;

/// Ceiling on allocator calls per handled event past the ramp; measured 5.1.
const CEILING_ALLOCS_PER_EVENT: f64 = 9.0;

#[test]
fn steady_state_allocations_per_event_stay_under_ceiling() {
    let devices = 2_000u64;
    let mut config = SystemConfig::medium();
    config.last_mile_drop = 0.0;
    let mut sim = SystemSim::new(config, 42);
    let videos: Vec<u64> = (0..4)
        .map(|i| sim.was_mut().create_video(&format!("live{i}")))
        .collect();
    let ids: Vec<u64> = (0..devices)
        .map(|i| sim.create_user_device(&format!("u{i}"), "en"))
        .collect();
    for (i, &d) in ids.iter().enumerate() {
        let at = SimTime::from_micros(i as u64 * 5_000_000 / devices);
        sim.subscribe_lvc(at, d, videos[i % videos.len()]);
    }
    // A comment per video every two seconds, from well past the ramp:
    // every push timer then finds something to fetch and send.
    let (from, until) = (SimTime::from_secs(12), SimTime::from_secs(40));
    let mut at = SimTime::from_secs(8);
    while at < until {
        for (i, &video) in videos.iter().enumerate() {
            sim.post_comment(at, ids[i], video, "steady state comment");
        }
        at += SimDuration::from_secs(2);
    }
    sim.run_until(from);
    let (calls, events) = (simkit::alloc::alloc_calls(), sim.event_stats().total);
    sim.run_until(until);
    let calls = simkit::alloc::alloc_calls() - calls;
    let events = sim.event_stats().total - events;
    let deliveries = sim.metrics().deliveries.get();
    let per_event = calls as f64 / events as f64;
    println!("{calls} allocator calls over {events} events ({deliveries} deliveries): {per_event:.3} per event");
    assert!(events > 50_000 && deliveries > 10_000, "fixture went quiet");
    assert!(
        per_event <= CEILING_ALLOCS_PER_EVENT,
        "steady-state allocations per event regressed: {per_event:.3} \
         (ceiling {CEILING_ALLOCS_PER_EVENT})"
    );
}
