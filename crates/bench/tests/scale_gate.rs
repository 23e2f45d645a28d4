//! The scale smoke: `bladerunner::scenario::scale` with 2,000 devices for
//! 30 s at seed 42, the world `bench --bin scale --devices 2000 --seconds
//! 30` runs. It must produce events and deliveries, stay under a host-cost
//! ceiling per delivered update, and stay under an absolute peak-RSS cap.
//!
//! Alone in its file, so the peak RSS it reads (`VmHWM`) is its own
//! process's. Run: `cargo test --release -p bench --test scale_gate --
//! --ignored`.

use std::time::Instant;

use bench::peak_rss_bytes;
use bladerunner::scenario::{scale, scale_config};
use simkit::time::SimDuration;

#[test]
#[ignore = "a 2k-device fleet for 30 simulated seconds; run in release"]
fn smoke_world_stays_under_the_cost_and_rss_ceilings() {
    let config = scale_config(SimDuration::from_secs(900));
    let (mut sim, mut driver) = scale(config, 2_000, 4, 6, 30, 42, 1.0);
    let started = Instant::now();
    driver.run_until(&mut sim, driver.end());
    let wall = started.elapsed().as_secs_f64();
    let events = sim.event_stats().total;
    let deliveries = sim.metrics().deliveries.get();
    assert!(events > 0, "bench produced no events");
    assert!(deliveries > 0, "bench delivered nothing");
    // The gate is host cost per delivered update — events/sec rewards
    // doing *more* events — with a ceiling well above what this world
    // costs (≈11 µs measured), so it only trips on order-of-magnitude
    // regressions, not runner noise.
    let us = wall * 1e6 / deliveries as f64;
    // RSS sanity at smoke scale: fixed costs dominate 2k devices, so this
    // is an absolute cap, not a per-device one — it catches a leak or an
    // accidentally-resident prealloc, not layout drift (≈11.7 MiB
    // measured).
    let rss = peak_rss_bytes();
    let rss_mib = rss as f64 / (1 << 20) as f64;
    println!("scale smoke: {us:.1} wall-us/delivery, peak RSS {rss_mib:.1} MiB");
    assert!(
        us < 250.0,
        "cost ceiling: {us:.0} wall-us per delivery >= 250"
    );
    assert!(rss > 0, "no peak RSS reading");
    assert!(rss_mib < 18.0, "smoke peak RSS {rss_mib:.0} MiB >= 18 MiB");
    assert_eq!(
        (events, deliveries, sim.fingerprint_now()),
        (86_549, 7_737, 0x2ee7_40d1_1d40_8d14),
        "the world moved"
    );
}
