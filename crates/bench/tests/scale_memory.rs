//! The memory gate: a 200k-device tier of `bladerunner::scenario::scale`
//! where per-device state dominates the fixed costs, with the counting
//! allocator installed so live-heap bytes per device are exact. It guards
//! the compact-state layout (packed headers, sorted-vec streams, interned
//! ids, boxed fat events) and hibernation: every quiescent engaged device
//! must be parked by the end of the run. Full duty (active fraction 1.0),
//! so the ceilings track the worst case, not the diurnal average. The
//! world is the one `bench --bin scale --devices 200000 --seconds 30
//! --active-fraction 1.0` runs.
//!
//! Alone in its file, so the peak RSS it reads (`VmHWM`) and the
//! allocator's counts are its own process's. Run: `cargo test --release
//! -p bench --test scale_memory -- --ignored`.

use bench::peak_rss_bytes;
use bladerunner::scenario::{scale, scale_config};
use simkit::alloc::{alloc_calls, live_bytes, CountingAlloc};
use simkit::time::SimDuration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
#[ignore = "a 200k-device fleet (~650 MB); run in release"]
fn per_device_state_stays_under_the_ceilings() {
    let devices = 200_000;
    let config = scale_config(SimDuration::from_secs(900));
    let (mut sim, mut driver) = scale(config, devices, 400, 6, 30, 42, 1.0);
    let (calls, events) = (alloc_calls(), sim.event_stats().total);
    driver.run_until(&mut sim, driver.end());
    let total = sim.event_stats().total;
    // Allocator calls per event over the run, injection included.
    let allocs_per_event = (alloc_calls() - calls) as f64 / (total - events).max(1) as f64;
    let rss = peak_rss_bytes();
    let rss_per_device = rss as f64 / devices as f64;
    let live_per_device = live_bytes() as f64 / devices as f64;
    let (parked, _) = sim.hibernation_census();
    println!(
        "memory: {rss_per_device:.0} B/device RSS, {live_per_device:.0} B/device live, \
         {allocs_per_event:.2} allocations/event, {parked} parked"
    );
    // Ceilings sit well above measured (3,213 B/device RSS, 3,063
    // B/device live) so runner noise never trips them; reintroducing a
    // per-stream heavyweight (~hundreds of bytes x 200k) fails.
    assert!(rss > 0, "no peak RSS reading");
    assert!(
        rss_per_device < 4950.0,
        "peak RSS/device {rss_per_device:.0} B >= 4950 B"
    );
    assert!(
        live_per_device < 4200.0,
        "live heap/device {live_per_device:.0} B >= 4200 B"
    );
    // Allocations per event are exact for a seed (3.58 measured, ramp
    // included); a String or Vec back on a per-event path fails here the
    // way a per-stream heavyweight does.
    assert!(
        allocs_per_event > 0.0 && allocs_per_event < 5.6,
        "{allocs_per_event:.2} allocations/event, ceiling 5.6"
    );
    assert!(parked > 190_000, "hibernation parked only {parked} of 200k");
    assert_eq!(
        (total, sim.metrics().deliveries.get(), sim.fingerprint_now()),
        (7_717_703, 633_274, 0xd031_6868_44f1_f7aa),
        "the world moved"
    );
}
