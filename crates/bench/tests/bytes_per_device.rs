//! Bytes-per-device regression gate.
//!
//! Measures the *marginal* live-heap cost of adding subscribed devices to
//! a running system — the quantity the memory overhaul drives down — with
//! the counting allocator, and pins it under a checked-in ceiling. The
//! fixture is deliberately small so the test runs in debug `cargo test`;
//! allocation sizes (the thing being measured) are build-mode independent.
//!
//! The ceiling is not a target: it sits ~50% above the measured value so
//! noise (hash-map growth granularity) never trips it, while reintroducing
//! any of the per-stream heavyweights this PR removed — a parsed header
//! copy, a per-device heap string, an eager ranking buffer, a per-topic
//! subscriber hash table — costs hundreds of bytes per device and fails.

use bladerunner::config::SystemConfig;
use bladerunner::sim::SystemSim;
use simkit::time::SimTime;

#[global_allocator]
static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc;

/// Ceiling on marginal live-heap bytes per subscribed device (device +
/// user object + LVC stream across device/POP/proxy/BRASS + pending
/// timer + registries), measured at the post-subscribe steady state.
const CEILING_BYTES_PER_DEVICE: usize = 4096;

#[test]
fn marginal_bytes_per_subscribed_device_stays_under_ceiling() {
    let devices = 4_000u64;
    let mut config = SystemConfig::medium();
    config.last_mile_drop = 0.0;
    let mut sim = SystemSim::new(config, 42);
    let videos: Vec<u64> = (0..8)
        .map(|i| sim.was_mut().create_video(&format!("live{i}")))
        .collect();
    let before = simkit::alloc::live_bytes();
    let ids: Vec<u64> = (0..devices)
        .map(|i| sim.create_user_device(&format!("u{i}"), "en"))
        .collect();
    for (i, &d) in ids.iter().enumerate() {
        let at = SimTime::from_micros(i as u64 * 1_000_000 / devices);
        sim.subscribe_lvc(at, d, videos[i % videos.len()]);
    }
    // Let subscribes complete and the fleet reach its resident steady
    // state (streams open end-to-end, first timers armed, parks done).
    sim.run_until(SimTime::from_secs(8));
    let after = simkit::alloc::live_bytes();
    let marginal = after.saturating_sub(before) / devices as usize;
    println!("marginal live-heap bytes per subscribed device: {marginal}");
    assert!(
        marginal > 0,
        "allocator accounting broke: zero marginal bytes"
    );
    assert!(
        marginal <= CEILING_BYTES_PER_DEVICE,
        "marginal bytes per subscribed device regressed: {marginal} B \
         (ceiling {CEILING_BYTES_PER_DEVICE} B)"
    );
    // The per-layer split accounts for every byte the system held: its
    // rows add up to what dropping it frees (the rows' own vector aside).
    let live = simkit::alloc::live_bytes();
    let rows = sim.heap_by_layer();
    let freed = live + std::mem::size_of_val(&rows[..]) - simkit::alloc::live_bytes();
    println!("heap by layer: {rows:?}");
    assert_eq!(rows.iter().map(|&(_, b)| b).sum::<usize>(), freed);
    for layer in [
        "ledger", "queue", "was", "pylon", "brass", "proxies", "pops", "devices",
    ] {
        assert!(
            rows.iter().any(|&(name, b)| name == layer && b > 0),
            "{layer} holds nothing: {rows:?}"
        );
    }
}
