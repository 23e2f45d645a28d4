//! Quickstart: the smallest end-to-end Bladerunner flow.
//!
//! One viewer subscribes to a live video's comments; another user posts a
//! comment; the update flows WAS → Pylon → BRASS → proxy → POP → device.
//!
//! Run: `cargo run --example quickstart`

use bladerunner_repro::config::SystemConfig;
use bladerunner_repro::sim::SystemSim;
use simkit::time::SimTime;

fn main() {
    // Build a small system: 4 BRASS hosts, 2 proxies, 2 POPs, a sharded
    // TAO and a replicated Pylon — all driven by one deterministic seed.
    let mut sim = SystemSim::new(SystemConfig::small(), 42);

    // Fixtures: a live video and two users (each user gets a device).
    let video = sim.was_mut().create_video("total solar eclipse");
    let alice = sim.create_user_device("alice", "en");
    let bob = sim.create_user_device("bob", "en");

    // Bob opens a request-stream for the video's comments. The header
    // carries a GraphQL subscription, exactly as a real client would send.
    sim.subscribe_lvc(SimTime::ZERO, bob, video);

    // Alice posts a comment two seconds in.
    sim.post_comment(
        SimTime::from_secs(2),
        alice,
        video,
        "the corona is unbelievable right now",
    );

    // Run half a simulated minute.
    sim.run_until(SimTime::from_secs(30));

    let m = sim.metrics();
    println!("publications into Pylon: {}", m.publications);
    println!("updates delivered to devices: {}", m.deliveries);
    println!(
        "bob's device delivered {} update(s) across {} open stream(s)",
        sim.device(bob).map(|d| d.delivered()).unwrap_or(0),
        sim.device(bob).map(|d| d.open_streams()).unwrap_or(0),
    );
    let lvc = m.app_latencies(brass::AppId::Lvc).unwrap();
    println!(
        "end-to-end latency: {:.1} s (posting -> rendered; includes the ~2 s ML ranking)",
        lvc.total.mean() / 1_000.0
    );
    assert_eq!(m.deliveries.get(), 1, "the comment reached bob");
    println!("\nquickstart OK");
}
