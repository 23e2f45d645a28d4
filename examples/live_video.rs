//! Live video under load: per-viewer filtering, rate limiting, and the
//! hot-video strategy switch (§3.4).
//!
//! A popular video takes a burst of comments. Each viewer's BRASS stream
//! filters by language and quality, buffers into a ranked buffer, and
//! pushes at most one comment every two seconds. When the video is
//! switched to "hot" mode, the WAS pre-ranks: low-quality comments are
//! discarded before ever reaching Pylon, mid-quality ones go to per-poster
//! overflow topics, and only headline comments hit `/LVC/videoID`.
//!
//! Run: `cargo run --example live_video`

use bladerunner_repro::config::SystemConfig;
use bladerunner_repro::scenario::LiveVideo;
use bladerunner_repro::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};
use was::service::HotVideoPolicy;

fn main() {
    let mut sim = SystemSim::new(SystemConfig::small(), 7);

    // A French-speaking and an English-speaking audience member: language
    // filtering is per viewer.
    let lv = LiveVideo::setup(&mut sim, 6, 10, SimTime::ZERO);
    let pierre = sim.create_user_device("pierre", "fr");
    sim.subscribe_lvc(SimTime::ZERO, pierre, lv.video);

    // Phase 1 — nominal strategy, a steady trickle.
    let n = lv.drive_comments(
        &mut sim,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
        0.2,
    );
    sim.run_until(SimTime::from_secs(70));
    let phase1_deliveries = sim.metrics().deliveries.get();
    println!("phase 1 (nominal): {n} comments posted, {phase1_deliveries} deliveries");

    // Phase 2 — the eclipse happens: a comment storm. Ops flips the video
    // to the hot strategy so the WAS discards junk before Pylon.
    sim.was_mut().set_video_hot(
        lv.video,
        Some(HotVideoPolicy {
            // Under storm load, only the upper half of the quality range
            // is worth shipping at all.
            discard_below: 0.5,
            headline_at: 0.85,
        }),
    );
    let n = lv.drive_comments(
        &mut sim,
        SimTime::from_secs(70),
        SimDuration::from_secs(60),
        5.0, // 5 comments/second
    );
    sim.run_until(SimTime::from_secs(150));

    let decisions = sim.total_decisions();
    let discards = sim.was_mut().counters().preranked_discards;
    let m = sim.metrics();
    let deliveries = m.deliveries.get();
    println!("phase 2 (hot): {n} comments posted in the storm");
    println!("WAS pre-rank discards: {discards} (never reached Pylon)");
    println!(
        "BRASS decisions: {decisions}, deliveries: {deliveries} -> {:.0}% filtered",
        (1.0 - deliveries as f64 / decisions.max(1) as f64) * 100.0
    );
    println!(
        "per-viewer rate limit held: {:.2} deliveries/viewer/minute in the storm window",
        (deliveries - phase1_deliveries) as f64 / 7.0 / 1.3
    );
    let lvc = m.app_latencies(brass::AppId::Lvc).unwrap();
    println!(
        "latency through the storm: p50 {:.1} s, p95 {:.1} s (buffering caps at 10 s)",
        lvc.total.quantile(0.5) / 1_000.0,
        lvc.total.quantile(0.95) / 1_000.0
    );
    assert!(deliveries > phase1_deliveries, "the storm still delivered");
    assert!(discards > 0, "hot mode discarded junk at the WAS");
    println!("\nlive_video OK");
}
