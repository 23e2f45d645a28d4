//! Cross-checks between the latency model and the full-system measurement:
//! the simulated pipeline must reproduce its own calibration (this is the
//! consistency property Table 3 relies on), and the decomposed stage
//! latencies must sum to the observed total.

use bladerunner::config::SystemConfig;
use bladerunner::scenario::LiveVideo;
use bladerunner::sim::SystemSim;
use brass::AppId;
use simkit::time::{SimDuration, SimTime};

#[test]
fn typing_brass_latency_reproduces_table3() {
    let mut sim = SystemSim::new(SystemConfig::small(), 101);
    let a = sim.create_user_device("a", "en");
    let b = sim.create_user_device("b", "en");
    let thread = sim.was_mut().create_thread(&[a, b]);
    sim.subscribe_typing(SimTime::ZERO, b, thread, a);
    for i in 0..400u64 {
        sim.set_typing(
            SimTime::from_millis(3_000 + i * 1_500),
            a,
            thread,
            i % 2 == 0,
        );
    }
    sim.run_until(SimTime::from_secs(700));
    let lat = sim.metrics().app_latencies(AppId::Typing).unwrap();
    assert!(lat.brass_processing.count() >= 300);
    let mean = lat.brass_processing.mean();
    // Table 3: 76 ms for non-buffering apps; allow sampling noise.
    assert!((60.0..100.0).contains(&mean), "BRASS mean {mean} ms");
}

#[test]
fn stage_latencies_sum_to_total() {
    let mut sim = SystemSim::new(SystemConfig::small(), 102);
    let lv = LiveVideo::setup(&mut sim, 5, 3, SimTime::ZERO);
    lv.drive_comments(
        &mut sim,
        SimTime::from_secs(5),
        SimDuration::from_secs(300),
        0.3,
    );
    sim.run_until(SimTime::from_secs(400));
    let lat = sim.metrics().app_latencies(AppId::Lvc).unwrap();
    assert!(
        lat.total.count() > 20,
        "enough samples: {}",
        lat.total.count()
    );
    // total ≈ edge→WAS + WAS handling + Pylon fanout + BRASS (incl. buffer
    // dwell) + push-to-device. We compare means; the buffer dwell is inside
    // brass_processing, so the stage means should bracket the total.
    let stages = lat.edge_to_was.mean()
        + lat.was_handling.mean()
        + 100.0 // pylon fanout calibration
        + lat.brass_processing.mean()
        + lat.brass_to_device.mean();
    let total = lat.total.mean();
    let rel = (stages - total).abs() / total;
    assert!(
        rel < 0.30,
        "stage sum {stages:.0} ms vs total {total:.0} ms (rel {rel:.2})"
    );
}

#[test]
fn slow_links_dominate_the_delivery_tail() {
    use bladerunner::config::LinkClass;
    // All-slow links shift brass→device latency far beyond all-fast links.
    let run = |mix: Vec<(LinkClass, f64)>| {
        let mut config = SystemConfig::small();
        config.link_mix = mix;
        let mut sim = SystemSim::new(config, 103);
        let lv = LiveVideo::setup(&mut sim, 5, 3, SimTime::ZERO);
        lv.drive_comments(
            &mut sim,
            SimTime::from_secs(5),
            SimDuration::from_secs(200),
            0.3,
        );
        sim.run_until(SimTime::from_secs(300));
        sim.metrics()
            .app_latencies(AppId::Lvc)
            .unwrap()
            .brass_to_device
            .mean()
    };
    let fast = run(vec![(LinkClass::Fast, 1.0)]);
    let slow = run(vec![(LinkClass::Slow, 1.0)]);
    assert!(
        slow > fast * 2.5,
        "slow links must dominate the push latency: fast {fast:.0} vs slow {slow:.0}"
    );
}

#[test]
fn subscription_latency_scales_with_link_class() {
    use bladerunner::config::LinkClass;
    let run = |mix: Vec<(LinkClass, f64)>| {
        let mut config = SystemConfig::small();
        config.link_mix = mix;
        let mut sim = SystemSim::new(config, 104);
        let video = sim.was_mut().create_video("v");
        for i in 0..40 {
            let d = sim.create_user_device(&format!("d{i}"), "en");
            sim.subscribe_lvc(SimTime::from_millis(i * 50), d, video);
        }
        sim.run_until(SimTime::from_secs(30));
        sim.metrics().sub_e2e.mean()
    };
    // Paper: ~490 ms NA/EU vs ~970 ms worldwide — the gap is the mobile
    // network, which our link classes carry.
    let na_eu = run(vec![(LinkClass::Fast, 1.0)]);
    let worldwide = run(vec![
        (LinkClass::Fast, 0.3),
        (LinkClass::Mobile, 0.4),
        (LinkClass::Slow, 0.3),
    ]);
    assert!(
        worldwide > na_eu * 1.4,
        "worldwide {worldwide:.0} ms vs NA/EU {na_eu:.0} ms"
    );
}
