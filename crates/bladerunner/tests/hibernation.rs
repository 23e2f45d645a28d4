//! Hibernation equivalence: parking a quiescent device into its compact
//! frozen form (and rehydrating it on the next event) is a pure memory
//! optimisation. Runs with hibernation enabled must be bit-identical —
//! every metric and every trace-ledger hop record — to runs with it
//! disabled. The scenarios here are built to actually cycle devices
//! through park/rehydrate: activity bursts with quiet gaps between them,
//! plus the chaos fault plan (drops, crashes and reconnect backoff
//! interleave with parking eligibility), and the seven-app overload world
//! (every app's stream state, Messenger's retained sends, flow-control
//! sheds).

mod common;

use bladerunner::{SystemConfig, SystemMetrics, SystemSim};
use simkit::time::SimTime;
use simkit::trace::{Retention, TraceLedger};

/// An LVC scenario with idle gaps: viewers subscribe, a comment burst
/// lands, then the fleet goes quiet (parking), then a second burst forces
/// rehydration. One viewer cancels mid-run, one drops and reconnects.
fn lvc_run(hibernation: bool) -> (SystemMetrics, TraceLedger, usize) {
    let mut config = SystemConfig::small();
    config.hibernation = hibernation;
    let mut s = SystemSim::new(config, 42);
    let video = s.was_mut().create_video("hib");
    let poster = s.create_user_device("poster", "en");
    let viewers: Vec<u64> = (0..12)
        .map(|i| s.create_user_device(&format!("v{i}"), "en"))
        .collect();
    for (i, &v) in viewers.iter().enumerate() {
        s.subscribe_lvc(SimTime::from_millis(i as u64 * 150), v, video);
    }
    // Burst, quiet gap (everyone quiescent -> parks), second burst
    // (everyone rehydrates), then quiet to the end.
    for i in 0..10 {
        s.post_comment(
            SimTime::from_millis(3_000 + i * 250),
            poster,
            video,
            &format!("burst one comment {i}"),
        );
    }
    for i in 0..10 {
        s.post_comment(
            SimTime::from_millis(40_000 + i * 250),
            poster,
            video,
            &format!("burst two comment {i}"),
        );
    }
    s.cancel_stream(
        SimTime::from_secs(40),
        viewers[3],
        burst::frame::StreamId(1),
    );
    s.schedule_device_drop(SimTime::from_secs(20), viewers[5]);
    s.run_until(SimTime::from_secs(70));
    let (parked, _) = s.hibernation_census();
    let metrics = s.metrics().clone();
    let ledger = s.trace_ledger().clone();
    (metrics, ledger, parked)
}

#[test]
fn hibernation_is_invisible_to_metrics_and_ledger() {
    let (m_off, l_off, parked_off) = lvc_run(false);
    let (m_on, l_on, parked_on) = lvc_run(true);
    assert_eq!(parked_off, 0, "hibernation off must never park");
    assert!(
        parked_on > 0,
        "the scenario must actually park devices, or it proves nothing"
    );
    assert_eq!(m_off, m_on, "metrics must not see park/rehydrate");
    assert_eq!(l_off, l_on, "hop ledger must not see park/rehydrate");
}

/// The chaos fault plan on top of a parked-heavy fleet: crashes, proxy
/// outages, silent device vanishes and reconnect backoff interleave with
/// parking eligibility (drop streaks and inflight frames must veto parks
/// without perturbing anything).
fn chaos_run(hibernation: bool) -> (SystemMetrics, TraceLedger) {
    let mut config = common::chaos_config(Retention::Full);
    config.hibernation = hibernation;
    let (mut s, end, _plan) = common::chaos_setup(config, 1234);
    s.run_until(end);
    (s.metrics().clone(), s.trace_ledger().clone())
}

#[test]
fn hibernation_is_invisible_under_chaos() {
    let (m_off, l_off) = chaos_run(false);
    let (m_on, l_on) = chaos_run(true);
    assert_eq!(m_off, m_on, "chaos metrics identical with hibernation");
    assert_eq!(l_off, l_on, "chaos ledger identical with hibernation");
}

/// Every app at once, under overload and faults: the seven-app world holds
/// Messenger's retained sends, flow-control sheds and each app's stream
/// state, stopped mid-fault with hosts and a proxy down.
#[test]
fn hibernation_is_invisible_across_every_app() {
    let run = |hibernation| {
        let s = common::seven_app_overload_world(hibernation);
        let (parked, _) = s.hibernation_census();
        (s.metrics().clone(), s.trace_ledger().clone(), parked)
    };
    let (m_off, l_off, parked_off) = run(false);
    let (m_on, l_on, parked_on) = run(true);
    assert_eq!(parked_off, 0, "hibernation off must never park");
    assert!(parked_on > 0, "the world must park devices");
    let timed = |app| m_on.app_latencies(app).is_some();
    assert!(
        brass::AppId::ALL.into_iter().all(timed),
        "every app saw traffic"
    );
    assert!(m_on.flow_sheds.get() > 0, "flow control shed");
    assert_eq!(m_off, m_on, "metrics must not see park/rehydrate");
    assert_eq!(l_off, l_on, "hop ledger must not see park/rehydrate");
}
