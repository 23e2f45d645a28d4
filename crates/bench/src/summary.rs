//! The `scale` and `chaos` bins' JSON summaries, each a function of the
//! bin's command line: the run it describes, its report lines on stdout,
//! and the summary [`crate::emit_summary`] prints. `benchmark/src/port.rs`
//! runs both bins and scans their summaries for `"key": ` followed by
//! digits and for the final fingerprint; the test below pins that shape.

use std::time::Instant;

use bladerunner::fault::ConvergenceReport;
use bladerunner::scenario::{self, ScaleDriver};
use bladerunner::sim::SystemSim;
use burst::json::Json;
use simkit::time::{SimDuration, SimTime};

use crate::{peak_rss_bytes, violations_json, Args};

/// Runs the `scale` world `args` describes (`--devices`, `--videos`,
/// `--comments-per-video`, `--seconds`, `--seed`, `--active-fraction`,
/// `--metrics-secs`) and returns its summary. Live-heap and allocation
/// figures read zero unless the binary installs
/// [`simkit::alloc::CountingAlloc`], as `scale` does.
pub fn scale(args: &Args) -> Json {
    let devices: usize = args.or("--devices", 100_000);
    // The default 15-minute tick never fires inside the usual 60 s run.
    let config = scenario::scale_config(SimDuration::from_secs(args.or("--metrics-secs", 900)));
    let videos = args.or("--videos", (devices / 500).max(1));
    let comments = args.or("--comments-per-video", 6);
    let (seconds, seed) = (args.or("--seconds", 60), args.or("--seed", 42));
    let active = args.or(
        "--active-fraction",
        if devices >= 500_000 { 0.3 } else { 1.0 },
    );
    args.finish();
    let (mut sim, mut driver) =
        scenario::scale(config, devices, videos, comments, seconds, seed, active);
    // The resident fixture (videos and the device fleet) is the state
    // whose footprint is measured; the workload is scheduled lazily as
    // the run goes.
    let fleet_live_heap = simkit::alloc::live_bytes();
    let ScaleDriver {
        videos,
        sim_seconds,
        seed,
        active_fraction,
        ..
    } = driver;
    let started = Instant::now();
    let (calls_before, events_before) = (simkit::alloc::alloc_calls(), sim.event_stats().total);
    driver.run_until(&mut sim, driver.end());
    let wall = started.elapsed().as_secs_f64();
    let comment_idx = driver.comment_idx;

    let stats = sim.event_stats().clone();
    let (parked, _fleet) = sim.hibernation_census();
    let engaged_devices = driver.engaged_devices();
    let m = sim.metrics();
    let events_per_sec = stats.total as f64 / wall.max(1e-9);
    let rss = peak_rss_bytes();
    let live_heap = simkit::alloc::live_bytes();
    let live_heap_peak = simkit::alloc::peak_bytes();
    // Allocator calls per event over the timed loop (injection included).
    let allocs_per_event = (simkit::alloc::alloc_calls() - calls_before) as f64
        / (stats.total - events_before).max(1) as f64;

    println!(
        "scale: {devices} devices ({engaged_devices} engaged, fraction {active_fraction}), \
         {videos} videos, ~{} comments, {sim_seconds}s simulated, {parked} parked at end",
        comment_idx
    );
    println!(
        "  events: {} in {wall:.2}s wall -> {events_per_sec:.0} events/sec",
        stats.total
    );
    println!(
        "  by subsystem: workload={} pylon={} tao={} brass={} up={} down={} churn={} metrics={}",
        stats.workload,
        stats.pylon,
        stats.tao,
        stats.brass,
        stats.transport_up,
        stats.transport_down,
        stats.device_churn,
        stats.metrics
    );
    println!(
        "  deliveries={} publications={} subscriptions={} peak_rss={:.1} MiB ({:.0} B/device)",
        m.deliveries.get(),
        m.publications.get(),
        m.subscriptions.get(),
        rss as f64 / (1024.0 * 1024.0),
        rss as f64 / devices as f64
    );
    println!(
        "  live heap: fleet={:.1} MiB end={:.1} MiB peak={:.1} MiB ({:.0} live B/device), \
         {allocs_per_event:.2} allocations/event",
        fleet_live_heap as f64 / (1024.0 * 1024.0),
        live_heap as f64 / (1024.0 * 1024.0),
        live_heap_peak as f64 / (1024.0 * 1024.0),
        live_heap as f64 / devices as f64
    );

    let count = |n: usize| Json::from(n as u64);
    Json::obj([
        ("bench", Json::from("scale")),
        ("devices", count(devices)),
        ("active_fraction", Json::from(active_fraction)),
        ("engaged_devices", count(engaged_devices)),
        ("parked_devices", count(parked)),
        ("videos", count(videos)),
        ("comments", count(comment_idx)),
        ("sim_seconds", Json::from(sim_seconds)),
        ("seed", Json::from(seed)),
        ("wall_seconds", Json::from(wall)),
        ("events_total", Json::from(stats.total)),
        ("events_per_sec", Json::from(events_per_sec)),
        ("peak_rss_bytes", Json::from(rss)),
        ("bytes_per_device", Json::from(rss as f64 / devices as f64)),
        ("fleet_live_heap_bytes", count(fleet_live_heap)),
        ("live_heap_bytes", count(live_heap)),
        ("live_heap_peak_bytes", count(live_heap_peak)),
        (
            "live_heap_bytes_per_device",
            Json::from(live_heap as f64 / devices as f64),
        ),
        ("allocs_per_event", Json::from(allocs_per_event)),
        ("fingerprint", fingerprint_json(&sim)),
        (
            "events_by_subsystem",
            Json::obj([
                ("workload", Json::from(stats.workload)),
                ("pylon", Json::from(stats.pylon)),
                ("tao", Json::from(stats.tao)),
                ("brass", Json::from(stats.brass)),
                ("transport_up", Json::from(stats.transport_up)),
                ("transport_down", Json::from(stats.transport_down)),
                ("device_churn", Json::from(stats.device_churn)),
                ("metrics", Json::from(stats.metrics)),
            ]),
        ),
        (
            "metrics",
            Json::obj([
                ("deliveries", Json::from(m.deliveries.get())),
                ("publications", Json::from(m.publications.get())),
                ("subscriptions", Json::from(m.subscriptions.get())),
            ]),
        ),
    ])
}

/// Runs the `chaos` world `args` describes (`--devices`, `--videos`,
/// `--seed`, `--grace`) and returns its summary and the post-heal
/// convergence audit.
pub fn chaos(args: &Args) -> (Json, ConvergenceReport) {
    let devices: usize = args.or("--devices", 20_000);
    let videos = args.or("--videos", (devices / 500).max(1));
    let (seed, grace) = (args.or("--seed", 42), args.or("--grace", 60));
    args.finish();
    let (mut sim, meta) = scenario::chaos(devices, videos, seed, grace);
    let (comments, plan_start, heal, end) = (meta.comments, meta.plan_start, meta.heal, meta.end);
    let started = Instant::now();
    sim.run_until(end);
    let wall = started.elapsed().as_secs_f64();

    let stats = sim.event_stats().clone();
    let m = sim.metrics();
    let report = sim.convergence_report();
    let events_per_sec = stats.total as f64 / wall.max(1e-9);
    let rss = peak_rss_bytes();

    let [(fault_min, fault_mean), (post_min, post_mean)] = meta.availability(m);

    // Per-episode time-to-reconverge: first availability sample at or
    // after the episode's heal that is back at (effectively) 1.0. With
    // overlapping episodes this attributes shared recovery tails to each
    // open episode, which is the conservative reading.
    let mut episode_rows = Vec::new();
    for (kind, at, heals_at) in &meta.episodes {
        let heals_at = *heals_at;
        let recovered_at = m
            .availability_timeline
            .iter()
            .find(|(t, avail)| *t >= heals_at && *avail >= 0.999)
            .map(|(t, _)| *t);
        let recovery_secs = recovered_at
            .map(|t| t.saturating_since(heals_at).as_micros() as f64 / 1e6)
            .unwrap_or(-1.0);
        episode_rows.push(Json::obj([
            ("kind", Json::from(kind.as_str())),
            ("at_secs", Json::from(at.as_secs_f64())),
            ("heals_at_secs", Json::from(heals_at.as_secs_f64())),
            ("recovery_secs", Json::from(recovery_secs)),
        ]));
        println!(
            "episode {:>18} at {:>4.0}s heals {:>4.0}s reconverged {}",
            kind,
            at.as_micros() as f64 / 1e6,
            heals_at.as_micros() as f64 / 1e6,
            if recovery_secs >= 0.0 {
                format!("+{recovery_secs:.1}s")
            } else {
                "never".to_string()
            },
        );
    }

    println!(
        "chaos: {devices} devices, {videos} videos, {comments} comments, plan heals at {:.0}s, ran to {:.0}s",
        heal.as_micros() as f64 / 1e6,
        end.as_micros() as f64 / 1e6,
    );
    println!(
        "  events: {} in {wall:.2}s wall -> {events_per_sec:.0} events/sec (faults={} heartbeats={})",
        stats.total, stats.faults, stats.heartbeats
    );
    println!(
        "  availability: fault-window min={fault_min:.4} mean={fault_mean:.4}, post-heal min={post_min:.4}"
    );
    println!(
        "  detection: crashes={} detected={} pings={} outages={} vanishes={} backfills={}",
        m.host_crashes.get(),
        m.host_failures_detected.get(),
        m.hb_pings.get(),
        m.proxy_outages.get(),
        m.device_vanishes.get(),
        m.backfills.get(),
    );
    println!(
        "  ledger: delivered={} dropped={} backfilled={} unaccounted={}",
        report.delivered,
        report.dropped,
        report.backfilled,
        report.unaccounted.len(),
    );
    println!("  peak_rss={:.1} MiB", rss as f64 / (1024.0 * 1024.0));

    let count = |n: usize| Json::from(n as u64);
    let summary = Json::obj([
        ("bench", Json::from("chaos")),
        ("devices", count(devices)),
        ("videos", count(videos)),
        ("comments", count(comments)),
        ("seed", Json::from(seed)),
        ("plan_start_secs", Json::from(plan_start.as_secs_f64())),
        ("plan_heal_secs", Json::from(heal.as_secs_f64())),
        (
            "plan_kinds",
            Json::Arr(meta.kinds.iter().map(|k| Json::from(k.as_str())).collect()),
        ),
        ("episodes", Json::Arr(episode_rows)),
        (
            "availability",
            Json::obj([
                ("fault_window_min", Json::from(fault_min)),
                ("fault_window_mean", Json::from(fault_mean)),
                ("post_heal_min", Json::from(post_min)),
                ("post_heal_mean", Json::from(post_mean)),
                ("samples", count(m.availability_timeline.len())),
            ]),
        ),
        ("wall_seconds", Json::from(wall)),
        ("events_total", Json::from(stats.total)),
        ("events_per_sec", Json::from(events_per_sec)),
        ("events_faults", Json::from(stats.faults)),
        ("events_heartbeats", Json::from(stats.heartbeats)),
        ("peak_rss_bytes", Json::from(rss)),
        ("fingerprint", fingerprint_json(&sim)),
        (
            "metrics",
            Json::obj([
                ("deliveries", Json::from(m.deliveries.get())),
                ("publications", Json::from(m.publications.get())),
                ("subscriptions", Json::from(m.subscriptions.get())),
                ("host_crashes", Json::from(m.host_crashes.get())),
                (
                    "host_failures_detected",
                    Json::from(m.host_failures_detected.get()),
                ),
                ("hb_pings", Json::from(m.hb_pings.get())),
                ("proxy_outages", Json::from(m.proxy_outages.get())),
                ("device_vanishes", Json::from(m.device_vanishes.get())),
                ("connection_drops", Json::from(m.connection_drops.get())),
                ("quorum_failures", Json::from(m.quorum_failures.get())),
                ("backfill_polls", Json::from(m.backfill_polls.get())),
                ("backfills", Json::from(m.backfills.get())),
            ]),
        ),
        (
            "convergence",
            Json::obj([
                ("connected_devices", Json::from(report.connected_devices)),
                ("open_streams", Json::from(report.open_streams)),
                ("stranded", count(report.stranded.len())),
                ("dead_host_streams", Json::from(report.dead_host_streams)),
                ("delivered", Json::from(report.delivered)),
                ("dropped", Json::from(report.dropped)),
                ("backfilled", Json::from(report.backfilled)),
                ("unaccounted", count(report.unaccounted.len())),
                ("converged", Json::from(report.converged())),
                ("violations", violations_json(&report.violations)),
            ]),
        ),
    ]);
    (summary, report)
}

/// The `"fingerprint"` member of a summary: the full `(tick, fingerprint)`
/// series plus the end-of-run state fingerprint. Two runs of the same
/// `(config, seed, workload)` produce equal values; the first differing
/// tick brackets a divergence.
fn fingerprint_json(sim: &SystemSim) -> Json {
    let hex = |fp: u64| Json::from(format!("{fp:016x}"));
    let tick = |(t, fp): &(SimTime, u64)| {
        Json::obj([("t_us", Json::from(t.as_micros())), ("fp", hex(*fp))])
    };
    Json::obj([
        ("final", hex(sim.fingerprint_now())),
        (
            "ticks",
            Json::Arr(sim.tick_fingerprints().iter().map(tick).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number after the first `"key": ` that is followed by a digit,
    /// found the way `benchmark/src/port.rs`'s `number` finds it.
    fn number(text: &str, key: &str) -> Option<u64> {
        let needle = format!("\"{key}\": ");
        text.match_indices(&needle).find_map(|(at, _)| {
            let digits: String = text[at + needle.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
    }

    /// Each key `port.rs` reads, found where it scans for it in the
    /// printed summary, equals the member the summary holds at `path`,
    /// and the final fingerprint prints as 16 hex digits.
    fn check(summary: &Json, keys: &[(&str, &[&str])]) {
        let text = crate::pretty(summary);
        for (key, path) in keys {
            let member = path
                .iter()
                .try_fold(summary, |json, step| json.get(step))
                .and_then(Json::as_u64);
            assert!(member.is_some(), "no {path:?} in the summary");
            assert_eq!(number(&text, key), member, "{key}");
        }
        let fp = summary
            .get("fingerprint")
            .and_then(|f| f.get("final"))
            .and_then(Json::as_str)
            .expect("a final fingerprint");
        assert!(fp.len() == 16 && fp.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(text.contains(&format!("\"final\": \"{fp}\"")));
    }

    #[test]
    fn summaries_carry_what_the_port_check_reads() {
        // The scale and chaos flags `benchmark/src/port.rs` passes are read
        // (an unread one exits 2), at smaller sizes.
        let scale = scale(&Args::new([
            "--devices",
            "200",
            "--seconds",
            "30",
            "--seed",
            "42",
        ]));
        check(
            &scale,
            &[
                ("events_total", &["events_total"]),
                ("workload", &["events_by_subsystem", "workload"]),
                ("pylon", &["events_by_subsystem", "pylon"]),
                ("tao", &["events_by_subsystem", "tao"]),
                ("brass", &["events_by_subsystem", "brass"]),
                ("transport_up", &["events_by_subsystem", "transport_up"]),
                ("transport_down", &["events_by_subsystem", "transport_down"]),
                ("device_churn", &["events_by_subsystem", "device_churn"]),
                ("metrics", &["events_by_subsystem", "metrics"]),
                ("deliveries", &["metrics", "deliveries"]),
            ],
        );
        let deliveries = scale.get("metrics").and_then(|m| m.get("deliveries"));
        assert!(
            deliveries.and_then(Json::as_u64) > Some(0),
            "nothing delivered"
        );

        let (chaos, report) = chaos(&Args::new([
            "--devices",
            "40",
            "--seed",
            "42",
            "--grace",
            "20",
        ]));
        assert!(report.converged(), "{:?}", report.failures());
        check(
            &chaos,
            &[
                ("events_total", &["events_total"]),
                ("events_faults", &["events_faults"]),
                ("events_heartbeats", &["events_heartbeats"]),
                ("deliveries", &["metrics", "deliveries"]),
            ],
        );
    }
}
