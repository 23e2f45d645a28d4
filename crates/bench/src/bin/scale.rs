//! Simulator-throughput and memory benchmark: a large mixed workload (LVC
//! audiences plus per-user notification topics), reported as wall-clock
//! events/sec, peak RSS, and bytes-per-device.
//!
//! Run: `cargo run --release -p bench --bin scale [--devices N]
//! [--out F] [--snapshot-every T] [--snapshot-dir D] [--resume-from F]`.
//! `--snapshot-every` writes a sealed resumable snapshot every T metrics
//! ticks; `--resume-from` restarts from one of those files and produces
//! bit-identical results. The lazy workload driver's cursors (subscribe
//! ramps, the Poisson comment stream's pending arrival, the churn flag)
//! ride in each snapshot's driver blob, refreshed every chunk, so the
//! resumed driver picks up scheduling exactly where the original was.
//!
//! `--tiers 100000,300000,1000000` runs each tier in a fresh child process
//! (so every tier gets its own peak-RSS measurement) and writes one
//! combined summary with the memory curve. Summaries go to the `--out`
//! file, or to stdout when none is named.
//!
//! Build with `--features count-alloc` to additionally report *live heap
//! bytes* via the counting global allocator — RSS folds allocator slack
//! and code pages into the number; live bytes is what the fleet actually
//! holds.
//!
//! The world is `bladerunner::scenario::scale`. Its workload is generated
//! lazily: arrival processes are pumped one chunk of simulated time ahead
//! of the executor, so workload memory is O(chunk) instead of O(total
//! events). Pre-building the schedule at a million devices costs more
//! than the resident fleet itself (~1.25M queued subscribes, each holding
//! a header).
//!
//! `--active-fraction F` models the paper's diurnal duty cycle (Fig. 8:
//! most devices are idle most of the time): a deterministic fraction `F`
//! of the fleet is *engaged* — streams open for the whole run — while the
//! rest are *brief visitors* who subscribe, watch for a short session,
//! cancel, and hibernate. Defaults to 1.0 (every device engaged, the
//! historical bench shape) below 500k devices and to 0.3 at fleet scale,
//! where an always-on million-stream fleet would model a workload the
//! paper says does not exist. The fraction used is recorded in the
//! summary JSON.

use std::time::Instant;

use bench::{arg_or, emit_summary, peak_rss_bytes, snapctl};
use bladerunner::scenario::{self, ScaleDriver};
use burst::json::Json;
use simkit::time::SimDuration;

#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc;

/// The flags a tier's child process inherits from the `--tiers` run.
const TIER_FLAGS: [&str; 6] = [
    "--seconds",
    "--seed",
    "--videos",
    "--comments-per-video",
    "--active-fraction",
    "--metrics-secs",
];

fn main() {
    let tiers: String = arg_or("--tiers", String::new());
    if !tiers.is_empty() {
        run_tiers(&tiers);
        return;
    }
    let devices: usize = arg_or("--devices", 100_000);
    emit_summary(&run_one(devices));
}

/// A tier child's arguments: its device count and summary file, then each
/// of [`TIER_FLAGS`] that `args` (the parent's) gives a value.
fn tier_args(args: &[String], devices: usize, out: &str) -> Vec<String> {
    let mut child = vec![
        "--devices".to_string(),
        devices.to_string(),
        "--out".to_string(),
        out.to_string(),
    ];
    for key in TIER_FLAGS {
        let value = args.iter().skip_while(|a| *a != key).nth(1);
        if let Some(value) = value.filter(|v| !v.starts_with("--")) {
            child.push(key.to_string());
            child.push(value.clone());
        }
    }
    child
}

/// Runs each tier in a fresh child process (its own address space, so
/// peak RSS is per-tier, not max-so-far) and writes the combined curve.
fn run_tiers(tiers: &str) {
    let exe = std::env::current_exe().expect("current exe");
    let parent_args: Vec<String> = std::env::args().collect();
    let mut bodies = Vec::new();
    for tier in tiers.split(',').filter(|t| !t.is_empty()) {
        let devices: usize = tier.trim().parse().expect("tier device count");
        let tmp = std::env::temp_dir().join(format!("scale-tier-{devices}.json"));
        let args = tier_args(&parent_args, devices, &tmp.display().to_string());
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .expect("spawn tier child");
        assert!(status.success(), "tier {devices} failed");
        let body = std::fs::read_to_string(&tmp).expect("read tier summary");
        let _ = std::fs::remove_file(&tmp);
        bodies.push(Json::parse(&body).expect("tier summary is JSON"));
    }
    emit_summary(&Json::obj([
        ("bench", Json::from("scale-tiers")),
        (
            "note",
            Json::from(
                "Tiers below 500k devices default to full duty (active fraction 1.0, the \
                 historical workload shape); larger tiers default to the diurnal 0.3 (see \
                 --active-fraction). Event and delivery counts are seed-deterministic and \
                 comparable across hosts; wall-clock events/sec is not -- compare it only \
                 against a same-host run.",
            ),
        ),
        ("tiers", Json::Arr(bodies)),
    ]));
}

fn run_one(devices: usize) -> Json {
    let snap_args = snapctl::from_args();
    // The default 15-minute tick never fires inside the usual 60 s run, so
    // snapshot users pass a finer `--metrics-secs`; a resumed run must pass
    // the same value (the config is checked against the snapshot).
    let config = scenario::scale_config(SimDuration::from_secs(arg_or("--metrics-secs", 900)));

    let (mut sim, mut driver, fleet_live_heap) = match &snap_args.resume {
        Some(path) => {
            let (sim, driver): (_, ScaleDriver) = snapctl::resume(config, path);
            println!(
                "resumed from {} at t={:.2}s (driver scheduled through {:.2}s)",
                path.display(),
                sim.now().as_micros() as f64 / 1e6,
                driver.scheduled_through.as_micros() as f64 / 1e6,
            );
            (sim, driver, 0usize)
        }
        None => {
            let (sim, driver) = scenario::scale(
                config,
                devices,
                arg_or("--videos", (devices / 500).max(1)),
                arg_or("--comments-per-video", 6),
                arg_or("--seconds", 60),
                arg_or("--seed", 42),
                arg_or(
                    "--active-fraction",
                    if devices >= 500_000 { 0.3 } else { 1.0 },
                ),
            );
            // The resident fixture (videos and the device fleet) is the
            // state whose footprint is measured; the workload is
            // scheduled lazily as the run goes.
            (sim, driver, simkit::alloc::live_bytes())
        }
    };
    snapctl::apply(&mut sim, &snap_args);

    let ScaleDriver {
        devices,
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
    // Allocator calls per event over the timed loop (injection included):
    // exact under `count-alloc`, zero without it.
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
    if live_heap_peak > 0 {
        println!(
            "  live heap: fleet={:.1} MiB end={:.1} MiB peak={:.1} MiB ({:.0} live B/device), \
             {allocs_per_event:.2} allocations/event",
            fleet_live_heap as f64 / (1024.0 * 1024.0),
            live_heap as f64 / (1024.0 * 1024.0),
            live_heap_peak as f64 / (1024.0 * 1024.0),
            live_heap as f64 / devices as f64
        );
    }

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
        ("fingerprint", snapctl::fingerprint_json(&sim)),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_children_inherit_every_workload_flag() {
        let parent: Vec<String> =
            "scale --tiers 100,300 --videos 50 --seed 7 --out all.json --seconds --metrics-secs 5"
                .split(' ')
                .map(String::from)
                .collect();
        let child = tier_args(&parent, 300, "t.json");
        assert_eq!(
            child.join(" "),
            "--devices 300 --out t.json --seed 7 --videos 50 --metrics-secs 5",
            "a flag without a value (--seconds) is not forwarded"
        );
    }
}
