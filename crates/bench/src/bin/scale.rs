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
//! The workload is generated lazily: arrival processes are pumped one
//! chunk of simulated time ahead of the executor, so workload memory is
//! O(chunk) instead of O(total events). Pre-building the schedule at a
//! million devices costs more than the resident fleet itself (~1.25M
//! queued subscribes, each holding a header).
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

use bench::driver::ScaleDriver;
use bench::{arg_or, emit_summary, fleet_config, peak_rss_bytes, snapctl};
use bladerunner::config::SystemConfig;
use bladerunner::sim::SystemSim;
use burst::frame::StreamId;
use burst::json::Json;
use simkit::time::{SimDuration, SimTime};
use workload::activity::PoissonArrivals;

#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc;

/// The fleet shape with a lossless last mile and a caller-set tick.
fn scale_config() -> SystemConfig {
    let mut config = fleet_config();
    // The bench measures simulator throughput, not loss behaviour; keep the
    // last mile lossless so delivered-event counts track the workload.
    config.last_mile_drop = 0.0;
    // Metrics ticks are also the fingerprint/snapshot boundaries; the
    // default 15-minute cadence never fires inside the usual 60 s run,
    // so snapshot users pass a finer interval. Part of the experiment
    // definition: a resumed run must pass the same value (the config is
    // checked against the snapshot, so a mismatch fails closed).
    config.metrics_interval = SimDuration::from_secs(arg_or("--metrics-secs", 900));
    config
}

fn main() {
    let tiers: String = arg_or("--tiers", String::new());
    if !tiers.is_empty() {
        run_tiers(&tiers);
        return;
    }
    let devices: usize = arg_or("--devices", 100_000);
    emit_summary(&run_one(devices));
}

/// Runs each tier in a fresh child process (its own address space, so
/// peak RSS is per-tier, not max-so-far) and writes the combined curve.
fn run_tiers(tiers: &str) {
    let exe = std::env::current_exe().expect("current exe");
    let mut bodies = Vec::new();
    for tier in tiers.split(',').filter(|t| !t.is_empty()) {
        let devices: usize = tier.trim().parse().expect("tier device count");
        let tmp = std::env::temp_dir().join(format!("scale-tier-{devices}.json"));
        let forward = |key: &str, args: &mut Vec<String>| {
            if let Some(v) = std::env::args()
                .skip_while(|a| a != key)
                .nth(1)
                .filter(|v| !v.starts_with("--"))
            {
                args.push(key.to_string());
                args.push(v);
            }
        };
        let mut args = vec![
            "--devices".to_string(),
            devices.to_string(),
            "--out".to_string(),
            tmp.display().to_string(),
        ];
        for key in [
            "--seconds",
            "--seed",
            "--comments-per-video",
            "--active-fraction",
            "--metrics-secs",
        ] {
            forward(key, &mut args);
        }
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

/// Whether device `i` is in the always-engaged fraction. A multiplicative
/// hash (distinct from the video-scatter one) so engagement is a
/// deterministic, seed-independent property of the device index.
fn engaged(i: usize, active_fraction: f64) -> bool {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    (h as f64) < active_fraction * (1u64 << 24) as f64
}

fn run_one(devices: usize) -> Json {
    let snap_args = snapctl::from_args();

    let (mut sim, mut state, fleet_live_heap) = match &snap_args.resume {
        Some(path) => {
            let (sim, state): (_, ScaleDriver) = snapctl::resume(scale_config(), path);
            println!(
                "resumed from {} at t={:.2}s (driver scheduled through {:.2}s)",
                path.display(),
                sim.now().as_micros() as f64 / 1e6,
                state.scheduled_through.as_micros() as f64 / 1e6,
            );
            (sim, state, 0usize)
        }
        None => {
            let videos: usize = arg_or("--videos", (devices / 500).max(1));
            let comments_per_video: usize = arg_or("--comments-per-video", 6);
            let sim_seconds: u64 = arg_or("--seconds", 60);
            let seed: u64 = arg_or("--seed", 42);
            let active_fraction: f64 = arg_or(
                "--active-fraction",
                if devices >= 500_000 { 0.3 } else { 1.0 },
            );
            assert!(
                active_fraction > 0.0 && active_fraction <= 1.0,
                "--active-fraction must be in (0, 1]"
            );

            let mut sim = SystemSim::new(scale_config(), seed);

            // Resident fixture: `videos` live videos and the device fleet.
            // This is the state whose footprint we are measuring;
            // everything *scheduled* against it is generated lazily below.
            let video_ids: Vec<u64> = (0..videos)
                .map(|i| sim.was_mut().create_video(&format!("live{i}")))
                .collect();
            let device_ids: Vec<u64> = (0..devices)
                .map(|i| sim.create_user_device(&format!("u{i}"), "en"))
                .collect();
            // The driver blob stores only the first id of each range; the
            // allocator hands out contiguous ids, checked here so a resumed
            // driver can rebuild any id from the base.
            for (i, &v) in video_ids.iter().enumerate() {
                assert_eq!(v, video_ids[0] + i as u64, "video ids not contiguous");
            }
            for (i, &d) in device_ids.iter().enumerate() {
                assert_eq!(d, device_ids[0] + i as u64, "device ids not contiguous");
            }
            let fleet_live_heap = simkit::alloc::live_bytes();

            let comment_rate = (videos * comments_per_video) as f64 / 30.0;
            let comment_start = SimTime::from_secs(10);
            let comments = PoissonArrivals::new(comment_rate, comment_start, sim.rng_mut());
            let state = ScaleDriver {
                devices,
                videos,
                sim_seconds,
                seed,
                active_fraction,
                video0: video_ids[0],
                device0: device_ids[0],
                comment_rate,
                next_sub: 0,
                next_brief: 0,
                comment_next: comments.state(),
                comment_idx: 0,
                churned: false,
                scheduled_through: SimTime::ZERO,
            };
            (sim, state, fleet_live_heap)
        }
    };
    snapctl::apply(&mut sim, &snap_args);

    let devices = state.devices;
    let videos = state.videos;
    let sim_seconds = state.sim_seconds;
    let seed = state.seed;
    let active_fraction = state.active_fraction;

    // Lazy workload, pumped one chunk ahead of the executor:
    //  - engaged subscribes: the engaged fraction joins one video each via
    //    a deterministic scatter, spread over the first five simulated
    //    seconds; every 4th engaged device also opens a per-user
    //    notification topic (the paper's dominant topic shape).
    //  - brief visitors: the rest subscribe on a ramp across the first
    //    60% of the horizon, watch for one short session, cancel, and
    //    hibernate — so their server-side stream state never all
    //    coexists.
    //  - comments: a Poisson stream over [10s, 40s) whose mean total is
    //    `videos * comments_per_video`, round-robined across videos.
    //  - churn: one in a thousand devices drops at 20s and reconnects.
    let sub_span_us = 5_000_000u64;
    let brief_span_us = SimTime::from_secs(sim_seconds).as_micros() * 3 / 5;
    let brief_session = SimDuration::from_micros((brief_span_us / 12).clamp(250_000, 3_000_000));
    let comment_end = SimTime::from_secs(40);
    // Rebuilding from the stored pending arrival draws no RNG, so the
    // resumed master stream stays exactly where the original left it.
    let mut comments = PoissonArrivals::from_state(state.comment_rate, state.comment_next);
    let churn_at = SimTime::from_secs(20);

    let end = SimTime::from_secs(sim_seconds);
    let chunk = SimDuration::from_millis(250);
    let started = Instant::now();
    let (calls_before, events_before) = (simkit::alloc::alloc_calls(), sim.event_stats().total);
    let mut t = state.scheduled_through;
    while t < end {
        let next_t = if t + chunk > end { end } else { t + chunk };
        // Engaged subscribe ramp: all arrivals in [t, next_t).
        while state.next_sub < devices {
            let at = SimTime::from_micros(state.next_sub as u64 * sub_span_us / devices as u64);
            if at >= next_t {
                break;
            }
            let i = state.next_sub;
            state.next_sub += 1;
            if !engaged(i, active_fraction) {
                continue;
            }
            let d = state.device0 + i as u64;
            let v = state.video0 + (i.wrapping_mul(2_654_435_761) % videos) as u64;
            sim.subscribe_lvc(at, d, v);
            if i.is_multiple_of(4) {
                sim.subscribe_notifications(at + SimDuration::from_millis(10), d);
            }
        }
        // Brief-visitor ramp: subscribe, one short session, cancel. The
        // cancel targets the visitor's only stream (devices allocate
        // stream ids from 1).
        while state.next_brief < devices {
            let at = SimTime::from_micros(state.next_brief as u64 * brief_span_us / devices as u64);
            if at >= next_t {
                break;
            }
            let i = state.next_brief;
            state.next_brief += 1;
            if engaged(i, active_fraction) {
                continue;
            }
            let d = state.device0 + i as u64;
            let v = state.video0 + (i.wrapping_mul(2_654_435_761) % videos) as u64;
            sim.subscribe_lvc(at, d, v);
            sim.cancel_stream(at + brief_session, d, StreamId(1));
        }
        // Comment arrivals in [t, next_t) ∩ [start, end).
        while comments.peek() < next_t && comments.peek() < comment_end {
            let at = comments.pop(sim.rng_mut());
            let v = state.comment_idx % videos;
            state.comment_idx += 1;
            sim.post_comment(
                at,
                state.device0 + (v % devices) as u64,
                state.video0 + v as u64,
                "scale bench comment",
            );
        }
        // Churn burst, scheduled in the chunk that contains it.
        if !state.churned && churn_at < next_t {
            for i in (0..devices).filter(|i| i % 1_000 == 500) {
                sim.schedule_device_drop(churn_at, state.device0 + i as u64);
            }
            state.churned = true;
        }
        // Refresh the blob so any snapshot taken inside this chunk carries
        // cursors consistent with what is now in the queues.
        state.comment_next = comments.state();
        state.scheduled_through = next_t;
        snapctl::set_driver(&mut sim, &state);
        sim.run_until(next_t);
        t = next_t;
    }
    let wall = started.elapsed().as_secs_f64();
    let comment_idx = state.comment_idx;

    let stats = sim.event_stats().clone();
    let (parked, _fleet) = sim.hibernation_census();
    let engaged_devices = (0..devices)
        .filter(|&i| engaged(i, active_fraction))
        .count();
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
