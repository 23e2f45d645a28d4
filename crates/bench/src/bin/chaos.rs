//! Chaos benchmark: the canned fault plan at scale, with an availability
//! timeline, per-episode recovery times, and the post-heal convergence
//! audit as the pass/fail gate.
//!
//! Run: `cargo run --release -p bench --bin chaos [--devices N]
//! [--out F] [--snapshot-every T] [--snapshot-dir D] [--resume-from F]`.
//! `--snapshot-every` writes a sealed resumable snapshot every T metrics
//! ticks; `--resume-from` restarts a run from one of those files and
//! produces bit-identical metrics, ledgers, and fingerprints to the
//! uninterrupted run (the fault plan and comment schedule are already in
//! the snapshot's event queues; the run's timeline metadata rides in the
//! snapshot's driver blob).
//!
//! The plan covers all six fault kinds (unplanned BRASS crash, rolling
//! upgrade wave, minority + majority Pylon partitions, proxy outage,
//! device flapping, reconnect storm); everything downstream of injection
//! — heartbeat detection, stream repair, reconnect backoff, WAS backfill
//! — is the system's own behaviour. Exits non-zero if the convergence
//! checker finds a stranded stream, a stream pinned to a dead host, or an
//! unaccounted admitted update. Writes a machine-readable summary to the
//! `--out` file, or to stdout when none is named.

use std::time::Instant;

use bench::{arg_or, emit_summary, peak_rss_bytes, snapctl, violations_json};
use bladerunner::config::SystemConfig;
use bladerunner::fault::canned_plan;
use bladerunner::replay;
use bladerunner::sim::SystemSim;
use pylon::PylonConfig;
use simkit::snap::{SnapReader, SnapResult, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Retention;
use tao::TaoConfig;

/// A medium system shape with the full failure-detection stack switched
/// on: proxy→host heartbeats drive crash detection, POP→device
/// heartbeats reap silently-vanished devices, and the ledger keeps full
/// retention so the convergence audit can account every admitted update.
fn chaos_config() -> SystemConfig {
    let mut config = SystemConfig::medium();
    config.tao = TaoConfig {
        shards: 64,
        regions: 3,
        cache_capacity: 1 << 20,
    };
    config.pylon = PylonConfig {
        topic_shards: 65_536,
        servers: 64,
        kv_nodes: 16,
        replicas: 3,
    };
    config.brass_hosts = 32;
    config.proxies = 8;
    config.pops = 8;
    config.device_heartbeats = true;
    config.trace_retention = Retention::Full;
    // A tight metrics tick so the availability timeline resolves each
    // episode's dip and recovery.
    config.metrics_interval = SimDuration::from_secs(2);
    config.metrics_horizon = SimDuration::from_hours(2);
    config
}

/// Everything the post-run report needs that is not recoverable from the
/// sim itself. Rides in the snapshot's driver blob so `--resume-from`
/// prints the same report the uninterrupted run would have.
struct RunMeta {
    devices: usize,
    videos: usize,
    comments: usize,
    seed: u64,
    plan_start: SimTime,
    heal: SimTime,
    end: SimTime,
    kinds: Vec<String>,
    /// Per-episode `(kind label, injected at, heals at)`.
    episodes: Vec<(String, SimTime, SimTime)>,
}

fn encode_meta(m: &RunMeta) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_usize(m.devices);
    w.put_usize(m.videos);
    w.put_usize(m.comments);
    w.put_u64(m.seed);
    w.put_u64(m.plan_start.as_micros());
    w.put_u64(m.heal.as_micros());
    w.put_u64(m.end.as_micros());
    w.put_usize(m.kinds.len());
    for k in &m.kinds {
        w.put_str(k);
    }
    w.put_usize(m.episodes.len());
    for (label, at, heals) in &m.episodes {
        w.put_str(label);
        w.put_u64(at.as_micros());
        w.put_u64(heals.as_micros());
    }
    w.into_bytes()
}

fn decode_meta(bytes: &[u8]) -> SnapResult<RunMeta> {
    let mut r = SnapReader::new(bytes);
    let devices = r.get_usize()?;
    let videos = r.get_usize()?;
    let comments = r.get_usize()?;
    let seed = r.get_u64()?;
    let plan_start = SimTime::from_micros(r.get_u64()?);
    let heal = SimTime::from_micros(r.get_u64()?);
    let end = SimTime::from_micros(r.get_u64()?);
    let mut kinds = Vec::new();
    for _ in 0..r.get_usize()? {
        kinds.push(r.get_str()?);
    }
    let mut episodes = Vec::new();
    for _ in 0..r.get_usize()? {
        let label = r.get_str()?;
        let at = SimTime::from_micros(r.get_u64()?);
        let heals = SimTime::from_micros(r.get_u64()?);
        episodes.push((label, at, heals));
    }
    r.finish()?;
    Ok(RunMeta {
        devices,
        videos,
        comments,
        seed,
        plan_start,
        heal,
        end,
        kinds,
        episodes,
    })
}

/// Builds the chaos run from scratch: fixture, fault plan, comment
/// schedule — everything pre-scheduled before the clock moves.
fn build_run(config: &SystemConfig) -> (SystemSim, RunMeta) {
    let devices: usize = arg_or("--devices", 20_000);
    let videos: usize = arg_or("--videos", (devices / 500).max(1));
    let seed: u64 = arg_or("--seed", 42);
    let grace_secs: u64 = arg_or("--grace", 60);

    let mut sim = SystemSim::new(config.clone(), seed);

    // Fixture: live videos with the audience scattered across them,
    // subscribes spread over the first five simulated seconds.
    let video_ids: Vec<u64> = (0..videos)
        .map(|i| sim.was_mut().create_video(&format!("chaos{i}")))
        .collect();
    let mut device_ids = Vec::with_capacity(devices);
    for i in 0..devices {
        let d = sim.create_user_device(&format!("u{i}"), "en");
        let at = SimTime::from_micros(i as u64 * 5_000_000 / devices as u64);
        sim.subscribe_lvc(at, d, video_ids[i.wrapping_mul(2_654_435_761) % videos]);
        device_ids.push(d);
    }

    // The fault plan: all six kinds, compiled from the run's seed.
    let plan_start = SimTime::from_secs(30);
    let mut plan_rng = sim.rng_mut().fork(0xFA);
    let plan = canned_plan(plan_start, config, &device_ids, &mut plan_rng);
    assert!(
        plan.kinds().len() >= 5,
        "the canned plan must cover at least 5 fault kinds (got {:?})",
        plan.kinds()
    );
    plan.apply(&mut sim);
    let heal = plan.heal_time();

    // Comments flow throughout the chaos window so every episode has
    // updates in flight: each video gets one every ~10s, phase-offset per
    // video so publishes interleave.
    let mut comments = 0usize;
    for (v, &video) in video_ids.iter().enumerate() {
        let mut t =
            SimTime::from_secs(10) + SimDuration::from_micros((v as u64 * 7_919) % 10_000_000);
        while t < heal {
            sim.post_comment(t, device_ids[v % devices], video, "chaos bench comment");
            comments += 1;
            t += SimDuration::from_secs(10);
        }
    }

    // Run through the last heal plus grace: detection windows close,
    // reconnect backoffs drain, backfills land.
    let end = heal + SimDuration::from_secs(grace_secs);
    let meta = RunMeta {
        devices,
        videos,
        comments,
        seed,
        plan_start,
        heal,
        end,
        kinds: plan.kinds().iter().map(|k| k.to_string()).collect(),
        episodes: plan
            .episodes
            .iter()
            .map(|ep| (ep.kind.label().to_string(), ep.at, ep.heals_at()))
            .collect(),
    };
    sim.set_driver_blob(encode_meta(&meta));
    (sim, meta)
}

fn main() {
    let snap_args = snapctl::from_args();

    let config = chaos_config();
    let (mut sim, meta) = match &snap_args.resume {
        Some(path) => {
            let sim = replay::resume_from_file(config.clone(), path)
                .unwrap_or_else(|e| panic!("resume from {}: {e}", path.display()));
            let meta = decode_meta(sim.driver_blob()).expect("driver blob");
            println!(
                "resumed from {} at t={:.0}s",
                path.display(),
                sim.now().as_micros() as f64 / 1e6
            );
            (sim, meta)
        }
        None => build_run(&config),
    };
    snapctl::apply(&mut sim, &snap_args);

    let (devices, videos, comments, seed) = (meta.devices, meta.videos, meta.comments, meta.seed);
    let (plan_start, heal, end) = (meta.plan_start, meta.heal, meta.end);
    let grace_secs: u64 = end.saturating_since(heal).as_micros() / 1_000_000;
    let started = Instant::now();
    sim.run_until(end);
    let wall = started.elapsed().as_secs_f64();

    let stats = sim.event_stats().clone();
    let m = sim.metrics();
    let report = sim.convergence_report();
    let events_per_sec = stats.total as f64 / wall.max(1e-9);
    let rss = peak_rss_bytes();

    // Availability under fault vs after healing.
    let (fault_min, fault_mean) = m.availability_stats(plan_start, heal);
    let (post_min, post_mean) =
        m.availability_stats(heal + SimDuration::from_secs(grace_secs / 2), end);

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
        episode_rows.push(format!(
            concat!(
                "    {{ \"kind\": \"{}\", \"at_secs\": {:.0}, ",
                "\"heals_at_secs\": {:.0}, \"recovery_secs\": {:.1} }}"
            ),
            kind,
            at.as_micros() as f64 / 1e6,
            heals_at.as_micros() as f64 / 1e6,
            recovery_secs,
        ));
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

    let kinds_json = meta
        .kinds
        .iter()
        .map(|k| format!("\"{k}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"chaos\",\n",
            "  \"devices\": {},\n",
            "  \"videos\": {},\n",
            "  \"comments\": {},\n",
            "  \"seed\": {},\n",
            "  \"plan_start_secs\": {:.0},\n",
            "  \"plan_heal_secs\": {:.0},\n",
            "  \"plan_kinds\": [{}],\n",
            "  \"episodes\": [\n{}\n  ],\n",
            "  \"availability\": {{\n",
            "    \"fault_window_min\": {:.4},\n",
            "    \"fault_window_mean\": {:.4},\n",
            "    \"post_heal_min\": {:.4},\n",
            "    \"post_heal_mean\": {:.4},\n",
            "    \"samples\": {}\n",
            "  }},\n",
            "  \"wall_seconds\": {:.3},\n",
            "  \"events_total\": {},\n",
            "  \"events_per_sec\": {:.1},\n",
            "  \"events_faults\": {},\n",
            "  \"events_heartbeats\": {},\n",
            "  \"peak_rss_bytes\": {},\n",
            "  {},\n",
            "  \"metrics\": {{\n",
            "    \"deliveries\": {},\n",
            "    \"publications\": {},\n",
            "    \"subscriptions\": {},\n",
            "    \"host_crashes\": {},\n",
            "    \"host_failures_detected\": {},\n",
            "    \"hb_pings\": {},\n",
            "    \"proxy_outages\": {},\n",
            "    \"device_vanishes\": {},\n",
            "    \"connection_drops\": {},\n",
            "    \"quorum_failures\": {},\n",
            "    \"backfill_polls\": {},\n",
            "    \"backfills\": {}\n",
            "  }},\n",
            "  \"convergence\": {{\n",
            "    \"connected_devices\": {},\n",
            "    \"open_streams\": {},\n",
            "    \"stranded\": {},\n",
            "    \"dead_host_streams\": {},\n",
            "    \"delivered\": {},\n",
            "    \"dropped\": {},\n",
            "    \"backfilled\": {},\n",
            "    \"unaccounted\": {},\n",
            "    \"converged\": {},\n",
            "    \"violations\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        devices,
        videos,
        comments,
        seed,
        plan_start.as_micros() as f64 / 1e6,
        heal.as_micros() as f64 / 1e6,
        kinds_json,
        episode_rows.join(",\n"),
        fault_min,
        fault_mean,
        post_min,
        post_mean,
        m.availability_timeline.len(),
        wall,
        stats.total,
        events_per_sec,
        stats.faults,
        stats.heartbeats,
        rss,
        snapctl::fingerprint_json(&sim),
        m.deliveries.get(),
        m.publications.get(),
        m.subscriptions.get(),
        m.host_crashes.get(),
        m.host_failures_detected.get(),
        m.hb_pings.get(),
        m.proxy_outages.get(),
        m.device_vanishes.get(),
        m.connection_drops.get(),
        m.quorum_failures.get(),
        m.backfill_polls.get(),
        m.backfills.get(),
        report.connected_devices,
        report.open_streams,
        report.stranded.len(),
        report.dead_host_streams,
        report.delivered,
        report.dropped,
        report.backfilled,
        report.unaccounted.len(),
        report.converged(),
        violations_json(&report.violations),
    );
    emit_summary(&json);

    if !report.converged() {
        eprintln!("convergence FAILED:");
        for line in report.failures() {
            eprintln!("  - {line}");
        }
        std::process::exit(1);
    }
    println!("  convergence: OK");
}
