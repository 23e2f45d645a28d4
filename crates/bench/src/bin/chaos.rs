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
//! The world is `bladerunner::scenario::chaos` (`--devices`, `--videos`,
//! `--seed`, `--grace`); `bench`'s `chaos_gate` test holds its 2k-device
//! run to the availability bounds. The plan covers all six fault kinds (unplanned BRASS crash, rolling
//! upgrade wave, minority + majority Pylon partitions, proxy outage,
//! device flapping, reconnect storm); everything downstream of injection
//! — heartbeat detection, stream repair, reconnect backoff, WAS backfill
//! — is the system's own behaviour. Exits non-zero if the convergence
//! checker finds a stranded stream, a stream pinned to a dead host, or an
//! unaccounted admitted update. Writes a machine-readable summary to the
//! `--out` file, or to stdout when none is named.

use std::time::Instant;

use bench::{arg_or, emit_summary, peak_rss_bytes, snapctl, violations_json};
use bladerunner::scenario::{self, ChaosMeta};
use burst::json::Json;

fn main() {
    let snap_args = snapctl::from_args();

    let (mut sim, meta) = match &snap_args.resume {
        Some(path) => {
            let (sim, meta): (_, ChaosMeta) = snapctl::resume(scenario::chaos_config(), path);
            println!(
                "resumed from {} at t={:.0}s",
                path.display(),
                sim.now().as_micros() as f64 / 1e6
            );
            (sim, meta)
        }
        None => {
            let devices: usize = arg_or("--devices", 20_000);
            let videos = arg_or("--videos", (devices / 500).max(1));
            scenario::chaos(devices, videos, arg_or("--seed", 42), arg_or("--grace", 60))
        }
    };
    snapctl::apply(&mut sim, &snap_args);

    let (devices, videos, comments, seed) = (meta.devices, meta.videos, meta.comments, meta.seed);
    let (plan_start, heal, end) = (meta.plan_start, meta.heal, meta.end);
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
    emit_summary(&Json::obj([
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
        ("fingerprint", snapctl::fingerprint_json(&sim)),
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
    ]));

    if !report.converged() {
        eprintln!("convergence FAILED:");
        for line in report.failures() {
            eprintln!("  - {line}");
        }
        std::process::exit(1);
    }
    println!("  convergence: OK");
}
