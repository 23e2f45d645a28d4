//! One repetition of one workload, run in a fresh child process (its own
//! address space, so `VmHWM` is per-repetition), reported to the parent as
//! `name value` lines on stdout.
//!
//! Two clocks, never mixed: names carrying `sim_` / `hop.` are simulated
//! time and repeat exactly for a seed; every other timing is host time,
//! in reference seconds.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bladerunner::sim::SystemSim;
use simkit::metrics::Histogram;
use simkit::time::SimTime;
use simkit::trace::{DropReason, Hop, Retention};

use crate::alloc;
use crate::probe::{self, SpeedProbe};
use crate::spans::Tracer;
use crate::workloads::{self, Fixture, Kind, CHUNK};

/// What the parent asks a child to run.
#[derive(Clone, Debug)]
pub struct RepSpec {
    pub kind: Kind,
    pub seed: u64,
    pub units: usize,
    pub workers: usize,
    /// Record spans, phases and allocation counts, snapshot/resume at the
    /// end, and write `trace-<workload>.json` into `out_dir`.
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// The hops whose holding time is reported (`tao_commit` opens a trace,
/// so it never has a previous hop).
pub const HOPS: [Hop; 7] = [
    Hop::PylonPublish,
    Hop::PylonDeliver,
    Hop::BrassProcess,
    Hop::BrassSend,
    Hop::BurstDeliver,
    Hop::DeviceRender,
    Hop::WasBackfill,
];

/// Drops that mean the infrastructure lost an update. Policy drops
/// (rate limit, buffer overflow, filters, privacy, no subscribers, no
/// audience, not found) are the design working and are not failures.
const INFRA_DROPS: [DropReason; 5] = [
    DropReason::DeviceDisconnected,
    DropReason::LastMileLoss,
    DropReason::HostDown,
    DropReason::MailboxOverflow,
    DropReason::FlowControl,
];

/// A repetition's results as the parent sees them.
#[derive(Clone, Debug, Default)]
pub struct Rep(pub BTreeMap<String, String>);

impl Rep {
    pub fn parse(stdout: &str) -> Rep {
        Rep(stdout
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect())
    }

    pub fn f(&self, key: &str) -> f64 {
        self.raw(key)
            .parse()
            .unwrap_or_else(|e| panic!("{key}: {e}"))
    }

    pub fn u(&self, key: &str) -> u64 {
        self.raw(key)
            .parse()
            .unwrap_or_else(|e| panic!("{key}: {e}"))
    }

    pub fn raw(&self, key: &str) -> &str {
        self.0
            .get(key)
            .unwrap_or_else(|| panic!("repetition did not report {key}"))
    }
}

struct Out(Vec<(String, String)>);

impl Out {
    fn put(&mut self, key: impl Into<String>, value: impl Display) {
        self.0.push((key.into(), value.to_string()));
    }
}

/// Host wall and events per phase of the run: ramp, steady, drain.
#[derive(Default)]
struct Phases {
    wall_s: [f64; 3],
    events: [u64; 3],
}

/// Runs the repetition and prints its results. Host times are reported in
/// reference seconds (see `probe.rs`): the probe runs around set-up and
/// between chunks, outside every stopwatch.
pub fn run_child(spec: &RepSpec) {
    let mut probe = SpeedProbe::new();
    let mut tr = Tracer::new(Instant::now(), spec.traced);
    probe.unit();
    let setup_start = tr.now_us();
    let mut fx = workloads::build(spec.kind, spec.seed, spec.units);
    fx.sim.set_workers(spec.workers);
    let setup_end = tr.now_us();
    probe.unit();
    tr.push("setup", setup_start, setup_end, None);
    let setup_s = (setup_end - setup_start) as f64 / 1e6 / probe.slowdown();

    let alloc_before = alloc::stats();
    let mut phases = Phases::default();
    probe.restart();
    probe.unit();
    let run_span = tr.push("run", setup_end, setup_end, None);
    let (mut run_us, mut probed_at_us) = (0u64, 0u64);
    let mut t = SimTime::ZERO;
    while t < fx.end {
        let next = (t + CHUNK).min(fx.end);
        let events_before = fx.sim.event_stats().total;
        let a = tr.now_us();
        fx.inject(next);
        let b = tr.now_us();
        fx.sim.run_until(next);
        let c = tr.now_us();
        tr.push("workload.inject", a, b, Some(run_span));
        tr.push("engine.run_until", b, c, Some(run_span));
        let phase = if t < fx.steady.0 {
            0
        } else if t < fx.steady.1 {
            1
        } else {
            2
        };
        phases.wall_s[phase] += (c - a) as f64 / 1e6;
        phases.events[phase] += fx.sim.event_stats().total - events_before;
        run_us += c - a;
        if Duration::from_micros(run_us - probed_at_us) >= probe::EVERY {
            probe.unit();
            probed_at_us = run_us;
        }
        t = next;
    }
    tr.close(run_span);
    let alloc_after = alloc::stats();
    let peak_rss_mib = peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    // Reference seconds per wall second over the timed section.
    let slowdown = probe.slowdown();
    let run_wall_s = run_us as f64 / 1e6 / slowdown;

    let mut out = Out(Vec::new());
    out.put("setup_s", setup_s);
    out.put("run_wall_s", run_wall_s);
    out.put("raw_run_wall_s", run_us as f64 / 1e6);
    out.put("engine.host_speed_ratio", slowdown);
    out.put("sim_seconds", fx.end.as_secs_f64());
    out.put("peak_rss_mib", peak_rss_mib);
    out.put("devices", fx.devices);
    out.put(
        "trace_retention_full",
        (fx.config.trace_retention == Retention::Full) as u8,
    );
    out.put("workload.mutations", fx.injected_mutations);
    report(&mut fx, &mut out, &mut tr);

    if spec.traced {
        let events = fx.sim.event_stats().total.max(1) as f64;
        out.put(
            "engine.allocs_per_event",
            (alloc_after.calls - alloc_before.calls) as f64 / events,
        );
        out.put(
            "engine.alloc_bytes_per_event",
            (alloc_after.bytes - alloc_before.bytes) as f64 / events,
        );
        out.put(
            "engine.live_heap_bytes_per_device",
            alloc_after.live_bytes as f64 / fx.devices as f64,
        );
        for (i, name) in ["ramp", "steady", "drain"].into_iter().enumerate() {
            out.put(
                format!("engine.{name}_ns_per_event"),
                phases.wall_s[i] / slowdown * 1e9 / phases.events[i].max(1) as f64,
            );
        }
        let mut chunks: Vec<f64> = tr
            .durations_us("engine.run_until")
            .map(|us| us as f64 / 1e3 / slowdown)
            .collect();
        chunks.sort_by(f64::total_cmp);
        out.put("engine.chunk_wall_p50_ms", quantile_sorted(&chunks, 0.50));
        out.put("engine.chunk_wall_p95_ms", quantile_sorted(&chunks, 0.95));
        out.put(
            "engine.run_wall_s",
            tr.durations_us("engine.run_until").sum::<u64>() as f64 / 1e6 / slowdown,
        );
        out.put(
            "workload.inject_wall_s",
            tr.durations_us("workload.inject").sum::<u64>() as f64 / 1e6 / slowdown,
        );
        snapshot_resume(&fx, &mut out, &mut tr, slowdown);
        std::fs::create_dir_all(&spec.out_dir).expect("create the benchmark's out directory");
        let path = spec
            .out_dir
            .join(format!("trace-{}.json", spec.kind.name()));
        let run_id = format!("{}-seed{}", spec.kind.name(), spec.seed);
        std::fs::write(&path, tr.to_json(&run_id)).expect("write the span trace");
    }

    let mut text = String::new();
    for (k, v) in &out.0 {
        text.push_str(&format!("{k} {v}\n"));
    }
    print!("{text}");
}

/// Everything read off the finished sim: counts, simulated latencies and
/// the output checks' raw inputs.
fn report(fx: &mut Fixture, out: &mut Out, tr: &mut Tracer) {
    let a = tr.now_us();
    let conv = fx.sim.convergence_report();
    tr.push("report.convergence", a, tr.now_us(), None);

    let stats = fx.sim.event_stats().clone();
    let deliveries = fx.sim.metrics().deliveries.get();
    out.put("fingerprint", format!("{:016x}", fx.sim.fingerprint_now()));
    out.put("converged", conv.converged() as u8);
    out.put("engine.events_total", stats.total);
    out.put("deliveries", deliveries);
    for (name, n) in [
        ("workload", stats.workload),
        ("pylon", stats.pylon),
        ("tao", stats.tao),
        ("brass", stats.brass),
        ("transport_up", stats.transport_up),
        ("transport_down", stats.transport_down),
        ("device_churn", stats.device_churn),
        ("faults", stats.faults),
        ("heartbeats", stats.heartbeats),
        ("metrics", stats.metrics),
    ] {
        out.put(format!("events.{name}"), n);
    }

    let a = tr.now_us();
    ledger_report(&fx.sim, &conv, deliveries, out);
    tr.push("report.ledger", a, tr.now_us(), None);

    let per_delivery = |n: u64| n as f64 / deliveries.max(1) as f64;
    let m = fx.sim.metrics();
    out.put("publications", m.publications.get());
    out.put("pylon.quorum_failures", m.quorum_failures.get());
    out.put("pylon.fanout_queue_peak", m.q_pylon_fanout.peak());
    out.put("brass.events_per_delivery", per_delivery(stats.brass));
    out.put("brass.decisions", fx.sim.total_decisions());
    out.put("brass.mailbox_peak", m.q_brass_mailbox.peak());
    out.put("burst.flow_window_peak", m.q_flow_window.peak());
    out.put("burst.flow_degraded_signals", m.flow_degraded_signals.get());
    out.put(
        "edge.down_events_per_delivery",
        per_delivery(stats.transport_down),
    );
    out.put("edge.pop_egress_peak", m.q_pop_egress.peak());
    out.put("edge.proxy_reconnects", fx.sim.total_proxy_reconnects());
    out.put("edge.backfills", m.backfills.get());
    out.put(
        "fault.host_failures_detected",
        m.host_failures_detected.get(),
    );
    out.put(
        "fault.sim_reconverge_max_s",
        reconverge_max_s(&m.availability_timeline, &fx.heals),
    );
    let (parked, fleet) = fx.sim.hibernation_census();
    out.put("engine.parked_share", parked as f64 / fleet.max(1) as f64);

    let pylon = *fx.sim.pylon().counters();
    out.put("pylon.publishes", pylon.publishes);
    out.put("pylon.subscribes", pylon.subscribes);
    out.put(
        "pylon.forwards_per_publish",
        pylon.forwards as f64 / pylon.publishes.max(1) as f64,
    );
    let regions = fx.config.tao.regions;
    let was = fx.sim.was_mut();
    let wc = *was.counters();
    out.put("was.mutations", wc.mutations);
    out.put("was.queries", wc.queries);
    out.put("was.brass_fetches", wc.brass_fetches);
    out.put("was.fetches_per_delivery", per_delivery(wc.brass_fetches));
    out.put("was.privacy_denials", wc.privacy_denials);
    let tao = was.tao_mut();
    let (mut ops, mut hits, mut misses) = (0, 0, 0);
    for region in 0..regions {
        let c = tao.counters(region);
        ops += c.ops;
        hits += c.total.cache_hits;
        misses += c.total.cache_misses;
    }
    out.put("tao.read_ops", ops);
    out.put(
        "tao.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// Delivery accounting and simulated latencies from the hop ledger.
fn ledger_report(
    sim: &SystemSim,
    conv: &bladerunner::fault::ConvergenceReport,
    deliveries: u64,
    out: &mut Out,
) {
    let ledger = sim.trace_ledger();
    let drops = ledger.drop_table();
    let by_reason = |reason: DropReason| -> u64 {
        drops
            .iter()
            .filter(|(_, r, _)| *r == reason)
            .map(|(_, _, n)| n)
            .sum()
    };
    let infra: u64 = INFRA_DROPS.into_iter().map(by_reason).sum();
    let unaccounted = conv.unaccounted.len() as u64;
    let ops_failed = unaccounted + infra.saturating_sub(conv.backfilled);
    let ops_ok = conv.delivered + conv.backfilled;
    let ops_attempted = ops_ok + ops_failed;
    out.put("unaccounted", unaccounted);
    out.put("ops_attempted", ops_attempted);
    out.put("ops_failed", ops_failed);
    out.put(
        "delivered_share",
        ops_ok as f64 / ops_attempted.max(1) as f64,
    );

    let e2e = ledger.e2e_histogram();
    out.put("sim_delivery_samples", e2e.count());
    out.put("sim_delivery_p50_ms", quantile_interp(e2e, 0.50));
    out.put("sim_delivery_p99_ms", quantile_interp(e2e, 0.99));

    let at_brass: u64 = drops
        .iter()
        .filter(|(hop, _, _)| matches!(hop, Hop::BrassProcess | Hop::BrassSend))
        .map(|(_, _, n)| n)
        .sum();
    out.put(
        "brass.useful_ratio",
        deliveries as f64 / (deliveries + at_brass).max(1) as f64,
    );
    out.put("brass.offers", deliveries + at_brass);
    for (name, reason) in [
        ("brass.drop_buffer_overflow", DropReason::BufferOverflow),
        ("brass.drop_rate_limit", DropReason::RateLimit),
        ("brass.drop_mailbox_overflow", DropReason::MailboxOverflow),
        ("brass.drop_host_down", DropReason::HostDown),
        ("burst.drop_flow_control", DropReason::FlowControl),
        (
            "edge.drop_device_disconnected",
            DropReason::DeviceDisconnected,
        ),
        ("edge.drop_last_mile_loss", DropReason::LastMileLoss),
    ] {
        out.put(name, by_reason(reason));
    }
    out.put("simkit.trace.drop_records", ledger.total_drops());
    // Every record but a trace's first lands in its hop's histogram.
    let mut records = ledger.trace_count() as u64;
    for hop in HOPS {
        let h = ledger.hop_histogram(hop);
        records += h.map_or(0, Histogram::count);
        let q = |q| h.map_or(0.0, |h| quantile_interp(h, q));
        out.put(format!("hop.{}.p50_ms", hop.name()), q(0.50));
        out.put(format!("hop.{}.p99_ms", hop.name()), q(0.99));
    }
    out.put("simkit.trace.records", records);
}

/// Snapshots the finished world, resumes it, and checks the resumed copy
/// fingerprints the same.
fn snapshot_resume(fx: &Fixture, out: &mut Out, tr: &mut Tracer, slowdown: f64) {
    let a = tr.now_us();
    let bytes = fx.sim.snapshot();
    let b = tr.now_us();
    let resumed = SystemSim::resume(fx.config.clone(), &bytes);
    let c = tr.now_us();
    tr.push("engine.snapshot", a, b, None);
    tr.push("engine.resume", b, c, None);
    out.put("engine.snapshot_s", (b - a) as f64 / 1e6 / slowdown);
    out.put("engine.resume_s", (c - b) as f64 / 1e6 / slowdown);
    out.put(
        "engine.snapshot_bytes_per_device",
        bytes.len() as f64 / fx.devices as f64,
    );
    let same = resumed.is_ok_and(|r| r.fingerprint_now() == fx.sim.fingerprint_now());
    out.put("resume_matches", same as u8);
}

/// Worst per-episode time from heal to the first availability sample at
/// or above 0.999 (the rule `chaos.rs` reports per episode). `-1` if an
/// episode never reconverged; `0` for a workload without episodes.
fn reconverge_max_s(timeline: &[(SimTime, f64)], heals: &[SimTime]) -> f64 {
    let mut worst: f64 = 0.0;
    for &heal in heals {
        match timeline
            .iter()
            .find(|(t, avail)| *t >= heal && *avail >= 0.999)
        {
            Some((t, _)) => worst = worst.max(t.saturating_since(heal).as_secs_f64()),
            None => return -1.0,
        }
    }
    worst
}

/// Quantile of a bucketed histogram, interpolated inside the bucket that
/// holds it, so that a shift smaller than a bucket (≈3 %) still shows.
/// `Histogram::quantile` returns the bucket's midpoint and `cdf_at` the
/// cumulative share through a value's bucket; the bucket's lower edge is
/// found by bisecting `cdf_at`, so no bucket geometry is assumed here.
pub fn quantile_interp(h: &Histogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let mid = h.quantile(q);
    let through = h.cdf_at(mid);
    // Smallest whole value whose bucket is `mid`'s.
    let (mut lo, mut hi) = (0u64, mid as u64);
    while lo < hi {
        let probe = lo + (hi - lo) / 2;
        if h.cdf_at(probe as f64) >= through {
            hi = probe;
        } else {
            lo = probe + 1;
        }
    }
    let edge = lo as f64;
    let below = if lo == 0 { 0.0 } else { h.cdf_at(edge - 1.0) };
    let width = (2.0 * (mid - edge)).max(1.0);
    let share = ((q - below) / (through - below)).clamp(0.0, 1.0);
    (edge + width * share).clamp(h.min(), h.max())
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Peak resident set size (`VmHWM`); 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles_track_a_uniform_spread() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v as f64);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = quantile_interp(&h, q);
            assert!(
                (got - expect).abs() / expect < 0.005,
                "q{q}: {got} vs {expect} (midpoint gives {})",
                h.quantile(q)
            );
        }
    }

    #[test]
    fn interpolated_quantiles_stay_inside_the_samples() {
        let mut h = Histogram::new();
        assert_eq!(quantile_interp(&h, 0.5), 0.0);
        h.record(777.0);
        assert_eq!(quantile_interp(&h, 0.5), 777.0);
        assert_eq!(quantile_interp(&h, 0.99), 777.0);
    }

    #[test]
    fn reconvergence_is_the_worst_episode() {
        let at = SimTime::from_secs;
        let timeline = [
            (at(10), 0.9),
            (at(12), 0.9995),
            (at(20), 0.5),
            (at(26), 1.0),
        ];
        assert_eq!(reconverge_max_s(&timeline, &[at(11), at(20)]), 6.0);
        assert_eq!(reconverge_max_s(&timeline, &[at(27)]), -1.0);
        assert_eq!(reconverge_max_s(&timeline, &[]), 0.0);
    }
}
