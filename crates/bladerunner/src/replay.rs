//! Divergence-bisecting replay.
//!
//! Given two run recipes that *should* agree (two builds of one spec, or
//! two deliberately different configs), the bisect engine runs both with
//! per-tick fingerprints and periodic snapshots
//! ([`SystemSim::snapshot`] / [`SystemSim::resume`]), binary-searches the
//! fingerprint series for the first diverging metrics tick, resumes each
//! side from the nearest common snapshot before it, replays the one
//! diverging tick under a per-event log, and reports the first event
//! where the executions part ways — `(time, seq)`, both renderings, and
//! both trace ledgers' neighborhoods. Replay cost is O(one tick) after an
//! O(log ticks) search instead of O(whole run) squinting.
//!
//! The engine requires runs whose workload is fully scheduled before
//! `run_until` (the chaos and flash-crowd worlds, the canned bisect
//! scenario). Lazily-pumped drivers (the scale world) resume fine — their
//! cursors ride in the snapshot's driver blob — but bisecting them would
//! need the driver replayed too, which the engine does not do.

use std::fmt::Write as _;

use simkit::time::SimTime;
use simkit::trace::HopRecord;

use crate::config::SystemConfig;
use crate::sim::SystemSim;

/// One side of a bisection: how to build (and rebuild) the run.
///
/// `build` must be deterministic — called once for the recorded run and
/// possibly again for the replay — and must fully schedule its workload
/// before returning (the engine only calls `run_until` afterwards).
pub struct RunSpec<'a> {
    /// Label used in the report ("run A", "config B", …).
    pub label: String,
    /// The exact config `build` uses (needed to resume snapshots).
    pub config: SystemConfig,
    /// Builds the fully-loaded simulation at time zero.
    pub build: Box<dyn Fn() -> SystemSim + 'a>,
}

/// The first event at which two executions part ways.
#[derive(Debug)]
pub struct DivergingEvent {
    /// When the event executed.
    pub time: SimTime,
    /// Its position in the pop order of the replayed span.
    pub seq: usize,
    /// The event as run A executed it (`None`: A had no event here).
    pub a: Option<String>,
    /// The event as run B executed it (`None`: B had no event here).
    pub b: Option<String>,
}

/// What a bisection found.
#[derive(Debug)]
pub struct BisectReport {
    /// Whether the runs diverged at all.
    pub diverged: bool,
    /// Label of run A / run B (echoed from the specs).
    pub labels: (String, String),
    /// The first metrics tick whose fingerprints disagree.
    pub first_diverging_tick: Option<SimTime>,
    /// Fingerprint probes the binary search spent.
    pub probes: u32,
    /// The snapshot instant both replays resumed from (`None`: replayed
    /// from a fresh build — the runs diverged before the first snapshot).
    pub resumed_from: Option<SimTime>,
    /// The first diverging event, if the per-event diff found one.
    pub event: Option<DivergingEvent>,
    /// Tail of run A's trace ledger around the divergence, newest last.
    pub ledger_a: Vec<String>,
    /// Tail of run B's trace ledger around the divergence, newest last.
    pub ledger_b: Vec<String>,
}

impl BisectReport {
    /// Human-readable rendering (what `bench --bin bisect` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let (a, b) = &self.labels;
        if !self.diverged {
            let _ = writeln!(out, "runs {a:?} and {b:?} agree at every metrics tick");
            return out;
        }
        let _ = writeln!(out, "runs {a:?} and {b:?} DIVERGE");
        if let Some(t) = self.first_diverging_tick {
            let _ = writeln!(
                out,
                "first diverging fingerprint tick: t={}µs ({} probes)",
                t.as_micros(),
                self.probes
            );
        }
        match self.resumed_from {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "replayed from common snapshot at t={}µs",
                    s.as_micros()
                );
            }
            None => {
                let _ = writeln!(out, "replayed from t=0 (diverged before any snapshot)");
            }
        }
        match &self.event {
            Some(ev) => {
                let _ = writeln!(
                    out,
                    "first diverging event: time={}µs seq={}",
                    ev.time.as_micros(),
                    ev.seq
                );
                let _ = writeln!(out, "  {a}: {}", ev.a.as_deref().unwrap_or("<no event>"));
                let _ = writeln!(out, "  {b}: {}", ev.b.as_deref().unwrap_or("<no event>"));
            }
            None => {
                let _ = writeln!(
                    out,
                    "event streams agree over the replayed tick; divergence is in \
                     aggregate state only (fingerprint components)"
                );
            }
        }
        for (label, tail) in [(a, &self.ledger_a), (b, &self.ledger_b)] {
            let _ = writeln!(out, "ledger neighborhood, run {label:?}:");
            if tail.is_empty() {
                let _ = writeln!(out, "  <empty>");
            }
            for line in tail {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// One recorded run: its fingerprint series and retained snapshots.
struct Recorded {
    fps: Vec<(SimTime, u64)>,
    snapshots: Vec<(SimTime, Vec<u8>)>,
}

fn record_run(spec: &RunSpec<'_>, end: SimTime, snapshot_every: u64) -> Recorded {
    let mut sim = (spec.build)();
    sim.set_snapshot_policy(snapshot_every);
    sim.run_until(end);
    Recorded {
        fps: sim.tick_fingerprints().to_vec(),
        snapshots: sim
            .snapshots()
            .iter()
            .map(|(t, b)| (*t, b.clone()))
            .collect(),
    }
}

/// The last ledger records at or before `cutoff` (newest last), rendered.
fn ledger_tail(sim: &SystemSim, cutoff: SimTime, n: usize) -> Vec<String> {
    let ledger = sim.trace_ledger();
    let render = |r: HopRecord| format!("{r}");
    let mut tail: Vec<String> = ledger
        .records()
        .chain(ledger.recent_records().copied())
        .filter(|r| r.at <= cutoff)
        .map(render)
        .collect();
    let cut = tail.len().saturating_sub(n);
    tail.drain(..cut);
    tail
}

/// Bisects two runs down to their first diverging event.
///
/// Both runs execute to `end` with per-tick fingerprints and a snapshot
/// every `snapshot_every` metrics ticks. If the fingerprint series agree
/// (and are the same length), the report says so and stops. Otherwise the
/// engine binary-searches the series for the first diverging tick,
/// resumes both sides from the latest snapshot both runs took before
/// that tick (or rebuilds from scratch if none), replays up to the
/// diverging tick with the per-event log on, and diffs the logs.
pub fn bisect(a: &RunSpec<'_>, b: &RunSpec<'_>, end: SimTime, snapshot_every: u64) -> BisectReport {
    let ra = record_run(a, end, snapshot_every);
    let rb = record_run(b, end, snapshot_every);
    let labels = (a.label.clone(), b.label.clone());

    let n = ra.fps.len().min(rb.fps.len());
    // The fingerprints fold the ledger's rolling hash, so they are
    // cumulative: equal-at-i implies equal-at-all-earlier-i. That makes
    // "first diverging tick" binary-searchable.
    let mut lo = 0usize;
    let mut hi = n;
    let mut probes = 0u32;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if ra.fps[mid] == rb.fps[mid] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first_diff = if lo < n {
        Some(lo)
    } else if ra.fps.len() != rb.fps.len() {
        // One run ticked longer than the other: diverged right after the
        // common prefix.
        Some(n)
    } else {
        None
    };
    let Some(idx) = first_diff else {
        return BisectReport {
            diverged: false,
            labels,
            first_diverging_tick: None,
            probes,
            resumed_from: None,
            event: None,
            ledger_a: Vec::new(),
            ledger_b: Vec::new(),
        };
    };
    let tick_at = |r: &Recorded| r.fps.get(idx).map(|(t, _)| *t);
    let diverge_tick = tick_at(&ra).or(tick_at(&rb)).unwrap_or(end);

    // Latest snapshot strictly before the diverging tick that *both* runs
    // captured. A snapshot at an agreed tick captures agreed state for
    // identical configs; for deliberately different configs each side
    // resumes its own bytes.
    let common = ra
        .snapshots
        .iter()
        .rev()
        .find(|(t, _)| *t < diverge_tick && rb.snapshots.iter().any(|(u, _)| u == t))
        .map(|(t, _)| *t);

    let replay = |spec: &RunSpec<'_>, rec: &Recorded| -> (Vec<(SimTime, String)>, SystemSim) {
        let mut sim = match common {
            Some(s) => {
                let bytes = &rec.snapshots.iter().find(|(t, _)| *t == s).unwrap().1;
                SystemSim::resume(spec.config.clone(), bytes)
                    .expect("re-reading a snapshot this process just wrote")
            }
            None => (spec.build)(),
        };
        sim.set_event_log(true);
        // Running to the diverging tick covers exactly the span whose
        // fingerprint went wrong: the tick at T folds every event in
        // (previous tick, T].
        sim.run_until(diverge_tick);
        (sim.take_event_log(), sim)
    };
    let (log_a, sim_a) = replay(a, &ra);
    let (log_b, sim_b) = replay(b, &rb);

    // The logs are in execution order, so the first index where they
    // differ (or where one ends) is the first diverging event.
    let event = (0..log_a.len().max(log_b.len()))
        .find(|&i| log_a.get(i) != log_b.get(i))
        .map(|seq| {
            let (ea, eb) = (log_a.get(seq), log_b.get(seq));
            let render = |e: &(SimTime, String)| format!("t={}µs {}", e.0.as_micros(), e.1);
            DivergingEvent {
                time: ea
                    .into_iter()
                    .chain(eb)
                    .map(|e| e.0)
                    .min()
                    .unwrap_or(diverge_tick),
                seq,
                a: ea.map(render),
                b: eb.map(render),
            }
        });

    const NEIGHBORHOOD: usize = 12;
    BisectReport {
        diverged: true,
        labels,
        first_diverging_tick: Some(diverge_tick),
        probes,
        resumed_from: common,
        event,
        ledger_a: ledger_tail(&sim_a, diverge_tick, NEIGHBORHOOD),
        ledger_b: ledger_tail(&sim_b, diverge_tick, NEIGHBORHOOD),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::chatter;
    use simkit::time::SimDuration;

    fn test_config() -> SystemConfig {
        let mut config = SystemConfig::small();
        config.metrics_interval = SimDuration::from_secs(1);
        config.metrics_horizon = SimDuration::from_secs(60);
        config
    }

    #[test]
    fn identical_runs_do_not_diverge() {
        let config = test_config();
        let horizon = SimTime::from_secs(10);
        let spec = |label: &str| RunSpec {
            label: label.to_string(),
            config: config.clone(),
            build: Box::new(move || chatter(&test_config(), 7, horizon).0),
        };
        let report = bisect(&spec("a"), &spec("b"), horizon, 3);
        assert!(!report.diverged, "{}", report.render());
        assert!(report.first_diverging_tick.is_none());
        assert!(report.event.is_none());
    }

    #[test]
    fn seeded_extra_event_is_found_and_attributed() {
        let config = test_config();
        let horizon = SimTime::from_secs(20);
        let base = RunSpec {
            label: "base".to_string(),
            config: config.clone(),
            build: Box::new(move || chatter(&test_config(), 7, horizon).0),
        };
        // Same build plus one extra comment late in the run: the runs agree
        // for ~14 s, then part ways. Scheduling draws no RNG, so the common
        // prefix is untouched.
        let extra_at = SimTime::from_millis(14_300);
        let tweaked = RunSpec {
            label: "tweaked".to_string(),
            config: config.clone(),
            build: Box::new(move || {
                let (mut sim, video, users) = chatter(&test_config(), 7, horizon);
                sim.post_comment(extra_at, users[3], video, "the divergence");
                sim
            }),
        };
        let report = bisect(&base, &tweaked, horizon, 4);
        assert!(report.diverged, "{}", report.render());
        let tick = report.first_diverging_tick.expect("diverging tick");
        assert!(
            tick >= extra_at && tick <= SimTime::from_secs(16),
            "diverging tick {tick:?} should bracket the extra event, not precede it"
        );
        // The runs agree for 14+ ticks with snapshots every 4, so the replay
        // must start from a common snapshot, not from scratch.
        let resumed = report.resumed_from.expect("common snapshot");
        assert!(resumed < tick);
        let ev = report.event.as_ref().expect("diverging event identified");
        assert!(
            ev.time <= tick && ev.time >= resumed,
            "event time {:?} inside replayed span",
            ev.time
        );
        assert_ne!(ev.a, ev.b);
        // Render shouldn't panic and should carry the labels.
        let text = report.render();
        assert!(text.contains("base") && text.contains("tweaked"), "{text}");
    }

    #[test]
    fn different_seeds_diverge_from_scratch() {
        let config = test_config();
        let horizon = SimTime::from_secs(6);
        let mk = |label: &str, seed: u64| RunSpec {
            label: label.to_string(),
            config: config.clone(),
            build: Box::new(move || chatter(&test_config(), seed, horizon).0),
        };
        let report = bisect(&mk("s7", 7), &mk("s8", 8), horizon, 3);
        assert!(report.diverged, "{}", report.render());
        // Different seeds diverge from the very first tick — before any
        // snapshot — so the replay falls back to a fresh build.
        assert!(report.resumed_from.is_none(), "{}", report.render());
    }
}
