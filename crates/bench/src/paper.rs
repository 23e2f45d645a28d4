//! The paper's evaluation (§5): Tables 1–3, Figs. 6–10, the §1/§5
//! headline numbers and §2's ablations, one catalog entry each. An entry
//! runs its figure at the size EXPERIMENTS.md quotes and returns a
//! [`Report`]: the tables and notes to print, and the paper's claims
//! computed from what was measured.
//!
//! `cargo run --release -p bench --bin paper [id ...]` prints the reports
//! and exits non-zero when a claim fails; `tests/paper_shapes.rs` runs the
//! same entries under `cargo test`.

use std::fmt;

use baseline::event_log::{EventLog, EventLogConfig, EventLogError};
use baseline::generic_filter::{Filter, GenericFilterEngine, Meta, PrivacyPlacement, TopicConfig};
use baseline::polling::ClientPoller;
use baseline::trigger::TriggerService;
use bladerunner::config::{LinkClass, SystemConfig};
use bladerunner::latency::LatencyModel;
use bladerunner::metrics::{AppLatencies, SystemMetrics};
use bladerunner::scenario::{diurnal_day, LiveVideo};
use bladerunner::sim::SystemSim;
use brass::AppId;
use pylon::{HostId, PylonCluster, PylonConfig, Topic};
use simkit::dist::{Distribution, Exponential, Poisson};
use simkit::metrics::Histogram;
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};
use tao::{ObjectId, Tao, TaoConfig};
use was::event::{EventKind, EventMeta, UpdateEvent};
use was::service::{Rv, WebApplicationServer};
use workload::activity::DiurnalCurve;
use workload::tables::{AreaUpdateModel, StreamLifetimeModel};

use crate::table;

/// A figure run at the size and seed EXPERIMENTS.md quotes.
pub type Run = fn() -> Report;

/// Every table and figure in the paper's order, then §2's ablations, by
/// its id on `paper`'s command line.
pub static CATALOG: [(&str, Run); 10] = [
    ("table1", || table1(2_000_000, 1)),
    ("table2", || table2(1_000_000, 2)),
    ("table3", || table3(3)),
    ("fig6", || fig6(20, 10, 6)),
    ("fig7", || fig7(120, 24, 200, 7)),
    ("fig8", || fig8(120, 1.0, 8)),
    ("fig9", || fig9(20, 9)),
    ("fig10", || fig10(120, 10)),
    ("headline", || headline(50, 10, 1_500, 11)),
    ("ablations", ablations),
];

/// The run of the catalog entry named `id`.
pub fn figure(id: &str) -> Option<Run> {
    CATALOG
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, run)| run)
}

/// What one figure's run prints, and its claims.
#[derive(Default)]
pub struct Report {
    /// The tables and notes, as printed.
    pub text: String,
    /// The checks against the paper, printed after the text.
    pub claims: Vec<Claim>,
}

/// A computed check against the paper.
pub struct Claim {
    /// What is claimed, with its threshold.
    pub text: String,
    pub measured: String,
    pub paper: String,
    pub holds: bool,
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} (paper {})", self.text, self.measured, self.paper)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)?;
        writeln!(f, "\nClaims vs the paper:")?;
        for claim in &self.claims {
            let verdict = if claim.holds { "ok  " } else { "FAIL" };
            writeln!(f, "  {verdict} {claim}")?;
        }
        Ok(())
    }
}

impl Report {
    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// An ASCII bar histogram of labelled values.
    fn bars(&mut self, title: &str, bars: &[(&str, f64)], unit: &str) {
        self.line(format!("\n== {title} =="));
        let max = bars.iter().map(|(_, v)| *v).fold(0.0, f64::max).max(1e-9);
        for (label, value) in bars {
            let n = ((value / max) * 50.0).round() as usize;
            self.line(format!(
                "{label:>12} | {:<50} {value:.1}{unit}",
                "#".repeat(n)
            ));
        }
    }

    /// CDF points of a histogram of milliseconds.
    fn cdf(&mut self, title: &str, hist: &Histogram) {
        self.line(format!("\n== {title} (n={}) ==", hist.count()));
        self.line(format!("{:>8}  {:>12}", "quantile", "latency_ms"));
        for q in [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99] {
            self.line(format!("{:>8.2}  {:>12.0}", q, hist.quantile(q)));
        }
    }
}

/// Each count as a percentage of their total.
/// `app`'s latency decomposition; every world a figure reads one from
/// delivers that application's updates.
fn latencies(m: &SystemMetrics, app: AppId) -> &AppLatencies {
    m.app_latencies(app)
        .unwrap_or_else(|| panic!("no {} update was timed", app.name()))
}

fn shares(counts: &[u64]) -> Vec<f64> {
    let total = counts.iter().sum::<u64>().max(1) as f64;
    counts.iter().map(|&c| c as f64 / total * 100.0).collect()
}

/// `label | share | share ...` rows: one column per series of percentages,
/// each printed to its own number of decimals.
fn share_rows(labels: &[&str], columns: &[(&[f64], usize)]) -> Vec<Vec<String>> {
    let row = |i: usize, label: &str| -> Vec<String> {
        let cells = columns
            .iter()
            .map(|&(col, dp)| format!("{:.*}%", dp, col[i]));
        std::iter::once(label.to_string()).chain(cells).collect()
    };
    labels.iter().enumerate().map(|(i, l)| row(i, l)).collect()
}

/// Table 1: updates within 24 h per targeted area of interest in the social
/// graph. Paper: 83 % | 16 % | 0.95 % | 0.049 % | 0.0001 % of areas see
/// 0 | <10 | <100 | >1M | >100M updates.
pub fn table1(areas: u64, seed: u64) -> Report {
    let model = AreaUpdateModel::new();
    let mut rng = DetRng::new(seed);
    let mut counts = [0u64; 6];
    for _ in 0..areas {
        counts[AreaUpdateModel::bucket_of(model.sample_daily_updates(&mut rng))] += 1;
    }
    let measured = shares(&counts);
    let paper: Vec<f64> = (0..6).map(AreaUpdateModel::paper_weight).collect();
    let mut r = Report::default();
    r.text += &table(
        &format!("Table 1 — updates per area of interest in 24h ({areas} areas)"),
        &["updates", "measured", "paper"],
        &share_rows(
            &AreaUpdateModel::bucket_labels(),
            &[(&measured, 4), (&paper, 4)],
        ),
    );
    r.line(format!(
        "\nPareto check: {:.1}% of areas saw zero updates (paper: ~83%); any \
         polling-based design wastes most of its queries.",
        measured[0]
    ));
    r.claims.push(Claim {
        text: "zero-update share within 1 point of the paper".into(),
        measured: format!("{:.2}%", measured[0]),
        paper: "83%".into(),
        holds: (measured[0] - 83.0).abs() <= 1.0,
    });
    r
}

/// Table 2: request-stream lifetimes. Paper: <15 min 45 % | 15 min–1 h
/// 26 % | 1 h–24 h 25 % | 24 h+ 4 %.
///
/// Measured two ways: from the calibrated lifetime mixture, and from the
/// stream ledger of a 2 h full-system diurnal run, which shows the system
/// run preserves the input distribution up to censoring at the window.
pub fn table2(streams: u64, seed: u64) -> Report {
    let model = StreamLifetimeModel::new();
    let mut rng = DetRng::new(seed);
    let mut counts = [0u64; 4];
    for _ in 0..streams {
        counts[StreamLifetimeModel::bucket_of(model.sample(&mut rng))] += 1;
    }
    let (mut sim, _) = diurnal_day(SystemConfig::small(), seed, 60, 20, 30, 0.3);
    sim.run_until(SimTime::from_secs(2 * 3_600));
    let mut sim_counts = [0u64; 4];
    for &lt in &sim.metrics().stream_lifetimes {
        sim_counts[StreamLifetimeModel::bucket_of(lt)] += 1;
    }
    let sim_total: u64 = sim_counts.iter().sum();
    let (mixture, system) = (shares(&counts), shares(&sim_counts));
    // The paper's row, not the model's weights: the claims check the model.
    let paper = [45.0, 26.0, 25.0, 4.0];
    let labels = StreamLifetimeModel::bucket_labels();
    let mut r = Report::default();
    r.text += &table(
        &format!(
            "Table 2 — request-stream lifetimes ({streams} sampled; {sim_total} closed in a 2h system run)"
        ),
        &["lifetime", "mixture", "system-run*", "paper"],
        &share_rows(&labels, &[(&mixture, 2), (&system, 2), (&paper, 0)]),
    );
    r.line("\n* system-run column censors lifetimes at the 2h window, so the");
    r.line("  short buckets are over-represented there; the mixture column is");
    r.line("  the uncensored distribution.");
    for (i, label) in labels.iter().enumerate() {
        r.claims.push(Claim {
            text: format!("mixture {label} within 1 point of the paper"),
            measured: format!("{:.2}%", mixture[i]),
            paper: format!("{:.0}%", paper[i]),
            holds: (mixture[i] - paper[i]).abs() <= 1.0,
        });
    }
    r
}

/// Table 3: latency of Bladerunner sub-operations, means in ms, from a
/// full-system run with LVC and TypingIndicator traffic. The ≥10K-subscriber
/// Pylon row is sampled from the calibrated model: the simulated fleet
/// never holds 10K hosts on one topic.
pub fn table3(seed: u64) -> Report {
    let mut sim = SystemSim::new(SystemConfig::small(), seed);
    let lv = LiveVideo::setup(&mut sim, 10, 5, SimTime::ZERO);
    lv.drive_comments(
        &mut sim,
        SimTime::from_secs(5),
        SimDuration::from_secs(600),
        1.0,
    );
    // Typing traffic: the non-buffering app, whose BRASS latency is the
    // 76 ms row.
    let a = sim.create_user_device("typist-a", "en");
    let b = sim.create_user_device("typist-b", "en");
    let thread = sim.was_mut().create_thread(&[a, b]);
    sim.subscribe_typing(SimTime::ZERO, b, thread, a);
    for i in 0..300u64 {
        sim.set_typing(SimTime::from_secs(5 + i * 2), a, thread, i % 2 == 0);
    }
    sim.run_until(SimTime::from_secs(700));

    let m = sim.metrics();
    let (lvc, typing) = (latencies(m, AppId::Lvc), latencies(m, AppId::Typing));
    let model = LatencyModel::table3();
    let mut rng = DetRng::new(seed ^ 0xF00D);
    let fanout_large = (0..50_000)
        .map(|_| model.pylon_fanout(20_000, &mut rng).as_millis_f64())
        .sum::<f64>()
        / 50_000.0;
    let ops = [
        "WAS update -> Pylon (LVC)",
        "WAS update -> Pylon (other)",
        "Pylon publish -> BRASSes (<10K subs)",
        "Pylon publish -> BRASSes (>=10K subs)",
        "BRASS update -> device (non-buffering)",
        "Subscription -> replicated on Pylon",
        "Device-observed subscribe (all links)",
    ];
    let measured = [
        lvc.was_handling.mean(),
        typing.was_handling.mean(),
        m.pylon_fanout_small.mean(),
        fanout_large,
        typing.brass_processing.mean(),
        m.sub_replication.mean(),
        m.sub_e2e.mean(),
    ];
    let paper = [2000.0, 240.0, 100.0, 109.0, 76.0, 73.0, 970.0];
    let rows = || ops.into_iter().zip(measured).zip(paper);
    let table_rows: Vec<Vec<String>> = rows()
        .map(|((op, ms), paper)| vec![op.into(), format!("{ms:.0}"), format!("{paper:.0}")])
        .collect();
    let mut r = Report::default();
    r.text += &table(
        "Table 3 — latency of Bladerunner sub-operations (ms, means)",
        &["operation", "measured", "paper"],
        &table_rows,
    );
    r.line(format!(
        "\nPylon <10K percentiles: P90 {:.0} ms (paper 160), P99 {:.0} ms (paper 310).",
        m.pylon_fanout_small.quantile(0.90),
        m.pylon_fanout_small.quantile(0.99)
    ));
    // The last row is a span in the paper, not a calibrated mean.
    for ((op, ms), paper) in rows().take(6) {
        r.claims.push(Claim {
            text: format!("{op} within 20% of the paper"),
            measured: format!("{ms:.0} ms"),
            paper: format!("{paper:.0} ms"),
            holds: (ms / paper - 1.0).abs() <= 0.2,
        });
    }
    let e2e = measured[6];
    r.claims.push(Claim {
        text: "device-observed subscribe inside the paper's span".into(),
        measured: format!("{e2e:.0} ms"),
        paper: "490 NA/EU - 970 worldwide".into(),
        holds: (490.0..=970.0).contains(&e2e),
    });
    r
}

/// Fig. 6: LiveVideoComments delivery latency, polling vs Bladerunner
/// streaming. Paper: the switch took the mean from 4.8 s to 3.4 s, P75 from
/// 6 s to 4 s and P95 from 14 s to 6 s; the poll curve has a long tail the
/// stream curve lacks.
///
/// The stream side runs the full system; the poll side drives the same WAS
/// with the production predecessor from `baseline::polling`: client pollers
/// on a fixed interval, with occasional failed rounds on flaky links.
pub fn fig6(viewers: usize, minutes: u64, seed: u64) -> Report {
    let mut sim = SystemSim::new(SystemConfig::small(), seed);
    let lv = LiveVideo::setup(&mut sim, viewers, 8, SimTime::ZERO);
    let window = SimDuration::from_secs(minutes * 60);
    lv.drive_comments(&mut sim, SimTime::from_secs(5), window, FIG6_COMMENT_RATE);
    sim.run_until(SimTime::from_secs(minutes * 60 + 60));
    let stream = latencies(sim.metrics(), AppId::Lvc).total.clone();
    let poll = fig6_poll(viewers, minutes, seed);
    let mut r = Report::default();

    // The paper's histogram: share of deliveries per 1-second bucket.
    let edges: Vec<f64> = (0..=20).map(|s| (s * 1_000) as f64).collect();
    let (poll_bins, stream_bins) = (poll.binned(&edges), stream.binned(&edges));
    let total_p = poll_bins.iter().sum::<u64>().max(1) as f64;
    let total_s = stream_bins.iter().sum::<u64>().max(1) as f64;
    let rows: Vec<Vec<String>> = (0..20)
        .map(|s| {
            vec![
                format!("{}s", s + 1),
                format!("{:.1}%", poll_bins[s + 1] as f64 / total_p * 100.0),
                format!("{:.1}%", stream_bins[s + 1] as f64 / total_s * 100.0),
            ]
        })
        .collect();
    r.text += &table(
        "Fig. 6 — LVC delivery latency distribution (per 1s bucket)",
        &["bucket", "poll", "stream"],
        &rows,
    );

    // mean, p50, p75, p90, p95, p99.
    let stats = |h: &Histogram| {
        let mut s = vec![h.mean()];
        s.extend([0.5, 0.75, 0.9, 0.95, 0.99].map(|q| h.quantile(q)));
        s
    };
    let (ps, ss) = (stats(&poll), stats(&stream));
    let row = |label: &str, h: &Histogram, s: &[f64]| {
        let mut row = vec![label.to_string(), h.count().to_string()];
        row.extend(s.iter().map(|v| format!("{v:.0}")));
        row
    };
    r.text += &table(
        "Fig. 6 — summaries (ms)",
        &["series", "n", "mean", "p50", "p75", "p90", "p95", "p99"],
        &[row("poll", &poll, &ps), row("stream", &stream, &ss)],
    );
    let secs = |ms: f64| ms / 1_000.0;
    r.bars(
        "Headline comparison (paper: poll 4.8s/6s/14s -> stream 3.4s/4s/6s)",
        &[
            ("poll mean", secs(ps[0])),
            ("stream mean", secs(ss[0])),
            ("poll p75", secs(ps[2])),
            ("stream p75", secs(ss[2])),
            ("poll p95", secs(ps[4])),
            ("stream p95", secs(ss[4])),
        ],
        "s",
    );

    let worst = ss.iter().zip(&ps).map(|(s, p)| s / p).fold(0.0, f64::max);
    r.claims.push(Claim {
        text: "streaming beats polling on the mean and p50-p99 (worst stream/poll)".into(),
        measured: format!("{worst:.2}"),
        paper: format!("{:.2}", 3.4 / 4.8),
        holds: ss.iter().zip(&ps).all(|(s, p)| s < p),
    });
    let (tail_p, tail_s) = (ps[5] / ps[0].max(1.0), ss[5] / ss[0].max(1.0));
    r.claims.push(Claim {
        text: "the poll curve carries the heavier tail (p99/mean)".into(),
        measured: format!("poll {tail_p:.2} vs stream {tail_s:.2}"),
        paper: "long poll tail".into(),
        holds: tail_p > tail_s,
    });
    r
}

const FIG6_COMMENT_RATE: f64 = 0.25; // comments per second, per stream

/// Fig. 6's poll side: the delivery latency (ms) of each comment a poller
/// fetched.
fn fig6_poll(viewers: usize, minutes: u64, seed: u64) -> Histogram {
    let mut rng = DetRng::new(seed ^ 0xB0B0);
    let model = LatencyModel::table3();
    let mut was = WebApplicationServer::new(Tao::new(TaoConfig::small()));
    let video = was.create_video("poll");
    let poster = was.create_user("poster", "en");

    // Pre-compute the comment schedule: each comment becomes queryable
    // after the WAS's ranking latency (the same 2 s the stream side pays).
    let gap = Exponential::new(FIG6_COMMENT_RATE);
    let mut pending: Vec<(u64, u64)> = Vec::new(); // (visible_ms, created_ms)
    let mut t = 5_000.0;
    while t < (minutes * 60 * 1_000) as f64 {
        let created = t as u64;
        let visible = created + model.was_mutation(2_000, &mut rng).as_millis();
        pending.push((visible, created));
        t += gap.sample(&mut rng) * 1_000.0;
    }
    pending.sort_unstable();

    // Pollers: 4 s interval (the practical compromise the paper describes:
    // faster polling melts the backend, slower polling is stale), staggered
    // phases, and a per-round failure probability on flaky mobile links.
    let interval = SimDuration::from_secs(4);
    let fail_prob = 0.18;
    let mut pollers: Vec<ClientPoller> = (0..viewers)
        .map(|i| {
            ClientPoller::new(
                video,
                interval,
                SimTime::from_millis(i as u64 * 137 % 4_000),
            )
        })
        .collect();

    let mut hist = Histogram::new();
    let mut created_of: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut next_pending = 0usize;
    let horizon = SimTime::from_secs(minutes * 60 + 60);
    let mut now = SimTime::ZERO;
    while now < horizon {
        // Materialise comments that have become visible. The index entry
        // carries the *visibility* timestamp (post-ranking), as in the real
        // WAS; delivery latency is still measured from creation.
        while next_pending < pending.len() && pending[next_pending].0 <= now.as_millis() {
            let (visible, created) = pending[next_pending];
            let out = was
                .execute_mutation(
                    &format!(
                        r#"mutation {{ postComment(videoId: {video}, authorId: {poster}, text: "poll-side comment body at {created}") {{ id }} }}"#
                    ),
                    visible,
                )
                .expect("valid mutation");
            if let Some(id) = out.response.get("id").and_then(Rv::as_int) {
                created_of.insert(id as u64, created);
            }
            next_pending += 1;
        }
        // Run due pollers.
        for p in &mut pollers {
            if p.next_poll_at() <= now {
                if rng.chance(fail_prob) {
                    // Failed round: the request never completes; the device
                    // retries a full interval later, and pending comments
                    // accumulate.
                    p.defer(now);
                    continue;
                }
                if let Ok(outcome) = p.poll(&mut was, 0, now) {
                    for id in outcome.comment_ids {
                        if let Some(&created) = created_of.get(&id) {
                            let download = model.last_mile(LinkClass::Mobile, &mut rng);
                            let latency =
                                now.as_millis().saturating_sub(created) + download.as_millis();
                            hist.record(latency as f64);
                        }
                    }
                }
            }
        }
        now += SimDuration::from_millis(250);
    }
    hist
}

/// Fig. 7: share of request-stream subscriptions with 0, 1–9, 10–99 and
/// 100+ publications over the stream's lifetime, counted from the topic
/// registry over a simulated diurnal day. Paper (12 samples across a day,
/// nearly constant): ~75 % zero, ~19 % 1–9, ~5.5 % 10–99, ~0.6 % 100+.
pub fn fig7(users: usize, hours: u64, videos: usize, seed: u64) -> Report {
    // Many videos: mostly-quiet areas of interest.
    let (mut sim, _) = diurnal_day(SystemConfig::small(), seed, users, videos, 60, 0.5);
    sim.run_until(SimTime::from_secs(hours * 3_600));

    let buckets = sim.metrics().publication_buckets();
    let labels = ["0", "1-9", "10-99", "100+"];
    let mut r = Report::default();
    r.text += &table(
        &format!(
            "Fig. 7 — publications per stream subscription ({} streams over {hours}h)",
            sim.metrics().streams_tracked()
        ),
        &["publications", "measured", "paper"],
        &share_rows(&labels, &[(&buckets, 1), (&[75.0, 19.0, 5.5, 0.6], 1)]),
    );
    let bars: Vec<(&str, f64)> = labels.into_iter().zip(buckets).collect();
    r.bars("Share of streams by publication count", &bars, "%");
    r.line(format!(
        "\n{}% of streams never see a publication — polling them would be pure waste.",
        buckets[0].round()
    ));
    r.claims.push(Claim {
        text: "70-80% of streams see zero publications".into(),
        measured: format!("{:.1}%", buckets[0]),
        paper: "~75%".into(),
        holds: (70.0..=80.0).contains(&buckets[0]),
    });
    r
}

/// Fig. 8: per-user Bladerunner activity over 24 hours in 15-minute
/// buckets. Paper (per user): active request-streams 6–11 (diurnal);
/// subscription requests/min 0.5–0.75; Pylon publications/min 0.8–1.5;
/// BRASS decisions/min 1.1–3.2; update deliveries/min 0.1–0.25.
pub fn fig8(users: usize, scale: f64, seed: u64) -> Report {
    let mut system = SystemConfig::small();
    // Match the paper's device norms: ~10 concurrent streams per user.
    system.max_streams_per_device = 12;
    // Thousands of areas of interest per active one (Table 1): most video
    // topics stay quiet.
    let (mut sim, _) = diurnal_day(system, seed, users, 300, 80, scale);
    sim.run_until(SimTime::from_secs(24 * 3_600));

    let m = sim.metrics();
    let per_min = SimDuration::from_mins(1);
    let subs = m.ts_subscriptions.rates(per_min);
    let pubs = m.ts_publications.rates(per_min);
    let decs = m.ts_decisions.rates(per_min);
    let dels = m.ts_deliveries.rates(per_min);
    let active = m.ts_active_streams.buckets();
    let u = users as f64;

    // Every 8th bucket (2-hourly) for a readable table.
    let rows: Vec<Vec<String>> = (0..active.len())
        .step_by(8)
        .map(|i| {
            vec![
                format!("{}", SimTime::from_secs(i as u64 * 15 * 60)),
                format!("{:.2}", active[i] / u),
                format!("{:.3}", subs[i] / u),
                format!("{:.3}", pubs[i] / u),
                format!("{:.3}", decs[i] / u),
                format!("{:.3}", dels[i] / u),
            ]
        })
        .collect();
    let mut r = Report::default();
    r.text += &table(
        &format!("Fig. 8 — per-user activity over 24h ({users} users, scale {scale})"),
        &[
            "time",
            "streams/user",
            "subs/min",
            "pubs/min",
            "decisions/min",
            "deliveries/min",
        ],
        &rows,
    );

    // The final bucket absorbs clamped end-of-horizon samples; exclude it.
    let span = |xs: &[f64]| {
        let body = &xs[1..xs.len() - 1];
        let lo = body.iter().cloned().fold(f64::INFINITY, f64::min) / u;
        let hi = body.iter().cloned().fold(0.0, f64::max) / u;
        (lo, hi)
    };
    // (series, measured band, decimals, paper band)
    let bands = [
        ("active streams/user", span(active), 1, (6.0, 11.0)),
        ("subscriptions/min/user", span(&subs), 2, (0.5, 0.75)),
        ("publications/min/user", span(&pubs), 2, (0.8, 1.5)),
        ("decisions/min/user", span(&decs), 2, (1.1, 3.2)),
        ("deliveries/min/user", span(&dels), 2, (0.1, 0.25)),
    ];
    let band = |(lo, hi): (f64, f64), dp: usize| format!("{lo:.dp$} - {hi:.dp$}");
    let rows: Vec<Vec<String>> = bands
        .iter()
        .map(|&(series, measured, dp, (lo, hi))| {
            vec![series.into(), band(measured, dp), format!("{lo} - {hi}")]
        })
        .collect();
    r.text += &table(
        "Fig. 8 — diurnal ranges vs paper",
        &["series", "measured", "paper"],
        &rows,
    );
    r.line(format!(
        "\nBRASS filtered fraction: {:.0}% (paper: ~80% of messages filtered \
         out at BRASS instances).",
        m.filtered_fraction(sim.total_decisions()) * 100.0
    ));
    r.line(
        "Note: the paper normalizes per registered user, \"whether online or \
         not\"; this simulation's population is 100% online and active, so \
         the per-user decision/delivery rates sit a few times above the \
         paper's fleet-diluted band while the diurnal shape matches.",
    );
    // Decisions and deliveries are the named deviation above, not claims.
    for &(series, measured, dp, paper) in &bands[..3] {
        let near = |m: f64, p: f64| (m / p - 1.0).abs() <= 0.15;
        r.claims.push(Claim {
            text: format!("{series} band within ±15% of the paper's"),
            measured: band(measured, dp),
            paper: format!("{} - {}", paper.0, paper.1),
            holds: near(measured.0, paper.0) && near(measured.1, paper.1),
        });
    }
    r
}

/// Fig. 9: update-latency CDFs for TypingIndicator and LiveVideoComments,
/// by pipeline stage. Paper panels (100K sampled updates, clients
/// worldwide): publish edge → WAS ~10–260 ms for both apps; BRASS host
/// processing TI ~10–10,000 ms, LVC up to 10 s (ranked-buffer dwell and
/// batching); BRASS → device 100–10,000 ms, LVC slower; total publish time
/// TI faster than LVC throughout (LVC is rate-limited to one message per
/// two seconds, ranking fixed at 5).
pub fn fig9(minutes: u64, seed: u64) -> Report {
    let mut sim = SystemSim::new(SystemConfig::small(), seed);
    let lv = LiveVideo::setup(&mut sim, 15, 8, SimTime::ZERO);
    lv.drive_comments(
        &mut sim,
        SimTime::from_secs(5),
        SimDuration::from_secs(minutes * 60),
        0.4,
    );
    // Typing workload: several chatty pairs.
    for p in 0..10u64 {
        let a = sim.create_user_device(&format!("ta{p}"), "en");
        let b = sim.create_user_device(&format!("tb{p}"), "en");
        let thread = sim.was_mut().create_thread(&[a, b]);
        sim.subscribe_typing(SimTime::ZERO, b, thread, a);
        let mut t = 3_000 + p * 137;
        while t < minutes * 60 * 1_000 {
            sim.set_typing(SimTime::from_millis(t), a, thread, (t / 1_000) % 2 == 0);
            t += 2_500 + (p * 311) % 2_000;
        }
    }
    sim.run_until(SimTime::from_secs(minutes * 60 + 120));

    let m = sim.metrics();
    let mut r = Report::default();
    for app in [AppId::Typing, AppId::Lvc] {
        let lat = latencies(m, app);
        let app = app.name();
        r.line(format!("\n########## {app} ##########"));
        for (stage, hist) in [
            ("publish edge->WAS", &lat.edge_to_was),
            ("WAS handling", &lat.was_handling),
            ("BRASS host processing", &lat.brass_processing),
            ("BRASS -> device", &lat.brass_to_device),
            ("total publish time", &lat.total),
        ] {
            r.cdf(&format!("{app}: {stage} (ms)"), hist);
        }
    }

    let (ti, lvc) = (latencies(m, AppId::Typing), latencies(m, AppId::Lvc));
    let (ti_total, lvc_total) = (ti.total.quantile(0.5), lvc.total.quantile(0.5));
    r.claims.push(Claim {
        text: "TI total median below LVC total median".into(),
        measured: format!("{ti_total:.0} ms vs {lvc_total:.0} ms"),
        paper: "TI faster throughout".into(),
        holds: ti_total < lvc_total,
    });
    let lvc_brass = lvc.brass_processing.quantile(0.9);
    let ti_brass = ti.brass_processing.quantile(0.9);
    r.claims.push(Claim {
        text: "LVC BRASS-processing p90 above TI's (ranked-buffer dwell)".into(),
        measured: format!("{lvc_brass:.0} ms vs {ti_brass:.0} ms"),
        paper: "LVC seconds, TI tens of ms".into(),
        holds: lvc_brass > ti_brass,
    });
    r
}

/// Fig. 10: failure handling over 24 hours. Top panel: last-mile
/// connections dropped per minute, diurnal because drops track how many
/// devices are online. Bottom panel: proxy-induced stream reconnects per
/// minute, "the overwhelming majority" caused by BRASS software upgrades and
/// load rebalancing, outright BRASS failures very rare. Plus one Pylon
/// quorum event (the paper counts 33 in a week).
pub fn fig10(users: usize, seed: u64) -> Report {
    let (mut sim, day) = diurnal_day(SystemConfig::small(), seed, users, 50, 40, 0.4);
    let day_end = SimTime::from_secs(24 * 3_600);

    // Last-mile drops: diurnal, ~1.2% of devices per minute at peak (the
    // paper's top panel is ~0.5-2M drops/min across the whole fleet).
    let drop_curve = DiurnalCurve {
        min: 0.004,
        max: 0.012,
        peak_hour: 17.0,
    };
    let mut t = SimTime::ZERO;
    while t < day_end {
        let rate = drop_curve.value_at(t) * users as f64;
        let n = Poisson::new(rate.max(1e-9)).sample_count(sim.rng_mut());
        for _ in 0..n {
            let d = day.device_ids[sim.rng_mut().index(day.device_ids.len())];
            let offset = SimDuration::from_micros(sim.rng_mut().below(60_000_000));
            sim.schedule_device_drop(t + offset, d);
        }
        t += SimDuration::from_mins(1);
    }

    // BRASS software upgrades: a rolling wave every 4 hours, plus rare
    // outright failures (modelled identically; the proxy cannot tell).
    let mut upgrades = Vec::new();
    for wave in 0..6u64 {
        for h in 0..4usize {
            let at = SimTime::from_secs(wave * 4 * 3_600 + 600 + h as u64 * 300);
            let down = SimDuration::from_secs(120);
            sim.schedule_brass_upgrade(at, h, down);
            upgrades.push((at, at + down));
        }
    }
    // One Pylon quorum event during the day (paper: 33 per week ≈ 4.7/day
    // fleet-wide; our single-cluster slice sees roughly one). Four of six
    // KV nodes go down for ten minutes: most topics lose their quorum and
    // fresh subscribes in the window fail and retry.
    let (outage, outage_len) = (SimTime::from_secs(13 * 3_600), SimDuration::from_secs(600));
    for node in 0..4u64 {
        sim.schedule_pylon_outage(outage, node, outage_len);
    }

    // Stopping at the outage's edges counts the deliveries made inside it;
    // a run's results do not depend on how `run_until` is chunked.
    sim.run_until(outage);
    let before = sim.metrics().deliveries.get();
    sim.run_until(outage + outage_len);
    let during_outage = sim.metrics().deliveries.get() - before;
    sim.run_until(day_end);

    let m = sim.metrics();
    let drops = m.ts_connection_drops.rates(SimDuration::from_mins(1));
    let reconnects = m.ts_proxy_reconnects.rates(SimDuration::from_mins(1));
    let rows: Vec<Vec<String>> = (0..drops.len())
        .step_by(8)
        .map(|i| {
            vec![
                format!("{}", SimTime::from_secs(i as u64 * 15 * 60)),
                format!("{:.2}", drops[i]),
                format!("{:.2}", reconnects[i]),
            ]
        })
        .collect();
    let mut r = Report::default();
    r.text += &table(
        &format!("Fig. 10 — drops and proxy reconnects per minute ({users} devices)"),
        &["time", "conn drops/min", "proxy reconnects/min"],
        &rows,
    );

    // Smooth over an hour (4 buckets) before comparing peak vs trough, as
    // the paper's fleet-scale curves effectively do.
    let hourly: Vec<f64> = drops
        .chunks(4)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let peak = hourly.iter().cloned().fold(0.0, f64::max);
    let trough = hourly[1..hourly.len() - 1]
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let swing = peak / trough.max(1e-9);
    r.line(format!(
        "\nTotals over 24h: {} connection drops, {} proxy-induced stream reconnects.",
        m.connection_drops.get(),
        sim.total_proxy_reconnects()
    ));
    r.line(format!(
        "Diurnal drop ratio peak/trough (hourly smoothed) = {swing:.1} (paper's top panel swings ~2-4x)."
    ));
    r.line(format!(
        "Pylon quorum-loss subscribe failures during the outage: {} (paper: 33 quorum events/week fleet-wide).",
        m.quorum_failures.get()
    ));
    r.line(format!(
        "Deliveries still made over the day (best-effort survives the churn): {}.",
        m.deliveries.get()
    ));

    let counts = m.ts_proxy_reconnects.buckets();
    let start = |i: usize| SimTime::ZERO + m.ts_proxy_reconnects.interval() * i as u64;
    let in_wave = |i: &usize| {
        upgrades
            .iter()
            .any(|&(a, b)| a < start(i + 1) && start(*i) < b)
    };
    let wave: f64 = (0..counts.len()).filter(in_wave).map(|i| counts[i]).sum();
    let wave_share = wave / counts.iter().sum::<f64>().max(1.0);
    r.claims.push(Claim {
        text: "hourly-smoothed drop peak/trough at least 2".into(),
        measured: format!("{swing:.1}x"),
        paper: "~2-4x".into(),
        holds: swing >= 2.0,
    });
    r.claims.push(Claim {
        text: "at least 90% of proxy reconnects in the 15-min buckets of upgrade waves".into(),
        measured: format!("{:.1}%", wave_share * 100.0),
        paper: "overwhelming majority from upgrades".into(),
        holds: wave_share >= 0.9,
    });
    let failures = m.quorum_failures.get();
    r.claims.push(Claim {
        text: "the quorum outage fails CP subscribes while AP deliveries continue".into(),
        measured: format!("{failures} failed subscribes, {during_outage} deliveries in it"),
        paper: "CP subscribes, AP delivery".into(),
        holds: failures > 0 && during_outage > 0,
    });
    r
}

/// The §1/§5 headline claims: switching LiveVideoComments from polling to
/// Bladerunner cut the application's WAS CPU load and social-graph QPS by
/// ~10× and halved comment visibility latency; ~80 % of update events are
/// filtered out at BRASS instances; Messenger on polling needed ~8× the
/// hardware of push.
pub fn headline(viewers: usize, minutes: u64, comments: usize, seed: u64) -> Report {
    let (p_rows, p_iops, p_cpu, p_empty) = headline_polling(viewers, minutes, comments);
    // Bladerunner's cost for the same audience and comment volume.
    let mut sim = SystemSim::new(SystemConfig::small(), seed);
    let lv = LiveVideo::setup(&mut sim, viewers, 6, SimTime::ZERO);
    let window = SimDuration::from_secs(minutes * 60);
    let rate = comments as f64 / window.as_secs_f64();
    lv.drive_comments(&mut sim, SimTime::from_secs(2), window, rate);
    sim.run_until(SimTime::from_secs(minutes * 60 + 60));
    let c = sim.was_mut().tao_mut().counters(0);
    let (b_rows, b_iops, b_cpu) = (c.total.rows_read, c.iops(), c.cpu_secs());
    let (decisions, deliveries) = (sim.total_decisions(), sim.metrics().deliveries.get());
    // (metric, polling, bladerunner, decimals)
    let costs = [
        ("TAO rows read", p_rows as f64, b_rows as f64, 0),
        ("TAO IOPS", p_iops as f64, b_iops as f64, 0),
        ("backend CPU (s)", p_cpu, b_cpu, 2),
    ];
    let rows: Vec<Vec<String>> = costs
        .iter()
        .map(|&(metric, p, b, dp)| {
            let ratio = format!("{:.1}x", p / b.max(1e-9));
            vec![
                metric.into(),
                format!("{p:.dp$}"),
                format!("{b:.dp$}"),
                ratio,
            ]
        })
        .collect();
    let mut r = Report::default();
    r.text += &table(
        &format!(
            "Headline — LVC backend cost, {viewers} viewers, {comments} comments, {minutes} min"
        ),
        &["metric", "polling", "bladerunner", "ratio"],
        &rows,
    );
    r.line("\nPaper: the LVC switchover cut WAS CPU load and social-graph QPS by ~10x.");
    // On the hot video itself polls rarely come up empty; the paper's "80%
    // of queries return no new data" is fleet-wide, where most subscribed
    // areas are quiet (Table 1). Compute it from the calibrated area model:
    // a device polling a random subscribed area every 2 s for 24 h sees at
    // most its daily update count of non-empty polls.
    let mut rng = DetRng::new(seed ^ 0xAA);
    let model = AreaUpdateModel::new();
    let polls_per_day = 43_200.0f64; // one poll per 2 s
    let samples = 200_000;
    let mut empty_sum = 0.0;
    for _ in 0..samples {
        let k = model.sample_daily_updates(&mut rng) as f64;
        empty_sum += 1.0 - (k.min(polls_per_day) / polls_per_day);
    }
    r.line(format!(
        "Fleet-wide empty-poll fraction (Table-1 area mix, 2s polls): {:.1}% — \
         even more wasteful than the paper's traffic-weighted ~80%, because \
         83% of subscribed areas see zero updates all day. On the hot video \
         itself polls are almost never empty ({:.0}%): polling is only \
         efficient exactly where Bladerunner is cheapest anyway.",
        empty_sum / samples as f64 * 100.0,
        p_empty * 100.0
    ));
    let filtered = 1.0 - deliveries as f64 / decisions.max(1) as f64;
    r.line(format!(
        "\nBRASS filtering: {deliveries} deliveries from {decisions} decisions — {:.0}% \
         filtered out (paper: ~80%).",
        filtered * 100.0
    ));
    let (poll_cpu, push_cpu) = messenger_cpu();
    let messenger = poll_cpu as f64 / push_cpu.max(1) as f64;
    r.line(format!(
        "\nMessenger backend CPU for 50 messages: polling {poll_cpu} us vs push {push_cpu} us \
         -> {messenger:.1}x (paper: polling needed ~8x the hardware)."
    ));

    let cpu = p_cpu / b_cpu.max(1e-9);
    r.claims.push(Claim {
        text: "LVC backend CPU polling/bladerunner at least 5x".into(),
        measured: format!("{cpu:.1}x"),
        paper: "~10x".into(),
        holds: cpu >= 5.0,
    });
    r.claims.push(Claim {
        text: "at least 70% of BRASS decisions filtered out".into(),
        measured: format!("{:.0}%", filtered * 100.0),
        paper: "~80%".into(),
        holds: filtered >= 0.7,
    });
    r.claims.push(Claim {
        text: "Messenger backend CPU polling/push at least 4x".into(),
        measured: format!("{messenger:.1}x"),
        paper: "~8x hardware".into(),
        holds: messenger >= 4.0,
    });
    r
}

/// Polling cost of `viewers` clients polling one video for `minutes`:
/// TAO rows read, IOPS, CPU seconds, and the mean share of empty polls.
fn headline_polling(viewers: usize, minutes: u64, comments: usize) -> (u64, u64, f64, f64) {
    let mut was = WebApplicationServer::new(Tao::new(TaoConfig::small()));
    let video = was.create_video("poll");
    let poster = was.create_user("poster", "en");
    let window_ms = minutes * 60 * 1_000;
    let mut pollers: Vec<ClientPoller> = (0..viewers)
        .map(|i| {
            ClientPoller::new(
                video,
                SimDuration::from_secs(2),
                SimTime::from_millis(i as u64 * 97 % 2_000),
            )
            .with_ranked_head(25)
        })
        .collect();
    let mut posted = 0usize;
    let mut now = SimTime::ZERO;
    let horizon = SimTime::from_secs(minutes * 60);
    while now < horizon {
        // Comments materialise as time advances, spread over the window.
        while posted < comments
            && (posted as u64 + 1) * window_ms / (comments as u64 + 1) <= now.as_millis()
        {
            was.execute_mutation(
                &format!(
                    r#"mutation {{ postComment(videoId: {video}, authorId: {poster}, text: "headline comparison comment {posted}") {{ id }} }}"#
                ),
                now.as_millis(),
            )
            .expect("valid mutation");
            posted += 1;
        }
        for p in &mut pollers {
            if p.next_poll_at() <= now {
                let _ = p.poll(&mut was, 0, now);
            }
        }
        now += SimDuration::from_millis(500);
    }
    let c = was.tao_mut().counters(0);
    let empty: f64 = pollers
        .iter()
        .map(ClientPoller::empty_fraction)
        .sum::<f64>()
        / viewers as f64;
    (c.total.rows_read, c.iops(), c.cpu_secs(), empty)
}

/// Messenger backend CPU (µs) for one thread's 50 messages: polling the
/// mailbox every second for 10 minutes (the paper compared polling and
/// push at equal freshness), against one point fetch per delivered message.
fn messenger_cpu() -> (u64, u64) {
    let mut was = WebApplicationServer::new(Tao::new(TaoConfig::small()));
    let a = was.create_user("a", "en");
    let b = was.create_user("b", "en");
    let thread = was.create_thread(&[a, b]);
    let messages: Vec<u64> = (0..50u64)
        .map(|i| {
            let out = was
                .execute_mutation(
                    &format!(r#"mutation {{ sendMessage(threadId: {thread}, fromId: {a}, text: "m{i}") {{ id }} }}"#),
                    i * 10_000,
                )
                .expect("valid mutation");
            let id = out.response.get("id").and_then(Rv::as_int);
            id.expect("sendMessage returns the message id") as u64
        })
        .collect();
    let cpu_us = |was: &mut WebApplicationServer| was.tao_mut().counters(0).total.cpu_us;
    let before = cpu_us(&mut was);
    for _ in 0..600 {
        was.execute_query(0, &format!("{{ mailbox(uid: {b}, afterSeq: 49) }}"))
            .expect("valid query");
    }
    let poll = cpu_us(&mut was) - before;
    let before = cpu_us(&mut was);
    for id in messages {
        was.fetch_for_viewer(0, b, tao::ObjectId(id))
            .expect("the recipient can read each message");
    }
    (poll, cpu_us(&mut was) - before)
}

/// §2's rejected alternatives against the design choices that replaced
/// them (DESIGN.md §5), each counted through the `baseline` model of the
/// alternative, so the report repeats byte for byte on any host.
pub fn ablations() -> Report {
    const CONSUMERS: u64 = 8;
    const PUBLISHES: u64 = 100;
    // Events, not payloads: one update's bytes per cross-region hop.
    let event = UpdateEvent {
        id: 1,
        topic: Topic::live_video_comments(42),
        object: ObjectId(7),
        kind: EventKind::CommentPosted,
        meta: EventMeta {
            lang: Some("en".into()),
            ..EventMeta::default()
        },
    };
    let (event_bytes, payload_bytes) = (event.wire_size(), event.wire_size() + 2_048);

    // Best-effort Pylon against an at-least-once trigger service, fanning
    // the same publishes out to the same consumers.
    let topic = Topic::live_video_comments(7);
    let mut pylon = PylonCluster::new(PylonConfig::small());
    let replicas = pylon.config().replicas as u64;
    let mut trigger = TriggerService::new(replicas);
    for host in 0..CONSUMERS {
        pylon
            .subscribe(&topic, HostId(host as u32))
            .expect("replicas up");
        trigger.subscribe(topic.as_str(), host);
    }
    for id in 0..PUBLISHES {
        pylon.publish(&topic, id);
        trigger.publish(topic.as_str());
    }
    let pylon_writes = pylon.counters().repairs * replicas;
    let forwards = pylon.counters().forwards / PUBLISHES;
    let owed_polls = trigger.drain(0);

    // The generic filter engine: its knobs per onboarded app, and the
    // rate-limit/privacy ordering with every other author blocked.
    let config = |privacy| TopicConfig {
        filter: Filter::And(vec![Filter::MinQuality(0.2), Filter::LangIs("en".into())]),
        rate_limit: 3,
        privacy,
    };
    let mut engine = GenericFilterEngine::new();
    let knobs: Vec<usize> = (0..10)
        .map(|app| {
            engine.configure(&app.to_string(), config(PrivacyPlacement::BeforeRateLimit));
            engine.total_knobs()
        })
        .collect();
    let candidates: Vec<Meta> = (0..6)
        .map(|author| Meta {
            author,
            quality: 0.9,
            lang: "en".into(),
            age_ms: 0,
        })
        .collect();
    let [before, after] = [
        PrivacyPlacement::BeforeRateLimit,
        PrivacyPlacement::AfterRateLimit,
    ]
    .map(|privacy| {
        let lvc = AppId::Lvc.name();
        engine.configure(lvc, config(privacy));
        engine.deliver_window(lvc, &candidates, &|author| author % 2 == 0)
    });

    // The event log: its topic cap, then one event read by every consumer.
    let mut log = EventLog::new(EventLogConfig::small());
    let refused = (0..=EventLogConfig::small().max_topics)
        .find_map(|topic| log.create_topic(&topic.to_string()).err());
    let next = log.topic_count() as u64;
    let pylon_next = pylon.subscribe(&Topic::live_video_comments(next), HostId(0));
    let (partition, offset) = log.append("0", 1).expect("a created topic");
    for _ in 0..CONSUMERS {
        log.poll("0", partition, offset, 16).expect("a partition");
    }
    let loads = log.partition_loads("0").expect("a created topic");
    let (log_ops, hot) = (loads.iter().sum::<u64>(), loads[partition as usize]);

    // TAO's query shapes: BRASS's point read against polling's range read
    // and 50-friend intersect.
    let mut tao = Tao::new(TaoConfig::small());
    let video = tao.obj_add("video", vec![]);
    let mut comment = video;
    for time in 0..500 {
        comment = tao.obj_add("comment", vec![]);
        tao.assoc_add(video, "has_comment", comment, time, vec![]);
    }
    let mut friends = Vec::new();
    for time in 0..50 {
        let (friend, story) = (tao.obj_add("user", vec![]), tao.obj_add("story", vec![]));
        tao.assoc_add(friend, "has_story", story, time, vec![]);
        friends.push(friend);
    }
    let point = tao.obj_get(0, comment).1;
    let range = tao
        .assoc_time_range(0, video, "has_comment", 100, u64::MAX, 50)
        .1;
    let intersect = tao.assoc_intersect(0, &friends, "has_story", 10).1;
    let shapes = [
        ("point", point),
        ("range, 50 since X", range),
        ("intersect, 50 friends", intersect),
    ];
    let shape_rows = shapes.map(|(shape, c)| {
        let counts = [c.shards_touched, c.rows_read, c.cpu_us].map(|v| v.to_string());
        [vec![shape.to_string()], counts.to_vec()].concat()
    });
    let trigger_writes = trigger.replication_writes();
    let rows_x = range.rows_read / point.rows_read;
    let shards_x = intersect.shards_touched / point.shards_touched;
    let mut r = Report {
        text: table(
            "Ablations — TAO query shapes: BRASS's point read vs polling's",
            &["shape", "shards", "rows", "est. CPU us"],
            &shape_rows,
        ),
        claims: Vec::new(),
    };
    r.claims.push(Claim {
        text: "bytes per cross-region hop: an event is <= 1/10 of it with a 2 KiB payload".into(),
        measured: format!("{event_bytes} B vs {payload_bytes} B"),
        paper: "events, not payloads".into(),
        holds: payload_bytes >= 10 * event_bytes,
    });
    r.claims.push(Claim {
        text: "100 publishes: best-effort writes no replica; a trigger writes and owes polls"
            .into(),
        measured: format!("{pylon_writes} vs {trigger_writes} writes, {owed_polls} polls owed"),
        paper: "best-effort delivery; signal overload".into(),
        holds: pylon_writes == 0 && trigger_writes >= PUBLISHES && owed_polls == PUBLISHES,
    });
    r.claims.push(Claim {
        text: "the generic engine's knobs grow with every onboarded app".into(),
        measured: format!("{knobs:?}"),
        paper: "ever more configuration parameters".into(),
        holds: knobs.windows(2).all(|w| w[0] < w[1]),
    });
    r.claims.push(Claim {
        text: "rate limit 3, half blocked: privacy after the limit under-delivers".into(),
        measured: format!("{} vs {} delivered", after.delivered, before.delivered),
        paper: "fewer messages than intended".into(),
        holds: before.delivered == 3 && after.delivered < before.delivered,
    });
    r.claims.push(Claim {
        text: "the event log refuses a topic past its cap; Pylon subscribes it".into(),
        measured: format!("{refused:?} at {next} topics; Pylon {pylon_next:?}"),
        paper: "no billions of dynamic topics".into(),
        holds: refused == Some(EventLogError::TopicCapacityExhausted) && pylon_next.is_ok(),
    });
    r.claims.push(Claim {
        text: "one event to 8 consumers: 1 publish vs append + 8 polls on one partition".into(),
        measured: format!("{forwards} forwards vs {log_ops} log operations, {hot} on one"),
        paper: "accesses serialized on one partition".into(),
        holds: forwards == CONSUMERS && log_ops == 1 + CONSUMERS && hot == log_ops,
    });
    r.claims.push(Claim {
        text: "polling's shapes read >= 10x the rows or shards of a point read".into(),
        measured: format!("{rows_x}x rows (range), {shards_x}x shards (intersect)"),
        paper: "polling's expensive query shapes".into(),
        holds: rows_x >= 10 && shards_x >= 10,
    });
    r
}
