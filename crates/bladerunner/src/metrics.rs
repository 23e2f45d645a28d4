//! System-wide measurement: every quantity §5 reports.

use burst::frame::StreamId;
use simkit::fxhash::FxHashMap;
use simkit::metrics::{Counter, Histogram, QueueGauge, TimeSeries};
use simkit::snap::{ensure, Fp64};
use simkit::snap_struct;
use simkit::time::{SimDuration, SimTime};

/// Per-application latency histograms (Fig. 9 decomposition).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppLatencies {
    /// Update request: edge proxy → WAS (milliseconds).
    pub edge_to_was: Histogram,
    /// WAS handling: update request received → event sent to Pylon.
    pub was_handling: Histogram,
    /// BRASS host processing: event received → update sent to devices
    /// (includes the WAS point fetch).
    pub brass_processing: Histogram,
    /// BRASS → device delivery (the contested last mile).
    pub brass_to_device: Histogram,
    /// Total publish time: comment posted → rendered on another device.
    pub total: Histogram,
}

/// All measurements collected by a system run.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemMetrics {
    // ------------------------------------------------------------------
    // Counters.
    // ------------------------------------------------------------------
    /// Mutations executed at the WAS.
    pub mutations: Counter,
    /// Update events published into Pylon.
    pub publications: Counter,
    /// Updates delivered to (rendered on) devices.
    pub deliveries: Counter,
    /// Device subscription requests issued.
    pub subscriptions: Counter,
    /// Stream cancellations issued.
    pub cancellations: Counter,
    /// Last-mile connections dropped.
    pub connection_drops: Counter,
    /// Last-mile frames lost in flight.
    pub frames_lost: Counter,
    /// Pylon subscribe attempts that failed on quorum loss.
    pub quorum_failures: Counter,
    /// Unplanned BRASS host crashes injected by a fault plan.
    pub host_crashes: Counter,
    /// Heartbeat-driven host-failure detections (one per proxy that
    /// independently declared a host dead).
    pub host_failures_detected: Counter,
    /// Heartbeat pings sent (proxy→BRASS).
    pub hb_pings: Counter,
    /// Proxy outages injected by a fault plan.
    pub proxy_outages: Counter,
    /// Silent device drops (link death without a FIN; detected only by
    /// POP heartbeats and the device's own reconnect).
    pub device_vanishes: Counter,
    /// Device gap-detection backfill polls issued to the WAS.
    pub backfill_polls: Counter,
    /// Updates recovered via WAS backfill after a loss.
    pub backfills: Counter,
    /// Updates shed at a BRASS host's bounded ingress mailbox.
    pub mailbox_sheds: Counter,
    /// Data frames shed at the POP egress by an exhausted flow window.
    pub flow_sheds: Counter,
    /// `FlowStatus::Degraded` signals sent to devices by egress flow
    /// control (one per degradation episode, not per shed frame).
    pub flow_degraded_signals: Counter,
    /// `FlowStatus::Recovered` signals sent after a degraded window
    /// drained past its low-water mark.
    pub flow_recovered_signals: Counter,

    // ------------------------------------------------------------------
    // Per-stage queue depths (mempulse-style overload observability).
    // ------------------------------------------------------------------
    /// Pylon fan-out burst size: deliveries in flight out of one publish.
    pub q_pylon_fanout: QueueGauge,
    /// BRASS ingress-mailbox backlog (deepest single host's queue).
    pub q_brass_mailbox: QueueGauge,
    /// BURST egress flow-window occupancy in bytes (deepest single
    /// device's in-flight backlog).
    pub q_flow_window: QueueGauge,
    /// POP egress: frames in flight on the last mile (deepest single
    /// device's FIFO).
    pub q_pop_egress: QueueGauge,

    // ------------------------------------------------------------------
    // Latency histograms.
    // ------------------------------------------------------------------
    /// Per-application latency decompositions.
    pub per_app: FxHashMap<String, AppLatencies>,
    /// Pylon fanout latency, streams with <10K subscribers.
    pub pylon_fanout_small: Histogram,
    /// Pylon fanout latency, streams with ≥10K subscribers.
    pub pylon_fanout_large: Histogram,
    /// Backend subscription-replication latency (gateway → Pylon).
    pub sub_replication: Histogram,
    /// Device-observed subscription latency (subscribe → first response).
    pub sub_e2e: Histogram,

    // ------------------------------------------------------------------
    // Diurnal time series (Fig. 8 / Fig. 10).
    // ------------------------------------------------------------------
    /// Active request-streams (gauge snapshots, one per interval).
    pub ts_active_streams: TimeSeries,
    /// Subscription requests per interval.
    pub ts_subscriptions: TimeSeries,
    /// Pylon publications per interval.
    pub ts_publications: TimeSeries,
    /// BRASS delivery decisions per interval.
    pub ts_decisions: TimeSeries,
    /// Update deliveries per interval.
    pub ts_deliveries: TimeSeries,
    /// Dropped last-mile connections per interval.
    pub ts_connection_drops: TimeSeries,
    /// Proxy-induced stream reconnects per interval.
    pub ts_proxy_reconnects: TimeSeries,

    // ------------------------------------------------------------------
    // Availability timeline (chaos harness).
    // ------------------------------------------------------------------
    /// One sample per metrics tick: `(when, fraction of connected devices'
    /// open streams that a live BRASS host is actually serving)`. 1.0 when
    /// healthy; dips during fault episodes and climbs back as repair
    /// converges. The chaos bench derives per-episode recovery times from
    /// this.
    pub availability_timeline: Vec<(SimTime, f64)>,

    // ------------------------------------------------------------------
    // Per-stream accounting (Fig. 7 / Table 2).
    // ------------------------------------------------------------------
    /// Per-stream stats, one entry per stream ever opened. A single map
    /// rather than parallel `opened`/`publications` maps: at fleet scale
    /// every map shows up in bytes-per-device, and both fields are keyed
    /// identically.
    pub stream_stats: FxHashMap<(u64, StreamId), StreamStat>,
    /// Closed streams' lifetimes.
    pub stream_lifetimes: Vec<SimDuration>,
}

/// Lifetime + publication accounting for one stream (Fig. 7 / Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamStat {
    /// When the stream opened; `None` once it has closed.
    pub opened: Option<SimTime>,
    /// Publications targeting this stream's subscription, over the
    /// stream's lifetime.
    pub publications: u64,
}

snap_struct!(AppLatencies {
    edge_to_was,
    was_handling,
    brass_processing,
    brass_to_device,
    total
});
snap_struct!(StreamStat {
    opened,
    publications
});
// Fields in declaration order. Vec-valued fields (`availability_timeline`,
// `stream_lifetimes`) are verbatim: their order is execution order, which
// is behaviour-visible.
snap_struct!(
    SystemMetrics {
        mutations,
        publications,
        deliveries,
        subscriptions,
        cancellations,
        connection_drops,
        frames_lost,
        quorum_failures,
        host_crashes,
        host_failures_detected,
        hb_pings,
        proxy_outages,
        device_vanishes,
        backfill_polls,
        backfills,
        mailbox_sheds,
        flow_sheds,
        flow_degraded_signals,
        flow_recovered_signals,
        q_pylon_fanout,
        q_brass_mailbox,
        q_flow_window,
        q_pop_egress,
        per_app,
        pylon_fanout_small,
        pylon_fanout_large,
        sub_replication,
        sub_e2e,
        ts_active_streams,
        ts_subscriptions,
        ts_publications,
        ts_decisions,
        ts_deliveries,
        ts_connection_drops,
        ts_proxy_reconnects,
        availability_timeline,
        stream_stats,
        stream_lifetimes
    },
    |m| {
        let in_range = |&(_, fraction): &(SimTime, f64)| (0.0..=1.0).contains(&fraction);
        ensure(
            m.availability_timeline.iter().all(in_range),
            "availability sample outside [0, 1]",
        )
    }
);

impl SystemMetrics {
    /// Creates metrics with the given diurnal horizon and bucket interval.
    pub fn new(horizon: SimDuration, interval: SimDuration) -> Self {
        let ts = || TimeSeries::new(horizon, interval);
        SystemMetrics {
            mutations: Counter::new(),
            publications: Counter::new(),
            deliveries: Counter::new(),
            subscriptions: Counter::new(),
            cancellations: Counter::new(),
            connection_drops: Counter::new(),
            frames_lost: Counter::new(),
            quorum_failures: Counter::new(),
            host_crashes: Counter::new(),
            host_failures_detected: Counter::new(),
            hb_pings: Counter::new(),
            proxy_outages: Counter::new(),
            device_vanishes: Counter::new(),
            backfill_polls: Counter::new(),
            backfills: Counter::new(),
            mailbox_sheds: Counter::new(),
            flow_sheds: Counter::new(),
            flow_degraded_signals: Counter::new(),
            flow_recovered_signals: Counter::new(),
            q_pylon_fanout: QueueGauge::new(horizon, interval),
            q_brass_mailbox: QueueGauge::new(horizon, interval),
            q_flow_window: QueueGauge::new(horizon, interval),
            q_pop_egress: QueueGauge::new(horizon, interval),
            per_app: FxHashMap::default(),
            pylon_fanout_small: Histogram::new(),
            pylon_fanout_large: Histogram::new(),
            sub_replication: Histogram::new(),
            sub_e2e: Histogram::new(),
            ts_active_streams: ts(),
            ts_subscriptions: ts(),
            ts_publications: ts(),
            ts_decisions: ts(),
            ts_deliveries: ts(),
            ts_connection_drops: ts(),
            ts_proxy_reconnects: ts(),
            availability_timeline: Vec::new(),
            stream_stats: FxHashMap::default(),
            stream_lifetimes: Vec::new(),
        }
    }

    /// The per-app latency bucket, created on first use. Called per
    /// delivered frame, so the name is only copied when the bucket is new.
    pub fn app(&mut self, app: &str) -> &mut AppLatencies {
        if !self.per_app.contains_key(app) {
            self.per_app.insert(app.to_owned(), AppLatencies::default());
        }
        self.per_app.get_mut(app).expect("bucket ensured above")
    }

    /// Appends one availability sample (fraction of subscribed streams a
    /// live host is serving, sampled on the metrics tick).
    pub fn record_availability(&mut self, at: SimTime, fraction: f64) {
        self.availability_timeline.push((at, fraction));
    }

    /// `(min, mean)` availability over samples in `[from, to]`; `(1, 1)`
    /// when the window holds no samples.
    pub fn availability_stats(&self, from: SimTime, to: SimTime) -> (f64, f64) {
        let window: Vec<f64> = self
            .availability_timeline
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .map(|&(_, f)| f)
            .collect();
        if window.is_empty() {
            return (1.0, 1.0);
        }
        let min = window.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        (min, mean)
    }

    /// Records a stream opening.
    pub fn stream_opened(&mut self, device: u64, sid: StreamId, at: SimTime) {
        self.stream_stats.entry((device, sid)).or_default().opened = Some(at);
    }

    /// Records a stream closing, accumulating its lifetime.
    pub fn stream_closed(&mut self, device: u64, sid: StreamId, at: SimTime) {
        if let Some(opened) = self
            .stream_stats
            .get_mut(&(device, sid))
            .and_then(|s| s.opened.take())
        {
            self.stream_lifetimes.push(at.saturating_since(opened));
        }
    }

    /// Counts one publication targeting a stream's subscription.
    pub fn publication_for_stream(&mut self, device: u64, sid: StreamId) {
        self.stream_stats
            .entry((device, sid))
            .or_default()
            .publications += 1;
    }

    /// Streams ever opened (Fig. 7 denominator).
    pub fn streams_tracked(&self) -> usize {
        self.stream_stats.len()
    }

    /// Fig. 7 summary: fraction of streams with 0 / 1–9 / 10–99 / 100+
    /// publications.
    pub fn publication_buckets(&self) -> [f64; 4] {
        let total = self.stream_stats.len().max(1) as f64;
        let mut counts = [0usize; 4];
        for s in self.stream_stats.values() {
            let b = match s.publications {
                0 => 0,
                1..=9 => 1,
                10..=99 => 2,
                _ => 3,
            };
            counts[b] += 1;
        }
        [
            counts[0] as f64 / total * 100.0,
            counts[1] as f64 / total * 100.0,
            counts[2] as f64 / total * 100.0,
            counts[3] as f64 / total * 100.0,
        ]
    }

    /// The overall BRASS filtered fraction: `1 - deliveries / decisions`
    /// (the paper's "80% of messages are filtered out").
    pub fn filtered_fraction(&self, decisions: u64) -> f64 {
        if decisions == 0 {
            0.0
        } else {
            1.0 - self.deliveries.get() as f64 / decisions as f64
        }
    }

    /// Every counter, in declaration order, for the cheap per-tick
    /// fingerprint.
    fn counters(&self) -> [&Counter; 19] {
        [
            &self.mutations,
            &self.publications,
            &self.deliveries,
            &self.subscriptions,
            &self.cancellations,
            &self.connection_drops,
            &self.frames_lost,
            &self.quorum_failures,
            &self.host_crashes,
            &self.host_failures_detected,
            &self.hb_pings,
            &self.proxy_outages,
            &self.device_vanishes,
            &self.backfill_polls,
            &self.backfills,
            &self.mailbox_sheds,
            &self.flow_sheds,
            &self.flow_degraded_signals,
            &self.flow_recovered_signals,
        ]
    }

    /// Folds the cheap per-tick metrics digest into a fingerprint: every
    /// counter, queue-gauge peak, histogram population, and per-stream
    /// tally — O(counters + apps + streams-opened) per call, no float
    /// formatting, no allocation beyond the sort of app names.
    pub fn mix_fingerprint(&self, fp: &mut Fp64) {
        for c in self.counters() {
            fp.mix_u64(c.get());
        }
        for g in [
            &self.q_pylon_fanout,
            &self.q_brass_mailbox,
            &self.q_flow_window,
            &self.q_pop_egress,
        ] {
            fp.mix_u64(g.peak());
        }
        let mut names: Vec<&String> = self.per_app.keys().collect();
        names.sort_unstable();
        for name in names {
            fp.mix_bytes(name.as_bytes());
            let app = &self.per_app[name];
            for h in [
                &app.edge_to_was,
                &app.was_handling,
                &app.brass_processing,
                &app.brass_to_device,
                &app.total,
            ] {
                fp.mix_u64(h.count());
            }
        }
        for h in [
            &self.pylon_fanout_small,
            &self.pylon_fanout_large,
            &self.sub_replication,
            &self.sub_e2e,
        ] {
            fp.mix_u64(h.count());
        }
        fp.mix_u64(self.availability_timeline.len() as u64);
        fp.mix_u64(self.stream_stats.len() as u64);
        fp.mix_u64(self.stream_lifetimes.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> SystemMetrics {
        SystemMetrics::new(SimDuration::from_hours(1), SimDuration::from_mins(15))
    }

    #[test]
    fn stream_lifetime_accounting() {
        let mut m = metrics();
        m.stream_opened(1, StreamId(1), SimTime::from_secs(10));
        m.stream_closed(1, StreamId(1), SimTime::from_secs(70));
        assert_eq!(m.stream_lifetimes, vec![SimDuration::from_secs(60)]);
        // Closing an unknown stream is a no-op.
        m.stream_closed(9, StreamId(9), SimTime::from_secs(99));
        assert_eq!(m.stream_lifetimes.len(), 1);
    }

    #[test]
    fn publication_buckets_classify() {
        let mut m = metrics();
        for (i, n) in [(1u64, 0u64), (2, 5), (3, 50), (4, 500)] {
            m.stream_opened(i, StreamId(1), SimTime::ZERO);
            for _ in 0..n {
                m.publication_for_stream(i, StreamId(1));
            }
        }
        let buckets = m.publication_buckets();
        assert_eq!(buckets, [25.0, 25.0, 25.0, 25.0]);
    }

    #[test]
    fn filtered_fraction() {
        let mut m = metrics();
        (0..20).for_each(|_| m.deliveries.inc());
        assert!((m.filtered_fraction(100) - 0.8).abs() < 1e-9);
        assert_eq!(m.filtered_fraction(0), 0.0);
    }

    #[test]
    fn per_app_buckets_created_on_demand() {
        let mut m = metrics();
        m.app("lvc").total.record(100.0);
        m.app("lvc").total.record(200.0);
        assert_eq!(m.per_app["lvc"].total.count(), 2);
    }
}
