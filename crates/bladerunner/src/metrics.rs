//! System-wide measurement: every quantity §5 reports.

use std::collections::BTreeMap;

use brass::AppId;
use burst::frame::StreamId;
use pylon::{Topic, TopicId};
use simkit::fxhash::FxHashMap;
use simkit::metrics::{Counter, Histogram, QueueGauge, TimeSeries};
use simkit::snap::{
    ensure, restore_sorted, Fp64, Snap, SnapError, SnapReader, SnapResult, SnapWriter,
};
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

/// Whose latencies a `per_app` bucket holds: an application's, or those
/// of frames on a stream registered on no application's topic. Ordered
/// and snapshotted by name, `unknown` last, as a map keyed by name was.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum AppBucket {
    App(AppId),
    Unknown,
}

impl AppBucket {
    fn name(self) -> &'static str {
        match self {
            AppBucket::App(app) => app.name(),
            AppBucket::Unknown => "unknown",
        }
    }
}

/// Any name but an application's or `unknown` is rejected.
impl Snap for AppBucket {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self.name());
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let name = r.get_str()?;
        match AppId::from_name(&name) {
            Some(app) => Ok(AppBucket::App(app)),
            None if name == "unknown" => Ok(AppBucket::Unknown),
            None => Err(SnapError::Invalid(format!("latency bucket {name:?}"))),
        }
    }
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
    /// Per-application latency decompositions; read through
    /// [`Self::app_latencies`].
    per_app: BTreeMap<AppBucket, AppLatencies>,
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
    /// Per-stream stats, one entry per stream ever opened; read through
    /// [`Self::publication_buckets`] and [`Self::streams_tracked`].
    stream_stats: StreamStats,
    /// Closed streams' lifetimes.
    pub stream_lifetimes: Vec<SimDuration>,
}

/// Lifetime and publication accounting for every stream ever opened
/// (Fig. 7 / Table 2). One map rather than parallel `opened` /
/// `publications` maps: at fleet scale every map shows up in
/// bytes-per-device, and both fields are keyed identically.
///
/// A publication is credited to its topic, not to each stream that
/// subscribes to it: one counter increment per publish, however many
/// streams are registered on the topic. A registered stream stores its
/// count less the topic's counter at registration, so adding the counter
/// back settles it. [`Self::publications`] is the one place that does;
/// the Fig. 7 buckets, equality and the snapshot all read through it, and
/// unregistering writes the settled count back. The topic counters are
/// therefore not state: a snapshot holds settled counts and each
/// registered stream's topic name, and its restore registers the streams
/// again against fresh counters.
///
/// This is the engine's one record of which stream is registered on which
/// topic ([`SystemMetrics::stream_topic`]); the per-frame attribution
/// reads it. Registration is not the stream's lifetime: a stream is
/// registered when the device subscribes and unregistered when the device
/// cancels it or drops it for good; a stream the server ended (a redirect
/// the device retries under the same sid, say) is closed but keeps
/// counting.
#[derive(Clone, Debug, Default)]
struct StreamStats {
    streams: FxHashMap<(u64, StreamId), StreamStat>,
    /// The topics that have a registered stream.
    topics: FxHashMap<TopicId, TopicCount>,
}

#[derive(Clone, Copy, Debug, Default)]
struct StreamStat {
    /// When the stream opened; `None` once it has closed.
    opened: Option<SimTime>,
    /// Publications targeting this stream's subscription while it was
    /// registered; while `topic` is set, less that topic's counter at
    /// registration (wrapping).
    publications: u64,
    /// The topic the stream is registered on, until it is unregistered.
    topic: Option<TopicId>,
}

#[derive(Clone, Copy, Debug)]
struct TopicCount {
    /// The topic, kept so a stream's topic is read without the interner.
    topic: Topic,
    /// Publications since the entry was created.
    published: u64,
    /// Streams registered on the topic; the entry goes with the last.
    streams: u32,
}

impl StreamStats {
    /// A stream's publication count, settled.
    fn publications(&self, stat: &StreamStat) -> u64 {
        let published = stat.topic.map_or(0, |topic| self.topics[&topic].published);
        stat.publications.wrapping_add(published)
    }

    /// The topic `stat` is registered on.
    fn topic(&self, stat: &StreamStat) -> Option<Topic> {
        stat.topic.map(|id| self.topics[&id].topic)
    }

    /// Registers the tracked stream `key` on `topic`, settling any earlier
    /// registration.
    fn register(&mut self, key: (u64, StreamId), topic: Topic) {
        self.unregister(key);
        let new = TopicCount {
            topic,
            published: 0,
            streams: 0,
        };
        let count = self.topics.entry(topic.id()).or_insert(new);
        count.streams += 1;
        let stat = self.streams.entry(key).or_default();
        stat.publications = stat.publications.wrapping_sub(count.published);
        stat.topic = Some(topic.id());
    }

    /// Ends `key`'s registration, if any, writing its settled count back.
    fn unregister(&mut self, key: (u64, StreamId)) {
        let Some(stat) = self.streams.get_mut(&key) else {
            return;
        };
        let Some(topic) = stat.topic.take() else {
            return;
        };
        let count = self.topics.get_mut(&topic).expect("a registered topic");
        stat.publications = stat.publications.wrapping_add(count.published);
        count.streams -= 1;
        if count.streams == 0 {
            self.topics.remove(&topic);
        }
    }

    /// `(key, (opened, settled publications, topic))` in ascending key
    /// order.
    fn settled(&self) -> Vec<SettledRow> {
        let mut rows: Vec<_> = self
            .streams
            .iter()
            .map(|(&key, s)| (key, (s.opened, self.publications(s), self.topic(s))))
            .collect();
        rows.sort_unstable_by_key(|row| row.0);
        rows
    }
}

/// A stream's snapshot row: see [`StreamStats::settled`].
type SettledRow = ((u64, StreamId), (Option<SimTime>, u64, Option<Topic>));

/// Equal when the same streams hold the same settled counts and
/// registrations, whatever the topic counters they are stored against.
impl PartialEq for StreamStats {
    fn eq(&self, other: &Self) -> bool {
        self.settled() == other.settled()
    }
}

/// The bytes of a hash map from stream to `(opened, publications, topic)`,
/// with every count settled and the topic named while the stream is
/// registered; restoring registers those streams again.
impl Snap for StreamStats {
    fn snap(&self, w: &mut SnapWriter) {
        self.settled().snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let rows = restore_sorted(r, |a: &SettledRow, b| a.0 < b.0)?;
        let mut stats = StreamStats::default();
        for (key, (opened, publications, topic)) in rows {
            let stat = StreamStat {
                opened,
                publications,
                topic: None,
            };
            stats.streams.insert(key, stat);
            if let Some(topic) = topic {
                stats.register(key, topic);
            }
        }
        Ok(stats)
    }
}

snap_struct!(AppLatencies {
    edge_to_was,
    was_handling,
    brass_processing,
    brass_to_device,
    total
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
            per_app: BTreeMap::new(),
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
            stream_stats: StreamStats::default(),
            stream_lifetimes: Vec::new(),
        }
    }

    /// `app`'s latency decomposition, if any of its updates was timed.
    pub fn app_latencies(&self, app: AppId) -> Option<&AppLatencies> {
        self.per_app.get(&AppBucket::App(app))
    }

    /// The latency bucket for `app`'s updates (`None`: those of a stream
    /// registered on no application's topic), created on first use.
    pub(crate) fn bucket(&mut self, app: Option<AppId>) -> &mut AppLatencies {
        let bucket = app.map_or(AppBucket::Unknown, AppBucket::App);
        self.per_app.entry(bucket).or_default()
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

    /// Records a stream opening and registers it on the topic its
    /// subscription targets, if any: `topic`'s publications are credited
    /// to it until the stream is unregistered.
    pub fn stream_opened(&mut self, device: u64, sid: StreamId, at: SimTime, topic: Option<Topic>) {
        let stats = &mut self.stream_stats;
        stats.streams.entry((device, sid)).or_default().opened = Some(at);
        if let Some(topic) = topic {
            stats.register((device, sid), topic);
        }
    }

    /// Records a stream closing, accumulating its lifetime. Its
    /// publication count runs on until it is unregistered.
    pub fn stream_closed(&mut self, device: u64, sid: StreamId, at: SimTime) {
        if let Some(opened) = self
            .stream_stats
            .streams
            .get_mut(&(device, sid))
            .and_then(|s| s.opened.take())
        {
            self.stream_lifetimes.push(at.saturating_since(opened));
        }
    }

    /// Stops crediting publications to a stream, keeping its count.
    pub(crate) fn unregister_stream(&mut self, device: u64, sid: StreamId) {
        self.stream_stats.unregister((device, sid));
    }

    /// The topic a stream is registered on. Read for every frame, so it
    /// never takes the topic interner's lock.
    pub(crate) fn stream_topic(&self, device: u64, sid: StreamId) -> Option<Topic> {
        let stats = &self.stream_stats;
        stats.topic(stats.streams.get(&(device, sid))?)
    }

    /// Counts one publication on `topic` for every stream registered on
    /// it: O(1), however many there are.
    pub fn publication(&mut self, topic: Topic) {
        if let Some(count) = self.stream_stats.topics.get_mut(&topic.id()) {
            count.published += 1;
        }
    }

    /// Streams ever opened (Fig. 7 denominator).
    pub fn streams_tracked(&self) -> usize {
        self.stream_stats.streams.len()
    }

    /// Fig. 7 summary: fraction of streams with 0 / 1–9 / 10–99 / 100+
    /// publications.
    pub fn publication_buckets(&self) -> [f64; 4] {
        let stats = &self.stream_stats;
        let total = stats.streams.len().max(1) as f64;
        let mut counts = [0usize; 4];
        for s in stats.streams.values() {
            let b = match stats.publications(s) {
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
    /// formatting, no allocation.
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
        for (bucket, app) in &self.per_app {
            fp.mix_bytes(bucket.name().as_bytes());
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
        fp.mix_u64(self.stream_stats.streams.len() as u64);
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
        m.stream_opened(1, StreamId(1), SimTime::from_secs(10), None);
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
            let topic = Topic::new(&format!("/Fig7/{i}")).expect("valid");
            m.stream_opened(i, StreamId(1), SimTime::ZERO, Some(topic));
            for _ in 0..n {
                m.publication(topic);
            }
        }
        let buckets = m.publication_buckets();
        assert_eq!(buckets, [25.0, 25.0, 25.0, 25.0]);
    }

    /// The per-stream counting `publication` replaced: every publish walks
    /// the streams registered on its topic and bumps each one's counter.
    #[derive(Default)]
    struct EagerModel {
        stats: FxHashMap<(u64, StreamId), EagerStat>,
        topic_streams: FxHashMap<Topic, Vec<(u64, StreamId)>>,
        stream_topic: FxHashMap<(u64, StreamId), Topic>,
    }

    #[derive(Default)]
    struct EagerStat {
        opened: Option<SimTime>,
        publications: u64,
    }

    /// The stream stats' snapshot bytes the model implies: its rows in key
    /// order, each naming the topic the stream is registered on.
    fn eager_bytes(model: &EagerModel) -> Vec<u8> {
        let rows = model.stats.iter().map(|(key, s)| {
            let topic = model.stream_topic.get(key).copied();
            (*key, (s.opened, s.publications, topic))
        });
        bytes_of(&rows.collect::<std::collections::BTreeMap<_, _>>())
    }

    fn eager_buckets(model: &EagerModel) -> [f64; 4] {
        let total = model.stats.len().max(1) as f64;
        let mut counts = [0.0; 4];
        for s in model.stats.values() {
            counts[match s.publications {
                0 => 0,
                1..=9 => 1,
                10..=99 => 2,
                _ => 3,
            }] += 1.0;
        }
        counts.map(|c| c / total * 100.0)
    }

    fn bytes_of(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    proptest::proptest! {
        /// Random subscribes (on a few topics, or on none), cancels, server
        /// ends (closed, still registered, as after a redirect) and
        /// publishes, with a snapshot and resume at a random cut, against
        /// the eager per-stream counter: the same settled counts, the same
        /// registered topics, the same Fig. 7 buckets and the same snapshot
        /// bytes after every step, the resumed metrics included.
        #[test]
        fn per_topic_counting_matches_eager_per_stream_counting(
            ops in proptest::collection::vec((0..9u8, 0..64u64), 1..300),
            cut in 0..300usize,
        ) {
            let topics: Vec<Topic> = (0..4)
                .map(|t| Topic::new(&format!("/Pubs/{t}")).expect("valid"))
                .collect();
            let mut m = metrics();
            let mut model = EagerModel::default();
            let mut next_sid = [1u64; 6];
            // Streams the device has not cancelled, ended or not.
            let mut live: Vec<(u64, StreamId)> = Vec::new();
            for (i, &(kind, raw)) in ops.iter().enumerate() {
                let at = SimTime::from_secs(i as u64);
                let close = |m: &mut SystemMetrics, model: &mut EagerModel, key: (u64, StreamId)| {
                    m.stream_closed(key.0, key.1, at);
                    let stat = model.stats.get_mut(&key).expect("tracked");
                    if let Some(opened) = stat.opened.take() {
                        assert_eq!(m.stream_lifetimes.last(), Some(&at.saturating_since(opened)));
                    }
                };
                match kind {
                    // Subscribe; one in five targets no topic.
                    0..=2 => {
                        let device = raw % 6;
                        let key = (device, StreamId(next_sid[device as usize]));
                        next_sid[device as usize] += 1;
                        let topic = (raw % 5 != 4).then(|| topics[(raw / 6 % 4) as usize]);
                        m.stream_opened(key.0, key.1, at, topic);
                        model.stats.entry(key).or_default().opened = Some(at);
                        if let Some(topic) = topic {
                            model.topic_streams.entry(topic).or_default().push(key);
                            model.stream_topic.insert(key, topic);
                        }
                        live.push(key);
                    }
                    // The device cancels: closed and unregistered.
                    3 if !live.is_empty() => {
                        let key = live.swap_remove(raw as usize % live.len());
                        close(&mut m, &mut model, key);
                        m.unregister_stream(key.0, key.1);
                        if let Some(topic) = model.stream_topic.remove(&key) {
                            model.topic_streams.get_mut(&topic).expect("registered").retain(|k| *k != key);
                        }
                    }
                    // The server ends it: closed, still registered.
                    4 if !live.is_empty() => {
                        let key = live[raw as usize % live.len()];
                        close(&mut m, &mut model, key);
                    }
                    // Publish, sometimes to a topic nobody registered on.
                    _ => {
                        let topic = match raw % 5 {
                            4 => Topic::new("/Pubs/unwatched").expect("valid"),
                            t => topics[t as usize],
                        };
                        m.publication(topic);
                        for key in model.topic_streams.get(&topic).into_iter().flatten() {
                            model.stats.get_mut(key).expect("tracked").publications += 1;
                        }
                    }
                }
                if i == cut % ops.len() {
                    let bytes = bytes_of(&m);
                    let resumed = SystemMetrics::restore(&mut SnapReader::new(&bytes)).expect("restores");
                    assert!(resumed == m, "resumed metrics equal the run-through");
                    m = resumed;
                }
                for (key, stat) in &m.stream_stats.streams {
                    assert_eq!(m.stream_stats.publications(stat), model.stats[key].publications, "op {i}");
                    let topic = model.stream_topic.get(key).copied();
                    assert_eq!(m.stream_topic(key.0, key.1), topic, "op {i}");
                }
                assert_eq!(m.streams_tracked(), model.stats.len());
                assert_eq!(m.publication_buckets(), eager_buckets(&model));
                assert_eq!(bytes_of(&m.stream_stats), eager_bytes(&model), "op {i}");
            }
            // A topic's counter lives exactly as long as a stream is
            // registered on it.
            let live: std::collections::BTreeSet<TopicId> =
                model.stream_topic.values().map(|t| t.id()).collect();
            let mut counted: Vec<TopicId> = m.stream_stats.topics.keys().copied().collect();
            counted.sort_unstable();
            assert!(counted.into_iter().eq(live));
        }
    }

    /// A stream the server ended is closed yet still registered, so its
    /// snapshot row names its topic and a restore registers it again.
    #[test]
    fn a_closed_stream_stays_registered_through_a_restore() {
        let topic = Topic::new("/Pubs/closed").expect("valid");
        let mut m = metrics();
        m.stream_opened(1, StreamId(1), SimTime::ZERO, Some(topic));
        m.stream_closed(1, StreamId(1), SimTime::from_secs(1));
        m.publication(topic);
        let mut resumed =
            SystemMetrics::restore(&mut SnapReader::new(&bytes_of(&m))).expect("restores");
        assert_eq!(resumed.stream_topic(1, StreamId(1)), Some(topic));
        for counts in [&mut m, &mut resumed] {
            counts.publication(topic);
            assert_eq!(counts.publication_buckets(), [0.0, 100.0, 0.0, 0.0]);
        }
        assert!(resumed == m);
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
        m.bucket(Some(AppId::Lvc)).total.record(100.0);
        m.bucket(Some(AppId::Lvc)).total.record(200.0);
        assert_eq!(m.app_latencies(AppId::Lvc).unwrap().total.count(), 2);
        assert!(m.app_latencies(AppId::Typing).is_none());
    }

    /// Buckets snapshot under their names, `unknown` last, and a name that
    /// is neither an application's nor `unknown` is rejected.
    #[test]
    fn per_app_restore_rejects_an_unknown_bucket_name() {
        let mut m = metrics();
        m.bucket(None).total.record(1.0);
        m.bucket(Some(AppId::Typing)).total.record(2.0);
        m.bucket(Some(AppId::Lvc)).total.record(3.0);
        let bytes = bytes_of(&m);
        let resumed = SystemMetrics::restore(&mut SnapReader::new(&bytes)).expect("restores");
        assert!(resumed == m);
        let names: Vec<&str> = m.per_app.keys().map(|b| b.name()).collect();
        assert_eq!(names, ["lvc", "typing", "unknown"]);
        // "unknown" and "unkn0wn" have one length, so the swap keeps every
        // other byte where it was.
        let at = bytes
            .windows(7)
            .position(|w| w == b"unknown")
            .expect("the bucket name is in the bytes");
        let mut renamed = bytes.clone();
        renamed[at..at + 7].copy_from_slice(b"unkn0wn");
        assert!(SystemMetrics::restore(&mut SnapReader::new(&renamed)).is_err());
    }
}
