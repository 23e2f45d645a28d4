//! Measurement primitives: counters, histograms, time series.
//!
//! These mirror the quantities the paper reports: averages, P75/P90/P95/P99
//! percentiles (Table 3, Fig. 6), cumulative distributions (Fig. 9), and
//! fixed-interval diurnal series (Fig. 8, Fig. 10).

use std::fmt;

use crate::snap::{
    ensure, restore_sorted, Fp64, Snap, SnapError, SnapReader, SnapResult, SnapWriter,
};
use crate::snap_struct;
use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Folds the counter into a rolling fingerprint.
    pub fn mix_into(&self, fp: &mut Fp64) {
        fp.mix_u64(self.0);
    }
}

snap_struct!(Counter { 0 });

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A log-linear bucketed histogram of non-negative values.
///
/// Values are grouped into buckets whose width doubles every
/// `sub_buckets` buckets, giving a bounded relative error at every scale —
/// the same idea as HDR histograms, sized for latencies from microseconds to
/// hours. Recording is O(1) and the structure never allocates after
/// construction.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const SUB_BUCKET_BITS: u32 = 5; // 32 sub-buckets per octave: <= ~3% rel. error.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
// Values 0..32 are exact; octaves 5..=62 are bucketed, 32 buckets each.
const NUM_BUCKETS: usize =
    SUB_BUCKETS as usize + (63 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS as usize;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        let v = value.max(0.0).min(u64::MAX as f64 / 2.0) as u64;
        if v < SUB_BUCKETS {
            return v as usize;
        }
        // v is in octave `octave` (i.e. [2^octave, 2^(octave+1))); the top
        // SUB_BUCKET_BITS+1 bits select the sub-bucket within the octave.
        let octave = 63 - v.leading_zeros();
        let shift = octave - SUB_BUCKET_BITS;
        let sub = (v >> shift) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
        let idx = SUB_BUCKETS as usize
            + (octave - SUB_BUCKET_BITS) as usize * SUB_BUCKETS as usize
            + sub as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    fn bucket_value(index: usize) -> f64 {
        let idx = index as u64;
        if idx < SUB_BUCKETS {
            return idx as f64;
        }
        let rel = idx - SUB_BUCKETS;
        let shift = (rel / SUB_BUCKETS) as u32;
        let sub = rel % SUB_BUCKETS;
        // Midpoint of the bucket range [lo, lo + width).
        let lo = (SUB_BUCKETS + sub) << shift;
        let width = 1u64 << shift;
        (lo + width / 2) as f64
    }

    /// Records one value (negative values are clamped to zero).
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `value` `n` times, bit-exact with `n` calls to
    /// [`Self::record`]. A run of zeros costs one add: once the sum has
    /// taken the first `+ 0.0`, adding another changes no bit.
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let v = value.max(0.0);
        self.counts[Self::bucket_index(value)] += n;
        self.total += n;
        let adds = if v == 0.0 { 1 } else { n };
        for _ in 0..adds {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of recorded values, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Minimum recorded value, or 0 for an empty histogram.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum recorded value, or 0 for an empty histogram.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket-midpoint approximation).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fraction of recorded values at or below `value`.
    pub fn cdf_at(&self, value: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = Self::bucket_index(value);
        let below: u64 = self.counts[..=idx].iter().sum();
        below as f64 / self.total as f64
    }

    /// Counts of values falling in each `[edges[i], edges[i+1])` bin, with a
    /// final overflow bin; used for the Fig. 6-style bar histograms.
    pub fn binned(&self, edges: &[f64]) -> Vec<u64> {
        let mut bins = vec![0u64; edges.len()];
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = Self::bucket_value(i);
            let bin = match edges.iter().position(|&e| v < e) {
                Some(0) => 0,
                Some(b) => b - 1,
                None => edges.len() - 1,
            };
            bins[bin] += c;
        }
        bins
    }

    /// Folds the histogram into a rolling fingerprint (bucket occupancy,
    /// total, and the exact accumulator bits).
    pub fn mix_into(&self, fp: &mut Fp64) {
        fp.mix_u64(self.total);
        fp.mix_u64(self.sum.to_bits());
        fp.mix_u64(self.min.to_bits());
        fp.mix_u64(self.max.to_bits());
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                fp.mix_u64(((i as u64) << 40) ^ c);
            }
        }
    }
}

/// A fixed-interval time series of accumulated values.
///
/// Each bucket covers `interval` of simulated time; values recorded within a
/// bucket are summed. The paper's diurnal figures (Fig. 8, Fig. 10) use
/// 15-minute buckets shown as per-minute averages; [`TimeSeries::rates`]
/// produces exactly that.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    interval: SimDuration,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series covering `horizon` with the given bucket `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(horizon: SimDuration, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        let n = horizon.as_micros().div_ceil(interval.as_micros()).max(1);
        TimeSeries {
            interval,
            buckets: vec![0.0; n as usize],
        }
    }

    /// Adds `value` to the bucket covering instant `at`.
    ///
    /// Instants beyond the horizon fall into the final bucket.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_micros() / self.interval.as_micros()) as usize;
        let idx = idx.min(self.buckets.len() - 1);
        self.buckets[idx] += value;
    }

    /// Increments the bucket covering `at` by one.
    pub fn inc(&mut self, at: SimTime) {
        self.record(at, 1.0);
    }

    /// The raw per-bucket sums.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// The bucket interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Per-bucket values converted to a per-`unit` rate (e.g. per minute).
    pub fn rates(&self, unit: SimDuration) -> Vec<f64> {
        let scale = unit.as_secs_f64() / self.interval.as_secs_f64();
        self.buckets.iter().map(|&v| v * scale).collect()
    }

    /// Raises the bucket covering `at` to at least `value` (per-bucket
    /// maximum instead of the default sum) — the right reduction for
    /// sampled gauge series like queue depths, where adding samples would
    /// conflate sampling frequency with level.
    pub fn record_max(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_micros() / self.interval.as_micros()) as usize;
        let idx = idx.min(self.buckets.len() - 1);
        if value > self.buckets[idx] {
            self.buckets[idx] = value;
        }
    }

    /// Folds the series into a rolling fingerprint.
    pub fn mix_into(&self, fp: &mut Fp64) {
        fp.mix_u64(self.interval.as_micros());
        for &b in &self.buckets {
            fp.mix_u64(b.to_bits());
        }
    }
}

/// Occupancy accounting for one bounded queueing stage (a Pylon fan-out
/// backlog, a BRASS host mailbox, a BURST flow-control window, a POP
/// egress link).
///
/// Tracks the classic mempulse-style triple — current depth, peak depth,
/// and total items rejected at the queue — plus enqueue/dequeue totals and
/// a per-bucket-max [`TimeSeries`] of sampled depth, so overload benches
/// can plot backlog against offered load and invariant tests can assert
/// bounded growth.
///
/// One gauge instance may aggregate several queues of the same stage
/// (e.g. every BRASS host's mailbox): `current`/`peak` then read as "the
/// deepest single queue at this stage", which is the quantity the
/// graceful-shed invariant bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueGauge {
    current: u64,
    peak: u64,
    enqueued: u64,
    dequeued: u64,
    dropped: u64,
    depth: TimeSeries,
}

impl QueueGauge {
    /// Creates a gauge whose depth series covers `horizon` at `interval`.
    pub fn new(horizon: SimDuration, interval: SimDuration) -> Self {
        QueueGauge {
            current: 0,
            peak: 0,
            enqueued: 0,
            dequeued: 0,
            dropped: 0,
            depth: TimeSeries::new(horizon, interval),
        }
    }

    /// Observes the depth of one queue at this stage (absolute, not a
    /// delta): updates current/peak and the sampled depth series.
    pub fn observe_depth(&mut self, at: SimTime, depth: u64) {
        self.current = depth;
        if depth > self.peak {
            self.peak = depth;
        }
        self.depth.record_max(at, depth as f64);
    }

    /// Records `n` items admitted into the queue.
    pub fn enqueued_n(&mut self, n: u64) {
        self.enqueued += n;
    }

    /// Records `n` items leaving the queue (serviced).
    pub fn dequeued_n(&mut self, n: u64) {
        self.dequeued += n;
    }

    /// Records `n` items rejected at the queue (shed, not admitted).
    pub fn dropped_n(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Most recently observed depth.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Deepest single-queue depth ever observed.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Total items admitted.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total items serviced.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Total items rejected at the queue.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The sampled depth series (per-bucket maximum).
    pub fn depth_series(&self) -> &TimeSeries {
        &self.depth
    }

    /// Folds the gauge into a rolling fingerprint.
    pub fn mix_into(&self, fp: &mut Fp64) {
        fp.mix_u64(self.current);
        fp.mix_u64(self.peak);
        fp.mix_u64(self.enqueued);
        fp.mix_u64(self.dequeued);
        fp.mix_u64(self.dropped);
        self.depth.mix_into(fp);
    }
}

/// Only occupied buckets are written (`(index, count)` pairs, ascending);
/// `sum`/`min`/`max` go as raw IEEE bits so the empty-histogram `±INFINITY`
/// sentinels survive. Reading validates that indices are in range, counts
/// non-zero, and that they sum to `total`.
impl Snap for Histogram {
    fn snap(&self, w: &mut SnapWriter) {
        let occupied = self.counts.iter().filter(|&&c| c != 0).count();
        w.put_usize(occupied);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                w.put_u32(i as u32);
                w.put_u64(c);
            }
        }
        w.put_u64(self.total);
        w.put_f64(self.sum);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let mut h = Histogram::new();
        let mut seen = 0u64;
        for (i, c) in restore_sorted(r, |a: &(u32, u64), b| a.0 < b.0)? {
            if i as usize >= NUM_BUCKETS || c == 0 {
                return Err(SnapError::Invalid(format!("histogram bucket {i} = {c}")));
            }
            h.counts[i as usize] = c;
            seen = seen
                .checked_add(c)
                .ok_or_else(|| SnapError::Invalid("histogram count overflow".into()))?;
        }
        h.total = r.get_u64()?;
        if h.total != seen {
            return Err(SnapError::Invalid("histogram total mismatch".into()));
        }
        h.sum = r.get_f64()?;
        h.min = r.get_f64()?;
        h.max = r.get_f64()?;
        Ok(h)
    }
}

snap_struct!(TimeSeries { interval, buckets }, |s| {
    ensure(
        !s.interval.is_zero() && !s.buckets.is_empty(),
        "zero-interval or empty time series",
    )
});

snap_struct!(
    QueueGauge {
        current,
        peak,
        enqueued,
        dequeued,
        dropped,
        depth
    },
    |g| ensure(g.current <= g.peak, "gauge current exceeds peak")
);

/// Summary statistics extracted from a [`Histogram`], printable as a table
/// row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises a histogram.
    pub fn of(h: &Histogram) -> Summary {
        Summary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p75: h.quantile(0.75),
            p90: h.quantile(0.90),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={:.1} p75={:.1} p90={:.1} p95={:.1} p99={:.1} max={:.1}",
            self.count, self.mean, self.p50, self.p75, self.p90, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.inc();
        assert_eq!(c.get(), 2);
        assert_eq!(format!("{c}"), "2");
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 32);
        assert!((h.mean() - 15.5).abs() < 1e-9);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 31.0);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v as f64);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "q{q}: got {got} expect {expect}");
        }
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.cdf_at(10.0), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_negative_values_clamp() {
        let mut h = Histogram::new();
        h.record(-5.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_cdf_monotone() {
        let mut h = Histogram::new();
        let mut rng = crate::rng::DetRng::new(1);
        for _ in 0..10_000 {
            h.record(rng.f64() * 1_000.0);
        }
        let mut last = 0.0;
        for v in [1.0, 10.0, 100.0, 500.0, 999.0, 2_000.0] {
            let c = h.cdf_at(v);
            assert!(c >= last);
            last = c;
        }
        assert!((h.cdf_at(2_000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_binned() {
        let mut h = Histogram::new();
        for v in [0.5, 1.5, 2.5, 3.5, 10.0] {
            h.record(v);
        }
        let bins = h.binned(&[0.0, 2.0, 4.0]);
        assert_eq!(bins, vec![2, 2, 1]);
    }

    #[test]
    fn histogram_large_values_bounded_relative_error() {
        let mut h = Histogram::new();
        let v = 3_600_000.0; // one hour in ms
        h.record(v);
        let q = h.quantile(1.0);
        assert!((q - v).abs() / v < 0.05, "q {q}");
    }

    #[test]
    fn timeseries_bucketing() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(60), SimDuration::from_mins(15));
        ts.inc(SimTime::from_secs(10));
        ts.inc(SimTime::from_secs(16 * 60));
        ts.inc(SimTime::from_secs(16 * 60));
        assert_eq!(ts.buckets(), &[1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn timeseries_rates_per_minute() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(30), SimDuration::from_mins(15));
        for _ in 0..30 {
            ts.inc(SimTime::from_secs(60));
        }
        let r = ts.rates(SimDuration::from_mins(1));
        assert!((r[0] - 2.0).abs() < 1e-9, "rate {}", r[0]);
    }

    #[test]
    fn timeseries_overflow_goes_to_last_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(30), SimDuration::from_mins(15));
        ts.inc(SimTime::from_secs(10_000_000));
        assert_eq!(ts.buckets()[1], 1.0);
    }

    #[test]
    fn timeseries_record_max_keeps_bucket_peak() {
        let mut ts = TimeSeries::new(SimDuration::from_mins(30), SimDuration::from_mins(15));
        ts.record_max(SimTime::from_secs(10), 3.0);
        ts.record_max(SimTime::from_secs(20), 1.0);
        ts.record_max(SimTime::from_secs(16 * 60), 7.0);
        assert_eq!(ts.buckets(), &[3.0, 7.0]);
    }

    #[test]
    fn queue_gauge_tracks_depth_and_volume() {
        let mut q = QueueGauge::new(SimDuration::from_mins(30), SimDuration::from_mins(15));
        q.enqueued_n(3);
        q.observe_depth(SimTime::from_secs(1), 3);
        q.dequeued_n(2);
        q.observe_depth(SimTime::from_secs(2), 1);
        q.dropped_n(4);
        assert_eq!(q.current(), 1);
        assert_eq!(q.peak(), 3);
        assert_eq!(q.enqueued(), 3);
        assert_eq!(q.dequeued(), 2);
        assert_eq!(q.dropped(), 4);
        assert_eq!(q.depth_series().buckets()[0], 3.0);
    }

    #[test]
    fn summary_display() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v as f64);
        }
        let s = Summary::of(&h);
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p75 && s.p75 <= s.p90 && s.p90 <= s.p99);
        assert!(format!("{s}").contains("n=100"));
    }
}
