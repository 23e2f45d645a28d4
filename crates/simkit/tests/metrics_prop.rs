//! Property tests for the measurement primitives: the log-linear histogram
//! against an exact sorted reference, and time-series conservation.

use proptest::prelude::*;

use simkit::metrics::Histogram;
use simkit::time::{SimDuration, SimTime};
use simkit::TimeSeries;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Histogram quantiles stay within the bucketing's relative-error bound
    /// of the exact order statistics.
    #[test]
    fn quantiles_bounded_relative_error(
        mut values in proptest::collection::vec(0.0f64..1_000_000.0, 10..500),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let idx = ((q * values.len() as f64).ceil() as usize)
                .clamp(1, values.len()) - 1;
            let exact = values[idx];
            let approx = h.quantile(q);
            // 32 sub-buckets per octave -> ~3.2% relative error, plus the
            // integer-bucket floor for small values.
            let tolerance = (exact * 0.04).max(1.0);
            prop_assert!(
                (approx - exact).abs() <= tolerance,
                "q{q}: approx {approx} vs exact {exact} (n={})",
                values.len()
            );
        }
    }

    /// Count, min, max and mean are exact regardless of bucketing.
    #[test]
    fn moments_are_exact(values in proptest::collection::vec(0.0f64..1e9, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
    }

    /// The CDF is a proper distribution function: monotone, reaching 1.
    #[test]
    fn cdf_is_monotone_to_one(values in proptest::collection::vec(0.0f64..10_000.0, 1..100)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0.0;
        for i in 0..=20 {
            let x = i as f64 * 550.0;
            let c = h.cdf_at(x);
            prop_assert!(c >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&c));
            last = c;
        }
        prop_assert!((h.cdf_at(20_000.0) - 1.0).abs() < 1e-12);
    }

    /// Every recorded value lands in exactly one time-series bucket: the
    /// bucket sums conserve the total.
    #[test]
    fn timeseries_conserves_mass(
        points in proptest::collection::vec((0u64..7_200, 0.0f64..10.0), 0..200),
    ) {
        let mut ts = TimeSeries::new(SimDuration::from_hours(1), SimDuration::from_mins(15));
        let mut total = 0.0;
        for &(secs, v) in &points {
            ts.record(SimTime::from_secs(secs), v);
            total += v;
        }
        let sum: f64 = ts.buckets().iter().sum();
        prop_assert!((sum - total).abs() < 1e-9);
    }
}
