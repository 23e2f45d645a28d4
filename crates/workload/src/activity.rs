//! Activity processes: diurnal modulation and arrival streams.
//!
//! Fig. 8 shows every per-user Bladerunner series following a diurnal
//! pattern; [`DiurnalCurve`] reproduces that modulation. Comment arrivals
//! are Poisson; "predicting the rate at which comments for a video are
//! posted is infeasible" (§2), so the harnesses pick per-video intensities
//! at random.

use simkit::dist::{Distribution, Exponential};
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};

/// A smooth 24-hour activity curve oscillating between `min` and `max`,
/// peaking at `peak_hour`.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalCurve {
    /// Value at the daily trough.
    pub min: f64,
    /// Value at the daily peak.
    pub max: f64,
    /// Hour of day (0–24) at which the curve peaks.
    pub peak_hour: f64,
}

impl DiurnalCurve {
    /// The Fig. 8 "client subscription requests per minute per user" curve
    /// (0.5–0.75).
    pub fn subscriptions_per_min() -> Self {
        DiurnalCurve {
            min: 0.5,
            max: 0.75,
            peak_hour: 17.0,
        }
    }

    /// The Fig. 8 "Pylon publications per minute per user" curve (0.8–1.5).
    pub fn publications_per_min() -> Self {
        DiurnalCurve {
            min: 0.8,
            max: 1.5,
            peak_hour: 17.0,
        }
    }

    /// Evaluates the curve at a simulated instant (day wraps at 24 h).
    pub fn value_at(&self, t: SimTime) -> f64 {
        let hours = (t.as_secs_f64() / 3_600.0) % 24.0;
        let phase = (hours - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        let mid = (self.min + self.max) / 2.0;
        let amp = (self.max - self.min) / 2.0;
        mid + amp * phase.cos()
    }
}

/// A homogeneous Poisson arrival process.
#[derive(Clone, Debug)]
pub struct PoissonArrivals {
    gap: Exponential,
    next: SimTime,
}

impl PoissonArrivals {
    /// Creates a process with the given mean rate (events per second),
    /// starting at `start`.
    pub fn new(rate_per_sec: f64, start: SimTime, rng: &mut DetRng) -> Self {
        let gap = Exponential::new(rate_per_sec);
        let first = start + SimDuration::from_secs_f64(gap.sample(rng));
        PoissonArrivals { gap, next: first }
    }

    /// The next arrival instant.
    pub fn peek(&self) -> SimTime {
        self.next
    }

    /// Consumes and returns the next arrival, scheduling the one after.
    pub fn pop(&mut self, rng: &mut DetRng) -> SimTime {
        let t = self.next;
        self.next = t + SimDuration::from_secs_f64(self.gap.sample(rng));
        t
    }

    /// The resumable state of the process: its pending arrival instant.
    /// Together with the (configuration-derived) rate this is the whole
    /// state — the gap distribution is memoryless.
    pub fn state(&self) -> SimTime {
        self.next
    }

    /// Rebuilds a process mid-stream from [`PoissonArrivals::state`]
    /// without drawing from any RNG (unlike [`PoissonArrivals::new`],
    /// which samples the first arrival), so resuming a snapshotted run
    /// leaves the driving RNG stream exactly where the original left it.
    pub fn from_state(rate_per_sec: f64, next: SimTime) -> Self {
        PoissonArrivals {
            gap: Exponential::new(rate_per_sec),
            next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_and_troughs() {
        let c = DiurnalCurve::publications_per_min();
        let peak = c.value_at(SimTime::from_secs(17 * 3_600));
        let trough = c.value_at(SimTime::from_secs(5 * 3_600));
        assert!((peak - 1.5).abs() < 1e-9, "peak {peak}");
        assert!((trough - 0.8).abs() < 1e-9, "trough {trough}");
    }

    #[test]
    fn diurnal_wraps_across_days() {
        let c = DiurnalCurve::publications_per_min();
        let a = c.value_at(SimTime::from_secs(3 * 3_600));
        let b = c.value_at(SimTime::from_secs(27 * 3_600));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn diurnal_bounded() {
        let c = DiurnalCurve::subscriptions_per_min();
        for h in 0..48 {
            let v = c.value_at(SimTime::from_secs(h * 1_800));
            assert!(v >= c.min - 1e-9 && v <= c.max + 1e-9, "{v}");
        }
    }

    #[test]
    fn poisson_arrivals_monotone_with_correct_rate() {
        let mut rng = DetRng::new(1);
        let mut p = PoissonArrivals::new(10.0, SimTime::ZERO, &mut rng);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        loop {
            let t = p.pop(&mut rng);
            if t > SimTime::from_secs(100) {
                break;
            }
            assert!(t >= last);
            last = t;
            count += 1;
        }
        // Expect ~1000 arrivals in 100 s at 10/s.
        assert!((900..1_100).contains(&count), "count {count}");
    }
}
