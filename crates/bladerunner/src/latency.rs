//! The hop latency model, calibrated to Table 3.
//!
//! Table 3 reports (averages, milliseconds):
//!
//! * WAS receives update request → sent to Pylon: **2,000** for
//!   LiveVideoComments (of which ~1,790 is ML ranking), **240** otherwise.
//! * Pylon receives publish → update sent to n BRASSes: **100** for
//!   streams with <10,000 subscribers (P90 160, P99 310), **109** for more.
//! * BRASS receives update → sent to devices: **76** (60 of which is the
//!   WAS query, the rest BRASS processing).
//! * Subscription request at gateway → replicated onto Pylon: **73**.
//! * Device-measured subscription latency: ~**490** average (P90 540) in
//!   NA/EU, ~**970** (P90 1,360) worldwide, dominated by the mobile
//!   network.
//!
//! All samplers are log-normal, calibrated from (median, p90) pairs.

use simkit::dist::{Distribution, LogNormal};
use simkit::rng::DetRng;
use simkit::time::SimDuration;

use crate::config::LinkClass;

/// Samples every network/backend hop latency in the simulation.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    last_mile_fast: LogNormal,
    last_mile_mobile: LogNormal,
    last_mile_slow: LogNormal,
    pop_proxy: LogNormal,
    proxy_brass: LogNormal,
    brass_was_rtt: LogNormal,
    brass_processing: LogNormal,
    pylon_fanout_small: LogNormal,
    pylon_fanout_large: LogNormal,
    pylon_late_extra: LogNormal,
    sub_replication: LogNormal,
    edge_to_was: LogNormal,
    cross_region: LogNormal,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::table3()
    }
}

impl LatencyModel {
    /// The Table 3 calibration.
    pub fn table3() -> Self {
        LatencyModel {
            // Last mile: NA/EU-style links vs typical mobile vs 2G-era.
            // Calibrated so the subscription path reproduces ~490 ms NA/EU
            // and ~970 ms worldwide averages once the backend 73 ms and
            // intermediate hops are added.
            last_mile_fast: LogNormal::from_median_p90(160.0, 230.0),
            last_mile_mobile: LogNormal::from_median_p90(380.0, 650.0),
            last_mile_slow: LogNormal::from_median_p90(900.0, 1_800.0),
            pop_proxy: LogNormal::from_median_p90(30.0, 55.0),
            proxy_brass: LogNormal::from_median_p90(5.0, 9.0),
            // "Of the 76ms, 60ms is used to query WAS and the rest is for
            // BRASS processing."
            brass_was_rtt: LogNormal::from_median_p90(60.0, 95.0),
            brass_processing: LogNormal::from_median_p90(14.0, 24.0),
            // Pylon: avg 100 ms, P90 160 ms for <10K subscribers; 109 ms
            // for larger fan-outs.
            pylon_fanout_small: LogNormal::from_median_p90(92.0, 160.0),
            pylon_fanout_large: LogNormal::from_median_p90(100.0, 175.0),
            pylon_late_extra: LogNormal::from_median_p90(40.0, 80.0),
            // Subscription replicated onto Pylon: 73 ms.
            sub_replication: LogNormal::from_median_p90(68.0, 110.0),
            // Edge proxy → WAS for update requests (Fig. 9 top: ~10-260ms).
            edge_to_was: LogNormal::from_median_p90(45.0, 120.0),
            cross_region: LogNormal::from_median_p90(80.0, 140.0),
        }
    }

    fn ms(d: &LogNormal, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_millis_f64(d.sample(rng).max(0.1))
    }

    /// Device ↔ POP latency for a link class.
    pub fn last_mile(&self, class: LinkClass, rng: &mut DetRng) -> SimDuration {
        match class {
            LinkClass::Fast => Self::ms(&self.last_mile_fast, rng),
            LinkClass::Mobile => Self::ms(&self.last_mile_mobile, rng),
            LinkClass::Slow => Self::ms(&self.last_mile_slow, rng),
        }
    }

    /// POP ↔ reverse-proxy latency.
    pub fn pop_proxy(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.pop_proxy, rng)
    }

    /// Reverse-proxy ↔ BRASS latency.
    pub fn proxy_brass(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.proxy_brass, rng)
    }

    /// BRASS → WAS → BRASS round trip for one point fetch.
    pub fn brass_was_rtt(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.brass_was_rtt, rng)
    }

    /// BRASS compute time for one event decision.
    pub fn brass_processing(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.brass_processing, rng)
    }

    /// Pylon publish-to-forward latency for a fan-out of `subscribers`.
    pub fn pylon_fanout(&self, subscribers: usize, rng: &mut DetRng) -> SimDuration {
        if subscribers < 10_000 {
            Self::ms(&self.pylon_fanout_small, rng)
        } else {
            Self::ms(&self.pylon_fanout_large, rng)
        }
    }

    /// Extra delay for straggler-replica (late) forwards.
    pub fn pylon_late_extra(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.pylon_late_extra, rng)
    }

    /// Gateway → Pylon subscription replication latency.
    pub fn sub_replication(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.sub_replication, rng)
    }

    /// Edge proxy → WAS latency for update (mutation) requests.
    pub fn edge_to_was(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.edge_to_was, rng)
    }

    /// WAS handling latency for a mutation whose mean is `mean_ms`
    /// (2,000 ms for ranked LVC, 240 ms otherwise), sampled with a
    /// proportional log-normal spread.
    pub fn was_mutation(&self, mean_ms: u64, rng: &mut DetRng) -> SimDuration {
        let median = mean_ms as f64 * 0.93;
        let d = LogNormal::from_median_p90(median, median * 1.5);
        SimDuration::from_millis_f64(d.sample(rng).max(1.0))
    }

    /// Cross-region TAO replication delay.
    pub fn cross_region(&self, rng: &mut DetRng) -> SimDuration {
        Self::ms(&self.cross_region, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_ms(f: impl Fn(&mut DetRng) -> SimDuration) -> f64 {
        let mut rng = DetRng::new(1);
        let n = 20_000;
        (0..n).map(|_| f(&mut rng).as_millis_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn pylon_fanout_calibration() {
        let m = LatencyModel::table3();
        let small = mean_ms(|r| m.pylon_fanout(100, r));
        let large = mean_ms(|r| m.pylon_fanout(50_000, r));
        assert!((small - 100.0).abs() < 10.0, "small fanout mean {small}");
        assert!((large - 109.0).abs() < 12.0, "large fanout mean {large}");
        assert!(large > small);
    }

    #[test]
    fn brass_path_calibration() {
        // WAS query (60) + processing (~15) ≈ the paper's 76 ms.
        let m = LatencyModel::table3();
        let total = mean_ms(|r| m.brass_was_rtt(r)) + mean_ms(|r| m.brass_processing(r));
        assert!((total - 76.0).abs() < 10.0, "BRASS mean {total}");
    }

    #[test]
    fn sub_replication_calibration() {
        let m = LatencyModel::table3();
        let mean = mean_ms(|r| m.sub_replication(r));
        assert!((mean - 73.0).abs() < 8.0, "sub replication mean {mean}");
    }

    #[test]
    fn was_mutation_means() {
        let m = LatencyModel::table3();
        let lvc = mean_ms(|r| m.was_mutation(2_000, r));
        let other = mean_ms(|r| m.was_mutation(240, r));
        assert!((lvc - 2_000.0).abs() < 200.0, "LVC mean {lvc}");
        assert!((other - 240.0).abs() < 25.0, "other mean {other}");
    }

    #[test]
    fn link_classes_are_ordered() {
        let m = LatencyModel::table3();
        let fast = mean_ms(|r| m.last_mile(LinkClass::Fast, r));
        let mobile = mean_ms(|r| m.last_mile(LinkClass::Mobile, r));
        let slow = mean_ms(|r| m.last_mile(LinkClass::Slow, r));
        assert!(fast < mobile && mobile < slow, "{fast} {mobile} {slow}");
    }

    #[test]
    fn samples_are_positive() {
        let m = LatencyModel::table3();
        let mut rng = DetRng::new(9);
        for _ in 0..1_000 {
            assert!(!m.pylon_fanout(1, &mut rng).is_zero());
            assert!(!m.last_mile(LinkClass::Fast, &mut rng).is_zero());
        }
    }
}
