//! Calibration tests: the generators hit the paper's numbers at scale,
//! with tight statistical tolerances (these are the inputs every figure
//! depends on, so they get their own gate).

use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};
use workload::activity::DiurnalCurve;
use workload::graph::{SocialGraph, SocialGraphConfig};
use workload::tables::{AreaUpdateModel, StreamLifetimeModel};

#[test]
fn table1_mixture_tight_tolerances() {
    let model = AreaUpdateModel::new();
    let mut rng = DetRng::new(1);
    let n = 3_000_000u64;
    let mut counts = [0u64; 6];
    for _ in 0..n {
        counts[AreaUpdateModel::bucket_of(model.sample_daily_updates(&mut rng))] += 1;
    }
    let pct = |i: usize| counts[i] as f64 / n as f64 * 100.0;
    assert!((pct(0) - 83.0).abs() < 0.1, "zero bucket {}", pct(0));
    assert!((pct(1) - 16.0).abs() < 0.1, "<10 bucket {}", pct(1));
    assert!((pct(2) - 0.95).abs() < 0.02, "<100 bucket {}", pct(2));
    assert!((pct(4) - 0.049).abs() < 0.01, ">1M bucket {}", pct(4));
}

#[test]
fn table2_mixture_tight_tolerances() {
    let model = StreamLifetimeModel::new();
    let mut rng = DetRng::new(2);
    let n = 2_000_000u64;
    let mut counts = [0u64; 4];
    for _ in 0..n {
        counts[StreamLifetimeModel::bucket_of(model.sample(&mut rng))] += 1;
    }
    for (i, expect) in [45.0, 26.0, 25.0, 4.0].iter().enumerate() {
        let got = counts[i] as f64 / n as f64 * 100.0;
        assert!((got - expect).abs() < 0.15, "bucket {i}: {got} vs {expect}");
    }
}

#[test]
fn diurnal_curves_match_fig8_bands() {
    let subs = DiurnalCurve::subscriptions_per_min();
    let pubs = DiurnalCurve::publications_per_min();
    let mut p_min = f64::INFINITY;
    let mut p_max = 0.0f64;
    for m in 0..(24 * 60) {
        let t = SimTime::from_secs(m * 60);
        let v = pubs.value_at(t);
        p_min = p_min.min(v);
        p_max = p_max.max(v);
        assert!((0.5 - 1e-9..=0.75 + 1e-9).contains(&subs.value_at(t)));
    }
    assert!((p_min - 0.8).abs() < 0.01 && (p_max - 1.5).abs() < 0.01);
}

#[test]
fn graph_degree_distribution_has_power_law_tail() {
    let mut rng = DetRng::new(3);
    let mut config = SocialGraphConfig::medium();
    config.users = 10_000;
    let g = SocialGraph::generate(&config, &mut rng);
    let mut degrees: Vec<usize> = g.users.iter().map(|u| u.friends.len()).collect();
    degrees.sort_unstable();
    let median = degrees[degrees.len() / 2];
    let p999 = degrees[(degrees.len() as f64 * 0.999) as usize];
    // A Pareto tail: the 99.9th-percentile user has far more friends than
    // the median user (celebrities exist).
    assert!(
        p999 > median * 5,
        "tail p99.9 {p999} vs median {median} — no heavy tail?"
    );
}

#[test]
fn lifetimes_are_never_degenerate() {
    let model = StreamLifetimeModel::new();
    let mut rng = DetRng::new(4);
    for _ in 0..100_000 {
        let lt = model.sample(&mut rng);
        assert!(lt >= SimDuration::from_secs(5), "minimum lifetime");
        assert!(lt <= SimDuration::from_secs(7 * 86_400), "maximum lifetime");
    }
}

#[test]
fn video_viewership_and_comment_intensity_are_decoupled() {
    // §2: predicting comment rates from popularity is infeasible. Check the
    // rank-vs-intensity correlation across many videos is weak.
    let mut rng = DetRng::new(5);
    let mut config = SocialGraphConfig::medium();
    config.videos = 400;
    let g = SocialGraph::generate(&config, &mut rng);
    let n = g.videos.len() as f64;
    let mean_rank = (n - 1.0) / 2.0;
    let mean_int: f64 = g
        .videos
        .iter()
        .map(|v| v.comment_intensity.ln())
        .sum::<f64>()
        / n;
    let mut cov = 0.0;
    let mut var_r = 0.0;
    let mut var_i = 0.0;
    for v in &g.videos {
        let dr = v.index as f64 - mean_rank;
        let di = v.comment_intensity.ln() - mean_int;
        cov += dr * di;
        var_r += dr * dr;
        var_i += di * di;
    }
    let corr = cov / (var_r.sqrt() * var_i.sqrt());
    assert!(corr.abs() < 0.15, "rank/intensity correlation {corr}");
}
