//! Divergence-bisecting replay harness: runs two configurations of the
//! `chatter` world, binary-searches their per-tick fingerprints for the
//! first diverging metrics tick, replays that one tick from the nearest
//! common snapshot with the per-event log on, and prints the first
//! diverging event plus both trace ledgers' neighborhoods.
//!
//! Run: `cargo run --release -p bench --bin bisect [--seed S]
//! [--seed-b S2] [--horizon-secs H] [--snapshot-every T]`.
//!
//! With no overrides the two runs are two builds of the same
//! `(config, seed)` — the determinism contract says they must agree
//! at every tick, so the expected output is "no divergence" and a
//! non-zero exit means the contract broke. `--seed-b` compares two
//! different seeds (diverges immediately). The harness's own regression
//! tests (a planted event must be pinned) are in `bladerunner::replay`.

use bench::Args;
use bladerunner::config::SystemConfig;
use bladerunner::replay::{bisect, RunSpec};
use bladerunner::scenario::chatter;
use simkit::time::{SimDuration, SimTime};

fn bisect_config() -> SystemConfig {
    let mut config = SystemConfig::small();
    // A tight metrics tick: fingerprints resolve divergences to the
    // second, and snapshots land densely enough that the replayed span
    // is short.
    config.metrics_interval = SimDuration::from_secs(1);
    config.metrics_horizon = SimDuration::from_mins(5);
    config
}

fn main() {
    let args = Args::from_env();
    let seed_a: u64 = args.or("--seed", 42);
    let seed_b: u64 = args.or("--seed-b", seed_a);
    let horizon = SimTime::from_secs(args.or("--horizon-secs", 30));
    let snapshot_every: u64 = args.or("--snapshot-every", 5);
    args.finish();

    let config = bisect_config();
    let spec = |label: String, seed: u64| {
        let cfg = config.clone();
        RunSpec {
            label,
            config: cfg.clone(),
            build: Box::new(move || chatter(&cfg, seed, horizon).0),
        }
    };
    let a = spec(format!("A seed={seed_a}"), seed_a);
    let b = spec(format!("B seed={seed_b}"), seed_b);
    let report = bisect(&a, &b, horizon, snapshot_every);
    print!("{}", report.render());

    if seed_a == seed_b && report.diverged {
        // Two builds of the same (config, seed, workload) must be
        // bit-identical; a divergence here is a determinism bug.
        eprintln!("FAILED: same-seed runs diverged");
        std::process::exit(1);
    }
    if seed_a != seed_b && !report.diverged {
        eprintln!("FAILED: different seeds produced identical fingerprints");
        std::process::exit(1);
    }
}
