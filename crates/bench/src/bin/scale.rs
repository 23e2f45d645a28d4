//! Simulator-throughput and memory benchmark: a large mixed workload (LVC
//! audiences plus per-user notification topics), reported as wall-clock
//! events/sec, peak RSS, and bytes-per-device.
//!
//! Run: `cargo run --release -p bench --bin scale [--devices N]
//! [--seconds S] [--seed N] [--metrics-secs T] [--out F]`; the summary is
//! [`bench::summary::scale`]'s.
//!
//! `--tiers 100000,300000,1000000` runs each tier in a fresh child process
//! (so every tier gets its own peak-RSS measurement) and writes one
//! combined summary with the memory curve. Summaries go to the `--out`
//! file, or to stdout when none is named.
//!
//! The counting global allocator is installed, so the summary reports
//! *live heap bytes* and allocator calls per event next to peak RSS — RSS
//! folds allocator slack and code pages into the number; live bytes is
//! what the fleet actually holds.
//!
//! The world is `bladerunner::scenario::scale`. Its workload is generated
//! lazily: arrival processes are pumped one chunk of simulated time ahead
//! of the executor, so workload memory is O(chunk) instead of O(total
//! events). Pre-building the schedule at a million devices costs more
//! than the resident fleet itself (~1.25M queued subscribes, each holding
//! a header).
//!
//! `--active-fraction F` models the paper's diurnal duty cycle (Fig. 8:
//! most devices are idle most of the time): a deterministic fraction `F`
//! of the fleet is *engaged* — streams open for the whole run — while the
//! rest are *brief visitors* who subscribe, watch for a short session,
//! cancel, and hibernate. Defaults to 1.0 (every device engaged, the
//! historical bench shape) below 500k devices and to 0.3 at fleet scale,
//! where an always-on million-stream fleet would model a workload the
//! paper says does not exist. The fraction used is recorded in the
//! summary JSON.

use bench::{die, emit_summary, Args};
use burst::json::Json;

#[global_allocator]
static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc;

/// The flags a tier's child process inherits from the `--tiers` run.
const TIER_FLAGS: [&str; 6] = [
    "--seconds",
    "--seed",
    "--videos",
    "--comments-per-video",
    "--active-fraction",
    "--metrics-secs",
];

fn main() {
    let args = Args::from_env();
    let out = args.opt::<String>("--out");
    let summary = match args.opt::<String>("--tiers") {
        Some(tiers) => run_tiers(&args, &tiers),
        None => bench::summary::scale(&args),
    };
    emit_summary(out.as_deref(), &summary);
}

/// The arguments every tier child inherits: each of [`TIER_FLAGS`] that
/// `args` (the parent's) gives a value.
fn tier_args(args: &Args) -> Result<Vec<String>, String> {
    let mut child = Vec::new();
    for key in TIER_FLAGS {
        if let Some(value) = args.parse::<String>(key)? {
            child.push(key.to_string());
            child.push(value);
        }
    }
    Ok(child)
}

/// Runs each tier in a fresh child process (its own address space, so
/// peak RSS is per-tier, not max-so-far) and returns the combined curve.
fn run_tiers(args: &Args, tiers: &str) -> Json {
    let exe = std::env::current_exe().expect("current exe");
    let inherited = tier_args(args).unwrap_or_else(|e| die(&e));
    args.finish();
    let mut bodies = Vec::new();
    for tier in tiers.split(',').filter(|t| !t.is_empty()) {
        let devices: usize = tier.trim().parse().expect("tier device count");
        let tmp = std::env::temp_dir().join(format!("scale-tier-{devices}.json"));
        let status = std::process::Command::new(&exe)
            .args(["--devices", &devices.to_string(), "--out"])
            .arg(&tmp)
            .args(&inherited)
            .status()
            .expect("spawn tier child");
        assert!(status.success(), "tier {devices} failed");
        let body = std::fs::read_to_string(&tmp).expect("read tier summary");
        let _ = std::fs::remove_file(&tmp);
        bodies.push(Json::parse(&body).expect("tier summary is JSON"));
    }
    Json::obj([
        ("bench", Json::from("scale-tiers")),
        (
            "note",
            Json::from(
                "Tiers below 500k devices default to full duty (active fraction 1.0, the \
                 historical workload shape); larger tiers default to the diurnal 0.3 (see \
                 --active-fraction). Event and delivery counts are seed-deterministic and \
                 comparable across hosts; wall-clock events/sec is not -- compare it only \
                 against a same-host run.",
            ),
        ),
        ("tiers", Json::Arr(bodies)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_children_inherit_every_workload_flag() {
        let parent = "--tiers 100,300 --videos 50 --seed 7 --out all.json --metrics-secs 5";
        let child = tier_args(&Args::new(parent.split(' ')));
        assert_eq!(
            child.unwrap().join(" "),
            "--seed 7 --videos 50 --metrics-secs 5"
        );
        // A flag without a value is an error, not a child run at the
        // default.
        let parent = "--tiers 100,300 --seconds --metrics-secs 5";
        let child = tier_args(&Args::new(parent.split(' ')));
        assert_eq!(child, Err("--seconds: missing value".to_string()));
    }

    /// A child reads every flag its parent hands it (an unread one exits
    /// 2), and so every flag `benchmark/src/port.rs` passes `scale`.
    #[test]
    fn a_tier_child_reads_every_flag_it_inherits() {
        let every: Vec<&str> = TIER_FLAGS.iter().flat_map(|&flag| [flag, "1"]).collect();
        let mut child = tier_args(&Args::new(every)).unwrap();
        child.extend(["--devices", "100", "--out", "t.json"].map(String::from));
        let child = Args::new(child);
        assert_eq!(child.opt::<String>("--out").as_deref(), Some("t.json"));
        let summary = bench::summary::scale(&child);
        assert!(summary.get("events_total").and_then(Json::as_u64) > Some(0));
    }
}
