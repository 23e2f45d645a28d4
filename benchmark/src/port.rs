//! Port fidelity: the `lvc_fanout` and `chaos_repair` drivers are the
//! historical `scale` and `chaos` workloads, not look-alikes. Runs
//! `crates/bench`'s binaries and this package's drivers with the same
//! arguments and requires the same event totals, per-bucket `EventStats`,
//! deliveries and final state fingerprint.

use std::path::Path;
use std::process::Command;

use crate::workloads::{build_chaos, build_lvc, Fixture};

/// The number after the first `"key": ` that is followed by a digit.
fn number(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    text.match_indices(&needle).find_map(|(at, _)| {
        let digits: String = text[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    })
}

/// Runs a `crates/bench` binary from the repo root and returns the JSON
/// summary it writes.
fn original(bin: &str, args: &[&str]) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("port-{bin}.json"));
    std::fs::create_dir_all(out.parent().expect("out has a parent")).expect("create out");
    let status = Command::new("cargo")
        .args(["run", "--release", "--offline", "-q", "-p", "bench"])
        .args(["--bin", bin, "--"])
        .args(args)
        .arg("--out")
        .arg(&out)
        .current_dir(repo)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("run crates/bench {bin}: {e}"));
    assert!(status.success(), "crates/bench {bin} failed: {status}");
    std::fs::read_to_string(&out).unwrap_or_else(|e| panic!("read {}: {e}", out.display()))
}

/// Compares one ported driver, run to its end the way the original runs
/// (`scale` pumps 250 ms chunks, `chaos` makes one `run_until` call),
/// against the original's summary. The way matters: the engine's results
/// are not invariant under chunking (see README, "What the port check
/// found"). `buckets` names the summary's keys to compare.
fn compare(name: &str, summary: &str, mut fx: Fixture, chunked: bool, buckets: &[&str]) -> bool {
    if chunked {
        fx.run_to_end();
    } else {
        fx.inject(fx.end);
        fx.sim.run_until(fx.end);
    }
    let stats = fx.sim.event_stats();
    let ours = |bucket: &str| match bucket {
        "events_total" => stats.total,
        "workload" => stats.workload,
        "pylon" => stats.pylon,
        "tao" => stats.tao,
        "brass" => stats.brass,
        "transport_up" => stats.transport_up,
        "transport_down" => stats.transport_down,
        "device_churn" => stats.device_churn,
        "metrics" => stats.metrics,
        "events_faults" => stats.faults,
        "events_heartbeats" => stats.heartbeats,
        "deliveries" => fx.sim.metrics().deliveries.get(),
        other => panic!("no bucket named {other}"),
    };
    let mut ok = true;
    for bucket in buckets {
        let (theirs, ours) = (number(summary, bucket), ours(bucket));
        if theirs != Some(ours) {
            println!("{name}: {bucket} differs: crates/bench {theirs:?}, benchmark {ours}");
            ok = false;
        }
    }
    let fingerprint = format!("\"final\": \"{:016x}\"", fx.sim.fingerprint_now());
    if !summary.contains(&fingerprint) {
        println!("{name}: final state fingerprint differs (ours {fingerprint})");
        ok = false;
    }
    println!(
        "{name}: {} events, {} deliveries: {}",
        stats.total,
        ours("deliveries"),
        if ok { "identical" } else { "DIFFERENT" }
    );
    ok
}

pub fn verify() -> bool {
    let scale = original(
        "scale",
        &["--devices", "2000", "--seconds", "30", "--seed", "42"],
    );
    let lvc = compare(
        "lvc_fanout vs scale",
        &scale,
        build_lvc(42, 2_000, 30),
        true,
        &[
            "events_total",
            "workload",
            "pylon",
            "tao",
            "brass",
            "transport_up",
            "transport_down",
            "device_churn",
            "metrics",
            "deliveries",
        ],
    );
    let chaos = original("chaos", &["--devices", "2000", "--seed", "42"]);
    let repair = compare(
        "chaos_repair vs chaos",
        &chaos,
        build_chaos(42, 2_000),
        false,
        &[
            "events_total",
            "events_faults",
            "events_heartbeats",
            "deliveries",
        ],
    );
    lvc && repair
}

#[cfg(test)]
mod tests {
    #[test]
    fn ported_drivers_are_the_historical_workloads() {
        assert!(super::verify());
    }
}
