//! The chaos gate at bench scale: `bladerunner::scenario::chaos` with
//! 2,000 devices runs the full canned fault plan (all six fault kinds)
//! and must dent availability under fault, detect crashes by heartbeat
//! alone, and converge and reconverge after the last heal. The world is
//! the one `bench --bin chaos --devices 2000` runs.
//!
//! The run keeps a full-retention hop ledger, so its peak RSS is held
//! under a ceiling too. Alone in its file, so the peak RSS it reads
//! (`VmHWM`) is its own process's.
//!
//! Run: `cargo test --release -p bench --test chaos_gate -- --ignored`.

use bench::peak_rss_bytes;
use bladerunner::scenario::chaos;

#[test]
#[ignore = "a 2k-device fleet through the whole fault plan; run in release"]
fn fleet_converges_after_every_fault_kind() {
    let (mut sim, meta) = chaos(2_000, 4, 42, 60);
    sim.run_until(meta.end);
    let m = sim.metrics();
    let report = sim.convergence_report();
    assert!(
        report.converged(),
        "chaos run did not converge: {:?}",
        report.failures()
    );
    assert!(meta.kinds.len() >= 5, "plan must cover >= 5 fault kinds");
    assert!(m.host_failures_detected.get() > 0, "no heartbeat detection");
    let [(fault_min, _), (post_min, _)] = meta.availability(m);
    println!("chaos: kinds={:?} avail_min={fault_min:.4}", meta.kinds);
    assert!(fault_min < 1.0, "faults left no dent");
    assert!(post_min > 0.999, "did not reconverge: {post_min}");
    assert_eq!(
        (
            sim.event_stats().total,
            m.deliveries.get(),
            sim.fingerprint_now()
        ),
        (888_861, 49_106, 0x5b07_a95b_2dce_51a9),
        "the world moved"
    );
    // The ledger's runs are coded in about six bytes each (~13.4 MiB
    // here; ~16.8 MiB with each run decoded, 24 bytes). The ceiling is
    // ~1.3x the reading.
    let rss = peak_rss_bytes();
    let mib = rss as f64 / (1 << 20) as f64;
    println!("chaos: peak RSS {mib:.1} MiB");
    assert!(rss > 0, "no peak RSS reading");
    assert!(rss < (175 << 20) / 10, "peak RSS {mib:.1} MiB >= 17.5 MiB");
}
