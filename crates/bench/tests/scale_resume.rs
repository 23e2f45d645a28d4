//! The snapshot/resume gate at bench scale: the 2,000-device
//! `bladerunner::scenario::scale` world with a 5 s metrics tick snapshots
//! at every tick; a fresh process resumes from the sealed snapshot taken
//! at 15 s and runs to 30 s. Its per-tick fingerprint series, final
//! fingerprint, every `EventStats` bucket, and deliveries, publications
//! and subscriptions must equal the uninterrupted run's. This is the
//! deterministic-resume contract at bench scale, lazy workload driver
//! included; `crates/bladerunner/tests/snapshot.rs` holds the bit-level
//! version (tick and off-tick instants, calm and under chaos).
//!
//! The resume must happen in a fresh process because topic interning is
//! process-global: the test re-executes its own binary with
//! [`SNAPSHOT_ENV`] naming the snapshot file. Run: `cargo test --release
//! -p bench --test scale_resume -- --ignored`.

use bladerunner::config::SystemConfig;
use bladerunner::scenario::{resume_scale, scale, scale_config};
use bladerunner::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};

/// Set only in the re-executed child: the snapshot file it resumes from.
const SNAPSHOT_ENV: &str = "BR_SCALE_RESUME_SNAPSHOT";

const TEST: &str = "a_fresh_process_resumes_bit_identically";

fn config() -> SystemConfig {
    scale_config(SimDuration::from_secs(5))
}

/// Everything the resumed run must reproduce, on one line.
fn outcome(sim: &SystemSim) -> String {
    let m = sim.metrics();
    format!(
        "ticks {:?} final {:016x} {:?} deliveries {} publications {} subscriptions {}",
        sim.tick_fingerprints(),
        sim.fingerprint_now(),
        sim.event_stats(),
        m.deliveries.get(),
        m.publications.get(),
        m.subscriptions.get()
    )
}

#[test]
#[ignore = "a 2k-device fleet run twice, once in a child process; run in release"]
fn a_fresh_process_resumes_bit_identically() {
    if let Ok(path) = std::env::var(SNAPSHOT_ENV) {
        let bytes = std::fs::read(&path).expect("read the snapshot");
        let (mut sim, mut driver) = resume_scale(config(), &bytes).expect("resume");
        assert_eq!(sim.now(), SimTime::from_secs(15));
        driver.run_until(&mut sim, driver.end());
        println!("OUTCOME {}", outcome(&sim));
        return;
    }
    let (mut sim, mut driver) = scale(config(), 2_000, 4, 6, 30, 42, 1.0);
    sim.set_snapshot_policy(1);
    driver.run_until(&mut sim, driver.end());
    let (_, snapshot) = sim
        .snapshots()
        .iter()
        .find(|(t, _)| *t == SimTime::from_secs(15))
        .expect("a snapshot at the 15 s tick");
    let path = std::env::temp_dir().join(format!("scale-resume-{}.brsnap", std::process::id()));
    std::fs::write(&path, snapshot).expect("write the snapshot");
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([TEST, "--exact", "--ignored", "--nocapture"])
        .env(SNAPSHOT_ENV, &path)
        .output()
        .expect("re-exec test binary");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success(),
        "child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
    // The harness may prefix its own status on the same line, so split
    // on the marker rather than anchoring at column zero.
    let resumed = stdout
        .lines()
        .find_map(|l| l.split("OUTCOME ").nth(1))
        .unwrap_or_else(|| panic!("no outcome in child output:\n{stdout}"));
    assert_eq!(resumed, outcome(&sim), "the resumed run diverged");
    println!(
        "resume matches: final fp {:016x}, {} ticks",
        sim.fingerprint_now(),
        sim.tick_fingerprints().len()
    );
    assert_eq!(
        (
            sim.event_stats().total,
            sim.tick_fingerprints().len(),
            sim.fingerprint_now()
        ),
        (86_555, 6, 0x331e_e996_d41c_876d),
        "the world moved"
    );
}
