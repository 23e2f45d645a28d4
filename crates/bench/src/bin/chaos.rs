//! Chaos benchmark: the canned fault plan at scale, with an availability
//! timeline, per-episode recovery times, and the post-heal convergence
//! audit as the pass/fail gate.
//!
//! Run: `cargo run --release -p bench --bin chaos [--devices N]
//! [--seed N] [--out F]`; the summary is [`bench::summary::chaos`]'s.
//!
//! The world is `bladerunner::scenario::chaos` (`--devices`, `--videos`,
//! `--seed`, `--grace`); `bench`'s `chaos_gate` test holds its 2k-device
//! run to the availability bounds. The plan covers all six fault kinds (unplanned BRASS crash, rolling
//! upgrade wave, minority + majority Pylon partitions, proxy outage,
//! device flapping, reconnect storm); everything downstream of injection
//! — heartbeat detection, stream repair, reconnect backoff, WAS backfill
//! — is the system's own behaviour. Exits non-zero if the convergence
//! checker finds a stranded stream, a stream pinned to a dead host, or an
//! unaccounted admitted update. Writes a machine-readable summary to the
//! `--out` file, or to stdout when none is named.

use bench::{emit_summary, Args};

fn main() {
    let args = Args::from_env();
    let out = args.opt::<String>("--out");
    let (summary, report) = bench::summary::chaos(&args);
    emit_summary(out.as_deref(), &summary);
    if !report.converged() {
        eprintln!("convergence FAILED:");
        for line in report.failures() {
            eprintln!("  - {line}");
        }
        std::process::exit(1);
    }
    println!("  convergence: OK");
}
