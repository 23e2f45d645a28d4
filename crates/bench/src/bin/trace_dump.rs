//! trace-dump: hop-by-hop accounting for the update pipeline.
//!
//! Runs a seeded LiveVideoComments scenario and prints the trace ledger's
//! view of it: per-hop latency summaries, the drop attribution table
//! (which hop killed an update, and why), and full hop chains — for the N
//! slowest deliveries by default, or for one specific trace id.
//!
//! Run: `cargo run --release -p bench --bin trace-dump -- \
//!         [--seed S] [--secs T] [--slowest N] [--trace ID]`

use bench::{print_table, Args};
use bladerunner::config::SystemConfig;
use bladerunner::scenario::LiveVideo;
use bladerunner::sim::SystemSim;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceId;

fn main() {
    let args = Args::from_env();
    let seed: u64 = args.or("--seed", 9);
    let secs: u64 = args.or("--secs", 120);
    let slowest: usize = args.or("--slowest", 10);
    let trace: u64 = args.or("--trace", u64::MAX);
    args.finish();

    let mut sim = SystemSim::new(SystemConfig::small(), seed);
    let lv = LiveVideo::setup(&mut sim, 10, 5, SimTime::ZERO);
    // Stop posting well before the horizon so every buffered comment is
    // pushed or expired by the end — no trace is left in flight.
    let posting = secs.saturating_sub(30).max(1);
    lv.drive_comments(
        &mut sim,
        SimTime::from_secs(5),
        SimDuration::from_secs(posting),
        0.8,
    );
    sim.run_until(SimTime::from_secs(secs));

    let ledger = sim.trace_ledger();

    let hop_rows: Vec<Vec<String>> = ledger
        .hop_summaries()
        .iter()
        .map(|(hop, s)| {
            vec![
                hop.name().to_string(),
                format!("{}", s.count),
                format!("{:.1}", s.mean),
                format!("{:.1}", s.p50),
                format!("{:.1}", s.p95),
                format!("{:.1}", s.p99),
                format!("{:.1}", s.max),
            ]
        })
        .collect();
    print_table(
        "per-hop latency since previous hop (ms)",
        &["hop", "n", "mean", "p50", "p95", "p99", "max"],
        &hop_rows,
    );

    let drop_rows: Vec<Vec<String>> = ledger
        .drop_table()
        .iter()
        .map(|(hop, reason, n)| {
            vec![
                hop.name().to_string(),
                reason.name().to_string(),
                n.to_string(),
            ]
        })
        .collect();
    print_table("drop attribution", &["hop", "reason", "count"], &drop_rows);

    let delivered = ledger.delivered_count();
    let unaccounted = ledger.unaccounted().len();
    println!(
        "\n{} traces: {} device deliveries, {} drop records, {} traces in flight at the horizon",
        ledger.trace_count(),
        delivered,
        ledger.total_drops(),
        unaccounted
    );

    if trace != u64::MAX {
        println!("\n== chain for trace {trace} ==");
        print!("{}", ledger.format_chain(TraceId(trace)));
        return;
    }

    println!("\n== {slowest} slowest deliveries ==");
    for (t, e2e) in ledger.slowest(slowest) {
        println!("-- {:.1} ms end to end --", e2e.as_millis_f64());
        print!("{}", ledger.format_chain(t));
    }
}
