//! The hop ledger's bytes, counted by the counting allocator: a
//! flash-crowd-shaped stream (a few dozen traces in flight at once, their
//! records interleaved, instants rising, every tenth step a storm of
//! identical drops) fed to a full ledger and to a bounded one.
//!
//! Alone in its file, and one test, so the live-byte counts are this
//! ledger's and no other thread's. Run: `cargo test -p simkit --test
//! ledger_bytes -- --nocapture`.

use simkit::alloc::{live_bytes, CountingAlloc};
use simkit::rng::DetRng;
use simkit::time::SimTime;
use simkit::trace::{DropReason, Hop, HopOutcome, Retention, TraceId, TraceLedger};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps in one trace's life: a commit, a publish, eight host deliveries,
/// then the viewers' process / send / deliver / render hops.
const STEPS: u32 = 100;

/// The hop and outcome of a trace's `step`th record, and how many
/// identical copies it comes as (a storm drops one update from hundreds of
/// viewers' buffers at one instant).
fn step(step: u32, rng: &mut DetRng) -> (Hop, HopOutcome, u32) {
    match step {
        0 => (Hop::TaoCommit, HopOutcome::Ok, 1),
        1 => (Hop::PylonPublish, HopOutcome::Ok, 1),
        2..10 => (Hop::PylonDeliver, HopOutcome::Ok, 1),
        s if s % 10 == 0 => {
            let storm = rng.range(50, 300) as u32;
            let drop = HopOutcome::Dropped(DropReason::BufferOverflow);
            (Hop::BrassProcess, drop, storm)
        }
        s => {
            let hop = [Hop::BrassSend, Hop::BurstDeliver, Hop::DeviceRender][s as usize % 3];
            (hop, HopOutcome::Ok, 1)
        }
    }
}

/// Feeds `ledger` until it has taken `records` records: each record goes
/// to one of 32 traces in flight, picked at random, and a trace that has
/// taken its [`STEPS`] is replaced by the next id.
fn feed(ledger: &mut TraceLedger, records: u64) {
    let mut rng = DetRng::new(51);
    let mut in_flight: Vec<(u64, u32)> = (0..32).map(|t| (t, 0)).collect();
    let mut next_id = in_flight.len() as u64;
    let (mut at, mut fed) = (1_000_000u64, 0);
    while fed < records {
        let slot = rng.index(in_flight.len());
        let (trace, s) = in_flight[slot];
        let (hop, outcome, n) = step(s, &mut rng);
        at += rng.below(400);
        ledger.record_n(TraceId(trace), hop, SimTime::from_micros(at), outcome, n);
        fed += u64::from(n);
        in_flight[slot] = match s + 1 {
            STEPS => {
                next_id += 1;
                (next_id - 1, 0)
            }
            next => (trace, next),
        };
    }
}

#[test]
fn a_stored_run_costs_a_few_bytes() {
    // Full retention: ~400k runs. A run decoded is 24 bytes, and a
    // growable buffer of them sits at 1–2x its length (about 30 bytes a
    // run all told); the coded store takes about 5.5, and the per-trace
    // accounting, histograms and block headers ride in the slack.
    let before = live_bytes();
    let mut full = TraceLedger::new();
    feed(&mut full, 6_400_000);
    let bytes = live_bytes() - before;
    let runs = full.runs().count();
    let per_run = bytes as f64 / runs as f64;
    println!(
        "full: {runs} runs, {} traces, {bytes} bytes, {per_run:.2} B/run",
        full.trace_count()
    );
    assert!(runs > 350_000, "{runs} runs");
    assert!(per_run <= 8.0, "{per_run:.2} live bytes per stored run");
    drop(full);

    // Bounded to 4,096 records, after a million: the store holds the
    // window, so what grows is the per-trace accounting alone. Measured
    // 143,261 bytes (an exact count for this stream); the ceiling is about
    // 1.3x that.
    let before = live_bytes();
    let mut bounded = TraceLedger::with_retention(Retention::Bounded(4_096));
    feed(&mut bounded, 1_000_000);
    let bytes = live_bytes() - before;
    println!(
        "bounded: {} runs kept, {} traces, {bytes} bytes",
        bounded.runs().count(),
        bounded.trace_count()
    );
    assert_eq!(bounded.records().count(), 4_096);
    assert!(bytes < 186_000, "{bytes} live bytes under Bounded(4_096)");
}
