//! Snapshot/resume equivalence and fail-closed loading.
//!
//! The contract under test: running a simulation to its end and running
//! it to any instant — a metrics tick or not — snapshotting, resuming in
//! a fresh process-like world, and continuing to the same end are
//! *bit-identical* — same metrics, same hop-ledger rolling hash, same
//! per-tick fingerprint series — calm or under the canned chaos fault
//! plan. And loading is
//! fail-closed: a truncated or corrupted snapshot yields a clean error,
//! never a partially-restored world.

mod common;

use bladerunner::config::SystemConfig;
use bladerunner::fault::canned_plan;
use bladerunner::scenario::{chatter, FlashCrowd};
use bladerunner::sim::SystemSim;
use simkit::snap::Snap;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Retention;

fn cfg(retention: Retention) -> SystemConfig {
    let mut config = SystemConfig::small();
    config.metrics_interval = SimDuration::from_secs(1);
    config.metrics_horizon = SimDuration::from_mins(10);
    config.trace_retention = retention;
    config
}

/// Everything two runs must agree on to count as bit-identical.
#[derive(Debug, PartialEq)]
struct Digest {
    state_fp: u64,
    ledger_fp: u64,
    ticks: Vec<(SimTime, u64)>,
    deliveries: u64,
    publications: u64,
    subscriptions: u64,
    drops: u64,
    events_total: u64,
}

fn digest(sim: &SystemSim) -> Digest {
    let m = sim.metrics();
    Digest {
        state_fp: sim.fingerprint_now(),
        ledger_fp: sim.trace_ledger().fingerprint(),
        ticks: sim.tick_fingerprints().to_vec(),
        deliveries: m.deliveries.get(),
        publications: m.publications.get(),
        subscriptions: m.subscriptions.get(),
        drops: m.connection_drops.get(),
        events_total: sim.event_stats().total,
    }
}

/// Builds the scenario: the `chatter` comment workload, optionally with the
/// full canned chaos fault plan layered on top. Returns the sim and the
/// end instant (past the plan's heal when chaos is on).
fn build(config: &SystemConfig, seed: u64, chaos: bool) -> (SystemSim, SimTime) {
    let comment_horizon = SimTime::from_secs(40);
    let (mut sim, _video, users) = chatter(config, seed, comment_horizon);
    if !chaos {
        return (sim, SimTime::from_secs(30));
    }
    let mut plan_rng = sim.rng_mut().fork(0xFA);
    let plan = canned_plan(SimTime::from_secs(5), config, &users, &mut plan_rng);
    let end = plan.heal_time() + SimDuration::from_secs(20);
    plan.apply(&mut sim);
    (sim, end)
}

/// The tentpole proof: run-to-end vs snapshot-at-T-then-resume, calm and
/// under chaos.
fn assert_resume_bit_identical(retention: Retention, chaos: bool) {
    let config = cfg(retention);
    // Uninterrupted run, snapshotting every 7 ticks along the way.
    let (mut full, end) = build(&config, 99, chaos);
    full.set_snapshot_policy(7);
    full.run_until(end);
    let full_digest = digest(&full);

    let snaps = full.snapshots();
    assert!(
        snaps.len() >= 2,
        "expected several snapshots, got {}",
        snaps.len()
    );
    // Resume from a mid-run snapshot and run to the same end.
    let (at, bytes) = &snaps[snaps.len() / 2];
    let mut resumed = SystemSim::resume(config.clone(), bytes)
        .expect("resuming a snapshot this test just captured");
    assert_eq!(resumed.now(), *at);
    resumed.run_until(end);
    assert_eq!(
        full_digest,
        digest(&resumed),
        "resume at t={at:?} chaos={chaos} not bit-identical"
    );
}

#[test]
fn resume_bit_identical_calm() {
    assert_resume_bit_identical(Retention::Full, false);
}

#[test]
fn resume_bit_identical_calm_bounded_ledger() {
    // Bounded retention snapshots the recent-ring + rolling hash instead
    // of the full record vec; equivalence must hold there too.
    assert_resume_bit_identical(Retention::Bounded(64), false);
}

#[test]
fn resume_bit_identical_under_chaos() {
    assert_resume_bit_identical(Retention::Full, true);
}

/// Resume-anywhere: a snapshot taken between two `run_until` calls at an
/// instant that is neither a metrics tick nor round in any unit resumes
/// to the same end as a run that never stopped.
fn assert_resume_anywhere(retention: Retention, chaos: bool) {
    let config = cfg(retention);
    let (mut through, end) = build(&config, 99, chaos);
    through.run_until(end);

    let (mut stopped, _) = build(&config, 99, chaos);
    let at = SimTime::from_micros(end.as_micros() / 2 + 123_457);
    assert!(!at
        .as_micros()
        .is_multiple_of(config.metrics_interval.as_micros()));
    stopped.run_until(at);
    let mut resumed =
        SystemSim::resume(config, &stopped.snapshot()).expect("resuming a fresh snapshot");
    assert_eq!(resumed.now(), at);
    resumed.run_until(end);
    assert_eq!(
        digest(&through),
        digest(&resumed),
        "resume at t={at:?} chaos={chaos} not bit-identical"
    );
}

#[test]
fn resume_anywhere_calm() {
    assert_resume_anywhere(Retention::Full, false);
    assert_resume_anywhere(Retention::Bounded(64), false);
}

#[test]
fn resume_anywhere_under_chaos() {
    assert_resume_anywhere(Retention::Full, true);
    assert_resume_anywhere(Retention::Bounded(64), true);
}

/// The canonical bytes of a sim's metrics.
fn metrics_bytes(sim: &SystemSim) -> Vec<u8> {
    let mut w = simkit::snap::SnapWriter::new();
    sim.metrics().snap(&mut w);
    w.into_bytes()
}

/// A resumed sim's `metrics()` equal the run-through sim's, canonical byte
/// for byte, at the snapshot instant and again at the end.
fn assert_resumed_metrics_match_run_through(chaos: bool) {
    let config = cfg(Retention::Full);
    let (mut through, end) = build(&config, 99, chaos);
    let mid = SimTime::from_secs(end.as_secs() / 2);
    through.run_until(mid);
    let at_mid = metrics_bytes(&through);
    let mut resumed =
        SystemSim::resume(config, &through.snapshot()).expect("resuming a fresh snapshot");
    assert!(
        at_mid == metrics_bytes(&resumed),
        "resumed metrics differ at t={mid:?} (chaos={chaos})"
    );
    through.run_until(end);
    resumed.run_until(end);
    let at_end = metrics_bytes(&through);
    assert!(at_end != at_mid, "the second half must move the metrics");
    assert!(
        at_end == metrics_bytes(&resumed),
        "resumed metrics differ at the end (chaos={chaos})"
    );
}

#[test]
fn resumed_metrics_match_run_through_calm() {
    assert_resumed_metrics_match_run_through(false);
}

#[test]
fn resumed_metrics_match_run_through_under_chaos() {
    assert_resumed_metrics_match_run_through(true);
}

/// Satellite #4: the ledger's rolling fingerprint must not depend on
/// retention mode, even after the bounded ring has wrapped many times
/// over — it folds every record ever appended, not just the retained
/// ones.
#[test]
fn ledger_fingerprint_identical_bounded_vs_full_after_ring_wrap() {
    let seed = 7;
    let (mut full, end) = build(&cfg(Retention::Full), seed, false);
    full.run_until(end);
    // A tiny ring so the workload wraps it hundreds of times.
    let (mut bounded, _) = build(&cfg(Retention::Bounded(16)), seed, false);
    bounded.run_until(end);

    let full_records = full.trace_ledger().records().count();
    assert!(
        full_records > 16 * 10,
        "workload too small to wrap the ring ({full_records} records)"
    );
    assert_eq!(
        full.trace_ledger().fingerprint(),
        bounded.trace_ledger().fingerprint(),
        "rolling ledger hash diverged between retention modes"
    );
    // The per-tick fingerprints fold the ledger hash, so they must agree
    // too (retention is not part of the experiment definition... except
    // it is part of the config; compare the hashes directly instead).
    assert_eq!(
        full.tick_fingerprints().len(),
        bounded.tick_fingerprints().len()
    );
}

/// A small world whose snapshot is a few tens of kilobytes, for the
/// exhaustive corruption sweeps.
fn small_sealed() -> (SystemConfig, Vec<u8>) {
    let config = cfg(Retention::Full);
    let (mut sim, _video, _users) = chatter(&config, 3, SimTime::from_secs(10));
    sim.run_until(SimTime::from_secs(6));
    let sealed = sim.snapshot();
    (config, sealed)
}

/// Satellite #1a: truncation at EVERY byte boundary must yield a clean
/// error — never a panic, never a partial world.
#[test]
fn truncation_at_every_byte_fails_closed() {
    let (config, sealed) = small_sealed();
    // Sanity: the untouched bytes resume fine.
    SystemSim::resume(config.clone(), &sealed).expect("pristine snapshot resumes");
    for len in 0..sealed.len() {
        let r = SystemSim::resume(config.clone(), &sealed[..len]);
        assert!(
            r.is_err(),
            "truncation to {len}/{} bytes was accepted",
            sealed.len()
        );
    }
}

/// What became of one body byte flipped under a recomputed checksum.
#[derive(Debug, PartialEq)]
enum Flip {
    /// `resume` returned an error.
    Rejected,
    /// Loaded, and the loaded world snapshots to exactly the mutated file.
    Canonical,
    /// Loaded, but the world snapshots to something else: the decoder
    /// accepted bytes no writer produces.
    NonCanonical,
}

/// The re-sealed sweep over `small_sealed()`: `unseal`, flip one body byte,
/// `seal` again so the flip reaches a decoder instead of dying at the
/// checksum, `resume`. Every body byte has one fixed non-zero flip (RNG
/// seed `0xC1`, drawn in byte order); `positions` picks which to try.
/// Returns `(rejected, canonical)` and fails on any accepted file that is
/// not canonical. No `run_until` follows a resume: an accepted, canonical,
/// merely *different* world (a zeroed interval, say) need not quiesce.
fn reseal_sweep(positions: impl FnOnce(usize) -> Vec<usize>) -> (usize, usize) {
    let (config, sealed) = small_sealed();
    let body = simkit::snap::unseal(&sealed).expect("pristine container");
    let mut rng = simkit::rng::DetRng::new(0xC1);
    let flips: Vec<u8> = (0..body.len())
        .map(|_| (rng.below(255) + 1) as u8)
        .collect();
    let (mut rejected, mut canonical) = (0, 0);
    for pos in positions(body.len()) {
        let mut bad = body.to_vec();
        bad[pos] ^= flips[pos];
        let bad = simkit::snap::seal(bad);
        let outcome = match SystemSim::resume(config.clone(), &bad) {
            Err(_) => Flip::Rejected,
            Ok(s) if s.snapshot() == bad => Flip::Canonical,
            Ok(_) => Flip::NonCanonical,
        };
        assert_ne!(
            outcome,
            Flip::NonCanonical,
            "body byte {pos} ^{:#x} loads but re-snapshots differently",
            flips[pos]
        );
        rejected += (outcome == Flip::Rejected) as usize;
        canonical += (outcome == Flip::Canonical) as usize;
    }
    (rejected, canonical)
}

/// Single-byte corruption must yield a clean error or a canonical world,
/// never a panic or an abort: flips anywhere in the sealed file die at the
/// container checksum, and flips re-sealed past it (every byte of the
/// first 8 KiB, where the registries live, plus 4,000 random positions)
/// are either rejected by a decoder or loaded exactly.
#[test]
fn random_corruption_fails_closed() {
    let (config, sealed) = small_sealed();
    let mut rng = simkit::rng::DetRng::new(0xC0);
    for _ in 0..300 {
        let pos = rng.index(sealed.len());
        let flip = (rng.below(255) + 1) as u8; // non-zero, so the byte changes
        let mut bad = sealed.clone();
        bad[pos] ^= flip;
        let r = SystemSim::resume(config.clone(), &bad);
        assert!(r.is_err(), "corruption at byte {pos} (^{flip:#x}) accepted");
    }
    let (rejected, canonical) = reseal_sweep(|len| {
        let head = 0..len.min(8 << 10);
        head.chain((0..4_000).map(|_| rng.index(len))).collect()
    });
    assert!(rejected > 0 && canonical > 0, "{rejected} / {canonical}");
}

/// The exhaustive sweep: one flip for every body byte (~100 k resumes;
/// CI runs it in release). The snapshot bytes are pinned, so the same
/// flips hit the same fields from commit to commit and a reject count
/// below the one measured when the bytes were pinned means a validation
/// was lost. Pinned twelve times so far: 29,652 of 103,545 with the
/// one-codec layer; 26,771 of 100,185 when the queue section became the
/// queue's contents (3,360 bytes shorter here, and most of what went was
/// 384 always-checked slot lengths; the 2,052 queue bytes left reject
/// 1,216 flips); 26,963 when `resume` began checking the component
/// indices queued events carry (the queue bytes reject 1,408: the 192
/// more are the flips that used to load and then panic on an index once
/// run); and 26,972 when the ledger fingerprint became a word below
/// 2^61 − 1 (its top byte's flip is rejected) and a device id had to be
/// one the TAO issued (the 8 bytes of the last device's id, which loaded
/// as a different fleet while the ids still ascended); and 27,250 of
/// 99,771 when Fig. 7 began counting publications per topic (the
/// registries lost their topic → streams lists, and `resume` began
/// requiring every stream registered on a topic to be one the metrics
/// saw open); and 27,259 of 99,795 when each frozen device stream gained
/// its open-gap byte and each Messenger stream its retransmit phase and
/// armed tick (24 more body bytes; `check_frozen` rejects a gap byte that
/// claims gaps on a stream that accepted nothing, and restore rejects an
/// armed tick the timer table does not hold); and 27,481 of 100,155 when
/// each BRASS stream came to write its declared topics' names and the
/// watcher lists came to be keyed by topic name (360 more body bytes;
/// restore rejects a list naming a stream that does not hold its topic,
/// and a held topic no list names, so a flip in either name is caught);
/// and 27,480 of 100,147 when the engine stopped keeping a scenario's
/// stream-id counters (an empty map's 8 length bytes, all 8 rejected,
/// left the body; flipping every remaining byte by the value it had
/// before rejects exactly the other 27,473, but the flips are drawn in
/// byte order, so past that section each byte now gets another's); and
/// 27,757 of 100,435 when a device came to be written through
/// `simkit::snap` (288 more body bytes, all in the 24 device blobs: the
/// stream count and each of the 24 streams' header and body lengths
/// became 8-byte prefixes, and a flip in any byte of a length reaches past
/// the blob or leaves bytes over, so the 288 new bytes reject nearly all
/// their flips); and 24,915 of 97,027 when each stream fact came to be
/// kept once. Counted section by section against the parent: the
/// registries lost their stream → topic map (728 bytes, 660 rejects: a
/// key naming a stream the metrics never saw open was rejected, and such
/// a registration can no longer be written); the BRASS hosts lost each
/// server stream's header copy and acked seq, the host and instance topic
/// refcounts and the dedup counter (3,040 bytes, 2,285 rejects: header
/// lengths and text, refcount names and zero counts); the Fig. 7 stream
/// stats gained each row's topic tag and name (360 bytes, 90 more
/// rejects: a tag past `Some`, or a name that is no valid topic); the
/// other sections reject 13 more only because the flips are drawn in byte
/// order, so each byte past the registries now gets another's; and 25,299
/// of 97,027 when the stream table came to keep each stream's one timer
/// (no byte moved: restore now rejects a timer naming a key with no open
/// stream, so the 384 flips in the 24 LVC timers' keys, which used to
/// load as a timer holding a slot for a key no stream has, are caught);
/// and 25,073 of 95,842 when each edge peer came to be one record.
/// Counted section by section against the parent: the config's rendering
/// lost its two heartbeat fields (49 bytes, every flip rejected); the
/// proxies lost 440 bytes and 60 rejects, the POPs 696 bytes and 143
/// rejects: each stream's activity time, the counters, the proxies' load
/// and monitor maps (whose keys had to ascend), the POPs' second
/// per-device map and every monitor's interval and threshold went, and
/// restore now rejects a pool naming a peer twice and a monitor with more
/// misses than the threshold; the other sections kept their bytes and
/// reject 26 more only because the flips are drawn in byte order, so each
/// byte past the config now gets another's.
#[test]
#[ignore = "~100k resumes; run in release"]
fn every_body_byte_flip_is_rejected_or_canonical() {
    let (rejected, canonical) = reseal_sweep(|len| (0..len).collect());
    println!("re-sealed sweep: {rejected} rejected, {canonical} canonical, 0 non-canonical");
    assert!(rejected >= 25_073, "only {rejected} flips rejected");
}

/// Resuming against a different configuration must fail closed: the
/// snapshot embeds the config it was taken under. (The same comparison
/// rejects a `.brsnap` from before ISSUE 16 without a container version
/// bump: its config rendering names a shard-count field that no config
/// this build can construct has.)
#[test]
fn config_mismatch_fails_closed() {
    let (config, sealed) = small_sealed();
    let mut other = config.clone();
    other.brass_hosts += 1;
    let Err(err) = SystemSim::resume(other, &sealed) else {
        panic!("config-mismatched resume accepted");
    };
    // And the error names the problem rather than being a generic EOF.
    let msg = format!("{err}");
    assert!(
        msg.contains("config"),
        "expected a config-mismatch error, got: {msg}"
    );
}

/// The driver blob rides the snapshot byte-for-byte.
#[test]
fn driver_blob_roundtrips() {
    let config = cfg(Retention::Full);
    let (mut sim, _video, _users) = chatter(&config, 3, SimTime::from_secs(10));
    sim.set_driver_blob(vec![1, 2, 3, 250, 251, 252]);
    sim.run_until(SimTime::from_secs(4));
    let sealed = sim.snapshot();
    let resumed = SystemSim::resume(config, &sealed).expect("resume");
    assert_eq!(resumed.driver_blob(), &[1, 2, 3, 250, 251, 252]);
}

/// A comment storm on one video whose 300 viewers' ranked buffers
/// overflow: each comment is dropped from hundreds of buffers in the same
/// instant, so the full ledger holds long runs of identical drop records.
/// Stopped mid-storm, off any metrics tick.
fn flash_crowd_world() -> (SystemConfig, SystemSim) {
    let config = cfg(Retention::Full);
    let mut sim = SystemSim::new(config.clone(), 26);
    let crowd = FlashCrowd::setup(
        &mut sim,
        300,
        4,
        SimTime::from_secs(1),
        SimDuration::from_secs(2),
    );
    crowd.drive_storm(
        &mut sim,
        SimTime::from_secs(4),
        SimDuration::from_secs(8),
        20.0,
    );
    sim.run_until(SimTime::from_micros(9_123_457));
    (config, sim)
}

/// Cross-commit pin of a world where drop records fold: the snapshot bytes
/// mid-storm and both fingerprints at the end. The snapshot writes every
/// record expanded, and the fingerprint folds a run in closed form to the
/// value its records give one by one; these literals were re-captured when
/// the ledger fingerprint became a polynomial hash, with the snapshot body
/// moving only in the ledger's fingerprint word and the per-tick series;
/// the snapshot's again when the registries stopped writing their topic →
/// streams lists (the body lost exactly those bytes; the fingerprints
/// did not move), when each frozen device stream gained its open-gap
/// byte (the fingerprints did not move), and when every BRASS app came to
/// write one stream table (only LVC's in-flight fetches moved: each names
/// its stream before its kind), and when the stream table came to write
/// each stream's topics and list its watchers by topic name (only the LVC
/// app sections moved; the fingerprints did not), and when the engine
/// stopped keeping a scenario's stream-id counters (the body lost exactly
/// that empty map's 8 bytes; the fingerprints did not move), and when a
/// device came to be written through `simkit::snap` (only the device
/// blobs moved, each 4 bytes longer plus 8 per stream; the fingerprints
/// did not move), and when each stream fact came to be kept once (BRASS
/// server streams lost their header copy and acked seq, the host and its
/// instances their topic refcounts and the dedup counter, the registries
/// their stream → topic map, and each stream stats row gained its
/// registered topic's name; the fingerprints did not move), and when
/// each edge peer came to be one record (the config's rendering lost its
/// two heartbeat fields, 49 bytes; the proxies lost each stream's
/// activity time, the GC counters, the per-host load and monitor maps
/// and the monitors' interval and threshold; the POPs the same per
/// stream and per device, and their counters; no other section moved,
/// and the fingerprints did not).
/// A resume folds the records into the same runs, and the full ledger's
/// record count is what `simkit.trace.records` derives from the hop
/// histograms: one per trace plus one per histogram sample.
#[test]
fn flash_crowd_drop_runs_are_pinned() {
    let (config, mut sim) = flash_crowd_world();
    let sealed = sim.snapshot();
    assert_eq!(simkit::snap::fnv64(&sealed), 0xbd3d_e838_e0ad_ea65);
    let ledger = sim.trace_ledger();
    let records = ledger.records().count();
    assert_eq!(records, 19_733);
    let runs = ledger.runs().count();
    assert!(runs * 4 < records, "{records} records in {runs} runs");
    let resumed = SystemSim::resume(config, &sealed).expect("resuming a fresh snapshot");
    assert!(resumed.trace_ledger() == ledger, "restore changed the runs");
    assert!(resumed.snapshot() == sealed, "restore is not canonical");

    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.fingerprint_now(), 0x1968_08c8_8a43_a8f3);
    let ledger = sim.trace_ledger();
    assert_eq!(ledger.fingerprint(), 0x1e28_3126_6b85_a85d);
    assert!(ledger.unaccounted().is_empty());
    let samples: u64 = ledger.hop_summaries().iter().map(|(_, s)| s.count).sum();
    assert_eq!(
        ledger.records().count() as u64,
        ledger.trace_count() as u64 + samples
    );
}

/// Cross-commit pin of the snapshot *bytes*: FNV-64 of the sealed file
/// for worlds that between them hold every app's state, every event
/// family and both ledger retentions. A PR that claims the encoding did
/// not move leaves these literals alone; a sort-order or field-order slip
/// in any one type's codec fails here by name. Last re-captured when every
/// BRASS app came to write one stream table (streams, watcher lists,
/// in-flight requests, timers, timer counter), the bytes moving only
/// inside the app sections of the seven-app world; and that world's again
/// when a resubscribe of a live key came to release the replaced stream's
/// topic references and timers (its run resubscribes live likes, typing,
/// messenger and active-status keys); and all five when the stream table
/// came to write each stream's declared topics and list its watchers by
/// topic name, the bytes moving only inside the app sections, save the
/// seven-app world's host `dedup_subscribes` words: a live-key resubscribe
/// keeps its topic instead of subscribing and unsubscribing it; and all
/// five when the engine stopped keeping a scenario's stream-id counters,
/// each body losing exactly that empty map's 8 bytes; and all five when a
/// device came to be written through `simkit::snap`, the bytes moving
/// only inside the device blobs: 8-byte length prefixes for the stream
/// list (4 bytes more per device), each stream's header and body (8 more
/// per stream) and an open-gap list (8 more per stream with gaps), and a
/// terminated stream's reason in a byte of its own (1 more per
/// terminated stream; these worlds hold none); and all five when each
/// stream fact came to be kept once, the bytes moving only in four
/// sections: the BRASS host (no host-wide topic refcounts or
/// `dedup_subscribes` word) and each instance (no topic refcounts: the
/// stream table's watcher lists are the record of interest), each
/// `ServerStream` (no header copy, no acked seq), the registries (no
/// stream → topic map) and the Fig. 7 stream stats (each row names the
/// topic its stream is registered on, or none); and the seven-app world's
/// when the stream table came to keep each stream's one timer, the bytes
/// moving only in nine app sections (likes, notifications, messenger and
/// active status: no `timer_armed` byte or `armed` token per stream, no
/// timer entry naming a closed stream) and the event queue (one timer
/// event fewer: a closed stream's chain no longer re-arms on the stream
/// that reopened its key); and all five when each edge peer came to be
/// one record, the bytes moving only in three sections: the config's
/// rendering (no heartbeat interval or miss fields, 49 bytes), the
/// proxies (one pool entry per host, no load or monitor maps, counters,
/// or per-stream activity time) and the POPs (one entry per device, no
/// counters, no per-stream activity time).
#[test]
fn snapshot_bytes_are_pinned() {
    let mid = |end: SimTime| SimTime::from_micros(end.as_micros() / 2 + 123_457);
    let mut got: Vec<(String, u64)> = Vec::new();
    for retention in [Retention::Full, Retention::Bounded(64)] {
        let (mut lvc, end) = common::lvc_setup(42, retention);
        lvc.run_until(mid(end));
        got.push((
            format!("lvc 42 {retention:?}"),
            simkit::snap::fnv64(&lvc.snapshot()),
        ));
        let (mut chaos, end, _plan) = common::chaos_setup(common::chaos_config(retention), 1234);
        chaos.run_until(mid(end));
        got.push((
            format!("chaos 1234 {retention:?}"),
            simkit::snap::fnv64(&chaos.snapshot()),
        ));
    }
    let seven = common::seven_app_overload_world(true);
    let m = seven.metrics();
    let timed = |app| m.app_latencies(app).is_some();
    assert!(
        brass::AppId::ALL.into_iter().all(timed),
        "every app saw traffic"
    );
    assert!(!seven.host_is_up(1) && !seven.proxy_is_up(0), "mid-fault");
    assert!(m.mailbox_sheds.get() > 0 && m.flow_sheds.get() > 0);
    let sealed = seven.snapshot();
    let resumed = SystemSim::resume(seven.config().clone(), &sealed)
        .expect("the seven-app world resumes mid-fault");
    assert!(resumed.snapshot() == sealed, "restore is not canonical");
    got.push((
        "seven apps, overload".to_owned(),
        simkit::snap::fnv64(&sealed),
    ));
    let pinned: [(&str, u64); 5] = [
        ("lvc 42 Full", 0xec61_27b5_699a_ed13),
        ("chaos 1234 Full", 0xcdbf_8122_f973_4572),
        ("lvc 42 Bounded(64)", 0x4929_1cce_855b_cb17),
        ("chaos 1234 Bounded(64)", 0x275c_22ed_bceb_65ae),
        ("seven apps, overload", 0xf84d_e77d_108b_2914),
    ];
    // All five at once: a PR that re-pins needs every new value.
    let moved: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((name, fp), (want_name, want))| name != want_name || fp != want)
        .map(|((name, fp), _)| format!("{name}: got {fp:#018x}"))
        .collect();
    assert!(moved.is_empty(), "snapshot bytes moved: {moved:#?}");
}
