//! Deterministic fault-plan fuzzing: seeded generation, invariant
//! oracles, and automatic shrinking.
//!
//! PR 3 gave us declarative chaos but only ever ran one hand-written
//! [`crate::fault::canned_plan`]; the failure space we had actually
//! searched was a single point. This module turns the simulator into a
//! FoundationDB-style deterministic fuzzer:
//!
//! 1. **generate** — [`gen_case`] derives a complete [`FuzzCase`] from a
//!    seed: a random [`FaultPlan`] (all six [`FaultKind`]s, overlapping
//!    episodes, randomized hosts / nodes / durations / staggers),
//!    randomized overload knobs, and a scenario mix;
//! 2. **run** — [`run_case`] materializes the world (a pure function of
//!    the case, so every run is exactly replayable) and drives it past
//!    the plan's heal plus a grace window;
//! 3. **check** — an oracle suite extracted from the scattered test
//!    asserts: convergence + accounting (the [`ConvergenceReport`]
//!    violations), heartbeat sanity, per-stream delivery order, and a
//!    same-process re-run fingerprint cross-check;
//! 4. **shrink** — on violation, [`shrink`] delta-debugs the case (drop
//!    episodes, halve durations and fan-outs, strip overload knobs,
//!    shrink the device count), re-running deterministically and keeping
//!    only candidates that re-fire the *same* oracle;
//! 5. **persist** — [`encode_artifact`] seals the minimized case into a
//!    `.brfuzz` file that `bench --bin fuzz --repro` re-triggers exactly
//!    and `bench --bin bisect`-style tooling can localize.
//!
//! [`ConvergenceReport`]: crate::fault::ConvergenceReport

use std::collections::HashMap;

use simkit::rng::DetRng;
use simkit::snap::{seal, unseal, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Hop, Retention};
use simkit::{snap_enum, snap_struct};

use crate::config::SystemConfig;
use crate::fault::{FaultKind, FaultPlan, OracleId, Violation};
use crate::scenario;
use crate::sim::SystemSim;

/// Post-heal settling time before the oracles audit the world. Generous
/// enough to cover the worst repair chain the generator can produce: a
/// subscribe issued the instant a majority partition starts retries on
/// the capped 30s backoff and still lands well inside the window.
pub const GRACE: SimDuration = SimDuration::from_secs(90);

/// Minimum activity horizon: even a plan whose episodes heal instantly
/// gets this much driven workload, so the oracles never audit an empty
/// run.
const MIN_ACTIVITY: SimDuration = SimDuration::from_secs(60);

/// Which canned workload the case drives while the plan fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioMix {
    /// One live video, steady Poisson comments (the PR 3 chaos shape).
    LiveVideo,
    /// A celebrity-goes-live surge: everyone piles onto one hot topic.
    FlashCrowd,
    /// A diurnal-lite population: mixed app subscribes and mutations
    /// over a social graph (a bounded cut of the PR 4 day driver).
    Diurnal,
}

impl ScenarioMix {
    /// Stable label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioMix::LiveVideo => "live_video",
            ScenarioMix::FlashCrowd => "flash_crowd",
            ScenarioMix::Diurnal => "diurnal",
        }
    }
}

snap_enum!(ScenarioMix { 0 => LiveVideo, 1 => FlashCrowd, 2 => Diurnal });

/// One fully-specified fuzz input. The world a case materializes is a
/// pure function of this struct: artifacts serialize the whole case, so
/// a repro run rebuilds byte-identical state with no reference to the
/// generator that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// Master seed: fixes the sim RNG, the scenario's arrivals, and (at
    /// generation time) every plan parameter.
    pub seed: u64,
    /// Fleet size the scenario builds.
    pub devices: u32,
    /// Which workload runs under the plan.
    pub scenario: ScenarioMix,
    /// `SystemConfig::brass_service_us` override (0 = overload model off).
    pub service_us: u64,
    /// `SystemConfig::brass_mailbox_capacity` override (0 = unbounded).
    pub mailbox_capacity: u64,
    /// `SystemConfig::egress_window_bytes` override (0 = no flow control).
    pub egress_window: u64,
    /// The fault schedule.
    pub plan: FaultPlan,
}

impl FuzzCase {
    /// The system shape every fuzz case runs under: a small-preset world
    /// widened to six hosts / three proxies (so plans have targets worth
    /// randomizing), tight metrics ticks (so the determinism cross-check
    /// and bisect handoff get a dense fingerprint series), and full trace
    /// retention (the accounting and order oracles read the ledger).
    pub fn config(&self) -> SystemConfig {
        let mut config = SystemConfig::small();
        config.brass_hosts = 6;
        config.proxies = 3;
        config.metrics_interval = SimDuration::from_secs(2);
        config.metrics_horizon = SimDuration::from_mins(20);
        config.trace_retention = Retention::Full;
        config.brass_service_us = self.service_us;
        config.brass_mailbox_capacity = self.mailbox_capacity;
        config.egress_window_bytes = self.egress_window;
        config
    }

    /// When driven workload stops: past the plan's heal, never less than
    /// the minimum activity horizon.
    pub fn activity_end(&self) -> SimTime {
        self.plan.heal_time().max(SimTime::ZERO + MIN_ACTIVITY)
    }

    /// When the run ends and the oracles audit: activity end plus grace.
    pub fn end(&self) -> SimTime {
        self.activity_end() + GRACE
    }
}

snap_struct!(FuzzCase {
    seed,
    devices,
    scenario,
    service_us,
    mailbox_capacity,
    egress_window,
    plan
});

// ----------------------------------------------------------------------
// World construction.
// ----------------------------------------------------------------------

/// Builds the case's world: config, population, and (when `drive` is
/// set) the scenario's workload up to [`FuzzCase::activity_end`], from
/// the catalog's fuzz mixes. Returns the sim and the fleet's device ids,
/// sorted. Device ids depend only on (seed, devices, scenario) — never on
/// the plan or knobs — so the generator can probe them with an empty plan
/// and the shrinker can retarget a shrunken fleet.
fn build_world(case: &FuzzCase, config: SystemConfig, drive: bool) -> (SystemSim, Vec<u64>) {
    let mut sim = SystemSim::new(config, case.seed);
    let until = drive.then(|| case.activity_end());
    let n = case.devices.max(4) as usize;
    let mut ids = match case.scenario {
        ScenarioMix::LiveVideo => scenario::live_video_mix(&mut sim, n, until),
        ScenarioMix::FlashCrowd => scenario::flash_crowd_mix(&mut sim, n, until),
        ScenarioMix::Diurnal => scenario::diurnal_lite(&mut sim, case.seed, n, until),
    };
    ids.sort_unstable();
    (sim, ids)
}

/// Materializes a case into a runnable world: scenario plus fault plan.
/// Pure in the case — two calls build bit-identical worlds.
pub fn materialize(case: &FuzzCase) -> (SystemSim, Vec<u64>) {
    materialize_with(case, case.config())
}

/// [`materialize`] on `config` rather than the case's own, for a caller
/// that varies what the case does not fix (whether devices hibernate).
pub fn materialize_with(case: &FuzzCase, config: SystemConfig) -> (SystemSim, Vec<u64>) {
    let (mut sim, ids) = build_world(case, config, true);
    case.plan.apply(&mut sim);
    (sim, ids)
}

/// The device ids a case's scenario will create, without driving any
/// workload (cheap: population setup only).
pub fn probe_device_ids(case: &FuzzCase) -> Vec<u64> {
    build_world(case, case.config(), false).1
}

// ----------------------------------------------------------------------
// Generation.
// ----------------------------------------------------------------------

/// Derives the complete fuzz case for a seed: scenario mix, overload
/// knobs, and a 1–6 episode fault plan over the scenario's real device
/// ids. Same seed, same case — byte for byte.
pub fn gen_case(seed: u64, devices: u32) -> FuzzCase {
    let mut rng = DetRng::new(seed).fork(0xF2);
    let scenario = match rng.below(10) {
        0..=4 => ScenarioMix::LiveVideo,
        5..=7 => ScenarioMix::FlashCrowd,
        _ => ScenarioMix::Diurnal,
    };
    // Half the seeds run with the overload model off; the other half
    // draw each knob independently so overload composes with faults.
    let (service_us, mailbox_capacity, egress_window) = if rng.chance(0.5) {
        (0, 0, 0)
    } else {
        let service = if rng.chance(0.7) {
            2_000 + rng.below(10_001)
        } else {
            0
        };
        let mailbox = if rng.chance(0.5) {
            64 + rng.below(257)
        } else {
            0
        };
        let egress = if rng.chance(0.5) {
            256 + rng.below(513)
        } else {
            0
        };
        (service, mailbox, egress)
    };
    let mut case = FuzzCase {
        seed,
        devices,
        scenario,
        service_us,
        mailbox_capacity,
        egress_window,
        plan: FaultPlan::new(),
    };
    let ids = probe_device_ids(&case);
    case.plan = gen_plan(&mut rng, &case.config(), &ids);
    debug_assert_eq!(
        case.plan.validate(&case.config(), case.end()),
        Ok(()),
        "generator produced an invalid plan"
    );
    case
}

/// Random subset of a pool: shuffled, truncated to `1..=len/denom`,
/// sorted (plans are canonical-ordered data).
fn subset(rng: &mut DetRng, pool: &[u64], denom: usize) -> Vec<u64> {
    let mut p = pool.to_vec();
    rng.shuffle(&mut p);
    let cap = (p.len() / denom).max(1);
    p.truncate(1 + rng.index(cap));
    p.sort_unstable();
    p
}

/// Generates a random plan: 1–6 episodes with uniformly-drawn kinds,
/// overlapping start times in `[10s, 200s)`, and parameters scaled to
/// the config shape.
fn gen_plan(rng: &mut DetRng, config: &SystemConfig, devices: &[u64]) -> FaultPlan {
    let hosts = config.brass_hosts as usize;
    let proxies = config.proxies as usize;
    let nodes: Vec<u64> = (0..config.pylon.kv_nodes as u64).collect();
    let s = SimDuration::from_secs;
    let mut plan = FaultPlan::new();
    let episodes = 1 + rng.below(6);
    for _ in 0..episodes {
        let at = SimTime::from_secs(10 + rng.below(190));
        let kind = match rng.below(6) {
            0 => FaultKind::BrassCrash {
                host: rng.index(hosts),
                down: s(5 + rng.below(26)),
            },
            1 => {
                let mut wave: Vec<usize> = (0..hosts).collect();
                rng.shuffle(&mut wave);
                wave.truncate(1 + rng.index((hosts / 2).max(1)));
                wave.sort_unstable();
                FaultKind::BrassUpgradeWave {
                    hosts: wave,
                    stagger: s(2 + rng.below(7)),
                    down: s(5 + rng.below(11)),
                }
            }
            2 => {
                // Up to a ~5/6 cut: majority partitions (failed subscribe
                // quorums) are in scope, a full blackout is not.
                let mut cut = subset(rng, &nodes, 1);
                cut.truncate(nodes.len() - 1);
                FaultKind::PylonPartition {
                    nodes: cut,
                    down: s(5 + rng.below(21)),
                }
            }
            3 => FaultKind::ProxyOutage {
                proxy: rng.index(proxies),
                down: s(5 + rng.below(21)),
            },
            4 => FaultKind::DeviceFlap {
                devices: subset(rng, devices, 4),
                flaps: 1 + rng.below(3) as u32,
                gap: s(5 + rng.below(8)),
            },
            _ => FaultKind::ReconnectStorm {
                devices: subset(rng, devices, 3),
            },
        };
        plan = plan.with(at, kind);
    }
    plan
}

// ----------------------------------------------------------------------
// Running and oracles.
// ----------------------------------------------------------------------

/// Knobs for a single [`run_case`] evaluation.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Runs the case a second time for the determinism cross-check.
    pub rerun: bool,
    /// Enables the test-only planted oracle (shrinker self-test).
    pub planted: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            rerun: true,
            planted: false,
        }
    }
}

/// What one case run produced.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// Every oracle breach, most fundamental first.
    pub violations: Vec<Violation>,
    /// End-of-run state fingerprint (the bisect handoff anchor).
    pub fingerprint: u64,
    /// When the run ended.
    pub end: SimTime,
    /// Updates rendered on devices.
    pub deliveries: u64,
    /// Total simulator events processed.
    pub events: u64,
}

/// Re-runs a case and renders the full hop chain of each unaccounted
/// trace — the debugging companion to an [`OracleId::Accounting`]
/// violation, showing exactly where each lost update's trail goes cold.
pub fn explain_unaccounted(case: &FuzzCase, cap: usize) -> Vec<String> {
    let (mut sim, _ids) = materialize(case);
    sim.run_until(case.end());
    let ledger = sim.trace_ledger();
    let mut out = Vec::new();
    for trace in ledger.unaccounted() {
        if out.len() >= cap {
            break;
        }
        let hops = ledger
            .chain(trace)
            .iter()
            .map(|r| format!("{:?}@{}us {:?}", r.hop, r.at.as_micros(), r.outcome))
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push(format!("trace {}: {hops}", trace.0));
    }
    out
}

/// Runs a case to its end and evaluates the oracle suite.
pub fn run_case(case: &FuzzCase, opts: &RunOptions) -> CaseReport {
    let (mut sim, ids) = materialize(case);
    let end = case.end();
    sim.run_until(end);

    let mut violations = sim.convergence_report().violations;
    violations.extend(heartbeat_oracle(&sim, case));
    violations.extend(delivery_order_oracle(&sim, &ids));
    if opts.rerun {
        violations.extend(determinism_oracle(&sim, case));
    }
    if opts.planted {
        violations.extend(planted_oracle(case));
    }
    CaseReport {
        violations,
        fingerprint: sim.fingerprint_now(),
        end,
        deliveries: sim.metrics().deliveries.get(),
        events: sim.event_stats().total,
    }
}

/// Heartbeat sanity: host-death detection exists to catch *unannounced*
/// crashes. Upgrades are signalled, partitions and outages do not kill
/// hosts, and (since the PR 6 starvation fix) pure overload must never
/// starve pongs — so a plan with no [`FaultKind::BrassCrash`] episode
/// must see zero detections.
fn heartbeat_oracle(sim: &SystemSim, case: &FuzzCase) -> Vec<Violation> {
    let planned_crashes = case
        .plan
        .episodes
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::BrassCrash { .. }))
        .count();
    let detected = sim.metrics().host_failures_detected.get();
    if planned_crashes == 0 && detected > 0 {
        return vec![Violation::new(
            OracleId::HeartbeatSanity,
            "hosts",
            format!("{detected} host-death detection(s) with no crash in the plan"),
        )];
    }
    Vec::new()
}

/// Per-device delivery order, audited two ways:
///
/// * **ledger causality** — every admitted trace has a `TaoCommit`
///   record and no hop timestamped before it. Ledger append order is
///   execution order, but timestamps along a chain are still not
///   monotone in it: hops like `BrassSend` are stamped with future
///   completion times, so a fan-out trace's branches legally interleave.
///   A hop *preceding its own commit* can never be legal;
/// * **client double-entry** — on a stream that never restarted its
///   sequence expectations (`resubscribes() == 0 && resyncs() == 0`),
///   every sequence below `expected_seq` was delivered once, is an open
///   gap, or was forgotten from a full gap list:
///   `delivered + open_gap_seqs + evicted_gap_seqs == expected_seq`. The
///   FIFO bug class — reordered frames silently dropped by the stale-seq
///   dedupe — lands exactly here.
fn delivery_order_oracle(sim: &SystemSim, ids: &[u64]) -> Vec<Violation> {
    const CAP: usize = 8;
    let mut violations = Vec::new();

    // Ledger causality (full retention: every record is here). One pass
    // collects each trace's commit time and earliest hop time; neither
    // cares how often a record repeats, so the pass reads runs.
    let ledger = sim.trace_ledger();
    let mut traces: HashMap<u64, (Option<SimTime>, SimTime)> = HashMap::new();
    for (rec, _) in ledger.runs() {
        let entry = traces.entry(rec.trace_id.0).or_insert((None, rec.at));
        if matches!(rec.hop, Hop::TaoCommit) && entry.0.is_none() {
            entry.0 = Some(rec.at);
        }
        entry.1 = entry.1.min(rec.at);
    }
    let mut trace_ids: Vec<u64> = traces.keys().copied().collect();
    trace_ids.sort_unstable();
    for id in trace_ids {
        if violations.len() >= CAP {
            break;
        }
        let (commit, earliest) = traces[&id];
        match commit {
            None => violations.push(Violation::new(
                OracleId::DeliveryOrder,
                format!("trace {id}"),
                "hops recorded with no TaoCommit".to_string(),
            )),
            Some(commit_at) if earliest < commit_at => violations.push(Violation::new(
                OracleId::DeliveryOrder,
                format!("trace {id}"),
                format!(
                    "hop at {}us precedes its commit at {}us",
                    earliest.as_micros(),
                    commit_at.as_micros()
                ),
            )),
            Some(_) => {}
        }
    }

    // Client-side double entry, per stream: resubscribes and
    // intermediary-signalled recoveries both restart a stream's sequence
    // expectations (and both are counted on the stream itself), so the
    // strict invariant binds exactly on streams with neither.
    'devices: for &id in ids {
        let Some(device) = sim.device(id) else {
            continue;
        };
        for sid in device.open_sids() {
            let Some(stream) = device.stream(sid) else {
                continue;
            };
            if stream.resubscribes() > 0 || stream.resyncs() > 0 {
                continue;
            }
            let (delivered, expected) = (stream.delivered(), stream.expected_seq());
            let (open, evicted) = (stream.open_gap_seqs(), stream.evicted_gap_seqs());
            if delivered + open + evicted != expected {
                violations.push(Violation::new(
                    OracleId::DeliveryOrder,
                    format!("device {id} sid {}", sid.0),
                    format!(
                        "delivered {delivered} + open {open} + evicted {evicted} vs expected_seq {expected} (gaps {})",
                        stream.gaps(),
                    ),
                ));
                if violations.len() >= CAP {
                    break 'devices;
                }
            }
        }
    }
    violations
}

/// Re-run equivalence: re-materializes the same case in this process and
/// runs it again — in uneven, case-derived `run_until` chunks where the
/// reference ran in one call — comparing the per-tick fingerprint series,
/// the final state fingerprint, and the ledger's rolling hash. The second
/// materialization interns its topics after the first run's, so any
/// difference is state leaking in from outside `(config, seed, plan)` —
/// intern order, a process-global, hash-map iteration order, or where the
/// caller happened to slice time.
fn determinism_oracle(reference: &SystemSim, case: &FuzzCase) -> Vec<Violation> {
    let (mut other, _ids) = materialize(case);
    // Strides from 1 µs to ~16 s, log-uniform, so boundaries land before,
    // on and after metrics ticks and inside same-instant event bursts.
    let mut strides = DetRng::new(case.seed).fork(0xC4);
    let end = case.end();
    let mut now = SimTime::ZERO;
    while now < end {
        let span = 1u64 << strides.below(25);
        let stride = 1 + strides.below(span);
        now = (now + SimDuration::from_micros(stride)).min(end);
        other.run_until(now);
    }

    let mut violations = Vec::new();
    let (a, b) = (reference.tick_fingerprints(), other.tick_fingerprints());
    let diverged_tick = a
        .iter()
        .zip(b.iter())
        .find(|((ta, fa), (tb, fb))| ta != tb || fa != fb)
        .map(|((t, _), _)| *t);
    if let Some(t) = diverged_tick {
        violations.push(Violation::new(
            OracleId::Determinism,
            format!("tick {}us", t.as_micros()),
            "fingerprint series diverges between run and re-run",
        ));
    } else if a.len() != b.len() {
        violations.push(Violation::new(
            OracleId::Determinism,
            "ticks",
            format!("{} ticks on the run vs {} on the re-run", a.len(), b.len()),
        ));
    }
    if reference.fingerprint_now() != other.fingerprint_now() {
        violations.push(Violation::new(
            OracleId::Determinism,
            "state",
            format!(
                "final fingerprint {:016x} (run) vs {:016x} (re-run)",
                reference.fingerprint_now(),
                other.fingerprint_now()
            ),
        ));
    }
    if reference.trace_ledger().fingerprint() != other.trace_ledger().fingerprint() {
        violations.push(Violation::new(
            OracleId::Determinism,
            "ledger",
            "ledger rolling hash diverges between run and re-run",
        ));
    }
    violations
}

/// Test-only oracle for the shrinker self-test: "fires" when the plan
/// contains both a proxy outage and a reconnect storm, so the minimal
/// violating plan is exactly two episodes.
fn planted_oracle(case: &FuzzCase) -> Vec<Violation> {
    let has_outage = case
        .plan
        .episodes
        .iter()
        .any(|e| matches!(e.kind, FaultKind::ProxyOutage { .. }));
    let has_storm = case
        .plan
        .episodes
        .iter()
        .any(|e| matches!(e.kind, FaultKind::ReconnectStorm { .. }));
    if has_outage && has_storm {
        return vec![Violation::new(
            OracleId::Planted,
            "plan",
            "contains a proxy outage and a reconnect storm",
        )];
    }
    Vec::new()
}

// ----------------------------------------------------------------------
// Shrinking.
// ----------------------------------------------------------------------

/// A minimized case plus how it got there.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The smallest case the budget found that still fires the oracle.
    pub case: FuzzCase,
    /// The violation the minimized case fires.
    pub violation: Violation,
    /// Candidate runs spent.
    pub runs: u32,
}

/// Delta-debugs a violating case until no single reduction keeps the
/// `target` oracle firing (or the run budget is spent). Reductions, in
/// order of leverage: drop an episode, halve the device count, halve an
/// episode's fan-out list, halve an episode's durations, strip one
/// overload knob. Deterministic: candidates are tried in a fixed order
/// and every accepted candidate restarts the pass.
pub fn shrink(
    initial: &FuzzCase,
    target: OracleId,
    opts: &RunOptions,
    max_runs: u32,
) -> ShrinkResult {
    fn fires(
        c: &FuzzCase,
        target: OracleId,
        opts: &RunOptions,
        runs: &mut u32,
    ) -> Option<Violation> {
        *runs += 1;
        run_case(c, opts)
            .violations
            .into_iter()
            .find(|v| v.oracle == target)
    }

    let mut runs = 0u32;
    let mut best = initial.clone();
    let mut violation = fires(&best, target, opts, &mut runs)
        .expect("shrink() requires a case that fires the target");

    loop {
        if runs >= max_runs {
            break;
        }
        let mut progressed = false;
        for candidate in candidates(&best) {
            if runs >= max_runs {
                break;
            }
            if candidate
                .plan
                .validate(&candidate.config(), candidate.end())
                .is_err()
            {
                continue;
            }
            if let Some(v) = fires(&candidate, target, opts, &mut runs) {
                best = candidate;
                violation = v;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    ShrinkResult {
        case: best,
        violation,
        runs,
    }
}

/// Every single-step reduction of a case, in the order the shrinker
/// tries them.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // 1. Drop one episode.
    for i in 0..case.plan.episodes.len() {
        let mut c = case.clone();
        c.plan.episodes.remove(i);
        if !c.plan.episodes.is_empty() {
            out.push(c);
        }
    }
    // 2. Halve the fleet (retargeting device lists onto surviving ids).
    if case.devices > 8 {
        let mut c = case.clone();
        c.devices = (case.devices / 2).max(8);
        let ids = probe_device_ids(&c);
        retarget(&mut c.plan, &ids);
        if !c.plan.episodes.is_empty() {
            out.push(c);
        }
    }
    // 3. Halve one episode's fan-out list.
    for i in 0..case.plan.episodes.len() {
        if let Some(c) = halve_fanout(case, i) {
            out.push(c);
        }
    }
    // 4. Halve one episode's durations.
    for i in 0..case.plan.episodes.len() {
        if let Some(c) = halve_durations(case, i) {
            out.push(c);
        }
    }
    // 5. Strip one overload knob.
    for knob in 0..3 {
        let mut c = case.clone();
        let field = match knob {
            0 => &mut c.service_us,
            1 => &mut c.mailbox_capacity,
            _ => &mut c.egress_window,
        };
        if *field != 0 {
            *field = 0;
            out.push(c);
        }
    }
    out
}

/// Keeps only plan device targets that exist in `ids`; episodes whose
/// whole target list vanished are dropped.
fn retarget(plan: &mut FaultPlan, ids: &[u64]) {
    plan.episodes.retain_mut(|ep| match &mut ep.kind {
        FaultKind::DeviceFlap { devices, .. } | FaultKind::ReconnectStorm { devices } => {
            devices.retain(|d| ids.binary_search(d).is_ok());
            !devices.is_empty()
        }
        _ => true,
    });
}

/// Halves the target list of episode `i`, if it has one longer than 1.
fn halve_fanout(case: &FuzzCase, i: usize) -> Option<FuzzCase> {
    let mut c = case.clone();
    let ep = &mut c.plan.episodes[i];
    let shrunk = match &mut ep.kind {
        FaultKind::BrassUpgradeWave { hosts, .. } if hosts.len() > 1 => {
            hosts.truncate(hosts.len() / 2);
            true
        }
        FaultKind::PylonPartition { nodes, .. } if nodes.len() > 1 => {
            nodes.truncate(nodes.len() / 2);
            true
        }
        FaultKind::DeviceFlap { devices, .. } | FaultKind::ReconnectStorm { devices }
            if devices.len() > 1 =>
        {
            devices.truncate(devices.len() / 2);
            true
        }
        _ => false,
    };
    shrunk.then_some(c)
}

/// Halves every duration-like parameter of episode `i` (1s floors), if
/// any is above its floor.
fn halve_durations(case: &FuzzCase, i: usize) -> Option<FuzzCase> {
    let second = SimDuration::from_secs(1);
    let halve = |d: &mut SimDuration| -> bool {
        if *d > second {
            *d = SimDuration::from_micros((d.as_micros() / 2).max(second.as_micros()));
            true
        } else {
            false
        }
    };
    let mut c = case.clone();
    let ep = &mut c.plan.episodes[i];
    let shrunk = match &mut ep.kind {
        FaultKind::BrassCrash { down, .. } => halve(down),
        FaultKind::BrassUpgradeWave { stagger, down, .. } => {
            let a = halve(stagger);
            let b = halve(down);
            a || b
        }
        FaultKind::PylonPartition { down, .. } => halve(down),
        FaultKind::ProxyOutage { down, .. } => halve(down),
        FaultKind::DeviceFlap { flaps, gap, .. } => {
            let a = if *flaps > 1 {
                *flaps /= 2;
                true
            } else {
                false
            };
            let b = halve(gap);
            a || b
        }
        FaultKind::ReconnectStorm { .. } => false,
    };
    shrunk.then_some(c)
}

// ----------------------------------------------------------------------
// Artifacts.
// ----------------------------------------------------------------------

/// Inner tag distinguishing `.brfuzz` bodies from other sealed files.
pub const ARTIFACT_TAG: &str = "brfuzz";
/// Artifact format version.
pub const ARTIFACT_VERSION: u32 = 1;

/// Seals a minimized case and its violation into the `.brfuzz` wire
/// form: the standard snap container (magic, version, length, checksum)
/// around a tagged body. Loading is fail-closed — truncation or
/// corruption anywhere yields a clean error.
pub fn encode_artifact(case: &FuzzCase, violation: &Violation) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_str(ARTIFACT_TAG);
    w.put_u32(ARTIFACT_VERSION);
    case.snap(&mut w);
    violation.snap(&mut w);
    seal(w.into_bytes())
}

/// Decodes a `.brfuzz` artifact, rejecting anything that is not a
/// complete, checksummed, current-version file.
pub fn decode_artifact(bytes: &[u8]) -> SnapResult<(FuzzCase, Violation)> {
    let body = unseal(bytes)?;
    let mut r = SnapReader::new(body);
    let tag = r.get_str()?;
    if tag != ARTIFACT_TAG {
        return Err(SnapError::Invalid(format!(
            "not a brfuzz body (tag {tag:?})"
        )));
    }
    let version = r.get_u32()?;
    if version != ARTIFACT_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            expected: ARTIFACT_VERSION,
        });
    }
    let case = FuzzCase::restore(&mut r)?;
    let violation = Violation::restore(&mut r)?;
    r.finish()?;
    Ok((case, violation))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_case(seed: u64) -> FuzzCase {
        gen_case(seed, 12)
    }

    #[test]
    fn diurnal_workload_accounts_without_faults() {
        let mut case = gen_case(9, 8);
        case.scenario = ScenarioMix::Diurnal;
        case.plan = FaultPlan {
            episodes: Vec::new(),
        };
        case.service_us = 0;
        case.mailbox_capacity = 0;
        case.egress_window = 0;
        for line in explain_unaccounted(&case, 8) {
            eprintln!("{line}");
        }
        let (mut sim, _ids) = materialize(&case);
        sim.run_until(case.end());
        assert!(
            sim.trace_ledger().unaccounted().is_empty(),
            "no-fault diurnal run lost track of updates"
        );
    }

    #[test]
    fn same_seed_same_case() {
        assert_eq!(gen_case(3, 40), gen_case(3, 40));
        assert_ne!(gen_case(3, 40), gen_case(4, 40));
    }

    #[test]
    fn generated_plans_validate() {
        for seed in 0..20 {
            let case = tiny_case(seed);
            assert_eq!(
                case.plan.validate(&case.config(), case.end()),
                Ok(()),
                "seed {seed}"
            );
            assert!(!case.plan.episodes.is_empty());
        }
    }

    #[test]
    fn probe_ids_match_materialized_ids() {
        let case = tiny_case(11);
        assert_eq!(probe_device_ids(&case), materialize(&case).1);
    }

    #[test]
    fn artifact_roundtrips() {
        let case = tiny_case(5);
        let violation = Violation::new(OracleId::Convergence, "device 9 sid 1", "stranded");
        let bytes = encode_artifact(&case, &violation);
        let (back_case, back_violation) = decode_artifact(&bytes).expect("decode");
        assert_eq!(case, back_case);
        assert_eq!(violation, back_violation);
        // Re-encoding is byte-identical.
        assert_eq!(bytes, encode_artifact(&back_case, &back_violation));
    }

    #[test]
    fn artifact_rejects_wrong_tag_and_version() {
        let case = tiny_case(5);
        let violation = Violation::new(OracleId::Planted, "plan", "planted");
        // Wrong inner tag.
        let mut w = SnapWriter::new();
        w.put_str("brsnap");
        w.put_u32(ARTIFACT_VERSION);
        case.snap(&mut w);
        violation.snap(&mut w);
        assert!(decode_artifact(&seal(w.into_bytes())).is_err());
        // Wrong version.
        let mut w = SnapWriter::new();
        w.put_str(ARTIFACT_TAG);
        w.put_u32(ARTIFACT_VERSION + 1);
        case.snap(&mut w);
        violation.snap(&mut w);
        assert!(matches!(
            decode_artifact(&seal(w.into_bytes())),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn planted_oracle_needs_both_episodes() {
        let s = SimDuration::from_secs;
        let mut case = tiny_case(2);
        case.plan = FaultPlan::new().with(
            SimTime::from_secs(10),
            FaultKind::ProxyOutage {
                proxy: 0,
                down: s(5),
            },
        );
        assert!(planted_oracle(&case).is_empty());
        case.plan = case.plan.with(
            SimTime::from_secs(12),
            FaultKind::ReconnectStorm { devices: vec![1] },
        );
        assert_eq!(planted_oracle(&case).len(), 1);
    }
}
