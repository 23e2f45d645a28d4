//! Declarative chaos: fault plans, episodes, and the post-heal
//! convergence audit.
//!
//! A [`FaultPlan`] is data — a list of [`FaultEpisode`]s with absolute
//! start times — compiled onto the simulator's event queue by
//! [`FaultPlan::apply`]. Everything downstream of injection (detection,
//! signalling, repair) is the system's own job: unplanned BRASS crashes
//! are discovered only through missed heartbeat pongs, POPs repair
//! streams across proxy outages, devices reconnect with capped backoff
//! and recover losses through WAS backfill. After the last episode heals
//! (plus a grace period), [`crate::sim::SystemSim::convergence_report`]
//! audits that the system actually converged.

use std::fmt;

use burst::frame::StreamId;
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::TraceId;
use simkit::{snap_enum, snap_struct};

use crate::config::SystemConfig;
use crate::sim::SystemSim;

/// One kind of injectable failure.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// An *unplanned* BRASS host crash: in-memory state dies with no
    /// signal to anyone; proxies detect it by missed heartbeat pongs and
    /// repair its streams onto healthy hosts.
    BrassCrash {
        /// The host that dies.
        host: usize,
        /// How long it stays down.
        down: SimDuration,
    },
    /// A *planned* rolling-upgrade wave: hosts drain one after another,
    /// `stagger` apart, each down for `down`, with immediate signalling
    /// (the operational path — contrast [`FaultKind::BrassCrash`]).
    BrassUpgradeWave {
        /// Hosts upgraded, in order.
        hosts: Vec<usize>,
        /// Delay between consecutive drains.
        stagger: SimDuration,
        /// Per-host downtime.
        down: SimDuration,
    },
    /// A Pylon subscriber-KV partition: these nodes drop out together and
    /// heal together. A minority cut leaves CP subscribe quorums intact;
    /// a majority cut fails fresh subscribes (AP publishes continue).
    PylonPartition {
        /// The partitioned nodes.
        nodes: Vec<u64>,
        /// How long the partition lasts.
        down: SimDuration,
    },
    /// A reverse-proxy / PoP-regional outage: POPs repair affected
    /// streams onto surviving proxies.
    ProxyOutage {
        /// The proxy that goes dark.
        proxy: usize,
        /// How long it stays dark.
        down: SimDuration,
    },
    /// Flaky last-mile links: each device drops (announced) `flaps`
    /// times, `gap` apart, reconnecting on its backoff schedule.
    DeviceFlap {
        /// The flapping devices.
        devices: Vec<u64>,
        /// Drops per device.
        flaps: u32,
        /// Time between a device's consecutive drops.
        gap: SimDuration,
    },
    /// A reconnect storm: every listed device vanishes *silently* at the
    /// same instant (no FIN — POP heartbeats or the devices' own
    /// resubscribes must converge server-side state).
    ReconnectStorm {
        /// The vanishing devices.
        devices: Vec<u64>,
    },
}

impl FaultKind {
    /// Stable label for reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::BrassCrash { .. } => "brass_crash",
            FaultKind::BrassUpgradeWave { .. } => "brass_upgrade_wave",
            FaultKind::PylonPartition { .. } => "pylon_partition",
            FaultKind::ProxyOutage { .. } => "proxy_outage",
            FaultKind::DeviceFlap { .. } => "device_flap",
            FaultKind::ReconnectStorm { .. } => "reconnect_storm",
        }
    }

    /// When this episode's *injection* is over, relative to its start
    /// (healing of detection/repair consequences takes longer; that is
    /// what the availability timeline measures).
    pub fn heal_after(&self) -> SimDuration {
        match self {
            FaultKind::BrassCrash { down, .. } => *down,
            FaultKind::BrassUpgradeWave {
                hosts,
                stagger,
                down,
            } => *stagger * hosts.len().saturating_sub(1) as u64 + *down,
            FaultKind::PylonPartition { down, .. } => *down,
            FaultKind::ProxyOutage { down, .. } => *down,
            FaultKind::DeviceFlap { flaps, gap, .. } => *gap * flaps.saturating_sub(1) as u64,
            FaultKind::ReconnectStorm { .. } => SimDuration::ZERO,
        }
    }
}

/// A [`FaultKind`] injected at an absolute simulation time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEpisode {
    /// When the episode starts.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEpisode {
    /// When the episode's injection is fully over.
    pub fn heals_at(&self) -> SimTime {
        self.at + self.kind.heal_after()
    }
}

/// A declarative chaos schedule: episodes compiled onto the event queue.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The planned episodes (need not be sorted).
    pub episodes: Vec<FaultEpisode>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends an episode (builder style).
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.episodes.push(FaultEpisode { at, kind });
        self
    }

    /// When the last episode's injection is over.
    pub fn heal_time(&self) -> SimTime {
        self.episodes
            .iter()
            .map(FaultEpisode::heals_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// The distinct fault kinds this plan covers, sorted.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.episodes.iter().map(|e| e.kind.label()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// Checks every episode against the system shape and a run horizon.
    ///
    /// The simulator silently no-ops (or, for some indices, panics deep
    /// inside an event handler) on targets that do not exist; a fuzzer
    /// or hand-written plan wants that rejected up front with a typed
    /// error instead. Episode indices in errors refer to positions in
    /// [`FaultPlan::episodes`].
    pub fn validate(&self, config: &SystemConfig, horizon: SimTime) -> Result<(), PlanError> {
        let hosts = config.brass_hosts as usize;
        let proxies = config.proxies as usize;
        let nodes = config.pylon.kv_nodes as u64;
        for (i, ep) in self.episodes.iter().enumerate() {
            if ep.at >= horizon {
                return Err(PlanError::PastHorizon {
                    episode: i,
                    at: ep.at,
                    horizon,
                });
            }
            let zero = |d: SimDuration| d == SimDuration::ZERO;
            match &ep.kind {
                FaultKind::BrassCrash { host, down } => {
                    if *host >= hosts {
                        return Err(PlanError::HostOutOfRange {
                            episode: i,
                            host: *host,
                            hosts,
                        });
                    }
                    if zero(*down) {
                        return Err(PlanError::ZeroDuration { episode: i });
                    }
                }
                FaultKind::BrassUpgradeWave {
                    hosts: wave, down, ..
                } => {
                    if wave.is_empty() {
                        return Err(PlanError::EmptyTargets { episode: i });
                    }
                    for &host in wave {
                        if host >= hosts {
                            return Err(PlanError::HostOutOfRange {
                                episode: i,
                                host,
                                hosts,
                            });
                        }
                    }
                    if zero(*down) {
                        return Err(PlanError::ZeroDuration { episode: i });
                    }
                }
                FaultKind::PylonPartition { nodes: cut, down } => {
                    if cut.is_empty() {
                        return Err(PlanError::EmptyTargets { episode: i });
                    }
                    for &node in cut {
                        if node >= nodes {
                            return Err(PlanError::NodeOutOfRange {
                                episode: i,
                                node,
                                nodes,
                            });
                        }
                    }
                    if zero(*down) {
                        return Err(PlanError::ZeroDuration { episode: i });
                    }
                }
                FaultKind::ProxyOutage { proxy, down } => {
                    if *proxy >= proxies {
                        return Err(PlanError::ProxyOutOfRange {
                            episode: i,
                            proxy: *proxy,
                            proxies,
                        });
                    }
                    if zero(*down) {
                        return Err(PlanError::ZeroDuration { episode: i });
                    }
                }
                FaultKind::DeviceFlap {
                    devices,
                    flaps,
                    gap,
                } => {
                    if devices.is_empty() {
                        return Err(PlanError::EmptyTargets { episode: i });
                    }
                    if *flaps == 0 {
                        return Err(PlanError::ZeroFlaps { episode: i });
                    }
                    if *flaps > 1 && zero(*gap) {
                        return Err(PlanError::ZeroDuration { episode: i });
                    }
                }
                FaultKind::ReconnectStorm { devices } => {
                    if devices.is_empty() {
                        return Err(PlanError::EmptyTargets { episode: i });
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles every episode onto the simulator's event queue. Purely
    /// schedules events — all detection and repair behaviour comes from
    /// the system itself.
    pub fn apply(&self, sim: &mut SystemSim) {
        debug_assert_eq!(
            self.validate(sim.config(), self.heal_time() + SimDuration::from_secs(1)),
            Ok(()),
            "applying an invalid fault plan"
        );
        for ep in &self.episodes {
            match &ep.kind {
                FaultKind::BrassCrash { host, down } => {
                    sim.schedule_brass_crash(ep.at, *host, *down);
                }
                FaultKind::BrassUpgradeWave {
                    hosts,
                    stagger,
                    down,
                } => {
                    for (i, &host) in hosts.iter().enumerate() {
                        sim.schedule_brass_upgrade(ep.at + *stagger * i as u64, host, *down);
                    }
                }
                FaultKind::PylonPartition { nodes, down } => {
                    for &node in nodes {
                        sim.schedule_pylon_outage(ep.at, node, *down);
                    }
                }
                FaultKind::ProxyOutage { proxy, down } => {
                    sim.schedule_proxy_outage(ep.at, *proxy, *down);
                }
                FaultKind::DeviceFlap {
                    devices,
                    flaps,
                    gap,
                } => {
                    for &device in devices {
                        for f in 0..*flaps {
                            sim.schedule_device_drop(ep.at + *gap * f as u64, device);
                        }
                    }
                }
                FaultKind::ReconnectStorm { devices } => {
                    for &device in devices {
                        sim.schedule_device_vanish(ep.at, device);
                    }
                }
            }
        }
    }
}

/// A typed rejection from [`FaultPlan::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A BRASS host index is outside the configured fleet.
    HostOutOfRange {
        /// Offending episode index.
        episode: usize,
        /// The out-of-range host.
        host: usize,
        /// Configured host count.
        hosts: usize,
    },
    /// A Pylon KV node id is outside the configured cluster.
    NodeOutOfRange {
        /// Offending episode index.
        episode: usize,
        /// The out-of-range node.
        node: u64,
        /// Configured node count.
        nodes: u64,
    },
    /// A proxy index is outside the configured tier.
    ProxyOutOfRange {
        /// Offending episode index.
        episode: usize,
        /// The out-of-range proxy.
        proxy: usize,
        /// Configured proxy count.
        proxies: usize,
    },
    /// A downtime (or a multi-flap gap) of zero: the episode would heal
    /// the instant it starts, which is never what a plan author meant.
    ZeroDuration {
        /// Offending episode index.
        episode: usize,
    },
    /// A device-targeting episode with an empty device (or host) list.
    EmptyTargets {
        /// Offending episode index.
        episode: usize,
    },
    /// A [`FaultKind::DeviceFlap`] with `flaps == 0`.
    ZeroFlaps {
        /// Offending episode index.
        episode: usize,
    },
    /// An episode scheduled at or past the run horizon: it would never
    /// fire, so the plan does not test what it claims to.
    PastHorizon {
        /// Offending episode index.
        episode: usize,
        /// The episode's start time.
        at: SimTime,
        /// The run horizon it missed.
        horizon: SimTime,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::HostOutOfRange {
                episode,
                host,
                hosts,
            } => write!(
                f,
                "episode {episode}: host {host} out of range (fleet has {hosts})"
            ),
            PlanError::NodeOutOfRange {
                episode,
                node,
                nodes,
            } => write!(
                f,
                "episode {episode}: pylon node {node} out of range (cluster has {nodes})"
            ),
            PlanError::ProxyOutOfRange {
                episode,
                proxy,
                proxies,
            } => write!(
                f,
                "episode {episode}: proxy {proxy} out of range (tier has {proxies})"
            ),
            PlanError::ZeroDuration { episode } => {
                write!(f, "episode {episode}: zero duration")
            }
            PlanError::EmptyTargets { episode } => {
                write!(f, "episode {episode}: empty target list")
            }
            PlanError::ZeroFlaps { episode } => {
                write!(f, "episode {episode}: device flap with zero flaps")
            }
            PlanError::PastHorizon {
                episode,
                at,
                horizon,
            } => write!(
                f,
                "episode {episode}: starts at {}us, at or past the {}us horizon",
                at.as_micros(),
                horizon.as_micros()
            ),
        }
    }
}

impl std::error::Error for PlanError {}

// ----------------------------------------------------------------------
// Snap serde: plans ride `.brfuzz` artifacts.
// Tag bytes are part of the on-disk format — append, never renumber.
// ----------------------------------------------------------------------

snap_enum!(FaultKind {
    0 => BrassCrash { host, down },
    1 => BrassUpgradeWave { hosts, stagger, down },
    2 => PylonPartition { nodes, down },
    3 => ProxyOutage { proxy, down },
    4 => DeviceFlap { devices, flaps, gap },
    5 => ReconnectStorm { devices },
});
snap_struct!(FaultEpisode { at, kind });
snap_struct!(FaultPlan { episodes });

/// A canned plan covering every fault kind, scaled to the system shape.
/// All choices draw from `rng`, so one seed fixes the whole timeline.
pub fn canned_plan(
    start: SimTime,
    config: &SystemConfig,
    devices: &[u64],
    rng: &mut DetRng,
) -> FaultPlan {
    let hosts = config.brass_hosts as usize;
    let s = |secs: u64| SimDuration::from_secs(secs);
    let pick_devices = |rng: &mut DetRng, frac_denom: u64| -> Vec<u64> {
        let mut pool: Vec<u64> = devices.to_vec();
        rng.shuffle(&mut pool);
        let take = (pool.len() as u64 / frac_denom).max(1) as usize;
        pool.truncate(take);
        pool.sort_unstable();
        pool
    };

    // Unplanned crash of one host.
    let crash_host = rng.index(hosts);
    // A rolling wave over (up to) a quarter of the fleet, skipping the
    // crashed host so the two episodes stress different machines.
    let wave: Vec<usize> = (0..hosts)
        .filter(|&h| h != crash_host)
        .take((hosts / 4).max(1))
        .collect();
    // Pylon cuts: a minority of one replica (quorum holds) and then a
    // majority cut of about two-thirds of the nodes (some topics lose
    // their CP subscribe quorum until healing).
    let minority: Vec<u64> = vec![rng.below(config.pylon.kv_nodes as u64)];
    let mut majority: Vec<u64> = (0..config.pylon.kv_nodes as u64).collect();
    rng.shuffle(&mut majority);
    majority.truncate(((config.pylon.kv_nodes as usize) * 2 / 3).max(1));
    majority.sort_unstable();

    let plan = FaultPlan::new()
        .with(
            start,
            FaultKind::BrassCrash {
                host: crash_host,
                down: s(25),
            },
        )
        .with(
            start + s(45),
            FaultKind::BrassUpgradeWave {
                hosts: wave,
                stagger: s(5),
                down: s(20),
            },
        )
        .with(
            start + s(90),
            FaultKind::PylonPartition {
                nodes: minority,
                down: s(20),
            },
        )
        .with(
            start + s(120),
            FaultKind::PylonPartition {
                nodes: majority,
                down: s(25),
            },
        )
        .with(
            start + s(160),
            FaultKind::ProxyOutage {
                proxy: rng.index(config.proxies as usize),
                down: s(30),
            },
        )
        .with(
            start + s(200),
            FaultKind::DeviceFlap {
                devices: pick_devices(rng, 10),
                flaps: 3,
                gap: s(10),
            },
        )
        .with(
            start + s(230),
            FaultKind::ReconnectStorm {
                devices: pick_devices(rng, 5),
            },
        );
    debug_assert_eq!(
        plan.validate(config, plan.heal_time() + s(1)),
        Ok(()),
        "canned plan must validate against the config that shaped it"
    );
    plan
}

/// Identifies which invariant a [`Violation`] breaks. Every check the
/// convergence audit and the fuzz oracle suite perform maps to exactly
/// one of these, so reports are machine-matchable (the shrinker keeps
/// only candidates that re-fire the *same* oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleId {
    /// Post-heal structural convergence: no stranded streams, nothing
    /// registered on a dead host, no device stuck flow-degraded.
    Convergence,
    /// Trace-ledger completeness: every admitted update delivered,
    /// dropped-with-reason, or backfilled.
    Accounting,
    /// No spurious host death: heartbeat detection must fire only when
    /// an *unannounced* crash actually happened.
    HeartbeatSanity,
    /// Per-device, per-stream delivery order: applied sequence numbers
    /// only move forward, and calm streams account for every sequence.
    DeliveryOrder,
    /// Re-run equivalence: the same (config, seed, plan) must fingerprint
    /// identically every time it is run.
    Determinism,
    /// Test-only oracle for the shrinker self-test: "fires" on a planted
    /// episode combination rather than a real system property.
    Planted,
}

impl OracleId {
    /// Stable name for reports, JSON, and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            OracleId::Convergence => "convergence",
            OracleId::Accounting => "accounting",
            OracleId::HeartbeatSanity => "heartbeat_sanity",
            OracleId::DeliveryOrder => "delivery_order",
            OracleId::Determinism => "determinism",
            OracleId::Planted => "planted",
        }
    }
}

snap_enum!(OracleId {
    0 => Convergence,
    1 => Accounting,
    2 => HeartbeatSanity,
    3 => DeliveryOrder,
    4 => Determinism,
    5 => Planted,
});

/// One machine-readable invariant breach: which oracle fired, on which
/// entity, and what it saw.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The invariant that fired.
    pub oracle: OracleId,
    /// The offending entity ("device 12 sid 3", "host 4", "trace 77").
    pub entity: String,
    /// What the oracle observed.
    pub detail: String,
}

impl Violation {
    /// Builds a violation.
    pub fn new(oracle: OracleId, entity: impl Into<String>, detail: impl Into<String>) -> Self {
        Violation {
            oracle,
            entity: entity.into(),
            detail: detail.into(),
        }
    }

    /// One-line rendering for gates and logs.
    pub fn render(&self) -> String {
        format!("[{}] {}: {}", self.oracle.name(), self.entity, self.detail)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

snap_struct!(Violation {
    oracle,
    entity,
    detail
});

/// The post-heal audit produced by
/// [`crate::sim::SystemSim::convergence_report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceReport {
    /// Devices currently connected.
    pub connected_devices: u64,
    /// Open streams across connected devices.
    pub open_streams: u64,
    /// Streams a connected device believes are open but no live BRASS
    /// host is serving.
    pub stranded: Vec<(u64, StreamId)>,
    /// Streams still registered on hosts that are currently down.
    pub dead_host_streams: u64,
    /// Admitted updates rendered on a device.
    pub delivered: u64,
    /// Drop records with attributed reasons.
    pub dropped: u64,
    /// Updates recovered via WAS backfill.
    pub backfilled: u64,
    /// Admitted updates with no delivery, no attributed drop, and no
    /// backfill — each one is an accounting hole.
    pub unaccounted: Vec<TraceId>,
    /// Connected devices whose egress flow window is still degraded: each
    /// one was told `FlowStatus::Degraded` during overload and never got
    /// its terminal `Recovered` after the load passed.
    pub flow_degraded_devices: u64,
    /// Machine-readable invariant breaches derived from the fields above
    /// by [`ConvergenceReport::finish`]: one entry per offending entity
    /// (capped per category), each tagged with the [`OracleId`] it broke.
    pub violations: Vec<Violation>,
}

impl ConvergenceReport {
    /// Per-category cap on per-entity violations; pathological runs strand
    /// thousands of streams and one summarizing entry beats a megabyte of
    /// near-identical lines.
    const PER_ENTITY_CAP: usize = 8;

    /// Derives the machine-readable `violations` list from the raw audit
    /// fields. [`crate::sim::SystemSim::convergence_report`] calls this;
    /// hand-built reports (tests) must too, or `converged()` trivially
    /// passes.
    pub fn finish(mut self) -> Self {
        let mut v = Vec::new();
        for &(device, sid) in self.stranded.iter().take(Self::PER_ENTITY_CAP) {
            v.push(Violation::new(
                OracleId::Convergence,
                format!("device {device} sid {}", sid.0),
                "open stream with no live BRASS host serving it",
            ));
        }
        if self.stranded.len() > Self::PER_ENTITY_CAP {
            v.push(Violation::new(
                OracleId::Convergence,
                "streams",
                format!(
                    "{} more stream(s) stranded without a live host",
                    self.stranded.len() - Self::PER_ENTITY_CAP
                ),
            ));
        }
        if self.dead_host_streams > 0 {
            v.push(Violation::new(
                OracleId::Convergence,
                "hosts",
                format!(
                    "{} stream(s) still registered on dead hosts",
                    self.dead_host_streams
                ),
            ));
        }
        if self.flow_degraded_devices > 0 {
            v.push(Violation::new(
                OracleId::Convergence,
                "devices",
                format!(
                    "{} device(s) stuck flow-degraded after load passed",
                    self.flow_degraded_devices
                ),
            ));
        }
        for trace in self.unaccounted.iter().take(Self::PER_ENTITY_CAP) {
            v.push(Violation::new(
                OracleId::Accounting,
                format!("trace {}", trace.0),
                "admitted update with no delivery, attributed drop, or backfill",
            ));
        }
        if self.unaccounted.len() > Self::PER_ENTITY_CAP {
            v.push(Violation::new(
                OracleId::Accounting,
                "traces",
                format!(
                    "{} more admitted update(s) unaccounted",
                    self.unaccounted.len() - Self::PER_ENTITY_CAP
                ),
            ));
        }
        self.violations = v;
        self
    }

    /// Whether the system converged: no stranded streams, nothing pinned
    /// to a dead host, and a fully-accounted ledger.
    pub fn converged(&self) -> bool {
        self.violations.is_empty()
            && self.stranded.is_empty()
            && self.dead_host_streams == 0
            && self.unaccounted.is_empty()
            && self.flow_degraded_devices == 0
    }

    /// Human-readable failure lines (empty when converged): the rendered
    /// form of [`ConvergenceReport::violations`].
    pub fn failures(&self) -> Vec<String> {
        self.violations.iter().map(Violation::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn heal_time_is_the_last_heal() {
        let plan = FaultPlan::new()
            .with(
                SimTime::from_secs(10),
                FaultKind::BrassCrash {
                    host: 0,
                    down: SimDuration::from_secs(30),
                },
            )
            .with(
                SimTime::from_secs(20),
                FaultKind::BrassUpgradeWave {
                    hosts: vec![1, 2, 3],
                    stagger: SimDuration::from_secs(5),
                    down: SimDuration::from_secs(20),
                },
            );
        // Wave: starts 20, last drain 30, back at 50 — after the crash's 40.
        assert_eq!(plan.heal_time(), SimTime::from_secs(50));
    }

    #[test]
    fn canned_plan_covers_every_kind() {
        let config = SystemConfig::small();
        let devices: Vec<u64> = (0..20).collect();
        let mut rng = DetRng::new(99);
        let plan = canned_plan(SimTime::from_secs(30), &config, &devices, &mut rng);
        assert_eq!(
            plan.kinds(),
            vec![
                "brass_crash",
                "brass_upgrade_wave",
                "device_flap",
                "proxy_outage",
                "pylon_partition",
                "reconnect_storm",
            ]
        );
        assert!(plan.heal_time() > SimTime::from_secs(230));
    }

    #[test]
    fn same_seed_same_plan() {
        let config = SystemConfig::small();
        let devices: Vec<u64> = (0..50).collect();
        let a = canned_plan(SimTime::ZERO, &config, &devices, &mut DetRng::new(7));
        let b = canned_plan(SimTime::ZERO, &config, &devices, &mut DetRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn report_failures_name_each_hole() {
        let report = ConvergenceReport {
            stranded: vec![(3, StreamId(1))],
            dead_host_streams: 2,
            unaccounted: vec![TraceId(77)],
            ..ConvergenceReport::default()
        }
        .finish();
        assert!(!report.converged());
        assert_eq!(report.failures().len(), 3);
        // Each violation is machine-tagged with the oracle it broke.
        let oracles: Vec<OracleId> = report.violations.iter().map(|v| v.oracle).collect();
        assert_eq!(
            oracles,
            vec![
                OracleId::Convergence,
                OracleId::Convergence,
                OracleId::Accounting
            ]
        );
        assert_eq!(report.violations[0].entity, "device 3 sid 1");
        assert!(ConvergenceReport::default().finish().converged());
    }

    #[test]
    fn unfinished_report_with_holes_still_fails_converged() {
        // Belt and braces: a hand-built report that skipped `finish()`
        // must not trivially pass the gate just because `violations` is
        // empty.
        let report = ConvergenceReport {
            dead_host_streams: 1,
            ..ConvergenceReport::default()
        };
        assert!(!report.converged());
    }

    #[test]
    fn per_entity_violations_are_capped_with_a_summary() {
        let report = ConvergenceReport {
            stranded: (0..20).map(|d| (d, StreamId(1))).collect(),
            ..ConvergenceReport::default()
        }
        .finish();
        let strand_lines = report
            .violations
            .iter()
            .filter(|v| v.oracle == OracleId::Convergence)
            .count();
        assert_eq!(strand_lines, ConvergenceReport::PER_ENTITY_CAP + 1);
        assert!(report.violations.last().unwrap().detail.contains("12 more"));
    }

    // ------------------------------------------------------------------
    // validate(): one test per typed rejection.
    // ------------------------------------------------------------------

    fn horizon() -> SimTime {
        SimTime::from_secs(600)
    }

    #[test]
    fn validate_accepts_the_canned_plan() {
        let config = SystemConfig::small();
        let devices: Vec<u64> = (0..20).collect();
        let mut rng = DetRng::new(5);
        let plan = canned_plan(SimTime::from_secs(10), &config, &devices, &mut rng);
        assert_eq!(plan.validate(&config, horizon()), Ok(()));
    }

    #[test]
    fn validate_rejects_host_out_of_range() {
        let config = SystemConfig::small();
        let hosts = config.brass_hosts as usize;
        let plan = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::BrassCrash {
                host: hosts,
                down: SimDuration::from_secs(5),
            },
        );
        assert_eq!(
            plan.validate(&config, horizon()),
            Err(PlanError::HostOutOfRange {
                episode: 0,
                host: hosts,
                hosts,
            })
        );
        // Same range check covers upgrade waves.
        let wave = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::BrassUpgradeWave {
                hosts: vec![0, hosts + 3],
                stagger: SimDuration::from_secs(1),
                down: SimDuration::from_secs(5),
            },
        );
        assert!(matches!(
            wave.validate(&config, horizon()),
            Err(PlanError::HostOutOfRange { host, .. }) if host == hosts + 3
        ));
    }

    #[test]
    fn validate_rejects_node_out_of_range() {
        let config = SystemConfig::small();
        let nodes = config.pylon.kv_nodes as u64;
        let plan = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::PylonPartition {
                nodes: vec![0, nodes],
                down: SimDuration::from_secs(5),
            },
        );
        assert_eq!(
            plan.validate(&config, horizon()),
            Err(PlanError::NodeOutOfRange {
                episode: 0,
                node: nodes,
                nodes,
            })
        );
    }

    #[test]
    fn validate_rejects_proxy_out_of_range() {
        let config = SystemConfig::small();
        let proxies = config.proxies as usize;
        let plan = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::ProxyOutage {
                proxy: proxies,
                down: SimDuration::from_secs(5),
            },
        );
        assert_eq!(
            plan.validate(&config, horizon()),
            Err(PlanError::ProxyOutOfRange {
                episode: 0,
                proxy: proxies,
                proxies,
            })
        );
    }

    #[test]
    fn validate_rejects_zero_durations() {
        let config = SystemConfig::small();
        let crash = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::BrassCrash {
                host: 0,
                down: SimDuration::ZERO,
            },
        );
        assert_eq!(
            crash.validate(&config, horizon()),
            Err(PlanError::ZeroDuration { episode: 0 })
        );
        // A multi-flap with zero gap collapses to duplicate same-instant
        // drops; a single flap needs no gap.
        let flap = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::DeviceFlap {
                devices: vec![1],
                flaps: 2,
                gap: SimDuration::ZERO,
            },
        );
        assert_eq!(
            flap.validate(&config, horizon()),
            Err(PlanError::ZeroDuration { episode: 0 })
        );
        let single = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::DeviceFlap {
                devices: vec![1],
                flaps: 1,
                gap: SimDuration::ZERO,
            },
        );
        assert_eq!(single.validate(&config, horizon()), Ok(()));
    }

    #[test]
    fn validate_rejects_empty_targets_and_zero_flaps() {
        let config = SystemConfig::small();
        let storm = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::ReconnectStorm { devices: vec![] },
        );
        assert_eq!(
            storm.validate(&config, horizon()),
            Err(PlanError::EmptyTargets { episode: 0 })
        );
        let flap = FaultPlan::new().with(
            SimTime::from_secs(1),
            FaultKind::DeviceFlap {
                devices: vec![1],
                flaps: 0,
                gap: SimDuration::from_secs(1),
            },
        );
        assert_eq!(
            flap.validate(&config, horizon()),
            Err(PlanError::ZeroFlaps { episode: 0 })
        );
    }

    #[test]
    fn validate_rejects_episodes_past_the_horizon() {
        let config = SystemConfig::small();
        let plan = FaultPlan::new()
            .with(
                SimTime::from_secs(1),
                FaultKind::BrassCrash {
                    host: 0,
                    down: SimDuration::from_secs(5),
                },
            )
            .with(
                horizon(),
                FaultKind::ProxyOutage {
                    proxy: 0,
                    down: SimDuration::from_secs(5),
                },
            );
        assert_eq!(
            plan.validate(&config, horizon()),
            Err(PlanError::PastHorizon {
                episode: 1,
                at: horizon(),
                horizon: horizon(),
            })
        );
    }

    #[test]
    fn plan_snap_roundtrips_bit_identically() {
        let config = SystemConfig::small();
        let devices: Vec<u64> = (0..30).collect();
        let mut rng = DetRng::new(11);
        let plan = canned_plan(SimTime::from_secs(7), &config, &devices, &mut rng);
        let mut w = SnapWriter::new();
        plan.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = FaultPlan::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        assert_eq!(plan, back);
        // Re-serializing the restored plan gives the same bytes.
        let mut w2 = SnapWriter::new();
        back.snap(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }
}
