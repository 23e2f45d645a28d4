//! System configuration.

use edge::proxy::RouteStrategy;
use pylon::PylonConfig;
use simkit::time::SimDuration;
use simkit::trace::Retention;
use tao::TaoConfig;

/// Connectivity class of a device's last mile, driving latency and drop
/// behaviour ("many parts of the world still operate with older mobile
/// communication infrastructure", §1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkClass {
    /// Fast, reliable links (fibre/5G, North America & Europe medians).
    Fast,
    /// Typical mobile links.
    Mobile,
    /// Constrained 2G-era links with frequent disconnects.
    Slow,
}

simkit::snap_enum!(LinkClass { 0 => Fast, 1 => Mobile, 2 => Slow });

/// Top-level configuration for a [`SystemSim`](crate::sim::SystemSim).
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// TAO store shape.
    pub tao: TaoConfig,
    /// Pylon cluster shape.
    pub pylon: PylonConfig,
    /// Number of BRASS hosts.
    pub brass_hosts: u32,
    /// Number of reverse proxies.
    pub proxies: u32,
    /// Number of POPs.
    pub pops: u32,
    /// How reverse proxies route fresh subscribes to BRASS hosts: by load
    /// (high-fanout apps) or by topic (low-fanout apps, curtailing Pylon's
    /// subscription footprint; §3.2).
    pub route_strategy: RouteStrategy,
    /// Link-class mix as (class, probability) pairs.
    pub link_mix: Vec<(LinkClass, f64)>,
    /// Probability that any individual last-mile frame is lost.
    pub last_mile_drop: f64,
    /// Base delay before a dropped device reconnects. Repeated drops back
    /// off exponentially (capped, with deterministic jitter) to tame
    /// thundering-herd reconnect storms.
    pub reconnect_delay: SimDuration,
    /// Whether POPs ping devices to detect silent (unannounced) drops
    /// (§4 footnote 11; the policy is `burst::heartbeat`'s).
    /// Costs one ping/pong round-trip per device per interval, so the
    /// scale bench turns it off.
    pub device_heartbeats: bool,
    /// Trace-ledger retention: `Full` keeps every hop record (what
    /// `trace-dump` wants); `Bounded` keeps only the most recent records,
    /// bounding peak RSS at bench scale. The accounting and histograms
    /// cover every record either way.
    pub trace_retention: Retention,
    /// Maximum concurrent streams per device ("each mobile app up to 20",
    /// §5); the oldest stream is cancelled to make room.
    pub max_streams_per_device: usize,
    /// Metrics bucketing interval (the paper uses 15-minute buckets).
    pub metrics_interval: SimDuration,
    /// Metrics horizon (how much simulated time the series cover).
    pub metrics_horizon: SimDuration,
    /// Per-update service time (µs) at a BRASS host's ingress: the
    /// overload model. Events arriving faster than one per `brass_service_us`
    /// queue behind the host's backlog; downstream effects (and heartbeat
    /// pongs) are delayed by the backlog. `0` disables the model (hosts
    /// are infinitely fast), which is the pre-overload-PR behaviour.
    pub brass_service_us: u64,
    /// Maximum backlog depth (in queued events) at a BRASS host's ingress
    /// mailbox before arriving updates are shed with a `mailbox_overflow`
    /// drop. `0` means unbounded (no shedding — backlog, and therefore
    /// latency, can grow without limit). Only meaningful with
    /// [`Self::brass_service_us`] > 0.
    pub brass_mailbox_capacity: u64,
    /// Per-device BURST egress flow-control window in bytes: data frames
    /// beyond this many bytes in flight on the last mile are shed with a
    /// `flow_control` drop and the device is signalled
    /// `FlowStatus::Degraded` (then `Recovered` once the backlog drains
    /// past half the window). `0` disables egress flow control.
    pub egress_window_bytes: u64,
    /// Whether quiescent connected devices are parked into their compact
    /// frozen form between events (rehydrated on the next event that
    /// touches them). Purely a memory knob: parking and rehydrating are
    /// pure data transforms, so metrics and the trace ledger are
    /// bit-identical either way (pinned by the hibernation equivalence
    /// test).
    pub hibernation: bool,
}

impl SystemConfig {
    /// A small system for unit tests, doctests and examples.
    pub fn small() -> Self {
        SystemConfig {
            tao: TaoConfig::small(),
            pylon: PylonConfig::small(),
            brass_hosts: 4,
            proxies: 2,
            pops: 2,
            route_strategy: RouteStrategy::ByLoad,
            link_mix: vec![
                (LinkClass::Fast, 0.5),
                (LinkClass::Mobile, 0.4),
                (LinkClass::Slow, 0.1),
            ],
            last_mile_drop: 0.0,
            reconnect_delay: SimDuration::from_secs(2),
            device_heartbeats: true,
            trace_retention: Retention::Full,
            max_streams_per_device: 20,
            metrics_interval: SimDuration::from_mins(15),
            metrics_horizon: SimDuration::from_hours(24),
            brass_service_us: 0,
            brass_mailbox_capacity: 0,
            egress_window_bytes: 0,
            hibernation: true,
        }
    }

    /// A medium system for experiment harnesses: [`SystemConfig::small`]
    /// with a bigger backend and fleet, lossier links, no device
    /// heartbeats and a bounded trace ledger.
    pub fn medium() -> Self {
        SystemConfig {
            tao: TaoConfig {
                shards: 64,
                regions: 3,
                cache_capacity: 65_536,
            },
            pylon: PylonConfig {
                topic_shards: 16_384,
                servers: 32,
                kv_nodes: 12,
                replicas: 3,
            },
            brass_hosts: 16,
            proxies: 4,
            pops: 4,
            link_mix: vec![
                (LinkClass::Fast, 0.35),
                (LinkClass::Mobile, 0.45),
                (LinkClass::Slow, 0.2),
            ],
            last_mile_drop: 0.002,
            reconnect_delay: SimDuration::from_secs(3),
            device_heartbeats: false,
            trace_retention: Retention::Bounded(4_096),
            ..SystemConfig::small()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_wellformed() {
        for config in [SystemConfig::small(), SystemConfig::medium()] {
            assert!(config.brass_hosts > 0);
            assert!(config.proxies > 0);
            assert!(config.pops > 0);
            let total: f64 = config.link_mix.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "link mix sums to 1");
            assert!(!config.metrics_interval.is_zero());
        }
    }
}
