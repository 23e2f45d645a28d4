//! The event vocabulary: [`Ev`], the one type the queue holds, with its
//! snapshot tags, and [`EventStats`], the per-layer count of what ran.

use std::sync::Arc;

use brass::app::{FetchToken, WasRequest, WasResponse};
use brass::AppId;
use burst::frame::{Frame, StreamId};
use burst::json::Json;
use pylon::Topic;
use simkit::snap::Fp64;
use simkit::time::SimTime;
use simkit::{snap_enum, snap_struct};
use was::UpdateEvent;

use crate::config::SystemConfig;

/// Per-subsystem event-loop accounting: how many events the simulator
/// popped and handled, grouped by the layer the event models. This is the
/// denominator of the `scale` bench's events/sec figure and shows where
/// simulated work concentrates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// All events handled.
    pub total: u64,
    /// Workload injections: subscribes, cancels, mutations.
    pub workload: u64,
    /// Pylon publish / fan-out / subscription / node events.
    pub pylon: u64,
    /// TAO cross-region replication applies.
    pub tao: u64,
    /// BRASS-side work: WAS round-trips, timers, host maintenance.
    pub brass: u64,
    /// Client → server frame hops (POP, proxy, BRASS arrival).
    pub transport_up: u64,
    /// Server → client frame hops (proxy, POP, device arrival).
    pub transport_down: u64,
    /// Device churn: drops, reconnects and disconnect teardown.
    pub device_churn: u64,
    /// Fault-plan episodes: crashes, outages, recoveries, repairs.
    pub faults: u64,
    /// Heartbeat ticks, pings and pong round-trips.
    pub heartbeats: u64,
    /// Periodic metrics ticks.
    pub metrics: u64,
}

impl EventStats {
    pub(super) fn note(&mut self, ev: &Ev) {
        self.total += 1;
        let bucket = match ev {
            Ev::DeviceSubscribe { .. } | Ev::DeviceCancel { .. } | Ev::WasMutationExec { .. } => {
                &mut self.workload
            }
            Ev::PylonPublish { .. }
            | Ev::PylonDeliverHost { .. }
            | Ev::PylonSubscribeExec { .. }
            | Ev::PylonUnsubscribeExec { .. }
            | Ev::PylonHostFailed { .. }
            | Ev::PylonNode { .. } => &mut self.pylon,
            Ev::TaoReplicate { .. } => &mut self.tao,
            Ev::WasExec { .. }
            | Ev::WasReply { .. }
            | Ev::BrassTimer { .. }
            | Ev::BrassRedirect { .. }
            | Ev::BrassUpgrade { .. }
            | Ev::BrassHostBack { .. }
            | Ev::WasBackfillExec { .. } => &mut self.brass,
            Ev::AtPop { .. } | Ev::AtProxy { .. } | Ev::AtBrass { .. } => &mut self.transport_up,
            Ev::DownAtProxy { .. } | Ev::DownAtPop { .. } | Ev::AtDevice { .. } => {
                &mut self.transport_down
            }
            Ev::DeviceDrop { .. } | Ev::DeviceReconnect { .. } | Ev::ProxyDeviceGone { .. } => {
                &mut self.device_churn
            }
            Ev::BrassCrash { .. }
            | Ev::BrassRecover { .. }
            | Ev::ProxyOutage { .. }
            | Ev::ProxyBack { .. }
            | Ev::ProxyHostFailed { .. }
            | Ev::ProxyAddHost { .. }
            | Ev::ProxyHostRestarted { .. }
            | Ev::PopProxyFailed { .. }
            | Ev::PopAddProxy { .. }
            | Ev::DeviceVanish { .. } => &mut self.faults,
            Ev::HeartbeatTick | Ev::HbPingAtHost { .. } | Ev::PongFromHost { .. } => {
                &mut self.heartbeats
            }
        };
        *bucket += 1;
    }

    /// The eleven counters in declaration order.
    fn fields(&self) -> [u64; 11] {
        [
            self.total,
            self.workload,
            self.pylon,
            self.tao,
            self.brass,
            self.transport_up,
            self.transport_down,
            self.device_churn,
            self.faults,
            self.heartbeats,
            self.metrics,
        ]
    }

    /// Folds every counter into a rolling fingerprint.
    pub(super) fn mix_fp(&self, fp: &mut Fp64) {
        for v in self.fields() {
            fp.mix_u64(v);
        }
    }
}

// `total` is exactly the sum of the per-subsystem buckets by construction.
snap_struct!(
    EventStats {
        total,
        workload,
        pylon,
        tao,
        brass,
        transport_up,
        transport_down,
        device_churn,
        faults,
        heartbeats,
        metrics
    },
    |s| {
        let buckets: u64 = s.fields()[1..].iter().sum();
        if buckets != s.total {
            return Err(format!(
                "event-stats buckets sum to {buckets}, total says {}",
                s.total
            ));
        }
        Ok(())
    }
);

/// A simulation event.
#[derive(Debug)]
pub(super) enum Ev {
    // ------------------------------------------------------------------
    // Workload.
    // ------------------------------------------------------------------
    /// A device opens a new request-stream with this header.
    DeviceSubscribe { device: u64, header: Json },
    /// A device cancels a stream.
    DeviceCancel { device: u64, sid: StreamId },
    /// A device issues a GraphQL mutation (already includes last-mile
    /// latency; `app` classifies it for metrics).
    WasMutationExec { gql: String, app: AppId },

    // ------------------------------------------------------------------
    // Backend publish path.
    // ------------------------------------------------------------------
    /// An update event reaches Pylon. Boxed: every pending queue entry
    /// pays `size_of::<Ev>()`, so the fat payload lives behind a pointer.
    PylonPublish { event: Box<UpdateEvent> },
    /// Pylon forwards an event to one BRASS host. The event is shared:
    /// fanning out to N hosts enqueues N pointers to one allocation.
    PylonDeliverHost {
        host: usize,
        event: Arc<UpdateEvent>,
    },
    /// A cross-region TAO cache invalidation applies.
    TaoReplicate { event: Box<tao::ReplicationEvent> },

    // ------------------------------------------------------------------
    // BRASS subscriptions and async work.
    // ------------------------------------------------------------------
    /// A BRASS host's subscribe reaches (and replicates within) Pylon.
    PylonSubscribeExec {
        host: usize,
        topic: Topic,
        attempt: u32,
    },
    /// A BRASS host's unsubscribe reaches Pylon.
    PylonUnsubscribeExec { host: usize, topic: Topic },
    /// A BRASS-issued WAS request executes at the WAS.
    WasExec {
        host: usize,
        /// The issuing application.
        app: AppId,
        token: FetchToken,
        request: WasRequest,
        attributed: Option<SimTime>,
    },
    /// The WAS response arrives back at the BRASS.
    WasReply {
        host: usize,
        app: AppId,
        token: FetchToken,
        response: WasResponse,
        attributed: Option<SimTime>,
    },
    /// An application timer fires.
    BrassTimer { host: usize, app: AppId, token: u64 },

    // ------------------------------------------------------------------
    // Frame transport, client → server.
    // ------------------------------------------------------------------
    /// A device frame arrives at its POP. Frames are boxed throughout the
    /// transport variants: one long-lived timer or in-flight frame per
    /// stream would otherwise inflate every `Ev` in the queue to the size
    /// of the fattest variant.
    AtPop { device: u64, frame: Box<Frame> },
    /// A frame arrives at a reverse proxy.
    AtProxy {
        proxy: usize,
        device: u64,
        frame: Box<Frame>,
    },
    /// A frame arrives at a BRASS host.
    AtBrass {
        host: usize,
        device: u64,
        frame: Box<Frame>,
    },

    // ------------------------------------------------------------------
    // Frame transport, server → client.
    // ------------------------------------------------------------------
    /// A response frame arrives at the stream's proxy on its way down.
    /// The proxy is resolved from the routing registry when the BRASS
    /// sends the frame; frames for devices with no known route are
    /// dropped at send time (they had nowhere to go).
    DownAtProxy {
        proxy: usize,
        /// The BRASS host that sent the frame; data flowing through the
        /// proxy credits this host's heartbeat monitor (a host drowning
        /// in load still proves liveness by the very frames it emits).
        host: usize,
        device: u64,
        frame: Box<Frame>,
        sent_at: SimTime,
    },
    /// A response frame arrives at the device's POP.
    DownAtPop {
        device: u64,
        frame: Box<Frame>,
        sent_at: SimTime,
    },
    /// A response frame arrives at the device.
    AtDevice {
        device: u64,
        frame: Box<Frame>,
        sent_at: SimTime,
    },

    // ------------------------------------------------------------------
    // Failures and maintenance.
    // ------------------------------------------------------------------
    /// A device's last-mile connection drops.
    DeviceDrop { device: u64 },
    /// A dropped device reconnects and resubscribes its streams.
    DeviceReconnect { device: u64, frames: Vec<Frame> },
    /// A BRASS redirects one stream to another host (load rebalancing).
    BrassRedirect {
        host: usize,
        device: u64,
        sid: StreamId,
        to_host: usize,
    },
    /// A BRASS host is drained for a software upgrade (proxies repair its
    /// streams onto other hosts).
    BrassUpgrade { host: usize },
    /// An upgraded BRASS host rejoins the routing pools.
    BrassHostBack { host: usize },
    /// A Pylon subscriber-KV node goes down / comes back.
    PylonNode { node: u64, up: bool },

    // ------------------------------------------------------------------
    // Chaos: unplanned failures and heartbeat-driven detection.
    // ------------------------------------------------------------------
    /// An *unplanned* BRASS host crash: its in-memory state dies and —
    /// unlike [`Ev::BrassUpgrade`] — nobody is told. Proxies learn only by
    /// missed heartbeat pongs.
    BrassCrash { host: usize },
    /// A crashed BRASS host comes back up (empty) and rejoins the pools.
    BrassRecover { host: usize },
    /// A reverse proxy goes dark (regional outage); POPs repair its
    /// streams onto surviving proxies.
    ProxyOutage { proxy: usize },
    /// A recovered reverse proxy rejoins its POPs.
    ProxyBack { proxy: usize },
    /// A device's last-mile link dies silently (no FIN): the server side
    /// learns only via POP heartbeats; the device reconnects with backoff.
    DeviceVanish { device: u64 },
    /// The heartbeat tick driving every proxy→BRASS (and optionally
    /// POP→device) monitor. Self-rescheduling.
    HeartbeatTick,
    /// A proxy's heartbeat ping arrives at a BRASS host; a dead host
    /// simply never answers.
    HbPingAtHost {
        proxy: usize,
        host: usize,
        token: u64,
    },
    /// A live BRASS host's heartbeat answer arrives back at the proxy.
    PongFromHost {
        proxy: usize,
        host: usize,
        token: u64,
    },
    /// A device's gap-detection backfill poll executes at the WAS,
    /// recovering updates lost on the last mile.
    WasBackfillExec { device: u64, sid: StreamId },

    // ------------------------------------------------------------------
    // Control messages between subsystems.
    // ------------------------------------------------------------------
    /// Pylon learns a BRASS host failed (heartbeat detection or planned
    /// drain) and purges its subscriptions.
    PylonHostFailed { host: usize },
    /// A proxy learns a BRASS host failed (planned drain) and repairs the
    /// streams it had routed there.
    ProxyHostFailed { proxy: usize, host: usize },
    /// A proxy learns a BRASS host (re)joined and adds it to its pool.
    ProxyAddHost { proxy: usize, host: usize },
    /// A proxy observes its connections to a revived BRASS host reset:
    /// the crashed process restarted inside the heartbeat miss window,
    /// so detection never fired, but the new incarnation holds none of
    /// the old streams. The proxy re-establishes them from stored state.
    ProxyHostRestarted { proxy: usize, host: usize },
    /// A POP learns a reverse proxy went dark and repairs its streams
    /// onto surviving proxies.
    PopProxyFailed { pop: usize, proxy: usize },
    /// A POP learns a reverse proxy recovered.
    PopAddProxy { pop: usize, proxy: usize },
    /// A proxy learns (from a POP) that a device disconnected and tears
    /// its streams down.
    ProxyDeviceGone { proxy: usize, device: u64 },
}

impl Ev {
    /// Checks every host, proxy, POP and Pylon-node index the event carries
    /// against the config: a restored queue must not hold an event that
    /// would index past a component vector when it runs.
    pub(super) fn check_indices(&self, config: &SystemConfig) -> Result<(), String> {
        let within = |what: &str, index: usize, len: u32| {
            if index < len as usize {
                Ok(())
            } else {
                Err(format!(
                    "queued event names {what} {index}, config has {len}"
                ))
            }
        };
        let host = |h: usize| within("host", h, config.brass_hosts);
        let proxy = |p: usize| within("proxy", p, config.proxies);
        let pop = |p: usize| within("POP", p, config.pops);
        match *self {
            Ev::PylonDeliverHost { host: h, .. }
            | Ev::PylonSubscribeExec { host: h, .. }
            | Ev::PylonUnsubscribeExec { host: h, .. }
            | Ev::WasExec { host: h, .. }
            | Ev::WasReply { host: h, .. }
            | Ev::BrassTimer { host: h, .. }
            | Ev::AtBrass { host: h, .. }
            | Ev::BrassUpgrade { host: h }
            | Ev::BrassHostBack { host: h }
            | Ev::BrassCrash { host: h }
            | Ev::BrassRecover { host: h }
            | Ev::PylonHostFailed { host: h } => host(h),
            Ev::BrassRedirect {
                host: h, to_host, ..
            } => host(h).and(host(to_host)),
            Ev::AtProxy { proxy: p, .. }
            | Ev::ProxyOutage { proxy: p }
            | Ev::ProxyBack { proxy: p }
            | Ev::ProxyDeviceGone { proxy: p, .. } => proxy(p),
            Ev::DownAtProxy {
                proxy: p, host: h, ..
            }
            | Ev::HbPingAtHost {
                proxy: p, host: h, ..
            }
            | Ev::PongFromHost {
                proxy: p, host: h, ..
            }
            | Ev::ProxyHostFailed { proxy: p, host: h }
            | Ev::ProxyAddHost { proxy: p, host: h }
            | Ev::ProxyHostRestarted { proxy: p, host: h } => proxy(p).and(host(h)),
            Ev::PopProxyFailed { pop: q, proxy: p } | Ev::PopAddProxy { pop: q, proxy: p } => {
                pop(q).and(proxy(p))
            }
            Ev::PylonNode { node, .. } => {
                let node = usize::try_from(node).unwrap_or(usize::MAX);
                within("Pylon node", node, config.pylon.kv_nodes)
            }
            Ev::DeviceSubscribe { .. }
            | Ev::DeviceCancel { .. }
            | Ev::WasMutationExec { .. }
            | Ev::PylonPublish { .. }
            | Ev::TaoReplicate { .. }
            | Ev::AtPop { .. }
            | Ev::DownAtPop { .. }
            | Ev::AtDevice { .. }
            | Ev::DeviceDrop { .. }
            | Ev::DeviceReconnect { .. }
            | Ev::DeviceVanish { .. }
            | Ev::HeartbeatTick
            | Ev::WasBackfillExec { .. } => Ok(()),
        }
    }
}

// Every pending queue entry pays this.
const _: () = assert!(std::mem::size_of::<Ev>() == 72);

/// One-line rendering of an event for the bisect event log, truncated so a
/// fat payload can't bloat the log.
pub(super) fn ev_summary(ev: &Ev) -> String {
    let mut s = format!("{ev:?}");
    const MAX: usize = 160;
    if s.len() > MAX {
        let mut cut = MAX;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push('…');
    }
    s
}

// One tag byte per variant, then the fields in declaration order. Tags are
// part of the snapshot format: 38 was retired and `ProxyHostRestarted`
// took 39 when it was added between two older variants.
snap_enum!(Ev {
    0 => DeviceSubscribe { device, header },
    1 => DeviceCancel { device, sid },
    2 => WasMutationExec { gql, app },
    3 => PylonPublish { event },
    4 => PylonDeliverHost { host, event },
    5 => TaoReplicate { event },
    6 => PylonSubscribeExec { host, topic, attempt },
    7 => PylonUnsubscribeExec { host, topic },
    8 => WasExec { host, app, token, request, attributed },
    9 => WasReply { host, app, token, response, attributed },
    10 => BrassTimer { host, app, token },
    11 => AtPop { device, frame },
    12 => AtProxy { proxy, device, frame },
    13 => AtBrass { host, device, frame },
    14 => DownAtProxy { proxy, host, device, frame, sent_at },
    15 => DownAtPop { device, frame, sent_at },
    16 => AtDevice { device, frame, sent_at },
    17 => DeviceDrop { device },
    18 => DeviceReconnect { device, frames },
    19 => BrassRedirect { host, device, sid, to_host },
    20 => BrassUpgrade { host },
    21 => BrassHostBack { host },
    22 => PylonNode { node, up },
    23 => BrassCrash { host },
    24 => BrassRecover { host },
    25 => ProxyOutage { proxy },
    26 => ProxyBack { proxy },
    27 => DeviceVanish { device },
    28 => HeartbeatTick,
    29 => HbPingAtHost { proxy, host, token },
    30 => PongFromHost { proxy, host, token },
    31 => WasBackfillExec { device, sid },
    32 => PylonHostFailed { host },
    33 => ProxyHostFailed { proxy, host },
    34 => ProxyAddHost { proxy, host },
    39 => ProxyHostRestarted { proxy, host },
    35 => PopProxyFailed { pop, proxy },
    36 => PopAddProxy { pop, proxy },
    37 => ProxyDeviceGone { proxy, device },
});
