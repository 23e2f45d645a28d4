//! The full-system discrete-event simulation.
//!
//! [`SystemSim`] wires every sans-io component together and drives them
//! with the [`simkit`] event queue: each output effect becomes a future
//! event, delayed by a sampled hop latency from the
//! [`crate::latency::LatencyModel`]. All randomness flows
//! from one seed, so any run is exactly reproducible.
//!
//! # One queue
//!
//! The paper's unit of execution is a single-threaded event loop (§3.2),
//! and so is the simulator's: [`SystemSim`] owns one [`EventQueue`], one
//! engine RNG stream, one set of hosts, proxies, POPs and devices, the
//! attribution registries, the [`TraceLedger`] and one [`SystemMetrics`],
//! all plain fields reached through `&mut self`. `run_until` pops events
//! in `(time, seq)` order — `seq` being scheduling order, so same-instant
//! events run FIFO — and fires the periodic metrics tick ahead of any
//! event at the tick's own instant.
//!
//! Two RNG streams keep the engine apart from its driver: workload
//! generators and fixture setup draw from the master stream
//! ([`SystemSim::rng_mut`]); every hop latency, loss and jitter draw comes
//! from the engine stream forked off it once at construction. A driver
//! that injects its workload lazily therefore cannot perturb the engine.
//!
//! The result is a simulation whose outputs are a pure function of
//! `(config, seed, workload)` and of nothing about how the caller slices
//! time: `run_until(T)` equals any chunking of it, and a snapshot taken
//! between any two calls resumes to the same future.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

use brass::app::{DeviceId, FetchToken, WasRequest, WasResponse};
use brass::host::{BrassHost, HostConfig, HostEffect};
use burst::flow::{Admit, FlowWindow};
use burst::frame::{Delta, FlowStatus, Frame, StreamId};
use burst::json::Json;
use edge::device::{Device, DeviceOutput};
use edge::pop::{Pop, PopEffect};
use edge::proxy::{ProxyEffect, ReverseProxy};
use pylon::{HostId, PylonCluster, Topic};
use simkit::fxhash::{FxHashMap, FxHashSet};
use simkit::queue::EventQueue;
use simkit::rng::DetRng;
use simkit::snap::{self, Fp64, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop, HopOutcome, TraceId, TraceLedger};
use simkit::{snap_enum, snap_struct};
use tao::{ObjectId, Tao};
use was::service::{Rv, WebApplicationServer};
use was::UpdateEvent;

use crate::config::{LinkClass, SystemConfig};
use crate::latency::LatencyModel;
use crate::metrics::SystemMetrics;

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
    fn note(&mut self, ev: &Ev) {
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
    fn mix_fp(&self, fp: &mut Fp64) {
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
enum Ev {
    // ------------------------------------------------------------------
    // Workload.
    // ------------------------------------------------------------------
    /// A device opens a new request-stream with this header.
    DeviceSubscribe { device: u64, header: Json },
    /// A device cancels a stream.
    DeviceCancel { device: u64, sid: StreamId },
    /// A device issues a GraphQL mutation (already includes last-mile
    /// latency; `app` classifies it for metrics).
    WasMutationExec { gql: String, app: App },

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
        /// The issuing application, by the name the host registered it
        /// under (a `Copy` handle: queued events never own a string).
        app: App,
        token: FetchToken,
        request: WasRequest,
        attributed: Option<SimTime>,
    },
    /// The WAS response arrives back at the BRASS.
    WasReply {
        host: usize,
        app: App,
        token: FetchToken,
        response: WasResponse,
        attributed: Option<SimTime>,
    },
    /// An application timer fires.
    BrassTimer { host: usize, app: App, token: u64 },

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

/// An application name as events carry it: the `&'static str` every host
/// registers the application under, which is also the label every
/// `schedule_mutation` call site passes.
#[derive(Clone, Copy, Debug)]
struct App(&'static str);

/// The set of names is closed, so an unknown one means the bytes don't
/// describe a world this build can produce, and the restore fails rather
/// than guessing.
impl Snap for App {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self.0);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let name = r.get_str()?;
        [
            "lvc",
            "typing",
            "active_status",
            "stories",
            "messenger",
            "likes",
            "notifications",
        ]
        .into_iter()
        .find(|s| *s == name)
        .map(App)
        .ok_or_else(|| SnapError::Invalid(format!("unknown application {name:?}")))
    }
}

/// One-line rendering of an event for the bisect event log, truncated so a
/// fat payload can't bloat the log.
fn ev_summary(ev: &Ev) -> String {
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

/// A device's protocol machine, either live or parked in its compact
/// hibernation form.
///
/// Parking and rehydrating are pure data transforms ([`Device::hibernate`]
/// / [`Device::rehydrate`]): no RNG draws, no scheduling, no observable
/// state change — so whether a device happens to be parked when an event
/// arrives can never perturb results, only resident bytes.
enum DeviceSlot {
    Live(Device),
    Parked(Box<[u8]>),
}

struct DeviceState {
    slot: DeviceSlot,
    link: LinkClass,
    /// Interned header language: an index into [`SystemSim`]'s lang table
    /// (devices overwhelmingly share a handful of languages, so a u16 id
    /// replaces a per-device heap `String`).
    lang: u16,
    connected: bool,
    /// Consecutive recent drops, driving exponential reconnect backoff.
    drop_streak: u32,
    /// When the last drop happened (streaks decay after quiet periods).
    last_drop_at: SimTime,
    /// Earliest time the next downstream frame may reach the device. The
    /// device ↔ POP link is one ordered connection, so frames must not
    /// overtake each other just because their latency samples happened to
    /// invert — a reordered reliable-app frame would be discarded as
    /// stale, turning a latency fluke into a lost message.
    next_arrival: SimTime,
    /// Egress flow-control window over the last mile: data bytes put on
    /// the wire and not yet arrived. Sized by
    /// `config.egress_window_bytes` (0 = flow control off).
    flow: FlowWindow,
    /// Streams told `FlowStatus::Degraded` and still owed their terminal
    /// `Recovered` once the window drains.
    degraded_sids: Vec<StreamId>,
    /// Frames (data *and* control) currently on the wire toward the
    /// device — the POP-egress queue depth.
    inflight_frames: u64,
}

/// What the simulator keeps between one device's park and the next one's
/// wake, so the wake-handle-park round trip of a delivered frame reuses
/// buffers instead of building and dropping a machine and a blob each time.
#[derive(Default)]
struct ParkScratch {
    /// The machine of the last device to park; the next wake rehydrates
    /// into it (its stream table and header buffers are reused).
    machine: Option<Device>,
    /// The blob the last woken device came out of. A device that parks at
    /// that length — the usual case, only `last_seq` digits moved — is
    /// frozen into it in place.
    blob: Box<[u8]>,
    /// Where a parking device is frozen before its length is known.
    frozen: Vec<u8>,
}

impl DeviceState {
    /// The live device machine, rehydrating first if parked. `id` is the
    /// map key (not stored in the state — that would duplicate it).
    fn wake(&mut self, id: u64, park: &mut ParkScratch) -> &mut Device {
        if let DeviceSlot::Parked(blob) = &mut self.slot {
            let mut machine = park.machine.take().unwrap_or_else(|| Device::new(id));
            machine.rehydrate_from(id, blob);
            park.blob = std::mem::take(blob);
            self.slot = DeviceSlot::Live(machine);
        }
        match &mut self.slot {
            DeviceSlot::Live(d) => d,
            DeviceSlot::Parked(_) => unreachable!("rehydrated above"),
        }
    }

    /// Visits the open stream ids, oldest first, without waking a parked
    /// device (the metrics tick peeks the frozen blob instead of
    /// rehydrating the whole fleet) and without allocating.
    fn for_each_open_sid(&self, visit: impl FnMut(StreamId)) {
        match &self.slot {
            DeviceSlot::Live(d) => d.iter_open_sids().for_each(visit),
            DeviceSlot::Parked(blob) => Device::frozen_open_sids(blob).for_each(visit),
        }
    }

    /// Open stream ids without waking a parked device.
    fn open_sids(&self) -> Vec<StreamId> {
        let mut sids = Vec::new();
        self.for_each_open_sid(|sid| sids.push(sid));
        sids
    }

    /// Parks the device into its compact frozen form if it is quiescent:
    /// connected, nothing on the wire toward it, no flow-control episode
    /// in progress, and no recent drop streak (churning devices stay live
    /// to avoid park/rehydrate thrash around their reconnect bursts).
    /// Devices with no streams stay live too — an empty `Device` holds no
    /// heap at all, so its blob would cost more than it saves.
    fn maybe_park(&mut self, hibernation: bool, park: &mut ParkScratch) {
        if !hibernation
            || !self.connected
            || self.inflight_frames != 0
            || !self.degraded_sids.is_empty()
            || self.flow.in_flight() != 0
            || self.drop_streak != 0
        {
            return;
        }
        let DeviceSlot::Live(d) = &self.slot else {
            return;
        };
        if d.open_streams() == 0 {
            return;
        }
        d.hibernate_into(&mut park.frozen);
        let mut blob = std::mem::take(&mut park.blob);
        if blob.len() == park.frozen.len() {
            blob.copy_from_slice(&park.frozen);
        } else {
            blob = park.frozen.as_slice().into();
        }
        if let DeviceSlot::Live(machine) =
            std::mem::replace(&mut self.slot, DeviceSlot::Parked(blob))
        {
            park.machine = Some(machine);
        }
    }

    /// Writes the device into a snapshot. The protocol machine reuses the
    /// hibernation blob ([`Device::hibernate`] is total and lossless), with
    /// a tag remembering whether the resident form was live or parked —
    /// park state is pure memory shape, but preserving it keeps a resumed
    /// process's hibernation census identical to the original's.
    fn snap(&self, w: &mut SnapWriter) {
        match &self.slot {
            DeviceSlot::Live(d) => {
                w.put_u8(0);
                d.hibernate().snap(w);
            }
            DeviceSlot::Parked(blob) => {
                w.put_u8(1);
                blob.snap(w);
            }
        }
        self.link.snap(w);
        self.lang.snap(w);
        self.connected.snap(w);
        self.drop_streak.snap(w);
        self.last_drop_at.snap(w);
        self.next_arrival.snap(w);
        self.flow.snap(w);
        self.degraded_sids.snap(w);
        self.inflight_frames.snap(w);
    }

    /// Reads a device back. `id` is the map key (the blob doesn't store
    /// it, mirroring [`DeviceState::wake`]). This is the one place a
    /// hibernation blob enters the process from outside, so it is checked
    /// here, for both slot kinds, and trusted everywhere after.
    fn restore(id: u64, r: &mut SnapReader<'_>) -> SnapResult<DeviceState> {
        let slot_tag = r.get_u8()?;
        let blob = Box::<[u8]>::restore(r)?;
        Device::check_frozen(&blob).map_err(|e| SnapError::Invalid(format!("device {id}: {e}")))?;
        let slot = match slot_tag {
            0 => DeviceSlot::Live(Device::rehydrate(id, &blob)),
            1 => DeviceSlot::Parked(blob),
            other => {
                return Err(SnapError::Invalid(format!(
                    "unknown device slot tag {other}"
                )))
            }
        };
        Ok(DeviceState {
            slot,
            link: Snap::restore(r)?,
            lang: Snap::restore(r)?,
            connected: Snap::restore(r)?,
            drop_streak: Snap::restore(r)?,
            last_drop_at: Snap::restore(r)?,
            next_arrival: Snap::restore(r)?,
            flow: Snap::restore(r)?,
            degraded_sids: Snap::restore(r)?,
            inflight_frames: Snap::restore(r)?,
        })
    }
}

// ----------------------------------------------------------------------
// Attribution and routing registries.
// ----------------------------------------------------------------------

/// The registries handlers consult to attribute frames to traces and apps
/// and to route them back down. Grouped so a handler can walk a frame's
/// traces while it writes the ledger and the metrics.
#[derive(Default)]
struct Registries {
    /// object → trace of the most recent update event referencing it, used
    /// to attribute payload fetches, frames, and renders back to traces.
    /// (Updates sharing an object — e.g. one message fanned to N mailboxes —
    /// resolve to the most recent trace.)
    object_trace: FxHashMap<ObjectId, TraceId>,
    /// (topic, object) → trace. One mutation can fan one object to many
    /// topics as *distinct* update events (a message separately added to
    /// each member mailbox, §4); deliveries resolved through the stream's
    /// subscription topic land on the exact per-mailbox trace instead of
    /// collapsing onto the object's most recent one.
    topic_object_trace: FxHashMap<(Topic, ObjectId), TraceId>,
    /// Streams subscribed per topic (Fig. 7 publication accounting).
    topic_streams: FxHashMap<Topic, Vec<(u64, StreamId)>>,
    /// Reverse of [`Self::topic_streams`]: the topic each open stream
    /// subscribed to; powers per-frame app attribution.
    stream_topic: FxHashMap<(u64, StreamId), Topic>,
    /// device → proxy carrying its streams (learned from POP routing).
    device_proxy: FxHashMap<u64, usize>,
}

// `topic_streams` values are verbatim: publication fan-out walks them in
// push order.
snap_struct!(Registries {
    object_trace,
    topic_object_trace,
    topic_streams,
    stream_topic,
    device_proxy
});

impl Registries {
    /// A stream closed: drop its topic registration on both sides.
    fn remove_stream(&mut self, device: u64, sid: StreamId) {
        if let Some(topic) = self.stream_topic.remove(&(device, sid)) {
            if let Some(streams) = self.topic_streams.get_mut(&topic) {
                streams.retain(|&(d, s)| !(d == device && s == sid));
            }
        }
    }
}

/// Restores a fixed-length component vector in place (the config fixed its
/// length), requiring each slot to hold the component whose id is its
/// index.
fn restore_slots<T: Snap>(
    r: &mut SnapReader<'_>,
    slots: &mut [T],
    what: &str,
    id: impl Fn(&T) -> u32,
) -> SnapResult<()> {
    for (i, slot) in slots.iter_mut().enumerate() {
        *slot = T::restore(r)?;
        if id(slot) != i as u32 {
            return Err(SnapError::Invalid(format!(
                "{what} slot {i} holds id {}",
                id(slot)
            )));
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The simulation: one event loop over the whole system.
// ----------------------------------------------------------------------

/// The full-system simulation: every component, the registries, the
/// ledger, and the one event queue that drives them. See the module docs.
pub struct SystemSim {
    config: SystemConfig,
    latency: LatencyModel,
    /// The master RNG: workload generators and fixture setup draw from it.
    rng: DetRng,
    /// The engine's stream, forked off the master once at construction:
    /// every hop latency, loss and jitter draw.
    engine_rng: DetRng,
    queue: EventQueue<Ev>,
    /// The high-water mark of `run_until`.
    now: SimTime,
    next_metrics_tick: SimTime,

    /// The web application servers + TAO.
    was: WebApplicationServer,
    pylon: PylonCluster,
    hosts: Vec<BrassHost>,
    proxies: Vec<ReverseProxy>,
    pops: Vec<Pop>,
    /// Liveness per BRASS host. A crash is invisible to Pylon deliveries —
    /// the rest of the system must *detect* the death through missed
    /// heartbeats, never observe this flag directly; only a recovering
    /// proxy rebuilding its roster reads it.
    host_up: Vec<bool>,
    /// Liveness per reverse proxy.
    proxy_up: Vec<bool>,
    /// The overload model's backlog clock per BRASS host: the instant the
    /// host finishes everything admitted so far. Events arriving while
    /// `busy_until > now` queue behind the backlog (and are shed once the
    /// mailbox cap is hit). Unused (stays ZERO) when
    /// `config.brass_service_us == 0`.
    host_busy_until: Vec<SimTime>,

    /// The device fleet, keyed by uid. A sorted vec, not a hash map: the
    /// fleet is built in ascending-id order, lives for the whole run, and
    /// at seven figures a hash table's empty buckets alone cost hundreds
    /// of megabytes (entries are 144 B each).
    devices: simkit::collections::SortedVecMap<u64, DeviceState>,
    reg: Registries,
    /// The per-update hop ledger: every admitted update's journey through
    /// write → Pylon → BRASS → BURST → device, with drop attribution, in
    /// execution order.
    ledger: TraceLedger,
    /// (device, sid) → traces lost in delivery to that stream, recoverable
    /// by a WAS backfill poll (gap detection or reconnect).
    pending_backfill: FxHashMap<(u64, StreamId), Vec<TraceId>>,
    /// Pylon event delivery time per (host, object), for BRASS-latency
    /// attribution of later payload fetches.
    object_delivered: FxHashMap<(usize, ObjectId), SimTime>,
    /// Subscription start times (device-observed subscribe latency).
    sub_started: FxHashMap<(u64, StreamId), SimTime>,

    metrics: SystemMetrics,
    event_stats: EventStats,
    /// Decisions seen at the last metrics tick (for per-bucket deltas).
    decisions_at_tick: u64,
    /// Scenario bookkeeping: predicted next stream id per device.
    scenario_sids: FxHashMap<u64, u64>,
    /// The interned header-language table; [`DeviceState::lang`] indexes
    /// into it.
    langs: Vec<String>,
    /// Per-metrics-tick rolling run fingerprints `(tick, fp)` accumulated
    /// since construction (or since the snapshot this run resumed from,
    /// which carries the earlier ones).
    fingerprints: Vec<(SimTime, u64)>,
    /// Metrics ticks fired so far (the snapshot cadence counter).
    tick_index: u64,
    /// Snapshot policy: capture every N metrics ticks (0 = never).
    snapshot_every: u64,
    /// Keep policy-captured snapshots in memory (the bisect harness
    /// restores from them).
    snapshot_keep: bool,
    /// Also write policy-captured snapshots into this directory.
    snapshot_dir: Option<PathBuf>,
    /// In-memory snapshots captured by the policy: `(tick, sealed bytes)`.
    snapshots: Vec<(SimTime, Vec<u8>)>,
    /// Opaque harness state carried inside snapshots: the driving bench
    /// serializes its workload cursors here so a resumed process can pick
    /// up injection exactly where the original left off.
    driver_blob: Vec<u8>,
    /// Per-event log for divergence bisection: every popped event's
    /// `(time, summary)` in execution order, kept only while a bisect
    /// harness switches it on ([`SystemSim::set_event_log`]).
    evlog: Option<Vec<(SimTime, String)>>,

    // Scratch: empty between events, kept for their capacity. What a
    // component emits for one event is collected here, turned into
    // scheduled events, and the buffer handed back.
    host_fx: Vec<HostEffect>,
    proxy_fx: Vec<ProxyEffect>,
    pop_fx: Vec<PopEffect>,
    device_out: Vec<DeviceOutput>,
    park: ParkScratch,
}

impl SystemSim {
    /// Whether a trace already reached its device (rendered or
    /// backfilled).
    fn trace_resolved(&self, trace: TraceId) -> bool {
        self.ledger.is_delivered(trace) || self.ledger.is_backfilled(trace)
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::DeviceSubscribe { device, header } => self.on_device_subscribe(now, device, header),
            Ev::DeviceCancel { device, sid } => self.on_device_cancel(now, device, sid),
            Ev::WasMutationExec { gql, app } => self.on_was_mutation(now, &gql, app.0),
            Ev::PylonPublish { event } => self.on_pylon_publish(now, *event),
            Ev::PylonDeliverHost { host, event } => self.on_pylon_deliver(now, host, event),
            Ev::TaoReplicate { event } => self.was.tao_mut().apply_replication(&event),
            Ev::PylonSubscribeExec {
                host,
                topic,
                attempt,
            } => self.on_pylon_subscribe_exec(now, host, topic, attempt),
            Ev::PylonUnsubscribeExec { host, topic } => {
                let _ = self.pylon.unsubscribe(&topic, HostId(host as u32));
            }
            Ev::WasExec {
                host,
                app,
                token,
                request,
                attributed,
            } => self.on_was_exec(now, host, app.0, token, request, attributed),
            Ev::WasReply {
                host,
                app,
                token,
                response,
                attributed,
            } => self.on_was_reply(now, host, app.0, token, response, attributed),
            Ev::BrassTimer { host, app, token } => {
                self.drive_host(now, host, None, |h, fx| {
                    h.on_timer_into(app.0, token, now, fx)
                });
            }
            Ev::AtPop { device, frame } => self.on_at_pop(now, device, frame),
            Ev::AtProxy {
                proxy,
                device,
                frame,
            } => self.on_at_proxy(now, proxy, device, frame),
            Ev::AtBrass {
                host,
                device,
                frame,
            } => self.on_at_brass(now, host, device, frame),
            Ev::DownAtProxy {
                proxy,
                host,
                device,
                frame,
                sent_at,
            } => self.on_down_at_proxy(now, proxy, host, device, frame, sent_at),
            Ev::DownAtPop {
                device,
                frame,
                sent_at,
            } => self.on_down_at_pop(now, device, frame, sent_at),
            Ev::AtDevice {
                device,
                frame,
                sent_at,
            } => self.on_at_device(now, device, &frame, sent_at),
            Ev::DeviceDrop { device } => self.on_device_drop(now, device),
            Ev::DeviceReconnect { device, frames } => self.on_device_reconnect(now, device, frames),
            Ev::BrassRedirect {
                host,
                device,
                sid,
                to_host,
            } => self.drive_host(now, host, None, |h, fx| {
                h.redirect_stream_into(DeviceId(device), sid, to_host as u32, now, fx)
            }),
            Ev::BrassUpgrade { host } => self.on_brass_upgrade(now, host),
            Ev::BrassHostBack { host } => self.on_brass_host_back(now, host),
            Ev::PylonNode { node, up } => {
                if up {
                    self.pylon.node_up(node);
                } else {
                    self.pylon.node_down(node);
                }
            }
            Ev::BrassCrash { host } => self.on_brass_crash(now, host),
            Ev::BrassRecover { host } => self.on_brass_recover(now, host),
            Ev::ProxyOutage { proxy } => self.on_proxy_outage(now, proxy),
            Ev::ProxyBack { proxy } => self.on_proxy_back(now, proxy),
            Ev::DeviceVanish { device } => self.on_device_vanish(now, device),
            Ev::HeartbeatTick => self.on_heartbeat_tick(now),
            Ev::HbPingAtHost { proxy, host, token } => {
                // A dead host simply never answers. A *live but overloaded*
                // host answers late — the pong waits behind the ingress
                // backlog, which is exactly how overload masquerades as
                // death to a naive heartbeat monitor.
                if host < self.host_up.len() && self.host_up[host] {
                    let qdelay = self
                        .host_admit(now, host, false)
                        .unwrap_or(SimDuration::ZERO);
                    let back = self.latency.proxy_brass(&mut self.engine_rng);
                    self.queue
                        .schedule(now + qdelay + back, Ev::PongFromHost { proxy, host, token });
                }
            }
            Ev::PongFromHost { proxy, host, token } => {
                if self.proxy_up[proxy] {
                    self.proxies[proxy].on_host_pong(host as u32, token);
                }
            }
            Ev::PylonHostFailed { host } => self.pylon.host_failed(HostId(host as u32)),
            Ev::ProxyHostFailed { proxy, host } => self.on_proxy_host_failed(now, proxy, host),
            Ev::ProxyAddHost { proxy, host } => self.on_proxy_add_host(now, proxy, host),
            Ev::ProxyHostRestarted { proxy, host } => {
                self.on_proxy_host_restarted(now, proxy, host)
            }
            Ev::PopProxyFailed { pop, proxy } => {
                self.drive_pop(now, pop, |p, fx| p.on_proxy_failed_into(proxy as u32, fx));
            }
            Ev::PopAddProxy { pop, proxy } => {
                self.drive_pop(now, pop, |p, fx| p.add_proxy_into(proxy as u32, fx));
            }
            Ev::ProxyDeviceGone { proxy, device } => {
                if proxy < self.proxies.len() && self.proxy_up[proxy] {
                    self.drive_proxy(now, proxy, |p, fx| {
                        p.on_device_disconnected_into(device, fx)
                    });
                }
            }
            Ev::WasBackfillExec { device, sid } => self.on_was_backfill(now, device, sid),
        }
    }
}

impl SystemSim {
    /// Re-freezes the device in fleet slot `slot` if it is eligible (see
    /// [`DeviceState::maybe_park`]).
    fn park(&mut self, slot: usize) {
        let hibernation = self.config.hibernation;
        let state = self.devices.at_mut(slot);
        state.maybe_park(hibernation, &mut self.park);
    }

    /// Runs one BRASS host handler into the effect scratch and
    /// schedules what it emitted as of `at`.
    fn drive_host(
        &mut self,
        at: SimTime,
        host: usize,
        attributed: Option<SimTime>,
        handler: impl FnOnce(&mut BrassHost, &mut Vec<HostEffect>),
    ) {
        let mut fx = std::mem::take(&mut self.host_fx);
        handler(&mut self.hosts[host], &mut fx);
        self.process_host_effects(at, host, &mut fx, attributed);
        self.host_fx = fx;
    }

    /// [`Self::drive_host`] for a reverse proxy.
    fn drive_proxy(
        &mut self,
        now: SimTime,
        proxy: usize,
        handler: impl FnOnce(&mut ReverseProxy, &mut Vec<ProxyEffect>),
    ) {
        let mut fx = std::mem::take(&mut self.proxy_fx);
        handler(&mut self.proxies[proxy], &mut fx);
        self.process_proxy_effects(now, proxy, &mut fx);
        self.proxy_fx = fx;
    }

    /// [`Self::drive_host`] for a POP.
    fn drive_pop(
        &mut self,
        now: SimTime,
        pop: usize,
        handler: impl FnOnce(&mut Pop, &mut Vec<PopEffect>),
    ) {
        let mut fx = std::mem::take(&mut self.pop_fx);
        handler(&mut self.pops[pop], &mut fx);
        self.process_pop_effects(now, &mut fx);
        self.pop_fx = fx;
    }

    fn on_device_subscribe(&mut self, now: SimTime, device: u64, header: Json) {
        let Some(state) = self.devices.get_mut(&device) else {
            return;
        };
        if !state.connected {
            return;
        }
        // Device stream cap ("each mobile app up to 20 concurrent
        // streams"): the oldest stream makes room for the new one.
        let evict: Vec<StreamId> = {
            let open = state.open_sids();
            let over = (open.len() + 1).saturating_sub(self.config.max_streams_per_device);
            open.into_iter().take(over).collect()
        };
        for sid in evict {
            self.on_device_cancel(now, device, sid);
        }
        let Some(state) = self.devices.get_mut(&device) else {
            return;
        };
        // Fig. 7 registry: which topic does this stream's subscription
        // target? Resolved before the header moves into the stream.
        let sub_topic = brass::resolve::resolve(&header).ok().map(|sub| sub.topic);
        let (sid, frame) = state
            .wake(device, &mut self.park)
            .open_stream(header, Vec::new());
        let link = state.link;
        state.maybe_park(self.config.hibernation, &mut self.park);
        self.metrics.subscriptions.inc();
        self.metrics.ts_subscriptions.inc(now);
        self.metrics.stream_opened(device, sid, now);
        self.sub_started.insert((device, sid), now);
        if let Some(topic) = sub_topic {
            self.reg
                .topic_streams
                .entry(topic)
                .or_default()
                .push((device, sid));
            self.reg.stream_topic.insert((device, sid), topic);
        }
        let delay = self.latency.last_mile(link, &mut self.engine_rng);
        self.queue.schedule(
            now + delay,
            Ev::AtPop {
                device,
                frame: frame.into(),
            },
        );
    }

    fn on_device_cancel(&mut self, now: SimTime, device: u64, sid: StreamId) {
        let Some(state) = self.devices.get_mut(&device) else {
            return;
        };
        let frame = state.wake(device, &mut self.park).cancel_stream(sid);
        let link = state.link;
        state.maybe_park(self.config.hibernation, &mut self.park);
        let Some(frame) = frame else {
            return;
        };
        self.metrics.cancellations.inc();
        self.metrics.stream_closed(device, sid, now);
        self.reg.remove_stream(device, sid);
        let delay = self.latency.last_mile(link, &mut self.engine_rng);
        self.queue.schedule(
            now + delay,
            Ev::AtPop {
                device,
                frame: frame.into(),
            },
        );
    }

    fn on_was_mutation(&mut self, now: SimTime, gql: &str, app: &'static str) {
        let Ok(outcome) = self.was.execute_mutation(gql, now.as_millis()) else {
            return;
        };
        self.metrics.mutations.inc();
        for rep in outcome.replication {
            let d = self.latency.cross_region(&mut self.engine_rng);
            self.queue
                .schedule(now + d, Ev::TaoReplicate { event: rep.into() });
        }
        let was_delay = self
            .latency
            .was_mutation(outcome.was_latency_ms, &mut self.engine_rng);
        self.metrics
            .app(app)
            .was_handling
            .record(was_delay.as_millis_f64());
        for event in outcome.events {
            // The write committed: open the update's trace.
            let trace = TraceId(event.id);
            self.reg.object_trace.insert(event.object, trace);
            self.reg
                .topic_object_trace
                .insert((event.topic, event.object), trace);
            self.ledger
                .record(trace, Hop::TaoCommit, now, HopOutcome::Ok);
            self.queue.schedule(
                now + was_delay,
                Ev::PylonPublish {
                    event: event.into(),
                },
            );
        }
    }

    fn on_pylon_publish(&mut self, now: SimTime, event: UpdateEvent) {
        self.metrics.publications.inc();
        self.metrics.ts_publications.inc(now);
        for &(d, s) in self
            .reg
            .topic_streams
            .get(&event.topic)
            .into_iter()
            .flatten()
        {
            self.metrics.publication_for_stream(d, s);
        }
        let outcome = self.pylon.publish(&event.topic, event.id);
        let subscribers = outcome.fast_forwards.len() + outcome.late_forwards.len();
        let publish_outcome = if subscribers == 0 {
            HopOutcome::Dropped(DropReason::NoSubscribers)
        } else {
            HopOutcome::Ok
        };
        self.ledger
            .record(TraceId(event.id), Hop::PylonPublish, now, publish_outcome);
        let fanout = self.latency.pylon_fanout(subscribers, &mut self.engine_rng);
        if subscribers < 10_000 {
            self.metrics
                .pylon_fanout_small
                .record(fanout.as_millis_f64());
        } else {
            self.metrics
                .pylon_fanout_large
                .record(fanout.as_millis_f64());
        }
        // Fan-out pressure: one publish puts `subscribers` deliveries in
        // flight at once — the Pylon-stage queue depth under a hot topic.
        self.metrics.q_pylon_fanout.enqueued_n(subscribers as u64);
        self.metrics
            .q_pylon_fanout
            .observe_depth(now, subscribers as u64);
        // One allocation, N pointers: the fan-out shares the event.
        let event = Arc::new(event);
        for host in outcome.fast_forwards {
            self.queue.schedule(
                now + fanout,
                Ev::PylonDeliverHost {
                    host: host.0 as usize,
                    event: Arc::clone(&event),
                },
            );
        }
        for host in outcome.late_forwards {
            let extra = self.latency.pylon_late_extra(&mut self.engine_rng);
            self.queue.schedule(
                now + fanout + extra,
                Ev::PylonDeliverHost {
                    host: host.0 as usize,
                    event: Arc::clone(&event),
                },
            );
        }
    }

    fn on_pylon_deliver(&mut self, now: SimTime, host: usize, event: Arc<UpdateEvent>) {
        if host >= self.hosts.len() {
            return;
        }
        self.metrics.q_pylon_fanout.dequeued_n(1);
        if !self.host_up[host] {
            // Pylon has not yet purged a crashed host's subscriptions
            // (that happens when a proxy's heartbeats detect the death);
            // events fanned to it meanwhile die here.
            self.ledger.record(
                TraceId(event.id),
                Hop::PylonDeliver,
                now,
                HopOutcome::Dropped(DropReason::HostDown),
            );
            return;
        }
        // The host's ingress mailbox: events beyond the service rate
        // queue; events beyond the mailbox cap are shed — attributed, so
        // the ledger never shows unaccounted loss under overload.
        let Some(qdelay) = self.host_admit(now, host, true) else {
            self.ledger.record(
                TraceId(event.id),
                Hop::PylonDeliver,
                now,
                HopOutcome::Dropped(DropReason::MailboxOverflow),
            );
            return;
        };
        self.object_delivered.insert((host, event.object), now);
        self.ledger
            .record(TraceId(event.id), Hop::PylonDeliver, now, HopOutcome::Ok);
        // Effects materialise once the host works through its backlog;
        // attribution stays at `now`, so the brass_processing histogram
        // captures the queueing delay — that's the latency curve bending
        // upward as offered load approaches capacity.
        self.drive_host(now + qdelay, host, Some(now), |h, fx| {
            h.on_pylon_event_into(&event, now, fx)
        });
    }

    fn on_pylon_subscribe_exec(&mut self, now: SimTime, host: usize, topic: Topic, attempt: u32) {
        match self.pylon.subscribe(&topic, HostId(host as u32)) {
            Ok(()) => {}
            Err(_) => {
                self.metrics.quorum_failures.inc();
                // CP subscribe failed; BRASS retries with capped
                // exponential backoff until quorum returns.
                self.queue.schedule(
                    now + SystemSim::quorum_retry_backoff(attempt),
                    Ev::PylonSubscribeExec {
                        host,
                        topic,
                        attempt: attempt.saturating_add(1),
                    },
                );
            }
        }
    }

    fn on_was_exec(
        &mut self,
        now: SimTime,
        host: usize,
        app: &'static str,
        token: FetchToken,
        request: WasRequest,
        attributed: Option<SimTime>,
    ) {
        let response = match request {
            WasRequest::FetchObject { viewer, object } => {
                let response = match self.was.fetch_for_viewer(0, viewer, object) {
                    Ok((payload, _)) => WasResponse::Payload(payload.into()),
                    Err(was::WasError::PrivacyDenied) => WasResponse::Denied,
                    Err(_) => WasResponse::NotFound,
                };
                // The payload fetch is the final BRASS-processing gate:
                // the WAS privacy check decides whether the update survives.
                if let Some(&trace) = self.reg.object_trace.get(&object) {
                    let outcome = match &response {
                        WasResponse::Payload(_) => HopOutcome::Ok,
                        WasResponse::Denied => HopOutcome::Dropped(DropReason::PrivacyBlock),
                        _ => HopOutcome::Dropped(DropReason::NotFound),
                    };
                    self.ledger.record(trace, Hop::BrassProcess, now, outcome);
                }
                response
            }
            WasRequest::Friends { uid } => WasResponse::Friends(self.was.friends_of(uid)),
            WasRequest::MailboxAfter { uid, after_seq } => {
                let q = match after_seq {
                    Some(a) => format!("{{ mailbox(uid: {uid}, afterSeq: {a}) }}"),
                    None => format!("{{ mailbox(uid: {uid}) }}"),
                };
                let entries = self
                    .was
                    .execute_query(0, &q)
                    .ok()
                    .and_then(|o| {
                        o.response.get("mailbox").map(|m| {
                            m.items()
                                .iter()
                                .filter_map(|e| {
                                    let seq = e.get("seq").and_then(Rv::as_int)? as u64;
                                    let obj = e.get("messageId").and_then(Rv::as_int)? as u64;
                                    Some((seq, ObjectId(obj)))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .unwrap_or_default();
                WasResponse::Mailbox(entries)
            }
        };
        let back = self.latency.brass_was_rtt(&mut self.engine_rng) / 2;
        self.queue.schedule(
            now + back,
            Ev::WasReply {
                host,
                app: App(app),
                token,
                response,
                attributed,
            },
        );
    }

    fn on_was_reply(
        &mut self,
        now: SimTime,
        host: usize,
        app: &'static str,
        token: FetchToken,
        response: WasResponse,
        attributed: Option<SimTime>,
    ) {
        self.drive_host(now, host, attributed, |h, fx| {
            h.on_was_response_into(app, token, response, now, fx)
        });
    }

    /// The M/D/1-style BRASS ingress model: each admitted piece of work
    /// costs `brass_service_us` of host time, so work arriving faster
    /// than the service rate queues behind the host's `busy_until` clock.
    ///
    /// Returns the queueing delay the arrival waits behind (`None` means
    /// the mailbox cap was hit and the arrival must be shed). With
    /// `charge == false` the arrival only *observes* the backlog (control
    /// frames and heartbeat pongs are delayed by the queue but don't
    /// consume a service slot). A no-op returning zero delay when the
    /// overload model is off (`brass_service_us == 0`).
    fn host_admit(&mut self, now: SimTime, host: usize, charge: bool) -> Option<SimDuration> {
        let service = self.config.brass_service_us;
        if service == 0 {
            return Some(SimDuration::ZERO);
        }
        let busy = self.host_busy_until[host];
        let backlog = busy.saturating_since(now);
        if !charge {
            return Some(backlog);
        }
        let depth = backlog.as_micros() / service;
        let cap = self.config.brass_mailbox_capacity;
        if cap > 0 && depth >= cap {
            self.metrics.q_brass_mailbox.observe_depth(now, depth);
            self.metrics.q_brass_mailbox.dropped_n(1);
            self.metrics.mailbox_sheds.inc();
            return None;
        }
        let start = if busy > now { busy } else { now };
        self.host_busy_until[host] = start + SimDuration::from_micros(service);
        self.metrics.q_brass_mailbox.enqueued_n(1);
        self.metrics.q_brass_mailbox.dequeued_n(1);
        self.metrics.q_brass_mailbox.observe_depth(now, depth + 1);
        Some(backlog)
    }

    /// Converts BRASS host effects into scheduled events, leaving
    /// `effects` empty.
    ///
    /// `attributed` carries the instant the update event arrived at the
    /// host, for the Fig. 9 "BRASS host processing" histogram.
    fn process_host_effects(
        &mut self,
        now: SimTime,
        host: usize,
        effects: &mut Vec<HostEffect>,
        attributed: Option<SimTime>,
    ) {
        // A storm drops one object from hundreds of buffers in a row.
        let mut last_drop: Option<(ObjectId, Option<TraceId>)> = None;
        for effect in effects.drain(..) {
            match effect {
                HostEffect::PylonSubscribe(topic) => {
                    let d = self.latency.sub_replication(&mut self.engine_rng);
                    self.metrics.sub_replication.record(d.as_millis_f64());
                    self.queue.schedule(
                        now + d,
                        Ev::PylonSubscribeExec {
                            host,
                            topic,
                            attempt: 0,
                        },
                    );
                }
                HostEffect::PylonUnsubscribe(topic) => {
                    let d = self.latency.sub_replication(&mut self.engine_rng);
                    self.queue
                        .schedule(now + d, Ev::PylonUnsubscribeExec { host, topic });
                }
                HostEffect::Was {
                    app,
                    token,
                    request,
                } => {
                    // Payload fetches inherit attribution from the event
                    // that referenced the object (covers buffered apps).
                    let attr = match &request {
                        WasRequest::FetchObject { object, .. } => self
                            .object_delivered
                            .get(&(host, *object))
                            .copied()
                            .or(attributed),
                        _ => attributed,
                    };
                    let d = self.latency.brass_was_rtt(&mut self.engine_rng) / 2;
                    self.queue.schedule(
                        now + d,
                        Ev::WasExec {
                            host,
                            app: App(app),
                            token,
                            request,
                            attributed: attr,
                        },
                    );
                }
                HostEffect::DropUpdate { object, reason } => {
                    let trace = match last_drop {
                        Some((last, trace)) if last == object => trace,
                        _ => self.reg.object_trace.get(&object).copied(),
                    };
                    last_drop = Some((object, trace));
                    if let Some(trace) = trace {
                        self.ledger.record(
                            trace,
                            Hop::BrassProcess,
                            now,
                            HopOutcome::Dropped(reason),
                        );
                    }
                }
                HostEffect::Send { device, frame } => {
                    let proc = self.latency.brass_processing(&mut self.engine_rng);
                    let send_at = now + proc;
                    for trace in frame_traces(&self.reg, device.0, &frame) {
                        self.ledger
                            .record(trace, Hop::BrassSend, send_at, HopOutcome::Ok);
                    }
                    if let Some(event_at) = attributed {
                        // Only data batches count as event processing.
                        if frame.update_payloads().next().is_some() {
                            let app_name = app_of_device_frame(&self.reg, device.0, &frame);
                            self.metrics
                                .app(&app_name)
                                .brass_processing
                                .record(send_at.saturating_since(event_at).as_millis_f64());
                        }
                    }
                    // The downstream route is resolved *at send time* from
                    // the routing registry; frames for devices with no known
                    // route die here (they had nowhere to go), exactly as
                    // they used to die unrouted at the proxy layer.
                    if let Some(&proxy) = self.reg.device_proxy.get(&device.0) {
                        let d = self.latency.proxy_brass(&mut self.engine_rng);
                        self.queue.schedule(
                            send_at + d,
                            Ev::DownAtProxy {
                                proxy,
                                host,
                                device: device.0,
                                frame,
                                sent_at: send_at,
                            },
                        );
                    }
                }
                HostEffect::Timer { at, app, token } => {
                    self.queue.schedule(
                        at,
                        Ev::BrassTimer {
                            host,
                            app: App(app),
                            token,
                        },
                    );
                }
            }
        }
    }

    /// Drops, with attribution, every update `frame` carries toward
    /// `device`, and — when the losing stream is known — remembers each
    /// trace so a later WAS backfill poll (gap detection or reconnect) can
    /// recover it.
    fn drop_frame(&mut self, now: SimTime, device: u64, frame: &Frame, hop: Hop, why: DropReason) {
        let sid = frame.sid();
        for trace in frame_traces(&self.reg, device, frame) {
            self.ledger
                .record(trace, hop, now, HopOutcome::Dropped(why));
            if let Some(sid) = sid {
                self.pending_backfill
                    .entry((device, sid))
                    .or_default()
                    .push(trace);
            }
        }
    }
}

/// Best-effort application attribution for a downstream frame: one
/// reverse-map lookup on the stream's registered topic. Runs twice per
/// delivered data frame, so the known families borrow their label;
/// only a family no app registered allocates.
fn app_of_device_frame(reg: &Registries, device: u64, frame: &Frame) -> Cow<'static, str> {
    let topic = frame
        .sid()
        .and_then(|sid| reg.stream_topic.get(&(device, sid)));
    let Some(topic) = topic else {
        return Cow::Borrowed("unknown");
    };
    Cow::Borrowed(match topic.family() {
        "LVC" => "lvc",
        "TI" => "typing",
        "Status" => "active_status",
        "Stories" => "stories",
        "Msgr" => "messenger",
        "Likes" => "likes",
        "Notif" => "notifications",
        other => return Cow::Owned(other.to_owned()),
    })
}

/// The trace ids of every update payload a frame carries, in batch
/// order. The owning stream's subscription topic disambiguates
/// fan-out: one mutation can reference the same object from many
/// topics under distinct traces (per-mailbox message adds).
fn frame_traces<'a>(
    reg: &'a Registries,
    device: u64,
    frame: &'a Frame,
) -> impl Iterator<Item = TraceId> + 'a {
    let topic = frame
        .sid()
        .and_then(|sid| reg.stream_topic.get(&(device, sid)).copied());
    frame
        .update_payloads()
        .filter_map(move |p| payload_trace(reg, topic, p))
}

/// Resolves an update payload to its trace id via the embedded TAO
/// object id. Payloads without an `"id"` field (or for objects written
/// before tracing started) are simply untraced. When the delivering
/// stream's topic is known, the (topic, object) fan-out leg wins over
/// the object's most recent trace.
///
/// Runs on every update of every frame at every transport hop, so the
/// id is pulled out with the single-pass [`burst::json::top_level_u64`]
/// scanner instead of a full allocating parse.
fn payload_trace(reg: &Registries, topic: Option<Topic>, payload: &[u8]) -> Option<TraceId> {
    let id = burst::json::top_level_u64(payload, "id")?;
    let object = ObjectId(id);
    if let Some(topic) = topic {
        if let Some(trace) = reg.topic_object_trace.get(&(topic, object)) {
            return Some(*trace);
        }
    }
    reg.object_trace.get(&object).copied()
}

/// The wire bytes a frame charges against a device's egress flow window,
/// or `None` for control frames. Only data (update-carrying response)
/// frames consume window: flow-control signalling, terminations and
/// protocol replies must keep flowing through the very congestion the
/// window reports, or Degraded/Recovered could never be delivered.
fn frame_data_bytes(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Response { batch, .. }
            if batch.iter().any(|d| matches!(d, Delta::Update { .. })) =>
        {
            Some(frame.wire_size() as u64)
        }
        _ => None,
    }
}

impl SystemSim {
    fn on_at_pop(&mut self, now: SimTime, device: u64, frame: Box<Frame>) {
        if !self.devices.contains_key(&device) {
            return;
        }
        // A device's POP is derived, not stored: `device % pops`.
        let pop = device as usize % self.pops.len();
        self.drive_pop(now, pop, |p, fx| {
            p.on_device_frame_into(device, frame, now.as_micros(), fx)
        });
    }

    fn on_at_proxy(&mut self, now: SimTime, proxy: usize, device: u64, frame: Box<Frame>) {
        if proxy >= self.proxies.len() {
            return;
        }
        if !self.proxy_up[proxy] {
            // Connection refused: the POP retries through its (repaired)
            // proxy assignment, modelling the edge's TCP-level failover.
            let d = self.latency.pop_proxy(&mut self.engine_rng);
            self.queue.schedule(now + d, Ev::AtPop { device, frame });
            return;
        }
        self.drive_proxy(now, proxy, |p, fx| {
            p.on_downstream_frame_into(device, frame, now.as_micros(), fx)
        });
    }

    /// Converts reverse-proxy effects into scheduled events, leaving
    /// `effects` empty.
    fn process_proxy_effects(
        &mut self,
        now: SimTime,
        proxy: usize,
        effects: &mut Vec<ProxyEffect>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                ProxyEffect::ToBrass {
                    host,
                    device,
                    frame,
                } => {
                    let d = self.latency.proxy_brass(&mut self.engine_rng);
                    self.queue.schedule(
                        now + d,
                        Ev::AtBrass {
                            host: host as usize,
                            device,
                            frame,
                        },
                    );
                }
                ProxyEffect::ToDevice { device, frame } => {
                    let d = self.latency.pop_proxy(&mut self.engine_rng);
                    self.queue.schedule(
                        now + d,
                        Ev::DownAtPop {
                            device,
                            frame,
                            sent_at: now,
                        },
                    );
                }
                ProxyEffect::PingHost { host, token } => {
                    self.metrics.hb_pings.inc();
                    // The ping travels to the host; a dead one never answers.
                    let d = self.latency.proxy_brass(&mut self.engine_rng);
                    self.queue.schedule(
                        now + d,
                        Ev::HbPingAtHost {
                            proxy,
                            host: host as usize,
                            token,
                        },
                    );
                }
                ProxyEffect::HostDown { host } => {
                    // Heartbeat-detected BRASS death: signal Pylon so the
                    // dead host's subscriptions are purged (axiom 1). The
                    // proxy's own stream repair rides in the same batch.
                    self.metrics.host_failures_detected.inc();
                    self.queue.schedule(
                        now,
                        Ev::PylonHostFailed {
                            host: host as usize,
                        },
                    );
                }
            }
        }
    }

    fn on_at_brass(&mut self, now: SimTime, host: usize, device: u64, frame: Box<Frame>) {
        if host >= self.hosts.len() {
            return;
        }
        if !self.host_up[host] {
            // Frames to a crashed host vanish. Streams routed here stay
            // broken until a proxy's heartbeats detect the death and
            // repair them onto a healthy host.
            return;
        }
        // Control frames ride the same ingress queue as data (their
        // replies wait behind the backlog) but don't consume a service
        // slot or get shed — subscribes must survive the very overload
        // they arrive into.
        let qdelay = self
            .host_admit(now, host, false)
            .unwrap_or(SimDuration::ZERO);
        let device = DeviceId(device);
        self.drive_host(now + qdelay, host, None, |h, fx| match *frame {
            Frame::Subscribe { sid, header, .. } => {
                h.on_subscribe_into(device, sid, header, now, fx)
            }
            Frame::Cancel { sid } => h.on_cancel_into(device, sid, now, fx),
            Frame::Ack { sid, seq } => h.on_ack_into(device, sid, seq, now, fx),
            _ => {}
        });
    }

    fn on_down_at_proxy(
        &mut self,
        now: SimTime,
        proxy: usize,
        host: usize,
        device: u64,
        frame: Box<Frame>,
        sent_at: SimTime,
    ) {
        if proxy >= self.proxies.len() {
            return;
        }
        if !self.proxy_up[proxy] {
            // Downstream frames through a dead proxy are lost until the
            // POP re-homes the device's streams onto a live proxy.
            self.drop_frame(now, device, &frame, Hop::BurstDeliver, DropReason::HostDown);
            return;
        }
        // Overload starvation fix: a host too backlogged to answer pings
        // promptly still streams data through this proxy — that data is
        // proof of life, so credit its heartbeat monitor before the miss
        // counter can cross the threshold and trigger a spurious repair
        // storm on a healthy (just slow) host.
        self.proxies[proxy].note_host_activity(host as u32);
        // Not `drive_proxy`: the frame keeps the `sent_at` it left its
        // BRASS with.
        let mut fx = std::mem::take(&mut self.proxy_fx);
        self.proxies[proxy].on_upstream_frame_into(device, frame, now.as_micros(), &mut fx);
        for effect in fx.drain(..) {
            if let ProxyEffect::ToDevice { device, frame } = effect {
                let d = self.latency.pop_proxy(&mut self.engine_rng);
                self.queue.schedule(
                    now + d,
                    Ev::DownAtPop {
                        device,
                        frame,
                        sent_at,
                    },
                );
            }
        }
        self.proxy_fx = fx;
    }

    fn on_down_at_pop(&mut self, now: SimTime, device: u64, frame: Box<Frame>, sent_at: SimTime) {
        let Some(slot) = self.devices.slot(&device) else {
            return;
        };
        let pop = device as usize % self.pops.len();
        let mut fx = std::mem::take(&mut self.pop_fx);
        self.pops[pop].on_proxy_frame_into(device, frame, now.as_micros(), &mut fx);
        for effect in fx.drain(..) {
            // A POP passes a proxy's frame on to the device it came for.
            if let PopEffect::ToDevice { frame, .. } = effect {
                self.schedule_to_device(now, slot, device, frame, sent_at);
            }
        }
        self.pop_fx = fx;
    }

    /// Puts a frame on the last mile toward `device`, whose fleet slot the
    /// caller resolved (see [`simkit::collections::SortedVecMap::slot`];
    /// the fleet is never removed from, so a slot stays good).
    fn schedule_to_device(
        &mut self,
        now: SimTime,
        slot: usize,
        device: u64,
        frame: Box<Frame>,
        sent_at: SimTime,
    ) {
        let state = self.devices.at(slot);
        let link = state.link;
        if !state.connected {
            // Best effort: frames to disconnected devices vanish (the
            // traces stay backfill-recoverable after reconnect).
            let why = DropReason::DeviceDisconnected;
            self.drop_frame(now, device, &frame, Hop::BurstDeliver, why);
            return;
        }
        if self.engine_rng.chance(self.config.last_mile_drop) {
            self.metrics.frames_lost.inc();
            let why = DropReason::LastMileLoss;
            self.drop_frame(now, device, &frame, Hop::BurstDeliver, why);
            return;
        }
        // Egress flow control: data frames beyond the device's byte window
        // are shed *with attribution* (backfill-recoverable), and the
        // first shed of an episode tells the device it is Degraded. Only
        // frames that actually reach the wire charge the window, so the
        // admit sits after the disconnect/loss checks above.
        if let Some(bytes) = frame_data_bytes(&frame) {
            let flow = &mut self.devices.at_mut(slot).flow;
            match flow.try_send(bytes) {
                Admit::Ok => {
                    let depth = flow.in_flight();
                    self.metrics.q_flow_window.enqueued_n(1);
                    self.metrics.q_flow_window.observe_depth(now, depth);
                }
                shed => {
                    self.metrics.flow_sheds.inc();
                    self.metrics.q_flow_window.dropped_n(1);
                    let why = DropReason::FlowControl;
                    self.drop_frame(now, device, &frame, Hop::BurstDeliver, why);
                    if matches!(shed, Admit::ShedDegrade) {
                        if let Some(sid) = frame.sid() {
                            let state = self.devices.at_mut(slot);
                            if !state.degraded_sids.contains(&sid) {
                                state.degraded_sids.push(sid);
                            }
                            self.metrics.flow_degraded_signals.inc();
                            let notice = Frame::flow_status(sid, FlowStatus::Degraded);
                            // Control frame: bypasses the window on the
                            // recursive call, so this terminates.
                            self.schedule_to_device(now, slot, device, notice.into(), now);
                        }
                    }
                    return;
                }
            }
        }
        for trace in frame_traces(&self.reg, device, &frame) {
            self.ledger
                .record(trace, Hop::BurstDeliver, now, HopOutcome::Ok);
        }
        let d = self.latency.last_mile(link, &mut self.engine_rng);
        // FIFO last mile: the connection is ordered, so a frame sent later
        // never arrives earlier (head-of-line, not reordering).
        let state = self.devices.at_mut(slot);
        let at = (now + d).max(state.next_arrival);
        state.next_arrival = at;
        state.inflight_frames += 1;
        let depth = state.inflight_frames;
        self.metrics.q_pop_egress.enqueued_n(1);
        self.metrics.q_pop_egress.observe_depth(now, depth);
        self.queue.schedule(
            at,
            Ev::AtDevice {
                device,
                frame,
                sent_at,
            },
        );
    }

    fn on_at_device(&mut self, now: SimTime, device: u64, frame: &Frame, sent_at: SimTime) {
        let Some(slot) = self.devices.slot(&device) else {
            return;
        };
        self.at_device_inner(now, slot, device, frame, sent_at);
        // The frame drained and the machine reacted: if the device is now
        // quiescent it goes back to its frozen form until the next event.
        self.park(slot);
    }

    /// A frame reaches `device`, which lives in fleet slot `slot`.
    fn at_device_inner(
        &mut self,
        now: SimTime,
        slot: usize,
        device: u64,
        frame: &Frame,
        sent_at: SimTime,
    ) {
        let app = app_of_device_frame(&self.reg, device, frame);
        let state = self.devices.at_mut(slot);
        // Egress accounting drains unconditionally — every frame put on
        // the wire arrives here exactly once, delivered or not. Draining
        // before the connected check is what makes admission/drain
        // symmetric, and that symmetry guarantees the terminal Recovered.
        state.inflight_frames = state.inflight_frames.saturating_sub(1);
        let egress_depth = state.inflight_frames;
        let mut recovered_sids: Vec<StreamId> = Vec::new();
        let mut flow_depth = None;
        if let Some(bytes) = frame_data_bytes(frame) {
            if state.flow.on_drained(bytes) {
                recovered_sids = std::mem::take(&mut state.degraded_sids);
                recovered_sids.sort_unstable_by_key(|sid| sid.0);
            }
            flow_depth = Some(state.flow.in_flight());
        }
        self.metrics.q_pop_egress.dequeued_n(1);
        self.metrics.q_pop_egress.observe_depth(now, egress_depth);
        if let Some(depth) = flow_depth {
            self.metrics.q_flow_window.dequeued_n(1);
            self.metrics.q_flow_window.observe_depth(now, depth);
        }
        for sid in recovered_sids {
            // The backlog drained past the low-water mark: every stream
            // that was told Degraded now gets its terminal Recovered.
            self.metrics.flow_recovered_signals.inc();
            let notice = Frame::flow_status(sid, FlowStatus::Recovered);
            self.schedule_to_device(now, slot, device, notice.into(), now);
        }
        let state = self.devices.at_mut(slot);
        if !state.connected {
            // The device dropped while the frame was in flight on the last
            // mile.
            let why = DropReason::DeviceDisconnected;
            self.drop_frame(now, device, frame, Hop::DeviceRender, why);
            return;
        }
        // Device-observed subscription latency: first response on a stream.
        // (Nothing is waiting once the ramp's subscribes have answered.)
        if !self.sub_started.is_empty() {
            let started = frame
                .sid()
                .and_then(|sid| self.sub_started.remove(&(device, sid)));
            if let Some(started) = started {
                self.metrics
                    .sub_e2e
                    .record(now.saturating_since(started).as_millis_f64());
            }
        }
        let mut outputs = std::mem::take(&mut self.device_out);
        state
            .wake(device, &mut self.park)
            .on_frame_into(frame, &mut outputs);
        let mut rendered_on: Option<StreamId> = None;
        for out in outputs.drain(..) {
            match out {
                DeviceOutput::Render { payload, sid } => {
                    rendered_on = Some(sid);
                    self.metrics.deliveries.inc();
                    self.metrics.ts_deliveries.inc(now);
                    let lat = self.metrics.app(&app);
                    lat.brass_to_device
                        .record(now.saturating_since(sent_at).as_millis_f64());
                    // Total publish time: the payload carries the original
                    // application timestamp.
                    if let Some(created) = burst::json::top_level_u64(&payload, "created_ms") {
                        let created = SimTime::from_millis(created);
                        lat.total
                            .record(now.saturating_since(created).as_millis_f64());
                    }
                    let topic = self.reg.stream_topic.get(&(device, sid)).copied();
                    if let Some(trace) = payload_trace(&self.reg, topic, &payload) {
                        self.ledger
                            .record(trace, Hop::DeviceRender, now, HopOutcome::Ok);
                    }
                }
                DeviceOutput::StreamEnded { sid, retry } => {
                    self.metrics.stream_closed(device, sid, now);
                    let state = self.devices.at_mut(slot);
                    let retry_frame = if retry {
                        state.wake(device, &mut self.park).retry_stream(sid)
                    } else {
                        None
                    };
                    if let Some(frame) = retry_frame {
                        let link = state.link;
                        let d = self.latency.last_mile(link, &mut self.engine_rng);
                        self.queue.schedule(
                            now + d,
                            Ev::AtPop {
                                device,
                                frame: frame.into(),
                            },
                        );
                    }
                }
                DeviceOutput::Send(frame) => {
                    // Protocol replies (pongs, flow-control) go back up.
                    let link = self.devices.at(slot).link;
                    let d = self.latency.last_mile(link, &mut self.engine_rng);
                    self.queue.schedule(
                        now + d,
                        Ev::AtPop {
                            device,
                            frame: frame.into(),
                        },
                    );
                }
                DeviceOutput::BackfillPoll { sid } => {
                    // Gap detected: the device polls the WAS directly for
                    // the window it missed (the paper's at-most-once
                    // streams push reliability into app-level refetch).
                    self.metrics.backfill_polls.inc();
                    let link = self.devices.at(slot).link;
                    let d = self.latency.last_mile(link, &mut self.engine_rng)
                        + self.latency.edge_to_was(&mut self.engine_rng);
                    self.queue
                        .schedule(now + d, Ev::WasBackfillExec { device, sid });
                }
                DeviceOutput::ConnectivityChanged { .. } => {}
            }
        }
        self.device_out = outputs;
        // Reliable applications acknowledge receipt; the BRASS's retention
        // buffer shrinks and retransmission stops.
        if app == "messenger" {
            if let Some(sid) = rendered_on {
                let state = self.devices.at_mut(slot);
                if let Some(ack) = state.wake(device, &mut self.park).ack(sid) {
                    let link = state.link;
                    let d = self.latency.last_mile(link, &mut self.engine_rng);
                    self.queue.schedule(
                        now + d,
                        Ev::AtPop {
                            device,
                            frame: ack.into(),
                        },
                    );
                }
            }
        }
    }

    /// The delay before a dropped device's next reconnect attempt: capped
    /// exponential backoff on its recent drop streak, plus deterministic
    /// jitter so a mass-disconnect does not come back as one synchronized
    /// thundering herd.
    fn reconnect_backoff(&mut self, now: SimTime, device: u64) -> SimDuration {
        let base = self.config.reconnect_delay;
        let Some(state) = self.devices.get_mut(&device) else {
            return base;
        };
        // A quiet couple of minutes forgives the streak.
        if now.saturating_since(state.last_drop_at) > SimDuration::from_secs(120) {
            state.drop_streak = 0;
        }
        let streak = state.drop_streak;
        state.drop_streak = streak.saturating_add(1);
        state.last_drop_at = now;
        let capped_us =
            (base.as_micros() << streak.min(5)).min(SimDuration::from_secs(60).as_micros());
        let jitter_us = self.engine_rng.below(capped_us / 2 + 1);
        SimDuration::from_micros(capped_us + jitter_us)
    }

    /// Forgets a device's flow-control state when its connection dies:
    /// the window (and any pending Degraded episode) lives on the
    /// connection, and reconnect starts a fresh one. `inflight_frames`
    /// is deliberately left alone — frames still on the wire will arrive
    /// and decrement it regardless of connection state.
    fn reset_flow_state(&mut self, device: u64) {
        if let Some(state) = self.devices.get_mut(&device) {
            state.flow.reset();
            state.degraded_sids.clear();
        }
    }

    fn on_device_drop(&mut self, now: SimTime, device: u64) {
        self.reset_flow_state(device);
        let Some(state) = self.devices.get_mut(&device) else {
            return;
        };
        if !state.connected {
            return;
        }
        state.connected = false;
        let resubscribes = state.wake(device, &mut self.park).on_connection_lost();
        self.metrics.connection_drops.inc();
        self.metrics.ts_connection_drops.inc(now);
        let pop = device as usize % self.pops.len();
        // DeviceGone teardown rides through the shared effect fan-out; the
        // false-positive reconnect branch inside it no-ops because the
        // device is already marked disconnected.
        self.drive_pop(now, pop, |p, fx| p.on_device_disconnected_into(device, fx));
        let backoff = self.reconnect_backoff(now, device);
        self.queue.schedule(
            now + backoff,
            Ev::DeviceReconnect {
                device,
                frames: resubscribes,
            },
        );
    }

    /// A *silent* link death: no FIN reaches the POP, so server-side state
    /// lingers until POP heartbeats notice (or the device's reconnect
    /// overwrites it). The device itself notices quickly and reconnects on
    /// the same backoff schedule as an announced drop.
    fn on_device_vanish(&mut self, now: SimTime, device: u64) {
        self.reset_flow_state(device);
        let Some(state) = self.devices.get_mut(&device) else {
            return;
        };
        if !state.connected {
            return;
        }
        state.connected = false;
        let resubscribes = state.wake(device, &mut self.park).on_connection_lost();
        self.metrics.device_vanishes.inc();
        self.metrics.connection_drops.inc();
        self.metrics.ts_connection_drops.inc(now);
        // Deliberately NO pop/proxy notification here — that's the point.
        let backoff = self.reconnect_backoff(now, device);
        self.queue.schedule(
            now + backoff,
            Ev::DeviceReconnect {
                device,
                frames: resubscribes,
            },
        );
    }

    fn on_device_reconnect(&mut self, now: SimTime, device: u64, frames: Vec<Frame>) {
        self.reset_flow_state(device);
        let Some(state) = self.devices.get_mut(&device) else {
            return;
        };
        state.connected = true;
        let link = state.link;
        for frame in frames {
            self.metrics.subscriptions.inc();
            self.metrics.ts_subscriptions.inc(now);
            if let Some(sid) = frame.sid() {
                self.sub_started.insert((device, sid), now);
            }
            let d = self.latency.last_mile(link, &mut self.engine_rng);
            self.queue.schedule(
                now + d,
                Ev::AtPop {
                    device,
                    frame: frame.into(),
                },
            );
        }
        // Anything lost while the device was away is refetched from the
        // WAS once the connection is back.
        let mut missed: Vec<StreamId> = self
            .pending_backfill
            .keys()
            .filter(|&&(d, _)| d == device)
            .map(|&(_, sid)| sid)
            .collect();
        missed.sort_unstable_by_key(|sid| sid.0);
        for sid in missed {
            self.metrics.backfill_polls.inc();
            let d = self.latency.last_mile(link, &mut self.engine_rng)
                + self.latency.edge_to_was(&mut self.engine_rng);
            self.queue
                .schedule(now + d, Ev::WasBackfillExec { device, sid });
        }
    }

    /// Executes a device's backfill poll at the WAS: every trace lost on
    /// the way to this stream that never made it by other means is
    /// recovered out-of-band.
    fn on_was_backfill(&mut self, now: SimTime, device: u64, sid: StreamId) {
        let Some(lost) = self.pending_backfill.remove(&(device, sid)) else {
            return;
        };
        for trace in lost {
            if self.trace_resolved(trace) {
                continue;
            }
            self.metrics.backfills.inc();
            self.ledger
                .record(trace, Hop::WasBackfill, now, HopOutcome::Ok);
        }
    }

    /// Drops (with attribution) every update recently delivered to a host
    /// that it may still have been buffering when its in-memory state
    /// died. Traces that already rendered are left alone; anything else
    /// gets a `HostDown` drop so the ledger still accounts for it.
    fn spill_host_buffers(&mut self, now: SimTime, host: usize) {
        let mut objects: Vec<ObjectId> = self
            .object_delivered
            .keys()
            .filter(|&&(h, _)| h == host)
            .map(|&(_, o)| o)
            .collect();
        objects.sort_unstable_by_key(|o| o.0);
        for object in objects {
            let Some(&trace) = self.reg.object_trace.get(&object) else {
                continue;
            };
            if self.trace_resolved(trace) {
                continue;
            }
            self.ledger.record(
                trace,
                Hop::BrassProcess,
                now,
                HopOutcome::Dropped(DropReason::HostDown),
            );
        }
    }

    fn on_brass_upgrade(&mut self, now: SimTime, host: usize) {
        // The host's in-memory stream state is lost; Pylon drops its
        // subscriptions; proxies repair every affected stream elsewhere.
        // This is the *planned* path: everyone is told immediately.
        self.spill_host_buffers(now, host);
        let mut fresh = BrassHost::new(HostConfig::small(host as u32));
        fresh.register_standard_apps();
        self.hosts[host] = fresh;
        // A replacement process starts with an empty ingress mailbox.
        self.host_busy_until[host] = SimTime::ZERO;
        self.queue.schedule(now, Ev::PylonHostFailed { host });
        for proxy in 0..self.config.proxies as usize {
            self.queue
                .schedule(now, Ev::ProxyHostFailed { proxy, host });
        }
    }

    /// A planned (upgrade) or healed (crash) host rejoins every live
    /// proxy's routing pool with a fresh heartbeat monitor.
    fn on_brass_host_back(&mut self, now: SimTime, host: usize) {
        for proxy in 0..self.config.proxies as usize {
            self.queue.schedule(now, Ev::ProxyAddHost { proxy, host });
        }
    }

    /// One proxy learns a BRASS host died (planned drain) and repairs the
    /// streams it had routed there. The repair burst is recorded in the
    /// proxy-reconnect series (additive buckets, so per-proxy records sum
    /// to the fleet-wide delta).
    fn on_proxy_host_failed(&mut self, now: SimTime, proxy: usize, host: usize) {
        if proxy >= self.proxies.len() || !self.proxy_up[proxy] {
            return;
        }
        let before = self.proxies[proxy].counters().induced_reconnects;
        self.drive_proxy(now, proxy, |p, fx| {
            p.on_brass_host_failed_into(host as u32, now.as_micros(), fx)
        });
        let delta = self.proxies[proxy].counters().induced_reconnects - before;
        self.metrics.ts_proxy_reconnects.record(now, delta as f64);
    }

    /// One proxy observes the connection reset from a sub-threshold
    /// crash/revive and re-establishes the streams it had routed to the
    /// restarted host. No-op when heartbeat detection already fired (the
    /// host left the pool and the failed/add_host pair owns repair).
    fn on_proxy_host_restarted(&mut self, now: SimTime, proxy: usize, host: usize) {
        if proxy >= self.proxies.len() || !self.proxy_up[proxy] {
            return;
        }
        let before = self.proxies[proxy].counters().induced_reconnects;
        self.drive_proxy(now, proxy, |p, fx| {
            p.on_host_restarted_into(host as u32, now.as_micros(), fx)
        });
        let delta = self.proxies[proxy].counters().induced_reconnects - before;
        self.metrics.ts_proxy_reconnects.record(now, delta as f64);
    }

    fn on_proxy_add_host(&mut self, now: SimTime, proxy: usize, host: usize) {
        if proxy >= self.proxies.len() || !self.proxy_up[proxy] {
            return;
        }
        let before = self.proxies[proxy].counters().induced_reconnects;
        self.drive_proxy(now, proxy, |p, fx| p.add_host_into(host as u32, fx));
        let delta = self.proxies[proxy].counters().induced_reconnects - before;
        self.metrics.ts_proxy_reconnects.record(now, delta as f64);
    }

    fn on_brass_crash(&mut self, now: SimTime, host: usize) {
        if host >= self.hosts.len() || !self.host_up[host] {
            return;
        }
        self.host_up[host] = false;
        self.metrics.host_crashes.inc();
        // In-memory state — stream tables, app buffers — dies instantly;
        // updates the host was still holding are dropped with attribution.
        self.spill_host_buffers(now, host);
        let mut fresh = BrassHost::new(HostConfig::small(host as u32));
        fresh.register_standard_apps();
        self.hosts[host] = fresh;
        // The backlog died with the process: whatever replaces it starts
        // with an empty ingress mailbox.
        self.host_busy_until[host] = SimTime::ZERO;
        // Crucially, NOTHING is signalled here: Pylon keeps fanning events
        // at the corpse and proxies keep routing to it until their
        // heartbeat monitors cross the miss threshold.
    }

    fn on_brass_recover(&mut self, now: SimTime, host: usize) {
        if host >= self.hosts.len() || self.host_up[host] {
            return;
        }
        self.host_up[host] = true;
        // The restarted process resets every proxy's connections to it —
        // that reset, not heartbeat detection, is what lets proxies
        // repair streams after a crash shorter than the miss window.
        for proxy in 0..self.config.proxies as usize {
            self.queue
                .schedule(now, Ev::ProxyHostRestarted { proxy, host });
        }
        self.on_brass_host_back(now, host);
    }

    fn on_proxy_outage(&mut self, now: SimTime, proxy: usize) {
        if proxy >= self.proxies.len() || !self.proxy_up[proxy] {
            return;
        }
        self.proxy_up[proxy] = false;
        self.metrics.proxy_outages.inc();
        // POPs see the region's connections reset: each drops the proxy
        // from its pool and repairs affected streams onto survivors
        // (axiom 2), signalling Degraded/Recovered to devices (axiom 1).
        for pop in 0..self.config.pops as usize {
            self.queue.schedule(now, Ev::PopProxyFailed { pop, proxy });
        }
    }

    fn on_proxy_back(&mut self, now: SimTime, proxy: usize) {
        if proxy >= self.proxies.len() || self.proxy_up[proxy] {
            return;
        }
        // The proxy restarts empty with the full host roster minus hosts
        // already dead; anything that dies later is re-detected by its
        // fresh heartbeat monitors.
        let host_ids: Vec<u32> = (0..self.config.brass_hosts).collect();
        let mut fresh = ReverseProxy::new(proxy as u32, self.config.route_strategy, host_ids)
            .with_heartbeat(
                self.config.heartbeat_interval.as_micros(),
                self.config.heartbeat_misses,
            );
        for (h, up) in self.host_up.iter().enumerate() {
            if !*up {
                fresh.remove_host(h as u32);
            }
        }
        self.proxies[proxy] = fresh;
        self.proxy_up[proxy] = true;
        for pop in 0..self.config.pops as usize {
            self.queue.schedule(now, Ev::PopAddProxy { pop, proxy });
        }
    }

    /// The heartbeat tick: live proxies ping their BRASS hosts (and repair
    /// streams off hosts that crossed the miss threshold); POPs ping
    /// devices when device heartbeats are on.
    fn on_heartbeat_tick(&mut self, now: SimTime) {
        for proxy in 0..self.proxies.len() {
            if !self.proxy_up[proxy] {
                continue;
            }
            let before = self.proxies[proxy].counters().induced_reconnects;
            self.drive_proxy(now, proxy, |p, fx| {
                p.on_heartbeat_tick_into(now.as_micros(), fx)
            });
            let delta = self.proxies[proxy].counters().induced_reconnects - before;
            if delta > 0 {
                self.metrics.ts_proxy_reconnects.record(now, delta as f64);
            }
        }
        if self.config.device_heartbeats {
            for pop in 0..self.pops.len() {
                self.drive_pop(now, pop, |p, fx| {
                    p.on_heartbeat_tick_into(now.as_micros(), fx)
                });
            }
        }
        self.queue
            .schedule(now + self.config.heartbeat_interval, Ev::HeartbeatTick);
    }

    /// Shared POP-effect fan-out (frames up to proxies, frames down to
    /// devices, device-gone teardown at the owning proxy), leaving
    /// `effects` empty.
    fn process_pop_effects(&mut self, now: SimTime, effects: &mut Vec<PopEffect>) {
        for effect in effects.drain(..) {
            match effect {
                PopEffect::ToProxy {
                    proxy,
                    device,
                    frame,
                } => {
                    self.reg.device_proxy.insert(device, proxy as usize);
                    let d = self.latency.pop_proxy(&mut self.engine_rng);
                    self.queue.schedule(
                        now + d,
                        Ev::AtProxy {
                            proxy: proxy as usize,
                            device,
                            frame,
                        },
                    );
                }
                PopEffect::ToDevice { device, frame } => {
                    if let Some(slot) = self.devices.slot(&device) {
                        self.schedule_to_device(now, slot, device, frame, now);
                    }
                }
                PopEffect::DeviceGone { proxy, device } => {
                    self.queue.schedule(
                        now,
                        Ev::ProxyDeviceGone {
                            proxy: proxy as usize,
                            device,
                        },
                    );
                    // The reap can be a false positive: the device is alive
                    // but its pongs died on a lossy link. The POP has
                    // already closed the connection under it, so the device
                    // sees the transport die and reconnects on the normal
                    // backoff schedule (otherwise it would sit "connected"
                    // with streams no server knows about, forever).
                    let resubscribes = match self.devices.get_mut(&device) {
                        Some(state) if state.connected => {
                            state.connected = false;
                            state.flow.reset();
                            state.degraded_sids.clear();
                            self.metrics.connection_drops.inc();
                            self.metrics.ts_connection_drops.inc(now);
                            Some(state.wake(device, &mut self.park).on_connection_lost())
                        }
                        _ => None,
                    };
                    if let Some(resubscribes) = resubscribes {
                        let backoff = self.reconnect_backoff(now, device);
                        self.queue.schedule(
                            now + backoff,
                            Ev::DeviceReconnect {
                                device,
                                frames: resubscribes,
                            },
                        );
                    }
                }
            }
        }
    }
}

impl SystemSim {
    /// Builds a system with its heartbeat and metrics ticks armed.
    pub fn new(config: SystemConfig, seed: u64) -> Self {
        let rng = DetRng::new(seed);
        let engine_rng = rng.fork(0x5A4D_0000);
        let hosts: Vec<BrassHost> = (0..config.brass_hosts)
            .map(|i| {
                let mut h = BrassHost::new(HostConfig::small(i));
                h.register_standard_apps();
                h
            })
            .collect();
        let host_ids: Vec<u32> = (0..config.brass_hosts).collect();
        let proxies: Vec<ReverseProxy> = (0..config.proxies)
            .map(|i| {
                ReverseProxy::new(i, config.route_strategy, host_ids.clone()).with_heartbeat(
                    config.heartbeat_interval.as_micros(),
                    config.heartbeat_misses,
                )
            })
            .collect();
        let proxy_ids: Vec<u32> = (0..config.proxies).collect();
        let pops: Vec<Pop> = (0..config.pops)
            .map(|i| Pop::new(i, proxy_ids.clone()))
            .collect();
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO + config.heartbeat_interval, Ev::HeartbeatTick);
        SystemSim {
            latency: LatencyModel::table3(),
            rng,
            engine_rng,
            queue,
            now: SimTime::ZERO,
            next_metrics_tick: SimTime::ZERO + config.metrics_interval,
            was: WebApplicationServer::new(Tao::new(config.tao.clone())),
            pylon: PylonCluster::new(config.pylon.clone()),
            hosts,
            proxies,
            pops,
            host_up: vec![true; config.brass_hosts as usize],
            proxy_up: vec![true; config.proxies as usize],
            host_busy_until: vec![SimTime::ZERO; config.brass_hosts as usize],
            devices: simkit::collections::SortedVecMap::new(),
            reg: Registries::default(),
            ledger: TraceLedger::with_retention(config.trace_retention),
            pending_backfill: FxHashMap::default(),
            object_delivered: FxHashMap::default(),
            sub_started: FxHashMap::default(),
            metrics: SystemMetrics::new(config.metrics_horizon, config.metrics_interval),
            event_stats: EventStats::default(),
            decisions_at_tick: 0,
            scenario_sids: FxHashMap::default(),
            langs: Vec::new(),
            fingerprints: Vec::new(),
            tick_index: 0,
            snapshot_every: 0,
            snapshot_keep: false,
            snapshot_dir: None,
            snapshots: Vec::new(),
            driver_blob: Vec::new(),
            evlog: None,
            host_fx: Vec::new(),
            proxy_fx: Vec::new(),
            pop_fx: Vec::new(),
            device_out: Vec::new(),
            park: ParkScratch::default(),
            config,
        }
    }

    /// Does nothing: there is one event loop, on the caller's thread. The
    /// name stays only because `benchmark/src/rep.rs` still calls it.
    pub fn set_workers(&mut self, _workers: usize) {}

    /// The WAS (for fixture setup: videos, threads, friendships).
    pub fn was_mut(&mut self) -> &mut WebApplicationServer {
        &mut self.was
    }

    /// The Pylon cluster (failure injection, counters).
    pub fn pylon(&self) -> &PylonCluster {
        &self.pylon
    }

    /// Mutable Pylon access (tests probe quorum topology directly).
    pub fn pylon_mut(&mut self) -> &mut PylonCluster {
        &mut self.pylon
    }

    /// The configuration this world was built under.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }

    /// The hop-ledger of every update traced through this run.
    pub fn trace_ledger(&self) -> &TraceLedger {
        &self.ledger
    }

    /// Per-subsystem counts of events handled so far.
    pub fn event_stats(&self) -> &EventStats {
        &self.event_stats
    }

    /// Total BRASS delivery decisions across hosts.
    pub fn total_decisions(&self) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.total_app_counters().decisions)
            .sum()
    }

    /// Total proxy-induced stream reconnects across proxies.
    pub fn total_proxy_reconnects(&self) -> u64 {
        self.proxies
            .iter()
            .map(|p| p.counters().induced_reconnects)
            .sum()
    }

    /// A device's current state (testing). Returns an owned snapshot: the
    /// resident form may be the compact hibernation blob, which is
    /// rehydrated here without disturbing the simulation.
    pub fn device(&self, device: u64) -> Option<Device> {
        self.devices.get(&device).map(|d| match &d.slot {
            DeviceSlot::Live(dev) => dev.clone(),
            DeviceSlot::Parked(blob) => Device::rehydrate(device, blob),
        })
    }

    /// Fleet hibernation census: `(parked, total)` devices. Parked devices
    /// hold their whole protocol state in one compact frozen blob.
    pub fn hibernation_census(&self) -> (usize, usize) {
        let parked = self
            .devices
            .values()
            .filter(|d| matches!(d.slot, DeviceSlot::Parked(_)))
            .count();
        (parked, self.devices.len())
    }

    /// Whether a BRASS host is currently up (testing / fault plans).
    pub fn host_is_up(&self, host: usize) -> bool {
        self.host_up.get(host).copied().unwrap_or(false)
    }

    /// Whether a reverse proxy is currently up (testing / fault plans).
    pub fn proxy_is_up(&self, proxy: usize) -> bool {
        self.proxy_up.get(proxy).copied().unwrap_or(false)
    }

    /// The `(device, sid)` keys a BRASS host currently serves, sorted.
    pub fn host_stream_keys(&self, host: usize) -> Vec<(u64, StreamId)> {
        self.hosts
            .get(host)
            .map(|h| h.stream_keys())
            .unwrap_or_default()
    }

    /// Current simulated time (the high-water mark of `run_until`).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The master RNG, for workload generators and fixture setup. The
    /// engine never draws from it after construction.
    pub fn rng_mut(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Scenario bookkeeping: per-device counters predicting the next
    /// client-generated stream id (devices allocate sids sequentially).
    pub fn scenario_sid_counters(&mut self) -> &mut FxHashMap<u64, u64> {
        &mut self.scenario_sids
    }

    /// Backoff before quorum-subscribe retry `attempt + 1`. The exponent
    /// is clamped *before* shifting: attempts grow without bound under a
    /// long partition, and `1u64 << 64` would overflow.
    fn quorum_retry_backoff(attempt: u32) -> SimDuration {
        const CAP_SECS: u64 = 30;
        SimDuration::from_secs((1u64 << attempt.min(5)).min(CAP_SECS))
    }

    // ------------------------------------------------------------------
    // Fixture and workload helpers.
    // ------------------------------------------------------------------

    /// Creates a user in the WAS plus their device at the edge.
    /// Returns the shared id (user uid == device id).
    pub fn create_user_device(&mut self, name: &str, lang: &str) -> u64 {
        let uid = self.was_mut().create_user(name, lang);
        let weights: Vec<f64> = self.config.link_mix.iter().map(|(_, p)| *p).collect();
        let cat = simkit::dist::Categorical::new(&weights);
        let link = self.config.link_mix[cat.sample_index(&mut self.rng)].0;
        let lang = self.intern_lang(lang);
        self.devices.insert(
            uid,
            DeviceState {
                slot: DeviceSlot::Live(Device::new(uid)),
                link,
                lang,
                connected: true,
                drop_streak: 0,
                last_drop_at: SimTime::ZERO,
                next_arrival: SimTime::ZERO,
                flow: FlowWindow::new(self.config.egress_window_bytes),
                degraded_sids: Vec::new(),
                inflight_frames: 0,
            },
        );
        uid
    }

    /// Interns a header language into the u16 id table (the fleet speaks
    /// a handful of languages; a per-device heap `String` would repeat
    /// each of them a million times over).
    fn intern_lang(&mut self, lang: &str) -> u16 {
        if let Some(i) = self.langs.iter().position(|l| l == lang) {
            return i as u16;
        }
        assert!(self.langs.len() < u16::MAX as usize, "lang table overflow");
        self.langs.push(lang.to_owned());
        (self.langs.len() - 1) as u16
    }

    /// Schedules a subscription with an explicit header.
    pub fn subscribe_with_header(&mut self, at: SimTime, device: u64, header: Json) {
        self.queue
            .schedule(at, Ev::DeviceSubscribe { device, header });
    }

    fn gql_header(&self, device: u64, gql: String) -> Json {
        let lang = self
            .devices
            .get(&device)
            .and_then(|d| self.langs.get(d.lang as usize))
            .map_or("en", String::as_str);
        Json::obj([
            ("viewer", Json::from(device)),
            ("lang", Json::from(lang)),
            ("gql", Json::from(gql)),
        ])
    }

    /// Schedules a LiveVideoComments subscription.
    pub fn subscribe_lvc(&mut self, at: SimTime, device: u64, video: u64) {
        let header = self.gql_header(
            device,
            format!("subscription {{ liveVideoComments(videoId: {video}) }}"),
        );
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules a TypingIndicator subscription.
    pub fn subscribe_typing(&mut self, at: SimTime, device: u64, thread: u64, counterparty: u64) {
        let header = self.gql_header(
            device,
            format!(
                "subscription {{ typingIndicator(threadId: {thread}, counterpartyId: {counterparty}) }}"
            ),
        );
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules an ActiveStatus subscription.
    pub fn subscribe_active_status(&mut self, at: SimTime, device: u64) {
        let header = self.gql_header(device, "subscription { activeStatus }".to_owned());
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules a Stories tray subscription.
    pub fn subscribe_stories(&mut self, at: SimTime, device: u64) {
        let header = self.gql_header(device, "subscription { storiesTray }".to_owned());
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules a NewsFeedPostLikes subscription.
    pub fn subscribe_likes(&mut self, at: SimTime, device: u64, post: u64) {
        let header = self.gql_header(
            device,
            format!("subscription {{ postLikes(postId: {post}) }}"),
        );
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules a like on a post.
    pub fn like_post(&mut self, at: SimTime, device: u64, post: u64) {
        let gql = format!("mutation {{ likePost(postId: {post}, uid: {device}) {{ ok }} }}");
        self.schedule_mutation(at, device, gql, "likes");
    }

    /// Schedules a WebsiteNotifications subscription.
    pub fn subscribe_notifications(&mut self, at: SimTime, device: u64) {
        let header = self.gql_header(device, "subscription { notifications }".to_owned());
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules a Messenger mailbox subscription.
    pub fn subscribe_mailbox(&mut self, at: SimTime, device: u64) {
        let header = self.gql_header(device, format!("subscription {{ mailbox(uid: {device}) }}"));
        self.subscribe_with_header(at, device, header);
    }

    /// Schedules a stream cancellation.
    pub fn cancel_stream(&mut self, at: SimTime, device: u64, sid: StreamId) {
        self.queue.schedule(at, Ev::DeviceCancel { device, sid });
    }

    fn schedule_mutation(&mut self, at: SimTime, device: u64, gql: String, app: &'static str) {
        // Device → POP → edge → WAS; sampled as one compound delay.
        let link = self
            .devices
            .get(&device)
            .map(|d| d.link)
            .unwrap_or(LinkClass::Mobile);
        let delay =
            self.latency.last_mile(link, &mut self.rng) + self.latency.edge_to_was(&mut self.rng);
        self.queue
            .schedule(at + delay, Ev::WasMutationExec { gql, app: App(app) });
    }

    /// Schedules a live-video comment post.
    pub fn post_comment(&mut self, at: SimTime, device: u64, video: u64, text: &str) {
        let gql = format!(
            r#"mutation {{ postComment(videoId: {video}, authorId: {device}, text: "{text}") {{ id }} }}"#
        );
        self.schedule_mutation(at, device, gql, "lvc");
    }

    /// Schedules a typing-state change.
    pub fn set_typing(&mut self, at: SimTime, device: u64, thread: u64, typing: bool) {
        let gql = format!(
            "mutation {{ setTyping(threadId: {thread}, uid: {device}, typing: {typing}) {{ ok }} }}"
        );
        self.schedule_mutation(at, device, gql, "typing");
    }

    /// Schedules an online-status refresh.
    pub fn set_online(&mut self, at: SimTime, device: u64) {
        let gql = format!("mutation {{ setOnline(uid: {device}) {{ ok }} }}");
        self.schedule_mutation(at, device, gql, "active_status");
    }

    /// Schedules a story creation.
    pub fn create_story(&mut self, at: SimTime, device: u64, media: &str) {
        let gql =
            format!(r#"mutation {{ createStory(authorId: {device}, media: "{media}") {{ id }} }}"#);
        self.schedule_mutation(at, device, gql, "stories");
    }

    /// Schedules a Messenger message send.
    pub fn send_message(&mut self, at: SimTime, device: u64, thread: u64, text: &str) {
        let gql = format!(
            r#"mutation {{ sendMessage(threadId: {thread}, fromId: {device}, text: "{text}") {{ id }} }}"#
        );
        self.schedule_mutation(at, device, gql, "messenger");
    }

    // ------------------------------------------------------------------
    // Failure injection.
    // ------------------------------------------------------------------

    /// Schedules a last-mile connection drop for a device.
    pub fn schedule_device_drop(&mut self, at: SimTime, device: u64) {
        self.queue.schedule(at, Ev::DeviceDrop { device });
    }

    /// Schedules a BRASS-initiated redirect of one stream to another host
    /// (§3.5 "Redirects"; used for load rebalancing and consolidation).
    pub fn schedule_brass_redirect(
        &mut self,
        at: SimTime,
        host: usize,
        device: u64,
        sid: StreamId,
        to_host: usize,
    ) {
        self.queue.schedule(
            at,
            Ev::BrassRedirect {
                host,
                device,
                sid,
                to_host,
            },
        );
    }

    /// Schedules a BRASS host drain/upgrade lasting `duration`.
    pub fn schedule_brass_upgrade(&mut self, at: SimTime, host: usize, duration: SimDuration) {
        self.queue.schedule(at, Ev::BrassUpgrade { host });
        self.queue
            .schedule(at + duration, Ev::BrassHostBack { host });
    }

    /// Schedules a Pylon subscriber-KV node outage of `duration`.
    pub fn schedule_pylon_outage(&mut self, at: SimTime, node: u64, duration: SimDuration) {
        self.queue.schedule(at, Ev::PylonNode { node, up: false });
        self.queue
            .schedule(at + duration, Ev::PylonNode { node, up: true });
    }

    /// Schedules an *unplanned* BRASS host crash lasting `duration`.
    ///
    /// Unlike [`Self::schedule_brass_upgrade`], nothing is signalled at
    /// crash time: proxies discover the death through missed heartbeat
    /// pongs and only then repair its streams (axiom 2).
    pub fn schedule_brass_crash(&mut self, at: SimTime, host: usize, duration: SimDuration) {
        self.queue.schedule(at, Ev::BrassCrash { host });
        self.queue
            .schedule(at + duration, Ev::BrassRecover { host });
    }

    /// Schedules a reverse-proxy outage (e.g. a regional PoP-to-DC link
    /// cut) lasting `duration`.
    pub fn schedule_proxy_outage(&mut self, at: SimTime, proxy: usize, duration: SimDuration) {
        self.queue.schedule(at, Ev::ProxyOutage { proxy });
        self.queue.schedule(at + duration, Ev::ProxyBack { proxy });
    }

    /// Schedules a *silent* device drop: the link dies without a FIN, so
    /// the POP learns only via heartbeats while the device reconnects on
    /// its own backoff schedule.
    pub fn schedule_device_vanish(&mut self, at: SimTime, device: u64) {
        self.queue.schedule(at, Ev::DeviceVanish { device });
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /// Runs the simulation until `until` (inclusive of events at `until`).
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            let tick = self.next_metrics_tick;
            // The tick outranks same-instant events, so events run only up
            // to the microsecond before it.
            let before_tick = SimTime::from_micros(tick.as_micros().saturating_sub(1));
            while let Some((now, ev)) = self.queue.pop_until(until.min(before_tick)) {
                self.event_stats.note(&ev);
                if let Some(log) = &mut self.evlog {
                    log.push((now, ev_summary(&ev)));
                }
                self.handle(now, ev);
            }
            if tick > until {
                break;
            }
            self.record_tick(tick);
            self.next_metrics_tick = tick + self.config.metrics_interval;
            self.tick_index += 1;
            if self.snapshot_every > 0 && self.tick_index.is_multiple_of(self.snapshot_every) {
                let sealed = snap::seal(self.snapshot_body(tick));
                self.store_snapshot(tick, sealed);
            }
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// One metrics tick at `at`: samples the fleet, appends the per-tick
    /// run fingerprint, records the tick-driven series (active streams,
    /// decision deltas, stream availability), and rotates the
    /// object-attribution window.
    fn record_tick(&mut self, at: SimTime) {
        let decisions = self.total_decisions();
        // One availability sample: of all open streams on currently-connected
        // devices, the fraction a live BRASS host is serving right now.
        let mut live: FxHashSet<(u64, StreamId)> = FxHashSet::default();
        for (host, up) in self.hosts.iter().zip(&self.host_up) {
            if *up {
                live.extend(host.stream_keys());
            }
        }
        // One walk of each device (for a parked one, of its blob): open
        // streams across ALL devices, and of those on connected devices,
        // how many are served.
        let (mut active, mut open, mut served) = (0u64, 0u64, 0u64);
        for (&id, state) in &self.devices {
            state.for_each_open_sid(|sid| {
                active += 1;
                if state.connected {
                    open += 1;
                    served += u64::from(live.contains(&(id, sid)));
                }
            });
        }
        // Rotate the attribution map so it cannot grow without bound —
        // but keep a window covering application buffering horizons, so a
        // crash can still attribute the updates it takes down with it.
        const ATTRIBUTION_WINDOW: SimDuration = SimDuration::from_secs(30);
        self.object_delivered
            .retain(|_, t| at.saturating_since(*t) <= ATTRIBUTION_WINDOW);
        // The per-tick run fingerprint: tick time, the state digest, and the
        // fleet aggregates the series are about to record. Cumulative by
        // construction — once two runs disagree at a tick, they disagree at
        // every later tick, which is what lets the bisect harness
        // binary-search the series.
        let mut fp = Fp64::new();
        fp.mix_u64(at.as_micros());
        fp.mix_u64(self.fingerprint_now());
        fp.mix_u64(active);
        fp.mix_u64(decisions);
        fp.mix_u64(live.len() as u64);
        fp.mix_u64(open);
        self.fingerprints.push((at, fp.value()));
        self.event_stats.total += 1;
        self.event_stats.metrics += 1;
        self.metrics.ts_active_streams.record(at, active as f64);
        // Saturating: a crashed/upgraded host restarts with zeroed counters,
        // so the fleet total can move backwards across a tick.
        self.metrics
            .ts_decisions
            .record(at, decisions.saturating_sub(self.decisions_at_tick) as f64);
        self.decisions_at_tick = decisions;
        let fraction = if open == 0 {
            1.0
        } else {
            served as f64 / open as f64
        };
        self.metrics.record_availability(at, fraction);
    }

    // ------------------------------------------------------------------
    // Snapshot, resume, and divergence fingerprints.
    // ------------------------------------------------------------------

    /// Configures automatic snapshotting: capture the full sim state every
    /// `every_ticks` metrics ticks (0 disables), keeping the sealed bytes
    /// in memory (`keep_in_memory`) and/or writing them into `dir` as
    /// `snap-<µs>.brsnap`. A capture only reads state, so a run with
    /// snapshotting on is bit-identical to one with it off.
    pub fn set_snapshot_policy(
        &mut self,
        every_ticks: u64,
        keep_in_memory: bool,
        dir: Option<PathBuf>,
    ) {
        self.snapshot_every = every_ticks;
        self.snapshot_keep = keep_in_memory;
        self.snapshot_dir = dir;
    }

    /// Policy-captured in-memory snapshots, oldest first.
    pub fn snapshots(&self) -> &[(SimTime, Vec<u8>)] {
        &self.snapshots
    }

    /// Serializes the complete current state into a sealed snapshot.
    ///
    /// Exact at any instant between `run_until` calls: a resumed copy run
    /// to `T` is bit-identical to this sim run to `T`, and to a sim that
    /// never stopped.
    pub fn snapshot(&self) -> Vec<u8> {
        snap::seal(self.snapshot_body(self.now))
    }

    /// Serializes the whole simulation into one snapshot body (unsealed)
    /// stamped `at`. Component and liveness vectors carry no length: the
    /// config fixes it.
    fn snapshot_body(&self, at: SimTime) -> Vec<u8> {
        let mut out = SnapWriter::new();
        let w = &mut out;
        // The config is part of the experiment definition, not the state:
        // resume requires the caller to rebuild the exact same config and
        // only validates it (by its Debug rendering, which covers every
        // field) instead of round-tripping every nested knob.
        w.put_str(&format!("{:?}", self.config));
        at.snap(w);
        self.next_metrics_tick.snap(w);
        self.tick_index.snap(w);
        self.decisions_at_tick.snap(w);
        self.rng.snap(w);
        self.engine_rng.snap(w);
        self.langs.snap(w);
        self.scenario_sids.snap(w);
        self.reg.snap(w);
        self.ledger.snap(w);
        self.fingerprints.snap(w);
        self.queue.snap(w);
        self.was.snap(w);
        self.pylon.snap(w);
        self.hosts.iter().for_each(|host| host.snap(w));
        self.proxies.iter().for_each(|proxy| proxy.snap(w));
        self.pops.iter().for_each(|pop| pop.snap(w));
        for up in self.host_up.iter().chain(&self.proxy_up) {
            up.snap(w);
        }
        self.host_busy_until.iter().for_each(|t| t.snap(w));
        w.put_usize(self.devices.len());
        for (id, d) in &self.devices {
            id.snap(w);
            d.snap(w);
        }
        // Values verbatim: backfill traces replay in arrival order.
        self.pending_backfill.snap(w);
        self.object_delivered.snap(w);
        self.sub_started.snap(w);
        self.metrics.snap(w);
        self.event_stats.snap(w);
        w.put_bytes(&self.driver_blob);
        out.into_bytes()
    }

    /// Delivers one policy-captured snapshot: into the in-memory ring and/or
    /// onto disk, per the configured policy.
    fn store_snapshot(&mut self, tick: SimTime, sealed: Vec<u8>) {
        if let Some(dir) = &self.snapshot_dir {
            let path = dir.join(format!("snap-{:012}.brsnap", tick.as_micros()));
            std::fs::write(&path, &sealed)
                .unwrap_or_else(|e| panic!("writing snapshot {}: {e}", path.display()));
        }
        if self.snapshot_keep {
            self.snapshots.push((tick, sealed));
        }
    }

    /// Rebuilds a simulation from a sealed snapshot, fail-closed: the
    /// container checksum, the config (rebuilt by the caller and compared
    /// field-for-field via its Debug rendering), every length, tag, key
    /// order, and slot identity are validated before any state is handed
    /// over — an error never yields a partial world. The resumed sim
    /// continues bit-identically to the run that took the snapshot.
    pub fn resume(config: SystemConfig, bytes: &[u8]) -> SnapResult<SystemSim> {
        let body = snap::unseal(bytes)?;
        let r = &mut SnapReader::new(body);
        let stored = r.get_str()?;
        let live = format!("{config:?}");
        if stored != live {
            return Err(SnapError::Invalid(format!(
                "config mismatch: snapshot took {stored}, resume built {live}"
            )));
        }
        // Start from a pristine world (component vectors of the config's
        // sizes, empty queue) and overwrite everything stateful. The seed
        // doesn't matter: both RNG streams are replaced from the snapshot.
        let mut s = SystemSim::new(config, 0);
        s.now = Snap::restore(r)?;
        s.next_metrics_tick = Snap::restore(r)?;
        s.tick_index = Snap::restore(r)?;
        s.decisions_at_tick = Snap::restore(r)?;
        s.rng = Snap::restore(r)?;
        s.engine_rng = Snap::restore(r)?;
        s.langs = Snap::restore(r)?;
        if s.langs.iter().collect::<FxHashSet<_>>().len() != s.langs.len() {
            return Err(SnapError::Invalid("duplicate interned lang".into()));
        }
        s.scenario_sids = Snap::restore(r)?;
        s.reg = Snap::restore(r)?;
        if let Some(proxy) = s.reg.device_proxy.values().find(|&&p| p >= s.proxies.len()) {
            return Err(SnapError::Invalid(format!(
                "device-proxy route to proxy {proxy}, config has {}",
                s.proxies.len()
            )));
        }
        s.ledger = Snap::restore(r)?;
        s.fingerprints = snap::restore_sorted(r, |a: &(SimTime, u64), b| a.0 < b.0)?;
        s.queue = Snap::restore(r)?;
        s.was = Snap::restore(r)?;
        s.pylon = Snap::restore(r)?;
        restore_slots(r, &mut s.hosts, "host", |h| h.host_id().0)?;
        restore_slots(r, &mut s.proxies, "proxy", ReverseProxy::id)?;
        restore_slots(r, &mut s.pops, "POP", Pop::id)?;
        for up in s.host_up.iter_mut().chain(&mut s.proxy_up) {
            *up = Snap::restore(r)?;
        }
        for t in &mut s.host_busy_until {
            *t = Snap::restore(r)?;
        }
        // By hand: a device's restore needs its key.
        let mut last_dev: Option<u64> = None;
        for _ in 0..r.get_len()? {
            let dev = r.get_u64()?;
            if last_dev.is_some_and(|l| dev <= l) {
                return Err(SnapError::Invalid(
                    "device ids not strictly ascending".into(),
                ));
            }
            last_dev = Some(dev);
            let state = DeviceState::restore(dev, r)?;
            if state.lang as usize >= s.langs.len() {
                return Err(SnapError::Invalid(format!(
                    "device lang index {} outside the {}-entry intern table",
                    state.lang,
                    s.langs.len()
                )));
            }
            s.devices.insert(dev, state);
        }
        s.pending_backfill = Snap::restore(r)?;
        s.object_delivered = Snap::restore(r)?;
        if let Some((host, _)) = s.object_delivered.keys().find(|k| k.0 >= s.hosts.len()) {
            return Err(SnapError::Invalid(format!(
                "object-delivered host {host}, config has {}",
                s.hosts.len()
            )));
        }
        s.sub_started = Snap::restore(r)?;
        s.metrics = Snap::restore(r)?;
        s.event_stats = Snap::restore(r)?;
        s.driver_blob = r.get_bytes()?;
        r.finish()?;
        Ok(s)
    }

    /// Attaches opaque harness state (workload cursors, scenario extents)
    /// to be carried inside every snapshot this sim takes. Benches update
    /// it before each `run_until` chunk.
    pub fn set_driver_blob(&mut self, blob: Vec<u8>) {
        self.driver_blob = blob;
    }

    /// The harness state carried by the snapshot this sim resumed from
    /// (empty for a fresh sim).
    pub fn driver_blob(&self) -> &[u8] {
        &self.driver_blob
    }

    /// The per-metrics-tick rolling run fingerprints recorded so far.
    /// Identical for identical `(config, seed, workload)`, however the
    /// caller chunks `run_until` and regardless of hibernation or snapshot
    /// policy; the first differing entry between two runs brackets their
    /// first divergence.
    pub fn tick_fingerprints(&self) -> &[(SimTime, u64)] {
        &self.fingerprints
    }

    /// A cheap rolling fingerprint of the *executed* history: the ledger's
    /// rolling hash, the engine RNG's stream position, every event-stats
    /// counter, and the metrics digest — all of which change only when
    /// events run, never when they are merely scheduled. No serialization,
    /// and stable across equal states however they were reached — run
    /// straight, in chunks, or resumed from a snapshot. (Deliberately, a
    /// future event sitting unexecuted in the queue does not move the hash:
    /// the bisect engine depends on divergence showing up at the tick where
    /// behaviour actually differs.)
    pub fn fingerprint_now(&self) -> u64 {
        let mut fp = Fp64::new();
        fp.mix_u64(self.ledger.fingerprint());
        for word in self.engine_rng.state() {
            fp.mix_u64(word);
        }
        self.event_stats.mix_fp(&mut fp);
        self.metrics.mix_fingerprint(&mut fp);
        fp.value()
    }

    /// Switches the per-event diagnostic log on or off. While on, every
    /// popped event's `(time, event summary)` is recorded in execution
    /// order — the bisect harness replays a diverging tick under this log
    /// on both runs and diffs the streams.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.evlog = enabled.then(Vec::new);
    }

    /// Drains the event log; empty if the log was never on.
    pub fn take_event_log(&mut self) -> Vec<(SimTime, String)> {
        self.evlog.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Audits post-heal convergence: every connected device's open streams
    /// are served by a live BRASS host, and the trace ledger accounts for
    /// every admitted update as delivered, dropped-with-reason, or
    /// backfilled.
    pub fn convergence_report(&self) -> crate::fault::ConvergenceReport {
        let mut live: FxHashSet<(u64, StreamId)> = FxHashSet::default();
        let mut dead_host_streams = 0u64;
        for (host, up) in self.hosts.iter().zip(&self.host_up) {
            if *up {
                live.extend(host.stream_keys());
            } else {
                dead_host_streams += host.stream_count() as u64;
            }
        }
        let mut open_streams = 0u64;
        let mut connected_devices = 0u64;
        let mut stranded: Vec<(u64, StreamId)> = Vec::new();
        let mut flow_degraded_devices = 0u64;
        // Ascending device id: `stranded` comes out sorted.
        for (&id, state) in &self.devices {
            if !state.connected {
                continue;
            }
            connected_devices += 1;
            if state.flow.is_degraded() || !state.degraded_sids.is_empty() {
                flow_degraded_devices += 1;
            }
            for sid in state.open_sids() {
                open_streams += 1;
                if !live.contains(&(id, sid)) {
                    stranded.push((id, sid));
                }
            }
        }
        let ledger = &self.ledger;
        crate::fault::ConvergenceReport {
            connected_devices,
            open_streams,
            stranded,
            dead_host_streams,
            delivered: ledger.delivered_count(),
            dropped: ledger.total_drops(),
            backfilled: ledger.backfilled_count(),
            unaccounted: ledger.unaccounted(),
            flow_degraded_devices,
            violations: Vec::new(),
        }
        .finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SystemSim {
        SystemSim::new(SystemConfig::small(), 7)
    }

    #[test]
    fn quorum_retry_backoff_is_capped_at_any_attempt() {
        // Early attempts double; later attempts clamp at the cap instead
        // of shifting past 63 bits (attempt 64+ would have overflowed).
        let secs: Vec<u64> = [0u32, 1, 2, 3, 4, 5, 6, 8, 63, 64, 1_000, u32::MAX]
            .iter()
            .map(|&a| SystemSim::quorum_retry_backoff(a).as_secs())
            .collect();
        assert_eq!(secs, vec![1, 2, 4, 8, 16, 30, 30, 30, 30, 30, 30, 30]);
    }

    /// The three events that name an application carry it as a handle;
    /// the snapshot still holds the name, and only a registered one is
    /// accepted back.
    #[test]
    fn app_naming_events_round_trip_and_reject_unknown_apps() {
        let events = [
            Ev::BrassTimer {
                host: 3,
                app: App("lvc"),
                token: 77,
            },
            Ev::WasExec {
                host: 1,
                app: App("messenger"),
                token: FetchToken(9),
                request: WasRequest::MailboxAfter {
                    uid: 5,
                    after_seq: Some(2),
                },
                attributed: Some(SimTime::from_millis(40)),
            },
            Ev::WasReply {
                host: 2,
                app: App("typing"),
                token: FetchToken(10),
                response: WasResponse::Payload(b"{\"id\":1}".to_vec().into()),
                attributed: None,
            },
        ];
        for ev in &events {
            let mut w = SnapWriter::new();
            ev.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let back = Ev::restore(&mut r).expect("restore");
            r.finish().expect("no trailing bytes");
            let mut w = SnapWriter::new();
            back.snap(&mut w);
            assert_eq!(w.into_bytes(), bytes, "{ev:?}");
            assert_eq!(format!("{back:?}"), format!("{ev:?}"));
        }
        // The same bytes with the name swapped for one no host registers.
        for (tag, known) in [(10u8, "lvc"), (8, "messenger"), (9, "typing")] {
            let mut w = SnapWriter::new();
            w.put_u8(tag);
            w.put_usize(0);
            w.put_str("lvc2");
            w.put_u64(0);
            let bytes = w.into_bytes();
            let err = Ev::restore(&mut SnapReader::new(&bytes)).expect_err(known);
            assert!(err.to_string().contains("lvc2"), "{err}");
        }
    }

    #[test]
    fn comment_flows_end_to_end() {
        let mut s = sim();
        let video = s.was_mut().create_video("eclipse");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.post_comment(
            SimTime::from_secs(2),
            poster,
            video,
            "an astonishing ring of fire over the ocean",
        );
        s.run_until(SimTime::from_secs(60));
        assert_eq!(
            s.metrics().deliveries.get(),
            1,
            "comment reached the viewer"
        );
        assert_eq!(s.metrics().publications.get(), 1);
        let lat = &s.metrics().per_app["lvc"];
        assert_eq!(lat.total.count(), 1);
        // Total latency includes the ~2s WAS ranking plus fan-out and push.
        assert!(lat.total.mean() > 1_500.0, "total {}", lat.total.mean());
        assert!(lat.total.mean() < 15_000.0, "total {}", lat.total.mean());
    }

    #[test]
    fn poster_does_not_receive_without_subscription() {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let poster = s.create_user_device("poster", "en");
        s.post_comment(
            SimTime::from_secs(1),
            poster,
            video,
            "talking to the void here",
        );
        s.run_until(SimTime::from_secs(30));
        assert_eq!(s.metrics().deliveries.get(), 0);
        assert_eq!(
            s.metrics().publications.get(),
            1,
            "published but nobody listens"
        );
    }

    #[test]
    fn typing_indicator_round_trip() {
        let mut s = sim();
        let a = s.create_user_device("a", "en");
        let b = s.create_user_device("b", "en");
        let thread = s.was_mut().create_thread(&[a, b]);
        // b watches a's typing state.
        s.subscribe_typing(SimTime::ZERO, b, thread, a);
        s.set_typing(SimTime::from_secs(2), a, thread, true);
        s.run_until(SimTime::from_secs(20));
        assert_eq!(s.metrics().deliveries.get(), 1);
        let lat = &s.metrics().per_app["typing"];
        assert!(lat.total.count() == 1, "typing total latency recorded");
        // Typing avoids ranking: total latency well under the LVC path.
        assert!(lat.total.mean() < 3_000.0, "total {}", lat.total.mean());
    }

    #[test]
    fn messenger_delivers_reliably_in_order() {
        let mut s = sim();
        let a = s.create_user_device("a", "en");
        let b = s.create_user_device("b", "en");
        let thread = s.was_mut().create_thread(&[a, b]);
        s.subscribe_mailbox(SimTime::ZERO, b);
        for i in 0..5 {
            s.send_message(
                SimTime::from_secs(2 + i),
                a,
                thread,
                &format!("message number {i}"),
            );
        }
        s.run_until(SimTime::from_secs(60));
        // b receives all 5 (a has no open mailbox stream).
        assert_eq!(s.metrics().deliveries.get(), 5);
    }

    #[test]
    fn rate_limit_caps_lvc_deliveries() {
        let mut s = sim();
        let video = s.was_mut().create_video("hot");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        // 40 comments in 4 seconds.
        for i in 0..40 {
            s.post_comment(
                SimTime::from_millis(2_000 + i * 100),
                poster,
                video,
                &format!("burst comment number {i} with some substance"),
            );
        }
        s.run_until(SimTime::from_secs(40));
        // At 1 message / 2 s with a 10 s freshness window, only a handful
        // survive.
        let delivered = s.metrics().deliveries.get();
        assert!(delivered >= 2, "some comments delivered: {delivered}");
        assert!(
            delivered <= 12,
            "rate limit must cap deliveries: {delivered}"
        );
        assert!(s.total_decisions() > delivered, "most updates filtered");
    }

    #[test]
    fn device_drop_and_resubscribe_resumes_delivery() {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.post_comment(
            SimTime::from_secs(2),
            poster,
            video,
            "before the drop happens here",
        );
        s.run_until(SimTime::from_secs(15));
        let before = s.metrics().deliveries.get();
        assert_eq!(before, 1);
        // Drop the viewer; it reconnects and resubscribes automatically.
        s.schedule_device_drop(SimTime::from_secs(16), viewer);
        s.post_comment(
            SimTime::from_secs(25),
            poster,
            video,
            "after reconnect this arrives",
        );
        s.run_until(SimTime::from_secs(60));
        assert_eq!(s.metrics().connection_drops.get(), 1);
        assert_eq!(
            s.metrics().deliveries.get(),
            2,
            "delivery resumed after reconnect"
        );
    }

    #[test]
    fn brass_upgrade_repairs_streams_via_proxy() {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.run_until(SimTime::from_secs(10));
        // Upgrade every host in turn at t=12; the stream's host is repaired.
        for h in 0..4 {
            s.schedule_brass_upgrade(
                SimTime::from_secs(12 + h),
                h as usize,
                SimDuration::from_secs(30),
            );
        }
        s.post_comment(
            SimTime::from_secs(50),
            poster,
            video,
            "life after the upgrade wave",
        );
        s.run_until(SimTime::from_secs(90));
        assert!(s.total_proxy_reconnects() >= 1, "proxy repaired the stream");
        assert_eq!(
            s.metrics().deliveries.get(),
            1,
            "delivery works after repair"
        );
    }

    #[test]
    fn pylon_outage_fails_subscribes_but_not_publishes() {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let viewer = s.create_user_device("viewer", "en");
        // Take down ALL subscriber-KV nodes: quorum for every topic is gone.
        for n in 0..s.pylon().config().kv_nodes as u64 {
            s.schedule_pylon_outage(SimTime::ZERO, n, SimDuration::from_secs(30));
        }
        s.subscribe_lvc(SimTime::from_secs(5), viewer, video);
        s.run_until(SimTime::from_secs(20));
        assert!(
            s.metrics().quorum_failures.get() >= 1,
            "CP subscribe failed"
        );
        // After the outage the retry succeeds and delivery flows.
        let poster = s.create_user_device("poster", "en");
        s.post_comment(
            SimTime::from_secs(60),
            poster,
            video,
            "postquorum comment arrives fine",
        );
        s.run_until(SimTime::from_secs(120));
        assert_eq!(s.metrics().deliveries.get(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = SystemSim::new(SystemConfig::small(), 99);
            let video = s.was_mut().create_video("v");
            let poster = s.create_user_device("poster", "en");
            let viewer = s.create_user_device("viewer", "en");
            s.subscribe_lvc(SimTime::ZERO, viewer, video);
            for i in 0..10 {
                s.post_comment(
                    SimTime::from_secs(2 + i),
                    poster,
                    video,
                    &format!("comment {i} with consistent text"),
                );
            }
            s.run_until(SimTime::from_secs(60));
            (
                s.metrics().deliveries.get(),
                s.metrics().publications.get(),
                s.total_decisions(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stream_lifetime_and_publication_accounting() {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.post_comment(
            SimTime::from_secs(1),
            poster,
            video,
            "a single interesting comment",
        );
        s.run_until(SimTime::from_secs(20));
        s.cancel_stream(SimTime::from_secs(21), viewer, StreamId(1));
        s.run_until(SimTime::from_secs(30));
        assert_eq!(s.metrics().stream_lifetimes.len(), 1);
        assert!(s.metrics().stream_lifetimes[0] >= SimDuration::from_secs(20));
        let buckets = s.metrics().publication_buckets();
        assert_eq!(buckets[1], 100.0, "the one stream saw 1-9 publications");
    }

    #[test]
    fn lvc_traces_account_for_every_update() {
        let mut s = sim();
        let video = s.was_mut().create_video("traced");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        // A burst dense enough to exercise the drop paths: buffer
        // overflow and rate-limit expiry alongside ordinary delivery.
        for i in 0..30 {
            s.post_comment(
                SimTime::from_millis(2_000 + i * 200),
                poster,
                video,
                &format!("burst comment number {i} with plenty of text"),
            );
        }
        // Posts end by t=8s; with a 10s freshness window and a 2s push
        // timer, every buffered comment is pushed or expired long before
        // t=60s, so no trace can still be in flight at the end.
        s.run_until(SimTime::from_secs(60));

        let ledger = s.trace_ledger();
        assert_eq!(ledger.trace_count() as u64, s.metrics().publications.get());
        assert!(ledger.unaccounted().is_empty(), "every update resolved");

        let mut delivered = 0u64;
        for trace in ledger.trace_ids() {
            let chain = ledger.chain(trace);
            assert_eq!(chain[0].hop, Hop::TaoCommit, "chains start at commit");
            for pair in chain.windows(2) {
                assert!(pair[0].at <= pair[1].at, "hop timestamps are monotone");
            }
            if ledger.is_delivered(trace) {
                delivered += 1;
                let last = chain.last().unwrap();
                assert_eq!(last.hop, Hop::DeviceRender);
                assert_eq!(last.outcome, HopOutcome::Ok);
                // Per-hop latencies telescope to the end-to-end latency.
                let hop_sum = chain
                    .windows(2)
                    .map(|p| p[1].at.saturating_since(p[0].at))
                    .fold(SimDuration::ZERO, |a, b| a + b);
                let e2e = ledger
                    .deliveries()
                    .iter()
                    .find(|(t, _)| *t == trace)
                    .map(|(_, d)| *d)
                    .unwrap();
                assert_eq!(hop_sum, e2e, "hop latencies sum to delivery latency");
            } else {
                ledger
                    .drop_of(trace)
                    .expect("non-delivered update has a drop record naming hop and reason");
            }
        }
        assert_eq!(delivered, s.metrics().deliveries.get());
        assert!(delivered > 0, "some comments were delivered");
        assert!(
            delivered < 30,
            "the burst must overflow the buffer / rate limit"
        );
        assert!(
            !ledger.drop_table().is_empty(),
            "drop attribution table is populated"
        );
        assert!(
            !ledger.hop_summaries().is_empty(),
            "per-hop latency histograms are populated"
        );
    }

    #[test]
    fn sub_e2e_latency_recorded() {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.run_until(SimTime::from_secs(10));
        assert_eq!(s.metrics().sub_e2e.count(), 1);
        // The sticky-routing rewrite response travels device→BRASS→device.
        assert!(s.metrics().sub_e2e.mean() > 100.0);
    }

    /// Runs a multi-app scenario and returns an exact fingerprint of the
    /// metrics: any dependence on `TopicId` assignment order would perturb
    /// at least one of these numbers.
    fn metrics_fingerprint() -> String {
        let mut s = sim();
        let video = s.was_mut().create_video("eclipse");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        let thread = s.was_mut().create_thread(&[poster, viewer]);
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.subscribe_mailbox(SimTime::from_millis(10), viewer);
        s.subscribe_typing(SimTime::from_millis(20), viewer, thread, poster);
        s.subscribe_active_status(SimTime::from_millis(30), viewer);
        for i in 0..8 {
            s.post_comment(
                SimTime::from_millis(2_000 + i * 700),
                poster,
                video,
                &format!("comment number {i} with enough words to rank"),
            );
        }
        s.set_typing(SimTime::from_secs(3), poster, thread, true);
        s.send_message(SimTime::from_secs(4), poster, thread, "hello there");
        s.set_online(SimTime::from_secs(5), poster);
        s.run_until(SimTime::from_secs(60));
        let m = s.metrics();
        let mut apps: Vec<_> = m.per_app.iter().collect();
        apps.sort_by(|a, b| a.0.cmp(b.0));
        let per_app: Vec<String> = apps
            .iter()
            .map(|(name, lat)| {
                format!(
                    "{name}:{}:{:x}",
                    lat.total.count(),
                    lat.total.mean().to_bits()
                )
            })
            .collect();
        format!(
            "deliveries={} publications={} subscriptions={} mutations={} \
             decisions={} events={} apps=[{}]",
            m.deliveries.get(),
            m.publications.get(),
            m.subscriptions.get(),
            m.mutations.get(),
            s.total_decisions(),
            s.event_stats().total,
            per_app.join(",")
        )
    }

    /// Child half of `intern_order_does_not_change_metrics`: only active
    /// when re-executed by the parent with `BR_INTERN_DECOYS` set. Interns
    /// that many decoy topics *first* — shifting every `TopicId` the
    /// scenario will allocate — then prints the metrics fingerprint.
    #[test]
    fn intern_order_child() {
        let Ok(decoys) = std::env::var("BR_INTERN_DECOYS") else {
            return;
        };
        let decoys: u32 = decoys.parse().expect("BR_INTERN_DECOYS is a count");
        for i in 0..decoys {
            Topic::new(&format!("/Decoy/{i}")).unwrap();
        }
        println!("FINGERPRINT {}", metrics_fingerprint());
    }

    /// Interning is process-global, so perturbing id assignment requires a
    /// fresh process: the test re-executes its own binary twice, once with
    /// no decoy topics and once with 64 interned up front, and asserts the
    /// two runs produce bit-identical metrics. Referenced from the module
    /// docs of `pylon::topic`.
    #[test]
    fn intern_order_does_not_change_metrics() {
        let exe = std::env::current_exe().expect("test binary path");
        let run = |decoys: &str| -> String {
            let out = std::process::Command::new(&exe)
                .args(["sim::tests::intern_order_child", "--exact", "--nocapture"])
                .env("BR_INTERN_DECOYS", decoys)
                .output()
                .expect("re-exec test binary");
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(out.status.success(), "child failed:\n{stdout}");
            // The harness may prefix its own status on the same line, so
            // split on the marker rather than anchoring at column zero.
            stdout
                .lines()
                .find_map(|l| l.split("FINGERPRINT ").nth(1))
                .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
                .to_owned()
        };
        let baseline = run("0");
        let shifted = run("64");
        assert_eq!(
            baseline, shifted,
            "metrics must not depend on topic intern order"
        );
    }
}
