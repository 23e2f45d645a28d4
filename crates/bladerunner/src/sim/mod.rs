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
//! [`TraceLedger`] and one [`SystemMetrics`],
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
//! Attribution keeps no table of its own: a trace opens at TAO commit and
//! the data carries it from there — a WAS fetch and a host's drop name
//! their trace, and every update payload is tagged by the BRASS app that
//! built it, so each hop records the traces its frame's payloads name.
//!
//! The result is a simulation whose outputs are a pure function of
//! `(config, seed, workload)` and of nothing about how the caller slices
//! time: `run_until(T)` equals any chunking of it, and a snapshot taken
//! between any two calls resumes to the same future.
//!
//! # Map
//!
//! This file holds the struct, the dispatch table (`handle`), `run_until`
//! and the metrics tick. Each `Ev` kind's handler lives with its layer:
//! `ev` (the event vocabulary and its snapshot tags), `fleet` (a device's
//! resident form, park and wake, its proxy route), `backend` (workload,
//! WAS, Pylon and BRASS), `transport` (a frame's way up and down between
//! device and BRASS), `faults` (churn, crashes, outages, heartbeats),
//! `snapshot` (snapshot, resume, fingerprints, the convergence audit) and
//! `api` (what a driver calls).

mod api;
mod backend;
mod ev;
mod faults;
mod fleet;
mod snapshot;
mod transport;

use std::collections::BTreeMap;

use brass::app::DeviceId;
use brass::host::{BrassHost, HostEffect};
use burst::frame::StreamId;
use edge::device::DeviceOutput;
use edge::pop::{Pop, PopEffect};
use edge::proxy::{ProxyEffect, ReverseProxy};
use pylon::{HostId, PylonCluster};
use simkit::fxhash::{FxHashMap, FxHashSet};
use simkit::queue::EventQueue;
use simkit::rng::DetRng;
use simkit::snap::{self, Fp64};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{TraceId, TraceLedger};
use was::service::WebApplicationServer;

use crate::config::SystemConfig;
use crate::latency::LatencyModel;
use crate::metrics::SystemMetrics;

pub use ev::EventStats;
use ev::{ev_summary, Ev};
use fleet::{DeviceState, ParkScratch};

// ----------------------------------------------------------------------
// The simulation: one event loop over the whole system.
// ----------------------------------------------------------------------

/// The full-system simulation: every component, the ledger, and the one
/// event queue that drives them. See the module docs.
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

    /// The device fleet, keyed by uid. An [`IdMap`], not a hash map: the
    /// fleet is built in ascending-id order and lives for the whole run,
    /// so a device is found by `uid − first uid` through a 4-byte-per-id
    /// index, and at seven figures a hash table's empty buckets alone
    /// would cost hundreds of megabytes (entries are 152 B each).
    ///
    /// [`IdMap`]: simkit::collections::IdMap
    devices: simkit::collections::IdMap<DeviceState>,
    /// The per-update hop ledger: every admitted update's journey through
    /// write → Pylon → BRASS → BURST → device, with drop attribution, in
    /// execution order.
    ledger: TraceLedger,
    /// (device, sid) → traces lost in delivery to that stream, recoverable
    /// by a WAS backfill poll (gap detection or reconnect). Ordered, so a
    /// reconnect reads its own device's streams as one range.
    pending_backfill: BTreeMap<(u64, StreamId), Vec<TraceId>>,
    /// When Pylon delivered each trace to each host, kept for an
    /// attribution window: a later payload fetch for the trace is timed
    /// from it (Fig. 9), and a host that dies drops what it received.
    pylon_delivered: FxHashMap<(usize, TraceId), SimTime>,
    /// Subscription start times (device-observed subscribe latency).
    sub_started: FxHashMap<(u64, StreamId), SimTime>,

    metrics: SystemMetrics,
    event_stats: EventStats,
    /// Decisions seen at the last metrics tick (for per-bucket deltas).
    decisions_at_tick: u64,
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
    /// The metrics tick's set of served stream keys
    /// ([`SystemSim::served_keys`]).
    served: FxHashSet<(u64, StreamId)>,
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
            Ev::WasMutationExec { gql, app } => self.on_was_mutation(now, &gql, app),
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
            } => self.on_was_exec(now, host, app, token, request, attributed),
            Ev::WasReply {
                host,
                app,
                token,
                response,
                attributed,
            } => self.drive_host(now, host, attributed, |h, fx| {
                h.on_was_response_into(app, token, response, now, fx)
            }),
            Ev::BrassTimer { host, app, token } => {
                self.drive_host(now, host, None, |h, fx| {
                    h.on_timer_into(app, token, now, fx)
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
                self.on_hb_ping_at_host(now, proxy, host, token)
            }
            Ev::PongFromHost { proxy, host, .. } => {
                if self.proxy_up[proxy] {
                    self.proxies[proxy].note_host_activity(host as u32);
                }
            }
            Ev::PylonHostFailed { host } => self.pylon.host_failed(HostId(host as u32)),
            Ev::ProxyHostFailed { proxy, host } => self.drive_proxy_repair(now, proxy, |p, fx| {
                p.on_brass_host_failed_into(host as u32, fx)
            }),
            Ev::ProxyAddHost { proxy, host } => {
                self.drive_proxy_repair(now, proxy, |p, fx| p.add_host_into(host as u32, fx))
            }
            // No-op when heartbeat detection already fired (the host left
            // the pool and the failed/add_host pair owns repair).
            Ev::ProxyHostRestarted { proxy, host } => {
                self.drive_proxy_repair(now, proxy, |p, fx| {
                    p.on_host_restarted_into(host as u32, fx)
                })
            }
            Ev::PopProxyFailed { pop, proxy } => {
                self.drive_pop(now, pop, |p, fx| p.on_proxy_failed_into(proxy as u32, fx));
            }
            Ev::PopAddProxy { pop, proxy } => {
                self.drive_pop(now, pop, |p, fx| p.add_proxy_into(proxy as u32, fx));
            }
            Ev::ProxyDeviceGone { proxy, device } => {
                if self.proxy_is_up(proxy) {
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
        self.process_proxy_effects(now, proxy, &mut fx, now);
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
                self.snapshots.push((tick, sealed));
            }
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// One metrics tick at `at`: samples the fleet, appends the per-tick
    /// run fingerprint, records the tick-driven series (active streams,
    /// decision deltas, stream availability), and rotates the
    /// Pylon-delivery attribution window.
    fn record_tick(&mut self, at: SimTime) {
        let decisions = self.total_decisions();
        // One availability sample: of all open streams on currently-connected
        // devices, the fraction a live BRASS host is serving right now.
        let mut live = std::mem::take(&mut self.served);
        self.served_keys(&mut live);
        // One walk of each device's open sids (a parked one's kept beside
        // its blob): open streams across ALL devices, and of those on
        // connected devices, how many are served.
        let (mut active, mut open, mut served) = (0u64, 0u64, 0u64);
        for (id, state) in &self.devices {
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
        self.pylon_delivered
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
        self.served = live;
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

    /// Fills `served` with the `(device, sid)` key of every stream a live
    /// BRASS host serves, emptying it first (its capacity stays).
    fn served_keys(&self, served: &mut FxHashSet<(u64, StreamId)>) {
        served.clear();
        for (host, up) in self.hosts.iter().zip(&self.host_up) {
            if *up {
                served.extend(host.iter_stream_keys());
            }
        }
    }
}

// Declared last: the hasher and file-size gates read a file up to its
// first `#[cfg(test)]`.
#[cfg(test)]
mod tests;
