//! Everything that breaks and heals: device churn (`DeviceDrop`,
//! `DeviceVanish`, `DeviceReconnect`), BRASS upgrades and crashes, proxy
//! outages, and the heartbeat tick that detects what nobody announced. A
//! new fault is an `Ev` variant, a handler here, and a scheduler in
//! `api.rs`.

use brass::host::{BrassHost, HostConfig};
use burst::frame::{Frame, StreamId};
use burst::heartbeat::INTERVAL_US;
use edge::proxy::{ProxyEffect, ReverseProxy};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop, HopOutcome, TraceId};

use super::ev::Ev;
use super::SystemSim;
use crate::config::SystemConfig;

impl SystemSim {
    /// The delay before a dropped device's next reconnect attempt: capped
    /// exponential backoff on its recent drop streak, plus deterministic
    /// jitter so a mass-disconnect does not come back as one synchronized
    /// thundering herd.
    fn reconnect_backoff(&mut self, now: SimTime, device: u64) -> SimDuration {
        let base = self.config.reconnect_delay;
        let Some(state) = self.devices.get_mut(device) else {
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
        if let Some(state) = self.devices.get_mut(device) {
            state.flow.reset();
            state.degraded_sids.clear();
        }
    }

    /// The device's connection died, however the server side comes to
    /// learn of it: flow state goes with the connection, the device is
    /// marked disconnected and counted, and its machine hands back the
    /// resubscribes its next connection opens with. `None` if it was not
    /// connected.
    fn lose_connection(&mut self, now: SimTime, device: u64) -> Option<Vec<Frame>> {
        self.reset_flow_state(device);
        let state = self.devices.get_mut(device)?;
        if !state.connected {
            return None;
        }
        state.connected = false;
        self.metrics.connection_drops.inc();
        self.metrics.ts_connection_drops.inc(now);
        Some(state.wake(device, &mut self.park).on_connection_lost())
    }

    /// The device comes back with `frames` once its backoff has run.
    fn schedule_reconnect(&mut self, now: SimTime, device: u64, frames: Vec<Frame>) {
        let backoff = self.reconnect_backoff(now, device);
        self.queue
            .schedule(now + backoff, Ev::DeviceReconnect { device, frames });
    }

    /// An announced drop: the POP sees the connection close and tells the
    /// owning proxy before the device starts its backoff.
    pub(super) fn on_device_drop(&mut self, now: SimTime, device: u64) {
        let Some(frames) = self.lose_connection(now, device) else {
            return;
        };
        let pop = device as usize % self.pops.len();
        // The `DeviceGone` this emits finds the device already marked
        // disconnected, so only its proxy teardown runs.
        self.drive_pop(now, pop, |p, fx| p.on_device_disconnected_into(device, fx));
        self.schedule_reconnect(now, device, frames);
    }

    /// A *silent* link death: no FIN reaches the POP, so server-side state
    /// lingers until POP heartbeats notice (or the device's reconnect
    /// overwrites it). The device itself notices quickly and reconnects on
    /// the same backoff schedule as an announced drop.
    pub(super) fn on_device_vanish(&mut self, now: SimTime, device: u64) {
        if let Some(frames) = self.lose_connection(now, device) {
            self.metrics.device_vanishes.inc();
            self.schedule_reconnect(now, device, frames);
        }
    }

    /// A POP declared the device gone and tells the proxy carrying its
    /// streams. The reap can be a false positive: the device is alive but
    /// its pongs died on a lossy link. The POP has already closed the
    /// connection under it, so the device sees the transport die and
    /// reconnects on the normal backoff schedule (otherwise it would sit
    /// "connected" with streams no server knows about, forever).
    pub(super) fn on_device_gone(&mut self, now: SimTime, proxy: usize, device: u64) {
        self.queue
            .schedule(now, Ev::ProxyDeviceGone { proxy, device });
        if let Some(frames) = self.lose_connection(now, device) {
            self.schedule_reconnect(now, device, frames);
        }
    }

    pub(super) fn on_device_reconnect(&mut self, now: SimTime, device: u64, frames: Vec<Frame>) {
        self.reset_flow_state(device);
        let Some(state) = self.devices.get_mut(device) else {
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
            self.send_up(now, link, device, frame);
        }
        // Anything lost while the device was away is refetched from the
        // WAS once the connection is back.
        let streams = (device, StreamId(0))..=(device, StreamId(u64::MAX));
        let missed: Vec<StreamId> = self
            .pending_backfill
            .range(streams)
            .map(|(&(_, sid), _)| sid)
            .collect();
        for sid in missed {
            self.schedule_backfill_poll(now, link, device, sid);
        }
    }

    /// The host's process is gone and an empty one stands in its place.
    /// In-memory state — stream tables, app buffers — dies instantly, so
    /// every update Pylon delivered to the host within the attribution
    /// window that it may still have been buffering is dropped with
    /// attribution (traces that already rendered are left alone; anything
    /// else gets a `HostDown` drop so the ledger still accounts for it),
    /// and the ingress backlog dies with the process.
    fn wipe_host(&mut self, now: SimTime, host: usize) {
        let delivered = self.pylon_delivered.keys();
        let mut traces: Vec<TraceId> = delivered.filter(|k| k.0 == host).map(|k| k.1).collect();
        traces.sort_unstable();
        for trace in traces {
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
        self.hosts[host] = fresh_host(host as u32);
        self.host_busy_until[host] = SimTime::ZERO;
    }

    pub(super) fn on_brass_upgrade(&mut self, now: SimTime, host: usize) {
        // Pylon drops the host's subscriptions; proxies repair every
        // affected stream elsewhere. This is the *planned* path: everyone
        // is told immediately.
        self.wipe_host(now, host);
        self.queue.schedule(now, Ev::PylonHostFailed { host });
        for proxy in 0..self.config.proxies as usize {
            self.queue
                .schedule(now, Ev::ProxyHostFailed { proxy, host });
        }
    }

    /// A planned (upgrade) or healed (crash) host rejoins every live
    /// proxy's routing pool with a fresh heartbeat monitor.
    pub(super) fn on_brass_host_back(&mut self, now: SimTime, host: usize) {
        for proxy in 0..self.config.proxies as usize {
            self.queue.schedule(now, Ev::ProxyAddHost { proxy, host });
        }
    }

    /// Runs a handler that may repair streams on a live proxy and records
    /// the repair burst in the proxy-reconnect series (additive buckets,
    /// so per-proxy records sum to the fleet-wide delta).
    pub(super) fn drive_proxy_repair(
        &mut self,
        now: SimTime,
        proxy: usize,
        handler: impl FnOnce(&mut ReverseProxy, &mut Vec<ProxyEffect>),
    ) {
        if !self.proxy_is_up(proxy) {
            return;
        }
        let before = self.proxies[proxy].induced_reconnects();
        self.drive_proxy(now, proxy, handler);
        let delta = self.proxies[proxy].induced_reconnects() - before;
        self.metrics.ts_proxy_reconnects.record(now, delta as f64);
    }

    pub(super) fn on_brass_crash(&mut self, now: SimTime, host: usize) {
        if host >= self.hosts.len() || !self.host_up[host] {
            return;
        }
        self.host_up[host] = false;
        self.metrics.host_crashes.inc();
        self.wipe_host(now, host);
        // Crucially, NOTHING is signalled here: Pylon keeps fanning events
        // at the corpse and proxies keep routing to it until their
        // heartbeat monitors cross the miss threshold.
    }

    pub(super) fn on_brass_recover(&mut self, now: SimTime, host: usize) {
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

    pub(super) fn on_proxy_outage(&mut self, now: SimTime, proxy: usize) {
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

    pub(super) fn on_proxy_back(&mut self, now: SimTime, proxy: usize) {
        if proxy >= self.proxies.len() || self.proxy_up[proxy] {
            return;
        }
        // The proxy restarts empty with the full host roster minus hosts
        // already dead; anything that dies later is re-detected by its
        // fresh heartbeat monitors.
        let mut fresh = fresh_proxy(&self.config, proxy as u32);
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

    /// A proxy's ping reaches a host. A dead host simply never answers. A
    /// *live but overloaded* host answers late — the pong waits behind the
    /// ingress backlog, which is exactly how overload masquerades as death
    /// to a naive heartbeat monitor.
    pub(super) fn on_hb_ping_at_host(
        &mut self,
        now: SimTime,
        proxy: usize,
        host: usize,
        token: u64,
    ) {
        if !self.host_is_up(host) {
            return;
        }
        let qdelay = self
            .host_admit(now, host, false)
            .unwrap_or(SimDuration::ZERO);
        let back = self.latency.proxy_brass(&mut self.engine_rng);
        self.queue
            .schedule(now + qdelay + back, Ev::PongFromHost { proxy, host, token });
    }

    /// The heartbeat tick: live proxies ping their BRASS hosts (and repair
    /// streams off hosts that crossed the miss threshold); POPs ping
    /// devices when device heartbeats are on.
    pub(super) fn on_heartbeat_tick(&mut self, now: SimTime) {
        for proxy in 0..self.proxies.len() {
            self.drive_proxy_repair(now, proxy, |p, fx| {
                p.on_heartbeat_tick_into(now.as_micros(), fx)
            });
        }
        if self.config.device_heartbeats {
            for pop in 0..self.pops.len() {
                self.drive_pop(now, pop, |p, fx| {
                    p.on_heartbeat_tick_into(now.as_micros(), fx)
                });
            }
        }
        self.queue
            .schedule(now + HEARTBEAT_INTERVAL, Ev::HeartbeatTick);
    }
}

/// An empty BRASS host process with the standard applications registered.
pub(crate) fn fresh_host(id: u32) -> BrassHost {
    let mut host = BrassHost::new(HostConfig::small(id));
    host.register_standard_apps();
    host
}

/// The heartbeat tick's period: `burst::heartbeat`'s one interval.
pub(super) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_micros(INTERVAL_US);

/// An empty reverse proxy over the full host roster, heartbeats armed.
pub(super) fn fresh_proxy(config: &SystemConfig, id: u32) -> ReverseProxy {
    let hosts = (0..config.brass_hosts).collect();
    ReverseProxy::new(id, config.route_strategy, hosts)
}
