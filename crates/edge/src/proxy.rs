//! The reverse proxy at the datacenter edge.
//!
//! "Proxies determine which BRASS host to route device subscription
//! requests to. This routing is based on load, topic, or a combination of
//! both" (§3.2) — with sticky routing taking precedence when a header
//! carries a `brass_host` field patched in by a previous BRASS (§3.5).
//!
//! Proxies are first-class protocol participants: they keep a copy of each
//! stream's (rewritten) header and body so that when a BRASS host fails or
//! drains, the proxy — as "the component downstream from a failure that is
//! closest to the failure" (axiom 2) — re-establishes every affected stream
//! itself, while signalling the degradation and recovery to the devices
//! (axiom 1).

use burst::frame::{FlowStatus, Frame, StreamId};
use burst::heartbeat::{HeartbeatMonitor, PeerHealth};
use burst::json::Json;
use burst::stream::ProxyStreamTable;
use simkit::{snap_enum, snap_struct};

use crate::distinct;

/// How the proxy picks a BRASS host for a fresh (non-sticky) subscribe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteStrategy {
    /// Hash the topic onto a host: curtails Pylon subscription counts for
    /// low-fanout applications (all streams of a topic share a host).
    ByTopic,
    /// Route to the least-loaded host: spreads high-fanout applications.
    ByLoad,
}

/// What the proxy asks its environment to do. Frames stay in the box they
/// arrived in, so relaying one moves a pointer.
#[derive(Clone, Debug, PartialEq)]
pub enum ProxyEffect {
    /// Forward a frame to a BRASS host.
    ToBrass {
        /// Target host.
        host: u32,
        /// Originating device (BRASS needs it to address the stream).
        device: u64,
        /// The frame.
        frame: Box<Frame>,
    },
    /// Forward a frame toward a device (via its POP).
    ToDevice {
        /// Target device.
        device: u64,
        /// The frame.
        frame: Box<Frame>,
    },
    /// Send a heartbeat ping to a BRASS host (§4 footnote 11).
    PingHost {
        /// Target host.
        host: u32,
        /// Ping token (echoed back in the pong).
        token: u64,
    },
    /// This proxy's heartbeat monitor declared a BRASS host dead. Emitted
    /// once per (proxy, failure), right before the repair effects.
    HostDown {
        /// The dead host.
        host: u32,
    },
}

/// A BRASS host in the routing pool.
#[derive(Clone, Debug, Default)]
struct Host {
    id: u32,
    /// Streams routed here since the host joined the pool (subscribes and
    /// repairs; cancels do not subtract). `ByLoad` picks the least.
    load: u64,
    /// The proxy's only way of learning that the host died unplanned (no
    /// omniscient teardown).
    heartbeat: HeartbeatMonitor,
}

/// A reverse proxy at the edge of a BRASS datacenter.
pub struct ReverseProxy {
    id: u32,
    strategy: RouteStrategy,
    /// The routing pool, in the order hosts joined it: `ByTopic` routing
    /// and a disconnect's cancels follow this order.
    hosts: Vec<Host>,
    table: ProxyStreamTable,
    /// Streams re-established by this proxy after BRASS failures, drains
    /// and restarts (Fig. 10 bottom).
    induced_reconnects: u64,
}

impl ReverseProxy {
    /// Creates a proxy in front of the given BRASS hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` names a host twice.
    pub fn new(id: u32, strategy: RouteStrategy, hosts: Vec<u32>) -> Self {
        distinct(hosts.iter().copied()).expect("a proxy pool names each host once");
        ReverseProxy {
            id,
            strategy,
            hosts: hosts
                .into_iter()
                .map(|id| Host {
                    id,
                    ..Host::default()
                })
                .collect(),
            table: ProxyStreamTable::new(),
            induced_reconnects: 0,
        }
    }

    /// This proxy's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Streams currently tracked.
    pub fn stream_count(&self) -> usize {
        self.table.len()
    }

    /// Streams re-established by this proxy after BRASS failures, drains
    /// and restarts.
    pub fn induced_reconnects(&self) -> u64 {
        self.induced_reconnects
    }

    fn host_mut(&mut self, host: u32) -> Option<&mut Host> {
        self.hosts.iter_mut().find(|h| h.id == host)
    }

    /// Removes a failed host from the routing pool (until re-added).
    pub fn remove_host(&mut self, host: u32) {
        self.hosts.retain(|h| h.id != host);
    }

    /// Adds a (possibly recovered) host to the routing pool and repairs any
    /// orphaned streams (streams whose repair previously had no surviving
    /// host to land on, or that were subscribed while the pool was empty).
    /// Axiom 2: the closest downstream component repairs once connectivity
    /// returns.
    pub fn add_host_into(&mut self, host: u32, out: &mut Vec<ProxyEffect>) {
        if !self.hosts.iter().any(|h| h.id == host) {
            self.hosts.push(Host {
                id: host,
                ..Host::default()
            });
        }
        let live: Vec<u64> = self.hosts.iter().map(|h| h.id as u64).collect();
        let orphans = self.table.orphans(&live);
        self.add_load(host, orphans.len() as u64);
        for (device, sid) in orphans {
            self.resubscribe_to(device, sid, host, out);
        }
    }

    /// Counts `n` more streams routed to `host`, a pool member.
    fn add_load(&mut self, host: u32, n: u64) {
        self.host_mut(host).expect("routes go to the pool").load += n;
    }

    /// Re-routes one stream to `host` from stored state and tells its
    /// device the path is whole again.
    fn resubscribe_to(
        &mut self,
        device: u64,
        sid: StreamId,
        host: u32,
        out: &mut Vec<ProxyEffect>,
    ) {
        if let Some(frame) = self.table.rebuild_subscribe(device, sid, host as u64) {
            self.induced_reconnects += 1;
            out.push(ProxyEffect::ToBrass {
                host,
                device,
                frame: frame.into(),
            });
            out.push(ProxyEffect::ToDevice {
                device,
                frame: Frame::flow_status(sid, FlowStatus::Recovered).into(),
            });
        }
    }

    /// Drives heartbeat-based failure detection (§4 footnote 11): emits a
    /// ping per host whose interval elapsed, and — for hosts whose miss
    /// threshold was crossed — a [`ProxyEffect::HostDown`] marker followed
    /// by the stream-repair effects of
    /// [`on_brass_host_failed_into`](Self::on_brass_host_failed_into). This
    /// is the only path by which a proxy learns of an unplanned host crash.
    /// Hosts are visited in ascending id order, whatever the pool order.
    pub fn on_heartbeat_tick_into(&mut self, now_us: u64, out: &mut Vec<ProxyEffect>) {
        let mut order: Vec<usize> = (0..self.hosts.len()).collect();
        order.sort_unstable_by_key(|&at| self.hosts[at].id);
        let mut dead = Vec::new();
        for at in order {
            let Host { id, heartbeat, .. } = &mut self.hosts[at];
            if let Some(Frame::Ping { token }) = heartbeat.on_tick(now_us) {
                out.push(ProxyEffect::PingHost { host: *id, token });
            }
            if heartbeat.health() == PeerHealth::Failed {
                dead.push(*id);
            }
        }
        for host in dead {
            out.push(ProxyEffect::HostDown { host });
            self.on_brass_host_failed_into(host, out);
        }
    }

    /// Credits a heartbeat pong, or any other frame received from a BRASS
    /// host, as liveness evidence.
    ///
    /// Without this, an overloaded-but-healthy host whose pong responses
    /// queue behind a data backlog is declared dead the moment the miss
    /// threshold crosses — even while it is actively streaming updates
    /// through this proxy — and the resulting repair storm re-subscribes
    /// every stream onto other hosts, amplifying the very overload that
    /// delayed the pongs. Data frames are proof of life; only true
    /// silence should fail a host.
    pub fn note_host_activity(&mut self, host: u32) {
        if let Some(h) = self.host_mut(host) {
            h.heartbeat.on_activity();
        }
    }

    /// The host a fresh subscribe goes to; `None` when the pool is empty.
    fn pick_host(&self, header: &Json) -> Option<u32> {
        // Sticky routing first: a header-carried brass_host wins if alive.
        if let Some(h) = header.get("brass_host").and_then(Json::as_u64) {
            let h = h as u32;
            if self.hosts.iter().any(|host| host.id == h) {
                return Some(h);
            }
        }
        let host = match self.strategy {
            RouteStrategy::ByTopic if !self.hosts.is_empty() => {
                let topic = header.get("topic").and_then(Json::as_str).unwrap_or("");
                let gql = header.get("gql").and_then(Json::as_str).unwrap_or("");
                let key = if topic.is_empty() { gql } else { topic };
                let h = pylon::hash::hash_key(key.as_bytes());
                &self.hosts[(h % self.hosts.len() as u64) as usize]
            }
            RouteStrategy::ByTopic => return None,
            RouteStrategy::ByLoad => self.hosts.iter().min_by_key(|h| (h.load, h.id))?,
        };
        Some(host.id)
    }

    /// Handles a frame arriving from a POP (device side); the effects as a
    /// vector (see [`ReverseProxy::on_downstream_frame_into`]). `_now_us`
    /// is unused.
    pub fn on_downstream_frame(
        &mut self,
        device: u64,
        frame: Frame,
        _now_us: u64,
    ) -> Vec<ProxyEffect> {
        let mut out = Vec::new();
        self.on_downstream_frame_into(device, Box::new(frame), &mut out);
        out
    }

    /// Handles a frame arriving from a POP (device side), appending the
    /// effects to `out`.
    pub fn on_downstream_frame_into(
        &mut self,
        device: u64,
        frame: Box<Frame>,
        out: &mut Vec<ProxyEffect>,
    ) {
        let host = match &*frame {
            Frame::Subscribe { sid, header, body } => {
                let host = self.pick_host(header);
                if let Some(host) = host {
                    self.add_load(host, 1);
                } else {
                    // An orphan from the start: `add_host_into` repairs it.
                    out.push(ProxyEffect::ToDevice {
                        device,
                        frame: Frame::flow_status(*sid, FlowStatus::Degraded).into(),
                    });
                }
                let upstream = host.map(u64::from);
                self.table
                    .on_subscribe(device, *sid, header.clone(), body.clone(), upstream);
                host
            }
            Frame::Cancel { sid } => {
                let host = self.table.get(device, *sid).and_then(|e| e.upstream);
                self.table.on_cancel(device, *sid);
                host.map(|h| h as u32)
            }
            Frame::Ack { sid, .. } => {
                let host = self.table.get(device, *sid).and_then(|e| e.upstream);
                host.map(|h| h as u32)
            }
            _ => None,
        };
        if let Some(host) = host {
            out.push(ProxyEffect::ToBrass {
                host,
                device,
                frame,
            });
        }
    }

    /// Handles a frame arriving from a BRASS host (server side); the
    /// effects as a vector (see [`ReverseProxy::on_upstream_frame_into`]).
    /// `_now_us` is unused.
    pub fn on_upstream_frame(
        &mut self,
        device: u64,
        frame: Frame,
        _now_us: u64,
    ) -> Vec<ProxyEffect> {
        let mut out = Vec::new();
        self.on_upstream_frame_into(device, Box::new(frame), &mut out);
        out
    }

    /// Handles a frame arriving from a BRASS host (server side): updates
    /// stored stream state (rewrites, terminations) and forwards it down.
    pub fn on_upstream_frame_into(
        &mut self,
        device: u64,
        frame: Box<Frame>,
        out: &mut Vec<ProxyEffect>,
    ) {
        if let Frame::Response { sid, batch } = &*frame {
            self.table.on_response(device, *sid, batch);
        }
        out.push(ProxyEffect::ToDevice { device, frame });
    }

    /// Handles a detected BRASS host failure (axioms 1 and 2): every
    /// affected stream is signalled degraded to its device, re-routed to an
    /// alternate host from stored state, and signalled recovered.
    pub fn on_brass_host_failed_into(&mut self, host: u32, out: &mut Vec<ProxyEffect>) {
        self.remove_host(host);
        let affected = self.table.streams_via(host as u64);
        for (device, sid) in affected {
            // Axiom 1: inform the downstream endpoint.
            out.push(ProxyEffect::ToDevice {
                device,
                frame: Frame::flow_status(sid, FlowStatus::Degraded).into(),
            });
            // Axiom 2: this proxy is the closest downstream component, so
            // it repairs the stream itself from stored state.
            let mut header = self
                .table
                .get(device, sid)
                .map(|e| e.header.unpack())
                .expect("streams_via returned a live entry");
            // Ignore the stale sticky hint pointing at the dead host.
            if header
                .get("brass_host")
                .and_then(Json::as_u64)
                .is_some_and(|x| x as u32 == host)
            {
                header.remove("brass_host");
            }
            match self.pick_host(&header) {
                Some(new_host) => {
                    self.add_load(new_host, 1);
                    self.resubscribe_to(device, sid, new_host, out);
                }
                // Nothing to repair onto; the stream is orphaned until a
                // host returns (see [`add_host_into`](Self::add_host_into)).
                None => self.table.clear_upstream(device, sid),
            }
        }
    }

    /// Handles a BRASS host process restart that the heartbeat monitor
    /// never saw (crash + revive inside the miss window). The restarted
    /// process inherited none of the old incarnation's connections or
    /// stream state, so every stream routed through it is dead upstream
    /// even though ping evidence says the host is continuously healthy.
    /// The connection reset is what the proxy actually observes; it
    /// re-establishes each affected stream from stored state (axiom 2) —
    /// the host itself is live, so repair lands straight back on it, with
    /// its load unchanged — and restarts the heartbeat monitor so the
    /// fresh incarnation starts with a clean slate.
    pub fn on_host_restarted_into(&mut self, host: u32, out: &mut Vec<ProxyEffect>) {
        let Some(h) = self.host_mut(host) else {
            // The monitor did catch the death: streams were already
            // repaired off the host, and the failed/add_host pair owns
            // the rest of the lifecycle.
            return;
        };
        h.heartbeat = HeartbeatMonitor::default();
        let affected = self.table.streams_via(host as u64);
        for (device, sid) in affected {
            // Axiom 1: inform the downstream endpoint.
            out.push(ProxyEffect::ToDevice {
                device,
                frame: Frame::flow_status(sid, FlowStatus::Degraded).into(),
            });
            // Axiom 2: re-subscribe from stored state.
            self.resubscribe_to(device, sid, host, out);
        }
    }

    /// Handles a device connection closing at the POP: all of its stream
    /// state is dropped, and the owning BRASSes are informed via cancels
    /// (axiom 1 upstream direction), host by host in pool order, each
    /// host's in sid order. Streams with no live upstream get none.
    pub fn on_device_disconnected_into(&mut self, device: u64, out: &mut Vec<ProxyEffect>) {
        let mut cancels: Vec<(usize, StreamId)> = self
            .table
            .streams_of(device)
            .filter_map(|(sid, entry)| {
                let host = entry.upstream?;
                let at = self.hosts.iter().position(|h| h.id as u64 == host)?;
                Some((at, sid))
            })
            .collect();
        // Stable: each host's streams stay in sid order.
        cancels.sort_by_key(|&(at, _)| at);
        for (at, sid) in cancels {
            out.push(ProxyEffect::ToBrass {
                host: self.hosts[at].id,
                device,
                frame: Frame::Cancel { sid }.into(),
            });
        }
        self.table.on_connection_closed(device);
    }
}

snap_enum!(RouteStrategy { 0 => ByTopic, 1 => ByLoad });
snap_struct!(Host {
    id,
    load,
    heartbeat
});
// The host pool is verbatim: its order feeds `ByTopic` modulo routing. It
// may be empty (every host failed), but it never names a host twice.
snap_struct!(
    ReverseProxy {
        id,
        strategy,
        hosts,
        table,
        induced_reconnects
    },
    |p| distinct(p.hosts.iter().map(|h| h.id))
);

#[cfg(test)]
mod tests {
    use super::*;
    use burst::frame::Delta;
    use burst::heartbeat::INTERVAL_US;
    use simkit::snap::{Snap, SnapReader, SnapResult, SnapWriter};

    /// What an `_into` handler emits, as a vector.
    fn collect<E>(run: impl FnOnce(&mut Vec<E>)) -> Vec<E> {
        let mut out = Vec::new();
        run(&mut out);
        out
    }

    /// The frame a relay effect carries (patterns cannot see through the
    /// box).
    fn frame_of(e: &ProxyEffect) -> Option<&Frame> {
        match e {
            ProxyEffect::ToBrass { frame, .. } | ProxyEffect::ToDevice { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// Whether `e` sends `device` exactly one flow-status delta.
    fn signals(e: &ProxyEffect, device: u64, status: FlowStatus) -> bool {
        matches!(e, ProxyEffect::ToDevice { device: d, .. } if *d == device)
            && matches!(frame_of(e), Some(Frame::Response { batch, .. })
                if batch == &vec![Delta::FlowStatus(status)])
    }

    /// Whether `e` resubscribes one of `device`'s streams to `host`.
    fn resubscribes_to(e: &ProxyEffect, device: u64, host: u32) -> bool {
        matches!(e, ProxyEffect::ToBrass { host: h, device: d, .. } if (*h, *d) == (host, device))
            && matches!(frame_of(e), Some(Frame::Subscribe { .. }))
    }

    fn sub_frame(sid: u64, header: Json) -> Frame {
        Frame::Subscribe {
            sid: StreamId(sid),
            header,
            body: vec![],
        }
    }

    fn header(topic: &str) -> Json {
        Json::obj([
            ("viewer", Json::from(1u64)),
            ("app", Json::from("lvc")),
            ("topic", Json::from(topic)),
        ])
    }

    #[test]
    fn by_topic_routing_is_consistent() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByTopic, vec![10, 11, 12]);
        let fx1 = p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        let fx2 = p.on_downstream_frame(2, sub_frame(1, header("/LVC/5")), 0);
        let host_of = |fx: &[ProxyEffect]| match &fx[0] {
            ProxyEffect::ToBrass { host, .. } => *host,
            other => panic!("expected ToBrass, got {other:?}"),
        };
        assert_eq!(host_of(&fx1), host_of(&fx2), "same topic, same host");
    }

    #[test]
    fn by_load_routing_balances() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        let mut hosts = Vec::new();
        for d in 0..4 {
            let fx = p.on_downstream_frame(d, sub_frame(1, header("/LVC/5")), 0);
            if let ProxyEffect::ToBrass { host, .. } = fx[0] {
                hosts.push(host);
            }
        }
        assert_eq!(hosts, vec![10, 11, 10, 11]);
    }

    #[test]
    fn sticky_header_wins_over_strategy() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11, 12]);
        let mut h = header("/LVC/5");
        h.set("brass_host", Json::from(12u64));
        let fx = p.on_downstream_frame(1, sub_frame(1, h), 0);
        assert!(matches!(fx[0], ProxyEffect::ToBrass { host: 12, .. }));
    }

    #[test]
    fn sticky_to_dead_host_falls_back() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        let mut h = header("/LVC/5");
        h.set("brass_host", Json::from(99u64)); // not in the pool
        let fx = p.on_downstream_frame(1, sub_frame(1, h), 0);
        match fx[0] {
            ProxyEffect::ToBrass { host, .. } => assert!(host == 10 || host == 11),
            ref other => panic!("expected ToBrass, got {other:?}"),
        }
    }

    #[test]
    fn brass_failure_repairs_streams_and_signals_device() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0); // → 10
        p.on_downstream_frame(2, sub_frame(1, header("/LVC/6")), 0); // → 11
        let fx = collect(|out| p.on_brass_host_failed_into(10, out));
        // Degraded → resubscribe to 11 → recovered, for device 1 only.
        assert_eq!(fx.len(), 3);
        assert!(signals(&fx[0], 1, FlowStatus::Degraded));
        assert!(resubscribes_to(&fx[1], 1, 11));
        assert!(signals(&fx[2], 1, FlowStatus::Recovered));
        assert_eq!(p.induced_reconnects(), 1);
    }

    #[test]
    fn repair_uses_rewritten_header() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        // BRASS 10 rewrites resumption state into the header in flight.
        p.on_upstream_frame(
            1,
            Frame::Response {
                sid: StreamId(1),
                batch: vec![Delta::RewriteRequest {
                    patch: Json::obj([("last_seq", Json::from(41u64))]),
                }],
            },
            10,
        );
        let fx = collect(|out| p.on_brass_host_failed_into(10, out));
        let resub = fx.iter().find_map(|e| match (e, frame_of(e)) {
            (ProxyEffect::ToBrass { .. }, Some(Frame::Subscribe { header, .. })) => {
                header.get("last_seq").and_then(Json::as_u64)
            }
            _ => None,
        });
        assert_eq!(resub, Some(41), "repair resumes from rewritten state");
    }

    #[test]
    fn failure_with_no_alternates_leaves_devices_degraded() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        let fx = collect(|out| p.on_brass_host_failed_into(10, out));
        assert_eq!(fx.len(), 1, "only the degraded signal");
        assert_eq!(p.induced_reconnects(), 0);
    }

    #[test]
    fn host_return_repairs_orphaned_streams() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        // The only host dies: the stream is orphaned (degraded only).
        let fx = collect(|out| p.on_brass_host_failed_into(10, out));
        assert_eq!(fx.len(), 1);
        // The host returns: the orphan is repaired onto it.
        let fx = collect(|out| p.add_host_into(10, out));
        assert!(resubscribes_to(&fx[0], 1, 10));
        assert!(signals(&fx[1], 1, FlowStatus::Recovered));
        assert_eq!(p.induced_reconnects(), 1);
    }

    #[test]
    fn terminate_clears_stream_state() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        assert_eq!(p.stream_count(), 1);
        p.on_upstream_frame(
            1,
            Frame::Response {
                sid: StreamId(1),
                batch: vec![Delta::Terminate(burst::frame::TerminateReason::Cancelled)],
            },
            10,
        );
        assert_eq!(p.stream_count(), 0);
    }

    #[test]
    fn device_disconnect_cancels_upstream_and_gcs() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        p.on_downstream_frame(1, sub_frame(2, header("/LVC/6")), 0);
        p.on_downstream_frame(2, sub_frame(1, header("/LVC/7")), 0);
        let fx = collect(|out| p.on_device_disconnected_into(1, out));
        let cancels = fx
            .iter()
            .filter(|e| {
                matches!(e, ProxyEffect::ToBrass { .. })
                    && matches!(frame_of(e), Some(Frame::Cancel { .. }))
            })
            .count();
        assert_eq!(cancels, 2);
        assert_eq!(p.stream_count(), 1);
    }

    /// A disconnect's cancels come in the order a scan of each pool host's
    /// streams gives: pool position, then sid. A stream whose host left
    /// the pool gets none.
    #[test]
    fn device_disconnect_cancels_in_pool_then_sid_order() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![12, 10, 11, 13]);
        let pinned = |host: u64| {
            let mut h = header("/LVC/5");
            h.set("brass_host", Json::from(host));
            h
        };
        // Sids interleave across hosts; device 2 shares the hosts.
        for (sid, host) in [
            (1, 11),
            (2, 12),
            (3, 10),
            (4, 11),
            (5, 13),
            (6, 12),
            (7, 10),
        ] {
            p.on_downstream_frame(1, sub_frame(sid, pinned(host)), 0);
            p.on_downstream_frame(2, sub_frame(sid, pinned(host)), 0);
        }
        p.remove_host(13);
        let mut want = Vec::new();
        for host in p.hosts.iter().map(|h| h.id) {
            for (d, sid) in p.table.streams_via(host as u64) {
                if d == 1 {
                    want.push((host, sid));
                }
            }
        }
        let got: Vec<(u32, StreamId)> = collect(|out| p.on_device_disconnected_into(1, out))
            .iter()
            .map(|e| match (e, frame_of(e)) {
                (ProxyEffect::ToBrass { host, .. }, Some(Frame::Cancel { sid })) => (*host, *sid),
                other => panic!("expected a cancel, got {other:?}"),
            })
            .collect();
        assert_eq!(got, want);
        let hosts = [12, 12, 10, 10, 11, 11];
        let sids = [2, 6, 3, 7, 1, 4].map(StreamId);
        assert_eq!(got, hosts.into_iter().zip(sids).collect::<Vec<_>>());
        assert_eq!(p.stream_count(), 7);
    }

    #[test]
    fn cancel_for_unknown_stream_is_noop() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        let fx = p.on_downstream_frame(1, Frame::Cancel { sid: StreamId(9) }, 0);
        assert!(fx.is_empty());
    }

    #[test]
    fn heartbeat_tick_pings_every_host() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        let fx = collect(|out| p.on_heartbeat_tick_into(INTERVAL_US, out));
        let pinged: Vec<u32> = fx
            .iter()
            .filter_map(|e| match e {
                ProxyEffect::PingHost { host, .. } => Some(*host),
                _ => None,
            })
            .collect();
        assert_eq!(pinged, vec![10, 11]);
    }

    #[test]
    fn silent_host_is_detected_and_streams_repaired() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0); // → 10
        for t in 1..=4u64 {
            let fx = collect(|out| p.on_heartbeat_tick_into(t * INTERVAL_US, out));
            // Host 11 answers its pings; host 10 stays silent.
            for e in &fx {
                if let ProxyEffect::PingHost { host: 11, .. } = e {
                    p.note_host_activity(11);
                }
            }
            if t < 4 {
                assert!(
                    !fx.iter().any(|e| matches!(e, ProxyEffect::HostDown { .. })),
                    "not declared dead before the miss threshold (t={t})"
                );
            } else {
                // Miss threshold crossed: HostDown, then degraded →
                // resubscribe-to-11 → recovered repair effects.
                assert!(fx.contains(&ProxyEffect::HostDown { host: 10 }));
                assert!(fx.iter().any(|e| resubscribes_to(e, 1, 11)));
            }
        }
        assert_eq!(p.induced_reconnects(), 1);
    }

    #[test]
    fn responsive_hosts_are_never_declared_dead() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        for t in 1..=20u64 {
            let fx = collect(|out| p.on_heartbeat_tick_into(t * INTERVAL_US, out));
            for e in &fx {
                assert!(!matches!(e, ProxyEffect::HostDown { .. }));
                if let ProxyEffect::PingHost { host, .. } = e {
                    p.note_host_activity(*host);
                }
            }
        }
    }

    #[test]
    fn overloaded_host_streaming_data_is_never_declared_dead() {
        // Heartbeat-starvation regression: a host under pure overload
        // whose pong responses queue behind its data backlog must not
        // trip crash detection while its data frames keep arriving.
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        for t in 1..=20u64 {
            let fx = collect(|out| p.on_heartbeat_tick_into(t * INTERVAL_US, out));
            assert!(
                !fx.iter().any(|e| matches!(e, ProxyEffect::HostDown { .. })),
                "data-emitting host declared dead at t={t} despite activity"
            );
            // The host never answers a single ping — every pong is stuck
            // behind the backlog — but its update stream keeps flowing.
            p.note_host_activity(10);
        }
        assert_eq!(p.induced_reconnects(), 0);
    }

    #[test]
    fn readded_host_gets_a_fresh_monitor() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10, 11]);
        for t in 1..=4u64 {
            for e in collect(|out| p.on_heartbeat_tick_into(t * INTERVAL_US, out)) {
                if let ProxyEffect::PingHost { host: 11, .. } = e {
                    p.note_host_activity(11);
                }
            }
        }
        // Host 10 is gone from the pool; ticks stop mentioning it.
        let fx = collect(|out| p.on_heartbeat_tick_into(5 * INTERVAL_US, out));
        assert!(!fx
            .iter()
            .any(|e| matches!(e, ProxyEffect::PingHost { host: 10, .. })));
        // It recovers: pings resume and it is not instantly re-failed.
        p.add_host_into(10, &mut Vec::new());
        let fx = collect(|out| p.on_heartbeat_tick_into(6 * INTERVAL_US, out));
        assert!(fx
            .iter()
            .any(|e| matches!(e, ProxyEffect::PingHost { host: 10, .. })));
        assert!(!fx.iter().any(|e| matches!(e, ProxyEffect::HostDown { .. })));
    }

    fn bytes(p: &ReverseProxy) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.snap(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> SnapResult<ReverseProxy> {
        let mut r = SnapReader::new(bytes);
        let p = ReverseProxy::restore(&mut r)?;
        r.finish()?;
        Ok(p)
    }

    /// The pool as `(id, load)` in pool order.
    fn pool(p: &ReverseProxy) -> Vec<(u32, u64)> {
        p.hosts.iter().map(|h| (h.id, h.load)).collect()
    }

    /// Once every host has been removed, a subscribe neither panics nor
    /// goes anywhere, under either strategy: it is kept as an orphan and
    /// its device told `Degraded`, a cancel is applied, and a returning
    /// host repairs what is left.
    #[test]
    fn an_empty_pool_keeps_subscribes_as_orphans_until_a_host_returns() {
        for strategy in [RouteStrategy::ByTopic, RouteStrategy::ByLoad] {
            let mut p = ReverseProxy::new(1, strategy, vec![10]);
            p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
            collect(|out| p.on_brass_host_failed_into(10, out));
            let mut sticky = header("/LVC/6");
            sticky.set("brass_host", Json::from(10u64));
            for (device, sid, h) in [(1, 2, sticky), (2, 1, header("/LVC/7"))] {
                let fx = p.on_downstream_frame(device, sub_frame(sid, h), 5);
                assert_eq!(fx.len(), 1, "{strategy:?}: only the degraded signal");
                assert!(signals(&fx[0], device, FlowStatus::Degraded));
            }
            let ack = Frame::Ack {
                sid: StreamId(2),
                seq: 1,
            };
            assert!(p.on_downstream_frame(1, ack, 6).is_empty());
            let cancel = Frame::Cancel { sid: StreamId(1) };
            assert!(p.on_downstream_frame(2, cancel, 7).is_empty());
            assert_eq!(p.stream_count(), 2);

            let fx = collect(|out| p.add_host_into(11, out));
            assert_eq!(fx.len(), 4, "{strategy:?}: {fx:?}");
            assert!(resubscribes_to(&fx[0], 1, 11) && signals(&fx[1], 1, FlowStatus::Recovered));
            assert!(resubscribes_to(&fx[2], 1, 11) && signals(&fx[3], 1, FlowStatus::Recovered));
            assert_eq!(pool(&p), [(11, 2)]);
        }
    }

    /// Fail, re-add and restart leave the pool in join order with the
    /// loads the routing decisions imply: a failed host's load goes with
    /// it, a re-added host starts at 0, a restart keeps the load.
    #[test]
    fn pool_order_and_loads_follow_fail_add_and_restart() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![12, 10, 11]);
        for device in 1..=6 {
            p.on_downstream_frame(device, sub_frame(1, header("/LVC/5")), 0);
        }
        assert_eq!(pool(&p), [(12, 2), (10, 2), (11, 2)]);
        // Devices 1 and 4 were on 10: one repair each, least-loaded first.
        let fx = collect(|out| p.on_brass_host_failed_into(10, out));
        assert!(resubscribes_to(&fx[1], 1, 11) && resubscribes_to(&fx[4], 4, 12));
        assert_eq!(pool(&p), [(12, 3), (11, 3)]);
        assert!(collect(|out| p.add_host_into(10, out)).is_empty());
        assert_eq!(pool(&p), [(12, 3), (11, 3), (10, 0)]);
        // Devices 1, 2 and 5 are on 11; they land straight back on it.
        let fx = collect(|out| p.on_host_restarted_into(11, out));
        assert_eq!(
            fx.iter()
                .filter(|e| matches!(e, ProxyEffect::ToBrass { host: 11, .. }))
                .count(),
            3
        );
        assert_eq!(pool(&p), [(12, 3), (11, 3), (10, 0)]);
        p.on_downstream_frame(7, sub_frame(1, header("/LVC/5")), 0);
        assert_eq!(pool(&p), [(12, 3), (11, 3), (10, 1)]);
        assert_eq!(p.induced_reconnects(), 5);
    }

    /// A proxy with no host left is a state a run reaches, so it
    /// restores; a pool that names a host twice is not, so it does not.
    #[test]
    fn restore_accepts_an_empty_pool_and_rejects_a_repeated_host() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByTopic, vec![10]);
        p.on_downstream_frame(1, sub_frame(1, header("/LVC/5")), 0);
        collect(|out| p.on_brass_host_failed_into(10, out));
        let b = bytes(&p);
        let mut back = restore(&b).expect("an empty pool restores");
        assert_eq!(bytes(&back), b);
        let fx = collect(|out| back.add_host_into(10, out));
        assert!(resubscribes_to(&fx[0], 1, 10));

        let mut twice = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![10]);
        twice.hosts.push(Host {
            id: 10,
            ..Host::default()
        });
        assert!(restore(&bytes(&twice)).is_err());
    }

    /// A restored proxy is the original: the same effects on the next
    /// heartbeat tick and the next subscribe, and the same bytes after.
    #[test]
    fn a_restored_proxy_emits_what_the_original_emits() {
        let mut p = ReverseProxy::new(1, RouteStrategy::ByLoad, vec![12, 10, 11]);
        for device in 1..=5 {
            p.on_downstream_frame(device, sub_frame(1, header("/LVC/5")), 0);
        }
        // Host 11 answers its first ping; 10 and 12 stay silent.
        for e in collect(|out| p.on_heartbeat_tick_into(INTERVAL_US, out)) {
            if let ProxyEffect::PingHost { host: 11, .. } = e {
                p.note_host_activity(11);
            }
        }
        collect(|out| p.on_brass_host_failed_into(12, out));
        collect(|out| p.add_host_into(12, out));
        let mut back = restore(&bytes(&p)).expect("restores");
        let run = |p: &mut ReverseProxy| {
            let mut fx = Vec::new();
            for t in 2..=4 {
                fx.extend(collect(|out| {
                    p.on_heartbeat_tick_into(t * INTERVAL_US, out)
                }));
            }
            fx.extend(p.on_downstream_frame(6, sub_frame(1, header("/LVC/6")), 0));
            (fx, bytes(p))
        };
        let want = run(&mut p);
        assert!(want.0.contains(&ProxyEffect::HostDown { host: 10 }));
        assert_eq!(run(&mut back), want);
    }
}
