//! The POP (point of presence) at the network edge.
//!
//! POPs terminate device connections (the flaky last mile) and relay
//! frames to a reverse proxy at the target datacenter. Like proxies, POPs
//! keep per-stream state so they can repair streams when their upstream
//! proxy fails (axiom 2), and they are the component that *detects* device
//! disconnects, informing upstream parties (axiom 1: "If a client device
//! fails or loses TCP connectivity, POP Pi will detect this, and it will
//! inform all BRASSes servicing streams instantiated by the device").

use burst::frame::{FlowStatus, Frame, StreamId};
use burst::heartbeat::{HeartbeatMonitor, PeerHealth};
use burst::stream::ProxyStreamTable;
use simkit::fxhash::FxHashMap;
use simkit::snap::Scratch;
use simkit::snap_struct;

use crate::distinct;

/// What the POP asks its environment to do. Frames stay in the box they
/// arrived in, so relaying one moves a pointer.
#[derive(Clone, Debug, PartialEq)]
pub enum PopEffect {
    /// Forward a frame to a reverse proxy.
    ToProxy {
        /// Target proxy.
        proxy: u32,
        /// Originating device.
        device: u64,
        /// The frame.
        frame: Box<Frame>,
    },
    /// Forward a frame to a connected device.
    ToDevice {
        /// Target device.
        device: u64,
        /// The frame.
        frame: Box<Frame>,
    },
    /// Inform upstream that a device vanished (proxies cancel its streams).
    DeviceGone {
        /// The proxy to inform.
        proxy: u32,
        /// The vanished device.
        device: u64,
    },
}

/// One device's connection, from its first frame until it is declared
/// gone.
#[derive(Clone, Debug, Default)]
struct Conn {
    /// The proxy carrying its streams; `None` until a frame other than a
    /// pong finds a proxy in the pool.
    proxy: Option<u32>,
    /// Fast last-mile failure detection.
    heartbeat: HeartbeatMonitor,
}

/// The pool's proxy for `device`: stable by device id. `proxies` must not
/// be empty.
fn pick(proxies: &[u32], device: u64) -> u32 {
    proxies[(device % proxies.len() as u64) as usize]
}

/// A point of presence.
pub struct Pop {
    id: u32,
    /// Available upstream proxies.
    proxies: Vec<u32>,
    /// device → its connection.
    conns: FxHashMap<u64, Conn>,
    /// The heartbeat tick's device order, kept to reuse its buffer.
    tick_order: Scratch<Vec<u64>>,
    table: ProxyStreamTable,
}

impl Pop {
    /// Creates a POP with the given upstream proxies.
    ///
    /// # Panics
    ///
    /// Panics if `proxies` names a proxy twice.
    pub fn new(id: u32, proxies: Vec<u32>) -> Self {
        distinct(proxies.iter().copied()).expect("a POP pool names each proxy once");
        Pop {
            id,
            proxies,
            conns: FxHashMap::default(),
            tick_order: Scratch::default(),
            table: ProxyStreamTable::new(),
        }
    }

    /// This POP's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Streams tracked by this POP.
    pub fn stream_count(&self) -> usize {
        self.table.len()
    }

    /// Handles a frame from a connected device; the effects as a vector
    /// (see [`Pop::on_device_frame_into`]). `_now_us` is unused.
    pub fn on_device_frame(&mut self, device: u64, frame: Frame, _now_us: u64) -> Vec<PopEffect> {
        let mut out = Vec::new();
        self.on_device_frame_into(device, Box::new(frame), &mut out);
        out
    }

    /// Handles a frame from a connected device, appending the effects to
    /// `out`.
    pub fn on_device_frame_into(
        &mut self,
        device: u64,
        frame: Box<Frame>,
        out: &mut Vec<PopEffect>,
    ) {
        // Any device traffic proves liveness, a pong's too.
        let conn = self.conns.entry(device).or_default();
        conn.heartbeat.on_activity();
        if let Frame::Pong { .. } = *frame {
            return; // Pongs terminate at the POP.
        }
        let proxy = match conn.proxy {
            Some(p) if self.proxies.contains(&p) => Some(p),
            _ if self.proxies.is_empty() => None,
            _ => {
                conn.proxy = Some(pick(&self.proxies, device));
                conn.proxy
            }
        };
        match &*frame {
            Frame::Subscribe { sid, header, body } => {
                let upstream = proxy.map(u64::from);
                self.table
                    .on_subscribe(device, *sid, header.clone(), body.clone(), upstream);
                if proxy.is_none() {
                    // An orphan from the start: `add_proxy_into` repairs it.
                    out.push(PopEffect::ToDevice {
                        device,
                        frame: Frame::flow_status(*sid, FlowStatus::Degraded).into(),
                    });
                }
            }
            Frame::Cancel { sid } => self.table.on_cancel(device, *sid),
            _ => {}
        }
        if let Some(proxy) = proxy {
            out.push(PopEffect::ToProxy {
                proxy,
                device,
                frame,
            });
        }
    }

    /// Handles a frame from an upstream proxy; the effects as a vector
    /// (see [`Pop::on_proxy_frame_into`]). `_now_us` is unused.
    pub fn on_proxy_frame(&mut self, device: u64, frame: Frame, _now_us: u64) -> Vec<PopEffect> {
        let mut out = Vec::new();
        self.on_proxy_frame_into(device, Box::new(frame), &mut out);
        out
    }

    /// Handles a frame from an upstream proxy: updates stored stream state
    /// and relays it to the device.
    pub fn on_proxy_frame_into(
        &mut self,
        device: u64,
        frame: Box<Frame>,
        out: &mut Vec<PopEffect>,
    ) {
        if let Frame::Response { sid, batch } = &*frame {
            self.table.on_response(device, *sid, batch);
        }
        out.push(PopEffect::ToDevice { device, frame });
    }

    /// Handles a detected device disconnect: stream state is dropped and
    /// upstream parties are informed (axiom 1).
    pub fn on_device_disconnected_into(&mut self, device: u64, out: &mut Vec<PopEffect>) {
        self.table.on_connection_closed(device);
        if let Some(proxy) = self.conns.remove(&device).and_then(|c| c.proxy) {
            out.push(PopEffect::DeviceGone { proxy, device });
        }
    }

    /// Runs the heartbeat loop: emits due pings and converts silent devices
    /// into full disconnect handling — detecting dead last-mile links in
    /// seconds instead of waiting out a TCP timeout (§4 footnote 11).
    pub fn on_heartbeat_tick_into(&mut self, now_us: u64, out: &mut Vec<PopEffect>) {
        // Ascending device order: effect order must not depend on hash
        // order, or simulations lose run-to-run determinism.
        let Scratch(mut order) = std::mem::take(&mut self.tick_order);
        order.clear();
        order.extend(self.conns.keys());
        order.sort_unstable();
        for &device in &order {
            let hb = &mut self.conns.get_mut(&device).expect("connected").heartbeat;
            if let Some(ping) = hb.on_tick(now_us) {
                out.push(PopEffect::ToDevice {
                    device,
                    frame: ping.into(),
                });
            }
        }
        // Then the dead, in the same order.
        order.retain(|device| self.conns[device].heartbeat.health() == PeerHealth::Failed);
        for &device in &order {
            self.on_device_disconnected_into(device, out);
        }
        self.tick_order = Scratch(order);
    }

    /// Removes a failed proxy and repairs every affected stream onto an
    /// alternate proxy from stored state (axiom 2), signalling affected
    /// devices along the way (axiom 1).
    pub fn on_proxy_failed_into(&mut self, proxy: u32, out: &mut Vec<PopEffect>) {
        self.proxies.retain(|&p| p != proxy);
        let affected = self.table.streams_via(proxy as u64);
        for (device, sid) in affected {
            out.push(PopEffect::ToDevice {
                device,
                frame: Frame::flow_status(sid, FlowStatus::Degraded).into(),
            });
            if self.proxies.is_empty() {
                // Nothing to repair onto; mark the stream orphaned so
                // [`add_proxy_into`](Self::add_proxy_into) can find and repair it
                // when a proxy returns.
                self.table.clear_upstream(device, sid);
                continue;
            }
            self.resubscribe_via(device, sid, out);
        }
    }

    /// Re-routes one stream to the pool's pick for its device from stored
    /// state and tells its device the path is whole again.
    fn resubscribe_via(&mut self, device: u64, sid: StreamId, out: &mut Vec<PopEffect>) {
        let proxy = pick(&self.proxies, device);
        if let Some(conn) = self.conns.get_mut(&device) {
            conn.proxy = Some(proxy);
        }
        if let Some(frame) = self.table.rebuild_subscribe(device, sid, proxy as u64) {
            out.push(PopEffect::ToProxy {
                proxy,
                device,
                frame: frame.into(),
            });
            out.push(PopEffect::ToDevice {
                device,
                frame: Frame::flow_status(sid, FlowStatus::Recovered).into(),
            });
        }
    }

    /// Re-adds a recovered proxy to the pool and repairs any orphaned
    /// streams — streams degraded by
    /// [`on_proxy_failed_into`](Self::on_proxy_failed_into), or
    /// subscribed, while the pool was empty. Without this re-repair the
    /// devices behind a fully-dark POP region stayed `Degraded` forever
    /// after the outage healed: the failure path only ever emitted the
    /// terminal `Recovered` when an alternate proxy existed *at failure
    /// time*, and nothing retried later (the proxy layer's
    /// [`add_host_into`](crate::proxy::ReverseProxy::add_host_into) already did;
    /// the POP layer did not).
    pub fn add_proxy_into(&mut self, proxy: u32, out: &mut Vec<PopEffect>) {
        if !self.proxies.contains(&proxy) {
            self.proxies.push(proxy);
        }
        let live: Vec<u64> = self.proxies.iter().map(|&p| p as u64).collect();
        let orphans = self.table.orphans(&live);
        for (device, sid) in orphans {
            self.resubscribe_via(device, sid, out);
        }
    }
}

snap_struct!(Conn { proxy, heartbeat });
// The proxy pool vec is verbatim because its order feeds the modulo
// assignment; it may be empty (every proxy failed), but it never names a
// proxy twice.
snap_struct!(
    Pop {
        id,
        proxies,
        conns,
        tick_order,
        table
    },
    |p| distinct(p.proxies.iter().copied())
);

#[cfg(test)]
mod tests {
    use super::*;
    use burst::frame::Delta;
    use burst::json::Json;
    use simkit::snap::{Snap, SnapReader, SnapResult, SnapWriter};

    /// What an `_into` handler emits, as a vector.
    fn collect<E>(run: impl FnOnce(&mut Vec<E>)) -> Vec<E> {
        let mut out = Vec::new();
        run(&mut out);
        out
    }

    /// The frame a relay effect carries (patterns cannot see through the
    /// box).
    fn frame_of(e: &PopEffect) -> Option<&Frame> {
        match e {
            PopEffect::ToProxy { frame, .. } | PopEffect::ToDevice { frame, .. } => Some(frame),
            PopEffect::DeviceGone { .. } => None,
        }
    }

    /// Whether `e` sends `device`-ward exactly one flow-status delta.
    fn signals(e: &PopEffect, status: FlowStatus) -> bool {
        matches!(e, PopEffect::ToDevice { .. })
            && matches!(frame_of(e), Some(Frame::Response { batch, .. })
                if batch == &vec![Delta::FlowStatus(status)])
    }

    /// Whether `e` resubscribes a stream through `proxy`.
    fn resubscribes_via(e: &PopEffect, proxy: u32) -> bool {
        matches!(e, PopEffect::ToProxy { proxy: p, .. } if *p == proxy)
            && matches!(frame_of(e), Some(Frame::Subscribe { .. }))
    }

    fn header() -> Json {
        Json::obj([
            ("viewer", Json::from(1u64)),
            ("app", Json::from("lvc")),
            ("topic", Json::from("/LVC/5")),
        ])
    }

    fn sub(sid: u64) -> Frame {
        Frame::Subscribe {
            sid: StreamId(sid),
            header: header(),
            body: vec![],
        }
    }

    #[test]
    fn relays_device_frames_to_stable_proxy() {
        let mut p = Pop::new(1, vec![100, 101]);
        let fx1 = p.on_device_frame(7, sub(1), 0);
        let fx2 = p.on_device_frame(7, sub(2), 0);
        let proxy_of = |fx: &[PopEffect]| match &fx[0] {
            PopEffect::ToProxy { proxy, .. } => *proxy,
            other => panic!("expected ToProxy, got {other:?}"),
        };
        assert_eq!(proxy_of(&fx1), proxy_of(&fx2), "same device, same proxy");
        assert_eq!(p.stream_count(), 2);
        assert_eq!(p.conns.len(), 1);
    }

    #[test]
    fn relays_responses_to_device() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(7, sub(1), 0);
        let frame = Frame::Response {
            sid: StreamId(1),
            batch: vec![Delta::update(0, b"x".to_vec())],
        };
        let fx = p.on_proxy_frame(7, frame.clone(), 1);
        let frame = frame.into();
        assert_eq!(fx, vec![PopEffect::ToDevice { device: 7, frame }]);
    }

    #[test]
    fn device_disconnect_informs_upstream_and_drops_state() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(7, sub(1), 0);
        p.on_device_frame(7, sub(2), 0);
        let fx = collect(|out| p.on_device_disconnected_into(7, out));
        assert_eq!(
            fx,
            vec![PopEffect::DeviceGone {
                proxy: 100,
                device: 7
            }]
        );
        assert_eq!(p.stream_count(), 0);
        assert_eq!(p.conns.len(), 0);
    }

    #[test]
    fn heartbeats_detect_silent_devices() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(7, sub(1), 0);
        // The device answers the first ping, then goes silent.
        let fx = collect(|out| p.on_heartbeat_tick_into(5_000_000, out));
        let token = fx
            .iter()
            .find_map(|e| match frame_of(e) {
                Some(Frame::Ping { token }) => Some(*token),
                _ => None,
            })
            .expect("ping emitted");
        p.on_device_frame(7, Frame::Pong { token }, 5_100_000);
        // Silence across the next four intervals crosses the threshold.
        let gone = (2..=6u64)
            .flat_map(|i| collect(|out| p.on_heartbeat_tick_into(i * 5_000_000, out)))
            .filter(|e| matches!(e, PopEffect::DeviceGone { device: 7, .. }))
            .count();
        assert_eq!(gone, 1, "silent device declared disconnected once");
        assert_eq!(p.stream_count(), 0, "its stream state was dropped");
    }

    /// Pings, then reaps, go out in ascending device order whatever order
    /// the devices connected in, and a restored POP keeps that order.
    #[test]
    fn heartbeat_ticks_go_in_device_order_after_a_restore() {
        let mut p = Pop::new(1, vec![100]);
        for device in [42, 7, 1000, 3, 99] {
            p.on_device_frame(device, sub(1), 0);
        }
        let mut w = SnapWriter::new();
        p.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Pop::restore(&mut SnapReader::new(&bytes)).expect("restores");
        let ascending = [3, 7, 42, 99, 1000];
        for pop in [&mut p, &mut restored] {
            let fx = collect(|out| pop.on_heartbeat_tick_into(5_000_000, out));
            let pinged: Vec<u64> = fx
                .iter()
                .map(|e| match (e, frame_of(e)) {
                    (PopEffect::ToDevice { device, .. }, Some(Frame::Ping { .. })) => *device,
                    other => panic!("not a ping: {other:?}"),
                })
                .collect();
            assert_eq!(pinged, ascending);
            // Silence until the threshold: every device is reaped at once.
            let fx: Vec<PopEffect> = (2..=5u64)
                .flat_map(|i| collect(|out| pop.on_heartbeat_tick_into(i * 5_000_000, out)))
                .collect();
            let gone: Vec<u64> = fx
                .iter()
                .filter_map(|e| match e {
                    PopEffect::DeviceGone { device, .. } => Some(*device),
                    _ => None,
                })
                .collect();
            assert_eq!(gone, ascending);
        }
    }

    #[test]
    fn active_devices_survive_heartbeat_ticks() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(7, sub(1), 0);
        for i in 1..=10u64 {
            let fx = collect(|out| p.on_heartbeat_tick_into(i * 5_000_000, out));
            assert!(!fx.iter().any(|e| matches!(e, PopEffect::DeviceGone { .. })));
            // The device keeps sending real traffic; no pongs needed.
            p.on_device_frame(
                7,
                Frame::Ack {
                    sid: StreamId(1),
                    seq: i,
                },
                i * 5_000_000 + 1,
            );
        }
        assert_eq!(p.conns.len(), 1);
    }

    #[test]
    fn proxy_failure_repairs_streams() {
        let mut p = Pop::new(1, vec![100, 101]);
        // Device 200 maps to proxy 100 (200 % 2 == 0).
        p.on_device_frame(200, sub(1), 0);
        let fx = collect(|out| p.on_proxy_failed_into(100, out));
        assert_eq!(fx.len(), 3);
        assert!(signals(&fx[0], FlowStatus::Degraded));
        assert!(resubscribes_via(&fx[1], 101));
        assert!(signals(&fx[2], FlowStatus::Recovered));
        // Future frames from the device go to the new proxy.
        let fx = p.on_device_frame(200, sub(2), 10);
        assert!(matches!(fx[0], PopEffect::ToProxy { proxy: 101, .. }));
    }

    #[test]
    fn proxy_failure_with_no_alternative_degrades_only() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(200, sub(1), 0);
        let fx = collect(|out| p.on_proxy_failed_into(100, out));
        assert_eq!(fx.len(), 1);
    }

    #[test]
    fn proxy_return_repairs_streams_orphaned_by_total_outage() {
        // Regional outage: every proxy fails, so on_proxy_failed can only
        // degrade. When a proxy returns, add_proxy must repair the
        // orphans and send the terminal Recovered — otherwise the
        // devices stay Degraded forever.
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(200, sub(1), 0);
        p.on_device_frame(201, sub(1), 0);
        let fx = collect(|out| p.on_proxy_failed_into(100, out));
        assert_eq!(fx.len(), 2, "degraded-only: no repair target exists");

        let fx = collect(|out| p.add_proxy_into(101, out));
        let resubs = fx.iter().filter(|e| resubscribes_via(e, 101)).count();
        let recovered = fx
            .iter()
            .filter(|e| signals(e, FlowStatus::Recovered))
            .count();
        assert_eq!(resubs, 2, "both orphaned streams resubscribed");
        assert_eq!(recovered, 2, "both devices told Recovered");
        // Future frames from the devices go to the new proxy.
        let fx = p.on_device_frame(200, sub(2), 10);
        assert!(matches!(fx[0], PopEffect::ToProxy { proxy: 101, .. }));
    }

    #[test]
    fn add_proxy_with_healthy_streams_repairs_nothing() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(200, sub(1), 0);
        let fx = collect(|out| p.add_proxy_into(101, out));
        assert!(fx.is_empty(), "healthy streams are left on their proxy");
    }

    #[test]
    fn rewrite_observed_before_repair_is_used() {
        let mut p = Pop::new(1, vec![100, 101]);
        p.on_device_frame(200, sub(1), 0);
        p.on_proxy_frame(
            200,
            Frame::Response {
                sid: StreamId(1),
                batch: vec![Delta::RewriteRequest {
                    patch: Json::obj([("brass_host", Json::from(55u64))]),
                }],
            },
            5,
        );
        let fx = collect(|out| p.on_proxy_failed_into(100, out));
        let resub_header = fx.iter().find_map(|e| match frame_of(e) {
            Some(Frame::Subscribe { header, .. }) => Some(header.clone()),
            _ => None,
        });
        assert_eq!(
            resub_header
                .unwrap()
                .get("brass_host")
                .and_then(Json::as_u64),
            Some(55),
            "POP repair carries the rewritten sticky-routing state"
        );
    }

    fn bytes(p: &Pop) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.snap(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> SnapResult<Pop> {
        let mut r = SnapReader::new(bytes);
        let p = Pop::restore(&mut r)?;
        r.finish()?;
        Ok(p)
    }

    /// Once every proxy has failed, a device frame neither panics nor goes
    /// anywhere: a subscribe is kept as an orphan and its device told
    /// `Degraded`, a cancel is applied, and a returning proxy repairs what
    /// is left.
    #[test]
    fn an_empty_pool_keeps_subscribes_as_orphans_until_a_proxy_returns() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(200, sub(1), 0);
        collect(|out| p.on_proxy_failed_into(100, out));
        for (device, sid) in [(200, 2), (201, 1), (201, 2)] {
            let fx = p.on_device_frame(device, sub(sid), 10);
            assert_eq!(fx.len(), 1, "only the degraded signal");
            assert!(signals(&fx[0], FlowStatus::Degraded));
        }
        let ack = Frame::Ack {
            sid: StreamId(1),
            seq: 3,
        };
        assert!(p.on_device_frame(200, ack, 11).is_empty());
        let cancel = Frame::Cancel { sid: StreamId(1) };
        assert!(p.on_device_frame(201, cancel, 12).is_empty());
        assert_eq!(p.stream_count(), 3);

        let fx = collect(|out| p.add_proxy_into(101, out));
        let resubscribed: Vec<(u64, StreamId)> = fx
            .iter()
            .filter_map(|e| match (e, frame_of(e)) {
                (
                    PopEffect::ToProxy {
                        proxy: 101, device, ..
                    },
                    Some(Frame::Subscribe { sid, .. }),
                ) => Some((*device, *sid)),
                _ => None,
            })
            .collect();
        let want = [(200, 1), (200, 2), (201, 2)].map(|(d, s)| (d, StreamId(s)));
        assert_eq!(resubscribed, want);
        let recovered = fx.iter().filter(|e| signals(e, FlowStatus::Recovered));
        assert_eq!(recovered.count(), 3);
        let fx = p.on_device_frame(201, sub(3), 20);
        assert!(matches!(fx[..], [PopEffect::ToProxy { proxy: 101, .. }]));
    }

    /// A device whose first frame is a pong is monitored but carries no
    /// proxy, so reaping it tells no proxy.
    #[test]
    fn a_pong_first_device_is_monitored_but_routed_nowhere() {
        let mut p = Pop::new(1, vec![100]);
        assert!(p.on_device_frame(9, Frame::Pong { token: 1 }, 0).is_empty());
        assert_eq!(p.conns.len(), 1);
        let fx: Vec<PopEffect> = (1..=5u64)
            .flat_map(|i| collect(|out| p.on_heartbeat_tick_into(i * 5_000_000, out)))
            .collect();
        assert_eq!(fx.len(), 3, "three pings, then a silent reap: {fx:?}");
        assert_eq!(p.conns.len(), 0);
    }

    /// A POP with no proxy left is a state a run reaches, so it restores;
    /// a pool that names a proxy twice is not, so it does not.
    #[test]
    fn restore_accepts_an_empty_pool_and_rejects_a_repeated_proxy() {
        let mut p = Pop::new(1, vec![100]);
        p.on_device_frame(200, sub(1), 0);
        collect(|out| p.on_proxy_failed_into(100, out));
        p.on_device_frame(201, sub(1), 1);
        let b = bytes(&p);
        let mut back = restore(&b).expect("an empty pool restores");
        assert_eq!(bytes(&back), b);
        let fx = collect(|out| back.add_proxy_into(101, out));
        assert_eq!(fx.iter().filter(|e| resubscribes_via(e, 101)).count(), 2);

        let mut twice = Pop::new(1, vec![100]);
        twice.proxies.push(100);
        assert!(restore(&bytes(&twice)).is_err());
    }

    /// A restored POP is the original: the same effects on the next
    /// heartbeat tick and the next subscribe, and the same bytes after.
    #[test]
    fn a_restored_pop_emits_what_the_original_emits() {
        let mut p = Pop::new(1, vec![100, 101, 102]);
        for device in [42, 7, 1000, 3] {
            p.on_device_frame(device, sub(1), 0);
        }
        p.on_device_frame(5, Frame::Pong { token: 1 }, 0);
        p.on_device_frame(7, sub(2), 1);
        collect(|out| p.on_heartbeat_tick_into(5_000_000, out));
        p.on_device_frame(42, Frame::Pong { token: 1 }, 5_000_100);
        collect(|out| p.on_proxy_failed_into(101, out));
        let mut back = restore(&bytes(&p)).expect("restores");
        let run = |pop: &mut Pop| {
            let mut fx = collect(|out| pop.on_heartbeat_tick_into(10_000_000, out));
            fx.extend(pop.on_device_frame(1000, sub(3), 10_000_001));
            fx.extend(pop.on_device_frame(8, sub(1), 10_000_002));
            fx.extend(collect(|out| pop.on_proxy_failed_into(100, out)));
            (fx, bytes(pop))
        };
        let want = run(&mut p);
        // Five pings, two subscribes, five streams repaired off 100.
        assert_eq!(want.0.len(), 5 + 2 + 5 * 3, "{:?}", want.0);
        assert_eq!(run(&mut back), want);
    }
}
