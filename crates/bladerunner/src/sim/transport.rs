//! The frame path between a device and its BRASS host. Up: `AtPop` →
//! `AtProxy` → `AtBrass`, every last-mile send going through
//! [`SystemSim::send_up`]. Down: `DownAtProxy` → `DownAtPop` →
//! [`SystemSim::schedule_to_device`] → `AtDevice`. The proxy and POP
//! effect fan-outs live here too.

use brass::app::DeviceId;
use brass::AppId;
use burst::flow::Admit;
use burst::frame::{Delta, FlowStatus, Frame, Payload, StreamId};
use edge::device::DeviceOutput;
use edge::pop::PopEffect;
use edge::proxy::ProxyEffect;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop, HopOutcome};

use super::ev::Ev;
use super::SystemSim;
use crate::config::LinkClass;

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
    /// Puts a device's frame on the last mile toward its POP.
    pub(super) fn send_up(&mut self, now: SimTime, link: LinkClass, device: u64, frame: Frame) {
        let d = self.latency.last_mile(link, &mut self.engine_rng);
        self.queue.schedule(
            now + d,
            Ev::AtPop {
                device,
                frame: frame.into(),
            },
        );
    }

    /// Schedules a device's direct poll of the WAS for what stream `sid`
    /// missed.
    pub(super) fn schedule_backfill_poll(
        &mut self,
        now: SimTime,
        link: LinkClass,
        device: u64,
        sid: StreamId,
    ) {
        self.metrics.backfill_polls.inc();
        let d = self.latency.last_mile(link, &mut self.engine_rng)
            + self.latency.edge_to_was(&mut self.engine_rng);
        self.queue
            .schedule(now + d, Ev::WasBackfillExec { device, sid });
    }

    pub(super) fn on_at_pop(&mut self, now: SimTime, device: u64, frame: Box<Frame>) {
        if !self.devices.contains_key(device) {
            return;
        }
        // A device's POP is derived, not stored: `device % pops`.
        let pop = device as usize % self.pops.len();
        self.drive_pop(now, pop, |p, fx| p.on_device_frame_into(device, frame, fx));
    }

    pub(super) fn on_at_proxy(
        &mut self,
        now: SimTime,
        proxy: usize,
        device: u64,
        frame: Box<Frame>,
    ) {
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
            p.on_downstream_frame_into(device, frame, fx)
        });
    }

    /// Converts reverse-proxy effects into scheduled events, leaving
    /// `effects` empty. `sent_at` is when a frame bound for a device left
    /// its sender: `now` for one the proxy made, the BRASS's own send time
    /// for one it relays.
    pub(super) fn process_proxy_effects(
        &mut self,
        now: SimTime,
        proxy: usize,
        effects: &mut Vec<ProxyEffect>,
        sent_at: SimTime,
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
                            sent_at,
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

    pub(super) fn on_at_brass(
        &mut self,
        now: SimTime,
        host: usize,
        device: u64,
        frame: Box<Frame>,
    ) {
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
            Frame::Ack { sid, seq } => h.on_ack(device, sid, seq),
            _ => {}
        });
    }

    pub(super) fn on_down_at_proxy(
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
        self.proxies[proxy].on_upstream_frame_into(device, frame, &mut fx);
        self.process_proxy_effects(now, proxy, &mut fx, sent_at);
        self.proxy_fx = fx;
    }

    pub(super) fn on_down_at_pop(
        &mut self,
        now: SimTime,
        device: u64,
        frame: Box<Frame>,
        sent_at: SimTime,
    ) {
        let Some(slot) = self.devices.slot(device) else {
            return;
        };
        let pop = device as usize % self.pops.len();
        let mut fx = std::mem::take(&mut self.pop_fx);
        self.pops[pop].on_proxy_frame_into(device, frame, &mut fx);
        for effect in fx.drain(..) {
            // A POP passes a proxy's frame on to the device it came for.
            if let PopEffect::ToDevice { frame, .. } = effect {
                self.schedule_to_device(now, slot, device, frame, sent_at);
            }
        }
        self.pop_fx = fx;
    }

    /// Puts a frame on the last mile toward `device`, whose fleet slot the
    /// caller resolved (see [`simkit::collections::IdMap::slot`]; the
    /// fleet is never removed from, so a slot stays good).
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
        for trace in frame.update_payloads().filter_map(Payload::trace) {
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

    pub(super) fn on_at_device(
        &mut self,
        now: SimTime,
        device: u64,
        frame: &Frame,
        sent_at: SimTime,
    ) {
        let Some(slot) = self.devices.slot(device) else {
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
        let app = self.metrics.stream_app(device, frame.sid());
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
                    let lat = self.metrics.bucket(app);
                    lat.brass_to_device
                        .record(now.saturating_since(sent_at).as_millis_f64());
                    // Total publish time: the payload carries the original
                    // application timestamp.
                    if let Some(created) = burst::json::top_level_u64(&payload, "created_ms") {
                        let created = SimTime::from_millis(created);
                        lat.total
                            .record(now.saturating_since(created).as_millis_f64());
                    }
                    if let Some(trace) = payload.trace() {
                        self.ledger
                            .record(trace, Hop::DeviceRender, now, HopOutcome::Ok);
                    }
                }
                DeviceOutput::StreamEnded { sid, retry } => {
                    self.metrics.stream_closed(device, sid, now);
                    if !retry {
                        // Ended for good: the device dropped the stream,
                        // so its registration ends here, not at a cancel.
                        self.metrics.unregister_stream(device, sid);
                    }
                    let state = self.devices.at_mut(slot);
                    let retry_frame = if retry {
                        state.wake(device, &mut self.park).retry_stream(sid)
                    } else {
                        None
                    };
                    if let Some(frame) = retry_frame {
                        let link = state.link;
                        self.send_up(now, link, device, frame);
                    }
                }
                DeviceOutput::Send(frame) => {
                    // Protocol replies (pongs, flow-control) go back up.
                    let link = self.devices.at(slot).link;
                    self.send_up(now, link, device, frame);
                }
                DeviceOutput::BackfillPoll { sid } => {
                    // Gap detected: the device polls the WAS directly for
                    // the window it missed (the paper's at-most-once
                    // streams push reliability into app-level refetch).
                    let link = self.devices.at(slot).link;
                    self.schedule_backfill_poll(now, link, device, sid);
                }
                DeviceOutput::Expired { sid, payload } => {
                    // Too late for a gap the stream had to forget: unless
                    // it already arrived, the update is dropped here, on
                    // the record, and stays backfill-recoverable.
                    let trace = payload.trace();
                    if let Some(trace) = trace.filter(|&t| !self.trace_resolved(t)) {
                        let why = HopOutcome::Dropped(DropReason::Stale);
                        self.ledger.record(trace, Hop::DeviceRender, now, why);
                        self.pending_backfill
                            .entry((device, sid))
                            .or_default()
                            .push(trace);
                    }
                }
                DeviceOutput::ConnectivityChanged { .. } => {}
            }
        }
        self.device_out = outputs;
        // Reliable applications acknowledge receipt; the BRASS's retention
        // buffer shrinks and retransmission stops.
        if app.is_some_and(AppId::retains_unacked) {
            if let Some(sid) = rendered_on {
                let state = self.devices.at_mut(slot);
                if let Some(ack) = state.wake(device, &mut self.park).ack(sid) {
                    let link = state.link;
                    self.send_up(now, link, device, ack);
                }
            }
        }
    }

    /// Shared POP-effect fan-out (frames up to proxies, frames down to
    /// devices, device-gone teardown at the owning proxy), leaving
    /// `effects` empty.
    pub(super) fn process_pop_effects(&mut self, now: SimTime, effects: &mut Vec<PopEffect>) {
        for effect in effects.drain(..) {
            match effect {
                PopEffect::ToProxy {
                    proxy,
                    device,
                    frame,
                } => {
                    if let Some(state) = self.devices.get_mut(device) {
                        state.proxy = Some(proxy);
                    }
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
                    if let Some(slot) = self.devices.slot(device) {
                        self.schedule_to_device(now, slot, device, frame, now);
                    }
                }
                PopEffect::DeviceGone { proxy, device } => {
                    self.on_device_gone(now, proxy as usize, device)
                }
            }
        }
    }
}
