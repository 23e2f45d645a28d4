//! The end-user device model.
//!
//! A device owns one BURST connection (through a POP) carrying many
//! request-streams — "an application will have multiple (10+) active
//! request-streams simultaneously" (§3). Each stream is a
//! [`ClientStream`]; the device reacts to delivered batches, shows
//! connectivity state on flow-status deltas, and recovers from failures by
//! resubscribing every affected stream with its *current* header — which,
//! thanks to server rewrites, lands on the same BRASS (sticky routing) at
//! the right resume point.

use burst::frame::{Frame, Payload, StreamId, TerminateReason};
use burst::json::Json;
use burst::stream::{ClientAction, ClientStream, StreamState};

/// What a device does in response to protocol input.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceOutput {
    /// Send a frame upstream (to the POP).
    Send(Frame),
    /// An update payload reached the app: re-render the UI.
    Render {
        /// The stream it arrived on.
        sid: StreamId,
        /// The payload (shared with every other stream it fanned out to).
        payload: Payload,
    },
    /// A sequence gap means updates were lost; reliable apps poll the WAS.
    BackfillPoll {
        /// The affected stream.
        sid: StreamId,
    },
    /// Show/hide the connectivity indicator.
    ConnectivityChanged {
        /// `true` when degraded.
        degraded: bool,
    },
    /// A stream ended; `retry` says whether the device should resubscribe.
    StreamEnded {
        /// The stream.
        sid: StreamId,
        /// Whether the server asked for a retry (redirects, shutdowns).
        retry: bool,
    },
}

/// An end-user device (mobile app or browser tab).
///
/// Streams live in a vec kept sorted by stream id (ids are assigned
/// sequentially, so appends preserve order): at "10+ active
/// request-streams" (§3) a sorted vec beats a hash map on both resident
/// bytes and iteration determinism — there is no hasher state to leak into
/// ordering, and no bucket array amortisation.
#[derive(Clone)]
pub struct Device {
    id: u64,
    streams: Vec<ClientStream>,
    next_sid: u64,
    delivered: u64,
    renders: u64,
}

impl Device {
    /// Creates a device.
    pub fn new(id: u64) -> Self {
        Device {
            id,
            streams: Vec::new(),
            next_sid: 1,
            delivered: 0,
            renders: 0,
        }
    }

    /// This device's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn index_of(&self, sid: StreamId) -> Option<usize> {
        self.streams.binary_search_by_key(&sid, |s| s.sid()).ok()
    }

    /// Number of open (non-terminated) streams.
    pub fn open_streams(&self) -> usize {
        self.iter_open_sids().count()
    }

    /// Total updates delivered across all streams.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Looks at a stream's state (testing / assertions).
    pub fn stream(&self, sid: StreamId) -> Option<&ClientStream> {
        self.index_of(sid).map(|i| &self.streams[i])
    }

    /// Ids of open (non-terminated) streams, oldest first.
    pub fn open_sids(&self) -> Vec<StreamId> {
        self.iter_open_sids().collect()
    }

    /// [`Device::open_sids`] without the vector.
    pub fn iter_open_sids(&self) -> impl Iterator<Item = StreamId> + '_ {
        let open = |s: &&ClientStream| !matches!(s.state(), StreamState::Terminated(_));
        self.streams.iter().filter(open).map(|s| s.sid())
    }

    /// Opens a new request-stream; returns its id and the subscribe frame.
    pub fn open_stream(&mut self, header: Json, body: Vec<u8>) -> (StreamId, Frame) {
        let sid = StreamId(self.next_sid);
        self.next_sid += 1;
        let stream = ClientStream::new(sid, header, body);
        let frame = stream.subscribe_request();
        self.streams.push(stream);
        (sid, frame)
    }

    /// Cancels a stream; returns the cancel frame.
    pub fn cancel_stream(&mut self, sid: StreamId) -> Option<Frame> {
        let i = self.index_of(sid)?;
        self.streams.remove(i);
        Some(Frame::Cancel { sid })
    }

    /// Handles a frame arriving from the POP; the outputs as a vector
    /// (see [`Device::on_frame_into`]).
    pub fn on_frame(&mut self, frame: &Frame) -> Vec<DeviceOutput> {
        let mut out = Vec::new();
        self.on_frame_into(frame, &mut out);
        out
    }

    /// Handles a frame arriving from the POP, appending what the device
    /// does in response to `out`.
    pub fn on_frame_into(&mut self, frame: &Frame, out: &mut Vec<DeviceOutput>) {
        // Heartbeats are answered reflexively (§4 footnote 11).
        if let Frame::Ping { token } = frame {
            out.push(DeviceOutput::Send(Frame::Pong { token: *token }));
            return;
        }
        let Frame::Response { sid, batch } = frame else {
            return;
        };
        let Some(index) = self.index_of(*sid) else {
            return;
        };
        let (delivered, renders) = (&mut self.delivered, &mut self.renders);
        self.streams[index].on_batch_with(batch, |action| match action {
            ClientAction::Deliver(payload) => {
                *delivered += 1;
                *renders += 1;
                out.push(DeviceOutput::Render { sid: *sid, payload });
            }
            ClientAction::GapDetected { .. } => {
                out.push(DeviceOutput::BackfillPoll { sid: *sid });
            }
            ClientAction::NotifyDegraded => {
                out.push(DeviceOutput::ConnectivityChanged { degraded: true });
            }
            ClientAction::NotifyRecovered => {
                out.push(DeviceOutput::ConnectivityChanged { degraded: false });
            }
            ClientAction::HeaderRewritten => {}
            ClientAction::Terminated(reason) => {
                let retry = matches!(
                    reason,
                    TerminateReason::Redirect | TerminateReason::ServerShutdown
                );
                out.push(DeviceOutput::StreamEnded { sid: *sid, retry });
            }
        });
        // Drop terminated streams that will not retry.
        if let StreamState::Terminated(reason) = self.streams[index].state() {
            if !matches!(
                reason,
                TerminateReason::Redirect | TerminateReason::ServerShutdown
            ) {
                self.streams.remove(index);
            }
        }
    }

    /// Resubscribes a stream the server asked to retry (after a redirect or
    /// shutdown terminate). Returns the new subscribe frame.
    pub fn retry_stream(&mut self, sid: StreamId) -> Option<Frame> {
        let i = self.index_of(sid)?;
        Some(self.streams[i].resubscribe_request())
    }

    /// Handles loss of the POP connection: every stream degrades, and the
    /// device produces resubscribe frames to send once reconnected. The
    /// resubscribes use the current (rewritten) headers — sticky routing
    /// and resumption need no extra device logic.
    pub fn on_connection_lost(&mut self) -> Vec<Frame> {
        let mut frames = Vec::new();
        for stream in &mut self.streams {
            if matches!(stream.state(), StreamState::Terminated(_)) {
                continue;
            }
            stream.on_connection_lost();
            frames.push(stream.resubscribe_request());
        }
        frames
    }

    /// Builds an ack frame for a stream (reliable applications).
    pub fn ack(&self, sid: StreamId) -> Option<Frame> {
        self.index_of(sid).map(|i| self.streams[i].ack_request())
    }

    /// Freezes the whole device into its compact hibernation form: scalar
    /// counters plus each stream's [`ClientStream::freeze_into`] encoding.
    /// [`Device::rehydrate`] reconstructs an identical device; the blob is
    /// also the snapshot serialization of a device.
    pub fn hibernate(&self) -> Box<[u8]> {
        let mut out = Vec::new();
        self.hibernate_into(&mut out);
        out.into_boxed_slice()
    }

    /// [`Device::hibernate`] into a caller-owned buffer, replacing its
    /// contents.
    pub fn hibernate_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.next_sid.to_le_bytes());
        out.extend_from_slice(&self.delivered.to_le_bytes());
        out.extend_from_slice(&self.renders.to_le_bytes());
        out.extend_from_slice(&(self.streams.len() as u32).to_le_bytes());
        for stream in &self.streams {
            stream.freeze_into(out);
        }
    }

    /// Rebuilds a device from its hibernation blob.
    pub fn rehydrate(id: u64, blob: &[u8]) -> Device {
        let mut device = Device::new(id);
        device.rehydrate_from(id, blob);
        device
    }

    /// [`Device::rehydrate`] over an existing device (whatever it held
    /// before), reusing its stream table and per-stream buffers.
    pub fn rehydrate_from(&mut self, id: u64, blob: &[u8]) {
        let mut pos = 0;
        self.id = id;
        self.next_sid = read_u64(blob, &mut pos);
        self.delivered = read_u64(blob, &mut pos);
        self.renders = read_u64(blob, &mut pos);
        let n = read_u32(blob, &mut pos) as usize;
        self.streams.truncate(n);
        self.streams.reserve_exact(n - self.streams.len());
        for stream in &mut self.streams {
            stream.thaw_into(blob, &mut pos);
        }
        for _ in self.streams.len()..n {
            self.streams.push(ClientStream::thaw(blob, &mut pos));
        }
        debug_assert_eq!(pos, blob.len(), "hibernation blob fully consumed");
    }

    /// Validates a hibernation blob that comes from outside the process (a
    /// snapshot being loaded), so that [`Device::rehydrate`] and the
    /// `frozen_*` readers — which index without checking — can trust it:
    /// every stream [`ClientStream::check_frozen`]-clean, ids ascending and
    /// below `next_sid`, and the blob consumed exactly (a stream count
    /// beyond the blob runs off its end). Never called on the wake path.
    pub fn check_frozen(blob: &[u8]) -> Result<(), &'static str> {
        if blob.len() < 28 {
            return Err("hibernation blob shorter than its header");
        }
        let next_sid = read_u64(blob, &mut 0);
        let mut pos = 24; // past next_sid, delivered, renders
        let mut prev = None;
        for _ in 0..read_u32(blob, &mut pos) {
            let sid = ClientStream::check_frozen(blob, &mut pos)?;
            if prev.is_some_and(|p| p >= sid) || sid.0 >= next_sid {
                return Err("frozen stream ids not ascending below next_sid");
            }
            prev = Some(sid);
        }
        if pos != blob.len() {
            return Err("trailing bytes after the last frozen stream");
        }
        Ok(())
    }

    /// Open (non-terminated) stream ids of a hibernated device, oldest
    /// first, read straight from the blob a stream at a time — no
    /// rehydration, no header unpacking, no vector.
    pub fn frozen_open_sids(blob: &[u8]) -> impl Iterator<Item = StreamId> + '_ {
        let mut pos = 24; // skip next_sid, delivered, renders
        let streams = read_u32(blob, &mut pos);
        (0..streams).filter_map(move |_| {
            let (sid, open) = ClientStream::peek_frozen(blob, &mut pos);
            open.then_some(sid)
        })
    }
}

fn read_u32(buf: &[u8], pos: &mut usize) -> u32 {
    let v = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("u32"));
    *pos += 4;
    v
}

fn read_u64(buf: &[u8], pos: &mut usize) -> u64 {
    let v = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("u64"));
    *pos += 8;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst::frame::Delta;

    fn header(topic: &str) -> Json {
        Json::obj([
            ("viewer", Json::from(9u64)),
            ("app", Json::from("lvc")),
            ("topic", Json::from(topic)),
        ])
    }

    #[test]
    fn open_stream_produces_subscribe() {
        let mut d = Device::new(1);
        let (sid, frame) = d.open_stream(header("/LVC/1"), vec![]);
        match frame {
            Frame::Subscribe { sid: s, .. } => assert_eq!(s, sid),
            other => panic!("expected subscribe, got {other:?}"),
        }
        assert_eq!(d.open_streams(), 1);
    }

    #[test]
    fn updates_render_in_order() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        let out = d.on_frame(&Frame::Response {
            sid,
            batch: vec![
                Delta::update(0, b"a".to_vec()),
                Delta::update(1, b"b".to_vec()),
            ],
        });
        assert_eq!(
            out,
            vec![
                DeviceOutput::Render {
                    sid,
                    payload: b"a".to_vec().into()
                },
                DeviceOutput::Render {
                    sid,
                    payload: b"b".to_vec().into()
                },
            ]
        );
        assert_eq!(d.delivered(), 2);
    }

    #[test]
    fn gap_triggers_backfill_poll() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::update(0, vec![])],
        });
        let out = d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::update(5, vec![])],
        });
        assert!(out.contains(&DeviceOutput::BackfillPoll { sid }));
    }

    #[test]
    fn connection_loss_resubscribes_with_rewritten_headers() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        let (sid2, _) = d.open_stream(header("/LVC/2"), vec![]);
        // BRASS patches sticky-routing info into stream 1's header.
        d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::RewriteRequest {
                patch: Json::obj([("brass_host", Json::from(7u64))]),
            }],
        });
        let frames = d.on_connection_lost();
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Frame::Subscribe { sid: s, header, .. } => {
                assert_eq!(*s, sid);
                assert_eq!(header.get("brass_host").and_then(Json::as_u64), Some(7));
            }
            other => panic!("expected subscribe, got {other:?}"),
        }
        match &frames[1] {
            Frame::Subscribe { sid: s, header, .. } => {
                assert_eq!(*s, sid2);
                assert!(header.get("brass_host").is_none());
            }
            other => panic!("expected subscribe, got {other:?}"),
        }
    }

    #[test]
    fn flow_status_toggles_connectivity_indicator() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        let out = d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::FlowStatus(burst::frame::FlowStatus::Degraded)],
        });
        assert_eq!(
            out,
            vec![DeviceOutput::ConnectivityChanged { degraded: true }]
        );
        let out = d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::FlowStatus(burst::frame::FlowStatus::Recovered)],
        });
        assert_eq!(
            out,
            vec![DeviceOutput::ConnectivityChanged { degraded: false }]
        );
    }

    #[test]
    fn redirect_terminate_keeps_stream_for_retry() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        let out = d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::Terminate(TerminateReason::Redirect)],
        });
        assert_eq!(out, vec![DeviceOutput::StreamEnded { sid, retry: true }]);
        let retry = d.retry_stream(sid);
        assert!(matches!(retry, Some(Frame::Subscribe { .. })));
    }

    #[test]
    fn error_terminate_drops_stream() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        let out = d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::Terminate(TerminateReason::Denied)],
        });
        assert_eq!(out, vec![DeviceOutput::StreamEnded { sid, retry: false }]);
        assert_eq!(d.open_streams(), 0);
        assert!(d.retry_stream(sid).is_none());
    }

    #[test]
    fn cancel_removes_stream() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
        assert_eq!(d.cancel_stream(sid), Some(Frame::Cancel { sid }));
        assert_eq!(d.open_streams(), 0);
        assert_eq!(d.cancel_stream(sid), None);
    }

    #[test]
    fn pings_are_answered_with_pongs() {
        let mut d = Device::new(1);
        let out = d.on_frame(&Frame::Ping { token: 42 });
        assert_eq!(out, vec![DeviceOutput::Send(Frame::Pong { token: 42 })]);
    }

    #[test]
    fn frames_for_unknown_streams_ignored() {
        let mut d = Device::new(1);
        let out = d.on_frame(&Frame::Response {
            sid: StreamId(99),
            batch: vec![Delta::update(0, vec![])],
        });
        assert!(out.is_empty());
    }

    #[test]
    fn hibernate_rehydrate_roundtrip() {
        let mut d = Device::new(17);
        let (sid1, _) = d.open_stream(header("/LVC/1"), vec![5, 6]);
        let (sid2, _) = d.open_stream(header("/Msgr/9"), vec![]);
        d.on_frame(&Frame::Response {
            sid: sid1,
            batch: vec![
                Delta::update(0, b"x".to_vec()),
                Delta::RewriteRequest {
                    patch: Json::obj([("brass_host", Json::from(3u64))]),
                },
            ],
        });
        d.on_frame(&Frame::Response {
            sid: sid2,
            batch: vec![Delta::Terminate(TerminateReason::Redirect)],
        });
        let blob = d.hibernate();
        assert!(Device::frozen_open_sids(&blob).eq([sid1]));
        let mut r = Device::rehydrate(17, &blob);
        assert_eq!(r.id(), d.id());
        assert_eq!(r.delivered(), d.delivered());
        assert_eq!(r.open_sids(), d.open_sids());
        assert_eq!(r.stream(sid1), d.stream(sid1));
        assert_eq!(r.stream(sid2), d.stream(sid2));
        // Rehydrating over a device of another shape, and back, leaves
        // nothing of the previous occupant behind.
        let mut other = Device::new(99);
        for topic in ["/LVC/7", "/LVC/8", "/LVC/9"] {
            other.open_stream(header(topic), vec![1]);
        }
        let other_blob = other.hibernate();
        r.rehydrate_from(99, &other_blob);
        assert_eq!(r.hibernate(), other_blob);
        r.rehydrate_from(17, &blob);
        assert_eq!((r.id(), r.hibernate()), (17, blob.clone()));
        // A rehydrated device keeps allocating fresh stream ids.
        let (sid3, _) = Device::rehydrate(17, &blob).open_stream(header("/LVC/2"), vec![]);
        assert_eq!(sid3, StreamId(3));
    }

    /// `check_frozen` accepts what `hibernate` writes and rejects every
    /// blob `rehydrate` or the `frozen_*` readers would index out of, panic
    /// on, or silently misread.
    #[test]
    fn check_frozen_accepts_hibernate_output_and_rejects_damage() {
        let mut d = Device::new(17);
        d.open_stream(header("/LVC/1"), vec![7, 8]);
        d.open_stream(header("/LVC/2"), vec![]);
        let blob = d.hibernate();
        assert_eq!(Device::check_frozen(&blob), Ok(()));
        assert_eq!(Device::check_frozen(&Device::new(1).hibernate()), Ok(()));
        for cut in 0..blob.len() {
            assert!(Device::check_frozen(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let damaged = |at: usize, byte: u8| {
            let mut bad = blob.to_vec();
            bad[at] = byte;
            Device::check_frozen(&bad)
        };
        // A stream count beyond the blob: `reserve_exact` of gigabytes.
        assert!(damaged(27, 0x7f).is_err());
        assert!(damaged(24, 3).is_err());
        // A state code `thaw` panics on.
        assert!(damaged(28 + 8, 8).is_err());
        // Stream ids out of order, and an id `next_sid` would hand out again.
        assert!(damaged(28, 2).is_err());
        assert!(damaged(0, 2).is_err());
        // A header that is no longer the canonical JSON `reload` expects.
        assert!(damaged(28 + 8 + 1 + 40 + 4, b' ').is_err());
        // A header length reaching past the end, and trailing bytes.
        assert!(damaged(28 + 8 + 1 + 40 + 3, 0x7f).is_err());
        let mut long = blob.to_vec();
        long.push(0);
        assert!(Device::check_frozen(&long).is_err());
    }

    #[test]
    fn ack_frame_reports_progress() {
        let mut d = Device::new(1);
        let (sid, _) = d.open_stream(header("/Msgr/9"), vec![]);
        d.on_frame(&Frame::Response {
            sid,
            batch: vec![Delta::update(0, vec![]), Delta::update(1, vec![])],
        });
        assert_eq!(d.ack(sid), Some(Frame::Ack { sid, seq: 1 }));
    }
}
