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
use simkit::snap::{ensure, Snap, SnapReader, SnapResult, SnapWriter};

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
    /// A late update the stream could no longer place (its gap was
    /// forgotten): not rendered, so the caller accounts for it.
    Expired {
        /// The stream it arrived on.
        sid: StreamId,
        /// The payload.
        payload: Payload,
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
            ClientAction::Expired(payload) => {
                out.push(DeviceOutput::Expired { sid: *sid, payload });
            }
            ClientAction::NotifyDegraded => {
                out.push(DeviceOutput::ConnectivityChanged { degraded: true });
            }
            ClientAction::NotifyRecovered => {
                out.push(DeviceOutput::ConnectivityChanged { degraded: false });
            }
            ClientAction::HeaderRewritten => {}
            ClientAction::Terminated(reason) => {
                let retry = retries(reason);
                out.push(DeviceOutput::StreamEnded { sid: *sid, retry });
            }
        });
        // Drop terminated streams that will not retry.
        if let StreamState::Terminated(reason) = self.streams[index].state() {
            if !retries(reason) {
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

    /// Writes the device's protocol state, all of it but the id its holder
    /// keys it by: the counters, then each stream's [`ClientStream::snap`].
    /// This is the hibernation blob, and a device's snapshot form.
    pub fn snap(&self, w: &mut SnapWriter) {
        (self.next_sid, self.delivered, self.renders).snap(w);
        w.put_usize(self.streams.len());
        self.streams.iter().for_each(|stream| stream.snap(w));
    }

    /// The device's compact hibernation form: [`Device::snap`]'s bytes.
    pub fn hibernate(&self) -> Box<[u8]> {
        let mut w = SnapWriter::new();
        self.snap(&mut w);
        w.into_bytes().into_boxed_slice()
    }

    /// Rebuilds a device from a hibernation blob this process wrote.
    pub fn rehydrate(id: u64, blob: &[u8]) -> Device {
        let mut device = Device::new(id);
        device
            .rehydrate_from(id, blob)
            .expect("a blob this process wrote reads back");
        device
    }

    /// Reads a hibernation blob over this device (whatever it held
    /// before), reusing its stream table and per-stream buffers. Checks
    /// bounds, tags and that the blob is read exactly; a blob from outside
    /// the process must pass [`Device::check`] too.
    pub fn rehydrate_from(&mut self, id: u64, blob: &[u8]) -> SnapResult<()> {
        let mut r = SnapReader::new(blob);
        self.id = id;
        (self.next_sid, self.delivered, self.renders) = Snap::restore(&mut r)?;
        let n = r.get_len()?;
        self.streams.truncate(n);
        self.streams.reserve_exact(n - self.streams.len());
        self.streams.resize_with(n, ClientStream::blank);
        for stream in &mut self.streams {
            stream.restore_into(&mut r)?;
        }
        r.finish()
    }

    /// Checks what [`Device::rehydrate_from`] leaves to its caller for a
    /// blob from outside the process (a snapshot being loaded): stream ids
    /// ascending below `next_sid`, no stream in a terminal state a device
    /// drops at once, and each stream's [`ClientStream::check`].
    pub fn check(&self) -> Result<(), String> {
        let streams = &self.streams;
        let ascending = streams.windows(2).all(|p| p[0].sid() < p[1].sid());
        ensure(ascending, "stream ids out of order")?;
        let below = streams.last().is_none_or(|s| s.sid().0 < self.next_sid);
        ensure(below, "a stream id next_sid hands out again")?;
        for stream in streams {
            if let StreamState::Terminated(reason) = stream.state() {
                ensure(retries(reason), "a stream no device keeps")?;
            }
            stream.check()?;
        }
        Ok(())
    }

    /// Open (non-terminated) stream ids of a hibernated device, oldest
    /// first, peeked from the blob a stream at a time
    /// ([`ClientStream::peek`]): no rehydration, no header unpacking, no
    /// allocation.
    pub fn frozen_open_sids(blob: &[u8]) -> impl Iterator<Item = StreamId> + '_ {
        const READ: &str = "a parked blob was read whole once";
        let mut r = SnapReader::new(blob);
        // Past next_sid, delivered and renders to the stream count.
        let streams = <[u64; 3]>::restore(&mut r).and_then(|_| r.get_len());
        let streams = streams.expect(READ);
        (0..streams).filter_map(move |_| {
            let (sid, state) = ClientStream::peek(&mut r).expect(READ);
            (!matches!(state, StreamState::Terminated(_))).then_some(sid)
        })
    }
}

/// Whether a stream the server ended for `reason` is retried (redirects,
/// shutdowns); a device drops any other terminated stream at once.
fn retries(reason: TerminateReason) -> bool {
    matches!(
        reason,
        TerminateReason::Redirect | TerminateReason::ServerShutdown
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst::frame::Delta;
    use burst::stream::MAX_OPEN_GAPS;
    use simkit::snap::SnapError;

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
        assert_eq!(r.rehydrate_from(99, &other_blob), Ok(()));
        assert_eq!(r.hibernate(), other_blob);
        assert_eq!(r.rehydrate_from(17, &blob), Ok(()));
        assert_eq!((r.id(), r.hibernate()), (17, blob.clone()));
        // A rehydrated device keeps allocating fresh stream ids.
        let (sid3, _) = Device::rehydrate(17, &blob).open_stream(header("/LVC/2"), vec![]);
        assert_eq!(sid3, StreamId(3));
    }

    /// A device's snapshot load path: the blob read over a blank device,
    /// then checked. A read error names its kind, not where it struck.
    fn load(blob: &[u8]) -> Result<Device, String> {
        let mut device = Device::new(17);
        device.rehydrate_from(17, blob).map_err(|e| match e {
            SnapError::Eof { .. } => "truncated".to_string(),
            SnapError::Trailing { .. } => "trailing bytes".to_string(),
            SnapError::Invalid(what) => what,
            e => e.to_string(),
        })?;
        device.check().map(|()| device)
    }

    /// The load path accepts what `hibernate` writes and, for every
    /// truncation and every single-byte flip of a blob holding each kind of
    /// stream state, either rejects the bytes or reads a device that writes
    /// them back exactly and whose parked open-sid visit is its live one.
    /// Each check the load path makes rejects at least one flip.
    #[test]
    fn check_frozen_accepts_hibernate_output_and_rejects_damage() {
        let mut d = Device::new(17);
        let (gapped, _) = d.open_stream(header("/LVC/1"), vec![7, 8]);
        let (redirected, _) = d.open_stream(Json::Obj(Vec::new()), vec![]);
        // Every other sequence: one more skipped than a stream keeps open,
        // then the progress a rewrite records in the header.
        let last = 2 * (MAX_OPEN_GAPS as u64 + 1);
        let mut batch: Vec<Delta> = (0..=last)
            .step_by(2)
            .map(|seq| Delta::update(seq, vec![]))
            .collect();
        batch.push(Delta::Progress { last_seq: last });
        d.on_frame(&Frame::Response { sid: gapped, batch });
        let redirect = vec![Delta::Terminate(TerminateReason::Redirect)];
        d.on_frame(&Frame::Response {
            sid: redirected,
            batch: redirect,
        });
        let stream = d.stream(gapped).expect("open");
        let gaps = (stream.open_gap_seqs(), stream.evicted_gap_seqs());
        assert_eq!(gaps, (MAX_OPEN_GAPS as u64, 1));
        assert_eq!(stream.header().get("last_seq"), Some(&Json::from(last)));
        let blob = d.hibernate();
        assert_eq!(load(&blob).map(|d| d.hibernate()), Ok(blob.clone()));
        assert!(load(&Device::new(1).hibernate()).is_ok());
        for cut in 0..blob.len() {
            assert!(load(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = blob.to_vec();
        long.push(0);
        assert_eq!(load(&long).err(), Some("trailing bytes".into()));
        // What each check says when it rejects.
        let checks = [
            "truncated",
            "trailing bytes",
            "exceeds",
            "StreamState tag",
            "TerminateReason tag",
            "Option tag",
            "too many open ranges",
            "open ranges not ascending",
            "eviction count disagrees with its bound",
            "open gaps reach past next_seq",
            "stream header is not canonical JSON",
            "stream ids out of order",
            "a stream id next_sid hands out again",
            "a stream no device keeps",
        ];
        let mut fired = checks.map(|_| false);
        let mut bad = blob.to_vec();
        for at in 0..blob.len() {
            for flip in 1..=u8::MAX {
                bad[at] = blob[at] ^ flip;
                match load(&bad) {
                    Ok(device) => {
                        assert_eq!(*device.hibernate(), *bad, "byte {at} ^{flip:#x}");
                        let parked = Device::frozen_open_sids(&bad);
                        assert!(parked.eq(device.iter_open_sids()), "byte {at} ^{flip:#x}");
                    }
                    Err(why) => {
                        let check = checks.iter().position(|c| why.contains(c));
                        let check = check.unwrap_or_else(|| panic!("byte {at} ^{flip:#x}: {why}"));
                        fired[check] = true;
                    }
                }
            }
            bad[at] = blob[at];
        }
        let silent: Vec<_> = checks
            .iter()
            .zip(fired)
            .filter_map(|(c, f)| (!f).then_some(c))
            .collect();
        assert!(silent.is_empty(), "no flip trips {silent:?}");
    }

    /// A device drops a stream terminated for any reason but a retry at
    /// once, so a blob holding one comes from no run: the byte naming a
    /// retrying stream's reason, flipped to another reason, loads only as
    /// the other retrying one.
    #[test]
    fn reader_rejects_a_terminated_stream_no_device_keeps() {
        let ended = |reason| {
            let mut d = Device::new(17);
            let (sid, _) = d.open_stream(header("/LVC/1"), vec![]);
            let batch = vec![Delta::Terminate(reason)];
            d.on_frame(&Frame::Response { sid, batch });
            d.hibernate()
        };
        let (redirect, shutdown) = (
            ended(TerminateReason::Redirect),
            ended(TerminateReason::ServerShutdown),
        );
        let differ: Vec<usize> = (0..redirect.len())
            .filter(|&i| redirect[i] != shutdown[i])
            .collect();
        let [at] = differ[..] else {
            panic!("the reasons differ in {differ:?}");
        };
        let reasons = (0..=u8::MAX).filter(|&code| {
            let mut bad = redirect.to_vec();
            bad[at] = code;
            load(&bad).is_ok()
        });
        assert!(reasons.eq([redirect[at], shutdown[at]]));
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
