//! Stream multiplexing and byte-based flow control.
//!
//! "On each network hop, multiple streams are multiplexed onto the
//! underlying network protocol used for transport" (§3.5). BURST flow
//! control is **byte**-based per stream — the paper calls out RSocket's
//! message-count flow control as "challenging when messages have highly
//! diverse sizes".
//!
//! [`MuxSender`] queues response frames per stream and releases them
//! round-robin, each send consuming that stream's byte credit.
//! [`CreditManager`] is the receiving side: it tracks consumption and emits
//! [`Frame::Credit`] grants to keep the sender's window topped up.

use std::collections::VecDeque;

use simkit::fxhash::FxHashMap;

use crate::frame::{Frame, StreamId};

/// Per-stream sending state.
struct SendState {
    credit: u64,
    queue: VecDeque<Frame>,
}

/// The sending half of a multiplexed connection.
///
/// Data frames ([`Frame::Response`]) are subject to per-stream byte credit;
/// control frames (subscribe, cancel, ack, credit, ping, pong) bypass flow
/// control, as is conventional.
pub struct MuxSender {
    streams: FxHashMap<StreamId, SendState>,
    /// Round-robin order of streams with queued data.
    rr: VecDeque<StreamId>,
    control: VecDeque<Frame>,
    initial_credit: u64,
    bytes_sent: u64,
}

impl MuxSender {
    /// Creates a sender; each new stream starts with `initial_credit` bytes.
    pub fn new(initial_credit: u64) -> Self {
        MuxSender {
            streams: FxHashMap::default(),
            rr: VecDeque::new(),
            control: VecDeque::new(),
            initial_credit,
            bytes_sent: 0,
        }
    }

    /// Registers a stream (idempotent).
    pub fn open_stream(&mut self, sid: StreamId) {
        self.streams.entry(sid).or_insert(SendState {
            credit: self.initial_credit,
            queue: VecDeque::new(),
        });
    }

    /// Removes a stream, dropping any queued frames. Returns the number of
    /// frames dropped.
    pub fn close_stream(&mut self, sid: StreamId) -> usize {
        self.rr.retain(|&s| s != sid);
        self.streams.remove(&sid).map_or(0, |s| s.queue.len())
    }

    /// Number of frames queued for a stream.
    pub fn queued(&self, sid: StreamId) -> usize {
        self.streams.get(&sid).map_or(0, |s| s.queue.len())
    }

    /// Remaining credit for a stream.
    pub fn credit(&self, sid: StreamId) -> u64 {
        self.streams.get(&sid).map_or(0, |s| s.credit)
    }

    /// Total bytes of data frames released so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Enqueues a frame.
    ///
    /// Data frames are queued per stream; control frames are released
    /// immediately on the next poll. Unknown streams are opened implicitly.
    pub fn enqueue(&mut self, frame: Frame) {
        match &frame {
            Frame::Response { sid, .. } => {
                let sid = *sid;
                self.open_stream(sid);
                let state = self.streams.get_mut(&sid).expect("just opened");
                state.queue.push_back(frame);
                if !self.rr.contains(&sid) {
                    self.rr.push_back(sid);
                }
            }
            _ => self.control.push_back(frame),
        }
    }

    /// Applies a credit grant from the peer.
    pub fn on_credit(&mut self, sid: StreamId, bytes: u64) {
        self.open_stream(sid);
        let state = self.streams.get_mut(&sid).expect("just opened");
        state.credit = state.credit.saturating_add(bytes);
        if !state.queue.is_empty() && !self.rr.contains(&sid) {
            self.rr.push_back(sid);
        }
    }

    /// Releases every frame currently allowed to be sent, fair round-robin
    /// across streams; data frames consume credit.
    pub fn poll_sendable(&mut self) -> Vec<Frame> {
        let mut out: Vec<Frame> = self.control.drain(..).collect();
        // Each iteration either sends a frame (queues are finite) or parks
        // the stream (strictly shrinking `rr`), so this terminates.
        let mut parked: VecDeque<StreamId> = VecDeque::new();
        while let Some(sid) = self.rr.pop_front() {
            let state = self.streams.get_mut(&sid).expect("rr entries are live");
            let Some(front) = state.queue.front() else {
                continue;
            };
            let size = front.wire_size() as u64;
            if size <= state.credit {
                state.credit -= size;
                self.bytes_sent += size;
                out.push(state.queue.pop_front().expect("front exists"));
                if !state.queue.is_empty() {
                    self.rr.push_back(sid);
                }
            } else {
                // Blocked on credit: park until the next grant or poll.
                parked.push_back(sid);
            }
        }
        self.rr = parked;
        out
    }
}

/// The receiving half: accounts consumed bytes and emits credit grants.
///
/// Grants follow a half-window policy: once the unreplenished consumption
/// for a stream exceeds half the window, a credit frame for the consumed
/// amount is emitted.
pub struct CreditManager {
    window: u64,
    consumed: FxHashMap<StreamId, u64>,
}

impl CreditManager {
    /// Creates a manager with the given per-stream window in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        CreditManager {
            window,
            consumed: FxHashMap::default(),
        }
    }

    /// Records receipt of a data frame; returns a credit grant to send back
    /// if the half-window threshold was crossed.
    pub fn on_received(&mut self, sid: StreamId, frame: &Frame) -> Option<Frame> {
        let bytes = frame.wire_size() as u64;
        let entry = self.consumed.entry(sid).or_insert(0);
        *entry += bytes;
        if *entry >= self.window / 2 {
            let grant = *entry;
            *entry = 0;
            Some(Frame::Credit { sid, bytes: grant })
        } else {
            None
        }
    }

    /// Unreplenished consumption for a stream.
    pub fn pending(&self, sid: StreamId) -> u64 {
        self.consumed.get(&sid).copied().unwrap_or(0)
    }

    /// Forgets a closed stream.
    pub fn close_stream(&mut self, sid: StreamId) {
        self.consumed.remove(&sid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Delta;
    use proptest::prelude::*;

    fn data(sid: u64, len: usize) -> Frame {
        Frame::Response {
            sid: StreamId(sid),
            batch: vec![Delta::update(0, vec![0; len])],
        }
    }

    #[test]
    fn control_frames_bypass_credit() {
        let mut m = MuxSender::new(0);
        m.enqueue(Frame::Ping { token: 1 });
        m.enqueue(Frame::Cancel { sid: StreamId(1) });
        assert_eq!(m.poll_sendable().len(), 2);
    }

    #[test]
    fn data_blocked_without_credit() {
        let mut m = MuxSender::new(10);
        m.enqueue(data(1, 100)); // wire size > 10
        assert!(m.poll_sendable().is_empty());
        m.on_credit(StreamId(1), 1_000);
        assert_eq!(m.poll_sendable().len(), 1);
    }

    #[test]
    fn credit_is_consumed() {
        let mut m = MuxSender::new(1_000);
        m.enqueue(data(1, 100));
        let before = m.credit(StreamId(1));
        let sent = m.poll_sendable();
        assert_eq!(sent.len(), 1);
        let after = m.credit(StreamId(1));
        assert_eq!(before - after, sent[0].wire_size() as u64);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut m = MuxSender::new(1_000_000);
        for _ in 0..3 {
            m.enqueue(data(1, 10));
            m.enqueue(data(2, 10));
        }
        let sent = m.poll_sendable();
        let order: Vec<u64> = sent
            .iter()
            .map(|f| f.sid().expect("data frames have sids").0)
            .collect();
        assert_eq!(order, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn one_blocked_stream_does_not_starve_others() {
        let mut m = MuxSender::new(50);
        m.enqueue(data(1, 1_000)); // too big for its credit
        m.enqueue(data(2, 10)); // fits
        let sent = m.poll_sendable();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].sid(), Some(StreamId(2)));
        assert_eq!(m.queued(StreamId(1)), 1);
    }

    #[test]
    fn close_stream_drops_queue() {
        let mut m = MuxSender::new(0);
        m.enqueue(data(1, 10));
        m.enqueue(data(1, 10));
        assert_eq!(m.close_stream(StreamId(1)), 2);
        assert!(m.poll_sendable().is_empty());
    }

    #[test]
    fn credit_manager_grants_at_half_window() {
        let mut cm = CreditManager::new(100);
        let small = data(1, 10); // wire ~38 bytes
        assert!(cm.on_received(StreamId(1), &small).is_none());
        let grant = cm.on_received(StreamId(1), &small);
        match grant {
            Some(Frame::Credit { sid, bytes }) => {
                assert_eq!(sid, StreamId(1));
                assert!(bytes >= 50);
                assert_eq!(cm.pending(StreamId(1)), 0);
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_credit_loop() {
        // Sender with small initial credit; receiver tops it up; all frames
        // eventually flow.
        let mut sender = MuxSender::new(100);
        let mut receiver = CreditManager::new(100);
        for _ in 0..20 {
            sender.enqueue(data(1, 30));
        }
        let mut received = 0;
        for _ in 0..100 {
            let frames = sender.poll_sendable();
            if frames.is_empty() && sender.queued(StreamId(1)) == 0 {
                break;
            }
            for f in frames {
                if let Some(Frame::Credit { sid, bytes }) = receiver.on_received(StreamId(1), &f) {
                    sender.on_credit(sid, bytes);
                }
                received += 1;
            }
        }
        assert_eq!(received, 20, "all frames delivered via credit loop");
    }

    proptest! {
        /// Bytes sent never exceed initial credit plus grants, per run.
        #[test]
        fn credit_conservation(
            frames in proptest::collection::vec((1u64..4, 1usize..200), 1..30),
            grants in proptest::collection::vec((1u64..4, 1u64..500), 0..30),
        ) {
            let initial = 256u64;
            let mut m = MuxSender::new(initial);
            let mut streams = std::collections::HashSet::new();
            for &(sid, len) in &frames {
                streams.insert(sid);
                m.enqueue(data(sid, len));
            }
            let mut granted: u64 = 0;
            for &(sid, bytes) in &grants {
                streams.insert(sid);
                m.on_credit(StreamId(sid), bytes);
                granted += bytes;
            }
            let mut sent_bytes = 0u64;
            for _ in 0..10 {
                for f in m.poll_sendable() {
                    sent_bytes += f.wire_size() as u64;
                }
            }
            let budget = initial * streams.len() as u64 + granted;
            prop_assert!(sent_bytes <= budget, "sent {sent_bytes} > budget {budget}");
        }

        /// poll_sendable always terminates and preserves frame counts.
        #[test]
        fn no_frame_loss_or_duplication(
            frames in proptest::collection::vec((1u64..5, 1usize..50), 0..40),
        ) {
            let mut m = MuxSender::new(1_000_000);
            for &(sid, len) in &frames {
                m.enqueue(data(sid, len));
            }
            let sent = m.poll_sendable();
            prop_assert_eq!(sent.len(), frames.len());
        }
    }
}
