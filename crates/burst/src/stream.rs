//! Per-stream state machines for the three BURST roles.
//!
//! * [`ClientStream`] — device side: holds the current (possibly rewritten)
//!   subscription header, enforces in-order delivery, detects sequence gaps,
//!   and produces the resubscribe request used after failures.
//! * [`ServerStream`] — BRASS side: assigns sequence numbers, tracks acks,
//!   and retains unacknowledged updates for apps that implement
//!   reliability. It holds no header: BRASS edits the device's by rewrite.
//! * [`ProxyStreamTable`] — POP / reverse-proxy side: keeps "a copy of the
//!   current header and body of each stream passing through" so it can
//!   resubscribe clients after an upstream failure (§3.5, §4), and applies
//!   rewrite deltas to that copy in flight. A stream's state goes when the
//!   stream is cancelled or terminated, or its device connection closes;
//!   there is no sweep for streams that ended unseen.

use simkit::fxhash::FxHashMap;
use simkit::snap::{ensure, restore_sorted, Snap, SnapReader, SnapResult, SnapWriter};
use simkit::{snap_enum, snap_struct};

use crate::frame::{Delta, FlowStatus, Frame, Payload, StreamId, TerminateReason};
use crate::json::{Json, PackedJson};

/// Lifecycle of a stream, as seen by the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamState {
    /// Subscribe sent, no response yet.
    Subscribing,
    /// Receiving updates.
    Active,
    /// A failure was signalled; updates may have been dropped.
    Degraded,
    /// Terminated (by either side).
    Terminated(TerminateReason),
}

/// What the client application should do in response to a batch.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientAction {
    /// Deliver this payload to the application.
    Deliver(Payload),
    /// A sequence gap was observed: updates in `[expected, got)` were lost
    /// or overtaken. The stream keeps the range open, so any of them that
    /// arrives late is still delivered.
    ///
    /// Best-effort applications ignore this; reliable ones (Messenger)
    /// trigger a backfill poll.
    GapDetected {
        /// First missing sequence number.
        expected: u64,
        /// Sequence number that actually arrived.
        got: u64,
    },
    /// A late update below an open gap the stream no longer tracks (the
    /// list of open gaps is bounded): it may have been delivered already,
    /// so it is not delivered again, and the caller accounts for it.
    Expired(Payload),
    /// The path degraded; the UI may show a connectivity indicator.
    NotifyDegraded,
    /// The path recovered.
    NotifyRecovered,
    /// The server rewrote the stored subscription header.
    HeaderRewritten,
    /// The stream was terminated.
    Terminated(TerminateReason),
}

/// Device-side state machine for one request-stream.
///
/// The header is held in its packed text form ([`PackedJson`]): a device
/// keeps this state for the whole life of the subscription, so its resident
/// size dominates memory at fleet scale. Progress deltas are spliced into
/// the text as they arrive (digits written directly, no tree): a device's
/// streams are thawed just before a frame and frozen right after it, so the
/// text is warm and must be current. The header is only *unpacked* on rare
/// events (resubscribes).
#[derive(Clone, Debug, PartialEq)]
pub struct ClientStream {
    sid: StreamId,
    header: PackedJson,
    body: Box<[u8]>,
    state: StreamState,
    next_seq: u64,
    delivered: u64,
    gaps: u64,
    resubscribes: u64,
    resyncs: u64,
    /// Skipped sequences that may still arrive; boxed so a stream with
    /// none pays one null pointer.
    open: Option<Box<OpenGaps>>,
}

/// The sequences below a stream's `next_seq` it skipped and has not seen
/// since: an update overtaken in transit arrives after a later one and is
/// still delivered.
#[derive(Clone, Debug, PartialEq)]
struct OpenGaps {
    /// Disjoint `[lo, hi)` ranges, ascending, all below `next_seq`.
    ranges: Vec<(u64, u64)>,
    /// Sequences in ranges forgotten to keep `ranges` bounded.
    evicted: u64,
    /// Every forgotten sequence lies below this.
    evicted_below: u64,
}

/// Open gap ranges a stream tracks; beyond this the oldest is forgotten.
pub const MAX_OPEN_GAPS: usize = 8;

impl OpenGaps {
    /// Opens `[lo, hi)` above every open range.
    fn open(&mut self, lo: u64, hi: u64) {
        self.ranges.push((lo, hi));
        self.forget_overflow();
    }

    /// Forgets the oldest range while more than [`MAX_OPEN_GAPS`] are open.
    fn forget_overflow(&mut self) {
        while self.ranges.len() > MAX_OPEN_GAPS {
            let (lo, hi) = self.ranges.remove(0);
            self.evicted += hi - lo;
            self.evicted_below = hi;
        }
    }

    /// Closes `seq` if it is open; whether it was.
    fn close(&mut self, seq: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, hi)| hi <= seq);
        let Some(&(lo, hi)) = self.ranges.get(i).filter(|&&(lo, _)| lo <= seq) else {
            return false;
        };
        match (lo == seq, seq + 1 == hi) {
            (true, true) => {
                self.ranges.remove(i);
            }
            (true, false) => self.ranges[i].0 = seq + 1,
            (false, true) => self.ranges[i].1 = seq,
            (false, false) => {
                self.ranges[i].1 = seq;
                self.ranges.insert(i + 1, (seq + 1, hi));
                self.forget_overflow();
            }
        }
        true
    }

    /// Sequences still open.
    fn open_count(&self) -> u64 {
        self.ranges.iter().map(|(lo, hi)| hi - lo).sum()
    }
}

impl ClientStream {
    /// Creates a stream in the pre-subscribe state.
    pub fn new(sid: StreamId, header: Json, body: Vec<u8>) -> Self {
        ClientStream {
            sid,
            header: PackedJson::pack(&header),
            body: body.into_boxed_slice(),
            state: StreamState::Subscribing,
            next_seq: 0,
            delivered: 0,
            gaps: 0,
            resubscribes: 0,
            resyncs: 0,
            open: None,
        }
    }

    /// This stream's id.
    pub fn sid(&self) -> StreamId {
        self.sid
    }

    /// Current state.
    pub fn state(&self) -> StreamState {
        self.state
    }

    /// The current header (including any server rewrites), unpacked from
    /// its resident text form.
    pub fn header(&self) -> Json {
        self.header.unpack()
    }

    /// Updates delivered to the application so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Sequence gaps observed so far.
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// The sequence number after the highest one this stream accepted. On
    /// a stream that never resynced (no resubscribe, no flow recovery),
    /// every sequence in `0..expected_seq()` was delivered exactly once,
    /// is still open, or was forgotten from a full gap list, so
    /// `delivered() + open_gap_seqs() + evicted_gap_seqs() ==
    /// expected_seq()` — the double-entry invariant the fuzz
    /// delivery-order oracle audits.
    pub fn expected_seq(&self) -> u64 {
        self.next_seq
    }

    /// Skipped sequences below `expected_seq` that may still arrive.
    pub fn open_gap_seqs(&self) -> u64 {
        self.open.as_ref().map_or(0, |g| g.open_count())
    }

    /// Skipped sequences the stream stopped waiting for because its list
    /// of open gaps was full (see [`MAX_OPEN_GAPS`]).
    pub fn evicted_gap_seqs(&self) -> u64 {
        self.open.as_ref().map_or(0, |g| g.evicted)
    }

    /// Times this stream has resubscribed after a failure.
    pub fn resubscribes(&self) -> u64 {
        self.resubscribes
    }

    /// Times an intermediary-signalled recovery resynced this stream's
    /// sequence expectations (the [`FlowStatus::Recovered`] path). Like
    /// [`ClientStream::resubscribes`], a nonzero count means
    /// `expected_seq` restarted mid-life, so the double-entry invariant
    /// no longer binds.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The initial subscribe request.
    pub fn subscribe_request(&self) -> Frame {
        Frame::Subscribe {
            sid: self.sid,
            header: self.header.unpack(),
            body: self.body.to_vec(),
        }
    }

    /// Builds a resubscribe request after a failure, using the *current*
    /// (possibly rewritten) header — this is what makes sticky routing and
    /// resumption work with zero client-side logic.
    ///
    /// Each subscribe instantiates a fresh response sequence: expectations
    /// reset to zero unless the (rewritten) header carries `last_seq`, in
    /// which case numbering resumes after it, mirroring
    /// [`ServerStream::accept`].
    pub fn resubscribe_request(&mut self) -> Frame {
        self.state = StreamState::Subscribing;
        self.resubscribes += 1;
        self.next_seq = resume_seq(self.header.get_u64("last_seq"));
        self.open = None;
        Frame::Subscribe {
            sid: self.sid,
            header: self.header.unpack(),
            body: self.body.to_vec(),
        }
    }

    /// Acknowledges everything received so far (for reliable applications).
    pub fn ack_request(&self) -> Frame {
        Frame::Ack {
            sid: self.sid,
            seq: self.next_seq.saturating_sub(1),
        }
    }

    /// Signals that the underlying connection dropped (e.g. POP failure
    /// detected locally). The stream becomes degraded until resubscribed.
    pub fn on_connection_lost(&mut self) {
        if !matches!(self.state, StreamState::Terminated(_)) {
            self.state = StreamState::Degraded;
        }
    }

    /// Processes one atomically-applied response batch, handing each
    /// resulting action to `act` in order.
    ///
    /// A batch whose updates all lie below `next_seq` is late: it was
    /// overtaken in transit or is a replay. Its updates fill open gaps, and
    /// its header rewrites are skipped when the header already holds the
    /// progress of a batch at least as new.
    pub fn on_batch_with(&mut self, batch: &[Delta], mut act: impl FnMut(ClientAction)) {
        if matches!(self.state, StreamState::Terminated(_)) {
            return;
        }
        if self.state == StreamState::Subscribing {
            self.state = StreamState::Active;
        }
        // Whether an update moved `next_seq`, and the newest one that
        // arrived below it.
        let (mut advanced, mut late) = (false, None);
        for delta in batch {
            match delta {
                Delta::Update { seq, payload } if *seq < self.next_seq => {
                    late = late.max(Some(*seq));
                    let Some(open) = self.open.as_deref_mut() else {
                        continue; // Duplicate (e.g. replayed): drop.
                    };
                    if open.close(*seq) {
                        if open.ranges.is_empty() && open.evicted == 0 {
                            self.open = None;
                        }
                        self.delivered += 1;
                        act(ClientAction::Deliver(payload.clone()));
                    } else if *seq < open.evicted_below {
                        act(ClientAction::Expired(payload.clone()));
                    }
                }
                Delta::Update { seq, payload } => {
                    advanced = true;
                    if *seq > self.next_seq {
                        self.gaps += 1;
                        act(ClientAction::GapDetected {
                            expected: self.next_seq,
                            got: *seq,
                        });
                        let open = self.open.get_or_insert_with(|| {
                            Box::new(OpenGaps {
                                ranges: Vec::new(),
                                evicted: 0,
                                evicted_below: 0,
                            })
                        });
                        open.open(self.next_seq, *seq);
                    }
                    self.next_seq = *seq + 1;
                    self.delivered += 1;
                    act(ClientAction::Deliver(payload.clone()));
                }
                Delta::FlowStatus(FlowStatus::Degraded) => {
                    self.state = StreamState::Degraded;
                    act(ClientAction::NotifyDegraded);
                }
                Delta::FlowStatus(FlowStatus::Recovered) => {
                    self.state = StreamState::Active;
                    // A recovery signalled by an intermediary means the
                    // stream was re-established as a new incarnation: the
                    // device "decides how to recover from the fact that it
                    // may have missed some updates" (§4) — sequence
                    // expectations resync (resuming after `last_seq` when
                    // the header carries it).
                    self.resyncs += 1;
                    self.next_seq = resume_seq(self.header.get_u64("last_seq"));
                    self.open = None;
                    act(ClientAction::NotifyRecovered);
                }
                Delta::RewriteRequest { .. } | Delta::Progress { .. }
                    if !advanced && late.is_some_and(|l| self.header_is_past(l)) => {}
                Delta::RewriteRequest { .. } | Delta::Progress { .. } => {
                    record_rewrite(&mut self.header, delta);
                    self.header.fold();
                    act(ClientAction::HeaderRewritten);
                }
                Delta::Terminate(reason) => {
                    self.state = StreamState::Terminated(*reason);
                    act(ClientAction::Terminated(*reason));
                    break;
                }
            }
        }
    }

    /// Whether the header holds the progress of a batch that carried `seq`
    /// or a later update.
    fn header_is_past(&self, seq: u64) -> bool {
        self.header
            .get_u64("last_seq")
            .is_some_and(|last| last >= seq)
    }

    /// A stream holding nothing, for [`ClientStream::restore_into`] to
    /// fill.
    pub fn blank() -> ClientStream {
        ClientStream {
            sid: StreamId(0),
            header: PackedJson::blank(),
            body: Box::default(),
            state: StreamState::Subscribing,
            next_seq: 0,
            delivered: 0,
            gaps: 0,
            resubscribes: 0,
            resyncs: 0,
            open: None,
        }
    }

    /// Writes this stream's complete state, id and state first (see
    /// [`ClientStream::peek`]): the device-hibernation and snapshot form,
    /// which [`ClientStream::restore_into`] reads back bit-identical.
    pub fn snap(&self, w: &mut SnapWriter) {
        (self.sid, self.state).snap(w);
        self.next_seq.snap(w);
        self.delivered.snap(w);
        self.gaps.snap(w);
        self.resubscribes.snap(w);
        self.resyncs.snap(w);
        self.open.snap(w);
        self.header.snap(w);
        self.body.snap(w);
    }

    /// Reads a stream [`ClientStream::snap`] wrote over this one, whose
    /// header and body buffers are overwritten in place when the lengths
    /// match. Bounds and tags are checked; a stream from outside the
    /// process must pass [`ClientStream::check`] too.
    pub fn restore_into(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        (self.sid, self.state) = Snap::restore(r)?;
        self.next_seq = r.get_u64()?;
        self.delivered = r.get_u64()?;
        self.gaps = r.get_u64()?;
        self.resubscribes = r.get_u64()?;
        self.resyncs = r.get_u64()?;
        self.open = Snap::restore(r)?;
        self.header.reload(r.get_slice()?);
        let body = r.get_slice()?;
        if self.body.len() == body.len() {
            self.body.copy_from_slice(body);
        } else {
            self.body = body.into();
        }
        Ok(())
    }

    /// Reads the id and state of a stream [`ClientStream::snap`] wrote and
    /// steps past the rest: no header unpack, no allocation. Lets holders
    /// of written streams answer "which streams are open" without reading
    /// them back.
    pub fn peek(r: &mut SnapReader<'_>) -> SnapResult<(StreamId, StreamState)> {
        let head = Snap::restore(r)?;
        <[u64; 5]>::restore(r)?; // next_seq, delivered, gaps, resubscribes, resyncs
        if r.get_bool()? {
            // Open gaps: the eviction count and bound, then each range.
            <[u64; 2]>::restore(r)?;
            for _ in 0..r.get_len()? {
                <[u64; 2]>::restore(r)?;
            }
        }
        r.get_slice()?; // header
        r.get_slice()?; // body
        Ok(head)
    }

    /// Checks what [`ClientStream::restore_into`] leaves to its caller for
    /// a stream from outside the process (a snapshot being loaded): open
    /// gaps below `next_seq`, and a header in the canonical JSON encoding,
    /// the only text a [`PackedJson`] holds.
    pub fn check(&self) -> Result<(), String> {
        let gaps_top = self.open.as_ref().map_or(0, |g| {
            g.ranges.last().map_or(g.evicted_below, |&(_, hi)| hi)
        });
        ensure(gaps_top <= self.next_seq, "open gaps reach past next_seq")?;
        let text = self.header.to_bytes();
        let parsed = std::str::from_utf8(&text)
            .ok()
            .and_then(|t| Json::parse(t).ok());
        let canonical = parsed.is_some_and(|j| PackedJson::pack(&j) == self.header);
        ensure(canonical, "stream header is not canonical JSON")
    }
}

snap_enum!(StreamState {
    0 => Subscribing,
    1 => Active,
    2 => Degraded,
    3 => Terminated(reason),
});

// Open gaps as `open` and `close` leave them: at most `MAX_OPEN_GAPS`
// non-empty ranges, ascending and disjoint above the eviction bound; an
// eviction count exactly when there is a bound; never nothing at all.
snap_struct!(
    OpenGaps {
        evicted,
        evicted_below,
        ranges
    },
    |g| {
        ensure(g.ranges.len() <= MAX_OPEN_GAPS, "too many open ranges")?;
        let mut floor = g.evicted_below;
        let ascending = g.ranges.iter().all(|&(lo, hi)| {
            let above = floor <= lo && lo < hi;
            floor = hi;
            above
        });
        ensure(ascending, "open ranges not ascending")?;
        let evictions = (g.evicted == 0) == (g.evicted_below == 0) && g.evicted <= g.evicted_below;
        ensure(evictions, "eviction count disagrees with its bound")?;
        let some = g.evicted != 0 || !g.ranges.is_empty();
        ensure(some, "open gaps holding nothing")
    }
);

/// Where sequence numbering resumes for a header: after the `last_seq` it
/// carries, or at 0 when it carries none. Headers arrive from devices, so a
/// `last_seq` with no successor restarts at 0 rather than overflowing.
fn resume_seq(last_seq: Option<u64>) -> u64 {
    last_seq.and_then(|last| last.checked_add(1)).unwrap_or(0)
}

/// Records a rewrite delta in a held copy of the header: progress as a
/// pending number ([`PackedJson::set_last_seq`]), a patch by merging. Other
/// deltas leave the header alone.
fn record_rewrite(header: &mut PackedJson, delta: &Delta) {
    match delta {
        Delta::Progress { last_seq } => header.set_last_seq(*last_seq),
        Delta::RewriteRequest { patch } => header.merge(patch),
        _ => {}
    }
}

/// BRASS-side state for one request-stream: sequence numbering and, for
/// apps that implement reliability, the updates sent but not yet acked.
///
/// BRASS keeps no copy of the header. The header is resumption state the
/// device and the proxies carry (§3.5): BRASS reads `last_seq` from it once,
/// at [`ServerStream::accept`], and after that only edits it by sending
/// rewrites down the stream.
#[derive(Clone, Debug)]
pub struct ServerStream {
    sid: StreamId,
    next_seq: u64,
    /// Updates sent but not yet acknowledged, retained for apps that need
    /// replay after reconnect. Best-effort apps leave `retain` off.
    unacked: Vec<(u64, Payload)>,
    retain: bool,
}

impl ServerStream {
    /// Creates server-side state from an accepted subscribe request.
    ///
    /// If the header carries a `"last_seq"` field (installed by a previous
    /// incarnation via rewrite), sequence numbering resumes after it.
    pub fn accept(sid: StreamId, header: &Json, retain: bool) -> Self {
        ServerStream {
            sid,
            next_seq: resume_seq(header.get("last_seq").and_then(Json::as_u64)),
            unacked: Vec::new(),
            retain,
        }
    }

    /// This stream's id.
    pub fn sid(&self) -> StreamId {
        self.sid
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Builds an update delta, assigning the next sequence number. The
    /// payload is shared (not copied) with the retention buffer.
    pub fn push(&mut self, payload: impl Into<Payload>) -> Delta {
        let payload = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.retain {
            self.unacked.push((seq, Payload::clone(&payload)));
        }
        Delta::Update { seq, payload }
    }

    /// The progress delta recording the last sequence number sent, so a
    /// resubscribe resumes instead of replaying from zero ("Resumption",
    /// §3.5).
    pub fn rewrite_progress(&self) -> Delta {
        Delta::progress(self.next_seq.saturating_sub(1))
    }

    /// Handles a client ack: retained updates up to `seq` are released.
    pub fn on_ack(&mut self, seq: u64) {
        self.unacked.retain(|(s, _)| *s > seq);
    }

    /// Retained (sent but unacknowledged) updates, oldest first.
    pub fn unacked(&self) -> &[(u64, Payload)] {
        &self.unacked
    }

    /// Replays retained updates as deltas (after a reconnect).
    pub fn replay_unacked(&self) -> Vec<Delta> {
        self.unacked
            .iter()
            .map(|(seq, payload)| Delta::Update {
                seq: *seq,
                payload: Payload::clone(payload),
            })
            .collect()
    }
}

// Rejects snapshots that violate the retention invariants: unacked seqs
// strictly ascending and below `next_seq`, none on a `!retain` stream.
snap_struct!(
    ServerStream {
        sid,
        next_seq,
        unacked,
        retain
    },
    |s| {
        ensure(
            s.unacked.windows(2).all(|p| p[0].0 < p[1].0)
                && s.unacked.last().is_none_or(|(seq, _)| *seq < s.next_seq),
            "unacked seqs must ascend strictly below next_seq",
        )?;
        ensure(
            s.retain || s.unacked.is_empty(),
            "unacked entries on !retain stream",
        )
    }
);

/// One proxy's stored state for a stream passing through it.
#[derive(Clone, Debug)]
pub struct ProxyEntry {
    /// The subscription header, kept current through rewrites, in packed
    /// text form — proxies hold one entry per resident stream, so this is
    /// a fleet-scale resident cost.
    pub header: PackedJson,
    /// The opaque subscribe body.
    pub body: Box<[u8]>,
    /// The upstream (BRASS-side) hop this stream is routed to.
    pub upstream: Option<u64>,
}

snap_struct!(ProxyEntry {
    header,
    body,
    upstream
});

/// A proxy table row: a stream and its stored state.
type Row = (StreamId, ProxyEntry);

/// Where `sid` sits (or would sit) among one connection's rows.
fn find(rows: &[Row], sid: StreamId) -> Result<usize, usize> {
    rows.binary_search_by_key(&sid, |(s, _)| *s)
}

/// Edits one connection's rows through a `Vec` and boxes them again at
/// their exact length: most connections carry a stream or two, so slack
/// capacity would cost more than the reallocation.
fn edit_rows(rows: &mut Box<[Row]>, edit: impl FnOnce(&mut Vec<Row>)) {
    let mut v = Vec::from(std::mem::take(rows));
    edit(&mut v);
    *rows = v.into_boxed_slice();
}

/// Proxy-side table of stream state, keyed by `(connection, sid)` scoped to
/// one proxy, and grouped by connection.
///
/// Stream ids are client-generated, so they are only unique per client
/// connection; callers key entries by a `conn` discriminator. Each
/// connection's streams sit together, ascending by sid, so what touches
/// one stream or one connection — a frame, a cancel, a closed connection,
/// the list of a connection's streams — costs one hashed lookup plus that
/// connection's few streams. Only [`streams_via`](Self::streams_via),
/// [`orphans`](Self::orphans) and the snapshot walk the whole table.
#[derive(Default)]
pub struct ProxyStreamTable {
    /// Connection → its rows, ascending by sid, never empty.
    conns: FxHashMap<u64, Box<[Row]>>,
    /// Streams across all connections.
    len: usize,
}

impl ProxyStreamTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ProxyStreamTable::default()
    }

    /// Number of streams tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no streams are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn entry_mut(&mut self, conn: u64, sid: StreamId) -> Option<&mut ProxyEntry> {
        let rows = self.conns.get_mut(&conn)?;
        let i = find(rows, sid).ok()?;
        Some(&mut rows[i].1)
    }

    /// Records a subscribe passing through.
    pub fn on_subscribe(
        &mut self,
        conn: u64,
        sid: StreamId,
        header: Json,
        body: Vec<u8>,
        upstream: Option<u64>,
    ) {
        let entry = ProxyEntry {
            header: PackedJson::pack(&header),
            body: body.into_boxed_slice(),
            upstream,
        };
        self.insert(conn, (sid, entry));
    }

    /// Adds a row, or replaces the one with its key.
    fn insert(&mut self, conn: u64, row: Row) {
        let rows = self.conns.entry(conn).or_default();
        match find(rows, row.0) {
            Ok(i) => rows[i] = row,
            Err(i) => {
                edit_rows(rows, |v| {
                    v.reserve_exact(1);
                    v.insert(i, row);
                });
                self.len += 1;
            }
        }
    }

    /// Observes a response batch passing through: applies rewrites to the
    /// stored header (progress as a pending number, so the per-delivery
    /// step never touches the header text), and drops state on
    /// termination.
    pub fn on_response(&mut self, conn: u64, sid: StreamId, batch: &[Delta]) {
        let Some(entry) = self.entry_mut(conn, sid) else {
            return;
        };
        let mut remove = false;
        for delta in batch {
            match delta {
                Delta::Terminate(_) => remove = true,
                _ => record_rewrite(&mut entry.header, delta),
            }
        }
        if remove {
            self.on_cancel(conn, sid);
        }
    }

    /// Observes a client cancel: stream state is garbage-collected.
    pub fn on_cancel(&mut self, conn: u64, sid: StreamId) {
        let Some(rows) = self.conns.get_mut(&conn) else {
            return;
        };
        let Ok(i) = find(rows, sid) else {
            return;
        };
        self.len -= 1;
        if rows.len() == 1 {
            self.conns.remove(&conn);
        } else {
            edit_rows(rows, |v| drop(v.remove(i)));
        }
    }

    /// Drops all streams belonging to a client connection (the device
    /// disconnected; §3.5: proxies GC stream state "when the connection to
    /// the device fails") and returns how many there were.
    pub fn on_connection_closed(&mut self, conn: u64) -> usize {
        let dropped = self.conns.remove(&conn).map_or(0, |rows| rows.len());
        self.len -= dropped;
        dropped
    }

    /// One connection's streams, ascending by sid.
    pub fn streams_of(&self, conn: u64) -> impl Iterator<Item = (StreamId, &ProxyEntry)> {
        let rows = self.conns.get(&conn).map_or(&[][..], |rows| &rows[..]);
        rows.iter().map(|(sid, entry)| (*sid, entry))
    }

    /// Looks up a stream's stored entry.
    pub fn get(&self, conn: u64, sid: StreamId) -> Option<&ProxyEntry> {
        let rows = self.conns.get(&conn)?;
        let i = find(rows, sid).ok()?;
        Some(&rows[i].1)
    }

    /// Clears a stream's upstream assignment (it is now orphaned).
    pub fn clear_upstream(&mut self, conn: u64, sid: StreamId) {
        if let Some(e) = self.entry_mut(conn, sid) {
            e.upstream = None;
        }
    }

    /// Every stream whose entry passes `keep`, ascending by `(conn, sid)`.
    fn select(&self, keep: impl Fn(&ProxyEntry) -> bool) -> Vec<(u64, StreamId)> {
        let mut v: Vec<(u64, StreamId)> = self
            .conns
            .iter()
            .flat_map(|(&conn, rows)| rows.iter().map(move |row| (conn, row)))
            .filter(|(_, (_, e))| keep(e))
            .map(|(conn, (sid, _))| (conn, *sid))
            .collect();
        v.sort_unstable();
        v
    }

    /// Streams whose upstream hop is not in `live` — orphans left behind
    /// when repairs had nowhere to go, re-repaired once a hop returns.
    pub fn orphans(&self, live: &[u64]) -> Vec<(u64, StreamId)> {
        self.select(|e| e.upstream.is_none_or(|u| !live.contains(&u)))
    }

    /// Streams routed to a given upstream hop — the set the proxy must
    /// repair when that hop fails (axiom 2).
    pub fn streams_via(&self, upstream: u64) -> Vec<(u64, StreamId)> {
        self.select(|e| e.upstream == Some(upstream))
    }

    /// Re-routes a stream to a new upstream and returns the resubscribe
    /// frame built from the stored (last-rewritten) header.
    pub fn rebuild_subscribe(
        &mut self,
        conn: u64,
        sid: StreamId,
        new_upstream: u64,
    ) -> Option<Frame> {
        let entry = self.entry_mut(conn, sid)?;
        entry.upstream = Some(new_upstream);
        Some(Frame::Subscribe {
            sid,
            header: entry.header.unpack(),
            body: entry.body.to_vec(),
        })
    }
}

/// The flat map's bytes: the stream count, then `((conn, sid), entry)`
/// ascending by `(conn, sid)`.
impl Snap for ProxyStreamTable {
    fn snap(&self, w: &mut SnapWriter) {
        let mut conns: Vec<(&u64, &Box<[Row]>)> = self.conns.iter().collect();
        conns.sort_unstable_by_key(|(conn, _)| **conn);
        w.put_usize(self.len);
        for (conn, rows) in conns {
            for (sid, entry) in rows.iter() {
                (*conn, *sid).snap(w);
                entry.snap(w);
            }
        }
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let rows = restore_sorted(r, |a: &((u64, StreamId), ProxyEntry), b| a.0 < b.0)?;
        let mut table = ProxyStreamTable::new();
        for ((conn, sid), entry) in rows {
            table.insert(conn, (sid, entry));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::arb_last_seq;
    use proptest::prelude::*;
    use simkit::snap::{Snap, SnapError, SnapReader, SnapWriter};

    fn apply_batch(c: &mut ClientStream, batch: &[Delta]) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        c.on_batch_with(batch, |action| actions.push(action));
        actions
    }

    fn header() -> Json {
        Json::obj([("topic", Json::from("/LVC/1"))])
    }

    #[test]
    fn server_stream_snapshot_roundtrip() {
        let mut s = ServerStream::accept(StreamId(7), &header(), true);
        for i in 0..5u8 {
            s.push(vec![i; 3]);
        }
        s.on_ack(1);
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = ServerStream::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored.sid(), s.sid());
        assert_eq!(restored.next_seq(), s.next_seq());
        assert_eq!(restored.unacked().len(), s.unacked().len());
        for ((sa, pa), (sb, pb)) in restored.unacked().iter().zip(s.unacked()) {
            assert_eq!(sa, sb);
            assert_eq!(&pa[..], &pb[..]);
        }
        // The restored stream keeps numbering where the original left off.
        let Delta::Update { seq, .. } = restored.push(vec![9]) else {
            panic!("expected update");
        };
        assert_eq!(seq, s.next_seq());
        // Truncation at every byte fails closed.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(ServerStream::restore(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn proxy_table_snapshot_roundtrip() {
        let mut t = ProxyStreamTable::new();
        t.on_subscribe(2, StreamId(1), header(), vec![1, 2], Some(40));
        t.on_subscribe(1, StreamId(9), header(), vec![], None);
        t.on_subscribe(1, StreamId(3), header(), vec![7], Some(41));
        let mut w = SnapWriter::new();
        t.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = ProxyStreamTable::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored.len(), 3);
        for &(conn, sid) in &[(2, StreamId(1)), (1, StreamId(9)), (1, StreamId(3))] {
            let a = t.get(conn, sid).unwrap();
            let b = restored.get(conn, sid).unwrap();
            assert_eq!(a.header.to_bytes(), b.header.to_bytes());
            assert_eq!(a.body, b.body);
            assert_eq!(a.upstream, b.upstream);
        }
        // Re-snapping the restored table yields identical bytes (the
        // sorted-key encoding is canonical).
        let mut w2 = SnapWriter::new();
        restored.snap(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn client_in_order_delivery() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        assert_eq!(c.state(), StreamState::Subscribing);
        let a = apply_batch(
            &mut c,
            &[
                Delta::update(0, b"a".to_vec()),
                Delta::update(1, b"b".to_vec()),
            ],
        );
        assert_eq!(c.state(), StreamState::Active);
        assert_eq!(
            a,
            vec![
                ClientAction::Deliver(b"a".to_vec().into()),
                ClientAction::Deliver(b"b".to_vec().into())
            ]
        );
        assert_eq!(c.delivered(), 2);
    }

    #[test]
    fn client_detects_gap_and_drops_duplicates() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(&mut c, &[Delta::update(0, vec![])]);
        let a = apply_batch(
            &mut c,
            &[Delta::update(3, b"x".to_vec()), Delta::progress(3)],
        );
        assert_eq!(
            a[0],
            ClientAction::GapDetected {
                expected: 1,
                got: 3
            }
        );
        assert_eq!(a[1], ClientAction::Deliver(b"x".to_vec().into()));
        assert_eq!((c.gaps(), c.open_gap_seqs()), (1, 2));
        let held = c.header();
        // Seq 2 was overtaken in transit: it fills its gap. The batch's
        // rewrites are older than the header's progress and are skipped.
        let late = [
            Delta::update(2, b"late".to_vec()),
            Delta::RewriteRequest {
                patch: Json::obj([("msgr_seq", Json::from(2u64))]),
            },
            Delta::progress(2),
        ];
        let a = apply_batch(&mut c, &late);
        assert_eq!(a, vec![ClientAction::Deliver(b"late".to_vec().into())]);
        assert_eq!(c.header(), held, "a late batch rewrites nothing");
        // A replay of a delivered seq is still silently dropped.
        for seq in [0, 2, 3] {
            assert!(apply_batch(&mut c, &[Delta::update(seq, b"old".to_vec())]).is_empty());
        }
        assert_eq!(
            (c.delivered(), c.open_gap_seqs(), c.expected_seq()),
            (3, 1, 4)
        );
        // A batch that also advances is current: its rewrites apply.
        apply_batch(
            &mut c,
            &[
                Delta::update(1, vec![]),
                Delta::update(4, vec![]),
                Delta::progress(4),
            ],
        );
        assert_eq!((c.delivered(), c.open_gap_seqs()), (5, 0));
        assert_eq!(c.header().get("last_seq").and_then(Json::as_u64), Some(4));
        assert_eq!(c.open, None, "no gaps, no box");
        // An original overtaken by its own replay is late, but the header
        // lags it (replays carry no progress): its rewrites still apply.
        apply_batch(&mut c, &[Delta::update(5, vec![])]);
        let original = [Delta::update(5, vec![]), Delta::progress(5)];
        assert!(apply_batch(&mut c, &original).contains(&ClientAction::HeaderRewritten));
        assert_eq!(c.header().get("last_seq").and_then(Json::as_u64), Some(5));
    }

    /// Past [`MAX_OPEN_GAPS`] the oldest range is forgotten; a late update
    /// in it is handed back as expired, never silently dropped, and the
    /// double entry still balances.
    #[test]
    fn a_forgotten_gap_expires_its_late_updates() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        for k in 0..=MAX_OPEN_GAPS as u64 {
            apply_batch(&mut c, &[Delta::update(2 * k + 1, vec![])]);
        }
        let balance = |c: &ClientStream| c.delivered() + c.open_gap_seqs() + c.evicted_gap_seqs();
        assert_eq!(
            (c.evicted_gap_seqs(), c.open_gap_seqs()),
            (1, MAX_OPEN_GAPS as u64)
        );
        assert_eq!(balance(&c), c.expected_seq());
        let a = apply_batch(&mut c, &[Delta::update(0, b"lost".to_vec())]);
        assert_eq!(a, vec![ClientAction::Expired(b"lost".to_vec().into())]);
        let a = apply_batch(&mut c, &[Delta::update(2, b"kept".to_vec())]);
        assert_eq!(a, vec![ClientAction::Deliver(b"kept".to_vec().into())]);
        assert_eq!(balance(&c), c.expected_seq());
        // Written and read back, the gaps survive, and a peek steps over
        // them; a resubscribe clears them.
        let buf = stream_bytes(&c);
        let read = read_stream(&buf);
        assert_eq!((read.check(), &read), (Ok(()), &c));
        let mut peek = SnapReader::new(&buf);
        assert_eq!(ClientStream::peek(&mut peek), Ok((StreamId(1), c.state())));
        assert_eq!(peek.finish(), Ok(()));
        c.resubscribe_request();
        assert_eq!((c.open_gap_seqs(), c.evicted_gap_seqs()), (0, 0));
        let fresh = stream_bytes(&c);
        assert_eq!(buf.len() - fresh.len(), 24 + 16 * (MAX_OPEN_GAPS - 1));
    }

    #[test]
    fn recovery_clears_open_gaps() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(&mut c, &[Delta::update(2, vec![])]);
        assert_eq!(c.open_gap_seqs(), 2);
        apply_batch(&mut c, &[Delta::FlowStatus(FlowStatus::Recovered)]);
        assert_eq!((c.open_gap_seqs(), c.expected_seq()), (0, 0));
        assert_eq!(c.open, None);
    }

    #[test]
    fn client_flow_status_transitions() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        let a = apply_batch(&mut c, &[Delta::FlowStatus(FlowStatus::Degraded)]);
        assert_eq!(a, vec![ClientAction::NotifyDegraded]);
        assert_eq!(c.state(), StreamState::Degraded);
        let a = apply_batch(&mut c, &[Delta::FlowStatus(FlowStatus::Recovered)]);
        assert_eq!(a, vec![ClientAction::NotifyRecovered]);
        assert_eq!(c.state(), StreamState::Active);
    }

    #[test]
    fn recovery_resyncs_sequence_expectations() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(
            &mut c,
            &[Delta::update(0, vec![]), Delta::update(1, vec![])],
        );
        // A proxy repaired the stream onto a fresh BRASS incarnation.
        apply_batch(&mut c, &[Delta::FlowStatus(FlowStatus::Degraded)]);
        apply_batch(&mut c, &[Delta::FlowStatus(FlowStatus::Recovered)]);
        let a = apply_batch(&mut c, &[Delta::update(0, b"new-incarnation".to_vec())]);
        assert_eq!(
            a,
            vec![ClientAction::Deliver(b"new-incarnation".to_vec().into())]
        );
    }

    #[test]
    fn client_rewrite_updates_resubscribe() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![1, 2]);
        apply_batch(
            &mut c,
            &[Delta::RewriteRequest {
                patch: Json::obj([
                    ("brass", Json::from("b-9")),
                    ("last_seq", Json::from(41u64)),
                ]),
            }],
        );
        assert_eq!(c.header().get("brass").unwrap().as_str(), Some("b-9"));
        let f = c.resubscribe_request();
        match f {
            Frame::Subscribe { sid, header, body } => {
                assert_eq!(sid, StreamId(1));
                assert_eq!(header.get("brass").unwrap().as_str(), Some("b-9"));
                assert_eq!(header.get("last_seq").unwrap().as_u64(), Some(41));
                assert_eq!(header.get("topic").unwrap().as_str(), Some("/LVC/1"));
                assert_eq!(body, vec![1, 2]);
            }
            other => panic!("expected Subscribe, got {other:?}"),
        }
        assert_eq!(c.resubscribes(), 1);
        assert_eq!(c.state(), StreamState::Subscribing);
    }

    #[test]
    fn client_terminate_stops_processing() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        let a = apply_batch(
            &mut c,
            &[
                Delta::Terminate(TerminateReason::Redirect),
                Delta::update(0, b"never".to_vec()),
            ],
        );
        assert_eq!(a, vec![ClientAction::Terminated(TerminateReason::Redirect)]);
        assert_eq!(
            c.state(),
            StreamState::Terminated(TerminateReason::Redirect)
        );
        assert!(apply_batch(&mut c, &[Delta::update(0, vec![])]).is_empty());
    }

    #[test]
    fn resubscribe_resets_sequence_expectations() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(
            &mut c,
            &[Delta::update(0, vec![]), Delta::update(1, vec![])],
        );
        // Without resumption state, a fresh incarnation restarts at 0.
        c.resubscribe_request();
        let a = apply_batch(&mut c, &[Delta::update(0, b"fresh".to_vec())]);
        assert_eq!(a, vec![ClientAction::Deliver(b"fresh".to_vec().into())]);
        // With a last_seq rewrite, numbering resumes after it.
        apply_batch(
            &mut c,
            &[Delta::RewriteRequest {
                patch: Json::obj([("last_seq", Json::from(9u64))]),
            }],
        );
        c.resubscribe_request();
        let a = apply_batch(&mut c, &[Delta::update(10, b"resumed".to_vec())]);
        assert_eq!(a, vec![ClientAction::Deliver(b"resumed".to_vec().into())]);
        assert_eq!(c.gaps(), 0, "no false gap after resumption");
    }

    #[test]
    fn client_connection_lost_marks_degraded() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(&mut c, &[Delta::update(0, vec![])]);
        c.on_connection_lost();
        assert_eq!(c.state(), StreamState::Degraded);
    }

    #[test]
    fn client_ack_reports_progress() {
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(
            &mut c,
            &[Delta::update(0, vec![]), Delta::update(1, vec![])],
        );
        assert_eq!(
            c.ack_request(),
            Frame::Ack {
                sid: StreamId(1),
                seq: 1
            }
        );
    }

    #[test]
    fn server_assigns_sequence_numbers() {
        let mut s = ServerStream::accept(StreamId(1), &header(), false);
        assert_eq!(s.push(b"a".to_vec()), Delta::update(0, b"a".to_vec()));
        assert_eq!(s.push(b"b".to_vec()), Delta::update(1, b"b".to_vec()));
        assert!(s.unacked().is_empty(), "retention off by default");
    }

    #[test]
    fn server_resumes_from_header_seq() {
        let mut h = header();
        h.set("last_seq", Json::from(9u64));
        let mut s = ServerStream::accept(StreamId(1), &h, false);
        assert_eq!(s.next_seq(), 10);
        assert_eq!(s.push(vec![]), Delta::update(10, vec![]));
    }

    #[test]
    fn server_retention_and_acks() {
        let mut s = ServerStream::accept(StreamId(1), &header(), true);
        s.push(b"a".to_vec());
        s.push(b"b".to_vec());
        s.push(b"c".to_vec());
        assert_eq!(s.unacked().len(), 3);
        s.on_ack(1);
        assert_eq!(s.unacked().len(), 1);
        assert_eq!(s.unacked()[0].0, 2);
        let replay = s.replay_unacked();
        assert_eq!(replay, vec![Delta::update(2, b"c".to_vec())]);
        // Stale (smaller) ack cannot regress.
        s.on_ack(0);
        assert_eq!(s.unacked().len(), 1);
    }

    /// A payload's trace tag is kept in the retention buffer and comes
    /// back on every replayed update.
    #[test]
    fn retention_and_replay_keep_the_trace_tag() {
        use simkit::trace::TraceId;
        let mut s = ServerStream::accept(StreamId(1), &header(), true);
        let sent = s.push(Payload::from(b"a".to_vec()).traced(TraceId(41)));
        s.push(Payload::from(b"b".to_vec()).traced(TraceId(42)));
        assert!(
            matches!(&sent, Delta::Update { payload, .. } if payload.trace() == Some(TraceId(41)))
        );
        let retained: Vec<_> = s.unacked().iter().map(|(_, p)| p.trace()).collect();
        assert_eq!(retained, [Some(TraceId(41)), Some(TraceId(42))]);
        s.on_ack(0);
        let replay = s.replay_unacked();
        let tagged = Payload::from(b"b".to_vec()).traced(TraceId(42));
        assert_eq!(replay, vec![Delta::update(1, tagged)]);
    }

    #[test]
    fn server_rewrite_progress_installs_last_seq() {
        let mut s = ServerStream::accept(StreamId(1), &header(), false);
        s.push(vec![]);
        s.push(vec![]);
        let progress = s.rewrite_progress();
        assert_eq!(progress, Delta::Progress { last_seq: 1 });
        // The device's header carries it to the next incarnation.
        let mut c = ClientStream::new(StreamId(1), header(), vec![]);
        apply_batch(&mut c, &[progress]);
        let next = ServerStream::accept(StreamId(1), &c.header(), false);
        assert_eq!(next.next_seq(), 2);
    }

    #[test]
    fn proxy_stores_and_rewrites() {
        let mut t = ProxyStreamTable::new();
        t.on_subscribe(1, StreamId(5), header(), vec![9], Some(100));
        assert_eq!(t.len(), 1);
        t.on_response(
            1,
            StreamId(5),
            &[Delta::RewriteRequest {
                patch: Json::obj([("brass", Json::from("b-2"))]),
            }],
        );
        let e = t.get(1, StreamId(5)).unwrap();
        assert_eq!(
            e.header.unpack().get("brass").unwrap().as_str(),
            Some("b-2")
        );
    }

    #[test]
    fn proxy_terminate_and_cancel_gc() {
        let mut t = ProxyStreamTable::new();
        t.on_subscribe(1, StreamId(5), header(), vec![], None);
        t.on_response(
            1,
            StreamId(5),
            &[Delta::Terminate(TerminateReason::Cancelled)],
        );
        assert!(t.is_empty());
        t.on_subscribe(1, StreamId(6), header(), vec![], None);
        t.on_cancel(1, StreamId(6));
        assert!(t.is_empty());
    }

    #[test]
    fn proxy_connection_close_drops_only_that_connection() {
        let mut t = ProxyStreamTable::new();
        t.on_subscribe(1, StreamId(5), header(), vec![], None);
        t.on_subscribe(1, StreamId(6), header(), vec![], None);
        t.on_subscribe(2, StreamId(5), header(), vec![], None);
        assert_eq!(t.on_connection_closed(1), 2);
        assert_eq!(t.len(), 1);
        assert!(t.get(2, StreamId(5)).is_some());
    }

    #[test]
    fn proxy_repairs_streams_after_upstream_failure() {
        let mut t = ProxyStreamTable::new();
        t.on_subscribe(1, StreamId(5), header(), vec![7], Some(100));
        t.on_subscribe(2, StreamId(9), header(), vec![], Some(100));
        t.on_subscribe(3, StreamId(1), header(), vec![], Some(200));
        let affected = t.streams_via(100);
        assert_eq!(affected, vec![(1, StreamId(5)), (2, StreamId(9))]);
        let f = t.rebuild_subscribe(1, StreamId(5), 300).unwrap();
        match f {
            Frame::Subscribe { sid, body, .. } => {
                assert_eq!(sid, StreamId(5));
                assert_eq!(body, vec![7]);
            }
            other => panic!("expected Subscribe, got {other:?}"),
        }
        assert_eq!(t.get(1, StreamId(5)).unwrap().upstream, Some(300));
    }

    #[test]
    fn client_freeze_thaw_roundtrip() {
        let mut c = ClientStream::new(StreamId(7), header(), vec![1, 2, 3]);
        apply_batch(
            &mut c,
            &[Delta::update(0, b"a".to_vec()), Delta::update(2, vec![])],
        );
        apply_batch(
            &mut c,
            &[Delta::RewriteRequest {
                patch: Json::obj([("last_seq", Json::from(2u64))]),
            }],
        );
        c.resubscribe_request();
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        // A second stream in the same buffer, terminated.
        let mut terminated = ClientStream::new(StreamId(8), header(), vec![]);
        apply_batch(
            &mut terminated,
            &[Delta::Terminate(TerminateReason::Denied)],
        );
        terminated.snap(&mut w);
        let buf = w.into_bytes();
        let (mut r, mut peek) = (SnapReader::new(&buf), SnapReader::new(&buf));
        for want in [&c, &terminated] {
            let mut read = ClientStream::blank();
            assert_eq!(read.restore_into(&mut r), Ok(()));
            assert_eq!(&read, want);
            let head = ClientStream::peek(&mut peek);
            assert_eq!(head, Ok((want.sid(), want.state())));
        }
        assert_eq!((r.finish(), peek.finish()), (Ok(()), Ok(())));
        // Reading over a stream of another shape replaces all of it.
        let (mut reused, mut r) = (terminated.clone(), SnapReader::new(&buf));
        assert_eq!(reused.restore_into(&mut r), Ok(()));
        assert_eq!(reused, c);
        assert_eq!(reused.restore_into(&mut r), Ok(()));
        assert_eq!(reused, terminated);
    }

    /// Open gaps read back only in a shape `open` and `close` leave: each
    /// check rejects its own damage, the shapes they leave pass.
    #[test]
    fn open_gaps_read_back_only_as_streams_leave_them() {
        let read = |evicted, evicted_below, ranges: Vec<(u64, u64)>| {
            let bytes = snap_bytes(&OpenGaps {
                ranges,
                evicted,
                evicted_below,
            });
            OpenGaps::restore(&mut SnapReader::new(&bytes)).map(|_| ())
        };
        let invalid = |what: &str| Err(SnapError::Invalid(what.into()));
        let full: Vec<(u64, u64)> = (0..MAX_OPEN_GAPS as u64)
            .map(|k| (2 * k, 2 * k + 1))
            .collect();
        assert_eq!(read(0, 0, full.clone()), Ok(()));
        assert_eq!(read(1, 1, vec![(1, 2)]), Ok(()));
        assert_eq!(read(3, 9, vec![]), Ok(()));
        let over = [&full[..], &[(99, 100)]].concat();
        assert_eq!(read(0, 0, over), invalid("too many open ranges"));
        let not_ascending = "open ranges not ascending";
        assert_eq!(read(0, 0, vec![(3, 4), (1, 2)]), invalid(not_ascending));
        assert_eq!(read(0, 0, vec![(2, 2)]), invalid(not_ascending));
        assert_eq!(read(1, 5, vec![(4, 6)]), invalid(not_ascending));
        let evictions = "eviction count disagrees with its bound";
        assert_eq!(read(1, 0, vec![(1, 2)]), invalid(evictions));
        assert_eq!(read(0, 4, vec![(5, 6)]), invalid(evictions));
        assert_eq!(read(5, 4, vec![]), invalid(evictions));
        assert_eq!(read(0, 0, vec![]), invalid("open gaps holding nothing"));
    }

    /// Walks `last_seq` through every digit-length rollover on both
    /// holders of the header (proxy, device) and checks the spliced text
    /// against the parse → merge → re-encode oracle after every step.
    #[test]
    fn progress_rewrites_splice_like_the_oracle_on_every_holder() {
        let subscribe = Json::obj([
            ("topic", Json::from("/LVC/1")),
            ("app", Json::from("lvc")),
            ("viewer", Json::from(77u64)),
        ]);
        let sid = StreamId(3);
        let mut server = ServerStream::accept(sid, &subscribe, false);
        let mut proxy = ProxyStreamTable::new();
        proxy.on_subscribe(9, sid, subscribe.clone(), vec![1], Some(4));
        let mut client = ClientStream::new(sid, subscribe.clone(), vec![1]);
        let mut oracle = PackedJson::pack(&subscribe);
        for last in 0..=1001u64 {
            let update = server.push(vec![0u8]);
            let rewrite = server.rewrite_progress();
            oracle = oracle.merge_oracle(&rewrite.rewrite_patch().expect("a rewrite"));
            let batch = [update, rewrite];
            proxy.on_response(9, sid, &batch);
            apply_batch(&mut client, &batch);

            let proxy_header = &proxy.get(9, sid).expect("entry").header;
            for header in [proxy_header, &client.header] {
                assert_eq!(header, &oracle, "last_seq {last}");
                assert_eq!(header.get_u64("last_seq"), Some(last));
            }
            let expected = ClientStream {
                header: oracle.clone(),
                ..client.clone()
            };
            assert_eq!(
                stream_bytes(&client),
                stream_bytes(&expected),
                "written bytes at last_seq {last}"
            );
        }
        assert_eq!(client.delivered(), 1002);
    }

    fn snap_bytes(value: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.snap(&mut w);
        w.into_bytes()
    }

    fn stream_bytes(c: &ClientStream) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        w.into_bytes()
    }

    /// Reads back one stream [`stream_bytes`] wrote, every byte consumed.
    fn read_stream(bytes: &[u8]) -> ClientStream {
        let (mut c, mut r) = (ClientStream::blank(), SnapReader::new(bytes));
        c.restore_into(&mut r).expect("a written stream reads back");
        r.finish().expect("a written stream is read exactly");
        c
    }

    /// One header rewrite sent down a stream: progress, or a patch of a few
    /// members (which may itself be exactly `{"last_seq": n}`).
    #[derive(Clone, Debug)]
    enum Step {
        Progress(u64),
        Patch(Vec<(&'static str, Json)>),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let value = prop_oneof![
            arb_last_seq().prop_map(Json::from),
            (-1e3f64..1e3).prop_map(Json::Num),
            "[a-z\"\\\\]{0,6}".prop_map(Json::Str),
            Just(Json::Null),
        ];
        const KEYS: [&str; 4] = ["last_seq", "brass_host", "rl_tokens", "z"];
        let key = (0..KEYS.len()).prop_map(|i| KEYS[i]);
        let progress = || arb_last_seq().prop_map(Step::Progress);
        let patch = proptest::collection::vec((key, value), 0..3).prop_map(Step::Patch);
        prop_oneof![progress(), progress(), patch]
    }

    proptest! {
        /// Every holder of a header — proxy / POP, device — reads after
        /// every rewrite exactly like the parse → merge → re-encode oracle:
        /// unpacked header, `u64` field reads, snapshot bytes and frozen
        /// bytes, whether the rewrite was recorded as a pending number or
        /// spliced.
        #[test]
        fn holders_match_the_merge_oracle(steps in proptest::collection::vec(arb_step(), 1..24)) {
            let subscribe = Json::obj([
                ("topic", Json::from("/LVC/1")),
                ("viewer", Json::from(77u64)),
            ]);
            let sid = StreamId(3);
            let mut proxy = ProxyStreamTable::new();
            proxy.on_subscribe(9, sid, subscribe.clone(), vec![1], Some(4));
            let mut client = ClientStream::new(sid, subscribe.clone(), vec![1]);
            let mut oracle = subscribe;
            for step in steps {
                let (delta, patch) = match step {
                    Step::Progress(n) => {
                        (Delta::progress(n), Json::obj([("last_seq", Json::from(n))]))
                    }
                    Step::Patch(members) => {
                        let patch = Json::obj(members);
                        (Delta::rewrite(patch.clone()), patch)
                    }
                };
                oracle.merge(&patch);
                let want = PackedJson::pack(&oracle);
                proxy.on_response(9, sid, std::slice::from_ref(&delta));
                apply_batch(&mut client, std::slice::from_ref(&delta));

                let proxy_header = &proxy.get(9, sid).expect("entry").header;
                for header in [proxy_header, &client.header] {
                    prop_assert_eq!(header.unpack().to_string(), oracle.to_string());
                    prop_assert_eq!(header, &want);
                    for key in ["last_seq", "brass_host", "viewer"] {
                        let slow = oracle.get(key).and_then(Json::as_u64);
                        prop_assert_eq!(header.get_u64(key), slow);
                    }
                    prop_assert_eq!(snap_bytes(header), snap_bytes(&want));
                }
                // The device splices at once: freezing borrows its text.
                let frozen_text = client.header.to_bytes();
                prop_assert!(matches!(frozen_text, std::borrow::Cow::Borrowed(_)));
                let spliced = ClientStream { header: want.clone(), ..client.clone() };
                prop_assert_eq!(stream_bytes(&client), stream_bytes(&spliced));
            }
        }
    }

    proptest! {
        /// Any arrival order of any set of sequences, repeats included:
        /// each sequence is delivered at most once, what the stream
        /// delivers plus what it still waits for or forgot is everything
        /// below `expected_seq`, and the written form reads back to the
        /// same stream and passes its checks.
        #[test]
        fn open_gaps_balance_the_double_entry(
            arrivals in proptest::collection::vec(0u64..40, 1..60),
        ) {
            let mut c = ClientStream::new(StreamId(1), header(), vec![]);
            let mut seen = std::collections::BTreeSet::new();
            for seq in arrivals {
                for action in apply_batch(&mut c, &[Delta::update(seq, seq.to_le_bytes().to_vec())]) {
                    if let ClientAction::Deliver(payload) = action {
                        prop_assert!(seen.insert(payload.to_vec()), "seq {} twice", seq);
                    }
                }
                let balance = c.delivered() + c.open_gap_seqs() + c.evicted_gap_seqs();
                prop_assert_eq!(balance, c.expected_seq());
                let read = read_stream(&stream_bytes(&c));
                prop_assert_eq!(read.check(), Ok(()));
                prop_assert_eq!(&read, &c);
            }
        }
    }

    /// A `last_seq` from a device's header never overflows the resume
    /// point. 2^64 − 1 reads as the `f64` 2^64, which is no `u64`, so
    /// numbering starts at 0; 1e19 is a `u64` and numbering resumes after
    /// it.
    #[test]
    fn untrusted_last_seq_never_overflows_the_resume_point() {
        for (last_seq, resume) in [
            ("18446744073709551615", 0),
            ("1e19", 10_000_000_000_000_000_001),
        ] {
            let text = format!(r#"{{"topic":"/LVC/1","last_seq":{last_seq}}}"#);
            let header = Json::parse(&text).unwrap();
            let server = ServerStream::accept(StreamId(1), &header, false);
            assert_eq!(server.next_seq(), resume, "accept, {last_seq}");
            let mut client = ClientStream::new(StreamId(1), header, vec![]);
            client.resubscribe_request();
            assert_eq!(client.expected_seq(), resume, "resubscribe, {last_seq}");
            apply_batch(&mut client, &[Delta::update(resume + 5, vec![])]);
            apply_batch(&mut client, &[Delta::FlowStatus(FlowStatus::Recovered)]);
            assert_eq!(client.expected_seq(), resume, "recovered, {last_seq}");
        }
    }
}
