//! The discrete-event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with deterministic FIFO
//! tie-breaking: two events scheduled for the same instant pop in the order
//! they were scheduled. Determinism here is what makes whole-system runs
//! reproducible bit-for-bit from a seed.
//!
//! # Implementation: one calendar ring over a slab
//!
//! Scheduling and popping near-future events is the simulator's innermost
//! loop, and what it costs there is cache lines, not comparisons: an event
//! is 80–100 bytes and a line that has gone cold costs as much as a few
//! hundred instructions. So an event is written once, into a **slab** slot
//! it never leaves ([`Entry`]; freed slots are reused last-freed-first, so
//! the slot a pop just emptied is the warm one the next `schedule` fills),
//! and everything that orders events moves 4-byte slab indices or 24-byte
//! [`Key`]s instead:
//!
//! * **The ring** — [`RING`] buckets of `2^BUCKET_BITS` µs, covering the
//!   buckets strictly after the cursor's up to `cursor + RING`. A bucket is
//!   an unordered list of slab indices; `schedule` appends one `u32`.
//! * **The due list** — when the cursor reaches a bucket its entries' keys
//!   are gathered from the slab (independent loads, which also warm the
//!   entries about to pop), sorted once by `(time, seq)`, and popped off
//!   the end. Sort-on-arrival is what lets buckets stay unordered: FIFO
//!   ties fall out of the seq in the key, not out of storage order.
//! * **The late heap** — keys scheduled at or behind the cursor's bucket:
//!   a handler scheduling "now" or a few hundred µs ahead into the bucket
//!   being drained, and inserts behind a cursor that a bounded pop or a
//!   skipped tombstone moved ahead of the clock. Small and usually empty
//!   (the simulator's hops are all longer than a bucket: under 1 pop in
//!   1,000 comes from here); every pop takes the lesser of its head and
//!   the due list's.
//! * **The overflow heap** — keys at or beyond `cursor + RING`, moved into
//!   the ring as the cursor's window reaches them. Every key there is later
//!   than every ring entry.
//!
//! Why one ring and no hierarchy: a hierarchy buys a long horizon by
//! re-filing every entry once per tier it descends, and each re-filing
//! copied the whole event between cold slots. Nearly everything this
//! simulator schedules lies within a few seconds (hop latencies of
//! micro- to milliseconds, 2 s push timers, heartbeats), so the ring is
//! sized to hold that — 1,024 µs × 4,096 = 4.19 s — and the rest (workload
//! injected up front, reconnect backoffs) waits in a heap of keys, paying
//! one `O(log n)` push and pop each. The width trades sort size against
//! ring length: at 1,024 µs a non-empty bucket holds ≈23 entries with
//! 20 k LVC devices (≈114 with 100 k; 6–9 on the chaos, flash-crowd and
//! chat workloads), a sort that stays in L1, while 4,096 `Vec` headers
//! plus a 512-byte occupancy bitmap stay resident in L2.
//! Both are constants because nothing a caller knows would pick them
//! better; they affect speed only, never order.
//!
//! A bucket keeps its index buffer between turns unless it grew past
//! [`RETAIN_INDICES`]: small buffers refill every few seconds and would
//! cost an allocation per turn, while one burst's buffer kept in each of
//! 4,096 slots would pin the ring at its high-water mark.
//!
//! # Cancellation: tombstones and the fired order
//!
//! Pops are strictly increasing in `(time, seq)`: the queue always yields
//! the least stored key, and anything scheduled afterwards is clamped to
//! `now` and carries a larger seq than everything before it. So an event
//! has already left the queue exactly when its key is at or below the key
//! of the last pop, and [`EventId`] carries the (clamped) instant to make
//! that one comparison. `cancel` therefore needs no record of what is
//! live: it rejects never-issued and already-fired ids by comparison and
//! remembers the rest in a tombstone set that stays empty unless
//! something cancels — `schedule` and `pop` touch no hash table.
//! (Skipping a tombstone does not advance the clock, so one a pop discards
//! ahead of the clock is kept aside until the next firing passes it.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fxhash::FxHashSet;
use crate::snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use crate::time::SimTime;

/// A bucket is `2^BUCKET_BITS` = 1,024 µs wide.
const BUCKET_BITS: u32 = 10;
/// Buckets in the ring: a 4.19 s window ahead of the cursor.
const RING: usize = 1 << 12;
/// A bucket's index buffer that grew past this many entries is handed back
/// to the allocator once the bucket drains; smaller ones are kept.
const RETAIN_INDICES: usize = 256;

/// Handle identifying a scheduled event, usable for cancellation: the
/// event's `(time, seq)` key, with the time already clamped to the clock at
/// scheduling. Only meaningful to the queue that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    at: SimTime,
    seq: u64,
}

/// A slab slot: one stored event, or a free slot (`event` is `None`).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
}

/// What orders an entry, and where it lives. Compared field by field, so
/// by `(time, seq)`: seqs are unique and the index never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl Key {
    fn bucket(&self) -> u64 {
        self.at.as_micros() >> BUCKET_BITS
    }
}

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use simkit::queue::EventQueue;
/// use simkit::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(10), "later");
/// q.schedule(SimTime::from_millis(10), "even later"); // same instant: FIFO
/// q.schedule(SimTime::from_millis(1), "first");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "later");
/// assert_eq!(q.pop().unwrap().1, "even later");
/// ```
pub struct EventQueue<E> {
    /// Every stored entry, cancelled or not, at an index it keeps for as
    /// long as it is stored.
    slab: Vec<Entry<E>>,
    /// Free slab slots; the last one freed is the next one filled.
    free: Vec<u32>,
    /// `ring[b % RING]` holds the slab indices of the entries in bucket `b`
    /// (`at >> BUCKET_BITS`), for `cursor < b < cursor + RING`, unordered.
    ring: Vec<Vec<u32>>,
    /// Bit `s` set iff `ring[s]` is non-empty.
    occupied: [u64; RING / 64],
    /// The bucket being drained. Advances monotonically; never beyond the
    /// bucket of a bounded pop's limit, but possibly ahead of the clock.
    cursor: u64,
    /// The cursor bucket's keys, sorted descending: the next to pop is last.
    due: Vec<Key>,
    /// Keys scheduled at or behind the cursor's bucket.
    late: BinaryHeap<Reverse<Key>>,
    /// Keys at or beyond bucket `cursor + RING`: later than every ring
    /// entry, moved into the ring when its window reaches them.
    overflow: BinaryHeap<Reverse<Key>>,
    next_seq: u64,
    /// Events scheduled and neither fired nor cancelled: what `len()`
    /// reports.
    live: usize,
    /// Seqs of cancelled events still in storage (tombstones): each is
    /// discarded, not fired, when it reaches the head.
    cancelled: FxHashSet<u64>,
    /// Tombstones a pop discarded ahead of the clock (a bounded pop can run
    /// out of live events before reaching its limit). Their keys are still
    /// above the last pop's, so they are remembered until the clock passes
    /// them — a second `cancel` must still say `false`.
    discarded: FxHashSet<EventId>,
    /// Seq of the last event popped, `None` before the first pop; with
    /// `now`, the key everything at or below which has left the queue.
    last_seq: Option<u64>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            ring: (0..RING).map(|_| Vec::new()).collect(),
            occupied: [0; RING / 64],
            cursor: 0,
            due: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            live: 0,
            cancelled: FxHashSet::default(),
            discarded: FxHashSet::default(),
            last_seq: None,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at instant `at`.
    ///
    /// Events scheduled in the past are clamped to the current instant, so a
    /// handler may always schedule "immediately" with `queue.now()`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.store(at, seq, event);
        EventId { at, seq }
    }

    /// Writes an entry into a slab slot and files its key.
    fn store(&mut self, at: SimTime, seq: u64, event: E) {
        let event = Some(event);
        let entry = Entry { at, seq, event };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = entry;
                idx
            }
            None => {
                let idx = u32::try_from(self.slab.len()).expect("under 2^32 stored events");
                self.slab.push(entry);
                idx
            }
        };
        self.file(Key { at, seq, idx });
    }

    /// Routes a key to the late heap (at or behind the cursor's bucket),
    /// the ring, or the overflow heap (beyond the ring's window).
    fn file(&mut self, key: Key) {
        let bucket = key.bucket();
        if bucket <= self.cursor {
            self.late.push(Reverse(key));
        } else if bucket - self.cursor < RING as u64 {
            let slot = bucket as usize % RING;
            self.ring[slot].push(key.idx);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// The first non-empty ring bucket after the cursor's.
    fn next_in_ring(&self) -> Option<u64> {
        const WORDS: usize = RING / 64;
        let start = (self.cursor as usize + 1) % RING;
        let (word, bit) = (start / 64, start % 64);
        // The starting word is looked at twice: from `bit` up first, and
        // below `bit` after the scan has wrapped all the way round.
        let slot = (0..=WORDS).find_map(|i| {
            let w = (word + i) % WORDS;
            let bits = match i {
                0 => self.occupied[w] & (!0 << bit),
                WORDS => self.occupied[w] & !(!0 << bit),
                _ => self.occupied[w],
            };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })?;
        // Ring entries lie within RING buckets of the cursor, so the slot
        // names exactly one of them.
        Some(self.cursor + (slot as u64).wrapping_sub(self.cursor) % RING as u64)
    }

    /// With nothing due or late, moves the cursor to the next stored bucket
    /// and loads it. `false`, and nothing moves, if nothing is stored or
    /// that bucket begins after `limit_us`.
    fn advance(&mut self, limit_us: u64) -> bool {
        debug_assert!(self.due.is_empty() && self.late.is_empty());
        let next = self
            .next_in_ring()
            .or_else(|| self.overflow.peek().map(|head| head.0.bucket()));
        let Some(next) = next.filter(|&b| b <= limit_us >> BUCKET_BITS) else {
            return false;
        };
        self.cursor = next;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if key.bucket() - next >= RING as u64 {
                break;
            }
            self.overflow.pop();
            self.file(key);
        }
        let slot = next as usize % RING;
        let indices = &mut self.ring[slot];
        self.due.extend(indices.iter().map(|&idx| {
            let e = &self.slab[idx as usize];
            let (at, seq) = (e.at, e.seq);
            Key { at, seq, idx }
        }));
        if indices.capacity() > RETAIN_INDICES {
            *indices = Vec::new();
        } else {
            indices.clear();
        }
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.due.sort_unstable_by(|a, b| b.cmp(a));
        true
    }

    /// The least stored key at or behind the cursor's bucket, and whether
    /// it heads the late heap (otherwise the due list).
    fn head(&self) -> Option<(Key, bool)> {
        match (self.due.last(), self.late.peek()) {
            (Some(&due), Some(&Reverse(late))) if late < due => Some((late, true)),
            (Some(&due), _) => Some((due, false)),
            (None, late) => late.map(|&Reverse(late)| (late, true)),
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired or been cancelled;
    /// cancelling an id that already fired (or was never issued) is a no-op
    /// returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let fired = (id.at, Some(id.seq)) <= (self.now, self.last_seq);
        let gone = fired || (!self.discarded.is_empty() && self.discarded.contains(&id));
        if id.seq >= self.next_seq || gone || !self.cancelled.insert(id.seq) {
            return false;
        }
        self.live -= 1;
        true
    }

    /// Whether the entry just taken out of storage was cancelled. The set
    /// is empty unless something cancelled, so the usual pop pays one
    /// length check.
    fn take_cancelled(&mut self, at: SimTime, seq: u64) -> bool {
        if self.cancelled.is_empty() || !self.cancelled.remove(&seq) {
            return false;
        }
        self.discarded.insert(EventId { at, seq });
        true
    }

    /// Advances the clock to a popped event, which puts every tombstone
    /// discarded on the way at or below the fired key.
    fn fire(&mut self, at: SimTime, seq: u64, event: E) -> (SimTime, E) {
        self.live -= 1;
        self.now = at;
        self.last_seq = Some(seq);
        if !self.discarded.is_empty() {
            self.discarded.retain(|id| (id.at, id.seq) > (at, seq));
        }
        (at, event)
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(u64::MAX)
    }

    /// Pops the earliest pending event only if it fires at or before `until`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(until.as_micros())
    }

    /// Shared pop core: takes the least stored key, skipping cancelled
    /// entries, never firing past `limit_us`. Like the head of a heap, the
    /// earliest *stored* entry bounds the earliest *live* entry, so a
    /// cancelled head past the limit still (conservatively and correctly)
    /// returns `None`.
    fn pop_bounded(&mut self, limit_us: u64) -> Option<(SimTime, E)> {
        loop {
            let Some((key, from_late)) = self.head() else {
                if self.advance(limit_us) {
                    continue;
                }
                return None;
            };
            if key.at.as_micros() > limit_us {
                return None;
            }
            if from_late {
                self.late.pop();
            } else {
                self.due.pop();
            }
            let stored = self.slab[key.idx as usize].event.take();
            self.free.push(key.idx);
            if self.take_cancelled(key.at, key.seq) {
                continue; // cancelled before firing
            }
            let event = stored.expect("a filed key names a stored entry");
            return Some(self.fire(key.at, key.seq, event));
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every stored event, cancelled ones included, in no particular
    /// order: what a caller validates after restoring a queue.
    pub fn stored(&self) -> impl Iterator<Item = &E> {
        self.slab.iter().filter_map(|e| e.event.as_ref())
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Cancelled entries may sit at the head; this is a conservative
        // bound, exact once a pop has discarded them.
        if let Some((key, _)) = self.head() {
            return Some(key.at);
        }
        if let Some(bucket) = self.next_in_ring() {
            let indices = &self.ring[bucket as usize % RING];
            return indices.iter().map(|&i| self.slab[i as usize].at).min();
        }
        self.overflow.peek().map(|head| head.0.at)
    }
}

/// The queue's **contents, not its shape**: clock, `next_seq`, every stored
/// entry (tombstones included — their position feeds `peek_time`'s
/// conservative bound) in `(time, seq)` order, and the tombstone seqs. How
/// the entries are spread over slab, ring and heaps is not written, so a
/// change to the structure moves no snapshot byte.
impl<E: Snap> Snap for EventQueue<E> {
    fn snap(&self, w: &mut SnapWriter) {
        self.now.snap(w);
        self.next_seq.snap(w);
        let mut stored: Vec<&Entry<E>> = self.slab.iter().filter(|e| e.event.is_some()).collect();
        stored.sort_unstable_by_key(|e| (e.at, e.seq));
        w.put_usize(stored.len());
        for e in stored {
            e.at.snap(w);
            e.seq.snap(w);
            e.event.as_ref().expect("filtered above").snap(w);
        }
        self.cancelled.snap(w);
    }

    /// Re-inserts what [`snap`](Self::snap) wrote, validating it: entries
    /// strictly ascending in `(time, seq)` and not before the clock, seqs
    /// unique and below `next_seq`, every tombstone naming a stored entry.
    /// Any violation is a clean error, never a partial queue. The last
    /// pop's seq is not in the snapshot; it is taken as just below the
    /// earliest entry still stored at `now`, which classifies every fired
    /// and every stored id of the snapshotted queue as the original would
    /// (ids are not serializable, so nothing but a test holds one across a
    /// restore).
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let invalid = |what: String| Err(SnapError::Invalid(format!("queue: {what}")));
        let mut queue = EventQueue::new();
        queue.now = SimTime::restore(r)?;
        queue.next_seq = r.get_u64()?;
        queue.cursor = queue.now.as_micros() >> BUCKET_BITS;
        let mut seqs = FxHashSet::default();
        let mut prev = None;
        for _ in 0..r.get_len()? {
            let (at, seq) = (SimTime::restore(r)?, r.get_u64()?);
            if at < queue.now || seq >= queue.next_seq {
                return invalid(format!(
                    "entry ({at:?}, {seq}) before the clock or unissued"
                ));
            }
            if prev >= Some((at, seq)) || !seqs.insert(seq) {
                return invalid(format!("entry ({at:?}, {seq}) out of order or repeated"));
            }
            prev = Some((at, seq));
            queue.store(at, seq, E::restore(r)?);
        }
        queue.cancelled = Snap::restore(r)?;
        if let Some(seq) = queue.cancelled.difference(&seqs).next() {
            return invalid(format!("tombstone {seq} has no stored entry"));
        }
        queue.live = seqs.len() - queue.cancelled.len();
        let at_now = queue.slab.first().filter(|e| e.at == queue.now);
        queue.last_seq = at_now.map_or(queue.next_seq, |e| e.seq).checked_sub(1);
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// The ring's window: what lies this far past the cursor overflows.
    const SPAN_US: u64 = (RING as u64) << BUCKET_BITS;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.schedule(SimTime::from_secs(2), ());
        let (t1, _) = q.pop().unwrap();
        assert_eq!(q.now(), t1);
        let (t2, _) = q.pop().unwrap();
        assert!(t2 >= t1);
        assert_eq!(q.now(), t2);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "a");
        q.pop();
        // Scheduling in the past silently clamps to now.
        q.schedule(SimTime::from_secs(1), "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert_eq!(t, SimTime::from_secs(10));
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel returns false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId {
            at: SimTime::ZERO,
            seq: 99
        }));
    }

    #[test]
    fn cancel_after_fire_is_false_and_len_stays_consistent() {
        // Regression: cancelling an id whose event already popped used to
        // insert a stale seq into the tombstone set, wrongly returning `true`
        // and making `len()` underflow-panic on the next call.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a), "cancel of a fired event must be a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_event_never_fires_via_pop_until() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(1), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().1, "b");
        assert!(q.pop_until(SimTime::from_secs(2)).is_none());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(5), 5);
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().1, 1);
        assert!(q.pop_until(SimTime::from_secs(2)).is_none());
        assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().1, 5);
    }

    #[test]
    fn stress_many_events_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::DetRng::new(99);
        for i in 0..50_000u64 {
            let at = SimTime::ZERO + SimDuration::from_micros(rng.below(1_000_000));
            q.schedule(at, i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, 50_000);
    }

    #[test]
    fn far_future_waits_in_overflow_and_moves_into_the_ring() {
        // An event beyond the ring's window lands in the overflow heap and
        // is moved into the ring (or straight under the cursor) once
        // everything nearer has drained — in exact (time, seq) order.
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(SPAN_US + 12_345);
        let farther = SimTime::from_micros(3 * SPAN_US + 99);
        q.schedule(far, "far");
        q.schedule(farther, "farther");
        assert_eq!(q.overflow.len(), 2, "beyond-window events overflow");
        q.schedule(SimTime::from_micros(20_000), "near");
        assert_eq!(q.overflow.len(), 2);
        assert_eq!(q.slab.len(), 3);

        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(20_000), "near"));
        // The near bucket's cursor brings `far` inside the window.
        assert_eq!(q.overflow.len(), 1, "still-too-far event stays in overflow");
        assert_eq!(q.pop().unwrap(), (far, "far"));
        // Nothing in the ring: the cursor jumps to the overflow head.
        assert_eq!(q.pop().unwrap(), (farther, "farther"));
        assert!(q.pop().is_none());
        assert_eq!(q.free.len(), 3, "every slab slot came back");
    }

    #[test]
    fn same_instant_fifo_across_ring_late_and_overflow() {
        // FIFO ties must hold even when same-timestamp events take
        // different routes: overflow, the ring, and the late heap.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(SPAN_US + 77);
        q.schedule(t, 0); // overflow
        q.schedule(SimTime::from_micros(2_000), 100);
        q.schedule(t, 1); // overflow, after 0
        assert_eq!(q.pop().unwrap().1, 100);
        q.schedule(t, 2); // within the window now: the ring
        assert_eq!((q.overflow.len(), q.late.len()), (0, 0));
        q.schedule(SimTime::from_micros(SPAN_US + 70), 200);
        assert_eq!(q.pop().unwrap().1, 200);
        q.schedule(t, 3); // the bucket being drained: the late heap
        assert_eq!(q.late.len(), 1);
        for expect in 0..4 {
            let (at, v) = q.pop().unwrap();
            assert_eq!(at, t);
            assert_eq!(v, expect, "same-instant events pop in schedule order");
        }
    }

    #[test]
    fn slab_slots_are_reused_last_freed_first_and_big_buckets_release() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(SimTime::from_micros(10 + i), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.free, vec![0, 1]);
        q.schedule(SimTime::from_micros(20), 9);
        assert_eq!(q.free, vec![0], "the slot the last pop emptied is refilled");
        assert_eq!(q.slab.len(), 4);
        // A burst in one bucket: its index buffer goes back to the
        // allocator when the bucket is loaded, a small one is kept.
        let burst = 5_000;
        let slot = |at: u64| (at >> BUCKET_BITS) as usize;
        for i in 0..RETAIN_INDICES as u64 + 1 {
            q.schedule(SimTime::from_micros(burst + i % 7), 100 + i);
        }
        q.schedule(SimTime::from_micros(burst + 2_000), 999);
        while q.pop().is_some_and(|(_, v)| v != 100) {}
        assert_eq!(q.ring[slot(burst)].capacity(), 0);
        while q.pop().is_some_and(|(_, v)| v != 999) {}
        assert!(q.ring[slot(burst + 2_000)].capacity() > 0);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_into_cursor_gap_after_cancelled_skip() {
        // Skipping a cancelled event moves the cursor to its bucket; a
        // handler may then schedule an event earlier than that bucket
        // (but after `now`). It must still pop, and in time order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "t10");
        let c = q.schedule(SimTime::from_micros(5_000), "cancelled");
        q.schedule(SimTime::from_micros(9_000), "t9000");
        assert_eq!(q.pop().unwrap().1, "t10");
        assert!(q.cancel(c));
        // No live event ≤ 6000: this skips the cancelled 5000 µs entry,
        // moving the cursor past it.
        assert!(q.pop_until(SimTime::from_micros(6_000)).is_none());
        // Schedule into the gap the cursor already passed.
        q.schedule(SimTime::from_micros(2_000), "gap");
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(2_000), "gap"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(9_000), "t9000"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stress_mixed_horizons_and_cancels_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::DetRng::new(1234);
        let mut ids = Vec::new();
        for i in 0..20_000u64 {
            // Mix same-bucket, in-window, and beyond-window times.
            let at = match rng.below(10) {
                0..=5 => rng.below(1 << 12),
                6..=8 => rng.below(SPAN_US),
                _ => SPAN_US + rng.below(1 << 38),
            };
            ids.push(q.schedule(SimTime::from_micros(at), i));
        }
        for (k, id) in ids.iter().enumerate() {
            if k % 3 == 0 {
                q.cancel(*id);
            }
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            assert!(t >= last);
            assert!(i % 3 != 0, "cancelled events never fire");
            last = t;
            count += 1;
        }
        assert_eq!(count, 20_000 - ids.len().div_ceil(3));
        assert!(q.is_empty());
    }

    /// Differential reference: a plain sort with FIFO tie-breaking,
    /// mirroring the queue's contract without any ring/overflow structure.
    fn heap_reference(events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut sorted: Vec<(u64, u64, u64)> = events
            .iter()
            .enumerate()
            .map(|(seq, &(at, v))| (at, seq as u64, v))
            .collect();
        sorted.sort_unstable();
        sorted.into_iter().map(|(at, _, v)| (at, v)).collect()
    }

    /// Dense events straddling exactly `cursor + RING` buckets while the
    /// cursor sits mid-ring, so `file` flips between the ring and the
    /// overflow heap for events a microsecond apart. Pop order must match
    /// the reference bit for bit.
    #[test]
    fn dense_events_straddling_the_window_edge_pop_in_order() {
        // Park the cursor: pop a pilot event in bucket 1,234.
        let base = 1_234 << BUCKET_BITS;
        let edge = base + SPAN_US;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(base + 100), 999_999u64);
        assert_eq!(q.pop().unwrap().0.as_micros(), base + 100);
        // edge + [-3, +3], the exact distance-SPAN points from the clock,
        // and the last µs of the bucket before the edge's.
        let mut events = Vec::new();
        for delta in 0..7u64 {
            events.push((edge - 3 + delta, delta));
        }
        for (i, at) in [base + 100 + SPAN_US, edge + SPAN_US, edge - 1_025]
            .into_iter()
            .enumerate()
        {
            events.push((at, 7 + i as u64));
        }
        for &(at, v) in &events {
            q.schedule(SimTime::from_micros(at), v);
        }
        assert_eq!(q.overflow.len(), 6);
        let expect = heap_reference(&events);
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            got.push((t.as_micros(), v));
        }
        assert_eq!(got, expect);
    }

    /// Snapshots a queue mid-flight, restores it, and checks both copies
    /// pop identically to the end — the core resume guarantee.
    fn assert_snapshot_transparent(q: &mut EventQueue<u64>) {
        let mut w = SnapWriter::new();
        q.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = EventQueue::<u64>::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.peek_time(), q.peek_time());
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_pop_order_with_overflow_and_tombstones() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::DetRng::new(0x5AFE);
        let mut ids = Vec::new();
        for i in 0..5_000u64 {
            let at = match rng.below(10) {
                0..=6 => rng.below(1 << 20),
                7..=8 => rng.below(SPAN_US),
                _ => SPAN_US + rng.below(1 << 38),
            };
            ids.push(q.schedule(SimTime::from_micros(at), i));
        }
        // Cancel a quarter so tombstones sit in the ring and heaps.
        for (k, id) in ids.iter().enumerate() {
            if k % 4 == 0 {
                q.cancel(*id);
            }
        }
        // Drain partway so the cursor, the due list and the late heap are
        // all non-trivial at snapshot time.
        for _ in 0..1_500 {
            q.pop();
        }
        q.schedule(SimTime::from_micros(q.now().as_micros() + 3), 999_999);
        assert_snapshot_transparent(&mut q);
    }

    #[test]
    fn snapshot_roundtrip_empty_and_pathological_cursors() {
        // Empty queue.
        let mut q: EventQueue<u64> = EventQueue::new();
        assert_snapshot_transparent(&mut q);
        // Cursor parked just below the window's edge with straddling events.
        let seam = SPAN_US;
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(seam - 2), 0u64);
        q.pop();
        for (i, at) in [seam - 1, seam, seam + 1, 3 * seam].into_iter().enumerate() {
            q.schedule(SimTime::from_micros(at), i as u64 + 1);
        }
        assert_snapshot_transparent(&mut q);
    }

    #[test]
    fn snapshot_restore_rejects_corruption() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_micros(i * 7), i);
        }
        let c = q.schedule(SimTime::from_micros(999), 999);
        q.cancel(c);
        let mut w = SnapWriter::new();
        q.snap(&mut w);
        let bytes = w.into_bytes();
        // Truncation at every byte must error, never panic or half-build.
        for n in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..n]);
            let res = EventQueue::<u64>::restore(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "accepted {n}-byte prefix");
        }
    }

    /// Randomised differential across the window's edge: events scattered
    /// densely on both sides of `cursor + RING` buckets (including exact
    /// edge hits), with bounded pops that drag the cursor — and the edge —
    /// through the cluster, and cancellations thinning it.
    #[test]
    fn dense_events_straddling_the_window_edge_differential() {
        for seed in 0..8u64 {
            let mut rng = crate::rng::DetRng::new(0xB0D5 + seed);
            // The clock's offset inside its bucket varies per round so the
            // edge is exercised from aligned and unaligned clocks alike.
            let base = (77 << BUCKET_BITS) + rng.below(1 << BUCKET_BITS);
            let edge = (78 << BUCKET_BITS) + SPAN_US;
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_micros(base), 0u64);
            assert_eq!(q.pop().unwrap().0.as_micros(), base);

            let mut events: Vec<(u64, u64)> = Vec::new();
            for i in 1..=2_000u64 {
                // Cluster radius ±2^13 around the edge, plus exact edge and
                // exact `base + SPAN_US` hits sprinkled in.
                let at = match rng.below(20) {
                    0 => edge,
                    1 => base + SPAN_US,
                    2 => edge - 1,
                    3 => edge - (1 << BUCKET_BITS),
                    _ => edge - (1 << 13) + rng.below(1 << 14),
                };
                events.push((at, i));
            }
            let mut ids = Vec::new();
            for &(at, v) in &events {
                ids.push((q.schedule(SimTime::from_micros(at), v), v));
            }
            assert!(!q.overflow.is_empty() && q.occupied.iter().any(|w| *w != 0));
            // Cancel a third; drop them from the reference too.
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (k, (&(at, v), &(id, _))) in events.iter().zip(ids.iter()).enumerate() {
                if k % 3 == 1 {
                    assert!(q.cancel(id));
                } else {
                    live.push((at, v));
                }
            }
            let expect: Vec<(u64, u64)> = heap_reference(&events)
                .into_iter()
                .filter(|&(at, v)| live.contains(&(at, v)))
                .collect();
            // Pop up to a limit inside the cluster first (the bounded pop
            // stops mid-bucket with overflow half moved), then drain.
            let mut got = Vec::new();
            while let Some((t, v)) = q.pop_until(SimTime::from_micros(edge - 1)) {
                got.push((t.as_micros(), v));
            }
            while let Some((t, v)) = q.pop() {
                got.push((t.as_micros(), v));
            }
            assert_eq!(got, expect, "seed {seed} diverged from the reference");
        }
    }
}
