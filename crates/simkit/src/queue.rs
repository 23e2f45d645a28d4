//! The discrete-event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with deterministic FIFO
//! tie-breaking: two events scheduled for the same instant pop in the order
//! they were scheduled. Determinism here is what makes whole-system runs
//! reproducible bit-for-bit from a seed.
//!
//! # Implementation: hierarchical timing wheel
//!
//! Scheduling and popping near-future events is the simulator's innermost
//! loop, so the queue is a hierarchical timing wheel rather than a binary
//! heap: [`LEVELS`] levels of [`SLOTS`] slots each, with level `l` covering
//! `64^(l+1)` microseconds at a granularity of `64^l` µs (level 0 slots are
//! exactly one microsecond wide). A per-level 64-bit occupancy bitmap turns
//! "find the next non-empty slot" into a mask and `trailing_zeros`, so
//! `schedule` and `pop` are O(1) for events within the wheel horizon
//! (`64^LEVELS` µs ≈ 19 simulated hours ahead) and events beyond it fall
//! back to an overflow binary heap, promoted into the wheel when the
//! cursor catches up.
//!
//! FIFO correctness falls out of three invariants: slot vectors are
//! append-only and cascaded in order (so same-timestamp events keep their
//! scheduling order), a level-0 slot is one microsecond wide (so everything
//! in it shares a timestamp), and cancellation is lazy (a tombstone is
//! consulted at pop, never reordering storage). One subtlety: skipping a
//! *cancelled* event moves the wheel cursor past its slot without advancing
//! simulated time, and a handler may then legally schedule into that gap —
//! such entries go to a small `backfill` heap, which always drains before
//! the wheel because its entries are strictly earlier than every wheel
//! entry.
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

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::fxhash::FxHashSet;
use crate::snap::{restore_sorted, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use crate::time::SimTime;

/// Slots per wheel level (64, so occupancy fits one `u64` bitmap).
const SLOTS: usize = 64;
/// Bits of the time value consumed per level.
const SLOT_BITS: usize = 6;
/// Wheel levels; the horizon is `2^(SLOT_BITS * LEVELS)` µs ≈ 19.1 h.
const LEVELS: usize = 6;
/// Events at or beyond `cursor + 2^HORIZON_BITS` µs overflow to a heap.
const HORIZON_BITS: usize = SLOT_BITS * LEVELS;

/// A slot buffer that has grown past this many entries — more than one per
/// child slot — is handed back to the allocator once a cascade has emptied
/// it; smaller ones are kept for the slot's next turn. Lower-level slots
/// hold a handful of entries and refill every few milliseconds, so
/// dropping their buffers costs an allocation per event or two; an
/// upper-level slot can hold a whole fleet's timers once per rotation, and
/// keeping 64 of those per level would pin the wheel at its high-water
/// mark to save a re-growth that is amortised over thousands of entries.
const RETAIN_ENTRIES: usize = SLOTS;

/// Handle identifying a scheduled event, usable for cancellation: the
/// event's `(time, seq)` key, with the time already clamped to the clock at
/// scheduling. Only meaningful to the queue that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    at: SimTime,
    seq: u64,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
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
    /// Slot rings for all levels, flattened level-major
    /// (`slots[l * SLOTS + j]`). Slot vectors stay seq-ordered per
    /// timestamp: appends happen in scheduling order and cascades preserve
    /// relative order.
    slots: Vec<VecDeque<Entry<E>>>,
    /// Per-level bitmaps: bit `j` set iff `slots[l * SLOTS + j]` is
    /// non-empty.
    occupancy: [u64; LEVELS],
    /// Wheel position in µs. Every entry stored in the wheel fires at or
    /// after this; it advances monotonically as slots drain.
    cursor: u64,
    /// Entries scheduled into `(now, cursor)` after the wheel structurally
    /// passed their timestamp (possible when cancelled events were
    /// skipped). Strictly earlier than every wheel entry, so this drains
    /// first.
    backfill: BinaryHeap<Entry<E>>,
    /// Entries beyond the wheel horizon; strictly later than every wheel
    /// entry, promoted when the wheel drains up to them.
    overflow: BinaryHeap<Entry<E>>,
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
    /// Cascades move a slot's entries through here, so the slot's own
    /// buffer survives for its next turn.
    scratch: VecDeque<Entry<E>>,
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
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupancy: [0; LEVELS],
            cursor: 0,
            backfill: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            live: 0,
            cancelled: FxHashSet::default(),
            discarded: FxHashSet::default(),
            last_seq: None,
            now: SimTime::ZERO,
            scratch: VecDeque::new(),
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
        self.insert(Entry { at, seq, event });
        EventId { at, seq }
    }

    /// Routes an entry to the wheel, the backfill heap (behind the cursor),
    /// or the overflow heap (beyond the horizon).
    fn insert(&mut self, entry: Entry<E>) {
        let at_us = entry.at.as_micros();
        if at_us < self.cursor {
            self.backfill.push(entry);
            return;
        }
        let xor = at_us ^ self.cursor;
        if xor >> HORIZON_BITS != 0 {
            self.overflow.push(entry);
            return;
        }
        let level = if xor == 0 {
            0
        } else {
            (63 - xor.leading_zeros() as usize) / SLOT_BITS
        };
        let slot = (at_us >> (SLOT_BITS * level)) as usize & (SLOTS - 1);
        self.occupancy[level] |= 1u64 << slot;
        self.slots[level * SLOTS + slot].push_back(entry);
    }

    /// Timestamp (µs) of the earliest wheel entry, cancelled or not,
    /// without mutating anything.
    ///
    /// Levels are strictly time-ordered (level `l` entries all precede
    /// level `l+1` entries, because each level is confined to the cursor's
    /// current parent slot), so the first occupied slot of the lowest
    /// occupied level holds the minimum. Level-0 slots are 1 µs wide so the
    /// slot index *is* the timestamp; higher-level slots need a scan.
    fn wheel_earliest(&self) -> Option<u64> {
        for level in 0..LEVELS {
            let current = (self.cursor >> (SLOT_BITS * level)) as u32 & (SLOTS as u32 - 1);
            let masked = self.occupancy[level] & (!0u64 << current);
            if masked == 0 {
                continue;
            }
            let j = masked.trailing_zeros() as u64;
            if level == 0 {
                return Some((self.cursor & !(SLOTS as u64 - 1)) + j);
            }
            let slot = &self.slots[level * SLOTS + j as usize];
            return slot.iter().map(|e| e.at.as_micros()).min();
        }
        None
    }

    /// Advances the cursor to the earliest wheel entry, cascading
    /// higher-level slots down until it sits in level 0, and returns its
    /// level-0 slot index. Must only be called when the wheel is non-empty.
    fn settle_head(&mut self) -> usize {
        loop {
            let current = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let masked = self.occupancy[0] & (!0u64 << current);
            if masked != 0 {
                let j = masked.trailing_zeros() as usize;
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) + j as u64;
                return j;
            }
            let mut progressed = false;
            for level in 1..LEVELS {
                let current = (self.cursor >> (SLOT_BITS * level)) as u32 & (SLOTS as u32 - 1);
                let masked = self.occupancy[level] & (!0u64 << current);
                if masked == 0 {
                    continue;
                }
                let j = masked.trailing_zeros() as usize;
                // Jump to the start of that slot and redistribute its
                // entries relative to the new cursor: each lands at a
                // strictly lower level, preserving order (the vector is
                // seq-ordered per timestamp and drained front to back).
                let width = SLOT_BITS * (level + 1);
                let slot_start =
                    (self.cursor & !((1u64 << width) - 1)) + ((j as u64) << (SLOT_BITS * level));
                debug_assert!(slot_start > self.cursor);
                self.cursor = slot_start;
                self.occupancy[level] &= !(1u64 << j);
                let slot = &mut self.slots[level * SLOTS + j];
                self.scratch.extend(slot.drain(..));
                if slot.capacity() > RETAIN_ENTRIES {
                    *slot = VecDeque::new();
                }
                while let Some(entry) = self.scratch.pop_front() {
                    self.insert(entry);
                }
                if self.scratch.capacity() > RETAIN_ENTRIES {
                    self.scratch = VecDeque::new();
                }
                progressed = true;
                break;
            }
            debug_assert!(progressed, "settle_head called on an empty wheel");
            if !progressed {
                unreachable!("settle_head called on an empty wheel");
            }
        }
    }

    /// Jumps the cursor to the overflow head and promotes every overflow
    /// entry that now fits the wheel horizon. Only called when the wheel
    /// and backfill are empty, so the jump cannot leapfrog anything.
    ///
    /// Horizon-boundary audit: [`Self::insert`] overflows on
    /// `(at ^ cursor) >> HORIZON_BITS != 0`, i.e. whenever `at` falls in a
    /// different `2^HORIZON_BITS`-µs block than the cursor — which is
    /// *not* the same as `at >= cursor + 2^HORIZON_BITS`. An event only
    /// 1µs away can overflow (cursor `2^36 − 1`, at `2^36`), and an event
    /// nearly `2^36` µs away can stay in the wheel (cursor `2^36`, at
    /// `2^37 − 1`). Both are correct: every overflow entry has strictly
    /// greater high bits than the cursor had at insert time, so it sorts
    /// after every wheel entry of that block and the cursor jump here can
    /// never move backwards past a stored event. The
    /// `dense_events_straddling_horizon_boundary_*` tests pin exactly the
    /// `cursor + 2^HORIZON_BITS` seam against the heap reference.
    fn promote_overflow(&mut self) {
        let Some(head) = self.overflow.peek() else {
            return;
        };
        debug_assert!(head.at.as_micros() >= self.cursor);
        self.cursor = head.at.as_micros();
        while let Some(head) = self.overflow.peek() {
            if (head.at.as_micros() ^ self.cursor) >> HORIZON_BITS != 0 {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry exists");
            self.insert(entry);
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
    fn fire(&mut self, entry: Entry<E>) -> (SimTime, E) {
        self.live -= 1;
        self.now = entry.at;
        self.last_seq = Some(entry.seq);
        if !self.discarded.is_empty() {
            self.discarded
                .retain(|id| (id.at, id.seq) > (entry.at, entry.seq));
        }
        (entry.at, entry.event)
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

    /// Shared pop core: drains backfill, then the wheel, then promotes
    /// overflow, skipping cancelled entries, never firing past `limit_us`.
    /// Like the head of a heap, the earliest *stored* entry bounds the
    /// earliest *live* entry, so a cancelled head past the limit still
    /// (conservatively and correctly) returns `None`.
    fn pop_bounded(&mut self, limit_us: u64) -> Option<(SimTime, E)> {
        loop {
            // Backfill entries precede every wheel entry (at < cursor).
            if let Some(head) = self.backfill.peek() {
                if head.at.as_micros() > limit_us {
                    return None;
                }
                let entry = self.backfill.pop().expect("peeked entry exists");
                if self.take_cancelled(entry.at, entry.seq) {
                    continue; // cancelled before firing
                }
                return Some(self.fire(entry));
            }
            // Wheel entries precede every overflow entry (at within horizon).
            if let Some(at_us) = self.wheel_earliest() {
                if at_us > limit_us {
                    return None;
                }
                let j = self.settle_head();
                let slot = &mut self.slots[j];
                let entry = slot.pop_front().expect("settled slot is non-empty");
                debug_assert_eq!(entry.at.as_micros(), at_us);
                if slot.is_empty() {
                    self.occupancy[0] &= !(1u64 << j);
                }
                if self.take_cancelled(entry.at, entry.seq) {
                    continue; // cancelled before firing
                }
                return Some(self.fire(entry));
            }
            let head_at = self.overflow.peek()?.at;
            if head_at.as_micros() > limit_us {
                return None;
            }
            self.promote_overflow();
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

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Cancelled entries may sit at the head; this is a conservative
        // bound, exact once compaction occurs on pop.
        if let Some(head) = self.backfill.peek() {
            return Some(head.at);
        }
        if let Some(at_us) = self.wheel_earliest() {
            return Some(SimTime::from_micros(at_us));
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// The wheel placement `insert` would choose for `at_us` under `cursor`,
    /// or `None` if the entry belongs in backfill/overflow instead.
    fn placement(cursor: u64, at_us: u64) -> Option<(usize, usize)> {
        if at_us < cursor {
            return None;
        }
        let xor = at_us ^ cursor;
        if xor >> HORIZON_BITS != 0 {
            return None;
        }
        let level = if xor == 0 {
            0
        } else {
            (63 - xor.leading_zeros() as usize) / SLOT_BITS
        };
        let slot = (at_us >> (SLOT_BITS * level)) as usize & (SLOTS - 1);
        Some((level, slot))
    }
}

impl<E: Snap> EventQueue<E> {
    /// Every stored entry: both heaps, then the wheel slots in index order.
    fn stored(&self) -> impl Iterator<Item = &Entry<E>> {
        let heaps = self.backfill.iter().chain(self.overflow.iter());
        heaps.chain(self.slots.iter().flatten())
    }
}

impl<E: Snap> Snap for Entry<E> {
    fn snap(&self, w: &mut SnapWriter) {
        self.at.snap(w);
        self.seq.snap(w);
        self.event.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(Entry {
            at: Snap::restore(r)?,
            seq: Snap::restore(r)?,
            event: Snap::restore(r)?,
        })
    }
}

impl<E: Snap> Snap for EventQueue<E> {
    /// Writes the queue's complete structure: clock, cursor, the sorted
    /// seqs of the live events, both heaps (as `(time, seq)`-sorted
    /// vectors), and every wheel slot verbatim — including cancelled
    /// entries (tombstones), because their storage position feeds
    /// `peek_time`'s conservative bound.
    fn snap(&self, w: &mut SnapWriter) {
        self.now.snap(w);
        self.cursor.snap(w);
        self.next_seq.snap(w);
        let mut pending: Vec<u64> = self
            .stored()
            .map(|e| e.seq)
            .filter(|seq| !self.cancelled.contains(seq))
            .collect();
        pending.sort_unstable();
        pending.snap(w);
        for heap in [&self.backfill, &self.overflow] {
            let mut entries: Vec<&Entry<E>> = heap.iter().collect();
            entries.sort_by_key(|e| (e.at, e.seq));
            w.put_usize(entries.len());
            for e in entries {
                e.snap(w);
            }
        }
        for slot in &self.slots {
            slot.snap(w);
        }
    }

    /// Rebuilds a queue written by [`snap`](Self::snap), validating the
    /// structural invariants the wheel relies on: heap vectors strictly
    /// ascending in `(time, seq)`, every wheel entry stored exactly where
    /// `insert` would place it under the restored cursor, seqs unique and
    /// below `next_seq`, and the live seqs a subset of stored entries (the
    /// stored rest are the tombstones). Any violation is a clean error,
    /// never a partial queue. The last pop's seq is not in the snapshot;
    /// it is taken as just below the earliest entry still stored at `now`,
    /// which classifies every fired and every stored id of the snapshotted
    /// queue as the original would (ids are not serializable, so nothing
    /// but a test holds one across a restore).
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let now = SimTime::restore(r)?;
        let cursor = r.get_u64()?;
        let next_seq = r.get_u64()?;
        let pending = FxHashSet::<u64>::restore(r)?;

        let mut seen = FxHashSet::default();
        let mut check_seq = |seq: u64| {
            if seq >= next_seq {
                return Err(SnapError::Invalid(format!("seq {seq} >= next_seq")));
            }
            if !seen.insert(seq) {
                return Err(SnapError::Invalid(format!("duplicate stored seq {seq}")));
            }
            Ok(())
        };

        let mut backfill = BinaryHeap::new();
        let mut overflow = BinaryHeap::new();
        for (which, heap) in [&mut backfill, &mut overflow].into_iter().enumerate() {
            let by_time_seq = |a: &Entry<E>, b: &Entry<E>| (a.at, a.seq) < (b.at, b.seq);
            for e in restore_sorted(r, by_time_seq)? {
                check_seq(e.seq)?;
                let at_us = e.at.as_micros();
                let ok = if which == 0 {
                    at_us < cursor
                } else {
                    at_us >= cursor && (at_us ^ cursor) >> HORIZON_BITS != 0
                };
                if !ok {
                    return Err(SnapError::Invalid(format!(
                        "heap entry at {at_us}µs inconsistent with cursor {cursor}"
                    )));
                }
                heap.push(e);
            }
        }

        let mut slots: Vec<VecDeque<Entry<E>>> = Vec::with_capacity(LEVELS * SLOTS);
        let mut occupancy = [0u64; LEVELS];
        for i in 0..LEVELS * SLOTS {
            let slot_q = VecDeque::<Entry<E>>::restore(r)?;
            let (level, slot) = (i / SLOTS, i % SLOTS);
            for e in &slot_q {
                check_seq(e.seq)?;
                if Self::placement(cursor, e.at.as_micros()) != Some((level, slot)) {
                    return Err(SnapError::Invalid(format!(
                        "wheel entry at {}µs misplaced in level {level} slot {slot}",
                        e.at.as_micros()
                    )));
                }
            }
            if !slot_q.is_empty() {
                occupancy[level] |= 1u64 << slot;
            }
            slots.push(slot_q);
        }

        if let Some(s) = pending.difference(&seen).next() {
            return Err(SnapError::Invalid(format!(
                "pending seq {s} has no stored entry"
            )));
        }

        let mut queue = EventQueue {
            slots,
            occupancy,
            cursor,
            backfill,
            overflow,
            next_seq,
            live: pending.len(),
            cancelled: seen.difference(&pending).copied().collect(),
            discarded: FxHashSet::default(),
            last_seq: None,
            now,
            scratch: VecDeque::new(),
        };
        let at_now = queue.stored().filter(|e| e.at == now).map(|e| e.seq).min();
        queue.last_seq = at_now.unwrap_or(next_seq).checked_sub(1);
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

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
    fn far_future_overflows_and_promotes_between_levels() {
        // An event beyond the 64^6 µs ≈ 19 h wheel horizon lands in the
        // overflow heap, then promotes into the wheel (cascading down
        // through the levels) once everything nearer has drained — and
        // pops in exact (time, seq) order throughout.
        let mut q = EventQueue::new();
        let horizon_us = 1u64 << HORIZON_BITS;
        let far = SimTime::from_micros(horizon_us + 12_345);
        let farther = SimTime::from_micros(3 * horizon_us + 99);
        q.schedule(far, "far");
        q.schedule(farther, "farther");
        assert_eq!(q.overflow.len(), 2, "beyond-horizon events overflow");
        q.schedule(SimTime::from_micros(5), "near");
        assert_eq!(q.overflow.len(), 2);

        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(5), "near"));
        // Popping the far event forces a promotion out of overflow and a
        // cascade down every wheel level to a 1 µs level-0 slot.
        assert_eq!(q.pop().unwrap(), (far, "far"));
        assert_eq!(q.overflow.len(), 1, "still-too-far event stays in overflow");
        assert_eq!(q.pop().unwrap(), (farther, "farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_fifo_across_wheel_and_promotion() {
        // FIFO ties must hold even when same-timestamp events take
        // different routes into the wheel (direct insert at different
        // levels vs. overflow promotion).
        let mut q = EventQueue::new();
        let t = SimTime::from_micros((1 << HORIZON_BITS) + 77);
        q.schedule(t, 0); // overflow
        q.schedule(SimTime::from_micros(1), 100); // near
        q.schedule(t, 1); // overflow, after 0
        assert_eq!(q.pop().unwrap().1, 100);
        q.schedule(t, 2); // still overflow relative to cursor=1
        for expect in 0..3 {
            let (at, v) = q.pop().unwrap();
            assert_eq!(at, t);
            assert_eq!(v, expect, "same-instant events pop in schedule order");
        }
    }

    #[test]
    fn schedule_into_cursor_gap_after_cancelled_skip() {
        // Skipping a cancelled event moves the wheel cursor to its slot;
        // a handler may then schedule an event earlier than that slot
        // (but after `now`). It must still pop, and in time order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "t10");
        let c = q.schedule(SimTime::from_micros(5_000), "cancelled");
        q.schedule(SimTime::from_micros(9_000), "t9000");
        assert_eq!(q.pop().unwrap().1, "t10");
        assert!(q.cancel(c));
        // No live event ≤ 6000: this skips the cancelled 5000 µs entry,
        // structurally advancing the wheel past it.
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
            // Mix near-future, mid-wheel, and beyond-horizon times.
            let at = match rng.below(10) {
                0..=5 => rng.below(1 << 18),
                6..=8 => rng.below(1 << 34),
                _ => (1 << HORIZON_BITS) + rng.below(1 << 38),
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

    /// Differential reference: a plain binary heap with FIFO tie-breaking,
    /// mirroring the queue's contract without any wheel/overflow structure.
    fn heap_reference(events: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut sorted: Vec<(u64, u64, u64)> = events
            .iter()
            .enumerate()
            .map(|(seq, &(at, v))| (at, seq as u64, v))
            .collect();
        sorted.sort_unstable();
        sorted.into_iter().map(|(at, _, v)| (at, v)).collect()
    }

    /// Satellite audit test: dense events straddling exactly
    /// `cursor + 2^HORIZON_BITS` while the cursor sits just below the
    /// block seam, so the overflow condition `(at ^ cursor) >> HORIZON_BITS`
    /// flips for events only a microsecond apart. Pop order must match the
    /// heap reference bit for bit.
    #[test]
    fn dense_events_straddling_horizon_boundary_pop_in_order() {
        let seam = 1u64 << HORIZON_BITS;
        // Park the cursor just below the seam: pop a pilot event there.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(seam - 100), 999_999u64);
        assert_eq!(q.pop().unwrap().0.as_micros(), seam - 100);
        // Dense cluster across the seam: seam + [-3, +3] (one µs apart,
        // flipping the XOR-block test), plus the exact distance-2^36
        // points from the parked cursor and from the seam itself.
        let mut events = Vec::new();
        let mut tag = 0u64;
        for delta in 0..7u64 {
            events.push((seam - 3 + delta, tag));
            tag += 1;
        }
        for at in [seam - 100 + seam, seam + seam, seam + seam + 1] {
            events.push((at, tag));
            tag += 1;
        }
        for &(at, v) in &events {
            q.schedule(SimTime::from_micros(at), v);
        }
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
                7..=8 => rng.below(1 << 34),
                _ => (1 << HORIZON_BITS) + rng.below(1 << 38),
            };
            ids.push(q.schedule(SimTime::from_micros(at), i));
        }
        // Cancel a quarter so tombstones sit in the wheel and heaps.
        for (k, id) in ids.iter().enumerate() {
            if k % 4 == 0 {
                q.cancel(*id);
            }
        }
        // Drain partway so cursor, backfill, and promotion state are all
        // non-trivial at snapshot time.
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
        // Cursor parked just below the horizon seam with straddling events.
        let seam = 1u64 << HORIZON_BITS;
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

    /// Randomised differential across the horizon seam: events scattered
    /// densely on both sides of `cursor + 2^HORIZON_BITS` (including exact
    /// seam hits), with interleaved pops that drag the cursor across the
    /// boundary and cancellations thinning the wheel so promotion runs
    /// from many different cursor positions.
    #[test]
    fn dense_events_straddling_horizon_boundary_differential() {
        let seam = 1u64 << HORIZON_BITS;
        for seed in 0..8u64 {
            let mut rng = crate::rng::DetRng::new(0xB0D5 + seed);
            // Base cursor position below the seam varies per round so the
            // XOR block boundary is exercised from aligned and unaligned
            // cursors alike.
            let base = seam - 1 - rng.below(1 << 12);
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_micros(base), 0u64);
            assert_eq!(q.pop().unwrap().0.as_micros(), base);

            let mut events: Vec<(u64, u64)> = Vec::new();
            for i in 1..=2_000u64 {
                // Cluster radius ±2^13 around the seam, plus exact seam and
                // exact `base + 2^HORIZON_BITS` hits sprinkled in.
                let at = match rng.below(20) {
                    0 => seam,
                    1 => base + seam,
                    2 => base + seam + 1,
                    3 => base.wrapping_add(seam).wrapping_sub(1),
                    _ => seam - (1 << 13) + rng.below(1 << 14),
                };
                events.push((at.max(base), i));
            }
            let mut ids = Vec::new();
            for &(at, v) in &events {
                ids.push((q.schedule(SimTime::from_micros(at), v), v));
            }
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
            // Pop half through a limit below the seam first (bounded pops
            // straddle the promotion), then drain.
            let mut got = Vec::new();
            while let Some((t, v)) = q.pop_until(SimTime::from_micros(seam - 1)) {
                got.push((t.as_micros(), v));
            }
            while let Some((t, v)) = q.pop() {
                got.push((t.as_micros(), v));
            }
            assert_eq!(got, expect, "seed {seed} diverged from heap reference");
        }
    }
}
