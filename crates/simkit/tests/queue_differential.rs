//! Differential test: the calendar-ring [`EventQueue`] must be observably
//! identical to the original binary-heap implementation for arbitrary
//! interleavings of `schedule` / `cancel` / `pop` / `pop_until` — same pop
//! order (the (time, seq) FIFO tie-break contract), same cancel results
//! (including cancel-after-fire returning `false`), same `len`/`peek_time`
//! at every step.

use std::collections::HashSet;

use proptest::prelude::*;
use simkit::queue::{EventId, EventQueue};
use simkit::time::SimTime;

/// Reference model with the exact observable semantics of the pre-wheel
/// heap queue: entries stay stored until popped, cancellation only flips
/// membership in the live set, pops skip (and discard) cancelled entries,
/// and `pop_until`/`peek_time` bound on the earliest *stored* entry
/// (cancelled or not) — the documented conservative behaviour.
struct RefQueue {
    entries: Vec<(u64, u64, u64)>, // (at µs, seq, payload)
    next_seq: u64,
    pending: HashSet<u64>,
    now: u64,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            entries: Vec::new(),
            next_seq: 0,
            pending: HashSet::new(),
            now: 0,
        }
    }

    fn schedule(&mut self, at: u64, payload: u64) -> u64 {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.entries.push((at, seq, payload));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        self.pending.remove(&seq)
    }

    fn head_index(&self) -> Option<usize> {
        (0..self.entries.len()).min_by_key(|&i| (self.entries[i].0, self.entries[i].1))
    }

    fn pop_bounded(&mut self, limit: u64) -> Option<(u64, u64)> {
        loop {
            let i = self.head_index()?;
            let (at, seq, payload) = self.entries[i];
            if at > limit {
                return None;
            }
            self.entries.swap_remove(i);
            if !self.pending.remove(&seq) {
                continue;
            }
            self.now = at;
            return Some((at, payload));
        }
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn peek_time(&self) -> Option<u64> {
        self.head_index().map(|i| self.entries[i].0)
    }
}

/// One step of the interleaving, decoded from fuzz words.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(u64),
    /// `n` events spread over the µs from `at` on (one bucket's worth).
    Burst(u64, u64),
    Cancel(usize),
    /// Cancels the earliest stored entry: a tombstone at a bucket's head.
    CancelHead,
    Pop,
    PopUntil(u64),
}

/// Times over three scales: in-bucket ties, across the ring, and beyond
/// its window into the overflow heap.
fn decode(kind: u8, raw: u64) -> Op {
    let at = match raw % 3 {
        0 => raw % (1 << 10),
        1 => raw % (1 << 22),
        _ => raw % (1 << 40),
    };
    match kind % 10 {
        0..=4 => Op::Schedule(at),
        5 | 6 => Op::Cancel(raw as usize),
        7 | 8 => Op::Pop,
        _ => Op::PopUntil(at),
    }
}

/// Bucket width and ring window of the queue under test (its module doc
/// states them; they are not public because no caller should care).
const BUCKET_US: u64 = 1 << 10;
const WINDOW_US: u64 = BUCKET_US << 12;

/// Times aimed at the ring's seams, relative to the clock: bucket borders
/// (`k·2¹⁰ ± 1`), the window's edge (`cursor + ring ± 1`, for the cursor at
/// the clock's bucket and one or two ahead of it), the bucket being
/// drained, and far enough out that the ring stays empty.
fn decode_seams(kind: u8, raw: u64, now: u64) -> Op {
    let jitter = (raw >> 8) % 3; // the -1 / 0 / +1 around a seam
    let bucket_start = now & !(BUCKET_US - 1);
    let at = match raw % 8 {
        0 => now + (raw >> 10) % BUCKET_US,
        1 => (bucket_start + (1 + (raw >> 10) % 4) * BUCKET_US + jitter).saturating_sub(1),
        2 | 3 => bucket_start + WINDOW_US + ((raw >> 10) % 3) * BUCKET_US + jitter - 1,
        4 => now + WINDOW_US + jitter - 1,
        5 => now + (raw >> 10) % (4 * BUCKET_US),
        6 => now + 2 * WINDOW_US + (raw >> 10) % (1 << 30),
        _ => now + (raw >> 10) % WINDOW_US,
    };
    match kind % 16 {
        0..=5 => Op::Schedule(at),
        6 => Op::Burst(at, 257 + (raw >> 40) % 64),
        7 | 8 => Op::Cancel(raw as usize),
        9 => Op::CancelHead,
        10..=12 => Op::Pop,
        // A bounded pop that tends to stop inside a populated bucket; what
        // is scheduled next may well be earlier than where it stopped.
        _ => Op::PopUntil(at),
    }
}

/// The queue under test and its model, stepped together.
struct Pair {
    queue: EventQueue<u64>,
    reference: RefQueue,
    queue_ids: Vec<EventId>,
    ref_ids: Vec<u64>,
    payload: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            reference: RefQueue::new(),
            queue_ids: Vec::new(),
            ref_ids: Vec::new(),
            payload: 0,
        }
    }

    fn schedule(&mut self, at: u64) {
        self.payload += 1;
        let id = self.queue.schedule(SimTime::from_micros(at), self.payload);
        self.queue_ids.push(id);
        self.ref_ids.push(self.reference.schedule(at, self.payload));
    }

    fn cancel(&mut self, k: usize, i: usize) {
        // Covers live cancel, double cancel, and cancel after fire —
        // results must agree in every case.
        prop_assert_eq!(
            self.queue.cancel(self.queue_ids[k]),
            self.reference.cancel(self.ref_ids[k]),
            "cancel divergence at op {}",
            i
        );
    }

    fn pop(&mut self, limit: Option<u64>, i: usize) -> Option<(u64, u64)> {
        let got = match limit {
            Some(until) => self.queue.pop_until(SimTime::from_micros(until)),
            None => self.queue.pop(),
        };
        let got = got.map(|(t, v)| (t.as_micros(), v));
        let want = self.reference.pop_bounded(limit.unwrap_or(u64::MAX));
        prop_assert_eq!(got, want, "pop divergence at op {} (limit {:?})", i, limit);
        got
    }

    /// Applies one op to both, then compares everything observable.
    fn step(&mut self, op: Op, i: usize) {
        match op {
            Op::Schedule(at) => self.schedule(at),
            Op::Burst(at, n) => (0..n).for_each(|k| self.schedule(at + k % 5)),
            Op::Cancel(pick) if !self.queue_ids.is_empty() => {
                self.cancel(pick % self.queue_ids.len(), i);
            }
            Op::Cancel(_) => {}
            Op::CancelHead => {
                if let Some(head) = self.reference.head_index() {
                    let seq = self.reference.entries[head].1;
                    let k = self.ref_ids.iter().position(|s| *s == seq).expect("issued");
                    self.cancel(k, i);
                }
            }
            Op::Pop => drop(self.pop(None, i)),
            Op::PopUntil(until) => drop(self.pop(Some(until), i)),
        }
        let (queue, reference) = (&self.queue, &self.reference);
        prop_assert_eq!(queue.len(), reference.len(), "len divergence at op {}", i);
        prop_assert_eq!(
            queue.peek_time().map(SimTime::as_micros),
            reference.peek_time(),
            "peek_time divergence at op {}",
            i
        );
        prop_assert_eq!(
            queue.now().as_micros(),
            reference.now,
            "now divergence at op {}",
            i
        );
    }

    /// Drains both dry: the full remaining pop order must match.
    fn drain(&mut self) {
        while self.pop(None, usize::MAX).is_some() {}
        prop_assert!(self.queue.is_empty());
    }
}

proptest! {
    #[test]
    fn ring_matches_heap_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200)
    ) {
        let mut pair = Pair::new();
        for (i, &(kind, raw)) in ops.iter().enumerate() {
            pair.step(decode(kind, raw), i);
        }
        pair.drain();
    }

    #[test]
    fn ring_seams_match_heap_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120)
    ) {
        let mut pair = Pair::new();
        for (i, &(kind, raw)) in ops.iter().enumerate() {
            pair.step(decode_seams(kind, raw, pair.reference.now), i);
        }
        pair.drain();
    }

    /// The snapshot is the queue's contents: a restored queue re-snaps to
    /// the same bytes and pops the same events, wherever the cursor, the
    /// late heap and the overflow heap stood when it was taken.
    #[test]
    fn restore_resnaps_and_drains_identically(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..80)
    ) {
        let mut pair = Pair::new();
        for (i, &(kind, raw)) in ops.iter().enumerate() {
            pair.step(decode_seams(kind, raw, pair.reference.now), i);
        }
        let bytes = snap_bytes(&pair.queue);
        let mut r = SnapReader::new(&bytes);
        let restored = EventQueue::<u64>::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        prop_assert_eq!(&snap_bytes(&restored), &bytes, "restore → re-snap");
        pair.queue = restored;
        pair.drain();
    }
}

// ----------------------------------------------------------------------
// Directed cancellation cases: the tombstone set decides "already fired"
// from pop order alone, so every corner of that order gets its own test.
// ----------------------------------------------------------------------

use simkit::snap::{fnv64, Snap, SnapReader, SnapWriter};

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

fn snap_bytes(q: &EventQueue<u64>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    q.snap(&mut w);
    w.into_bytes()
}

#[test]
fn cancel_after_fire_is_false() {
    let mut q = EventQueue::new();
    let a = q.schedule(us(10), 0u64);
    let b = q.schedule(us(20), 1);
    assert_eq!(q.pop(), Some((us(10), 0)));
    assert!(!q.cancel(a), "fired");
    assert_eq!(q.len(), 1);
    assert!(q.cancel(b), "still pending");
    assert!(!q.cancel(b), "double cancel");
    assert_eq!(q.len(), 0);
    assert!(q.is_empty());
    assert_eq!(q.pop(), None);
    assert!(!q.cancel(a) && !q.cancel(b));
    assert_eq!(q.len(), 0);
}

#[test]
fn cancel_of_a_same_instant_event_before_and_after_its_pop() {
    // Four events share one instant; "fired" among them is decided by seq.
    let mut q = EventQueue::new();
    let ids: Vec<_> = (0..4u64).map(|i| q.schedule(us(7), i)).collect();
    assert_eq!(q.pop(), Some((us(7), 0)));
    assert!(!q.cancel(ids[0]), "popped at this instant");
    assert!(q.cancel(ids[2]), "same instant, not yet popped");
    assert_eq!(q.len(), 2);
    assert_eq!(q.pop(), Some((us(7), 1)));
    assert_eq!(q.pop(), Some((us(7), 3)), "the cancelled one is skipped");
    for id in &ids {
        assert!(!q.cancel(*id), "all fired or cancelled");
    }
    assert!(q.is_empty());
    // Scheduling "now" after the pops lands on the same instant with a
    // later seq: still pending, still cancellable exactly once.
    let late = q.schedule(us(0), 9);
    assert_eq!(q.len(), 1);
    assert!(q.cancel(late));
    assert!(!q.cancel(late));
    assert_eq!(q.pop(), None);
}

#[test]
fn len_and_is_empty_with_tombstones_outstanding() {
    let mut q = EventQueue::new();
    let ids: Vec<_> = (0..10u64).map(|i| q.schedule(us(100 + i), i)).collect();
    for id in &ids[..9] {
        assert!(q.cancel(*id));
    }
    assert_eq!(q.len(), 1);
    assert!(!q.is_empty());
    // The stored head is a tombstone: the bound is conservative.
    assert_eq!(q.peek_time(), Some(us(100)));
    assert!(q.cancel(ids[9]));
    assert_eq!(q.len(), 0);
    assert!(q.is_empty());
    assert_eq!(q.peek_time(), Some(us(100)), "tombstones are still stored");
    assert_eq!(q.pop(), None);
    assert_eq!(q.peek_time(), None);
    assert!(q.is_empty());
}

#[test]
fn a_tombstone_skipped_ahead_of_the_clock_stays_cancelled() {
    // A bounded pop discards a cancelled entry without advancing `now`
    // to it; a second cancel of that id must still say `false`, before
    // and after the clock passes it.
    let mut q = EventQueue::new();
    q.schedule(us(10), 0u64);
    let c = q.schedule(us(5_000), 1);
    q.schedule(us(9_000), 2);
    assert_eq!(q.pop(), Some((us(10), 0)));
    assert!(q.cancel(c));
    assert_eq!(q.pop_until(us(6_000)), None);
    assert!(!q.cancel(c), "skipped, clock still behind it");
    assert_eq!(q.len(), 1);
    let gap = q.schedule(us(2_000), 3);
    assert_eq!(q.pop(), Some((us(2_000), 3)));
    assert!(!q.cancel(gap));
    assert!(!q.cancel(c));
    assert_eq!(q.pop(), Some((us(9_000), 2)));
    assert!(!q.cancel(c), "clock past it");
    assert!(q.is_empty());
}

#[test]
fn cancel_of_an_overflow_heap_entry_and_of_one_moved_into_the_ring() {
    let mut q = EventQueue::new();
    let far = q.schedule(us(WINDOW_US + 500), 0u64);
    let far_kept = q.schedule(us(WINDOW_US + 500), 1);
    // Beyond the window when scheduled, moved into the ring when the near
    // event drags the cursor forward.
    let moved = q.schedule(us(WINDOW_US + 300_000), 2);
    q.schedule(us(299_990), 3);
    assert!(q.cancel(far), "cancelled while in the overflow heap");
    assert_eq!(q.len(), 3);
    assert_eq!(q.pop(), Some((us(299_990), 3)));
    assert!(q.cancel(moved), "cancelled after moving into the ring");
    assert!(!q.cancel(moved));
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop(), Some((us(WINDOW_US + 500), 1)));
    assert!(!q.cancel(far) && !q.cancel(far_kept));
    assert!(q.is_empty());
    assert_eq!(q.pop(), None);
    assert_eq!(q.peek_time(), None, "the moved tombstone was swept");
}

#[test]
fn a_bounded_pop_stops_inside_a_bucket_and_earlier_schedules_still_pop_first() {
    // One bucket, 300 entries (more than a bucket keeps buffered), the
    // first of them a tombstone; the pop limit falls inside the bucket.
    let mut q = EventQueue::new();
    let base = 50 * BUCKET_US;
    let ids: Vec<_> = (0..300u64)
        .map(|i| q.schedule(us(base + i * 3), i))
        .collect();
    assert!(q.cancel(ids[0]), "tombstone at the bucket's head");
    assert_eq!(q.peek_time(), Some(us(base)), "still stored");
    assert_eq!(q.pop_until(us(base + 3)), Some((us(base + 3), 1)));
    assert_eq!(q.pop_until(us(base + 5)), None, "next is at base + 6");
    assert_eq!(q.now(), us(base + 3));
    // Into the bucket being drained, before and after its next entry, and
    // into a bucket the cursor already left behind the clock… which the
    // clamp turns into "now".
    q.schedule(us(base + 4), 1_000);
    q.schedule(us(base + 7), 1_001);
    q.schedule(us(base - 2 * BUCKET_US), 1_002);
    assert_eq!(q.peek_time(), Some(us(base + 3)));
    assert_eq!(q.pop(), Some((us(base + 3), 1_002)));
    assert_eq!(q.pop(), Some((us(base + 4), 1_000)));
    assert_eq!(q.pop(), Some((us(base + 6), 2)));
    assert_eq!(q.pop(), Some((us(base + 7), 1_001)));
    assert_eq!(q.pop(), Some((us(base + 9), 3)));
    assert_eq!(q.len(), 296);
}

#[test]
fn an_empty_ring_with_only_overflow_jumps_straight_to_it() {
    let mut q = EventQueue::new();
    // Hours apart: nothing ever lands within a window of anything else.
    let times = [7, 3, 11, 5].map(|h: u64| h * 3_600_000_000 + h);
    for (i, at) in times.into_iter().enumerate() {
        q.schedule(us(at), i as u64);
    }
    assert_eq!(q.peek_time(), Some(us(times[1])));
    assert_eq!(q.pop_until(us(times[1] - 1)), None);
    assert_eq!(q.pop_until(us(times[1])), Some((us(times[1]), 1)));
    // The window's far edge, to the µs, from a cursor mid-ring.
    let edge = (times[1] & !(BUCKET_US - 1)) + WINDOW_US;
    q.schedule(us(edge - 1), 10);
    q.schedule(us(edge), 11);
    assert_eq!(q.pop(), Some((us(edge - 1), 10)));
    assert_eq!(q.pop(), Some((us(edge), 11)));
    assert_eq!(q.pop(), Some((us(times[3]), 3)));
    assert_eq!(q.pop(), Some((us(times[0]), 0)));
    assert_eq!(q.pop(), Some((us(times[2]), 2)));
    assert_eq!(q.pop(), None);
}

/// A queue holding cancelled-but-still-stored entries under the cursor, in
/// the late heap, across the ring and in the overflow heap.
fn golden_queue() -> (EventQueue<u64>, Vec<EventId>) {
    let mut q = EventQueue::new();
    let mut ids = Vec::new();
    for i in 0..40u64 {
        // 3 µs … ~10 min: the first few within the window, the rest not.
        ids.push(q.schedule(us(3 + i * i * i * 9_000), i));
    }
    for i in 0..6u64 {
        ids.push(q.schedule(us((1 << 36) * (1 + i % 2) + 17 * i), 100 + i));
    }
    for _ in 0..7 {
        q.pop();
    }
    for (k, id) in ids.iter().enumerate() {
        if k % 3 == 1 {
            q.cancel(*id);
        }
    }
    // Skip a cancelled head so the cursor runs ahead of the clock, then
    // schedule into the gap: those entries live in the late heap.
    let head = q.peek_time().expect("entries remain");
    assert_eq!(q.pop_until(head), None, "head is a tombstone");
    ids.push(q.schedule(q.now() + simkit::time::SimDuration::from_micros(1), 200));
    ids.push(q.schedule(q.now() + simkit::time::SimDuration::from_micros(2), 201));
    q.cancel(ids[ids.len() - 2]);
    (q, ids)
}

#[test]
fn snapshot_bytes_with_stored_tombstones_are_pinned() {
    let (mut q, ids) = golden_queue();
    let bytes = snap_bytes(&q);
    // Captured when the snapshot became the queue's contents (clock,
    // next_seq, entries in (time, seq) order, tombstone seqs); a change to
    // how the queue stores them must not move it.
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        GOLDEN,
        "snapshot layout or content moved"
    );
    let mut r = SnapReader::new(&bytes);
    let mut restored = EventQueue::<u64>::restore(&mut r).expect("restore");
    r.finish().expect("no trailing bytes");
    assert_eq!(snap_bytes(&restored), bytes, "restore → re-snap");
    assert_eq!(restored.len(), q.len());
    assert_eq!(restored.peek_time(), q.peek_time());
    // The restored copy classifies fired, pending and stored-cancelled ids
    // as the original does. (ids[7] is the tombstone the bounded pop threw
    // away ahead of the clock: only the original remembers that one.)
    for (k, id) in ids.iter().enumerate().filter(|(k, _)| *k != 7) {
        assert_eq!(restored.cancel(*id), q.cancel(*id), "id {k}");
    }
    assert_eq!(snap_bytes(&restored), snap_bytes(&q));
}

#[test]
fn restore_rejects_what_snap_never_writes() {
    // now, next_seq, [(at, seq, event)…], tombstones — by hand.
    let build = |now: u64, next_seq: u64, entries: &[(u64, u64)], tombstones: &[u64]| {
        let mut w = SnapWriter::new();
        w.put_u64(now);
        w.put_u64(next_seq);
        w.put_usize(entries.len());
        for &(at, seq) in entries {
            w.put_u64(at);
            w.put_u64(seq);
            w.put_u64(seq * 10);
        }
        w.put_usize(tombstones.len());
        for &seq in tombstones {
            w.put_u64(seq);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        EventQueue::<u64>::restore(&mut r).and_then(|q| r.finish().map(|()| q))
    };
    let ok = build(10, 9, &[(10, 4), (10, 6), (5_000_000, 2)], &[2]).expect("well-formed");
    assert_eq!((ok.len(), ok.peek_time()), (2, Some(us(10))));
    assert!(
        build(10, 9, &[(9, 4)], &[]).is_err(),
        "entry before the clock"
    );
    assert!(build(10, 9, &[(10, 9)], &[]).is_err(), "seq never issued");
    assert!(
        build(10, 9, &[(10, 6), (10, 4)], &[]).is_err(),
        "descending"
    );
    assert!(
        build(10, 9, &[(10, 4), (10, 4)], &[]).is_err(),
        "repeated key"
    );
    assert!(
        build(10, 9, &[(10, 4), (11, 4)], &[]).is_err(),
        "repeated seq"
    );
    assert!(
        build(10, 9, &[(10, 4)], &[5]).is_err(),
        "dangling tombstone"
    );
    assert!(
        build(10, 9, &[(10, 4)], &[4, 4]).is_err(),
        "repeated tombstone"
    );
}

const GOLDEN: (usize, u64) = (1096, 0xdf1d_bace_0e1d_bdcc);
