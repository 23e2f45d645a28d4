//! Differential test: the hierarchical timing-wheel [`EventQueue`] must be
//! observably identical to the original binary-heap implementation for
//! arbitrary interleavings of `schedule` / `cancel` / `pop` / `pop_until`
//! — same pop order (the (time, seq) FIFO tie-break contract), same
//! cancel results (including cancel-after-fire returning `false`), same
//! `len`/`peek_time` at every step.

use std::collections::HashSet;

use proptest::prelude::*;
use simkit::queue::EventQueue;
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
    Cancel(usize),
    Pop,
    PopUntil(u64),
}

fn decode(kind: u8, raw: u64) -> Op {
    // Spread times over three scales so runs exercise in-slot ties, wheel
    // cascades across levels, and beyond-horizon overflow promotion.
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

proptest! {
    #[test]
    fn wheel_matches_heap_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..200)
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut reference = RefQueue::new();
        let mut wheel_ids = Vec::new();
        let mut ref_ids = Vec::new();

        for (i, &(kind, raw)) in ops.iter().enumerate() {
            match decode(kind, raw) {
                Op::Schedule(at) => {
                    wheel_ids.push(wheel.schedule(SimTime::from_micros(at), i as u64));
                    ref_ids.push(reference.schedule(at, i as u64));
                }
                Op::Cancel(pick) => {
                    if wheel_ids.is_empty() {
                        continue;
                    }
                    let k = pick % wheel_ids.len();
                    // Covers live cancel, double cancel, and cancel after
                    // fire — results must agree in every case.
                    prop_assert_eq!(
                        wheel.cancel(wheel_ids[k]),
                        reference.cancel(ref_ids[k]),
                        "cancel divergence at op {}", i
                    );
                }
                Op::Pop => {
                    let got = wheel.pop();
                    let want = reference.pop_bounded(u64::MAX);
                    prop_assert_eq!(
                        got.map(|(t, v)| (t.as_micros(), v)),
                        want,
                        "pop divergence at op {}", i
                    );
                }
                Op::PopUntil(until) => {
                    let got = wheel.pop_until(SimTime::from_micros(until));
                    let want = reference.pop_bounded(until);
                    prop_assert_eq!(
                        got.map(|(t, v)| (t.as_micros(), v)),
                        want,
                        "pop_until divergence at op {}", i
                    );
                }
            }
            prop_assert_eq!(wheel.len(), reference.len(), "len divergence at op {}", i);
            prop_assert_eq!(
                wheel.peek_time().map(SimTime::as_micros),
                reference.peek_time(),
                "peek_time divergence at op {}", i
            );
            prop_assert_eq!(wheel.now().as_micros(), reference.now, "now divergence at op {}", i);
        }

        // Drain both queues dry: the full remaining pop order must match.
        loop {
            let got = wheel.pop();
            let want = reference.pop_bounded(u64::MAX);
            prop_assert_eq!(got.map(|(t, v)| (t.as_micros(), v)), want, "drain divergence");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }
}

// ----------------------------------------------------------------------
// Directed cancellation cases: the tombstone set decides "already fired"
// from pop order alone, so every corner of that order gets its own test.
// ----------------------------------------------------------------------

use simkit::snap::{fnv64, Snap, SnapReader, SnapWriter};

const HORIZON_US: u64 = 1 << 36;

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
fn cancel_of_an_overflow_heap_entry_and_of_a_cascaded_entry() {
    let mut q = EventQueue::new();
    let far = q.schedule(us(HORIZON_US + 500), 0u64);
    let far_kept = q.schedule(us(HORIZON_US + 500), 1);
    // Lands at a high wheel level, then cascades towards level 0 when the
    // near event drags the cursor into its slot.
    let cascaded = q.schedule(us(300_000), 2);
    q.schedule(us(299_990), 3);
    assert!(q.cancel(far), "cancelled while in the overflow heap");
    assert_eq!(q.len(), 3);
    assert_eq!(q.pop(), Some((us(299_990), 3)));
    assert!(q.cancel(cascaded), "cancelled after cascading");
    assert!(!q.cancel(cascaded));
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop(), Some((us(HORIZON_US + 500), 1)));
    assert!(!q.cancel(far) && !q.cancel(far_kept));
    assert!(q.is_empty());
    assert_eq!(q.pop(), None);
}

/// A queue holding cancelled-but-still-stored entries in the backfill
/// heap, every wheel level the times reach, and the overflow heap.
fn golden_queue() -> (EventQueue<u64>, Vec<simkit::queue::EventId>) {
    let mut q = EventQueue::new();
    let mut ids = Vec::new();
    for i in 0..40u64 {
        // 3 µs … ~10 min, spread over the wheel levels.
        ids.push(q.schedule(us(3 + i * i * i * 9_000), i));
    }
    for i in 0..6u64 {
        ids.push(q.schedule(us(HORIZON_US * (1 + i % 2) + 17 * i), 100 + i));
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
    // schedule into the gap: that entry lives in the backfill heap.
    let head = q.peek_time().expect("entries remain");
    assert_eq!(q.pop_until(head), None, "head is a tombstone");
    ids.push(q.schedule(q.now() + simkit::time::SimDuration::from_micros(1), 200));
    ids.push(q.schedule(q.now() + simkit::time::SimDuration::from_micros(2), 201));
    q.cancel(ids[ids.len() - 2]);
    (q, ids)
}

#[test]
fn snapshot_bytes_with_stored_tombstones_match_the_parent_commit() {
    let (mut q, ids) = golden_queue();
    let bytes = snap_bytes(&q);
    // Captured from 347116b (the live-seq-set queue) before any edit.
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

const GOLDEN: (usize, u64) = (4296, 0x1cc8_05fa_ee5b_b8f0);
