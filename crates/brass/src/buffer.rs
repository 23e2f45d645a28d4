//! The ranked buffer behind LiveVideoComments.
//!
//! "Each LiveVideoComments BRASS maintains a ranked buffer for each
//! stream-connected device to which it adds the incoming updates after
//! filtering them on a per user basis … The highest-ranked comment in the
//! buffer is pushed to the device periodically at a prescribed rate" (§3.4).
//!
//! [`RankedBuffer`] is bounded (the paper holds it "fixed at 5 elements" in
//! the Fig. 9 measurements), keeps entries ordered by rank, evicts the
//! lowest-ranked entry on overflow, and expires entries older than a
//! configured age ("comments older than n seconds become irrelevant and can
//! be discarded", §2).

use simkit::snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::{SimDuration, SimTime};

/// An entry in a ranked buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranked<T> {
    /// Rank; higher pops first.
    pub rank: f64,
    /// When the underlying update was created.
    pub created: SimTime,
    /// The carried item.
    pub item: T,
}

/// The result of [`RankedBuffer::offer`].
#[derive(Clone, Debug, PartialEq)]
pub enum PushOutcome<T> {
    /// The item was stored; nothing was displaced.
    Kept,
    /// The item was stored; the previous lowest-ranked entry was evicted.
    KeptEvicting(Ranked<T>),
    /// The buffer was full and the item ranked lowest; it was not stored.
    Rejected(Ranked<T>),
}

/// A bounded, rank-ordered, time-expiring buffer.
///
/// # Examples
///
/// ```
/// use brass::buffer::RankedBuffer;
/// use simkit::time::{SimDuration, SimTime};
///
/// let mut buf = RankedBuffer::new(2, SimDuration::from_secs(10));
/// buf.push(0.5, SimTime::ZERO, "meh");
/// buf.push(0.9, SimTime::ZERO, "great");
/// buf.push(0.7, SimTime::ZERO, "good"); // evicts "meh"
/// assert_eq!(buf.pop_best(SimTime::from_secs(1)), Some("great"));
/// ```
#[derive(Clone, Debug)]
pub struct RankedBuffer<T> {
    entries: Vec<Ranked<T>>,
    capacity: usize,
    max_age: SimDuration,
    evicted: u64,
    expired: u64,
}

impl<T> RankedBuffer<T> {
    /// Creates a buffer with the given capacity and maximum entry age.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, max_age: SimDuration) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        // The backing Vec is allocated lazily on first insert: one buffer
        // exists per stream-connected device, and at fleet scale most sit
        // empty at any instant — an eager `capacity + 1` allocation per
        // stream is pure resident overhead.
        RankedBuffer {
            entries: Vec::new(),
            capacity,
            max_age,
            evicted: 0,
            expired: 0,
        }
    }

    /// Number of buffered entries (possibly including not-yet-swept expired
    /// ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted due to capacity pressure.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Entries dropped because they aged out.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Inserts an item. If the buffer is full and the new item outranks the
    /// current minimum, the minimum is evicted; if the new item ranks lowest
    /// it is rejected immediately. Returns `true` if the item was kept.
    pub fn push(&mut self, rank: f64, created: SimTime, item: T) -> bool {
        !matches!(self.offer(rank, created, item), PushOutcome::Rejected(_))
    }

    /// Like [`push`](Self::push), but reports the casualty of capacity
    /// pressure so callers can attribute the drop to a specific item. The
    /// `evicted` counter advances identically either way.
    pub fn offer(&mut self, rank: f64, created: SimTime, item: T) -> PushOutcome<T> {
        // Keep entries sorted descending by rank (ties: older first, so
        // earlier arrivals win at equal rank).
        let pos = self
            .entries
            .partition_point(|e| e.rank > rank || (e.rank == rank && e.created <= created));
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            if pos >= self.capacity {
                self.evicted += 1;
                return PushOutcome::Rejected(Ranked {
                    rank,
                    created,
                    item,
                });
            }
            evicted = self.entries.pop();
            self.evicted += 1;
        }
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(self.capacity + 1);
        }
        self.entries.insert(
            pos,
            Ranked {
                rank,
                created,
                item,
            },
        );
        match evicted {
            Some(e) => PushOutcome::KeptEvicting(e),
            None => PushOutcome::Kept,
        }
    }

    /// Drops entries older than the maximum age as of `now`.
    pub fn sweep(&mut self, now: SimTime) {
        self.take_expired(now);
    }

    /// Removes and returns entries older than the maximum age as of `now`,
    /// highest rank first (the order they sat in the buffer).
    pub fn take_expired(&mut self, now: SimTime) -> Vec<Ranked<T>> {
        let max_age = self.max_age;
        let mut taken = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if now.saturating_since(self.entries[i].created) > max_age {
                taken.push(self.entries.remove(i));
            } else {
                i += 1;
            }
        }
        self.expired += taken.len() as u64;
        taken
    }

    /// Removes and returns the highest-ranked non-expired item.
    pub fn pop_best(&mut self, now: SimTime) -> Option<T> {
        self.sweep(now);
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0).item)
        }
    }

    /// Peeks at the highest-ranked entry without removing it (no sweep).
    pub fn peek_best(&self) -> Option<&Ranked<T>> {
        self.entries.first()
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes and returns all entries, highest rank first.
    pub fn drain(&mut self) -> Vec<Ranked<T>> {
        std::mem::take(&mut self.entries)
    }
}

impl<T: Snap> Snap for Ranked<T> {
    fn snap(&self, w: &mut SnapWriter) {
        self.rank.snap(w);
        self.created.snap(w);
        self.item.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(Ranked {
            rank: Snap::restore(r)?,
            created: Snap::restore(r)?,
            item: Snap::restore(r)?,
        })
    }
}

/// Entries are written in buffer order (rank-descending), which is the
/// exact pop order — nothing to re-derive on restore. Reading rejects
/// states [`offer`](RankedBuffer::offer) could never produce: over-capacity
/// buffers, non-finite ranks and entries out of (rank-descending,
/// created-ascending) order.
impl<T: Snap> Snap for RankedBuffer<T> {
    fn snap(&self, w: &mut SnapWriter) {
        self.capacity.snap(w);
        self.max_age.snap(w);
        self.evicted.snap(w);
        self.expired.snap(w);
        self.entries.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let b = RankedBuffer {
            capacity: Snap::restore(r)?,
            max_age: Snap::restore(r)?,
            evicted: Snap::restore(r)?,
            expired: Snap::restore(r)?,
            entries: Vec::<Ranked<T>>::restore(r)?,
        };
        if b.capacity == 0 || b.entries.len() > b.capacity {
            return Err(SnapError::Invalid("ranked buffer: over capacity".into()));
        }
        if b.entries.iter().any(|e| !e.rank.is_finite()) {
            return Err(SnapError::Invalid("ranked buffer: non-finite rank".into()));
        }
        let ordered = |p: &[Ranked<T>]| {
            p[0].rank > p[1].rank || (p[0].rank == p[1].rank && p[0].created <= p[1].created)
        };
        if !b.entries.windows(2).all(ordered) {
            return Err(SnapError::Invalid(
                "ranked buffer: entries out of order".into(),
            ));
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn buf(cap: usize) -> RankedBuffer<u32> {
        RankedBuffer::new(cap, SimDuration::from_secs(10))
    }

    #[test]
    fn pops_in_rank_order() {
        let mut b = buf(10);
        b.push(0.3, SimTime::ZERO, 3);
        b.push(0.9, SimTime::ZERO, 9);
        b.push(0.6, SimTime::ZERO, 6);
        assert_eq!(b.pop_best(SimTime::ZERO), Some(9));
        assert_eq!(b.pop_best(SimTime::ZERO), Some(6));
        assert_eq!(b.pop_best(SimTime::ZERO), Some(3));
        assert_eq!(b.pop_best(SimTime::ZERO), None);
    }

    #[test]
    fn capacity_evicts_lowest() {
        let mut b = buf(2);
        assert!(b.push(0.5, SimTime::ZERO, 5));
        assert!(b.push(0.9, SimTime::ZERO, 9));
        assert!(b.push(0.7, SimTime::ZERO, 7)); // evicts 5
        assert_eq!(b.len(), 2);
        assert_eq!(b.evicted(), 1);
        assert_eq!(b.pop_best(SimTime::ZERO), Some(9));
        assert_eq!(b.pop_best(SimTime::ZERO), Some(7));
    }

    #[test]
    fn low_rank_rejected_when_full() {
        let mut b = buf(2);
        b.push(0.5, SimTime::ZERO, 5);
        b.push(0.9, SimTime::ZERO, 9);
        assert!(!b.push(0.1, SimTime::ZERO, 1));
        assert_eq!(b.evicted(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn expiry() {
        let mut b = buf(10);
        b.push(0.9, SimTime::ZERO, 1);
        b.push(0.5, SimTime::from_secs(8), 2);
        // At t=11s the first entry (age 11s) exceeds the 10s max age.
        assert_eq!(b.pop_best(SimTime::from_secs(11)), Some(2));
        assert_eq!(b.expired(), 1);
        assert_eq!(b.pop_best(SimTime::from_secs(11)), None);
    }

    #[test]
    fn equal_ranks_prefer_older() {
        let mut b = buf(10);
        b.push(0.5, SimTime::from_secs(2), 22);
        b.push(0.5, SimTime::from_secs(1), 11);
        assert_eq!(b.pop_best(SimTime::from_secs(3)), Some(11));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut b = buf(10);
        b.push(0.9, SimTime::ZERO, 1);
        assert_eq!(b.peek_best().unwrap().item, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        RankedBuffer::<u32>::new(0, SimDuration::from_secs(1));
    }

    #[test]
    fn offer_reports_the_casualty() {
        let mut b = buf(2);
        assert_eq!(b.offer(0.5, SimTime::ZERO, 5), PushOutcome::Kept);
        assert_eq!(b.offer(0.9, SimTime::ZERO, 9), PushOutcome::Kept);
        // New item outranks the minimum: the minimum is the casualty.
        match b.offer(0.7, SimTime::ZERO, 7) {
            PushOutcome::KeptEvicting(e) => assert_eq!(e.item, 5),
            other => panic!("expected eviction, got {other:?}"),
        }
        // New item ranks lowest: it is the casualty itself.
        match b.offer(0.1, SimTime::ZERO, 1) {
            PushOutcome::Rejected(e) => assert_eq!(e.item, 1),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(b.evicted(), 2);
    }

    #[test]
    fn take_expired_returns_aged_entries() {
        let mut b = buf(10);
        b.push(0.9, SimTime::ZERO, 1);
        b.push(0.5, SimTime::ZERO, 2);
        b.push(0.7, SimTime::from_secs(8), 3);
        let gone = b.take_expired(SimTime::from_secs(11));
        let items: Vec<u32> = gone.into_iter().map(|e| e.item).collect();
        assert_eq!(items, vec![1, 2], "rank order among the expired");
        assert_eq!(b.expired(), 2);
        assert_eq!(b.len(), 1);
        assert!(b.take_expired(SimTime::from_secs(11)).is_empty());
    }

    proptest! {
        /// Pop order is always non-increasing in rank, and capacity is
        /// never exceeded.
        #[test]
        fn ordering_invariant(
            items in proptest::collection::vec((0.0f64..1.0, 0u64..5), 1..50),
            cap in 1usize..8,
        ) {
            let mut b = RankedBuffer::new(cap, SimDuration::from_secs(100));
            for (i, &(rank, t)) in items.iter().enumerate() {
                b.push(rank, SimTime::from_secs(t), i);
                prop_assert!(b.len() <= cap);
            }
            let mut last = f64::INFINITY;
            while let Some(&Ranked { rank, .. }) = b.peek_best() {
                prop_assert!(rank <= last);
                last = rank;
                b.pop_best(SimTime::from_secs(5));
            }
        }

        /// Kept entries are always the top-`cap` by rank among pushes
        /// (with ties broken by arrival, which we don't assert exactly).
        #[test]
        fn keeps_high_ranks(
            ranks in proptest::collection::vec(0.0f64..1.0, 1..40),
        ) {
            let cap = 5usize;
            let mut b = RankedBuffer::new(cap, SimDuration::from_secs(100));
            for (i, &r) in ranks.iter().enumerate() {
                b.push(r, SimTime::ZERO, i);
            }
            let mut sorted = ranks.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let threshold = sorted.get(cap.min(sorted.len()) - 1).copied().unwrap_or(0.0);
            // Every kept rank is at least the cap-th best rank.
            while let Some(e) = b.peek_best() {
                prop_assert!(e.rank >= threshold - 1e-12);
                b.pop_best(SimTime::ZERO);
            }
        }
    }
}
