//! The per-stream bookkeeping every BRASS application shares: each
//! stream's state, the streams listed under each key an update fans out by
//! (a video, a post, a friend), and the timers and WAS requests that name a
//! stream. An application's handlers then hold only its policy (Muppet's
//! split: the framework owns each key's state).
//!
//! States sit in [`SlotTable`] slots. Only a subscribe and a close resolve
//! a [`StreamKey`]; watcher lists, timers and requests carry the slot, and
//! a timer or request *holds* it, so one that outlives its stream finds the
//! key's current stream (or none), exactly as a lookup by key would. A
//! snapshot writes keys, never slots.

use std::hash::Hash;

use simkit::collections::{SeqMap, SlotTable};
use simkit::fxhash::FxHashMap;
use simkit::snap::{restore_sorted, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::SimDuration;

use crate::app::{Ctx, FetchToken, StreamKey};

/// One stream's state in a [`StreamTable`].
pub trait Stream: Snap {
    /// What a stream is listed under for fan-out.
    type Watch: Copy + Eq + Hash + Ord + Snap;

    /// Every key this stream is listed under.
    fn watches(&self) -> impl Iterator<Item = Self::Watch> + '_;

    /// The token of the one timer this stream keeps armed, if the app
    /// tracks it: a restore requires the timer table to hold it.
    fn armed(&self) -> Option<u64> {
        None
    }
}

/// Streams by slot, their watcher lists, requests carrying `F`, timers.
pub struct StreamTable<S: Stream, F = ()> {
    streams: SlotTable<StreamKey, S>,
    /// Each watch key's streams in subscribe order, the fan-out order.
    watchers: FxHashMap<S::Watch, Vec<u32>>,
    /// In-flight WAS requests, by [`FetchToken`] value.
    fetches: SeqMap<(u32, F)>,
    /// Armed timers, by token.
    timers: SeqMap<u32>,
    next_timer: u64,
}

impl<S: Stream, F> Default for StreamTable<S, F> {
    fn default() -> Self {
        StreamTable {
            streams: SlotTable::new(),
            watchers: FxHashMap::default(),
            fetches: SeqMap::new(),
            timers: SeqMap::new(),
            next_timer: 0,
        }
    }
}

impl<S: Stream, F> StreamTable<S, F> {
    /// The stream in `slot`, if open.
    pub fn get(&self, slot: u32) -> Option<&S> {
        self.streams.get(slot)
    }

    /// The stream in `slot`, mutably, if open.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut S> {
        self.streams.get_mut(slot)
    }

    /// The key of `slot`. Meaningful while the slot is open or held.
    pub fn key(&self, slot: u32) -> StreamKey {
        *self.streams.key(slot)
    }

    /// `key`'s stream, if open.
    pub fn find_mut(&mut self, key: &StreamKey) -> Option<&mut S> {
        self.get_mut(self.streams.slot(key)?)
    }

    /// Opens `key` with `state` and returns its slot and the state it
    /// replaced, if `key` was open. The stream keeps its place under every
    /// key both states watch, leaves the lists only the replaced state
    /// watched, and joins, last, those only `state` watches.
    pub fn open(&mut self, key: StreamKey, state: S) -> (u32, Option<S>) {
        let (slot, replaced) = self.streams.replace(key, state);
        let StreamTable {
            streams, watchers, ..
        } = self;
        let state = streams.get(slot).expect("just opened");
        for watch in replaced.iter().flat_map(S::watches) {
            if !state.watches().any(|w| w == watch) {
                Self::unlist(watchers, slot, watch);
            }
        }
        for watch in state.watches() {
            Self::list(watchers, slot, watch);
        }
        (slot, replaced)
    }

    /// Closes `key`: takes its state and unlists it. Timers and requests
    /// still hold the slot.
    pub fn close(&mut self, key: &StreamKey) -> Option<S> {
        let slot = self.streams.slot(key)?;
        let state = self.streams.take(slot)?;
        for watch in state.watches() {
            Self::unlist(&mut self.watchers, slot, watch);
        }
        Some(state)
    }

    /// Lists the stream in `slot` under `watch`, after the streams already
    /// there, unless it is listed already. The caller's state must report
    /// `watch` among its [`Stream::watches`].
    pub fn watch(&mut self, slot: u32, watch: S::Watch) {
        Self::list(&mut self.watchers, slot, watch);
    }

    fn list(watchers: &mut FxHashMap<S::Watch, Vec<u32>>, slot: u32, watch: S::Watch) {
        let list = watchers.entry(watch).or_default();
        if !list.contains(&slot) {
            list.push(slot);
        }
    }

    fn unlist(watchers: &mut FxHashMap<S::Watch, Vec<u32>>, slot: u32, watch: S::Watch) {
        if let Some(list) = watchers.get_mut(&watch) {
            list.retain(|&s| s != slot);
            if list.is_empty() {
                watchers.remove(&watch);
            }
        }
    }

    /// Runs `f` on the slot of every stream listed under `watch`, in
    /// subscribe order. `f` may use the whole table but must not list or
    /// unlist anything under `watch`: the list is taken out while it runs.
    pub fn fan_out(&mut self, watch: &S::Watch, mut f: impl FnMut(&mut Self, u32)) {
        let Some(list) = self.watchers.get_mut(watch) else {
            return;
        };
        let list = std::mem::take(list);
        for &slot in &list {
            f(self, slot);
        }
        let place = self.watchers.get_mut(watch).expect("fan-out kept its list");
        debug_assert!(place.is_empty(), "fan-out changed its own list");
        *place = list;
    }

    /// Arms a timer for the stream in `slot`, firing `after` from now; the
    /// timer holds the slot. Returns its token.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, slot: u32, after: SimDuration) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.streams.hold(slot);
        self.timers.insert(token, slot);
        ctx.timer(after, token);
        token
    }

    /// Takes a fired timer: the slot it named, if it is still armed. The
    /// slot's stream, if open, is the key's current one; if none is open
    /// the slot may be freed, so arm or await on it only while it is.
    pub fn fire(&mut self, token: u64) -> Option<u32> {
        let slot = self.timers.remove(token)?;
        self.streams.release(slot);
        Some(slot)
    }

    /// Disarms every timer naming `slot`; when they fire they do nothing.
    pub fn disarm(&mut self, slot: u32) {
        let StreamTable {
            streams, timers, ..
        } = self;
        timers.retain(|_, &armed| {
            if armed == slot {
                streams.release(armed);
            }
            armed != slot
        });
    }

    /// Armed timers.
    pub fn timer_count(&self) -> usize {
        self.timers.len()
    }

    /// Records an in-flight request for the stream in `slot`; it holds the
    /// slot until answered.
    pub fn await_fetch(&mut self, token: FetchToken, slot: u32, fetch: F) {
        self.streams.hold(slot);
        self.fetches.insert(token.0, (slot, fetch));
    }

    /// Takes an answered request: the slot it named and what it carried,
    /// on the same terms as [`fire`](Self::fire).
    pub fn answer(&mut self, token: FetchToken) -> Option<(u32, F)> {
        let (slot, fetch) = self.fetches.remove(token.0)?;
        self.streams.release(slot);
        Some((slot, fetch))
    }

    /// Open streams, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &S> {
        self.streams.values()
    }
}

fn invalid(what: &str) -> SnapError {
    SnapError::Invalid(format!("brass streams: {what}"))
}

/// Streams, watcher lists, requests, timers and the timer counter, each
/// slot written as its key. Restoring checks every cross-reference: each
/// watcher watches its key, no timer token has reached the counter, each
/// armed tick is in the timer table.
impl<S, F> Snap for StreamTable<S, F>
where
    S: Stream,
    F: Snap,
{
    fn snap(&self, w: &mut SnapWriter) {
        let key = |slot: u32| self.key(slot);
        self.streams.snap(w);
        let mut lists: Vec<(&S::Watch, &Vec<u32>)> = self.watchers.iter().collect();
        lists.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_usize(lists.len());
        for (watch, slots) in lists {
            watch.snap(w);
            w.put_usize(slots.len());
            slots.iter().for_each(|&slot| key(slot).snap(w));
        }
        w.put_usize(self.fetches.len());
        for (token, (slot, fetch)) in self.fetches.iter() {
            token.snap(w);
            key(*slot).snap(w);
            fetch.snap(w);
        }
        w.put_usize(self.timers.len());
        for (token, &slot) in self.timers.iter() {
            token.snap(w);
            key(slot).snap(w);
        }
        self.next_timer.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let mut table: StreamTable<S, F> = StreamTable {
            streams: Snap::restore(r)?,
            ..StreamTable::default()
        };
        let watchers: FxHashMap<S::Watch, Vec<StreamKey>> = Snap::restore(r)?;
        let by_token = |a: &(u64, (StreamKey, F)), b: &(u64, (StreamKey, F))| a.0 < b.0;
        let fetches = restore_sorted(r, by_token)?;
        let timers: SeqMap<StreamKey> = Snap::restore(r)?;
        table.next_timer = Snap::restore(r)?;
        for (watch, keys) in watchers {
            let streams = &table.streams;
            let watching = |key: &StreamKey| {
                let slot = streams.slot(key)?;
                streams
                    .get(slot)?
                    .watches()
                    .any(|w| w == watch)
                    .then_some(slot)
            };
            let slots: Option<Vec<u32>> = keys.iter().map(watching).collect();
            table
                .watchers
                .insert(watch, slots.ok_or_else(|| invalid("dangling watcher"))?);
        }
        if timers.keys().any(|token| token >= table.next_timer) {
            return Err(invalid("timer token at or above the counter"));
        }
        for (slot, state) in table.streams.iter() {
            let key = table.streams.key(slot);
            if state.armed().is_some_and(|t| timers.get(t) != Some(key)) {
                return Err(invalid("armed tick not in the timer table"));
            }
        }
        for (token, (key, fetch)) in fetches {
            let slot = table.streams.acquire(key);
            table.fetches.insert(token, (slot, fetch));
        }
        for (token, &key) in timers.iter() {
            let slot = table.streams.acquire(key);
            table.timers.insert(token, slot);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use burst::frame::StreamId;
    use simkit::snap::Snap;
    use simkit::snap_struct;
    use simkit::time::SimTime;

    use super::*;
    use crate::app::{AppCounters, DeviceId, Effect};

    /// A stream watching one key, with an optional armed tick.
    struct Toy {
        watch: u64,
        armed: Option<u64>,
    }

    snap_struct!(Toy { watch, armed });

    impl Stream for Toy {
        type Watch = u64;

        fn watches(&self) -> impl Iterator<Item = u64> + '_ {
            std::iter::once(self.watch)
        }

        fn armed(&self) -> Option<u64> {
            self.armed
        }
    }

    fn key(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn toy(watch: u64) -> Toy {
        Toy { watch, armed: None }
    }

    /// Runs `f` with a handler context; returns the effects it emitted.
    fn with_ctx(f: impl FnOnce(&mut Ctx<'_>)) -> Vec<Effect> {
        let none = BTreeSet::new();
        let (mut effects, mut counters, mut token) = (Vec::new(), AppCounters::default(), 0);
        f(&mut Ctx::new(
            SimTime::ZERO,
            &mut effects,
            &mut counters,
            &mut token,
            &none,
        ));
        effects
    }

    fn bytes(table: &StreamTable<Toy, u8>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        table.snap(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> SnapResult<StreamTable<Toy, u8>> {
        let mut r = SnapReader::new(bytes);
        let table = StreamTable::restore(&mut r)?;
        r.finish()?;
        Ok(table)
    }

    /// A table in the snapshot's own layout, written field by field, so a
    /// test can state cross-references no handler sequence would leave.
    fn written(
        streams: &[(u64, Toy)],
        watchers: &[(u64, &[u64])],
        timers: &[(u64, u64)],
        next_timer: u64,
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_usize(streams.len());
        for (n, state) in streams {
            key(*n).snap(&mut w);
            state.snap(&mut w);
        }
        w.put_usize(watchers.len());
        for (watch, keys) in watchers {
            watch.snap(&mut w);
            keys.iter()
                .map(|&n| key(n))
                .collect::<Vec<_>>()
                .snap(&mut w);
        }
        w.put_usize(0); // no fetches
        w.put_usize(timers.len());
        for (token, n) in timers {
            token.snap(&mut w);
            key(*n).snap(&mut w);
        }
        next_timer.snap(&mut w);
        w.into_bytes()
    }

    fn rejects(bytes: &[u8], what: &str) {
        match restore(bytes) {
            Err(SnapError::Invalid(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(other) => panic!("rejected for another reason: {other}"),
            Ok(_) => panic!("accepted a table with a {what}"),
        }
    }

    #[test]
    fn restore_checks_every_cross_reference() {
        let armed = |watch, t| Toy {
            watch,
            armed: Some(t),
        };
        let valid = written(
            &[(1, armed(7, 0)), (2, toy(7)), (3, toy(8))],
            &[(7, &[2, 1]), (8, &[3])],
            &[(0, 1), (1, 4)],
            2,
        );
        let table = restore(&valid).expect("a consistent table restores");
        assert_eq!(bytes(&table), valid, "and re-snapshots to the same bytes");

        // A watcher whose key is not open, or is open watching another key.
        rejects(
            &written(&[(1, toy(7))], &[(7, &[1, 2])], &[], 0),
            "dangling watcher",
        );
        rejects(
            &written(&[(1, toy(7)), (2, toy(8))], &[(7, &[1, 2])], &[], 0),
            "dangling watcher",
        );
        // A timer token the counter has not reached yet.
        rejects(
            &written(&[(1, toy(7))], &[(7, &[1])], &[(2, 1)], 2),
            "timer token at or above the counter",
        );
        // An armed tick the timer table lacks, or holds for another stream.
        rejects(
            &written(&[(1, armed(7, 0))], &[(7, &[1])], &[], 1),
            "armed tick not in the timer table",
        );
        rejects(
            &written(
                &[(1, armed(7, 0)), (2, toy(7))],
                &[(7, &[1, 2])],
                &[(0, 2)],
                1,
            ),
            "armed tick not in the timer table",
        );
    }

    /// Fan-out follows subscribe order; a replaced or closed stream leaves
    /// every list; a held slot reaches the key's reopened stream.
    #[test]
    fn lists_follow_opens_and_closes() {
        let mut table: StreamTable<Toy, u8> = StreamTable::default();
        for n in [3, 1, 2] {
            table.open(key(n), toy(7));
        }
        let order = |table: &mut StreamTable<Toy, u8>, watch| {
            let mut keys = Vec::new();
            table.fan_out(&watch, |t, slot| keys.push(t.key(slot).device.0));
            keys
        };
        assert_eq!(order(&mut table, 7), vec![3, 1, 2]);

        let (slot, replaced) = table.open(key(1), toy(8));
        assert_eq!(replaced.map(|t| t.watch), Some(7));
        assert_eq!(order(&mut table, 7), vec![3, 2]);
        assert_eq!(order(&mut table, 8), vec![1]);

        let fx = with_ctx(|ctx| {
            table.arm(ctx, slot, SimDuration::from_secs(1));
        });
        assert!(matches!(fx[..], [Effect::Timer { token: 0, .. }]));
        table.await_fetch(FetchToken(5), slot, 9);
        assert_eq!(table.close(&key(1)).map(|t| t.watch), Some(8));
        assert!(order(&mut table, 8).is_empty() && table.find_mut(&key(1)).is_none());
        assert_eq!(table.values().count(), 2);

        // Closed, but named by a timer and a fetch: reopening reaches them.
        let (reopened, _) = table.open(key(1), toy(9));
        assert_eq!(reopened, slot);
        assert_eq!(table.fire(0), Some(slot));
        assert_eq!(table.answer(FetchToken(5)), Some((slot, 9)));
        assert_eq!(table.get(slot).map(|t| t.watch), Some(9));
        assert_eq!((table.fire(0), table.timer_count()), (None, 0));
    }
}
