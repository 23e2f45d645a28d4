//! The per-stream bookkeeping every BRASS application shares: each
//! stream's state, Pylon topics and armed timer, the streams listed under
//! each topic, and the WAS requests that name a stream. An application's
//! handlers then hold only its policy (Muppet's split: the framework owns
//! each key's state). An application declares each stream's topics
//! ([`StreamTable::set_topics`]) and never subscribes itself: the table
//! lists a topic's holders in the order they declared it, the order an
//! update on it fans out in, and those lists are the application's one
//! record of interest. A topic is subscribed when its list is opened and
//! unsubscribed when it empties; the host asks [`StreamTable::watches`].
//!
//! States sit in [`SlotTable`] slots. Only a subscribe and a close resolve
//! a [`StreamKey`]; watcher lists, timers and requests carry the slot.
//! An open stream has at most one armed timer, kept in its entry: arming
//! replaces it, and opening or closing the key ends it, so a timer only
//! ever ticks the stream it was armed for and holds no slot. A request
//! *holds* its slot, so one that outlives its stream finds the key's
//! current stream (or none), exactly as a lookup by key would: an answer
//! is the backend's reply for the key's device, not a step of one
//! stream's cadence, so a payload fetched for a stream that closed still
//! reaches the stream that reopened its key (LVC sends the popped comment
//! there). A snapshot writes keys, never slots, and topic names, never
//! ids.

use std::collections::BTreeMap;

use pylon::{Topic, TopicId};
use simkit::collections::{SeqMap, SlotTable};
use simkit::fxhash::{FxHashMap, FxHashSet};
use simkit::snap::{restore_sorted, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::SimDuration;

use crate::app::{Ctx, FetchToken, StreamKey};

/// A stream's topics in the order it declared them: the first inline, the
/// rest behind one thin pointer, so a one-topic stream allocates nothing
/// and the pair takes 16 bytes.
#[derive(Default)]
struct Topics(Option<TopicId>, Option<Box<Box<[TopicId]>>>);

const _: () = assert!(std::mem::size_of::<Topics>() == 16);

impl Topics {
    fn iter(&self) -> impl Iterator<Item = TopicId> + '_ {
        let rest = self.1.iter().flat_map(|rest| rest.iter().copied());
        self.0.into_iter().chain(rest)
    }

    fn holds(&self, id: TopicId) -> bool {
        self.iter().any(|held| held == id)
    }
}

impl FromIterator<TopicId> for Topics {
    fn from_iter<I: IntoIterator<Item = TopicId>>(ids: I) -> Self {
        let mut ids = ids.into_iter();
        let (first, rest) = (ids.next(), ids.collect::<Box<[TopicId]>>());
        Topics(first, (!rest.is_empty()).then(|| Box::new(rest)))
    }
}

/// An [`Entry::timer`] with no armed timer.
const UNARMED: u64 = u64::MAX;

/// An open stream: its state, the topics it holds and its armed timer.
struct Entry<S> {
    state: S,
    topics: Topics,
    /// The token of the stream's armed timer, or [`UNARMED`].
    timer: u64,
}

impl<S> Entry<S> {
    /// A stream holding `topics` and no timer.
    fn unarmed(state: S, topics: Topics) -> Self {
        Entry {
            state,
            topics,
            timer: UNARMED,
        }
    }

    /// Ends the stream's armed timer, if any: its fire will find nothing.
    fn stop_timer(&mut self, timers: &mut SeqMap<u32>) {
        if self.timer != UNARMED {
            timers.remove(self.timer);
            self.timer = UNARMED;
        }
    }
}

/// Streams by slot, their topics and watcher lists, requests carrying
/// `F`, timers.
pub struct StreamTable<S, F = ()> {
    streams: SlotTable<StreamKey, Entry<S>>,
    /// Each topic's holders in the order they declared it: the fan-out
    /// order.
    watchers: FxHashMap<TopicId, Vec<u32>>,
    /// In-flight WAS requests, by [`FetchToken`] value.
    fetches: SeqMap<(u32, F)>,
    /// Each open stream's armed timer, by token: the slot it ticks.
    timers: SeqMap<u32>,
    next_timer: u64,
}

impl<S, F> Default for StreamTable<S, F> {
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

impl<S, F> StreamTable<S, F> {
    /// The stream in `slot`, if open.
    pub fn get(&self, slot: u32) -> Option<&S> {
        self.streams.get(slot).map(|e| &e.state)
    }

    /// The stream in `slot`, mutably, if open.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut S> {
        self.streams.get_mut(slot).map(|e| &mut e.state)
    }

    /// The key of `slot`. Meaningful while the slot is open or held.
    pub fn key(&self, slot: u32) -> StreamKey {
        *self.streams.key(slot)
    }

    /// `key`'s stream, if open.
    pub fn find_mut(&mut self, key: &StreamKey) -> Option<&mut S> {
        self.get_mut(self.streams.slot(key)?)
    }

    /// Opens `key` with `state` and returns its slot. If `key` was open,
    /// `state` replaces the old one, takes over its topics and its place in
    /// their lists, and its timer ends; a new stream holds no topic and no
    /// timer.
    pub fn open(&mut self, key: StreamKey, state: S) -> u32 {
        let live = self.streams.slot(&key);
        if let Some((slot, entry)) = live.and_then(|s| Some((s, self.streams.get_mut(s)?))) {
            entry.state = state;
            entry.stop_timer(&mut self.timers);
            return slot;
        }
        self.streams
            .insert(key, Entry::unarmed(state, Topics::default()))
    }

    /// Declares the topics of the stream in `slot`, if open. Topics it
    /// keeps keep their order and list places; new ones join their lists
    /// last; then dropped ones leave their lists, so a kept topic never
    /// churns. A list opened or emptied subscribes or unsubscribes its
    /// topic.
    pub fn set_topics(&mut self, ctx: &mut Ctx<'_>, slot: u32, topics: &[Topic]) {
        let Some(entry) = self.streams.get_mut(slot) else {
            return;
        };
        let held = std::mem::take(&mut entry.topics);
        let named = |id| topics.iter().any(|t| t.id() == id);
        // Each topic the set gains, once, in declaration order.
        let new = |&(i, t): &(usize, &Topic)| !held.holds(t.id()) && !topics[..i].contains(t);
        let added = || topics.iter().enumerate().filter(&new).map(|(_, &t)| t);
        let kept = held.iter().filter(|&id| named(id));
        entry.topics = kept.chain(added().map(|t| t.id())).collect();
        for topic in added() {
            let list = self.watchers.entry(topic.id()).or_default();
            if list.is_empty() {
                ctx.subscribe(topic);
            }
            list.push(slot);
        }
        for id in held.iter().filter(|&id| !named(id)) {
            self.release_topic(ctx, slot, id);
        }
    }

    /// Closes `key`: takes its state, ends its timer and releases its
    /// topics, in the order it declared them. Requests still hold the slot.
    pub fn close(&mut self, ctx: &mut Ctx<'_>, key: &StreamKey) -> Option<S> {
        let slot = self.streams.slot(key)?;
        let mut entry = self.streams.take(slot)?;
        entry.stop_timer(&mut self.timers);
        for id in entry.topics.iter() {
            self.release_topic(ctx, slot, id);
        }
        Some(entry.state)
    }

    /// Unlists the stream in `slot` from `id`; the last one out
    /// unsubscribes the topic.
    fn release_topic(&mut self, ctx: &mut Ctx<'_>, slot: u32, id: TopicId) {
        if let Some(list) = self.watchers.get_mut(&id) {
            list.retain(|&s| s != slot);
            if list.is_empty() {
                self.watchers.remove(&id);
                ctx.unsubscribe(Topic::of_id(id));
            }
        }
    }

    /// Whether an open stream holds `topic`.
    pub fn watches(&self, topic: TopicId) -> bool {
        self.watchers.contains_key(&topic)
    }

    /// Runs `f` on the slot of every stream holding `topic`, in the order
    /// they declared it. `f` may use the whole table but must not change
    /// who holds `topic`: the list is taken out while it runs.
    pub fn fan_out(&mut self, topic: &Topic, mut f: impl FnMut(&mut Self, u32)) {
        let Some(list) = self.watchers.get_mut(&topic.id()) else {
            return;
        };
        let list = std::mem::take(list);
        for &slot in &list {
            f(self, slot);
        }
        let place = self
            .watchers
            .get_mut(&topic.id())
            .expect("fan-out kept its list");
        debug_assert!(place.is_empty(), "fan-out changed its own list");
        *place = list;
    }

    /// Arms the timer of the open stream in `slot`, firing `after` from
    /// now; it replaces the stream's armed timer, if any.
    ///
    /// # Panics
    ///
    /// If no stream is open in `slot`.
    pub fn arm(&mut self, ctx: &mut Ctx<'_>, slot: u32, after: SimDuration) {
        let token = self.next_timer;
        self.next_timer += 1;
        let entry = self.streams.get_mut(slot).expect("arms an open stream");
        entry.stop_timer(&mut self.timers);
        entry.timer = token;
        self.timers.insert(token, slot);
        ctx.timer(after, token);
    }

    /// Takes a fired timer: the slot of the open stream it was armed for,
    /// if it is still that stream's timer. Its stream is then unarmed.
    pub fn fire(&mut self, token: u64) -> Option<u32> {
        let slot = self.timers.remove(token)?;
        self.streams.get_mut(slot).expect("timed and open").timer = UNARMED;
        Some(slot)
    }

    /// Whether the stream in `slot` is open with a timer armed.
    pub fn armed(&self, slot: u32) -> bool {
        self.streams.get(slot).is_some_and(|e| e.timer != UNARMED)
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

    /// Takes an answered request: the slot it named and what it carried.
    /// The slot's stream, if open, is the key's current one; if none is
    /// open the slot may be freed, so arm or await on it only while it is.
    pub fn answer(&mut self, token: FetchToken) -> Option<(u32, F)> {
        let (slot, fetch) = self.fetches.remove(token.0)?;
        self.streams.release(slot);
        Some((slot, fetch))
    }

    /// Open streams, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &S> {
        self.streams.values().map(|e| &e.state)
    }
}

fn invalid(what: &str) -> SnapError {
    SnapError::Invalid(format!("brass streams: {what}"))
}

/// A stream's state, then its topics' names in the order it declared them.
impl<S: Snap> Snap for Entry<S> {
    fn snap(&self, w: &mut SnapWriter) {
        self.state.snap(w);
        let names: Vec<Topic> = self.topics.iter().map(Topic::of_id).collect();
        names.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let (state, names): (S, Vec<Topic>) = Snap::restore(r)?;
        let twice = |(i, t): (usize, &Topic)| names[..i].contains(t);
        if names.iter().enumerate().any(twice) {
            return Err(invalid("a topic held twice by one stream"));
        }
        Ok(Entry::unarmed(state, names.iter().map(Topic::id).collect()))
    }
}

/// Streams with their topics, watcher lists by topic name, requests,
/// timers and the timer counter, each slot written as its key. Restoring
/// checks every cross-reference: a list names only streams that hold its
/// topic, each once, and every held topic's list names its holder; each
/// timer names an open stream, no stream has two, and no token has
/// reached the counter.
impl<S, F> Snap for StreamTable<S, F>
where
    S: Snap,
    F: Snap,
{
    fn snap(&self, w: &mut SnapWriter) {
        let key = |slot: u32| self.key(slot);
        self.streams.snap(w);
        let list = |slots: &Vec<u32>| slots.iter().map(|&slot| key(slot)).collect();
        let lists = self.watchers.iter();
        let lists = lists.map(|(&id, slots)| (Topic::of_id(id), list(slots)));
        lists.collect::<BTreeMap<Topic, Vec<StreamKey>>>().snap(w);
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
        let watchers: FxHashMap<Topic, Vec<StreamKey>> = Snap::restore(r)?;
        let by_token = |a: &(u64, (StreamKey, F)), b: &(u64, (StreamKey, F))| a.0 < b.0;
        let fetches = restore_sorted(r, by_token)?;
        let timers: SeqMap<StreamKey> = Snap::restore(r)?;
        table.next_timer = Snap::restore(r)?;
        let mut listed = FxHashSet::default();
        for (topic, keys) in watchers {
            let streams = &table.streams;
            let id = topic.id();
            let holds = |slot| streams.get(slot).is_some_and(|e| e.topics.holds(id));
            let mut slots = Vec::with_capacity(keys.len());
            for key in &keys {
                let slot = streams.slot(key).filter(|&slot| holds(slot));
                let slot = slot.ok_or_else(|| invalid("a list names a non-holder"))?;
                if !listed.insert((slot, id)) {
                    return Err(invalid("a stream listed twice under one topic"));
                }
                slots.push(slot);
            }
            table.watchers.insert(id, slots);
        }
        if timers.keys().any(|token| token >= table.next_timer) {
            return Err(invalid("timer token at or above the counter"));
        }
        for (slot, entry) in table.streams.iter() {
            if entry.topics.iter().any(|id| !listed.contains(&(slot, id))) {
                return Err(invalid("a held topic no list names"));
            }
        }
        for (token, key) in timers.iter() {
            let entry = table.streams.slot(key);
            let entry = entry.and_then(|slot| Some((slot, table.streams.get_mut(slot)?)));
            let (slot, entry) = entry.ok_or_else(|| invalid("a timer names a closed stream"))?;
            if entry.timer != UNARMED {
                return Err(invalid("a stream with two timers"));
            }
            entry.timer = token;
            table.timers.insert(token, slot);
        }
        for (token, (key, fetch)) in fetches {
            let slot = table.streams.acquire(key);
            table.fetches.insert(token, (slot, fetch));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use burst::frame::StreamId;
    use proptest::prelude::*;
    use simkit::snap::Snap;
    use simkit::snap_struct;
    use simkit::time::SimTime;

    use super::*;
    use crate::app::{AppCounters, DeviceId, Effect};

    /// A stream's state: a tag that tells incarnations apart.
    #[derive(Default)]
    struct Toy {
        tag: u8,
    }

    snap_struct!(Toy { tag });

    fn key(n: u64) -> StreamKey {
        StreamKey {
            device: DeviceId(n),
            sid: StreamId(n),
        }
    }

    fn topic(n: u64) -> Topic {
        Topic::new(&format!("/toy/{n}")).expect("static shape")
    }

    fn tagged(tag: u8) -> Toy {
        Toy { tag }
    }

    /// Runs `f` with a handler context; returns the effects it emitted.
    fn with_ctx<T>(f: impl FnOnce(&mut Ctx<'_>) -> T) -> (T, Vec<Effect>) {
        let none = BTreeSet::new();
        let (mut effects, mut counters, mut token) = (Vec::new(), AppCounters::default(), 0);
        let out = f(&mut Ctx::new(
            SimTime::ZERO,
            &mut effects,
            &mut counters,
            &mut token,
            &none,
        ));
        (out, effects)
    }

    /// Opens `n` holding `topics`.
    fn open(table: &mut StreamTable<Toy, u8>, n: u64, topics: &[u64]) -> u32 {
        let slot = table.open(key(n), Toy::default());
        let topics: Vec<Topic> = topics.iter().map(|&t| topic(t)).collect();
        with_ctx(|ctx| table.set_topics(ctx, slot, &topics));
        slot
    }

    /// The devices `fan_out` visits for topic `t`, in order.
    fn order(table: &mut StreamTable<Toy, u8>, t: u64) -> Vec<u64> {
        let mut keys = Vec::new();
        table.fan_out(&topic(t), |table, slot| keys.push(table.key(slot).device.0));
        keys
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
        streams: &[(u64, Toy, &[u64])],
        watchers: &[(u64, &[u64])],
        timers: &[(u64, u64)],
        next_timer: u64,
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_usize(streams.len());
        for (n, state, topics) in streams {
            key(*n).snap(&mut w);
            state.snap(&mut w);
            topics
                .iter()
                .map(|&t| topic(t))
                .collect::<Vec<_>>()
                .snap(&mut w);
        }
        w.put_usize(watchers.len());
        for (t, keys) in watchers {
            topic(*t).snap(&mut w);
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
            Ok(_) => panic!("accepted a table with {what}"),
        }
    }

    #[test]
    fn restore_checks_every_cross_reference() {
        let none = Toy::default;
        let valid = written(
            &[
                (1, tagged(1), &[7]),
                (2, none(), &[8, 7]),
                (3, none(), &[8]),
            ],
            &[(7, &[2, 1]), (8, &[3, 2])],
            &[(0, 1), (1, 3)],
            2,
        );
        let table = restore(&valid).expect("a consistent table restores");
        assert_eq!(bytes(&table), valid, "and re-snapshots to the same bytes");

        // A list naming a stream that is not open, or open without its
        // topic.
        let non_holder = "a list names a non-holder";
        rejects(
            &written(&[(1, none(), &[7])], &[(7, &[1, 2])], &[], 0),
            non_holder,
        );
        rejects(
            &written(
                &[(1, none(), &[7]), (2, none(), &[8])],
                &[(7, &[1, 2]), (8, &[2])],
                &[],
                0,
            ),
            non_holder,
        );
        // A stream listed twice under one topic.
        rejects(
            &written(&[(1, none(), &[7])], &[(7, &[1, 1])], &[], 0),
            "a stream listed twice under one topic",
        );
        // A held topic no list names.
        rejects(
            &written(&[(1, none(), &[7, 8])], &[(7, &[1])], &[], 0),
            "a held topic no list names",
        );
        // A topic held twice by one stream.
        rejects(
            &written(&[(1, none(), &[7, 7])], &[(7, &[1])], &[], 0),
            "a topic held twice by one stream",
        );
        // A timer token the counter has not reached yet.
        rejects(
            &written(&[(1, none(), &[7])], &[(7, &[1])], &[(2, 1)], 2),
            "timer token at or above the counter",
        );
        // A timer naming a stream that is not open, and two timers on one
        // stream.
        rejects(
            &written(&[(1, none(), &[7])], &[(7, &[1])], &[(0, 4)], 1),
            "a timer names a closed stream",
        );
        rejects(
            &written(&[(1, none(), &[7])], &[(7, &[1])], &[(0, 1), (1, 1)], 2),
            "a stream with two timers",
        );
    }

    /// Fan-out follows declaration order; a replacing state keeps its
    /// topics and places; a declared set subscribes what it gains before
    /// it unsubscribes what it loses, and only a topic whose list opens or
    /// empties; a closed stream releases its topics in declaration order
    /// and ends its timer; a fetch's held slot reaches the key's reopened
    /// stream, its timer does not.
    #[test]
    fn topics_follow_declarations() {
        let mut table: StreamTable<Toy, u8> = StreamTable::default();
        for n in [3, 1, 2] {
            open(&mut table, n, &[7]);
        }
        assert_eq!(order(&mut table, 7), vec![3, 1, 2]);

        let slot = table.open(key(1), tagged(1));
        assert!(table.get(slot).is_some_and(|t| t.tag == 1));
        assert_eq!(order(&mut table, 7), vec![3, 1, 2], "kept its place");

        let set = [8, 7, 9, 8].map(topic);
        let ((), fx) = with_ctx(|ctx| table.set_topics(ctx, slot, &set));
        let sub = Effect::SubscribeTopic;
        assert_eq!(fx, vec![sub(topic(8)), sub(topic(9))], "7 is kept");
        assert_eq!(order(&mut table, 7), vec![3, 1, 2]);
        let ((), fx) = with_ctx(|ctx| table.set_topics(ctx, slot, &[topic(9), topic(5)]));
        let unsub = Effect::UnsubscribeTopic;
        assert_eq!(fx, vec![sub(topic(5)), unsub(topic(8))], "3 and 2 hold 7");
        assert_eq!(order(&mut table, 7), vec![3, 2]);
        assert_eq!(order(&mut table, 9), vec![1]);

        let ((), fx) = with_ctx(|ctx| table.arm(ctx, slot, SimDuration::from_secs(1)));
        assert!(matches!(fx[..], [Effect::Timer { token: 0, .. }]));
        table.await_fetch(FetchToken(5), slot, 9);
        let (closed, fx) = with_ctx(|ctx| table.close(ctx, &key(1)));
        assert!(closed.is_some());
        assert_eq!(fx, vec![unsub(topic(9)), unsub(topic(5))]);
        assert!(order(&mut table, 9).is_empty() && table.find_mut(&key(1)).is_none());
        assert_eq!(table.values().count(), 2);
        assert_eq!(table.timer_count(), 0, "the close ended the timer");

        // Closed, but named by a fetch: reopening reaches it, holding no
        // topic and no timer; the closed stream's timer fires into nothing.
        let reopened = table.open(key(1), Toy::default());
        assert_eq!(reopened, slot);
        assert!(!table.armed(slot));
        assert_eq!(table.fire(0), None);
        assert_eq!(table.answer(FetchToken(5)), Some((slot, 9)));
        let (_, fx) = with_ctx(|ctx| table.close(ctx, &key(1)));
        assert!(fx.is_empty(), "the reopened stream held nothing");
    }

    /// One step of [`random_sequences_keep_interest_equal_to_the_sets`].
    #[derive(Clone, Debug)]
    enum Op {
        Open(u64),
        SetTopics(u64, Vec<u64>),
        Close(u64),
        Arm(u64),
        /// Fires the n-th token armed so far (modulo their count).
        Fire(usize),
        FanOut(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        let stream = 0u64..4;
        prop_oneof![
            stream.clone().prop_map(Op::Open),
            (stream.clone(), proptest::collection::vec(0u64..5, 0..5))
                .prop_map(|(n, ts)| Op::SetTopics(n, ts)),
            stream.clone().prop_map(Op::Close),
            stream.prop_map(Op::Arm),
            (0usize..64).prop_map(Op::Fire),
            (0u64..5).prop_map(Op::FanOut),
        ]
    }

    proptest! {
        /// Against a model of declared sets, list orders and timers: the
        /// topics the effects leave subscribed are the union of the open
        /// streams' sets and the ones [`StreamTable::watches`] names, no
        /// topic is subscribed twice without an unsubscribe between, a
        /// declaration never unsubscribes a topic it names, fan-out visits
        /// holders in declaration order; each open stream has at most one
        /// armed timer, arming replaces it, opening or closing the key ends
        /// it, and `fire` answers only a stream's current token; a snapshot
        /// taken at any step restores and re-snapshots to the same bytes,
        /// and the run goes on from the restored table.
        #[test]
        fn random_sequences_keep_interest_equal_to_the_sets(
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let mut table: StreamTable<Toy, u8> = StreamTable::default();
            let mut sets: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            let mut lists: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            let mut subscribed: BTreeSet<Topic> = BTreeSet::new();
            // Each open stream's current timer token, and every token armed.
            let mut timers: BTreeMap<u64, u64> = BTreeMap::new();
            let mut tokens: Vec<u64> = Vec::new();
            for op in ops {
                let slot = |table: &StreamTable<Toy, u8>, n| {
                    let slot = table.streams.slot(&key(n))?;
                    table.streams.get(slot).map(|_| slot)
                };
                let fx = match op.clone() {
                    Op::Open(n) => {
                        table.open(key(n), Toy::default());
                        sets.entry(n).or_default();
                        timers.remove(&n);
                        Vec::new()
                    }
                    Op::SetTopics(n, ts) => {
                        let Some(slot) = slot(&table, n) else { continue };
                        let set: Vec<Topic> = ts.iter().map(|&t| topic(t)).collect();
                        let ((), fx) = with_ctx(|ctx| table.set_topics(ctx, slot, &set));
                        for e in &fx {
                            if let Effect::UnsubscribeTopic(t) = e {
                                prop_assert!(!set.contains(t), "{op:?} dropped {t}");
                            }
                        }
                        let held = sets.get_mut(&n).expect("open");
                        for &t in held.iter().filter(|t| !ts.contains(t)) {
                            lists.get_mut(&t).expect("listed").retain(|&m| m != n);
                        }
                        held.retain(|t| ts.contains(t));
                        for &t in &ts {
                            if !held.contains(&t) {
                                held.push(t);
                                lists.entry(t).or_default().push(n);
                            }
                        }
                        fx
                    }
                    Op::Close(n) => {
                        let (_, fx) = with_ctx(|ctx| table.close(ctx, &key(n)));
                        for t in sets.remove(&n).unwrap_or_default() {
                            lists.get_mut(&t).expect("listed").retain(|&m| m != n);
                        }
                        timers.remove(&n);
                        fx
                    }
                    Op::Arm(n) => {
                        let Some(slot) = slot(&table, n) else { continue };
                        let after = SimDuration::from_secs(1);
                        let ((), fx) = with_ctx(|ctx| table.arm(ctx, slot, after));
                        let [Effect::Timer { token, .. }] = fx[..] else {
                            panic!("{op:?} emitted {fx:?}");
                        };
                        timers.insert(n, token);
                        tokens.push(token);
                        Vec::new()
                    }
                    Op::Fire(i) => {
                        let Some(&token) = tokens.get(i % tokens.len().max(1)) else { continue };
                        let current = timers.iter().find(|&(_, &t)| t == token).map(|(&n, _)| n);
                        let want = current.and_then(|n| slot(&table, n));
                        prop_assert_eq!(table.fire(token), want, "{:?}", op);
                        if let Some(n) = current {
                            timers.remove(&n);
                        }
                        Vec::new()
                    }
                    Op::FanOut(t) => {
                        let want = lists.get(&t).cloned().unwrap_or_default();
                        prop_assert_eq!(order(&mut table, t), want);
                        Vec::new()
                    }
                };
                for e in fx {
                    match e {
                        Effect::SubscribeTopic(t) => prop_assert!(subscribed.insert(t), "{t} twice"),
                        Effect::UnsubscribeTopic(t) => prop_assert!(subscribed.remove(&t), "{t} not held"),
                        other => prop_assert!(false, "unexpected {other:?}"),
                    }
                }
                let union: BTreeSet<Topic> = sets.values().flatten().map(|&t| topic(t)).collect();
                prop_assert_eq!(&subscribed, &union);
                for t in 0..5 {
                    prop_assert_eq!(table.watches(topic(t).id()), union.contains(&topic(t)));
                }
                for n in 0..4 {
                    let armed = slot(&table, n).is_some_and(|slot| table.armed(slot));
                    prop_assert_eq!(armed, timers.contains_key(&n), "stream {}", n);
                }
                prop_assert_eq!(table.timer_count(), timers.len());
                let snap = bytes(&table);
                table = restore(&snap).expect("a live table restores");
                prop_assert_eq!(bytes(&table), snap);
            }
        }
    }
}
