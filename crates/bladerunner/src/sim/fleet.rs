//! The device fleet's resident form: one [`DeviceState`] per device, its
//! protocol machine live or parked as a hibernation blob.

use burst::flow::FlowWindow;
use burst::frame::StreamId;
use edge::device::Device;
use simkit::snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::SimTime;

use super::SystemSim;
use crate::config::LinkClass;

/// A device's protocol machine, either live or parked in its compact
/// hibernation form: the bytes [`Device::snap`] writes through
/// `simkit::snap`, the device's one codec, which a snapshot reuses.
///
/// Parking and rehydrating are pure data transforms ([`Device::snap`] /
/// [`Device::rehydrate_from`]): no RNG draws, no scheduling, no observable
/// state change — so whether a device happens to be parked when an event
/// arrives can never perturb results, only resident bytes.
pub(super) enum DeviceSlot {
    Live(Device),
    Parked { blob: Box<[u8]>, sids: OpenSids },
}

// A parked device's sids ride in the room the live machine already takes.
const _: () = assert!(size_of::<DeviceSlot>() == 56 && size_of::<DeviceState>() == 144);

/// Open stream ids kept inline.
const INLINE_SIDS: usize = 7;

/// A parked device's open stream ids, oldest first, kept beside its blob
/// so the metrics tick reads no blob: derived state, written at park and
/// at snapshot load, never snapshotted. A device with more open streams
/// than fit, or an id past `u32`, keeps none and is read from its blob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct OpenSids {
    /// How many of `ids` are set, or [`OpenSids::IN_BLOB`].
    len: u8,
    ids: [u32; INLINE_SIDS],
}

impl OpenSids {
    const IN_BLOB: u8 = u8::MAX;

    fn of(sids: impl Iterator<Item = StreamId>) -> OpenSids {
        let mut inline = OpenSids {
            len: 0,
            ids: [0; INLINE_SIDS],
        };
        for sid in sids {
            let slot = inline.ids.get_mut(inline.len as usize);
            let (Some(slot), Ok(id)) = (slot, u32::try_from(sid.0)) else {
                inline.len = Self::IN_BLOB;
                return inline;
            };
            *slot = id;
            inline.len += 1;
        }
        inline
    }

    /// The ids, if they fit inline.
    fn inline(&self) -> Option<impl Iterator<Item = StreamId> + '_> {
        let ids = self.ids.get(..self.len as usize)?;
        Some(ids.iter().map(|&id| StreamId(id.into())))
    }
}

pub(super) struct DeviceState {
    pub(super) slot: DeviceSlot,
    pub(super) link: LinkClass,
    /// Interned header language: an index into [`SystemSim`]'s lang table
    /// (devices overwhelmingly share a handful of languages, so a u16 id
    /// replaces a per-device heap `String`).
    pub(super) lang: u16,
    pub(super) connected: bool,
    /// Consecutive recent drops, driving exponential reconnect backoff.
    pub(super) drop_streak: u32,
    /// When the last drop happened (streaks decay after quiet periods).
    pub(super) last_drop_at: SimTime,
    /// Earliest time the next downstream frame may reach the device. The
    /// device ↔ POP link is one ordered connection, so frames must not
    /// overtake each other just because their latency samples happened to
    /// invert — a reordered reliable-app frame would be discarded as
    /// stale, turning a latency fluke into a lost message.
    pub(super) next_arrival: SimTime,
    /// Egress flow-control window over the last mile: data bytes put on
    /// the wire and not yet arrived. Sized by
    /// `config.egress_window_bytes` (0 = flow control off).
    pub(super) flow: FlowWindow,
    /// Streams told `FlowStatus::Degraded` and still owed their terminal
    /// `Recovered` once the window drains.
    pub(super) degraded_sids: Vec<StreamId>,
    /// Frames (data *and* control) currently on the wire toward the
    /// device — the POP-egress queue depth.
    pub(super) inflight_frames: u64,
    /// The proxy its POP last forwarded a frame of it to: where BRASS
    /// sends its frames down. Learned on every POP forward, never cleared.
    pub(super) proxy: Option<u32>,
}

/// What the simulator keeps between one device's park and the next one's
/// wake, so the wake-handle-park round trip of a delivered frame reuses
/// buffers instead of building and dropping a machine and a blob each time.
#[derive(Default)]
pub(super) struct ParkScratch {
    /// The machine of the last device to park; the next wake rehydrates
    /// into it (its stream table and header buffers are reused).
    machine: Option<Device>,
    /// The blob the last woken device came out of. A device that parks at
    /// that length — the usual case, only `last_seq` digits moved — is
    /// copied into it in place.
    blob: Box<[u8]>,
    /// Where a parking device is written before its length is known.
    frozen: Vec<u8>,
}

impl DeviceState {
    /// The live device machine, rehydrating first if parked. `id` is the
    /// map key (not stored in the state — that would duplicate it).
    pub(super) fn wake(&mut self, id: u64, park: &mut ParkScratch) -> &mut Device {
        if let DeviceSlot::Parked { blob, .. } = &mut self.slot {
            let mut machine = park.machine.take().unwrap_or_else(|| Device::new(id));
            machine
                .rehydrate_from(id, blob)
                .expect("a parked blob was written in-process");
            debug_assert_eq!(machine.check(), Ok(()), "a parked device reads back whole");
            park.blob = std::mem::take(blob);
            self.slot = DeviceSlot::Live(machine);
        }
        match &mut self.slot {
            DeviceSlot::Live(d) => d,
            DeviceSlot::Parked { .. } => unreachable!("rehydrated above"),
        }
    }

    /// Visits the open stream ids, oldest first, without waking a parked
    /// device and without allocating: a parked device's come from the ids
    /// kept beside its blob ([`OpenSids`]), and only one with more open
    /// streams than fit there has its blob peeked.
    pub(super) fn for_each_open_sid(&self, visit: impl FnMut(StreamId)) {
        match &self.slot {
            DeviceSlot::Live(d) => d.iter_open_sids().for_each(visit),
            DeviceSlot::Parked { blob, sids } => match sids.inline() {
                Some(inline) => inline.for_each(visit),
                None => Device::frozen_open_sids(blob).for_each(visit),
            },
        }
    }

    /// Parks the device into its compact frozen form if it is quiescent:
    /// connected, nothing on the wire toward it, no flow-control episode
    /// in progress, and no recent drop streak (churning devices stay live
    /// to avoid park/rehydrate thrash around their reconnect bursts).
    /// Devices with no streams stay live too — an empty `Device` holds no
    /// heap at all, so its blob would cost more than it saves.
    pub(super) fn maybe_park(&mut self, hibernation: bool, park: &mut ParkScratch) {
        if !hibernation
            || !self.connected
            || self.inflight_frames != 0
            || !self.degraded_sids.is_empty()
            || self.flow.in_flight() != 0
            || self.drop_streak != 0
        {
            return;
        }
        let DeviceSlot::Live(d) = &self.slot else {
            return;
        };
        let sids = OpenSids::of(d.iter_open_sids());
        if sids.len == 0 {
            return;
        }
        let mut frozen = SnapWriter::over(std::mem::take(&mut park.frozen));
        d.snap(&mut frozen);
        park.frozen = frozen.into_bytes();
        let mut blob = std::mem::take(&mut park.blob);
        if blob.len() == park.frozen.len() {
            blob.copy_from_slice(&park.frozen);
        } else {
            blob = park.frozen.as_slice().into();
        }
        debug_assert!(
            (sids.inline()).is_none_or(|inline| inline.eq(Device::frozen_open_sids(&blob))),
            "inline open sids match the blob"
        );
        if let DeviceSlot::Live(machine) =
            std::mem::replace(&mut self.slot, DeviceSlot::Parked { blob, sids })
        {
            park.machine = Some(machine);
        }
    }

    /// Writes the device into a snapshot. The protocol machine is its
    /// hibernation blob (a parked one verbatim, a live one through the same
    /// [`Device::snap`], which is total and lossless), with
    /// a tag remembering whether the resident form was live or parked —
    /// park state is pure memory shape, but preserving it keeps a resumed
    /// process's hibernation census identical to the original's.
    pub(super) fn snap(&self, w: &mut SnapWriter) {
        match &self.slot {
            DeviceSlot::Live(d) => {
                w.put_u8(0);
                d.hibernate().snap(w);
            }
            DeviceSlot::Parked { blob, .. } => {
                w.put_u8(1);
                blob.snap(w);
            }
        }
        self.link.snap(w);
        self.lang.snap(w);
        self.connected.snap(w);
        self.drop_streak.snap(w);
        self.last_drop_at.snap(w);
        self.next_arrival.snap(w);
        self.flow.snap(w);
        self.degraded_sids.snap(w);
        self.inflight_frames.snap(w);
        self.proxy.snap(w);
    }

    /// Reads a device back. `id` is the map key (the blob doesn't store
    /// it, mirroring [`DeviceState::wake`]). This is the one place a
    /// hibernation blob enters the process from outside, so it is read
    /// once, into `scratch` (whose buffers the next device's read reuses
    /// when this one stays parked), and checked here, for both slot kinds,
    /// and trusted everywhere after.
    pub(super) fn restore(
        id: u64,
        r: &mut SnapReader<'_>,
        scratch: &mut Device,
    ) -> SnapResult<DeviceState> {
        let slot_tag = r.get_u8()?;
        let blob = Box::<[u8]>::restore(r)?;
        let read = scratch.rehydrate_from(id, &blob).map_err(|e| e.to_string());
        read.and_then(|()| scratch.check())
            .map_err(|e| SnapError::Invalid(format!("device {id}: {e}")))?;
        let slot = match slot_tag {
            0 => DeviceSlot::Live(std::mem::replace(scratch, Device::new(id))),
            1 => DeviceSlot::Parked {
                sids: OpenSids::of(scratch.iter_open_sids()),
                blob,
            },
            other => {
                return Err(SnapError::Invalid(format!(
                    "unknown device slot tag {other}"
                )))
            }
        };
        Ok(DeviceState {
            slot,
            link: Snap::restore(r)?,
            lang: Snap::restore(r)?,
            connected: Snap::restore(r)?,
            drop_streak: Snap::restore(r)?,
            last_drop_at: Snap::restore(r)?,
            next_arrival: Snap::restore(r)?,
            flow: Snap::restore(r)?,
            degraded_sids: Snap::restore(r)?,
            inflight_frames: Snap::restore(r)?,
            proxy: Snap::restore(r)?,
        })
    }
}

impl SystemSim {
    /// Re-freezes the device in fleet slot `slot` if it is eligible (see
    /// [`DeviceState::maybe_park`]).
    pub(super) fn park(&mut self, slot: usize) {
        let hibernation = self.config.hibernation;
        let state = self.devices.at_mut(slot);
        state.maybe_park(hibernation, &mut self.park);
    }
}

#[cfg(test)]
mod tests {
    use burst::frame::{Delta, Frame, TerminateReason};
    use burst::json::Json;
    use proptest::prelude::*;

    use super::*;

    #[derive(Clone, Debug)]
    enum Op {
        Open,
        /// The `k`th open stream (cycling) is cancelled.
        Cancel(usize),
        /// The `k`th open stream is ended by the server: by a redirect
        /// (`true`: kept, to retry) or an error (dropped).
        Terminate(usize, bool),
        /// The `k`th stream ever opened (cycling), if the device still
        /// holds it, resubscribes: a redirected one opens again.
        Retry(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let k = || 0usize..12;
        prop_oneof![
            Just(Op::Open),
            Just(Op::Open),
            k().prop_map(Op::Cancel),
            (k(), any::<bool>()).prop_map(|(k, redirect)| Op::Terminate(k, redirect)),
            k().prop_map(Op::Retry),
        ]
    }

    /// Applies `op`; `opened` is every sid the device handed out.
    fn apply(device: &mut Device, op: &Op, opened: &mut Vec<StreamId>) {
        let open = device.open_sids();
        let nth = |k: usize| (!open.is_empty()).then(|| open[k % open.len()]);
        match *op {
            Op::Open => {
                let header = Json::obj([("topic", Json::from("/LVC/1"))]);
                opened.push(device.open_stream(header, vec![1]).0);
            }
            Op::Cancel(k) => {
                nth(k).map(|sid| device.cancel_stream(sid));
            }
            Op::Terminate(k, redirect) => {
                if let Some(sid) = nth(k) {
                    let reason = if redirect {
                        TerminateReason::Redirect
                    } else {
                        TerminateReason::Error
                    };
                    let batch = vec![Delta::Terminate(reason)];
                    device.on_frame(&Frame::Response { sid, batch });
                }
            }
            Op::Retry(k) => {
                if !opened.is_empty() {
                    device.retry_stream(opened[k % opened.len()]);
                }
            }
        }
    }

    fn state(id: u64) -> DeviceState {
        DeviceState {
            slot: DeviceSlot::Live(Device::new(id)),
            link: LinkClass::Fast,
            lang: 0,
            connected: true,
            drop_streak: 0,
            last_drop_at: SimTime::ZERO,
            next_arrival: SimTime::ZERO,
            flow: FlowWindow::new(0),
            degraded_sids: Vec::new(),
            inflight_frames: 0,
            proxy: None,
        }
    }

    fn visited(state: &DeviceState) -> Vec<StreamId> {
        let mut sids = Vec::new();
        state.for_each_open_sid(|sid| sids.push(sid));
        sids
    }

    proptest! {
        /// After every park, the ids kept beside the blob are the blob's
        /// open ids and the live machine's, or — past the inline room —
        /// absent, with the tick reading the blob instead; a snapshot
        /// round trip of the parked slot rebuilds the same ids.
        #[test]
        fn parked_sids_match_the_blob(ops in proptest::collection::vec(op(), 1..48)) {
            let id = 5;
            let mut state = state(id);
            let mut park = ParkScratch::default();
            let mut opened = Vec::new();
            for op in &ops {
                let device = state.wake(id, &mut park);
                apply(device, op, &mut opened);
                let live: Vec<StreamId> = device.iter_open_sids().collect();
                state.maybe_park(true, &mut park);
                prop_assert_eq!(visited(&state), live.clone());
                let DeviceSlot::Parked { blob, sids } = &state.slot else {
                    prop_assert!(live.is_empty(), "a device with open streams parks");
                    continue;
                };
                prop_assert_eq!(Device::frozen_open_sids(blob).collect::<Vec<_>>(), live.clone());
                let inline: Option<Vec<StreamId>> = sids.inline().map(Iterator::collect);
                prop_assert_eq!(inline.is_some(), live.len() <= INLINE_SIDS);
                prop_assert!(inline.is_none_or(|inline| inline == live));

                let mut w = SnapWriter::new();
                state.snap(&mut w);
                let bytes = w.into_bytes();
                let mut r = SnapReader::new(&bytes);
                let read = DeviceState::restore(id, &mut r, &mut Device::new(0)).expect("restore");
                r.finish().expect("no trailing bytes");
                let DeviceSlot::Parked { sids: read_sids, .. } = &read.slot else {
                    panic!("a parked slot reads back parked");
                };
                prop_assert_eq!(read_sids, sids);
                prop_assert_eq!(visited(&read), live);
            }
        }
    }

    /// One stream past the inline room keeps no ids inline; dropping back
    /// under it keeps them again.
    #[test]
    fn a_device_past_the_inline_room_is_read_from_its_blob() {
        let (id, mut park, mut opened) = (5, ParkScratch::default(), Vec::new());
        let mut state = state(id);
        for _ in 0..=INLINE_SIDS {
            apply(state.wake(id, &mut park), &Op::Open, &mut opened);
        }
        state.maybe_park(true, &mut park);
        let inline = |state: &DeviceState| -> Option<Vec<StreamId>> {
            let DeviceSlot::Parked { sids, .. } = &state.slot else {
                panic!("parked");
            };
            sids.inline().map(Iterator::collect)
        };
        assert_eq!(inline(&state), None);
        assert_eq!(visited(&state), opened);
        apply(state.wake(id, &mut park), &Op::Cancel(0), &mut opened);
        state.maybe_park(true, &mut park);
        assert_eq!(inline(&state), Some(opened[1..].to_vec()));
        assert_eq!(visited(&state), opened[1..]);
    }
}
