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
    Parked(Box<[u8]>),
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
        if let DeviceSlot::Parked(blob) = &mut self.slot {
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
            DeviceSlot::Parked(_) => unreachable!("rehydrated above"),
        }
    }

    /// Visits the open stream ids, oldest first, without waking a parked
    /// device (the metrics tick peeks the frozen blob instead of
    /// rehydrating the whole fleet) and without allocating.
    pub(super) fn for_each_open_sid(&self, visit: impl FnMut(StreamId)) {
        match &self.slot {
            DeviceSlot::Live(d) => d.iter_open_sids().for_each(visit),
            DeviceSlot::Parked(blob) => Device::frozen_open_sids(blob).for_each(visit),
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
        if d.open_streams() == 0 {
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
        if let DeviceSlot::Live(machine) =
            std::mem::replace(&mut self.slot, DeviceSlot::Parked(blob))
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
            DeviceSlot::Parked(blob) => {
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
            1 => DeviceSlot::Parked(blob),
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
