//! Snapshot, resume, the divergence fingerprints and the post-heal
//! convergence audit: everything that reads the whole world at once.

use burst::frame::StreamId;
use edge::device::Device;
use edge::pop::Pop;
use edge::proxy::ReverseProxy;
use simkit::fxhash::FxHashSet;
use simkit::snap::{self, Fp64, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::time::SimTime;

use super::fleet::DeviceState;
use super::SystemSim;
use crate::config::SystemConfig;

/// Restores a fixed-length component vector in place (the config fixed its
/// length), requiring each slot to hold the component whose id is its
/// index.
fn restore_slots<T: Snap>(
    r: &mut SnapReader<'_>,
    slots: &mut [T],
    what: &str,
    id: impl Fn(&T) -> u32,
) -> SnapResult<()> {
    for (i, slot) in slots.iter_mut().enumerate() {
        *slot = T::restore(r)?;
        if id(slot) != i as u32 {
            return Err(SnapError::Invalid(format!(
                "{what} slot {i} holds id {}",
                id(slot)
            )));
        }
    }
    Ok(())
}

impl SystemSim {
    // ------------------------------------------------------------------
    // Snapshot, resume, and divergence fingerprints.
    // ------------------------------------------------------------------

    /// Configures automatic snapshotting: capture the full sim state every
    /// `every_ticks` metrics ticks (0 disables) and keep the sealed bytes
    /// in memory ([`SystemSim::snapshots`]). A capture only reads state, so
    /// a run with snapshotting on is bit-identical to one with it off.
    pub fn set_snapshot_policy(&mut self, every_ticks: u64) {
        self.snapshot_every = every_ticks;
    }

    /// Policy-captured in-memory snapshots, oldest first.
    pub fn snapshots(&self) -> &[(SimTime, Vec<u8>)] {
        &self.snapshots
    }

    /// Serializes the complete current state into a sealed snapshot.
    ///
    /// Exact at any instant between `run_until` calls: a resumed copy run
    /// to `T` is bit-identical to this sim run to `T`, and to a sim that
    /// never stopped.
    pub fn snapshot(&self) -> Vec<u8> {
        snap::seal(self.snapshot_body(self.now))
    }

    /// Serializes the whole simulation into one snapshot body (unsealed)
    /// stamped `at`. Component and liveness vectors carry no length: the
    /// config fixes it.
    pub(super) fn snapshot_body(&self, at: SimTime) -> Vec<u8> {
        let mut out = SnapWriter::new();
        let w = &mut out;
        // The config is part of the experiment definition, not the state:
        // resume requires the caller to rebuild the exact same config and
        // only validates it (by its Debug rendering, which covers every
        // field) instead of round-tripping every nested knob.
        w.put_str(&format!("{:?}", self.config));
        at.snap(w);
        self.next_metrics_tick.snap(w);
        self.tick_index.snap(w);
        self.decisions_at_tick.snap(w);
        self.rng.snap(w);
        self.engine_rng.snap(w);
        self.langs.snap(w);
        self.ledger.snap(w);
        self.fingerprints.snap(w);
        self.queue.snap(w);
        self.was.snap(w);
        self.pylon.snap(w);
        self.hosts.iter().for_each(|host| host.snap(w));
        self.proxies.iter().for_each(|proxy| proxy.snap(w));
        self.pops.iter().for_each(|pop| pop.snap(w));
        for up in self.host_up.iter().chain(&self.proxy_up) {
            up.snap(w);
        }
        self.host_busy_until.iter().for_each(|t| t.snap(w));
        w.put_usize(self.devices.len());
        for (id, d) in &self.devices {
            id.snap(w);
            d.snap(w);
        }
        // Values verbatim: backfill traces replay in arrival order.
        self.pending_backfill.snap(w);
        self.pylon_delivered.snap(w);
        self.sub_started.snap(w);
        self.metrics.snap(w);
        self.event_stats.snap(w);
        w.put_bytes(&self.driver_blob);
        out.into_bytes()
    }

    /// Rebuilds a simulation from a sealed snapshot, fail-closed: the
    /// container checksum, the config (rebuilt by the caller and compared
    /// field-for-field via its Debug rendering), every length, tag, key
    /// order, and slot identity are validated before any state is handed
    /// over — an error never yields a partial world. The resumed sim
    /// continues bit-identically to the run that took the snapshot.
    pub fn resume(config: SystemConfig, bytes: &[u8]) -> SnapResult<SystemSim> {
        let body = snap::unseal(bytes)?;
        let r = &mut SnapReader::new(body);
        let stored = r.get_str()?;
        let live = format!("{config:?}");
        if stored != live {
            return Err(SnapError::Invalid(format!(
                "config mismatch: snapshot took {stored}, resume built {live}"
            )));
        }
        // Start from a pristine world (component vectors of the config's
        // sizes, empty queue) and overwrite everything stateful. The seed
        // doesn't matter: both RNG streams are replaced from the snapshot.
        let mut s = SystemSim::new(config, 0);
        s.now = Snap::restore(r)?;
        s.next_metrics_tick = Snap::restore(r)?;
        s.tick_index = Snap::restore(r)?;
        s.decisions_at_tick = Snap::restore(r)?;
        s.rng = Snap::restore(r)?;
        s.engine_rng = Snap::restore(r)?;
        s.langs = Snap::restore(r)?;
        if s.langs.iter().collect::<FxHashSet<_>>().len() != s.langs.len() {
            return Err(SnapError::Invalid("duplicate interned lang".into()));
        }
        s.ledger = Snap::restore(r)?;
        s.fingerprints = snap::restore_sorted(r, |a: &(SimTime, u64), b| a.0 < b.0)?;
        s.queue = Snap::restore(r)?;
        if let Some(err) = s
            .queue
            .stored()
            .find_map(|ev| ev.check_indices(&s.config).err())
        {
            return Err(SnapError::Invalid(err));
        }
        s.was = Snap::restore(r)?;
        s.pylon = Snap::restore(r)?;
        restore_slots(r, &mut s.hosts, "host", |h| h.host_id().0)?;
        restore_slots(r, &mut s.proxies, "proxy", ReverseProxy::id)?;
        restore_slots(r, &mut s.pops, "POP", Pop::id)?;
        for up in s.host_up.iter_mut().chain(&mut s.proxy_up) {
            *up = Snap::restore(r)?;
        }
        for t in &mut s.host_busy_until {
            *t = Snap::restore(r)?;
        }
        // By hand: a device's restore needs its key. Every device id is a
        // TAO user id, so one the TAO never issued is corrupt; checking it
        // also bounds the fleet index to the TAO's id space.
        let next_object_id = s.was.tao().next_object_id();
        let mut last_dev: Option<u64> = None;
        let mut scratch = Device::new(0);
        for _ in 0..r.get_len()? {
            let dev = r.get_u64()?;
            if last_dev.is_some_and(|l| dev <= l) {
                return Err(SnapError::Invalid(
                    "device ids not strictly ascending".into(),
                ));
            }
            if dev >= next_object_id {
                return Err(SnapError::Invalid(format!(
                    "device id {dev}, the TAO has issued ids below {next_object_id}"
                )));
            }
            last_dev = Some(dev);
            let state = DeviceState::restore(dev, r, &mut scratch)?;
            if state.lang as usize >= s.langs.len() {
                return Err(SnapError::Invalid(format!(
                    "device lang index {} outside the {}-entry intern table",
                    state.lang,
                    s.langs.len()
                )));
            }
            if let Some(proxy) = state.proxy.filter(|&p| p as usize >= s.proxies.len()) {
                return Err(SnapError::Invalid(format!(
                    "device {dev} routed to proxy {proxy}, config has {}",
                    s.proxies.len()
                )));
            }
            s.devices.push(dev, state);
        }
        s.pending_backfill = Snap::restore(r)?;
        s.pylon_delivered = Snap::restore(r)?;
        if let Some((host, _)) = s.pylon_delivered.keys().find(|k| k.0 >= s.hosts.len()) {
            return Err(SnapError::Invalid(format!(
                "pylon-delivered host {host}, config has {}",
                s.hosts.len()
            )));
        }
        s.sub_started = Snap::restore(r)?;
        s.metrics = Snap::restore(r)?;
        s.event_stats = Snap::restore(r)?;
        s.driver_blob = r.get_bytes()?;
        r.finish()?;
        Ok(s)
    }

    /// Attaches opaque harness state (workload cursors, scenario extents)
    /// to be carried inside every snapshot this sim takes. Benches update
    /// it before each `run_until` chunk.
    pub fn set_driver_blob(&mut self, blob: Vec<u8>) {
        self.driver_blob = blob;
    }

    /// The harness state carried by the snapshot this sim resumed from
    /// (empty for a fresh sim).
    pub fn driver_blob(&self) -> &[u8] {
        &self.driver_blob
    }

    /// The per-metrics-tick rolling run fingerprints recorded so far.
    /// Identical for identical `(config, seed, workload)`, however the
    /// caller chunks `run_until` and regardless of hibernation or snapshot
    /// policy; the first differing entry between two runs brackets their
    /// first divergence.
    pub fn tick_fingerprints(&self) -> &[(SimTime, u64)] {
        &self.fingerprints
    }

    /// A cheap rolling fingerprint of the *executed* history: the ledger's
    /// rolling hash, the engine RNG's stream position, every event-stats
    /// counter, and the metrics digest — all of which change only when
    /// events run, never when they are merely scheduled. No serialization,
    /// and stable across equal states however they were reached — run
    /// straight, in chunks, or resumed from a snapshot. (Deliberately, a
    /// future event sitting unexecuted in the queue does not move the hash:
    /// the bisect engine depends on divergence showing up at the tick where
    /// behaviour actually differs.)
    pub fn fingerprint_now(&self) -> u64 {
        let mut fp = Fp64::new();
        fp.mix_u64(self.ledger.fingerprint());
        for word in self.engine_rng.state() {
            fp.mix_u64(word);
        }
        self.event_stats.mix_fp(&mut fp);
        self.metrics.mix_fingerprint(&mut fp);
        fp.value()
    }

    /// Switches the per-event diagnostic log on or off. While on, every
    /// popped event's `(time, event summary)` is recorded in execution
    /// order — the bisect harness replays a diverging tick under this log
    /// on both runs and diffs the streams.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.evlog = enabled.then(Vec::new);
    }

    /// Drains the event log; empty if the log was never on.
    pub fn take_event_log(&mut self) -> Vec<(SimTime, String)> {
        self.evlog.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Audits post-heal convergence: every connected device's open streams
    /// are served by a live BRASS host, and the trace ledger accounts for
    /// every admitted update as delivered, dropped-with-reason, or
    /// backfilled.
    pub fn convergence_report(&self) -> crate::fault::ConvergenceReport {
        let mut live = FxHashSet::default();
        self.served_keys(&mut live);
        let dead_host_streams: u64 = (self.hosts.iter().zip(&self.host_up))
            .filter(|(_, up)| !**up)
            .map(|(host, _)| host.stream_count() as u64)
            .sum();
        let mut open_streams = 0u64;
        let mut connected_devices = 0u64;
        let mut stranded: Vec<(u64, StreamId)> = Vec::new();
        let mut flow_degraded_devices = 0u64;
        // Ascending device id: `stranded` comes out sorted.
        for (id, state) in &self.devices {
            if !state.connected {
                continue;
            }
            connected_devices += 1;
            if state.flow.is_degraded() || !state.degraded_sids.is_empty() {
                flow_degraded_devices += 1;
            }
            state.for_each_open_sid(|sid| {
                open_streams += 1;
                if !live.contains(&(id, sid)) {
                    stranded.push((id, sid));
                }
            });
        }
        let ledger = &self.ledger;
        crate::fault::ConvergenceReport {
            connected_devices,
            open_streams,
            stranded,
            dead_host_streams,
            delivered: ledger.delivered_count(),
            dropped: ledger.total_drops(),
            backfilled: ledger.backfilled_count(),
            unaccounted: ledger.unaccounted(),
            flow_degraded_devices,
            violations: Vec::new(),
        }
        .finish()
    }
}
