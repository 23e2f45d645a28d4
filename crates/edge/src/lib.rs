//! The edge: devices, POPs (points of presence), and reverse proxies.
//!
//! BURST request-streams span "multiple hops: first to a Point of Presence
//! (POP) at the edge, then to a reverse proxy at the edge of the target
//! datacenter, before ending at a BRASS" (§1). This crate provides the
//! sans-io state machines for each hop:
//!
//! * [`device::Device`] — owns the per-stream [`ClientStream`]s, issues
//!   subscribes, renders delivered updates, and resubscribes with the
//!   current (rewritten) headers after failures.
//! * [`pop::Pop`] — the edge access point: tracks device connections,
//!   relays frames, detects device disconnects, and repairs streams onto an
//!   alternate proxy when its upstream proxy fails.
//! * [`proxy::ReverseProxy`] — the datacenter-edge proxy: routes subscribes
//!   to BRASS hosts (sticky via the `brass_host` header field, otherwise by
//!   load or topic), stores per-stream state, and — when a BRASS host fails
//!   or drains — signals affected devices (axiom 1) and resubscribes every
//!   affected stream to an alternate host from stored state (axiom 2).
//!
//! POPs and proxies keep per-stream state for one job, repairing streams
//! when an upstream hop fails, and they detect failures with the one
//! heartbeat policy of [`burst::heartbeat`]. Each peer has one record: a
//! POP's device entry holds its proxy and its monitor, a proxy's pool
//! entry a host's id, load and monitor. Stream state is dropped by a
//! cancel, a terminate or the connection closing; nothing collects idle
//! streams. Either pool may empty: a subscribe is then kept as an orphan
//! (its device told `Degraded`) until a peer returns and repairs it.
//!
//! [`ClientStream`]: burst::stream::ClientStream

pub mod device;
pub mod pop;
pub mod proxy;

pub use device::{Device, DeviceOutput};
pub use pop::{Pop, PopEffect};
pub use proxy::{ProxyEffect, ReverseProxy, RouteStrategy};

/// Rejects ids that come twice: a POP's or a proxy's pool names each peer
/// once.
fn distinct(ids: impl Iterator<Item = u32>) -> Result<(), String> {
    let mut ids: Vec<u32> = ids.collect();
    ids.sort_unstable();
    let once = ids.windows(2).all(|w| w[0] != w[1]);
    simkit::snap::ensure(once, "a pool names a peer twice")
}
