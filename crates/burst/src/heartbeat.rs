//! Heartbeat-based failure detection.
//!
//! "One of the challenges is detecting failures in a timely fashion. For
//! example, waiting for TCP to signal a failure may take too long. We
//! employ a number of techniques to detect such failures more quickly;
//! e.g., by using heartbeats" (§4, footnote 11).
//!
//! [`HeartbeatMonitor`] drives [`Frame::Ping`]/[`Frame::Pong`] exchange on
//! a connection: the local side pings every [`INTERVAL_US`], and declares
//! the peer dead once [`MISSES`] pings in a row go unanswered — far faster
//! than a TCP timeout. This is the one heartbeat policy: POPs watch devices
//! and proxies watch BRASS hosts with it. The monitoring side runs one
//! monitor per peer; the responder answers each ping with a pong carrying
//! its token (`edge::Device` does so itself), and any frame from the peer,
//! a pong or any other, clears the misses.

use simkit::snap::ensure;
use simkit::{snap_enum, snap_struct};

use crate::frame::Frame;

/// Microseconds between pings.
pub const INTERVAL_US: u64 = 5_000_000;
/// Unanswered pings tolerated before the peer is declared failed.
pub const MISSES: u32 = 3;

/// Connection health as judged by heartbeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerHealth {
    /// Responding normally.
    Alive,
    /// One or more pings unanswered, but below the failure threshold.
    Suspect,
    /// The miss threshold was crossed: treat the peer as failed.
    Failed,
}

/// A heartbeat monitor for one connection.
#[derive(Clone, Debug)]
pub struct HeartbeatMonitor {
    next_ping_at: u64,
    next_token: u64,
    outstanding: u32,
    health: PeerHealth,
}

// One per monitored peer, so its size is per-device state at a POP.
const _: () = assert!(std::mem::size_of::<HeartbeatMonitor>() == 24);

impl Default for HeartbeatMonitor {
    /// A monitor whose first ping is due one interval after time zero.
    fn default() -> Self {
        HeartbeatMonitor {
            next_ping_at: INTERVAL_US,
            next_token: 1,
            outstanding: 0,
            health: PeerHealth::Alive,
        }
    }
}

impl HeartbeatMonitor {
    /// Current judgement of the peer.
    pub fn health(&self) -> PeerHealth {
        self.health
    }

    /// Advances the clock; returns a ping frame to send if one is due.
    ///
    /// Each due interval with an already-outstanding ping counts as a miss;
    /// crossing the threshold flips the peer to [`PeerHealth::Failed`].
    pub fn on_tick(&mut self, now_us: u64) -> Option<Frame> {
        if now_us < self.next_ping_at || self.health == PeerHealth::Failed {
            return None;
        }
        if self.outstanding > 0 {
            self.health = if self.outstanding >= MISSES {
                PeerHealth::Failed
            } else {
                PeerHealth::Suspect
            };
            if self.health == PeerHealth::Failed {
                return None;
            }
        }
        self.next_ping_at = now_us + INTERVAL_US;
        self.outstanding += 1;
        let token = self.next_token;
        self.next_token += 1;
        Some(Frame::Ping { token })
    }

    /// Any frame from the peer, a pong or any other, proves liveness.
    pub fn on_activity(&mut self) {
        self.outstanding = 0;
        if self.health != PeerHealth::Failed {
            self.health = PeerHealth::Alive;
        }
    }
}

snap_enum!(PeerHealth { 0 => Alive, 1 => Suspect, 2 => Failed });
// A tick stops counting misses once they reach the threshold.
snap_struct!(
    HeartbeatMonitor {
        next_ping_at,
        next_token,
        outstanding,
        health
    },
    |m| ensure(m.outstanding <= MISSES, "more misses than the threshold")
);

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::snap::{Snap, SnapReader, SnapWriter};

    /// The `n`th ping instant.
    fn at(n: u64) -> u64 {
        n * INTERVAL_US
    }

    #[test]
    fn pings_on_interval() {
        let mut m = HeartbeatMonitor::default();
        assert!(m.on_tick(at(1) - 1).is_none(), "not due yet");
        let ping = m.on_tick(at(1));
        assert!(matches!(ping, Some(Frame::Ping { .. })));
        assert!(m.on_tick(at(2) - 1).is_none(), "next ping not due");
    }

    #[test]
    fn responsive_peer_stays_alive() {
        let mut m = HeartbeatMonitor::default();
        for i in 1..10u64 {
            let ping = m.on_tick(at(i)).expect("ping due");
            assert!(matches!(ping, Frame::Ping { .. }));
            m.on_activity();
            assert_eq!(m.health(), PeerHealth::Alive);
        }
    }

    #[test]
    fn silent_peer_becomes_suspect_then_failed() {
        let mut m = HeartbeatMonitor::default();
        m.on_tick(at(1)); // ping 1, never answered
        m.on_tick(at(2)); // miss 1 -> suspect
        assert_eq!(m.health(), PeerHealth::Suspect);
        m.on_tick(at(3)); // miss 2 -> still suspect
        assert_eq!(m.health(), PeerHealth::Suspect);
        assert!(
            m.on_tick(at(4)).is_none(),
            "threshold crossed: no more pings"
        );
        assert_eq!(m.health(), PeerHealth::Failed);
    }

    #[test]
    fn late_pong_rescues_suspect_peer() {
        let mut m = HeartbeatMonitor::default();
        assert!(matches!(m.on_tick(at(1)).unwrap(), Frame::Ping { .. }));
        m.on_tick(at(2));
        assert_eq!(m.health(), PeerHealth::Suspect);
        m.on_activity();
        assert_eq!(m.health(), PeerHealth::Alive);
    }

    #[test]
    fn any_activity_proves_liveness() {
        let mut m = HeartbeatMonitor::default();
        m.on_tick(at(1));
        m.on_tick(at(2));
        m.on_activity();
        assert_eq!(m.health(), PeerHealth::Alive);
    }

    #[test]
    fn detection_beats_tcp_timeouts() {
        // A dead peer is detected `MISSES + 1` intervals in (20 s) —
        // versus TCP's minutes-scale default.
        let mut m = HeartbeatMonitor::default();
        let detected_at = (1..=10u64).find(|&t| {
            m.on_tick(at(t));
            m.health() == PeerHealth::Failed
        });
        assert_eq!(detected_at, Some(u64::from(MISSES) + 1));
    }

    /// Every state a run reaches restores, the failed one included; a
    /// miss count past the threshold, which no tick produces, does not.
    #[test]
    fn restore_accepts_reached_miss_counts_only() {
        let bytes = |m: &HeartbeatMonitor| {
            let mut w = SnapWriter::new();
            m.snap(&mut w);
            w.into_bytes()
        };
        let mut m = HeartbeatMonitor::default();
        for t in 1..=5 {
            m.on_tick(at(t));
            let b = bytes(&m);
            let back = HeartbeatMonitor::restore(&mut SnapReader::new(&b)).expect("reached");
            assert_eq!(bytes(&back), b);
        }
        assert_eq!((m.health(), m.outstanding), (PeerHealth::Failed, MISSES));
        m.outstanding = MISSES + 1;
        assert!(HeartbeatMonitor::restore(&mut SnapReader::new(&bytes(&m))).is_err());
    }
}
