//! Heartbeat-based failure detection.
//!
//! "One of the challenges is detecting failures in a timely fashion. For
//! example, waiting for TCP to signal a failure may take too long. We
//! employ a number of techniques to detect such failures more quickly;
//! e.g., by using heartbeats" (§4, footnote 11).
//!
//! [`HeartbeatMonitor`] drives [`Frame::Ping`]/[`Frame::Pong`] exchange on
//! a connection: the local side pings on an interval, and declares the peer
//! dead after a configurable number of unanswered pings — far faster than a
//! TCP timeout. The monitoring side runs one; the responder answers each
//! ping with a pong carrying its token (`edge::Device` does so itself).

use simkit::snap::ensure;
use simkit::{snap_enum, snap_struct};

use crate::frame::Frame;

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
    /// Microseconds between pings.
    interval_us: u64,
    /// Unanswered pings tolerated before declaring failure.
    miss_threshold: u32,
    next_ping_at: u64,
    next_token: u64,
    outstanding: u32,
    health: PeerHealth,
}

impl HeartbeatMonitor {
    /// Creates a monitor pinging every `interval_us`, failing the peer
    /// after `miss_threshold` consecutive unanswered pings.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` or `miss_threshold` is zero.
    pub fn new(interval_us: u64, miss_threshold: u32) -> Self {
        assert!(interval_us > 0, "interval must be positive");
        assert!(miss_threshold > 0, "threshold must be positive");
        HeartbeatMonitor {
            interval_us,
            miss_threshold,
            next_ping_at: interval_us,
            next_token: 1,
            outstanding: 0,
            health: PeerHealth::Alive,
        }
    }

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
            self.health = if self.outstanding >= self.miss_threshold {
                PeerHealth::Failed
            } else {
                PeerHealth::Suspect
            };
            if self.health == PeerHealth::Failed {
                return None;
            }
        }
        self.next_ping_at = now_us + self.interval_us;
        self.outstanding += 1;
        let token = self.next_token;
        self.next_token += 1;
        Some(Frame::Ping { token })
    }

    /// Handles an incoming pong; any response proves liveness.
    pub fn on_pong(&mut self, _token: u64) {
        self.outstanding = 0;
        if self.health != PeerHealth::Failed {
            self.health = PeerHealth::Alive;
        }
    }

    /// Any other traffic from the peer also proves liveness.
    pub fn on_activity(&mut self) {
        self.on_pong(0);
    }
}

snap_enum!(PeerHealth { 0 => Alive, 1 => Suspect, 2 => Failed });
// Rejects configurations `new` would refuse.
snap_struct!(
    HeartbeatMonitor {
        interval_us,
        miss_threshold,
        next_ping_at,
        next_token,
        outstanding,
        health
    },
    |m| {
        ensure(
            m.interval_us != 0 && m.miss_threshold != 0,
            "zero heartbeat interval/threshold",
        )
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HeartbeatMonitor {
        HeartbeatMonitor::new(1_000, 3)
    }

    #[test]
    fn pings_on_interval() {
        let mut m = monitor();
        assert!(m.on_tick(500).is_none(), "not due yet");
        let ping = m.on_tick(1_000);
        assert!(matches!(ping, Some(Frame::Ping { .. })));
        assert!(m.on_tick(1_100).is_none(), "next ping not due");
    }

    #[test]
    fn responsive_peer_stays_alive() {
        let mut m = monitor();
        for i in 1..10u64 {
            let ping = m.on_tick(i * 1_000).expect("ping due");
            let Frame::Ping { token } = ping else {
                panic!()
            };
            m.on_pong(token);
            assert_eq!(m.health(), PeerHealth::Alive);
        }
    }

    #[test]
    fn silent_peer_becomes_suspect_then_failed() {
        let mut m = monitor();
        m.on_tick(1_000); // ping 1, never answered
        m.on_tick(2_000); // miss 1 -> suspect
        assert_eq!(m.health(), PeerHealth::Suspect);
        m.on_tick(3_000); // miss 2 -> still suspect
        assert_eq!(m.health(), PeerHealth::Suspect);
        assert!(
            m.on_tick(4_000).is_none(),
            "threshold crossed: no more pings"
        );
        assert_eq!(m.health(), PeerHealth::Failed);
    }

    #[test]
    fn late_pong_rescues_suspect_peer() {
        let mut m = monitor();
        let Frame::Ping { token } = m.on_tick(1_000).unwrap() else {
            panic!()
        };
        m.on_tick(2_000);
        assert_eq!(m.health(), PeerHealth::Suspect);
        m.on_pong(token);
        assert_eq!(m.health(), PeerHealth::Alive);
    }

    #[test]
    fn any_activity_proves_liveness() {
        let mut m = monitor();
        m.on_tick(1_000);
        m.on_tick(2_000);
        m.on_activity();
        assert_eq!(m.health(), PeerHealth::Alive);
    }

    #[test]
    fn detection_beats_tcp_timeouts() {
        // With a 1s interval and threshold 3, a dead peer is detected in
        // ~4s — versus TCP's minutes-scale default.
        let mut m = HeartbeatMonitor::new(1_000_000, 3);
        let mut detected_at = None;
        for t in 1..=10u64 {
            m.on_tick(t * 1_000_000);
            if m.health() == PeerHealth::Failed {
                detected_at = Some(t);
                break;
            }
        }
        assert_eq!(detected_at, Some(4));
    }
}
