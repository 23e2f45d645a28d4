//! Egress flow control with degrade/recover hysteresis.
//!
//! A [`FlowWindow`] bounds the bytes a sender may have in flight toward
//! one peer. When the window is exhausted the excess is shed — BURST
//! streams are at-most-once, so overload sheds rather than buffers
//! without bound — and the peer is told once via
//! [`FlowStatus::Degraded`](crate::frame::FlowStatus::Degraded). When the
//! in-flight backlog drains past the low-water mark, the peer is told
//! once via [`FlowStatus::Recovered`](crate::frame::FlowStatus::Recovered).
//!
//! The two thresholds are deliberately different (full to degrade, half
//! to recover): recovering the moment a single byte drains would flap
//! Degraded/Recovered on every frame while the sender sits at the
//! boundary, and each flap is a signalling frame competing with the very
//! data the window is trying to protect.

/// The verdict on one send attempt against a [`FlowWindow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// The frame fits; its bytes are now in flight.
    Ok,
    /// The frame does not fit and must be shed; the peer already knows
    /// the window is degraded.
    Shed,
    /// The frame does not fit and must be shed, and this is the first
    /// shed of the episode: tell the peer `FlowStatus::Degraded`.
    ShedDegrade,
}

/// A byte-based egress window with drain hysteresis.
///
/// Admission and drain must be symmetric: every admitted frame's bytes
/// are later returned through [`FlowWindow::on_drained`] when the frame
/// leaves the wire (delivered, or accounted lost). That symmetry is what
/// guarantees a terminal `Recovered`: a window can only degrade while
/// something is in flight, and every in-flight byte eventually drains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowWindow {
    /// Window capacity in bytes; `0` means unlimited (flow control off).
    capacity: u64,
    in_flight: u64,
    degraded: bool,
}

impl FlowWindow {
    /// Creates a window of `capacity` bytes; `0` disables flow control.
    pub fn new(capacity: u64) -> Self {
        FlowWindow {
            capacity,
            in_flight: 0,
            degraded: false,
        }
    }

    /// Attempts to admit `bytes` into the window.
    ///
    /// An empty window always admits, even a frame larger than the whole
    /// capacity — otherwise an oversized frame could never be sent and
    /// the stream would sit degraded forever with nothing in flight to
    /// drain and trigger recovery.
    pub fn try_send(&mut self, bytes: u64) -> Admit {
        if self.capacity == 0 || self.in_flight == 0 || self.in_flight + bytes <= self.capacity {
            self.in_flight += bytes;
            return Admit::Ok;
        }
        if self.degraded {
            Admit::Shed
        } else {
            self.degraded = true;
            Admit::ShedDegrade
        }
    }

    /// Returns `bytes` to the window after the frame left the wire.
    ///
    /// Returns `true` exactly when this drain crossed the recovery
    /// threshold (half capacity) of a degraded window: the caller should
    /// signal `FlowStatus::Recovered` to the peer, once.
    pub fn on_drained(&mut self, bytes: u64) -> bool {
        self.in_flight = self.in_flight.saturating_sub(bytes);
        if self.degraded && self.in_flight <= self.capacity / 2 {
            self.degraded = false;
            return true;
        }
        false
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Whether the peer was told Degraded and not yet Recovered.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Forgets all in-flight state (the connection was torn down; flow
    /// state dies with it).
    pub fn reset(&mut self) {
        self.in_flight = 0;
        self.degraded = false;
    }
}

// Rejects states `try_send` cannot produce.
simkit::snap_struct!(
    FlowWindow {
        capacity,
        in_flight,
        degraded
    },
    |w| {
        simkit::snap::ensure(
            !w.degraded || (w.capacity != 0 && w.in_flight != 0),
            "degraded flow window with nothing in flight",
        )
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_window_never_degrades() {
        let mut w = FlowWindow::new(0);
        for _ in 0..1_000 {
            assert_eq!(w.try_send(u64::MAX / 2_000), Admit::Ok);
        }
        assert!(!w.is_degraded());
    }

    #[test]
    fn degrade_signals_exactly_once_per_episode() {
        let mut w = FlowWindow::new(100);
        assert_eq!(w.try_send(60), Admit::Ok);
        assert_eq!(w.try_send(60), Admit::ShedDegrade, "first shed signals");
        assert_eq!(w.try_send(60), Admit::Shed, "repeat sheds stay silent");
        assert_eq!(w.try_send(60), Admit::Shed);
        assert!(w.is_degraded());
        assert_eq!(w.in_flight(), 60, "shed frames consume nothing");
    }

    #[test]
    fn no_flapping_at_the_boundary() {
        // The flapping edge: degraded at full, then a small drain leaves
        // the window hovering just under capacity. Recovering there would
        // re-degrade on the very next frame, forever. The half-capacity
        // low-water mark keeps the window silent through the hover.
        let mut w = FlowWindow::new(100);
        assert_eq!(w.try_send(90), Admit::Ok);
        assert_eq!(w.try_send(90), Admit::ShedDegrade);
        assert!(!w.on_drained(30), "60 in flight > 50: no recovery yet");
        assert!(w.is_degraded(), "still degraded while hovering");
        assert_eq!(w.try_send(90), Admit::Shed, "and still shedding silently");
        assert!(w.on_drained(10), "50 <= 50: recovery fires");
        assert!(!w.is_degraded());
    }

    #[test]
    fn terminal_recovered_always_fires() {
        // The degraded-forever edge: degrading requires something in
        // flight, and every in-flight byte drains, so a quiesced window
        // always emits its terminal Recovered — even when the recovery
        // drain is the last frame.
        let mut w = FlowWindow::new(100);
        assert_eq!(w.try_send(100), Admit::Ok);
        assert_eq!(w.try_send(1), Admit::ShedDegrade);
        assert!(w.on_drained(100), "full drain recovers");
        assert!(!w.is_degraded());
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    fn recovered_signals_exactly_once() {
        let mut w = FlowWindow::new(100);
        w.try_send(100);
        w.try_send(1);
        assert!(w.on_drained(60));
        assert!(!w.on_drained(40), "already recovered: stay silent");
    }

    #[test]
    fn empty_window_admits_oversized_frames() {
        let mut w = FlowWindow::new(10);
        assert_eq!(w.try_send(1_000), Admit::Ok, "empty window always admits");
        assert_eq!(w.try_send(1), Admit::ShedDegrade);
        assert!(w.on_drained(1_000), "the oversized frame drains to zero");
        assert_eq!(w.try_send(1_000), Admit::Ok, "and the cycle can repeat");
    }

    #[test]
    fn reset_clears_flow_state() {
        let mut w = FlowWindow::new(10);
        w.try_send(10);
        w.try_send(10);
        assert!(w.is_degraded());
        w.reset();
        assert!(!w.is_degraded());
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.try_send(5), Admit::Ok);
    }
}
