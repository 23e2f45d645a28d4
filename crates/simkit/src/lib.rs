//! Discrete-event simulation kernel for the Bladerunner reproduction.
//!
//! `simkit` provides the substrate every other crate in this workspace is
//! built on:
//!
//! * [`time`] — a simulated clock ([`SimTime`], [`SimDuration`]) with
//!   microsecond resolution.
//! * [`rng`] — a small, fully deterministic random number generator
//!   ([`rng::DetRng`]) so that every experiment in the repository is exactly
//!   reproducible from a seed.
//! * [`dist`] — probability distributions (exponential, Poisson, Zipf,
//!   log-normal, Pareto, …) implemented from scratch and used by the
//!   workload generators and latency models.
//! * [`queue`] — the event queue ([`queue::EventQueue`]) that drives
//!   simulations: a time-ordered priority queue with deterministic
//!   tie-breaking.
//! * [`metrics`] — counters, log-bucketed histograms, and fixed-interval
//!   time series with percentile/CDF extraction, mirroring the quantities
//!   the paper reports.
//! * [`trace`] — the per-update hop ledger ([`trace::TraceLedger`]): every
//!   update admitted to a simulation is followed write → Pylon → BRASS →
//!   BURST → device, with per-hop latency histograms and drop attribution.
//! * [`alloc`] — an opt-in counting global allocator so benches can report
//!   live heap bytes (bytes-per-device) alongside coarse RSS.
//! * [`snap`] — deterministic binary snapshots: a fail-closed, versioned,
//!   checksummed encoding ([`snap::Snap`], [`snap::seal`]) plus the rolling
//!   fingerprint ([`snap::Fp64`]) used to bisect diverging runs.
//!
//! All components in the workspace are written *sans-io*: they are pure
//! state machines that consume inputs and emit outputs, and the simulation
//! kernel here supplies the arrow of time.
//!
//! # Examples
//!
//! ```
//! use simkit::queue::EventQueue;
//! use simkit::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "a");
//! assert_eq!(t.as_millis(), 1);
//! ```

pub mod alloc;
pub mod collections;
pub mod dist;
pub mod fxhash;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod snap;
pub mod time;
pub mod trace;

pub use dist::{Distribution, Exponential, LogNormal, Pareto, Poisson, Zipf};
pub use metrics::{Counter, Histogram, TimeSeries};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use trace::{DropReason, Hop, HopOutcome, HopRecord, TraceId, TraceLedger};
