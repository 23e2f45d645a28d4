//! Bladerunner: the full system, assembled.
//!
//! This crate binds every substrate in the workspace into the architecture
//! of Fig. 2: devices at the edge issue GraphQL mutations and subscription
//! request-streams; the WAS tier writes TAO and publishes metadata-only
//! update events to Pylon; Pylon fans events to subscribed BRASS hosts;
//! per-application BRASSes filter, rank, rate-limit and privacy-check
//! per user, fetch payloads back from the WAS, and push selected updates
//! over BURST streams through reverse proxies and POPs to devices.
//!
//! * [`config`] — system-level configuration ([`SystemConfig`]).
//! * [`fault`] — declarative chaos: fault plans, heartbeat-detected
//!   failures, and the post-heal convergence audit.
//! * [`latency`] — the hop latency model, calibrated to the paper's
//!   Table 3 measurements.
//! * [`metrics`] — every series/histogram the §5 figures need.
//! * [`sim`] — [`SystemSim`], the deterministic discrete-event
//!   orchestrator, including failure injection for §4's axioms.
//! * [`scenario`] — the scenario catalog: every world the benches, the
//!   fuzzer and the snapshot and replay suites run, each built once, and
//!   the drivers (live-video audiences, flash crowds, diurnal days) they
//!   and the examples compose.
//!
//! # Examples
//!
//! ```
//! use bladerunner::config::SystemConfig;
//! use bladerunner::sim::SystemSim;
//! use simkit::time::{SimDuration, SimTime};
//!
//! let mut sim = SystemSim::new(SystemConfig::small(), 42);
//! let video = sim.was_mut().create_video("eclipse");
//! let alice = sim.create_user_device("alice", "en");
//! let bob = sim.create_user_device("bob", "en");
//!
//! sim.subscribe_lvc(SimTime::ZERO, bob, video);
//! sim.post_comment(SimTime::from_secs(1), alice, video, "what a view of totality");
//! sim.run_until(SimTime::from_secs(30));
//! assert_eq!(sim.metrics().deliveries.get(), 1);
//! ```

pub mod config;
pub mod fault;
pub mod fuzz;
pub mod latency;
pub mod metrics;
pub mod replay;
pub mod scenario;
pub mod sim;

pub use config::SystemConfig;
pub use metrics::SystemMetrics;
pub use sim::SystemSim;
