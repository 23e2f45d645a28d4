//! Workload generators calibrated to the paper's measurements.
//!
//! The evaluation (§5) characterises Bladerunner's production workload with
//! a handful of distributions; this crate regenerates workloads with the
//! same shape:
//!
//! * [`graph`] — a synthetic social graph: power-law friend counts, Zipf
//!   video popularity, message threads.
//! * [`tables`] — the explicit mixtures of **Table 1** (updates per area of
//!   interest in 24 h: 83% of areas get zero, a 0.0001% sliver gets >100 M)
//!   and **Table 2** (request-stream lifetimes: 45% < 15 min, 4% > 24 h).
//! * [`activity`] — diurnal modulation (the Fig. 8 shape) and the Poisson
//!   comment arrival process.

pub mod activity;
pub mod graph;
pub mod tables;

pub use activity::DiurnalCurve;
pub use graph::{SocialGraph, SocialGraphConfig};
pub use tables::{AreaUpdateModel, StreamLifetimeModel};
