//! The baseline architectures Bladerunner is evaluated against (§2).
//!
//! "We briefly review several different architectures we either deployed or
//! experimented with to target the LiveVideoComments application":
//!
//! * [`polling`] — **client-side polling** (the production predecessor):
//!   it hammers TAO with range queries, most of which return nothing.
//! * [`trigger`] — **pub/sub triggering** (Thialfi-like): a reliable
//!   notification tells the client to poll; eliminates empty polls but
//!   retains the expensive query shape and can overwhelm devices with
//!   update signals.
//! * [`event_log`] — a **distributed event log** (Kafka-like): topics with
//!   partitions, consumer polling. Demonstrates the two structural
//!   mismatches the paper calls out: a bounded dynamic-topic capacity and
//!   per-partition serialization of hot topics.
//! * [`generic_filter`] — the **generic configurable pub/sub** Facebook
//!   "spent years" building before declaring it a failure: a configuration
//!   matrix whose parameter interactions (e.g. privacy-check placement vs
//!   rate limiting) produce wrong behaviour that per-app BRASS code avoids.
//!
//! Each is measured by a `bench::paper` entry: polling by `fig6` and
//! `headline`, the other three by `ablations`. A public item no entry
//! reaches does not belong here.

pub mod event_log;
pub mod generic_filter;
pub mod polling;
pub mod trigger;
