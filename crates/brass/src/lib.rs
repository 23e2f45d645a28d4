//! BRASS — Bladerunner Application Stream Servers.
//!
//! BRASSes (§3.2) are per-application stream processors: each application
//! (LiveVideoComments, TypingIndicator, …) gets its *own* implementation and
//! its own fleet of instances, avoiding the configuration-matrix explosion
//! that sank Facebook's earlier generic filtering pub/sub (§2). A BRASS
//! subscribes to Pylon topics on behalf of its stream-connected devices,
//! then filters, ranks, rate-limits and privacy-checks updates **per user**
//! before pushing selected data over BURST request-streams — "one of the
//! primary responsibilities of BRASSes is to drop messages intelligently,
//! as 80% of messages are filtered out at BRASS instances" (§5).
//!
//! The crate is organised as:
//!
//! * [`app`] — the [`app::BrassApp`] trait and the sans-io
//!   [`app::Effect`] vocabulary (subscribe to Pylon, fetch from the
//!   WAS, send a delta batch, arm a timer).
//! * [`resolve`] — GraphQL-subscription → (application, topic) resolution.
//! * [`table`] — the [`StreamTable`](table::StreamTable) every application
//!   keeps its streams, their declared Pylon topics, watcher lists, timers
//!   and in-flight requests in.
//! * [`buffer`] — the bounded, time-expiring [`RankedBuffer`](buffer::RankedBuffer)
//!   behind LiveVideoComments.
//! * [`limiter`] — a token-bucket rate limiter whose state serialises into
//!   BURST headers (so a rewrite can carry it across BRASS failover, §3.5).
//! * [`host`] — the [`host::BrassHost`]: serverless instance
//!   spool-up, the host-level Pylon subscription manager (one Pylon
//!   subscription per topic however many colocated BRASSes watch it; it
//!   asks each app's [`BrassApp::watches`] rather than counting), and
//!   stream bookkeeping.
//! * [`apps`] — the seven applications of §3.4/§4 (LiveVideoComments,
//!   ActiveStatus, TypingIndicator, Stories, Messenger, post Likes and
//!   Notifications) and [`AppId`], the one declaration of their names,
//!   topic families, factories and snapshot readers.

pub mod app;
pub mod apps;
pub mod buffer;
pub mod host;
pub mod limiter;
pub mod resolve;
pub mod table;

pub use app::{AppCounters, BrassApp, Ctx, DeviceId, Effect, StreamKey, WasRequest, WasResponse};
pub use apps::AppId;
pub use host::{BrassHost, HostConfig};
pub use resolve::ResolvedSub;
