//! BURST — Bladerunner Unified Request Stream Transport.
//!
//! BURST (§3.5 of the paper) is the application-level protocol connecting
//! devices to BRASSes across multiple hops (device → POP → reverse proxy →
//! BRASS). Its design goals:
//!
//! 1. a uniform networking API over heterogeneous underlying transports;
//! 2. **request-streams as first-class citizens** — each stream is routed
//!    and fails independently, with many streams multiplexed per hop;
//! 3. simple failure handling for applications: failures *and recoveries*
//!    are reliably signalled to every participant (`flow_status` deltas),
//!    and the server can **rewrite** the client-held subscription state
//!    (`rewrite_request` deltas) to implement sticky routing, resumption
//!    and redirects without client logic.
//!
//! The crate provides:
//!
//! * [`json`] — the from-scratch JSON used for subscription headers ("we
//!   happen to have standardized on a JSON format for the header").
//! * [`frame`] — the protocol model: subscribe/cancel/ack requests and
//!   delta-batch responses (updates, flow status, rewrites, terminations).
//! * [`codec`] — a length-delimited binary wire format over [`bytes`],
//!   with an incremental decoder.
//! * [`stream`] — per-stream state machines for the client, proxy, and
//!   server roles, including in-order delivery and gap detection.
//! * [`flow`] — per-device **byte**-based egress windows (the paper's
//!   critique of RSocket is that message-count flow control breaks down
//!   with diverse sizes) with Degraded/Recovered hysteresis: the
//!   shed-and-signal side of overload, feeding `flow_status` deltas.
//!
//! # Examples
//!
//! ```
//! use burst::frame::{Delta, StreamId};
//! use burst::json::Json;
//! use burst::stream::{ClientAction, ClientStream};
//!
//! let header = Json::obj([("topic", Json::from("/LVC/42"))]);
//! let mut stream = ClientStream::new(StreamId(1), header, Vec::new());
//! let _sub = stream.subscribe_request();
//! // ... the subscribe travels to a BRASS, which starts responding:
//! let mut actions = Vec::new();
//! stream.on_batch_with(&[Delta::update(0, b"payload".to_vec())], |a| actions.push(a));
//! assert!(matches!(actions[0], ClientAction::Deliver(_)));
//! ```

pub mod codec;
pub mod flow;
pub mod frame;
pub mod heartbeat;
pub mod json;
pub mod stream;

pub use flow::{Admit, FlowWindow};
pub use frame::{Delta, FlowStatus, Frame, StreamId, TerminateReason};
pub use heartbeat::{HeartbeatMonitor, PeerHealth};
pub use json::Json;
pub use stream::{ClientAction, ClientStream, ProxyStreamTable, ServerStream};
