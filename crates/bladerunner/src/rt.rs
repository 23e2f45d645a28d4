//! A real-time threaded driver for the sans-io components.
//!
//! The simulator in [`crate::sim`] drives every component with virtual
//! time; this module proves the same state machines run unmodified against
//! the wall clock: a backend thread owns the WAS, Pylon, and one BRASS
//! host, consumes commands from a channel, services BRASS timers with real
//! deadlines, and pushes deliveries back to the caller.
//!
//! This is the shape a production embedding would take (one event-loop
//! thread per BRASS host, exactly like the paper's single-threaded JS VMs),
//! scaled down to a demonstration.

use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use brass::app::DeviceId;
use brass::host::{BrassHost, HostEffect};
use burst::frame::{Delta, Frame, StreamId};
use burst::json::Json;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use pylon::{PylonCluster, PylonConfig};
use simkit::time::SimTime;
use tao::{Tao, TaoConfig};
use was::service::WebApplicationServer;

use crate::sim::{fresh_host, serve_was};

/// Commands accepted by the backend thread.
enum Command {
    Subscribe { device: u64, sid: u64, header: Json },
    Mutation { gql: String },
    Shutdown,
}

/// A delivery pushed to a device.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    /// Target device.
    pub device: u64,
    /// Stream the update arrived on.
    pub sid: u64,
    /// Payload bytes (shared with the in-sim fan-out).
    pub payload: burst::frame::Payload,
}

/// Handle to a running real-time system.
pub struct RtSystem {
    commands: Sender<Command>,
    deliveries: Receiver<Delivery>,
    thread: Option<JoinHandle<()>>,
}

struct TimerEntry {
    deadline: Instant,
    app: &'static str,
    token: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.deadline.cmp(&self.deadline) // min-heap
    }
}

struct Backend {
    was: WebApplicationServer,
    pylon: PylonCluster,
    host: BrassHost,
    timers: BinaryHeap<TimerEntry>,
    epoch: Instant,
    deliveries: Sender<Delivery>,
}

impl Backend {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Executes host effects inline (the backend is single-threaded, so
    /// WAS calls are synchronous here; only timers are deferred).
    fn run_effects(&mut self, effects: Vec<HostEffect>) {
        let mut queue = effects;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for effect in queue {
                match effect {
                    HostEffect::PylonSubscribe(topic) => {
                        let _ = self.pylon.subscribe(&topic, self.host.host_id());
                    }
                    HostEffect::PylonUnsubscribe(topic) => {
                        let _ = self.pylon.unsubscribe(&topic, self.host.host_id());
                    }
                    HostEffect::Was {
                        app,
                        token,
                        request,
                    } => {
                        let response = serve_was(&mut self.was, request);
                        let now = self.now();
                        next.extend(self.host.on_was_response(app, token, response, now));
                    }
                    HostEffect::Send { device, frame } => {
                        if let Frame::Response { sid, batch } = *frame {
                            for delta in batch {
                                if let Delta::Update { payload, .. } = delta {
                                    let _ = self.deliveries.send(Delivery {
                                        device: device.0,
                                        sid: sid.0,
                                        payload,
                                    });
                                }
                            }
                        }
                    }
                    // The live runtime has no trace ledger; drop
                    // attributions are a simulation-only observability
                    // concern.
                    HostEffect::DropUpdate { .. } => {}
                    HostEffect::Timer { at, app, token } => {
                        let delay = at.saturating_since(self.now());
                        self.timers.push(TimerEntry {
                            deadline: Instant::now() + Duration::from_micros(delay.as_micros()),
                            app,
                            token,
                        });
                    }
                }
            }
            queue = next;
        }
    }

    fn run(mut self, commands: Receiver<Command>) {
        loop {
            // Wait until the next timer deadline or the next command.
            let timeout = self
                .timers
                .peek()
                .map(|t| t.deadline.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            match commands.recv_timeout(timeout) {
                Ok(Command::Subscribe {
                    device,
                    sid,
                    header,
                }) => {
                    let now = self.now();
                    let fx = self
                        .host
                        .on_subscribe(DeviceId(device), StreamId(sid), header, now);
                    self.run_effects(fx);
                }
                Ok(Command::Mutation { gql }) => {
                    let now = self.now();
                    if let Ok(outcome) = self.was.execute_mutation(&gql, now.as_millis()) {
                        for event in outcome.events {
                            let fanout = self.pylon.publish(&event.topic, event.id);
                            for host in fanout.fast_forwards.into_iter().chain(fanout.late_forwards)
                            {
                                if host == self.host.host_id() {
                                    let now = self.now();
                                    let fx = self.host.on_pylon_event(&event, now);
                                    self.run_effects(fx);
                                }
                            }
                        }
                    }
                }
                Ok(Command::Shutdown) => return,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            // Fire due timers.
            while self
                .timers
                .peek()
                .is_some_and(|t| t.deadline <= Instant::now())
            {
                let t = self.timers.pop().expect("peeked entry exists");
                let now = self.now();
                let fx = self.host.on_timer(t.app, t.token, now);
                self.run_effects(fx);
            }
        }
    }
}

impl RtSystem {
    /// Starts a backend thread with an empty WAS/TAO and one BRASS host.
    ///
    /// `setup` runs against the WAS before the thread starts (create
    /// videos, users, friendships) and returns a value handed back to the
    /// caller (e.g. created ids).
    pub fn start<T>(setup: impl FnOnce(&mut WebApplicationServer) -> T) -> (RtSystem, T) {
        let mut was = WebApplicationServer::new(Tao::new(TaoConfig::small()));
        let fixture = setup(&mut was);
        let backend = Backend {
            was,
            pylon: PylonCluster::new(PylonConfig::small()),
            host: fresh_host(0),
            timers: BinaryHeap::new(),
            epoch: Instant::now(),
            deliveries: {
                let (tx, _rx) = bounded(0);
                tx // replaced below
            },
        };
        let (cmd_tx, cmd_rx) = bounded::<Command>(1_024);
        let (del_tx, del_rx) = bounded::<Delivery>(1_024);
        let mut backend = backend;
        backend.deliveries = del_tx;
        let thread = std::thread::spawn(move || backend.run(cmd_rx));
        (
            RtSystem {
                commands: cmd_tx,
                deliveries: del_rx,
                thread: Some(thread),
            },
            fixture,
        )
    }

    /// Opens a LiveVideoComments stream for a device.
    pub fn subscribe_lvc(&self, device: u64, sid: u64, video: u64) {
        let header = Json::obj([
            ("viewer", Json::from(device)),
            (
                "gql",
                Json::from(format!(
                    "subscription {{ liveVideoComments(videoId: {video}) }}"
                )),
            ),
        ]);
        let _ = self.commands.send(Command::Subscribe {
            device,
            sid,
            header,
        });
    }

    /// Posts a comment.
    pub fn post_comment(&self, author: u64, video: u64, text: &str) {
        let gql = format!(
            r#"mutation {{ postComment(videoId: {video}, authorId: {author}, text: "{text}") {{ id }} }}"#
        );
        let _ = self.commands.send(Command::Mutation { gql });
    }

    /// Waits for the next delivery, up to `timeout`.
    pub fn recv_delivery(&self, timeout: Duration) -> Option<Delivery> {
        self.deliveries.recv_timeout(timeout).ok()
    }
}

impl Drop for RtSystem {
    fn drop(&mut self) {
        let _ = self.commands.send(Command::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_comment_delivery() {
        let (rt, (video, alice, _bob)) = RtSystem::start(|was| {
            let video = was.create_video("rt");
            let alice = was.create_user("alice", "en");
            let bob = was.create_user("bob", "en");
            (video, alice, bob)
        });
        // Bob (device 2) watches; Alice posts.
        rt.subscribe_lvc(2, 1, video);
        // Give the subscribe a moment to register with Pylon.
        std::thread::sleep(Duration::from_millis(50));
        rt.post_comment(alice, video, "hello from the wall clock world");
        // The LVC push timer runs at 2 s cadence; wait out one period.
        let delivery = rt.recv_delivery(Duration::from_secs(10));
        let delivery = delivery.expect("delivery within the timer period");
        assert_eq!(delivery.device, 2);
        let text = String::from_utf8(delivery.payload.to_vec()).unwrap();
        assert!(text.contains("wall clock"), "{text}");
    }
}
