//! Layer kernels: single-threaded loops over each crate's public sans-io
//! entry points, with inputs shaped like the workloads. Host ns per
//! operation, median of [`SAMPLES`] samples.
//!
//! Every kernel times only the call under test: inputs are prepared, and
//! state that grows is rebuilt, outside the stopwatch. A kernel's number is
//! the cost of the call on warm state, not the cost of the same work inside
//! the simulator, which is why the attribution that uses them is labelled
//! *estimated* and printed with its residual.

use std::hint::black_box;
use std::time::{Duration, Instant};

use brass::app::{DeviceId, FetchToken, WasResponse};
use brass::buffer::RankedBuffer;
use brass::host::{BrassHost, HostConfig, HostEffect};
use burst::codec::{encode_to_vec, Decoder};
use burst::frame::{Delta, Frame, StreamId};
use burst::json::Json;
use edge::device::Device;
use edge::pop::Pop;
use edge::proxy::{ReverseProxy, RouteStrategy};
use pylon::{HostId, PylonCluster, Topic};
use simkit::queue::EventQueue;
use simkit::rng::DetRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop, HopOutcome, Retention, TraceId, TraceLedger};
use tao::{ObjectId, Tao};
use was::event::{EventKind, EventMeta};
use was::service::WebApplicationServer;
use was::UpdateEvent;

use crate::probe::{self, SpeedProbe};
use crate::workloads::{FLEET_PYLON, FLEET_TAO};

const SAMPLES: usize = 5;
/// Stopwatch samples one [`run_all`] takes: 25 `kernel` loops of
/// [`SAMPLES`] each.
pub const STOPWATCH_SAMPLES: usize = 25 * SAMPLES;

/// Time and operations under one name.
#[derive(Default)]
struct Watch {
    spent: Duration,
    ops: u64,
}

impl Watch {
    /// Times `f`, which performs `ops` operations.
    fn time<R>(&mut self, ops: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.spent += t.elapsed();
        self.ops += ops;
        r
    }

    fn ns_per_op(&self) -> f64 {
        self.spent.as_nanos() as f64 / self.ops.max(1) as f64
    }
}

/// The kernels' shared harness: results so far, the stopwatch time per
/// sample, and the host-speed probe that scales every result to
/// reference seconds (see `probe.rs`).
struct Bench {
    out: Vec<(&'static str, f64)>,
    sample: Duration,
    probe: SpeedProbe,
}

impl Bench {
    /// Runs `cycle` until its watches have spent `sample` between them,
    /// [`SAMPLES`] times over, and records each watch's median ns/op under
    /// its name. `cycle` gets fresh watches per sample; state it captures
    /// persists. A cycle whose untimed preparation dwarfs the call under
    /// test is cut off at four samples' worth of wall.
    fn kernel<const N: usize>(
        &mut self,
        names: [&'static str; N],
        mut cycle: impl FnMut(&mut [Watch; N]),
    ) {
        let mut results: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
        for _ in 0..SAMPLES {
            let mut watches: [Watch; N] = std::array::from_fn(|_| Watch::default());
            let spent = |w: &[Watch; N]| w.iter().map(|w| w.spent).sum::<Duration>();
            self.probe.restart();
            self.probe.unit();
            let started = Instant::now();
            let mut probed_at = Duration::ZERO;
            while spent(&watches) < self.sample && started.elapsed() < 4 * self.sample {
                cycle(&mut watches);
                if spent(&watches) - probed_at >= probe::EVERY {
                    self.probe.unit();
                    probed_at = spent(&watches);
                }
            }
            let slowdown = self.probe.slowdown();
            for (r, w) in results.iter_mut().zip(&watches) {
                r.push(w.ns_per_op() / slowdown);
            }
        }
        for (name, mut r) in names.into_iter().zip(results) {
            r.sort_by(f64::total_cmp);
            self.out.push((name, r[SAMPLES / 2]));
        }
    }
}

/// All kernels, in layer order. `sample` is the stopwatch time per sample.
pub fn run_all(sample: Duration) -> Vec<(&'static str, f64)> {
    let mut bench = Bench {
        out: Vec::new(),
        sample,
        probe: SpeedProbe::new(),
    };
    simkit_queue(&mut bench);
    simkit_trace(&mut bench);
    tao_store(&mut bench);
    was_service(&mut bench);
    pylon_cluster(&mut bench);
    brass_host(&mut bench);
    burst_codec(&mut bench);
    edge_hops(&mut bench);
    bench.out
}

const BATCH: u64 = 1024;

fn simkit_queue(bench: &mut Bench) {
    // 100k pending events spread over the next ten seconds, as a fleet's
    // timers are; each pop reschedules, so the population stays put.
    let mut rng = DetRng::new(1);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..100_000u64 {
        q.schedule(SimTime::from_micros(rng.below(10_000_000)), i);
    }
    bench.kernel(["simkit.queue.schedule_pop_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                let (at, ev) = q.pop().expect("queue stays populated");
                q.schedule(at + SimDuration::from_micros(rng.range(1, 4_000_000)), ev);
            }
        });
    });
    bench.kernel(["simkit.queue.cancel_ns"], |w| {
        let now = q.now();
        let ids: Vec<_> = (0..BATCH)
            .map(|i| q.schedule(now + SimDuration::from_micros(1 + i), i))
            .collect();
        w[0].time(BATCH, || {
            for id in ids {
                black_box(q.cancel(id));
            }
        });
        // One pop sweeps the cancelled entries out of the wheel.
        let (at, ev) = q.pop().expect("queue stays populated");
        q.schedule(at + SimDuration::from_secs(2), ev);
    });
}

fn simkit_trace(bench: &mut Bench) {
    // One update's life as the simulator records it: commit, publish, then
    // per viewer deliver/process and either a drop or send/deliver/render.
    const CHAIN: [(Hop, HopOutcome); 8] = [
        (Hop::TaoCommit, HopOutcome::Ok),
        (Hop::PylonPublish, HopOutcome::Ok),
        (Hop::PylonDeliver, HopOutcome::Ok),
        (
            Hop::BrassProcess,
            HopOutcome::Dropped(DropReason::BufferOverflow),
        ),
        (Hop::BrassProcess, HopOutcome::Ok),
        (Hop::BrassSend, HopOutcome::Ok),
        (Hop::BurstDeliver, HopOutcome::Ok),
        (Hop::DeviceRender, HopOutcome::Ok),
    ];
    for (name, retention) in [
        ("simkit.trace.record_full_ns", Retention::Full),
        ("simkit.trace.record_bounded_ns", Retention::Bounded(4_096)),
    ] {
        let mut next = 0u64;
        let mut ledger = TraceLedger::with_retention(retention);
        bench.kernel([name], |w| {
            // A full ledger grows with every record; start over before it
            // outgrows the cache behaviour of a real run's.
            if next.is_multiple_of(1 << 17) {
                ledger = TraceLedger::with_retention(retention);
            }
            w[0].time(128 * CHAIN.len() as u64, || {
                for _ in 0..128 {
                    next += 1;
                    for (i, (hop, outcome)) in CHAIN.into_iter().enumerate() {
                        let at = SimTime::from_millis(next * 10 + i as u64);
                        ledger.record(TraceId(next), hop, at, outcome);
                    }
                }
            });
        });
    }
}

fn fleet_tao() -> Tao {
    Tao::new(FLEET_TAO)
}

fn tao_store(bench: &mut Bench) {
    let mut tao = fleet_tao();
    let videos: Vec<ObjectId> = (0..60).map(|_| tao.obj_add("video", vec![])).collect();
    let comments: Vec<ObjectId> = (0..50_000u64)
        .map(|i| {
            let c = tao.obj_add(
                "comment",
                vec![("text".into(), tao::Value::from("scale bench comment"))],
            );
            tao.assoc_add(videos[i as usize % 60], "has_comment", c, i, vec![]);
            c
        })
        .collect();
    let mut i = 0usize;
    bench.kernel(["tao.obj_get_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                i = (i + 7_919) % comments.len();
                black_box(tao.obj_get(0, comments[i]));
            }
        });
    });
    bench.kernel(["tao.assoc_range_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                i = (i + 1) % videos.len();
                black_box(tao.assoc_range(0, videos[i], "has_comment", 0, 10));
            }
        });
    });
    let mut fresh = fleet_tao();
    let mut edges = 0u64;
    bench.kernel(["tao.assoc_add_ns"], |w| {
        if edges.is_multiple_of(1 << 20) {
            fresh = fleet_tao();
        }
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                edges += 1;
                // A few dozen edges per source, as a video has comments.
                let (from, to) = (ObjectId(1 + edges / 64), ObjectId(1 << 40 | edges));
                black_box(fresh.assoc_add(from, "has_comment", to, edges, vec![]));
            }
        });
    });
}

/// A WAS over the fleet TAO with `users` users and one video.
fn fleet_was(users: u64) -> (WebApplicationServer, u64, Vec<u64>) {
    let mut was = WebApplicationServer::new(fleet_tao());
    let video = was.create_video("live0");
    let uids: Vec<u64> = (0..users)
        .map(|i| was.create_user(&format!("u{i}"), "en"))
        .collect();
    (was, video, uids)
}

fn was_service(bench: &mut Bench) {
    const USERS: u64 = 20_000;
    let (mut was, mut video, mut uids) = fleet_was(USERS);
    let mut n = 0u64;
    let mut comments: Vec<ObjectId> = Vec::new();
    bench.kernel(["was.mutation_ns"], |w| {
        if n.is_multiple_of(1 << 18) {
            (was, video, uids) = fleet_was(USERS);
            comments.clear();
        }
        // A video collects a few hundred comments, then the next goes live.
        video = was.create_video("live");
        let gql: Vec<String> = (0..256)
            .map(|k| {
                let author = uids[((n + k) * 7_919 % USERS) as usize];
                format!(
                    r#"mutation {{ postComment(videoId: {video}, authorId: {author}, text: "scale bench comment") {{ id }} }}"#
                )
            })
            .collect();
        w[0].time(256, || {
            for src in &gql {
                n += 1;
                let outcome = was.execute_mutation(src, n).expect("mutation executes");
                comments.extend(outcome.events.iter().map(|e| e.object));
            }
        });
    });
    // Many viewers fetch the same few recent comments, as a video's
    // audience does.
    let recent: Vec<ObjectId> = comments.iter().rev().take(64).copied().collect();
    bench.kernel(["was.fetch_for_viewer_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                n += 1;
                let viewer = uids[(n * 7_919 % USERS) as usize];
                let object = recent[(n % 64) as usize];
                black_box(was.fetch_for_viewer(0, viewer, object)).expect("fetch is allowed");
            }
        });
    });
    // The Messenger backfill query the simulator issues.
    let thread = was.create_thread(&[uids[0], uids[1]]);
    for k in 0..32 {
        let src = format!(
            r#"mutation {{ sendMessage(threadId: {thread}, fromId: {}, text: "see you at the usual place") {{ id }} }}"#,
            uids[0]
        );
        was.execute_mutation(&src, k).expect("message sends");
    }
    let query = format!("{{ mailbox(uid: {}, afterSeq: 24) }}", uids[1]);
    bench.kernel(["was.query_ns"], |w| {
        w[0].time(256, || {
            for _ in 0..256 {
                black_box(was.execute_query(0, &query)).expect("query executes");
            }
        });
    });
}

fn fleet_pylon() -> PylonCluster {
    PylonCluster::new(FLEET_PYLON)
}

fn pylon_cluster(bench: &mut Bench) {
    // Distinct per-user topics, as a messenger ramp subscribes them.
    let topics: Vec<Topic> = (0..1 << 16).map(Topic::messenger_mailbox).collect();
    let mut pylon = fleet_pylon();
    let mut n = 0usize;
    bench.kernel(["pylon.subscribe_ns"], |w| {
        if n.is_multiple_of(topics.len()) {
            pylon = fleet_pylon();
        }
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                let host = HostId((n % 32) as u32);
                black_box(pylon.subscribe(&topics[n % topics.len()], host)).expect("quorum is up");
                n += 1;
            }
        });
    });
    for (name, fan) in [("pylon.publish_fan1_ns", 1), ("pylon.publish_fan32_ns", 32)] {
        let mut pylon = fleet_pylon();
        let topics: Vec<Topic> = (0..64).map(Topic::live_video_comments).collect();
        for topic in &topics {
            for h in 0..fan {
                pylon.subscribe(topic, HostId(h)).expect("quorum is up");
            }
        }
        let mut id = 0u64;
        bench.kernel([name], |w| {
            w[0].time(BATCH, || {
                for _ in 0..BATCH {
                    id += 1;
                    black_box(pylon.publish(&topics[(id % 64) as usize], id));
                }
            });
        });
    }
}

fn lvc_header(video: u64, viewer: u64) -> Json {
    Json::obj([
        ("viewer", Json::from(viewer)),
        ("lang", Json::from("en")),
        (
            "gql",
            Json::from(format!(
                "subscription {{ liveVideoComments(videoId: {video}) }}"
            )),
        ),
    ])
}

fn comment_event(video: u64, object: u64, quality: f64, now: SimTime) -> UpdateEvent {
    UpdateEvent {
        id: object,
        topic: Topic::live_video_comments(video),
        object: ObjectId(object),
        kind: EventKind::CommentPosted,
        meta: EventMeta {
            uid: 1,
            quality,
            lang: Some("en".into()),
            created_ms: now.as_millis(),
            seq: None,
            typing: None,
        },
    }
}

fn standard_host() -> BrassHost {
    let mut host = BrassHost::new(HostConfig {
        host_id: HostId(1),
        cores: 16,
    });
    host.register_standard_apps();
    host
}

fn brass_host(bench: &mut Bench) {
    // Subscribes land on a host that already serves streams; start over
    // before it holds more than a busy host would.
    let mut host = standard_host();
    let mut n = 0u64;
    bench.kernel(["brass.on_subscribe_ns"], |w| {
        if n.is_multiple_of(1 << 14) {
            host = standard_host();
        }
        let headers: Vec<Json> = (0..256).map(|k| lvc_header((n + k) % 60, n + k)).collect();
        w[0].time(256, || {
            for header in headers {
                n += 1;
                black_box(host.on_subscribe(DeviceId(n), StreamId(1), header, SimTime::ZERO));
            }
        });
    });

    // One host holding 500 LVC streams on one video, cycled through the
    // life of an update: the event is offered to every stream's buffer,
    // each stream's push timer pops it and asks the WAS for the payload,
    // the responses go out as frames, and the timers fire once more on
    // empty buffers — which is most of what a quiet fleet does.
    const STREAMS: u64 = 500;
    let mut host = standard_host();
    let mut now = SimTime::from_secs(1);
    let mut timers: Vec<u64> = Vec::new();
    for d in 0..STREAMS {
        let fx = host.on_subscribe(DeviceId(d), StreamId(1), lvc_header(7, d), now);
        timers.extend(timer_tokens(&fx));
    }
    let mut object = 0u64;
    let payload: burst::frame::Payload = vec![b'c'; 150].into();
    bench.kernel(
        [
            "brass.on_pylon_event_ns_per_stream",
            "brass.on_was_response_ns",
            "brass.on_timer_idle_ns",
        ],
        |w| {
            now += SimDuration::from_secs(4);
            object += 1;
            let event = comment_event(7, object, 0.5 + (object % 50) as f64 / 100.0, now);
            w[0].time(STREAMS, || black_box(host.on_pylon_event(&event, now)));
            let mut fetches: Vec<FetchToken> = Vec::new();
            let mut fire = |host: &mut BrassHost, timers: &mut Vec<u64>| {
                for token in std::mem::take(timers) {
                    let fx = host.on_timer("lvc", token, now);
                    timers.extend(timer_tokens(&fx));
                    fetches.extend(fx.iter().filter_map(|e| match e {
                        HostEffect::Was { token, .. } => Some(*token),
                        _ => None,
                    }));
                }
            };
            fire(&mut host, &mut timers);
            assert_eq!(fetches.len() as u64, STREAMS, "every stream pops");
            w[1].time(STREAMS, || {
                for &token in &fetches {
                    let response = WasResponse::Payload(payload.clone());
                    black_box(host.on_was_response("lvc", token, response, now));
                }
            });
            now += SimDuration::from_secs(4);
            let idle = std::mem::take(&mut timers);
            w[2].time(STREAMS, || {
                for token in idle {
                    let fx = host.on_timer("lvc", token, now);
                    timers.extend(timer_tokens(&fx));
                }
            });
        },
    );

    // An offer to a full ranked buffer: what every comment of a storm is.
    let mut buffer: RankedBuffer<u64> = RankedBuffer::new(5, SimDuration::from_secs(10));
    let mut i = 0u64;
    bench.kernel(["brass.ranked_buffer_offer_full_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                i += 1;
                let rank = (i * 7_919 % 97) as f64 / 97.0;
                black_box(buffer.offer(rank, SimTime::from_millis(i), i));
            }
        });
    });
}

fn timer_tokens(effects: &[HostEffect]) -> impl Iterator<Item = u64> + '_ {
    effects.iter().filter_map(|e| match e {
        HostEffect::Timer { token, .. } => Some(*token),
        _ => None,
    })
}

/// A flush as LVC sends it: one comment payload and the transport-progress
/// rewrite that closes every data batch.
fn response_frame(sid: StreamId, seq: u64) -> Frame {
    Frame::Response {
        sid,
        batch: vec![
            Delta::update(seq, vec![b'c'; 150]),
            Delta::RewriteRequest {
                patch: Json::obj([("last_seq", Json::from(seq))]),
            },
        ],
    }
}

fn burst_codec(bench: &mut Bench) {
    let frame = response_frame(StreamId(1), 42);
    let wire = encode_to_vec(&frame);
    bench.kernel(["burst.encode_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                black_box(encode_to_vec(black_box(&frame)));
            }
        });
    });
    bench.kernel(["burst.decode_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                let mut decoder = Decoder::new();
                decoder.feed(black_box(&wire));
                black_box(decoder.next_frame()).expect("frame decodes");
            }
        });
    });
    let header = lvc_header(42, 12_345).to_string();
    bench.kernel(["burst.header_parse_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                black_box(Json::parse(black_box(&header))).expect("header parses");
            }
        });
    });
}

fn edge_hops(bench: &mut Bench) {
    const DEVICES: u64 = 2_500;
    let subscribe = |device: u64| Frame::Subscribe {
        sid: StreamId(1),
        header: lvc_header(device % 60, device),
        body: Vec::new(),
    };
    let new_proxy = || ReverseProxy::new(0, RouteStrategy::ByLoad, (0..32).collect());
    let new_pop = || Pop::new(0, (0..8).collect());

    // Upstream-bound subscribes (the ramp) on tables that fill to a
    // proxy's and a POP's share of a fleet, then start over.
    let mut proxy = new_proxy();
    let mut n = 0u64;
    bench.kernel(["edge.proxy.downstream_frame_ns"], |w| {
        if n.is_multiple_of(DEVICES) {
            proxy = new_proxy();
        }
        let frames: Vec<Frame> = (0..100).map(|k| subscribe(n + k)).collect();
        w[0].time(100, || {
            for frame in frames {
                n += 1;
                black_box(proxy.on_downstream_frame(n, frame, n));
            }
        });
    });
    let mut pop = new_pop();
    bench.kernel(["edge.pop.device_frame_ns"], |w| {
        if n.is_multiple_of(DEVICES) {
            pop = new_pop();
        }
        let frames: Vec<Frame> = (0..100).map(|k| subscribe(n + k)).collect();
        w[0].time(100, || {
            for frame in frames {
                n += 1;
                black_box(pop.on_device_frame(n, frame, n));
            }
        });
    });

    // Device-bound responses through tables that hold every stream.
    let (mut proxy, mut pop) = (new_proxy(), new_pop());
    for d in 0..DEVICES {
        proxy.on_downstream_frame(d, subscribe(d), 0);
        pop.on_device_frame(d, subscribe(d), 0);
    }
    let mut seq = 0u64;
    bench.kernel(["edge.proxy.upstream_frame_ns"], |w| {
        seq += 1;
        let frames: Vec<Frame> = (0..100).map(|_| response_frame(StreamId(1), seq)).collect();
        w[0].time(100, || {
            for (d, frame) in frames.into_iter().enumerate() {
                black_box(proxy.on_upstream_frame(d as u64 * 25, frame, seq));
            }
        });
    });
    bench.kernel(["edge.pop.proxy_frame_ns"], |w| {
        seq += 1;
        let frames: Vec<Frame> = (0..100).map(|_| response_frame(StreamId(1), seq)).collect();
        w[0].time(100, || {
            for (d, frame) in frames.into_iter().enumerate() {
                black_box(pop.on_proxy_frame(d as u64 * 25, frame, seq));
            }
        });
    });

    // A device with its LVC and notification streams open, rendering
    // in-order updates.
    let mut device = Device::new(9);
    let (sid, _) = device.open_stream(lvc_header(7, 9), Vec::new());
    device.open_stream(
        Json::obj([
            ("viewer", Json::from(9u64)),
            ("gql", Json::from("subscription { notifications }")),
        ]),
        Vec::new(),
    );
    let mut seq = 0u64;
    bench.kernel(["edge.device.on_frame_ns"], |w| {
        let frames: Vec<Frame> = (0..100).map(|k| response_frame(sid, seq + k)).collect();
        seq += 100;
        w[0].time(100, || {
            for frame in &frames {
                black_box(device.on_frame(frame));
            }
        });
    });
    bench.kernel(["edge.device.hibernate_rehydrate_ns"], |w| {
        w[0].time(BATCH, || {
            for _ in 0..BATCH {
                let blob = black_box(&device).hibernate();
                black_box(Device::rehydrate(9, &blob));
            }
        });
    });
}
