//! Criterion microbenchmarks for the hot paths: rendezvous hashing, the
//! BURST codec and mini-JSON, the LVC ranked buffer, token buckets, the
//! TAO query shapes (point vs range vs intersect — the cost asymmetry the
//! whole design exploits), the WAS payload fetch, and Pylon publish fan-out.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use brass::app::DeviceId;
use brass::buffer::RankedBuffer;
use brass::host::{BrassHost, HostConfig, HostEffect};
use brass::limiter::TokenBucket;
use burst::codec::{encode_to_vec, Decoder};
use burst::frame::{Delta, Frame, StreamId};
use burst::json::{Json, PackedJson};
use pylon::{HostId, PylonCluster, PylonConfig, Topic};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{DropReason, Hop, HopOutcome, Retention, TraceId, TraceLedger};
use tao::{LruCache, ObjectId, Tao, TaoConfig};
use was::WebApplicationServer;

fn bench_rendezvous(c: &mut Criterion) {
    let nodes: Vec<u64> = (0..128).collect();
    c.bench_function("rendezvous/top3_of_128", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = pylon::hash::hash_key(format!("/LVC/{i}").as_bytes());
            black_box(pylon::hash::top_n(key, &nodes, 3))
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let frame = Frame::Response {
        sid: StreamId(42),
        batch: vec![
            Delta::update(0, vec![7; 256]),
            Delta::update(1, vec![9; 256]),
            Delta::progress(1),
        ],
    };
    let wire = encode_to_vec(&frame);
    c.bench_function("burst/encode_batch", |b| {
        b.iter(|| black_box(encode_to_vec(&frame)))
    });
    c.bench_function("burst/decode_batch", |b| {
        b.iter(|| {
            let mut dec = Decoder::new();
            dec.feed(&wire);
            black_box(dec.next_frame().unwrap())
        })
    });
}

fn bench_json(c: &mut Criterion) {
    let text = r#"{"viewer":12345,"gql":"subscription { liveVideoComments(videoId: 42) }","brass_host":17,"rl_rate":0.5,"rl_burst":1,"rl_tokens":0.25,"rl_at_us":123456789}"#;
    c.bench_function("json/parse_header", |b| {
        b.iter(|| black_box(Json::parse(text).unwrap()))
    });
    let parsed = Json::parse(text).unwrap();
    c.bench_function("json/serialize_header", |b| {
        b.iter(|| black_box(parsed.to_string()))
    });
    // Per-delivery progress on a held header: 41 <-> 42 overwrites in
    // place, 99 <-> 100 changes the length. `packed_merge_last_seq` is the
    // JSON-patch path (what a `{"last_seq":n}` rewrite used to cost every
    // holder); `packed_set_last_seq_fold` is the typed path a device takes
    // (record, then splice the digits), and BRASS, proxy and POP stop at
    // the record.
    for (name, lo) in [("same_len", 41u64), ("rollover", 99)] {
        let patches = [lo, lo + 1].map(|seq| Json::obj([("last_seq", Json::from(seq))]));
        let mut header = PackedJson::pack(&parsed);
        header.merge(&patches[0]);
        c.bench_function(&format!("json/packed_merge_last_seq/{name}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                header.merge(black_box(&patches[i % 2]));
            })
        });
        c.bench_function(&format!("json/packed_set_last_seq_fold/{name}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                header.set_last_seq(black_box(lo + i % 2));
                header.fold();
            })
        });
        black_box(&header);
    }
}

fn bench_was_fetch(c: &mut Criterion) {
    // A video's audience fetching its few recent comments (fetch_for_viewer
    // is the per-delivery WAS cost: point read, privacy check, payload).
    let mut was = WebApplicationServer::new(Tao::new(TaoConfig::small()));
    let video = was.create_video("live");
    let uids: Vec<u64> = (0..1_000)
        .map(|i| was.create_user(&format!("u{i}"), "en"))
        .collect();
    let comments: Vec<ObjectId> = (0..64u64)
        .map(|i| {
            let author = uids[(i * 7_919 % 1_000) as usize];
            let src = format!(
                r#"mutation {{ postComment(videoId: {video}, authorId: {author}, text: "what an incredible broadcast") {{ id }} }}"#
            );
            was.execute_mutation(&src, i).expect("mutation executes").events[0].object
        })
        .collect();
    c.bench_function("was/fetch_for_viewer", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let viewer = uids[(n * 7_919 % 1_000) as usize];
            black_box(was.fetch_for_viewer(0, viewer, comments[(n % 64) as usize]))
        })
    });
}

fn bench_lvc_timer(c: &mut Criterion) {
    // A quiet fleet's BRASS work: one of a host's 500 LVC streams' push
    // timer firing on an empty buffer and re-arming — the timer table
    // lookup, the stream lookup, and the re-insert.
    let mut host = BrassHost::new(HostConfig {
        host_id: HostId(1),
        cores: 16,
    });
    host.register_standard_apps();
    fn timer_tokens(effects: &[HostEffect]) -> impl Iterator<Item = u64> + '_ {
        effects.iter().filter_map(|e| match e {
            HostEffect::Timer { token, .. } => Some(*token),
            _ => None,
        })
    }
    let mut timers = std::collections::VecDeque::new();
    for d in 0..500u64 {
        let header = Json::obj([
            ("viewer", Json::from(d)),
            ("lang", Json::from("en")),
            (
                "gql",
                Json::from("subscription { liveVideoComments(videoId: 7) }"),
            ),
        ]);
        let fx = host.on_subscribe(DeviceId(d), StreamId(1), header, SimTime::ZERO);
        timers.extend(timer_tokens(&fx));
    }
    assert_eq!(timers.len(), 500, "every LVC stream arms a push timer");
    let mut now = SimTime::from_secs(1);
    c.bench_function("brass/lvc_on_timer", |b| {
        b.iter(|| {
            now += SimDuration::from_millis(8);
            let token = timers.pop_front().expect("every pop re-arms");
            let fx = host.on_timer("lvc", token, now);
            timers.extend(timer_tokens(&fx));
            black_box(fx.len())
        })
    });
}

fn bench_trace_record(c: &mut Criterion) {
    // One update's hop chain under the fleet's bounded retention: per
    // record a `states` lookup, a histogram update, the ring push.
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
    let mut ledger = TraceLedger::with_retention(Retention::Bounded(4_096));
    let mut n = 0u64;
    c.bench_function("trace/record_bounded", |b| {
        b.iter(|| {
            let (hop, outcome) = CHAIN[(n % 8) as usize];
            let at = SimTime::from_millis(n);
            ledger.record(TraceId(n / 8), hop, at, outcome);
            n += 1;
        })
    });
    black_box(ledger.trace_count());
}

fn bench_ranked_buffer(c: &mut Criterion) {
    c.bench_function("ranked_buffer/push_pop_cap5", |b| {
        let mut buf = RankedBuffer::new(5, SimDuration::from_secs(10));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            buf.push((i % 97) as f64 / 97.0, SimTime::from_millis(i), i);
            if i.is_multiple_of(4) {
                black_box(buf.pop_best(SimTime::from_millis(i)));
            }
        })
    });
}

fn bench_token_bucket(c: &mut Criterion) {
    c.bench_function("token_bucket/try_acquire", |b| {
        let mut tb = TokenBucket::per_interval(SimDuration::from_secs(2));
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            black_box(tb.try_acquire(SimTime::from_millis(t)))
        })
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru/get_hit", |b| {
        let mut cache = LruCache::new(1_024);
        for i in 0..1_024u64 {
            cache.insert(i, i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1_024;
            black_box(cache.get(&i).copied())
        })
    });
}

fn bench_tao_query_shapes(c: &mut Criterion) {
    // The asymmetry behind the paper's backend-cost claims.
    let mut tao = Tao::new(TaoConfig::small());
    let video = tao.obj_add("video", vec![]);
    let mut comments = Vec::new();
    for i in 0..500u64 {
        let cm = tao.obj_add("comment", vec![("text".into(), tao::Value::from("body"))]);
        tao.assoc_add(video, "has_comment", cm, i, vec![]);
        comments.push(cm);
    }
    let friends: Vec<ObjectId> = (0..50)
        .map(|i| {
            let f = tao.obj_add("user", vec![]);
            let s = tao.obj_add("story", vec![]);
            tao.assoc_add(f, "has_story", s, i, vec![]);
            f
        })
        .collect();

    c.bench_function("tao/point_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % comments.len();
            black_box(tao.obj_get(0, comments[i]))
        })
    });
    c.bench_function("tao/range_since_query", |b| {
        b.iter(|| black_box(tao.assoc_time_range(0, video, "has_comment", 100, u64::MAX, 50)))
    });
    c.bench_function("tao/intersect_query_50_friends", |b| {
        b.iter(|| black_box(tao.assoc_intersect(0, &friends, "has_story", 10)))
    });
}

fn bench_pylon_publish(c: &mut Criterion) {
    let mut pylon = PylonCluster::new(PylonConfig::small());
    let topic = Topic::live_video_comments(1);
    for h in 0..100 {
        pylon.subscribe(&topic, HostId(h)).unwrap();
    }
    c.bench_function("pylon/publish_fanout_100_hosts", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(pylon.publish(&topic, i))
        })
    });
    c.bench_function("pylon/subscribe_quorum_write", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let t = Topic::live_video_comments(i % 10_000);
            black_box(pylon.subscribe(&t, HostId((i % 64) as u32))).unwrap();
        })
    });
}

criterion_group!(
    benches,
    bench_rendezvous,
    bench_codec,
    bench_json,
    bench_was_fetch,
    bench_lvc_timer,
    bench_trace_record,
    bench_ranked_buffer,
    bench_token_bucket,
    bench_lru,
    bench_tao_query_shapes,
    bench_pylon_publish,
);
criterion_main!(benches);
