use brass::app::{FetchToken, WasRequest, WasResponse};
use brass::AppId;
use burst::flow::{Admit, FlowWindow};
use burst::frame::StreamId;
use pylon::Topic;
use simkit::snap::{Snap, SnapReader, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Hop, HopOutcome};

use super::ev::Ev;
use super::SystemSim;
use crate::config::SystemConfig;

fn sim() -> SystemSim {
    SystemSim::new(SystemConfig::small(), 7)
}

#[test]
fn quorum_retry_backoff_is_capped_at_any_attempt() {
    // Early attempts double; later attempts clamp at the cap instead
    // of shifting past 63 bits (attempt 64+ would have overflowed).
    let secs: Vec<u64> = [0u32, 1, 2, 3, 4, 5, 6, 8, 63, 64, 1_000, u32::MAX]
        .iter()
        .map(|&a| SystemSim::quorum_retry_backoff(a).as_secs())
        .collect();
    assert_eq!(secs, vec![1, 2, 4, 8, 16, 30, 30, 30, 30, 30, 30, 30]);
}

/// The three events that name an application carry it as a handle;
/// the snapshot still holds the name, and only a registered one is
/// accepted back.
#[test]
fn app_naming_events_round_trip_and_reject_unknown_apps() {
    let events = [
        Ev::BrassTimer {
            host: 3,
            app: AppId::Lvc,
            token: 77,
        },
        Ev::WasExec {
            host: 1,
            app: AppId::Messenger,
            token: FetchToken(9),
            request: WasRequest::MailboxAfter {
                uid: 5,
                after_seq: Some(2),
            },
            attributed: Some(SimTime::from_millis(40)),
        },
        Ev::WasReply {
            host: 2,
            app: AppId::Typing,
            token: FetchToken(10),
            response: WasResponse::Payload(b"{\"id\":1}".to_vec().into()),
            attributed: None,
        },
    ];
    for ev in &events {
        let mut w = SnapWriter::new();
        ev.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Ev::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        let mut w = SnapWriter::new();
        back.snap(&mut w);
        assert_eq!(w.into_bytes(), bytes, "{ev:?}");
        assert_eq!(format!("{back:?}"), format!("{ev:?}"));
    }
    // The same bytes with the name swapped for one no host registers.
    for (tag, known) in [(10u8, "lvc"), (8, "messenger"), (9, "typing")] {
        let mut w = SnapWriter::new();
        w.put_u8(tag);
        w.put_usize(0);
        w.put_str("lvc2");
        w.put_u64(0);
        let bytes = w.into_bytes();
        let err = Ev::restore(&mut SnapReader::new(&bytes)).expect_err(known);
        assert!(err.to_string().contains("lvc2"), "{err}");
    }
}

#[test]
fn comment_flows_end_to_end() {
    let mut s = sim();
    let video = s.was_mut().create_video("eclipse");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(
        SimTime::from_secs(2),
        poster,
        video,
        "an astonishing ring of fire over the ocean",
    );
    s.run_until(SimTime::from_secs(60));
    assert_eq!(
        s.metrics().deliveries.get(),
        1,
        "comment reached the viewer"
    );
    assert_eq!(s.metrics().publications.get(), 1);
    let lat = s.metrics().app_latencies(AppId::Lvc).unwrap();
    assert_eq!(lat.total.count(), 1);
    // Total latency includes the ~2s WAS ranking plus fan-out and push.
    assert!(lat.total.mean() > 1_500.0, "total {}", lat.total.mean());
    assert!(lat.total.mean() < 15_000.0, "total {}", lat.total.mean());
}

#[test]
fn poster_does_not_receive_without_subscription() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    s.post_comment(
        SimTime::from_secs(1),
        poster,
        video,
        "talking to the void here",
    );
    s.run_until(SimTime::from_secs(30));
    assert_eq!(s.metrics().deliveries.get(), 0);
    assert_eq!(
        s.metrics().publications.get(),
        1,
        "published but nobody listens"
    );
}

#[test]
fn typing_indicator_round_trip() {
    let mut s = sim();
    let a = s.create_user_device("a", "en");
    let b = s.create_user_device("b", "en");
    let thread = s.was_mut().create_thread(&[a, b]);
    // b watches a's typing state.
    s.subscribe_typing(SimTime::ZERO, b, thread, a);
    s.set_typing(SimTime::from_secs(2), a, thread, true);
    s.run_until(SimTime::from_secs(20));
    assert_eq!(s.metrics().deliveries.get(), 1);
    let lat = s.metrics().app_latencies(AppId::Typing).unwrap();
    assert!(lat.total.count() == 1, "typing total latency recorded");
    // Typing avoids ranking: total latency well under the LVC path.
    assert!(lat.total.mean() < 3_000.0, "total {}", lat.total.mean());
}

#[test]
fn messenger_delivers_reliably_in_order() {
    let mut s = sim();
    let a = s.create_user_device("a", "en");
    let b = s.create_user_device("b", "en");
    let thread = s.was_mut().create_thread(&[a, b]);
    s.subscribe_mailbox(SimTime::ZERO, b);
    for i in 0..5 {
        s.send_message(
            SimTime::from_secs(2 + i),
            a,
            thread,
            &format!("message number {i}"),
        );
    }
    s.run_until(SimTime::from_secs(60));
    // b receives all 5 (a has no open mailbox stream).
    assert_eq!(s.metrics().deliveries.get(), 5);
}

#[test]
fn rate_limit_caps_lvc_deliveries() {
    let mut s = sim();
    let video = s.was_mut().create_video("hot");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    // 40 comments in 4 seconds.
    for i in 0..40 {
        s.post_comment(
            SimTime::from_millis(2_000 + i * 100),
            poster,
            video,
            &format!("burst comment number {i} with some substance"),
        );
    }
    s.run_until(SimTime::from_secs(40));
    // At 1 message / 2 s with a 10 s freshness window, only a handful
    // survive.
    let delivered = s.metrics().deliveries.get();
    assert!(delivered >= 2, "some comments delivered: {delivered}");
    assert!(
        delivered <= 12,
        "rate limit must cap deliveries: {delivered}"
    );
    assert!(s.total_decisions() > delivered, "most updates filtered");
}

#[test]
fn device_drop_and_resubscribe_resumes_delivery() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(
        SimTime::from_secs(2),
        poster,
        video,
        "before the drop happens here",
    );
    s.run_until(SimTime::from_secs(15));
    let before = s.metrics().deliveries.get();
    assert_eq!(before, 1);
    // Drop the viewer; it reconnects and resubscribes automatically.
    s.schedule_device_drop(SimTime::from_secs(16), viewer);
    s.post_comment(
        SimTime::from_secs(25),
        poster,
        video,
        "after reconnect this arrives",
    );
    s.run_until(SimTime::from_secs(60));
    assert_eq!(s.metrics().connection_drops.get(), 1);
    assert_eq!(
        s.metrics().deliveries.get(),
        2,
        "delivery resumed after reconnect"
    );
}

#[test]
fn brass_upgrade_repairs_streams_via_proxy() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(SimTime::from_secs(10));
    // Upgrade every host in turn at t=12; the stream's host is repaired.
    for h in 0..4 {
        s.schedule_brass_upgrade(
            SimTime::from_secs(12 + h),
            h as usize,
            SimDuration::from_secs(30),
        );
    }
    s.post_comment(
        SimTime::from_secs(50),
        poster,
        video,
        "life after the upgrade wave",
    );
    s.run_until(SimTime::from_secs(90));
    assert!(s.total_proxy_reconnects() >= 1, "proxy repaired the stream");
    assert_eq!(
        s.metrics().deliveries.get(),
        1,
        "delivery works after repair"
    );
}

#[test]
fn pylon_outage_fails_subscribes_but_not_publishes() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    // Take down ALL subscriber-KV nodes: quorum for every topic is gone.
    for n in 0..s.pylon().config().kv_nodes as u64 {
        s.schedule_pylon_outage(SimTime::ZERO, n, SimDuration::from_secs(30));
    }
    s.subscribe_lvc(SimTime::from_secs(5), viewer, video);
    s.run_until(SimTime::from_secs(20));
    assert!(
        s.metrics().quorum_failures.get() >= 1,
        "CP subscribe failed"
    );
    // After the outage the retry succeeds and delivery flows.
    let poster = s.create_user_device("poster", "en");
    s.post_comment(
        SimTime::from_secs(60),
        poster,
        video,
        "postquorum comment arrives fine",
    );
    s.run_until(SimTime::from_secs(120));
    assert_eq!(s.metrics().deliveries.get(), 1);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut s = SystemSim::new(SystemConfig::small(), 99);
        let video = s.was_mut().create_video("v");
        let poster = s.create_user_device("poster", "en");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        for i in 0..10 {
            s.post_comment(
                SimTime::from_secs(2 + i),
                poster,
                video,
                &format!("comment {i} with consistent text"),
            );
        }
        s.run_until(SimTime::from_secs(60));
        (
            s.metrics().deliveries.get(),
            s.metrics().publications.get(),
            s.total_decisions(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn stream_lifetime_and_publication_accounting() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(
        SimTime::from_secs(1),
        poster,
        video,
        "a single interesting comment",
    );
    s.run_until(SimTime::from_secs(20));
    s.cancel_stream(SimTime::from_secs(21), viewer, StreamId(1));
    s.run_until(SimTime::from_secs(30));
    assert_eq!(s.metrics().stream_lifetimes.len(), 1);
    assert!(s.metrics().stream_lifetimes[0] >= SimDuration::from_secs(20));
    let buckets = s.metrics().publication_buckets();
    assert_eq!(buckets[1], 100.0, "the one stream saw 1-9 publications");
}

/// A redirect ends a stream at the device, which retries it under the
/// same sid and keeps receiving updates. The stream stays registered on
/// its topic until the device cancels it, so every publication after the
/// redirect still counts toward Fig. 7, and a snapshot taken after the
/// redirect resumes with the registration and its count intact.
#[test]
fn redirected_stream_keeps_counting_publications_across_resume() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.post_comment(SimTime::from_secs(2), poster, video, "before the redirect");
    s.run_until(SimTime::from_secs(5));
    let device = s.device(viewer).expect("created");
    let serving = device
        .stream(StreamId(1))
        .and_then(|st| {
            st.header()
                .get("brass_host")
                .and_then(burst::json::Json::as_u64)
        })
        .expect("sticky host patched") as usize;
    let to_host = (serving + 1) % s.config().brass_hosts as usize;
    s.schedule_brass_redirect(SimTime::from_secs(6), serving, viewer, StreamId(1), to_host);
    for i in 0..9 {
        let text = format!("after the redirect, comment {i}");
        s.post_comment(SimTime::from_secs(20 + 2 * i), poster, video, &text);
    }
    s.run_until(SimTime::from_secs(27));
    assert_eq!(
        s.metrics().stream_lifetimes.len(),
        1,
        "the redirect ended it"
    );
    let mut resumed = SystemSim::resume(s.config().clone(), &s.snapshot())
        .expect("a snapshot taken after a redirect resumes");
    s.run_until(SimTime::from_secs(60));
    resumed.run_until(SimTime::from_secs(60));
    assert_eq!(s.metrics().publications.get(), 10);
    assert_eq!(s.metrics().streams_tracked(), 1);
    let buckets = s.metrics().publication_buckets();
    assert_eq!(
        buckets,
        [0.0, 0.0, 100.0, 0.0],
        "all ten publications count"
    );
    assert!(resumed.metrics() == s.metrics(), "resumed counts match");
}

/// A stream the server ends for good (an Error terminate, which the
/// device does not retry) is gone from the device, so its registration
/// ends with it: publications on its topic after the end do not count
/// toward Fig. 7, and a snapshot taken after the end resumes.
#[test]
fn stream_ended_for_good_stops_counting_publications() {
    let mut s = sim();
    let alice = s.create_user_device("alice", "en");
    let bob = s.create_user_device("bob", "en");
    let thread = s.was_mut().create_thread(&[alice, bob]);
    // Pre-resolved to bob's mailbox topic but routed to LVC, which ends
    // any stream whose topic names no video.
    let header = burst::json::Json::obj([
        ("viewer", burst::json::Json::from(bob)),
        ("app", burst::json::Json::from("lvc")),
        ("topic", burst::json::Json::from(format!("/Msgr/{bob}"))),
    ]);
    s.queue.schedule(
        SimTime::ZERO,
        Ev::DeviceSubscribe {
            device: bob,
            header,
        },
    );
    s.run_until(SimTime::from_secs(5));
    let device = s.device(bob).expect("created");
    assert_eq!(device.open_streams(), 0, "the server ended it for good");
    for i in 0..3 {
        let text = format!("after the end, message {i}");
        s.send_message(SimTime::from_secs(10 + i), alice, thread, &text);
    }
    s.run_until(SimTime::from_secs(20));
    let mut resumed = SystemSim::resume(s.config().clone(), &s.snapshot())
        .expect("a snapshot taken after the end resumes");
    s.run_until(SimTime::from_secs(30));
    resumed.run_until(SimTime::from_secs(30));
    assert!(
        s.metrics().publications.get() >= 3,
        "bob's mailbox was published to"
    );
    assert_eq!(s.metrics().stream_lifetimes.len(), 1);
    assert_eq!(
        s.metrics().publication_buckets(),
        [100.0, 0.0, 0.0, 0.0],
        "none counts for the ended stream"
    );
    assert!(resumed.metrics() == s.metrics(), "resumed counts match");
}

#[test]
fn lvc_traces_account_for_every_update() {
    let mut s = sim();
    let video = s.was_mut().create_video("traced");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    // A burst dense enough to exercise the drop paths: buffer
    // overflow and rate-limit expiry alongside ordinary delivery.
    for i in 0..30 {
        s.post_comment(
            SimTime::from_millis(2_000 + i * 200),
            poster,
            video,
            &format!("burst comment number {i} with plenty of text"),
        );
    }
    // Posts end by t=8s; with a 10s freshness window and a 2s push
    // timer, every buffered comment is pushed or expired long before
    // t=60s, so no trace can still be in flight at the end.
    s.run_until(SimTime::from_secs(60));

    let ledger = s.trace_ledger();
    assert_eq!(ledger.trace_count() as u64, s.metrics().publications.get());
    assert!(ledger.unaccounted().is_empty(), "every update resolved");

    let mut delivered = 0u64;
    for trace in ledger.trace_ids() {
        let chain = ledger.chain(trace);
        assert_eq!(chain[0].hop, Hop::TaoCommit, "chains start at commit");
        for pair in chain.windows(2) {
            assert!(pair[0].at <= pair[1].at, "hop timestamps are monotone");
        }
        if ledger.is_delivered(trace) {
            delivered += 1;
            let last = chain.last().unwrap();
            assert_eq!(last.hop, Hop::DeviceRender);
            assert_eq!(last.outcome, HopOutcome::Ok);
            // Per-hop latencies telescope to the end-to-end latency.
            let hop_sum = chain
                .windows(2)
                .map(|p| p[1].at.saturating_since(p[0].at))
                .fold(SimDuration::ZERO, |a, b| a + b);
            let e2e = ledger
                .deliveries()
                .iter()
                .find(|(t, _)| *t == trace)
                .map(|(_, d)| *d)
                .unwrap();
            assert_eq!(hop_sum, e2e, "hop latencies sum to delivery latency");
        } else {
            ledger
                .drop_of(trace)
                .expect("non-delivered update has a drop record naming hop and reason");
        }
    }
    assert_eq!(delivered, s.metrics().deliveries.get());
    assert!(delivered > 0, "some comments were delivered");
    assert!(
        delivered < 30,
        "the burst must overflow the buffer / rate limit"
    );
    assert!(
        !ledger.drop_table().is_empty(),
        "drop attribution table is populated"
    );
    assert!(
        !ledger.hop_summaries().is_empty(),
        "per-hop latency histograms are populated"
    );
}

#[test]
fn sub_e2e_latency_recorded() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let viewer = s.create_user_device("viewer", "en");
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.run_until(SimTime::from_secs(10));
    assert_eq!(s.metrics().sub_e2e.count(), 1);
    // The sticky-routing rewrite response travels device→BRASS→device.
    assert!(s.metrics().sub_e2e.mean() > 100.0);
}

/// Runs a multi-app scenario and returns an exact fingerprint of the
/// metrics: any dependence on `TopicId` assignment order would perturb
/// at least one of these numbers.
fn metrics_fingerprint() -> String {
    let mut s = sim();
    let video = s.was_mut().create_video("eclipse");
    let poster = s.create_user_device("poster", "en");
    let viewer = s.create_user_device("viewer", "en");
    let thread = s.was_mut().create_thread(&[poster, viewer]);
    s.subscribe_lvc(SimTime::ZERO, viewer, video);
    s.subscribe_mailbox(SimTime::from_millis(10), viewer);
    s.subscribe_typing(SimTime::from_millis(20), viewer, thread, poster);
    s.subscribe_active_status(SimTime::from_millis(30), viewer);
    for i in 0..8 {
        s.post_comment(
            SimTime::from_millis(2_000 + i * 700),
            poster,
            video,
            &format!("comment number {i} with enough words to rank"),
        );
    }
    s.set_typing(SimTime::from_secs(3), poster, thread, true);
    s.send_message(SimTime::from_secs(4), poster, thread, "hello there");
    s.set_online(SimTime::from_secs(5), poster);
    s.run_until(SimTime::from_secs(60));
    let m = s.metrics();
    let per_app: Vec<String> = AppId::ALL
        .into_iter()
        .filter_map(|app| Some((app.name(), m.app_latencies(app)?)))
        .map(|(name, lat)| {
            format!(
                "{name}:{}:{:x}",
                lat.total.count(),
                lat.total.mean().to_bits()
            )
        })
        .collect();
    format!(
        "deliveries={} publications={} subscriptions={} mutations={} \
         decisions={} events={} apps=[{}]",
        m.deliveries.get(),
        m.publications.get(),
        m.subscriptions.get(),
        m.mutations.get(),
        s.total_decisions(),
        s.event_stats().total,
        per_app.join(",")
    )
}

/// Child half of `intern_order_does_not_change_metrics`: only active
/// when re-executed by the parent with `BR_INTERN_DECOYS` set. Interns
/// that many decoy topics *first* — shifting every `TopicId` the
/// scenario will allocate — then prints the metrics fingerprint.
#[test]
fn intern_order_child() {
    let Ok(decoys) = std::env::var("BR_INTERN_DECOYS") else {
        return;
    };
    let decoys: u32 = decoys.parse().expect("BR_INTERN_DECOYS is a count");
    for i in 0..decoys {
        Topic::new(&format!("/Decoy/{i}")).unwrap();
    }
    println!("FINGERPRINT {}", metrics_fingerprint());
}

/// Interning is process-global, so perturbing id assignment requires a
/// fresh process: the test re-executes its own binary twice, once with
/// no decoy topics and once with 64 interned up front, and asserts the
/// two runs produce bit-identical metrics. Referenced from the module
/// docs of `pylon::topic`.
#[test]
fn intern_order_does_not_change_metrics() {
    let exe = std::env::current_exe().expect("test binary path");
    let run = |decoys: &str| -> String {
        let out = std::process::Command::new(&exe)
            .args(["sim::tests::intern_order_child", "--exact", "--nocapture"])
            .env("BR_INTERN_DECOYS", decoys)
            .output()
            .expect("re-exec test binary");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "child failed:\n{stdout}");
        // The harness may prefix its own status on the same line, so
        // split on the marker rather than anchoring at column zero.
        stdout
            .lines()
            .find_map(|l| l.split("FINGERPRINT ").nth(1))
            .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"))
            .to_owned()
    };
    let baseline = run("0");
    let shifted = run("64");
    assert_eq!(
        baseline, shifted,
        "metrics must not depend on topic intern order"
    );
}

/// What `lose_connection` carries for every way a device's connection
/// dies, and the one thing that is the announced drop's own: only it tells
/// the proxy before heartbeats could.
#[test]
fn announced_drop_and_silent_vanish_share_the_connection_loss_contract() {
    for announced in [true, false] {
        let mut s = sim();
        let video = s.was_mut().create_video("v");
        let viewer = s.create_user_device("viewer", "en");
        s.subscribe_lvc(SimTime::ZERO, viewer, video);
        s.run_until(SimTime::from_secs(10));
        assert_eq!(s.proxies.iter().map(|p| p.stream_count()).sum::<usize>(), 1);
        // A flow-control episode in progress, so the reset is observable.
        let state = s.devices.get_mut(viewer).expect("viewer exists");
        state.flow = FlowWindow::new(100);
        state.flow.try_send(80);
        assert_eq!(state.flow.try_send(80), Admit::ShedDegrade);
        state.degraded_sids.push(StreamId(1));

        let at = SimTime::from_secs(11);
        if announced {
            s.schedule_device_drop(at, viewer);
        } else {
            s.schedule_device_vanish(at, viewer);
        }
        // Inside the 2 s base backoff, and far inside the 15 s it takes
        // POP heartbeats to reap a silent device.
        s.run_until(at + SimDuration::from_secs(1));
        let state = s.devices.get(viewer).expect("viewer exists");
        assert!(!state.connected, "announced={announced}");
        assert_eq!(state.flow.in_flight(), 0);
        assert!(!state.flow.is_degraded() && state.degraded_sids.is_empty());
        assert_eq!(s.metrics().connection_drops.get(), 1);
        assert_eq!(s.metrics().device_vanishes.get(), u64::from(!announced));
        let proxy_streams: usize = s.proxies.iter().map(|p| p.stream_count()).sum();
        assert_eq!(
            proxy_streams,
            usize::from(!announced),
            "announced={announced}"
        );

        // One reconnect: the one open stream resubscribes once.
        assert_eq!(s.metrics().subscriptions.get(), 1);
        s.run_until(at + SimDuration::from_secs(10));
        assert!(s.devices.get(viewer).expect("viewer exists").connected);
        assert_eq!(s.metrics().subscriptions.get(), 2);
        assert_eq!(s.metrics().connection_drops.get(), 1);
        assert_eq!(s.proxies.iter().map(|p| p.stream_count()).sum::<usize>(), 1);
    }
}

/// A snapshot whose queue holds an event naming a host the config does
/// not have is rejected at resume, not loaded to panic on an index when
/// the event runs.
#[test]
fn resume_rejects_a_queued_event_naming_a_missing_host() {
    let timer = |host| Ev::BrassTimer {
        host,
        app: AppId::Lvc,
        token: 0x5EED_7153,
    };
    let encode = |ev: &Ev| {
        let mut w = SnapWriter::new();
        ev.snap(&mut w);
        w.into_bytes()
    };
    let mut s = sim();
    s.queue.schedule(SimTime::from_secs(1), timer(0));
    let body = simkit::snap::unseal(&s.snapshot())
        .expect("pristine")
        .to_vec();
    let (good, bad) = (encode(&timer(0)), encode(&timer(s.hosts.len())));
    assert_eq!(good.len(), bad.len());
    let at = body
        .windows(good.len())
        .position(|w| w == good)
        .expect("the timer is in the queue section");
    let mut resealed = body.clone();
    resealed[at..at + good.len()].copy_from_slice(&bad);
    let config = SystemConfig::small();
    SystemSim::resume(config.clone(), &simkit::snap::seal(body)).expect("pristine world resumes");
    let Err(err) = SystemSim::resume(config, &simkit::snap::seal(resealed)) else {
        panic!("a queued timer for host {} was accepted", s.hosts.len());
    };
    assert!(format!("{err}").contains("host 4, config has 4"), "{err}");
}

/// A snapshot naming a device id the TAO never issued is rejected at
/// resume. The id is the last device's, raised far past the TAO's next id
/// but still ascending: loading it would size the fleet index at 4 bytes
/// per id in range, terabytes, so this passing also shows the check runs
/// before the index grows.
#[test]
fn resume_rejects_a_device_id_the_tao_never_issued() {
    let mut s = sim();
    let video = s.was_mut().create_video("v");
    let viewers: Vec<u64> = (0..3)
        .map(|i| s.create_user_device(&format!("u{i}"), "en"))
        .collect();
    // An object after the fleet: the TAO's next id is not last + 1.
    s.was_mut().create_video("after the fleet");
    for &v in &viewers {
        s.subscribe_lvc(SimTime::ZERO, v, video);
    }
    s.run_until(SimTime::from_secs(5));
    let next = s.was.tao().next_object_id();
    let body = simkit::snap::unseal(&s.snapshot())
        .expect("pristine")
        .to_vec();
    let (last, state) = s.devices.iter().last().expect("a fleet");
    let mut w = SnapWriter::new();
    last.snap(&mut w);
    state.snap(&mut w);
    let entry = w.into_bytes();
    let at = body
        .windows(entry.len())
        .position(|w| w == entry)
        .expect("the last device's entry is in the device section");
    assert_eq!(body.windows(entry.len()).filter(|w| *w == entry).count(), 1);
    let config = SystemConfig::small();
    let with_id = |id: u64| {
        let mut bad = body.clone();
        bad[at..at + 8].copy_from_slice(&id.to_le_bytes());
        SystemSim::resume(config.clone(), &simkit::snap::seal(bad))
    };
    assert!(with_id(last).is_ok(), "pristine world resumes");
    for id in [next, next + 1, 1 << 40, u64::MAX] {
        let Err(err) = with_id(id) else {
            panic!("device id {id} accepted; the TAO issued ids below {next}");
        };
        assert!(
            format!("{err}").contains(&format!("device id {id}")),
            "{err}"
        );
    }
}
