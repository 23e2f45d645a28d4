//! Protocol-level integration: the BURST state machines of all three roles
//! (client, proxy, server) driven together across a scripted multi-hop
//! exchange, including wire encoding on every hop.

use burst::codec::{encode_to_vec, Decoder};
use burst::flow::{Admit, FlowWindow};
use burst::frame::{Delta, Frame, StreamId, TerminateReason};
use burst::json::Json;
use burst::stream::{ClientAction, ClientStream, ProxyStreamTable, ServerStream, StreamState};

fn apply_batch(client: &mut ClientStream, batch: &[Delta]) -> Vec<ClientAction> {
    let mut actions = Vec::new();
    client.on_batch_with(batch, |action| actions.push(action));
    actions
}

/// Pushes a frame through a wire hop: encode, then decode on the far side.
fn wire(frame: &Frame) -> Frame {
    let bytes = encode_to_vec(frame);
    let mut dec = Decoder::new();
    dec.feed(&bytes);
    dec.next_frame().unwrap().expect("one complete frame")
}

#[test]
fn subscribe_rewrite_deliver_cancel_across_hops() {
    let header = Json::obj([
        ("viewer", Json::from(9u64)),
        ("topic", Json::from("/LVC/42")),
        ("app", Json::from("lvc")),
    ]);
    let mut client = ClientStream::new(StreamId(1), header, b"body".to_vec());
    let mut pop = ProxyStreamTable::new();
    let mut proxy = ProxyStreamTable::new();

    // Subscribe travels client → POP → proxy → BRASS, encoded on each hop.
    let sub = wire(&client.subscribe_request());
    let Frame::Subscribe { sid, header, body } = sub else {
        panic!("expected subscribe");
    };
    pop.on_subscribe(9, sid, header.clone(), body.clone(), Some(1));
    let f = wire(&Frame::Subscribe {
        sid,
        header: header.clone(),
        body: body.clone(),
    });
    let Frame::Subscribe { sid, header, body } = f else {
        panic!("expected subscribe");
    };
    proxy.on_subscribe(9, sid, header.clone(), body, Some(7));

    // BRASS accepts, patches sticky routing, and pushes two updates.
    let mut server = ServerStream::accept(sid, &header, false);
    let rewrite = Delta::rewrite(Json::obj([("brass_host", Json::from(7u64))]));
    let batch = vec![
        rewrite,
        server.push(b"u0".to_vec()),
        server.push(b"u1".to_vec()),
    ];
    let response = wire(&Frame::Response { sid, batch });

    // The response passes back through both intermediaries, which observe
    // the rewrite, then reaches the client.
    let Frame::Response { sid, batch } = response else {
        panic!("expected response");
    };
    proxy.on_response(9, sid, &batch);
    pop.on_response(9, sid, &batch);
    assert_eq!(
        proxy
            .get(9, sid)
            .unwrap()
            .header
            .unpack()
            .get("brass_host")
            .and_then(Json::as_u64),
        Some(7),
        "proxy state tracks the rewrite"
    );
    let actions = apply_batch(&mut client, &batch);
    assert_eq!(
        actions,
        vec![
            ClientAction::HeaderRewritten,
            ClientAction::Deliver(b"u0".to_vec().into()),
            ClientAction::Deliver(b"u1".to_vec().into()),
        ]
    );
    assert_eq!(client.state(), StreamState::Active);

    // Cancel: state is garbage-collected on every hop.
    let cancel = wire(&Frame::Cancel { sid });
    let Frame::Cancel { sid } = cancel else {
        panic!("expected cancel")
    };
    pop.on_cancel(9, sid);
    proxy.on_cancel(9, sid);
    assert!(pop.is_empty());
    assert!(proxy.is_empty());
}

#[test]
fn failover_resumes_from_rewritten_state() {
    // A server records progress via rewrites; after it dies, the proxy
    // rebuilds the subscribe from stored state and a NEW server resumes
    // sequence numbering where the old one stopped.
    let header = Json::obj([
        ("viewer", Json::from(9u64)),
        ("topic", Json::from("/Msgr/9")),
    ]);
    let mut client = ClientStream::new(StreamId(5), header.clone(), vec![]);
    let mut proxy = ProxyStreamTable::new();
    proxy.on_subscribe(9, StreamId(5), header.clone(), vec![], Some(1));

    let mut server_a = ServerStream::accept(StreamId(5), &header, true);
    let batch = vec![
        server_a.push(b"m0".to_vec()),
        server_a.push(b"m1".to_vec()),
        server_a.rewrite_progress(), // installs last_seq = 1
    ];
    proxy.on_response(9, StreamId(5), &batch);
    apply_batch(&mut client, &batch);
    assert_eq!(client.delivered(), 2);

    // Host 1 dies; the proxy repairs onto host 2 using stored state.
    let affected = proxy.streams_via(1);
    assert_eq!(affected, vec![(9, StreamId(5))]);
    let resub = proxy.rebuild_subscribe(9, StreamId(5), 2).unwrap();
    let Frame::Subscribe { sid, header, .. } = wire(&resub) else {
        panic!("expected subscribe");
    };
    // Client learns of the repair (degraded → recovered resyncs its seq).
    apply_batch(
        &mut client,
        &[Delta::FlowStatus(burst::frame::FlowStatus::Degraded)],
    );
    apply_batch(
        &mut client,
        &[Delta::FlowStatus(burst::frame::FlowStatus::Recovered)],
    );

    let mut server_b = ServerStream::accept(sid, &header, true);
    assert_eq!(
        server_b.next_seq(),
        2,
        "resumes after the rewritten last_seq"
    );
    let batch = vec![server_b.push(b"m2".to_vec())];
    let actions = apply_batch(&mut client, &batch);
    assert_eq!(actions, vec![ClientAction::Deliver(b"m2".to_vec().into())]);
    assert_eq!(client.gaps(), 0, "no gap, no replay");
}

#[test]
fn redirect_flow() {
    let header = Json::obj([
        ("viewer", Json::from(1u64)),
        ("topic", Json::from("/LVC/1")),
    ]);
    let mut client = ClientStream::new(StreamId(2), header, vec![]);
    // The BRASS wants this stream elsewhere: rewrite routing info, then
    // terminate with Redirect.
    let batch = vec![
        Delta::rewrite(Json::obj([("brass_host", Json::from(99u64))])),
        Delta::Terminate(TerminateReason::Redirect),
    ];
    let actions = apply_batch(&mut client, &batch);
    assert!(actions.contains(&ClientAction::Terminated(TerminateReason::Redirect)));
    // The client retries; its subscribe carries the new routing hint.
    let f = client.resubscribe_request();
    let Frame::Subscribe { header, .. } = f else {
        panic!("expected subscribe")
    };
    assert_eq!(header.get("brass_host").and_then(Json::as_u64), Some(99));
}

#[test]
fn ack_retention_replay_cycle() {
    let header = Json::obj([
        ("viewer", Json::from(1u64)),
        ("topic", Json::from("/Msgr/1")),
    ]);
    let mut client = ClientStream::new(StreamId(3), header.clone(), vec![]);
    let mut server = ServerStream::accept(StreamId(3), &header, true);
    let batch = vec![
        server.push(b"a".to_vec()),
        server.push(b"b".to_vec()),
        server.push(b"c".to_vec()),
    ];
    apply_batch(&mut client, &batch);
    // The client acks; the wire hop preserves it; retention shrinks.
    let ack = wire(&client.ack_request());
    let Frame::Ack { seq, .. } = ack else {
        panic!("expected ack")
    };
    server.on_ack(seq);
    assert!(server.unacked().is_empty(), "everything acked");
    // More updates, no ack: a reconnect replays exactly those.
    server.push(b"d".to_vec());
    let replay = server.replay_unacked();
    assert_eq!(replay, vec![Delta::update(3, b"d".to_vec())]);
    let actions = apply_batch(&mut client, &replay);
    assert_eq!(actions, vec![ClientAction::Deliver(b"d".to_vec().into())]);
}

#[test]
fn flow_control_end_to_end_over_wire() {
    // The egress window the simulator drives on each device: a data frame
    // is charged its wire size, what does not fit is shed with one
    // Degraded, and draining what went out signals one Recovered.
    let mut window = FlowWindow::new(200);
    let mut admitted = Vec::new();
    let mut degraded = 0;
    for i in 0..10u64 {
        let frame = Frame::Response {
            sid: StreamId(1),
            batch: vec![Delta::update(i, vec![i as u8; 80])],
        };
        match window.try_send(frame.wire_size() as u64) {
            Admit::Ok => admitted.push(frame),
            Admit::ShedDegrade => degraded += 1,
            Admit::Shed => {}
        }
    }
    let size = admitted[0].wire_size() as u64;
    assert_eq!(
        admitted.len() as u64,
        200 / size,
        "admitted until the window is full"
    );
    assert_eq!(window.in_flight(), admitted.len() as u64 * size);
    assert_eq!(degraded, 1, "the shed frames signal Degraded once");
    let mut recovered = 0;
    for frame in &admitted {
        let received = wire(frame);
        assert_eq!(&received, frame, "an admitted frame decodes intact");
        if window.on_drained(received.wire_size() as u64) {
            recovered += 1;
        }
    }
    assert_eq!(
        recovered, 1,
        "draining what was received signals Recovered once"
    );
    assert_eq!(window.in_flight(), 0);
    assert!(!window.is_degraded());
}
