//! Edge-chain integration: Device ↔ POP ↔ ReverseProxy driven together,
//! without the full-system simulator, exercising frame routing, failure
//! signalling and repair across the real effect interfaces.

use burst::frame::{Delta, Frame};
use burst::json::Json;
use edge::device::{Device, DeviceOutput};
use edge::pop::{Pop, PopEffect};
use edge::proxy::{ProxyEffect, ReverseProxy, RouteStrategy};

/// What an `_into` handler emits, as a vector.
fn collect<E>(run: impl FnOnce(&mut Vec<E>)) -> Vec<E> {
    let mut out = Vec::new();
    run(&mut out);
    out
}

fn header(topic: &str) -> Json {
    Json::obj([
        ("viewer", Json::from(7u64)),
        ("app", Json::from("lvc")),
        ("topic", Json::from(topic)),
    ])
}

/// Drives a device frame down the chain, returning what reached the BRASS.
fn device_to_brass(
    pop: &mut Pop,
    proxy: &mut ReverseProxy,
    device: u64,
    frame: Frame,
    now: u64,
) -> Vec<(u32, Frame)> {
    let mut to_brass = Vec::new();
    for fx in pop.on_device_frame(device, frame, now) {
        if let PopEffect::ToProxy { device, frame, .. } = fx {
            for pfx in proxy.on_downstream_frame(device, *frame, now) {
                if let ProxyEffect::ToBrass { host, frame, .. } = pfx {
                    to_brass.push((host, *frame));
                }
            }
        }
    }
    to_brass
}

/// Drives a BRASS response up the chain to the device.
fn brass_to_device(
    pop: &mut Pop,
    proxy: &mut ReverseProxy,
    device: &mut Device,
    dev_id: u64,
    frame: Frame,
    now: u64,
) -> Vec<DeviceOutput> {
    let mut outputs = Vec::new();
    for pfx in proxy.on_upstream_frame(dev_id, frame, now) {
        if let ProxyEffect::ToDevice { device: d, frame } = pfx {
            for fx in pop.on_proxy_frame(d, *frame, now) {
                if let PopEffect::ToDevice { frame, .. } = fx {
                    outputs.extend(device.on_frame(&frame));
                }
            }
        }
    }
    outputs
}

#[test]
fn full_chain_subscribe_deliver() {
    let mut device = Device::new(7);
    let mut pop = Pop::new(1, vec![10]);
    let mut proxy = ReverseProxy::new(10, RouteStrategy::ByTopic, vec![100, 101]);

    let (sid, sub) = device.open_stream(header("/LVC/5"), vec![]);
    let reached = device_to_brass(&mut pop, &mut proxy, 7, sub, 0);
    assert_eq!(reached.len(), 1, "subscribe reached exactly one BRASS");
    let (host, _) = reached[0];

    // The BRASS responds with an update.
    let response = Frame::Response {
        sid,
        batch: vec![Delta::update(0, b"payload".to_vec())],
    };
    let outputs = brass_to_device(&mut pop, &mut proxy, &mut device, 7, response, 1);
    assert!(
        matches!(&outputs[0], DeviceOutput::Render { payload, .. } if &payload[..] == b"payload")
    );
    assert_eq!(device.delivered(), 1);
    // Both intermediaries track the stream.
    assert_eq!(pop.stream_count(), 1);
    assert_eq!(proxy.stream_count(), 1);
    let _ = host;
}

#[test]
fn brass_failure_ripples_degraded_and_recovered_to_device() {
    let mut device = Device::new(7);
    let mut pop = Pop::new(1, vec![10]);
    let mut proxy = ReverseProxy::new(10, RouteStrategy::ByLoad, vec![100, 101]);
    let (_sid, sub) = device.open_stream(header("/LVC/5"), vec![]);
    let reached = device_to_brass(&mut pop, &mut proxy, 7, sub, 0);
    let (host, _) = reached[0];

    // The serving BRASS dies; the proxy signals and repairs.
    let mut device_outputs = Vec::new();
    let mut resubscribed_to = None;
    for fx in collect(|out| proxy.on_brass_host_failed_into(host, out)) {
        match fx {
            ProxyEffect::ToDevice { frame, .. } => {
                for pfx in pop.on_proxy_frame(7, *frame, 1) {
                    if let PopEffect::ToDevice { frame, .. } = pfx {
                        device_outputs.extend(device.on_frame(&frame));
                    }
                }
            }
            ProxyEffect::ToBrass { host, .. } => resubscribed_to = Some(host),
            _ => {}
        }
    }
    assert!(device_outputs.contains(&DeviceOutput::ConnectivityChanged { degraded: true }));
    assert!(device_outputs.contains(&DeviceOutput::ConnectivityChanged { degraded: false }));
    let new_host = resubscribed_to.expect("repair resubscribed somewhere");
    assert_ne!(new_host, host, "repaired onto a different host");
}

#[test]
fn device_reconnect_flows_through_fresh_pop() {
    let mut device = Device::new(7);
    let mut pop_a = Pop::new(1, vec![10]);
    let mut pop_b = Pop::new(2, vec![10]);
    let mut proxy = ReverseProxy::new(10, RouteStrategy::ByLoad, vec![100]);

    let (sid, sub) = device.open_stream(header("/LVC/5"), vec![]);
    device_to_brass(&mut pop_a, &mut proxy, 7, sub, 0);
    // Sticky rewrite arrives before the POP dies.
    brass_to_device(
        &mut pop_a,
        &mut proxy,
        &mut device,
        7,
        Frame::Response {
            sid,
            batch: vec![Delta::RewriteRequest {
                patch: Json::obj([("brass_host", Json::from(100u64))]),
            }],
        },
        1,
    );

    // POP A dies: the device reconnects through POP B with its rewritten
    // header; no state from POP A is needed.
    let frames = device.on_connection_lost();
    assert_eq!(frames.len(), 1);
    let reached = device_to_brass(
        &mut pop_b,
        &mut proxy,
        7,
        frames.into_iter().next().unwrap(),
        2,
    );
    assert_eq!(reached.len(), 1);
    match &reached[0].1 {
        Frame::Subscribe { header, .. } => {
            assert_eq!(header.get("brass_host").and_then(Json::as_u64), Some(100));
        }
        other => panic!("expected subscribe, got {other:?}"),
    }
    assert!(
        matches!(reached[0].0, 100),
        "sticky routing held across POPs"
    );
}

#[test]
fn cancel_cleans_all_hops() {
    let mut device = Device::new(7);
    let mut pop = Pop::new(1, vec![10]);
    let mut proxy = ReverseProxy::new(10, RouteStrategy::ByLoad, vec![100]);
    let (sid, sub) = device.open_stream(header("/LVC/5"), vec![]);
    device_to_brass(&mut pop, &mut proxy, 7, sub, 0);
    let cancel = device.cancel_stream(sid).unwrap();
    let reached = device_to_brass(&mut pop, &mut proxy, 7, cancel, 1);
    assert!(matches!(reached[0].1, Frame::Cancel { .. }));
    assert_eq!(pop.stream_count(), 0);
    assert_eq!(proxy.stream_count(), 0);
    assert_eq!(device.open_streams(), 0);
}

#[test]
fn heartbeat_ping_pong_roundtrip_through_pop() {
    let mut device = Device::new(7);
    let mut pop = Pop::new(1, vec![10]);
    // Register the device with the POP via a subscribe.
    let (_, sub) = device.open_stream(header("/LVC/5"), vec![]);
    pop.on_device_frame(7, sub, 0);
    // A heartbeat tick pings the device.
    let fx = collect(|out| pop.on_heartbeat_tick_into(5_000_000, out));
    let ping = fx
        .iter()
        .find_map(|e| match e {
            PopEffect::ToDevice { frame, .. } => Some(frame.clone()),
            _ => None,
        })
        .expect("ping emitted");
    // The device answers; the pong terminates at the POP.
    let outputs = device.on_frame(&ping);
    let DeviceOutput::Send(pong) = &outputs[0] else {
        panic!("expected a pong send");
    };
    let fx = pop.on_device_frame(7, pong.clone(), 5_100_000);
    assert!(fx.is_empty(), "pongs are absorbed by the POP");
    // Liveness held: many more ticks, no disconnect (device keeps answering).
    for i in 2..=8u64 {
        let fx = collect(|out| pop.on_heartbeat_tick_into(i * 5_000_000, out));
        for e in &fx {
            let PopEffect::ToDevice { frame, .. } = e else {
                continue;
            };
            if matches!(**frame, Frame::Ping { .. }) {
                let outs = device.on_frame(frame);
                if let DeviceOutput::Send(p) = &outs[0] {
                    pop.on_device_frame(7, p.clone(), i * 5_000_000 + 1);
                }
            }
        }
        assert!(
            !fx.iter().any(|e| matches!(e, PopEffect::DeviceGone { .. })),
            "responsive device never declared gone"
        );
    }
}
