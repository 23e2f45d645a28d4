//! The proxy stream table, grouped by connection, against a flat model: a
//! `BTreeMap` from `(conn, sid)` to the entry, which is what the table
//! stored before it was grouped. After every step the two hold the same
//! entries, answer the same whole-table queries, and snapshot to the same
//! bytes; the table also reads back from its bytes.

use std::collections::BTreeMap;

use burst::frame::{Delta, StreamId, TerminateReason};
use burst::json::{Json, PackedJson};
use burst::stream::{ProxyEntry, ProxyStreamTable};
use proptest::prelude::*;
use simkit::snap::{Snap, SnapReader, SnapWriter};

type Model = BTreeMap<(u64, StreamId), ProxyEntry>;

#[derive(Clone, Debug)]
enum Op {
    Subscribe {
        conn: u64,
        sid: u64,
        upstream: Option<u64>,
    },
    /// A response batch: a `last_seq` progress, then a terminate if asked.
    Response {
        conn: u64,
        sid: u64,
        last_seq: u64,
        terminate: bool,
    },
    Cancel(u64, u64),
    ConnectionClosed(u64),
    ClearUpstream(u64, u64),
    RebuildSubscribe(u64, u64, u64),
    StreamsVia(u64),
    Orphans(Vec<u64>),
}

fn op() -> impl Strategy<Value = Op> {
    let conn = || 0u64..4;
    let sid = || 1u64..6;
    let hop = || 0u64..3;
    // Subscribe is listed twice so the table fills faster than it drains.
    prop_oneof![
        (conn(), sid(), proptest::option::of(hop())).prop_map(|(conn, sid, upstream)| {
            Op::Subscribe {
                conn,
                sid,
                upstream,
            }
        }),
        (conn(), sid(), proptest::option::of(hop())).prop_map(|(conn, sid, upstream)| {
            Op::Subscribe {
                conn,
                sid,
                upstream,
            }
        }),
        (conn(), sid(), 0u64..100, any::<bool>()).prop_map(|(conn, sid, last_seq, terminate)| {
            Op::Response {
                conn,
                sid,
                last_seq,
                terminate,
            }
        }),
        (conn(), sid()).prop_map(|(c, s)| Op::Cancel(c, s)),
        conn().prop_map(Op::ConnectionClosed),
        (conn(), sid()).prop_map(|(c, s)| Op::ClearUpstream(c, s)),
        (conn(), sid(), hop()).prop_map(|(c, s, h)| Op::RebuildSubscribe(c, s, h)),
        hop().prop_map(Op::StreamsVia),
        proptest::collection::vec(hop(), 0..3).prop_map(Op::Orphans),
    ]
}

fn header(conn: u64, sid: u64) -> Json {
    Json::obj([
        ("topic", Json::from("/LVC/1")),
        ("viewer", Json::from(conn)),
        ("sid", Json::from(sid)),
    ])
}

fn bytes(value: &impl Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.snap(&mut w);
    w.into_bytes()
}

/// The keys the model holds whose entry passes `keep`, ascending.
fn model_select(model: &Model, keep: impl Fn(&ProxyEntry) -> bool) -> Vec<(u64, StreamId)> {
    model
        .iter()
        .filter(|(_, e)| keep(e))
        .map(|(&k, _)| k)
        .collect()
}

proptest! {
    #[test]
    fn grouped_table_matches_the_flat_model(ops in proptest::collection::vec(op(), 1..80)) {
        let mut table = ProxyStreamTable::new();
        let mut model = Model::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Subscribe { conn, sid, upstream } => {
                    let body = vec![sid as u8];
                    table.on_subscribe(conn, StreamId(sid), header(conn, sid), body.clone(), upstream);
                    let entry = ProxyEntry {
                        header: PackedJson::pack(&header(conn, sid)),
                        body: body.into_boxed_slice(),
                        upstream,
                    };
                    model.insert((conn, StreamId(sid)), entry);
                }
                Op::Response { conn, sid, last_seq, terminate } => {
                    let mut batch = vec![Delta::progress(last_seq)];
                    if terminate {
                        batch.push(Delta::Terminate(TerminateReason::Cancelled));
                    }
                    table.on_response(conn, StreamId(sid), &batch);
                    let key = (conn, StreamId(sid));
                    if terminate {
                        model.remove(&key);
                    } else if let Some(e) = model.get_mut(&key) {
                        e.header.set_last_seq(last_seq);
                    }
                }
                Op::Cancel(conn, sid) => {
                    table.on_cancel(conn, StreamId(sid));
                    model.remove(&(conn, StreamId(sid)));
                }
                Op::ConnectionClosed(conn) => {
                    let before = model.len();
                    model.retain(|&(c, _), _| c != conn);
                    prop_assert_eq!(table.on_connection_closed(conn), before - model.len());
                }
                Op::ClearUpstream(conn, sid) => {
                    table.clear_upstream(conn, StreamId(sid));
                    if let Some(e) = model.get_mut(&(conn, StreamId(sid))) {
                        e.upstream = None;
                    }
                }
                Op::RebuildSubscribe(conn, sid, hop) => {
                    let frame = table.rebuild_subscribe(conn, StreamId(sid), hop);
                    let want = model.get_mut(&(conn, StreamId(sid))).map(|e| {
                        e.upstream = Some(hop);
                        burst::frame::Frame::Subscribe {
                            sid: StreamId(sid),
                            header: e.header.unpack(),
                            body: e.body.to_vec(),
                        }
                    });
                    prop_assert_eq!(frame, want);
                }
                Op::StreamsVia(hop) => {
                    let want = model_select(&model, |e| e.upstream == Some(hop));
                    prop_assert_eq!(table.streams_via(hop), want);
                }
                Op::Orphans(live) => {
                    let want = model_select(&model, |e| e.upstream.is_none_or(|u| !live.contains(&u)));
                    prop_assert_eq!(table.orphans(&live), want);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            for conn in 0..4 {
                let listed: Vec<(StreamId, Vec<u8>)> =
                    table.streams_of(conn).map(|(sid, e)| (sid, bytes(e))).collect();
                let want: Vec<(StreamId, Vec<u8>)> = model
                    .range((conn, StreamId(0))..=(conn, StreamId(u64::MAX)))
                    .map(|(&(_, sid), e)| (sid, bytes(e)))
                    .collect();
                prop_assert_eq!(listed, want, "conn {} after step {}", conn, step);
            }
            let snapped = bytes(&table);
            prop_assert_eq!(&snapped, &bytes(&model), "after step {}", step);
            let mut r = SnapReader::new(&snapped);
            let read = ProxyStreamTable::restore(&mut r).expect("restore");
            r.finish().expect("no trailing bytes");
            prop_assert_eq!(read.len(), model.len());
            prop_assert_eq!(bytes(&read), snapped);
        }
    }
}
