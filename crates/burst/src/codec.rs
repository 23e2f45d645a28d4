//! BURST wire format.
//!
//! Frames are encoded as `varint(length) ++ body` so they can be streamed
//! over any byte transport (TCP, QUIC stream, WebSocket binary message) and
//! decoded incrementally. Inside the body, integers are LEB128 varints and
//! strings/blobs are length-prefixed. Headers travel as JSON text (they must
//! be readable and rewritable by proxies).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::frame::{Delta, FlowStatus, Frame, StreamId, TerminateReason};
use crate::json::Json;

/// Maximum accepted frame size; protects decoders from hostile lengths.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Error produced when decoding malformed frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown frame or delta tag.
    BadTag(u8),
    /// A declared length exceeded [`MAX_FRAME_LEN`] or the frame body.
    BadLength,
    /// A header was not valid JSON.
    BadJson,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The frame body ended before all fields were read.
    Truncated,
    /// A varint was longer than 10 bytes.
    BadVarint,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::BadLength => write!(f, "invalid length"),
            DecodeError::BadJson => write!(f, "malformed JSON header"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8"),
            DecodeError::Truncated => write!(f, "truncated frame body"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint from a buffer.
pub fn get_varint(buf: &mut impl Buf) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(DecodeError::Truncated);
        }
        let byte = buf.get_u8();
        if shift == 63 && byte > 1 {
            return Err(DecodeError::BadVarint);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::BadVarint);
        }
    }
}

fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    put_varint(buf, data.len() as u64);
    buf.put_slice(data);
}

fn get_blob(buf: &mut Bytes) -> Result<Vec<u8>, DecodeError> {
    let len = get_varint(buf)? as usize;
    if len > MAX_FRAME_LEN || len > buf.remaining() {
        return Err(DecodeError::BadLength);
    }
    Ok(buf.copy_to_bytes(len).to_vec())
}

fn get_string(buf: &mut Bytes) -> Result<String, DecodeError> {
    String::from_utf8(get_blob(buf)?).map_err(|_| DecodeError::BadUtf8)
}

fn get_json(buf: &mut Bytes) -> Result<Json, DecodeError> {
    Json::parse(&get_string(buf)?).map_err(|_| DecodeError::BadJson)
}

mod tag {
    pub const SUBSCRIBE: u8 = 0x01;
    pub const CANCEL: u8 = 0x02;
    pub const ACK: u8 = 0x03;
    pub const RESPONSE: u8 = 0x04;
    pub const PING: u8 = 0x06;
    pub const PONG: u8 = 0x07;

    pub const D_UPDATE: u8 = 0x10;
    pub const D_FLOW: u8 = 0x11;
    pub const D_REWRITE: u8 = 0x12;
    pub const D_TERMINATE: u8 = 0x13;
}

fn flow_to_byte(s: FlowStatus) -> u8 {
    match s {
        FlowStatus::Degraded => 0,
        FlowStatus::Recovered => 1,
    }
}

fn flow_from_byte(b: u8) -> Result<FlowStatus, DecodeError> {
    match b {
        0 => Ok(FlowStatus::Degraded),
        1 => Ok(FlowStatus::Recovered),
        _ => Err(DecodeError::BadTag(b)),
    }
}

fn reason_to_byte(r: TerminateReason) -> u8 {
    match r {
        TerminateReason::Cancelled => 0,
        TerminateReason::Redirect => 1,
        TerminateReason::ServerShutdown => 2,
        TerminateReason::Denied => 3,
        TerminateReason::Error => 4,
    }
}

fn reason_from_byte(b: u8) -> Result<TerminateReason, DecodeError> {
    match b {
        0 => Ok(TerminateReason::Cancelled),
        1 => Ok(TerminateReason::Redirect),
        2 => Ok(TerminateReason::ServerShutdown),
        3 => Ok(TerminateReason::Denied),
        4 => Ok(TerminateReason::Error),
        _ => Err(DecodeError::BadTag(b)),
    }
}

fn encode_delta(delta: &Delta, buf: &mut BytesMut) {
    match delta {
        Delta::Update { seq, payload } => {
            buf.put_u8(tag::D_UPDATE);
            put_varint(buf, *seq);
            put_bytes(buf, payload);
        }
        Delta::FlowStatus(s) => {
            buf.put_u8(tag::D_FLOW);
            buf.put_u8(flow_to_byte(*s));
        }
        Delta::RewriteRequest { .. } | Delta::Progress { .. } => {
            let patch = delta.rewrite_patch().expect("a rewrite");
            buf.put_u8(tag::D_REWRITE);
            put_bytes(buf, patch.to_string().as_bytes());
        }
        Delta::Terminate(r) => {
            buf.put_u8(tag::D_TERMINATE);
            buf.put_u8(reason_to_byte(*r));
        }
    }
}

fn decode_delta(buf: &mut Bytes) -> Result<Delta, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    match buf.get_u8() {
        tag::D_UPDATE => {
            let seq = get_varint(buf)?;
            let payload = get_blob(buf)?;
            Ok(Delta::Update {
                seq,
                payload: payload.into(),
            })
        }
        tag::D_FLOW => {
            if !buf.has_remaining() {
                return Err(DecodeError::Truncated);
            }
            Ok(Delta::FlowStatus(flow_from_byte(buf.get_u8())?))
        }
        tag::D_REWRITE => Ok(Delta::rewrite(get_json(buf)?)),
        tag::D_TERMINATE => {
            if !buf.has_remaining() {
                return Err(DecodeError::Truncated);
            }
            Ok(Delta::Terminate(reason_from_byte(buf.get_u8())?))
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

/// Encodes a frame (with its length prefix) onto `out`.
pub fn encode_frame(frame: &Frame, out: &mut BytesMut) {
    let mut body = BytesMut::with_capacity(frame.wire_size() + 8);
    match frame {
        Frame::Subscribe {
            sid,
            header,
            body: b,
        } => {
            body.put_u8(tag::SUBSCRIBE);
            put_varint(&mut body, sid.0);
            put_bytes(&mut body, header.to_string().as_bytes());
            put_bytes(&mut body, b);
        }
        Frame::Cancel { sid } => {
            body.put_u8(tag::CANCEL);
            put_varint(&mut body, sid.0);
        }
        Frame::Ack { sid, seq } => {
            body.put_u8(tag::ACK);
            put_varint(&mut body, sid.0);
            put_varint(&mut body, *seq);
        }
        Frame::Response { sid, batch } => {
            body.put_u8(tag::RESPONSE);
            put_varint(&mut body, sid.0);
            put_varint(&mut body, batch.len() as u64);
            for delta in batch {
                encode_delta(delta, &mut body);
            }
        }
        Frame::Ping { token } => {
            body.put_u8(tag::PING);
            put_varint(&mut body, *token);
        }
        Frame::Pong { token } => {
            body.put_u8(tag::PONG);
            put_varint(&mut body, *token);
        }
    }
    put_varint(out, body.len() as u64);
    out.put_slice(&body);
}

fn decode_body(mut body: Bytes) -> Result<Frame, DecodeError> {
    if !body.has_remaining() {
        return Err(DecodeError::Truncated);
    }
    let frame = match body.get_u8() {
        tag::SUBSCRIBE => {
            let sid = StreamId(get_varint(&mut body)?);
            let header = get_json(&mut body)?;
            let b = get_blob(&mut body)?;
            Frame::Subscribe {
                sid,
                header,
                body: b,
            }
        }
        tag::CANCEL => Frame::Cancel {
            sid: StreamId(get_varint(&mut body)?),
        },
        tag::ACK => Frame::Ack {
            sid: StreamId(get_varint(&mut body)?),
            seq: get_varint(&mut body)?,
        },
        tag::RESPONSE => {
            let sid = StreamId(get_varint(&mut body)?);
            let n = get_varint(&mut body)? as usize;
            if n > MAX_FRAME_LEN / 8 {
                return Err(DecodeError::BadLength);
            }
            let mut batch = Vec::with_capacity(n.min(1_024));
            for _ in 0..n {
                batch.push(decode_delta(&mut body)?);
            }
            Frame::Response { sid, batch }
        }
        tag::PING => Frame::Ping {
            token: get_varint(&mut body)?,
        },
        tag::PONG => Frame::Pong {
            token: get_varint(&mut body)?,
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    if body.has_remaining() {
        return Err(DecodeError::BadLength);
    }
    Ok(frame)
}

/// An incremental frame decoder: feed bytes in arbitrary chunks, pop frames
/// as they complete.
///
/// # Examples
///
/// ```
/// use burst::codec::{encode_frame, Decoder};
/// use burst::frame::{Frame, StreamId};
/// use bytes::BytesMut;
///
/// let mut wire = BytesMut::new();
/// encode_frame(&Frame::Ping { token: 9 }, &mut wire);
///
/// let mut dec = Decoder::new();
/// dec.feed(&wire[..1]); // partial bytes are fine
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.feed(&wire[1..]);
/// assert_eq!(dec.next_frame().unwrap(), Some(Frame::Ping { token: 9 }));
/// ```
#[derive(Default)]
pub struct Decoder {
    buf: BytesMut,
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to decode the next complete frame.
    ///
    /// Returns `Ok(None)` if more bytes are needed, `Err` if the stream is
    /// corrupt (the connection should be torn down).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        // Peek the length varint without consuming.
        let mut peek = &self.buf[..];
        let len = match get_varint(&mut peek) {
            Ok(len) => len as usize,
            Err(DecodeError::Truncated) => return Ok(None),
            Err(e) => return Err(e),
        };
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::BadLength);
        }
        let prefix_len = self.buf.len() - peek.len();
        if peek.len() < len {
            return Ok(None);
        }
        self.buf.advance(prefix_len);
        let body = self.buf.split_to(len).freeze();
        decode_body(body).map(Some)
    }
}

/// Convenience: encodes a frame into a fresh buffer.
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_frame(frame, &mut buf);
    buf.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Payload;
    use crate::json::tests::arb_last_seq;
    use crate::json::PLAIN_INT_LIMIT;
    use proptest::prelude::*;
    use simkit::snap::{Snap, SnapReader, SnapWriter};

    fn roundtrip(frame: Frame) {
        let wire = encode_to_vec(&frame);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        let got = dec.next_frame().unwrap().expect("complete frame");
        assert_eq!(got, frame);
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }

    /// The codec carries a payload's bytes and never its trace tag: a
    /// tagged update decodes to the same bytes, untagged.
    #[test]
    fn the_trace_tag_is_not_encoded() {
        let bytes = b"{\"id\":7}".to_vec();
        let tagged = Payload::from(bytes.clone()).traced(simkit::trace::TraceId(9));
        let frame = |payload| Frame::Response {
            sid: StreamId(1),
            batch: vec![Delta::update(0, payload)],
        };
        let wire = encode_to_vec(&frame(tagged));
        assert_eq!(wire, encode_to_vec(&frame(Payload::from(bytes.clone()))));
        let mut dec = Decoder::new();
        dec.feed(&wire);
        let got = dec.next_frame().unwrap().expect("complete frame");
        assert_eq!(got, frame(Payload::from(bytes)));
        assert_eq!(got.update_payloads().next().and_then(Payload::trace), None);
    }

    #[test]
    fn roundtrip_all_frame_types() {
        roundtrip(Frame::Subscribe {
            sid: StreamId(1),
            header: Json::obj([("topic", Json::from("/LVC/42")), ("v", Json::from(3u64))]),
            body: vec![1, 2, 3],
        });
        roundtrip(Frame::Cancel {
            sid: StreamId(u64::MAX),
        });
        roundtrip(Frame::Ack {
            sid: StreamId(5),
            seq: 12_345,
        });
        roundtrip(Frame::Response {
            sid: StreamId(7),
            batch: vec![
                Delta::update(0, b"abc".to_vec()),
                Delta::FlowStatus(FlowStatus::Degraded),
                Delta::FlowStatus(FlowStatus::Recovered),
                Delta::RewriteRequest {
                    patch: Json::obj([("brass", Json::from("b-17"))]),
                },
                Delta::Terminate(TerminateReason::Redirect),
            ],
        });
        roundtrip(Frame::Ping { token: 0 });
        roundtrip(Frame::Pong { token: u64::MAX });
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        let mut b = Bytes::from_static(&[0xFF; 11]);
        assert_eq!(get_varint(&mut b), Err(DecodeError::BadVarint));
    }

    #[test]
    fn incremental_decoding_byte_by_byte() {
        let frames = vec![
            Frame::Ping { token: 1 },
            Frame::Response {
                sid: StreamId(2),
                batch: vec![Delta::update(9, vec![0; 100])],
            },
            Frame::Cancel { sid: StreamId(3) },
        ];
        let mut wire = BytesMut::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        for &b in wire.iter() {
            dec.feed(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn rejects_unknown_tag() {
        let mut wire = BytesMut::new();
        put_varint(&mut wire, 2);
        wire.put_u8(0x7F);
        wire.put_u8(0);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(DecodeError::BadTag(0x7F)));
    }

    #[test]
    fn rejects_oversized_length() {
        let mut wire = BytesMut::new();
        put_varint(&mut wire, (MAX_FRAME_LEN + 1) as u64);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(DecodeError::BadLength));
    }

    #[test]
    fn rejects_trailing_garbage_in_body() {
        let mut body = BytesMut::new();
        body.put_u8(0x02); // CANCEL
        put_varint(&mut body, 1);
        body.put_u8(0xAA); // trailing junk
        let mut wire = BytesMut::new();
        put_varint(&mut wire, body.len() as u64);
        wire.put_slice(&body);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(DecodeError::BadLength));
    }

    #[test]
    fn rejects_bad_json_header() {
        let mut body = BytesMut::new();
        body.put_u8(0x01); // SUBSCRIBE
        put_varint(&mut body, 1);
        put_bytes(&mut body, b"{not json");
        put_bytes(&mut body, b"");
        let mut wire = BytesMut::new();
        put_varint(&mut wire, body.len() as u64);
        wire.put_slice(&body);
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(DecodeError::BadJson));
    }

    #[test]
    fn empty_batch_response() {
        roundtrip(Frame::Response {
            sid: StreamId(1),
            batch: vec![],
        });
    }

    proptest! {
        /// Frame encode/decode round-trips for arbitrary update batches.
        #[test]
        fn roundtrip_arbitrary_updates(
            sid in any::<u64>(),
            batch in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
                0..8
            )
        ) {
            let frame = Frame::Response {
                sid: StreamId(sid),
                batch: batch.into_iter().map(|(s, p)| Delta::update(s, p)).collect(),
            };
            let wire = encode_to_vec(&frame);
            let mut dec = Decoder::new();
            dec.feed(&wire);
            prop_assert_eq!(dec.next_frame().unwrap(), Some(frame));
        }

        /// Decoding arbitrary bytes never panics (it may error).
        #[test]
        fn decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut dec = Decoder::new();
            dec.feed(&data);
            while let Ok(Some(_)) = dec.next_frame() {}
        }

        /// A progress delta is the rewrite it stands for, on the wire and
        /// in a snapshot: the same bytes and the same `wire_size`, and the
        /// rewrite decodes and restores to the canonical (progress) form.
        #[test]
        fn progress_is_its_rewrite_on_the_wire(last_seq in arb_last_seq()) {
            let patch = Json::obj([("last_seq", Json::from(last_seq))]);
            let frame = |delta| Frame::Response {
                sid: StreamId(3),
                batch: vec![Delta::update(7, b"x".to_vec()), delta],
            };
            let typed = frame(Delta::Progress { last_seq });
            let json = frame(Delta::RewriteRequest { patch: patch.clone() });
            let canonical = frame(Delta::progress(last_seq));
            prop_assert_eq!(Delta::rewrite(patch), Delta::progress(last_seq));
            prop_assert_eq!(
                matches!(canonical, Frame::Response { ref batch, .. } if matches!(batch[1], Delta::Progress { .. })),
                last_seq < PLAIN_INT_LIMIT
            );

            let wire = encode_to_vec(&json);
            prop_assert_eq!(&encode_to_vec(&typed), &wire);
            prop_assert_eq!(typed.wire_size(), json.wire_size());
            let mut dec = Decoder::new();
            dec.feed(&wire);
            prop_assert_eq!(dec.next_frame().unwrap(), Some(canonical.clone()));

            let snap = |f: &Frame| {
                let mut w = SnapWriter::new();
                f.snap(&mut w);
                w.into_bytes()
            };
            let bytes = snap(&json);
            prop_assert_eq!(&snap(&typed), &bytes);
            prop_assert_eq!(Frame::restore(&mut SnapReader::new(&bytes)).unwrap(), canonical);
        }

        /// A split at any point yields identical frames.
        #[test]
        fn split_point_invariance(split in 0usize..200) {
            let frame = Frame::Subscribe {
                sid: StreamId(42),
                header: Json::obj([("topic", Json::from("/TI/1/2"))]),
                body: vec![7; 50],
            };
            let wire = encode_to_vec(&frame);
            let split = split.min(wire.len());
            let mut dec = Decoder::new();
            dec.feed(&wire[..split]);
            let early = dec.next_frame().unwrap();
            dec.feed(&wire[split..]);
            let late = dec.next_frame().unwrap();
            prop_assert_eq!(early.or(late), Some(frame));
        }
    }
}
