//! A small, self-contained JSON implementation for BURST headers.
//!
//! The paper: "We happen to have standardized on a JSON format for the
//! header that may include fields, for example, to inform BRASS to connect
//! to a different data source … or to express client versioning." Headers
//! are read and *rewritten* by proxies and BRASSes, so the representation
//! preserves object key order (important for byte-stable re-encoding) and
//! round-trips exactly through the parser (verified by property tests).

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error produced when parsing malformed JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    ///
    /// # Examples
    ///
    /// ```
    /// use burst::json::Json;
    ///
    /// let j = Json::obj([("a", Json::from(1.0)), ("b", Json::Null)]);
    /// assert_eq!(j.get("a"), Some(&Json::Num(1.0)));
    /// ```
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets a key in an object, replacing an existing value or appending.
    ///
    /// Returns `false` (and does nothing) if `self` is not an object. This
    /// is the primitive BRASS header *rewrites* are built from.
    pub fn set(&mut self, key: &str, value: Json) -> bool {
        match self {
            Json::Obj(pairs) => {
                if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    pairs.push((key.to_owned(), value));
                }
                true
            }
            _ => false,
        }
    }

    /// Removes a key from an object, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => {
                let pos = pairs.iter().position(|(k, _)| k == key)?;
                Some(pairs.remove(pos).1)
            }
            _ => None,
        }
    }

    /// Merges another object's keys into this object (rewrite semantics:
    /// patch fields, keep the rest). Non-objects are ignored.
    pub fn merge(&mut self, patch: &Json) {
        if let Json::Obj(pairs) = patch {
            for (k, v) in pairs {
                self.set(k, v.clone());
            }
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integral number
    /// below 2^64. (`u64::MAX as f64` rounds up to 2^64 itself, which no
    /// `u64` holds, so the bound is strict.)
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => num_as_u64(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The canonical compact writer. Generic over the sink so the same code
    /// serializes into a `String`, measures a value, and fills a header
    /// slice in place ([`PackedJson::merge`]).
    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_string(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Length in bytes of the canonical encoding: `to_string().len()`
    /// without building the string.
    pub fn encoded_len(&self) -> usize {
        let mut len = Count(0);
        self.write(&mut len).expect("counting never fails");
        len.0
    }

    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

/// Integers below this bound print as plain digits; from it on, [`Json`]
/// writes numbers in their float form.
pub const PLAIN_INT_LIMIT: u64 = 1_000_000_000_000_000;

/// [`Json::as_u64`] of a number.
fn num_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// `n` in decimal, written at the end of `buf`: the text [`Json`] writes
/// for any integer below [`PLAIN_INT_LIMIT`], without the formatter.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

fn write_num<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < PLAIN_INT_LIMIT as f64 {
        write!(out, "{}", n as i64)
    } else if n.is_finite() {
        write!(out, "{n}")
    } else {
        // JSON has no Inf/NaN; emit null like JavaScript's JSON.stringify.
        out.write_str("null")
    }
}

fn write_string<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Handle surrogate pairs.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unexpected low surrogate"));
                        } else {
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Collect the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// A [`Json`] value stored as its canonical compact text encoding.
///
/// Parsed headers are the dominant resident cost at bench scale: a typical
/// subscribe header holds ~10 small heap allocations (object vec, key
/// strings, value strings) totalling several hundred bytes, and the system
/// keeps four long-lived copies per stream (device, POP, proxy, BRASS).
/// The same header as compact text is one ~80-byte allocation. `PackedJson`
/// is that text form, with the handful of operations resident copies
/// actually need: cheap `u64` field reads (via [`top_level_u64`], no
/// parse), rewrite merges spliced into the text (no parse either), and full
/// unpacking when a frame must be rebuilt.
///
/// Every delivered data batch closes with a transport-progress delta, so
/// every holder of a header sees a new `last_seq` per delivery. Recording
/// one ([`PackedJson::set_last_seq`]) only stores the number beside the
/// text; the text is not touched until something reads it. Every read —
/// [`unpack`](PackedJson::unpack), [`get_u64`](PackedJson::get_u64),
/// [`to_bytes`](PackedJson::to_bytes), the snapshot, `==` — answers as if
/// the value had been spliced in, and [`merge`](PackedJson::merge) and
/// [`fold`](PackedJson::fold) splice it for real (merge first, so key order
/// is the one an eager splice per delivery would have produced).
///
/// Because serialization is canonical (key order preserved, shortest
/// round-trip floats) and `parse ∘ to_string` is the identity for every
/// value the system produces (no NaN/Inf headers — those serialize as
/// `null`), pack/unpack cycles are lossless: `pack(unpack(p)) == p`.
/// This also makes the byte form directly usable as a serialized snapshot
/// representation (device hibernation, and the ROADMAP's snapshot/replay
/// item).
#[derive(Clone, Debug)]
pub struct PackedJson {
    text: Box<[u8]>,
    /// A `last_seq` recorded and not yet spliced into `text` (always below
    /// [`PLAIN_INT_LIMIT`]), or [`NO_PENDING`]. Eight bytes beside the
    /// text pointer, in the holder's own cache line.
    pending: u64,
}

/// The pending slot of a [`PackedJson`] with no `last_seq` waiting.
const NO_PENDING: u64 = u64::MAX;

impl PackedJson {
    /// Packs a value into its canonical text form.
    pub fn pack(value: &Json) -> Self {
        let mut text = String::with_capacity(value.encoded_len());
        value.write(&mut text).expect("String sink never fails");
        PackedJson {
            text: text.into_bytes().into_boxed_slice(),
            pending: NO_PENDING,
        }
    }

    /// The `last_seq` waiting to be spliced, if the text is an object it
    /// will be spliced into (merges leave non-object headers alone).
    fn pending_last_seq(&self) -> Option<u64> {
        (self.pending != NO_PENDING && self.text.first() == Some(&b'{')).then_some(self.pending)
    }

    /// Reconstructs the [`Json`] value.
    pub fn unpack(&self) -> Json {
        let text = std::str::from_utf8(&self.text).expect("canonical bytes are UTF-8");
        let mut value = Json::parse(text).expect("canonical bytes parse");
        if let Some(last_seq) = self.pending_last_seq() {
            value.set("last_seq", Json::from(last_seq));
        }
        value
    }

    /// Reads a top-level `u64` field without parsing (hot-path reads like
    /// `last_seq`). Matches `unpack().get(key).and_then(Json::as_u64)`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.pending_last_seq() {
            Some(last_seq) if key == "last_seq" => Some(last_seq),
            _ => top_level_u64(&self.text, key),
        }
    }

    /// Records `last_seq` as the header's `"last_seq"` member, like merging
    /// `{"last_seq": last_seq}`, without touching the text: the number is
    /// kept beside it until a read or a merge needs it there. A value from
    /// [`PLAIN_INT_LIMIT`] on, which [`Json`] writes as a float, is merged
    /// through the tree instead.
    pub fn set_last_seq(&mut self, last_seq: u64) {
        if last_seq < PLAIN_INT_LIMIT {
            self.pending = last_seq;
        } else {
            self.merge(&Json::obj([("last_seq", Json::from(last_seq))]));
        }
    }

    /// Splices a `last_seq` recorded by [`PackedJson::set_last_seq`] into
    /// the text, digits written directly: in place when the length did not
    /// change, else into one exact-size slice.
    pub fn fold(&mut self) {
        let last_seq = self.pending_last_seq();
        self.pending = NO_PENDING;
        if let Some(last_seq) = last_seq {
            let mut digits = [0u8; 20];
            self.set("last_seq", Value::Text(decimal(last_seq, &mut digits)));
        }
    }

    /// Applies a rewrite patch (object-merge semantics, like
    /// [`Json::merge`]) by splicing the canonical text: each patched
    /// member's value bytes are replaced — or `,"key":value` is appended
    /// before the closing brace — so the result is byte-identical to
    /// `pack(unpack().merge(patch))` without building a [`Json`] tree.
    /// Non-object headers and non-object patches are left alone.
    pub fn merge(&mut self, patch: &Json) {
        let Json::Obj(pairs) = patch else { return };
        self.fold();
        if self.text.first() != Some(&b'{') {
            return;
        }
        for (key, value) in pairs {
            self.set(key, Value::Json(value));
        }
    }

    /// Sets one top-level member (first occurrence, like [`Json::set`]).
    /// A same-length value is overwritten in place with no allocation (the
    /// common `last_seq` step); any other builds one exact-size slice.
    fn set(&mut self, key: &str, value: Value<'_>) {
        let old = &self.text;
        let (at, member) = match member_value(old, &escaped_key(key)) {
            Some(at) => (at, Member { key: None, value }),
            None => {
                let close = old.len() - 1;
                let key = Some((key, close > 1));
                (close..close, Member { key, value })
            }
        };
        let mut len = Count(0);
        member.write(&mut len).expect("counting never fails");
        let to = at.start..at.start + len.0;
        if to.end != at.end {
            let mut new = vec![0u8; old.len() - at.len() + len.0].into_boxed_slice();
            new[..at.start].copy_from_slice(&old[..at.start]);
            new[to.end..].copy_from_slice(&old[at.end..]);
            self.text = new;
        }
        member
            .write(&mut Fill(&mut self.text[to]))
            .expect("length was measured");
    }

    /// What [`PackedJson::merge`] must equal byte for byte: parse, merge
    /// the tree, re-encode. Kept only as the test oracle.
    #[cfg(test)]
    pub(crate) fn merge_oracle(&self, patch: &Json) -> PackedJson {
        let mut value = self.unpack();
        value.merge(patch);
        PackedJson::pack(&value)
    }

    /// The canonical encoded bytes, a recorded `last_seq` included:
    /// borrowed when none is waiting to be spliced.
    pub fn to_bytes(&self) -> Cow<'_, [u8]> {
        if self.pending_last_seq().is_none() {
            return Cow::Borrowed(&self.text);
        }
        let mut folded = self.clone();
        folded.fold();
        Cow::Owned(folded.text.into_vec())
    }

    /// A placeholder holding no text, for [`PackedJson::reload`] to fill.
    pub(crate) fn blank() -> Self {
        PackedJson {
            text: Box::default(),
            pending: NO_PENDING,
        }
    }

    /// Replaces the value with bytes previously produced by
    /// [`PackedJson::to_bytes`] (a device waking), overwriting the buffer in
    /// place when the length is unchanged. The bytes must be a canonical
    /// encoding: a reader of bytes from outside the process checks them
    /// after (`ClientStream::check`).
    pub fn reload(&mut self, bytes: &[u8]) {
        if self.text.len() == bytes.len() {
            self.text.copy_from_slice(bytes);
        } else {
            self.text = bytes.into();
        }
        self.pending = NO_PENDING;
    }
}

/// Equal when the encodings are, a recorded `last_seq` included.
impl PartialEq for PackedJson {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

/// The text [`PackedJson::set`] splices in: the value alone when the member
/// exists, or the whole `"key":value` member (after a comma unless the object
/// was empty) when it is appended.
struct Member<'a> {
    key: Option<(&'a str, bool)>,
    value: Value<'a>,
}

/// A member value to splice: a tree to write canonically, or text that
/// already is its canonical encoding.
enum Value<'a> {
    Json(&'a Json),
    Text(&'a str),
}

impl Member<'_> {
    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        if let Some((key, comma)) = self.key {
            if comma {
                out.write_char(',')?;
            }
            write_string(key, out)?;
            out.write_char(':')?;
        }
        match self.value {
            Value::Json(value) => value.write(out),
            Value::Text(text) => out.write_str(text),
        }
    }
}

/// Sink that measures what the canonical writer would produce.
struct Count(usize);

impl fmt::Write for Count {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Sink that fills a pre-measured slice front to back.
struct Fill<'a>(&'a mut [u8]);

impl fmt::Write for Fill<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.len() > self.0.len() {
            return Err(fmt::Error);
        }
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(s.len());
        head.copy_from_slice(s.as_bytes());
        self.0 = tail;
        Ok(())
    }
}

/// `key` as it appears between the quotes of a canonical member name.
fn escaped_key(key: &str) -> Cow<'_, [u8]> {
    if !key.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return Cow::Borrowed(key.as_bytes());
    }
    let mut quoted = String::new();
    write_string(key, &mut quoted).expect("String sink never fails");
    Cow::Owned(quoted.as_bytes()[1..quoted.len() - 1].to_vec())
}

/// Byte range of the value of the first top-level member named `key`
/// (already escaped) in a canonical object. Canonical text has no
/// whitespace, so members are walked as `"key":value,` with no tokenizer.
/// Panics on bytes that are not a canonical object — the same contract as
/// [`PackedJson::unpack`].
fn member_value(obj: &[u8], key: &[u8]) -> Option<Range<usize>> {
    let mut i = 1;
    while obj[i] == b'"' {
        let key_end = skip_string(obj, i + 1).expect("canonical member name");
        let start = key_end + 2;
        let end = skip_value(obj, start);
        if &obj[i + 1..key_end] == key {
            return Some(start..end);
        }
        if obj[end] == b'}' {
            break;
        }
        i = end + 1;
    }
    None
}

/// Index just past the canonical value starting at `i` inside a container:
/// the `,` or closing bracket that follows it.
fn skip_value(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0u32;
    loop {
        match b[i] {
            b'"' => i = skip_string(b, i + 1).expect("canonical string") + 1,
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' if depth == 0 => return i,
            b'}' | b']' => {
                depth -= 1;
                i += 1;
            }
            b',' if depth == 0 => return i,
            _ => i += 1,
        }
    }
}

impl From<&Json> for PackedJson {
    fn from(value: &Json) -> Self {
        PackedJson::pack(value)
    }
}

/// Extracts a `u64` field from the top level of a JSON object without
/// building a [`Json`] value.
///
/// Scans the raw bytes once — skipping strings (with escapes) and nested
/// containers — and reads the first top-level value for `key` with the same
/// rules as [`Json::as_u64`] (the number still round-trips through `f64`,
/// so out-of-range integers behave identically). For well-formed input this
/// matches `Json::parse(s).ok()?.get(key)?.as_u64()`; malformed documents
/// yield `None` or a best-effort value instead of an error. Keys containing
/// escape sequences are not matched.
///
/// Built for a hot path that reads one field of every rendered update
/// payload: the full parser allocates for every field of the payload,
/// while this touches each byte at most once and never allocates.
pub fn top_level_u64(input: &[u8], key: &str) -> Option<u64> {
    let key = key.as_bytes();
    let mut depth = 0u32;
    let mut i = 0usize;
    while i < input.len() {
        match input[i] {
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b'"' => {
                let start = i + 1;
                let end = skip_string(input, start)?;
                // A string followed by ':' is an object key; anything else
                // is a value (valid JSON never puts ':' after a value).
                if depth == 1 && &input[start..end] == key {
                    let mut j = end + 1;
                    while j < input.len() && input[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < input.len() && input[j] == b':' {
                        j += 1;
                        while j < input.len() && input[j].is_ascii_whitespace() {
                            j += 1;
                        }
                        return parse_number_u64(input, j);
                    }
                }
                i = end + 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// Returns the index of the closing quote of a string starting at `i`
/// (first content byte), honouring backslash escapes.
fn skip_string(input: &[u8], mut i: usize) -> Option<usize> {
    while i < input.len() {
        match input[i] {
            b'\\' => i += 2,
            b'"' => return Some(i),
            _ => i += 1,
        }
    }
    None
}

/// Parses the number token at `start` under [`Json::as_u64`] semantics;
/// `None` if the value there is not a non-negative integral number.
fn parse_number_u64(input: &[u8], start: usize) -> Option<u64> {
    let mut end = start;
    while end < input.len() && matches!(input[end], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        end += 1;
    }
    if end == start {
        return None;
    }
    let n: f64 = std::str::from_utf8(&input[start..end]).ok()?.parse().ok()?;
    num_as_u64(n)
}

/// A value snapshots as its canonical compact text (the same encoding
/// [`PackedJson`] uses). `parse ∘ to_string` is the identity for every
/// value the system produces; text that parses but is not what
/// `to_string` would write (stray whitespace, reordered escapes) is
/// rejected, so an accepted snapshot re-snapshots to the same bytes.
impl simkit::snap::Snap for Json {
    fn snap(&self, w: &mut simkit::snap::SnapWriter) {
        w.put_str(&self.to_string());
    }

    fn restore(r: &mut simkit::snap::SnapReader<'_>) -> simkit::snap::SnapResult<Json> {
        let text = r.get_str()?;
        match Json::parse(&text) {
            Ok(parsed) if parsed.to_string() == text => Ok(parsed),
            Ok(_) => Err(simkit::snap::SnapError::Invalid(
                "Json snapshot: text is not canonical".into(),
            )),
            Err(e) => Err(simkit::snap::SnapError::Invalid(format!(
                "Json snapshot: {e}"
            ))),
        }
    }
}

/// A packed value snapshots as its canonical bytes. Fail-closed: the
/// bytes must parse as JSON and be exactly what packing the parsed value
/// writes, so a valid snapshot restores bit-identically.
impl simkit::snap::Snap for PackedJson {
    fn snap(&self, w: &mut simkit::snap::SnapWriter) {
        w.put_bytes(&self.to_bytes());
    }

    fn restore(r: &mut simkit::snap::SnapReader<'_>) -> simkit::snap::SnapResult<Self> {
        Ok(PackedJson::pack(&simkit::snap::Snap::restore(r)?))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fast path must agree with the full parser on well-formed docs.
    fn both_ways(doc: &str, key: &str) -> (Option<u64>, Option<u64>) {
        let slow = Json::parse(doc)
            .ok()
            .and_then(|j| j.get(key).and_then(Json::as_u64));
        (top_level_u64(doc.as_bytes(), key), slow)
    }

    #[test]
    fn top_level_u64_matches_full_parse() {
        for doc in [
            r#"{"id":42,"x":"y"}"#,
            r#"{"x":{"id":1},"id":7}"#,
            r#"{"id": 99 , "z": null}"#,
            r#"{"a":"id","id":5}"#,
            r#"{"a":"tricky \" id","id":6}"#,
            r#"{"id":"not-a-number"}"#,
            r#"{"id":-3}"#,
            r#"{"id":1.5}"#,
            r#"{"id":1e3}"#,
            r#"{"id":[1,2]}"#,
            r#"{"other":1}"#,
            r#"["id",{"id":9}]"#,
            r#"{"nested":{"deep":{"id":4}},"id":11}"#,
            r#"{"created_ms":123456,"id":8}"#,
            "5",
            "null",
            r#""id""#,
        ] {
            let (fast, slow) = both_ways(doc, "id");
            assert_eq!(fast, slow, "mismatch on {doc}");
        }
    }

    #[test]
    fn top_level_u64_none_on_garbage() {
        assert_eq!(top_level_u64(b"user", "id"), None);
        assert_eq!(top_level_u64(&[1, 2, 3], "id"), None);
        assert_eq!(top_level_u64(b"", "id"), None);
        assert_eq!(top_level_u64(br#"{"id""#, "id"), None);
        assert_eq!(top_level_u64(br#"{"id":"#, "id"), None);
    }

    proptest! {
        #[test]
        fn top_level_u64_differential(id in any::<u64>(), created in any::<u64>(), s in "[a-z \\\\\"]{0,12}") {
            let doc = Json::obj([
                ("note", Json::from(s.as_str())),
                ("id", Json::from(id)),
                ("created_ms", Json::from(created)),
            ])
            .to_string();
            let (fast, slow) = both_ways(&doc, "id");
            prop_assert_eq!(fast, slow);
            let (fast, slow) = both_ways(&doc, "created_ms");
            prop_assert_eq!(fast, slow);
            let (fast, slow) = both_ways(&doc, "missing");
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::from("hi"));
    }

    #[test]
    fn parse_nested() {
        let j = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(
            j.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::obj([("b", Json::Null)])])
        );
        assert_eq!(j.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let j = Json::parse(r#""a\n\t\"\\Aé""#).unwrap();
        assert_eq!(j.as_str(), Some("a\n\t\"\\Aé"));
        // Surrogate pair: U+1F600.
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"a",
            "{\"a\"}",
            "01",
            "1.",
            "1e",
            "nulll",
            "[1]x",
            "\"\\ud800\"",
            "{\"a\":}",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn key_order_preserved() {
        let j = Json::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        assert_eq!(j.to_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn set_get_remove_merge() {
        let mut j = Json::obj([("a", Json::from(1.0))]);
        assert!(j.set("b", Json::from("x")));
        assert_eq!(j.get("b").unwrap().as_str(), Some("x"));
        j.set("a", Json::from(2.0));
        assert_eq!(j.get("a").unwrap().as_num(), Some(2.0));
        assert_eq!(j.remove("a"), Some(Json::Num(2.0)));
        assert_eq!(j.remove("a"), None);

        let mut base = Json::obj([("keep", Json::from(true)), ("seq", Json::from(1.0))]);
        base.merge(&Json::obj([("seq", Json::from(9.0)), ("new", Json::Null)]));
        assert_eq!(base.get("keep").unwrap().as_bool(), Some(true));
        assert_eq!(base.get("seq").unwrap().as_num(), Some(9.0));
        assert_eq!(base.get("new"), Some(&Json::Null));
    }

    #[test]
    fn set_on_non_object_fails() {
        let mut j = Json::from(1.0);
        assert!(!j.set("a", Json::Null));
    }

    #[test]
    fn as_u64() {
        assert_eq!(Json::from(5u64).as_u64(), Some(5));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::from("5").as_u64(), None);
    }

    /// 2^64 − 1 parses to the `f64` 2^64, which no `u64` holds: both
    /// readers refuse it instead of saturating to `u64::MAX` (whose
    /// successor overflows). 1e19 is a `u64` and reads as one.
    #[test]
    fn u64_reads_stop_below_two_to_the_64() {
        for (text, want) in [
            ("18446744073709551615", None),
            ("18446744073709551616", None),
            ("1e19", Some(10_000_000_000_000_000_000)),
            ("18446744073709549568", Some(18_446_744_073_709_549_568)),
        ] {
            let doc = format!(r#"{{"last_seq":{text}}}"#);
            let parsed = Json::parse(&doc).unwrap();
            assert_eq!(
                parsed.get("last_seq").and_then(Json::as_u64),
                want,
                "{text}"
            );
            assert_eq!(top_level_u64(doc.as_bytes(), "last_seq"), want, "{text}");
            assert_eq!(
                PackedJson::pack(&parsed).get_u64("last_seq"),
                want,
                "{text}"
            );
        }
    }

    #[test]
    fn decimal_writes_what_json_writes() {
        let mut buf = [0u8; 20];
        for n in [0, 7, 10, 99, 100, 123_456, PLAIN_INT_LIMIT - 1, u64::MAX] {
            let want = if n < PLAIN_INT_LIMIT {
                Json::from(n).to_string()
            } else {
                n.to_string()
            };
            assert_eq!(decimal(n, &mut buf), want);
        }
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    fn arb_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            // Integral-ish numbers avoid float-text roundtrip mismatch.
            (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64)),
            "[a-zA-Z0-9 _\\-\\n\"\\\\]{0,12}".prop_map(Json::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(Json::Obj),
            ]
        })
    }

    /// Values the merge property draws from: every number shape the
    /// canonical writer distinguishes (small, negative, fractional, ≥ 1e15,
    /// non-finite → `null`), strings needing escapes, and nesting.
    fn arb_value() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            (-1_000_000i64..1_000_000).prop_map(|n| Json::Num(n as f64)),
            (0u64..1002).prop_map(Json::from),
            (-1e3f64..1e3).prop_map(Json::Num),
            (1e15f64..1e19).prop_map(|n| Json::Num(n.floor())),
            any::<u64>().prop_map(Json::from),
            Just(Json::Num(f64::NAN)),
            "[a-z \\\\\"\\n\\t\u{1}é{}\\[\\],:]{0,8}".prop_map(Json::Str),
        ];
        leaf.prop_recursive(2, 12, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Json::Arr),
                proptest::collection::vec((arb_key(), inner), 0..3).prop_map(Json::Obj),
            ]
        })
    }

    /// Keys from a tiny alphabet, so headers repeat keys, patches repeat
    /// keys, and the two collide often; some need escaping, some are empty.
    fn arb_key() -> impl Strategy<Value = String> {
        "[ab\\\\\"\\n\u{1}é]{0,2}"
    }

    /// Mostly objects (including `{}`), sometimes a non-object document.
    fn arb_doc() -> impl Strategy<Value = Json> {
        let object =
            || proptest::collection::vec((arb_key(), arb_value()), 0..5).prop_map(Json::Obj);
        prop_oneof![object(), object(), object(), arb_value()]
    }

    /// Sequence numbers around every place the `last_seq` text changes
    /// shape: digit-count rollovers, the [`PLAIN_INT_LIMIT`] boundary where
    /// [`Json`] switches to its float form, and the top of the `u64` range.
    pub(crate) fn arb_last_seq() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1_200,
            (0u32..20).prop_map(|k| 10u64.pow(k)),
            (1u32..20).prop_map(|k| 10u64.pow(k) - 1),
            (PLAIN_INT_LIMIT - 2)..(PLAIN_INT_LIMIT + 2),
            any::<u64>(),
        ]
    }

    /// A document from [`arb_doc`], sometimes carrying `last_seq` (set on an
    /// object, so it replaces or appends like a merge would).
    fn arb_doc_with_last_seq() -> impl Strategy<Value = Json> {
        (arb_doc(), proptest::option::of(arb_last_seq())).prop_map(|(mut doc, last_seq)| {
            if let Some(n) = last_seq {
                doc.set("last_seq", Json::from(n));
            }
            doc
        })
    }

    proptest! {
        /// Serialize-then-parse is the identity.
        #[test]
        fn roundtrip(j in arb_json()) {
            let text = j.to_string();
            let back = Json::parse(&text).unwrap();
            prop_assert_eq!(back, j);
        }

        /// Pack/unpack is lossless and idempotent, and packed field reads
        /// agree with the full parser.
        #[test]
        fn packed_roundtrip(j in arb_json()) {
            let packed = PackedJson::pack(&j);
            prop_assert_eq!(packed.unpack(), j.clone());
            prop_assert_eq!(PackedJson::pack(&packed.unpack()), packed.clone());
            for mut reloaded in [PackedJson::blank(), packed.clone()] {
                reloaded.reload(&packed.to_bytes());
                prop_assert_eq!(&reloaded, &packed);
            }
            let slow = j.get("a").and_then(Json::as_u64);
            prop_assert_eq!(packed.get_u64("a"), slow);
        }

        /// The splice equals parse → merge → re-encode byte for byte, and
        /// the packed field read agrees with the tree afterwards.
        #[test]
        fn packed_merge_matches_oracle(header in arb_doc(), patch in arb_doc()) {
            let mut packed = PackedJson::pack(&header);
            let want = packed.merge_oracle(&patch);
            packed.merge(&patch);
            prop_assert_eq!(
                std::str::from_utf8(&packed.to_bytes()).unwrap(),
                std::str::from_utf8(&want.to_bytes()).unwrap()
            );
            let slow = packed.unpack().get("a").and_then(Json::as_u64);
            prop_assert_eq!(packed.get_u64("a"), slow);
        }

        /// Recording `last_seq` and merging patches, interleaved in any
        /// order, reads after every step exactly like merging each step
        /// into the tree: the recorded value is spliced where an eager
        /// splice would have put it, before the keys a later patch appends.
        #[test]
        fn packed_set_last_seq_matches_oracle(
            header in arb_doc_with_last_seq(),
            steps in proptest::collection::vec(
                prop_oneof![arb_last_seq().prop_map(Ok), arb_doc_with_last_seq().prop_map(Err)],
                1..8,
            ),
        ) {
            let mut packed = PackedJson::pack(&header);
            let mut oracle = packed.clone();
            for step in steps {
                match &step {
                    Ok(n) => {
                        oracle = oracle.merge_oracle(&Json::obj([("last_seq", Json::from(*n))]));
                        packed.set_last_seq(*n);
                    }
                    Err(patch) => {
                        oracle = oracle.merge_oracle(patch);
                        packed.merge(patch);
                    }
                }
                prop_assert_eq!(
                    std::str::from_utf8(&packed.to_bytes()).unwrap(),
                    std::str::from_utf8(&oracle.to_bytes()).unwrap()
                );
                prop_assert_eq!(&packed, &oracle);
                prop_assert_eq!(packed.unpack().to_string(), oracle.unpack().to_string());
                for key in ["last_seq", "a"] {
                    prop_assert_eq!(packed.get_u64(key), oracle.get_u64(key));
                }
            }
            packed.fold();
            prop_assert_eq!(&packed.text, &oracle.text);
        }

        /// The measured length is the length of the text.
        #[test]
        fn encoded_len_matches_to_string(doc in arb_doc()) {
            prop_assert_eq!(doc.encoded_len(), doc.to_string().len());
        }

        /// Parsing arbitrary bytes never panics.
        #[test]
        fn parse_never_panics(s in "[ -~]{0,64}") {
            let _ = Json::parse(&s);
        }
    }
}
