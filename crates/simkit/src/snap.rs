//! Deterministic binary snapshots of simulation state.
//!
//! Every state-bearing type in the workspace can serialize itself into a
//! [`SnapWriter`] and rebuild itself from a [`SnapReader`]. The encoding is
//! deliberately dumb: little-endian fixed-width integers, length-prefixed
//! byte strings, and *nothing* implicit — no varints, no schema evolution,
//! no reflection. A snapshot is only ever read by the same build that wrote
//! it (the version stamp enforces this), so the format optimises for two
//! properties instead:
//!
//! * **Bit-determinism** — the same world state always produces the same
//!   bytes. Unordered containers are written in sorted key order, floats as
//!   raw IEEE bits (so `±INFINITY` sentinels in empty histograms survive),
//!   and interned strings by value so they re-intern on load.
//! * **Fail-closed loading** — a snapshot is either read completely and
//!   consistently or not at all. Every read is bounds-checked, the sealed
//!   container carries a checksum verified *before* parsing begins, and
//!   restore routines validate structural invariants (sorted maps strictly
//!   ascending, subscriber lists ordered) so a corrupt file can never leave
//!   a half-built world behind.
//!
//! # One codec per type
//!
//! Every state-bearing type has exactly one [`Snap`] impl, so containers
//! compose (`Vec<T>`, `Option<T>`, tuples, `Box<T>`, `Arc<T>`, maps)
//! instead of being unrolled at each use. Fieldwise types derive theirs
//! from one field list:
//!
//! ```
//! # use simkit::{snap_enum, snap_struct};
//! # struct Id(u64);
//! # struct Point { x: u64, y: u64 }
//! # enum Shape { Dot, Line { from: Point, to: Point }, Tagged(Id, u8) }
//! snap_struct!(Id { 0 });                 // tuple structs by index
//! snap_struct!(Point { x, y }, |p| {      // optional whole-value check
//!     simkit::snap::ensure(p.x <= p.y, "x > y")
//! });
//! snap_enum!(Shape {                      // explicit one-byte tags
//!     0 => Dot,
//!     1 => Line { from, to },
//!     7 => Tagged(id, flags),
//! });
//! ```
//!
//! [`snap_enum!`](crate::snap_enum) rejects an unknown tag; tags need not be contiguous or
//! ordered. Maps and sets go through the `HashMap`/`HashSet`/`BTreeMap`
//! impls here (or [`restore_sorted`] for a sorted `Vec`) only, and those
//! are **strict**: keys are written sorted and must be strictly ascending
//! on read, so an accepted file re-snapshots to the same bytes. An impl is
//! hand-written only where restoring needs context from outside the bytes
//! or derives a field the bytes do not carry. A type whose reader fills an
//! existing value to reuse its buffers (a parked device waking into the
//! last parked machine) has one inherent writer and one reader instead,
//! over the same [`SnapWriter`] and [`SnapReader`]. No other code encodes
//! state: every integer byte order is this module's.
//!
//! The module also provides [`Fp64`], the rolling fingerprint used to hash
//! metrics and the whole simulation tick-by-tick; the bisect harness
//! compares these fingerprints to binary-search two runs down to their
//! first diverging event.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::BuildHasher;

use crate::time::{SimDuration, SimTime};

/// Magic bytes opening every sealed snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"BRSNAP\r\n";

/// Format version stamped after the magic. Bumped on any encoding change;
/// mismatches are rejected before a single body byte is parsed.
pub const SNAP_VERSION: u32 = 1;

/// Why a snapshot failed to load. Loading is fail-closed: any error means
/// no state was produced, never a partial world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran past the end of the buffer.
    Eof {
        /// Byte offset at which the truncation was detected.
        at: usize,
    },
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The file was written by a different format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The body checksum does not match the header stamp.
    BadChecksum,
    /// Bytes remained after the outermost value was fully decoded.
    Trailing {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A decoded value violated a structural invariant (bad enum tag,
    /// unsorted map keys, out-of-range length, ...).
    Invalid(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapError::Trailing { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes after decode")
            }
            SnapError::Invalid(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Shorthand result for restore paths.
pub type SnapResult<T> = Result<T, SnapError>;

/// Rolling 64-bit fingerprint (FNV-1a core with an avalanche finish per
/// word). Identical input sequences give identical values, and the state is
/// one `u64`. It digests state once per tick (event stats, metrics,
/// snapshots); the hop ledger, which hashes every record, has its own
/// [`LedgerFp`](crate::trace::LedgerFp), whose runs fold in O(log n).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fp64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fp64 {
    /// A fresh fingerprint (FNV offset basis).
    pub fn new() -> Self {
        Fp64(FNV_OFFSET)
    }

    /// Folds one 64-bit word into the fingerprint.
    pub fn mix_u64(&mut self, v: u64) {
        // FNV-1a over the 8 bytes, then a xor-shift avalanche so short
        // sequences of small integers still disperse across all 64 bits.
        let mut h = self.0;
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
        self.0 = h;
    }

    /// Folds a byte string (length-delimited) into the fingerprint.
    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        self.mix_u64(bytes.len() as u64);
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current fingerprint value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Fp64 {
    fn default() -> Self {
        Fp64::new()
    }
}

/// One-shot FNV-1a over a byte slice; used as the sealed-container checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append-only byte sink for snapshot encoding.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

// The per-value primitives here and in `SnapReader` are `#[inline]`: a
// parked device is written and read through them at every park and wake,
// from other crates.
impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// A writer over `buf`, emptied first so its capacity is reused;
    /// [`SnapWriter::into_bytes`] hands it back.
    pub fn over(mut buf: Vec<u8>) -> Self {
        buf.clear();
        SnapWriter { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw body bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bits, so `±INFINITY`, `-0.0`
    /// and NaN payloads round-trip exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over snapshot body bytes.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte has been consumed. Call after decoding the
    /// outermost value; trailing garbage means the file is not what the
    /// header claimed.
    pub fn finish(&self) -> SnapResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::Trailing {
                remaining: self.remaining(),
            })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        let Some(s) = self.buf[self.pos..].get(..n) else {
            return Err(SnapError::Eof { at: self.pos });
        };
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> SnapResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> SnapResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Invalid(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> SnapResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> SnapResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> SnapResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> SnapResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a `usize` written by [`SnapWriter::put_usize`], rejecting
    /// values that do not fit the platform's pointer width.
    #[inline]
    pub fn get_usize(&mut self) -> SnapResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid(format!("usize overflow: {v}")))
    }

    /// Reads a length that is about to size an allocation. The length is
    /// additionally capped by the bytes remaining, so a corrupt prefix can
    /// never trigger a multi-gigabyte `Vec::with_capacity`.
    #[inline]
    pub fn get_len(&mut self) -> SnapResult<usize> {
        let n = self.get_usize()?;
        // Every element of every collection occupies at least one encoded
        // byte, so a claimed length beyond `remaining` is corruption.
        if n > self.remaining() {
            return Err(SnapError::Invalid(format!(
                "length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> SnapResult<Vec<u8>> {
        Ok(self.get_slice()?.to_vec())
    }

    /// Reads a length-prefixed byte string in place, for a caller that
    /// copies it into a buffer it already holds.
    #[inline]
    pub fn get_slice(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SnapResult<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| SnapError::Invalid("non-UTF-8 string".into()))
    }
}

// ---------------------------------------------------------------------------
// Sealed container
// ---------------------------------------------------------------------------

/// Wraps body bytes in the versioned, checksummed on-disk container:
/// magic, version, body length, FNV-64 checksum, body.
pub fn seal(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 28);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Verifies the container header and returns the body slice. Magic,
/// version, exact length, and checksum are all checked *before* any body
/// byte is handed to a decoder; failure at any step yields a clean error.
pub fn unseal(bytes: &[u8]) -> SnapResult<&[u8]> {
    if bytes.len() < 28 {
        return Err(SnapError::Eof { at: bytes.len() });
    }
    if bytes[0..8] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            expected: SNAP_VERSION,
        });
    }
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let stamp = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let body = &bytes[28..];
    if body_len != body.len() as u64 {
        // Both truncation and trailing garbage land here: the header said
        // exactly how many body bytes to expect.
        return if (body.len() as u64) < body_len {
            Err(SnapError::Eof { at: bytes.len() })
        } else {
            Err(SnapError::Trailing {
                remaining: body.len() - body_len as usize,
            })
        };
    }
    if fnv64(body) != stamp {
        return Err(SnapError::BadChecksum);
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Snap trait and impls
// ---------------------------------------------------------------------------

/// A value that can write itself into a snapshot and rebuild itself from
/// one. Implementations must be bit-deterministic (same state, same bytes)
/// and fail-closed (every decode error surfaces as `Err`, never a default).
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self>;
}

impl Snap for u8 {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    #[inline]
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_u8()
    }
}

impl Snap for u16 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u16(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_u16()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_u32()
    }
}

impl Snap for u64 {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    #[inline]
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_u64()
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_i64(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_i64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_usize()
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_f64()
    }
}

/// Writes nothing: the payload of a map entry that has none.
impl Snap for () {
    fn snap(&self, _w: &mut SnapWriter) {}
    fn restore(_r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(())
    }
}

/// A buffer a state type reuses between calls so they allocate nothing,
/// holding nothing between them: it writes nothing and restores empty.
#[derive(Clone, Debug, Default)]
pub struct Scratch<T>(pub T);

impl<T: Default> Snap for Scratch<T> {
    fn snap(&self, _w: &mut SnapWriter) {}
    fn restore(_r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(Scratch::default())
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_bool()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        r.get_str()
    }
}

impl Snap for Box<str> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(r.get_str()?.into_boxed_str())
    }
}

impl Snap for std::sync::Arc<str> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        // Note: this produces a fresh allocation; callers that intern
        // (`Tao`, `BrassHost`) re-intern through their own tables instead
        // of using this impl for the canonical copy.
        Ok(std::sync::Arc::from(r.get_str()?.as_str()))
    }
}

impl Snap for Box<[u8]> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bytes(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(r.get_bytes()?.into_boxed_slice())
    }
}

impl Snap for std::sync::Arc<[u8]> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bytes(self);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(r.get_bytes()?.into())
    }
}

impl Snap for Fp64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(Fp64(r.get_u64()?))
    }
}

/// `Box` is memory shape, not state: the pointee is written in place.
impl<T: Snap> Snap for Box<T> {
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(Box::new(T::restore(r)?))
    }
}

/// `Arc` is memory shape, not state: the pointee is written in place, and
/// a value shared by N holders restores as N independent allocations,
/// which no behaviour can observe.
impl<T: Snap> Snap for std::sync::Arc<T> {
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(std::sync::Arc::new(T::restore(r)?))
    }
}

impl Snap for SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_micros());
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(SimTime::from_micros(r.get_u64()?))
    }
}

impl Snap for SimDuration {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_micros());
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(SimDuration::from_micros(r.get_u64()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            t => Err(SnapError::Invalid(format!("Option tag {t}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let n = r.get_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<const N: usize> Snap for [u64; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            w.put_u64(*v);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let mut out = [0u64; N];
        for slot in &mut out {
            *slot = r.get_u64()?;
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

/// Reads a length-prefixed run of entries and requires each to sort
/// strictly before the next (`lt(a, b)`): the one order every writer
/// produces, so a file that loads re-snapshots to the same bytes. Subsumes
/// the duplicate check.
pub fn restore_sorted<E: Snap>(
    r: &mut SnapReader<'_>,
    lt: impl Fn(&E, &E) -> bool,
) -> SnapResult<Vec<E>> {
    let entries = Vec::<E>::restore(r)?;
    if entries.windows(2).any(|p| !lt(&p[0], &p[1])) {
        return Err(SnapError::Invalid("entries not strictly ascending".into()));
    }
    Ok(entries)
}

/// Writes map entries in the order given (the caller sorted them).
fn snap_entries<'a, K: Snap + 'a, V: Snap + 'a>(
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
    w: &mut SnapWriter,
) {
    w.put_usize(entries.len());
    for (k, v) in entries {
        k.snap(w);
        v.snap(w);
    }
}

/// Reads map entries, keys strictly ascending, into any map.
fn restore_entries<K: Snap + Ord, V: Snap, M: FromIterator<(K, V)>>(
    r: &mut SnapReader<'_>,
) -> SnapResult<M> {
    let entries = restore_sorted(r, |a: &(K, V), b| a.0 < b.0)?;
    Ok(entries.into_iter().collect())
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        snap_entries(self.iter(), w);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        restore_entries(r)
    }
}

/// Entries are written in sorted key order, so the same logical map
/// always snapshots to the same bytes regardless of hasher history.
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + std::hash::Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    fn snap(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        snap_entries(entries.into_iter(), w);
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        restore_entries(r)
    }
}

/// Elements are written in sorted order.
impl<T, S> Snap for HashSet<T, S>
where
    T: Snap + Ord + std::hash::Hash,
    S: BuildHasher + Default,
{
    fn snap(&self, w: &mut SnapWriter) {
        let mut elems: Vec<&T> = self.iter().collect();
        elems.sort();
        w.put_usize(elems.len());
        for e in elems {
            e.snap(w);
        }
    }
    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        Ok(restore_sorted(r, |a: &T, b| a < b)?.into_iter().collect())
    }
}

/// `Ok` when `holds`, otherwise `what` as the error: one line of a
/// [`snap_struct!`](crate::snap_struct) whole-value check, stating an invariant positively.
pub fn ensure(holds: bool, what: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

/// Derives [`Snap`] for a struct from its field list, in encoding order:
/// `snap_struct!(T { a, b })`, or `snap_struct!(T { 0 })` for a tuple
/// struct. Every field's type must itself be `Snap`. An optional trailing
/// `fn(&T) -> Result<(), String>` validates the decoded value as a whole
/// (one field against another, a range; see [`ensure`]); its `Err` fails
/// the restore.
#[macro_export]
macro_rules! snap_struct {
    ($T:ty { $($f:tt),* $(,)? }) => {
        $crate::snap_struct!($T { $($f),* }, |_| Ok(()));
    };
    ($T:ty { $($f:tt),* $(,)? }, $check:expr) => {
        impl $crate::snap::Snap for $T {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $( $crate::snap::Snap::snap(&self.$f, w); )*
            }
            fn restore(r: &mut $crate::snap::SnapReader<'_>) -> $crate::snap::SnapResult<Self> {
                let v = Self { $( $f: $crate::snap::Snap::restore(r)?, )* };
                let check: fn(&Self) -> Result<(), String> = $check;
                check(&v).map_err($crate::snap::SnapError::Invalid)?;
                Ok(v)
            }
        }
    };
}

/// Derives [`Snap`] for an enum: one explicit tag byte per variant, then
/// the variant's fields in the order listed —
/// `snap_enum!(T { 0 => A { x, y }, 28 => Unit, 39 => B(z) })`. Tags need
/// not be contiguous; a tag that names no variant fails the restore.
#[macro_export]
macro_rules! snap_enum {
    ($T:ty { $(
        $tag:literal => $V:ident $({ $($sf:ident),* $(,)? })? $(( $($tf:ident),* $(,)? ))?
    ),* $(,)? }) => {
        impl $crate::snap::Snap for $T {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self { $(
                    Self::$V $({ $($sf),* })? $(( $($tf),* ))? => {
                        w.put_u8($tag);
                        $($( $crate::snap::Snap::snap($sf, w); )*)?
                        $($( $crate::snap::Snap::snap($tf, w); )*)?
                    }
                )* }
            }
            fn restore(r: &mut $crate::snap::SnapReader<'_>) -> $crate::snap::SnapResult<Self> {
                Ok(match r.get_u8()? {
                    $( $tag => {
                        $($( let $sf = $crate::snap::Snap::restore(r)?; )*)?
                        $($( let $tf = $crate::snap::Snap::restore(r)?; )*)?
                        Self::$V $({ $($sf),* })? $(( $($tf),* ))?
                    } )*
                    t => {
                        return Err($crate::snap::SnapError::Invalid(format!(
                            concat!(stringify!($T), " tag {}"),
                            t
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = SnapWriter::new();
        7u8.snap(&mut w);
        65535u16.snap(&mut w);
        123456u32.snap(&mut w);
        u64::MAX.snap(&mut w);
        (-42i64).snap(&mut w);
        f64::INFINITY.snap(&mut w);
        f64::NEG_INFINITY.snap(&mut w);
        (-0.0f64).snap(&mut w);
        true.snap(&mut w);
        "héllo".to_string().snap(&mut w);
        Some(9u64).snap(&mut w);
        Option::<u64>::None.snap(&mut w);
        vec![1u64, 2, 3].snap(&mut w);
        SimTime::from_micros(77).snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u8::restore(&mut r).unwrap(), 7);
        assert_eq!(u16::restore(&mut r).unwrap(), 65535);
        assert_eq!(u32::restore(&mut r).unwrap(), 123456);
        assert_eq!(u64::restore(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::restore(&mut r).unwrap(), -42);
        assert_eq!(f64::restore(&mut r).unwrap(), f64::INFINITY);
        assert_eq!(f64::restore(&mut r).unwrap(), f64::NEG_INFINITY);
        assert_eq!(f64::restore(&mut r).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(bool::restore(&mut r).unwrap());
        assert_eq!(String::restore(&mut r).unwrap(), "héllo");
        assert_eq!(Option::<u64>::restore(&mut r).unwrap(), Some(9));
        assert_eq!(Option::<u64>::restore(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::restore(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(SimTime::restore(&mut r).unwrap(), SimTime::from_micros(77));
        r.finish().unwrap();
    }

    #[test]
    fn map_snapshots_are_key_ordered() {
        let mut m1: HashMap<u64, u64> = HashMap::new();
        let mut m2: HashMap<u64, u64> = HashMap::with_capacity(1024);
        for k in [5u64, 1, 9, 3] {
            m1.insert(k, k * 2);
        }
        for k in [3u64, 9, 1, 5] {
            m2.insert(k, k * 2);
        }
        let mut w1 = SnapWriter::new();
        let mut w2 = SnapWriter::new();
        m1.snap(&mut w1);
        m2.snap(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let body = b"hello snapshot".to_vec();
        let sealed = seal(body.clone());
        assert_eq!(unseal(&sealed).unwrap(), &body[..]);
    }

    #[test]
    fn unseal_rejects_truncation_at_every_byte() {
        let sealed = seal(b"some body bytes".to_vec());
        for n in 0..sealed.len() {
            assert!(unseal(&sealed[..n]).is_err(), "accepted {n}-byte prefix");
        }
    }

    #[test]
    fn unseal_rejects_single_byte_corruption() {
        let sealed = seal(b"checksummed".to_vec());
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(unseal(&bad).is_err(), "accepted corruption at byte {i}");
        }
    }

    #[test]
    fn unseal_rejects_trailing_garbage() {
        let mut sealed = seal(b"body".to_vec());
        sealed.push(0xAA);
        assert_eq!(unseal(&sealed), Err(SnapError::Trailing { remaining: 1 }));
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fp64::new();
        a.mix_u64(1);
        a.mix_u64(2);
        let mut b = Fp64::new();
        b.mix_u64(2);
        b.mix_u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Fp64::new();
        c.mix_u64(1);
        c.mix_u64(2);
        assert_eq!(a.value(), c.value());
    }

    /// Encodes `keys` (each with a unit-ish value) as a map body.
    fn map_bytes(keys: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_usize(keys.len());
        for k in keys {
            w.put_u64(*k);
            w.put_u8(0);
        }
        w.into_bytes()
    }

    #[test]
    fn maps_and_sets_reject_descending_and_duplicate_keys() {
        for (keys, ok) in [
            (&[1u64, 2, 9][..], true),
            (&[2, 1, 9], false),
            (&[1, 2, 2], false),
        ] {
            let bytes = map_bytes(keys);
            let hash = HashMap::<u64, u8>::restore(&mut SnapReader::new(&bytes));
            let tree = BTreeMap::<u64, u8>::restore(&mut SnapReader::new(&bytes));
            assert_eq!((hash.is_ok(), tree.is_ok()), (ok, ok), "map {keys:?}");
            let mut w = SnapWriter::new();
            keys.to_vec().snap(&mut w);
            let set = HashSet::<u64>::restore(&mut SnapReader::new(&w.into_bytes()));
            assert_eq!(set.is_ok(), ok, "set {keys:?}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Id(u64);
    #[derive(Debug, PartialEq)]
    struct Span {
        from: Id,
        to: Id,
    }
    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line { span: Box<Span>, label: String },
        Tagged(std::sync::Arc<Id>, u8),
    }
    snap_struct!(Id { 0 });
    snap_struct!(Span { from, to }, |s| {
        ensure(s.from.0 <= s.to.0, "span runs backwards")
    });
    snap_enum!(Shape {
        0 => Dot,
        28 => Line { span, label },
        7 => Tagged(id, flags),
    });

    #[test]
    fn macros_round_trip_and_reject_unknown_tags_and_failed_checks() {
        let span = |from, to| Span {
            from: Id(from),
            to: Id(to),
        };
        let shapes = vec![
            Shape::Dot,
            Shape::Line {
                span: Box::new(span(1, 2)),
                label: "edge".into(),
            },
            Shape::Tagged(std::sync::Arc::new(Id(5)), 9),
        ];
        let mut w = SnapWriter::new();
        shapes.snap(&mut w);
        let bytes = w.into_bytes();
        // Box and Arc are flattened: len, then tag 0; tag 28, two ids, the
        // label; tag 7, one id, one byte.
        assert_eq!(bytes.len(), 8 + 1 + (1 + 16 + 8 + 4) + (1 + 8 + 1));
        assert_eq!(bytes[9], 28);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<Shape>::restore(&mut r).unwrap(), shapes);
        r.finish().unwrap();

        let mut unknown = bytes.clone();
        unknown[8] = 1; // no variant carries tag 1
        let err = Vec::<Shape>::restore(&mut SnapReader::new(&unknown)).unwrap_err();
        assert_eq!(err, SnapError::Invalid("Shape tag 1".into()));

        let mut w = SnapWriter::new();
        span(3, 2).snap(&mut w);
        let err = Span::restore(&mut SnapReader::new(&w.into_bytes())).unwrap_err();
        assert_eq!(err, SnapError::Invalid("span runs backwards".into()));
    }

    #[test]
    fn get_len_rejects_absurd_lengths() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<u64>::restore(&mut r).is_err());
    }
}
