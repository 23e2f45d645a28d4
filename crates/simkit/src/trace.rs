//! Per-update hop-ledger tracing.
//!
//! Every update admitted to a simulation gets a [`TraceId`]; as the update
//! moves write → Pylon → BRASS → BURST → device, each component appends a
//! timestamped [`HopRecord`] to a central [`TraceLedger`]. The ledger then
//! answers the questions aggregate counters cannot:
//!
//! * the full hop chain of any one update (where did it go, when),
//! * per-hop latency histograms (log-bucketed, p50/p95/p99/max),
//! * a drop attribution table — which hop killed an update, and why,
//! * the N slowest end-to-end deliveries of a run.
//!
//! Records are append-only and fully deterministic: two runs from the same
//! seed produce bit-identical ledgers, which the determinism regression
//! tests rely on.
//!
//! # Retention
//!
//! A ledger keeps one record store: the records in append order, as runs.
//! A record identical to the one appended just before it (a storm update
//! dropped from hundreds of viewers' buffers in one instant) extends that
//! record's count instead of taking a slot, so memory is O(runs), while
//! [`TraceLedger::records`] and [`TraceLedger::chain`] see the records one
//! by one. The runs are kept coded, in blocks: each as the varint
//! differences of its trace id and instant from the run before it, its
//! count and one byte of hop and outcome, about six bytes where a decoded
//! run takes 24; only the newest stays decoded, so a repeat extends it in
//! place, and readers decode as they go. [`Retention::Full`] (the default,
//! what `trace-dump` wants) keeps every run; [`Retention::Bounded`] trims
//! the store to its last `cap` records (whole blocks, then a count skipped
//! inside the first, so a trim decodes nothing), so bench-scale runs don't
//! blow peak RSS, and chains and deliveries then cover that window.
//! Compact per-trace accounting state, the latency histograms and the
//! fingerprint ([`LedgerFp`], a polynomial hash whose value for a run has
//! a closed form, so a run costs O(log n)) cover every record under either
//! retention.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::fxhash::FxHashMap;
use crate::metrics::{Histogram, Summary};
use crate::snap::{ensure, Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use crate::time::{SimDuration, SimTime};
use crate::{snap_enum, snap_struct};

/// Identifier of one traced update. The simulation assigns these at write
/// commit (one per update event admitted to the pipeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A pipeline stage an update passes through (the paper's Fig. 5 path).
/// The discriminants are stable tags the fingerprint mixes: never reorder
/// them; append only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hop {
    /// The write committed at the WAS/TAO and emitted an update event.
    TaoCommit = 0,
    /// The event reached Pylon and fanned out to subscribed hosts.
    PylonPublish = 1,
    /// Pylon handed the event to one BRASS host.
    PylonDeliver = 2,
    /// BRASS processing: filtering, buffering, and the payload fetch.
    BrassProcess = 3,
    /// The BRASS emitted a BURST response frame carrying the payload.
    BrassSend = 4,
    /// The frame cleared the edge (proxy + POP) toward the device.
    BurstDeliver = 5,
    /// The device received and rendered the update.
    DeviceRender = 6,
    /// The device recovered a previously lost update by polling the WAS
    /// (gap-detection backfill, §5).
    WasBackfill = 7,
}

impl Hop {
    /// Short stable name, used in tables and dumps.
    pub fn name(self) -> &'static str {
        match self {
            Hop::TaoCommit => "tao_commit",
            Hop::PylonPublish => "pylon_publish",
            Hop::PylonDeliver => "pylon_deliver",
            Hop::BrassProcess => "brass_process",
            Hop::BrassSend => "brass_send",
            Hop::BurstDeliver => "burst_deliver",
            Hop::DeviceRender => "device_render",
            Hop::WasBackfill => "was_backfill",
        }
    }
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a hop killed an update. The discriminants are stable tags the
/// fingerprint mixes: never reorder them; append only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Content language did not match the viewer's.
    LanguageFilter = 0,
    /// ML quality score below the application's floor.
    QualityFilter = 1,
    /// The update was already stale when the filter saw it.
    Stale = 2,
    /// The WAS privacy check denied the viewer.
    PrivacyBlock = 3,
    /// The per-stream rate limit starved it until it aged out of the
    /// ranked buffer.
    RateLimit = 4,
    /// Evicted from a full ranked buffer by higher-ranked updates.
    BufferOverflow = 5,
    /// The referenced object no longer existed at fetch time.
    NotFound = 6,
    /// Published to a topic with no subscribed host.
    NoSubscribers = 7,
    /// The target device was disconnected when the frame arrived.
    DeviceDisconnected = 8,
    /// The frame was lost on the last mile.
    LastMileLoss = 9,
    /// The target BRASS host was down (crashed or mid-upgrade); anything
    /// addressed to it — or buffered inside it — died with it.
    HostDown = 10,
    /// Shed at a BRASS host's bounded ingress mailbox under overload.
    MailboxOverflow = 11,
    /// Shed at the POP egress because the device's BURST flow-control
    /// window was exhausted; the device was told via
    /// `FlowStatus::Degraded`.
    FlowControl = 12,
    /// An application received the update but no live stream wanted it —
    /// the subscriber unsubscribed (or its interest lapsed) between the
    /// topic fan-out and app-level processing.
    NoAudience,
}

impl DropReason {
    /// Short stable name, used in tables and dumps.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::LanguageFilter => "language_filter",
            DropReason::QualityFilter => "quality_filter",
            DropReason::Stale => "stale",
            DropReason::PrivacyBlock => "privacy_block",
            DropReason::RateLimit => "rate_limit",
            DropReason::BufferOverflow => "buffer_overflow",
            DropReason::NotFound => "not_found",
            DropReason::NoSubscribers => "no_subscribers",
            DropReason::DeviceDisconnected => "device_disconnected",
            DropReason::LastMileLoss => "last_mile_loss",
            DropReason::HostDown => "host_down",
            DropReason::MailboxOverflow => "mailbox_overflow",
            DropReason::FlowControl => "flow_control",
            DropReason::NoAudience => "no_audience",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of one hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HopOutcome {
    /// The update moved on.
    Ok,
    /// The hop killed the update (for at least one viewer).
    Dropped(DropReason),
}

/// One timestamped entry in the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// The traced update.
    pub trace_id: TraceId,
    /// The pipeline stage.
    pub hop: Hop,
    /// When the update reached the stage.
    pub at: SimTime,
    /// What the stage did with it.
    pub outcome: HopOutcome,
}

impl fmt::Display for HopRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            HopOutcome::Ok => {
                write!(
                    f,
                    "{:>10.3}ms  {:<14} ok",
                    self.at.as_micros() as f64 / 1e3,
                    self.hop
                )
            }
            HopOutcome::Dropped(r) => write!(
                f,
                "{:>10.3}ms  {:<14} DROPPED: {r}",
                self.at.as_micros() as f64 / 1e3,
                self.hop
            ),
        }
    }
}

/// A run of identical consecutive records, decoded: what a [`RunStore`]
/// codes into its blocks and hands back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    trace_id: TraceId,
    at: SimTime,
    count: u32,
    hop: Hop,
    outcome: HopOutcome,
}

impl Run {
    fn record(&self) -> HopRecord {
        HopRecord {
            trace_id: self.trace_id,
            hop: self.hop,
            at: self.at,
            outcome: self.outcome,
        }
    }

    /// The hop (high nibble) and the outcome's code (low nibble) in one
    /// byte. A hop's discriminant is its snapshot tag, and so is a drop
    /// reason's, so [`Run::decode`] reads them back with their [`Snap`]
    /// readers.
    fn tag(&self) -> u8 {
        (self.hop as u8) << 4 | self.outcome.code() as u8
    }

    /// Codes this run after `prev`, the trace and instant of the run coded
    /// before it: the zigzag-varint differences of both, then the count
    /// as a varint and the tag byte.
    fn code(&self, w: &mut SnapWriter, prev: &mut (u64, u64)) {
        let (trace, at) = (self.trace_id.0, self.at.as_micros());
        w.put_zigzag(trace.wrapping_sub(prev.0) as i64);
        w.put_zigzag(at.wrapping_sub(prev.1) as i64);
        w.put_varint(u64::from(self.count));
        w.put_u8(self.tag());
        *prev = (trace, at);
    }

    /// Reads back what [`Run::code`] wrote after `prev`.
    fn decode(r: &mut SnapReader<'_>, prev: &mut (u64, u64)) -> SnapResult<Run> {
        let trace = prev.0.wrapping_add(r.get_zigzag()? as u64);
        let at = prev.1.wrapping_add(r.get_zigzag()? as u64);
        let count = r.get_varint()? as u32;
        let tag = r.get_u8()?;
        let outcome = match tag & 0xf {
            0 => HopOutcome::Ok,
            code => HopOutcome::Dropped(Snap::restore(&mut SnapReader::new(&[code - 1]))?),
        };
        *prev = (trace, at);
        Ok(Run {
            trace_id: TraceId(trace),
            at: SimTime::from_micros(at),
            count,
            hop: Snap::restore(&mut SnapReader::new(&[tag >> 4]))?,
            outcome,
        })
    }
}

/// Runs per block: a block is the unit a bounded store drops whole.
const BLOCK_RUNS: u32 = 256;

/// A typical full block's bytes (a run codes to about six), reserved when
/// a block opens so it fills without regrowing.
const BLOCK_BYTES: usize = 6 * BLOCK_RUNS as usize;

/// Up to [`BLOCK_RUNS`] runs, coded back to back ([`Run::code`]), the
/// first against trace 0 at instant 0, so a block decodes on its own.
#[derive(Clone, Debug)]
struct Block {
    bytes: Vec<u8>,
    /// Runs coded in `bytes`.
    runs: u32,
    /// Records in those runs: the sum of their counts.
    records: usize,
}

impl Block {
    fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        let mut r = SnapReader::new(&self.bytes);
        let mut prev = (0, 0);
        (0..self.runs)
            .map(move |_| Run::decode(&mut r, &mut prev).expect("a block reads what it coded"))
    }
}

/// A ledger's one record store, under both retentions: its runs in append
/// order, all but the newest coded into a deque of [`Block`]s (about six
/// bytes a run where a decoded one takes 24). The newest run stays decoded,
/// so a repeat extends its count in place. A bounded store trims whole
/// blocks off the front and, inside the first, skips a count of records,
/// so a trim is O(1) and decodes nothing.
#[derive(Clone, Debug, Default)]
struct RunStore {
    /// Coded runs, oldest first; the back block takes runs until it holds
    /// [`BLOCK_RUNS`].
    blocks: VecDeque<Block>,
    /// The trace and instant of the back block's last coded run: what the
    /// next run is coded against.
    prev: (u64, u64),
    /// The newest run, decoded.
    newest: Option<Run>,
    /// Records trimmed off the front of the first block, always fewer than
    /// it holds: the oldest stored run is what is left of the run they cut.
    skip: usize,
    /// Records stored: the blocks' less `skip`, plus the newest run's.
    stored: usize,
}

impl RunStore {
    /// Appends `run` as a run of its own: no merge, no trim.
    fn append(&mut self, run: Run) {
        self.stored += run.count as usize;
        let Some(older) = self.newest.replace(run) else {
            return;
        };
        if self.blocks.back().is_none_or(|b| b.runs == BLOCK_RUNS) {
            if let Some(full) = self.blocks.back_mut() {
                full.bytes.shrink_to_fit();
            }
            self.blocks.push_back(Block {
                bytes: Vec::with_capacity(BLOCK_BYTES),
                runs: 0,
                records: 0,
            });
            self.prev = (0, 0);
        }
        let block = self.blocks.back_mut().expect("a block is open");
        let mut w = SnapWriter::onto(std::mem::take(&mut block.bytes));
        older.code(&mut w, &mut self.prev);
        block.bytes = w.into_bytes();
        block.runs += 1;
        block.records += older.count as usize;
    }

    /// Appends `run`, extending the newest run when it holds the same
    /// record (up to `u32::MAX`, where a new run starts).
    fn push(&mut self, mut run: Run) {
        if let Some(newest) = self.newest.as_mut().filter(|r| r.record() == run.record()) {
            let take = run.count.min(u32::MAX - newest.count);
            newest.count += take;
            run.count -= take;
            self.stored += take as usize;
        }
        if run.count > 0 {
            self.append(run);
        }
    }

    /// Trims the store from the front to its last `cap` records: whole
    /// blocks, then a skip inside the first, then (with no block left) the
    /// newest run's count.
    fn trim(&mut self, cap: usize) {
        while self.stored > cap {
            let excess = self.stored - cap;
            match self.blocks.front() {
                Some(front) if front.records - self.skip > excess => {
                    self.skip += excess;
                    self.stored = cap;
                }
                Some(front) => {
                    self.stored -= front.records - self.skip;
                    self.skip = 0;
                    self.blocks.pop_front();
                }
                None => {
                    let newest = self.newest.as_mut().expect("stored records are in runs");
                    if newest.count as usize > excess {
                        newest.count -= excess as u32;
                        self.stored = cap;
                    } else {
                        self.stored -= newest.count as usize;
                        self.newest = None;
                    }
                }
            }
        }
    }

    /// The stored runs in append order, the skipped records left out.
    fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        let mut skip = self.skip;
        let coded = self.blocks.iter().flat_map(Block::runs);
        let kept = coded.filter_map(move |mut run| {
            if skip == 0 {
                return Some(run);
            }
            let cut = skip.min(run.count as usize);
            skip -= cut;
            run.count -= cut as u32;
            (run.count > 0).then_some(run)
        });
        kept.chain(self.newest)
    }
}

snap_struct!(TraceId { 0 });
snap_enum!(Hop {
    0 => TaoCommit,
    1 => PylonPublish,
    2 => PylonDeliver,
    3 => BrassProcess,
    4 => BrassSend,
    5 => BurstDeliver,
    6 => DeviceRender,
    7 => WasBackfill,
});
snap_enum!(DropReason {
    0 => LanguageFilter,
    1 => QualityFilter,
    2 => Stale,
    3 => PrivacyBlock,
    4 => RateLimit,
    5 => BufferOverflow,
    6 => NotFound,
    7 => NoSubscribers,
    8 => DeviceDisconnected,
    9 => LastMileLoss,
    10 => HostDown,
    11 => MailboxOverflow,
    12 => FlowControl,
    13 => NoAudience,
});
snap_enum!(HopOutcome { 0 => Ok, 1 => Dropped(reason) });
snap_struct!(HopRecord {
    trace_id,
    hop,
    at,
    outcome
});
// A run is its record, then its count.
snap_struct!(
    Run {
        trace_id,
        hop,
        at,
        outcome,
        count
    },
    |run| ensure(run.count > 0, "a run of no records")
);
snap_enum!(Retention { 0 => Full, 1 => Bounded(cap) });
snap_struct!(TraceState {
    first_at,
    last_at,
    delivered,
    backfilled,
    first_drop
});

impl HopOutcome {
    /// Compact code for fingerprinting: 0 for [`HopOutcome::Ok`],
    /// `1 + reason` for a drop.
    fn code(self) -> u64 {
        match self {
            HopOutcome::Ok => 0,
            HopOutcome::Dropped(r) => 1 + r as u64,
        }
    }
}

/// The Mersenne prime 2^61 − 1, the field [`LedgerFp`] computes in.
const P: u64 = (1 << 61) - 1;
/// The evaluation point: a fixed constant, chosen once and independently
/// of any record.
const B: u64 = 0x06c2_8596_ea12_5c50;
const B2: u64 = mul_mod(B, B);
/// A record is three words, so a record steps by B³.
const B3: u64 = mul_mod(B2, B);
/// The fingerprint of the empty history. Non-zero, so two histories of
/// different lengths differ in their leading coefficient.
const F0: u64 = 0x0e16_a2d9_32cc_d896;

/// `x mod p`, for `x < 2p`.
const fn fold(x: u64) -> u64 {
    if x >= P {
        x - P
    } else {
        x
    }
}

/// `x mod p`, for any `x`: 2^61 ≡ 1, so the high bits add to the low.
const fn reduce(x: u64) -> u64 {
    fold((x & P) + (x >> 61))
}

/// `a·b mod p`, for `a, b < p`.
const fn mul_mod(a: u64, b: u64) -> u64 {
    let x = a as u128 * b as u128;
    fold((x as u64 & P) + (x >> 61) as u64)
}

/// `(K^n, K^(n−1) + … + K + 1)` for K = B³: what a run of `n` identical
/// records multiplies the fingerprint and the record's value by. Binary
/// doubling, high bit first: the pair of a run of m records followed by
/// one of k is `(pow_m·pow_k, sum_m·pow_k + sum_k)`.
fn run_factors(n: u32) -> (u64, u64) {
    let (mut pow, mut sum) = (1, 0);
    for bit in (0..u32::BITS - n.leading_zeros()).rev() {
        sum = reduce(mul_mod(sum, pow) + sum);
        pow = mul_mod(pow, pow);
        if n >> bit & 1 == 1 {
            sum = reduce(mul_mod(sum, B3) + 1);
            pow = mul_mod(pow, B3);
        }
    }
    (pow, sum)
}

/// The hop ledger's rolling fingerprint: a polynomial hash, modulo the
/// Mersenne prime p = 2^61 − 1, of the word stream `trace, at, code` of
/// every record appended, evaluated at a fixed point B by Horner's rule
/// (F ← F·B + word per word; `code` packs the hop and the outcome).
///
/// Two distinct word streams of at most L words collide only if B is a
/// root of their difference, a non-zero polynomial of degree ≤ L, so with
/// probability ≤ L/p for a B chosen independently of the data
/// (Schwartz–Zippel): about 1.3·10⁻⁹ for 10⁹ records. Words enter mod p,
/// which is exact for trace ids and microsecond times below 2^61.
///
/// What the algebra buys is a cheap run: `n` copies of one record fold in
/// closed form, F ← F·K^n + h·(K^(n−1) + … + 1), where K = B³ and h is the
/// record's own three-word value, in ⌈log₂(n + 1)⌉ doubling steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerFp(u64);

impl LedgerFp {
    /// The fingerprint of the empty history.
    pub const fn new() -> Self {
        LedgerFp(F0)
    }

    /// Folds one word in: F ← F·B + (word mod p).
    pub fn mix(&mut self, word: u64) {
        self.0 = reduce(mul_mod(self.0, B) + reduce(word));
    }

    /// Folds in `n` copies of the record `trace, at, code`: the value `n`
    /// rounds of three [`Self::mix`] calls give, in O(log n).
    fn mix_record(&mut self, trace: u64, at: u64, code: u64, n: u32) {
        let h = reduce(mul_mod(reduce(trace), B2) + mul_mod(reduce(at), B) + code);
        let (pow, sum) = match n {
            1 => (B3, 1),
            _ => run_factors(n),
        };
        self.0 = reduce(mul_mod(self.0, pow) + mul_mod(h, sum));
    }

    /// The current fingerprint value, below p.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for LedgerFp {
    fn default() -> Self {
        LedgerFp::new()
    }
}

/// One word; a word at or above p is no state a ledger reaches.
impl Snap for LedgerFp {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let v = r.get_u64()?;
        if v >= P {
            return Err(SnapError::Invalid(format!(
                "ledger fingerprint {v:#x} is not below 2^61 − 1"
            )));
        }
        Ok(LedgerFp(v))
    }
}

/// How much raw record history a [`TraceLedger`] keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Retention {
    /// Keep every record (full chains forever).
    #[default]
    Full,
    /// Keep the most recent records, at most this many; the accounting
    /// state and histograms cover the whole history either way.
    Bounded(usize),
}

/// Compact always-on accounting state for one trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TraceState {
    /// When the trace's first record landed (e2e latency origin).
    first_at: SimTime,
    /// When the trace's latest record landed (per-hop latency origin).
    last_at: SimTime,
    /// Rendered on at least one device.
    delivered: bool,
    /// Recovered via a WAS backfill poll after a loss.
    backfilled: bool,
    /// The first drop recorded, if any.
    first_drop: Option<(Hop, DropReason)>,
}

/// The central append-only hop ledger of a simulation run.
///
/// # Examples
///
/// ```
/// use simkit::time::SimTime;
/// use simkit::trace::{DropReason, Hop, HopOutcome, TraceId, TraceLedger};
///
/// let mut ledger = TraceLedger::new();
/// let t = TraceId(1);
/// ledger.record(t, Hop::TaoCommit, SimTime::from_millis(0), HopOutcome::Ok);
/// ledger.record(t, Hop::PylonPublish, SimTime::from_millis(3),
///               HopOutcome::Dropped(DropReason::NoSubscribers));
/// assert_eq!(ledger.chain(t).len(), 2);
/// assert_eq!(ledger.drop_of(t), Some((Hop::PylonPublish, DropReason::NoSubscribers)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceLedger {
    retention: Retention,
    /// The retained records in append order, identical neighbours folded
    /// into one run: every record, or under [`Retention::Bounded`] the
    /// last `cap`.
    store: RunStore,
    /// Compact per-trace accounting, maintained in both modes.
    states: FxHashMap<TraceId, TraceState>,
    /// Latency from the previous hop of the same trace to this hop (ms).
    hop_latency: BTreeMap<Hop, Histogram>,
    /// (hop, reason) → updates killed there.
    drops: BTreeMap<(Hop, DropReason), u64>,
    /// End-to-end latency of every delivery (ms), both modes.
    e2e: Histogram,
    /// Total successful renders (first per trace), both modes.
    delivered_count: u64,
    /// Polynomial hash over every record as it is appended ([`LedgerFp`]).
    /// Because it folds records in at [`Self::record_n`] time, its value is
    /// independent of retention: a bounded ledger that evicted everything
    /// still carries the same fingerprint as a full one fed the same
    /// history. A run of `n` records costs one closed-form step, not `n`.
    fp: LedgerFp,
}

impl TraceLedger {
    /// Creates an empty full-retention ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty ledger with the given retention mode.
    pub fn with_retention(retention: Retention) -> Self {
        TraceLedger {
            retention,
            ..Self::default()
        }
    }

    /// This ledger's retention mode.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// Appends one hop record, updating the per-hop latency histogram (the
    /// time since the trace's previous record) and, on a
    /// [`Hop::DeviceRender`] success, the delivery accounting.
    pub fn record(&mut self, trace_id: TraceId, hop: Hop, at: SimTime, outcome: HopOutcome) {
        self.record_n(trace_id, hop, at, outcome, 1);
    }

    /// Appends `n` identical hop records, leaving the ledger exactly as `n`
    /// calls to [`Self::record`] would: same fingerprint, histograms, drop
    /// table and snapshot bytes. Every repeat after the first shares its
    /// trace's `last_at`, so its hop latency is exactly 0; the run costs
    /// one histogram update, at most one stored entry, and one
    /// O(log n) fingerprint step ([`LedgerFp`]).
    pub fn record_n(
        &mut self,
        trace_id: TraceId,
        hop: Hop,
        at: SimTime,
        outcome: HopOutcome,
        n: u32,
    ) {
        if n == 0 {
            return;
        }
        let code = ((hop as u64) << 8) | outcome.code();
        self.fp.mix_record(trace_id.0, at.as_micros(), code, n);
        let (st, latency) = match self.states.entry(trace_id) {
            Entry::Occupied(e) => {
                let st = e.into_mut();
                let ms = at.saturating_since(st.last_at).as_millis_f64();
                (st, Some(ms))
            }
            Entry::Vacant(e) => {
                let st = e.insert(TraceState {
                    first_at: at,
                    last_at: at,
                    delivered: false,
                    backfilled: false,
                    first_drop: None,
                });
                (st, None)
            }
        };
        let repeats = u64::from(n - 1);
        if latency.is_some() || repeats > 0 {
            let h = self.hop_latency.entry(hop).or_default();
            if let Some(ms) = latency {
                h.record(ms);
            }
            h.record_n(0.0, repeats);
        }
        if let HopOutcome::Dropped(reason) = outcome {
            *self.drops.entry((hop, reason)).or_insert(0) += u64::from(n);
            if st.first_drop.is_none() {
                st.first_drop = Some((hop, reason));
            }
        }
        if hop == Hop::DeviceRender && outcome == HopOutcome::Ok {
            let e2e = at.saturating_since(st.first_at);
            self.e2e.record_n(e2e.as_millis_f64(), u64::from(n));
            self.delivered_count += u64::from(n);
            st.delivered = true;
        }
        if hop == Hop::WasBackfill && outcome == HopOutcome::Ok {
            st.backfilled = true;
        }
        st.last_at = at;
        self.store.push(Run {
            trace_id,
            at,
            count: n,
            hop,
            outcome,
        });
        if let Retention::Bounded(cap) = self.retention {
            self.store.trim(cap);
        }
    }

    /// The retained records, in append order, one per record appended
    /// (runs expanded).
    pub fn records(&self) -> impl Iterator<Item = HopRecord> + '_ {
        self.runs()
            .flat_map(|(rec, n)| std::iter::repeat_n(rec, n as usize))
    }

    /// The stored runs, in append order: each record with how many times it
    /// was appended back to back. Expanding them gives [`Self::records`];
    /// a pass that does not care about repeats (earliest instant per trace,
    /// say) reads these instead.
    pub fn runs(&self) -> impl Iterator<Item = (HopRecord, u32)> + '_ {
        self.store.runs().map(|r| (r.record(), r.count))
    }

    /// Number of distinct traces seen.
    pub fn trace_count(&self) -> usize {
        self.states.len()
    }

    /// The hop chain of one trace, in order. Under [`Retention::Bounded`]
    /// this is only the part still in the store.
    pub fn chain(&self, trace_id: TraceId) -> Vec<HopRecord> {
        self.records().filter(|r| r.trace_id == trace_id).collect()
    }

    /// [`Self::chain`] with identical consecutive records folded into
    /// `(record, count)` runs.
    fn chain_runs(&self, trace_id: TraceId) -> Vec<(HopRecord, u64)> {
        let mut out: Vec<(HopRecord, u64)> = Vec::new();
        for run in self.store.runs().filter(|r| r.trace_id == trace_id) {
            let (rec, n) = (run.record(), u64::from(run.count));
            match out.last_mut() {
                Some((last, count)) if *last == rec => *count += n,
                _ => out.push((rec, n)),
            }
        }
        out
    }

    /// All trace ids, ascending.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.states.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Whether the trace rendered on at least one device.
    pub fn is_delivered(&self, trace_id: TraceId) -> bool {
        self.states.get(&trace_id).is_some_and(|s| s.delivered)
    }

    /// Whether the trace was recovered via WAS backfill after a loss.
    pub fn is_backfilled(&self, trace_id: TraceId) -> bool {
        self.states.get(&trace_id).is_some_and(|s| s.backfilled)
    }

    /// The first drop recorded for a trace, if any.
    pub fn drop_of(&self, trace_id: TraceId) -> Option<(Hop, DropReason)> {
        self.states.get(&trace_id).and_then(|s| s.first_drop)
    }

    /// Traces that neither rendered anywhere nor have a drop record nor
    /// were backfilled — an update the ledger lost track of (or one still
    /// in flight when the run stopped). The complete-accounting tests and
    /// the chaos convergence checker assert this is empty.
    pub fn unaccounted(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self
            .states
            .iter()
            .filter(|(_, s)| !s.delivered && !s.backfilled && s.first_drop.is_none())
            .map(|(&t, _)| t)
            .collect();
        ids.sort();
        ids
    }

    /// The stored deliveries as `(trace, end-to-end latency)`, in render
    /// order: one per successful [`Hop::DeviceRender`] record, timed from
    /// its trace's first record.
    pub fn deliveries(&self) -> impl Iterator<Item = (TraceId, SimDuration)> + '_ {
        self.store
            .runs()
            .filter(|r| r.hop == Hop::DeviceRender && r.outcome == HopOutcome::Ok)
            .flat_map(|r| {
                let e2e = r.at.saturating_since(self.states[&r.trace_id].first_at);
                std::iter::repeat_n((r.trace_id, e2e), r.count as usize)
            })
    }

    /// Total successful renders (first render per trace), both modes.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Traces recovered by WAS backfill, both modes.
    pub fn backfilled_count(&self) -> u64 {
        self.states.values().filter(|s| s.backfilled).count() as u64
    }

    /// The end-to-end delivery latency histogram (ms), both modes.
    pub fn e2e_histogram(&self) -> &Histogram {
        &self.e2e
    }

    /// The `n` slowest stored deliveries, slowest first (ties: lower trace
    /// first).
    pub fn slowest(&self, n: usize) -> Vec<(TraceId, SimDuration)> {
        let mut all: Vec<_> = self.deliveries().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Per-hop latency summaries (time from the previous hop of the same
    /// trace), in pipeline order.
    pub fn hop_summaries(&self) -> Vec<(Hop, Summary)> {
        self.hop_latency
            .iter()
            .map(|(hop, h)| (*hop, Summary::of(h)))
            .collect()
    }

    /// The raw per-hop latency histogram, if the hop was ever reached.
    pub fn hop_histogram(&self, hop: Hop) -> Option<&Histogram> {
        self.hop_latency.get(&hop)
    }

    /// The drop attribution table: `(hop, reason, count)` rows, in hop then
    /// reason order.
    pub fn drop_table(&self) -> Vec<(Hop, DropReason, u64)> {
        self.drops
            .iter()
            .map(|(&(hop, reason), &n)| (hop, reason, n))
            .collect()
    }

    /// Total drop records across all hops.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// The rolling ledger fingerprint: a polynomial hash mod 2^61 − 1 of
    /// every record ever appended, in order, regardless of retention mode
    /// ([`LedgerFp`]). Two ledgers fed the same record history have equal
    /// fingerprints; two fed different ones collide with probability at
    /// most (3 × records) / (2^61 − 1).
    pub fn fingerprint(&self) -> u64 {
        self.fp.value()
    }

    /// Renders one trace's chain as text (for `trace-dump` and debugging),
    /// one line per run of identical records, marked `×N` when N > 1.
    pub fn format_chain(&self, trace_id: TraceId) -> String {
        let chain = self.chain_runs(trace_id);
        let Some(first) = chain.first().map(|(r, _)| r.at) else {
            return format!("{trace_id}: no records");
        };
        let mut out = String::new();
        out.push_str(&format!("{trace_id}:\n"));
        let mut prev = first;
        for (r, n) in &chain {
            let gap = r.at.saturating_since(prev).as_millis_f64();
            match n {
                1 => out.push_str(&format!("  {r}  (+{gap:.3}ms)\n")),
                _ => out.push_str(&format!("  {r}  (+{gap:.3}ms)  ×{n}\n")),
            }
            prev = r.at;
        }
        match (self.is_delivered(trace_id), self.drop_of(trace_id)) {
            (true, _) => out.push_str(&format!(
                "  delivered in {:.3}ms\n",
                prev.saturating_since(first).as_millis_f64()
            )),
            (false, Some((hop, reason))) => {
                out.push_str(&format!("  dropped at {hop}: {reason}\n"));
                if self.is_backfilled(trace_id) {
                    out.push_str("  recovered via was_backfill\n");
                }
            }
            (false, None) => out.push_str("  still in flight\n"),
        }
        out
    }
}

/// Two ledgers are equal when they hold the same runs and the same
/// accounting, however their stores' blocks happen to fall.
impl PartialEq for TraceLedger {
    fn eq(&self, other: &Self) -> bool {
        self.retention == other.retention
            && self.store.runs().eq(other.store.runs())
            && self.states == other.states
            && self.hop_latency == other.hop_latency
            && self.drops == other.drops
            && self.e2e == other.e2e
            && self.delivered_count == other.delivered_count
            && self.fp == other.fp
    }
}

/// The ledger's complete state: the stored runs, decoded, as a count and
/// then `(record, count)` each (the store's blocks are memory layout, not
/// state), the accounting maps, latency histograms, and the rolling
/// fingerprint.
impl Snap for TraceLedger {
    fn snap(&self, w: &mut SnapWriter) {
        self.retention.snap(w);
        w.put_usize(self.store.runs().count());
        self.store.runs().for_each(|run| run.snap(w));
        self.states.snap(w);
        self.hop_latency.snap(w);
        self.drops.snap(w);
        self.e2e.snap(w);
        self.delivered_count.snap(w);
        self.fp.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let retention = Snap::restore(r)?;
        let mut store = RunStore::default();
        for _ in 0..r.get_len()? {
            store.append(Run::restore(r)?);
        }
        let ledger = TraceLedger {
            retention,
            store,
            states: Snap::restore(r)?,
            hop_latency: Snap::restore(r)?,
            drops: Snap::restore(r)?,
            e2e: Snap::restore(r)?,
            delivered_count: Snap::restore(r)?,
            fp: Snap::restore(r)?,
        };
        ledger.check().map_err(SnapError::Invalid)?;
        Ok(ledger)
    }
}

impl TraceLedger {
    /// Restore accepts only the store a ledger reaches, so what it loads is
    /// canonical (a run of no records is rejected as it is read): two
    /// adjacent runs of one record only where the first is full, at most
    /// `cap` records, and no run of a trace without accounting state. A trace's records need not come
    /// in time order (a send is stamped when it leaves, ahead of records
    /// other viewers add later), so only its ends are checked: its newest
    /// stored run is its newest record (a bounded store keeps a suffix),
    /// and a full store holds every trace's first record.
    fn check(&self) -> Result<(), String> {
        let mut ends: FxHashMap<TraceId, (SimTime, SimTime)> = FxHashMap::default();
        let mut prev: Option<Run> = None;
        for run in self.store.runs() {
            let split = prev.is_none_or(|p| p.count == u32::MAX || p.record() != run.record());
            ensure(split, "adjacent runs of one record")?;
            prev = Some(run);
            ends.entry(run.trace_id)
                .and_modify(|(_, newest)| *newest = run.at)
                .or_insert((run.at, run.at));
        }
        let full = self.retention == Retention::Full;
        ensure(
            !full || ends.len() == self.states.len(),
            "a trace with no run",
        )?;
        for (trace, (oldest, newest)) in ends {
            let st = self
                .states
                .get(&trace)
                .ok_or("a run of a trace with no state")?;
            let at_ends = newest == st.last_at && (!full || oldest == st.first_at);
            ensure(at_ends, "a trace's runs end off its first or last record")?;
        }
        match self.retention {
            Retention::Bounded(cap) => {
                ensure(self.store.stored <= cap, "more records than the cap")
            }
            Retention::Full => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn bounded(cap: usize) -> TraceLedger {
        TraceLedger::with_retention(Retention::Bounded(cap))
    }

    #[test]
    fn delivered_chain_latencies_telescope() {
        let mut l = TraceLedger::new();
        let t = TraceId(7);
        l.record(t, Hop::TaoCommit, ms(0), HopOutcome::Ok);
        l.record(t, Hop::PylonPublish, ms(10), HopOutcome::Ok);
        l.record(t, Hop::PylonDeliver, ms(25), HopOutcome::Ok);
        l.record(t, Hop::BrassSend, ms(40), HopOutcome::Ok);
        l.record(t, Hop::BurstDeliver, ms(55), HopOutcome::Ok);
        l.record(t, Hop::DeviceRender, ms(100), HopOutcome::Ok);
        assert!(l.is_delivered(t));
        assert!(l.deliveries().eq([(t, SimDuration::from_millis(100))]));
        assert_eq!(l.delivered_count(), 1);
        assert_eq!(l.e2e_histogram().count(), 1);
        // Per-hop latencies sum to the end-to-end latency.
        let chain = l.chain(t);
        let sum: f64 = chain
            .windows(2)
            .map(|w| w[1].at.saturating_since(w[0].at).as_millis_f64())
            .sum();
        assert!((sum - 100.0).abs() < 1e-9);
        // Each hop histogram saw exactly one sample.
        for (hop, expect) in [
            (Hop::PylonPublish, 10.0),
            (Hop::PylonDeliver, 15.0),
            (Hop::BrassSend, 15.0),
            (Hop::BurstDeliver, 15.0),
            (Hop::DeviceRender, 45.0),
        ] {
            let h = l.hop_histogram(hop).unwrap();
            assert_eq!(h.count(), 1);
            assert!((h.mean() - expect).abs() < 1.0, "{hop}: {}", h.mean());
        }
        assert!(
            l.hop_histogram(Hop::TaoCommit).is_none(),
            "first hop has no predecessor"
        );
        assert!(l.unaccounted().is_empty());
    }

    #[test]
    fn drops_attributed_to_hop_and_reason() {
        let mut l = TraceLedger::new();
        let a = TraceId(1);
        l.record(a, Hop::TaoCommit, ms(0), HopOutcome::Ok);
        l.record(
            a,
            Hop::PylonPublish,
            ms(5),
            HopOutcome::Dropped(DropReason::NoSubscribers),
        );
        let b = TraceId(2);
        l.record(b, Hop::TaoCommit, ms(0), HopOutcome::Ok);
        l.record(b, Hop::PylonPublish, ms(5), HopOutcome::Ok);
        l.record(b, Hop::PylonDeliver, ms(9), HopOutcome::Ok);
        l.record(
            b,
            Hop::BrassProcess,
            ms(9),
            HopOutcome::Dropped(DropReason::LanguageFilter),
        );
        assert_eq!(
            l.drop_of(a),
            Some((Hop::PylonPublish, DropReason::NoSubscribers))
        );
        assert_eq!(
            l.drop_of(b),
            Some((Hop::BrassProcess, DropReason::LanguageFilter))
        );
        assert_eq!(
            l.drop_table(),
            vec![
                (Hop::PylonPublish, DropReason::NoSubscribers, 1),
                (Hop::BrassProcess, DropReason::LanguageFilter, 1),
            ]
        );
        assert_eq!(l.total_drops(), 2);
        assert!(!l.is_delivered(a));
        assert!(l.unaccounted().is_empty());
    }

    #[test]
    fn unaccounted_finds_in_flight_traces() {
        let mut l = TraceLedger::new();
        let t = TraceId(3);
        l.record(t, Hop::TaoCommit, ms(0), HopOutcome::Ok);
        l.record(t, Hop::PylonPublish, ms(4), HopOutcome::Ok);
        assert_eq!(l.unaccounted(), vec![t]);
    }

    #[test]
    fn backfill_marks_trace_recovered() {
        let mut l = TraceLedger::new();
        let t = TraceId(4);
        l.record(t, Hop::TaoCommit, ms(0), HopOutcome::Ok);
        l.record(
            t,
            Hop::BurstDeliver,
            ms(8),
            HopOutcome::Dropped(DropReason::LastMileLoss),
        );
        assert!(!l.is_backfilled(t));
        l.record(t, Hop::WasBackfill, ms(30), HopOutcome::Ok);
        assert!(l.is_backfilled(t));
        assert_eq!(l.backfilled_count(), 1);
        assert!(l.unaccounted().is_empty());
        let text = l.format_chain(t);
        assert!(text.contains("recovered via was_backfill"));
    }

    #[test]
    fn slowest_orders_descending() {
        let mut l = TraceLedger::new();
        for (id, e2e) in [(1u64, 50u64), (2, 200), (3, 120)] {
            let t = TraceId(id);
            l.record(t, Hop::TaoCommit, ms(0), HopOutcome::Ok);
            l.record(t, Hop::DeviceRender, ms(e2e), HopOutcome::Ok);
        }
        let slowest = l.slowest(2);
        assert_eq!(
            slowest,
            vec![
                (TraceId(2), SimDuration::from_millis(200)),
                (TraceId(3), SimDuration::from_millis(120)),
            ]
        );
        assert_eq!(l.slowest(10).len(), 3);
    }

    #[test]
    fn format_chain_renders_outcomes() {
        let mut l = TraceLedger::new();
        let t = TraceId(9);
        l.record(t, Hop::TaoCommit, ms(1), HopOutcome::Ok);
        l.record(
            t,
            Hop::PylonPublish,
            ms(2),
            HopOutcome::Dropped(DropReason::NoSubscribers),
        );
        let text = l.format_chain(t);
        assert!(text.contains("tao_commit"));
        assert!(text.contains("no_subscribers"));
        assert!(text.contains("dropped at pylon_publish"));
        assert!(!text.contains('×'), "no run, no count: {text}");
        assert_eq!(l.format_chain(TraceId(999)), "t999: no records");
    }

    /// A run of identical drops renders as one line with its count, in
    /// both retentions, while `chain` still lists every record.
    #[test]
    fn format_chain_folds_runs() {
        let overflow = HopOutcome::Dropped(DropReason::BufferOverflow);
        for mut l in [TraceLedger::new(), bounded(16)] {
            let (t, other) = (TraceId(1), TraceId(2));
            l.record(t, Hop::TaoCommit, ms(1), HopOutcome::Ok);
            l.record_n(t, Hop::BrassProcess, ms(4), overflow, 3);
            // Another trace in between does not split the chain's run.
            l.record(other, Hop::TaoCommit, ms(4), HopOutcome::Ok);
            l.record_n(t, Hop::BrassProcess, ms(4), overflow, 2);
            l.record(t, Hop::BrassProcess, ms(5), overflow);
            assert_eq!(l.chain(t).len(), 7);
            let text = l.format_chain(t);
            assert_eq!(text.lines().count(), 5, "{text}");
            assert!(text.contains("buffer_overflow  (+3.000ms)  ×5\n"), "{text}");
            assert!(text.contains("buffer_overflow  (+1.000ms)\n"), "{text}");
        }
    }

    #[test]
    fn ledgers_compare_equal_iff_same_history() {
        let build = |shift: u64| {
            let mut l = TraceLedger::new();
            let t = TraceId(1);
            l.record(t, Hop::TaoCommit, ms(shift), HopOutcome::Ok);
            l.record(t, Hop::DeviceRender, ms(shift + 10), HopOutcome::Ok);
            l
        };
        assert_eq!(build(0), build(0));
        assert_ne!(build(0), build(1));
    }

    /// Bounded and full ledgers fed the same history agree on every
    /// accounting query; only raw-record retention differs.
    #[test]
    fn bounded_ledger_accounts_like_full() {
        let mut full = TraceLedger::new();
        let mut bounded = bounded(4);
        for l in [&mut full, &mut bounded] {
            for id in 0..10u64 {
                let t = TraceId(id);
                l.record(t, Hop::TaoCommit, ms(id), HopOutcome::Ok);
                l.record(t, Hop::PylonPublish, ms(id + 2), HopOutcome::Ok);
                if id % 3 == 0 {
                    l.record(
                        t,
                        Hop::BurstDeliver,
                        ms(id + 5),
                        HopOutcome::Dropped(DropReason::LastMileLoss),
                    );
                    l.record(t, Hop::WasBackfill, ms(id + 40), HopOutcome::Ok);
                } else {
                    l.record(t, Hop::DeviceRender, ms(id + 7), HopOutcome::Ok);
                }
            }
        }
        assert_eq!(full.trace_count(), bounded.trace_count());
        assert_eq!(full.trace_ids(), bounded.trace_ids());
        assert_eq!(full.delivered_count(), bounded.delivered_count());
        assert_eq!(full.backfilled_count(), bounded.backfilled_count());
        assert_eq!(full.drop_table(), bounded.drop_table());
        assert_eq!(full.hop_summaries(), bounded.hop_summaries());
        assert_eq!(full.e2e_histogram(), bounded.e2e_histogram());
        assert_eq!(full.unaccounted(), bounded.unaccounted());
        for id in 0..10u64 {
            let t = TraceId(id);
            assert_eq!(full.is_delivered(t), bounded.is_delivered(t));
            assert_eq!(full.drop_of(t), bounded.drop_of(t));
            assert_eq!(full.is_backfilled(t), bounded.is_backfilled(t));
        }
        // Raw history: full keeps everything, bounded its last four.
        assert_eq!(full.records().count(), 34);
        let kept: Vec<HopRecord> = full.records().skip(30).collect();
        assert!(bounded.records().eq(kept));
        assert_eq!(bounded.records().last().unwrap().trace_id, TraceId(9));
        // Trace 9 was backfilled, so the last four hold no delivery.
        assert_eq!(full.deliveries().count(), 6);
        assert_eq!(bounded.deliveries().count(), 0);
    }

    /// Satellite: the rolling fingerprint must not depend on retention —
    /// a bounded ring that wrapped many times still hashes every record it
    /// ever saw, identically to a full ledger.
    #[test]
    fn fingerprint_identical_bounded_vs_full_across_ring_wrap() {
        let mut full = TraceLedger::new();
        let mut bounded = bounded(3); // wraps dozens of times
        for l in [&mut full, &mut bounded] {
            for id in 0..100u64 {
                let t = TraceId(id);
                l.record(t, Hop::TaoCommit, ms(id), HopOutcome::Ok);
                l.record(t, Hop::PylonPublish, ms(id + 1), HopOutcome::Ok);
                if id % 4 == 0 {
                    l.record(
                        t,
                        Hop::BrassProcess,
                        ms(id + 2),
                        HopOutcome::Dropped(DropReason::QualityFilter),
                    );
                } else {
                    l.record(t, Hop::DeviceRender, ms(id + 3), HopOutcome::Ok);
                }
            }
        }
        assert_eq!(bounded.records().count(), 3);
        assert_eq!(full.fingerprint(), bounded.fingerprint());
        // And the fingerprint is history-sensitive, not just a count.
        let mut other = TraceLedger::new();
        for id in 0..100u64 {
            let t = TraceId(id);
            other.record(t, Hop::TaoCommit, ms(id), HopOutcome::Ok);
            other.record(t, Hop::PylonPublish, ms(id + 1), HopOutcome::Ok);
            other.record(t, Hop::DeviceRender, ms(id + 3), HopOutcome::Ok);
        }
        assert_ne!(full.fingerprint(), other.fingerprint());
    }

    /// Snapshot round-trip in both retention modes: the restored ledger
    /// compares equal, answers queries identically, and keeps producing
    /// the same fingerprint stream as the original when both are fed
    /// identical further records.
    #[test]
    fn snapshot_roundtrip_both_retentions() {
        for retention in [Retention::Full, Retention::Bounded(5)] {
            let mut l = TraceLedger::with_retention(retention);
            for id in 0..20u64 {
                let t = TraceId(id);
                l.record(t, Hop::TaoCommit, ms(id), HopOutcome::Ok);
                if id % 3 == 0 {
                    l.record(
                        t,
                        Hop::BurstDeliver,
                        ms(id + 5),
                        HopOutcome::Dropped(DropReason::LastMileLoss),
                    );
                } else {
                    l.record(t, Hop::DeviceRender, ms(id + 7), HopOutcome::Ok);
                }
            }
            let mut w = crate::snap::SnapWriter::new();
            l.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = crate::snap::SnapReader::new(&bytes);
            let mut restored = TraceLedger::restore(&mut r).expect("restore");
            r.finish().expect("no trailing bytes");
            assert_eq!(restored, l);
            assert_eq!(restored.fingerprint(), l.fingerprint());
            l.record(TraceId(999), Hop::TaoCommit, ms(500), HopOutcome::Ok);
            restored.record(TraceId(999), Hop::TaoCommit, ms(500), HopOutcome::Ok);
            assert_eq!(restored.fingerprint(), l.fingerprint());
            // Truncation never yields a partial ledger.
            for n in 0..bytes.len() {
                let mut r = crate::snap::SnapReader::new(&bytes[..n]);
                assert!(TraceLedger::restore(&mut r)
                    .and_then(|_| r.finish())
                    .is_err());
            }
        }
    }

    /// `n` rounds of three single-word steps, the definition the closed
    /// form has to meet.
    fn stepped(mut fp: LedgerFp, words: [u64; 3], n: u64) -> LedgerFp {
        for _ in 0..n {
            words.iter().for_each(|&w| fp.mix(w));
        }
        fp
    }

    fn run(mut fp: LedgerFp, [trace, at, code]: [u64; 3], n: u32) -> LedgerFp {
        fp.mix_record(trace, at, code, n);
        fp
    }

    #[test]
    fn fingerprint_run_closed_form_equals_iterated_steps() {
        let mut rng = crate::rng::DetRng::new(30);
        let mut start = LedgerFp::new();
        start.mix(17);
        let words = [41, 9_123_457, 5 << 8 | 6];
        let random = (0..8).map(|_| rng.below(100_000) as u32 + 1);
        for n in [0, 1, 2, 3, 63, 64, 65, 1000].into_iter().chain(random) {
            let want = stepped(start, words, u64::from(n));
            assert_eq!(run(start, words, n), want, "n = {n}");
        }
        // Words at or above p enter reduced, in both forms (2^64 − 1 is
        // 8p + 7).
        let big = [u64::MAX, P, P + 5];
        assert_eq!(run(start, big, 3), stepped(start, big, 3));
        assert_eq!(run(start, big, 1), run(start, [7, 0, 5], 1));
        assert!(LedgerFp::new().value() < P && LedgerFp::new().value() != 0);
    }

    /// Two back-to-back runs of one record are one run of their total, up
    /// to the longest run `record_n` takes, which also shows the step is
    /// O(log n): u32::MAX single steps would be ~1.3·10¹⁰ word mixes.
    #[test]
    fn fingerprint_runs_split_anywhere() {
        let drop = HopOutcome::Dropped(DropReason::BufferOverflow);
        let mut rng = crate::rng::DetRng::new(31);
        let mut totals = vec![2, 1 << 20, u32::MAX];
        totals.extend((0..6).map(|_| rng.below(u64::from(u32::MAX - 1)) as u32 + 2));
        for total in totals {
            let a = rng.below(u64::from(total - 1)) as u32 + 1;
            let mut whole = TraceLedger::new();
            let mut split = TraceLedger::new();
            for l in [&mut whole, &mut split] {
                l.record(TraceId(1), Hop::TaoCommit, ms(1), HopOutcome::Ok);
            }
            whole.record_n(TraceId(1), Hop::BrassProcess, ms(4), drop, total);
            split.record_n(TraceId(1), Hop::BrassProcess, ms(4), drop, a);
            split.record_n(TraceId(1), Hop::BrassProcess, ms(4), drop, total - a);
            assert_eq!(
                split.fingerprint(),
                whole.fingerprint(),
                "{a} + {}",
                total - a
            );
            assert!(split == whole);
            assert_eq!(whole.total_drops(), u64::from(total));
        }
    }

    /// Any one field of one record, or one run's length by ±1, moves the
    /// fingerprint of a 10 k-record history.
    #[test]
    fn fingerprint_sees_every_field_and_count() {
        let mut rng = crate::rng::DetRng::new(32);
        let history: Vec<([u64; 3], u32)> = (0..10_000)
            .map(|_| {
                let words = [rng.below(50), rng.below(1 << 40), rng.below(1 << 11)];
                (words, [1, 1, 2, 300][rng.index(4)])
            })
            .collect();
        let fp = |h: &[([u64; 3], u32)]| h.iter().fold(LedgerFp::new(), |f, &(w, n)| run(f, w, n));
        let base = fp(&history);
        let mut probes: Vec<usize> = (0..60).map(|_| rng.index(history.len())).collect();
        probes.extend([0, history.len() - 1]);
        for i in probes {
            for field in 0..3 {
                let mut h = history.clone();
                h[i].0[field] ^= 1 << rng.below(11);
                assert_ne!(fp(&h), base, "record {i}, field {field}");
            }
            for n in [history[i].1 - 1, history[i].1 + 1] {
                let mut h = history.clone();
                h[i].1 = n;
                assert_ne!(fp(&h), base, "record {i}, count {n}");
            }
        }
    }

    #[test]
    fn fingerprint_restore_rejects_words_outside_the_field() {
        let load = |v: u64| {
            let bytes = v.to_le_bytes();
            LedgerFp::restore(&mut crate::snap::SnapReader::new(&bytes))
        };
        assert_eq!(load(P - 1), Ok(LedgerFp(P - 1)));
        assert_eq!(load(0), Ok(LedgerFp(0)));
        for v in [P, P + 1, 1 << 62, u64::MAX] {
            assert!(load(v).is_err(), "{v:#x}");
        }
    }

    /// A ledger with a hand-edited store or accounting state, snapshotted
    /// and restored.
    fn reload(l: &TraceLedger) -> SnapResult<TraceLedger> {
        let mut w = crate::snap::SnapWriter::new();
        l.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes);
        TraceLedger::restore(&mut r).and_then(|l| r.finish().map(|()| l))
    }

    /// `l`'s store rebuilt from its runs after `edit`, run for run.
    fn recode(l: &mut TraceLedger, edit: &dyn Fn(&mut Vec<Run>)) {
        let mut runs: Vec<Run> = l.store.runs().collect();
        edit(&mut runs);
        l.store = RunStore::default();
        runs.into_iter().for_each(|run| l.store.append(run));
    }

    /// Restore accepts only stores a ledger reaches: every rejection below
    /// is of bytes that differ from a reachable ledger's in one field.
    #[test]
    fn restore_rejects_stores_no_ledger_reaches() {
        let overflow = HopOutcome::Dropped(DropReason::BufferOverflow);
        let build = |retention| {
            let mut l = TraceLedger::with_retention(retention);
            l.record(TraceId(1), Hop::TaoCommit, ms(1), HopOutcome::Ok);
            l.record_n(TraceId(1), Hop::BrassProcess, ms(4), overflow, 5);
            l.record(TraceId(2), Hop::TaoCommit, ms(6), HopOutcome::Ok);
            l.record(TraceId(1), Hop::DeviceRender, ms(9), HopOutcome::Ok);
            l
        };
        for retention in [Retention::Full, Retention::Bounded(8)] {
            let l = build(retention);
            assert_eq!(reload(&l), Ok(l.clone()));
            let edited = |edit: &dyn Fn(&mut TraceLedger)| {
                let mut bad = l.clone();
                edit(&mut bad);
                reload(&bad)
            };
            let runs_edited = |edit: &dyn Fn(&mut Vec<Run>)| edited(&|b| recode(b, edit));
            assert!(
                runs_edited(&|runs| runs.last_mut().unwrap().count = 0).is_err(),
                "zero count"
            );
            // The run of five, written as two and three.
            let split = |runs: &mut Vec<Run>| {
                let at = runs.iter().position(|r| r.count == 5).unwrap();
                runs[at].count = 2;
                runs.insert(
                    at,
                    Run {
                        count: 3,
                        ..runs[at]
                    },
                );
            };
            assert!(runs_edited(&split).is_err(), "adjacent identical runs");
            let stateless = |b: &mut TraceLedger| {
                b.states.remove(&TraceId(2));
            };
            assert!(edited(&stateless).is_err(), "a trace with no state");
            assert!(
                runs_edited(&|runs| runs.last_mut().unwrap().at = ms(10)).is_err(),
                "after its last record"
            );
            // A trace's records need not come in time order: only its
            // newest stored run is tied to its `last_at`.
            assert!(
                runs_edited(&|runs| runs[1].at = ms(3)).is_ok(),
                "a middle run"
            );
            // A full store holds each trace's first record, and a record
            // of every trace.
            let late = |b: &mut TraceLedger| {
                b.states.get_mut(&TraceId(1)).unwrap().first_at = ms(2);
            };
            let ghost = |b: &mut TraceLedger| {
                let st = b.states[&TraceId(2)];
                b.states.insert(TraceId(3), st);
            };
            let full = retention == Retention::Full;
            assert_eq!(edited(&late).is_err(), full, "{retention:?}: first_at");
            assert_eq!(
                edited(&ghost).is_err(),
                full,
                "{retention:?}: a trace with no run"
            );
        }
        let over = |b: &mut TraceLedger| b.retention = Retention::Bounded(7);
        let mut bounded = build(Retention::Bounded(8));
        over(&mut bounded);
        assert!(
            reload(&bounded).is_err(),
            "eight records under a cap of seven"
        );
        // Runs split at u32::MAX, as `record_n` leaves them, are canonical.
        let mut full = TraceLedger::new();
        full.record(TraceId(1), Hop::TaoCommit, ms(1), HopOutcome::Ok);
        full.record_n(TraceId(1), Hop::BrassProcess, ms(4), overflow, u32::MAX);
        full.record_n(TraceId(1), Hop::BrassProcess, ms(4), overflow, 2);
        assert_eq!(
            full.runs().map(|(_, n)| n).collect::<Vec<_>>(),
            [1, u32::MAX, 2]
        );
        assert_eq!(reload(&full), Ok(full));
    }

    /// A bounded store splits its oldest run when the cap falls inside it.
    #[test]
    fn bounded_store_splits_its_oldest_run() {
        let overflow = HopOutcome::Dropped(DropReason::BufferOverflow);
        let mut l = bounded(4);
        l.record(TraceId(1), Hop::TaoCommit, ms(1), HopOutcome::Ok);
        l.record_n(TraceId(1), Hop::BrassProcess, ms(4), overflow, 5);
        assert_eq!(l.runs().map(|(_, n)| n).collect::<Vec<_>>(), [4]);
        l.record(TraceId(1), Hop::DeviceRender, ms(9), HopOutcome::Ok);
        assert_eq!(l.runs().map(|(_, n)| n).collect::<Vec<_>>(), [3, 1]);
        assert!(l
            .deliveries()
            .eq([(TraceId(1), SimDuration::from_millis(8))]));
        l.record_n(TraceId(2), Hop::TaoCommit, ms(9), HopOutcome::Ok, u32::MAX);
        assert_eq!(l.runs().map(|(_, n)| n).collect::<Vec<_>>(), [4]);
        assert_eq!(reload(&l), Ok(l.clone()));
        let mut empty = bounded(0);
        empty.record(TraceId(1), Hop::TaoCommit, ms(1), HopOutcome::Ok);
        assert_eq!(empty.runs().count(), 0);
        assert_eq!(empty.trace_count(), 1, "the accounting keeps the trace");
    }

    /// Runs of three records each, the first 2 of every 7 a repeat of the
    /// run before it at a split, the rest of rising, falling and extreme
    /// traces and instants, so the deltas take every sign and width.
    fn block_stream(n: usize) -> Vec<Run> {
        const HOPS: [Hop; 8] = [
            Hop::TaoCommit,
            Hop::PylonPublish,
            Hop::PylonDeliver,
            Hop::BrassProcess,
            Hop::BrassSend,
            Hop::BurstDeliver,
            Hop::DeviceRender,
            Hop::WasBackfill,
        ];
        let outcomes = [
            HopOutcome::Ok,
            HopOutcome::Dropped(DropReason::BufferOverflow),
            HopOutcome::Dropped(DropReason::NoAudience),
        ];
        (0..n as u64)
            .map(|i| Run {
                trace_id: TraceId(match i % 5 {
                    0 => u64::MAX - i,
                    1 => i / 3,
                    _ => 1_000 + i * 7 % 97,
                }),
                at: SimTime::from_micros(if i % 11 == 0 { u64::MAX - i } else { i * 1_733 }),
                count: 3,
                hop: HOPS[i as usize % HOPS.len()],
                outcome: outcomes[i as usize % 3],
            })
            .collect()
    }

    /// The runs a store of this retention keeps of `stream` (no two of
    /// which are identical neighbours).
    fn kept(stream: &[Run], cap: usize) -> Vec<Run> {
        let mut left = cap;
        let mut out: Vec<Run> = Vec::new();
        for run in stream.iter().rev() {
            let take = left.min(run.count as usize);
            if take > 0 {
                out.push(Run {
                    count: take as u32,
                    ..*run
                });
            }
            left -= take;
        }
        out.reverse();
        out
    }

    fn fed(retention: Retention, stream: &[Run]) -> TraceLedger {
        let mut l = TraceLedger::with_retention(retention);
        for r in stream {
            l.record_n(r.trace_id, r.hop, r.at, r.outcome, r.count);
        }
        l
    }

    /// A store of several blocks hands back every run as it was appended,
    /// and a bounded one its last `cap` records, for caps that fall on a
    /// block boundary, inside a block's first run and next to both; each
    /// restores to an equal ledger with the same bytes.
    #[test]
    fn store_decodes_across_blocks_and_trims_inside_them() {
        let per_block = BLOCK_RUNS as usize;
        let n = 5 * per_block + 17;
        let stream = block_stream(n);
        let full = fed(Retention::Full, &stream);
        assert!(full.store.runs().eq(stream.iter().copied()));
        assert_eq!(full.store.blocks.len(), 6);
        assert_eq!(full.store.stored, 3 * n);
        assert_eq!(reload(&full), Ok(full.clone()));
        let mut caps = vec![0, 1, 2, 3, 4, 3 * n - 1, 3 * n, 3 * n + 5];
        for k in 0..=5 {
            // The store's first kept run is block k's first.
            let at = 3 * (n - k * per_block);
            caps.extend((at - 4..=at + 4).filter(|&c| c <= 3 * n));
        }
        for cap in caps {
            let l = fed(Retention::Bounded(cap), &stream);
            let want = kept(&stream, cap);
            assert!(l.store.runs().eq(want.iter().copied()), "cap {cap}");
            assert_eq!(l.store.stored, cap.min(3 * n), "cap {cap}");
            assert!(l.store.skip < l.store.blocks.front().map_or(1, |b| b.records));
            let restored = reload(&l).expect("restore");
            assert_eq!(restored, l, "cap {cap}");
            let (a, b) = (
                crate::snap::SnapWriter::new(),
                crate::snap::SnapWriter::new(),
            );
            let bytes = |l: &TraceLedger, mut w: crate::snap::SnapWriter| {
                l.snap(&mut w);
                w.into_bytes()
            };
            assert_eq!(bytes(&restored, a), bytes(&l, b), "cap {cap}");
        }
    }

    /// A run of `u32::MAX` records that closes a block is followed by the
    /// rest of its record at the next block's head, in both retentions.
    #[test]
    fn u32_max_splits_straddle_a_block_boundary() {
        let overflow = HopOutcome::Dropped(DropReason::BufferOverflow);
        let mut stream = block_stream(BLOCK_RUNS as usize - 1);
        let last = *stream.last().unwrap();
        let storm = Run {
            trace_id: last.trace_id,
            hop: Hop::BrassProcess,
            outcome: overflow,
            ..last
        };
        let tail = TraceId(77);
        for retention in [Retention::Full, Retention::Bounded(1 << 33)] {
            let mut l = fed(retention, &stream);
            l.record_n(storm.trace_id, storm.hop, storm.at, overflow, u32::MAX - 9);
            l.record_n(storm.trace_id, storm.hop, storm.at, overflow, 15);
            l.record(tail, Hop::TaoCommit, storm.at, HopOutcome::Ok);
            let counts: Vec<u32> = l
                .runs()
                .map(|(_, n)| n)
                .skip(BLOCK_RUNS as usize - 1)
                .collect();
            assert_eq!(counts[..2], [u32::MAX, 6], "{retention:?}");
            assert_eq!(l.store.blocks.len(), 2, "{retention:?}");
            assert_eq!(l.store.blocks[0].runs, BLOCK_RUNS);
            assert_eq!(reload(&l), Ok(l.clone()), "{retention:?}");
        }
        stream.push(Run {
            count: u32::MAX,
            ..storm
        });
        stream.push(Run { count: 6, ..storm });
        // A cap inside the split's second half keeps that half's tail.
        let l = fed(Retention::Bounded(4), &stream);
        assert!(l.runs().map(|(_, n)| n).eq([4]));
        assert_eq!(reload(&l), Ok(l));
    }

    #[test]
    fn bounded_chain_is_partial_but_recent() {
        let mut l = bounded(2);
        let t = TraceId(5);
        l.record(t, Hop::TaoCommit, ms(0), HopOutcome::Ok);
        l.record(t, Hop::PylonPublish, ms(1), HopOutcome::Ok);
        l.record(t, Hop::DeviceRender, ms(2), HopOutcome::Ok);
        let chain = l.chain(t);
        assert_eq!(chain.len(), 2, "the store holds only the last two records");
        assert_eq!(chain[1].hop, Hop::DeviceRender);
        assert!(l.is_delivered(t), "accounting survives eviction");
    }
}
