//! Differential test: a hop ledger that stores runs of identical records
//! must be observably identical to a plain per-record ledger, however the
//! records arrive — one [`TraceLedger::record`] call each, or one
//! [`TraceLedger::record_n`] call per run, with or without a snapshot and
//! restore partway — and in both retention modes. The reference below
//! keeps every record in a `Vec` and recomputes each query from it, a
//! bounded ledger's from the last `cap` records; the fingerprint (three
//! single-word [`LedgerFp::mix`] steps per record, never the closed form
//! for a run) and the run section of the snapshot are rebuilt from that
//! `Vec` too, so neither can drift with the storage.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simkit::metrics::{Histogram, Summary};
use simkit::snap::{Snap, SnapReader, SnapWriter};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{
    DropReason, Hop, HopOutcome, HopRecord, LedgerFp, Retention, TraceId, TraceLedger,
};

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

const REASONS: [DropReason; 14] = [
    DropReason::LanguageFilter,
    DropReason::QualityFilter,
    DropReason::Stale,
    DropReason::PrivacyBlock,
    DropReason::RateLimit,
    DropReason::BufferOverflow,
    DropReason::NotFound,
    DropReason::NoSubscribers,
    DropReason::DeviceDisconnected,
    DropReason::LastMileLoss,
    DropReason::HostDown,
    DropReason::MailboxOverflow,
    DropReason::FlowControl,
    DropReason::NoAudience,
];

/// The per-record ledger: every query answered from the record list.
#[derive(Default)]
struct Reference {
    records: Vec<HopRecord>,
    /// (first, last) record instant per trace.
    times: BTreeMap<TraceId, (SimTime, SimTime)>,
    hops: BTreeMap<Hop, Histogram>,
    e2e: Histogram,
    fp: LedgerFp,
}

impl Reference {
    fn record(&mut self, rec: HopRecord) {
        // The tags are the declaration order of both enums.
        let code = match rec.outcome {
            HopOutcome::Ok => 0,
            HopOutcome::Dropped(reason) => 1 + reason as u64,
        };
        // One record, three single-word steps.
        self.fp.mix(rec.trace_id.0);
        self.fp.mix(rec.at.as_micros());
        self.fp.mix(((rec.hop as u64) << 8) | code);
        // A trace's first record has no predecessor, so no hop latency.
        let first = match self.times.get_mut(&rec.trace_id) {
            Some((first, last)) => {
                let h = self.hops.entry(rec.hop).or_default();
                h.record(rec.at.saturating_since(*last).as_millis_f64());
                *last = rec.at;
                *first
            }
            None => {
                self.times.insert(rec.trace_id, (rec.at, rec.at));
                rec.at
            }
        };
        if (rec.hop, rec.outcome) == (Hop::DeviceRender, HopOutcome::Ok) {
            self.e2e
                .record(rec.at.saturating_since(first).as_millis_f64());
        }
        self.records.push(rec);
    }

    fn drop_table(&self) -> Vec<(Hop, DropReason, u64)> {
        let mut drops: BTreeMap<(Hop, DropReason), u64> = BTreeMap::new();
        for r in &self.records {
            if let HopOutcome::Dropped(reason) = r.outcome {
                *drops.entry((r.hop, reason)).or_default() += 1;
            }
        }
        drops.into_iter().map(|((h, r), n)| (h, r, n)).collect()
    }

    fn unaccounted(&self) -> Vec<TraceId> {
        let accounted = |r: &HopRecord| {
            matches!(
                (r.hop, r.outcome),
                (_, HopOutcome::Dropped(_))
                    | (Hop::DeviceRender | Hop::WasBackfill, HopOutcome::Ok)
            )
        };
        self.times
            .keys()
            .copied()
            .filter(|&t| !self.records.iter().any(|r| r.trace_id == t && accounted(r)))
            .collect()
    }

    /// The records a ledger of this retention still holds.
    fn retained(&self, retention: Retention) -> &[HopRecord] {
        match retention {
            Retention::Full => &self.records,
            Retention::Bounded(cap) => &self.records[self.records.len().saturating_sub(cap)..],
        }
    }

    /// `(trace, end-to-end latency)` of each retained render, in order.
    fn deliveries(&self, retention: Retention) -> Vec<(TraceId, SimDuration)> {
        self.retained(retention)
            .iter()
            .filter(|r| (r.hop, r.outcome) == (Hop::DeviceRender, HopOutcome::Ok))
            .map(|r| (r.trace_id, r.at.saturating_since(self.times[&r.trace_id].0)))
            .collect()
    }
}

/// Folds identical neighbours into `(record, count)` runs.
fn fold(records: &[HopRecord]) -> Vec<(HopRecord, u32)> {
    let mut runs: Vec<(HopRecord, u32)> = Vec::new();
    for &rec in records {
        match runs.last_mut() {
            Some((last, n)) if *last == rec => *n += 1,
            _ => runs.push((rec, 1)),
        }
    }
    runs
}

fn bytes_of(value: &impl Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.snap(&mut w);
    w.into_bytes()
}

/// One generated run: a record, or a copy of the previous run's record,
/// repeated `n` times.
fn runs() -> impl Strategy<Value = Vec<(HopRecord, u32)>> {
    let record = (0..4u64, 0..HOPS.len(), 0..30u64, 0..=REASONS.len() * 2).prop_map(
        |(trace, hop, at, outcome)| HopRecord {
            trace_id: TraceId(trace),
            hop: HOPS[hop],
            at: SimTime::from_millis(at),
            // Half the outcomes are Ok.
            outcome: REASONS
                .get(outcome)
                .map_or(HopOutcome::Ok, |&r| HopOutcome::Dropped(r)),
        },
    );
    // Half the runs are single records.
    let repeats = prop_oneof![Just(1u32), Just(1u32), 2..6u32, 6..40u32];
    proptest::collection::vec((record, any::<bool>(), repeats), 0..60).prop_map(|raw| {
        let mut out: Vec<(HopRecord, u32)> = Vec::new();
        for (rec, again, n) in raw {
            let rec = match out.last() {
                Some(&(prev, _)) if again => prev,
                _ => rec,
            };
            out.push((rec, n));
        }
        out
    })
}

/// Asserts `ledger` answers every query as the reference does.
fn assert_matches(ledger: &TraceLedger, reference: &Reference, label: &str) {
    let retention = ledger.retention();
    let retained = reference.retained(retention);
    assert!(ledger.records().eq(retained.iter().copied()), "{label}");
    // Stored runs are maximal, and expand to the records.
    let runs: Vec<(HopRecord, u32)> = ledger.runs().collect();
    assert_eq!(runs, fold(retained), "{label}");
    for t in reference.times.keys() {
        let chain: Vec<HopRecord> = retained
            .iter()
            .filter(|r| r.trace_id == *t)
            .copied()
            .collect();
        assert_eq!(ledger.chain(*t), chain, "{label}: chain of {t}");
    }
    let mut deliveries = reference.deliveries(retention);
    assert!(
        ledger.deliveries().eq(deliveries.iter().copied()),
        "{label}"
    );
    deliveries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for n in [0, 1, 3, deliveries.len() + 1] {
        let want = &deliveries[..n.min(deliveries.len())];
        assert_eq!(ledger.slowest(n), want, "{label}: slowest {n}");
    }
    assert_eq!(ledger.trace_count(), reference.times.len(), "{label}");
    assert_eq!(ledger.drop_table(), reference.drop_table(), "{label}");
    let summaries: Vec<(Hop, Summary)> = reference
        .hops
        .iter()
        .map(|(h, hist)| (*h, Summary::of(hist)))
        .collect();
    assert_eq!(ledger.hop_summaries(), summaries, "{label}");
    for hop in HOPS {
        let got = ledger.hop_histogram(hop).map(bytes_of);
        let want = reference.hops.get(&hop).map(bytes_of);
        assert_eq!(got, want, "{label}: {hop} histogram bits");
    }
    assert_eq!(
        bytes_of(ledger.e2e_histogram()),
        bytes_of(&reference.e2e),
        "{label}: e2e histogram bits"
    );
    assert_eq!(ledger.unaccounted(), reference.unaccounted(), "{label}");
    assert_eq!(ledger.fingerprint(), reference.fp.value(), "{label}");

    // The snapshot opens with the retained records folded into
    // `(record, count)` runs.
    let bytes = bytes_of(ledger);
    let mut head = SnapWriter::new();
    retention.snap(&mut head);
    fold(retained).snap(&mut head);
    assert!(
        bytes.starts_with(&head.into_bytes()),
        "{label}: run section"
    );
    assert_reloads(ledger, label);
}

/// Snapshot → restore → snapshot gives the same ledger and the same bytes.
fn assert_reloads(ledger: &TraceLedger, label: &str) {
    let bytes = bytes_of(ledger);
    let mut r = SnapReader::new(&bytes);
    let restored = TraceLedger::restore(&mut r).expect("restore");
    r.finish().expect("no trailing bytes");
    assert!(&restored == ledger, "{label}: restore moved the runs");
    assert!(
        bytes_of(&restored) == bytes,
        "{label}: restore not canonical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Record by record or run by run, Full or Bounded, straight through or
    /// restored from a snapshot after the first `cut` runs: every query,
    /// the fingerprint and the snapshot bytes match the per-record
    /// reference, and every way of feeding a ledger snapshots to the same
    /// bytes.
    #[test]
    fn run_ledger_matches_per_record_reference(
        stream in runs(),
        cap in 0..12usize,
        cut in 0..61usize,
    ) {
        let mut reference = Reference::default();
        for &(rec, n) in &stream {
            for _ in 0..n {
                reference.record(rec);
            }
        }
        for retention in [Retention::Full, Retention::Bounded(cap)] {
            let mut one_by_one = TraceLedger::with_retention(retention);
            let mut by_run = TraceLedger::with_retention(retention);
            let mut resumed = TraceLedger::with_retention(retention);
            for (i, &(rec, n)) in stream.iter().enumerate() {
                for _ in 0..n {
                    one_by_one.record(rec.trace_id, rec.hop, rec.at, rec.outcome);
                }
                by_run.record_n(rec.trace_id, rec.hop, rec.at, rec.outcome, n);
                assert_reloads(&by_run, &format!("{retention:?} after {i} runs"));
                if i == cut {
                    let bytes = bytes_of(&resumed);
                    resumed = TraceLedger::restore(&mut SnapReader::new(&bytes)).expect("restore");
                }
                resumed.record_n(rec.trace_id, rec.hop, rec.at, rec.outcome, n);
            }
            assert_matches(&one_by_one, &reference, &format!("{retention:?} record"));
            assert_matches(&by_run, &reference, &format!("{retention:?} record_n"));
            assert_matches(&resumed, &reference, &format!("{retention:?} resumed at {cut}"));
            prop_assert!(one_by_one == by_run);
            prop_assert!(bytes_of(&one_by_one) == bytes_of(&by_run));
            prop_assert!(bytes_of(&resumed) == bytes_of(&by_run));
        }
    }

    /// `record_n(v, n)` leaves a histogram bit for bit where `n` calls to
    /// `record(v)` do — buckets, total, sum, min and max — whatever was
    /// recorded before, for a run of zeros (the ledger's case) and for any
    /// other value.
    #[test]
    fn histogram_record_n_is_bit_exact(
        before in proptest::collection::vec(0.0f64..1e6, 0..20),
        value in prop_oneof![Just(0.0f64), Just(-0.0f64), -5.0f64..1e6],
        n in 0..50u64,
    ) {
        let mut one_by_one = Histogram::new();
        for &v in &before {
            one_by_one.record(v);
        }
        let mut at_once = one_by_one.clone();
        for _ in 0..n {
            one_by_one.record(value);
        }
        at_once.record_n(value, n);
        prop_assert_eq!(bytes_of(&one_by_one), bytes_of(&at_once));
        prop_assert_eq!(one_by_one.count(), at_once.count());
        prop_assert_eq!(one_by_one.mean().to_bits(), at_once.mean().to_bits());
        prop_assert_eq!(one_by_one.min().to_bits(), at_once.min().to_bits());
        prop_assert_eq!(one_by_one.max().to_bits(), at_once.max().to_bits());
    }
}
