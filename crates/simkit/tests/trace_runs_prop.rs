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
//!
//! A second property feeds streams long enough to fill several of the
//! store's coded blocks, with one run of more than `u32::MAX` records split
//! across a block boundary, and trims them at caps aimed inside a block's
//! first run; its reference works on runs, since it cannot expand that one.

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

/// The run section as a fixed-width writer spells it, field by field:
/// the retention, the run count, then per run its trace (u64), hop (u8),
/// instant (u64 µs), outcome (tag 0, or tag 1 and the reason) and count
/// (u32), all little-endian.
fn fixed_width_runs(retention: Retention, runs: &[(HopRecord, u32)]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    match retention {
        Retention::Full => w.put_u8(0),
        Retention::Bounded(cap) => {
            w.put_u8(1);
            w.put_u64(cap as u64);
        }
    }
    w.put_u64(runs.len() as u64);
    for (rec, n) in runs {
        w.put_u64(rec.trace_id.0);
        w.put_u8(rec.hop as u8);
        w.put_u64(rec.at.as_micros());
        match rec.outcome {
            HopOutcome::Ok => w.put_u8(0),
            HopOutcome::Dropped(reason) => {
                w.put_u8(1);
                w.put_u8(reason as u8);
            }
        }
        w.put_u32(*n);
    }
    w.into_bytes()
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

/// Runs a store codes into one block (`simkit::trace`'s block size). The
/// caps and the long run below aim at its boundaries; under any other
/// size the property still holds, only less pointedly.
const BLOCK_RUNS: usize = 256;

/// A long stream of maximal `(record, count)` runs, one of which, ending
/// block `huge`, holds more than `u32::MAX` records.
fn long_runs() -> impl Strategy<Value = Vec<(HopRecord, u64)>> {
    let record = (0..6u64, 0..HOPS.len(), 0..50u64, 0..=REASONS.len() * 2).prop_map(
        |(trace, hop, at, outcome)| HopRecord {
            trace_id: TraceId(trace),
            hop: HOPS[hop],
            at: SimTime::from_millis(at),
            outcome: REASONS
                .get(outcome)
                .map_or(HopOutcome::Ok, |&r| HopOutcome::Dropped(r)),
        },
    );
    let raw = proptest::collection::vec((record, 1..4u64), 3 * BLOCK_RUNS..5 * BLOCK_RUNS);
    (raw, 1..3usize, 1..20u64).prop_map(|(raw, huge, extra)| {
        let mut runs: Vec<(HopRecord, u64)> = Vec::new();
        for (rec, n) in raw {
            match runs.last_mut() {
                Some((last, total)) if *last == rec => *total += n,
                _ => runs.push((rec, n)),
            }
        }
        // A storm of one trace's drops, split at u32::MAX, whose longer
        // half closes block `huge`. (A drop, not a render: a render's
        // latency enters the e2e histogram's sum once per record.)
        let at = (huge * BLOCK_RUNS - 1).min(runs.len() - 1);
        let storm = HopRecord {
            trace_id: TraceId(99),
            hop: Hop::BrassProcess,
            outcome: HopOutcome::Dropped(DropReason::BufferOverflow),
            ..runs[at].0
        };
        runs[at] = (storm, u64::from(u32::MAX) + extra);
        runs
    })
}

/// `runs` as a full store holds them: a run over `u32::MAX` is split, the
/// full part first.
fn stored(runs: &[(HopRecord, u64)]) -> Vec<(HopRecord, u32)> {
    let mut out = Vec::new();
    for &(rec, mut n) in runs {
        while n > 0 {
            let part = n.min(u64::from(u32::MAX));
            out.push((rec, part as u32));
            n -= part;
        }
    }
    out
}

/// Identical neighbours added up, so stores that split a record's run at
/// different points compare by what they hold.
fn totals(runs: impl Iterator<Item = (HopRecord, u32)>) -> Vec<(HopRecord, u64)> {
    let mut out: Vec<(HopRecord, u64)> = Vec::new();
    for (rec, n) in runs {
        match out.last_mut() {
            Some((last, total)) if *last == rec => *total += u64::from(n),
            _ => out.push((rec, u64::from(n))),
        }
    }
    out
}

/// The last `cap` records of `runs`, as `(record, total)` runs.
fn last_records(runs: &[(HopRecord, u32)], cap: u64) -> Vec<(HopRecord, u64)> {
    let mut left = cap;
    let mut kept = Vec::new();
    for &(rec, n) in runs.iter().rev() {
        let take = left.min(u64::from(n));
        if take > 0 {
            kept.push((rec, take as u32));
        }
        left -= take;
    }
    kept.reverse();
    totals(kept.into_iter())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over several coded blocks, a full store hands back every run, the
    /// one past `u32::MAX` split across a block boundary; a bounded store
    /// trimmed to a cap that falls on a block's first run, or inside it,
    /// or anywhere, holds exactly the last `cap` records, split only where
    /// a run is full. Either way the snapshot's run section is the one a
    /// fixed-width writer spells, and the restore is equal to the live,
    /// front-trimmed ledger and snapshots to the same bytes.
    #[test]
    fn long_stores_trim_inside_blocks_and_restore(
        stream in long_runs(),
        into in 0..4u64,
        anywhere in any::<u64>(),
    ) {
        let full_runs = stored(&stream);
        let suffix = |from: usize| -> u64 {
            full_runs[from..].iter().map(|&(_, n)| u64::from(n)).sum()
        };
        let total = suffix(0);
        let mut caps: Vec<u64> = (0..full_runs.len())
            .step_by(BLOCK_RUNS)
            .flat_map(|first| {
                let n = u64::from(full_runs[first].1);
                [suffix(first), suffix(first) - into % n]
            })
            .collect();
        caps.extend([0, 1, total, anywhere % total]);
        let retentions = caps.into_iter().map(|cap| Retention::Bounded(cap as usize));
        for retention in std::iter::once(Retention::Full).chain(retentions) {
            let mut ledger = TraceLedger::with_retention(retention);
            for &(rec, n) in &stream {
                // A long run comes in two calls, the first short of the split.
                let first = n.min(u64::from(u32::MAX) - 7);
                ledger.record_n(rec.trace_id, rec.hop, rec.at, rec.outcome, first as u32);
                if n > first {
                    let rest = (n - first) as u32;
                    ledger.record_n(rec.trace_id, rec.hop, rec.at, rec.outcome, rest);
                }
            }
            let runs: Vec<(HopRecord, u32)> = ledger.runs().collect();
            match retention {
                Retention::Full => prop_assert_eq!(&runs, &full_runs),
                Retention::Bounded(cap) => {
                    let want = last_records(&full_runs, cap as u64);
                    prop_assert_eq!(totals(runs.iter().copied()), want, "{:?}", retention);
                    for pair in runs.windows(2) {
                        prop_assert!(pair[0].0 != pair[1].0 || pair[0].1 == u32::MAX);
                    }
                }
            }
            let bytes = bytes_of(&ledger);
            prop_assert!(
                bytes.starts_with(&fixed_width_runs(retention, &runs)),
                "{:?}: run section", retention
            );
            let mut r = SnapReader::new(&bytes);
            let restored = TraceLedger::restore(&mut r).expect("restore");
            r.finish().expect("no trailing bytes");
            prop_assert!(restored == ledger, "{:?}: restore moved the runs", retention);
            prop_assert!(bytes_of(&restored) == bytes, "{:?}: restore not canonical", retention);
        }
    }
}
