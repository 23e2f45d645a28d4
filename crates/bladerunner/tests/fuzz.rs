//! Fuzz-harness contracts: generator serialization, artifact integrity,
//! and shrinker determinism.
//!
//! Under test: (a) every generated `FaultPlan`/`FuzzCase` survives a
//! snap round-trip **bit-identically** — re-serializing the restored
//! value yields the original bytes, so `.brfuzz` artifacts byte-
//! reproduce under bisect; (b) artifact loading is fail-closed —
//! truncation at every byte boundary and random corruption anywhere in
//! the file yield a clean error, never a panic or a half-built case;
//! (c) the shrinker is deterministic — shrinking the same planted case
//! twice lands on the identical minimum.

use bladerunner::fault::{FaultEpisode, FaultKind, FaultPlan, OracleId, Violation};
use bladerunner::fuzz::{
    decode_artifact, encode_artifact, gen_case, shrink, FuzzCase, RunOptions, ScenarioMix,
};
use simkit::snap::{Snap, SnapReader, SnapWriter};
use simkit::time::{SimDuration, SimTime};

fn snap_bytes<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.snap(&mut w);
    w.into_bytes()
}

fn roundtrip<T: Snap>(bytes: &[u8]) -> T {
    let mut r = SnapReader::new(bytes);
    let value = T::restore(&mut r).expect("restore");
    r.finish().expect("no trailing bytes");
    value
}

/// Property sweep over the generator's own output distribution: for a
/// few hundred seeded cases, the fault plan and the whole case must
/// round-trip through snap to the *same bytes*, not merely an equal
/// value — byte identity is what makes artifacts and bisect handoffs
/// reproducible.
#[test]
fn generated_cases_roundtrip_bit_identically() {
    for seed in 0..300u64 {
        let case = gen_case(seed, 4 + (seed % 60) as u32);

        let plan_bytes = snap_bytes(&case.plan);
        let plan: FaultPlan = roundtrip(&plan_bytes);
        assert_eq!(plan, case.plan, "seed {seed}: plan value drifted");
        assert_eq!(
            snap_bytes(&plan),
            plan_bytes,
            "seed {seed}: plan re-serialization not bit-identical"
        );

        let case_bytes = snap_bytes(&case);
        let restored: FuzzCase = roundtrip(&case_bytes);
        assert_eq!(restored, case, "seed {seed}: case value drifted");
        assert_eq!(
            snap_bytes(&restored),
            case_bytes,
            "seed {seed}: case re-serialization not bit-identical"
        );
    }
}

fn sample_artifact() -> Vec<u8> {
    let case = gen_case(17, 24);
    let violation = Violation::new(
        OracleId::Accounting,
        "trace 42",
        "admitted update with no delivery, attributed drop, or backfill",
    );
    encode_artifact(&case, &violation)
}

/// A pristine artifact decodes to the sealed pair, and re-encoding the
/// decoded pair reproduces the file byte for byte.
#[test]
fn artifact_roundtrip_bit_identical() {
    let sealed = sample_artifact();
    let (case, violation) = decode_artifact(&sealed).expect("pristine artifact decodes");
    assert_eq!(case.seed, 17);
    assert_eq!(violation.oracle, OracleId::Accounting);
    assert_eq!(encode_artifact(&case, &violation), sealed);
}

/// Truncation at EVERY byte boundary must yield a clean error.
#[test]
fn artifact_truncation_at_every_byte_fails_closed() {
    let sealed = sample_artifact();
    decode_artifact(&sealed).expect("pristine artifact decodes");
    for len in 0..sealed.len() {
        let r = decode_artifact(&sealed[..len]);
        assert!(
            r.is_err(),
            "truncation to {len}/{} bytes was accepted",
            sealed.len()
        );
    }
}

/// Random single-byte corruption anywhere — header, body, checksum —
/// must yield a clean error.
#[test]
fn artifact_corruption_fails_closed() {
    let sealed = sample_artifact();
    let mut rng = simkit::rng::DetRng::new(0xB1);
    for _ in 0..300 {
        let pos = rng.index(sealed.len());
        let flip = (rng.below(255) + 1) as u8; // non-zero, so the byte changes
        let mut bad = sealed.clone();
        bad[pos] ^= flip;
        let r = decode_artifact(&bad);
        assert!(r.is_err(), "corruption at byte {pos} (^{flip:#x}) accepted");
    }
}

/// Shrinks a case that fires the test-only oracle, twice: the minimum
/// must be the two-episode trigger (a proxy outage plus a reconnect
/// storm), and the second shrink must land on the identical case — the
/// determinism the checked-in corpus relies on.
fn assert_shrinks_to_planted_minimum(case: &FuzzCase, max_runs: u32) {
    let opts = RunOptions {
        rerun: false,
        planted: true,
    };
    let result = shrink(case, OracleId::Planted, &opts, max_runs);
    assert!(
        result.case.plan.episodes.len() <= 2,
        "seed {}: shrinker left {} episodes",
        case.seed,
        result.case.plan.episodes.len()
    );
    let kinds: Vec<&str> = result
        .case
        .plan
        .episodes
        .iter()
        .map(|e| e.kind.label())
        .collect();
    assert!(
        kinds.contains(&"proxy_outage") && kinds.contains(&"reconnect_storm"),
        "seed {}: minimum lost the planted combo: {kinds:?}",
        case.seed
    );
    let again = shrink(case, OracleId::Planted, &opts, max_runs);
    assert_eq!(again.case, result.case, "shrinking is not deterministic");
}

/// Shrinker self-test at integration scale, on two inputs: a hand-built
/// case that plants the trigger among bystander episodes, and the first
/// generated case that holds the trigger among at least two bystanders —
/// what a campaign would hand the shrinker.
#[test]
fn shrinker_reaches_the_planted_minimum_deterministically() {
    let mut case = gen_case(3, 6);
    case.scenario = ScenarioMix::LiveVideo;
    case.service_us = 0;
    case.mailbox_capacity = 0;
    case.egress_window = 0;
    case.plan = FaultPlan {
        episodes: vec![
            FaultEpisode {
                at: SimTime::from_secs(20),
                kind: FaultKind::BrassCrash {
                    host: 0,
                    down: SimDuration::from_secs(2),
                },
            },
            FaultEpisode {
                at: SimTime::from_secs(30),
                kind: FaultKind::ProxyOutage {
                    proxy: 1,
                    down: SimDuration::from_secs(3),
                },
            },
            FaultEpisode {
                at: SimTime::from_secs(40),
                kind: FaultKind::ReconnectStorm {
                    devices: vec![0, 1, 2],
                },
            },
            FaultEpisode {
                at: SimTime::from_secs(50),
                kind: FaultKind::DeviceFlap {
                    devices: vec![3],
                    flaps: 2,
                    gap: SimDuration::from_secs(1),
                },
            },
        ],
    };
    assert_shrinks_to_planted_minimum(&case, 60);

    let has =
        |case: &FuzzCase, label: &str| case.plan.episodes.iter().any(|e| e.kind.label() == label);
    let generated = (0..500u64)
        .map(|seed| gen_case(seed, 24))
        .find(|c| has(c, "proxy_outage") && has(c, "reconnect_storm") && c.plan.episodes.len() >= 4)
        .expect("some seed under 500 plants the trigger among two bystanders");
    assert_shrinks_to_planted_minimum(&generated, 200);
}
