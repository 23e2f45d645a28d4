//! The paper's shape claims as tests: each runs one `paper` catalog entry
//! at the size EXPERIMENTS.md quotes and requires every claim to hold.
//! The three 24-hour figures are too slow for a debug build and run with
//! `cargo test --release -p bench --test paper_shapes -- --ignored`.

use bench::paper;

fn claims_hold(id: &str) {
    let report = paper::figure(id).expect("a catalog entry")();
    assert!(!report.claims.is_empty(), "{id} checks no claim");
    let failed: Vec<String> = report
        .claims
        .iter()
        .filter(|c| !c.holds)
        .map(|c| c.to_string())
        .collect();
    assert!(failed.is_empty(), "{id}: {failed:#?}\n{report}");
}

#[test]
fn table1() {
    claims_hold("table1");
}

#[test]
fn table2() {
    claims_hold("table2");
}

#[test]
fn table3() {
    claims_hold("table3");
}

#[test]
fn fig6() {
    claims_hold("fig6");
}

/// Streaming beating polling, and the heavier poll tail, are not one
/// seed's luck.
#[test]
#[ignore = "nine seeds; run in release"]
fn fig6_across_seeds() {
    for seed in (1..=8).chain([42]) {
        let report = paper::fig6(20, 10, seed);
        for claim in &report.claims {
            assert!(claim.holds, "seed {seed}: {claim}");
        }
    }
}

#[test]
#[ignore = "24 h simulated day; run in release"]
fn fig7() {
    claims_hold("fig7");
}

#[test]
#[ignore = "24 h simulated day; run in release"]
fn fig8() {
    claims_hold("fig8");
}

#[test]
fn fig9() {
    claims_hold("fig9");
}

#[test]
#[ignore = "24 h simulated day; run in release"]
fn fig10() {
    claims_hold("fig10");
}

#[test]
fn headline() {
    claims_hold("headline");
}

/// The ablations are counted, not timed: a second run prints the same
/// bytes, so no wall-clock reading can creep into a claim.
#[test]
fn ablations() {
    claims_hold("ablations");
    let run = paper::figure("ablations").expect("a catalog entry");
    assert_eq!(run().to_string(), run().to_string());
}
