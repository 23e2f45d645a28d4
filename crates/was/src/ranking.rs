//! Comment-quality ranking.
//!
//! Table 3: a LiveVideoComments update spends ~1,790 ms of its ~2,000 ms WAS
//! latency "on ranking the quality of the comment, so only quality comments
//! reach the BRASSes". We cannot run Facebook's ML model, so this module
//! substitutes a deterministic feature-based scorer whose *score
//! distribution* and *latency cost* stand in for it (see DESIGN.md,
//! substitution table). The scorer is intentionally content-sensitive so
//! that filtering decisions are stable and testable.

use simkit::fxhash::FxHashMap;
/// Latency the ML ranking adds on the WAS, per ranked comment
/// (milliseconds) — Table 3's measured 1,790 ms.
pub const RANKING_LATENCY_MS: u64 = 1_790;

/// WAS handling latency for update requests that skip ranking
/// (milliseconds) — Table 3's "other: 240 ms" row.
pub const NON_RANKED_WAS_LATENCY_MS: u64 = 240;

/// Features extracted from a comment for scoring.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommentFeatures {
    /// Length in characters.
    pub length: usize,
    /// Number of words.
    pub words: usize,
    /// Whether the text looks like repeated spam characters.
    pub spammy: bool,
    /// Whether the author is flagged as a celebrity/verified account.
    pub author_verified: bool,
    /// Author's friend count (log-scaled into the score).
    pub author_friends: u64,
}

impl CommentFeatures {
    /// Extracts features from comment text and author attributes.
    pub fn extract(text: &str, author_verified: bool, author_friends: u64) -> Self {
        let length = text.chars().count();
        let words = text.split_whitespace().count();
        let spammy = is_spammy(text);
        CommentFeatures {
            length,
            words,
            spammy,
            author_verified,
            author_friends,
        }
    }
}

/// Heuristic spam detector: dominated by one repeated character, or empty,
/// or all punctuation.
pub fn is_spammy(text: &str) -> bool {
    let chars: Vec<char> = text.chars().filter(|c| !c.is_whitespace()).collect();
    if chars.is_empty() {
        return true;
    }
    if chars.iter().all(|c| !c.is_alphanumeric()) && chars.len() > 3 {
        return true;
    }
    let mut counts = FxHashMap::default();
    for &c in &chars {
        *counts.entry(c).or_insert(0u32) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    chars.len() >= 6 && (max as f64 / chars.len() as f64) > 0.6
}

/// Scores a comment's quality in `[0, 1]`.
///
/// The model is a hand-rolled logistic over interpretable features plus a
/// small deterministic per-comment jitter, giving a smooth distribution with
/// mass at both tails (so rate-limited ranked buffers have real work to do).
pub fn score(features: &CommentFeatures, salt: u64) -> f64 {
    if features.spammy {
        return 0.0;
    }
    let mut x = -1.2f64;
    // Mid-length comments score best.
    let len = features.length as f64;
    x += 1.6 * (-((len - 60.0) / 60.0).powi(2)).exp();
    // More words (up to a point) signal substance.
    x += 0.35 * (features.words.min(20) as f64).ln_1p();
    if features.author_verified {
        x += 1.2;
    }
    x += 0.12 * (features.author_friends as f64).ln_1p();
    // Deterministic jitter from the salt (models unobserved features).
    let j = splitmix(salt) as f64 / u64::MAX as f64;
    x += 3.0 * (j - 0.5);
    logistic(x)
}

fn logistic(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spam_scores_zero() {
        for text in ["", "aaaaaaaaaa", "!!!!!!", "zzzzzzzz yes"] {
            let f = CommentFeatures::extract(text, false, 100);
            assert_eq!(score(&f, 1), 0.0, "{text:?}");
        }
    }

    #[test]
    fn normal_text_is_not_spam() {
        for text in ["what a great eclipse", "so cool!", "hello there friends"] {
            assert!(!is_spammy(text), "{text:?}");
        }
    }

    #[test]
    fn verified_author_scores_higher() {
        let f_plain = CommentFeatures::extract("interesting observation about totality", false, 50);
        let f_verified =
            CommentFeatures::extract("interesting observation about totality", true, 50);
        assert!(score(&f_verified, 7) > score(&f_plain, 7));
    }

    #[test]
    fn scores_bounded_and_deterministic() {
        for salt in 0..200u64 {
            let f = CommentFeatures::extract("a perfectly ordinary comment here", false, 10);
            let s1 = score(&f, salt);
            let s2 = score(&f, salt);
            assert_eq!(s1, s2);
            assert!((0.0..=1.0).contains(&s1));
        }
    }

    #[test]
    fn score_distribution_has_spread() {
        let f = CommentFeatures::extract("watching the lunar eclipse right now", false, 120);
        let scores: Vec<f64> = (0..1_000).map(|salt| score(&f, salt)).collect();
        let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().cloned().fold(0.0, f64::max);
        assert!(hi - lo > 0.3, "spread {lo}..{hi}");
    }

    #[test]
    fn friends_count_helps() {
        let few = CommentFeatures::extract("thoughtful words about this event", false, 1);
        let many = CommentFeatures::extract("thoughtful words about this event", false, 5_000);
        assert!(score(&many, 3) > score(&few, 3));
    }

    #[test]
    fn latency_constants_match_table3() {
        assert_eq!(RANKING_LATENCY_MS + 210, 2_000);
        assert_eq!(NON_RANKED_WAS_LATENCY_MS, 240);
    }
}
