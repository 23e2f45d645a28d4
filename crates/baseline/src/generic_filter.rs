//! The generic configurable-filtering pub/sub that failed (§2).
//!
//! "We spent years trying to implement our own generic pub/sub system with
//! more complex server-side processing capabilities … We found that we had
//! to add more and more configuration parameters as new applications were
//! onboarded, causing the space of configuration parameters to grow
//! exponentially … some configuration parameters had complex interactions.
//! Consider the interaction between rate-limiting and privacy checks …
//! with privacy checking after rate-limiting, the end-user may get fewer
//! messages than intended."
//!
//! This module implements that system honestly — AND/OR filter trees,
//! per-topic config knobs, an (implicitly ordered!) processing pipeline —
//! so `paper ablations` can demonstrate both failure modes: the
//! configuration-space explosion and the rate-limit/privacy mis-ordering.

use std::collections::HashMap;

/// A filter predicate over update metadata.
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    /// Quality score at least this value.
    MinQuality(f64),
    /// Language equals.
    LangIs(String),
    /// Author id is not in the viewer's block list (checked via the
    /// supplied closure at evaluation time).
    NotBlocked,
    /// Maximum age in milliseconds.
    MaxAgeMs(u64),
    /// All sub-filters must pass.
    And(Vec<Filter>),
    /// Any sub-filter may pass.
    Or(Vec<Filter>),
}

/// A metadata record the generic system filters on.
#[derive(Clone, Debug)]
pub struct Meta {
    /// Author id.
    pub author: u64,
    /// Quality score.
    pub quality: f64,
    /// Language.
    pub lang: String,
    /// Age at evaluation time (ms).
    pub age_ms: u64,
}

impl Filter {
    /// Evaluates the filter; `blocked` answers "has the viewer blocked this
    /// author?".
    pub fn eval(&self, meta: &Meta, blocked: &dyn Fn(u64) -> bool) -> bool {
        match self {
            Filter::MinQuality(q) => meta.quality >= *q,
            Filter::LangIs(l) => &meta.lang == l,
            Filter::NotBlocked => !blocked(meta.author),
            Filter::MaxAgeMs(a) => meta.age_ms <= *a,
            Filter::And(fs) => fs.iter().all(|f| f.eval(meta, blocked)),
            Filter::Or(fs) => fs.iter().any(|f| f.eval(meta, blocked)),
        }
    }

    /// Counts the knobs (leaf predicates) in this filter tree.
    pub fn knob_count(&self) -> usize {
        match self {
            Filter::And(fs) | Filter::Or(fs) => fs.iter().map(Filter::knob_count).sum(),
            _ => 1,
        }
    }
}

/// Where the privacy check runs relative to rate limiting — the implicit
/// ordering knob whose interaction broke the generic system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrivacyPlacement {
    /// Check privacy on every message, then rate-limit survivors
    /// (correct count, wasteful checks).
    BeforeRateLimit,
    /// Rate-limit first, then privacy-check the selected messages
    /// (cheap, but "the end-user may get fewer messages than intended").
    AfterRateLimit,
}

/// Per-topic configuration in the generic system.
#[derive(Clone, Debug)]
pub struct TopicConfig {
    /// The filter tree.
    pub filter: Filter,
    /// Messages allowed per evaluation window.
    pub rate_limit: usize,
    /// Privacy-check placement.
    pub privacy: PrivacyPlacement,
}

/// Outcome counters from one delivery window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowOutcome {
    /// Messages delivered.
    pub delivered: usize,
    /// Privacy checks executed.
    pub privacy_checks: usize,
}

/// The generic configurable pub/sub engine.
#[derive(Default)]
pub struct GenericFilterEngine {
    configs: HashMap<String, TopicConfig>,
}

impl GenericFilterEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        GenericFilterEngine::default()
    }

    /// Installs a topic configuration.
    pub fn configure(&mut self, topic: &str, config: TopicConfig) {
        self.configs.insert(topic.to_owned(), config);
    }

    /// The total knob count across configurations — the quantity that grew
    /// until the system became "brittle, unwieldy, and unmaintainable".
    pub fn total_knobs(&self) -> usize {
        self.configs
            .values()
            // +2 for rate limit and privacy placement themselves.
            .map(|c| c.filter.knob_count() + 2)
            .sum()
    }

    /// Processes one window of candidate messages for a viewer.
    pub fn deliver_window(
        &self,
        topic: &str,
        candidates: &[Meta],
        blocked: &dyn Fn(u64) -> bool,
    ) -> WindowOutcome {
        let Some(config) = self.configs.get(topic) else {
            return WindowOutcome::default();
        };
        let mut outcome = WindowOutcome::default();
        let passing: Vec<&Meta> = candidates
            .iter()
            .filter(|m| config.filter.eval(m, &|_| false)) // content filters only
            .collect();
        match config.privacy {
            PrivacyPlacement::BeforeRateLimit => {
                let surviving: Vec<&&Meta> = passing
                    .iter()
                    .filter(|m| {
                        outcome.privacy_checks += 1;
                        !blocked(m.author)
                    })
                    .collect();
                outcome.delivered = surviving.len().min(config.rate_limit);
            }
            PrivacyPlacement::AfterRateLimit => {
                // Select up to the rate limit FIRST, then privacy-check.
                // Blocked selections are dropped without replacement — the
                // under-delivery bug.
                let selected = passing.iter().take(config.rate_limit);
                for m in selected {
                    outcome.privacy_checks += 1;
                    if !blocked(m.author) {
                        outcome.delivered += 1;
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(author: u64, quality: f64) -> Meta {
        Meta {
            author,
            quality,
            lang: "en".into(),
            age_ms: 0,
        }
    }

    fn config(privacy: PrivacyPlacement) -> TopicConfig {
        TopicConfig {
            filter: Filter::And(vec![
                Filter::MinQuality(0.5),
                Filter::Or(vec![
                    Filter::LangIs("en".into()),
                    Filter::LangIs("es".into()),
                ]),
                Filter::MaxAgeMs(10_000),
            ]),
            rate_limit: 3,
            privacy,
        }
    }

    #[test]
    fn filter_trees_evaluate() {
        let f = Filter::And(vec![
            Filter::MinQuality(0.5),
            Filter::Or(vec![
                Filter::LangIs("en".into()),
                Filter::LangIs("fr".into()),
            ]),
        ]);
        let no_blocks = |_: u64| false;
        assert!(f.eval(&meta(1, 0.9), &no_blocks));
        assert!(!f.eval(&meta(1, 0.1), &no_blocks));
        let mut m = meta(1, 0.9);
        m.lang = "de".into();
        assert!(!f.eval(&m, &no_blocks));
    }

    #[test]
    fn not_blocked_filter() {
        let f = Filter::NotBlocked;
        assert!(!f.eval(&meta(7, 1.0), &|a| a == 7));
        assert!(f.eval(&meta(8, 1.0), &|a| a == 7));
    }

    #[test]
    fn privacy_after_rate_limit_underdelivers() {
        // The paper's worked interaction bug, reproduced exactly: with 5
        // passing candidates, a rate limit of 3, and 2 of the first 3
        // authors blocked, the "efficient" ordering delivers only 1
        // message where the user should have received 3.
        let candidates: Vec<Meta> = (0..5).map(|a| meta(a, 0.9)).collect();
        let blocked = |a: u64| a == 0 || a == 1;

        let mut correct = GenericFilterEngine::new();
        correct.configure("/t", config(PrivacyPlacement::BeforeRateLimit));
        let c = correct.deliver_window("/t", &candidates, &blocked);
        assert_eq!(c.delivered, 3, "correct ordering fills the budget");

        let mut cheap = GenericFilterEngine::new();
        cheap.configure("/t", config(PrivacyPlacement::AfterRateLimit));
        let w = cheap.deliver_window("/t", &candidates, &blocked);
        assert_eq!(w.delivered, 1, "mis-ordered pipeline under-delivers");
        assert!(
            w.privacy_checks < c.privacy_checks,
            "…which is why it looked attractive: fewer privacy checks"
        );
    }

    #[test]
    fn knob_count_grows_with_onboarding() {
        let mut engine = GenericFilterEngine::new();
        for i in 0..10 {
            engine.configure(
                &format!("/app{i}"),
                config(PrivacyPlacement::BeforeRateLimit),
            );
        }
        // 4 filter leaves + 2 pipeline knobs per app.
        assert_eq!(engine.total_knobs(), 60);
    }

    #[test]
    fn unconfigured_topic_delivers_nothing() {
        let engine = GenericFilterEngine::new();
        let out = engine.deliver_window("/nope", &[meta(1, 0.9)], &|_| false);
        assert_eq!(out, WindowOutcome::default());
    }
}
