//! A token-bucket rate limiter with header-serialisable state.
//!
//! LiveVideoComments "rate limits each stream to one message every two
//! seconds" (§5). The limiter's state can be exported into a BURST header
//! patch and restored from one — the paper's resumption example: "the state
//! of a rate limiter can be stored in the header so that when a BRASS
//! failure occurs, the resubscribe will include this information and the new
//! servicing BRASS can take this state into account" (§3.5).
//!
//! # Integer refill arithmetic
//!
//! The bucket deliberately does **not** accumulate fractional tokens in
//! floating point. An earlier implementation kept `tokens: f64` and added
//! `elapsed_secs * rate` on every refill; for non-dyadic rates (one token
//! per 2 s is `rate = 0.5`, but one per 3 s is `0.333…`) the products are
//! inexact, so a stream refilled in many small steps could hold
//! `0.99999…` tokens at the exact instant the nominal schedule owed it a
//! whole one — admitting late, and worse, admitting *differently*
//! depending on how the same interval was chopped into refill calls. That
//! breaks both the paper's resumption story (export/restore must not
//! change future decisions) and the simulator's determinism story (the
//! same stream served by different shard interleavings must admit
//! identically).
//!
//! Instead the bucket stores whole tokens plus an integer microsecond
//! accumulator: every `us_per_token` accumulated microseconds mints one
//! token. Floor division distributes over addition
//! (`⌊(a+b)/n⌋ = ⌊a/n⌋ + ⌊(a mod n + b)/n⌋`), so any partition of an
//! elapsed interval into refill calls mints exactly the same tokens, and
//! the accumulator round-trips through a header patch losslessly.

use burst::json::Json;
use simkit::snap::ensure;
use simkit::snap_struct;
use simkit::time::{SimDuration, SimTime};

/// A token bucket: capacity `burst` whole tokens, refilled at
/// `rate_per_sec` (internally: one token per `ceil(1e6 / rate)`
/// microseconds, so the effective rate never exceeds the nominal one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenBucket {
    /// Microseconds of accumulated refill credit per minted token.
    us_per_token: u64,
    /// Capacity in whole tokens.
    burst: u64,
    /// Whole tokens available.
    tokens: u64,
    /// Refill progress toward the next token, in `[0, us_per_token)`;
    /// always zero while the bucket is full (credit does not accrue past
    /// the cap).
    acc_us: u64,
    last_refill: SimTime,
}

// The exact bucket state (unlike the JSON header export, this is the
// internal integer representation verbatim — no float round-trip at all),
// rejecting states `refill` could never produce.
snap_struct!(
    TokenBucket {
        us_per_token,
        burst,
        tokens,
        acc_us,
        last_refill
    },
    |b| {
        ensure(
            b.us_per_token != 0 && b.burst != 0,
            "token bucket: zero quantum or burst",
        )?;
        ensure(
            b.tokens <= b.burst
                && b.acc_us < b.us_per_token
                && (b.tokens < b.burst || b.acc_us == 0),
            "token bucket: inconsistent fill state",
        )
    }
);

impl TokenBucket {
    /// Creates a full bucket. `burst` is truncated to whole tokens (the
    /// bucket admits whole messages).
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0 && rate_per_sec.is_finite());
        assert!(burst >= 1.0 && burst.is_finite());
        let us_per_token = (1_000_000.0 / rate_per_sec).ceil().max(1.0) as u64;
        let burst = burst as u64;
        TokenBucket {
            us_per_token,
            burst,
            tokens: burst,
            acc_us: 0,
            last_refill: SimTime::ZERO,
        }
    }

    /// One message every `interval` with no burst allowance.
    pub fn per_interval(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        TokenBucket {
            us_per_token: interval.as_micros(),
            burst: 1,
            tokens: 1,
            acc_us: 0,
            last_refill: SimTime::ZERO,
        }
    }

    /// Nominal refill rate in tokens per second.
    pub fn rate_per_sec(&self) -> f64 {
        1_000_000.0 / self.us_per_token as f64
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_refill).as_micros();
        self.last_refill = self.last_refill.max(now);
        if elapsed == 0 {
            return;
        }
        self.acc_us += elapsed;
        if self.acc_us >= self.us_per_token {
            let minted = self.acc_us / self.us_per_token;
            self.acc_us %= self.us_per_token;
            self.tokens = self.tokens.saturating_add(minted).min(self.burst);
        }
        if self.tokens == self.burst {
            self.acc_us = 0;
        }
    }

    /// Attempts to consume one token; returns `true` on success.
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Time until a token will be available (zero if one is available now).
    pub fn time_to_available(&mut self, now: SimTime) -> SimDuration {
        self.refill(now);
        if self.tokens >= 1 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.us_per_token - self.acc_us)
        }
    }

    /// Exports the limiter state as a JSON header patch.
    ///
    /// `rl_tokens` carries the fractional-token view for compatibility
    /// and display; `rl_us_per_token` and `rl_acc_us` carry the exact
    /// integer quantum and accumulator so a restore is lossless
    /// mid-refill (re-deriving the quantum from the f64 rate can land
    /// one microsecond off — `ceil(1e6 / (1e6 / n))` is not always `n`
    /// in floating point).
    pub fn to_header(&self) -> Json {
        let fractional = self.tokens as f64 + self.acc_us as f64 / self.us_per_token as f64;
        Json::obj([
            ("rl_rate", Json::from(self.rate_per_sec())),
            ("rl_burst", Json::from(self.burst as f64)),
            ("rl_tokens", Json::from(fractional)),
            ("rl_us_per_token", Json::from(self.us_per_token)),
            ("rl_acc_us", Json::from(self.acc_us)),
            ("rl_at_us", Json::from(self.last_refill.as_micros())),
        ])
    }

    /// Restores limiter state from a header, if present.
    ///
    /// Returns `None` when the header carries no (or malformed) limiter
    /// state — the caller should then start a fresh bucket. Headers
    /// written by older incarnations without `rl_acc_us` restore the
    /// fractional part of `rl_tokens` into the accumulator instead.
    pub fn from_header(header: &Json) -> Option<TokenBucket> {
        let rate = header.get("rl_rate")?.as_num()?;
        let burst = header.get("rl_burst")?.as_num()?;
        let tokens = header.get("rl_tokens")?.as_num()?;
        let at_us = header.get("rl_at_us")?.as_u64()?;
        let well_formed = rate > 0.0
            && rate.is_finite()
            && burst >= 1.0
            && burst.is_finite()
            && (0.0..=burst).contains(&tokens);
        if !well_formed {
            return None;
        }
        let us_per_token = match header.get("rl_us_per_token").and_then(Json::as_u64) {
            Some(us) if us >= 1 => us,
            _ => (1_000_000.0 / rate).ceil().max(1.0) as u64,
        };
        let burst = burst as u64;
        let mut whole = tokens.floor() as u64;
        let mut acc_us = match header.get("rl_acc_us").and_then(Json::as_u64) {
            Some(acc) => acc.min(us_per_token - 1),
            None => ((tokens.fract() * us_per_token as f64).round() as u64).min(us_per_token - 1),
        };
        if whole >= burst {
            whole = burst;
            acc_us = 0;
        }
        Some(TokenBucket {
            us_per_token,
            burst,
            tokens: whole,
            acc_us,
            last_refill: SimTime::from_micros(at_us),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforces_rate() {
        // 1 message per 2 seconds.
        let mut tb = TokenBucket::per_interval(SimDuration::from_secs(2));
        assert!(tb.try_acquire(SimTime::ZERO));
        assert!(!tb.try_acquire(SimTime::from_millis(500)));
        assert!(!tb.try_acquire(SimTime::from_millis(1_900)));
        assert!(tb.try_acquire(SimTime::from_secs(2)));
    }

    #[test]
    fn burst_allowance() {
        let mut tb = TokenBucket::new(1.0, 3.0);
        assert!(tb.try_acquire(SimTime::ZERO));
        assert!(tb.try_acquire(SimTime::ZERO));
        assert!(tb.try_acquire(SimTime::ZERO));
        assert!(!tb.try_acquire(SimTime::ZERO));
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut tb = TokenBucket::new(10.0, 2.0);
        // After a long idle period, only `burst` tokens are available.
        let t = SimTime::from_secs(100);
        assert!(tb.try_acquire(t));
        assert!(tb.try_acquire(t));
        assert!(!tb.try_acquire(t));
    }

    #[test]
    fn time_to_available() {
        let mut tb = TokenBucket::per_interval(SimDuration::from_secs(2));
        assert_eq!(tb.time_to_available(SimTime::ZERO), SimDuration::ZERO);
        tb.try_acquire(SimTime::ZERO);
        let wait = tb.time_to_available(SimTime::ZERO);
        assert!((wait.as_secs_f64() - 2.0).abs() < 0.01, "wait {wait}");
        let wait = tb.time_to_available(SimTime::from_secs(1));
        assert!((wait.as_secs_f64() - 1.0).abs() < 0.01, "wait {wait}");
    }

    #[test]
    fn header_roundtrip_preserves_state() {
        let mut tb = TokenBucket::new(0.5, 2.0);
        tb.try_acquire(SimTime::from_secs(3));
        let header = tb.to_header();
        let restored = TokenBucket::from_header(&header).unwrap();
        assert_eq!(restored, tb);
        // The restored limiter continues enforcing where the old left off.
        let mut a = tb.clone();
        let mut b = restored;
        for s in 4..20 {
            let t = SimTime::from_secs(s);
            assert_eq!(a.try_acquire(t), b.try_acquire(t));
        }
    }

    #[test]
    fn from_header_rejects_missing_or_bad_state() {
        assert!(TokenBucket::from_header(&Json::obj::<&str>([])).is_none());
        let bad = Json::obj([
            ("rl_rate", Json::from(-1.0)),
            ("rl_burst", Json::from(1.0)),
            ("rl_tokens", Json::from(0.5)),
            ("rl_at_us", Json::from(0u64)),
        ]);
        assert!(TokenBucket::from_header(&bad).is_none());
        let overfull = Json::obj([
            ("rl_rate", Json::from(1.0)),
            ("rl_burst", Json::from(1.0)),
            ("rl_tokens", Json::from(5.0)),
            ("rl_at_us", Json::from(0u64)),
        ]);
        assert!(TokenBucket::from_header(&overfull).is_none());
    }

    #[test]
    fn time_never_flows_backwards() {
        let mut tb = TokenBucket::new(1.0, 1.0);
        tb.try_acquire(SimTime::from_secs(10));
        // An out-of-order (earlier) timestamp must not mint tokens.
        assert!(!tb.try_acquire(SimTime::from_secs(5)));
        assert!(tb.try_acquire(SimTime::from_secs(11)));
    }

    #[test]
    fn non_dyadic_rate_admits_exactly_on_schedule() {
        // One token per 3 s: `rate = 1/3` has no exact binary
        // representation, which is precisely where the old f64
        // accumulator drifted (0.333… * 3.0 < 1.0 at t = 3 s when
        // refilled in sub-second steps). The integer bucket admits at
        // t = 3 s regardless of how the interval is chopped up.
        let mut tb = TokenBucket::per_interval(SimDuration::from_secs(3));
        assert!(tb.try_acquire(SimTime::ZERO));
        for ms in (100..3_000).step_by(100) {
            assert!(!tb.try_acquire(SimTime::from_millis(ms)), "at {ms} ms");
        }
        assert!(tb.try_acquire(SimTime::from_secs(3)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Drives the same bucket through a refill at every step time.
        fn steps(start_ms: u64, gaps_ms: &[u64]) -> Vec<SimTime> {
            let mut t = start_ms;
            let mut out = Vec::with_capacity(gaps_ms.len());
            for &g in gaps_ms {
                t += g;
                out.push(SimTime::from_millis(t));
            }
            out
        }

        proptest! {
            /// Over any window, admissions never exceed
            /// `burst + rate * Δt + 1` — the bucket cannot mint credit
            /// out of float error no matter how the window is sliced.
            #[test]
            fn admission_never_exceeds_rate_window(
                interval_ms in 1u64..60_000,
                burst in 1u64..10,
                gaps_ms in proptest::collection::vec(0u64..5_000, 1..200),
            ) {
                let rate = 1_000.0 / interval_ms as f64;
                let mut tb = TokenBucket::new(rate, burst as f64);
                let times = steps(0, &gaps_ms);
                let mut admitted = 0u64;
                for &t in &times {
                    if tb.try_acquire(t) {
                        admitted += 1;
                    }
                }
                let dt_secs = times.last().unwrap().as_micros() as f64 / 1e6;
                let bound = burst as f64 + rate * dt_secs + 1.0;
                prop_assert!(
                    (admitted as f64) <= bound,
                    "admitted {admitted} > bound {bound:.3} over {dt_secs:.3}s",
                );
            }

            /// Minting is independent of how an interval is partitioned
            /// into refill calls: refilling at every intermediate step
            /// ends in exactly the state of one refill at the end.
            #[test]
            fn refill_is_partition_independent(
                interval_ms in 1u64..60_000,
                burst in 1u64..10,
                gaps_ms in proptest::collection::vec(0u64..10_000, 1..100),
            ) {
                let rate = 1_000.0 / interval_ms as f64;
                let mut stepped = TokenBucket::new(rate, burst as f64);
                let mut jumped = stepped.clone();
                // Drain both so refill progress is observable.
                let times = steps(0, &gaps_ms);
                while stepped.try_acquire(SimTime::ZERO) {
                    jumped.try_acquire(SimTime::ZERO);
                }
                for &t in &times {
                    // time_to_available refills without consuming.
                    let _ = stepped.time_to_available(t);
                }
                let _ = jumped.time_to_available(*times.last().unwrap());
                prop_assert_eq!(stepped, jumped);
            }

            /// Export/restore mid-refill is lossless: the restored bucket
            /// is field-identical and makes identical future decisions.
            #[test]
            fn header_roundtrip_is_lossless_mid_refill(
                interval_ms in 1u64..60_000,
                burst in 1u64..10,
                warmup_ms in proptest::collection::vec(0u64..5_000, 0..50),
                probe_ms in proptest::collection::vec(0u64..5_000, 1..50),
            ) {
                let rate = 1_000.0 / interval_ms as f64;
                let mut tb = TokenBucket::new(rate, burst as f64);
                for &t in &steps(0, &warmup_ms) {
                    let _ = tb.try_acquire(t);
                }
                let restored = TokenBucket::from_header(&tb.to_header()).unwrap();
                prop_assert_eq!(&restored, &tb);
                let mut a = tb;
                let mut b = restored;
                let from_ms = a.last_refill.as_micros() / 1_000;
                for &t in &steps(from_ms, &probe_ms) {
                    prop_assert_eq!(a.try_acquire(t), b.try_acquire(t));
                }
            }
        }
    }
}
