//! Deterministic random number generation.
//!
//! Every experiment in this repository must be reproducible from a seed, so
//! we use a small, self-contained generator rather than an OS-seeded one.
//! [`DetRng`] is a `xoshiro256++` generator (Blackman & Vigna) seeded through
//! SplitMix64, with convenience methods for the value shapes the simulator
//! needs. It also supports cheap [`fork`](DetRng::fork)ing so independent
//! components can carry independent streams derived from one master seed.

/// A deterministic pseudo-random number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Forking lets one master seed drive many components (workload, latency
    /// model, failure injection, …) without their draws interleaving, so
    /// adding draws in one component does not perturb another.
    pub fn fork(&self, stream: u64) -> DetRng {
        // Mix the fork label through SplitMix64 so that consecutive labels
        // yield decorrelated seeds.
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let _ = splitmix64(&mut sm);
        DetRng::new(splitmix64(&mut sm))
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `(0, 1]`, safe to pass to `ln()`.
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's nearly-divisionless bounded sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range() requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// The raw generator state, for snapshotting mid-stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a previously captured [`state`], resuming
    /// the stream exactly where it left off.
    ///
    /// [`state`]: DetRng::state
    pub fn from_state(s: [u64; 4]) -> Self {
        DetRng { s }
    }
}

// The generator's whole state is its four words.
crate::snap_struct!(DetRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated_and_deterministic() {
        let root = DetRng::new(7);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        let mut f1b = root.fork(0);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        let same = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = DetRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_uniform_and_in_bounds() {
        let mut r = DetRng::new(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "count {c}");
        }
    }

    #[test]
    fn range_bounds() {
        let mut r = DetRng::new(9);
        for _ in 0..1_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = DetRng::new(13);
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        assert_ne!(v, orig);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }

    #[test]
    fn state_capture_resumes_stream_exactly() {
        let mut a = DetRng::new(21);
        for _ in 0..1000 {
            a.next_u64();
        }
        let mut b = DetRng::from_state(a.state());
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(17);
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}
