//! A deterministic, fast, non-cryptographic hasher (the FxHash algorithm
//! from the Firefox/rustc tradition), vendored so hot-path maps can avoid
//! both SipHash's per-key cost and `RandomState`'s per-process seed.
//!
//! Determinism is the point: the standard library's default hasher is
//! randomly seeded per process, so `HashMap` iteration order varies from
//! run to run, and integer-keyed lookups (topic ids, stream ids, seqs) pay
//! a SipHash round where a multiply would do.
//!
//! # The rule
//!
//! Every table that holds simulation state — anything an event handler
//! reads or writes — is an [`FxHashMap`] / [`FxHashSet`]. A
//! `RandomState` `HashMap`/`HashSet` belongs only in tests, in the
//! `baseline` crate, and in offline analysis that runs after the sim
//! (`bladerunner::fuzz`'s oracles); CI greps for strays.
//!
//! Fx fixes the iteration order per build, not per meaning: it still
//! depends on insertion history and capacity. So behaviour must never read
//! it — iterate a table only through a sorted view (`snap_map`, a
//! collected-and-sorted key list, a `BTreeMap`), as every snapshot,
//! fingerprint and drain in this workspace does.
//!
//! Not DoS-resistant — never use for maps keyed by untrusted external
//! input. Every key in this workspace originates inside the simulation.
//!
//! # Examples
//!
//! ```
//! use simkit::fxhash::FxHashMap;
//!
//! let mut m: FxHashMap<u32, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (a 64-bit truncation of π's golden-ratio cousin
/// used by rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash state: one 64-bit word folded with rotate-xor-multiply.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word) | (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    /// The last step of `FxHasher::add_to_hash` is a
    /// multiply, which only carries entropy upward: keys that step by 2^k
    /// leave the low k bits of the raw state zero, and hashbrown picks the
    /// bucket from the low bits. Rotate the product's top 21 bits — its
    /// best-mixed — down onto them, as rustc-hash 2 does.
    ///
    /// A rotate rather than an xor-fold because most keys here come off a
    /// counter, and consecutive integers times an odd constant land
    /// *more* evenly than random (the property Fibonacci hashing is used
    /// for); a rotate keeps that, any fold that mixes two bit ranges
    /// degrades it to random. Measured on the benchmark's 100 k-entry
    /// queue live set, a two-shift xor fold took `simkit.queue.cancel_ns`
    /// from 5.4 to 12 ns. Why 21: of all 64 amounts it has the best worst
    /// case over the key shapes in the distribution test below (next best
    /// are its neighbours; rustc-hash's 26 drops to 63 % of a random
    /// hash's spread on `(id << 18, sid)` pairs and 75 % on topic
    /// strings). The top seven bits — hashbrown's control tag — become
    /// product bits 36..43, mid-word and mixed.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(21)
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`]; zero-sized, no per-process
/// seed, so two maps built the same way hash identically in every run.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        // The whole point: no per-process randomness.
        let a = FxBuildHasher::default().hash_one(12345u64);
        let b = FxBuildHasher::default().hash_one(12345u64);
        assert_eq!(a, b);
        assert_eq!(hash_one(&"topic"), hash_one(&"topic"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_one(&1u32), hash_one(&2u32));
        assert_ne!(hash_one(&"/LVC/1"), hash_one(&"/LVC/2"));
        // Byte-tail disambiguation: same prefix, different lengths.
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefgh\x00");
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefgh");
        assert_ne!(h1.finish(), h2.finish());
    }

    /// Distinct low-16-bit values among `keys`' hashes — the bits
    /// hashbrown picks a bucket from in a 64 k-slot table.
    fn low16_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let mut seen = vec![false; 1 << 16];
        for k in keys {
            seen[(hash_one(&k) & 0xffff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    #[test]
    fn low_bits_spread_over_workspace_key_shapes() {
        const N: u64 = 1 << 16;
        // N balls into N bins at random fill 1 - 1/e of them.
        let random = N as f64 * (1.0 - (-1.0f64).exp());
        // No key shape may collapse: each reaches 80 % of a random hash's
        // spread. (Not 90 %: no lone rotate gets there on every power-of-
        // two step — the best, this one, bottoms out at 81.6 % on
        // `id << 8` — and the xor-folds that do cost the counter-keyed
        // tables more than they buy; see `finish`.)
        let floor = (random * 0.8) as usize;
        let check = |shape: &str, spread: usize| {
            assert!(
                spread >= floor,
                "{shape}: {spread} distinct low-16 values < {floor}"
            );
        };
        // Counter-allocated keys — device ids, seqs, trace ids, fetch and
        // timer tokens, interned `Topic`s (hashed as their dense u32 id),
        // one device's streams — must beat random outright: that is what
        // a rotate keeps and a fold loses (see `finish`).
        let sequential = [
            ("sequential u64", low16_spread(0..N)),
            ("dense u32", low16_spread(0..N as u32)),
            (
                "(device, sid) deep",
                low16_spread((0..N).map(|i| (7u64, i))),
            ),
        ];
        for (shape, spread) in sequential {
            assert!(
                spread as f64 >= random * 1.2,
                "{shape}: {spread} distinct low-16 values, no better than random"
            );
        }
        // `(device, StreamId)`, many devices x a few streams each (derived
        // `Hash` on a newtype writes the inner integer, so `(u64, u64)` is
        // the same byte stream).
        check(
            "(device, sid) wide",
            low16_spread((0..N).map(|i| (1_000_000 + i / 4, i % 4))),
        );
        // Ids stepped by a power of two, alone and on either side of a
        // pair (a shard's devices are every `pops`-th id): the raw
        // multiply leaves the low k bits zero, which is what `finish`'s
        // rotate is for.
        for k in 0..=20 {
            check(&format!("u64 << {k}"), low16_spread((0..N).map(|i| i << k)));
            check(
                &format!("(u64 << {k}, sid)"),
                low16_spread((0..N).map(|i| (i << k, 1u64))),
            );
            check(
                &format!("(device, u64 << {k})"),
                low16_spread((0..N).map(|i| (3u64, i << k))),
            );
        }
        // App names and topic strings.
        let apps = ["lvc", "typing", "messenger", "active_status", "stories"];
        check(
            "app-name strings",
            low16_spread((0..N).map(|i| format!("{}-{i}", apps[i as usize % apps.len()]))),
        );
        check(
            "topic strings",
            low16_spread((0..N).map(|i| format!("/LVC/{i}"))),
        );
        check(
            "two-level topic strings",
            low16_spread((0..N).map(|i| format!("/TI/{}/{}", i / 7, 1000 + i % 7))),
        );
        // TAO's association key.
        check(
            "(object id, assoc type)",
            low16_spread((0..N).map(|i| (i, "comments".to_owned()))),
        );
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
            s.insert(i * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&617), Some(&1234));
        assert!(s.contains(&999));
        assert!(!s.contains(&1000));
    }
}
