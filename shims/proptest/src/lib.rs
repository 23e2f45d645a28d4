//! Minimal vendored stand-in for `proptest` (offline build).
//!
//! The build environment cannot reach crates.io, so this workspace ships the
//! subset of the proptest API its tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_filter` /
//! `prop_recursive`, strategies for integer and float ranges, tuples, `Just`,
//! `any::<T>()`, regex-class string patterns, `collection::vec`,
//! `option::of`, the `prop_oneof!` union macro, and the `proptest!` macro.
//!
//! Failing cases are NOT shrunk — the failing input is printed as generated.
//! Each test derives a fixed RNG seed from its own name, so runs are
//! deterministic and reproducible.

pub mod test_runner {
    /// Deterministic splitmix64 generator used for all value generation.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Creates a generator from an explicit seed.
        pub fn seeded(seed: u64) -> Self {
            TestRng(seed ^ 0x9E37_79B9_7F4A_7C15)
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform float in `[0, 1)`.
        pub fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Returns `true` with probability 1/2.
        pub fn bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// FNV-1a hash of a test name, used as its deterministic seed.
    pub fn seed_of(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Per-block configuration: how many cases each property runs.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

pub mod strategy {
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    use crate::string_gen;
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Rejects values failing `f`, regenerating up to a retry cap.
        fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                f,
            }
        }

        /// Builds a recursive strategy: `f` maps a strategy for the inner
        /// level to a strategy for the outer level, nested `depth` times.
        /// The `_desired_size` / `_expected_branch` hints are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let branch = f(strat).boxed();
                strat = Union::new(vec![leaf.clone(), branch]).boxed();
            }
            strat
        }

        /// Type-erases the strategy behind a cheap clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A clonable type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter retry budget exhausted: {}", self.reason);
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Creates a union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Full-range strategy for an [`Arbitrary`] type.
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Creates the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.bool()
        }
    }

    macro_rules! range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(width) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let width = hi.wrapping_sub(lo) as u64;
                    if width == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(width + 1) as $t)
                }
            }
        )*};
    }
    range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + rng.f64() as f32 * (self.end - self.start)
        }
    }

    /// String patterns: a `&str` is a regex-class strategy (see
    /// [`crate::string_gen`] for the supported subset).
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            string_gen::generate(self, rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod collection {
    use std::ops::Range;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for vectors with element strategy `S` and a size range.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// Generates `Vec`s whose length falls in `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<T>` values.
    pub struct OptionStrategy<S>(S);

    /// Generates `None` or `Some` (50/50) of the inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.bool() {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod string_gen {
    //! Generator for the small regex subset used as string strategies:
    //! sequences of literal characters or `[...]` classes (with ranges and
    //! `\n` / `\t` / `\\` / `\"` / `\-` escapes), each optionally followed
    //! by a `{min,max}` repetition, plus `\PC` (any non-control character).

    use crate::test_runner::TestRng;

    enum Atom {
        /// Inclusive character ranges to choose among.
        Class(Vec<(char, char)>),
        /// Any non-control character (`\PC`).
        Printable,
        Literal(char),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other, // \- \" \\ \. etc: the literal itself
        }
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut pieces = Vec::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let lo = if chars[i] == '\\' {
                            i += 1;
                            unescape(chars[i])
                        } else {
                            chars[i]
                        };
                        // `a-z` range (a `-` just before `]` is a literal).
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let hi = if chars[i + 2] == '\\' {
                                i += 1;
                                unescape(chars[i + 2])
                            } else {
                                chars[i + 2]
                            };
                            ranges.push((lo, hi));
                            i += 3;
                        } else {
                            ranges.push((lo, lo));
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in {pattern:?}");
                    i += 1; // consume ']'
                    Atom::Class(ranges)
                }
                '\\' => {
                    i += 1;
                    if chars[i] == 'P' || chars[i] == 'p' {
                        // Unicode property class; only \PC / \pC used here.
                        i += 2;
                        Atom::Printable
                    } else {
                        let c = unescape(chars[i]);
                        i += 1;
                        Atom::Literal(c)
                    }
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Optional {min,max} / {n} repetition.
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated repetition")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().expect("bad repetition min"),
                        hi.parse().expect("bad repetition max"),
                    ),
                    None => {
                        let n = body.parse().expect("bad repetition count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    /// Sample pool for `\PC`: printable ASCII plus a few multibyte chars.
    const PRINTABLE_EXTRA: &[char] = &['é', 'ß', 'λ', 'Ж', '中', '界', '🙂', '∑'];

    fn gen_char(atom: &Atom, rng: &mut TestRng) -> char {
        match atom {
            Atom::Literal(c) => *c,
            Atom::Printable => {
                if rng.below(4) == 0 {
                    PRINTABLE_EXTRA[rng.below(PRINTABLE_EXTRA.len() as u64) as usize]
                } else {
                    char::from_u32(0x20 + rng.below(0x5F) as u32).unwrap()
                }
            }
            Atom::Class(ranges) => {
                let total: u64 = ranges
                    .iter()
                    .map(|&(lo, hi)| (hi as u64).saturating_sub(lo as u64) + 1)
                    .sum();
                let mut pick = rng.below(total.max(1));
                for &(lo, hi) in ranges {
                    let span = (hi as u64) - (lo as u64) + 1;
                    if pick < span {
                        return char::from_u32(lo as u32 + pick as u32).unwrap_or(lo);
                    }
                    pick -= span;
                }
                ranges[0].0
            }
        }
    }

    /// Generates one string matching `pattern`.
    pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let n = if piece.max > piece.min {
                piece.min + rng.below((piece.max - piece.min + 1) as u64) as usize
            } else {
                piece.min
            };
            for _ in 0..n {
                out.push(gen_char(&piece.atom, rng));
            }
        }
        out
    }
}

/// Runs one property over `cases` generated inputs, printing the failing
/// input before propagating a panic.
pub fn run_cases<T: std::fmt::Debug>(
    cases: u32,
    rng: &mut test_runner::TestRng,
    strat: &impl strategy::Strategy<Value = T>,
    mut body: impl FnMut(T),
) {
    for case in 0..cases {
        let value = strat.generate(rng);
        let repr = format!("{value:?}");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(value)));
        if let Err(payload) = result {
            eprintln!("proptest case {case} failed for input: {repr}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Declares property tests. Mirrors proptest's macro:
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u64..100, ys in proptest::collection::vec(any::<u8>(), 0..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($p:pat in $s:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::seeded(
                $crate::test_runner::seed_of(concat!(module_path!(), "::", stringify!($name))),
            );
            let strat = ( $($s,)+ );
            $crate::run_cases(config.cases, &mut rng, &strat, |($($p,)+)| $body);
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seeded(1);
        for _ in 0..1_000 {
            let v = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = (-10i64..10).generate(&mut rng);
            assert!((-10..10).contains(&i));
        }
    }

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = TestRng::seeded(2);
        for _ in 0..500 {
            let s = "[a-z]{1,12}".generate(&mut rng);
            assert!((1..=12).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");

            let t = "[a-zA-Z_][a-zA-Z0-9_]{0,8}".generate(&mut rng);
            assert!(!t.is_empty() && t.len() <= 9, "{t:?}");
            let first = t.chars().next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_', "{t:?}");

            let p = "[ -~]{0,10}".generate(&mut rng);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)), "{p:?}");

            let e = "[a-zA-Z0-9 _\\-\\n\"\\\\]{0,12}".generate(&mut rng);
            assert!(
                e.chars().all(|c| c.is_ascii_alphanumeric()
                    || matches!(c, ' ' | '_' | '-' | '\n' | '"' | '\\')),
                "{e:?}"
            );
        }
    }

    #[test]
    fn oneof_and_recursive_terminate() {
        #[derive(Clone, Debug)]
        enum Tree {
            #[allow(dead_code)]
            Leaf(u64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = prop_oneof![(0u64..5).prop_map(Tree::Leaf), Just(Tree::Leaf(99)),]
            .prop_recursive(3, 24, 4, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        let mut rng = TestRng::seeded(3);
        for _ in 0..500 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_and_runs(x in 0u64..100, mut v in crate::collection::vec(any::<u8>(), 0..8)) {
            v.sort_unstable();
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
        }

        #[test]
        fn option_of_covers_both(o in crate::option::of(0u64..4)) {
            if let Some(v) = o {
                prop_assert!(v < 4);
            }
        }
    }
}
