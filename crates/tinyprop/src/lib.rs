//! A small, dependency-free property-testing harness exposing the subset
//! of the `proptest` API this workspace uses.
//!
//! The build environment for this repository has no access to crates.io,
//! so the real `proptest` crate cannot be resolved. This shim is vendored
//! in-tree and wired up under the dependency name `proptest` (see the
//! workspace `Cargo.toml`), which lets the existing
//! `use proptest::prelude::*` test suites compile and run unchanged.
//!
//! Semantics: each `proptest!` test runs `ProptestConfig::cases` cases
//! with inputs drawn from the given strategies using a deterministic
//! per-test RNG (seeded from the test name, so runs are reproducible).
//! There is no shrinking; on failure the case index and RNG state are
//! printed so the exact inputs can be regenerated.

#![forbid(unsafe_code)]

use core::marker::PhantomData;

// =====================================================================
// Deterministic RNG (SplitMix64)
// =====================================================================

/// The deterministic RNG driving strategy sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary string (FNV-1a), so each test gets a
    /// stable, distinct stream.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The raw RNG state (printed on failure for reproduction).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next 64 uniformly distributed bits (SplitMix64).
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty sampling range");
        // Multiply-shift bounded sampling; bias is negligible for test use.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

// =====================================================================
// Strategy core
// =====================================================================

/// A source of generated values (the proptest `Strategy` trait, reduced
/// to direct sampling — no shrinking).
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        (**self).sample(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (built by `prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union; panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                (self.start as u64 + rng.below(span)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
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
}

// =====================================================================
// Arbitrary / any
// =====================================================================

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for [u8; 16] {
    fn arbitrary(rng: &mut TestRng) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        out[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
        out
    }
}

/// The strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

/// A strategy producing arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// =====================================================================
// collection / sample modules
// =====================================================================

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Size specification for [`vec()`]: an exact `usize` or a `Range<usize>`
    /// (half-open, like proptest's).
    pub trait IntoSizeRange {
        /// `(min, max_exclusive)` bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max_exclusive: usize,
    }

    /// A vector of `size` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max_exclusive) = size.bounds();
        assert!(min < max_exclusive, "empty vec size range");
        VecStrategy {
            elem,
            min,
            max_exclusive,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max_exclusive - self.min) as u64;
            let len = self.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Sampling helpers (`proptest::sample`).
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An abstract index into a collection of as-yet-unknown size.
    #[derive(Debug, Clone, Copy)]
    pub struct Index {
        raw: u64,
    }

    impl Index {
        /// Resolves the index against a collection of `len` elements.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.raw % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index {
                raw: rng.next_u64(),
            }
        }
    }
}

/// Namespace mirror (`prop::collection`, `prop::sample`).
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

// =====================================================================
// Config + macros
// =====================================================================

/// Per-test configuration (`cases` is the only knob this shim honors).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
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

/// The most common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__tinyprop_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__tinyprop_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __tinyprop_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let state_before = rng.state();
                $(let $pat = $crate::Strategy::sample(&$strategy, &mut rng);)+
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $body
                }));
                if let Err(payload) = outcome {
                    eprintln!(
                        "tinyprop: {} failed at case {}/{} (rng state {:#018x})",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        state_before,
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__tinyprop_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        A(u8),
        B(u16),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![any::<u8>().prop_map(Op::A), any::<u16>().prop_map(Op::B)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 1usize..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..4).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }

        #[test]
        fn oneof_covers_all_arms(ops in prop::collection::vec(op(), 64)) {
            prop_assert_eq!(ops.len(), 64);
        }

        #[test]
        fn index_resolves(idx in any::<prop::sample::Index>(), mut v in prop::collection::vec(any::<u8>(), 1..32)) {
            let i = idx.index(v.len());
            v[i] ^= 0xFF; // in bounds
            prop_assert_ne!(v.len(), 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
