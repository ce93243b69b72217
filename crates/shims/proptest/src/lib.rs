//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, implementing the strategy and macro API subset this workspace's
//! test suites use.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports the panic from the raw
//!   generated input (inputs are reproducible: the RNG seed is a pure
//!   function of the test name and case index),
//! * fewer strategies — ranges, tuples, [`Just`], `prop::collection::vec`,
//!   `prop::sample::select`, `prop_map`, `prop_flat_map`,
//! * default case count is 64 (override per block with
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`).

#![forbid(unsafe_code)]

use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Everything a `proptest!` test module needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Per-block configuration for [`proptest!`].
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The type of value produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut SmallRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut SmallRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_strategy_for_int_range!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.random_range(self.clone())
    }
}

impl Strategy for core::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SmallRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_strategy_for_tuple {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_strategy_for_tuple!(A);
impl_strategy_for_tuple!(A, B);
impl_strategy_for_tuple!(A, B, C);
impl_strategy_for_tuple!(A, B, C, D);
impl_strategy_for_tuple!(A, B, C, D, E);
impl_strategy_for_tuple!(A, B, C, D, E, F);

/// Built-in strategy constructors, mirroring the `proptest::prop` paths.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::SmallRng;
        use rand::Rng;

        /// Admissible length specifications for [`vec()`]: a fixed length or a
        /// half-open range of lengths.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            min: usize,
            /// Exclusive upper bound.
            max: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { min: n, max: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                SizeRange {
                    min: r.start,
                    max: r.end,
                }
            }
        }

        /// Strategy for vectors whose length is drawn from `len`.
        pub struct VecStrategy<S> {
            element: S,
            len: SizeRange,
        }

        /// Generates `Vec`s of `element` values with length in `len`.
        pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                len: len.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
                let n = if self.len.min + 1 >= self.len.max {
                    self.len.min
                } else {
                    rng.random_range(self.len.min..self.len.max)
                };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::Strategy;
        use rand::rngs::SmallRng;
        use rand::Rng;

        /// Strategy drawing uniformly from a fixed set of values.
        pub struct Select<T: Clone>(Vec<T>);

        /// Uniformly selects one of `options` (which must be non-empty).
        pub fn select<T: Clone>(options: impl Into<Vec<T>>) -> Select<T> {
            let options = options.into();
            assert!(!options.is_empty(), "select requires at least one option");
            Select(options)
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut SmallRng) -> T {
                self.0[rng.random_range(0..self.0.len())].clone()
            }
        }
    }
}

/// Builds the deterministic RNG for one test case. Public for the macro.
#[doc(hidden)]
pub fn __case_rng(test_name: &str, case: u32) -> SmallRng {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    test_name.hash(&mut hasher);
    SmallRng::seed_from_u64(hasher.finish() ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `config.cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$attr:meta])* fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::__case_rng(stringify!($name), __case);
                    $( let $pat = $crate::Strategy::generate(&($strat), &mut __rng); )+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pair() -> impl Strategy<Value = (u64, u64)> {
        (0u64..10).prop_flat_map(|a| (Just(a), a..a + 5))
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0u32..5, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            for x in v {
                prop_assert!(x < 5);
            }
        }

        #[test]
        fn select_picks_members(x in prop::sample::select(vec![1, 5, 9])) {
            prop_assert!([1, 5, 9].contains(&x));
        }

        #[test]
        fn flat_map_dependent_ranges((a, b) in pair()) {
            prop_assert!(b >= a && b < a + 5);
            prop_assert_eq!(a, a);
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a = crate::__case_rng("t", 3);
        let b = crate::__case_rng("t", 3);
        assert_eq!(a, b);
        let c = crate::__case_rng("t", 4);
        assert_ne!(a, c);
    }
}
