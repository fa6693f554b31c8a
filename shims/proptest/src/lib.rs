//! Offline, std-only shim of the `proptest` API surface this workspace
//! uses: the [`proptest!`] macro with per-block [`ProptestConfig`](prelude::ProptestConfig),
//! `in`-bound strategies over integer ranges, [`Just`](strategy::Just), [`prop_oneof!`]
//! with weights, `prop_map`, and the `prop_assert*` macros.
//!
//! The build environment has no network access to crates.io, so the real
//! crate is replaced by this stand-in. Cases are generated from a fixed
//! seed (overridable via `PROPTEST_SEED`), so runs are reproducible;
//! shrinking is not implemented — failures report the concrete inputs via
//! their `Debug`/`Display` rendering instead.

#![warn(missing_docs)]

/// Strategy combinators and generation.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                gen: Box::new(move |rng| self.generate(rng)),
            }
        }
    }

    /// A strategy producing one fixed value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V> {
        gen: Box<dyn Fn(&mut TestRng) -> V>,
    }

    impl<V> std::fmt::Debug for BoxedStrategy<V> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.gen)(rng)
        }
    }

    /// Weighted choice over strategies of a common value type.
    #[derive(Debug)]
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u32,
    }

    impl<V> Union<V> {
        /// Builds a union; weights must sum to a positive value.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<V>)>) -> Union<V> {
            let total = arms.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "prop_oneof! needs positive total weight");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.next_u64() % u64::from(self.total);
            for (w, s) in &self.arms {
                if pick < u64::from(*w) {
                    return s.generate(rng);
                }
                pick -= u64::from(*w);
            }
            unreachable!("weights covered the whole interval")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let offset = (rng.next_u64() as u128) % span;
                    (start as i128 + offset as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);
}

/// Test-loop plumbing: configuration, RNG, and case errors.
pub mod test_runner {
    /// Mirror of `proptest::test_runner::Config` (`cases` only).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// A failed test case (what `prop_assert*` produce).
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure with a rendered message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic SplitMix64 generator driving case generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator.
        pub fn seed_from_u64(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// Returns the next pseudo-random word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The base seed for a property run: `PROPTEST_SEED` or a fixed
    /// default, so CI runs are reproducible.
    pub fn base_seed() -> u64 {
        std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EED_CAFE_F00D_0001)
    }
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Runs a block of property tests, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let seed = $crate::test_runner::base_seed();
            for case in 0..config.cases {
                let mut proptest_rng = $crate::test_runner::TestRng::seed_from_u64(
                    seed ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                $(
                    let $arg = $crate::strategy::Strategy::generate(
                        &($strat),
                        &mut proptest_rng,
                    );
                )+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = outcome {
                    panic!("proptest case {case} of {}: {e}", stringify!($name));
                }
            }
        }
    )*};
}

/// Weighted (or unweighted) choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// whole process) with a rendered message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!(
                    "`{:?}` != `{:?}`: {}", l, r, format!($($fmt)*)
                )),
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 0u64..50, y in -2i64..=2) {
            prop_assert!(x < 50);
            prop_assert!((-2..=2).contains(&y), "y = {}", y);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn oneof_and_map(v in prop_oneof![
            4 => (0u64..10).prop_map(|n| n as i64),
            1 => Just(-1i64),
        ]) {
            prop_assert!(v == -1 || (0..10).contains(&v));
        }
    }

    #[test]
    fn prop_assert_produces_case_error() {
        let failing = || -> Result<(), crate::test_runner::TestCaseError> {
            prop_assert!(1 > 2, "one is not greater than {}", 2);
            Ok(())
        };
        let err = failing().unwrap_err();
        assert!(err.to_string().contains("one is not greater than 2"));
    }
}
