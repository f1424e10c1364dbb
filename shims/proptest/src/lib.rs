//! Offline stand-in for `proptest` (see `shims/README.md`).
//!
//! Implements the property-testing surface this workspace uses as a
//! deterministic randomized-input engine: [`Strategy`] with
//! `prop_map`/`boxed`, range and tuple strategies, [`Just`],
//! [`collection::vec`], `any::<T>()`, the [`prop_oneof!`] union macro,
//! and the [`proptest!`] test-harness macro with optional
//! `#![proptest_config(...)]`. Unlike real proptest there is no
//! shrinking: a failing case panics with the test's seed label, the
//! case index, each input's `Debug` and the original message, and cases
//! derive deterministically from the test name, so failures reproduce
//! exactly on re-run.

// Registry dependencies build with --cap-lints allow; as offline
// path stand-ins these crates must opt out of repo-only strict lints
// (the CI indexing_slicing gate targets first-party decode paths).
#![allow(clippy::indexing_slicing)]

use std::ops::{Range, RangeInclusive};

/// Deterministic generator state (SplitMix64). Seeded from the test
/// name so each test sees a stable, independent stream.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary label (FNV-1a hash of the bytes).
    pub fn deterministic(label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is irrelevant for test-input generation.
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy, enabling heterogeneous unions.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe counterpart of [`Strategy`] for boxing.
trait DynStrategy {
    type Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate_dyn(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
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

/// Uniform choice between boxed alternatives; built by [`prop_oneof!`].
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds from at least one alternative.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

// Integer ranges. i128 arithmetic covers every primitive width used.
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = if span > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    rng.below(span as u64) as u128
                };
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let off = if span > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    rng.below(span as u64) as u128
                };
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start() + (rng.unit_f64() as f32) * (self.end() - self.start())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
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
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        rng.unit_f64() as f32
    }
}

macro_rules! arb_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    )*};
}
arb_tuple! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration; only `cases` matters to this shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest runs 256; 64 keeps the offline suite brisk
        // while still exercising varied inputs deterministically.
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Everything a property-test module conventionally imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };

    /// Namespace mirror (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that draws `cases` inputs deterministically.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __label = concat!(module_path!(), "::", stringify!($name));
                let mut __rng = $crate::TestRng::deterministic(__label);
                for __case in 0..__config.cases {
                    let mut __inputs = Vec::new();
                    $(
                        let __value = $crate::Strategy::generate(&($s), &mut __rng);
                        __inputs.push(format!("{} = {:?}", stringify!($p), __value));
                        let $p = __value;
                    )+
                    let __outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                    if let Err(__panic) = __outcome {
                        $crate::fail_case(__label, __case, &__inputs, __panic);
                    }
                }
            }
        )*
    };
}

/// Re-panics a failed case of the property seeded by `label`, naming the
/// case index, each input and the original panic message.
#[doc(hidden)]
pub fn fail_case(
    label: &str,
    case: u32,
    inputs: &[String],
    panic: Box<dyn std::any::Any + Send>,
) -> ! {
    let message = (panic.downcast_ref::<String>().map(String::as_str))
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    panic!(
        "{label}: case {case} failed with {}: {message}",
        inputs.join(", ")
    )
}

/// Uniform choice across heterogeneous strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// Asserts a condition inside a property (panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (panics like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (panics like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds_and_are_deterministic() {
        let mut a = crate::TestRng::deterministic("bounds");
        let mut b = crate::TestRng::deterministic("bounds");
        let strat = 10u32..20;
        for _ in 0..200 {
            let va = strat.generate(&mut a);
            assert!((10..20).contains(&va));
            assert_eq!(va, strat.generate(&mut b));
        }
        let inc = -5i32..=5;
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..500 {
            let v = inc.generate(&mut a);
            assert!((-5..=5).contains(&v));
            seen_lo |= v == -5;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi, "inclusive endpoints never drawn");
    }

    #[test]
    fn unions_maps_and_vecs_compose() {
        let strat = prop_oneof![Just(0u8).boxed(), (1u8..=9).prop_map(|v| v * 10).boxed(),];
        let mut rng = crate::TestRng::deterministic("compose");
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v == 0 || (10..=90).contains(&v) && v % 10 == 0);
        }
        let vecs = crate::collection::vec(any::<u8>(), 3..6);
        for _ in 0..50 {
            let v = vecs.generate(&mut rng);
            assert!((3..=5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        fn macro_draws_and_asserts(x in 0u64..100, mut v in prop::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(x < 100);
            v.push(0);
            prop_assert_ne!(v.len(), 0);
            prop_assert_eq!(v[v.len() - 1], 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[should_panic(expected = "proptest::tests::planted_failure_is_reported: case 0 failed with \
                                   x = 7, v = [3, 3]: assertion failed: x < 5")]
        fn planted_failure_is_reported(x in 7u32..8, v in prop::collection::vec(3u8..4, 2)) {
            prop_assert!(v.len() == 2);
            prop_assert!(x < 5);
        }
    }

    proptest! {
        fn macro_default_config_runs(pair in (any::<bool>(), 0i32..=3)) {
            let (b, i) = pair;
            let _tuple_bool_generated: bool = b;
            prop_assert!((0..=3).contains(&i));
        }
    }
}
