//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no network access, so this crate implements
//! the subset of proptest the workspace's property tests rely on:
//!
//! * the [`proptest!`] macro (with an optional leading
//!   `#![proptest_config(..)]` attribute and multiple `#[test]` functions);
//! * strategies: [`any`], integer/float [`Range`](std::ops::Range) and
//!   [`RangeInclusive`](std::ops::RangeInclusive), [`Just`], and
//!   [`Strategy::prop_map`];
//! * assertions: [`prop_assert!`], [`prop_assert_eq!`],
//!   [`prop_assert_ne!`], [`prop_assume!`].
//!
//! Sampling is a deterministic SplitMix64 stream seeded from the test's
//! name, so failures reproduce exactly across runs. Setting
//! `PROPTEST_SEED` (a u64) mixes it into every test's seed, so each value
//! draws a fresh set of cases; a failure prints the seed it ran under, and
//! re-running with that value replays it. Integer `any` sampling
//! is lightly biased toward boundary values (0, ±1, MIN, MAX), which is
//! where the kernels under test historically break.

/// Why a generated case did not count as a passing case.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
    /// A `prop_assert*!` failed; the test panics with this message.
    Fail(String),
}

/// Result type each generated case body evaluates to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration (only the `cases` knob is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 128 }
    }
}

/// Deterministic SplitMix64 generator.
pub struct TestRng(u64);

impl TestRng {
    /// Seed from a test name and [`env_seed`].
    pub fn from_name(name: &str) -> Self {
        Self::from_name_and_seed(name, env_seed())
    }

    /// FNV-1a over the bytes of `name`, then over those of `seed` when
    /// given (so `None` keeps each test's fixed case set).
    pub fn from_name_and_seed(name: &str, seed: Option<u64>) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let seed = seed.map(u64::to_le_bytes);
        for &b in name.as_bytes().iter().chain(seed.iter().flatten()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(h | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The `PROPTEST_SEED` environment variable as a u64 (`None` when unset
/// or not a number).
pub fn env_seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok()?.trim().parse().ok()
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Full-domain strategy for a primitive type; see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — sample the whole domain of `T`.
pub fn any<T: ArbitrarySample>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: ArbitrarySample> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary_sample(rng)
    }
}

/// Types `any` can sample.
pub trait ArbitrarySample {
    /// Draw one value covering the full domain.
    fn arbitrary_sample(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl ArbitrarySample for $t {
            fn arbitrary_sample(rng: &mut TestRng) -> $t {
                // 1-in-8 boundary bias: the interesting kernel bugs live at
                // 0 / ±1 / MIN / MAX.
                if rng.next_u64() % 8 == 0 {
                    let edges = [0 as $t, 1 as $t, (0 as $t).wrapping_sub(1),
                                 <$t>::MIN, <$t>::MAX,
                                 <$t>::MIN.wrapping_add(1), <$t>::MAX.wrapping_sub(1)];
                    edges[(rng.next_u64() % edges.len() as u64) as usize]
                } else {
                    let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
                    wide as $t
                }
            }
        }
    )+};
}

impl_arbitrary_int!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);

impl<T: ArbitrarySample, const N: usize> ArbitrarySample for [T; N] {
    fn arbitrary_sample(rng: &mut TestRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary_sample(rng))
    }
}

impl ArbitrarySample for bool {
    fn arbitrary_sample(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitrarySample for f64 {
    fn arbitrary_sample(rng: &mut TestRng) -> f64 {
        // Finite doubles spread over a wide exponent range.
        let mant = rng.unit_f64() * 2.0 - 1.0;
        let exp = (rng.next_u64() % 1200) as i32 - 600;
        mant * 2f64.powi(exp)
    }
}

impl ArbitrarySample for f32 {
    fn arbitrary_sample(rng: &mut TestRng) -> f32 {
        let mant = rng.unit_f64() as f32 * 2.0 - 1.0;
        let exp = (rng.next_u64() % 150) as i32 - 75;
        mant * 2f32.powi(exp)
    }
}

macro_rules! impl_range_int {
    ($($t:ty => $wide:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u128;
                let off = (((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span) as $wide;
                (self.start as $wide).wrapping_add(off) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u128 + 1;
                let off = (((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) % span) as $wide;
                (lo as $wide).wrapping_add(off) as $t
            }
        }
    )+};
}

// The widened type must hold any span of the base type, so 64-bit bases
// widen to 128 bits. (i128/u128 ranges wider than 2^127 stay unsupported.)
impl_range_int!(
    i8 => i64, i16 => i64, i32 => i64, i64 => i128, isize => i128,
    u8 => u64, u16 => u64, u32 => u64, u64 => u128, usize => u128,
    i128 => i128, u128 => u128
);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Fixed-length `Vec` of values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Glob-import surface matching real proptest call sites.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Define property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            let mut accepted = 0u32;
            let mut attempts = 0u32;
            let max_attempts = config.cases.saturating_mul(32).max(256);
            while accepted < config.cases && attempts < max_attempts {
                attempts += 1;
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let outcome = (|| -> $crate::TestCaseResult { $body Ok(()) })();
                match outcome {
                    Ok(()) => accepted += 1,
                    Err($crate::TestCaseError::Reject(_)) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest case {} failed (PROPTEST_SEED={}): {}",
                        attempts,
                        $crate::env_seed().map_or("unset".to_string(), |s| s.to_string()),
                        msg
                    ),
                }
            }
            assert!(
                accepted > 0,
                "proptest: all {} generated cases were rejected by prop_assume!",
                attempts
            );
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::Fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), l
            )));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject(format!($($fmt)+)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -5i64..=5, z in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&z), "z={}", z);
        }

        #[test]
        fn assume_skips(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0, "n={}", n);
        }

        #[test]
        fn prop_map_applies(d in (0u8..10).prop_map(|v| v as i32 * 3)) {
            prop_assert!(d % 3 == 0 && d < 30);
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = super::TestRng::from_name("t");
        let mut b = super::TestRng::from_name("t");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seed_mixes_into_the_name_seed() {
        use super::TestRng;
        let first = |mut rng: TestRng| rng.next_u64();
        // No seed: the plain FNV-1a of the name, as before seeds existed.
        assert_eq!(
            TestRng::from_name_and_seed("t", None).0,
            0xaf63_e94c_8602_02a3
        );
        let unseeded = first(TestRng::from_name_and_seed("t", None));
        let a = first(TestRng::from_name_and_seed("t", Some(1)));
        let b = first(TestRng::from_name_and_seed("t", Some(2)));
        assert!(unseeded != a && a != b && unseeded != b);
        assert_eq!(a, first(TestRng::from_name_and_seed("t", Some(1))));
    }

    #[test]
    fn any_hits_edges_eventually() {
        let mut rng = super::TestRng::from_name("edges");
        let strat = any::<i32>();
        let mut saw_min = false;
        for _ in 0..10_000 {
            if Strategy::sample(&strat, &mut rng) == i32::MIN {
                saw_min = true;
            }
        }
        assert!(saw_min, "boundary bias should surface i32::MIN");
    }
}
