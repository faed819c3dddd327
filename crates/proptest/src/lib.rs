//! Offline stand-in for the [`proptest`](https://docs.rs/proptest)
//! crate.
//!
//! The build container has no network access to crates.io, so the
//! workspace vendors the small slice of the proptest API its test
//! suites actually use: range/`Just`/tuple/`prop_oneof!`/collection
//! strategies, `prop_map`, the `proptest!` macro with an optional
//! `#![proptest_config(..)]` inner attribute, and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Values are drawn from a deterministic splitmix64 generator seeded
//! from the test name and case index, so failures reproduce across
//! runs. There is no shrinking: a failing case panics with the full
//! set of generated inputs instead.

pub mod strategy;

pub mod test_runner {
    /// Per-test configuration (`ProptestConfig` in the prelude).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of successful cases required per test.
        pub cases: u32,
        /// Maximum rejected (`prop_assume!`) cases before giving up.
        pub max_global_rejects: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Default::default()
            }
        }
    }

    /// Parses a `PROPTEST_CASES` value; `None` when unset, empty, zero
    /// or unparseable (falling back to the built-in default).
    pub fn parse_cases(raw: Option<&str>) -> Option<u32> {
        raw.and_then(|v| v.trim().parse().ok()).filter(|&c| c > 0)
    }

    impl Default for Config {
        fn default() -> Self {
            // As in upstream proptest, the `PROPTEST_CASES` environment
            // variable caps the per-test case count, so fast CI gates
            // can trade depth for latency without touching the tests.
            let env_cases = parse_cases(std::env::var("PROPTEST_CASES").ok().as_deref());
            Config {
                cases: env_cases.unwrap_or(256),
                max_global_rejects: 65_536,
            }
        }
    }
}

/// Why a single generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed; the message describes it.
    Fail(String),
    /// The case was vetoed by `prop_assume!` and should not count.
    Reject,
}

/// Deterministic splitmix64 generator driving all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Seed derived from a test name and case index (stable across
    /// runs and platforms).
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::new(h.wrapping_add(case.wrapping_mul(0x2545_f491_4f6c_dd1d)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant at test-strategy scale.
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: core::fmt::Debug {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::TestRng;

    /// Length bounds for [`vec()`]; converted from the range forms the
    /// call sites use.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        pub lo: usize,
        /// Exclusive.
        pub hi: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.hi - self.len.lo).max(1) as u64;
            let n = self.len.lo + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for vectors of `elem` with length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into(),
        }
    }
}

/// Alias module so `prop::collection::vec(..)` works as in upstream.
pub mod prop {
    pub use crate::collection;
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l,
            r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::BoxedStrategy::new($strat)),+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($cfg) $($rest)*);
    };
    (@with_cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::Config = $cfg;
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                let mut case: u64 = 0;
                while passed < cfg.cases {
                    let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                    case += 1;
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}  "),+),
                        $(&$arg),+
                    );
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    match outcome {
                        ::core::result::Result::Ok(()) => passed += 1,
                        ::core::result::Result::Err($crate::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected < cfg.max_global_rejects,
                                "proptest `{}`: too many prop_assume! rejections",
                                stringify!($name)
                            );
                        }
                        ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest `{}` failed at case {}:\n  {}\n  inputs: {}",
                                stringify!($name),
                                case - 1,
                                msg,
                                inputs
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn proptest_cases_env_values_parse() {
        use crate::test_runner::parse_cases;
        assert_eq!(parse_cases(Some("17")), Some(17));
        assert_eq!(parse_cases(Some(" 8 ")), Some(8));
        assert_eq!(parse_cases(Some("0")), None);
        assert_eq!(parse_cases(Some("lots")), None);
        assert_eq!(parse_cases(None), None);
    }

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..17, y in 0u64..5, f in 1.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!((1.0..2.0).contains(&f));
        }

        #[test]
        fn oneof_and_map_work(
            v in prop_oneof![Just(1usize), Just(2), Just(4)],
            p in (2u32..6).prop_map(|e| 1usize << e),
        ) {
            prop_assert!(matches!(v, 1 | 2 | 4));
            prop_assert!(p.is_power_of_two() && (4..64).contains(&p));
        }

        #[test]
        fn collections_and_tuples_work(
            xs in prop::collection::vec((0u64..100, any::<bool>()), 1..20),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for (v, _) in &xs {
                prop_assert!(*v < 100);
            }
        }

        #[test]
        fn assume_rejects_without_failing(a in 0usize..10) {
            prop_assume!(a % 2 == 0);
            prop_assert_eq!(a % 2, 0);
        }
    }
}
