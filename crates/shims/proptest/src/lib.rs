//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of proptest's API that its property tests
//! use: the [`proptest!`] / [`prop_oneof!`] / [`prop_assert*`] macros, the
//! [`Strategy`] trait with `prop_map`, range / tuple / `Just` strategies,
//! `prop::collection::vec`, `prop::option::{of, weighted}`,
//! `prop::sample::select`, and [`any`].
//!
//! Semantics: each test runs `ProptestConfig::cases` generated inputs from a
//! deterministic per-test RNG (seeded from the test name, so runs are
//! reproducible). A failing case — a `prop_assert*` or a panic — is shrunk
//! by replaying smaller draws ([`TestRng`]), and the simplest input that
//! still fails is printed with its failure. Shrinking works on the draws,
//! not on values, so it reaches through `prop_map` unaided: a range shrinks
//! toward its start, a `vec` toward its shortest length, `option::of` toward
//! `None`, `select` toward its first value, a `bool` toward `false`.

use rand::{RngCore, SeedableRng};
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

/// Deterministic source of randomness handed to strategies. Every draw is
/// recorded, so a failing case can be replayed from its draws — and shrunk
/// by replaying smaller ones, which generate smaller values.
pub struct TestRng {
    rng: rand::rngs::StdRng,
    /// Draws to return instead of the generator's (zeros past their end),
    /// and how many were taken.
    replay: Option<(Vec<u64>, usize)>,
    drawn: Vec<u64>,
}

impl TestRng {
    fn for_case(test_name: &str, case: u64) -> Self {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        test_name.hash(&mut h);
        TestRng {
            rng: rand::rngs::StdRng::seed_from_u64(
                h.finish()
                    .wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            ),
            replay: None,
            drawn: Vec::new(),
        }
    }

    fn replaying(draws: Vec<u64>) -> Self {
        TestRng {
            rng: rand::rngs::StdRng::seed_from_u64(0),
            replay: Some((draws, 0)),
            drawn: Vec::new(),
        }
    }

    fn raw(&mut self) -> u64 {
        match &mut self.replay {
            Some((draws, taken)) => {
                *taken += 1;
                draws.get(*taken - 1).copied().unwrap_or(0)
            }
            None => self.rng.next_u64(),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let v = self.raw();
        self.drawn.push(v);
        v
    }

    /// A value below `n` (nonzero), recorded as reduced: a smaller draw is
    /// then a smaller value, which is what shrinking relies on.
    pub fn below(&mut self, n: u64) -> u64 {
        let v = self.raw() % n;
        self.drawn.push(v);
        v
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run configuration. Only `cases` is modeled.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed `prop_assert*` inside a test case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Drives one property test: generates `cfg.cases` inputs and, on the first
/// failure, shrinks it and panics with the shrunk input's debug rendering.
/// Called by the [`proptest!`] expansion — not public API in real proptest.
pub fn run_proptest(
    cfg: &ProptestConfig,
    test_name: &str,
    mut case: impl FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
) {
    for i in 0..cfg.cases as u64 {
        let mut rng = TestRng::for_case(test_name, i);
        let (desc, result) = case(&mut rng);
        if let Err(e) = result {
            let (desc, e) = shrink(&mut case, rng.drawn, (desc, e));
            panic!("proptest {test_name}: case {i} failed: {e}\n  input (shrunk): {desc}");
        }
    }
}

/// Replays of a failing case tried while shrinking it.
const SHRINK_RUNS: u32 = 256;

/// Shrinks a failing case: replays smaller variants of its draws — the tail
/// dropped, one draw deleted, zeroed, halved or decremented — and keeps the
/// first that still fails, until none does or [`SHRINK_RUNS`] are spent.
/// Each kept sequence is shorter, or as long and lexicographically smaller,
/// so the search ends. Returns the last failing input and its failure.
fn shrink(
    case: &mut impl FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
    mut draws: Vec<u64>,
    mut found: (String, TestCaseError),
) -> (String, TestCaseError) {
    let mut runs = 0;
    'smaller: while runs < SHRINK_RUNS {
        for candidate in smaller_draws(&draws) {
            if runs == SHRINK_RUNS {
                break 'smaller;
            }
            runs += 1;
            let mut rng = TestRng::replaying(candidate);
            let (desc, result) = case(&mut rng);
            let simpler = (rng.drawn.len(), &rng.drawn) < (draws.len(), &draws);
            if let (Err(e), true) = (result, simpler) {
                (draws, found) = (rng.drawn, (desc, e));
                continue 'smaller;
            }
        }
        break;
    }
    found
}

/// The variants of `draws` that [`shrink`] tries, boldest first.
fn smaller_draws(draws: &[u64]) -> Vec<Vec<u64>> {
    let n = draws.len();
    let mut out = vec![
        draws[..n / 2].to_vec(),
        draws[..n.saturating_sub(1)].to_vec(),
    ];
    for i in 0..n {
        let d = draws[i];
        out.push([&draws[..i], &draws[i + 1..]].concat());
        for smaller in [0, d / 2, d.saturating_sub(1)] {
            if smaller < d {
                let mut v = draws.to_vec();
                v[i] = smaller;
                out.push(v);
            }
        }
    }
    out
}

/// The message a test body panicked with, as a case failure.
fn panic_failure(payload: Box<dyn std::any::Any + Send>) -> TestCaseError {
    let msg = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(_) => "panic with a non-string payload".to_string(),
        },
    };
    TestCaseError(format!("panicked: {msg}"))
}

/// Runs one test body, turning a panic into a case failure (so that it is
/// shrunk like a failed `prop_assert*`). Called by the [`proptest!`]
/// expansion.
#[doc(hidden)]
pub fn run_body(body: impl FnOnce() -> Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|p| Err(panic_failure(p)))
}

/// Generation strategy for values of type `Self::Value`.
pub trait Strategy: Clone {
    type Value: Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T + Clone>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T + Clone> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy; cheap to clone.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed alternatives ([`prop_oneof!`]).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union(self.0.clone())
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

/// An offset below `span` (an integer range's width, which for a whole
/// 64-bit range exceeds `u64`).
fn offset(rng: &mut TestRng, span: u128) -> u128 {
    match u64::try_from(span) {
        Ok(span) => rng.below(span) as u128,
        Err(_) => rng.next_u64() as u128,
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + offset(rng, span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + offset(rng, span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident/$i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(S0 / V0 / 0);
tuple_strategy!(S0 / V0 / 0, S1 / V1 / 1);
tuple_strategy!(S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2);
tuple_strategy!(S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2, S3 / V3 / 3);
tuple_strategy!(
    S0 / V0 / 0,
    S1 / V1 / 1,
    S2 / V2 / 2,
    S3 / V3 / 3,
    S4 / V4 / 4
);
tuple_strategy!(
    S0 / V0 / 0,
    S1 / V1 / 1,
    S2 / V2 / 2,
    S3 / V3 / 3,
    S4 / V4 / 4,
    S5 / V5 / 5
);
tuple_strategy!(
    S0 / V0 / 0,
    S1 / V1 / 1,
    S2 / V2 / 2,
    S3 / V3 / 3,
    S4 / V4 / 4,
    S5 / V5 / 5,
    S6 / V6 / 6
);
tuple_strategy!(
    S0 / V0 / 0,
    S1 / V1 / 1,
    S2 / V2 / 2,
    S3 / V3 / 3,
    S4 / V4 / 4,
    S5 / V5 / 5,
    S6 / V6 / 6,
    S7 / V7 / 7
);

/// Types with a canonical strategy, reachable through [`any`].
pub trait Arbitrary: Debug + Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_f64() as f32
    }
}

/// Strategy for `any::<T>()`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// The `prop::` module namespace (`prop::collection::vec`, …).
pub mod prop {
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// Length specification for [`vec`]: an exact length or a half-open
        /// range of lengths.
        #[derive(Clone, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        #[derive(Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let n = self.size.lo + rng.below(span) as usize;
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }

        /// `Vec` strategy with element strategy `elem` and length in `size`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }
    }

    pub mod option {
        use super::super::{Strategy, TestRng};

        #[derive(Clone)]
        pub struct WeightedOption<S> {
            prob: f64,
            inner: S,
        }

        impl<S: Strategy> Strategy for WeightedOption<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_f64() < self.prob {
                    Some(self.inner.generate(rng))
                } else {
                    None
                }
            }
        }

        /// `Some(inner)` with probability `prob`, else `None`.
        pub fn weighted<S: Strategy>(prob: f64, inner: S) -> WeightedOption<S> {
            WeightedOption { prob, inner }
        }

        #[derive(Clone)]
        pub struct OptionStrategy<S>(S);

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                (rng.below(2) == 1).then(|| self.0.generate(rng))
            }
        }

        /// `None` or `Some(inner)`, even odds; shrinks toward `None`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }
    }

    pub mod sample {
        use super::super::{Strategy, TestRng};
        use std::fmt::Debug;

        #[derive(Clone)]
        pub struct Select<T>(Vec<T>);

        impl<T: Clone + Debug> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.0[rng.below(self.0.len() as u64) as usize].clone()
            }
        }

        /// One of `values`, uniformly; shrinks toward the first.
        pub fn select<T: Clone + Debug>(values: Vec<T>) -> Select<T> {
            assert!(!values.is_empty(), "select from no values");
            Select(values)
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg = $cfg;
            $crate::run_proptest(&cfg, stringify!($name), |rng| {
                let mut desc = String::new();
                $(
                    let $arg = $crate::Strategy::generate(&($strat), rng);
                    desc.push_str(&format!(
                        "{} = {:?}; ",
                        stringify!($arg),
                        &$arg
                    ));
                )+
                let result = $crate::run_body(move || {
                    $body
                    Ok(())
                });
                (desc, result)
            });
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)+),
                a,
                b
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                a
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Add,
        Mul,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -4i32..4, f in -1.0f32..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..4).contains(&y));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec(prop::option::weighted(0.5, 0u32..10), 1..8),
            op in prop_oneof![Just(Op::Add), Just(Op::Mul)],
            pair in (0u8..4, any::<bool>()).prop_map(|(a, b)| (a as u32, b)),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().flatten().all(|&x| x < 10));
            prop_assert!(op == Op::Add || op == Op::Mul);
            prop_assert!(pair.0 < 4);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::for_case("t", 0);
        let mut b = crate::TestRng::for_case("t", 0);
        assert_eq!((0u32..100).generate(&mut a), (0u32..100).generate(&mut b));
    }

    // Properties that must fail, run by `failing_cases_shrink_to_the_simplest_input`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        fn fails_from_ten(x in 0u32..1000, v in prop::collection::vec(0u8..50, 1..8)) {
            prop_assert!(x < 10 || v.len() < 3);
        }

        fn always_fails(
            o in prop::option::of(0u8..4),
            w in prop::sample::select(vec![64u32, 16, 8, 4]),
            b in any::<bool>(),
        ) {
            prop_assert!(false, "{o:?} {w} {b}");
        }

        fn panics_from_ten(x in 0u32..1000) {
            assert!(x < 10, "x is {x}");
        }
    }

    /// The panic message of a property run that must fail.
    fn failure(property: fn()) -> String {
        let payload = std::panic::catch_unwind(property).expect_err("the property held");
        *payload.downcast::<String>().expect("a formatted message")
    }

    /// A failing case is reported as the simplest input that still fails:
    /// ranges at their start, vectors at their shortest, `None`, the first
    /// selected value, `false` — through a panic as through `prop_assert`.
    #[test]
    fn failing_cases_shrink_to_the_simplest_input() {
        let msg = failure(fails_from_ten);
        assert!(
            msg.contains("input (shrunk): x = 10; v = [0, 0, 0]; "),
            "{msg}"
        );
        let msg = failure(always_fails);
        assert!(
            msg.contains("input (shrunk): o = None; w = 64; b = false; "),
            "{msg}"
        );
        let msg = failure(panics_from_ten);
        assert!(msg.contains("panicked: x is 10"), "{msg}");
        assert!(msg.contains("input (shrunk): x = 10; "), "{msg}");
    }
}
