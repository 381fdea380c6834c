//! Stand-in for the `proptest` API subset used by this workspace.
//!
//! The build environment has no network access and no vendored registry, so
//! external crates cannot be downloaded. This shim runs the workspace's
//! property tests as written: `proptest!` with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`, `prop_assert!` /
//! `prop_assert_eq!`, `prop_oneof!` (plain and weighted), [`Just`],
//! [`any`], ranges, tuples, [`Strategy::prop_map`],
//! [`Strategy::prop_filter`], [`Strategy::prop_recursive`],
//! [`collection::vec`], [`option::of`], [`sample::select`], and string
//! strategies written as a sequence of `[class]{m,n}` or `\PC{m,n}` atoms.
//!
//! Its random numbers come from the `rand` shim. Each test draws from a seed
//! fixed by its path (`module::name`), so a run does not depend on test order
//! or thread count, and two runs draw the same cases. A failing case panics
//! with the test name, the seed, the case index and the input's `Debug`.
//! There is no shrinking and no persistence of failures, and nothing but the
//! case count can be configured.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SampleUniform, SeedableRng};

/// What `use proptest::prelude::*` brings into scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Per-block settings: the number of cases each test of the block runs.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Cases each test draws and runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config that runs `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generator of values of one type.
pub trait Strategy {
    /// The type of value generated.
    type Value: Debug;

    /// Draw one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Generate `f(v)` for each `v` this strategy generates.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate only the values `keep` accepts (drawing again otherwise).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        keep: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence,
            keep,
        }
    }

    /// A recursive structure at most `depth` levels deep: each level is
    /// either a leaf (this strategy) or `recurse` applied to the level below,
    /// with even odds. `desired_size` and `expected_branch_size` are accepted
    /// for signature compatibility; the depth alone bounds the size here.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            level = Union::new(vec![(1, leaf.clone()), (1, recurse(level).boxed())]).boxed();
        }
        level
    }

    /// Erase the strategy's type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A type-erased, cheaply cloned strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        self.0.new_value(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn new_value(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    keep: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.new_value(rng);
            if (self.keep)(&v) {
                return v;
            }
        }
        panic!("filter {:?} rejected 10000 values in a row", self.whence)
    }
}

/// One of several strategies, picked by weight: what `prop_oneof!` builds.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// A union over `(weight, strategy)` arms; the weights must not all be 0.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        assert!(
            arms.iter().any(|(w, _)| *w > 0),
            "prop_oneof! needs a nonzero weight"
        );
        Union { arms }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        let (arm, _) = pick(rng, self.arms.iter().map(|(w, _)| u64::from(*w)));
        self.arms[arm].1.new_value(rng)
    }
}

/// Draw an index `i` with odds `weights[i]` in their sum, and an offset
/// uniform below `weights[i]`.
fn pick(rng: &mut StdRng, weights: impl Iterator<Item = u64> + Clone) -> (usize, u64) {
    let mut offset = rng.gen_range(0..weights.clone().sum::<u64>());
    for (i, w) in weights.enumerate() {
        if offset < w {
            return (i, offset);
        }
        offset -= w;
    }
    unreachable!("the offset is below the total weight")
}

/// Always the one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform + Debug> Strategy for Range<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

impl<T: SampleUniform + Debug> Strategy for RangeInclusive<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(*self.start()..=*self.end())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.new_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
}

/// Types [`any`] can generate.
pub trait Arbitrary: Debug + Sized {
    /// Draw one value from the whole type.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            /// Uniform over the type, with one draw in eight from its edges.
            fn arbitrary(rng: &mut StdRng) -> $t {
                if rng.gen_range(0..8) == 0 {
                    [0, 1, <$t>::MIN, <$t>::MAX][rng.gen_range(0..4usize)]
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
}

impl Arbitrary for f64 {
    /// Any bit pattern (so NaNs, infinities and subnormals too), with one
    /// draw in eight from the special values.
    fn arbitrary(rng: &mut StdRng) -> f64 {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
        ];
        if rng.gen_range(0..8) == 0 {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            f64::from_bits(rng.next_u64())
        }
    }
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `len`, of values from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::*;

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    /// `None` or `Some` of a value from `inner`, with even odds.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            rng.gen_bool(0.5).then(|| self.0.new_value(rng))
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::*;

    /// See [`select`].
    pub struct Select<T>(Vec<T>);

    /// One of `values`, uniformly.
    pub fn select<T: Clone + Debug>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select from no values");
        Select(values)
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn new_value(&self, rng: &mut StdRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }
}

/// The characters `\PC` draws from: printable ranges of 1-, 2-, 3- and
/// 4-byte UTF-8 (ASCII, Latin-1, Greek, CJK, emoji) — a sample of the
/// non-control characters, not all of them.
const PRINTABLE: [(char, char); 5] = [
    (' ', '~'),
    ('\u{a1}', '\u{ac}'),
    ('\u{391}', '\u{3a9}'),
    ('\u{4e00}', '\u{9fff}'),
    ('\u{1f600}', '\u{1f64f}'),
];

/// One atom of a string pattern: the characters it draws from, and how many.
struct Atom {
    class: Vec<(char, char)>,
    min: usize,
    max: usize,
}

/// Parse a pattern made of `[class]` or `\PC` atoms, each followed by an
/// optional `{m,n}`. A class holds characters, `a-z` ranges and the escapes
/// `\n` and `\t`. Anything else is refused with a panic naming the pattern.
fn parse_pattern(pattern: &str) -> Vec<Atom> {
    let unsupported =
        || -> ! { panic!("string pattern {pattern:?} is outside the supported subset") };
    let mut chars = pattern.chars().peekable();
    let mut atoms = Vec::new();
    while let Some(c) = chars.next() {
        let class = match c {
            '\\' if chars.next() == Some('P') && chars.next() == Some('C') => PRINTABLE.to_vec(),
            '[' => {
                let mut items = Vec::new();
                loop {
                    let lo = match chars.next() {
                        Some(']') => break,
                        Some('\\') => match chars.next() {
                            Some('n') => '\n',
                            Some('t') => '\t',
                            _ => unsupported(),
                        },
                        Some(c) => c,
                        None => unsupported(),
                    };
                    let hi = if chars.peek() == Some(&'-') {
                        chars.next();
                        chars
                            .next()
                            .filter(|&c| c != ']')
                            .unwrap_or_else(|| unsupported())
                    } else {
                        lo
                    };
                    items.push((lo, hi));
                }
                items
            }
            _ => unsupported(),
        };
        let (min, max) = if chars.peek() == Some(&'{') {
            chars.next();
            let body: String = chars.by_ref().take_while(|&c| c != '}').collect();
            let (m, n) = body.split_once(',').unwrap_or_else(|| unsupported());
            match (m.parse(), n.parse()) {
                (Ok(m), Ok(n)) if m <= n => (m, n),
                _ => unsupported(),
            }
        } else {
            (1, 1)
        };
        atoms.push(Atom { class, min, max });
    }
    atoms
}

impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for atom in parse_pattern(self) {
            let sizes = atom
                .class
                .iter()
                .map(|&(lo, hi)| u64::from(hi) - u64::from(lo) + 1);
            for _ in 0..rng.gen_range(atom.min..=atom.max) {
                let (range, offset) = pick(rng, sizes.clone());
                let c = char::from_u32(u32::from(atom.class[range].0) + offset as u32);
                out.push(c.expect("class ranges hold no surrogates"));
            }
        }
        out
    }
}

/// FNV-1a over the test's path: its seed, the same on every run.
fn seed_of(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `body` over `cases` values of `strategy`, drawn from the seed `name`
/// fixes. What `proptest!` expands to.
pub fn run<S: Strategy>(name: &str, cases: u32, strategy: &S, body: impl Fn(S::Value)) {
    let seed = seed_of(name);
    let mut seeds = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let case_seed = seeds.next_u64();
        let value = strategy.new_value(&mut StdRng::seed_from_u64(case_seed));
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| body(value))) {
            // The case's own seed draws the same input again for the report.
            let input = strategy.new_value(&mut StdRng::seed_from_u64(case_seed));
            let cause = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property {name} failed at seed {seed:#018x}, case {case} of {cases}\n  input: {input:?}\n  cause: {cause}");
        }
    }
}

/// Define `#[test]` functions that each run a property over generated
/// inputs; see the crate docs for the accepted form.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            $crate::run(
                concat!(module_path!(), "::", stringify!($name)),
                config.cases,
                &($($strategy,)+),
                |($($arg,)+)| $body,
            );
        }
    )*};
}

/// One of several strategies with the same value type: `prop_oneof![a, b]`,
/// or weighted, `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight, $crate::Strategy::boxed($strategy))),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1, $crate::Strategy::boxed($strategy))),+])
    };
}

/// `assert!` inside a property: the runner reports the case that failed it.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` inside a property: the runner reports the case that failed it.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::cell::RefCell;

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the property should fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn a_false_property_names_its_seed_and_case() {
        let name = "selftest::always_below_five";
        let msg = panic_message(|| {
            run(name, 100, &(0u32..10,), |(x,)| {
                prop_assert!(x < 5, "x = {x}")
            })
        });
        assert!(msg.contains(name), "{msg}");
        assert!(
            msg.contains(&format!("seed {:#018x}", seed_of(name))),
            "{msg}"
        );
        assert!(msg.contains("case "), "{msg}");
        assert!(msg.contains("input: ("), "{msg}");
        assert!(msg.contains("cause: x = "), "{msg}");
    }

    #[test]
    fn two_runs_draw_identical_cases() {
        let strategy = (
            any::<i64>(),
            "[a-z]{0,8}",
            prop::collection::vec(any::<f64>(), 0..4),
        );
        let draw = || {
            let seen = RefCell::new(Vec::new());
            run("selftest::draws", 64, &strategy, |v| {
                seen.borrow_mut().push(format!("{v:?}"))
            });
            seen.into_inner()
        };
        let first = draw();
        assert_eq!(first.len(), 64);
        assert_eq!(first, draw());
    }

    #[test]
    fn string_patterns_stay_inside_their_class_and_bounds() {
        type Check = fn(&str) -> bool;
        let cases: [(&'static str, usize, usize, Check); 6] = [
            ("[ -~]{0,12}", 0, 12, |s| {
                s.chars().all(|c| (' '..='~').contains(&c))
            }),
            ("[a-z]{1,8}", 1, 8, |s| {
                s.chars().all(|c| c.is_ascii_lowercase())
            }),
            ("[a-z][a-z0-9_]{0,10}", 1, 11, |s| {
                let mut cs = s.chars();
                cs.next().is_some_and(|c| c.is_ascii_lowercase())
                    && cs.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            }),
            ("[ -~\\n\\t]{0,120}", 0, 120, |s| {
                s.chars()
                    .all(|c| (' '..='~').contains(&c) || c == '\n' || c == '\t')
            }),
            ("\\PC{0,80}", 0, 80, |s| {
                s.chars().all(|c| {
                    PRINTABLE.iter().any(|&(lo, hi)| (lo..=hi).contains(&c)) && !c.is_control()
                })
            }),
            ("[ -~]{0,120}", 0, 120, |s| {
                s.chars().all(|c| (' '..='~').contains(&c))
            }),
        ];
        for (pattern, min, max, allowed) in cases {
            let mut lens = std::collections::BTreeSet::new();
            run(pattern, 2000, &(pattern,), |(s,)| {
                let n = s.chars().count();
                assert!((min..=max).contains(&n), "{pattern}: length {n} of {s:?}");
                assert!(allowed(&s), "{pattern}: {s:?}");
            });
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..2000 {
                lens.insert(pattern.new_value(&mut rng).chars().count());
            }
            assert!(
                lens.contains(&min) && lens.contains(&max),
                "{pattern}: lengths {lens:?}"
            );
        }
    }

    #[test]
    fn unsupported_patterns_are_refused() {
        for pattern in ["a+", "[a-z]*", "[a-z]{3}", "\\d{1,2}", "[a-"] {
            let msg = panic_message(|| {
                let _ = pattern.new_value(&mut StdRng::seed_from_u64(0));
            });
            assert!(
                msg.contains("outside the supported subset"),
                "{pattern}: {msg}"
            );
        }
    }

    #[test]
    fn weighted_oneof_and_recursion_are_bounded() {
        let zero_weight = prop_oneof![0 => Just(1u8), 1 => Just(2u8)];
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..200).all(|_| zero_weight.new_value(&mut rng) == 2));
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let tree = Just(Tree::Leaf).prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 1..4).prop_map(Tree::Node)
        });
        let depths: Vec<u32> = (0..500).map(|_| depth(&tree.new_value(&mut rng))).collect();
        assert!(depths.iter().all(|&d| d <= 3));
        assert!(depths.contains(&0) && depths.contains(&3), "{depths:?}");
    }
}
