//! Minimal property-based testing for the ChainsFormer workspace.
//!
//! A drop-in, offline replacement for the slice of `proptest` this
//! repository used: seeded case generation, composable strategies and
//! counterexample shrinking, in a few hundred auditable lines with no
//! dependencies beyond [`cf_rand`].
//!
//! # Writing a property
//!
//! ```
//! use cf_check::prelude::*;
//!
//! property! {
//!     #![config(cases = 64)]
//!
//!     /// Reversing twice is the identity.
//!     #[test]
//!     fn double_reverse_is_identity(xs in vec(-100i64..100, 0..20)) {
//!         let mut ys = xs.clone();
//!         ys.reverse();
//!         ys.reverse();
//!         check_assert_eq!(xs, ys);
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Strategies compose: ranges (`-2f32..2.0`, `0usize..10`) are strategies,
//! tuples of strategies are strategies, and [`vec`](strategy::vec) lifts a
//! strategy over elements to one over vectors (fixed or ranged length).
//! Inside the body, [`check_assert!`] / [`check_assert_eq!`] fail the case
//! and [`check_assume!`] rejects it without counting against the budget.
//!
//! # Determinism and reproduction
//!
//! Every run is deterministic: the case stream is seeded from a stable
//! hash of the fully qualified test name (or `CF_CHECK_SEED` when set), so
//! CI and laptops see identical cases with no persistence files. A failure
//! report prints the seed, the case index, the original and shrunk inputs,
//! and a ready-to-paste `CF_CHECK_SEED=… cargo test …` line; replaying
//! with that seed regenerates the identical failing case. `CF_CHECK_CASES`
//! scales every suite's case count up (soak) or down (smoke) without code
//! changes.
//!
//! Shrinking halves its way toward a minimal counterexample: vectors
//! shrink by truncation then element-wise, numbers halve toward zero (or
//! the in-range point closest to it), tuples shrink one component at a
//! time. The loop is bounded by [`Config::max_shrink_steps`].

pub mod fault;
pub mod runner;
pub mod strategy;
pub mod tempdir;

pub use strategy::{vec, Strategy};
pub use tempdir::TempDir;

/// Per-property configuration, normally set through
/// `#![config(cases = N)]` in [`property!`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of passing cases required (default 32).
    pub cases: u32,
    /// Upper bound on shrink candidates evaluated after a failure.
    pub max_shrink_steps: u32,
    /// Upper bound on rejected ([`check_assume!`]) cases before giving up.
    pub max_rejects: u32,
    /// Explicit stream seed; `None` derives one from the test name.
    pub seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 32,
            max_shrink_steps: 2048,
            max_rejects: 32 * 64,
            seed: None,
        }
    }
}

impl Config {
    /// A default configuration requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            max_rejects: cases.saturating_mul(64),
            ..Config::default()
        }
    }
}

/// Why a single case did not pass.
#[derive(Clone, Debug)]
pub enum CaseError {
    /// The case violated a precondition ([`check_assume!`]); generate a
    /// replacement without counting it.
    Reject,
    /// The property is false for this input.
    Fail(String),
}

impl CaseError {
    /// A failed assertion with its message.
    pub fn fail(msg: impl Into<String>) -> Self {
        CaseError::Fail(msg.into())
    }

    /// A rejected (assumption-violating) case.
    pub fn reject() -> Self {
        CaseError::Reject
    }
}

/// Outcome of one property invocation on one input.
pub type CaseResult = Result<(), CaseError>;

/// Everything a property module needs: the [`property!`] macro family, the
/// [`Strategy`] trait and the [`vec`](strategy::vec) combinator.
pub mod prelude {
    pub use crate::strategy::vec;
    pub use crate::{
        check_assert, check_assert_eq, check_assume, property, CaseError, CaseResult, Config,
        Strategy,
    };
}

/// Declares property tests.
///
/// Grammar (deliberately close to `proptest!` so suites port mechanically):
/// an optional `#![config(cases = N)]` header, then `fn` items whose
/// arguments are `name in strategy` bindings. Each becomes a plain
/// `#[test]` (the attribute is written at the call site and passed
/// through) that runs the seeded case loop.
#[macro_export]
macro_rules! property {
    (@fns ($cfg:expr) ) => {};
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __strategy = ( $( $strat, )+ );
            $crate::runner::run(
                concat!(module_path!(), "::", stringify!($name)),
                $cfg,
                __strategy,
                |__case| {
                    let ( $( $arg, )+ ) = __case;
                    $body
                    $crate::CaseResult::Ok(())
                },
            );
        }
        $crate::property! { @fns ($cfg) $($rest)* }
    };
    (
        #![config(cases = $cases:expr)]
        $($rest:tt)*
    ) => {
        $crate::property! { @fns ($crate::Config::with_cases($cases)) $($rest)* }
    };
    (
        $($rest:tt)*
    ) => {
        $crate::property! { @fns ($crate::Config::default()) $($rest)* }
    };
}

/// Asserts a condition inside a [`property!`] body; on failure the case is
/// reported (and shrunk) with the formatted message.
#[macro_export]
macro_rules! check_assert {
    ($cond:expr $(,)?) => {
        $crate::check_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return $crate::CaseResult::Err($crate::CaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`property!`] body, reporting both sides.
#[macro_export]
macro_rules! check_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __l = $left;
        let __r = $right;
        if __l != __r {
            return $crate::CaseResult::Err($crate::CaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
}

/// Rejects the current case when its precondition does not hold; rejected
/// cases are regenerated and do not count toward the case budget.
#[macro_export]
macro_rules! check_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return $crate::CaseResult::Err($crate::CaseError::reject());
        }
    };
}
