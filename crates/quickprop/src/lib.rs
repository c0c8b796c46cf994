//! quickprop — the workspace's in-repo property-testing harness.
//!
//! A small, dependency-free stand-in for the external `proptest` crate,
//! built so the tier-1 verify (`cargo build --release && cargo test -q`)
//! resolves fully offline (see DESIGN.md §7: the build environment has
//! no crates.io access, and the datasets/tests must be bit-reproducible
//! forever anyway).
//!
//! The surface deliberately mirrors the subset of proptest the test
//! suite uses:
//!
//! * [`Gen`] — the strategy trait, with `prop_map` / `prop_flat_map`
//!   combinators, implemented for ranges (`2..80usize`, `-4.0f64..4.0`),
//!   tuples, [`Just`], [`prop_oneof!`] and [`collection::vec`];
//! * [`quickprop!`] — the case-running macro (same `a in strategy`
//!   binding syntax as `proptest!`), with [`prop_assert!`],
//!   [`prop_assert_eq!`], [`prop_assert_ne!`] and [`prop_assume!`];
//! * [`sparse_gen`] — CSR strategies shared by every crate, with
//!   greedy structural shrinking (drop triplets, halve rows/cols);
//! * deterministic seeding on [`matgen::generators::Rng64`]
//!   (xoshiro256**): every run draws the same cases, and a failing
//!   case's seed is printed for replay via `QUICKPROP_SEED`.
//!
//! # Example
//!
//! ```
//! use quickprop::prelude::*;
//!
//! quickprop! {
//!     #![config(cases = 32)]
//!     // In a test file this would carry `#[test]`.
//!     fn sum_commutes(a in 0usize..100, b in 0usize..100) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! sum_commutes();
//! ```

mod collection_impl;
mod gens;
mod ranges;
mod runner;
pub mod sparse_gen;

pub use gens::{BoxedGen, FlatMap, Gen, Just, Map, OneOf};
pub use matgen::generators::Rng64;
pub use runner::{check, debug_short, run, CaseError, CaseResult, Config, Failure};

/// `proptest::collection`-shaped namespace: `collection::vec(gen, len_range)`.
pub mod collection {
    pub use crate::collection_impl::{vec, VecGen};
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::sparse_gen;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, quickprop,
    };
    pub use crate::{CaseError, CaseResult, Config, Gen, Just, Rng64};
}

/// Defines property tests with the same binding syntax as `proptest!`:
/// each `fn name(pat in strategy, ...)` body runs for `cases` generated
/// inputs; on failure the input is greedily shrunk and the case seed is
/// printed for replay.
#[macro_export]
macro_rules! quickprop {
    (
        #![config(cases = $cases:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $crate::Config::with_cases($cases);
                let __gen = ($($strat,)+);
                $crate::run(&__config, stringify!($name), &__gen, |($($pat,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Fails the current case (with shrinking) when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::CaseError::fail(format!(
                "assertion failed: `{}` at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::CaseError::fail(format!(
                "assertion failed: `{}` at {}:{}: {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current case (with shrinking) when the two sides differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::CaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}\n  left: {}\n right: {}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                $crate::debug_short(__l),
                $crate::debug_short(__r)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::CaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}: {}\n  left: {}\n right: {}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                format!($($fmt)+),
                $crate::debug_short(__l),
                $crate::debug_short(__r)
            )));
        }
    }};
}

/// Fails the current case (with shrinking) when the two sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::CaseError::fail(format!(
                "assertion failed: `{} != {}` at {}:{}\n  both: {}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                $crate::debug_short(__l)
            )));
        }
    }};
}

/// Discards the current case (drawing a replacement) when the
/// precondition is false; too many discards fail the property.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::CaseError::Reject);
        }
    };
}

/// Picks uniformly between same-valued strategies:
/// `prop_oneof![Just(32usize), Just(64usize)]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($branch:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Gen::boxed($branch)),+])
    };
}
