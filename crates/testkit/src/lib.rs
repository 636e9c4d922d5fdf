//! # swarm-testkit — deterministic property testing for the SwarmFuzz workspace
//!
//! A registry-free property-testing engine built for this repository's
//! offline build: composable [`Gen<T>`] generators over a recorded *choice
//! tape*, integrated greedy shrinking, and a committed failure corpus under
//! `tests/corpus/` that is replayed before every fresh search. On top sit
//! [domain] generators for the workspace's types and [metamorphic] oracle
//! helpers for relation-based invariants.
//!
//! ## Writing a property
//!
//! ```
//! use swarm_testkit::{check_budgeted, gens, tk_ensure};
//!
//! let gen = gens::vec_of(&gens::f64_in(-100.0, 100.0), 0..=16);
//! check_budgeted("doc::sum-is-finite", 32, &gen, |values| {
//!     tk_ensure!(values.iter().sum::<f64>().is_finite(), "sum overflowed: {values:?}");
//!     Ok(())
//! });
//! ```
//!
//! `check` draws `SWARM_TESTKIT_CASES` fresh cases (default 128) after
//! replaying any committed corpus tapes for the property. On failure the
//! case is shrunk to a `(length, lexicographic)`-minimal tape, persisted to
//! the corpus, and reported in the panic message.

mod corpus;
mod runner;
mod shrink;
mod source;

pub mod domain;
pub mod gen;
pub mod metamorphic;

pub use corpus::CorpusMode;
pub use gen::Gen;
pub use runner::{cases, check, check_budgeted, run, Config, Failure, Outcome, DEFAULT_CASES};
pub use source::Source;

/// The generator combinators, re-exported as a compact namespace so test
/// files read `gens::f64_in(..)` without a pile of imports.
pub mod gens {
    pub use crate::gen::{
        bool_any, f64_in, f64_unit, one_of, permutation, u64_any, u64_in, usize_in, vec_of, zip2,
        zip3, zip4,
    };
}

/// Early-returns a property failure message unless `cond` holds.
///
/// Inside a property closure (`Fn(&T) -> Result<(), String>`), use this the
/// way tests use `assert!`: the failure message becomes part of the shrunk
/// counterexample report.
#[macro_export]
macro_rules! tk_ensure {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}
