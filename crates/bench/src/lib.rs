//! # xmap-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation (§6) has a corresponding function in
//! [`experiments`]; the `figures` binary dispatches on experiment ids (`fig1b`, `fig5`,
//! …, `table3`, `fig11`, `replay`, or `all`) and prints the regenerated rows/series —
//! the paper's sweeps and the cluster simulator's *simulated* makespans. Wall-clock
//! numbers are not this crate's business: they live in `benchmark/`. The [`sweep`]
//! module runs declarative parameter sweeps on the dataflow engine, and the
//! `experiments` binary exposes them together with the `eval-smoke`
//! determinism/accuracy gate that CI diffs against a committed JSON baseline. The
//! mapping from experiment id to paper artifact is DESIGN.md's experiment index.
//!
//! The harness also owns what only the experiments use, so the library crates carry
//! none of it:
//!
//! * [`baselines`] — the §6.1 competitors (ItemAverage, RemoteUser, the linked-domain
//!   item-kNN that is also KNN-cd and, fitted on target ratings alone, KNN-sd);
//! * [`als`] — the ALS matrix factorisation standing in for Spark MLlib-ALS (Table 3);
//! * [`genres`] — the genre-tagged MovieLens stand-in and the Table 2 partition;
//! * [`report`] — the plain-text table and series rendering of both binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod als;
pub mod baselines;
pub mod datasets;
pub mod experiments;
pub mod genres;
pub mod report;
mod similarity;
pub mod sweep;

pub use datasets::{amazon_like, amazon_like_small, amazon_like_sparse, movielens_like, Scale};
pub use experiments::*;
pub use sweep::SweepRunner;
