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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod experiments;
pub mod sweep;

pub use datasets::{amazon_like, amazon_like_small, amazon_like_sparse, movielens_like, Scale};
pub use experiments::*;
pub use sweep::SweepRunner;
