//! # xmap-check — correctness tooling for the X-Map workspace
//!
//! Two engines, both required CI gates:
//!
//! * the **model-check harness**: re-exports of `xmap_engine::sync::model` plus
//!   the protocol models under `tests/` that exhaustively explore the
//!   epoch-publication protocol (see `DESIGN.md`, "Checked concurrency");
//! * the **`xmap-lint` binary** ([`lint`]): a multi-pass determinism auditor —
//!   a hand-rolled lexer ([`lex`](crate::lex)) and lightweight parser layer
//!   ([`parse`](crate::parse)) drive the five token-level house rules plus the
//!   iter-order / ambient-nondeterminism / codec-exhaustive / lock-order
//!   passes ([`passes`](crate::passes)) across workspace sources, with a JSON
//!   findings report ([`report`]) for CI.

pub(crate) mod lex;
pub mod lint;
pub(crate) mod parse;
pub(crate) mod passes;
pub mod report;
pub(crate) mod tags;

pub use tags::Warning;

pub use xmap_engine::sync::model::{CheckFailure, Checker, Failure, Report};
pub use xmap_engine::sync::seeded::Mutation;
