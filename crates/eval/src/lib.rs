//! # xmap-eval — metrics, evaluation protocols and the engine-parallel harness
//!
//! The paper evaluates along three axes (§6.1): prediction accuracy (MAE), privacy (the
//! ε / ε′ parameters, which are inputs rather than measurements) and scalability
//! (speedup). This crate provides:
//!
//! * [`metrics`] — MAE, RMSE, precision/recall@N and catalogue coverage;
//! * [`protocol`] — the serial evaluation loop (predict every hidden test rating with a
//!   system under test and aggregate the error) plus sweep bookkeeping and the
//!   declarative [`SweepSpec`];
//! * [`stage`] — the engine-parallel evaluation harness: an [`EvalBatch`] of test
//!   triples and ranking cases run as an [`EvalStage`] on the `xmap-engine` dataflow,
//!   bit-identical to the serial reference at any worker count.
//!
//! The plain-text table and series rendering the harness binaries print with lives in
//! `xmap-bench` (`report`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod protocol;
pub mod stage;

pub use metrics::{coverage, mae, precision_at_n, recall_at_n, rmse};
pub use protocol::{
    evaluate_predictions, EvalOutcome, SweepMetric, SweepParam, SweepPoint, SweepSeries, SweepSpec,
};
pub use stage::{
    evaluate_batch_serial, ranking_cases_from_test, EvalBatch, EvalReport, EvalStage, EvalTarget,
    RankingCase, EVAL_STAGE_NAME,
};
