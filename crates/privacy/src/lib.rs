//! # xmap-privacy — differential-privacy substrate
//!
//! X-Map composes three differentially-private mechanisms (§4 of the paper):
//!
//! 1. **PRS** (Private Replacement Selection, Algorithm 3) — an instance of the
//!    *exponential mechanism* over X-Sim scores, giving ε-DP AlterEgo construction.
//! 2. **PNSA** (Private Neighbour Selection, Algorithm 4) — again an exponential
//!    mechanism, this time over *truncated similarities* with a *similarity-based
//!    sensitivity*, giving ε′/2-DP neighbour selection.
//! 3. **PNCF** (Private Recommendation, Algorithm 5) — Laplace noise calibrated to the
//!    similarity-based sensitivity added to neighbour similarities, giving the other
//!    ε′/2 so that PNSA + PNCF compose to ε′-DP.
//!
//! This crate implements the mechanism-level machinery those algorithms need, with no
//! knowledge of recommenders: Laplace sampling, the exponential mechanism over scored
//! candidates, sensitivity records, truncated similarity, and a sequential-composition
//! privacy-budget accountant. The recommender-specific score functions live in
//! `xmap-core`.
//!
//! All mechanisms take a caller-provided [`rand::Rng`] so behaviour is reproducible
//! under seeded generators in tests and experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod exponential;
pub mod laplace;
pub mod sensitivity;

pub use budget::{BudgetError, PrivacyBudget};
pub use exponential::{exponential_mechanism, exponential_weights, ExponentialError};
pub use laplace::{laplace_noise, LaplaceMechanism};
pub use sensitivity::{similarity_sensitivity, truncated_similarity, Sensitivity};
