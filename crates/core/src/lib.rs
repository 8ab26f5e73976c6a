//! # xmap-core — the X-Map heterogeneous recommender
//!
//! This crate implements the primary contribution of *"Heterogeneous Recommendations:
//! What You Might Like To Read After Watching Interstellar"* (Guerraoui, Kermarrec, Lin,
//! Patra — VLDB 2017):
//!
//! * the **X-Sim** meta-path-based inter-item similarity (Definitions 2–6, [`xsim`]),
//! * **AlterEgo** generation — mapping a user's source-domain profile into an artificial
//!   target-domain profile, either non-privately (most-similar replacement) or with the
//!   ε-differentially-private **PRS** exponential mechanism ([`generator`]),
//! * the private recommendation machinery **PNSA** / **PNCF** (Algorithms 4 and 5,
//!   [`private`]),
//! * the four user-facing recommender variants — `NX-Map-ub`, `NX-Map-ib`, `X-Map-ub`,
//!   `X-Map-ib` ([`recommend`]), and
//! * the end-to-end four-component pipeline (baseliner → extender → generator →
//!   recommender, Figure 4) that ties everything together and exposes the measured
//!   per-stage costs used by the scalability experiment ([`pipeline`]), including the
//!   engine-parallel evaluation entry points (`XMapModel::evaluate_batch` / `sweep`,
//!   running `xmap-eval`'s `EvalStage` on the model's dataflow).
//!
//! ## Quick start
//!
//! ```
//! use xmap_core::{XMapConfig, XMapMode, XMapModel};
//! use xmap_dataset::toy::{items, users, ToyScenario};
//! use xmap_cf::DomainId;
//!
//! let toy = ToyScenario::build();
//! let config = XMapConfig {
//!     mode: XMapMode::NxMapItemBased,
//!     k: 2,
//!     ..XMapConfig::default()
//! };
//! let model = XMapModel::fit(&toy.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
//! // Alice never rated a book, but her AlterEgo gives her book predictions.
//! let recs = model.recommend(users::ALICE, 2);
//! assert!(!recs.is_empty());
//! let _predicted = model.predict(users::ALICE, items::THE_FOREVER_WAR);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod delta;
pub mod generator;
pub mod persist;
pub mod pipeline;
pub mod private;
pub mod recommend;
pub mod shard;
pub mod xsim;

pub use config::{PrivacyConfig, XMapConfig, XMapMode};
pub use delta::{DeltaReport, RatingDelta, DELTA_STAGE_NAME};
pub use generator::{AlterEgo, RatingTransfer, ReplacementTable};
pub use persist::{JOURNAL_FILE, SNAPSHOT_FILE};
pub use pipeline::{ModelEpoch, XMapModel, FIT_STAGE_NAMES};
pub use recommend::{ProfileRecommender, ProfileScratch};
pub use shard::{ShardMap, ShardSlice, ShardedModel};
pub use xsim::{XSimEntry, XSimTable};

/// Errors produced by the X-Map pipeline.
#[derive(Debug)]
pub enum XMapError {
    /// A configuration value is invalid.
    InvalidConfig(String),
    /// The underlying CF substrate reported an error.
    Cf(xmap_cf::CfError),
    /// The training data does not contain the requested domains or users.
    Data(String),
    /// A differentially private mechanism asked for more ε than the budget has left.
    Privacy(xmap_privacy::BudgetError),
    /// An operating-system I/O failure in the persistence layer, with the path and
    /// the operation that failed.
    Io {
        /// The file (or directory) the operation touched.
        path: std::path::PathBuf,
        /// What the store was doing when the failure happened.
        context: String,
    },
    /// Bytes on disk are not a valid snapshot/journal (checksum mismatch,
    /// truncation, unknown format version, out-of-range field) — or a replayed
    /// journal does not line up with its snapshot.
    Corrupt {
        /// Byte offset of the damage within the offending file.
        offset: u64,
        /// What was wrong at that offset.
        detail: String,
    },
}

impl std::fmt::Display for XMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XMapError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            XMapError::Cf(e) => write!(f, "collaborative filtering error: {e}"),
            XMapError::Data(msg) => write!(f, "data error: {msg}"),
            XMapError::Privacy(e) => write!(f, "privacy budget exhausted: {e}"),
            XMapError::Io { path, context } => {
                write!(f, "io error at {}: {context}", path.display())
            }
            XMapError::Corrupt { offset, detail } => {
                write!(f, "corrupt store data at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for XMapError {}

impl XMapError {
    /// A [`XMapError::Corrupt`] found in decoded state rather than at a byte offset.
    pub(crate) fn corrupt(detail: impl Into<String>) -> Self {
        let detail = detail.into();
        XMapError::Corrupt { offset: 0, detail }
    }
}

impl From<xmap_cf::CfError> for XMapError {
    fn from(e: xmap_cf::CfError) -> Self {
        XMapError::Cf(e)
    }
}

impl From<xmap_privacy::BudgetError> for XMapError {
    fn from(e: xmap_privacy::BudgetError) -> Self {
        XMapError::Privacy(e)
    }
}

impl From<xmap_store::StoreError> for XMapError {
    fn from(e: xmap_store::StoreError) -> Self {
        match e {
            xmap_store::StoreError::Io {
                path,
                context,
                source,
            } => XMapError::Io {
                path,
                context: format!("{context}: {source}"),
            },
            xmap_store::StoreError::Corrupt { offset, detail } => {
                XMapError::Corrupt { offset, detail }
            }
        }
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, XMapError>;

/// The gates of batched serving (`XMapModel::serve_profiles`).
#[cfg(test)]
#[path = "serve_tests.rs"]
mod serve;
