//! # xmap-cf — collaborative-filtering substrate
//!
//! This crate provides the homogeneous collaborative-filtering building blocks that the
//! X-Map heterogeneous recommender (Guerraoui et al., VLDB 2017) is built on top of:
//!
//! * a compact, index-based [`RatingMatrix`] with both user-major and item-major views,
//! * the classical similarity metrics used by the paper (cosine, Pearson and
//!   adjusted cosine — Equations 1, 3 and 6 of the paper),
//! * *weighted significance* statistics (Definition 2) shared with the X-Sim metric,
//! * user-based and item-based k-nearest-neighbour CF (Algorithms 1 and 2),
//! * the temporally weighted item-based predictor (Equation 7),
//! * an Alternating-Least-Squares matrix-factorisation recommender standing in for
//!   Spark MLlib-ALS, and
//! * the competitor baselines evaluated in §6 (ItemAverage, UserAverage, RemoteUser,
//!   linked-domain item-kNN, single-domain kNN, SlopeOne).
//!
//! Everything in this crate is *single-domain agnostic*: domains are just labels attached
//! to items, and the cross-domain machinery lives in `xmap-graph` / `xmap-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod als;
pub mod baselines;
pub mod codec;
pub mod epoch;
pub mod error;
pub mod ids;
pub mod knn;
pub mod matrix;
pub mod rating;
pub mod similarity;
pub mod topk;

pub use error::{CfError, Result};
pub use ids::{DomainId, ItemId, UserId};
pub use knn::{CandidateScratch, ItemKnn, ItemKnnConfig, UserKnn, UserKnnConfig, UserKnnScratch};
pub use matrix::{RatingMatrix, RatingMatrixBuilder};
pub use rating::{Rating, Timestep};
pub use similarity::{SimilarityMetric, SimilarityStats};
