//! # xmap-dataset — workload generators, splits and IO
//!
//! The paper evaluates X-Map on two proprietary-scale real traces — Amazon movies+books
//! (2011–2013) and MovieLens ML-20M — neither of which ships with this repository. This
//! crate provides the synthetic substitutes documented in `DESIGN.md`:
//!
//! * [`synthetic`] — a latent-factor cross-domain trace generator. Users own a taste
//!   vector that is *shared across domains*; overlapping (straddler) users rate in both
//!   domains, so cross-domain taste correlation is observable exactly the way X-Map
//!   exploits it. Domain sizes, overlap, sparsity, rating noise and timestamps are all
//!   configurable.
//! * [`genres`] — a genre-tagged single-domain generator plus the ML-20M genre-partition
//!   procedure of Table 2 (sort genres by movie count, allocate alternately to two
//!   sub-domains, assign each movie to the sub-domain with the larger genre overlap).
//! * [`toy`] — the hand-built Figure 1(a) scenario (Interstellar / Inception / The
//!   Forever War) used in examples and tests.
//! * [`split`] — evaluation splits: cold-start and sparsity-controlled target-profile
//!   holdouts, overlap-fraction sweeps, and plain random splits.
//! * [`io`] — a minimal CSV reader/writer for rating traces so external data can be used
//!   when available.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod genres;
pub mod io;
pub mod split;
pub mod synthetic;
pub mod toy;

pub use genres::{GenreDatasetConfig, GenrePartition, GenreTaggedDataset};
pub use split::{CrossDomainSplit, SplitConfig};
pub use synthetic::{CrossDomainConfig, CrossDomainDataset};
pub use toy::ToyScenario;
