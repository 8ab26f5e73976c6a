//! # xmap-graph — similarity graph, layer-based pruning and meta-paths
//!
//! X-Sim (§3 of the paper) is defined over a *baseline similarity graph* `G_ac`: vertices
//! are items from both domains, and an edge `(i, j)` weighted by the adjusted-cosine
//! similarity `s_ac(i, j)` exists whenever the two items share at least one rater. On top
//! of that graph the paper defines:
//!
//! * **bridge items** — items connected (through common users) to an item of the *other*
//!   domain (§3.2);
//! * the **layer partition** of each domain into BB / NB / NN layers based on bridge
//!   connectivity (Figure 2);
//! * **meta-paths** — walks that contain at most one item per layer (Definition 3),
//!   pruned by keeping only the top-k edges between adjacent layers.
//!
//! This crate builds the graph, computes the layer partition, and tabulates every
//! item's pruned meta-path hops ([`HopTable`]). The X-Sim aggregation itself (path
//! similarity, path certainty, the final weighted mean) lives in `xmap-core`, whose
//! extender walks that table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod bridge;
pub mod graph;
pub mod layers;
pub mod metapath;

pub use bridge::BridgeIndex;
pub use graph::{EdgeRef, GraphConfig, NeighborView, SimilarityGraph};
pub use layers::{Layer, LayerAssignment, LayerPartition};
pub use metapath::{Hop, HopTable, MetaPathConfig};
