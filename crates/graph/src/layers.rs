//! Layer-based pruning (§3.2, Figure 2 of the paper).
//!
//! The items of each domain are partitioned into three layers:
//!
//! * **BB-layer** — bridge items of the domain (they connect to bridge items of the other
//!   domain);
//! * **NB-layer** — non-bridge items that are connected (within their own domain) to at
//!   least one bridge item;
//! * **NN-layer** — non-bridge items with no connection to a bridge item.
//!
//! Meta-paths (Definition 3) contain at most one item per layer and only cross between
//! adjacent layers, which is what turns the `O(m²)` all-pairs meta-path computation into
//! `O(km)`.

use crate::bridge::BridgeIndex;
use crate::graph::SimilarityGraph;
use serde::{Deserialize, Serialize};
use xmap_cf::{DomainId, ItemId};

/// The three layers of the partition within a domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Bridge items connected to bridge items of another domain.
    BridgeBridge,
    /// Non-bridge items connected to bridge items of the same domain.
    NonBridgeBridge,
    /// Non-bridge items not connected to any bridge item.
    NonBridgeNonBridge,
}

impl Layer {
    /// Short label used in reports ("BB", "NB", "NN").
    pub fn label(&self) -> &'static str {
        match self {
            Layer::BridgeBridge => "BB",
            Layer::NonBridgeBridge => "NB",
            Layer::NonBridgeNonBridge => "NN",
        }
    }
}

/// The layer and domain of one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerAssignment {
    /// Domain the item belongs to.
    pub domain: DomainId,
    /// Layer of the item within its domain.
    pub layer: Layer,
}

/// The full layer partition of a similarity graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayerPartition {
    assignments: Vec<LayerAssignment>,
}

impl LayerPartition {
    /// Computes the partition from the graph and its bridge index.
    pub fn compute(graph: &SimilarityGraph, bridges: &BridgeIndex) -> Self {
        let mut assignments = Vec::with_capacity(graph.n_items());
        for i in graph.items() {
            let domain = graph.item_domain(i);
            let layer = if bridges.is_bridge(i) {
                Layer::BridgeBridge
            } else {
                let touches_bridge = graph
                    .neighbors(i)
                    .ids()
                    .iter()
                    .any(|&to| bridges.is_bridge(to) && graph.item_domain(to) == domain);
                if touches_bridge {
                    Layer::NonBridgeBridge
                } else {
                    Layer::NonBridgeNonBridge
                }
            };
            assignments.push(LayerAssignment { domain, layer });
        }
        LayerPartition { assignments }
    }

    /// Convenience: builds the bridge index and the partition in one call.
    pub fn from_graph(graph: &SimilarityGraph) -> (BridgeIndex, Self) {
        let bridges = BridgeIndex::from_graph(graph);
        let partition = Self::compute(graph, &bridges);
        (bridges, partition)
    }

    /// The assignment of an item. Unknown items default to `(SOURCE, NN)`.
    pub fn assignment(&self, item: ItemId) -> LayerAssignment {
        self.assignments
            .get(item.index())
            .copied()
            .unwrap_or(LayerAssignment {
                domain: DomainId::SOURCE,
                layer: Layer::NonBridgeNonBridge,
            })
    }

    /// The layer of an item.
    pub fn layer(&self, item: ItemId) -> Layer {
        self.assignment(item).layer
    }

    /// The domain of an item as recorded by the partition.
    pub fn domain(&self, item: ItemId) -> DomainId {
        self.assignment(item).domain
    }

    /// Number of items covered by the partition.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Item counts per `(domain, layer)` cell, as `(domain, layer, count)` rows — handy
    /// for experiment reports and sanity checks.
    pub fn cell_counts(&self) -> Vec<(DomainId, Layer, usize)> {
        let mut domains: Vec<DomainId> = self.assignments.iter().map(|a| a.domain).collect();
        domains.sort_unstable();
        domains.dedup();
        let mut rows = Vec::new();
        for d in domains {
            for layer in [
                Layer::BridgeBridge,
                Layer::NonBridgeBridge,
                Layer::NonBridgeNonBridge,
            ] {
                let count = self
                    .assignments
                    .iter()
                    .filter(|a| a.domain == d && a.layer == layer)
                    .count();
                rows.push((d, layer, count));
            }
        }
        rows
    }

    /// The rank of an item's layer along the canonical meta-path direction from
    /// `source_domain` towards the other domain:
    ///
    /// `NN_src = 0, NB_src = 1, BB_src = 2, BB_other = 3, NB_other = 4, NN_other = 5`.
    ///
    /// Meta-paths move along strictly increasing ranks (one item per layer, adjacent
    /// layers only), which is exactly the pruned path structure of Figure 2.
    pub fn path_rank(&self, item: ItemId, source_domain: DomainId) -> u8 {
        let a = self.assignment(item);
        let base = if a.domain == source_domain { 0 } else { 3 };
        let within = match a.layer {
            Layer::NonBridgeNonBridge => {
                if a.domain == source_domain {
                    0
                } else {
                    2
                }
            }
            Layer::NonBridgeBridge => 1,
            Layer::BridgeBridge => {
                if a.domain == source_domain {
                    2
                } else {
                    0
                }
            }
        };
        base + within
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use xmap_cf::RatingMatrixBuilder;

    /// Builds a graph with a clear BB / NB / NN structure in the SOURCE domain:
    /// * item 2 (movie) co-rated with item 3 (book)  -> both BB
    /// * item 1 (movie) co-rated with item 2 (movie) -> NB
    /// * item 0 (movie) co-rated with item 1 only    -> NN
    /// * item 4 (book) co-rated with item 3          -> NB in TARGET
    fn chain_fixture() -> SimilarityGraph {
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(0, 0, 5.0).unwrap();
        b.push_parts(0, 1, 4.0).unwrap(); // connects 0 - 1
        b.push_parts(1, 1, 5.0).unwrap();
        b.push_parts(1, 2, 4.0).unwrap(); // connects 1 - 2
        b.push_parts(2, 2, 5.0).unwrap();
        b.push_parts(2, 3, 4.0).unwrap(); // straddler connects 2 - 3 (cross-domain)
        b.push_parts(3, 3, 5.0).unwrap();
        b.push_parts(3, 4, 4.0).unwrap(); // connects 3 - 4
        for i in 0..3u32 {
            b.set_item_domain(ItemId(i), DomainId::SOURCE);
        }
        for i in 3..5u32 {
            b.set_item_domain(ItemId(i), DomainId::TARGET);
        }
        let m = b.build().unwrap();
        SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        )
    }

    #[test]
    fn chain_is_partitioned_as_expected() {
        let g = chain_fixture();
        let (bridges, partition) = LayerPartition::from_graph(&g);
        assert!(bridges.is_bridge(ItemId(2)));
        assert!(bridges.is_bridge(ItemId(3)));
        assert_eq!(partition.layer(ItemId(2)), Layer::BridgeBridge);
        assert_eq!(partition.layer(ItemId(3)), Layer::BridgeBridge);
        assert_eq!(partition.layer(ItemId(1)), Layer::NonBridgeBridge);
        assert_eq!(partition.layer(ItemId(4)), Layer::NonBridgeBridge);
        assert_eq!(partition.layer(ItemId(0)), Layer::NonBridgeNonBridge);
    }

    #[test]
    fn partition_is_complete_and_disjoint() {
        let g = chain_fixture();
        let (_, partition) = LayerPartition::from_graph(&g);
        assert_eq!(partition.len(), g.n_items());
        // every item appears in exactly one (domain, layer) cell
        let total: usize = partition.cell_counts().iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, g.n_items());
    }

    #[test]
    fn path_ranks_increase_along_the_chain() {
        let g = chain_fixture();
        let (_, partition) = LayerPartition::from_graph(&g);
        let src = DomainId::SOURCE;
        assert_eq!(partition.path_rank(ItemId(0), src), 0); // NN source
        assert_eq!(partition.path_rank(ItemId(1), src), 1); // NB source
        assert_eq!(partition.path_rank(ItemId(2), src), 2); // BB source
        assert_eq!(partition.path_rank(ItemId(3), src), 3); // BB target
        assert_eq!(partition.path_rank(ItemId(4), src), 4); // NB target
                                                            // viewed from the other direction the ranks mirror
        let tgt = DomainId::TARGET;
        assert_eq!(partition.path_rank(ItemId(3), tgt), 2);
        assert_eq!(partition.path_rank(ItemId(2), tgt), 3);
        assert_eq!(partition.path_rank(ItemId(0), tgt), 5);
    }

    #[test]
    fn unknown_item_defaults_to_source_nn() {
        let g = chain_fixture();
        let (_, partition) = LayerPartition::from_graph(&g);
        let a = partition.assignment(ItemId(99));
        assert_eq!(a.layer, Layer::NonBridgeNonBridge);
        assert_eq!(a.domain, DomainId::SOURCE);
        assert!(!partition.is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Layer::BridgeBridge.label(), "BB");
        assert_eq!(Layer::NonBridgeBridge.label(), "NB");
        assert_eq!(Layer::NonBridgeNonBridge.label(), "NN");
    }
}
