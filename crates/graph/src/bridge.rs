//! Bridge-item detection (§3.2 of the paper).
//!
//! A *bridge item* is any item `i` of a domain `D` that connects — through the baseline
//! similarity graph, i.e. through users who rated in both domains — to some item `j` of
//! another domain `D'`. Both endpoints of such a cross-domain edge are bridge items.
//! Every other item is a *non-bridge item*. Bridge items are the anchors of the layer
//! partition (BB/NB/NN) and therefore of meta-path pruning.

use crate::graph::SimilarityGraph;
use serde::{Deserialize, Serialize};
use xmap_cf::ItemId;

/// Precomputed bridge flags for every item of the similarity graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BridgeIndex {
    is_bridge: Vec<bool>,
}

impl BridgeIndex {
    /// Scans the graph and marks every item that has at least one cross-domain edge.
    pub fn from_graph(graph: &SimilarityGraph) -> Self {
        let mut is_bridge = vec![false; graph.n_items()];
        for i in graph.items() {
            let di = graph.item_domain(i);
            for &to in graph.neighbors(i).ids() {
                if graph.item_domain(to) != di {
                    // both endpoints of a cross-domain pair are bridges by definition
                    is_bridge[i.index()] = true;
                    is_bridge[to.index()] = true;
                }
            }
        }
        BridgeIndex { is_bridge }
    }

    /// Whether the item is a bridge item. Unknown items are non-bridge.
    pub fn is_bridge(&self, item: ItemId) -> bool {
        self.is_bridge.get(item.index()).copied().unwrap_or(false)
    }

    /// Number of items covered by the index.
    pub fn len(&self) -> usize {
        self.is_bridge.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.is_bridge.is_empty()
    }

    /// Number of bridge items.
    pub fn n_bridges(&self) -> usize {
        self.is_bridge.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use xmap_cf::{DomainId, RatingMatrixBuilder};

    fn two_domain_fixture() -> SimilarityGraph {
        let mut b = RatingMatrixBuilder::new();
        // Movies 0-2, books 3-5. User 0 straddles via items 1 and 3.
        b.push_parts(0, 1, 5.0).unwrap();
        b.push_parts(0, 3, 4.0).unwrap();
        b.push_parts(1, 0, 4.0).unwrap();
        b.push_parts(1, 1, 5.0).unwrap();
        b.push_parts(2, 3, 3.0).unwrap();
        b.push_parts(2, 4, 4.0).unwrap();
        b.push_parts(3, 2, 2.0).unwrap(); // item 2 rated by a single user: isolated
        b.push_parts(4, 5, 5.0).unwrap(); // item 5 isolated in books
        for i in 0..3u32 {
            b.set_item_domain(ItemId(i), DomainId::SOURCE);
        }
        for i in 3..6u32 {
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
    fn straddler_items_are_bridges() {
        let g = two_domain_fixture();
        let idx = BridgeIndex::from_graph(&g);
        assert!(
            idx.is_bridge(ItemId(1)),
            "movie co-rated with a book must be a bridge"
        );
        assert!(
            idx.is_bridge(ItemId(3)),
            "book co-rated with a movie must be a bridge"
        );
    }

    #[test]
    fn isolated_and_intra_domain_items_are_not_bridges() {
        let g = two_domain_fixture();
        let idx = BridgeIndex::from_graph(&g);
        assert!(
            !idx.is_bridge(ItemId(2)),
            "item with a single rater is not a bridge"
        );
        assert!(
            !idx.is_bridge(ItemId(5)),
            "item only co-rated within its domain is not a bridge"
        );
        assert!(
            !idx.is_bridge(ItemId(0)),
            "item 0 is only connected to item 1 (same domain)"
        );
        assert!(!idx.is_bridge(ItemId(99)), "unknown items are non-bridge");
    }

    #[test]
    fn single_domain_graph_has_no_bridges() {
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(0, 0, 4.0).unwrap();
        b.push_parts(0, 1, 5.0).unwrap();
        b.push_parts(1, 0, 3.0).unwrap();
        b.push_parts(1, 1, 4.0).unwrap();
        let m = b.build().unwrap();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        let idx = BridgeIndex::from_graph(&g);
        assert_eq!(idx.n_bridges(), 0);
    }
}
