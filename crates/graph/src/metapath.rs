//! Meta-path hops with layer-based pruning (Definition 3, §3.2 and §5.2).
//!
//! A meta-path between two items consists of at most one item from each of the six
//! layers, moving across *adjacent* layers only:
//!
//! ```text
//! NN_src ↔ NB_src ↔ BB_src ↔ BB_tgt ↔ NB_tgt ↔ NN_tgt
//! ```
//!
//! Each hop (a) follows an edge of the baseline similarity graph, (b) moves to the
//! *next* layer rank ([`crate::LayerPartition::path_rank`]), and (c) is one of the
//! `per_layer_top_k` strongest such edges — the "top-k items from every neighbouring
//! layer" pruning that the extender applies (§5.2). [`HopTable`] applies (a)–(c) once
//! per graph, so a walk from any start item only follows the table.

use crate::graph::SimilarityGraph;
use crate::layers::LayerPartition;
use serde::{Deserialize, Serialize};
use xmap_cf::{DomainId, ItemId};

/// Configuration of meta-path enumeration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MetaPathConfig {
    /// Per-hop fan-out: only the `per_layer_top_k` strongest edges into the next layer
    /// are followed.
    pub per_layer_top_k: usize,
    /// Upper bound on the number of paths collected per starting item (a safety valve for
    /// pathological graphs; the layer structure already bounds path length at 6).
    pub max_paths: usize,
}

impl Default for MetaPathConfig {
    fn default() -> Self {
        MetaPathConfig {
            per_layer_top_k: 10,
            max_paths: 10_000,
        }
    }
}

/// One pruned hop of a meta-path: the next item and what the hop adds to the path's
/// running aggregates (Definitions 3–5), read once from the edge it follows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hop {
    /// The next item, one layer rank further from the source domain.
    pub to: ItemId,
    /// Whether `to` lies outside the source domain, so a path ending there counts.
    pub crosses: bool,
    /// Weighted significance `S` of the edge (Definition 2).
    pub significance: f64,
    /// `S · s_ac`: the hop's addend of the path-similarity numerator (Definition 3).
    pub weighted_similarity: f64,
    /// Normalised weighted significance `Ŝ` (Definition 4): the hop's certainty factor.
    pub certainty: f64,
}

/// Every item's pruned hops away from one source domain, tabulated once per graph:
/// an item of rank `r < 5` holds the first `per_layer_top_k` of its edges into rank
/// `r + 1`, in the arena's similarity order; an item of rank 5 (the far NN layer)
/// holds none. Ranks strictly increase along a path, so no walk over the table can
/// revisit an item.
#[derive(Clone, Debug)]
pub struct HopTable {
    /// `hops[offsets[i]..offsets[i + 1]]` are item `i`'s hops.
    offsets: Vec<u32>,
    hops: Vec<Hop>,
}

impl HopTable {
    /// Tabulates the hops of every item of `graph` under `partition`'s layer ranks,
    /// oriented away from `source_domain`.
    pub fn build(
        graph: &SimilarityGraph,
        partition: &LayerPartition,
        source_domain: DomainId,
        per_layer_top_k: usize,
    ) -> Self {
        let ranks: Vec<u8> = graph
            .items()
            .map(|i| partition.path_rank(i, source_domain))
            .collect();
        let mut offsets = Vec::with_capacity(ranks.len() + 1);
        offsets.push(0);
        let mut hops = Vec::new();
        for (item, &rank) in graph.items().zip(&ranks) {
            if rank < 5 {
                let view = graph.neighbors(item);
                let next = view
                    .by_similarity()
                    .filter(|e| ranks[e.to.index()] == rank + 1)
                    .take(per_layer_top_k);
                hops.extend(next.map(|e| {
                    let significance = f64::from(e.stats.significance);
                    Hop {
                        to: e.to,
                        crosses: partition.domain(e.to) != source_domain,
                        significance,
                        weighted_similarity: significance * e.stats.similarity,
                        certainty: e.normalized_significance(),
                    }
                }));
            }
            offsets.push(hops.len() as u32);
        }
        HopTable { offsets, hops }
    }

    /// The hops of `item`, strongest first; none for an id outside the graph.
    pub fn hops(&self, item: ItemId) -> &[Hop] {
        match (
            self.offsets.get(item.index()),
            self.offsets.get(item.index() + 1),
        ) {
            (Some(&start), Some(&end)) => &self.hops[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// On-disk codec for [`MetaPathConfig`], field order. Lives in this crate because
/// both the type and the `Codec` trait are foreign to `xmap-core`.
impl xmap_store::Codec for MetaPathConfig {
    fn enc(&self, e: &mut xmap_store::Encoder) {
        e.put_usize(self.per_layer_top_k);
        e.put_usize(self.max_paths);
    }

    fn dec(d: &mut xmap_store::Decoder<'_>) -> std::result::Result<Self, xmap_store::StoreError> {
        Ok(MetaPathConfig {
            per_layer_top_k: d.take_usize()?,
            max_paths: d.take_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use crate::layers::LayerPartition;
    use proptest::prelude::*;
    use xmap_cf::RatingMatrixBuilder;

    /// The chain 0(NN_S) - 1(NB_S) - 2(BB_S) - 3(BB_T) - 4(NB_T) - 5(NN_T).
    fn chain() -> (SimilarityGraph, LayerPartition) {
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(0, 0, 5.0).unwrap();
        b.push_parts(0, 1, 4.0).unwrap();
        b.push_parts(1, 1, 5.0).unwrap();
        b.push_parts(1, 2, 4.0).unwrap();
        b.push_parts(2, 2, 5.0).unwrap();
        b.push_parts(2, 3, 4.0).unwrap();
        b.push_parts(3, 3, 5.0).unwrap();
        b.push_parts(3, 4, 4.0).unwrap();
        b.push_parts(4, 4, 5.0).unwrap();
        b.push_parts(4, 5, 4.0).unwrap();
        for i in 0..3u32 {
            b.set_item_domain(ItemId(i), DomainId::SOURCE);
        }
        for i in 3..6u32 {
            b.set_item_domain(ItemId(i), DomainId::TARGET);
        }
        let m = b.build().unwrap();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        let (_, p) = LayerPartition::from_graph(&g);
        (g, p)
    }

    /// The hops the pruning rule defines for `item`, re-derived from the graph: the
    /// first `k` edges in similarity order whose far end has the next layer rank.
    fn pruned_edges(
        g: &SimilarityGraph,
        p: &LayerPartition,
        item: ItemId,
        source: DomainId,
        k: usize,
    ) -> Vec<ItemId> {
        let rank = p.path_rank(item, source);
        if rank >= 5 {
            return Vec::new();
        }
        g.neighbors(item)
            .by_similarity()
            .filter(|e| p.path_rank(e.to, source) == rank + 1)
            .take(k)
            .map(|e| e.to)
            .collect()
    }

    #[test]
    fn full_chain_is_enumerated_from_the_nn_layer() {
        let (g, p) = chain();
        let table = HopTable::build(&g, &p, DomainId::SOURCE, 10);
        // following the table from the NN item crosses every layer once
        let mut walk = vec![ItemId(0)];
        while let [hop] = table.hops(*walk.last().unwrap()) {
            assert_eq!(hop.crosses, p.domain(hop.to) == DomainId::TARGET);
            walk.push(hop.to);
        }
        assert_eq!(walk, (0..6).map(ItemId).collect::<Vec<_>>());
        assert!(
            table.hops(ItemId(5)).is_empty(),
            "the far NN layer is terminal"
        );
    }

    #[test]
    fn paths_visit_each_layer_at_most_once_with_increasing_rank() {
        let (g, p) = chain();
        for source in [DomainId::SOURCE, DomainId::TARGET] {
            let table = HopTable::build(&g, &p, source, 10);
            for item in g.items() {
                for hop in table.hops(item) {
                    assert_eq!(p.path_rank(hop.to, source), p.path_rank(item, source) + 1);
                    assert_eq!(hop.crosses, p.domain(hop.to) != source);
                }
            }
        }
    }

    #[test]
    fn bridge_item_reaches_target_in_a_single_hop() {
        let (g, p) = chain();
        let table = HopTable::build(&g, &p, DomainId::SOURCE, 10);
        assert!(table
            .hops(ItemId(2))
            .iter()
            .any(|hop| hop.to == ItemId(3) && hop.crosses));
    }

    #[test]
    fn per_layer_top_k_limits_fanout() {
        // Build a star: bridge item 0 (SOURCE) connected to many TARGET bridge items.
        let mut b = RatingMatrixBuilder::new();
        for t in 0..8u32 {
            // user t rates source item 0 and target item 1 + t
            b.push_parts(t, 0, 5.0).unwrap();
            b.push_parts(t, 1 + t, ((t % 5) + 1) as f64).unwrap();
        }
        b.set_item_domain(ItemId(0), DomainId::SOURCE);
        for t in 0..8u32 {
            b.set_item_domain(ItemId(1 + t), DomainId::TARGET);
        }
        let m = b.build().unwrap();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        let (_, p) = LayerPartition::from_graph(&g);
        let narrow = HopTable::build(&g, &p, DomainId::SOURCE, 3);
        let wide = HopTable::build(&g, &p, DomainId::SOURCE, 100);
        // every edge of the source item leads into the target domain's bridge layer
        assert!(g.degree(ItemId(0)) > 3);
        assert_eq!(narrow.hops(ItemId(0)).len(), 3);
        assert_eq!(wide.hops(ItemId(0)).len(), g.degree(ItemId(0)));
        assert_eq!(narrow.hops(ItemId(0)), &wide.hops(ItemId(0))[..3]);
    }

    proptest! {
        /// On random two-domain matrices, from either domain and at any fan-out, every
        /// item's hops are the pruned edges the rule defines, in similarity order, each
        /// carrying its edge's statistics bit for bit; ids past the graph have none.
        #[test]
        fn path_invariants(
            ratings in proptest::collection::vec((0u32..10, 0u32..12, 1u32..=5), 10..150),
            k in 1usize..=4,
            from_target in 0u32..2,
        ) {
            let mut b = RatingMatrixBuilder::new();
            for (u, i, v) in &ratings {
                b.push_parts(*u, *i, *v as f64).unwrap();
            }
            for i in 0..12u32 {
                let d = if i < 6 { DomainId::SOURCE } else { DomainId::TARGET };
                b.set_item_domain(ItemId(i), d);
            }
            let m = b.build().unwrap();
            let g = SimilarityGraph::build(&m, GraphConfig { top_k: Some(5), ..Default::default() });
            let (_, p) = LayerPartition::from_graph(&g);
            let source = if from_target == 1 { DomainId::TARGET } else { DomainId::SOURCE };
            let table = HopTable::build(&g, &p, source, k);
            for item in g.items() {
                let hops = table.hops(item);
                let to: Vec<ItemId> = hops.iter().map(|h| h.to).collect();
                prop_assert_eq!(to, pruned_edges(&g, &p, item, source, k));
                for hop in hops {
                    let edge = g.edge_between(item, hop.to).unwrap();
                    let s = f64::from(edge.stats.significance);
                    prop_assert_eq!(hop.significance.to_bits(), s.to_bits());
                    prop_assert_eq!(hop.weighted_similarity.to_bits(), (s * edge.stats.similarity).to_bits());
                    prop_assert_eq!(hop.certainty.to_bits(), edge.normalized_significance().to_bits());
                    prop_assert_eq!(hop.crosses, p.domain(hop.to) != source);
                }
            }
            prop_assert!(table.hops(ItemId(g.n_items() as u32)).is_empty());
        }
    }
}
