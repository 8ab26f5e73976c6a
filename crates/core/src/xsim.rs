//! The X-Sim meta-path-based similarity metric (§3.3, Definitions 2–6).
//!
//! For a pair of heterogeneous items `(i, j)`:
//!
//! * each meta-path `p = i_1 ↔ … ↔ i_k` between them gets a **path similarity**
//!   `s_p = Σ_t S_{t,t+1} · s_ac(t, t+1) / Σ_t S_{t,t+1}` — the significance-weighted mean
//!   of the baseline similarities along the path (Definition 3's weighting), and a
//! * **path certainty** `c_p = Π_t Ŝ_{t,t+1}` — the product of normalised weighted
//!   significances, which automatically penalises long paths (Definition 5);
//! * **X-Sim(i, j)** is the certainty-weighted mean of the path similarities over all
//!   meta-paths between `i` and `j` (Definition 6). Items that share a direct baseline
//!   edge keep that baseline similarity (the meta-path machinery only fills in pairs
//!   that are *not* directly connected, §3.3).
//!
//! The [`XSimTable`] holds, for every source-domain item, its reachable target-domain
//! items with X-Sim values — exactly what the extender hands to the generator (§5.2).
//!
//! Two computation paths produce identical rows:
//!
//! * `XSimTable::compute` — the reference per-pair path: meta-paths are materialised
//!   by a scanning enumerator and every hop's statistics are re-resolved through
//!   [`SimilarityGraph::edge_between`]. This is the historical implementation, kept in
//!   this module's tests as the equivalence oracle.
//! * `XSimTable::build` — the production path, for a fit and a delta alike: the
//!   graph's pruned hops are tabulated once ([`HopTable`]), then every source item's
//!   row is processed in dataflow partitions, each partition walking a **frontier
//!   expansion** over that table. The walk carries the running path-similarity
//!   numerator/denominator and certainty product along the DFS, accumulating
//!   per-destination sums in scratch buffers reused across the partition's source
//!   items — no path materialisation and no per-hop edge re-resolution.

use serde::{Deserialize, Serialize};
use xmap_cf::{DomainId, ItemId};
use xmap_engine::StageContext;
use xmap_graph::{HopTable, LayerPartition, MetaPathConfig, SimilarityGraph};

/// One heterogeneous similarity entry: a target-domain item with its X-Sim value.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct XSimEntry {
    /// The reachable item in the other domain.
    pub item: ItemId,
    /// X-Sim value in `[-1, 1]`.
    pub similarity: f64,
    /// Certainty of the value in `[0, 1]`: the normalised weighted significance `Ŝ` of
    /// the direct edge, or the (capped) sum of path certainties for meta-path pairs.
    /// This is the paper's own "how much should this similarity be trusted" signal
    /// (Definitions 4–5); the generator ranks replacement candidates by
    /// [`XSimEntry::weighted_similarity`] so that a 1-co-rater similarity of 1.0 does not
    /// outrank a 20-co-rater similarity of 0.7.
    pub certainty: f64,
    /// Number of meta-paths that contributed (1 for directly connected pairs).
    pub n_paths: usize,
}

impl XSimEntry {
    /// Certainty-weighted similarity used to rank replacement candidates.
    pub fn weighted_similarity(&self) -> f64 {
        self.similarity * self.certainty
    }
}

/// The cross-domain X-Sim table: for every source item, its reachable target items.
///
/// Rows are indexed by item id, and the table ends at its last non-empty row, so
/// `PartialEq` compares every row exactly — it is what the delta-fit equivalence gate
/// holds a delta's table against a refit's.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct XSimTable {
    rows: Vec<Vec<XSimEntry>>,
    source_domain: Option<DomainId>,
}

/// Per-partition scratch for the batched frontier expansion: per-destination
/// accumulators indexed by dense item id, reset in `O(touched)` between source items.
struct FrontierScratch {
    /// Σ certainty · path-similarity over valid paths, per destination.
    acc_num: Vec<f64>,
    /// Σ certainty over valid paths (the Definition 6 denominator), per destination.
    acc_den: Vec<f64>,
    /// Σ certainty over *all* paths (the entry's certainty before the cap), per destination.
    acc_certainty: Vec<f64>,
    /// Number of paths reaching each destination (valid or not).
    acc_paths: Vec<u32>,
    /// Destinations touched by the current source item.
    touched: Vec<ItemId>,
    /// Paths recorded so far for the current source item (the `max_paths` budget).
    recorded: usize,
}

impl FrontierScratch {
    fn new(n_items: usize) -> Self {
        FrontierScratch {
            acc_num: vec![0.0; n_items],
            acc_den: vec![0.0; n_items],
            acc_certainty: vec![0.0; n_items],
            acc_paths: vec![0; n_items],
            touched: Vec::new(),
            recorded: 0,
        }
    }

    fn reset(&mut self) {
        for dest in self.touched.drain(..) {
            let ix = dest.index();
            self.acc_num[ix] = 0.0;
            self.acc_den[ix] = 0.0;
            self.acc_certainty[ix] = 0.0;
            self.acc_paths[ix] = 0;
        }
        self.recorded = 0;
    }

    fn record_path(&mut self, dest: ItemId, num: f64, den: f64, certainty: f64) {
        let ix = dest.index();
        if self.acc_paths[ix] == 0 {
            self.touched.push(dest);
        }
        self.acc_paths[ix] += 1;
        self.acc_certainty[ix] += certainty;
        if certainty > 0.0 && den > 0.0 {
            self.acc_num[ix] += certainty * (num / den);
            self.acc_den[ix] += certainty;
        }
        self.recorded += 1;
    }
}

/// DFS over the pruned hops, mirroring the meta-path enumeration but carrying the
/// running path aggregates instead of materialising paths: `num`/`den` are the
/// significance-weighted similarity sums along the current path (Definition 3) and
/// `certainty` the product of normalised significances (Definition 5). Each hop's
/// addends were read once from its edge when the table was built.
fn frontier_dfs(
    hops: &HopTable,
    max_paths: usize,
    here: ItemId,
    (num, den, certainty): (f64, f64, f64),
    scratch: &mut FrontierScratch,
) {
    for hop in hops.hops(here) {
        if scratch.recorded >= max_paths {
            break;
        }
        let next = (
            num + hop.weighted_similarity,
            den + hop.significance,
            certainty * hop.certainty,
        );
        if hop.crosses {
            scratch.record_path(hop.to, next.0, next.1, next.2);
        }
        frontier_dfs(hops, max_paths, hop.to, next, scratch);
    }
}

impl XSimTable {
    /// Computes the table of `graph` and its `partition` — the extender: every source
    /// item's row, by frontier expansion over the graph's [`HopTable`], built once.
    ///
    /// The source items are split into the dataflow's partitions; each partition is one
    /// pool task that reuses a `FrontierScratch` across its items and records the work
    /// estimate `Σ (1 + degree + candidates)` on the running stage's ledger, so the
    /// cluster simulator replays exactly this step's task bag. The table is
    /// **bit-identical** to the per-pair reference at any worker count, and ends at its
    /// last connected item.
    pub(crate) fn build(
        graph: &SimilarityGraph,
        partition: &LayerPartition,
        source_domain: DomainId,
        metapath: MetaPathConfig,
        cx: &mut StageContext<'_>,
    ) -> Self {
        let rows: Vec<ItemId> = graph
            .items()
            .filter(|&i| graph.item_domain(i) == source_domain)
            .collect();
        let hops = HopTable::build(graph, partition, source_domain, metapath.per_layer_top_k);
        let per_partition = cx.map_partitions(
            rows,
            |item| item.0,
            |_ix, items| {
                if items.is_empty() {
                    return (Vec::new(), 0.0);
                }
                let mut scratch = FrontierScratch::new(graph.n_items());
                let mut out: Vec<(ItemId, Vec<XSimEntry>)> = Vec::new();
                let mut cost = 0.0f64;
                for &item in items {
                    let entries = Self::batched_entries_for_item(
                        graph,
                        &hops,
                        item,
                        source_domain,
                        metapath.max_paths,
                        &mut scratch,
                    );
                    cost += 1.0 + graph.degree(item) as f64 + entries.len() as f64;
                    if !entries.is_empty() {
                        out.push((item, entries));
                    }
                }
                (out, cost)
            },
        );
        Self::from_rows(per_partition.into_iter().flatten(), source_domain)
    }

    /// The table of the non-empty `(item, row)` pairs, each item once.
    fn from_rows(
        rows: impl Iterator<Item = (ItemId, Vec<XSimEntry>)>,
        source_domain: DomainId,
    ) -> Self {
        let mut table = XSimTable {
            rows: Vec::new(),
            source_domain: Some(source_domain),
        };
        for (item, row) in rows.filter(|(_, row)| !row.is_empty()) {
            if table.rows.len() <= item.index() {
                table.rows.resize(item.index() + 1, Vec::new());
            }
            table.rows[item.index()] = row;
        }
        table
    }

    /// One source item of the batched path: frontier expansion into `scratch`, then
    /// entry emission. Produces exactly the entries of the test oracle's `entries_for_item`.
    fn batched_entries_for_item(
        graph: &SimilarityGraph,
        hops: &HopTable,
        item: ItemId,
        source_domain: DomainId,
        max_paths: usize,
        scratch: &mut FrontierScratch,
    ) -> Vec<XSimEntry> {
        scratch.reset();
        frontier_dfs(hops, max_paths, item, (0.0, 0.0, 1.0), scratch);

        // Direct heterogeneous edges keep their baseline similarity (the meta-path
        // accumulators only fill in pairs without a direct edge, §3.3).
        let mut entries: Vec<XSimEntry> = Vec::new();
        for e in graph.neighbors(item).iter() {
            if graph.item_domain(e.to) != source_domain {
                entries.push(XSimEntry {
                    item: e.to,
                    similarity: e.stats.similarity,
                    certainty: e.normalized_significance(),
                    n_paths: 1,
                });
            }
        }
        for &dest in &scratch.touched {
            if graph.edge_between(item, dest).is_some() {
                continue; // direct pairs already emitted
            }
            let ix = dest.index();
            if scratch.acc_den[ix] > 0.0 {
                entries.push(XSimEntry {
                    item: dest,
                    similarity: (scratch.acc_num[ix] / scratch.acc_den[ix]).clamp(-1.0, 1.0),
                    certainty: scratch.acc_certainty[ix].min(1.0),
                    n_paths: scratch.acc_paths[ix] as usize,
                });
            }
        }
        entries.sort_by(|a, b| {
            b.weighted_similarity()
                .partial_cmp(&a.weighted_similarity())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.cmp(&b.item))
        });
        entries
    }

    /// The source domain the table was computed for.
    pub fn source_domain(&self) -> Option<DomainId> {
        self.source_domain
    }

    /// The heterogeneous candidates of a source item, best first. Empty if the item has
    /// no cross-domain connectivity at all.
    pub fn candidates(&self, item: ItemId) -> &[XSimEntry] {
        self.rows.get(item.index()).map_or(&[], Vec::as_slice)
    }

    /// The best heterogeneous match of a source item (highest certainty-weighted X-Sim).
    pub fn best_match(&self, item: ItemId) -> Option<XSimEntry> {
        self.candidates(item).first().copied()
    }

    /// Number of source items with at least one heterogeneous candidate.
    pub fn n_connected_items(&self) -> usize {
        self.rows.iter().filter(|row| !row.is_empty()).count()
    }

    /// Total number of heterogeneous `(source item, target item)` pairs with an X-Sim
    /// value — the "meta-path-based" bar of Figure 1(b).
    pub fn n_heterogeneous_pairs(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Iterates over all `(source item, candidates)` pairs with a candidate, in
    /// ascending source-item order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &[XSimEntry])> + '_ {
        let rows = self.rows.iter().enumerate();
        let rows = rows.filter(|(_, row)| !row.is_empty());
        rows.map(|(ix, row)| (ItemId(ix as u32), row.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use xmap_cf::RatingMatrixBuilder;
    use xmap_dataset::toy::{items, ToyScenario};
    use xmap_engine::WorkerPool;
    use xmap_graph::GraphConfig;

    /// A materialised meta-path: the ordered sequence of items visited, starting at the
    /// source item; always at least two items (one hop).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct MetaPath {
        items: Vec<ItemId>,
    }

    impl MetaPath {
        fn source(&self) -> ItemId {
            self.items[0]
        }

        fn destination(&self) -> ItemId {
            *self.items.last().unwrap()
        }

        fn n_hops(&self) -> usize {
            self.items.len().saturating_sub(1)
        }

        /// Consecutive item pairs (the edges of the path).
        fn hops(&self) -> impl Iterator<Item = (ItemId, ItemId)> + '_ {
            self.items.windows(2).map(|w| (w[0], w[1]))
        }
    }

    /// The reference enumeration: every pruned meta-path from `start` (an item of
    /// `source_domain`) to an item of the other domain, reported as soon as it reaches
    /// one (the walk continues deeper), at most `config.max_paths` of them. Its DFS
    /// scans each visited item's whole similarity-ordered adjacency for edges into the
    /// next layer rank and skips items already on the path — the pruning rule derived
    /// afresh at every visit, independently of [`HopTable`].
    fn enumerate_cross_domain_paths(
        graph: &SimilarityGraph,
        partition: &LayerPartition,
        start: ItemId,
        source_domain: DomainId,
        config: MetaPathConfig,
    ) -> Vec<MetaPath> {
        let mut paths = Vec::new();
        let mut current = vec![start];
        scan_dfs(
            graph,
            partition,
            source_domain,
            config,
            &mut current,
            &mut paths,
        );
        paths
    }

    fn scan_dfs(
        graph: &SimilarityGraph,
        partition: &LayerPartition,
        source_domain: DomainId,
        config: MetaPathConfig,
        current: &mut Vec<ItemId>,
        paths: &mut Vec<MetaPath>,
    ) {
        if paths.len() >= config.max_paths {
            return;
        }
        let here = *current.last().unwrap();
        let here_rank = partition.path_rank(here, source_domain);
        if here_rank >= 5 {
            return; // the far NN layer is terminal
        }
        let mut taken = 0usize;
        for edge in graph.neighbors(here).by_similarity() {
            if taken >= config.per_layer_top_k || paths.len() >= config.max_paths {
                break;
            }
            let next = edge.to;
            if current.contains(&next) || partition.path_rank(next, source_domain) != here_rank + 1
            {
                continue;
            }
            taken += 1;
            current.push(next);
            if partition.domain(next) != source_domain {
                paths.push(MetaPath {
                    items: current.clone(),
                });
            }
            scan_dfs(graph, partition, source_domain, config, current, paths);
            current.pop();
        }
    }

    /// Path similarity `s_p` of a meta-path (significance-weighted mean of hop similarities).
    /// Returns `None` when the path contains a hop with zero significance weight everywhere
    /// (no mutual like/dislike on any hop), in which case the path carries no signal.
    fn path_similarity(graph: &SimilarityGraph, path: &MetaPath) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in path.hops() {
            let edge = graph.edge_between(a, b)?;
            let s = f64::from(edge.stats.significance);
            num += s * edge.stats.similarity;
            den += s;
        }
        if den <= 0.0 {
            None
        } else {
            Some(num / den)
        }
    }

    /// Path certainty `c_p` of a meta-path (product of normalised weighted significances).
    fn path_certainty(graph: &SimilarityGraph, path: &MetaPath) -> f64 {
        let mut certainty = 1.0;
        for (a, b) in path.hops() {
            let edge = match graph.edge_between(a, b) {
                Some(e) => e,
                None => return 0.0,
            };
            certainty *= edge.normalized_significance();
        }
        certainty
    }

    /// Aggregates a set of meta-paths that share the same endpoints into an X-Sim value
    /// (Definition 6). Returns `None` when no path carries certainty or signal.
    fn aggregate_paths(graph: &SimilarityGraph, paths: &[&MetaPath]) -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0.0;
        for path in paths {
            let certainty = path_certainty(graph, path);
            if certainty <= 0.0 {
                continue;
            }
            if let Some(sim) = path_similarity(graph, path) {
                num += certainty * sim;
                den += certainty;
            }
        }
        if den <= 0.0 {
            None
        } else {
            Some((num / den).clamp(-1.0, 1.0))
        }
    }

    impl XSimTable {
        /// Computes the table for every item of `source_domain` through the reference
        /// per-pair path: meta-paths are materialised and re-aggregated per destination.
        /// The per-item work is independent, so it is distributed over `pool`.
        ///
        /// [`XSimTable::build`] produces the identical table via frontier expansion and
        /// is what the pipeline's extender step runs; this is the equivalence oracle,
        /// compiled for tests only.
        pub(crate) fn compute(
            graph: &SimilarityGraph,
            partition: &LayerPartition,
            source_domain: DomainId,
            metapath: MetaPathConfig,
            pool: &WorkerPool,
        ) -> Self {
            let source_items: Vec<ItemId> = graph
                .items()
                .filter(|&i| graph.item_domain(i) == source_domain)
                .collect();

            let per_item: Vec<(ItemId, Vec<XSimEntry>)> =
                pool.parallel_map(&source_items, |&item| {
                    (
                        item,
                        Self::entries_for_item(graph, partition, item, source_domain, metapath),
                    )
                });

            Self::from_rows(per_item.into_iter(), source_domain)
        }

        fn entries_for_item(
            graph: &SimilarityGraph,
            partition: &LayerPartition,
            item: ItemId,
            source_domain: DomainId,
            metapath: MetaPathConfig,
        ) -> Vec<XSimEntry> {
            // Direct heterogeneous edges keep their baseline similarity, with the edge's
            // normalised weighted significance as the certainty.
            let mut direct: BTreeMap<ItemId, (f64, f64)> = BTreeMap::new();
            for e in graph.neighbors(item).iter() {
                if graph.item_domain(e.to) != source_domain {
                    direct.insert(e.to, (e.stats.similarity, e.normalized_significance()));
                }
            }

            // Meta-paths fill in the pairs that are not directly connected.
            let paths =
                enumerate_cross_domain_paths(graph, partition, item, source_domain, metapath);
            let mut by_destination: BTreeMap<ItemId, Vec<&MetaPath>> = BTreeMap::new();
            for p in &paths {
                by_destination.entry(p.destination()).or_default().push(p);
            }

            let mut entries: Vec<XSimEntry> = Vec::new();
            for (&dest, &(sim, certainty)) in &direct {
                entries.push(XSimEntry {
                    item: dest,
                    similarity: sim,
                    certainty,
                    n_paths: 1,
                });
            }
            for (dest, dest_paths) in by_destination {
                if direct.contains_key(&dest) {
                    continue;
                }
                if let Some(similarity) = aggregate_paths(graph, &dest_paths) {
                    let certainty = dest_paths
                        .iter()
                        .map(|p| path_certainty(graph, p))
                        .sum::<f64>()
                        .min(1.0);
                    entries.push(XSimEntry {
                        item: dest,
                        similarity,
                        certainty,
                        n_paths: dest_paths.len(),
                    });
                }
            }
            entries.sort_by(|a, b| {
                b.weighted_similarity()
                    .partial_cmp(&a.weighted_similarity())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.item.cmp(&b.item))
            });
            entries
        }
    }

    fn toy_graph() -> (SimilarityGraph, LayerPartition) {
        let toy = ToyScenario::build();
        let graph = SimilarityGraph::build(
            &toy.matrix,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        let (_, partition) = LayerPartition::from_graph(&graph);
        (graph, partition)
    }

    #[test]
    fn interstellar_reaches_the_forever_war_via_meta_paths() {
        let (graph, partition) = toy_graph();
        let table = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        // The motivating example: Interstellar has no direct similarity with The Forever
        // War, but X-Sim connects them through Inception.
        let cands = table.candidates(items::INTERSTELLAR);
        assert!(
            cands.iter().any(|e| e.item == items::THE_FOREVER_WAR),
            "Interstellar should reach The Forever War, got {cands:?}"
        );
        assert_eq!(table.source_domain(), Some(DomainId::SOURCE));
    }

    #[test]
    fn meta_paths_add_pairs_beyond_direct_edges() {
        let (graph, partition) = toy_graph();
        let table = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        let standard = graph.n_heterogeneous_pairs();
        let metapath_based = table.n_heterogeneous_pairs();
        assert!(
            metapath_based > standard,
            "meta-paths should add heterogeneous similarities: {metapath_based} vs {standard}"
        );
    }

    #[test]
    fn direct_edges_keep_their_baseline_similarity() {
        let (graph, partition) = toy_graph();
        let table = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        // Inception and The Forever War are directly connected through Cecilia.
        if let Some(direct_edge) = graph.edge_between(items::INCEPTION, items::THE_FOREVER_WAR) {
            let entry = table
                .candidates(items::INCEPTION)
                .iter()
                .find(|e| e.item == items::THE_FOREVER_WAR)
                .copied()
                .expect("directly connected pair must appear in the table");
            assert!((entry.similarity - direct_edge.stats.similarity).abs() < 1e-12);
            assert_eq!(entry.n_paths, 1);
        }
    }

    #[test]
    fn xsim_values_are_bounded_and_sorted() {
        let (graph, partition) = toy_graph();
        let table = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(2),
        );
        for (_, cands) in table.iter() {
            for w in cands.windows(2) {
                assert!(w[0].weighted_similarity() >= w[1].weighted_similarity());
            }
            for e in cands {
                assert!((-1.0..=1.0).contains(&e.similarity));
                assert!((0.0..=1.0).contains(&e.certainty));
                assert!(e.weighted_similarity().abs() <= e.similarity.abs() + 1e-12);
                assert!(e.n_paths >= 1);
            }
        }
        assert!(
            table.n_connected_items() <= 3,
            "only source items can be table keys"
        );
    }

    #[test]
    fn path_certainty_penalises_longer_paths() {
        let (graph, partition) = toy_graph();
        // enumerate the paths from Interstellar; any 2-hop path must have certainty no
        // larger than the certainty of its 1-hop prefix (certainties multiply factors <= 1)
        let paths = enumerate_cross_domain_paths(
            &graph,
            &partition,
            items::INTERSTELLAR,
            DomainId::SOURCE,
            MetaPathConfig::default(),
        );
        for p in &paths {
            let c = path_certainty(&graph, p);
            assert!((0.0..=1.0).contains(&c));
            if p.n_hops() >= 2 {
                let prefix = MetaPath {
                    items: p.items[..2].to_vec(),
                };
                assert!(c <= path_certainty(&graph, &prefix) + 1e-12);
            }
        }
    }

    #[test]
    fn path_similarity_is_weighted_mean_of_hop_similarities() {
        let (graph, _) = toy_graph();
        let path = MetaPath {
            items: vec![
                items::INTERSTELLAR,
                items::INCEPTION,
                items::THE_FOREVER_WAR,
            ],
        };
        if let Some(sp) = path_similarity(&graph, &path) {
            let s1 = graph
                .edge_between(items::INTERSTELLAR, items::INCEPTION)
                .unwrap()
                .stats
                .similarity;
            let s2 = graph
                .edge_between(items::INCEPTION, items::THE_FOREVER_WAR)
                .unwrap()
                .stats
                .similarity;
            assert!(
                sp >= s1.min(s2) - 1e-9 && sp <= s1.max(s2) + 1e-9,
                "sp {sp} outside [{}, {}]",
                s1.min(s2),
                s1.max(s2)
            );
        }
    }

    #[test]
    fn missing_edges_yield_no_similarity() {
        let (graph, _) = toy_graph();
        // a fabricated path over unconnected items has no certainty and no similarity
        let bogus = MetaPath {
            items: vec![items::INTERSTELLAR, items::ENDERS_GAME],
        };
        if graph
            .edge_between(items::INTERSTELLAR, items::ENDERS_GAME)
            .is_none()
        {
            assert_eq!(path_certainty(&graph, &bogus), 0.0);
            assert!(path_similarity(&graph, &bogus).is_none());
            assert!(aggregate_paths(&graph, &[&bogus]).is_none());
        }
    }

    #[test]
    fn parallel_and_sequential_tables_agree() {
        let (graph, partition) = toy_graph();
        let seq = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        let par = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(4),
        );
        assert_eq!(seq.n_heterogeneous_pairs(), par.n_heterogeneous_pairs());
        for (item, cands) in seq.iter() {
            assert_eq!(par.candidates(item), cands);
        }
    }

    fn batched_table(
        graph: &SimilarityGraph,
        partition: &LayerPartition,
        metapath: MetaPathConfig,
        workers: usize,
        partitions: usize,
    ) -> XSimTable {
        let flow = xmap_engine::Dataflow::new(workers, partitions);
        flow.run(
            &xmap_engine::fn_stage(
                "extender",
                |g: &SimilarityGraph, cx: &mut StageContext<'_>| {
                    XSimTable::build(g, partition, DomainId::SOURCE, metapath, cx)
                },
            ),
            graph,
        )
    }

    #[test]
    fn batched_frontier_matches_reference_on_toy_graph() {
        let (graph, partition) = toy_graph();
        let reference = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        for (workers, partitions) in [(1, 1), (1, 4), (4, 8)] {
            let batched = batched_table(
                &graph,
                &partition,
                MetaPathConfig::default(),
                workers,
                partitions,
            );
            assert_eq!(batched.n_connected_items(), reference.n_connected_items());
            assert_eq!(
                batched.n_heterogeneous_pairs(),
                reference.n_heterogeneous_pairs()
            );
            for (item, cands) in reference.iter() {
                assert_eq!(
                    batched.candidates(item),
                    cands,
                    "batched extender diverged for {item} ({workers} workers, {partitions} partitions)"
                );
            }
        }
    }

    #[test]
    fn batched_frontier_matches_reference_on_synthetic_data() {
        use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};
        use xmap_graph::SimilarityGraph;
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let graph = SimilarityGraph::build(
            &ds.matrix,
            GraphConfig {
                top_k: Some(10),
                ..Default::default()
            },
        );
        let (_, partition) = LayerPartition::from_graph(&graph);
        for metapath in [
            MetaPathConfig::default(),
            MetaPathConfig {
                per_layer_top_k: 3,
                max_paths: 50,
            },
        ] {
            let reference = XSimTable::compute(
                &graph,
                &partition,
                DomainId::SOURCE,
                metapath,
                &WorkerPool::new(1),
            );
            let batched = batched_table(&graph, &partition, metapath, 2, 16);
            assert_eq!(
                batched.n_heterogeneous_pairs(),
                reference.n_heterogeneous_pairs()
            );
            for (item, cands) in reference.iter() {
                assert_eq!(batched.candidates(item), cands, "diverged for {item}");
            }
        }
    }

    #[test]
    fn unknown_item_has_no_candidates() {
        let (graph, partition) = toy_graph();
        let table = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        assert!(table.candidates(ItemId(999)).is_empty());
        assert!(table.best_match(ItemId(999)).is_none());
    }
    #[test]
    fn hop_iterator_matches_items() {
        let path = MetaPath {
            items: vec![ItemId(0), ItemId(1), ItemId(3)],
        };
        let hops: Vec<(ItemId, ItemId)> = path.hops().collect();
        assert_eq!(hops, vec![(ItemId(0), ItemId(1)), (ItemId(1), ItemId(3))]);
        assert_eq!(path.source(), ItemId(0));
        assert_eq!(path.destination(), ItemId(3));
    }

    #[test]
    fn max_paths_caps_enumeration() {
        let (graph, partition) = toy_graph();
        let enumerate = |max_paths| {
            enumerate_cross_domain_paths(
                &graph,
                &partition,
                items::INTERSTELLAR,
                DomainId::SOURCE,
                MetaPathConfig {
                    max_paths,
                    ..Default::default()
                },
            )
        };
        assert!(enumerate(10_000).len() > 1);
        assert_eq!(enumerate(1).len(), 1);
    }

    /// Every entry of the table as bits, row by row, so `-0.0` and `0.0` differ.
    fn table_bits(table: &XSimTable) -> Vec<(ItemId, ItemId, u64, u64, usize)> {
        let rows = table.iter().flat_map(|(item, row)| {
            row.iter().map(move |e| {
                let (sim, certainty) = (e.similarity.to_bits(), e.certainty.to_bits());
                (item, e.item, sim, certainty, e.n_paths)
            })
        });
        rows.collect()
    }

    /// A random two-domain matrix's graph and partition, a random meta-path
    /// configuration (`per_layer_top_k` in 1..=4, `max_paths` in 1..=60), and whether
    /// some source item has more pruned paths than `max_paths` admits. Asserts that the
    /// hop-table extender's table is the oracle's, bit for bit, at 1, 2 and 8 workers.
    fn assert_build_equals_the_oracle(seed: u64) -> bool {
        let mut rng = TestRng::from_name(&seed.to_string());
        let mut below = |n: u64| rng.next_u64() % n;
        // Users keep to one domain but for a few straddlers, so the graph grows all six
        // layers and long paths.
        let n_items = 4 + below(21) as u32;
        let source_items = 2 + below(u64::from(n_items) - 3) as u32;
        let mut b = RatingMatrixBuilder::new();
        for u in 0..4 + below(27) as u32 {
            let (lo, hi) = match below(8) {
                0 => (0, n_items),
                1..=3 => (0, source_items),
                _ => (source_items, n_items),
            };
            for _ in 0..2 + below(6) {
                let i = lo + below(u64::from(hi - lo)) as u32;
                b.push_parts(u, i, 1.0 + below(5) as f64).unwrap();
            }
        }
        for i in 0..n_items {
            let domain = if i < source_items {
                DomainId::SOURCE
            } else {
                DomainId::TARGET
            };
            b.set_item_domain(ItemId(i), domain);
        }
        let top_k = [None, Some(1), Some(3), Some(6)][below(4) as usize];
        // `max_paths` in 1..=60, small budgets the likelier, so that some bind.
        let budget = 1 + below(60);
        let metapath = MetaPathConfig {
            per_layer_top_k: 1 + below(4) as usize,
            max_paths: 1 + below(budget) as usize,
        };
        let matrix = b.build().unwrap();
        let graph = SimilarityGraph::build(
            &matrix,
            GraphConfig {
                top_k,
                ..Default::default()
            },
        );
        let (_, partition) = LayerPartition::from_graph(&graph);
        let reference = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            metapath,
            &WorkerPool::new(1),
        );
        for workers in [1, 2, 8] {
            let built = batched_table(&graph, &partition, metapath, workers, 16);
            assert_eq!(built.n_connected_items(), reference.n_connected_items());
            assert_eq!(
                table_bits(&built),
                table_bits(&reference),
                "seed {seed}, {metapath:?}, {workers} workers"
            );
        }
        let uncapped = MetaPathConfig {
            max_paths: usize::MAX,
            ..metapath
        };
        let capped = graph
            .items()
            .filter(|&i| graph.item_domain(i) == DomainId::SOURCE)
            .any(|i| {
                let paths =
                    enumerate_cross_domain_paths(&graph, &partition, i, DomainId::SOURCE, uncapped);
                paths.len() > metapath.max_paths
            });
        capped
    }

    proptest! {
        /// The hop-table extender equals the scanning oracle over random two-domain
        /// matrices, fan-outs, path budgets and worker counts.
        #[test]
        fn build_equals_the_oracle_across_configurations(seed in any::<u64>()) {
            assert_build_equals_the_oracle(seed);
        }
    }

    #[test]
    fn the_oracle_comparison_reaches_max_paths() {
        // The budget must bind in some cases, or the comparison above would not see
        // the walk stop mid-row.
        let capped = (0..48)
            .filter(|&seed| assert_build_equals_the_oracle(seed))
            .count();
        assert!(
            (4..48).contains(&capped),
            "{capped} of 48 cases reach max_paths"
        );
    }
}
