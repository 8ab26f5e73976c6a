//! The baseline similarity graph `G_ac` (§3.1 of the paper), stored as a CSR arena.
//!
//! Vertices are items (from every domain, treated as one aggregated item set); an edge
//! `(i, j)` exists when the two items have at least one common rater and a non-zero
//! similarity under the chosen metric. Each edge carries the full [`SimilarityStats`]
//! (similarity, co-rater count, weighted significance, union size) so that X-Sim's path
//! similarity and path certainty can be computed without going back to the rating matrix.
//!
//! ## Scoring
//!
//! [`SimilarityGraph::build`] and `xmap-core`'s partition-parallel baseliner (through
//! [`SimilarityGraph::from_runs`]) score each pair once, from its lower item's
//! [`ItemRowKernel::row`]. [`SimilarityGraph::build_serial`] scores the co-rated pair
//! keys with one [`item_similarity_stats`] merge each: it is the oracle every
//! bit-identity gate compares against. All three feed the one `from_scored_pairs`
//! back half: weak-edge filter, union top-k pruning, arena assembly.
//!
//! ## Storage layout
//!
//! The graph is a compressed-sparse-row (CSR) arena rather than per-item `Vec`s:
//!
//! * `offsets[i]..offsets[i + 1]` delimits item `i`'s adjacency slots,
//! * `neighbors` holds the neighbour ids of every item, **sorted ascending** per item so
//!   that [`SimilarityGraph::edge_between`] is an `O(log d)` binary search,
//! * `edge_ix` maps each adjacency slot to a record in `edge_stats`, the pool that stores
//!   every **undirected edge exactly once** in canonical `(min, max)` orientation, shared
//!   by both endpoints' slots,
//! * `sim_rank` stores, per item, the local slot order by **descending similarity**, which
//!   is what meta-path enumeration's per-layer top-k pruning walks.
//!
//! Pruning keeps an undirected edge when it ranks within the `top_k` strongest edges of
//! *either* endpoint (union semantics), an item's edges ranked by similarity descending
//! and, among equals, by ascending position in the key-sorted pair list (`union_top_k`).
//! Item degrees are therefore not bounded by `top_k`: a hub every neighbour ranks highly
//! keeps all those edges. The graph is never stored as a dense m × m matrix, which
//! would be intractable at the paper's scale (§3.1 discusses this O(m²) blow-up).

use serde::{Deserialize, Serialize};
use std::ops::Range;
use xmap_cf::similarity::{
    item_similarity_stats, ItemRowKernel, Partners, RowScratch, SimilarityStats,
};
use xmap_cf::{CandidateScratch, DomainId, ItemId, RatingMatrix, SimilarityMetric};
use xmap_engine::WorkerPool;

/// Configuration for building the baseline similarity graph.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Similarity metric for edge weights (the paper uses adjusted cosine).
    pub metric: SimilarityMetric,
    /// Keep an undirected edge only if it is among the `top_k` strongest (by similarity)
    /// of at least one endpoint; `None` keeps all.
    pub top_k: Option<usize>,
    /// Drop edges whose |similarity| is below this threshold.
    pub min_similarity: f64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            metric: SimilarityMetric::AdjustedCosine,
            top_k: Some(50),
            min_similarity: 0.0,
        }
    }
}

/// A borrowed view of one edge of the graph: the neighbour plus the shared
/// per-undirected-edge statistics record.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRef<'a> {
    /// The neighbouring item.
    pub to: ItemId,
    /// Pairwise statistics of the undirected edge (stored once per edge).
    pub stats: &'a SimilarityStats,
}

impl EdgeRef<'_> {
    /// Similarity weight of the edge.
    pub fn similarity(&self) -> f64 {
        self.stats.similarity
    }

    /// Normalised weighted significance `Ŝ` of the edge (Definition 4).
    pub fn normalized_significance(&self) -> f64 {
        self.stats.normalized_significance()
    }
}

/// The adjacency of one item: a slice view into the CSR arena.
///
/// Neighbour ids are sorted ascending (so membership tests are binary searches), and
/// [`NeighborView::by_similarity`] walks the same slots strongest-first for top-k
/// fan-out pruning.
#[derive(Clone, Copy)]
pub struct NeighborView<'a> {
    ids: &'a [ItemId],
    edge_ix: &'a [u32],
    sim_rank: &'a [u32],
    edge_stats: &'a [SimilarityStats],
}

impl<'a> NeighborView<'a> {
    /// Number of neighbours.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the item has no neighbours.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The neighbour ids, sorted ascending.
    pub fn ids(&self) -> &'a [ItemId] {
        self.ids
    }

    /// The edge at a local slot (slots follow ascending neighbour id).
    pub fn get(&self, slot: usize) -> EdgeRef<'a> {
        EdgeRef {
            to: self.ids[slot],
            stats: &self.edge_stats[self.edge_ix[slot] as usize],
        }
    }

    /// Iterates the edges in ascending neighbour-id order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeRef<'a>> + '_ {
        (0..self.ids.len()).map(move |slot| self.get(slot))
    }

    /// Iterates the edges strongest-first (descending similarity, ties by ascending id).
    pub fn by_similarity(&self) -> impl Iterator<Item = EdgeRef<'a>> + '_ {
        self.sim_rank
            .iter()
            .map(move |&slot| self.get(slot as usize))
    }

    /// Binary-searches the adjacency for a specific neighbour.
    pub fn find(&self, to: ItemId) -> Option<EdgeRef<'a>> {
        self.ids.binary_search(&to).ok().map(|slot| self.get(slot))
    }
}

/// The baseline similarity graph, stored as a CSR arena over a shared pool of
/// per-undirected-edge statistics (see the module docs for the layout).
///
/// `PartialEq` compares the full arena bit for bit (offsets, neighbour slots, edge
/// statistics, domains and configuration) — it is what the engine-parallel baseliner's
/// bit-identity tests assert against [`SimilarityGraph::build_serial`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimilarityGraph {
    /// CSR row offsets; `len == n_items + 1`, monotone non-decreasing.
    offsets: Vec<u32>,
    /// Neighbour ids per item, ascending within each item's slice.
    neighbors: Vec<ItemId>,
    /// Per-slot index into `edge_stats` (two slots — one per endpoint — share a record).
    edge_ix: Vec<u32>,
    /// Per-item local slot order by descending similarity (ties: ascending id).
    sim_rank: Vec<u32>,
    /// One record per undirected edge, canonical `(min, max)` orientation.
    edge_stats: Vec<SimilarityStats>,
    item_domain: Vec<DomainId>,
    config: GraphConfig,
}

/// A pruning rule: `keep[ix]` for every scored pair, given the pool, the item count,
/// the pairs and `k` (`union_top_k`, or the sort oracle in the tests).
type Prune = fn(&WorkerPool, usize, &[u64], &[SimilarityStats], usize) -> Vec<bool>;

/// Contiguous ranges of `n_items` items, `8 × workers` of them at most: the units a
/// build's pool works on. What an item gets never depends on them.
fn item_ranges(n_items: usize, pool: &WorkerPool) -> Vec<Range<usize>> {
    let per = n_items.div_ceil(8 * pool.workers()).max(1);
    (0..n_items)
        .step_by(per)
        .map(|s| s..n_items.min(s + per))
        .collect()
}

/// Union top-k pruning: `keep[ix]` says whether pair `ix` ranks within the `k` strongest
/// pairs of at least one of its endpoints, under the order *similarity descending, pair
/// index ascending*. The pool ranks each item's incident pairs over item ranges, each
/// range with one reused buffer: an item with at most `k` pairs keeps them all, any
/// other selects its `k` first under that (total) order. The kept set is the union of
/// every item's. `keys` ascend, so only the pairs an item holds as the higher item
/// need laying out. Similarities are filter survivors — never zero or NaN, and finite
/// because every metric is bounded.
fn union_top_k(
    pool: &WorkerPool,
    n_items: usize,
    keys: &[u64],
    stats: &[SimilarityStats],
    k: usize,
) -> Vec<bool> {
    // An item's pairs as the lower item are a contiguous run of the ascending keys,
    // `lo_at[i]..lo_at[i + 1]`; its pairs as the higher item are laid out by item,
    // ascending pair index, in `below`.
    let (mut lo_at, mut hi_at) = (vec![0u32; n_items + 1], vec![0u32; n_items + 1]);
    for &key in keys {
        let (lo, hi) = SimilarityGraph::pair_of_key(key);
        lo_at[lo.index() + 1] += 1;
        hi_at[hi.index() + 1] += 1;
    }
    for i in 0..n_items {
        lo_at[i + 1] += lo_at[i];
        hi_at[i + 1] += hi_at[i];
    }
    let mut cursor = hi_at[..n_items].to_vec();
    let mut below = vec![0u32; keys.len()];
    for (ix, &key) in keys.iter().enumerate() {
        let hi = SimilarityGraph::pair_of_key(key).1.index();
        below[cursor[hi] as usize] = ix as u32;
        cursor[hi] += 1;
    }
    let kept = pool.parallel_map(&item_ranges(n_items, pool), |items| {
        let (mut ranked, mut kept) = (Vec::new(), Vec::new());
        for i in items.clone() {
            let as_hi = &below[hi_at[i] as usize..hi_at[i + 1] as usize];
            let pairs = as_hi.iter().copied().chain(lo_at[i]..lo_at[i + 1]);
            if as_hi.len() + (lo_at[i + 1] - lo_at[i]) as usize <= k {
                kept.extend(pairs);
            } else if k > 0 {
                ranked.clear();
                ranked.extend(pairs.map(|ix| (stats[ix as usize].similarity, ix)));
                ranked.select_nth_unstable_by(k - 1, |a: &(f64, u32), b| {
                    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
                });
                kept.extend(ranked[..k].iter().map(|&(_, ix)| ix));
            }
        }
        kept
    });
    let mut keep = vec![false; keys.len()];
    for ix in kept.into_iter().flatten() {
        keep[ix as usize] = true;
    }
    keep
}

/// The runs' pairs bucketed by lower item in one counting pass, each run dropped once
/// scattered: ascending key order when each lower item's pairs arrive in ascending
/// order, whichever runs and positions they come in.
fn bucket_pairs(
    n_items: usize,
    runs: Vec<Vec<(u64, SimilarityStats)>>,
) -> (Vec<u64>, Vec<SimilarityStats>) {
    let lo = |key: u64| (key >> 32) as usize;
    let mut starts = vec![0usize; n_items + 1];
    for &(key, _) in runs.iter().flatten() {
        starts[lo(key) + 1] += 1;
    }
    for i in 0..n_items {
        starts[i + 1] += starts[i];
    }
    let mut cursor = starts[..n_items].to_vec();
    let mut keys = vec![0u64; starts[n_items]];
    let mut stats = vec![SimilarityStats::NONE; starts[n_items]];
    for run in runs {
        for (key, pair) in run {
            let slot = &mut cursor[lo(key)];
            (keys[*slot], stats[*slot]) = (key, pair);
            *slot += 1;
        }
    }
    (keys, stats)
}

/// The pruning rule by definition — rank every item's incident pairs with a full sort
/// and keep each item's first `k` — which [`union_top_k`] must reproduce.
#[cfg(test)]
fn union_top_k_by_sorting(
    _: &WorkerPool,
    n_items: usize,
    keys: &[u64],
    stats: &[SimilarityStats],
    k: usize,
) -> Vec<bool> {
    let mut ranked: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n_items];
    for (ix, (&key, stats)) in keys.iter().zip(stats).enumerate() {
        let (lo, hi) = SimilarityGraph::pair_of_key(key);
        ranked[lo.index()].push((stats.similarity, ix));
        ranked[hi.index()].push((stats.similarity, ix));
    }
    let mut keep = vec![false; keys.len()];
    for list in &mut ranked {
        list.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        for &(_, ix) in list.iter().take(k) {
            keep[ix] = true;
        }
    }
    keep
}

impl SimilarityGraph {
    /// The canonical key of an unordered item pair: `(min << 32) | max`.
    pub fn pair_key(i: ItemId, j: ItemId) -> u64 {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        (u64::from(lo.0) << 32) | u64::from(hi.0)
    }

    /// Decodes a canonical pair key back into its `(lo, hi)` items.
    pub fn pair_of_key(key: u64) -> (ItemId, ItemId) {
        (ItemId((key >> 32) as u32), ItemId(key as u32))
    }

    /// All co-rated unordered item pairs of the matrix as sorted, deduplicated
    /// canonical keys — the candidate set [`SimilarityGraph::build_serial`] scores: each
    /// item's [`CandidateScratch::candidate_set`] above it, in ascending item order, so
    /// peak memory is the output's, not the raw `Σ_u d_u²` pair emissions.
    fn co_rated_pair_keys(matrix: &RatingMatrix) -> Vec<u64> {
        let mut scratch = CandidateScratch::default();
        let mut keys = Vec::new();
        for lo in matrix.items() {
            let above = scratch
                .candidate_set(matrix, lo)
                .into_iter()
                .filter(|&hi| hi > lo);
            keys.extend(above.map(|hi| Self::pair_key(lo, hi)));
        }
        keys
    }

    /// The graph of `matrix` from a partition-parallel gather's scored pairs: `runs`
    /// hold every co-rated pair exactly once as `(canonical key, stats)`, each lower
    /// item's pairs in ascending key order, the items and the runs in any order. The
    /// pairs are bucketed into key order (`bucket_pairs`) and handed to the shared
    /// `from_scored_pairs` back half, whose per-item work runs over item ranges on
    /// `pool`. The graph is the one [`SimilarityGraph::build_serial`] assembles from
    /// the same pairs, at any worker count and any split of the runs.
    ///
    /// # Panics
    /// Panics if a pair key appears twice, a lower item's pairs arrive out of order, or
    /// a key names an item outside `matrix`.
    pub fn from_runs(
        matrix: &RatingMatrix,
        config: GraphConfig,
        runs: Vec<Vec<(u64, SimilarityStats)>>,
        pool: &WorkerPool,
    ) -> Self {
        let (keys, stats) = bucket_pairs(matrix.n_items(), runs);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "every pair must be scored exactly once, in ascending order per lower item"
        );
        Self::from_scored_pairs(matrix, config, keys, stats, pool)
    }

    /// Assembles the CSR arena from every candidate pair key and its similarity
    /// statistics (`stats[ix]` belongs to `keys[ix]`; keys sorted ascending as
    /// [`SimilarityGraph::co_rated_pair_keys`] produces them).
    ///
    /// This is the shared back half of every build path: the weak-edge filter, the
    /// union top-k pruning and the arena assembly, the per-item parts of the last two
    /// on `pool`.
    ///
    /// # Panics
    /// Panics if `keys` and `stats` have different lengths.
    fn from_scored_pairs(
        matrix: &RatingMatrix,
        config: GraphConfig,
        keys: Vec<u64>,
        stats: Vec<SimilarityStats>,
        pool: &WorkerPool,
    ) -> Self {
        Self::assemble(matrix, config, (keys, stats), pool, union_top_k)
    }

    /// [`SimilarityGraph::from_scored_pairs`] with the pruning rule as a parameter, so
    /// the tests can assemble the same arena over the sort-everything oracle.
    fn assemble(
        matrix: &RatingMatrix,
        config: GraphConfig,
        (mut keys, mut stats): (Vec<u64>, Vec<SimilarityStats>),
        pool: &WorkerPool,
        prune: Prune,
    ) -> Self {
        assert_eq!(
            keys.len(),
            stats.len(),
            "every pair key needs exactly one statistics record"
        );
        let n_items = matrix.n_items();

        // --- 2. Weak-edge filter over the scored pairs, in place, in the vectors the
        // caller handed over. ---
        let passes = |s: &SimilarityStats| {
            // lint: float-eq — exact zero is the "no co-rater" sentinel from the stats.
            s.similarity != 0.0 && s.similarity.abs() >= config.min_similarity
        };
        let mut survives = stats.iter().map(passes);
        // lint: panic — the two lengths were asserted equal above
        keys.retain(|_| survives.next().expect("one record per key"));
        stats.retain(passes);

        // --- 3. Union top-k pruning: keep a pair ranked top-k by either endpoint. ---
        let keep = config.top_k.map(|k| prune(pool, n_items, &keys, &stats, k));
        let mut edges: Vec<(ItemId, ItemId)> = Vec::new();
        let mut edge_stats: Vec<SimilarityStats> = Vec::new();
        for (ix, (&key, &stats)) in keys.iter().zip(&stats).enumerate() {
            if keep.as_ref().is_none_or(|keep| keep[ix]) {
                edges.push(Self::pair_of_key(key));
                edge_stats.push(stats);
            }
        }
        // The scored pairs are dead once the edges are picked: free them before the
        // arena is laid out.
        drop((keys, stats, keep));

        // --- 4. CSR assembly: degrees → offsets → slot fill → per-item ordering. ---
        let mut degree = vec![0u32; n_items];
        for &(lo, hi) in &edges {
            degree[lo.index()] += 1;
            degree[hi.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n_items + 1);
        offsets.push(0u32);
        for i in 0..n_items {
            offsets.push(offsets[i] + degree[i]);
        }

        let total_slots = offsets[n_items] as usize;
        let mut neighbors = vec![ItemId(0); total_slots];
        let mut edge_ix = vec![0u32; total_slots];
        let mut cursor: Vec<u32> = offsets[..n_items].to_vec();
        for (pair_ix, &(lo, hi)) in edges.iter().enumerate() {
            for (from, to) in [(lo, hi), (hi, lo)] {
                let slot = cursor[from.index()] as usize;
                neighbors[slot] = to;
                edge_ix[slot] = pair_ix as u32;
                cursor[from.index()] += 1;
            }
        }

        // Pair keys were processed in ascending (lo, hi) order, so an item's slots
        // hold its lower neighbours (as `hi`, ascending `lo`) and then its higher ones
        // (as `lo`, ascending `hi`): each row is sorted by id already. The pool derives
        // each row's descending-similarity slot permutation in place, over disjoint
        // item ranges of `sim_rank`.
        let mut sim_rank = vec![0u32; total_slots];
        let mut chunks: Vec<(Range<usize>, &mut [u32])> = Vec::new();
        let mut rest = sim_rank.as_mut_slice();
        for items in item_ranges(n_items, pool) {
            let len = (offsets[items.end] - offsets[items.start]) as usize;
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(len);
            chunks.push((items, chunk));
            rest = tail;
        }
        pool.for_each_mut(&mut chunks, |_, (items, ranks)| {
            let base = offsets[items.start] as usize;
            for i in items.clone() {
                let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
                let order = &mut ranks[start - base..end - base];
                for (slot, rank) in order.iter_mut().enumerate() {
                    *rank = slot as u32;
                }
                // A total order (ties by slot), so the unstable sort is the stable one.
                order.sort_unstable_by(|&a, &b| {
                    let sa = edge_stats[edge_ix[start + a as usize] as usize].similarity;
                    let sb = edge_stats[edge_ix[start + b as usize] as usize].similarity;
                    sb.partial_cmp(&sa)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
        });
        drop(chunks);

        let item_domain = (0..n_items as u32)
            .map(|i| matrix.item_domain(ItemId(i)))
            .collect();

        SimilarityGraph {
            offsets,
            neighbors,
            edge_ix,
            sim_rank,
            edge_stats,
            item_domain,
            config,
        }
    }

    /// Builds the graph by definition: scores every co-rated pair key in ascending
    /// key order with one profile merge each and assembles the arena. This is the
    /// reference [`SimilarityGraph::build`] and the engine-parallel baseliner stage
    /// must match bit for bit at any worker count.
    ///
    /// Candidate item pairs are generated through co-rating users, so items with no
    /// common rater never pay a similarity computation, and each unordered pair pays it
    /// exactly once (the historical per-item adjacency computed every pair twice).
    pub fn build_serial(matrix: &RatingMatrix, config: GraphConfig) -> Self {
        let keys = Self::co_rated_pair_keys(matrix);
        let stats: Vec<SimilarityStats> = keys
            .iter()
            .map(|&key| {
                let (lo, hi) = Self::pair_of_key(key);
                item_similarity_stats(matrix, lo, hi, config.metric)
            })
            .collect();
        Self::from_scored_pairs(matrix, config, keys, stats, &WorkerPool::new(1))
    }

    /// Builds the graph from a rating matrix containing the aggregated domains,
    /// single-threaded: one [`ItemRowKernel::row`] per item in ascending id —
    /// the pair keys ascend by construction and every unordered pair is scored exactly
    /// once — then the shared `from_scored_pairs` back half. Bit-identical to
    /// [`SimilarityGraph::build_serial`] (property-tested below).
    pub fn build(matrix: &RatingMatrix, config: GraphConfig) -> Self {
        let kernel = ItemRowKernel::new(matrix, config.metric);
        let mut scratch = RowScratch::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut stats: Vec<SimilarityStats> = Vec::new();
        for lo in matrix.items() {
            for &(hi, pair) in kernel.row(lo, &mut scratch, Partners::Above).0 {
                keys.push(Self::pair_key(lo, hi));
                stats.push(pair);
            }
        }
        Self::from_scored_pairs(matrix, config, keys, stats, &WorkerPool::new(1))
    }

    /// The configuration the graph was built with.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Number of items (vertices), rated or not.
    pub fn n_items(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of undirected edges stored in the arena (each stored once).
    pub fn n_undirected_edges(&self) -> usize {
        self.edge_stats.len()
    }

    /// Degree of an item (number of neighbours).
    pub fn degree(&self, item: ItemId) -> usize {
        let i = item.index();
        if i + 1 >= self.offsets.len() {
            return 0;
        }
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The adjacency view of an item. Out-of-range items have an empty view.
    pub fn neighbors(&self, item: ItemId) -> NeighborView<'_> {
        let i = item.index();
        let (start, end) = if i + 1 < self.offsets.len() {
            (self.offsets[i] as usize, self.offsets[i + 1] as usize)
        } else {
            (0, 0)
        };
        NeighborView {
            ids: &self.neighbors[start..end],
            edge_ix: &self.edge_ix[start..end],
            sim_rank: &self.sim_rank[start..end],
            edge_stats: &self.edge_stats,
        }
    }

    /// The domain of an item.
    pub fn item_domain(&self, item: ItemId) -> DomainId {
        self.item_domain
            .get(item.index())
            .copied()
            .unwrap_or(DomainId::SOURCE)
    }

    /// Iterator over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.n_items() as u32).map(ItemId)
    }

    /// The edge between two items, accepting the endpoints in either order.
    ///
    /// The lookup binary-searches the lower-degree endpoint's sorted adjacency, so the
    /// cost is `O(log min(d_a, d_b))`; undirected storage makes the result identical for
    /// `(a, b)` and `(b, a)`.
    pub fn edge_between(&self, a: ItemId, b: ItemId) -> Option<EdgeRef<'_>> {
        let (probe, key) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(probe).find(key).map(|e| EdgeRef {
            to: if probe == a { e.to } else { probe },
            stats: e.stats,
        })
    }

    /// Number of item pairs `(i, j)` with `i` and `j` in different domains connected by a
    /// direct edge — the "standard" heterogeneous similarity count of Figure 1(b).
    /// Each undirected pair is counted once.
    pub fn n_heterogeneous_pairs(&self) -> usize {
        let mut count = 0usize;
        for i in self.items() {
            let di = self.item_domain(i);
            for &to in self.neighbors(i).ids() {
                if i < to && self.item_domain(to) != di {
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use xmap_cf::RatingMatrixBuilder;

    /// Two domains; user 2 straddles them.
    fn fixture() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        // movies: items 0, 1, 2 ; books: items 3, 4
        b.push_parts(0, 0, 5.0).unwrap();
        b.push_parts(0, 1, 4.0).unwrap();
        b.push_parts(1, 1, 5.0).unwrap();
        b.push_parts(1, 2, 2.0).unwrap();
        b.push_parts(2, 1, 4.0).unwrap(); // straddler rates a movie
        b.push_parts(2, 3, 5.0).unwrap(); // ... and books
        b.push_parts(2, 4, 2.0).unwrap();
        b.push_parts(3, 3, 4.0).unwrap();
        b.push_parts(3, 4, 1.0).unwrap();
        for i in 0..3u32 {
            b.set_item_domain(ItemId(i), DomainId::SOURCE);
        }
        for i in 3..5u32 {
            b.set_item_domain(ItemId(i), DomainId::TARGET);
        }
        b.build().unwrap()
    }

    #[test]
    fn edges_only_between_co_rated_items() {
        let m = fixture();
        let g = SimilarityGraph::build(&m, GraphConfig::default());
        assert_eq!(g.n_items(), 5);
        // items 0 and 2 share no rater
        assert!(g.edge_between(ItemId(0), ItemId(2)).is_none());
        // items 0 and 1 share user 0
        assert!(g.edge_between(ItemId(0), ItemId(1)).is_some());
        // cross-domain edge through the straddler (user 2): item 1 and item 3
        assert!(g.n_heterogeneous_pairs() > 0);
    }

    #[test]
    fn edge_between_is_order_insensitive() {
        let m = fixture();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        for i in g.items() {
            for j in g.items() {
                let ab = g.edge_between(i, j).map(|e| (e.to, *e.stats));
                let ba = g.edge_between(j, i).map(|e| (e.to, *e.stats));
                match (ab, ba) {
                    (None, None) => {}
                    (Some((to_ab, s_ab)), Some((to_ba, s_ba))) => {
                        assert_eq!(s_ab, s_ba, "stats must be shared for ({i}, {j})");
                        assert_eq!(to_ab, j);
                        assert_eq!(to_ba, i);
                    }
                    other => panic!("asymmetric lookup for ({i}, {j}): {other:?}"),
                }
            }
        }
    }

    #[test]
    fn adjacency_sorted_by_id_and_similarity_views_agree() {
        let m = fixture();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        for i in g.items() {
            let view = g.neighbors(i);
            for w in view.ids().windows(2) {
                assert!(w[0] < w[1], "neighbour ids must be strictly ascending");
            }
            let strongest: Vec<f64> = view.by_similarity().map(|e| e.similarity()).collect();
            for w in strongest.windows(2) {
                assert!(w[0] >= w[1], "by_similarity must be descending");
            }
            assert_eq!(strongest.len(), view.len());
        }
    }

    #[test]
    fn top_k_pruning_limits_stored_edges() {
        let mut b = RatingMatrixBuilder::new();
        // star pattern: one user rates everything -> item 0 is connected to all others
        for i in 0..20u32 {
            b.push_parts(0, i, ((i % 5) + 1) as f64).unwrap();
            b.push_parts(1 + i, i, 3.0).unwrap(); // extra raters to vary averages
        }
        let m = b.build().unwrap();
        let pruned = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: Some(5),
                ..Default::default()
            },
        );
        let unpruned = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        assert!(pruned.n_undirected_edges() <= unpruned.n_undirected_edges());
        // every kept edge must be in the top-5 of at least one endpoint
        for i in pruned.items() {
            for e in pruned.neighbors(i).iter() {
                if i < e.to {
                    let rank_i = pruned
                        .neighbors(i)
                        .by_similarity()
                        .position(|x| x.to == e.to)
                        .unwrap();
                    let rank_j = pruned
                        .neighbors(e.to)
                        .by_similarity()
                        .position(|x| x.to == i)
                        .unwrap();
                    assert!(
                        rank_i < 5 || rank_j < 5,
                        "edge ({i}, {}) is outside both endpoints' top-5",
                        e.to
                    );
                }
            }
        }
    }

    #[test]
    fn min_similarity_filters_weak_edges() {
        let m = fixture();
        let strict = SimilarityGraph::build(
            &m,
            GraphConfig {
                min_similarity: 0.99,
                top_k: None,
                ..Default::default()
            },
        );
        let loose = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                min_similarity: 0.0,
                ..Default::default()
            },
        );
        assert!(strict.n_undirected_edges() <= loose.n_undirected_edges());
        for i in strict.items() {
            for e in strict.neighbors(i).iter() {
                assert!(e.similarity().abs() >= 0.99);
            }
        }
    }

    #[test]
    fn heterogeneous_pair_count_is_symmetric_and_small_here() {
        let m = fixture();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        // only the straddler (user 2) creates cross-domain pairs: (1,3), (1,4)
        let n = g.n_heterogeneous_pairs();
        assert!(
            (1..=3).contains(&n),
            "unexpected heterogeneous pair count {n}"
        );
    }

    #[test]
    fn out_of_range_item_has_no_edges_and_default_domain() {
        let m = fixture();
        let g = SimilarityGraph::build(&m, GraphConfig::default());
        assert!(g.neighbors(ItemId(99)).is_empty());
        assert_eq!(g.degree(ItemId(99)), 0);
        assert_eq!(g.item_domain(ItemId(99)), DomainId::SOURCE);
        assert!(g.edge_between(ItemId(99), ItemId(0)).is_none());
    }

    #[test]
    fn edge_accessors_expose_stats() {
        let m = fixture();
        let g = SimilarityGraph::build(
            &m,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        let view = g.neighbors(ItemId(0));
        let e = view.iter().next().unwrap();
        assert!(e.similarity().abs() <= 1.0);
        assert!(e.normalized_significance() >= 0.0 && e.normalized_significance() <= 1.0);
    }

    #[test]
    fn pair_key_collection_is_exact_on_heavy_traces() {
        // 40 users × 40-item profiles emit 31,200 raw pairs, far more than the proptest
        // corpus reaches, and most of them repeats. The result must still be the exact
        // naive key set.
        let mut b = RatingMatrixBuilder::new();
        for u in 0..40u32 {
            for x in 0..40u32 {
                let i = (u * 7 + x * 11) % 120;
                b.push_parts(u, i, ((x % 5) + 1) as f64).unwrap();
            }
        }
        let m = b.build().unwrap();
        let raw: usize = m
            .users()
            .map(|u| {
                let d = m.user_profile(u).len();
                d * (d - 1) / 2
            })
            .sum();
        assert!(raw > 30_000, "trace too small ({raw} raw pairs)");
        let mut naive: Vec<u64> = Vec::new();
        for u in m.users() {
            let profile = m.user_profile(u);
            for a in 0..profile.len() {
                for b in (a + 1)..profile.len() {
                    naive.push(SimilarityGraph::pair_key(profile[a].item, profile[b].item));
                }
            }
        }
        naive.sort_unstable();
        naive.dedup();
        assert!(naive.len() < raw, "dedup must actually collapse duplicates");
        assert_eq!(SimilarityGraph::co_rated_pair_keys(&m), naive);
    }

    /// Each item's row above it, the rows dealt over 1, 2 and 8 runs (plus an empty
    /// one) in descending item order and the runs reversed, assembles on as many
    /// workers the graph of `build` and `build_serial`, with and without pruning.
    #[test]
    fn from_runs_equals_build_for_any_run_split() {
        let mut b = RatingMatrixBuilder::new();
        for u in 0..24u32 {
            for x in 0..6u32 {
                b.push_parts(u, (u * 5 + x * 7) % 40, ((u + x) % 5 + 1) as f64)
                    .unwrap();
            }
        }
        let m = b.build().unwrap();
        for top_k in [None, Some(3)] {
            let config = GraphConfig {
                top_k,
                ..Default::default()
            };
            let kernel = ItemRowKernel::new(&m, config.metric);
            let mut scratch = RowScratch::default();
            let rows: Vec<Vec<(u64, SimilarityStats)>> = m
                .items()
                .map(|lo| {
                    let row = kernel.row(lo, &mut scratch, Partners::Above).0;
                    let pairs = row
                        .iter()
                        .map(|&(hi, s)| (SimilarityGraph::pair_key(lo, hi), s));
                    pairs.collect()
                })
                .collect();
            let reference = SimilarityGraph::build(&m, config);
            assert_eq!(reference, SimilarityGraph::build_serial(&m, config));
            for n in [1, 2, 8] {
                let mut runs = vec![Vec::new(); n + 1];
                for (ix, row) in rows.iter().enumerate().rev() {
                    runs[ix % n].extend_from_slice(row);
                }
                runs.reverse();
                let graph = SimilarityGraph::from_runs(&m, config, runs, &WorkerPool::new(n));
                assert_eq!(graph, reference, "{n} runs and workers");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scored exactly once")]
    fn from_runs_rejects_a_pair_scored_twice() {
        let m = fixture();
        // The same pair from both endpoints, in two runs.
        let runs = vec![
            vec![(
                SimilarityGraph::pair_key(ItemId(1), ItemId(0)),
                SimilarityStats::NONE,
            )],
            vec![(
                SimilarityGraph::pair_key(ItemId(0), ItemId(1)),
                SimilarityStats::NONE,
            )],
        ];
        let _ = SimilarityGraph::from_runs(&m, GraphConfig::default(), runs, &WorkerPool::new(1));
    }

    /// Ties at the k-th place on items that open and close a parallel range: the
    /// selection keeps the lower pair index, like the sort oracle, at any worker count.
    #[test]
    fn union_top_k_breaks_kth_place_ties_at_range_edges_like_the_oracle() {
        // Each item is paired with the next four, all at one similarity but every
        // seventh pair: items past the first four have 7–8 pairs and a tie across the
        // k-th place.
        let n = 200usize;
        let mut keys = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..(n as u32).min(a + 5) {
                keys.push(SimilarityGraph::pair_key(ItemId(a), ItemId(b)));
            }
        }
        let stats: Vec<SimilarityStats> = (0..keys.len())
            .map(|ix| SimilarityStats {
                similarity: if ix % 7 == 0 { 0.9 } else { 0.4 },
                co_raters: 1,
                ..SimilarityStats::NONE
            })
            .collect();
        for workers in [2, 8] {
            let pool = WorkerPool::new(workers);
            let edge = item_ranges(n, &pool)[1].start;
            for item in [edge - 1, edge] {
                let mut sims: Vec<f64> = keys
                    .iter()
                    .zip(&stats)
                    .filter(|(&key, _)| {
                        let (lo, hi) = SimilarityGraph::pair_of_key(key);
                        lo.index() == item || hi.index() == item
                    })
                    .map(|(_, s)| s.similarity)
                    .collect();
                sims.sort_by(|a, b| b.total_cmp(a));
                assert!(
                    sims.len() > 4 && sims[2] == sims[3],
                    "item {item}: no tie at k = 3"
                );
            }
            for k in [1, 3, 5] {
                assert_eq!(
                    union_top_k(&pool, n, &keys, &stats, k),
                    union_top_k_by_sorting(&pool, n, &keys, &stats, k),
                    "k = {k}, {workers} workers"
                );
            }
        }
    }

    /// Reference adjacency built the naive way: all unordered co-rated pairs into a
    /// `HashMap`, no pruning. The CSR arena must agree exactly when pruning is off.
    fn naive_reference(
        m: &RatingMatrix,
        config: GraphConfig,
    ) -> HashMap<(ItemId, ItemId), SimilarityStats> {
        let mut pairs = HashMap::new();
        for u in m.users() {
            let profile = m.user_profile(u);
            for a in 0..profile.len() {
                for b in (a + 1)..profile.len() {
                    let (i, j) = (profile[a].item, profile[b].item);
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    pairs
                        .entry((lo, hi))
                        .or_insert_with(|| item_similarity_stats(m, lo, hi, config.metric));
                }
            }
        }
        pairs.retain(|_, s| s.similarity != 0.0 && s.similarity.abs() >= config.min_similarity);
        pairs
    }

    fn random_matrix(ratings: &[(u32, u32, u32)], n_domains: u16) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        let mut max_item = 0;
        for &(u, i, v) in ratings {
            b.push_parts(u, i, v as f64).unwrap();
            max_item = max_item.max(i);
        }
        for i in 0..=max_item {
            b.set_item_domain(ItemId(i), DomainId((i % u32::from(n_domains)) as u16));
        }
        b.build().unwrap()
    }

    /// A matrix of `n_items` items (one user rates them all) and the graphs
    /// `from_scored_pairs` and the sort-everything oracle assemble on `workers` from `pairs` —
    /// `(item, item, index into the tied palette)`, self-pairs and repeats dropped.
    fn pruned_both_ways(
        n_items: u32,
        pairs: &[(u32, u32, usize)],
        config: GraphConfig,
        workers: usize,
    ) -> (SimilarityGraph, SimilarityGraph) {
        const PALETTE: [f64; 4] = [0.8, -0.5, 0.5, 0.2];
        let mut b = RatingMatrixBuilder::new();
        for i in 0..n_items {
            b.push_parts(0, i, 3.0).unwrap();
        }
        let m = b.build().unwrap();
        let mut scored: Vec<(u64, SimilarityStats)> = pairs
            .iter()
            .filter(|&&(a, b, _)| a % n_items != b % n_items)
            .map(|&(a, b, tie)| {
                let stats = SimilarityStats {
                    similarity: PALETTE[tie % PALETTE.len()],
                    co_raters: 1,
                    ..SimilarityStats::NONE
                };
                let key = SimilarityGraph::pair_key(ItemId(a % n_items), ItemId(b % n_items));
                (key, stats)
            })
            .collect();
        scored.sort_by_key(|&(key, _)| key);
        scored.dedup_by_key(|&mut (key, _)| key);
        let (keys, stats): (Vec<u64>, Vec<SimilarityStats>) = scored.into_iter().unzip();
        let pool = WorkerPool::new(workers);
        let heaps =
            SimilarityGraph::from_scored_pairs(&m, config, keys.clone(), stats.clone(), &pool);
        let sorted =
            SimilarityGraph::assemble(&m, config, (keys, stats), &pool, union_top_k_by_sorting);
        (heaps, sorted)
    }

    #[test]
    fn heap_pruning_agrees_with_the_sort_oracle_at_exactly_k_and_k_plus_one_pairs() {
        // All tied. Item 0 has exactly k = 3 incident pairs and keeps them all; item 4
        // has k + 1 = 4, so its heap evicts the highest-indexed one, (4, 8) — which
        // item 8 still ranks first, being its only pair, so the union keeps it.
        let config = GraphConfig {
            top_k: Some(3),
            ..Default::default()
        };
        let mut pairs = vec![(0, 1, 2), (0, 2, 2), (0, 3, 2)];
        pairs.extend([(4, 5, 2), (4, 6, 2), (4, 7, 2), (4, 8, 2)]);
        let (heaps, sorted) = pruned_both_ways(12, &pairs, config, 1);
        assert_eq!(heaps, sorted);
        assert_eq!(heaps.degree(ItemId(0)), 3);
        assert_eq!(heaps.degree(ItemId(4)), 4);
        // Three stronger pairs fill item 8's own top-k: now nobody ranks (4, 8).
        pairs.extend([(8, 9, 0), (8, 10, 0), (8, 11, 0)]);
        let (heaps, sorted) = pruned_both_ways(12, &pairs, config, 1);
        assert_eq!(heaps, sorted);
        assert!(heaps.edge_between(ItemId(4), ItemId(8)).is_none());
        assert_eq!(heaps.degree(ItemId(4)), 3);
    }

    proptest! {
        /// CSR structural invariants on random graphs: offsets monotone, neighbour ids
        /// sorted and deduplicated, every slot's edge record within bounds, and the
        /// similarity permutation is a permutation.
        #[test]
        fn csr_invariants(
            ratings in proptest::collection::vec((0u32..12, 0u32..16, 1u32..=5), 1..200),
            top_k in 1usize..8,
        ) {
            let m = random_matrix(&ratings, 2);
            for top_k in [None, Some(top_k)] {
                let g = SimilarityGraph::build(&m, GraphConfig { top_k, ..Default::default() });
                prop_assert_eq!(g.offsets.len(), g.n_items() + 1);
                for w in g.offsets.windows(2) {
                    prop_assert!(w[0] <= w[1], "offsets must be monotone");
                }
                prop_assert_eq!(*g.offsets.last().unwrap() as usize, g.neighbors.len());
                prop_assert_eq!(g.neighbors.len(), g.edge_ix.len());
                prop_assert_eq!(g.neighbors.len(), g.sim_rank.len());
                prop_assert_eq!(g.neighbors.len(), 2 * g.n_undirected_edges());
                for i in g.items() {
                    let view = g.neighbors(i);
                    for w in view.ids().windows(2) {
                        prop_assert!(w[0] < w[1], "ids must be sorted and deduped");
                    }
                    let mut slots: Vec<u32> = view.sim_rank.to_vec();
                    slots.sort_unstable();
                    let expect: Vec<u32> = (0..view.len() as u32).collect();
                    prop_assert_eq!(slots, expect, "sim_rank must be a permutation");
                    for e in view.iter() {
                        prop_assert!(e.to != i, "no self-loops");
                    }
                }
            }
        }

        /// With pruning off, the arena stores exactly the naive reference's pairs, and
        /// the symmetric lookup agrees with the reference in both argument orders.
        #[test]
        fn lookup_agrees_with_naive_reference(
            ratings in proptest::collection::vec((0u32..10, 0u32..14, 1u32..=5), 1..150),
        ) {
            let m = random_matrix(&ratings, 2);
            let config = GraphConfig { top_k: None, ..Default::default() };
            let g = SimilarityGraph::build(&m, config);
            let reference = naive_reference(&m, config);
            prop_assert_eq!(g.n_undirected_edges(), reference.len());
            for (&(lo, hi), stats) in &reference {
                let via_lo = g.edge_between(lo, hi);
                let via_hi = g.edge_between(hi, lo);
                prop_assert!(via_lo.is_some() && via_hi.is_some());
                prop_assert_eq!(*via_lo.unwrap().stats, *stats);
                prop_assert_eq!(*via_hi.unwrap().stats, *stats);
            }
            // and nothing beyond the reference
            for i in g.items() {
                for e in g.neighbors(i).iter() {
                    let key = if i < e.to { (i, e.to) } else { (e.to, i) };
                    prop_assert!(reference.contains_key(&key), "extra edge {key:?}");
                }
            }
        }

        /// The chunk-sort-merge pair-key collection produces exactly the naive
        /// collect-everything-then-dedup key set (the memory fix must not change a key),
        /// and decoding round-trips.
        #[test]
        fn bounded_pair_key_collection_matches_naive_dedup(
            ratings in proptest::collection::vec((0u32..12, 0u32..16, 1u32..=5), 1..250),
        ) {
            let m = random_matrix(&ratings, 2);
            let mut naive: Vec<u64> = Vec::new();
            for u in m.users() {
                let profile = m.user_profile(u);
                for a in 0..profile.len() {
                    for b in (a + 1)..profile.len() {
                        naive.push(SimilarityGraph::pair_key(profile[a].item, profile[b].item));
                    }
                }
            }
            naive.sort_unstable();
            naive.dedup();
            let bounded = SimilarityGraph::co_rated_pair_keys(&m);
            prop_assert_eq!(&bounded, &naive);
            for &key in &bounded {
                let (lo, hi) = SimilarityGraph::pair_of_key(key);
                prop_assert!(lo < hi, "canonical keys must be (min, max)");
                prop_assert_eq!(SimilarityGraph::pair_key(hi, lo), key);
            }
        }

        /// The row-gathering `build` ≡ the per-pair `build_serial`, on the whole arena,
        /// for every metric, with and without `top_k` / `min_similarity`.
        #[test]
        fn build_is_bit_identical_to_build_serial(
            ratings in proptest::collection::vec((0u32..14, 0u32..18, 1u32..=5), 1..220),
            k in 1usize..6,
            metric_ix in 0usize..3,
        ) {
            let m = random_matrix(&ratings, 2);
            let metric = [
                SimilarityMetric::AdjustedCosine,
                SimilarityMetric::Cosine,
                SimilarityMetric::Pearson,
            ][metric_ix];
            for top_k in [None, Some(k)] {
                for min_similarity in [0.0, 0.4] {
                    let config = GraphConfig { metric, top_k, min_similarity };
                    prop_assert_eq!(
                        SimilarityGraph::build(&m, config),
                        SimilarityGraph::build_serial(&m, config),
                        "build diverged from build_serial under {:?}", config
                    );
                }
            }
        }

        /// The bounded-heap pruning ≡ the sort-everything oracle on the whole graph
        /// (`PartialEq` covers the arena and `sim_rank`), over
        /// pair sets whose similarities are drawn from four values — ties everywhere,
        /// negatives included — with and without a filter that drops some.
        #[test]
        fn heap_pruning_is_bit_identical_to_the_sort_oracle(
            n_items in 2u32..=40,
            pairs in proptest::collection::vec((0u32..40, 0u32..40, 0usize..4), 0..300),
        ) {
            for top_k in [Some(1), Some(2), Some(5), None] {
                for min_similarity in [0.0, 0.3] {
                    let config = GraphConfig { top_k, min_similarity, ..Default::default() };
                    for workers in [1, 2, 8] {
                        let (heaps, sorted) = pruned_both_ways(n_items, &pairs, config, workers);
                        prop_assert_eq!(heaps, sorted, "pruning diverged under {:?}", config);
                    }
                }
            }
        }

        /// Union pruning keeps an edge iff it ranks top-k on at least one endpoint.
        #[test]
        fn union_pruning_semantics(
            ratings in proptest::collection::vec((0u32..10, 0u32..12, 1u32..=5), 1..150),
            k in 1usize..6,
        ) {
            let m = random_matrix(&ratings, 2);
            let pruned = SimilarityGraph::build(&m, GraphConfig { top_k: Some(k), ..Default::default() });
            let full = SimilarityGraph::build(&m, GraphConfig { top_k: None, ..Default::default() });
            prop_assert!(pruned.n_undirected_edges() <= full.n_undirected_edges());
            for i in pruned.items() {
                for e in pruned.neighbors(i).iter() {
                    prop_assert!(
                        full.edge_between(i, e.to).is_some(),
                        "pruning must not invent edges"
                    );
                }
            }
        }
    }
}
