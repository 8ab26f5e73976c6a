//! Neighbour-based collaborative filtering — Algorithms 1 and 2 of the paper.
//!
//! * [`UserKnn`] implements the user-based scheme: Phase 1 selects the k most similar
//!   users under Equation 1, Phase 2 predicts with Equation 2 and scores candidate lists.
//! * [`ItemKnn`] implements the item-based scheme: Phase 1 precomputes, for every item,
//!   its k most similar items under the chosen metric (Equation 3 / adjusted cosine),
//!   Phase 2 predicts with Equation 4.
//!
//! Both predictors accept an *external profile* — a list of `(item, rating)` pairs
//! that is not stored in the training matrix. This is exactly how X-Map consumes them:
//! the AlterEgo profile of a user is an artificial profile in the target domain that is
//! combined with the target-domain training data (§4.4).
//!
//! The user-based scheme precomputes nothing, so both of its phases run per request,
//! and both are *item-major gathers* over a [`UserKnnScratch`] rather than probes:
//! Phase 1 ([`UserKnn::neighbors_of_profile`]) walks the columns of the profile's items
//! in user-id windows, accumulating Equation 1 per touched user — a user who co-rates
//! nothing is never visited — and offers each window's users to the top-k in ascending
//! id, ending at k neighbours of similarity exactly 1 before reading the next window;
//! Phase 2 for a candidate list ([`UserKnn::score_with_neighbors`]) scatters the span
//! of each neighbour's row that the list covers into a per-item accumulator instead of
//! binary-searching every neighbour row for every candidate. Both are bit-identical to
//! the definitions they replace (the full scan, kept as a test oracle, and
//! [`UserKnn::predict_with_neighbors`] per item): every floating-point sum receives the
//! same addends in the same order, and every user past the stop loses its tie.

use crate::epoch::{EpochBuffer, IdBitSet};
use crate::error::{CfError, Result};
use crate::ids::{ItemId, UserId};
use crate::matrix::RatingMatrix;
use crate::rating::Timestep;
use crate::similarity::{
    item_similarity_stats, ItemRowKernel, Partners, RowScratch, SimilarityMetric, SimilarityStats,
};
use crate::topk::TopK;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An external (possibly artificial) user profile: item, rating value and the logical
/// timestep at which the rating was (or is considered to have been) given.
pub type Profile = Vec<(ItemId, f64, Timestep)>;

/// Builds a [`Profile`] from `(item, value)` pairs with timestep 0.
pub fn profile_from_pairs(pairs: impl IntoIterator<Item = (ItemId, f64)>) -> Profile {
    pairs
        .into_iter()
        .map(|(i, v)| (i, v, Timestep(0)))
        .collect()
}

// ---------------------------------------------------------------------------
// User-based CF (Algorithm 1)
// ---------------------------------------------------------------------------

/// User-based k-nearest-neighbour collaborative filtering (Algorithm 1).
pub struct UserKnn<'a> {
    matrix: &'a RatingMatrix,
    /// Number of neighbours retained in Phase 1.
    k: usize,
}

impl<'a> UserKnn<'a> {
    /// Creates a user-based recommender over a training matrix, keeping `k` neighbours.
    pub fn new(matrix: &'a RatingMatrix, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(CfError::invalid_parameter("k", "must be at least 1"));
        }
        Ok(UserKnn { matrix, k })
    }

    /// Phase 1 for an external profile: the k most similar training users to the profile.
    ///
    /// A windowed inverted-index gather. Each distinct profile item (ascending id; of
    /// duplicates the last wins; an out-of-catalogue id has an empty column) keeps a
    /// cursor into its column, which is sorted by user id. Per window of
    /// `USER_WINDOW` user ids, every cursor advances to the window's end, adding its
    /// item's term of Equation 1 to the sums of each rater it passes; the window's
    /// touched users are then offered to the top-k in ascending id, and the search ends
    /// the moment the top-k holds k users at similarity exactly 1.0 — Equation 1 is
    /// clamped to `[-1, 1]` and ties break towards the lower id, so no later user can
    /// enter. A user's terms arrive in ascending item id and users are offered in
    /// ascending id, so the result is bit for bit that of a scan over every stored user.
    /// The next window starts at the lowest unwalked user id, so an empty one costs
    /// nothing; users the profile shares no item with are never visited.
    pub fn neighbors_of_profile(
        &self,
        profile: &Profile,
        scratch: &mut UserKnnScratch,
    ) -> Vec<(UserId, f64)> {
        let UserKnnScratch {
            profile: items,
            cursors,
            sums,
            touched,
            ..
        } = scratch;
        items.clear();
        items.extend(profile.iter().map(|&(i, v, _)| (i, v)));
        // stable: among duplicates of an item the last offered stays last
        items.sort_by_key(|&(i, _)| i);
        cursors.clear();
        let mut next: Option<u32> = None;
        for (pos, &(item, ra)) in items.iter().enumerate() {
            let Some(first) = self.matrix.item_profile(item).first() else {
                continue;
            };
            if items.get(pos + 1).is_some_and(|&(later, _)| later == item) {
                continue;
            }
            next = Some(next.map_or(first.user.0, |n| n.min(first.user.0)));
            let i_avg = self.matrix.item_average(item);
            cursors.push(Cursor {
                item,
                i_avg,
                da: ra - i_avg,
                pos: 0,
            });
        }
        sums.begin(self.matrix.n_users());
        touched.begin(self.matrix.n_users());
        let mut collector = TopK::new(self.k);
        'windows: while let Some(start) = next.take() {
            let end = start.saturating_add(USER_WINDOW);
            cursors.retain_mut(|c| {
                let column = self.matrix.item_profile(c.item);
                while let Some(e) = column.get(c.pos) {
                    if e.user.0 >= end {
                        next = Some(next.map_or(e.user.0, |n| n.min(e.user.0)));
                        return true;
                    }
                    c.pos += 1;
                    let Some((fresh, [num, den_a, den_b])) = sums.entry(e.user.index()) else {
                        continue;
                    };
                    if fresh {
                        touched.insert(e.user.index());
                    }
                    let db = e.value - c.i_avg;
                    *num += c.da * db;
                    *den_a += c.da * c.da;
                    *den_b += db * db;
                }
                false
            });
            for ix in touched.ascending() {
                let [num, den_a, den_b] = sums.get(ix).unwrap_or_default();
                let den = (den_a * den_b).sqrt();
                if den < 1e-12 {
                    continue;
                }
                let sim = (num / den).clamp(-1.0, 1.0);
                // rejects the "no overlap" zero and a hostile profile's NaN alike
                if sim.abs() > 0.0 {
                    collector.push(sim, UserId(ix as u32));
                    // k users at the clamp's ceiling: every later user has a higher id and
                    // loses the tie, so no later window can change the top-k
                    if collector.threshold() == Some(1.0) {
                        break 'windows;
                    }
                }
            }
        }
        collector
            .into_sorted_vec()
            .into_iter()
            .map(|(s, u)| (u, s))
            .collect()
    }

    /// The definition [`neighbors_of_profile`](Self::neighbors_of_profile) is gated
    /// against: Equation 1 between the profile and *every* stored user, offered to the
    /// top-k in ascending user id.
    #[cfg(test)]
    fn neighbors_of_profile_scan(&self, profile: &Profile) -> Vec<(UserId, f64)> {
        let profile_map: HashMap<ItemId, f64> = profile.iter().map(|&(i, v, _)| (i, v)).collect();
        let mut collector = TopK::new(self.k);
        for other in self.matrix.users() {
            let sim = self.profile_user_similarity(&profile_map, other);
            if sim.abs() > 0.0 {
                collector.push(sim, other);
            }
        }
        collector
            .into_sorted_vec()
            .into_iter()
            .map(|(s, u)| (u, s))
            .collect()
    }

    /// Equation 1 between an external profile and a stored user (centred by item average).
    #[cfg(test)]
    fn profile_user_similarity(&self, profile_map: &HashMap<ItemId, f64>, other: UserId) -> f64 {
        let mut num = 0.0;
        let mut den_a = 0.0;
        let mut den_b = 0.0;
        for e in self.matrix.user_profile(other) {
            if let Some(&ra) = profile_map.get(&e.item) {
                let i_avg = self.matrix.item_average(e.item);
                let da = ra - i_avg;
                let db = e.value - i_avg;
                num += da * db;
                den_a += da * da;
                den_b += db * db;
            }
        }
        let den = (den_a * den_b).sqrt();
        if den < 1e-12 {
            0.0
        } else {
            (num / den).clamp(-1.0, 1.0)
        }
    }

    /// Phase 2: predicted rating of `item` for `user` (Equation 2), using precomputed
    /// neighbours. Falls back to the user average when no neighbour rated the item.
    pub fn predict_with_neighbors(
        &self,
        user_average: f64,
        neighbors: &[(UserId, f64)],
        item: ItemId,
    ) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &(b, sim) in neighbors {
            if let Some(r) = self.matrix.rating(b, item) {
                num += sim * (r - self.matrix.user_average(b));
                den += sim.abs();
            }
        }
        self.prediction_from_sums(user_average, num, den)
    }

    /// Phase 2 for a whole candidate list: `(prediction, item)` for every item of
    /// `items`, in order — exactly [`predict_with_neighbors`](Self::predict_with_neighbors)
    /// per item, bit for bit. Each neighbour's row is scattered once, in neighbour
    /// order, into a dense per-item `(num, den)` accumulator, so every item's sums take
    /// the same addends in the same order as the per-item loop — without a binary
    /// search per (candidate, neighbour) pair. Rows are sorted by item, so only the
    /// slice between the lowest and the highest id of `items` is walked: a routed hop
    /// scoring one shard's segment touches that shard's part of each row. Ids outside
    /// the catalogue read as "no neighbour rated it".
    pub fn score_with_neighbors(
        &self,
        user_average: f64,
        neighbors: &[(UserId, f64)],
        items: &[ItemId],
        scratch: &mut UserKnnScratch,
    ) -> Vec<(f64, ItemId)> {
        let (Some(&lo), Some(&hi)) = (items.iter().min(), items.iter().max()) else {
            return Vec::new();
        };
        let sums = &mut scratch.item_sums;
        sums.begin(self.matrix.n_items());
        for &(b, sim) in neighbors {
            let b_avg = self.matrix.user_average(b);
            for e in self.matrix.user_profile_in(b, lo..=hi) {
                if let Some((_, (num, den))) = sums.entry(e.item.index()) {
                    *num += sim * (e.value - b_avg);
                    *den += sim.abs();
                }
            }
        }
        items
            .iter()
            .map(|&i| {
                let (num, den) = sums.get(i.index()).unwrap_or_default();
                (self.prediction_from_sums(user_average, num, den), i)
            })
            .collect()
    }

    /// Equation 2 from its two sums, clamped to the rating scale.
    fn prediction_from_sums(&self, user_average: f64, num: f64, den: f64) -> f64 {
        let raw = if den < 1e-12 {
            user_average
        } else {
            user_average + num / den
        };
        self.matrix.scale().clamp(raw)
    }

    /// Predicted rating of `item` for an external profile.
    pub fn predict_for_profile(
        &self,
        profile: &Profile,
        item: ItemId,
        scratch: &mut UserKnnScratch,
    ) -> f64 {
        let neighbors = self.neighbors_of_profile(profile, scratch);
        let avg = profile_average(profile).unwrap_or_else(|| self.matrix.global_average());
        self.predict_with_neighbors(avg, &neighbors, item)
    }
}

/// Reusable buffers of the user-based serve path, one per serving thread: both phases
/// of a request run over dense, epoch-invalidated accumulators instead of allocating
/// (or hashing) per call. Every buffer is re-sized to the matrix at each use, so a
/// warmed scratch follows a matrix that gains users or items between two reads.
#[derive(Debug, Default)]
pub struct UserKnnScratch {
    /// The profile's `(item, rating)` pairs, ascending by item id.
    profile: Vec<(ItemId, f64)>,
    /// One cursor per distinct profile item with raters, ascending by item id.
    cursors: Vec<Cursor>,
    /// Equation 1's `[num, den_a, den_b]` per user touched by the current profile.
    sums: EpochBuffer<[f64; 3]>,
    /// The users with live `sums`, walked in ascending id.
    touched: IdBitSet,
    /// Equation 2's `(num, den)` per item rated by a neighbour.
    item_sums: EpochBuffer<(f64, f64)>,
}

impl UserKnnScratch {
    /// An empty scratch; buffers take the matrix's size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The user ids one window of the neighbour search walks before it offers them
/// (swept over 128, 256, 512 and 1024 on the user-based serve benchmark).
const USER_WINDOW: u32 = 128;

/// A profile item's place in the neighbour search: its Equation 1 constants and the
/// next unwalked position in its column.
#[derive(Debug)]
struct Cursor {
    item: ItemId,
    i_avg: f64,
    da: f64,
    pos: usize,
}

// ---------------------------------------------------------------------------
// Item-based CF (Algorithm 2)
// ---------------------------------------------------------------------------

/// Configuration of the item-based recommender.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ItemKnnConfig {
    /// Number of neighbour items `k` retained per item in Phase 1.
    pub k: usize,
    /// Similarity metric for Phase 1 (the paper uses adjusted cosine).
    pub metric: SimilarityMetric,
    /// Temporal decay rate α of Equation 7; 0 disables temporal weighting.
    pub temporal_alpha: f64,
}

impl Default for ItemKnnConfig {
    fn default() -> Self {
        ItemKnnConfig {
            k: 50,
            metric: SimilarityMetric::AdjustedCosine,
            temporal_alpha: 0.0,
        }
    }
}

/// A neighbour of an item in the precomputed model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ItemNeighbor {
    /// Neighbouring item.
    pub item: ItemId,
    /// Similarity between the model item and the neighbour.
    pub similarity: f64,
}

/// Reusable scratch for collecting per-item co-rating candidate sets: the epoch-marked
/// dense seen buffer that deduplicates candidates *during* collection, so a pair
/// co-rated by many users is stored once, not once per co-rating user. One instance
/// serves any number of items. Candidate sets are the first half of the per-candidate
/// **reference** fit ([`ItemKnn::neighbors_from_candidates`] is the second); the fit
/// itself reads an [`ItemRowKernel`] row, which is its own candidate set.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    seen: EpochBuffer<()>,
}

impl CandidateScratch {
    /// The co-rating candidate set of `item`: the distinct items sharing at least one
    /// rater with it, sorted ascending — exactly one row of `ItemKnn::candidate_sets`
    /// (the test-only table of every item's set).
    pub fn candidate_set(&mut self, matrix: &RatingMatrix, item: ItemId) -> Vec<ItemId> {
        self.seen.begin(matrix.n_items());
        let mut cands: Vec<ItemId> = Vec::new();
        for rater in matrix.item_profile(item) {
            for e in matrix.user_profile(rater.user) {
                if e.item != item && matches!(self.seen.entry(e.item.index()), Some((true, _))) {
                    cands.push(e.item);
                }
            }
        }
        cands.sort_unstable();
        cands
    }
}

/// Item-based k-nearest-neighbour collaborative filtering (Algorithm 2) with optional
/// temporal weighting (Equation 7).
pub struct ItemKnn<'a> {
    matrix: &'a RatingMatrix,
    config: ItemKnnConfig,
    /// `neighbors[i]` = top-k similar items of item `i`, sorted by descending similarity.
    neighbors: Vec<Vec<ItemNeighbor>>,
}

impl<'a> ItemKnn<'a> {
    /// Validates an [`ItemKnnConfig`], shared by every fit entry point.
    fn validate(config: &ItemKnnConfig) -> Result<()> {
        if config.k == 0 {
            return Err(CfError::invalid_parameter("k", "must be at least 1"));
        }
        if config.temporal_alpha < 0.0 || !config.temporal_alpha.is_finite() {
            return Err(CfError::invalid_parameter(
                "temporal_alpha",
                "must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// The co-rating candidate set of every item: `sets[i]` holds the distinct items
    /// sharing at least one rater with item `i`, sorted ascending.
    ///
    /// Candidates are deduplicated *during* collection with an epoch-marked dense seen
    /// buffer, so a pair co-rated by many users is stored once, not once per co-rating
    /// user — peak memory per set equals its distinct-neighbour count (plus the one
    /// `O(n_items)` marker buffer), while the historical per-user scatter grew with the
    /// rating count before its dedup.
    #[cfg(test)]
    pub fn candidate_sets(matrix: &RatingMatrix) -> Vec<Vec<ItemId>> {
        let mut scratch = CandidateScratch::default();
        (0..matrix.n_items())
            .map(|i| scratch.candidate_set(matrix, ItemId(i as u32)))
            .collect()
    }

    /// Phase 1 for one item, by definition: scores every candidate with one profile
    /// merge each and keeps the top `config.k`, sorted by descending similarity (ties
    /// keep candidate order — ascending item id when the candidates come from
    /// [`CandidateScratch::candidate_set`]).
    ///
    /// This is the per-candidate **reference** [`ItemKnn::neighbors_from_row`] is held
    /// to; no fit path calls it.
    pub fn neighbors_from_candidates(
        matrix: &RatingMatrix,
        item: ItemId,
        candidates: &[ItemId],
        config: &ItemKnnConfig,
    ) -> Vec<ItemNeighbor> {
        let mut collector = TopK::new(config.k);
        for &j in candidates {
            let stats = item_similarity_stats(matrix, item, j, config.metric);
            // lint: float-eq — exact zero is the "no co-rater" sentinel from the stats.
            if stats.similarity != 0.0 {
                collector.push(stats.similarity, j);
            }
        }
        collector
            .into_sorted_vec()
            .into_iter()
            .map(|(s, j)| ItemNeighbor {
                item: j,
                similarity: s,
            })
            .collect()
    }

    /// Phase 1 for one item from its [`ItemRowKernel`] row: offers the row to the top-k
    /// in ascending item id — the candidate order, so ties at the k-th place break as
    /// in [`ItemKnn::neighbors_from_candidates`] — and keeps the top `k`, sorted by
    /// descending similarity.
    ///
    /// This is the per-item unit of work the engine-parallel recommender stage
    /// partitions; [`ItemKnn::fit`] is exactly this over every item's row.
    pub fn neighbors_from_row(row: &[(ItemId, SimilarityStats)], k: usize) -> Vec<ItemNeighbor> {
        let mut collector = TopK::new(k);
        for &(j, stats) in row {
            // lint: float-eq — exact zero is the "no co-rater" sentinel from the stats.
            if stats.similarity != 0.0 {
                collector.push(stats.similarity, j);
            }
        }
        collector
            .into_sorted_vec()
            .into_iter()
            .map(|(s, j)| ItemNeighbor {
                item: j,
                similarity: s,
            })
            .collect()
    }

    /// Phase 1: precomputes the k most similar items for every item.
    ///
    /// Each item is scored against everything it shares a rater with in one
    /// [`ItemRowKernel`] gather (two items that share no user have zero similarity
    /// under every supported metric and are never visited), so the cost is the sum
    /// over items of their raters' profile lengths rather than `O(m^2)` merges.
    pub fn fit(matrix: &'a RatingMatrix, config: ItemKnnConfig) -> Result<Self> {
        Self::validate(&config)?;
        let kernel = ItemRowKernel::new(matrix, config.metric);
        let mut scratch = RowScratch::default();
        let neighbors = matrix
            .items()
            .map(|i| {
                Self::neighbors_from_row(kernel.row(i, &mut scratch, Partners::All).0, config.k)
            })
            .collect();
        Ok(ItemKnn {
            matrix,
            config,
            neighbors,
        })
    }

    /// The precomputed neighbours of an item (empty for unknown or isolated items).
    pub fn neighbors(&self, item: ItemId) -> &[ItemNeighbor] {
        self.neighbors
            .get(item.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Consumes the model and returns the fitted per-item neighbour pools
    /// (`pools[i]` = top-k similar items of item `i`, sorted by descending similarity).
    ///
    /// Owning models (the X-Map recommenders) fit an `ItemKnn`, keep the pools and drop
    /// the borrowing wrapper; this hands the pools over without re-collecting them.
    pub fn into_neighbors(self) -> Vec<Vec<ItemNeighbor>> {
        self.neighbors
    }

    /// Phase 2, Equation 4: predicted rating of `item` for a stored user.
    pub fn predict(&self, user: UserId, item: ItemId) -> f64 {
        let profile: Profile = self
            .matrix
            .user_profile(user)
            .iter()
            .map(|e| (e.item, e.value, e.timestep))
            .collect();
        self.predict_for_profile(&profile, item)
    }

    /// Phase 2 for an external profile (Equation 4, or Equation 7 when α > 0): the
    /// prediction only depends on the querying user's own ratings of items similar to
    /// `item`, which is what makes the temporal variant well-defined per user (§4.4).
    pub fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> f64 {
        let item_avg = self.matrix.item_average(item);
        let now = profile
            .iter()
            .map(|&(_, _, t)| t)
            .max()
            .unwrap_or(Timestep(0));
        let ratings: HashMap<ItemId, (f64, Timestep)> =
            profile.iter().map(|&(i, v, t)| (i, (v, t))).collect();

        let mut num = 0.0;
        let mut den = 0.0;
        for n in self.neighbors(item) {
            if let Some(&(r, t)) = ratings.get(&n.item) {
                let weight = now.decay_since(t, self.config.temporal_alpha);
                num += n.similarity * (r - self.matrix.item_average(n.item)) * weight;
                den += n.similarity.abs() * weight;
            }
        }
        let raw = if den < 1e-12 {
            item_avg
        } else {
            item_avg + num / den
        };
        self.matrix.scale().clamp(raw)
    }
}

/// Mean rating of a profile, if non-empty.
pub fn profile_average(profile: &Profile) -> Option<f64> {
    if profile.is_empty() {
        None
    } else {
        Some(profile.iter().map(|&(_, v, _)| v).sum::<f64>() / profile.len() as f64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::RatingMatrixBuilder;
    use crate::topk::top_k;
    use proptest::prelude::*;

    /// Two clear taste clusters: users 0-2 love items 0-2 and hate 3-5; users 3-5 the
    /// opposite. User 6 is a partial member of the first cluster used for predictions.
    fn clustered() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        for u in 0..3u32 {
            for i in 0..3u32 {
                b.push_parts(u, i, 5.0).unwrap();
            }
            for i in 3..6u32 {
                b.push_parts(u, i, 1.0).unwrap();
            }
        }
        for u in 3..6u32 {
            for i in 0..3u32 {
                b.push_parts(u, i, 1.0).unwrap();
            }
            for i in 3..6u32 {
                b.push_parts(u, i, 5.0).unwrap();
            }
        }
        // user 6: likes item 0 and 1, has not seen 2..6
        b.push_parts(6, 0, 5.0).unwrap();
        b.push_parts(6, 1, 4.0).unwrap();
        b.build().unwrap()
    }

    /// A stored user's row as an external profile.
    fn row_profile(m: &RatingMatrix, user: UserId) -> Profile {
        m.user_profile(user)
            .iter()
            .map(|e| (e.item, e.value, e.timestep))
            .collect()
    }

    /// The top `n` items of `m` outside `profile`, ranked by both user-based phases of
    /// `knn` (built over `m`).
    fn recommend(
        m: &RatingMatrix,
        knn: &UserKnn<'_>,
        profile: &Profile,
        n: usize,
    ) -> Vec<(ItemId, f64)> {
        let mut scratch = UserKnnScratch::new();
        let neighbors = knn.neighbors_of_profile(profile, &mut scratch);
        let avg = profile_average(profile).unwrap_or_else(|| m.global_average());
        let unrated: Vec<ItemId> = m
            .items()
            .filter(|&i| profile.iter().all(|p| p.0 != i))
            .collect();
        let scored = knn.score_with_neighbors(avg, &neighbors, &unrated, &mut scratch);
        top_k(n, scored).into_iter().map(|(s, i)| (i, s)).collect()
    }

    #[test]
    fn user_knn_finds_same_cluster_neighbors() {
        let m = clustered();
        let knn = UserKnn::new(&m, 3).unwrap();
        let neigh =
            knn.neighbors_of_profile(&row_profile(&m, UserId(0)), &mut UserKnnScratch::new());
        assert_eq!(neigh.len(), 3);
        // the stored user matches their own row; the rest come from the same cluster
        assert_eq!(neigh[0], (UserId(0), 1.0));
        for &(u, s) in &neigh {
            assert!(
                u == UserId(0) || u == UserId(1) || u == UserId(2) || u == UserId(6),
                "unexpected neighbor {u}"
            );
            assert!(s > 0.0);
        }
    }

    #[test]
    fn user_knn_predicts_cluster_preferences() {
        let m = clustered();
        let knn = UserKnn::new(&m, 50).unwrap();
        let profile = row_profile(&m, UserId(6));
        let mut scratch = UserKnnScratch::new();
        let liked = knn.predict_for_profile(&profile, ItemId(2), &mut scratch);
        let disliked = knn.predict_for_profile(&profile, ItemId(4), &mut scratch);
        assert!(
            liked > disliked,
            "cluster item should be predicted higher: {liked} vs {disliked}"
        );
        assert!(liked >= 3.5);
        assert!(disliked <= 3.0);
    }

    #[test]
    fn user_knn_recommend_excludes_rated_items() {
        let m = clustered();
        let knn = UserKnn::new(&m, 50).unwrap();
        let recs = recommend(&m, &knn, &row_profile(&m, UserId(6)), 3);
        assert!(!recs.is_empty());
        for (item, _) in &recs {
            assert_ne!(*item, ItemId(0));
            assert_ne!(*item, ItemId(1));
        }
        // best recommendation should be the remaining cluster item
        assert_eq!(recs[0].0, ItemId(2));
    }

    #[test]
    fn user_knn_external_profile_matches_stored_user_behaviour() {
        // user 6's ratings as an external profile over a matrix that does not store them
        let m = clustered();
        let mut b = RatingMatrixBuilder::new();
        for r in m.iter().filter(|r| r.user != UserId(6)) {
            b.push(r).unwrap();
        }
        let without = b.build().unwrap();
        let mut scratch = UserKnnScratch::new();
        let knn = UserKnn::new(&m, 50).unwrap();
        let stored = knn.predict_for_profile(&row_profile(&m, UserId(6)), ItemId(2), &mut scratch);
        let external_knn = UserKnn::new(&without, 50).unwrap();
        let profile = profile_from_pairs([(ItemId(0), 5.0), (ItemId(1), 4.0)]);
        let external = external_knn.predict_for_profile(&profile, ItemId(2), &mut scratch);
        assert!(
            (stored - external).abs() < 0.75,
            "external profile should predict similarly: {stored} vs {external}"
        );
        let recs = recommend(&without, &external_knn, &profile, 2);
        assert_eq!(recs[0].0, ItemId(2));
    }

    #[test]
    fn user_knn_rejects_zero_k() {
        let m = clustered();
        assert!(UserKnn::new(&m, 0).is_err());
    }

    #[test]
    fn item_knn_neighbors_stay_within_cluster() {
        let m = clustered();
        let knn = ItemKnn::fit(
            &m,
            ItemKnnConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let neigh = knn.neighbors(ItemId(0));
        assert!(!neigh.is_empty());
        for n in neigh {
            assert!(
                n.item == ItemId(1) || n.item == ItemId(2),
                "unexpected item neighbor {:?}",
                n.item
            );
            assert!(n.similarity > 0.0);
        }
    }

    #[test]
    fn item_knn_predicts_cluster_preferences() {
        let m = clustered();
        let knn = ItemKnn::fit(&m, ItemKnnConfig::default()).unwrap();
        let liked = knn.predict(UserId(6), ItemId(2));
        let disliked = knn.predict(UserId(6), ItemId(4));
        assert!(liked > disliked, "{liked} vs {disliked}");
    }

    #[test]
    fn item_knn_prediction_falls_back_to_item_average() {
        let m = clustered();
        let knn = ItemKnn::fit(&m, ItemKnnConfig::default()).unwrap();
        // empty profile -> no neighbour information -> item average
        let p: Profile = Vec::new();
        let pred = knn.predict_for_profile(&p, ItemId(0));
        assert!((pred - m.item_average(ItemId(0))).abs() < 1e-9);
    }

    #[test]
    fn item_knn_rejects_bad_parameters() {
        let m = clustered();
        assert!(ItemKnn::fit(
            &m,
            ItemKnnConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(ItemKnn::fit(
            &m,
            ItemKnnConfig {
                temporal_alpha: -0.1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(ItemKnn::fit(
            &m,
            ItemKnnConfig {
                temporal_alpha: f64::NAN,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn temporal_weighting_prefers_recent_ratings() {
        // item 2's neighbours are items 0 and 1; the profile rates item 0 high long ago
        // and item 1 low recently. With α = 0 both count equally; with large α the
        // recent (low) rating dominates, so the prediction must not increase.
        let m = clustered();
        let flat = ItemKnn::fit(
            &m,
            ItemKnnConfig {
                temporal_alpha: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let decayed = ItemKnn::fit(
            &m,
            ItemKnnConfig {
                temporal_alpha: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let profile: Profile = vec![
            (ItemId(0), 5.0, Timestep(0)),
            (ItemId(1), 1.0, Timestep(100)),
        ];
        let p_flat = flat.predict_for_profile(&profile, ItemId(2));
        let p_decay = decayed.predict_for_profile(&profile, ItemId(2));
        assert!(
            p_decay <= p_flat + 1e-9,
            "temporal weighting should favour the recent low rating: {p_decay} vs {p_flat}"
        );
    }

    #[test]
    fn candidate_sets_stay_at_distinct_neighbour_count_under_many_co_raters() {
        // Regression: the fit used to push a neighbour candidate once per co-rating
        // user, so candidate sets grew with the rating count before dedup. With 50
        // users all rating the same three items, every candidate set must hold exactly
        // the two distinct neighbours — never 50 copies of each.
        let mut b = RatingMatrixBuilder::new();
        for u in 0..50u32 {
            for i in 0..3u32 {
                b.push_parts(u, i, ((u + i) % 5 + 1) as f64).unwrap();
            }
        }
        let m = b.build().unwrap();
        let sets = ItemKnn::candidate_sets(&m);
        assert_eq!(sets.len(), 3);
        for (i, set) in sets.iter().enumerate() {
            let distinct: Vec<ItemId> =
                (0..3u32).filter(|&j| j as usize != i).map(ItemId).collect();
            assert_eq!(
                set, &distinct,
                "candidate set of item {i} must hold exactly the distinct neighbours"
            );
        }
        // and the decomposed fit path agrees with the one-shot fit
        let config = ItemKnnConfig {
            k: 2,
            ..Default::default()
        };
        let fitted = ItemKnn::fit(&m, config).unwrap();
        for (i, cands) in sets.iter().enumerate() {
            assert_eq!(
                ItemKnn::neighbors_from_candidates(&m, ItemId(i as u32), cands, &config),
                fitted.neighbors(ItemId(i as u32))
            );
        }
    }

    #[test]
    fn candidate_scratch_matches_candidate_sets_row_for_row() {
        let m = clustered();
        let sets = ItemKnn::candidate_sets(&m);
        let mut scratch = CandidateScratch::default();
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(&scratch.candidate_set(&m, ItemId(i as u32)), set);
        }
        // reuse across matrices of different sizes is safe
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(0, 0, 4.0).unwrap();
        b.push_parts(0, 9, 5.0).unwrap();
        let wide = b.build().unwrap();
        assert_eq!(
            scratch.candidate_set(&wide, ItemId(0)),
            vec![ItemId(9)],
            "the seen buffer must grow with the matrix"
        );
    }

    #[test]
    fn item_knn_into_neighbors_hands_over_the_fitted_pools() {
        let m = clustered();
        let knn = ItemKnn::fit(
            &m,
            ItemKnnConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let expect: Vec<Vec<ItemNeighbor>> = (0..m.n_items() as u32)
            .map(|i| knn.neighbors(ItemId(i)).to_vec())
            .collect();
        let pools = knn.into_neighbors();
        assert_eq!(pools, expect);
    }

    #[test]
    fn profile_average_handles_empty() {
        assert_eq!(profile_average(&Vec::new()), None);
        let p = profile_from_pairs([(ItemId(0), 2.0), (ItemId(1), 4.0)]);
        assert_eq!(profile_average(&p), Some(3.0));
    }

    #[test]
    fn predictions_respect_rating_scale() {
        let m = clustered();
        let uknn = UserKnn::new(&m, 50).unwrap();
        let iknn = ItemKnn::fit(&m, ItemKnnConfig::default()).unwrap();
        let mut scratch = UserKnnScratch::new();
        for u in m.users() {
            for i in m.items() {
                let pu = uknn.predict_for_profile(&row_profile(&m, u), i, &mut scratch);
                let pi = iknn.predict(u, i);
                assert!(
                    (1.0..=5.0).contains(&pu),
                    "user-based prediction out of scale: {pu}"
                );
                assert!(
                    (1.0..=5.0).contains(&pi),
                    "item-based prediction out of scale: {pi}"
                );
            }
        }
    }

    // -----------------------------------------------------------------------
    // The indexed user-based phases against their definitions, on matrices the toy
    // clusters above cannot stand in for.
    // -----------------------------------------------------------------------

    /// An item id skewed towards the head of the catalogue: a handful of items are
    /// rated by most users, the tail by almost nobody.
    fn skewed_item(rng: &mut TestRng, n_items: u32) -> u32 {
        let x = rng.next_f64();
        (x * x * x * f64::from(n_items)) as u32
    }

    /// A random matrix with skewed item popularity and integer ratings, so users with
    /// exactly tied similarities (±1 from a single co-rated item, above all) abound.
    pub(crate) fn skewed_matrix(rng: &mut TestRng, n_users: u32, n_items: u32) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new().with_dimensions(n_users as usize, n_items as usize);
        for u in 0..n_users {
            // some users rate nothing at all
            for _ in 0..rng.next_u64() % 12 {
                let value = (1 + rng.next_u64() % 5) as f64;
                b.push_parts(u, skewed_item(rng, n_items), value).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Many users with one or two ratings each: most share a single item with a
    /// profile, which puts them at exactly ±1.0 — more than k such ties is the case the
    /// neighbour search's stop at k perfect neighbours is for.
    fn single_overlap_matrix(rng: &mut TestRng, n_users: u32, n_items: u32) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new().with_dimensions(n_users as usize, n_items as usize);
        for u in 0..n_users {
            for _ in 0..1 + rng.next_u64() % 2 {
                let value = (1 + rng.next_u64() % 5) as f64;
                b.push_parts(u, skewed_item(rng, n_items), value).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// A random profile: possibly empty, with duplicate items (different values),
    /// out-of-catalogue ids, and ratings that sit exactly on the item average (zero
    /// variance on the profile's side of Equation 1).
    fn random_profile(rng: &mut TestRng, m: &RatingMatrix) -> Profile {
        let n_items = m.n_items() as u32;
        let mut profile: Profile = Vec::new();
        for _ in 0..rng.next_u64() % 14 {
            let item = match rng.next_u64() % 10 {
                0 => ItemId(n_items + (rng.next_u64() % 3) as u32),
                1 => ItemId(u32::MAX),
                2 if !profile.is_empty() => profile[rng.next_u64() as usize % profile.len()].0,
                _ => ItemId(skewed_item(rng, n_items)),
            };
            let value = if rng.next_u64().is_multiple_of(4) {
                m.item_average(item)
            } else {
                (1 + rng.next_u64() % 5) as f64
            };
            profile.push((item, value, Timestep(0)));
        }
        profile
    }

    fn bits(neighbors: &[(UserId, f64)]) -> Vec<(UserId, u64)> {
        neighbors.iter().map(|&(u, s)| (u, s.to_bits())).collect()
    }

    /// The indexed search against the scan, bit for bit, at `k` and at `k = 1`, and
    /// with a duplicated and two out-of-catalogue items added to the profile (the
    /// duplicate's last value is the one in force).
    /// Returns the scan's neighbours of the plain profile at `k`.
    fn search_matching_scan(m: &RatingMatrix, profile: &Profile, k: usize) -> Vec<(UserId, f64)> {
        let mut scratch = UserKnnScratch::new();
        let mut noisy = profile.clone();
        let (first, value, _) = profile[0];
        noisy.insert(0, (first, 6.0 - value, Timestep(0)));
        noisy.push((ItemId(m.n_items() as u32 + 4), 4.0, Timestep(0)));
        noisy.push((ItemId(u32::MAX), 2.0, Timestep(0)));
        for profile in [profile, &noisy] {
            for k in [k, 1] {
                let knn = UserKnn::new(m, k).unwrap();
                let got = knn.neighbors_of_profile(profile, &mut scratch);
                let expect = knn.neighbors_of_profile_scan(profile);
                assert_eq!(bits(&got), bits(&expect), "k {k}");
            }
        }
        let knn = UserKnn::new(m, k).unwrap();
        knn.neighbors_of_profile_scan(profile)
    }

    #[test]
    fn the_stop_keeps_the_lowest_ids_among_perfect_neighbours_not_the_first_touched() {
        // Item 0 is walked first, so user 9 is touched before users 0..3; all four sit at
        // exactly 1.0 (one co-rated item each), and the top-3 is the three lowest ids.
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(9, 0, 5.0).unwrap();
        b.push_parts(10, 0, 1.0).unwrap();
        for u in 0..3 {
            b.push_parts(u, 1, 5.0).unwrap();
        }
        b.push_parts(11, 1, 1.0).unwrap();
        let m = b.build().unwrap();
        let profile = profile_from_pairs([(ItemId(0), 5.0), (ItemId(1), 5.0)]);
        let expect: Vec<(UserId, f64)> = (0..3).map(|u| (UserId(u), 1.0)).collect();
        assert_eq!(bits(&search_matching_scan(&m, &profile, 3)), bits(&expect));
    }

    #[test]
    fn the_stop_waits_for_exactly_one_not_for_nearly_one() {
        // Users 0 and 1 co-rate two items with deviations almost parallel to the
        // profile's (similarity just below 1.0); user 9 co-rates one item, at exactly
        // 1.0, and has the higher id. A stop at "threshold ≥ 1 − ε" would miss user 9.
        let mut b = RatingMatrixBuilder::new();
        for u in 0..2 {
            b.push_parts(u, 0, 5.0).unwrap();
            b.push_parts(u, 1, 4.999).unwrap();
        }
        b.push_parts(20, 0, 1.0).unwrap();
        b.push_parts(20, 1, 1.0).unwrap();
        b.push_parts(9, 2, 5.0).unwrap();
        b.push_parts(21, 2, 1.0).unwrap();
        let m = b.build().unwrap();
        let profile = profile_from_pairs([(ItemId(0), 5.0), (ItemId(1), 5.0), (ItemId(2), 5.0)]);
        let expect = search_matching_scan(&m, &profile, 2);
        assert_eq!(expect[0], (UserId(9), 1.0));
        let (runner_up, sim) = expect[1];
        assert_eq!(runner_up, UserId(0));
        assert!(sim < 1.0 && sim > 1.0 - 1e-6, "nearly one: {sim}");
    }

    #[test]
    fn the_single_overlap_generator_puts_more_than_k_neighbours_at_one() {
        // guards the proptest below: its single-overlap rounds must reach the stop
        let mut reached = 0;
        for seed in 0..64u32 {
            let mut rng = TestRng::from_name(&seed.to_string());
            let m = single_overlap_matrix(&mut rng, 4 * W + 200, 30);
            let profile = random_profile(&mut rng, &m);
            let k = 1 + seed as usize % 12;
            let wide = UserKnn::new(&m, 4 * W as usize + 200).unwrap();
            let at_one = wide
                .neighbors_of_profile_scan(&profile)
                .iter()
                .filter(|n| n.1 == 1.0)
                .count();
            reached += usize::from(at_one > k);
        }
        assert!(
            reached >= 32,
            "only {reached} of 64 profiles reach the stop"
        );
    }

    #[test]
    fn zero_variance_overlap_yields_no_neighbour_on_either_path() {
        // Item 0 has one rater, so its average *is* that rating: a profile repeating it
        // overlaps user 0 with da = db = 0 and `den < 1e-12`. Users 1 and 2 overlap on
        // item 1 only, where the profile sits on the average (da = 0) but they do not.
        // A NaN profile rating makes Equation 1 NaN for every rater, which must not pass
        // for a neighbour either.
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(0, 0, 4.0).unwrap();
        b.push_parts(1, 1, 2.0).unwrap();
        b.push_parts(2, 1, 4.0).unwrap();
        let m = b.build().unwrap();
        let knn = UserKnn::new(&m, 50).unwrap();
        for profile in [
            profile_from_pairs([(ItemId(0), 4.0), (ItemId(1), 3.0)]),
            profile_from_pairs([(ItemId(1), f64::NAN)]),
        ] {
            assert!(knn.neighbors_of_profile_scan(&profile).is_empty());
            assert!(knn
                .neighbors_of_profile(&profile, &mut UserKnnScratch::new())
                .is_empty());
        }
    }

    /// A matrix over `n_users` users and three items, from `(user, item, value)` cells.
    fn windowed(n_users: u32, cells: &[(u32, u32, f64)]) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new().with_dimensions(n_users as usize, 3);
        for &(u, i, v) in cells {
            b.push_parts(u, i, v).unwrap();
        }
        b.build().unwrap()
    }

    const W: u32 = USER_WINDOW;

    fn at_one(users: &[u32]) -> Vec<(UserId, f64)> {
        users.iter().map(|&u| (UserId(u), 1.0)).collect()
    }

    #[test]
    fn the_kth_perfect_neighbour_may_close_a_window_or_open_the_next() {
        // The first window is `0..W`: the third user at 1.0 sits on its last id, then on
        // the next window's first; the perfect users after it lose their ties.
        for kth in [W - 1, W] {
            let mut cells = vec![(2, 0, 1.0), (4 * W - 1, 0, 1.0)];
            cells.extend([0, 1, kth, kth + 1, 3 * W].map(|u| (u, 0, 5.0)));
            let m = windowed(4 * W, &cells);
            let profile = profile_from_pairs([(ItemId(0), 5.0)]);
            let got = search_matching_scan(&m, &profile, 3);
            assert_eq!(bits(&got), bits(&at_one(&[0, 1, kth])), "k-th at {kth}");
        }
    }

    #[test]
    fn the_stop_can_fire_windows_after_the_first() {
        // One user at 1.0 (item 2 alone) in each of the first two windows and two more
        // in the fourth, beside users just below 1.0 (items 0 and 1) and fillers at the
        // bottom of the scale: the fourth window's second perfect user is the k-th.
        let mut cells = Vec::new();
        for u in [2, 2 * W + 3, 5 * W - 1] {
            cells.extend((0..3).map(|i| (u, i, 1.0)));
        }
        for u in [1, W + 9, 2 * W + 7] {
            cells.extend([(u, 0, 5.0), (u, 1, 4.999)]);
        }
        cells.extend([0, W + 5, 3 * W + 1, 3 * W + 2, 3 * W + 3].map(|u| (u, 2, 5.0)));
        let m = windowed(5 * W, &cells);
        let profile = profile_from_pairs([(ItemId(0), 5.0), (ItemId(1), 5.0), (ItemId(2), 5.0)]);
        let got = search_matching_scan(&m, &profile, 4);
        assert_eq!(bits(&got), bits(&at_one(&[0, W + 5, 3 * W + 1, 3 * W + 2])));
    }

    #[test]
    fn a_search_without_a_stop_walks_every_window() {
        // k exceeds the touched set: every rater of the profile's items, in every window,
        // is a neighbour — the last on the matrix's last id.
        let raters = [3, W - 1, W + 1, 2 * W + 50, 3 * W + 9, 5 * W - 1];
        let mut cells: Vec<_> = raters
            .iter()
            .map(|&u| (u, 0, 1.0 + f64::from(u % 5)))
            .collect();
        cells.extend(raters.iter().map(|&u| (u, 1, 1.0 + f64::from(u % 3))));
        let m = windowed(5 * W, &cells);
        let profile = profile_from_pairs([(ItemId(0), 4.0), (ItemId(1), 2.0)]);
        let got = search_matching_scan(&m, &profile, 50);
        assert_eq!(got.len(), raters.len());
    }

    #[test]
    fn a_column_that_runs_out_in_the_first_window_drops_its_cursor() {
        // Item 1's raters all sit in the first window; item 0's reach the fourth.
        let mut cells = vec![(3, 1, 5.0), (10, 1, 2.0), (3, 0, 4.0), (10, 0, 1.0)];
        cells.extend((0..8).map(|j| (j * W / 2 + 11, 0, f64::from(1 + j % 5))));
        let m = windowed(4 * W, &cells);
        let profile = profile_from_pairs([(ItemId(0), 4.0), (ItemId(1), 5.0)]);
        let got = search_matching_scan(&m, &profile, 5);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn one_warmed_scratch_follows_matrices_with_fewer_and_more_users() {
        // A stop in the first window leaves later users' words to the next use, which
        // runs on a smaller matrix, then on a larger one.
        let perfect = |n: u32, users: &[u32]| {
            let mut cells = vec![(n - 1, 0, 1.0)];
            cells.extend(users.iter().map(|&u| (u, 0, 5.0)));
            windowed(n, &cells)
        };
        let matrices = [
            perfect(4 * W, &[0, 5, 9, 2 * W, 3 * W]),
            perfect(W / 2, &[1, 7, 30]),
            perfect(6 * W, &[W, 4 * W, 5 * W + 2, 6 * W - 2]),
        ];
        let profile = profile_from_pairs([(ItemId(0), 5.0)]);
        let mut scratch = UserKnnScratch::new();
        for (m, expect) in matrices.iter().zip([&[0, 5][..], &[1, 7], &[W, 4 * W]]) {
            let knn = UserKnn::new(m, 2).unwrap();
            let got = knn.neighbors_of_profile(&profile, &mut scratch);
            assert_eq!(bits(&got), bits(&knn.neighbors_of_profile_scan(&profile)));
            assert_eq!(bits(&got), bits(&at_one(expect)));
        }
    }

    proptest! {
        /// Indexed Phase 1 ≡ the scan over every stored user, bit for bit — across
        /// profiles and matrices of different sizes served by one warmed scratch, a third
        /// of them with most raters at ±1.0 on a single co-rated item.
        #[test]
        fn indexed_neighbour_search_equals_the_scan_oracle(
            seed in any::<u64>(),
            n_users in 1u32..300,
            n_items in 1u32..60,
            k in 1usize..40,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            // k reaches past the candidate count on the small matrix; the other two span
            // at least four windows of the search
            let small = skewed_matrix(&mut rng, 1 + n_users / 8, n_items);
            let large = skewed_matrix(&mut rng, 4 * W + n_users, n_items + 7);
            let single = single_overlap_matrix(&mut rng, 4 * W + n_users, n_items);
            let mut scratch = UserKnnScratch::new();
            for round in 0..6 {
                let m = [&large, &small, &single][round % 3];
                let knn = UserKnn::new(m, k).unwrap();
                let profile = random_profile(&mut rng, m);
                let expect = knn.neighbors_of_profile_scan(&profile);
                let got = knn.neighbors_of_profile(&profile, &mut scratch);
                prop_assert_eq!(bits(&got), bits(&expect), "profile {:?}", profile);
            }
        }

        /// Scattered Phase 2 ≡ `predict_with_neighbors` per item, bit for bit, over
        /// arbitrary sub-slices of the candidate stream (the router scores it one shard
        /// segment at a time), with negative similarities, repeated and unknown
        /// neighbours, and candidate ids outside the catalogue.
        #[test]
        fn scattered_scoring_equals_per_item_prediction(
            seed in any::<u64>(),
            n_users in 1u32..200,
            n_items in 1u32..60,
            k in 1usize..30,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let m = skewed_matrix(&mut rng, n_users, n_items);
            let knn = UserKnn::new(&m, k).unwrap();
            let mut scratch = UserKnnScratch::new();
            let profile = random_profile(&mut rng, &m);
            let mut neighbors = knn.neighbors_of_profile(&profile, &mut scratch);
            for _ in 0..rng.next_u64() % 6 {
                let user = UserId((rng.next_u64() % (u64::from(n_users) + 2)) as u32);
                neighbors.push((user, rng.next_f64() * 2.0 - 1.0));
            }
            let mut stream: Vec<ItemId> = (0..n_items + 2).map(ItemId).collect();
            stream.push(ItemId(u32::MAX));
            stream.push(ItemId(0));
            let avg = profile_average(&profile).unwrap_or_else(|| m.global_average());
            for _ in 0..5 {
                let a = rng.next_u64() as usize % (stream.len() + 1);
                let b = rng.next_u64() as usize % (stream.len() + 1);
                let segment = &stream[a.min(b)..a.max(b)];
                let got: Vec<(ItemId, u64)> = knn
                    .score_with_neighbors(avg, &neighbors, segment, &mut scratch)
                    .into_iter()
                    .map(|(s, i)| (i, s.to_bits()))
                    .collect();
                let expect: Vec<(ItemId, u64)> = segment
                    .iter()
                    .map(|&i| (i, knn.predict_with_neighbors(avg, &neighbors, i).to_bits()))
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }
    }
}
