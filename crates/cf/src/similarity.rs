//! Similarity metrics and significance statistics.
//!
//! Three classical metrics appear in the paper:
//!
//! * **user–user Pearson-style similarity** (Equation 1, Algorithm 1, Phase 1) — computed
//!   on ratings mean-centred by the *item* average, by [`crate::UserKnn`]'s neighbour
//!   search,
//! * **item–item adjusted cosine** (Equations 3 and 6, Algorithm 2 / §3.1) — computed on
//!   ratings mean-centred by the *user* average, which the paper (following Sarwar et al.)
//!   considers the most effective baseline similarity, and
//! * plain **cosine** and **Pearson** item–item similarities, provided for completeness
//!   and ablation benches.
//!
//! On top of the raw similarity the X-Sim metric needs the *weighted significance*
//! `S_{i,j}` (Definition 2: users who mutually like or mutually dislike the pair) and its
//! normalised form `Ŝ_{i,j} = S_{i,j} / |Y_i ∪ Y_j|` (Definition 4). Both are returned in
//! a single [`SimilarityStats`] record, which has one definition and one production
//! scorer:
//!
//! * [`item_similarity_stats`] is the **definition**: one pair, one linear merge over
//!   the two item profiles. Nothing on a fit or delta path calls it — it is the oracle
//!   the serial references and the bit-identity gates score with.
//! * [`ItemRowKernel`] is the **scorer**: one item against *every* item it is co-rated
//!   with, in one gather over its raters' profiles. Each pair's addends reach their
//!   accumulator in ascending user id — the order the merge meets them in — the
//!   products commute, and the per-item denominators are computed once with the
//!   merge's own expression, so every record is the merge's record bit for bit
//!   (property-tested below) at a fraction of the profile entries walked.

use crate::epoch::EpochBuffer;
use crate::ids::{ItemId, UserId};
use crate::matrix::RatingMatrix;
use serde::{Deserialize, Serialize};

/// Which item–item similarity formula to use for the baseline similarity graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SimilarityMetric {
    /// Adjusted cosine (Equation 6) — ratings centred by the user average. The paper's
    /// default and the metric used for every reported experiment.
    #[default]
    AdjustedCosine,
    /// Plain cosine over raw rating vectors.
    Cosine,
    /// Pearson correlation over co-rating users (centred by each item's mean over the
    /// co-rating set).
    Pearson,
}

/// Full pairwise statistics for an item pair `(i, j)`.
///
/// The counters are `u32` rather than `usize`: a pair can never have more
/// co-raters than there are users (ids are `u32`), and the narrower layout
/// keeps the record at 24 bytes so the similarity-graph arena that stores one
/// record per undirected edge stays compact.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimilarityStats {
    /// The similarity value under the chosen metric, in `[-1, 1]` (0 if undefined).
    pub similarity: f64,
    /// Number of users who rated both items.
    pub co_raters: u32,
    /// Weighted significance `S_{i,j}` (Definition 2): mutual likes + mutual dislikes.
    pub significance: u32,
    /// Size of the union `|Y_i ∪ Y_j|`.
    pub union_size: u32,
}

impl SimilarityStats {
    /// A record representing "no relationship" (no co-raters).
    pub const NONE: SimilarityStats = SimilarityStats {
        similarity: 0.0,
        co_raters: 0,
        significance: 0,
        union_size: 0,
    };

    /// Normalised weighted significance `Ŝ_{i,j} = S_{i,j} / |Y_i ∪ Y_j|` (Definition 4).
    /// Zero when the union is empty.
    pub fn normalized_significance(&self) -> f64 {
        if self.union_size == 0 {
            0.0
        } else {
            self.significance as f64 / self.union_size as f64
        }
    }
}

/// Computes the item–item similarity together with significance statistics for `(i, j)`.
///
/// This is a single linear merge over the two item profiles (which are sorted by user id),
/// so the cost is `O(|Y_i| + |Y_j|)`.
pub fn item_similarity_stats(
    matrix: &RatingMatrix,
    i: ItemId,
    j: ItemId,
    metric: SimilarityMetric,
) -> SimilarityStats {
    let yi = matrix.item_profile(i);
    let yj = matrix.item_profile(j);
    if yi.is_empty() || yj.is_empty() {
        return SimilarityStats {
            union_size: (yi.len() + yj.len()) as u32,
            ..SimilarityStats::NONE
        };
    }

    let i_avg = matrix.item_average(i);
    let j_avg = matrix.item_average(j);

    // Accumulators for the different metrics over co-rating users.
    let mut dot = 0.0f64;
    let mut num = 0.0f64;
    let mut co_raters = 0u32;
    let mut significance = 0u32;
    let mut co_i = Vec::new();
    let mut co_j = Vec::new();

    let (mut a, mut b) = (0usize, 0usize);
    while a < yi.len() && b < yj.len() {
        match yi[a].user.cmp(&yj[b].user) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                let u = yi[a].user;
                let ri = yi[a].value;
                let rj = yj[b].value;
                co_raters += 1;

                // Definition 2: mutual like (both >= item average) or mutual dislike.
                let likes_i = ri >= i_avg;
                let likes_j = rj >= j_avg;
                if likes_i == likes_j {
                    significance += 1;
                }

                match metric {
                    SimilarityMetric::AdjustedCosine => {
                        let u_avg = matrix.user_average(u);
                        num += (ri - u_avg) * (rj - u_avg);
                    }
                    SimilarityMetric::Cosine => {
                        dot += ri * rj;
                    }
                    SimilarityMetric::Pearson => {
                        co_i.push(ri);
                        co_j.push(rj);
                    }
                }
                a += 1;
                b += 1;
            }
        }
    }

    let union_size = (yi.len() + yj.len()) as u32 - co_raters;
    if co_raters == 0 {
        return SimilarityStats {
            similarity: 0.0,
            co_raters,
            significance,
            union_size,
        };
    }

    let similarity = match metric {
        SimilarityMetric::AdjustedCosine => {
            // Denominator runs over *all* raters of each item, centred by each rater's
            // user average — Equation 6 of the paper.
            let den_i: f64 = yi
                .iter()
                .map(|e| {
                    let d = e.value - matrix.user_average(e.user);
                    d * d
                })
                .sum::<f64>()
                .sqrt();
            let den_j: f64 = yj
                .iter()
                .map(|e| {
                    let d = e.value - matrix.user_average(e.user);
                    d * d
                })
                .sum::<f64>()
                .sqrt();
            safe_ratio(num, den_i * den_j)
        }
        SimilarityMetric::Cosine => {
            let den_i: f64 = yi.iter().map(|e| e.value * e.value).sum::<f64>().sqrt();
            let den_j: f64 = yj.iter().map(|e| e.value * e.value).sum::<f64>().sqrt();
            safe_ratio(dot, den_i * den_j)
        }
        SimilarityMetric::Pearson => {
            let n = co_i.len() as f64;
            let mean_i = co_i.iter().sum::<f64>() / n;
            let mean_j = co_j.iter().sum::<f64>() / n;
            let mut num = 0.0;
            let mut di = 0.0;
            let mut dj = 0.0;
            for k in 0..co_i.len() {
                let a = co_i[k] - mean_i;
                let b = co_j[k] - mean_j;
                num += a * b;
                di += a * a;
                dj += b * b;
            }
            safe_ratio(num, (di * dj).sqrt())
        }
    };

    SimilarityStats {
        similarity: clamp_similarity(similarity),
        co_raters,
        significance,
        union_size,
    }
}

/// What one row of [`ItemRowKernel`] accumulates per co-rated item `j`.
#[derive(Clone, Copy, Debug, Default)]
struct PairSums {
    co_raters: u32,
    significance: u32,
    /// Adjusted cosine: Equation 6's numerator; cosine: the dot product; Pearson: the
    /// sum of the row item's co-ratings, then (between the two passes) their mean.
    a: f64,
    /// Pearson only: the sum, then the mean, of `j`'s co-ratings.
    b: f64,
}

/// Reusable buffers of [`ItemRowKernel::row`], one per worker: dense per-item
/// accumulators forgotten in `O(1)` between rows, re-sized to the matrix at each use
/// so one warmed scratch serves matrices of different sizes in turn (`default` is
/// empty: buffers take the matrix's size on first use).
#[derive(Debug, Default)]
pub struct RowScratch {
    sums: EpochBuffer<PairSums>,
    /// Pearson's centred `[num, d_row, d_j]` of the second pass.
    centred: EpochBuffer<[f64; 3]>,
    /// The items with live `sums`: first-touch order while gathering, then ascending.
    touched: Vec<ItemId>,
    row: Vec<(ItemId, SimilarityStats)>,
}

/// One rating of a user's profile as a pair term reads it, tabulated once per kernel.
#[derive(Clone, Copy, Debug)]
struct Term {
    item: ItemId,
    /// Definition 2's like: the rating is at least its item's average.
    likes: bool,
    /// The rating as the metric's sums take it: `value − r̄_u` for adjusted cosine,
    /// `value` for cosine and Pearson.
    centred: f64,
}

/// Which partners an [`ItemRowKernel::row`] keeps.
#[derive(Clone, Copy, Debug)]
pub enum Partners {
    /// Every item co-rated with the row's item.
    All,
    /// The items above the row's item only, so every rater's profile is walked from
    /// the row's item onwards: a caller that keeps each pair from its lower item
    /// scores it once.
    Above,
}

/// Scores an item against everything it is co-rated with in one gather — the
/// production form of [`item_similarity_stats`], built once per stage over
/// `(matrix, metric)`.
///
/// [`row`](Self::row) walks the item's raters in ascending user id and each rater's
/// profile once, adding that rater's term of every pair `(item, j)` to a dense
/// accumulator slot of `j`. A pair's terms therefore arrive in ascending user id —
/// the order the two-profile merge produces them in — so `co_raters`, `significance`
/// and every floating-point sum are the merge's (the products of Equations 3 and 6
/// commute, so the orientation of the pair does not matter either). What the merge
/// recomputes per pair and the gather must not — each item's denominator over *all*
/// its raters — is computed once here, by the merge's own expression in the merge's
/// own rater order; so is each rating's centred value and like flag, by the merge's
/// expressions, which the gather would otherwise re-derive at every visit.
pub struct ItemRowKernel<'a> {
    matrix: &'a RatingMatrix,
    metric: SimilarityMetric,
    /// Per-item denominator of the adjusted-cosine / cosine formula (Pearson's runs
    /// over the co-raters only and has none).
    norms: Vec<f64>,
    /// Every user's profile as terms, user after user in ascending item id:
    /// `terms[offsets[u]..offsets[u + 1]]` is user `u`'s.
    terms: Vec<Term>,
    offsets: Vec<usize>,
}

impl<'a> ItemRowKernel<'a> {
    /// Prepares the kernel: one pass over every item profile for the denominators, one
    /// over every user profile for the terms.
    pub fn new(matrix: &'a RatingMatrix, metric: SimilarityMetric) -> Self {
        // The two denominators are `item_similarity_stats`' expressions verbatim: the
        // same addends summed in the same (ascending user id) order.
        let norms = match metric {
            SimilarityMetric::AdjustedCosine => matrix
                .items()
                .map(|i| {
                    matrix
                        .item_profile(i)
                        .iter()
                        .map(|e| {
                            let d = e.value - matrix.user_average(e.user);
                            d * d
                        })
                        .sum::<f64>()
                        .sqrt()
                })
                .collect(),
            SimilarityMetric::Cosine => matrix
                .items()
                .map(|i| {
                    let yi = matrix.item_profile(i);
                    yi.iter().map(|e| e.value * e.value).sum::<f64>().sqrt()
                })
                .collect(),
            SimilarityMetric::Pearson => Vec::new(),
        };
        let mut terms = Vec::with_capacity(matrix.n_ratings());
        let mut offsets = Vec::with_capacity(matrix.n_users() + 1);
        offsets.push(0);
        for user in matrix.users() {
            let u_avg = matrix.user_average(user);
            terms.extend(matrix.user_profile(user).iter().map(|e| Term {
                item: e.item,
                likes: e.value >= matrix.item_average(e.item),
                centred: match metric {
                    SimilarityMetric::AdjustedCosine => e.value - u_avg,
                    SimilarityMetric::Cosine | SimilarityMetric::Pearson => e.value,
                },
            }));
            offsets.push(terms.len());
        }
        ItemRowKernel {
            matrix,
            metric,
            norms,
            terms,
            offsets,
        }
    }

    /// User `user`'s profile as terms (every rater of an item is a user of the matrix).
    fn profile(&self, user: UserId) -> &[Term] {
        &self.terms[self.offsets[user.index()]..self.offsets[user.index() + 1]]
    }

    /// The statistics of `item` against the `partners` it shares a rater with,
    /// ascending by item id (`item` itself excluded), each bit-identical to
    /// [`item_similarity_stats`] of the pair in either orientation — a restricted row's
    /// records are the full row's, because a partner's slot sees the same raters in
    /// the same order. Plus the row's data-derived cost, the size of the profiles its
    /// raters hold, whatever `partners` is: `1 + Σ_{u ∈ raters(item)} |profile(u)|`.
    /// An unrated item, or an id outside the catalogue, has an empty row of cost 1.
    pub fn row<'s>(
        &self,
        item: ItemId,
        scratch: &'s mut RowScratch,
        partners: Partners,
    ) -> (&'s [(ItemId, SimilarityStats)], f64) {
        let RowScratch {
            sums,
            centred,
            touched,
            row,
        } = scratch;
        let matrix = self.matrix;
        let yi = matrix.item_profile(item);
        sums.begin(matrix.n_items());
        touched.clear();
        row.clear();
        let mut walked = 0usize;
        for rater in yi {
            let profile = self.profile(rater.user);
            walked += profile.len();
            // The rater's profile (ascending item id) splits at `item`: `at` terms
            // below it, then the rater's own term, then the terms above it.
            let at = profile.partition_point(|t| t.item < item);
            let (below, [own, above @ ..]) = profile.split_at(at) else {
                continue; // unreachable: a rater's profile holds the item
            };
            let mut add = |t: &Term| {
                let Some((fresh, s)) = sums.entry(t.item.index()) else {
                    return;
                };
                if fresh {
                    touched.push(t.item);
                }
                s.co_raters += 1;
                // Definition 2: mutual like (both >= item average) or mutual dislike.
                if own.likes == t.likes {
                    s.significance += 1;
                }
                match self.metric {
                    SimilarityMetric::AdjustedCosine | SimilarityMetric::Cosine => {
                        s.a += own.centred * t.centred
                    }
                    SimilarityMetric::Pearson => {
                        s.a += own.centred;
                        s.b += t.centred;
                    }
                }
            };
            above.iter().for_each(&mut add);
            if let Partners::All = partners {
                below.iter().for_each(add);
            }
        }
        touched.sort_unstable();

        if self.metric == SimilarityMetric::Pearson {
            // Pearson centres by the means over the co-rating set, known only after
            // the first pass: turn the sums into means, then gather the centred sums
            // over the same rows in the same order.
            for &j in touched.iter() {
                if let Some((_, s)) = sums.entry(j.index()) {
                    let n = f64::from(s.co_raters);
                    s.a /= n;
                    s.b /= n;
                }
            }
            centred.begin(matrix.n_items());
            for rater in yi {
                for t in self.profile(rater.user) {
                    if t.item == item {
                        continue;
                    }
                    let (Some(s), Some((_, [num, di, dj]))) =
                        (sums.get(t.item.index()), centred.entry(t.item.index()))
                    else {
                        continue;
                    };
                    let a = rater.value - s.a;
                    let b = t.centred - s.b;
                    *num += a * b;
                    *di += a * a;
                    *dj += b * b;
                }
            }
        }

        for &j in touched.iter() {
            let s = sums.get(j.index()).unwrap_or_default();
            let similarity = match self.metric {
                SimilarityMetric::AdjustedCosine | SimilarityMetric::Cosine => {
                    safe_ratio(s.a, self.norms[item.index()] * self.norms[j.index()])
                }
                SimilarityMetric::Pearson => {
                    let [num, di, dj] = centred.get(j.index()).unwrap_or_default();
                    safe_ratio(num, (di * dj).sqrt())
                }
            };
            row.push((
                j,
                SimilarityStats {
                    similarity: clamp_similarity(similarity),
                    co_raters: s.co_raters,
                    significance: s.significance,
                    union_size: (yi.len() + matrix.item_degree(j)) as u32 - s.co_raters,
                },
            ));
        }
        (row, 1.0 + walked as f64)
    }
}

/// Item–item similarity only (convenience wrapper around [`item_similarity_stats`]).
pub fn item_similarity(
    matrix: &RatingMatrix,
    i: ItemId,
    j: ItemId,
    metric: SimilarityMetric,
) -> f64 {
    item_similarity_stats(matrix, i, j, metric).similarity
}

#[inline]
fn safe_ratio(num: f64, den: f64) -> f64 {
    if den.abs() < 1e-12 || !den.is_finite() || !num.is_finite() {
        0.0
    } else {
        num / den
    }
}

#[inline]
fn clamp_similarity(s: f64) -> f64 {
    if s.is_finite() {
        s.clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::tests::skewed_matrix;
    use crate::matrix::RatingMatrixBuilder;
    use proptest::prelude::*;

    /// The Figure 1(a) scenario: five users, three movies, two books.
    /// Interstellar and The Forever War share no raters, but Inception bridges them.
    fn fig1a() -> (RatingMatrix, ItemId, ItemId, ItemId) {
        // items: 0 Interstellar, 1 Inception, 2 The Martian, 3 The Forever War, 4 Ender's Game
        let mut b = RatingMatrixBuilder::new();
        // Alice rates movies only
        b.push_parts(0, 0, 5.0).unwrap();
        b.push_parts(0, 2, 4.0).unwrap();
        // Bob rates Interstellar + Inception + one book
        b.push_parts(1, 0, 5.0).unwrap();
        b.push_parts(1, 1, 5.0).unwrap();
        b.push_parts(1, 4, 4.0).unwrap();
        // Cecilia rates Inception and The Forever War
        b.push_parts(2, 1, 4.0).unwrap();
        b.push_parts(2, 3, 5.0).unwrap();
        // Dave rates The Martian
        b.push_parts(3, 2, 2.0).unwrap();
        // Eve rates Ender's Game
        b.push_parts(4, 4, 3.0).unwrap();
        (b.build().unwrap(), ItemId(0), ItemId(1), ItemId(3))
    }

    #[test]
    fn no_common_raters_gives_zero_similarity() {
        let (m, interstellar, _inception, forever_war) = fig1a();
        let stats = item_similarity_stats(
            &m,
            interstellar,
            forever_war,
            SimilarityMetric::AdjustedCosine,
        );
        assert_eq!(stats.similarity, 0.0);
        assert_eq!(stats.co_raters, 0);
        assert_eq!(stats.significance, 0);
    }

    #[test]
    fn bridge_item_has_nonzero_similarity_with_both_endpoints() {
        let (m, interstellar, inception, forever_war) = fig1a();
        let s1 = item_similarity_stats(
            &m,
            interstellar,
            inception,
            SimilarityMetric::AdjustedCosine,
        );
        let s2 =
            item_similarity_stats(&m, inception, forever_war, SimilarityMetric::AdjustedCosine);
        assert!(s1.co_raters >= 1);
        assert!(s2.co_raters >= 1);
        // Significance counts mutual like/dislike; Bob likes both Interstellar and Inception.
        assert!(s1.significance >= 1);
        // Cecilia rates Inception below and The Forever War above their respective
        // averages, so the pair has a co-rater but no mutual like/dislike.
        assert_eq!(s2.significance, 0);
    }

    #[test]
    fn cosine_of_identical_columns_is_one() {
        let mut b = RatingMatrixBuilder::new();
        for u in 0..4u32 {
            b.push_parts(u, 0, (u + 1) as f64).unwrap();
            b.push_parts(u, 1, (u + 1) as f64).unwrap();
        }
        let m = b.build().unwrap();
        let s = item_similarity(&m, ItemId(0), ItemId(1), SimilarityMetric::Cosine);
        assert!((s - 1.0).abs() < 1e-9);
        let p = item_similarity(&m, ItemId(0), ItemId(1), SimilarityMetric::Pearson);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_of_anticorrelated_columns_is_minus_one() {
        let mut b = RatingMatrixBuilder::new();
        let vals = [1.0, 2.0, 4.0, 5.0];
        for (u, &v) in vals.iter().enumerate() {
            b.push_parts(u as u32, 0, v).unwrap();
            b.push_parts(u as u32, 1, 6.0 - v).unwrap();
        }
        let m = b.build().unwrap();
        let p = item_similarity(&m, ItemId(0), ItemId(1), SimilarityMetric::Pearson);
        assert!((p + 1.0).abs() < 1e-9);
    }

    #[test]
    fn adjusted_cosine_detects_shared_preference_direction() {
        // Users with different rating scales but the same relative preference.
        let mut b = RatingMatrixBuilder::new();
        // user 0: loves both items relative to their average
        b.push_parts(0, 0, 5.0).unwrap();
        b.push_parts(0, 1, 5.0).unwrap();
        b.push_parts(0, 2, 1.0).unwrap();
        // user 1: also prefers items 0 and 1 over item 2, on a lower scale
        b.push_parts(1, 0, 4.0).unwrap();
        b.push_parts(1, 1, 4.0).unwrap();
        b.push_parts(1, 2, 2.0).unwrap();
        let m = b.build().unwrap();
        let s01 = item_similarity(&m, ItemId(0), ItemId(1), SimilarityMetric::AdjustedCosine);
        let s02 = item_similarity(&m, ItemId(0), ItemId(2), SimilarityMetric::AdjustedCosine);
        assert!(
            s01 > 0.0,
            "mutually liked items should be positively similar, got {s01}"
        );
        assert!(
            s02 < 0.0,
            "liked vs disliked items should be negatively similar, got {s02}"
        );
        assert!(s01 > s02);
    }

    #[test]
    fn stats_union_and_normalized_significance() {
        let (m, _interstellar, inception, forever_war) = fig1a();
        let s = item_similarity_stats(&m, inception, forever_war, SimilarityMetric::AdjustedCosine);
        // Inception rated by Bob and Cecilia; Forever War by Cecilia only -> union = 2.
        assert_eq!(s.union_size, 2);
        assert_eq!(s.co_raters, 1);
        assert!(s.normalized_significance() >= 0.0 && s.normalized_significance() <= 1.0);
        assert_eq!(SimilarityStats::NONE.normalized_significance(), 0.0);
    }

    #[test]
    fn default_metric_is_adjusted_cosine() {
        assert_eq!(
            SimilarityMetric::default(),
            SimilarityMetric::AdjustedCosine
        );
    }

    const METRICS: [SimilarityMetric; 3] = [
        SimilarityMetric::AdjustedCosine,
        SimilarityMetric::Cosine,
        SimilarityMetric::Pearson,
    ];

    fn bits(s: SimilarityStats) -> (u64, u32, u32, u32) {
        (
            s.similarity.to_bits(),
            s.co_raters,
            s.significance,
            s.union_size,
        )
    }

    /// Every row of the kernel over `m` against the per-pair merge: the row holds
    /// exactly the co-rated items, ascending, each record the merge's record in both
    /// orientations, and the cost is the entries walked. Ids run past the catalogue.
    fn assert_rows_equal_the_merge(
        m: &RatingMatrix,
        metric: SimilarityMetric,
        scratch: &mut RowScratch,
    ) {
        let kernel = ItemRowKernel::new(m, metric);
        let past = m.n_items() as u32 + 2;
        for i in (0..past).chain([u32::MAX]).map(ItemId) {
            let (row, cost) = kernel.row(i, scratch, Partners::All);
            let walked: usize = m
                .item_profile(i)
                .iter()
                .map(|e| m.user_profile(e.user).len())
                .sum();
            assert_eq!(cost, 1.0 + walked as f64, "{metric:?}: cost of row {i}");
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "{metric:?}: row {i} must ascend strictly"
            );
            let mut found = 0;
            for j in (0..past).map(ItemId).filter(|&j| j != i) {
                let forward = item_similarity_stats(m, i, j, metric);
                let reverse = item_similarity_stats(m, j, i, metric);
                match row.binary_search_by_key(&j, |&(j, _)| j) {
                    Ok(ix) => {
                        found += 1;
                        assert_eq!(bits(row[ix].1), bits(forward), "{metric:?}: ({i}, {j})");
                        assert_eq!(bits(row[ix].1), bits(reverse), "{metric:?}: ({j}, {i})");
                    }
                    Err(_) => assert_eq!(
                        forward.co_raters, 0,
                        "{metric:?}: row {i} lost its co-rated item {j}"
                    ),
                }
            }
            assert_eq!(found, row.len(), "{metric:?}: row {i} holds a stranger");
        }
    }

    /// A restricted row is the full row filtered to the partners above the item,
    /// record for record and bit for bit, at the full row's cost, for all three metrics.
    fn assert_restricted_rows_filter_the_full_row(m: &RatingMatrix) {
        let (mut full_scratch, mut scratch) = (RowScratch::default(), RowScratch::default());
        for metric in METRICS {
            let kernel = ItemRowKernel::new(m, metric);
            for item in (0..m.n_items() as u32 + 1).map(ItemId) {
                let (full, full_cost) = kernel.row(item, &mut full_scratch, Partners::All);
                let expect: Vec<_> = full
                    .iter()
                    .filter(|&&(j, _)| j > item)
                    .map(|&(j, s)| (j, bits(s)))
                    .collect();
                let (row, cost) = kernel.row(item, &mut scratch, Partners::Above);
                let got: Vec<_> = row.iter().map(|&(j, s)| (j, bits(s))).collect();
                assert_eq!(got, expect, "{metric:?}: row {item}");
                assert_eq!(cost, full_cost);
            }
        }
    }

    #[test]
    fn rows_are_the_merge_at_the_like_and_zero_boundaries() {
        // Item 0's average is exactly 3.0 and user 2 rates it 3.0: a like on the
        // boundary. User 2 rates both its items at its own average (centred +0 under
        // adjusted cosine), user 3's centred ratings are +1, -1 and 0, so a product is
        // -0; users 4 and 5 rate 0.0 and -0.0, cosine's and Pearson's ±0 terms.
        let mut b = RatingMatrixBuilder::new();
        for (u, i, v) in [
            (0, 0, 2.0),
            (0, 1, 5.0),
            (1, 0, 4.0),
            (1, 2, 1.0),
            (2, 0, 3.0),
            (2, 1, 3.0),
            (3, 0, 4.0),
            (3, 1, 2.0),
            (3, 3, 3.0),
            (4, 1, 0.0),
            (4, 3, -0.0),
            (4, 4, 2.0),
            (5, 3, -0.0),
            (5, 4, 0.0),
            (5, 0, 2.0),
        ] {
            b.push_parts(u, i, v).unwrap();
        }
        let m = b.build().unwrap();
        assert_eq!(m.item_average(ItemId(0)).to_bits(), 3.0f64.to_bits());
        assert_eq!(m.user_average(UserId(2)).to_bits(), 3.0f64.to_bits());
        assert_eq!(m.user_average(UserId(3)).to_bits(), 3.0f64.to_bits());
        assert_eq!(
            m.rating(UserId(5), ItemId(3)).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        let mut scratch = RowScratch::default();
        for metric in METRICS {
            assert_rows_equal_the_merge(&m, metric, &mut scratch);
        }
        assert_restricted_rows_filter_the_full_row(&m);
    }

    #[test]
    fn rows_of_unrated_and_out_of_catalogue_items_are_empty() {
        let mut b = RatingMatrixBuilder::new().with_dimensions(2, 4);
        b.push_parts(0, 0, 4.0).unwrap();
        b.push_parts(0, 2, 2.0).unwrap();
        let m = b.build().unwrap();
        let mut scratch = RowScratch::default();
        for metric in METRICS {
            let kernel = ItemRowKernel::new(&m, metric);
            assert_eq!(
                kernel.row(ItemId(0), &mut scratch, Partners::All).0.len(),
                1
            );
            for absent in [ItemId(1), ItemId(3), ItemId(4), ItemId(u32::MAX)] {
                let (row, cost) = kernel.row(absent, &mut scratch, Partners::All);
                assert!(row.is_empty(), "{metric:?}: {absent} has no raters");
                assert_eq!(cost, 1.0);
            }
        }
    }

    proptest! {
        /// The row gather ≡ the per-pair merge, field for field and bit for bit, for
        /// all three metrics and both orientations — over skewed matrices with integer
        /// ratings (like/dislike ties on the item average, single-rating users whose
        /// items have a zero denominator, unrated tail items), with one warmed scratch
        /// serving matrices of two sizes in turn.
        #[test]
        fn row_kernel_equals_the_per_pair_merge(
            seed in any::<u64>(),
            n_users in 1u32..120,
            n_items in 1u32..40,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let small = skewed_matrix(&mut rng, 1 + n_users / 6, n_items);
            let large = skewed_matrix(&mut rng, n_users, n_items + 9);
            let mut scratch = RowScratch::default();
            for m in [&large, &small, &large] {
                for metric in METRICS {
                    assert_rows_equal_the_merge(m, metric, &mut scratch);
                }
            }
        }

        /// A restricted row is the full row filtered to the partners above the item,
        /// record for record and bit for bit, at the full row's cost, for all three
        /// metrics.
        #[test]
        fn restricted_rows_are_the_full_row_filtered(
            seed in any::<u64>(),
            n_users in 1u32..80,
            n_items in 1u32..30,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let m = skewed_matrix(&mut rng, n_users, n_items);
            assert_restricted_rows_filter_the_full_row(&m);
        }

        /// Similarities are symmetric and bounded for every metric on random matrices.
        #[test]
        fn similarity_symmetric_and_bounded(
            ratings in proptest::collection::vec((0u32..12, 0u32..10, 1u32..=5), 1..120),
            metric_ix in 0usize..3,
        ) {
            let metric = [SimilarityMetric::AdjustedCosine, SimilarityMetric::Cosine, SimilarityMetric::Pearson][metric_ix];
            let mut b = RatingMatrixBuilder::new();
            for (u, i, v) in ratings {
                b.push_parts(u, i, v as f64).unwrap();
            }
            let m = b.build().unwrap();
            for i in 0..m.n_items().min(6) as u32 {
                for j in 0..m.n_items().min(6) as u32 {
                    let sij = item_similarity_stats(&m, ItemId(i), ItemId(j), metric);
                    let sji = item_similarity_stats(&m, ItemId(j), ItemId(i), metric);
                    prop_assert!((sij.similarity - sji.similarity).abs() < 1e-9);
                    prop_assert!(sij.similarity >= -1.0 - 1e-9 && sij.similarity <= 1.0 + 1e-9);
                    prop_assert_eq!(sij.co_raters, sji.co_raters);
                    prop_assert_eq!(sij.significance, sji.significance);
                    prop_assert!(sij.significance <= sij.co_raters);
                    prop_assert!(sij.co_raters <= sij.union_size || sij.union_size == 0);
                }
            }
        }
    }
}
