//! Competitor baselines from §6.1 of the paper.
//!
//! The paper compares X-Map against three classes of alternatives:
//!
//! * **Baseline prediction** — [`ItemAverage`] (predict the item's mean rating over all
//!   users, Baltrunas & Ricci) and [`UserAverage`] (predict the user's mean rating).
//! * **Linked-domain personalisation** — [`LinkedDomainItemKnn`] (a.k.a. *Item-based-kNN*
//!   / *KNN-cd*): aggregate all ratings from both domains into one matrix and run plain
//!   item-based CF over it.
//! * **Heterogeneous recommendation** — [`RemoteUser`] (Berkovsky et al. cross-domain
//!   mediation): neighbours are selected with *source-domain* user similarities and then
//!   user-based CF predicts in the target domain.
//!
//! In addition, [`SingleDomainItemKnn`] (*KNN-sd*, Figure 10) ignores the source domain
//! entirely, and [`SlopeOne`] is provided as an extra non-personalised-deviation baseline
//! for ablation benches.
//!
//! All baselines implement the common [`RatingPredictor`] trait so the evaluation
//! harness can treat every system uniformly.

use crate::error::Result;
use crate::ids::{DomainId, ItemId, UserId};
use crate::knn::{ItemKnn, ItemKnnConfig, UserKnnConfig};
use crate::matrix::RatingMatrix;
use crate::similarity::user_similarity;
use crate::topk::TopK;
use std::collections::HashMap;

/// Common interface of every rating predictor evaluated in the paper.
pub trait RatingPredictor {
    /// Predicted rating of `item` for `user`.
    fn predict(&self, user: UserId, item: ItemId) -> f64;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// ItemAverage / UserAverage
// ---------------------------------------------------------------------------

/// Predicts the average rating of the item over all users who rated it ("ITEMAVERAGE").
///
/// The paper notes this gives a good estimate of the actual rating but is not
/// personalised — every user receives the same prediction for a given item.
pub struct ItemAverage<'a> {
    matrix: &'a RatingMatrix,
}

impl<'a> ItemAverage<'a> {
    /// Creates the baseline over a training matrix.
    pub fn new(matrix: &'a RatingMatrix) -> Self {
        ItemAverage { matrix }
    }
}

impl RatingPredictor for ItemAverage<'_> {
    fn predict(&self, _user: UserId, item: ItemId) -> f64 {
        self.matrix.scale().clamp(self.matrix.item_average(item))
    }
    fn name(&self) -> &'static str {
        "ItemAverage"
    }
}

/// Predicts the average rating the user gave over all items they rated.
pub struct UserAverage<'a> {
    matrix: &'a RatingMatrix,
}

impl<'a> UserAverage<'a> {
    /// Creates the baseline over a training matrix.
    pub fn new(matrix: &'a RatingMatrix) -> Self {
        UserAverage { matrix }
    }
}

impl RatingPredictor for UserAverage<'_> {
    fn predict(&self, user: UserId, _item: ItemId) -> f64 {
        self.matrix.scale().clamp(self.matrix.user_average(user))
    }
    fn name(&self) -> &'static str {
        "UserAverage"
    }
}

// ---------------------------------------------------------------------------
// Linked-domain item-based kNN (Item-based-kNN / KNN-cd)
// ---------------------------------------------------------------------------

/// Item-based kNN over the aggregated (linked-domain) rating matrix — the
/// "Item-based-kNN" competitor of Figures 8–9 and the "KNN-cd" competitor of Figure 10.
pub struct LinkedDomainItemKnn<'a> {
    model: ItemKnn<'a>,
}

impl<'a> LinkedDomainItemKnn<'a> {
    /// Fits item-based CF over the full aggregated matrix.
    pub fn fit(matrix: &'a RatingMatrix, k: usize) -> Result<Self> {
        let model = ItemKnn::fit(
            matrix,
            ItemKnnConfig {
                k,
                ..Default::default()
            },
        )?;
        Ok(LinkedDomainItemKnn { model })
    }

    /// Access to the underlying item-kNN model.
    pub fn model(&self) -> &ItemKnn<'a> {
        &self.model
    }
}

impl RatingPredictor for LinkedDomainItemKnn<'_> {
    fn predict(&self, user: UserId, item: ItemId) -> f64 {
        self.model.predict(user, item)
    }
    fn name(&self) -> &'static str {
        "Item-based-kNN"
    }
}

// ---------------------------------------------------------------------------
// Single-domain item-based kNN (KNN-sd)
// ---------------------------------------------------------------------------

/// Item-based kNN restricted to the target domain only ("KNN-sd" in Figure 10): source
/// domain ratings are discarded, so cold-start users receive unpersonalised predictions.
pub struct SingleDomainItemKnn {
    target_only: RatingMatrix,
    k: usize,
}

impl SingleDomainItemKnn {
    /// Builds the target-domain-only training matrix and remembers `k`.
    pub fn fit(matrix: &RatingMatrix, target: DomainId, k: usize) -> Result<Self> {
        let target_only = matrix.filter(|r| matrix.item_domain(r.item) == target)?;
        Ok(SingleDomainItemKnn { target_only, k })
    }

    /// Predicts through a freshly fitted item-kNN over the filtered matrix.
    ///
    /// The model is fitted lazily per call batch in [`Self::predict_batch`]; for single
    /// predictions use that entry point too, as refitting per rating would be wasteful.
    pub fn predict_batch(&self, queries: &[(UserId, ItemId)]) -> Result<Vec<f64>> {
        let model = ItemKnn::fit(
            &self.target_only,
            ItemKnnConfig {
                k: self.k,
                ..Default::default()
            },
        )?;
        Ok(queries.iter().map(|&(u, i)| model.predict(u, i)).collect())
    }
}

// ---------------------------------------------------------------------------
// RemoteUser (cross-domain mediation, Berkovsky et al.)
// ---------------------------------------------------------------------------

/// The RemoteUser heterogeneous competitor: neighbours of a user are selected using
/// *source-domain* similarities, and the neighbours' *target-domain* ratings are then
/// combined with user-based CF (Equation 2) to predict target items.
pub struct RemoteUser<'a> {
    full: &'a RatingMatrix,
    source_only: RatingMatrix,
    config: UserKnnConfig,
}

impl<'a> RemoteUser<'a> {
    /// Creates the RemoteUser baseline.
    ///
    /// `full` must contain ratings of both domains with item domains declared; `source`
    /// selects the domain used for neighbour selection.
    pub fn new(full: &'a RatingMatrix, source: DomainId, config: UserKnnConfig) -> Result<Self> {
        let source_only = full.filter(|r| full.item_domain(r.item) == source)?;
        Ok(RemoteUser {
            full,
            source_only,
            config,
        })
    }

    /// The k nearest neighbours of `user` measured on source-domain ratings only.
    pub fn source_neighbors(&self, user: UserId) -> Vec<(UserId, f64)> {
        let mut collector = TopK::new(self.config.k);
        for other in self.source_only.users() {
            if other == user {
                continue;
            }
            let sim = user_similarity(&self.source_only, user, other);
            // lint: float-eq — exact zero is the "no overlap" sentinel from user_similarity.
            if sim != 0.0 && sim.abs() > self.config.min_similarity {
                collector.push(sim, other);
            }
        }
        collector
            .into_sorted_vec()
            .into_iter()
            .map(|(s, u)| (u, s))
            .collect()
    }
}

impl RatingPredictor for RemoteUser<'_> {
    fn predict(&self, user: UserId, item: ItemId) -> f64 {
        let neighbors = self.source_neighbors(user);
        let user_avg = self.full.user_average(user);
        let mut num = 0.0;
        let mut den = 0.0;
        for &(b, sim) in &neighbors {
            if let Some(r) = self.full.rating(b, item) {
                num += sim * (r - self.full.user_average(b));
                den += sim.abs();
            }
        }
        let raw = if den < 1e-12 {
            user_avg
        } else {
            user_avg + num / den
        };
        self.full.scale().clamp(raw)
    }
    fn name(&self) -> &'static str {
        "RemoteUser"
    }
}

// ---------------------------------------------------------------------------
// Slope One
// ---------------------------------------------------------------------------

/// The Slope One predictor (Lemire & Maclachlan): predicts from average pairwise rating
/// deviations. Used as an additional non-neighbourhood baseline in ablation benches.
pub struct SlopeOne<'a> {
    matrix: &'a RatingMatrix,
    /// `(item_j, item_i) -> (sum of r_j - r_i, count)` over users who rated both.
    deviations: HashMap<(ItemId, ItemId), (f64, usize)>,
}

impl<'a> SlopeOne<'a> {
    /// Precomputes pairwise deviations over co-rating users.
    pub fn fit(matrix: &'a RatingMatrix) -> Self {
        let mut deviations: HashMap<(ItemId, ItemId), (f64, usize)> = HashMap::new();
        for u in matrix.users() {
            let profile = matrix.user_profile(u);
            for a in profile {
                for b in profile {
                    if a.item != b.item {
                        let entry = deviations.entry((a.item, b.item)).or_insert((0.0, 0));
                        entry.0 += a.value - b.value;
                        entry.1 += 1;
                    }
                }
            }
        }
        SlopeOne { matrix, deviations }
    }

    /// Number of item pairs with at least one co-rating user.
    pub fn n_pairs(&self) -> usize {
        self.deviations.len()
    }
}

impl RatingPredictor for SlopeOne<'_> {
    fn predict(&self, user: UserId, item: ItemId) -> f64 {
        let profile = self.matrix.user_profile(user);
        let mut num = 0.0;
        let mut den = 0usize;
        for e in profile {
            if let Some(&(sum, count)) = self.deviations.get(&(item, e.item)) {
                if count > 0 {
                    num += (sum / count as f64 + e.value) * count as f64;
                    den += count;
                }
            }
        }
        let raw = if den == 0 {
            self.matrix.item_average(item)
        } else {
            num / den as f64
        };
        self.matrix.scale().clamp(raw)
    }
    fn name(&self) -> &'static str {
        "SlopeOne"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RatingMatrixBuilder;

    /// Cross-domain fixture: items 0-2 are movies (SOURCE), 3-5 are books (TARGET).
    /// Users 0-2 are straddlers whose book taste follows their movie taste; user 3 rated
    /// only movies (cold-start in books).
    fn cross_domain() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        // straddlers: users 0,1 love sci-fi movies and sci-fi books; user 2 the opposite
        for u in 0..2u32 {
            b.push_parts(u, 0, 5.0).unwrap();
            b.push_parts(u, 1, 4.0).unwrap();
            b.push_parts(u, 2, 1.0).unwrap();
            b.push_parts(u, 3, 5.0).unwrap();
            b.push_parts(u, 4, 4.0).unwrap();
            b.push_parts(u, 5, 1.0).unwrap();
        }
        b.push_parts(2, 0, 1.0).unwrap();
        b.push_parts(2, 1, 2.0).unwrap();
        b.push_parts(2, 2, 5.0).unwrap();
        b.push_parts(2, 3, 1.0).unwrap();
        b.push_parts(2, 4, 2.0).unwrap();
        b.push_parts(2, 5, 5.0).unwrap();
        // cold-start user 3: movie profile matches users 0-1
        b.push_parts(3, 0, 5.0).unwrap();
        b.push_parts(3, 1, 5.0).unwrap();
        b.push_parts(3, 2, 1.0).unwrap();
        for i in 0..3u32 {
            b.set_item_domain(ItemId(i), DomainId::SOURCE);
        }
        for i in 3..6u32 {
            b.set_item_domain(ItemId(i), DomainId::TARGET);
        }
        b.build().unwrap()
    }

    #[test]
    fn item_average_is_unpersonalised() {
        let m = cross_domain();
        let p = ItemAverage::new(&m);
        assert_eq!(
            p.predict(UserId(0), ItemId(3)),
            p.predict(UserId(2), ItemId(3))
        );
        assert!((p.predict(UserId(0), ItemId(3)) - m.item_average(ItemId(3))).abs() < 1e-12);
        assert_eq!(p.name(), "ItemAverage");
    }

    #[test]
    fn user_average_tracks_user_mean() {
        let m = cross_domain();
        let p = UserAverage::new(&m);
        assert!((p.predict(UserId(2), ItemId(0)) - m.user_average(UserId(2))).abs() < 1e-12);
        assert_eq!(p.name(), "UserAverage");
    }

    #[test]
    fn remote_user_personalises_cold_start_predictions() {
        let m = cross_domain();
        let p = RemoteUser::new(
            &m,
            DomainId::SOURCE,
            UserKnnConfig {
                k: 2,
                min_similarity: 0.0,
            },
        )
        .unwrap();
        // user 3 (cold-start) has movie taste like users 0-1, so book 3 should be
        // predicted high and book 5 low.
        let liked = p.predict(UserId(3), ItemId(3));
        let disliked = p.predict(UserId(3), ItemId(5));
        assert!(
            liked > disliked,
            "RemoteUser should personalise: {liked} vs {disliked}"
        );
        assert!(liked >= 4.0);
        assert!(disliked <= 2.5);
        assert_eq!(p.name(), "RemoteUser");
    }

    #[test]
    fn remote_user_neighbors_come_from_source_similarity() {
        let m = cross_domain();
        let p = RemoteUser::new(
            &m,
            DomainId::SOURCE,
            UserKnnConfig {
                k: 2,
                min_similarity: 0.0,
            },
        )
        .unwrap();
        let neigh = p.source_neighbors(UserId(3));
        assert!(!neigh.is_empty());
        // most similar source-domain users are 0 and 1
        for &(u, _) in neigh.iter().take(2) {
            assert!(u == UserId(0) || u == UserId(1));
        }
    }

    #[test]
    fn linked_domain_knn_uses_cross_domain_information() {
        let m = cross_domain();
        let p = LinkedDomainItemKnn::fit(&m, 5).unwrap();
        let liked = p.predict(UserId(3), ItemId(3));
        let disliked = p.predict(UserId(3), ItemId(5));
        assert!(liked > disliked, "{liked} vs {disliked}");
        assert_eq!(p.name(), "Item-based-kNN");
        assert!(!p.model().neighbors(ItemId(3)).is_empty());
    }

    #[test]
    fn single_domain_knn_cannot_personalise_cold_start() {
        let m = cross_domain();
        let p = SingleDomainItemKnn::fit(&m, DomainId::TARGET, 5).unwrap();
        let target_only = m
            .filter(|r| m.item_domain(r.item) == DomainId::TARGET)
            .unwrap();
        assert!(target_only.n_ratings() < m.n_ratings());
        let preds = p
            .predict_batch(&[(UserId(3), ItemId(3)), (UserId(3), ItemId(5))])
            .unwrap();
        // user 3 has no target-domain ratings, so both predictions are unpersonalised
        // item averages.
        assert!((preds[0] - target_only.item_average(ItemId(3))).abs() < 1e-9);
        assert!((preds[1] - target_only.item_average(ItemId(5))).abs() < 1e-9);
    }

    #[test]
    fn slope_one_learns_pairwise_deviations() {
        let mut b = RatingMatrixBuilder::new();
        // item 1 is consistently rated one star above item 0
        b.push_parts(0, 0, 3.0).unwrap();
        b.push_parts(0, 1, 4.0).unwrap();
        b.push_parts(1, 0, 2.0).unwrap();
        b.push_parts(1, 1, 3.0).unwrap();
        b.push_parts(2, 0, 4.0).unwrap();
        let m = b.build().unwrap();
        let p = SlopeOne::fit(&m);
        assert!(p.n_pairs() > 0);
        // user 2 rated item 0 with 4.0, so item 1 should be predicted ~5.0
        let pred = p.predict(UserId(2), ItemId(1));
        assert!((pred - 5.0).abs() < 1e-9, "slope-one prediction {pred}");
        assert_eq!(p.name(), "SlopeOne");
    }

    #[test]
    fn slope_one_falls_back_to_item_average() {
        let mut b = RatingMatrixBuilder::new().with_dimensions(3, 3);
        b.push_parts(0, 0, 4.0).unwrap();
        b.push_parts(1, 1, 2.0).unwrap();
        let m = b.build().unwrap();
        let p = SlopeOne::fit(&m);
        // user 0 shares no co-rated item with anything connecting to item 1
        let pred = p.predict(UserId(0), ItemId(1));
        assert!((pred - m.item_average(ItemId(1))).abs() < 1e-9);
    }

    #[test]
    fn all_baselines_respect_rating_scale() {
        let m = cross_domain();
        let item_avg = ItemAverage::new(&m);
        let user_avg = UserAverage::new(&m);
        let remote = RemoteUser::new(&m, DomainId::SOURCE, UserKnnConfig::default()).unwrap();
        let linked = LinkedDomainItemKnn::fit(&m, 10).unwrap();
        let slope = SlopeOne::fit(&m);
        let predictors: Vec<&dyn RatingPredictor> =
            vec![&item_avg, &user_avg, &remote, &linked, &slope];
        for p in predictors {
            for u in m.users() {
                for i in m.items() {
                    let v = p.predict(u, i);
                    assert!(
                        (1.0..=5.0).contains(&v),
                        "{} produced out-of-scale {v}",
                        p.name()
                    );
                }
            }
        }
    }
}
