//! Competitor baselines from §6.1 of the paper.
//!
//! The paper compares X-Map against three classes of alternatives:
//!
//! * **Baseline prediction** — [`ItemAverage`] (predict the item's mean rating over all
//!   users, Baltrunas & Ricci).
//! * **Linked-domain personalisation** — [`LinkedDomainItemKnn`] (a.k.a. *Item-based-kNN*
//!   / *KNN-cd*): aggregate all ratings from both domains into one matrix and run plain
//!   item-based CF over it. *KNN-sd* (Figure 10) is the same predictor fitted on the
//!   target-domain ratings alone.
//! * **Heterogeneous recommendation** — [`RemoteUser`] (Berkovsky et al. cross-domain
//!   mediation): neighbours are selected with *source-domain* user similarities and then
//!   user-based CF predicts in the target domain.

use crate::similarity::user_similarity;
use xmap_cf::topk::TopK;
use xmap_cf::{DomainId, ItemId, ItemKnn, ItemKnnConfig, RatingMatrix, Result, UserId, UserKnn};

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

    /// The item's mean training rating, clamped to the rating scale.
    pub fn predict(&self, _user: UserId, item: ItemId) -> f64 {
        self.matrix.scale().clamp(self.matrix.item_average(item))
    }
}

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

    /// Equation 4 for a stored user over the fitted neighbour pools.
    pub fn predict(&self, user: UserId, item: ItemId) -> f64 {
        self.model.predict(user, item)
    }
}

/// The RemoteUser heterogeneous competitor: neighbours of a user are selected using
/// *source-domain* similarities, and the neighbours' *target-domain* ratings are then
/// combined with user-based CF (Equation 2) to predict target items.
pub struct RemoteUser<'a> {
    full: &'a RatingMatrix,
    source_only: RatingMatrix,
    /// Equation 2 over the full matrix.
    knn: UserKnn<'a>,
    k: usize,
}

impl<'a> RemoteUser<'a> {
    /// Creates the RemoteUser baseline with `k` neighbours.
    ///
    /// `full` must contain ratings of both domains with item domains declared; `source`
    /// selects the domain used for neighbour selection.
    pub fn new(full: &'a RatingMatrix, source: DomainId, k: usize) -> Result<Self> {
        let source_only = full.filter(|r| full.item_domain(r.item) == source)?;
        Ok(RemoteUser {
            full,
            source_only,
            knn: UserKnn::new(full, k)?,
            k,
        })
    }

    /// The k nearest neighbours of `user` measured on source-domain ratings only.
    fn source_neighbors(&self, user: UserId) -> Vec<(UserId, f64)> {
        let mut collector = TopK::new(self.k);
        for other in self.source_only.users() {
            if other == user {
                continue;
            }
            let sim = user_similarity(&self.source_only, user, other);
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

    /// Equation 2 over the user's source-domain neighbours and their full-matrix ratings.
    pub fn predict(&self, user: UserId, item: ItemId) -> f64 {
        let neighbors = self.source_neighbors(user);
        self.knn
            .predict_with_neighbors(self.full.user_average(user), &neighbors, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_cf::RatingMatrixBuilder;

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
    }

    #[test]
    fn remote_user_personalises_cold_start_predictions() {
        let m = cross_domain();
        let p = RemoteUser::new(&m, DomainId::SOURCE, 2).unwrap();
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
    }

    #[test]
    fn remote_user_neighbors_come_from_source_similarity() {
        let m = cross_domain();
        let p = RemoteUser::new(&m, DomainId::SOURCE, 2).unwrap();
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
    }

    #[test]
    fn single_domain_knn_cannot_personalise_cold_start() {
        // KNN-sd: the linked-domain predictor fitted on the target-domain ratings alone
        let m = cross_domain();
        let target_only = m
            .filter(|r| m.item_domain(r.item) == DomainId::TARGET)
            .unwrap();
        assert!(target_only.n_ratings() < m.n_ratings());
        let p = LinkedDomainItemKnn::fit(&target_only, 5).unwrap();
        // user 3 has no target-domain ratings, so both predictions are unpersonalised
        // item averages.
        for item in [ItemId(3), ItemId(5)] {
            assert!((p.predict(UserId(3), item) - target_only.item_average(item)).abs() < 1e-9);
        }
    }

    #[test]
    fn all_baselines_respect_rating_scale() {
        let m = cross_domain();
        let in_scale = |name: &str, predict: &dyn Fn(UserId, ItemId) -> f64| {
            for u in m.users() {
                for i in m.items() {
                    let v = predict(u, i);
                    assert!((1.0..=5.0).contains(&v), "{name} produced out-of-scale {v}");
                }
            }
        };
        let item_avg = ItemAverage::new(&m);
        in_scale("ItemAverage", &|u, i| item_avg.predict(u, i));
        let remote = RemoteUser::new(&m, DomainId::SOURCE, 50).unwrap();
        in_scale("RemoteUser", &|u, i| remote.predict(u, i));
        let linked = LinkedDomainItemKnn::fit(&m, 10).unwrap();
        in_scale("Item-based-kNN", &|u, i| linked.predict(u, i));
    }
}
