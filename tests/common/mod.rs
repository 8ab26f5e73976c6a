//! The one reader of "everything a model released", shared by the three bit-identity
//! gates (`fit_determinism`, `incremental_equivalence`, `durability`): a change to the
//! model's read surface edits this file, not three.

use std::sync::Arc;
use xmap_suite::core::XSimTable;
use xmap_suite::graph::SimilarityGraph;
use xmap_suite::prelude::*;

/// Everything a model released, reduced to comparable bits: the fitted artifacts
/// whole (`==` on the graph arena, the X-Sim table and the matrix), the replacement
/// table, the probes of the recommender and its pools (predictions and top-5 for
/// `users` × `items`) and the privacy accountant.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleasedBits {
    pub matrix: Arc<RatingMatrix>,
    pub graph: Arc<SimilarityGraph>,
    pub xsim: Arc<XSimTable>,
    pub replacements: Vec<(ItemId, ItemId)>,
    pub prediction_bits: Vec<u64>,
    pub recommendations: Vec<Vec<(ItemId, u64)>>,
    /// `(mechanism, ε bits)` per ledger entry, in debit order (private modes only).
    pub privacy_ledger: Vec<(String, u64)>,
    /// `(spent, remaining)` bits of the privacy accountant (private modes only).
    pub privacy_totals: Option<(u64, u64)>,
}

pub fn released_bits(model: &XMapModel, users: &[UserId], items: &[ItemId]) -> ReleasedBits {
    let budget = model.privacy_budget();
    ReleasedBits {
        matrix: model.matrix(),
        graph: model.graph(),
        xsim: model.xsim(),
        replacements: model.replacements().iter().collect(),
        prediction_bits: users
            .iter()
            .flat_map(|&u| items.iter().map(move |&i| model.predict(u, i).to_bits()))
            .collect(),
        recommendations: users
            .iter()
            .map(|&u| {
                let top = model.recommend(u, 5).into_iter();
                top.map(|(i, s)| (i, s.to_bits())).collect()
            })
            .collect(),
        privacy_ledger: budget
            .iter()
            .flat_map(|b| b.ledger())
            .map(|e| (e.mechanism.clone(), e.epsilon.to_bits()))
            .collect(),
        privacy_totals: budget
            .as_ref()
            .map(|b| (b.spent().to_bits(), b.remaining().to_bits())),
    }
}
