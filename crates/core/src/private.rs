//! Private neighbour selection (PNSA, Algorithm 4) and private prediction noise (PNCF,
//! Algorithm 5).
//!
//! Both mechanisms operate on *scored candidates*: for a target item `t_i`, every
//! candidate neighbour `t_j` carries its similarity `Sim(t_i, t_j)` and a data-dependent
//! *similarity-based sensitivity* `SS(t_i, t_j)` (Theorem 2). PNSA selects `k` neighbours
//! without replacement with probability proportional to
//! `exp(ε′ · Ŝim(t_i, t_j) / (2k · 2 SS(t_i, t_j)))`, where `Ŝim` is the truncated
//! similarity of Theorems 3–4, consuming ε′/2. PNCF then perturbs each selected
//! similarity with `Lap(SS / (ε′/2))` noise before it enters the prediction formula,
//! consuming the other ε′/2 — together ε′-differential privacy by sequential composition.

use rand::Rng;
use serde::{Deserialize, Serialize};
use xmap_cf::knn::ItemNeighbor;
use xmap_cf::{ItemId, RatingMatrix};
use xmap_privacy::sensitivity::truncation_width;
use xmap_privacy::{laplace_noise, similarity_sensitivity, truncated_similarity};

/// A candidate neighbour of some target item.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoredCandidate {
    /// The candidate item.
    pub item: ItemId,
    /// Its (non-private) similarity with the item being predicted.
    pub similarity: f64,
    /// The similarity-based sensitivity `SS` of the pair (Theorem 2).
    pub sensitivity: f64,
}

/// Every item's full mean-centred L2 norm (the adjusted-cosine denominator of
/// Equation 6, over all the item's raters), indexed by item id: the half of `SS(i, j)`
/// that is a property of one item, computed once per release draw.
pub(crate) fn centred_norms(matrix: &RatingMatrix) -> Vec<f64> {
    let norm = |item| {
        let raters = matrix.item_profile(item).iter();
        let centred = raters.map(|e| e.value - matrix.user_average(e.user));
        centred.map(|d| d * d).sum::<f64>().sqrt()
    };
    matrix.items().map(norm).collect()
}

/// The similarity-based sensitivity `SS(item, j)` of every candidate `j` of a pool, in
/// pool order, from one gather: the item's raters in ascending user id, each rater's
/// profile merged once against the candidates in id order, every co-rating pushed
/// into its candidate's mean-centred vectors — the order a per-pair profile merge
/// emits them, so each `SS` is that merge's float. A repeated candidate gets its full
/// vectors at every position; one nobody co-rated (outside the catalogue, say) gets
/// empty ones. The norms are the build's [`centred_norms`] table (an item outside it
/// has no raters: norm 0).
pub(crate) fn pool_sensitivities(
    matrix: &RatingMatrix,
    norms: &[f64],
    item: ItemId,
    pool: &[ItemNeighbor],
) -> Vec<f64> {
    let mut by_id: Vec<usize> = (0..pool.len()).collect();
    by_id.sort_by_key(|&at| pool[at].item);
    // (pool position, r_ui − r̄_u, r_uj − r̄_u), raters ascending.
    let mut co_ratings: Vec<(usize, f64, f64)> = Vec::new();
    for rating in matrix.item_profile(item) {
        let avg = matrix.user_average(rating.user);
        let mut profile = matrix.user_profile(rating.user).iter().peekable();
        for &at in &by_id {
            while profile.next_if(|e| e.item < pool[at].item).is_some() {}
            let co_rated = profile.peek().filter(|e| e.item == pool[at].item);
            co_ratings.extend(co_rated.map(|e| (at, rating.value - avg, e.value - avg)));
        }
    }
    // A stable sort: each candidate's run keeps the raters' ascending order.
    co_ratings.sort_by_key(|&(at, _, _)| at);
    let (co_i, co_j): (Vec<f64>, Vec<f64>) = co_ratings.iter().map(|c| (c.1, c.2)).unzip();
    let norm = |item: ItemId| norms.get(item.index()).copied().unwrap_or(0.0);
    let start = |at: usize| co_ratings.partition_point(|c| c.0 < at);
    let sensitivity = |(at, n): (usize, &ItemNeighbor)| {
        let run = start(at)..start(at + 1);
        similarity_sensitivity(&co_i[run.clone()], &co_j[run], norm(item), norm(n.item))
    };
    pool.iter().enumerate().map(sensitivity).collect()
}

/// The PNSA mechanism: privately selects `k` neighbours from `candidates`.
///
/// * `epsilon_prime` is the full ε′ of the recommendation phase; PNSA uses its ε′/2 share
///   internally by allocating `ε′ / (2k)` per selected neighbour, matching Algorithm 4.
/// * `rho` is the failure probability of the truncated-similarity bound.
/// * `vector_len` is `|v|`, the maximal rating-vector length (number of candidates is a
///   faithful stand-in when the full vocabulary size is unknown).
///
/// Returns the selected candidates (with their *non-noisy* similarities; PNCF adds noise
/// at prediction time).
pub fn private_neighbor_selection<R: Rng + ?Sized>(
    rng: &mut R,
    candidates: &[ScoredCandidate],
    k: usize,
    epsilon_prime: f64,
    rho: f64,
    vector_len: usize,
) -> Vec<ScoredCandidate> {
    if candidates.is_empty() || k == 0 {
        return Vec::new();
    }
    if candidates.len() <= k {
        return candidates.to_vec();
    }

    // Sim_k(t_i): the k-th largest similarity among the candidates. NaN similarities
    // carry no ranking signal and would make the truncation bound (and with it every
    // exponent) undefined, so they are excluded from the threshold computation.
    let mut sims: Vec<f64> = candidates
        .iter()
        .map(|c| c.similarity)
        .filter(|s| !s.is_nan())
        .collect();
    sims.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let sim_k = match sims.get(k - 1).or_else(|| sims.last()) {
        Some(&s) => s,
        None => 0.0, // every similarity is NaN; the draw degrades to uniform below
    };
    let max_sensitivity = candidates
        .iter()
        .map(|c| c.sensitivity)
        .fold(0.0f64, f64::max)
        .max(1e-6);
    let w = truncation_width(
        sim_k,
        k,
        epsilon_prime,
        max_sensitivity,
        vector_len.max(k + 1),
        rho,
    );

    // Per-candidate exponents of the exponential mechanism, numerically stabilised by
    // subtracting the maximum exponent before exponentiation.
    let per_pick_epsilon = epsilon_prime / (2.0 * k as f64);
    let exponents: Vec<f64> = candidates
        .iter()
        .map(|c| {
            let truncated = truncated_similarity(c.similarity, sim_k, w);
            let e = per_pick_epsilon * truncated / (2.0 * c.sensitivity.max(1e-6));
            // NaN similarities are already mapped to the truncation floor above
            // (`f64::max` ignores NaN), so a NaN exponent should be unreachable; this
            // is defence in depth. An undefined score carries no usable signal, and
            // -inf gives the candidate weight 0 — only ever drawn through the uniform
            // fallback — instead of letting one NaN poison the summed total for all.
            if e.is_nan() {
                f64::NEG_INFINITY
            } else {
                e
            }
        })
        .collect();

    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut selected = Vec::with_capacity(k);
    while selected.len() < k && !remaining.is_empty() {
        let max_e = remaining
            .iter()
            .map(|&i| exponents[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = remaining
            .iter()
            .map(|&i| (exponents[i] - max_e).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        // When every remaining exponent is -inf (all scores NaN-sanitised or -inf),
        // `max_e` is -inf and every weight becomes `(-inf - -inf).exp()` = NaN, so the
        // total is NaN and `gen_range` would panic. The exponential mechanism over a
        // constant score vector *is* the uniform distribution, and uniform is also the
        // only non-informative (hence privacy-safe) answer for undefined scores, so
        // degenerate weight vectors fall back to a uniform draw over the remainder.
        let picked_pos = if total.is_finite() && total > 0.0 {
            let mut u: f64 = rng.gen_range(0.0..total);
            let mut picked = remaining.len() - 1;
            for (pos, weight) in weights.iter().enumerate() {
                if u < *weight {
                    picked = pos;
                    break;
                }
                u -= weight;
            }
            picked
        } else {
            rng.gen_range(0..remaining.len())
        };
        let idx = remaining.remove(picked_pos);
        selected.push(candidates[idx]);
    }
    selected
}

/// The PNCF noise step: perturbs a similarity with Laplace noise calibrated to the pair's
/// similarity-based sensitivity and the ε′/2 budget of the prediction phase.
pub fn pncf_noisy_similarity<R: Rng + ?Sized>(
    rng: &mut R,
    similarity: f64,
    sensitivity: f64,
    epsilon_prime: f64,
) -> f64 {
    let scale = sensitivity.max(0.0) / (epsilon_prime / 2.0);
    similarity + laplace_noise(rng, scale)
}

/// `SS(i, j)` by definition, straight from the rating matrix (mean-centred co-rating
/// vectors, both full adjusted-cosine norms re-summed per pair): the oracle
/// [`pool_sensitivities`] must match bit for bit.
#[cfg(test)]
pub(crate) fn pair_sensitivity(matrix: &RatingMatrix, i: ItemId, j: ItemId) -> f64 {
    let yi = matrix.item_profile(i);
    let yj = matrix.item_profile(j);
    let mut co_i = Vec::new();
    let mut co_j = Vec::new();
    let (mut a, mut b) = (0usize, 0usize);
    while a < yi.len() && b < yj.len() {
        match yi[a].user.cmp(&yj[b].user) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                let avg = matrix.user_average(yi[a].user);
                co_i.push(yi[a].value - avg);
                co_j.push(yj[b].value - avg);
                a += 1;
                b += 1;
            }
        }
    }
    let norm = |profile: &[xmap_cf::matrix::ItemEntry]| {
        profile
            .iter()
            .map(|e| {
                let d = e.value - matrix.user_average(e.user);
                d * d
            })
            .sum::<f64>()
            .sqrt()
    };
    similarity_sensitivity(&co_i, &co_j, norm(yi), norm(yj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xmap_cf::RatingMatrixBuilder;

    fn candidates(n: usize) -> Vec<ScoredCandidate> {
        (0..n)
            .map(|i| ScoredCandidate {
                item: ItemId(i as u32),
                similarity: 1.0 - i as f64 * 0.1,
                sensitivity: 0.05,
            })
            .collect()
    }

    #[test]
    fn selection_returns_k_distinct_candidates() {
        let cands = candidates(10);
        let mut rng = StdRng::seed_from_u64(1);
        let picked = private_neighbor_selection(&mut rng, &cands, 4, 0.8, 0.05, 100);
        assert_eq!(picked.len(), 4);
        let mut items: Vec<ItemId> = picked.iter().map(|c| c.item).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 4);
        for p in &picked {
            assert!(
                cands.contains(p),
                "selected candidate must come from the input"
            );
        }
    }

    #[test]
    fn small_candidate_sets_are_returned_whole() {
        let cands = candidates(3);
        let mut rng = StdRng::seed_from_u64(1);
        let picked = private_neighbor_selection(&mut rng, &cands, 5, 0.8, 0.05, 100);
        assert_eq!(picked.len(), 3);
        assert!(private_neighbor_selection(&mut rng, &[], 5, 0.8, 0.05, 100).is_empty());
        assert!(private_neighbor_selection(&mut rng, &cands, 0, 0.8, 0.05, 100).is_empty());
    }

    #[test]
    fn high_epsilon_prefers_high_similarity_candidates() {
        let cands = candidates(20);
        let mut rng = StdRng::seed_from_u64(7);
        let mut top_hits = 0usize;
        let trials = 300;
        for _ in 0..trials {
            let picked = private_neighbor_selection(&mut rng, &cands, 3, 50.0, 0.05, 100);
            // with a huge ε′ the three most similar candidates should almost always win
            if picked.iter().all(|c| c.similarity >= 0.75) {
                top_hits += 1;
            }
        }
        assert!(
            top_hits as f64 / trials as f64 > 0.8,
            "high ε′ should concentrate on the best candidates ({top_hits}/{trials})"
        );
    }

    #[test]
    fn low_epsilon_spreads_selection() {
        let cands = candidates(20);
        let mut rng = StdRng::seed_from_u64(11);
        let mut picked_worst = 0usize;
        let trials = 400;
        for _ in 0..trials {
            let picked = private_neighbor_selection(&mut rng, &cands, 3, 0.01, 0.05, 100);
            if picked.iter().any(|c| c.similarity < 0.0) {
                picked_worst += 1;
            }
        }
        assert!(
            picked_worst > 0,
            "a very small ε′ should occasionally select poor candidates"
        );
    }

    #[test]
    fn tiny_sensitivities_do_not_overflow() {
        let cands: Vec<ScoredCandidate> = (0..10)
            .map(|i| ScoredCandidate {
                item: ItemId(i as u32),
                similarity: 0.9 - i as f64 * 0.05,
                sensitivity: 1e-9,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let picked = private_neighbor_selection(&mut rng, &cands, 3, 0.8, 0.05, 50);
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn pncf_noise_scales_with_sensitivity_and_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 30_000;
        let avg_noise = |sens: f64, eps: f64, rng: &mut StdRng| {
            (0..n)
                .map(|_| (pncf_noisy_similarity(rng, 0.0, sens, eps)).abs())
                .sum::<f64>()
                / n as f64
        };
        let small = avg_noise(0.01, 0.8, &mut rng);
        let large = avg_noise(0.5, 0.8, &mut rng);
        assert!(
            large > 10.0 * small,
            "noise must grow with sensitivity: {large} vs {small}"
        );
        let strict = avg_noise(0.1, 0.1, &mut rng);
        let loose = avg_noise(0.1, 2.0, &mut rng);
        assert!(
            strict > 5.0 * loose,
            "noise must grow as ε′ shrinks: {strict} vs {loose}"
        );
    }

    #[test]
    fn pair_sensitivity_reflects_co_rater_support() {
        // Items 0 and 1 co-rated by many users; items 0 and 2 co-rated by exactly one.
        let mut b = RatingMatrixBuilder::new();
        for u in 0..20u32 {
            b.push_parts(u, 0, ((u % 5) + 1) as f64).unwrap();
            b.push_parts(u, 1, ((u % 5) + 1) as f64).unwrap();
            // every user also rates some filler item so user averages are not degenerate
            b.push_parts(u, 3, 3.0).unwrap();
        }
        b.push_parts(0, 2, 5.0).unwrap();
        let m = b.build().unwrap();
        let well_supported = pair_sensitivity(&m, ItemId(0), ItemId(1));
        let fragile = pair_sensitivity(&m, ItemId(0), ItemId(2));
        assert!(
            fragile >= well_supported,
            "a single-co-rater pair must be at least as sensitive ({fragile} vs {well_supported})"
        );
        assert!(well_supported > 0.0 && well_supported <= 2.0);
        // disconnected pair falls back to the floor value
        let disconnected = pair_sensitivity(&m, ItemId(1), ItemId(2));
        assert!(disconnected > 0.0);
    }

    #[test]
    fn a_single_nan_similarity_neither_panics_nor_derails_the_mechanism() {
        // A NaN similarity is excluded from the Sim_k threshold and truncated to the
        // bound's floor (`f64::max` ignores NaN), so it competes like a worst-scored
        // candidate instead of poisoning the draw. With a strongly concentrating ε′
        // the best finite candidates must keep winning.
        let mut cands = candidates(10);
        cands[3].similarity = f64::NAN;
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 50;
        let mut nan_picks = 0usize;
        for _ in 0..trials {
            let picked = private_neighbor_selection(&mut rng, &cands, 4, 50.0, 0.05, 100);
            assert_eq!(picked.len(), 4);
            let mut items: Vec<ItemId> = picked.iter().map(|c| c.item).collect();
            items.sort_unstable();
            items.dedup();
            assert_eq!(items.len(), 4, "selection must not repeat candidates");
            assert!(
                picked.iter().any(|c| c.item == ItemId(0)),
                "the best finite candidate must keep winning"
            );
            nan_picks += usize::from(picked.iter().any(|c| c.item == ItemId(3)));
        }
        assert!(
            nan_picks < trials / 2,
            "the NaN candidate must not dominate the draw ({nan_picks}/{trials})"
        );
    }

    #[test]
    fn neg_infinite_similarities_do_not_panic() {
        // All-(-inf) exponents make every weight NaN (−inf − −inf); the uniform fallback
        // must still return k distinct candidates.
        let cands: Vec<ScoredCandidate> = (0..8)
            .map(|i| ScoredCandidate {
                item: ItemId(i as u32),
                similarity: f64::NEG_INFINITY,
                sensitivity: 0.05,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(21);
        let picked = private_neighbor_selection(&mut rng, &cands, 3, 0.8, 0.05, 100);
        assert_eq!(picked.len(), 3);
        let mut items: Vec<ItemId> = picked.iter().map(|c| c.item).collect();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn uniform_fallback_visits_every_candidate_eventually() {
        let mut cands = candidates(6);
        for c in &mut cands {
            c.similarity = f64::NAN;
        }
        let mut rng = StdRng::seed_from_u64(17);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            for c in private_neighbor_selection(&mut rng, &cands, 2, 0.8, 0.05, 100) {
                seen.insert(c.item);
            }
        }
        assert_eq!(seen.len(), 6, "uniform fallback must spread over the pool");
    }

    #[test]
    fn selection_is_deterministic_for_a_seed() {
        let cands = candidates(12);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let pa = private_neighbor_selection(&mut a, &cands, 4, 0.8, 0.05, 60);
        let pb = private_neighbor_selection(&mut b, &cands, 4, 0.8, 0.05, 60);
        assert_eq!(pa, pb);
    }

    proptest::proptest! {
        /// The gathered sensitivities are the per-pair definition's floats, for every
        /// item of a small random matrix (and one past it) against a random pool and
        /// the pool of every id twice over: repeated candidates, candidates past the
        /// catalogue, an unrated catalogue item and candidates sharing no rater with
        /// the item among them. Single-rater items, pairs with no co-rater and
        /// zero-norm items (a lone rater sits exactly on their average) take the
        /// `FLOOR` branches, and `SS` is symmetric to the bit.
        #[test]
        fn table_sensitivity_is_the_per_pair_definition_bit_for_bit(
            ratings in proptest::collection::vec((0u32..9, 0u32..10, 1u32..=5), 1..60),
            pools in proptest::collection::vec(proptest::collection::vec(0u32..15, 0..12), 14),
        ) {
            // Item 10: one rater whose only rating it is — a zero norm. Item 11: one
            // rater with other ratings. Item 12 is in the catalogue but unrated; 13
            // and 14 are past it: no raters, no norm entry.
            let mut b = RatingMatrixBuilder::new().with_dimensions(21, 13);
            for &(u, i, v) in &ratings {
                b.push_parts(u, i, f64::from(v)).unwrap();
            }
            b.push_parts(20, 10, 4.0).unwrap();
            b.push_parts(0, 11, 5.0).unwrap();
            let m = b.build().unwrap();
            let norms = centred_norms(&m);
            proptest::prop_assert_eq!(norms.len(), 13);
            proptest::prop_assert_eq!(norms[10].to_bits(), 0.0f64.to_bits());
            let every_id_twice: Vec<u32> = (0..15).chain(0..15).collect();
            for (i, drawn) in (0..14).map(ItemId).zip(&pools) {
                for ids in [drawn, &every_id_twice] {
                    let pool: Vec<ItemNeighbor> = ids
                        .iter()
                        .map(|&j| ItemNeighbor { item: ItemId(j), similarity: 0.5 })
                        .collect();
                    let got = pool_sensitivities(&m, &norms, i, &pool);
                    proptest::prop_assert_eq!(got.len(), pool.len());
                    for (n, ss) in pool.iter().zip(got) {
                        let want = pair_sensitivity(&m, i, n.item);
                        proptest::prop_assert_eq!(ss.to_bits(), want.to_bits(), "SS({}, {})", i.0, n.item.0);
                        let mirrored = pair_sensitivity(&m, n.item, i);
                        proptest::prop_assert_eq!(ss.to_bits(), mirrored.to_bits(), "SS({}, {})", n.item.0, i.0);
                    }
                }
            }
            let floor = pair_sensitivity(&m, ItemId(10), ItemId(11));
            proptest::prop_assert_eq!(floor.to_bits(), 1e-6f64.to_bits());
        }
    }
}
