//! Equation 1 between two *stored* users — the neighbour metric of the RemoteUser
//! baseline, its only caller. The serving path computes Equation 1 between an external
//! profile and every stored user in one gather (`xmap_cf::UserKnn`).

use xmap_cf::{RatingMatrix, UserId};

/// User–user similarity of Equation 1 (Algorithm 1, Phase 1): ratings are centred by the
/// *item* average and the sums run over the items co-rated by both users. A degenerate
/// or non-finite ratio reads as 0, "no similarity".
pub(crate) fn user_similarity(matrix: &RatingMatrix, a: UserId, b: UserId) -> f64 {
    let xa = matrix.user_profile(a);
    let xb = matrix.user_profile(b);
    if xa.is_empty() || xb.is_empty() {
        return 0.0;
    }

    let mut num = 0.0f64;
    let mut den_a = 0.0f64;
    let mut den_b = 0.0f64;

    let (mut p, mut q) = (0usize, 0usize);
    while p < xa.len() && q < xb.len() {
        match xa[p].item.cmp(&xb[q].item) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                let i_avg = matrix.item_average(xa[p].item);
                let da = xa[p].value - i_avg;
                let db = xb[q].value - i_avg;
                num += da * db;
                den_a += da * da;
                den_b += db * db;
                p += 1;
                q += 1;
            }
        }
    }

    let den = (den_a * den_b).sqrt();
    if den.abs() < 1e-12 || !den.is_finite() || !num.is_finite() {
        return 0.0;
    }
    let ratio = num / den;
    if ratio.is_finite() {
        ratio.clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xmap_cf::RatingMatrixBuilder;

    #[test]
    fn user_similarity_matches_shared_taste() {
        let mut b = RatingMatrixBuilder::new();
        // users 0 and 1 agree, user 2 disagrees
        for item in 0..4u32 {
            b.push_parts(0, item, if item % 2 == 0 { 5.0 } else { 1.0 })
                .unwrap();
            b.push_parts(1, item, if item % 2 == 0 { 4.0 } else { 2.0 })
                .unwrap();
            b.push_parts(2, item, if item % 2 == 0 { 1.0 } else { 5.0 })
                .unwrap();
        }
        let m = b.build().unwrap();
        let agree = user_similarity(&m, UserId(0), UserId(1));
        let disagree = user_similarity(&m, UserId(0), UserId(2));
        assert!(
            agree > 0.5,
            "agreeing users should have high similarity, got {agree}"
        );
        assert!(
            disagree < -0.5,
            "disagreeing users should have negative similarity, got {disagree}"
        );
    }

    #[test]
    fn user_similarity_with_empty_profile_is_zero() {
        let mut b = RatingMatrixBuilder::new().with_dimensions(3, 2);
        b.push_parts(0, 0, 4.0).unwrap();
        let m = b.build().unwrap();
        assert_eq!(user_similarity(&m, UserId(0), UserId(2)), 0.0);
    }

    proptest! {
        /// User similarity is symmetric and bounded.
        #[test]
        fn user_similarity_symmetric(
            ratings in proptest::collection::vec((0u32..8, 0u32..8, 1u32..=5), 1..80),
        ) {
            let mut b = RatingMatrixBuilder::new();
            for (u, i, v) in ratings {
                b.push_parts(u, i, v as f64).unwrap();
            }
            let m = b.build().unwrap();
            for a in 0..m.n_users().min(5) as u32 {
                for c in 0..m.n_users().min(5) as u32 {
                    let sab = user_similarity(&m, UserId(a), UserId(c));
                    let sba = user_similarity(&m, UserId(c), UserId(a));
                    prop_assert!((sab - sba).abs() < 1e-9);
                    prop_assert!((-1.0..=1.0).contains(&sab));
                }
            }
        }
    }
}
