//! The exponential mechanism.
//!
//! Both PRS (Algorithm 3) and PNSA (Algorithm 4) are instances of McSherry & Talwar's
//! exponential mechanism: each candidate `t_j` is selected with probability proportional
//! to `exp(ε · q(t_j) / (2 · Δq))`, where `q` is the score (X-Sim for PRS, truncated
//! similarity for PNSA) and `Δq` its sensitivity. This module provides the weighting and
//! sampling machinery in a numerically robust way (scores are shifted by their maximum
//! before exponentiation so that large `ε/Δq` ratios cannot overflow).

use rand::Rng;
use std::fmt;

/// Errors from the exponential mechanism.
#[derive(Debug, Clone, PartialEq)]
pub enum ExponentialError {
    /// The candidate list was empty.
    NoCandidates,
    /// ε was not positive and finite.
    InvalidEpsilon(f64),
    /// The sensitivity was not positive and finite.
    InvalidSensitivity(f64),
    /// A candidate score was NaN or infinite.
    InvalidScore(f64),
}

impl fmt::Display for ExponentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExponentialError::NoCandidates => {
                write!(f, "exponential mechanism needs at least one candidate")
            }
            ExponentialError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be positive and finite, got {e}")
            }
            ExponentialError::InvalidSensitivity(s) => {
                write!(f, "sensitivity must be positive and finite, got {s}")
            }
            ExponentialError::InvalidScore(s) => {
                write!(f, "candidate score must be finite, got {s}")
            }
        }
    }
}

impl std::error::Error for ExponentialError {}

/// Computes the normalised selection probabilities `exp(ε q_i / (2Δ)) / Σ_j exp(ε q_j / (2Δ))`.
///
/// The probabilities are returned in the same order as `scores`. Scores are shifted by
/// their maximum before exponentiation, which leaves the distribution unchanged but keeps
/// the arithmetic in a safe range.
pub fn exponential_weights(
    scores: &[f64],
    epsilon: f64,
    sensitivity: f64,
) -> Result<Vec<f64>, ExponentialError> {
    if scores.is_empty() {
        return Err(ExponentialError::NoCandidates);
    }
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(ExponentialError::InvalidEpsilon(epsilon));
    }
    if !(sensitivity.is_finite() && sensitivity > 0.0) {
        return Err(ExponentialError::InvalidSensitivity(sensitivity));
    }
    if let Some(&bad) = scores.iter().find(|s| !s.is_finite()) {
        return Err(ExponentialError::InvalidScore(bad));
    }

    let factor = epsilon / (2.0 * sensitivity);
    let max_score = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut weights: Vec<f64> = scores
        .iter()
        .map(|&s| (factor * (s - max_score)).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    // total >= 1 because the maximum contributes exp(0) = 1.
    for w in &mut weights {
        *w /= total;
    }
    Ok(weights)
}

/// Samples one candidate index according to the exponential-mechanism distribution.
///
/// This is the primitive behind PRS's "sample an element from I(t_i) according to their
/// probability" step and PNSA's per-slot sampling.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    scores: &[f64],
    epsilon: f64,
    sensitivity: f64,
) -> Result<usize, ExponentialError> {
    let weights = exponential_weights(scores, epsilon, sensitivity)?;
    let mut u: f64 = rng.gen_range(0.0..1.0);
    for (idx, w) in weights.iter().enumerate() {
        if u < *w {
            return Ok(idx);
        }
        u -= w;
    }
    // Floating point slack: fall back to the last candidate.
    Ok(weights.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_sum_to_one_and_order_follows_scores() {
        let scores = [0.9, 0.1, 0.5];
        let w = exponential_weights(&scores, 1.0, 2.0).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[2] && w[2] > w[1]);
    }

    #[test]
    fn equal_scores_give_uniform_weights() {
        let w = exponential_weights(&[0.3, 0.3, 0.3, 0.3], 0.5, 2.0).unwrap();
        for x in &w {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn errors_on_bad_inputs() {
        assert_eq!(
            exponential_weights(&[], 1.0, 2.0).unwrap_err(),
            ExponentialError::NoCandidates
        );
        assert!(matches!(
            exponential_weights(&[1.0], 0.0, 2.0).unwrap_err(),
            ExponentialError::InvalidEpsilon(_)
        ));
        assert!(matches!(
            exponential_weights(&[1.0], 1.0, 0.0).unwrap_err(),
            ExponentialError::InvalidSensitivity(_)
        ));
        assert!(matches!(
            exponential_weights(&[f64::NAN], 1.0, 2.0).unwrap_err(),
            ExponentialError::InvalidScore(_)
        ));
    }

    #[test]
    fn extreme_scores_do_not_overflow() {
        let w = exponential_weights(&[1e6, -1e6], 10.0, 0.001).unwrap();
        assert!(w.iter().all(|x| x.is_finite()));
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[0] > 0.999);
    }

    #[test]
    fn higher_epsilon_concentrates_on_best_candidate() {
        let scores = [1.0, 0.0];
        let low = exponential_weights(&scores, 0.1, 2.0).unwrap();
        let high = exponential_weights(&scores, 8.0, 2.0).unwrap();
        assert!(
            high[0] > low[0],
            "higher ε should favour the best item more strongly"
        );
        assert!(high[0] > 0.85);
        assert!(low[0] < 0.55);
    }

    #[test]
    fn sampling_frequency_matches_weights() {
        let scores = [1.0, 0.5, -1.0];
        let eps = 2.0;
        let sens = 2.0;
        let w = exponential_weights(&scores, eps, sens).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[exponential_mechanism(&mut rng, &scores, eps, sens).unwrap()] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - w[i]).abs() < 0.01,
                "candidate {i}: freq {freq} vs weight {}",
                w[i]
            );
        }
    }

    #[test]
    fn empirical_dp_inequality_holds_for_adjacent_score_vectors() {
        // Two score vectors differing by at most the sensitivity in each entry (the
        // defining property of adjacent databases for a query with that sensitivity).
        // The selection probability of any candidate may change by at most e^{ε}.
        let eps = 0.8;
        let sens = 1.0;
        let q1 = [0.9, 0.2, 0.5, 0.4];
        let q2 = [0.9 - sens, 0.2, 0.5 + sens, 0.4];
        let w1 = exponential_weights(&q1, eps, sens).unwrap();
        let w2 = exponential_weights(&q2, eps, sens).unwrap();
        for i in 0..4 {
            let ratio = (w1[i] / w2[i]).max(w2[i] / w1[i]);
            assert!(ratio <= eps.exp() + 1e-9, "candidate {i}: ratio {ratio}");
        }
    }

    proptest! {
        /// Probabilities are a valid distribution for arbitrary finite scores.
        #[test]
        fn weights_form_distribution(
            scores in proptest::collection::vec(-10.0f64..10.0, 1..50),
            eps in 0.01f64..5.0,
            sens in 0.01f64..5.0,
        ) {
            let w = exponential_weights(&scores, eps, sens).unwrap();
            prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }

        /// The sampler always returns a valid index.
        #[test]
        fn sampler_in_range(
            scores in proptest::collection::vec(-5.0f64..5.0, 1..30),
            seed in 0u64..500,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let idx = exponential_mechanism(&mut rng, &scores, 1.0, 2.0).unwrap();
            prop_assert!(idx < scores.len());
        }
    }
}
