//! Alternating Least Squares matrix factorisation.
//!
//! The paper compares X-Map against Spark MLlib's ALS recommender (`MLlib-ALS`) both for
//! accuracy in the homogeneous setting (Table 3) and for scalability (Figure 11). This
//! module is a from-scratch ALS implementation with L2 regularisation: user and item
//! factor matrices are alternately re-solved by ridge regression against the observed
//! ratings, exactly the algorithm MLlib implements (explicit-feedback variant).
//!
//! The factor dimension is deliberately small by default (16) — the evaluation cares
//! about relative behaviour against the neighbourhood methods, not about squeezing the
//! last percent of RMSE out of the factor model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xmap_cf::{CfError, ItemId, RatingMatrix, Result, UserId};

/// Hyper-parameters of the ALS trainer.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AlsConfig {
    /// Number of latent factors.
    pub factors: usize,
    /// Number of alternating sweeps (one sweep = users then items).
    pub iterations: usize,
    /// L2 regularisation strength λ.
    pub regularization: f64,
    /// Seed for the random factor initialisation.
    pub seed: u64,
}

impl Default for AlsConfig {
    fn default() -> Self {
        AlsConfig {
            factors: 16,
            iterations: 10,
            regularization: 0.1,
            seed: 42,
        }
    }
}

/// A trained ALS factor model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AlsModel {
    factors: usize,
    /// Row-major `n_users × factors` matrix.
    user_factors: Vec<f64>,
    /// Row-major `n_items × factors` matrix.
    item_factors: Vec<f64>,
    global_mean: f64,
    scale_min: f64,
    scale_max: f64,
    /// Training loss (regularised RMSE on observed entries) after each sweep.
    pub loss_history: Vec<f64>,
}

impl AlsModel {
    /// Trains an ALS model on the observed entries of `matrix`.
    pub fn train(matrix: &RatingMatrix, config: AlsConfig) -> Result<Self> {
        if config.factors == 0 {
            return Err(CfError::invalid_parameter("factors", "must be at least 1"));
        }
        if config.iterations == 0 {
            return Err(CfError::invalid_parameter(
                "iterations",
                "must be at least 1",
            ));
        }
        if config.regularization < 0.0 || !config.regularization.is_finite() {
            return Err(CfError::invalid_parameter(
                "regularization",
                "must be finite and non-negative",
            ));
        }
        if matrix.n_ratings() == 0 {
            return Err(CfError::EmptyMatrix);
        }

        let f = config.factors;
        let n_users = matrix.n_users();
        let n_items = matrix.n_items();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let global_mean = matrix.global_average();

        let mut user_factors: Vec<f64> =
            (0..n_users * f).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let mut item_factors: Vec<f64> =
            (0..n_items * f).map(|_| rng.gen_range(-0.1..0.1)).collect();

        let mut loss_history = Vec::with_capacity(config.iterations);
        for _sweep in 0..config.iterations {
            // Solve user factors with item factors fixed.
            solve_side(
                f,
                config.regularization,
                &mut user_factors,
                &item_factors,
                n_users,
                |u| {
                    matrix
                        .user_profile(UserId(u as u32))
                        .iter()
                        .map(|e| (e.item.index(), e.value - global_mean))
                        .collect()
                },
            );
            // Solve item factors with user factors fixed.
            solve_side(
                f,
                config.regularization,
                &mut item_factors,
                &user_factors,
                n_items,
                |i| {
                    matrix
                        .item_profile(ItemId(i as u32))
                        .iter()
                        .map(|e| (e.user.index(), e.value - global_mean))
                        .collect()
                },
            );

            let loss = training_rmse(matrix, f, global_mean, &user_factors, &item_factors);
            if !loss.is_finite() {
                return Err(CfError::TrainingDiverged(format!(
                    "non-finite training loss after sweep {_sweep}"
                )));
            }
            loss_history.push(loss);
        }

        let scale = matrix.scale();
        Ok(AlsModel {
            factors: f,
            user_factors,
            item_factors,
            global_mean,
            scale_min: scale.min,
            scale_max: scale.max,
            loss_history,
        })
    }

    /// Predicted rating for `(user, item)`, clamped to the training scale. Unknown users
    /// or items fall back to the global mean.
    pub fn predict(&self, user: UserId, item: ItemId) -> f64 {
        let u = user.index();
        let i = item.index();
        let raw = if u * self.factors + self.factors <= self.user_factors.len()
            && i * self.factors + self.factors <= self.item_factors.len()
        {
            let uf = &self.user_factors[u * self.factors..(u + 1) * self.factors];
            let vf = &self.item_factors[i * self.factors..(i + 1) * self.factors];
            self.global_mean + dot(uf, vf)
        } else {
            self.global_mean
        };
        raw.clamp(self.scale_min, self.scale_max)
    }
}

/// Solves one side of the alternating scheme: for every row of `target`, ridge-regress its
/// factor vector against the fixed `other` factors over the observed entries.
fn solve_side(
    f: usize,
    lambda: f64,
    target: &mut [f64],
    other: &[f64],
    n_rows: usize,
    observed: impl Fn(usize) -> Vec<(usize, f64)>,
) {
    let mut a = vec![0.0f64; f * f];
    let mut b = vec![0.0f64; f];
    for row in 0..n_rows {
        let obs = observed(row);
        if obs.is_empty() {
            // keep the (small random) factors: no information to update them with
            continue;
        }
        a.iter_mut().for_each(|x| *x = 0.0);
        b.iter_mut().for_each(|x| *x = 0.0);
        for &(col, r) in &obs {
            let v = &other[col * f..(col + 1) * f];
            for p in 0..f {
                b[p] += r * v[p];
                for q in 0..f {
                    a[p * f + q] += v[p] * v[q];
                }
            }
        }
        let reg = lambda * obs.len() as f64;
        for p in 0..f {
            a[p * f + p] += reg;
        }
        let x = solve_linear_system(&mut a, &mut b, f);
        target[row * f..(row + 1) * f].copy_from_slice(&x);
    }
}

/// Solves `A x = b` for a small dense symmetric positive-definite system by Gaussian
/// elimination with partial pivoting. `a` and `b` are clobbered.
fn solve_linear_system(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        // pivot
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        if diag.abs() < 1e-12 {
            continue; // singular direction; leave as-is (regularisation normally prevents this)
        }
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            // lint: float-eq — exact-zero elimination skip; any nonzero factor must run.
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // back substitution
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in (col + 1)..n {
            sum -= a[col * n + k] * x[k];
        }
        let diag = a[col * n + col];
        x[col] = if diag.abs() < 1e-12 { 0.0 } else { sum / diag };
    }
    x
}

fn training_rmse(
    matrix: &RatingMatrix,
    f: usize,
    global_mean: f64,
    user_factors: &[f64],
    item_factors: &[f64],
) -> f64 {
    let mut se = 0.0;
    let mut n = 0usize;
    for r in matrix.iter() {
        let uf = &user_factors[r.user.index() * f..(r.user.index() + 1) * f];
        let vf = &item_factors[r.item.index() * f..(r.item.index() + 1) * f];
        let pred = global_mean + dot(uf, vf);
        se += (pred - r.value) * (pred - r.value);
        n += 1;
    }
    (se / n.max(1) as f64).sqrt()
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_cf::RatingMatrixBuilder;

    /// Low-rank synthetic ratings: r(u, i) = clamp(3 + sign pattern), rank-1 structure.
    fn low_rank(n_users: u32, n_items: u32, density: f64, seed: u64) -> RatingMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let user_sign: Vec<f64> = (0..n_users)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let item_sign: Vec<f64> = (0..n_items)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let mut b = RatingMatrixBuilder::new().with_dimensions(n_users as usize, n_items as usize);
        for u in 0..n_users {
            for i in 0..n_items {
                if rng.gen_bool(density) {
                    let v = 3.0 + 2.0 * user_sign[u as usize] * item_sign[i as usize];
                    b.push_parts(u, i, v).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn training_loss_decreases() {
        let m = low_rank(40, 30, 0.3, 1);
        let model = AlsModel::train(
            &m,
            AlsConfig {
                factors: 4,
                iterations: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let first = model.loss_history.first().copied().unwrap();
        let last = model.loss_history.last().copied().unwrap();
        assert!(last <= first, "loss should not increase: {first} -> {last}");
        assert!(
            last < 1.0,
            "rank-1 structure should be learnable, got RMSE {last}"
        );
    }

    #[test]
    fn predictions_recover_structure() {
        let m = low_rank(40, 30, 0.4, 2);
        let model = AlsModel::train(
            &m,
            AlsConfig {
                factors: 4,
                iterations: 10,
                ..Default::default()
            },
        )
        .unwrap();
        // On observed entries the prediction should be close to the true value.
        let mut abs_err = 0.0;
        let mut n = 0;
        for r in m.iter() {
            abs_err += (model.predict(r.user, r.item) - r.value).abs();
            n += 1;
        }
        let mae = abs_err / n as f64;
        assert!(mae < 0.8, "training MAE too high: {mae}");
    }

    #[test]
    fn predictions_clamped_and_fallback_for_unknown_ids() {
        let m = low_rank(10, 10, 0.5, 3);
        let model = AlsModel::train(
            &m,
            AlsConfig {
                factors: 2,
                iterations: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for u in 0..10u32 {
            for i in 0..10u32 {
                let p = model.predict(UserId(u), ItemId(i));
                assert!((1.0..=5.0).contains(&p));
            }
        }
        let p = model.predict(UserId(999), ItemId(999));
        assert!((p - m.global_average().clamp(1.0, 5.0)).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let m = low_rank(5, 5, 0.6, 5);
        assert!(AlsModel::train(
            &m,
            AlsConfig {
                factors: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(AlsModel::train(
            &m,
            AlsConfig {
                iterations: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(AlsModel::train(
            &m,
            AlsConfig {
                regularization: -1.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn empty_matrix_is_rejected() {
        let m = RatingMatrixBuilder::new()
            .with_dimensions(3, 3)
            .build()
            .unwrap();
        assert!(matches!(
            AlsModel::train(&m, AlsConfig::default()),
            Err(CfError::EmptyMatrix)
        ));
    }

    #[test]
    fn linear_solver_solves_known_system() {
        // A = [[2, 1], [1, 3]], b = [3, 5] -> x = [4/5, 7/5]
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![3.0, 5.0];
        let x = solve_linear_system(&mut a, &mut b, 2);
        assert!((x[0] - 0.8).abs() < 1e-9);
        assert!((x[1] - 1.4).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let m = low_rank(15, 12, 0.4, 6);
        let cfg = AlsConfig {
            factors: 3,
            iterations: 4,
            seed: 7,
            ..Default::default()
        };
        let m1 = AlsModel::train(&m, cfg).unwrap();
        let m2 = AlsModel::train(&m, cfg).unwrap();
        assert_eq!(m1.loss_history, m2.loss_history);
        assert_eq!(
            m1.predict(UserId(3), ItemId(4)),
            m2.predict(UserId(3), ItemId(4))
        );
    }
}
