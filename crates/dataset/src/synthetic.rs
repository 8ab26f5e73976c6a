//! Synthetic cross-domain rating traces.
//!
//! The generator follows a latent-factor model: every user and every item owns a taste /
//! topic vector, and the "true" affinity of a user for an item is the dot product of the
//! two, rescaled to the rating scale and perturbed by noise. Crucially, a user's taste
//! vector is *the same in both domains* — that is precisely the cross-domain structure
//! that makes heterogeneous recommendation possible and that the real Amazon overlap
//! users exhibit. Users are split into three groups:
//!
//! * source-only users (rate only source-domain items),
//! * target-only users (rate only target-domain items),
//! * overlap users / straddlers (rate in both domains).
//!
//! The number of straddlers directly controls how many bridge items and meta-paths exist,
//! which is what the overlap experiment (Figure 9) sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xmap_cf::rating::RatingScale;
use xmap_cf::{DomainId, ItemId, RatingMatrix, RatingMatrixBuilder, UserId};

/// Configuration of the synthetic cross-domain trace.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CrossDomainConfig {
    /// Number of items in the source domain (movies in the paper's running example).
    pub n_source_items: usize,
    /// Number of items in the target domain (books).
    pub n_target_items: usize,
    /// Users who rate only in the source domain.
    pub n_source_only_users: usize,
    /// Users who rate only in the target domain.
    pub n_target_only_users: usize,
    /// Straddlers: users who rate in both domains.
    pub n_overlap_users: usize,
    /// Ratings each user gives per domain they are active in.
    pub ratings_per_user: usize,
    /// Dimension of the latent taste vectors.
    pub latent_dim: usize,
    /// Standard deviation of the rating noise (in stars).
    pub noise: f64,
    /// RNG seed; the same seed always produces the same trace.
    pub seed: u64,
    /// Popularity skew of item selection. `0.0` keeps the historical uniform
    /// sampling (byte-identical to traces generated before this knob existed);
    /// positive values draw items Zipf-like with weight `1 / (rank + 1)^skew`,
    /// where an item's rank is its position in the domain's ascending id order —
    /// low ids become the popularity head. The hot-shard replication policy of
    /// the sharded model keys off exactly this kind of head.
    pub popularity_skew: f64,
}

impl Default for CrossDomainConfig {
    fn default() -> Self {
        CrossDomainConfig {
            n_source_items: 120,
            n_target_items: 150,
            n_source_only_users: 80,
            n_target_only_users: 80,
            n_overlap_users: 60,
            ratings_per_user: 15,
            latent_dim: 4,
            noise: 0.35,
            seed: 7,
            popularity_skew: 0.0,
        }
    }
}

impl CrossDomainConfig {
    /// A smaller configuration for quick tests and examples.
    pub fn small() -> Self {
        CrossDomainConfig {
            n_source_items: 40,
            n_target_items: 50,
            n_source_only_users: 25,
            n_target_only_users: 25,
            n_overlap_users: 20,
            ratings_per_user: 10,
            latent_dim: 3,
            noise: 0.3,
            seed: 13,
            popularity_skew: 0.0,
        }
    }

    /// Total number of users the trace will contain.
    pub fn n_users(&self) -> usize {
        self.n_source_only_users + self.n_target_only_users + self.n_overlap_users
    }

    /// Total number of items the trace will contain.
    pub fn n_items(&self) -> usize {
        self.n_source_items + self.n_target_items
    }
}

/// A generated cross-domain dataset: the rating matrix plus the user-group bookkeeping
/// needed by the evaluation protocols.
#[derive(Clone, Debug)]
pub struct CrossDomainDataset {
    /// The aggregated rating matrix (both domains, item domains declared).
    pub matrix: RatingMatrix,
    /// Users active only in the source domain.
    pub source_only_users: Vec<UserId>,
    /// Users active only in the target domain.
    pub target_only_users: Vec<UserId>,
    /// Straddlers, active in both domains.
    pub overlap_users: Vec<UserId>,
    /// The configuration the dataset was generated from.
    pub config: CrossDomainConfig,
    /// Hidden ground-truth affinities used by tests: `affinity(user, item)` before noise.
    user_factors: Vec<Vec<f64>>,
    item_factors: Vec<Vec<f64>>,
}

impl CrossDomainDataset {
    /// Generates a dataset from the configuration.
    pub fn generate(config: CrossDomainConfig) -> Self {
        assert!(
            config.n_source_items > 0 && config.n_target_items > 0,
            "domains must be non-empty"
        );
        assert!(config.latent_dim > 0, "latent dimension must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = RatingScale::FIVE_STAR;

        let n_users = config.n_users();
        let n_items = config.n_items();
        let user_factors: Vec<Vec<f64>> = (0..n_users)
            .map(|_| random_unit_vector(&mut rng, config.latent_dim))
            .collect();
        let item_factors: Vec<Vec<f64>> = (0..n_items)
            .map(|_| random_unit_vector(&mut rng, config.latent_dim))
            .collect();

        // User groups by index range.
        let source_only_users: Vec<UserId> =
            (0..config.n_source_only_users as u32).map(UserId).collect();
        let target_only_users: Vec<UserId> = (config.n_source_only_users as u32
            ..(config.n_source_only_users + config.n_target_only_users) as u32)
            .map(UserId)
            .collect();
        let overlap_users: Vec<UserId> = ((config.n_source_only_users + config.n_target_only_users)
            as u32..n_users as u32)
            .map(UserId)
            .collect();

        let mut builder = RatingMatrixBuilder::with_scale(scale).with_dimensions(n_users, n_items);
        let source_items: Vec<ItemId> = (0..config.n_source_items as u32).map(ItemId).collect();
        let target_items: Vec<ItemId> = (config.n_source_items as u32..n_items as u32)
            .map(ItemId)
            .collect();

        // One Zipf table per pool, built once with its prefix sums: every draw searches it.
        let source_zipf =
            zipf_weights(source_items.len(), config.popularity_skew).map(ZipfTable::new);
        let target_zipf =
            zipf_weights(target_items.len(), config.popularity_skew).map(ZipfTable::new);
        let source_pool = (source_items.as_slice(), source_zipf.as_ref());
        let target_pool = (target_items.as_slice(), target_zipf.as_ref());

        let mut draws = Draws::default();
        let emit = |builder: &mut RatingMatrixBuilder,
                    rng: &mut StdRng,
                    draws: &mut Draws,
                    user: UserId,
                    (items, zipf): (&[ItemId], Option<&ZipfTable>),
                    timestep_base: u32| {
            let mut chosen =
                sample_without_replacement(rng, items, config.ratings_per_user, zipf, draws);
            chosen.sort_unstable();
            for (ord, item) in chosen.into_iter().enumerate() {
                let affinity = dot(&user_factors[user.index()], &item_factors[item.index()]);
                let noise = gaussian(rng) * config.noise;
                let value = (3.0 + 2.0 * affinity + noise).round();
                let value = scale.clamp(value);
                builder
                    .push(xmap_cf::Rating::at(
                        user,
                        item,
                        value,
                        xmap_cf::Timestep(timestep_base + ord as u32),
                    ))
                    .expect("generated ratings are always finite"); // lint: panic — reviewed invariant
            }
        };

        for &u in &source_only_users {
            emit(&mut builder, &mut rng, &mut draws, u, source_pool, 0);
        }
        for &u in &target_only_users {
            emit(&mut builder, &mut rng, &mut draws, u, target_pool, 0);
        }
        for &u in &overlap_users {
            // straddlers first rate the source domain, later the target domain, giving
            // them a meaningful temporal ordering across domains
            emit(&mut builder, &mut rng, &mut draws, u, source_pool, 0);
            emit(
                &mut builder,
                &mut rng,
                &mut draws,
                u,
                target_pool,
                config.ratings_per_user as u32,
            );
        }

        for &i in &source_items {
            builder.set_item_domain(i, DomainId::SOURCE);
        }
        for &i in &target_items {
            builder.set_item_domain(i, DomainId::TARGET);
        }

        let matrix = builder.build().expect("generated dataset is never empty"); // lint: panic — reviewed invariant
        CrossDomainDataset {
            matrix,
            source_only_users,
            target_only_users,
            overlap_users,
            config,
            user_factors,
            item_factors,
        }
    }

    /// The noiseless ground-truth affinity of a user for an item, mapped to the rating
    /// scale. Used by tests and by sanity checks in the benches.
    pub fn true_rating(&self, user: UserId, item: ItemId) -> f64 {
        let affinity = dot(
            &self.user_factors[user.index()],
            &self.item_factors[item.index()],
        );
        RatingScale::FIVE_STAR.clamp(3.0 + 2.0 * affinity)
    }

    /// Items of the source domain.
    pub fn source_items(&self) -> Vec<ItemId> {
        self.matrix.items_in_domain(DomainId::SOURCE)
    }

    /// Items of the target domain.
    pub fn target_items(&self) -> Vec<ItemId> {
        self.matrix.items_in_domain(DomainId::TARGET)
    }
}

fn random_unit_vector(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..dim).map(|_| gaussian(rng)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
    for x in &mut v {
        *x /= norm;
    }
    v
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The Zipf-like selection weights of a pool of `len` items, `1 / (rank + 1)^skew` by
/// pool position (ascending item id) — or `None` for the uniform path. [`ZipfTable`]
/// adds their prefix sums; the weights' bits are part of every skewed trace's bits.
fn zipf_weights(len: usize, skew: f64) -> Option<Vec<f64>> {
    // Exact zero selects the historical uniform path, which must keep consuming
    // the RNG stream identically so pre-knob traces reproduce bit-for-bit.
    // lint: float-eq — 0.0 is the sentinel for "knob unset", not a computed value.
    if skew == 0.0 {
        return None;
    }
    Some(
        (0..len)
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(skew))
            .collect(),
    )
}

/// A pool's [`zipf_weights`], their sequential prefix sums and a guide over those,
/// built once per pool.
struct ZipfTable {
    weights: Vec<f64>,
    /// `prefix[p]` is `((w[0] + w[1]) + …) + w[p - 1]`, summed in order; `prefix[len]`
    /// is the table total.
    prefix: Vec<f64>,
    /// Chen & Asau's guide table: `guide[k]` is the last position whose prefix is at
    /// most `k / len` of the total, so a search for a value starts in its bucket.
    guide: Vec<usize>,
}

/// The state of one [`ZipfTable::picks`] call, kept across a trace's calls so that
/// its buffers are allocated once.
#[derive(Debug, Default)]
struct Draws {
    /// Chosen positions, ascending.
    chosen: Vec<usize>,
    /// `taken[j]` sums the weights of the first `j` chosen positions.
    taken: Vec<f64>,
    /// The picks in draw order.
    picks: Vec<usize>,
}

impl ZipfTable {
    fn new(weights: Vec<f64>) -> Self {
        let mut total = 0.0;
        let prefix: Vec<f64> = std::iter::once(0.0)
            .chain(weights.iter().map(|&w| {
                total += w;
                total
            }))
            .collect();
        let len = weights.len();
        let mut p = 0;
        let guide = (0..len)
            .map(|k| {
                let edge = total * (k as f64 / len as f64);
                while p + 1 < len && prefix[p + 1] <= edge {
                    p += 1;
                }
                p
            })
            .collect();
        ZipfTable {
            weights,
            prefix,
            guide,
        }
    }

    /// What `count` picks may cost in rounding: the running total, the prefix table
    /// and the re-summing loop's `draw -= w` chain each stray from exact arithmetic
    /// by at most `(len + count)·u·S` (`S` the table total, `u` half an epsilon). The
    /// margin covers the three with room to spare.
    fn margin(&self, count: usize) -> f64 {
        let len = self.weights.len();
        8.0 * (len + count) as f64 * f64::EPSILON * self.prefix[len]
    }

    /// `count` distinct pool positions in draw order — the picks of the re-summing
    /// loop (`resum_picks`, the test oracle) and its RNG position: one `u64` per pick.
    /// A pick is a proposal — `propose(table, lo, chosen, taken)`, the trace's being
    /// [`ZipfTable::guided`] — that [`ZipfTable::certified_pick`] checks against
    /// `margin`, or, when the check fails, the loop's own re-sum and scan. A chosen
    /// position leaves the table by joining `draws.chosen`, so the table is never copied.
    fn picks<'d>(
        &self,
        rng: &mut StdRng,
        count: usize,
        margin: f64,
        draws: &'d mut Draws,
        propose: impl Fn(&Self, f64, &[usize], &[f64]) -> usize,
    ) -> &'d [usize] {
        let Draws {
            chosen,
            taken,
            picks,
        } = draws;
        chosen.clear();
        taken.clear();
        taken.push(0.0);
        picks.clear();
        for _ in 0..count {
            // The loop drew `gen_range(0.0..total)`, which the stand-in computes as
            // `0.0 + next_f64()·(total − 0.0)`: this is that `next_f64()`.
            let v: f64 = rng.gen_range(0.0..1.0);
            let pick = self
                .certified_pick(v, chosen, taken, margin, &propose)
                .unwrap_or_else(|| self.rescan_pick(v, chosen));
            let at = chosen.partition_point(|&q| q < pick);
            chosen.insert(at, pick);
            taken.truncate(at + 1);
            for &q in &chosen[at..] {
                taken.push(taken[taken.len() - 1] + self.weights[q]);
            }
            picks.push(pick);
        }
        picks
    }

    /// The loop's pick for draw fraction `v`, when the proposal can be certified. The
    /// loop's draw lies in `[v·(T̃ − m), v·(T̃ + m)]`, `T̃` the table total less the
    /// chosen weights; its pick is monotone in the draw (`fl(x − w)` is monotone in
    /// `x`), so a bracket at least `m` inside one remaining item's span of the
    /// remaining-weight prefix sums names the loop's pick, whatever proposed it.
    fn certified_pick(
        &self,
        v: f64,
        chosen: &[usize],
        taken: &[f64],
        m: f64,
        propose: impl Fn(&Self, f64, &[usize], &[f64]) -> usize,
    ) -> Option<usize> {
        let len = self.weights.len();
        let left = self.prefix[len] - taken[chosen.len()];
        let (lo, hi) = (v * (left - m), v * (left + m));
        let p = propose(self, lo, chosen, taken);
        let below = chosen.partition_point(|&q| q < p);
        let remaining = chosen.get(below) != Some(&p);
        // The loop takes its last remaining item once the draw passes the others.
        let last = chosen.len() - below == len - 1 - p;
        let start = self.prefix[p] - taken[below];
        let end = self.prefix[p + 1] - taken[below];
        (remaining && lo >= start + m && (last || hi < end - m)).then_some(p)
    }

    /// The proposal: the last position `p` whose remaining prefix — the table's prefix
    /// less the weights of the `j` chosen positions below `p` — is at most `lo`, or 0.
    /// One walk over `chosen` finds the run of positions with the answer's `j`; in it
    /// the predicate is monotone in `p`, so stepping from where the guide puts
    /// `lo + taken[j]` ends at the run's last position that satisfies it.
    fn guided(&self, lo: f64, chosen: &[usize], taken: &[f64]) -> usize {
        let len = self.weights.len();
        let ahead = |p: usize, j: usize| self.prefix[p] - taken[j] <= lo;
        let mut j = 0;
        while j < chosen.len() && chosen[j] + 1 < len && ahead(chosen[j] + 1, j + 1) {
            j += 1;
        }
        let first = if j == 0 { 0 } else { chosen[j - 1] + 1 };
        let last = chosen.get(j).copied().unwrap_or(len - 1);
        // `as` saturates: a negative bucket is 0.
        let bucket = ((lo + taken[j]) / self.prefix[len] * len as f64) as usize;
        let mut p = self.guide[bucket.min(len - 1)].clamp(first, last);
        while p < last && ahead(p + 1, j) {
            p += 1;
        }
        while p > first && !ahead(p, j) {
            p -= 1;
        }
        p
    }

    /// The exact fallback: the re-summing loop itself over the positions not chosen.
    fn rescan_pick(&self, v: f64, chosen: &[usize]) -> usize {
        let left = || (0..self.weights.len()).filter(|p| chosen.binary_search(p).is_err());
        let total: f64 = left().map(|p| self.weights[p]).sum();
        let mut draw = v * total;
        let mut pick = 0;
        for p in left() {
            pick = p;
            if draw < self.weights[p] {
                break;
            }
            draw -= self.weights[p];
        }
        pick
    }
}

/// Draws `count` distinct items of `pool`: uniformly without a Zipf table, else by
/// cumulative-weight inversion over the weights not yet drawn. The weighted picks are
/// those of the loop that re-sums the remaining table per draw (`resum_picks`, kept
/// as the test oracle), each proposed by a guided search ([`ZipfTable::guided`]) and
/// drawn into the reused `draws`.
fn sample_without_replacement(
    rng: &mut StdRng,
    pool: &[ItemId],
    count: usize,
    zipf: Option<&ZipfTable>,
    draws: &mut Draws,
) -> Vec<ItemId> {
    let count = count.min(pool.len());
    let Some(zipf) = zipf else {
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        // partial Fisher–Yates
        for i in 0..count {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        return indices[..count].iter().map(|&i| pool[i]).collect();
    };
    let picks = zipf.picks(rng, count, zipf.margin(count), draws, ZipfTable::guided);
    picks.iter().map(|&p| pool[p]).collect()
}

/// The weighted draw before [`ZipfTable`]: a chosen item leaves the table, and the
/// total is re-summed per draw. Returns pool positions in draw order.
#[cfg(test)]
fn resum_picks(rng: &mut StdRng, weights: &[f64], count: usize) -> Vec<usize> {
    let mut weights = weights.to_vec();
    let mut indices: Vec<usize> = (0..weights.len()).collect();
    let mut chosen = Vec::with_capacity(count);
    for _ in 0..count {
        let total: f64 = weights.iter().sum();
        let mut draw = rng.gen_range(0.0..total);
        let mut pick = weights.len() - 1;
        for (ix, &w) in weights.iter().enumerate() {
            if draw < w {
                pick = ix;
                break;
            }
            draw -= w;
        }
        chosen.push(indices[pick]);
        indices.remove(pick);
        weights.remove(pick);
    }
    chosen
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn generated_shape_matches_config() {
        let cfg = CrossDomainConfig::small();
        let ds = CrossDomainDataset::generate(cfg);
        assert_eq!(ds.matrix.n_users(), cfg.n_users());
        assert_eq!(ds.matrix.n_items(), cfg.n_items());
        assert_eq!(ds.source_items().len(), cfg.n_source_items);
        assert_eq!(ds.target_items().len(), cfg.n_target_items);
        assert_eq!(ds.overlap_users.len(), cfg.n_overlap_users);
        assert_eq!(ds.source_only_users.len(), cfg.n_source_only_users);
        assert_eq!(ds.target_only_users.len(), cfg.n_target_only_users);
    }

    #[test]
    fn user_groups_rate_only_their_domains() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        for &u in &ds.source_only_users {
            for e in ds.matrix.user_profile(u) {
                assert_eq!(ds.matrix.item_domain(e.item), DomainId::SOURCE);
            }
        }
        for &u in &ds.target_only_users {
            for e in ds.matrix.user_profile(u) {
                assert_eq!(ds.matrix.item_domain(e.item), DomainId::TARGET);
            }
        }
        for &u in &ds.overlap_users {
            let (src, tgt) = ds.matrix.profile_by_domain(u, DomainId::SOURCE);
            assert!(!src.is_empty(), "straddler must rate the source domain");
            assert!(!tgt.is_empty(), "straddler must rate the target domain");
        }
    }

    #[test]
    fn overlap_users_match_matrix_overlap_detection() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let detected = ds
            .matrix
            .overlapping_users(&[DomainId::SOURCE, DomainId::TARGET]);
        assert_eq!(detected, ds.overlap_users);
    }

    #[test]
    fn ratings_are_on_the_five_star_scale_and_deterministic() {
        let cfg = CrossDomainConfig::small();
        let a = CrossDomainDataset::generate(cfg);
        let b = CrossDomainDataset::generate(cfg);
        assert_eq!(a.matrix.n_ratings(), b.matrix.n_ratings());
        for r in a.matrix.iter() {
            assert!((1.0..=5.0).contains(&r.value));
            assert_eq!(b.matrix.rating(r.user, r.item), Some(r.value));
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = CrossDomainDataset::generate(CrossDomainConfig {
            seed: 1,
            ..CrossDomainConfig::small()
        });
        let b = CrossDomainDataset::generate(CrossDomainConfig {
            seed: 2,
            ..CrossDomainConfig::small()
        });
        let differing = a
            .matrix
            .iter()
            .filter(|r| b.matrix.rating(r.user, r.item) != Some(r.value))
            .count();
        assert!(differing > 0, "different seeds should change the trace");
    }

    #[test]
    fn ratings_correlate_with_ground_truth() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::default());
        // observed ratings should be closer to the ground truth than a constant predictor
        let mut err_truth = 0.0;
        let mut err_const = 0.0;
        let mut n = 0.0;
        for r in ds.matrix.iter() {
            err_truth += (r.value - ds.true_rating(r.user, r.item)).abs();
            err_const += (r.value - 3.0).abs();
            n += 1.0;
        }
        assert!(
            err_truth / n < err_const / n,
            "ground truth must explain the ratings better than a constant"
        );
    }

    #[test]
    fn straddler_target_ratings_have_later_timesteps() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let u = ds.overlap_users[0];
        let (src, tgt) = ds.matrix.profile_by_domain(u, DomainId::SOURCE);
        let max_src = src.iter().map(|e| e.timestep).max().unwrap();
        let min_tgt = tgt.iter().map(|e| e.timestep).min().unwrap();
        assert!(
            min_tgt >= max_src,
            "target ratings happen after source ratings for straddlers"
        );
    }

    #[test]
    fn skewed_sampling_is_deterministic_for_a_fixed_seed() {
        let cfg = CrossDomainConfig {
            popularity_skew: 1.2,
            ..CrossDomainConfig::small()
        };
        let a = CrossDomainDataset::generate(cfg);
        let b = CrossDomainDataset::generate(cfg);
        assert_eq!(
            a.matrix, b.matrix,
            "the same seed and skew must reproduce the trace bit-for-bit"
        );
    }

    #[test]
    fn positive_skew_concentrates_ratings_on_the_low_id_head() {
        let head_mass = |skew: f64| -> f64 {
            let ds = CrossDomainDataset::generate(CrossDomainConfig {
                popularity_skew: skew,
                ..CrossDomainConfig::small()
            });
            let head = (ds.matrix.n_items() / 10).max(1);
            let head_ratings: usize = (0..head as u32)
                .map(|i| ds.matrix.item_degree(ItemId(i)))
                .sum();
            head_ratings as f64 / ds.matrix.n_ratings() as f64
        };
        let uniform = head_mass(0.0);
        let skewed = head_mass(1.5);
        assert!(
            skewed > uniform * 1.5,
            "skew 1.5 must concentrate the head: uniform {uniform:.3} vs skewed {skewed:.3}"
        );
    }

    #[test]
    fn zero_skew_reproduces_the_uniform_sampling_path() {
        // `small()` leaves the knob at 0.0; spelling it out must change nothing.
        let implicit = CrossDomainDataset::generate(CrossDomainConfig::small());
        let explicit = CrossDomainDataset::generate(CrossDomainConfig {
            popularity_skew: 0.0,
            ..CrossDomainConfig::small()
        });
        assert_eq!(implicit.matrix, explicit.matrix);
    }

    /// FNV-1a over every stored rating of a generated trace, in matrix order.
    fn trace_hash(config: CrossDomainConfig) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let ds = CrossDomainDataset::generate(config);
        for r in ds.matrix.iter() {
            for word in [
                u64::from(r.user.0),
                u64::from(r.item.0),
                r.value.to_bits(),
                u64::from(r.timestep.0),
            ] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn generated_traces_are_pinned_bit_for_bit() {
        // The generator feeds every fixed-seed gate and the benchmark's `xmap48k`
        // trace: a change to how it draws must reproduce the historical traces, on the
        // uniform path and on the Zipf path alike.
        assert_eq!(
            trace_hash(CrossDomainConfig::small()),
            0x82fb38f21a7fe166,
            "the unskewed trace moved"
        );
        assert_eq!(
            trace_hash(CrossDomainConfig {
                popularity_skew: 1.1,
                ..CrossDomainConfig::small()
            }),
            0x1cd81b247efdfc88,
            "the skewed trace moved"
        );
        // The benchmark's `xmap48k` shape: 1000-item pools, 48 000 Zipf draws.
        for (seed, pinned) in [(19, 0x6c75_c650_3df7_45c5u64), (23, 0xb7c2_8e20_ddc9_2c28)] {
            let xmap48k = CrossDomainConfig {
                n_source_items: 1000,
                n_target_items: 1000,
                n_source_only_users: 1200,
                n_target_only_users: 1200,
                n_overlap_users: 800,
                ratings_per_user: 12,
                latent_dim: 3,
                noise: 0.25,
                seed,
                popularity_skew: 1.1,
            };
            assert_eq!(
                trace_hash(xmap48k),
                pinned,
                "the xmap48k trace at seed {seed} moved"
            );
        }
    }

    /// Draws `count` of a `len`-item table of `skew` at `margin` (`None`: the table's
    /// own) and through the re-summing oracle from the same seed; asserts equal picks
    /// and an equal RNG position afterwards.
    fn assert_picks_match_the_oracle(
        seed: u64,
        len: usize,
        skew: f64,
        count: usize,
        margin: Option<f64>,
    ) {
        let table = ZipfTable::new(zipf_weights(len, skew).unwrap());
        let margin = margin.unwrap_or_else(|| table.margin(count));
        let (mut fast, mut oracle) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        assert_eq!(
            table.picks(
                &mut fast,
                count,
                margin,
                &mut Draws::default(),
                ZipfTable::guided
            ),
            resum_picks(&mut oracle, &table.weights, count),
            "seed {seed}, {count} of {len} at skew {skew}"
        );
        assert_eq!(
            fast.next_u64(),
            oracle.next_u64(),
            "seed {seed}: RNG position"
        );
    }

    /// One test shape per seed: a pool of 1..=`max_len` items — of 1 or 2 items on a
    /// quarter of the seeds, at every skew — skew 0.01, 0.3, 1.1, 2.0 or 4.0, and a
    /// count up to the whole pool — the whole pool on every fourth seed.
    fn oracle_shape(seed: u64, max_len: usize) -> (usize, f64, usize) {
        let mut shape = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let len = match (seed / 5) % 8 {
            0 => 1,
            1 => 2,
            _ => shape.gen_range(1..=max_len),
        };
        let skew = [0.01, 0.3, 1.1, 2.0, 4.0][(seed % 5) as usize];
        let count = if seed.is_multiple_of(4) {
            len
        } else {
            shape.gen_range(0..=len)
        };
        (len, skew, count)
    }

    #[test]
    fn prefix_search_picks_what_the_resumming_loop_picks() {
        for seed in 0..240 {
            let (len, skew, count) = oracle_shape(seed, 3000);
            assert_picks_match_the_oracle(seed, len, skew, count, None);
        }
    }

    #[test]
    fn the_exact_fallback_alone_picks_what_the_resumming_loop_picks() {
        // A margin as large as the table total certifies nothing: every pick re-sums.
        for seed in 0..60 {
            let (len, skew, count) = oracle_shape(seed, 400);
            let total = ZipfTable::new(zipf_weights(len, skew).unwrap()).prefix[len];
            assert_picks_match_the_oracle(seed, len, skew, count, Some(total));
        }
    }

    #[test]
    fn a_wrong_proposal_still_picks_what_the_resumming_loop_picks() {
        // Certification proves a proposal or refuses it for the exact re-scan, so
        // neither a proposal one position off nor one pinned to either end of the
        // table can move a pick or the RNG position.
        type Proposal = fn(&ZipfTable, f64, &[usize], &[f64]) -> usize;
        let proposals: [Proposal; 4] = [
            |t, lo, chosen, taken| (t.guided(lo, chosen, taken) + 1) % t.weights.len(),
            |t, lo, chosen, taken| t.guided(lo, chosen, taken).saturating_sub(1),
            |_, _, _, _| 0,
            |t, _, _, _| t.weights.len() - 1,
        ];
        let mut draws = Draws::default();
        for seed in 0..120 {
            let (len, skew, count) = oracle_shape(seed, 600);
            let table = ZipfTable::new(zipf_weights(len, skew).unwrap());
            let propose = proposals[(seed % 4) as usize];
            let (mut wrong, mut oracle) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let margin = table.margin(count);
            assert_eq!(
                table.picks(&mut wrong, count, margin, &mut draws, propose),
                resum_picks(&mut oracle, &table.weights, count),
                "seed {seed}, {count} of {len} at skew {skew}"
            );
            assert_eq!(wrong.next_u64(), oracle.next_u64(), "seed {seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The generator never panics and always respects group sizes for a range of
        /// configurations, including degenerate ones (zero overlap, tiny domains).
        #[test]
        fn generator_respects_arbitrary_configs(
            n_src in 1usize..30,
            n_tgt in 1usize..30,
            overlap in 0usize..10,
            per_user in 1usize..8,
            seed in 0u64..50,
        ) {
            let cfg = CrossDomainConfig {
                n_source_items: n_src,
                n_target_items: n_tgt,
                n_source_only_users: 5,
                n_target_only_users: 5,
                n_overlap_users: overlap,
                ratings_per_user: per_user,
                latent_dim: 3,
                noise: 0.2,
                seed,
                popularity_skew: 0.0,
            };
            let ds = CrossDomainDataset::generate(cfg);
            prop_assert_eq!(ds.overlap_users.len(), overlap);
            prop_assert_eq!(ds.matrix.n_items(), n_src + n_tgt);
            for r in ds.matrix.iter() {
                prop_assert!((1.0..=5.0).contains(&r.value));
            }
        }
    }
}
