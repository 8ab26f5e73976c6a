//! Genre-tagged single-domain traces and the Table 2 sub-domain partition.
//!
//! §6.5 of the paper evaluates X-Map in a *homogeneous* setting by splitting the
//! MovieLens ML-20M catalogue into two sub-domains: genres are sorted by movie count and
//! allocated alternately to sub-domains `D1` and `D2`; each movie is then assigned to the
//! sub-domain with which it shares more genres (ties go to either). This module
//! implements that partition procedure verbatim and provides a synthetic genre-tagged
//! generator standing in for ML-20M.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use xmap_cf::rating::RatingScale;
use xmap_cf::{DomainId, ItemId, Rating, RatingMatrix, RatingMatrixBuilder, Timestep, UserId};

/// The 19 ML-20M genres plus "Other", with the approximate relative frequencies reported
/// in Table 2 (movie counts per genre). The absolute counts are irrelevant; only the
/// ordering matters for the partition.
pub const MOVIELENS_GENRES: &[(&str, usize)] = &[
    ("Drama", 13344),
    ("Comedy", 8374),
    ("Thriller", 4178),
    ("Romance", 4127),
    ("Action", 3520),
    ("Crime", 2939),
    ("Horror", 2611),
    ("Documentary", 2471),
    ("Adventure", 2329),
    ("Sci-Fi", 1743),
    ("Mystery", 1514),
    ("Fantasy", 1412),
    ("War", 1194),
    ("Children", 1139),
    ("Musical", 1036),
    ("Animation", 1027),
    ("Western", 676),
    ("Film-Noir", 330),
    ("Other", 196),
];

/// Configuration of the synthetic genre-tagged dataset.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GenreDatasetConfig {
    /// Number of items (movies).
    pub n_items: usize,
    /// Number of users.
    pub n_users: usize,
    /// Ratings per user.
    pub ratings_per_user: usize,
    /// Maximum number of genres per movie (at least 1 is always assigned).
    pub max_genres_per_item: usize,
    /// Rating noise standard deviation.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenreDatasetConfig {
    fn default() -> Self {
        GenreDatasetConfig {
            n_items: 200,
            n_users: 120,
            ratings_per_user: 20,
            max_genres_per_item: 3,
            noise: 0.35,
            seed: 21,
        }
    }
}

/// A synthetic genre-tagged single-domain dataset.
#[derive(Clone, Debug)]
pub struct GenreTaggedDataset {
    /// The rating matrix (single domain, before partitioning).
    pub matrix: RatingMatrix,
    /// `genres[item] = genre indices into` [`MOVIELENS_GENRES`].
    pub item_genres: Vec<Vec<usize>>,
}

impl GenreTaggedDataset {
    /// Generates a genre-tagged trace. Genres are sampled proportionally to their
    /// ML-20M frequencies; users have a latent affinity per genre so that ratings are
    /// correlated within genres (the structure that makes the genre partition a
    /// meaningful two-domain problem).
    pub fn generate(config: GenreDatasetConfig) -> Self {
        assert!(
            config.n_items > 0 && config.n_users > 0,
            "dataset must be non-empty"
        );
        assert!(
            config.max_genres_per_item >= 1,
            "items need at least one genre"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = RatingScale::FIVE_STAR;
        let n_genres = MOVIELENS_GENRES.len();
        let total_count: usize = MOVIELENS_GENRES.iter().map(|(_, c)| c).sum();

        // Assign genres to items with probability proportional to genre frequency.
        let mut item_genres: Vec<Vec<usize>> = Vec::with_capacity(config.n_items);
        for _ in 0..config.n_items {
            let n = rng.gen_range(1..=config.max_genres_per_item);
            let mut genres = Vec::with_capacity(n);
            while genres.len() < n {
                let mut pick = rng.gen_range(0..total_count);
                let mut chosen = 0usize;
                for (gi, (_, c)) in MOVIELENS_GENRES.iter().enumerate() {
                    if pick < *c {
                        chosen = gi;
                        break;
                    }
                    pick -= c;
                }
                if !genres.contains(&chosen) {
                    genres.push(chosen);
                }
            }
            genres.sort_unstable();
            item_genres.push(genres);
        }

        // Users have a preference per genre in [-1, 1].
        let user_prefs: Vec<Vec<f64>> = (0..config.n_users)
            .map(|_| (0..n_genres).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();

        let mut builder =
            RatingMatrixBuilder::with_scale(scale).with_dimensions(config.n_users, config.n_items);
        for (u, prefs) in user_prefs.iter().enumerate() {
            let mut rated = std::collections::HashSet::new();
            for t in 0..config.ratings_per_user.min(config.n_items) {
                let mut item = rng.gen_range(0..config.n_items);
                let mut guard = 0;
                while rated.contains(&item) && guard < 50 {
                    item = rng.gen_range(0..config.n_items);
                    guard += 1;
                }
                if rated.contains(&item) {
                    continue;
                }
                rated.insert(item);
                let genres = &item_genres[item];
                let affinity: f64 =
                    genres.iter().map(|&g| prefs[g]).sum::<f64>() / genres.len() as f64;
                let noise: f64 = rng.gen_range(-config.noise..config.noise);
                let value = scale.clamp((3.0 + 2.0 * affinity + noise).round());
                builder
                    .push(Rating::at(
                        UserId(u as u32),
                        ItemId(item as u32),
                        value,
                        Timestep(t as u32),
                    ))
                    .expect("generated ratings are finite"); // lint: panic — reviewed invariant
            }
        }

        GenreTaggedDataset {
            matrix: builder.build().expect("non-empty by construction"), // lint: panic — reviewed invariant
            item_genres,
        }
    }

    /// Applies the Table 2 partition and returns a new matrix whose items carry the two
    /// sub-domain ids, together with the partition bookkeeping.
    pub fn partition(&self) -> (RatingMatrix, GenrePartition) {
        let partition = GenrePartition::compute(&self.item_genres);
        let mut builder = RatingMatrixBuilder::with_scale(self.matrix.scale())
            .with_dimensions(self.matrix.n_users(), self.matrix.n_items());
        for r in self.matrix.iter() {
            builder.push(r).expect("copying finite ratings"); // lint: panic — reviewed invariant
        }
        for (item, &d) in partition.item_domain.iter().enumerate() {
            builder.set_item_domain(ItemId(item as u32), d);
        }
        (
            builder.build().expect("non-empty by construction"), // lint: panic — reviewed invariant
            partition,
        )
    }
}

/// The result of the Table 2 genre partition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GenrePartition {
    /// Genre indices allocated to sub-domain D1 (even positions of the sorted order).
    pub d1_genres: Vec<usize>,
    /// Genre indices allocated to sub-domain D2 (odd positions of the sorted order).
    pub d2_genres: Vec<usize>,
    /// Sub-domain of every item (D1 = [`DomainId::SOURCE`], D2 = [`DomainId::TARGET`]).
    pub item_domain: Vec<DomainId>,
}

impl GenrePartition {
    /// Computes the partition from per-item genre lists, following §6.5:
    /// 1. sort genres by movie count (descending),
    /// 2. allocate alternately to D1 and D2,
    /// 3. assign each movie to the sub-domain with the larger genre overlap; ties go to D1.
    pub fn compute(item_genres: &[Vec<usize>]) -> Self {
        // Movie count per genre within *this* dataset.
        let n_genres = MOVIELENS_GENRES.len();
        let mut counts = vec![0usize; n_genres];
        for genres in item_genres {
            for &g in genres {
                counts[g] += 1;
            }
        }
        let mut order: Vec<usize> = (0..n_genres).collect();
        order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));

        let mut d1_genres = Vec::new();
        let mut d2_genres = Vec::new();
        for (pos, &g) in order.iter().enumerate() {
            if pos % 2 == 0 {
                d1_genres.push(g);
            } else {
                d2_genres.push(g);
            }
        }

        let item_domain = item_genres
            .iter()
            .map(|genres| {
                let overlap_d1 = genres.iter().filter(|g| d1_genres.contains(g)).count();
                let overlap_d2 = genres.iter().filter(|g| d2_genres.contains(g)).count();
                if overlap_d1 >= overlap_d2 {
                    DomainId::SOURCE
                } else {
                    DomainId::TARGET
                }
            })
            .collect();

        GenrePartition {
            d1_genres,
            d2_genres,
            item_domain,
        }
    }

    /// Number of items assigned to each sub-domain: `(D1, D2)`.
    pub fn domain_sizes(&self) -> (usize, usize) {
        let d1 = self
            .item_domain
            .iter()
            .filter(|&&d| d == DomainId::SOURCE)
            .count();
        (d1, self.item_domain.len() - d1)
    }

    /// Table-2-style rows: `(genre name, movie count, sub-domain label)` sorted by count
    /// within each sub-domain.
    pub fn table_rows(&self, item_genres: &[Vec<usize>]) -> Vec<(String, usize, &'static str)> {
        let n_genres = MOVIELENS_GENRES.len();
        let mut counts = vec![0usize; n_genres];
        for genres in item_genres {
            for &g in genres {
                counts[g] += 1;
            }
        }
        let mut rows = Vec::new();
        for (&genres, label) in [(&self.d1_genres, "D1"), (&self.d2_genres, "D2")]
            .iter()
            .map(|(g, l)| (g, *l))
        {
            for &g in genres {
                rows.push((MOVIELENS_GENRES[g].0.to_string(), counts[g], label));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_shape_and_scale() {
        let cfg = GenreDatasetConfig {
            n_items: 60,
            n_users: 40,
            ratings_per_user: 10,
            ..Default::default()
        };
        let ds = GenreTaggedDataset::generate(cfg);
        assert_eq!(ds.matrix.n_items(), 60);
        assert_eq!(ds.matrix.n_users(), 40);
        assert_eq!(ds.item_genres.len(), 60);
        for genres in &ds.item_genres {
            assert!(!genres.is_empty() && genres.len() <= cfg.max_genres_per_item);
        }
        for r in ds.matrix.iter() {
            assert!((1.0..=5.0).contains(&r.value));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenreDatasetConfig::default();
        let a = GenreTaggedDataset::generate(cfg);
        let b = GenreTaggedDataset::generate(cfg);
        assert_eq!(a.item_genres, b.item_genres);
        assert_eq!(a.matrix.n_ratings(), b.matrix.n_ratings());
    }

    #[test]
    fn partition_alternates_genres_by_count() {
        let ds = GenreTaggedDataset::generate(GenreDatasetConfig::default());
        let partition = GenrePartition::compute(&ds.item_genres);
        // D1 gets the most frequent genre of this dataset, D2 the second, etc.
        let mut counts = vec![0usize; MOVIELENS_GENRES.len()];
        for genres in &ds.item_genres {
            for &g in genres {
                counts[g] += 1;
            }
        }
        let top_genre = (0..counts.len())
            .max_by_key(|&g| (counts[g], usize::MAX - g))
            .unwrap();
        assert!(partition.d1_genres.contains(&top_genre));
        // the two genre sets are disjoint and together cover all genres
        for g in &partition.d1_genres {
            assert!(!partition.d2_genres.contains(g));
        }
        assert_eq!(
            partition.d1_genres.len() + partition.d2_genres.len(),
            MOVIELENS_GENRES.len()
        );
    }

    #[test]
    fn every_item_lands_in_the_subdomain_with_larger_genre_overlap() {
        let ds = GenreTaggedDataset::generate(GenreDatasetConfig::default());
        let partition = GenrePartition::compute(&ds.item_genres);
        for (item, genres) in ds.item_genres.iter().enumerate() {
            let o1 = genres
                .iter()
                .filter(|g| partition.d1_genres.contains(g))
                .count();
            let o2 = genres
                .iter()
                .filter(|g| partition.d2_genres.contains(g))
                .count();
            match partition.item_domain[item] {
                DomainId::SOURCE => assert!(o1 >= o2),
                DomainId::TARGET => assert!(o2 > o1),
                other => panic!("unexpected domain {other}"),
            }
        }
    }

    #[test]
    fn partitioned_matrix_carries_subdomain_ids() {
        let ds = GenreTaggedDataset::generate(GenreDatasetConfig {
            n_items: 80,
            ..Default::default()
        });
        let (matrix, partition) = ds.partition();
        let (d1, d2) = partition.domain_sizes();
        assert_eq!(d1 + d2, 80);
        assert!(
            d1 > 0 && d2 > 0,
            "both sub-domains should be populated (got {d1}/{d2})"
        );
        assert_eq!(matrix.items_in_domain(DomainId::SOURCE).len(), d1);
        assert_eq!(matrix.items_in_domain(DomainId::TARGET).len(), d2);
        assert_eq!(matrix.n_ratings(), ds.matrix.n_ratings());
    }

    #[test]
    fn table_rows_cover_all_genres_once() {
        let ds = GenreTaggedDataset::generate(GenreDatasetConfig::default());
        let partition = GenrePartition::compute(&ds.item_genres);
        let rows = partition.table_rows(&ds.item_genres);
        assert_eq!(rows.len(), MOVIELENS_GENRES.len());
        let d1_rows = rows.iter().filter(|(_, _, l)| *l == "D1").count();
        let d2_rows = rows.iter().filter(|(_, _, l)| *l == "D2").count();
        assert_eq!(d1_rows, partition.d1_genres.len());
        assert_eq!(d2_rows, partition.d2_genres.len());
    }
}
