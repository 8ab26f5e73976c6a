//! Shared dataset builders for the experiment harness.
//!
//! The paper evaluates on the Amazon movies+books trace and on MovieLens ML-20M; the
//! harness substitutes the synthetic generators of `xmap-dataset` (see DESIGN.md). Two
//! scales are provided: [`Scale::Quick`] keeps every experiment in the seconds range so
//! `cargo run -p xmap-bench --bin figures -- all` is practical on a laptop/CI box, and
//! [`Scale::Full`] enlarges the traces for more stable numbers.

use xmap_dataset::genres::{GenreDatasetConfig, GenreTaggedDataset};
use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};

/// The size of the synthetic workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small traces; every experiment finishes in seconds.
    Quick,
    /// Larger traces; closer to the density of the paper's data, minutes per experiment.
    Full,
}

impl Scale {
    /// Resolves the optional scale argument of the harness binaries: absent means
    /// [`Scale::Quick`]; anything but `quick` / `full` is an error naming both, so a
    /// typo cannot silently run the wrong workload.
    pub fn from_arg(arg: Option<&str>) -> Result<Scale, String> {
        match arg {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "unknown scale `{other}`; expected `quick` or `full`"
            )),
        }
    }
}

/// The Amazon-movies+books stand-in: a two-domain cross-domain trace with overlapping
/// (straddler) users.
pub fn amazon_like(scale: Scale) -> CrossDomainDataset {
    // The overlap is kept small relative to the within-domain population (≈8% of users
    // are straddlers, as in the real Amazon trace where 78K of ~1.1M users overlap):
    // this is the regime in which heterogeneous recommendation is both needed and
    // possible, and in which the paper's accuracy ordering emerges.
    let config = match scale {
        Scale::Quick => CrossDomainConfig {
            n_source_items: 100,
            n_target_items: 120,
            n_source_only_users: 120,
            n_target_only_users: 120,
            n_overlap_users: 20,
            ratings_per_user: 20,
            latent_dim: 3,
            noise: 0.25,
            seed: 7,
            popularity_skew: 0.0,
        },
        Scale::Full => CrossDomainConfig {
            n_source_items: 300,
            n_target_items: 400,
            n_source_only_users: 400,
            n_target_only_users: 400,
            n_overlap_users: 60,
            ratings_per_user: 30,
            latent_dim: 4,
            noise: 0.25,
            seed: 7,
            popularity_skew: 0.0,
        },
    };
    CrossDomainDataset::generate(config)
}

/// A very small cross-domain trace used by unit tests of the harness itself.
pub fn amazon_like_small() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig::small())
}

/// A *sparse-overlap* variant of the Amazon stand-in used by the Figure 1(b) counting
/// experiment: the real Amazon trace has a density around 10⁻⁵, so most items are not
/// co-rated across domains and the meta-path extension is what creates heterogeneous
/// similarities. The accuracy experiments use the denser [`amazon_like`] trace instead,
/// where every split still contains enough hidden ratings to measure MAE stably.
pub fn amazon_like_sparse(scale: Scale) -> CrossDomainDataset {
    let config = match scale {
        Scale::Quick => CrossDomainConfig {
            n_source_items: 150,
            n_target_items: 180,
            n_source_only_users: 80,
            n_target_only_users: 80,
            n_overlap_users: 12,
            ratings_per_user: 7,
            latent_dim: 4,
            noise: 0.35,
            seed: 17,
            popularity_skew: 0.0,
        },
        Scale::Full => CrossDomainConfig {
            n_source_items: 600,
            n_target_items: 800,
            n_source_only_users: 400,
            n_target_only_users: 400,
            n_overlap_users: 40,
            ratings_per_user: 10,
            latent_dim: 6,
            noise: 0.35,
            seed: 17,
            popularity_skew: 0.0,
        },
    };
    CrossDomainDataset::generate(config)
}

/// The MovieLens ML-20M stand-in: a genre-tagged single-domain trace.
pub fn movielens_like(scale: Scale) -> GenreTaggedDataset {
    let config = match scale {
        Scale::Quick => GenreDatasetConfig {
            n_items: 150,
            n_users: 100,
            ratings_per_user: 20,
            max_genres_per_item: 3,
            noise: 0.35,
            seed: 21,
        },
        Scale::Full => GenreDatasetConfig {
            n_items: 600,
            n_users: 400,
            ratings_per_user: 40,
            max_genres_per_item: 3,
            noise: 0.35,
            seed: 21,
        },
    };
    GenreTaggedDataset::generate(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::from_arg(None), Ok(Scale::Quick));
        assert_eq!(Scale::from_arg(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::from_arg(Some("full")), Ok(Scale::Full));
        let typo = Scale::from_arg(Some("ful")).expect_err("a typo must not fall back to quick");
        assert!(typo.contains("`ful`") && typo.contains("`quick` or `full`"));
    }

    #[test]
    fn builders_produce_overlap_and_genres() {
        let amazon = amazon_like(Scale::Quick);
        assert!(!amazon.overlap_users.is_empty());
        assert!(amazon.matrix.n_ratings() > 1000);
        let ml = movielens_like(Scale::Quick);
        assert_eq!(ml.item_genres.len(), 150);
        let small = amazon_like_small();
        assert!(small.matrix.n_ratings() > 100);
    }
}
