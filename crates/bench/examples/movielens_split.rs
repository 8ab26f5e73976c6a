//! Homogeneous setting (§6.5, Table 2 / Table 3): partition a genre-tagged single-domain
//! trace into two sub-domains by genre, then run X-Map across the sub-domains and compare
//! it with a from-scratch ALS matrix-factorisation recommender.
//!
//! ```text
//! cargo run --release -p xmap-bench --example movielens_split
//! ```

use xmap_bench::als::{AlsConfig, AlsModel};
use xmap_bench::genres::{GenreDatasetConfig, GenreTaggedDataset, MOVIELENS_GENRES};
use xmap_cf::{DomainId, Rating};
use xmap_core::{XMapConfig, XMapMode, XMapModel};
use xmap_dataset::split::random_holdout;
use xmap_eval::evaluate_predictions;

fn main() {
    // 1. Generate the MovieLens-like genre-tagged trace and partition it into two
    //    sub-domains following the paper's Table 2 procedure.
    let dataset = GenreTaggedDataset::generate(GenreDatasetConfig::default());
    let (matrix, partition) = dataset.partition();
    let (d1, d2) = partition.domain_sizes();
    println!("genre partition: D1 = {d1} movies, D2 = {d2} movies");
    println!(
        "D1 genres (by count): {}",
        genre_names(&partition.d1_genres)
    );
    println!(
        "D2 genres (by count): {}",
        genre_names(&partition.d2_genres)
    );

    // 2. Hide 20% of the ratings; keep only the hidden D2 ratings as the test set.
    let (train, test_all) = random_holdout(&matrix, 0.2, 11);
    let test: Vec<Rating> = test_all
        .into_iter()
        .filter(|r| matrix.item_domain(r.item) == DomainId::TARGET)
        .collect();
    println!("\npredicting {} hidden D2 ratings\n", test.len());

    // 3. NX-Map and X-Map across the two sub-domains.
    for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
        let model = XMapModel::fit(
            &train,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                mode,
                k: 20,
                ..XMapConfig::default()
            },
        )
        .expect("both sub-domains are populated");
        let outcome = evaluate_predictions(&test, |u, i| model.predict(u, i));
        println!("{:<12} MAE {:.4}", model.label(), outcome.mae);
    }

    // 4. The ALS baseline (standing in for Spark MLlib-ALS) over the aggregated ratings.
    let als = AlsModel::train(
        &train,
        AlsConfig {
            factors: 8,
            iterations: 10,
            ..AlsConfig::default()
        },
    )
    .expect("training matrix is non-empty");
    let outcome = evaluate_predictions(&test, |u, i| als.predict(u, i));
    println!("{:<12} MAE {:.4}", "MLlib-ALS", outcome.mae);
}

fn genre_names(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&g| MOVIELENS_GENRES[g].0)
        .collect::<Vec<_>>()
        .join(", ")
}
