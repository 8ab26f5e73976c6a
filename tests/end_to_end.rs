//! Cross-crate integration tests: the full X-Map pipeline driven through the public API,
//! exercising dataset generation, splitting, all four recommender variants and the
//! competitor baselines together — the same path the examples and the `figures` harness
//! use.

use xmap_bench::baselines::{ItemAverage, RemoteUser};
use xmap_suite::prelude::*;

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig {
        n_source_items: 60,
        n_target_items: 80,
        n_source_only_users: 40,
        n_target_only_users: 40,
        n_overlap_users: 35,
        ratings_per_user: 12,
        latent_dim: 4,
        noise: 0.3,
        seed: 3,
        popularity_skew: 0.0,
    })
}

fn cold_start_split(ds: &CrossDomainDataset) -> CrossDomainSplit {
    CrossDomainSplit::build(ds, DomainId::TARGET, SplitConfig::default())
}

#[test]
fn cold_start_pipeline_beats_item_average_and_produces_valid_output() {
    let ds = dataset();
    let split = cold_start_split(&ds);
    assert!(!split.test.is_empty());

    let model = XMapModel::fit(
        &split.train,
        DomainId::SOURCE,
        DomainId::TARGET,
        XMapConfig {
            mode: XMapMode::NxMapItemBased,
            k: 50,
            ..XMapConfig::default()
        },
    )
    .unwrap();

    let xmap = evaluate_predictions(&split.test, |u, i| model.predict(u, i));
    let baseline = ItemAverage::new(&split.train);
    let item_avg = evaluate_predictions(&split.test, |u, i| baseline.predict(u, i));

    assert!(xmap.mae.is_finite());
    assert!(
        xmap.mae > 0.0 && xmap.mae < 4.0,
        "MAE must stay within the rating span"
    );
    assert!(
        xmap.mae <= item_avg.mae + 0.05,
        "NX-Map ({:.3}) should be at least competitive with ItemAverage ({:.3})",
        xmap.mae,
        item_avg.mae
    );

    // every recommendation for a cold-start user is a target-domain item they never rated
    for &user in split.test_users.iter().take(5) {
        for (item, score) in model.recommend(user, 5) {
            assert_eq!(split.train.item_domain(item), DomainId::TARGET);
            assert_eq!(ds.matrix.item_domain(item), DomainId::TARGET);
            assert!((1.0..=5.0).contains(&score));
            assert_eq!(split.train.rating(user, item), None);
        }
    }
}

#[test]
fn all_four_variants_and_remoteuser_are_evaluated_on_the_same_split() {
    let ds = dataset();
    let split = cold_start_split(&ds);
    let mut results = Vec::new();
    for mode in [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ] {
        let model = XMapModel::fit(
            &split.train,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                mode,
                k: 50,
                ..XMapConfig::default()
            },
        )
        .unwrap();
        let outcome = evaluate_predictions(&split.test, |u, i| model.predict(u, i));
        assert!(
            outcome.mae.is_finite(),
            "{mode:?} produced a non-finite MAE"
        );
        results.push((mode.label(), outcome.mae));
    }
    let remote = RemoteUser::new(&split.train, DomainId::SOURCE, 50).unwrap();
    let remote_mae = evaluate_predictions(&split.test, |u, i| remote.predict(u, i)).mae;
    results.push(("RemoteUser", remote_mae));

    // the non-private item-based variant should be the best or near-best of the group
    let nx_ib = results.iter().find(|(l, _)| *l == "NX-MAP-IB").unwrap().1;
    let best = results
        .iter()
        .map(|(_, m)| *m)
        .fold(f64::INFINITY, f64::min);
    assert!(
        nx_ib <= best + 0.1,
        "NX-Map-ib should be within 0.1 MAE of the best system: {results:?}"
    );
}

#[test]
fn alterego_profiles_live_entirely_in_the_target_domain() {
    let ds = dataset();
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        XMapConfig {
            k: 50,
            ..XMapConfig::default()
        },
    )
    .unwrap();
    for &user in ds.source_only_users.iter().take(10) {
        let alter = model.alterego(user);
        assert!(
            !alter.is_empty(),
            "user {user} should receive a non-empty AlterEgo"
        );
        for &(item, value, _) in &alter.profile {
            assert_eq!(ds.matrix.item_domain(item), DomainId::TARGET);
            assert!((1.0..=5.0).contains(&value));
        }
        // a source-only user's AlterEgo is fully mapped (no genuine target ratings)
        assert_eq!(alter.n_mapped, alter.profile.len());
    }
}

#[test]
fn increasing_the_privacy_budget_recovers_non_private_quality() {
    let ds = dataset();
    let split = cold_start_split(&ds);
    let mae_for = |eps: f64, eps_prime: f64| {
        let model = XMapModel::fit(
            &split.train,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                mode: XMapMode::XMapItemBased,
                k: 50,
                privacy: PrivacyConfig {
                    epsilon: eps,
                    epsilon_prime: eps_prime,
                    rho: 0.05,
                },
                ..XMapConfig::default()
            },
        )
        .unwrap();
        evaluate_predictions(&split.test, |u, i| model.predict(u, i)).mae
    };
    let non_private = {
        let model = XMapModel::fit(
            &split.train,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                mode: XMapMode::NxMapItemBased,
                k: 50,
                ..XMapConfig::default()
            },
        )
        .unwrap();
        evaluate_predictions(&split.test, |u, i| model.predict(u, i)).mae
    };
    let strict = mae_for(0.05, 0.05);
    let loose = mae_for(50.0, 50.0);
    // a huge budget should be close to the non-private quality; a tiny budget should not
    // be meaningfully better than it
    assert!(
        (loose - non_private).abs() < 0.25,
        "ε→∞ should approach NX-Map: {loose:.3} vs {non_private:.3}"
    );
    assert!(
        strict >= non_private - 0.05,
        "ε→0 should not beat the non-private model: {strict:.3} vs {non_private:.3}"
    );
}

#[test]
fn csv_round_trip_feeds_the_pipeline() {
    // export the synthetic trace to CSV, re-import it, and fit the pipeline on the
    // re-imported matrix — the external-data path documented in the README.
    let ds = dataset();
    let mut buffer = Vec::new();
    xmap_suite::dataset::io::write_ratings_csv(&ds.matrix, &mut buffer).unwrap();
    let restored = xmap_suite::dataset::io::read_ratings_csv(buffer.as_slice()).unwrap();
    assert_eq!(restored.n_ratings(), ds.matrix.n_ratings());
    let model = XMapModel::fit(
        &restored,
        DomainId::SOURCE,
        DomainId::TARGET,
        XMapConfig {
            k: 10,
            ..XMapConfig::default()
        },
    )
    .unwrap();
    let user = ds.overlap_users[0];
    let recs = model.recommend(user, 3);
    assert!(!recs.is_empty());
}

#[test]
fn toy_scenario_reproduces_the_papers_motivating_example() {
    use xmap_suite::dataset::toy::{items, users};
    let toy = ToyScenario::build();
    let model = XMapModel::fit(
        &toy.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        XMapConfig {
            k: 2,
            ..XMapConfig::default()
        },
    )
    .unwrap();
    // Interstellar reaches The Forever War only through meta-paths.
    assert!(model
        .xsim()
        .candidates(items::INTERSTELLAR)
        .iter()
        .any(|e| e.item == items::THE_FOREVER_WAR));
    // Alice (movies only) receives book recommendations.
    let recs = model.recommend(users::ALICE, 3);
    assert!(!recs.is_empty());
    for (item, _) in recs {
        assert_eq!(toy.matrix.item_domain(item), DomainId::TARGET);
    }
}
