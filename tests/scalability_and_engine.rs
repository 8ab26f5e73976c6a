//! Integration tests of the scalability path: the pipeline's per-stage accounting, the
//! worker-pool parallelism, and the cluster simulator that reproduces Figure 11.

use xmap_suite::core::FIT_STAGE_NAMES;
use xmap_suite::engine::{ClusterCostModel, ClusterSim, WorkerPool};
use xmap_suite::prelude::*;

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig {
        n_source_items: 60,
        n_target_items: 60,
        n_source_only_users: 40,
        n_target_only_users: 40,
        n_overlap_users: 30,
        ratings_per_user: 10,
        latent_dim: 4,
        noise: 0.3,
        seed: 19,
        popularity_skew: 0.0,
    })
}

#[test]
fn worker_count_does_not_change_model_outputs() {
    let ds = dataset();
    let fit = |workers: usize| {
        XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                k: 15,
                workers,
                ..XMapConfig::default()
            },
        )
        .unwrap()
    };
    let serial = fit(1);
    let parallel = fit(4);
    assert_eq!(
        serial.xsim().n_heterogeneous_pairs(),
        parallel.xsim().n_heterogeneous_pairs()
    );
    // The Dataflow's task costs are data-derived, so every fit stage's task bag is
    // identical no matter how many workers executed it.
    let bags = |model: &XMapModel| -> Vec<Vec<f64>> {
        model.ledger().into_iter().map(|r| r.costs).collect()
    };
    assert_eq!(bags(&serial), bags(&parallel));
    let user = ds.source_only_users[0];
    for item in ds.target_items().into_iter().take(20) {
        assert_eq!(serial.predict(user, item), parallel.predict(user, item));
    }
}

#[test]
fn pipeline_stage_accounting_covers_all_four_components() {
    let ds = dataset();
    let cfg = XMapConfig {
        k: 15,
        ..XMapConfig::default()
    };
    let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
    let ledger = model.ledger();
    let names: Vec<&str> = ledger.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, FIT_STAGE_NAMES);
    // The Dataflow runner records one task cost per dataflow partition; every source
    // item contributes at least 1.0 to its partition's cost.
    let extension = &ledger[1].costs;
    assert_eq!(
        extension.len(),
        cfg.partitions,
        "one extension task per dataflow partition"
    );
    assert!(extension.iter().all(|&c| c >= 0.0));
    assert!(
        extension.iter().sum::<f64>() >= ds.source_items().len() as f64,
        "costs must cover every source item"
    );
}

#[test]
fn figure_11_shape_xmap_scales_nearly_linearly_and_beats_als() {
    let ds = dataset();
    // Spark-style sizing: comfortably more partitions than the largest simulated
    // cluster, so the LPT schedule stays balanced across the whole 4–20 machine sweep.
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        XMapConfig {
            k: 15,
            partitions: 128,
            ..XMapConfig::default()
        },
    )
    .unwrap();
    let extension = model.ledger().swap_remove(1);
    assert_eq!(extension.name, "extender");
    let xmap = ClusterSim::new(extension.costs, ClusterCostModel::xmap_like());
    let als_costs: Vec<f64> = ds
        .matrix
        .users()
        .map(|u| 1.0 + ds.matrix.user_degree(u) as f64)
        .collect();
    let als = ClusterSim::new(als_costs, ClusterCostModel::als_like());

    let machines: Vec<usize> = (4..=20).collect();
    let xmap_curve = xmap.speedup_curve(&machines, 5);
    let als_curve = als.speedup_curve(&machines, 5);

    // speedup is monotonically non-decreasing in machines for X-Map
    for w in xmap_curve.windows(2) {
        assert!(w[1].speedup >= w[0].speedup - 1e-9);
    }
    // X-Map dominates ALS at every machine count beyond the baseline
    for (x, a) in xmap_curve.iter().zip(&als_curve) {
        if x.machines > 5 {
            assert!(
                x.speedup >= a.speedup,
                "X-Map should out-scale ALS at {} machines: {} vs {}",
                x.machines,
                x.speedup,
                a.speedup
            );
        }
    }
    // near-linear: at 20 machines (4x the baseline resources) X-Map achieves a large
    // fraction of the ideal 4x speedup, ALS noticeably less
    let x20 = xmap_curve.last().unwrap().speedup;
    let a20 = als_curve.last().unwrap().speedup;
    assert!(x20 > 2.0, "X-Map speedup at 20 machines too low: {x20}");
    assert!(x20 <= 4.0 + 1e-9);
    assert!(a20 < x20);
}

#[test]
fn worker_pool_parallel_map_is_exact_over_pipeline_sized_workloads() {
    let pool = WorkerPool::new(4);
    let items: Vec<u64> = (0..5_000).collect();
    let out = pool.parallel_map(&items, |x| x * x % 97);
    let expect: Vec<u64> = items.iter().map(|x| x * x % 97).collect();
    assert_eq!(out, expect);
}
