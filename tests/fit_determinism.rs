//! The fit determinism gate: a full `XMapModel::fit` must produce **bit-identical**
//! models at 1, 2 and 8 workers in all four modes — graph bits, replacement table and
//! predictions on a probe set — with identical per-stage fit task bags (the
//! `baseliner` / `extender` / `generator` / `recommender` entries of the ledger).
//!
//! This mirrors the evaluation gate (`evaluate_batch_is_bit_identical_...`): the fit
//! stages partition by data-derived keys and the private RNG streams derive from
//! `(seed, item)`, so the worker count must never leak into a released model.
//!
//! Graph bits are covered twice: arena-level (a fitted epoch's graph vs
//! `SimilarityGraph::build_serial`, asserted with ledgers in
//! `xmap_core::pipeline::tests::staged_baseliner_is_bit_identical_to_build_serial_at_1_2_and_8_workers`;
//! `a_fitted_epoch_equals_the_serial_reference_of_every_step_in_all_four_modes` beside
//! it does the same for the X-Sim table, the replacements and the pools) and
//! model-level here, through the released predictions and replacement table that
//! depend on every edge of the graph.

mod common;

use common::{released_bits, ReleasedBits};
use xmap_suite::prelude::*;

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig::small())
}

const GATE_WORKERS: [usize; 3] = [1, 2, 8];

/// What the gate compares across worker counts: everything the model released, its
/// X-Sim pair count, and the four task bags of the fit — the ledger's entries, by name
/// in pipeline order.
#[derive(Debug, PartialEq)]
struct ModelFingerprint {
    released: ReleasedBits,
    xsim_pairs: usize,
    fit_bags: Vec<(String, Vec<f64>)>,
}

fn fingerprint(
    model: &XMapModel,
    probe_users: &[UserId],
    probe_items: &[ItemId],
) -> ModelFingerprint {
    ModelFingerprint {
        released: released_bits(model, probe_users, probe_items),
        xsim_pairs: model.xsim().n_heterogeneous_pairs(),
        fit_bags: model
            .ledger()
            .into_iter()
            .map(|r| (r.name, r.costs))
            .collect(),
    }
}

#[test]
fn fit_is_bit_identical_at_1_2_and_8_workers_in_all_four_modes() {
    let ds = dataset();
    let probe_users: Vec<UserId> = ds
        .overlap_users
        .iter()
        .copied()
        .take(6)
        .chain(ds.source_only_users.iter().copied().take(4))
        .collect();
    let probe_items: Vec<ItemId> = ds.target_items().into_iter().take(15).collect();
    for mode in [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ] {
        let mut reference: Option<ModelFingerprint> = None;
        for workers in GATE_WORKERS {
            let model = XMapModel::fit(
                &ds.matrix,
                DomainId::SOURCE,
                DomainId::TARGET,
                XMapConfig {
                    mode,
                    k: 8,
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
            let fp = fingerprint(&model, &probe_users, &probe_items);
            assert!(
                !fp.released.replacements.is_empty(),
                "{mode:?}: the fit must map at least one item"
            );
            let bags: Vec<(&str, bool)> = fp
                .fit_bags
                .iter()
                .map(|(name, costs)| (name.as_str(), !costs.is_empty()))
                .collect();
            assert_eq!(
                bags,
                [
                    ("baseliner", true),
                    ("extender", true),
                    ("generator", true),
                    ("recommender", mode.is_item_based()),
                ],
                "{mode:?}: every fit stage but the user-based recommender records a task bag"
            );
            match &reference {
                None => reference = Some(fp),
                Some(expected) => assert_eq!(
                    &fp, expected,
                    "{mode:?} at {workers} workers released different bits than 1 worker"
                ),
            }
        }
    }
}

/// X-Map-ib's release draw runs on a worker pool in three places — the fit's
/// recommender step, every shard cut, and a reopened snapshot — and the worker count
/// must not reach a released list in any of them: the fits at 1, 2 and 8 workers
/// release equal bits over the whole target catalogue, `with_hot_replication(_, 4, 3)`
/// over each holds `==` slices and routes to the single-node answers, and each model
/// reopened from its own snapshot (so on its own worker count) releases what the
/// 1-worker fit did.
#[test]
fn private_item_based_release_is_the_same_on_any_pool_at_fit_cut_and_open() {
    use xmap_suite::core::{ShardSlice, ShardedModel};
    let ds = dataset();
    let users: Vec<UserId> = ds.overlap_users.iter().copied().take(8).collect();
    let items = ds.target_items();
    let mut reference: Option<(ReleasedBits, Vec<std::sync::Arc<ShardSlice>>)> = None;
    for workers in GATE_WORKERS {
        let config = XMapConfig {
            mode: XMapMode::XMapItemBased,
            k: 8,
            workers,
            ..Default::default()
        };
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
        let fitted = released_bits(&model, &users, &items);

        let dir = std::env::temp_dir().join(format!(
            "xmap_fit_determinism_{}_{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        model.persist(&dir).unwrap();
        let reopened = XMapModel::open(&dir).unwrap();
        assert_eq!(reopened.config().workers, workers);
        let reopened = released_bits(&reopened, &users, &items);
        std::fs::remove_dir_all(&dir).unwrap();

        let sharded = ShardedModel::with_hot_replication(model, 4, 3).unwrap();
        let slices: Vec<_> = (0..4)
            .map(|s| sharded.slice(s, s as u32).expect("owner hosts its shard").1)
            .collect();
        for (&u, single_node) in users.iter().zip(&fitted.recommendations) {
            let routed = sharded.recommend(u, 5).unwrap().into_iter();
            let routed: Vec<(ItemId, u64)> = routed.map(|(i, s)| (i, s.to_bits())).collect();
            assert_eq!(
                &routed, single_node,
                "{workers} workers: routed top-5 of {u:?}"
            );
        }

        match &reference {
            None => reference = Some((fitted.clone(), slices)),
            Some((bits, cut)) => {
                assert_eq!(&fitted, bits, "fit at {workers} workers");
                assert_eq!(&slices, cut, "shard cut at {workers} workers");
            }
        }
        let (bits, _) = reference.as_ref().unwrap();
        assert_eq!(&reopened, bits, "reopened at {workers} workers");
    }
}
