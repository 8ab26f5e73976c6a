//! The fit determinism gate: a full `XMapModel::fit` must produce **bit-identical**
//! models at 1, 2 and 8 workers in all four modes — graph bits, replacement table and
//! predictions on a probe set — with identical per-stage fit task bags
//! (`baseliner` / `generator` / `recommender` ledgers, plus the extender's).
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

/// What the gate compares across worker counts: everything the model released plus
/// the four task bags of the fit.
#[derive(Debug, PartialEq)]
struct ModelFingerprint {
    released: ReleasedBits,
    baseliner_costs: Vec<f64>,
    generator_costs: Vec<f64>,
    recommender_costs: Vec<f64>,
    extension_costs: Vec<f64>,
}

fn fingerprint(
    model: &XMapModel,
    probe_users: &[UserId],
    probe_items: &[ItemId],
) -> ModelFingerprint {
    let stats = model.stats();
    ModelFingerprint {
        released: released_bits(model, probe_users, probe_items),
        baseliner_costs: stats.baseliner_task_costs,
        generator_costs: stats.generator_task_costs,
        recommender_costs: stats.recommender_task_costs,
        extension_costs: stats.extension_task_costs,
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
            assert!(
                !fp.baseliner_costs.is_empty() && !fp.generator_costs.is_empty(),
                "{mode:?}: baseliner and generator must record their task bags"
            );
            assert_eq!(
                fp.recommender_costs.is_empty(),
                !mode.is_item_based(),
                "{mode:?}: only the item-based modes have a fit-time kNN task bag"
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
