//! The incremental-equivalence gate: `XMapModel::apply_delta` — a fold of the delta
//! into the matrix and one build over it — must release exactly the model a full
//! `XMapModel::fit` on the updated matrix releases, **bit-identical** in every artifact
//! `common::released_bits` reads, in all four modes at 1, 2 and 8 workers; and its
//! `"delta"` ledger must be the refit's four task bags concatenated. The layer-local
//! contracts are `RatingMatrix::apply_delta` ≡ the full rebuild (an xmap-cf property
//! test) and the delta edge cases in `xmap_core::delta`.

mod common;

use common::released_bits;
use xmap_suite::core::{ShardedModel, DELTA_STAGE_NAME, FIT_STAGE_NAMES};
use xmap_suite::graph::{GraphConfig, SimilarityGraph};
use xmap_suite::prelude::*;

const GATE_WORKERS: [usize; 3] = [1, 2, 8];

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig::small())
}

fn config(mode: XMapMode, workers: usize) -> XMapConfig {
    XMapConfig {
        mode,
        k: 8,
        workers,
        ..Default::default()
    }
}

/// The task bag of a ledger entry; empty when the stage never ran or recorded none.
fn stage_costs(model: &XMapModel, stage: &str) -> Vec<f64> {
    let entry = model.ledger().into_iter().find(|r| r.name == stage);
    entry.map(|r| r.costs).unwrap_or_default()
}

/// A delta exercising every edge shape at once: an update of an existing cell, a new
/// cell for an existing user, a brand-new user straddling both domains, and a
/// brand-new target item rated by old and new users.
fn gate_delta(ds: &CrossDomainDataset) -> RatingDelta {
    let new_user = ds.matrix.n_users() as u32;
    let new_item = ds.matrix.n_items() as u32;
    let source_item = ds.source_items()[0];
    let target_item = ds.target_items()[0];
    let updating_user = ds.overlap_users[0];
    let mut delta = RatingDelta::new();
    delta
        .declare_item(ItemId(new_item), DomainId::TARGET)
        .push_timed(updating_user.0, target_item.0, 1.0, 200)
        .push_timed(ds.overlap_users[1].0, source_item.0, 5.0, 201)
        .push_timed(new_user, source_item.0, 4.0, 202)
        .push_timed(new_user, target_item.0, 2.0, 203)
        .push_timed(new_user, new_item, 5.0, 204)
        .push_timed(updating_user.0, new_item, 3.0, 205);
    delta
}

#[test]
fn delta_fit_equals_full_refit_in_all_four_modes_at_1_2_and_8_workers() {
    let ds = dataset();
    let delta = gate_delta(&ds);
    let updated = ds
        .matrix
        .apply_delta(delta.ratings(), delta.item_domains())
        .unwrap();
    let new_user = UserId(ds.matrix.n_users() as u32);
    let probe_users: Vec<UserId> = ds
        .overlap_users
        .iter()
        .copied()
        .take(5)
        .chain(ds.source_only_users.iter().copied().take(3))
        .chain([new_user])
        .collect();
    let probe_items: Vec<ItemId> = updated
        .items_in_domain(DomainId::TARGET)
        .into_iter()
        .take(12)
        .collect();

    for mode in [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ] {
        let mut reference_costs: Option<Vec<f64>> = None;
        for workers in GATE_WORKERS {
            let incremental = XMapModel::fit(
                &ds.matrix,
                DomainId::SOURCE,
                DomainId::TARGET,
                config(mode, workers),
            )
            .unwrap();
            let report = incremental.apply_delta(&delta).unwrap();
            assert_eq!(report.n_delta_ratings, 6, "{mode:?}");
            assert!(report.n_rescored_pairs > 0, "{mode:?}");
            let refit = XMapModel::fit(
                &updated,
                DomainId::SOURCE,
                DomainId::TARGET,
                config(mode, workers),
            )
            .unwrap();

            // the internal artifacts (matrix, graph arena, X-Sim table) and the released
            // surface, bit for bit
            let inc_bits = released_bits(&incremental, &probe_users, &probe_items);
            let ref_bits = released_bits(&refit, &probe_users, &probe_items);
            assert_eq!(
                inc_bits, ref_bits,
                "{mode:?}/{workers}w: released bits diverged"
            );

            // the delta ledger is data-derived: identical at every worker count
            let costs = stage_costs(&incremental, DELTA_STAGE_NAME);
            assert!(!costs.is_empty(), "apply_delta records its task bag");
            assert!(costs.iter().all(|&c| c.is_finite() && c >= 0.0));
            match &reference_costs {
                None => reference_costs = Some(costs),
                Some(expected) => {
                    assert_eq!(
                        &costs, expected,
                        "{mode:?}: {workers} workers changed the delta ledger"
                    );
                }
            }
        }
    }
}

#[test]
fn sequential_deltas_compose_to_the_same_model_as_one_refit() {
    // Two consecutive batches must land on the same bits as a single refit on the
    // final matrix: the second folds into the matrix the first published.
    let ds = dataset();
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        config(XMapMode::NxMapItemBased, 2),
    )
    .unwrap();
    let first = gate_delta(&ds);
    model.apply_delta(&first).unwrap();
    let mut second = RatingDelta::new();
    second
        .push_timed(ds.overlap_users[2].0, ds.target_items()[1].0, 4.0, 300)
        .push_timed(ds.overlap_users[0].0, ds.target_items()[0].0, 5.0, 301);
    model.apply_delta(&second).unwrap();

    let updated = ds
        .matrix
        .apply_delta(first.ratings(), first.item_domains())
        .unwrap()
        .apply_delta(second.ratings(), second.item_domains())
        .unwrap();
    let refit = XMapModel::fit(
        &updated,
        DomainId::SOURCE,
        DomainId::TARGET,
        config(XMapMode::NxMapItemBased, 2),
    )
    .unwrap();
    let probe_users: Vec<UserId> = ds.overlap_users.iter().copied().take(6).collect();
    let probe_items: Vec<ItemId> = ds.target_items().into_iter().take(10).collect();
    assert_eq!(
        released_bits(&model, &probe_users, &probe_items),
        released_bits(&refit, &probe_users, &probe_items)
    );
}

/// SplitMix64: the seeded stream the write-surface walk below draws from.
struct Seeded(u64);

impl Seeded {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// How many delta shapes `shaped_delta` draws from.
const SHAPES: usize = 7;

/// One delta of the given shape against the current matrix `m`, its timesteps from `t`
/// up (a low `t` loses to the cells it updates, a high one wins).
fn shaped_delta(m: &RatingMatrix, shape: usize, rng: &mut Seeded, t: u32) -> RatingDelta {
    let (n_users, n_items) = (m.n_users(), m.n_items());
    let cell = |rng: &mut Seeded| {
        let value = 1 + rng.below(5);
        (
            rng.below(n_users) as u32,
            rng.below(n_items) as u32,
            value as f64,
        )
    };
    let mut delta = RatingDelta::new();
    match shape {
        // One cell three times, at descending then equal timesteps, beside another.
        0 => {
            let (u, i, v) = cell(rng);
            delta
                .push_timed(u, i, v, t + 2)
                .push_timed(u, i, 6.0 - v, t + 1)
                .push_timed(u, i, 3.0, t + 2);
            let (u, i, v) = cell(rng);
            delta.push_timed(u, i, v, t);
        }
        // Empty.
        1 => {}
        // An item redeclared with its current domain, and rated.
        2 => {
            let (u, i, v) = cell(rng);
            delta
                .declare_item(ItemId(i), m.item_domain(ItemId(i)))
                .push_timed(u, i, v, t);
        }
        // A new user and a new item at the growth bound: two events and one declaration
        // may name user `n_users + 1` and item `n_items + 2`.
        3 => {
            let (u, _, v) = cell(rng);
            let domain = [DomainId::SOURCE, DomainId::TARGET][rng.below(2)];
            let (new_user, new_item) = (n_users as u32 + 1, n_items as u32 + 2);
            delta
                .declare_item(ItemId(new_item), domain)
                .push_timed(new_user, new_item, v, t)
                .push_timed(u, new_item, 6.0 - v, t + 1);
        }
        // Source-domain items only.
        4 => {
            let source = m.items_in_domain(DomainId::SOURCE);
            for k in 0..1 + rng.below(4) {
                let (u, _, v) = cell(rng);
                delta.push_timed(u, source[rng.below(source.len())].0, v, t + k as u32);
            }
        }
        // Every user of the trace, one rating each.
        5 => {
            for u in 0..n_users as u32 {
                let (_, i, v) = cell(rng);
                delta.push_timed(u, i, v, t);
            }
        }
        // A few cells anywhere.
        _ => {
            for k in 0..1 + rng.below(6) {
                let (u, i, v) = cell(rng);
                delta.push_timed(u, i, v, t + k as u32);
            }
        }
    }
    delta
}

/// Ids one past the growth bound of `m` — a user, a rated item and a declared item —
/// are refused as `Data`, leaving the epoch, the snapshot and the journal as they were.
fn refuses_ids_one_past_the_bound(model: &XMapModel, m: &RatingMatrix, what: &str) {
    let (n_users, n_items) = (m.n_users() as u32, m.n_items() as u32);
    let mut user = RatingDelta::new();
    user.push_timed(n_users + 1, 0, 3.0, 9);
    let mut item = RatingDelta::new();
    item.push_timed(0, n_items + 1, 3.0, 9);
    let mut declaration = RatingDelta::new();
    declaration.declare_item(ItemId(n_items + 1), DomainId::TARGET);
    let (epoch, before) = model.snapshot();
    let journal = model.journal_len_bytes();
    for delta in [user, item, declaration] {
        let err = model.apply_delta(&delta).err();
        assert!(
            matches!(err, Some(xmap_suite::core::XMapError::Data(_))),
            "{what}: {err:?}"
        );
        assert_eq!(model.epoch(), epoch, "{what}: an epoch published");
        assert!(
            std::sync::Arc::ptr_eq(&model.snapshot().1, &before),
            "{what}"
        );
        assert_eq!(
            model.journal_len_bytes(),
            journal,
            "{what}: the journal grew"
        );
    }
}

/// Seeded walks over the write surface: 1–4 deltas of every shape `shaped_delta`
/// knows, on NX-ib and X-ib at 2 workers, with a `persist` → `open` at a seeded point.
/// After every delta the model releases exactly what a refit on the folded matrix
/// releases, and ids one past the growth bound are refused without side effects.
#[test]
fn seeded_delta_walks_equal_a_refit_after_every_delta() {
    let ds = dataset();
    let probe_users: Vec<UserId> = ds
        .overlap_users
        .iter()
        .take(4)
        .chain(ds.source_only_users.iter().take(2))
        .copied()
        .collect();
    let probe_items: Vec<ItemId> = ds.target_items().into_iter().take(8).collect();
    for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
        let fit = |matrix: &RatingMatrix| {
            XMapModel::fit(matrix, DomainId::SOURCE, DomainId::TARGET, config(mode, 2)).unwrap()
        };
        let mut seen = [false; SHAPES];
        for seed in 0..8u64 {
            let mut rng = Seeded(seed);
            let n_deltas = 1 + rng.below(4);
            let persist_at = rng.below(n_deltas);
            let dir = std::env::temp_dir().join(format!(
                "xmap_walk_{}_{}_{seed}",
                std::process::id(),
                mode.label()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut model = fit(&ds.matrix);
            let mut folded = ds.matrix.clone();
            for step in 0..n_deltas {
                let shape = rng.below(SHAPES);
                seen[shape] = true;
                let what = format!("{mode:?} seed {seed} step {step} shape {shape}");
                let t = [0, 500, 2000][rng.below(3)] + 10 * step as u32;
                let delta = shaped_delta(&folded, shape, &mut rng, t);
                let report = model.apply_delta(&delta).unwrap();
                assert_eq!(report.epoch, 2 + step as u64, "{what}");
                folded = folded
                    .apply_delta(delta.ratings(), delta.item_domains())
                    .unwrap();
                let expected = released_bits(&fit(&folded), &probe_users, &probe_items);
                assert_eq!(
                    released_bits(&model, &probe_users, &probe_items),
                    expected,
                    "{what}"
                );
                if step == persist_at {
                    model.persist(&dir).unwrap();
                    model = XMapModel::open(&dir).unwrap();
                    assert_eq!(
                        released_bits(&model, &probe_users, &probe_items),
                        expected,
                        "{what}: reopened"
                    );
                }
                refuses_ids_one_past_the_bound(&model, &folded, &what);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(seen, [true; SHAPES], "{mode:?}: a shape went unwalked");
    }
}

/// A delta's ledger is the refit's: the `"delta"` entry holds exactly the refit's
/// four stage bags, concatenated in [`FIT_STAGE_NAMES`] order, in all four modes at 1,
/// 2 and 8 workers — a delta does a fit's work, and records it the same way.
#[test]
fn a_deltas_ledger_is_a_refits_four_bags_concatenated() {
    let ds = dataset();
    let delta = gate_delta(&ds);
    let updated = ds
        .matrix
        .apply_delta(delta.ratings(), delta.item_domains())
        .unwrap();
    for mode in [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ] {
        for workers in GATE_WORKERS {
            let fit = |matrix: &RatingMatrix| {
                let config = config(mode, workers);
                XMapModel::fit(matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap()
            };
            let model = fit(&ds.matrix);
            model.apply_delta(&delta).unwrap();
            let refit = fit(&updated);
            let concatenated: Vec<f64> = FIT_STAGE_NAMES
                .iter()
                .flat_map(|&stage| stage_costs(&refit, stage))
                .collect();
            assert!(
                !concatenated.is_empty(),
                "{mode:?}: the refit records its bags"
            );
            let bits = |costs: &[f64]| costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&stage_costs(&model, DELTA_STAGE_NAME)),
                bits(&concatenated),
                "{mode:?}/{workers}w: the delta ledger is not the refit's"
            );
        }
    }
}

/// Top-k pruning ranks over every scored pair, so a delta that weakens edges can pull
/// a previously pruned pair, whose own inputs did not move, back into an endpoint's
/// top-k. With `k = 1` on a dense trace, one user flipping every rating must leave
/// each mode's model bit-identical to a refit, the graph included.
#[test]
fn weakened_edges_resurrect_previously_pruned_pairs_exactly() {
    let mut b = RatingMatrixBuilder::new();
    for u in 0..16u32 {
        for x in 0..8u32 {
            let i = (u * 3 + x * 7) % 12;
            b.push_parts(u, i, ((u * 2 + x * 3) % 5 + 1) as f64)
                .unwrap();
        }
    }
    for i in 0..12u32 {
        let domain = if i < 6 {
            DomainId::SOURCE
        } else {
            DomainId::TARGET
        };
        b.set_item_domain(ItemId(i), domain);
    }
    let m = b.build().unwrap();
    // User 0 flips every one of their ratings to the opposite end of the scale,
    // weakening (and sign-flipping) many similarities at once.
    let mut delta = RatingDelta::new();
    for (ix, e) in m.user_profile(UserId(0)).iter().enumerate() {
        delta.push_timed(0, e.item.0, 6.0 - e.value, 100 + ix as u32);
    }
    let updated = m.apply_delta(delta.ratings(), &[]).unwrap();
    let users: Vec<UserId> = m.users().collect();
    let items = updated.items_in_domain(DomainId::TARGET);
    for mode in [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ] {
        let config = XMapConfig {
            k: 1,
            ..config(mode, 2)
        };
        let fit = |matrix: &RatingMatrix| {
            XMapModel::fit(matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap()
        };
        let model = fit(&m);
        let unpruned = GraphConfig {
            top_k: None,
            ..model.graph().config()
        };
        assert!(
            SimilarityGraph::build(&m, unpruned).n_undirected_edges()
                > model.graph().n_undirected_edges(),
            "{mode:?}: pruning must actually drop pairs for this case to bite"
        );
        let before = model.graph();
        model.apply_delta(&delta).unwrap();
        let refit = fit(&updated);
        assert_eq!(
            released_bits(&model, &users, &items),
            released_bits(&refit, &users, &items),
            "{mode:?}"
        );
        assert_ne!(
            *before,
            *model.graph(),
            "{mode:?}: the delta must move the arena"
        );
    }
}

/// A top-N wide enough to return every candidate of the small catalogue.
const FULL_RANKING: usize = 1_000;

/// What a user-based read path answers for `users`: the full ranking (every candidate,
/// not a top-5 that could hide a mis-scored tail) and one single-item prediction.
fn read_bits(
    users: &[UserId],
    recommend: impl Fn(UserId) -> Vec<(ItemId, f64)>,
    predict: impl Fn(UserId) -> f64,
) -> Vec<(Vec<(ItemId, u64)>, u64)> {
    users
        .iter()
        .map(|&u| {
            let recs = recommend(u).into_iter().map(|(i, s)| (i, s.to_bits()));
            (recs.collect(), predict(u).to_bits())
        })
        .collect()
}

/// The user-based modes keep per-user and per-item accumulators in the serving
/// thread's scratch, sized to the matrix. A read warms them; a delta then adds a user
/// id and an item id past the old bounds; the next read *on the same thread* must see
/// both — single-node and routed — exactly as a model freshly fitted on the updated
/// matrix does. `k` covers every user, so the new user is a neighbour and the new item
/// a candidate whenever their ratings say so, not only if a tie-break lets them in.
#[test]
fn a_warmed_user_based_scratch_follows_a_matrix_that_grows_between_two_reads() {
    let ds = dataset();
    let delta = gate_delta(&ds);
    let updated = ds
        .matrix
        .apply_delta(delta.ratings(), delta.item_domains())
        .unwrap();
    let new_user = UserId(ds.matrix.n_users() as u32);
    let new_item = ItemId(ds.matrix.n_items() as u32);
    let users: Vec<UserId> = ds
        .overlap_users
        .iter()
        .copied()
        .take(6)
        .chain(ds.source_only_users.iter().copied().take(2))
        .chain([new_user])
        .collect();
    for mode in [XMapMode::NxMapUserBased, XMapMode::XMapUserBased] {
        let config = XMapConfig {
            k: updated.n_users(),
            ..config(mode, 2)
        };
        let fit = |matrix: &RatingMatrix| {
            XMapModel::fit(matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap()
        };
        // The reference is read on a thread of its own: this thread's scratch must meet
        // the small matrix first and the grown one second.
        let expected = std::thread::scope(|scope| {
            let reference = scope.spawn(|| {
                let refit = fit(&updated);
                read_bits(
                    &users,
                    |u| refit.recommend(u, FULL_RANKING),
                    |u| refit.predict(u, new_item),
                )
            });
            reference.join().expect("the reference reads do not panic")
        });
        assert!(
            expected
                .iter()
                .any(|(recs, _)| recs.iter().any(|&(i, _)| i == new_item)),
            "{mode:?}: the gate needs the new item among the candidates"
        );

        let single = fit(&ds.matrix);
        let read_single = || {
            read_bits(
                &users,
                |u| single.recommend(u, FULL_RANKING),
                |u| single.predict(u, new_item),
            )
        };
        let before = read_single();
        single.apply_delta(&delta).unwrap();
        assert_ne!(
            before, expected,
            "{mode:?}: the delta must move the answers"
        );
        assert_eq!(read_single(), expected, "{mode:?}: single-node read");

        let mut sharded = ShardedModel::from_model(fit(&ds.matrix), 4).unwrap();
        let read_routed = |sharded: &ShardedModel| {
            read_bits(
                &users,
                |u| sharded.recommend(u, FULL_RANKING).unwrap(),
                |u| sharded.predict(u, new_item).unwrap(),
            )
        };
        assert_eq!(
            read_routed(&sharded),
            before,
            "{mode:?}: routed warm-up read"
        );
        sharded.ingest(&delta).unwrap();
        assert_eq!(read_routed(&sharded), expected, "{mode:?}: routed read");
    }
}
