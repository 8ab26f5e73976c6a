//! Acceptance gates for the sharded model (`xmap_core::shard`).
//!
//! The contract under test: sharded serve / ingest is **bit-identical** to the
//! single-node model at 1, 2 and 8 nodes in all four modes; hot-shard
//! replication changes only *where* reads land, never what they answer; and a
//! node killed mid-stream recovers by re-cutting from the coordinator — sharing its
//! live siblings' slices — to the very same bits, whether or not anything was
//! persisted and however many ingests it missed.

use xmap_cf::knn::Profile;
use xmap_cf::{DomainId, ItemId, RatingMatrixBuilder, Timestep, UserId};
use xmap_core::{RatingDelta, ShardedModel, XMapConfig, XMapError, XMapMode, XMapModel};
use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};

const ALL_MODES: [XMapMode; 4] = [
    XMapMode::NxMapItemBased,
    XMapMode::NxMapUserBased,
    XMapMode::XMapItemBased,
    XMapMode::XMapUserBased,
];

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig::small())
}

fn fit(ds: &CrossDomainDataset, mode: XMapMode) -> XMapModel {
    let config = XMapConfig {
        mode,
        k: 8,
        ..Default::default()
    };
    XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap()
}

fn probe_users(ds: &CrossDomainDataset) -> Vec<UserId> {
    ds.overlap_users.iter().take(4).copied().collect()
}

fn assert_same_recs(a: &[(ItemId, f64)], b: &[(ItemId, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.0, y.0, "{what}: item diverged");
        assert_eq!(
            x.1.to_bits(),
            y.1.to_bits(),
            "{what}: score bits diverged for {:?}",
            x.0
        );
    }
}

/// Scores never rise down a top-N answer.
fn assert_ranked(recs: &[(ItemId, f64)], what: &str) {
    for pair in recs.windows(2) {
        assert!(pair[0].1 >= pair[1].1, "{what}: out of rank order");
    }
}

/// The routed model's privacy accountant must be the single-node reference's, bit
/// for bit — every ledger entry, `spent` and `remaining`: building replicas,
/// routed ingests and node recovery re-wrap released artifacts and spend no ε.
fn assert_same_ledger(sharded: &ShardedModel, reference: &XMapModel, what: &str) {
    match (sharded.privacy_budget(), reference.privacy_budget()) {
        (Some(s), Some(r)) => {
            assert_eq!(s.ledger(), r.ledger(), "{what}: ledger entries diverged");
            for (a, b) in s.ledger().iter().zip(r.ledger()) {
                assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits(), "{what}: ε bits");
            }
            assert_eq!(s.spent().to_bits(), r.spent().to_bits(), "{what}: spent ε");
            assert_eq!(
                s.remaining().to_bits(),
                r.remaining().to_bits(),
                "{what}: remaining ε"
            );
        }
        (None, None) => {}
        _ => panic!("{what}: privacy accountant presence diverged"),
    }
}

/// Routed predictions and top-N answers vs the single-node model, over every
/// mode and 1/2/8 nodes. Fitting is deterministic, so a fresh fit per node
/// count is the same reference model.
#[test]
fn routed_serving_matches_single_node_in_all_modes_at_1_2_8_nodes() {
    let ds = dataset();
    for mode in ALL_MODES {
        let reference = fit(&ds, mode);
        let users = probe_users(&ds);
        let items: Vec<ItemId> = ds.target_items().into_iter().take(8).collect();
        for n_nodes in [1usize, 2, 8] {
            let sharded = ShardedModel::from_model(fit(&ds, mode), n_nodes).unwrap();
            for &u in &users {
                for &i in &items {
                    assert_eq!(
                        sharded.predict(u, i).unwrap().to_bits(),
                        reference.predict(u, i).to_bits(),
                        "{mode:?}/{n_nodes} nodes: prediction diverged for {u}/{i}"
                    );
                }
                assert_same_recs(
                    &sharded.recommend(u, 5).unwrap(),
                    &reference.recommend(u, 5),
                    &format!("{mode:?}/{n_nodes} nodes: top-5 for {u}"),
                );
            }
            // Sharding spends no additional privacy budget.
            assert_same_ledger(&sharded, &reference, &format!("{mode:?}/{n_nodes} nodes"));
            let [(_, route), (_, serve), _] = sharded.ledger();
            assert!(route.n_tasks > 0, "{mode:?}: routed reads must be ledgered");
            assert!(
                serve.n_tasks > 0,
                "{mode:?}: shard serving must be ledgered"
            );
        }
    }
}

/// A single shard on a single node is exactly the unsharded model: one slice
/// covering the whole catalogue, every answer bit-identical.
#[test]
fn single_shard_is_the_unsharded_model() {
    let ds = dataset();
    let reference = fit(&ds, XMapMode::NxMapItemBased);
    let sharded = ShardedModel::from_model(fit(&ds, XMapMode::NxMapItemBased), 1).unwrap();
    let (_, slice) = sharded.slice(0, 0).expect("node 0 hosts the only shard");
    assert_eq!(slice.item_range(), (0, ds.matrix.n_items() as u32));
    for &u in &probe_users(&ds) {
        assert_same_recs(
            &sharded.recommend(u, 5).unwrap(),
            &reference.recommend(u, 5),
            "single shard top-5",
        );
    }
}

/// More nodes than items: trailing shards are empty yet routable, and routed
/// answers still match the single-node model bit-for-bit.
#[test]
fn empty_shards_serve_nothing_and_change_no_bits() {
    let ds = CrossDomainDataset::generate(CrossDomainConfig {
        n_source_items: 4,
        n_target_items: 3,
        n_source_only_users: 8,
        n_target_only_users: 8,
        n_overlap_users: 8,
        ratings_per_user: 3,
        ..CrossDomainConfig::small()
    });
    let reference = fit(&ds, XMapMode::NxMapItemBased);
    let sharded = ShardedModel::from_model(fit(&ds, XMapMode::NxMapItemBased), 8).unwrap();
    let map = sharded.shard_map();
    assert!(
        (0..map.n_shards() as u32).any(|s| {
            let (start, end) = map.range(s);
            start == end
        }),
        "7 items over 8 nodes must leave an empty shard"
    );
    for &u in &probe_users(&ds) {
        assert_same_recs(
            &sharded.recommend(u, 3).unwrap(),
            &reference.recommend(u, 3),
            "empty-shard top-3",
        );
    }
}

/// Hot-shard replication keeps every answer bit-identical and rotates reads of
/// a replicated shard across its replicas. Asking for more replicas than nodes
/// clamps to every node exactly once.
#[test]
fn hot_shard_replication_preserves_bits_and_rotates_reads() {
    let ds = dataset();
    let reference = fit(&ds, XMapMode::NxMapItemBased);
    let sharded =
        ShardedModel::with_hot_replication(fit(&ds, XMapMode::NxMapItemBased), 4, 3).unwrap();
    let map = sharded.shard_map();
    let hot = (0..map.n_shards() as u32)
        .find(|&s| map.replication(s) > 1)
        .expect("the popularity head must mark at least one shard hot");
    assert_eq!(map.hosts(hot, 4).len(), 3);
    for &u in &probe_users(&ds) {
        assert_same_recs(
            &sharded.recommend(u, 5).unwrap(),
            &reference.recommend(u, 5),
            "replicated top-5",
        );
    }
    // Two routed reads of the same hot item land on two different replicas.
    let item = ItemId(map.range(hot).0);
    let profile = vec![(ds.target_items()[0], 4.0, Timestep(0))];
    sharded.clear_ledgers();
    let a = sharded.predict_for_profile(&profile, item).unwrap();
    let b = sharded.predict_for_profile(&profile, item).unwrap();
    assert_eq!(a.to_bits(), b.to_bits(), "replicas must answer identically");
    let [(_, route), ..] = sharded.ledger();
    assert_eq!(route.n_tasks, 2);
    let mut loads = route.node_loads.clone();
    loads.retain(|&load| load != 0.0);
    assert_eq!(
        loads,
        [1.0, 1.0],
        "reads of a replicated shard must rotate across replicas: {route:?}"
    );

    // Replication beyond the node count clamps: every node hosts the hot shard.
    let clamped =
        ShardedModel::with_hot_replication(fit(&ds, XMapMode::NxMapItemBased), 2, 64).unwrap();
    let cmap = clamped.shard_map();
    let chot = (0..cmap.n_shards() as u32)
        .find(|&s| cmap.replication(s) > 1)
        .expect("hot shard");
    assert_eq!(
        cmap.hosts(chot, 2),
        vec![cmap.owner(chot, 2), (cmap.owner(chot, 2) + 1) % 2]
    );
    for &u in &probe_users(&ds).into_iter().take(2).collect::<Vec<_>>() {
        assert_same_recs(
            &clamped.recommend(u, 5).unwrap(),
            &reference.recommend(u, 5),
            "clamped-replication top-5",
        );
    }
}

/// A user-based top-N reads only the target matrix, which every node holds, so it is
/// one hop to a replica of the profile's home shard: without replication it still
/// answers the single-node bits with a node of another shard dead, it fails with the
/// typed routing error (no panic) once every host of the home shard is dead, and it
/// ledgers one `route` and one `shard_serve` task costing `1 + |profile|`.
#[test]
fn a_user_based_read_needs_only_its_home_shard() {
    let ds = dataset();
    for mode in [XMapMode::NxMapUserBased, XMapMode::XMapUserBased] {
        let mut sharded = ShardedModel::from_model(fit(&ds, mode), 4).unwrap();
        let (_, epoch) = sharded.coordinator().snapshot();
        let profile = epoch.alterego(ds.overlap_users[0]).profile;
        assert!(
            !profile.is_empty(),
            "{mode:?}: the probe needs a non-empty AlterEgo"
        );
        let expected = epoch.recommend_for_profile(&profile, 5);
        assert!(
            !expected.is_empty(),
            "{mode:?}: the probe must recommend something"
        );

        sharded.clear_ledgers();
        let routed = sharded.recommend_for_profile(&profile, 5).unwrap();
        assert_same_recs(&routed, &expected, &format!("{mode:?}: all nodes up"));
        let [(_, route), (_, serve), _] = sharded.ledger();
        assert_eq!(route.n_tasks, 1, "{mode:?}: one routing decision");
        assert_eq!(serve.n_tasks, 1, "{mode:?}: one shard-local hop");
        assert_eq!(
            serve.total_work,
            1.0 + profile.len() as f64,
            "{mode:?}: hop cost"
        );

        let map = sharded.shard_map().clone();
        let home = map.shard_of(profile[0].0);
        let home_host = map.owner(home, 4);
        let other = (0..4).find(|&node| node != home_host).unwrap();
        sharded.kill_node(other).unwrap();
        assert_same_recs(
            &sharded.recommend_for_profile(&profile, 5).unwrap(),
            &expected,
            &format!("{mode:?}: node {other} of another shard dead"),
        );

        sharded.kill_node(home_host).unwrap();
        match sharded.recommend_for_profile(&profile, 5) {
            Err(XMapError::Data(_)) => {}
            got => panic!("{mode:?}: a dead home shard must be a routing error: {got:?}"),
        }
    }
}

/// A catalogue whose item-based scores tie across every shard boundary at 2 and 8
/// nodes: even ids are target items, odd ids source items, and the target items
/// alternate between two clusters whose columns are identical within a cluster
/// (users 0-3 rate one 5 and the other 1, users 4-7 the reverse). Every item of a
/// cluster has the same average and the same similarities, so a profile of cluster
/// items scores all other members of its cluster with the same bits.
fn tied_clusters() -> xmap_cf::RatingMatrix {
    let mut b = RatingMatrixBuilder::new();
    for item in 0..32u32 {
        let domain = if item % 2 == 0 {
            DomainId::TARGET
        } else {
            DomainId::SOURCE
        };
        b.set_item_domain(ItemId(item), domain);
        for user in 0..8u32 {
            let likes = (user < 4) == (item % 4 < 2);
            b.push_parts(user, item, if likes { 5.0 } else { 1.0 })
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// Equal scores on both sides of a shard boundary: the routed item-based top-N is the
/// single-node one at every `n` that cuts through the tie, first-offered (lowest id)
/// wins included, at 2 and 8 nodes.
#[test]
fn ties_across_a_shard_boundary_rank_as_on_one_node() {
    let config = XMapConfig {
        mode: XMapMode::NxMapItemBased,
        k: 8,
        ..Default::default()
    };
    let matrix = tied_clusters();
    let fit = || XMapModel::fit(&matrix, DomainId::SOURCE, DomainId::TARGET, config);
    let entry = |item: u32, value: f64| (ItemId(item), value, Timestep(0));
    let profiles: [Profile; 2] = [vec![entry(0, 5.0)], vec![entry(0, 5.0), entry(20, 4.0)]];
    let (_, epoch) = fit().unwrap().snapshot();
    for n_nodes in [2usize, 8] {
        let sharded = ShardedModel::from_model(fit().unwrap(), n_nodes).unwrap();
        let map = sharded.shard_map();
        for (ix, profile) in profiles.iter().enumerate() {
            let everything = epoch.recommend_for_profile(profile, 64);
            let top = everything[0].1.to_bits();
            let tied: Vec<ItemId> = everything
                .iter()
                .filter(|(_, score)| score.to_bits() == top)
                .map(|&(item, _)| item)
                .collect();
            assert!(
                tied.len() >= 4 && tied.windows(2).all(|w| w[0] < w[1]),
                "profile #{ix}: the best score must tie in ascending id: {everything:?}"
            );
            assert_ne!(
                map.shard_of(tied[0]),
                map.shard_of(tied[tied.len() - 1]),
                "{n_nodes} nodes, profile #{ix}: the tie must straddle a boundary"
            );
            for n in 0..=everything.len() + 1 {
                assert_same_recs(
                    &sharded.recommend_for_profile(profile, n).unwrap(),
                    &epoch.recommend_for_profile(profile, n),
                    &format!("{n_nodes} nodes, profile #{ix}: top-{n}"),
                );
            }
        }
    }
}

fn probe_delta(ds: &CrossDomainDataset) -> RatingDelta {
    let new_user = ds.matrix.n_users() as u32;
    let new_item = ds.matrix.n_items() as u32; // clamps into the last shard
    let mut delta = RatingDelta::new();
    delta
        .declare_item(ItemId(new_item), DomainId::TARGET)
        .push_timed(new_user, ds.source_items()[0].0, 5.0, 90)
        .push_timed(new_user, ds.target_items()[0].0, 4.0, 91)
        .push_timed(new_user, new_item, 3.0, 92)
        .push_timed(ds.overlap_users[0].0, new_item, 5.0, 93);
    delta
}

/// A routed ingest (coordinator apply, slice re-cut and republish) answers exactly
/// like the single-node model after the same delta — including for the
/// delta-introduced user and item — in every mode. The delta declares an item, so
/// the last shard's range stretches to cover it: the item-based scoring hops, which
/// score only their shard's segment of the stream, must find it there. Each live
/// hosted (shard, host) is charged `1 +` the delta's ratings in the shard's range:
/// the new item's ratings count toward the last shard, its declaration adds
/// nothing.
#[test]
fn routed_ingest_matches_single_node_ingest() {
    for mode in ALL_MODES {
        let ds = dataset();
        let delta = probe_delta(&ds);
        let reference = fit(&ds, mode);
        reference.apply_delta(&delta).unwrap();
        let mut sharded = ShardedModel::from_model(fit(&ds, mode), 4).unwrap();
        let report = sharded.ingest(&delta).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(sharded.epoch(), 2);
        let map = sharded.shard_map();
        let new_user = UserId(ds.matrix.n_users() as u32);
        let new_item = ItemId(ds.matrix.n_items() as u32);
        let last = map.n_shards() as u32 - 1;
        let ratings_in = |shard: u32| {
            let (start, end) = map.range(shard);
            let end = if shard == last { u32::MAX } else { end };
            let ratings = delta.ratings().iter();
            ratings.filter(|r| (start..end).contains(&r.item.0)).count()
        };
        assert_eq!((0..=last).map(ratings_in).sum::<usize>(), delta.len());
        let new_item_ratings = delta.ratings().iter().filter(|r| r.item == new_item);
        let new_item_ratings = new_item_ratings.count();
        assert!(
            new_item_ratings > 0 && ratings_in(last) >= new_item_ratings,
            "the new item's ratings count toward the last shard"
        );
        let (mut live_hosted, mut expected_cost) = (0, 0.0);
        for shard in 0..=last {
            let hosts = map.hosts(shard, 4).into_iter();
            let live =
                hosts.filter(|&h| sharded.node_is_alive(h) && sharded.slice(h, shard).is_some());
            let n_live = live.count();
            live_hosted += n_live;
            expected_cost += n_live as f64 * (1.0 + ratings_in(shard) as f64);
        }
        let [.., (_, ingest)] = sharded.ledger();
        assert!(live_hosted > 0);
        assert_eq!(
            ingest.n_tasks, live_hosted,
            "one ingest task per live hosted (shard, host) pair"
        );
        assert_eq!(
            ingest.total_work, expected_cost,
            "{mode:?}: each task costs 1 + the delta's ratings in its shard"
        );
        let mut users = probe_users(&ds);
        users.push(new_user);
        for &u in &users {
            assert_eq!(
                sharded.predict(u, new_item).unwrap().to_bits(),
                reference.predict(u, new_item).to_bits(),
                "{mode:?}: post-ingest prediction diverged for {u}"
            );
            assert_same_recs(
                &sharded.recommend(u, 5).unwrap(),
                &reference.recommend(u, 5),
                &format!("{mode:?}: post-ingest top-5 for {u}"),
            );
        }
    }
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xmap-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kill a node after an ingest it saw: surviving replicas keep serving the hot
/// shard bit-identically (failover = promotion is implicit in read routing), and
/// recovery gives it back the live replicas' slices — the same `Arc`s — with full
/// serving restored.
#[test]
fn killed_node_fails_over_and_recovers_from_its_journal() {
    let ds = dataset();
    let delta = probe_delta(&ds);
    let reference = fit(&ds, XMapMode::XMapItemBased);
    reference.apply_delta(&delta).unwrap();

    let mut sharded =
        ShardedModel::with_hot_replication(fit(&ds, XMapMode::XMapItemBased), 4, 2).unwrap();
    let dir = temp_store("journal-recovery");
    assert_eq!(sharded.persist(&dir).unwrap(), 1);
    sharded.ingest(&delta).unwrap();

    let map = sharded.shard_map().clone();
    let hot = (0..map.n_shards() as u32)
        .find(|&s| map.replication(s) > 1)
        .expect("hot shard");
    let hosts = map.hosts(hot, 4);
    let victim = hosts[0];
    sharded.kill_node(victim).unwrap();
    assert!(!sharded.node_is_alive(victim));

    // Failover: the surviving replica answers the hot shard, same bits.
    let hot_item = ItemId(map.range(hot).0);
    let profile = vec![(ds.target_items()[0], 4.0, Timestep(0))];
    let (_, live_epoch) = (hosts[1], sharded.slice(hosts[1], hot).unwrap().0);
    assert_eq!(live_epoch, 2, "live replica serves the post-ingest epoch");
    sharded.clear_ledgers();
    sharded.predict_for_profile(&profile, hot_item).unwrap();
    let [(_, route), ..] = sharded.ledger();
    assert!(route.n_tasks > 0, "the read must be routed");
    assert_eq!(
        route.node_loads.get(victim).copied().unwrap_or(0.0),
        0.0,
        "no read may route to a dead node"
    );

    // A shard hosted only by the victim has no live replica until recovery.
    if let Some(lonely) = (0..map.n_shards() as u32).find(|&s| map.hosts(s, 4) == vec![victim]) {
        let lonely_item = ItemId(map.range(lonely).0);
        assert!(
            sharded.predict_for_profile(&profile, lonely_item).is_err(),
            "a shard with every host dead must fail loudly"
        );
    }

    sharded.recover_node(victim).unwrap();
    assert!(sharded.node_is_alive(victim));
    for s in 0..map.n_shards() as u32 {
        let hosts = map.hosts(s, 4);
        if !hosts.contains(&victim) {
            continue;
        }
        let (epoch, recovered) = sharded.slice(victim, s).expect("recovered shard");
        assert_eq!(epoch, 2, "recovery must reach the coordinator epoch");
        for &other in hosts.iter().filter(|&&h| h != victim) {
            let (oe, live) = sharded.slice(other, s).unwrap();
            assert_eq!(oe, 2);
            assert!(
                std::sync::Arc::ptr_eq(&recovered, &live),
                "shard {s}: the recovered slice is not the live replica's"
            );
        }
    }
    let new_user = UserId(ds.matrix.n_users() as u32);
    for &u in &[ds.overlap_users[0], new_user] {
        assert_same_recs(
            &sharded.recommend(u, 5).unwrap(),
            &reference.recommend(u, 5),
            "post-recovery top-5",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharding, routed ingest and node recovery spend no ε: in both private modes
/// the routed model's accountant equals the single-node reference's after the
/// build, after a routed ingest, and after `kill_node` → `recover_node`.
#[test]
fn sharding_ingest_and_recovery_spend_no_epsilon() {
    let ds = dataset();
    let delta = probe_delta(&ds);
    for mode in [XMapMode::XMapItemBased, XMapMode::XMapUserBased] {
        let reference = fit(&ds, mode);
        let mut sharded = ShardedModel::with_hot_replication(fit(&ds, mode), 4, 2).unwrap();
        assert_same_ledger(&sharded, &reference, &format!("{mode:?} after build"));
        let dir = temp_store(&format!("ledger-{mode:?}"));
        sharded.persist(&dir).unwrap();

        reference.apply_delta(&delta).unwrap();
        sharded.ingest(&delta).unwrap();
        assert_same_ledger(&sharded, &reference, &format!("{mode:?} after ingest"));

        sharded.kill_node(1).unwrap();
        sharded.recover_node(1).unwrap();
        assert_same_ledger(&sharded, &reference, &format!("{mode:?} after recovery"));
        assert_same_recs(
            &sharded.recommend(ds.overlap_users[0], 5).unwrap(),
            &reference.recommend(ds.overlap_users[0], 5),
            &format!("{mode:?}: post-recovery top-5"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill a node *before* three ingests — one declaring an item — with nothing
/// persisted: it never sees the new epochs, and recovery gives it back each shard it
/// hosts at the coordinator's epoch — the live sibling's `Arc` where the other node
/// hosts the shard too, a fresh cut where it alone does — in every mode. The routed
/// reads, which the shards only the recovered node hosts must answer there, carry the
/// bits of a single-node model fed the same deltas, and its accountant.
#[test]
fn node_dead_across_an_ingest_recovers_by_rereplication() {
    let ds = dataset();
    let mut second = RatingDelta::new();
    second.push_timed(ds.overlap_users[1].0, ds.source_items()[1].0, 2.0, 94);
    let mut third = RatingDelta::new();
    third
        .push_timed(ds.overlap_users[2].0, ds.target_items()[2].0, 1.0, 95)
        .push_timed(ds.overlap_users[3].0, ds.matrix.n_items() as u32, 4.0, 96);
    let deltas = [probe_delta(&ds), second, third];
    for mode in ALL_MODES {
        let reference = fit(&ds, mode);
        let mut sharded = ShardedModel::with_hot_replication(fit(&ds, mode), 2, 2).unwrap();
        let map = sharded.shard_map().clone();
        sharded.kill_node(1).unwrap();
        for delta in &deltas {
            reference.apply_delta(delta).unwrap();
            sharded.ingest(delta).unwrap();
        }
        sharded.recover_node(1).unwrap();
        let hosted = (0..map.n_shards() as u32).filter(|&s| map.hosts(s, 2).contains(&1));
        let (mut shared, mut alone) = (0, 0);
        for s in hosted {
            let (epoch, recovered) = sharded.slice(1, s).expect("recovered shard");
            assert_eq!(epoch, 4, "{mode:?} shard {s}");
            match sharded.slice(0, s) {
                Some((_, live)) => {
                    shared += 1;
                    assert!(
                        std::sync::Arc::ptr_eq(&recovered, &live),
                        "{mode:?} shard {s}: the recovered slice is not the live sibling's"
                    );
                }
                None => alone += 1,
            }
        }
        assert!(
            shared > 0 && alone > 0,
            "{mode:?}: {shared} shared, {alone} alone"
        );
        let new_item = ItemId(ds.matrix.n_items() as u32);
        let new_user = UserId(ds.matrix.n_users() as u32);
        for &u in &[ds.overlap_users[0], ds.overlap_users[3], new_user] {
            assert_eq!(
                sharded.predict(u, new_item).unwrap().to_bits(),
                reference.predict(u, new_item).to_bits(),
                "{mode:?}: prediction for {u} by the recovered node"
            );
            assert_same_recs(
                &sharded.recommend(u, 5).unwrap(),
                &reference.recommend(u, 5),
                &format!("{mode:?}: top-5 for {u} by the recovered node"),
            );
        }
        assert_same_ledger(&sharded, &reference, &format!("{mode:?}: recovery"));
    }
}

/// A hostile caller on the read side, in every mode on a replicated 4-node cut:
/// users and items one past the model and at `u32::MAX`, `n` of 0, 1, far past the
/// catalogue and `usize::MAX`, and hand-made profiles that are empty, repeat an item,
/// name ids past the catalogue, or hold the whole catalogue. Every routed answer is
/// the epoch's, bit for bit, and a served batch is the per-profile read; the two
/// largest `n` both return every candidate, ranked. Nothing panics, and nothing sizes
/// a buffer by an id or by `n` (a `u32::MAX` or a `usize::MAX` would not return).
#[test]
fn hostile_reads_answer_with_the_epochs_bits_in_all_modes() {
    let ds = dataset();
    let n_users = ds.matrix.n_users() as u32;
    let n_items = ds.matrix.n_items() as u32;
    let target = ds.target_items();
    let entry = |item: u32, value: f64, t: u32| (ItemId(item), value, Timestep(t));
    let profiles: Vec<Profile> = vec![
        Vec::new(),
        vec![
            entry(target[0].0, 5.0, 1),
            entry(target[1].0, 2.0, 2),
            entry(target[0].0, 1.0, 3),
            entry(target[0].0, 4.0, 0),
        ],
        vec![
            entry(target[2].0, 4.0, 1),
            entry(n_items, 5.0, 2),
            entry(u32::MAX, 1.0, 3),
        ],
        vec![entry(u32::MAX, 3.0, 0)],
        (0..n_items)
            .map(|i| entry(i, f64::from(1 + i % 5), i % 7))
            .collect(),
    ];
    let users = [ds.overlap_users[0], UserId(n_users), UserId(u32::MAX)];
    let items = [target[0], ItemId(n_items), ItemId(u32::MAX)];
    assert!(n_items < 1000, "n = 1000 must reach past the catalogue");
    const NS: [usize; 4] = [0, 1, 1000, usize::MAX];
    for mode in ALL_MODES {
        let sharded = ShardedModel::with_hot_replication(fit(&ds, mode), 4, 2).unwrap();
        let (_, epoch) = sharded.coordinator().snapshot();
        for user in users {
            assert_eq!(
                sharded.alterego(user).unwrap(),
                epoch.alterego(user),
                "{mode:?}: AlterEgo of {user}"
            );
            for item in items {
                assert_eq!(
                    sharded.predict(user, item).unwrap().to_bits(),
                    epoch.predict(user, item).to_bits(),
                    "{mode:?}: predict({user}, {item})"
                );
            }
            let mut past_catalogue = Vec::new();
            for n in NS {
                let recs = sharded.recommend(user, n).unwrap();
                let what = format!("{mode:?}: top-{n} for {user}");
                assert_same_recs(&recs, &epoch.recommend(user, n), &what);
                assert_ranked(&recs, &what);
                if n == usize::MAX {
                    assert_same_recs(&recs, &past_catalogue, &what);
                }
                past_catalogue = recs;
            }
        }
        for (ix, profile) in profiles.iter().enumerate() {
            for item in items {
                assert_eq!(
                    sharded
                        .predict_for_profile(profile, item)
                        .unwrap()
                        .to_bits(),
                    epoch.predict_for_profile(profile, item).to_bits(),
                    "{mode:?}: predict_for_profile(#{ix}, {item})"
                );
            }
        }
        let mut past_catalogue = Vec::new();
        for n in NS {
            let per_profile: Vec<Vec<(ItemId, f64)>> = profiles
                .iter()
                .map(|p| epoch.recommend_for_profile(p, n))
                .collect();
            for (ix, (profile, expected)) in profiles.iter().zip(&per_profile).enumerate() {
                let what = format!("{mode:?}: top-{n} of profile #{ix}");
                let recs = sharded.recommend_for_profile(profile, n).unwrap();
                assert_same_recs(&recs, expected, &what);
                assert_ranked(&recs, &what);
            }
            if n == usize::MAX {
                assert_eq!(per_profile, past_catalogue, "{mode:?}: every candidate");
            }
            assert_eq!(
                sharded.coordinator().serve_profiles(&profiles, n),
                per_profile,
                "{mode:?}: serve_profiles at n = {n}"
            );
            past_catalogue = per_profile;
        }
    }
}
