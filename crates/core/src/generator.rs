//! AlterEgo generation (§4.3 and the Generator component of §5.3).
//!
//! The generator performs two steps:
//!
//! 1. **Item mapping / replacement selection** — every source-domain item is mapped to a
//!    replacement item in the target domain. Non-privately this is simply the most
//!    X-Sim-similar heterogeneous item; privately it is the **PRS** exponential mechanism
//!    (Algorithm 3), which selects a replacement with probability proportional to
//!    `exp(ε · X-Sim / (2 · GS))`, `GS = 2`.
//! 2. **Mapped user profile** — the user's source-domain ratings are re-addressed to the
//!    replacement items, preserving the rating values and logical timesteps (which is how
//!    AlterEgos retain temporal behaviour across domains). If the user already has
//!    ratings in the target domain they are appended, per footnote 6 of the paper.

use crate::config::XMapConfig;
use crate::xsim::XSimTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xmap_cf::knn::Profile;
use xmap_cf::{DomainId, ItemId, RatingMatrix, UserId};
use xmap_engine::StageContext;
use xmap_privacy::{exponential_mechanism, Sensitivity};

/// How a source-domain rating value is carried onto its replacement item when building an
/// AlterEgo profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RatingTransfer {
    /// Carry the rating value verbatim — exactly the item-replacement step the paper
    /// describes (§4.3, Figure 3).
    Raw,
    /// Carry the user's *deviation* from the source item's mean rating, re-centred on the
    /// replacement item's mean. An implementation refinement (ablatable, see DESIGN.md):
    /// it prevents popularity differences between the two items from being misread as a
    /// like/dislike signal by the mean-centred CF predictors downstream.
    #[default]
    MeanAdjusted,
}

/// A user's artificial profile in the target domain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlterEgo {
    /// The user the profile belongs to.
    pub user: UserId,
    /// The target-domain profile: `(item, rating, timestep)` triples. Items mapped from
    /// the source domain come first (in source-profile order), any genuine target-domain
    /// ratings of the user are appended.
    pub profile: Profile,
    /// How many entries of `profile` were mapped from the source domain (the remainder
    /// are the user's own target-domain ratings).
    pub n_mapped: usize,
}

impl AlterEgo {
    /// Whether the profile contains any information at all.
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }
}

/// The item-to-item replacement table produced by the mapping step.
///
/// `PartialEq` compares the full mapping — it is what the delta-fit equivalence gate
/// holds a delta's table against a refit's.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplacementTable {
    replacements: HashMap<ItemId, ItemId>,
}

impl ReplacementTable {
    /// The replacement of a source item, if it has one.
    pub fn replacement(&self, item: ItemId) -> Option<ItemId> {
        self.replacements.get(&item).copied()
    }

    /// Number of source items with a replacement.
    pub fn len(&self) -> usize {
        self.replacements.len()
    }

    /// Whether no item has a replacement.
    pub fn is_empty(&self) -> bool {
        self.replacements.is_empty()
    }

    /// Iterates `(source item, replacement)` pairs in ascending source-item order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, ItemId)> + '_ {
        let mut pairs: Vec<(ItemId, ItemId)> =
            self.replacements.iter().map(|(a, b)| (*a, *b)).collect();
        pairs.sort_unstable();
        pairs.into_iter()
    }

    /// The replacement draw for one item given its X-Sim candidate list.
    ///
    /// Replacing an item with a *dissimilar* (negatively correlated) heterogeneous
    /// item while keeping the original rating would inject anti-signal into the
    /// AlterEgo, so only positively similar candidates are eligible replacements.
    /// The candidate pool is further restricted to the top-k entries (the extender
    /// only materialises top-k lists per layer, §5.2) so that the private
    /// exponential mechanism — which flattens towards a uniform choice as ε
    /// shrinks — always selects from a pool of reasonable replacements.
    ///
    /// The private draw's RNG stream is derived from `(config.seed, item)` alone, so
    /// the draw is independent of *which* replacements were computed before it — the
    /// property that lets the engine-parallel generator partition items freely while
    /// staying bit-equal to the serial loop.
    fn replacement_for(
        item: ItemId,
        all_candidates: &[crate::xsim::XSimEntry],
        config: &XMapConfig,
    ) -> Option<ItemId> {
        let mut candidates: Vec<crate::xsim::XSimEntry> = all_candidates
            .iter()
            .filter(|c| c.similarity > 0.0)
            .copied()
            .collect();
        candidates.truncate(config.replacement_pool.max(1));
        if candidates.is_empty() {
            return None;
        }
        Some(if config.mode.is_private() {
            // PRS: sample proportionally to exp(ε · X-Sim / (2 · GS)), with the
            // certainty-weighted X-Sim as the score (still bounded in [-1, 1], so the
            // global sensitivity of 2 is unchanged).
            let scores: Vec<f64> = candidates.iter().map(|c| c.weighted_similarity()).collect();
            let mut rng = StdRng::seed_from_u64(
                config.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(item.0) + 1)),
            );
            let idx = exponential_mechanism(
                &mut rng,
                &scores,
                config.privacy.epsilon,
                Sensitivity::XSIM_GLOBAL.value(),
            )
            .expect("candidate list is non-empty and scores are finite"); // lint: panic — reviewed invariant
            candidates[idx].item
        } else {
            candidates[0].item
        })
    }

    /// Draws the replacement of every row of `xsim` — the generator, partition-parallel.
    /// Items whose candidate list yields no eligible replacement are not stored.
    ///
    /// The row keys are split into the dataflow's partitions by item id, in ascending
    /// order (the X-Sim table iterates its map in hash order, which must not leak into
    /// partition contents), and every partition draws as one pool task. Because every
    /// draw's RNG stream derives from `(config.seed, item)` alone, the draws are
    /// independent of order and of each other, so the table is **bit-equal** to
    /// [`ReplacementTable::compute_replacements_serial`] at any worker count. One
    /// data-derived cost per partition — `Σ (1 + |candidates|)` — lands on the running
    /// stage's ledger.
    pub(crate) fn build(
        xsim: &XSimTable,
        config: &XMapConfig,
        cx: &mut StageContext<'_>,
    ) -> ReplacementTable {
        let items: Vec<ItemId> = xsim.iter().map(|(item, _)| item).collect();
        let per_partition: Vec<Vec<(ItemId, ItemId)>> = cx.map_partitions(
            items,
            |item| item.0,
            |_ix, part| {
                let mut out: Vec<(ItemId, ItemId)> = Vec::new();
                let mut cost = 0.0f64;
                for &item in part {
                    let all_candidates = xsim.candidates(item);
                    cost += 1.0 + all_candidates.len() as f64;
                    if let Some(r) = Self::replacement_for(item, all_candidates, config) {
                        out.push((item, r));
                    }
                }
                (out, cost)
            },
        );
        ReplacementTable {
            replacements: per_partition.into_iter().flatten().collect(),
        }
    }
}

/// Maps a user's source-domain profile into an AlterEgo in the target domain (the
/// "mapped user profiles" step of §5.3) — the one mapping, on both planes: `replacement`
/// is the epoch's table lookup on a single node and a closure over the pairs the router
/// gathered from the profile's shards, which are all the mapping ever consults.
///
/// Rating values (under `transfer`) and timesteps are carried over; when several source
/// items map to the same replacement the most recent rating wins; the user's genuine
/// target-domain ratings are appended and override mapped entries for the same item.
pub(crate) fn map_profile(
    replacement: impl Fn(ItemId) -> Option<ItemId>,
    matrix: &RatingMatrix,
    user: UserId,
    source_domain: DomainId,
    target_domain: DomainId,
    transfer: RatingTransfer,
) -> AlterEgo {
    let mut mapped: HashMap<ItemId, (f64, xmap_cf::Timestep)> = HashMap::new();
    let mut order: Vec<ItemId> = Vec::new();
    let mut own_target: Profile = Vec::new();

    for entry in matrix.user_profile(user) {
        let domain = matrix.item_domain(entry.item);
        if domain == source_domain {
            if let Some(replacement) = replacement(entry.item) {
                let value = match transfer {
                    RatingTransfer::Raw => entry.value,
                    RatingTransfer::MeanAdjusted => {
                        // transfer the user's *deviation* from the source item's mean
                        // onto the replacement item's mean, so items with different
                        // popularity levels do not distort the AlterEgo
                        let deviation = entry.value - matrix.item_average(entry.item);
                        matrix
                            .scale()
                            .clamp(matrix.item_average(replacement) + deviation)
                    }
                };
                match mapped.get(&replacement) {
                    Some(&(_, t)) if t >= entry.timestep => {}
                    _ => {
                        if !mapped.contains_key(&replacement) {
                            order.push(replacement);
                        }
                        mapped.insert(replacement, (value, entry.timestep));
                    }
                }
            }
        } else if domain == target_domain {
            own_target.push((entry.item, entry.value, entry.timestep));
        }
    }

    let mut profile: Profile = order
        .into_iter()
        .map(|item| {
            let (value, t) = mapped[&item];
            (item, value, t)
        })
        .collect();
    let n_mapped = profile.len();
    // Do not duplicate items the user has genuinely rated in the target domain: the
    // real rating overrides the mapped one.
    let own_items: Vec<ItemId> = own_target.iter().map(|&(i, _, _)| i).collect();
    profile.retain(|(i, _, _)| !own_items.contains(i));
    let n_mapped = n_mapped.min(profile.len());
    profile.extend(own_target);

    AlterEgo {
        user,
        profile,
        n_mapped,
    }
}

impl xmap_store::Codec for RatingTransfer {
    fn enc(&self, e: &mut xmap_store::Encoder) {
        e.put_u8(match self {
            RatingTransfer::Raw => 0,
            RatingTransfer::MeanAdjusted => 1,
        });
    }

    fn dec(d: &mut xmap_store::Decoder<'_>) -> std::result::Result<Self, xmap_store::StoreError> {
        match d.take_u8()? {
            0 => Ok(RatingTransfer::Raw),
            1 => Ok(RatingTransfer::MeanAdjusted),
            tag => Err(d.corrupt(format!("invalid RatingTransfer tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrivacyConfig, XMapMode};
    use xmap_dataset::toy::{items, users, ToyScenario};
    use xmap_engine::WorkerPool;
    use xmap_graph::{GraphConfig, LayerPartition, MetaPathConfig, SimilarityGraph};

    impl ReplacementTable {
        /// Materialises the replacement table single-threaded: one
        /// [`ReplacementTable::replacement_for`] draw per X-Sim source item. This is the
        /// reference the engine-parallel generator stage must match exactly, compiled
        /// for tests only.
        pub(crate) fn compute_replacements_serial(
            xsim: &XSimTable,
            config: &XMapConfig,
        ) -> ReplacementTable {
            let mut replacements = HashMap::new();
            for (item, all_candidates) in xsim.iter() {
                if let Some(replacement) = Self::replacement_for(item, all_candidates, config) {
                    replacements.insert(item, replacement);
                }
            }
            ReplacementTable { replacements }
        }
    }

    fn setup(mode: XMapMode, epsilon: f64) -> (ToyScenario, XSimTable, XMapConfig) {
        let toy = ToyScenario::build();
        let graph = SimilarityGraph::build(
            &toy.matrix,
            GraphConfig {
                top_k: None,
                ..Default::default()
            },
        );
        let (_, partition) = LayerPartition::from_graph(&graph);
        let table = XSimTable::compute(
            &graph,
            &partition,
            DomainId::SOURCE,
            MetaPathConfig::default(),
            &WorkerPool::new(1),
        );
        let config = XMapConfig {
            mode,
            k: 2,
            privacy: PrivacyConfig {
                epsilon,
                ..PrivacyConfig::default()
            },
            ..Default::default()
        };
        (toy, table, config)
    }

    /// The AlterEgo of `user` over a materialised table: the one mapping, as
    /// `ModelEpoch::alterego` calls it.
    fn generate(
        toy: &ToyScenario,
        replacements: &ReplacementTable,
        config: &XMapConfig,
        user: UserId,
    ) -> AlterEgo {
        map_profile(
            |item| replacements.replacement(item),
            &toy.matrix,
            user,
            DomainId::SOURCE,
            DomainId::TARGET,
            config.transfer,
        )
    }

    #[test]
    fn non_private_replacement_is_the_best_xsim_match() {
        let (_, table, config) = setup(XMapMode::NxMapItemBased, 0.3);
        let gen = ReplacementTable::compute_replacements_serial(&table, &config);
        assert!(!config.mode.is_private());
        for (item, replacement) in gen.iter() {
            assert_eq!(Some(replacement), table.best_match(item).map(|e| e.item));
        }
        assert!(!gen.is_empty());
    }

    #[test]
    fn alice_gets_a_book_alterego_despite_never_rating_books() {
        let (toy, table, config) = setup(XMapMode::NxMapItemBased, 0.3);
        let gen = ReplacementTable::compute_replacements_serial(&table, &config);
        let alter = generate(&toy, &gen, &config, users::ALICE);
        assert!(
            !alter.is_empty(),
            "Alice's AlterEgo must contain mapped book ratings"
        );
        assert_eq!(alter.n_mapped, alter.profile.len());
        for &(item, value, _) in &alter.profile {
            assert_eq!(toy.matrix.item_domain(item), DomainId::TARGET);
            assert!((1.0..=5.0).contains(&value));
        }
    }

    #[test]
    fn mapped_profile_preserves_rating_values_and_timesteps() {
        let (toy, table, config) = setup(XMapMode::NxMapItemBased, 0.3);
        let gen = ReplacementTable::compute_replacements_serial(&table, &config);
        let alter = generate(&toy, &gen, &config, users::ALICE);
        // Alice rated Interstellar 5.0 at t=0; its replacement entry must carry 5.0.
        let interstellar_replacement = gen.replacement(items::INTERSTELLAR);
        if let Some(rep) = interstellar_replacement {
            if let Some(&(_, value, t)) = alter.profile.iter().find(|&&(i, _, _)| i == rep) {
                // the replacement may also receive The Martian's rating if both map to the
                // same book; in that case the later timestep (The Martian, t=1) wins
                assert!(value == 5.0 || value == 4.0);
                assert!(t.0 <= 1);
            }
        }
    }

    #[test]
    fn own_target_ratings_are_appended_and_override_mapped_ones() {
        let (toy, table, config) = setup(XMapMode::NxMapItemBased, 0.3);
        let gen = ReplacementTable::compute_replacements_serial(&table, &config);
        // Cecilia has genuinely rated The Forever War (5.0) and Dune (4.0): those real
        // ratings must appear exactly once each, overriding any mapped entry.
        let alter = generate(&toy, &gen, &config, users::CECILIA);
        let forever_war: Vec<_> = alter
            .profile
            .iter()
            .filter(|&&(i, _, _)| i == items::THE_FOREVER_WAR)
            .collect();
        assert_eq!(forever_war.len(), 1);
        assert_eq!(forever_war[0].1, 5.0);
        let dune: Vec<_> = alter
            .profile
            .iter()
            .filter(|&&(i, _, _)| i == items::DUNE)
            .collect();
        assert_eq!(dune.len(), 1);
        assert_eq!(dune[0].1, 4.0);
        assert!(alter.n_mapped <= alter.profile.len());
    }

    #[test]
    fn user_with_no_source_profile_gets_only_their_target_ratings() {
        let (toy, table, config) = setup(XMapMode::NxMapItemBased, 0.3);
        let gen = ReplacementTable::compute_replacements_serial(&table, &config);
        // Eve rated only books.
        let alter = generate(&toy, &gen, &config, users::EVE);
        assert_eq!(alter.n_mapped, 0);
        assert_eq!(alter.profile.len(), 3);
        assert!(alter
            .profile
            .iter()
            .any(|&(i, _, _)| i == items::ENDERS_GAME));
    }

    #[test]
    fn private_replacements_stay_within_candidate_sets() {
        let (_, table, config) = setup(XMapMode::XMapItemBased, 0.3);
        let gen = ReplacementTable::compute_replacements_serial(&table, &config);
        assert!(config.mode.is_private());
        for (item, replacement) in gen.iter() {
            assert!(
                table.candidates(item).iter().any(|c| c.item == replacement),
                "private replacement must come from the candidate set"
            );
        }
    }

    #[test]
    fn private_generation_is_deterministic_per_seed() {
        let (_, table, config) = setup(XMapMode::XMapItemBased, 0.5);
        let a = ReplacementTable::compute_replacements_serial(&table, &config);
        let b = ReplacementTable::compute_replacements_serial(&table, &config);
        let pa: Vec<_> = a.iter().collect();
        let pb: Vec<_> = b.iter().collect();
        let mut pa = pa;
        let mut pb = pb;
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb);
    }

    #[test]
    fn high_epsilon_private_mapping_matches_non_private_mapping_often() {
        // With a very weak privacy requirement the exponential mechanism almost always
        // picks the best candidate, so PRS degrades gracefully to the NX-Map mapping
        // (the paper notes X-Map "inherently transforms to NX-Map" as ε grows, §6.3).
        let (_, table, cfg_private) = setup(XMapMode::XMapItemBased, 100.0);
        let (_, _, cfg_plain) = setup(XMapMode::NxMapItemBased, 0.3);
        let private = ReplacementTable::compute_replacements_serial(&table, &cfg_private);
        let plain = ReplacementTable::compute_replacements_serial(&table, &cfg_plain);
        let mut agree = 0;
        let mut total = 0;
        for (item, rep) in plain.iter() {
            total += 1;
            if private.replacement(item) == Some(rep) {
                agree += 1;
            }
        }
        assert!(total > 0);
        assert!(
            agree * 2 >= total,
            "with ε=100 most replacements should agree ({agree}/{total})"
        );
    }

    #[test]
    fn batched_replacements_are_bit_equal_to_serial_at_1_2_and_8_workers() {
        use xmap_engine::{fn_stage, Dataflow, StageContext};
        // Both modes matter: the non-private path must pick identical best matches, the
        // private path must replay identical per-item RNG streams from any partition.
        for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
            let (_, table, config) = setup(mode, 0.5);
            let serial = ReplacementTable::compute_replacements_serial(&table, &config);
            let mut reference_costs: Option<Vec<f64>> = None;
            for workers in [1usize, 2, 8] {
                let flow = Dataflow::new(workers, 4);
                let batched = flow.run(
                    &fn_stage(
                        "generator",
                        |xsim: &XSimTable, cx: &mut StageContext<'_>| {
                            ReplacementTable::build(xsim, &config, cx)
                        },
                    ),
                    &table,
                );
                let mut serial_pairs: Vec<_> = serial.iter().collect();
                let mut batched_pairs: Vec<_> = batched.iter().collect();
                serial_pairs.sort();
                batched_pairs.sort();
                assert_eq!(
                    batched_pairs, serial_pairs,
                    "{mode:?} at {workers} workers diverged from the serial generator"
                );
                let costs = flow
                    .stage_costs("generator")
                    .expect("generator records task costs");
                assert_eq!(costs.len(), 4, "one task cost per partition");
                match &reference_costs {
                    None => reference_costs = Some(costs),
                    Some(expected) => {
                        assert_eq!(&costs, expected, "{workers} workers changed costs")
                    }
                }
            }
        }
    }
}
