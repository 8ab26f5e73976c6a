//! Ingest: a batch of ratings is folded into the matrix and the model is rebuilt,
//! with build-aside-then-publish epoch semantics.
//!
//! [`XMapModel::apply_delta`] runs recovery's code on one batch: [`fold`] it into the
//! served epoch's [`RatingMatrix`] (`RatingMatrix::apply_delta`: row merges and copied
//! averages, no re-sort), run the model's one build (`pipeline::build_epoch`) over the
//! result, journal the batch, publish the epoch. Nothing is maintained incrementally —
//! as in the paper, the tables are one batch computation over the ratings — so the
//! published model is a full refit on the updated matrix, bit for bit
//! (`tests/incremental_equivalence.rs`, all four modes at 1/2/8 workers).
//!
//! ## Build aside, swap, drain, retire
//!
//! `apply_delta` is `&self`: it builds the next [`crate::ModelEpoch`] aside, as one
//! `"delta"` stage on the model's own dataflow — whose task bag, in the
//! [`XMapModel::ledger`], is a refit's four bags concatenated — and publishes it with
//! one pointer swap on the model's `EpochHandle`. Readers serving from the previous
//! epoch finish undisturbed; the old epoch is retired once its last snapshot drops.
//! Writers serialize on the model's ingest lock.

use crate::pipeline::{build_epoch, Ledgers, XMapModel};
use crate::{Result, XMapError};
use std::sync::Arc;
use xmap_cf::{DomainId, ItemId, Rating, RatingMatrix, Timestep, UserId};
use xmap_engine::{fn_stage, StageContext};

/// Ledger key of the delta stage.
pub const DELTA_STAGE_NAME: &str = "delta";

/// A batch of rating-trace updates: new or updated ratings (possibly introducing new
/// users) plus domain declarations for new items.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RatingDelta {
    ratings: Vec<Rating>,
    item_domains: Vec<(ItemId, DomainId)>,
}

impl RatingDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rating event (a new cell, an update of an existing one, or a rating by a
    /// brand-new user). Duplicate `(user, item)` events follow the rating matrix's
    /// semantics: the latest timestep wins, ties won by the later push.
    pub fn push(&mut self, rating: Rating) -> &mut Self {
        self.ratings.push(rating);
        self
    }

    /// Adds a rating by raw ids with an explicit timestep.
    pub fn push_timed(&mut self, user: u32, item: u32, value: f64, t: u32) -> &mut Self {
        self.push(Rating::at(UserId(user), ItemId(item), value, Timestep(t)))
    }

    /// Declares the domain of a (typically new) item. Redeclaring an existing item with
    /// its current domain is a no-op; declaring a *different* domain is rejected by
    /// [`XMapModel::apply_delta`] — domain migration needs a fit of its own.
    pub fn declare_item(&mut self, item: ItemId, domain: DomainId) -> &mut Self {
        self.item_domains.push((item, domain));
        self
    }

    /// The rating events of the delta, in push order.
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// The item-domain declarations of the delta, in push order.
    pub fn item_domains(&self) -> &[(ItemId, DomainId)] {
        &self.item_domains
    }

    /// Number of rating events.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether the delta carries no rating events.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }
}

/// On-disk codec for a delta — the journal's record payload: the rating events and
/// item-domain declarations verbatim, in push order (replay must see exactly the
/// batch `apply_delta` saw).
impl xmap_store::Codec for RatingDelta {
    fn enc(&self, e: &mut xmap_store::Encoder) {
        self.ratings.enc(e);
        self.item_domains.enc(e);
    }

    fn dec(d: &mut xmap_store::Decoder<'_>) -> std::result::Result<Self, xmap_store::StoreError> {
        Ok(RatingDelta {
            ratings: Vec::dec(d)?,
            item_domains: Vec::dec(d)?,
        })
    }
}

/// What a delta's build computed: the counts of a fit on the updated matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// The epoch this delta published (monotonic; the fit itself is epoch 1).
    pub epoch: u64,
    /// Rating events applied.
    pub n_delta_ratings: usize,
    /// Co-rated pairs scored for the similarity graph: every pair of the updated
    /// matrix.
    pub n_rescored_pairs: usize,
    /// X-Sim source rows computed: every source-domain item of the updated matrix.
    pub n_xsim_rows: usize,
    /// Item-kNN pools fitted: every item of the updated matrix (always 0 for the
    /// user-based modes).
    pub n_pool_refits: usize,
    /// Byte offset of this delta's record in the attached journal, or `None` when
    /// the model has no store attached. Written *before* the epoch was published
    /// (write-ahead), so a crash after `apply_delta` returns can always replay it.
    pub journal_offset: Option<u64>,
}

/// `full` with `delta` folded in: the write step that [`XMapModel::apply_delta`] and
/// recovery share, ahead of the build. A domain redeclaration of an existing item and
/// an id past the matrix's growth rule ([`RatingMatrix::check_delta_growth`]) are
/// refused as `XMapError::Data` — such an id would size the matrix, the graph arena
/// and every dense buffer by the id instead of by the data — and non-finite ratings
/// propagate from the matrix layer.
pub(crate) fn fold(delta: &RatingDelta, full: &RatingMatrix) -> Result<RatingMatrix> {
    for &(item, domain) in delta.item_domains() {
        if item.index() < full.n_items() && full.item_domain(item) != domain {
            return Err(XMapError::Data(format!(
                "delta redeclares item {item} from {:?} to {domain:?}; domain migration \
                 requires a full refit",
                full.item_domain(item)
            )));
        }
    }
    full.check_delta_growth(delta.ratings(), delta.item_domains())
        .map_err(|e| XMapError::Data(e.to_string()))?;
    Ok(full.apply_delta(delta.ratings(), delta.item_domains())?)
}

impl XMapModel {
    /// Absorbs a batch of new/updated ratings into the fitted model **without blocking
    /// readers**: the batch is folded into the matrix, the next [`crate::ModelEpoch`] is
    /// built aside over it and published with a single pointer swap. The resulting
    /// model — graph bits, replacement table, kNN pools, predictions, privacy ledger —
    /// is **bit-identical to a full [`crate::XMapModel::fit`] on the updated matrix**.
    /// The published epoch is stamped into [`DeltaReport::epoch`].
    ///
    /// Readers that snapshotted the previous epoch keep serving it undisturbed; the old
    /// epoch is retired once its last snapshot drops. Concurrent `apply_delta` calls
    /// serialize on the model's ingest lock.
    ///
    /// The build runs as one `"delta"` stage on the model's own dataflow; its
    /// per-partition data-derived task costs (the [ledger](XMapModel::ledger)'s `delta`
    /// entry) are identical at any worker count. For the private modes the delta
    /// re-releases every artifact, so a **fresh** privacy accountant is charged exactly
    /// like a refit (ε for PRS, ε′ for PNSA + PNCF) and replaces the previous ledger.
    ///
    /// Errors leave the model untouched (no epoch is published, nothing is journalled):
    /// domain redeclarations of existing items and ids past what the delta's own size
    /// can grow the model to are rejected (`XMapError::Data`), non-finite ratings
    /// propagate from the matrix layer, and an exhausted privacy budget aborts before
    /// anything is released.
    pub fn apply_delta(&self, delta: &RatingDelta) -> Result<DeltaReport> {
        let _ingest = self
            .ingest_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_, base) = self.handle.load();
        let updated = Arc::new(fold(delta, &base.full)?);
        let (next, mut report) = self.flow.run(
            &fn_stage(DELTA_STAGE_NAME, |(), cx: &mut StageContext<'_>| {
                build_epoch(
                    base.config,
                    base.source_domain,
                    base.target_domain,
                    &updated,
                    Ledgers::Running(cx),
                    || Arc::clone(&updated),
                )
            }),
            (),
        )?;
        report.n_delta_ratings = delta.len();

        // --- Write-ahead journal: with a store attached, the delta record must be
        // durable (appended + fsynced) *before* the epoch it produces becomes
        // visible. An append failure aborts with nothing published, so the model —
        // in memory and on disk — is left exactly as it was. Still under the ingest
        // lock, so journal order is publish order. ---
        {
            let mut store = self
                .store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(store) = store.as_mut() {
                let next_epoch = self.handle.epoch() + 1;
                report.journal_offset = Some(store.append(next_epoch, delta)?);
            }
        }

        // --- Publish: one pointer swap; readers on the base epoch drain and the base
        // retires with its last snapshot. ---
        report.epoch = self.handle.publish(Arc::new(next));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{XMapConfig, XMapMode};
    use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};

    fn dataset() -> CrossDomainDataset {
        CrossDomainDataset::generate(CrossDomainConfig::small())
    }

    fn config(mode: XMapMode) -> XMapConfig {
        XMapConfig {
            mode,
            k: 8,
            ..Default::default()
        }
    }

    /// The delta model must hold the same released artifacts as a full refit on the
    /// updated matrix: matrix bits, graph bits, X-Sim rows, replacement table and
    /// probe predictions. (The 1/2/8-worker, all-modes version of this lives in
    /// `tests/incremental_equivalence.rs`.)
    fn assert_matches_refit(model: &XMapModel, refit: &XMapModel, ds: &CrossDomainDataset) {
        let (_, m) = model.snapshot();
        let (_, r) = refit.snapshot();
        assert_eq!(m.full, r.full, "updated matrices diverged");
        assert_eq!(m.graph, r.graph, "graph arenas diverged");
        assert_eq!(m.xsim, r.xsim, "X-Sim tables diverged");
        assert_eq!(
            m.replacements, r.replacements,
            "replacement tables diverged"
        );
        assert_eq!(m.item_pools, r.item_pools, "kNN pools diverged");
        for &u in ds.overlap_users.iter().take(5) {
            for &i in ds.target_items().iter().take(8) {
                assert_eq!(
                    model.predict(u, i).to_bits(),
                    refit.predict(u, i).to_bits(),
                    "prediction diverged for {u}/{i}"
                );
            }
        }
    }

    #[test]
    fn empty_delta_equals_a_refit_on_the_same_matrix() {
        let ds = dataset();
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        let report = model.apply_delta(&RatingDelta::new()).unwrap();
        assert_eq!(report.n_delta_ratings, 0);
        assert_eq!(report.epoch, 2, "the delta must publish the next epoch");
        let refit = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert_matches_refit(&model, &refit, &ds);
        assert!(model.flow.stage_costs(DELTA_STAGE_NAME).is_some());
    }

    #[test]
    fn delta_with_a_brand_new_user_and_item_equals_a_refit() {
        let ds = dataset();
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        let new_user = ds.matrix.n_users() as u32;
        let new_item = ds.matrix.n_items() as u32;
        let existing_source = ds.source_items()[0];
        let existing_target = ds.target_items()[0];
        let mut delta = RatingDelta::new();
        delta
            .declare_item(ItemId(new_item), DomainId::TARGET)
            .push_timed(new_user, existing_source.0, 5.0, 50)
            .push_timed(new_user, existing_target.0, 4.0, 51)
            .push_timed(new_user, new_item, 3.0, 52)
            .push_timed(ds.overlap_users[0].0, new_item, 5.0, 53);
        let report = model.apply_delta(&delta).unwrap();
        assert_eq!(report.n_delta_ratings, 4);
        assert!(report.n_rescored_pairs > 0);
        assert_eq!(report.epoch, model.epoch());
        let updated = ds
            .matrix
            .apply_delta(delta.ratings(), delta.item_domains())
            .unwrap();
        let refit = XMapModel::fit(
            &updated,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert_matches_refit(&model, &refit, &ds);
        // the new user must be servable straight away
        let pred = model.predict(UserId(new_user), existing_target);
        assert_eq!(
            pred.to_bits(),
            refit.predict(UserId(new_user), existing_target).to_bits()
        );
    }

    #[test]
    fn repeated_deltas_to_the_same_cell_equal_a_refit() {
        let ds = dataset();
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        let user = ds.overlap_users[0];
        let item = ds.target_items()[0];
        // one batch carrying several updates of the same cell...
        let mut delta = RatingDelta::new();
        delta
            .push_timed(user.0, item.0, 1.0, 90)
            .push_timed(user.0, item.0, 2.0, 91)
            .push_timed(user.0, item.0, 5.0, 91);
        model.apply_delta(&delta).unwrap();
        // ... followed by a second incremental batch touching it again
        let mut second = RatingDelta::new();
        second.push_timed(user.0, item.0, 3.0, 92);
        model.apply_delta(&second).unwrap();
        assert_eq!(model.matrix().rating(user, item), Some(3.0));
        let updated = ds
            .matrix
            .apply_delta(delta.ratings(), &[])
            .unwrap()
            .apply_delta(second.ratings(), &[])
            .unwrap();
        let refit = XMapModel::fit(
            &updated,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert_matches_refit(&model, &refit, &ds);
    }

    #[test]
    fn sequential_deltas_bump_the_epoch_monotonically() {
        let ds = dataset();
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert_eq!(model.epoch(), 1);
        let user = ds.overlap_users[0];
        let item = ds.target_items()[0];
        let (_, epoch_one) = model.snapshot();
        let before = epoch_one.recommend(user, 3);
        for step in 0..3u32 {
            let mut delta = RatingDelta::new();
            delta.push_timed(user.0, item.0, 1.0 + step as f64, 100 + step);
            let report = model.apply_delta(&delta).unwrap();
            assert_eq!(report.epoch, 2 + step as u64);
            assert_eq!(model.epoch(), report.epoch);
        }
        // The pre-delta snapshot still answers from its own epoch, bit for bit —
        // publication never mutates a live snapshot.
        assert_eq!(epoch_one.recommend(user, 3), before);
    }

    #[test]
    fn ids_past_what_a_delta_can_grow_the_model_to_are_refused_without_side_effects() {
        let ds = dataset();
        let cfg = config(XMapMode::NxMapItemBased);
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        let dir = std::env::temp_dir().join(format!("xmap_id_bound_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        model.persist(&dir).unwrap();
        let (n_users, n_items) = (ds.matrix.n_users() as u32, ds.matrix.n_items() as u32);

        // At the bound: two events and one declaration may name user `n_users + 1` and
        // item `n_items + 2`, leaving an unrated user and two unrated items behind them.
        let mut at_bound = RatingDelta::new();
        at_bound
            .declare_item(ItemId(n_items + 2), DomainId::TARGET)
            .push_timed(n_users + 1, n_items + 2, 4.0, 90)
            .push_timed(ds.overlap_users[0].0, n_items + 2, 5.0, 91);
        assert_eq!(model.apply_delta(&at_bound).unwrap().epoch, 2);
        let updated = ds
            .matrix
            .apply_delta(at_bound.ratings(), at_bound.item_domains())
            .unwrap();
        assert_eq!(
            (updated.n_users() as u32, updated.n_items() as u32),
            (n_users + 2, n_items + 3)
        );
        let refit = XMapModel::fit(&updated, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        assert_matches_refit(&model, &refit, &ds);

        // One past the bound, and `u32::MAX` as a user, a rated item and a declaration.
        let (n_users, n_items) = (n_users + 2, n_items + 3);
        let rating = |user: u32, item: u32| {
            let mut delta = RatingDelta::new();
            delta.push_timed(user, item, 3.0, 99);
            delta
        };
        let declaration = |item: u32| {
            let mut delta = RatingDelta::new();
            delta.declare_item(ItemId(item), DomainId::TARGET);
            delta
        };
        let hostile = [
            rating(n_users + 1, 0),
            rating(0, n_items + 1),
            declaration(n_items + 1),
            rating(u32::MAX, 0),
            rating(0, u32::MAX),
            declaration(u32::MAX),
        ];
        let (_, before) = model.snapshot();
        let journal_before = model.journal_len_bytes();
        let check_untouched = |model: &XMapModel| {
            assert_eq!(model.epoch(), 2, "no epoch may publish on error");
            assert!(Arc::ptr_eq(&model.snapshot().1, &before));
            assert_eq!(model.journal_len_bytes(), journal_before);
        };
        for delta in &hostile {
            let err = model.apply_delta(delta).unwrap_err();
            assert!(matches!(err, XMapError::Data(_)), "{err}");
            assert!(err.to_string().contains("can grow the matrix"), "{err}");
            check_untouched(&model);
        }
        // The routed ingest refuses on the coordinator, ahead of any shard journal.
        let mut sharded = crate::ShardedModel::from_model(model, 2).unwrap();
        for delta in &hostile {
            assert!(matches!(sharded.ingest(delta), Err(XMapError::Data(_))));
            check_untouched(sharded.coordinator());
        }
        // ... and the ids just inside the bound still go through.
        sharded.ingest(&rating(n_users, n_items)).unwrap();
        assert_eq!(sharded.epoch(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn domain_redeclaration_of_an_existing_item_is_rejected_without_side_effects() {
        let ds = dataset();
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        let n_before = model.matrix().n_ratings();
        let epoch_before = model.epoch();
        let source_item = ds.source_items()[0];
        let mut delta = RatingDelta::new();
        delta
            .declare_item(source_item, DomainId::TARGET)
            .push_timed(0, source_item.0, 5.0, 99);
        let err = model.apply_delta(&delta).unwrap_err();
        assert!(matches!(err, XMapError::Data(_)));
        assert!(err.to_string().contains("full refit"));
        assert_eq!(
            model.matrix().n_ratings(),
            n_before,
            "model must be untouched"
        );
        assert_eq!(model.epoch(), epoch_before, "no epoch may publish on error");
        // redeclaring with the *current* domain is a no-op and succeeds
        let mut ok = RatingDelta::new();
        ok.declare_item(source_item, DomainId::SOURCE);
        assert!(model.apply_delta(&ok).is_ok());
        assert_eq!(model.epoch(), epoch_before + 1);
    }

    #[test]
    fn private_delta_recharges_a_fresh_budget_like_a_refit() {
        let ds = dataset();
        let cfg = config(XMapMode::XMapItemBased);
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        let mut delta = RatingDelta::new();
        delta.push_timed(ds.overlap_users[0].0, ds.target_items()[0].0, 5.0, 77);
        model.apply_delta(&delta).unwrap();
        let budget = model
            .privacy_budget()
            .expect("private modes carry a budget");
        let mechanisms: Vec<&str> = budget
            .ledger()
            .iter()
            .map(|e| e.mechanism.as_str())
            .collect();
        assert_eq!(mechanisms, vec!["PRS", "PNSA", "PNCF"]);
        assert!((budget.spent() - cfg.privacy.total()).abs() < 1e-12);
    }

    #[test]
    fn a_source_only_private_delta_debits_the_full_ledger() {
        let ds = dataset();
        let cfg = config(XMapMode::XMapItemBased);
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        let (_, base) = model.snapshot();
        // A delta that leaves the target domain alone still re-releases every artifact,
        // so it charges a fresh accountant exactly like a refit.
        let mut delta = RatingDelta::new();
        delta.push_timed(ds.overlap_users[0].0, ds.source_items()[0].0, 4.0, 60);
        model.apply_delta(&delta).unwrap();
        let (_, next) = model.snapshot();
        assert!(
            !Arc::ptr_eq(base.budget.as_ref().unwrap(), next.budget.as_ref().unwrap()),
            "the accountant itself is fresh per epoch"
        );
        let budget = model.privacy_budget().unwrap();
        let mechanisms: Vec<&str> = budget
            .ledger()
            .iter()
            .map(|e| e.mechanism.as_str())
            .collect();
        assert_eq!(mechanisms, vec!["PRS", "PNSA", "PNCF"]);
        assert!((budget.spent() - cfg.privacy.total()).abs() < 1e-12);
    }

    #[test]
    fn the_epoch_and_its_recommender_hold_one_pool_table() {
        // The recommender sits behind `dyn`, so its `Arc`s are counted rather than
        // compared: the epoch's pool table, and X-Map-ib's release, have exactly two
        // owners — the epoch and the recommender built over it (`recommend::tests`
        // holds the constructor to `Arc::ptr_eq`). A copy on the way into or out of
        // `recommend::build` would leave one.
        fn assert_shared(model: &XMapModel, when: &str) {
            let (_, epoch) = model.snapshot();
            let pools = epoch
                .item_pools
                .as_ref()
                .expect("item-based modes keep pools");
            assert_eq!(
                Arc::strong_count(pools),
                2,
                "{when}: the pool table was copied"
            );
            let mode = epoch.config().mode;
            assert_eq!(epoch.item_release.is_some(), mode.is_private(), "{when}");
            if let Some(release) = &epoch.item_release {
                assert_eq!(
                    Arc::strong_count(release),
                    2,
                    "{when}: the release was copied"
                );
            }
        }
        let ds = dataset();
        for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
            let model =
                XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config(mode))
                    .unwrap();
            assert_shared(&model, "after fit");
            let mut delta = RatingDelta::new();
            delta.push_timed(ds.overlap_users[0].0, ds.target_items()[0].0, 5.0, 77);
            let report = model.apply_delta(&delta).unwrap();
            assert!(
                report.n_pool_refits > 0,
                "the delta must touch the target domain"
            );
            assert_shared(&model, "after apply_delta");
            let dir = std::env::temp_dir().join(format!(
                "xmap_pool_sharing_{}_{}",
                std::process::id(),
                mode.label()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            model.persist(&dir).unwrap();
            assert_shared(&XMapModel::open(&dir).unwrap(), "after persist → open");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rating_delta_accessors() {
        let mut d = RatingDelta::new();
        assert!(d.is_empty());
        d.push_timed(3, 1, 4.0, 2).push_timed(1, 2, 5.0, 3);
        d.push_timed(3, 4, 2.0, 4);
        d.declare_item(ItemId(9), DomainId::TARGET);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.ratings().len(), 3);
        assert_eq!(d.item_domains(), &[(ItemId(9), DomainId::TARGET)]);
    }
}
