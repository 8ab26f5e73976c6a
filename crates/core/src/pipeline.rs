//! The end-to-end X-Map pipeline (Figure 4): baseliner → extender → generator →
//! recommender.
//!
//! The four components are the four steps of **one** build (`build_epoch`), run on
//! the `xmap-engine` [`Dataflow`] runner, which owns partitioning, pool execution and
//! per-stage accounting (see `DESIGN.md`). [`XMapModel::fit`], `XMapModel::apply_delta`
//! (`crate::delta`) and recovery (`crate::persist`) all run it whole over their matrix.
//! A fit records each step under its own ledger name ([`FIT_STAGE_NAMES`]), a delta
//! all four under `delta`.
//!
//! Every step runs partition-parallel with a bit-identity contract: the released
//! model and the recorded per-partition task costs are identical at any worker count.
//! The two steps that score item pairs — the baseliner (`gather_pairs`) and the
//! item-kNN pool fit (`fit_item_pools`) — partition *items* and score each item's row
//! in one `xmap_cf::similarity::ItemRowKernel` gather; the per-pair profile merge
//! survives only as the oracle of the serial references. The scalability experiment
//! (Figure 11) replays the [`XMapModel::ledger`]'s task costs on the cluster
//! simulator; measured fit times are the benchmark's (`benchmark/`).
//!
//! ## Serve-while-updating: epoch-published snapshots
//!
//! The released artifacts of a build live in an immutable [`ModelEpoch`] behind an
//! atomically swappable [`EpochHandle`]. Readers ([`XMapModel::recommend`],
//! [`XMapModel::serve_profiles`], …) take a wait-free reference-counted snapshot and
//! answer entirely from it; a delta builds the next epoch *aside* and publishes it with
//! a single pointer swap. A reader therefore always sees one self-consistent model
//! version, and ingestion never blocks serving. [`XMapModel`] stores nothing its epoch
//! stores and delegates every read to a snapshot in one line; a served batch
//! (`serve_on`) is the same per-profile read run as one `recommend` stage.

use crate::config::XMapConfig;
use crate::delta::DeltaReport;
use crate::generator::{self, AlterEgo, ReplacementTable};
use crate::recommend::{self, NeighborTable, ProfileRecommender, SharedRecommender};
use crate::xsim::XSimTable;
use crate::{Result, XMapError};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use xmap_cf::knn::{ItemNeighbor, Profile};
use xmap_cf::similarity::{ItemRowKernel, Partners, RowScratch};
use xmap_cf::{
    DomainId, ItemId, ItemKnn, ItemKnnConfig, RatingMatrix, SimilarityMetric, SimilarityStats,
    UserId,
};
use xmap_engine::{fn_stage, Dataflow, EpochHandle, StageContext, StageReport};
use xmap_eval::{EvalBatch, EvalReport, EvalStage, EvalTarget};
use xmap_graph::{GraphConfig, LayerPartition, SimilarityGraph};
use xmap_privacy::PrivacyBudget;

/// The ledger names of a fit's four stages, in pipeline order. A fit's task bag is
/// these entries' costs concatenated in this order; a delta records all four steps
/// under [`crate::DELTA_STAGE_NAME`].
pub const FIT_STAGE_NAMES: [&str; 4] = ["baseliner", "extender", "generator", "recommender"];

/// One immutable, self-consistent version of a fitted X-Map model.
///
/// Every released artifact of the build — the aggregated matrix, the baseline graph,
/// the X-Sim table, the replacement table, the recommender, its raw kNN pools and
/// X-Map-ib's release, the privacy accountant — is held behind its own `Arc`, so the
/// recommender and the model's accessors hold a piece without copying it. Readers
/// obtain an epoch via [`XMapModel::snapshot`] and answer queries entirely from it; an
/// epoch never mutates after publication, so a snapshot is always self-consistent
/// regardless of concurrent ingestion.
pub struct ModelEpoch {
    pub(crate) config: XMapConfig,
    pub(crate) source_domain: DomainId,
    pub(crate) target_domain: DomainId,
    pub(crate) full: Arc<RatingMatrix>,
    /// The baseline similarity graph: the X-Sim table's input, kept as the artifact
    /// the equivalence gates compare.
    pub(crate) graph: Arc<SimilarityGraph>,
    pub(crate) replacements: Arc<ReplacementTable>,
    pub(crate) xsim: Arc<XSimTable>,
    pub(crate) recommender: SharedRecommender,
    /// The fitted item-kNN pools of the item-based modes, kept for the shard cut —
    /// the same allocation `recommender` reads, not a second copy.
    /// `None` for the user-based modes, which precompute nothing at fit time.
    pub(crate) item_pools: Option<NeighborTable>,
    /// X-Map-ib's release, drawn once by the build that made this epoch: the table
    /// `recommender` scores from, whose rows every shard copies. Never persisted — a
    /// recovery's fit redraws it from the seed.
    pub(crate) item_release: Option<NeighborTable>,
    /// The privacy accountant of this epoch (private modes only): PRS plus PNSA/PNCF.
    pub(crate) budget: Option<Arc<PrivacyBudget>>,
}

impl ModelEpoch {
    /// The configuration the model was fitted with.
    pub fn config(&self) -> &XMapConfig {
        &self.config
    }

    /// The source domain (where users are assumed to have history).
    pub fn source_domain(&self) -> DomainId {
        self.source_domain
    }

    /// The target domain (where recommendations are produced).
    pub fn target_domain(&self) -> DomainId {
        self.target_domain
    }

    /// The aggregated two-domain rating matrix this epoch was fitted (or delta-fitted) on.
    pub fn matrix(&self) -> &RatingMatrix {
        &self.full
    }

    /// The baseline similarity graph of this epoch.
    pub fn graph(&self) -> &SimilarityGraph {
        &self.graph
    }

    /// The heterogeneous X-Sim table of this epoch.
    pub fn xsim(&self) -> &XSimTable {
        &self.xsim
    }

    /// The item-to-item replacement table of this epoch.
    pub fn replacements(&self) -> &ReplacementTable {
        &self.replacements
    }

    /// The privacy accountant of this epoch: `Some` for the private modes, else `None`.
    pub fn privacy_budget(&self) -> Option<&PrivacyBudget> {
        self.budget.as_deref()
    }

    /// Display label of the active recommender variant.
    pub fn label(&self) -> &'static str {
        self.recommender.label()
    }

    /// The AlterEgo profile of a user in the target domain.
    pub fn alterego(&self, user: UserId) -> AlterEgo {
        generator::map_profile(
            |item| self.replacements.replacement(item),
            &self.full,
            user,
            self.source_domain,
            self.target_domain,
            self.config.transfer,
        )
    }

    /// Predicted rating of a target-domain item for a user, driven by their AlterEgo.
    pub fn predict(&self, user: UserId, item: ItemId) -> f64 {
        let alter = self.alterego(user);
        self.recommender.predict_for_profile(&alter.profile, item)
    }

    /// Top-N target-domain recommendations for a user, excluding items already present
    /// in their AlterEgo profile (mapped or genuinely rated).
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        let alter = self.alterego(user);
        self.recommender.recommend_for_profile(&alter.profile, n)
    }

    /// Predicted rating for an explicit (possibly artificial) target-domain profile.
    pub fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> f64 {
        self.recommender.predict_for_profile(profile, item)
    }

    /// Top-N recommendations for an explicit target-domain profile.
    pub fn recommend_for_profile(&self, profile: &Profile, n: usize) -> Vec<(ItemId, f64)> {
        self.recommender.recommend_for_profile(profile, n)
    }
}

impl EvalTarget for ModelEpoch {
    fn predict(&self, user: UserId, item: ItemId) -> f64 {
        ModelEpoch::predict(self, user, item)
    }

    fn recommend(&self, user: UserId, n: usize) -> Vec<ItemId> {
        ModelEpoch::recommend(self, user, n)
            .into_iter()
            .map(|(item, _)| item)
            .collect()
    }
}

/// A fitted X-Map model: an epoch-published immutable snapshot ([`ModelEpoch`]) behind
/// an atomically swappable handle, plus the mutable ingest side (the dataflow runner
/// and the attached store). It stores nothing its epoch stores:
/// configuration and domains are read from the snapshot.
///
/// All query methods are `&self` and answer from a wait-free snapshot of the current
/// epoch; [`crate::delta`]'s `apply_delta` is *also* `&self` — it builds the next epoch
/// aside and publishes it with one pointer swap, so serving continues (on the previous
/// epoch) while an update is in flight. Concurrent `apply_delta` calls serialize on an
/// internal ingest lock.
pub struct XMapModel {
    /// The epoch-publication handle: readers snapshot, the delta fit publishes.
    pub(crate) handle: EpochHandle<ModelEpoch>,
    /// The dataflow runner the model was fitted on, kept for deltas and batched serving
    /// so that their task costs land in the same ledger as the fit stages.
    pub(crate) flow: Dataflow,
    /// Serializes writers: `apply_delta` holds this for its whole build-aside phase.
    pub(crate) ingest_lock: Mutex<()>,
    /// The attached durable store (snapshot path + open journal), `None` for a
    /// purely in-memory model. Attached by [`XMapModel::persist`] /
    /// [`XMapModel::open`] / [`XMapModel::recover`]; when attached, `apply_delta`
    /// write-ahead journals every delta before publishing its epoch.
    pub(crate) store: Mutex<Option<crate::persist::ModelStore>>,
}

impl XMapModel {
    /// The one constructor: a model serving `epoch` as epoch number `epoch_no`, with the
    /// dataflow that built it (a fit) or a fresh one (a recovery, whose fit ran on a
    /// dataflow of its own) and no store attached.
    pub(crate) fn from_epoch(epoch: ModelEpoch, epoch_no: u64, flow: Dataflow) -> XMapModel {
        XMapModel {
            handle: EpochHandle::new(Arc::new(epoch), epoch_no),
            flow,
            ingest_lock: Mutex::new(()),
            store: Mutex::new(None),
        }
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> XMapConfig {
        self.snap().config
    }

    /// The source domain (where users are assumed to have history).
    pub fn source_domain(&self) -> DomainId {
        self.snap().source_domain
    }

    /// The target domain (where recommendations are produced).
    pub fn target_domain(&self) -> DomainId {
        self.snap().target_domain
    }

    /// The current model epoch: 1 after a fresh fit, bumped by one on every published
    /// delta fit. Monotonically increasing for the lifetime of the model.
    pub fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    /// A wait-free snapshot of the current model version: `(epoch, Arc<ModelEpoch>)`.
    ///
    /// The returned epoch is immutable and self-consistent; it stays fully readable
    /// even if any number of delta fits publish after the snapshot is taken (the old
    /// epoch is retired only after its last snapshot is dropped).
    pub fn snapshot(&self) -> (u64, Arc<ModelEpoch>) {
        self.handle.load()
    }

    /// The current epoch's snapshot, when the caller does not need the epoch number.
    fn snap(&self) -> Arc<ModelEpoch> {
        self.handle.load().1
    }

    /// The item-to-item replacement table (the released artifact of the generator) of
    /// the current epoch.
    pub fn replacements(&self) -> Arc<ReplacementTable> {
        self.snap().replacements.clone()
    }

    /// The baseline similarity graph of the current epoch.
    pub fn graph(&self) -> Arc<SimilarityGraph> {
        self.snap().graph.clone()
    }

    /// The heterogeneous X-Sim table of the current epoch.
    pub fn xsim(&self) -> Arc<XSimTable> {
        self.snap().xsim.clone()
    }

    /// The aggregated two-domain rating matrix of the current epoch.
    pub fn matrix(&self) -> Arc<RatingMatrix> {
        self.snap().full.clone()
    }

    /// The model's ledger: the most recent run of each stage on its dataflow — the
    /// fit's four ([`FIT_STAGE_NAMES`]), then `recommend`, `eval` and `delta` as they
    /// first run — each with its wall-clock duration and data-derived task costs.
    /// Empty on a model reopened from a snapshot: its recovery's fit describes the
    /// reopening, not the model.
    pub fn ledger(&self) -> Vec<StageReport> {
        self.flow.reports()
    }

    /// Display label of the active recommender variant.
    pub fn label(&self) -> &'static str {
        self.snap().label()
    }

    /// The AlterEgo profile of a user in the target domain (current epoch).
    pub fn alterego(&self, user: UserId) -> AlterEgo {
        self.snap().alterego(user)
    }

    /// Predicted rating of a target-domain item for a user, driven by their AlterEgo
    /// (current epoch).
    pub fn predict(&self, user: UserId, item: ItemId) -> f64 {
        self.snap().predict(user, item)
    }

    /// Top-N target-domain recommendations for a user, excluding items already present in
    /// their AlterEgo profile (mapped or genuinely rated). Answers from the current epoch.
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        self.snap().recommend(user, n)
    }

    /// Serves a batch of explicit profiles: top-N per profile, in request order, all
    /// from **one** epoch snapshot taken at entry, as one `recommend` stage on the
    /// model's dataflow (see [`serve_on`]). Output is bit-identical to calling
    /// [`ModelEpoch::recommend_for_profile`] once per profile against that snapshot, at
    /// any worker count. The *recommendations* are safe to compute from any number of
    /// threads sharing the model; the [ledger](XMapModel::ledger), however, holds one
    /// entry per stage name, so concurrent batches overwrite each other's `recommend`
    /// entry (last writer wins: serve a batch from one thread to attribute its costs).
    pub fn serve_profiles(&self, profiles: &[Profile], n: usize) -> Vec<Vec<(ItemId, f64)>> {
        serve_on(&self.flow, self.snap().recommender.as_ref(), profiles, n)
    }

    /// The privacy accountant of the current epoch: `Some` for the private modes (with
    /// PRS, PNSA and PNCF ledger entries), `None` for the non-private ones.
    pub fn privacy_budget(&self) -> Option<Arc<PrivacyBudget>> {
        self.snap().budget.clone()
    }

    /// Evaluates the model over an [`EvalBatch`] on the dataflow engine: test triples
    /// and ranking cases are partitioned via the engine's ordered map, evaluated in
    /// parallel (against one epoch snapshot), and aggregated exactly like the serial
    /// reference ([`xmap_eval::evaluate_batch_serial`]) — the report is **bit-identical**
    /// to the serial protocol (and its `mae`/`rmse` to `evaluate_predictions`) at any
    /// worker count. Per-partition data-derived costs land in the ledger's `eval` entry.
    pub fn evaluate_batch(&self, batch: EvalBatch) -> EvalReport {
        let snap = self.snap();
        self.flow.run(&EvalStage::new(snap.as_ref()), batch)
    }
}

/// Stage name under which serving costs appear in the dataflow ledger.
pub(crate) const RECOMMEND_STAGE_NAME: &str = "recommend";

/// A served batch: one `recommend` stage on `flow`. Request *positions* are
/// hash-partitioned (the profiles stay borrowed in place), every partition is one pool
/// task answering each of its profiles with the single read, `recommend_for_profile` —
/// on its worker thread's scratch, like any other read — and recording `Σ (1 +
/// |profile|)`: serving work scales with profile size, and the "+1" keeps an empty
/// profile from being free on the simulated cluster. Partition contents depend on the
/// position alone and profiles are independent, so output and ledger are the same at
/// any worker count.
pub(crate) fn serve_on(
    flow: &Dataflow,
    recommender: &(dyn ProfileRecommender + Send + Sync),
    profiles: &[Profile],
    n: usize,
) -> Vec<Vec<(ItemId, f64)>> {
    let serve = |(), cx: &mut StageContext<'_>| {
        cx.map_items_ordered((0..profiles.len()).collect(), |_ix, part| {
            let served = part.iter().map(|&(_, pos)| &profiles[pos]);
            let cost: f64 = served.clone().map(|p| 1.0 + p.len() as f64).sum();
            let outs = served.map(|p| recommender.recommend_for_profile(p, n));
            (outs.collect(), cost)
        })
    };
    flow.run(&fn_stage(RECOMMEND_STAGE_NAME, serve), ())
}

/// The partition-parallel pair scoring of the baseliner step: every item's
/// [`ItemRowKernel::row`] above it, as `(canonical key, stats)` pairs, so each
/// unordered pair comes back exactly once, scored from its lower item. Each partition
/// hands back one flat run — never a `Vec` per row — and records the full rows' size
/// (`1 + Σ |profile(u)|` per row) as its cost; [`SimilarityGraph::from_runs`] orders
/// the runs.
fn gather_pairs(
    matrix: &RatingMatrix,
    metric: SimilarityMetric,
    cx: &mut StageContext<'_>,
) -> Vec<Vec<(u64, SimilarityStats)>> {
    let kernel = ItemRowKernel::new(matrix, metric);
    cx.map_partitions(
        matrix.items().collect(),
        |&item| item,
        |_ix, part| {
            let mut scratch = RowScratch::default();
            let mut run: Vec<(u64, SimilarityStats)> = Vec::new();
            let mut cost = 0.0f64;
            for &item in part {
                let (row, size) = kernel.row(item, &mut scratch, Partners::Above);
                cost += size;
                run.extend(
                    row.iter()
                        .map(|&(other, stats)| (SimilarityGraph::pair_key(item, other), stats)),
                );
            }
            (run, cost)
        },
    )
}

/// The partition-parallel item-kNN pool fit of the recommender step: one ordered map
/// over every item of `matrix`, each partition gathering its items' kernel rows through
/// one reused scratch — a row is the item's candidate set *and* the candidates'
/// similarities, in candidate order — and recording the entries walked as its cost.
/// The pool table comes back indexed by item.
fn fit_item_pools(
    matrix: &RatingMatrix,
    knn_config: &ItemKnnConfig,
    cx: &mut StageContext<'_>,
) -> Vec<Vec<ItemNeighbor>> {
    let kernel = ItemRowKernel::new(matrix, knn_config.metric);
    cx.map_items_ordered(matrix.items().collect(), |_ix, part| {
        let mut scratch = RowScratch::default();
        let mut outs = Vec::with_capacity(part.len());
        let mut cost = 0.0f64;
        for &(_, item) in part {
            let (row, walked) = kernel.row(item, &mut scratch, Partners::All);
            cost += walked;
            outs.push(ItemKnn::neighbors_from_row(row, knn_config.k));
        }
        (outs, cost)
    })
}

/// Where the steps of a build record their data-derived task costs.
pub(crate) enum Ledgers<'a, 'cx> {
    /// A fit: each step runs as a named stage of its own on the dataflow.
    Named(&'a Dataflow),
    /// A delta: the steps append to the one stage that is already running.
    Running(&'a mut StageContext<'cx>),
}

impl Ledgers<'_, '_> {
    fn step<R>(&mut self, name: &'static str, mut f: impl FnMut(&mut StageContext<'_>) -> R) -> R {
        match self {
            Ledgers::Named(flow) => {
                // A stage is `Fn`; a step may write its captures (the report, the budget).
                let f = RefCell::new(f);
                let stage = fn_stage(name, |(), cx: &mut StageContext<'_>| (f.borrow_mut())(cx));
                flow.run(&stage, ())
            }
            Ledgers::Running(cx) => f(cx),
        }
    }
}

/// The one build: the four steps of Figure 4 over `matrix`, then the epoch assembly.
/// A fit, a delta and a recovery all run it whole, and its result is bit-identical to
/// the serial reference of every step on `matrix` (see `DESIGN.md`).
///
/// Privacy: a fresh accountant per build, sized to exactly ε (PRS) + ε′ (PNSA + PNCF)
/// by sequential composition, and every mechanism debits it before releasing
/// anything; an exhausted budget fails the build. `full` supplies the epoch's matrix
/// and is called after the last step, so a fit's copy of the caller's matrix never
/// stacks on the steps' peak memory.
pub(crate) fn build_epoch(
    config: XMapConfig,
    source: DomainId,
    target: DomainId,
    matrix: &RatingMatrix,
    mut ledgers: Ledgers<'_, '_>,
    full: impl FnOnce() -> Arc<RatingMatrix>,
) -> Result<(ModelEpoch, DeltaReport)> {
    let mut budget = config
        .mode
        .is_private()
        .then(|| PrivacyBudget::new(config.privacy.total()));
    let mut report = DeltaReport::default();

    // --- 1. Baseliner: every item's row above it, then the graph's assembly. ---
    let graph = ledgers.step(FIT_STAGE_NAMES[0], |cx| {
        let runs = gather_pairs(matrix, config.metric, cx);
        report.n_rescored_pairs = runs.iter().map(Vec::len).sum();
        let graph_config = GraphConfig {
            metric: config.metric,
            top_k: Some(config.k),
            min_similarity: 0.0,
        };
        Arc::new(SimilarityGraph::from_runs(
            matrix,
            graph_config,
            runs,
            cx.pool(),
        ))
    });

    // --- 2. Extender: every source row by frontier expansion. ---
    let xsim = ledgers.step(FIT_STAGE_NAMES[1], |cx| {
        report.n_xsim_rows = matrix
            .items()
            .filter(|&i| matrix.item_domain(i) == source)
            .count();
        // Bridges and layers: cheap linear passes over the arena.
        let (_, partition) = LayerPartition::from_graph(&graph);
        Arc::new(XSimTable::build(
            &graph,
            &partition,
            source,
            config.metapath,
            cx,
        ))
    });

    // --- 3. Generator: PRS (one exponential-mechanism draw per item, reused for every
    // user) spends the generation-phase ε before the draws run, then every X-Sim row
    // is drawn. ---
    let replacements = ledgers.step(FIT_STAGE_NAMES[2], |cx| -> Result<_> {
        if let Some(budget) = &mut budget {
            budget.spend("PRS", config.privacy.epsilon)?;
        }
        Ok(Arc::new(ReplacementTable::build(&xsim, &config, cx)))
    })?;

    // --- 4. Recommender: ε′ (PNSA + PNCF) is debited before the pool fit, so an
    // exhausted budget fails the step without paying for it; then the item-kNN pools
    // (item-based modes) are fitted for every target-matrix item and every mode builds
    // through `recommend::build`, which draws X-Map-ib's release. ---
    let (recommender, pools, release) = ledgers.step(FIT_STAGE_NAMES[3], |cx| -> Result<_> {
        let no_ratings = || XMapError::Data("target domain has no ratings".to_string());
        let target_matrix = Arc::new(
            matrix
                .filter(|r| matrix.item_domain(r.item) == target)
                .map_err(|_| no_ratings())?,
        );
        if target_matrix.n_ratings() == 0 {
            return Err(no_ratings());
        }
        recommend::debit_stage_budget(&config, budget.as_mut())?;
        let pools = recommend::item_pool_config(&config).map(|knn_config| {
            report.n_pool_refits = target_matrix.n_items();
            Arc::new(fit_item_pools(&target_matrix, &knn_config, cx))
        });
        recommend::build(&config, target_matrix, pools.clone(), cx.pool())
            .map(|(recommender, release)| (recommender, pools, release))
    })?;

    let epoch = ModelEpoch {
        config,
        source_domain: source,
        target_domain: target,
        full: full(),
        graph,
        replacements,
        xsim,
        recommender,
        item_pools: pools,
        item_release: release,
        budget: budget.map(Arc::new),
    };
    Ok((epoch, report))
}

impl XMapModel {
    /// Fits an X-Map model on an aggregated rating matrix containing both domains —
    /// the entry point of the model lifecycle (`fit` → [`XMapModel::persist`] →
    /// [`XMapModel::apply_delta`] → [`XMapModel::open`] / [`XMapModel::recover`]).
    ///
    /// `source` is the domain users are assumed to have rated in; `target` is the domain
    /// recommendations are produced for. The two must be distinct and both present in the
    /// matrix. The fitted model starts at epoch 1, with no store attached.
    pub fn fit(
        matrix: &RatingMatrix,
        source: DomainId,
        target: DomainId,
        config: XMapConfig,
    ) -> Result<XMapModel> {
        config.validate().map_err(XMapError::InvalidConfig)?;
        if source == target {
            return Err(XMapError::InvalidConfig(
                "source and target domains must differ".to_string(),
            ));
        }
        let domains = matrix.domains();
        if !domains.contains(&source) || !domains.contains(&target) {
            return Err(XMapError::Data(format!(
                "matrix does not contain both requested domains (has {domains:?})"
            )));
        }
        let flow = Dataflow::new(config.workers, config.partitions);
        let ledgers = Ledgers::Named(&flow);
        let copy = || Arc::new(matrix.clone());
        let (epoch, _) = build_epoch(config, source, target, matrix, ledgers, copy)?;
        Ok(XMapModel::from_epoch(epoch, 1, flow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrivacyConfig, XMapMode};
    use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};
    use xmap_dataset::toy::{items, users, ToyScenario};

    fn toy_config(mode: XMapMode) -> XMapConfig {
        XMapConfig {
            mode,
            k: 2,
            privacy: PrivacyConfig {
                epsilon: 0.5,
                epsilon_prime: 0.8,
                rho: 0.05,
            },
            ..Default::default()
        }
    }

    #[test]
    fn toy_pipeline_recommends_books_to_alice() {
        let toy = ToyScenario::build();
        let model = XMapModel::fit(
            &toy.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            toy_config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert_eq!(model.label(), "NX-MAP-IB");
        assert_eq!(model.source_domain(), DomainId::SOURCE);
        assert_eq!(model.target_domain(), DomainId::TARGET);

        let alter = model.alterego(users::ALICE);
        assert!(!alter.is_empty(), "Alice must receive an AlterEgo");
        let recs = model.recommend(users::ALICE, 2);
        assert!(!recs.is_empty(), "Alice must receive book recommendations");
        for (item, score) in &recs {
            assert_eq!(toy.matrix.item_domain(*item), DomainId::TARGET);
            assert!((1.0..=5.0).contains(score));
        }
        let pred = model.predict(users::ALICE, items::THE_FOREVER_WAR);
        assert!((1.0..=5.0).contains(&pred));
    }

    #[test]
    fn fresh_fit_starts_at_epoch_one_and_snapshots_are_self_consistent() {
        let toy = ToyScenario::build();
        let model = XMapModel::fit(
            &toy.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            toy_config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert_eq!(model.epoch(), 1, "fresh fits publish epoch 1");
        let (epoch, snap) = model.snapshot();
        assert_eq!(epoch, 1);
        // The snapshot answers exactly like the model (both read epoch 1).
        let via_model = model.recommend(users::ALICE, 2);
        let via_snap = snap.recommend(users::ALICE, 2);
        assert_eq!(via_model, via_snap);
        assert_eq!(snap.label(), model.label());
    }

    #[test]
    fn the_ledger_holds_the_four_fit_stages_and_the_shape_reads_off_the_epoch() {
        let toy = ToyScenario::build();
        let model = XMapModel::fit(
            &toy.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            toy_config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        let ledger = model.ledger();
        let names: Vec<&str> = ledger.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, FIT_STAGE_NAMES);
        for entry in &ledger {
            assert!(
                !entry.costs.is_empty(),
                "the item-based {} stage must record its task bag",
                entry.name
            );
            assert!(entry.costs.iter().all(|&c| c.is_finite() && c >= 0.0));
        }
        assert!(model.xsim().n_heterogeneous_pairs() >= model.graph().n_heterogeneous_pairs());
        let (_, partition) = LayerPartition::from_graph(&model.graph());
        let cells = partition.cell_counts();
        let bb_items: usize = cells
            .iter()
            .filter(|(_, layer, _)| *layer == xmap_graph::Layer::BridgeBridge)
            .map(|&(_, _, count)| count)
            .sum();
        let bridges = xmap_graph::BridgeIndex::from_graph(&model.graph()).n_bridges();
        assert!(bridges >= 2, "Inception and at least one book are bridges");
        assert_eq!(bridges, bb_items, "a bridge item is a BB-layer item");
        let total_layer_items: usize = cells.iter().map(|(_, _, c)| c).sum();
        assert_eq!(total_layer_items, toy.matrix.n_items());
    }

    #[test]
    fn user_based_fits_record_no_recommender_task_bag() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                mode: XMapMode::NxMapUserBased,
                k: 8,
                ..Default::default()
            },
        )
        .unwrap();
        // user-based CF precomputes nothing at fit time — no task bag to replay
        let ledger = model.ledger();
        let empty: Vec<bool> = ledger.iter().map(|r| r.costs.is_empty()).collect();
        assert_eq!(empty, [false, false, false, true]);
    }

    #[test]
    fn staged_baseliner_is_bit_identical_to_build_serial_at_1_2_and_8_workers() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let graph_config = GraphConfig {
            top_k: Some(8),
            ..Default::default()
        };
        let reference = SimilarityGraph::build_serial(&ds.matrix, graph_config);
        let mut reference_costs: Option<Vec<f64>> = None;
        for workers in [1usize, 2, 8] {
            let config = XMapConfig {
                k: 8,
                workers,
                partitions: 16,
                ..Default::default()
            };
            let model =
                XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
            assert_eq!(
                *model.graph(),
                reference,
                "{workers} workers: staged baseliner diverged from build_serial"
            );
            let costs = model
                .flow
                .stage_costs("baseliner")
                .expect("baseliner records task costs");
            assert_eq!(costs.len(), 16, "one task cost per partition");
            match &reference_costs {
                None => reference_costs = Some(costs),
                Some(expected) => {
                    assert_eq!(&costs, expected, "{workers} workers changed costs")
                }
            }
        }
    }

    /// A fit against the serial reference of each step, piece by piece, in all four
    /// modes.
    #[test]
    fn a_fitted_epoch_equals_the_serial_reference_of_every_step_in_all_four_modes() {
        use xmap_engine::WorkerPool;
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        for mode in [
            XMapMode::NxMapItemBased,
            XMapMode::NxMapUserBased,
            XMapMode::XMapItemBased,
            XMapMode::XMapUserBased,
        ] {
            let config = XMapConfig {
                mode,
                k: 8,
                ..Default::default()
            };
            let model =
                XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
            let (_, epoch) = model.snapshot();
            let graph = SimilarityGraph::build_serial(
                &ds.matrix,
                GraphConfig {
                    metric: config.metric,
                    top_k: Some(config.k),
                    min_similarity: 0.0,
                },
            );
            assert_eq!(*epoch.graph, graph, "{mode:?}: graph");
            let (_, partition) = LayerPartition::from_graph(&graph);
            let xsim = XSimTable::compute(
                &graph,
                &partition,
                DomainId::SOURCE,
                config.metapath,
                &WorkerPool::new(1),
            );
            assert_eq!(*epoch.xsim, xsim, "{mode:?}: X-Sim table");
            assert_eq!(
                *epoch.replacements,
                ReplacementTable::compute_replacements_serial(&xsim, &config),
                "{mode:?}: replacements"
            );
            let target = ds
                .matrix
                .filter(|r| ds.matrix.item_domain(r.item) == DomainId::TARGET)
                .unwrap();
            let pools = recommend::item_pool_config(&config)
                .map(|knn_config| ItemKnn::fit(&target, knn_config).unwrap().into_neighbors());
            assert_eq!(
                epoch.item_pools.as_deref(),
                pools.as_ref(),
                "{mode:?}: pools"
            );
            assert_eq!(
                **epoch.recommender.target(),
                target,
                "{mode:?}: target matrix"
            );
        }
    }

    #[test]
    fn pool_fit_equals_the_per_candidate_reference_with_ties_at_the_kth_place() {
        use xmap_cf::knn::CandidateScratch;
        use xmap_cf::RatingMatrixBuilder;
        // Item 0 meets each of items 1..=6 through one user of its own, all six users
        // rating alike: six candidates of *exactly* equal similarity, of which a k = 3
        // pool keeps one behind the stronger items 7 and 8 — which one is decided by
        // the tie-break alone, i.e. by offer order. Users 10..14 add untied structure
        // among the items past 6.
        let mut b = RatingMatrixBuilder::new();
        for j in 1..=6u32 {
            b.push_parts(j, 0, 5.0).unwrap();
            b.push_parts(j, j, 1.0).unwrap();
        }
        b.push_parts(7, 0, 5.0).unwrap();
        b.push_parts(7, 7, 4.0).unwrap();
        b.push_parts(7, 8, 1.0).unwrap();
        for u in 10..14u32 {
            for x in 0..4u32 {
                let value = ((u * 3 + x * 2) % 5 + 1) as f64;
                b.push_parts(u, 7 + (u + x * 2) % 8, value).unwrap();
            }
        }
        let m = b.build().unwrap();
        for metric in [
            SimilarityMetric::AdjustedCosine,
            SimilarityMetric::Cosine,
            SimilarityMetric::Pearson,
        ] {
            let knn_config = ItemKnnConfig {
                k: 3,
                metric,
                ..Default::default()
            };
            let mut scratch = CandidateScratch::default();
            let reference: Vec<Vec<ItemNeighbor>> = m
                .items()
                .map(|i| {
                    let cands = scratch.candidate_set(&m, i);
                    ItemKnn::neighbors_from_candidates(&m, i, &cands, &knn_config)
                })
                .collect();
            if metric == SimilarityMetric::AdjustedCosine {
                let pool = &reference[0];
                let kept: Vec<ItemId> = pool.iter().map(|n| n.item).collect();
                assert_eq!(kept, vec![ItemId(7), ItemId(8), ItemId(1)]);
                let dropped =
                    xmap_cf::similarity::item_similarity(&m, ItemId(0), ItemId(6), metric);
                assert_eq!(
                    pool[2].similarity.to_bits(),
                    dropped.to_bits(),
                    "the fixture must tie at the k-th place"
                );
            }
            for workers in [1usize, 2] {
                let flow = Dataflow::new(workers, 4);
                let fitted = flow.run(
                    &fn_stage("pools", |(), cx: &mut StageContext<'_>| {
                        fit_item_pools(&m, &knn_config, cx)
                    }),
                    (),
                );
                assert_eq!(fitted, reference, "{metric:?}/{workers}w: pools diverged");
            }
        }
    }

    #[test]
    fn all_four_modes_fit_and_predict_on_a_synthetic_dataset() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        for mode in [
            XMapMode::NxMapItemBased,
            XMapMode::NxMapUserBased,
            XMapMode::XMapItemBased,
            XMapMode::XMapUserBased,
        ] {
            let model = XMapModel::fit(
                &ds.matrix,
                DomainId::SOURCE,
                DomainId::TARGET,
                XMapConfig {
                    mode,
                    k: 10,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(model.label(), mode.label());
            let user = ds.overlap_users[0];
            let item = ds.target_items()[0];
            let pred = model.predict(user, item);
            assert!(
                (1.0..=5.0).contains(&pred),
                "{mode:?} produced out-of-scale prediction {pred}"
            );
            let recs = model.recommend(user, 5);
            for (i, _) in recs {
                assert_eq!(ds.matrix.item_domain(i), DomainId::TARGET);
            }
        }
    }

    #[test]
    fn reverse_direction_works_too() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::TARGET,
            DomainId::SOURCE,
            XMapConfig {
                k: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(model.source_domain(), DomainId::TARGET);
        let user = ds.overlap_users[0];
        let item = ds.source_items()[0];
        assert!((1.0..=5.0).contains(&model.predict(user, item)));
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let toy = ToyScenario::build();
        // same source and target
        assert!(matches!(
            XMapModel::fit(
                &toy.matrix,
                DomainId::SOURCE,
                DomainId::SOURCE,
                XMapConfig::default()
            ),
            Err(XMapError::InvalidConfig(_))
        ));
        // missing domain
        assert!(matches!(
            XMapModel::fit(
                &toy.matrix,
                DomainId::SOURCE,
                DomainId(7),
                XMapConfig::default()
            ),
            Err(XMapError::Data(_))
        ));
        // invalid configuration
        let bad = XMapConfig {
            k: 0,
            ..Default::default()
        };
        assert!(matches!(
            XMapModel::fit(&toy.matrix, DomainId::SOURCE, DomainId::TARGET, bad),
            Err(XMapError::InvalidConfig(_))
        ));
    }

    #[test]
    fn cold_start_user_gets_personalised_predictions() {
        // A user with only source ratings should receive different predictions for
        // different target items (i.e. not a constant fallback), because their AlterEgo
        // carries their tastes across.
        let ds = CrossDomainDataset::generate(CrossDomainConfig::default());
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                k: 20,
                ..Default::default()
            },
        )
        .unwrap();
        let user = ds.source_only_users[0];
        let alter = model.alterego(user);
        assert!(
            !alter.is_empty(),
            "source-only user should still get an AlterEgo"
        );
        let preds: Vec<f64> = ds
            .target_items()
            .iter()
            .take(20)
            .map(|&i| model.predict(user, i))
            .collect();
        let min = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 1e-6,
            "predictions should differ across items (got constant {min})"
        );
    }

    #[test]
    fn batched_serving_is_bit_identical_to_per_user_calls_at_1_2_and_8_workers() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let users: Vec<_> = ds.overlap_users.iter().copied().take(12).collect();
        // The fixed quadratic path (X-Map-ub) is the interesting mode; serve it at
        // several worker counts and hold every output against the per-user reference.
        let mut reference: Option<Vec<Vec<(ItemId, f64)>>> = None;
        let mut reference_costs: Option<Vec<f64>> = None;
        for workers in [1usize, 2, 8] {
            let model = XMapModel::fit(
                &ds.matrix,
                DomainId::SOURCE,
                DomainId::TARGET,
                XMapConfig {
                    mode: XMapMode::XMapUserBased,
                    k: 8,
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
            let per_user: Vec<Vec<(ItemId, f64)>> =
                users.iter().map(|&u| model.recommend(u, 5)).collect();
            let profiles: Vec<Profile> = users.iter().map(|&u| model.alterego(u).profile).collect();
            let batched = model.serve_profiles(&profiles, 5);
            assert_eq!(batched, per_user, "{workers} workers: batch diverged");
            let costs = model
                .flow
                .stage_costs(RECOMMEND_STAGE_NAME)
                .expect("serving records task costs");
            match (&reference, &reference_costs) {
                (None, _) => {
                    reference = Some(batched);
                    reference_costs = Some(costs);
                }
                (Some(expected), Some(expected_costs)) => {
                    assert_eq!(&batched, expected, "{workers} workers changed outputs");
                    assert_eq!(&costs, expected_costs, "{workers} workers changed costs");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn private_fit_records_the_full_privacy_ledger() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let cfg = XMapConfig {
            mode: XMapMode::XMapItemBased,
            k: 8,
            ..Default::default()
        };
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        let budget = model
            .privacy_budget()
            .expect("private modes carry a budget");
        let mechanisms: Vec<&str> = budget
            .ledger()
            .iter()
            .map(|e| e.mechanism.as_str())
            .collect();
        assert_eq!(mechanisms, vec!["PRS", "PNSA", "PNCF"]);
        assert!(
            (budget.spent() - cfg.privacy.total()).abs() < 1e-12,
            "the fit must spend exactly ε + ε′"
        );
        assert!(budget.remaining() < 1e-12);
    }

    #[test]
    fn non_private_fit_has_no_privacy_budget_and_serving_costs_appear_on_demand() {
        let toy = ToyScenario::build();
        let model = XMapModel::fit(
            &toy.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            toy_config(XMapMode::NxMapItemBased),
        )
        .unwrap();
        assert!(model.privacy_budget().is_none());
        assert!(
            model.flow.stage_costs(RECOMMEND_STAGE_NAME).is_none(),
            "no serving ran yet, so no recommend-stage ledger entry"
        );
        let out = model.serve_profiles(&[model.alterego(users::ALICE).profile], 2);
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_empty());
        assert!(model.flow.stage_costs(RECOMMEND_STAGE_NAME).is_some());
    }

    fn eval_batch_for(ds: &CrossDomainDataset) -> EvalBatch {
        // Hide the overlap users' later target ratings as a hand-rolled test set; the
        // real split machinery lives in xmap-dataset, but pipeline tests only need a
        // deterministic batch over existing users.
        let test: Vec<xmap_cf::Rating> = ds
            .overlap_users
            .iter()
            .take(8)
            .flat_map(|&u| {
                ds.matrix
                    .user_profile(u)
                    .iter()
                    .filter(|e| ds.matrix.item_domain(e.item) == DomainId::TARGET)
                    .take(3)
                    .map(move |e| xmap_cf::Rating {
                        user: u,
                        item: e.item,
                        value: e.value,
                        timestep: e.timestep,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let ranking = xmap_eval::ranking_cases_from_test(&test, 4.0);
        EvalBatch::predictions(test).with_ranking(ranking, 5, ds.target_items().len())
    }

    #[test]
    fn evaluate_batch_is_bit_identical_to_the_serial_reference_at_1_2_and_8_workers() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let batch = eval_batch_for(&ds);
        assert!(!batch.test.is_empty() && !batch.ranking.is_empty());
        let mut reference: Option<EvalReport> = None;
        let mut reference_costs: Option<Vec<f64>> = None;
        for workers in [1usize, 2, 8] {
            let model = XMapModel::fit(
                &ds.matrix,
                DomainId::SOURCE,
                DomainId::TARGET,
                XMapConfig {
                    k: 8,
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
            let eval_costs = || model.flow.stage_costs(xmap_eval::EVAL_STAGE_NAME);
            assert!(eval_costs().is_none(), "no evaluation ran yet");
            let report = model.evaluate_batch(batch.clone());
            // the engine-parallel report equals the fully serial protocol, bit for bit
            let serial = xmap_eval::evaluate_batch_serial(&*model.snapshot().1, &batch);
            assert!(
                report.bits_eq(&serial),
                "{workers} workers diverged from serial"
            );
            let loop_outcome =
                xmap_eval::evaluate_predictions(&batch.test, |u, i| model.predict(u, i));
            assert_eq!(report.mae.to_bits(), loop_outcome.mae.to_bits());
            assert_eq!(report.rmse.to_bits(), loop_outcome.rmse.to_bits());
            assert_eq!(report.n_predictions, loop_outcome.n);
            let costs = eval_costs().expect("evaluation records costs");
            match (&reference, &reference_costs) {
                (None, _) => {
                    reference = Some(report);
                    reference_costs = Some(costs);
                }
                (Some(expected), Some(expected_costs)) => {
                    assert!(
                        report.bits_eq(expected),
                        "{workers} workers changed the report"
                    );
                    assert_eq!(&costs, expected_costs, "{workers} workers changed costs");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn private_model_is_reproducible_for_a_fixed_seed() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let cfg = XMapConfig {
            mode: XMapMode::XMapItemBased,
            k: 8,
            seed: 123,
            ..Default::default()
        };
        let a = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        let b = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, cfg).unwrap();
        let user = ds.overlap_users[0];
        for &item in ds.target_items().iter().take(10) {
            assert_eq!(a.predict(user, item), b.predict(user, item));
        }
    }
}
