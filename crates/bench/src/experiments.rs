//! One function per table/figure of the paper's evaluation (§6).
//!
//! Every function builds the appropriate synthetic workload, runs the systems under test
//! and returns the regenerated rows/series. Absolute numbers differ from the paper (the
//! workloads are synthetic substitutes, see DESIGN.md), but the comparisons the paper
//! draws — which system wins, how error moves with k / overlap / sparsity / ε — are the
//! reproduced artifact. [`replay`] is the one entry that is not a paper figure: the
//! simulated makespans of the model's recorded task bags and routed ledgers.

use crate::datasets::{amazon_like, movielens_like, Scale};
use crate::sweep::SweepRunner;
use xmap_cf::baselines::{
    ItemAverage, LinkedDomainItemKnn, RatingPredictor, RemoteUser, SingleDomainItemKnn,
};
use xmap_cf::{DomainId, Rating, UserKnnConfig};
use xmap_core::{
    PrivacyConfig, RatingDelta, ShardedModel, XMapConfig, XMapMode, XMapModel, DELTA_STAGE_NAME,
    FIT_STAGE_NAMES,
};
use xmap_dataset::split::{random_holdout, CrossDomainSplit, SplitConfig};
use xmap_dataset::synthetic::CrossDomainDataset;
use xmap_engine::{ClusterCostModel, ClusterSim};
use xmap_eval::{evaluate_predictions, SweepSeries, EVAL_STAGE_NAME};

/// The two evaluation directions of the cross-domain experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Source: movies (DomainId::SOURCE) → Target: books (DomainId::TARGET).
    MovieToBook,
    /// Source: books → Target: movies.
    BookToMovie,
}

impl Direction {
    /// Both directions, in the order the paper's figure panels use.
    pub const ALL: [Direction; 2] = [Direction::BookToMovie, Direction::MovieToBook];

    /// The (source, target) domain ids of this direction.
    pub fn domains(&self) -> (DomainId, DomainId) {
        match self {
            Direction::MovieToBook => (DomainId::SOURCE, DomainId::TARGET),
            Direction::BookToMovie => (DomainId::TARGET, DomainId::SOURCE),
        }
    }

    /// Panel caption as used in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Direction::MovieToBook => "Source: Movie Target: Book",
            Direction::BookToMovie => "Source: Book Target: Movie",
        }
    }
}

/// Default split for the cold-start experiments.
fn default_split() -> SplitConfig {
    SplitConfig {
        test_fraction: 0.3,
        auxiliary_profile_size: 0,
        overlap_fraction: 1.0,
        seed: 99,
    }
}

/// Default X-Map configuration used by the harness (k = 50 in the paper; the quick
/// workloads are smaller so the harness default is k = 40 unless an experiment sweeps k).
fn harness_config(mode: XMapMode, k: usize) -> XMapConfig {
    XMapConfig {
        mode,
        k,
        privacy: match mode {
            XMapMode::XMapUserBased => PrivacyConfig::user_based_default(),
            _ => PrivacyConfig::default(),
        },
        // Spark-style sizing for the Figure 11 sweep: comfortably more dataflow
        // partitions (= simulated tasks) than the largest simulated cluster.
        partitions: 128,
        ..Default::default()
    }
}

/// Fits X-Map on the training matrix of `split` and evaluates MAE on its hidden ratings.
pub fn evaluate_xmap(
    split: &CrossDomainSplit,
    source: DomainId,
    target: DomainId,
    config: XMapConfig,
) -> f64 {
    let model = XMapModel::fit(&split.train, source, target, config)
        .expect("harness datasets always contain both domains"); // lint: panic — reviewed invariant
    evaluate_predictions(&split.test, |u, i| model.predict(u, i)).mae
}

/// Evaluates one of the competitor baselines on a split.
pub fn evaluate_baseline(
    split: &CrossDomainSplit,
    source: DomainId,
    system: &str,
    k: usize,
) -> f64 {
    let train = &split.train;
    let test: &[Rating] = &split.test;
    match system {
        "ITEMAVERAGE" => {
            let p = ItemAverage::new(train);
            evaluate_predictions(test, |u, i| p.predict(u, i)).mae
        }
        "REMOTEUSER" => {
            let p = RemoteUser::new(
                train,
                source,
                UserKnnConfig {
                    k,
                    min_similarity: 0.0,
                },
            )
            .expect("training matrix is non-empty"); // lint: panic — reviewed invariant
            evaluate_predictions(test, |u, i| p.predict(u, i)).mae
        }
        "ITEM-BASED-KNN" | "KNN-CD" => {
            let p = LinkedDomainItemKnn::fit(train, k).expect("training matrix is non-empty"); // lint: panic — reviewed invariant
            evaluate_predictions(test, |u, i| p.predict(u, i)).mae
        }
        "KNN-SD" => {
            let target = if source == DomainId::SOURCE {
                DomainId::TARGET
            } else {
                DomainId::SOURCE
            };
            let p =
                SingleDomainItemKnn::fit(train, target, k).expect("training matrix is non-empty"); // lint: panic — reviewed invariant
            let queries: Vec<_> = test.iter().map(|r| (r.user, r.item)).collect();
            let preds = p.predict_batch(&queries).expect("prediction batch"); // lint: panic — reviewed invariant
            let pairs: Vec<(f64, f64)> = preds
                .into_iter()
                .zip(test.iter().map(|r| r.value))
                .collect();
            xmap_eval::mae(&pairs)
        }
        other => panic!("unknown baseline `{other}`"),
    }
}

// ---------------------------------------------------------------------------
// Figure 1(b): heterogeneous similarities with and without meta-paths
// ---------------------------------------------------------------------------

/// Result of the Figure 1(b) counting experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fig1bResult {
    /// Heterogeneous item pairs with a non-zero *direct* (standard) similarity.
    pub standard: usize,
    /// Heterogeneous item pairs with a non-zero similarity after the X-Sim extension.
    pub metapath_based: usize,
}

/// Figure 1(b): number of heterogeneous similarities, standard vs meta-path-based.
///
/// Uses the sparse-overlap trace ([`crate::datasets::amazon_like_sparse`]) because the
/// meta-path advantage of Figure 1(b) is a property of sparse real-world traces where
/// most cross-domain item pairs share no rater.
pub fn fig1b(scale: Scale) -> Fig1bResult {
    let ds = crate::datasets::amazon_like_sparse(scale);
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        harness_config(XMapMode::NxMapItemBased, 40),
    )
    .expect("generated dataset always contains both domains"); // lint: panic — reviewed invariant
    Fig1bResult {
        standard: model.graph().n_heterogeneous_pairs(),
        metapath_based: model.xsim().n_heterogeneous_pairs(),
    }
}

// ---------------------------------------------------------------------------
// Figure 5: temporal relevance (MAE vs α)
// ---------------------------------------------------------------------------

/// Figure 5: MAE of the item-based variants as the temporal decay α varies. Returns one
/// series per (direction, system) panel.
pub fn fig5(scale: Scale) -> Vec<SweepSeries> {
    let ds = amazon_like(scale);
    let alphas: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 0.05, 0.1, 0.15, 0.2],
        Scale::Full => (0..=10).map(|i| i as f64 * 0.02).collect(),
    };
    let mut out = Vec::new();
    for direction in Direction::ALL {
        let (source, target) = direction.domains();
        let split = CrossDomainSplit::build(&ds, target, default_split());
        for mode in [XMapMode::XMapItemBased, XMapMode::NxMapItemBased] {
            let mut series = SweepSeries::new(format!("{} ({})", mode.label(), direction.label()));
            for &alpha in &alphas {
                let config = XMapConfig {
                    temporal_alpha: alpha,
                    ..harness_config(mode, 40)
                };
                series.push(alpha, evaluate_xmap(&split, source, target, config));
            }
            out.push(series);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figures 6 and 7: privacy-quality trade-off (MAE over the (ε, ε′) grid)
// ---------------------------------------------------------------------------

/// One panel of the privacy-quality surface: the direction plus `(ε, ε′, MAE)` rows.
#[derive(Clone, Debug)]
pub struct PrivacySurface {
    /// Panel caption.
    pub direction: &'static str,
    /// `(ε, ε′, MAE)` grid rows.
    pub rows: Vec<(f64, f64, f64)>,
}

fn privacy_surface(scale: Scale, mode: XMapMode) -> Vec<PrivacySurface> {
    let ds = amazon_like(scale);
    let grid: Vec<f64> = match scale {
        Scale::Quick => vec![0.2, 0.5, 0.8],
        Scale::Full => vec![0.1, 0.3, 0.5, 0.7, 0.9],
    };
    let mut out = Vec::new();
    for direction in Direction::ALL {
        let (source, target) = direction.domains();
        let split = CrossDomainSplit::build(&ds, target, default_split());
        let mut rows = Vec::new();
        for &eps in &grid {
            for &eps_prime in &grid {
                let config = XMapConfig {
                    privacy: PrivacyConfig {
                        epsilon: eps,
                        epsilon_prime: eps_prime,
                        rho: 0.05,
                    },
                    ..harness_config(mode, 40)
                };
                rows.push((
                    eps,
                    eps_prime,
                    evaluate_xmap(&split, source, target, config),
                ));
            }
        }
        out.push(PrivacySurface {
            direction: direction.label(),
            rows,
        });
    }
    out
}

/// Figure 6: privacy-quality trade-off of X-Map-ib.
pub fn fig6(scale: Scale) -> Vec<PrivacySurface> {
    privacy_surface(scale, XMapMode::XMapItemBased)
}

/// Figure 7: privacy-quality trade-off of X-Map-ub.
pub fn fig7(scale: Scale) -> Vec<PrivacySurface> {
    privacy_surface(scale, XMapMode::XMapUserBased)
}

// ---------------------------------------------------------------------------
// Figure 8: MAE vs k against the competitors
// ---------------------------------------------------------------------------

/// One figure panel: the direction label plus the per-system series.
#[derive(Clone, Debug)]
pub struct FigurePanel {
    /// Panel caption.
    pub direction: &'static str,
    /// One series per system.
    pub series: Vec<SweepSeries>,
}

/// Figure 8: MAE of the X-Map variants and the competitors as k varies.
pub fn fig8(scale: Scale) -> Vec<FigurePanel> {
    let ds = amazon_like(scale);
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![10, 25, 50],
        Scale::Full => vec![10, 25, 50, 75, 100],
    };
    let modes = [
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
    ];
    let baselines = ["ITEMAVERAGE", "REMOTEUSER", "ITEM-BASED-KNN"];
    let mut panels = Vec::new();
    for direction in Direction::ALL {
        let (source, target) = direction.domains();
        let split = CrossDomainSplit::build(&ds, target, default_split());
        let mut series: Vec<SweepSeries> = Vec::new();
        for mode in modes {
            let mut s = SweepSeries::new(mode.label());
            for &k in &ks {
                s.push(
                    k as f64,
                    evaluate_xmap(&split, source, target, harness_config(mode, k)),
                );
            }
            series.push(s);
        }
        for name in baselines {
            let mut s = SweepSeries::new(name);
            for &k in &ks {
                s.push(k as f64, evaluate_baseline(&split, source, name, k));
            }
            series.push(s);
        }
        panels.push(FigurePanel {
            direction: direction.label(),
            series,
        });
    }
    panels
}

// ---------------------------------------------------------------------------
// Figure 9: MAE vs overlap (fraction of straddlers in the training set)
// ---------------------------------------------------------------------------

/// Figure 9: MAE as the fraction of overlapping users available for training grows.
pub fn fig9(scale: Scale) -> Vec<FigurePanel> {
    let ds = amazon_like(scale);
    let fractions = [0.2, 0.4, 0.6, 0.8];
    let modes = [
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
    ];
    let baselines = ["ITEMAVERAGE", "REMOTEUSER", "ITEM-BASED-KNN"];
    let k = 40;
    let mut panels = Vec::new();
    for direction in Direction::ALL {
        let (source, target) = direction.domains();
        let mut series: Vec<SweepSeries> =
            modes.iter().map(|m| SweepSeries::new(m.label())).collect();
        let mut baseline_series: Vec<SweepSeries> =
            baselines.iter().map(|b| SweepSeries::new(*b)).collect();
        for &fraction in &fractions {
            let split = CrossDomainSplit::build(
                &ds,
                target,
                SplitConfig {
                    overlap_fraction: fraction,
                    ..default_split()
                },
            );
            for (idx, &mode) in modes.iter().enumerate() {
                series[idx].push(
                    fraction,
                    evaluate_xmap(&split, source, target, harness_config(mode, k)),
                );
            }
            for (idx, name) in baselines.iter().enumerate() {
                baseline_series[idx].push(fraction, evaluate_baseline(&split, source, name, k));
            }
        }
        series.extend(baseline_series);
        panels.push(FigurePanel {
            direction: direction.label(),
            series,
        });
    }
    panels
}

// ---------------------------------------------------------------------------
// Figure 10: MAE vs auxiliary target profile size (sparsity)
// ---------------------------------------------------------------------------

/// Figure 10: MAE as the test users' auxiliary target-domain profile grows from 0
/// (cold-start) to 6 ratings, against the single-domain and linked-domain kNN baselines.
pub fn fig10(scale: Scale) -> Vec<FigurePanel> {
    let ds = amazon_like(scale);
    let aux_sizes: Vec<usize> = match scale {
        Scale::Quick => vec![0, 2, 4, 6],
        Scale::Full => (0..=6).collect(),
    };
    let modes = [
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
    ];
    let baselines = ["KNN-CD", "KNN-SD"];
    let k = 40;
    let mut panels = Vec::new();
    for direction in Direction::ALL {
        let (source, target) = direction.domains();
        let mut series: Vec<SweepSeries> =
            modes.iter().map(|m| SweepSeries::new(m.label())).collect();
        let mut baseline_series: Vec<SweepSeries> =
            baselines.iter().map(|b| SweepSeries::new(*b)).collect();
        for &aux in &aux_sizes {
            let split = CrossDomainSplit::build(
                &ds,
                target,
                SplitConfig {
                    auxiliary_profile_size: aux,
                    ..default_split()
                },
            );
            for (idx, &mode) in modes.iter().enumerate() {
                series[idx].push(
                    aux as f64,
                    evaluate_xmap(&split, source, target, harness_config(mode, k)),
                );
            }
            for (idx, name) in baselines.iter().enumerate() {
                baseline_series[idx].push(aux as f64, evaluate_baseline(&split, source, name, k));
            }
        }
        series.extend(baseline_series);
        panels.push(FigurePanel {
            direction: direction.label(),
            series,
        });
    }
    panels
}

// ---------------------------------------------------------------------------
// Table 2: genre partition of the MovieLens stand-in
// ---------------------------------------------------------------------------

/// Table 2 rows: `(genre, movie count, sub-domain)` plus the resulting sub-domain sizes.
#[derive(Clone, Debug)]
pub struct Table2Result {
    /// `(genre name, movie count, "D1" | "D2")` rows.
    pub rows: Vec<(String, usize, &'static str)>,
    /// Number of items assigned to D1 and to D2.
    pub domain_sizes: (usize, usize),
}

/// Table 2: the genre-based sub-domain partition of the MovieLens-like trace.
pub fn table2(scale: Scale) -> Table2Result {
    let ds = movielens_like(scale);
    let (_, partition) = ds.partition();
    Table2Result {
        rows: partition.table_rows(&ds.item_genres),
        domain_sizes: partition.domain_sizes(),
    }
}

// ---------------------------------------------------------------------------
// Table 3: homogeneous setting (NX-Map vs X-Map vs ALS)
// ---------------------------------------------------------------------------

/// Table 3: MAE of NX-Map, X-Map and ALS in the homogeneous (single-dataset,
/// genre-partitioned) setting.
pub fn table3(scale: Scale) -> Vec<(String, f64)> {
    let ds = movielens_like(scale);
    let (matrix, _) = ds.partition();
    // Hide a random subset of the D2 ratings and predict them from the rest.
    let (train_all, test_all) = random_holdout(&matrix, 0.2, 11);
    let test: Vec<Rating> = test_all
        .into_iter()
        .filter(|r| matrix.item_domain(r.item) == DomainId::TARGET)
        .collect();

    let mut results = Vec::new();
    for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
        let model = XMapModel::fit(
            &train_all,
            DomainId::SOURCE,
            DomainId::TARGET,
            harness_config(mode, 40),
        )
        .expect("partitioned dataset contains both sub-domains"); // lint: panic — reviewed invariant
        let outcome = evaluate_predictions(&test, |u, i| model.predict(u, i));
        let label = if mode == XMapMode::NxMapItemBased {
            "NX-Map"
        } else {
            "X-Map"
        };
        results.push((label.to_string(), outcome.mae));
    }

    let als = xmap_cf::als::AlsModel::train(
        &train_all,
        xmap_cf::als::AlsConfig {
            factors: 8,
            iterations: 10,
            ..Default::default()
        },
    )
    .expect("training matrix is non-empty"); // lint: panic — reviewed invariant
    let outcome = evaluate_predictions(&test, |u, i| als.predict(u, i));
    results.push(("MLlib-ALS".to_string(), outcome.mae));
    results
}

// ---------------------------------------------------------------------------
// Figure 11: scalability (speedup vs number of machines)
// ---------------------------------------------------------------------------

/// Figure 11: simulated speedup of X-Map and of ALS as the machine count grows, relative
/// to 5 machines (§6.6). X-Map's per-task costs come from the fitted pipeline's extension
/// work estimates; ALS's from per-user factor-solve costs (profile lengths).
pub fn fig11(scale: Scale) -> Vec<SweepSeries> {
    let ds = amazon_like(scale);
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        harness_config(XMapMode::NxMapItemBased, 40),
    )
    .expect("generated dataset always contains both domains"); // lint: panic — reviewed invariant
    let machines: Vec<usize> = (4..=20).collect();
    let baseline = 5;

    let xmap_sim = ClusterSim::new(
        stage_costs(&model, FIT_STAGE_NAMES[1]),
        ClusterCostModel::xmap_like(),
    );
    let als_costs: Vec<f64> = ds
        .matrix
        .users()
        .map(|u| 1.0 + ds.matrix.user_degree(u) as f64)
        .collect();
    let als_sim = ClusterSim::new(als_costs, ClusterCostModel::als_like());

    let mut out = Vec::new();
    for (label, sim) in [("X-MAP", &xmap_sim), ("MLLIB-ALS", &als_sim)] {
        let mut series = SweepSeries::new(label);
        for point in sim.speedup_curve(&machines, baseline) {
            series.push(point.machines as f64, point.speedup);
        }
        out.push(series);
    }
    out
}

// ---------------------------------------------------------------------------
// Ledger replay: simulated makespans of the recorded task bags and routed ledgers
// ---------------------------------------------------------------------------

/// One recorded task bag replayed under LPT placement.
#[derive(Clone, Debug, PartialEq)]
pub struct BagReplay {
    /// Which bag: `fit`, `delta (8 ratings)` or `eval`.
    pub bag: &'static str,
    /// Number of tasks in the bag.
    pub n_tasks: usize,
    /// Sum of the data-derived task costs.
    pub total_work: f64,
    /// Simulated speedup over one machine at 4 and at 8 machines.
    pub speedup: [f64; 2],
}

/// One routed ledger replayed under pinned placement on one topology.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedReplay {
    /// Which ledger: `route` or `shard_serve`.
    pub ledger: &'static str,
    /// Number of simulated nodes.
    pub n_nodes: usize,
    /// Whether the popularity head's shards carried three replicas.
    pub hot_replicated: bool,
    /// Number of routed tasks.
    pub n_tasks: usize,
    /// Simulated completion time.
    pub makespan: f64,
    /// Busiest node over mean node load.
    pub imbalance: f64,
}

/// The rows of `figures -- replay`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayTable {
    /// LPT replays of the fit, delta and evaluation task bags.
    pub bags: Vec<BagReplay>,
    /// Pinned replays of the routed serving ledgers at 1/2/4/8 nodes.
    pub routed: Vec<RoutedReplay>,
}

/// Replays every ledger the model records on the cluster simulator: the combined fit
/// bag, the bag of one 8-rating delta and the evaluation bag under LPT, and the `route`
/// / `shard_serve` ledgers of a routed top-10 pass under the router's own placement at
/// 1, 2, 4 and 8 nodes, with and without hot-shard replication. Every figure is
/// data-derived — no clock is read — so two calls return equal tables.
pub fn replay(scale: Scale) -> ReplayTable {
    let ds = amazon_like(scale);
    let runner = SweepRunner::new(
        ds.clone(),
        Direction::MovieToBook,
        harness_config(XMapMode::NxMapItemBased, 40),
    );
    let split = runner.split(None);
    let cost_model = ClusterCostModel::xmap_like();
    let bag = |bag: &'static str, costs: Vec<f64>| {
        let sim = ClusterSim::new(costs, cost_model);
        BagReplay {
            bag,
            n_tasks: sim.n_tasks(),
            total_work: sim.total_work(),
            speedup: [sim.speedup(4, 1), sim.speedup(8, 1)],
        }
    };

    let model = runner.fit(&split);
    let fit_bag = FIT_STAGE_NAMES
        .iter()
        .flat_map(|&stage| stage_costs(&model, stage));
    let mut bags = vec![bag("fit", fit_bag.collect())];
    model.evaluate_batch(runner.eval_batch(&split));
    let eval_bag = stage_costs(&model, EVAL_STAGE_NAME);
    let target_items = ds.target_items();
    let mut delta = RatingDelta::new();
    for ix in 0..8usize {
        let user = ds.overlap_users[ix % ds.overlap_users.len()];
        let item = target_items[(ix * 7) % target_items.len()];
        delta.push_timed(user.0, item.0, ((ix % 5) + 1) as f64, 1000 + ix as u32);
    }
    model
        .apply_delta(&delta)
        .expect("the delta names existing users and items"); // lint: panic — reviewed invariant
    bags.push(bag(
        "delta (8 ratings)",
        stage_costs(&model, DELTA_STAGE_NAME),
    ));
    bags.push(bag("eval", eval_bag));

    let mut routed = Vec::new();
    for n_nodes in [1usize, 2, 4, 8] {
        for hot_replicated in [false, true] {
            let model = runner.fit(&split);
            let sharded = if hot_replicated {
                ShardedModel::with_hot_replication(model, n_nodes, 3)
            } else {
                ShardedModel::from_model(model, n_nodes)
            }
            .expect("sharding a fitted model succeeds"); // lint: panic — reviewed invariant
            for &user in ds.overlap_users.iter().chain(&ds.source_only_users) {
                sharded
                    .recommend(user, 10)
                    .expect("every shard has a live replica"); // lint: panic — reviewed invariant
            }
            let [route, shard_serve, _] = sharded.ledger();
            for (ledger, tally) in [route, shard_serve] {
                let report = ClusterSim::replay_pinned(&tally, n_nodes, cost_model);
                routed.push(RoutedReplay {
                    ledger,
                    n_nodes,
                    hot_replicated,
                    n_tasks: report.n_tasks,
                    makespan: report.makespan,
                    imbalance: report.imbalance(),
                });
            }
        }
    }
    ReplayTable { bags, routed }
}

// ---------------------------------------------------------------------------
// Helper reused by tests and the figures binary
// ---------------------------------------------------------------------------

/// The task bag of a model's ledger entry; empty when the stage never ran or recorded
/// no costs.
pub fn stage_costs(model: &XMapModel, stage: &str) -> Vec<f64> {
    let entry = model.ledger().into_iter().find(|r| r.name == stage);
    entry.map(|r| r.costs).unwrap_or_default()
}

/// Returns the underlying Amazon-like dataset plus a default cold-start split for a
/// direction — exposed so integration tests and examples can reuse the exact harness
/// protocol.
pub fn harness_split(
    scale: Scale,
    direction: Direction,
) -> (CrossDomainDataset, CrossDomainSplit, DomainId, DomainId) {
    let ds = amazon_like(scale);
    let (source, target) = direction.domains();
    let split = CrossDomainSplit::build(&ds, target, default_split());
    (ds, split, source, target)
}

/// Convenience: the MAE of one X-Map mode under the default harness protocol.
pub fn quick_mae(mode: XMapMode, direction: Direction) -> f64 {
    let (_, split, source, target) = harness_split(Scale::Quick, direction);
    evaluate_xmap(&split, source, target, harness_config(mode, 40))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1b_metapaths_dominate_standard_similarities() {
        let r = fig1b(Scale::Quick);
        assert!(
            r.metapath_based > r.standard,
            "meta-path similarities ({}) must exceed standard ones ({})",
            r.metapath_based,
            r.standard
        );
        assert!(r.standard > 0);
    }

    #[test]
    fn nxmap_beats_the_unpersonalised_baseline() {
        // The core accuracy claim of Figures 8-9: the non-private X-Map variants
        // outperform ItemAverage and RemoteUser in the cold-start setting.
        let (_, split, source, target) = harness_split(Scale::Quick, Direction::MovieToBook);
        let nxmap = evaluate_xmap(
            &split,
            source,
            target,
            harness_config(XMapMode::NxMapItemBased, 40),
        );
        let item_avg = evaluate_baseline(&split, source, "ITEMAVERAGE", 40);
        assert!(
            nxmap < item_avg + 0.05,
            "NX-Map ({nxmap:.3}) should be at least competitive with ItemAverage ({item_avg:.3})"
        );
    }

    #[test]
    fn private_variant_pays_a_bounded_quality_cost() {
        let nx = quick_mae(XMapMode::NxMapItemBased, Direction::MovieToBook);
        let x = quick_mae(XMapMode::XMapItemBased, Direction::MovieToBook);
        assert!(
            x >= nx - 0.05,
            "privacy should not improve accuracy (got {x:.3} vs {nx:.3})"
        );
        assert!(
            x < nx + 1.5,
            "privacy cost should stay bounded (got {x:.3} vs {nx:.3})"
        );
    }

    #[test]
    fn fig11_xmap_scales_better_than_als() {
        let series = fig11(Scale::Quick);
        assert_eq!(series.len(), 2);
        let xmap = &series[0];
        let als = &series[1];
        assert_eq!(xmap.label, "X-MAP");
        // speedup at 20 machines (last point) must favour X-Map
        let x_last = xmap.points.last().unwrap().y;
        let a_last = als.points.last().unwrap().y;
        assert!(
            x_last > a_last,
            "X-Map should out-scale ALS: {x_last} vs {a_last}"
        );
        assert!(
            x_last > 1.5,
            "X-Map should show a clear speedup over the 5-machine baseline"
        );
        // speedup is 1.0 at the baseline of 5 machines
        let at5 = xmap
            .points
            .iter()
            .find(|p| (p.x - 5.0).abs() < 1e-9)
            .unwrap();
        assert!((at5.y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table2_partition_is_balanced_and_complete() {
        let t = table2(Scale::Quick);
        assert_eq!(t.rows.len(), xmap_dataset::genres::MOVIELENS_GENRES.len());
        let (d1, d2) = t.domain_sizes;
        assert!(d1 > 0 && d2 > 0);
        assert_eq!(d1 + d2, 150);
    }

    #[test]
    fn replay_rows_are_data_derived() {
        let table = replay(Scale::Quick);
        assert_eq!(table, replay(Scale::Quick), "a replayed figure moved");
        assert_eq!(table.bags.len(), 3);
        assert!(table.bags.iter().all(|b| b.n_tasks > 0));
        assert_eq!(table.routed.len(), 16);
    }
}
