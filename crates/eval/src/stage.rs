//! Engine-parallel evaluation: [`EvalBatch`] → [`EvalStage`] → [`EvalReport`].
//!
//! The paper's §6 experiments evaluate a fitted system over hidden test ratings (MAE /
//! RMSE) and over per-user top-N lists (precision/recall@N, coverage). The serial
//! reference for the prediction half is [`evaluate_predictions`]; this module moves the
//! whole protocol onto the `xmap-engine` dataflow so evaluation runs with the same
//! partition-and-replay discipline as extension and serving:
//!
//! * test triples are hash-partitioned by input position via
//!   `StageContext::map_items_ordered`, each partition is one pool task, and the
//!   `(prediction, truth)` pairs come back **in test order**;
//! * ranking cases go through a second ordered map in the same stage run;
//! * aggregation (the actual metric arithmetic) happens once, serially, over the
//!   ordered pairs/lists — exactly the arithmetic the serial reference performs.
//!
//! **Determinism contract.** Because partition assignment hashes the input position,
//! every per-triple/per-case computation is independent, and aggregation consumes the
//! reassembled in-order outputs, an [`EvalStage`] run is **bit-identical** to
//! [`evaluate_batch_serial`] (and its `mae`/`rmse`/`n` fields bit-identical to
//! [`evaluate_predictions`]) at any worker count. Per-partition *data-derived* costs
//! (triple counts, relevant-set sizes) land in the dataflow ledger under
//! [`EVAL_STAGE_NAME`], so the cluster simulator can replay evaluation workloads and
//! the recorded task bag is identical for 1, 2 or 8 workers.
//!
//! [`evaluate_predictions`]: crate::protocol::evaluate_predictions

use crate::metrics::{coverage, mae, precision_at_n, recall_at_n, rmse};
use crate::protocol::SweepMetric;
use serde::{Deserialize, Serialize};
use xmap_cf::{ItemId, Rating, UserId};
use xmap_engine::{Stage, StageContext};

/// Stage name under which evaluation costs appear in the dataflow ledger.
pub const EVAL_STAGE_NAME: &str = "eval";

/// A system under evaluation: rating prediction plus top-N recommendation.
///
/// Implementations must be pure with respect to `&self` (no observable shared mutable
/// state across calls): the [`EvalStage`] calls these methods from multiple worker
/// threads and relies on per-call independence for its bit-identity contract.
pub trait EvalTarget: Sync {
    /// Predicted rating of `item` for `user`.
    fn predict(&self, user: UserId, item: ItemId) -> f64;

    /// Top-`n` recommended items for `user`, best first.
    fn recommend(&self, user: UserId, n: usize) -> Vec<ItemId>;
}

/// One ranking-evaluation case: a user and the items that count as relevant for them
/// (typically their hidden high ratings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankingCase {
    /// The user whose top-N list is evaluated.
    pub user: UserId,
    /// The ground-truth relevant items.
    pub relevant: Vec<ItemId>,
}

/// A batch of evaluation work: hidden test triples for the error metrics, plus optional
/// ranking cases for precision/recall@N and coverage.
#[derive(Clone, Debug, Default)]
pub struct EvalBatch {
    /// Hidden `(user, item, truth)` triples, in protocol order.
    pub test: Vec<Rating>,
    /// Ranking cases, in protocol order (empty disables the ranking metrics).
    pub ranking: Vec<RankingCase>,
    /// The N of precision/recall@N — how many recommendations each case requests.
    pub n: usize,
    /// Catalogue size for the coverage metric (number of recommendable items).
    pub catalogue_size: usize,
}

impl EvalBatch {
    /// A prediction-only batch (no ranking metrics).
    pub fn predictions(test: Vec<Rating>) -> Self {
        EvalBatch {
            test,
            ..Default::default()
        }
    }

    /// Adds ranking cases: each case's user receives `n` recommendations, and coverage
    /// is measured against `catalogue_size` recommendable items.
    pub fn with_ranking(
        mut self,
        ranking: Vec<RankingCase>,
        n: usize,
        catalogue_size: usize,
    ) -> Self {
        self.ranking = ranking;
        self.n = n;
        self.catalogue_size = catalogue_size;
        self
    }

    /// Total number of evaluation work items (test triples plus ranking cases).
    pub fn len(&self) -> usize {
        self.test.len() + self.ranking.len()
    }

    /// Whether the batch holds no work at all.
    pub fn is_empty(&self) -> bool {
        self.test.is_empty() && self.ranking.is_empty()
    }
}

/// The outcome of evaluating one system on one [`EvalBatch`].
///
/// Error metrics are `NaN` when the batch has no test triples; ranking metrics are
/// `NaN` when it has no ranking cases.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean absolute error over the test triples.
    pub mae: f64,
    /// Root mean squared error over the test triples.
    pub rmse: f64,
    /// Number of test triples evaluated.
    pub n_predictions: usize,
    /// Mean precision@N over the ranking cases.
    pub precision_at_n: f64,
    /// Mean recall@N over the ranking cases.
    pub recall_at_n: f64,
    /// Catalogue coverage of the produced recommendation lists.
    pub coverage: f64,
    /// Number of ranking cases evaluated.
    pub n_ranking_users: usize,
}

impl EvalReport {
    /// The measurement a sweep records for this report.
    pub fn metric(&self, metric: SweepMetric) -> f64 {
        match metric {
            SweepMetric::Mae => self.mae,
            SweepMetric::Rmse => self.rmse,
            SweepMetric::PrecisionAtN => self.precision_at_n,
            SweepMetric::RecallAtN => self.recall_at_n,
            SweepMetric::Coverage => self.coverage,
        }
    }

    /// Whether two reports are bit-identical (comparing floats by bits, so `NaN`
    /// fields compare equal to themselves — unlike `==`).
    pub fn bits_eq(&self, other: &EvalReport) -> bool {
        self.mae.to_bits() == other.mae.to_bits()
            && self.rmse.to_bits() == other.rmse.to_bits()
            && self.n_predictions == other.n_predictions
            && self.precision_at_n.to_bits() == other.precision_at_n.to_bits()
            && self.recall_at_n.to_bits() == other.recall_at_n.to_bits()
            && self.coverage.to_bits() == other.coverage.to_bits()
            && self.n_ranking_users == other.n_ranking_users
    }
}

/// The shared aggregation arithmetic: consumes `(prediction, truth)` pairs in test
/// order and recommendation lists in case order. Both the serial reference and the
/// parallel stage call exactly this, which is what makes them bit-identical.
fn aggregate(
    pairs: &[(f64, f64)],
    cases: &[RankingCase],
    lists: &[Vec<ItemId>],
    n: usize,
    catalogue_size: usize,
) -> EvalReport {
    debug_assert_eq!(cases.len(), lists.len());
    let (precision, recall, cov) = if cases.is_empty() {
        (f64::NAN, f64::NAN, f64::NAN)
    } else {
        let mut precision_sum = 0.0;
        let mut recall_sum = 0.0;
        for (case, list) in cases.iter().zip(lists) {
            precision_sum += precision_at_n(list, &case.relevant, n);
            recall_sum += recall_at_n(list, &case.relevant, n);
        }
        (
            precision_sum / cases.len() as f64,
            recall_sum / cases.len() as f64,
            coverage(lists, catalogue_size),
        )
    };
    EvalReport {
        mae: mae(pairs),
        rmse: rmse(pairs),
        n_predictions: pairs.len(),
        precision_at_n: precision,
        recall_at_n: recall,
        coverage: cov,
        n_ranking_users: cases.len(),
    }
}

/// The serial reference implementation of the evaluation protocol: one `predict` call
/// per test triple (in order), one `recommend` call per ranking case (in order), then
/// the shared aggregation. [`EvalStage`] is bit-identical to this by contract.
pub fn evaluate_batch_serial(target: &dyn EvalTarget, batch: &EvalBatch) -> EvalReport {
    let pairs: Vec<(f64, f64)> = batch
        .test
        .iter()
        .map(|r| (target.predict(r.user, r.item), r.value))
        .collect();
    let lists: Vec<Vec<ItemId>> = batch
        .ranking
        .iter()
        .map(|case| target.recommend(case.user, batch.n))
        .collect();
    aggregate(
        &pairs,
        &batch.ranking,
        &lists,
        batch.n,
        batch.catalogue_size,
    )
}

/// Derives ranking cases from hidden test triples: every rating `>= relevance_threshold`
/// marks its item relevant for its user. Users appear in first-seen test order; users
/// with no relevant item are skipped (their recall would be degenerate).
pub fn ranking_cases_from_test(test: &[Rating], relevance_threshold: f64) -> Vec<RankingCase> {
    let mut order: Vec<UserId> = Vec::new();
    let mut relevant: std::collections::HashMap<UserId, Vec<ItemId>> =
        std::collections::HashMap::new();
    for r in test {
        if r.value >= relevance_threshold {
            relevant
                .entry(r.user)
                .or_insert_with(|| {
                    order.push(r.user);
                    Vec::new()
                })
                .push(r.item);
        }
    }
    order
        .into_iter()
        .map(|user| RankingCase {
            relevant: relevant.remove(&user).expect("entry inserted above"), // lint: panic — reviewed invariant
            user,
        })
        .collect()
}

/// The engine-parallel evaluation stage: runs one [`EvalBatch`] against an
/// [`EvalTarget`] through `StageContext::map_items_ordered`.
///
/// The dataflow ledger entry under [`EVAL_STAGE_NAME`] holds the prediction
/// partitions' costs (one per partition, triple counts) followed by the ranking
/// partitions' costs (`Σ (1 + |relevant|)`, recorded only when ranking cases exist).
/// Costs are data-derived, so the ledger is identical at any worker count.
pub struct EvalStage<'t> {
    target: &'t dyn EvalTarget,
}

impl<'t> EvalStage<'t> {
    /// Wraps a system under evaluation.
    pub fn new(target: &'t dyn EvalTarget) -> Self {
        EvalStage { target }
    }
}

impl Stage<EvalBatch> for EvalStage<'_> {
    type Out = EvalReport;

    fn name(&self) -> &'static str {
        EVAL_STAGE_NAME
    }

    fn run(&self, batch: EvalBatch, cx: &mut StageContext<'_>) -> EvalReport {
        let EvalBatch {
            test,
            ranking,
            n,
            catalogue_size,
        } = batch;
        let pairs: Vec<(f64, f64)> = cx.map_items_ordered(test, |_ix, part| {
            let outs: Vec<(f64, f64)> = part
                .iter()
                .map(|(_, r)| (self.target.predict(r.user, r.item), r.value))
                .collect();
            (outs, part.len() as f64)
        });
        let lists: Vec<Vec<ItemId>> = if ranking.is_empty() {
            Vec::new()
        } else {
            // Map over case indices (partitioned identically to the cases themselves,
            // since both hash the input position) so the cases are borrowed, not
            // deep-cloned, and stay available for aggregation below.
            let positions: Vec<usize> = (0..ranking.len()).collect();
            cx.map_items_ordered(positions, |_ix, part| {
                let outs: Vec<Vec<ItemId>> = part
                    .iter()
                    .map(|&(_, case_ix)| self.target.recommend(ranking[case_ix].user, n))
                    .collect();
                // "+1" keeps cases with empty relevant sets from being free: the
                // simulated cluster still pays their per-case recommendation cost.
                let cost: f64 = part
                    .iter()
                    .map(|&(_, case_ix)| 1.0 + ranking[case_ix].relevant.len() as f64)
                    .sum();
                (outs, cost)
            })
        };
        aggregate(&pairs, &ranking, &lists, n, catalogue_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::evaluate_predictions;
    use xmap_engine::Dataflow;

    /// A deterministic toy system: predictions and recommendations are pure functions
    /// of the ids, so every execution strategy must agree bit for bit.
    struct ToyTarget;

    impl EvalTarget for ToyTarget {
        fn predict(&self, user: UserId, item: ItemId) -> f64 {
            1.0 + ((user.0.wrapping_mul(7) + item.0.wrapping_mul(3)) % 9) as f64 / 2.0
        }

        fn recommend(&self, user: UserId, n: usize) -> Vec<ItemId> {
            (0..n as u32)
                .map(|j| ItemId((user.0 + j * 2) % 11))
                .collect()
        }
    }

    fn batch() -> EvalBatch {
        let test: Vec<Rating> = (0..60u32)
            .map(|s| Rating::new(UserId(s % 9), ItemId(s % 13), 1.0 + (s % 5) as f64))
            .collect();
        let ranking = ranking_cases_from_test(&test, 4.0);
        assert!(!ranking.is_empty());
        EvalBatch::predictions(test).with_ranking(ranking, 4, 11)
    }

    #[test]
    fn stage_is_bit_identical_to_serial_reference_at_1_2_and_8_workers() {
        let batch0 = batch();
        let reference = evaluate_batch_serial(&ToyTarget, &batch0);
        // the error half must also equal the historic serial loop bit for bit
        let loop_outcome = evaluate_predictions(&batch0.test, |u, i| ToyTarget.predict(u, i));
        assert_eq!(reference.mae.to_bits(), loop_outcome.mae.to_bits());
        assert_eq!(reference.rmse.to_bits(), loop_outcome.rmse.to_bits());
        assert_eq!(reference.n_predictions, loop_outcome.n);

        let mut reference_costs = None;
        for workers in [1usize, 2, 8] {
            let flow = Dataflow::new(workers, 8);
            let report = flow.run(&EvalStage::new(&ToyTarget), batch0.clone());
            assert!(
                report.bits_eq(&reference),
                "{workers} workers diverged: {report:?} vs {reference:?}"
            );
            let costs = flow
                .stage_costs(EVAL_STAGE_NAME)
                .expect("evaluation records task costs");
            assert_eq!(
                costs.len(),
                16,
                "8 prediction partitions + 8 ranking partitions"
            );
            match &reference_costs {
                None => reference_costs = Some(costs),
                Some(expected) => {
                    assert_eq!(&costs, expected, "{workers} workers changed task costs")
                }
            }
        }
    }

    #[test]
    fn eval_costs_cover_every_triple_and_case() {
        let batch0 = batch();
        let expected: f64 = batch0.test.len() as f64
            + batch0
                .ranking
                .iter()
                .map(|c| 1.0 + c.relevant.len() as f64)
                .sum::<f64>();
        let flow = Dataflow::new(2, 4);
        let _ = flow.run(&EvalStage::new(&ToyTarget), batch0);
        let costs = flow.stage_costs(EVAL_STAGE_NAME).unwrap();
        assert!((costs.iter().sum::<f64>() - expected).abs() < 1e-9);
    }

    #[test]
    fn prediction_only_batch_leaves_ranking_metrics_nan() {
        let batch0 = EvalBatch::predictions(batch().test);
        let flow = Dataflow::new(2, 4);
        let report = flow.run(&EvalStage::new(&ToyTarget), batch0.clone());
        assert!(report.mae.is_finite());
        assert!(report.precision_at_n.is_nan());
        assert!(report.recall_at_n.is_nan());
        assert!(report.coverage.is_nan());
        assert_eq!(report.n_ranking_users, 0);
        assert!(report.bits_eq(&evaluate_batch_serial(&ToyTarget, &batch0)));
        // only the prediction map records costs when there are no ranking cases
        assert_eq!(flow.stage_costs(EVAL_STAGE_NAME).unwrap().len(), 4);
    }

    #[test]
    fn empty_batch_reports_nan_everywhere() {
        let flow = Dataflow::new(2, 4);
        let report = flow.run(&EvalStage::new(&ToyTarget), EvalBatch::default());
        assert_eq!(report.n_predictions, 0);
        assert_eq!(report.n_ranking_users, 0);
        assert!(report.mae.is_nan());
        assert!(report.rmse.is_nan());
        assert!(report.precision_at_n.is_nan());
        assert!(EvalBatch::default().is_empty());
        assert_eq!(EvalBatch::default().len(), 0);
        assert!(report.bits_eq(&evaluate_batch_serial(&ToyTarget, &EvalBatch::default())));
    }

    #[test]
    fn predictor_fn_serves_prediction_batches() {
        // a prediction-only batch through the stage: its MAE is the serial loop's, bit
        // for bit
        let test = vec![
            Rating::new(UserId(1), ItemId(2), 3.0),
            Rating::new(UserId(0), ItemId(0), 1.0),
        ];
        let flow = Dataflow::new(2, 4);
        let report = flow.run(
            &EvalStage::new(&ToyTarget),
            EvalBatch::predictions(test.clone()),
        );
        let outcome = evaluate_predictions(&test, |u, i| ToyTarget.predict(u, i));
        assert_eq!(report.mae.to_bits(), outcome.mae.to_bits());
    }

    #[test]
    fn ranking_cases_group_by_user_in_first_seen_order() {
        let test = vec![
            Rating::new(UserId(3), ItemId(0), 5.0),
            Rating::new(UserId(1), ItemId(1), 2.0), // below threshold
            Rating::new(UserId(1), ItemId(2), 4.0),
            Rating::new(UserId(3), ItemId(3), 4.5),
            Rating::new(UserId(2), ItemId(4), 1.0), // user 2 has nothing relevant
        ];
        let cases = ranking_cases_from_test(&test, 4.0);
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].user, UserId(3));
        assert_eq!(cases[0].relevant, vec![ItemId(0), ItemId(3)]);
        assert_eq!(cases[1].user, UserId(1));
        assert_eq!(cases[1].relevant, vec![ItemId(2)]);
    }

    #[test]
    fn report_bits_eq_treats_nan_as_equal() {
        let flow = Dataflow::new(1, 2);
        let a = flow.run(&EvalStage::new(&ToyTarget), EvalBatch::default());
        let b = flow.run(&EvalStage::new(&ToyTarget), EvalBatch::default());
        assert!(a.bits_eq(&b), "NaN reports must compare bit-equal");
        assert_ne!(
            a, b,
            "PartialEq on NaN reports is false — that is why bits_eq exists"
        );
    }
}
