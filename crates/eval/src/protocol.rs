//! The shared evaluation loop and sweep bookkeeping.

use crate::metrics::{mae, rmse};
use serde::{Deserialize, Serialize};
use xmap_cf::{ItemId, Rating, UserId};

/// The outcome of evaluating one system on one test set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Mean absolute error over the test ratings.
    pub mae: f64,
    /// Root mean squared error over the test ratings.
    pub rmse: f64,
    /// Number of test ratings evaluated.
    pub n: usize,
}

/// Evaluates a predictor over hidden test ratings: `predict(user, item)` is called for
/// every test triple and compared with the true rating (the paper's §6.1 protocol).
pub fn evaluate_predictions(
    test: &[Rating],
    mut predict: impl FnMut(UserId, ItemId) -> f64,
) -> EvalOutcome {
    let pairs: Vec<(f64, f64)> = test
        .iter()
        .map(|r| (predict(r.user, r.item), r.value))
        .collect();
    EvalOutcome {
        mae: mae(&pairs),
        rmse: rmse(&pairs),
        n: pairs.len(),
    }
}

/// The parameter axis of a sweep — the x-axes of the paper's §6 figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepParam {
    /// Neighbourhood size `k` (Figure 8).
    K,
    /// Generation-phase privacy budget ε (Figures 6–7).
    Epsilon,
    /// Recommendation-phase privacy budget ε′ (Figures 6–7).
    EpsilonPrime,
    /// Temporal decay α (Figure 5).
    TemporalAlpha,
    /// Fraction of overlapping users retained in training (Figure 9). Overlap points
    /// rebuild the train/test split, so only split-aware runners (the `xmap-bench`
    /// sweep runner) can execute them.
    Overlap,
}

impl SweepParam {
    /// Stable identifier used for labels and machine-readable reports.
    pub fn label(&self) -> &'static str {
        match self {
            SweepParam::K => "k",
            SweepParam::Epsilon => "epsilon",
            SweepParam::EpsilonPrime => "epsilon_prime",
            SweepParam::TemporalAlpha => "alpha",
            SweepParam::Overlap => "overlap",
        }
    }

    /// Parses the identifier produced by [`SweepParam::label`].
    pub fn parse(s: &str) -> Option<SweepParam> {
        match s {
            "k" => Some(SweepParam::K),
            "epsilon" => Some(SweepParam::Epsilon),
            "epsilon_prime" => Some(SweepParam::EpsilonPrime),
            "alpha" => Some(SweepParam::TemporalAlpha),
            "overlap" => Some(SweepParam::Overlap),
            _ => None,
        }
    }
}

/// Which measurement of an evaluation a sweep records as its y-value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepMetric {
    /// Mean absolute error (the paper's headline accuracy metric).
    Mae,
    /// Root mean squared error.
    Rmse,
    /// Mean precision@N over the ranking cases.
    PrecisionAtN,
    /// Mean recall@N over the ranking cases.
    RecallAtN,
    /// Catalogue coverage of the recommendation lists.
    Coverage,
}

impl SweepMetric {
    /// Stable identifier used for labels and machine-readable reports.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMetric::Mae => "mae",
            SweepMetric::Rmse => "rmse",
            SweepMetric::PrecisionAtN => "precision_at_n",
            SweepMetric::RecallAtN => "recall_at_n",
            SweepMetric::Coverage => "coverage",
        }
    }
}

/// A declarative sweep: which parameter to vary, the values to visit (in order), and
/// which metric to record. Executed by the `xmap-bench` sweep runner (one fit plus one
/// dataflow evaluation per point).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The swept parameter.
    pub param: SweepParam,
    /// The metric recorded at each point.
    pub metric: SweepMetric,
    /// The parameter values, visited in order.
    pub values: Vec<f64>,
}

impl SweepSpec {
    /// Creates a MAE sweep over the given values.
    pub fn new(param: SweepParam, values: Vec<f64>) -> Self {
        SweepSpec {
            param,
            metric: SweepMetric::Mae,
            values,
        }
    }

    /// Replaces the recorded metric.
    pub fn with_metric(mut self, metric: SweepMetric) -> Self {
        self.metric = metric;
        self
    }
}

/// One point of a parameter sweep: the x-value (k, α, ε, overlap fraction, …) and the
/// measured y-value (almost always MAE).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// The measured value at that parameter.
    pub y: f64,
}

/// A named series of sweep points — one line of a figure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSeries {
    /// Legend label (e.g. "X-MAP-IB").
    pub label: String,
    /// The measured points, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        SweepSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(SweepPoint { x, y });
    }

    /// The point with the smallest y value, if any finite point exists.
    pub fn best(&self) -> Option<SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.y.is_finite())
            .copied()
            .min_by(|a, b| a.y.partial_cmp(&b.y).unwrap_or(std::cmp::Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_cf::Rating;

    #[test]
    fn evaluate_predictions_aggregates_errors() {
        let test = vec![
            Rating::new(UserId(0), ItemId(0), 4.0),
            Rating::new(UserId(0), ItemId(1), 2.0),
            Rating::new(UserId(1), ItemId(0), 5.0),
        ];
        // constant predictor of 3.0
        let outcome = evaluate_predictions(&test, |_, _| 3.0);
        assert_eq!(outcome.n, 3);
        assert!((outcome.mae - (1.0 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
        assert!(outcome.rmse >= outcome.mae);
        // a perfect predictor
        let perfect = evaluate_predictions(&test, |u, i| {
            test.iter()
                .find(|r| r.user == u && r.item == i)
                .unwrap()
                .value
        });
        assert_eq!(perfect.mae, 0.0);
    }

    #[test]
    fn empty_test_set_gives_nan() {
        let outcome = evaluate_predictions(&[], |_, _| 3.0);
        assert_eq!(outcome.n, 0);
        assert!(outcome.mae.is_nan());
    }

    #[test]
    fn nan_predictions_flow_through_as_span_penalties() {
        let test = vec![
            Rating::new(UserId(0), ItemId(0), 2.0),
            Rating::new(UserId(0), ItemId(1), 5.0),
        ];
        // The predictor NaN-poisons one of the two triples; the outcome must charge the
        // span-derived worst case (5.0 - 2.0 = 3.0) instead of dropping the pair.
        let outcome =
            evaluate_predictions(&test, |_, i| if i == ItemId(0) { f64::NAN } else { 5.0 });
        assert_eq!(outcome.n, 2);
        assert!(outcome.mae.is_finite(), "NaN must not leak into the MAE");
        assert!((outcome.mae - 1.5).abs() < 1e-12);
        assert!((outcome.rmse - (4.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sweep_spec_labels_round_trip() {
        for param in [
            SweepParam::K,
            SweepParam::Epsilon,
            SweepParam::EpsilonPrime,
            SweepParam::TemporalAlpha,
            SweepParam::Overlap,
        ] {
            assert_eq!(SweepParam::parse(param.label()), Some(param));
        }
        assert_eq!(SweepParam::parse("nope"), None);
        let spec = SweepSpec::new(SweepParam::K, vec![10.0, 25.0]).with_metric(SweepMetric::Rmse);
        assert_eq!(spec.metric.label(), "rmse");
        assert_eq!(spec.values, vec![10.0, 25.0]);
    }

    #[test]
    fn sweep_series_bookkeeping() {
        let mut s = SweepSeries::new("X-MAP-IB");
        s.push(10.0, 0.8);
        s.push(20.0, 0.7);
        s.push(30.0, 0.72);
        assert_eq!(s.label, "X-MAP-IB");
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.best().unwrap().x, 20.0);
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = SweepSeries::new("empty");
        assert!(s.best().is_none());
    }
}
