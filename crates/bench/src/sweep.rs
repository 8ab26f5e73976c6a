//! The engine-parallel sweep runner: [`SweepSpec`] → fitted models → [`SweepSeries`].
//!
//! [`SweepRunner`] owns the dataset and split configuration, so it executes every
//! [`SweepParam`] through one loop: a config-level value (k, ε, ε′, α) is fitted on the
//! fixed split, and an overlap value (the axis of Figure 9) rebuilds the split. Each
//! sweep point is one pipeline fit plus one `EvalStage` dataflow run, and the resulting
//! series is deterministic for any worker count (the fit and the evaluation both carry
//! the engine's bit-identity contract).

use crate::experiments::Direction;
use xmap_cf::DomainId;
use xmap_core::{Result, XMapConfig, XMapModel};
use xmap_dataset::split::{CrossDomainSplit, SplitConfig};
use xmap_dataset::synthetic::CrossDomainDataset;
use xmap_eval::{ranking_cases_from_test, EvalBatch, SweepParam, SweepSeries, SweepSpec};

/// Executes parameter sweeps over one dataset/direction/configuration triple.
pub struct SweepRunner {
    dataset: CrossDomainDataset,
    direction: Direction,
    base: XMapConfig,
}

/// Ranking-list length N of every sweep's ranking cases.
const TOP_N: usize = 5;
/// Hidden ratings at or above this value count as relevant in ranking cases.
const RELEVANCE_THRESHOLD: f64 = 4.0;

impl SweepRunner {
    /// Creates a runner with the default split protocol (§6.1 cold-start, seed 99),
    /// top-5 ranking lists and a relevance threshold of 4.0.
    pub fn new(dataset: CrossDomainDataset, direction: Direction, base: XMapConfig) -> Self {
        SweepRunner {
            dataset,
            direction,
            base,
        }
    }

    /// The base configuration sweeps start from.
    pub fn base_config(&self) -> &XMapConfig {
        &self.base
    }

    /// The (source, target) domains of the runner's direction.
    pub fn domains(&self) -> (DomainId, DomainId) {
        self.direction.domains()
    }

    /// Number of recommendable items in the target domain (the coverage catalogue).
    pub fn catalogue_size(&self) -> usize {
        let (_, target) = self.domains();
        let matrix = &self.dataset.matrix;
        matrix
            .items()
            .filter(|&i| matrix.item_domain(i) == target)
            .count()
    }

    /// Builds the runner's split (optionally overriding the overlap fraction).
    pub fn split(&self, overlap_fraction: Option<f64>) -> CrossDomainSplit {
        let (_, target) = self.domains();
        let mut config = SplitConfig::default();
        if let Some(fraction) = overlap_fraction {
            config.overlap_fraction = fraction;
        }
        CrossDomainSplit::build(&self.dataset, target, config)
    }

    /// The evaluation batch of a split: its hidden triples plus the ranking cases
    /// derived from them.
    pub fn eval_batch(&self, split: &CrossDomainSplit) -> EvalBatch {
        let ranking = ranking_cases_from_test(&split.test, RELEVANCE_THRESHOLD);
        EvalBatch::predictions(split.test.clone()).with_ranking(
            ranking,
            TOP_N,
            self.catalogue_size(),
        )
    }

    /// Fits the base configuration on a split's training matrix.
    pub fn fit(&self, split: &CrossDomainSplit) -> XMapModel {
        let (source, target) = self.domains();
        XMapModel::fit(&split.train, source, target, self.base)
            .expect("harness datasets always contain both domains") // lint: panic — reviewed invariant
    }

    /// Executes a sweep: one fitted pipeline plus one `EvalStage` dataflow run per
    /// point. A config-level value is applied to the base configuration and fitted on
    /// the runner's default split; an overlap value rebuilds the split and fits the base
    /// configuration on it. An invalid value (k = 0, say) is the fit's
    /// `XMapError::InvalidConfig`.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepSeries> {
        let (source, target) = self.domains();
        let label = format!("{} / {}", self.base.mode.label(), spec.param.label());
        let mut series = SweepSeries::new(label);
        // The overlap axis rebuilds the split per point; every other axis shares one.
        let fixed = (spec.param != SweepParam::Overlap).then(|| self.split(None));
        for &value in &spec.values {
            let mut config = self.base;
            match spec.param {
                SweepParam::K => config.k = value.round() as usize,
                SweepParam::Epsilon => config.privacy.epsilon = value,
                SweepParam::EpsilonPrime => config.privacy.epsilon_prime = value,
                SweepParam::TemporalAlpha => config.temporal_alpha = value,
                SweepParam::Overlap => {}
            }
            let rebuilt;
            let split = match &fixed {
                Some(split) => split,
                None => {
                    rebuilt = self.split(Some(value));
                    &rebuilt
                }
            };
            let model = XMapModel::fit(&split.train, source, target, config)?;
            let report = model.evaluate_batch(self.eval_batch(split));
            series.push(value, report.metric(spec.metric));
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::amazon_like_small;
    use crate::experiments::evaluate_xmap;
    use xmap_core::{XMapError, XMapMode};
    use xmap_eval::SweepMetric;

    fn runner() -> SweepRunner {
        let base = XMapConfig {
            mode: XMapMode::NxMapItemBased,
            k: 8,
            ..Default::default()
        };
        SweepRunner::new(amazon_like_small(), Direction::MovieToBook, base)
    }

    #[test]
    fn k_sweep_matches_the_serial_evaluation_protocol_bit_for_bit() {
        let r = runner();
        let series = r
            .run(&SweepSpec::new(SweepParam::K, vec![4.0, 8.0]))
            .unwrap();
        assert_eq!(series.points.len(), 2);
        let (source, target) = r.domains();
        let split = r.split(None);
        for point in &series.points {
            let config = XMapConfig {
                k: point.x as usize,
                ..*r.base_config()
            };
            // evaluate_xmap is the historical serial loop (evaluate_predictions over
            // model.predict); the engine-parallel sweep must agree bit for bit.
            let expected = evaluate_xmap(&split, source, target, config);
            assert_eq!(
                point.y.to_bits(),
                expected.to_bits(),
                "k={} diverged from the serial protocol",
                point.x
            );
        }
    }

    #[test]
    fn overlap_sweep_rebuilds_the_split_per_point() {
        let r = runner();
        let series = r
            .run(&SweepSpec::new(SweepParam::Overlap, vec![0.5, 1.0]))
            .unwrap();
        assert_eq!(series.label, "NX-MAP-IB / overlap");
        assert_eq!(series.points.len(), 2);
        for point in &series.points {
            assert!(
                point.y.is_finite(),
                "overlap={} produced non-finite MAE",
                point.x
            );
        }
    }

    #[test]
    fn sweeps_are_identical_for_1_2_and_8_workers() {
        let spec = SweepSpec::new(SweepParam::K, vec![4.0, 8.0]).with_metric(SweepMetric::Rmse);
        let mut reference: Option<SweepSeries> = None;
        for workers in [1usize, 2, 8] {
            let base = XMapConfig {
                mode: XMapMode::NxMapItemBased,
                k: 8,
                workers,
                ..Default::default()
            };
            let series = SweepRunner::new(amazon_like_small(), Direction::MovieToBook, base)
                .run(&spec)
                .unwrap();
            match &reference {
                None => reference = Some(series),
                Some(expected) => {
                    assert_eq!(&series, expected, "{workers} workers changed the sweep")
                }
            }
        }
    }

    #[test]
    fn ranking_metrics_flow_through_the_sweep() {
        let r = runner();
        let spec = SweepSpec::new(SweepParam::K, vec![8.0]).with_metric(SweepMetric::PrecisionAtN);
        let series = r.run(&spec).unwrap();
        assert_eq!(series.points.len(), 1);
        let y = series.points[0].y;
        assert!((0.0..=1.0).contains(&y), "precision@N out of range: {y}");
        let batch = r.eval_batch(&r.split(None));
        assert!(!batch.ranking.is_empty());
        assert!(r.catalogue_size() > 0);
    }

    #[test]
    fn an_invalid_point_value_is_a_configuration_error() {
        let err = runner()
            .run(&SweepSpec::new(SweepParam::K, vec![4.0, 0.0]))
            .unwrap_err();
        assert!(matches!(err, XMapError::InvalidConfig(_)), "{err}");
    }
}
