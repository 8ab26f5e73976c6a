//! # xmap-suite — workspace façade
//!
//! A thin re-export layer over the workspace crates so that the examples and integration
//! tests can use one coherent namespace. Library users should normally depend on the
//! individual crates (`xmap-core`, `xmap-cf`, …) directly; this façade exists for the
//! workspace-level binaries and tests.

#![warn(missing_docs)]

pub use xmap_cf as cf;
pub use xmap_core as core;
pub use xmap_dataset as dataset;
pub use xmap_engine as engine;
pub use xmap_eval as eval;
pub use xmap_graph as graph;
pub use xmap_privacy as privacy;

/// The most commonly used types, re-exported for examples and integration tests.
pub mod prelude {
    pub use xmap_cf::{
        DomainId, ItemId, Rating, RatingMatrix, RatingMatrixBuilder, Timestep, UserId,
    };
    pub use xmap_core::{
        DeltaReport, ModelEpoch, PrivacyConfig, RatingDelta, XMapConfig, XMapMode, XMapModel,
    };
    pub use xmap_dataset::split::{CrossDomainSplit, SplitConfig};
    pub use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};
    pub use xmap_dataset::toy::ToyScenario;
    pub use xmap_eval::{
        evaluate_batch_serial, evaluate_predictions, mae, ranking_cases_from_test, EvalBatch,
        EvalReport, EvalStage, SweepMetric, SweepParam, SweepSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        let toy = ToyScenario::build();
        let config = XMapConfig {
            k: 2,
            ..XMapConfig::default()
        };
        let model =
            XMapModel::fit(&toy.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
        assert_eq!(model.label(), "NX-MAP-IB");
    }
}
