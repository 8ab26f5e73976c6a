//! Cross-crate integration tests of the engine-parallel evaluation harness: the
//! `EvalStage` contract (bit-identity with the serial reference at 1/2/8 workers, one
//! data-derived task bag in the `eval` ledger) driven through the public API.

use xmap_suite::engine::Dataflow;
use xmap_suite::eval::EVAL_STAGE_NAME;
use xmap_suite::prelude::*;

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig {
        n_source_items: 60,
        n_target_items: 80,
        n_source_only_users: 40,
        n_target_only_users: 40,
        n_overlap_users: 35,
        ratings_per_user: 12,
        latent_dim: 4,
        noise: 0.3,
        seed: 3,
        popularity_skew: 0.0,
    })
}

fn eval_batch(ds: &CrossDomainDataset, split: &CrossDomainSplit) -> EvalBatch {
    let ranking = ranking_cases_from_test(&split.test, 4.0);
    let catalogue = ds.target_items().len();
    EvalBatch::predictions(split.test.clone()).with_ranking(ranking, 5, catalogue)
}

#[test]
fn eval_stage_is_bit_identical_to_the_serial_protocol_at_1_2_and_8_workers() {
    let ds = dataset();
    let split = CrossDomainSplit::build(&ds, DomainId::TARGET, SplitConfig::default());
    let batch = eval_batch(&ds, &split);
    assert!(!batch.test.is_empty(), "split must hide some ratings");
    assert!(!batch.ranking.is_empty(), "split must yield ranking cases");

    let mut reference: Option<(EvalReport, Vec<f64>)> = None;
    for workers in [1usize, 2, 8] {
        let model = XMapModel::fit(
            &split.train,
            DomainId::SOURCE,
            DomainId::TARGET,
            XMapConfig {
                k: 10,
                workers,
                ..Default::default()
            },
        )
        .unwrap();
        let report = model.evaluate_batch(batch.clone());

        // bit-identical to the fully serial protocol over the same fitted model
        let serial = evaluate_batch_serial(&*model.snapshot().1, &batch);
        assert!(
            report.bits_eq(&serial),
            "{workers} workers: stage diverged from serial\n  {report:?}\n  {serial:?}"
        );
        // and its error half to the historical evaluate_predictions loop
        let outcome = evaluate_predictions(&batch.test, |u, i| model.predict(u, i));
        assert_eq!(report.mae.to_bits(), outcome.mae.to_bits());
        assert_eq!(report.rmse.to_bits(), outcome.rmse.to_bits());
        assert_eq!(report.n_predictions, outcome.n);

        let ledger = model.ledger();
        let eval = ledger.iter().find(|r| r.name == EVAL_STAGE_NAME);
        let costs = eval.expect("eval records task costs").costs.clone();
        assert!(!costs.is_empty());
        assert!(costs.iter().all(|c| *c >= 0.0));
        match &reference {
            None => reference = Some((report, costs)),
            Some((expected, expected_costs)) => {
                assert!(report.bits_eq(expected), "{workers} workers changed output");
                assert_eq!(&costs, expected_costs, "{workers} workers changed costs");
            }
        }
    }
}

#[test]
fn eval_stage_runs_on_a_standalone_dataflow_and_replaces_its_ledger() {
    let ds = dataset();
    let split = CrossDomainSplit::build(&ds, DomainId::TARGET, SplitConfig::default());
    let batch = eval_batch(&ds, &split);
    let model = XMapModel::fit(
        &split.train,
        DomainId::SOURCE,
        DomainId::TARGET,
        XMapConfig {
            k: 10,
            ..Default::default()
        },
    )
    .unwrap();

    // Any Dataflow can host the stage — evaluation is not tied to the model's runner.
    let flow = Dataflow::new(2, 8);
    let (_, epoch) = model.snapshot();
    let report = flow.run(&EvalStage::new(&*epoch), batch.clone());
    assert!(report.bits_eq(&model.evaluate_batch(batch.clone())));
    let costs = flow.stage_costs(EVAL_STAGE_NAME).unwrap();
    assert_eq!(
        costs.len(),
        16,
        "8 prediction partitions + 8 ranking partitions"
    );
    let expected_total: f64 = batch.test.len() as f64
        + batch
            .ranking
            .iter()
            .map(|c| 1.0 + c.relevant.len() as f64)
            .sum::<f64>();
    assert!((costs.iter().sum::<f64>() - expected_total).abs() < 1e-9);

    // Repeated runs replace the ledger entry instead of growing it (sweep-point reuse).
    let smaller = EvalBatch::predictions(batch.test[..4].to_vec());
    let _ = flow.run(&EvalStage::new(&*epoch), smaller);
    let costs = flow.stage_costs(EVAL_STAGE_NAME).unwrap();
    assert_eq!(costs.len(), 8, "prediction-only rerun holds one cost bag");
    assert!((costs.iter().sum::<f64>() - 4.0).abs() < 1e-9);
}
