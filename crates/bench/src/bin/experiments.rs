//! The `experiments` harness: engine-parallel sweeps plus the CI accuracy gate.
//!
//! ```text
//! cargo run --release -p xmap-bench --bin experiments -- eval-smoke
//! cargo run --release -p xmap-bench --bin experiments -- eval-smoke --out report.json
//! cargo run --release -p xmap-bench --bin experiments -- eval-smoke --check crates/bench/baselines/eval_smoke.json
//! cargo run --release -p xmap-bench --bin experiments -- sweep k [quick|full]
//! ```
//!
//! `eval-smoke` runs the full determinism/accuracy gate on the small fixed-seed trace:
//! it fits the model at 1, 2 and 8 workers, asserts the engine-parallel `EvalStage`
//! output is bit-identical to the serial `evaluate_predictions` reference at every
//! worker count (outputs *and* task-cost ledgers — including the fit stages'
//! `baseliner` / `extender` / `generator` / `recommender` bags and the delta's
//! `delta` bag, captured by applying a pinned one-rating delta), runs the
//! sharded-routing gate (the same model routed across simulated nodes with hot-shard
//! replication must serve and ingest the exact single-node bits, and its
//! `route` / `shard_serve` / `shard_ingest` ledgers are pinned too), executes the
//! k / ε′ / overlap sweeps (ε′ rather than ε — see the note in `smoke_sweeps`), and
//! emits a machine-readable JSON report with the eval metrics *and* the fit ledgers'
//! task counts / total costs. With `--check <baseline>` the report is
//! diffed against the committed baseline: any MAE drift beyond 1e-9 fails the run —
//! and so does any fit task-cost drift — which is what the `eval-smoke` CI job
//! enforces on every push.
//!
//! `sweep <k|epsilon|epsilon_prime|alpha|overlap>` runs one sweep on the Amazon-like
//! trace and prints both the table and the JSON series.

use std::process::ExitCode;
use xmap_bench::experiments::{stage_costs, Direction};
use xmap_bench::report::render_series_table;
use xmap_bench::{amazon_like, amazon_like_small, Scale, SweepRunner};
use xmap_core::{
    PrivacyConfig, ShardedModel, XMapConfig, XMapMode, XMapModel, DELTA_STAGE_NAME, FIT_STAGE_NAMES,
};
use xmap_engine::Json;
use xmap_eval::{
    evaluate_batch_serial, evaluate_predictions, EvalReport, SweepParam, SweepSeries, SweepSpec,
    EVAL_STAGE_NAME,
};

/// Tolerance of the accuracy gate: committed baseline values may drift by at most this.
const GATE_TOLERANCE: f64 = 1e-9;

/// Worker counts the determinism gate exercises.
const GATE_WORKERS: [usize; 3] = [1, 2, 8];

/// Node count of the sharded-routing gate.
const GATE_NODES: usize = 4;

/// Hot-shard replication factor of the sharded-routing gate.
const GATE_REPLICATION: u32 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("eval-smoke") => eval_smoke(&args[1..]),
        Some("sweep") => sweep_command(&args[1..]),
        _ => {
            eprintln!(
                "usage: experiments eval-smoke [--out PATH] [--check BASELINE]\n\
                        experiments sweep <k|epsilon|epsilon_prime|alpha|overlap> [quick|full]"
            );
            ExitCode::from(2)
        }
    }
}

/// The value following `flag`, if the flag is present. A flag with a missing value
/// (end of args, or another `--flag` in value position) aborts with a usage error
/// instead of silently consuming the next flag — a typo must not disable the gate.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let ix = args.iter().position(|a| a == flag)?;
    match args.get(ix + 1).map(String::as_str) {
        Some(value) if !value.starts_with("--") => Some(value),
        _ => {
            eprintln!("error: `{flag}` requires a value");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// eval-smoke: the determinism + accuracy gate
// ---------------------------------------------------------------------------

fn smoke_runner(mode: XMapMode) -> SweepRunner {
    let base = XMapConfig {
        mode,
        k: 8,
        privacy: match mode {
            XMapMode::XMapUserBased => PrivacyConfig::user_based_default(),
            _ => PrivacyConfig::default(),
        },
        ..Default::default()
    };
    SweepRunner::new(amazon_like_small(), Direction::MovieToBook, base)
}

/// The fit stages' per-partition task bags, keyed by ledger name — part of the gated
/// report so the baseline JSON also pins the fit task costs.
type FitLedgers = Vec<(String, Vec<f64>)>;

/// One ledger entry's name, task count and total cost: what the report prints and the
/// baseline pins.
type LedgerTotal = (String, usize, f64);

fn bag_total((name, bag): &(String, Vec<f64>)) -> LedgerTotal {
    (name.clone(), bag.len(), bag.iter().sum())
}

/// Fits the smoke configuration at every gate worker count and asserts the
/// engine-parallel evaluation is bit-identical to the serial reference throughout —
/// and that the fit's own task-cost ledgers (`baseliner` / `extender` / `generator` /
/// `recommender`) are identical at every worker count.
/// Returns the (shared) report, the fit ledgers, and the model epoch the gated ledgers
/// describe (fit = epoch 1, plus one pinned delta = epoch 2) — stamped into the JSON
/// report so bench output is attributable to a model version.
fn run_determinism_gate(runner: &SweepRunner) -> (EvalReport, FitLedgers, u64) {
    let split = runner.split(None);
    let batch = runner.eval_batch(&split);
    assert!(
        !batch.test.is_empty() && !batch.ranking.is_empty(),
        "the smoke split must exercise both metric families"
    );
    let (source, target) = runner.domains();
    let mut reference: Option<(EvalReport, Vec<f64>, FitLedgers)> = None;
    for workers in GATE_WORKERS {
        let config = XMapConfig {
            workers,
            ..*runner.base_config()
        };
        let model = XMapModel::fit(&split.train, source, target, config)
            .expect("smoke dataset contains both domains");
        assert_eq!(
            model.epoch(),
            1,
            "{workers} workers: a fresh fit is epoch 1"
        );
        let mut fit_ledgers: FitLedgers = model
            .ledger()
            .into_iter()
            .map(|r| (r.name, r.costs))
            .collect();
        for (name, bag) in &fit_ledgers {
            assert!(
                !bag.is_empty(),
                "{workers} workers: the {name} stage recorded no task costs"
            );
        }
        let names: Vec<&str> = fit_ledgers.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names, FIT_STAGE_NAMES,
            "{workers} workers: the fit's ledger"
        );
        let report = model.evaluate_batch(batch.clone());
        let serial = evaluate_batch_serial(&*model.snapshot().1, &batch);
        assert!(
            report.bits_eq(&serial),
            "{workers} workers: EvalStage diverged from the serial reference\n  stage:  {report:?}\n  serial: {serial:?}"
        );
        let loop_outcome = evaluate_predictions(&batch.test, |u, i| model.predict(u, i));
        assert_eq!(
            report.mae.to_bits(),
            loop_outcome.mae.to_bits(),
            "{workers} workers: MAE diverged from evaluate_predictions"
        );
        let costs = stage_costs(&model, EVAL_STAGE_NAME);
        assert!(!costs.is_empty(), "evaluation records task costs");
        // After everything is evaluated, apply the pinned smoke delta (the first test
        // triple fed back as a fresh rating) and capture the `delta` ledger: the
        // delta's task bag is gated against the baseline — and against the
        // other worker counts — exactly like the fit stages'.
        let mut delta = xmap_core::RatingDelta::new();
        let probe = &batch.test[0];
        delta.push(xmap_cf::Rating::at(
            probe.user,
            probe.item,
            probe.value,
            xmap_cf::Timestep(10_000),
        ));
        let delta_report = model.apply_delta(&delta).expect("the smoke delta applies");
        assert!(
            delta_report.n_rescored_pairs > 0,
            "{workers} workers: the smoke delta must score the graph's pairs"
        );
        assert_eq!(
            (delta_report.epoch, model.epoch()),
            (2, 2),
            "{workers} workers: the smoke delta must publish epoch 2"
        );
        let delta_bag = stage_costs(&model, DELTA_STAGE_NAME);
        assert!(
            !delta_bag.is_empty(),
            "{workers} workers: the delta stage recorded no task costs"
        );
        fit_ledgers.push((DELTA_STAGE_NAME.to_string(), delta_bag));
        match &reference {
            None => reference = Some((report, costs, fit_ledgers)),
            Some((expected, expected_costs, expected_ledgers)) => {
                assert!(
                    report.bits_eq(expected),
                    "{workers} workers changed the evaluation report"
                );
                assert_eq!(
                    &costs, expected_costs,
                    "{workers} workers changed the eval task costs"
                );
                assert_eq!(
                    &fit_ledgers, expected_ledgers,
                    "{workers} workers changed the fit task costs"
                );
            }
        }
    }
    let (report, _, ledgers) = reference.expect("at least one worker count ran");
    (report, ledgers, 2)
}

/// Routes the smoke model across [`GATE_NODES`] simulated nodes with hot-shard
/// replication (factor [`GATE_REPLICATION`]) and asserts every routed answer —
/// predictions, top-N lists, and a routed ingest of the pinned smoke delta —
/// carries the exact single-node bits. Returns the totals of the router's three
/// per-node tallies (`route` / `shard_serve` / `shard_ingest`), so the baseline
/// JSON also pins the routed work profile: a drifting task count means the
/// router's read placement or per-shard ingest charge changed — regenerate the
/// baseline deliberately.
fn run_sharded_gate(runner: &SweepRunner) -> Vec<LedgerTotal> {
    let split = runner.split(None);
    let batch = runner.eval_batch(&split);
    let (source, target) = runner.domains();
    let fit = || {
        let config = XMapConfig {
            workers: 1,
            ..*runner.base_config()
        };
        XMapModel::fit(&split.train, source, target, config)
            .expect("smoke dataset contains both domains")
    };
    let reference = fit();
    let mut sharded = ShardedModel::with_hot_replication(fit(), GATE_NODES, GATE_REPLICATION)
        .expect("sharding the smoke model succeeds");

    let n = 5;
    let mut users: Vec<_> = batch.test.iter().map(|t| t.user).collect();
    users.dedup();
    users.truncate(8);
    for probe in batch.test.iter().take(16) {
        assert_eq!(
            sharded
                .predict(probe.user, probe.item)
                .expect("every shard has a live replica")
                .to_bits(),
            reference.predict(probe.user, probe.item).to_bits(),
            "routed prediction diverged from single-node for {:?}/{:?}",
            probe.user,
            probe.item
        );
    }
    for &user in &users {
        let routed: Vec<(u32, u64)> = sharded
            .recommend(user, n)
            .expect("every shard has a live replica")
            .into_iter()
            .map(|(i, s)| (i.0, s.to_bits()))
            .collect();
        let single: Vec<(u32, u64)> = reference
            .recommend(user, n)
            .into_iter()
            .map(|(i, s)| (i.0, s.to_bits()))
            .collect();
        assert_eq!(
            routed, single,
            "routed top-{n} diverged from single-node for {user:?}"
        );
    }

    // Routed ingest of the pinned smoke delta: the router must split, journal and
    // republish to the exact epoch and bits the single-node `apply_delta` reaches.
    let mut delta = xmap_core::RatingDelta::new();
    let probe = &batch.test[0];
    delta.push(xmap_cf::Rating::at(
        probe.user,
        probe.item,
        probe.value,
        xmap_cf::Timestep(10_000),
    ));
    let routed_report = sharded
        .ingest(&delta)
        .expect("the smoke delta routes cleanly");
    let single_report = reference
        .apply_delta(&delta)
        .expect("the smoke delta applies");
    assert_eq!(
        (routed_report.epoch, single_report.epoch),
        (2, 2),
        "the routed smoke delta must publish epoch 2 on both sides"
    );
    for probe in batch.test.iter().take(16) {
        assert_eq!(
            sharded
                .predict(probe.user, probe.item)
                .expect("every shard has a live replica")
                .to_bits(),
            reference.predict(probe.user, probe.item).to_bits(),
            "routed post-ingest prediction diverged from single-node for {:?}/{:?}",
            probe.user,
            probe.item
        );
    }

    let totals = sharded.ledger().into_iter().map(|(name, tally)| {
        assert!(
            tally.n_tasks > 0,
            "the {name} ledger recorded no routed tasks"
        );
        (name.to_string(), tally.n_tasks, tally.total_work)
    });
    totals.collect()
}

fn smoke_sweeps() -> Vec<(SweepSpec, SweepSeries)> {
    let specs = vec![
        (
            XMapMode::NxMapItemBased,
            SweepSpec::new(SweepParam::K, vec![2.0, 4.0, 8.0]),
        ),
        // ε′ rather than ε: on the small smoke trace the PRS draw is insensitive to ε
        // in the paper's operating range (the fixed-seed exponential mechanism picks
        // the same replacements), while the PNSA/PNCF noise scales visibly with ε′ —
        // a moving series makes the drift gate meaningful for the private path.
        (
            XMapMode::XMapItemBased,
            SweepSpec::new(SweepParam::EpsilonPrime, vec![0.05, 0.3, 0.8]),
        ),
        (
            XMapMode::NxMapItemBased,
            SweepSpec::new(SweepParam::Overlap, vec![0.5, 1.0]),
        ),
    ];
    specs
        .into_iter()
        .map(|(mode, spec)| {
            let series = smoke_runner(mode)
                .run(&spec)
                .expect("every smoke sweep value is a valid configuration");
            (spec, series)
        })
        .collect()
}

fn report_to_json(report: &EvalReport) -> Json {
    Json::obj([
        ("mae", Json::Num(report.mae)),
        ("rmse", Json::Num(report.rmse)),
        ("n_predictions", Json::Num(report.n_predictions as f64)),
        ("precision_at_n", Json::Num(report.precision_at_n)),
        ("recall_at_n", Json::Num(report.recall_at_n)),
        ("coverage", Json::Num(report.coverage)),
        ("n_ranking_users", Json::Num(report.n_ranking_users as f64)),
    ])
}

/// One JSON node per ledger entry: task count and total cost. The totals are sums of
/// integer-valued, data-derived work estimates accumulated in a fixed order, so they
/// are exactly reproducible and safe to gate at [`GATE_TOLERANCE`].
fn ledgers_to_json(totals: &[LedgerTotal]) -> Json {
    let node = |(name, n_tasks, total): &LedgerTotal| {
        let counts = [
            ("n_tasks", Json::Num(*n_tasks as f64)),
            ("total_cost", Json::Num(*total)),
        ];
        (name.clone(), Json::obj(counts))
    };
    Json::Obj(totals.iter().map(node).collect())
}

fn print_totals(what: &str, totals: &[LedgerTotal]) {
    for (name, n_tasks, total) in totals {
        println!("{what}: {name} ledger {n_tasks} tasks, total cost {total:.0}");
    }
}

fn series_to_json(spec: &SweepSpec, series: &SweepSeries) -> Json {
    Json::obj([
        ("param", Json::str(spec.param.label())),
        ("metric", Json::str(spec.metric.label())),
        ("label", Json::str(series.label.clone())),
        (
            "points",
            Json::Arr(
                series
                    .points
                    .iter()
                    .map(|p| Json::obj([("x", Json::Num(p.x)), ("y", Json::Num(p.y))]))
                    .collect(),
            ),
        ),
    ])
}

fn eval_smoke(args: &[String]) -> ExitCode {
    println!("# eval-smoke: engine-parallel evaluation gate");
    let runner = smoke_runner(XMapMode::NxMapItemBased);
    let (report, fit_ledgers, model_epoch) = run_determinism_gate(&runner);
    println!(
        "determinism: EvalStage bit-identical to the serial reference at {GATE_WORKERS:?} workers \
         (ledgers describe model epoch {model_epoch})"
    );
    let fit_totals: Vec<LedgerTotal> = fit_ledgers.iter().map(bag_total).collect();
    print_totals("fit", &fit_totals);
    println!(
        "eval: mae {:.6}  rmse {:.6}  precision@N {:.4}  recall@N {:.4}  coverage {:.4}  ({} triples, {} ranking users)",
        report.mae,
        report.rmse,
        report.precision_at_n,
        report.recall_at_n,
        report.coverage,
        report.n_predictions,
        report.n_ranking_users
    );

    let shard_ledgers = run_sharded_gate(&runner);
    println!(
        "sharded: routed serving + ingest bit-identical to single-node at {GATE_NODES} nodes \
         (hot-shard replication factor {GATE_REPLICATION})"
    );
    print_totals("sharded", &shard_ledgers);

    let sweeps = smoke_sweeps();
    for (spec, series) in &sweeps {
        println!(
            "{}",
            render_series_table(spec.param.label(), std::slice::from_ref(series), 6)
        );
    }

    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("harness", Json::str("eval-smoke")),
        ("dataset", Json::str("amazon_like_small")),
        ("split_seed", Json::Num(99.0)),
        (
            "workers_checked",
            Json::Arr(GATE_WORKERS.iter().map(|&w| Json::Num(w as f64)).collect()),
        ),
        ("bit_identical", Json::Bool(true)),
        ("model_epoch", Json::Num(model_epoch as f64)),
        ("eval", report_to_json(&report)),
        ("fit", ledgers_to_json(&fit_totals)),
        (
            "shard",
            Json::obj([
                ("n_nodes", Json::Num(GATE_NODES as f64)),
                ("replication", Json::Num(GATE_REPLICATION as f64)),
                ("ledgers", ledgers_to_json(&shard_ledgers)),
            ]),
        ),
        (
            "sweeps",
            Json::Arr(
                sweeps
                    .iter()
                    .map(|(spec, series)| series_to_json(spec, series))
                    .collect(),
            ),
        ),
    ]);

    if let Some(path) = flag_value(args, "--out") {
        std::fs::write(path, doc.render_pretty()).expect("failed to write the JSON report");
        println!("report written to {path}");
    } else {
        println!("{}", doc.render_pretty());
    }

    if let Some(path) = flag_value(args, "--check") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = Json::parse(&text).unwrap_or_else(|e| panic!("bad baseline {path}: {e}"));
        let drift = diff_against_baseline(&doc, &baseline);
        if drift.is_empty() {
            println!("gate: report matches {path} within {GATE_TOLERANCE:e}");
        } else {
            eprintln!("gate FAILED against {path}:");
            for line in &drift {
                eprintln!("  {line}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Compares the freshly generated report against the committed baseline. Every numeric
/// field of `eval` and every sweep point must agree within [`GATE_TOLERANCE`]; missing
/// or extra sweeps are also drift (the baseline must be regenerated deliberately).
fn diff_against_baseline(current: &Json, baseline: &Json) -> Vec<String> {
    let mut drift = Vec::new();
    fn check(drift: &mut Vec<String>, name: String, cur: Option<f64>, base: Option<f64>) {
        match (cur, base) {
            // Fail closed: a NaN-regressed value (whose every `>` comparison is false)
            // must register as drift, so non-finite deltas are rejected explicitly.
            (Some(c), Some(b)) => {
                let delta = (c - b).abs();
                if !delta.is_finite() || delta > GATE_TOLERANCE {
                    drift.push(format!("{name}: {c} vs baseline {b} (|Δ| = {delta:e})"));
                }
            }
            (c, b) => drift.push(format!(
                "{name}: missing value (current {c:?}, baseline {b:?})"
            )),
        }
    }

    // The epoch the gated ledgers describe: fit (1) plus the pinned smoke delta (2).
    // A drift here means the gate's fit/delta sequence itself changed.
    check(
        &mut drift,
        "model_epoch".to_string(),
        current.get("model_epoch").and_then(Json::as_f64),
        baseline.get("model_epoch").and_then(Json::as_f64),
    );

    for field in [
        "mae",
        "rmse",
        "n_predictions",
        "precision_at_n",
        "recall_at_n",
        "coverage",
        "n_ranking_users",
    ] {
        check(
            &mut drift,
            format!("eval.{field}"),
            current
                .get("eval")
                .and_then(|e| e.get(field))
                .and_then(Json::as_f64),
            baseline
                .get("eval")
                .and_then(|e| e.get(field))
                .and_then(Json::as_f64),
        );
    }

    // The fit task-cost ledgers (plus the delta's `delta` bag): a drifting
    // task count or total cost means the fit's partitioning or cost model changed —
    // regenerate the baseline deliberately.
    for stage in FIT_STAGE_NAMES.into_iter().chain([DELTA_STAGE_NAME]) {
        for field in ["n_tasks", "total_cost"] {
            check(
                &mut drift,
                format!("fit.{stage}.{field}"),
                current
                    .get("fit")
                    .and_then(|f| f.get(stage))
                    .and_then(|s| s.get(field))
                    .and_then(Json::as_f64),
                baseline
                    .get("fit")
                    .and_then(|f| f.get(stage))
                    .and_then(|s| s.get(field))
                    .and_then(Json::as_f64),
            );
        }
    }

    // The sharded router's work profile: the gate's fixed node count and replication
    // factor, plus each routed ledger's task count and total cost. A drift means the
    // router's read placement, serving fan-out or per-shard ingest charge changed.
    for field in ["n_nodes", "replication"] {
        check(
            &mut drift,
            format!("shard.{field}"),
            current
                .get("shard")
                .and_then(|s| s.get(field))
                .and_then(Json::as_f64),
            baseline
                .get("shard")
                .and_then(|s| s.get(field))
                .and_then(Json::as_f64),
        );
    }
    for ledger in ["route", "shard_serve", "shard_ingest"] {
        for field in ["n_tasks", "total_cost"] {
            check(
                &mut drift,
                format!("shard.ledgers.{ledger}.{field}"),
                current
                    .get("shard")
                    .and_then(|s| s.get("ledgers"))
                    .and_then(|l| l.get(ledger))
                    .and_then(|s| s.get(field))
                    .and_then(Json::as_f64),
                baseline
                    .get("shard")
                    .and_then(|s| s.get("ledgers"))
                    .and_then(|l| l.get(ledger))
                    .and_then(|s| s.get(field))
                    .and_then(Json::as_f64),
            );
        }
    }

    let empty: [Json; 0] = [];
    let current_sweeps = current
        .get("sweeps")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    let baseline_sweeps = baseline
        .get("sweeps")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    if current_sweeps.len() != baseline_sweeps.len() {
        drift.push(format!(
            "sweep count changed: {} vs baseline {}",
            current_sweeps.len(),
            baseline_sweeps.len()
        ));
    }
    for base_sweep in baseline_sweeps {
        let param = base_sweep
            .get("param")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let metric = base_sweep
            .get("metric")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let Some(cur_sweep) = current_sweeps.iter().find(|s| {
            s.get("param").and_then(Json::as_str) == Some(param)
                && s.get("metric").and_then(Json::as_str) == Some(metric)
        }) else {
            drift.push(format!(
                "sweep {param}/{metric}: missing from the current report"
            ));
            continue;
        };
        let base_points = base_sweep
            .get("points")
            .and_then(Json::as_array)
            .unwrap_or(&empty);
        let cur_points = cur_sweep
            .get("points")
            .and_then(Json::as_array)
            .unwrap_or(&empty);
        if base_points.len() != cur_points.len() {
            drift.push(format!(
                "sweep {param}/{metric}: {} points vs baseline {}",
                cur_points.len(),
                base_points.len()
            ));
            continue;
        }
        for (ix, (cur, base)) in cur_points.iter().zip(base_points).enumerate() {
            check(
                &mut drift,
                format!("sweep {param}/{metric} point {ix} x"),
                cur.get("x").and_then(Json::as_f64),
                base.get("x").and_then(Json::as_f64),
            );
            check(
                &mut drift,
                format!("sweep {param}/{metric} point {ix} y"),
                cur.get("y").and_then(Json::as_f64),
                base.get("y").and_then(Json::as_f64),
            );
        }
    }
    drift
}

// ---------------------------------------------------------------------------
// sweep: one-off sweeps on the Amazon-like trace
// ---------------------------------------------------------------------------

fn sweep_command(args: &[String]) -> ExitCode {
    let Some(param) = args.first().and_then(|p| SweepParam::parse(p)) else {
        eprintln!("usage: experiments sweep <k|epsilon|epsilon_prime|alpha|overlap> [quick|full]");
        return ExitCode::from(2);
    };
    let scale = match Scale::from_arg(args.get(1).map(String::as_str)) {
        Ok(scale) => scale,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let (mode, values): (XMapMode, Vec<f64>) = match param {
        SweepParam::K => (
            XMapMode::NxMapItemBased,
            match scale {
                Scale::Quick => vec![10.0, 25.0, 50.0],
                Scale::Full => vec![10.0, 25.0, 50.0, 75.0, 100.0],
            },
        ),
        SweepParam::Epsilon | SweepParam::EpsilonPrime => (
            XMapMode::XMapItemBased,
            match scale {
                Scale::Quick => vec![0.2, 0.5, 0.8],
                Scale::Full => vec![0.1, 0.3, 0.5, 0.7, 0.9],
            },
        ),
        SweepParam::TemporalAlpha => (XMapMode::NxMapItemBased, vec![0.0, 0.05, 0.1, 0.15, 0.2]),
        SweepParam::Overlap => (XMapMode::NxMapItemBased, vec![0.2, 0.4, 0.6, 0.8, 1.0]),
    };
    let base = XMapConfig {
        mode,
        k: 40,
        privacy: match mode {
            XMapMode::XMapUserBased => PrivacyConfig::user_based_default(),
            _ => PrivacyConfig::default(),
        },
        ..Default::default()
    };
    let spec = SweepSpec::new(param, values);
    println!("# sweep {} on amazon_like ({scale:?})", param.label());
    let runner = SweepRunner::new(amazon_like(scale), Direction::MovieToBook, base);
    let series = match runner.run(&spec) {
        Ok(series) => series,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!(
        "{}",
        render_series_table(param.label(), std::slice::from_ref(&series), 4)
    );
    println!("{}", series_to_json(&spec, &series).render_pretty());
    ExitCode::SUCCESS
}
