//! `lifecycle`: fit, persist, journalled deltas, recovery by replay and from a
//! compacted snapshot, shard cut, shard persist, routed ingests, node failure and
//! recovery — in the private item-based mode, so the PRS/PNSA mechanisms run.
//!
//! Every round does the same work on the same six deltas, so its samples are
//! repeats of one quantity. A round ends with a burst of reads on the recovered
//! model (a fifth of the round's time): it is what a user does next, and it is
//! the only end-to-end timing of the private serve path.

use std::path::Path;
use std::time::Instant;

use xmap_cf::RatingMatrix;
use xmap_core::{RatingDelta, XMapMode, XMapModel, SNAPSHOT_FILE};
use xmap_graph::{GraphConfig, SimilarityGraph};

use crate::inputs::{self, DeltaGen};
use crate::model::{
    self, record_median, record_read_metrics, Checks, Reads, ScratchDir, READ_BLOCK,
};
use crate::report::RunReport;
use crate::stats::median;
use crate::trace::{self_times_ns, self_times_of, Tracer};
use crate::Ctx;

const MODE: XMapMode = XMapMode::XMapItemBased;
const MODEL_DELTAS: usize = 4;
const SHARD_DELTAS: usize = 2;
const KILLED_NODE: usize = 1;
/// Read blocks after each recovery: 800 ops, so every end-to-end read metric
/// exists on this workload too.
const BURST_BLOCKS: usize = 4;

/// Step times of the rounds of one pass, in seconds.
#[derive(Default)]
struct Rounds {
    fit: Vec<f64>,
    persist: Vec<f64>,
    replay: Vec<f64>,
    compacted: Vec<f64>,
    node_recover: Vec<f64>,
    snapshot_bytes: u64,
    compacted_bytes: u64,
    per_s: Vec<f64>,
}

/// Runs `f` under a span and returns its result with the seconds it took.
fn step<T>(
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> xmap_core::Result<T>,
) -> (xmap_core::Result<T>, f64) {
    model::timed(|| tracer.span(name, |_| f()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One round. Verification reads are outside the steps, so they are in no
/// step's time.
#[allow(clippy::too_many_arguments)]
fn round(
    matrix: &RatingMatrix,
    deltas: &[RatingDelta],
    scratch: &ScratchDir,
    reads: &mut Reads<'_>,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Rounds,
) -> Option<()> {
    let model_dir = scratch.sub("model").ok()?;
    let shard_dir = scratch.sub("shards").ok()?;
    tracer.next_request();

    let (fitted, took) = step(tracer, "core.pipeline.fit", || model::fit(matrix, MODE, 2));
    let fitted = checks.op("fit", fitted)?;
    out.fit.push(took);

    let (persisted, took) = step(tracer, "core.persist.persist", || {
        fitted.persist(&model_dir)
    });
    checks.op("persist", persisted)?;
    out.persist.push(took);
    out.snapshot_bytes = file_len(&model_dir.join(SNAPSHOT_FILE));

    for delta in &deltas[..MODEL_DELTAS] {
        let (applied, _) = step(tracer, "core.delta.apply_delta_journalled", || {
            fitted.apply_delta(delta)
        });
        checks.op("journalled apply_delta", applied)?;
    }
    let in_memory = model::probe_single(&fitted);
    drop(fitted);

    let (replayed, took) = step(tracer, "core.persist.open_replay", || {
        XMapModel::open(&model_dir)
    });
    let replayed = checks.op("open with replay", replayed)?;
    out.replay.push(took);
    model::verify_probes(
        "replayed vs in-memory",
        &model::probe_single(&replayed),
        &in_memory,
        checks,
    );

    let (compacted, _) = step(tracer, "core.persist.compact", || replayed.compact());
    checks.op("compact", compacted)?;
    out.compacted_bytes = file_len(&model_dir.join(SNAPSHOT_FILE));
    drop(replayed);

    let (reopened, took) = step(tracer, "core.persist.open_compacted", || {
        XMapModel::open(&model_dir)
    });
    let reopened = checks.op("open compacted", reopened)?;
    out.compacted.push(took);
    model::verify_probes(
        "compacted vs in-memory",
        &model::probe_single(&reopened),
        &in_memory,
        checks,
    );

    let (sharded, _) = step(tracer, "core.shard.cut", || model::cut(reopened));
    let mut sharded = checks.op("cut", sharded)?;
    let (persisted, _) = step(tracer, "core.shard.persist", || sharded.persist(&shard_dir));
    checks.op("shard persist", persisted)?;
    for delta in &deltas[MODEL_DELTAS..MODEL_DELTAS + SHARD_DELTAS] {
        let (ingested, _) = step(tracer, "core.shard.ingest", || sharded.ingest(delta));
        checks.op("ingest", ingested)?;
    }
    let in_memory = model::probe_single(sharded.coordinator());

    let (killed, _) = step(tracer, "core.shard.kill_node", || {
        sharded.kill_node(KILLED_NODE)
    });
    checks.op("kill_node", killed)?;
    let (recovered, took) = step(tracer, "core.shard.recover_node", || {
        sharded.recover_node(KILLED_NODE)
    });
    checks.op("recover_node", recovered)?;
    out.node_recover.push(took);
    model::verify_probes(
        "recovered node vs in-memory",
        &model::probe_routed(&sharded, checks),
        &in_memory,
        checks,
    );
    sharded.clear_ledgers();

    let mark = reads.mark();
    for _ in 0..BURST_BLOCKS {
        reads.run_block(&sharded, READ_BLOCK, tracer, checks);
    }
    out.per_s.push(reads.recommend_per_s_since(mark));
    Some(())
}

pub fn run(ctx: &Ctx) -> Result<RunReport, String> {
    let mut report = ctx.new_report("lifecycle");
    let mut checks = Checks::default();
    let stream = inputs::request_stream(ctx.seed, inputs::STREAM_LEN);
    let deltas = DeltaGen::new(ctx.seed).take(MODEL_DELTAS + SHARD_DELTAS);
    report.stream_hash = inputs::stream_hash(&stream) ^ inputs::delta_hash(&deltas);
    let scratch = ctx.scratch("lifecycle");

    // The set-up's own model is the routed-versus-single-node check in the
    // private mode; the rounds build theirs from the same trace.
    let ups = ctx
        .set_ups(MODE, None, &mut report, &mut checks)
        .ok_or("set-up failed")?;
    let matrix = ups.last.dataset.matrix;
    report.probe_hash = model::probe_hash(&model::probe_single(ups.last.sharded.coordinator()));
    drop(ups.last.sharded);

    let mut reads = Reads::new(&stream);
    let mut rounds = Rounds::default();
    let failed = "a lifecycle step failed";

    if ctx.trace {
        let mut off = Tracer::disabled();
        round(
            &matrix,
            &deltas,
            &scratch,
            &mut reads,
            &mut off,
            &mut checks,
            &mut Rounds::default(),
        )
        .ok_or(failed)?;
        let untraced_p50 = reads.recommend_p50_us();
        reads.record_p99(&mut report);
        reads.clear_samples();
        let mut tracer = Tracer::new();
        for _ in 0..2 {
            round(
                &matrix,
                &deltas,
                &scratch,
                &mut reads,
                &mut tracer,
                &mut checks,
                &mut rounds,
            )
            .ok_or(failed)?;
        }
        // Base: the untraced round of the same pass.
        report.record(
            "trace.overhead_ratio",
            reads.recommend_p50_us() / untraced_p50,
            reads.recommend_us.len(),
        );
        layers(ctx, &matrix, &rounds, &tracer, &mut report, &mut checks);
        return Ok(ctx.finish(report, checks, &tracer));
    }

    let mut off = Tracer::disabled();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || rounds.fit.len() < 3 {
        round(
            &matrix,
            &deltas,
            &scratch,
            &mut reads,
            &mut off,
            &mut checks,
            &mut rounds,
        )
        .ok_or(failed)?;
    }
    let fits: Vec<f64> = ups.fit.iter().chain(&rounds.fit).copied().collect();
    report.record("peak_rss_mb", model::vm_hwm_mb(), 1);
    record_median(&mut report, "fit_s", &fits, 1.0);
    record_read_metrics(&mut report, &reads);
    record_median(&mut report, "persist_ms", &rounds.persist, 1e3);
    record_median(&mut report, "recover_replay_s", &rounds.replay, 1.0);
    record_median(&mut report, "recover_compacted_ms", &rounds.compacted, 1e3);
    record_median(&mut report, "node_recover_ms", &rounds.node_recover, 1e3);
    report.rounds.push(("recommend_per_s", rounds.per_s));
    Ok(ctx.finish(report, checks, &off))
}

/// Per-layer metrics of the traced rounds, and the fit probes beside them.
fn layers(
    ctx: &Ctx,
    matrix: &RatingMatrix,
    rounds: &Rounds,
    tracer: &Tracer,
    report: &mut RunReport,
    checks: &mut Checks,
) {
    let n = rounds.fit.len();
    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut from_spans = |metric: &'static str, span: &str, ns_per_unit: f64| {
        let samples = self_times_of(spans, &self_ns, span, ns_per_unit);
        report.record(metric, median(&samples), samples.len());
    };
    from_spans(
        "core.delta.apply_delta_ms",
        "core.delta.apply_delta_journalled",
        1e6,
    );
    from_spans("core.persist.compact_ms", "core.persist.compact", 1e6);
    from_spans("core.shard.persist_ms", "core.shard.persist", 1e6);
    from_spans("core.shard.ingest_ms", "core.shard.ingest", 1e6);
    from_spans("core.shard.kill_node_ms", "core.shard.kill_node", 1e6);
    from_spans("core.shard.recover_node_ms", "core.shard.recover_node", 1e6);
    from_spans("core.shard.alterego_us", "core.shard.alterego", 1e3);
    from_spans(
        "core.shard.recommend_for_profile_us",
        "core.shard.recommend_for_profile",
        1e3,
    );
    from_spans("core.shard.predict_us", "core.shard.predict", 1e3);

    let (replay_s, compacted_s) = (median(&rounds.replay), median(&rounds.compacted));
    report.record("persist_ms", median(&rounds.persist) * 1e3, n);
    report.record("recover_replay_s", replay_s, n);
    report.record("recover_compacted_ms", compacted_s * 1e3, n);
    report.record("node_recover_ms", median(&rounds.node_recover) * 1e3, n);
    report.record(
        "core.persist.replay_records_per_s",
        MODEL_DELTAS as f64 / (replay_s - compacted_s),
        n,
    );
    report.record(
        "xmap_store.snapshot.bytes_per_rating",
        rounds.snapshot_bytes as f64 / matrix.n_ratings() as f64,
        1,
    );
    report.record(
        "xmap_store.snapshot.load_mb_per_s",
        rounds.compacted_bytes as f64 / 1e6 / compacted_s,
        n,
    );

    // The baseliner alone, with the graph configuration the fit gives it, then
    // the whole fit at one worker and at two, interleaved.
    let graph_config = GraphConfig {
        metric: model::config(MODE, 2).metric,
        top_k: Some(model::config(MODE, 2).k),
        min_similarity: 0.0,
    };
    let reps = if ctx.smoke { 1 } else { 3 };
    let mut build_s = Vec::new();
    let mut fit_s = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(SimilarityGraph::build(matrix, graph_config));
        build_s.push(start.elapsed().as_secs_f64());
        for (workers, samples) in [1, 2].into_iter().zip(&mut fit_s) {
            let start = Instant::now();
            std::hint::black_box(checks.op("fit probe", model::fit(matrix, MODE, workers)));
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    let (w1, w2) = (median(&fit_s[0]), median(&fit_s[1]));
    report.record("xmap_graph.build_ms", median(&build_s) * 1e3, reps);
    // `SimilarityGraph::build` is the serial baseliner, so the one-worker fit is its base.
    report.record(
        "core.pipeline.fit_rest_ms",
        (w1 - median(&build_s)) * 1e3,
        reps,
    );
    report.record("xmap_engine.fit_w1_s", w1, reps);
    // Base: the two-worker fit of the same probe.
    report.record("xmap_engine.workers_speedup", w1 / w2, reps);
}
