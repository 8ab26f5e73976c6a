//! `ingest_mix`: journalled ingests beside reads on the layers `serve_ib` uses.
//!
//! One cycle is an eight-rating `ShardedModel::ingest`, a visibility probe (a
//! `recommend` for the delta's first user, which must see the new epoch) and a
//! block of 200 reads from the `serve_ib` stream.

use std::hint::black_box;
use std::time::Instant;

use xmap_cf::{Rating, RatingMatrix};
use xmap_core::{DeltaReport, RatingDelta, ShardedModel, XMapMode, XMapModel};
use xmap_store::Journal;

use crate::inputs::{self, DeltaGen, TOP_N};
use crate::model::{
    self, record_median, record_read_metrics, Checks, Reads, ScratchDir, READ_BLOCK,
};
use crate::report::RunReport;
use crate::stats::{median, percentile_is_supported, percentile_sorted, sorted};
use crate::trace::{self_times_ns, self_times_of, Tracer};
use crate::{Ctx, ROUNDS};

const MODE: XMapMode = XMapMode::NxMapItemBased;
/// Deltas hashed into the stream hash: more than any run applies.
const HASHED_DELTAS: usize = 256;

/// What the cycles of one pass measured; times in seconds.
#[derive(Default)]
struct Cycles {
    ingest: Vec<f64>,
    /// Ingest start to the end of the first read at the new epoch.
    visible: Vec<f64>,
    reports: Vec<DeltaReport>,
    applied: Vec<RatingDelta>,
}

/// One cycle on the journalled sharded model. The delta is kept so the final
/// matrix can be rebuilt from the inputs alone.
fn cycle(
    sharded: &mut ShardedModel,
    delta: RatingDelta,
    reads: &mut Reads<'_>,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Cycles,
) {
    tracer.next_request();
    tracer.span("cycle", |tracer| {
        let before = sharded.epoch();
        let first_user = delta.ratings()[0].user;
        let start = Instant::now();
        let report = tracer.span("core.shard.ingest", |_| sharded.ingest(&delta));
        let ingest_s = start.elapsed().as_secs_f64();
        let answer = tracer.span("core.shard.first_read_after_ingest", |_| {
            sharded.recommend(first_user, TOP_N)
        });
        let visible_s = start.elapsed().as_secs_f64();
        if let Some(report) = checks.op("ingest", report) {
            out.reports.push(report);
        }
        black_box(checks.op("visibility probe", answer));
        checks.verify(
            "ingest did not publish the next epoch",
            sharded.epoch() == before + 1,
        );
        out.ingest.push(ingest_s);
        out.visible.push(visible_s);
        reads.run_block(sharded, READ_BLOCK, tracer, checks);
    });
    out.applied.push(delta);
}

/// The trace with every applied delta folded in by the matrix layer alone.
fn final_matrix(base: &RatingMatrix, applied: &[RatingDelta]) -> Result<RatingMatrix, String> {
    let mut matrix = base.clone();
    for delta in applied {
        matrix = matrix
            .apply_delta(delta.ratings(), delta.item_domains())
            .map_err(|e| format!("folding a delta into the reference matrix: {e}"))?;
    }
    Ok(matrix)
}

/// Ingests differ in the work their delta asks for; percentiles over all of them.
fn record_ingest_percentiles(report: &mut RunReport, cycles: &Cycles) {
    let ms = |seconds: &[f64]| sorted(seconds.iter().map(|s| s * 1e3).collect());
    let n = cycles.ingest.len();
    for (name, seconds, p) in [
        ("ingest_p50_ms", &cycles.ingest, 50.0),
        ("ingest_p90_ms", &cycles.ingest, 90.0),
        ("ingest_visible_p50_ms", &cycles.visible, 50.0),
    ] {
        report.record(name, percentile_sorted(&ms(seconds), p), n);
    }
}

pub fn run(ctx: &Ctx) -> Result<RunReport, String> {
    let mut report = ctx.new_report("ingest_mix");
    let mut checks = Checks::default();
    let stream = inputs::request_stream(ctx.seed, inputs::STREAM_LEN);
    report.stream_hash = inputs::stream_hash(&stream)
        ^ inputs::delta_hash(&DeltaGen::new(ctx.seed).take(HASHED_DELTAS));
    let scratch = ctx.scratch("ingest_mix");

    let ups = ctx
        .set_ups(MODE, Some((&scratch, "shards")), &mut report, &mut checks)
        .ok_or("set-up failed")?;
    let base = ups.last.dataset.matrix;
    let mut sharded = ups.last.sharded;

    let mut off = Tracer::disabled();
    let mut tracer = if ctx.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let mut reads = Reads::new(&stream);
    reads.warm_up(&sharded, ctx.warm_up(), &mut checks);
    let mut deltas = DeltaGen::new(ctx.seed);
    let mut cycles = Cycles::default();

    if ctx.trace {
        traced(
            ctx,
            &scratch,
            &base,
            &mut sharded,
            &mut deltas,
            &mut reads,
            &mut tracer,
            &mut cycles,
            &mut report,
            &mut checks,
        )?;
    } else {
        // Two cycles of warm-up: the first ingest after a fit is the slowest.
        let mut warm = Cycles::default();
        for _ in 0..2 {
            cycle(
                &mut sharded,
                deltas.next_delta(),
                &mut reads,
                &mut off,
                &mut checks,
                &mut warm,
            );
        }
        cycles.applied = warm.applied;
        reads.clear_samples();
        // Hashed here, after a fixed number of deltas: how many the timed
        // rounds apply depends on the speed of the run.
        report.probe_hash = model::probe_hash(&model::probe_routed(&sharded, &mut checks));

        let mut per_s = Vec::new();
        for _ in 0..ROUNDS {
            let round = Instant::now();
            let mark = reads.mark();
            while round.elapsed() < ctx.round_len() {
                cycle(
                    &mut sharded,
                    deltas.next_delta(),
                    &mut reads,
                    &mut off,
                    &mut checks,
                    &mut cycles,
                );
            }
            per_s.push(reads.recommend_per_s_since(mark));
        }
        report.record("peak_rss_mb", model::vm_hwm_mb(), 1);
        record_median(&mut report, "fit_s", &ups.fit, 1.0);
        record_read_metrics(&mut report, &reads);
        if !percentile_is_supported(cycles.ingest.len(), 90.0) {
            println!(
                "   note: ingest_p90_ms has fewer than ten samples beyond it (n={})",
                cycles.ingest.len()
            );
        }
        record_ingest_percentiles(&mut report, &cycles);
        report.rounds.push(("recommend_per_s", per_s));
    }

    // After the run the routed answers must equal a fresh fit on the final
    // matrix, rebuilt here from the trace and the deltas that were fed in.
    let matrix = final_matrix(&base, &cycles.applied)?;
    let fresh = checks
        .op(
            "fresh fit on the final matrix",
            model::fit(&matrix, MODE, 2),
        )
        .ok_or("the final matrix cannot be fitted")?;
    let want = model::probe_single(&fresh);
    let got = model::probe_routed(&sharded, &mut checks);
    model::verify_probes("after ingest_mix vs fresh fit", &got, &want, &mut checks);
    Ok(ctx.finish(report, checks, &tracer))
}

/// The traced pass. Three twins are fed the same deltas as the journalled
/// sharded model, in lock-step from the same fitted state: an unjournalled
/// single-node model, a persisted single-node model, and an unjournalled
/// sharded model. Differences between their medians split an ingest into
/// delta fit, journal and re-cut.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    scratch: &ScratchDir,
    base: &RatingMatrix,
    sharded: &mut ShardedModel,
    deltas: &mut DeltaGen,
    reads: &mut Reads<'_>,
    tracer: &mut Tracer,
    cycles: &mut Cycles,
    report: &mut RunReport,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut twin_fit = |what: &str| -> Result<XMapModel, String> {
        checks
            .op(what, model::fit(base, MODE, 2))
            .ok_or(format!("{what} failed"))
    };
    let plain = twin_fit("fit of the unjournalled twin")?;
    let journalled = twin_fit("fit of the journalled twin")?;
    let unjournalled_shards = twin_fit("fit of the unjournalled sharded twin")?;
    let twin_dir = scratch
        .sub("twin")
        .map_err(|e| format!("twin store: {e}"))?;
    checks
        .op(
            "persist of the journalled twin",
            journalled.persist(&twin_dir),
        )
        .ok_or("the journalled twin cannot persist")?;
    let mut unjournalled_shards = checks
        .op(
            "cut of the unjournalled sharded twin",
            model::cut(unjournalled_shards),
        )
        .ok_or("the unjournalled sharded twin cannot be cut")?;

    // A fixed number of cycles, so the per-ingest counts repeat exactly for a seed.
    let n_cycles = if ctx.smoke { 3 } else { 12 };
    for _ in 0..n_cycles {
        let delta = deltas.next_delta();
        cycle(sharded, delta.clone(), reads, tracer, checks, cycles);
        let a = tracer.span("core.delta.apply_delta", |_| plain.apply_delta(&delta));
        let b = tracer.span("core.persist.apply_delta_journalled", |_| {
            journalled.apply_delta(&delta)
        });
        let c = tracer.span("core.shard.ingest_unjournalled", |_| {
            unjournalled_shards.ingest(&delta)
        });
        let twins = [
            checks.op("twin apply_delta", a),
            checks.op("journalled twin apply_delta", b),
            checks.op("unjournalled twin ingest", c),
        ];
        checks.verify(
            "the twins' delta reports differ in their counts",
            twins.iter().flatten().all(|r| {
                (r.n_rescored_pairs, r.n_xsim_rows, r.n_pool_refits)
                    == cycles.reports.last().map_or((0, 0, 0), |m| {
                        (m.n_rescored_pairs, m.n_xsim_rows, m.n_pool_refits)
                    })
            }),
        );
    }
    let traced_p50 = reads.recommend_p50_us();
    // The traced cycles are a fixed number, so their answers hash the same
    // for a seed whatever the speed of the run.
    let routed = model::probe_routed(sharded, checks);
    report.probe_hash = model::probe_hash(&routed);
    model::verify_probes(
        "unjournalled twin vs routed",
        &routed,
        &model::probe_single(&plain),
        checks,
    );

    // The overhead base: one untraced round of the same cycles.
    reads.clear_samples();
    let mut off = Tracer::disabled();
    let mut untraced = Cycles::default();
    let round = Instant::now();
    while round.elapsed() < ctx.round_len() {
        cycle(
            sharded,
            deltas.next_delta(),
            reads,
            &mut off,
            checks,
            &mut untraced,
        );
    }
    cycles.applied.append(&mut untraced.applied);
    reads.record_p99(report);
    // Base: the untraced round of the same pass.
    report.record(
        "trace.overhead_ratio",
        traced_p50 / reads.recommend_p50_us(),
        n_cycles * READ_BLOCK,
    );

    journal_append_probe(ctx, scratch, tracer, report, checks)?;

    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut from_spans = |metric: &'static str, span: &str, ns_per_unit: f64| {
        let samples = self_times_of(spans, &self_ns, span, ns_per_unit);
        report.record(metric, median(&samples), samples.len());
        median(&samples)
    };
    let apply = from_spans("core.delta.apply_delta_ms", "core.delta.apply_delta", 1e6);
    let ingest = from_spans("core.shard.ingest_ms", "core.shard.ingest", 1e6);
    from_spans(
        "core.shard.ingest_unjournalled_ms",
        "core.shard.ingest_unjournalled",
        1e6,
    );
    from_spans(
        "core.shard.first_read_after_ingest_us",
        "core.shard.first_read_after_ingest",
        1e3,
    );
    from_spans("core.shard.alterego_us", "core.shard.alterego", 1e3);
    from_spans(
        "core.shard.recommend_for_profile_us",
        "core.shard.recommend_for_profile",
        1e3,
    );
    from_spans("core.shard.predict_us", "core.shard.predict", 1e3);
    from_spans(
        "xmap_store.journal.append_us",
        "xmap_store.journal.append",
        1e3,
    );
    let journalled_ms = median(&self_times_of(
        spans,
        &self_ns,
        "core.persist.apply_delta_journalled",
        1e6,
    ));
    report.record(
        "core.persist.journal_overhead_ms",
        journalled_ms - apply,
        n_cycles,
    );
    report.record("core.shard.recut_overhead_ms", ingest - apply, n_cycles);

    record_ingest_percentiles(report, cycles);

    let mean = |f: fn(&DeltaReport) -> usize| {
        cycles.reports.iter().map(|r| f(r) as f64).sum::<f64>() / cycles.reports.len().max(1) as f64
    };
    report.record(
        "core.delta.rescored_pairs_per_ingest",
        mean(|r| r.n_rescored_pairs),
        cycles.reports.len(),
    );
    report.record(
        "core.delta.xsim_rows_per_ingest",
        mean(|r| r.n_xsim_rows),
        cycles.reports.len(),
    );
    report.record(
        "core.delta.pool_refits_per_ingest",
        mean(|r| r.n_pool_refits),
        cycles.reports.len(),
    );
    Ok(())
}

/// `Journal::append` of an eight-`Rating` record on a journal of its own, and
/// the bytes it costs per rating.
fn journal_append_probe(
    ctx: &Ctx,
    scratch: &ScratchDir,
    tracer: &mut Tracer,
    report: &mut RunReport,
    checks: &mut Checks,
) -> Result<(), String> {
    let dir = scratch
        .sub("journal")
        .map_err(|e| format!("journal probe directory: {e}"))?;
    let mut journal = checks
        .op(
            "journal create",
            Journal::create(&dir.join("probe.journal"), 0),
        )
        .ok_or("the probe journal cannot be created")?;
    let record: Vec<Rating> = DeltaGen::new(ctx.seed).next_delta().ratings().to_vec();
    let before = journal.len_bytes();
    let appends: u64 = if ctx.smoke { 20 } else { 200 };
    for epoch in 1..=appends {
        let appended = tracer.span("xmap_store.journal.append", |_| {
            journal.append(epoch, &record)
        });
        checks.op("journal append", appended);
    }
    let bytes = (journal.len_bytes() - before) as f64 / (appends * record.len() as u64) as f64;
    report.record(
        "xmap_store.journal.bytes_per_rating",
        bytes,
        appends as usize,
    );
    Ok(())
}
