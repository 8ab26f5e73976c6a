//! `serve_ib` and `serve_ub`: the read-only request stream against the sharded
//! model, item-based (fit-time pools) or user-based (serve-time neighbour search).

use std::hint::black_box;
use std::time::Instant;

use xmap_cf::knn::Profile;
use xmap_cf::topk::TopK;
use xmap_cf::RatingMatrix;
use xmap_core::{ShardedModel, XMapMode, XMapModel};

use crate::inputs::{self, Op, TOP_N};
use crate::model::{self, read_round, record_median, record_read_metrics, Checks, Reads};
use crate::report::RunReport;
use crate::stats::median;
use crate::trace::{self_times_ns, self_times_of, Tracer};
use crate::{Ctx, ROUNDS};

pub fn run(ctx: &Ctx, workload: &'static str, mode: XMapMode) -> Result<RunReport, String> {
    let mut report = ctx.new_report(workload);
    let mut checks = Checks::default();
    let stream = inputs::request_stream(ctx.seed, inputs::STREAM_LEN);
    report.stream_hash = inputs::stream_hash(&stream);

    let mut reads = Reads::new(&stream);
    if ctx.trace {
        let ups = ctx
            .set_ups(mode, None, &mut report, &mut checks)
            .ok_or("set-up failed")?;
        let sharded = ups.last.sharded;
        report.probe_hash = model::probe_hash(&model::probe_single(sharded.coordinator()));
        reads.warm_up(&sharded, ctx.warm_up(), &mut checks);
        let mut tracer = Tracer::new();
        traced(
            ctx,
            &ups.last.dataset.matrix,
            &sharded,
            &mut reads,
            &mut tracer,
            &mut report,
            &mut checks,
        );
        return Ok(ctx.finish(report, checks, &tracer));
    }

    // Where a model's memory landed sets its speed for as long as it lives: on
    // the reference box two set-ups of one trace serve up to a quarter apart.
    // So every round serves a model of its own, and the set-ups `setup_s` needs
    // anyway are those models'.
    let mut off = Tracer::disabled();
    let (mut setup_s, mut fit_s, mut per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut served = None;
    for round in 0..ROUNDS {
        drop(served.take());
        let up = model::set_up(ctx.seed, mode, None, &mut checks).ok_or("set-up failed")?;
        setup_s.push(up.total_s);
        fit_s.push(up.fit_s);
        reads.warm_up(&up.sharded, ctx.warm_up() / ROUNDS as u32, &mut checks);
        if round == 0 {
            // Read before a sample is kept: the samples are the benchmark's own
            // and grow with the speed of the code under test.
            report.record("peak_rss_mb", model::vm_hwm_mb(), 1);
            report.probe_hash = model::probe_hash(&model::probe_single(up.sharded.coordinator()));
        }
        let sharded = &served.insert(up).sharded;
        per_s.push(read_round(
            &mut reads,
            sharded,
            ctx.round_len(),
            &mut off,
            &mut checks,
        ));
    }
    record_median(&mut report, "setup_s", &setup_s, 1.0);
    record_median(&mut report, "fit_s", &fit_s, 1.0);
    record_read_metrics(&mut report, &reads);
    report.rounds.push(("recommend_per_s", per_s));
    Ok(ctx.finish(report, checks, &off))
}

/// The traced pass: one untraced round for the overhead base, two traced rounds
/// for the routed hops, then the probes of the layers under them.
fn traced(
    ctx: &Ctx,
    matrix: &RatingMatrix,
    sharded: &ShardedModel,
    reads: &mut Reads<'_>,
    tracer: &mut Tracer,
    report: &mut RunReport,
    checks: &mut Checks,
) {
    read_round(
        reads,
        sharded,
        ctx.round_len(),
        &mut Tracer::disabled(),
        checks,
    );
    let untraced_p50 = reads.recommend_p50_us();
    reads.record_p99(report);
    reads.clear_samples();
    for _ in 0..2 {
        read_round(reads, sharded, ctx.round_len(), tracer, checks);
    }
    let routed_p50 = reads.recommend_p50_us();
    // Base: the untraced round of the same pass.
    report.record(
        "trace.overhead_ratio",
        routed_p50 / untraced_p50,
        reads.recommend_us.len(),
    );

    // The same requests on the unrouted coordinator: the floor under the routed path.
    let n_floor = if ctx.smoke { 200 } else { 2000 };
    let coordinator = sharded.coordinator();
    single_node_reads(coordinator, &reads.stream()[..n_floor], tracer, FLOOR_SPANS);

    let spans = tracer.spans();
    let self_ns = self_times_ns(spans);
    let mut from_spans = |metric: &'static str, span: &str, ns_per_unit: f64| {
        let samples = self_times_of(spans, &self_ns, span, ns_per_unit);
        report.record(metric, median(&samples), samples.len());
        median(&samples)
    };
    from_spans("core.shard.alterego_us", "core.shard.alterego", 1e3);
    from_spans(
        "core.shard.recommend_for_profile_us",
        "core.shard.recommend_for_profile",
        1e3,
    );
    from_spans("core.shard.predict_us", "core.shard.predict", 1e3);
    let single_p50 = from_spans("core.pipeline.recommend_us", FLOOR_SPANS.recommend, 1e3);
    from_spans("core.pipeline.predict_us", FLOOR_SPANS.predict, 1e3);
    from_spans("core.generator.alterego_us", FLOOR_SPANS.alterego, 1e3);
    // Base: the single-node median of the same pass.
    report.record(
        "core.shard.route_overhead_ratio",
        routed_p50 / single_p50,
        n_floor,
    );

    let mut scores = inputs::SplitMix64::new(0x70_9C);
    let offers: Vec<f64> = (0..1000).map(|_| scores.next_f64()).collect();
    let merges: Vec<f64> = (0..n_floor).map(|_| topk_merge_ns(&offers)).collect();
    report.record("xmap_cf.topk.merge_ns", median(&merges), merges.len());

    let profiles: Vec<Profile> = inputs::serveable_users()
        .into_iter()
        .take(1024)
        .map(|u| coordinator.alterego(u).profile)
        .collect();
    let per_s: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(coordinator.serve_profiles(&profiles, TOP_N));
            profiles.len() as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    report.record(
        "core.serve.serve_profiles_per_s",
        median(&per_s),
        per_s.len(),
    );

    // The four-mode sweep: the private serve paths no routed workload times.
    for sweep in SWEEP {
        let start = Instant::now();
        let Some(fitted) = checks.op("sweep fit", model::fit(matrix, sweep.mode, 2)) else {
            continue;
        };
        report.record(sweep.fit_metric, start.elapsed().as_secs_f64() * 1e3, 1);
        let mut local = Tracer::new();
        single_node_reads(&fitted, &reads.stream()[..n_floor], &mut local, sweep.spans);
        let samples = self_times_of(
            local.spans(),
            &self_times_ns(local.spans()),
            sweep.spans.recommend,
            1e3,
        );
        report.record(sweep.recommend_metric, median(&samples), samples.len());
    }
}

/// Span names of one single-node read loop.
#[derive(Clone, Copy)]
struct ReadSpans {
    recommend: &'static str,
    predict: &'static str,
    alterego: &'static str,
}

const FLOOR_SPANS: ReadSpans = ReadSpans {
    recommend: "core.pipeline.recommend",
    predict: "core.pipeline.predict",
    alterego: "core.generator.alterego",
};

struct Sweep {
    mode: XMapMode,
    fit_metric: &'static str,
    recommend_metric: &'static str,
    spans: ReadSpans,
}

const fn sweep(
    mode: XMapMode,
    fit_metric: &'static str,
    recommend_metric: &'static str,
    recommend_span: &'static str,
) -> Sweep {
    Sweep {
        mode,
        fit_metric,
        recommend_metric,
        spans: ReadSpans {
            recommend: recommend_span,
            predict: "sweep.predict",
            alterego: "sweep.alterego",
        },
    }
}

const SWEEP: [Sweep; 4] = [
    sweep(
        XMapMode::NxMapItemBased,
        "core.pipeline.nx_ib.fit_ms",
        "core.recommend.nx_ib.recommend_us",
        "core.recommend.nx_ib.recommend",
    ),
    sweep(
        XMapMode::NxMapUserBased,
        "core.pipeline.nx_ub.fit_ms",
        "core.recommend.nx_ub.recommend_us",
        "core.recommend.nx_ub.recommend",
    ),
    sweep(
        XMapMode::XMapItemBased,
        "core.pipeline.x_ib.fit_ms",
        "core.recommend.x_ib.recommend_us",
        "core.recommend.x_ib.recommend",
    ),
    sweep(
        XMapMode::XMapUserBased,
        "core.pipeline.x_ub.fit_ms",
        "core.recommend.x_ub.recommend_us",
        "core.recommend.x_ub.recommend",
    ),
];

fn single_node_reads(model: &XMapModel, ops: &[Op], tracer: &mut Tracer, names: ReadSpans) {
    for &op in ops {
        tracer.next_request();
        match op {
            Op::Recommend(user) => {
                black_box(tracer.span(names.alterego, |_| model.alterego(user)));
                black_box(tracer.span(names.recommend, |_| model.recommend(user, TOP_N)));
            }
            Op::Predict(user, item) => {
                black_box(tracer.span(names.predict, |_| model.predict(user, item)));
            }
        }
    }
}

/// One top-K merge as the routed path makes it: a thousand offers into a
/// ten-slot collector, then the sorted read-out.
fn topk_merge_ns(offers: &[f64]) -> f64 {
    let start = Instant::now();
    let mut top = TopK::new(TOP_N);
    for (i, &score) in offers.iter().enumerate() {
        top.push(black_box(score), i as u32);
    }
    black_box(top.into_sorted_vec());
    start.elapsed().as_nanos() as f64
}
