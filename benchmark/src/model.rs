//! What every workload shares: the model configuration, set-up with its routed
//! versus single-node check, the probe set, the timed read loop, and how its
//! samples become the reported figures.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xmap_cf::{DomainId, ItemId, RatingMatrix};
use xmap_core::{ShardedModel, XMapConfig, XMapMode, XMapModel};
use xmap_dataset::synthetic::CrossDomainDataset;

use crate::inputs::{self, Fnv64, Op, TOP_N};
use crate::report::RunReport;
use crate::stats::{median, percentile_sorted, sorted};
use crate::trace::Tracer;

pub const N_NODES: usize = 4;
pub const HOT_REPLICAS: u32 = 3;
/// Reads in a block, after which `clear_ledgers()` is called. A fixed count, not
/// a time, so the ledgers' memory does not grow with the speed of the code under
/// test.
pub const READ_BLOCK: usize = 200;

/// `nproc` is 2 on the reference box, so two workers; 64 partitions and k = 20
/// as in the repository's own shard and serve benches.
pub fn config(mode: XMapMode, workers: usize) -> XMapConfig {
    XMapConfig {
        mode,
        k: 20,
        workers,
        partitions: 64,
        ..XMapConfig::default()
    }
}

pub fn fit(matrix: &RatingMatrix, mode: XMapMode, workers: usize) -> xmap_core::Result<XMapModel> {
    XMapModel::fit(
        matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        config(mode, workers),
    )
}

pub fn cut(model: XMapModel) -> xmap_core::Result<ShardedModel> {
    ShardedModel::with_hot_replication(model, N_NODES, HOT_REPLICAS)
}

/// Operations attempted and operations that failed, were refused or answered
/// wrongly. A failed check also says what failed, once, on stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn verify(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: &str) {
        if self.failed < 20 {
            eprintln!("FAILED: {what}");
        }
        self.failed += 1;
    }
}

/// Top-N answers of the probe set as `(item, score bits)`.
pub type ProbeBits = Vec<Vec<(u32, u64)>>;

fn bits(recs: &[(ItemId, f64)]) -> Vec<(u32, u64)> {
    recs.iter().map(|&(i, s)| (i.0, s.to_bits())).collect()
}

pub fn probe_single(model: &XMapModel) -> ProbeBits {
    inputs::probe_users()
        .into_iter()
        .map(|u| bits(&model.recommend(u, TOP_N)))
        .collect()
}

pub fn probe_routed(sharded: &ShardedModel, checks: &mut Checks) -> ProbeBits {
    inputs::probe_users()
        .into_iter()
        .map(|u| {
            checks
                .op("probe recommend", sharded.recommend(u, TOP_N))
                .map_or(Vec::new(), |r| bits(&r))
        })
        .collect()
}

/// Counts one check per probe user, so a mismatch weighs like a failed request.
pub fn verify_probes(what: &str, got: &ProbeBits, want: &ProbeBits, checks: &mut Checks) {
    for (user, (g, w)) in inputs::probe_users().iter().zip(got.iter().zip(want)) {
        checks.verify(&format!("{what}: top-{TOP_N} of {user} differs"), g == w);
    }
}

pub fn probe_hash(probe: &ProbeBits) -> u64 {
    let mut h = Fnv64::new();
    for answers in probe {
        h.word(answers.len() as u64);
        for &(item, score) in answers {
            h.word(u64::from(item));
            h.word(score);
        }
    }
    h.finish()
}

/// A directory under the benchmark's `out/`, emptied on creation and removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out_dir: &Path, name: &str) -> std::io::Result<ScratchDir> {
        let dir = ScratchDir(out_dir.join(format!("tmp-{name}-{}", std::process::id())));
        dir.sub("")?;
        Ok(dir)
    }

    /// A fresh, empty sub-directory (the scratch root itself for `""`).
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = self.0.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct SetUp {
    pub dataset: CrossDomainDataset,
    pub sharded: ShardedModel,
    pub generate_s: f64,
    pub fit_s: f64,
    pub cut_s: f64,
    /// Generate, fit, cut and verification together.
    pub total_s: f64,
}

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One set-up: generate the trace, fit, cut into shards (persisting them when
/// the workload journals), and check that the routed probe answers carry the
/// single-node bits. `None` when a step failed; the failure is in `checks`.
pub fn set_up(
    seed: u64,
    mode: XMapMode,
    store: Option<&Path>,
    checks: &mut Checks,
) -> Option<SetUp> {
    let start = Instant::now();
    let (dataset, generate_s) = timed(|| CrossDomainDataset::generate(inputs::trace_config(seed)));
    debug_assert_eq!(
        inputs::serveable_users(),
        [&dataset.source_only_users[..], &dataset.overlap_users[..]].concat()
    );
    let (model, fit_s) = timed(|| fit(&dataset.matrix, mode, 2));
    let model = checks.op("fit", model)?;
    let (sharded, cut_s) = timed(|| {
        let mut sharded = cut(model)?;
        if let Some(dir) = store {
            sharded.persist(dir)?;
        }
        Ok::<_, xmap_core::XMapError>(sharded)
    });
    let sharded = checks.op("cut", sharded)?;
    let single = probe_single(sharded.coordinator());
    let routed = probe_routed(&sharded, checks);
    verify_probes("routed vs single-node", &routed, &single, checks);
    let total_s = start.elapsed().as_secs_f64();
    sharded.clear_ledgers();
    Some(SetUp {
        dataset,
        sharded,
        generate_s,
        fit_s,
        cut_s,
        total_s,
    })
}

/// The closed loop of one client over the request stream, with every op timed.
/// Samples are kept for the whole run: percentiles are over all of them.
pub struct Reads<'a> {
    stream: &'a [Op],
    cursor: usize,
    pub recommend_us: Vec<f64>,
    pub predict_us: Vec<f64>,
    /// Wall-clock seconds of every block run.
    pub block_s: Vec<f64>,
}

impl<'a> Reads<'a> {
    pub fn new(stream: &'a [Op]) -> Self {
        Reads {
            stream,
            cursor: 0,
            recommend_us: Vec::new(),
            predict_us: Vec::new(),
            block_s: Vec::new(),
        }
    }

    pub fn stream(&self) -> &'a [Op] {
        self.stream
    }

    /// Reads for `len` and keeps no sample of it.
    pub fn warm_up(&mut self, sharded: &ShardedModel, len: Duration, checks: &mut Checks) {
        let kept = (
            self.block_s.len(),
            self.recommend_us.len(),
            self.predict_us.len(),
        );
        read_round(self, sharded, len, &mut Tracer::disabled(), checks);
        self.block_s.truncate(kept.0);
        self.recommend_us.truncate(kept.1);
        self.predict_us.truncate(kept.2);
    }

    /// Forgets the samples taken so far; the stream position stays.
    pub fn clear_samples(&mut self) {
        self.recommend_us.clear();
        self.predict_us.clear();
        self.block_s.clear();
    }

    pub fn recommend_p50_us(&self) -> f64 {
        median(&self.recommend_us)
    }

    /// Records `recommend_p99_us` over the samples held now.
    pub fn record_p99(&self, report: &mut RunReport) {
        let recommend = sorted(self.recommend_us.clone());
        report.record(
            "recommend_p99_us",
            percentile_sorted(&recommend, 99.0),
            recommend.len(),
        );
    }

    /// Runs the next `n_ops` ops, then clears the routing ledgers outside the
    /// block's time. Returns the block's seconds. A disabled tracer calls
    /// `recommend` itself; an enabled one calls the two halves it is made of,
    /// each under a span.
    pub fn run_block(
        &mut self,
        sharded: &ShardedModel,
        n_ops: usize,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> f64 {
        let block = Instant::now();
        for _ in 0..n_ops {
            let op = self.stream[self.cursor % self.stream.len()];
            self.cursor += 1;
            tracer.next_request();
            let start = Instant::now();
            match op {
                Op::Recommend(user) => {
                    let answer = if tracer.enabled() {
                        tracer.span("request.recommend", |t| {
                            let alter =
                                t.span("core.shard.alterego", |_| sharded.alterego(user))?;
                            t.span("core.shard.recommend_for_profile", |_| {
                                sharded.recommend_for_profile(&alter.profile, TOP_N)
                            })
                        })
                    } else {
                        sharded.recommend(user, TOP_N)
                    };
                    self.recommend_us.push(start.elapsed().as_secs_f64() * 1e6);
                    black_box(checks.op("recommend", answer));
                }
                Op::Predict(user, item) => {
                    let answer = tracer.span("core.shard.predict", |_| sharded.predict(user, item));
                    self.predict_us.push(start.elapsed().as_secs_f64() * 1e6);
                    black_box(checks.op("predict", answer));
                }
            }
        }
        let block_s = block.elapsed().as_secs_f64();
        sharded.clear_ledgers();
        self.block_s.push(block_s);
        block_s
    }

    /// Where the samples stand: blocks run and recommends answered so far.
    pub fn mark(&self) -> (usize, usize) {
        (self.block_s.len(), self.recommend_us.len())
    }

    /// Recommends completed per second of block time since `mark` was taken.
    pub fn recommend_per_s_since(&self, (first_block, first_recommend): (usize, usize)) -> f64 {
        (self.recommend_us.len() - first_recommend) as f64
            / self.block_s[first_block..].iter().sum::<f64>()
    }
}

/// Reads until `len` has passed, a block at a time. Returns the round's
/// recommends per second: the figure the `noisy` flag watches.
pub fn read_round(
    reads: &mut Reads<'_>,
    sharded: &ShardedModel,
    len: Duration,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let mark = reads.mark();
    let start = Instant::now();
    while start.elapsed() < len {
        reads.run_block(sharded, READ_BLOCK, tracer, checks);
    }
    reads.recommend_per_s_since(mark)
}

/// The read metrics every workload reports, over every op of the run.
pub fn record_read_metrics(report: &mut RunReport, reads: &Reads<'_>) {
    let n = reads.recommend_us.len();
    report.record("recommend_per_s", reads.recommend_per_s_since((0, 0)), n);
    report.record("recommend_p50_us", reads.recommend_p50_us(), n);
    reads.record_p99(report);
    report.record(
        "predict_p50_us",
        median(&reads.predict_us),
        reads.predict_us.len(),
    );
}

/// Median of repeats of one quantity, in the metric's unit.
pub fn record_median(report: &mut RunReport, name: &'static str, seconds: &[f64], per_second: f64) {
    let scaled: Vec<f64> = seconds.iter().map(|s| s * per_second).collect();
    report.record(name, median(&scaled), scaled.len());
}

/// `VmHWM` of this process in MB.
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
