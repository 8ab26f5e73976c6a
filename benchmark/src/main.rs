//! The X-Map benchmark: four workloads over the `xmap48k` trace, wall-clock
//! end-to-end metrics, and a per-layer split timed from outside the program.
//! See `README.md` beside this crate for what each workload and metric is for.
//!
//! ```text
//! xmap-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]
//! xmap-benchmark --compare A.json B.json
//! ```

mod ingest;
mod inputs;
mod json;
mod lifecycle;
mod model;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use xmap_core::XMapMode;

use model::{Checks, ScratchDir, SetUp};
use report::{Environment, RunReport};

pub const WORKLOADS: [&str; 4] = ["serve_ib", "serve_ub", "ingest_mix", "lifecycle"];
/// Timed rounds an untraced run is split into; a traced run makes one untraced
/// round and two traced ones.
pub const ROUNDS: usize = 5;
/// Spans written to a trace file at most; the totals are always written.
const TRACE_FILE_SPANS: usize = 50_000;

pub struct Ctx {
    pub seed: u64,
    /// How long the run measures: `ROUNDS` rounds of a fifth of it each.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub env: Environment,
}

impl Ctx {
    pub fn round_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / ROUNDS as f64)
    }

    pub fn warm_up(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.5 } else { 2.0 })
    }

    /// Set-ups per run. The untraced run repeats it so `setup_s` is a median;
    /// the traced run needs one model only.
    pub fn n_set_ups(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            5
        }
    }

    pub fn scratch(&self, workload: &str) -> ScratchDir {
        ScratchDir::new(&self.out_dir, workload).unwrap_or_else(|e| {
            panic!(
                "cannot create scratch under {}: {e}",
                self.out_dir.display()
            )
        })
    }

    pub fn new_report(&self, workload: &'static str) -> RunReport {
        RunReport {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            smoke: self.smoke,
            env: self.env.clone(),
            stream_hash: 0,
            probe_hash: 0,
            attempted: 0,
            failed: 0,
            noisy: false,
            measured: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// Repeats the set-up, records what the pass reports of it, and hands back
    /// the last model built. `store` names the directory the shards persist to.
    pub fn set_ups(
        &self,
        mode: XMapMode,
        store: Option<(&ScratchDir, &str)>,
        report: &mut RunReport,
        checks: &mut Checks,
    ) -> Option<SetUps> {
        let mut total = Vec::new();
        let mut fit = Vec::new();
        let mut last = None;
        for _ in 0..self.n_set_ups() {
            drop(last.take());
            let dir = store.map(|(scratch, name)| {
                scratch
                    .sub(name)
                    .unwrap_or_else(|e| panic!("cannot create store directory: {e}"))
            });
            let up = model::set_up(self.seed, mode, dir.as_deref(), checks)?;
            total.push(up.total_s);
            fit.push(up.fit_s);
            last = Some(up);
        }
        let last = last?;
        if self.trace {
            report.record("xmap_dataset.generate_ms", last.generate_s * 1e3, 1);
            report.record("core.shard.cut_ms", last.cut_s * 1e3, 1);
            report.record("fit_s", last.fit_s, 1);
        } else {
            model::record_median(report, "setup_s", &total, 1.0);
        }
        Some(SetUps { last, fit })
    }

    fn finish(&self, mut report: RunReport, checks: Checks, tracer: &trace::Tracer) -> RunReport {
        report.attempted = checks.attempted;
        report.failed = checks.failed;
        if let Some((_, per_s)) = report.rounds.iter().find(|(n, _)| *n == "recommend_per_s") {
            report.noisy = stats::rounds_are_noisy(per_s);
        }
        let write = |name: String, json: json::Json| {
            let path = self.out_dir.join(name);
            if let Err(e) = std::fs::write(&path, json.to_pretty()) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        };
        if self.trace {
            write(
                format!("trace-{}.json", report.workload),
                trace::spans_to_json(tracer.spans(), TRACE_FILE_SPANS),
            );
            write(format!("layers-{}.json", report.workload), report.to_json());
        } else {
            write(format!("{}.json", report.workload), report.to_json());
        }
        report
    }
}

pub struct SetUps {
    pub last: SetUp,
    /// Seconds of the fit of every set-up made, for `fit_s`.
    pub fit: Vec<f64>,
}

fn environment() -> Environment {
    let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN);
    let var = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Environment {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        loadavg_1m,
        git_rev: var("XMAP_BENCH_GIT_REV"),
        rustc: var("XMAP_BENCH_RUSTC"),
    }
}

const USAGE: &str = "usage: xmap-benchmark --workload serve_ib|serve_ub|ingest_mix|lifecycle \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]\n       \
xmap-benchmark --compare A.json B.json";

enum Command {
    Run { workload: &'static str, ctx: Ctx },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 19u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--compare" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = value("a directory")?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // A smoke run has 1 s rounds whatever --seconds says.
    let seconds = if smoke {
        ROUNDS as f64
    } else {
        seconds.unwrap_or(25.0)
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
        env: environment(),
    };
    Ok(Command::Run { workload, ctx })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare(a, b)) => match report::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run { workload, ctx }) => {
            if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
                eprintln!("cannot create {}: {e}", ctx.out_dir.display());
                return ExitCode::from(2);
            }
            let report = match workload {
                "serve_ib" => serve::run(&ctx, "serve_ib", XMapMode::NxMapItemBased),
                "serve_ub" => serve::run(&ctx, "serve_ub", XMapMode::NxMapUserBased),
                "ingest_mix" => ingest::run(&ctx),
                _ => lifecycle::run(&ctx),
            };
            let report = match report {
                Ok(report) => report,
                Err(message) => {
                    eprintln!("{workload}: {message}");
                    return ExitCode::from(1);
                }
            };
            report.print();
            println!("{}", report.result_line());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}
