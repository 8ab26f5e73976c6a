//! The metric table, the result of one run, its JSON forms and `--compare`.
//!
//! `BENCHMARK.json` registers the bounded metrics as `end_to_end` and the rest as
//! `per_layer`; a self-test keeps the two in step. Every run prints every metric
//! of the section it measured; a layer a workload never calls reports 0 — it did
//! no work there.

use std::path::Path;

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base by which an end-to-end metric may worsen. `None` for a
    /// per-layer metric, which has no bound.
    pub bound: Option<f64>,
    /// A count that must repeat exactly for a seed.
    pub exact: bool,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDef] = &[
    // Defined on every workload and never 0, as `BENCHMARK.json` requires of an
    // end-to-end metric. README, "Bounds", says where 0.25 comes from.
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("recommend_per_s", "1/s", Higher, 0.25),
    end_to_end("recommend_p50_us", "us", Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.25),
    // User-visible times that one workload has, or that did not hold a bound
    // here. Both passes measure and print them.
    layer("recommend_p99_us", "us", Lower),
    layer("predict_p50_us", "us", Lower),
    layer("fit_s", "s", Lower),
    layer("ingest_p50_ms", "ms", Lower),
    layer("ingest_p90_ms", "ms", Lower),
    layer("ingest_visible_p50_ms", "ms", Lower),
    layer("persist_ms", "ms", Lower),
    layer("recover_replay_s", "s", Lower),
    layer("recover_compacted_ms", "ms", Lower),
    layer("node_recover_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("xmap_dataset.generate_ms", "ms", Lower),
    layer("core.shard.cut_ms", "ms", Lower),
    // serve hops
    layer("core.shard.alterego_us", "us", Lower),
    layer("core.shard.recommend_for_profile_us", "us", Lower),
    layer("core.shard.predict_us", "us", Lower),
    layer("core.pipeline.recommend_us", "us", Lower),
    layer("core.pipeline.predict_us", "us", Lower),
    layer("core.generator.alterego_us", "us", Lower),
    layer("core.shard.route_overhead_ratio", "ratio", Lower),
    layer("xmap_cf.topk.merge_ns", "ns", Lower),
    layer("core.serve.serve_profiles_per_s", "1/s", Higher),
    layer("core.recommend.nx_ib.recommend_us", "us", Lower),
    layer("core.recommend.nx_ub.recommend_us", "us", Lower),
    layer("core.recommend.x_ib.recommend_us", "us", Lower),
    layer("core.recommend.x_ub.recommend_us", "us", Lower),
    layer("core.pipeline.nx_ib.fit_ms", "ms", Lower),
    layer("core.pipeline.nx_ub.fit_ms", "ms", Lower),
    layer("core.pipeline.x_ib.fit_ms", "ms", Lower),
    layer("core.pipeline.x_ub.fit_ms", "ms", Lower),
    // ingest hops
    layer("core.delta.apply_delta_ms", "ms", Lower),
    layer("core.persist.journal_overhead_ms", "ms", Lower),
    layer("core.shard.ingest_ms", "ms", Lower),
    layer("core.shard.ingest_unjournalled_ms", "ms", Lower),
    layer("core.shard.recut_overhead_ms", "ms", Lower),
    layer("core.shard.first_read_after_ingest_us", "us", Lower),
    layer("xmap_store.journal.append_us", "us", Lower),
    count("core.delta.rescored_pairs_per_ingest", "count"),
    count("core.delta.xsim_rows_per_ingest", "count"),
    count("core.delta.pool_refits_per_ingest", "count"),
    count("xmap_store.journal.bytes_per_rating", "bytes"),
    // fit and recovery hops
    layer("xmap_graph.build_ms", "ms", Lower),
    layer("core.pipeline.fit_rest_ms", "ms", Lower),
    layer("xmap_engine.fit_w1_s", "s", Lower),
    layer("xmap_engine.workers_speedup", "ratio", Higher),
    layer("core.persist.replay_records_per_s", "1/s", Higher),
    layer("core.persist.compact_ms", "ms", Lower),
    count("xmap_store.snapshot.bytes_per_rating", "bytes"),
    layer("xmap_store.snapshot.load_mb_per_s", "MB/s", Higher),
    layer("core.shard.persist_ms", "ms", Lower),
    layer("core.shard.kill_node_ms", "ms", Lower),
    layer("core.shard.recover_node_ms", "ms", Lower),
];

pub fn metric(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
}

#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a derived figure).
    pub samples: usize,
}

/// Where and on what a run was made; `--compare` shows it but never gates on it.
#[derive(Clone, Debug, Default)]
pub struct Environment {
    pub nproc: usize,
    pub loadavg_1m: f64,
    pub git_rev: String,
    pub rustc: String,
}

#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub env: Environment,
    pub stream_hash: u64,
    pub probe_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    pub measured: Vec<Measured>,
    /// Per-round values kept to show spread inside the run.
    pub rounds: Vec<(&'static str, Vec<f64>)>,
}

impl RunReport {
    pub fn record(&mut self, name: &'static str, value: f64, samples: usize) {
        metric(name);
        assert!(
            !self.measured.iter().any(|m| m.name == name),
            "metric `{name}` measured twice"
        );
        self.measured.push(Measured {
            name,
            value,
            samples,
        });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: every end-to-end metric of an untraced run,
    /// every per-layer metric of a traced one.
    pub fn result_line(&self) -> String {
        let metrics = METRICS
            .iter()
            .filter(|m| m.bound.is_some() != self.trace)
            .map(|m| {
                let value = match (self.value(m.name), m.bound) {
                    (Some(v), _) => v,
                    (None, Some(_)) => {
                        panic!("end-to-end metric `{}` was not measured", m.name)
                    }
                    (None, None) => 0.0,
                };
                let entry =
                    Json::object([("value", Json::Num(value)), ("unit", Json::from(m.unit))]);
                (m.name, entry)
            });
        Json::object([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
        .to_line()
    }

    /// The result file: everything measured, with what is needed to compare it
    /// against another run.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .measured
            .iter()
            .map(|m| {
                let def = metric(m.name);
                Json::object([
                    ("name", Json::from(m.name)),
                    ("value", Json::Num(m.value)),
                    ("unit", Json::from(def.unit)),
                    ("samples", Json::Num(m.samples as f64)),
                    ("better", Json::from(def.better.label())),
                    ("bound", def.bound.map_or(Json::Null, Json::Num)),
                    ("exact", Json::Bool(def.exact)),
                ])
            })
            .collect();
        let rounds = self.rounds.iter().map(|(name, values)| {
            (
                *name,
                Json::Arr(values.iter().copied().map(Json::Num).collect()),
            )
        });
        Json::object([
            ("schema", Json::Num(1.0)),
            ("workload", Json::from(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
            ("nproc", Json::Num(self.env.nproc as f64)),
            ("loadavg_1m", Json::Num(self.env.loadavg_1m)),
            ("git_rev", Json::from(self.env.git_rev.as_str())),
            ("rustc", Json::from(self.env.rustc.as_str())),
            (
                "stream_hash",
                Json::from(format!("{:016x}", self.stream_hash)),
            ),
            (
                "probe_hash",
                Json::from(format!("{:016x}", self.probe_hash)),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("noisy", Json::Bool(self.noisy)),
            ("metrics", Json::Arr(metrics)),
            ("rounds", Json::object(rounds)),
        ])
    }

    /// Every metric by name with its unit and sample count, for a person.
    pub fn print(&self) {
        println!(
            "== {} seed={} seconds={} trace={} smoke={} stream_hash={:016x} probe_hash={:016x}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.smoke,
            self.stream_hash,
            self.probe_hash
        );
        println!(
            "   nproc={} loadavg_1m={} git_rev={} rustc={:?}",
            self.env.nproc, self.env.loadavg_1m, self.env.git_rev, self.env.rustc
        );
        for m in &self.measured {
            let def = metric(m.name);
            let bound = def.bound.map_or(String::new(), |b| format!(" bound={b}"));
            println!(
                "   {:<42} {:>14.4} {:<6} n={}{}{}",
                m.name,
                m.value,
                def.unit,
                m.samples,
                bound,
                if def.exact { " exact" } else { "" }
            );
        }
        for (name, values) in &self.rounds {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("   rounds {name}: [{}]", shown.join(", "));
        }
        println!(
            "   failed_share {} ({} of {}){}",
            self.failed_share(),
            self.failed,
            self.attempted,
            if self.noisy {
                "  NOISY: a round is >15 % off its median"
            } else {
                ""
            }
        );
    }
}

struct Loaded {
    path: String,
    json: Json,
}

impl Loaded {
    fn read(path: &Path) -> Result<Loaded, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Loaded::checked(path.display().to_string(), json)
    }

    fn checked(path: String, json: Json) -> Result<Loaded, String> {
        if json.get("schema").and_then(Json::as_f64) != Some(1.0) {
            return Err(format!("{path}: not a schema-1 result file"));
        }
        if json.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!("{path}: a --smoke run is too short to compare"));
        }
        Ok(Loaded { path, json })
    }

    fn text(&self, key: &str) -> &str {
        self.json.get(key).and_then(Json::as_str).unwrap_or("?")
    }

    fn number(&self, key: &str) -> f64 {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn metrics(&self) -> &[Json] {
        self.json
            .get("metrics")
            .and_then(Json::as_array)
            .unwrap_or(&[])
    }

    fn metric_names(&self) -> Vec<&str> {
        self.metrics()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect()
    }

    fn metric(&self, name: &str) -> Option<&Json> {
        self.metrics()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
    }
}

/// Prints, per metric, both values and `B / A` (base A), flags a pair that is
/// worse than its bound allows and an exact count that differs. Returns whether
/// every pair held.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    compare_loaded(&Loaded::read(a)?, &Loaded::read(b)?)
}

fn compare_loaded(a: &Loaded, b: &Loaded) -> Result<bool, String> {
    let workload = a.text("workload");
    if workload != b.text("workload") || a.json.get("trace") != b.json.get("trace") {
        return Err("the two files hold different workloads or passes".to_string());
    }
    println!(
        "compare {workload}: A = {} ({}), B = {} ({})",
        a.path,
        a.text("git_rev"),
        b.path,
        b.text("git_rev")
    );
    for key in ["seed", "nproc", "loadavg_1m"] {
        println!("  {key:<12} A={} B={}", a.number(key), b.number(key));
    }
    let mut ok = true;
    // Round lengths and sample counts follow `seconds`; the hashes cover the
    // inputs and the checked answers. Runs that differ in either do not compare.
    let same_seconds = a.number("seconds") == b.number("seconds");
    println!(
        "  {:<12} A={} B={}{}",
        "seconds",
        a.number("seconds"),
        b.number("seconds"),
        if same_seconds { "" } else { "  DIFFERS" }
    );
    ok &= same_seconds;
    for key in ["stream_hash", "probe_hash"] {
        let same = a.text(key) == b.text(key);
        println!(
            "  {key:<12} A={} B={}{}",
            a.text(key),
            b.text(key),
            if same { "" } else { "  DIFFERS" }
        );
        ok &= same;
    }
    for side in [a, b] {
        if side.json.get("noisy").and_then(Json::as_bool) == Some(true) {
            println!("  note: {} was marked noisy", side.path);
        }
    }
    let failed = [a.number("failed_share"), b.number("failed_share")];
    println!(
        "  {:<42} A={} B={} (must be 0)",
        "failed_share", failed[0], failed[1]
    );
    ok &= failed == [0.0, 0.0];
    // A's metrics in A's order, then those only B has.
    let mut names = a.metric_names();
    for name in b.metric_names() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    for name in names {
        let (ma, mb) = match (a.metric(name), b.metric(name)) {
            (Some(ma), Some(mb)) => (ma, mb),
            (in_a, _) => {
                let side = if in_a.is_some() { "B" } else { "A" };
                println!("  {name:<42} missing from {side}");
                ok = false;
                continue;
            }
        };
        let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let (va, vb) = (value(ma), value(mb));
        let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
        let ratio = vb / va;
        let mut verdict = String::new();
        if ma.get("exact").and_then(Json::as_bool) == Some(true) {
            if va != vb {
                verdict = "  EXACT COUNT DIFFERS".to_string();
                ok = false;
            }
        } else if let Some(bound) = ma.get("bound").and_then(Json::as_f64) {
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let worse = if lower {
                ratio > 1.0 + bound
            } else {
                ratio < 1.0 - bound
            };
            if worse || !ratio.is_finite() {
                verdict = format!("  OUTSIDE BOUND {bound}");
                ok = false;
            }
        }
        println!("  {name:<42} A={va:<14.4} B={vb:<14.4} {unit:<6} B/A={ratio:.4}{verdict}");
    }
    println!(
        "{}",
        if ok {
            "compare: every pair within its bound"
        } else {
            "compare: FLAGGED pairs above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            workload: "serve_ib",
            seed: 19,
            seconds: 20.0,
            trace: false,
            smoke: false,
            env: Environment {
                nproc: 2,
                loadavg_1m: 0.25,
                git_rev: "abc1234".to_string(),
                rustc: "rustc 1.0.0".to_string(),
            },
            stream_hash: 0xDEAD_BEEF_0000_0001,
            probe_hash: 7,
            attempted: 1000,
            failed: 0,
            noisy: false,
            measured: Vec::new(),
            rounds: vec![("recommend_per_s", vec![1.5, 2.5])],
        };
        for m in METRICS.iter().filter(|m| m.bound.is_some()) {
            r.record(m.name, 1.25, 10);
        }
        r
    }

    #[test]
    fn result_file_round_trips_and_keeps_its_schema() {
        let report = sample_report();
        let json = report.to_json();
        let back = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(back, json);
        assert_eq!(
            back.get("stream_hash").unwrap().as_str(),
            Some("deadbeef00000001")
        );
        assert_eq!(back.get("failed_share").unwrap().as_f64(), Some(0.0));
        let first = &back.get("metrics").unwrap().as_array().unwrap()[0];
        for key in [
            "name", "value", "unit", "samples", "better", "bound", "exact",
        ] {
            assert!(first.get(key).is_some(), "metric entry lacks `{key}`");
        }
    }

    fn loaded(name: &str, report: &RunReport) -> Result<Loaded, String> {
        Loaded::checked(name.to_string(), report.to_json())
    }

    #[test]
    fn compare_flags_what_differs_whichever_side_it_is_on() {
        let a = sample_report();
        let same = |b: &RunReport| {
            let (la, lb) = (loaded("A", &a).unwrap(), loaded("B", b).unwrap());
            (
                compare_loaded(&la, &lb).unwrap(),
                compare_loaded(&lb, &la).unwrap(),
            )
        };
        assert_eq!(same(&a.clone()), (true, true));

        let mut extra = a.clone();
        extra.record("ingest_p50_ms", 150.0, 100);
        assert_eq!(same(&extra), (false, false), "a metric only one side has");

        let mut longer = a.clone();
        longer.seconds = 40.0;
        assert_eq!(same(&longer), (false, false), "differing seconds");

        let mut slower = a.clone();
        slower.measured[2].value *= 1.0 + 2.0 * metric(slower.measured[2].name).bound.unwrap();
        assert_eq!(
            same(&slower),
            (false, true),
            "worse than the bound one way only"
        );

        let mut smoke = a.clone();
        smoke.smoke = true;
        assert!(loaded("S", &smoke).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample_report().result_line();
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &fields[3].1 else {
            panic!("metrics is not an object")
        };
        let expected = METRICS.iter().filter(|m| m.bound.is_some()).count();
        assert_eq!(metrics.len(), expected);
        assert!(metrics.iter().any(|(k, _)| k == "setup_s"));
    }

    #[test]
    fn a_traced_run_prints_every_per_layer_metric_and_zero_for_idle_layers() {
        let mut report = sample_report();
        report.trace = true;
        report.measured.clear();
        report.record("core.shard.ingest_ms", 212.5, 12);
        let parsed = Json::parse(&report.result_line()).unwrap();
        let Json::Obj(metrics) = parsed.get("metrics").unwrap() else {
            panic!("metrics is not an object")
        };
        assert_eq!(
            metrics.len(),
            METRICS.iter().filter(|m| m.bound.is_none()).count()
        );
        let value = |name: &str| {
            parsed
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("core.shard.ingest_ms"), Some(212.5));
        assert_eq!(value("xmap_graph.build_ms"), Some(0.0));
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_alphabet() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(
                !METRICS[..i].iter().any(|o| o.name == m.name),
                "{} twice",
                m.name
            );
            assert!(m.bound.unwrap_or(0.0) <= 0.25);
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the table.
    #[test]
    fn benchmark_json_registers_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let section = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table = |end_to_end: bool| -> Vec<(String, String, String, Option<f64>)> {
            METRICS
                .iter()
                .filter(|m| m.bound.is_some() == end_to_end)
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.label().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(section("end_to_end"), table(true));
        assert_eq!(section("per_layer"), table(false));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
