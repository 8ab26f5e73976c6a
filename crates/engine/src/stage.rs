//! The one cost ledger's entry and its update rule.
//!
//! The X-Map implementation is a four-stage pipeline (baseliner → extender → generator →
//! recommender, Figure 4). Every stage a [`Dataflow`](crate::dataflow::Dataflow) runs or
//! records from outside leaves one [`StageReport`]: how long the stage took and the
//! per-partition task costs the cluster simulator replays (Figure 11).

use std::time::Duration;

/// One ledger entry: the most recent run of a named stage.
#[derive(Clone, Debug, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
    /// Data-derived per-partition task costs, in partition order — identical at any
    /// worker count; empty when the run recorded none.
    pub costs: Vec<f64>,
}

/// Replace-latest: `report` replaces the entry of the same name, or is appended. A
/// long-lived runner re-running the same stages indefinitely keeps one entry per
/// distinct stage name, in first-execution order — and a re-run that recorded no costs
/// leaves no stale task bag behind.
pub(crate) fn record(ledger: &mut Vec<StageReport>, report: StageReport) {
    match ledger.iter_mut().find(|r| r.name == report.name) {
        Some(entry) => *entry = report,
        None => ledger.push(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{fn_stage, Dataflow, StageContext};

    fn entry(name: &str, millis: u64, costs: Vec<f64>) -> StageReport {
        StageReport {
            name: name.to_string(),
            duration: Duration::from_millis(millis),
            costs,
        }
    }

    #[test]
    fn run_stage_records_and_returns() {
        let flow = Dataflow::new(1, 4);
        let value = flow.run(
            &fn_stage("baseliner", |(), _: &mut StageContext<'_>| 21 * 2),
            (),
        );
        assert_eq!(value, 42);
        let reports = flow.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "baseliner");
        assert!(reports[0].costs.is_empty());
    }

    #[test]
    fn record_and_query_by_name() {
        let mut ledger = Vec::new();
        record(&mut ledger, entry("extender", 5, vec![1.0]));
        record(&mut ledger, entry("generator", 7, vec![2.0, 3.0]));
        record(&mut ledger, entry("extender", 9, vec![4.0]));
        let find = |name: &str| ledger.iter().find(|r| r.name == name);
        assert_eq!(find("extender"), Some(&entry("extender", 9, vec![4.0])));
        assert_eq!(
            find("generator"),
            Some(&entry("generator", 7, vec![2.0, 3.0]))
        );
        assert_eq!(find("missing"), None);
    }

    #[test]
    fn record_latest_replaces_in_place() {
        let mut ledger = Vec::new();
        record(&mut ledger, entry("recommend", 5, vec![1.0, 1.0]));
        record(&mut ledger, entry("other", 1, vec![]));
        record(&mut ledger, entry("recommend", 9, vec![]));
        assert_eq!(ledger.len(), 2, "re-recording must not grow the list");
        assert_eq!(ledger[0], entry("recommend", 9, vec![]));
        assert_eq!(ledger[1].name, "other");
    }

    #[test]
    fn stages_are_recorded_in_order() {
        let flow = Dataflow::new(1, 4);
        for name in ["baseliner", "extender", "generator", "recommender"] {
            let sleep = |(), _: &mut StageContext<'_>| {
                std::thread::sleep(Duration::from_micros(10));
            };
            flow.run(&fn_stage(name, sleep), ());
        }
        let reports = flow.reports();
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["baseliner", "extender", "generator", "recommender"]
        );
        let total: Duration = reports.iter().map(|r| r.duration).sum();
        assert!(total >= Duration::from_micros(40));
    }
}
