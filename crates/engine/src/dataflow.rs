//! The unified `Stage` / `Dataflow` execution substrate.
//!
//! The paper's implementation runs the four X-Map components as Spark jobs: each
//! component is a keyed transformation whose work is split into partitions, scheduled
//! onto executors, and timed by the driver. This module is the local equivalent, and the
//! single place where partitioning, parallel execution and accounting live:
//!
//! * a [`Stage`] is one named transformation (`baseliner`, `extender`, …);
//! * the [`Dataflow`] runner owns the [`WorkerPool`], the [`Partitioner`] and the
//!   ledger; [`Dataflow::run`] executes a stage, times it, and records its duration
//!   and per-partition task costs as one [`StageReport`];
//! * inside a stage, [`StageContext::map_partitions`] splits the input by key into the
//!   dataflow's partitions, processes every partition as one pool task (so per-partition
//!   scratch state is reused across the items of a partition), and records one
//!   *data-derived* cost per partition.
//!
//! Costs are work estimates computed from the data (e.g. candidate counts), **not**
//! wall-clock samples, so they are identical no matter how many workers execute the
//! stage. That is what lets the [`ClusterSim`](crate::cluster::ClusterSim) replay the
//! exact same task bag on a simulated cluster (Figure 11) while the real pool executes
//! it on local threads: both consume the same per-partition costs via
//! [`Dataflow::stage_costs`].

use crate::clock::Stopwatch;
use crate::partition::Partitioner;
use crate::pool::WorkerPool;
use crate::stage::{self, StageReport};
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One named transformation of the dataflow.
///
/// Stages are generic over their input `In` (typically a reference to the previous
/// stage's output) and declare their output as an associated type, so a pipeline is a
/// plain sequence of `dataflow.run(&stage, input)` calls with full type inference
/// between consecutive stages.
pub trait Stage<In> {
    /// The stage's output.
    type Out;

    /// Stable stage name used for timing reports and task-cost accounting.
    fn name(&self) -> &'static str;

    /// Executes the stage. Parallel work should go through the [`StageContext`].
    fn run(&self, input: In, cx: &mut StageContext<'_>) -> Self::Out;
}

/// A [`Stage`] built from a name and a closure, for ad-hoc stages in tests and
/// benches (library pipelines define named stage types instead).
pub struct FnStage<F> {
    name: &'static str,
    f: F,
}

/// Builds an ad-hoc stage from a name and a closure.
pub fn fn_stage<In, Out, F>(name: &'static str, f: F) -> FnStage<F>
where
    F: Fn(In, &mut StageContext<'_>) -> Out,
{
    FnStage { name, f }
}

impl<In, Out, F> Stage<In> for FnStage<F>
where
    F: Fn(In, &mut StageContext<'_>) -> Out,
{
    type Out = Out;

    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, input: In, cx: &mut StageContext<'_>) -> Out {
        (self.f)(input, cx)
    }
}

/// Execution handle passed to a running [`Stage`].
pub struct StageContext<'a> {
    pool: &'a WorkerPool,
    partitioner: Partitioner,
    costs: Vec<f64>,
}

impl StageContext<'_> {
    /// The worker pool executing this stage.
    pub fn pool(&self) -> &WorkerPool {
        self.pool
    }

    /// The dataflow's partitioner.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Partitions `items` by `key`, processes every partition as one pool task, and
    /// returns the per-partition outputs in partition order.
    ///
    /// `f` receives the partition index and the partition's items, and returns the
    /// partition's output together with its *data-derived* task cost; the costs are
    /// recorded on the context (one per partition, in partition order) and surface
    /// through [`Dataflow::stage_costs`]. Because partition assignment depends only on
    /// the partitioner and the costs only on the data, both the outputs and the recorded
    /// costs are identical for any worker count.
    pub fn map_partitions<T, K, R, F>(
        &mut self,
        items: Vec<T>,
        key: impl Fn(&T) -> K,
        f: F,
    ) -> Vec<R>
    where
        T: Send + Sync,
        K: Hash,
        R: Send,
        F: Fn(usize, &[T]) -> (R, f64) + Sync,
    {
        let parts = self.partitioner.split_by_key(items, key);
        let outputs = self
            .pool
            .parallel_map_indexed(&parts, |ix, part| f(ix, part.as_slice()));
        let mut results = Vec::with_capacity(outputs.len());
        for (out, cost) in outputs {
            self.costs.push(cost);
            results.push(out);
        }
        results
    }

    /// Partitions `items` by their *input position*, processes every partition as one
    /// pool task, and returns one output per item **in the original input order**.
    ///
    /// This is the serving-side counterpart of [`StageContext::map_partitions`]: batch
    /// request processing wants per-request outputs back in request order, while still
    /// getting partition-level scratch reuse and per-partition task-cost accounting.
    /// `f` receives the partition index and the partition's `(input position, item)`
    /// pairs, and must return one output per pair (in slice order) together with the
    /// partition's data-derived task cost. Partition assignment hashes the input
    /// position, so outputs, partition contents and recorded costs are identical for any
    /// worker count.
    ///
    /// # Panics
    /// Panics if `f` returns a different number of outputs than it received items.
    pub fn map_items_ordered<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(usize, &[(usize, T)]) -> (Vec<R>, f64) + Sync,
    {
        let n = items.len();
        let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        let per_partition = self.map_partitions(
            indexed,
            |&(pos, _)| pos,
            |ix, part| {
                let (outs, cost) = f(ix, part);
                assert_eq!(
                    outs.len(),
                    part.len(),
                    "partition {ix} returned {} outputs for {} items",
                    outs.len(),
                    part.len()
                );
                let keyed: Vec<(usize, R)> = part.iter().map(|&(pos, _)| pos).zip(outs).collect();
                (keyed, cost)
            },
        );
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (pos, out) in per_partition.into_iter().flatten() {
            slots[pos] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every input position produced exactly one output")) // lint: panic — reviewed invariant
            .collect()
    }
}

/// The dataflow runner: executes [`Stage`]s on a pool, times them, and keeps the
/// ledger — one [`StageReport`] per stage name — for the cluster simulator.
#[derive(Debug)]
pub struct Dataflow {
    pool: WorkerPool,
    partitioner: Partitioner,
    ledger: Mutex<Vec<StageReport>>,
}

impl Dataflow {
    /// Creates a runner with `workers` pool threads and `partitions` dataflow
    /// partitions. The two are independent: partitions fix the unit of work (and hence
    /// the recorded task costs), workers only decide how many execute concurrently.
    pub fn new(workers: usize, partitions: usize) -> Self {
        Dataflow {
            pool: WorkerPool::new(workers),
            partitioner: Partitioner::new(partitions),
            ledger: Mutex::new(Vec::new()),
        }
    }

    /// The pool stages execute on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The dataflow's partitioner.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Runs a stage and records its duration and the per-partition task costs it
    /// recorded. Re-running a stage *replaces* its entry, so a long-lived runner that
    /// serves the same stage indefinitely keeps a bounded ledger (one entry per
    /// distinct stage name).
    pub fn run<In, S: Stage<In>>(&self, stage: &S, input: In) -> S::Out {
        let mut cx = StageContext {
            pool: &self.pool,
            partitioner: self.partitioner,
            costs: Vec::new(),
        };
        let watch = Stopwatch::start();
        let out = stage.run(input, &mut cx);
        let report = StageReport {
            name: stage.name().to_string(),
            duration: watch.elapsed(),
            costs: cx.costs,
        };
        stage::record(&mut self.lock(), report);
        out
    }

    fn lock(&self) -> MutexGuard<'_, Vec<StageReport>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The ledger: the most recent run of each stage, in first-execution order.
    pub fn reports(&self) -> Vec<StageReport> {
        self.lock().clone()
    }

    /// The per-partition task costs recorded by the most recent run of the named stage;
    /// `None` when the stage never ran or its latest run recorded no costs.
    pub fn stage_costs(&self, stage: &str) -> Option<Vec<f64>> {
        self.lock()
            .iter()
            .find(|r| r.name == stage && !r.costs.is_empty())
            .map(|r| r.costs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SquareStage;

    impl Stage<Vec<u64>> for SquareStage {
        type Out = Vec<u64>;

        fn name(&self) -> &'static str {
            "square"
        }

        fn run(&self, input: Vec<u64>, cx: &mut StageContext<'_>) -> Vec<u64> {
            let per_partition = cx.map_partitions(
                input,
                |x| *x,
                |_ix, part| {
                    let out: Vec<u64> = part.iter().map(|x| x * x).collect();
                    let cost = part.len() as f64;
                    (out, cost)
                },
            );
            per_partition.into_iter().flatten().collect()
        }
    }

    #[test]
    fn stage_outputs_and_costs_are_recorded() {
        let flow = Dataflow::new(4, 8);
        let out = flow.run(&SquareStage, (0..100).collect());
        let mut sorted = out.clone();
        sorted.sort_unstable();
        let mut expect: Vec<u64> = (0..100u64).map(|x| x * x).collect();
        expect.sort_unstable();
        assert_eq!(sorted, expect);

        let costs = flow.stage_costs("square").expect("costs recorded");
        assert_eq!(costs.len(), 8, "one task cost per partition");
        assert_eq!(costs.iter().sum::<f64>(), 100.0, "costs cover every item");
        assert_eq!(flow.reports().len(), 1);
        assert_eq!(flow.reports()[0].name, "square");
    }

    #[test]
    fn rerunning_a_stage_replaces_its_ledger_entries_instead_of_growing_them() {
        let flow = Dataflow::new(2, 4);
        for round in 0..50u64 {
            let _ = flow.run(&SquareStage, (0..10 + round).collect());
        }
        assert_eq!(
            flow.reports().len(),
            1,
            "repeated runs must keep one report per stage name"
        );
        let costs = flow.stage_costs("square").unwrap();
        assert_eq!(costs.len(), 4);
        assert_eq!(
            costs.iter().sum::<f64>(),
            59.0,
            "the ledger must hold the most recent run's costs"
        );
    }

    #[test]
    fn rerun_that_records_nothing_clears_the_stale_ledger_entry() {
        let flow = Dataflow::new(2, 4);
        let record = fn_stage(
            "sweep-point",
            |items: Vec<u64>, cx: &mut StageContext<'_>| {
                let n = items.len();
                if n > 0 {
                    cx.map_partitions(items, |x| *x, |_, part| ((), part.len() as f64));
                }
                n
            },
        );
        assert_eq!(flow.run(&record, vec![1, 2, 3]), 3);
        assert_eq!(flow.stage_costs("sweep-point").unwrap().len(), 4);
        // a later run of the same stage name with no recorded costs must not leave the
        // old task bag in place
        assert_eq!(flow.run(&record, Vec::new()), 0);
        assert!(
            flow.stage_costs("sweep-point").is_none(),
            "stale costs survived an empty re-run"
        );
    }

    #[test]
    fn unknown_stage_has_no_costs() {
        let flow = Dataflow::new(1, 4);
        assert!(flow.stage_costs("nope").is_none());
    }

    struct OrderedDoubleStage;

    impl Stage<Vec<u64>> for OrderedDoubleStage {
        type Out = Vec<u64>;

        fn name(&self) -> &'static str {
            "double"
        }

        fn run(&self, input: Vec<u64>, cx: &mut StageContext<'_>) -> Vec<u64> {
            cx.map_items_ordered(input, |_ix, part| {
                let outs: Vec<u64> = part.iter().map(|&(_, x)| x * 2).collect();
                (outs, part.len() as f64)
            })
        }
    }

    #[test]
    fn ordered_map_returns_outputs_in_input_order() {
        let flow = Dataflow::new(4, 8);
        let input: Vec<u64> = (0..100).rev().collect();
        let out = flow.run(&OrderedDoubleStage, input.clone());
        let expect: Vec<u64> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, expect, "outputs must align with the input order");
        let costs = flow.stage_costs("double").expect("costs recorded");
        assert_eq!(costs.len(), 8, "one task cost per partition");
        assert_eq!(costs.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn ordered_map_is_identical_for_1_2_and_8_workers() {
        let reference_flow = Dataflow::new(1, 8);
        let reference = reference_flow.run(&OrderedDoubleStage, (0..500).collect());
        let reference_costs = reference_flow.stage_costs("double").unwrap();
        for workers in [2usize, 8] {
            let flow = Dataflow::new(workers, 8);
            let out = flow.run(&OrderedDoubleStage, (0..500).collect());
            assert_eq!(out, reference, "{workers} workers changed ordered output");
            assert_eq!(
                flow.stage_costs("double").unwrap(),
                reference_costs,
                "{workers} workers changed ordered task costs"
            );
        }
    }

    #[test]
    fn ordered_map_handles_empty_input() {
        let flow = Dataflow::new(2, 4);
        let out = flow.run(&OrderedDoubleStage, Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn results_and_costs_are_identical_for_1_2_and_8_workers() {
        // The Dataflow determinism contract: partition assignment and task costs depend
        // only on the partitioner, never on the worker count executing the partitions.
        let reference_flow = Dataflow::new(1, 8);
        let reference = reference_flow.run(&SquareStage, (0..1000).collect());
        let reference_costs = reference_flow.stage_costs("square").unwrap();
        for workers in [2usize, 8] {
            let flow = Dataflow::new(workers, 8);
            let out = flow.run(&SquareStage, (0..1000).collect());
            assert_eq!(out, reference, "{workers} workers changed stage output");
            assert_eq!(
                flow.stage_costs("square").unwrap(),
                reference_costs,
                "{workers} workers changed task costs"
            );
        }
    }
}
