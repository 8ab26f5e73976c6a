//! Deterministic cluster simulator for the scalability experiment (Figure 11).
//!
//! The paper measures the speedup of X-Map (and of Spark MLlib-ALS) when the same job
//! runs on 4–20 machines, normalised to the 5-machine time. A single evaluation host
//! cannot reproduce a 20-machine cluster with real threads, so — per the substitution
//! rule in `DESIGN.md` — this module *simulates* distributed execution:
//!
//! * the job is described as a bag of independent task costs (e.g. per-partition
//!   similarity-computation times, measured locally or modelled from partition sizes);
//! * on `m` machines the tasks are scheduled greedily, longest first (LPT), onto the
//!   machine with the least load — the same load-balancing behaviour a Spark scheduler
//!   approximates;
//! * the simulated makespan adds a per-stage coordination/shuffle cost that grows with
//!   the machine count and with the fraction of data that must cross machines, plus a
//!   serial (non-parallelisable) fraction — this is what bends the curve away from the
//!   ideal linear speedup, for ALS (iterative, shuffle-heavy) much more than for X-Map
//!   (embarrassingly parallel per-item/per-user work).

use serde::{Deserialize, Serialize};

/// Cost model of one distributed job.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterCostModel {
    /// Work that cannot be parallelised (driver-side aggregation, job setup), in the same
    /// unit as the task costs.
    pub serial_cost: f64,
    /// Coordination overhead added *per machine* participating in a stage (heartbeats,
    /// task scheduling, result collection).
    pub per_machine_overhead: f64,
    /// Shuffle cost coefficient: each stage pays `shuffle_cost * total_work * (m-1)/m`,
    /// modelling the fraction of records that must leave their machine in an all-to-all
    /// exchange over `m` machines.
    pub shuffle_cost: f64,
    /// Number of shuffle stages the job performs.
    pub shuffle_stages: usize,
}

impl ClusterCostModel {
    /// A cost model resembling X-Map's pipeline: almost no serial work and a single
    /// cheap shuffle (exchanging the pruned top-k lists between layers).
    pub fn xmap_like() -> Self {
        ClusterCostModel {
            serial_cost: 0.01,
            per_machine_overhead: 0.002,
            shuffle_cost: 0.01,
            shuffle_stages: 2,
        }
    }

    /// A cost model resembling iterative ALS: a noticeable serial driver portion and many
    /// shuffle-heavy iterations (factor broadcast + gradient aggregation per sweep).
    pub fn als_like() -> Self {
        ClusterCostModel {
            serial_cost: 0.05,
            per_machine_overhead: 0.004,
            shuffle_cost: 0.035,
            shuffle_stages: 10,
        }
    }

    /// Completion time of a placement: the busiest machine of `loads` plus the serial,
    /// per-machine and shuffle terms — the one formula both placement policies
    /// ([`ClusterSim::makespan`], [`ClusterSim::replay_pinned`]) finish through.
    fn finish(&self, loads: &[f64], total_work: f64) -> f64 {
        let busiest = loads.iter().cloned().fold(0.0, f64::max);
        let m = loads.len() as f64;
        // The shuffle term models the fraction of records that must leave their machine
        // in an all-to-all exchange: (m-1)/m of the data per stage. The aggregate network
        // does not speed up as machines are added, so this term grows (slowly) with m —
        // which is what bends shuffle-heavy jobs (ALS) away from linear speedup.
        let shuffle = self.shuffle_cost * total_work * ((m - 1.0) / m) * self.shuffle_stages as f64;
        let overhead = self.per_machine_overhead * m;
        self.serial_cost + busiest + shuffle + overhead
    }
}

/// One point of a speedup curve.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Number of machines.
    pub machines: usize,
    /// Simulated makespan on that many machines.
    pub makespan: f64,
    /// Speedup relative to the baseline machine count.
    pub speedup: f64,
}

/// The cluster simulator: a cost model plus either an anonymous task bag placed by LPT
/// ([`ClusterSim::makespan`]) or a routed tally whose placement is already pinned
/// ([`ClusterSim::replay_pinned`]).
#[derive(Clone, Debug)]
pub struct ClusterSim {
    task_costs: Vec<f64>,
    model: ClusterCostModel,
}

impl ClusterSim {
    /// Creates a simulator for a job consisting of `task_costs` independent tasks.
    /// Non-finite or negative costs are rejected.
    pub fn new(task_costs: Vec<f64>, model: ClusterCostModel) -> Self {
        assert!(
            task_costs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "task costs must be finite and non-negative"
        );
        ClusterSim { task_costs, model }
    }

    /// Total amount of parallelisable work.
    pub fn total_work(&self) -> f64 {
        self.task_costs.iter().sum()
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.task_costs.len()
    }

    /// Simulated makespan of the job on `machines` machines.
    ///
    /// LPT scheduling: tasks are sorted by decreasing cost and each task is placed on the
    /// currently least-loaded machine. The result is the most loaded machine's finish
    /// time, plus the modelled serial, per-machine and shuffle costs.
    pub fn makespan(&self, machines: usize) -> f64 {
        let machines = machines.max(1);
        let mut sorted = self.task_costs.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let mut loads = vec![0.0f64; machines];
        for cost in sorted {
            // place on the least-loaded machine
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one machine"); // lint: panic — reviewed invariant
            loads[idx] += cost;
        }
        self.model.finish(&loads, self.total_work())
    }

    /// Replays a routed tally on `n_nodes` machines under the second placement
    /// policy: *pinned* — each node keeps the load the router sent it instead of
    /// being re-balanced by LPT, so a skewed shard map shows up as load imbalance. The
    /// makespan finishes through the same serial / per-machine / shuffle terms as
    /// [`ClusterSim::makespan`], so routed and LPT replays of the same work are
    /// directly comparable.
    ///
    /// The tally must name only existing nodes.
    pub fn replay_pinned(
        tally: &RoutedTally,
        n_nodes: usize,
        model: ClusterCostModel,
    ) -> RoutedReport {
        assert!(n_nodes > 0, "a cluster needs at least one node");
        assert!(
            tally.node_loads.len() <= n_nodes,
            "routed tally names node {} of a {n_nodes}-node cluster",
            tally.node_loads.len() - 1
        );
        let mut node_loads = tally.node_loads.clone();
        node_loads.resize(n_nodes, 0.0);
        RoutedReport {
            makespan: model.finish(&node_loads, tally.total_work),
            node_loads,
            n_tasks: tally.n_tasks,
            total_work: tally.total_work,
        }
    }

    /// Speedup of `machines` machines relative to `baseline_machines`
    /// (`S_p = T_baseline / T_p`, the normalisation used in §6.6 where the baseline is 5
    /// machines instead of a sequential run).
    pub fn speedup(&self, machines: usize, baseline_machines: usize) -> f64 {
        self.makespan(baseline_machines) / self.makespan(machines)
    }

    /// The full speedup curve for a list of machine counts.
    pub fn speedup_curve(
        &self,
        machine_counts: &[usize],
        baseline_machines: usize,
    ) -> Vec<SpeedupPoint> {
        machine_counts
            .iter()
            .map(|&m| SpeedupPoint {
                machines: m,
                makespan: self.makespan(m),
                speedup: self.speedup(m, baseline_machines),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Routed execution: nodes that own shards and run the tasks sent to them
// ---------------------------------------------------------------------------

/// The per-node tally of a routed trace: what [`ClusterSim::replay_pinned`] replays.
///
/// Unlike the anonymous task bags [`ClusterSim`] schedules with LPT, routed work is
/// *pinned*: the router already decided which node runs each task (the shard owner or
/// a replica), so the tally keeps each node's load instead of the tasks. Bounded by
/// the node count however long the trace, and — accumulating in trace order — it
/// replays bit-equal to the task list it summarises.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutedTally {
    /// Total cost sent to each node, indexed by node id, up to the highest node seen.
    pub node_loads: Vec<f64>,
    /// Number of tasks tallied.
    pub n_tasks: usize,
    /// Sum of all task costs, in tally order.
    pub total_work: f64,
}

impl RoutedTally {
    /// Tallies one task the router sent to `node`, with its data-derived cost in the
    /// same unit as [`ClusterSim`] task costs. Non-finite or negative costs are rejected.
    pub fn add(&mut self, node: usize, cost: f64) {
        assert!(
            cost.is_finite() && cost >= 0.0,
            "task costs must be finite and non-negative"
        );
        if node >= self.node_loads.len() {
            self.node_loads.resize(node + 1, 0.0);
        }
        self.node_loads[node] += cost;
        self.n_tasks += 1;
        self.total_work += cost;
    }
}

/// Aggregated outcome of [`ClusterSim::replay_pinned`].
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedReport {
    /// Total busy time per node, indexed by node id.
    pub node_loads: Vec<f64>,
    /// Simulated completion time: the busiest node plus the modelled serial,
    /// per-node and shuffle costs.
    pub makespan: f64,
    /// Number of tasks replayed.
    pub n_tasks: usize,
    /// Sum of all task costs.
    pub total_work: f64,
}

impl RoutedReport {
    /// Load imbalance: busiest node over mean node load (1.0 = perfectly balanced).
    /// Zero total work reports 1.0.
    pub fn imbalance(&self) -> f64 {
        if self.node_loads.is_empty() || self.total_work <= 0.0 {
            return 1.0;
        }
        let max = self.node_loads.iter().cloned().fold(0.0, f64::max);
        let mean = self.total_work / self.node_loads.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_tasks(n: usize, cost: f64) -> Vec<f64> {
        vec![cost; n]
    }

    #[test]
    fn makespan_decreases_with_more_machines() {
        let sim = ClusterSim::new(uniform_tasks(200, 0.1), ClusterCostModel::xmap_like());
        let mut prev = f64::INFINITY;
        for m in [1usize, 2, 4, 8, 16] {
            let t = sim.makespan(m);
            assert!(
                t < prev,
                "makespan should shrink: {t} on {m} machines (prev {prev})"
            );
            prev = t;
        }
    }

    #[test]
    fn speedup_is_one_at_baseline_and_grows() {
        let sim = ClusterSim::new(uniform_tasks(400, 0.05), ClusterCostModel::xmap_like());
        assert!((sim.speedup(5, 5) - 1.0).abs() < 1e-12);
        let s10 = sim.speedup(10, 5);
        let s20 = sim.speedup(20, 5);
        assert!(s10 > 1.0);
        assert!(s20 > s10);
        // ideal speedup from 5 to 20 machines is 4x; the model must stay below it
        assert!(s20 < 4.0, "speedup {s20} exceeds the ideal bound");
        // but an embarrassingly parallel job should stay reasonably close to linear
        assert!(s20 > 2.0, "X-Map-like job should scale well, got {s20}");
    }

    #[test]
    fn xmap_model_scales_better_than_als_model() {
        let tasks = uniform_tasks(400, 0.05);
        let xmap = ClusterSim::new(tasks.clone(), ClusterCostModel::xmap_like());
        let als = ClusterSim::new(tasks, ClusterCostModel::als_like());
        for m in [8usize, 12, 16, 20] {
            assert!(
                xmap.speedup(m, 5) > als.speedup(m, 5),
                "X-Map should out-scale ALS at {m} machines"
            );
        }
    }

    #[test]
    fn lpt_handles_skewed_tasks() {
        // one huge task dominates: makespan can never drop below it
        let mut tasks = uniform_tasks(50, 0.01);
        tasks.push(5.0);
        let sim = ClusterSim::new(tasks, ClusterCostModel::xmap_like());
        for m in [1usize, 4, 16] {
            assert!(sim.makespan(m) >= 5.0);
        }
    }

    #[test]
    fn speedup_curve_reports_every_requested_point() {
        let sim = ClusterSim::new(uniform_tasks(100, 0.02), ClusterCostModel::xmap_like());
        let counts = [4usize, 6, 8, 10, 12, 14, 16, 18, 20];
        let curve = sim.speedup_curve(&counts, 5);
        assert_eq!(curve.len(), counts.len());
        for (point, &m) in curve.iter().zip(&counts) {
            assert_eq!(point.machines, m);
            assert!(point.makespan > 0.0);
            assert!(point.speedup > 0.0);
        }
    }

    #[test]
    fn zero_machines_clamped_to_one() {
        let sim = ClusterSim::new(uniform_tasks(10, 0.1), ClusterCostModel::xmap_like());
        assert_eq!(sim.makespan(0), sim.makespan(1));
        assert_eq!(sim.n_tasks(), 10);
        assert!((sim.total_work() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_costs_rejected() {
        let _ = ClusterSim::new(vec![1.0, -0.5], ClusterCostModel::xmap_like());
    }

    /// Today's per-task replay, kept as the oracle of the tally: every task names a
    /// node and its load accumulates in task order.
    fn replay_tasks(
        tasks: &[(usize, f64)],
        n_nodes: usize,
        model: ClusterCostModel,
    ) -> RoutedReport {
        let mut node_loads = vec![0.0f64; n_nodes];
        let mut total_work = 0.0;
        for &(node, cost) in tasks {
            assert!(
                node < n_nodes,
                "routed task names node {node} of a {n_nodes}-node cluster"
            );
            node_loads[node] += cost;
            total_work += cost;
        }
        RoutedReport {
            makespan: model.finish(&node_loads, total_work),
            node_loads,
            n_tasks: tasks.len(),
            total_work,
        }
    }

    fn tally(tasks: &[(usize, f64)]) -> RoutedTally {
        let mut tally = RoutedTally::default();
        for &(node, cost) in tasks {
            tally.add(node, cost);
        }
        tally
    }

    #[test]
    fn routed_replay_pins_tasks_to_their_nodes() {
        let free = ClusterCostModel {
            serial_cost: 0.0,
            per_machine_overhead: 0.0,
            shuffle_cost: 0.0,
            shuffle_stages: 0,
        };
        // Everything routed to node 2: no LPT rebalancing may hide the hotspot.
        let report = ClusterSim::replay_pinned(&tally(&[(2, 1.0); 10]), 4, free);
        assert_eq!(report.n_tasks, 10);
        assert!((report.makespan - 10.0).abs() < 1e-12);
        assert_eq!(report.node_loads, vec![0.0, 0.0, 10.0, 0.0]);
        assert!(
            (report.imbalance() - 4.0).abs() < 1e-12,
            "one of four nodes does all the work"
        );
    }

    #[test]
    fn routed_replay_balanced_matches_lpt_parallel_part() {
        let model = ClusterCostModel::xmap_like();
        let routed = ClusterSim::replay_pinned(&tally(&[(0, 2.0), (1, 2.0)]), 2, model);
        let lpt = ClusterSim::new(vec![2.0, 2.0], model);
        assert!(
            (routed.makespan - lpt.makespan(2)).abs() < 1e-12,
            "a perfectly balanced routed trace costs exactly what LPT would"
        );
        assert!((routed.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "names node")]
    fn routed_task_beyond_cluster_is_rejected() {
        let _ = ClusterSim::replay_pinned(&tally(&[(1, 1.0)]), 1, ClusterCostModel::xmap_like());
    }

    #[test]
    fn empty_routed_ledger_costs_only_overheads() {
        let model = ClusterCostModel::xmap_like();
        let report = ClusterSim::replay_pinned(&RoutedTally::default(), 2, model);
        assert_eq!(report.n_tasks, 0);
        assert_eq!(report.node_loads, vec![0.0, 0.0]);
        assert!(
            (report.makespan - (model.serial_cost + model.per_machine_overhead * 2.0)).abs()
                < 1e-12
        );
        assert!((report.imbalance() - 1.0).abs() < 1e-12);
    }

    proptest! {
        /// The makespan is always at least the largest task and at least total/machines,
        /// and never exceeds the single-machine makespan.
        #[test]
        fn makespan_bounds(
            costs in proptest::collection::vec(0.0f64..1.0, 1..100),
            machines in 1usize..24,
        ) {
            let model = ClusterCostModel { serial_cost: 0.0, per_machine_overhead: 0.0, shuffle_cost: 0.0, shuffle_stages: 0 };
            let sim = ClusterSim::new(costs.clone(), model);
            let t = sim.makespan(machines);
            let max_task = costs.iter().cloned().fold(0.0, f64::max);
            let lower = (sim.total_work() / machines as f64).max(max_task);
            prop_assert!(t >= lower - 1e-9, "makespan {t} below lower bound {lower}");
            prop_assert!(t <= sim.makespan(1) + 1e-9);
        }

        /// Replaying the tally of a pinned task list is bit-equal to replaying the
        /// tasks one by one.
        #[test]
        fn a_replayed_tally_is_bit_equal_to_the_per_task_replay(
            n_nodes in 1usize..9,
            picks in proptest::collection::vec((0usize..64, 0.0f64..10.0), 0..200),
        ) {
            let tasks: Vec<(usize, f64)> =
                picks.into_iter().map(|(node, cost)| (node % n_nodes, cost)).collect();
            let model = ClusterCostModel::xmap_like();
            let oracle = replay_tasks(&tasks, n_nodes, model);
            let replayed = ClusterSim::replay_pinned(&tally(&tasks), n_nodes, model);
            let bits = |loads: &[f64]| loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&replayed.node_loads), bits(&oracle.node_loads));
            prop_assert_eq!(replayed.makespan.to_bits(), oracle.makespan.to_bits());
            prop_assert_eq!(replayed.n_tasks, oracle.n_tasks);
            prop_assert_eq!(replayed.total_work.to_bits(), oracle.total_work.to_bits());
            prop_assert_eq!(replayed.imbalance().to_bits(), oracle.imbalance().to_bits());
        }
    }
}
