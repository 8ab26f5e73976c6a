//! # xmap-engine — parallel dataflow substrate and cluster simulator
//!
//! The paper implements X-Map on Apache Spark and evaluates scalability on a 20-machine
//! cluster (Figure 11). This crate is the stand-in substrate documented in `DESIGN.md`
//! (repository root):
//!
//! * [`dataflow::Stage`] / [`dataflow::Dataflow`] — the unified execution layer. A
//!   pipeline is a sequence of named stages; the `Dataflow` runner owns partitioning,
//!   pool execution and timing, and records each stage's **per-partition task costs** so
//!   that the real worker pool and the cluster simulator consume the *same* task bag.
//!   See `DESIGN.md` for the full `Stage`/`Dataflow` contract.
//! * [`pool::WorkerPool`] — a small thread pool (`std::thread::scope` workers over an
//!   atomic work index) that parallelises the per-partition / per-item stages of the
//!   X-Map pipeline on the local machine, mirroring how Spark parallelises the same
//!   stages across executor cores.
//! * [`partition::Partitioner`] — deterministic hash partitioning of keys into `p`
//!   partitions, the unit of work distribution (Spark's `partitionBy`).
//! * [`stage::StageReport`] — the ledger entry: one per named stage, its wall-clock
//!   duration and its data-derived per-partition task costs (baseliner / extender /
//!   generator / recommender, Figure 4).
//! * [`json::Json`] — the workspace's one JSON writer and parser: the eval-smoke report
//!   and its CI baseline, and the `xmap-lint` findings report (the vendored serde is a
//!   marker stub, see the workspace `Cargo.toml`).
//! * [`clock::Stopwatch`] — the one sanctioned ambient clock read; all wall-clock
//!   measurement funnels through it so the `ambient-nondeterminism` lint rule can ban
//!   `Instant::now` everywhere else.
//! * [`epoch::EpochHandle`] — an atomically swappable, epoch-counted snapshot handle:
//!   writers build the next model version aside and publish it with one pointer swing;
//!   readers take wait-free reference-counted snapshots and never observe a torn or
//!   retired epoch. This is the publication primitive behind serve-while-updating.
//! * [`cluster::ClusterSim`] — a deterministic cluster *simulator*: given the
//!   per-partition task costs recorded by a `Dataflow` stage (or any modelled task bag),
//!   it computes the makespan of an LPT (longest processing time first) schedule on `m`
//!   machines plus a configurable per-stage coordination/shuffle overhead, and from that
//!   the speedup curve of Figure 11. This is the faithful substitute for the physical
//!   cluster, which a single evaluation machine (possibly with a single core, as in CI)
//!   cannot reproduce with real threads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod cluster;
pub mod dataflow;
pub mod epoch;
pub mod json;
pub mod partition;
pub mod pool;
pub mod stage;
pub mod sync;

pub use clock::Stopwatch;
pub use cluster::{ClusterCostModel, ClusterSim, RoutedReport, RoutedTally, SpeedupPoint};
pub use dataflow::{fn_stage, Dataflow, FnStage, Stage, StageContext};
pub use epoch::EpochHandle;
pub use json::{Json, JsonError};
pub use partition::Partitioner;
pub use pool::WorkerPool;
pub use stage::StageReport;
