//! Serve-while-updating driver: a reader pool interleaved with an ingest worker.
//!
//! [`ConcurrentStage`] executes two workloads against the same epoch-published state
//! (see [`crate::epoch::EpochHandle`]) at once: a pool of reader threads drains a
//! query list while the calling thread applies a sequence of updates, each of which
//! publishes a new epoch. The driver is generic — it knows nothing about models; the
//! caller supplies a `read` closure (returning the observed epoch, the output and a
//! data-derived task cost) and an `ingest` closure (returning the published epoch and
//! its task cost).
//!
//! Two properties make the result checkable after the fact:
//!
//! * every read records the **epoch it observed**, so a verifier can replay the same
//!   query against a serialized schedule paused at that epoch boundary and demand
//!   bit-equality;
//! * outputs come back in query order and the recorded cost bags depend only on the
//!   data (query order for reads, update order for ingests), never on the interleave,
//!   so the ledgers stay deterministic even though the schedule is not.
//!
//! Both sides are recorded in the dataflow's ledgers under
//! [`CONCURRENT_READ_STAGE`] and [`CONCURRENT_INGEST_STAGE`] via
//! [`Dataflow::record_external`], with the usual replace-latest semantics.

use crate::clock::Stopwatch;
use crate::dataflow::Dataflow;
use crate::pool::SendPtr;
use crate::sync::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Ledger/timer name for the reader side of a [`ConcurrentStage`] run.
pub const CONCURRENT_READ_STAGE: &str = "concurrent-read";
/// Ledger/timer name for the ingest side of a [`ConcurrentStage`] run.
pub const CONCURRENT_INGEST_STAGE: &str = "concurrent-ingest";

/// One read's result, as produced by the caller's `read` closure.
pub struct ConcurrentRead<R> {
    /// The epoch the read observed (from [`crate::epoch::EpochHandle::load`]).
    pub epoch: u64,
    /// The read's output.
    pub output: R,
    /// Data-derived task cost of the read (e.g. profile length).
    pub cost: f64,
}

/// One ingested update's result, as produced by the caller's `ingest` closure.
pub struct ConcurrentIngest {
    /// The epoch the update published.
    pub epoch: u64,
    /// Data-derived task cost of the update.
    pub cost: f64,
}

/// Per-read record kept in the [`ConcurrentReport`].
#[derive(Clone, Debug)]
pub struct ReadRecord {
    /// The query's position in the input list.
    pub index: usize,
    /// The epoch the read observed.
    pub epoch: u64,
    /// Wall-clock latency of this read.
    pub latency: Duration,
}

/// Per-update record kept in the [`ConcurrentReport`].
#[derive(Clone, Debug)]
pub struct IngestRecord {
    /// The update's position in the update sequence.
    pub index: usize,
    /// The epoch this update published.
    pub epoch: u64,
    /// Wall-clock latency of applying (and publishing) this update.
    pub latency: Duration,
}

/// What a [`ConcurrentStage`] run observed: one record per read (in query order) and
/// one per ingested update (in update order).
#[derive(Clone, Debug, Default)]
pub struct ConcurrentReport {
    /// Per-read records, in query order.
    pub reads: Vec<ReadRecord>,
    /// Per-update records, in update order.
    pub ingests: Vec<IngestRecord>,
}

impl ConcurrentReport {
    /// The `p`-th percentile (0.0–1.0) of read latencies, by the nearest-rank method.
    /// Returns `Duration::ZERO` when no reads were recorded.
    pub fn read_latency_percentile(&self, p: f64) -> Duration {
        let mut latencies: Vec<Duration> = self.reads.iter().map(|r| r.latency).collect();
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        latencies.sort_unstable();
        let rank = ((p.clamp(0.0, 1.0) * latencies.len() as f64).ceil() as usize)
            .clamp(1, latencies.len());
        latencies[rank - 1]
    }

    /// The p99 of read latencies (see [`ConcurrentReport::read_latency_percentile`]).
    pub fn read_p99(&self) -> Duration {
        self.read_latency_percentile(0.99)
    }

    /// The set of distinct epochs observed by reads, ascending.
    pub fn observed_epochs(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = self.reads.iter().map(|r| r.epoch).collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }
}

/// The serve-while-updating driver. See the [module docs](self).
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentStage {
    readers: usize,
}

impl ConcurrentStage {
    /// Creates a driver with the given number of reader threads (at least 1). The
    /// ingest worker always runs on the calling thread, concurrent with the readers.
    pub fn new(readers: usize) -> Self {
        ConcurrentStage {
            readers: readers.max(1),
        }
    }

    /// The number of reader threads.
    pub fn readers(&self) -> usize {
        self.readers
    }

    /// Runs the interleave: reader threads drain `queries` (claiming indices from a
    /// shared cursor) while the calling thread applies updates `0..n_updates` in
    /// order. Returns the read outputs **in query order** plus the observation
    /// report, and records both sides in `flow`'s ledgers under
    /// [`CONCURRENT_READ_STAGE`] / [`CONCURRENT_INGEST_STAGE`].
    ///
    /// `read` must be safe to call concurrently with `ingest` — that is the whole
    /// point; the epoch handle provides the required publication discipline.
    pub fn run<Q, R, F, G>(
        &self,
        flow: &Dataflow,
        queries: &[Q],
        read: F,
        n_updates: usize,
        mut ingest: G,
    ) -> (Vec<R>, ConcurrentReport)
    where
        Q: Sync,
        R: Send,
        F: Fn(usize, &Q) -> ConcurrentRead<R> + Sync,
        G: FnMut(usize) -> ConcurrentIngest,
    {
        let n = queries.len();
        let cursor = AtomicUsize::new(0);
        let mut outputs: Vec<Option<R>> = Vec::with_capacity(n);
        outputs.resize_with(n, || None);
        let outputs_ptr = SendPtr(outputs.as_mut_ptr());
        let mut records: Vec<Option<ReadRecord>> = Vec::with_capacity(n);
        records.resize_with(n, || None);
        let records_ptr = SendPtr(records.as_mut_ptr());
        let mut costs: Vec<f64> = vec![0.0; n];
        let costs_ptr = SendPtr(costs.as_mut_ptr());

        let start = Stopwatch::start();
        let read_elapsed = Mutex::new(Duration::ZERO);
        let mut ingests = Vec::with_capacity(n_updates);
        let mut ingest_costs = Vec::with_capacity(n_updates);
        let mut ingest_elapsed = Duration::ZERO;

        std::thread::scope(|scope| {
            for _ in 0..self.readers.min(n.max(1)) {
                let cursor = &cursor;
                let read = &read;
                let read_elapsed = &read_elapsed;
                scope.spawn(move || {
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let begin = Stopwatch::start();
                        let result = read(idx, &queries[idx]);
                        let latency = begin.elapsed();
                        // SAFETY: each index is claimed by exactly one reader
                        // (fetch_add is unique per idx), all three vectors were
                        // pre-sized to n, and the scope joins readers before the
                        // vectors are consumed.
                        unsafe {
                            *outputs_ptr.slot(idx) = Some(result.output);
                            *records_ptr.slot(idx) = Some(ReadRecord {
                                index: idx,
                                epoch: result.epoch,
                                latency,
                            });
                            *costs_ptr.slot(idx) = result.cost;
                        }
                    }
                    let elapsed = start.elapsed();
                    let mut max = read_elapsed
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if elapsed > *max {
                        *max = elapsed;
                    }
                });
            }

            // The ingest worker: the calling thread, concurrent with the readers.
            let ingest_start = Stopwatch::start();
            for update_ix in 0..n_updates {
                let begin = Stopwatch::start();
                let applied = ingest(update_ix);
                ingests.push(IngestRecord {
                    index: update_ix,
                    epoch: applied.epoch,
                    latency: begin.elapsed(),
                });
                ingest_costs.push(applied.cost);
            }
            ingest_elapsed = ingest_start.elapsed();
        });

        let read_duration = *read_elapsed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        flow.record_external(CONCURRENT_READ_STAGE, read_duration, costs);
        flow.record_external(CONCURRENT_INGEST_STAGE, ingest_elapsed, ingest_costs);

        let report = ConcurrentReport {
            reads: records
                .into_iter()
                .map(|r| r.expect("every query index produced a record")) // lint: panic — reviewed invariant
                .collect(),
            ingests,
        };
        let outputs = outputs
            .into_iter()
            .map(|o| o.expect("every query index produced an output")) // lint: panic — reviewed invariant
            .collect();
        (outputs, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochHandle;
    use std::sync::Arc;

    fn run_counter_interleave(readers: usize, queries: usize, updates: usize) {
        let flow = Dataflow::new(readers, 8);
        let handle = EpochHandle::new(Arc::new(0u64), 0);
        let query_ids: Vec<usize> = (0..queries).collect();
        let stage = ConcurrentStage::new(readers);
        let (outputs, report) = stage.run(
            &flow,
            &query_ids,
            |_ix, &q| {
                let (epoch, value) = handle.load();
                ConcurrentRead {
                    epoch,
                    output: (q, epoch, *value),
                    cost: 1.0 + q as f64,
                }
            },
            updates,
            |ix| {
                let epoch = handle.publish(Arc::new(ix as u64 + 1));
                ConcurrentIngest { epoch, cost: 2.0 }
            },
        );

        assert_eq!(outputs.len(), queries);
        for (ix, &(q, epoch, value)) in outputs.iter().enumerate() {
            assert_eq!(q, ix, "outputs must come back in query order");
            assert_eq!(epoch, value, "read observed a torn epoch/value pair");
        }
        assert_eq!(report.reads.len(), queries);
        assert_eq!(report.ingests.len(), updates);
        for (ix, ingest) in report.ingests.iter().enumerate() {
            assert_eq!(ingest.epoch, ix as u64 + 1, "publishes must be in order");
        }
        // Cost bags are data-derived and deterministic regardless of interleave.
        let read_costs = flow.stage_costs(CONCURRENT_READ_STAGE).unwrap();
        let expect: Vec<f64> = (0..queries).map(|q| 1.0 + q as f64).collect();
        assert_eq!(read_costs, expect);
        if updates == 0 {
            // An empty cost bag leaves no task bag to replay.
            assert!(flow.stage_costs(CONCURRENT_INGEST_STAGE).is_none());
        } else {
            let ingest_costs = flow.stage_costs(CONCURRENT_INGEST_STAGE).unwrap();
            assert_eq!(ingest_costs, vec![2.0; updates]);
        }
        assert!(flow
            .reports()
            .iter()
            .any(|r| r.name == CONCURRENT_READ_STAGE));
        assert!(flow
            .reports()
            .iter()
            .any(|r| r.name == CONCURRENT_INGEST_STAGE));
    }

    #[test]
    fn interleave_is_consistent_at_1_2_and_8_readers() {
        for readers in [1usize, 2, 8] {
            run_counter_interleave(readers, 200, 10);
        }
    }

    #[test]
    fn no_updates_still_drains_all_queries() {
        run_counter_interleave(2, 50, 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut report = ConcurrentReport::default();
        for ms in 1..=100u64 {
            report.reads.push(ReadRecord {
                index: ms as usize - 1,
                epoch: 0,
                latency: Duration::from_millis(ms),
            });
        }
        assert_eq!(report.read_p99(), Duration::from_millis(99));
        assert_eq!(
            report.read_latency_percentile(0.5),
            Duration::from_millis(50)
        );
        assert_eq!(
            report.read_latency_percentile(1.0),
            Duration::from_millis(100)
        );
        assert_eq!(ConcurrentReport::default().read_p99(), Duration::ZERO);
    }

    #[test]
    fn observed_epochs_are_sorted_and_deduped() {
        let mut report = ConcurrentReport::default();
        for &e in &[3u64, 1, 3, 2, 1] {
            report.reads.push(ReadRecord {
                index: 0,
                epoch: e,
                latency: Duration::ZERO,
            });
        }
        assert_eq!(report.observed_epochs(), vec![1, 2, 3]);
    }
}
