//! A small work-stealing worker pool for embarrassingly parallel map stages.
//!
//! Every computationally heavy phase of X-Map (baseline similarity computation, layer
//! extension, AlterEgo generation, per-user recommendation) is a pure function applied
//! independently to each element of a collection. [`WorkerPool::parallel_map`] runs such
//! a function across `workers` scoped threads (`std::thread::scope`) that pull indices
//! from a shared atomic counter — the simplest form of dynamic load balancing, adequate
//! because individual tasks are small and numerous.

use crate::sync::{AtomicUsize, Ordering};

/// A fixed-size worker pool. The pool owns no threads between calls; threads are scoped
/// to each `parallel_map` invocation, so the pool is trivially `Send + Sync` and cheap to
/// create.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool with the given number of workers (at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every element of `items` and returns the results in input order.
    ///
    /// With a single worker the map runs inline on the calling thread (no thread spawn
    /// overhead), which also makes single-core CI environments behave deterministically.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.parallel_map_indexed(items, |_, item| f(item))
    }

    /// Like [`WorkerPool::parallel_map`] but also passes the element index to `f`.
    pub fn parallel_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.for_each_mut(&mut results, |idx, slot| *slot = Some(f(idx, &items[idx])));
        results
            .into_iter()
            .map(|r| r.expect("every index was processed")) // lint: panic — reviewed invariant
            .collect()
    }

    /// Applies `f` to every element of `items` in place, each element on exactly one
    /// worker, with its index — the disjoint-`&mut` form of
    /// [`WorkerPool::parallel_map_indexed`], which is this over its output slots.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            items.iter_mut().enumerate().for_each(|(i, t)| f(i, t));
            return;
        }
        let cursor = AtomicUsize::new(0);
        let items_ptr = SendPtr(items.as_mut_ptr());

        std::thread::scope(|scope| {
            let spawn_worker = |_| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || loop {
                    // Pure index dispenser: fetch_add uniqueness is all that is
                    // needed; no data is published through the cursor.
                    // lint: ordering
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    // SAFETY: each index is claimed by exactly one worker (fetch_add is
                    // unique per idx), `idx < n` keeps it inside the slice, and the
                    // scope ends every worker before the borrow of `items` does.
                    f(idx, unsafe { &mut *items_ptr.slot(idx) });
                })
            };
            // Joined by handle, not left to the scope, which waits for the workers'
            // closures only: a worker still exiting when the next map spawns its
            // threads holds on to its allocator arena, the new threads open fresh
            // ones, and resident memory grows with every back-to-back pair of maps.
            let workers: Vec<_> = (0..self.workers.min(n)).map(spawn_worker).collect();
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
}

/// A raw pointer wrapper that is `Send`/`Copy` so scoped workers can write disjoint slots.
/// Accessing the pointer goes through [`SendPtr::slot`] so closures capture the whole
/// wrapper (and its `Send` impl) rather than the raw pointer field.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to the `idx`-th slot.
    ///
    /// # Safety
    /// The caller must ensure `idx` is in bounds of the allocation and that no other
    /// thread accesses the same slot concurrently.
    unsafe fn slot(self, idx: usize) -> *mut T {
        self.0.add(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn map_preserves_order_and_values() {
        let pool = WorkerPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let out = pool.parallel_map(&input, |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_map_passes_correct_indices() {
        let pool = WorkerPool::new(3);
        let input = vec!["a", "b", "c", "d"];
        let out = pool.parallel_map_indexed(&input, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let pool = WorkerPool::new(8);
        let out: Vec<u32> = pool.parallel_map(&Vec::<u32>::new(), |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 1);
        let out = pool.parallel_map(&[1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn for_each_mut_visits_every_element_once_in_place() {
        for workers in [1, 2, 8] {
            let mut items: Vec<(usize, u32)> = (0..100).map(|i| (i, 0)).collect();
            WorkerPool::new(workers).for_each_mut(&mut items, |idx, (i, visits)| {
                assert_eq!(idx, *i);
                *visits += 1;
            });
            assert!(
                items.iter().all(|&(_, visits)| visits == 1),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn results_match_sequential_for_expensive_closure() {
        let pool = WorkerPool::new(4);
        let input: Vec<u64> = (0..200).collect();
        let expensive = |x: &u64| -> u64 {
            // small busy work so threads interleave
            (0..100).fold(*x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let parallel = pool.parallel_map(&input, expensive);
        let sequential: Vec<u64> = input.iter().map(expensive).collect();
        assert_eq!(parallel, sequential);
    }

    proptest! {
        /// Parallel map equals sequential map for arbitrary inputs and worker counts.
        #[test]
        fn equivalent_to_sequential(input in proptest::collection::vec(0i64..1000, 0..300), workers in 1usize..8) {
            let pool = WorkerPool::new(workers);
            let parallel = pool.parallel_map(&input, |x| x * x - 3);
            let sequential: Vec<i64> = input.iter().map(|x| x * x - 3).collect();
            prop_assert_eq!(parallel, sequential);
        }
    }
}
