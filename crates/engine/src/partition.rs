//! Deterministic hash partitioning.
//!
//! The X-Map Spark implementation distributes items and users across executors by key
//! (Figure 4's components exchange keyed RDDs). [`Partitioner`] reproduces that unit of
//! distribution: a key is mapped to one of `p` partitions by a stable hash, so the same
//! key always lands on the same partition regardless of the number of workers processing
//! it. The cluster simulator consumes per-partition workloads produced this way.

use std::hash::{Hash, Hasher};

/// Hash partitioner over `p` partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    partitions: usize,
}

impl Partitioner {
    /// Creates a partitioner with `partitions` buckets (at least 1).
    pub fn new(partitions: usize) -> Self {
        Partitioner {
            partitions: partitions.max(1),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The partition a key belongs to.
    pub fn partition_of<K: Hash>(&self, key: &K) -> usize {
        // FNV-1a over the key's std hash output: cheap, stable within a process run, and
        // well mixed for small integer keys (user/item ids).
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let h = hasher.finish();
        let mut x = h ^ 0xcbf2_9ce4_8422_2325;
        x = x.wrapping_mul(0x1000_0000_01b3);
        x ^= x >> 33;
        (x % self.partitions as u64) as usize
    }

    /// Groups items into their partitions, returning `partitions` vectors of items.
    pub fn split_by_key<T, K: Hash>(
        &self,
        items: impl IntoIterator<Item = T>,
        key: impl Fn(&T) -> K,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.partitions).map(|_| Vec::new()).collect();
        for item in items {
            let p = self.partition_of(&key(&item));
            out[p].push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partition_assignment_is_stable() {
        let p = Partitioner::new(8);
        for key in 0u32..100 {
            assert_eq!(p.partition_of(&key), p.partition_of(&key));
            assert!(p.partition_of(&key) < 8);
        }
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        let p = Partitioner::new(0);
        assert_eq!(p.partitions(), 1);
        assert_eq!(p.partition_of(&42u64), 0);
    }

    #[test]
    fn split_by_key_preserves_all_items() {
        let p = Partitioner::new(4);
        let items: Vec<u32> = (0..100).collect();
        let parts = p.split_by_key(items.clone(), |x| *x);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|v| v.len()).sum();
        assert_eq!(total, 100);
        // every item is in the partition its key hashes to
        for (idx, part) in parts.iter().enumerate() {
            for item in part {
                assert_eq!(p.partition_of(item), idx);
            }
        }
    }

    #[test]
    fn load_is_roughly_balanced_for_many_keys() {
        let p = Partitioner::new(10);
        let sizes: Vec<usize> = p
            .split_by_key(0u32..10_000, |x| *x)
            .iter()
            .map(Vec::len)
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(min > 0, "no partition should be empty with 10k keys");
        assert!(
            (max as f64) / (min as f64) < 1.5,
            "partitions too imbalanced: {sizes:?}"
        );
    }

    proptest! {
        /// Every key maps to a valid partition and the mapping is deterministic.
        #[test]
        fn valid_and_deterministic(keys in proptest::collection::vec(any::<u64>(), 1..200), parts in 1usize..32) {
            let p = Partitioner::new(parts);
            for k in &keys {
                let a = p.partition_of(k);
                prop_assert!(a < parts);
                prop_assert_eq!(a, p.partition_of(k));
            }
        }
    }
}
