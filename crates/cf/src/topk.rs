//! Top-k selection utilities.
//!
//! Every phase of the paper ("top-k neighbours", "top-k similar items per layer",
//! "top-N recommendations") boils down to keeping the k largest-scored candidates.
//! [`TopK`] is a small bounded min-heap keyed by an `f64` score that tolerates NaN-free
//! floating point scores and returns its content sorted by descending score. All score
//! comparisons use the total order ([`f64::total_cmp`]) with an explicit `u64` key as
//! the tie-break (lower key wins), so the retained set and its output order are pure
//! functions of the offered `(score, key, payload)` *set* — never of heap internals, of
//! a NaN comparing `Equal` to everything, or of the order the offers arrived in.
//! [`TopK::push`] keys each offer by its insertion sequence number, which makes
//! "first offered wins ties" the special case of offers arriving in key order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the bounded heap: ordered so the heap root is the current eviction
/// candidate — the lowest score, ties resolved towards the *highest* key so that
/// lower-keyed offers survive deterministically.
#[derive(Clone, Copy, Debug)]
struct HeapEntry<T> {
    score: f64,
    /// The tie-break for equal scores: the lower key ranks first.
    key: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on the score: BinaryHeap is a max-heap, we want the minimum score at
        // the root. Equal scores rank the higher key closer to the root, so ties evict
        // the highest key first and the k lowest-keyed equal-scored offers are retained.
        other
            .score
            .total_cmp(&self.score)
            .then(self.key.cmp(&other.key))
    }
}

/// Bounded collection retaining the `k` highest-scored payloads.
#[derive(Clone, Debug)]
pub struct TopK<T> {
    k: usize,
    next_seq: u64,
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> TopK<T> {
    /// Creates a collector for the `k` best items. `k == 0` collects nothing. The heap
    /// reserves at most 1,024 slots up front and grows past them on demand, so a
    /// caller's `k` never sizes an allocation.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            next_seq: 0,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(1024)),
        }
    }

    /// Offers a candidate. Non-finite scores are ignored. A candidate scoring equal to
    /// the current k-th entry does not displace it (first-offered wins ties): this is
    /// `push_keyed` with the running sequence number as the key.
    pub fn push(&mut self, score: f64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(score, seq, payload);
    }

    /// Offers a candidate with an explicit tie-break key: of equal scores the lower key
    /// ranks first. With keys that are unique per offer (a user id, an item id) the
    /// result is the same whatever order the offers arrive in. Non-finite scores are
    /// ignored. A collector is fed through this method or through
    /// [`push`](Self::push), not both — their keys would not be comparable.
    fn push_keyed(&mut self, score: f64, key: u64, payload: T) {
        if self.k == 0 || !score.is_finite() {
            return;
        }
        let entry = HeapEntry {
            score,
            key,
            payload,
        };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut min) = self.heap.peek_mut() {
            // `Less` in heap order = further from the root = ranks above the weakest
            if entry < *min {
                *min = entry;
            }
        }
    }

    /// Number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current k-th (smallest retained) score, if the collector is full.
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|e| e.score)
        } else {
            None
        }
    }

    /// The tie-break keys of the retained candidates, in no particular order — for a
    /// caller that needs the retained *set* and keyed its offers by what it wants back.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.heap.iter().map(|e| e.key)
    }

    /// Consumes the collector and returns `(score, payload)` pairs sorted by descending
    /// score (ties in ascending key — offer order under [`push`](Self::push)), using the
    /// total order on scores — the output never depends on the heap's internal layout or
    /// on the order equal-scored candidates happened to be stored in.
    pub fn into_sorted_vec(self) -> Vec<(f64, T)> {
        let mut v: Vec<(f64, u64, T)> = self
            .heap
            .into_iter()
            .map(|e| (e.score, e.key, e.payload))
            .collect();
        v.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        v.into_iter().map(|(score, _, p)| (score, p)).collect()
    }
}

/// Convenience: select the top-k of an iterator of `(score, payload)` pairs.
pub fn top_k<T>(k: usize, iter: impl IntoIterator<Item = (f64, T)>) -> Vec<(f64, T)> {
    let mut collector = TopK::new(k);
    for (score, payload) in iter {
        collector.push(score, payload);
    }
    collector.into_sorted_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_the_k_largest() {
        let scores = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0];
        let got = top_k(3, scores.iter().enumerate().map(|(i, &s)| (s, i)));
        let got_scores: Vec<f64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(got_scores, vec![9.0, 5.0, 4.0]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let got = top_k(0, [(1.0, "a"), (2.0, "b")]);
        assert!(got.is_empty());
        let mut c = TopK::new(0);
        c.push(5.0, ());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn fewer_candidates_than_k_returns_all_sorted() {
        let got = top_k(10, [(1.0, "a"), (3.0, "b"), (2.0, "c")]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].1, "b");
        assert_eq!(got[2].1, "a");
    }

    #[test]
    fn nan_and_infinite_scores_are_ignored() {
        let got = top_k(5, [(f64::NAN, 0), (f64::INFINITY, 1), (2.0, 2), (1.0, 3)]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (2.0, 2));
    }

    #[test]
    fn threshold_reports_kth_score_only_when_full() {
        let mut c = TopK::new(2);
        assert_eq!(c.threshold(), None);
        c.push(1.0, ());
        assert_eq!(c.threshold(), None);
        c.push(5.0, ());
        assert_eq!(c.threshold(), Some(1.0));
        c.push(3.0, ());
        assert_eq!(c.threshold(), Some(3.0));
    }

    #[test]
    fn nan_poisoned_streams_keep_a_deterministic_order() {
        // Regression: the sort used to compare with `partial_cmp(..).unwrap_or(Equal)`,
        // under which a NaN compares Equal to everything and the output order (and thus
        // the top-N cut) depended on where the NaN sat in the input. NaNs must be
        // dropped and the surviving order must be a pure function of the finite offers.
        let finite = [(2.0, "a"), (1.0, "b"), (2.0, "c"), (0.5, "d")];
        let expected = top_k(3, finite);
        for nan_pos in 0..=finite.len() {
            let mut poisoned: Vec<(f64, &str)> = finite.to_vec();
            poisoned.insert(nan_pos, (f64::NAN, "poison"));
            let got = top_k(3, poisoned);
            assert_eq!(
                got, expected,
                "NaN at position {nan_pos} changed the top-N output"
            );
        }
    }

    #[test]
    fn equal_scores_keep_first_offered_payloads_in_offer_order() {
        // Five equal-scored offers into a k=3 collector: the first three must survive,
        // in offer order — not whichever the heap happened to keep.
        let got = top_k(
            3,
            [(1.0, "a"), (1.0, "b"), (1.0, "c"), (1.0, "d"), (1.0, "e")],
        );
        assert_eq!(got, vec![(1.0, "a"), (1.0, "b"), (1.0, "c")]);
        // a strictly better late offer still displaces the weakest tie deterministically
        let got = top_k(2, [(1.0, "a"), (1.0, "b"), (2.0, "c")]);
        assert_eq!(got, vec![(2.0, "c"), (1.0, "a")]);
    }

    #[test]
    fn negative_scores_are_supported() {
        let got = top_k(2, [(-5.0, "a"), (-1.0, "b"), (-3.0, "c")]);
        assert_eq!(got[0].1, "b");
        assert_eq!(got[1].1, "c");
    }

    /// Offers drawn from a handful of distinct scores, so ties are the common case; the
    /// payload is the offer's position, which doubles as its unique key.
    fn tied_offers(raw: &[u32]) -> Vec<(f64, u64)> {
        raw.iter()
            .enumerate()
            .map(|(pos, &r)| (f64::from(r % 5) - 2.0, pos as u64))
            .collect()
    }

    proptest! {
        /// A keyed collector's output is a function of the offered *set*: any permutation
        /// of the offers returns the same vector.
        #[test]
        fn keyed_push_is_independent_of_offer_order(
            k in 0usize..12,
            raw in proptest::collection::vec(0u32..1000, 0..60),
            shuffle_seed in any::<u64>(),
        ) {
            let offers = tied_offers(&raw);
            let collect = |offers: &[(f64, u64)]| {
                let mut c = TopK::new(k);
                for &(score, key) in offers {
                    c.push_keyed(score, key, key);
                }
                c.into_sorted_vec()
            };
            let mut shuffled = offers.clone();
            let mut rng = TestRng::from_name(&shuffle_seed.to_string());
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mut reversed = offers.clone();
            reversed.reverse();
            let expect = collect(&offers);
            prop_assert_eq!(collect(&shuffled), expect.clone());
            prop_assert_eq!(collect(&reversed), expect);
        }

        /// `push` is the keyed push with the offer position as key.
        #[test]
        fn ascending_keys_reproduce_push(
            k in 0usize..12,
            raw in proptest::collection::vec(0u32..1000, 0..60),
        ) {
            let offers = tied_offers(&raw);
            let mut keyed = TopK::new(k);
            for &(score, key) in &offers {
                keyed.push_keyed(score, key, key);
            }
            prop_assert_eq!(keyed.into_sorted_vec(), top_k(k, offers));
        }

        /// The collector returns exactly the k largest values of the input (as a multiset).
        #[test]
        fn matches_full_sort(k in 0usize..20, values in proptest::collection::vec(-100.0f64..100.0, 0..200)) {
            let got: Vec<f64> = top_k(k, values.iter().map(|&v| (v, ()))).into_iter().map(|(s, _)| s).collect();
            let mut expect = values.clone();
            expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
            expect.truncate(k);
            prop_assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(expect.iter()) {
                prop_assert!((g - e).abs() < 1e-12);
            }
        }

        /// Output is always sorted descending.
        #[test]
        fn output_sorted_descending(k in 1usize..10, values in proptest::collection::vec(-1.0f64..1.0, 0..100)) {
            let got = top_k(k, values.iter().map(|&v| (v, ())));
            for w in got.windows(2) {
                prop_assert!(w[0].0 >= w[1].0);
            }
        }
    }
}
