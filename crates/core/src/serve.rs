//! Batched recommendation serving on the `Stage`/`Dataflow` engine.
//!
//! Online top-N serving is the recommendation phase of X-Map (PNSA/PNCF for the private
//! modes, Algorithms 4–5) applied to a *batch* of AlterEgo profiles. [`RecommendStage`]
//! runs one [`ServeBatch`] through the same partition-and-replay discipline the extender
//! uses: request positions are hash-partitioned, every partition is one pool task whose
//! scratch (the dense profile lookup of the item-based modes; the per-user Equation 1
//! and per-item Equation 2 accumulators of the user-based ones) is checked out of the
//! model's shared [`ScratchPool`] — so the warmed buffers are reused not just across a
//! partition's profiles but across *batches* — and one *data-derived* task cost per
//! partition is recorded in the dataflow ledger so the cluster simulator can replay the
//! serving workload exactly like the extension workload.
//!
//! The batch borrows its profiles (`&[Profile]`): callers serving the same request set
//! repeatedly (benchmarks, the concurrent-serve driver) no longer clone every profile
//! per batch.
//!
//! Determinism contract: partition assignment hashes the request position and every
//! profile's computation is independent (private noise is seeded per `(model seed,
//! item)`), so the stage's output is **bit-identical** to calling
//! [`ProfileRecommender::recommend_for_profile`] once per profile, at any worker count
//! and regardless of how scratch buffers were warmed by earlier batches
//! (every buffer of a [`crate::recommend::ProfileScratch`] is invalidated by an epoch
//! bump, and re-sized to the matrix, at each use).

use crate::recommend::{ProfileRecommender, ScratchPool};
use xmap_cf::knn::Profile;
use xmap_cf::ItemId;
use xmap_engine::{Stage, StageContext};

/// A batch of top-N recommendation requests, one per AlterEgo profile.
///
/// Borrows the profile slice — building a batch is free, and repeated serving of the
/// same request set shares one allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeBatch<'p> {
    /// The profiles to serve, in request order.
    pub profiles: &'p [Profile],
    /// How many recommendations each request receives.
    pub n: usize,
}

impl<'p> ServeBatch<'p> {
    /// Builds a batch serving `n` recommendations per profile.
    pub fn new(profiles: &'p [Profile], n: usize) -> Self {
        ServeBatch { profiles, n }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// Stage name under which serving costs appear in the dataflow ledger.
pub const RECOMMEND_STAGE_NAME: &str = "recommend";

/// The batched recommendation stage: top-N for every profile of a [`ServeBatch`].
pub struct RecommendStage<'r> {
    recommender: &'r (dyn ProfileRecommender + Send + Sync),
    scratch: &'r ScratchPool,
}

impl<'r> RecommendStage<'r> {
    /// Wraps a fitted recommender for batched serving, drawing per-partition scratch
    /// from `scratch` so dense buffers persist across batches.
    pub fn new(
        recommender: &'r (dyn ProfileRecommender + Send + Sync),
        scratch: &'r ScratchPool,
    ) -> Self {
        RecommendStage {
            recommender,
            scratch,
        }
    }
}

impl<'p> Stage<ServeBatch<'p>> for RecommendStage<'_> {
    type Out = Vec<Vec<(ItemId, f64)>>;

    fn name(&self) -> &'static str {
        RECOMMEND_STAGE_NAME
    }

    fn run(&self, batch: ServeBatch<'p>, cx: &mut StageContext<'_>) -> Vec<Vec<(ItemId, f64)>> {
        let n = batch.n;
        let all = batch.profiles;
        // Partition by request *position* (the profiles stay borrowed in place); each
        // partition is one pool task.
        let positions: Vec<usize> = (0..all.len()).collect();
        cx.map_items_ordered(positions, |_ix, part| {
            // One sub-batch per partition (a hash-scattered subset of request
            // positions). The scratch checked out here carries warmed dense buffers
            // from earlier batches; `recommend_batch_with_scratch` reuses it across
            // the partition's profiles and is bit-identical to per-profile calls by
            // contract.
            let profiles: Vec<&Profile> = part.iter().map(|&(_, pos)| &all[pos]).collect();
            let mut scratch = self.scratch.checkout();
            let outs = self
                .recommender
                .recommend_batch_with_scratch(&profiles, n, &mut scratch);
            self.scratch.give_back(scratch);
            // Serving work scales with profile size (candidate generation fans out from
            // every profile item); "+1" keeps empty profiles from being free so the
            // simulated cluster still pays their per-request overhead.
            let cost: f64 = profiles.iter().map(|p| 1.0 + p.len() as f64).sum();
            (outs, cost)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommend::tests::{all_modes, target_matrix};
    use crate::recommend::ItemBasedRecommender;
    use xmap_cf::knn::profile_from_pairs;
    use xmap_engine::Dataflow;

    fn profiles() -> Vec<Profile> {
        (0..20u32)
            .map(|s| {
                profile_from_pairs([
                    (ItemId(s % 6), 5.0 - (s % 4) as f64),
                    (ItemId((s + 2) % 6), 1.0 + (s % 5) as f64),
                ])
            })
            .collect()
    }

    #[test]
    fn serve_batch_matches_per_profile_reference_at_any_worker_count() {
        // Every mode, through scratches a *different* batch warmed first: the
        // user-based accumulators live in the pooled scratch too, and a slot left
        // over from another profile would show exactly here.
        let warm_up: Vec<Profile> = (0..24u32)
            .map(|s| {
                profile_from_pairs((0..1 + s % 6).map(|j| {
                    let rating = 1.0 + f64::from((s + 2 * j) % 5);
                    (ItemId((s + 5 * j) % 6), rating)
                }))
            })
            .collect();
        let requests = profiles();
        for rec in all_modes() {
            let rec = rec.as_ref();
            let pool = ScratchPool::new();
            Dataflow::new(8, 8).run(
                &RecommendStage::new(rec, &pool),
                ServeBatch::new(&warm_up, 5),
            );
            assert!(pool.available() > 0, "the warm-up parks its scratches");
            let reference: Vec<Vec<(ItemId, f64)>> = requests
                .iter()
                .map(|p| rec.recommend_for_profile(p, 3))
                .collect();
            let mut reference_costs = None;
            for workers in [1usize, 2, 8] {
                let flow = Dataflow::new(workers, 8);
                let out = flow.run(
                    &RecommendStage::new(rec, &pool),
                    ServeBatch::new(&requests, 3),
                );
                assert_eq!(
                    out,
                    reference,
                    "{}: {workers} workers changed served output",
                    rec.label()
                );
                let costs = flow
                    .stage_costs(RECOMMEND_STAGE_NAME)
                    .expect("serving records task costs");
                assert_eq!(costs.len(), 8, "one task cost per partition");
                match &reference_costs {
                    None => reference_costs = Some(costs),
                    Some(expected) => {
                        assert_eq!(&costs, expected, "{workers} workers changed task costs")
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_pool_reuse_across_batches_is_bit_identical() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let pool = ScratchPool::new();
        let requests = profiles();
        let flow = Dataflow::new(2, 4);
        let first = flow.run(
            &RecommendStage::new(&rec, &pool),
            ServeBatch::new(&requests, 3),
        );
        assert!(
            pool.available() > 0,
            "serving parks warmed scratches back in the pool"
        );
        // Second batch re-checks out the warmed scratches; epoch invalidation makes
        // the reuse invisible in the outputs.
        let second = flow.run(
            &RecommendStage::new(&rec, &pool),
            ServeBatch::new(&requests, 3),
        );
        assert_eq!(first, second, "warmed scratch changed served output");
    }

    #[test]
    fn serve_costs_cover_every_request() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let pool = ScratchPool::new();
        let flow = Dataflow::new(2, 4);
        let requests = profiles();
        let batch = ServeBatch::new(&requests, 2);
        let expected_cost: f64 = batch.profiles.iter().map(|p| 1.0 + p.len() as f64).sum();
        assert_eq!(batch.len(), 20);
        assert!(!batch.is_empty());
        let _ = flow.run(&RecommendStage::new(&rec, &pool), batch);
        let costs = flow.stage_costs(RECOMMEND_STAGE_NAME).unwrap();
        assert!((costs.iter().sum::<f64>() - expected_cost).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_serves_nothing() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let pool = ScratchPool::new();
        let flow = Dataflow::new(2, 4);
        let out = flow.run(&RecommendStage::new(&rec, &pool), ServeBatch::default());
        assert!(out.is_empty());
    }
}
