//! Throughput of the batched recommendation serving path.
//!
//! Two implementations of the same top-N workload on the private user-based
//! recommender (X-Map-ub):
//!
//! * `per_call_pooled` — the per-profile path: one pool scan per profile, reused across
//!   every candidate.
//! * `batched_stage` — the [`RecommendStage`] run by the `Dataflow` engine, which adds
//!   partition-level scratch reuse and (with more workers) parallel partitions.
//!
//! Both release bit-identical outputs (asserted before timing), so the measured gap is
//! pure serving-path cost; the tracked single-call number is the benchmark's
//! `core.recommend.x_ub.recommend_us`. A secondary group benches the item-based batched
//! path against its per-call form (dense-scratch reuse across a batch).
//!
//! Setting `XMAP_BENCH_SMOKE=1` shrinks the batch and sample counts so CI can execute
//! the bench as a smoke test in seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use xmap_bench::{amazon_like, Scale};
use xmap_cf::knn::{profile_from_pairs, Profile};
use xmap_cf::{DomainId, ItemId, RatingMatrix};
use xmap_core::recommend::{
    PrivateItemBasedRecommender, PrivateUserBasedRecommender, ProfileRecommender,
};
use xmap_core::{RecommendStage, ScratchPool, ServeBatch};
use xmap_engine::Dataflow;
use xmap_privacy::PrivacyBudget;

const TOP_N: usize = 10;
const EPSILON_PRIME: f64 = 0.8;

fn smoke() -> bool {
    std::env::var("XMAP_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn target_matrix() -> RatingMatrix {
    let ds = amazon_like(Scale::Quick);
    ds.matrix
        .filter(|r| ds.matrix.item_domain(r.item) == DomainId::TARGET)
        .expect("the trace has target-domain ratings")
}

/// Synthetic AlterEgo-like profiles over the target catalogue.
fn profiles(target: &RatingMatrix, count: usize) -> Vec<Profile> {
    let n_items = target.n_items() as u32;
    (0..count as u32)
        .map(|s| {
            profile_from_pairs((0..6u32).map(|j| {
                let item = ItemId((s.wrapping_mul(37) + j * 11) % n_items);
                (item, 1.0 + ((s + j) % 5) as f64)
            }))
        })
        .collect()
}

fn bench_user_based_serving(c: &mut Criterion) {
    let target = target_matrix();
    let batch_size = if smoke() { 8 } else { 40 };
    let batch = profiles(&target, batch_size);
    let rec = PrivateUserBasedRecommender::fit(
        target.clone(),
        10,
        EPSILON_PRIME,
        0.05,
        42,
        &mut PrivacyBudget::new(EPSILON_PRIME),
    )
    .unwrap();

    // Both paths must release the same bits before their speeds mean anything.
    let reference: Vec<Vec<(ItemId, f64)>> = batch
        .iter()
        .map(|p| rec.recommend_for_profile(p, TOP_N))
        .collect();
    let pool = ScratchPool::new();
    let flow = Dataflow::new(1, 16);
    let batched = flow.run(
        &RecommendStage::new(&rec, &pool),
        ServeBatch::new(&batch, TOP_N),
    );
    assert_eq!(batched, reference, "batched stage diverged");

    let mut group = c.benchmark_group("serve_throughput_ub");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("per_call_pooled", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|p| rec.recommend_for_profile(p, TOP_N))
                .collect::<Vec<_>>()
        })
    });
    for workers in [1usize, 4] {
        group.bench_function(format!("batched_stage_workers_{workers}"), |b| {
            let flow = Dataflow::new(workers, 16);
            let pool = ScratchPool::new();
            b.iter(|| {
                flow.run(
                    &RecommendStage::new(&rec, &pool),
                    ServeBatch::new(&batch, TOP_N),
                )
            })
        });
    }
    group.finish();
}

fn bench_item_based_serving(c: &mut Criterion) {
    let target = target_matrix();
    let batch_size = if smoke() { 8 } else { 40 };
    let batch = profiles(&target, batch_size);
    let rec = PrivateItemBasedRecommender::fit(
        target,
        10,
        EPSILON_PRIME,
        0.05,
        0.0,
        42,
        &mut PrivacyBudget::new(EPSILON_PRIME),
    )
    .unwrap();

    let batch_refs: Vec<&Profile> = batch.iter().collect();
    let reference: Vec<Vec<(ItemId, f64)>> = batch
        .iter()
        .map(|p| rec.recommend_for_profile(p, TOP_N))
        .collect();
    assert_eq!(
        rec.recommend_batch(&batch_refs, TOP_N),
        reference,
        "item-based batch diverged"
    );

    let mut group = c.benchmark_group("serve_throughput_ib");
    group.sample_size(if smoke() { 2 } else { 10 });
    group.bench_function("per_call", |b| {
        b.iter(|| {
            batch
                .iter()
                .map(|p| rec.recommend_for_profile(p, TOP_N))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("batched_scratch_reuse", |b| {
        b.iter(|| rec.recommend_batch(&batch_refs, TOP_N))
    });
    group.finish();
}

criterion_group!(benches, bench_user_based_serving, bench_item_based_serving);
criterion_main!(benches);
