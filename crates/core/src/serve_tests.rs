//! The gates of batched serving: `XMapModel::serve_profiles` is `pipeline::serve_on`
//! over the served epoch's recommender, and `serve_on` is held here to the per-profile
//! read — in every mode, at any worker count, whatever warmed the serving thread's
//! scratch before.

#[cfg(test)]
mod tests {
    use crate::pipeline::{serve_on, RECOMMEND_STAGE_NAME};
    use crate::recommend::tests::{all_modes, all_modes_on, target_matrix};
    use crate::recommend::ItemBasedRecommender;
    use xmap_cf::knn::{profile_from_pairs, Profile};
    use xmap_cf::{ItemId, RatingMatrix, RatingMatrixBuilder};
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

    /// 24 profiles of one to six items over a catalogue of `n_items`.
    fn warm_up_profiles(n_items: u32) -> Vec<Profile> {
        (0..24u32)
            .map(|s| {
                profile_from_pairs((0..1 + s % 6).map(|j| {
                    let rating = 1.0 + f64::from((s + 2 * j) % 5);
                    (ItemId((s + 5 * j) % n_items), rating)
                }))
            })
            .collect()
    }

    /// A dense-ish matrix of `n_users` × `n_items` with varied ratings.
    fn matrix_of(n_users: u32, n_items: u32) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        for u in 0..n_users {
            for i in (0..n_items).filter(|i| (u + i) % 3 != 0) {
                b.push_parts(u, i, f64::from(1 + (u * 7 + i * 3) % 5))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn serve_batch_matches_per_profile_reference_at_any_worker_count() {
        // Every mode, on a thread whose scratch something else warmed first — one worker
        // runs a batch inline, on the calling thread's scratch: a *different* batch of the
        // same model, then the models of a larger and of a smaller matrix (the
        // user-based accumulators live in the scratch too; a slot left over from another
        // profile, or a length left over from another matrix, would show exactly here).
        let inline = Dataflow::new(1, 8);
        let warmers = [
            (all_modes(), warm_up_profiles(6)),
            (all_modes_on(matrix_of(40, 30)), warm_up_profiles(30)),
            (all_modes_on(matrix_of(3, 2)), warm_up_profiles(2)),
        ];
        let requests = profiles();
        for rec in all_modes() {
            let rec = rec.as_ref();
            // The reference answers one profile at a time on a thread of its own: a cold
            // scratch, whatever this thread served before.
            let reference: Vec<Vec<(ItemId, f64)>> = std::thread::scope(|scope| {
                let cold = scope.spawn(|| {
                    let read = |p| rec.recommend_for_profile(p, 3);
                    requests.iter().map(read).collect()
                });
                cold.join().unwrap()
            });
            let mut reference_costs = None;
            for (warm_recs, warm_up) in &warmers {
                for warm_rec in warm_recs {
                    let served = serve_on(&inline, warm_rec.as_ref(), warm_up, 5);
                    assert_eq!(served.len(), warm_up.len());
                }
                for workers in [1usize, 2, 8] {
                    let flow = Dataflow::new(workers, 8);
                    let out = serve_on(&flow, rec, &requests, 3);
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
    }

    #[test]
    fn scratch_pool_reuse_across_batches_is_bit_identical() {
        // The pool is the thread's one scratch now: with one worker both batches run on
        // this thread's, with two on scratches that die with each batch's workers.
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let requests = profiles();
        for workers in [1usize, 2] {
            let flow = Dataflow::new(workers, 4);
            let first = serve_on(&flow, &rec, &requests, 3);
            // Invalidation at every use makes the reuse invisible in the outputs.
            let second = serve_on(&flow, &rec, &requests, 3);
            assert_eq!(first, second, "warmed scratch changed served output");
        }
    }

    #[test]
    fn serve_costs_cover_every_request() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let flow = Dataflow::new(2, 4);
        let requests = profiles();
        let expected_cost: f64 = requests.iter().map(|p| 1.0 + p.len() as f64).sum();
        assert_eq!(requests.len(), 20);
        let out = serve_on(&flow, &rec, &requests, 2);
        assert_eq!(out.len(), 20);
        let costs = flow.stage_costs(RECOMMEND_STAGE_NAME).unwrap();
        assert!((costs.iter().sum::<f64>() - expected_cost).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_serves_nothing() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let flow = Dataflow::new(2, 4);
        let out = serve_on(&flow, &rec, &[], 3);
        assert!(out.is_empty());
    }
}
