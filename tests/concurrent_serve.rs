//! The serve-while-updating gate: wait-free snapshot readers against epoch-published
//! models during delta ingestion.
//!
//! Serving while updating is two calls: readers take a wait-free
//! [`XMapModel::snapshot`] and answer from it, while `apply_delta` builds the next
//! epoch aside and publishes it with one swap. The test-local [`interleave`] driver
//! runs both at once on scoped threads. Two contracts from the epoch-publication
//! design (DESIGN.md):
//!
//! * **Interleave-transparency** — for *any* randomized schedule (random delta
//!   contents, random split into ingest batches, 1/2/8 readers), every interleaved
//!   read is bit-equal to the same read against the serialized schedule (a fresh fit
//!   plus the same deltas applied one at a time) at the read's observed epoch.
//!   Interleaving may change *which* epoch a read sees, never the bits an epoch
//!   answers with — no read ever observes a torn (half-applied) state.
//! * **Retirement** — a published epoch stays alive exactly as long as a reader holds
//!   it: snapshots taken before a delta keep answering their own epoch's bits
//!   undisturbed, and the epoch's memory is released once the last snapshot drops.
//!
//! The wall-clock side of the contract — readers never wait for a delta, so reader p99
//! during ingestion stays within 2x of idle serving — is the `#[ignore]`d test at the
//! bottom (CI: `concurrent-smoke`, `cargo test --release --test concurrent_serve --
//! --ignored`); a wall-clock assertion does not belong in tier-1.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use xmap_suite::cf::knn::Profile;
use xmap_suite::engine::Stopwatch;
use xmap_suite::prelude::*;

const READER_COUNTS: [usize; 3] = [1, 2, 8];
const TOP_N: usize = 3;
const ALL_MODES: [XMapMode; 4] = [
    XMapMode::NxMapItemBased,
    XMapMode::NxMapUserBased,
    XMapMode::XMapItemBased,
    XMapMode::XMapUserBased,
];

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig::small())
}

/// The trace of the fixed-schedule cases below: large enough that three deltas each
/// leave most of the model untouched.
fn schedule_dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig {
        n_source_items: 60,
        n_target_items: 60,
        n_source_only_users: 50,
        n_target_only_users: 50,
        n_overlap_users: 30,
        ratings_per_user: 8,
        latent_dim: 3,
        noise: 0.3,
        seed: 11,
        popularity_skew: 0.0,
    })
}

fn fit(ds: &CrossDomainDataset, mode: XMapMode) -> XMapModel {
    let config = XMapConfig {
        mode,
        k: 8,
        privacy: match mode {
            XMapMode::XMapUserBased => PrivacyConfig::user_based_default(),
            _ => PrivacyConfig::default(),
        },
        ..Default::default()
    };
    XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config)
        .expect("the trace contains both domains")
}

type AnswerBits = Vec<(ItemId, u64)>;

fn bits(answer: &[(ItemId, f64)]) -> AnswerBits {
    answer.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// `tables[e - 1][q]`: query `q`'s bit-exact answer at epoch `e` under the serialized
/// schedule — fresh fit (epoch 1), then one `apply_delta` per batch.
fn serialized_reference(
    ds: &CrossDomainDataset,
    mode: XMapMode,
    updates: &[RatingDelta],
    requests: &[Profile],
) -> Vec<Vec<AnswerBits>> {
    let model = fit(ds, mode);
    let answers = |m: &XMapModel| -> Vec<AnswerBits> {
        let (_, snap) = m.snapshot();
        requests
            .iter()
            .map(|p| bits(&snap.recommend_for_profile(p, TOP_N)))
            .collect()
    };
    let mut tables = vec![answers(&model)];
    for delta in updates {
        model
            .apply_delta(delta)
            .expect("the serialized reference applies every delta");
        tables.push(answers(&model));
    }
    tables
}

/// One interleaved read: the epoch its snapshot observed, its answer and its latency.
struct Read {
    epoch: u64,
    answer: Vec<(ItemId, f64)>,
    latency: Duration,
}

/// Serves `requests` from `readers` scoped threads **while** the calling thread
/// applies `updates` in order. Reader `r` answers requests `r, r + readers, …`, each
/// from a fresh wait-free snapshot. Returns the reads in request order and the epoch
/// each update published.
fn interleave(
    model: &XMapModel,
    requests: &[Profile],
    readers: usize,
    updates: &[RatingDelta],
) -> (Vec<Read>, Vec<u64>) {
    std::thread::scope(|scope| {
        let pool: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || {
                    let reads = requests.iter().skip(r).step_by(readers).map(|profile| {
                        let watch = Stopwatch::start();
                        let (epoch, snap) = model.snapshot();
                        let answer = snap.recommend_for_profile(profile, TOP_N);
                        let latency = watch.elapsed();
                        Read {
                            epoch,
                            answer,
                            latency,
                        }
                    });
                    reads.collect::<Vec<_>>()
                })
            })
            .collect();
        let published = updates
            .iter()
            .map(|delta| {
                model
                    .apply_delta(delta)
                    .expect("the schedule applies")
                    .epoch
            })
            .collect();
        // Reader `q % readers` answered request `q` as its `q / readers`-th read.
        let mut pool: Vec<_> = pool
            .into_iter()
            .map(|reader| reader.join().expect("a reader panicked").into_iter())
            .collect();
        let reads = (0..requests.len())
            .map(|q| pool[q % readers].next().expect("every request was read"))
            .collect();
        (reads, published)
    })
}

/// The nearest-rank p99 of the reads' latencies.
fn p99(reads: &[Read]) -> Duration {
    let mut latencies: Vec<Duration> = reads.iter().map(|read| read.latency).collect();
    latencies.sort_unstable();
    latencies[(latencies.len() * 99).div_ceil(100).max(1) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized schedules: arbitrary rating events over the existing catalogue,
    /// arbitrarily split into 1–3 ingest batches, served at 1/2/8 readers.
    #[test]
    fn randomized_interleave_reads_match_the_serialized_schedule_at_their_epoch(
        raw_events in collection::vec(
            (0usize..70, 0usize..90, 1u32..=5),
            1..12,
        ),
        n_deltas in 1usize..=3,
    ) {
        let ds = dataset();
        let n_users = ds.matrix.n_users();
        let n_items = ds.matrix.n_items();
        // Split the generated events round-robin into the ingest batches, with
        // strictly increasing fresh timesteps so the serialized ordering is unique.
        let mut updates = vec![RatingDelta::new(); n_deltas];
        for (ix, &(u, i, v)) in raw_events.iter().enumerate() {
            updates[ix % n_deltas].push_timed(
                (u % n_users) as u32,
                (i % n_items) as u32,
                v as f64,
                5000 + ix as u32,
            );
        }

        let mode = XMapMode::NxMapItemBased;
        let probe = fit(&ds, mode);
        let requests: Vec<_> = ds
            .overlap_users
            .iter()
            .chain(ds.source_only_users.iter())
            .take(6)
            .map(|&u| probe.alterego(u).profile)
            .cycle()
            .take(24)
            .collect();
        let tables = serialized_reference(&ds, mode, &updates, &requests);

        for readers in READER_COUNTS {
            let model = fit(&ds, mode);
            let (reads, published) = interleave(&model, &requests, readers, &updates);
            prop_assert_eq!(reads.len(), requests.len());
            prop_assert_eq!(model.epoch(), 1 + n_deltas as u64);
            for (q, read) in reads.iter().enumerate() {
                prop_assert!(
                    (1..=1 + n_deltas as u64).contains(&read.epoch),
                    "{readers}r: read {} observed unpublished epoch {}", q, read.epoch
                );
                prop_assert_eq!(
                    bits(&read.answer),
                    tables[(read.epoch - 1) as usize][q].clone(),
                    "{}r: read {} tore away from its epoch {}", readers, q, read.epoch
                );
            }
            // The ingest worker published the serialized epoch sequence, in order.
            prop_assert_eq!(
                published,
                (2..=1 + n_deltas as u64).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn snapshots_survive_publication_and_epochs_retire_with_their_last_reader() {
    let ds = dataset();
    let model = fit(&ds, XMapMode::NxMapItemBased);
    let (first_epoch, snap) = model.snapshot();
    assert_eq!(first_epoch, 1);
    let user = ds.overlap_users[0];
    let baseline = bits(&snap.recommend(user, TOP_N));
    let retired_probe = Arc::downgrade(&snap);

    // Publish three epochs while the old snapshot is live.
    for step in 0..3u32 {
        let mut delta = RatingDelta::new();
        delta.push_timed(
            user.0,
            ds.target_items()[step as usize].0,
            1.0 + step as f64,
            7000 + step,
        );
        let report = model.apply_delta(&delta).unwrap();
        assert_eq!(report.epoch, 2 + step as u64);
        // The live snapshot keeps answering epoch 1's bits — publication never
        // mutates or tears a held epoch.
        assert_eq!(bits(&snap.recommend(user, TOP_N)), baseline);
    }
    assert_eq!(model.epoch(), 4);
    assert!(
        retired_probe.upgrade().is_some(),
        "a held epoch must stay alive"
    );

    // Once the last reader lets go, the epoch is actually retired (its memory
    // released), while new snapshots serve the newest epoch.
    drop(snap);
    assert!(
        retired_probe.upgrade().is_none(),
        "epoch 1 must be retired once its last snapshot drops"
    );
    let (epoch, fresh) = model.snapshot();
    assert_eq!(epoch, 4);
    assert_eq!(
        bits(&fresh.recommend(user, TOP_N)),
        bits(&model.recommend(user, TOP_N)),
        "the fresh snapshot and the model must answer from the same epoch"
    );
}

#[test]
fn concurrent_serve_with_no_deltas_equals_plain_batch_serving() {
    let ds = dataset();
    let model = fit(&ds, XMapMode::NxMapItemBased);
    let requests: Vec<_> = ds
        .overlap_users
        .iter()
        .take(8)
        .map(|&u| model.alterego(u).profile)
        .collect();
    let (reads, published) = interleave(&model, &requests, 2, &[]);
    assert!(published.is_empty());
    let (_, snap) = model.snapshot();
    for (read, profile) in reads.iter().zip(&requests) {
        assert_eq!(read.epoch, 1);
        assert_eq!(
            bits(&read.answer),
            bits(&snap.recommend_for_profile(profile, TOP_N))
        );
    }
}

/// Three fixed ingest batches over existing overlap users and target items — each
/// publishes one epoch during an interleaved run.
fn fixed_schedule(ds: &CrossDomainDataset) -> Vec<RatingDelta> {
    let items = ds.target_items();
    (0..3usize)
        .map(|batch| {
            let mut delta = RatingDelta::new();
            for ix in batch * 4..batch * 4 + 4 {
                let u = ds.overlap_users[ix % ds.overlap_users.len()];
                let i = items[(ix * 5) % items.len()];
                delta.push_timed(u.0, i.0, ((ix % 5) + 1) as f64, 2000 + ix as u32);
            }
            delta
        })
        .collect()
}

/// Eight source-side AlterEgo profiles; the fixed-schedule cases tile them to 1500
/// requests so the reader pool stays busy across every ingest.
fn seed_profiles(model: &XMapModel, ds: &CrossDomainDataset) -> Vec<Profile> {
    ds.overlap_users
        .iter()
        .chain(ds.source_only_users.iter())
        .take(8)
        .map(|&u| model.alterego(u).profile)
        .collect()
}

fn tiled(seeds: &[Profile]) -> Vec<Profile> {
    seeds.iter().cycle().take(1500).cloned().collect()
}

#[test]
fn fixed_schedule_reads_match_the_serialized_schedule_in_all_four_modes() {
    let ds = schedule_dataset();
    let updates = fixed_schedule(&ds);
    let last_epoch = 1 + updates.len() as u64;
    for mode in ALL_MODES {
        let seeds = seed_profiles(&fit(&ds, mode), &ds);
        let requests = tiled(&seeds);
        let tables = serialized_reference(&ds, mode, &updates, &seeds);
        for readers in READER_COUNTS {
            let model = fit(&ds, mode);
            let (reads, published) = interleave(&model, &requests, readers, &updates);
            assert_eq!(
                reads.len(),
                requests.len(),
                "{mode:?}/{readers}r: lost reads"
            );
            assert_eq!(model.epoch(), last_epoch, "{mode:?}/{readers}r");
            for (q, read) in reads.iter().enumerate() {
                assert!(
                    (1..=last_epoch).contains(&read.epoch),
                    "{mode:?}/{readers}r: read {q} observed unpublished epoch {}",
                    read.epoch
                );
                assert_eq!(
                    bits(&read.answer),
                    tables[(read.epoch - 1) as usize][q % seeds.len()],
                    "{mode:?}/{readers}r: read {q} tore away from its epoch {}",
                    read.epoch
                );
            }
            assert_eq!(
                published,
                (2..=last_epoch).collect::<Vec<_>>(),
                "{mode:?}/{readers}r: published epochs out of sequence"
            );
        }
    }
}

/// Readers never wait for a delta, only for a core: p99 during ingestion stays within
/// 2x of idle serving at the same reader count. Best-of-5 trials keep scheduler stalls
/// out of the gate, the 1500 reads keep a descheduled straggler below the 1% a p99
/// discards, and latencies under the 200 µs floor count as instant instead of being
/// gated on their exact ratio.
#[test]
#[ignore = "wall-clock gate: run with --release -- --ignored (CI: concurrent-smoke)"]
fn reader_p99_during_ingest_stays_within_2x_of_idle() {
    const P99_FLOOR: Duration = Duration::from_micros(200);
    let ds = schedule_dataset();
    let updates = fixed_schedule(&ds);
    println!("cores: {:?}", std::thread::available_parallelism());
    for mode in ALL_MODES {
        let model = fit(&ds, mode);
        let requests = tiled(&seed_profiles(&model, &ds));
        for readers in READER_COUNTS {
            // The same model is reused: re-applying an identical delta is idempotent on
            // the matrix and still exercises the full publish path.
            let p99 = |updates: &[RatingDelta]| {
                (0..5)
                    .map(|_| p99(&interleave(&model, &requests, readers, updates).0))
                    .min()
                    .expect("five trials ran")
            };
            let idle = p99(&[]);
            let during = p99(&updates);
            println!("{mode:?}/{readers}r: idle p99 {idle:?}, during-ingest p99 {during:?}");
            assert!(
                during <= idle.max(P99_FLOOR) * 2,
                "{mode:?}/{readers}r: ingestion stalled readers: p99 {during:?} vs idle {idle:?}"
            );
        }
    }
}
