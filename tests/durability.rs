//! The durability gate: a model recovered from its snapshot + delta journal must be
//! **bit-identical** to the in-memory model that wrote them — graph arena, X-Sim
//! table, replacement table, probe predictions, recommendations and privacy ledger —
//! in all four modes, at 1, 2 and 8 workers. And no damaged byte on disk may ever
//! panic a recovery: truncating or flipping bytes at arbitrary offsets must either
//! recover a bit-identical *prefix* of the journaled history (a torn tail) or fail
//! with `XMapError::Corrupt`.
//!
//! This is the on-disk counterpart of the incremental-equivalence gate
//! (`tests/incremental_equivalence.rs`): `apply_delta` is bit-identical to a full
//! refit, recovery folds the journal into the snapshot's matrix and fits it once, so
//! recovery is bit-identical to the live model by composition — this file checks the
//! composition end to end, through real files.

mod common;

use common::ReleasedBits;
use std::path::{Path, PathBuf};
use xmap_suite::core::{XMapError, DELTA_STAGE_NAME};
use xmap_suite::prelude::*;

const GATE_WORKERS: [usize; 3] = [1, 2, 8];

/// A scratch directory unique to this test process and `tag`, recreated empty.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xmap_durability_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dataset() -> CrossDomainDataset {
    CrossDomainDataset::generate(CrossDomainConfig::small())
}

fn config(mode: XMapMode, workers: usize) -> XMapConfig {
    XMapConfig {
        mode,
        k: 8,
        workers,
        ..Default::default()
    }
}

/// A delta exercising every edge shape: an updated cell, a new cell for an existing
/// user, a brand-new user straddling both domains, a brand-new target item.
fn first_delta(ds: &CrossDomainDataset) -> RatingDelta {
    let new_user = ds.matrix.n_users() as u32;
    let new_item = ds.matrix.n_items() as u32;
    let mut delta = RatingDelta::new();
    delta
        .declare_item(ItemId(new_item), DomainId::TARGET)
        .push_timed(ds.overlap_users[0].0, ds.target_items()[0].0, 1.0, 200)
        .push_timed(ds.overlap_users[1].0, ds.source_items()[0].0, 5.0, 201)
        .push_timed(new_user, ds.source_items()[0].0, 4.0, 202)
        .push_timed(new_user, new_item, 5.0, 203);
    delta
}

/// Ratings of source-domain items only: the target-domain recommender is shared.
fn source_only_delta(ds: &CrossDomainDataset) -> RatingDelta {
    let mut delta = RatingDelta::new();
    delta
        .push_timed(ds.overlap_users[3].0, ds.source_items()[2].0, 2.0, 250)
        .push_timed(ds.source_only_users[0].0, ds.source_items()[3].0, 5.0, 251);
    delta
}

/// Repeats the first delta's cell of `overlap_users[0]`.
fn second_delta(ds: &CrossDomainDataset) -> RatingDelta {
    let mut delta = RatingDelta::new();
    delta
        .push_timed(ds.overlap_users[2].0, ds.target_items()[1].0, 4.0, 300)
        .push_timed(ds.overlap_users[0].0, ds.target_items()[0].0, 5.0, 301);
    delta
}

/// What the gate compares between the writing and the recovered model: the epoch it
/// serves and everything it released.
fn released_bits(model: &XMapModel, users: &[UserId], items: &[ItemId]) -> (u64, ReleasedBits) {
    (model.epoch(), common::released_bits(model, users, items))
}

fn probes(ds: &CrossDomainDataset) -> (Vec<UserId>, Vec<ItemId>) {
    let new_user = UserId(ds.matrix.n_users() as u32);
    let users: Vec<UserId> = ds
        .overlap_users
        .iter()
        .copied()
        .take(4)
        .chain(ds.source_only_users.iter().copied().take(2))
        .chain([new_user])
        .collect();
    let items: Vec<ItemId> = ds.target_items().into_iter().take(10).collect();
    (users, items)
}

#[test]
fn recovery_is_bit_identical_in_all_four_modes_at_1_2_and_8_workers() {
    let ds = dataset();
    let (probe_users, probe_items) = probes(&ds);
    for mode in [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ] {
        for workers in GATE_WORKERS {
            let dir = scratch_dir(&format!("gate_{mode:?}_{workers}"));
            let model = XMapModel::fit(
                &ds.matrix,
                DomainId::SOURCE,
                DomainId::TARGET,
                config(mode, workers),
            )
            .unwrap();
            assert_eq!(model.persist(&dir).unwrap(), 1, "{mode:?}/{workers}w");

            // With a store attached, every delta reports its write-ahead offset.
            let r1 = model.apply_delta(&first_delta(&ds)).unwrap();
            assert_eq!(r1.epoch, 2, "{mode:?}/{workers}w");
            assert!(r1.journal_offset.is_some(), "{mode:?}/{workers}w");
            let r2 = model.apply_delta(&second_delta(&ds)).unwrap();
            assert_eq!(r2.epoch, 3, "{mode:?}/{workers}w");
            assert!(
                r2.journal_offset.unwrap() > r1.journal_offset.unwrap(),
                "{mode:?}/{workers}w: journal offsets must grow"
            );

            let r3 = model.apply_delta(&source_only_delta(&ds)).unwrap();
            assert_eq!(r3.epoch, 4, "{mode:?}/{workers}w");

            // A copy of the files, opened and compacted, reopens at the same bits.
            let copy = scratch_dir(&format!("gate_{mode:?}_{workers}_compacted"));
            for file in [
                xmap_suite::core::SNAPSHOT_FILE,
                xmap_suite::core::JOURNAL_FILE,
            ] {
                std::fs::copy(dir.join(file), copy.join(file)).unwrap();
            }
            assert_eq!(XMapModel::open(&copy).unwrap().compact().unwrap(), 4);
            let compacted = XMapModel::open(&copy).unwrap();
            assert_eq!(
                released_bits(&compacted, &probe_users, &probe_items),
                released_bits(&model, &probe_users, &probe_items),
                "{mode:?}/{workers}w: released bits diverged after compaction"
            );
            let _ = std::fs::remove_dir_all(&copy);

            let recovered = XMapModel::open(&dir).unwrap();
            // epoch, matrix, graph arena, X-Sim table and the released surface
            assert_eq!(
                released_bits(&recovered, &probe_users, &probe_items),
                released_bits(&model, &probe_users, &probe_items),
                "{mode:?}/{workers}w: released bits diverged after recovery"
            );

            // The recovered model keeps journaling: its next delta lands at epoch 5
            // on both sides and the bits stay equal.
            let d2 = second_delta(&ds);
            let live = model.apply_delta(&d2).unwrap();
            let rec = recovered.apply_delta(&d2).unwrap();
            assert_eq!(live.epoch, 5);
            assert_eq!(rec.epoch, 5);
            assert!(rec.journal_offset.is_some(), "{mode:?}/{workers}w");
            assert_eq!(
                released_bits(&recovered, &probe_users, &probe_items),
                released_bits(&model, &probe_users, &probe_items),
                "{mode:?}/{workers}w: diverged after post-recovery delta"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Reopening a snapshot re-wraps released artifacts; it releases nothing, so the
/// reopened accountant is the persisted one — same entries, same `spent` and
/// `remaining` bits — with no journal replay (and its fresh ledger) in between.
#[test]
fn reopening_a_private_snapshot_spends_no_epsilon() {
    let ds = dataset();
    let (probe_users, probe_items) = probes(&ds);
    for mode in [XMapMode::XMapItemBased, XMapMode::XMapUserBased] {
        let dir = scratch_dir(&format!("reopen_{mode:?}"));
        let model = XMapModel::fit(
            &ds.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            config(mode, 2),
        )
        .unwrap();
        model.persist(&dir).unwrap();
        let reopened = XMapModel::open(&dir).unwrap();
        let bits = released_bits(&reopened, &probe_users, &probe_items);
        assert_eq!(
            bits.1.privacy_ledger.len(),
            3,
            "{mode:?}: PRS, PNSA, PNCF — once"
        );
        assert_eq!(
            bits,
            released_bits(&model, &probe_users, &probe_items),
            "{mode:?}: reopened model diverged from the one that persisted it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A reopened model's ledger starts empty — the fit's entries described the process
/// that fitted it, not the model — and a delta applied to it records one `delta`
/// entry whose task bag is the same at 1, 2 and 8 workers.
#[test]
fn a_reopened_model_has_an_empty_ledger_until_its_first_delta() {
    let ds = dataset();
    let delta = first_delta(&ds);
    let mut reference: Option<Vec<f64>> = None;
    for workers in GATE_WORKERS {
        let dir = scratch_dir(&format!("ledger_{workers}"));
        let config = config(XMapMode::NxMapItemBased, workers);
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config);
        model.unwrap().persist(&dir).unwrap();
        let reopened = XMapModel::open(&dir).unwrap();
        assert!(reopened.ledger().is_empty(), "{workers} workers");
        reopened.apply_delta(&delta).unwrap();
        let mut ledger = reopened.ledger();
        assert_eq!(ledger.len(), 1, "{workers} workers: {ledger:?}");
        let entry = ledger.remove(0);
        assert_eq!(entry.name, DELTA_STAGE_NAME);
        assert!(!entry.costs.is_empty(), "{workers} workers");
        match &reference {
            None => reference = Some(entry.costs),
            Some(expected) => assert_eq!(
                &entry.costs, expected,
                "{workers} workers changed the delta bag"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn compaction_shrinks_the_journal_and_preserves_the_bits() {
    let ds = dataset();
    let (probe_users, probe_items) = probes(&ds);
    let dir = scratch_dir("compact");
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        config(XMapMode::NxMapItemBased, 2),
    )
    .unwrap();
    assert_eq!(
        model.journal_len_bytes(),
        None,
        "no store attached before persist()"
    );
    model.persist(&dir).unwrap();
    model.apply_delta(&first_delta(&ds)).unwrap();
    let before = model.journal_len_bytes().unwrap();
    assert_eq!(model.compact().unwrap(), 2);
    let after = model.journal_len_bytes().unwrap();
    assert!(
        after < before,
        "compaction must shrink the journal ({before} -> {after} bytes)"
    );
    // Post-compaction deltas journal against the new base and recovery still lands
    // on the live bits.
    model.apply_delta(&second_delta(&ds)).unwrap();
    let recovered = XMapModel::open(&dir).unwrap();
    assert_eq!(
        released_bits(&recovered, &probe_users, &probe_items),
        released_bits(&model, &probe_users, &probe_items),
        "recovery after compaction diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_without_a_store_is_a_data_error_and_a_lost_journal_reopens_at_the_snapshot() {
    let ds = dataset();
    let (probe_users, probe_items) = probes(&ds);
    let model = XMapModel::fit(
        &ds.matrix,
        DomainId::SOURCE,
        DomainId::TARGET,
        config(XMapMode::NxMapItemBased, 2),
    )
    .unwrap();
    assert!(matches!(model.compact(), Err(XMapError::Data(_))));

    let dir = scratch_dir("lost_journal");
    model.persist(&dir).unwrap();
    let snapshot_bits = released_bits(&model, &probe_users, &probe_items);
    model.apply_delta(&first_delta(&ds)).unwrap();
    // Losing the journal file loses the deltas, not the snapshot: open() treats the
    // missing journal as empty, recreates it, and lands on the snapshot epoch.
    std::fs::remove_file(dir.join(xmap_suite::core::JOURNAL_FILE)).unwrap();
    let reopened = XMapModel::open(&dir).unwrap();
    assert_eq!(reopened.epoch(), 1);
    assert_eq!(
        released_bits(&reopened, &probe_users, &probe_items),
        snapshot_bits,
        "a lost journal must reopen exactly the snapshot"
    );
    // ... and the recreated journal accepts new deltas.
    let report = reopened.apply_delta(&first_delta(&ds)).unwrap();
    assert_eq!(report.epoch, 2);
    assert!(report.journal_offset.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// Kill-at-arbitrary-byte: no truncation or byte flip may panic a recovery or hand
// back wrong bits — the outcome is always a bit-identical journaled *prefix* or
// `XMapError::Corrupt`. Runs on the toy scenario so each recovery attempt is cheap.
// ---------------------------------------------------------------------------------

/// The fitted toy fixture behind the corruption sweeps: pristine store files plus
/// the released bits of every legal journal prefix (epoch 1, 2 and 3).
struct CorruptionFixture {
    dir: PathBuf,
    prefix_bits: Vec<(u64, ReleasedBits)>,
    probe_users: Vec<UserId>,
    probe_items: Vec<ItemId>,
}

impl CorruptionFixture {
    fn build(tag: &str, mode: XMapMode) -> Self {
        let toy = ToyScenario::build();
        let config = XMapConfig {
            mode,
            k: 2,
            ..XMapConfig::default()
        };
        let probe_users: Vec<UserId> = (0..toy.matrix.n_users() as u32).map(UserId).collect();
        let probe_items: Vec<ItemId> = toy
            .matrix
            .items_in_domain(DomainId::TARGET)
            .into_iter()
            .collect();

        let dir = scratch_dir(tag);
        let model =
            XMapModel::fit(&toy.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
        model.persist(&dir).unwrap();
        let mut prefix_bits = vec![released_bits(&model, &probe_users, &probe_items)];
        let deltas = [
            {
                let mut d = RatingDelta::new();
                d.push_timed(0, probe_items[0].0, 4.0, 100);
                d
            },
            {
                let mut d = RatingDelta::new();
                d.push_timed(1, probe_items[1].0, 2.0, 101).push_timed(
                    2,
                    probe_items[0].0,
                    5.0,
                    102,
                );
                d
            },
        ];
        for delta in &deltas {
            model.apply_delta(delta).unwrap();
            prefix_bits.push(released_bits(&model, &probe_users, &probe_items));
        }
        CorruptionFixture {
            dir,
            prefix_bits,
            probe_users,
            probe_items,
        }
    }

    fn pristine(&self, name: &str) -> Vec<u8> {
        std::fs::read(self.dir.join(name)).unwrap()
    }

    /// Writes damaged store files into a work directory and attempts a recovery.
    /// Asserts the contract: `Ok` must be one of the legal prefixes, `Err` must be
    /// `Corrupt` (with one carve-out: damage to the *snapshot* may surface as a
    /// decode `Corrupt` only — it can never succeed with different bits).
    fn check(&self, work: &Path, snapshot: &[u8], journal: &[u8], what: &str) {
        std::fs::write(work.join(xmap_suite::core::SNAPSHOT_FILE), snapshot).unwrap();
        std::fs::write(work.join(xmap_suite::core::JOURNAL_FILE), journal).unwrap();
        match XMapModel::open(work) {
            Ok(recovered) => {
                let bits = released_bits(&recovered, &self.probe_users, &self.probe_items);
                assert!(
                    self.prefix_bits.contains(&bits),
                    "{what}: recovery succeeded with bits matching no journaled prefix \
                     (epoch {})",
                    recovered.epoch()
                );
            }
            Err(XMapError::Corrupt { .. }) => {}
            Err(other) => panic!("{what}: expected Corrupt, got {other}"),
        }
    }
}

#[test]
fn journal_truncated_at_every_byte_recovers_a_prefix_or_fails_corrupt() {
    let fx = CorruptionFixture::build("journal_trunc", XMapMode::NxMapItemBased);
    let snapshot = fx.pristine(xmap_suite::core::SNAPSHOT_FILE);
    let journal = fx.pristine(xmap_suite::core::JOURNAL_FILE);
    let work = scratch_dir("journal_trunc_work");
    for cut in 0..=journal.len() {
        fx.check(
            &work,
            &snapshot,
            &journal[..cut],
            &format!("journal cut at {cut}"),
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn snapshot_truncated_at_every_byte_fails_corrupt() {
    let fx = CorruptionFixture::build("snap_trunc", XMapMode::NxMapItemBased);
    let snapshot = fx.pristine(xmap_suite::core::SNAPSHOT_FILE);
    let journal = fx.pristine(xmap_suite::core::JOURNAL_FILE);
    let work = scratch_dir("snap_trunc_work");
    for cut in 0..snapshot.len() {
        std::fs::write(work.join(xmap_suite::core::SNAPSHOT_FILE), &snapshot[..cut]).unwrap();
        std::fs::write(work.join(xmap_suite::core::JOURNAL_FILE), &journal).unwrap();
        match XMapModel::open(&work) {
            Err(XMapError::Corrupt { .. }) => {}
            Ok(_) => panic!("snapshot cut at {cut} of {} loaded", snapshot.len()),
            Err(other) => panic!("snapshot cut at {cut}: expected Corrupt, got {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir_all(&fx.dir);
}

mod byte_flips {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any single flipped bit in the journal either leaves a bit-identical legal
        /// prefix (the flip tore the tail) or fails with `Corrupt` — never a panic,
        /// never wrong bits. Offsets are sampled over the whole file.
        #[test]
        fn journal_byte_flip_recovers_a_prefix_or_fails_corrupt(
            frac in 0.0f64..1.0,
            bit in 0u32..8,
        ) {
            let fx = fixture();
            let journal = fx.pristine(xmap_suite::core::JOURNAL_FILE);
            let snapshot = fx.pristine(xmap_suite::core::SNAPSHOT_FILE);
            let offset = ((frac * journal.len() as f64) as usize).min(journal.len() - 1);
            let mut damaged = journal.clone();
            damaged[offset] ^= 1 << bit;
            let work = scratch_dir(&format!("journal_flip_{offset}_{bit}"));
            fx.check(
                &work,
                &snapshot,
                &damaged,
                &format!("journal bit {bit} flipped at {offset}"),
            );
            let _ = std::fs::remove_dir_all(&work);
        }

        /// Any single flipped bit in the snapshot fails with `Corrupt`: the footer
        /// CRC covers the magic, version, length and payload in full.
        #[test]
        fn snapshot_byte_flip_fails_corrupt(frac in 0.0f64..1.0, bit in 0u32..8) {
            let fx = fixture();
            let snapshot = fx.pristine(xmap_suite::core::SNAPSHOT_FILE);
            let journal = fx.pristine(xmap_suite::core::JOURNAL_FILE);
            let offset = ((frac * snapshot.len() as f64) as usize).min(snapshot.len() - 1);
            let mut damaged = snapshot.clone();
            damaged[offset] ^= 1 << bit;
            let work = scratch_dir(&format!("snap_flip_{offset}_{bit}"));
            std::fs::write(work.join(xmap_suite::core::SNAPSHOT_FILE), &damaged).unwrap();
            std::fs::write(work.join(xmap_suite::core::JOURNAL_FILE), &journal).unwrap();
            match XMapModel::open(&work) {
                Err(XMapError::Corrupt { .. }) => {}
                Ok(_) => panic!("snapshot with bit {bit} flipped at {offset} loaded"),
                Err(other) => {
                    panic!("snapshot flip at {offset}: expected Corrupt, got {other}")
                }
            }
            let _ = std::fs::remove_dir_all(&work);
        }
    }

    /// One shared fixture across all sampled cases (fitting per case would dominate
    /// the runtime); private mode, so flips over the privacy ledger are covered too.
    fn fixture() -> &'static CorruptionFixture {
        use std::sync::OnceLock;
        static FIXTURE: OnceLock<CorruptionFixture> = OnceLock::new();
        FIXTURE.get_or_init(|| CorruptionFixture::build("byte_flips", XMapMode::XMapUserBased))
    }
}
