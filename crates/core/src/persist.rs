//! Durable model state: a versioned snapshot of the ratings plus an append-only
//! delta journal.
//!
//! The persistence layer completes the model lifecycle (`fit` → [`XMapModel::persist`]
//! → [`XMapModel::apply_delta`] → [`XMapModel::open`] / [`XMapModel::recover`]):
//!
//! * [`XMapModel::persist`] writes what no build can derive — the epoch number, the
//!   configuration, the two domains and the aggregated rating matrix — into an
//!   atomically written, checksummed snapshot (`model.snap`), and opens a fresh
//!   write-ahead journal (`deltas.journal`) based at the snapshot epoch.
//! * With a store attached, `apply_delta` journals every [`RatingDelta`] — fsynced,
//!   CRC-framed, epoch-stamped — *before* publishing the new epoch, so the files on
//!   disk always describe a superset of what readers have been shown.
//! * [`XMapModel::open`] / [`XMapModel::recover`] load the snapshot's matrix, fold
//!   every journal record past the snapshot epoch into it, and run the one build
//!   (`build_epoch`) once over the result, publishing it at the last record's stamp.
//!   A torn tail the journal scan truncated away is discarded.
//! * [`XMapModel::compact`] folds the journal into a new snapshot: it rewrites the
//!   snapshot at the current epoch *first* (atomic rename), then resets the journal.
//!   A crash between the two steps leaves stale records the next recovery skips
//!   (their epoch stamps are ≤ the snapshot epoch), never a lost delta.
//!
//! Nothing derived is durable: the graph, X-Sim, the replacements, the kNN pools,
//! X-Map-ib's release and the privacy ledger are all rebuilt by the recovery's fit.
//! A delta is the same fold and the same fit (the incremental-equivalence gate), so
//! that fit is the model that wrote the files — when the running binary computes the
//! floats the writing one did. A recovered model is always the running binary's fit
//! of the journalled matrix.

use crate::delta::{fold, RatingDelta};
use crate::pipeline::{build_epoch, Ledgers, XMapModel};
use crate::{Result, XMapError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xmap_cf::{DomainId, RatingMatrix};
use xmap_engine::Dataflow;
use xmap_store::{Journal, Snapshot};

/// File name of the model snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "model.snap";

/// File name of the append-only delta journal inside a store directory.
pub const JOURNAL_FILE: &str = "deltas.journal";

/// The attached durable store of a model: the snapshot path (rewritten by
/// [`XMapModel::compact`]) and the open write-ahead journal.
pub(crate) struct ModelStore {
    snapshot_path: PathBuf,
    journal: Journal,
}

impl ModelStore {
    /// Write-ahead append of one delta, stamped with the epoch it *will* publish.
    /// Called by `apply_delta` under the ingest lock, before the epoch swap.
    pub(crate) fn append(&mut self, epoch: u64, delta: &RatingDelta) -> Result<u64> {
        Ok(self.journal.append(epoch, delta)?)
    }

    /// Current journal size in bytes (header + intact records).
    pub(crate) fn journal_len_bytes(&self) -> u64 {
        self.journal.len_bytes()
    }
}

/// The snapshot payload: the state no build can derive. Field order is the wire
/// order; see the "Durable state" section of `DESIGN.md` for the format contract.
struct ModelState {
    epoch: u64,
    config: crate::XMapConfig,
    source: DomainId,
    target: DomainId,
    matrix: Arc<RatingMatrix>,
}

impl ModelState {
    /// The persistable image of the model's current epoch (cheap: one `Arc` clone).
    fn of(model: &XMapModel) -> Self {
        let (epoch, current) = model.handle.load();
        ModelState {
            epoch,
            config: current.config,
            source: current.source_domain,
            target: current.target_domain,
            matrix: Arc::clone(&current.full),
        }
    }
}

impl xmap_store::Codec for ModelState {
    fn enc(&self, e: &mut xmap_store::Encoder) {
        e.put_u64(self.epoch);
        self.config.enc(e);
        self.source.enc(e);
        self.target.enc(e);
        self.matrix.enc(e);
    }

    fn dec(d: &mut xmap_store::Decoder<'_>) -> std::result::Result<Self, xmap_store::StoreError> {
        let epoch = d.take_u64()?;
        if epoch == 0 {
            return Err(d.corrupt("snapshot epoch must be ≥ 1".to_string()));
        }
        Ok(ModelState {
            epoch,
            config: xmap_store::Codec::dec(d)?,
            source: xmap_store::Codec::dec(d)?,
            target: xmap_store::Codec::dec(d)?,
            matrix: xmap_store::Codec::dec(d)?,
        })
    }
}

impl XMapModel {
    /// Attaches a durable store to the model: writes a snapshot of the current epoch's
    /// ratings into `dir` (atomically — temp file, fsync, rename) and opens a fresh
    /// delta journal based at that epoch. From here on, every [`XMapModel::apply_delta`]
    /// write-ahead journals its delta before publishing. Returns the snapshot epoch.
    ///
    /// Re-persisting an already-attached model rewrites the snapshot and journal in
    /// the new directory and detaches the old ones.
    pub fn persist(&self, dir: &Path) -> Result<u64> {
        std::fs::create_dir_all(dir).map_err(|e| XMapError::Io {
            path: dir.to_path_buf(),
            context: format!("create store directory: {e}"),
        })?;
        // Ingest lock first, store lock second — the same order as `apply_delta`,
        // so writers and persisters never deadlock. Holding the ingest lock pins
        // the current epoch: no delta can publish between snapshot and journal
        // creation, so the journal base is exactly the snapshot epoch.
        let _ingest = self
            .ingest_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = ModelState::of(self);
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        Snapshot::write(&snapshot_path, &state)?;
        let journal = Journal::create(&dir.join(JOURNAL_FILE), state.epoch)?;
        *self
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(ModelStore {
            snapshot_path,
            journal,
        });
        Ok(state.epoch)
    }

    /// Opens a persisted model from its store directory: equivalent to
    /// [`XMapModel::recover`] with the directory's standard file names
    /// ([`SNAPSHOT_FILE`], [`JOURNAL_FILE`]).
    pub fn open(dir: &Path) -> Result<XMapModel> {
        Self::recover(&dir.join(SNAPSHOT_FILE), &dir.join(JOURNAL_FILE))
    }

    /// Crash recovery: loads the snapshot's matrix, folds every journal record newer
    /// than the snapshot epoch into it, fits the result once and re-attaches the store.
    ///
    /// Each folded record passes the checks `apply_delta` makes (its error is returned
    /// unchanged) against the matrix as of that record, and must be stamped with the
    /// next epoch, else [`XMapError::Corrupt`] at its offset; the model is published at
    /// the last record's stamp. It is bit-identical to the in-memory model that wrote
    /// the files: `apply_delta` is bit-identical to a full refit. A torn journal tail —
    /// a record cut short by a crash — is truncated away and recovery succeeds with the
    /// intact prefix; any *complete* but damaged record fails with
    /// [`XMapError::Corrupt`]. Records at or below the snapshot epoch (left behind by a
    /// crash between compaction's snapshot rewrite and journal reset) are skipped. A
    /// missing journal file is treated as empty and recreated. The fit runs on a
    /// dataflow the model does not keep, so the recovered model's ledger starts empty.
    pub fn recover(snapshot: &Path, journal: &Path) -> Result<XMapModel> {
        let ModelState {
            epoch: snapshot_epoch,
            config,
            source,
            target,
            matrix,
        } = Snapshot::load(snapshot)?;
        let invalid = |m| XMapError::corrupt(format!("persisted configuration is invalid: {m}"));
        config.validate().map_err(invalid)?;
        if source == target {
            let detail = "persisted source and target domains are equal";
            return Err(XMapError::corrupt(detail));
        }
        let (mut jrnl, records) = if journal.exists() {
            Journal::open::<RatingDelta>(journal)?
        } else {
            (Journal::create(journal, snapshot_epoch)?, Vec::new())
        };
        if jrnl.base_epoch() > snapshot_epoch {
            let base = jrnl.base_epoch();
            let detail =
                format!("journal base epoch {base} is ahead of snapshot epoch {snapshot_epoch}");
            return Err(XMapError::corrupt(detail));
        }
        let (mut full, mut current) = (matrix, snapshot_epoch);
        for record in records.iter().filter(|r| r.epoch > snapshot_epoch) {
            let folded = fold(&record.value, &full)?;
            if record.epoch != current + 1 {
                return Err(XMapError::Corrupt {
                    offset: record.offset,
                    detail: format!(
                        "journal record stamped epoch {} follows epoch {current}",
                        record.epoch
                    ),
                });
            }
            full = Arc::new(folded);
            current = record.epoch;
        }
        let flow = || Dataflow::new(config.workers, config.partitions);
        let fit = flow();
        let copy = || Arc::clone(&full);
        let (epoch, _) = build_epoch(config, source, target, &full, Ledgers::Named(&fit), copy)?;
        let model = XMapModel::from_epoch(epoch, current, flow());
        // A stale journal (every record folded into the snapshot) ends behind the
        // model; rebase it so the next write-ahead append is contiguous. This only
        // discards records the snapshot already covers.
        if jrnl.last_epoch() < current {
            jrnl.reset(current)?;
        }
        *model
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(ModelStore {
            snapshot_path: snapshot.to_path_buf(),
            journal: jrnl,
        });
        Ok(model)
    }

    /// Folds the journal into a fresh snapshot: rewrites the snapshot at the current
    /// epoch (atomic rename — the old snapshot stays valid until the new one is
    /// durable), then resets the journal to base at that epoch. Returns the epoch
    /// compacted to. Fails with [`XMapError::Data`] if no store is attached.
    pub fn compact(&self) -> Result<u64> {
        let _ingest = self
            .ingest_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut guard = self
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let store = guard.as_mut().ok_or_else(|| {
            XMapError::Data("no durable store attached; call persist() first".to_string())
        })?;
        let state = ModelState::of(self);
        Snapshot::write(&store.snapshot_path, &state)?;
        store.journal.reset(state.epoch)?;
        Ok(state.epoch)
    }

    /// Size in bytes of the attached delta journal (header plus intact records), or
    /// `None` when the model has no store attached. Shrinks to the bare header on
    /// [`XMapModel::compact`].
    pub fn journal_len_bytes(&self) -> Option<u64> {
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(ModelStore::journal_len_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ModelEpoch;
    use crate::{XMapConfig, XMapMode};
    use xmap_cf::knn::ItemNeighbor;
    use xmap_cf::ItemId;
    use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};
    use xmap_store::{crc32, encode_to_vec, FORMAT_VERSION, SNAPSHOT_MAGIC};

    const ALL_MODES: [XMapMode; 4] = [
        XMapMode::NxMapItemBased,
        XMapMode::NxMapUserBased,
        XMapMode::XMapItemBased,
        XMapMode::XMapUserBased,
    ];

    /// A directory unique to this test process and `tag`, recreated empty.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xmap_persist_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fit(ds: &CrossDomainDataset, mode: XMapMode, workers: usize) -> XMapModel {
        let config = XMapConfig {
            mode,
            k: 8,
            workers,
            ..Default::default()
        };
        XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap()
    }

    /// The file `Snapshot::write` wrote before it encoded in place: the payload
    /// encoded on its own, then copied behind the header.
    fn framed_by_copy<T: xmap_store::Codec>(value: &T) -> Vec<u8> {
        let payload = encode_to_vec(value);
        let mut body = SNAPSHOT_MAGIC.to_vec();
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        body.extend_from_slice(&payload);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    #[test]
    fn snapshots_of_a_model_and_a_slice_keep_the_copying_writes_bytes() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let model = fit(&ds, XMapMode::XMapItemBased, 2);
        let dir = scratch_dir("snapshot_bytes");
        model.persist(&dir).unwrap();
        assert_eq!(
            std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            framed_by_copy(&ModelState::of(&model))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A CRC-valid snapshot stamped with the format that also held the derived tables
    /// is refused as `Corrupt` naming its version, not decoded as a matrix.
    #[test]
    fn a_snapshot_of_the_old_format_version_is_refused() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let dir = scratch_dir("old_version");
        fit(&ds, XMapMode::NxMapItemBased, 2).persist(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match XMapModel::open(&dir) {
            Err(XMapError::Corrupt { offset, detail }) => {
                assert_eq!(offset, 8);
                assert!(detail.contains("format version 1"), "{detail}");
            }
            other => panic!("a version-1 snapshot opened: {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Six deltas: one declaring a target item, one touching only the source domain,
    /// one repeating a cell of the first (and rating it twice), then three plain ones.
    fn six_deltas(ds: &CrossDomainDataset) -> Vec<RatingDelta> {
        let (source, target) = (ds.source_items(), ds.target_items());
        let (new_user, new_item) = (ds.matrix.n_users() as u32, ds.matrix.n_items() as u32);
        let overlap = |n: usize| ds.overlap_users[n].0;
        let mut deltas = vec![RatingDelta::new(); 6];
        deltas[0]
            .declare_item(ItemId(new_item), DomainId::TARGET)
            .push_timed(overlap(0), target[0].0, 1.0, 200)
            .push_timed(new_user, source[0].0, 4.0, 201)
            .push_timed(new_user, new_item, 5.0, 202);
        deltas[1]
            .push_timed(overlap(1), source[1].0, 2.0, 210)
            .push_timed(overlap(2), source[2].0, 5.0, 211);
        deltas[2]
            .push_timed(overlap(0), target[0].0, 3.0, 220)
            .push_timed(overlap(0), target[0].0, 4.5, 221);
        for (n, delta) in deltas[3..].iter_mut().enumerate() {
            delta
                .push_timed(
                    overlap(3 + n),
                    target[1 + n].0,
                    2.0 + n as f64,
                    230 + n as u32,
                )
                .push_timed(overlap(4 + n), new_item, 4.0, 240 + n as u32);
        }
        deltas
    }

    fn pool_bits(table: &Option<Arc<Vec<Vec<ItemNeighbor>>>>) -> Option<Vec<Vec<(ItemId, u64)>>> {
        let row = |row: &Vec<ItemNeighbor>| {
            row.iter()
                .map(|n| (n.item, n.similarity.to_bits()))
                .collect()
        };
        table.as_deref().map(|rows| rows.iter().map(row).collect())
    }

    /// Every piece of two epochs, compared exactly: the matrix, the graph, X-Sim, the
    /// replacements, the kNN pools, X-Map-ib's release and the privacy ledger's entries.
    fn assert_same_epoch(got: &ModelEpoch, want: &ModelEpoch, what: &str) {
        assert_eq!(got.full, want.full, "{what}: matrix");
        assert_eq!(got.graph, want.graph, "{what}: graph");
        assert_eq!(got.xsim, want.xsim, "{what}: X-Sim");
        assert_eq!(got.replacements, want.replacements, "{what}: replacements");
        assert_eq!(
            pool_bits(&got.item_pools),
            pool_bits(&want.item_pools),
            "{what}: pools"
        );
        assert_eq!(
            pool_bits(&got.item_release),
            pool_bits(&want.item_release),
            "{what}: X-Map-ib release"
        );
        let ledger = |epoch: &ModelEpoch| {
            let entries = epoch.budget.iter().flat_map(|b| b.ledger());
            let entries = entries.map(|e| (e.mechanism.clone(), e.epsilon.to_bits()));
            entries.collect::<Vec<_>>()
        };
        assert_eq!(ledger(got), ledger(want), "{what}: privacy ledger");
    }

    /// In all four modes at 1, 2 and 8 workers, a model reopened after 0–6 journalled
    /// deltas equals the writer's epoch piece by piece, whether it folds the journal
    /// (replayed) or opens a snapshot compacted at that epoch.
    #[test]
    fn recovery_equals_the_writers_epoch_piece_by_piece_in_all_four_modes_at_1_2_and_8_workers() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let deltas = six_deltas(&ds);
        for mode in ALL_MODES {
            for workers in [1, 2, 8] {
                let case = format!("{mode:?}/{workers}w");
                let writer = fit(&ds, mode, workers);
                let dir = scratch_dir(&format!("pieces_{mode:?}_{workers}"));
                let copy = scratch_dir(&format!("pieces_{mode:?}_{workers}_copy"));
                writer.persist(&dir).unwrap();
                for n in 0..=deltas.len() {
                    if n > 0 {
                        writer.apply_delta(&deltas[n - 1]).unwrap();
                    }
                    let (epoch_no, want) = writer.snapshot();
                    for file in [SNAPSHOT_FILE, JOURNAL_FILE] {
                        std::fs::copy(dir.join(file), copy.join(file)).unwrap();
                    }
                    let replayed = XMapModel::open(&copy).unwrap();
                    let (got_no, got) = replayed.snapshot();
                    assert_eq!(got_no, epoch_no, "{case}, {n} deltas");
                    assert_same_epoch(&got, &want, &format!("{case}, {n} deltas replayed"));
                    assert_eq!(replayed.compact().unwrap(), epoch_no);
                    drop(replayed);
                    let compacted = XMapModel::open(&copy).unwrap();
                    let (got_no, got) = compacted.snapshot();
                    assert_eq!(got_no, epoch_no, "{case}, {n} deltas");
                    assert_same_epoch(&got, &want, &format!("{case}, {n} deltas compacted"));
                }
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::remove_dir_all(&copy);
            }
        }
    }

    /// A CRC-valid record past the snapshot whose delta `apply_delta` would refuse —
    /// here one redeclaring an item's domain behind a valid record — fails the recovery
    /// with the very error `apply_delta` returns, and leaves both files as they were.
    #[test]
    fn a_mid_journal_record_that_fails_check_delta_is_refused_with_its_error() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let deltas = six_deltas(&ds);
        let writer = fit(&ds, XMapMode::NxMapItemBased, 2);
        let dir = scratch_dir("bad_record");
        writer.persist(&dir).unwrap();
        writer.apply_delta(&deltas[0]).unwrap();
        let mut bad = RatingDelta::new();
        bad.declare_item(ds.source_items()[0], DomainId::TARGET);
        let refused = writer.apply_delta(&bad).unwrap_err().to_string();
        let mut journal = Journal::open::<RatingDelta>(&dir.join(JOURNAL_FILE))
            .unwrap()
            .0;
        journal.append(3, &bad).unwrap();
        journal.append(4, &deltas[1]).unwrap();
        let files =
            |dir: &Path| [SNAPSHOT_FILE, JOURNAL_FILE].map(|f| std::fs::read(dir.join(f)).unwrap());
        let before = files(&dir);
        match XMapModel::open(&dir) {
            Err(err @ XMapError::Data(_)) => assert_eq!(err.to_string(), refused),
            other => panic!("a refused delta recovered: {:?}", other.err()),
        }
        assert_eq!(files(&dir), before, "a refused recovery touched the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record whose stamp skips an epoch — written with a valid checksum — fails the
    /// recovery as `Corrupt` at that record's offset.
    #[test]
    fn a_stamp_gap_is_corrupt_at_the_records_offset() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let deltas = six_deltas(&ds);
        let writer = fit(&ds, XMapMode::NxMapUserBased, 2);
        let dir = scratch_dir("stamp_gap");
        writer.persist(&dir).unwrap();
        writer.apply_delta(&deltas[1]).unwrap();
        let second = writer
            .apply_delta(&deltas[3])
            .unwrap()
            .journal_offset
            .unwrap() as usize;
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second + 4..second + 12].copy_from_slice(&4u64.to_le_bytes());
        let len = u32::from_le_bytes(bytes[second..second + 4].try_into().unwrap()) as usize;
        let crc_at = second + 12 + len;
        let crc = crc32(&bytes[second..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match XMapModel::open(&dir) {
            Err(XMapError::Corrupt { offset, detail }) => {
                assert_eq!(offset, second as u64, "{detail}");
                assert!(detail.contains("stamp 4"), "{detail}");
            }
            other => panic!("a stamp gap recovered: {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
