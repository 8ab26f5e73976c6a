//! Durable model state: versioned snapshots plus an append-only delta journal.
//!
//! The persistence layer completes the model lifecycle (`fit` → [`XMapModel::persist`]
//! → [`XMapModel::apply_delta`] → [`XMapModel::open`] / [`XMapModel::recover`]):
//!
//! * [`XMapModel::persist`] serializes the current [`ModelEpoch`] into an atomically
//!   written, checksummed snapshot (`model.snap`) and opens a fresh write-ahead
//!   journal (`deltas.journal`) based at the snapshot epoch.
//! * With a store attached, `apply_delta` journals every [`RatingDelta`] — fsynced,
//!   CRC-framed, epoch-stamped — *before* publishing the new epoch, so the files on
//!   disk always describe a superset of what readers have been shown.
//! * [`XMapModel::open`] / [`XMapModel::recover`] rebuild the model: load the
//!   snapshot, replay every journal record past the snapshot epoch through the
//!   ordinary `apply_delta` path (which is bit-identical to a full refit — see
//!   `DESIGN.md`), and discard any torn tail the journal scan truncated away.
//! * [`XMapModel::compact`] folds the journal into a new snapshot: it rewrites the
//!   snapshot at the current epoch *first* (atomic rename), then resets the journal.
//!   A crash between the two steps leaves stale records the next recovery skips
//!   (their epoch stamps are ≤ the snapshot epoch), never a lost delta.
//!
//! What is persisted vs recomputed: the snapshot carries every artifact whose
//! reconstruction is either expensive or non-derivable — the aggregated matrix, the
//! similarity graph (including its scored-pair delta cache), the X-Sim table, the
//! replacement table, the fitted item-kNN pools and the privacy ledger. The
//! recommender (X-Map-ib's seeded release included) is a cheap deterministic function
//! of those and is recomputed on load, exactly as the fit computes it.

use crate::delta::RatingDelta;
use crate::pipeline::{ModelEpoch, XMapModel};
use crate::recommend;
use crate::xsim::XSimTable;
use crate::{Result, XMapError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xmap_cf::knn::ItemNeighbor;
use xmap_cf::{DomainId, RatingMatrix};
use xmap_engine::Dataflow;
use xmap_graph::SimilarityGraph;
use xmap_privacy::PrivacyBudget;
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

/// The on-disk image of one [`ModelEpoch`]: everything a recovery cannot (or should
/// not) recompute. Field order is the wire order; see the "Durable state" section of
/// `DESIGN.md` for the format contract.
struct ModelState {
    epoch: u64,
    config: crate::XMapConfig,
    source: DomainId,
    target: DomainId,
    full: Arc<RatingMatrix>,
    graph: Arc<SimilarityGraph>,
    xsim: Arc<XSimTable>,
    replacements: Arc<crate::ReplacementTable>,
    item_pools: Option<Arc<Vec<Vec<ItemNeighbor>>>>,
    budget: Option<Arc<PrivacyBudget>>,
}

impl ModelState {
    /// Captures the persistable image of a published epoch (cheap: `Arc` clones).
    fn from_epoch(epoch_no: u64, epoch: &ModelEpoch) -> Self {
        ModelState {
            epoch: epoch_no,
            config: epoch.config,
            source: epoch.source_domain,
            target: epoch.target_domain,
            full: Arc::clone(&epoch.full),
            graph: Arc::clone(&epoch.graph),
            xsim: Arc::clone(&epoch.xsim),
            replacements: Arc::clone(&epoch.replacements),
            item_pools: epoch.item_pools.as_ref().map(Arc::clone),
            budget: epoch.budget.as_ref().map(Arc::clone),
        }
    }
}

impl xmap_store::Codec for ModelState {
    fn enc(&self, e: &mut xmap_store::Encoder) {
        e.put_u64(self.epoch);
        self.config.enc(e);
        self.source.enc(e);
        self.target.enc(e);
        self.full.enc(e);
        self.graph.enc(e);
        self.xsim.enc(e);
        self.replacements.enc(e);
        self.item_pools.enc(e);
        self.budget.enc(e);
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
            full: xmap_store::Codec::dec(d)?,
            graph: xmap_store::Codec::dec(d)?,
            xsim: xmap_store::Codec::dec(d)?,
            replacements: xmap_store::Codec::dec(d)?,
            item_pools: xmap_store::Codec::dec(d)?,
            budget: xmap_store::Codec::dec(d)?,
        })
    }
}

/// Rebuilds a live [`XMapModel`] from a decoded snapshot image: recomputes the mode's
/// recommender (a deterministic function of the persisted artifacts), and seeds the
/// epoch handle at the snapshot epoch so replayed deltas publish the exact journal
/// stamps.
fn model_from_state(state: ModelState) -> Result<XMapModel> {
    let ModelState {
        epoch: epoch_no,
        config,
        source,
        target,
        full,
        graph,
        xsim,
        replacements,
        item_pools,
        budget,
    } = state;
    let invalid = |m| XMapError::corrupt(format!("persisted configuration is invalid: {m}"));
    config.validate().map_err(invalid)?;
    if source == target {
        let detail = "persisted source and target domains are equal";
        return Err(XMapError::corrupt(detail));
    }
    // The pieces of one epoch share the matrix's item ids: a graph or pool table of
    // another size belongs to another model, and would serve its answers.
    let n_full = full.n_items();
    let mismatch = |piece: &str, n: usize| {
        let detail = format!("persisted {piece} covers {n} items, the matrix {n_full}");
        XMapError::corrupt(detail)
    };
    if graph.n_items() != full.n_items() {
        return Err(mismatch("graph", graph.n_items()));
    }

    let target_matrix = full
        .filter(|r| full.item_domain(r.item) == target)
        .map_err(|_| XMapError::corrupt("persisted matrix has no target-domain ratings"))?;

    let budget = if config.mode.is_private() {
        let missing = || XMapError::corrupt("private mode snapshot is missing its privacy ledger");
        Some(budget.ok_or_else(missing)?)
    } else {
        None
    };

    let item_pools = if config.mode.is_item_based() {
        let missing = || XMapError::corrupt("item-based mode snapshot is missing its kNN pools");
        Some(item_pools.ok_or_else(missing)?)
    } else {
        None
    };
    if let Some(pools) = item_pools.as_ref().filter(|p| p.len() != full.n_items()) {
        return Err(mismatch("kNN pool table", pools.len()));
    }
    // The item-based kernel multiplies every similarity by the zero term of an item a
    // profile lacks, and `±∞ · 0` is NaN: only finite similarities are served.
    let pools = item_pools.as_deref().map_or(&[][..], Vec::as_slice);
    if pools.iter().flatten().any(|n| !n.similarity.is_finite()) {
        let detail = "persisted kNN pool holds a non-finite similarity";
        return Err(XMapError::corrupt(detail));
    }
    // A fresh dataflow: the durations and task bags of the original fit are not
    // persisted, so the reopened model's stats report its shape and empty ledgers.
    let flow = Dataflow::new(config.workers, config.partitions);
    // The build's own call, so the recommender is bit-identical to the one the
    // persisting process held. Rebuilding over the persisted artifacts releases
    // nothing new: the persisted ledger already recorded their ε′, so no budget is
    // touched here.
    let (recommender, item_release) = recommend::build(
        &config,
        Arc::new(target_matrix),
        item_pools.as_ref().map(Arc::clone),
        flow.pool(),
    )?;

    let epoch = ModelEpoch {
        config,
        source_domain: source,
        target_domain: target,
        full,
        graph,
        replacements,
        xsim,
        recommender,
        item_pools,
        item_release,
        budget,
    };
    Ok(XMapModel::from_epoch(epoch, epoch_no, flow))
}

impl XMapModel {
    /// Attaches a durable store to the model: writes a snapshot of the current epoch
    /// into `dir` (atomically — temp file, fsync, rename) and opens a fresh delta
    /// journal based at that epoch. From here on, every [`XMapModel::apply_delta`]
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
        let (epoch_no, epoch) = self.handle.load();
        let state = ModelState::from_epoch(epoch_no, &epoch);
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        Snapshot::write(&snapshot_path, &state)?;
        let journal = Journal::create(&dir.join(JOURNAL_FILE), epoch_no)?;
        *self
            .store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(ModelStore {
            snapshot_path,
            journal,
        });
        Ok(epoch_no)
    }

    /// Opens a persisted model from its store directory: equivalent to
    /// [`XMapModel::recover`] with the directory's standard file names
    /// ([`SNAPSHOT_FILE`], [`JOURNAL_FILE`]).
    pub fn open(dir: &Path) -> Result<XMapModel> {
        Self::recover(&dir.join(SNAPSHOT_FILE), &dir.join(JOURNAL_FILE))
    }

    /// Crash recovery: loads the snapshot, replays every journal record newer than
    /// the snapshot epoch through the ordinary delta path, and re-attaches the store.
    ///
    /// The recovered model is bit-identical to the in-memory model that wrote the
    /// files (`apply_delta` is bit-identical to a full refit, and recomputed pieces
    /// are deterministic). A torn journal tail — a record cut short by a crash — is
    /// truncated away and recovery succeeds with the intact prefix; any *complete*
    /// but damaged record (bad CRC, wrong epoch stamp) fails with
    /// [`XMapError::Corrupt`]. Records at or below the snapshot epoch (left behind
    /// by a crash between compaction's snapshot rewrite and journal reset) are
    /// skipped. A missing journal file is treated as empty and recreated.
    pub fn recover(snapshot: &Path, journal: &Path) -> Result<XMapModel> {
        let state: ModelState = Snapshot::load(snapshot)?;
        let snapshot_epoch = state.epoch;
        let model = model_from_state(state)?;
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
        let mut current = snapshot_epoch;
        for record in &records {
            if record.epoch <= snapshot_epoch {
                continue; // compaction crash leftovers — already folded into the snapshot
            }
            let report = model.apply_delta(&record.value)?;
            if report.epoch != record.epoch {
                return Err(XMapError::Corrupt {
                    offset: record.offset,
                    detail: format!(
                        "journal record stamped epoch {} replayed as epoch {}",
                        record.epoch, report.epoch
                    ),
                });
            }
            current = report.epoch;
        }
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
        let (epoch_no, epoch) = self.handle.load();
        let state = ModelState::from_epoch(epoch_no, &epoch);
        Snapshot::write(&store.snapshot_path, &state)?;
        store.journal.reset(epoch_no)?;
        Ok(epoch_no)
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
    use crate::shard::{ShardMap, ShardSlice, SliceState};
    use crate::{XMapConfig, XMapMode};
    use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};
    use xmap_store::{crc32, encode_to_vec, FORMAT_VERSION, SNAPSHOT_MAGIC};

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
        let config = XMapConfig {
            mode: XMapMode::XMapItemBased,
            k: 8,
            ..Default::default()
        };
        let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config).unwrap();
        let dir = std::env::temp_dir().join(format!("xmap_snapshot_bytes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let epoch_no = model.persist(&dir).unwrap();
        let (_, epoch) = model.snapshot();
        assert_eq!(
            std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(),
            framed_by_copy(&ModelState::from_epoch(epoch_no, &epoch))
        );
        let map = ShardMap::uniform(ds.matrix.n_items() as u32, 3).unwrap();
        for shard in 0..3 {
            let state = SliceState {
                epoch: epoch_no,
                slice: Arc::new(ShardSlice::cut(&epoch, &map, shard)),
            };
            let path = dir.join(format!("shard{shard}.snap"));
            Snapshot::write(&path, &state).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), framed_by_copy(&state));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A CRC-valid snapshot carrying a smaller fit's graph or pools beside a larger
    /// matrix would serve another model's answers; it must not open.
    #[test]
    fn a_snapshot_whose_pieces_disagree_in_size_is_refused_as_corrupt() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let config = XMapConfig {
            mode: XMapMode::NxMapItemBased,
            k: 8,
            ..Default::default()
        };
        let fit = |matrix: &RatingMatrix| {
            let model = XMapModel::fit(matrix, DomainId::SOURCE, DomainId::TARGET, config);
            model.unwrap().snapshot().1
        };
        let new_item = ds.matrix.n_items() as u32;
        let mut delta = RatingDelta::new();
        delta
            .declare_item(xmap_cf::ItemId(new_item), DomainId::TARGET)
            .push_timed(ds.overlap_users[0].0, new_item, 4.0, 90);
        let small = fit(&ds.matrix);
        let large = fit(&ds
            .matrix
            .apply_delta(delta.ratings(), delta.item_domains())
            .unwrap());
        let dir = std::env::temp_dir().join(format!("xmap_mismatch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let open = |state: &ModelState| {
            Snapshot::write(&dir.join(SNAPSHOT_FILE), state).unwrap();
            let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
            XMapModel::open(&dir)
        };
        for (piece, graph_from, pools_from) in [
            ("graph", &small, &large),
            ("kNN pool table", &large, &small),
        ] {
            let mut state = ModelState::from_epoch(1, &large);
            state.graph = Arc::clone(&graph_from.graph);
            state.item_pools = pools_from.item_pools.clone();
            match open(&state) {
                Err(XMapError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(piece), "{detail}")
                }
                other => panic!("{piece}: a mismatched snapshot opened: {:?}", other.err()),
            }
        }
        assert!(open(&ModelState::from_epoch(1, &large)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A CRC-valid snapshot whose pools hold a NaN or an infinite similarity would
    /// score NaN for items the profile lacks; it must not open.
    #[test]
    fn a_snapshot_with_a_non_finite_pool_similarity_is_refused_as_corrupt() {
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
            let config = XMapConfig {
                mode,
                k: 8,
                ..Default::default()
            };
            let model = XMapModel::fit(&ds.matrix, DomainId::SOURCE, DomainId::TARGET, config);
            let (_, epoch) = model.unwrap().snapshot();
            let dir = std::env::temp_dir().join(format!("xmap_nan_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut state = ModelState::from_epoch(1, &epoch);
                let mut pools = state.item_pools.as_deref().unwrap().clone();
                let row = pools.iter_mut().rev().find(|row| !row.is_empty()).unwrap();
                row[0].similarity = bad;
                state.item_pools = Some(Arc::new(pools));
                Snapshot::write(&dir.join(SNAPSHOT_FILE), &state).unwrap();
                match XMapModel::open(&dir) {
                    Err(XMapError::Corrupt { detail, .. }) => {
                        assert!(detail.contains("non-finite"), "{detail}")
                    }
                    other => panic!("{mode:?}: a {bad} similarity opened: {:?}", other.err()),
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
