//! The append-only delta journal.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic      "XMAPJRNL"              (8 bytes)
//! offset 8   version    u16 = JOURNAL_VERSION   (2 bytes)
//! offset 10  base_epoch u64                     (8 bytes)
//! offset 18  header_crc u32 over bytes [0, 18)  (4 bytes)
//! offset 22  records…
//! ```
//!
//! Each record frame is:
//!
//! ```text
//! len        u32   payload bytes
//! epoch      u64   epoch stamp (must be previous epoch + 1; first = base_epoch + 1)
//! payload    len bytes, Codec encoding
//! record_crc u32 over (len | epoch | payload)
//! ```
//!
//! Open semantics distinguish two kinds of damage:
//!
//! * a **torn tail** — the file ends inside the last record frame (the crash-mid-
//!   append case fsync-before-publish makes unobservable *after* a successful
//!   append, but possible when the process dies during one). The torn record was
//!   never acknowledged, so it is discarded and the file truncated back to the last
//!   whole record;
//! * **corruption** — a *complete* record whose CRC does not match, a non-contiguous
//!   epoch stamp, or a damaged header: reported as [`StoreError::Corrupt`] at the
//!   damaged record's offset (or the header field's), never silently skipped.
//!
//! Every [`Journal::append`] fsyncs before returning, so an acknowledged record
//! survives a crash (write-ahead discipline: the caller appends *before* publishing
//! the epoch the record produces).

use crate::codec::{decode_exact, Codec, Encoder};
use crate::crc::crc32;
use crate::{StoreError, JOURNAL_VERSION};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Leading magic of a journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"XMAPJRNL";

/// Header bytes: magic + version + base epoch + header CRC.
const HEADER_LEN: u64 = 8 + 2 + 8 + 4;

/// Fixed frame bytes around a record payload: len + epoch before, CRC after.
const FRAME_PREFIX: u64 = 4 + 8;
const FRAME_SUFFIX: u64 = 4;

/// One record recovered from a journal: its epoch stamp, the absolute byte offset
/// of its frame, and the decoded payload.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord<T> {
    /// The epoch this record's replay publishes.
    pub epoch: u64,
    /// Absolute byte offset of the record frame within the journal file.
    pub offset: u64,
    /// The decoded payload.
    pub value: T,
}

/// A [`StoreError::Corrupt`] whose detail names the offending file: a bare offset
/// cannot say *which* file is damaged, so every corruption this module reports is
/// attributed to its path.
fn corrupt_in(path: &Path, offset: u64, detail: impl std::fmt::Display) -> StoreError {
    StoreError::corrupt(offset, format!("{}: {detail}", path.display()))
}

/// Attributes an error bubbling out of a payload decode to the journal file it
/// came from (IO errors already carry their path and pass through unchanged).
fn attribute(path: &Path, err: StoreError) -> StoreError {
    match err {
        StoreError::Corrupt { offset, detail } => corrupt_in(path, offset, detail),
        other => other,
    }
}

/// An open append-only journal (see the module docs for framing and semantics).
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Byte offset one past the last valid record (where the next append lands).
    end: u64,
    base_epoch: u64,
    last_epoch: u64,
}

impl Journal {
    /// Creates (or truncates) a journal whose records will continue from
    /// `base_epoch` — i.e. the first appended record must be stamped
    /// `base_epoch + 1`. The header is fsynced before this returns.
    pub fn create(path: &Path, base_epoch: u64) -> Result<Journal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io(path, "create journal file", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&base_epoch.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| StoreError::io(path, "write journal header", e))?;
        file.sync_all()
            .map_err(|e| StoreError::io(path, "fsync journal header", e))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            end: HEADER_LEN,
            base_epoch,
            last_epoch: base_epoch,
        })
    }

    /// Opens an existing journal, verifying the header and every record frame
    /// (CRC + contiguous epoch stamps), decoding each payload as `T`.
    ///
    /// A torn tail record is discarded and the file truncated back to the last
    /// whole record; any *complete* but damaged record fails with
    /// [`StoreError::Corrupt`]. Returns the journal positioned for appending plus
    /// the surviving records in append order.
    pub fn open<T: Codec>(path: &Path) -> Result<(Journal, Vec<JournalRecord<T>>), StoreError> {
        let bytes =
            std::fs::read(path).map_err(|e| StoreError::io(path, "read journal file", e))?;
        if (bytes.len() as u64) < HEADER_LEN {
            return Err(corrupt_in(
                path,
                bytes.len() as u64,
                format!(
                    "journal header truncated: {} bytes, need {HEADER_LEN}",
                    bytes.len()
                ),
            ));
        }
        if bytes[..8] != JOURNAL_MAGIC {
            return Err(corrupt_in(path, 0, "bad journal magic"));
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != JOURNAL_VERSION {
            return Err(corrupt_in(
                path,
                8,
                format!(
                    "unsupported journal format version {version} (this build reads \
                     version {JOURNAL_VERSION})"
                ),
            ));
        }
        let stored_header_crc = u32::from_le_bytes([bytes[18], bytes[19], bytes[20], bytes[21]]);
        let computed_header_crc = crc32(&bytes[..18]);
        if stored_header_crc != computed_header_crc {
            return Err(corrupt_in(path, 18, "journal header checksum mismatch"));
        }
        let base_epoch = u64::from_le_bytes([
            bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17],
        ]);

        let mut records = Vec::new();
        let mut last_epoch = base_epoch;
        let mut pos = HEADER_LEN as usize;
        let mut torn = false;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if (remaining as u64) < FRAME_PREFIX {
                torn = true; // file ends inside a frame prefix
                break;
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as u64;
            let frame = FRAME_PREFIX + len + FRAME_SUFFIX;
            if (remaining as u64) < frame {
                torn = true; // file ends inside this record's payload or CRC
                break;
            }
            let body_end = pos + (FRAME_PREFIX + len) as usize;
            let stored_crc = u32::from_le_bytes([
                bytes[body_end],
                bytes[body_end + 1],
                bytes[body_end + 2],
                bytes[body_end + 3],
            ]);
            let computed_crc = crc32(&bytes[pos..body_end]);
            if stored_crc != computed_crc {
                return Err(corrupt_in(
                    path,
                    pos as u64,
                    format!(
                        "journal record checksum mismatch: stored {stored_crc:#010x}, \
                         computed {computed_crc:#010x}"
                    ),
                ));
            }
            let epoch = u64::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
                bytes[pos + 8],
                bytes[pos + 9],
                bytes[pos + 10],
                bytes[pos + 11],
            ]);
            if epoch != last_epoch + 1 {
                return Err(corrupt_in(
                    path,
                    pos as u64,
                    format!(
                        "journal epoch stamp {epoch} is not contiguous (previous was \
                         {last_epoch})"
                    ),
                ));
            }
            let payload = &bytes[pos + FRAME_PREFIX as usize..body_end];
            let value: T = decode_exact(payload, (pos as u64) + FRAME_PREFIX)
                .map_err(|e| attribute(path, e))?;
            records.push(JournalRecord {
                epoch,
                offset: pos as u64,
                value,
            });
            last_epoch = epoch;
            pos += frame as usize;
        }

        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, "open journal for append", e))?;
        if torn {
            // The torn record was never acknowledged; drop it so the next append
            // starts on a whole-record boundary.
            file.set_len(pos as u64)
                .map_err(|e| StoreError::io(path, "truncate torn journal tail", e))?;
            file.sync_all()
                .map_err(|e| StoreError::io(path, "fsync truncated journal", e))?;
        }
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
                end: pos as u64,
                base_epoch,
                last_epoch,
            },
            records,
        ))
    }

    /// Appends one record stamped `epoch` (which must be `last_epoch() + 1`) and
    /// fsyncs it, returning the absolute byte offset of the record frame. The payload
    /// is encoded straight into the frame, its length field back-patched. A stamp
    /// other than `last_epoch() + 1`, or a payload the `u32` length field cannot state,
    /// is refused before anything is written. On any error nothing is acknowledged —
    /// the caller must not publish the epoch.
    pub fn append<T: Codec>(&mut self, epoch: u64, value: &T) -> Result<u64, StoreError> {
        if epoch != self.last_epoch + 1 {
            return Err(corrupt_in(
                &self.path,
                self.end,
                format!(
                    "refusing non-contiguous append: epoch {epoch} after {}",
                    self.last_epoch
                ),
            ));
        }
        let mut e = Encoder::new();
        e.put_u32(0); // payload length, patched once the payload is in
        e.put_u64(epoch);
        value.enc(&mut e);
        let mut frame = e.into_bytes();
        let payload_len = frame.len() as u64 - FRAME_PREFIX;
        if payload_len > u64::from(u32::MAX) {
            return Err(corrupt_in(
                &self.path,
                self.end,
                format!("refusing a {payload_len}-byte record: the frame states at most 4 GiB"),
            ));
        }
        frame[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        self.file
            .seek(SeekFrom::Start(self.end))
            .map_err(|e| StoreError::io(&self.path, "seek to journal end", e))?;
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io(&self.path, "append journal record", e))?;
        self.file
            .sync_all()
            .map_err(|e| StoreError::io(&self.path, "fsync journal record", e))?;
        let offset = self.end;
        self.end += frame.len() as u64;
        self.last_epoch = epoch;
        Ok(offset)
    }

    /// Truncates the journal back to an empty record section and restamps its base
    /// epoch — the compaction step after the folded snapshot has been written.
    pub fn reset(&mut self, base_epoch: u64) -> Result<(), StoreError> {
        self.file
            .set_len(0)
            .map_err(|e| StoreError::io(&self.path, "truncate journal for compaction", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&base_epoch.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::io(&self.path, "seek to journal start", e))?;
        self.file
            .write_all(&header)
            .map_err(|e| StoreError::io(&self.path, "rewrite journal header", e))?;
        self.file
            .sync_all()
            .map_err(|e| StoreError::io(&self.path, "fsync compacted journal", e))?;
        self.end = HEADER_LEN;
        self.base_epoch = base_epoch;
        self.last_epoch = base_epoch;
        Ok(())
    }

    /// The epoch the snapshot this journal extends was taken at; the first record
    /// is stamped `base_epoch() + 1`.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The epoch stamp of the most recent record (`base_epoch()` when empty).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Total valid bytes: header plus every acknowledged record frame.
    pub fn len_bytes(&self) -> u64 {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xmap-store-jrnl-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    type Rec = (Vec<u32>, String);

    fn sample_records() -> Vec<Rec> {
        vec![
            (vec![1, 2, 3], String::from("first")),
            (vec![], String::from("second")),
            (vec![42; 17], String::from("third")),
        ]
    }

    fn write_journal(path: &Path) -> Vec<Rec> {
        let records = sample_records();
        let mut journal = Journal::create(path, 1).unwrap();
        for (i, rec) in records.iter().enumerate() {
            let offset = journal.append(2 + i as u64, rec).unwrap();
            assert!(offset >= HEADER_LEN);
        }
        records
    }

    #[test]
    fn roundtrip_append_open() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("deltas.journal");
        let written = write_journal(&path);
        let (journal, records) = Journal::open::<Rec>(&path).unwrap();
        assert_eq!(journal.base_epoch(), 1);
        assert_eq!(journal.last_epoch(), 4);
        assert_eq!(records.len(), written.len());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.epoch, 2 + i as u64);
            assert_eq!(rec.value, written[i]);
        }
        // Offsets are strictly increasing and start right after the header.
        assert_eq!(records[0].offset, HEADER_LEN);
        assert!(records.windows(2).all(|w| w[0].offset < w[1].offset));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_continues_after_reopen() {
        let dir = temp_dir("reopen");
        let path = dir.join("deltas.journal");
        write_journal(&path);
        let (mut journal, _) = Journal::open::<Rec>(&path).unwrap();
        journal
            .append(5, &(vec![9u32], String::from("late")))
            .unwrap();
        let (journal, records) = Journal::open::<Rec>(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(journal.last_epoch(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The record frame built by copying: the payload
    /// encoded on its own, then copied behind the length and epoch.
    fn framed_by_copy<T: Codec>(epoch: u64, value: &T) -> Vec<u8> {
        let payload = crate::codec::encode_to_vec(value);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&epoch.to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    #[test]
    fn appends_keep_the_copying_appends_bytes() {
        let dir = temp_dir("bytes");
        let path = dir.join("deltas.journal");
        let records = write_journal(&path);
        let bytes = fs::read(&path).unwrap();
        let mut expected = bytes[..HEADER_LEN as usize].to_vec();
        for (i, rec) in records.iter().enumerate() {
            expected.extend_from_slice(&framed_by_copy(2 + i as u64, rec));
        }
        assert_eq!(bytes, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One record appended at its epoch to two journals writes the same bytes to both,
    /// and appending it again at the same stamp is refused.
    #[test]
    fn one_frame_appends_to_every_journal_at_its_epoch() {
        let dir = temp_dir("shared-frame");
        let [a, b] = ["a.journal", "b.journal"].map(|name| dir.join(name));
        let record = (vec![7u32], String::from("shared"));
        for path in [&a, &b] {
            let mut journal = Journal::create(path, 3).unwrap();
            journal.append(4, &record).unwrap();
            let err = journal.append(4, &record).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "a replayed stamp"
            );
        }
        assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        let (journal, records) = Journal::open::<Rec>(&b).unwrap();
        assert_eq!(journal.last_epoch(), 4);
        assert_eq!(records[0].value, (vec![7u32], String::from("shared")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_contiguous_append_is_refused() {
        let dir = temp_dir("gap");
        let path = dir.join("deltas.journal");
        let mut journal = Journal::create(&path, 7).unwrap();
        let err = journal.append(9, &(vec![0u32], String::new())).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        journal.append(8, &(vec![0u32], String::new())).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_restamps_and_truncates() {
        let dir = temp_dir("reset");
        let path = dir.join("deltas.journal");
        write_journal(&path);
        let (mut journal, _) = Journal::open::<Rec>(&path).unwrap();
        journal.reset(4).unwrap();
        assert_eq!(journal.len_bytes(), HEADER_LEN);
        journal
            .append(5, &(vec![1u32], String::from("post")))
            .unwrap();
        let (journal, records) = Journal::open::<Rec>(&path).unwrap();
        assert_eq!(journal.base_epoch(), 4);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_yields_a_prefix_or_corrupt() {
        let dir = temp_dir("truncate");
        let path = dir.join("deltas.journal");
        let written = write_journal(&path);
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            match Journal::open::<Rec>(&path) {
                Ok((_, records)) => {
                    // A cut inside the record section tears the tail: the surviving
                    // records must be an exact prefix of what was written.
                    assert!(
                        cut >= HEADER_LEN as usize,
                        "cut {cut} inside header must fail"
                    );
                    assert!(records.len() <= written.len());
                    for (rec, orig) in records.iter().zip(&written) {
                        assert_eq!(&rec.value, orig, "cut {cut}: diverged record");
                    }
                }
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_yields_a_prefix_or_corrupt() {
        let dir = temp_dir("flip");
        let path = dir.join("deltas.journal");
        let written = write_journal(&path);
        let bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x80;
            fs::write(&path, &flipped).unwrap();
            match Journal::open::<Rec>(&path) {
                Ok((_, records)) => {
                    // A flip in the *last* record's length prefix can turn it into a
                    // torn tail (frame now extends past EOF) — that record is
                    // discarded. Whatever survives must be an unflipped prefix.
                    assert!(records.len() < written.len(), "flip {i} silently accepted");
                    for (rec, orig) in records.iter().zip(&written) {
                        assert_eq!(&rec.value, orig, "flip {i}: diverged record");
                    }
                }
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => panic!("flip {i}: unexpected error {other}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
