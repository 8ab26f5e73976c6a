//! Atomic, checksummed model snapshots.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic      "XMAPSNAP"              (8 bytes)
//! offset 8   version    u16 = FORMAT_VERSION    (2 bytes)
//! offset 10  payload_len u64                    (8 bytes)
//! offset 18  payload    Codec encoding          (payload_len bytes)
//! offset 18+payload_len  crc  u32 over bytes [0, 18+payload_len)
//! ```
//!
//! Writes are crash-atomic: the bytes go to a sibling `*.tmp` file which is fsynced
//! and then renamed over the live name (the parent directory is fsynced too), so a
//! reader never observes a half-written snapshot. Any truncation or byte flip —
//! anywhere in the file, footer included — fails the load with
//! [`StoreError::Corrupt`]; a version stamp other than [`FORMAT_VERSION`] is refused
//! rather than misread.

use crate::codec::{Codec, Decoder, Encoder};
use crate::crc::crc32;
use crate::{StoreError, FORMAT_VERSION};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic of a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XMAPSNAP";

/// Header bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 2 + 8;

/// Atomic snapshot reader/writer (see the module docs for the byte layout).
pub struct Snapshot;

impl Snapshot {
    /// Serializes `value` and atomically replaces whatever is at `path`. The payload
    /// is encoded straight behind the header, its length field back-patched, and the
    /// file goes to a sibling temp file → fsync → rename → fsync of the directory.
    pub fn write<T: Codec>(path: &Path, value: &T) -> Result<(), StoreError> {
        let mut e = Encoder::new();
        e.put_raw(&SNAPSHOT_MAGIC);
        e.put_u16(FORMAT_VERSION);
        e.put_u64(0); // payload length, patched once the payload is in
        value.enc(&mut e);
        let mut body = e.into_bytes();
        let payload_len = (body.len() - HEADER_LEN) as u64;
        body[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let tmp = tmp_path(path);
        {
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| StoreError::io(&tmp, "create snapshot temp file", e))?;
            file.write_all(&body)
                .map_err(|e| StoreError::io(&tmp, "write snapshot bytes", e))?;
            file.sync_all()
                .map_err(|e| StoreError::io(&tmp, "fsync snapshot temp file", e))?;
        }
        fs::rename(&tmp, path)
            .map_err(|e| StoreError::io(path, "rename snapshot into place", e))?;
        sync_parent_dir(path)?;
        Ok(())
    }

    /// Loads and verifies a snapshot: magic, version (forward-refusal), framing and
    /// the whole-file CRC are checked before a single payload byte is decoded.
    pub fn load<T: Codec>(path: &Path) -> Result<T, StoreError> {
        let bytes = fs::read(path).map_err(|e| StoreError::io(path, "read snapshot file", e))?;
        if bytes.len() < HEADER_LEN + 4 {
            return Err(StoreError::corrupt(
                bytes.len() as u64,
                format!(
                    "snapshot truncated: {} bytes, need at least {}",
                    bytes.len(),
                    HEADER_LEN + 4
                ),
            ));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(StoreError::corrupt(0, "bad snapshot magic"));
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::corrupt(
                8,
                format!(
                    "unsupported snapshot format version {version} (this build reads \
                     version {FORMAT_VERSION})"
                ),
            ));
        }
        let payload_len = u64::from_le_bytes([
            bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17],
        ]);
        let expected_total = (HEADER_LEN as u64)
            .checked_add(payload_len)
            .and_then(|v| v.checked_add(4));
        if expected_total != Some(bytes.len() as u64) {
            return Err(StoreError::corrupt(
                10,
                format!(
                    "snapshot framing mismatch: header says {payload_len} payload bytes, \
                     file has {} total",
                    bytes.len()
                ),
            ));
        }
        let crc_at = bytes.len() - 4;
        let stored = u32::from_le_bytes([
            bytes[crc_at],
            bytes[crc_at + 1],
            bytes[crc_at + 2],
            bytes[crc_at + 3],
        ]);
        let computed = crc32(&bytes[..crc_at]);
        if stored != computed {
            return Err(StoreError::corrupt(
                crc_at as u64,
                format!(
                    "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ),
            ));
        }
        let mut d = Decoder::with_base(&bytes[HEADER_LEN..crc_at], HEADER_LEN as u64);
        let value = T::dec(&mut d)?;
        d.finish()?;
        Ok(value)
    }
}

/// The sibling temp name the atomic write stages into.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path`, making the rename itself durable.
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let handle =
            File::open(dir).map_err(|e| StoreError::io(dir, "open snapshot directory", e))?;
        handle
            .sync_all()
            .map_err(|e| StoreError::io(dir, "fsync snapshot directory", e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xmap-store-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_overwrite() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("model.snap");
        let value = (vec![1u64, 2, 3], String::from("payload"), Some(0.5f64));
        Snapshot::write(&path, &value).unwrap();
        let back: (Vec<u64>, String, Option<f64>) = Snapshot::load(&path).unwrap();
        assert_eq!(back, value);

        let next = (vec![9u64], String::from("v2"), None);
        Snapshot::write(&path, &next).unwrap();
        let back: (Vec<u64>, String, Option<f64>) = Snapshot::load(&path).unwrap();
        assert_eq!(back, next);
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io() {
        let dir = temp_dir("missing");
        let err = Snapshot::load::<u64>(&dir.join("absent.snap")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_format_version_is_refused() {
        let dir = temp_dir("version");
        let path = dir.join("model.snap");
        Snapshot::write(&path, &7u64).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = FORMAT_VERSION as u8 + 1; // bump the version stamp
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes()); // keep the CRC valid
        fs::write(&path, &bytes).unwrap();
        let err = Snapshot::load::<u64>(&path).unwrap_err();
        match err {
            StoreError::Corrupt { detail, .. } => {
                assert!(
                    detail.contains("unsupported snapshot format version"),
                    "{detail}"
                )
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_is_corrupt() {
        let dir = temp_dir("truncate");
        let path = dir.join("model.snap");
        let value = (vec![3u64, 1, 4, 1, 5], String::from("pi"));
        Snapshot::write(&path, &value).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = Snapshot::load::<(Vec<u64>, String)>(&path)
                .expect_err("truncated snapshot must fail");
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_flip_is_corrupt() {
        let dir = temp_dir("flip");
        let path = dir.join("model.snap");
        let value = (vec![3u64, 1, 4], String::from("pi"));
        Snapshot::write(&path, &value).unwrap();
        let bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            fs::write(&path, &flipped).unwrap();
            let err = Snapshot::load::<(Vec<u64>, String)>(&path)
                .expect_err("flipped snapshot must fail");
            assert!(matches!(err, StoreError::Corrupt { .. }), "flip {i}: {err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
