//! # xmap-store — durable model state
//!
//! The persistence layer under the ROADMAP's service track: a versioned,
//! length-prefixed, checksummed binary codec ([`Codec`] / [`Encoder`] / [`Decoder`]),
//! an atomically written model snapshot ([`Snapshot`]) and an append-only delta
//! journal ([`Journal`]) with per-record CRCs and monotone epoch stamps.
//!
//! The crate is a dependency-free leaf: it defines the *format* and the file
//! plumbing, while every persisted value — the rating matrix, the model
//! configuration and the journalled rating deltas, the state nothing can derive —
//! implements [`Codec`] next to its own definition so private fields stay private.
//!
//! ## Durability contract
//!
//! * Snapshots are written write-temp → fsync → rename, so a crash never leaves a
//!   half-written snapshot under the live name, and carry a whole-file footer CRC.
//! * Journal records are CRC-framed and epoch-stamped; a torn tail record (the file
//!   ends mid-record) is discarded on open, while a *complete* record that fails its
//!   CRC — or a non-contiguous epoch stamp — is reported as [`StoreError::Corrupt`]
//!   with the byte offset of the damage.
//! * Every decode path is bounds-checked: corrupt bytes produce
//!   [`StoreError::Corrupt`], never a panic.
//! * The on-disk format versions are explicit ([`FORMAT_VERSION`] for snapshots,
//!   [`JOURNAL_VERSION`] for journals); a file stamped with any other version is
//!   refused rather than misread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod codec;
mod crc;
mod journal;
mod snapshot;

pub use codec::{decode_exact, encode_to_vec, Codec, Decoder, Encoder};
pub use crc::{crc32, Crc32};
pub use journal::{Journal, JournalRecord, JOURNAL_MAGIC};
pub use snapshot::{Snapshot, SNAPSHOT_MAGIC};

use std::fmt;
use std::path::{Path, PathBuf};

/// The snapshot format version this build reads and writes. A snapshot stamped with
/// any other version is refused ([`StoreError::Corrupt`] naming the version) instead
/// of being decoded with the wrong layout. Version 2 holds the configuration and the
/// rating matrix only; version 1 also held every derived table.
pub const FORMAT_VERSION: u16 = 2;

/// The journal format version this build reads and writes, refused like
/// [`FORMAT_VERSION`] when it differs. Journal records are `RatingDelta`s in both
/// snapshot versions, so it did not move with the snapshot's.
pub const JOURNAL_VERSION: u16 = 1;

/// Errors of the persistence layer.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure, with the path and the operation that failed.
    Io {
        /// The file (or directory) the operation touched.
        path: PathBuf,
        /// What the store was doing when the failure happened.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The bytes on disk are not a valid snapshot/journal: checksum mismatch,
    /// truncation, an unknown format version, or an out-of-range field.
    Corrupt {
        /// Absolute byte offset (within the file) of the damage.
        offset: u64,
        /// What was wrong at that offset.
        detail: String,
    },
}

impl StoreError {
    /// Builds an [`StoreError::Io`] with the conventional `path`/`context` shape.
    pub fn io(path: &Path, context: impl Into<String>, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.to_path_buf(),
            context: context.into(),
            source,
        }
    }

    /// Builds an [`StoreError::Corrupt`] at an absolute file offset.
    pub fn corrupt(offset: u64, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            offset,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                path,
                context,
                source,
            } => {
                write!(f, "io error at {}: {context}: {source}", path.display())
            }
            StoreError::Corrupt { offset, detail } => {
                write!(f, "corrupt store data at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } => None,
        }
    }
}
