//! Typed storage errors and deterministic disk-fault injection.
//!
//! The chaos harness needs disks that fail on purpose: a crash can tear the
//! final WAL frame, a file can come back short, and `fsync` can report an
//! error. Each shows up here as a typed value — no `panic!`, no stringly
//! `io::Error` guessing — so the recovery paths can be tested the same way
//! the network paths are.

use std::fmt;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// A typed failure from the storage plane.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// What was being attempted (`open`, `write`, `rename`, ...).
        op: &'static str,
        /// File the operation targeted.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// `fsync` failed — the records covered by this sync MUST NOT be
    /// acknowledged (they may or may not be on disk).
    SyncFailed {
        /// File whose sync failed.
        path: String,
        /// True when the failure came from [`FaultPlan`] injection rather
        /// than the operating system.
        injected: bool,
    },
    /// A file's contents failed structural validation (bad frame, bad
    /// record encoding) somewhere replay cannot tolerate.
    Corrupt {
        /// File that failed validation.
        path: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, path, detail } => {
                write!(f, "storage i/o failure: {op} {path}: {detail}")
            }
            StorageError::SyncFailed { path, injected } => {
                let how = if *injected { "injected" } else { "os" };
                write!(f, "fsync failed ({how}) on {path}: records not durable")
            }
            StorageError::Corrupt { path, detail } => {
                write!(f, "corrupt storage file {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    pub(crate) fn io(op: &'static str, path: &Path, err: std::io::Error) -> StorageError {
        StorageError::Io {
            op,
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }
}

/// Deterministic fault schedule for one storage instance.
///
/// Faults are armed by tests and the chaos harness; the storage plane
/// consumes them at well-defined points (currently: sync). The plan is
/// plain counters — no randomness — so failures land at exactly the chosen
/// operations.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    fail_syncs: u32,
    injected_sync_failures: u64,
}

impl FaultPlan {
    /// Arm the next `n` sync calls to fail with [`StorageError::SyncFailed`].
    pub fn fail_next_syncs(&mut self, n: u32) {
        self.fail_syncs += n;
    }

    /// Number of syncs failed by injection so far.
    pub fn injected_sync_failures(&self) -> u64 {
        self.injected_sync_failures
    }

    /// Consume one armed sync failure, if any.
    pub(crate) fn take_sync_failure(&mut self) -> bool {
        if self.fail_syncs > 0 {
            self.fail_syncs -= 1;
            self.injected_sync_failures += 1;
            true
        } else {
            false
        }
    }
}

/// Write a torn (incomplete) frame at the logical tail of WAL segment
/// `path` — right behind its last whole record, over the start of the
/// preallocated zero tail if the segment still has one: a header promising
/// a 64-byte payload followed by a few garbage bytes, exactly what a crash
/// mid-append leaves behind. Replay must stop cleanly at this point.
pub fn tear_tail(path: &Path) -> Result<(), StorageError> {
    let tail = crate::wal::logical_len(path)?;
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StorageError::io("open", path, e))?;
    write_torn_frame(&mut file, tail, path)
}

/// Write [`tear_tail`]'s torn frame at offset `at` of `file`, the segment
/// at `path`.
pub(crate) fn write_torn_frame(file: &mut File, at: u64, path: &Path) -> Result<(), StorageError> {
    let mut junk = Vec::new();
    junk.extend_from_slice(&64u32.to_le_bytes());
    junk.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    junk.extend_from_slice(&[0xA5, 0x5A, 0x7E, 0x81, 0x3C]);
    file.seek(SeekFrom::Start(at))
        .and_then(|_| file.write_all(&junk))
        .map_err(|e| StorageError::io("write", path, e))
}

/// Cut WAL segment `path` `drop` bytes short of its logical tail (the zero
/// tail, if any, goes with them), simulating a short read of the final
/// record (e.g. a sector that never made it to the platter).
pub fn shorten_tail(path: &Path, drop: u64) -> Result<(), StorageError> {
    let tail = crate::wal::logical_len(path)?;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StorageError::io("open", path, e))?;
    file.set_len(tail.saturating_sub(drop))
        .map_err(|e| StorageError::io("truncate", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_counts_down() {
        let mut plan = FaultPlan::default();
        plan.fail_next_syncs(2);
        assert!(plan.take_sync_failure());
        assert!(plan.take_sync_failure());
        assert!(!plan.take_sync_failure());
        assert_eq!(plan.injected_sync_failures(), 2);
    }

    #[test]
    fn errors_render_their_shape() {
        let e = StorageError::SyncFailed {
            path: "wal-000001.seg".into(),
            injected: true,
        };
        assert!(e.to_string().contains("injected"));
        let e = StorageError::Corrupt {
            path: "snap-g0.snap".into(),
            detail: "bad frame".into(),
        };
        assert!(e.to_string().contains("snap-g0.snap"));
    }
}
