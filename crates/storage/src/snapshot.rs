//! Per-group snapshots: the state needed to restart a replica without the
//! truncated WAL prefix.
//!
//! A snapshot captures, for one transaction group at one decided log
//! prefix: the prefix position, the in-memory log truncation floor that was
//! in force when it was written (restart must restore the same floor so a
//! recovered replica's retained log matches the pre-crash one), the set of
//! committed transaction ids, and every live MVCC version of the group's
//! application rows. The same shape is what a datacenter ships a lagging
//! peer that needs positions it truncated: the peer restores it exactly as
//! a restart restores the file.
//!
//! The payload is [`walog::codec`] text: `GS1`, then the fields above as
//! decimals, and each attribute value as a `len:bytes` string.
//!
//! Files are written atomically — encode into one CRC-framed buffer, write
//! to a `.tmp` sibling, `fsync`, `rename` — so a crash mid-snapshot leaves
//! the previous snapshot intact. One file per group (`snap-g<id>.snap`),
//! always the newest: snapshots are cumulative, not incremental.

use crate::fault::StorageError;
use crate::frame::{begin_frame, finish_frame, read_frame, FrameRead};
use std::io::Write;
use std::path::{Path, PathBuf};
use walog::codec::{Reader, TokenWriter};
use walog::{GroupId, LogPosition, TxnId};

/// One MVCC key with every version retained at snapshot time. Values are
/// `V`: owned `String`s when read back from disk, anything string-like —
/// the snapshot writer borrows `&str` out of the store's rows — on the way
/// there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotRow<V = String> {
    /// The packed store key (group in the high bits, row key in the low).
    pub key: u64,
    /// `(timestamp, attributes)` per retained version, ascending.
    pub versions: Vec<(u64, Vec<(u32, V)>)>,
}

/// A complete per-group snapshot (see [`SnapshotRow`] for `V`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSnapshot<V = String> {
    /// The transaction group.
    pub group: GroupId,
    /// Decided log prefix the snapshot covers (rows reflect every entry
    /// applied through this position).
    pub position: LogPosition,
    /// In-memory log truncation floor in force when the snapshot was
    /// written; restart restores the log base to this position.
    pub log_base: LogPosition,
    /// Committed transaction ids indexed for this group.
    pub committed: Vec<TxnId>,
    /// Application rows with their retained versions.
    pub rows: Vec<SnapshotRow<V>>,
}

impl<V: AsRef<str>> GroupSnapshot<V> {
    /// Encode as the file's payload, in the [`walog::codec`] token format.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// [`GroupSnapshot::encode`] straight into `out` (the file's frame).
    fn encode_into(&self, out: &mut impl TokenWriter) {
        out.raw("GS1");
        out.num(u64::from(self.group.0));
        out.num(self.position.0);
        out.num(self.log_base.0);
        out.num(self.committed.len() as u64);
        for id in &self.committed {
            out.num(u64::from(id.client));
            out.num(id.seq);
        }
        out.num(self.rows.len() as u64);
        for row in &self.rows {
            out.num(row.key);
            out.num(row.versions.len() as u64);
            for (ts, attrs) in &row.versions {
                out.num(*ts);
                out.num(attrs.len() as u64);
                for (attr, value) in attrs {
                    out.num(u64::from(*attr));
                    out.string(value.as_ref());
                }
            }
        }
    }
}

impl GroupSnapshot {
    /// Decode; `None` for malformed input.
    pub fn decode(input: &str) -> Option<GroupSnapshot> {
        let mut r = Reader::new(input);
        r.tag("GS1")?;
        let group = GroupId(r.id()?);
        let position = LogPosition(r.num()?);
        let log_base = LogPosition(r.num()?);
        let ncommitted = r.count()?;
        let mut committed = Vec::with_capacity(ncommitted);
        for _ in 0..ncommitted {
            committed.push(TxnId::new(r.id()?, r.num()?));
        }
        let nrows = r.count()?;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let key = r.num()?;
            let nversions = r.count()?;
            let mut versions = Vec::with_capacity(nversions);
            for _ in 0..nversions {
                let ts = r.num()?;
                let nattrs = r.count()?;
                let mut attrs = Vec::with_capacity(nattrs);
                for _ in 0..nattrs {
                    attrs.push((r.id()?, r.string()?.to_string()));
                }
                versions.push((ts, attrs));
            }
            rows.push(SnapshotRow { key, versions });
        }
        r.end()?;
        Some(GroupSnapshot {
            group,
            position,
            log_base,
            committed,
            rows,
        })
    }
}

/// Directory of per-group snapshot files with atomic replace.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

fn snapshot_path(dir: &Path, group: GroupId) -> PathBuf {
    dir.join(format!("snap-g{}.snap", group.0))
}

impl SnapshotStore {
    /// Open (creating) the snapshot directory.
    pub fn open(dir: &Path) -> Result<SnapshotStore, StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("mkdir", dir, e))?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
        })
    }

    /// Atomically replace the group's snapshot file.
    pub fn save<V: AsRef<str>>(&self, snap: &GroupSnapshot<V>) -> Result<(), StorageError> {
        let mut framed = Vec::new();
        let frame = begin_frame(&mut framed);
        snap.encode_into(&mut framed);
        finish_frame(&mut framed, frame);
        let path = snapshot_path(&self.dir, snap.group);
        let tmp = path.with_extension("tmp");
        let mut file =
            std::fs::File::create(&tmp).map_err(|e| StorageError::io("create", &tmp, e))?;
        file.write_all(&framed)
            .map_err(|e| StorageError::io("write", &tmp, e))?;
        file.sync_data().map_err(|_| StorageError::SyncFailed {
            path: tmp.display().to_string(),
            injected: false,
        })?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(|e| StorageError::io("rename", &path, e))
    }

    /// Load every readable snapshot; files that fail the CRC or the codec
    /// are skipped (a torn snapshot write is survivable — the WAL still
    /// holds everything) and counted in the second return value.
    pub fn load_all(&self) -> Result<(Vec<GroupSnapshot>, usize), StorageError> {
        let mut snaps = Vec::new();
        let mut corrupt = 0;
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| StorageError::io("readdir", &self.dir, e))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name().is_some_and(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("snap-g") && n.ends_with(".snap")
                })
            })
            .collect();
        paths.sort();
        for path in paths {
            let data = std::fs::read(&path).map_err(|e| StorageError::io("read", &path, e))?;
            let decoded = match read_frame(&data, 0) {
                FrameRead::Frame { payload, .. } => std::str::from_utf8(payload)
                    .ok()
                    .and_then(GroupSnapshot::decode),
                _ => None,
            };
            match decoded {
                Some(snap) => snaps.push(snap),
                None => corrupt += 1,
            }
        }
        Ok((snaps, corrupt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn sample(group: u32) -> GroupSnapshot {
        GroupSnapshot {
            group: GroupId(group),
            position: LogPosition(40),
            log_base: LogPosition(24),
            committed: vec![TxnId::new(1, 2), TxnId::new(3, 4)],
            rows: vec![SnapshotRow {
                key: (u64::from(group) << 32) | 7,
                versions: vec![
                    (38, vec![(0, "hello world".to_string()), (2, String::new())]),
                    (40, vec![(0, "colon:and space".to_string())]),
                ],
            }],
        }
    }

    #[test]
    fn codec_roundtrips() {
        let snap = sample(3);
        assert_eq!(GroupSnapshot::decode(&snap.encode()).unwrap(), snap);
        assert!(GroupSnapshot::decode("GS9 1").is_none());
        assert!(GroupSnapshot::decode("GS1 1 2").is_none());
    }

    /// The on-disk format does not move: one snapshot file, byte for byte
    /// as the `String`-per-integer codec before PR 23 wrote it.
    #[test]
    fn snapshot_file_matches_its_golden_bytes() {
        let payload = "GS1 3 40 24 2 1 2 3 4 1 12884901895 2 38 2 0 11:hello world 2 0: \
                       40 1 0 15:colon:and space";
        let mut golden = vec![90, 0, 0, 0, 235, 78, 124, 231];
        golden.extend_from_slice(payload.as_bytes());
        let snap = sample(3);
        assert_eq!(snap.encode(), payload);
        let dir = TempDir::new("snap-golden");
        let store = SnapshotStore::open(dir.path()).unwrap();
        let file = snapshot_path(dir.path(), GroupId(3));
        store.save(&snap).unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), golden);
    }

    #[test]
    fn save_load_roundtrips_per_group() {
        let dir = TempDir::new("snap-roundtrip");
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(&sample(0)).unwrap();
        store.save(&sample(2)).unwrap();
        // Replacing a group's snapshot keeps one file per group.
        let mut newer = sample(0);
        newer.position = LogPosition(99);
        store.save(&newer).unwrap();
        let (snaps, corrupt) = store.load_all().unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].position, LogPosition(99));
        assert_eq!(snaps[1], sample(2));
    }

    #[test]
    fn corrupt_snapshot_is_skipped_not_fatal() {
        let dir = TempDir::new("snap-corrupt");
        let store = SnapshotStore::open(dir.path()).unwrap();
        store.save(&sample(1)).unwrap();
        let victim = snapshot_path(dir.path(), GroupId(1));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();
        let (snaps, corrupt) = store.load_all().unwrap();
        assert!(snaps.is_empty());
        assert_eq!(corrupt, 1);
    }
}
