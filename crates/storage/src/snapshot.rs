//! Per-group snapshots: the state needed to restart a replica without the
//! truncated WAL prefix.
//!
//! A snapshot captures, for one transaction group at one decided log
//! prefix: the prefix position, the in-memory log truncation floor that was
//! in force when it was written (restart must restore the same floor so a
//! recovered replica's retained log matches the pre-crash one), the set of
//! committed transaction ids, and every live MVCC version of the group's
//! application rows.
//!
//! Files are written atomically — encode into one CRC-framed buffer, write
//! to a `.tmp` sibling, `fsync`, `rename` — so a crash mid-snapshot leaves
//! the previous snapshot intact. One file per group (`snap-g<id>.snap`),
//! always the newest: snapshots are cumulative, not incremental.

use crate::fault::StorageError;
use crate::frame::{begin_frame, finish_frame, push_decimal, read_frame, FrameRead};
use std::io::Write;
use std::path::{Path, PathBuf};
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
    /// Encode as an ASCII payload (numbers space-separated, strings
    /// length-prefixed `len:bytes`, mirroring the `walog` entry codec).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("digits, separators and `str` values are UTF-8")
    }

    /// [`GroupSnapshot::encode`] straight into `out` (the file's frame).
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"GS1");
        push_num(out, self.group.0 as u64);
        push_num(out, self.position.0);
        push_num(out, self.log_base.0);
        push_num(out, self.committed.len() as u64);
        for id in &self.committed {
            push_num(out, id.client as u64);
            push_num(out, id.seq);
        }
        push_num(out, self.rows.len() as u64);
        for row in &self.rows {
            push_num(out, row.key);
            push_num(out, row.versions.len() as u64);
            for (ts, attrs) in &row.versions {
                push_num(out, *ts);
                push_num(out, attrs.len() as u64);
                for (attr, value) in attrs {
                    let value = value.as_ref();
                    push_num(out, *attr as u64);
                    push_num(out, value.len() as u64);
                    out.push(b':');
                    out.extend_from_slice(value.as_bytes());
                }
            }
        }
    }
}

impl GroupSnapshot {
    /// Decode; `None` for malformed input.
    pub fn decode(input: &str) -> Option<GroupSnapshot> {
        let rest = input.strip_prefix("GS1")?;
        let mut cur = Cursor(rest);
        let group = GroupId(cur.num()? as u32);
        let position = LogPosition(cur.num()?);
        let log_base = LogPosition(cur.num()?);
        let ncommitted = cur.num()?;
        let mut committed = Vec::with_capacity(ncommitted as usize);
        for _ in 0..ncommitted {
            let client = cur.num()? as u32;
            let seq = cur.num()?;
            committed.push(TxnId::new(client, seq));
        }
        let nrows = cur.num()?;
        let mut rows = Vec::with_capacity(nrows as usize);
        for _ in 0..nrows {
            let key = cur.num()?;
            let nvers = cur.num()?;
            let mut versions = Vec::with_capacity(nvers as usize);
            for _ in 0..nvers {
                let ts = cur.num()?;
                let nattrs = cur.num()?;
                let mut attrs = Vec::with_capacity(nattrs as usize);
                for _ in 0..nattrs {
                    let attr = cur.num()? as u32;
                    let value = cur.str()?;
                    attrs.push((attr, value.to_string()));
                }
                versions.push((ts, attrs));
            }
            rows.push(SnapshotRow { key, versions });
        }
        Some(GroupSnapshot {
            group,
            position,
            log_base,
            committed,
            rows,
        })
    }
}

fn push_num(out: &mut Vec<u8>, n: u64) {
    out.push(b' ');
    push_decimal(out, n);
}

struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    fn num(&mut self) -> Option<u64> {
        let s = self.0.strip_prefix(' ')?;
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        if end == 0 {
            return None;
        }
        let n = s[..end].parse().ok()?;
        self.0 = &s[end..];
        Some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let s = self.0.strip_prefix(' ')?;
        let (len, rest) = s.split_once(':')?;
        let len: usize = len.parse().ok()?;
        let bytes = rest.get(..len)?;
        self.0 = &rest[len..];
        Some(bytes)
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
