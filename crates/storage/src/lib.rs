//! # storage — the durable storage plane
//!
//! Everything below the replication protocol that touches a disk lives
//! here. The crate gives each datacenter a [`DcStorage`] handle bundling:
//!
//! * a segmented, CRC-framed **write-ahead log** ([`wal`]) in
//!   preallocated segments, through which acceptor promises and votes
//!   become durable *before* they are acknowledged (persist-before-ack),
//!   one sync per batch of held acknowledgements, and decided log entries
//!   before they apply, riding the same syncs;
//! * **per-group snapshots** ([`snapshot`]) written atomically, which
//!   together with whole-segment WAL truncation bound recovery time and
//!   disk usage — truncation never crosses an open read lease's position
//!   or the MVCC version floor (the caller computes floors from the GC
//!   watermark, which already encodes both). A snapshot exists only to let
//!   the WAL be truncated, so one is cut only while a *sealed* segment
//!   still holds the group's records ([`DcStorage::snapshot_due`]);
//!   `snapshot_every` is the minimum spacing between two of them;
//! * **typed disk faults** ([`fault`]): torn tails, short reads and fsync
//!   failures as first-class, injectable outcomes.
//!
//! The whole plane is optional: [`StorageConfig::InMemory`] (the default)
//! keeps the original purely in-memory behavior, which is what unit tests
//! and most simulations run. [`StorageConfig::Durable`] points at a
//! directory and turns every knob on.
//!
//! This mirrors the Spinnaker design (Rao et al., VLDB 2011) the paper's
//! availability story assumes underneath message-level replication: a
//! replica recovers from local log + snapshot first, then catches up from
//! its peers through the ordinary install path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod snapshot;
#[cfg(test)]
mod testutil;
pub mod wal;

pub use fault::{FaultPlan, StorageError};
pub use snapshot::{GroupSnapshot, SnapshotRow, SnapshotStore};
pub use wal::{Wal, WalRecord, WalReplay};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use walog::{GroupId, LogPosition};

/// Whether (and how) a datacenter persists its state.
#[derive(Clone, Debug, Default)]
pub enum StorageConfig {
    /// No disk: state lives and dies with the process (the seed behavior).
    #[default]
    InMemory,
    /// Full durability under a directory.
    Durable(DurableConfig),
}

impl StorageConfig {
    /// True when a disk directory is configured.
    pub fn is_durable(&self) -> bool {
        matches!(self, StorageConfig::Durable(_))
    }
}

/// Knobs for the durable plane.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Root directory for this cluster's storage; each datacenter gets a
    /// `dc<replica>` subdirectory.
    pub dir: PathBuf,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Minimum decided entries between two snapshots of a group (0
    /// disables snapshots and therefore WAL truncation). A snapshot is cut
    /// only once the group's prefix is this far past its last one *and* a
    /// sealed WAL segment still holds the group's records
    /// ([`DcStorage::snapshot_due`]): a run whose WAL never seals a segment
    /// never snapshots and never truncates.
    pub snapshot_every: u64,
}

impl DurableConfig {
    /// Defaults tuned for the simulation workloads: 256 KiB segments, and
    /// at least 32 decided entries between two snapshots of a group — each
    /// cut only while a sealed segment holds the group's records.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            segment_bytes: 256 * 1024,
            snapshot_every: 32,
        }
    }
}

/// Counters exposed by a [`DcStorage`] handle. The event counts are
/// cumulative across restarts when the new handle is told of the old one's
/// (see [`DcStorage::carry_counters`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageStats {
    /// WAL records made durable.
    pub records_synced: u64,
    /// `fsync` calls issued (group commit: one may cover many records).
    pub syncs: u64,
    /// Sync calls that failed (injected or real); the covered records were
    /// not acknowledged.
    pub sync_failures: u64,
    /// Snapshots written.
    pub snapshots_written: u64,
    /// WAL segments deleted by truncation.
    pub segments_truncated: u64,
    /// WAL segments currently on disk.
    pub segments_on_disk: usize,
    /// Snapshot files that failed validation on the last restart read.
    pub corrupt_snapshots: u64,
}

/// Everything read off disk when a datacenter restarts
/// ([`DcStorage::reopen`]).
#[derive(Debug)]
pub struct RestartData {
    /// Latest readable snapshot per group.
    pub snapshots: Vec<GroupSnapshot>,
    /// WAL replay: every durable record, in order, up to the torn tail the
    /// crash left, if any (the reopened handle has repaired it since).
    pub replay: WalReplay,
    /// Snapshot files skipped as corrupt.
    pub corrupt_snapshots: usize,
}

fn wal_dir(cfg: &DurableConfig) -> PathBuf {
    cfg.dir.join("wal")
}

fn snap_dir(cfg: &DurableConfig) -> PathBuf {
    cfg.dir.join("snapshots")
}

/// One datacenter's durable storage: WAL + snapshots.
#[derive(Debug)]
pub struct DcStorage {
    cfg: DurableConfig,
    wal: Wal,
    snaps: SnapshotStore,
    last_snapshot: BTreeMap<GroupId, LogPosition>,
    sync_failures: u64,
    snapshots_written: u64,
    segments_truncated: u64,
    corrupt_snapshots: u64,
    /// Event counts of the handles this one succeeded.
    carried: StorageStats,
}

impl DcStorage {
    /// Open (creating or re-opening) the storage under `cfg.dir`. Reopening
    /// after a crash repairs a torn WAL tail and starts a fresh segment.
    pub fn open(cfg: DurableConfig) -> Result<DcStorage, StorageError> {
        Ok(DcStorage::reopen(cfg)?.0)
    }

    /// [`DcStorage::open`] after a crash, also returning what the restart
    /// rebuilds from — each WAL segment and each snapshot file read once.
    /// The replay's torn-tail flag is the crashed run's: it is taken before
    /// the open repairs the tail.
    pub fn reopen(cfg: DurableConfig) -> Result<(DcStorage, RestartData), StorageError> {
        let (wal, replay) = Wal::recover(&wal_dir(&cfg), cfg.segment_bytes)?;
        let snaps = SnapshotStore::open(&snap_dir(&cfg))?;
        let (snapshots, corrupt_snapshots) = snaps.load_all()?;
        let last_snapshot = snapshots.iter().map(|s| (s.group, s.position)).collect();
        let storage = DcStorage {
            cfg,
            wal,
            snaps,
            last_snapshot,
            sync_failures: 0,
            snapshots_written: 0,
            segments_truncated: 0,
            corrupt_snapshots: corrupt_snapshots as u64,
            carried: StorageStats::default(),
        };
        let data = RestartData {
            snapshots,
            replay,
            corrupt_snapshots,
        };
        Ok((storage, data))
    }

    /// Continue the event counts (`records_synced`, `syncs`,
    /// `sync_failures`, `snapshots_written`, `segments_truncated`) of the
    /// handle this one replaces after a restart, so [`DcStorage::stats`]
    /// stays cumulative since the datacenter first attached storage.
    pub fn carry_counters(&mut self, earlier: StorageStats) {
        self.carried = earlier;
    }

    /// The configuration this handle was opened with.
    pub fn config(&self) -> &DurableConfig {
        &self.cfg
    }

    /// Buffer one WAL record for the next sync (group commit).
    pub fn append(&mut self, record: &WalRecord) {
        self.wal.append(record);
    }

    /// Group commit every buffered record. `false` means the records are
    /// NOT durable and must not be acknowledged.
    pub fn sync(&mut self) -> bool {
        match self.wal.sync() {
            Ok(_) => true,
            Err(_) => {
                self.sync_failures += 1;
                false
            }
        }
    }

    /// Append one record and sync immediately; `false` on sync failure.
    pub fn log(&mut self, record: &WalRecord) -> bool {
        self.append(record);
        self.sync()
    }

    /// True when a snapshot of the group could free disk: its decided
    /// prefix is at least `snapshot_every` positions past its last
    /// snapshot, and a sealed WAL segment still holds its records
    /// ([`Wal::holds_sealed`]). A group whose records sit only in the
    /// active segment pins nothing a snapshot could release, so it waits
    /// for the rotation that seals them.
    pub fn snapshot_due(&self, group: GroupId, prefix: LogPosition) -> bool {
        if self.cfg.snapshot_every == 0 {
            return false;
        }
        let last = self.last_snapshot(group);
        prefix.0 >= last.0 + self.cfg.snapshot_every && self.wal.holds_sealed(group)
    }

    /// Atomically write the group's snapshot.
    pub fn save_snapshot<V: AsRef<str>>(
        &mut self,
        snap: &GroupSnapshot<V>,
    ) -> Result<(), StorageError> {
        self.snaps.save(snap)?;
        self.last_snapshot.insert(snap.group, snap.position);
        self.snapshots_written += 1;
        Ok(())
    }

    /// Last snapshot position recorded for `group`.
    pub fn last_snapshot(&self, group: GroupId) -> LogPosition {
        self.last_snapshot
            .get(&group)
            .copied()
            .unwrap_or(LogPosition::ZERO)
    }

    /// Delete sealed WAL segments fully below the per-group floors.
    pub fn truncate_wal(&mut self, floors: &BTreeMap<GroupId, LogPosition>) -> usize {
        match self.wal.truncate_below(floors) {
            Ok(n) => {
                self.segments_truncated += n as u64;
                n
            }
            Err(_) => 0,
        }
    }

    /// Simulate a crash mid-append: leave a torn partial frame at the tail
    /// of the active segment.
    pub fn inject_torn_tail(&mut self) {
        let _ = self.wal.inject_torn_tail();
    }

    /// Fault-injection plan for the WAL.
    pub fn fault_mut(&mut self) -> &mut FaultPlan {
        self.wal.fault_mut()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            records_synced: self.carried.records_synced + self.wal.records_synced(),
            syncs: self.carried.syncs + self.wal.syncs(),
            sync_failures: self.carried.sync_failures + self.sync_failures,
            snapshots_written: self.carried.snapshots_written + self.snapshots_written,
            segments_truncated: self.carried.segments_truncated + self.segments_truncated,
            segments_on_disk: self.wal.segment_count(),
            corrupt_snapshots: self.corrupt_snapshots,
        }
    }
}

/// Create a fresh scratch directory for durable-mode runs, derived from
/// the process id and a monotonic counter (no wall clock — runs stay
/// deterministic). The caller owns cleanup.
pub fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("paxos-cp-{label}-{}-{n}", std::process::id()));
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Remove a scratch directory created by [`scratch_dir`]. Refuses paths
/// outside the system temp root.
pub fn remove_scratch_dir(path: &Path) {
    if path.starts_with(std::env::temp_dir()) {
        let _ = std::fs::remove_dir_all(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use walog::{AttrId, ItemRef, KeyId, LogEntry, Transaction, TxnId};

    fn decided(g: u32, p: u64) -> WalRecord {
        let txn = Transaction::builder(TxnId::new(9, p), GroupId(g), LogPosition::ZERO)
            .write(ItemRef::new(KeyId(0), AttrId(0)), "x")
            .build();
        WalRecord::Decided {
            group: GroupId(g),
            position: LogPosition(p),
            entry: Arc::new(LogEntry::single(txn)),
        }
    }

    fn temp_cfg(label: &str) -> DurableConfig {
        DurableConfig::new(scratch_dir(label))
    }

    #[test]
    fn open_log_restart_cycle() {
        let cfg = temp_cfg("dc-cycle");
        {
            let mut dc = DcStorage::open(cfg.clone()).unwrap();
            assert!(dc.log(&decided(0, 1)));
            assert!(dc.log(&decided(0, 2)));
            dc.inject_torn_tail();
        }
        let (dc, data) = DcStorage::reopen(cfg.clone()).unwrap();
        assert!(data.replay.torn_tail, "injected tear must be observed");
        assert_eq!(data.replay.records.len(), 2);
        assert!(data.snapshots.is_empty());
        // The reopen repaired the tail; a second restart reads clean.
        drop(dc);
        let (_, data) = DcStorage::reopen(cfg.clone()).unwrap();
        assert!(!data.replay.torn_tail);
        assert_eq!(data.replay.records.len(), 2);
        remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn snapshot_cadence_and_truncation() {
        let mut cfg = temp_cfg("dc-snap");
        cfg.snapshot_every = 4;
        cfg.segment_bytes = 64; // force rotation nearly every record
        let mut dc = DcStorage::open(cfg.clone()).unwrap();
        for p in 1..=4 {
            assert!(dc.log(&decided(0, p)));
        }
        assert!(dc.snapshot_due(GroupId(0), LogPosition(4)));
        assert!(!dc.snapshot_due(GroupId(1), LogPosition(3)));
        dc.save_snapshot(&GroupSnapshot::<String> {
            group: GroupId(0),
            position: LogPosition(4),
            log_base: LogPosition(4),
            committed: vec![],
            rows: vec![],
        })
        .unwrap();
        assert!(!dc.snapshot_due(GroupId(0), LogPosition(6)));
        let mut floors = BTreeMap::new();
        floors.insert(GroupId(0), LogPosition(5));
        assert!(dc.truncate_wal(&floors) > 0);
        let stats = dc.stats();
        assert_eq!(stats.snapshots_written, 1);
        assert!(stats.segments_truncated > 0);
        // Restart sees the snapshot and only the surviving WAL tail, and the
        // reopened handle remembers the snapshot position.
        drop(dc);
        let (dc, data) = DcStorage::reopen(cfg.clone()).unwrap();
        assert_eq!(data.snapshots.len(), 1);
        assert_eq!(data.snapshots[0].position, LogPosition(4));
        assert!(data
            .replay
            .records
            .iter()
            .all(|r| r.position() >= LogPosition(4)));
        assert_eq!(dc.last_snapshot(GroupId(0)), LogPosition(4));
        remove_scratch_dir(&cfg.dir);
    }

    /// A snapshot exists to let the WAL be truncated, so it is due only
    /// while a sealed segment holds the group's records: never for records
    /// that sit only in the active segment, however far the prefix ran.
    #[test]
    fn a_snapshot_is_due_only_while_a_sealed_segment_holds_the_group() {
        let mut cfg = temp_cfg("dc-snap-sealed");
        cfg.snapshot_every = 4;
        cfg.segment_bytes = 1024;
        let mut dc = DcStorage::open(cfg.clone()).unwrap();
        for p in 1..=8 {
            assert!(dc.log(&decided(0, p)));
        }
        assert_eq!(dc.stats().segments_on_disk, 1, "no rotation yet");
        assert!(!dc.snapshot_due(GroupId(0), LogPosition(8)));
        assert!(!dc.snapshot_due(GroupId(0), LogPosition(100)));
        // Another group's records fill the active segment until a rotation
        // seals group 0's records with it.
        let mut p1 = 0;
        while dc.stats().segments_on_disk == 1 {
            p1 += 1;
            assert!(dc.log(&decided(1, p1)));
        }
        assert!(dc.snapshot_due(GroupId(0), LogPosition(8)));
        assert!(dc.snapshot_due(GroupId(1), LogPosition(p1)));
        // `snapshot_every` stays the minimum spacing.
        assert!(!dc.snapshot_due(GroupId(0), LogPosition(3)));
        assert!(!dc.snapshot_due(GroupId(2), LogPosition(100)), "no records");
        for (group, position) in [(0, 8), (1, p1)] {
            dc.save_snapshot(&GroupSnapshot::<String> {
                group: GroupId(group),
                position: LogPosition(position),
                log_base: LogPosition(position),
                committed: vec![],
                rows: vec![],
            })
            .unwrap();
        }
        let floors = BTreeMap::from([
            (GroupId(0), LogPosition(9)),
            (GroupId(1), LogPosition(p1 + 1)),
        ]);
        assert_eq!(dc.truncate_wal(&floors), 1);
        // The sealed segment is gone, and the active one holds nothing of
        // either group: nothing left to free.
        assert_eq!(dc.stats().segments_on_disk, 1);
        assert!(!dc.snapshot_due(GroupId(0), LogPosition(100)));
        assert!(!dc.snapshot_due(GroupId(1), LogPosition(p1 + 100)));
        remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn sync_failure_counts_and_blocks_ack() {
        let cfg = temp_cfg("dc-syncfail");
        let mut dc = DcStorage::open(cfg.clone()).unwrap();
        dc.fault_mut().fail_next_syncs(1);
        assert!(!dc.log(&decided(0, 1)), "failed sync must refuse the ack");
        assert_eq!(dc.stats().sync_failures, 1);
        // Retry succeeds and persists the buffered record.
        assert!(dc.sync());
        drop(dc);
        let (_, data) = DcStorage::reopen(cfg.clone()).unwrap();
        assert_eq!(data.replay.records.len(), 1);
        remove_scratch_dir(&cfg.dir);
    }
}
