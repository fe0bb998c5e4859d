//! Per-datacenter storage state shared by the local Transaction Service and
//! the Transaction Clients running in the same datacenter.
//!
//! The paper's architecture keeps all durable state in the key-value store
//! and the replicated write-ahead log; the Transaction Service processes are
//! stateless. We model the datacenter's durable state as one
//! [`DatacenterCore`] value shared behind a mutex: the service actor mutates
//! it when handling messages, and local clients read it directly (the
//! "execute operations directly on the local key-value store" optimization
//! the paper uses for its evaluation prototype).
//!
//! Everything here speaks interned ids: logs are keyed by `GroupId`,
//! entries install as shared `Arc<LogEntry>`s, and applying an entry
//! assembles per-key rows with integer attribute ids.

use mvkv::{Key, MvKvStore, Row, Timestamp};
use parking_lot::Mutex;
use paxos::{AcceptorStore, Ballot};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use storage::{
    DcStorage, DurableConfig, GroupSnapshot, SnapshotRow, StorageError, StorageStats, WalRecord,
};
use walog::{AttrId, GroupId, GroupLog, KeyId, LogEntry, LogPosition, TxnId};

/// Shared handle to a datacenter's storage state.
pub type SharedCore = Arc<Mutex<DatacenterCore>>;

/// Default version-GC horizon: positions of history kept below the
/// watermark (see the `gc_horizon` field of [`DatacenterCore`]).
const DEFAULT_GC_HORIZON: u64 = 16;

/// Failure returned when a read cannot be served here yet: the local log
/// has a gap at or below the requested read position, or the sync the read
/// needed failed. The reader retries at another replica or later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CatchUpNeeded;

/// The durable state of one datacenter: multi-version store, write-ahead
/// logs (one per transaction group) and leader bookkeeping for the fast
/// path.
pub struct DatacenterCore {
    /// Human-readable name (e.g. `"virginia-1"`).
    name: String,
    /// Replica index of this datacenter within the cluster.
    replica: usize,
    store: MvKvStore,
    logs: BTreeMap<GroupId, GroupLog>,
    /// First client to claim each (group, position) via the leader fast
    /// path; later claimants are denied. A position's claim goes when its
    /// entry installs (or a base adopted from a peer covers it): from then
    /// on [`DatacenterCore::has_entry`] refuses every claim there, so the
    /// map holds only undecided positions.
    leader_claims: BTreeMap<(GroupId, LogPosition), u64>,
    /// Active read leases per group: position → number of readers pinned at
    /// it. Local clients lease their read position between `begin` and the
    /// commit decision, and snapshot sessions lease their watermark at the
    /// serving replica until the handle closes; the per-group minimum is
    /// the version-GC watermark — no version a leased reader can still need
    /// is reclaimed.
    read_leases: BTreeMap<GroupId, BTreeMap<u64, usize>>,
    /// Every transaction id carried by a locally installed (decided) entry,
    /// per group. This is the dedup index that makes commit retries safe
    /// across group-home migration: a new home can answer "already
    /// committed" in O(1) without scanning its log, so a re-submitted
    /// transaction can never be proposed (and committed) twice.
    committed_ids: BTreeMap<GroupId, BTreeSet<TxnId>>,
    /// Positions of history the GC always keeps below the applied prefix,
    /// whatever the leases allow. Every reader holds a lease at the replica
    /// it reads, so this is slack, not what keeps a read correct.
    gc_horizon: u64,
    /// Multi-version store versions reclaimed by the apply-time GC.
    reclaimed_versions: u64,
    /// The durable storage plane, when this datacenter runs in durable
    /// mode: WAL (persist-before-ack) and group snapshots. `None` keeps the
    /// original purely in-memory behavior.
    storage: Option<DcStorage>,
    /// Installed entries whose `Decided` record is buffered but not yet
    /// synced. They count as decided (dedup, leader lookups, the prefix)
    /// but are not applied until a sync makes them durable, and a crash
    /// loses them: the replicas still hold the decision.
    unsynced: BTreeSet<(GroupId, LogPosition)>,
    /// Per group, the snapshot base the last restart from disk restored.
    /// The acceptor state of positions at or below it went with the
    /// deleted WAL segments, so this datacenter must neither promise nor
    /// vote there (see [`DatacenterCore::forgot`]).
    forgotten_base: BTreeMap<GroupId, LogPosition>,
    /// Set while [`DatacenterCore::restart_from_disk`] replays the WAL:
    /// replayed installs must not be re-logged or trigger snapshots.
    replaying: bool,
    /// Restarts from disk so far ([`DatacenterCore::incarnation`]).
    incarnation: u64,
}

/// One group's decided state as one datacenter holds it: what a datacenter
/// that forgot a position ships to a lagging peer instead of a promise or
/// a vote ([`crate::Msg::CatchUp`]), for the peer to adopt. It is the
/// group's snapshot — captured and restored exactly as a snapshot file is
/// saved and restored — plus the log tail the snapshot's base leaves.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupState {
    /// Rows, committed ids, the applied prefix (`position`) and the log
    /// base: everything at or below the base lives only here.
    pub snapshot: GroupSnapshot,
    /// The retained log entries above the base.
    pub tail: Vec<(LogPosition, Arc<LogEntry>)>,
}

/// What a [`DatacenterCore::restart_from_disk`] rebuilt, for harness
/// assertions and observability.
#[derive(Clone, Copy, Debug, Default)]
pub struct RestartReport {
    /// Group snapshots restored.
    pub snapshots_restored: usize,
    /// WAL records replayed (promises + votes + decided entries).
    pub wal_records_replayed: usize,
    /// Whether the WAL ended in a torn partial frame (tolerated: replay
    /// stops at the last durable record).
    pub torn_tail: bool,
    /// Snapshot files skipped as corrupt.
    pub corrupt_snapshots: usize,
}

impl DatacenterCore {
    /// Create an empty datacenter state.
    pub fn new(name: impl Into<String>, replica: usize) -> Self {
        DatacenterCore {
            name: name.into(),
            replica,
            store: MvKvStore::new(),
            logs: BTreeMap::new(),
            leader_claims: BTreeMap::new(),
            committed_ids: BTreeMap::new(),
            read_leases: BTreeMap::new(),
            gc_horizon: DEFAULT_GC_HORIZON,
            reclaimed_versions: 0,
            storage: None,
            unsynced: BTreeSet::new(),
            forgotten_base: BTreeMap::new(),
            replaying: false,
            incarnation: 0,
        }
    }

    /// Attach the durable storage plane: from here on every granted promise
    /// and cast vote is appended to the WAL and its acknowledgement waits
    /// for the next sync, which the Transaction Service issues once for a
    /// whole batch of held acknowledgements; every decided entry applies
    /// only once a sync made its record durable, and snapshots and WAL
    /// truncation run at the configured cadence.
    pub fn attach_storage(&mut self, storage: DcStorage) {
        self.storage = Some(storage);
    }

    /// Whether this datacenter runs with the durable storage plane.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// Storage-plane counters (`None` when running in-memory).
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// Mutable access to the storage plane (fault injection in tests).
    pub fn storage_mut(&mut self) -> Option<&mut DcStorage> {
        self.storage.as_mut()
    }

    /// How many times this datacenter restarted from disk. A reply held for
    /// a sync carries the incarnation it was appended in: after a restart
    /// its record may have gone with a torn tail, so it must never leave.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Append a granted phase-1 promise to the WAL (persist-before-ack).
    /// Returns whether the acknowledgement must wait for a sync: `false`
    /// in-memory, where the `PrepareReply` leaves at once; `true` with
    /// storage attached, where it may leave only after a later
    /// [`DatacenterCore::flush`] succeeds in the same incarnation.
    pub fn persist_promise(
        &mut self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
    ) -> bool {
        self.append(&WalRecord::Promise {
            group,
            position,
            ballot,
        })
    }

    /// Append a cast phase-2 vote to the WAL (persist-before-ack); the
    /// `AcceptReply` waits for a sync exactly when this returns `true`, as
    /// for [`DatacenterCore::persist_promise`].
    pub fn persist_vote(
        &mut self,
        group: GroupId,
        position: LogPosition,
        ballot: Ballot,
        value: &Arc<LogEntry>,
    ) -> bool {
        self.append(&WalRecord::Vote {
            group,
            position,
            ballot,
            entry: Arc::clone(value),
        })
    }

    /// Buffer `record` for the next sync; whether there is storage to sync.
    fn append(&mut self, record: &WalRecord) -> bool {
        let Some(s) = &mut self.storage else {
            return false;
        };
        s.append(record);
        true
    }

    /// Sync every buffered WAL record; on success the installed entries
    /// waiting for durability apply. Always `true` in-memory; `false` means
    /// the sync failed and everything stays buffered for the next one.
    pub fn flush(&mut self) -> bool {
        let Some(s) = &mut self.storage else {
            return true;
        };
        if !s.sync() {
            return false;
        }
        let groups: BTreeSet<GroupId> = std::mem::take(&mut self.unsynced)
            .into_iter()
            .map(|(group, _)| group)
            .collect();
        for group in groups {
            self.apply_durable(group);
            let prefix = self.read_position(group);
            self.maybe_snapshot(group, prefix);
        }
        true
    }

    /// Whether an installed entry still waits for the sync that makes it
    /// durable and applies it.
    pub fn has_unsynced(&self) -> bool {
        !self.unsynced.is_empty()
    }

    /// The lowest position of `group` whose `Decided` record is not yet
    /// durable: nothing at or above it may apply.
    fn first_unsynced(&self, group: GroupId) -> Option<LogPosition> {
        self.unsynced
            .range((group, LogPosition::ZERO)..)
            .next()
            .filter(|(g, _)| *g == group)
            .map(|(_, position)| *position)
    }

    /// Override the version-GC horizon (positions of history always kept
    /// below the watermark). Tests pin it to 0 to exercise the lease
    /// machinery exactly; deployments trade memory for reader slack.
    pub fn set_gc_horizon(&mut self, horizon: u64) {
        self.gc_horizon = horizon;
    }

    /// The store row key of an application item: the group id in the high
    /// half, the row key in the low half. Qualifying rows by group keeps
    /// every group's key space disjoint — two groups using the same row
    /// name never collide in the shared store. The acceptor state is not a
    /// row (it lives in the store's protocol table), so every store key is
    /// one of these.
    fn app_key(group: GroupId, key: KeyId) -> Key {
        Key(((group.0 as u64) << 32) | key.0 as u64)
    }

    /// Convenience: wrap in the shared handle used across actors.
    pub fn shared(name: impl Into<String>, replica: usize) -> SharedCore {
        Arc::new(Mutex::new(DatacenterCore::new(name, replica)))
    }

    /// Datacenter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replica index within the cluster.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Direct access to the key-value store (local client reads, acceptor
    /// state, tests).
    pub fn store(&self) -> &MvKvStore {
        &self.store
    }

    /// The Paxos acceptor view over this datacenter's store.
    pub fn acceptor(&self) -> AcceptorStore<'_> {
        AcceptorStore::new(&self.store)
    }

    /// The write-ahead log of a group (empty log if never touched).
    pub fn log(&self, group: GroupId) -> Option<&GroupLog> {
        self.logs.get(&group)
    }

    /// All groups with a local log, with their logs (used by the checker).
    pub fn logs(&self) -> impl Iterator<Item = (GroupId, &GroupLog)> {
        self.logs.iter().map(|(g, l)| (*g, l))
    }

    /// The read position a transaction beginning now should use: the highest
    /// position up to which this datacenter's log is gap-free (and therefore
    /// locally readable after applying).
    pub fn read_position(&self, group: GroupId) -> LogPosition {
        self.logs
            .get(&group)
            .map(|l| l.contiguous_prefix())
            .unwrap_or(LogPosition::ZERO)
    }

    /// Install a decided entry into the local log (idempotent) and eagerly
    /// apply every gap-free entry to the key-value store, returning the
    /// group's gap-free prefix after the install. Entries decided out of
    /// pipeline order install at once but apply strictly in position order:
    /// an entry above a gap waits, and the prefix stays below it.
    /// Keys written by newly applied entries are version-GC'd behind the
    /// group's read-lease watermark (see
    /// [`DatacenterCore::begin_read_lease`]).
    ///
    /// With storage attached the entry's `Decided` record is appended but
    /// not synced, and the entry applies only once a sync makes it durable:
    /// the sync that releases a batch of held acknowledgements, a read or
    /// snapshot that needs it, or the service's sync deadline
    /// ([`DatacenterCore::flush`]). Everything else — the prefix, dedup,
    /// leader lookups — sees it at once.
    ///
    /// Panics if a *different* entry was already installed at the position:
    /// that would violate replication property (R1) and indicates a protocol
    /// bug, which tests must surface loudly.
    pub fn install_entry(
        &mut self,
        group: GroupId,
        position: LogPosition,
        entry: Arc<LogEntry>,
    ) -> LogPosition {
        let log = self.logs.entry(group).or_default();
        // One `Decided` record per installed entry: a re-install (the group
        // home learns a value and then hears its own `Apply`) or an install
        // at or below the snapshot base changes nothing, so it logs nothing.
        // Replayed installs are already on disk.
        let log_it = !self.replaying
            && self.storage.is_some()
            && position > log.base()
            && !log.contains(position);
        log.install(position, Arc::clone(&entry))
            .expect("replication property R1 violated: conflicting entry for a decided position");
        let prefix = log.contiguous_prefix();
        self.leader_claims.remove(&(group, position));
        let ids = self.committed_ids.entry(group).or_default();
        for txn in entry.transactions() {
            ids.insert(txn.id);
        }
        // Persist-before-apply: the decided entry goes through the WAL so a
        // restart can rebuild the log tail above the last snapshot. No
        // acknowledgement waits for the record — the decide is replicated,
        // so local durability only bounds catch-up work after a restart —
        // and it rides the next sync instead of paying for its own.
        if log_it {
            if let Some(s) = &mut self.storage {
                s.append(&WalRecord::Decided {
                    group,
                    position,
                    entry: Arc::clone(&entry),
                });
                self.unsynced.insert((group, position));
            }
        }
        self.apply_durable(group);
        prefix
    }

    /// Apply the group's gap-free entries below its first undurable one and
    /// version-GC the keys they wrote.
    fn apply_durable(&mut self, group: GroupId) {
        let through = self.durable_through(group);
        let Some(log) = self.logs.get_mut(&group) else {
            return;
        };
        let applied_keys = Self::apply_contiguous(log, &self.store, group, through);
        self.gc_applied_keys(group, applied_keys);
    }

    /// How far the group may apply: its gap-free prefix, cut below the
    /// first entry whose `Decided` record is not yet durable.
    fn durable_through(&self, group: GroupId) -> LogPosition {
        let prefix = self.read_position(group);
        match self.first_unsynced(group) {
            Some(position) => prefix.min(position.prev()),
            None => prefix,
        }
    }

    /// Snapshot-and-truncate trigger, run after every sync that made some
    /// of the group's entries durable: when its gap-free prefix has advanced
    /// at least `snapshot_every` positions past its last snapshot and a
    /// sealed WAL segment still holds the group's records
    /// ([`DcStorage::snapshot_due`]), cut a snapshot
    /// ([`DatacenterCore::snapshot`]).
    fn maybe_snapshot(&mut self, group: GroupId, prefix: LogPosition) {
        if self.replaying {
            return;
        }
        let due = match &self.storage {
            Some(s) => s.snapshot_due(group, prefix),
            None => false,
        };
        if due {
            self.snapshot(group);
        }
    }

    /// Capture the group's durable state, then truncate the in-memory log
    /// and the WAL below the truncation floor. A snapshot covers only
    /// durable state, so anything still buffered syncs first. The floor is
    /// the version-GC watermark — the minimum over every open read lease's
    /// position and the horizon-capped prefix — so truncation never crosses
    /// a position an active reader (or the MVCC version floor) can still
    /// need.
    fn snapshot(&mut self, group: GroupId) {
        if self.storage.is_none() || !self.flush() {
            return;
        }
        let prefix = self.read_position(group);
        let floor = self.gc_watermark(group).min(prefix);
        let current_base = self.logs.get(&group).map(|l| l.base()).unwrap_or_default();
        let new_base = LogPosition(floor.0.saturating_sub(1)).max(current_base);
        let versions = self.group_versions(group);
        let snap: GroupSnapshot<&str> = self.build_snapshot(group, prefix, new_base, &versions);
        let Some(storage) = &mut self.storage else {
            return;
        };
        if storage.save_snapshot(&snap).is_err() {
            // Disk trouble writing the snapshot: keep the log and WAL
            // intact — recovery falls back to the previous snapshot plus a
            // longer replay, which is always safe.
            return;
        }
        if floor > LogPosition::ZERO {
            if let Some(log) = self.logs.get_mut(&group) {
                log.truncate_below(floor);
            }
            // A WAL segment is deletable only when *every* group's records
            // in it sit below that group's own snapshot base; groups
            // without a snapshot floor pin their segments.
            let floors: BTreeMap<GroupId, LogPosition> = self
                .logs
                .iter()
                .map(|(g, l)| (*g, l.base().next()))
                .collect();
            storage.truncate_wal(&floors);
        }
    }

    /// Every retained store version of the group's rows: the oldest version
    /// of each key whole, later ones as the attributes they wrote
    /// ([`MvKvStore::dump_versions`]), so merge-upsert replay rebuilds them.
    fn group_versions(&self, group: GroupId) -> Vec<(Key, Vec<(Timestamp, Row)>)> {
        let group_half = group.0 as u64;
        self.store.dump_versions(|key| key.0 >> 32 == group_half)
    }

    /// Capture one group's durable state — for a snapshot file or a
    /// lagging peer — the applied prefix, the log base a restore resumes
    /// from, every committed transaction id, and `versions`, the group's
    /// [`DatacenterCore::group_versions`], whose values the snapshot
    /// borrows (`V = &str`) or copies (`V = String`).
    fn build_snapshot<'a, V: From<&'a str>>(
        &self,
        group: GroupId,
        prefix: LogPosition,
        log_base: LogPosition,
        versions: &'a [(Key, Vec<(Timestamp, Row)>)],
    ) -> GroupSnapshot<V> {
        let committed: Vec<TxnId> = self
            .committed_ids
            .get(&group)
            .map(|ids| ids.iter().copied().collect())
            .unwrap_or_default();
        let rows = versions
            .iter()
            .map(|(key, versions)| SnapshotRow {
                key: key.0,
                versions: versions
                    .iter()
                    .map(|(ts, row)| {
                        (
                            ts.0,
                            row.iter()
                                .map(|(attr, value)| (attr.0, V::from(value)))
                                .collect(),
                        )
                    })
                    .collect(),
            })
            .collect();
        GroupSnapshot {
            group,
            position: prefix,
            log_base,
            committed,
            rows,
        }
    }

    /// Apply every decided-but-unapplied entry of the group's log through
    /// `through` (at most its gap-free prefix) to the key-value store;
    /// returns the store keys written.
    fn apply_contiguous(
        log: &mut GroupLog,
        store: &MvKvStore,
        group: GroupId,
        through: LogPosition,
    ) -> Vec<Key> {
        let Some(pending) = log.unapplied_range(through) else {
            return Vec::new();
        };
        let mut applied = Vec::new();
        for (pos, entry) in pending {
            for (key, row) in Self::entry_writes(group, &entry) {
                store.apply_idempotent(key, row, Timestamp(pos.0));
                applied.push(key);
            }
            log.mark_applied_through(pos);
        }
        applied.sort_unstable();
        applied.dedup();
        applied
    }

    /// Reclaim store versions of freshly written keys that no active reader
    /// can still need: everything strictly older than the newest version at
    /// or below the group's watermark (min leased read position, capped by
    /// the applied prefix).
    fn gc_applied_keys(&mut self, group: GroupId, keys: Vec<Key>) {
        if keys.is_empty() {
            return;
        }
        let watermark = self.gc_watermark(group);
        if watermark == LogPosition::ZERO {
            return;
        }
        for key in keys {
            self.reclaimed_versions += self.store.gc_behind(key, Timestamp(watermark.0)) as u64;
        }
    }

    /// The version-GC watermark of a group: no reader is (or will be)
    /// pinned below it. Future readers begin at the applied prefix; active
    /// ones hold leases; the horizon adds slack below both.
    fn gc_watermark(&self, group: GroupId) -> LogPosition {
        let prefix = self.read_position(group);
        let horizon_cap = LogPosition(prefix.0.saturating_sub(self.gc_horizon));
        match self
            .read_leases
            .get(&group)
            .and_then(|leases| leases.keys().next())
        {
            Some(min) => LogPosition(*min).min(horizon_cap),
            None => horizon_cap,
        }
    }

    /// Pin `position` as an active read position of `group`: versions a
    /// reader at this position can see will survive GC until the lease is
    /// released with [`DatacenterCore::end_read_lease`]. Leases are
    /// refcounted per position.
    pub fn begin_read_lease(&mut self, group: GroupId, position: LogPosition) {
        *self
            .read_leases
            .entry(group)
            .or_default()
            .entry(position.0)
            .or_insert(0) += 1;
    }

    /// Release one lease on `position` previously taken with
    /// [`DatacenterCore::begin_read_lease`].
    pub fn end_read_lease(&mut self, group: GroupId, position: LogPosition) {
        let Some(leases) = self.read_leases.get_mut(&group) else {
            debug_assert!(false, "lease release without a lease");
            return;
        };
        match leases.get_mut(&position.0) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                leases.remove(&position.0);
            }
            None => debug_assert!(false, "lease release without a lease"),
        }
    }

    /// Active read leases across all groups (observability and tests).
    pub fn read_lease_count(&self) -> usize {
        self.read_leases
            .values()
            .map(|m| m.values().sum::<usize>())
            .sum()
    }

    /// Multi-version store versions reclaimed by the apply-time GC.
    pub fn reclaimed_version_count(&self) -> u64 {
        self.reclaimed_versions
    }

    /// Collapse an entry's writes into one row-delta per (group-qualified)
    /// key, in key order. Later transactions in a combined entry overwrite
    /// earlier ones, matching the serialization order within the entry.
    fn entry_writes(group: GroupId, entry: &LogEntry) -> Vec<(Key, Row)> {
        let mut writes: Vec<_> = entry
            .transactions()
            .iter()
            .flat_map(|txn| txn.writes())
            .map(|write| (Self::app_key(group, write.item.key), write))
            .collect();
        // Stable: a key's writes keep their serialization order.
        writes.sort_by_key(|(key, _)| *key);
        let mut rows: Vec<(Key, Row)> = Vec::new();
        for (key, write) in writes {
            let (attr, value) = (write.item.attr.into(), write.value.as_str());
            match rows.last_mut() {
                Some((last, row)) if *last == key => row.set(attr, value),
                _ => rows.push((key, Row::new().with(attr, value))),
            }
        }
        rows
    }

    /// Read one item as of `read_position` (A2). Fails when the local log
    /// has a gap at or below the read position: this replica must catch up
    /// first (§4.1, Fault Tolerance and Recovery). A read covering an entry
    /// that is not yet durable syncs first, so it never observes state a
    /// crash could take back; if that sync fails the read fails too.
    pub fn read(
        &mut self,
        group: GroupId,
        key: KeyId,
        attr: AttrId,
        read_position: LogPosition,
    ) -> Result<Option<String>, CatchUpNeeded> {
        if read_position > LogPosition::ZERO {
            if self.read_position(group) < read_position {
                return Err(CatchUpNeeded);
            }
            if self
                .first_unsynced(group)
                .is_some_and(|position| position <= read_position)
                && !self.flush()
            {
                return Err(CatchUpNeeded);
            }
            // Apply but do not GC here: GC runs only on install, behind the
            // lease watermark.
            let through = self.durable_through(group);
            if let Some(log) = self.logs.get_mut(&group) {
                let _ = Self::apply_contiguous(log, &self.store, group, through);
            }
        }
        Ok(self.store.read_attr_at(
            Self::app_key(group, key),
            attr.into(),
            Timestamp(read_position.0),
        ))
    }

    /// Whether `id` rides any locally installed (decided) entry of `group`
    /// — i.e. the transaction is known committed at this datacenter. O(1);
    /// the index is maintained by [`DatacenterCore::install_entry`].
    pub fn is_committed(&self, group: GroupId, id: TxnId) -> bool {
        self.committed_ids
            .get(&group)
            .is_some_and(|ids| ids.contains(&id))
    }

    /// Whether this datacenter has decided (locally installed) the entry at
    /// `position`. Everything at or below the log base was decided, even
    /// though truncation (or adopting a peer's state) dropped the entry.
    pub fn has_entry(&self, group: GroupId, position: LogPosition) -> bool {
        self.logs
            .get(&group)
            .is_some_and(|l| position <= l.base() || l.contains(position))
    }

    /// Leader fast-path bookkeeping: grant the claim iff this is the first
    /// claim for the position and no Paxos activity has touched it yet.
    pub fn leader_claim(&mut self, group: GroupId, position: LogPosition, client: u64) -> bool {
        if self.has_entry(group, position) || self.acceptor().touched(group, position) {
            return false;
        }
        match self.leader_claims.entry((group, position)) {
            std::collections::btree_map::Entry::Occupied(existing) => *existing.get() == client,
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(client);
                true
            }
        }
    }

    /// The client that proposed the winning value of `position - 1`, used to
    /// locate the leader of `position` (§4.1: "the leader for a log position
    /// is the site local to the application instance that won the previous
    /// log position").
    pub fn previous_winner_client(&self, group: GroupId, position: LogPosition) -> Option<u64> {
        if position.0 <= 1 {
            return None;
        }
        self.logs
            .get(&group)?
            .get(position.prev())?
            .transactions()
            .first()
            .map(|t| t.id.client as u64)
    }

    /// Total committed transactions across this datacenter's logs.
    pub fn committed_transactions(&self) -> usize {
        self.logs
            .values()
            .map(|l| l.committed_transaction_count())
            .sum()
    }

    /// Crash-restart from disk: drop every in-memory structure a process
    /// crash would lose, then rebuild from the latest group snapshots plus
    /// the WAL tail — snapshots restore store rows, committed-id indexes
    /// and the truncated log base; WAL replay re-records acceptor promises
    /// and votes in append order and re-installs decided entries above each
    /// base. A torn final WAL record (the crash hit mid-append) is
    /// tolerated: replay stops at the last durable frame, and the reopen
    /// that read it repairs the tail ([`DcStorage::reopen`], which reads
    /// each WAL segment and snapshot file once).
    ///
    /// Read leases are deliberately **preserved**: they are owned by
    /// clients in *other* processes (open transactions and snapshot
    /// sessions), so wiping them would let version GC — and
    /// WAL truncation, whose floor they bound — reclaim state a still-live
    /// reader needs.
    ///
    /// Installed entries whose `Decided` record was never synced are lost:
    /// they were neither applied nor acknowledged by this datacenter, and
    /// their votes still hold them at the replicas. Each restored snapshot
    /// base becomes the group's forgotten base ([`DatacenterCore::forgot`]).
    /// The [`DatacenterCore::incarnation`] advances, so no acknowledgement
    /// held for a sync of the dead handle ever leaves.
    pub fn restart_from_disk(
        &mut self,
        cfg: &DurableConfig,
    ) -> Result<RestartReport, StorageError> {
        let (mut storage, data) = DcStorage::reopen(cfg.clone())?;
        // What a crash loses: the store, the logs, the leader fast-path
        // claims, the dedup index and the counters. (Leases survive, see
        // above; the dedup index and store are rebuilt below.)
        self.store = MvKvStore::new();
        self.logs.clear();
        self.leader_claims.clear();
        self.committed_ids.clear();
        self.unsynced.clear();
        self.incarnation += 1;
        // The dead handle goes; its counters carry on.
        if let Some(dead) = self.storage.take() {
            storage.carry_counters(dead.stats());
        }
        let report = RestartReport {
            snapshots_restored: data.snapshots.len(),
            wal_records_replayed: data.replay.records.len(),
            torn_tail: data.replay.torn_tail,
            corrupt_snapshots: data.corrupt_snapshots,
        };
        self.replaying = true;
        for snap in &data.snapshots {
            self.restore_snapshot(snap);
            self.forgotten_base.insert(snap.group, snap.log_base);
        }
        for record in &data.replay.records {
            match record {
                WalRecord::Promise {
                    group,
                    position,
                    ballot,
                } => self.acceptor().restore_promise(*group, *position, *ballot),
                WalRecord::Vote {
                    group,
                    position,
                    ballot,
                    entry,
                } => self
                    .acceptor()
                    .restore_vote(*group, *position, *ballot, entry),
                WalRecord::Decided {
                    group,
                    position,
                    entry,
                } => {
                    // Installs at or below a restored base are silent
                    // no-ops; everything above re-applies idempotently.
                    let _ = self.install_entry(*group, *position, Arc::clone(entry));
                }
            }
        }
        self.replaying = false;
        // Attach the reopened plane last, so nothing replayed is re-logged.
        self.attach_storage(storage);
        Ok(report)
    }

    /// Restore one group snapshot: committed ids, the truncated log base
    /// (which also marks everything at or below it as applied) and every
    /// captured store version, in timestamp order. Merge-upsert rebuilds
    /// whole rows from the stored deltas; a snapshot holding whole versions
    /// restores the same way.
    fn restore_snapshot(&mut self, snap: &GroupSnapshot) {
        let ids = self.committed_ids.entry(snap.group).or_default();
        ids.extend(snap.committed.iter().copied());
        self.logs
            .entry(snap.group)
            .or_default()
            .restore_base(snap.log_base);
        for row in &snap.rows {
            for (ts, attrs) in &row.versions {
                let mut restored = Row::new();
                for (attr, value) in attrs {
                    restored.set(mvkv::Attr(*attr), value.as_str());
                }
                self.store
                    .apply_idempotent(Key(row.key), restored, Timestamp(*ts));
            }
        }
    }

    /// Whether this datacenter's acceptor state for `position` of `group`
    /// may be gone: the position is at or below the snapshot base its last
    /// restart restored, and the promises and votes below that base went
    /// with the deleted WAL segments. Such a datacenter must neither promise
    /// nor vote there — a promise without the vote it forgot could let a
    /// lagging peer decide a no-op over a decided value — and offers its
    /// [`GroupState`] instead.
    pub fn forgot(&self, group: GroupId, position: LogPosition) -> bool {
        self.forgotten_base
            .get(&group)
            .is_some_and(|base| position <= *base)
    }

    /// This datacenter's decided state of `group`, for a lagging peer to
    /// adopt: everything installed is synced (and so applied) first, then
    /// captured as a snapshot at the current log base. `None` when that
    /// sync fails.
    pub(crate) fn group_state(&mut self, group: GroupId) -> Option<GroupState> {
        if !self.flush() {
            return None;
        }
        let log = self.logs.get(&group);
        let base = log.map(|l| l.base()).unwrap_or_default();
        let tail = log
            .map(|l| l.iter().map(|(p, e)| (p, Arc::clone(e))).collect())
            .unwrap_or_default();
        let versions = self.group_versions(group);
        let snapshot = self.build_snapshot(group, self.read_position(group), base, &versions);
        Some(GroupState { snapshot, tail })
    }

    /// Adopt a peer's [`GroupState`] when it reaches past this datacenter's
    /// gap-free prefix: its snapshot as a restart restores one, its log
    /// tail through the ordinary install path, and then a snapshot of the
    /// result of our own, so a restart from disk reproduces it. Returns
    /// whether the state was adopted.
    pub(crate) fn adopt_group_state(&mut self, state: &GroupState) -> bool {
        let snap = &state.snapshot;
        let group = snap.group;
        if snap.position <= self.read_position(group) || !self.flush() {
            return false;
        }
        self.restore_snapshot(snap);
        self.leader_claims
            .retain(|&(g, position), _| g != group || position > snap.log_base);
        for (position, entry) in &state.tail {
            self.install_entry(group, *position, Arc::clone(entry));
        }
        self.snapshot(group);
        true
    }

    /// The transaction ids of `group` decided at or below its gap-free
    /// prefix: two replicas at the same prefix must index the same set.
    pub fn committed_through_prefix(&self, group: GroupId) -> BTreeSet<TxnId> {
        let mut ids = self.committed_ids.get(&group).cloned().unwrap_or_default();
        if let Some(log) = self.logs.get(&group) {
            let prefix = log.contiguous_prefix();
            for (_, entry) in log.iter().filter(|(p, _)| *p > prefix) {
                for txn in entry.transactions() {
                    ids.remove(&txn.id);
                }
            }
        }
        ids
    }

    /// Simulate a crash mid-append: leave a torn partial frame at the WAL
    /// tail. No-op in-memory. The handle is assumed dead afterwards — the
    /// next step is [`DatacenterCore::restart_from_disk`].
    pub fn inject_torn_wal_tail(&mut self) {
        if let Some(s) = &mut self.storage {
            s.inject_torn_tail();
        }
    }

    /// A deterministic digest of this datacenter's *durably reconstructable*
    /// state: per-group log bases, decided entries, committed-id indexes,
    /// and the latest version of every row (the store holds only
    /// application rows). Old row versions are excluded on purpose —
    /// version-GC timing during replay may differ from the original run —
    /// as is the acceptor state in the store's protocol table, and so are
    /// entries whose `Decided` record is not yet synced, with their
    /// transaction ids: they were neither applied nor acknowledged here.
    /// Equal fingerprints before a crash and after
    /// [`DatacenterCore::restart_from_disk`] mean the restart lost nothing
    /// that was acknowledged.
    pub fn state_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        let no_ids = BTreeSet::new();
        for (group, log) in &self.logs {
            let (entries, unsynced): (Vec<_>, Vec<_>) = log
                .iter()
                .partition(|(position, _)| !self.unsynced.contains(&(*group, *position)));
            let unsynced_ids: BTreeSet<TxnId> = unsynced
                .iter()
                .flat_map(|(_, entry)| entry.transactions().iter().map(|txn| txn.id))
                .collect();
            let ids = self.committed_ids.get(group).unwrap_or(&no_ids);
            let ids: Vec<&TxnId> = ids.difference(&unsynced_ids).collect();
            // A log with nothing durable in it (created by a read, or
            // holding only unsynced entries) is not rebuilt by a restart.
            if log.base() == LogPosition::ZERO && entries.is_empty() && ids.is_empty() {
                continue;
            }
            eat(b"group");
            eat(&group.0.to_le_bytes());
            eat(&log.base().0.to_le_bytes());
            for (position, entry) in entries {
                eat(&position.0.to_le_bytes());
                eat(entry.encode().as_bytes());
            }
            for id in ids {
                eat(&id.client.to_le_bytes());
                eat(&id.seq.to_le_bytes());
            }
        }
        for key in self.store.keys() {
            let Some(read) = self.store.read(key, None) else {
                continue;
            };
            eat(b"row");
            eat(&key.0.to_le_bytes());
            eat(&read.timestamp.0.to_le_bytes());
            for (attr, value) in read.row.iter() {
                eat(&attr.0.to_le_bytes());
                eat(value.as_bytes());
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walog::{ItemRef, Transaction, TxnId};

    const GROUP: GroupId = GroupId(0);
    const ROW: KeyId = KeyId(0);
    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn write_entry(
        client: u32,
        seq: u64,
        read_pos: u64,
        attr: AttrId,
        value: &str,
    ) -> Arc<LogEntry> {
        Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(client, seq), GROUP, LogPosition(read_pos))
                .write(ItemRef::new(ROW, attr), value)
                .build(),
        ))
    }

    #[test]
    fn install_and_read_through_log_positions() {
        let mut core = DatacenterCore::new("dc0", 0);
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        core.install_entry(GROUP, LogPosition(2), write_entry(0, 2, 1, A, "2"));
        assert_eq!(core.read_position(GROUP), LogPosition(2));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("1".to_string())
        );
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(2)).unwrap(),
            Some("2".to_string())
        );
        assert_eq!(
            core.read(GROUP, ROW, AttrId(9), LogPosition(2)).unwrap(),
            None
        );
        assert_eq!(core.committed_transactions(), 2);
    }

    #[test]
    fn groups_with_the_same_row_key_do_not_alias_in_the_store() {
        // Two groups both write row 0 / attr 0 at position 1 with different
        // values: group-qualified store keys must keep them apart.
        let mut core = DatacenterCore::new("dc0", 0);
        let other = GroupId(1);
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "g0-value"));
        let txn = Transaction::builder(TxnId::new(1, 1), other, LogPosition(0))
            .write(ItemRef::new(ROW, A), "g1-value")
            .build();
        core.install_entry(other, LogPosition(1), Arc::new(LogEntry::single(txn)));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("g0-value".to_string())
        );
        assert_eq!(
            core.read(other, ROW, A, LogPosition(1)).unwrap(),
            Some("g1-value".to_string())
        );
    }

    #[test]
    fn committed_id_index_tracks_installed_entries() {
        let mut core = DatacenterCore::new("dc0", 0);
        let id = TxnId::new(0, 1);
        assert!(!core.is_committed(GROUP, id));
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        assert!(core.is_committed(GROUP, id));
        // Other groups and other ids are unaffected.
        assert!(!core.is_committed(GroupId(1), id));
        assert!(!core.is_committed(GROUP, TxnId::new(0, 2)));
        // Combined entries index every member.
        let first = Transaction::builder(TxnId::new(1, 7), GROUP, LogPosition(1))
            .write(ItemRef::new(ROW, A), "x")
            .build();
        let second = Transaction::builder(TxnId::new(2, 8), GROUP, LogPosition(1))
            .write(ItemRef::new(ROW, B), "y")
            .build();
        core.install_entry(
            GROUP,
            LogPosition(2),
            Arc::new(LogEntry::combined(vec![first, second])),
        );
        assert!(core.is_committed(GROUP, TxnId::new(1, 7)));
        assert!(core.is_committed(GROUP, TxnId::new(2, 8)));
    }

    #[test]
    fn read_at_position_zero_sees_nothing() {
        let mut core = DatacenterCore::new("dc0", 0);
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        assert_eq!(core.read(GROUP, ROW, A, LogPosition::ZERO).unwrap(), None);
    }

    #[test]
    fn gap_forces_catch_up() {
        let mut core = DatacenterCore::new("dc0", 0);
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        core.install_entry(GROUP, LogPosition(3), write_entry(0, 3, 2, A, "3"));
        // Read position 3 needs position 2, which is missing.
        assert_eq!(core.read(GROUP, ROW, A, LogPosition(3)), Err(CatchUpNeeded));
        // Reads below the gap still work.
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("1".to_string())
        );
        // Filling the gap resolves it and applies everything.
        core.install_entry(GROUP, LogPosition(2), write_entry(1, 2, 1, B, "2"));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(3)).unwrap(),
            Some("3".to_string())
        );
        assert_eq!(core.read_position(GROUP), LogPosition(3));
    }

    #[test]
    fn combined_entry_applies_in_list_order() {
        let mut core = DatacenterCore::new("dc0", 0);
        let first = Transaction::builder(TxnId::new(0, 1), GROUP, LogPosition(0))
            .write(ItemRef::new(ROW, A), "first")
            .build();
        let second = Transaction::builder(TxnId::new(1, 2), GROUP, LogPosition(0))
            .write(ItemRef::new(ROW, A), "second")
            .write(ItemRef::new(ROW, B), "2")
            .build();
        core.install_entry(
            GROUP,
            LogPosition(1),
            Arc::new(LogEntry::combined(vec![first, second])),
        );
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("second".to_string())
        );
        assert_eq!(
            core.read(GROUP, ROW, B, LogPosition(1)).unwrap(),
            Some("2".to_string())
        );
    }

    #[test]
    fn duplicate_install_is_idempotent_but_conflicting_install_panics() {
        let mut core = DatacenterCore::new("dc0", 0);
        let entry = write_entry(0, 1, 0, A, "1");
        core.install_entry(GROUP, LogPosition(1), Arc::clone(&entry));
        core.install_entry(GROUP, LogPosition(1), entry);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.install_entry(GROUP, LogPosition(1), write_entry(9, 9, 0, A, "x"));
        }));
        assert!(result.is_err(), "conflicting install must panic (R1)");
    }

    #[test]
    fn install_reports_prefix_advance_and_defers_out_of_order_applies() {
        let mut core = DatacenterCore::new("dc0", 0);
        // Position 2 installs above a gap: durable but not applied.
        let prefix = core.install_entry(GROUP, LogPosition(2), write_entry(0, 2, 1, A, "2"));
        assert_eq!(prefix, LogPosition::ZERO);
        assert!(core.has_entry(GROUP, LogPosition(2)));
        // Filling position 1 advances the prefix through both.
        let prefix = core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        assert_eq!(prefix, LogPosition(2));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(2)).unwrap(),
            Some("2".to_string())
        );
    }

    /// Complexity guard: an install and the reads after it must not walk
    /// the log. When `read_position` scanned the retained entries and
    /// `read` probed every position below the read position, this loop was
    /// ~2 × 10⁹ map steps; now each iteration is constant work, and the
    /// bound is generous on purpose.
    #[test]
    fn install_and_read_do_not_walk_the_log() {
        const INSTALLS: u64 = 30_000;
        let mut core = DatacenterCore::new("dc0", 0);
        let began = std::time::Instant::now();
        for p in 1..=INSTALLS {
            let written = AttrId((p % 5) as u32);
            let entry = write_entry(0, p, p - 1, written, "v");
            let prefix = core.install_entry(GROUP, LogPosition(p), entry);
            assert_eq!(prefix, LogPosition(p));
            let at = core.read_position(GROUP);
            for attr in (0..5).map(AttrId) {
                let value = core.read(GROUP, ROW, attr, at).unwrap();
                assert!(attr != written || value.as_deref() == Some("v"));
            }
        }
        let took = began.elapsed();
        assert!(
            took < std::time::Duration::from_secs(20),
            "{INSTALLS} installs with 5 reads each took {took:?}: quadratic again?"
        );
    }

    #[test]
    fn apply_time_gc_reclaims_versions_behind_the_watermark() {
        let mut core = DatacenterCore::new("dc0", 0);
        core.set_gc_horizon(0);
        // Five entries rewrite the same item; with no leases the watermark
        // follows the prefix, so each apply reclaims the newly superseded
        // version (the first apply has nothing older to drop).
        for p in 1..=5 {
            core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, A, "v"));
        }
        assert_eq!(core.reclaimed_version_count(), 4);
        // The store key of (GROUP 0, ROW 0) is Key(0): only the newest
        // version survives.
        assert_eq!(core.store().version_count(mvkv::Key(0)), 1);
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(5)).unwrap(),
            Some("v".to_string())
        );
    }

    #[test]
    fn read_leases_pin_versions_against_gc() {
        let mut core = DatacenterCore::new("dc0", 0);
        core.set_gc_horizon(0);
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        core.install_entry(GROUP, LogPosition(2), write_entry(0, 2, 1, A, "2"));
        // A reader pins position 2, then three more entries apply: the
        // version serving position 2 must survive.
        core.begin_read_lease(GROUP, LogPosition(2));
        assert_eq!(core.read_lease_count(), 1);
        for p in 3..=5 {
            core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, A, "v"));
        }
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(2)).unwrap(),
            Some("2".to_string()),
            "the leased read position must stay servable"
        );
        // Releasing the lease lets the next apply reclaim what the reader
        // needed.
        core.end_read_lease(GROUP, LogPosition(2));
        assert_eq!(core.read_lease_count(), 0);
        let before = core.reclaimed_version_count();
        core.install_entry(GROUP, LogPosition(6), write_entry(0, 6, 5, A, "v"));
        assert!(core.reclaimed_version_count() > before);
        assert_eq!(core.store().version_count(mvkv::Key(0)), 1);
    }

    #[test]
    fn leader_claims_are_first_come_first_served() {
        let mut core = DatacenterCore::new("dc0", 0);
        assert!(core.leader_claim(GROUP, LogPosition(1), 10));
        // The same client asking again is still granted (idempotent).
        assert!(core.leader_claim(GROUP, LogPosition(1), 10));
        assert!(!core.leader_claim(GROUP, LogPosition(1), 11));
        // A position that already has a decided entry is never granted.
        core.install_entry(GROUP, LogPosition(2), write_entry(0, 1, 1, A, "1"));
        assert!(!core.leader_claim(GROUP, LogPosition(2), 10));
    }

    #[test]
    fn an_installed_position_leaves_no_leader_claim_behind() {
        let mut core = DatacenterCore::new("dc0", 0);
        for p in 1..=3 {
            assert!(core.leader_claim(GROUP, LogPosition(p), 10));
        }
        assert_eq!(core.leader_claims.len(), 3);
        core.install_entry(GROUP, LogPosition(2), write_entry(0, 1, 1, A, "1"));
        assert_eq!(
            core.leader_claims.keys().collect::<Vec<_>>(),
            [&(GROUP, LogPosition(1)), &(GROUP, LogPosition(3))]
        );
        // The installed position still refuses every claimant, its first
        // one included.
        assert!(!core.leader_claim(GROUP, LogPosition(2), 10));
        assert!(!core.leader_claim(GROUP, LogPosition(2), 11));
        assert_eq!(core.leader_claims.len(), 2);
    }

    #[test]
    fn leader_claim_denied_after_paxos_activity() {
        let mut core = DatacenterCore::new("dc0", 0);
        core.acceptor()
            .handle_prepare(GROUP, LogPosition(1), paxos::Ballot::initial(5));
        assert!(!core.leader_claim(GROUP, LogPosition(1), 10));
    }

    /// Install a decided entry and sync it, as the service's next sync
    /// deadline would.
    fn install_synced(core: &mut DatacenterCore, p: u64, value: &str) {
        core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, A, value));
        assert!(core.flush());
    }

    fn durable_core(label: &str, snapshot_every: u64) -> (DatacenterCore, DurableConfig) {
        let mut cfg = DurableConfig::new(storage::scratch_dir(label));
        cfg.snapshot_every = snapshot_every;
        cfg.segment_bytes = 128; // rotate nearly every record
        core_on(cfg)
    }

    /// A fresh core over `cfg`'s storage, version-GC'ing right behind the
    /// prefix.
    fn core_on(cfg: DurableConfig) -> (DatacenterCore, DurableConfig) {
        let mut core = DatacenterCore::new("dc0", 0);
        core.set_gc_horizon(0);
        core.attach_storage(DcStorage::open(cfg.clone()).unwrap());
        (core, cfg)
    }

    #[test]
    fn durable_restart_reproduces_state_despite_a_torn_wal_tail() {
        let (mut core, cfg) = durable_core("core-restart", 4);
        assert!(core.is_durable());
        // Acceptor activity for an undecided position rides the WAL too.
        let ballot = paxos::Ballot::initial(3);
        core.acceptor()
            .handle_prepare(GROUP, LogPosition(20), ballot);
        assert!(core.persist_promise(GROUP, LogPosition(20), ballot));
        for p in 1..=12 {
            install_synced(&mut core, p, &format!("v{p}"));
        }
        // The records of 13 and 14 still wait for a sync when the crash
        // hits.
        for p in 13..=14 {
            let entry = write_entry(0, p, p - 1, A, &format!("v{p}"));
            core.install_entry(GROUP, LogPosition(p), entry);
        }
        assert!(core.has_unsynced());
        let stats = core.storage_stats().unwrap();
        assert!(stats.snapshots_written >= 1, "snapshot cadence must fire");
        assert!(stats.segments_truncated >= 1, "old WAL segments must go");
        assert!(core.log(GROUP).unwrap().base() > LogPosition::ZERO);
        let fingerprint = core.state_fingerprint();
        core.inject_torn_wal_tail();
        let report = core.restart_from_disk(&cfg).unwrap();
        assert!(report.torn_tail, "the injected tear must be observed");
        assert!(report.snapshots_restored >= 1);
        assert_eq!(
            core.state_fingerprint(),
            fingerprint,
            "restart must rebuild exactly the durable state"
        );
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(12)).unwrap(),
            Some("v12".to_string())
        );
        assert!(core.is_committed(GROUP, TxnId::new(0, 12)));
        assert!(!core.has_entry(GROUP, LogPosition(13)));
        assert!(!core.is_committed(GROUP, TxnId::new(0, 14)));
        // The replayed promise still guards the undecided position.
        assert_eq!(
            core.acceptor().promised_ballot(GROUP, LogPosition(20)),
            Some(ballot)
        );
        // The storage counters are cumulative since `attach_storage`: the
        // new handle continues the crashed one's, and replay adds nothing.
        let restarted = core.storage_stats().unwrap();
        assert_eq!(restarted.records_synced, 13, "one promise + twelve entries");
        assert_eq!(restarted.syncs, stats.syncs);
        assert_eq!(restarted.snapshots_written, stats.snapshots_written);
        assert_eq!(restarted.segments_truncated, stats.segments_truncated);
        // Re-learned from the replicas, the lost entries log again; the
        // read that needs them pays for their sync.
        for p in 13..=14 {
            let entry = write_entry(0, p, p - 1, A, &format!("v{p}"));
            core.install_entry(GROUP, LogPosition(p), entry);
        }
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(14)).unwrap(),
            Some("v14".to_string())
        );
        let synced = core.storage_stats().unwrap();
        assert_eq!(synced.records_synced, 15);
        assert_eq!(synced.syncs, stats.syncs + 1);
        storage::remove_scratch_dir(&cfg.dir);
    }

    /// A position at or below the log base was decided even though its
    /// entry is truncated and its acceptor slot may be empty (a restart
    /// drops the slots; adopted positions never had one), so no leader claim
    /// may hand out round-0 fast ballots there.
    #[test]
    fn a_leader_claim_is_never_granted_at_a_decided_truncated_position() {
        let (mut core, cfg) = durable_core("core-claim-below-base", 4);
        for p in 1..=10 {
            install_synced(&mut core, p, &format!("v{p}"));
        }
        let base = core.log(GROUP).unwrap().base();
        assert!(base >= LogPosition(2), "the snapshot must have truncated");
        assert!(!core.log(GROUP).unwrap().contains(LogPosition(1)));
        assert!(core.has_entry(GROUP, LogPosition(1)));
        assert!(core.has_entry(GROUP, base));
        assert!(!core.leader_claim(GROUP, LogPosition(1), 42));
        assert!(!core.leader_claim(GROUP, base, 42));
        core.restart_from_disk(&cfg).unwrap();
        assert!(!core.acceptor().touched(GROUP, LogPosition(1)));
        assert!(!core.leader_claim(GROUP, LogPosition(1), 42));
        assert!(!core.leader_claim(GROUP, base, 42));
        // Above the decided prefix the fast path still works.
        assert!(core.leader_claim(GROUP, LogPosition(11), 42));
        storage::remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn a_decided_entry_applies_only_once_its_record_is_durable() {
        let (mut core, cfg) = durable_core("core-apply-after-durable", 0);
        let syncs = |core: &DatacenterCore| core.storage_stats().unwrap().syncs;
        let applied = |core: &DatacenterCore| core.log(GROUP).unwrap().applied_through();
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "v1"));
        // Installed — the prefix, dedup and leader lookups see it — but
        // not applied: its record is only buffered.
        assert_eq!(core.read_position(GROUP), LogPosition(1));
        assert!(core.is_committed(GROUP, TxnId::new(0, 1)));
        assert!(core.has_unsynced());
        assert_eq!(syncs(&core), 0);
        assert_eq!(applied(&core), LogPosition::ZERO);
        assert_eq!(core.store().version_count(mvkv::Key(0)), 0);
        // A read that needs it syncs first.
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("v1".to_string())
        );
        assert_eq!(syncs(&core), 1);
        assert!(!core.has_unsynced());
        // A read below the unsynced entry pays for nothing ...
        core.install_entry(GROUP, LogPosition(2), write_entry(0, 2, 1, A, "v2"));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("v1".to_string())
        );
        assert_eq!(syncs(&core), 1);
        assert_eq!(applied(&core), LogPosition(1));
        // ... and the sync that releases a held acknowledgement carries the
        // buffered record; the append alone syncs nothing.
        let ballot = paxos::Ballot::initial(3);
        assert!(core.persist_promise(GROUP, LogPosition(3), ballot));
        assert_eq!(syncs(&core), 1);
        assert!(core.flush());
        assert_eq!(syncs(&core), 2);
        assert_eq!(core.storage_stats().unwrap().records_synced, 3);
        assert_eq!(applied(&core), LogPosition(2));
        // A failed sync applies nothing and serves no read that needs the
        // entry; the record stays buffered for the next sync.
        core.install_entry(GROUP, LogPosition(3), write_entry(0, 3, 2, A, "v3"));
        core.storage_mut().unwrap().fault_mut().fail_next_syncs(1);
        assert!(!core.flush());
        assert_eq!(applied(&core), LogPosition(2));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(3)).unwrap(),
            Some("v3".to_string()),
            "the read's own sync succeeds"
        );
        assert_eq!(core.storage_stats().unwrap().sync_failures, 1);
        storage::remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn a_decided_entry_is_logged_once_however_often_it_is_installed() {
        let (mut core, cfg) = durable_core("core-log-once", 4);
        let synced = |core: &mut DatacenterCore| {
            assert!(core.flush());
            core.storage_stats().unwrap().records_synced
        };
        // The group home's shape: install on learning the value, install
        // again when its own `Apply` broadcast comes back.
        let entry = write_entry(0, 1, 0, A, "v1");
        core.install_entry(GROUP, LogPosition(1), Arc::clone(&entry));
        assert_eq!(synced(&mut core), 1);
        core.install_entry(GROUP, LogPosition(1), entry);
        assert_eq!(synced(&mut core), 1, "a re-install must not log again");
        // Positions at or below a restored snapshot base: re-learning one
        // from a slow peer changes nothing and logs nothing.
        for p in 2..=10 {
            core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, A, "v"));
        }
        assert!(core.flush());
        core.restart_from_disk(&cfg).unwrap();
        let base = core.log(GROUP).unwrap().base();
        assert!(
            base >= LogPosition(2),
            "the snapshot must have raised the base"
        );
        let before = synced(&mut core);
        for p in [1, base.0] {
            core.install_entry(GROUP, LogPosition(p), write_entry(0, p, p - 1, A, "v"));
        }
        assert_eq!(
            synced(&mut core),
            before,
            "installs at or below the base log nothing"
        );
        // A failed sync leaves the single record buffered for the next one.
        let entry = write_entry(0, 11, 10, A, "v11");
        core.install_entry(GROUP, LogPosition(11), Arc::clone(&entry));
        core.install_entry(GROUP, LogPosition(11), entry);
        core.storage_mut().unwrap().fault_mut().fail_next_syncs(1);
        assert!(!core.flush());
        assert_eq!(
            core.storage_stats().unwrap().records_synced,
            before,
            "the failed sync made nothing durable"
        );
        core.install_entry(GROUP, LogPosition(12), write_entry(0, 12, 11, A, "v12"));
        assert_eq!(
            synced(&mut core),
            before + 2,
            "positions 11 and 12, once each"
        );
        storage::remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn a_restarted_datacenter_forgets_below_its_base_and_a_lagging_peer_adopts_its_state() {
        let (mut donor, cfg) = durable_core("core-forgot", 4);
        for p in 1..=10 {
            install_synced(&mut donor, p, &format!("v{p}"));
        }
        assert!(!donor.forgot(GROUP, LogPosition(1)), "no restart yet");
        donor.restart_from_disk(&cfg).unwrap();
        let base = donor.log(GROUP).unwrap().base();
        assert!(base >= LogPosition(4));
        assert!(donor.forgot(GROUP, base));
        assert!(!donor.forgot(GROUP, base.next()));
        assert!(!donor.forgot(GroupId(7), LogPosition(1)));

        // A peer that decided only position 1 adopts the donor's state: the
        // truncated positions arrive as rows and ids, the tail as entries.
        let (mut lagging, lagging_cfg) = durable_core("core-adopt", 4);
        lagging.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "v1"));
        let state = donor.group_state(GROUP).unwrap();
        assert_eq!(state.snapshot.log_base, base);
        assert_eq!(state.snapshot.position, LogPosition(10));
        assert!(lagging.adopt_group_state(&state));
        assert!(
            !lagging.adopt_group_state(&state),
            "nothing new the second time"
        );
        assert_eq!(lagging.read_position(GROUP), LogPosition(10));
        assert!(lagging.log(GROUP).unwrap().base() >= base);
        for p in 1..=10 {
            assert!(lagging.is_committed(GROUP, TxnId::new(0, p)));
        }
        assert_eq!(
            lagging.read(GROUP, ROW, A, LogPosition(10)).unwrap(),
            Some("v10".to_string())
        );
        assert_eq!(
            lagging.committed_through_prefix(GROUP),
            donor.committed_through_prefix(GROUP)
        );
        // The adopted state is the peer's own now: a restart reproduces it.
        assert!(!lagging.has_unsynced());
        let fingerprint = lagging.state_fingerprint();
        lagging.restart_from_disk(&lagging_cfg).unwrap();
        assert_eq!(lagging.state_fingerprint(), fingerprint);
        storage::remove_scratch_dir(&cfg.dir);
        storage::remove_scratch_dir(&lagging_cfg.dir);
    }

    /// With the default 256 KiB segments a group's records sit in the
    /// active segment for hundreds of positions, and no snapshot of them
    /// could let the WAL delete anything: the first snapshots wait for the
    /// rotation that seals them.
    #[test]
    fn snapshots_wait_for_the_rotation_that_seals_the_groups_records() {
        let (mut core, cfg) = core_on(DurableConfig::new(storage::scratch_dir("core-sealed-gate")));
        let groups = [GroupId(0), GroupId(1)];
        let value = "x".repeat(1000);
        let mut next = 1;
        let mut decide_both = |core: &mut DatacenterCore| {
            for g in groups {
                let txn = Transaction::builder(TxnId::new(g.0, next), g, LogPosition(next - 1))
                    .write(ItemRef::new(ROW, A), value.as_str())
                    .build();
                core.install_entry(g, LogPosition(next), Arc::new(LogEntry::single(txn)));
            }
            assert!(core.flush());
            next += 1;
        };
        let stats = |core: &DatacenterCore| core.storage_stats().unwrap();
        // 200 positions, each group far past `snapshot_every`, all in the
        // active segment.
        for _ in 0..100 {
            decide_both(&mut core);
        }
        assert_eq!(stats(&core).segments_on_disk, 1);
        assert_eq!(stats(&core).snapshots_written, 0);
        for g in groups {
            assert_eq!(core.log(g).unwrap().base(), LogPosition::ZERO);
        }
        // The rotation seals both groups' records: each snapshots once.
        while stats(&core).segments_on_disk == 1 {
            decide_both(&mut core);
        }
        assert_eq!(stats(&core).snapshots_written, 2);
        assert_eq!(stats(&core).segments_truncated, 0);
        for g in groups {
            assert!(core.log(g).unwrap().base() > LogPosition::ZERO);
        }
        // The next snapshots, `snapshot_every` later, lift both floors past
        // the sealed segment, which goes.
        for _ in 0..cfg.snapshot_every {
            decide_both(&mut core);
        }
        assert_eq!(stats(&core).snapshots_written, 4);
        assert_eq!(stats(&core).segments_truncated, 1);
        assert_eq!(stats(&core).segments_on_disk, 1);
        storage::remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn open_read_lease_pins_wal_truncation_until_released() {
        let (mut core, cfg) = durable_core("core-lease-pin", 4);
        core.begin_read_lease(GROUP, LogPosition(2));
        for p in 1..=9 {
            install_synced(&mut core, p, "v");
        }
        // The snapshot fired, but the truncation floor is capped at the
        // leased position: nothing at or above position 2 may go.
        assert!(core.storage_stats().unwrap().snapshots_written >= 1);
        assert!(core.log(GROUP).unwrap().base() < LogPosition(2));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(2)).unwrap(),
            Some("v".to_string()),
            "the leased position must stay servable"
        );
        // Releasing the lease lets the next snapshot advance the floor.
        core.end_read_lease(GROUP, LogPosition(2));
        for p in 10..=13 {
            install_synced(&mut core, p, "v");
        }
        assert!(core.log(GROUP).unwrap().base() >= LogPosition(2));
        storage::remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn in_memory_core_persists_nothing_and_always_acks() {
        let mut core = DatacenterCore::new("dc0", 0);
        assert!(!core.is_durable());
        assert!(core.storage_stats().is_none());
        assert!(
            !core.persist_promise(GROUP, LogPosition(1), paxos::Ballot::initial(1)),
            "an in-memory acknowledgement waits for no sync"
        );
        core.install_entry(GROUP, LogPosition(1), write_entry(0, 1, 0, A, "1"));
        assert_eq!(core.log(GROUP).unwrap().base(), LogPosition::ZERO);
    }

    #[test]
    fn previous_winner_is_first_transaction_of_previous_entry() {
        let mut core = DatacenterCore::new("dc0", 0);
        assert_eq!(core.previous_winner_client(GROUP, LogPosition(1)), None);
        core.install_entry(GROUP, LogPosition(1), write_entry(7, 1, 0, A, "1"));
        assert_eq!(core.previous_winner_client(GROUP, LogPosition(2)), Some(7));
        assert_eq!(core.previous_winner_client(GROUP, LogPosition(3)), None);
    }
}
