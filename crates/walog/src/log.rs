//! A single replica's copy of a transaction group's write-ahead log.

use crate::entry::LogEntry;
use crate::types::LogPosition;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised by log maintenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// An attempt was made to install a different value at an
    /// already-decided position — this would violate replication property
    /// (R1) and indicates a protocol bug, so the log refuses it.
    ConflictingEntry {
        /// The position being written.
        position: LogPosition,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::ConflictingEntry { position } => {
                write!(
                    f,
                    "conflicting entry for already-decided log position {position}"
                )
            }
        }
    }
}

impl std::error::Error for LogError {}

/// One replica's write-ahead log for one transaction group.
///
/// Entries are held as `Arc<LogEntry>`: a decided value is shared between
/// the Paxos messages that carried it, every replica's log, and the
/// checker's merged history without ever being deep-cloned.
///
/// Entries may be installed out of order (a replica can miss Paxos messages
/// and learn later positions first); the log tracks both the highest decided
/// position and the highest position up to which the prefix is gap-free,
/// plus an *applied* cursor recording how far entries have been flushed into
/// the local key-value store.
///
/// A log may be **truncated**: entries at or below the `base` position are
/// dropped once a snapshot covers them (see the storage plane). The base
/// starts at 0 (nothing truncated); installing at or below the base is a
/// no-op, and the contiguous prefix is counted from `base + 1`.
///
/// The three cursors are ordered `base ≤ applied_through ≤ prefix` and only
/// ever move forward. Each is a field carried along by the operation that
/// moves it, so reading one never walks the retained entries.
#[derive(Clone, Debug, Default)]
pub struct GroupLog {
    entries: BTreeMap<LogPosition, Arc<LogEntry>>,
    applied_through: LogPosition,
    base: LogPosition,
    /// Highest position `p` with every position `base+1..=p` retained.
    prefix: LogPosition,
}

impl GroupLog {
    /// An empty log.
    pub fn new() -> Self {
        GroupLog::default()
    }

    /// Install `entry` at `position` (idempotent). Installing a *different*
    /// entry at a decided position is an (R1) violation and returns an error.
    pub fn install(&mut self, position: LogPosition, entry: Arc<LogEntry>) -> Result<(), LogError> {
        debug_assert!(position > LogPosition::ZERO, "log positions start at 1");
        if position <= self.base {
            // The position was decided, applied, snapshotted and truncated
            // away; re-learning it (e.g. from a slow peer) is a no-op.
            return Ok(());
        }
        match self.entries.get(&position) {
            Some(existing) => {
                // Same shared allocation (the common case once a value is
                // decided) or structurally equal: idempotent re-install.
                if Arc::ptr_eq(existing, &entry) || **existing == *entry {
                    Ok(())
                } else {
                    Err(LogError::ConflictingEntry { position })
                }
            }
            None => {
                self.entries.insert(position, entry);
                if position == self.prefix.next() {
                    self.advance_prefix();
                }
                Ok(())
            }
        }
    }

    /// Move the prefix cursor over every retained entry directly above it.
    /// Amortised O(1) per install: each position is stepped over once.
    fn advance_prefix(&mut self) {
        let mut next = self.prefix.next();
        for (position, _) in self.entries.range(next..) {
            if *position != next {
                break;
            }
            next = next.next();
        }
        self.prefix = next.prev();
    }

    /// Declare positions `1..=base` decided, applied and covered by a
    /// snapshot: drop the retained entries there and carry all three
    /// cursors to at least `base`. The prefix then steps over whatever is
    /// retained directly above the new base.
    fn raise_base(&mut self, base: LogPosition) -> usize {
        if base <= self.base {
            return 0;
        }
        let keep = self.entries.split_off(&base.next());
        let removed = std::mem::replace(&mut self.entries, keep).len();
        self.base = base;
        self.applied_through = self.applied_through.max(base);
        if base > self.prefix {
            self.prefix = base;
            self.advance_prefix();
        }
        removed
    }

    /// The entry at `position`, if decided locally.
    pub fn get(&self, position: LogPosition) -> Option<&Arc<LogEntry>> {
        self.entries.get(&position)
    }

    /// Whether `position` has been decided locally.
    pub fn contains(&self, position: LogPosition) -> bool {
        self.entries.contains_key(&position)
    }

    /// The highest decided position (the truncation base when no entries
    /// are retained — everything at or below the base was decided).
    pub fn last_decided(&self) -> LogPosition {
        self.entries
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.base)
    }

    /// The truncation base: every position `1..=base` was decided, applied
    /// and truncated away (0 when nothing has been truncated).
    pub fn base(&self) -> LogPosition {
        self.base
    }

    /// Drop retained entries strictly below `floor` and raise the base to
    /// `floor - 1`. The caller asserts that everything below `floor` is
    /// durably covered by a snapshot — in particular decided, so the floor
    /// is at most one past the gap-free prefix. Returns entries removed.
    pub fn truncate_below(&mut self, floor: LogPosition) -> usize {
        debug_assert!(
            floor.prev() <= self.prefix,
            "truncation floor {floor} is past the gap-free prefix {}",
            self.prefix
        );
        self.raise_base(floor.prev())
    }

    /// Restart path: declare positions `1..=base` decided-and-applied from
    /// a snapshot, whatever the log held there (a snapshot may cover
    /// positions this replica never learned). Entries at or below `base`
    /// are dropped, exactly as [`GroupLog::truncate_below`] drops them.
    pub fn restore_base(&mut self, base: LogPosition) {
        self.raise_base(base);
    }

    /// The highest position `p` such that every position `base+1..=p` is
    /// decided locally (positions at or below the base count as decided);
    /// equals the base when position `base+1` is missing. This is the
    /// position a local read can safely be served at without catch-up.
    pub fn contiguous_prefix(&self) -> LogPosition {
        self.prefix
    }

    /// Iterate decided entries in position order.
    pub fn iter(&self) -> impl Iterator<Item = (LogPosition, &Arc<LogEntry>)> {
        self.entries.iter().map(|(p, e)| (*p, e))
    }

    /// Number of decided positions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been decided.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest position whose entry has been applied to the key-value store.
    pub fn applied_through(&self) -> LogPosition {
        self.applied_through
    }

    /// Record that entries up to and including `position` have been applied.
    /// The cursor never moves backwards, and never passes the gap-free
    /// prefix: entries apply strictly in position order.
    pub fn mark_applied_through(&mut self, position: LogPosition) {
        debug_assert!(
            position <= self.prefix,
            "applied cursor {position} is past the gap-free prefix {}",
            self.prefix
        );
        if position > self.applied_through {
            self.applied_through = position;
        }
    }

    /// Entries decided but not yet applied, up to `through`, in order.
    /// Returns `None` if some position in `(applied_through, through]` is
    /// missing (the caller must catch up first).
    pub fn unapplied_range(
        &self,
        through: LogPosition,
    ) -> Option<Vec<(LogPosition, Arc<LogEntry>)>> {
        let mut out = Vec::new();
        let mut pos = self.applied_through.next();
        while pos <= through {
            match self.entries.get(&pos) {
                Some(e) => out.push((pos, Arc::clone(e))),
                None => return None,
            }
            pos = pos.next();
        }
        Some(out)
    }

    /// Total number of committed transactions across all decided entries.
    pub fn committed_transaction_count(&self) -> usize {
        self.entries.values().map(|e| e.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::{AttrId, GroupId, KeyId};
    use crate::types::{ItemRef, Transaction, TxnId};

    fn entry(seq: u64) -> Arc<LogEntry> {
        Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(0, seq), GroupId(0), LogPosition(0))
                .write(ItemRef::new(KeyId(0), AttrId(0)), seq.to_string())
                .build(),
        ))
    }

    #[test]
    fn install_is_idempotent_but_rejects_conflicts() {
        let mut log = GroupLog::new();
        let e1 = entry(1);
        log.install(LogPosition(1), Arc::clone(&e1)).unwrap();
        // Same Arc and a structurally equal but distinct allocation are both
        // accepted.
        log.install(LogPosition(1), e1).unwrap();
        log.install(LogPosition(1), entry(1)).unwrap();
        let err = log.install(LogPosition(1), entry(2)).unwrap_err();
        assert_eq!(
            err,
            LogError::ConflictingEntry {
                position: LogPosition(1)
            }
        );
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn contiguous_prefix_and_gaps() {
        let mut log = GroupLog::new();
        assert_eq!(log.contiguous_prefix(), LogPosition::ZERO);
        log.install(LogPosition(1), entry(1)).unwrap();
        log.install(LogPosition(2), entry(2)).unwrap();
        log.install(LogPosition(4), entry(4)).unwrap();
        assert_eq!(log.last_decided(), LogPosition(4));
        assert_eq!(log.contiguous_prefix(), LogPosition(2));
        assert!(!log.contains(LogPosition(3)));
        log.install(LogPosition(3), entry(3)).unwrap();
        assert_eq!(log.contiguous_prefix(), LogPosition(4));
    }

    #[test]
    fn applied_cursor_and_unapplied_range() {
        let mut log = GroupLog::new();
        for i in 1..=3 {
            log.install(LogPosition(i), entry(i)).unwrap();
        }
        let pending = log.unapplied_range(LogPosition(3)).unwrap();
        assert_eq!(pending.len(), 3);
        log.mark_applied_through(LogPosition(2));
        assert_eq!(log.applied_through(), LogPosition(2));
        let pending = log.unapplied_range(LogPosition(3)).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, LogPosition(3));
        // Cursor never regresses.
        log.mark_applied_through(LogPosition(1));
        assert_eq!(log.applied_through(), LogPosition(2));
        // A gap makes the range unavailable.
        log.install(LogPosition(5), entry(5)).unwrap();
        assert!(log.unapplied_range(LogPosition(5)).is_none());
    }

    #[test]
    fn truncation_raises_the_base_and_stays_idempotent() {
        let mut log = GroupLog::new();
        for i in 1..=6 {
            log.install(LogPosition(i), entry(i)).unwrap();
        }
        log.mark_applied_through(LogPosition(6));
        let removed = log.truncate_below(LogPosition(4));
        assert_eq!(removed, 3);
        assert_eq!(log.base(), LogPosition(3));
        assert_eq!(log.len(), 3);
        // The prefix still counts truncated positions as decided.
        assert_eq!(log.contiguous_prefix(), LogPosition(6));
        assert_eq!(log.last_decided(), LogPosition(6));
        // Re-learning a truncated position is a silent no-op, even with a
        // different value (the decided value is gone; trust the snapshot).
        log.install(LogPosition(2), entry(99)).unwrap();
        assert!(!log.contains(LogPosition(2)));
        // Truncating below an older floor never lowers the base.
        log.truncate_below(LogPosition(2));
        assert_eq!(log.base(), LogPosition(3));
    }

    #[test]
    fn restore_base_declares_the_snapshot_prefix_decided() {
        let mut log = GroupLog::new();
        log.restore_base(LogPosition(5));
        assert_eq!(log.base(), LogPosition(5));
        assert_eq!(log.applied_through(), LogPosition(5));
        assert_eq!(log.contiguous_prefix(), LogPosition(5));
        assert_eq!(log.last_decided(), LogPosition(5));
        // Entries after the base extend the prefix normally.
        log.install(LogPosition(6), entry(6)).unwrap();
        assert_eq!(log.contiguous_prefix(), LogPosition(6));
        let pending = log.unapplied_range(LogPosition(6)).unwrap();
        assert_eq!(pending.len(), 1);
    }

    #[test]
    fn restore_base_on_a_populated_log_truncates_like_truncate_below() {
        // 1, 2, a gap at 3, then 4..=6 and 8.
        let mut log = GroupLog::new();
        for i in [1, 2, 4, 5, 6, 8] {
            log.install(LogPosition(i), entry(i)).unwrap();
        }
        assert_eq!(log.contiguous_prefix(), LogPosition(2));
        // The snapshot covers the gap and lands right under a retained
        // entry: the prefix must run on over 4..=6.
        log.restore_base(LogPosition(3));
        assert_eq!(log.base(), LogPosition(3));
        assert_eq!(log.applied_through(), LogPosition(3));
        assert_eq!(log.contiguous_prefix(), LogPosition(6));
        assert!(!log.contains(LogPosition(7)) && log.contains(LogPosition(8)));
        // Everything at or below the base left the log, as after a
        // truncation to the same base.
        let mut truncated = GroupLog::new();
        for i in [1, 2, 3, 4, 5, 6, 8] {
            truncated.install(LogPosition(i), entry(i)).unwrap();
        }
        truncated.truncate_below(LogPosition(4));
        for other in [&log, &truncated] {
            let retained: Vec<u64> = other.iter().map(|(p, _)| p.0).collect();
            assert_eq!(retained, vec![4, 5, 6, 8]);
            assert_eq!(other.len(), 4);
            assert_eq!(other.committed_transaction_count(), 4);
        }
        // A lower base changes nothing.
        log.restore_base(LogPosition(1));
        assert_eq!(log.base(), LogPosition(3));
        assert_eq!(log.len(), 4);
    }

    /// Complexity guard: a prefix query must not walk the retained log.
    /// When it did, this loop was ~2 × 10¹⁰ map steps (minutes); now it is
    /// 2 × 10⁵ constant-time steps, and the bound is generous on purpose.
    #[test]
    fn prefix_queries_do_not_walk_the_log() {
        const INSTALLS: u64 = 200_000;
        let shared = entry(1);
        let mut log = GroupLog::new();
        let began = std::time::Instant::now();
        for i in 1..=INSTALLS {
            log.install(LogPosition(i), Arc::clone(&shared)).unwrap();
            let prefix = log.contiguous_prefix();
            assert_eq!(prefix, LogPosition(i));
        }
        let took = began.elapsed();
        assert!(
            took < std::time::Duration::from_secs(20),
            "{INSTALLS} installs with prefix queries took {took:?}: quadratic again?"
        );
    }

    #[test]
    fn committed_transaction_count_sums_entries() {
        let mut log = GroupLog::new();
        log.install(LogPosition(1), entry(1)).unwrap();
        log.install(
            LogPosition(2),
            Arc::new(LogEntry::combined(vec![
                Transaction::builder(TxnId::new(0, 10), GroupId(0), LogPosition(1))
                    .write(ItemRef::new(KeyId(0), AttrId(1)), "1")
                    .build(),
                Transaction::builder(TxnId::new(1, 11), GroupId(0), LogPosition(1))
                    .write(ItemRef::new(KeyId(0), AttrId(2)), "2")
                    .build(),
            ])),
        )
        .unwrap();
        log.install(LogPosition(3), Arc::new(LogEntry::noop()))
            .unwrap();
        assert_eq!(log.committed_transaction_count(), 3);
    }
}
