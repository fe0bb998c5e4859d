//! Offline verification of the paper's correctness properties.
//!
//! The paper proves (Theorems 1–3) that the transaction tier guarantees
//! one-copy serializability provided the log and replication properties
//! hold. This module turns those obligations into executable checks run by
//! tests and by the experiment harness over the logs a simulation produced:
//!
//! * **(R1) replica agreement** — no two replicas hold different entries for
//!   the same log position ([`check_replica_agreement`]).
//! * **(L2) single-position commit** — every transaction id appears in at
//!   most one log position (and at most once within it).
//! * **(L3) / Definition 1 — one-copy serializability** — replaying the log
//!   in position order (and list order within a combined entry) must explain
//!   every observed read: the value a transaction observed for an item must
//!   equal the latest value written for that item at or before the
//!   transaction's read position, and no transaction serialized between the
//!   transaction's read position and its commit position may have written
//!   anything the transaction read ([`check_one_copy_serializability`]).
//!
//! The checker runs over the interned representation directly: items are
//! compared as packed integers, and replica logs share their entries by
//! `Arc`, so merging replicas' histories copies pointers, not transactions.

use crate::entry::LogEntry;
use crate::log::GroupLog;
use crate::types::{ItemRef, LogPosition, TxnId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// A violation of one of the correctness properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two replicas decided different values for the same position (R1).
    ReplicaDisagreement {
        /// The disagreeing position.
        position: LogPosition,
    },
    /// A transaction id appears in more than one log position, or twice in
    /// the same entry (L2).
    DuplicateCommit {
        /// The duplicated transaction.
        txn: TxnId,
        /// The two positions involved (equal when duplicated within an entry).
        positions: (LogPosition, LogPosition),
    },
    /// A committed transaction read an item that some transaction serialized
    /// after its read position (but before it) wrote — its reads were stale
    /// (violates L3).
    StaleRead {
        /// The violating transaction.
        txn: TxnId,
        /// The item whose read was stale.
        item: ItemRef,
        /// The writer serialized in between.
        written_by: TxnId,
        /// Position at which the intervening write committed.
        at: LogPosition,
    },
    /// A committed transaction's observed value for an item differs from the
    /// value the equivalent serial history would have given it.
    WrongObservedValue {
        /// The violating transaction.
        txn: TxnId,
        /// The item read.
        item: ItemRef,
        /// Value the serial history implies it should have read.
        expected: Option<String>,
        /// Value it actually observed.
        observed: Option<String>,
    },
    /// A transaction's read position is not strictly before its commit
    /// position — the protocol never produces this shape.
    InvalidReadPosition {
        /// The violating transaction.
        txn: TxnId,
        /// The transaction's read position.
        read_position: LogPosition,
        /// The position it committed at.
        committed_at: LogPosition,
    },
    /// Two replicas reached the same gap-free prefix of a group, but only
    /// one of them indexes a transaction decided within it: the other
    /// installed a different value (a no-op) at a position the first had
    /// already truncated, where the per-position check cannot see it.
    DivergentCommittedSets {
        /// The shared gap-free prefix.
        prefix: LogPosition,
        /// A transaction only one of the replicas indexes.
        txn: TxnId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ReplicaDisagreement { position } => {
                write!(f, "replicas disagree on log position {position}")
            }
            Violation::DuplicateCommit { txn, positions } => write!(
                f,
                "transaction {txn} committed at both position {} and {}",
                positions.0, positions.1
            ),
            Violation::StaleRead { txn, item, written_by, at } => write!(
                f,
                "transaction {txn} read {item} but {written_by} wrote it at position {at}, after {txn}'s read position"
            ),
            Violation::WrongObservedValue { txn, item, expected, observed } => write!(
                f,
                "transaction {txn} observed {observed:?} for {item}, serial history implies {expected:?}"
            ),
            Violation::InvalidReadPosition { txn, read_position, committed_at } => write!(
                f,
                "transaction {txn} committed at {committed_at} with read position {read_position}"
            ),
            Violation::DivergentCommittedSets { prefix, txn } => write!(
                f,
                "replicas applied the same prefix {prefix} but only some index transaction {txn}"
            ),
        }
    }
}

/// Summary of a successful verification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of log positions examined.
    pub positions: usize,
    /// Number of committed transactions examined.
    pub transactions: usize,
    /// Number of positions holding more than one transaction (combined
    /// entries produced by Paxos-CP).
    pub combined_positions: usize,
    /// Number of no-op (recovery) entries.
    pub noop_positions: usize,
    /// The equivalent serial history: transaction ids in serialization order.
    pub serial_order: Vec<TxnId>,
}

/// Check property (R1): for every position decided by more than one replica,
/// all replicas hold the same entry.
pub fn check_replica_agreement(logs: &[&GroupLog]) -> Result<(), Violation> {
    let mut seen: HashMap<LogPosition, &Arc<LogEntry>> = HashMap::new();
    for log in logs {
        for (pos, entry) in log.iter() {
            match seen.get(&pos) {
                Some(existing) if !Arc::ptr_eq(existing, entry) && ***existing != **entry => {
                    return Err(Violation::ReplicaDisagreement { position: pos })
                }
                Some(_) => {}
                None => {
                    seen.insert(pos, entry);
                }
            }
        }
    }
    Ok(())
}

/// Merge several replicas' logs into one (they must already agree; see
/// [`check_replica_agreement`]). The union covers positions any replica
/// decided, which is the history `H` of Theorem 1. Entries are shared with
/// the source logs, not copied.
pub fn merged_log(logs: &[&GroupLog]) -> GroupLog {
    let mut merged = GroupLog::new();
    for log in logs {
        for (pos, entry) in log.iter() {
            // Agreement was checked by the caller; an install error here
            // means the caller skipped that step, which is a bug.
            merged
                .install(pos, Arc::clone(entry))
                .expect("replica logs disagree; run check_replica_agreement first");
        }
    }
    merged
}

/// Check one-copy serializability (Definition 1) plus (L2) over a single
/// (typically merged) log, validating both the structural no-stale-reads
/// condition and the observed values recorded by each transaction.
pub fn check_one_copy_serializability(log: &GroupLog) -> Result<CheckReport, Violation> {
    // Value of each item after replaying positions <= p, stored as full
    // version history so reads at arbitrary read positions can be resolved.
    let mut versions: BTreeMap<ItemRef, Vec<(LogPosition, TxnId, String)>> = BTreeMap::new();
    let mut committed_at: HashMap<TxnId, LogPosition> = HashMap::new();
    let mut report = CheckReport::default();

    for (pos, entry) in log.iter() {
        report.positions += 1;
        if entry.is_noop() {
            report.noop_positions += 1;
        }
        if entry.len() > 1 {
            report.combined_positions += 1;
        }
        // Writes performed by earlier transactions of this same entry: they
        // are serialized before later list members but share the position.
        let mut intra_entry: HashMap<ItemRef, (TxnId, &str)> = HashMap::new();
        for txn in entry.transactions() {
            report.transactions += 1;
            if let Some(prev) = committed_at.insert(txn.id, pos) {
                return Err(Violation::DuplicateCommit {
                    txn: txn.id,
                    positions: (prev, pos),
                });
            }
            if txn.read_position >= pos {
                return Err(Violation::InvalidReadPosition {
                    txn: txn.id,
                    read_position: txn.read_position,
                    committed_at: pos,
                });
            }
            for read in txn.reads() {
                // Structural staleness: any write of this item serialized in
                // (read_position, pos) or earlier in this entry is a violation.
                if let Some((writer, _)) = intra_entry.get(&read.item) {
                    return Err(Violation::StaleRead {
                        txn: txn.id,
                        item: read.item,
                        written_by: *writer,
                        at: pos,
                    });
                }
                if let Some(history) = versions.get(&read.item) {
                    if let Some((p, writer, _)) = history
                        .iter()
                        .rev()
                        .find(|(p, _, _)| *p > txn.read_position && *p < pos)
                    {
                        return Err(Violation::StaleRead {
                            txn: txn.id,
                            item: read.item,
                            written_by: *writer,
                            at: *p,
                        });
                    }
                }
                // Value check against the equivalent serial history: the
                // latest write at or before the read position.
                let expected = versions.get(&read.item).and_then(|history| {
                    history
                        .iter()
                        .rev()
                        .find(|(p, _, _)| *p <= txn.read_position)
                        .map(|(_, _, v)| v.clone())
                });
                if expected != read.observed {
                    return Err(Violation::WrongObservedValue {
                        txn: txn.id,
                        item: read.item,
                        expected,
                        observed: read.observed.clone(),
                    });
                }
            }
            for write in txn.writes() {
                intra_entry.insert(write.item, (txn.id, write.value.as_str()));
            }
            report.serial_order.push(txn.id);
        }
        // Fold this entry's writes into the version history, respecting list
        // order (later list members overwrite earlier ones at equal position).
        for txn in entry.transactions() {
            for write in txn.writes() {
                let history = versions.entry(write.item).or_default();
                // Remove any same-position earlier value for the item so the
                // last writer in list order wins at this position.
                if let Some(last) = history.last() {
                    if last.0 == pos {
                        history.pop();
                    }
                }
                history.push((pos, txn.id, write.value.clone()));
            }
        }
    }
    Ok(report)
}

/// Run the full battery over a set of replica logs: replica agreement, then
/// one-copy serializability of the merged history. Returns the report of the
/// merged check.
pub fn check_all(logs: &[&GroupLog]) -> Result<CheckReport, Violation> {
    check_replica_agreement(logs)?;
    let merged = merged_log(logs);
    check_one_copy_serializability(&merged)
}

/// Collect every violation rather than stopping at the first; useful in test
/// diagnostics.
pub fn collect_violations(logs: &[&GroupLog]) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(v) = check_replica_agreement(logs) {
        out.push(v);
        return out;
    }
    let merged = merged_log(logs);
    if let Err(v) = check_one_copy_serializability(&merged) {
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::{AttrId, GroupId, KeyId};
    use crate::types::Transaction;

    fn item(a: u32) -> ItemRef {
        ItemRef::new(KeyId(0), AttrId(a))
    }

    // Attribute ids used by names in the original string-keyed tests.
    const X: u32 = 0;
    const Y: u32 = 1;
    const Z: u32 = 2;

    fn write_txn(client: u32, seq: u64, read_pos: u64, attr: u32, value: &str) -> Transaction {
        Transaction::builder(TxnId::new(client, seq), GroupId(0), LogPosition(read_pos))
            .write(item(attr), value)
            .build()
    }

    fn single(txn: Transaction) -> Arc<LogEntry> {
        Arc::new(LogEntry::single(txn))
    }

    #[test]
    fn replica_agreement_detects_divergence() {
        let mut a = GroupLog::new();
        let mut b = GroupLog::new();
        a.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        b.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        assert!(check_replica_agreement(&[&a, &b]).is_ok());
        let mut c = GroupLog::new();
        c.install(LogPosition(1), single(write_txn(9, 9, 0, X, "other")))
            .unwrap();
        assert_eq!(
            check_replica_agreement(&[&a, &c]),
            Err(Violation::ReplicaDisagreement {
                position: LogPosition(1)
            })
        );
    }

    #[test]
    fn merged_log_covers_union_of_positions() {
        let mut a = GroupLog::new();
        let mut b = GroupLog::new();
        a.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        b.install(LogPosition(2), single(write_txn(0, 2, 1, X, "2")))
            .unwrap();
        let merged = merged_log(&[&a, &b]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn serial_history_with_correct_reads_passes() {
        let mut log = GroupLog::new();
        log.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        // Transaction reads x (value "1" as of position 1) and writes y.
        let t2 = Transaction::builder(TxnId::new(1, 2), GroupId(0), LogPosition(1))
            .read(item(X), Some("1"))
            .write(item(Y), "2")
            .build();
        log.install(LogPosition(2), single(t2)).unwrap();
        let report = check_one_copy_serializability(&log).unwrap();
        assert_eq!(report.transactions, 2);
        assert_eq!(report.positions, 2);
        assert_eq!(report.serial_order.len(), 2);
    }

    #[test]
    fn stale_read_is_detected() {
        let mut log = GroupLog::new();
        log.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        // t2 commits at position 2 writing x.
        log.install(LogPosition(2), single(write_txn(0, 2, 1, X, "2")))
            .unwrap();
        // t3 read x at read position 1 (observing "1") but commits at
        // position 3, after t2 overwrote x: stale.
        let t3 = Transaction::builder(TxnId::new(1, 3), GroupId(0), LogPosition(1))
            .read(item(X), Some("1"))
            .write(item(Z), "3")
            .build();
        log.install(LogPosition(3), single(t3)).unwrap();
        match check_one_copy_serializability(&log) {
            Err(Violation::StaleRead { txn, at, .. }) => {
                assert_eq!(txn, TxnId::new(1, 3));
                assert_eq!(at, LogPosition(2));
            }
            other => panic!("expected StaleRead, got {other:?}"),
        }
    }

    #[test]
    fn wrong_observed_value_is_detected() {
        let mut log = GroupLog::new();
        log.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        let t2 = Transaction::builder(TxnId::new(1, 2), GroupId(0), LogPosition(1))
            .read(item(X), Some("not-1"))
            .write(item(Y), "2")
            .build();
        log.install(LogPosition(2), single(t2)).unwrap();
        assert!(matches!(
            check_one_copy_serializability(&log),
            Err(Violation::WrongObservedValue { .. })
        ));
    }

    #[test]
    fn read_of_never_written_item_expects_none() {
        let mut log = GroupLog::new();
        let t = Transaction::builder(TxnId::new(0, 1), GroupId(0), LogPosition(0))
            .read(item(9), None)
            .write(item(9), "1")
            .build();
        log.install(LogPosition(1), single(t)).unwrap();
        assert!(check_one_copy_serializability(&log).is_ok());
    }

    #[test]
    fn duplicate_commit_across_positions_is_detected() {
        let mut log = GroupLog::new();
        let t = write_txn(0, 1, 0, X, "1");
        log.install(LogPosition(1), single(t.clone())).unwrap();
        let mut t_later = t;
        t_later.read_position = LogPosition(1);
        log.install(LogPosition(2), single(t_later)).unwrap();
        assert!(matches!(
            check_one_copy_serializability(&log),
            Err(Violation::DuplicateCommit { .. })
        ));
    }

    #[test]
    fn combined_entry_with_internal_conflict_is_detected() {
        let mut log = GroupLog::new();
        let writer = write_txn(0, 1, 0, X, "1");
        // Second list member reads x, which the first wrote: invalid combine.
        let reader = Transaction::builder(TxnId::new(1, 2), GroupId(0), LogPosition(0))
            .read(item(X), None)
            .write(item(Y), "2")
            .build();
        log.install(
            LogPosition(1),
            Arc::new(LogEntry::combined(vec![writer, reader])),
        )
        .unwrap();
        assert!(matches!(
            check_one_copy_serializability(&log),
            Err(Violation::StaleRead { .. })
        ));
    }

    #[test]
    fn valid_combined_entry_passes_and_is_counted() {
        let mut log = GroupLog::new();
        let a = write_txn(0, 1, 0, X, "1");
        let b = write_txn(1, 2, 0, Y, "2");
        log.install(LogPosition(1), Arc::new(LogEntry::combined(vec![a, b])))
            .unwrap();
        log.install(LogPosition(2), Arc::new(LogEntry::noop()))
            .unwrap();
        let report = check_one_copy_serializability(&log).unwrap();
        assert_eq!(report.combined_positions, 1);
        assert_eq!(report.noop_positions, 1);
        assert_eq!(report.transactions, 2);
    }

    #[test]
    fn invalid_read_position_is_detected() {
        let mut log = GroupLog::new();
        let t = write_txn(0, 1, 5, X, "1"); // read position 5 >= commit position 1
        log.install(LogPosition(1), single(t)).unwrap();
        assert!(matches!(
            check_one_copy_serializability(&log),
            Err(Violation::InvalidReadPosition { .. })
        ));
    }

    #[test]
    fn check_all_combines_agreement_and_serializability() {
        let mut a = GroupLog::new();
        let mut b = GroupLog::new();
        a.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        b.install(LogPosition(1), single(write_txn(0, 1, 0, X, "1")))
            .unwrap();
        b.install(LogPosition(2), single(write_txn(0, 2, 1, Y, "2")))
            .unwrap();
        let report = check_all(&[&a, &b]).unwrap();
        assert_eq!(report.positions, 2);
        assert!(collect_violations(&[&a, &b]).is_empty());
    }

    #[test]
    fn later_list_member_wins_same_position_writes() {
        // Two blind writers of the same item combined in one entry: the later
        // list member's value is what a subsequent reader must observe.
        let mut log = GroupLog::new();
        let w1 = write_txn(0, 1, 0, X, "first");
        let w2 = write_txn(1, 2, 0, X, "second");
        log.install(LogPosition(1), Arc::new(LogEntry::combined(vec![w1, w2])))
            .unwrap();
        let reader = Transaction::builder(TxnId::new(2, 3), GroupId(0), LogPosition(1))
            .read(item(X), Some("second"))
            .write(item(Y), "1")
            .build();
        log.install(LogPosition(2), single(reader)).unwrap();
        assert!(check_one_copy_serializability(&log).is_ok());
    }
}
