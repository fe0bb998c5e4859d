//! Log entries: the value decided by one Paxos instance.
//!
//! Under basic Paxos an entry holds exactly one transaction. Under Paxos-CP
//! the *combination* enhancement lets one entry hold an ordered list of
//! mutually non-conflicting transactions (§5), all of which commit at the
//! same log position. Recovery proposes an explicit no-op entry to learn a
//! position without adding work (§4.1, "Fault Tolerance and Recovery").
//!
//! Entries are immutable once constructed and are shared as
//! `Arc<LogEntry>` across messages, votes, logs and install paths, so a
//! decided value is deep-copied zero times no matter how many replicas
//! learn it. Each entry caches the union of its transactions' write sets as
//! a sorted packed-integer array; [`LogEntry::invalidates_reads_of`] — the
//! test the promotion enhancement runs on every contended commit — is a
//! binary search over it.

use crate::codec::{Reader, TokenWriter};
use crate::ident::{AttrId, GroupId, KeyId};
use crate::types::{ItemRef, LogPosition, ReadRecord, Transaction, TxnId, WriteRecord};

/// The value written to a single write-ahead-log position.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LogEntry {
    transactions: Vec<Transaction>,
    /// True when this entry was proposed purely to learn/fill the position
    /// during recovery and carries no transactions.
    noop: bool,
    /// Sorted, deduplicated union of the transactions' packed write sets.
    write_items: Box<[u64]>,
}

fn union_write_items(transactions: &[Transaction]) -> Box<[u64]> {
    crate::types::sorted_packed_set(
        transactions
            .iter()
            .flat_map(|t| t.write_items().iter().copied())
            .collect(),
    )
}

impl LogEntry {
    /// An entry holding a single transaction (the only shape basic Paxos
    /// ever proposes).
    pub fn single(txn: Transaction) -> Self {
        LogEntry::combined(vec![txn])
    }

    /// An entry holding an ordered list of transactions (Paxos-CP
    /// combination). The caller is responsible for having validated the
    /// list with [`crate::combine::is_valid_combination`].
    pub fn combined(transactions: Vec<Transaction>) -> Self {
        let write_items = union_write_items(&transactions);
        LogEntry {
            transactions,
            noop: false,
            write_items,
        }
    }

    /// The explicit no-op entry used by recovery.
    pub fn noop() -> Self {
        LogEntry {
            transactions: Vec::new(),
            noop: true,
            write_items: Box::new([]),
        }
    }

    /// True for the recovery no-op entry.
    pub fn is_noop(&self) -> bool {
        self.noop || self.transactions.is_empty()
    }

    /// The transactions committed by this entry, in serialization order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions in the entry.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True when the entry commits no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Whether the entry contains the given transaction.
    pub fn contains(&self, id: TxnId) -> bool {
        self.transactions.iter().any(|t| t.id == id)
    }

    /// The ids of all transactions in the entry, in order.
    pub fn txn_ids(&self) -> Vec<TxnId> {
        self.transactions.iter().map(|t| t.id).collect()
    }

    /// The union of the transactions' write sets, as sorted packed items.
    pub fn write_items(&self) -> &[u64] {
        &self.write_items
    }

    /// Would a transaction with the given read set be invalidated by this
    /// entry? True when `txn` reads any item written by any transaction in
    /// this entry — the test used by the *promotion* enhancement to decide
    /// whether a loser may compete for the next position.
    ///
    /// Runs as a binary search per read over the entry's cached packed
    /// write set: pure integer comparisons, no hashing, no allocation.
    pub fn invalidates_reads_of(&self, txn: &Transaction) -> bool {
        if self.write_items.is_empty() {
            return false;
        }
        txn.reads()
            .iter()
            .any(|r| self.write_items.binary_search(&r.item.packed()).is_ok())
    }

    /// Encode the entry for the write-ahead log's vote and decided records,
    /// in the [`crate::codec`] token format; thanks to interning, every
    /// field except the observed/written values is an integer.
    pub fn encode(&self) -> String {
        // Room for the paper's shape — five reads and five writes of short
        // values in ≈ 190 bytes — so the buffer is allocated once; a larger
        // entry grows it.
        let items: usize = self
            .transactions
            .iter()
            .map(|t| t.reads().len() + t.writes().len())
            .sum();
        let mut out = String::with_capacity(16 + self.transactions.len() * 48 + items * 24);
        out.raw("LE1");
        out.num(u64::from(self.noop));
        out.num(self.transactions.len() as u64);
        for txn in &self.transactions {
            out.num(u64::from(txn.id.client));
            out.num(txn.id.seq);
            out.num(u64::from(txn.group.0));
            out.num(txn.read_position.0);
            out.num(txn.reads().len() as u64);
            for read in txn.reads() {
                out.num(u64::from(read.item.key.0));
                out.num(u64::from(read.item.attr.0));
                match &read.observed {
                    Some(value) => {
                        out.num(1);
                        out.string(value);
                    }
                    None => out.num(0),
                }
            }
            out.num(txn.writes().len() as u64);
            for write in txn.writes() {
                out.num(u64::from(write.item.key.0));
                out.num(u64::from(write.item.attr.0));
                out.string(&write.value);
            }
        }
        out
    }

    /// Decode an entry produced by [`LogEntry::encode`]; `None` for
    /// malformed input.
    pub fn decode(input: &str) -> Option<LogEntry> {
        let mut r = Reader::new(input);
        r.tag("LE1")?;
        let noop = r.num()? == 1;
        let ntxn = r.count()?;
        let mut transactions = Vec::with_capacity(ntxn);
        for _ in 0..ntxn {
            let id = TxnId::new(r.id()?, r.num()?);
            let group = GroupId(r.id()?);
            let read_position = LogPosition(r.num()?);
            let nreads = r.count()?;
            let mut reads = Vec::with_capacity(nreads);
            for _ in 0..nreads {
                let item = ItemRef::new(KeyId(r.id()?), AttrId(r.id()?));
                let observed = match r.num()? {
                    0 => None,
                    1 => Some(r.string()?.to_string()),
                    _ => return None,
                };
                reads.push(ReadRecord { item, observed });
            }
            let nwrites = r.count()?;
            let mut writes = Vec::with_capacity(nwrites);
            for _ in 0..nwrites {
                let item = ItemRef::new(KeyId(r.id()?), AttrId(r.id()?));
                let value = r.string()?.to_string();
                writes.push(WriteRecord { item, value });
            }
            transactions.push(Transaction::new(id, group, read_position, reads, writes));
        }
        r.end()?;
        let mut entry = LogEntry::combined(transactions);
        entry.noop = noop;
        Some(entry)
    }
}

impl From<Transaction> for LogEntry {
    fn from(txn: Transaction) -> Self {
        LogEntry::single(txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::{AttrId, GroupId, KeyId};
    use crate::types::{ItemRef, LogPosition, Transaction, TxnId};

    fn item(a: u32) -> ItemRef {
        ItemRef::new(KeyId(0), AttrId(a))
    }

    fn txn(seq: u64, reads: &[u32], writes: &[u32]) -> Transaction {
        let mut b = Transaction::builder(TxnId::new(0, seq), GroupId(0), LogPosition(0));
        for r in reads {
            b = b.read(item(*r), Some("v"));
        }
        for w in writes {
            b = b.write(item(*w), "x");
        }
        b.build()
    }

    #[test]
    fn single_and_combined_entries() {
        let e = LogEntry::single(txn(1, &[0], &[1]));
        assert_eq!(e.len(), 1);
        assert!(!e.is_noop());
        assert!(e.contains(TxnId::new(0, 1)));
        assert!(!e.contains(TxnId::new(0, 2)));

        let c = LogEntry::combined(vec![txn(1, &[], &[0]), txn(2, &[], &[1])]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.txn_ids(), vec![TxnId::new(0, 1), TxnId::new(0, 2)]);
        assert_eq!(c.write_items(), &[item(0).packed(), item(1).packed()]);
    }

    #[test]
    fn noop_entries_are_empty() {
        let e = LogEntry::noop();
        assert!(e.is_noop());
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn invalidates_reads_detects_read_write_conflict() {
        let winner = LogEntry::single(txn(1, &[], &[7]));
        let reads_7 = txn(2, &[7], &[8]);
        let reads_9 = txn(3, &[9], &[8]);
        assert!(winner.invalidates_reads_of(&reads_7));
        assert!(!winner.invalidates_reads_of(&reads_9));
        // A no-op entry never invalidates anything.
        assert!(!LogEntry::noop().invalidates_reads_of(&reads_7));
    }

    #[test]
    fn from_transaction_builds_single_entry() {
        let e: LogEntry = txn(5, &[], &[0]).into();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn codec_round_trips_entries() {
        let cases = vec![
            LogEntry::noop(),
            LogEntry::single(txn(1, &[0, 1], &[2])),
            LogEntry::combined(vec![txn(1, &[], &[0]), txn(9, &[3], &[1, 2])]),
        ];
        for entry in cases {
            let encoded = entry.encode();
            let decoded = LogEntry::decode(&encoded).expect("round trip");
            assert_eq!(decoded, entry, "failed for {encoded:?}");
        }
    }

    #[test]
    fn codec_preserves_values_with_spaces_and_unicode() {
        let t = Transaction::builder(TxnId::new(3, 4), GroupId(7), LogPosition(2))
            .read(item(0), Some("hello world 1:2 3"))
            .read(item(1), None)
            .write(item(2), "värde : med 空白")
            .build();
        let entry = LogEntry::single(t);
        assert_eq!(LogEntry::decode(&entry.encode()), Some(entry));
    }

    /// The encoding is the acceptor's vote format, the WAL `Decided` / `Vote`
    /// payload and an input of `state_fingerprint`: these literals were
    /// captured before the codec stopped allocating per integer, and pin it
    /// byte for byte.
    #[test]
    fn codec_bytes_are_pinned() {
        let at = |k: u32, a: u32| ItemRef::new(KeyId(k), AttrId(a));
        let table = [
            (LogEntry::noop(), "LE1 1 0"),
            (LogEntry::combined(Vec::new()), "LE1 0 0"),
            (
                LogEntry::single(
                    Transaction::builder(TxnId::new(0, 0), GroupId(0), LogPosition(0)).build(),
                ),
                "LE1 0 1 0 0 0 0 0 0",
            ),
            (
                LogEntry::single(
                    Transaction::builder(TxnId::new(1, 7), GroupId(0), LogPosition(3))
                        .read(at(0, 0), Some("v"))
                        .read(at(0, 1), None)
                        .write(at(0, 2), "x")
                        .build(),
                ),
                "LE1 0 1 1 7 0 3 2 0 0 1 1:v 0 1 0 1 0 2 1:x",
            ),
            (
                LogEntry::combined(vec![
                    Transaction::builder(TxnId::new(2, 10), GroupId(5), LogPosition(41))
                        .write(at(3, 0), "100")
                        .build(),
                    Transaction::builder(TxnId::new(3, 11), GroupId(5), LogPosition(41))
                        .read(at(3, 9), Some("9"))
                        .write(at(3, 1), "a")
                        .write(at(4, 2), "")
                        .build(),
                ]),
                "LE1 0 2 2 10 5 41 0 1 3 0 3:100 3 11 5 41 1 3 9 1 1:9 2 3 1 1:a 4 2 0:",
            ),
            (
                LogEntry::single(
                    Transaction::builder(TxnId::new(3, 4), GroupId(7), LogPosition(2))
                        .read(at(0, 0), Some("hello world 1:2 3"))
                        .write(at(0, 2), "värde : med 空白")
                        .build(),
                ),
                "LE1 0 1 3 4 7 2 1 0 0 1 17:hello world 1:2 3 1 0 2 19:värde : med 空白",
            ),
            (
                LogEntry::single(
                    Transaction::builder(
                        TxnId::new(u32::MAX, u64::MAX),
                        GroupId(u32::MAX),
                        LogPosition(u64::MAX),
                    )
                    .read(at(u32::MAX, u32::MAX), Some("0"))
                    .write(at(u32::MAX, u32::MAX), "18446744073709551615")
                    .build(),
                ),
                "LE1 0 1 4294967295 18446744073709551615 4294967295 18446744073709551615 \
                 1 4294967295 4294967295 1 1:0 1 4294967295 4294967295 20:18446744073709551615",
            ),
        ];
        for (entry, bytes) in table {
            assert_eq!(entry.encode(), bytes);
            assert_eq!(LogEntry::decode(bytes), Some(entry));
        }
    }

    #[test]
    fn codec_rejects_malformed_input() {
        assert_eq!(LogEntry::decode(""), None);
        assert_eq!(LogEntry::decode("garbage"), None);
        assert_eq!(LogEntry::decode("LE1 0"), None);
        assert_eq!(LogEntry::decode("LE1 0 1 1"), None);
        // Truncated netstring.
        assert_eq!(LogEntry::decode("LE1 0 1 0 1 0 0 0 1 0 0 10:short"), None);
        // Trailing garbage.
        let valid = LogEntry::noop().encode();
        assert_eq!(LogEntry::decode(&format!("{valid} extra")), None);
    }
}
