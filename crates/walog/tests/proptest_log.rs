//! Property test for `GroupLog`'s cursors: the gap-free prefix is a field
//! carried forward by `install` / `truncate_below` / `restore_base`, and
//! must always equal what a scan of the retained entries would find. The
//! scan lives on here as the reference.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use walog::ident::{AttrId, GroupId, KeyId};
use walog::{GroupLog, ItemRef, LogEntry, LogPosition, Transaction, TxnId};

/// Positions are drawn from `1..=UNIVERSE`: small enough that duplicates,
/// gap fills and bases landing right under a retained entry are common.
const UNIVERSE: u64 = 24;

/// One entry per position, so a duplicate install is an idempotent one.
fn entry(position: u64) -> Arc<LogEntry> {
    Arc::new(LogEntry::single(
        Transaction::builder(TxnId::new(0, position), GroupId(0), LogPosition(0))
            .write(ItemRef::new(KeyId(0), AttrId(0)), position.to_string())
            .build(),
    ))
}

/// Reference: walk the retained entries from `base + 1` until the first gap.
fn scanned_prefix(log: &GroupLog) -> LogPosition {
    let mut expect = log.base().next();
    for (position, _) in log.iter() {
        if position == expect {
            expect = expect.next();
        } else if position > expect {
            break;
        }
    }
    expect.prev()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under out-of-order and duplicate installs, truncations at or below
    /// `prefix + 1` (the contract `DatacenterCore::maybe_snapshot` keeps),
    /// `restore_base` to any position — past a gap too: a snapshot declares
    /// it decided — and applied-cursor moves, the log's cursors and
    /// retained set match a plain model after every step.
    #[test]
    fn cursors_match_a_scan_after_every_step(
        steps in proptest::collection::vec((0u8..8, 0u64..1 << 32), 1..96),
    ) {
        let mut log = GroupLog::new();
        // Model: the positions ever installed, and the base.
        let mut installed: BTreeSet<u64> = BTreeSet::new();
        let mut base = 0u64;
        for (kind, raw) in steps {
            let prefix = log.contiguous_prefix().0;
            match kind {
                0..=4 => {
                    let position = 1 + raw % UNIVERSE;
                    log.install(LogPosition(position), entry(position)).unwrap();
                    installed.insert(position);
                }
                5 => {
                    let floor = raw % (prefix + 2);
                    log.truncate_below(LogPosition(floor));
                    base = base.max(floor.saturating_sub(1));
                }
                6 => {
                    let to = raw % (UNIVERSE + 2);
                    log.restore_base(LogPosition(to));
                    base = base.max(to);
                }
                _ => log.mark_applied_through(LogPosition(raw % (prefix + 1))),
            }

            let prefix = log.contiguous_prefix();
            prop_assert_eq!(prefix, scanned_prefix(&log));

            // `truncate_below` and `restore_base` agree on what a base means:
            // nothing at or below it is retained, by whichever route it rose.
            prop_assert_eq!(log.base(), LogPosition(base));
            let retained: Vec<u64> = log.iter().map(|(p, _)| p.0).collect();
            let expected: Vec<u64> = installed.range(base + 1..).copied().collect();
            prop_assert_eq!(&retained, &expected);
            prop_assert_eq!(log.len(), expected.len());
            prop_assert_eq!(
                log.last_decided(),
                LogPosition(expected.last().copied().unwrap_or(base))
            );
            prop_assert!(log.base() <= log.applied_through());
            prop_assert!(log.applied_through() <= prefix);
        }
    }
}
