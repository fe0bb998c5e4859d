//! Property-based tests for the multi-version store.
//!
//! The key invariant used by the transaction tier is snapshot stability:
//! once a read at timestamp `t` has returned a value, later writes (which
//! must carry strictly larger timestamps) never change what a read at `t`
//! returns. Correctness of the read position mechanism (A2) rests on this.

use mvkv::{Attr, Key, MvKvStore, Row, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Write { key: u8, attr: u8, value: u16 },
    Read { key: u8, at: Option<u64> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u8..4, any::<u16>()).prop_map(|(key, attr, value)| Op::Write {
            key,
            attr,
            value
        }),
        (0u8..4, proptest::option::of(0u64..40)).prop_map(|(key, at)| Op::Read { key, at }),
    ]
}

/// One modelled version: its timestamp and full attribute map.
type ModelVersion = (u64, BTreeMap<u8, u16>);

/// A naive reference model: for each key, the full list of versions in write
/// order.
#[derive(Default)]
struct Model {
    versions: BTreeMap<u8, Vec<ModelVersion>>,
}

impl Model {
    fn write(&mut self, key: u8, attr: u8, value: u16) -> u64 {
        let versions = self.versions.entry(key).or_default();
        let mut merged = versions.last().map(|(_, m)| m.clone()).unwrap_or_default();
        merged.insert(attr, value);
        let ts = versions.last().map(|(t, _)| t + 1).unwrap_or(1);
        versions.push((ts, merged));
        ts
    }

    fn read(&self, key: u8, at: Option<u64>) -> Option<(u64, BTreeMap<u8, u16>)> {
        let versions = self.versions.get(&key)?;
        match at {
            None => versions.last().cloned(),
            Some(t) => versions.iter().rev().find(|(ts, _)| *ts <= t).cloned(),
        }
    }
}

fn to_row(map: &BTreeMap<u8, u16>) -> Row {
    Row::from_pairs(map.iter().map(|(a, v)| (Attr(*a as u32), v.to_string())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The store agrees with a simple single-threaded reference model for
    /// arbitrary interleavings of merge-writes and timestamped reads.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let store = MvKvStore::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Write { key, attr, value } => {
                    let expected_ts = model.write(key, attr, value);
                    let got = store
                        .write(Key(key as u64), Row::new().with(Attr(attr as u32), value.to_string()), None)
                        .unwrap();
                    prop_assert_eq!(got, Timestamp(expected_ts));
                }
                Op::Read { key, at } => {
                    let expected = model.read(key, at);
                    let got = store.read(Key(key as u64), at.map(Timestamp));
                    match (expected, got) {
                        (None, None) => {}
                        (Some((ts, map)), Some(read)) => {
                            prop_assert_eq!(read.timestamp, Timestamp(ts));
                            prop_assert_eq!(read.row, to_row(&map));
                        }
                        (e, g) => prop_assert!(false, "model {:?} vs store {:?}", e, g.map(|v| v.timestamp)),
                    }
                }
            }
        }
    }

    /// Snapshot stability: a read at a fixed timestamp returns the same value
    /// before and after any sequence of later writes.
    #[test]
    fn snapshot_reads_are_stable(
        prefix in proptest::collection::vec((0u8..3, any::<u16>()), 1..20),
        suffix in proptest::collection::vec((0u8..3, any::<u16>()), 1..20),
    ) {
        let store = MvKvStore::new();
        let row = Key(0);
        for (attr, value) in &prefix {
            store.write(row, Row::new().with(Attr(*attr as u32), value.to_string()), None).unwrap();
        }
        let snapshot_ts = store.latest_timestamp(row).unwrap();
        let before = store.read(row, Some(snapshot_ts)).unwrap();
        for (attr, value) in &suffix {
            store.write(row, Row::new().with(Attr(*attr as u32), value.to_string()), None).unwrap();
        }
        let after = store.read(row, Some(snapshot_ts)).unwrap();
        prop_assert_eq!(before, after);
    }
}

#[derive(Debug, Clone)]
enum HistoryOp {
    /// A merge-upsert of a few attributes, spread over several chunks.
    Write { key: u8, attrs: Vec<(u8, u16)> },
    /// Version GC below `keep_from`.
    Gc { key: u8, keep_from: u64 },
}

fn write_op() -> impl Strategy<Value = HistoryOp> {
    (
        0u8..3,
        proptest::collection::vec((0u8..40, any::<u16>()), 1..5),
    )
        .prop_map(|(key, attrs)| HistoryOp::Write { key, attrs })
}

/// Writes outnumber GC passes two to one, so histories grow between GCs.
fn history_op() -> impl Strategy<Value = HistoryOp> {
    prop_oneof![
        write_op(),
        write_op(),
        (0u8..3, 0u64..40).prop_map(|(key, keep_from)| HistoryOp::Gc { key, keep_from }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dump's first-whole-then-deltas versions, replayed in order into a
    /// fresh store through merge-upsert, reproduce every read the original
    /// serves — at every retained timestamp and around them.
    #[test]
    fn replaying_the_delta_dump_reproduces_every_retained_version(
        ops in proptest::collection::vec(history_op(), 1..60),
    ) {
        let store = MvKvStore::new();
        for op in ops {
            match op {
                HistoryOp::Write { key, attrs } => {
                    let row = Row::from_pairs(
                        attrs.into_iter().map(|(a, v)| (Attr(a as u32), v.to_string())),
                    );
                    store.write(Key(key as u64), row, None).unwrap();
                }
                HistoryOp::Gc { key, keep_from } => {
                    store.gc_versions_before(Key(key as u64), Timestamp(keep_from));
                }
            }
        }
        let replayed = MvKvStore::new();
        for (key, versions) in store.dump_versions(|_| true) {
            for (ts, attrs) in versions {
                prop_assert!(replayed.apply_idempotent(key, attrs, ts));
            }
        }
        prop_assert_eq!(replayed.keys(), store.keys());
        for key in store.keys() {
            prop_assert_eq!(replayed.version_count(key), store.version_count(key));
            let latest = store.latest_timestamp(key).unwrap().0;
            for ts in 0..=latest + 1 {
                prop_assert_eq!(
                    replayed.read(key, Some(Timestamp(ts))),
                    store.read(key, Some(Timestamp(ts)))
                );
            }
        }
    }
}
