//! Property-based tests for the multi-version store.
//!
//! The key invariant used by the transaction tier is snapshot stability:
//! once a read at timestamp `t` has returned a value, later writes (which
//! must carry strictly larger timestamps) never change what a read at `t`
//! returns. Correctness of the read position mechanism (A2) rests on this.

use mvkv::{Attr, Key, MvKvStore, Row, Timestamp, VersionRead};
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

/// One modelled version: its timestamp, the full attribute map a read at it
/// returns, and the attributes its write set.
#[derive(Clone, Debug)]
struct ModelVersion {
    ts: u64,
    row: BTreeMap<u8, u16>,
    wrote: BTreeMap<u8, u16>,
}

/// The row-level reference model: for each key, every retained version as a
/// full attribute map, in timestamp order. It is the store's specification:
/// merge-upsert writes, timestamped reads, version GC and the version dump.
#[derive(Default)]
struct Model {
    versions: BTreeMap<u8, Vec<ModelVersion>>,
}

impl Model {
    /// Merge-upsert `attrs` at `ts` (one past the latest version when
    /// `None`); `None` when a version at or above `ts` already exists.
    fn write(&mut self, key: u8, attrs: &[(u8, u16)], ts: Option<u64>) -> Option<u64> {
        let versions = self.versions.entry(key).or_default();
        let latest = versions.last().map(|v| v.ts);
        let ts = match (ts, latest) {
            (Some(t), Some(l)) if t <= l => return None,
            (Some(t), _) => t,
            (None, l) => l.map_or(1, |l| l + 1),
        };
        let wrote: BTreeMap<u8, u16> = attrs.iter().copied().collect();
        let mut row = versions.last().map(|v| v.row.clone()).unwrap_or_default();
        row.extend(&wrote);
        versions.push(ModelVersion { ts, row, wrote });
        Some(ts)
    }

    fn read(&self, key: u8, at: Option<u64>) -> Option<&ModelVersion> {
        let versions = self.versions.get(&key)?;
        match at {
            None => versions.last(),
            Some(t) => versions.iter().rev().find(|v| v.ts <= t),
        }
    }

    fn read_attr_at(&self, key: u8, attr: u8, at: u64) -> Option<String> {
        self.read(key, Some(at))?
            .row
            .get(&attr)
            .map(|v| v.to_string())
    }

    fn version_floor(&self, key: u8, at: u64) -> Option<u64> {
        self.read(key, Some(at)).map(|v| v.ts)
    }

    fn latest(&self, key: u8) -> Option<u64> {
        self.read(key, None).map(|v| v.ts)
    }

    fn version_count(&self, key: u8) -> usize {
        self.versions.get(&key).map_or(0, Vec::len)
    }

    /// Drop every version older than `keep_from`, always keeping the latest.
    fn gc_versions_before(&mut self, key: u8, keep_from: u64) -> usize {
        let Some(versions) = self.versions.get_mut(&key) else {
            return 0;
        };
        let Some(latest) = versions.last().map(|v| v.ts) else {
            return 0;
        };
        let cutoff = keep_from.min(latest);
        let before = versions.len();
        versions.retain(|v| v.ts >= cutoff);
        before - versions.len()
    }

    /// The expected `dump_versions`: per key, the oldest retained version
    /// whole and every later one as exactly the attributes it wrote.
    fn dump(&self) -> Vec<(Key, Vec<(Timestamp, Row)>)> {
        self.versions
            .iter()
            .filter(|(_, versions)| !versions.is_empty())
            .map(|(key, versions)| {
                let dumped = versions.iter().enumerate().map(|(i, v)| {
                    let attrs = if i == 0 { &v.row } else { &v.wrote };
                    (Timestamp(v.ts), to_row(attrs))
                });
                (Key(*key as u64), dumped.collect())
            })
            .collect()
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
                    let expected_ts = model.write(key, &[(attr, value)], None).unwrap();
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
                        (Some(version), Some(read)) => {
                            prop_assert_eq!(read.timestamp, Timestamp(version.ts));
                            prop_assert_eq!(read.row, to_row(&version.row));
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

/// Attribute ids the histories draw from.
const ATTRS: u8 = 40;

#[derive(Debug, Clone)]
enum HistoryOp {
    /// A merge-upsert of a few attributes at `gap` past the key's latest
    /// version; a zero gap is a stale write the store must refuse.
    Write {
        key: u8,
        attrs: Vec<(u8, u16)>,
        gap: u64,
    },
    /// Version GC below `keep_from`, which need not be a version timestamp.
    Gc { key: u8, keep_from: u64 },
    /// The apply-time GC of a datacenter: everything older than the newest
    /// version at or below `watermark`.
    GcBehind { key: u8, watermark: u64 },
}

fn write_op() -> impl Strategy<Value = HistoryOp> {
    (
        0u8..3,
        proptest::collection::vec((0u8..ATTRS, any::<u16>()), 1..5),
        0u64..4,
    )
        .prop_map(|(key, attrs, gap)| HistoryOp::Write { key, attrs, gap })
}

/// Writes outnumber GC passes two to one, so histories grow between GCs.
fn history_op() -> impl Strategy<Value = HistoryOp> {
    prop_oneof![
        write_op(),
        write_op(),
        write_op(),
        write_op(),
        (0u8..3, 0u64..80).prop_map(|(key, keep_from)| HistoryOp::Gc { key, keep_from }),
        (0u8..3, 0u64..80).prop_map(|(key, watermark)| HistoryOp::GcBehind { key, watermark }),
    ]
}

/// Run `op` against the store and the model alike; the key it touched.
fn apply(store: &MvKvStore, model: &mut Model, op: HistoryOp) -> u8 {
    match op {
        HistoryOp::Write { key, attrs, gap } => {
            let ts = model.latest(key).unwrap_or(0) + gap;
            let row = Row::from_pairs(attrs.iter().map(|(a, v)| (Attr(*a as u32), v.to_string())));
            let written = model.write(key, &attrs, Some(ts)).is_some();
            assert_eq!(
                store.apply_idempotent(Key(key as u64), row, Timestamp(ts)),
                written
            );
            key
        }
        HistoryOp::Gc { key, keep_from } => {
            assert_eq!(
                store.gc_versions_before(Key(key as u64), Timestamp(keep_from)),
                model.gc_versions_before(key, keep_from)
            );
            key
        }
        HistoryOp::GcBehind { key, watermark } => {
            let floor = store.version_floor(Key(key as u64), Timestamp(watermark));
            assert_eq!(floor, model.version_floor(key, watermark).map(Timestamp));
            if let Some(floor) = floor {
                assert_eq!(
                    store.gc_versions_before(Key(key as u64), floor),
                    model.gc_versions_before(key, floor.0)
                );
            }
            key
        }
    }
}

/// Every query the store answers about `key` matches the model, at every
/// timestamp from zero to one past the latest version.
fn assert_agrees(store: &MvKvStore, model: &Model, key: u8) {
    let k = Key(key as u64);
    assert_eq!(store.version_count(k), model.version_count(key));
    assert_eq!(store.latest_timestamp(k), model.latest(key).map(Timestamp));
    let latest_read = model.read(key, None).map(|v| VersionRead {
        timestamp: Timestamp(v.ts),
        row: to_row(&v.row),
    });
    assert_eq!(store.read(k, None), latest_read);
    for at in 0..=model.latest(key).unwrap_or(0) + 1 {
        let expected = model.read(key, Some(at)).map(|v| VersionRead {
            timestamp: Timestamp(v.ts),
            row: to_row(&v.row),
        });
        assert_eq!(
            store.read(k, Some(Timestamp(at))),
            expected,
            "{k:?} at {at}"
        );
        assert_eq!(
            store.version_floor(k, Timestamp(at)),
            model.version_floor(key, at).map(Timestamp)
        );
        for attr in 0..ATTRS {
            assert_eq!(
                store.read_attr_at(k, Attr(attr as u32), Timestamp(at)),
                model.read_attr_at(key, attr, at),
                "{k:?} a{attr} at {at}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random histories of multi-attribute writes (stale ones included) with
    /// interleaved GC: after every step the store agrees with the row-level
    /// model on every read, floor, count and GC result, and at the end its
    /// dump is the model's oldest-whole-then-deltas dump.
    #[test]
    fn the_store_agrees_with_the_row_level_model_under_gc(
        ops in proptest::collection::vec(history_op(), 1..60),
    ) {
        let store = MvKvStore::new();
        let mut model = Model::default();
        for op in ops {
            let key = apply(&store, &mut model, op);
            assert_agrees(&store, &model, key);
        }
        prop_assert_eq!(store.dump_versions(|_| true), model.dump());
        prop_assert_eq!(
            store.dump_versions(|key| key == Key(1)),
            model.dump().into_iter().filter(|(key, _)| *key == Key(1)).collect::<Vec<_>>()
        );
    }
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
        let mut model = Model::default();
        for op in ops {
            apply(&store, &mut model, op);
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
