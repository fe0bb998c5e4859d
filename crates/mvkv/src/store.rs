//! The in-process multi-version store.

use crate::types::{Attr, Key, MvkvError, Row, Timestamp, VersionRead};
use parking_lot::RwLock;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};

/// Operation counters for a store instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `read` calls served.
    pub reads: u64,
    /// Number of successful `write` calls.
    pub writes: u64,
    /// Writes rejected because of a stale timestamp.
    pub stale_writes: u64,
}

/// One attribute's values, in ascending timestamp order.
type Cell = Vec<(Timestamp, Arc<str>)>;

/// The value `cell` holds as of `at`: its newest entry at or below it.
fn value_at(cell: &Cell, at: Timestamp) -> Option<&Arc<str>> {
    let visible = cell.partition_point(|(ts, _)| *ts <= at);
    cell[..visible].last().map(|(_, value)| value)
}

/// Where `attr`'s cell is in `cells`, or would be inserted.
fn find(cells: &[(Attr, Cell)], attr: Attr) -> Result<usize, usize> {
    cells.binary_search_by_key(&attr, |(a, _)| *a)
}

/// One key's versions, kept per cell: a write appends one entry to each
/// cell it sets and one line to the schedule, so it costs what it writes,
/// however wide the row.
#[derive(Default)]
struct VersionedRow {
    /// Every attribute ever written, sorted by attribute.
    cells: Vec<(Attr, Cell)>,
    /// The retained versions in ascending order: each one's timestamp and
    /// how many attributes it wrote.
    versions: VecDeque<(Timestamp, usize)>,
    /// The attributes each retained version wrote, in version order and
    /// within a version in the order they were first set.
    written: VecDeque<Attr>,
}

impl VersionedRow {
    fn latest_ts(&self) -> Option<Timestamp> {
        self.versions.back().map(|(ts, _)| *ts)
    }

    /// The newest version at or below `at`.
    fn floor(&self, at: Timestamp) -> Option<Timestamp> {
        let visible = self.versions.partition_point(|(ts, _)| *ts <= at);
        visible.checked_sub(1).map(|i| self.versions[i].0)
    }

    fn cell(&self, attr: Attr) -> Option<&Cell> {
        Some(&self.cells[find(&self.cells, attr).ok()?].1)
    }

    /// Record a new latest version at `target` writing `attrs`, where a
    /// later pair for the same attribute wins: every other attribute keeps
    /// the value it had (merge-upsert).
    fn push<V: Into<Arc<str>>>(
        &mut self,
        target: Timestamp,
        attrs: impl IntoIterator<Item = (Attr, V)>,
    ) {
        let mut wrote = 0;
        for (attr, value) in attrs {
            let at = match find(&self.cells, attr) {
                Ok(at) => at,
                Err(at) => {
                    self.cells.insert(at, (attr, Cell::new()));
                    at
                }
            };
            let cell = &mut self.cells[at].1;
            match cell.last_mut() {
                Some((ts, old)) if *ts == target => *old = value.into(),
                _ => {
                    cell.push((target, value.into()));
                    self.written.push_back(attr);
                    wrote += 1;
                }
            }
        }
        self.versions.push_back((target, wrote));
    }

    /// The whole version at `ts`: every attribute's value as of it.
    fn materialize(&self, ts: Timestamp) -> Row {
        Row(self
            .cells
            .iter()
            .filter_map(|(attr, cell)| Some((*attr, Arc::clone(value_at(cell, ts)?))))
            .collect())
    }

    /// Drop every version older than `keep_from`, always keeping the
    /// latest. In each cell a dropped version wrote, every entry older than
    /// the cell's newest one at or below the cutoff goes too: no read at or
    /// above the oldest kept version can see it. Returns versions dropped.
    fn gc_before(&mut self, keep_from: Timestamp) -> usize {
        let Some(latest) = self.latest_ts() else {
            return 0;
        };
        let cutoff = keep_from.min(latest);
        let dropped = self.versions.partition_point(|(ts, _)| *ts < cutoff);
        let wrote: usize = self.versions.drain(..dropped).map(|(_, n)| n).sum();
        for attr in self.written.drain(..wrote) {
            let at = find(&self.cells, attr).expect("a written attribute has a cell");
            let cell = &mut self.cells[at].1;
            let shadowed = cell.partition_point(|(ts, _)| *ts <= cutoff);
            cell.drain(..shadowed.saturating_sub(1));
        }
        dropped
    }

    /// Every retained version: the oldest whole, every later one as exactly
    /// the attributes it wrote.
    fn dump(&self) -> Vec<(Timestamp, Row)> {
        let mut start = 0;
        let mut out = Vec::with_capacity(self.versions.len());
        for (i, &(ts, wrote)) in self.versions.iter().enumerate() {
            let attrs = self.written.range(start..start + wrote);
            start += wrote;
            let row = if i == 0 {
                self.materialize(ts)
            } else {
                Row::from_pairs(attrs.map(|attr| {
                    let cell = self.cell(*attr).expect("a written attribute has a cell");
                    let value = value_at(cell, ts).expect("a retained write keeps its entry");
                    (*attr, Arc::clone(value))
                }))
            };
            out.push((ts, row));
        }
        out
    }
}

/// A multi-version key-value store for one datacenter.
///
/// All operations are atomic with respect to each other (the paper requires
/// per-row atomicity; we provide whole-store atomicity, which is strictly
/// stronger and does not change protocol behaviour). The store is cheap to
/// share: clone an `Arc<MvKvStore>` per user. Rows and attributes are named
/// by `Copy` integer ids, so no operation on the commit hot path hashes or
/// clones a string.
///
/// Beside its rows the store holds one typed protocol table
/// ([`MvKvStore::protocol`]): the commit protocol's per-position state
/// lives in the same store as the data, without being encoded as rows.
#[derive(Default)]
pub struct MvKvStore {
    inner: RwLock<Inner>,
    protocol: OnceLock<Box<dyn Any + Send + Sync>>,
}

#[derive(Default)]
struct Inner {
    rows: BTreeMap<Key, VersionedRow>,
    stats: StoreStats,
}

impl MvKvStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MvKvStore::default()
    }

    /// Read the most recent version of `key` with timestamp ≤ `at`.
    /// With `at = None`, reads the most recent version.
    pub fn read(&self, key: Key, at: Option<Timestamp>) -> Option<VersionRead> {
        let mut inner = self.inner.write();
        inner.stats.reads += 1;
        let row = inner.rows.get(&key)?;
        let timestamp = match at {
            Some(at) => row.floor(at),
            None => row.latest_ts(),
        }?;
        Some(VersionRead {
            timestamp,
            row: row.materialize(timestamp),
        })
    }

    /// Read a single attribute of `key` as of timestamp `at`.
    pub fn read_attr(&self, key: Key, attr: Attr, at: Option<Timestamp>) -> Option<String> {
        // "Latest" is the newest version at or below the largest timestamp.
        self.read_attr_at(key, attr, at.unwrap_or(Timestamp(u64::MAX)))
    }

    /// Fast-path read of a single attribute of `key` at or below `at`:
    /// equivalent to [`MvKvStore::read_attr`] with `Some(at)`, but it looks
    /// up the one cell instead of materialising the row. Position-bounded
    /// reads — the commit plane's A2 reads and the snapshot read plane's
    /// watermark reads — are single-attribute point lookups.
    pub fn read_attr_at(&self, key: Key, attr: Attr, at: Timestamp) -> Option<String> {
        let mut inner = self.inner.write();
        inner.stats.reads += 1;
        let row = inner.rows.get(&key)?;
        // Below the oldest retained version the row is unreadable, whatever
        // older entries its cells still hold.
        if at < row.versions.front()?.0 {
            return None;
        }
        value_at(row.cell(attr)?, at).map(|value| String::from(&**value))
    }

    /// Write `attrs` as a new version of `key`.
    ///
    /// The new version is the latest version overlaid with `attrs`
    /// (merge-upsert). If `ts` is given, it must be strictly greater than
    /// the latest existing version; otherwise a timestamp one greater than
    /// the latest is generated. Returns the timestamp actually written.
    pub fn write(
        &self,
        key: Key,
        attrs: Row,
        ts: Option<Timestamp>,
    ) -> Result<Timestamp, MvkvError> {
        let mut inner = self.inner.write();
        let row = inner.rows.entry(key).or_default();
        let latest = row.latest_ts();
        let target = match (ts, latest) {
            (Some(t), Some(l)) if t <= l => {
                inner.stats.stale_writes += 1;
                return Err(MvkvError::StaleTimestamp {
                    attempted: t,
                    latest: l,
                });
            }
            (Some(t), _) => t,
            (None, Some(l)) => l.next(),
            (None, None) => Timestamp(1),
        };
        row.push(target, attrs.0);
        inner.stats.writes += 1;
        Ok(target)
    }

    /// Write at a specific timestamp, treating an existing version at **the
    /// same or greater** timestamp as success-without-effect (idempotent
    /// replay). Used when applying write-ahead-log entries: applying the same
    /// log position twice must not fail.
    pub fn apply_idempotent(&self, key: Key, attrs: Row, ts: Timestamp) -> bool {
        match self.write(key, attrs, Some(ts)) {
            Ok(_) => true,
            Err(MvkvError::StaleTimestamp { .. }) => false,
        }
    }

    /// Apply one decided write of `key` at `ts` and reclaim behind
    /// `watermark`, under one lock and one row lookup. The write is
    /// [`MvKvStore::apply_idempotent`]'s — a no-op when a version at the same
    /// or a greater timestamp exists — with a later pair for the same
    /// attribute winning. Then, given a watermark, every version older than
    /// the newest one at or below it goes, since a reader pinned at the
    /// watermark still needs that one ([`MvKvStore::version_floor`] then
    /// [`MvKvStore::gc_versions_before`]). Returns the versions removed.
    pub fn apply_and_reclaim<'a>(
        &self,
        key: Key,
        attrs: impl IntoIterator<Item = (Attr, &'a str)>,
        ts: Timestamp,
        watermark: Option<Timestamp>,
    ) -> usize {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let row = inner.rows.entry(key).or_default();
        if row.latest_ts().is_some_and(|latest| ts <= latest) {
            inner.stats.stale_writes += 1;
        } else {
            row.push(ts, attrs);
            inner.stats.writes += 1;
        }
        watermark
            .and_then(|watermark| row.floor(watermark))
            .map_or(0, |floor| row.gc_before(floor))
    }

    /// The store's protocol table, created empty on first use. It shares
    /// the store's lifetime, so replacing the store drops it too. The table
    /// guards its own updates; the store only holds it. Type erasure keeps
    /// this crate below the protocol that defines the table, and one store
    /// holds one table type: asking for a second type panics.
    pub fn protocol<T: Default + Send + Sync + 'static>(&self) -> &T {
        self.protocol
            .get_or_init(|| Box::<T>::default())
            .downcast_ref()
            .expect("a store holds one protocol table type")
    }

    /// The latest version timestamp of `key`, if any version exists.
    pub fn latest_timestamp(&self, key: Key) -> Option<Timestamp> {
        self.inner.read().rows.get(&key).and_then(|r| r.latest_ts())
    }

    /// Number of stored versions of `key`.
    pub fn version_count(&self, key: Key) -> usize {
        self.inner
            .read()
            .rows
            .get(&key)
            .map(|r| r.versions.len())
            .unwrap_or(0)
    }

    /// Number of distinct keys with at least one version.
    pub fn key_count(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// The timestamp of the newest version of `key` at or before `at`: the
    /// oldest version a reader pinned at `at` can still need, and therefore
    /// the safe `keep_from` cutoff for [`MvKvStore::gc_versions_before`].
    /// `None` when the key has no version at or before `at`.
    pub fn version_floor(&self, key: Key, at: Timestamp) -> Option<Timestamp> {
        self.inner.read().rows.get(&key).and_then(|r| r.floor(at))
    }

    /// Drop all versions of `key` strictly older than `keep_from`, keeping at
    /// least the latest version. Returns the number of versions removed.
    pub fn gc_versions_before(&self, key: Key, keep_from: Timestamp) -> usize {
        self.inner
            .write()
            .rows
            .get_mut(&key)
            .map_or(0, |row| row.gc_before(keep_from))
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.read().stats
    }

    /// All keys currently present (sorted), mainly for debugging and tests.
    pub fn keys(&self) -> Vec<Key> {
        self.inner.read().rows.keys().copied().collect()
    }

    /// Every retained version of every key matching `pred`, sorted by key
    /// then timestamp: each key's oldest retained version whole, and every
    /// later one as exactly the attributes it wrote. Replaying the dump in
    /// order through [`MvKvStore::apply_idempotent`] (merge-upsert) rebuilds
    /// every version. This is the snapshot writer's and the catch-up
    /// sender's view of the store.
    pub fn dump_versions(&self, pred: impl Fn(Key) -> bool) -> Vec<(Key, Vec<(Timestamp, Row)>)> {
        self.inner
            .read()
            .rows
            .iter()
            .filter(|(key, row)| pred(**key) && !row.versions.is_empty())
            .map(|(key, row)| (*key, row.dump()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: Key = Key(10);
    const A: Attr = Attr(0);
    const B: Attr = Attr(1);

    fn row(pairs: &[(Attr, &str)]) -> Row {
        Row::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn read_returns_latest_version_at_or_before_timestamp() {
        let store = MvKvStore::new();
        store
            .write(K, row(&[(A, "v1")]), Some(Timestamp(1)))
            .unwrap();
        store
            .write(K, row(&[(A, "v3")]), Some(Timestamp(3)))
            .unwrap();

        let at2 = store.read(K, Some(Timestamp(2))).unwrap();
        assert_eq!(at2.timestamp, Timestamp(1));
        assert_eq!(at2.row.get(A), Some("v1"));

        let at3 = store.read(K, Some(Timestamp(3))).unwrap();
        assert_eq!(at3.row.get(A), Some("v3"));

        let latest = store.read(K, None).unwrap();
        assert_eq!(latest.timestamp, Timestamp(3));

        assert!(store.read(K, Some(Timestamp::ZERO)).is_none());
        assert!(store.read(Key(999), None).is_none());
    }

    #[test]
    fn read_attr_at_matches_the_row_materializing_path() {
        let store = MvKvStore::new();
        store
            .write(K, row(&[(A, "v1"), (B, "b1")]), Some(Timestamp(1)))
            .unwrap();
        store
            .write(K, row(&[(A, "v3")]), Some(Timestamp(3)))
            .unwrap();
        for ts in [0, 1, 2, 3, 9] {
            for attr in [A, B, Attr(99)] {
                let slow = store
                    .read(K, Some(Timestamp(ts)))
                    .and_then(|v| v.row.get(attr).map(str::to_owned));
                assert_eq!(
                    store.read_attr_at(K, attr, Timestamp(ts)),
                    slow,
                    "ts={ts} attr={attr:?}"
                );
            }
        }
        assert_eq!(store.read_attr_at(Key(999), A, Timestamp(5)), None);
    }

    #[test]
    fn write_merges_with_previous_version() {
        let store = MvKvStore::new();
        store
            .write(K, row(&[(A, "1"), (B, "2")]), Some(Timestamp(1)))
            .unwrap();
        store
            .write(K, row(&[(B, "20")]), Some(Timestamp(2)))
            .unwrap();
        let v = store.read(K, None).unwrap();
        assert_eq!(v.row.get(A), Some("1"));
        assert_eq!(v.row.get(B), Some("20"));
        // The old version is still readable.
        let old = store.read(K, Some(Timestamp(1))).unwrap();
        assert_eq!(old.row.get(B), Some("2"));
    }

    #[test]
    fn stale_write_is_rejected_with_error() {
        let store = MvKvStore::new();
        store
            .write(K, row(&[(A, "1")]), Some(Timestamp(5)))
            .unwrap();
        let err = store
            .write(K, row(&[(A, "2")]), Some(Timestamp(5)))
            .unwrap_err();
        assert_eq!(
            err,
            MvkvError::StaleTimestamp {
                attempted: Timestamp(5),
                latest: Timestamp(5)
            }
        );
        assert_eq!(store.stats().stale_writes, 1);
    }

    #[test]
    fn apply_idempotent_swallows_replays() {
        let store = MvKvStore::new();
        assert!(store.apply_idempotent(K, row(&[(A, "1")]), Timestamp(4)));
        assert!(!store.apply_idempotent(K, row(&[(A, "1")]), Timestamp(4)));
        assert_eq!(store.version_count(K), 1);
    }

    #[test]
    fn generated_timestamps_are_monotonic() {
        let store = MvKvStore::new();
        let t1 = store.write(K, row(&[(A, "1")]), None).unwrap();
        let t2 = store.write(K, row(&[(A, "2")]), None).unwrap();
        assert!(t2 > t1);
        assert_eq!(t1, Timestamp(1));
        assert_eq!(t2, Timestamp(2));
    }

    #[test]
    fn the_protocol_table_is_one_per_store_and_never_a_row() {
        #[derive(Default)]
        struct Table(std::sync::Mutex<Vec<u32>>);
        let store = MvKvStore::new();
        store.protocol::<Table>().0.lock().unwrap().push(7);
        assert_eq!(*store.protocol::<Table>().0.lock().unwrap(), [7]);
        assert_eq!(store.key_count(), 0);
        // A fresh store starts with a fresh table.
        assert!(MvKvStore::new()
            .protocol::<Table>()
            .0
            .lock()
            .unwrap()
            .is_empty());
        let other_type = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.protocol::<String>();
        }));
        assert!(other_type.is_err(), "one store, one table type");
    }

    #[test]
    fn gc_keeps_latest_and_later_versions() {
        let store = MvKvStore::new();
        for i in 1..=5 {
            store
                .write(K, row(&[(A, &i.to_string())]), Some(Timestamp(i)))
                .unwrap();
        }
        let removed = store.gc_versions_before(K, Timestamp(4));
        assert_eq!(removed, 3);
        assert_eq!(store.version_count(K), 2);
        assert!(store.read(K, Some(Timestamp(3))).is_none());
        assert_eq!(store.read(K, None).unwrap().timestamp, Timestamp(5));
        // GC past the latest version still keeps the latest.
        let removed = store.gc_versions_before(K, Timestamp(100));
        assert_eq!(removed, 1);
        assert_eq!(store.version_count(K), 1);
        assert_eq!(store.gc_versions_before(Key(999), Timestamp(1)), 0);
    }

    #[test]
    fn version_floor_names_the_version_a_pinned_reader_needs() {
        let store = MvKvStore::new();
        store
            .write(K, row(&[(A, "2")]), Some(Timestamp(2)))
            .unwrap();
        store
            .write(K, row(&[(A, "5")]), Some(Timestamp(5)))
            .unwrap();
        assert_eq!(store.version_floor(K, Timestamp(1)), None);
        assert_eq!(store.version_floor(K, Timestamp(2)), Some(Timestamp(2)));
        assert_eq!(store.version_floor(K, Timestamp(4)), Some(Timestamp(2)));
        assert_eq!(store.version_floor(K, Timestamp(9)), Some(Timestamp(5)));
        assert_eq!(store.version_floor(Key(999), Timestamp(9)), None);
        // GC at the floor keeps exactly what a reader pinned there needs.
        let floor = store.version_floor(K, Timestamp(4)).unwrap();
        assert_eq!(store.gc_versions_before(K, floor), 0);
        assert_eq!(
            store.read_attr(K, A, Some(Timestamp(4))).as_deref(),
            Some("2")
        );
    }

    #[test]
    fn apply_and_reclaim_writes_once_and_reclaims_behind_the_watermark() {
        let store = MvKvStore::new();
        // A later pair for an attribute wins; no watermark, nothing goes.
        let attrs = [(A, "a2"), (B, "b2"), (A, "a2'")];
        assert_eq!(store.apply_and_reclaim(K, attrs, Timestamp(2), None), 0);
        assert_eq!(
            store.read_attr_at(K, A, Timestamp(2)).as_deref(),
            Some("a2'")
        );
        assert_eq!(
            store.read(K, None).unwrap().row,
            row(&[(A, "a2'"), (B, "b2")])
        );
        // Behind a watermark below every version nothing goes either.
        assert_eq!(
            store.apply_and_reclaim(K, [(B, "b5")], Timestamp(5), Some(Timestamp(1))),
            0
        );
        // A replay at an existing timestamp writes nothing but still
        // reclaims: only the newest version at or below 9 stays.
        assert_eq!(
            store.apply_and_reclaim(K, [(A, "x")], Timestamp(5), Some(Timestamp(9))),
            1
        );
        assert_eq!(store.version_count(K), 1);
        assert_eq!(
            store.read(K, None).unwrap().row,
            row(&[(A, "a2'"), (B, "b5")])
        );
        assert_eq!(store.stats().writes, 2);
        assert_eq!(store.stats().stale_writes, 1);
        assert_eq!(
            store.apply_and_reclaim(Key(999), [(A, "1")], Timestamp(1), Some(Timestamp(9))),
            0
        );
    }

    #[test]
    fn a_version_that_rewrote_one_attribute_dumps_exactly_that_attribute() {
        let store = MvKvStore::new();
        // Forty attributes, then one rewrite in the middle: the dump keeps
        // the first version whole and the second as the one attribute it
        // set.
        let wide = Row::from_pairs((0..40).map(|a| (Attr(a), format!("v{a}"))));
        store.write(K, wide.clone(), Some(Timestamp(1))).unwrap();
        store
            .write(K, row(&[(Attr(20), "new")]), Some(Timestamp(2)))
            .unwrap();
        store
            .write(Key(11), row(&[(A, "other")]), Some(Timestamp(1)))
            .unwrap();
        let dump = store.dump_versions(|key| key == K);
        assert_eq!(
            dump,
            vec![(
                K,
                vec![
                    (Timestamp(1), wide),
                    (Timestamp(2), row(&[(Attr(20), "new")]))
                ]
            )]
        );
        // Replayed through merge-upsert, the delta rebuilds the full row.
        let replayed = MvKvStore::new();
        for (key, versions) in dump {
            for (ts, attrs) in versions {
                assert!(replayed.apply_idempotent(key, attrs, ts));
            }
        }
        for ts in [1, 2] {
            assert_eq!(
                replayed.read(K, Some(Timestamp(ts))),
                store.read(K, Some(Timestamp(ts)))
            );
        }
    }

    /// A complexity guard, run in release by CI: single-attribute versions of
    /// a 50 000-attribute row, each applied and then GC'd behind, cost what
    /// they set. A store that copies the row per version, or drops it per
    /// GC, pays the row's width every time and takes seconds.
    #[test]
    fn a_write_costs_what_it_sets_not_the_row_width() {
        const WIDTH: u32 = 50_000;
        const VERSIONS: u64 = 20_000;
        let store = MvKvStore::new();
        let wide = Row::from_pairs((0..WIDTH).map(|a| (Attr(a), "v")));
        assert!(store.apply_idempotent(K, wide, Timestamp(1)));
        let started = std::time::Instant::now();
        for ts in 2..2 + VERSIONS {
            let attr = Attr((ts * 7_919 % WIDTH as u64) as u32);
            assert!(store.apply_idempotent(K, Row::new().with(attr, "w"), Timestamp(ts)));
            let floor = store.version_floor(K, Timestamp(ts)).unwrap();
            assert_eq!(store.gc_versions_before(K, floor), 1);
        }
        let elapsed = started.elapsed();
        assert_eq!(store.version_count(K), 1);
        assert_eq!(
            store.read_attr_at(K, Attr(7_919 * 3 % WIDTH), Timestamp(VERSIONS + 1)),
            Some("w".to_owned())
        );
        assert!(
            elapsed < std::time::Duration::from_millis(250),
            "{VERSIONS} single-attribute versions of a {WIDTH}-attribute row took {elapsed:?}"
        );
    }

    #[test]
    fn key_listing_and_counts() {
        let store = MvKvStore::new();
        store.write(Key(2), Row::new().with(A, "1"), None).unwrap();
        store.write(Key(1), Row::new().with(A, "1"), None).unwrap();
        assert_eq!(store.key_count(), 2);
        assert_eq!(store.keys(), vec![Key(1), Key(2)]);
        assert_eq!(store.latest_timestamp(Key(1)), Some(Timestamp(1)));
        assert_eq!(store.latest_timestamp(Key(999)), None);
    }

    #[test]
    fn reads_are_counted() {
        let store = MvKvStore::new();
        store.write(K, Row::new().with(A, "1"), None).unwrap();
        store.read(K, None);
        store.read(K, None);
        store.read(Key(999), None);
        assert_eq!(store.stats().reads, 3);
        assert_eq!(store.stats().writes, 1);
    }
}
