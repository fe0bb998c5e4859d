//! Core value types for the multi-version store.

use std::fmt;
use std::sync::Arc;

/// Row key: a dense integer identifier.
///
/// Application rows carry interned key ids (see `walog::ident`); the Paxos
/// acceptor state is not a row (see [`crate::MvKvStore::protocol`]), so every
/// key names application data. Using a `Copy` integer instead of an owned
/// string keeps every store operation on the commit hot path free of
/// allocation and string hashing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Attribute (column) identifier within a row: a dense interned integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Attr(pub u32);

impl fmt::Debug for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Logical timestamp of a row version.
///
/// In the transaction tier a committed transaction's write-ahead-log
/// position serves as the timestamp of every write it contains (§3.2), so
/// timestamps are small dense integers rather than wall-clock values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The smallest timestamp; no committed data carries it.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The next timestamp after this one.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts({})", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Attribute (column) → value pairs, sorted by attribute id: the attributes
/// one write sets, one version of a dump, or a version a read materialised.
///
/// The store does not keep rows: it keeps every attribute's versions apart
/// (see [`crate::MvKvStore`]), so a `Row` is only what crosses its surface.
/// Values are shared (`Arc<str>`): cloning a row or handing it to the store
/// copies pointers, never strings.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Row(pub(crate) Vec<(Attr, Arc<str>)>);

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row(Vec::new())
    }

    /// Build a row from attribute/value pairs; a later pair for the same
    /// attribute wins.
    pub fn from_pairs<I, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Attr, V)>,
        V: Into<Arc<str>>,
    {
        let mut row = Row::new();
        for (attr, value) in pairs {
            row.set(attr, value);
        }
        row
    }

    /// Set an attribute, returning `self` for chaining.
    pub fn with(mut self, attr: Attr, value: impl Into<Arc<str>>) -> Self {
        self.set(attr, value);
        self
    }

    /// Set an attribute in place. A `&str` becomes its shared value in one
    /// allocation.
    pub fn set(&mut self, attr: Attr, value: impl Into<Arc<str>>) {
        let value = value.into();
        match self.0.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => self.0.insert(at, (attr, value)),
        }
    }

    /// Get an attribute value.
    pub fn get(&self, attr: Attr) -> Option<&str> {
        let at = self.0.binary_search_by_key(&attr, |(a, _)| *a).ok()?;
        Some(&self.0[at].1)
    }

    /// Whether the row has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Iterate over attribute/value pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (Attr, &str)> {
        self.0.iter().map(|(a, v)| (*a, &**v))
    }
}

impl<V: Into<Arc<str>>> FromIterator<(Attr, V)> for Row {
    fn from_iter<T: IntoIterator<Item = (Attr, V)>>(iter: T) -> Self {
        Row::from_pairs(iter)
    }
}

/// The result of a successful versioned read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionRead {
    /// Timestamp of the version returned.
    pub timestamp: Timestamp,
    /// The row contents at that version.
    pub row: Row,
}

/// Errors surfaced by the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MvkvError {
    /// A `write` specified a timestamp that is not greater than the latest
    /// existing version of the row (the paper's "if a version with greater
    /// timestamp exists, an error is returned").
    StaleTimestamp {
        /// Timestamp the caller attempted to write at.
        attempted: Timestamp,
        /// Latest version that already exists.
        latest: Timestamp,
    },
}

impl fmt::Display for MvkvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvkvError::StaleTimestamp { attempted, latest } => write!(
                f,
                "stale write at ts {attempted}: a version with timestamp {latest} already exists"
            ),
        }
    }
}

impl std::error::Error for MvkvError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn row_builder_and_accessors() {
        let row = Row::new().with(Attr(0), "1").with(Attr(1), "2");
        assert_eq!(row.get(Attr(0)), Some("1"));
        assert_eq!(row.get(Attr(9)), None);
        assert_eq!(row.len(), 2);
        assert!(!row.is_empty());
        let pairs: Vec<_> = row.iter().collect();
        assert_eq!(pairs, vec![(Attr(0), "1"), (Attr(1), "2")]);
    }

    #[test]
    fn rows_match_a_plain_map() {
        // Ids set out of order, the extremes included, one twice.
        let ids = [40, 3, 16, 15, 17, 255, 0, 31, 32, u32::MAX, 16];
        let mut row = Row::new();
        let mut model = BTreeMap::new();
        for (i, id) in ids.into_iter().enumerate() {
            row.set(Attr(id), i.to_string());
            model.insert(Attr(id), i.to_string());
        }
        let as_model = |row: &Row| -> BTreeMap<Attr, String> {
            row.iter().map(|(a, v)| (a, v.to_owned())).collect()
        };
        assert_eq!(row.len(), model.len());
        assert_eq!(row.get(Attr(16)), Some("10"));
        assert_eq!(row.get(Attr(18)), None);
        assert!(row.iter().map(|(a, _)| a).eq(model.keys().copied()));
        assert_eq!(as_model(&row), model);
        // Equality is by content, however the row was put together.
        assert_eq!(row, Row::from_pairs(model.clone()));
        assert_eq!(
            format!("{:?}", Row::new().with(Attr(1), "x")),
            r#"{a1: "x"}"#
        );
    }

    #[test]
    fn timestamp_ordering_and_next() {
        assert!(Timestamp(3) > Timestamp(2));
        assert_eq!(Timestamp(3).next(), Timestamp(4));
        assert_eq!(Timestamp::ZERO.next(), Timestamp(1));
        assert_eq!(format!("{}", Timestamp(7)), "7");
    }

    #[test]
    fn error_display_mentions_both_timestamps() {
        let e = MvkvError::StaleTimestamp {
            attempted: Timestamp(3),
            latest: Timestamp(9),
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('9'));
    }

    #[test]
    fn row_from_iterator() {
        let row: Row = vec![(Attr(7), "1"), (Attr(8), "2")].into_iter().collect();
        assert_eq!(row.get(Attr(8)), Some("2"));
    }

    #[test]
    fn key_and_attr_display() {
        assert_eq!(format!("{}", Key(5)), "k5");
        assert_eq!(format!("{}", Attr(3)), "a3");
        assert!(Key(1) < Key(2));
    }
}
