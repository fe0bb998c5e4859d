//! Interned identifiers for the transaction data plane.
//!
//! Every name that flows through the commit hot path — transaction group,
//! row key, attribute (column) — is interned once into a dense `u32` id and
//! travels as a `Copy` value from then on. Conflict detection in the
//! Paxos-CP combination/promotion logic, log application, and store indexing
//! all become integer operations instead of string hashing and cloning.
//!
//! One [`SymbolTable`] is shared by the whole cluster (every simulated
//! datacenter and client holds the same `Arc`), which models a cluster-wide
//! agreed schema catalogue: the same name maps to the same id at every
//! replica, so ids — not names — can be shipped in protocol messages and
//! stored in logs. A production deployment would replicate catalogue updates
//! through the same log; in the simulation the shared table gives identical
//! semantics.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a transaction group (the unit of transactional access and
/// of write-ahead-log replication, §2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u32);

/// Identifier of a row key within the store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyId(pub u32);

/// Identifier of an attribute (column) within a row.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AttrId(pub u32);

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl KeyId {
    /// The raw (group-unqualified) store key this row id maps to.
    ///
    /// Every store key is an application row: the acceptor state lives in
    /// the store's protocol table, not in rows. The transaction tier
    /// qualifies application rows by transaction group before touching the
    /// store (group id in the high 32 bits of the key, see `mdstore`'s
    /// `DatacenterCore`), so two groups using the same row name never
    /// alias; this raw mapping is for single-group embedders and tests.
    pub fn store_key(self) -> mvkv::Key {
        mvkv::Key(self.0 as u64)
    }
}

impl From<AttrId> for mvkv::Attr {
    fn from(attr: AttrId) -> mvkv::Attr {
        mvkv::Attr(attr.0)
    }
}

/// Highest id the interner will hand out; the ids above it (up to
/// `u32::MAX`) stay unassigned.
pub const MAX_INTERNED: u32 = u32::MAX - 64;

#[derive(Default)]
struct Interner {
    inner: RwLock<InternerInner>,
}

#[derive(Default)]
struct InternerInner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&self, name: &str) -> u32 {
        if let Some(id) = self.inner.read().by_name.get(name) {
            return *id;
        }
        let mut inner = self.inner.write();
        if let Some(id) = inner.by_name.get(name) {
            return *id;
        }
        let id = inner.names.len() as u32;
        assert!(id < MAX_INTERNED, "symbol table exhausted");
        inner.names.push(name.to_string());
        inner.by_name.insert(name.to_string(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.inner.read().by_name.get(name).copied()
    }

    fn resolve(&self, id: u32) -> Option<String> {
        self.inner.read().names.get(id as usize).cloned()
    }

    fn len(&self) -> usize {
        self.inner.read().names.len()
    }
}

/// The cluster-wide symbol table: three independent interners for groups,
/// row keys and attributes.
///
/// Interning is idempotent (`intern(s)` always returns the same id for the
/// same string) and resolution is its inverse; both are verified by property
/// tests. Lookups take a read lock only; the write lock is taken exactly
/// once per distinct name, so steady-state workloads never contend.
#[derive(Default)]
pub struct SymbolTable {
    groups: Interner,
    keys: Interner,
    attrs: Interner,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// An empty table behind the shared handle used across a cluster.
    pub fn shared() -> Arc<SymbolTable> {
        Arc::new(SymbolTable::new())
    }

    /// Intern a transaction-group name.
    pub fn group(&self, name: &str) -> GroupId {
        GroupId(self.groups.intern(name))
    }

    /// Intern a row-key name.
    pub fn key(&self, name: &str) -> KeyId {
        KeyId(self.keys.intern(name))
    }

    /// Intern an attribute name.
    pub fn attr(&self, name: &str) -> AttrId {
        AttrId(self.attrs.intern(name))
    }

    /// Intern a `(key, attr)` pair into an item reference.
    pub fn item(&self, key: &str, attr: &str) -> crate::ItemRef {
        crate::ItemRef::new(self.key(key), self.attr(attr))
    }

    /// The id of an already-interned group name, if any.
    pub fn try_group(&self, name: &str) -> Option<GroupId> {
        self.groups.lookup(name).map(GroupId)
    }

    /// The id of an already-interned key name, if any.
    pub fn try_key(&self, name: &str) -> Option<KeyId> {
        self.keys.lookup(name).map(KeyId)
    }

    /// The name a group id was interned from (`None` for foreign ids).
    pub fn group_name(&self, id: GroupId) -> Option<String> {
        self.groups.resolve(id.0)
    }

    /// The name a key id was interned from.
    pub fn key_name(&self, id: KeyId) -> Option<String> {
        self.keys.resolve(id.0)
    }

    /// The name an attribute id was interned from.
    pub fn attr_name(&self, id: AttrId) -> Option<String> {
        self.attrs.resolve(id.0)
    }

    /// Number of interned (groups, keys, attrs).
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.groups.len(), self.keys.len(), self.attrs.len())
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (g, k, a) = self.counts();
        write!(f, "SymbolTable({g} groups, {k} keys, {a} attrs)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let table = SymbolTable::new();
        let a = table.attr("balance");
        let b = table.attr("owner");
        let a_again = table.attr("balance");
        assert_eq!(a, a_again);
        assert_ne!(a, b);
        assert_eq!(a.0, 0);
        assert_eq!(b.0, 1);
    }

    #[test]
    fn namespaces_are_independent() {
        let table = SymbolTable::new();
        let g = table.group("x");
        let k = table.key("x");
        let at = table.attr("x");
        // Same string, each namespace starts at 0.
        assert_eq!((g.0, k.0, at.0), (0, 0, 0));
        assert_eq!(table.counts(), (1, 1, 1));
    }

    #[test]
    fn resolution_inverts_interning() {
        let table = SymbolTable::new();
        let id = table.key("row0");
        assert_eq!(table.key_name(id).as_deref(), Some("row0"));
        assert_eq!(table.key_name(KeyId(99)), None);
        assert_eq!(table.try_key("row0"), Some(id));
        assert_eq!(table.try_key("missing"), None);
    }

    #[test]
    fn item_interns_both_halves() {
        let table = SymbolTable::new();
        let item = table.item("row", "a7");
        assert_eq!(table.key_name(item.key).as_deref(), Some("row"));
        assert_eq!(table.attr_name(item.attr).as_deref(), Some("a7"));
    }

    #[test]
    fn store_key_conversion_stays_in_application_space() {
        let key = KeyId(17);
        assert_eq!(key.store_key(), mvkv::Key(17));
        assert_eq!(mvkv::Attr::from(AttrId(3)), mvkv::Attr(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", GroupId(1)), "g1");
        assert_eq!(format!("{}", KeyId(2)), "k2");
        assert_eq!(format!("{}", AttrId(3)), "a3");
    }
}
