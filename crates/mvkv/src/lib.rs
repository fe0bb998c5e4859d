//! # mvkv — the per-datacenter multi-version key-value store
//!
//! The paper's transaction tier sits on top of a key-value store that must
//! provide exactly three atomically executed operations (§2.2):
//!
//! * `read(key, timestamp) -> value` — most recent version with a timestamp
//!   ≤ the requested one;
//! * `write(key, value, timestamp)` — create a new version at the given
//!   logical timestamp, failing if a version with a greater timestamp
//!   already exists;
//! * `checkAndWrite(key.testAttribute, testValue, key, value)` — conditional
//!   write against the latest version of the row, which the Paxos acceptor
//!   of Algorithm 1 uses to update its ballot state atomically.
//!
//! The paper uses HBase; any store with these primitives qualifies, so this
//! crate provides a self-contained in-process implementation of `read` and
//! `write` with the same semantics. `checkAndWrite` is the one primitive it
//! replaces: the acceptor's state is not encoded into rows but held in one
//! typed protocol table beside them ([`MvKvStore::protocol`]), and the lock
//! guarding a table update gives the atomicity `checkAndWrite` gave. So the
//! rows hold only application data: they are named by interned `Copy`
//! integer [`Key`]s, attributes by interned [`Attr`] ids (see
//! `walog::ident` for the shared string table), and the logical timestamp
//! of an application write is the write-ahead-log position that committed
//! it.
//!
//! Writes are *merge-upserts*: a version of a row is the previous one with
//! the written attributes overlaid, which mirrors column-family stores where
//! untouched columns remain visible. Like HBase, the store versions each
//! cell rather than each row: every attribute of a key keeps its own chain
//! of timestamped values, and a per-key schedule records which attributes
//! each version wrote. A write costs what it sets, however wide the row;
//! whole versions ([`Row`]) are materialised only for reads and dumps.
//!
//! A replica applies a decided row with [`MvKvStore::apply_and_reclaim`]:
//! the write at the entry's log position and the version GC behind the
//! readers' watermark, under one lock and one row lookup, taking the
//! attributes as borrowed pairs so no [`Row`] is built for it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod store;
mod types;

pub use store::{MvKvStore, StoreStats};
pub use types::{Attr, Key, MvkvError, Row, Timestamp, VersionRead};
