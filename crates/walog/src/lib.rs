//! # walog — the replicated write-ahead log and serializability theory
//!
//! Section 3 of the paper defines the correctness framework for the
//! transaction tier: a fully replicated, per-transaction-group write-ahead
//! log whose entries are committed transactions, subject to
//!
//! * **(L1)** the log contains only operations of committed transactions,
//! * **(L2)** all operations of a committed transaction live in one log
//!   position,
//! * **(L3)** appending an entry preserves one-copy serializability of the
//!   history contained in the log,
//! * **(R1)** no two replicas disagree on the value of a log position,
//!
//! plus the read rules **(A1)** (read-your-writes) and **(A2)** (all reads
//! of a transaction are served at a single read position).
//!
//! This crate provides the interned identifier plane ([`ident`]: the
//! cluster-wide [`SymbolTable`] mapping group/key/attribute names to dense
//! `Copy` ids), the vocabulary types built on it ([`Transaction`],
//! [`LogEntry`], [`LogPosition`], [`GroupLog`]), the conflict relations used
//! by the Paxos-CP *combination* and *promotion* enhancements (integer-set
//! intersections over cached packed write sets), and an offline [`checker`]
//! that verifies one-copy serializability (Definition 1) and replica
//! agreement over the logs produced by a simulation — the same obligations
//! the paper discharges by proof, discharged here by exhaustive checking on
//! every experiment run.
//!
//! Decided log values are shared as `Arc<LogEntry>` across messages, votes,
//! replica logs and install paths: one allocation per decided value, no
//! matter how many replicas learn it.
//!
//! [`codec`] is the token format every durable byte is written in: log
//! entries here, and the write-ahead-log records and group snapshots of the
//! `storage` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod codec;
pub mod combine;
mod entry;
pub mod ident;
mod log;
mod types;

pub use entry::LogEntry;
pub use ident::{AttrId, GroupId, KeyId, SymbolTable};
pub use log::{GroupLog, LogError};
pub use types::{ItemRef, LogPosition, ReadRecord, Transaction, TxnId, WriteRecord};
