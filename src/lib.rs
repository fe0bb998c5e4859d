//! Umbrella crate for the Paxos-CP reproduction.
//!
//! Re-exports the public API of every workspace crate so examples and
//! integration tests can use a single dependency:
//!
//! * [`simnet`] — deterministic discrete-event simulation kernel.
//! * [`mvkv`] — multi-version key-value store substrate.
//! * [`walog`] — write-ahead log model and serializability theory.
//! * [`paxos`] — basic Paxos and Paxos-CP commit protocol state machines.
//! * [`storage`] — durable plane: disk WAL and snapshots.
//! * [`mdstore`] — the transaction tier (the paper's core contribution).
//! * [`workload`] — one load actor (`LoadActor`) and one harness
//!   (`run_load(&LoadSpec)`): every experiment is a preset of the product
//!   cluster shape × arrival process × operation mix × keyspace.

pub use mdstore;
pub use mvkv;
pub use paxos;
pub use simnet;
pub use storage;
pub use walog;
pub use workload;
