//! # workload — one load actor, one harness
//!
//! The paper produces every figure of §6 from one YCSB generator whose
//! knobs are threads, target rate, attribute count and placement. This
//! crate is that generator: a [`LoadSpec`] is the product *cluster shape ×
//! arrival process × operation mix × keyspace*, [`LoadActor`] offers it, and
//! [`run_load`] builds the cluster, places the actors, drives the run,
//! verifies it and audits it. Every experiment in the repository is a
//! preset:
//!
//! | preset | cluster shape | arrival | mix | audits beyond serializability |
//! |---|---|---|---|---|
//! | [`LoadSpec::paper_default`] | `Sim`, in-memory, fault-free | `Closed`: 4 clients × 125 txns at 1 tx/s, one open each | 10 ops, 50 % reads, 18 ms per op, one 100-attribute row, direct route | every transaction reached an outcome, exactly-once, no lease leaked |
//! | [`LoadSpec::open_loop`] | `Parallel`, `workers` shards × 8 groups | `Open`: Poisson at `offered_tps` for 1.2 s | single blind writes, 1 M zipfian keys, submitted route, 1.5 s patience, no re-submission | exactly-once, no lease leaked |
//! | [`LoadSpec::read_mostly`] | `Parallel`, `workers` shards × 4 groups | as `open_loop` | 95 % snapshot reads (≤ 4 in flight per actor) served by the first N datacenters, 5 % blind writes | + zero unavailable reads, every read explained at its watermark |
//! | [`LoadSpec::rolling_failure`] | `Sim` + rolling crashes, flapping link, home churn (+ durable restarts with [`LoadSpec::with_storage`]) | `Open`: Poisson at 200 tx/s for the given duration | single blind writes over 4 groups, submitted route, 32 re-submissions at 400 ms patience | + every 1 s window live |
//!
//! Any other point of the product is a preset with fields changed (the
//! paper's workload under durable rolling crashes, the read-mostly mix on
//! the simulation): nothing in the actor or the harness is preset-specific.
//!
//! * **One client** on every shape: the actor drives an
//!   [`mdstore::Session`] (multi-operation transactions, both commit
//!   routes, exactly-once re-submission) on the simulation and on the
//!   parallel runtime alike, where [`mdstore::ParallelCluster::add_client`]
//!   gives it each group's shard. Snapshot reads travel the wire read
//!   plane ([`mdstore::Msg::SnapshotRead`]) and the actor minds their
//!   patience; the session ends each commit itself.
//! * **Arrival** decides where latency is charged from: `Closed` from the
//!   commit call (the paper's measure), `Open` from the *scheduled* arrival
//!   — commits, aborts, `Unavailable` outcomes and shed reads alike.
//! * **Audits** run whenever their evidence exists: exactly-once whenever
//!   clients observed commit ids, [`explain_snapshot_reads`] whenever
//!   snapshot reads ran (it needs logs no snapshot truncated, as does the
//!   checker for in-transaction reads), the lease-leak check always,
//!   liveness windows when [`LoadSpec::liveness_window`] is set.
//!
//! Harnesses that need the simulation in their own hands (mid-run
//! inspection, custom faults) [`place`] the same actors on their own
//! [`mdstore::Cluster`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod harness;
mod spec;
mod zipf;

pub use actor::{LoadActor, Names, SnapshotReadSample};
pub use harness::{explain_snapshot_reads, place, run_load, Fleet};
pub use spec::{
    Arrival, ClusterShape, Keyspace, LoadResult, LoadSpec, OpMix, Placement, ReadTotals,
};
pub use zipf::{KeyDistribution, KeySampler, Zipfian};
