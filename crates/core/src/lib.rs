//! # mdstore — the multi-datacenter transactional datastore (the paper's core)
//!
//! This crate assembles the substrates (simulated network, multi-version
//! store, replicated write-ahead log, Paxos state machines) into the system
//! of the paper: a transactional datastore fully replicated at several
//! datacenters, where every datacenter can serve transactions and the commit
//! protocol — basic Paxos or **Paxos-CP** — provides both replication and
//! concurrency control.
//!
//! The pieces map one-to-one onto the paper's architecture (Figure 1):
//!
//! * [`topology`] — datacenters, regions and the wide-area RTTs measured in
//!   the paper's evaluation (Virginia ↔ Oregon/California ≈ 90 ms, intra
//!   Virginia ≈ 1.5 ms, Oregon ↔ California ≈ 20 ms).
//! * [`Directory`] — cluster-wide lookup (service nodes, storage cores,
//!   client placement) plus the shared `walog::SymbolTable`: every group,
//!   key and attribute name is interned once at the client API boundary and
//!   travels the rest of the pipeline as a `Copy` integer id.
//! * [`DatacenterCore`] — the per-datacenter storage state: the key-value
//!   store, the replicated write-ahead logs, and the leader bookkeeping for
//!   the fast path. Shared by the local Transaction Services and Transaction
//!   Clients, mirroring the paper's "client executes operations directly on
//!   its local key-value store" optimization.
//! * [`TransactionService`] — the per-datacenter service actor: plays the
//!   Paxos acceptor role (Algorithm 1), installs decided entries, serves
//!   snapshot reads, and catches up missing log positions by running
//!   recovery Paxos instances with no-op values.
//! * [`Session`] — the client library: `begin` returns a [`TxnHandle`];
//!   `read` / `write` / `commit` take the handle, so any number of
//!   transactions may be open concurrently. Commit routes down
//!   [`CommitRoute::Direct`] (the paper's client-driven proposer,
//!   Algorithm 2) or [`CommitRoute::Submitted`] (ship the transaction to
//!   the group home's service, which batches it with other clients'
//!   commits). A submitted commit from outside the group's home learns
//!   its fate from copies of the acceptors' votes ([`VoteTally`]) one
//!   wide-area hop before the home's reply would bring it.
//! * [`batch`] — the batching commit pipeline: independent transactions
//!   ride a single Paxos-CP instance as one combined entry, amortizing the
//!   wide-area round trips. Its group committers live only in the
//!   [`TransactionService`]s, and only the group home's proposes (one
//!   committer per led group, serving every client of the group); the
//!   [`Directory`]'s per-group leader map shards leadership (and batching)
//!   across datacenters.
//! * `proposers` — the one proposer host the [`Session`], the group
//!   committer and the [`TransactionService`] share: every Paxos
//!   instance this crate runs (a direct commit, a pipeline slot, a recovery
//!   no-op) is started, fed and finished there.
//! * [`ShardedCluster`] — the harness that wires everything into shards
//!   of complete replica sets and verifies the resulting logs with the
//!   serializability checker after every run, the same way on both
//!   runtimes: [`Cluster`] is its one-shard case on the deterministic
//!   simulation (which also injects failures), [`ParallelCluster`] runs
//!   one shard per worker thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cluster;
pub mod datacenter;
pub mod directory;
pub mod learner;
pub mod metrics;
pub mod msg;
pub mod parallel;
mod proposers;
pub mod service;
pub mod session;
pub mod topology;

pub use batch::BatchConfig;
pub use cluster::{ChaosReplay, Cluster, ClusterConfig, ShardedCluster};
pub use datacenter::{DatacenterCore, GroupState, RestartReport};
pub use directory::Directory;
pub use learner::{Learned, VoteTally};
pub use metrics::{LatencyStats, MetricsHub, RunMetrics};
pub use msg::Msg;
pub use parallel::{ParallelCluster, ParallelClusterConfig};
pub use paxos::{AbortReason, CommitProtocol, ProposerConfig};
pub use service::TransactionService;
pub use session::{
    apply_client_actions, ClientAction, ClientConfig, CommitRoute, Session, SessionError,
    TxnHandle, TxnResult,
};
pub use storage::{remove_scratch_dir, scratch_dir, DurableConfig, StorageConfig, StorageStats};
pub use topology::{Region, Topology};
