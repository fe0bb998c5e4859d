//! Multi-core cluster bring-up: shard the data plane over worker threads.
//!
//! [`ParallelCluster`] is the [`ShardedCluster`] on the
//! [`simnet::ParallelRuntime`], with **one shard per worker thread**: each
//! worker owns a complete replica set leading a disjoint subset of the
//! transaction groups — the sharding the paper's data model promises
//! (§2.1: groups are independent units of consistency) projected onto
//! cores. A group's entire commit pipeline (the service-hosted committer,
//! the acceptors, the replica logs) lives on its shard's worker, so the
//! services' own consensus traffic never crosses threads. A session client
//! ([`ShardedCluster::add_session`]) may live on any worker: its commit
//! traffic crosses the runtime's per-worker inboxes, and it takes read
//! positions, read leases and in-process leader claims at another worker's
//! cores under their locks, as the wire read plane does.
//!
//! Protocol code, the build, the lookups and the verification are the
//! simulation's, on the same event engine and network model; only the
//! clock differs. This module adds what only that clock has: the wall-clock
//! run ([`ParallelCluster::run`]) and raw drivers registered in one shard
//! ([`ParallelCluster::add_driver`]). Its shards run in memory: storage,
//! crashes and chaos replay are the simulation's.

use crate::batch::BatchConfig;
use crate::cluster::{ClusterConfig, NodePlacement, ShardedCluster};
use crate::msg::Msg;
use crate::topology::Topology;
use paxos::CommitProtocol;
use simnet::{Actor, NodeId, ParallelReport, ParallelRuntime, SiteId};
use std::time::Duration;
use walog::GroupId;

/// Configuration of a sharded parallel cluster: one in-memory
/// [`ClusterConfig`] replica set per worker thread.
#[derive(Clone, Debug)]
pub struct ParallelClusterConfig {
    /// Topology, protocol, commit engines and seed of every shard. The seed
    /// derives the per-worker RNGs (scheduling is still wall-clock, so runs
    /// are *not* deterministic). Its storage must stay
    /// [`StorageConfig::InMemory`](crate::StorageConfig::InMemory):
    /// [`ParallelCluster::build`] asserts it.
    cluster: ClusterConfig,
    /// Worker threads = shards (each owns one full replica set).
    pub workers: usize,
    /// Scale factor applied to every latency in the topology (1.0 = the
    /// paper's wide-area RTTs in real time; 0.1 = ten times faster).
    /// Message timeouts are *not* scaled.
    pub rtt_scale: f64,
}

impl From<ClusterConfig> for ParallelClusterConfig {
    /// Two workers running `cluster` (which must keep its storage in
    /// memory), unscaled latencies.
    fn from(cluster: ClusterConfig) -> Self {
        ParallelClusterConfig {
            cluster,
            workers: 2,
            rtt_scale: 1.0,
        }
    }
}

impl ParallelClusterConfig {
    /// A two-worker cluster with the given topology and protocol, seed 42,
    /// unscaled latencies.
    pub fn new(topology: Topology, protocol: CommitProtocol) -> Self {
        ClusterConfig::new(topology, protocol).into()
    }

    /// Builder-style worker-count override.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.cluster.seed = seed;
        self
    }

    /// Builder-style commit-engine window/pipeline override.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.cluster.batch = batch;
        self
    }

    /// Builder-style latency scale override (clamped positive).
    pub fn with_rtt_scale(mut self, scale: f64) -> Self {
        self.rtt_scale = if scale > 0.0 { scale } else { 1.0 };
        self
    }
}

impl NodePlacement for ParallelRuntime<Msg> {
    fn add_site(&mut self, name: String) -> SiteId {
        ParallelRuntime::add_site(self, name)
    }

    fn add_node(
        &mut self,
        site: SiteId,
        worker: usize,
        actor: Box<dyn Actor<Msg> + Send>,
    ) -> NodeId {
        ParallelRuntime::add_node(self, site, worker, actor)
    }

    fn node_count(&self) -> usize {
        ParallelRuntime::node_count(self)
    }
}

/// A sharded multi-core cluster on the parallel runtime, which it holds
/// until [`ParallelCluster::run`] consumes it.
pub type ParallelCluster = ShardedCluster<Option<ParallelRuntime<Msg>>>;

impl ParallelCluster {
    /// Build the cluster: `workers` shards, each with one site, one
    /// storage core and one Transaction Service per datacenter of the
    /// topology, all interning through one shared symbol table.
    ///
    /// Panics when the configuration asks for durable storage.
    pub fn build(config: ParallelClusterConfig) -> Self {
        assert!(
            !config.cluster.storage.is_durable(),
            "the parallel runtime's shards run in memory"
        );
        let workers = config.workers;
        ShardedCluster::assemble(
            config.cluster,
            workers,
            config.rtt_scale,
            |network, seed| Some(ParallelRuntime::new(network, workers, seed)),
            |runtime| runtime.as_mut().expect("actors must be added before run()"),
        )
    }

    /// Add a raw driver actor on `worker`, placed at that shard's
    /// `replica` site; the closure receives the node id the actor will run
    /// as. A driver builds its own messages instead of running a
    /// [`Session`](crate::Session), and is registered only in `worker`'s
    /// shard: the other shards copy it no votes, which keeps a raw port
    /// that waits for the home's reply (the benchmark's wire actor, the raw
    /// test writers) free of traffic it would ignore.
    pub fn add_driver<F>(&mut self, worker: usize, replica: usize, make_actor: F) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Actor<Msg> + Send>,
    {
        self.place(worker, replica, false, make_actor)
    }

    /// Launch the worker threads and run until `done()` or `max_wall`.
    /// Consumes the runtime: a cluster runs once.
    pub fn run<F>(&mut self, max_wall: Duration, done: F) -> ParallelReport
    where
        F: FnMut() -> bool,
    {
        self.runtime
            .take()
            .expect("a ParallelCluster runs exactly once")
            .run(max_wall, done)
    }

    /// Committed transactions recorded in the owning shard's replica-0 log
    /// for a group.
    pub fn committed_in_log(&self, group: GroupId) -> usize {
        self.committed_in_log_id(0, group)
    }

    /// Expired remote reads and store versions reclaimed, summed over every
    /// shard's cores. The first is always zero, since no Transaction
    /// Service parks reads; it stays only because the `benchmark/` harness
    /// still reports `service.expired_reads`.
    pub fn service_side_counters(&self) -> (u64, u64) {
        let expired = self.expired_read_counts().iter().sum();
        (expired, self.reclaimed_version_counts().iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ClientConfig;

    #[test]
    fn build_wires_one_replica_set_per_worker() {
        let mut cluster = ParallelCluster::build(
            ParallelClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
                .with_workers(2)
                .with_rtt_scale(0.5),
        );
        assert_eq!(cluster.num_shards(), 2);
        assert_eq!(cluster.num_datacenters(), 3);
        let g0 = cluster.register_group("g0");
        let g1 = cluster.register_group("g1");
        assert_eq!(cluster.shard_of_group(g0), 0);
        assert_eq!(cluster.shard_of_group(g1), 1);
        // Shard-local service nodes: 3 per worker, ids dense in build order.
        let s0 = cluster.service_for_group(g0);
        let s1 = cluster.service_for_group(g1);
        assert!(s0.0 < 3, "shard 0 services are nodes 0..3");
        assert!((3..6).contains(&s1.0), "shard 1 services are nodes 3..6");
        // Per-replica accessors reach every datacenter of the owning shard.
        assert_eq!(cluster.service_for_group_at(g1, 0), NodeId(3));
        assert_eq!(cluster.service_for_group_at(g1, 2), NodeId(5));
        assert_eq!(cluster.core_for_group_at(g1, 2).lock().replica(), 2);
        assert_eq!(cluster.committed_in_log(g0), 0);
        assert!(cluster.verify().unwrap().is_empty());
        let (expired, reclaimed) = cluster.service_side_counters();
        assert_eq!((expired, reclaimed), (0, 0));
    }

    /// A client lives on one worker but is registered at its datacenter in
    /// every shard, where a raw driver is registered in its own shard only;
    /// its session reaches each group through the group's own shard.
    #[test]
    fn a_client_is_registered_in_every_shard() {
        struct Idle;
        impl Actor<Msg> for Idle {
            fn on_message(&mut self, _: &mut simnet::Context<Msg>, _: NodeId, _: Msg) {}
        }
        let mut cluster = ParallelCluster::build(
            ParallelClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_workers(3),
        );
        let groups: Vec<GroupId> = (0..3)
            .map(|g| cluster.register_group(&format!("g{g}")))
            .collect();
        let client = cluster.add_session(0, 2, ClientConfig::cp(), |mut session| {
            for group in &groups {
                session.begin_id(simnet::SimTime::ZERO, *group);
            }
            Box::new(Idle)
        });
        let driver = cluster.add_driver(0, 1, |_| Box::new(Idle));
        let registered = |node| {
            let shards = cluster.shards.directories.iter();
            shards
                .map(|shard| shard.replica_of_client(node))
                .collect::<Vec<_>>()
        };
        assert_eq!(registered(client), [Some(2); 3]);
        assert_eq!(registered(driver), [Some(1), None, None]);
        for (worker, group) in groups.iter().enumerate() {
            assert_eq!(cluster.shard_of_group(*group), worker);
            // Each `begin` leased its read position at the client's
            // datacenter of the group's own shard.
            let core = cluster.core_for_group_at(*group, 2);
            assert_eq!(core.lock().read_lease_count(), 1);
        }
    }

    /// Worker threads have no storage plane: a durable configuration is
    /// refused before any directory is opened.
    #[test]
    #[should_panic(expected = "shards run in memory")]
    fn a_durable_configuration_is_refused() {
        let durable = storage::DurableConfig::new("unused-parallel-storage-dir");
        let config = ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
            .with_storage(crate::StorageConfig::Durable(durable));
        ParallelCluster::build(config.into());
    }
}
