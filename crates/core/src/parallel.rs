//! Multi-core cluster bring-up: shard the data plane over worker threads.
//!
//! [`ParallelCluster`] assembles the same replica set as
//! [`Cluster`](crate::Cluster) — one storage core and one
//! [`TransactionService`](crate::TransactionService) per datacenter, a
//! [`Directory`] wiring them together, built by the same code — but on the
//! [`simnet::ParallelRuntime`] instead of the deterministic simulation, and
//! **once per worker thread**: each worker owns a complete replica set (a
//! *shard*) that leads a disjoint subset of transaction groups. A group's
//! entire commit pipeline — the service-hosted group committer, the Paxos
//! acceptors, the replica logs — lives on its shard's worker, so the
//! services' own consensus traffic never crosses threads. A client may
//! live on any worker: its [`Session`] reaches each group through the
//! directory of the shard owning it, so its commit traffic (requests,
//! replies, vote copies, a direct commit's Paxos rounds) crosses the
//! runtime's bounded channels, and it takes read positions, read leases
//! and in-process leader claims at another worker's cores under their
//! locks, as the wire read plane does.
//!
//! This is the sharding the paper's data model promises (§2.1: transaction
//! groups are independent units of consistency) projected onto cores:
//! adding a worker adds a full set of group pipelines. Protocol code is
//! untouched — the services, committers and sessions are byte-for-byte the
//! ones the simulation runs, on the same event engine and network model;
//! only the clock (wall time instead of virtual time) and the harness
//! differ. Every shard is verified by the simulation's own check,
//! committed-set cross-check included.
//!
//! Every shard keeps its own [`Directory`] (its three services, its
//! cores), but all shards intern names through one cluster-wide
//! [`SymbolTable`], so group/key/attribute ids — and therefore shard
//! routing — agree across workers.

use crate::batch::BatchConfig;
use crate::cluster::{build_replica_set, verify_replica_set, ClusterConfig};
use crate::datacenter::SharedCore;
use crate::directory::Directory;
use crate::metrics::{MetricsHub, RunMetrics};
use crate::msg::Msg;
use crate::session::{ClientConfig, Session};
use crate::topology::Topology;
use parking_lot::RwLock;
use paxos::CommitProtocol;
use simnet::{Actor, NodeId, ParallelReport, ParallelRuntime, SiteId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use walog::checker::{CheckReport, Violation};
use walog::{AttrId, GroupId, KeyId, SymbolTable};

/// Configuration of a sharded parallel cluster.
#[derive(Clone, Debug)]
pub struct ParallelClusterConfig {
    /// Datacenter layout each shard replicates (regions + RTTs).
    pub topology: Topology,
    /// Commit protocol of the service-hosted engines.
    pub protocol: CommitProtocol,
    /// Window/pipeline settings of the service-hosted commit engines.
    pub batch: BatchConfig,
    /// Seed deriving the per-worker RNGs (scheduling is still wall-clock,
    /// so runs are *not* deterministic).
    pub seed: u64,
    /// Worker threads = shards (each owns one full replica set).
    pub workers: usize,
    /// Scale factor applied to every latency in the topology (1.0 = the
    /// paper's wide-area RTTs in real time; 0.1 = ten times faster).
    /// Message timeouts are *not* scaled.
    pub rtt_scale: f64,
}

impl ParallelClusterConfig {
    /// A two-worker cluster with the given topology and protocol, seed 42,
    /// unscaled latencies.
    pub fn new(topology: Topology, protocol: CommitProtocol) -> Self {
        ParallelClusterConfig {
            topology,
            protocol,
            batch: BatchConfig::default(),
            seed: 42,
            workers: 2,
            rtt_scale: 1.0,
        }
    }

    /// Builder-style worker-count override.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style commit-engine window/pipeline override.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Builder-style latency scale override (clamped positive).
    pub fn with_rtt_scale(mut self, scale: f64) -> Self {
        self.rtt_scale = if scale > 0.0 { scale } else { 1.0 };
        self
    }
}

/// The shards' replica sets and the shard owning each registered group,
/// shared by a cluster and its sessions: where a session looks a group's
/// replica set up. A simulated cluster is one shard that owns every group.
pub(crate) struct Shards {
    /// One replica set per worker: its directory (services, cores, leader
    /// map).
    directories: Vec<Arc<Directory>>,
    /// Shard owning each registered group.
    owner: RwLock<HashMap<GroupId, usize>>,
}

impl Shards {
    /// Shards owning no group yet; the only one owns every group.
    pub(crate) fn new(directories: Vec<Arc<Directory>>) -> Arc<Shards> {
        let owner = RwLock::default();
        Arc::new(Shards { directories, owner })
    }

    /// The shard (worker) owning a registered group.
    pub(crate) fn shard_of(&self, group: GroupId) -> usize {
        *self
            .owner
            .read()
            .get(&group)
            .expect("group was registered with register_group")
    }

    /// The directory of the shard owning a registered group.
    pub(crate) fn of(&self, group: GroupId) -> &Directory {
        match &self.directories[..] {
            [one] => one,
            shards => &shards[self.shard_of(group)],
        }
    }

    /// The cluster-wide symbol table every shard interns through.
    pub(crate) fn symbols(&self) -> &Arc<SymbolTable> {
        self.directories[0].symbols()
    }
}

/// A sharded multi-core cluster on the parallel runtime.
pub struct ParallelCluster {
    config: ParallelClusterConfig,
    runtime: Option<ParallelRuntime<Msg>>,
    shards: Arc<Shards>,
    /// Groups in registration order.
    groups: Vec<GroupId>,
    service_metrics: MetricsHub,
}

impl ParallelCluster {
    /// Build the cluster: `workers` shards, each with one site, one
    /// storage core and one Transaction Service per datacenter of the
    /// topology, all interning through one shared symbol table.
    pub fn build(config: ParallelClusterConfig) -> Self {
        let network = config
            .topology
            .sharded_network_config(config.workers, config.rtt_scale);
        let mut runtime: ParallelRuntime<Msg> =
            ParallelRuntime::new(network, config.workers, config.seed);
        let symbols = SymbolTable::shared();
        let service_metrics = MetricsHub::new();
        let replica_set = ClusterConfig::new(config.topology.clone(), config.protocol)
            .with_batch(config.batch.clone());
        let mut directories = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let directory = Directory::with_symbols(Arc::clone(&symbols));
            let prefix = format!("w{worker}-");
            build_replica_set(
                &replica_set,
                &directory,
                &service_metrics,
                &prefix,
                |name, service| {
                    let site = runtime.add_site(name);
                    runtime.add_node(site, worker, Box::new(service))
                },
            );
            directories.push(directory);
        }
        ParallelCluster {
            config,
            runtime: Some(runtime),
            shards: Shards::new(directories),
            groups: Vec::new(),
            service_metrics,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ParallelClusterConfig {
        &self.config
    }

    /// The cluster-wide symbol table.
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(self.shards.symbols())
    }

    /// Number of worker threads (= shards).
    pub fn num_workers(&self) -> usize {
        self.shards.directories.len()
    }

    /// Datacenters per shard.
    pub fn num_datacenters(&self) -> usize {
        self.config.topology.num_datacenters()
    }

    /// Intern a group name and assign it to a shard (round-robin over the
    /// workers in registration order). Returns its cluster-wide id.
    pub fn register_group(&mut self, name: &str) -> GroupId {
        let group = self.shards.symbols().group(name);
        let shard = self.groups.len() % self.num_workers();
        self.shards.owner.write().entry(group).or_insert(shard);
        self.groups.push(group);
        group
    }

    /// The groups registered so far, in registration order.
    pub fn groups(&self) -> &[GroupId] {
        &self.groups
    }

    /// The shard (worker) owning a registered group.
    pub fn shard_of_group(&self, group: GroupId) -> usize {
        self.shards.shard_of(group)
    }

    /// The Transaction Service node commit requests for `group` go to: the
    /// group home's service within the owning shard.
    pub fn service_for_group(&self, group: GroupId) -> NodeId {
        let shard = self.shards.of(group);
        shard.service_node(shard.group_home(group))
    }

    /// The storage core of the group home's datacenter within the owning
    /// shard (drivers refresh read positions from it).
    pub fn home_core(&self, group: GroupId) -> SharedCore {
        let shard = self.shards.of(group);
        shard.core(shard.group_home(group))
    }

    /// The Transaction Service node of `replica` within the shard owning
    /// `group`. Snapshot-read harnesses target non-home replicas with this
    /// — any replica of the owning shard can serve the group's watermark
    /// reads, which is what the scale-out read plane measures.
    pub fn service_for_group_at(&self, group: GroupId, replica: usize) -> NodeId {
        self.shards.of(group).service_node(replica)
    }

    /// The storage core of `replica` within the shard owning `group`
    /// (snapshot-read harnesses refresh watermarks from — and hold read
    /// leases on — the serving replica, not just the home).
    pub fn core_for_group_at(&self, group: GroupId, replica: usize) -> SharedCore {
        self.shards.of(group).core(replica)
    }

    /// Add a client on `worker`, living in `replica`'s datacenter: a
    /// [`Session`] that reaches each group through the directory of the
    /// shard owning it, handed to `make_actor` to embed. The client is
    /// registered at `replica` in **every** shard's directory, so any
    /// shard's services copy their votes to it and resolve the positions it
    /// wins to its datacenter. Register every group it touches before the run.
    pub fn add_client<F>(
        &mut self,
        worker: usize,
        replica: usize,
        config: ClientConfig,
        make_actor: F,
    ) -> NodeId
    where
        F: FnOnce(Session) -> Box<dyn Actor<Msg> + Send>,
    {
        let shards = Arc::clone(&self.shards);
        self.add_driver(worker, replica, |node| {
            for directory in &shards.directories {
                directory.register_client(node, replica);
            }
            make_actor(Session::sharded(node, replica, shards, config))
        })
    }

    /// Add a raw driver actor on `worker`, placed at that shard's
    /// `replica` site; the closure receives the node id the actor will run
    /// as. A driver builds its own messages instead of running a
    /// [`Session`], and is registered only in `worker`'s shard: the other
    /// shards copy it no votes, which keeps a raw port that waits for the
    /// home's reply (the benchmark's wire actor, the raw test writers) free
    /// of traffic it would ignore.
    pub fn add_driver<F>(&mut self, worker: usize, replica: usize, make_actor: F) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Actor<Msg> + Send>,
    {
        let runtime = self
            .runtime
            .as_mut()
            .expect("actors must be added before run()");
        let expected = NodeId(runtime.node_count() as u32);
        self.shards.directories[worker].register_client(expected, replica);
        let site = SiteId((worker * self.config.topology.num_datacenters() + replica) as u32);
        let node = runtime.add_node(site, worker, make_actor(expected));
        assert_eq!(
            node, expected,
            "node ids are assigned densely in registration order"
        );
        node
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

    /// Verify replica agreement and one-copy serializability of everything
    /// every shard decided, per group — the check
    /// [`Cluster::verify`](crate::Cluster::verify) runs, once per shard.
    pub fn verify(&self) -> Result<Vec<(GroupId, CheckReport)>, Violation> {
        let mut reports = Vec::new();
        for shard in &self.shards.directories {
            reports.extend(verify_replica_set(shard)?);
        }
        Ok(reports)
    }

    /// Committed transactions recorded in the owning shard's replica-0 log
    /// for a group.
    pub fn committed_in_log(&self, group: GroupId) -> usize {
        self.shards
            .of(group)
            .core(0)
            .lock()
            .log(group)
            .map(|l| l.committed_transaction_count())
            .unwrap_or(0)
    }

    /// Read one item's currently committed value from the group home's
    /// store (as of the home's read position). Used by equivalence tests
    /// to compare final state against a simulation run.
    pub fn read_committed(&self, group: GroupId, key: KeyId, attr: AttrId) -> Option<String> {
        let core = self.home_core(group);
        let mut core = core.lock();
        let position = core.read_position(group);
        core.read(group, key, attr, position).ok().flatten()
    }

    /// Aggregate counters of every service-hosted commit engine across all
    /// shards, merged from the per-engine sinks at call time.
    pub fn service_commit_metrics(&self) -> RunMetrics {
        self.service_metrics.merged()
    }

    /// Expired remote reads and store versions reclaimed, summed over every
    /// shard's cores (harnesses fold these into run totals). The first is
    /// always zero, since no Transaction Service parks reads; it stays only
    /// because the `benchmark/` harness still reports
    /// `service.expired_reads`.
    pub fn service_side_counters(&self) -> (u64, u64) {
        let mut reclaimed = 0;
        for shard in &self.shards.directories {
            for core in shard.cores() {
                reclaimed += core.lock().reclaimed_version_count();
            }
        }
        (0, reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_wires_one_replica_set_per_worker() {
        let mut cluster = ParallelCluster::build(
            ParallelClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
                .with_workers(2)
                .with_rtt_scale(0.5),
        );
        assert_eq!(cluster.num_workers(), 2);
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
        let client = cluster.add_client(0, 2, ClientConfig::cp(), |mut session| {
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
}
