//! Multi-core cluster bring-up: shard the data plane over worker threads.
//!
//! [`ParallelCluster`] assembles the same pieces as
//! [`Cluster`](crate::Cluster) — one storage core and one
//! [`TransactionService`] per datacenter, a [`Directory`] wiring them
//! together — but on the [`simnet::ParallelRuntime`] instead of the
//! deterministic simulation, and **once per worker thread**: each worker
//! owns a complete replica set (a *shard*) that leads a disjoint subset of
//! transaction groups. A group's entire commit pipeline — the clients'
//! requests, the service-hosted [`GroupCommitter`](crate::GroupCommitter),
//! the Paxos acceptors, the replica logs — lives on its shard's worker, so
//! consensus traffic never crosses threads; only driver→service commit
//! requests and replies do (over the runtime's bounded channels).
//!
//! This is the sharding the paper's data model promises (§2.1: transaction
//! groups are independent units of consistency) projected onto cores:
//! adding a worker adds a full set of group pipelines. Protocol code is
//! untouched — the services and committers are byte-for-byte the actors
//! the simulation runs; only the harness differs.
//!
//! Every shard keeps its own [`Directory`] (its three services, its
//! cores), but all shards intern names through one cluster-wide
//! [`SymbolTable`], so group/key/attribute ids — and therefore shard
//! routing — agree across workers.

use crate::batch::BatchConfig;
use crate::datacenter::{DatacenterCore, SharedCore};
use crate::directory::Directory;
use crate::metrics::{MetricsHub, RunMetrics};
use crate::msg::Msg;
use crate::service::TransactionService;
use crate::session::ClientConfig;
use crate::topology::Topology;
use paxos::CommitProtocol;
use simnet::{
    Actor, LatencyMatrix, NetworkConfig, NodeId, ParallelReport, ParallelRuntime, SimDuration,
    SiteId,
};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use walog::checker::{self, CheckReport, Violation};
use walog::{AttrId, GroupId, GroupLog, KeyId, SymbolTable};

/// Configuration of a sharded parallel cluster.
#[derive(Clone, Debug)]
pub struct ParallelClusterConfig {
    /// Datacenter layout each shard replicates (regions + RTTs).
    pub topology: Topology,
    /// Commit protocol of the service-hosted engines.
    pub protocol: CommitProtocol,
    /// Window/pipeline settings of the service-hosted commit engines.
    pub batch: BatchConfig,
    /// Whether the services run the orphaned-position janitor.
    pub janitor: bool,
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
            janitor: true,
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

    /// Builder-style janitor switch.
    pub fn with_janitor(mut self, enabled: bool) -> Self {
        self.janitor = enabled;
        self
    }
}

/// One worker's replica set: its directory (services, cores, leader map).
struct Shard {
    directory: Arc<Directory>,
}

/// A sharded multi-core cluster on the parallel runtime.
pub struct ParallelCluster {
    config: ParallelClusterConfig,
    runtime: Option<ParallelRuntime<Msg>>,
    symbols: Arc<SymbolTable>,
    shards: Vec<Shard>,
    /// Shard owning each registered group.
    group_shard: HashMap<GroupId, usize>,
    /// Groups in registration order.
    groups: Vec<GroupId>,
    service_metrics: MetricsHub,
}

impl ParallelCluster {
    /// Build the cluster: `workers` shards, each with one site, one
    /// storage core and one Transaction Service per datacenter of the
    /// topology, all interning through one shared symbol table.
    pub fn build(config: ParallelClusterConfig) -> Self {
        let mut runtime: ParallelRuntime<Msg> =
            ParallelRuntime::new(network_config(&config), config.workers, config.seed);
        let symbols = SymbolTable::shared();
        let service_metrics = MetricsHub::new();
        let mut commit_config = ClientConfig::for_protocol(config.protocol);
        commit_config.message_timeout = config.topology.message_timeout;
        let mut shards = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let directory = Directory::with_symbols(Arc::clone(&symbols));
            for (replica, region) in config.topology.regions().iter().enumerate() {
                let name = format!("w{worker}-{region}-{replica}");
                let site = runtime.add_site(name.clone());
                let core: SharedCore = DatacenterCore::shared(name, replica);
                let service = TransactionService::new(
                    replica,
                    core.clone(),
                    directory.clone(),
                    config.topology.message_timeout,
                )
                .with_commit_engine(commit_config.clone(), config.batch.clone())
                .with_commit_metrics(service_metrics.register())
                .with_janitor(config.janitor);
                let node = runtime.add_node(site, worker, Box::new(service));
                directory.register_datacenter(node, core);
            }
            shards.push(Shard { directory });
        }
        ParallelCluster {
            config,
            runtime: Some(runtime),
            symbols,
            shards,
            group_shard: HashMap::new(),
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
        Arc::clone(&self.symbols)
    }

    /// Number of worker threads (= shards).
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// Datacenters per shard.
    pub fn num_datacenters(&self) -> usize {
        self.config.topology.num_datacenters()
    }

    /// Intern a group name and assign it to a shard (round-robin over the
    /// workers in registration order). Returns its cluster-wide id.
    pub fn register_group(&mut self, name: &str) -> GroupId {
        let group = self.symbols.group(name);
        let shard = self.groups.len() % self.shards.len();
        self.group_shard.entry(group).or_insert(shard);
        self.groups.push(group);
        group
    }

    /// The groups registered so far, in registration order.
    pub fn groups(&self) -> &[GroupId] {
        &self.groups
    }

    /// The shard (worker) owning a registered group.
    pub fn shard_of_group(&self, group: GroupId) -> usize {
        *self
            .group_shard
            .get(&group)
            .expect("group was registered with register_group")
    }

    /// The Transaction Service node commit requests for `group` go to: the
    /// group home's service within the owning shard.
    pub fn service_for_group(&self, group: GroupId) -> NodeId {
        let shard = &self.shards[self.shard_of_group(group)];
        shard
            .directory
            .service_node(shard.directory.group_home(group))
    }

    /// The storage core of the group home's datacenter within the owning
    /// shard (drivers refresh read positions from it).
    pub fn home_core(&self, group: GroupId) -> SharedCore {
        let shard = &self.shards[self.shard_of_group(group)];
        shard.directory.core(shard.directory.group_home(group))
    }

    /// The Transaction Service node of `replica` within the shard owning
    /// `group`. Snapshot-read harnesses target non-home replicas with this
    /// — any replica of the owning shard can serve the group's watermark
    /// reads, which is what the scale-out read plane measures.
    pub fn service_for_group_at(&self, group: GroupId, replica: usize) -> NodeId {
        self.shards[self.shard_of_group(group)]
            .directory
            .service_node(replica)
    }

    /// The storage core of `replica` within the shard owning `group`
    /// (snapshot-read harnesses refresh watermarks from — and hold read
    /// leases on — the serving replica, not just the home).
    pub fn core_for_group_at(&self, group: GroupId, replica: usize) -> SharedCore {
        self.shards[self.shard_of_group(group)]
            .directory
            .core(replica)
    }

    /// Add a driver actor on `worker`, placed at that shard's `replica`
    /// site. The closure receives the node id the actor will run as.
    pub fn add_driver<F>(&mut self, worker: usize, replica: usize, make_actor: F) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Actor<Msg> + Send>,
    {
        let runtime = self
            .runtime
            .as_mut()
            .expect("drivers must be added before run()");
        let expected = NodeId(runtime.node_count() as u32);
        self.shards[worker]
            .directory
            .register_client(expected, replica);
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

    /// Every group any shard has a log for (registered or recovered).
    fn logged_groups(&self, shard: &Shard) -> Vec<GroupId> {
        let mut groups = BTreeSet::new();
        for core in shard.directory.cores() {
            for (group, _) in core.lock().logs() {
                groups.insert(group);
            }
        }
        groups.into_iter().collect()
    }

    /// Verify replica agreement and one-copy serializability of everything
    /// every shard decided, per group (same checker the simulation harness
    /// runs after every experiment).
    pub fn verify(&self) -> Result<Vec<(GroupId, CheckReport)>, Violation> {
        let mut reports = Vec::new();
        for shard in &self.shards {
            for group in self.logged_groups(shard) {
                let logs: Vec<GroupLog> = shard
                    .directory
                    .cores()
                    .iter()
                    .map(|core| core.lock().log(group).cloned().unwrap_or_default())
                    .collect();
                let refs: Vec<&GroupLog> = logs.iter().collect();
                reports.push((group, checker::check_all(&refs)?));
            }
        }
        Ok(reports)
    }

    /// Committed transactions recorded in the owning shard's replica-0 log
    /// for a group.
    pub fn committed_in_log(&self, group: GroupId) -> usize {
        self.shards[self.shard_of_group(group)]
            .directory
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
        for shard in &self.shards {
            for core in shard.directory.cores() {
                reclaimed += core.lock().reclaimed_version_count();
            }
        }
        (0, reclaimed)
    }
}

/// Build the runtime's network configuration: one site per (shard,
/// datacenter) pair, with every latency scaled by
/// [`ParallelClusterConfig::rtt_scale`]. Latencies between shards follow
/// the same region-to-region RTTs as within a shard — two workers'
/// Virginia sites are two machines in the same region, not one machine.
fn network_config(config: &ParallelClusterConfig) -> NetworkConfig {
    let scale = |d: SimDuration| -> SimDuration {
        SimDuration::from_micros(((d.as_micros() as f64 * config.rtt_scale) as u64).max(1))
    };
    let mut latency = LatencyMatrix::new(
        scale(SimDuration::from_micros(250)),
        scale(SimDuration::from_millis(45)),
    );
    let regions = config.topology.regions();
    let d = regions.len();
    let sites = config.workers * d;
    for i in 0..sites {
        for j in (i + 1)..sites {
            let rtt = regions[i % d].rtt_to(regions[j % d]);
            latency.set_rtt(SiteId(i as u32), SiteId(j as u32), scale(rtt));
        }
    }
    NetworkConfig {
        latency,
        loss_probability: config.topology.loss_probability,
        jitter: config.topology.jitter,
        // The wall-clock runtime ignores chaos policies (see
        // `simnet::ParallelRuntime`): deterministic chaos runs belong to
        // the simulation, which the equivalence tests compare against.
        chaos: simnet::ChaosConfig::default(),
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

    #[test]
    fn scaled_network_keeps_region_shape() {
        let config = ParallelClusterConfig::new(
            Topology::from_name("VOC").unwrap(),
            CommitProtocol::PaxosCp,
        )
        .with_workers(2)
        .with_rtt_scale(0.1);
        let net = network_config(&config);
        // Within shard 0: Virginia (site 0) to Oregon (site 1) is a 90 ms
        // RTT scaled to 9 ms, i.e. 4.5 ms one way.
        assert_eq!(
            net.latency.one_way(SiteId(0), SiteId(1)),
            SimDuration::from_micros(4_500)
        );
        // Across shards, same region (Virginia of shard 0 and of shard 1):
        // the intra-region 1.5 ms RTT scaled to 150 us, 75 us one way.
        assert_eq!(
            net.latency.one_way(SiteId(0), SiteId(3)),
            SimDuration::from_micros(75)
        );
    }
}
