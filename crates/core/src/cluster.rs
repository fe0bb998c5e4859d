//! Cluster assembly: one body for both runtimes.
//!
//! A cluster is a set of *shards*, each a complete replica set — one
//! storage core and one [`TransactionService`] per datacenter of the
//! topology, wired by a [`Directory`] — owning a disjoint subset of the
//! transaction groups, all interning names through one [`SymbolTable`].
//! [`ShardedCluster`] defines once what every runtime offers: the build,
//! group registration and lookup, session clients, post-run verification
//! and counters. Each runtime adds only what its own clock has:
//! [`Cluster`] is the one-shard case on the deterministic simulation
//! (virtual time, crash / recovery, chaos replay, durable storage and
//! restart from disk); [`ParallelCluster`](crate::ParallelCluster) runs
//! one shard per worker thread on the wall clock.

use crate::batch::BatchConfig;
use crate::datacenter::RestartReport;
use crate::datacenter::{DatacenterCore, SharedCore};
use crate::directory::Directory;
use crate::metrics::{MetricsHub, RunMetrics};
use crate::msg::Msg;
use crate::service::TransactionService;
use crate::session::{ClientConfig, Session};
use crate::topology::Topology;
use parking_lot::RwLock;
use paxos::CommitProtocol;
use simnet::{
    Actor, ChaosEvent, ChaosSchedule, NetworkConfig, NodeId, SimDuration, SimTime, Simulation,
    SiteId,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use storage::{DcStorage, DurableConfig, StorageConfig, StorageError};
use walog::checker::{self, CheckReport, Violation};
use walog::{AttrId, GroupId, GroupLog, KeyId, LogPosition, SymbolTable, TxnId};

/// Configuration of a cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Datacenter layout and network behaviour.
    pub topology: Topology,
    /// Commit protocol every client uses (individual clients may override).
    pub protocol: CommitProtocol,
    /// Window/pipeline settings of the commit engines the Transaction
    /// Services host for the submitted commit route.
    pub batch: BatchConfig,
    /// Simulation seed (same seed ⇒ identical execution).
    pub seed: u64,
    /// Whether datacenters persist to disk ([`StorageConfig::InMemory`] by
    /// default). In durable mode each replica gets a `dc<replica>`
    /// subdirectory of the configured root.
    pub storage: StorageConfig,
}

impl ClusterConfig {
    /// A cluster with the given topology and protocol, seed 42.
    pub fn new(topology: Topology, protocol: CommitProtocol) -> Self {
        ClusterConfig {
            topology,
            protocol,
            batch: BatchConfig::default(),
            seed: 42,
            storage: StorageConfig::InMemory,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the service-hosted commit engines'
    /// window/pipeline settings.
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Builder-style switch for the durable storage plane.
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// The per-datacenter durable configuration (`dc<replica>` under the
    /// configured root), or `None` in in-memory mode.
    pub fn durable_config(&self, replica: usize) -> Option<DurableConfig> {
        match &self.storage {
            StorageConfig::InMemory => None,
            StorageConfig::Durable(cfg) => {
                let mut dc = cfg.clone();
                dc.dir = cfg.dir.join(format!("dc{replica}"));
                Some(dc)
            }
        }
    }
}

/// What [`Cluster::replay_chaos`] did to the cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosReplay {
    /// Faults applied (crashes, partitions, home moves; repairs and home
    /// moves that had no group to address are not counted).
    pub faults_applied: u64,
    /// Datacenter restarts that rebuilt state from snapshot + WAL (durable
    /// mode only).
    pub durable_restarts: u64,
    /// Restarts whose WAL ended in a torn partial record, tolerated by
    /// stopping replay at the last durable frame.
    pub torn_wal_tails: u64,
}

/// The node placement a cluster asks of its runtime, and nothing else:
/// its build places every shard's services, its clients join them.
pub(crate) trait NodePlacement {
    /// Register a site (one datacenter of one shard).
    fn add_site(&mut self, name: String) -> SiteId;
    /// Register `actor` at `site`, run by `worker`; returns its node id.
    fn add_node(
        &mut self,
        site: SiteId,
        worker: usize,
        actor: Box<dyn Actor<Msg> + Send>,
    ) -> NodeId;
    /// Nodes registered so far: the next node's id.
    fn node_count(&self) -> usize;
}

impl NodePlacement for Simulation<Msg> {
    fn add_site(&mut self, name: String) -> SiteId {
        Simulation::add_site(self, name)
    }

    fn add_node(&mut self, site: SiteId, _: usize, actor: Box<dyn Actor<Msg> + Send>) -> NodeId {
        Simulation::add_node(self, site, actor)
    }

    fn node_count(&self) -> usize {
        Simulation::node_count(self)
    }
}

/// The shards' replica sets and the shard owning each registered group,
/// shared by a cluster and its sessions: where a session looks a group's
/// replica set up. A single shard owns every group, registered or not.
pub(crate) struct Shards {
    /// One replica set per shard: its directory (services, cores, leader
    /// map).
    pub(crate) directories: Vec<Arc<Directory>>,
    /// Shard owning each registered group.
    owner: RwLock<HashMap<GroupId, usize>>,
}

impl Shards {
    /// Shards owning no group yet.
    pub(crate) fn new(directories: Vec<Arc<Directory>>) -> Arc<Shards> {
        let owner = RwLock::default();
        Arc::new(Shards { directories, owner })
    }

    /// The shard owning a group.
    pub(crate) fn shard_of(&self, group: GroupId) -> usize {
        if self.directories.len() == 1 {
            return 0;
        }
        *self
            .owner
            .read()
            .get(&group)
            .expect("group was registered with register_group")
    }

    /// The directory of the shard owning a group.
    pub(crate) fn of(&self, group: GroupId) -> &Directory {
        &self.directories[self.shard_of(group)]
    }

    /// The cluster-wide symbol table every shard interns through.
    pub(crate) fn symbols(&self) -> &Arc<SymbolTable> {
        self.directories[0].symbols()
    }

    /// Every shard's storage cores, shard by shard, in replica order.
    fn cores(&self) -> Vec<SharedCore> {
        self.directories.iter().flat_map(|d| d.cores()).collect()
    }
}

/// A cluster on the runtime `R`: its shards, the groups they own and the
/// commit engines' metrics, with everything both runtimes offer. Built
/// through [`Cluster::build`] or
/// [`ParallelCluster::build`](crate::ParallelCluster::build).
pub struct ShardedCluster<R> {
    pub(crate) runtime: R,
    /// Reaches `R`'s node placement. Taken at build, where `R` is known,
    /// so the methods every runtime shares need no bound on `R` and code
    /// generic over the runtime outside this crate can call them.
    placement: fn(&mut R) -> &mut dyn NodePlacement,
    config: ClusterConfig,
    pub(crate) shards: Arc<Shards>,
    /// One sink per service-hosted commit engine (window occupancy,
    /// pipeline depth, split/stale counters), merged at run end: engines
    /// on different workers must never share a mutable aggregate.
    service_metrics: MetricsHub,
}

/// A multi-datacenter cluster on the deterministic simulation: one shard,
/// virtual time, failure injection and (optionally) durable storage.
pub type Cluster = ShardedCluster<Simulation<Msg>>;

impl<R> ShardedCluster<R> {
    /// Build `shards` replica sets of `config` on the runtime `start`
    /// makes from their network ([`Topology::sharded_network_config`] with
    /// `rtt_scale`) and the seed. Per shard and datacenter of the
    /// topology: a site holding a storage core (durable when the config
    /// says so) and a Transaction Service hosting a commit engine for the
    /// submitted route, configured from [`ClusterConfig::batch`] and the
    /// protocol, run by the shard's worker.
    pub(crate) fn assemble(
        config: ClusterConfig,
        shards: usize,
        rtt_scale: f64,
        start: impl FnOnce(NetworkConfig, u64) -> R,
        placement: fn(&mut R) -> &mut dyn NodePlacement,
    ) -> Self {
        let topology = &config.topology;
        let network = topology.sharded_network_config(shards, rtt_scale);
        let mut runtime = start(network, config.seed);
        let symbols = SymbolTable::shared();
        let service_metrics = MetricsHub::new();
        let mut commit_config = ClientConfig::for_protocol(config.protocol);
        commit_config.message_timeout = topology.message_timeout;
        let mut directories = Vec::with_capacity(shards);
        for shard in 0..shards {
            let directory = Directory::with_symbols(Arc::clone(&symbols));
            for (replica, region) in topology.regions().iter().enumerate() {
                let name = format!("s{shard}-{region}-{replica}");
                let core: SharedCore = DatacenterCore::shared(name.clone(), replica);
                let service = TransactionService::new(
                    replica,
                    core.clone(),
                    directory.clone(),
                    topology.message_timeout,
                )
                .with_commit_engine(commit_config.clone(), config.batch.clone())
                .with_commit_metrics(service_metrics.register());
                if let Some(durable) = config.durable_config(replica) {
                    let storage = DcStorage::open(durable)
                        .expect("durable storage directory must be creatable");
                    core.lock().attach_storage(storage);
                }
                let place = placement(&mut runtime);
                let site = place.add_site(name);
                let node = place.add_node(site, shard, Box::new(service));
                directory.register_datacenter(node, core);
            }
            directories.push(directory);
        }
        ShardedCluster {
            runtime,
            placement,
            config,
            shards: Shards::new(directories),
            service_metrics,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster-wide symbol table.
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(self.shards.symbols())
    }

    /// Number of shards (worker threads on the parallel runtime; the
    /// simulation has one).
    pub fn num_shards(&self) -> usize {
        self.shards.directories.len()
    }

    /// Datacenters per shard.
    pub fn num_datacenters(&self) -> usize {
        self.config.topology.num_datacenters()
    }

    /// The default client configuration for this cluster's protocol, using
    /// the topology's message timeout.
    pub fn client_config(&self) -> ClientConfig {
        let mut cfg = ClientConfig::for_protocol(self.config.protocol);
        cfg.message_timeout = self.config.topology.message_timeout;
        cfg
    }

    /// Intern a group name and assign it to a shard (round-robin over the
    /// shards in first-registration order). Returns its cluster-wide id.
    /// A single shard owns every group without it.
    pub fn register_group(&mut self, name: &str) -> GroupId {
        let group = self.shards.symbols().group(name);
        let mut owner = self.shards.owner.write();
        let next = owner.len() % self.num_shards();
        owner.entry(group).or_insert(next);
        group
    }

    /// The shard owning a group.
    pub fn shard_of_group(&self, group: GroupId) -> usize {
        self.shards.shard_of(group)
    }

    /// The Transaction Service node commit requests for `group` go to: the
    /// group home's service within the owning shard.
    pub fn service_for_group(&self, group: GroupId) -> NodeId {
        let shard = self.shards.of(group);
        shard.service_node(shard.group_home(group))
    }

    /// The Transaction Service node of `replica` within the shard owning
    /// `group`: any replica of the owning shard serves the group's
    /// watermark reads.
    pub fn service_for_group_at(&self, group: GroupId, replica: usize) -> NodeId {
        self.shards.of(group).service_node(replica)
    }

    /// The storage core of the group home's datacenter within the owning
    /// shard.
    pub fn home_core(&self, group: GroupId) -> SharedCore {
        let shard = self.shards.of(group);
        shard.core(shard.group_home(group))
    }

    /// The storage core of `replica` within the shard owning `group`.
    pub fn core_for_group_at(&self, group: GroupId, replica: usize) -> SharedCore {
        self.shards.of(group).core(replica)
    }

    /// Add a client on `worker`, living in `replica`'s datacenter: a
    /// [`Session`] that reaches each group through the directory of the
    /// shard owning it, handed to `make_actor` to embed. The client is
    /// registered at `replica` in **every** shard's directory, so any
    /// shard's services copy their votes to it and resolve the positions it
    /// wins to its datacenter. With more than one shard, register every
    /// group it touches before the run.
    pub fn add_session<F>(
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
        self.place(worker, replica, true, |node| {
            make_actor(Session::sharded(node, replica, shards, config))
        })
    }

    /// Place the actor `make_actor` builds for its node id on `worker`, at
    /// `replica`'s site of that worker's shard, registered as a client at
    /// `replica` in every shard's directory or in the worker's only.
    pub(crate) fn place<F>(
        &mut self,
        worker: usize,
        replica: usize,
        every_shard: bool,
        make_actor: F,
    ) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Actor<Msg> + Send>,
    {
        let site = SiteId((worker * self.num_datacenters() + replica) as u32);
        let place = (self.placement)(&mut self.runtime);
        let node = NodeId(place.node_count() as u32);
        let directories = &self.shards.directories;
        let shards = if every_shard {
            &directories[..]
        } else {
            std::slice::from_ref(&directories[worker])
        };
        for directory in shards {
            directory.register_client(node, replica);
        }
        let placed = place.add_node(site, worker, make_actor(node));
        assert_eq!(
            placed, node,
            "node ids are assigned densely in registration order"
        );
        node
    }

    /// All transaction groups any datacenter has a log for.
    pub fn groups(&self) -> Vec<GroupId> {
        logged_groups(&self.shards.cores())
    }

    /// Snapshot every datacenter's log for one group in the shard owning
    /// it (entries are shared with the live logs, not deep-copied).
    pub fn replica_logs(&self, group: GroupId) -> Vec<GroupLog> {
        replica_logs(self.shards.of(group), group)
    }

    /// Verify the paper's correctness properties over everything every
    /// shard decided: replica agreement (R1) and one-copy serializability
    /// (Definition 1 / L1–L3) of the merged history, per transaction group.
    /// Agreement also covers positions some replicas truncated away:
    /// replicas at an equal gap-free prefix must index equal committed
    /// transaction sets through it. Returns the check report of every
    /// group.
    pub fn verify(&self) -> Result<Vec<(GroupId, CheckReport)>, Violation> {
        let mut reports = Vec::new();
        for directory in &self.shards.directories {
            for group in logged_groups(&directory.cores()) {
                let logs = replica_logs(directory, group);
                let refs: Vec<&GroupLog> = logs.iter().collect();
                let report = checker::check_all(&refs)?;
                check_committed_sets(directory, group)?;
                reports.push((group, report));
            }
        }
        Ok(reports)
    }

    /// Total committed transactions recorded in a replica's log for a group
    /// (within the shard owning it).
    pub fn committed_in_log_id(&self, replica: usize, group: GroupId) -> usize {
        self.core_for_group_at(group, replica)
            .lock()
            .log(group)
            .map(|l| l.committed_transaction_count())
            .unwrap_or(0)
    }

    /// Decided non-noop log entries (= Paxos instances that committed work)
    /// in a replica's log for a group. Dividing
    /// [`Self::committed_in_log_id`] by this gives the batching/
    /// combination amortization: committed transactions per Paxos instance.
    pub fn decided_instances_id(&self, replica: usize, group: GroupId) -> usize {
        self.core_for_group_at(group, replica)
            .lock()
            .log(group)
            .map(|l| l.iter().filter(|(_, e)| !e.is_noop()).count())
            .unwrap_or(0)
    }

    /// Read one item's currently committed value from the group home's
    /// store (as of the home's read position).
    pub fn read_committed(&self, group: GroupId, key: KeyId, attr: AttrId) -> Option<String> {
        let core = self.home_core(group);
        let mut core = core.lock();
        let position = core.read_position(group);
        core.read(group, key, attr, position).ok().flatten()
    }

    /// Per-core storage-plane counters, shard by shard in replica order
    /// (`None` entries for in-memory datacenters).
    pub fn storage_stats(&self) -> Vec<Option<storage::StorageStats>> {
        let cores = self.shards.cores();
        cores
            .iter()
            .map(|core| core.lock().storage_stats())
            .collect()
    }

    /// Per-core counts of expired remote reads, shard by shard in replica
    /// order: all zero, since no Transaction Service parks reads. Kept only
    /// because the `benchmark/` harness still reports
    /// `service.expired_reads`.
    pub fn expired_read_counts(&self) -> Vec<u64> {
        vec![0; self.num_shards() * self.num_datacenters()]
    }

    /// Per-core counts of multi-version store versions reclaimed by the
    /// apply-time GC behind the read-lease watermark, shard by shard in
    /// replica order. Harnesses fold these into
    /// [`RunMetrics::reclaimed_versions`](crate::RunMetrics).
    pub fn reclaimed_version_counts(&self) -> Vec<u64> {
        let cores = self.shards.cores();
        let reclaimed = |core: &SharedCore| core.lock().reclaimed_version_count();
        cores.iter().map(reclaimed).collect()
    }

    /// The aggregate counters the service-hosted commit engines recorded
    /// (window occupancy, pipeline depth, batch splits, stale-member
    /// aborts), merged over every shard and replica. Harnesses fold this
    /// into their run totals after a submitted-route run.
    pub fn service_commit_metrics(&self) -> RunMetrics {
        self.service_metrics.merged()
    }
}

impl Cluster {
    /// Build the cluster: one site, one storage core and one Transaction
    /// Service per datacenter in the topology, on the simulation.
    pub fn build(config: ClusterConfig) -> Self {
        ShardedCluster::assemble(config, 1, 1.0, Simulation::new, |sim| sim)
    }

    /// The directory (services, cores, client placement).
    pub fn directory(&self) -> Arc<Directory> {
        Arc::clone(&self.shards.directories[0])
    }

    /// The Transaction Service node of a replica.
    pub fn service_node(&self, replica: usize) -> NodeId {
        self.shards.directories[0].service_node(replica)
    }

    /// The storage core of a replica.
    pub fn core(&self, replica: usize) -> SharedCore {
        self.shards.directories[0].core(replica)
    }

    /// Add a client actor homed in `replica`'s datacenter. The closure
    /// receives the node id the actor will run as (so it can construct its
    /// embedded [`crate::Session`]).
    pub fn add_client<F>(&mut self, replica: usize, make_actor: F) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Actor<Msg> + Send>,
    {
        self.place(0, replica, true, make_actor)
    }

    /// Direct access to the simulation (running, failure injection, stats).
    pub fn sim(&self) -> &Simulation<Msg> {
        &self.runtime
    }

    /// Mutable access to the simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<Msg> {
        &mut self.runtime
    }

    /// Run until no events remain (capped to guard against livelock).
    pub fn run_to_completion(&mut self) -> u64 {
        self.runtime.run_until_idle_capped(200_000_000)
    }

    /// Run for a span of virtual time.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        self.runtime.run_for(span)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.runtime.now()
    }

    /// Take a whole datacenter offline (its service stops answering and all
    /// messages to/from its site are dropped).
    pub fn crash_datacenter(&mut self, replica: usize) {
        self.runtime.crash_site(SiteId(replica as u32));
    }

    /// Bring a datacenter back online.
    pub fn recover_datacenter(&mut self, replica: usize) {
        self.runtime.recover_site(SiteId(replica as u32));
    }

    /// Crash-restart a datacenter's state from disk (durable mode only):
    /// wipe what a process crash loses and rebuild from the latest group
    /// snapshots plus the WAL tail. Asserts the rebuilt state fingerprint
    /// matches the pre-crash one — with persist-before-ack nothing
    /// acknowledged may be lost. Call between
    /// [`Cluster::crash_datacenter`] and [`Cluster::recover_datacenter`].
    ///
    /// Panics when the cluster runs [`StorageConfig::InMemory`].
    pub fn restart_datacenter_from_disk(
        &mut self,
        replica: usize,
    ) -> Result<RestartReport, StorageError> {
        let cfg = self
            .config
            .durable_config(replica)
            .expect("restart_datacenter_from_disk requires StorageConfig::Durable");
        let core = self.core(replica);
        let mut core = core.lock();
        let before = core.state_fingerprint();
        let report = core.restart_from_disk(&cfg)?;
        let after = core.state_fingerprint();
        assert_eq!(
            before, after,
            "restart-from-disk must reproduce the acknowledged state exactly \
             (replica {replica}: {report:?})"
        );
        Ok(report)
    }

    /// Replay a fault schedule interleaved with the running workload: run
    /// the simulation up to each event's due time, apply it, continue (the
    /// caller then drains with [`Cluster::run_to_completion`]).
    ///
    /// [`ChaosEvent::MoveHome`] re-homes `groups[group % groups.len()]`, so
    /// `groups` must be interned up front: a group has no log — and is not
    /// in [`ShardedCluster::groups`] — until its first commit. In durable
    /// mode a crash lands mid-append (a torn partial frame at the victim's
    /// WAL tail) and the site's state is rebuilt from disk before it
    /// rejoins ([`Cluster::restart_datacenter_from_disk`]).
    pub fn replay_chaos(
        &mut self,
        schedule: &mut ChaosSchedule,
        groups: &[GroupId],
    ) -> ChaosReplay {
        let durable = self.config.storage.is_durable();
        let replicas = self.num_datacenters();
        let mut replay = ChaosReplay::default();
        while let Some(due) = schedule.next_due() {
            self.runtime.run_until(due);
            for event in schedule.pop_due(due) {
                match event {
                    ChaosEvent::CrashSite(site) if durable => {
                        self.core(site.0 as usize).lock().inject_torn_wal_tail();
                    }
                    ChaosEvent::RecoverSite(site) if durable => {
                        let report = self
                            .restart_datacenter_from_disk(site.0 as usize)
                            .expect("durable restart must rebuild from snapshot + WAL");
                        replay.durable_restarts += 1;
                        replay.torn_wal_tails += u64::from(report.torn_tail);
                    }
                    ChaosEvent::MoveHome { group, replica } => {
                        if groups.is_empty() {
                            continue;
                        }
                        self.shards.directories[0]
                            .set_group_home(groups[group % groups.len()], replica % replicas);
                    }
                    _ => {}
                }
                ChaosSchedule::apply_network(event, &mut self.runtime);
                replay.faults_applied += u64::from(event.is_fault());
            }
        }
        replay
    }

    /// Total committed transactions recorded in a replica's log for a named
    /// group (used by experiments to cross-check client-side metrics).
    /// Returns 0 for a group name that was never interned.
    pub fn committed_in_log(&self, replica: usize, group: &str) -> usize {
        self.symbols()
            .try_group(group)
            .map(|id| self.committed_in_log_id(replica, id))
            .unwrap_or(0)
    }
}

/// Every group any of `cores` has a log for.
fn logged_groups(cores: &[SharedCore]) -> Vec<GroupId> {
    let mut groups = BTreeSet::new();
    for core in cores {
        for (group, _) in core.lock().logs() {
            groups.insert(group);
        }
    }
    groups.into_iter().collect()
}

/// Every replica's log for one group, in replica order.
fn replica_logs(directory: &Directory, group: GroupId) -> Vec<GroupLog> {
    directory
        .cores()
        .iter()
        .map(|core| core.lock().log(group).cloned().unwrap_or_default())
        .collect()
}

/// Replicas at an equal gap-free prefix of `group` hold equal committed-id
/// sets through it.
fn check_committed_sets(directory: &Directory, group: GroupId) -> Result<(), Violation> {
    let mut by_prefix: BTreeMap<LogPosition, BTreeSet<TxnId>> = BTreeMap::new();
    for core in directory.cores() {
        let core = core.lock();
        let prefix = core.read_position(group);
        let ids = core.committed_through_prefix(group);
        match by_prefix.entry(prefix) {
            Entry::Vacant(slot) => {
                slot.insert(ids);
            }
            Entry::Occupied(seen) => {
                if let Some(txn) = seen.get().symmetric_difference(&ids).next() {
                    return Err(Violation::DivergentCommittedSets { prefix, txn: *txn });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn build_creates_one_service_per_datacenter() {
        let cluster = Cluster::build(ClusterConfig::new(
            Topology::from_name("VOC").unwrap(),
            CommitProtocol::PaxosCp,
        ));
        assert_eq!(cluster.num_datacenters(), 3);
        assert_eq!(cluster.sim().node_count(), 3);
        assert_eq!(cluster.directory().num_replicas(), 3);
        assert_eq!(cluster.groups().len(), 0);
        assert!(cluster.verify().unwrap().is_empty());
        assert_eq!(cluster.committed_in_log(0, "g"), 0);
    }

    /// The simulation is the one-shard case: every group-scoped accessor
    /// answers from its one replica set, registered or not, and a session
    /// placed through the shared method joins that set at its replica.
    #[test]
    fn a_simulated_cluster_is_one_shard_owning_every_group() {
        struct Idle;
        impl Actor<Msg> for Idle {
            fn on_message(&mut self, _: &mut simnet::Context<Msg>, _: NodeId, _: Msg) {}
        }
        let mut cluster = Cluster::build(ClusterConfig::new(
            Topology::from_name("VOC").unwrap(),
            CommitProtocol::PaxosCp,
        ));
        let registered = cluster.register_group("g0");
        let unregistered = cluster.symbols().group("g1");
        let directory = cluster.directory();
        directory.set_group_home(unregistered, 2);
        for group in [registered, unregistered] {
            assert_eq!(cluster.shard_of_group(group), 0);
            for replica in 0..cluster.num_datacenters() {
                let service = cluster.service_for_group_at(group, replica);
                assert_eq!(service, cluster.service_node(replica));
                let core = cluster.core_for_group_at(group, replica);
                assert!(Arc::ptr_eq(&core, &cluster.core(replica)));
            }
            let home = cluster.core(directory.group_home(group));
            assert!(Arc::ptr_eq(&cluster.home_core(group), &home));
            assert_eq!(
                cluster.service_for_group(group),
                cluster.service_node(directory.group_home(group))
            );
        }
        let client = cluster.add_session(0, 1, cluster.client_config(), |mut session| {
            session.begin_id(SimTime::ZERO, unregistered);
            Box::new(Idle)
        });
        assert_eq!(client, NodeId(3), "placed after the three services");
        assert_eq!(directory.replica_of_client(client), Some(1));
        assert_eq!(cluster.core(1).lock().read_lease_count(), 1);
    }

    #[test]
    fn client_config_follows_protocol_and_timeout() {
        let cluster = Cluster::build(ClusterConfig::new(
            Topology::vvv(),
            CommitProtocol::BasicPaxos,
        ));
        let cfg = cluster.client_config();
        assert_eq!(cfg.protocol, CommitProtocol::BasicPaxos);
        assert_eq!(cfg.message_timeout, SimDuration::from_secs(2));
    }
}
