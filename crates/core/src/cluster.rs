//! Cluster assembly: wire datacenters, services and clients into one
//! deterministic simulation, with failure injection and post-run
//! verification.

use crate::batch::BatchConfig;
use crate::datacenter::RestartReport;
use crate::datacenter::{DatacenterCore, SharedCore};
use crate::directory::Directory;
use crate::metrics::{MetricsHub, RunMetrics};
use crate::msg::Msg;
use crate::service::TransactionService;
use crate::session::ClientConfig;
use crate::topology::Topology;
use paxos::CommitProtocol;
use simnet::{Actor, ChaosEvent, ChaosSchedule, NodeId, SimDuration, SimTime, Simulation};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use storage::{DcStorage, DurableConfig, StorageConfig, StorageError};
use walog::checker::{self, CheckReport, Violation};
use walog::{GroupId, GroupLog, LogPosition, SymbolTable, TxnId};

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
    /// Whether the services run the orphaned-position janitor.
    pub janitor: bool,
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
            janitor: true,
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

    /// Builder-style switch for the services' orphaned-position janitor.
    pub fn with_janitor(mut self, enabled: bool) -> Self {
        self.janitor = enabled;
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

/// A running multi-datacenter cluster: the simulation, the datacenter
/// storage cores and the lookup directory (which also carries the shared
/// symbol table every name is interned through).
pub struct Cluster {
    sim: Simulation<Msg>,
    directory: Arc<Directory>,
    config: ClusterConfig,
    service_nodes: Vec<NodeId>,
    /// One sink per service-hosted commit engine (window occupancy,
    /// pipeline depth, split/stale counters), registered in a
    /// [`MetricsHub`] and merged at run end — the same aggregation shape
    /// the parallel runtime uses, where per-worker sinks must never share
    /// a mutable aggregate.
    service_metrics: MetricsHub,
}

impl Cluster {
    /// Build the cluster: one site, one storage core and one Transaction
    /// Service per datacenter in the topology. Every service hosts a commit
    /// engine for the submitted route, configured from
    /// [`ClusterConfig::batch`] and the cluster's protocol.
    pub fn build(config: ClusterConfig) -> Self {
        let mut sim: Simulation<Msg> =
            Simulation::new(config.topology.network_config(), config.seed);
        let directory = Directory::new();
        let mut service_nodes = Vec::new();
        let service_metrics = MetricsHub::new();
        let mut commit_config = ClientConfig::for_protocol(config.protocol);
        commit_config.message_timeout = config.topology.message_timeout;
        for (replica, region) in config.topology.regions().iter().enumerate() {
            let site = sim.add_site(format!("{region}-{replica}"));
            let core: SharedCore = DatacenterCore::shared(format!("{region}-{replica}"), replica);
            let service = TransactionService::new(
                replica,
                core.clone(),
                directory.clone(),
                config.topology.message_timeout,
            )
            .with_commit_engine(commit_config.clone(), config.batch.clone())
            .with_commit_metrics(service_metrics.register())
            .with_janitor(config.janitor);
            if let Some(durable) = config.durable_config(replica) {
                let storage =
                    DcStorage::open(durable).expect("durable storage directory must be creatable");
                core.lock().attach_storage(storage);
            }
            let node = sim.add_node(site, Box::new(service));
            directory.register_datacenter(node, core);
            service_nodes.push(node);
        }
        Cluster {
            sim,
            directory,
            config,
            service_nodes,
            service_metrics,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared directory (services, cores, client placement).
    pub fn directory(&self) -> Arc<Directory> {
        self.directory.clone()
    }

    /// The cluster-wide symbol table.
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::clone(self.directory.symbols())
    }

    /// Number of datacenters.
    pub fn num_datacenters(&self) -> usize {
        self.service_nodes.len()
    }

    /// The Transaction Service node of a replica.
    pub fn service_node(&self, replica: usize) -> NodeId {
        self.service_nodes[replica]
    }

    /// The storage core of a replica.
    pub fn core(&self, replica: usize) -> SharedCore {
        self.directory.core(replica)
    }

    /// The default client configuration for this cluster's protocol, using
    /// the topology's message timeout.
    pub fn client_config(&self) -> ClientConfig {
        let mut cfg = ClientConfig::for_protocol(self.config.protocol);
        cfg.message_timeout = self.config.topology.message_timeout;
        cfg
    }

    /// Add a client actor homed in `replica`'s datacenter. The closure
    /// receives the node id the actor will run as (so it can construct its
    /// embedded [`crate::Session`]).
    pub fn add_client<F>(&mut self, replica: usize, make_actor: F) -> NodeId
    where
        F: FnOnce(NodeId) -> Box<dyn Actor<Msg>>,
    {
        let expected = NodeId(self.sim.node_count() as u32);
        self.directory.register_client(expected, replica);
        let actor = make_actor(expected);
        let node = self.sim.add_node(simnet::SiteId(replica as u32), actor);
        assert_eq!(
            node, expected,
            "node ids are assigned densely in registration order"
        );
        node
    }

    /// Direct access to the simulation (running, failure injection, stats).
    pub fn sim(&self) -> &Simulation<Msg> {
        &self.sim
    }

    /// Mutable access to the simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<Msg> {
        &mut self.sim
    }

    /// Run until no events remain (capped to guard against livelock).
    pub fn run_to_completion(&mut self) -> u64 {
        self.sim.run_until_idle_capped(200_000_000)
    }

    /// Run for a span of virtual time.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        self.sim.run_for(span)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Take a whole datacenter offline (its service stops answering and all
    /// messages to/from its site are dropped).
    pub fn crash_datacenter(&mut self, replica: usize) {
        self.sim.crash_site(simnet::SiteId(replica as u32));
    }

    /// Bring a datacenter back online.
    pub fn recover_datacenter(&mut self, replica: usize) {
        self.sim.recover_site(simnet::SiteId(replica as u32));
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
        let core = self.directory.core(replica);
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
    /// in [`Cluster::groups`] — until its first commit. In durable mode a
    /// crash lands mid-append (a torn partial frame at the victim's WAL
    /// tail) and the site's state is rebuilt from disk before it rejoins
    /// ([`Cluster::restart_datacenter_from_disk`]).
    pub fn replay_chaos(
        &mut self,
        schedule: &mut ChaosSchedule,
        groups: &[GroupId],
    ) -> ChaosReplay {
        let durable = self.config.storage.is_durable();
        let replicas = self.num_datacenters();
        let mut replay = ChaosReplay::default();
        while let Some(due) = schedule.next_due() {
            self.sim.run_until(due);
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
                        self.directory
                            .set_group_home(groups[group % groups.len()], replica % replicas);
                    }
                    _ => {}
                }
                ChaosSchedule::apply_network(event, &mut self.sim);
                replay.faults_applied += u64::from(event.is_fault());
            }
        }
        replay
    }

    /// Per-replica storage-plane counters (durable mode; `None` entries for
    /// in-memory datacenters).
    pub fn storage_stats(&self) -> Vec<Option<storage::StorageStats>> {
        self.directory
            .cores()
            .iter()
            .map(|core| core.lock().storage_stats())
            .collect()
    }

    /// All transaction groups any datacenter has a log for.
    pub fn groups(&self) -> Vec<GroupId> {
        let mut groups = BTreeSet::new();
        for core in self.directory.cores() {
            for (group, _) in core.lock().logs() {
                groups.insert(group);
            }
        }
        groups.into_iter().collect()
    }

    /// Snapshot every datacenter's log for one group (entries are shared
    /// with the live logs, not deep-copied).
    pub fn replica_logs(&self, group: GroupId) -> Vec<GroupLog> {
        self.directory
            .cores()
            .iter()
            .map(|core| core.lock().log(group).cloned().unwrap_or_default())
            .collect()
    }

    /// Verify the paper's correctness properties over everything the cluster
    /// decided: replica agreement (R1) and one-copy serializability
    /// (Definition 1 / L1–L3) of the merged history, per transaction group.
    /// Agreement also covers positions some replicas truncated away:
    /// replicas at an equal gap-free prefix must index equal committed
    /// transaction sets through it. Returns the merged check report of
    /// every group.
    pub fn verify(&self) -> Result<Vec<(GroupId, CheckReport)>, Violation> {
        let mut reports = Vec::new();
        for group in self.groups() {
            let logs = self.replica_logs(group);
            let refs: Vec<&GroupLog> = logs.iter().collect();
            let report = checker::check_all(&refs)?;
            self.check_committed_sets(group)?;
            reports.push((group, report));
        }
        Ok(reports)
    }

    /// Replicas at an equal gap-free prefix of `group` hold equal
    /// committed-id sets through it.
    fn check_committed_sets(&self, group: GroupId) -> Result<(), Violation> {
        let mut by_prefix: BTreeMap<LogPosition, BTreeSet<TxnId>> = BTreeMap::new();
        for core in self.directory.cores() {
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

    /// Total committed transactions recorded in a replica's log for a named
    /// group (used by experiments to cross-check client-side metrics).
    /// Returns 0 for a group name that was never interned.
    pub fn committed_in_log(&self, replica: usize, group: &str) -> usize {
        self.directory
            .symbols()
            .try_group(group)
            .map(|id| self.committed_in_log_id(replica, id))
            .unwrap_or(0)
    }

    /// Total committed transactions recorded in a replica's log for a group.
    pub fn committed_in_log_id(&self, replica: usize, group: GroupId) -> usize {
        self.directory
            .core(replica)
            .lock()
            .log(group)
            .map(|l| l.committed_transaction_count())
            .unwrap_or(0)
    }

    /// Decided non-noop log entries (= Paxos instances that committed work)
    /// in a replica's log for a group. Dividing
    /// [`Cluster::committed_in_log_id`] by this gives the batching/
    /// combination amortization: committed transactions per Paxos instance.
    pub fn decided_instances_id(&self, replica: usize, group: GroupId) -> usize {
        self.directory
            .core(replica)
            .lock()
            .log(group)
            .map(|l| l.iter().filter(|(_, e)| !e.is_noop()).count())
            .unwrap_or(0)
    }

    /// Per-replica counts of expired remote reads, in replica order: all
    /// zero, since no Transaction Service parks reads. Kept only because
    /// the `benchmark/` harness still reports `service.expired_reads`.
    pub fn expired_read_counts(&self) -> Vec<u64> {
        vec![0; self.directory.num_replicas()]
    }

    /// Per-replica counts of multi-version store versions reclaimed by the
    /// apply-time GC behind the read-lease watermark, in replica order.
    /// Harnesses fold these into
    /// [`RunMetrics::reclaimed_versions`](crate::RunMetrics).
    pub fn reclaimed_version_counts(&self) -> Vec<u64> {
        self.directory
            .cores()
            .iter()
            .map(|core| core.lock().reclaimed_version_count())
            .collect()
    }

    /// The aggregate counters the service-hosted commit engines recorded
    /// (window occupancy, pipeline depth, batch splits, stale-member
    /// aborts), merged over all replicas. Harnesses fold this into their
    /// run totals after a submitted-route run.
    pub fn service_commit_metrics(&self) -> RunMetrics {
        self.service_metrics.merged()
    }
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
