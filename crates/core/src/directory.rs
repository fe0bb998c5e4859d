//! Cluster directory: how clients and services find each other, the shared
//! symbol table they intern names through, and the per-group leader map
//! that shards log leadership across datacenters.

use crate::datacenter::{DatacenterCore, SharedCore};
use parking_lot::RwLock;
use simnet::NodeId;
use std::collections::HashMap;
use std::sync::Arc;
use walog::{GroupId, LogPosition, SymbolTable};

/// Immutable-after-wiring lookup table shared by every actor in a cluster:
/// which node is the Transaction Service of each replica, which datacenter a
/// client lives in, the shared storage core of each datacenter, the
/// cluster-wide [`SymbolTable`] mapping group/key/attribute names to the
/// interned ids the whole data plane runs on, and the **group leader map**.
///
/// The leader map is what makes the sharded multi-group data plane scale:
/// each transaction group's log has a *home* datacenter that prefers to
/// lead its positions (the paper's leader-per-position fast path, §4.1,
/// seeds from it), so disjoint subsets of groups are led by disjoint
/// datacenters and commit in parallel with no cross-group coordination.
/// By default homes are assigned round-robin by group id; explicit
/// assignments override (e.g. to co-locate a group with the datacenter
/// that generates its traffic). Each real move of a group's home bumps
/// the group's *home epoch*, which a new home's committer settles before
/// it proposes ([`Directory::home_epoch`]).
pub struct Directory {
    symbols: Arc<SymbolTable>,
    service_nodes: RwLock<Vec<NodeId>>,
    cores: RwLock<Vec<SharedCore>>,
    client_replica: RwLock<HashMap<NodeId, usize>>,
    /// Explicit homes, each with its group's home epoch.
    group_homes: RwLock<HashMap<GroupId, (usize, u64)>>,
}

impl Default for Directory {
    fn default() -> Self {
        Directory {
            symbols: SymbolTable::shared(),
            service_nodes: RwLock::new(Vec::new()),
            cores: RwLock::new(Vec::new()),
            client_replica: RwLock::new(HashMap::new()),
            group_homes: RwLock::new(HashMap::new()),
        }
    }
}

impl Directory {
    /// Create an empty directory, to be populated by the cluster builder.
    pub fn new() -> Arc<Self> {
        Arc::new(Directory::default())
    }

    /// Create an empty directory that interns through an existing symbol
    /// table. Used by the parallel runtime's sharded bring-up: every shard
    /// has its own replica set (and therefore its own directory), but
    /// group/key/attribute names must resolve to the same ids cluster-wide.
    pub fn with_symbols(symbols: Arc<SymbolTable>) -> Arc<Self> {
        Arc::new(Directory {
            symbols,
            service_nodes: RwLock::new(Vec::new()),
            cores: RwLock::new(Vec::new()),
            client_replica: RwLock::new(HashMap::new()),
            group_homes: RwLock::new(HashMap::new()),
        })
    }

    /// The cluster-wide symbol table.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }

    /// Register a datacenter: its service node and its shared storage core.
    /// Must be called in replica order.
    pub fn register_datacenter(&self, service: NodeId, core: SharedCore) -> usize {
        let mut services = self.service_nodes.write();
        let mut cores = self.cores.write();
        services.push(service);
        cores.push(core);
        services.len() - 1
    }

    /// Register a client node as living in the given replica's datacenter.
    pub fn register_client(&self, client: NodeId, replica: usize) {
        self.client_replica.write().insert(client, replica);
    }

    /// Number of datacenters (replicas).
    pub fn num_replicas(&self) -> usize {
        self.service_nodes.read().len()
    }

    /// The Transaction Service node of a replica.
    pub fn service_node(&self, replica: usize) -> NodeId {
        self.service_nodes.read()[replica]
    }

    /// All Transaction Service nodes, in replica order.
    pub fn service_nodes(&self) -> Vec<NodeId> {
        self.service_nodes.read().clone()
    }

    /// The replica index whose service node is `node`, if any.
    pub fn replica_of_service(&self, node: NodeId) -> Option<usize> {
        self.service_nodes.read().iter().position(|n| *n == node)
    }

    /// The storage core of a replica's datacenter.
    pub fn core(&self, replica: usize) -> SharedCore {
        self.cores.read()[replica].clone()
    }

    /// All storage cores, in replica order.
    pub fn cores(&self) -> Vec<SharedCore> {
        self.cores.read().clone()
    }

    /// The datacenter (replica index) a client node lives in.
    pub fn replica_of_client(&self, client: NodeId) -> Option<usize> {
        self.client_replica.read().get(&client).copied()
    }

    /// The datacenter of a client identified by its raw node id (used to
    /// resolve the leader of a log position from the winning transaction's
    /// client id).
    pub fn replica_of_client_raw(&self, client_raw: u64) -> Option<usize> {
        self.replica_of_client(NodeId(client_raw as u32))
    }

    /// The home datacenter of a transaction group: the replica that prefers
    /// to lead the group's log positions. Explicit assignments (see
    /// [`Directory::set_group_home`]) win; otherwise homes are spread
    /// round-robin by group id so a cluster with `D` datacenters leads `D`
    /// disjoint shards of the group space in parallel.
    pub fn group_home(&self, group: GroupId) -> usize {
        if let Some((home, _)) = self.group_homes.read().get(&group) {
            return *home;
        }
        let replicas = self.num_replicas();
        if replicas == 0 {
            0
        } else {
            group.0 as usize % replicas
        }
    }

    /// How many times `group`'s home has moved: 0 until a
    /// [`Directory::set_group_home`] names a datacenter other than the
    /// current home.
    pub fn home_epoch(&self, group: GroupId) -> u64 {
        self.group_homes
            .read()
            .get(&group)
            .map_or(0, |(_, epoch)| *epoch)
    }

    /// Pin a group's home datacenter, overriding the round-robin default.
    /// The home epoch moves only when the home does: naming the current
    /// home again changes nothing a committer sees.
    pub fn set_group_home(&self, group: GroupId, replica: usize) {
        let current = self.group_home(group);
        let mut homes = self.group_homes.write();
        let epoch = homes.get(&group).map_or(0, |(_, epoch)| *epoch);
        let epoch = if current == replica { epoch } else { epoch + 1 };
        homes.insert(group, (replica, epoch));
    }

    /// Pick the datacenter a snapshot (read-only) handle reads `group`
    /// from. Watermark reads can be served by *any* replica — that is the
    /// point of the snapshot read plane — so unlike
    /// [`Directory::group_home`] this spreads read traffic across
    /// datacenters instead of funneling it to the home: the client's own
    /// datacenter (`nearest`) wins whenever it is in the serving set (reads
    /// stay local, zero wide-area hops), otherwise the choice is a
    /// deterministic pseudo-random spread over the serving replicas keyed
    /// by `(group, salt)`. `serving_replicas` bounds the set to the first
    /// `N` datacenters — sessions pass [`Directory::num_replicas`];
    /// scale-out harnesses sweep `1..=D` to measure read throughput per
    /// serving-replica count.
    pub fn snapshot_replica(
        &self,
        group: GroupId,
        nearest: usize,
        salt: u64,
        serving_replicas: usize,
    ) -> usize {
        let replicas = self.num_replicas();
        if replicas == 0 {
            return 0;
        }
        let serving = serving_replicas.clamp(1, replicas);
        if nearest < serving {
            return nearest;
        }
        let mix = (group.0 as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_mul(0xd129_0d3d_a3ac_b56b);
        (mix % serving as u64) as usize
    }

    /// The replica hosting the leader of `position` in `group` (§4.1: the
    /// site local to the client that won the previous position, read from
    /// `home_replica`'s log), defaulting to the group's home in the leader
    /// map when unknown — the very first position, a no-op entry, or a
    /// winner from an unregistered client. The home default is what shards
    /// leadership: each datacenter seeds the fast path for its own subset
    /// of groups. This is where a direct-route client claims
    /// ([`Directory::claim_if_leader`]); the group committer runs only at
    /// the home and claims at its own datacenter's core without a lookup.
    pub fn leader_replica(
        &self,
        home_replica: usize,
        group: GroupId,
        position: LogPosition,
    ) -> usize {
        self.leader_in(&self.core(home_replica).lock(), group, position)
    }

    /// Claim the fast path of `position` in `group` for `client` at
    /// `home_replica`'s core if that datacenter leads the position
    /// ([`Directory::leader_replica`]), looking the leader up and claiming
    /// under one lock of the core: `Ok(granted)`. Otherwise
    /// `Err(leader)`, the replica the claim must be sent to.
    pub fn claim_if_leader(
        &self,
        home_replica: usize,
        group: GroupId,
        position: LogPosition,
        client: u64,
    ) -> Result<bool, usize> {
        let core = self.core(home_replica);
        let mut core = core.lock();
        match self.leader_in(&core, group, position) {
            leader if leader == home_replica => Ok(core.leader_claim(group, position, client)),
            leader => Err(leader),
        }
    }

    /// The leader of `position` as `core`'s log names it.
    fn leader_in(&self, core: &DatacenterCore, group: GroupId, position: LogPosition) -> usize {
        core.previous_winner_client(group, position)
            .and_then(|client| self.replica_of_client_raw(client))
            .unwrap_or_else(|| self.group_home(group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DatacenterCore;

    #[test]
    fn registration_and_lookup() {
        let dir = Directory::new();
        let c0 = DatacenterCore::shared("dc0", 0);
        let c1 = DatacenterCore::shared("dc1", 1);
        assert_eq!(dir.register_datacenter(NodeId(0), c0), 0);
        assert_eq!(dir.register_datacenter(NodeId(1), c1), 1);
        dir.register_client(NodeId(5), 1);

        assert_eq!(dir.num_replicas(), 2);
        assert_eq!(dir.service_node(1), NodeId(1));
        assert_eq!(dir.service_nodes(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(dir.replica_of_service(NodeId(1)), Some(1));
        assert_eq!(dir.replica_of_service(NodeId(9)), None);
        assert_eq!(dir.replica_of_client(NodeId(5)), Some(1));
        assert_eq!(dir.replica_of_client(NodeId(6)), None);
        assert_eq!(dir.replica_of_client_raw(5), Some(1));
        assert_eq!(dir.core(0).lock().name(), "dc0");
        assert_eq!(dir.cores().len(), 2);
    }

    #[test]
    fn group_homes_default_round_robin_and_accept_overrides() {
        let dir = Directory::new();
        dir.register_datacenter(NodeId(0), DatacenterCore::shared("dc0", 0));
        dir.register_datacenter(NodeId(1), DatacenterCore::shared("dc1", 1));
        dir.register_datacenter(NodeId(2), DatacenterCore::shared("dc2", 2));
        assert_eq!(dir.group_home(GroupId(0)), 0);
        assert_eq!(dir.group_home(GroupId(1)), 1);
        assert_eq!(dir.group_home(GroupId(2)), 2);
        assert_eq!(dir.group_home(GroupId(3)), 0);
        dir.set_group_home(GroupId(3), 2);
        assert_eq!(dir.group_home(GroupId(3)), 2);
        // Only a real move bumps the home epoch.
        assert_eq!(dir.home_epoch(GroupId(3)), 1);
        dir.set_group_home(GroupId(3), 2);
        dir.set_group_home(GroupId(1), 1);
        assert_eq!(
            (dir.home_epoch(GroupId(3)), dir.home_epoch(GroupId(1))),
            (1, 0)
        );
        dir.set_group_home(GroupId(3), 0);
        assert_eq!(
            (dir.group_home(GroupId(3)), dir.home_epoch(GroupId(3))),
            (0, 2)
        );
        // A directory with no datacenters yet falls back to replica 0.
        assert_eq!(Directory::new().group_home(GroupId(7)), 0);
    }

    #[test]
    fn snapshot_replica_prefers_nearest_and_spreads_otherwise() {
        let dir = Directory::new();
        for r in 0..3 {
            dir.register_datacenter(
                NodeId(r),
                DatacenterCore::shared(format!("dc{r}"), r as usize),
            );
        }
        // The client's own datacenter serves whenever it is in the set.
        assert_eq!(dir.snapshot_replica(GroupId(5), 2, 7, 3), 2);
        assert_eq!(dir.snapshot_replica(GroupId(5), 0, 7, 3), 0);
        // With the serving set narrowed below the client's replica, the
        // pick falls inside the set and is deterministic.
        let pick = dir.snapshot_replica(GroupId(5), 2, 7, 2);
        assert!(pick < 2);
        assert_eq!(pick, dir.snapshot_replica(GroupId(5), 2, 7, 2));
        // Serving only one replica funnels everyone to it.
        assert_eq!(dir.snapshot_replica(GroupId(5), 2, 7, 1), 0);
        // Varying the salt spreads across the serving set.
        let picks: std::collections::HashSet<usize> = (0..32)
            .map(|salt| dir.snapshot_replica(GroupId(9), 5, salt, 3))
            .collect();
        assert!(picks.len() > 1, "salted picks must spread: {picks:?}");
        assert!(picks.iter().all(|p| *p < 3));
        // An empty directory falls back to replica 0.
        assert_eq!(Directory::new().snapshot_replica(GroupId(1), 0, 0, 3), 0);
    }

    #[test]
    fn symbols_are_shared_cluster_wide() {
        let dir = Directory::new();
        let a = dir.symbols().group("ledger");
        let b = dir.symbols().group("ledger");
        assert_eq!(a, b);
        assert_eq!(dir.symbols().group_name(a).as_deref(), Some("ledger"));
    }
}
