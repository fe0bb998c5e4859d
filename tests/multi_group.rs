//! Multiple transaction groups (§2.1): each group has its own replicated
//! write-ahead log and its own serialization order; transactions on
//! different groups never contend with each other, and there is no global
//! serializability across groups — exactly the paper's data model.
//!
//! The sharded/batched tests go further: a contended multi-group workload
//! (per-group leader map, batching committers, racing counter writers) must
//! leave a history where **any** interleaving of the per-group logs is a
//! valid one-copy serial order — the per-group checker verdicts are
//! invariant under how the independent logs are merged.

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, BatchConfig, ClientAction, Cluster, ClusterConfig, CommitProtocol,
    CommitRoute, MetricsHub, Msg, RunMetrics, Session, Topology,
};
use paxos_cp::simnet::{Actor, Context, NodeId, SimDuration};
use paxos_cp::walog::{GroupId, GroupLog};
use std::collections::HashMap;
use std::sync::Arc;

/// A client that runs `rounds` rounds against one group. Each round
/// increments every attribute of `attrs` in its row, one transaction per
/// attribute, all open at once; the next round starts `pause` after the
/// round's last answer.
struct GroupWriter {
    session: Session,
    group: String,
    row: String,
    attrs: Vec<String>,
    rounds: usize,
    outstanding: usize,
    pause: SimDuration,
    metrics: Arc<Mutex<RunMetrics>>,
}

impl GroupWriter {
    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            self.metrics.lock().record(&result);
            self.outstanding -= 1;
            if self.outstanding == 0 {
                ctx.set_timer(self.pause, u64::MAX);
            }
        }
    }

    fn start(&mut self, ctx: &mut Context<Msg>) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        self.outstanding = self.attrs.len();
        for attr in self.attrs.clone() {
            let session = &mut self.session;
            let h = session.begin(ctx.now(), &self.group);
            let n = session
                .read(h, &self.row, &attr)
                .unwrap()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            session
                .write(h, &self.row, &attr, (n + 1).to_string())
                .unwrap();
            let actions = session.commit(ctx.now(), h).unwrap();
            self.apply(ctx, actions);
        }
    }
}

impl Actor<Msg> for GroupWriter {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let actions = self.session.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == u64::MAX {
            self.start(ctx);
        } else {
            let actions = self.session.on_timer(ctx.now(), tag);
            self.apply(ctx, actions);
        }
    }
}

fn add_group_writer(
    cluster: &mut Cluster,
    replica: usize,
    group: &str,
    count: usize,
) -> Arc<Mutex<RunMetrics>> {
    let metrics = MetricsHub::new().register();
    let directory = cluster.directory();
    let client_config = cluster.client_config();
    let sink = metrics.clone();
    let group = group.to_string();
    cluster.add_client(replica, |node| {
        Box::new(GroupWriter {
            session: Session::new(node, replica, directory, client_config),
            group,
            row: "row".into(),
            attrs: vec!["n".into()],
            rounds: count,
            outstanding: 0,
            pause: SimDuration::from_millis(40),
            metrics: sink,
        })
    });
    metrics
}

#[test]
fn groups_have_independent_logs_and_do_not_contend() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp));
    // Three groups, one dedicated writer each, all in the same datacenter.
    let m_orders = add_group_writer(&mut cluster, 0, "orders", 12);
    let m_users = add_group_writer(&mut cluster, 0, "users", 9);
    let m_carts = add_group_writer(&mut cluster, 1, "carts", 7);
    cluster.run_to_completion();

    // With a single writer per group there is no contention at all: every
    // transaction commits, none needs promotion.
    for (metrics, expected) in [(&m_orders, 12usize), (&m_users, 9), (&m_carts, 7)] {
        let m = metrics.lock();
        assert_eq!(m.committed, expected);
        assert_eq!(m.aborted, 0);
        assert_eq!(m.promoted_commits(), 0);
    }

    // Each group has its own log with exactly its own transactions, on every
    // replica.
    let symbols = cluster.symbols();
    let mut groups: Vec<String> = cluster
        .groups()
        .into_iter()
        .map(|g| {
            symbols
                .group_name(g)
                .expect("groups come from interned names")
        })
        .collect();
    groups.sort();
    assert_eq!(
        groups,
        vec!["carts".to_string(), "orders".into(), "users".into()]
    );
    for replica in 0..cluster.num_datacenters() {
        assert_eq!(cluster.committed_in_log(replica, "orders"), 12);
        assert_eq!(cluster.committed_in_log(replica, "users"), 9);
        assert_eq!(cluster.committed_in_log(replica, "carts"), 7);
    }

    // The checker verifies every group independently.
    let reports = cluster.verify().expect("all groups serializable");
    assert_eq!(reports.len(), 3);
    for (group, report) in reports {
        let name = symbols.group_name(group).expect("interned group");
        let expected = match name.as_str() {
            "orders" => 12,
            "users" => 9,
            "carts" => 7,
            other => panic!("unexpected group {other}"),
        };
        assert_eq!(report.transactions, expected);
        assert_eq!(report.positions, expected);
    }

    // And the per-group counters are visible through the key-value store at
    // every datacenter: the final value of each group's counter equals its
    // commit count.
    let item = symbols.item("row", "n");
    for replica in 0..cluster.num_datacenters() {
        for (group, expected) in [("orders", 12u64), ("users", 9), ("carts", 7)] {
            let group_id = symbols.group(group);
            let core = cluster.core(replica);
            let mut core = core.lock();
            let position = core.read_position(group_id);
            let value = core
                .read(group_id, item.key, item.attr, position)
                .unwrap()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            assert_eq!(value, expected, "group {group} at replica {replica}");
        }
    }
}

#[test]
fn contention_in_one_group_does_not_abort_transactions_in_another() {
    let mut cluster = Cluster::build(ClusterConfig::new(
        Topology::vvv(),
        CommitProtocol::BasicPaxos,
    ));
    // Two writers hammer the same "hot" group from different datacenters
    // (guaranteeing races for its log positions under basic Paxos), while a
    // third writer works on a "cold" group of its own.
    let hot_a = add_group_writer(&mut cluster, 0, "hot", 15);
    let hot_b = add_group_writer(&mut cluster, 1, "hot", 15);
    let cold = add_group_writer(&mut cluster, 2, "cold", 15);
    cluster.run_to_completion();

    let hot_committed = hot_a.lock().committed + hot_b.lock().committed;
    let hot_aborted = hot_a.lock().aborted + hot_b.lock().aborted;
    assert_eq!(hot_committed + hot_aborted, 30);
    assert!(
        hot_aborted > 0,
        "two basic-Paxos writers racing for the same group must abort something"
    );
    // The cold group is completely unaffected by the hot group's contention.
    assert_eq!(cold.lock().committed, 15);
    assert_eq!(cold.lock().aborted, 0);
    cluster.verify().expect("both groups serializable");
}

/// One globally interleaved history: entries from several groups' logs in
/// an order that preserves each group's position order.
type MergedHistory = Vec<(GroupId, Arc<paxos_cp::walog::LogEntry>)>;

/// Interleave per-group logs entry by entry: `stride` controls the shape
/// (1 = round-robin one entry per group, `usize::MAX` = group-major).
fn interleave(logs: &[(GroupId, GroupLog)], stride: usize) -> MergedHistory {
    let mut cursors: Vec<(GroupId, Vec<Arc<paxos_cp::walog::LogEntry>>, usize)> = logs
        .iter()
        .map(|(g, log)| (*g, log.iter().map(|(_, e)| Arc::clone(e)).collect(), 0))
        .collect();
    let mut merged = Vec::new();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (group, entries, cursor) in cursors.iter_mut() {
            let take = stride.min(entries.len() - *cursor);
            for entry in &entries[*cursor..*cursor + take] {
                merged.push((*group, Arc::clone(entry)));
            }
            *cursor += take;
            progressed |= take > 0;
        }
    }
    merged
}

/// Replay a merged interleaving of several groups' logs and check that
/// every committed read is explained by the merged state, then return the
/// final state. Because groups' item spaces are disjoint, *every*
/// interleaving that preserves each group's position order must pass and
/// produce the same final state — the executable form of "per-group
/// serializability composes into global serializability over groups".
fn replay_interleaving(merged: &MergedHistory) -> HashMap<(GroupId, u64), String> {
    let mut state: HashMap<(GroupId, u64), String> = HashMap::new();
    for (group, entry) in merged {
        for txn in entry.transactions() {
            for read in txn.reads() {
                let current = state.get(&(*group, read.item.packed()));
                assert_eq!(
                    current.map(String::as_str),
                    read.observed.as_deref(),
                    "merged replay failed to explain a read of {} in {group}",
                    read.item,
                );
            }
            for write in txn.writes() {
                state.insert((*group, write.item.packed()), write.value.clone());
            }
        }
    }
    state
}

#[test]
fn sharded_batched_workload_is_serializable_under_any_log_interleaving() {
    let config = ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp)
        .with_seed(9)
        .with_batch(BatchConfig::default().with_max_batch(3));
    let mut cluster = Cluster::build(config);
    let directory = cluster.directory();
    let groups: Vec<GroupId> = (0..6)
        .map(|g| directory.symbols().group(&format!("shard{g}")))
        .collect();

    // Per group: one batching writer homed at the group's leader datacenter
    // (each round submits 3 independent read-modify-writes of its private
    // attributes, which the home's committer windows into shared instances)
    // plus one counter writer homed *elsewhere*, so positions are contended
    // and promotions/combinations happen alongside batches.
    let mut batch_metrics = Vec::new();
    let mut counter_metrics = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        let home = directory.group_home(*group);
        let metrics = MetricsHub::new().register();
        batch_metrics.push(metrics.clone());
        let dir = directory.clone();
        let config = cluster.client_config().with_route(CommitRoute::Submitted);
        cluster.add_client(home, move |node| {
            Box::new(GroupWriter {
                session: Session::new(node, home, dir, config),
                group: format!("shard{g}"),
                row: format!("shard{g}-row"),
                attrs: (0..3).map(|s| format!("s{s}")).collect(),
                rounds: 4,
                outstanding: 0,
                pause: SimDuration::from_millis(5),
                metrics,
            })
        });
        let contender_home = (home + 1) % cluster.num_datacenters();
        counter_metrics.push(add_group_writer(
            &mut cluster,
            contender_home,
            &format!("shard{g}"),
            6,
        ));
    }
    cluster.run_to_completion();

    // Every transaction reached an outcome and something batched.
    let mut total = RunMetrics::default();
    for m in batch_metrics.iter().chain(counter_metrics.iter()) {
        total.merge(&m.lock());
    }
    assert_eq!(total.attempted, 6 * (4 * 3 + 6));
    assert!(total.committed > 0);
    assert!(
        total.combined_commits > 0,
        "windows of 3 independent transactions must produce combined entries"
    );

    // Per-group verdicts first (replica agreement + one-copy
    // serializability of each group's log).
    let reports = cluster.verify().expect("all shards serializable");
    assert_eq!(reports.len(), 6);

    // Batching must amortize instances: strictly fewer decided entries than
    // committed transactions.
    let committed_total: usize = groups
        .iter()
        .map(|g| cluster.committed_in_log_id(0, *g))
        .sum();
    let instances_total: usize = groups
        .iter()
        .map(|g| cluster.decided_instances_id(0, *g))
        .sum();
    assert!(
        instances_total < committed_total,
        "batching should commit {committed_total} txns in fewer than {committed_total} \
         instances, got {instances_total}"
    );

    // Cross-group invariance: replay several interleavings of the per-group
    // logs — group-major, reversed group-major, and round-robin one entry
    // per group. Every one must explain every read and all must agree on
    // the final state.
    let mut logs: Vec<(GroupId, GroupLog)> = groups
        .iter()
        .map(|g| (*g, cluster.replica_logs(*g).remove(0)))
        .collect();
    let group_major = interleave(&logs, usize::MAX);
    let round_robin = interleave(&logs, 1);
    logs.reverse();
    let reversed = interleave(&logs, usize::MAX);
    let a = replay_interleaving(&group_major);
    let b = replay_interleaving(&round_robin);
    let c = replay_interleaving(&reversed);
    assert_eq!(a, b, "final state must not depend on group interleaving");
    assert_eq!(a, c, "final state must not depend on group interleaving");
    assert!(!a.is_empty());
}
