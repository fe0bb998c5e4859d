//! Availability and recovery: datacenter outages, lossy networks and log
//! catch-up — the behaviours §2.2 and §4.1 of the paper promise — plus the failure edges of batched commits: internally
//! conflicting windows must split, and a leader failover mid-batch must
//! commit every member exactly once.

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, BatchConfig, ClientAction, Cluster, ClusterConfig, CommitProtocol,
    GroupCommitter, MetricsHub, Msg, RunMetrics, Session, Topology,
};
use paxos_cp::paxos::{Ballot, PaxosMsg};
use paxos_cp::simnet::{Actor, Context, NodeId, SimDuration};
use paxos_cp::walog::{LogEntry, LogPosition, Transaction, TxnId};
use std::sync::Arc;

/// A minimal closed-loop writer client used by the fault-injection tests.
/// By default each transaction read-modify-writes a shared counter; with
/// `blind_attr` set it blind-writes its own attribute instead (no reads —
/// such transactions promote past competing writers rather than abort).
struct Writer {
    session: Option<Session>,
    remaining: usize,
    pause: SimDuration,
    blind_attr: Option<String>,
    metrics: Arc<Mutex<RunMetrics>>,
}

impl Writer {
    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            self.metrics.lock().record(&result);
            if self.remaining > 0 {
                ctx.set_timer(self.pause, u64::MAX);
            }
        }
    }

    fn start(&mut self, ctx: &mut Context<Msg>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let session = self.session.as_mut().unwrap();
        let h = session.begin(ctx.now(), "g");
        if let Some(prefix) = self.blind_attr.clone() {
            session
                .write(h, "row", &format!("{prefix}{}", self.remaining), "1")
                .unwrap();
        } else {
            let counter = session
                .read(h, "row", "counter")
                .unwrap()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            session
                .write(h, "row", "counter", (counter + 1).to_string())
                .unwrap();
        }
        let actions = session.commit(ctx.now(), h).unwrap();
        self.apply(ctx, actions);
    }
}

impl Actor<Msg> for Writer {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let session = self.session.as_mut().unwrap();
        let actions = session.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == u64::MAX {
            self.start(ctx);
        } else {
            let session = self.session.as_mut().unwrap();
            let actions = session.on_timer(ctx.now(), tag);
            self.apply(ctx, actions);
        }
    }
}

fn add_writer_with(
    cluster: &mut Cluster,
    replica: usize,
    count: usize,
    blind_attr: Option<String>,
) -> Arc<Mutex<RunMetrics>> {
    let metrics = MetricsHub::new().register();
    let directory = cluster.directory();
    let client_config = cluster.client_config();
    let sink = metrics.clone();
    cluster.add_client(replica, |node| {
        Box::new(Writer {
            session: Some(Session::new(node, replica, directory, client_config)),
            remaining: count,
            pause: SimDuration::from_millis(50),
            blind_attr,
            metrics: sink,
        })
    });
    metrics
}

fn add_writer(cluster: &mut Cluster, replica: usize, count: usize) -> Arc<Mutex<RunMetrics>> {
    add_writer_with(cluster, replica, count, None)
}

#[test]
fn commits_continue_while_a_minority_datacenter_is_down() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let metrics = add_writer(&mut cluster, 0, 40);
    cluster.run_for(SimDuration::from_secs(1));
    let before = metrics.lock().committed;

    cluster.crash_datacenter(2);
    cluster.run_for(SimDuration::from_secs(15));
    let during = metrics.lock().committed;
    assert!(
        during > before,
        "two of three datacenters must keep committing"
    );

    cluster.recover_datacenter(2);
    cluster.run_to_completion();
    let finished = {
        let m = metrics.lock();
        m.committed + m.aborted
    };
    assert_eq!(finished, 40);
    cluster
        .verify()
        .expect("post-recovery logs must agree and be serializable");
}

#[test]
fn recovered_datacenter_catches_up_once_a_new_commit_reaches_it() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let metrics = add_writer(&mut cluster, 0, 25);

    // Crash California before anything commits, so it misses the whole run.
    cluster.crash_datacenter(2);
    cluster.run_to_completion();
    let committed = metrics.lock().committed;
    assert!(committed > 0);
    assert_eq!(
        cluster.committed_in_log(2, "g"),
        0,
        "the dead replica saw nothing"
    );

    // Recover it. Nothing reaches it until the next commit, whose decided
    // entry lands above the whole missing prefix: the service's janitor
    // then learns the prefix position by position through recovery
    // instances.
    cluster.recover_datacenter(2);
    let late = add_writer_with(&mut cluster, 0, 1, Some("late".to_string()));
    cluster.run_to_completion();
    assert_eq!(late.lock().committed, 1);

    let symbols = cluster.symbols();
    let group = symbols.group("g");
    let item = symbols.item("row", "counter");
    let head = cluster.core(0).lock().read_position(group);
    assert_eq!(
        cluster.core(2).lock().read_position(group),
        head,
        "catch-up must have installed the missing log prefix"
    );
    assert_eq!(cluster.committed_in_log(2, "g"), committed + 1);
    assert_eq!(
        cluster
            .core(2)
            .lock()
            .read(group, item.key, item.attr, head)
            .unwrap(),
        Some(committed.to_string()),
        "the recovered replica must serve the latest committed counter value"
    );
    cluster.verify().expect("logs agree after catch-up");
}

#[test]
fn a_two_datacenter_cluster_stalls_without_its_peer_and_resumes_after_recovery() {
    let mut cluster = Cluster::build(ClusterConfig::new(
        Topology::from_name("VV").unwrap(),
        CommitProtocol::BasicPaxos,
    ));
    let metrics = add_writer(&mut cluster, 0, 10);
    // With D = 2 the majority is 2: losing either datacenter blocks commits
    // (the price of synchronous majority replication).
    cluster.crash_datacenter(1);
    cluster.run_for(SimDuration::from_secs(30));
    assert_eq!(metrics.lock().committed, 0, "no majority, no commits");

    cluster.recover_datacenter(1);
    cluster.run_to_completion();
    assert!(
        metrics.lock().committed > 0,
        "commits resume once the peer returns"
    );
    cluster.verify().expect("logs agree after the stall");
}

/// A scripted actor that sends a fixed batch of messages at start and
/// records everything it receives.
struct Prober {
    to_send: Vec<(NodeId, Msg)>,
    received: Arc<Mutex<Vec<Msg>>>,
}

impl Actor<Msg> for Prober {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        for (to, msg) in self.to_send.drain(..) {
            ctx.send(to, msg);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        self.received.lock().push(msg);
    }
}

/// Reserved timer tag for a [`BatchSubmitter`]'s delayed start (committer
/// tags count up from 1 and can never collide with it).
const SUBMITTER_START_TAG: u64 = u64::MAX;

/// Embeds a [`GroupCommitter`], submits one window of transactions at
/// start (optionally after a delay), and records per-member outcomes.
struct BatchSubmitter {
    committer: Option<GroupCommitter>,
    window: Vec<Transaction>,
    start_after: Option<SimDuration>,
    metrics: Arc<Mutex<RunMetrics>>,
}

impl BatchSubmitter {
    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            self.metrics.lock().record(&result);
        }
    }

    fn submit_window(&mut self, ctx: &mut Context<Msg>) {
        let mut actions = Vec::new();
        let committer = self.committer.as_mut().unwrap();
        for txn in self.window.drain(..) {
            actions.extend(committer.submit(ctx.now(), txn));
        }
        let committer = self.committer.as_mut().unwrap();
        actions.extend(committer.flush(ctx.now()));
        self.apply(ctx, actions);
    }
}

impl Actor<Msg> for BatchSubmitter {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        match self.start_after.take() {
            Some(delay) => {
                ctx.set_timer(delay, SUBMITTER_START_TAG);
            }
            None => self.submit_window(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let committer = self.committer.as_mut().unwrap();
        let actions = committer.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == SUBMITTER_START_TAG {
            self.submit_window(ctx);
            return;
        }
        let committer = self.committer.as_mut().unwrap();
        let actions = committer.on_timer(ctx.now(), tag);
        self.apply(ctx, actions);
    }
}

fn add_batch_submitter(
    cluster: &mut Cluster,
    replica: usize,
    group: paxos_cp::walog::GroupId,
    window: Vec<Transaction>,
    batch_config: BatchConfig,
    start_after: Option<SimDuration>,
) -> Arc<Mutex<RunMetrics>> {
    let metrics = MetricsHub::new().register();
    let directory = cluster.directory();
    let client_config = cluster.client_config();
    let sink = metrics.clone();
    cluster.add_client(replica, move |node| {
        Box::new(BatchSubmitter {
            committer: Some(
                GroupCommitter::new(node, replica, group, directory, client_config, batch_config)
                    .with_metrics(sink.clone()),
            ),
            window,
            start_after,
            metrics: sink,
        })
    });
    metrics
}

#[test]
fn internally_conflicting_batch_splits_instead_of_committing_invalid_entry() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp));
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    let x = symbols.item("row", "x");
    let y = symbols.item("row", "y");
    // Writer writes x; reader read x (observing nothing) and writes y. The
    // reader cannot ride in the same entry after the writer — the window
    // must split, and once the writer commits, the reader's read is stale:
    // it must abort with a conflict, never commit unserializably.
    let writer = Transaction::builder(TxnId::new(3, 1), group, LogPosition(0))
        .write(x, "written")
        .build();
    let reader = Transaction::builder(TxnId::new(3, 2), group, LogPosition(0))
        .read(x, None)
        .write(y, "reader")
        .build();
    let metrics = add_batch_submitter(
        &mut cluster,
        0,
        group,
        vec![writer, reader],
        BatchConfig::default().with_max_batch(2),
        None,
    );
    cluster.run_to_completion();

    let m = metrics.lock();
    assert_eq!(m.attempted, 2);
    assert_eq!(m.committed, 1, "only the writer may commit");
    assert_eq!(m.aborted, 1, "the stale reader must abort");
    drop(m);
    // The decided entry holds exactly the writer: no invalid combination.
    assert_eq!(cluster.committed_in_log(0, "g"), 1);
    assert_eq!(cluster.decided_instances_id(0, group), 1);
    cluster.verify().expect("split batch stays serializable");
}

#[test]
fn leader_failover_mid_batch_commits_every_member_exactly_once() {
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    let directory = cluster.directory();
    // Lead the group from Oregon (replica 1); the batching client lives in
    // Virginia (replica 0), so its fast-path leader claim crosses the WAN.
    directory.set_group_home(group, 1);
    let window: Vec<Transaction> = (0..4)
        .map(|s| {
            Transaction::builder(TxnId::new(3, s + 1), group, LogPosition(0))
                .write(symbols.item("row", &format!("a{s}")), format!("v{s}"))
                .build()
        })
        .collect();
    let metrics = add_batch_submitter(
        &mut cluster,
        0,
        group,
        window,
        BatchConfig::default().with_max_batch(4),
        None,
    );

    // Crash the leader while the claim is still in flight (Virginia ↔
    // Oregon is a 45 ms one-way hop): the committer must time out, fall
    // back to the full prepare path, and decide through the remaining
    // majority — without re-proposing any member that already went out.
    cluster.run_for(SimDuration::from_millis(5));
    cluster.crash_datacenter(1);
    cluster.run_for(SimDuration::from_secs(30));

    let m = metrics.lock();
    assert_eq!(m.committed, 4, "every batch member commits exactly once");
    assert_eq!(m.aborted, 0);
    assert!(
        m.combined_commits >= 4,
        "the batch rides one combined entry"
    );
    drop(m);
    // One instance decided the whole batch; no member appears twice (L2 is
    // checked by verify, the counts pin it down explicitly).
    assert_eq!(cluster.committed_in_log(0, "g"), 4);
    assert_eq!(cluster.decided_instances_id(0, group), 1);

    // The recovered leader catches up and agrees.
    cluster.recover_datacenter(1);
    cluster.run_to_completion();
    cluster
        .verify()
        .expect("post-failover logs must agree and be serializable");
}

#[test]
fn leader_isolated_from_the_majority_stalls_while_the_majority_elects_and_progresses() {
    // VOC; Virginia (dc0) leads group "g". A partition isolates the leader
    // from BOTH other datacenters: dc1+dc2 form a connected majority with
    // no leader. The leader-side writer must stop committing (no majority
    // reachable); the majority-side writer must take over leadership via
    // the prepare path (its fast-path claims to dc0 time out) and keep
    // committing. After healing, every transaction reaches an outcome and
    // the logs agree.
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let group = cluster.symbols().group("g");
    cluster.directory().set_group_home(group, 0);
    // Both writers blind-write their own attributes: losing a position to
    // the competitor (or to the dead leader's orphaned majority-voted
    // value) promotes the transaction instead of aborting it — the
    // liveness path a takeover needs. The majority side carries enough
    // work to span the whole partition window.
    let leader_side = add_writer_with(&mut cluster, 0, 40, Some("a".into()));
    let majority_side = add_writer_with(&mut cluster, 1, 400, Some("b".into()));
    cluster.run_for(SimDuration::from_secs(2));

    {
        let net = cluster.sim_mut().network_mut();
        net.partition(paxos_cp::simnet::SiteId(0), paxos_cp::simnet::SiteId(1));
        net.partition(paxos_cp::simnet::SiteId(0), paxos_cp::simnet::SiteId(2));
    }
    // Let anything already past its accept quorum settle, then measure.
    cluster.run_for(SimDuration::from_secs(5));
    let leader_commits_at_partition = leader_side.lock().committed;
    let majority_commits_at_partition = majority_side.lock().committed;
    cluster.run_for(SimDuration::from_secs(30));
    assert_eq!(
        leader_side.lock().committed,
        leader_commits_at_partition,
        "the isolated leader must not commit without a majority"
    );
    assert!(
        majority_side.lock().committed > majority_commits_at_partition,
        "the connected majority must elect new leadership and progress"
    );

    cluster.sim_mut().network_mut().heal_all();
    cluster.run_to_completion();
    let leader = leader_side.lock();
    let majority = majority_side.lock();
    assert_eq!(leader.committed + leader.aborted, 40);
    assert_eq!(majority.committed + majority.aborted, 400);
    drop(leader);
    drop(majority);
    cluster
        .verify()
        .expect("post-partition logs must agree and be serializable");
}

/// Seed the ROADMAP's orphaned-position wedge: a dead proposer's value,
/// voted by every replica at position 1 but never applied (the proposer
/// prepared, gathered its accept quorum, then died before the apply
/// broadcast). The value writes the shared counter, so every read-carrying
/// transaction that prepares at position 1 discovers it, sees its reads
/// invalidated, and conflict-aborts *without completing the position* —
/// the wedge. Runs the simulation briefly to let the votes land.
fn seed_orphaned_position(cluster: &mut Cluster) {
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    let item = symbols.item("row", "counter");
    let orphan = Transaction::builder(TxnId::new(99, 1), group, LogPosition(0))
        .write(item, "orphaned")
        .build();
    let value = Arc::new(LogEntry::single(orphan));
    let ballot = Ballot::initial(99);
    // Phase 1: the dead proposer's prepares (promises recorded everywhere).
    let prepares = (0..cluster.num_datacenters())
        .map(|replica| {
            (
                cluster.service_node(replica),
                Msg::Paxos(PaxosMsg::Prepare {
                    group,
                    position: LogPosition(1),
                    ballot,
                }),
            )
        })
        .collect();
    cluster.add_client(0, move |_node| {
        Box::new(Prober {
            to_send: prepares,
            received: Arc::new(Mutex::new(Vec::new())),
        })
    });
    cluster.run_for(SimDuration::from_millis(300));
    // Phase 2: its accepts — every replica votes; no apply ever follows.
    let accepts = (0..cluster.num_datacenters())
        .map(|replica| {
            (
                cluster.service_node(replica),
                Msg::Paxos(PaxosMsg::Accept {
                    group,
                    position: LogPosition(1),
                    ballot,
                    value: Arc::clone(&value),
                }),
            )
        })
        .collect();
    cluster.add_client(0, move |_node| {
        Box::new(Prober {
            to_send: accepts,
            received: Arc::new(Mutex::new(Vec::new())),
        })
    });
    cluster.run_for(SimDuration::from_millis(300));
    // Every replica now carries the orphan's vote.
    for replica in 0..cluster.num_datacenters() {
        let core = cluster.core(replica);
        let core = core.lock();
        assert!(
            core.acceptor()
                .current_vote(group, LogPosition(1))
                .is_some(),
            "replica {replica} must hold the orphan's vote"
        );
        assert!(!core.has_entry(group, LogPosition(1)));
    }
}

#[test]
fn orphaned_majority_voted_position_wedges_read_transactions_without_the_janitor() {
    // Control arm: with the janitor disabled, the orphaned value at
    // position 1 conflict-aborts every read-carrying transaction forever —
    // the liveness failure mode of the ROADMAP.
    let mut cluster = Cluster::build(
        ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_janitor(false),
    );
    seed_orphaned_position(&mut cluster);
    let metrics = add_writer(&mut cluster, 0, 30);
    cluster.run_for(SimDuration::from_secs(20));
    let m = metrics.lock();
    assert_eq!(
        m.committed, 0,
        "read-carrying transactions must stay wedged behind the orphan"
    );
    assert!(m.aborted > 0, "the writer must have tried and aborted");
}

#[test]
fn janitor_reproposes_the_orphaned_position_and_unwedges_read_transactions() {
    // Same wedge, janitor on (the default): once the first undecided
    // position stays orphaned past the patience window, the service
    // re-proposes it through a recovery instance, which adopts the
    // majority-voted value per the Paxos safety rule. The position decides,
    // the prefix advances, and read-carrying transactions commit again.
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp));
    seed_orphaned_position(&mut cluster);
    let metrics = add_writer(&mut cluster, 0, 100);
    cluster.run_for(SimDuration::from_secs(30));
    let m = metrics.lock();
    assert!(
        m.committed > 0,
        "the janitor must unwedge the log (aborted {} of {} attempts)",
        m.aborted,
        m.attempted
    );
    drop(m);
    // The orphaned value itself was decided — adopted, not discarded.
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    let core = cluster.core(0);
    let core = core.lock();
    let entry = core
        .log(group)
        .and_then(|log| log.get(LogPosition(1)))
        .expect("position 1 must have decided");
    assert_eq!(entry.txn_ids(), vec![TxnId::new(99, 1)]);
    drop(core);
    cluster
        .verify()
        .expect("janitor recovery must stay serializable");
}

#[test]
fn janitor_attempt_budget_resets_when_traffic_rehints_after_healing() {
    // VV cluster (majority 2) with the peer down: the janitor's
    // re-proposals of the orphaned position can never reach a majority and
    // exhaust their attempt budget. Once the peer recovers, fresh traffic
    // re-hints the group — the janitor must retry with a fresh budget and
    // finally decide the position, not stay given up forever.
    let mut cluster = Cluster::build(ClusterConfig::new(
        Topology::from_name("VV").unwrap(),
        CommitProtocol::PaxosCp,
    ));
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    let orphan = Transaction::builder(TxnId::new(99, 1), group, LogPosition(0))
        .write(symbols.item("row", "counter"), "orphaned")
        .build();
    let value = Arc::new(LogEntry::single(orphan));
    let ballot = Ballot::initial(99);
    cluster.crash_datacenter(1);
    let seed_votes = |cluster: &mut Cluster| {
        let target = cluster.service_node(0);
        let to_send = vec![
            (
                target,
                Msg::Paxos(PaxosMsg::Prepare {
                    group,
                    position: LogPosition(1),
                    ballot,
                }),
            ),
            (
                target,
                Msg::Paxos(PaxosMsg::Accept {
                    group,
                    position: LogPosition(1),
                    ballot,
                    value: Arc::clone(&value),
                }),
            ),
        ];
        cluster.add_client(0, move |_node| {
            Box::new(Prober {
                to_send,
                received: Arc::new(Mutex::new(Vec::new())),
            })
        });
    };
    seed_votes(&mut cluster);
    // Long enough for every janitor attempt to run its recovery instance
    // into the round limit (64 rounds × ~2 s reply timeout each) and for
    // the whole attempt budget to exhaust.
    cluster.run_for(SimDuration::from_secs(1200));
    assert!(
        !cluster.core(0).lock().has_entry(group, LogPosition(1)),
        "no majority exists; the position must still be undecided"
    );

    cluster.recover_datacenter(1);
    // Fresh traffic (the dead proposer's duplicate accept) re-hints the
    // group at dc0.
    seed_votes(&mut cluster);
    cluster.run_for(SimDuration::from_secs(60));
    let core = cluster.core(0);
    let core = core.lock();
    let entry = core
        .log(group)
        .and_then(|log| log.get(LogPosition(1)))
        .expect("the re-hinted janitor must decide the position after healing");
    assert_eq!(entry.txn_ids(), vec![TxnId::new(99, 1)]);
}

#[test]
fn correlated_crash_during_accept_across_two_pipeline_slots_commits_exactly_once() {
    // Oregon (dc1) leads the group; the pipelined committer in Virginia
    // opens two slots at positions 1 and 2 whose fast-path grants return
    // at ~90 ms and whose accept broadcasts leave immediately after. The
    // leader crashes at 100 ms — while BOTH slots are mid-accept — so each
    // slot must reach its majority through the surviving datacenters, and
    // every member must commit exactly once (no double-apply, no loss).
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    cluster.directory().set_group_home(group, 1);
    let window: Vec<Transaction> = (0..8)
        .map(|s| {
            Transaction::builder(TxnId::new(3, s + 1), group, LogPosition(0))
                .write(symbols.item("row", &format!("a{s}")), format!("v{s}"))
                .build()
        })
        .collect();
    let metrics = add_batch_submitter(
        &mut cluster,
        0,
        group,
        window,
        BatchConfig::default()
            .with_max_batch(4)
            .with_pipeline_depth(2)
            .with_adaptive(false),
        None,
    );

    cluster.run_for(SimDuration::from_millis(100));
    cluster.crash_datacenter(1);
    cluster.run_for(SimDuration::from_secs(30));

    let m = metrics.lock();
    assert_eq!(m.committed, 8, "every member of both slots commits");
    assert_eq!(m.aborted, 0);
    assert_eq!(
        m.max_pipeline_depth(),
        2,
        "both instances must have been in flight together"
    );
    drop(m);
    assert_eq!(cluster.committed_in_log(0, "g"), 8, "no double-apply");
    assert_eq!(cluster.decided_instances_id(0, group), 2);

    cluster.recover_datacenter(1);
    cluster.run_to_completion();
    cluster
        .verify()
        .expect("post-crash logs must agree and be serializable");
}

#[test]
fn lost_pipeline_slot_resubmits_survivors_in_order_exactly_once() {
    // A competing committer (same datacenter) claims position 1 first and
    // decides its own value there. The pipelined committer's head slot —
    // already mid-flight for position 1 with members t1..t4 while its
    // speculative slot drives t5..t8 at position 2 — loses: it must adopt
    // and push the winner through (so position 1 still decides locally),
    // then reschedule t1..t4, in order, at the pipeline tail (position 3).
    // Every transaction commits exactly once and the per-position entries
    // prove the recovery order.
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp));
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    cluster.directory().set_group_home(group, 0);
    let foreign = Transaction::builder(TxnId::new(9, 1), group, LogPosition(0))
        .write(symbols.item("row", "theirs"), "b")
        .build();
    let b_metrics = add_batch_submitter(
        &mut cluster,
        0,
        group,
        vec![foreign],
        BatchConfig::default()
            .with_max_batch(1)
            .with_pipeline_depth(1),
        None,
    );
    let window: Vec<Transaction> = (0..8)
        .map(|s| {
            Transaction::builder(TxnId::new(3, s + 1), group, LogPosition(0))
                .write(symbols.item("row", &format!("a{s}")), format!("v{s}"))
                .build()
        })
        .collect();
    let a_metrics = add_batch_submitter(
        &mut cluster,
        0,
        group,
        window,
        BatchConfig::default()
            .with_max_batch(4)
            .with_pipeline_depth(2)
            .with_adaptive(false),
        Some(SimDuration::from_millis(5)),
    );
    cluster.run_to_completion();

    let a = a_metrics.lock();
    assert_eq!(a.committed, 8, "all pipelined members commit exactly once");
    assert_eq!(a.aborted, 0);
    assert_eq!(
        a.commits_by_promotion,
        vec![4, 4],
        "the speculative slot commits directly, the lost head's survivors \
         commit after exactly one rescheduling"
    );
    drop(a);
    assert_eq!(b_metrics.lock().committed, 1);
    assert_eq!(cluster.committed_in_log(0, "g"), 9, "no double-apply");
    assert_eq!(cluster.decided_instances_id(0, group), 3);

    // The per-position entries prove in-order recovery: the competitor won
    // position 1, the speculative slot kept position 2, and the lost
    // head's survivors were rescheduled — as one block, in submission
    // order — at the tail position 3.
    let core = cluster.core(0);
    let core = core.lock();
    let log = core.log(group).expect("group log");
    let ids_at = |p: u64| -> Vec<TxnId> { log.get(LogPosition(p)).unwrap().txn_ids() };
    assert_eq!(ids_at(1), vec![TxnId::new(9, 1)]);
    assert_eq!(
        ids_at(2),
        (5..=8).map(|s| TxnId::new(3, s)).collect::<Vec<_>>()
    );
    assert_eq!(
        ids_at(3),
        (1..=4).map(|s| TxnId::new(3, s)).collect::<Vec<_>>()
    );
    drop(core);
    cluster
        .verify()
        .expect("slot-loss recovery must stay serializable");
}

#[test]
fn heavy_message_loss_slows_but_does_not_corrupt() {
    let mut cluster = Cluster::build(ClusterConfig::new(
        Topology::vvv().with_loss(0.25),
        CommitProtocol::PaxosCp,
    ));
    let metrics = add_writer(&mut cluster, 0, 15);
    cluster.run_to_completion();
    let m = metrics.lock();
    assert_eq!(m.committed + m.aborted, 15);
    assert!(m.committed > 0);
    drop(m);
    assert!(cluster.sim().stats().dropped_loss > 0);
    cluster
        .verify()
        .expect("lossy runs must still be serializable");
}

/// GC safety of the snapshot read plane across failover: an open
/// read-only handle's lease pins `MvKvStore::version_floor` at its
/// watermark, so the apply-time GC — even at horizon 0 — never reclaims a
/// version the snapshot can still read, including while the group leader
/// crashes, another replica recovers its positions, and new commits keep
/// applying (and collecting) on the serving core.
#[test]
fn snapshot_lease_pins_versions_across_leader_crash_and_recovery() {
    let mut cluster =
        Cluster::build(ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp).with_seed(11));
    // Horizon 0: without a lease, only the newest version of a rewritten
    // key survives its next apply.
    for replica in 0..cluster.num_datacenters() {
        cluster.core(replica).lock().set_gc_horizon(0);
    }
    let metrics = add_writer(&mut cluster, 0, 8);
    cluster.run_to_completion();
    let committed = metrics.lock().committed;
    assert!(committed > 0, "the seed burst must commit");

    // Open a read-only handle homed at replica 1: it captures a watermark
    // from (and leases) one of the serving cores.
    let directory = cluster.directory();
    let mut session = Session::new(NodeId(990), 1, directory.clone(), cluster.client_config());
    let h = session.begin_read_only(cluster.now(), "g");
    let (serving, watermark) = session.snapshot_watermark(h).expect("open snapshot");
    assert_eq!(cluster.core(serving).lock().read_lease_count(), 1);
    let pinned = session.read(h, "row", "counter").unwrap();
    assert_eq!(
        pinned,
        Some(committed.to_string()),
        "the snapshot sees the seed burst's counter"
    );

    // Crash the group's home (its position leader) and let a writer at a
    // surviving datacenter drive recovery and a second burst of commits
    // that rewrite the same row — every apply GCs the row's versions.
    let group = cluster.symbols().group("g");
    let home = directory.group_home(group);
    assert_ne!(home, serving, "the lease must outlive the crashed home");
    cluster.crash_datacenter(home);
    let second = add_writer_with(&mut cluster, (home + 1) % 3, 8, Some("b".into()));
    cluster.run_for(SimDuration::from_secs(30));
    cluster.recover_datacenter(home);
    cluster.run_to_completion();
    assert!(
        second.lock().committed > 0,
        "the surviving majority must keep committing through the crash"
    );

    // The serving store's version floor for the row is still at or below
    // the snapshot's watermark: nothing the handle can read was reclaimed.
    let row = cluster.symbols().key("row");
    let app_key = paxos_cp::mvkv::Key(((group.0 as u64) << 32) | row.0 as u64);
    let floor = cluster
        .core(serving)
        .lock()
        .store()
        .version_floor(app_key, paxos_cp::mvkv::Timestamp(watermark.0))
        .expect("the pinned version exists");
    assert!(
        floor.0 <= watermark.0,
        "lease must pin the version a reader at {watermark:?} needs, floor was {floor:?}"
    );
    assert_eq!(
        session.read(h, "row", "counter").unwrap(),
        pinned,
        "the snapshot still reads its watermark value after crash + recovery + GC"
    );

    // Closing the handle releases the lease; the next rewrites reclaim.
    let now = cluster.now();
    let actions = session.commit(now, h).expect("read-only close");
    assert!(matches!(
        actions.as_slice(),
        [ClientAction::Finished(result)] if result.committed && result.read_only
    ));
    assert_eq!(cluster.core(serving).lock().read_lease_count(), 0);
    let reclaimed_before = cluster.reclaimed_version_counts()[serving];
    let third = add_writer(&mut cluster, serving, 6);
    cluster.run_to_completion();
    assert!(third.lock().committed > 0);
    assert!(
        cluster.reclaimed_version_counts()[serving] > reclaimed_before,
        "with the lease gone, horizon-0 GC reclaims the old versions"
    );
    cluster
        .verify()
        .expect("the whole scenario must stay serializable");
}
