//! Availability and recovery: datacenter outages, lossy networks and log
//! catch-up — the behaviours §2.2 and §4.1 of the paper promise — plus the failure edges of batched commits: internally
//! conflicting windows must split, and a leader failover mid-batch must
//! commit every member exactly once.

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, BatchConfig, ClientAction, Cluster, ClusterConfig, CommitProtocol,
    MetricsHub, Msg, RunMetrics, Session, Topology, TxnResult,
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

/// Submits one window of transactions to its group's home service as
/// `CommitRequest`s at start, and records each
/// member's fate from its `CommitReply`. The home's hosted committer
/// batches and pipelines the window; its occupancy and pipeline depth are
/// in [`Cluster::service_commit_metrics`].
struct BatchSubmitter {
    service: NodeId,
    window: Vec<Transaction>,
    metrics: Arc<Mutex<RunMetrics>>,
}

impl Actor<Msg> for BatchSubmitter {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        for (req_id, txn) in (1..).zip(self.window.drain(..)) {
            ctx.send(self.service, Msg::CommitRequest { req_id, txn });
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
        if let Msg::CommitReply {
            txn,
            committed,
            promotions,
            combined,
            rounds,
            abort_reason,
            ..
        } = msg
        {
            self.metrics.lock().record(&TxnResult {
                committed,
                read_only: false,
                promotions,
                combined,
                rounds,
                latency: SimDuration::ZERO,
                abort_reason,
                txn: Some(txn),
            });
        }
    }
}

/// Add a [`BatchSubmitter`] in `replica`'s datacenter that sends `window`
/// to the service of `group`'s home.
fn add_batch_submitter(
    cluster: &mut Cluster,
    replica: usize,
    group: paxos_cp::walog::GroupId,
    window: Vec<Transaction>,
) -> Arc<Mutex<RunMetrics>> {
    let metrics = MetricsHub::new().register();
    let service = cluster.service_node(cluster.directory().group_home(group));
    let sink = metrics.clone();
    cluster.add_client(replica, move |_node| {
        Box::new(BatchSubmitter {
            service,
            window,
            metrics: sink,
        })
    });
    metrics
}

#[test]
fn internally_conflicting_batch_splits_instead_of_committing_invalid_entry() {
    // Jitter-free, so the home receives the window in submission order.
    let config = ClusterConfig::new(Topology::vvv().with_jitter(0.0), CommitProtocol::PaxosCp)
        .with_batch(BatchConfig::default().with_max_batch(2));
    let mut cluster = Cluster::build(config);
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
    let metrics = add_batch_submitter(&mut cluster, 0, group, vec![writer, reader]);
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

/// The home's votes at `positions` were cast in a classic round: the fast
/// round there never became unanimous, and a majority decided instead.
fn assert_classic_decision(cluster: &Cluster, group: paxos_cp::walog::GroupId, positions: &[u64]) {
    let core = cluster.core(0);
    let core = core.lock();
    for &position in positions {
        let vote = core.acceptor().current_vote(group, LogPosition(position));
        let ballot = vote.map(|(ballot, _)| ballot);
        assert!(
            ballot.is_some_and(|b| !b.is_fast()),
            "{position}: {ballot:?}"
        );
    }
}

#[test]
fn leader_failover_mid_batch_commits_every_member_exactly_once() {
    let batch = BatchConfig::default()
        .with_max_batch(4)
        .with_pipeline_depth(1);
    let config = ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp).with_batch(batch);
    let mut cluster = Cluster::build(config);
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    // Lead the group from Virginia (replica 0), where the batching client
    // lives too.
    cluster.directory().set_group_home(group, 0);
    // A filler takes the committer's only pipeline slot; the four batch
    // members pile up behind it and board the next instance together.
    let window: Vec<Transaction> = (0..5)
        .map(|s| {
            Transaction::builder(TxnId::new(3, s + 1), group, LogPosition(0))
                .write(symbols.item("row", &format!("a{s}")), format!("v{s}"))
                .build()
        })
        .collect();
    let metrics = add_batch_submitter(&mut cluster, 0, group, window);
    // The batch opens as the filler decides, one local hop before the
    // filler's reply arrives.
    while metrics.lock().committed == 0 {
        cluster.run_for(SimDuration::from_millis(1));
    }

    // Crash Oregon while the batch's fast accept to it is still in flight
    // (Virginia ↔ Oregon is a 45 ms one-way hop): the fast round can never
    // be unanimous, so the slot must time out, fall back to a classic
    // round and decide through the surviving majority — without
    // re-proposing any member that already went out.
    cluster.run_for(SimDuration::from_millis(5));
    cluster.crash_datacenter(1);
    cluster.run_for(SimDuration::from_secs(30));

    let m = metrics.lock();
    assert_eq!(m.committed, 5, "every member commits exactly once");
    assert_eq!(m.aborted, 0);
    assert!(
        m.combined_commits >= 4,
        "the batch rides one combined entry"
    );
    drop(m);
    // One instance decided the filler and one the whole batch; no member
    // appears twice (L2 is checked by verify, the counts pin it down
    // explicitly).
    assert_eq!(cluster.committed_in_log(0, "g"), 5);
    assert_eq!(cluster.decided_instances_id(0, group), 2);
    assert_classic_decision(&cluster, group, &[2]);

    // The recovered datacenter catches up and agrees.
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
                    promotions: None,
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
fn janitor_reproposes_the_orphaned_position_and_unwedges_read_transactions() {
    // The orphaned value at position 1 conflict-aborts every read-carrying
    // transaction — the liveness failure mode of the ROADMAP — until the
    // first undecided position has stayed orphaned past the janitor's
    // patience window. Then the service re-proposes it through a recovery
    // instance, which adopts the majority-voted value per the Paxos safety
    // rule. The position decides, the prefix advances, and read-carrying
    // transactions commit again.
    let mut cluster = Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp));
    // The first hint comes with the orphan's own prepares, and the window
    // is one message timeout long: no re-proposal can start before this.
    let patience_ends = cluster.now() + cluster.config().topology.message_timeout;
    seed_orphaned_position(&mut cluster);
    let writer_started = cluster.now();
    let metrics = add_writer(&mut cluster, 0, 100);
    cluster.run_for(patience_ends.since(cluster.now()) - SimDuration::from_micros(1));
    let m = metrics.lock();
    assert_eq!(
        m.committed, 0,
        "read-carrying transactions must stay wedged behind the orphan"
    );
    assert!(m.aborted > 0, "the writer must have tried and aborted");
    drop(m);
    cluster.run_for(SimDuration::from_secs(30) - cluster.now().since(writer_started));
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
                    promotions: None,
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
    // Virginia (dc0) leads the group and hosts its pipelined committer,
    // which fills its two slots with one filler each while the eight batch
    // members pile up behind them. When the fillers decide, two batches of
    // four open slots at positions 3 and 4, whose fast accepts leave at
    // once. Oregon (dc1) crashes 5 ms after the fillers' replies — while
    // BOTH batch slots are mid-accept, their accepts to it still crossing
    // the 45 ms hop — so neither fast round can be unanimous: each slot
    // must reach its majority through the surviving datacenters, and every
    // member must commit exactly once (no double-apply, no loss).
    let batch = BatchConfig::default()
        .with_max_batch(4)
        .with_pipeline_depth(2);
    let config = ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp).with_batch(batch);
    let mut cluster = Cluster::build(config);
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    cluster.directory().set_group_home(group, 0);
    let window: Vec<Transaction> = (0..10)
        .map(|s| {
            Transaction::builder(TxnId::new(3, s + 1), group, LogPosition(0))
                .write(symbols.item("row", &format!("a{s}")), format!("v{s}"))
                .build()
        })
        .collect();
    let metrics = add_batch_submitter(&mut cluster, 0, group, window);
    while metrics.lock().committed < 2 {
        cluster.run_for(SimDuration::from_millis(1));
    }

    cluster.run_for(SimDuration::from_millis(5));
    cluster.crash_datacenter(1);
    cluster.run_for(SimDuration::from_secs(30));

    let m = metrics.lock();
    assert_eq!(m.committed, 10, "every member of every slot commits");
    assert_eq!(m.aborted, 0);
    drop(m);
    let engine = cluster.service_commit_metrics();
    assert_eq!(
        engine.max_pipeline_depth(),
        2,
        "both instances must have been in flight together"
    );
    assert_eq!(
        engine.window_occupancy,
        [1, 1, 4, 4],
        "two fillers, then two full batches"
    );
    assert_eq!(cluster.committed_in_log(0, "g"), 10, "no double-apply");
    assert_eq!(cluster.decided_instances_id(0, group), 4);
    assert_classic_decision(&cluster, group, &[3, 4]);

    cluster.recover_datacenter(1);
    cluster.run_to_completion();
    cluster
        .verify()
        .expect("post-crash logs must agree and be serializable");
}

#[test]
fn a_retry_that_reaches_the_new_home_commits_once_beside_the_old_homes_stalled_slot() {
    // Virginia (dc0) homes "g", and dc2 is down, so no fast round can be
    // unanimous. M's first request opens a slot at dc0 for position 1; dc0
    // and dc1 vote for it, and the slot waits. The home moves to dc1, and a
    // filler F and then M's retry reach dc1 back to back. Without a
    // takeover, F's slot at 1 would adopt the stalled vote, so M commits at
    // 1, while M's retry, already in a speculative slot at 2, commits again
    // there. The new home first settles every position dc0 could still have
    // in flight: through the highest one a majority touched (1) plus one
    // pipeline (depth 8).
    const DEPTH: u64 = 8;
    let batch = BatchConfig::default().with_pipeline_depth(DEPTH as usize);
    let config = ClusterConfig::new(Topology::vvv().with_jitter(0.0), CommitProtocol::PaxosCp)
        .with_batch(batch);
    let mut cluster = Cluster::build(config);
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    assert_eq!(cluster.directory().group_home(group), 0);
    let write = |seq: u64, attr: &str| {
        Transaction::builder(TxnId::new(3, seq), group, LogPosition(0))
            .write(symbols.item("row", attr), "v")
            .build()
    };
    let (member, filler) = (write(1, "m"), write(2, "f"));
    cluster.crash_datacenter(2);
    let first = add_batch_submitter(&mut cluster, 1, group, vec![member.clone()]);
    cluster.run_for(SimDuration::from_millis(10));
    assert_eq!(first.lock().attempted, 0, "the old home's slot stalls");
    cluster.directory().set_group_home(group, 1);
    let retry = add_batch_submitter(&mut cluster, 1, group, vec![filler.clone(), member.clone()]);
    cluster.run_for(SimDuration::from_secs(30));
    assert_eq!(retry.lock().committed, 2, "both commit at the new home");
    // Two slots opened in all: M's at the old home, F's above the target.
    assert_eq!(cluster.service_commit_metrics().window_occupancy, [1, 1]);
    // dc2 comes back, and a last commit decides above its gap, so it
    // learns the positions it missed.
    cluster.recover_datacenter(2);
    let last = add_batch_submitter(&mut cluster, 1, group, vec![write(3, "l")]);
    cluster.run_to_completion();
    assert_eq!(last.lock().committed, 1);

    let target = 1 + DEPTH;
    for replica in 0..3 {
        let core = cluster.core(replica);
        let core = core.lock();
        let log = core.log(group).expect("group log");
        let at = |id: TxnId| -> Vec<u64> {
            let holding = log.iter().filter(|(_, entry)| entry.contains(id));
            holding.map(|(position, _)| position.0).collect()
        };
        assert_eq!(at(member.id), [1], "replica {replica}");
        let [position] = at(filler.id)[..] else {
            panic!("replica {replica}: F at {:?}", at(filler.id));
        };
        assert!(position > target, "replica {replica}: F at {position}");
        // Everything between M and the target was settled with no-ops.
        let noops = (2..=target).filter(|p| log.get(LogPosition(*p)).is_some_and(|e| e.is_noop()));
        assert_eq!(noops.count() as u64, target - 1, "replica {replica}");
    }
    cluster
        .verify()
        .expect("a takeover keeps the logs agreed and serializable");
}

#[test]
fn lost_pipeline_slot_resubmits_survivors_in_order_exactly_once() {
    // A dead proposer's value at position 3 is chosen: every acceptor
    // voted for it, so any prepare quorum reports it as decided. The
    // pipelined committer fills its two slots with fillers at positions 1
    // and 2, and its eight members pile up behind them. When the fillers
    // decide, t1..t4 open a slot at position 3 and t5..t8 one at position
    // 4. The slot at position 3 loses: it must adopt and push the voted
    // value through (so position 3 decides locally), then reschedule
    // t1..t4, in order, at the pipeline tail (position 5). Every
    // transaction commits exactly once and the per-position entries prove
    // the recovery order. Jitter-free, so the home receives the window in
    // submission order.
    let batch = BatchConfig::default()
        .with_max_batch(4)
        .with_pipeline_depth(2);
    let config = ClusterConfig::new(Topology::voc().with_jitter(0.0), CommitProtocol::PaxosCp)
        .with_batch(batch);
    let mut cluster = Cluster::build(config);
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    cluster.directory().set_group_home(group, 0);
    let foreign = Transaction::builder(TxnId::new(9, 1), group, LogPosition(0))
        .write(symbols.item("row", "theirs"), "b")
        .build();
    let value = Arc::new(LogEntry::single(foreign));
    let ballot = Ballot::initial(99);
    let position = LogPosition(3);
    let seed_at_every_acceptor = |cluster: &mut Cluster, msg: PaxosMsg| {
        let to_send = (0..3)
            .map(|replica| (cluster.service_node(replica), Msg::Paxos(msg.clone())))
            .collect();
        cluster.add_client(0, move |_node| {
            Box::new(Prober {
                to_send,
                received: Arc::new(Mutex::new(Vec::new())),
            })
        });
    };
    seed_at_every_acceptor(
        &mut cluster,
        PaxosMsg::Prepare {
            group,
            position,
            ballot,
        },
    );
    // Wide-area deliveries may overtake each other, and an accept that
    // arrives before its prepare is refused: vote once every promise landed.
    cluster.run_for(SimDuration::from_millis(60));
    seed_at_every_acceptor(
        &mut cluster,
        PaxosMsg::Accept {
            group,
            position,
            ballot,
            value,
            promotions: None,
        },
    );
    let window: Vec<Transaction> = (0..10)
        .map(|s| {
            let id = if s < 2 { 100 + s } else { s - 1 };
            Transaction::builder(TxnId::new(3, id), group, LogPosition(0))
                .write(symbols.item("row", &format!("a{s}")), format!("v{s}"))
                .build()
        })
        .collect();
    let a_metrics = add_batch_submitter(&mut cluster, 0, group, window);
    cluster.run_to_completion();

    let a = a_metrics.lock();
    assert_eq!(a.committed, 10, "all pipelined members commit exactly once");
    assert_eq!(a.aborted, 0);
    assert_eq!(
        a.commits_by_promotion,
        vec![6, 4],
        "the fillers and t5..t8 commit directly, the lost slot's \
         survivors commit after exactly one rescheduling"
    );
    drop(a);
    assert_eq!(cluster.committed_in_log(0, "g"), 11, "no double-apply");
    assert_eq!(cluster.decided_instances_id(0, group), 5);

    // The per-position entries prove in-order recovery: the fillers kept
    // positions 1 and 2, the voted value won position 3, t5..t8 kept
    // position 4, and the lost slot's survivors were rescheduled — as one
    // block, in submission order — at the tail position 5.
    let core = cluster.core(0);
    let core = core.lock();
    let log = core.log(group).expect("group log");
    let ids_at = |p: u64| -> Vec<TxnId> { log.get(LogPosition(p)).unwrap().txn_ids() };
    assert_eq!(ids_at(1), vec![TxnId::new(3, 100)]);
    assert_eq!(ids_at(2), vec![TxnId::new(3, 101)]);
    assert_eq!(ids_at(3), vec![TxnId::new(9, 1)]);
    assert_eq!(
        ids_at(4),
        (5..=8).map(|s| TxnId::new(3, s)).collect::<Vec<_>>()
    );
    assert_eq!(
        ids_at(5),
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
