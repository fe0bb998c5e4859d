//! Submitted commits learn their fate from copies of the acceptors' votes.
//!
//! An acceptor that votes for a group committer slot's own entry copies the
//! vote to the client of each member outside the committer's datacenter,
//! and the client answers a member once the copies show its entry decided.
//! These tests hold the copies to what the home's `CommitReply` says, to
//! the clients they may reach, and — through the harness's early-answer
//! audit — to the decided log, with and without faults.

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, BatchConfig, ClientAction, Cluster, ClusterConfig, CommitProtocol,
    CommitRoute, Msg, Session, StorageConfig, Topology, TxnResult,
};
use paxos_cp::paxos::{Ballot, PaxosMsg};
use paxos_cp::simnet::{Actor, Context, NodeId, SimDuration};
use paxos_cp::walog::{LogEntry, LogPosition, Transaction, TxnId};
use paxos_cp::workload::{run_load, ClusterShape, LoadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The timer tag that starts a recorder's commits.
const START: u64 = u64::MAX;

/// What a recorder client saw.
#[derive(Default)]
struct Seen {
    /// The session's answers, by transaction.
    results: BTreeMap<TxnId, TxnResult>,
    /// The home's replies, as `(committed, promotions, combined)`.
    replies: BTreeMap<TxnId, (bool, u32, bool)>,
    /// Every vote copy that reached the client.
    copies: Vec<Msg>,
}

/// A client that commits `txns` blind writes on one session at
/// `start_after`, all at once, and records every answer, reply and copy.
struct Recorder {
    session: Session,
    txns: usize,
    start_after: SimDuration,
    seen: Arc<Mutex<Seen>>,
}

impl Recorder {
    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            let id = result.txn.expect("a write has an id");
            self.seen.lock().results.insert(id, result);
        }
    }
}

impl Actor<Msg> for Recorder {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        ctx.set_timer(self.start_after, START);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match &msg {
            Msg::CommitReply {
                txn,
                committed,
                promotions,
                combined,
                ..
            } => {
                let fate = (*committed, *promotions, *combined);
                self.seen.lock().replies.insert(*txn, fate);
            }
            Msg::VoteCopy { .. } => self.seen.lock().copies.push(msg.clone()),
            _ => {}
        }
        let actions = self.session.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag != START {
            let actions = self.session.on_timer(ctx.now(), tag);
            return self.apply(ctx, actions);
        }
        for i in 0..self.txns {
            let h = self.session.begin(ctx.now(), "g");
            self.session
                .write(h, "row", &format!("a{i}"), "v")
                .expect("an open handle takes writes");
            let actions = self.session.commit(ctx.now(), h).expect("commits");
            self.apply(ctx, actions);
        }
    }
}

fn add_recorder(
    cluster: &mut Cluster,
    replica: usize,
    route: CommitRoute,
    txns: usize,
    start_after: SimDuration,
) -> (NodeId, Arc<Mutex<Seen>>) {
    let seen = Arc::new(Mutex::new(Seen::default()));
    let sink = Arc::clone(&seen);
    let directory = cluster.directory();
    let config = cluster.client_config().with_route(route);
    let node = cluster.add_client(replica, |node| {
        Box::new(Recorder {
            session: Session::new(node, replica, directory, config),
            txns,
            start_after,
            seen: sink,
        })
    });
    (node, seen)
}

/// A client that sends `to_send` at start and ignores what comes back.
struct Sender {
    to_send: Vec<(NodeId, Msg)>,
}

impl Actor<Msg> for Sender {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        for (to, msg) in self.to_send.drain(..) {
            ctx.send(to, msg);
        }
    }
    fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {}
}

fn at_every_acceptor(cluster: &mut Cluster, msg: PaxosMsg) {
    let to_send = (0..cluster.num_datacenters())
        .map(|replica| (cluster.service_node(replica), Msg::Paxos(msg.clone())))
        .collect();
    cluster.add_client(0, move |_| Box::new(Sender { to_send }));
}

/// The lost-slot shape of
/// `fault_tolerance::lost_pipeline_slot_resubmits_survivors_in_order_exactly_once`,
/// on the service's committer: a value every acceptor voted for holds
/// position 3, so the slot that proposes there loses it and its members are
/// promoted once. Every member is answered from the copies, with the
/// promotions and combination the home's late reply reports; the adopted
/// value at position 3 is copied to nobody, though it names the client.
#[test]
fn a_promoted_member_learns_the_same_fate_from_the_copies_as_from_its_reply() {
    let config = ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp)
        .with_batch(BatchConfig::default().with_max_batch(4));
    let mut cluster = Cluster::build(config);
    let symbols = cluster.symbols();
    let group = symbols.group("g");
    cluster.directory().set_group_home(group, 0);
    // Oregon: every vote reaches it a wide-area hop before the reply.
    let start = SimDuration::from_millis(200);
    let (client, seen) = add_recorder(&mut cluster, 1, CommitRoute::Submitted, 10, start);
    let foreign = TxnId::new(client.0, 999);
    let value = Arc::new(LogEntry::single(
        Transaction::builder(foreign, group, LogPosition(0))
            .write(symbols.item("row", "theirs"), "b")
            .build(),
    ));
    let (position, ballot) = (LogPosition(3), Ballot::initial(99));
    at_every_acceptor(
        &mut cluster,
        PaxosMsg::Prepare {
            group,
            position,
            ballot,
        },
    );
    cluster.run_for(SimDuration::from_millis(60));
    at_every_acceptor(
        &mut cluster,
        PaxosMsg::Accept {
            group,
            position,
            ballot,
            value,
            promotions: None,
        },
    );
    cluster.run_to_completion();

    let seen = seen.lock();
    assert_eq!(seen.results.len(), 10);
    assert_eq!(
        seen.replies.len(),
        10,
        "the home still replies to every member"
    );
    let mut promoted = 0;
    for (id, result) in &seen.results {
        assert!(result.committed, "{id:?}");
        let fate = (result.committed, result.promotions, result.combined);
        assert_eq!(seen.replies[id], fate, "{id:?}: copies and reply disagree");
        promoted += usize::from(result.promotions == 1);
    }
    assert!(promoted > 0, "the lost slot's members are promoted once");
    for copy in &seen.copies {
        let Msg::VoteCopy { entry, .. } = copy else {
            unreachable!("only copies are kept");
        };
        assert!(!entry.contains(&foreign), "an adopted value is not copied");
    }
    drop(seen);
    let core = cluster.core(1);
    let core = core.lock();
    let log = core.log(group).expect("group log");
    assert_eq!(log.get(position).unwrap().txn_ids(), [foreign]);
    assert_eq!(log.committed_transaction_count(), 11, "no double-apply");
    drop(core);
    cluster.verify().expect("serializable");
}

/// A client in the committer's datacenter gets no copies, and neither does
/// a direct-route client, whose own proposer learns from its replies.
#[test]
fn no_copy_reaches_a_client_in_the_homes_datacenter_or_on_the_direct_route() {
    let config = ClusterConfig::new(Topology::voc(), CommitProtocol::PaxosCp);
    let mut cluster = Cluster::build(config);
    let group = cluster.symbols().group("g");
    cluster.directory().set_group_home(group, 0);
    let start = SimDuration::ZERO;
    let (_, local) = add_recorder(&mut cluster, 0, CommitRoute::Submitted, 6, start);
    let (_, direct) = add_recorder(&mut cluster, 1, CommitRoute::Direct, 6, start);
    cluster.run_to_completion();
    for (seen, who) in [(local, "home datacenter"), (direct, "direct route")] {
        let seen = seen.lock();
        assert_eq!(seen.results.len(), 6, "{who}");
        assert!(seen.results.values().all(|r| r.committed), "{who}");
        assert!(seen.copies.is_empty(), "{who}: {:?}", seen.copies);
    }
    cluster.verify().expect("serializable");
}

/// Every early answer names a transaction the decided log holds at the
/// position its copies named: `run_load` audits each one, on a fault-free
/// run and under rolling crashes, flaps and home churn. The parallel
/// runtime's raw `CommitRequest` port learns from copies too.
#[test]
fn every_early_answer_is_decided_where_its_copies_said() {
    let faulty = LoadSpec::rolling_failure(SimDuration::from_secs(10)).with_seed(3);
    let mut calm = faulty.clone().named("rolling-failure-without-faults");
    calm.shape = ClusterShape::Sim {
        storage: StorageConfig::InMemory,
        chaos: None,
    };
    for spec in [calm, faulty] {
        let result = run_load(&spec);
        assert_eq!(result.unavailable, 0, "{}", spec.name);
        assert!(
            result.early_answers * 2 > result.totals.committed as usize,
            "{}: {} of {} commits answered early",
            spec.name,
            result.early_answers,
            result.totals.committed
        );
    }
    let wire = run_load(&LoadSpec::open_loop(1, 300.0));
    assert!(wire.early_answers > 0, "the raw port answers from copies");
}
