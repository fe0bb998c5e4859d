//! Protocol-level properties of basic Paxos vs. Paxos-CP, checked on whole
//! simulated runs: the claims of §4–§6 of the paper as executable tests.

use parking_lot::Mutex;
use paxos_cp::mdstore::{
    apply_client_actions, AbortReason, ClientAction, Cluster, ClusterConfig, CommitProtocol, Msg,
    Session, Topology, TxnResult, BACKOFF_MAX,
};
use paxos_cp::paxos::PaxosMsg;
use paxos_cp::simnet::{Actor, Context, NodeId};
use paxos_cp::walog::{LogPosition, TxnId};
use paxos_cp::workload::{place, run_load, LoadSpec, Names};
use std::collections::BTreeSet;
use std::sync::Arc;

fn contended_spec(protocol: CommitProtocol, seed: u64) -> LoadSpec {
    LoadSpec::paper_default(Topology::vvv(), protocol)
        .named(format!("prop-{}-{seed}", protocol.name()))
        .with_clients(4, 25)
        .with_keys(100)
        .with_seed(seed)
}

#[test]
fn basic_paxos_never_promotes_or_combines() {
    let result = run_load(&contended_spec(CommitProtocol::BasicPaxos, 1));
    assert_eq!(result.totals.promoted_commits(), 0);
    assert_eq!(result.totals.combined_commits, 0);
    assert_eq!(result.totals.commits_by_promotion.len().max(1), 1);
}

#[test]
fn paxos_cp_commits_strictly_more_than_basic_under_contention() {
    // The paper's headline result (Figures 4, 6, 7, 8): under contention the
    // promotion mechanism recovers transactions basic Paxos would abort.
    for seed in [3, 5, 8] {
        let basic = run_load(&contended_spec(CommitProtocol::BasicPaxos, seed));
        let cp = run_load(&contended_spec(CommitProtocol::PaxosCp, seed));
        assert!(
            cp.totals.committed > basic.totals.committed,
            "seed {seed}: cp {} vs basic {}",
            cp.totals.committed,
            basic.totals.committed
        );
        assert!(
            cp.totals.promoted_commits() > 0,
            "promotions must contribute"
        );
    }
}

#[test]
fn paxos_cp_direct_commits_never_back_off_at_a_position_their_home_log_holds() {
    // Paper §5: a transaction that lost its position moves on to the next
    // one. On this run every round a direct commit loses is at a position
    // its home log already holds, so the commit must learn the winner
    // there and promote at once: no back-off at all, and no commit as slow
    // as one back-off window. (Re-preparing such a position after a
    // back-off only learns the same winner, and was this run's whole tail.)
    for seed in [3, 5, 8] {
        let spec = contended_spec(CommitProtocol::PaxosCp, seed);
        let result = run_load(&spec);
        let totals = &result.totals;
        assert!(
            totals.learned_from_home_log > 0,
            "seed {seed}: the contended run must lose positions"
        );
        assert_eq!(totals.direct_backoffs, 0, "seed {seed}");
        let slowest = totals.commit_latency().max_ms;
        assert!(
            slowest < BACKOFF_MAX.as_millis_f64(),
            "seed {seed}: a commit took {slowest} ms"
        );
    }
}

#[test]
fn promotion_cap_bounds_the_promotion_rounds() {
    let mut spec = contended_spec(CommitProtocol::PaxosCp, 13);
    spec.client.max_promotions = Some(1);
    let result = run_load(&spec);
    assert!(
        result.totals.commits_by_promotion.len() <= 2,
        "no commit may use more than one promotion, got {:?}",
        result.totals.commits_by_promotion
    );
}

#[test]
fn unlimited_promotions_commit_at_least_as_many_as_capped() {
    let mut capped = contended_spec(CommitProtocol::PaxosCp, 21);
    capped.client.max_promotions = Some(0);
    let capped_result = run_load(&capped);
    let unlimited_result = run_load(&contended_spec(CommitProtocol::PaxosCp, 21));
    assert!(
        unlimited_result.totals.committed >= capped_result.totals.committed,
        "unlimited {} vs capped {}",
        unlimited_result.totals.committed,
        capped_result.totals.committed
    );
}

#[test]
fn disabling_combination_still_produces_correct_histories() {
    let mut spec = contended_spec(CommitProtocol::PaxosCp, 34);
    spec.client.combination = false;
    let result = run_load(&spec);
    assert_eq!(result.totals.combined_commits, 0);
    assert!(result.totals.committed > 0);
}

#[test]
fn disabling_the_fast_path_still_commits_everything_eventually() {
    let mut spec = contended_spec(CommitProtocol::PaxosCp, 45);
    spec.client.fast_path = false;
    let result = run_load(&spec);
    assert_eq!(result.totals.attempted, 100);
    assert!(result.totals.committed > 0);
}

#[test]
fn low_contention_lets_paxos_cp_commit_nearly_everything() {
    // Mirrors the right-hand side of Figure 6: with 500 attributes and ten
    // operations per transaction, read-write conflicts are rare, so almost
    // every transaction commits (directly or after promotion).
    let spec = contended_spec(CommitProtocol::PaxosCp, 60).with_keys(500);
    let result = run_load(&spec);
    let ratio = result.commit_ratio();
    assert!(
        ratio > 0.9,
        "expected >90% commits at low contention, got {ratio}"
    );
}

#[test]
fn higher_offered_load_does_not_break_safety_and_lowers_commit_ratio() {
    // Mirrors Figure 7: more offered load means more competition for each
    // log position; commit counts drop but serializability always holds.
    let slow = run_load(&contended_spec(CommitProtocol::BasicPaxos, 70).with_target_tps(0.5));
    let fast = run_load(&contended_spec(CommitProtocol::BasicPaxos, 70).with_target_tps(8.0));
    assert!(
        fast.totals.committed <= slow.totals.committed,
        "fast {} vs slow {}",
        fast.totals.committed,
        slow.totals.committed
    );
}

/// Paxos state is not data: after a contended run every key in every
/// datacenter's store names an application row of the load, while the
/// acceptor still answers with the decided vote for every position.
#[test]
fn after_a_contended_run_the_store_holds_only_application_rows() {
    let spec = contended_spec(CommitProtocol::PaxosCp, 3);
    let mut cluster = Cluster::build(
        ClusterConfig::new(spec.topology.clone(), spec.client.protocol).with_seed(spec.seed),
    );
    let names = Arc::new(Names::intern(&cluster.symbols(), &spec.keyspace));
    let fleet = place(&mut cluster, &spec, &names);
    cluster.run_to_completion();
    assert!(fleet.totals().committed > 0);
    let rows: BTreeSet<u64> = names
        .groups
        .iter()
        .flat_map(|g| {
            names
                .rows
                .iter()
                .map(|r| (u64::from(g.0) << 32) | u64::from(r.0))
        })
        .collect();
    for replica in 0..cluster.num_datacenters() {
        let core = cluster.core(replica);
        let core = core.lock();
        let keys = core.store().keys();
        assert!(!keys.is_empty(), "replica {replica} applied nothing");
        for key in keys {
            assert!(
                rows.contains(&key.0),
                "replica {replica}: store key {key} is not an application row"
            );
        }
        for (group, log) in core.logs() {
            assert!(log.len() > 1, "replica {replica}: the run must decide");
            for (position, entry) in log.iter() {
                let (_, vote) = core
                    .acceptor()
                    .current_vote(group, position)
                    .unwrap_or_else(|| panic!("replica {replica}: no vote at {position}"));
                assert_eq!(vote, *entry, "replica {replica}: vote at {position}");
            }
        }
    }
}

/// What a [`Racer`]'s one commit did: whether `commit()` itself broadcast a
/// fast-ballot accept (the claim was granted in-process), and its result.
#[derive(Default)]
struct Race {
    fast: Option<bool>,
    result: Option<TxnResult>,
}

/// A direct-route client that, at start, writes `row.a` — after reading it
/// when `reads` — and commits.
struct Racer {
    session: Session,
    reads: bool,
    race: Arc<Mutex<Race>>,
}

impl Racer {
    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for result in apply_client_actions(ctx, actions) {
            self.race.lock().result = Some(result);
        }
    }
}

impl Actor<Msg> for Racer {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        let h = self.session.begin(ctx.now(), "g");
        if self.reads {
            self.session
                .read(h, "row", "a")
                .expect("an open handle reads");
        }
        self.session
            .write(h, "row", "a", "mine")
            .expect("an open handle takes writes");
        let actions = self.session.commit(ctx.now(), h).expect("commits");
        let fast = actions.iter().any(|action| {
            matches!(
                action,
                ClientAction::Send(_, Msg::Paxos(PaxosMsg::Accept { ballot, .. })) if ballot.is_fast()
            )
        });
        self.race.lock().fast = Some(fast);
        self.apply(ctx, actions);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let actions = self.session.on_message(ctx.now(), from, &msg);
        self.apply(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        let actions = self.session.on_timer(ctx.now(), tag);
        self.apply(ctx, actions);
    }
}

#[test]
fn two_sessions_in_the_leaders_datacenter_race_for_one_position_and_one_gets_the_fast_path() {
    // Both sessions live in the group's home, which leads position 1, and
    // claim it in-process in the same instant. Exactly one claim is
    // granted; the other commit takes the classic path and loses the
    // position. A commit that read `row.a` aborts on the winner's write
    // (paper §5); a blind write is promoted past it to a later position.
    for reads in [true, false] {
        let mut cluster = Cluster::build(
            ClusterConfig::new(Topology::vvv().with_jitter(0.0), CommitProtocol::PaxosCp)
                .with_seed(7),
        );
        let directory = cluster.directory();
        let group = directory.symbols().group("g");
        directory.set_group_home(group, 0);
        let races: Vec<Arc<Mutex<Race>>> = (0..2)
            .map(|_| {
                let race = Arc::new(Mutex::new(Race::default()));
                let sink = Arc::clone(&race);
                let (directory, config) = (cluster.directory(), cluster.client_config());
                cluster.add_client(0, move |node| {
                    Box::new(Racer {
                        session: Session::new(node, 0, directory, config),
                        reads,
                        race: sink,
                    })
                });
                race
            })
            .collect();
        cluster.run_to_completion();

        let fast: Vec<bool> = races.iter().map(|r| r.lock().fast.unwrap()).collect();
        assert_eq!(
            fast.iter().filter(|&&f| f).count(),
            1,
            "reads {reads}: exactly one claim is granted, got {fast:?}"
        );
        let results: Vec<TxnResult> = races
            .iter()
            .map(|r| r.lock().result.clone().expect("every commit finishes"))
            .collect();
        let winner = fast.iter().position(|&f| f).unwrap();
        let (won, lost) = (&results[winner], &results[1 - winner]);
        assert!(won.committed, "reads {reads}: the fast path commits");

        let core = cluster.core(0);
        let core = core.lock();
        let log = core.log(group).expect("the group has a log");
        let position_of = |id: TxnId| -> Vec<LogPosition> {
            log.iter()
                .filter(|(_, entry)| entry.transactions().iter().any(|t| t.id == id))
                .map(|(position, _)| position)
                .collect()
        };
        assert_eq!(position_of(won.txn.unwrap()), [LogPosition(1)]);
        if reads {
            assert!(!lost.committed);
            assert_eq!(lost.abort_reason, Some(AbortReason::Conflict));
            assert!(position_of(lost.txn.unwrap()).is_empty());
        } else {
            assert!(lost.committed, "a blind write is promoted");
            assert_eq!(position_of(lost.txn.unwrap()), [LogPosition(2)]);
        }
        drop(core);
        for replica in 0..cluster.num_datacenters() {
            for result in &results {
                let id = result.txn.unwrap();
                let held = cluster.core(replica).lock().log(group).map_or(0, |log| {
                    log.iter()
                        .filter(|(_, e)| e.transactions().iter().any(|t| t.id == id))
                        .count()
                });
                assert!(
                    held <= 1,
                    "replica {replica}: {id} is in the log {held} times"
                );
            }
        }
        cluster.verify().expect("serializable");
    }
}

/// The loss ablation's spec at 25 % message loss over thirty seeds (≈ 1.5 s
/// in release). A proposer that promoted past a majority assembled from
/// different ballots committed one transaction at two positions here (seed
/// 58: transaction (4, 12) at positions 33 and 35; seed 66: (5, 88) at 199
/// and 200). Every run must verify: replica agreement, one-copy
/// serializability and each observed commit exactly once in the log.
#[test]
fn paxos_cp_commits_exactly_once_under_25pct_message_loss() {
    let failed: Vec<u64> = (42..72)
        .filter(|&seed| {
            let spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
                .named(format!("lossy-25pct-{seed}"))
                .with_topology(Topology::vvv().with_loss(0.25))
                .with_seed(seed);
            std::panic::catch_unwind(|| run_load(&spec)).is_err()
        })
        .collect();
    assert!(failed.is_empty(), "seeds failing verification: {failed:?}");
}
