//! The one proposer host: every [`Proposer`] this crate runs is driven here.
//!
//! The paper uses one Paxos instance protocol in two roles — a client
//! commits a transaction (Algorithm 2) and a Transaction Service with a log
//! gap learns the missing entry (§4.1) — and this crate runs it for three
//! callers, each keying its instances its own way:
//!
//! * the [`crate::Session`]'s direct route, by transaction handle;
//! * the [`crate::GroupCommitter`]'s pipeline slots, by slot position;
//! * the [`crate::TransactionService`]'s recovery instances, by
//!   `(group, position)`.
//!
//! [`Proposers`] holds the running instances by key plus a
//! `tag → (key, token)` timer route, turns a replica's reply into a
//! [`ProposerEvent`] ([`ProposerEvent::from_reply`]), and carries out every
//! [`ProposerAction`] itself: broadcasts go to every replica's service,
//! leader claims to [`Directory::leader_replica`], timers are tagged from
//! the embedding actor's counter with the delay its policy chooses, learned
//! entries install at the host's datacenter, and a finished instance is
//! removed and its [`CommitOutcome`] handed back. The caller keeps only what
//! is its own: queueing, leases and results (session), windows, pipelining
//! and survivors (committer), the janitor (service).
//!
//! One input is the session's alone: [`Input::Decided`] hands an instance
//! the decided value of its position from the host datacenter's log, so a
//! direct commit that lost an already-settled position moves on at once
//! instead of re-preparing it after a back-off.

use crate::directory::Directory;
use crate::msg::Msg;
use crate::session::ClientAction;
use paxos::{CommitOutcome, PaxosMsg, Proposer, ProposerAction, ProposerEvent, TimerKind};
use simnet::{NodeId, SimDuration};
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::{GroupId, LogEntry, LogPosition};

/// What a host call feeds its instances.
pub(crate) enum Input<'m, K> {
    /// Start a new instance under `key`. (Boxed: a `Proposer` is large, and
    /// the host's map nodes stay small when they hold pointers.)
    Start(K, Box<Proposer>),
    /// A message from node `NodeId` for the instance under `key`; anything
    /// other than a replica service's reply is ignored.
    Reply(K, NodeId, &'m PaxosMsg),
    /// A timer tag fired; tags this host never armed are ignored.
    Timer(u64),
    /// The host's datacenter log holds `entry` at `position`: the instance
    /// under `key` resolves that position if it still competes there
    /// ([`ProposerEvent::Decided`]).
    Decided(K, LogPosition, Arc<LogEntry>),
}

/// The embedding actor's side of a host call.
pub(crate) struct Env<'a> {
    /// Replica → service node, leader lookups and datacenter cores.
    pub directory: &'a Directory,
    /// The datacenter the host runs in: learned entries install here and
    /// leader lookups read its log.
    pub home: usize,
    /// The embedding actor's timer-tag counter, shared with its own timers.
    pub next_tag: &'a mut u64,
    /// The delay of each timer kind: the one policy the three callers
    /// deliberately choose differently.
    pub delay: &'a mut dyn FnMut(TimerKind) -> SimDuration,
}

/// The running proposer instances of one caller, by key.
pub(crate) struct Proposers<K> {
    running: BTreeMap<K, Box<Proposer>>,
    /// Timer tag → (instance key, proposer timer token). A tag whose
    /// instance finished stays until it fires, and then does nothing.
    timers: BTreeMap<u64, (K, u64)>,
}

impl<K: Ord + Copy> Default for Proposers<K> {
    fn default() -> Self {
        Proposers {
            running: BTreeMap::new(),
            timers: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> Proposers<K> {
    /// Whether an instance runs under `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.running.contains_key(key)
    }

    /// Drop the instance under `key` without an outcome (its position was
    /// decided by someone else), handing it back.
    pub fn remove(&mut self, key: &K) -> Option<Box<Proposer>> {
        self.running.remove(key)
    }

    /// Drop every instance whose key fails `keep`, without outcomes.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.running.retain(|key, _| keep(key));
    }

    /// Every armed timer tag, ascending — what a crash-recovery hook
    /// re-fires, since the simulator suppressed the fires during the outage.
    pub fn armed_tags(&self) -> impl Iterator<Item = u64> + '_ {
        self.timers.keys().copied()
    }

    /// The instance a timer tag is armed for.
    pub fn timer_key(&self, tag: u64) -> Option<K> {
        self.timers.get(&tag).map(|(key, _)| *key)
    }

    /// The group and position the instance under `key` competes for.
    pub fn competing(&self, key: &K) -> Option<(GroupId, LogPosition)> {
        let proposer = self.running.get(key)?;
        Some((proposer.group(), proposer.current_position()))
    }

    /// Feed one input to its instance and carry out what the instance asks
    /// for. Sends and timers go to `out`; an instance that finished is
    /// removed and returned with its outcome.
    pub fn drive(
        &mut self,
        input: Input<'_, K>,
        env: Env<'_>,
        out: &mut Vec<ClientAction>,
    ) -> Option<(K, CommitOutcome)> {
        let (key, group, actions) = match input {
            Input::Start(key, mut proposer) => {
                debug_assert!(!self.running.contains_key(&key), "instance key reused");
                let actions = proposer.start();
                let group = proposer.group();
                self.running.insert(key, proposer);
                (key, group, actions)
            }
            Input::Reply(key, from, msg) => {
                let proposer = self.running.get_mut(&key)?;
                let replica = env.directory.replica_of_service(from)?;
                let event = ProposerEvent::from_reply(replica, msg)?;
                (key, proposer.group(), proposer.on_event(event))
            }
            Input::Timer(tag) => {
                let (key, token) = self.timers.remove(&tag)?;
                let proposer = self.running.get_mut(&key)?;
                let actions = proposer.on_event(ProposerEvent::Timer { token });
                (key, proposer.group(), actions)
            }
            Input::Decided(key, position, entry) => {
                let proposer = self.running.get_mut(&key)?;
                let actions = proposer.on_event(ProposerEvent::Decided { position, entry });
                (key, proposer.group(), actions)
            }
        };
        self.apply(key, group, actions, env, out)
    }

    /// Carry out every action of one batch, in order — a `Learned` after
    /// the `Finished` that removed its instance still installs: the learned
    /// value is the group's decided history, not instance state.
    pub fn apply(
        &mut self,
        key: K,
        group: GroupId,
        actions: Vec<ProposerAction>,
        env: Env<'_>,
        out: &mut Vec<ClientAction>,
    ) -> Option<(K, CommitOutcome)> {
        let mut finished = None;
        for action in actions {
            match action {
                ProposerAction::Broadcast(msg) => {
                    for replica in 0..env.directory.num_replicas() {
                        out.push(ClientAction::Send(
                            env.directory.service_node(replica),
                            Msg::Paxos(msg.clone()),
                        ));
                    }
                }
                ProposerAction::SendToLeader(msg) => {
                    let leader = env
                        .directory
                        .leader_replica(env.home, group, msg.position());
                    out.push(ClientAction::Send(
                        env.directory.service_node(leader),
                        Msg::Paxos(msg),
                    ));
                }
                ProposerAction::ArmTimer { token, kind } => {
                    let delay = (env.delay)(kind);
                    *env.next_tag += 1;
                    let tag = *env.next_tag;
                    self.timers.insert(tag, (key, token));
                    out.push(ClientAction::ArmTimer { delay, tag });
                }
                ProposerAction::Learned { position, entry } => {
                    env.directory
                        .core(env.home)
                        .lock()
                        .install_entry(group, position, entry);
                }
                ProposerAction::Finished(outcome) => {
                    self.running.remove(&key);
                    finished = Some((key, outcome));
                }
            }
        }
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DatacenterCore;
    use paxos::{Ballot, ProposerConfig};
    use std::sync::Arc;
    use walog::{LogPosition, Transaction, TxnId};

    const DELAY: SimDuration = SimDuration::from_millis(7);
    /// The datacenter the host under test runs in.
    const HOME: usize = 1;

    /// Three datacenters whose services are nodes 0, 1 and 2.
    fn three_dcs() -> (Arc<Directory>, GroupId) {
        let dir = Directory::new();
        for replica in 0..3 {
            dir.register_datacenter(
                NodeId(replica),
                DatacenterCore::shared(format!("dc{replica}"), replica as usize),
            );
        }
        let group = dir.symbols().group("g");
        (dir, group)
    }

    fn drive(
        host: &mut Proposers<LogPosition>,
        directory: &Directory,
        next_tag: &mut u64,
        input: Input<'_, LogPosition>,
    ) -> (Vec<ClientAction>, Option<(LogPosition, CommitOutcome)>) {
        let mut out = Vec::new();
        let env = Env {
            directory,
            home: HOME,
            next_tag,
            delay: &mut |_| DELAY,
        };
        let finished = host.drive(input, env, &mut out);
        (out, finished)
    }

    /// The nodes `out` sends a message of `kind` to, in order.
    fn sends_of(out: &[ClientAction], kind: &str) -> Vec<NodeId> {
        out.iter()
            .filter_map(|action| match action {
                ClientAction::Send(to, Msg::Paxos(msg)) if msg.kind() == kind => Some(*to),
                _ => None,
            })
            .collect()
    }

    fn timers_of(out: &[ClientAction]) -> Vec<(SimDuration, u64)> {
        out.iter()
            .filter_map(|action| match action {
                ClientAction::ArmTimer { delay, tag } => Some((*delay, *tag)),
                _ => None,
            })
            .collect()
    }

    fn ballot_of(out: &[ClientAction]) -> Ballot {
        out.iter()
            .find_map(|action| match action {
                ClientAction::Send(_, Msg::Paxos(PaxosMsg::Prepare { ballot, .. })) => {
                    Some(*ballot)
                }
                _ => None,
            })
            .expect("a prepare was broadcast")
    }

    #[test]
    fn a_recovery_instance_runs_from_start_to_outcome_through_the_host() {
        let (dir, group) = three_dcs();
        let key = LogPosition(1);
        let everyone = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut host = Proposers::default();
        let mut next_tag = 10;
        let recovery = Box::new(Proposer::new_recovery(
            ProposerConfig::basic(3),
            group,
            4,
            key,
        ));
        let (out, finished) = drive(&mut host, &dir, &mut next_tag, Input::Start(key, recovery));
        assert!(finished.is_none() && host.contains(&key));
        assert_eq!(sends_of(&out, "prepare"), everyone);
        assert_eq!(
            timers_of(&out),
            [(DELAY, 11)],
            "tagged from the caller's counter"
        );
        assert_eq!(next_tag, 11);
        let ballot = ballot_of(&out);

        let promise = PaxosMsg::PrepareReply {
            group,
            position: key,
            ballot,
            promised: true,
            next_bal: None,
            last_vote: None,
        };
        drive(
            &mut host,
            &dir,
            &mut next_tag,
            Input::Reply(key, NodeId(0), &promise),
        );
        let (out, _) = drive(
            &mut host,
            &dir,
            &mut next_tag,
            Input::Reply(key, NodeId(2), &promise),
        );
        assert_eq!(sends_of(&out, "accept"), everyone);
        assert_eq!(timers_of(&out), [(DELAY, 12)]);
        assert_eq!(host.armed_tags().collect::<Vec<_>>(), [11, 12]);

        let accepted = PaxosMsg::AcceptReply {
            group,
            position: key,
            ballot,
            accepted: true,
        };
        drive(
            &mut host,
            &dir,
            &mut next_tag,
            Input::Reply(key, NodeId(1), &accepted),
        );
        let (out, finished) = drive(
            &mut host,
            &dir,
            &mut next_tag,
            Input::Reply(key, NodeId(0), &accepted),
        );
        let (finished_key, outcome) = finished.expect("an accept majority decides");
        assert_eq!(finished_key, key);
        assert!(!outcome.committed, "recovery commits nothing of its own");
        assert_eq!(sends_of(&out, "apply"), everyone);
        assert!(!host.contains(&key));
        assert!(
            dir.core(HOME).lock().has_entry(group, key),
            "the learned no-op installs at the host's datacenter"
        );
        assert!(!dir.core(0).lock().has_entry(group, key));

        // The finished instance's timers fire into nothing and are dropped.
        let (out, finished) = drive(&mut host, &dir, &mut next_tag, Input::Timer(12));
        assert!(out.is_empty() && finished.is_none());
        assert_eq!(host.armed_tags().collect::<Vec<_>>(), [11]);
    }

    #[test]
    fn leader_claims_go_to_the_groups_leader() {
        let (dir, group) = three_dcs();
        dir.set_group_home(group, 2);
        let txn = Transaction::builder(TxnId::new(3, 1), group, LogPosition(0))
            .write(dir.symbols().item("row", "a"), "1")
            .build();
        let key = LogPosition(1);
        let proposer = Box::new(Proposer::new(
            ProposerConfig::cp(3),
            group,
            3,
            vec![txn],
            key,
        ));
        let mut host = Proposers::default();
        let mut next_tag = 0;
        let (out, _) = drive(&mut host, &dir, &mut next_tag, Input::Start(key, proposer));
        assert_eq!(sends_of(&out, "leader_claim"), [NodeId(2)]);
        assert_eq!(timers_of(&out), [(DELAY, 1)]);
    }

    #[test]
    fn inputs_the_host_cannot_route_change_nothing() {
        let (dir, group) = three_dcs();
        let key = LogPosition(1);
        let mut host = Proposers::default();
        let mut next_tag = 0;
        let recovery = Box::new(Proposer::new_recovery(
            ProposerConfig::basic(3),
            group,
            4,
            key,
        ));
        drive(&mut host, &dir, &mut next_tag, Input::Start(key, recovery));
        let promise = PaxosMsg::PrepareReply {
            group,
            position: key,
            ballot: Ballot::initial(4),
            promised: true,
            next_bal: None,
            last_vote: None,
        };
        let request = PaxosMsg::Prepare {
            group,
            position: key,
            ballot: Ballot::initial(4),
        };
        let noop = Arc::new(LogEntry::noop());
        for input in [
            Input::Reply(key, NodeId(9), &promise),
            Input::Reply(LogPosition(2), NodeId(0), &promise),
            Input::Reply(key, NodeId(0), &request),
            Input::Timer(99),
            Input::Decided(LogPosition(2), key, Arc::clone(&noop)),
            Input::Decided(key, LogPosition(2), noop),
        ] {
            let (out, finished) = drive(&mut host, &dir, &mut next_tag, input);
            assert!(out.is_empty() && finished.is_none());
        }
        assert_eq!(next_tag, 1, "no timer was armed");
        assert!(host.contains(&key));
    }
}
