//! The proposer role of the Transaction Client (Algorithm 2), including the
//! Paxos-CP promotion loop and client-side proposal batching, as a
//! driver-agnostic state machine.
//!
//! The embedding layer (`mdstore`'s one proposer host, which the
//! transaction client, the batching [`mdstore` group committer] and the
//! recovery janitor share) feeds the machine with [`ProposerEvent`]s —
//! replica replies ([`ProposerEvent::from_reply`]), timer expirations and
//! positions its datacenter's log already holds ([`ProposerEvent::Decided`])
//! — and executes the [`ProposerAction`]s it returns: broadcasting messages,
//! arming timers, installing learned log entries, and finally reporting the
//! [`CommitOutcome`] to the application.
//!
//! # Batching
//!
//! A proposer built with [`Proposer::new`] commits an *ordered batch* of
//! mutually compatible transactions — a single transaction is a batch of
//! one — (validated by
//! [`walog::combine::partition_compatible`]) in **one** Paxos-CP instance:
//! one prepare/accept round trip and one piggybacked apply broadcast decide
//! the whole batch, amortizing the wide-area round trips that dominate
//! geo-replicated commit latency. The state machine handles partial fates:
//! members a competing winner invalidates are dropped (aborted with
//! [`AbortReason::Conflict`]) while the surviving sub-batch promotes to the
//! next position, and members that another proposer's combined entry already
//! committed are recognized and never proposed twice. The per-member fates
//! are reported in [`CommitOutcome::committed_txns`] /
//! [`CommitOutcome::aborted_txns`].
//!
//! The proposer's own value is built once per batch composition as an
//! `Arc<LogEntry>` and shared with every accept/apply message and
//! learned-entry installation (it is only rebuilt when members leave the
//! batch); the promotion conflict test runs as integer-set lookups against
//! the winning entry's cached write set.
//!
//! [`mdstore` group committer]: ../../mdstore/batch/index.html

use crate::ballot::Ballot;
use crate::config::{CommitProtocol, ProposerConfig, MAX_ROUNDS_PER_POSITION};
use crate::msg::{PaxosMsg, ReplicaId};
use crate::selector::{enhanced_find_winning_val_batch, find_winning_val, ValueChoice, Vote};
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::{GroupId, LogEntry, LogPosition, Transaction, TxnId};

/// Which timer a [`ProposerAction::ArmTimer`] request refers to. The driver
/// chooses the concrete durations (the paper uses a 2 s reply timeout and a
/// short randomized backoff).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// Waiting for prepare/accept/fast-path replies.
    ReplyTimeout,
    /// Randomized backoff before retrying the prepare phase.
    Backoff,
    /// Paxos-CP only: a majority has promised but other replicas have not
    /// answered yet and the answers received carry votes. The proposer
    /// waits a short extra window so `enhancedFindWinningVal` sees "more
    /// than a simple majority" of responses (§5), then chooses.
    Gather,
    /// An incomplete fast round re-sends its accept to the replicas that
    /// have not answered (see [`ProposerConfig::fast_resends`]).
    Resend,
}

/// Inputs to the proposer state machine.
#[derive(Clone, Debug)]
pub enum ProposerEvent {
    /// Reply to the leader fast-path claim.
    FastPathReply {
        /// Position the claim was for.
        position: LogPosition,
        /// Whether this client was first and may skip the prepare phase.
        granted: bool,
    },
    /// A replica's reply to a prepare message.
    PrepareReply {
        /// Answering replica.
        from: ReplicaId,
        /// Position of the instance.
        position: LogPosition,
        /// Ballot the reply answers.
        ballot: Ballot,
        /// Whether the promise was made.
        promised: bool,
        /// The replica's current highest promise.
        next_bal: Option<Ballot>,
        /// The replica's last cast vote.
        last_vote: Option<(Ballot, Arc<LogEntry>)>,
    },
    /// A replica's reply to an accept message.
    AcceptReply {
        /// Answering replica.
        from: ReplicaId,
        /// Position of the instance.
        position: LogPosition,
        /// Ballot the reply answers.
        ballot: Ballot,
        /// Whether the vote was cast.
        accepted: bool,
    },
    /// A previously armed timer fired.
    Timer {
        /// Token returned by the matching [`ProposerAction::ArmTimer`].
        token: u64,
    },
    /// The host knows `entry` is the decided value of `position`: it is
    /// installed in the host datacenter's log. A no-op unless the instance
    /// is still competing at `position`; otherwise the position resolves
    /// the way the protocol would after learning the winner the long way
    /// (members the entry contains commit there, basic Paxos aborts the
    /// rest with [`AbortReason::Conflict`], Paxos-CP drops the members the
    /// entry invalidates and promotes the survivors), without another
    /// prepare round or back-off at a position that is already settled.
    ///
    /// Only an *installed* entry may be fed here. The votes in a refused
    /// prepare reply never are: a majority of votes seen by one proposer
    /// is not a decision (the ballots may differ, or a higher ballot may
    /// still be choosing), and reading one as such would break R1.
    Decided {
        /// The decided position.
        position: LogPosition,
        /// Its decided value.
        entry: Arc<LogEntry>,
    },
}

impl ProposerEvent {
    /// The event replica `from`'s reply `msg` feeds a proposer, or `None`
    /// when `msg` is not a reply to a proposer (prepare, accept, apply and
    /// leader claim travel the other way).
    pub fn from_reply(from: ReplicaId, msg: &PaxosMsg) -> Option<Self> {
        match msg {
            PaxosMsg::PrepareReply {
                position,
                ballot,
                promised,
                next_bal,
                last_vote,
                ..
            } => Some(ProposerEvent::PrepareReply {
                from,
                position: *position,
                ballot: *ballot,
                promised: *promised,
                next_bal: *next_bal,
                last_vote: last_vote.clone(),
            }),
            PaxosMsg::AcceptReply {
                position,
                ballot,
                accepted,
                ..
            } => Some(ProposerEvent::AcceptReply {
                from,
                position: *position,
                ballot: *ballot,
                accepted: *accepted,
            }),
            PaxosMsg::LeaderClaimReply {
                position, granted, ..
            } => Some(ProposerEvent::FastPathReply {
                position: *position,
                granted: *granted,
            }),
            PaxosMsg::Prepare { .. }
            | PaxosMsg::Accept { .. }
            | PaxosMsg::Apply { .. }
            | PaxosMsg::LeaderClaim { .. } => None,
        }
    }
}

/// Effects requested by the proposer state machine.
#[derive(Clone, Debug, PartialEq)]
pub enum ProposerAction {
    /// Send the message to every replica (including the client's own site).
    Broadcast(PaxosMsg),
    /// Send the message to the leader of the current position (the driver
    /// knows which replica that is).
    SendToLeader(PaxosMsg),
    /// Send the message to one replica.
    Send(ReplicaId, PaxosMsg),
    /// Arm a timer of the given kind; deliver `ProposerEvent::Timer { token }`
    /// when it fires. Arming implicitly cancels any earlier timer.
    ArmTimer {
        /// Token to echo back on expiry.
        token: u64,
        /// Which duration class the driver should use.
        kind: TimerKind,
    },
    /// The proposer has learned that `entry` is the decided value of
    /// `position`; the driver should install it in the local write-ahead log.
    Learned {
        /// Decided position.
        position: LogPosition,
        /// Decided value.
        entry: Arc<LogEntry>,
    },
    /// The commit attempt finished; report the outcome to the application.
    Finished(CommitOutcome),
}

/// Why a transaction was aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The log position was won by a conflicting value: the transaction's
    /// reads were invalidated, so neither commit nor promotion is possible.
    Conflict,
    /// The configured promotion cap was reached.
    PromotionLimit,
    /// The per-position round safety valve was exceeded (pathological
    /// message loss or partition).
    RoundLimit,
    /// The commit request could not be decided in time: a submitted-route
    /// client gave up waiting for the group home's `CommitReply` (service
    /// unreachable or reply lost). The transaction may be retried as a new
    /// transaction; proposers never report this reason themselves.
    Unavailable,
}

/// Result of a commit attempt (a single transaction or a whole batch).
#[derive(Clone, Debug, PartialEq)]
pub struct CommitOutcome {
    /// Whether anything committed: the transaction itself for a single-
    /// transaction proposer, at least one member for a batch.
    pub committed: bool,
    /// The position of the last decide that committed members (when
    /// committed). For a batch that split across promotions this is where
    /// the final surviving members landed.
    pub position: Option<LogPosition>,
    /// Number of promotions performed before the final outcome.
    pub promotions: u32,
    /// Whether the committing log entry held more than one transaction
    /// (client-side batch and/or Paxos-CP combination).
    pub combined: bool,
    /// Total prepare/accept rounds executed across positions.
    pub rounds: u32,
    /// Abort reason (when nothing committed): the fate of the first member
    /// to abort.
    pub abort_reason: Option<AbortReason>,
    /// Ids of the members that committed, in batch order (empty for
    /// recovery proposers).
    pub committed_txns: Vec<TxnId>,
    /// Ids of the members that aborted, each with its reason.
    pub aborted_txns: Vec<(TxnId, AbortReason)>,
    /// Members that lost the position but remain committable (their reads
    /// were not invalidated by the winning entry). Only a proposer built
    /// with [`Proposer::new_batch_pipelined`] reports survivors — instead
    /// of promoting inline to `position + 1` (which a pipelined committer
    /// may already be driving), it hands them back so the embedding
    /// pipeline can reschedule them at its tail. Always empty otherwise.
    pub survivors: Vec<Transaction>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Idle,
    FastWait,
    Prepare,
    Accept,
    Backoff,
    Done,
}

#[derive(Clone, Debug, Default)]
struct RoundState {
    prepare_replies: BTreeMap<ReplicaId, Vote>,
    accept_acks: usize,
    accept_rejects: usize,
    /// The replicas whose accept reply was counted, one bit each: a second
    /// reply from one replica (a duplicated delivery, or the answer to a
    /// re-sent accept) is not a second vote.
    accept_answered: u64,
    /// Re-sends of this round's fast accept still allowed.
    resends_left: u32,
    proposed: Option<Arc<LogEntry>>,
    gathering: bool,
}

impl RoundState {
    /// Record `from`'s accept reply; false if one from it was counted
    /// already.
    fn first_answer_from(&mut self, from: ReplicaId) -> bool {
        assert!(from < 64, "replica {from}: at most 64 replicas");
        let bit = 1 << from;
        let first = self.accept_answered & bit == 0;
        self.accept_answered |= bit;
        first
    }
}

/// What the proposer is trying to get decided.
#[derive(Clone, Debug)]
enum Goal {
    /// Commit an ordered batch of mutually compatible application
    /// transactions (a single transaction is a batch of one). The list
    /// shrinks as members commit or abort.
    Commit(Vec<Transaction>),
    /// Learn (or force) the value of a position by proposing a no-op — the
    /// recovery path of §4.1: a Transaction Service with a log gap runs a
    /// Paxos instance to learn the missing entry.
    Recover,
}

/// Accepts at one ballot that decide its value among `num_replicas`
/// acceptors: every replica for a fast (round-0) ballot, a simple majority
/// otherwise. The proposer decides by it, and so does a client counting
/// copies of the acceptors' votes.
pub fn quorum_for_ballot(ballot: Ballot, num_replicas: usize) -> usize {
    if ballot.is_fast() {
        num_replicas
    } else {
        num_replicas / 2 + 1
    }
}

/// The proposer state machine for one transaction's commit attempt.
pub struct Proposer {
    cfg: ProposerConfig,
    group: GroupId,
    client_id: u64,
    goal: Goal,
    /// The value this proposer wants decided: `LogEntry::single` of its
    /// transaction, or a no-op for recovery. Built once, shared everywhere.
    own_entry: Arc<LogEntry>,
    position: LogPosition,
    ballot: Ballot,
    highest_seen: Option<Ballot>,
    phase: Phase,
    round: RoundState,
    promotions: u32,
    rounds_this_position: u32,
    total_rounds: u32,
    timer_token: u64,
    finished: bool,
    /// Members already committed (by our decide or by another proposer's
    /// combined entry), in the order they were observed committed.
    committed_ids: Vec<TxnId>,
    /// Members dropped along the way, each with its reason.
    aborted_ids: Vec<(TxnId, AbortReason)>,
    /// Position of the last decide that committed members.
    committed_position: Option<LogPosition>,
    /// Whether any committing entry held more than one transaction.
    committed_combined: bool,
    /// Pipelined mode: on loss, report survivors through the outcome
    /// instead of promoting inline to the next position (which the
    /// embedding pipeline may already be driving with another instance).
    defer_promotion: bool,
    /// Pipelined mode: this instance's position sits above still-undecided
    /// positions, so combination is restricted to blind-write candidates
    /// (see [`enhanced_find_winning_val_batch`]).
    speculative: bool,
    /// Survivors collected by a deferred loss, handed over in the outcome.
    deferred_survivors: Vec<Transaction>,
}

impl Proposer {
    /// Create a proposer that commits an ordered batch of transactions to
    /// `commit_position` in a single Paxos-CP instance: the whole batch is
    /// proposed as one combined log entry, so one prepare/accept exchange
    /// and one apply broadcast decide every member. A single transaction is
    /// a batch of one.
    ///
    /// `commit_position` is the read position + 1 + `prior_promotions`: the
    /// number of decided positions the caller already promoted the batch
    /// past, each of which wrote nothing a member read. They count toward
    /// the promotion cap and are reported in the outcome.
    ///
    /// The batch must be a valid combination in the order given — no member
    /// may read an item written by an earlier member (callers build such
    /// batches with the [`walog::combine::can_append`] /
    /// [`walog::combine::partition_compatible`] rule).
    pub fn new(
        cfg: ProposerConfig,
        group: GroupId,
        client_id: u64,
        batch: Vec<Transaction>,
        commit_position: LogPosition,
        prior_promotions: u32,
    ) -> Self {
        assert!(!batch.is_empty(), "a batch needs at least one transaction");
        debug_assert!(
            walog::combine::is_valid_combination(&batch),
            "batch members must form a valid combination; partition first"
        );
        let mut proposer =
            Self::with_goal(cfg, group, client_id, Goal::Commit(batch), commit_position);
        proposer.promotions = prior_promotions;
        proposer
    }

    /// Create a proposer for one slot of a commit *pipeline*: it competes
    /// for exactly `commit_position` and never moves. On losing the
    /// position it does not promote inline — the next position may already
    /// be driven by another pipeline slot — but instead reports the
    /// still-committable members in [`CommitOutcome::survivors`] so the
    /// embedding pipeline can reschedule them at its tail. Losses are also
    /// resolved pessimistically: where a flush-and-wait proposer stops
    /// competing as soon as a majority of votes favours another value, a
    /// pipelined slot pushes the winning value through the accept phase
    /// first (Paxos's adoption rule), so the position is *decided and
    /// installed* before its members are rescheduled and the local log
    /// prefix keeps advancing.
    ///
    /// `prior_promotions` carries the number of positions the batch already
    /// lost in earlier slots (as for [`Proposer::new`]), and `speculative`
    /// marks a slot above still-undecided positions, which restricts
    /// combination to blind-write candidates.
    pub fn new_batch_pipelined(
        cfg: ProposerConfig,
        group: GroupId,
        client_id: u64,
        batch: Vec<Transaction>,
        commit_position: LogPosition,
        prior_promotions: u32,
        speculative: bool,
    ) -> Self {
        let mut proposer = Self::new(
            cfg,
            group,
            client_id,
            batch,
            commit_position,
            prior_promotions,
        );
        proposer.defer_promotion = true;
        proposer.speculative = speculative;
        proposer
    }

    /// Create a recovery proposer that proposes a no-op for `position` in
    /// order to learn (or force) its decided value. Recovery always runs the
    /// basic protocol: there is nothing to combine or promote.
    pub fn new_recovery(
        mut cfg: ProposerConfig,
        group: GroupId,
        client_id: u64,
        position: LogPosition,
    ) -> Self {
        cfg.protocol = CommitProtocol::BasicPaxos;
        cfg.fast_path = false;
        Self::with_goal(cfg, group, client_id, Goal::Recover, position)
    }

    fn with_goal(
        cfg: ProposerConfig,
        group: GroupId,
        client_id: u64,
        goal: Goal,
        commit_position: LogPosition,
    ) -> Self {
        let own_entry = match &goal {
            Goal::Commit(txns) => Arc::new(LogEntry::combined(txns.clone())),
            Goal::Recover => Arc::new(LogEntry::noop()),
        };
        Proposer {
            cfg,
            group,
            client_id,
            goal,
            own_entry,
            position: commit_position,
            ballot: Ballot::initial(client_id),
            highest_seen: None,
            phase: Phase::Idle,
            round: RoundState::default(),
            promotions: 0,
            rounds_this_position: 0,
            total_rounds: 0,
            timer_token: 0,
            finished: false,
            committed_ids: Vec::new(),
            aborted_ids: Vec::new(),
            committed_position: None,
            committed_combined: false,
            defer_promotion: false,
            speculative: false,
            deferred_survivors: Vec::new(),
        }
    }

    fn own_value(&self) -> Arc<LogEntry> {
        Arc::clone(&self.own_entry)
    }

    /// The transaction group whose log this proposer appends to.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The position currently being competed for.
    pub fn current_position(&self) -> LogPosition {
        self.position
    }

    /// The transactions still being committed, in batch order (empty for
    /// recovery proposers; shrinks as members commit or abort).
    pub fn transactions(&self) -> &[Transaction] {
        match &self.goal {
            Goal::Commit(txns) => txns,
            Goal::Recover => &[],
        }
    }

    /// The first transaction still being committed (`None` for recovery
    /// proposers).
    pub fn transaction(&self) -> Option<&Transaction> {
        self.transactions().first()
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u32 {
        self.promotions
    }

    /// Whether the state machine has emitted its final outcome.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Begin the commit attempt. Returns the initial batch of actions.
    pub fn start(&mut self) -> Vec<ProposerAction> {
        debug_assert_eq!(self.phase, Phase::Idle);
        let mut out = Vec::new();
        if self.cfg.fast_path {
            self.phase = Phase::FastWait;
            out.push(ProposerAction::SendToLeader(PaxosMsg::LeaderClaim {
                group: self.group,
                position: self.position,
            }));
            out.push(self.arm_timer(TimerKind::ReplyTimeout));
        } else {
            self.begin_prepare(&mut out);
        }
        out
    }

    /// Feed an event into the state machine.
    pub fn on_event(&mut self, event: ProposerEvent) -> Vec<ProposerAction> {
        if self.finished {
            return Vec::new();
        }
        let mut out = Vec::new();
        match event {
            ProposerEvent::FastPathReply { position, granted } => {
                if self.phase == Phase::FastWait && position == self.position {
                    if granted {
                        self.ballot = Ballot::fast(self.client_id);
                        let value = self.own_value();
                        self.begin_accept(value, &mut out);
                    } else {
                        self.begin_prepare(&mut out);
                    }
                }
            }
            ProposerEvent::PrepareReply {
                from,
                position,
                ballot,
                promised,
                next_bal,
                last_vote,
            } => {
                if self.phase == Phase::Prepare
                    && position == self.position
                    && ballot == self.ballot
                {
                    self.note_ballot(next_bal);
                    self.round.prepare_replies.insert(
                        from,
                        Vote {
                            from,
                            promised,
                            last_vote,
                        },
                    );
                    self.maybe_finish_prepare(&mut out);
                }
            }
            ProposerEvent::AcceptReply {
                from,
                position,
                ballot,
                accepted,
            } => {
                if self.phase == Phase::Accept
                    && position == self.position
                    && ballot == self.ballot
                    && self.round.first_answer_from(from)
                {
                    if accepted {
                        self.round.accept_acks += 1;
                    } else {
                        self.round.accept_rejects += 1;
                    }
                    self.maybe_finish_accept(&mut out);
                }
            }
            ProposerEvent::Timer { token } => {
                if token == self.timer_token {
                    self.on_timeout(&mut out);
                }
            }
            ProposerEvent::Decided { position, entry } => {
                if self.phase != Phase::Idle && position == self.position {
                    self.settle(&entry, &mut out);
                }
            }
        }
        out
    }

    fn arm_timer(&mut self, kind: TimerKind) -> ProposerAction {
        self.timer_token += 1;
        ProposerAction::ArmTimer {
            token: self.timer_token,
            kind,
        }
    }

    fn note_ballot(&mut self, seen: Option<Ballot>) {
        if let Some(b) = seen {
            if Some(b) > self.highest_seen {
                self.highest_seen = Some(b);
            }
        }
    }

    fn begin_prepare(&mut self, out: &mut Vec<ProposerAction>) {
        self.rounds_this_position += 1;
        self.total_rounds += 1;
        if self.rounds_this_position > MAX_ROUNDS_PER_POSITION {
            self.finish_abort(AbortReason::RoundLimit, out);
            return;
        }
        self.ballot = self.ballot.advance_past(self.highest_seen);
        self.round = RoundState::default();
        self.phase = Phase::Prepare;
        out.push(ProposerAction::Broadcast(PaxosMsg::Prepare {
            group: self.group,
            position: self.position,
            ballot: self.ballot,
        }));
        out.push(self.arm_timer(TimerKind::ReplyTimeout));
    }

    fn begin_accept(&mut self, value: Arc<LogEntry>, out: &mut Vec<ProposerAction>) {
        self.phase = Phase::Accept;
        self.round.accept_acks = 0;
        self.round.accept_rejects = 0;
        self.round.accept_answered = 0;
        self.round.resends_left = if self.ballot.is_fast() {
            self.cfg.fast_resends
        } else {
            0
        };
        let accept = self.accept(&value);
        self.round.proposed = Some(value);
        out.push(ProposerAction::Broadcast(accept));
        out.push(self.arm_accept_timer());
    }

    /// The accept of `value` at the current position and ballot. A
    /// pipelined batch's own entry carries the members' promotions, which
    /// lets its acceptors copy their votes to the members' clients; any
    /// other value carries none.
    fn accept(&self, value: &Arc<LogEntry>) -> PaxosMsg {
        let own = self.defer_promotion
            && (Arc::ptr_eq(value, &self.own_entry) || **value == *self.own_entry);
        PaxosMsg::Accept {
            group: self.group,
            position: self.position,
            ballot: self.ballot,
            value: Arc::clone(value),
            promotions: own.then_some(self.promotions),
        }
    }

    /// The accept round waits for its replies under a [`TimerKind::Resend`]
    /// while it may still re-send, then under the reply timeout.
    fn arm_accept_timer(&mut self) -> ProposerAction {
        if self.round.resends_left > 0 {
            self.arm_timer(TimerKind::Resend)
        } else {
            self.arm_timer(TimerKind::ReplyTimeout)
        }
    }

    /// Re-send the fast accept to every replica that has not answered it.
    /// The acceptor treats the copy as a late delivery of the original (a
    /// vote it already cast is cast again, a position it promised away
    /// refuses it), so this changes nothing but how long a message lost to
    /// a crash or a partition that has since healed holds the round up.
    fn resend_accept(&mut self, out: &mut Vec<ProposerAction>) {
        self.round.resends_left -= 1;
        let value = self
            .round
            .proposed
            .clone()
            .expect("accept phase always has a proposed value");
        let accept = self.accept(&value);
        for replica in 0..self.cfg.num_replicas {
            if self.round.accept_answered & (1 << replica) == 0 {
                out.push(ProposerAction::Send(replica, accept.clone()));
            }
        }
        out.push(self.arm_accept_timer());
    }

    fn maybe_finish_prepare(&mut self, out: &mut Vec<ProposerAction>) {
        let promised = self
            .round
            .prepare_replies
            .values()
            .filter(|v| v.promised)
            .count();
        let replied = self.round.prepare_replies.len();
        if promised >= self.cfg.majority() {
            if replied == self.cfg.num_replicas {
                self.choose_and_accept(out);
                return;
            }
            // A majority has promised but some replicas are still silent.
            // Basic Paxos proceeds immediately (the paper's Algorithm 2).
            // Paxos-CP benefits from seeing more than a bare majority of
            // responses, so if the answers received carry votes — i.e. the
            // position is contended and combination/promotion information is
            // at stake — it waits a short gather window for stragglers.
            let has_votes = self
                .round
                .prepare_replies
                .values()
                .any(|v| v.last_vote.is_some());
            let conclusive = !self.cfg.protocol.is_cp() || !has_votes;
            if conclusive {
                self.choose_and_accept(out);
                return;
            }
            // Promotion decisions are already conclusive at a majority: if a
            // value has a majority of votes, waiting cannot change the fact.
            let Goal::Commit(own_txns) = &self.goal else {
                self.choose_and_accept(out);
                return;
            };
            let votes: Vec<Vote> = self.round.prepare_replies.values().cloned().collect();
            if let ValueChoice::Promote { decided } = enhanced_find_winning_val_batch(
                &votes,
                own_txns,
                &self.own_entry,
                self.cfg.num_replicas,
                self.cfg.combination_enabled,
                self.speculative,
            ) {
                if self.defer_promotion {
                    // A pipelined slot resolves the position pessimistically:
                    // push the winner through the accept phase (the position
                    // decides and installs) and defer the loss to the decide.
                    self.choose_and_accept(out);
                } else {
                    self.handle_loss(&decided, out);
                }
                return;
            }
            if !self.round.gathering {
                self.round.gathering = true;
                out.push(self.arm_timer(TimerKind::Gather));
            }
        } else if replied == self.cfg.num_replicas {
            // Everyone answered but a competing proposer has a higher
            // ballot: back off and retry with a larger one.
            self.enter_backoff(out);
        }
    }

    fn choose_and_accept(&mut self, out: &mut Vec<ProposerAction>) {
        let votes: Vec<Vote> = self.round.prepare_replies.values().cloned().collect();
        match (&self.goal, self.cfg.protocol) {
            (Goal::Recover, _) | (_, CommitProtocol::BasicPaxos) => {
                let value = find_winning_val(&votes, &self.own_entry);
                self.begin_accept(value, out);
            }
            (Goal::Commit(own_txns), CommitProtocol::PaxosCp) => {
                match enhanced_find_winning_val_batch(
                    &votes,
                    own_txns,
                    &self.own_entry,
                    self.cfg.num_replicas,
                    self.cfg.combination_enabled,
                    self.speculative,
                ) {
                    ValueChoice::Propose(value) => self.begin_accept(value, out),
                    ValueChoice::Promote { decided } if !self.defer_promotion => {
                        // Stop competing for this position (no accepts are
                        // sent) and either promote or abort.
                        self.handle_loss(&decided, out);
                    }
                    ValueChoice::Promote { .. } => {
                        // Pipelined slot: adopt per the Paxos safety rule and
                        // push the winner through, so the position decides
                        // (and installs locally) before the loss is handled
                        // at `on_decided` — the pipeline's apply prefix must
                        // keep advancing even through lost slots.
                        let value = find_winning_val(&votes, &self.own_entry);
                        self.begin_accept(value, out);
                    }
                }
            }
        }
    }

    fn maybe_finish_accept(&mut self, out: &mut Vec<ProposerAction>) {
        let acks = self.round.accept_acks;
        let rejects = self.round.accept_rejects;
        let outstanding = self.cfg.num_replicas - acks - rejects;
        // A fast (round-0) ballot needs *every* replica's accept before it
        // may decide. Fast votes are first-come-first-served rather than
        // ordered by ballot, so two proposers racing for a virgin position
        // can split the fast votes between them; if a bare majority sufficed,
        // a later prepare that reaches only the minority voter could adopt
        // the losing value over the decided one (the classic Fast Paxos
        // recovery hazard). Unanimity restores the invariant a recovering
        // prepare relies on: a decided fast value has a vote on every
        // replica, so any quorum the prepare reaches either sees it or sees
        // two conflicting round-0 votes — in which case neither was decided
        // and the choice is free.
        let needed = quorum_for_ballot(self.ballot, self.cfg.num_replicas);
        if acks >= needed {
            self.on_decided(out);
        } else if acks + outstanding < needed {
            if self.ballot.is_fast() {
                // The fast round cannot reach unanimity (a replica already
                // voted for a rival or promised a higher ballot): recover
                // through the classic prepare path at a regular ballot.
                self.begin_prepare(out);
            } else {
                // A majority can no longer be reached in this round.
                self.enter_backoff(out);
            }
        }
    }

    fn on_decided(&mut self, out: &mut Vec<ProposerAction>) {
        let decided = self
            .round
            .proposed
            .clone()
            .expect("accept phase always has a proposed value");
        // The decide broadcast *is* the apply: one message per replica
        // installs the whole (possibly multi-transaction) entry, so a batch
        // piggybacks every member's apply on a single broadcast.
        out.push(ProposerAction::Broadcast(PaxosMsg::Apply {
            group: self.group,
            position: self.position,
            ballot: self.ballot,
            value: Arc::clone(&decided),
        }));
        out.push(ProposerAction::Learned {
            position: self.position,
            entry: Arc::clone(&decided),
        });
        self.settle(&decided, out);
    }

    /// `decided` is the decided value of the current position: the members
    /// it contains committed there, and the rest lost the position.
    fn settle(&mut self, decided: &LogEntry, out: &mut Vec<ProposerAction>) {
        let Goal::Commit(members) = &mut self.goal else {
            // Recovery: the position is now learned; report a non-commit
            // outcome (nothing of ours was committed).
            self.finish_final(out);
            return;
        };
        // Partition the batch by whether the decided entry committed it.
        let before = self.committed_ids.len();
        let mut rest = Vec::new();
        for txn in members.drain(..) {
            if decided.contains(txn.id) {
                self.committed_ids.push(txn.id);
            } else {
                rest.push(txn);
            }
        }
        if self.committed_ids.len() > before {
            self.committed_position = Some(self.position);
            if decided.len() > 1 {
                self.committed_combined = true;
            }
        }
        if rest.is_empty() {
            self.finish_final(out);
            return;
        }
        // The position decided a value that does not include these
        // members: they lost it.
        *members = rest;
        match self.cfg.protocol {
            CommitProtocol::BasicPaxos => self.finish_abort(AbortReason::Conflict, out),
            CommitProtocol::PaxosCp => self.handle_loss(decided, out),
        }
    }

    /// The current position was (or will be) won by `winner` without (all
    /// of) our members: drop the members whose reads `winner` invalidates,
    /// then promote the survivors to the next position if the cap allows.
    fn handle_loss(&mut self, winner: &LogEntry, out: &mut Vec<ProposerAction>) {
        let Goal::Commit(members) = &mut self.goal else {
            // Recovery proposers never lose anything of their own.
            self.finish_final(out);
            return;
        };
        // A member the winner itself contains (another proposer combined it
        // into its entry) is committed — it must be recognized here, before
        // the conflict test, and never proposed again. Members whose reads
        // the winner invalidates can be neither combined with nor promoted
        // past it: they abort. Everyone else survives and promotes.
        let before = self.committed_ids.len();
        let mut survivors = Vec::with_capacity(members.len());
        for txn in members.drain(..) {
            if winner.contains(txn.id) {
                self.committed_ids.push(txn.id);
            } else if winner.invalidates_reads_of(&txn) {
                self.aborted_ids.push((txn.id, AbortReason::Conflict));
            } else {
                survivors.push(txn);
            }
        }
        if self.committed_ids.len() > before {
            // The winner is (or will be) the decided value of the current
            // position: that is where these members committed.
            self.committed_position = Some(self.position);
            if winner.len() > 1 {
                self.committed_combined = true;
            }
        }
        if survivors.is_empty() {
            self.finish_final(out);
            return;
        }
        if let Some(cap) = self.cfg.max_promotions {
            if self.promotions >= cap {
                for txn in &survivors {
                    self.aborted_ids.push((txn.id, AbortReason::PromotionLimit));
                }
                self.finish_final(out);
                return;
            }
        }
        if self.defer_promotion {
            // Pipelined slot: the next position may already be in flight in
            // another slot, so hand the survivors back through the outcome —
            // the embedding pipeline reschedules them at its tail, in order.
            self.promotions += 1;
            self.deferred_survivors = survivors;
            self.finish_final(out);
            return;
        }
        // The survivors promote together as a (still valid) batch. The
        // proposed value is rebuilt only when the batch actually shrank
        // (members committed elsewhere or dropped — here or in
        // `on_decided`); an intact batch keeps sharing the same
        // `Arc<LogEntry>` across promotions. Survivors are always a subset
        // of the entry's transactions, so an equal count means an equal
        // set.
        *members = survivors;
        if members.len() != self.own_entry.len() {
            self.own_entry = Arc::new(LogEntry::combined(members.clone()));
        }
        self.promotions += 1;
        self.position = self.position.next();
        self.rounds_this_position = 0;
        self.highest_seen = None;
        self.ballot = Ballot::initial(self.client_id);
        // Promotion re-enters the protocol at Step 1 (prepare) for the next
        // position; the fast path is not consulted again.
        self.begin_prepare(out);
    }

    fn enter_backoff(&mut self, out: &mut Vec<ProposerAction>) {
        self.phase = Phase::Backoff;
        out.push(self.arm_timer(TimerKind::Backoff));
    }

    fn on_timeout(&mut self, out: &mut Vec<ProposerAction>) {
        match self.phase {
            Phase::FastWait => {
                // Leader unreachable: fall back to the full protocol.
                self.begin_prepare(out);
            }
            Phase::Prepare => {
                let promised = self
                    .round
                    .prepare_replies
                    .values()
                    .filter(|v| v.promised)
                    .count();
                if promised >= self.cfg.majority() {
                    self.choose_and_accept(out);
                } else {
                    self.enter_backoff(out);
                }
            }
            Phase::Accept if self.round.resends_left > 0 => self.resend_accept(out),
            Phase::Accept => {
                if self.round.accept_acks >= quorum_for_ballot(self.ballot, self.cfg.num_replicas) {
                    self.on_decided(out);
                } else if self.ballot.is_fast() {
                    // An incomplete fast round is never decided; recover it
                    // through the classic prepare path rather than backing
                    // off to retry the (already lost) fast ballot.
                    self.begin_prepare(out);
                } else {
                    self.enter_backoff(out);
                }
            }
            Phase::Backoff => {
                self.begin_prepare(out);
            }
            Phase::Idle | Phase::Done => {}
        }
    }

    /// Abort every member still in flight with `reason`, then finish.
    fn finish_abort(&mut self, reason: AbortReason, out: &mut Vec<ProposerAction>) {
        if let Goal::Commit(members) = &mut self.goal {
            for txn in members.drain(..) {
                self.aborted_ids.push((txn.id, reason));
            }
        }
        self.finish_final(out);
    }

    /// Emit the final [`CommitOutcome`] from the per-member fates collected
    /// along the way.
    fn finish_final(&mut self, out: &mut Vec<ProposerAction>) {
        self.phase = Phase::Done;
        self.finished = true;
        let committed = !self.committed_ids.is_empty();
        out.push(ProposerAction::Finished(CommitOutcome {
            committed,
            position: self.committed_position,
            promotions: self.promotions,
            combined: self.committed_combined,
            rounds: self.total_rounds,
            abort_reason: if committed {
                None
            } else {
                self.aborted_ids.first().map(|(_, reason)| *reason)
            },
            committed_txns: std::mem::take(&mut self.committed_ids),
            aborted_txns: std::mem::take(&mut self.aborted_ids),
            survivors: std::mem::take(&mut self.deferred_survivors),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walog::ident::{AttrId, KeyId};
    use walog::{ItemRef, TxnId};

    fn item(a: u32) -> ItemRef {
        ItemRef::new(KeyId(0), AttrId(a))
    }

    // Attribute ids standing in for the original string names.
    const A: u32 = 0;
    const Z: u32 = 25;
    const Q: u32 = 16;

    fn own_txn(reads: &[u32], writes: &[u32]) -> Transaction {
        let mut b = Transaction::builder(TxnId::new(7, 1), GroupId(0), LogPosition(0));
        for r in reads {
            b = b.read(item(*r), Some("v"));
        }
        for w in writes {
            b = b.write(item(*w), "x");
        }
        b.build()
    }

    fn other_entry(writes: &[u32]) -> Arc<LogEntry> {
        let mut b = Transaction::builder(TxnId::new(9, 50), GroupId(0), LogPosition(0));
        for w in writes {
            b = b.write(item(*w), "y");
        }
        Arc::new(LogEntry::single(b.build()))
    }

    fn proposer(cfg: ProposerConfig) -> Proposer {
        Proposer::new(
            cfg,
            GroupId(0),
            7,
            vec![own_txn(&[A], &[A])],
            LogPosition(1),
            0,
        )
    }

    fn prepare_reply(
        p: &Proposer,
        from: ReplicaId,
        promised: bool,
        last_vote: Option<(Ballot, Arc<LogEntry>)>,
    ) -> ProposerEvent {
        ProposerEvent::PrepareReply {
            from,
            position: p.current_position(),
            ballot: current_ballot(p),
            promised,
            next_bal: None,
            last_vote,
        }
    }

    fn accept_reply(p: &Proposer, from: ReplicaId, accepted: bool) -> ProposerEvent {
        ProposerEvent::AcceptReply {
            from,
            position: p.current_position(),
            ballot: current_ballot(p),
            accepted,
        }
    }

    fn current_ballot(p: &Proposer) -> Ballot {
        p.ballot
    }

    fn finished(actions: &[ProposerAction]) -> Option<&CommitOutcome> {
        actions.iter().find_map(|a| match a {
            ProposerAction::Finished(o) => Some(o),
            _ => None,
        })
    }

    #[test]
    fn uncontended_commit_through_full_protocol() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        let actions = p.start();
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Prepare { .. })
        ));
        // Two promises reach the majority and trigger the accept phase.
        assert!(p.on_event(prepare_reply(&p, 0, true, None)).is_empty());
        let actions = p.on_event(prepare_reply(&p, 1, true, None));
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Accept { .. })
        ));
        // Two accept acks decide the value.
        assert!(p.on_event(accept_reply(&p, 0, true)).is_empty());
        let actions = p.on_event(accept_reply(&p, 1, true));
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Apply { .. })
        ));
        assert!(matches!(actions[1], ProposerAction::Learned { .. }));
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed);
        assert_eq!(outcome.position, Some(LogPosition(1)));
        assert_eq!(outcome.promotions, 0);
        assert!(p.is_finished());
        // Further events are ignored once finished.
        assert!(p.on_event(accept_reply(&p, 2, true)).is_empty());
    }

    #[test]
    fn decided_value_is_shared_not_copied() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        p.start();
        p.on_event(prepare_reply(&p, 0, true, None));
        p.on_event(prepare_reply(&p, 1, true, None));
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let apply_value = actions.iter().find_map(|a| match a {
            ProposerAction::Broadcast(PaxosMsg::Apply { value, .. }) => Some(value),
            _ => None,
        });
        let learned_value = actions.iter().find_map(|a| match a {
            ProposerAction::Learned { entry, .. } => Some(entry),
            _ => None,
        });
        assert!(Arc::ptr_eq(apply_value.unwrap(), learned_value.unwrap()));
    }

    #[test]
    fn fast_path_grant_skips_prepare() {
        let mut p = proposer(ProposerConfig::basic(3));
        let actions = p.start();
        assert!(matches!(
            actions[0],
            ProposerAction::SendToLeader(PaxosMsg::LeaderClaim { .. })
        ));
        let actions = p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: true,
        });
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Accept { ballot, .. }) => {
                assert!(ballot.is_fast())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fast_round_decides_only_on_unanimous_accepts() {
        let mut p = proposer(ProposerConfig::basic(3));
        p.start();
        p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: true,
        });
        // A bare majority of fast accepts must NOT decide: the third replica
        // may hold a rival round-0 vote, and a recovering prepare that only
        // reaches that replica would adopt the rival value.
        assert!(p.on_event(accept_reply(&p, 0, true)).is_empty());
        assert!(p.on_event(accept_reply(&p, 1, true)).is_empty());
        let actions = p.on_event(accept_reply(&p, 2, true));
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Apply { .. })
        ));
        assert!(finished(&actions).unwrap().committed);
    }

    #[test]
    fn fast_round_reject_falls_back_to_classic_prepare() {
        let mut p = proposer(ProposerConfig::basic(3));
        p.start();
        p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: true,
        });
        p.on_event(accept_reply(&p, 0, true));
        // One reject makes unanimity unreachable: the fast round is lost and
        // the proposer re-enters the protocol at the prepare phase with a
        // regular (round >= 1) ballot instead of backing off.
        let actions = p.on_event(accept_reply(&p, 1, false));
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { ballot, .. }) => {
                assert!(!ballot.is_fast())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The token of the timer `actions` arm, with its kind.
    fn armed(actions: &[ProposerAction]) -> (u64, TimerKind) {
        actions
            .iter()
            .find_map(|a| match a {
                ProposerAction::ArmTimer { token, kind } => Some((*token, *kind)),
                _ => None,
            })
            .expect("a timer")
    }

    #[test]
    fn a_duplicated_fast_accept_reply_is_not_a_second_vote() {
        let mut p = proposer(ProposerConfig::basic(3));
        p.start();
        p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: true,
        });
        assert!(p.on_event(accept_reply(&p, 0, true)).is_empty());
        assert!(p.on_event(accept_reply(&p, 1, true)).is_empty());
        // Replica 1's reply delivered twice: still two voters of three.
        assert!(p.on_event(accept_reply(&p, 1, true)).is_empty());
        let actions = p.on_event(accept_reply(&p, 2, true));
        assert!(finished(&actions).unwrap().committed);
    }

    #[test]
    fn an_incomplete_fast_round_resends_its_accept_to_the_silent_replicas_only() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_resends(1));
        p.start();
        let actions = p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: true,
        });
        let (token, kind) = armed(&actions);
        assert_eq!(kind, TimerKind::Resend);
        p.on_event(accept_reply(&p, 0, true));
        p.on_event(accept_reply(&p, 2, true));
        // Replica 1 never answered: only it gets the accept again, and the
        // round then waits out the reply timeout as before.
        let actions = p.on_event(ProposerEvent::Timer { token });
        match &actions[..] {
            [ProposerAction::Send(1, PaxosMsg::Accept { ballot, .. }), ProposerAction::ArmTimer {
                kind: TimerKind::ReplyTimeout,
                ..
            }] => assert!(ballot.is_fast()),
            other => panic!("unexpected {other:?}"),
        }
        // Its vote completes the unanimous fast round.
        let actions = p.on_event(accept_reply(&p, 1, true));
        assert!(finished(&actions).unwrap().committed);
    }

    #[test]
    fn a_fast_round_out_of_resends_recovers_through_prepare() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_resends(1));
        p.start();
        let actions = p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: true,
        });
        let (token, _) = armed(&actions);
        let (token, kind) = armed(&p.on_event(ProposerEvent::Timer { token }));
        assert_eq!(kind, TimerKind::ReplyTimeout);
        let actions = p.on_event(ProposerEvent::Timer { token });
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { ballot, .. }) => {
                assert!(!ballot.is_fast())
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_classic_accept_round_never_resends() {
        let mut p = proposer(
            ProposerConfig::basic(3)
                .with_fast_path(false)
                .with_fast_resends(1),
        );
        p.start();
        p.on_event(prepare_reply(&p, 0, true, None));
        let actions = p.on_event(prepare_reply(&p, 1, true, None));
        assert_eq!(armed(&actions).1, TimerKind::ReplyTimeout);
    }

    #[test]
    fn fast_path_denied_falls_back_to_prepare() {
        let mut p = proposer(ProposerConfig::basic(3));
        p.start();
        let actions = p.on_event(ProposerEvent::FastPathReply {
            position: LogPosition(1),
            granted: false,
        });
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Prepare { .. })
        ));
    }

    #[test]
    fn basic_paxos_aborts_when_losing_to_decided_value() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        p.start();
        let winner = other_entry(&[Z]);
        // Both replies carry a vote for the other value: the basic rule
        // forces us to re-propose it; when it decides, we abort.
        p.on_event(prepare_reply(
            &p,
            0,
            true,
            Some((
                Ballot {
                    round: 9,
                    proposer: 1,
                },
                Arc::clone(&winner),
            )),
        ));
        let actions = p.on_event(prepare_reply(
            &p,
            1,
            true,
            Some((
                Ballot {
                    round: 9,
                    proposer: 1,
                },
                Arc::clone(&winner),
            )),
        ));
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Accept { value, .. }) => {
                assert!(Arc::ptr_eq(value, &winner))
            }
            other => panic!("unexpected {other:?}"),
        }
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert_eq!(outcome.abort_reason, Some(AbortReason::Conflict));
    }

    #[test]
    fn paxos_cp_promotes_after_losing_to_non_conflicting_value() {
        let mut p = proposer(ProposerConfig::cp(3).with_fast_path(false));
        p.start();
        // Own txn reads/writes a0; winner writes a25 (no conflict).
        let winner = other_entry(&[Z]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            winner,
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        // Majority already voted for the winner: promotion, so the next
        // action is a prepare for position 2, with no accept for position 1.
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { position, .. }) => {
                assert_eq!(*position, LogPosition(2))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.promotions(), 1);
        assert_eq!(p.current_position(), LogPosition(2));
        // Clean prepare/accept on position 2 commits the transaction.
        p.on_event(prepare_reply(&p, 0, true, None));
        let actions = p.on_event(prepare_reply(&p, 1, true, None));
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Accept { .. })
        ));
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed);
        assert_eq!(outcome.promotions, 1);
        assert_eq!(outcome.position, Some(LogPosition(2)));
    }

    #[test]
    fn paxos_cp_aborts_when_winner_invalidates_reads() {
        let mut p = proposer(ProposerConfig::cp(3).with_fast_path(false));
        p.start();
        // Own txn reads a0; winner writes a0: conflict, no promotion.
        let winner = other_entry(&[A]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            winner,
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert_eq!(outcome.abort_reason, Some(AbortReason::Conflict));
        assert_eq!(outcome.promotions, 0);
    }

    #[test]
    fn promotion_cap_is_enforced() {
        let mut p = Proposer::new(
            ProposerConfig::cp(3)
                .with_fast_path(false)
                .with_max_promotions(Some(0)),
            GroupId(0),
            7,
            vec![own_txn(&[A], &[A])],
            LogPosition(1),
            0,
        );
        p.start();
        let winner = other_entry(&[Z]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            winner,
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert_eq!(outcome.abort_reason, Some(AbortReason::PromotionLimit));
    }

    #[test]
    fn prepare_timeout_without_majority_backs_off_and_retries_with_higher_ballot() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        let actions = p.start();
        let first_ballot = current_ballot(&p);
        let token = match actions[1] {
            ProposerAction::ArmTimer { token, .. } => token,
            _ => panic!("expected timer"),
        };
        // Only one promise arrives, then the reply timeout fires.
        p.on_event(prepare_reply(&p, 0, true, None));
        let actions = p.on_event(ProposerEvent::Timer { token });
        let backoff_token = match actions[0] {
            ProposerAction::ArmTimer { token, kind } => {
                assert_eq!(kind, TimerKind::Backoff);
                token
            }
            _ => panic!("expected backoff"),
        };
        let actions = p.on_event(ProposerEvent::Timer {
            token: backoff_token,
        });
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { ballot, .. }) => {
                assert!(*ballot > first_ballot);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejected_prepare_advances_past_competing_ballot() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        p.start();
        let big = Ballot {
            round: 40,
            proposer: 2,
        };
        // All three replicas answer: two refuse because of a higher promise.
        p.on_event(ProposerEvent::PrepareReply {
            from: 0,
            position: LogPosition(1),
            ballot: current_ballot(&p),
            promised: false,
            next_bal: Some(big),
            last_vote: None,
        });
        p.on_event(ProposerEvent::PrepareReply {
            from: 1,
            position: LogPosition(1),
            ballot: current_ballot(&p),
            promised: false,
            next_bal: Some(big),
            last_vote: None,
        });
        let actions = p.on_event(prepare_reply(&p, 2, true, None));
        let backoff_token = match actions[0] {
            ProposerAction::ArmTimer { token, kind } => {
                assert_eq!(kind, TimerKind::Backoff);
                token
            }
            _ => panic!("expected backoff"),
        };
        let actions = p.on_event(ProposerEvent::Timer {
            token: backoff_token,
        });
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { ballot, .. }) => {
                assert!(*ballot > big, "new ballot {ballot:?} must exceed {big:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn accept_rejections_force_retry() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        p.start();
        p.on_event(prepare_reply(&p, 0, true, None));
        p.on_event(prepare_reply(&p, 1, true, None));
        // Two rejections make a majority impossible in this round.
        p.on_event(accept_reply(&p, 0, false));
        let actions = p.on_event(accept_reply(&p, 1, false));
        assert!(matches!(
            actions[0],
            ProposerAction::ArmTimer {
                kind: TimerKind::Backoff,
                ..
            }
        ));
    }

    #[test]
    fn stale_replies_for_old_ballots_or_positions_are_ignored() {
        let mut p = proposer(ProposerConfig::basic(3).with_fast_path(false));
        p.start();
        let wrong_ballot = ProposerEvent::PrepareReply {
            from: 0,
            position: LogPosition(1),
            ballot: Ballot {
                round: 99,
                proposer: 99,
            },
            promised: true,
            next_bal: None,
            last_vote: None,
        };
        assert!(p.on_event(wrong_ballot).is_empty());
        let wrong_position = ProposerEvent::PrepareReply {
            from: 0,
            position: LogPosition(9),
            ballot: current_ballot(&p),
            promised: true,
            next_bal: None,
            last_vote: None,
        };
        assert!(p.on_event(wrong_position).is_empty());
        // Stale timer tokens are ignored too.
        assert!(p.on_event(ProposerEvent::Timer { token: 9999 }).is_empty());
    }

    #[test]
    fn round_limit_aborts_eventually() {
        let mut p = Proposer::new(
            ProposerConfig::basic(3).with_fast_path(false),
            GroupId(0),
            7,
            vec![own_txn(&[], &[A])],
            LogPosition(1),
            0,
        );
        let mut actions = p.start();
        // Repeatedly time out every phase; the round safety valve must fire.
        for _ in 0..200 {
            if p.is_finished() {
                break;
            }
            let token = actions
                .iter()
                .find_map(|a| match a {
                    ProposerAction::ArmTimer { token, .. } => Some(*token),
                    _ => None,
                })
                .expect("each batch arms a timer until finished");
            actions = p.on_event(ProposerEvent::Timer { token });
        }
        assert!(p.is_finished());
        let outcome = actions
            .iter()
            .find_map(|a| match a {
                ProposerAction::Finished(o) => Some(o),
                _ => None,
            })
            .unwrap();
        assert_eq!(outcome.abort_reason, Some(AbortReason::RoundLimit));
    }

    fn batch(txns: Vec<Transaction>) -> Proposer {
        Proposer::new(
            ProposerConfig::cp(3).with_fast_path(false),
            GroupId(0),
            7,
            txns,
            LogPosition(1),
            0,
        )
    }

    fn batch_txn(seq: u64, reads: &[u32], writes: &[u32]) -> Transaction {
        let mut b = Transaction::builder(TxnId::new(7, seq), GroupId(0), LogPosition(0));
        for r in reads {
            b = b.read(item(*r), Some("v"));
        }
        for w in writes {
            b = b.write(item(*w), "x");
        }
        b.build()
    }

    #[test]
    fn batch_commits_every_member_in_one_instance() {
        let mut p = batch(vec![batch_txn(1, &[0], &[0]), batch_txn(2, &[1], &[1])]);
        let actions = p.start();
        // One prepare broadcast for the whole batch.
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Prepare { .. })
        ));
        p.on_event(prepare_reply(&p, 0, true, None));
        let actions = p.on_event(prepare_reply(&p, 1, true, None));
        // The proposed value carries both members.
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Accept { value, .. }) => {
                assert_eq!(value.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        // One apply broadcast decides (and installs) every member at once.
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Apply { .. })
        ));
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed);
        assert!(outcome.combined);
        assert_eq!(outcome.position, Some(LogPosition(1)));
        assert_eq!(
            outcome.committed_txns,
            vec![TxnId::new(7, 1), TxnId::new(7, 2)]
        );
        assert!(outcome.aborted_txns.is_empty());
        assert_eq!(outcome.rounds, 1);
    }

    #[test]
    fn batch_splits_on_loss_conflicting_member_aborts_survivor_promotes() {
        // Member 1 reads a0, member 2 reads a1; the winner writes a0:
        // member 1 is invalidated and aborts, member 2 promotes alone.
        let mut p = batch(vec![batch_txn(1, &[0], &[0]), batch_txn(2, &[1], &[1])]);
        p.start();
        let winner = other_entry(&[A]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            winner,
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        // Promotion for the survivor: a prepare for position 2.
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { position, .. }) => {
                assert_eq!(*position, LogPosition(2))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.transactions().len(), 1);
        assert_eq!(p.transactions()[0].id, TxnId::new(7, 2));
        // Clean prepare/accept on position 2 commits the survivor.
        p.on_event(prepare_reply(&p, 0, true, None));
        p.on_event(prepare_reply(&p, 1, true, None));
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed);
        assert_eq!(outcome.position, Some(LogPosition(2)));
        assert_eq!(outcome.committed_txns, vec![TxnId::new(7, 2)]);
        assert_eq!(
            outcome.aborted_txns,
            vec![(TxnId::new(7, 1), AbortReason::Conflict)]
        );
        assert_eq!(outcome.promotions, 1);
    }

    #[test]
    fn batch_whose_members_all_conflict_with_winner_aborts_entirely() {
        let mut p = batch(vec![batch_txn(1, &[0], &[5]), batch_txn(2, &[0], &[6])]);
        p.start();
        let winner = other_entry(&[A]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            winner,
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert_eq!(outcome.abort_reason, Some(AbortReason::Conflict));
        assert_eq!(outcome.aborted_txns.len(), 2);
        assert!(outcome.committed_txns.is_empty());
    }

    #[test]
    fn pipelined_slot_pushes_winner_through_and_reports_survivors() {
        // Member 1 reads a0 (invalidated by the winner), member 2 is a blind
        // write (survives). A pipelined slot must not promote inline:
        // instead it adopts the winner, pushes it through accept so the
        // position decides and installs, and hands the survivor back.
        let mut p = Proposer::new_batch_pipelined(
            ProposerConfig::cp(3).with_fast_path(false),
            GroupId(0),
            7,
            vec![batch_txn(1, &[0], &[0]), batch_txn(2, &[], &[1])],
            LogPosition(1),
            0,
            false,
        );
        p.start();
        let winner = other_entry(&[A]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            Arc::clone(&winner),
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        // Majority voted for the winner: instead of an early promotion the
        // slot adopts it and sends accepts — no prepare for position 2.
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Accept {
                position, value, ..
            }) => {
                assert_eq!(*position, LogPosition(1));
                assert!(Arc::ptr_eq(value, &winner));
            }
            other => panic!("unexpected {other:?}"),
        }
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        // The winner decides: Apply broadcast + local install, then the
        // final outcome carries the per-member fates and the survivor.
        assert!(matches!(
            actions[0],
            ProposerAction::Broadcast(PaxosMsg::Apply { .. })
        ));
        assert!(
            matches!(&actions[1], ProposerAction::Learned { position, entry }
                if *position == LogPosition(1) && Arc::ptr_eq(entry, &winner)),
            "the lost slot must still install the decided winner"
        );
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert_eq!(
            outcome.aborted_txns,
            vec![(TxnId::new(7, 1), AbortReason::Conflict)]
        );
        assert_eq!(outcome.survivors.len(), 1);
        assert_eq!(outcome.survivors[0].id, TxnId::new(7, 2));
        assert_eq!(outcome.promotions, 1, "the deferred loss counts as one");
        assert_eq!(
            p.current_position(),
            LogPosition(1),
            "a pipelined slot never moves"
        );
    }

    #[test]
    fn pipelined_slot_honours_the_promotion_cap_across_slots() {
        // The batch already lost one slot (prior promotions = 1) and the cap
        // is 1: the next loss aborts the survivors with PromotionLimit
        // instead of handing them back for yet another slot.
        let mut p = Proposer::new_batch_pipelined(
            ProposerConfig::cp(3)
                .with_fast_path(false)
                .with_max_promotions(Some(1)),
            GroupId(0),
            7,
            vec![batch_txn(2, &[], &[1])],
            LogPosition(4),
            1,
            true,
        );
        p.start();
        let winner = other_entry(&[Z]);
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            Arc::clone(&winner),
        ));
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        p.on_event(prepare_reply(&p, 1, true, vote));
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert!(outcome.survivors.is_empty());
        assert_eq!(
            outcome.aborted_txns,
            vec![(TxnId::new(7, 2), AbortReason::PromotionLimit)]
        );
    }

    #[test]
    fn member_committed_by_someone_elses_combined_entry_is_not_proposed_twice() {
        // Another proposer's combined entry that already contains member 1
        // wins the position: member 1 must be recognized as committed and
        // only member 2 may promote.
        let m1 = batch_txn(1, &[0], &[0]);
        let m2 = batch_txn(2, &[1], &[1]);
        let mut p = batch(vec![m1.clone(), m2.clone()]);
        p.start();
        let foreign = Transaction::builder(TxnId::new(9, 50), GroupId(0), LogPosition(0))
            .write(item(Z), "y")
            .build();
        let winner = Arc::new(LogEntry::combined(vec![foreign, m1.clone()]));
        let vote = Some((
            Ballot {
                round: 3,
                proposer: 2,
            },
            Arc::clone(&winner),
        ));
        // Majority votes for the foreign combined entry: it has the
        // position, member 1 rides in it (committed, not re-proposed), and
        // member 2 promotes alone.
        p.on_event(prepare_reply(&p, 0, true, vote.clone()));
        let actions = p.on_event(prepare_reply(&p, 1, true, vote));
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare { position, .. }) => {
                assert_eq!(*position, LogPosition(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        let in_flight: Vec<TxnId> = p.transactions().iter().map(|t| t.id).collect();
        assert_eq!(in_flight, vec![m2.id], "only member 2 may be re-proposed");
        // Commit the survivor at position 2 and check the combined outcome.
        p.on_event(prepare_reply(&p, 0, true, None));
        p.on_event(prepare_reply(&p, 1, true, None));
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed);
        assert_eq!(outcome.committed_txns, vec![m1.id, m2.id]);
        assert!(outcome.aborted_txns.is_empty());
        assert!(
            outcome.combined,
            "member 1 committed inside a multi-transaction entry"
        );
    }

    #[test]
    fn commit_in_combined_entry_is_flagged() {
        let mut p = proposer(ProposerConfig::cp(3).with_fast_path(false));
        p.start();
        // One replica has a vote for a disjoint transaction with only one
        // vote: the combine window is open, so the proposal packs both.
        let other = other_entry(&[Q]);
        p.on_event(prepare_reply(&p, 0, true, None));
        let actions = p.on_event(prepare_reply(
            &p,
            1,
            true,
            Some((
                Ballot {
                    round: 1,
                    proposer: 2,
                },
                other,
            )),
        ));
        // A majority has promised but a vote was seen: the proposer waits a
        // gather window for the remaining replica instead of choosing early.
        assert!(matches!(
            actions[0],
            ProposerAction::ArmTimer {
                kind: TimerKind::Gather,
                ..
            }
        ));
        let actions = p.on_event(prepare_reply(&p, 2, true, None));
        let proposed = match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Accept { value, .. }) => Arc::clone(value),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(proposed.len(), 2);
        p.on_event(accept_reply(&p, 0, true));
        let actions = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed);
        assert!(outcome.combined);
    }

    #[test]
    fn from_reply_maps_the_three_replies_field_by_field_and_nothing_else() {
        let g = GroupId(3);
        let ballot = Ballot {
            round: 4,
            proposer: 2,
        };
        let higher = Ballot {
            round: 9,
            proposer: 1,
        };
        let vote = other_entry(&[Z]);
        match ProposerEvent::from_reply(
            2,
            &PaxosMsg::PrepareReply {
                group: g,
                position: LogPosition(5),
                ballot,
                promised: false,
                next_bal: Some(higher),
                last_vote: Some((higher, Arc::clone(&vote))),
            },
        ) {
            Some(ProposerEvent::PrepareReply {
                from: 2,
                position: LogPosition(5),
                ballot: b,
                promised: false,
                next_bal: Some(n),
                last_vote: Some((vb, value)),
            }) => {
                assert_eq!((b, n, vb), (ballot, higher, higher));
                assert!(Arc::ptr_eq(&value, &vote), "the vote is shared, not copied");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            ProposerEvent::from_reply(
                1,
                &PaxosMsg::AcceptReply {
                    group: g,
                    position: LogPosition(6),
                    ballot,
                    accepted: true,
                },
            ),
            Some(ProposerEvent::AcceptReply {
                from: 1,
                position: LogPosition(6),
                ballot: b,
                accepted: true,
            }) if b == ballot
        ));
        assert!(matches!(
            ProposerEvent::from_reply(
                0,
                &PaxosMsg::LeaderClaimReply {
                    group: g,
                    position: LogPosition(7),
                    granted: true,
                },
            ),
            Some(ProposerEvent::FastPathReply {
                position: LogPosition(7),
                granted: true,
            })
        ));
        let requests = [
            PaxosMsg::Prepare {
                group: g,
                position: LogPosition(1),
                ballot,
            },
            PaxosMsg::Accept {
                group: g,
                position: LogPosition(1),
                ballot,
                value: Arc::clone(&vote),
                promotions: None,
            },
            PaxosMsg::Apply {
                group: g,
                position: LogPosition(1),
                ballot,
                value: vote,
            },
            PaxosMsg::LeaderClaim {
                group: g,
                position: LogPosition(1),
            },
        ];
        for msg in &requests {
            assert!(
                ProposerEvent::from_reply(0, msg).is_none(),
                "{} is not a reply",
                msg.kind()
            );
        }
    }

    fn decided(position: u64, entry: &Arc<LogEntry>) -> ProposerEvent {
        ProposerEvent::Decided {
            position: LogPosition(position),
            entry: Arc::clone(entry),
        }
    }

    #[test]
    fn a_decided_entry_holding_every_member_commits_them_without_another_round() {
        let m1 = batch_txn(1, &[0], &[0]);
        let m2 = batch_txn(2, &[1], &[1]);
        let mut p = batch(vec![m1.clone(), m2.clone()]);
        p.start();
        let foreign = Transaction::builder(TxnId::new(9, 50), GroupId(0), LogPosition(0))
            .write(item(Z), "y")
            .build();
        let winner = Arc::new(LogEntry::combined(vec![m1.clone(), foreign, m2.clone()]));
        let actions = p.on_event(decided(1, &winner));
        // The entry is already installed where it was found: nothing is
        // broadcast or learned again.
        assert_eq!(actions.len(), 1, "only the outcome: {actions:?}");
        let outcome = finished(&actions).unwrap();
        assert!(outcome.committed && outcome.combined);
        assert_eq!(outcome.position, Some(LogPosition(1)));
        assert_eq!(outcome.committed_txns, vec![m1.id, m2.id]);
        assert!(outcome.aborted_txns.is_empty());
    }

    #[test]
    fn a_decided_rival_promotes_paxos_cp_survivors_out_of_a_back_off() {
        // Member 1 reads a0, which the winner writes; member 2 survives.
        let mut p = batch(vec![batch_txn(1, &[0], &[0]), batch_txn(2, &[1], &[1])]);
        p.start();
        let first_ballot = current_ballot(&p);
        // Every replica refuses: the proposer backs off.
        let rival = Some(Ballot {
            round: 40,
            proposer: 2,
        });
        let mut backoff = None;
        for from in 0..3 {
            let actions = p.on_event(ProposerEvent::PrepareReply {
                from,
                position: LogPosition(1),
                ballot: current_ballot(&p),
                promised: false,
                next_bal: rival,
                last_vote: None,
            });
            backoff = backoff.or(actions.iter().find_map(|a| match a {
                ProposerAction::ArmTimer {
                    token,
                    kind: TimerKind::Backoff,
                } => Some(*token),
                _ => None,
            }));
        }
        let backoff = backoff.expect("a refused round backs off");
        let actions = p.on_event(decided(1, &other_entry(&[A])));
        match &actions[0] {
            ProposerAction::Broadcast(PaxosMsg::Prepare {
                position, ballot, ..
            }) => {
                assert_eq!(*position, LogPosition(2));
                assert_eq!(*ballot, first_ballot, "a new position starts afresh");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.promotions(), 1);
        assert_eq!(p.transactions().len(), 1);
        assert_eq!(p.transactions()[0].id, TxnId::new(7, 2));
        // The back-off armed at position 1 fires into nothing.
        assert!(p
            .on_event(ProposerEvent::Timer { token: backoff })
            .is_empty());
        p.on_event(prepare_reply(&p, 0, true, None));
        p.on_event(prepare_reply(&p, 1, true, None));
        p.on_event(accept_reply(&p, 0, true));
        let outcome = p.on_event(accept_reply(&p, 1, true));
        let outcome = finished(&outcome).unwrap();
        assert_eq!(outcome.committed_txns, vec![TxnId::new(7, 2)]);
        assert_eq!(
            outcome.aborted_txns,
            vec![(TxnId::new(7, 1), AbortReason::Conflict)]
        );
        assert_eq!(outcome.position, Some(LogPosition(2)));
    }

    #[test]
    fn a_decided_rival_aborts_a_basic_paxos_commit() {
        let mut p = proposer(ProposerConfig::basic(3));
        p.start();
        let actions = p.on_event(decided(1, &other_entry(&[Z])));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert_eq!(outcome.abort_reason, Some(AbortReason::Conflict));
        assert_eq!(outcome.promotions, 0);
    }

    #[test]
    fn a_decision_elsewhere_or_after_the_outcome_changes_nothing() {
        let mut p = proposer(ProposerConfig::cp(3).with_fast_path(false));
        let winner = other_entry(&[Z]);
        assert!(
            p.on_event(decided(1, &winner)).is_empty(),
            "not started yet"
        );
        p.start();
        for position in [0, 2, 9] {
            assert!(p.on_event(decided(position, &winner)).is_empty());
        }
        assert_eq!(p.current_position(), LogPosition(1));
        assert_eq!(p.promotions(), 0);
        let own = Arc::new(LogEntry::single(own_txn(&[A], &[A])));
        assert!(finished(&p.on_event(decided(1, &own))).unwrap().committed);
        assert!(p.on_event(decided(1, &winner)).is_empty());
        assert!(p.on_event(decided(2, &winner)).is_empty());
    }

    #[test]
    fn a_recovery_instance_finishes_on_a_decided_entry() {
        let mut p = Proposer::new_recovery(ProposerConfig::cp(3), GroupId(0), 4, LogPosition(3));
        p.start();
        let actions = p.on_event(decided(3, &other_entry(&[Z])));
        let outcome = finished(&actions).unwrap();
        assert!(!outcome.committed);
        assert!(outcome.committed_txns.is_empty() && outcome.aborted_txns.is_empty());
        assert!(p.is_finished());
    }

    #[test]
    fn a_fast_ballot_needs_every_replica_and_a_classic_one_a_majority() {
        let fast = Ballot::fast(7);
        let classic = Ballot::initial(7);
        for (replicas, majority) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)] {
            assert_eq!(quorum_for_ballot(fast, replicas), replicas);
            assert_eq!(quorum_for_ballot(classic, replicas), majority);
            assert_eq!(
                quorum_for_ballot(classic.advance_past(Some(Ballot::initial(9))), replicas),
                majority
            );
        }
    }

    /// The `promotions` of the accepts `actions` send.
    fn accepted_promotions(actions: &[ProposerAction]) -> Vec<Option<u32>> {
        actions
            .iter()
            .filter_map(|a| match a {
                ProposerAction::Broadcast(PaxosMsg::Accept { promotions, .. })
                | ProposerAction::Send(_, PaxosMsg::Accept { promotions, .. }) => Some(*promotions),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn only_a_pipelined_batchs_own_entry_carries_its_promotions() {
        let batch = || vec![own_txn(&[], &[A])];
        let granted = |p: &mut Proposer| {
            p.start();
            p.on_event(ProposerEvent::FastPathReply {
                position: p.current_position(),
                granted: true,
            })
        };
        // A pipelined slot's own entry, on the fast path and on its re-send.
        let cfg = ProposerConfig::cp(3).with_fast_resends(1);
        let mut slot =
            Proposer::new_batch_pipelined(cfg, GroupId(0), 7, batch(), LogPosition(1), 2, false);
        assert_eq!(accepted_promotions(&granted(&mut slot)), [Some(2)]);
        let token = slot.timer_token;
        let resent = slot.on_event(ProposerEvent::Timer { token });
        assert_eq!(accepted_promotions(&resent), [Some(2), Some(2), Some(2)]);

        // A slot that adopts another proposer's vote carries none.
        let cfg = ProposerConfig::cp(3).with_fast_path(false);
        let mut slot =
            Proposer::new_batch_pipelined(cfg, GroupId(0), 7, batch(), LogPosition(1), 0, false);
        slot.start();
        let vote = Some((Ballot::initial(9), other_entry(&[A])));
        slot.on_event(prepare_reply(&slot, 0, true, vote.clone()));
        let adopted = slot.on_event(prepare_reply(&slot, 1, true, vote));
        assert_eq!(accepted_promotions(&adopted), [None]);

        // A direct client's accept and a recovery no-op carry none either.
        let mut direct = Proposer::new(
            ProposerConfig::cp(3),
            GroupId(0),
            7,
            batch(),
            LogPosition(1),
            0,
        );
        assert_eq!(accepted_promotions(&granted(&mut direct)), [None]);
        let mut recovery =
            Proposer::new_recovery(ProposerConfig::basic(3), GroupId(0), 7, LogPosition(1));
        recovery.start();
        recovery.on_event(prepare_reply(&recovery, 0, true, None));
        let noop = recovery.on_event(prepare_reply(&recovery, 1, true, None));
        assert_eq!(accepted_promotions(&noop), [None]);
    }
}
