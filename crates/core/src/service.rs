//! The Transaction Service: one per datacenter (logically — the paper runs
//! many stateless processes; state lives in the store, so one actor per
//! datacenter is behaviourally identical).
//!
//! Responsibilities (§2.2, §4):
//! * serve **snapshot reads** ([`Msg::SnapshotRead`]): watermark-bounded
//!   reads from read-only sessions, answered synchronously off the local
//!   store at or below the carried position — never waiting, never
//!   triggering recovery (`unavailable` on a gap, retry elsewhere) — so
//!   *any* replica of a group can serve its read traffic, not just the
//!   group home;
//! * play the Paxos acceptor role (Algorithm 1) for every log position —
//!   with durable storage, a granted promise or cast vote is appended to
//!   the WAL and its reply held; one sync per batch of held
//!   acknowledgements, at most [`ACK_SYNC_LATENCY`] after the first of them
//!   was held, releases them all;
//! * install decided entries into the local write-ahead log and apply them
//!   to the local key-value store — with durable storage, once their
//!   `Decided` record rides a sync: the one that releases the next batch of
//!   held acknowledgements, a read that needs them, or at the latest
//!   [`DECIDED_FLUSH_DEADLINE`] later;
//! * answer a prepare or accept at a position this datacenter forgot in a
//!   restart from disk with its group state ([`Msg::CatchUp`]) instead of a
//!   promise or a vote, and adopt such a state from a peer when it lags;
//! * catch up missing log positions by running recovery Paxos instances
//!   proposing no-ops (§4.1, Fault Tolerance and Recovery), started by the
//!   janitor below;
//! * host the **group commit engine** for the submitted commit route: a
//!   [`Msg::CommitRequest`] carrying a finished transaction is submitted to
//!   a lazily-created per-group [`GroupCommitter`], which batches commits
//!   from every client of the group into pipelined Paxos-CP instances; the
//!   per-member fate returns to the requester as a [`Msg::CommitReply`];
//! * run the **orphaned-position janitor**: when the first undecided
//!   position of a group stays orphaned past a timeout — a dead proposer's
//!   majority-voted value that nobody pushes through, which wedges
//!   read-carrying transactions into conflict-abort loops — the service
//!   re-proposes it through a recovery instance, adopting the voted value
//!   (or filling a no-op) so the prefix advances and liveness returns.
//!
//! The service is group-agnostic by construction: every message names its
//! transaction group, per-group state lives in the shared
//! [`DatacenterCore`](crate::DatacenterCore) (one log per group,
//! group-qualified store rows), and a decided `Apply` — whether it carries
//! a single transaction or a whole batched/combined entry — installs in
//! one step. Sharding the workload over many groups therefore needs no
//! service-side changes: each datacenter leads its subset of groups (see
//! [`crate::Directory::group_home`]) while acting as acceptor for all.

use crate::batch::{BatchConfig, GroupCommitter};
use crate::datacenter::{GroupState, SharedCore};
use crate::directory::Directory;
use crate::metrics::RunMetrics;
use crate::msg::Msg;
use crate::proposers::{Env, Input, Proposers};
use crate::session::{apply_client_actions, ClientAction, ClientConfig};
use parking_lot::Mutex;
use paxos::{AbortReason, PaxosMsg, Proposer, ProposerConfig, TimerKind};
use simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use walog::{AttrId, GroupId, KeyId, LogPosition, Transaction, TxnId};

/// Timer tag reserved for the janitor tick (recovery/committer tags count
/// up from 1 and can never collide with it).
const JANITOR_TAG: u64 = u64::MAX;

/// Timer tag reserved for the sync deadline, which releases held
/// acknowledgements and makes buffered `Decided` records durable.
const FLUSH_TAG: u64 = u64::MAX - 1;

/// The modelled latency of one WAL sync on the simulated clock: a held
/// acknowledgement leaves at most this long after the first reply its sync
/// covers was held, and every reply held meanwhile rides the same sync.
/// 500 µs is the sync latency of a cloud block device; the simulated
/// network runs on the paper's EC2 round trips, so the simulated disk is
/// modelled on the same platform.
pub const ACK_SYNC_LATENCY: SimDuration = SimDuration::from_micros(500);

/// The longest a decided entry's buffered `Decided` record waits for a sync
/// some held acknowledgement pays for before the service syncs it on its
/// own.
/// No acknowledgement depends on the record (the decision is replicated),
/// but the entry applies only once it is durable.
pub const DECIDED_FLUSH_DEADLINE: SimDuration = SimDuration::from_millis(1);

/// High bit mixed into the ballot identity of service-side recovery
/// proposers. The service's hosted committers propose under the service
/// node's own id; a recovery instance racing a committer slot for the same
/// position must not share its ballot identity, or the acceptors (and the
/// two proposers' reply filters) could not tell their rounds apart.
const RECOVERY_BALLOT_BIT: u64 = 1 << 40;

/// Janitor attempts per orphaned position before giving up (a position
/// that cannot decide — e.g. behind a long partition — must not keep the
/// simulation busy forever; new traffic re-hints the group).
const JANITOR_MAX_ATTEMPTS: u32 = 5;

/// The remembered outcome of a decided member: everything needed to
/// reconstruct the original [`Msg::CommitReply`] for a retried submission.
#[derive(Clone, Debug)]
struct DecidedFate {
    group: GroupId,
    committed: bool,
    promotions: u32,
    combined: bool,
    rounds: u32,
    abort_reason: Option<AbortReason>,
}

/// An acceptor reply waiting for the sync that makes its promise or vote
/// durable, tagged with the datacenter incarnation it was appended in.
struct HeldReply {
    to: NodeId,
    reply: Msg,
    incarnation: u64,
}

/// The per-datacenter Transaction Service actor.
pub struct TransactionService {
    replica: usize,
    core: SharedCore,
    directory: Arc<Directory>,
    message_timeout: SimDuration,
    backoff_max: SimDuration,
    /// Running recovery instances, by the `(group, position)` they learn.
    recovery: Proposers<(GroupId, LogPosition)>,
    next_tag: u64,
    /// Protocol settings of the hosted commit engine (promotion cap,
    /// combination, timeouts); the route field is irrelevant here.
    commit_config: ClientConfig,
    /// Window/pipeline settings of the hosted committers.
    batch_config: BatchConfig,
    /// One lazily-created commit engine per group this service has received
    /// `CommitRequest`s for (normally the groups it is the home of).
    committers: BTreeMap<GroupId, GroupCommitter>,
    /// Timer tag → (group, committer-local timer tag).
    committer_timers: BTreeMap<u64, (GroupId, u64)>,
    /// In-flight submitted commits: the member's id → (requester,
    /// correlation id). Duplicate requests for an in-flight id are not
    /// resubmitted — the committer already carries the member and proposing
    /// it twice could commit it twice — but they do re-point the reply at
    /// the latest requester so a retried submission still gets answered.
    commit_requests: BTreeMap<TxnId, (NodeId, u64)>,
    /// Fates of members this service has already decided, so a retry of a
    /// decided transaction (a reply lost to a crash or partition) is
    /// answered with the original outcome instead of being re-proposed.
    decided_fates: BTreeMap<TxnId, DecidedFate>,
    /// Optional sink the hosted committers record window occupancy,
    /// pipeline depth and split/stale counters into.
    commit_metrics: Option<Arc<Mutex<RunMetrics>>>,
    /// Whether the orphaned-position janitor runs.
    janitor_enabled: bool,
    /// How long the first undecided position may stay orphaned before the
    /// janitor re-proposes it.
    janitor_patience: SimDuration,
    /// Whether a janitor tick timer is currently armed.
    janitor_armed: bool,
    /// Groups whose recent traffic (votes cast, out-of-order installs) may
    /// have left an orphaned position; the tick scans only these.
    orphan_hints: BTreeSet<GroupId>,
    /// Per-group watch state: the first undecided position last observed,
    /// when it was first seen there, and re-proposal attempts made for it.
    orphan_watch: BTreeMap<GroupId, (LogPosition, SimTime, u32)>,
    /// Acceptor replies held for the next sync, in arrival order.
    held: Vec<HeldReply>,
    /// The armed sync deadline and its timer: the earliest of the held
    /// replies' and the buffered `Decided` records' deadlines.
    sync_timer: Option<(SimTime, TimerId)>,
    /// When this service last sent its group state to a datacenter, by
    /// (replica, group): a lagging replica prepares every missing position
    /// at once, and one state answers them all.
    catch_up_sent: BTreeMap<(usize, GroupId), SimTime>,
}

impl TransactionService {
    /// Create the service for `replica`, backed by the datacenter's shared
    /// storage core. The hosted commit engine defaults to Paxos-CP with the
    /// given message timeout and default batching; override with
    /// [`TransactionService::with_commit_engine`].
    pub fn new(
        replica: usize,
        core: SharedCore,
        directory: Arc<Directory>,
        message_timeout: SimDuration,
    ) -> Self {
        let mut commit_config = ClientConfig::cp();
        commit_config.message_timeout = message_timeout;
        TransactionService {
            replica,
            core,
            directory,
            message_timeout,
            backoff_max: SimDuration::from_millis(100),
            recovery: Proposers::default(),
            next_tag: 0,
            commit_config,
            batch_config: BatchConfig::default(),
            committers: BTreeMap::new(),
            committer_timers: BTreeMap::new(),
            commit_requests: BTreeMap::new(),
            decided_fates: BTreeMap::new(),
            commit_metrics: None,
            janitor_enabled: true,
            janitor_patience: message_timeout,
            janitor_armed: false,
            orphan_hints: BTreeSet::new(),
            orphan_watch: BTreeMap::new(),
            held: Vec::new(),
            sync_timer: None,
            catch_up_sent: BTreeMap::new(),
        }
    }

    /// Configure the hosted commit engine: the commit-protocol settings and
    /// the window/pipeline settings its per-group committers run with.
    pub fn with_commit_engine(mut self, config: ClientConfig, batch: BatchConfig) -> Self {
        self.commit_config = config;
        self.batch_config = batch;
        self
    }

    /// Record the hosted committers' window occupancy, pipeline depth and
    /// split/stale counters into a shared [`RunMetrics`] sink.
    pub fn with_commit_metrics(mut self, metrics: Arc<Mutex<RunMetrics>>) -> Self {
        self.commit_metrics = Some(metrics);
        self
    }

    /// Enable or disable the orphaned-position janitor (enabled by
    /// default; regression tests disable it to demonstrate the wedge).
    pub fn with_janitor(mut self, enabled: bool) -> Self {
        self.janitor_enabled = enabled;
        self
    }

    /// The replica index this service belongs to.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Groups this service currently hosts a commit engine for.
    pub fn hosted_committer_groups(&self) -> Vec<GroupId> {
        self.committers.keys().copied().collect()
    }

    fn handle_paxos(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: PaxosMsg) {
        // Proposer replies may belong to a hosted committer's pipeline slot
        // rather than a recovery instance; the committer filters by slot
        // position and ballot, so offering every reply is safe (recovery
        // proposers carry a distinct ballot identity, see
        // `RECOVERY_BALLOT_BIT`).
        if matches!(
            msg,
            PaxosMsg::PrepareReply { .. }
                | PaxosMsg::AcceptReply { .. }
                | PaxosMsg::LeaderClaimReply { .. }
        ) {
            self.drive_committer_reply(ctx, from, &msg);
        }
        match msg {
            PaxosMsg::Prepare {
                group,
                position,
                ballot,
            } => {
                // Persist-before-ack: a granted promise is appended to the
                // WAL and its reply held until a sync covers it. A failed
                // sync drops the reply — indistinguishable from a crash just
                // before answering, which Paxos already tolerates.
                // Rejections create no new durable state (the promise they
                // reveal already is) and leave at once. A position this
                // datacenter forgot gets no promise at all.
                let reply = {
                    let mut core = self.core.lock();
                    if core.forgot(group, position) {
                        None
                    } else {
                        let outcome = core.acceptor().handle_prepare(group, position, ballot);
                        let held = (outcome.promised
                            && core.persist_promise(group, position, ballot))
                        .then(|| core.incarnation());
                        Some((outcome, held))
                    }
                };
                let Some((outcome, held)) = reply else {
                    self.send_catch_up(ctx, from, group);
                    return;
                };
                self.ack_after_sync(
                    ctx,
                    from,
                    held,
                    Msg::Paxos(PaxosMsg::PrepareReply {
                        group,
                        position,
                        ballot,
                        promised: outcome.promised,
                        next_bal: outcome.next_bal,
                        last_vote: outcome.last_vote,
                    }),
                );
                // A prepare at an undecided position is exactly the wedge
                // signal — read-carrying clients re-preparing behind an
                // orphaned vote — so let the janitor take a look.
                self.hint_orphan(ctx, group);
            }
            PaxosMsg::Accept {
                group,
                position,
                ballot,
                value,
            } => {
                // Persist-before-ack, as for promises: a cast vote must be
                // durable before the acceptance is acknowledged.
                let reply = {
                    let mut core = self.core.lock();
                    if core.forgot(group, position) {
                        None
                    } else {
                        let accepted = core
                            .acceptor()
                            .handle_accept(group, position, ballot, &value);
                        let held = (accepted && core.persist_vote(group, position, ballot, &value))
                            .then(|| core.incarnation());
                        Some((accepted, held))
                    }
                };
                let Some((accepted, held)) = reply else {
                    self.send_catch_up(ctx, from, group);
                    return;
                };
                self.ack_after_sync(
                    ctx,
                    from,
                    held,
                    Msg::Paxos(PaxosMsg::AcceptReply {
                        group,
                        position,
                        ballot,
                        accepted,
                    }),
                );
                // A cast vote is what an orphaned position is made of: if
                // its proposer dies before the decide, only the janitor (or
                // a pipelined slot) will push the value through. A rejected
                // accept still signals proposer activity at an undecided
                // position (e.g. a stale retry after a partition healed), so
                // hint regardless — the tick validates orphanhood.
                self.hint_orphan(ctx, group);
            }
            PaxosMsg::Apply {
                group,
                position,
                ballot,
                value,
            } => {
                let (prefix, unsynced) = {
                    let mut core = self.core.lock();
                    core.acceptor()
                        .handle_apply(group, position, ballot, &value);
                    let prefix = core.install_entry(group, position, value);
                    (prefix, core.has_unsynced())
                };
                // Every decided entry reaches its datacenter's service as an
                // `Apply` (the proposer broadcasts to every replica), so
                // this is where a buffered `Decided` record gets its
                // deadline.
                if unsynced {
                    self.arm_sync(ctx, DECIDED_FLUSH_DEADLINE);
                }
                // The decide makes any recovery instance for the position
                // redundant.
                self.recovery.remove(&(group, position));
                // An out-of-order install means a gap below a decided
                // position: the first undecided position may be orphaned.
                if position > prefix {
                    self.hint_orphan(ctx, group);
                }
            }
            PaxosMsg::LeaderClaim { group, position } => {
                let granted = self
                    .core
                    .lock()
                    .leader_claim(group, position, from.0 as u64);
                ctx.send(
                    from,
                    Msg::Paxos(PaxosMsg::LeaderClaimReply {
                        group,
                        position,
                        granted,
                    }),
                );
            }
            PaxosMsg::PrepareReply {
                group, position, ..
            }
            | PaxosMsg::AcceptReply {
                group, position, ..
            } => {
                self.drive_recovery(ctx, Input::Reply((group, position), from, &msg));
            }
            PaxosMsg::LeaderClaimReply { .. } => {
                // Recovery proposers never use the fast path; the hosted
                // committers were offered the reply above.
            }
        }
    }

    /// The release path of an acceptor reply. It leaves at once when its
    /// state needs no sync (`held` is `None`: a rejection, or an in-memory
    /// datacenter). Otherwise it is held, with the incarnation its record
    /// was appended in, until the next sync, due [`ACK_SYNC_LATENCY`] from
    /// now at the latest.
    fn ack_after_sync(
        &mut self,
        ctx: &mut Context<Msg>,
        to: NodeId,
        held: Option<u64>,
        reply: Msg,
    ) {
        let Some(incarnation) = held else {
            ctx.send(to, reply);
            return;
        };
        self.held.push(HeldReply {
            to,
            reply,
            incarnation,
        });
        self.arm_sync(ctx, ACK_SYNC_LATENCY);
    }

    /// Make sure a sync happens within `within`: keep an armed deadline at
    /// or before it, or replace a later one.
    fn arm_sync(&mut self, ctx: &mut Context<Msg>, within: SimDuration) {
        let due = ctx.now() + within;
        if let Some((armed, timer)) = self.sync_timer {
            if armed <= due {
                return;
            }
            ctx.cancel_timer(timer);
        }
        self.sync_timer = Some((due, ctx.set_timer(within, FLUSH_TAG)));
    }

    /// The sync deadline fired: one WAL sync makes every buffered record
    /// durable, applies the decided entries waiting for it, and releases
    /// the held replies in arrival order — except those appended before a
    /// restart from disk, whose records may have gone with a torn tail. A
    /// failed sync drops the held replies (crash-equivalent); their records
    /// stay buffered for the next sync, which sends nothing for them.
    fn sync_and_release(&mut self, ctx: &mut Context<Msg>) {
        self.sync_timer = None;
        let (synced, incarnation, unsynced) = {
            let mut core = self.core.lock();
            let synced = core.flush();
            (synced, core.incarnation(), core.has_unsynced())
        };
        if !synced {
            self.held.clear();
            if unsynced {
                self.arm_sync(ctx, DECIDED_FLUSH_DEADLINE);
            }
            return;
        }
        for held in self.held.drain(..) {
            if held.incarnation == incarnation {
                ctx.send(held.to, held.reply);
            }
        }
    }

    /// Answer a prepare or accept at a position this datacenter forgot:
    /// ship its state of the group to the service of the requester's
    /// datacenter, at most once per message timeout per datacenter.
    fn send_catch_up(&mut self, ctx: &mut Context<Msg>, from: NodeId, group: GroupId) {
        let Some(replica) = self
            .directory
            .replica_of_service(from)
            .or_else(|| self.directory.replica_of_client(from))
        else {
            return;
        };
        let now = ctx.now();
        if self
            .catch_up_sent
            .get(&(replica, group))
            .is_some_and(|sent| now.since(*sent) < self.message_timeout)
        {
            return;
        }
        let Some(state) = self.core.lock().group_state(group) else {
            return;
        };
        self.catch_up_sent.insert((replica, group), now);
        ctx.send(
            self.directory.service_node(replica),
            Msg::CatchUp(Arc::new(state)),
        );
    }

    /// Adopt a peer's group state that reaches past the local prefix: the
    /// recovery instances and committer slots it covers are done.
    fn adopt(&mut self, ctx: &mut Context<Msg>, state: &GroupState) {
        let group = state.group;
        let prefix = {
            let mut core = self.core.lock();
            if !core.adopt_group_state(state) {
                return;
            }
            core.read_position(group)
        };
        self.recovery
            .retain(|&(g, position)| g != group || position > prefix);
        if let Some(committer) = self.committers.get_mut(&group) {
            let actions = committer.abandon_through(ctx.now(), prefix);
            self.apply_committer_actions(ctx, group, actions);
        }
    }

    /// Offer a proposer reply to the hosted committer of its group (the
    /// committer routes it to the pipeline slot at the carried position).
    fn drive_committer_reply(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: &PaxosMsg) {
        let group = msg.group();
        let Some(committer) = self.committers.get_mut(&group) else {
            // No hosted committer for this group (e.g. a pure direct-route
            // run): skip before cloning the reply.
            return;
        };
        let wrapped = Msg::Paxos(msg.clone());
        let actions = committer.on_message(ctx.now(), from, &wrapped);
        self.apply_committer_actions(ctx, group, actions);
    }

    /// Submitted commit route: feed the finished transaction into the
    /// group's hosted commit engine, creating it on first use.
    fn handle_commit_request(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        req_id: u64,
        txn: Transaction,
    ) {
        let group = txn.group;
        // A retry of an already-decided member is answered with the
        // original fate; re-proposing it could commit it twice.
        if let Some(fate) = self.decided_fates.get(&txn.id) {
            let fate = fate.clone();
            self.note_duplicate_suppressed();
            ctx.send(
                from,
                Msg::CommitReply {
                    req_id,
                    group: fate.group,
                    txn: txn.id,
                    committed: fate.committed,
                    promotions: fate.promotions,
                    combined: fate.combined,
                    rounds: fate.rounds,
                    abort_reason: fate.abort_reason,
                },
            );
            return;
        }
        // A retry that lands here after a group-home migration: this
        // service never saw the original submission, but the replicated log
        // may already carry the member (the old home decided it before
        // failing over). Answer committed rather than double-committing.
        if self.core.lock().is_committed(group, txn.id) {
            self.note_duplicate_suppressed();
            ctx.send(
                from,
                Msg::CommitReply {
                    req_id,
                    group,
                    txn: txn.id,
                    committed: true,
                    promotions: 0,
                    combined: false,
                    rounds: 0,
                    abort_reason: None,
                },
            );
            return;
        }
        // A duplicate of an in-flight member must not be resubmitted — the
        // committer already carries it — but the reply is re-pointed at the
        // latest requester so the retry still gets answered.
        if let Some(slot) = self.commit_requests.get_mut(&txn.id) {
            *slot = (from, req_id);
            self.note_duplicate_suppressed();
            return;
        }
        self.commit_requests.insert(txn.id, (from, req_id));
        if !self.committers.contains_key(&group) {
            let mut committer = GroupCommitter::new(
                ctx.node(),
                self.replica,
                group,
                Arc::clone(&self.directory),
                self.commit_config.clone(),
                self.batch_config.clone(),
            );
            if let Some(sink) = &self.commit_metrics {
                committer = committer.with_metrics(Arc::clone(sink));
            }
            self.committers.insert(group, committer);
        }
        let actions = self
            .committers
            .get_mut(&group)
            .expect("inserted above")
            .submit(ctx.now(), txn);
        self.apply_committer_actions(ctx, group, actions);
    }

    /// Execute a hosted committer's requested effects: wire sends go out as
    /// this service's messages, timers are re-tagged into the service's tag
    /// space, and per-member outcomes return to their requesters as
    /// [`Msg::CommitReply`]s.
    fn apply_committer_actions(
        &mut self,
        ctx: &mut Context<Msg>,
        group: GroupId,
        actions: Vec<ClientAction>,
    ) {
        for action in actions {
            match action {
                ClientAction::Send(to, msg) => ctx.send(to, msg),
                ClientAction::ArmTimer { delay, tag } => {
                    self.next_tag += 1;
                    let service_tag = self.next_tag;
                    self.committer_timers.insert(service_tag, (group, tag));
                    ctx.set_timer(delay, service_tag);
                }
                ClientAction::Finished(result) => {
                    let Some(id) = result.txn else {
                        continue;
                    };
                    // Remember the fate before answering: a retry arriving
                    // after the reply was lost must get the same outcome.
                    // `Unavailable` is not a fate — the member may still be
                    // undecided, and a retry must be allowed to re-drive it.
                    if result.abort_reason != Some(AbortReason::Unavailable) {
                        self.decided_fates.insert(
                            id,
                            DecidedFate {
                                group,
                                committed: result.committed,
                                promotions: result.promotions,
                                combined: result.combined,
                                rounds: result.rounds,
                                abort_reason: result.abort_reason,
                            },
                        );
                    }
                    let Some((requester, req_id)) = self.commit_requests.remove(&id) else {
                        continue;
                    };
                    ctx.send(
                        requester,
                        Msg::CommitReply {
                            req_id,
                            group,
                            txn: id,
                            committed: result.committed,
                            promotions: result.promotions,
                            combined: result.combined,
                            rounds: result.rounds,
                            abort_reason: result.abort_reason,
                        },
                    );
                }
            }
        }
    }

    /// Count a duplicate submission this service absorbed instead of
    /// re-proposing.
    fn note_duplicate_suppressed(&self) {
        if let Some(sink) = &self.commit_metrics {
            sink.lock().duplicate_suppressions += 1;
        }
    }

    /// Note that `group` may have an orphaned position and make sure a
    /// janitor tick is scheduled to look.
    fn hint_orphan(&mut self, ctx: &mut Context<Msg>, group: GroupId) {
        if !self.janitor_enabled {
            return;
        }
        self.orphan_hints.insert(group);
        self.ensure_janitor(ctx);
    }

    fn janitor_period(&self) -> SimDuration {
        SimDuration::from_micros((self.janitor_patience.as_micros() / 2).max(1))
    }

    fn ensure_janitor(&mut self, ctx: &mut Context<Msg>) {
        if !self.janitor_enabled || self.janitor_armed || self.orphan_hints.is_empty() {
            return;
        }
        self.janitor_armed = true;
        ctx.set_timer(self.janitor_period(), JANITOR_TAG);
    }

    /// One janitor pass: for every hinted group, find the first undecided
    /// position; if it is orphaned — decided entries sit above it, or a
    /// majority-voted value lingers at it, and nobody is pushing it through
    /// — and it has stayed put past the patience window, re-propose it via
    /// a recovery instance (which adopts any voted value per the Paxos
    /// safety rule, or fills a no-op).
    fn janitor_tick(&mut self, ctx: &mut Context<Msg>) {
        self.janitor_armed = false;
        let now = ctx.now();
        let hinted: Vec<GroupId> = self.orphan_hints.iter().copied().collect();
        let mut to_recover = Vec::new();
        {
            let core = self.core.lock();
            for group in hinted {
                let prefix = core.read_position(group);
                let candidate = prefix.next();
                let orphaned = !core.has_entry(group, candidate)
                    && (core
                        .log(group)
                        .is_some_and(|log| log.last_decided() > candidate)
                        || core.acceptor().current_vote(group, candidate).is_some());
                if !orphaned {
                    self.orphan_hints.remove(&group);
                    self.orphan_watch.remove(&group);
                    continue;
                }
                let watch = self
                    .orphan_watch
                    .entry(group)
                    .or_insert((candidate, now, 0));
                if watch.0 != candidate {
                    *watch = (candidate, now, 0);
                }
                if watch.2 >= JANITOR_MAX_ATTEMPTS {
                    // Stop burning ticks on a position that cannot decide
                    // (e.g. behind a partition). Drop the watch along with
                    // the hint: when new traffic re-hints the group (say,
                    // after the partition heals), the position gets a fresh
                    // budget of attempts instead of being abandoned forever.
                    self.orphan_hints.remove(&group);
                    self.orphan_watch.remove(&group);
                    continue;
                }
                let committer_competing = self
                    .committers
                    .get(&group)
                    .is_some_and(|c| c.slot_positions().contains(&candidate));
                if now.since(watch.1) >= self.janitor_patience
                    && !committer_competing
                    && !self.recovery.contains(&(group, candidate))
                {
                    watch.2 += 1;
                    to_recover.push((group, candidate));
                }
            }
        }
        for (group, position) in to_recover {
            self.start_recovery(ctx, group, position);
        }
        self.ensure_janitor(ctx);
    }

    /// Serve a snapshot read synchronously at its watermark: no waiting, no
    /// recovery instances. A replica that has not applied up to the
    /// watermark answers `unavailable` immediately and the client retries
    /// elsewhere — snapshot reads are the non-blocking, non-aborting path,
    /// and blocking here would couple them to the commit plane they exist
    /// to stay out of. Consistency across the calls of one snapshot handle
    /// comes from the client-held read lease on the serving replica (see
    /// [`crate::Session::begin_read_only`]), not from anything the service
    /// retains: the core lock is held for the duration of the serve, so
    /// apply-time version GC can never interleave within a single read.
    #[allow(clippy::too_many_arguments)]
    fn handle_snapshot_read(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        req_id: u64,
        group: GroupId,
        key: KeyId,
        attr: AttrId,
        at: LogPosition,
    ) {
        let (value, unavailable) = match self.core.lock().read(group, key, attr, at) {
            Ok(value) => (value, false),
            Err(_gap) => (None, true),
        };
        ctx.send(
            from,
            Msg::SnapshotReadReply {
                req_id,
                group,
                key,
                attr,
                value,
                unavailable,
            },
        );
    }

    fn start_recovery(&mut self, ctx: &mut Context<Msg>, group: GroupId, position: LogPosition) {
        if self.recovery.contains(&(group, position)) {
            return;
        }
        if self.core.lock().has_entry(group, position) {
            return;
        }
        let cfg = ProposerConfig::basic(self.directory.num_replicas());
        // Recovery ballots carry a marked identity so they can never alias
        // a hosted committer's ballots (both run on this service's node).
        let proposer_id = ctx.node().0 as u64 | RECOVERY_BALLOT_BIT;
        let proposer = Box::new(Proposer::new_recovery(cfg, group, proposer_id, position));
        self.drive_recovery(ctx, Input::Start((group, position), proposer));
    }

    /// Feed the recovery instances' proposer host: learned entries install
    /// in this datacenter, and timers wait the message timeout, a backoff
    /// drawn from the simulation RNG, or a fixed 50 ms gather window.
    fn drive_recovery(&mut self, ctx: &mut Context<Msg>, input: Input<'_, (GroupId, LogPosition)>) {
        let (timeout, backoff_max) = (self.message_timeout, self.backoff_max);
        let mut out = Vec::new();
        let env = Env {
            directory: &self.directory,
            home: self.replica,
            next_tag: &mut self.next_tag,
            delay: &mut |kind| match kind {
                TimerKind::ReplyTimeout => timeout,
                TimerKind::Backoff => ctx.rand_backoff(backoff_max),
                TimerKind::Gather => SimDuration::from_millis(50),
            },
        };
        self.recovery.drive(input, env, &mut out);
        apply_client_actions(ctx, out);
    }
}

impl Actor<Msg> for TransactionService {
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Paxos(p) => self.handle_paxos(ctx, from, p),
            Msg::SnapshotRead {
                req_id,
                group,
                key,
                attr,
                at,
            } => {
                self.handle_snapshot_read(ctx, from, req_id, group, key, attr, at);
            }
            Msg::CommitRequest { req_id, txn } => {
                self.handle_commit_request(ctx, from, req_id, txn);
            }
            Msg::CatchUp(state) => self.adopt(ctx, &state),
            Msg::SnapshotReadReply { .. } | Msg::CommitReply { .. } => {
                // Services never issue read or commit requests; stray
                // replies are ignored.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == JANITOR_TAG {
            self.janitor_tick(ctx);
            return;
        }
        if tag == FLUSH_TAG {
            self.sync_and_release(ctx);
            return;
        }
        if let Some((group, committer_tag)) = self.committer_timers.remove(&tag) {
            let actions = match self.committers.get_mut(&group) {
                Some(committer) => committer.on_timer(ctx.now(), committer_tag),
                None => return,
            };
            self.apply_committer_actions(ctx, group, actions);
            return;
        }
        self.drive_recovery(ctx, Input::Timer(tag));
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>) {
        // Groups whose home migrated away during the outage: every client
        // with a member still waiting in the local window has long timed
        // out and re-submitted to the new home (pending means unanswered),
        // so flushing the stale copies below would race the new home's
        // instance and could commit a transaction at two positions. Drop
        // them; the new home owns the reply.
        let moved: Vec<GroupId> = self
            .committers
            .keys()
            .filter(|group| self.directory.group_home(**group) != self.replica)
            .copied()
            .collect();
        for group in moved {
            if let Some(committer) = self.committers.get_mut(&group) {
                for id in committer.drop_pending_window() {
                    self.commit_requests.remove(&id);
                }
            }
        }
        // Timers that fired during the outage were suppressed, which would
        // leave committer slots and recovery proposers wedged forever.
        // Synthesize the fires now (the maps iterate in tag order, which
        // keeps replay deterministic). Firing a not-yet-due timer early only
        // triggers a spurious-but-safe timeout round; a later real fire
        // finds its map entry gone and is a no-op.
        for (_, (group, committer_tag)) in std::mem::take(&mut self.committer_timers) {
            let actions = match self.committers.get_mut(&group) {
                Some(committer) => committer.on_timer(ctx.now(), committer_tag),
                None => continue,
            };
            self.apply_committer_actions(ctx, group, actions);
        }
        let recovery_tags: Vec<u64> = self.recovery.armed_tags().collect();
        for tag in recovery_tags {
            self.drive_recovery(ctx, Input::Timer(tag));
        }
        // The janitor tick may also have been suppressed; re-arm it. So
        // may the sync deadline, while records still wait for a sync. Held
        // acknowledgements die with the crash: their records may have gone
        // with a torn tail, and their proposers time out as for any lost
        // reply.
        self.janitor_armed = false;
        self.ensure_janitor(ctx);
        self.held.clear();
        self.sync_timer = None;
        if self.core.lock().has_unsynced() {
            self.arm_sync(ctx, DECIDED_FLUSH_DEADLINE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DatacenterCore;
    use paxos::Ballot;
    use simnet::{NetworkConfig, Simulation};
    use std::sync::Arc as StdArc;
    use walog::{ItemRef, LogEntry, Transaction, TxnId};

    const GROUP: GroupId = GroupId(0);
    const ROW: KeyId = KeyId(0);
    const A: AttrId = AttrId(0);

    /// A scripted prober actor that sends a batch of messages at start and
    /// records everything it receives.
    struct Prober {
        to_send: Vec<(NodeId, Msg)>,
        received: StdArc<parking_lot::Mutex<Vec<Msg>>>,
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

    fn single_dc_harness(
        to_send: impl Fn(NodeId) -> Vec<(NodeId, Msg)>,
    ) -> (
        Simulation<Msg>,
        SharedCore,
        StdArc<parking_lot::Mutex<Vec<Msg>>>,
    ) {
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        let site = sim.add_site("dc0");
        let core = DatacenterCore::shared("dc0", 0);
        let directory = Directory::new();
        let service = TransactionService::new(
            0,
            core.clone(),
            directory.clone(),
            SimDuration::from_secs(2),
        );
        let service_node = sim.add_node(site, Box::new(service));
        directory.register_datacenter(service_node, core.clone());
        let received = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        let prober = Prober {
            to_send: to_send(service_node),
            received: received.clone(),
        };
        let prober_node = sim.add_node(site, Box::new(prober));
        directory.register_client(prober_node, 0);
        (sim, core, received)
    }

    fn entry(seq: u64, attr: AttrId, value: &str) -> Arc<LogEntry> {
        Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(1, seq), GROUP, LogPosition(0))
                .write(ItemRef::new(ROW, attr), value)
                .build(),
        ))
    }

    #[test]
    fn service_acts_as_acceptor_for_prepare_and_accept() {
        let ballot = Ballot::initial(42);
        let value = entry(5, A, "v");
        let value_clone = Arc::clone(&value);
        let (mut sim, core, received) = single_dc_harness(move |svc| {
            vec![
                (
                    svc,
                    Msg::Paxos(PaxosMsg::Prepare {
                        group: GROUP,
                        position: LogPosition(1),
                        ballot,
                    }),
                ),
                (
                    svc,
                    Msg::Paxos(PaxosMsg::Accept {
                        group: GROUP,
                        position: LogPosition(1),
                        ballot,
                        value: Arc::clone(&value_clone),
                    }),
                ),
                (
                    svc,
                    Msg::Paxos(PaxosMsg::Apply {
                        group: GROUP,
                        position: LogPosition(1),
                        ballot,
                        value: Arc::clone(&value_clone),
                    }),
                ),
            ]
        });
        sim.run_until_idle_capped(1_000);
        let got = received.lock();
        assert!(got
            .iter()
            .any(|m| matches!(m, Msg::Paxos(PaxosMsg::PrepareReply { promised: true, .. }))));
        assert!(got
            .iter()
            .any(|m| matches!(m, Msg::Paxos(PaxosMsg::AcceptReply { accepted: true, .. }))));
        // The apply installed the entry and applied it to the store.
        assert!(core.lock().has_entry(GROUP, LogPosition(1)));
        assert_eq!(
            core.lock().read(GROUP, ROW, A, LogPosition(1)).unwrap(),
            Some("v".to_string())
        );
    }

    #[test]
    fn a_buffered_decided_record_is_synced_by_the_flush_deadline() {
        let (mut sim, core, _) = single_dc_harness(|svc| {
            vec![(
                svc,
                Msg::Paxos(PaxosMsg::Apply {
                    group: GROUP,
                    position: LogPosition(1),
                    ballot: Ballot::initial(9),
                    value: entry(1, A, "v"),
                }),
            )]
        });
        let cfg = storage::DurableConfig::new(storage::scratch_dir("service-flush"));
        core.lock()
            .attach_storage(storage::DcStorage::open(cfg.clone()).unwrap());
        let applied = |core: &SharedCore| core.lock().log(GROUP).unwrap().applied_through();
        // The Apply lands after the 1 ms link: installed, not yet durable.
        sim.run_for(SimDuration::from_micros(1_500));
        assert!(core.lock().has_entry(GROUP, LogPosition(1)));
        assert!(core.lock().has_unsynced());
        assert_eq!(applied(&core), LogPosition::ZERO);
        sim.run_for(DECIDED_FLUSH_DEADLINE);
        assert!(!core.lock().has_unsynced());
        assert_eq!(applied(&core), LogPosition(1));
        assert_eq!(core.lock().storage_stats().unwrap().syncs, 1);
        storage::remove_scratch_dir(&cfg.dir);
    }

    /// Durable acknowledgements wait for one sync that releases them all, in
    /// arrival order; a rejection changes no durable state and leaves at
    /// once.
    #[test]
    fn one_sync_releases_every_held_acknowledgement() {
        let prepare = |position, round| {
            Msg::Paxos(PaxosMsg::Prepare {
                group: GROUP,
                position: LogPosition(position),
                ballot: Ballot { round, proposer: 1 },
            })
        };
        let accept = Msg::Paxos(PaxosMsg::Accept {
            group: GROUP,
            position: LogPosition(3),
            // A fast-round vote: no promise needed first.
            ballot: Ballot {
                round: 0,
                proposer: 1,
            },
            value: entry(3, A, "v"),
        });
        let (mut sim, core, received) = single_dc_harness(move |svc| {
            [prepare(1, 5), prepare(2, 5), accept.clone(), prepare(1, 3)]
                .into_iter()
                .map(|msg| (svc, msg))
                .collect()
        });
        let cfg = storage::DurableConfig::new(storage::scratch_dir("service-held-acks"));
        core.lock()
            .attach_storage(storage::DcStorage::open(cfg.clone()).unwrap());
        let replies = |received: &StdArc<parking_lot::Mutex<Vec<Msg>>>| -> Vec<(u64, bool)> {
            received
                .lock()
                .iter()
                .map(|m| match m {
                    Msg::Paxos(PaxosMsg::PrepareReply {
                        position, promised, ..
                    }) => (position.0, *promised),
                    Msg::Paxos(PaxosMsg::AcceptReply {
                        position, accepted, ..
                    }) => (position.0, *accepted),
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        // Everything arrives after the 1 ms link; only the rejection of the
        // stale prepare is back one link later.
        sim.run_for(SimDuration::from_micros(
            2_000 + ACK_SYNC_LATENCY.as_micros() - 1,
        ));
        assert_eq!(replies(&received), [(1, false)]);
        assert_eq!(core.lock().storage_stats().unwrap().syncs, 1);
        sim.run_until_idle_capped(1_000);
        assert_eq!(
            replies(&received),
            [(1, false), (1, true), (2, true), (3, true)]
        );
        let stats = core.lock().storage_stats().unwrap();
        assert_eq!((stats.syncs, stats.records_synced), (1, 3));
        storage::remove_scratch_dir(&cfg.dir);
    }

    #[test]
    fn snapshot_read_is_served_at_the_watermark() {
        // Two versions of the row exist (positions 1 and 2); a snapshot
        // read at watermark 1 must observe position 1's value even though
        // the store has moved on.
        let (mut sim, core, received) = single_dc_harness(|svc| {
            vec![(
                svc,
                Msg::SnapshotRead {
                    req_id: 11,
                    group: GROUP,
                    key: ROW,
                    attr: A,
                    at: LogPosition(1),
                },
            )]
        });
        {
            let mut core = core.lock();
            core.install_entry(GROUP, LogPosition(1), entry(1, A, "old"));
            core.install_entry(GROUP, LogPosition(2), entry(2, A, "new"));
        }
        sim.run_until_idle_capped(1_000);
        let got = received.lock();
        assert_eq!(got.len(), 1);
        match &got[0] {
            Msg::SnapshotReadReply {
                req_id,
                value,
                unavailable,
                ..
            } => {
                assert_eq!(*req_id, 11);
                assert_eq!(value.as_deref(), Some("old"));
                assert!(!unavailable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gapped_snapshot_read_answers_unavailable_immediately_without_recovery() {
        // The peer is crashed so any recovery instance would stall forever;
        // a snapshot read above the applied prefix must NOT wait or start
        // recovery — it answers `unavailable` straight away so the client
        // can retry at another replica.
        let (mut sim, _service_node, _core, received) =
            stalled_recovery_harness(vec![Msg::SnapshotRead {
                req_id: 13,
                group: GROUP,
                key: ROW,
                attr: A,
                at: LogPosition(1),
            }]);
        sim.run_for(SimDuration::from_millis(100));
        let got = received.lock();
        assert_eq!(
            got.len(),
            1,
            "gapped snapshot read must be answered immediately, got {got:?}"
        );
        assert!(matches!(
            &got[0],
            Msg::SnapshotReadReply {
                req_id: 13,
                value: None,
                unavailable: true,
                ..
            }
        ));
    }

    #[test]
    fn commit_request_is_batched_and_answered_with_the_member_fate() {
        // Two clients' transactions arrive as CommitRequests; the hosted
        // committer windows them into one instance (single replica: its own
        // acceptor is the majority) and answers each requester.
        let txn_a = Transaction::builder(TxnId::new(9, 1), GROUP, LogPosition(0))
            .write(ItemRef::new(ROW, A), "a")
            .build();
        let txn_b = Transaction::builder(TxnId::new(9, 2), GROUP, LogPosition(0))
            .write(ItemRef::new(ROW, AttrId(1)), "b")
            .build();
        let (mut sim, core, received) = single_dc_harness(move |svc| {
            vec![
                (
                    svc,
                    Msg::CommitRequest {
                        req_id: 1,
                        txn: txn_a.clone(),
                    },
                ),
                (
                    svc,
                    Msg::CommitRequest {
                        req_id: 2,
                        txn: txn_b.clone(),
                    },
                ),
            ]
        });
        sim.run_until_idle_capped(100_000);
        let got = received.lock();
        let replies: Vec<(u64, bool)> = got
            .iter()
            .filter_map(|m| match m {
                Msg::CommitReply {
                    req_id, committed, ..
                } => Some((*req_id, *committed)),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len(), 2, "every request gets one reply: {got:?}");
        assert!(replies.iter().all(|(_, committed)| *committed));
        drop(got);
        // Both members rode one combined entry at position 1.
        let core = core.lock();
        let log = core.log(GROUP).expect("group log");
        assert_eq!(log.get(LogPosition(1)).unwrap().txn_ids().len(), 2);
        assert_eq!(core.read_position(GROUP), LogPosition(1));
    }

    #[test]
    fn duplicate_commit_requests_are_not_resubmitted() {
        let txn = Transaction::builder(TxnId::new(9, 1), GROUP, LogPosition(0))
            .write(ItemRef::new(ROW, A), "a")
            .build();
        let (mut sim, core, received) = single_dc_harness(move |svc| {
            vec![
                (
                    svc,
                    Msg::CommitRequest {
                        req_id: 1,
                        txn: txn.clone(),
                    },
                ),
                (
                    svc,
                    Msg::CommitRequest {
                        req_id: 1,
                        txn: txn.clone(),
                    },
                ),
            ]
        });
        sim.run_until_idle_capped(100_000);
        let replies = received
            .lock()
            .iter()
            .filter(|m| matches!(m, Msg::CommitReply { .. }))
            .count();
        assert_eq!(replies, 1, "the duplicate must be ignored, not re-proposed");
        let core = core.lock();
        assert_eq!(
            core.log(GROUP).unwrap().committed_transaction_count(),
            1,
            "the member must commit exactly once"
        );
    }

    #[test]
    fn retries_of_decided_transactions_get_the_original_fate() {
        // Regression: a retry of an already-decided member (its reply was
        // lost to a crash or partition) used to be silently dropped — the
        // in-flight map entry was gone — leaving the client to time out as
        // `Unavailable` even though the transaction had committed. The
        // service now remembers decided fates and answers retries with the
        // original outcome, without re-proposing.
        struct RetryProber {
            service: NodeId,
            txn: Transaction,
            received: StdArc<parking_lot::Mutex<Vec<Msg>>>,
        }
        impl Actor<Msg> for RetryProber {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.send(
                    self.service,
                    Msg::CommitRequest {
                        req_id: 1,
                        txn: self.txn.clone(),
                    },
                );
                // Retry well after the decision, as a resubmitting session
                // whose first reply was lost would.
                ctx.set_timer(SimDuration::from_secs(1), 7);
            }
            fn on_timer(&mut self, ctx: &mut Context<Msg>, _tag: u64) {
                ctx.send(
                    self.service,
                    Msg::CommitRequest {
                        req_id: 2,
                        txn: self.txn.clone(),
                    },
                );
            }
            fn on_message(&mut self, _ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                self.received.lock().push(msg);
            }
        }
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        let site = sim.add_site("dc0");
        let core = DatacenterCore::shared("dc0", 0);
        let directory = Directory::new();
        let service = TransactionService::new(
            0,
            core.clone(),
            directory.clone(),
            SimDuration::from_secs(2),
        );
        let service_node = sim.add_node(site, Box::new(service));
        directory.register_datacenter(service_node, core.clone());
        let received = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        let txn = Transaction::builder(TxnId::new(9, 1), GROUP, LogPosition(0))
            .write(ItemRef::new(ROW, A), "a")
            .build();
        let prober_node = sim.add_node(
            site,
            Box::new(RetryProber {
                service: service_node,
                txn,
                received: received.clone(),
            }),
        );
        directory.register_client(prober_node, 0);
        sim.run_until_idle_capped(100_000);
        let got = received.lock();
        let replies: Vec<(u64, bool)> = got
            .iter()
            .filter_map(|m| match m {
                Msg::CommitReply {
                    req_id, committed, ..
                } => Some((*req_id, *committed)),
                _ => None,
            })
            .collect();
        assert_eq!(
            replies,
            vec![(1, true), (2, true)],
            "the retry must be answered with the original committed fate: {got:?}"
        );
        drop(got);
        let core = core.lock();
        assert_eq!(
            core.log(GROUP).unwrap().committed_transaction_count(),
            1,
            "the retry must not commit the member a second time"
        );
    }

    #[test]
    fn leader_claim_granted_once_per_position() {
        let (mut sim, _core, received) = single_dc_harness(|svc| {
            vec![(
                svc,
                Msg::Paxos(PaxosMsg::LeaderClaim {
                    group: GROUP,
                    position: LogPosition(1),
                }),
            )]
        });
        sim.run_until_idle_capped(1_000);
        let got = received.lock();
        assert!(matches!(
            got[0],
            Msg::Paxos(PaxosMsg::LeaderClaimReply { granted: true, .. })
        ));
    }

    /// A decided `Apply` of `GROUP` at `position`, as its proposer
    /// broadcasts it.
    fn apply(position: u64, value: &str) -> Msg {
        Msg::Paxos(PaxosMsg::Apply {
            group: GROUP,
            position: LogPosition(position),
            ballot: Ballot::initial(9),
            value: entry(position, A, value),
        })
    }

    #[test]
    fn the_janitor_fills_a_gap_below_a_decided_position_with_a_no_op() {
        // Position 2 decides before position 1 ever did. With a single
        // replica, the janitor's recovery instance reaches a majority (1 of
        // 1) by talking to itself and decides a no-op at position 1, after
        // which position 2 applies.
        let (mut sim, core, _) = single_dc_harness(|svc| vec![(svc, apply(2, "v2"))]);
        sim.run_until_idle_capped(10_000);
        let mut core = core.lock();
        let log = core.log(GROUP).unwrap();
        assert!(log.get(LogPosition(1)).unwrap().is_noop());
        assert_eq!(core.read_position(GROUP), LogPosition(2));
        assert_eq!(
            core.read(GROUP, ROW, A, LogPosition(2)).unwrap().as_deref(),
            Some("v2")
        );
    }

    /// Two-service harness where the peer datacenter is crashed, so recovery
    /// (majority 2) cannot finish. Returns the simulation, the live
    /// service's node and core, and what a prober that sent it `msgs` hears
    /// back.
    fn stalled_recovery_harness(
        msgs: Vec<Msg>,
    ) -> (
        Simulation<Msg>,
        NodeId,
        SharedCore,
        StdArc<parking_lot::Mutex<Vec<Msg>>>,
    ) {
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        let directory = Directory::new();
        let mut nodes = Vec::new();
        for replica in 0..2 {
            let site = sim.add_site(format!("dc{replica}"));
            let core = DatacenterCore::shared(format!("dc{replica}"), replica);
            let service = TransactionService::new(
                replica,
                core.clone(),
                directory.clone(),
                SimDuration::from_secs(2),
            );
            let node = sim.add_node(site, Box::new(service));
            directory.register_datacenter(node, core);
            nodes.push(node);
        }
        // Peer down: recovery instances can never reach a majority.
        sim.crash_node(nodes[1]);
        let received = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        let target = nodes[0];
        let prober = Prober {
            to_send: msgs.into_iter().map(|m| (target, m)).collect(),
            received: received.clone(),
        };
        let site0 = sim.network().site_of(target);
        let prober_node = sim.add_node(site0, Box::new(prober));
        directory.register_client(prober_node, 0);
        (sim, target, directory.core(0), received)
    }

    #[test]
    fn a_recovery_instance_outliving_a_crash_finishes_once_its_timers_refire() {
        // Position 2 decides above a gap, so after its patience (2 s) the
        // janitor starts a recovery instance for position 1, which cannot
        // reach its majority while the peer is down. Then the service
        // crashes too, so the instance's pending timer fires into the
        // outage and is suppressed. Once both datacenters are back, only
        // `on_recover` re-firing the proposer host's armed tags restarts the
        // instance (the janitor sees it still running and starts no other).
        let (mut sim, service_node, core, _) = stalled_recovery_harness(vec![apply(2, "p2")]);
        // The harness adds the peer right after the service under test.
        let peer = NodeId(service_node.0 + 1);
        sim.run_for(SimDuration::from_millis(3_500));
        assert!(!core.lock().has_entry(GROUP, LogPosition(1)));
        sim.crash_node(service_node);
        sim.run_for(SimDuration::from_secs(10));
        sim.recover_node(peer);
        sim.recover_node(service_node);
        sim.run_for(SimDuration::from_secs(5));
        let core = core.lock();
        let filled = core.log(GROUP).unwrap().get(LogPosition(1)).cloned();
        assert!(
            filled.is_some_and(|entry| entry.is_noop()),
            "the refired recovery must fill the gap with a no-op"
        );
        assert_eq!(core.read_position(GROUP), LogPosition(2));
    }
}
