//! The Transaction Service: one per datacenter (logically — the paper runs
//! many stateless processes; state lives in the store, so one actor per
//! datacenter is behaviourally identical).
//!
//! Responsibilities (§2.2, §4):
//! * serve **snapshot reads** ([`Msg::SnapshotRead`]): watermark-bounded
//!   reads from wire actors that run no session (a session reads its
//!   snapshot handle's replica in-process), answered synchronously off the
//!   local store at or below the carried position — never waiting, never
//!   triggering recovery (`unavailable` on a gap, retry elsewhere) — so
//!   *any* replica of a group can serve its read traffic, not just the
//!   group home;
//! * play the Paxos acceptor role (Algorithm 1) for every log position —
//!   with durable storage, a granted promise or cast vote is appended to
//!   the WAL and its reply held until a sync ([`HeldAcks`]);
//! * install decided entries into the local write-ahead log and apply them
//!   to the local key-value store — with durable storage, once their
//!   `Decided` record rides a sync;
//! * answer a prepare or accept at a position this datacenter forgot in a
//!   restart from disk with its group state ([`Msg::CatchUp`]) instead of a
//!   promise or a vote, and adopt such a state from a peer when it lags;
//! * catch up missing log positions by running recovery Paxos instances
//!   proposing no-ops (§4.1, Fault Tolerance and Recovery), started by the
//!   janitor below;
//! * host the **group commit engine** for the submitted commit route: a
//!   [`Msg::CommitRequest`] carrying a finished transaction is submitted to
//!   a lazily-created per-group committer, which batches commits from every
//!   client of the group into pipelined Paxos-CP instances while this
//!   datacenter is the group's home, and answers `Unavailable` otherwise;
//!   the per-member fate returns to the requester as a
//!   [`Msg::CommitReply`], and a retried request never proposes its member
//!   twice ([`CommitTable`]);
//! * take a group over when this datacenter becomes its home: a hosted
//!   committer asks every service how far the group's positions were
//!   touched ([`Msg::TakeoverQuery`]), and this service settles every
//!   position the old home could still have in flight through recovery
//!   instances before the committer proposes;
//! * run the **orphaned-position janitor** (`OrphanWatch`): re-propose a
//!   group's first undecided position through a recovery instance once it
//!   has stayed orphaned past a timeout, so the prefix advances and
//!   liveness returns.
//!
//! The service is a router: it owns the simulation context, the core lock
//! and the timers, and the parts named above hold their jobs' state as
//! plain structs that take `(now, input)` and return what to do.
//!
//! The service is group-agnostic by construction: every message names its
//! transaction group, per-group state lives in the shared
//! [`DatacenterCore`] (one log per group,
//! group-qualified store rows), and a decided `Apply` — whether it carries
//! a single transaction or a whole batched/combined entry — installs in
//! one step. Sharding the workload over many groups therefore needs no
//! service-side changes: each datacenter leads its subset of groups (see
//! [`crate::Directory::group_home`]) while acting as acceptor for all.

mod commit_table;
mod held_acks;
mod orphan_watch;

pub use commit_table::{Admission, CommitTable};
pub use held_acks::{HeldAcks, Rearm, ACK_SYNC_LATENCY, DECIDED_FLUSH_DEADLINE};
use orphan_watch::{FirstUndecided, OrphanWatch};

use crate::batch::{BatchConfig, GroupCommitter};
use crate::datacenter::{DatacenterCore, GroupState, SharedCore};
use crate::directory::Directory;
use crate::metrics::RunMetrics;
use crate::msg::Msg;
use crate::proposers::{Claim, Env, Input, Proposers};
use crate::session::{apply_client_actions, ClientAction, ClientConfig};
use parking_lot::Mutex;
use paxos::{PaxosMsg, Proposer, ProposerConfig, TimerKind};
use simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};
use std::collections::BTreeMap;
use std::sync::Arc;
use walog::{AttrId, GroupId, KeyId, LogEntry, LogPosition, Transaction};

/// Timer tag reserved for the janitor tick (recovery/committer tags count
/// up from 1 and can never collide with it).
const JANITOR_TAG: u64 = u64::MAX;

/// Timer tag reserved for the sync deadline, which releases held
/// acknowledgements and makes buffered `Decided` records durable.
const FLUSH_TAG: u64 = u64::MAX - 1;

/// High bit mixed into the ballot identity of service-side recovery
/// proposers. The service's hosted committers propose under the service
/// node's own id; a recovery instance racing a committer slot for the same
/// position must not share its ballot identity, or the acceptors (and the
/// two proposers' reply filters) could not tell their rounds apart.
const RECOVERY_BALLOT_BIT: u64 = 1 << 40;

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
    /// `CommitRequest`s for; only those of the groups it homes propose.
    committers: BTreeMap<GroupId, GroupCommitter>,
    /// Timer tag → (group, committer-local timer tag).
    committer_timers: BTreeMap<u64, (GroupId, u64)>,
    /// Optional sink the hosted committers record window occupancy,
    /// pipeline depth and split/stale counters into.
    commit_metrics: Option<Arc<Mutex<RunMetrics>>>,
    /// The exactly-once table of the submitted commit route.
    commits: CommitTable,
    /// The orphaned-position janitor's watch.
    orphans: OrphanWatch,
    /// Acceptor replies held for the next sync, and its deadline.
    acks: HeldAcks<TimerId>,
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
            commit_metrics: None,
            commits: CommitTable::default(),
            orphans: OrphanWatch::new(message_timeout),
            acks: HeldAcks::default(),
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
    /// split/stale counters, and the duplicate submissions suppressed, into
    /// a shared [`RunMetrics`] sink.
    pub fn with_commit_metrics(mut self, metrics: Arc<Mutex<RunMetrics>>) -> Self {
        self.commits = CommitTable::with_metrics(Arc::clone(&metrics));
        self.commit_metrics = Some(metrics);
        self
    }

    fn handle_paxos(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: PaxosMsg) {
        // Proposer replies may belong to a hosted committer's pipeline slot
        // rather than a recovery instance; the committer filters by slot
        // position and ballot, so offering every reply is safe (recovery
        // proposers carry a distinct ballot identity, see
        // `RECOVERY_BALLOT_BIT`).
        if matches!(
            msg,
            PaxosMsg::PrepareReply { .. } | PaxosMsg::AcceptReply { .. }
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
                // reveal already is) and leave at once.
                self.acceptor_step(ctx, from, group, position, |core| {
                    let outcome = core.acceptor().handle_prepare(group, position, ballot);
                    let held = outcome.promised && core.persist_promise(group, position, ballot);
                    let reply = PaxosMsg::PrepareReply {
                        group,
                        position,
                        ballot,
                        promised: outcome.promised,
                        next_bal: outcome.next_bal,
                        last_vote: outcome.last_vote,
                    };
                    (held, Msg::Paxos(reply), Vec::new())
                });
            }
            PaxosMsg::Accept {
                group,
                position,
                ballot,
                value,
                promotions,
            } => {
                // Persist-before-ack, as for promises: a cast vote must be
                // durable before the acceptance is acknowledged. A vote on
                // a committer slot's own entry is also copied to its
                // members' clients outside the committer's datacenter,
                // behind the same sync.
                let copy_to = match promotions {
                    Some(_) => self.vote_copy_targets(from, &value),
                    None => Vec::new(),
                };
                self.acceptor_step(ctx, from, group, position, |core| {
                    let accepted = core
                        .acceptor()
                        .handle_accept(group, position, ballot, &value);
                    let held = accepted && core.persist_vote(group, position, ballot, &value);
                    let reply = PaxosMsg::AcceptReply {
                        group,
                        position,
                        ballot,
                        accepted,
                    };
                    let copies = match promotions {
                        Some(promotions) if accepted && !copy_to.is_empty() => {
                            let entry = value.transactions().iter().map(|t| t.id).collect();
                            let copy = Msg::VoteCopy {
                                group,
                                position,
                                ballot,
                                entry,
                                promotions,
                            };
                            copy_to
                                .iter()
                                .map(|&client| (client, copy.clone()))
                                .collect()
                        }
                        _ => Vec::new(),
                    };
                    (held, Msg::Paxos(reply), copies)
                });
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
                    let rearm = self.acks.sync_within(ctx.now(), DECIDED_FLUSH_DEADLINE);
                    self.arm_sync(ctx, rearm);
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
                // Recovery proposers never use the fast path, and the hosted
                // committers claim in-process.
            }
        }
    }

    /// The clients a vote on `value`, proposed by `from`, is copied to:
    /// each member's registered client outside the proposer's datacenter,
    /// once, in entry order. A client in the proposer's datacenter learns
    /// nearly as soon from the proposer's reply.
    fn vote_copy_targets(&self, from: NodeId, value: &LogEntry) -> Vec<NodeId> {
        let Some(proposer) = self.directory.replica_of_service(from) else {
            return Vec::new();
        };
        let mut clients = Vec::new();
        for txn in value.transactions() {
            let client = txn.id.client;
            let replica = self.directory.replica_of_client_raw(u64::from(client));
            let node = NodeId(client);
            if replica.is_some_and(|r| r != proposer) && !clients.contains(&node) {
                clients.push(node);
            }
        }
        clients
    }

    /// Answer a prepare or accept from `from` at `position` with the reply
    /// `step` builds under the core lock, which also says whether it
    /// appended a record the reply must wait for, and which vote copies
    /// wait with the reply. A position this datacenter forgot gets its
    /// group state instead. Every answer hints
    /// the janitor: a prepare at an undecided position is the wedge signal
    /// (read-carrying clients re-preparing behind an orphaned vote), a cast
    /// vote is what an orphaned position is made of, and a rejected accept
    /// still signals proposer activity at an undecided position (e.g. a
    /// stale retry after a partition healed); the tick validates orphanhood.
    fn acceptor_step(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        group: GroupId,
        position: LogPosition,
        step: impl FnOnce(&mut DatacenterCore) -> (bool, Msg, Vec<(NodeId, Msg)>),
    ) {
        let reply = {
            let mut core = self.core.lock();
            if core.forgot(group, position) {
                None
            } else {
                let (held, reply, copies) = step(&mut core);
                Some((held.then(|| core.incarnation()), reply, copies))
            }
        };
        let Some((held, reply, copies)) = reply else {
            self.send_catch_up(ctx, from, group);
            return;
        };
        self.ack_after_sync(ctx, from, held, reply);
        for (client, copy) in copies {
            self.ack_after_sync(ctx, client, held, copy);
        }
        self.hint_orphan(ctx, group);
    }

    /// The release path of an acceptor reply. It leaves at once when its
    /// state needs no sync (`held` is `None`: a rejection, or an in-memory
    /// datacenter). Otherwise it is held, with the incarnation its record
    /// was appended in, until the next sync.
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
        let rearm = self.acks.hold(ctx.now(), to, reply, incarnation);
        self.arm_sync(ctx, rearm);
    }

    /// Move the sync timer as [`HeldAcks`] asks.
    fn arm_sync(&mut self, ctx: &mut Context<Msg>, rearm: Option<Rearm<TimerId>>) {
        if let Some((due, cancel)) = rearm {
            if let Some(timer) = cancel {
                ctx.cancel_timer(timer);
            }
            let timer = ctx.set_timer(due.since(ctx.now()), FLUSH_TAG);
            self.acks.armed(due, timer);
        }
    }

    /// The sync deadline fired: one WAL sync makes every buffered record
    /// durable, applies the decided entries waiting for it, and releases
    /// the held replies its outcome lets go.
    fn sync_and_release(&mut self, ctx: &mut Context<Msg>) {
        let (synced, incarnation, unsynced) = {
            let mut core = self.core.lock();
            let synced = core.flush();
            (synced, core.incarnation(), core.has_unsynced())
        };
        for (to, reply) in self.acks.release(synced, incarnation) {
            ctx.send(to, reply);
        }
        if !synced && unsynced {
            let rearm = self.acks.sync_within(ctx.now(), DECIDED_FLUSH_DEADLINE);
            self.arm_sync(ctx, rearm);
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

    /// Fire a hosted committer's timer.
    fn fire_committer_timer(&mut self, ctx: &mut Context<Msg>, group: GroupId, tag: u64) {
        if let Some(committer) = self.committers.get_mut(&group) {
            let actions = committer.on_timer(ctx.now(), tag);
            self.apply_committer_actions(ctx, group, actions);
        }
    }

    /// Answer a new home's takeover query: the highest position of `group`
    /// this datacenter's acceptor promised or voted at, or its log decided.
    fn answer_takeover(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        group: GroupId,
        epoch: u64,
    ) {
        let highest = {
            let core = self.core.lock();
            let decided = core.log(group).map(|log| log.last_decided());
            let touched = core.acceptor().highest_touched(group);
            decided.unwrap_or(LogPosition::ZERO).max(touched)
        };
        let reply = Msg::TakeoverReply {
            group,
            epoch,
            highest,
        };
        ctx.send(from, reply);
    }

    /// Feed a replica's answer to a hosted committer's takeover query. Once
    /// a majority has answered, settle every undecided position from the
    /// prefix through the takeover's target that the committer's own slots
    /// do not hold, through recovery instances: whatever the previous home
    /// left in flight there decides, or a no-op does.
    fn settle_takeover(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        group: GroupId,
        epoch: u64,
        highest: LogPosition,
    ) {
        let Some(replica) = self.directory.replica_of_service(from) else {
            return;
        };
        let Some(committer) = self.committers.get_mut(&group) else {
            return;
        };
        let Some(target) = committer.on_takeover_reply(epoch, replica, highest) else {
            return;
        };
        let held = committer.slot_positions();
        let prefix = self.core.lock().read_position(group);
        for position in (prefix.0 + 1..=target.0).map(LogPosition) {
            if !held.contains(&position) {
                self.start_recovery(ctx, group, position);
            }
        }
        // The prefix may be past the target already.
        if let Some(committer) = self.committers.get_mut(&group) {
            let actions = committer.flush(ctx.now());
            self.apply_committer_actions(ctx, group, actions);
        }
    }

    /// Submitted commit route: feed the finished transaction into the
    /// group's hosted commit engine, creating it on first use. Outside the
    /// group's home the engine answers it `Unavailable`.
    fn handle_commit_request(
        &mut self,
        ctx: &mut Context<Msg>,
        from: NodeId,
        req_id: u64,
        txn: Transaction,
    ) {
        let group = txn.group;
        let in_log = self.core.lock().is_committed(group, txn.id);
        match self.commits.request(from, req_id, txn.id, group, in_log) {
            Admission::Submit => {}
            Admission::Answer(reply) => return ctx.send(from, reply),
            Admission::Absorbed => return,
        }
        let committer = self.committers.entry(group).or_insert_with(|| {
            GroupCommitter::new(
                ctx.node(),
                self.replica,
                group,
                Arc::clone(&self.directory),
                self.commit_config.clone(),
                self.batch_config.clone(),
                self.commit_metrics.clone(),
            )
        });
        let actions = committer.submit(ctx.now(), txn);
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
                    if let Some((requester, reply)) = self.commits.finished(group, &result) {
                        ctx.send(requester, reply);
                    }
                }
            }
        }
    }

    /// Note that `group` may have an orphaned position and make sure a
    /// janitor tick is scheduled to look.
    fn hint_orphan(&mut self, ctx: &mut Context<Msg>, group: GroupId) {
        self.orphans.hint(group);
        self.ensure_janitor(ctx);
    }

    fn ensure_janitor(&mut self, ctx: &mut Context<Msg>) {
        if let Some(period) = self.orphans.arm() {
            ctx.set_timer(period, JANITOR_TAG);
        }
    }

    /// One janitor pass: answer the watch's questions about every hinted
    /// group under one core lock, and start a recovery instance for each
    /// orphaned position it hands back.
    fn janitor_tick(&mut self, ctx: &mut Context<Msg>) {
        let to_recover = {
            let core = self.core.lock();
            let (committers, recovery) = (&self.committers, &self.recovery);
            self.orphans.tick(ctx.now(), |group| {
                let position = core.read_position(group).next();
                FirstUndecided {
                    position,
                    installed: core.has_entry(group, position),
                    decided_above: core
                        .log(group)
                        .is_some_and(|log| log.last_decided() > position),
                    voted: core.acceptor().current_vote(group, position).is_some(),
                    proposing: committers
                        .get(&group)
                        .is_some_and(|c| c.slot_positions().contains(&position))
                        || recovery.contains(&(group, position)),
                }
            })
        };
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
    /// drawn from the simulation RNG, or a fixed 50 ms gather window (a
    /// recovery instance never runs a fast round, so it never re-sends).
    fn drive_recovery(&mut self, ctx: &mut Context<Msg>, input: Input<'_, (GroupId, LogPosition)>) {
        let (timeout, backoff_max) = (self.message_timeout, self.backoff_max);
        let mut out = Vec::new();
        let env = Env {
            directory: &self.directory,
            home: self.replica,
            next_tag: &mut self.next_tag,
            delay: &mut |kind| match kind {
                TimerKind::ReplyTimeout | TimerKind::Resend => timeout,
                TimerKind::Backoff => ctx.rand_backoff(backoff_max),
                TimerKind::Gather => SimDuration::from_millis(50),
            },
            claim: Claim::Never,
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
            Msg::TakeoverQuery { group, epoch } => self.answer_takeover(ctx, from, group, epoch),
            Msg::TakeoverReply {
                group,
                epoch,
                highest,
            } => self.settle_takeover(ctx, from, group, epoch, highest),
            Msg::SnapshotReadReply { .. } | Msg::CommitReply { .. } | Msg::VoteCopy { .. } => {
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
        match self.committer_timers.remove(&tag) {
            Some((group, committer_tag)) => self.fire_committer_timer(ctx, group, committer_tag),
            None => self.drive_recovery(ctx, Input::Timer(tag)),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>) {
        // Groups whose home migrated away during the outage: their windows
        // are answered `Unavailable`, so each waiting session re-sends to
        // the new home now instead of at its patience expiry.
        let (now, directory, replica) = (ctx.now(), &self.directory, self.replica);
        let answered: Vec<_> = (self.committers.iter_mut())
            .filter(|(group, _)| directory.group_home(**group) != replica)
            .map(|(group, committer)| (*group, committer.flush(now)))
            .collect();
        for (group, actions) in answered {
            self.apply_committer_actions(ctx, group, actions);
        }
        // Timers that fired during the outage were suppressed, which would
        // leave committer slots and recovery proposers wedged forever.
        // Synthesize the fires now (the maps iterate in tag order, which
        // keeps replay deterministic). Firing a not-yet-due timer early only
        // triggers a spurious-but-safe timeout round; a later real fire
        // finds its map entry gone and is a no-op.
        for (_, (group, committer_tag)) in std::mem::take(&mut self.committer_timers) {
            self.fire_committer_timer(ctx, group, committer_tag);
        }
        let recovery_tags: Vec<u64> = self.recovery.armed_tags().collect();
        for tag in recovery_tags {
            self.drive_recovery(ctx, Input::Timer(tag));
        }
        // The janitor tick may also have been suppressed; re-arm it. So
        // may the sync deadline, while records still wait for a sync. Held
        // acknowledgements die with the crash (see `HeldAcks::crash`).
        self.orphans.crash();
        self.ensure_janitor(ctx);
        self.acks.crash();
        if self.core.lock().has_unsynced() {
            let rearm = self.acks.sync_within(ctx.now(), DECIDED_FLUSH_DEADLINE);
            self.arm_sync(ctx, rearm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DatacenterCore;
    use crate::session::{CommitRoute, Session, TxnResult};
    use paxos::{AbortReason, Ballot};
    use simnet::{NetworkConfig, Simulation};
    use std::sync::Arc as StdArc;
    use walog::{ItemRef, TxnId};

    const GROUP: GroupId = GroupId(0);
    const ROW: KeyId = KeyId(0);
    const A: AttrId = AttrId(0);

    /// What a test actor heard.
    type Inbox = StdArc<parking_lot::Mutex<Vec<Msg>>>;

    /// A scripted prober actor that sends a batch of messages at start and
    /// records everything it receives.
    struct Prober {
        to_send: Vec<(NodeId, Msg)>,
        received: Inbox,
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
    ) -> (Simulation<Msg>, SharedCore, Inbox) {
        single_dc_harness_with(BatchConfig::default(), to_send)
    }

    /// [`single_dc_harness`] whose service's committers run with `batch`.
    fn single_dc_harness_with(
        batch: BatchConfig,
        to_send: impl Fn(NodeId) -> Vec<(NodeId, Msg)>,
    ) -> (Simulation<Msg>, SharedCore, Inbox) {
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
        )
        .with_commit_engine(ClientConfig::cp(), batch);
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
                        promotions: None,
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
            promotions: None,
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
        let replies = |received: &Inbox| -> Vec<(u64, bool)> {
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
        let (mut sim, _service_node, _directory, received) =
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
        // Four clients' transactions arrive as CommitRequests. The first two
        // fill the hosted committer's two pipeline slots (the depth is
        // pinned: the subject is the window); the other two pile up behind
        // them and board the next free slot as one instance (single replica:
        // its own acceptor is the majority). Every requester is answered.
        let txns: Vec<Transaction> = (0..4u32)
            .map(|i| {
                Transaction::builder(TxnId::new(9, u64::from(i) + 1), GROUP, LogPosition(0))
                    .write(ItemRef::new(ROW, AttrId(i)), "v")
                    .build()
            })
            .collect();
        let depth_two = BatchConfig::default().with_pipeline_depth(2);
        let (mut sim, core, received) = single_dc_harness_with(depth_two, move |svc| {
            let request = |(i, txn): (usize, &Transaction)| {
                let req_id = i as u64 + 1;
                let txn = txn.clone();
                (svc, Msg::CommitRequest { req_id, txn })
            };
            txns.iter().enumerate().map(request).collect()
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
        assert_eq!(replies.len(), 4, "every request gets one reply: {got:?}");
        assert!(replies.iter().all(|(_, committed)| *committed));
        drop(got);
        // The two that waited rode one combined entry at position 3.
        let core = core.lock();
        let log = core.log(GROUP).expect("group log");
        let ids_at = |p| log.get(LogPosition(p)).unwrap().txn_ids();
        assert_eq!(ids_at(1), [TxnId::new(9, 1)]);
        assert_eq!(ids_at(2), [TxnId::new(9, 2)]);
        assert_eq!(ids_at(3), [TxnId::new(9, 3), TxnId::new(9, 4)]);
        assert_eq!(core.read_position(GROUP), LogPosition(3));
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
            received: Inbox,
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
    fn a_vote_on_a_committer_slots_own_entry_is_copied_to_its_remote_members_clients() {
        // Datacenter 0's service votes on accepts from datacenter 1's
        // service (a prober registered as that replica's service node).
        // The entry's members belong to a client in datacenter 0 (two of
        // them), a client in the proposer's datacenter and a client no one
        // registered: only the first gets a copy, and only one.
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        let (dc0, dc1) = (sim.add_site("dc0"), sim.add_site("dc1"));
        let directory = Directory::new();
        let core = DatacenterCore::shared("dc0", 0);
        let timeout = SimDuration::from_secs(2);
        let service = TransactionService::new(0, core.clone(), directory.clone(), timeout);
        let service_node = sim.add_node(dc0, Box::new(service));
        directory.register_datacenter(service_node, core);
        let mut client = |site, replica| {
            let received = StdArc::new(parking_lot::Mutex::new(Vec::new()));
            let to_send = Vec::new();
            let prober = Prober {
                to_send,
                received: received.clone(),
            };
            let node = sim.add_node(site, Box::new(prober));
            directory.register_client(node, replica);
            (node, received)
        };
        let (local, local_got) = client(dc0, 0);
        let (remote, remote_got) = client(dc1, 1);
        let ids = [
            TxnId::new(local.0, 1),
            TxnId::new(remote.0, 2),
            TxnId::new(77, 3),
            TxnId::new(local.0, 4),
        ];
        let value = Arc::new(LogEntry::combined(
            ids.iter()
                .enumerate()
                .map(|(i, id)| {
                    Transaction::builder(*id, GROUP, LogPosition(0))
                        .write(ItemRef::new(ROW, AttrId(i as u32)), "v")
                        .build()
                })
                .collect(),
        ));
        let ballot = Ballot::fast(9);
        let accept = |position, promotions| {
            let value = Arc::clone(&value);
            let position = LogPosition(position);
            let accept = PaxosMsg::Accept {
                group: GROUP,
                position,
                ballot,
                value,
                promotions,
            };
            (service_node, Msg::Paxos(accept))
        };
        let proposer_got = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        let proposer = Prober {
            to_send: vec![accept(1, Some(1)), accept(2, None)],
            received: proposer_got.clone(),
        };
        let proposer_node = sim.add_node(dc1, Box::new(proposer));
        directory.register_datacenter(proposer_node, DatacenterCore::shared("dc1", 1));
        sim.run_for(SimDuration::from_millis(50));

        let votes = proposer_got.lock();
        assert_eq!(votes.len(), 2, "both accepts are voted on: {votes:?}");
        let copies = local_got.lock().clone();
        let entry: Arc<[TxnId]> = ids.into();
        assert_eq!(
            copies,
            [Msg::VoteCopy {
                group: GROUP,
                position: LogPosition(1),
                ballot,
                entry,
                promotions: 1,
            }]
        );
        assert!(remote_got.lock().is_empty(), "the proposer's datacenter");
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
    /// service's node, the directory, and what a prober that sent it `msgs`
    /// hears back.
    fn stalled_recovery_harness(
        msgs: Vec<Msg>,
    ) -> (Simulation<Msg>, NodeId, Arc<Directory>, Inbox) {
        stalled_recovery_harness_with(BatchConfig::default(), msgs)
    }

    /// [`stalled_recovery_harness`] whose services' committers run with
    /// `batch`.
    fn stalled_recovery_harness_with(
        batch: BatchConfig,
        msgs: Vec<Msg>,
    ) -> (Simulation<Msg>, NodeId, Arc<Directory>, Inbox) {
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
            )
            .with_commit_engine(ClientConfig::cp(), batch.clone());
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
        (sim, target, directory, received)
    }

    #[test]
    fn a_service_that_recovers_after_its_groups_home_moved_answers_its_window_unavailable() {
        // Three blind writes reach the group's home while its only peer is
        // down: two fill the committer's pipeline (pinned at depth 2, since
        // the subject is the window; their fast rounds wait for the peer)
        // and the third waits in the window. The home
        // crashes, the group's home moves to the peer, and the service
        // recovers: the waiting member is answered `Unavailable`, so its
        // session re-sends to the new home at once.
        let requests = (1..=3u32)
            .map(|seq| {
                let id = TxnId::new(9, u64::from(seq));
                let txn = Transaction::builder(id, GROUP, LogPosition(0))
                    .write(ItemRef::new(ROW, AttrId(seq)), "v")
                    .build();
                Msg::CommitRequest {
                    req_id: id.seq,
                    txn,
                }
            })
            .collect();
        let depth_two = BatchConfig::default().with_pipeline_depth(2);
        let (mut sim, service_node, directory, received) =
            stalled_recovery_harness_with(depth_two, requests);
        sim.run_for(SimDuration::from_millis(10));
        sim.crash_node(service_node);
        sim.run_for(SimDuration::from_millis(10));
        directory.set_group_home(GROUP, 1);
        sim.recover_node(service_node);
        sim.run_for(SimDuration::from_millis(10));
        let replies: Vec<_> = (received.lock().iter())
            .filter_map(|m| match m {
                Msg::CommitReply {
                    req_id,
                    abort_reason,
                    ..
                } => Some((*req_id, *abort_reason)),
                _ => None,
            })
            .collect();
        assert_eq!(replies, [(3, Some(AbortReason::Unavailable))]);
    }

    /// A Transaction Service that records who sent it which kind of message.
    struct Tapped(
        TransactionService,
        StdArc<parking_lot::Mutex<Vec<(NodeId, &'static str)>>>,
    );

    impl Actor<Msg> for Tapped {
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            self.1.lock().push((from, msg.kind()));
            self.0.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
            self.0.on_timer(ctx, tag);
        }
    }

    /// A session that commits one write of group "g" at start and records
    /// its answers.
    struct OneCommit(Session, StdArc<parking_lot::Mutex<Vec<TxnResult>>>);

    impl OneCommit {
        fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
            self.1.lock().extend(apply_client_actions(ctx, actions));
        }
    }

    impl Actor<Msg> for OneCommit {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            let h = self.0.begin(ctx.now(), "g");
            self.0.write(h, "row", "a", "v").unwrap();
            let actions = self.0.commit(ctx.now(), h).unwrap();
            self.apply(ctx, actions);
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            let actions = self.0.on_message(ctx.now(), from, &msg);
            self.apply(ctx, actions);
        }
        fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
            let actions = self.0.on_timer(ctx.now(), tag);
            self.apply(ctx, actions);
        }
    }

    #[test]
    fn a_commit_request_outside_the_groups_home_is_answered_unavailable_and_proposes_nothing() {
        // A session in datacenter 2 submits to datacenter 0, the home of
        // "g", and the home moves to datacenter 1 while the request is in
        // flight. Datacenter 0 never hosted the group's committer and is not
        // its home, so it answers at once and proposes nothing; the session
        // re-sends to the home, which commits the transaction once.
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        let directory = Directory::new();
        let heard = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        for replica in 0..3 {
            let site = sim.add_site(format!("dc{replica}"));
            let core = DatacenterCore::shared(format!("dc{replica}"), replica);
            let timeout = SimDuration::from_secs(2);
            let service =
                TransactionService::new(replica, core.clone(), directory.clone(), timeout);
            let node = sim.add_node(site, Box::new(Tapped(service, StdArc::clone(&heard))));
            directory.register_datacenter(node, core);
        }
        let group = directory.symbols().group("g");
        directory.set_group_home(group, 0);
        let config = ClientConfig::cp().with_route(CommitRoute::Submitted);
        let patience = config.submit_patience();
        let client = NodeId(sim.node_count() as u32);
        directory.register_client(client, 2);
        let session = Session::new(client, 2, directory.clone(), config);
        let results = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        let site = sim.network().site_of(directory.service_node(2));
        sim.add_node(site, Box::new(OneCommit(session, StdArc::clone(&results))));
        sim.run_for(SimDuration::from_micros(500));
        directory.set_group_home(group, 1);
        sim.run_until_idle_capped(100_000);

        let results = results.lock();
        let [result] = results.as_slice() else {
            panic!("one answer: {results:?}");
        };
        assert!(result.committed && result.latency < patience, "{result:?}");
        let heard = heard.lock();
        let requests = heard.iter().filter(|(_, kind)| *kind == "commit_request");
        assert_eq!(requests.count(), 2, "one request and one re-send");
        let proposals = ["prepare", "accept", "leader_claim"];
        let proposed = (heard.iter())
            .filter(|(from, kind)| *from == directory.service_node(0) && proposals.contains(kind));
        assert_eq!(proposed.count(), 0, "datacenter 0 proposed");
        for replica in 0..3 {
            let core = directory.core(replica);
            let log = core
                .lock()
                .log(group)
                .map(|log| log.committed_transaction_count());
            assert_eq!(log, Some(1), "replica {replica}");
        }
    }

    /// A session that commits one write to each of its groups at start
    /// and records its answers.
    struct EveryGroup(
        Session,
        Vec<&'static str>,
        StdArc<parking_lot::Mutex<Vec<TxnResult>>>,
    );

    impl Actor<Msg> for EveryGroup {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            for group in self.1.clone() {
                let h = self.0.begin(ctx.now(), group);
                self.0.write(h, "row", "a", "v").unwrap();
                let actions = self.0.commit(ctx.now(), h).unwrap();
                self.2.lock().extend(apply_client_actions(ctx, actions));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            let actions = self.0.on_message(ctx.now(), from, &msg);
            self.2.lock().extend(apply_client_actions(ctx, actions));
        }
        fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
            let actions = self.0.on_timer(ctx.now(), tag);
            self.2.lock().extend(apply_client_actions(ctx, actions));
        }
    }

    #[test]
    fn a_fault_free_run_sends_no_takeover_message() {
        // Three datacenters, three groups homed round-robin, and a client
        // in each datacenter committing to every group. Naming a group's
        // current home again moves no home epoch, so no committer takes
        // anything over.
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        let directory = Directory::new();
        let heard = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        for replica in 0..3 {
            let site = sim.add_site(format!("dc{replica}"));
            let core = DatacenterCore::shared(format!("dc{replica}"), replica);
            let timeout = SimDuration::from_secs(2);
            let service =
                TransactionService::new(replica, core.clone(), directory.clone(), timeout);
            let node = sim.add_node(site, Box::new(Tapped(service, StdArc::clone(&heard))));
            directory.register_datacenter(node, core);
        }
        let groups = vec!["g0", "g1", "g2"];
        for (replica, name) in groups.iter().enumerate() {
            let group = directory.symbols().group(name);
            assert_eq!(directory.group_home(group), replica);
            directory.set_group_home(group, replica);
        }
        let config = ClientConfig::cp().with_route(CommitRoute::Submitted);
        let results = StdArc::new(parking_lot::Mutex::new(Vec::new()));
        for replica in 0..3 {
            let client = NodeId(sim.node_count() as u32);
            directory.register_client(client, replica);
            let session = Session::new(client, replica, directory.clone(), config.clone());
            let site = sim.network().site_of(directory.service_node(replica));
            let actor = EveryGroup(session, groups.clone(), StdArc::clone(&results));
            sim.add_node(site, Box::new(actor));
        }
        sim.run_until_idle_capped(100_000);

        let results = results.lock();
        assert_eq!(results.len(), 9, "{results:?}");
        assert!(results.iter().all(|r| r.committed), "{results:?}");
        let heard = heard.lock();
        let takeovers = (heard.iter()).filter(|(_, kind)| kind.starts_with("takeover_"));
        assert_eq!(takeovers.count(), 0);
        assert!(heard.iter().any(|(_, kind)| *kind == "commit_request"));
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
        let (mut sim, service_node, directory, _) = stalled_recovery_harness(vec![apply(2, "p2")]);
        let core = directory.core(0);
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
