//! Group commit: the per-group pipelined commit engine the Transaction
//! Service hosts for the submitted commit route.
//!
//! The paper's evaluation runs one Paxos instance per transaction, one at a
//! time. A `GroupCommitter` instead drives a **pipelined,
//! work-conserving** commit engine for one transaction group:
//!
//! * **Batching** — the independent transactions clients submit within a
//!   window commit in a *single* Paxos-CP instance: the window
//!   travels as one combined log entry, so one prepare/accept exchange plus
//!   one piggybacked apply broadcast decide every member, amortizing the
//!   wide-area round trips that dominate geo-replicated commit latency.
//! * **Pipelining** — up to [`BatchConfig::pipeline_depth`] instances run
//!   concurrently at consecutive log positions (p, p+1, …): instance p+1
//!   opens while p is still in its accept phase. Accepts complete out of
//!   order; the write-ahead log applies strictly in position order (a
//!   decided p+1 parks until p decides), so pipelining never reorders the
//!   serialization.
//! * **Work-conserving windows** — a submission that finds a pipeline slot
//!   free starts its instance at once. Transactions pile up in the window
//!   only while every slot is in flight, and up to
//!   [`BatchConfig::max_batch`] of them board the next instance the moment a
//!   slot completes (the group-commit rule of Spinnaker's leader log). A
//!   batch is whatever arrived while the pipeline was busy, so batching
//!   never makes a transaction wait for company.
//!
//! # Pipeline invariants
//!
//! 1. **In-order apply.** Slots complete (decide) in any order, but entries
//!    install into the shared [`DatacenterCore`](crate::DatacenterCore)
//!    log, which applies only its gap-free prefix — a slot that decides
//!    ahead of its predecessor is installed but not applied until the
//!    predecessor decides.
//! 2. **Speculation is blind-write-only.** A slot above the head proposes
//!    for a position whose predecessors are undecided; a member with reads
//!    could be invalidated by whatever wins those positions. Only members
//!    (and combination candidates) with *empty read sets* — which no
//!    earlier entry can invalidate — may ride a speculative slot; members
//!    with reads wait for the pipeline to drain and board the head, where
//!    every earlier position is decided and their reads are revalidated.
//! 3. **Slot recovery.** A slot that loses its position (another proposer's
//!    value wins) pushes the winner through so the position still decides
//!    and installs, then reports the members the winner did not invalidate
//!    back as survivors ([`paxos::CommitOutcome::survivors`]); the
//!    committer reschedules them — in order, ahead of newer submissions —
//!    at the pipeline tail. Members the winner contains are recognized as
//!    committed and never proposed twice.
//!
//! A committer runs in its group's home service (the directory's per-group
//! leader map, [`Directory::group_home`]), so a sharded workload has each
//! datacenter leading — and batching for — its own subset of groups. Being
//! the leader of every position after one it won, the committer claims each
//! slot's fast path at its own datacenter's core in the step that opens the
//! slot, with no `LeaderClaim` message to its own service or to the
//! datacenter of whichever session's member won the previous position; the
//! unanimous fast round keeps this safe against a direct-route client that
//! claimed the same position elsewhere. A slot re-sends an incomplete fast
//! accept once to the replicas that have not answered
//! ([`paxos::ProposerConfig::fast_resends`]): unanimity would otherwise let
//! one accept lost to a brief outage hold the position for the whole reply
//! timeout.
//!
//! Only the group's home proposes. A committer whose datacenter is not the
//! home — the home moved away, or the service never homed the group and
//! received a request in flight across a home move — opens nothing from its
//! window: it answers each waiting member [`AbortReason::Unavailable`], and
//! the session re-sends to the home the directory names at once. In-flight
//! slots still drive to a decision.
//!
//! A new home takes over before it proposes. Each real home move bumps the
//! group's [`Directory::home_epoch`]; a committer at the home whose last
//! taken-over epoch is older opens nothing. It asks every replica's service
//! for the highest position of the group its acceptor promised or voted at,
//! or its log decided ([`Msg::TakeoverQuery`]), asking the silent ones
//! again after a patience. Once a majority answered, the target is the
//! highest answer (or its own highest opened position) plus one pipeline:
//! every position the old home knew decided holds votes at a majority, so
//! some answer reaches it, and its slots lie at most a pipeline above. The
//! service settles every undecided position through the target that no
//! slot of this committer holds with a recovery instance, and the window
//! waits until the prefix reaches the target. So a member still in the old
//! home's stalled slot is decided there, or nowhere, before its retry can
//! board a slot here, and the retry finds it committed. Fault-free runs
//! never move a home, so they never take anything over.
//! A committer given a shared [`RunMetrics`] sink records per-window
//! occupancy, pipeline depth and split/stale counters into it.

use crate::datacenter::SharedCore;
use crate::directory::Directory;
use crate::metrics::RunMetrics;
use crate::msg::Msg;
use crate::proposers::{Claim, Env, Input, Proposers};
use crate::service::Fate;
use crate::session::{ClientAction, ClientConfig};
use parking_lot::Mutex;
use paxos::{AbortReason, CommitOutcome, CommitProtocol, PaxosMsg, Proposer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{NodeId, SimDuration};
use std::collections::VecDeque;
use std::sync::Arc;
use walog::combine::can_append;
use walog::{GroupId, LogPosition, Transaction, TxnId};

/// How often members that cannot board a free slot poll again: a read
/// position ahead of the home's prefix, or reads above the head slot.
/// Members waiting behind a full pipeline board when a slot completes and
/// never wait on this.
const REPOLL: SimDuration = SimDuration::from_millis(5);

/// How long a takeover waits for a majority of replicas to answer its
/// query before it asks the silent ones again.
const TAKEOVER_PATIENCE: SimDuration = SimDuration::from_millis(500);

/// How many times a slot re-sends an incomplete fast accept to the
/// replicas that have not answered ([`paxos::ProposerConfig::fast_resends`])
/// before it waits out the reply timeout and re-prepares.
pub(crate) const FAST_RESENDS: u32 = 1;

/// Tuning knobs of the service-hosted group committers.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Hard cap on transactions per window (= per Paxos-CP instance).
    /// Batching is a Paxos-CP mechanism (one log entry, many transactions);
    /// under [`CommitProtocol::BasicPaxos`] the effective batch size is 1.
    pub max_batch: usize,
    /// Maximum commit instances in flight at consecutive log positions
    /// (1 = the flush-and-wait behaviour of one instance at a time).
    pub pipeline_depth: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            pipeline_depth: 8,
        }
    }
}

impl BatchConfig {
    /// Builder-style batch-size override.
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Builder-style pipeline-depth override.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }
}

/// What a committer asks of its host, in the order it must happen.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send a message as the host.
    Send(NodeId, Msg),
    /// Arm a timer; its tag returns through [`GroupCommitter::on_timer`].
    ArmTimer { delay: SimDuration, tag: u64 },
    /// A member's fate is settled: the host's exactly-once table records it
    /// and answers whoever waits for it.
    Settled(TxnId, Fate),
}

impl From<ClientAction> for Effect {
    fn from(action: ClientAction) -> Self {
        match action {
            ClientAction::Send(to, msg) => Effect::Send(to, msg),
            ClientAction::ArmTimer { delay, tag } => Effect::ArmTimer { delay, tag },
            ClientAction::Finished(_) => unreachable!("the proposer host finishes no transaction"),
        }
    }
}

/// A transaction waiting for an instance, with its pipeline bookkeeping.
struct PendingTxn {
    txn: Transaction,
    /// Positions this transaction already lost in earlier slots.
    promotions: u32,
    /// Reads verified un-invalidated by every decided entry through this
    /// position; revalidation resumes from here at the next opening.
    validated_through: LogPosition,
}

impl PendingTxn {
    /// A member whose submission starts its journey.
    fn new(txn: Transaction, promotions: u32) -> Self {
        let validated_through = txn.read_position;
        PendingTxn {
            txn,
            promotions,
            validated_through,
        }
    }

    /// Settle this member without an instance deciding it: committed when
    /// `abort_reason` is `None`.
    fn settle(&self, abort_reason: Option<AbortReason>) -> Effect {
        let fate = Fate {
            group: self.txn.group,
            committed: abort_reason.is_none(),
            promotions: self.promotions,
            abort_reason,
            ..Fate::default()
        };
        Effect::Settled(self.txn.id, fate)
    }
}

/// A committer's takeover of a home epoch it has not settled: the replicas'
/// answers to its [`Msg::TakeoverQuery`] so far, and, once a majority
/// answered, the position the group's prefix must reach before it opens a
/// slot.
struct Takeover {
    epoch: u64,
    /// Replicas that answered, as a bit set.
    answered: u64,
    /// The highest position any answer named.
    highest: LogPosition,
    /// `max(answers, highest_opened) + pipeline_depth`, once a majority
    /// answered.
    target: Option<LogPosition>,
    /// Tag of the armed patience timer.
    tag: u64,
}

/// The pipelined, work-conserving commit engine for one transaction group,
/// a part of the [`crate::TransactionService`] of the datacenter that
/// receives the group's commit requests.
///
/// Unlike [`crate::Session`] — which owns the read/write sets of its open
/// transactions and times their commits — the committer accepts fully
/// built [`Transaction`]s (several sessions' worth per window) and owns
/// only their journey through the commit protocol. It keeps no clock: the
/// service feeds it submissions, proposer replies and timers, and carries
/// out the returned [`Effect`]s in order, reporting each settled member's
/// [`Fate`] to its exactly-once table.
pub(crate) struct GroupCommitter {
    node: NodeId,
    group: GroupId,
    home_replica: usize,
    directory: Arc<Directory>,
    config: ClientConfig,
    batch: BatchConfig,
    rng: StdRng,
    /// Transactions waiting for an instance. Submission order, except that
    /// survivors of a lost slot re-enter at the front (they are older).
    window: VecDeque<PendingTxn>,
    /// Tag of the armed window re-poll timer, if any.
    window_tag: Option<u64>,
    /// The positions of the in-flight instances, ascending; the proposer
    /// host runs each slot's instance under its position.
    slots: Vec<LogPosition>,
    /// Highest position any slot has competed for. A speculative open must
    /// go strictly above it: a completed middle/tail slot's position is
    /// *decided*, and reopening it while the head is still in flight would
    /// be a guaranteed-loss retry loop. (An empty pipeline re-opens at the
    /// prefix regardless — re-proposing a possibly-orphaned position there
    /// is the self-healing path.)
    highest_opened: LogPosition,
    /// The home epoch ([`Directory::home_epoch`]) this committer last took
    /// over; it opens a slot only while that is the current epoch.
    taken_over: u64,
    /// The takeover of a newer epoch, while it runs.
    takeover: Option<Takeover>,
    /// The slots' running proposers, by slot position.
    proposers: Proposers<LogPosition>,
    next_tag: u64,
    metrics: Option<Arc<Mutex<RunMetrics>>>,
}

impl GroupCommitter {
    /// Create a committer for `group`, running on `node` and homed in the
    /// datacenter with replica index `home_replica`, recording its window
    /// and pipeline counters into `metrics` if given.
    pub(crate) fn new(
        node: NodeId,
        home_replica: usize,
        group: GroupId,
        directory: Arc<Directory>,
        config: ClientConfig,
        batch: BatchConfig,
        metrics: Option<Arc<Mutex<RunMetrics>>>,
    ) -> Self {
        GroupCommitter {
            node,
            group,
            home_replica,
            directory,
            config,
            batch,
            rng: StdRng::seed_from_u64(0x51ed_270b ^ node.0 as u64),
            window: VecDeque::new(),
            window_tag: None,
            slots: Vec::new(),
            highest_opened: LogPosition::ZERO,
            taken_over: 0,
            takeover: None,
            proposers: Proposers::default(),
            next_tag: 0,
            metrics,
        }
    }

    /// The log positions of the in-flight instances, ascending.
    pub(crate) fn slot_positions(&self) -> &[LogPosition] {
        &self.slots
    }

    fn home_core(&self) -> SharedCore {
        self.directory.core(self.home_replica)
    }

    /// Most members one instance carries.
    fn cap(&self) -> usize {
        match self.config.protocol {
            CommitProtocol::BasicPaxos => 1,
            CommitProtocol::PaxosCp => self.batch.max_batch.max(1),
        }
    }

    fn pipeline_full(&self) -> bool {
        self.slots.len() >= self.batch.pipeline_depth.max(1)
    }

    /// Give up the in-flight slots at or below `through`: positions the
    /// home datacenter learned by adopting a peer's group state, which the
    /// peers that forgot them will never promise again. A member the
    /// adopted state committed is answered committed; a blind write goes
    /// back to the window front; a member with reads aborts, because the
    /// entries it would have to be revalidated against are gone.
    pub(crate) fn abandon_through(&mut self, through: LogPosition) -> Vec<Effect> {
        let mut out = Vec::new();
        let (gone, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.slots)
            .into_iter()
            .partition(|&position| position <= through);
        self.slots = kept;
        if gone.is_empty() {
            return out;
        }
        let core = self.home_core();
        let core = core.lock();
        // Back to front, so the window keeps the slots' order.
        for position in gone.into_iter().rev() {
            let Some(proposer) = self.proposers.remove(&position) else {
                continue;
            };
            let promotions = proposer.promotions();
            for txn in proposer.transactions().iter().rev() {
                let committed = core.is_committed(self.group, txn.id);
                let pending = PendingTxn::new(txn.clone(), promotions);
                if !committed && txn.reads().is_empty() {
                    self.window.push_front(pending);
                    continue;
                }
                out.push(pending.settle((!committed).then_some(AbortReason::Conflict)));
            }
        }
        drop(core);
        self.open_slots(&mut out);
        out
    }

    /// Submit a finished transaction for group commit. Returns the effects
    /// to carry out: the new instance's protocol messages when a pipeline
    /// slot is free, or a window re-poll timer when the member cannot board
    /// it.
    pub(crate) fn submit(&mut self, txn: Transaction) -> Vec<Effect> {
        debug_assert_eq!(
            txn.group, self.group,
            "transaction routed to wrong committer"
        );
        self.window.push_back(PendingTxn::new(txn, 0));
        self.flush()
    }

    /// Open whatever free slots the waiting members can board now (into a
    /// speculative slot when instances are already in flight); outside the
    /// group's home, answer them all `Unavailable` instead.
    pub(crate) fn flush(&mut self) -> Vec<Effect> {
        let mut out = Vec::new();
        self.open_slots(&mut out);
        out
    }

    /// Arm the window re-poll for members left waiting beside a free slot.
    /// Members waiting behind a full pipeline need none: they board when
    /// the next slot completes.
    fn ensure_window_timer(&mut self, out: &mut Vec<Effect>) {
        if self.window.is_empty() {
            self.window_tag = None;
            return;
        }
        if self.window_tag.is_some() || self.pipeline_full() {
            return;
        }
        self.next_tag += 1;
        let tag = self.next_tag;
        self.window_tag = Some(tag);
        out.push(Effect::ArmTimer { delay: REPOLL, tag });
    }

    /// Open as many pipeline slots as the window, the depth and the
    /// speculation rules allow, each taking up to the cap of eligible
    /// members, then arm the re-poll for whoever could not board. A
    /// committer outside the group's home answers its whole window instead.
    fn open_slots(&mut self, out: &mut Vec<Effect>) {
        if !self.window.is_empty() && self.directory.group_home(self.group) != self.home_replica {
            // The home owns these members: a copy proposed here would race
            // the session's retry there and could commit twice.
            // `Unavailable` sends the session to the home.
            let unavailable = Some(AbortReason::Unavailable);
            out.extend(self.window.drain(..).map(|p| p.settle(unavailable)));
        }
        if !self.window.is_empty() && !self.taken_over_epoch(out) {
            // The members wait for the takeover; the re-poll looks again.
            self.ensure_window_timer(out);
            return;
        }
        loop {
            if self.pipeline_full() || self.window.is_empty() {
                break;
            }
            let cap = self.cap();
            let core = self.home_core();
            let core_guard = core.lock();
            let prefix = core_guard.read_position(self.group);
            // The head slot proposes for the first undecided position; a
            // speculative slot for the position after the last in-flight one
            // (invariant 2: blind-write members only above the head).
            let speculative = !self.slots.is_empty();
            let position = match self.slots.last() {
                Some(last) => last
                    .next()
                    .max(prefix.next())
                    .max(self.highest_opened.next()),
                None => prefix.next(),
            };
            let pendings: Vec<PendingTxn> = self.window.drain(..).collect();
            // Chosen members move into `txns`: the proposer owns them.
            let mut promo_class: Option<u32> = None;
            let mut txns: Vec<Transaction> = Vec::new();
            let mut kept: VecDeque<PendingTxn> = VecDeque::new();
            let mut split = false;
            for mut pending in pendings {
                // A member already present in the group log is a retried
                // submission whose original proposal won (the retry slipped
                // past the service-side dedup, e.g. across a group-home
                // migration). Proposing it again would commit it twice;
                // answer committed instead.
                if core_guard.is_committed(self.group, pending.txn.id) {
                    if let Some(metrics) = &self.metrics {
                        metrics.lock().duplicate_suppressions += 1;
                    }
                    out.push(pending.settle(None));
                    continue;
                }
                // Optimistic revalidation, incremental: entries decided
                // since the member's last validated position must not have
                // written anything it read. One core lock covers the whole
                // opening; a member already validated through this prefix
                // costs nothing. The rule is the direct route's too
                // (`GroupLog::promotable_through`); positions at or below
                // the log base were truncated away and go unchecked.
                if pending.validated_through < prefix {
                    let log = core_guard.log(self.group);
                    let invalidated = log.is_some_and(|log| {
                        let from = pending.validated_through.max(log.base());
                        log.promotable_through(&pending.txn, from, None) < prefix
                    });
                    if invalidated {
                        if let Some(metrics) = &self.metrics {
                            metrics.lock().stale_member_aborts += 1;
                        }
                        out.push(pending.settle(Some(AbortReason::Conflict)));
                        continue;
                    }
                    pending.validated_through = prefix;
                }
                // A slot's batch is homogeneous in promotion count: the
                // proposer carries one `prior_promotions` for the whole
                // batch (for the cap and for reporting), so a fresh member
                // must not ride with a rescheduled survivor and inherit its
                // losses. Survivors sit at the window front, so they form
                // their own slot first.
                let same_class = promo_class.is_none_or(|class| class == pending.promotions);
                // A member's read snapshot must sit strictly below the slot
                // it commits at, or the commit would be serialized before
                // state the member already observed. Normally the home's
                // prefix covers every local snapshot, but a member routed
                // from a remote datacenter — or a home freshly restarted
                // from disk — can carry a read position ahead of this
                // replica's prefix; it waits in the window until catch-up
                // brings the prefix past its snapshot.
                let snapshot_below_slot = pending.txn.read_position < position;
                let eligible = snapshot_below_slot
                    && (!speculative || pending.txn.reads().is_empty())
                    && same_class;
                if eligible && txns.len() < cap {
                    if can_append(&txns, &pending.txn) {
                        promo_class = Some(pending.promotions);
                        txns.push(pending.txn);
                        continue;
                    }
                    // Internally conflicting window: the member reads an
                    // earlier member's write, so it waits for a later
                    // instance instead of invalidating the combination.
                    split = true;
                }
                kept.push_back(pending);
            }
            // Release the core before driving the proposer: its `Learned`
            // installs re-lock the same mutex.
            drop(core_guard);
            self.window = kept;
            if split {
                if let Some(metrics) = &self.metrics {
                    metrics.lock().batch_splits += 1;
                }
            }
            if txns.is_empty() {
                break;
            }
            let prior = promo_class.unwrap_or(0);
            let cfg = self
                .config
                .proposer_config(self.directory.num_replicas())
                .with_fast_resends(FAST_RESENDS);
            let occupancy = txns.len() as u32;
            let proposer = Box::new(Proposer::new_batch_pipelined(
                cfg,
                self.group,
                self.node.0 as u64,
                txns,
                position,
                prior,
                speculative,
            ));
            self.slots.push(position);
            self.highest_opened = self.highest_opened.max(position);
            let depth = self.slots.len() as u32;
            if let Some(metrics) = &self.metrics {
                let mut metrics = metrics.lock();
                metrics.window_occupancy.push(occupancy);
                metrics.pipeline_depth.push(depth);
            }
            self.drive(Input::Start(position, proposer), out);
        }
        self.ensure_window_timer(out);
    }

    /// Whether the committer has taken over the group's current home epoch.
    /// If not, start the epoch's takeover (ask every replica how far the
    /// group's positions were touched), or finish it once the prefix has
    /// reached its target.
    fn taken_over_epoch(&mut self, out: &mut Vec<Effect>) -> bool {
        let epoch = self.directory.home_epoch(self.group);
        if epoch == self.taken_over {
            return true;
        }
        match &self.takeover {
            Some(takeover) if takeover.epoch == epoch => {
                let Some(target) = takeover.target else {
                    return false;
                };
                if self.home_core().lock().read_position(self.group) < target {
                    return false;
                }
                self.taken_over = epoch;
                self.takeover = None;
                true
            }
            _ => {
                self.takeover = Some(Takeover {
                    epoch,
                    answered: 0,
                    highest: LogPosition::ZERO,
                    target: None,
                    tag: 0,
                });
                self.ask(out);
                false
            }
        }
    }

    /// Send the takeover query to every replica that has not answered yet,
    /// and arm the patience after which the silent ones are asked again.
    fn ask(&mut self, out: &mut Vec<Effect>) {
        let Some(takeover) = &mut self.takeover else {
            return;
        };
        for replica in 0..self.directory.num_replicas() {
            if takeover.answered & (1 << replica) == 0 {
                let query = Msg::TakeoverQuery {
                    group: self.group,
                    epoch: takeover.epoch,
                };
                out.push(Effect::Send(self.directory.service_node(replica), query));
            }
        }
        self.next_tag += 1;
        takeover.tag = self.next_tag;
        out.push(Effect::ArmTimer {
            delay: TAKEOVER_PATIENCE,
            tag: takeover.tag,
        });
    }

    /// Record `replica`'s answer to the takeover query of `epoch`: the
    /// highest position of the group it touched. Returns the takeover's
    /// target once a majority has answered, the first time only; the host
    /// then settles every undecided position through it that no slot of
    /// this committer holds.
    pub(crate) fn on_takeover_reply(
        &mut self,
        epoch: u64,
        replica: usize,
        highest: LogPosition,
    ) -> Option<LogPosition> {
        let takeover =
            (self.takeover.as_mut()).filter(|t| t.epoch == epoch && t.target.is_none())?;
        takeover.answered |= 1 << replica;
        takeover.highest = takeover.highest.max(highest);
        let majority = self.directory.num_replicas() / 2 + 1;
        if (takeover.answered.count_ones() as usize) < majority {
            return None;
        }
        // Every decided position holds votes at a majority, so one answer
        // reaches the highest position the previous home knew decided, and
        // its slots lie at most a pipeline above that.
        let depth = self.batch.pipeline_depth.max(1) as u64;
        let target = LogPosition(takeover.highest.max(self.highest_opened).0 + depth);
        takeover.target = Some(target);
        Some(target)
    }

    /// Feed a replica's reply to a proposer into the committer; the carried
    /// position routes it to its pipeline slot.
    pub(crate) fn on_message(&mut self, from: NodeId, msg: &PaxosMsg) -> Vec<Effect> {
        let mut out = Vec::new();
        self.drive(Input::Reply(msg.position(), from, msg), &mut out);
        out
    }

    /// Feed a timer expiration (tag previously returned in
    /// [`Effect::ArmTimer`]) into the committer.
    pub(crate) fn on_timer(&mut self, tag: u64) -> Vec<Effect> {
        if self.window_tag == Some(tag) {
            self.window_tag = None;
            return self.flush();
        }
        let mut out = Vec::new();
        let waiting = |t: &&Takeover| t.tag == tag && t.target.is_none();
        if let Some(takeover) = self.takeover.as_ref().filter(waiting) {
            // The patience of a takeover still short of a majority: ask the
            // silent replicas again, unless the home has moved on.
            if takeover.epoch == self.directory.home_epoch(self.group) {
                self.ask(&mut out);
            } else {
                self.takeover = None;
            }
            return out;
        }
        self.drive(Input::Timer(tag), &mut out);
        out
    }

    /// Feed the committer's proposer host (learned entries install at the
    /// home datacenter, timers use the committer's delay policy), then
    /// finish the slot it decided, if any.
    fn drive(&mut self, input: Input<'_, LogPosition>, out: &mut Vec<Effect>) {
        let (config, rng) = (&self.config, &mut self.rng);
        let env = Env {
            directory: &self.directory,
            home: self.home_replica,
            next_tag: &mut self.next_tag,
            delay: &mut |kind| config.timer_delay(kind, rng),
            claim: Claim::AtHome(self.node.0 as u64),
        };
        if let Some((position, outcome)) = self.proposers.drive(input, env, out) {
            self.finish_slot(position, outcome, out);
        }
    }

    /// A slot's instance finished: settle per-member fates, reschedule
    /// survivors at the pipeline tail (in order, ahead of newer
    /// submissions) and refill the pipeline.
    fn finish_slot(
        &mut self,
        position: LogPosition,
        outcome: CommitOutcome,
        out: &mut Vec<Effect>,
    ) {
        let idx = (self.slots.iter())
            .position(|&slot| slot == position)
            .expect("finished implies an in-flight slot");
        self.slots.remove(idx);
        let fate = Fate {
            group: self.group,
            promotions: outcome.promotions,
            rounds: outcome.rounds,
            ..Fate::default()
        };
        for id in &outcome.committed_txns {
            let committed = Fate {
                committed: true,
                combined: outcome.combined,
                ..fate
            };
            out.push(Effect::Settled(*id, committed));
        }
        for (id, reason) in &outcome.aborted_txns {
            let aborted = Fate {
                abort_reason: Some(*reason),
                ..fate
            };
            out.push(Effect::Settled(*id, aborted));
        }
        // Survivors revalidate from scratch: the winner that displaced them
        // was checked (`invalidates_reads_of`), but other positions may have
        // decided since their original validation.
        for txn in outcome.survivors.into_iter().rev() {
            self.window
                .push_front(PendingTxn::new(txn, outcome.promotions));
        }
        self.open_slots(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DatacenterCore;
    use paxos::Ballot;
    use walog::{ItemRef, LogEntry};

    fn harness_with(batch: BatchConfig) -> (Arc<Directory>, GroupCommitter) {
        let dir = Directory::new();
        dir.register_datacenter(NodeId(0), DatacenterCore::shared("dc0", 0));
        dir.register_client(NodeId(5), 0);
        let committer = GroupCommitter::new(
            NodeId(5),
            0,
            GroupId(0),
            dir.clone(),
            ClientConfig::cp(),
            batch,
            None,
        );
        (dir, committer)
    }

    fn harness() -> (Arc<Directory>, GroupCommitter) {
        harness_with(BatchConfig::default().with_max_batch(2))
    }

    /// `committer` wired to a fresh metrics sink.
    fn metered(mut committer: GroupCommitter) -> (GroupCommitter, Arc<Mutex<RunMetrics>>) {
        let sink = Arc::new(Mutex::new(RunMetrics::default()));
        committer.metrics = Some(Arc::clone(&sink));
        (committer, sink)
    }

    fn txn(dir: &Directory, seq: u64, attr: &str, read_position: LogPosition) -> Transaction {
        let item = dir.symbols().item("row", attr);
        Transaction::builder(TxnId::new(5, seq), GroupId(0), read_position)
            .write(ItemRef::new(item.key, item.attr), "v")
            .build()
    }

    /// The accepts `effects` send, as `(to, position, ballot)`.
    fn accepts(effects: &[Effect]) -> Vec<(NodeId, LogPosition, Ballot)> {
        effects
            .iter()
            .filter_map(|a| match a {
                Effect::Send(
                    to,
                    Msg::Paxos(PaxosMsg::Accept {
                        position, ballot, ..
                    }),
                ) => Some((*to, *position, *ballot)),
                _ => None,
            })
            .collect()
    }

    /// The position and ballot of the first accept `effects` send.
    fn accept_of(effects: &[Effect]) -> Option<(LogPosition, Ballot)> {
        let (_, position, ballot) = *accepts(effects).first()?;
        Some((position, ballot))
    }

    /// Whether `effects` send any leader claim.
    fn claims(effects: &[Effect]) -> bool {
        effects
            .iter()
            .any(|a| matches!(a, Effect::Send(_, Msg::Paxos(PaxosMsg::LeaderClaim { .. }))))
    }

    /// Drive one slot's instance to completion against the single-replica
    /// harness: the slot claimed its position at home when it opened, so
    /// `effects` already broadcast its accept; ack it.
    fn complete_instance(committer: &mut GroupCommitter, effects: &[Effect]) -> Vec<Effect> {
        let (position, ballot) = accept_of(effects).expect("accept broadcast");
        committer.on_message(NodeId(0), &accepted(position, ballot))
    }

    /// The single replica's vote for `ballot` at `position`.
    fn accepted(position: LogPosition, ballot: Ballot) -> PaxosMsg {
        PaxosMsg::AcceptReply {
            group: GroupId(0),
            position,
            ballot,
            accepted: true,
        }
    }

    /// The `(seq, fate)` of every settled member.
    fn settled(effects: &[Effect]) -> Vec<(u64, Fate)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Settled(id, fate) => Some((id.seq, *fate)),
                _ => None,
            })
            .collect()
    }

    /// Collect `(seq, committed, abort_reason)` of every settled member.
    fn fates(effects: &[Effect]) -> Vec<(u64, bool, Option<AbortReason>)> {
        (settled(effects).into_iter())
            .map(|(seq, fate)| (seq, fate.committed, fate.abort_reason))
            .collect()
    }

    /// The `(to, epoch)` of every takeover query `effects` send.
    fn queries(effects: &[Effect]) -> Vec<(NodeId, u64)> {
        effects
            .iter()
            .filter_map(|a| match a {
                Effect::Send(to, Msg::TakeoverQuery { epoch, .. }) => Some((*to, *epoch)),
                _ => None,
            })
            .collect()
    }

    /// Whether `effects` claim, prepare or accept any position.
    fn proposes(effects: &[Effect]) -> bool {
        effects.iter().any(|a| {
            matches!(
                a,
                Effect::Send(
                    _,
                    Msg::Paxos(
                        PaxosMsg::LeaderClaim { .. }
                            | PaxosMsg::Prepare { .. }
                            | PaxosMsg::Accept { .. }
                    )
                )
            )
        })
    }

    #[test]
    fn abandoned_slots_answer_adopted_commits_and_requeue_only_blind_writes() {
        // Depth 1: a filler holds the only slot while the three members
        // pile up, then they board position 2 together.
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(3)
                .with_pipeline_depth(1),
        );
        let filler = committer.submit(txn(&dir, 4, "f", LogPosition::ZERO));
        let adopted = txn(&dir, 1, "a", LogPosition::ZERO);
        let z = dir.symbols().item("row", "z");
        let reader = Transaction::builder(TxnId::new(5, 2), GroupId(0), LogPosition::ZERO)
            .read(ItemRef::new(z.key, z.attr), None)
            .write(dir.symbols().item("row", "c"), "v")
            .build();
        let blind = txn(&dir, 3, "b", LogPosition::ZERO);
        committer.submit(adopted.clone());
        committer.submit(reader);
        committer.submit(blind);
        complete_instance(&mut committer, &filler);
        assert_eq!(committer.slot_positions(), [LogPosition(2)]);
        assert_eq!(committer.window.len(), 0);
        // The home adopted a peer's state covering position 2, where the
        // first member committed.
        dir.core(0).lock().install_entry(
            GroupId(0),
            LogPosition(2),
            Arc::new(LogEntry::single(adopted)),
        );
        assert!(committer.abandon_through(LogPosition(1)).is_empty());
        let actions = committer.abandon_through(LogPosition(2));
        assert_eq!(
            fates(&actions),
            [(2, false, Some(AbortReason::Conflict)), (1, true, None)]
        );
        // The blind write reopens at the next position.
        assert_eq!(committer.slot_positions(), [LogPosition(3)]);
        assert_eq!(accept_of(&actions).map(|(p, _)| p), Some(LogPosition(3)));
    }

    #[test]
    fn a_lone_submission_starts_its_instance_at_once() {
        let (dir, mut committer) = harness();
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        // A free slot takes the member now, on the fast path, instead of
        // holding it in the window for company.
        assert_eq!(accept_of(&actions).map(|(p, _)| p), Some(LogPosition(1)));
        assert_eq!(committer.window.len(), 0);
        assert_eq!(committer.slot_positions(), [LogPosition(1)]);
    }

    /// Three datacenters whose services are nodes 0, 1 and 2, a client
    /// node 7 local to datacenter 2, and the committer for `GroupId(0)`
    /// hosted by datacenter 0's service, the group's home.
    fn three_dc_harness() -> (Arc<Directory>, GroupCommitter) {
        let dir = Directory::new();
        for replica in 0..3 {
            dir.register_datacenter(
                NodeId(replica),
                DatacenterCore::shared(format!("dc{replica}"), replica as usize),
            );
        }
        dir.register_client(NodeId(7), 2);
        dir.set_group_home(GroupId(0), 0);
        let committer = GroupCommitter::new(
            NodeId(0),
            0,
            GroupId(0),
            dir.clone(),
            ClientConfig::cp(),
            BatchConfig::default(),
            None,
        );
        (dir, committer)
    }

    #[test]
    fn a_home_committer_claims_its_position_without_a_message() {
        let (dir, mut committer) = three_dc_harness();
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        assert!(!claims(&actions), "a leader claim was sent: {actions:?}");
        // The claim was granted at home in the same step: the instance's
        // first actions are its fast-round accept to every replica.
        let fast = Ballot::fast(0);
        let broadcast: Vec<_> = (0..3).map(|r| (NodeId(r), LogPosition(1), fast)).collect();
        assert_eq!(accepts(&actions[..3]), broadcast);
        // Only the accept round waits on a timer: the claim's own reply
        // timer was superseded before it was armed.
        let timers = actions
            .iter()
            .filter(|a| matches!(a, Effect::ArmTimer { .. }))
            .count();
        assert_eq!(timers, 1, "{actions:?}");
        // The home recorded the claim: any other claimant is refused.
        assert!(!dir
            .core(0)
            .lock()
            .leader_claim(GroupId(0), LogPosition(1), 7));
    }

    #[test]
    fn a_committer_claims_at_home_even_when_a_remote_clients_member_won_the_previous_position() {
        let (dir, mut committer) = three_dc_harness();
        // Position 1 was won by an entry whose first member came from
        // client 7, a session in datacenter 2: the §4.1 previous-winner rule
        // names datacenter 2 the leader of position 2.
        let remote = Transaction::builder(TxnId::new(7, 1), GroupId(0), LogPosition::ZERO)
            .write(dir.symbols().item("row", "r"), "v")
            .build();
        dir.core(0).lock().install_entry(
            GroupId(0),
            LogPosition(1),
            Arc::new(LogEntry::single(remote)),
        );
        assert_eq!(dir.leader_replica(0, GroupId(0), LogPosition(2)), 2);
        // The committer still runs in the group's home and claims there,
        // without a message to datacenter 2 or to itself.
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition(1)));
        assert!(!claims(&actions), "a leader claim was sent: {actions:?}");
        let fast = Ballot::fast(0);
        let broadcast: Vec<_> = (0..3).map(|r| (NodeId(r), LogPosition(2), fast)).collect();
        assert_eq!(accepts(&actions), broadcast);
        assert!(!dir
            .core(0)
            .lock()
            .leader_claim(GroupId(0), LogPosition(2), 7));
        assert!(
            dir.core(2)
                .lock()
                .leader_claim(GroupId(0), LogPosition(2), 7),
            "nothing was claimed at datacenter 2"
        );
    }

    #[test]
    fn a_slot_resends_its_fast_accept_to_the_replica_that_missed_it() {
        let (dir, mut committer) = three_dc_harness();
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        let (position, ballot) = accept_of(&actions).expect("accept broadcast");
        let tag = actions
            .iter()
            .find_map(|a| match a {
                Effect::ArmTimer { delay, tag } => {
                    // A quarter of the message timeout.
                    assert_eq!(*delay, SimDuration::from_millis(500));
                    Some(*tag)
                }
                _ => None,
            })
            .expect("resend timer");
        let ack = accepted(position, ballot);
        committer.on_message(NodeId(0), &ack);
        committer.on_message(NodeId(1), &ack);
        // Datacenter 2 never answered: the resend goes to it alone.
        let actions = committer.on_timer(tag);
        assert_eq!(accepts(&actions), [(NodeId(2), position, ballot)]);
        // Its vote completes the fast round.
        let actions = committer.on_message(NodeId(2), &ack);
        assert_eq!(fates(&actions), [(1, true, None)]);
    }

    #[test]
    fn a_full_pipeline_batches_what_arrives_and_boards_it_on_completion() {
        let (dir, committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(8)
                .with_pipeline_depth(2),
        );
        let (mut committer, sink) = metered(committer);
        let head = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        committer.submit(txn(&dir, 2, "b", LogPosition::ZERO));
        assert_eq!(committer.slot_positions(), [LogPosition(1), LogPosition(2)]);
        // Both slots are in flight: arrivals pile up, and nothing re-polls
        // for them, since only a completion can free a slot.
        for (seq, attr) in [(3, "c"), (4, "d"), (5, "e")] {
            let actions = committer.submit(txn(&dir, seq, attr, LogPosition::ZERO));
            assert!(
                actions.is_empty(),
                "a full pipeline arms nothing: {actions:?}"
            );
        }
        assert_eq!(committer.window.len(), 3);
        // The head completes: the whole pile boards the freed slot as one
        // instance, above the one still in flight.
        let actions = complete_instance(&mut committer, &head);
        assert_eq!(fates(&actions), [(1, true, None)]);
        assert_eq!(committer.window.len(), 0);
        assert_eq!(committer.slot_positions(), [LogPosition(2), LogPosition(3)]);
        let done = complete_instance(&mut committer, &actions);
        assert_eq!(
            fates(&done),
            [(3, true, None), (4, true, None), (5, true, None)]
        );
        assert_eq!(sink.lock().window_occupancy, [1, 1, 3]);
    }

    #[test]
    fn a_demoted_home_answers_its_window_unavailable_and_proposes_nothing() {
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(8)
                .with_pipeline_depth(1),
        );
        let head = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        committer.submit(txn(&dir, 2, "b", LogPosition::ZERO));
        committer.submit(txn(&dir, 3, "c", LogPosition::ZERO));
        assert_eq!(committer.window.len(), 2);
        // The group's home moves to another replica while the window waits.
        dir.set_group_home(GroupId(0), 1);
        // The in-flight slot still decides; the window proposes nothing and
        // every waiting member is answered, so its session goes to the new
        // home.
        let actions = complete_instance(&mut committer, &head);
        assert!(!proposes(&actions), "a demoted home proposed: {actions:?}");
        let unavailable = Some(AbortReason::Unavailable);
        assert_eq!(
            fates(&actions),
            [
                (1, true, None),
                (2, false, unavailable),
                (3, false, unavailable)
            ]
        );
        assert!(committer.slots.is_empty());
        assert_eq!(committer.window.len(), 0);
        // A late submission is answered the same way, at once.
        let actions = committer.submit(txn(&dir, 4, "d", LogPosition(1)));
        assert!(!proposes(&actions));
        assert_eq!(fates(&actions), [(4, false, unavailable)]);
        // Once the home returns, the committer first takes over: it asks
        // the replicas how far the group was touched, and proposes nothing.
        dir.set_group_home(GroupId(0), 0);
        let actions = committer.submit(txn(&dir, 5, "e", LogPosition(1)));
        assert!(
            !proposes(&actions),
            "proposed before the takeover: {actions:?}"
        );
        assert_eq!(queries(&actions), [(NodeId(0), 2)]);
        // The only replica answers position 1; the target is one pipeline
        // (depth 1) above it.
        let target = committer.on_takeover_reply(2, 0, LogPosition(1));
        assert_eq!(target, Some(LogPosition(2)));
        assert!(!proposes(&committer.flush()));
        // Once its host has settled position 2, the committer proposes
        // above the target.
        dir.core(0)
            .lock()
            .install_entry(GroupId(0), LogPosition(2), Arc::new(LogEntry::noop()));
        let actions = committer.flush();
        assert_eq!(accept_of(&actions).map(|(p, _)| p), Some(LogPosition(3)));
    }

    #[test]
    fn a_new_home_asks_a_majority_and_waits_for_its_range_to_decide_before_it_proposes() {
        let (dir, mut committer) = three_dc_harness();
        // Setting the home it already has moves no epoch: the committer
        // proposes at once and asks nobody.
        dir.set_group_home(GroupId(0), 0);
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        assert!(queries(&actions).is_empty());
        let (position, ballot) = accept_of(&actions).expect("accept broadcast");
        let ack = accepted(position, ballot);
        for replica in 0..3 {
            committer.on_message(NodeId(replica), &ack);
        }
        assert!(committer.slots.is_empty());
        // The home moves away and back: epoch 2, which this committer has
        // not taken over. It asks every replica and proposes nothing.
        dir.set_group_home(GroupId(0), 1);
        dir.set_group_home(GroupId(0), 0);
        let actions = committer.submit(txn(&dir, 2, "b", LogPosition(1)));
        assert!(!proposes(&actions), "{actions:?}");
        let everyone: Vec<_> = (0..3).map(|r| (NodeId(r), 2)).collect();
        assert_eq!(queries(&actions), everyone);
        let patience = actions
            .iter()
            .find_map(|a| match a {
                Effect::ArmTimer { delay, tag } if *delay == TAKEOVER_PATIENCE => Some(*tag),
                _ => None,
            })
            .expect("takeover patience timer");
        // One answer is no majority; nor is a stale epoch's answer.
        assert_eq!(committer.on_takeover_reply(2, 1, LogPosition(1)), None);
        assert_eq!(committer.on_takeover_reply(1, 2, LogPosition(9)), None);
        // The patience expires: only the silent replicas are asked again.
        let actions = committer.on_timer(patience);
        assert_eq!(queries(&actions), [(NodeId(0), 2), (NodeId(2), 2)]);
        // Replica 2 touched position 3: the target is a pipeline above it.
        let depth = BatchConfig::default().pipeline_depth as u64;
        let target = committer.on_takeover_reply(2, 2, LogPosition(3));
        assert_eq!(target, Some(LogPosition(3 + depth)));
        assert_eq!(committer.on_takeover_reply(2, 0, LogPosition(1)), None);
        // Nothing opens until every position through the target decided.
        let core = dir.core(0);
        for p in 2..3 + depth {
            let noop = Arc::new(LogEntry::noop());
            core.lock().install_entry(GroupId(0), LogPosition(p), noop);
        }
        assert!(!proposes(&committer.flush()));
        let noop = Arc::new(LogEntry::noop());
        core.lock()
            .install_entry(GroupId(0), LogPosition(3 + depth), noop);
        let actions = committer.flush();
        let opened = accept_of(&actions).map(|(p, _)| p);
        assert_eq!(opened, Some(LogPosition(4 + depth)));
        // The epoch is taken over: later submissions ask nobody.
        let actions = committer.submit(txn(&dir, 3, "c", LogPosition::ZERO));
        assert!(queries(&actions).is_empty() && proposes(&actions));
    }

    #[test]
    fn a_committer_that_never_homed_the_group_answers_its_window_unavailable_and_proposes_nothing()
    {
        // A request in flight across a home move reaches a service that
        // never homed the group: only the home proposes, so the member is
        // answered at once and its session re-sends to the home.
        let (dir, mut committer) = harness();
        dir.register_datacenter(NodeId(1), DatacenterCore::shared("dc1", 1));
        dir.set_group_home(GroupId(0), 1);
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        assert!(!proposes(&actions), "a committer outside the home proposed");
        assert_eq!(
            fates(&actions),
            [(1, false, Some(AbortReason::Unavailable))]
        );
        assert_eq!(committer.window.len(), 0);
        assert!(committer.slots.is_empty());
    }

    #[test]
    fn window_timer_flushes_a_partial_window() {
        // A member whose snapshot is ahead of the home's prefix cannot board
        // the free slot; the window timer polls again once catch-up lands.
        let (dir, mut committer) = harness();
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition(1)));
        let [Effect::ArmTimer { tag, .. }] = actions[..] else {
            panic!("expected only the window timer: {actions:?}");
        };
        assert!(committer.slots.is_empty());
        let filler = txn(&dir, 9, "z", LogPosition::ZERO);
        dir.core(0).lock().install_entry(
            GroupId(0),
            LogPosition(1),
            Arc::new(LogEntry::single(filler)),
        );
        let actions = committer.on_timer(tag);
        assert!(proposes(&actions));
        assert_eq!(committer.slot_positions(), [LogPosition(2)]);
    }

    #[test]
    fn conflicting_window_members_are_deferred_not_combined() {
        // Depth 1: the writer and the reader pile up behind a filler and
        // reach the freed slot together.
        let (dir, committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(2)
                .with_pipeline_depth(1),
        );
        let (mut committer, sink) = metered(committer);
        let filler = committer.submit(txn(&dir, 3, "f", LogPosition::ZERO));
        let item = dir.symbols().item("row", "a");
        let writer = Transaction::builder(TxnId::new(5, 1), GroupId(0), LogPosition::ZERO)
            .write(ItemRef::new(item.key, item.attr), "v")
            .build();
        let reader = Transaction::builder(TxnId::new(5, 2), GroupId(0), LogPosition::ZERO)
            .read(ItemRef::new(item.key, item.attr), None)
            .write(dir.symbols().item("row", "b"), "w")
            .build();
        committer.submit(writer);
        committer.submit(reader);
        complete_instance(&mut committer, &filler);
        // The reader reads the writer's item: it must not ride in the same
        // entry, so it stays pending while the writer's instance runs.
        assert_eq!(committer.slot_positions(), [LogPosition(2)]);
        assert_eq!(committer.slots.len(), 1);
        assert_eq!(committer.window.len(), 1);
        assert_eq!(sink.lock().batch_splits, 1);
    }

    #[test]
    fn a_member_whose_snapshot_is_ahead_of_the_home_waits_for_catch_up() {
        // A commit request routed from an up-to-date datacenter can carry a
        // read position the home has not reached (typically because the home
        // just restarted and is still catching up). Boarding a slot at or
        // below that snapshot would serialize the member before state it
        // already observed, so it waits in the window until the home's
        // prefix passes its read position.
        let (dir, mut committer) = harness();
        committer.submit(txn(&dir, 1, "a", LogPosition(3)));
        committer.submit(txn(&dir, 2, "b", LogPosition(3)));
        // Both tried to board the free slot, but position 1 sits at or
        // below both snapshots: nothing proposes, everything stays pending.
        assert!(committer.slots.is_empty());
        assert_eq!(committer.window.len(), 2);
        // Catch-up: decided entries from the rest of the cluster land.
        let core = dir.core(0);
        for p in 1..=3u64 {
            let filler = Transaction::builder(TxnId::new(9, p), GroupId(0), LogPosition(p - 1))
                .write(dir.symbols().item("row", "z"), "w")
                .build();
            core.lock().install_entry(
                GroupId(0),
                LogPosition(p),
                Arc::new(LogEntry::single(filler)),
            );
        }
        committer.flush();
        assert!(
            !committer.slots.is_empty(),
            "prefix 3 unlocks the slot at 4"
        );
        assert_eq!(committer.window.len(), 0);
    }

    #[test]
    fn submissions_piled_past_the_cap_spill_into_the_next_instance() {
        // Depth 1 (flush-and-wait): instance 1 starts with t1 alone, three
        // more submissions pile up while it is in flight, then completing
        // the instance must start one that takes exactly the cap while the
        // tail stays pending — no transaction vanishes.
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(2)
                .with_pipeline_depth(1),
        );
        let actions = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        assert!(!committer.slots.is_empty());
        for (i, attr) in ["b", "c", "d"].iter().enumerate() {
            committer.submit(txn(&dir, 2 + i as u64, attr, LogPosition::ZERO));
        }
        assert_eq!(committer.window.len(), 3);

        let actions = complete_instance(&mut committer, &actions);
        assert_eq!(fates(&actions), [(1, true, None)], "instance 1 commits t1");
        // Instance 2 took t2,t3 (the cap); t4 spilled back into the window.
        assert!(!committer.slots.is_empty());
        assert_eq!(
            committer.window.len(),
            1,
            "the member past the cap must stay pending, not vanish"
        );
        let done = complete_instance(&mut committer, &actions);
        assert_eq!(fates(&done), [(2, true, None), (3, true, None)]);
    }

    #[test]
    fn stale_members_abort_at_flush() {
        let (dir, committer) = harness();
        let (mut committer, sink) = metered(committer);
        // Decide position 1 writing "a"; a member that read "a" at position
        // 0 is stale by flush time.
        let decided = txn(&dir, 9, "a", LogPosition::ZERO);
        dir.core(0).lock().install_entry(
            GroupId(0),
            LogPosition(1),
            Arc::new(walog::LogEntry::single(decided)),
        );
        let item = dir.symbols().item("row", "a");
        let stale = Transaction::builder(TxnId::new(5, 1), GroupId(0), LogPosition::ZERO)
            .read(ItemRef::new(item.key, item.attr), None)
            .write(dir.symbols().item("row", "b"), "w")
            .build();
        // The opening the submission triggers revalidates it.
        let actions = committer.submit(stale);
        assert_eq!(fates(&actions), [(1, false, Some(AbortReason::Conflict))]);
        assert!(committer.slots.is_empty());
        assert_eq!(sink.lock().stale_member_aborts, 1);
    }

    #[test]
    fn pipeline_opens_a_second_slot_while_the_first_is_in_flight() {
        let (dir, committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(2)
                .with_pipeline_depth(2),
        );
        let (mut committer, sink) = metered(committer);
        committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        assert_eq!(committer.slots.len(), 1);
        let actions = committer.submit(txn(&dir, 2, "b", LogPosition::ZERO));
        // The second submission opens instance p+1 while p is still in
        // flight.
        assert_eq!(committer.slots.len(), 2);
        assert_eq!(
            committer.slot_positions(),
            vec![LogPosition(1), LogPosition(2)]
        );
        assert_eq!(committer.window.len(), 0);
        assert_eq!(accept_of(&actions).map(|(p, _)| p), Some(LogPosition(2)));
        assert_eq!(sink.lock().pipeline_depth.iter().max(), Some(&2));
    }

    #[test]
    fn out_of_order_decide_installs_but_defers_apply_to_position_order() {
        // Two slots in flight; the *second* position decides first. Its
        // entry must be installed (durable) but the group's read position
        // must stay put until the first position decides too.
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(1)
                .with_pipeline_depth(2),
        );
        let a1 = committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        let a2 = committer.submit(txn(&dir, 2, "b", LogPosition::ZERO));
        assert_eq!(committer.slots.len(), 2);
        // Complete slot 2 (position 2) first.
        let done2 = complete_instance(&mut committer, &a2);
        assert!(done2
            .iter()
            .any(|a| matches!(a, Effect::Settled(_, fate) if fate.committed)));
        assert!(dir.core(0).lock().has_entry(GroupId(0), LogPosition(2)));
        assert_eq!(
            dir.core(0).lock().read_position(GroupId(0)),
            LogPosition::ZERO,
            "position 2 must not apply before position 1 decides"
        );
        // Now complete slot 1; the prefix catches up through both.
        complete_instance(&mut committer, &a1);
        assert_eq!(dir.core(0).lock().read_position(GroupId(0)), LogPosition(2));
        assert!(committer.slots.is_empty());
    }

    #[test]
    fn completed_tail_position_is_not_reopened_while_the_head_is_in_flight() {
        // Slots at positions 1 and 2; position 2 decides first. A member
        // submitted afterwards must open at position 3 — position 2 is
        // decided, and competing for it again would be a guaranteed loss.
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(1)
                .with_pipeline_depth(2),
        );
        committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        let a2 = committer.submit(txn(&dir, 2, "b", LogPosition::ZERO));
        complete_instance(&mut committer, &a2);
        assert_eq!(committer.slot_positions(), vec![LogPosition(1)]);
        committer.submit(txn(&dir, 3, "c", LogPosition::ZERO));
        assert_eq!(
            committer.slot_positions(),
            vec![LogPosition(1), LogPosition(3)],
            "the decided position 2 must be skipped"
        );
    }

    #[test]
    fn speculative_slots_carry_only_blind_writes() {
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(1)
                .with_pipeline_depth(3),
        );
        committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        assert_eq!(committer.slots.len(), 1);
        // A member with reads must not board a speculative slot.
        let item = dir.symbols().item("row", "z");
        let reader = Transaction::builder(TxnId::new(5, 2), GroupId(0), LogPosition::ZERO)
            .read(ItemRef::new(item.key, item.attr), None)
            .write(dir.symbols().item("row", "y"), "w")
            .build();
        committer.submit(reader);
        assert_eq!(committer.slots.len(), 1, "reader must not speculate");
        assert_eq!(committer.window.len(), 1);
        // A blind write may.
        committer.submit(txn(&dir, 3, "c", LogPosition::ZERO));
        assert_eq!(committer.slots.len(), 2);
        assert_eq!(committer.window.len(), 1, "the reader still waits");
    }

    #[test]
    fn lost_slot_installs_winner_and_resubmits_survivors_at_the_tail() {
        // Another proposer's value already has a (single-replica) majority
        // of votes for position 2. The slot there, carrying the two members
        // that piled up behind a filler at position 1, must adopt and push
        // the value through (so the local prefix advances), then reschedule
        // its members into a new instance at position 3 — exactly once.
        let (dir, mut committer) = harness_with(
            BatchConfig::default()
                .with_max_batch(2)
                .with_pipeline_depth(1),
        );
        let foreign = Transaction::builder(TxnId::new(9, 50), GroupId(0), LogPosition::ZERO)
            .write(dir.symbols().item("row", "f"), "theirs")
            .build();
        let foreign_entry = Arc::new(LogEntry::single(foreign));
        let foreign_ballot = Ballot::initial(9);
        let filler = committer.submit(txn(&dir, 3, "x", LogPosition::ZERO));
        committer.submit(txn(&dir, 1, "a", LogPosition::ZERO));
        committer.submit(txn(&dir, 2, "b", LogPosition::ZERO));
        // Another client claimed position 2 first, so the slot there is
        // denied the fast path and runs a full prepare.
        assert!(dir
            .core(0)
            .lock()
            .leader_claim(GroupId(0), LogPosition(2), 9));
        let actions = complete_instance(&mut committer, &filler);
        assert_eq!(committer.slot_positions(), vec![LogPosition(2)]);
        let (position, ballot) = actions
            .iter()
            .find_map(|a| match a {
                Effect::Send(
                    _,
                    Msg::Paxos(PaxosMsg::Prepare {
                        position, ballot, ..
                    }),
                ) => Some((*position, *ballot)),
                _ => None,
            })
            .expect("prepare broadcast");
        // The only replica's vote carries the foreign value: a majority.
        let actions = committer.on_message(
            NodeId(0),
            &PaxosMsg::PrepareReply {
                group: GroupId(0),
                position,
                ballot,
                promised: true,
                next_bal: None,
                last_vote: Some((foreign_ballot, Arc::clone(&foreign_entry))),
            },
        );
        // The slot adopts the winner and pushes it through accept.
        let (position, ballot) = actions
            .iter()
            .find_map(|a| match a {
                Effect::Send(
                    _,
                    Msg::Paxos(PaxosMsg::Accept {
                        position,
                        ballot,
                        value,
                        ..
                    }),
                ) if Arc::ptr_eq(value, &foreign_entry) => Some((*position, *ballot)),
                _ => None,
            })
            .expect("the lost slot must push the winning value through");
        let actions = committer.on_message(NodeId(0), &accepted(position, ballot));
        // The winner installed locally; survivors were rescheduled into a
        // fresh instance at position 3, nothing finished as committed yet.
        assert!(dir.core(0).lock().has_entry(GroupId(0), LogPosition(2)));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Effect::Settled(_, fate) if fate.committed)));
        assert_eq!(committer.slot_positions(), vec![LogPosition(3)]);
        assert_eq!(committer.window.len(), 0);
        // Completing the new instance commits both members exactly once,
        // with the lost position counted as a promotion.
        let done = complete_instance(&mut committer, &actions);
        let commits: Vec<Fate> = (settled(&done).into_iter())
            .map(|(_, fate)| fate)
            .filter(|fate| fate.committed)
            .collect();
        assert_eq!(commits.len(), 2);
        assert!(commits.iter().all(|fate| fate.promotions == 1));
        assert!(committer.slots.is_empty());
        // The next instance carried both survivors, in their order.
        let entry = dir
            .core(0)
            .lock()
            .log(GroupId(0))
            .unwrap()
            .get(LogPosition(3))
            .cloned();
        assert_eq!(
            entry.expect("position 3 decided").txn_ids(),
            [TxnId::new(5, 1), TxnId::new(5, 2)]
        );
    }
}
