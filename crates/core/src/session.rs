//! The session-based Transaction Client: the library an application
//! instance links against to run transactions (§2.2, §4).
//!
//! A [`Session`] replaces the old single-active-transaction client with a
//! **session + handle** API: [`Session::begin`] opens a transaction and
//! returns a [`TxnHandle`]; reads, writes and commit take the handle, and
//! any number of transactions may be open (and committing) concurrently on
//! one client node. The session keeps each transaction's optimistic
//! read/write sets, serves `begin`/`read` against the local datacenter's
//! store (the paper's prototype optimization), buffers writes locally, and
//! at commit time routes the finished transaction down one of two
//! [`CommitRoute`]s:
//!
//! * [`CommitRoute::Direct`] — the paper-faithful baseline (§2.2,
//!   Algorithm 2): the session itself drives one Paxos / Paxos-CP
//!   [`Proposer`] per transaction over the simulated network. Direct
//!   commits of the *same group* are serialized within a session (two
//!   in-flight proposers from one node would share ballot identities and
//!   race for the same position); a commit issued while another is in
//!   flight queues and starts when the slot frees. Commits of different
//!   groups run concurrently. The fast path's leader claim (§4.1: the
//!   leader of a position is the datacenter of the client that won the
//!   previous one) is made in-process at the session's own datacenter
//!   when that datacenter leads the position, as the service would
//!   answer it, so such a commit's first actions are its fast accept;
//!   only a claim on a remote leader is a message.
//! * [`CommitRoute::Submitted`] — the scalable path: the finished
//!   [`Transaction`] ships to the group home's Transaction Service as a
//!   [`Msg::CommitRequest`]; the service-hosted group committer batches
//!   it with commits from every client of the group into pipelined Paxos-CP instances and answers with a
//!   [`Msg::CommitReply`]. A session outside the group's home usually
//!   learns a commit one wide-area hop sooner, from copies of the
//!   acceptors' votes ([`Msg::VoteCopy`], counted by a
//!   [`crate::VoteTally`]). Any number of submitted commits may be in
//!   flight at once — this is where overlapping transactions pay off.
//!
//! Read-mostly traffic has a third path that skips the commit machinery
//! entirely: [`Session::begin_read_only`] opens a **snapshot handle**
//! pinned to a per-group applied-prefix watermark of a chosen serving
//! replica — any datacenter, not just the group home — whose reads
//! ([`Session::read_id`]) the session answers from that replica's core
//! in-process, under the handle's read lease. Snapshot reads never run
//! Paxos, never park behind a log gap and never abort; commit closes the
//! handle route-free. (The wire form, [`Msg::SnapshotRead`], is for actors
//! that run no session.)
//!
//! The embedding actor (a workload driver or an application model)
//! forwards incoming messages and timer expirations and executes the
//! [`ClientAction`]s the session returns ([`apply_client_actions`]).
//!
//! Names cross into the interned data plane exactly once, at this API
//! boundary: the string-accepting methods (`begin`, `read`, `write`)
//! intern through the cluster's shared [`walog::SymbolTable`] and delegate
//! to the id-based fast paths (`begin_id`, `read_id`, `write_id`) that hot
//! workload drivers call directly with pre-interned ids.

use crate::cluster::Shards;
use crate::datacenter::SharedCore;
use crate::directory::Directory;
use crate::learner::VoteTally;
use crate::msg::Msg;
use crate::proposers::{Claim, Env, Input, Proposers};
use paxos::{AbortReason, CommitOutcome, CommitProtocol, Proposer, ProposerConfig, TimerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Context, NodeId, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use walog::{
    AttrId, GroupId, ItemRef, KeyId, LogPosition, ReadRecord, Transaction, TxnId, WriteRecord,
};

/// How a session's commits reach the replicated log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitRoute {
    /// The paper's client-driven proposer: one Paxos / Paxos-CP instance
    /// per transaction, driven by the session itself (Algorithm 2).
    #[default]
    Direct,
    /// Ship the finished transaction to the group home's Transaction
    /// Service ([`Msg::CommitRequest`]), whose hosted group committer
    /// batches and pipelines it with other clients' commits.
    Submitted,
}

impl CommitRoute {
    /// Short name for tables and labels.
    pub fn name(&self) -> &'static str {
        match self {
            CommitRoute::Direct => "direct",
            CommitRoute::Submitted => "submitted",
        }
    }
}

/// Tuning knobs of a transaction session.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Which commit protocol to run.
    pub protocol: CommitProtocol,
    /// Which route commits take (see [`CommitRoute`]).
    pub route: CommitRoute,
    /// Promotion cap (`None` = unlimited, the paper's evaluation setting).
    pub max_promotions: Option<u32>,
    /// Whether Paxos-CP combination is enabled.
    pub combination: bool,
    /// Whether the leader fast path is attempted.
    pub fast_path: bool,
    /// Reply timeout (the paper uses 2 s for loss detection).
    pub message_timeout: SimDuration,
    /// Upper bound of the randomized backoff before re-preparing.
    pub backoff_max: SimDuration,
    /// Extra window Paxos-CP waits for straggler prepare replies when votes
    /// are present (see `paxos::TimerKind::Gather`).
    pub gather_window: SimDuration,
    /// How many times a submitted commit is automatically re-submitted
    /// (same transaction id, freshly resolved group home) after a patience
    /// expiry or an [`AbortReason::Unavailable`] reply before the session
    /// surfaces `Unavailable` to the application. Service-side transaction
    /// id dedup makes the retries exactly-once; `0` disables retries.
    pub max_resubmissions: u32,
    /// Override of the submitted-route patience window (`None` = 8× the
    /// message timeout; see [`ClientConfig::submit_patience`]). Chaos
    /// harnesses shrink it so retries land within their fault windows.
    pub patience: Option<SimDuration>,
}

impl ClientConfig {
    /// Basic Paxos with the paper's timeouts.
    pub fn basic() -> Self {
        ClientConfig {
            protocol: CommitProtocol::BasicPaxos,
            route: CommitRoute::Direct,
            max_promotions: Some(0),
            combination: false,
            fast_path: true,
            message_timeout: SimDuration::from_secs(2),
            backoff_max: SimDuration::from_millis(150),
            gather_window: SimDuration::from_millis(50),
            max_resubmissions: 5,
            patience: None,
        }
    }

    /// Paxos-CP with the paper's evaluation settings (unlimited promotions).
    pub fn cp() -> Self {
        ClientConfig {
            protocol: CommitProtocol::PaxosCp,
            max_promotions: None,
            combination: true,
            fast_path: true,
            ..ClientConfig::basic()
        }
    }

    /// Config for the requested protocol variant.
    pub fn for_protocol(protocol: CommitProtocol) -> Self {
        match protocol {
            CommitProtocol::BasicPaxos => ClientConfig::basic(),
            CommitProtocol::PaxosCp => ClientConfig::cp(),
        }
    }

    /// Builder-style commit-route override.
    pub fn with_route(mut self, route: CommitRoute) -> Self {
        self.route = route;
        self
    }

    /// Builder-style resubmission-budget override.
    pub fn with_max_resubmissions(mut self, n: u32) -> Self {
        self.max_resubmissions = n;
        self
    }

    /// Builder-style patience-window override (see [`ClientConfig::patience`]).
    pub fn with_submit_patience(mut self, patience: SimDuration) -> Self {
        self.patience = Some(patience);
        self
    }

    /// How long a submitted commit waits for its [`Msg::CommitReply`]
    /// before re-submitting (or, once the resubmission budget is spent,
    /// reporting [`AbortReason::Unavailable`]). Generous by default — the
    /// service retries the commit protocol through failovers on the
    /// client's behalf — but bounded, so a crashed group home cannot wedge
    /// the session forever.
    pub fn submit_patience(&self) -> SimDuration {
        self.patience.unwrap_or(SimDuration::from_micros(
            self.message_timeout.as_micros().saturating_mul(8),
        ))
    }

    /// The concrete delay for a proposer timer request — shared by the
    /// session's direct route and the batching committer so their timeout
    /// policies can never diverge.
    pub(crate) fn timer_delay(&self, kind: TimerKind, rng: &mut StdRng) -> SimDuration {
        match kind {
            TimerKind::ReplyTimeout => self.message_timeout,
            TimerKind::Backoff => {
                let max = self.backoff_max.as_micros().max(1);
                SimDuration::from_micros(rng.gen_range(0..max))
            }
            TimerKind::Gather => self.gather_window,
            // Only a group committer's slots re-send (`batch::FAST_RESENDS`).
            // A quarter of the timeout outlasts an outage of a few hundred
            // milliseconds (the rolling-failure scenarios' crashes and
            // flaps last 300–400 ms); after the re-send the round waits the
            // full timeout before it re-prepares.
            TimerKind::Resend => SimDuration::from_micros(self.message_timeout.as_micros() / 4),
        }
    }

    pub(crate) fn proposer_config(&self, num_replicas: usize) -> ProposerConfig {
        let base = match self.protocol {
            CommitProtocol::BasicPaxos => ProposerConfig::basic(num_replicas),
            CommitProtocol::PaxosCp => ProposerConfig::cp(num_replicas),
        };
        base.with_max_promotions(match self.protocol {
            CommitProtocol::BasicPaxos => Some(0),
            CommitProtocol::PaxosCp => self.max_promotions,
        })
        .with_combination(self.combination)
        .with_fast_path(self.fast_path)
    }
}

/// Handle to one open transaction of a [`Session`]. Handles are cheap,
/// `Copy`, unique per session, and become invalid once the transaction
/// finishes (the session then reports [`SessionError::UnknownHandle`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnHandle(u64);

impl TxnHandle {
    /// The raw handle value (stable for the life of the transaction; useful
    /// for embedding actors that key their own per-transaction state or
    /// timer tags by handle).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Outcome of one transaction, as reported to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnResult {
    /// Whether the transaction committed.
    pub committed: bool,
    /// True when the transaction had no writes (read-only transactions
    /// commit locally without touching the log, §2.2).
    pub read_only: bool,
    /// Number of Paxos-CP promotions it went through.
    pub promotions: u32,
    /// Whether it committed inside a combined (multi-transaction) log entry.
    pub combined: bool,
    /// Prepare/accept rounds executed across all positions.
    pub rounds: u32,
    /// Commit-protocol latency: from the `commit` call to the commit/abort
    /// decision (what Figures 4(b) and 5(b) plot). For batched commits this
    /// runs from submission and includes the window wait.
    pub latency: SimDuration,
    /// End-to-end latency: from `begin` to the decision (includes the
    /// application's own operation execution time).
    pub total_latency: SimDuration,
    /// Abort reason when not committed.
    pub abort_reason: Option<AbortReason>,
    /// The id the transaction travelled the log under (`None` for
    /// read-only transactions, which never enter the log). Lets embedding
    /// layers — the Transaction Service routing committer outcomes back to
    /// requesters, or drivers correlating results — identify the member.
    pub txn: Option<TxnId>,
}

/// Effects the embedding actor must carry out on behalf of the session.
#[derive(Clone, Debug)]
pub enum ClientAction {
    /// Send a message to a node.
    Send(NodeId, Msg),
    /// Arm a timer; deliver the tag back via [`Session::on_timer`].
    ArmTimer {
        /// Delay before firing.
        delay: SimDuration,
        /// Tag to echo back.
        tag: u64,
    },
    /// A transaction finished.
    Finished(TxnResult),
}

/// Carry out a batch of [`ClientAction`]s on behalf of the embedding actor:
/// sends go out through `ctx`, timers are armed under the tags the session
/// (or committer) chose, and the outcomes of the transactions that finished
/// are returned for the actor's own bookkeeping.
pub fn apply_client_actions(ctx: &mut Context<Msg>, actions: Vec<ClientAction>) -> Vec<TxnResult> {
    let mut finished = Vec::new();
    for action in actions {
        match action {
            ClientAction::Send(to, msg) => ctx.send(to, msg),
            ClientAction::ArmTimer { delay, tag } => {
                ctx.set_timer(delay, tag);
            }
            ClientAction::Finished(result) => finished.push(result),
        }
    }
    finished
}

/// Errors from misusing the session API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The handle does not name an open transaction (never opened, or
    /// already finished).
    UnknownHandle,
    /// The transaction is already in its commit phase; reads, writes and
    /// repeated commits are rejected.
    CommitInProgress,
    /// The handle is a read-only snapshot transaction (see
    /// [`Session::begin_read_only`]); writes are rejected.
    ReadOnlyTransaction,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            SessionError::UnknownHandle => "no open transaction with this handle",
            SessionError::CommitInProgress => "commit already in progress",
            SessionError::ReadOnlyTransaction => "snapshot transactions cannot write",
        };
        f.write_str(text)
    }
}

impl std::error::Error for SessionError {}

/// Where an open transaction is in its life cycle.
enum Phase {
    /// Executing operations; commit not yet requested.
    Executing,
    /// Commit requested on the direct route, waiting for the group's
    /// in-flight direct commit to finish.
    Queued,
    /// Direct route: the session's proposer host runs this commit.
    Direct,
    /// Submitted route: waiting for the vote copies or the group home's
    /// `CommitReply`, whichever answers first.
    Submitted {
        /// Correlation id of the outstanding `CommitRequest`.
        req_id: u64,
    },
}

struct OpenTxn {
    group: GroupId,
    read_position: LogPosition,
    /// The datacenter holding this transaction's read lease (the home at
    /// `begin` time — re-homing mid-transaction must release there).
    lease_replica: usize,
    reads: Vec<ReadRecord>,
    writes: Vec<WriteRecord>,
    write_index: BTreeMap<ItemRef, String>,
    began_at: SimTime,
    commit_started_at: Option<SimTime>,
    /// The id assigned when the commit was built (None before commit and
    /// for read-only transactions).
    id: Option<TxnId>,
    /// Automatic re-submissions already made for this commit (submitted
    /// route only; the id never changes across attempts).
    submit_attempts: u32,
    /// True for read-only snapshot handles (see
    /// [`Session::begin_read_only`]): reads are served at the watermark
    /// from the serving replica in `lease_replica`, writes are rejected,
    /// and commit closes route-free without ever touching the log.
    snapshot: bool,
    phase: Phase,
}

/// The transaction session: the client library.
pub struct Session {
    node: NodeId,
    home_replica: usize,
    /// Where each group's replica set is found: a simulated cluster's one
    /// directory, or the directory of the parallel-runtime shard owning
    /// the group ([`crate::ShardedCluster::add_session`]).
    replicas: Arc<Shards>,
    config: ClientConfig,
    rng: StdRng,
    seq: u64,
    next_tag: u64,
    next_handle: u64,
    next_req: u64,
    /// Open transactions by raw handle (ordered for determinism).
    open: BTreeMap<u64, OpenTxn>,
    /// The handle driving the in-flight direct commit of each group.
    direct_busy: BTreeMap<GroupId, u64>,
    /// Direct commits waiting for their group's slot, in commit-call order.
    direct_queue: BTreeMap<GroupId, VecDeque<u64>>,
    /// Outstanding submitted commits: request id → raw handle.
    submitted: BTreeMap<u64, u64>,
    /// Armed patience timers of submitted commits: tag → (raw handle,
    /// request id).
    patience: BTreeMap<u64, (u64, u64)>,
    /// Copies of the acceptors' votes on submitted commits, counted until
    /// one value reaches its quorum; keyed by raw handle.
    votes: VoteTally<u64>,
    /// The direct route's running proposers, by raw handle.
    proposers: Proposers<u64>,
    /// Automatic re-submissions performed over the session's lifetime.
    resubmissions: u64,
    /// Back-off timers the direct route armed over the session's lifetime.
    direct_backoffs: u64,
    /// Positions the direct route learned from its home log.
    learned_from_home_log: u64,
}

impl Session {
    /// Create a session running on `node`, homed in the datacenter with
    /// replica index `home_replica`.
    pub fn new(
        node: NodeId,
        home_replica: usize,
        directory: Arc<Directory>,
        config: ClientConfig,
    ) -> Self {
        Session::sharded(node, home_replica, Shards::new(vec![directory]), config)
    }

    /// A session reaching each group through the directory of the shard
    /// owning it.
    pub(crate) fn sharded(
        node: NodeId,
        home_replica: usize,
        replicas: Arc<Shards>,
        config: ClientConfig,
    ) -> Self {
        Session {
            node,
            home_replica,
            replicas,
            config,
            rng: StdRng::seed_from_u64(0x9e37_79b9 ^ node.0 as u64),
            seq: 0,
            next_tag: 0,
            next_handle: 0,
            next_req: 0,
            open: BTreeMap::new(),
            direct_busy: BTreeMap::new(),
            direct_queue: BTreeMap::new(),
            submitted: BTreeMap::new(),
            patience: BTreeMap::new(),
            votes: VoteTally::default(),
            proposers: Proposers::default(),
            resubmissions: 0,
            direct_backoffs: 0,
            learned_from_home_log: 0,
        }
    }

    /// Automatic re-submissions the session has performed (see
    /// [`ClientConfig::max_resubmissions`]).
    pub fn resubmissions(&self) -> u64 {
        self.resubmissions
    }

    /// Randomized back-offs the session's direct commits have armed.
    pub fn direct_backoffs(&self) -> u64 {
        self.direct_backoffs
    }

    /// Positions the session's direct commits resolved from the home
    /// datacenter's log instead of another protocol round.
    pub fn learned_from_home_log(&self) -> u64 {
        self.learned_from_home_log
    }

    /// The datacenter this session currently considers local.
    pub fn home_replica(&self) -> usize {
        self.home_replica
    }

    /// Re-home the session to another datacenter (failover after its local
    /// datacenter became unavailable). Affects transactions begun after the
    /// call; open ones keep their lease where they took it.
    pub fn set_home_replica(&mut self, replica: usize) {
        self.home_replica = replica;
    }

    /// The cluster's shared symbol table (for callers that pre-intern).
    pub fn symbols(&self) -> &Arc<walog::SymbolTable> {
        self.replicas.symbols()
    }

    /// Number of open transactions (executing, queued or committing).
    pub fn open_transactions(&self) -> usize {
        self.open.len()
    }

    /// Whether the handle names an open transaction.
    pub fn is_open(&self, handle: TxnHandle) -> bool {
        self.open.contains_key(&handle.0)
    }

    /// The transaction id assigned to `handle`'s commit, once it has been
    /// submitted (None while the transaction is still executing, or when the
    /// handle is unknown). Embedding harnesses use this to correlate the
    /// eventual [`TxnResult`] with per-transaction bookkeeping of their own.
    pub fn txn_id(&self, handle: TxnHandle) -> Option<TxnId> {
        self.open.get(&handle.0).and_then(|t| t.id)
    }

    /// Whether the transaction is in its commit phase (queued, driving a
    /// proposer, or waiting for a `CommitReply`).
    pub fn committing(&self, handle: TxnHandle) -> bool {
        self.open
            .get(&handle.0)
            .is_some_and(|t| !matches!(t.phase, Phase::Executing))
    }

    /// The core of the session's datacenter in `group`'s replica set.
    fn home_core(&self, group: GroupId) -> SharedCore {
        self.replicas.of(group).core(self.home_replica)
    }

    /// Open a transaction on the named group at simulated time `now`,
    /// interning the name through the cluster symbol table.
    pub fn begin(&mut self, now: SimTime, group: &str) -> TxnHandle {
        let group = self.symbols().group(group);
        self.begin_id(now, group)
    }

    /// Open a transaction on a pre-interned group. The read position is the
    /// local datacenter's latest gap-free log position; the session leases
    /// it so version GC keeps every version the transaction's reads can
    /// need until the commit decision.
    pub fn begin_id(&mut self, now: SimTime, group: GroupId) -> TxnHandle {
        let read_position = {
            let core = self.home_core(group);
            let mut core = core.lock();
            let read_position = core.read_position(group);
            core.begin_read_lease(group, read_position);
            read_position
        };
        self.next_handle += 1;
        let handle = self.next_handle;
        self.open.insert(
            handle,
            OpenTxn {
                group,
                read_position,
                lease_replica: self.home_replica,
                reads: Vec::new(),
                writes: Vec::new(),
                write_index: BTreeMap::new(),
                began_at: now,
                commit_started_at: None,
                id: None,
                submit_attempts: 0,
                snapshot: false,
                phase: Phase::Executing,
            },
        );
        TxnHandle(handle)
    }

    /// Open a **read-only snapshot transaction** on the named group,
    /// interning the name through the cluster symbol table. See
    /// [`Session::begin_read_only_id`].
    pub fn begin_read_only(&mut self, now: SimTime, group: &str) -> TxnHandle {
        let group = self.symbols().group(group);
        self.begin_read_only_id(now, group)
    }

    /// Open a read-only snapshot transaction on a pre-interned group: a
    /// handle whose reads never run Paxos and never abort.
    ///
    /// The session picks a **serving replica** — any datacenter, not just
    /// the group home ([`Directory::snapshot_replica`]; the session's own
    /// datacenter wins, so snapshot reads are local) — and captures that
    /// replica's applied prefix as the handle's **snapshot watermark**.
    /// Every [`Session::read_id`] on the handle is answered at or below
    /// the watermark, and a read lease at the serving replica keeps
    /// version GC from reclaiming anything the snapshot can still observe
    /// until the handle closes. A transaction spanning several groups is a
    /// set of such handles, one per group: together their watermarks form
    /// the per-group applied-prefix *position vector* that bounds the
    /// snapshot's staleness (per-key freshness cannot — see the read-plane
    /// section of `docs/ARCHITECTURE.md`).
    ///
    /// Writing through the handle is rejected with
    /// [`SessionError::ReadOnlyTransaction`]; [`Session::commit`] closes
    /// it immediately, route-free, always committed.
    pub fn begin_read_only_id(&mut self, now: SimTime, group: GroupId) -> TxnHandle {
        self.next_handle += 1;
        let handle = self.next_handle;
        let directory = self.replicas.of(group);
        let serving =
            directory.snapshot_replica(group, self.home_replica, handle, directory.num_replicas());
        let read_position = {
            let core = directory.core(serving);
            let mut core = core.lock();
            let read_position = core.read_position(group);
            core.begin_read_lease(group, read_position);
            read_position
        };
        self.open.insert(
            handle,
            OpenTxn {
                group,
                read_position,
                lease_replica: serving,
                reads: Vec::new(),
                writes: Vec::new(),
                write_index: BTreeMap::new(),
                began_at: now,
                commit_started_at: None,
                id: None,
                submit_attempts: 0,
                snapshot: true,
                phase: Phase::Executing,
            },
        );
        TxnHandle(handle)
    }

    /// The serving replica and snapshot watermark of a read-only handle
    /// (`None` for unknown handles and for regular read/write
    /// transactions). Harnesses use this to assert bounded staleness:
    /// every value the handle observed must be explained by the decided
    /// prefix at or below the watermark.
    pub fn snapshot_watermark(&self, handle: TxnHandle) -> Option<(usize, LogPosition)> {
        self.open
            .get(&handle.0)
            .filter(|t| t.snapshot)
            .map(|t| (t.lease_replica, t.read_position))
    }

    /// Release the read lease a finished transaction held.
    fn release_lease(&self, txn: &OpenTxn) {
        self.replicas
            .of(txn.group)
            .core(txn.lease_replica)
            .lock()
            .end_read_lease(txn.group, txn.read_position);
    }

    /// Read one item of the transaction's group, interning the names.
    pub fn read(
        &mut self,
        handle: TxnHandle,
        key: &str,
        attr: &str,
    ) -> Result<Option<String>, SessionError> {
        let item = self.symbols().item(key, attr);
        self.read_id(handle, item.key, item.attr)
    }

    /// Read one pre-interned item of the transaction's group.
    ///
    /// Reads first consult the transaction's own write set (A1,
    /// read-your-writes); otherwise they are served at the transaction's
    /// read position (A2) from the datacenter holding its read lease — the
    /// session's home for regular transactions, the chosen serving replica
    /// for snapshot handles — and recorded in the read set.
    pub fn read_id(
        &mut self,
        handle: TxnHandle,
        key: KeyId,
        attr: AttrId,
    ) -> Result<Option<String>, SessionError> {
        let txn = self
            .open
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle)?;
        if !matches!(txn.phase, Phase::Executing) {
            return Err(SessionError::CommitInProgress);
        }
        let item = ItemRef::new(key, attr);
        if let Some(value) = txn.write_index.get(&item) {
            return Ok(Some(value.clone()));
        }
        let observed = self
            .replicas
            .of(txn.group)
            .core(txn.lease_replica)
            .lock()
            .read(txn.group, key, attr, txn.read_position)
            .unwrap_or_else(|_gap| {
                // The read position was taken from the local gap-free prefix,
                // so a gap at or below it is impossible; treat defensively as
                // a missing value rather than panicking in release runs.
                debug_assert!(
                    false,
                    "local read below the gap-free prefix cannot need catch-up"
                );
                None
            });
        txn.reads.push(ReadRecord {
            item,
            observed: observed.clone(),
        });
        Ok(observed)
    }

    /// Buffer a write to one item of the transaction's group, interning the
    /// names.
    pub fn write(
        &mut self,
        handle: TxnHandle,
        key: &str,
        attr: &str,
        value: impl Into<String>,
    ) -> Result<(), SessionError> {
        let item = self.symbols().item(key, attr);
        self.write_id(handle, item.key, item.attr, value)
    }

    /// Buffer a write to one pre-interned item of the transaction's group.
    pub fn write_id(
        &mut self,
        handle: TxnHandle,
        key: KeyId,
        attr: AttrId,
        value: impl Into<String>,
    ) -> Result<(), SessionError> {
        let txn = self
            .open
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle)?;
        if txn.snapshot {
            return Err(SessionError::ReadOnlyTransaction);
        }
        if !matches!(txn.phase, Phase::Executing) {
            return Err(SessionError::CommitInProgress);
        }
        let value = value.into();
        let item = ItemRef::new(key, attr);
        txn.write_index.insert(item, value.clone());
        txn.writes.push(WriteRecord { item, value });
        Ok(())
    }

    /// Try to commit a transaction. Read-only transactions finish
    /// immediately; read/write transactions enter the configured
    /// [`CommitRoute`] and finish later via [`ClientAction::Finished`].
    pub fn commit(
        &mut self,
        now: SimTime,
        handle: TxnHandle,
    ) -> Result<Vec<ClientAction>, SessionError> {
        let txn = self
            .open
            .get_mut(&handle.0)
            .ok_or(SessionError::UnknownHandle)?;
        if !matches!(txn.phase, Phase::Executing) {
            return Err(SessionError::CommitInProgress);
        }
        txn.commit_started_at = Some(now);
        if txn.writes.is_empty() {
            let finished = self.open.remove(&handle.0).expect("checked above");
            self.release_lease(&finished);
            return Ok(vec![ClientAction::Finished(TxnResult {
                committed: true,
                read_only: true,
                promotions: 0,
                combined: false,
                rounds: 0,
                latency: SimDuration::ZERO,
                total_latency: now.since(finished.began_at),
                abort_reason: None,
                txn: None,
            })]);
        }
        match self.config.route {
            CommitRoute::Direct => {
                let group = txn.group;
                if self.direct_busy.contains_key(&group) {
                    txn.phase = Phase::Queued;
                    self.direct_queue
                        .entry(group)
                        .or_default()
                        .push_back(handle.0);
                    Ok(Vec::new())
                } else {
                    let mut out = Vec::new();
                    self.start_direct(now, handle.0, &mut out);
                    Ok(out)
                }
            }
            CommitRoute::Submitted => Ok(self.send_submitted(handle.0)),
        }
    }

    /// Build the wire transaction of an open handle, assigning its id on
    /// the first build.
    fn build_transaction(&mut self, handle: u64) -> Transaction {
        let txn = self.open.get_mut(&handle).expect("caller checked");
        let id = *txn.id.get_or_insert_with(|| {
            self.seq += 1;
            TxnId::new(self.node.0, self.seq)
        });
        Transaction::new(
            id,
            txn.group,
            txn.read_position,
            txn.reads.clone(),
            txn.writes.clone(),
        )
    }

    /// Start a direct-route proposer for `handle` (the group slot is free).
    /// A Paxos-CP commit first promotes in-process past the decided
    /// positions of the home log above its snapshot that wrote nothing it
    /// read, and starts at the position the walk stopped at: a gap, where
    /// it claims the fast path as a fresh commit does; an entry that
    /// invalidates it, which the first reply resolves; or the promotion
    /// cap. Basic Paxos (cap 0) starts at the read position + 1.
    fn start_direct(&mut self, now: SimTime, handle: u64, out: &mut Vec<ClientAction>) {
        let transaction = self.build_transaction(handle);
        let group = transaction.group;
        let cfg = self
            .config
            .proposer_config(self.replicas.of(group).num_replicas());
        let read_position = transaction.read_position;
        let through = self
            .home_core(group)
            .lock()
            .log(group)
            .map_or(read_position, |log| {
                log.promotable_through(&transaction, read_position, cfg.max_promotions)
            });
        let skipped = through.0 - read_position.0;
        self.learned_from_home_log += skipped;
        let proposer = Box::new(Proposer::new(
            cfg,
            group,
            self.node.0 as u64,
            vec![transaction],
            through.next(),
            u32::try_from(skipped).unwrap_or(u32::MAX),
        ));
        let txn = self.open.get_mut(&handle).expect("caller checked");
        txn.phase = Phase::Direct;
        self.direct_busy.insert(group, handle);
        self.drive(now, Input::Start(handle, proposer), out);
    }

    /// Re-fire every armed timer — the proposer host's and the patience
    /// timers, in one tag order. After a crash/recovery the simulator has
    /// suppressed any timer that expired during the outage — it will never
    /// fire, which would wedge in-flight commits forever. The embedding
    /// actor calls this from its recovery hook. Early fires are safe: a
    /// reply timeout triggers a (tolerated) extra protocol round, a
    /// patience expiry a deduplicated resubmission, and a timer that later
    /// really fires finds its tag gone and is a no-op.
    pub fn refire_timers(&mut self, now: SimTime) -> Vec<ClientAction> {
        let mut tags: Vec<u64> = self
            .patience
            .keys()
            .copied()
            .chain(self.proposers.armed_tags())
            .collect();
        tags.sort_unstable();
        let mut out = Vec::new();
        for tag in tags {
            out.extend(self.on_timer(now, tag));
        }
        out
    }

    /// Ship `handle`'s finished transaction to the group home's service,
    /// under a fresh request id and a patience timer. The first attempt
    /// assigns the transaction its id. A re-submission keeps that id
    /// (service-side dedup makes the retry exactly-once), resolves the
    /// group home afresh (it may have migrated since the last attempt) and
    /// adds a growing randomized backoff to the patience window.
    fn send_submitted(&mut self, handle: u64) -> Vec<ClientAction> {
        self.next_req += 1;
        let req_id = self.next_req;
        self.submitted.insert(req_id, handle);
        let txn = self.open.get_mut(&handle).expect("caller checked");
        txn.phase = Phase::Submitted { req_id };
        if txn.id.is_some() {
            txn.submit_attempts += 1;
            self.resubmissions += 1;
        }
        let attempts = txn.submit_attempts;
        let transaction = self.build_transaction(handle);
        self.votes.expect(transaction.id, handle);
        let directory = self.replicas.of(transaction.group);
        let service = directory.service_node(directory.group_home(transaction.group));
        self.next_tag += 1;
        let tag = self.next_tag;
        self.patience.insert(tag, (handle, req_id));
        let mut delay = self.config.submit_patience();
        if attempts > 0 {
            let backoff_cap = self
                .config
                .backoff_max
                .as_micros()
                .saturating_mul(attempts as u64)
                .max(1);
            delay += SimDuration::from_micros(self.rng.gen_range(0..backoff_cap));
        }
        vec![
            ClientAction::Send(
                service,
                Msg::CommitRequest {
                    req_id,
                    txn: transaction,
                },
            ),
            ClientAction::ArmTimer { delay, tag },
        ]
    }

    /// Feed an incoming message (commit-protocol or commit-reply traffic)
    /// into the session.
    pub fn on_message(&mut self, now: SimTime, from: NodeId, msg: &Msg) -> Vec<ClientAction> {
        match msg {
            Msg::Paxos(paxos_msg) => {
                // Direct commits are serialized per group, so the message's
                // group routes it to the one proposer that can be waiting
                // for it.
                let Some(&handle) = self.direct_busy.get(&paxos_msg.group()) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                self.drive(now, Input::Reply(handle, from, paxos_msg), &mut out);
                out
            }
            Msg::CommitReply {
                req_id,
                committed,
                promotions,
                combined,
                rounds,
                abort_reason,
                ..
            } => {
                let Some(handle) = self.submitted.remove(req_id) else {
                    return Vec::new();
                };
                // An `Unavailable` reply means the service gave up without
                // a decision; retry while the budget lasts instead of
                // surfacing it.
                if !*committed && *abort_reason == Some(AbortReason::Unavailable) {
                    let attempts = self
                        .open
                        .get(&handle)
                        .map(|t| t.submit_attempts)
                        .unwrap_or(u32::MAX);
                    if attempts < self.config.max_resubmissions {
                        return self.send_submitted(handle);
                    }
                }
                debug_assert!(
                    matches!(
                        self.open.get(&handle).map(|t| &t.phase),
                        Some(Phase::Submitted { req_id: r }) if r == req_id
                    ),
                    "commit reply must match the handle's outstanding request"
                );
                let fate = TxnResult {
                    committed: *committed,
                    read_only: false,
                    promotions: *promotions,
                    combined: *combined,
                    rounds: *rounds,
                    latency: SimDuration::ZERO,
                    total_latency: SimDuration::ZERO,
                    abort_reason: *abort_reason,
                    txn: None,
                };
                vec![self.answer_submitted(now, handle, fate)]
            }
            Msg::VoteCopy {
                group,
                position,
                ballot,
                entry,
                promotions,
            } => {
                let directory = self.replicas.of(*group);
                let Some(voter) = directory.replica_of_service(from) else {
                    return Vec::new();
                };
                let replicas = directory.num_replicas();
                let learned = self.votes.count(
                    voter,
                    replicas,
                    *group,
                    *position,
                    *ballot,
                    entry,
                    *promotions,
                );
                let Some(learned) = learned else {
                    return Vec::new();
                };
                learned
                    .members
                    .iter()
                    .map(|&(_, handle)| self.answer_submitted(now, handle, learned.fate()))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Close the submitted commit `handle` with `fate`: its outstanding
    /// request is settled, so a late reply or patience timer finds nothing.
    fn answer_submitted(&mut self, now: SimTime, handle: u64, fate: TxnResult) -> ClientAction {
        let txn = self
            .open
            .remove(&handle)
            .expect("submitted commits stay open until they are answered");
        if let Phase::Submitted { req_id } = txn.phase {
            self.submitted.remove(&req_id);
        }
        let id = txn.id.expect("a submitted commit has its id");
        self.votes.forget(id);
        self.release_lease(&txn);
        let commit_started = txn.commit_started_at.unwrap_or(txn.began_at);
        ClientAction::Finished(TxnResult {
            latency: now.since(commit_started),
            total_latency: now.since(txn.began_at),
            txn: Some(id),
            ..fate
        })
    }

    /// Feed a timer expiration (tag previously returned in
    /// [`ClientAction::ArmTimer`]) into the session.
    pub fn on_timer(&mut self, now: SimTime, tag: u64) -> Vec<ClientAction> {
        let Some((handle, req_id)) = self.patience.remove(&tag) else {
            let mut out = Vec::new();
            self.drive(now, Input::Timer(tag), &mut out);
            return out;
        };
        // Only meaningful while the reply is still outstanding.
        if self.submitted.get(&req_id) != Some(&handle) {
            return Vec::new();
        }
        self.submitted.remove(&req_id);
        // Patience ran out without a reply: re-submit while the budget
        // lasts — the original request (or its reply) may have been lost to
        // a crash, partition or home migration.
        let attempts = self
            .open
            .get(&handle)
            .map(|t| t.submit_attempts)
            .unwrap_or(u32::MAX);
        if attempts < self.config.max_resubmissions {
            return self.send_submitted(handle);
        }
        let fate = TxnResult {
            committed: false,
            read_only: false,
            promotions: 0,
            combined: false,
            rounds: 0,
            latency: SimDuration::ZERO,
            total_latency: SimDuration::ZERO,
            abort_reason: Some(AbortReason::Unavailable),
            txn: None,
        };
        vec![self.answer_submitted(now, handle, fate)]
    }

    /// Feed the direct route's proposer host, then — after a reply or a
    /// timer — hand the instance every position it competes for that the
    /// home log holds by now. Promotion may land on a position that is
    /// decided too, so this repeats. A start is not followed up: the
    /// decided positions the commit could step over were already skipped
    /// in `start_direct`, and the one it starts at is a gap or an entry
    /// that invalidates it, which its first reply resolves — so `commit`
    /// returns with its transaction still open.
    fn drive(&mut self, now: SimTime, input: Input<'_, u64>, out: &mut Vec<ClientAction>) {
        let key = match &input {
            Input::Reply(key, ..) => Some(*key),
            Input::Timer(tag) => self.proposers.timer_key(*tag),
            Input::Start(..) | Input::Decided(..) => None,
        };
        self.feed(now, input, out);
        let Some(key) = key else {
            return;
        };
        while let Some((group, position)) = self.proposers.competing(&key) {
            let decided = self
                .home_core(group)
                .lock()
                .log(group)
                .and_then(|log| log.get(position))
                .cloned();
            let Some(entry) = decided else {
                break;
            };
            self.learned_from_home_log += 1;
            self.feed(now, Input::Decided(key, position, entry), out);
            debug_assert_ne!(
                self.proposers.competing(&key),
                Some((group, position)),
                "a decided position always resolves"
            );
        }
    }

    /// Feed one input to the proposer host (learned entries install at the
    /// session's datacenter, timers use the session's delay policy), then
    /// finish the commit it decided, if any.
    fn feed(&mut self, now: SimTime, input: Input<'_, u64>, out: &mut Vec<ClientAction>) {
        let key = match &input {
            Input::Start(key, _) | Input::Reply(key, ..) | Input::Decided(key, ..) => Some(*key),
            Input::Timer(tag) => self.proposers.timer_key(*tag),
        };
        let Some(group) = key.and_then(|key| self.open.get(&key)).map(|txn| txn.group) else {
            // The instance finished: a timer it left only disarms.
            if let Input::Timer(tag) = input {
                self.proposers.disarm(tag);
            }
            return;
        };
        let (config, rng, backoffs) = (&self.config, &mut self.rng, &mut self.direct_backoffs);
        let env = Env {
            directory: self.replicas.of(group),
            home: self.home_replica,
            next_tag: &mut self.next_tag,
            delay: &mut |kind| {
                *backoffs += u64::from(kind == TimerKind::Backoff);
                config.timer_delay(kind, rng)
            },
            claim: Claim::AtLeader(self.node.0 as u64),
        };
        if let Some((handle, outcome)) = self.proposers.drive(input, env, out) {
            self.finish_direct(now, handle, outcome, out);
        }
    }

    /// A direct commit finished: report it, release its lease and free the
    /// group's slot for the next queued commit.
    fn finish_direct(
        &mut self,
        now: SimTime,
        handle: u64,
        outcome: CommitOutcome,
        out: &mut Vec<ClientAction>,
    ) {
        let txn = self
            .open
            .remove(&handle)
            .expect("finished implies an open transaction");
        self.release_lease(&txn);
        if self.direct_busy.get(&txn.group) == Some(&handle) {
            self.direct_busy.remove(&txn.group);
        }
        let commit_started = txn.commit_started_at.unwrap_or(txn.began_at);
        out.push(ClientAction::Finished(TxnResult {
            committed: outcome.committed,
            read_only: false,
            promotions: outcome.promotions,
            combined: outcome.combined,
            rounds: outcome.rounds,
            latency: now.since(commit_started),
            total_latency: now.since(txn.began_at),
            abort_reason: outcome.abort_reason,
            txn: txn.id,
        }));
        if let Some(next) = self.pop_queued(txn.group) {
            self.start_direct(now, next, out);
        }
    }

    fn pop_queued(&mut self, group: GroupId) -> Option<u64> {
        let queue = self.direct_queue.get_mut(&group)?;
        let next = queue.pop_front();
        if queue.is_empty() {
            self.direct_queue.remove(&group);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DatacenterCore;
    use paxos::{Ballot, PaxosMsg, ProposerAction};
    use walog::LogEntry;

    fn directory_with_one_dc() -> (Arc<Directory>, SharedCore) {
        let dir = Directory::new();
        let core = DatacenterCore::shared("dc0", 0);
        dir.register_datacenter(NodeId(0), core.clone());
        (dir, core)
    }

    fn seeded_entry(dir: &Directory, core: &SharedCore, position: u64, attr: &str, value: &str) {
        let group = dir.symbols().group("g");
        let txn = Transaction::builder(TxnId::new(0, position), group, LogPosition(position - 1))
            .write(dir.symbols().item("row", attr), value)
            .build();
        core.lock().install_entry(
            group,
            LogPosition(position),
            Arc::new(LogEntry::single(txn)),
        );
    }

    fn register(session: &Session) {
        let directory = session.replicas.of(GroupId(0));
        directory.register_client(session.node, session.home_replica);
    }

    #[test]
    fn begin_read_write_and_read_your_writes() {
        let (dir, core) = directory_with_one_dc();
        seeded_entry(&dir, &core, 1, "a", "committed");
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::cp());
        register(&session);
        let h = session.begin(SimTime::ZERO, "g");
        assert!(session.is_open(h));
        // Read of committed data.
        assert_eq!(
            session.read(h, "row", "a").unwrap().as_deref(),
            Some("committed")
        );
        // Read of never-written data.
        assert_eq!(session.read(h, "row", "b").unwrap(), None);
        // Read-your-writes.
        session.write(h, "row", "b", "mine").unwrap();
        assert_eq!(
            session.read(h, "row", "b").unwrap().as_deref(),
            Some("mine")
        );
    }

    #[test]
    fn multiple_transactions_are_open_concurrently() {
        let (dir, core) = directory_with_one_dc();
        seeded_entry(&dir, &core, 1, "a", "base");
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::cp());
        let h1 = session.begin(SimTime::ZERO, "g");
        let h2 = session.begin(SimTime::ZERO, "g");
        assert_ne!(h1, h2);
        assert_eq!(session.open_transactions(), 2);
        // Writes are isolated per handle: h1's write is invisible to h2.
        session.write(h1, "row", "b", "one").unwrap();
        assert_eq!(
            session.read(h1, "row", "b").unwrap().as_deref(),
            Some("one")
        );
        assert_eq!(session.read(h2, "row", "b").unwrap(), None);
        // Both see the committed store.
        assert_eq!(
            session.read(h2, "row", "a").unwrap().as_deref(),
            Some("base")
        );
    }

    #[test]
    fn read_only_transactions_commit_immediately() {
        let (dir, core) = directory_with_one_dc();
        seeded_entry(&dir, &core, 1, "a", "x");
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::basic());
        let h = session.begin(SimTime::from_micros(10), "g");
        session.read(h, "row", "a").unwrap();
        let actions = session.commit(SimTime::from_micros(30), h).unwrap();
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            ClientAction::Finished(result) => {
                assert!(result.committed);
                assert!(result.read_only);
                assert_eq!(result.latency, SimDuration::ZERO);
                assert_eq!(result.total_latency, SimDuration::from_micros(20));
                assert_eq!(result.txn, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!session.is_open(h));
    }

    #[test]
    fn snapshot_handle_reads_at_its_watermark_and_rejects_writes() {
        let (dir, core) = directory_with_one_dc();
        seeded_entry(&dir, &core, 1, "a", "one");
        let mut session = Session::new(NodeId(5), 0, dir.clone(), ClientConfig::cp());
        let h = session.begin_read_only(SimTime::from_micros(10), "g");
        let (serving, watermark) = session.snapshot_watermark(h).expect("snapshot handle");
        assert_eq!(serving, 0);
        assert_eq!(watermark, LogPosition(1));
        // The watermark pins the view: a commit landing after begin is
        // invisible to the handle.
        seeded_entry(&dir, &core, 2, "a", "two");
        assert_eq!(
            session.read(h, "row", "a").unwrap().as_deref(),
            Some("one"),
            "snapshot reads must observe the watermark, not the latest state"
        );
        // Writes are rejected outright.
        assert_eq!(
            session.write(h, "row", "a", "nope").unwrap_err(),
            SessionError::ReadOnlyTransaction
        );
        // Commit closes route-free, always committed, no wire traffic.
        let actions = session.commit(SimTime::from_micros(40), h).unwrap();
        match &actions[..] {
            [ClientAction::Finished(r)] => {
                assert!(r.committed);
                assert!(r.read_only);
                assert_eq!(r.txn, None);
                assert_eq!(r.total_latency, SimDuration::from_micros(30));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!session.is_open(h));
        assert_eq!(session.snapshot_watermark(h), None);
    }

    #[test]
    fn snapshot_handle_lease_pins_versions_until_commit() {
        let (dir, core) = directory_with_one_dc();
        core.lock().set_gc_horizon(0);
        seeded_entry(&dir, &core, 1, "a", "pinned");
        let mut session = Session::new(NodeId(5), 0, dir.clone(), ClientConfig::cp());
        let h = session.begin_read_only(SimTime::ZERO, "g");
        assert_eq!(core.lock().read_lease_count(), 1);
        // Five newer versions land while the snapshot is open; its view
        // must survive the apply-time GC.
        for p in 2..=6 {
            seeded_entry(&dir, &core, p, "a", "newer");
        }
        assert_eq!(
            session.read(h, "row", "a").unwrap().as_deref(),
            Some("pinned"),
            "version GC must not reclaim under an open snapshot"
        );
        session.commit(SimTime::ZERO, h).unwrap();
        assert_eq!(core.lock().read_lease_count(), 0);
        // With the lease gone the next apply reclaims the old versions.
        let before = core.lock().reclaimed_version_count();
        seeded_entry(&dir, &core, 7, "a", "latest");
        assert!(core.lock().reclaimed_version_count() > before);
    }

    #[test]
    fn regular_and_snapshot_watermark_introspection_do_not_cross() {
        let (dir, core) = directory_with_one_dc();
        seeded_entry(&dir, &core, 1, "a", "x");
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::cp());
        let rw = session.begin(SimTime::ZERO, "g");
        assert_eq!(
            session.snapshot_watermark(rw),
            None,
            "regular handles are not snapshots"
        );
        let ro = session.begin_read_only(SimTime::ZERO, "g");
        assert!(session.snapshot_watermark(ro).is_some());
        // A regular handle keeps accepting writes alongside the snapshot.
        session.write(rw, "row", "a", "1").unwrap();
    }

    #[test]
    fn direct_commit_of_write_transaction_contacts_the_leader() {
        let (dir, _core) = directory_with_one_dc();
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::cp());
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        let actions = session.commit(SimTime::ZERO, h).unwrap();
        // Fast path enabled, and the session's datacenter leads position 1:
        // the claim is granted in-process, so the first action is the fast
        // accept to the leader's service, plus its timer.
        assert!(matches!(
            &actions[0],
            ClientAction::Send(NodeId(0), Msg::Paxos(PaxosMsg::Accept { ballot, .. }))
                if ballot.is_fast()
        ));
        assert!(matches!(actions[1], ClientAction::ArmTimer { .. }));
        assert!(session.committing(h));
        // Operations during commit are rejected.
        assert_eq!(
            session.read(h, "row", "a").unwrap_err(),
            SessionError::CommitInProgress
        );
        assert_eq!(
            session.commit(SimTime::ZERO, h).unwrap_err(),
            SessionError::CommitInProgress
        );
    }

    #[test]
    fn direct_commits_of_one_group_queue_behind_the_in_flight_one() {
        let (dir, _core) = directory_with_one_dc();
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::cp());
        let h1 = session.begin(SimTime::ZERO, "g");
        let h2 = session.begin(SimTime::ZERO, "g");
        session.write(h1, "row", "a", "1").unwrap();
        session.write(h2, "row", "b", "2").unwrap();
        let first = session.commit(SimTime::ZERO, h1).unwrap();
        assert!(!first.is_empty());
        // The second commit queues: no wire actions until the slot frees.
        let second = session.commit(SimTime::ZERO, h2).unwrap();
        assert!(second.is_empty(), "same-group direct commit must queue");
        assert!(session.committing(h2));
        // Complete h1's instance: its claim was granted in-process, so its
        // accept is already out; ack it.
        let (position, ballot) = first
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(
                    _,
                    Msg::Paxos(PaxosMsg::Accept {
                        position, ballot, ..
                    }),
                ) => Some((*position, *ballot)),
                _ => None,
            })
            .expect("accept broadcast");
        let actions = session.on_message(
            SimTime::ZERO,
            NodeId(0),
            &Msg::Paxos(PaxosMsg::AcceptReply {
                group: session.symbols().group("g"),
                position,
                ballot,
                accepted: true,
            }),
        );
        // h1 finished and h2's proposer started in the same action batch.
        assert!(actions
            .iter()
            .any(|a| matches!(a, ClientAction::Finished(r) if r.committed)));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ClientAction::Send(_, Msg::Paxos(PaxosMsg::Accept { position, .. }))
                    if *position == LogPosition(2)
            )),
            "the queued commit must start when the slot frees"
        );
        assert!(!session.is_open(h1));
        assert!(session.committing(h2));
    }

    /// Every commit-protocol message in `actions` of `kind`, as
    /// `(to, position)`.
    fn sends_of(actions: &[ClientAction], kind: &str) -> Vec<(NodeId, LogPosition)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ClientAction::Send(to, Msg::Paxos(msg)) if msg.kind() == kind => {
                    Some((*to, msg.position()))
                }
                _ => None,
            })
            .collect()
    }

    fn timers_of(actions: &[ClientAction]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, ClientAction::ArmTimer { .. }))
            .count()
    }

    #[test]
    fn a_direct_commit_whose_datacenter_leads_the_position_claims_it_without_a_message() {
        let (dir, mut session, h) = stale_session(ClientConfig::cp());
        let group = dir.symbols().group("g");
        assert_eq!(dir.leader_replica(0, group, LogPosition(1)), 0);

        let actions = session.commit(SimTime::ZERO, h).unwrap();
        assert!(sends_of(&actions, "leader_claim").is_empty(), "{actions:?}");
        let position = LogPosition(1);
        assert_eq!(
            sends_of(&actions, "accept"),
            [
                (NodeId(0), position),
                (NodeId(1), position),
                (NodeId(2), position)
            ]
        );
        assert!(actions.iter().all(|a| match a {
            ClientAction::Send(_, Msg::Paxos(PaxosMsg::Accept { ballot, .. })) => ballot.is_fast(),
            _ => true,
        }));
        assert_eq!(timers_of(&actions), 1, "only the accept's timer is armed");
        assert_eq!(session.proposers.armed_tags().count(), 1);
        assert!(session.committing(h));
        assert!(
            !dir.core(0)
                .lock()
                .leader_claim(group, position, u64::from(RIVAL)),
            "the session holds the claim at its datacenter's core"
        );
    }

    #[test]
    fn a_direct_commit_whose_leader_is_elsewhere_sends_its_claim_there() {
        // The rival, whose client is registered at datacenter 2, won
        // position 1; a session at datacenter 0 that read it commits at
        // position 2, which datacenter 2 leads.
        let (dir, ..) = stale_session(ClientConfig::cp());
        rivals(&dir, &[(1, "a")]);
        let group = dir.symbols().group("g");
        let mut session = Session::new(NodeId(6), 0, dir.clone(), ClientConfig::cp());
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "mine").unwrap();

        let actions = session.commit(SimTime::ZERO, h).unwrap();
        let position = LogPosition(2);
        assert_eq!(sends_of(&actions, "leader_claim"), [(NodeId(2), position)]);
        assert!(sends_of(&actions, "accept").is_empty());
        assert_eq!(timers_of(&actions), 1, "the claim's reply timer");
        assert!(
            dir.core(0)
                .lock()
                .leader_claim(group, position, u64::from(RIVAL)),
            "nothing was claimed at the session's own core"
        );
        // The leader's answer starts the fast round.
        let actions = session.on_message(
            SimTime::ZERO,
            NodeId(2),
            &Msg::Paxos(PaxosMsg::LeaderClaimReply {
                group,
                position,
                granted: true,
            }),
        );
        assert_eq!(sends_of(&actions, "accept").len(), 3);
    }

    #[test]
    fn learned_entries_install_even_after_finished_cleared_the_transaction() {
        // Regression: a `Finished` earlier in the same action batch used to
        // clear the active transaction, and the `Learned` that followed was
        // dropped because the group could no longer be resolved — stalling
        // the local read position. The proposer host resolves the group
        // before the batch is processed and the install is unconditional.
        let (dir, core) = directory_with_one_dc();
        let group = dir.symbols().group("g");
        let mut session = Session::new(NodeId(5), 0, dir.clone(), ClientConfig::cp());
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        session.commit(SimTime::ZERO, h).unwrap();
        let learned = Arc::new(LogEntry::single(
            Transaction::builder(TxnId::new(9, 1), group, LogPosition(0))
                .write(dir.symbols().item("row", "w"), "winner")
                .build(),
        ));
        let actions = vec![
            ProposerAction::Finished(CommitOutcome {
                committed: false,
                position: None,
                promotions: 0,
                combined: false,
                rounds: 1,
                abort_reason: Some(AbortReason::Conflict),
                committed_txns: Vec::new(),
                aborted_txns: Vec::new(),
                survivors: Vec::new(),
            }),
            ProposerAction::Learned {
                position: LogPosition(1),
                entry: Arc::clone(&learned),
            },
        ];
        let mut out = Vec::new();
        let Session {
            proposers,
            replicas,
            next_tag,
            ..
        } = &mut session;
        let env = Env {
            directory: replicas.of(group),
            home: 0,
            next_tag,
            delay: &mut |_| SimDuration::ZERO,
            claim: Claim::Never,
        };
        let (handle, outcome) = proposers
            .apply(h.raw(), group, actions, env, &mut out)
            .expect("the Finished action hands the outcome back");
        assert!(!session.proposers.contains(&handle));
        session.finish_direct(SimTime::ZERO, handle, outcome, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, ClientAction::Finished(r) if !r.committed)));
        assert!(
            core.lock().has_entry(group, LogPosition(1)),
            "the learned entry must install even though the transaction is gone"
        );
        assert_eq!(core.lock().read_position(group), LogPosition(1));
    }

    /// Three datacenters whose services are nodes 0, 1 and 2, and a session
    /// at datacenter 0 that read `row.a` (absent) at position 0 and writes
    /// it. A rival client at datacenter 2 wins what `rivals` later installs.
    fn stale_session(config: ClientConfig) -> (Arc<Directory>, Session, TxnHandle) {
        let dir = Directory::new();
        for replica in 0..3 {
            dir.register_datacenter(
                NodeId(replica),
                DatacenterCore::shared(format!("dc{replica}"), replica as usize),
            );
        }
        dir.register_client(NodeId(RIVAL), 2);
        let mut session = Session::new(NodeId(5), 0, dir.clone(), config);
        let h = session.begin(SimTime::ZERO, "g");
        assert_eq!(session.read(h, "row", "a").unwrap(), None);
        session.write(h, "row", "a", "mine").unwrap();
        (dir, session, h)
    }

    /// The rival client of [`stale_session`].
    const RIVAL: u32 = 9;

    /// Install, at datacenter 0, the rival's blind write of `row.<attr>`
    /// at each `(position, attr)`.
    fn rivals(dir: &Directory, won: &[(u64, &str)]) {
        let group = dir.symbols().group("g");
        for &(position, attr) in won {
            let txn = Transaction::builder(
                TxnId::new(RIVAL, position),
                group,
                LogPosition(position - 1),
            )
            .write(dir.symbols().item("row", attr), "rival")
            .build();
            dir.core(0).lock().install_entry(
                group,
                LogPosition(position),
                Arc::new(LogEntry::single(txn)),
            );
        }
    }

    /// The position of the first commit-protocol message in `actions`.
    fn first_position(actions: &[ClientAction]) -> LogPosition {
        actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(_, Msg::Paxos(msg)) => Some(msg.position()),
                _ => None,
            })
            .expect("a commit-protocol message")
    }

    /// A refusal of the first commit-protocol message in `actions`, an
    /// accept or a prepare.
    fn refusal_of(actions: &[ClientAction]) -> PaxosMsg {
        let msg = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(_, Msg::Paxos(msg)) => Some(msg),
                _ => None,
            })
            .expect("a commit-protocol message");
        let (group, position) = (msg.group(), msg.position());
        match msg {
            PaxosMsg::Accept { ballot, .. } => PaxosMsg::AcceptReply {
                group,
                position,
                ballot: *ballot,
                accepted: false,
            },
            PaxosMsg::Prepare { ballot, .. } => PaxosMsg::PrepareReply {
                group,
                position,
                ballot: *ballot,
                promised: false,
                next_bal: Some(Ballot {
                    round: 9,
                    proposer: 1,
                }),
                last_vote: None,
            },
            other => panic!("not an accept or a prepare: {other:?}"),
        }
    }

    #[test]
    fn a_stale_direct_commit_learns_its_lost_position_from_the_home_log_without_backing_off() {
        // The transaction reads at position 0; position 1 is still open when
        // it commits, and a rival's blind write of another attribute is
        // decided there at home while the first round is in flight. The
        // first refused fast accept, or the first refused prepare, must move
        // the commit on to position 2 — not leave it to re-prepare position
        // 1 after a randomized back-off.
        for fast_path in [true, false] {
            let config = ClientConfig {
                fast_path,
                ..ClientConfig::cp()
            };
            let timeout = config.message_timeout;
            let (dir, mut session, h) = stale_session(config);

            let started = session.commit(SimTime::ZERO, h).unwrap();
            assert!(
                session.committing(h),
                "a commit never resolves inside the commit call"
            );
            assert_eq!(first_position(&started), LogPosition(1));
            rivals(&dir, &[(1, "b")]);
            // With the fast path the claim was granted in-process and the
            // fast accept is out; without it, the prepare is.
            let refusal = refusal_of(&started);
            let actions = session.on_message(SimTime::ZERO, NodeId(0), &Msg::Paxos(refusal));
            let prepared: Vec<LogPosition> = actions
                .iter()
                .filter_map(|a| match a {
                    ClientAction::Send(_, Msg::Paxos(PaxosMsg::Prepare { position, .. })) => {
                        Some(*position)
                    }
                    _ => None,
                })
                .collect();
            // A refused round may still send its prepare for position 1
            // first.
            assert_eq!(
                prepared.last(),
                Some(&LogPosition(2)),
                "fast path {fast_path}: promoted at once, got {actions:?}"
            );
            for action in &actions {
                if let ClientAction::ArmTimer { delay, .. } = action {
                    assert_eq!(
                        *delay, timeout,
                        "fast path {fast_path}: a back-off was armed"
                    );
                }
            }
            assert_eq!(session.learned_from_home_log(), 1);
            assert_eq!(session.direct_backoffs(), 0);
        }
    }

    #[test]
    fn a_stale_direct_commit_claims_the_fast_path_past_decided_positions_that_left_its_reads_alone()
    {
        // Positions 1 and 2 are decided at home before the commit starts,
        // and neither wrote `row.a`: the commit promotes past both
        // in-process and claims position 3 from its leader — the datacenter
        // of the client that won position 2 — with no prepare anywhere.
        let (dir, mut session, h) = stale_session(ClientConfig::cp());
        let group = dir.symbols().group("g");
        rivals(&dir, &[(1, "b"), (2, "c")]);
        let leader = dir.service_node(dir.leader_replica(0, group, LogPosition(3)));
        assert_eq!(leader, NodeId(2), "the rival's datacenter leads position 3");

        let started = session.commit(SimTime::ZERO, h).unwrap();
        assert!(
            matches!(
                &started[0],
                ClientAction::Send(to, Msg::Paxos(PaxosMsg::LeaderClaim { position, .. }))
                    if *to == leader && *position == LogPosition(3)
            ),
            "got {started:?}"
        );
        assert!(session.committing(h));
        assert_eq!(session.learned_from_home_log(), 2);
        // The claim is granted and every replica accepts the fast round.
        let mut actions = session.on_message(
            SimTime::ZERO,
            leader,
            &Msg::Paxos(PaxosMsg::LeaderClaimReply {
                group,
                position: LogPosition(3),
                granted: true,
            }),
        );
        let ballot = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(_, Msg::Paxos(PaxosMsg::Accept { ballot, .. })) => Some(*ballot),
                _ => None,
            })
            .expect("accept broadcast");
        for replica in 0..3 {
            actions.extend(session.on_message(
                SimTime::ZERO,
                NodeId(replica),
                &Msg::Paxos(PaxosMsg::AcceptReply {
                    group,
                    position: LogPosition(3),
                    ballot,
                    accepted: true,
                }),
            ));
        }
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                ClientAction::Send(_, Msg::Paxos(PaxosMsg::Prepare { .. }))
            )),
            "no prepare at any position: {actions:?}"
        );
        let result = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Finished(result) => Some(result),
                _ => None,
            })
            .expect("the commit finished");
        assert!(result.committed);
        assert_eq!(result.promotions, 2);
        assert_eq!(dir.core(0).lock().read_position(group), LogPosition(3));
    }

    #[test]
    fn a_stale_direct_commit_stops_at_an_entry_that_invalidates_its_reads() {
        // Position 1 wrote the item the transaction read: nothing is
        // promoted past, the commit starts at position 1 with its
        // transaction open, and its first reply aborts it.
        let (dir, mut session, h) = stale_session(ClientConfig::cp());
        rivals(&dir, &[(1, "a"), (2, "c")]);
        let started = session.commit(SimTime::ZERO, h).unwrap();
        assert_eq!(first_position(&started), LogPosition(1));
        assert!(session.txn_id(h).is_some());
        assert_eq!(session.learned_from_home_log(), 0);
        // Datacenter 0 leads position 1 and refused the claim in-process:
        // the prepare is out.
        assert!(matches!(
            refusal_of(&started),
            PaxosMsg::PrepareReply { .. }
        ));
        let actions =
            session.on_message(SimTime::ZERO, NodeId(0), &Msg::Paxos(refusal_of(&started)));
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ClientAction::Finished(r)
                    if !r.committed && r.abort_reason == Some(AbortReason::Conflict)
            )),
            "got {actions:?}"
        );
        assert!(!session.is_open(h));
    }

    #[test]
    fn basic_paxos_starts_a_direct_commit_at_the_position_after_its_snapshot() {
        let (dir, mut session, h) = stale_session(ClientConfig::basic());
        rivals(&dir, &[(1, "b"), (2, "c")]);
        let started = session.commit(SimTime::ZERO, h).unwrap();
        assert_eq!(first_position(&started), LogPosition(1));
        assert_eq!(session.learned_from_home_log(), 0);
    }

    #[test]
    fn a_log_gap_stops_the_promotion_walk() {
        // Position 2 is not decided at home: the commit promotes past 1
        // only, and competes for 2 even though 3 is decided.
        let (dir, mut session, h) = stale_session(ClientConfig::cp());
        rivals(&dir, &[(1, "b"), (3, "c")]);
        let started = session.commit(SimTime::ZERO, h).unwrap();
        assert_eq!(first_position(&started), LogPosition(2));
        assert_eq!(session.learned_from_home_log(), 1);
    }

    #[test]
    fn the_promotion_cap_bounds_the_walk() {
        // One promotion allowed: the commit skips position 1 and competes
        // for 2; losing 2 exceeds the cap.
        let config = ClientConfig {
            max_promotions: Some(1),
            ..ClientConfig::cp()
        };
        let (dir, mut session, h) = stale_session(config);
        let group = dir.symbols().group("g");
        rivals(&dir, &[(1, "b"), (2, "c")]);
        let started = session.commit(SimTime::ZERO, h).unwrap();
        assert_eq!(first_position(&started), LogPosition(2));
        assert_eq!(session.learned_from_home_log(), 1);
        let actions = session.on_message(
            SimTime::ZERO,
            NodeId(2),
            &Msg::Paxos(PaxosMsg::LeaderClaimReply {
                group,
                position: LogPosition(2),
                granted: false,
            }),
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ClientAction::Finished(r) if !r.committed
                    && r.promotions == 1
                    && r.abort_reason == Some(AbortReason::PromotionLimit)
            )),
            "got {actions:?}"
        );
    }

    #[test]
    fn submitted_commit_ships_to_the_group_home_and_finishes_on_reply() {
        let (dir, _core) = directory_with_one_dc();
        let config = ClientConfig::cp().with_route(CommitRoute::Submitted);
        let mut session = Session::new(NodeId(5), 0, dir.clone(), config);
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        let actions = session.commit(SimTime::from_micros(50), h).unwrap();
        let (req_id, txn_id, group) = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(NodeId(0), Msg::CommitRequest { req_id, txn }) => {
                    Some((*req_id, txn.id, txn.group))
                }
                _ => None,
            })
            .expect("commit request to the group home service");
        assert!(matches!(actions[1], ClientAction::ArmTimer { .. }));
        assert!(session.committing(h));
        let done = session.on_message(
            SimTime::from_micros(950),
            NodeId(0),
            &Msg::CommitReply {
                req_id,
                group,
                txn: txn_id,
                committed: true,
                promotions: 1,
                combined: true,
                rounds: 2,
                abort_reason: None,
            },
        );
        match &done[..] {
            [ClientAction::Finished(r)] => {
                assert!(r.committed);
                assert!(r.combined);
                assert_eq!(r.promotions, 1);
                assert_eq!(r.txn, Some(txn_id));
                assert_eq!(r.latency, SimDuration::from_micros(900));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!session.is_open(h));
    }

    #[test]
    fn a_remote_submitted_commit_is_answered_from_the_vote_copies_before_its_reply() {
        // Three datacenters; the group's home is datacenter 0 and the
        // session lives in datacenter 1. The home's committer proposes the
        // member under a fast ballot, so it is decided once every replica
        // voted: the third distinct copy answers it, a duplicate does not
        // count, and the home's late reply and the patience timer find
        // nothing left to answer.
        let dir = Directory::new();
        for replica in 0..3u32 {
            let core = DatacenterCore::shared(format!("dc{replica}"), replica as usize);
            dir.register_datacenter(NodeId(replica), core);
        }
        let config = ClientConfig::cp().with_route(CommitRoute::Submitted);
        let mut session = Session::new(NodeId(5), 1, dir, config);
        register(&session);
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        let actions = session.commit(SimTime::from_micros(50), h).unwrap();
        let (req_id, txn_id, group) = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(NodeId(0), Msg::CommitRequest { req_id, txn }) => {
                    Some((*req_id, txn.id, txn.group))
                }
                _ => None,
            })
            .expect("commit request to the group home service");
        let tag = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::ArmTimer { tag, .. } => Some(*tag),
                _ => None,
            })
            .expect("patience timer");
        let copy = Msg::VoteCopy {
            group,
            position: LogPosition(1),
            ballot: Ballot::fast(0),
            entry: [TxnId::new(9, 1), txn_id].into(),
            promotions: 1,
        };
        let at = SimTime::from_micros(2_300);
        assert!(session.on_message(at, NodeId(1), &copy).is_empty());
        assert!(session.on_message(at, NodeId(1), &copy).is_empty());
        assert!(session.on_message(at, NodeId(0), &copy).is_empty());
        let done = session.on_message(at, NodeId(2), &copy);
        match &done[..] {
            [ClientAction::Finished(r)] => {
                assert!(r.committed);
                assert!(r.combined, "two transactions share the entry");
                assert_eq!(r.promotions, 1);
                assert_eq!(r.txn, Some(txn_id));
                assert_eq!(r.latency, SimDuration::from_micros(2_250));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!session.is_open(h));
        assert!(!session.votes.holds(txn_id));

        let reply = Msg::CommitReply {
            req_id,
            group,
            txn: txn_id,
            committed: true,
            promotions: 1,
            combined: true,
            rounds: 0,
            abort_reason: None,
        };
        let late = SimTime::from_micros(3_000);
        assert!(session.on_message(late, NodeId(0), &reply).is_empty());
        assert!(session
            .on_timer(SimTime::from_micros(16_000_000), tag)
            .is_empty());
        assert!(session.on_message(late, NodeId(2), &copy).is_empty());
        assert_eq!(session.resubmissions(), 0);
        assert_eq!(session.open_transactions(), 0);
    }

    #[test]
    fn submitted_commit_times_out_as_unavailable() {
        let (dir, _core) = directory_with_one_dc();
        // Retries disabled: patience expiry surfaces `Unavailable` directly.
        let config = ClientConfig::cp()
            .with_route(CommitRoute::Submitted)
            .with_max_resubmissions(0);
        let mut session = Session::new(NodeId(5), 0, dir, config);
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        let actions = session.commit(SimTime::ZERO, h).unwrap();
        let tag = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::ArmTimer { tag, .. } => Some(*tag),
                _ => None,
            })
            .expect("patience timer");
        let done = session.on_timer(SimTime::from_micros(16_000_000), tag);
        match &done[..] {
            [ClientAction::Finished(r)] => {
                assert!(!r.committed);
                assert_eq!(r.abort_reason, Some(AbortReason::Unavailable));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!session.is_open(h));
        assert_eq!(session.open_transactions(), 0);
    }

    #[test]
    fn patience_expiry_resubmits_with_the_same_id_before_giving_up() {
        let (dir, _core) = directory_with_one_dc();
        let config = ClientConfig::cp()
            .with_route(CommitRoute::Submitted)
            .with_max_resubmissions(2);
        let mut session = Session::new(NodeId(5), 0, dir, config);
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        let actions = session.commit(SimTime::ZERO, h).unwrap();
        let first = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(_, Msg::CommitRequest { req_id, txn }) => {
                    Some((*req_id, txn.id))
                }
                _ => None,
            })
            .expect("initial commit request");
        let mut tag = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::ArmTimer { tag, .. } => Some(*tag),
                _ => None,
            })
            .expect("patience timer");
        let mut now = SimTime::from_micros(16_000_000);
        let mut last_req = first.0;
        // Both budgeted retries re-send the SAME transaction id under a
        // fresh request id and re-arm patience.
        for attempt in 1..=2u64 {
            let actions = session.on_timer(now, tag);
            let (req_id, txn_id) = actions
                .iter()
                .find_map(|a| match a {
                    ClientAction::Send(_, Msg::CommitRequest { req_id, txn }) => {
                        Some((*req_id, txn.id))
                    }
                    _ => None,
                })
                .expect("resubmitted commit request");
            assert_eq!(txn_id, first.1, "retries must keep the transaction id");
            assert_ne!(req_id, last_req, "each attempt gets a fresh request id");
            last_req = req_id;
            assert_eq!(session.resubmissions(), attempt);
            assert!(session.committing(h), "still waiting after a resubmit");
            tag = actions
                .iter()
                .find_map(|a| match a {
                    ClientAction::ArmTimer { tag, .. } => Some(*tag),
                    _ => None,
                })
                .expect("re-armed patience timer");
            now += SimDuration::from_secs(17);
        }
        // Budget exhausted: the next expiry surfaces `Unavailable`.
        let done = session.on_timer(now, tag);
        match &done[..] {
            [ClientAction::Finished(r)] => {
                assert!(!r.committed);
                assert_eq!(r.abort_reason, Some(AbortReason::Unavailable));
                assert_eq!(r.txn, Some(first.1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!session.is_open(h));
    }

    #[test]
    fn unavailable_reply_triggers_a_resubmission() {
        let (dir, _core) = directory_with_one_dc();
        let config = ClientConfig::cp()
            .with_route(CommitRoute::Submitted)
            .with_max_resubmissions(1);
        let mut session = Session::new(NodeId(5), 0, dir, config);
        let h = session.begin(SimTime::ZERO, "g");
        session.write(h, "row", "a", "1").unwrap();
        let actions = session.commit(SimTime::ZERO, h).unwrap();
        let (req_id, txn_id, group) = actions
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(_, Msg::CommitRequest { req_id, txn }) => {
                    Some((*req_id, txn.id, txn.group))
                }
                _ => None,
            })
            .expect("commit request");
        let retry = session.on_message(
            SimTime::from_micros(500),
            NodeId(0),
            &Msg::CommitReply {
                req_id,
                group,
                txn: txn_id,
                committed: false,
                promotions: 0,
                combined: false,
                rounds: 0,
                abort_reason: Some(AbortReason::Unavailable),
            },
        );
        assert!(
            retry.iter().any(|a| matches!(
                a,
                ClientAction::Send(_, Msg::CommitRequest { txn, .. }) if txn.id == txn_id
            )),
            "an Unavailable reply must trigger a resubmission, got {retry:?}"
        );
        assert_eq!(session.resubmissions(), 1);
        assert!(session.committing(h));
        // The retry's reply (answered from the service's decided-fate
        // memory) finishes the transaction normally.
        let new_req = retry
            .iter()
            .find_map(|a| match a {
                ClientAction::Send(_, Msg::CommitRequest { req_id, .. }) => Some(*req_id),
                _ => None,
            })
            .expect("retried request id");
        let done = session.on_message(
            SimTime::from_micros(900),
            NodeId(0),
            &Msg::CommitReply {
                req_id: new_req,
                group,
                txn: txn_id,
                committed: true,
                promotions: 0,
                combined: false,
                rounds: 1,
                abort_reason: None,
            },
        );
        assert!(matches!(&done[..], [ClientAction::Finished(r)] if r.committed));
        assert!(!session.is_open(h));
    }

    #[test]
    fn id_fast_paths_match_the_string_api() {
        let (dir, core) = directory_with_one_dc();
        seeded_entry(&dir, &core, 1, "a", "seeded");
        let group = dir.symbols().group("g");
        let item = dir.symbols().item("row", "a");
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::cp());
        let h = session.begin_id(SimTime::ZERO, group);
        assert_eq!(
            session.read_id(h, item.key, item.attr).unwrap().as_deref(),
            Some("seeded")
        );
        session.write_id(h, item.key, item.attr, "next").unwrap();
        // Read-your-writes through the string API sees the id-written value.
        assert_eq!(
            session.read(h, "row", "a").unwrap().as_deref(),
            Some("next")
        );
    }

    #[test]
    fn unknown_handles_are_rejected() {
        let (dir, _core) = directory_with_one_dc();
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::basic());
        let h = session.begin(SimTime::ZERO, "g");
        let actions = session.commit(SimTime::ZERO, h).unwrap();
        assert_eq!(actions.len(), 1, "read-only commit finishes immediately");
        // The handle is dead now.
        assert_eq!(
            session.read(h, "row", "a").unwrap_err(),
            SessionError::UnknownHandle
        );
        assert_eq!(
            session.write(h, "row", "a", "1").unwrap_err(),
            SessionError::UnknownHandle
        );
        assert_eq!(
            session.commit(SimTime::ZERO, h).unwrap_err(),
            SessionError::UnknownHandle
        );
    }

    #[test]
    fn rehoming_changes_the_local_datacenter() {
        let dir = Directory::new();
        let core0 = DatacenterCore::shared("dc0", 0);
        let core1 = DatacenterCore::shared("dc1", 1);
        dir.register_datacenter(NodeId(0), core0);
        dir.register_datacenter(NodeId(1), core1.clone());
        seeded_entry(&dir, &core1, 1, "a", "dc1-value");
        let mut session = Session::new(NodeId(5), 0, dir, ClientConfig::basic());
        assert_eq!(session.home_replica(), 0);
        session.set_home_replica(1);
        let h = session.begin(SimTime::ZERO, "g");
        assert_eq!(
            session.read(h, "row", "a").unwrap().as_deref(),
            Some("dc1-value")
        );
    }
}
