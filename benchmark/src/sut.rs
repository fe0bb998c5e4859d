//! The system under test, driven from outside through its public API. This
//! is the only file of the benchmark that names a type of the repository's
//! crates: when one of their interfaces changes, this file is what adapts.
//!
//! It holds the benchmark's one load actor (arrival process × operation
//! mix, written against `mdstore::Session` on the simulated runtime and
//! against the wire messages on the parallel runtime), the two cluster
//! harnesses, the correctness gates every run must pass, and the layer
//! replay the per-layer timings come from.

use crate::inputs::{Arrival, LoadSpec, OpPlan, Plan, TxnPlan};
use crate::tally::{ReadSample, Tally};
use crate::trace::Tracer;
use mdstore::datacenter::SharedCore;
use mdstore::{
    AbortReason, ClientAction, Cluster, ClusterConfig, CommitProtocol, CommitRoute, DurableConfig,
    Msg, ParallelCluster, ParallelClusterConfig, Session, StorageConfig, Topology, TxnHandle,
};
use paxos::{AcceptorStore, Ballot};
use simnet::{
    Actor, ChaosEvent, ChaosSchedule, ChaosSpec, Context, NetworkConfig, NodeId, ParallelRuntime,
    SimDuration, Simulation, SiteId,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use storage::{DcStorage, GroupSnapshot, SnapshotRow, SnapshotStore, WalRecord};
use walog::{
    AttrId, GroupId, GroupLog, ItemRef, KeyId, LogEntry, LogPosition, SymbolTable, Transaction,
    TxnId,
};

/// Which runtime executes the cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Runtime {
    /// The deterministic single-threaded simulation: latencies are simulated
    /// time, wall time is processor cost.
    Simnet,
    /// OS worker threads, one full replica set each; simulated latencies
    /// become real delays scaled by `rtt_scale`.
    Parallel { workers: usize, rtt_scale: f64 },
}

/// One workload's system configuration and offered load.
#[derive(Clone, Debug)]
pub struct SutSpec {
    /// Paper-style cluster name: one letter per datacenter (`VVV`, `VOC`).
    pub topology: &'static str,
    pub runtime: Runtime,
    /// `CommitRoute::Direct` (the client drives its own proposer) instead of
    /// `CommitRoute::Submitted` (the group home's commit engine batches).
    pub direct_route: bool,
    /// `StorageConfig::Durable` at its defaults instead of in-memory.
    pub durable: bool,
    /// Inject the rolling-failure schedule (simulated runtime, durable only).
    pub rolling_faults: bool,
    /// Row names the keyspace is factored over: key `k` is attribute
    /// `k / rows` of row `k % rows`.
    pub rows: u64,
    pub load: LoadSpec,
}

/// Counters read from the system's public accessors after a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Events the runtime processed (messages delivered + timers fired).
    pub events: u64,
    pub msgs_sent: u64,
    pub backpressure: u64,
    pub window_occupancy_mean: f64,
    pub max_pipeline_depth: u32,
    pub batch_splits: u64,
    pub stale_member_aborts: u64,
    pub duplicate_suppressions: u64,
    pub expired_reads: u64,
    pub reclaimed_versions: u64,
    /// Committed transactions and the Paxos instances that carried them, in
    /// the first replica's logs (undercounts behind a truncation floor).
    pub logged_txns: u64,
    pub logged_instances: u64,
    pub syncs: u64,
    pub records_synced: u64,
    pub sync_failures: u64,
    pub snapshots_written: u64,
    pub segments_on_disk: u64,
    pub disk_bytes_end: u64,
    pub restarts: u64,
    pub faults_injected: u64,
    pub leaked_leases: u64,
}

impl Counters {
    /// The commit engines' own counters, merged over every service.
    fn fold_service(&mut self, service: &mdstore::RunMetrics) {
        self.window_occupancy_mean = service.mean_window_occupancy();
        self.max_pipeline_depth = service.max_pipeline_depth();
        self.batch_splits = service.batch_splits;
        self.stale_member_aborts = service.stale_member_aborts;
        self.duplicate_suppressions = service.duplicate_suppressions;
    }
}

/// Everything one repetition of a workload produced.
pub struct Rep {
    pub tally: Tally,
    pub counters: Counters,
    /// Wall seconds of the load and drain phases (verify excluded).
    pub run_s: f64,
    /// Processor seconds (user + system, all threads) of the same phases.
    pub cpu_s: f64,
    pub verify_s: f64,
    /// Wall milliseconds of each restart-from-disk.
    pub restart_ms: Vec<f64>,
    /// Decided non-noop entries of the first replica, for the layer replay.
    pub artefacts: Vec<(GroupId, LogPosition, Arc<LogEntry>)>,
}

/// A scratch directory under the benchmark's own `out/`, removed on drop —
/// so also when a run panics and unwinds.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(root: &Path, label: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("scratch-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("the benchmark's out/ directory must be writable");
        Scratch(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Interned ids of every name a workload touches, resolved once in set-up.
struct Names {
    groups: Vec<GroupId>,
    rows: Vec<KeyId>,
    attrs: Vec<AttrId>,
    /// Size of each group's keyspace.
    keys: u64,
}

impl Names {
    fn intern(symbols: &SymbolTable, spec: &SutSpec) -> Names {
        let keys = spec.load.keys.n();
        let rows_n = spec.rows.clamp(1, keys);
        Names {
            keys,
            groups: (0..spec.load.groups)
                .map(|g| symbols.group(&format!("g{g}")))
                .collect(),
            rows: (0..rows_n).map(|r| symbols.key(&format!("r{r}"))).collect(),
            attrs: (0..keys.div_ceil(rows_n))
                .map(|a| symbols.attr(&format!("a{a}")))
                .collect(),
        }
    }

    fn item(&self, key: u64) -> ItemRef {
        let rows = self.rows.len() as u64;
        ItemRef::new(
            self.rows[(key % rows) as usize],
            self.attrs[(key / rows) as usize],
        )
    }
}

/// Keys per group given an initial value in set-up (the hottest ranks).
const PRELOAD_KEYS: u64 = 256;

/// Set-up's initial data for one group: a single bulk-load transaction
/// writing a value to the hottest keys, installed at the first log position
/// of every replica (a restored data set; consensus starts above it). Only
/// workloads that read need any — blind writes never see it, and leaving it
/// out keeps the durable workloads' set-up free of WAL syncs.
fn preload(spec: &LoadSpec, names: &Names, group_index: usize, cores: &[SharedCore]) {
    if spec.mix.snapshot_share == 0.0 && spec.mix.read_share == 0.0 {
        return;
    }
    let group = names.groups[group_index];
    let mut txn = Transaction::builder(
        TxnId::new(u32::MAX, group_index as u64),
        group,
        LogPosition::ZERO,
    );
    for key in 0..names.keys.min(PRELOAD_KEYS) {
        txn = txn.write(names.item(key), format!("init-{key}"));
    }
    let entry = Arc::new(LogEntry::single(txn.build()));
    for core in cores {
        core.lock()
            .install_entry(group, LogPosition(1), Arc::clone(&entry));
    }
}

// ---------------------------------------------------------------------------
// The load actor
// ---------------------------------------------------------------------------

/// The actor's own arrival clock (session timer tags count up from 1).
const ARRIVAL_TAG: u64 = u64::MAX;
/// `OP_TAG_BASE + handle` runs the next operation of an open transaction.
const OP_TAG_BASE: u64 = u64::MAX >> 1;

/// A read/write transaction between `begin` and `commit` (session port).
struct Executing {
    handle: TxnHandle,
    ops: Vec<OpPlan>,
    next_op: usize,
    /// Whether the execution delay of `ops[next_op]` has already elapsed.
    waited: bool,
    group: u32,
    /// Scheduled arrival (open loop); replaced by the commit call's instant
    /// in closed loop, where latency is submit → reply.
    origin_us: u64,
}

/// A transaction whose commit decision is outstanding.
struct Committing {
    group: u32,
    origin_us: u64,
    reads: u64,
    writes: u64,
}

/// Where one group's wire requests go on the parallel runtime.
struct WireTarget {
    group: GroupId,
    home_service: NodeId,
    home_core: SharedCore,
    services: Vec<NodeId>,
    cores: Vec<SharedCore>,
}

struct PendingRead {
    issued_us: u64,
    group: u32,
    replica: usize,
    at: LogPosition,
    item: ItemRef,
}

/// How operations reach the system.
enum Port {
    /// The client library, on the simulated runtime.
    Session {
        session: Box<Session>,
        executing: HashMap<u64, Executing>,
        committing: HashMap<TxnId, Committing>,
    },
    /// `Msg::CommitRequest` / `Msg::SnapshotRead` built directly, on the
    /// parallel runtime (whose shards expose services and cores, not a
    /// directory a session could be built on).
    Wire {
        targets: Arc<Vec<WireTarget>>,
        seq: u64,
        commits: HashMap<u64, Committing>,
        reads: HashMap<u64, PendingRead>,
    },
}

/// The benchmark's load generator: one type for every workload,
/// parameterised by arrival process × operation mix.
struct LoadActor {
    port: Port,
    /// The actor's whole input, generated in set-up so that the measured
    /// phase holds none of the generator's work.
    plan: std::vec::IntoIter<TxnPlan>,
    next: Option<TxnPlan>,
    arrival: Arrival,
    /// Open loop: the next scheduled arrival. Closed loop: the earliest
    /// instant the next transaction may start.
    next_due_us: u64,
    /// The instant the arrival timer is armed for, if it is.
    armed_for: Option<u64>,
    in_flight: usize,
    names: Arc<Names>,
    tally: Arc<Mutex<Tally>>,
    /// Traced runs stamp every commit with the wall clock.
    wall_epoch: Option<Instant>,
    /// Counts actors that have offered their whole plan / seen every outcome.
    offered_all: Arc<AtomicUsize>,
    finished_all: Arc<AtomicUsize>,
    reported_offered: bool,
    reported_finished: bool,
}

impl LoadActor {
    fn max_open(&self) -> usize {
        match self.arrival {
            Arrival::Closed { max_open, .. } => max_open,
            Arrival::Open { .. } => usize::MAX,
        }
    }

    fn with_tally<R>(&self, f: impl FnOnce(&mut Tally) -> R) -> R {
        f(&mut self
            .tally
            .lock()
            .expect("no load actor panics while holding its tally"))
    }

    /// Start every transaction that is due and allowed, then arm the clock
    /// for the next one.
    fn issue_due(&mut self, ctx: &mut Context<Msg>) {
        let now_us = ctx.now().as_micros();
        while self.next.is_some() && self.in_flight < self.max_open() && self.next_due_us <= now_us
        {
            let txn = self.next.take().expect("checked above");
            let due_us = self.next_due_us;
            self.next = self.plan.next();
            if let Some(next) = &self.next {
                self.next_due_us = match self.arrival {
                    Arrival::Open { .. } => due_us + next.gap_us,
                    Arrival::Closed { .. } => now_us + next.gap_us,
                };
            }
            self.in_flight += 1;
            let late_us = match self.arrival {
                Arrival::Open { .. } => now_us - due_us,
                Arrival::Closed { .. } => 0,
            };
            let read_write = u64::from(!txn.snapshot_read);
            self.with_tally(|t| {
                t.attempted += 1;
                t.rw_attempted += read_write;
                t.max_late_us = t.max_late_us.max(late_us);
            });
            self.start(ctx, txn, due_us);
        }
        if self.next.is_none() && !self.reported_offered {
            self.reported_offered = true;
            self.offered_all.fetch_add(1, Ordering::SeqCst);
        }
        self.note_if_finished();
        if self.next.is_some()
            && self.in_flight < self.max_open()
            && self.armed_for != Some(self.next_due_us)
        {
            self.armed_for = Some(self.next_due_us);
            let delay = self.next_due_us.saturating_sub(now_us).max(1);
            ctx.set_timer(SimDuration::from_micros(delay), ARRIVAL_TAG);
        }
    }

    fn note_if_finished(&mut self) {
        if self.next.is_none() && self.in_flight == 0 && !self.reported_finished {
            self.reported_finished = true;
            self.finished_all.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn start(&mut self, ctx: &mut Context<Msg>, txn: TxnPlan, due_us: u64) {
        let now = ctx.now();
        let group = txn.group as u32;
        let group_id = self.names.groups[txn.group];
        let origin_us = match self.arrival {
            Arrival::Open { .. } => due_us,
            Arrival::Closed { .. } => now.as_micros(),
        };
        let names = &self.names;
        match &mut self.port {
            Port::Session {
                session, executing, ..
            } => {
                assert!(
                    !txn.snapshot_read,
                    "snapshot reads are offered on the wire port only"
                );
                let handle = session.begin_id(now, group_id);
                executing.insert(
                    handle.raw(),
                    Executing {
                        handle,
                        ops: txn.ops,
                        next_op: 0,
                        waited: false,
                        group,
                        origin_us,
                    },
                );
                self.advance(ctx, handle.raw());
            }
            Port::Wire {
                targets,
                seq,
                commits,
                reads,
            } => {
                *seq += 1;
                let req_id = *seq;
                let target = &targets[txn.group];
                if txn.snapshot_read {
                    let item = names.item(txn.ops[0].key);
                    // Spread reads over every replica of the owning shard;
                    // the watermark and its read lease are taken from the
                    // serving replica under one lock.
                    let replica = (req_id % target.cores.len() as u64) as usize;
                    let home = target.home_core.lock().read_position(group_id);
                    let at = {
                        let mut core = target.cores[replica].lock();
                        let at = core.read_position(group_id);
                        core.begin_read_lease(group_id, at);
                        at
                    };
                    let lag = home.0.saturating_sub(at.0);
                    reads.insert(
                        req_id,
                        PendingRead {
                            issued_us: origin_us,
                            group,
                            replica,
                            at,
                            item,
                        },
                    );
                    ctx.send(
                        target.services[replica],
                        Msg::SnapshotRead {
                            req_id,
                            group: group_id,
                            key: item.key,
                            attr: item.attr,
                            at,
                        },
                    );
                    self.with_tally(|t| {
                        t.staleness_sum += lag;
                        t.staleness_max = t.staleness_max.max(lag);
                    });
                } else {
                    let read_position = target.home_core.lock().read_position(group_id);
                    let mut builder = Transaction::builder(
                        TxnId::new(ctx.node().0, req_id),
                        group_id,
                        read_position,
                    );
                    for (i, op) in txn.ops.iter().enumerate() {
                        assert!(
                            op.write,
                            "the wire port offers blind writes and snapshot reads"
                        );
                        builder = builder.write(names.item(op.key), format!("w{req_id}-{i}"));
                    }
                    commits.insert(
                        req_id,
                        Committing {
                            group,
                            origin_us,
                            reads: 0,
                            writes: txn.ops.len() as u64,
                        },
                    );
                    ctx.send(
                        target.home_service,
                        Msg::CommitRequest {
                            req_id,
                            txn: builder.build(),
                        },
                    );
                }
            }
        }
    }

    /// Session port: run the open transaction's operations whose execution
    /// delay has elapsed, then commit it.
    fn advance(&mut self, ctx: &mut Context<Msg>, raw: u64) {
        let names = &self.names;
        let Port::Session {
            session,
            executing,
            committing,
        } = &mut self.port
        else {
            return;
        };
        let Some(txn) = executing.get_mut(&raw) else {
            return;
        };
        while let Some(op) = txn.ops.get(txn.next_op).copied() {
            if op.delay_us > 0 && !txn.waited {
                ctx.set_timer(SimDuration::from_micros(op.delay_us), OP_TAG_BASE + raw);
                return;
            }
            let item = names.item(op.key);
            if op.write {
                let value = format!("w{}-{raw}-{}", ctx.node().0, txn.next_op);
                session
                    .write_id(txn.handle, item.key, item.attr, value)
                    .expect("write inside an open transaction");
            } else {
                session
                    .read_id(txn.handle, item.key, item.attr)
                    .expect("read inside an open transaction");
            }
            txn.next_op += 1;
            txn.waited = false;
        }
        let txn = executing.remove(&raw).expect("present above");
        let now = ctx.now();
        let writes = txn.ops.iter().filter(|op| op.write).count() as u64;
        let origin_us = match self.arrival {
            Arrival::Open { .. } => txn.origin_us,
            Arrival::Closed { .. } => now.as_micros(),
        };
        let actions = session
            .commit(now, txn.handle)
            .expect("commit of an executing transaction");
        let id = session
            .txn_id(txn.handle)
            .expect("a commit with writes is assigned its id at once (one direct commit per group at a time)");
        committing.insert(
            id,
            Committing {
                group: txn.group,
                origin_us,
                reads: txn.ops.len() as u64 - writes,
                writes,
            },
        );
        self.apply(ctx, actions);
    }

    fn apply(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        for action in actions {
            match action {
                ClientAction::Send(to, msg) => ctx.send(to, msg),
                ClientAction::ArmTimer { delay, tag } => {
                    ctx.set_timer(delay, tag);
                }
                ClientAction::Finished(result) => {
                    let Port::Session {
                        session,
                        committing,
                        ..
                    } = &mut self.port
                    else {
                        unreachable!("only the session port produces client actions");
                    };
                    let id = result
                        .txn
                        .expect("every offered transaction writes, so it has an id");
                    let done = committing
                        .remove(&id)
                        .expect("an outcome for a transaction we committed");
                    let resubmissions = session.resubmissions();
                    self.finish_commit(
                        ctx,
                        id,
                        done,
                        result.committed,
                        result.promotions,
                        result.combined,
                        result.abort_reason,
                    );
                    self.with_tally(|t| t.resubmissions = resubmissions);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_commit(
        &mut self,
        ctx: &mut Context<Msg>,
        id: TxnId,
        done: Committing,
        committed: bool,
        promotions: u32,
        combined: bool,
        abort_reason: Option<AbortReason>,
    ) {
        let now_us = ctx.now().as_micros();
        let wall_ns = self
            .wall_epoch
            .map(|epoch| epoch.elapsed().as_nanos() as u64);
        self.in_flight -= 1;
        self.with_tally(|t| {
            if committed {
                t.committed += 1;
                t.reads_done += done.reads;
                t.writes_done += done.writes;
                t.commit_latency_us
                    .push(now_us.saturating_sub(done.origin_us));
                t.commit_at.push((done.group, now_us));
                t.committed_ids.push((done.group, id.client, id.seq));
                t.record_commit(promotions, combined);
                if let Some(ns) = wall_ns {
                    t.commit_wall_ns.push(ns);
                }
            } else if matches!(
                abort_reason,
                Some(AbortReason::Conflict | AbortReason::PromotionLimit)
            ) {
                t.aborted += 1;
            } else {
                t.failed += 1;
            }
        });
        self.issue_due(ctx);
    }
}

impl Actor<Msg> for LoadActor {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.issue_due(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        let now = ctx.now();
        match &mut self.port {
            Port::Session { session, .. } => {
                let actions = session.on_message(now, from, &msg);
                self.apply(ctx, actions);
            }
            Port::Wire {
                targets,
                commits,
                reads,
                ..
            } => match msg {
                Msg::CommitReply {
                    req_id,
                    txn,
                    committed,
                    promotions,
                    combined,
                    abort_reason,
                    ..
                } => {
                    if let Some(done) = commits.remove(&req_id) {
                        self.finish_commit(
                            ctx,
                            txn,
                            done,
                            committed,
                            promotions,
                            combined,
                            abort_reason,
                        );
                    }
                }
                Msg::SnapshotReadReply {
                    req_id,
                    value,
                    unavailable,
                    ..
                } => {
                    let Some(read) = reads.remove(&req_id) else {
                        return;
                    };
                    let target = &targets[read.group as usize];
                    target.cores[read.replica]
                        .lock()
                        .end_read_lease(target.group, read.at);
                    let latency_us = now.as_micros().saturating_sub(read.issued_us);
                    self.in_flight -= 1;
                    self.with_tally(|t| {
                        if unavailable {
                            t.failed += 1;
                        } else {
                            t.reads_done += 1;
                            t.read_latency_us.push(latency_us);
                            t.read_samples.push(ReadSample {
                                group: read.group,
                                at: read.at.0,
                                item: read.item.packed(),
                                observed: value,
                            });
                        }
                    });
                    self.issue_due(ctx);
                }
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == ARRIVAL_TAG {
            self.armed_for = None;
            self.issue_due(ctx);
        } else if tag >= OP_TAG_BASE {
            let raw = tag - OP_TAG_BASE;
            if let Port::Session { executing, .. } = &mut self.port {
                if let Some(txn) = executing.get_mut(&raw) {
                    txn.waited = true;
                }
            }
            self.advance(ctx, raw);
        } else if let Port::Session { session, .. } = &mut self.port {
            let actions = session.on_timer(ctx.now(), tag);
            self.apply(ctx, actions);
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>) {
        // Timers that came due while this actor's site was down never fire:
        // re-fire the session's (patience → deduplicated re-submission) and
        // catch the arrival clock up, so requests that were due during the
        // outage are offered now and charged from their scheduled instant.
        if let Port::Session { session, .. } = &mut self.port {
            let actions = session.refire_timers(ctx.now());
            self.apply(ctx, actions);
        }
        self.armed_for = None;
        self.issue_due(ctx);
    }
}

/// Shared bookkeeping of one run's load actors.
struct LoadFleet {
    tallies: Vec<Arc<Mutex<Tally>>>,
    offered_all: Arc<AtomicUsize>,
    finished_all: Arc<AtomicUsize>,
    actors: usize,
    /// Transactions the whole fleet is to offer.
    planned: u64,
}

impl LoadFleet {
    fn new(spec: &LoadSpec) -> LoadFleet {
        LoadFleet {
            tallies: Vec::new(),
            offered_all: Arc::new(AtomicUsize::new(0)),
            finished_all: Arc::new(AtomicUsize::new(0)),
            actors: spec.actors,
            planned: (spec.actors * spec.txns_per_actor) as u64,
        }
    }

    fn actor(
        &mut self,
        spec: &LoadSpec,
        seed: u64,
        index: usize,
        port: Port,
        names: &Arc<Names>,
        traced: Option<Instant>,
    ) -> LoadActor {
        let tally = Arc::new(Mutex::new(Tally::default()));
        self.tallies.push(Arc::clone(&tally));
        let mut plan = Plan::new(spec, seed, index)
            .collect::<Vec<TxnPlan>>()
            .into_iter();
        let next = plan.next();
        let first_gap = next.as_ref().map_or(0, |txn| txn.gap_us);
        LoadActor {
            port,
            plan,
            next,
            arrival: spec.arrival,
            next_due_us: index as u64 * spec.stagger_us
                + match spec.arrival {
                    Arrival::Open { .. } => first_gap,
                    Arrival::Closed { .. } => 0,
                },
            armed_for: None,
            in_flight: 0,
            names: Arc::clone(names),
            tally,
            wall_epoch: traced,
            offered_all: Arc::clone(&self.offered_all),
            finished_all: Arc::clone(&self.finished_all),
            reported_offered: false,
            reported_finished: false,
        }
    }

    fn all_offered(&self) -> bool {
        self.offered_all.load(Ordering::SeqCst) >= self.actors
    }

    /// Collect the actors' observations (they have stopped; this empties
    /// their tallies). Whatever is still unanswered counts as failed.
    fn merged(&self) -> Tally {
        let mut total = Tally::default();
        for tally in &self.tallies {
            total.merge(std::mem::take(
                &mut *tally.lock().expect("load actors have stopped"),
            ));
        }
        let answered =
            total.committed + total.aborted + total.failed + total.read_latency_us.len() as u64;
        total.failed += total.attempted - answered;
        // Anything never offered before the deadline failed too.
        total.failed += self.planned - total.attempted;
        total.attempted = self.planned;
        total
    }
}

// ---------------------------------------------------------------------------
// Harnesses
// ---------------------------------------------------------------------------

fn topology(name: &str) -> Topology {
    Topology::from_name(name).expect("workload topologies are paper-style names")
}

/// A workload set up and ready to be offered its first operation.
pub struct Prepared {
    spec: SutSpec,
    names: Arc<Names>,
    fleet: LoadFleet,
    stage: Stage,
}

enum Stage {
    Sim {
        cluster: Box<Cluster>,
        scratch: Option<Scratch>,
    },
    Par {
        cluster: Box<ParallelCluster>,
        targets: Arc<Vec<WireTarget>>,
    },
}

/// Set a workload up: build the cluster (and its storage directories),
/// intern every name, place the load actors. `traced` makes the actors
/// stamp each commit with the wall clock.
pub fn prepare(spec: &SutSpec, seed: u64, scratch_root: &Path, traced: bool) -> Prepared {
    let traced = traced.then(Instant::now);
    let mut fleet = LoadFleet::new(&spec.load);
    match spec.runtime {
        Runtime::Simnet => {
            let scratch = spec.durable.then(|| Scratch::new(scratch_root, "dc"));
            let storage = match &scratch {
                Some(dir) => StorageConfig::Durable(DurableConfig::new(dir.path())),
                None => StorageConfig::InMemory,
            };
            let mut cluster = Cluster::build(
                ClusterConfig::new(topology(spec.topology), CommitProtocol::PaxosCp)
                    .with_seed(seed)
                    .with_storage(storage),
            );
            let names = Arc::new(Names::intern(&cluster.symbols(), spec));
            let cores: Vec<SharedCore> = (0..cluster.num_datacenters())
                .map(|replica| cluster.core(replica))
                .collect();
            for index in 0..names.groups.len() {
                preload(&spec.load, &names, index, &cores);
            }
            add_session_actors(&mut cluster, spec, seed, &names, &mut fleet, traced);
            Prepared {
                spec: spec.clone(),
                names,
                fleet,
                stage: Stage::Sim {
                    cluster: Box::new(cluster),
                    scratch,
                },
            }
        }
        Runtime::Parallel { workers, rtt_scale } => {
            assert!(
                !spec.durable && !spec.rolling_faults,
                "the parallel runtime has no storage and no fault injection"
            );
            let mut cluster = ParallelCluster::build(
                ParallelClusterConfig::new(topology(spec.topology), CommitProtocol::PaxosCp)
                    .with_workers(workers)
                    .with_rtt_scale(rtt_scale)
                    .with_seed(seed),
            );
            let replicas = cluster.num_datacenters();
            let names = Arc::new(Names::intern(&cluster.symbols(), spec));
            let mut targets = Vec::with_capacity(names.groups.len());
            for g in 0..names.groups.len() {
                let group = cluster.register_group(&format!("g{g}"));
                assert_eq!(
                    group, names.groups[g],
                    "groups were interned in the same order"
                );
                let target = WireTarget {
                    group,
                    home_service: cluster.service_for_group(group),
                    home_core: cluster.home_core(group),
                    services: (0..replicas)
                        .map(|r| cluster.service_for_group_at(group, r))
                        .collect(),
                    cores: (0..replicas)
                        .map(|r| cluster.core_for_group_at(group, r))
                        .collect(),
                };
                preload(&spec.load, &names, g, &target.cores);
                targets.push(target);
            }
            let targets = Arc::new(targets);
            for index in 0..spec.load.actors {
                let port = Port::Wire {
                    targets: Arc::clone(&targets),
                    seq: 0,
                    commits: HashMap::new(),
                    reads: HashMap::new(),
                };
                let actor = fleet.actor(&spec.load, seed, index, port, &names, traced);
                cluster.add_driver(index % workers, index % replicas, move |_node| {
                    Box::new(actor)
                });
            }
            Prepared {
                spec: spec.clone(),
                names,
                fleet,
                stage: Stage::Par {
                    cluster: Box::new(cluster),
                    targets,
                },
            }
        }
    }
}

/// One session-port load actor per planned actor, homed per the load's
/// placement, committing down the workload's route.
fn add_session_actors(
    cluster: &mut Cluster,
    spec: &SutSpec,
    seed: u64,
    names: &Arc<Names>,
    fleet: &mut LoadFleet,
    traced: Option<Instant>,
) {
    let replicas = cluster.num_datacenters();
    for index in 0..spec.load.actors {
        let replica = if spec.load.all_at_first {
            0
        } else {
            index % replicas
        };
        let mut config = cluster.client_config();
        config.route = if spec.direct_route {
            CommitRoute::Direct
        } else {
            CommitRoute::Submitted
        };
        if spec.rolling_faults {
            // A churned home can land on a crashed site: let one transaction
            // ride out several fault windows, retrying within each.
            config = config
                .with_max_resubmissions(32)
                .with_submit_patience(SimDuration::from_millis(400));
        }
        let directory = cluster.directory();
        cluster.add_client(replica, |node| {
            let port = Port::Session {
                session: Box::new(Session::new(node, replica, directory, config)),
                executing: HashMap::new(),
                committing: HashMap::new(),
            };
            Box::new(fleet.actor(&spec.load, seed, index, port, names, traced))
        });
    }
}

/// The fault schedule is part of the workload, frozen like its sizes: which
/// site crashes when does not change with `--seed` (arrivals, keys and
/// network jitter do), because the availability metrics of a 30 s window
/// depend far more on where the faults land than on the load.
const FAULT_SCHEDULE_SEED: u64 = 42;

/// The canonical rolling-failure scenario over `duration`: a datacenter
/// crashes roughly every two seconds (staggered 400 ms outages), the link
/// between the second and third site flaps, and group homes churn.
fn rolling_failure(duration: SimDuration, groups: usize) -> ChaosSpec {
    ChaosSpec::new(duration)
        .with_rolling_crashes(3, SimDuration::from_secs(2), SimDuration::from_millis(400))
        .with_flapping(
            SiteId(1),
            SiteId(2),
            SimDuration::from_secs(2),
            SimDuration::from_millis(300),
        )
        .with_home_churn(groups, SimDuration::from_secs(3))
}

impl Prepared {
    /// Offer the load, drain, and pass every correctness gate. `Err` is a
    /// failed gate.
    pub fn run(self, tracer: &mut Tracer) -> Result<Rep, String> {
        let Prepared {
            spec,
            names,
            fleet,
            stage,
        } = self;
        match stage {
            Stage::Sim { cluster, scratch } => {
                run_simnet(&spec, *cluster, scratch, &names, &fleet, tracer)
            }
            Stage::Par { cluster, targets } => {
                run_parallel(&spec, *cluster, &targets, &names, &fleet, tracer)
            }
        }
    }
}

fn run_simnet(
    spec: &SutSpec,
    mut cluster: Cluster,
    scratch: Option<Scratch>,
    names: &Names,
    fleet: &LoadFleet,
    tracer: &mut Tracer,
) -> Result<Rep, String> {
    let replicas = cluster.num_datacenters();
    // ---- load and drain ---------------------------------------------------
    tracer.enter("load");
    let run_started = Instant::now();
    let cpu_started = crate::procfs::cpu_seconds();
    let mut counters = Counters::default();
    let mut restart_ms = Vec::new();
    if spec.rolling_faults {
        assert!(
            spec.durable,
            "the rolling-failure schedule restarts datacenters from disk"
        );
        let Arrival::Open { per_actor_per_s } = spec.load.arrival else {
            panic!("faults are injected under open-loop load, so requests keep arriving");
        };
        let duration = SimDuration::from_micros(
            (spec.load.txns_per_actor as f64 / per_actor_per_s * 1e6) as u64,
        );
        let mut schedule = ChaosSchedule::generate(
            &rolling_failure(duration, spec.load.groups),
            FAULT_SCHEDULE_SEED,
        );
        while let Some(due) = schedule.next_due() {
            counters.events += cluster.sim_mut().run_until(due);
            for event in schedule.pop_due(due) {
                match event {
                    // A real crash lands mid-append: leave a torn partial
                    // frame at the victim's WAL tail.
                    ChaosEvent::CrashSite(site) => {
                        cluster.core(site.0 as usize).lock().inject_torn_wal_tail()
                    }
                    // Before the site rejoins, rebuild its state from disk as
                    // a restarted process would; the cluster asserts the
                    // rebuilt fingerprint equals the pre-crash one.
                    ChaosEvent::RecoverSite(site) => {
                        tracer.enter("restart");
                        let began = Instant::now();
                        cluster
                            .restart_datacenter_from_disk(site.0 as usize)
                            .map_err(|e| format!("restart from disk failed: {e}"))?;
                        restart_ms.push(began.elapsed().as_secs_f64() * 1e3);
                        tracer.exit();
                        counters.restarts += 1;
                    }
                    _ => {}
                }
                if !ChaosSchedule::apply_network(event, cluster.sim_mut()) {
                    if let ChaosEvent::MoveHome { group, replica } = event {
                        cluster.directory().set_group_home(
                            names.groups[group % names.groups.len()],
                            replica % replicas,
                        );
                    }
                }
            }
        }
        counters.faults_injected = schedule.faults_injected();
    }
    // Offer the rest of the load in slices of simulated time, so the end of
    // the load phase (last arrival offered) is observable from outside.
    while !fleet.all_offered() && !cluster.sim().is_idle() {
        counters.events += cluster.run_for(SimDuration::from_millis(100));
    }
    tracer.exit();
    tracer.enter("drain");
    counters.events += cluster.run_to_completion();
    let run_s = run_started.elapsed().as_secs_f64();
    let cpu_s = crate::procfs::cpu_seconds() - cpu_started;
    tracer.exit();

    // ---- verify -----------------------------------------------------------
    tracer.enter("verify");
    let verify_started = Instant::now();
    let tally = fleet.merged();
    cluster
        .verify()
        .map_err(|v| format!("replica agreement / one-copy serializability violated: {v:?}"))?;
    let cores: Vec<SharedCore> = (0..replicas).map(|r| cluster.core(r)).collect();
    let logs: Vec<Vec<GroupLog>> = names
        .groups
        .iter()
        .map(|g| cluster.replica_logs(*g))
        .collect();
    audit_exactly_once(&tally, &names.groups, &logs, &cores)?;

    counters.msgs_sent = cluster.sim().stats().sent;
    counters.fold_service(&cluster.service_commit_metrics());
    counters.expired_reads = cluster.expired_read_counts().iter().sum();
    counters.reclaimed_versions = cluster.reclaimed_version_counts().iter().sum();
    for group in &names.groups {
        counters.logged_txns += cluster.committed_in_log_id(0, *group) as u64;
        counters.logged_instances += cluster.decided_instances_id(0, *group) as u64;
    }
    for stats in cluster.storage_stats().into_iter().flatten() {
        counters.syncs += stats.syncs;
        counters.records_synced += stats.records_synced;
        counters.sync_failures += stats.sync_failures;
        counters.snapshots_written += stats.snapshots_written;
        counters.segments_on_disk += stats.segments_on_disk as u64;
    }
    counters.leaked_leases = cores
        .iter()
        .map(|core| core.lock().read_lease_count() as u64)
        .sum();
    if let Some(dir) = &scratch {
        counters.disk_bytes_end = dir_bytes(dir.path());
    }
    let artefacts = if tracer.enabled() {
        artefacts(&names.groups, &logs)
    } else {
        Vec::new()
    };
    let verify_s = verify_started.elapsed().as_secs_f64();
    tracer.exit();
    Ok(Rep {
        tally,
        counters,
        run_s,
        cpu_s,
        verify_s,
        restart_ms,
        artefacts,
    })
}

fn run_parallel(
    spec: &SutSpec,
    mut cluster: ParallelCluster,
    targets: &[WireTarget],
    names: &Names,
    fleet: &LoadFleet,
    tracer: &mut Tracer,
) -> Result<Rep, String> {
    tracer.enter("load");
    let run_started = Instant::now();
    let cpu_started = crate::procfs::cpu_seconds();
    let finished = Arc::clone(&fleet.finished_all);
    let actors = spec.load.actors;
    // A closed loop that loses a reply would wait forever: stop at a
    // deadline and count whatever is unanswered as failed.
    let report = cluster.run(Duration::from_secs(90), move || {
        finished.load(Ordering::SeqCst) >= actors
    });
    let run_s = run_started.elapsed().as_secs_f64();
    let cpu_s = crate::procfs::cpu_seconds() - cpu_started;
    tracer.exit();

    tracer.enter("verify");
    let verify_started = Instant::now();
    let tally = fleet.merged();
    cluster
        .verify()
        .map_err(|v| format!("replica agreement / one-copy serializability violated: {v:?}"))?;
    let logs: Vec<Vec<GroupLog>> = targets
        .iter()
        .map(|t| {
            t.cores
                .iter()
                .map(|core| core.lock().log(t.group).cloned().unwrap_or_default())
                .collect()
        })
        .collect();
    let all_cores: Vec<SharedCore> = targets
        .iter()
        .flat_map(|t| t.cores.iter().cloned())
        .collect();
    audit_exactly_once(&tally, &names.groups, &logs, &all_cores)?;
    explain_snapshot_reads(&tally, &logs)?;

    let mut counters = Counters {
        events: report.stats.delivered + report.stats.timers_fired,
        msgs_sent: report.stats.sent,
        backpressure: report.backpressure,
        ..Counters::default()
    };
    counters.fold_service(&cluster.service_commit_metrics());
    (counters.expired_reads, counters.reclaimed_versions) = cluster.service_side_counters();
    for (group, replicas) in names.groups.iter().zip(&logs) {
        counters.logged_txns += cluster.committed_in_log(*group) as u64;
        counters.logged_instances +=
            replicas[0].iter().filter(|(_, e)| !e.is_noop()).count() as u64;
    }
    // A (shard, replica) core serves several groups; count its leases once.
    let mut seen = HashSet::new();
    for core in &all_cores {
        if seen.insert(Arc::as_ptr(core) as usize) {
            counters.leaked_leases += core.lock().read_lease_count() as u64;
        }
    }
    let artefacts = if tracer.enabled() {
        artefacts(&names.groups, &logs)
    } else {
        Vec::new()
    };
    let verify_s = verify_started.elapsed().as_secs_f64();
    tracer.exit();
    Ok(Rep {
        tally,
        counters,
        run_s,
        cpu_s,
        verify_s,
        restart_ms: Vec::new(),
        artefacts,
    })
}

fn artefacts(
    groups: &[GroupId],
    logs: &[Vec<GroupLog>],
) -> Vec<(GroupId, LogPosition, Arc<LogEntry>)> {
    let mut out = Vec::new();
    for (group, replicas) in groups.iter().zip(logs) {
        for (position, entry) in replicas[0].iter() {
            if !entry.is_noop() {
                out.push((*group, position, Arc::clone(entry)));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------------

/// Every commit a client observed appears at exactly one position of the
/// merged decided log — or, behind a snapshot's truncation floor, in a
/// replica's committed-id index.
fn audit_exactly_once(
    tally: &Tally,
    groups: &[GroupId],
    logs: &[Vec<GroupLog>],
    cores: &[SharedCore],
) -> Result<(), String> {
    let mut appearances: HashMap<(u32, TxnId), u32> = HashMap::new();
    for (index, replicas) in logs.iter().enumerate() {
        // Replica agreement was just verified, so the first replica holding
        // a position speaks for all of them.
        let mut seen_positions = HashSet::new();
        for log in replicas {
            for (position, entry) in log.iter() {
                if seen_positions.insert(position) {
                    for txn in entry.transactions() {
                        *appearances.entry((index as u32, txn.id)).or_default() += 1;
                    }
                }
            }
        }
    }
    for &(group, client, seq) in &tally.committed_ids {
        let id = TxnId::new(client, seq);
        match appearances.get(&(group, id)).copied().unwrap_or(0) {
            1 => {}
            0 => {
                let indexed = cores
                    .iter()
                    .any(|core| core.lock().is_committed(groups[group as usize], id));
                if !indexed {
                    return Err(format!("client-observed commit {id} of g{group} is in no decided log and no committed-id index"));
                }
            }
            n => {
                return Err(format!(
                    "client-observed commit {id} of g{group} was decided {n} times"
                ))
            }
        }
    }
    Ok(())
}

/// Prove every snapshot read against its group's merged decided log: the
/// observed value must be the latest committed write at or below the read's
/// watermark (bounded staleness: a read is never older than its watermark,
/// and never sees anything above it).
fn explain_snapshot_reads(tally: &Tally, logs: &[Vec<GroupLog>]) -> Result<(), String> {
    let mut by_group: BTreeMap<u32, Vec<&ReadSample>> = BTreeMap::new();
    for sample in &tally.read_samples {
        by_group.entry(sample.group).or_default().push(sample);
    }
    for (group, mut samples) in by_group {
        samples.sort_by_key(|s| s.at);
        let mut merged: BTreeMap<u64, &Arc<LogEntry>> = BTreeMap::new();
        for log in &logs[group as usize] {
            for (position, entry) in log.iter() {
                merged.entry(position.0).or_insert(entry);
            }
        }
        let mut state: HashMap<u64, &str> = HashMap::new();
        let mut entries = merged.iter().peekable();
        for sample in samples {
            while let Some((_, entry)) = entries.next_if(|(position, _)| **position <= sample.at) {
                for txn in entry.transactions() {
                    for write in txn.writes() {
                        state.insert(write.item.packed(), write.value.as_str());
                    }
                }
            }
            let expected = state.get(&sample.item).copied();
            if expected != sample.observed.as_deref() {
                return Err(format!(
                    "snapshot read of item {:#x} in g{group} at watermark {} observed {:?}, the decided log says {expected:?}",
                    sample.item, sample.at, sample.observed
                ));
            }
        }
    }
    Ok(())
}

/// The paper's headline, as a gate: on the same seed and a 500-transaction
/// contended workload, Paxos-CP commits at least as many as basic Paxos.
pub fn cp_beats_basic(spec: &SutSpec, seed: u64) -> Result<(u64, u64), String> {
    let mut prefix = spec.clone();
    prefix.load.txns_per_actor = (500 / spec.load.actors).min(spec.load.txns_per_actor);
    let committed = |protocol: CommitProtocol| -> Result<u64, String> {
        let mut cluster =
            Cluster::build(ClusterConfig::new(topology(prefix.topology), protocol).with_seed(seed));
        let names = Arc::new(Names::intern(&cluster.symbols(), &prefix));
        let mut fleet = LoadFleet::new(&prefix.load);
        add_session_actors(&mut cluster, &prefix, seed, &names, &mut fleet, None);
        cluster.run_to_completion();
        cluster.verify().map_err(|v| {
            format!(
                "{} prefix run violated serializability: {v:?}",
                protocol.name()
            )
        })?;
        Ok(fleet.merged().committed)
    };
    let (cp, basic) = (
        committed(CommitProtocol::PaxosCp)?,
        committed(CommitProtocol::BasicPaxos)?,
    );
    if cp < basic {
        return Err(format!(
            "Paxos-CP committed {cp} of the contended prefix, basic Paxos {basic}"
        ));
    }
    Ok((cp, basic))
}

// ---------------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------------

/// Per-layer timings from pushing a run's own artefacts through each
/// layer's public functions in isolation.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub storage_log_us: Vec<f64>,
    pub storage_batch8_us_per_record: f64,
    pub storage_replay_ms_per_1k: f64,
    pub snapshot_save_ms: f64,
    pub snapshot_load_ms: f64,
    pub encode_ns_per_entry: f64,
    pub decode_ns_per_entry: f64,
    pub entry_bytes_p50: f64,
    pub conflict_check_ns: f64,
    /// Conflict checks the run's commits imply: one per decided entry between
    /// a transaction's read position and its commit position.
    pub conflict_checks_in_run: u64,
    pub partition_ns_per_window: f64,
    pub acceptor_cycle_ns: f64,
    pub apply_ns_per_write: f64,
    pub read_at_ns: f64,
}

/// How many calls of one layer the replay times at most; the per-call means
/// are scaled by the run's own counts afterwards.
const REPLAY_CAP: usize = 4_000;
/// Nanosecond-scale calls are timed in batches of this many per span.
const NS_BATCH: usize = 64;

/// Time `calls` invocations in batches, one span per batch; returns ns/call.
fn timed_batches(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    mut call: impl FnMut(usize),
) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let mut total = Duration::ZERO;
    for batch in (0..calls).step_by(NS_BATCH) {
        let began = Instant::now();
        for i in batch..(batch + NS_BATCH).min(calls) {
            call(i);
        }
        let ended = Instant::now();
        total += ended - began;
        tracer.record(name, began, ended);
    }
    total.as_nanos() as f64 / calls as f64
}

pub fn replay_layers(
    artefacts: &[(GroupId, LogPosition, Arc<LogEntry>)],
    scratch_root: &Path,
    tracer: &mut Tracer,
) -> LayerTimes {
    let mut out = LayerTimes::default();
    let sample: Vec<&(GroupId, LogPosition, Arc<LogEntry>)> =
        artefacts.iter().take(REPLAY_CAP).collect();
    if sample.is_empty() {
        return out;
    }

    // ---- walog: codec, conflict checks, window partition -------------------
    let mut encoded: Vec<String> = Vec::with_capacity(sample.len());
    out.encode_ns_per_entry = timed_batches(tracer, "walog.encode", sample.len(), |i| {
        encoded.push(std::hint::black_box(sample[i].2.encode()));
    });
    out.decode_ns_per_entry = timed_batches(tracer, "walog.decode", sample.len(), |i| {
        std::hint::black_box(
            LogEntry::decode(&encoded[i]).expect("an entry decodes from its own encoding"),
        );
    });
    let mut sizes: Vec<u64> = encoded.iter().map(|s| s.len() as u64).collect();
    sizes.sort_unstable();
    out.entry_bytes_p50 = crate::tally::quantile_sorted(&sizes, 0.5) as f64;

    // A commit at position p with read position r was validated against
    // every entry decided in (r, p).
    let mut by_group: BTreeMap<GroupId, BTreeMap<u64, &Arc<LogEntry>>> = BTreeMap::new();
    for (group, position, entry) in artefacts {
        by_group
            .entry(*group)
            .or_default()
            .insert(position.0, entry);
    }
    let mut pairs: Vec<(&Arc<LogEntry>, &Transaction)> = Vec::new();
    for (group, position, entry) in artefacts {
        for txn in entry.transactions() {
            let between = by_group[group].range(txn.read_position.0 + 1..position.0);
            out.conflict_checks_in_run += between.clone().count() as u64;
            if pairs.len() < REPLAY_CAP * 4 {
                pairs.extend(between.map(|(_, earlier)| (*earlier, txn)));
            }
        }
    }
    out.conflict_check_ns = timed_batches(tracer, "walog.conflict_check", pairs.len(), |i| {
        std::hint::black_box(pairs[i].0.invalidates_reads_of(pairs[i].1));
    });
    let mut windows: Vec<Vec<Transaction>> = sample
        .iter()
        .map(|(_, _, e)| e.transactions().to_vec())
        .collect();
    out.partition_ns_per_window = timed_batches(tracer, "walog.partition", windows.len(), |i| {
        std::hint::black_box(walog::combine::partition_compatible(std::mem::take(
            &mut windows[i],
        )));
    });

    // ---- paxos: one acceptor's prepare → accept → apply per instance -------
    let store = mvkv::MvKvStore::new();
    let acceptor = AcceptorStore::new(&store);
    let ballot = Ballot::initial(1);
    out.acceptor_cycle_ns = timed_batches(tracer, "paxos.acceptor_cycle", sample.len(), |i| {
        let (group, position, entry) = sample[i];
        acceptor.handle_prepare(*group, *position, ballot);
        acceptor.handle_accept(*group, *position, ballot, entry);
        std::hint::black_box(acceptor.handle_apply(*group, *position, ballot, entry));
    });

    // ---- mvkv: apply every write, then read back at the written version ----
    let store = mvkv::MvKvStore::new();
    let mut writes: Vec<(mvkv::Key, mvkv::Attr, mvkv::Timestamp, mvkv::Row)> = Vec::new();
    for (group, position, entry) in &sample {
        let mut per_key: BTreeMap<u64, mvkv::Row> = BTreeMap::new();
        for txn in entry.transactions() {
            for write in txn.writes() {
                let key = ((group.0 as u64) << 32) | write.item.key.0 as u64;
                per_key
                    .entry(key)
                    .or_default()
                    .set(write.item.attr.into(), write.value.clone());
            }
        }
        for (key, row) in per_key {
            let attr = row.iter().next().expect("a written row has an attribute").0;
            writes.push((mvkv::Key(key), attr, mvkv::Timestamp(position.0), row));
        }
    }
    // Versions of one key must ascend: order by (key, position).
    writes.sort_by_key(|(key, _, ts, _)| (key.0, ts.0));
    let written: usize = writes.iter().map(|(_, _, _, row)| row.len()).sum();
    let apply_ns_per_row = timed_batches(tracer, "mvkv.apply", writes.len(), |i| {
        let (key, _, ts, row) = &writes[i];
        std::hint::black_box(store.apply_idempotent(*key, row.clone(), *ts));
    });
    out.apply_ns_per_write = apply_ns_per_row * writes.len() as f64 / written.max(1) as f64;
    out.read_at_ns = timed_batches(tracer, "mvkv.read_at", writes.len(), |i| {
        let (key, attr, ts, _) = &writes[i];
        std::hint::black_box(store.read_attr_at(*key, *attr, *ts));
    });

    // ---- storage: the WAL records the entries imply, one sync each ---------
    let scratch = Scratch::new(scratch_root, "replay");
    let cfg = DurableConfig::new(scratch.path());
    let mut dc = DcStorage::open(cfg).expect("a fresh scratch directory opens");
    let records: Vec<WalRecord> = sample
        .iter()
        .flat_map(|(group, position, entry)| {
            [
                WalRecord::Promise {
                    group: *group,
                    position: *position,
                    ballot,
                },
                WalRecord::Vote {
                    group: *group,
                    position: *position,
                    ballot,
                    entry: Arc::clone(entry),
                },
                WalRecord::Decided {
                    group: *group,
                    position: *position,
                    entry: Arc::clone(entry),
                },
            ]
        })
        .collect();
    // Syncs cost tens of microseconds to milliseconds each: a few hundred
    // are plenty for a median and a p99-ish tail.
    let (single, batched) = records.split_at(records.len().min(600));
    for record in single {
        let began = Instant::now();
        assert!(dc.log(record), "a sync on the scratch directory succeeds");
        let ended = Instant::now();
        tracer.record("storage.log", began, ended);
        out.storage_log_us.push((ended - began).as_secs_f64() * 1e6);
    }
    let mut batch_total = Duration::ZERO;
    let mut batch_records = 0usize;
    for chunk in batched.chunks(8).take(150) {
        let began = Instant::now();
        for record in chunk {
            dc.append(record);
        }
        assert!(dc.sync(), "a sync on the scratch directory succeeds");
        let ended = Instant::now();
        tracer.record("storage.batch8", began, ended);
        batch_total += ended - began;
        batch_records += chunk.len();
    }
    out.storage_batch8_us_per_record =
        batch_total.as_secs_f64() * 1e6 / batch_records.max(1) as f64;
    drop(dc);
    let began = Instant::now();
    let replayed =
        storage::wal::replay(&scratch.path().join("wal")).expect("the WAL just written replays");
    let ended = Instant::now();
    tracer.record("storage.replay", began, ended);
    out.storage_replay_ms_per_1k =
        (ended - began).as_secs_f64() * 1e3 / (replayed.records.len().max(1) as f64 / 1e3);

    // One group's snapshot: its committed ids and the final version of
    // every row the sample wrote.
    let group = sample[0].0;
    let mut rows: BTreeMap<u64, (u64, BTreeMap<u32, String>)> = BTreeMap::new();
    let mut committed = Vec::new();
    let mut last = LogPosition::ZERO;
    for (g, position, entry) in &sample {
        if *g != group {
            continue;
        }
        last = last.max(*position);
        for txn in entry.transactions() {
            committed.push(txn.id);
            for write in txn.writes() {
                let row = rows
                    .entry(((g.0 as u64) << 32) | write.item.key.0 as u64)
                    .or_default();
                row.0 = position.0;
                row.1.insert(write.item.attr.0, write.value.clone());
            }
        }
    }
    let snapshot = GroupSnapshot {
        group,
        position: last,
        log_base: LogPosition::ZERO,
        committed,
        rows: rows
            .into_iter()
            .map(|(key, (ts, attrs))| SnapshotRow {
                key,
                versions: vec![(ts, attrs.into_iter().collect())],
            })
            .collect(),
    };
    let snaps = SnapshotStore::open(&scratch.path().join("replay-snapshots"))
        .expect("a fresh snapshot directory opens");
    let began = Instant::now();
    snaps
        .save(&snapshot)
        .expect("a snapshot saves to the scratch directory");
    let saved = Instant::now();
    let loaded = snaps.load_all().expect("the snapshot just saved loads");
    let ended = Instant::now();
    assert_eq!(loaded.0.len(), 1, "the saved snapshot is read back");
    tracer.record("storage.snapshot_save", began, saved);
    tracer.record("storage.snapshot_load", saved, ended);
    out.snapshot_save_ms = (saved - began).as_secs_f64() * 1e3;
    out.snapshot_load_ms = (ended - saved).as_secs_f64() * 1e3;
    out
}

// ---------------------------------------------------------------------------
// Null runtimes: what the two schedulers cost with actors that do nothing
// ---------------------------------------------------------------------------

struct Echo {
    peer: NodeId,
    /// Tokens this actor puts in flight at start.
    tokens: u32,
    left: Arc<AtomicUsize>,
}

impl Actor<u64> for Echo {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        for token in 0..self.tokens {
            ctx.send(self.peer, token as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, msg: u64) {
        let left = self.left.load(Ordering::Relaxed);
        if left > 0 {
            self.left.store(left - 1, Ordering::Relaxed);
            ctx.send(from, msg);
        }
    }
}

/// Events per wall second of the simulation kernel with two no-op actors.
pub fn null_sim_events_per_s(messages: usize) -> f64 {
    let mut sim: Simulation<u64> =
        Simulation::new(NetworkConfig::uniform(SimDuration::from_micros(100)), 1);
    let site = sim.add_site("null");
    let left = Arc::new(AtomicUsize::new(messages));
    sim.add_node(
        site,
        Box::new(Echo {
            peer: NodeId(1),
            tokens: 64,
            left: Arc::clone(&left),
        }),
    );
    sim.add_node(
        site,
        Box::new(Echo {
            peer: NodeId(0),
            tokens: 0,
            left,
        }),
    );
    let began = Instant::now();
    let events = sim.run_until_idle();
    events as f64 / began.elapsed().as_secs_f64()
}

/// Messages per wall second across two parallel-runtime workers with two
/// no-op actors, and the backpressure the run hit.
pub fn null_parallel_msgs_per_s(wall: Duration) -> f64 {
    let mut runtime: ParallelRuntime<u64> =
        ParallelRuntime::new(NetworkConfig::uniform(SimDuration::from_micros(1)), 2, 1);
    let site = runtime.add_site("null");
    let left = Arc::new(AtomicUsize::new(usize::MAX));
    runtime.add_node(
        site,
        0,
        Box::new(Echo {
            peer: NodeId(1),
            tokens: 64,
            left: Arc::clone(&left),
        }),
    );
    runtime.add_node(
        site,
        1,
        Box::new(Echo {
            peer: NodeId(0),
            tokens: 0,
            left,
        }),
    );
    let report = runtime.run_for(wall);
    report.stats.delivered as f64 / report.elapsed.as_secs_f64()
}
