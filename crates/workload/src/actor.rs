//! The load actor: one type for every workload, parameterised by arrival
//! process × operation mix. Transactions run through an embedded
//! [`Session`] on both cluster shapes, so each commit ends the way the
//! session ends it (decision, or `Unavailable` once its patience and
//! re-submission budget run out); snapshot reads travel the wire read
//! plane ([`Msg::SnapshotRead`]) and the actor minds their patience.
//!
//! The actor keeps **one clock**: a single timer armed for the earliest
//! instant anything is due — the next arrival, the next operation of an
//! executing transaction, the oldest snapshot read's patience — and re-armed
//! only when nothing is armed or something earlier came up. There is no
//! polling tick, and a recovery cannot multiply timers: the actor knows the
//! instant its clock is armed for and whether that instant has passed.

use crate::spec::{Arrival, Keyspace, LoadSpec, OpMix};
use crate::zipf::KeySampler;
use mdstore::datacenter::SharedCore;
use mdstore::{
    apply_client_actions, AbortReason, ClientAction, Msg, RunMetrics, Session, TxnHandle, TxnResult,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Actor, Context, NodeId, SimDuration};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use walog::{AttrId, GroupId, ItemRef, KeyId, LogPosition, SymbolTable, TxnId};

/// The actor's only timer tag (session tags count up from 1).
const CLOCK_TAG: u64 = u64::MAX;

/// Uniform jitter fraction on each operation's execution delay and on the
/// closed loop's interarrival time: a real client's costs vary, and without
/// jitter simulated clients lock into fixed phase relationships that either
/// always or never collide, which no real deployment exhibits.
const OP_JITTER: f64 = 0.5;
const ARRIVAL_JITTER: f64 = 0.3;
/// Snapshot reads one actor keeps in flight, queueing the rest: what turns
/// a remote serving replica's RTT into a throughput ceiling.
const MAX_OPEN_SNAPSHOTS: usize = 4;

/// Interned ids of every name a load touches, resolved once before the run
/// so the hot loop never consults the symbol table.
#[derive(Clone, Debug)]
pub struct Names {
    /// Transaction groups; a transaction runs on `groups[first key % len]`.
    pub groups: Vec<GroupId>,
    /// Row keys; key `k` lives in row `k % rows.len()`.
    pub rows: Vec<KeyId>,
    /// Attributes; key `k` is attribute `k / rows.len()` of its row.
    pub attrs: Vec<AttrId>,
}

impl Names {
    /// Intern `g0..`, `r0..` and `a0..` for a keyspace.
    pub fn intern(symbols: &SymbolTable, keyspace: &Keyspace) -> Names {
        let keys = keyspace.keys.max(1);
        let rows = keyspace.rows.clamp(1, keys);
        let groups = 0..keyspace.groups.max(1);
        Names {
            groups: groups.map(|g| symbols.group(&format!("g{g}"))).collect(),
            rows: (0..rows).map(|r| symbols.key(&format!("r{r}"))).collect(),
            attrs: (0..keys.div_ceil(rows))
                .map(|a| symbols.attr(&format!("a{a}")))
                .collect(),
        }
    }

    /// The item key `key` names.
    pub fn item(&self, key: u64) -> ItemRef {
        let rows = self.rows.len() as u64;
        ItemRef::new(
            self.rows[(key % rows) as usize],
            self.attrs[(key / rows) as usize],
        )
    }

    fn group_index(&self, key: u64) -> usize {
        (key % self.groups.len() as u64) as usize
    }
}

/// One snapshot read observation: which group, at which watermark, which
/// item, and what came back. [`crate::explain_snapshot_reads`] proves it
/// against the group's decided log.
#[derive(Clone, Debug)]
pub struct SnapshotReadSample {
    /// Transaction group the read hit.
    pub group: GroupId,
    /// Snapshot watermark the read ran at.
    pub at: LogPosition,
    /// Row key read.
    pub row: KeyId,
    /// Attribute read.
    pub attr: AttrId,
    /// Value the serving replica answered with.
    pub observed: Option<String>,
}

/// What one actor observed beyond its [`RunMetrics`], for the audits.
#[derive(Default)]
pub(crate) struct Tally {
    /// Every commit the client saw: group, id and decision instant (µs).
    pub committed: Vec<(GroupId, TxnId, u64)>,
    /// Commits answered from vote copies before the home's reply: group,
    /// id and the position the copies named.
    pub early: Vec<(GroupId, TxnId, LogPosition)>,
    /// Outcomes surfaced as `Unavailable` after the retry budget ran out.
    pub unavailable: u64,
    /// Times the clock timer fired.
    pub clock_firings: u64,
    pub reads_unavailable: usize,
    pub reads_shed: usize,
    /// Completed snapshot reads, each with its latency from scheduled
    /// arrival (µs) and its staleness (home applied prefix minus watermark).
    pub reads: Vec<(SnapshotReadSample, u64, u64)>,
}

/// Where one group's snapshot reads go: every replica serves them, and the
/// `home` replica's applied prefix is what their staleness is measured
/// against.
pub(crate) struct WireTarget {
    pub group: GroupId,
    pub home: usize,
    pub services: Vec<NodeId>,
    pub cores: Vec<SharedCore>,
}

enum Stage {
    /// Between `begin` and `commit`; the next operation runs
    /// at `op_due_us`. `first_key` is the key that routed the transaction
    /// to its group, kept for the first operation.
    Executing {
        handle: TxnHandle,
        ops_left: usize,
        op_due_us: u64,
        first_key: Option<u64>,
    },
    /// The commit decision is outstanding.
    Committing,
    /// A snapshot read is outstanding, holding a read lease at the serving
    /// core; `lag` is its staleness at issue.
    Reading {
        core: SharedCore,
        sample: SnapshotReadSample,
        lag: u64,
    },
}

struct InFlight {
    /// The instant every outcome of this request is charged from: its
    /// scheduled arrival (open loop) or its start (closed loop).
    origin_us: u64,
    submitted_us: u64,
    group: GroupId,
    stage: Stage,
}

/// The per-run shared handles one actor reports into.
pub(crate) struct Sinks {
    pub metrics: Arc<Mutex<RunMetrics>>,
    pub tally: Arc<Mutex<Tally>>,
    /// Counts actors that have offered everything and seen every outcome.
    pub done: Arc<AtomicUsize>,
}

/// The load generator. Built by [`crate::place`] / [`crate::run_load`].
pub struct LoadActor {
    session: Session,
    targets: Arc<Vec<WireTarget>>,
    arrival: Arrival,
    mix: OpMix,
    names: Arc<Names>,
    sampler: KeySampler,
    rng: StdRng,
    /// The datacenter this actor lives in.
    replica: usize,
    mean_gap: SimDuration,
    patience_us: u64,
    /// Submission counter: in-flight key and snapshot-read request id, so the table
    /// iterates in scheduled-arrival order, oldest first.
    seq: u64,
    issued: usize,
    /// Scheduled instant of the next arrival, once its gap has been drawn.
    next_due_us: Option<u64>,
    /// The previous scheduled arrival (open loop) or start (closed loop).
    gap_from_us: u64,
    /// No further arrivals will be offered.
    exhausted: bool,
    in_flight: BTreeMap<u64, InFlight>,
    /// In-flight key of each commit the session has given an id, and the
    /// commits without one yet — read-only ones (finished inside
    /// the commit call) and direct-route ones queued behind their group's
    /// in-flight commit — recognised when their handle closes.
    by_id: HashMap<TxnId, u64>,
    awaiting_id: Vec<(TxnHandle, u64)>,
    /// Snapshot-read arrivals waiting for one of the actor's
    /// [`MAX_OPEN_SNAPSHOTS`] slots, as (scheduled arrival, key).
    backlog: VecDeque<(u64, u64)>,
    open_snapshots: usize,
    /// The instant the clock timer is armed for, if it is.
    armed_for: Option<u64>,
    finished: bool,
    sinks: Sinks,
}

impl LoadActor {
    pub(crate) fn new(
        session: Session,
        targets: &Arc<Vec<WireTarget>>,
        spec: &LoadSpec,
        index: usize,
        names: &Arc<Names>,
        sampler: &KeySampler,
        sinks: Sinks,
    ) -> LoadActor {
        let seed = spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (index as u64 + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_gap = spec.arrival.mean_gap(spec.num_actors());
        let first_due_us = match spec.arrival {
            Arrival::Closed { stagger, .. } => stagger.as_micros() * index as u64,
            Arrival::Open { .. } => {
                // A random phase so the actors' arrivals do not align.
                let phase = rng.gen::<f64>() * mean_gap.as_micros().min(1_000_000) as f64;
                1 + phase as u64
            }
        };
        LoadActor {
            session,
            targets: Arc::clone(targets),
            arrival: spec.arrival,
            mix: spec.mix,
            names: Arc::clone(names),
            sampler: sampler.clone(),
            rng,
            replica: spec.replica_for_actor(index),
            mean_gap,
            patience_us: spec.client.submit_patience().as_micros(),
            seq: 0,
            issued: 0,
            next_due_us: Some(first_due_us),
            gap_from_us: 0,
            exhausted: spec.total_transactions() == Some(0),
            in_flight: BTreeMap::new(),
            by_id: HashMap::new(),
            awaiting_id: Vec::new(),
            backlog: VecDeque::new(),
            open_snapshots: 0,
            armed_for: None,
            finished: false,
            sinks,
        }
    }

    /// Enter the request just submitted under `self.seq` into the table.
    fn track(&mut self, now_us: u64, origin_us: u64, group: GroupId, stage: Stage) {
        let entry = InFlight {
            origin_us,
            submitted_us: now_us,
            group,
            stage,
        };
        self.in_flight.insert(self.seq, entry);
    }

    fn max_open(&self) -> usize {
        match self.arrival {
            Arrival::Closed { max_open, .. } => max_open.max(1),
            Arrival::Open { .. } => usize::MAX,
        }
    }

    fn jittered(&mut self, base: SimDuration, fraction: f64) -> u64 {
        if base == SimDuration::ZERO {
            return 0;
        }
        let factor = 1.0 + fraction * (self.rng.gen::<f64>() * 2.0 - 1.0);
        base.mul_f64(factor.max(0.0)).as_micros()
    }

    fn draw_gap(&mut self) -> u64 {
        match self.arrival {
            Arrival::Closed { .. } => self.jittered(self.mean_gap, ARRIVAL_JITTER),
            // Poisson arrivals: exponential gaps, floored at 1 µs so the
            // schedule always advances.
            Arrival::Open { .. } => {
                let mean = self.mean_gap.as_micros() as f64;
                (-mean * (1.0 - self.rng.gen::<f64>()).ln()).max(1.0) as u64
            }
        }
    }

    /// Do everything that is due, then arm the clock for the next instant
    /// something will be.
    fn tick(&mut self, ctx: &mut Context<Msg>) {
        if self.finished {
            return;
        }
        let now_us = ctx.now().as_micros();
        self.run_due_ops(ctx, now_us);
        self.expire(now_us);
        self.issue_due(ctx, now_us);
        if self.exhausted && self.in_flight.is_empty() && self.backlog.is_empty() {
            self.finished = true;
            self.sinks.done.fetch_add(1, Ordering::SeqCst);
            return;
        }
        // The earliest instant anything becomes due.
        let may_start = !self.exhausted && self.in_flight.len() < self.max_open();
        let op_due = |entry: &InFlight| match entry.stage {
            Stage::Executing { op_due_us, .. } => Some(op_due_us),
            _ => None,
        };
        let reading = |entry: &&InFlight| matches!(entry.stage, Stage::Reading { .. });
        let oldest = self.in_flight.values().find(reading);
        let wakeups = [
            self.next_due_us.filter(|_| may_start),
            self.in_flight.values().filter_map(op_due).min(),
            oldest.map(|entry| entry.submitted_us + self.patience_us),
            self.backlog
                .front()
                .map(|queued| queued.0 + self.patience_us),
        ];
        if let Some(due_us) = wakeups.into_iter().flatten().min() {
            if self.armed_for.is_none_or(|at| due_us < at) {
                self.armed_for = Some(due_us);
                let delay = SimDuration::from_micros(due_us.saturating_sub(now_us));
                ctx.set_timer(delay, CLOCK_TAG);
            }
        }
    }

    /// Start every arrival that is due and allowed.
    fn issue_due(&mut self, ctx: &mut Context<Msg>, now_us: u64) {
        while !self.exhausted && self.in_flight.len() < self.max_open() {
            let due_us = match self.next_due_us {
                Some(due_us) => due_us,
                None => self.gap_from_us + self.draw_gap(),
            };
            self.next_due_us = Some(due_us);
            let origin_us = match self.arrival {
                Arrival::Open { duration, .. } if due_us >= duration.as_micros() => {
                    self.exhausted = true;
                    return;
                }
                _ if due_us > now_us => return,
                // Arrivals that came due while this actor's site was down
                // are offered late but charged from their schedule.
                Arrival::Open { .. } => due_us,
                Arrival::Closed { txns_per_actor, .. } => {
                    self.exhausted = self.issued + 1 >= txns_per_actor;
                    now_us
                }
            };
            self.next_due_us = None;
            self.issued += 1;
            self.gap_from_us = origin_us;
            let snapshot = self.mix.snapshot_fraction > 0.0
                && self.rng.gen::<f64>() < self.mix.snapshot_fraction;
            if snapshot {
                let key = self.sampler.sample(&mut self.rng);
                self.send_or_queue_snapshot(ctx, now_us, origin_us, key);
            } else {
                self.begin_txn(ctx, now_us, origin_us);
            }
        }
    }

    fn begin_txn(&mut self, ctx: &mut Context<Msg>, now_us: u64, origin_us: u64) {
        // With one group each key is drawn when its operation runs (the
        // paper generator's draw order); with several, the first key is
        // drawn up front because it routes the transaction.
        let first_key = (self.names.groups.len() > 1).then(|| self.sampler.sample(&mut self.rng));
        let group = self.names.groups[first_key.map_or(0, |k| self.names.group_index(k))];
        let handle = self.session.begin_id(ctx.now(), group);
        // Each operation costs `op_delay` of simulated execution time; the
        // transaction stays open while they run.
        let stage = Stage::Executing {
            handle,
            ops_left: self.mix.ops_per_txn,
            op_due_us: now_us + self.jittered(self.mix.op_delay, OP_JITTER),
            first_key,
        };
        self.seq += 1;
        let seq = self.seq;
        self.track(now_us, origin_us, group, stage);
        while self.mix.op_delay == SimDuration::ZERO && self.run_op(ctx, seq, now_us) {}
    }

    fn run_due_ops(&mut self, ctx: &mut Context<Msg>, now_us: u64) {
        if self.mix.op_delay == SimDuration::ZERO {
            return;
        }
        let is_due = |entry: &InFlight| matches!(entry.stage, Stage::Executing { op_due_us, .. } if op_due_us <= now_us);
        let due: Vec<u64> = self
            .in_flight
            .iter()
            .filter_map(|(seq, entry)| is_due(entry).then_some(*seq))
            .collect();
        for seq in due {
            self.run_op(ctx, seq, now_us);
        }
    }

    /// Run the next operation of an executing transaction, or commit it
    /// when none is left. Returns whether it is still executing.
    fn run_op(&mut self, ctx: &mut Context<Msg>, seq: u64, now_us: u64) -> bool {
        let Some(mut entry) = self.in_flight.remove(&seq) else {
            return false;
        };
        let Stage::Executing {
            handle,
            ops_left,
            op_due_us,
            first_key,
        } = &mut entry.stage
        else {
            self.in_flight.insert(seq, entry);
            return false;
        };
        let handle = *handle;
        if *ops_left > 0 {
            *ops_left -= 1;
            let key = first_key.take();
            let key = key.unwrap_or_else(|| self.sampler.sample(&mut self.rng));
            let item = self.names.item(key);
            if self.rng.gen::<f64>() < self.mix.read_fraction {
                self.session
                    .read_id(handle, item.key, item.attr)
                    .expect("read inside an open transaction");
            } else {
                let value = format!("v{}-{seq}-{ops_left}", ctx.node().0);
                self.session
                    .write_id(handle, item.key, item.attr, value)
                    .expect("write inside an open transaction");
            }
        }
        if *ops_left > 0 {
            *op_due_us = now_us + self.jittered(self.mix.op_delay, OP_JITTER);
            self.in_flight.insert(seq, entry);
            return true;
        }
        entry.stage = Stage::Committing;
        self.in_flight.insert(seq, entry);
        let actions = self
            .session
            .commit(ctx.now(), handle)
            .expect("commit of the just-built transaction");
        match self.session.txn_id(handle) {
            Some(id) => {
                self.by_id.insert(id, seq);
            }
            None => self.awaiting_id.push((handle, seq)),
        }
        self.settle(ctx, actions);
        false
    }

    /// Carry out the session's actions and book the outcomes among them.
    fn settle(&mut self, ctx: &mut Context<Msg>, actions: Vec<ClientAction>) {
        let now_us = ctx.now().as_micros();
        for result in apply_client_actions(ctx, actions) {
            let session = &self.session;
            let seq = result
                .txn
                .and_then(|id| self.by_id.remove(&id))
                .or_else(|| {
                    let closed = |(handle, _): &(TxnHandle, u64)| !session.is_open(*handle);
                    let at = self.awaiting_id.iter().position(closed)?;
                    Some(self.awaiting_id.swap_remove(at).1)
                });
            let counters = (
                session.resubmissions(),
                session.direct_backoffs(),
                session.learned_from_home_log(),
            );
            if let Some(entry) = seq.and_then(|seq| self.in_flight.remove(&seq)) {
                self.record(now_us, &entry, result);
                // The session's counters are cumulative, so overwrite rather
                // than add (this sink belongs to this actor alone).
                let mut metrics = self.sinks.metrics.lock();
                (
                    metrics.resubmissions,
                    metrics.direct_backoffs,
                    metrics.learned_from_home_log,
                ) = counters;
            }
        }
    }

    /// Issue one snapshot read, or queue it when the actor's in-flight cap
    /// is reached: pick the serving replica (the actor's own datacenter when
    /// it serves), capture the watermark from that replica's core *and take
    /// a read lease at it* under one lock, then send the wire read.
    fn send_or_queue_snapshot(
        &mut self,
        ctx: &mut Context<Msg>,
        now_us: u64,
        origin_us: u64,
        key: u64,
    ) {
        if self.open_snapshots >= MAX_OPEN_SNAPSHOTS {
            self.backlog.push_back((origin_us, key));
            return;
        }
        self.open_snapshots += 1;
        self.seq += 1;
        let target = &self.targets[self.names.group_index(key)];
        let (group, item) = (target.group, self.names.item(key));
        let serving = self.mix.serving_replicas.clamp(1, target.cores.len());
        let replica = if self.replica < serving {
            self.replica
        } else {
            (self.seq % serving as u64) as usize
        };
        let home = target.cores[target.home].lock().read_position(group);
        let core = Arc::clone(&target.cores[replica]);
        let at = {
            let mut core = core.lock();
            let at = core.read_position(group);
            core.begin_read_lease(group, at);
            at
        };
        let request = Msg::SnapshotRead {
            req_id: self.seq,
            group,
            key: item.key,
            attr: item.attr,
            at,
        };
        ctx.send(target.services[replica], request);
        let sample = SnapshotReadSample {
            group,
            at,
            row: item.key,
            attr: item.attr,
            observed: None,
        };
        let lag = home.0.saturating_sub(at.0);
        self.track(
            now_us,
            origin_us,
            group,
            Stage::Reading { core, sample, lag },
        );
    }

    /// Shed the snapshot reads whose patience ran out, in flight or still
    /// queued; the session ends its own commits.
    fn expire(&mut self, now_us: u64) {
        let overdue = |since_us: u64| since_us + self.patience_us <= now_us;
        let given_up: Vec<u64> = self
            .in_flight
            .iter()
            .take_while(|(_, entry)| overdue(entry.submitted_us))
            .filter(|(_, entry)| matches!(entry.stage, Stage::Reading { .. }))
            .map(|(seq, _)| *seq)
            .collect();
        for entry in given_up.iter().filter_map(|seq| self.in_flight.remove(seq)) {
            if let Stage::Reading { core, sample, .. } = &entry.stage {
                core.lock().end_read_lease(sample.group, sample.at);
                self.open_snapshots -= 1;
                self.sinks.tally.lock().reads_shed += 1;
            }
        }
        while self.backlog.front().is_some_and(|(at, _)| overdue(*at)) {
            self.backlog.pop_front();
            self.sinks.tally.lock().reads_shed += 1;
        }
    }

    /// A snapshot read came back: release its lease, book it, and let the
    /// freed slot pull the oldest queued read.
    fn on_read_reply(
        &mut self,
        ctx: &mut Context<Msg>,
        req_id: u64,
        value: Option<String>,
        unavailable: bool,
    ) {
        let now_us = ctx.now().as_micros();
        let Some(entry) = self.in_flight.remove(&req_id) else {
            return;
        };
        if let Stage::Reading {
            core,
            mut sample,
            lag,
        } = entry.stage
        {
            core.lock().end_read_lease(sample.group, sample.at);
            self.open_snapshots -= 1;
            let mut tally = self.sinks.tally.lock();
            if unavailable {
                tally.reads_unavailable += 1;
            } else {
                sample.observed = value;
                tally.reads.push((sample, now_us - entry.origin_us, lag));
            }
        }
        if let Some((origin_us, key)) = self.backlog.pop_front() {
            self.send_or_queue_snapshot(ctx, now_us, origin_us, key);
        }
    }

    /// The one outcome recorder. The closed loop keeps the session's own
    /// latency (commit call → decision, what Figures 4(b) and 5(b) plot);
    /// the open loop charges every outcome from its scheduled arrival.
    fn record(&mut self, now_us: u64, entry: &InFlight, mut result: TxnResult) {
        if let Arrival::Open { .. } = self.arrival {
            result.latency = SimDuration::from_micros(now_us - entry.origin_us);
        }
        {
            let mut metrics = self.sinks.metrics.lock();
            metrics.record(&result);
            metrics.last_decision_us = metrics.last_decision_us.max(now_us);
        }
        let mut tally = self.sinks.tally.lock();
        if let (true, Some(id)) = (result.committed, result.txn) {
            tally.committed.push((entry.group, id, now_us));
        }
        tally.unavailable += u64::from(result.abort_reason == Some(AbortReason::Unavailable));
    }
}

impl Actor<Msg> for LoadActor {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        match self.next_due_us {
            Some(due_us) if !self.exhausted => {
                self.armed_for = Some(due_us);
                ctx.set_timer(SimDuration::from_micros(due_us), CLOCK_TAG);
            }
            _ => self.tick(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::SnapshotReadReply {
                req_id,
                value,
                unavailable,
                ..
            } => self.on_read_reply(ctx, req_id, value, unavailable),
            msg => {
                let actions = self.session.on_message(ctx.now(), from, &msg);
                if let Msg::VoteCopy {
                    group, position, ..
                } = msg
                {
                    // What a copy finishes, the session answered from the
                    // copies.
                    let mut tally = self.sinks.tally.lock();
                    for action in &actions {
                        if let ClientAction::Finished(TxnResult { txn: Some(id), .. }) = action {
                            tally.early.push((group, *id, position));
                        }
                    }
                }
                self.settle(ctx, actions);
            }
        }
        self.tick(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, tag: u64) {
        if tag == CLOCK_TAG {
            self.sinks.tally.lock().clock_firings += 1;
            // A timer superseded by an earlier re-arm: the one armed for
            // `armed_for` is still to come.
            if self.armed_for.is_some_and(|at| at > ctx.now().as_micros()) {
                return;
            }
            self.armed_for = None;
        } else {
            let actions = self.session.on_timer(ctx.now(), tag);
            self.settle(ctx, actions);
        }
        self.tick(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<Msg>) {
        // Timers that came due while the site was down were suppressed and
        // never fire. Re-fire the session's — early fires are safe, they
        // degrade to deduplicated retries — and catch the clock up, unless
        // the instant it is armed for is still ahead (that timer survived).
        let actions = self.session.refire_timers(ctx.now());
        self.settle(ctx, actions);
        if self.armed_for.is_some_and(|at| at <= ctx.now().as_micros()) {
            self.armed_for = None;
        }
        self.tick(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdstore::{DatacenterCore, Directory};
    use simnet::{NetworkConfig, SimTime, Simulation};

    /// A commit that was offered late is charged from its *scheduled*
    /// arrival when the session gives it up, not from the instant it was
    /// sent (and not a constant): the latency includes the queueing delay.
    #[test]
    fn expiry_is_charged_from_the_scheduled_arrival() {
        let patience = SimDuration::from_millis(200);
        let mut spec = LoadSpec::open_loop(1, 100.0)
            .with_groups(1)
            .with_keys(8)
            .with_windows(SimDuration::from_secs(1), patience);
        spec.actors = Some(1);
        let mut sim: Simulation<Msg> =
            Simulation::new(NetworkConfig::uniform(SimDuration::from_millis(1)), 1);
        // Nobody answers: the actor is its own "service" and ignores requests.
        let (site, service) = (sim.add_site("client"), NodeId(0));
        let directory = Directory::new();
        let core = DatacenterCore::shared("dc0", 0);
        directory.register_datacenter(service, Arc::clone(&core));
        let names = Arc::new(Names::intern(directory.symbols(), &spec.keyspace));
        let targets = Arc::new(vec![WireTarget {
            group: names.groups[0],
            home: 0,
            services: vec![service],
            cores: vec![core],
        }]);
        let sinks = Sinks {
            metrics: Arc::new(Mutex::new(RunMetrics::default())),
            tally: Arc::new(Mutex::new(Tally::default())),
            done: Arc::new(AtomicUsize::new(0)),
        };
        let (metrics, tally) = (Arc::clone(&sinks.metrics), Arc::clone(&sinks.tally));
        let sampler = KeySampler::new(spec.keyspace.distribution, spec.keyspace.keys);
        // With no re-submission, the session gives a commit up one patience
        // after it sent it.
        let config = spec.client.clone().with_max_resubmissions(0);
        let session = Session::new(service, 0, directory, config);
        let actor = LoadActor::new(session, &targets, &spec, 0, &names, &sampler, sinks);
        assert_eq!(sim.add_node(site, Box::new(actor)), service);

        // The client's site is down for the first 600 ms of the offered
        // second: ~60 arrivals queue behind the outage, are sent at recovery
        // and are given up one patience later.
        sim.crash_site(site);
        sim.run_until(SimTime::from_micros(600_000));
        sim.recover_site(site);
        sim.run_until_idle();

        let metrics = metrics.lock();
        assert!(metrics.attempted > 80, "about 100 arrivals were scheduled");
        assert_eq!(
            tally.lock().unavailable as usize,
            metrics.attempted,
            "nobody answers"
        );
        let slowest = metrics.abort_latency_us.iter().copied().max().unwrap();
        assert!(
            slowest >= 600_000,
            "the first backlogged arrival waited ~600 ms before it was even sent, then a full \
             patience: {slowest} µs"
        );
        let fastest = metrics.abort_latency_us.iter().copied().min().unwrap();
        assert!(
            (200_000..250_000).contains(&fastest),
            "arrivals offered on time are given up after exactly their patience: {fastest} µs"
        );
    }
}
