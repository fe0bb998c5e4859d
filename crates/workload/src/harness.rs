//! [`run_load`]: the one harness. Build the cluster the spec's shape names,
//! intern the keyspace and register its groups, place the load actors,
//! drive the run, verify serializability, audit what the clients observed
//! against what the logs decided, aggregate. Only the drive step differs
//! between the shapes: the simulation replays the fault schedule and runs
//! to completion, the parallel runtime runs its worker threads until every
//! actor is done.

use crate::actor::{LoadActor, Names, Sinks, SnapshotReadSample, Tally, WireTarget};
use crate::spec::{Arrival, ClusterShape, LoadResult, LoadSpec, ReadTotals};
use crate::zipf::KeySampler;
use mdstore::datacenter::SharedCore;
use mdstore::{
    ChaosReplay, ClientConfig, Cluster, ClusterConfig, LatencyStats, MetricsHub, ParallelCluster,
    ParallelClusterConfig, RunMetrics, ShardedCluster,
};
use parking_lot::Mutex;
use simnet::{ChaosSchedule, NetStats, SimDuration};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use walog::checker;
use walog::{GroupId, GroupLog, ItemRef, LogPosition, TxnId};

/// The shared handles of a set of placed load actors: where their metrics
/// and observations accumulate while the run is driven.
pub struct Fleet {
    hub: MetricsHub,
    sinks: Vec<Arc<Mutex<RunMetrics>>>,
    tallies: Vec<Arc<Mutex<Tally>>>,
    done: Arc<AtomicUsize>,
    /// Each group's replicas and home, parallel to the actors' groups.
    targets: Arc<Vec<WireTarget>>,
    /// What every actor's session runs with.
    config: ClientConfig,
}

impl Fleet {
    /// One more actor: its own sinks, so no two workers ever contend on a
    /// shared aggregate.
    fn enlist(&mut self) -> Sinks {
        let metrics = self.hub.register();
        let tally = Arc::new(Mutex::new(Tally::default()));
        self.sinks.push(Arc::clone(&metrics));
        self.tallies.push(Arc::clone(&tally));
        Sinks {
            metrics,
            tally,
            done: Arc::clone(&self.done),
        }
    }

    /// Client-side metrics merged over the fleet's actors.
    pub fn totals(&self) -> RunMetrics {
        self.hub.merged()
    }
}

/// Place the spec's load actors on an already-built cluster, for
/// harnesses that drive the cluster themselves: one session client each,
/// spread round-robin over the shards. `names` is what the actors touch —
/// usually [`Names::intern`] of the spec's keyspace; on more than one
/// shard, its groups must be registered.
pub fn place<R>(cluster: &mut ShardedCluster<R>, spec: &LoadSpec, names: &Arc<Names>) -> Fleet {
    let sampler = KeySampler::new(spec.keyspace.distribution, spec.keyspace.keys);
    let mut config = spec.client.clone();
    config.message_timeout = cluster.config().topology.message_timeout;
    let replicas = 0..cluster.num_datacenters();
    let target = |&group| {
        let at = |r| {
            let service = cluster.service_for_group_at(group, r);
            (service, cluster.core_for_group_at(group, r))
        };
        let (services, cores) = replicas.clone().map(at).unzip();
        let home = cluster.home_core(group).lock().replica();
        WireTarget {
            group,
            home,
            services,
            cores,
        }
    };
    let mut fleet = Fleet {
        hub: MetricsHub::new(),
        sinks: Vec::new(),
        tallies: Vec::new(),
        done: Arc::default(),
        targets: Arc::new(names.groups.iter().map(target).collect()),
        config,
    };
    for index in 0..spec.num_actors() {
        let sinks = fleet.enlist();
        let replica = spec.replica_for_actor(index);
        let worker = index % cluster.num_shards();
        let targets = &fleet.targets;
        cluster.add_session(worker, replica, fleet.config.clone(), |session| {
            Box::new(LoadActor::new(
                session, targets, spec, index, names, &sampler, sinks,
            ))
        });
    }
    fleet
}

/// What a shape's drive step reports.
struct Driven {
    net: NetStats,
    duration: SimDuration,
    replay: ChaosReplay,
}

/// Run one load to completion and return its measurements.
///
/// Panics if the decided logs violate replica agreement or one-copy
/// serializability; if a commit a client observed is missing from — or
/// duplicated in — the merged decided log, or one it learned from vote
/// copies is not at the position they named; if a snapshot read came back
/// unavailable or unexplained at its watermark; if a read lease leaked; if
/// a closed-loop transaction never reached an outcome; or if a
/// [`LoadSpec::liveness_window`] of the load phase committed nothing.
pub fn run_load(spec: &LoadSpec) -> LoadResult {
    let config = ClusterConfig::new(spec.topology.clone(), spec.client.protocol)
        .with_seed(spec.seed)
        .with_batch(spec.batch.clone());
    match &spec.shape {
        ClusterShape::Sim { storage, chaos } => {
            let cluster = Cluster::build(config.with_storage(storage.clone()));
            load(cluster, spec, |cluster, _, names| {
                let started = cluster.now();
                let replay = chaos.as_ref().map_or_else(ChaosReplay::default, |chaos| {
                    let mut schedule = ChaosSchedule::generate(chaos, spec.seed);
                    cluster.replay_chaos(&mut schedule, &names.groups)
                });
                cluster.run_to_completion();
                Driven {
                    net: cluster.sim().stats().clone(),
                    duration: cluster.now() - started,
                    replay,
                }
            })
        }
        ClusterShape::Parallel { workers, rtt_scale } => {
            let config = ParallelClusterConfig::from(config)
                .with_workers(*workers)
                .with_rtt_scale(*rtt_scale);
            load(ParallelCluster::build(config), spec, |cluster, fleet, _| {
                let budget = match spec.arrival {
                    Arrival::Open { duration, .. } => {
                        let drain = open_drain(spec, &fleet.config);
                        Duration::from_micros((duration + drain).as_micros())
                    }
                    Arrival::Closed { .. } => Duration::from_secs(600),
                };
                // A commit answered from vote copies can finish its actor
                // before its entry reaches any log, so the run also waits
                // for every such entry to be installed at its group's home.
                let actors = fleet.sinks.len();
                let done = Arc::clone(&fleet.done);
                let tallies = fleet.tallies.clone();
                let homes: HashMap<GroupId, SharedCore> = fleet
                    .targets
                    .iter()
                    .map(|t| (t.group, Arc::clone(&t.cores[t.home])))
                    .collect();
                let installed = move || {
                    tallies.iter().all(|tally| {
                        let tally = tally.lock();
                        let mut early = tally.early.iter();
                        early.all(|(group, _, at)| homes[group].lock().has_entry(*group, *at))
                    })
                };
                let report = cluster.run(budget, move || {
                    done.load(Ordering::SeqCst) >= actors && installed()
                });
                Driven {
                    net: report.stats,
                    duration: SimDuration::from_micros(report.elapsed.as_micros() as u64),
                    replay: ChaosReplay::default(),
                }
            })
        }
    }
}

/// The path both shapes share: intern the keyspace, register its groups,
/// place the actors, `drive` the run, then verify and audit it.
fn load<R>(
    mut cluster: ShardedCluster<R>,
    spec: &LoadSpec,
    drive: impl FnOnce(&mut ShardedCluster<R>, &Fleet, &Names) -> Driven,
) -> LoadResult {
    let names = Arc::new(Names::intern(&cluster.symbols(), &spec.keyspace));
    for (g, group) in names.groups.iter().enumerate() {
        let registered = cluster.register_group(&format!("g{g}"));
        assert_eq!(registered, *group, "groups intern in index order");
    }
    let fleet = place(&mut cluster, spec, &names);
    let driven = drive(&mut cluster, &fleet, &names);
    conclude(spec, &cluster, &fleet, &names, driven)
}

/// How long after the last open-loop arrival a parallel run may still be
/// busy, plus two seconds of slack: the arrival's operations (each up to
/// 1.5 × `op_delay` with jitter), then every attempt of its submitted
/// commit, each waiting out its patience plus a back-off of up to
/// `backoff_max` per attempt made before it — a session ends each such
/// commit itself once its re-submission budget runs out — or a snapshot
/// read queued for one patience and in flight for another. A direct commit
/// has no patience; the slack covers it.
fn open_drain(spec: &LoadSpec, config: &ClientConfig) -> SimDuration {
    let ops = spec.mix.op_delay.as_micros() * spec.mix.ops_per_txn as u64 * 3 / 2;
    let attempts = u64::from(config.max_resubmissions) + 1;
    let patience = config.submit_patience().as_micros();
    let backoffs = config.backoff_max.as_micros() * attempts * (attempts - 1) / 2;
    let commit = ops + patience * attempts + backoffs;
    SimDuration::from_micros(commit.max(2 * patience) + 2_000_000)
}

/// Verify, audit and aggregate a driven run.
fn conclude<R>(
    spec: &LoadSpec,
    cluster: &ShardedCluster<R>,
    fleet: &Fleet,
    names: &Names,
    driven: Driven,
) -> LoadResult {
    let name = &spec.name;
    let check = cluster
        .verify()
        .expect("run produced a non-serializable or diverged history");
    let groups = &names.groups;
    let logs: Vec<Vec<GroupLog>> = fleet
        .targets
        .iter()
        .map(|target| {
            let log_at = |core: &SharedCore| {
                let core = core.lock();
                core.log(target.group).cloned().unwrap_or_default()
            };
            target.cores.iter().map(log_at).collect()
        })
        .collect();
    // A (shard, replica) core serves several groups; visit each once.
    let mut seen = HashSet::new();
    let distinct = fleet.targets.iter().flat_map(|t| &t.cores);
    let distinct: Vec<_> = distinct.filter(|c| seen.insert(Arc::as_ptr(c))).collect();

    let per_actor: Vec<RunMetrics> = fleet.sinks.iter().map(|s| s.lock().clone()).collect();
    let mut totals = fleet.totals();
    totals.merge(&cluster.service_commit_metrics());
    totals.faults_injected += driven.replay.faults_applied;
    totals.reclaimed_versions += cluster.reclaimed_version_counts().iter().sum::<u64>();

    let mut tally = Tally::default();
    for actor in &fleet.tallies {
        let mut actor = actor.lock();
        tally.committed.append(&mut actor.committed);
        tally.early.append(&mut actor.early);
        tally.unavailable += actor.unavailable;
        tally.clock_firings += actor.clock_firings;
        tally.reads_unavailable += actor.reads_unavailable;
        tally.reads_shed += actor.reads_shed;
        tally.reads.append(&mut actor.reads);
    }
    let reads_completed = tally.reads.len();
    if let Some(planned) = spec.total_transactions() {
        let outcomes =
            totals.attempted + reads_completed + tally.reads_unavailable + tally.reads_shed;
        assert_eq!(
            outcomes, planned,
            "{name}: every scheduled transaction must reach an outcome"
        );
    }

    // Exactly-once: every commit a client observed appears at exactly one
    // position of the merged decided log — or, behind a snapshot's
    // truncation floor, in a replica's committed-id index (captured by
    // snapshots, rebuilt on restart). Replica agreement was just verified,
    // so the first replica holding a position speaks for all of them.
    let mut decided: HashMap<TxnId, u32> = HashMap::new();
    for replicas in &logs {
        let mut positions = HashSet::new();
        let entries = replicas.iter().flat_map(|log| log.iter());
        for (_, entry) in entries.filter(|(position, _)| positions.insert(*position)) {
            for txn in entry.transactions() {
                *decided.entry(txn.id).or_default() += 1;
            }
        }
    }
    for &(group, id, _) in &tally.committed {
        let times = decided.get(&id).copied().unwrap_or(0);
        let indexed = || {
            distinct
                .iter()
                .any(|core| core.lock().is_committed(group, id))
        };
        assert!(
            times == 1 || (times == 0 && indexed()),
            "{name}: client-observed commit {id:?} appears {times} times in the merged decided \
             log (and, if behind a truncation floor, in no committed-id index)"
        );
    }

    // Early answers: a commit a client learned from vote copies is decided
    // at the position the copies named — or, behind every replica's
    // truncation floor, in a committed-id index.
    for &(group, id, position) in &tally.early {
        let at = groups.iter().position(|g| *g == group);
        let replicas = at.map_or(&[][..], |at| &logs[at][..]);
        let truncated = || replicas.iter().all(|log| position <= log.base());
        let indexed = || {
            distinct
                .iter()
                .any(|core| core.lock().is_committed(group, id))
        };
        let found = match replicas.iter().find_map(|log| log.get(position)) {
            Some(entry) => entry.contains(id),
            None => truncated() && indexed(),
        };
        assert!(
            found,
            "{name}: commit {id:?} was answered from vote copies at {position:?}, which the \
             decided log does not hold it at"
        );
    }

    // Snapshot reads: non-aborting, every one explained at its watermark.
    assert_eq!(
        tally.reads_unavailable, 0,
        "snapshot reads are non-aborting: the watermark is captured from the serving replica \
         itself, so it can never be ahead of that replica's applied prefix"
    );
    let mut merged: HashMap<GroupId, GroupLog> = HashMap::new();
    for (group, replicas) in std::iter::zip(groups, &logs).filter(|_| reads_completed > 0) {
        assert!(
            replicas.iter().any(|log| log.base() == LogPosition::ZERO),
            "{name}: every replica truncated {group:?} behind a snapshot, so its reads cannot \
             be replayed; raise `DurableConfig::snapshot_every` (or `segment_bytes`: a snapshot \
             is cut only while a sealed WAL segment holds the group's records, so a run whose \
             WAL never seals a segment never truncates) for read-plane runs"
        );
        let refs: Vec<&GroupLog> = replicas.iter().collect();
        merged.insert(*group, checker::merged_log(&refs));
    }
    let samples = tally.reads.iter().map(|(sample, _, _)| sample);
    let verified = explain_snapshot_reads(&merged, samples)
        .unwrap_or_else(|e| panic!("{name}: unexplained snapshot read: {e}"));
    let read_latency = tally.reads.iter().map(|r| SimDuration::from_micros(r.1));
    let read_latency: Vec<SimDuration> = read_latency.collect();

    // Every read lease — a session's, a snapshot read's — must be released.
    let leaked: usize = distinct.iter().map(|c| c.lock().read_lease_count()).sum();
    assert_eq!(leaked, 0, "{name}: every read lease must be released");

    // Liveness: commits bucketed over the load phase.
    let mut window_commits = Vec::new();
    if let Some(window) = spec.liveness_window {
        let window_us = window.as_micros().max(1);
        let load_us = match spec.arrival {
            Arrival::Open { duration, .. } => duration.as_micros(),
            Arrival::Closed { .. } => totals.last_decision_us,
        };
        window_commits = vec![0u64; (load_us / window_us) as usize];
        for &(_, _, at_us) in &tally.committed {
            if let Some(count) = window_commits.get_mut((at_us / window_us) as usize) {
                *count += 1;
            }
        }
        assert!(
            window_commits.iter().all(|commits| *commits > 0),
            "{name}: committed throughput flatlined to zero in a liveness window: \
             {window_commits:?}"
        );
    }

    let symbols = cluster.symbols();
    let group_name = |group: GroupId| {
        let name = symbols.group_name(group);
        name.unwrap_or_else(|| group.to_string())
    };
    LoadResult {
        spec: spec.clone(),
        totals,
        per_actor,
        actor_replicas: (0..fleet.sinks.len())
            .map(|index| spec.replica_for_actor(index))
            .collect(),
        check: check
            .into_iter()
            .map(|(group, report)| (group_name(group), report))
            .collect(),
        net: driven.net,
        duration: driven.duration,
        unavailable: tally.unavailable,
        window_commits,
        reads: ReadTotals {
            completed: reads_completed,
            unavailable: tally.reads_unavailable,
            shed: tally.reads_shed,
            latency: LatencyStats::from_samples(&read_latency),
            max_staleness: tally.reads.iter().map(|r| r.2).max().unwrap_or(0),
            verified,
        },
        group_homes: groups
            .iter()
            .map(|g| cluster.home_core(*g).lock().replica())
            .collect(),
        durable_restarts: driven.replay.durable_restarts,
        torn_wal_tails: driven.replay.torn_wal_tails,
        clock_firings: tally.clock_firings,
        early_answers: tally.early.len(),
    }
}

/// Prove every snapshot read against its group's decided log: replay the
/// log in position order and check each sample's observed value equals the
/// latest committed write to its item at or below its watermark (`None`
/// when nothing wrote it). `logs` maps each group to its **merged** decided
/// log ([`walog::checker::merged_log`] over every replica), so a watermark
/// from any serving replica is covered. Returns the number of samples
/// proven; the error describes the first unexplained read.
pub fn explain_snapshot_reads<'a>(
    logs: &HashMap<GroupId, GroupLog>,
    samples: impl IntoIterator<Item = &'a SnapshotReadSample>,
) -> Result<usize, String> {
    let mut by_group: HashMap<GroupId, Vec<&SnapshotReadSample>> = HashMap::new();
    for sample in samples {
        by_group.entry(sample.group).or_default().push(sample);
    }
    let mut verified = 0;
    for (group, mut samples) in by_group {
        let Some(log) = logs.get(&group) else {
            return Err(format!(
                "group {group:?} has {} snapshot reads but no decided log",
                samples.len()
            ));
        };
        samples.sort_by_key(|sample| sample.at);
        let mut state: HashMap<u64, &str> = HashMap::new();
        let mut entries = log.iter().peekable();
        for sample in samples {
            while let Some((_, entry)) = entries.next_if(|(position, _)| *position <= sample.at) {
                for txn in entry.transactions() {
                    for (item, value) in txn.final_writes() {
                        state.insert(item.packed(), value);
                    }
                }
            }
            let item = ItemRef::new(sample.row, sample.attr);
            let expected = state.get(&item.packed()).copied();
            if expected != sample.observed.as_deref() {
                return Err(format!(
                    "snapshot read of {item:?} in {group:?} at watermark {} observed {:?} \
                     but the decided log says {expected:?}",
                    sample.at.0, sample.observed
                ));
            }
            verified += 1;
        }
    }
    Ok(verified)
}
