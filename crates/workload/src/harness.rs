//! [`run_load`]: the one harness. Build the cluster the spec's shape names,
//! intern the keyspace, place the load actors, drive the run (replaying the
//! fault schedule on the simulation), verify serializability, audit what
//! the clients observed against what the logs decided, aggregate.

use crate::actor::{LoadActor, Names, Port, Sinks, SnapshotReadSample, Tally, WireTarget};
use crate::spec::{Arrival, ClusterShape, LoadResult, LoadSpec, ReadTotals};
use crate::zipf::KeySampler;
use mdstore::datacenter::SharedCore;
use mdstore::{
    ChaosReplay, Cluster, ClusterConfig, LatencyStats, MetricsHub, ParallelCluster,
    ParallelClusterConfig, RunMetrics, Session,
};
use parking_lot::Mutex;
use simnet::{ChaosSchedule, NetStats, SimDuration};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use walog::checker::{self, CheckReport};
use walog::{GroupId, GroupLog, ItemRef, LogPosition, SymbolTable, TxnId};

/// The shared handles of a set of placed load actors: where their metrics
/// and observations accumulate while the run is driven.
#[derive(Default)]
pub struct Fleet {
    hub: MetricsHub,
    sinks: Vec<Arc<Mutex<RunMetrics>>>,
    tallies: Vec<Arc<Mutex<Tally>>>,
    done: Arc<AtomicUsize>,
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

/// Place the spec's load actors on an already-built simulated cluster, for
/// harnesses that drive the simulation themselves. `names` is what the
/// actors touch — usually [`Names::intern`] of the spec's keyspace.
pub fn place(cluster: &mut Cluster, spec: &LoadSpec, names: &Arc<Names>) -> Fleet {
    let sampler = KeySampler::new(spec.keyspace.distribution, spec.keyspace.keys);
    let mut config = spec.client.clone();
    config.message_timeout = cluster.config().topology.message_timeout;
    let directory = cluster.directory();
    let target = |&group| WireTarget {
        group,
        home: directory.group_home(group),
        services: directory.service_nodes(),
        cores: directory.cores(),
    };
    let targets = Arc::new(names.groups.iter().map(target).collect());
    let mut fleet = Fleet::default();
    for index in 0..spec.num_actors() {
        let replica = spec.replica_for_actor(index);
        let sinks = fleet.enlist();
        cluster.add_client(replica, |node| {
            let session = Session::new(node, replica, Arc::clone(&directory), config.clone());
            let port: Port = Some(Box::new(session));
            Box::new(LoadActor::new(
                port, &targets, spec, index, names, &sampler, sinks,
            ))
        });
    }
    fleet
}

/// What driving a cluster produced, in the form both shapes share.
struct Driven {
    names: Arc<Names>,
    symbols: Arc<SymbolTable>,
    check: Vec<(GroupId, CheckReport)>,
    /// The replica cores holding each group and its home replica when the
    /// run ended, parallel to `names.groups`.
    cores: Vec<Vec<SharedCore>>,
    group_homes: Vec<usize>,
    /// Counters of the service-hosted commit engines.
    service: RunMetrics,
    net: NetStats,
    duration: SimDuration,
    replay: ChaosReplay,
}

/// Run one load to completion and return its measurements.
///
/// Panics if the decided logs violate replica agreement or one-copy
/// serializability; if a commit a client observed is missing from — or
/// duplicated in — the merged decided log; if a snapshot read came back
/// unavailable or unexplained at its watermark; if a read lease leaked; if
/// a closed-loop transaction never reached an outcome; or if a
/// [`LoadSpec::liveness_window`] of the load phase committed nothing.
pub fn run_load(spec: &LoadSpec) -> LoadResult {
    const DIVERGED: &str = "run produced a non-serializable or diverged history";
    let (fleet, driven) = match &spec.shape {
        ClusterShape::Sim { storage, chaos } => {
            let mut cluster = Cluster::build(
                ClusterConfig::new(spec.topology.clone(), spec.client.protocol)
                    .with_seed(spec.seed)
                    .with_batch(spec.batch.clone())
                    .with_storage(storage.clone()),
            );
            let names = Arc::new(Names::intern(&cluster.symbols(), &spec.keyspace));
            let fleet = place(&mut cluster, spec, &names);
            let started = cluster.now();
            let replay = chaos.as_ref().map_or_else(ChaosReplay::default, |chaos| {
                let mut schedule = ChaosSchedule::generate(chaos, spec.seed);
                cluster.replay_chaos(&mut schedule, &names.groups)
            });
            cluster.run_to_completion();
            let directory = cluster.directory();
            let driven = Driven {
                symbols: cluster.symbols(),
                check: cluster.verify().expect(DIVERGED),
                cores: vec![directory.cores(); names.groups.len()],
                group_homes: names
                    .groups
                    .iter()
                    .map(|g| directory.group_home(*g))
                    .collect(),
                names,
                service: cluster.service_commit_metrics(),
                net: cluster.sim().stats().clone(),
                duration: cluster.now() - started,
                replay,
            };
            (fleet, driven)
        }
        ClusterShape::Parallel { workers, rtt_scale } => {
            assert!(
                spec.mix.read_fraction == 0.0 && spec.mix.op_delay == SimDuration::ZERO,
                "{}: in-transaction reads and operation delays need a session; the parallel \
                 shape offers blind writes and snapshot reads",
                spec.name
            );
            let workers = (*workers).max(1);
            let mut cluster = ParallelCluster::build(
                ParallelClusterConfig::new(spec.topology.clone(), spec.client.protocol)
                    .with_workers(workers)
                    .with_batch(spec.batch.clone())
                    .with_rtt_scale(*rtt_scale)
                    .with_seed(spec.seed),
            );
            let replicas = 0..cluster.num_datacenters();
            let names = Arc::new(Names::intern(&cluster.symbols(), &spec.keyspace));
            let mut targets = Vec::with_capacity(names.groups.len());
            for g in 0..names.groups.len() {
                let group = cluster.register_group(&format!("g{g}"));
                assert_eq!(group, names.groups[g], "groups intern in index order");
                let on = |r| {
                    (
                        cluster.service_for_group_at(group, r),
                        cluster.core_for_group_at(group, r),
                    )
                };
                let (services, cores) = replicas.clone().map(on).unzip();
                let home = cluster.home_core(group).lock().replica();
                targets.push(WireTarget {
                    group,
                    home,
                    services,
                    cores,
                });
            }
            let targets = Arc::new(targets);
            let sampler = KeySampler::new(spec.keyspace.distribution, spec.keyspace.keys);
            let mut fleet = Fleet::default();
            let actors = spec.num_actors();
            for index in 0..actors {
                let sinks = fleet.enlist();
                let actor = LoadActor::new(None, &targets, spec, index, &names, &sampler, sinks);
                let replica = spec.replica_for_actor(index);
                cluster.add_driver(index % workers, replica, move |_node| Box::new(actor));
            }
            // The offered span and the drain, plus slack; a closed loop ends
            // when its last transaction does, patience bounding each.
            let budget = match spec.arrival {
                Arrival::Open {
                    duration, grace, ..
                } => Duration::from_micros((duration + grace).as_micros()) + Duration::from_secs(2),
                Arrival::Closed { .. } => Duration::from_secs(600),
            };
            let done = Arc::clone(&fleet.done);
            let report = cluster.run(budget, move || done.load(Ordering::SeqCst) >= actors);
            let driven = Driven {
                symbols: cluster.symbols(),
                check: cluster.verify().expect(DIVERGED),
                cores: targets.iter().map(|t| t.cores.clone()).collect(),
                group_homes: targets.iter().map(|t| t.home).collect(),
                names,
                service: cluster.service_commit_metrics(),
                net: report.stats,
                duration: SimDuration::from_micros(report.elapsed.as_micros() as u64),
                replay: ChaosReplay::default(),
            };
            (fleet, driven)
        }
    };
    conclude(spec, &fleet, driven)
}

/// Audit and aggregate a driven run.
fn conclude(spec: &LoadSpec, fleet: &Fleet, driven: Driven) -> LoadResult {
    let name = &spec.name;
    let groups = &driven.names.groups;
    let logs: Vec<Vec<GroupLog>> = std::iter::zip(groups, &driven.cores)
        .map(|(group, cores)| {
            let log_at = |core: &SharedCore| core.lock().log(*group).cloned().unwrap_or_default();
            cores.iter().map(log_at).collect()
        })
        .collect();
    // A (shard, replica) core serves several groups; visit each once.
    let mut seen = HashSet::new();
    let distinct = driven.cores.iter().flatten();
    let distinct: Vec<_> = distinct.filter(|c| seen.insert(Arc::as_ptr(c))).collect();

    let per_actor: Vec<RunMetrics> = fleet.sinks.iter().map(|s| s.lock().clone()).collect();
    let mut totals = fleet.totals();
    totals.merge(&driven.service);
    totals.faults_injected += driven.replay.faults_applied;
    for core in &distinct {
        totals.reclaimed_versions += core.lock().reclaimed_version_count();
    }

    let mut tally = Tally::default();
    for actor in &fleet.tallies {
        let mut actor = actor.lock();
        tally.committed.append(&mut actor.committed);
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
             be replayed; raise `DurableConfig::snapshot_every` for read-plane runs"
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

    let group_name = |group: GroupId| {
        let name = driven.symbols.group_name(group);
        name.unwrap_or_else(|| group.to_string())
    };
    LoadResult {
        spec: spec.clone(),
        totals,
        per_actor,
        actor_replicas: (0..fleet.sinks.len())
            .map(|index| spec.replica_for_actor(index))
            .collect(),
        check: driven
            .check
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
        group_homes: driven.group_homes,
        durable_restarts: driven.replay.durable_restarts,
        torn_wal_tails: driven.replay.torn_wal_tails,
        clock_firings: tally.clock_firings,
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
