//! The load harness from the outside: every preset runs and passes its
//! audits, and the compositions no single-purpose driver could express.

use mdstore::{CommitProtocol, CommitRoute, DurableConfig, StorageConfig, Topology};
use simnet::{ChaosSpec, SimDuration};
use std::collections::HashMap;
use walog::{AttrId, GroupId, GroupLog, KeyId, LogPosition};
use workload::{
    explain_snapshot_reads, run_load, Arrival, ClusterShape, LoadResult, LoadSpec, Placement,
    SnapshotReadSample,
};

fn ms(millis: u64) -> SimDuration {
    SimDuration::from_millis(millis)
}

fn paper() -> LoadSpec {
    LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
}

/// A parallel-runtime point small and slow enough to stay unsaturated
/// on any machine and finish in about a second of wall time.
fn small_parallel(spec: LoadSpec) -> LoadSpec {
    spec.with_groups(4)
        .with_keys(10_000)
        .with_topology(Topology::vvv())
        .with_rtt_scale(0.5)
        .with_windows(ms(300), ms(600))
        .with_seed(7)
}

/// Every preset, scaled down, runs and passes its audits (the full-size
/// runs live in the root integration tests and the experiment harness).
#[test]
fn every_preset_runs_and_verifies() {
    let durable_dir = mdstore::scratch_dir("load-durable");
    let durable = StorageConfig::Durable(DurableConfig::new(&durable_dir));
    type Expect = fn(&LoadResult);
    let rows: Vec<(LoadSpec, Expect)> = vec![
        (paper().with_clients(2, 10).with_seed(7), |r| {
            assert_eq!(r.totals.attempted, 20);
            assert_eq!(r.totals.committed + r.totals.aborted, 20);
            assert!(r.totals.committed > 0);
            assert!(!r.check.is_empty());
            assert_eq!(r.per_actor.len(), 2);
            assert!(r.commit_ratio() > 0.0);
        }),
        (
            paper()
                .with_clients(3, 8)
                .with_route(CommitRoute::Submitted)
                .with_max_open(2)
                .with_seed(13),
            |r| {
                assert_eq!(r.totals.attempted, 24);
                assert_eq!(r.totals.committed + r.totals.aborted, 24);
                assert!(r.totals.committed > 0);
                let windows = &r.totals.window_occupancy;
                assert!(!windows.is_empty(), "the hosted committer flushed windows");
            },
        ),
        (small_parallel(LoadSpec::open_loop(2, 300.0)), |r| {
            assert!(r.totals.attempted > 0, "arrivals must have been offered");
            assert!(r.totals.committed > 0, "some transactions must commit");
            assert_eq!(r.totals.attempted, r.totals.committed + r.totals.aborted);
            assert!(!r.check.is_empty(), "checker must have run");
            assert_eq!(r.spec.workers(), 2);
            assert!(r.totals.commit_latency().count > 0);
        }),
        (small_parallel(LoadSpec::read_mostly(2, 400.0, 3)), |r| {
            assert!(r.reads.completed > 0, "snapshot reads must complete");
            assert_eq!(r.reads.unavailable, 0);
            assert_eq!(r.reads.verified, r.reads.completed, "every read is proven");
            assert!(r.totals.committed > 0, "the write plane must commit");
            assert!(!r.check.is_empty(), "checker must have run");
            assert_eq!(r.spec.mix.serving_replicas, 3);
            assert!(r.reads.latency.count > 0);
        }),
        (
            LoadSpec::rolling_failure(SimDuration::from_secs(6))
                .with_offered_tps(80.0)
                .with_seed(11),
            |r| {
                assert!(r.totals.committed > 0, "chaos run committed nothing");
                assert!(r.totals.faults_injected > 0, "schedule injected no faults");
                assert_eq!(r.unavailable, 0, "re-submission must absorb fault windows");
                assert_eq!(r.window_commits.len(), 6);
                assert!(r.min_window_commits() > 0);
                assert!(r.totals.commit_latency().p99_ms > 0.0);
                assert_eq!(r.durable_restarts, 0, "in-memory: no restarts from disk");
            },
        ),
        (
            LoadSpec::rolling_failure(SimDuration::from_secs(6))
                .with_offered_tps(60.0)
                .with_seed(23)
                .with_storage(durable),
            |r| {
                assert!(
                    r.totals.committed > 0,
                    "durable chaos run committed nothing"
                );
                assert!(r.totals.faults_injected > 0, "schedule injected no faults");
                assert!(r.durable_restarts > 0, "recovered sites restart from disk");
                assert!(r.torn_wal_tails > 0, "recovery tolerates the torn WAL tail");
                assert_eq!(r.unavailable, 0, "re-submission absorbs durable restarts");
            },
        ),
    ];
    for (spec, expect) in rows {
        expect(&run_load(&spec));
    }
    mdstore::remove_scratch_dir(&durable_dir);
}

#[test]
fn basic_paxos_never_promotes() {
    let basic = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::BasicPaxos);
    let result = run_load(&basic.with_clients(2, 10).with_seed(11));
    assert_eq!(result.totals.attempted, 20);
    assert_eq!(result.totals.promoted_commits(), 0);
}

#[test]
fn fault_free_schedule_behaves_like_a_plain_run() {
    let spec = LoadSpec::rolling_failure(SimDuration::from_secs(3))
        .with_chaos(ChaosSpec::new(SimDuration::from_secs(3)))
        .with_offered_tps(50.0)
        .with_seed(5);
    let r = run_load(&spec);
    assert_eq!(r.totals.faults_injected, 0);
    assert_eq!(r.totals.resubmissions, 0, "nothing to retry without faults");
    assert_eq!(
        (r.unavailable, r.durable_restarts, r.torn_wal_tails),
        (0, 0, 0)
    );
    assert!(r.totals.committed > 0);
}

/// The closed loop under home churn must actually churn homes: the
/// schedule addresses groups by index before any of them has a log.
#[test]
fn closed_loop_chaos_moves_group_homes() {
    let churn = ChaosSpec::new(SimDuration::from_secs(8))
        .with_rolling_crashes(3, SimDuration::from_secs(3), ms(300))
        .with_home_churn(4, SimDuration::from_secs(1));
    let spec = paper()
        .with_clients(3, 10)
        .with_groups(4)
        .with_route(CommitRoute::Submitted)
        .with_chaos(churn)
        .with_seed(3);
    let result = run_load(&spec);
    let round_robin: Vec<usize> = (0..4).map(|g| g % 3).collect();
    assert_ne!(
        result.group_homes, round_robin,
        "seven MoveHome events must leave some group away from its default home"
    );
    assert!(result.totals.faults_injected >= 7, "applied moves count");
}

/// An actor whose site crashes and recovers *k* times keeps one clock:
/// every recovery re-arms at most the one timer the outage suppressed.
#[test]
fn recoveries_do_not_multiply_the_arrival_clock() {
    let crashes = ChaosSpec::new(SimDuration::from_secs(10)).with_rolling_crashes(
        1,
        SimDuration::from_secs(1),
        ms(250),
    );
    let mut spec = LoadSpec::rolling_failure(SimDuration::from_secs(10))
        .with_chaos(crashes)
        .with_offered_tps(40.0)
        .with_placement(Placement::AllAt(0))
        .with_seed(17);
    spec.actors = Some(1);
    let result = run_load(&spec);
    let recoveries = result.totals.faults_injected;
    assert!(recoveries >= 8, "site 0 must crash about once a second");
    assert!(
        result.clock_firings <= result.totals.attempted as u64 + recoveries + 1,
        "{} clock firings for {} arrivals across {recoveries} recoveries",
        result.clock_firings,
        result.totals.attempted
    );
}

/// The paper's multi-operation read/write workload under durable
/// rolling crashes: serializable and exactly-once (asserted by the
/// harness), with crashed datacenters rebuilt from disk — the restart
/// asserts the recovered state fingerprint equals the pre-crash one.
#[test]
fn paper_workload_survives_durable_rolling_crashes() {
    let dir = mdstore::scratch_dir("load-paper-durable");
    let crashes = ChaosSpec::new(SimDuration::from_secs(12)).with_rolling_crashes(
        3,
        SimDuration::from_secs(2),
        ms(400),
    );
    // The checker validates every read against the writes below it in
    // the log, so the log must not be truncated behind a snapshot.
    let mut durable = DurableConfig::new(&dir);
    durable.snapshot_every = 0;
    let spec = paper()
        .with_clients(4, 15)
        .with_storage(StorageConfig::Durable(durable))
        .with_chaos(crashes)
        .with_seed(29);
    let result = run_load(&spec);
    mdstore::remove_scratch_dir(&dir);
    assert_eq!(result.totals.attempted, 60);
    assert!(result.totals.committed > 0);
    assert!(result.totals.read_only < 60, "the mix must log writes");
    assert!(
        result.durable_restarts >= 1,
        "crashed sites restart from disk"
    );
}

/// The read-mostly mix on the deterministic simulation: two same-seed
/// runs are byte-identical, every read is explained at its watermark
/// and no lease leaks (the last two asserted by the harness).
#[test]
fn read_mostly_on_the_simulation_is_deterministic_and_explained() {
    let mut spec = LoadSpec::read_mostly(1, 400.0, 2)
        .with_topology(Topology::vvv())
        .with_keys(2_000)
        .with_windows(SimDuration::from_secs(2), ms(600))
        .with_seed(31);
    // Crashes on top: reads in flight to (or from) a crashed site are shed
    // after their patience, commits ride the session's re-submission (the
    // preset re-submits nothing; five attempts ride the crashes out).
    let crashes =
        ChaosSpec::new(SimDuration::from_secs(2)).with_rolling_crashes(3, ms(600), ms(200));
    spec.shape = ClusterShape::Sim {
        storage: StorageConfig::InMemory,
        chaos: Some(crashes),
    };
    spec.client.max_resubmissions = 5;
    let digest = |r: &LoadResult| format!("{:?} {:?} {:?}", r.totals, r.reads, r.check);
    let first = run_load(&spec);
    assert_eq!(digest(&first), digest(&run_load(&spec)));
    assert!(first.reads.completed > 500, "95 % of ~800 arrivals");
    assert!(first.totals.faults_injected >= 2 && first.reads.shed > 0);
    assert_eq!(first.reads.verified, first.reads.completed);
    assert!(first.totals.committed > 0, "the 5 % writes must commit");
    assert_eq!(first.unavailable, 0, "re-submission absorbs every crash");
    assert_eq!(first.actor_replicas, vec![0, 1, 2]);
}

/// The replay rejects an observation that no decided write explains.
#[test]
fn explain_rejects_an_unexplained_observation() {
    let logs: HashMap<GroupId, GroupLog> = HashMap::from([(GroupId(1), GroupLog::default())]);
    let sample = |observed: Option<&str>| SnapshotReadSample {
        group: GroupId(1),
        at: LogPosition(3),
        row: KeyId(1),
        attr: AttrId(1),
        observed: observed.map(str::to_string),
    };
    let err = explain_snapshot_reads(&logs, &[sample(Some("phantom"))]).unwrap_err();
    assert!(err.contains("phantom"), "names the observation: {err}");
    // An explained (empty) observation passes.
    assert_eq!(explain_snapshot_reads(&logs, &[sample(None)]).unwrap(), 1);
}

#[test]
fn paper_default_is_500_transactions() {
    let spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp);
    assert_eq!(spec.total_transactions(), Some(500));
    assert_eq!(spec.num_actors(), 4);
    assert_eq!(spec.mix.ops_per_txn, 10);
    assert_eq!((spec.mix.read_fraction, spec.keyspace.keys), (0.5, 100));
    // The paper's thread is strictly serial, at one transaction a second.
    let serial =
        |a| matches!(a, Arrival::Closed { max_open: 1, target_tps, .. } if target_tps == 1.0);
    assert!(serial(spec.arrival));
}

#[test]
fn placement_maps_actors_to_replicas() {
    let spec = LoadSpec::paper_default(Topology::voc(), CommitProtocol::PaxosCp)
        .with_placement(Placement::RoundRobin)
        .with_clients(3, 500);
    assert_eq!(spec.replica_for_actor(0), 0);
    assert_eq!(spec.replica_for_actor(1), 1);
    assert_eq!(spec.replica_for_actor(2), 2);
    let spec = spec.with_placement(Placement::AllAt(1));
    assert_eq!(spec.replica_for_actor(2), 1);
    // Out-of-range placement clamps to the last datacenter.
    let spec = spec.with_placement(Placement::AllAt(99));
    assert_eq!(spec.replica_for_actor(0), 2);
}

#[test]
fn builders_override_fields() {
    let spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::BasicPaxos)
        .named("x")
        .with_seed(7)
        .with_keys(20)
        .with_target_tps(4.0);
    assert_eq!(spec.name, "x");
    assert_eq!(spec.seed, 7);
    assert_eq!(spec.keyspace.keys, 20);
    assert!(matches!(spec.arrival, Arrival::Closed { target_tps, .. } if target_tps == 4.0));
}

/// An explicitly set actor count survives a later topology change; an
/// unset one follows the topology the run actually starts with.
#[test]
fn actor_count_defaults_when_the_run_starts_not_when_the_spec_is_built() {
    let unset = LoadSpec::read_mostly(2, 400.0, 3);
    assert_eq!(unset.num_actors(), 6, "one per (worker, VOC datacenter)");
    let five = Topology::from_name("VVVOC").unwrap();
    assert_eq!(unset.with_topology(five.clone()).num_actors(), 10);
    let mut set = LoadSpec::read_mostly(2, 400.0, 3);
    set.actors = Some(4);
    assert_eq!(set.with_topology(five).num_actors(), 4);
}

#[test]
fn mean_gap_follows_the_offered_rate() {
    let closed = |target_tps| Arrival::Closed {
        max_open: 1,
        target_tps,
        txns_per_actor: 1,
        stagger: SimDuration::ZERO,
    };
    assert_eq!(closed(2.0).mean_gap(4), ms(500));
    assert_eq!(closed(0.5).mean_gap(4), ms(2_000));
    assert_eq!(closed(0.0).mean_gap(4), SimDuration::ZERO);
    assert_eq!(LoadSpec::open_loop(1, 100.0).arrival.mean_gap(4), ms(40));
}
