//! Route equivalence: the same seeded workload must be correct — and land
//! in the same place — whichever commit route carries it.
//!
//! * **Contended**: the paper's read/write workload run under
//!   `CommitRoute::Direct` and `CommitRoute::Submitted` must both produce
//!   serializable per-group logs (the checker runs inside
//!   `run_load`; these tests re-run it over the merged logs via
//!   `Cluster::verify` semantics) with every transaction reaching an
//!   outcome.
//! * **Conflict-free**: when every writer touches its own row, nothing can
//!   abort — both routes must commit everything and converge to the
//!   *identical* final store state.
//! * **Snapshot reads in the mix**: the conflict-free runs also open
//!   read-only snapshot handles mid-run, rotating through every replica as
//!   the serving datacenter. The snapshot plane must not perturb where the
//!   writes land (final states still identical across routes), and every
//!   value a snapshot observed must be explained by the merged decided log
//!   at the handle's watermark ([`workload::explain_snapshot_reads`]).

use mdstore::{ClientAction, CommitProtocol, CommitRoute, Topology};
use workload::{place, run_load, LoadSpec, Names, SnapshotReadSample};

use mdstore::{Cluster, ClusterConfig, RunMetrics, Session};
use simnet::{NodeId, SimDuration};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use walog::{checker, GroupLog};

/// The same seeded contended workload down both routes: both serializable,
/// every transaction decided, equal offered load.
#[test]
fn contended_workload_is_serializable_under_both_routes() {
    let spec = |route: CommitRoute| {
        LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
            .named(format!("route-eq-{}", route.name()))
            .with_clients(4, 10)
            .with_route(route)
            .with_max_open(3)
            .with_target_tps(25.0)
            .with_keys(30)
            .with_seed(4242)
    };
    // `run_load` panics if the merged per-group logs violate replica
    // agreement or one-copy serializability, so reaching the asserts means
    // both routes passed the checker on identical offered load.
    let direct = run_load(&spec(CommitRoute::Direct));
    let submitted = run_load(&spec(CommitRoute::Submitted));
    for result in [&direct, &submitted] {
        let name = &result.spec.name;
        assert_eq!(result.totals.attempted, 40, "{name}");
        assert_eq!(
            result.totals.committed + result.totals.aborted,
            result.totals.attempted,
            "{name}: every transaction must reach an outcome"
        );
        assert!(result.totals.committed > 0, "{name}");
        assert!(!result.check.is_empty(), "{name}");
    }
}

/// Open a read-only snapshot transaction homed at `replica`, read every
/// (row, attr) cell of the conflict-free workload through it, and return
/// one [`SnapshotReadSample`] per cell, stamped with the handle's
/// watermark. Driven synchronously against the shared cores — snapshot
/// handles never run Paxos, so no simulator turn is needed.
fn snapshot_all_cells(
    cluster: &Cluster,
    replica: usize,
    writers: usize,
) -> Vec<SnapshotReadSample> {
    let symbols = cluster.symbols();
    let group = symbols.group("shard");
    let mut session = Session::new(
        NodeId(900 + replica as u32),
        replica,
        cluster.directory(),
        cluster.client_config(),
    );
    let now = cluster.now();
    let handle = session.begin_read_only(now, "shard");
    let (serving, at) = session
        .snapshot_watermark(handle)
        .expect("read-only handle has a watermark");
    assert_eq!(serving, replica, "the session's own datacenter serves");
    let mut samples = Vec::new();
    for w in 0..writers {
        let row_name = format!("row{w}");
        let row = symbols.key(&row_name);
        for a in 0..6 {
            let attr_name = format!("a{a}");
            let attr = symbols.attr(&attr_name);
            let observed = session
                .read(handle, &row_name, &attr_name)
                .expect("snapshot reads never abort");
            samples.push(SnapshotReadSample {
                group,
                at,
                row,
                attr,
                observed,
            });
        }
    }
    let actions = session
        .commit(now, handle)
        .expect("read-only commit cannot fail");
    assert!(
        matches!(
            actions.as_slice(),
            [ClientAction::Finished(result)] if result.committed && result.read_only
        ),
        "read-only commit closes immediately, route-free"
    );
    samples
}

/// Run `writers` conflict-free drivers (each writing only its own row) down
/// `route` — with snapshot readers interleaved mid-run at every replica —
/// and return the final value of every (row, attr) cell at replica 0, the
/// run totals, and the number of checker-explained snapshot reads.
fn conflict_free_final_state(
    route: CommitRoute,
    writers: usize,
    txns_each: usize,
) -> (
    BTreeMap<(String, String), Option<String>>,
    RunMetrics,
    usize,
) {
    let mut cluster =
        Cluster::build(ClusterConfig::new(Topology::vvv(), CommitProtocol::PaxosCp).with_seed(99));
    // Blind writes only, strictly serial per writer, each writer on its own
    // row: a writer's own overlapping transactions would race for log order
    // on the attributes they share, and a read of an earlier write would
    // make the workload contended — either way outcomes could legally
    // diverge between routes. Serial disjoint-row writers have exactly one
    // serializable final state.
    let symbols = cluster.symbols();
    let mut fleets = Vec::new();
    for w in 0..writers {
        let mut spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
            .with_clients(1, txns_each)
            .with_route(route)
            .with_keys(6)
            .with_target_tps(40.0)
            .with_seed(1000 + w as u64);
        spec.mix.ops_per_txn = 4;
        spec.mix.read_fraction = 0.0;
        spec.mix.op_delay = SimDuration::from_millis(2);
        let names = Arc::new(Names {
            groups: vec![symbols.group("shard")],
            rows: vec![symbols.key(&format!("row{w}"))],
            attrs: (0..6).map(|a| symbols.attr(&format!("a{a}"))).collect(),
        });
        fleets.push(place(&mut cluster, &spec, &names));
    }
    // Interleave snapshot reads with the writers: run the simulation in
    // slices and, between slices, read every cell through a read-only
    // handle homed at a rotating replica. Each handle's watermark is that
    // replica's applied prefix at that instant, so the samples span the
    // whole history from empty store to fully written.
    let mut samples = Vec::new();
    for slice in 0..5 {
        cluster.run_for(SimDuration::from_millis(60));
        samples.extend(snapshot_all_cells(&cluster, slice % 3, writers));
    }
    cluster.run_to_completion();
    // One more snapshot per replica at the final watermark: these must
    // observe exactly the final state the routes are compared on.
    for replica in 0..3 {
        samples.extend(snapshot_all_cells(&cluster, replica, writers));
    }
    cluster
        .verify()
        .expect("conflict-free run must be serializable");

    let mut totals = RunMetrics::default();
    for fleet in &fleets {
        totals.merge(&fleet.totals());
    }
    let group = symbols.group("shard");
    let mut state = BTreeMap::new();
    let mut state_in_order = Vec::new();
    {
        let core = cluster.core(0);
        let mut core = core.lock();
        let position = core.read_position(group);
        for w in 0..writers {
            let row_name = format!("row{w}");
            let row = symbols.key(&row_name);
            for a in 0..6 {
                let attr_name = format!("a{a}");
                let attr = symbols.attr(&attr_name);
                let value = core.read(group, row, attr, position).unwrap();
                state_in_order.push(value.clone());
                state.insert((row_name.clone(), attr_name), value);
            }
        }
    }
    // The post-drain snapshots — one per serving replica — must observe
    // exactly the final state the routes are compared on, wherever they
    // were served.
    let per_snapshot = writers * 6;
    let finals = &samples[samples.len() - 3 * per_snapshot..];
    for (replica, chunk) in finals.chunks(per_snapshot).enumerate() {
        let observed: Vec<Option<String>> = chunk.iter().map(|s| s.observed.clone()).collect();
        assert_eq!(
            observed, state_in_order,
            "replica {replica}'s final snapshot must see the final state"
        );
    }
    // Prove every snapshot read — mid-run and final — against the merged
    // decided log at its watermark.
    let logs_by_replica = cluster.replica_logs(group);
    let log_refs: Vec<&GroupLog> = logs_by_replica.iter().collect();
    let mut logs = HashMap::new();
    logs.insert(group, checker::merged_log(&log_refs));
    let verified = workload::explain_snapshot_reads(&logs, &samples)
        .expect("every snapshot read must be explained at its watermark");
    assert_eq!(verified, samples.len());
    (state, totals, verified)
}

/// Conflict-free workload with snapshot readers mixed in: disjoint rows
/// per writer ⇒ nothing can abort ⇒ both routes commit everything and the
/// final store states are identical, cell for cell — and the interleaved
/// snapshot reads (never aborting, served by rotating replicas) are all
/// explained by the merged decided log at their watermarks.
#[test]
fn conflict_free_workload_converges_to_identical_state_under_both_routes() {
    let (direct_state, direct_totals, direct_verified) =
        conflict_free_final_state(CommitRoute::Direct, 3, 6);
    let (submitted_state, submitted_totals, submitted_verified) =
        conflict_free_final_state(CommitRoute::Submitted, 3, 6);
    assert_eq!(direct_totals.attempted, 18);
    assert_eq!(submitted_totals.attempted, 18);
    assert_eq!(
        direct_totals.committed, direct_totals.attempted,
        "conflict-free direct route must commit everything"
    );
    assert_eq!(
        submitted_totals.committed, submitted_totals.attempted,
        "conflict-free submitted route must commit everything"
    );
    assert_eq!(
        direct_state, submitted_state,
        "both routes must converge to the identical final store state"
    );
    // Some cell was actually written (the workload is all writes).
    assert!(direct_state.values().any(|v| v.is_some()));
    // Every snapshot read on both routes was proven at its watermark: 5
    // mid-run snapshots plus 3 final ones, 18 cells each.
    assert_eq!(direct_verified, 8 * 18);
    assert_eq!(submitted_verified, 8 * 18);
}
