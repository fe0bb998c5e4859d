//! Determinism regression: the same seed must produce byte-identical
//! results — decided-log serial order, outcome counters, everything.
//!
//! This is the runtime counterpart of the `determinism` protocol lint
//! (crates/analysis): the lint statically bans hash-ordered iteration and
//! hidden entropy from simnet-reachable code, and this test catches
//! whatever slips through by diffing two full runs. Before the service and
//! datacenter maps moved to BTree collections, reply and flush order
//! followed `HashMap`'s per-process hasher seed, and two identical runs
//! could abort different transactions.

use paxos_cp::mdstore::{CommitProtocol, Topology};
use paxos_cp::workload::{run_load, LoadSpec};
use simnet::{ChaosSpec, SimDuration};

/// Render everything about a run that determinism is answerable for:
/// the per-group decided-log reports (including the exact serial order of
/// transaction ids) and the aggregate counters.
fn run_digest(spec: &LoadSpec) -> String {
    let result = run_load(spec);
    format!(
        "check={:?} totals={:?} per_actor={:?} duration={:?}",
        result.check, result.totals, result.per_actor, result.duration
    )
}

#[test]
fn same_seed_runs_are_byte_identical() {
    for protocol in [CommitProtocol::BasicPaxos, CommitProtocol::PaxosCp] {
        let spec = LoadSpec::paper_default(Topology::vvv(), protocol)
            .named("determinism-regression")
            .with_clients(3, 15)
            .with_seed(424242);
        let first = run_digest(&spec);
        let second = run_digest(&spec);
        assert_eq!(
            first, second,
            "{protocol:?}: two runs with one seed diverged — nondeterministic \
             iteration or hidden entropy reached the protocol"
        );
    }
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    // Crashes drive the recovery paths (timer re-fires, pending-read
    // flushes) that iterate the converted service maps.
    let spec = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
        .named("determinism-chaos-regression")
        .with_clients(3, 12)
        .with_seed(777)
        .with_chaos(
            ChaosSpec::new(SimDuration::from_secs(4)).with_rolling_crashes(
                2,
                SimDuration::from_secs(1),
                SimDuration::from_millis(300),
            ),
        );
    let first = run_digest(&spec);
    let second = run_digest(&spec);
    assert_eq!(
        first, second,
        "chaos runs with one seed diverged — recovery paths are order-sensitive"
    );
}

#[test]
fn different_seeds_actually_change_the_run() {
    // Guard against the digest being vacuous (e.g. all fields constant).
    let base = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
        .named("determinism-sensitivity")
        .with_clients(3, 15);
    let a = run_digest(&base.clone().with_seed(1));
    let b = run_digest(&base.with_seed(2));
    assert_ne!(
        a, b,
        "the digest must be sensitive to the run's actual history"
    );
}
