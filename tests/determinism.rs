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

use paxos_cp::mdstore::{BatchConfig, CommitProtocol, CommitRoute, Topology};
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

/// FNV-1a-64: a digest fingerprint that is stable across toolchains, unlike
/// `DefaultHasher`.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_proposer_host_reproduces_the_pinned_runs() {
    // Literals captured at commit b36922b, before the direct route, the
    // group committer and the recovery janitor moved onto one proposer
    // host. A refactor that moves a message, a timer or an RNG draw on any
    // of the three paths changes one of these fingerprints.
    let paper = |protocol| {
        LoadSpec::paper_default(Topology::vvv(), protocol)
            .named("determinism-regression")
            .with_clients(3, 15)
            .with_seed(424242)
    };
    let mut committer = paper(CommitProtocol::PaxosCp)
        .with_route(CommitRoute::Submitted)
        .with_groups(2)
        .with_max_open(4);
    committer.batch = BatchConfig::default().with_pipeline_depth(2);
    let crashes = LoadSpec::paper_default(Topology::vvv(), CommitProtocol::PaxosCp)
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
    let pinned = [
        (
            "direct route, basic Paxos",
            paper(CommitProtocol::BasicPaxos),
            0x848854d25c9ad43d,
        ),
        (
            "direct route, Paxos-CP",
            paper(CommitProtocol::PaxosCp),
            0x365ce1e0240caa60,
        ),
        ("group committer", committer, 0xf7111b476909f19c),
        (
            "direct route under rolling crashes",
            crashes,
            0x7457d2a4b61c350e,
        ),
        // The rolling-crash spec above starts no recovery instance (counted
        // at the parent); this one starts four.
        (
            "recovery janitor",
            LoadSpec::rolling_failure(SimDuration::from_secs(4)).with_seed(777),
            0xeda20264c42beaec,
        ),
    ];
    for (path, spec, expected) in pinned {
        let digest = run_digest(&spec);
        assert_eq!(
            fnv1a64(&digest),
            expected,
            "{path}: the run no longer matches the pinned parent — a message, \
             timer or RNG draw moved"
        );
    }
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
